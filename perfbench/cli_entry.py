"""Stand-in for the installed ``contactshape`` console script.

    python3 perfbench/cli_entry.py [--spans FILE] <contactshape arguments>

It does what the generated console script does, ``sys.exit(main())``
with the rest of the command line.  With ``--spans`` it first wraps the
package's public functions and writes the spans of this process to FILE
when ``main`` returns.  ``PYTHONPATH`` must name ``src`` and the
repository root.
"""

import sys


def main(argv) -> int:
    if argv[:1] == ["--spans"]:
        from perfbench.tracing import Tracer

        from contactshape import cli

        tracer = Tracer()
        try:
            with tracer.installed():
                return cli.main(argv[2:])
        finally:
            tracer.dump(argv[1])
    from contactshape.cli import main as cli_main

    return cli_main(argv)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
