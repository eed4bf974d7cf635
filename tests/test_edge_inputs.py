"""Edge inputs in every numeric argument of the checked public callables.

Each numeric argument, and each numeric entry of a tuple or list
argument, is replaced in turn by NaN, +inf, -inf, 0, -1 and True.  A
call passes when it returns a finite value (every number it holds is
finite, and a returned kernel gives a finite value) or raises a
ContactShapeError; a silent NaN or inf, or any other exception, fails.
"""

import dataclasses
import math
import numbers

import numpy as np
import pytest

from contactshape import (
    ContactShapeError,
    ElastomerParams,
    IndenterSpec,
    InvalidArgumentError,
    apply_forward,
    apply_inverse,
    assemble,
    bc_approx_coefficients,
    bc_effective_block,
    bc_point_displacement,
    bc_resolved_block,
    bc_resolved_zz,
    build_regular_grid,
    compare_models,
    fme_worst_case_count,
    grid_from_taxel_layout,
    love_displacement,
    love_effective_column,
    love_effective_zz,
    love_potential_oracle,
    nnls_solve,
    precompute_inverse,
    psi,
    reconstruct,
    spread_radius,
)
from contactshape.boussinesq import bc_zz_kernel
from contactshape.love import love_zz_kernel

EDGE_VALUES = [math.nan, math.inf, -math.inf, 0.0, -1.0, True]

E = 2.1e5
PARAMS = ElastomerParams()
TRACT = build_regular_grid((0.0, 0.0), 2, 2, 2e-3, 2e-3)
DISP = TRACT.retag("displacement")
MAT = assemble("bc", TRACT, DISP, PARAMS)
VEC = [1e-5, 2e-5, 3e-5, 4e-5]

# name -> (callable, positional arguments with finite, valid values)
CASES = {
    "bc_point_displacement": (bc_point_displacement, ((0.0, 0.0, 1.0), (1e-3, 1e-3, 1e-3), E)),
    "bc_effective_block": (bc_effective_block, (1e-3, 1e-3, 2e-3, E)),
    "bc_resolved_block": (bc_resolved_block, (1e-3, 1e-3, 4e-6, 2e-3, E, "exact")),
    "bc_resolved_zz": (bc_resolved_zz, (1e-3, 1e-3, 4e-6, 2e-3, E, "exact")),
    "bc_approx_coefficients": (bc_approx_coefficients, (4e-6, 2e-3, E, "exact")),
    "spread_radius": (spread_radius, (4e-6,)),
    "bc_zz_kernel": (bc_zz_kernel, (2e-3, E, "exact")),
    "psi_exact": (psi, (2.0, "exact")),
    "love_displacement": (love_displacement, (1e5, (1e-3, 1e-3), (1e-3, 2e-3, 1e-3), PARAMS)),
    "love_effective_column": (love_effective_column, ((1e-3, 2e-3), (1e-3, 1e-3), 2e-3, PARAMS)),
    "love_effective_zz": (love_effective_zz, (1e-3, 2e-3, 1e-3, 1e-3, 2e-3, E, 0.5)),
    "love_zz_kernel": (love_zz_kernel, (2e-3, E, 0.5)),
    "love_potential_oracle": (
        love_potential_oracle, (1e5, (1e-3, 1e-3), (3e-3, 0.0, 1e-3), "V", 1e-6)
    ),
    "IndenterSpec": (IndenterSpec, ("hemisphere", 6e-3, (0.0, 0.0), 1.0)),
    "ElastomerParams": (ElastomerParams, (2.1e5, 0.5, 2e-3, 8.85e-12, 1.0, 5e-5)),
    "compare_models": (compare_models, (1e5, (5e-4, 2e-4), PARAMS, 5, 3e-3)),
    "grid_from_taxel_layout": (grid_from_taxel_layout, ([[0.0, 0.0], [5e-3, 0.0]], 1.6e-5)),
    "apply_forward": (apply_forward, (MAT, VEC)),
    "apply_inverse": (apply_inverse, (precompute_inverse(MAT), VEC)),
    "nnls_solve": (nnls_solve, (MAT.entries, VEC)),
    "reconstruct_free": (reconstruct, (VEC, "bc", TRACT, DISP, PARAMS, "free")),
    "reconstruct_nonneg": (reconstruct, (VEC, "bc", TRACT, DISP, PARAMS, "nonneg")),
    "fme_worst_case_count": (fme_worst_case_count, (8, 2)),
}


def _numeric_paths(value, path=()):
    """Index paths to the numbers in ``value`` and its nested tuples and lists."""
    if isinstance(value, (tuple, list)):
        for i, item in enumerate(value):
            yield from _numeric_paths(item, path + (i,))
    elif isinstance(value, numbers.Real):
        yield path


def _replaced(value, path, new):
    if not path:
        return new
    items = list(value)
    items[path[0]] = _replaced(items[path[0]], path[1:], new)
    return type(value)(items)


def _all_finite(result) -> bool:
    if callable(result):  # a per-pair kernel, tried on one cell
        return _all_finite(result(1e-3, 2e-3, 1e-3, 1e-3))
    if dataclasses.is_dataclass(result):
        return all(_all_finite(getattr(result, f.name)) for f in dataclasses.fields(result))
    if isinstance(result, dict):
        return all(_all_finite(v) for v in result.values())
    if isinstance(result, (tuple, list)):
        return all(_all_finite(v) for v in result)
    if isinstance(result, np.ndarray):
        return result.dtype.kind not in "fc" or bool(np.all(np.isfinite(result)))
    if isinstance(result, numbers.Real):
        return math.isfinite(result)
    return True  # strings, None


@pytest.mark.parametrize("name", sorted(CASES))
def test_edge_inputs_give_a_finite_value_or_an_error(name):
    fn, args = CASES[name]
    assert _all_finite(fn(*args))  # the baseline itself is valid
    bad = []
    for path in _numeric_paths(args):
        for edge in EDGE_VALUES:
            call = "%s with argument %s = %r" % (name, path, edge)
            try:
                result = fn(*_replaced(args, path, edge))
            except ContactShapeError:
                continue
            except Exception as exc:  # any other exception is a finding
                bad.append("%s raised %s: %s" % (call, type(exc).__name__, exc))
                continue
            if not _all_finite(result):
                bad.append("%s returned a non-finite value" % call)
    assert not bad, "\n".join(bad)


@pytest.mark.parametrize("n, p", [(4, 1.5), (4.0, 1), (True, 1), (4, False), ("4", 1)])
def test_fme_worst_case_count_needs_integer_counts(n, p):
    with pytest.raises(InvalidArgumentError):
        fme_worst_case_count(n, p)
