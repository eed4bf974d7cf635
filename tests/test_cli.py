import json
import os
import re
import subprocess
import sys

import numpy as np
import pytest

import contactshape
from contactshape import (
    ElastomerParams,
    TaxelReading,
    delta_c_from_thickness,
    load_grid,
    pipeline,
    read_field,
    save_readings,
    solvers,
)
from contactshape.cli import main


def run(args, capsys):
    code = main(args)
    out, err = capsys.readouterr()
    return code, out, err


@pytest.fixture
def grid_file(tmp_path):
    path = tmp_path / "grid.csv"
    assert main(["make-grid", "--nx", "3", "--ny", "3", "--pitch", "2e-3", "--out", str(path)]) == 0
    return path


def test_make_grid(tmp_path, capsys):
    path = tmp_path / "g.csv"
    code, out, _ = run(
        ["make-grid", "--nx", "4", "--ny", "2", "--pitch", "1e-3", "--origin", "1e-3,0", "--out", str(path)],
        capsys,
    )
    assert code == 0
    assert "8-cell" in out
    g = load_grid(path, "traction")
    assert len(g) == 8
    assert g.cells[0, 0] == pytest.approx(1.5e-3)


def test_synth_and_reconstruct_displacements(grid_file, tmp_path, capsys):
    q_path = tmp_path / "q.dat"
    d_path = tmp_path / "d.dat"
    code, out, _ = run(
        [
            "synth", "--grid", str(grid_file), "--shape", "hemisphere",
            "--diameter", "4e-3", "--center", "3e-3,3e-3", "--force", "1.5",
            "--out", str(q_path), "--displacements-out", str(d_path), "--model", "bc",
        ],
        capsys,
    )
    assert code == 0
    assert "total force 1.500" in out
    assert d_path.exists()

    out_path = tmp_path / "rec.dat"
    rep_path = tmp_path / "rep.json"
    code, out, _ = run(
        [
            "reconstruct", "--model", "bc",
            "--tract-grid", str(grid_file), "--disp-grid", str(grid_file),
            "--displacements", str(d_path),
            "--out", str(out_path), "--report", str(rep_path),
        ],
        capsys,
    )
    assert code == 0
    assert "bc/free solve" in out

    g = load_grid(grid_file, "traction")
    q_in = read_field(q_path, g).values
    q_out = read_field(out_path, g).values
    np.testing.assert_allclose(q_out, q_in, rtol=1e-6, atol=1e-3)

    report = json.loads(rep_path.read_text())
    assert report["model"] == "bc"
    assert report["rank"] == 9
    assert report["converged"] is True


def test_reconstruct_from_readings(grid_file, tmp_path, capsys):
    # forward-solve a probe, then express the displacements as readings
    d_path = tmp_path / "d.dat"
    # cover the whole pad so every sensed displacement is compressive
    # and representable as a capacitance change
    assert main([
        "synth", "--grid", str(grid_file), "--shape", "cylinder",
        "--diameter", "7e-3", "--center", "3e-3,3e-3", "--force", "1.0",
        "--out", str(tmp_path / "q.dat"), "--displacements-out", str(d_path),
        "--model", "love",
    ]) == 0
    g = load_grid(grid_file, "displacement")
    dv = read_field(d_path, g).values
    params = ElastomerParams()
    readings = [
        TaxelReading(i, delta_c_from_thickness(params.nominal_thickness - d, params))
        for i, d in enumerate(dv)
        if d > 0
    ]
    r_path = tmp_path / "r.csv"
    save_readings(readings, r_path)
    code, out, _ = run(
        [
            "reconstruct", "--model", "love",
            "--tract-grid", str(grid_file), "--disp-grid", str(grid_file),
            "--readings", str(r_path), "--constraint", "nonneg",
            "--out", str(tmp_path / "rec.dat"),
        ],
        capsys,
    )
    assert code == 0
    assert "love/nonneg solve" in out
    q_out = read_field(tmp_path / "rec.dat", load_grid(grid_file, "traction")).values
    assert np.all(q_out >= 0.0)
    total = float(np.sum(q_out * load_grid(grid_file, "traction").areas()))
    assert total == pytest.approx(1.0, rel=1e-6)


def test_nonneg_report_has_no_rank(grid_file, tmp_path, capsys):
    d_path = tmp_path / "d.dat"
    assert main([
        "synth", "--grid", str(grid_file), "--shape", "hemisphere",
        "--diameter", "4e-3", "--center", "3e-3,3e-3", "--force", "1.0",
        "--out", str(tmp_path / "q.dat"), "--displacements-out", str(d_path), "--model", "bc",
    ]) == 0
    rep_path = tmp_path / "rep.json"
    code, out, _ = run(
        [
            "reconstruct", "--model", "bc",
            "--tract-grid", str(grid_file), "--disp-grid", str(grid_file),
            "--displacements", str(d_path), "--constraint", "nonneg",
            "--out", str(tmp_path / "rec.dat"), "--report", str(rep_path),
        ],
        capsys,
    )
    assert code == 0
    summary = out.strip().splitlines()[-1]
    assert summary.startswith("bc/nonneg solve") and "rank" not in summary
    report = json.loads(rep_path.read_text())
    assert report["constraint_mode"] == "nonneg"
    assert "rank" in report and report["rank"] is None
    assert report["converged"] and report["free_set_solver"] == "schur"
    assert ", %d iterations" % report["iterations"] in summary


def test_report_carries_the_nnls_tolerance_and_contact_size(grid_file, tmp_path, capsys):
    d_path = tmp_path / "d.dat"
    assert main([
        "synth", "--grid", str(grid_file), "--shape", "hemisphere",
        "--diameter", "4e-3", "--center", "3e-3,3e-3", "--force", "1.0",
        "--out", str(tmp_path / "q.dat"), "--displacements-out", str(d_path), "--model", "bc",
    ]) == 0
    rep_path, q_path = tmp_path / "rep.json", tmp_path / "rec.dat"
    argv = [
        "reconstruct", "--model", "bc", "--tract-grid", str(grid_file), "--disp-grid",
        str(grid_file), "--displacements", str(d_path), "--out", str(q_path), "--report",
        str(rep_path),
    ]
    assert run(argv + ["--constraint", "nonneg"], capsys)[0] == 0
    report = json.loads(rep_path.read_text())
    tract, disp = load_grid(grid_file, "traction"), load_grid(grid_file, "displacement")
    C = contactshape.assemble("bc", tract, disp, ElastomerParams()).entries
    res = solvers.nnls_solve(C, read_field(d_path, disp).values)
    assert report["kkt_tolerance"] == res.kkt_tolerance > 0.0
    q = read_field(q_path, tract).values
    assert report["active_set_size"] == np.count_nonzero(q > 0.0) == np.count_nonzero(res.x > 0.0)
    assert 0 < report["active_set_size"] < len(q)
    assert report["singular_value_range"] is None
    assert run(argv, capsys)[0] == 0
    report = json.loads(rep_path.read_text())
    assert report["kkt_tolerance"] is None and report["active_set_size"] is None
    s = np.linalg.svd(C, compute_uv=False)
    assert report["singular_value_range"] == pytest.approx([s[report["rank"] - 1], s[0]], rel=1e-12)


def test_nonneg_summary_says_when_the_solve_did_not_converge(grid_file, tmp_path, capsys, monkeypatch):
    d_path = tmp_path / "d.dat"
    assert main([
        "synth", "--grid", str(grid_file), "--shape", "hemisphere",
        "--diameter", "4e-3", "--center", "3e-3,3e-3", "--force", "1.0",
        "--out", str(tmp_path / "q.dat"), "--displacements-out", str(d_path), "--model", "bc",
    ]) == 0
    # a node lifted against the probe: the unconstrained solution has a
    # negative pressure, so one pivoting iteration cannot reach the optimum
    disp = load_grid(grid_file, "displacement")
    d = read_field(d_path, disp).values.copy()
    d[0] = -np.max(d)
    contactshape.write_field(contactshape.FieldVector(d, disp), d_path)
    capsys.readouterr()
    monkeypatch.setattr(solvers, "NNLS_MAX_ITERATIONS", 1)
    rep_path = tmp_path / "rep.json"
    code, out, _ = run(
        [
            "reconstruct", "--model", "bc",
            "--tract-grid", str(grid_file), "--disp-grid", str(grid_file),
            "--displacements", str(d_path), "--constraint", "nonneg", "--report", str(rep_path),
        ],
        capsys,
    )
    assert code == 0
    assert ", not converged after 1 iterations" in out
    report = json.loads(rep_path.read_text())
    assert not report["converged"] and report["iterations"] == 1


def test_reconstruct_without_out_prints_only_the_summary(grid_file, tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    d_path = tmp_path / "d.dat"
    assert main([
        "synth", "--grid", str(grid_file), "--shape", "hemisphere",
        "--diameter", "4e-3", "--center", "3e-3,3e-3", "--force", "1.0",
        "--out", str(tmp_path / "q.dat"), "--displacements-out", str(d_path), "--model", "bc",
    ]) == 0
    capsys.readouterr()
    before = sorted(tmp_path.iterdir())
    code, out, _ = run(
        [
            "reconstruct", "--model", "bc",
            "--tract-grid", str(grid_file), "--disp-grid", str(grid_file),
            "--displacements", str(d_path),
        ],
        capsys,
    )
    assert code == 0
    assert len(out.splitlines()) == 1 and out.startswith("bc/free solve")
    assert sorted(tmp_path.iterdir()) == before


def test_synth_without_out_writes_pressures_dat(grid_file, tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    code, out, _ = run(
        [
            "synth", "--grid", str(grid_file), "--shape", "cylinder",
            "--diameter", "5e-3", "--center", "3e-3,3e-3", "--force", "1.0",
        ],
        capsys,
    )
    assert code == 0
    assert out.startswith("pressures written to pressures.dat")
    g = load_grid(grid_file, "traction")
    q = read_field(tmp_path / "pressures.dat", g).values
    assert float(np.sum(q * g.areas())) == pytest.approx(1.0, rel=1e-12)


def test_reconstruct_needs_exactly_one_source(grid_file, tmp_path, capsys):
    code, _, err = run(
        [
            "reconstruct",
            "--tract-grid", str(grid_file), "--disp-grid", str(grid_file),
        ],
        capsys,
    )
    assert code == 1
    assert err.startswith("error: invalid-argument:")


def test_resample_command(grid_file, tmp_path, capsys):
    q_path = tmp_path / "q.dat"
    assert main([
        "synth", "--grid", str(grid_file), "--shape", "hemisphere",
        "--diameter", "4e-3", "--center", "3e-3,3e-3", "--force", "1.0",
        "--out", str(q_path),
    ]) == 0
    coarse = tmp_path / "coarse.csv"
    assert main(["make-grid", "--nx", "2", "--ny", "2", "--pitch", "3e-3", "--out", str(coarse)]) == 0
    out_path = tmp_path / "res.dat"
    code, out, _ = run(
        [
            "resample", "--tract-grid", str(grid_file), "--new-grid", str(coarse),
            "--tractions", str(q_path), "--out", str(out_path),
        ],
        capsys,
    )
    assert code == 0
    coarse_grid = load_grid(coarse, "displacement")
    vals = read_field(out_path, coarse_grid).values
    assert vals.shape == (4,)
    assert np.all(np.isfinite(vals))
    # cross-check one entry against the library forward solve
    from contactshape import apply_forward, assemble, ElastomerParams

    tract = load_grid(grid_file, "traction")
    q = read_field(q_path, tract).values
    mat = assemble("love", tract, coarse_grid, ElastomerParams())
    np.testing.assert_allclose(vals, apply_forward(mat, q), rtol=1e-9)


def test_compare_command(tmp_path, capsys):
    out_path = tmp_path / "cmp.dat"
    code, out, _ = run(
        [
            "compare", "--pressure", "1e5", "--half-x", "5e-4", "--half-y", "2e-4",
            "--samples", "21", "--out", str(out_path),
        ],
        capsys,
    )
    assert code == 0
    text = out_path.read_text()
    assert "love peak" in text and "bc[const] peak" in text and "bc[exact] peak" in text


def test_compare_refuses_bc_on_a_compressible_cover(tmp_path, capsys):
    """bc holds only for poisson_ratio 0.5, and compare profiles bc."""
    p = tmp_path / "params.json"
    p.write_text(json.dumps({"poisson_ratio": 0.3}))
    code, out, err = run(
        ["compare", "--pressure", "1e5", "--half-x", "5e-4", "--half-y", "2e-4",
         "--params", str(p)],
        capsys,
    )
    assert code == 1 and out == ""
    lines = err.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: unsupported-model:"), err


def test_synth_displacements_agree_in_scale_across_models(tmp_path, capsys):
    """Both models take the same cell pressures: on the README's 10x10 pad
    the sensed peak displacements lie within a factor 2 of each other."""
    pad = tmp_path / "pad.grid"
    assert main([
        "make-grid", "--nx", "10", "--ny", "10", "--pitch", "2e-3",
        "--origin=-9e-3,-9e-3", "--out", str(pad),
    ]) == 0
    peaks = {}
    for model in ("bc", "love"):
        d_path = tmp_path / ("d_%s.dat" % model)
        assert main([
            "synth", "--grid", str(pad), "--shape", "hemisphere", "--diameter", "12e-3",
            "--center", "0,0", "--force", "1.8", "--out", str(tmp_path / "p.dat"),
            "--displacements-out", str(d_path), "--model", model,
        ]) == 0
        peaks[model] = float(np.max(read_field(d_path, load_grid(pad, "displacement")).values))
    capsys.readouterr()
    assert 0.5 < peaks["bc"] / peaks["love"] < 2.0, peaks


def test_psi_on_love_is_an_error(grid_file, tmp_path, capsys):
    cache = tmp_path / "cache"
    code, out, err = run(
        [
            "assemble", "--model", "love", "--psi", "exact",
            "--tract-grid", str(grid_file), "--disp-grid", str(grid_file),
            "--cache-dir", str(cache),
        ],
        capsys,
    )
    assert code == 1 and out == ""
    single_error_line(err)
    assert "bc model only" in err
    assert not cache.exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["assemble", "--tract-grid", "g", "--disp-grid", "g"],
        ["reconstruct", "--tract-grid", "g", "--disp-grid", "g"],
        ["resample", "--tract-grid", "g", "--new-grid", "g", "--tractions", "q"],
        ["synth", "--grid", "g", "--shape", "cylinder", "--diameter", "1e-3", "--force", "1"],
    ],
)
def test_seed_is_only_an_fme_demo_option(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--seed", "3"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --seed" in capsys.readouterr().err


def test_assemble_has_no_full_option(grid_file, capsys):
    """Every matrix is normal-only: a taxel senses one normal compression."""
    with pytest.raises(SystemExit) as exc:
        main(["assemble", "--tract-grid", str(grid_file), "--disp-grid", str(grid_file), "--full"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --full" in capsys.readouterr().err


def test_fme_demo_command(capsys):
    code, out, _ = run(["fme-demo", "--vars", "3", "--rows", "6", "--seed", "2"], capsys)
    assert code == 0
    assert "worst case" in out
    assert out.strip().endswith(("feasible: True", "feasible: False"))
    # seed 8 reaches 401 rows after three steps: more than 4 (8/4)^(2*3), within
    # the iterated bound 4 (8/4)^(2^3)
    code, out, _ = run(["fme-demo", "--vars", "4", "--rows", "8", "--seed", "8"], capsys)
    assert code == 0
    steps = re.findall(r": (\d+) rows \(worst case from 8 rows: (\d+)\)", out)
    assert [int(n) for n, _ in steps] == [15, 44, 401, 0]
    assert all(int(n) <= int(bound) for n, bound in steps)
    # five rows that never blow up run every step while the bound passes the row limit
    code, out, _ = run(["fme-demo", "--vars", "12", "--rows", "5", "--seed", "0"], capsys)
    assert code == 0
    assert "worst case from 5 rows: over 1000000)" in out


def test_fme_demo_has_one_arithmetic(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["fme-demo", "--exact"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --exact" in capsys.readouterr().err
    # (1/4, 1/4, -7/8) satisfies seed 46's system
    code, out, _ = run(["fme-demo", "--vars", "3", "--rows", "8", "--seed", "46"], capsys)
    assert code == 0 and out.strip().endswith("feasible: True")


def test_benchmark_command(capsys):
    code, out, _ = run(["benchmark", "--sizes", "4,16", "--models", "bc"], capsys)
    assert code == 0
    assert "fitted cost exponent" in out


def single_error_line(err):
    lines = err.strip().splitlines()
    assert len(lines) == 1, err
    assert lines[0].startswith("error: invalid-argument:")


@pytest.mark.parametrize("sizes", ["25,abc", "25", "25,25", "4,16.0"])
def test_benchmark_bad_sizes_are_one_error_line(sizes, capsys):
    code, out, err = run(["benchmark", "--sizes", sizes, "--models", "bc"], capsys)
    assert code == 1
    assert "exponent" not in out
    single_error_line(err)


@pytest.mark.parametrize("models", ["bc,bc", "love,bc,love"])
def test_benchmark_repeated_models_are_one_error_line(models, capsys):
    code, out, err = run(["benchmark", "--sizes", "25,100", "--models", models], capsys)
    assert code == 1
    assert "exponent" not in out
    single_error_line(err)


# record fields: index, x, y, a, b
@pytest.mark.parametrize("field,value", [(1, "nan"), (2, "inf"), (3, "-Infinity"), (4, "inf")])
def test_reconstruct_rejects_non_finite_grid_file(grid_file, tmp_path, capsys, field, value):
    d_path = tmp_path / "d.dat"
    d_path.write_text("".join("0 0 1e-6\n" for _ in range(9)))
    lines = grid_file.read_text().splitlines()
    record = lines[5].split(",")  # cell 4
    record[field] = value
    lines[5] = ",".join(record)
    bad = tmp_path / "bad.csv"
    bad.write_text("\n".join(lines) + "\n")
    for grids in ((bad, grid_file), (grid_file, bad)):
        code, out, err = run(
            [
                "reconstruct", "--tract-grid", str(grids[0]), "--disp-grid", str(grids[1]),
                "--displacements", str(d_path),
            ],
            capsys,
        )
        assert code == 1 and out == ""
        single_error_line(err)


@pytest.mark.parametrize("value", ["nan", "inf", "-Infinity"])
def test_non_finite_field_files_are_a_bad_record(grid_file, tmp_path, capsys, value):
    field = tmp_path / "f.dat"
    field.write_text("".join("0 0 1e-6\n" for _ in range(8)) + "0 0 %s\n" % value)
    tract = ["--tract-grid", str(grid_file)]
    for argv in (
        ["reconstruct", *tract, "--disp-grid", str(grid_file), "--displacements", str(field)],
        ["resample", *tract, "--new-grid", str(grid_file), "--tractions", str(field),
         "--out", str(tmp_path / "out.dat")],
    ):
        code, out, err = run(argv, capsys)
        assert code == 1 and out == ""
        single_error_line(err)
        assert "field file %s: bad record '0 0 %s'" % (field, value) in err


@pytest.mark.parametrize("key", ["nominal_thickness", "young_modulus"])
def test_compare_rejects_infinite_params(tmp_path, capsys, key):
    p = tmp_path / "params.json"
    p.write_text('{"%s": Infinity}' % key)
    code, out, err = run(
        ["compare", "--pressure", "1e5", "--half-x", "5e-4", "--half-y", "2e-4",
         "--params", str(p)],
        capsys,
    )
    assert code == 1 and out == ""
    single_error_line(err)
    assert key in err


def test_assemble_command_caches(grid_file, tmp_path, capsys):
    cache = tmp_path / "cache"
    code, out, _ = run(
        [
            "assemble", "--model", "love",
            "--tract-grid", str(grid_file), "--disp-grid", str(grid_file),
            "--cache-dir", str(cache),
        ],
        capsys,
    )
    assert code == 0
    assert "cached love matrix" in out
    assert len(list(cache.glob("*.npy"))) == 1


def test_params_file_round_trip(grid_file, tmp_path, capsys):
    good = tmp_path / "params.json"
    good.write_text(json.dumps({"young_modulus": 1e5, "poisson_ratio": 0.4}))
    code, _, _ = run(
        [
            "assemble", "--model", "love", "--params", str(good),
            "--tract-grid", str(grid_file), "--disp-grid", str(grid_file),
        ],
        capsys,
    )
    assert code == 0
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"youngs_modulus": 1e5}))
    code, _, err = run(
        [
            "assemble", "--model", "love", "--params", str(bad),
            "--tract-grid", str(grid_file), "--disp-grid", str(grid_file),
        ],
        capsys,
    )
    assert code == 1
    assert "unknown keys" in err


def test_boolean_params_are_one_error_line(grid_file, tmp_path, capsys):
    p = tmp_path / "params.json"
    p.write_text(json.dumps({"young_modulus": True}))
    code, out, err = run(
        [
            "assemble", "--model", "love", "--params", str(p),
            "--tract-grid", str(grid_file), "--disp-grid", str(grid_file),
        ],
        capsys,
    )
    assert code == 1
    assert out == ""
    single_error_line(err)


def test_module_entry_point(tmp_path):
    out = subprocess.run(
        [sys.executable, "-m", "contactshape.cli", "make-grid",
         "--nx", "2", "--ny", "2", "--pitch", "1e-3", "--out", str(tmp_path / "g.csv")],
        capture_output=True, text=True,
        # the package this run imports, however the tests were started
        env=dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(contactshape.__file__))),
    )
    assert out.returncode == 0
    assert "4-cell" in out.stdout


@pytest.mark.parametrize(
    "flag,value",
    [("--pressure", "nan"), ("--x-max", "inf"), ("--half-x", "inf"), ("--half-y", "-inf"),
     ("--x-max", "0")],
)
def test_compare_rejects_non_finite_inputs(flag, value, capsys):
    argv = {"--pressure": "1e5", "--half-x": "5e-4", "--half-y": "2e-4", "--samples": "3"}
    argv[flag] = value
    code, out, err = run(["compare"] + ["%s=%s" % kv for kv in argv.items()], capsys)
    assert code == 1 and out == ""
    single_error_line(err)


@pytest.mark.parametrize("content", ["5", '"young_modulus"', "[1, 2]", "null"])
def test_params_file_must_hold_an_object(tmp_path, capsys, content):
    p = tmp_path / "params.json"
    p.write_text(content)
    code, out, err = run(
        ["compare", "--pressure", "1e5", "--half-x", "5e-4", "--half-y", "2e-4",
         "--params", str(p)],
        capsys,
    )
    assert code == 1 and out == ""
    single_error_line(err)
    assert "JSON object" in err


@pytest.mark.parametrize(
    "option,value", [("--vars", "-1"), ("--vars", "0"), ("--rows", "-2"), ("--rows", "0")]
)
def test_fme_demo_rejects_bad_sizes(option, value, capsys):
    code, out, err = run(["fme-demo", option, value], capsys)
    assert code == 1 and out == ""
    single_error_line(err)
    assert option in err


def test_reconstruct_summary_names_its_sources(grid_file, tmp_path, capsys):
    d_path = tmp_path / "d.dat"
    d_path.write_text("".join("0 0 1e-6\n" for _ in range(9)))
    argv = [
        "reconstruct", "--model", "bc", "--tract-grid", str(grid_file),
        "--disp-grid", str(grid_file), "--displacements", str(d_path),
        "--cache-dir", str(tmp_path / "cache"), "--report", str(tmp_path / "rep.json"),
    ]
    for sources in ("matrix assembled, inverse factorized", "matrix from cache, inverse from cache"):
        pipeline.memory_tier.clear()  # each command runs in a new process
        code, out, _ = run(argv, capsys)
        assert code == 0
        assert out.strip().endswith("(%s)" % sources)
    report = json.loads((tmp_path / "rep.json").read_text())
    assert report["matrix_source"] == report["inverse_source"] == "cache"
    assert set(report["timings_ms"]) == {"matrix_load_ms", "inverse_load_ms", "online_ms"}
    code, out, _ = run(argv, capsys)  # a second command in the same process
    assert out.strip().endswith("(matrix from memory, inverse from memory)")
    pipeline.memory_tier.clear()
    code, out, _ = run(argv + ["--constraint", "nonneg"], capsys)
    assert out.strip().endswith("(matrix from cache, inverse factorized)")


def test_reconstruct_rejects_a_taxel_index_past_intp(grid_file, tmp_path, capsys):
    r_path = tmp_path / "r.csv"
    r_path.write_text("taxel_index,delta_c_F,timestamp_s\n100000000000000000000,1e-14,\n")
    code, out, err = run(
        [
            "reconstruct", "--tract-grid", str(grid_file), "--disp-grid", str(grid_file),
            "--readings", str(r_path),
        ],
        capsys,
    )
    assert code == 1 and out == ""
    single_error_line(err)
    assert "taxel 100000000000000000000 but grid has 9 taxels" in err


@pytest.mark.parametrize(
    "command,extra",
    [
        ("assemble", ["--tract-grid", "absent.csv"]),
        ("reconstruct", ["--out", "nodir/q.dat"]),
        ("assemble", ["--out", "nodir/m.npy"]),
        ("assemble", ["--cache-dir", "not-a-dir"]),
        ("reconstruct", ["--cache-dir", "not-a-dir"]),
    ],
)
def test_file_errors_are_one_io_line(grid_file, tmp_path, capsys, monkeypatch, command, extra):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "not-a-dir").write_text("")
    (tmp_path / "d.dat").write_text("".join("0 0 1e-6\n" for _ in range(9)))
    argv = [command, "--model", "bc", "--tract-grid", str(grid_file), "--disp-grid", str(grid_file)]
    if command == "reconstruct":
        argv += ["--displacements", "d.dat"]
    code, out, err = run(argv + extra, capsys)  # a repeated option takes its last value
    assert code == 1 and out == ""
    lines = err.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: io:"), err


NOT_TEXT = b"\xff\xfe" + "index\n".encode("utf-16-le")  # a UTF-16 file, not UTF-8 text


@pytest.mark.parametrize("bad", ["--disp-grid", "--readings", "--displacements"])
def test_a_file_that_is_not_text_is_one_error_line(grid_file, tmp_path, capsys, bad):
    (tmp_path / "not-text").write_bytes(NOT_TEXT)
    (tmp_path / "r.csv").write_text("taxel_index,delta_c_F,timestamp_s\n0,1e-14,\n")
    (tmp_path / "d.dat").write_text("".join("0 0 1e-6\n" for _ in range(9)))
    argv = ["reconstruct", "--model", "bc", "--tract-grid", str(grid_file),
            "--disp-grid", str(grid_file)]
    source = "--readings" if bad == "--readings" else "--displacements"
    argv += [source, str(tmp_path / {"--readings": "r.csv", "--displacements": "d.dat"}[source])]
    code, out, err = run(argv + [bad, str(tmp_path / "not-text")], capsys)  # the last value counts
    assert code == 1 and out == ""
    single_error_line(err)
    assert "not text" in err and "not-text" in err


def test_a_field_record_that_is_not_a_number_is_one_error_line(grid_file, tmp_path, capsys):
    d_path = tmp_path / "d.dat"
    d_path.write_text("".join("0 0 1e-6\n" for _ in range(8)) + "0 0 abc\n")
    code, out, err = run(
        ["reconstruct", "--model", "bc", "--tract-grid", str(grid_file),
         "--disp-grid", str(grid_file), "--displacements", str(d_path)],
        capsys,
    )
    assert code == 1 and out == ""
    single_error_line(err)
    assert "field file" in err and "bad record '0 0 abc'" in err


def test_a_missing_params_file_is_one_io_line(grid_file, tmp_path, capsys):
    code, out, err = run(
        ["assemble", "--model", "bc", "--params", str(tmp_path / "absent.json"),
         "--tract-grid", str(grid_file), "--disp-grid", str(grid_file)],
        capsys,
    )
    assert code == 1 and out == ""
    lines = err.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: io:") and "absent.json" in err, err


def test_assemble_out_writes_the_named_path(grid_file, tmp_path, capsys):
    out_path = tmp_path / "m.dat"
    code, out, _ = run(
        ["assemble", "--model", "bc", "--tract-grid", str(grid_file), "--disp-grid", str(grid_file),
         "--out", str(out_path)],
        capsys,
    )
    assert code == 0 and "entries written to %s" % out_path in out
    g = load_grid(grid_file, "traction")
    want = contactshape.assemble("bc", g, g.retag("displacement"), ElastomerParams()).entries
    assert np.load(out_path).tobytes() == want.tobytes()
    assert not (tmp_path / "m.dat.npy").exists()


@pytest.mark.parametrize("constraint", pipeline.CONSTRAINT_MODES)
def test_a_non_finite_solve_is_a_numerical_failure_and_writes_nothing(
    grid_file, tmp_path, capsys, constraint
):
    d_path = tmp_path / "d.dat"
    d_path.write_text("".join("0 0 1e300\n" for _ in range(9)))
    out_path, report_path = tmp_path / "q.dat", tmp_path / "report.json"
    code, out, err = run(
        [
            "reconstruct", "--tract-grid", str(grid_file), "--disp-grid", str(grid_file),
            "--displacements", str(d_path), "--constraint", constraint,
            "--out", str(out_path), "--report", str(report_path),
        ],
        capsys,
    )
    assert code == 1 and out == ""
    lines = err.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: numerical-failure:")
    assert not out_path.exists() and not report_path.exists()


@pytest.mark.parametrize("constraint", pipeline.CONSTRAINT_MODES)
def test_a_non_finite_solve_prints_only_its_error_line(grid_file, tmp_path, constraint):
    # a fresh process, since pytest captures the warnings numpy would print
    d_path = tmp_path / "d.dat"
    d_path.write_text("".join("0 0 1e300\n" for _ in range(9)))
    out = subprocess.run(
        [sys.executable, "-m", "contactshape.cli", "reconstruct",
         "--tract-grid", str(grid_file), "--disp-grid", str(grid_file),
         "--displacements", str(d_path), "--constraint", constraint],
        capture_output=True, text=True,
        env=dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(contactshape.__file__))),
    )
    assert out.returncode == 1 and out.stdout == ""
    lines = out.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: numerical-failure:")


@pytest.mark.parametrize("command", ["synth", "resample"])
def test_a_non_finite_forward_solve_prints_only_its_error_line(tmp_path, command):
    # a fresh process, since pytest captures the warnings numpy would print;
    # a near-zero modulus makes the forward solve overflow float64
    grid, params, q, d = (str(tmp_path / n) for n in ("g.csv", "p.json", "q.dat", "d.dat"))
    (tmp_path / "p.json").write_text(json.dumps({"young_modulus": 1e-306}))
    assert main(["make-grid", "--nx", "2", "--ny", "1", "--pitch", "2e-3", "--out", grid]) == 0
    synth = ["synth", "--grid", grid, "--shape", "cylinder", "--diameter", "5e-3",
             "--center", "2e-3,1e-3", "--force", "3", "--out", q]
    if command == "synth":
        argv = synth + ["--params", params, "--displacements-out", d]
    else:
        assert main(synth) == 0
        argv = ["resample", "--tract-grid", grid, "--new-grid", grid, "--tractions", q,
                "--params", params, "--out", d]
    out = subprocess.run(
        [sys.executable, "-m", "contactshape.cli"] + argv,
        capture_output=True, text=True,
        env=dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(contactshape.__file__))),
    )
    assert out.returncode == 1
    lines = out.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: numerical-failure:"), out.stderr
    assert not os.path.exists(d)


def test_tolerant_applies_to_readings_only(grid_file, tmp_path, capsys):
    d_path = tmp_path / "d.dat"
    d_path.write_text("".join("0 0 1e-6\n" for _ in range(9)))
    code, out, err = run(
        ["reconstruct", "--tract-grid", str(grid_file), "--disp-grid", str(grid_file),
         "--displacements", str(d_path), "--tolerant"],
        capsys,
    )
    assert code == 1 and out == ""
    assert err == "error: invalid-argument: --tolerant applies to --readings only\n"


def test_tolerant_clamps_a_negative_reading_to_zero(grid_file, tmp_path, capsys):
    header = "taxel_index,delta_c_F,timestamp_s\n"
    negative, zero = tmp_path / "negative.csv", tmp_path / "zero.csv"
    negative.write_text(header + "0,2e-14,\n4,-1e-15,\n")
    zero.write_text(header + "0,2e-14,\n4,0.0,\n")
    base = ["reconstruct", "--tract-grid", str(grid_file), "--disp-grid", str(grid_file)]
    code, _, err = run(base + ["--readings", str(negative)], capsys)
    assert code == 1 and err.startswith("error: invalid-reading:")
    outs = [tmp_path / "tolerant.dat", tmp_path / "zero.dat"]
    assert main(base + ["--readings", str(negative), "--tolerant", "--out", str(outs[0])]) == 0
    assert main(base + ["--readings", str(zero), "--out", str(outs[1])]) == 0
    assert outs[0].read_bytes() == outs[1].read_bytes()


def test_a_params_file_naming_the_vacuum_permittivity_is_refused(grid_file, tmp_path, capsys):
    # the vacuum permittivity is a physical constant, not a setting
    p = tmp_path / "params.json"
    p.write_text(json.dumps({"permittivity_vacuum": 8.85e-12}))
    code, out, err = run(
        ["assemble", "--params", str(p), "--tract-grid", str(grid_file), "--disp-grid", str(grid_file)],
        capsys,
    )
    assert code == 1 and out == ""
    assert "unknown keys ['permittivity_vacuum']" in err
