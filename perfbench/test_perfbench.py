"""Tests of the benchmark itself: generator, checks, spans and metric names.

Run with ``PYTHONPATH=src python -m pytest -q perfbench``.
"""

import json
import os

import numpy as np
import pytest

from contactshape import ElastomerParams, assembly, build_regular_grid, nnls_solve, solvers

from perfbench import checks, gen, harness, tracing

HERE = os.path.dirname(os.path.abspath(__file__))


def test_generator_is_deterministic_per_seed():
    def draw(seed):
        rng = np.random.default_rng(seed)
        specs = gen.trajectory_specs(rng, 0.02, 2, 8)
        noise = gen.noisy_frames(rng, np.eye(3), np.ones((2, 3)))
        return specs, noise

    a, b, c = draw(7), draw(7), draw(8)
    assert a[0] == b[0] and a[0] != c[0]
    assert np.array_equal(a[1], b[1]) and not np.array_equal(a[1], c[1])


def test_strokes_press_slide_release():
    specs = gen.trajectory_specs(np.random.default_rng(0), 0.02, 1, 8)
    forces = [s.force for s in specs]
    assert forces[:2] == sorted(forces[:2]) and forces[-2:] == sorted(forces[-2:])[::-1]
    assert specs[2].center == specs[0].center and specs[5].center == specs[-1].center
    assert len({s.diameter for s in specs}) == 1


def test_taxel_model_round_trip_and_clamp():
    p = ElastomerParams()
    d = np.array([-1e-5, 0.0, 3e-5, 1e-4])
    dc = gen.delta_c_raw(d, p)
    assert dc[0] < 0.0 and dc[1] == 0.0
    assert np.allclose(gen.displacement_of(dc, p), d, rtol=1e-12, atol=0.0)
    assert np.array_equal(gen.displacement_of(np.maximum(dc, 0.0), p)[:2], [0.0, 0.0])


def _spans(*rows):
    return [[name, s, e, parent, None, None] for name, s, e, parent in rows]


def test_self_time_subtracts_children():
    spans = _spans(
        ("op", 0.0, 10.0, None),
        ("a", 1.0, 4.0, 0),
        ("b", 2.0, 3.0, 1),
        ("c", 5.0, 6.5, 0),
    )
    assert tracing.self_times(spans) == pytest.approx([5.5, 2.0, 1.0, 1.5])


def test_tracer_nests_spans_and_restores_functions():
    from contactshape import pipeline

    orig = assembly.load_matrix
    tracer = tracing.Tracer()
    g = build_regular_grid((0.0, 0.0), 2, 2, 1e-3, 1e-3)
    with tracer.installed():
        assert pipeline.assembly.load_matrix is not orig
        tracer.op = 3
        with tracer.span("op"):
            pipeline.reconstruct(np.zeros(4), "bc", g, g.retag("displacement"),
                                 ElastomerParams(), constraint="nonneg")
    assert assembly.load_matrix is orig
    names = [s[tracing.NAME] for s in tracer.spans]
    assert names == ["op", "pipeline.reconstruct", "assembly.assemble", "solvers.nnls_solve"]
    parents = [s[tracing.PARENT] for s in tracer.spans]
    assert parents == [None, 0, 1, 1]
    assert all(s[tracing.OP] == 3 for s in tracer.spans)
    assert callable(tracer.spans[3][tracing.INFO])  # deferred: counted after the run
    tracer.resolve()
    assert tracer.spans[3][tracing.INFO]["converged"]
    assert tracer.spans[2][tracing.INFO] == {"model": "bc", "pairs": 16}


def test_tracer_defers_costly_facts_until_resolve():
    g = build_regular_grid((0.0, 0.0), 3, 3, 1e-3, 1e-3)
    p = ElastomerParams()
    mat = assembly.assemble("bc", g, g.retag("displacement"), p)
    tracer = tracing.Tracer()
    with tracer.installed():
        assembly.precompute_inverse(mat)
    assert callable(tracer.spans[0][tracing.INFO])
    tracer.resolve()
    key = assembly.matrix_key("bc", g, g.retag("displacement"), p, True, "const")
    assert tracer.spans[0][tracing.INFO] == {"matrix": key}


def test_support_overlap_splits_stroke_boundaries():
    from perfbench.workloads import STROKE_FRAMES, StreamNonneg

    wl = type("W", (), {"last": None, "overlap": {"within": [], "across": []},
                        "frames": [None] * (2 * STROKE_FRAMES)})()
    a = np.array([True, True, False, False])
    b = np.array([False, True, True, False])
    for i, supp in [(STROKE_FRAMES - 2, a), (STROKE_FRAMES - 1, b), (STROKE_FRAMES, a),
                    (STROKE_FRAMES + 2, a)]:
        StreamNonneg._note_support(wl, i, supp)
    assert wl.overlap == {"within": [pytest.approx(1 / 3)], "across": [pytest.approx(1 / 3)]}


def _nonneg_problem():
    g = build_regular_grid((0.0, 0.0), 4, 4, 2e-3, 2e-3)
    C = assembly.assemble("bc", g, g.retag("displacement"), ElastomerParams()).entries
    q_true = np.zeros(16)
    q_true[5] = q_true[6] = 0.2
    d = C @ q_true + 1e-9 * np.random.default_rng(1).standard_normal(16)
    return C, d


def test_checks_accept_correct_outputs():
    C, d = _nonneg_problem()
    assert checks.check_free(C, d, np.linalg.solve(C, d), C, C @ np.linalg.solve(C, d)) is None
    res = nnls_solve(C, d)
    assert checks.check_kkt(C, d, res.x, res.converged, solvers.NNLS_KKT_RTOL) is None


def test_checks_catch_corrupted_outputs():
    C, d = _nonneg_problem()
    q = np.linalg.solve(C, d)
    assert checks.check_free(C, d, q * (1 + 1e-6)) is not None
    bad_field = C @ q
    bad_field[3] *= 1 + 1e-9
    assert checks.check_free(C, d, q, C, bad_field) is not None

    res = nnls_solve(C, d)
    rtol = solvers.NNLS_KKT_RTOL
    moved = res.x.copy()
    moved[np.argmax(moved)] *= 1.01
    assert checks.check_kkt(C, d, moved, True, rtol) is not None  # off-optimal
    assert checks.check_kkt(C, d, np.zeros(16), True, rtol) is not None  # wrong support
    assert checks.check_kkt(C, d, res.x, False, rtol) is not None  # not converged
    assert checks.check_kkt(C, -d, -res.x, True, rtol) is not None  # negative entries


def test_failed_op_counts_against_attempts():
    class Flaky:
        batch = 2

        def op(self, i):
            if i == 1:
                raise ValueError("boom")
            return i

        def check(self, i, out):
            return "wrong" if i == 2 else None

    lat, failed = harness.timed_phase(Flaky(), 0.0)
    assert len(lat) == 2 and failed == 1
    lat, failed = harness.timed_phase(Flaky(), 0.0, first_op=2)
    assert len(lat) == 2 and failed == 1


def test_pass_rate_takes_each_position_at_its_median():
    # passes of two ops, 0.1 s and 0.3 s; one pass ran three times slower
    lat = [0.1, 0.3, 0.1, 0.3, 0.3, 0.9, 0.1, 0.3]
    assert harness.pass_rate(lat, 2) == pytest.approx(2 / 0.4)
    assert harness.pass_rate(lat, 1) == pytest.approx(1 / 0.3)


def test_metric_names_match_benchmark_json():
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    end_to_end = harness.end_to_end(
        type("W", (), {"batch": 1, "peak_rss_mib": lambda self: 1.0})(), [1.0], [0.1, 0.2])
    assert [m["name"] for m in spec["end_to_end"]] == list(end_to_end)
    for m in spec["end_to_end"]:
        assert m["unit"] == end_to_end[m["name"]][1]
    layer = harness.per_layer([], 1, 0, 0.0)
    layer.update(dict.fromkeys(harness.PROCESS_CODE, (0.0, "ms")))
    assert sorted(m["name"] for m in spec["per_layer"]) == sorted(layer)
    for m in spec["per_layer"]:
        assert m["unit"] == layer[m["name"]][1]
