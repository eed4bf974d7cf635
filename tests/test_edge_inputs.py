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
import warnings

import numpy as np
import pytest

from contactshape import (
    ContactShapeError,
    ElastomerParams,
    FieldVector,
    Grid,
    IndenterSpec,
    InequalitySystem,
    InvalidArgumentError,
    NumericalFailureError,
    apply_forward,
    apply_inverse,
    TaxelReading,
    assemble,
    bc_approx_coefficients,
    bc_effective_block,
    bc_point_displacement,
    bc_resolved_block,
    bc_resolved_zz,
    benchmark,
    build_regular_grid,
    compare_models,
    delta_c_from_thickness,
    fme_eliminate,
    fme_eliminate_all,
    fme_feasible,
    fme_worst_case_count,
    forward_solve,
    grid_from_taxel_layout,
    love_displacement,
    love_effective_column,
    love_effective_zz,
    love_potential_oracle,
    nnls_solve,
    precompute_inverse,
    psi,
    readings_to_displacements,
    reconstruct,
    spread_radius,
)
from contactshape import solvers
from contactshape.boussinesq import bc_zz_kernel
from contactshape.love import love_zz_kernel

EDGE_VALUES = [math.nan, math.inf, -math.inf, 0.0, -1.0, True]

E = 2.1e5
PARAMS = ElastomerParams()
TRACT = build_regular_grid((0.0, 0.0), 2, 2, 2e-3, 2e-3)
DISP = TRACT.retag("displacement")
MAT = assemble("bc", TRACT, DISP, PARAMS)
VEC = [1e-5, 2e-5, 3e-5, 4e-5]
# x >= 1, y >= 0 and x + y <= 3
ROWS = ([1.0, 0.0], [0.0, 1.0], [-1.0, -1.0])
BOUNDS = [1.0, 0.0, -3.0]
SYSTEM = InequalitySystem.from_arrays(ROWS, BOUNDS)


def fme_verdict(A, b, order):
    """Feasibility of A x >= b, each variable eliminated in ``order``."""
    return fme_feasible(fme_eliminate_all(InequalitySystem.from_arrays(A, b), order)[0])


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
    "ElastomerParams": (ElastomerParams, (2.1e5, 0.5, 2e-3, 1.0, 5e-5)),
    "compare_models": (compare_models, (1e5, (5e-4, 2e-4), PARAMS, 5, 3e-3)),
    "grid_from_taxel_layout": (grid_from_taxel_layout, ([[0.0, 0.0], [5e-3, 0.0]], 1.6e-5)),
    "apply_forward": (apply_forward, (MAT, VEC)),
    "apply_inverse": (apply_inverse, (precompute_inverse(MAT), VEC)),
    "nnls_solve": (nnls_solve, (MAT.entries, VEC)),
    "reconstruct_free": (reconstruct, (VEC, "bc", TRACT, DISP, PARAMS, "free")),
    "reconstruct_nonneg": (reconstruct, (VEC, "bc", TRACT, DISP, PARAMS, "nonneg")),
    "fme_worst_case_count": (fme_worst_case_count, (8, 2)),
    "InequalitySystem.from_arrays": (InequalitySystem.from_arrays, (ROWS, BOUNDS)),
    "fme_eliminate": (fme_eliminate, (SYSTEM, 1)),
    "fme_eliminate_all": (fme_eliminate_all, (SYSTEM, [1, 0])),
    "fme_feasible": (fme_verdict, (ROWS, BOUNDS, [0, 1])),
    "build_regular_grid": (build_regular_grid, ((0.0, 0.0), 2, 3, 1e-3, 2e-3)),
    "TaxelReading": (TaxelReading, (3, 1e-14, 0.5)),
    "delta_c_from_thickness": (delta_c_from_thickness, (1.5e-3, PARAMS)),
    "readings_to_displacements": (readings_to_displacements, ([TaxelReading(1, 1e-14)], 4, PARAMS)),
    "benchmark": (benchmark, (("bc", "love"), (1, 4), 1, PARAMS)),
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


# Arguments that are numbers of the wrong kind, or tuples of the wrong
# length: each call must raise InvalidArgumentError.
WRONG_KIND = {
    "build_regular_grid nx=2.5": (build_regular_grid, ((0.0, 0.0), 2.5, 2, 1e-3, 1e-3)),
    "build_regular_grid ny='2'": (build_regular_grid, ((0.0, 0.0), 2, "2", 1e-3, 1e-3)),
    "IndenterSpec 3-entry center": (IndenterSpec, ("hemisphere", 6e-3, (0.0, 0.0, 0.0), 1.0)),
    "IndenterSpec 1-entry center": (IndenterSpec, ("hemisphere", 6e-3, (0.0,), 1.0)),
    "bc_point_displacement bool offset": (
        bc_point_displacement, ((0.0, 0.0, 1.0), (True, 0.0, 1e-3), E)
    ),
    "bc_point_displacement str offset": (
        bc_point_displacement, ((0.0, 0.0, 1.0), ("1e-3", 0.0, 1e-3), E)
    ),
    "bc_point_displacement 2-entry offset": (
        bc_point_displacement, ((0.0, 0.0, 1.0), (1e-3, 0.0), E)
    ),
    "bc_point_displacement bool force": (
        bc_point_displacement, ((True, 0.0, 0.0), (1e-3, 0.0, 1e-3), E)
    ),
    "bc_point_displacement 4-entry force": (
        bc_point_displacement, ((0.0, 0.0, 1.0, 0.0), (1e-3, 0.0, 1e-3), E)
    ),
    "love_displacement 2-entry point": (
        love_displacement, (1e5, (1e-3, 1e-3), (1e-3, 2e-3), PARAMS)
    ),
    "love_effective_column 1-entry offset": (
        love_effective_column, ((1e-3,), (1e-3, 1e-3), 2e-3, PARAMS)
    ),
    "compare_models 3 half-extents": (compare_models, (1e5, (5e-4, 2e-4, 1e-4), PARAMS)),
    "fme_eliminate index 1.5": (fme_eliminate, (SYSTEM, 1.5)),
    "fme_eliminate index True": (fme_eliminate, (SYSTEM, True)),
    "fme_eliminate index 2": (fme_eliminate, (SYSTEM, 2)),
    "fme_eliminate_all order ['0']": (fme_eliminate_all, (SYSTEM, ["0"])),
    "InequalitySystem bool coefficient": (InequalitySystem, (((True, 0),), (1,), 2)),
    "InequalitySystem.from_arrays ragged rows": (
        InequalitySystem.from_arrays, ([[1.0, 0.0], [1.0]], [0.0, 0.0])
    ),
    "InequalitySystem n_vars 2.0": (InequalitySystem, (((1, 0),), (1,), 2.0)),
    "TaxelReading index 1.5": (TaxelReading, (1.5, 1e-14)),
    "TaxelReading index '3'": (TaxelReading, ("3", 1e-14)),
    "TaxelReading delta_c True": (TaxelReading, (0, True)),
    "TaxelReading timestamp 'abc'": (TaxelReading, (0, 1e-14, "abc")),
    "readings_to_displacements n_taxels 4.0": (readings_to_displacements, ([], 4.0, PARAMS)),
    "benchmark repetitions 4.0": (benchmark, (("bc",), (1, 4), 4.0, PARAMS)),
    "benchmark size 4.0": (benchmark, (("bc",), (1, 4.0), 1, PARAMS)),
    "delta_c_from_thickness '1e-3'": (delta_c_from_thickness, ("1e-3", PARAMS)),
}


@pytest.mark.parametrize("name", sorted(WRONG_KIND))
def test_arguments_of_the_wrong_kind_raise_invalid_argument(name):
    fn, args = WRONG_KIND[name]
    with pytest.raises(InvalidArgumentError):
        fn(*args)


PAD = build_regular_grid((0.0, 0.0), 4, 4, 2e-3, 2e-3)


@pytest.mark.parametrize("value", [1e300, 1e290])
@pytest.mark.parametrize("constraint", ["free", "nonneg"])
def test_data_too_large_for_float64_is_a_numerical_failure(constraint, value):
    """Displacements that overflow the solve raise; neither mode reports
    NaN or inf tractions, or a non-finite residual as converged."""
    with pytest.raises(NumericalFailureError):
        reconstruct(np.full(16, value), "love", PAD, PAD.retag("displacement"), PARAMS, constraint)


def test_nnls_residual_that_is_not_finite_is_a_numerical_failure():
    C = assemble("love", PAD, PAD.retag("displacement"), PARAMS).entries
    with pytest.raises(NumericalFailureError, match="NNLS residual"):
        nnls_solve(C, np.full(16, 1e300))


@pytest.mark.parametrize("value", [1e300, 1e200])
@pytest.mark.parametrize("rows, solver", [(16, "schur"), (10, "lawson-hanson")])
def test_nnls_overflow_raises_without_a_numpy_warning(rows, solver, value):
    C = assemble("bc", PAD, PAD.retag("displacement"), PARAMS).entries[:rows]
    assert (solvers.NnlsSystem(C).inverse_gram is None) == (solver == "lawson-hanson")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericalFailureError, match="NNLS residual"):
            nnls_solve(C, np.full(rows, value))


def test_a_forward_solve_that_is_not_finite_is_a_numerical_failure():
    """Pressures times a matrix of a near-zero modulus overflow float64:
    the error is raised, and numpy warns of nothing on the way."""
    pair = build_regular_grid((0.0, 0.0), 2, 1, 2e-3, 2e-3)
    soft = ElastomerParams(young_modulus=1e-306)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericalFailureError, match="forward solve of pressures up to 375000"):
            forward_solve(FieldVector(np.full(2, 3.75e5), pair), "love", pair, soft)


# caller -> (what its choice is called, the call with that choice set to v)
CHOICES = {
    "assemble": ("psi mode", lambda v: assemble("bc", TRACT, DISP, PARAMS, v)),
    "psi": ("psi mode", lambda v: psi(2.0, v)),
    "Grid": ("grid kind", lambda v: Grid(TRACT.cells, v)),
    "IndenterSpec": ("indenter shape", lambda v: IndenterSpec(v, 6e-3, (0.0, 0.0), 1.0)),
    "reconstruct": ("constraint", lambda v: reconstruct(VEC, "bc", TRACT, DISP, PARAMS, v)),
    "love_potential_oracle": (
        "potential", lambda v: love_potential_oracle(1e5, (1e-3, 1e-3), (3e-3, 0.0, 1e-3), v)
    ),
}


@pytest.mark.parametrize("caller", sorted(CHOICES))
def test_a_value_outside_its_choices_is_named(caller):
    what, call = CHOICES[caller]
    with pytest.raises(InvalidArgumentError, match=r"^%s must be one of \(.+\), got 'bogus'$" % what):
        call("bogus")
