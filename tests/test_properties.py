"""Property tests that pin each kernel formula to its single implementation.

Quadrant additivity, exact 1/E scaling, length scaling, bitwise
agreement between the per-pair kernels and the matrices built from them,
love's effective column as surface minus depth of its one closed form,
symmetry of the matrix on a shared grid, and love's far field against
the point load.
"""

import math

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from contactshape import (
    ElastomerParams,
    assemble,
    bc_resolved_block,
    bc_resolved_zz,
    build_regular_grid,
    love_displacement,
    love_effective_column,
    love_effective_zz,
)

SETTINGS = settings(max_examples=200, deadline=None, database=None)

# lengths in meters: cell half-extents, in-plane offsets, cover thickness
half = st.floats(0.25e-3, 4e-3)
offset = st.floats(-8e-3, 8e-3)
cover = st.floats(0.5e-3, 4e-3)
modulus = st.floats(1e4, 1e7)
poisson = st.floats(0.0, 0.5)
scale = st.floats(0.1, 10.0)
psi_mode = st.sampled_from(("const", "exact"))


def _max_rel(got, want):
    """Largest deviation relative to the largest component of ``want``."""
    return float(np.max(np.abs(np.asarray(got) - want)) / np.max(np.abs(want)))


@SETTINGS
@given(x=offset, y=offset, a=half, b=half, h=cover, nu=poisson)
def test_love_cell_is_sum_of_its_quadrants(x, y, a, b, h, nu):
    params = ElastomerParams(poisson_ratio=nu)
    whole = love_effective_column((x, y), (a, b), h, params)
    parts = sum(
        love_effective_column((x - sx * 0.5 * a, y - sy * 0.5 * b), (0.5 * a, 0.5 * b), h, params)
        for sx in (-1.0, 1.0)
        for sy in (-1.0, 1.0)
    )
    assert _max_rel(parts, whole) <= 1e-10


@SETTINGS
@given(x=offset, y=offset, a=half, b=half, h=cover, E=modulus, nu=poisson, mode=psi_mode)
def test_doubling_young_modulus_halves_both_models_exactly(x, y, a, b, h, E, nu, mode):
    soft = ElastomerParams(young_modulus=E, poisson_ratio=nu)
    stiff = ElastomerParams(young_modulus=2.0 * E, poisson_ratio=nu)
    np.testing.assert_array_equal(
        love_effective_column((x, y), (a, b), h, stiff),
        0.5 * love_effective_column((x, y), (a, b), h, soft),
    )
    area = 4.0 * a * b
    assert bc_resolved_zz(x, y, area, h, 2.0 * E, mode) == 0.5 * bc_resolved_zz(x, y, area, h, E, mode)


@SETTINGS
@given(x=offset, y=offset, a=half, b=half, h=cover, lam=scale, nu=poisson, mode=psi_mode)
def test_length_scaling(x, y, a, b, h, lam, nu, mode):
    """Scaling every length by lam scales love (per unit pressure) by lam
    and bc (per unit force) by 1/lam."""
    params = ElastomerParams(poisson_ratio=nu)
    base = love_effective_column((x, y), (a, b), h, params)
    scaled = love_effective_column((lam * x, lam * y), (lam * a, lam * b), lam * h, params)
    assert _max_rel(scaled, lam * base) <= 1e-10

    E = params.young_modulus
    area = 4.0 * a * b
    base = bc_resolved_zz(x, y, area, h, E, mode)
    scaled = bc_resolved_zz(lam * x, lam * y, lam * lam * area, lam * h, E, mode)
    # the exact coefficient is a surface term of order 3 / (4 pi E r) minus
    # a depth term; rounding is relative to that term, not to the difference
    r = math.hypot(x, y)
    ref = max(abs(base), 3.0 / (4.0 * math.pi * E * r) if r > 0.0 else 0.0)
    assert abs(lam * scaled - base) <= 1e-10 * ref


@SETTINGS
@given(
    xy=st.one_of(st.just((0.0, 0.0)), st.tuples(offset, offset)),
    a=half,
    b=half,
    h=cover,
    E=modulus,
    mode=psi_mode,
)
# s > 0 there, but s^(3/2) underflows: the block used to divide by zero
@example(xy=(0.0, 4.554897451698226e-125), a=4e-3, b=4e-3, h=4e-3, E=1e4, mode="const")
def test_bc_zz_is_block_corner_bitwise(xy, a, b, h, E, mode):
    x, y = xy
    area = 4.0 * a * b
    assert bc_resolved_zz(x, y, area, h, E, mode) == bc_resolved_block(x, y, area, h, E, mode)[2, 2]


@settings(max_examples=40, deadline=None, database=None)
@given(
    origin=st.tuples(offset, offset),
    pitch=st.tuples(half, half),
    E=modulus,
    nu=poisson,
    h=cover,
)
def test_love_matrix_entries_are_column_z_bitwise(origin, pitch, E, nu, h):
    params = ElastomerParams(young_modulus=E, poisson_ratio=nu, nominal_thickness=h)
    tract = build_regular_grid(origin, 2, 3, pitch[0], pitch[1])
    disp = build_regular_grid((0.0, 0.0), 3, 2, 2e-3, 2e-3, kind="displacement")
    mat = assemble("love", tract, disp, params)
    want = [
        [
            love_effective_column((ck.x - cl.x, ck.y - cl.y), (cl.a, cl.b), h, params)[2]
            for cl in tract.cells
        ]
        for ck in disp.cells
    ]
    np.testing.assert_array_equal(mat.entries, np.array(want))


@SETTINGS
@given(x=offset, y=offset, a=half, b=half, h=cover, nu=poisson)
# cell corner and edge: the removable-limit guards act there
@example(x=2e-3, y=-1e-3, a=2e-3, b=1e-3, h=1e-3, nu=0.3)
@example(x=0.0, y=1e-3, a=2e-3, b=1e-3, h=1e-3, nu=0.5)
def test_love_column_is_surface_minus_depth_bitwise(x, y, a, b, h, nu):
    params = ElastomerParams(poisson_ratio=nu)
    surface = love_displacement(1.0, (a, b), (x, y, 0.0), params)
    depth = love_displacement(1.0, (a, b), (x, y, h), params)
    np.testing.assert_array_equal(love_effective_column((x, y), (a, b), h, params), surface - depth)


@settings(max_examples=40, deadline=None, database=None)
@given(
    origin=st.tuples(offset, offset),
    n=st.tuples(st.integers(2, 4), st.integers(2, 4)),
    pitch=st.tuples(half, half),
    h=cover,
    nu=poisson,
    mode=psi_mode,
)
def test_matrix_is_symmetric_on_a_shared_grid(origin, n, pitch, h, nu, mode):
    """Equal cells on one grid: node k on cell l equals node l on cell k."""
    tract = build_regular_grid(origin, n[0], n[1], pitch[0], pitch[1])
    disp = tract.retag("displacement")
    C = assemble("love", tract, disp, ElastomerParams(poisson_ratio=nu, nominal_thickness=h)).entries
    assert np.max(np.abs(C - C.T)) <= 1e-12 * np.max(np.abs(C))
    C = assemble("bc", tract, disp, ElastomerParams(nominal_thickness=h), psi_mode=mode).entries
    np.testing.assert_array_equal(C, C.T)


@SETTINGS
@given(
    reach=st.floats(20.0, 60.0),
    angle=st.floats(0.0, 2.0 * math.pi),
    a=half,
    b=half,
    h=cover,
    mode=psi_mode,
)
def test_love_far_field_is_the_point_load(reach, angle, a, b, h, mode):
    """At nu = 1/2 and r >= 20 max(a, b, h) the cell acts as its resultant
    force: love (per unit pressure) matches bc (per unit force) times the
    cell area."""
    r = reach * max(a, b, h)
    x, y = r * math.cos(angle), r * math.sin(angle)
    E = ElastomerParams().young_modulus
    area = 4.0 * a * b
    love_zz = love_effective_zz(x, y, a, b, h, E, 0.5)
    assert abs(bc_resolved_zz(x, y, area, h, E, mode) * area - love_zz) <= 1e-2 * abs(love_zz)
