"""Property tests that pin each kernel formula to its single implementation.

Quadrant additivity, exact 1/E scaling, length scaling, and bitwise
agreement between the per-pair kernels and the matrices built from them.
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
    love_effective_column,
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
