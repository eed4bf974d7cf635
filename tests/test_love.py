import math

import numpy as np
import pytest

from contactshape import (
    ElastomerParams,
    InvalidArgumentError,
    OracleFailureError,
    bc_point_displacement,
    love_displacement,
    love_effective_column,
    love_potential_oracle,
)
from contactshape import love
from contactshape.love import _integrate_cell

A, B = 5e-3, 2e-3
P = 1e5
E = 2.1e5

# Frozen 40-digit quadrature references for the cell above, nu = 1/2.
UZ_SURFACE = {
    0.0: 2.384886298084187015550473e-3,
    3e-3: 2.204216642404684114228018e-3,
    7e-3: 7.841609429040712760788312e-4,
}
# Effective displacement (surface minus 2 mm depth) times p, on the x axis.
COLUMN_TIMES_P = {0.0: 3.449412100408085980955408e-4, 3e-3: 3.668502827909153461813163e-4}


@pytest.fixture
def incompressible():
    return ElastomerParams()


def test_surface_uz_reference_values(incompressible):
    for x, want in UZ_SURFACE.items():
        uz = love_displacement(P, (A, B), (x, 0.0, 0.0), incompressible)[2]
        assert uz == pytest.approx(want, rel=1e-13), x


def test_effective_column_reference_values(incompressible):
    for x, want in COLUMN_TIMES_P.items():
        col = love_effective_column((x, 0.0), (A, B), 2e-3, incompressible)
        assert col[2] * P == pytest.approx(want, rel=1e-12), x


def test_symmetries(incompressible):
    rng = np.random.default_rng(3)
    for _ in range(30):
        x, y = rng.uniform(-0.01, 0.01, size=2)
        z = rng.uniform(0.0, 3e-3)
        u = love_displacement(P, (A, B), (x, y, z), incompressible)
        um = love_displacement(P, (A, B), (-x, y, z), incompressible)
        assert um[0] == pytest.approx(-u[0], rel=1e-11, abs=1e-22)
        assert um[1] == pytest.approx(u[1], rel=1e-11, abs=1e-22)
        assert um[2] == pytest.approx(u[2], rel=1e-12)
        um = love_displacement(P, (A, B), (x, -y, z), incompressible)
        assert um[0] == pytest.approx(u[0], rel=1e-11, abs=1e-22)
        assert um[1] == pytest.approx(-u[1], rel=1e-11, abs=1e-22)
        assert um[2] == pytest.approx(u[2], rel=1e-12)


def test_cell_splitting_superposition():
    """Pressure on a rectangle equals pressure on its two halves."""
    params = ElastomerParams(poisson_ratio=0.3)
    rng = np.random.default_rng(7)
    for _ in range(30):
        x, y = rng.uniform(-0.012, 0.012, size=2)
        z = rng.choice([0.0, 1e-3, 2.7e-3])
        whole = love_displacement(P, (A, B), (x, y, z), params)
        left = love_displacement(P, (A / 2, B), (x + A / 2, y, z), params)
        right = love_displacement(P, (A / 2, B), (x - A / 2, y, z), params)
        np.testing.assert_allclose(left + right, whole, rtol=1e-9, atol=1e-15)


def test_far_field_approaches_point_load(incompressible):
    force = P * 4.0 * A * B
    for rho in (0.3, 0.5, 1.0):
        for ang in (0.0, 0.7, 2.1):
            x, y = rho * math.cos(ang), rho * math.sin(ang)
            uz = love_displacement(P, (A, B), (x, y, 0.0), incompressible)[2]
            ref = bc_point_displacement((0, 0, force), (x, y, 0.0), E)[2]
            assert uz == pytest.approx(ref, rel=2e-3)


def test_finite_on_edges_and_corners(incompressible):
    pts = [
        (A, B, 0.0),
        (-A, B, 0.0),
        (A, -B, 0.0),
        (-A, -B, 0.0),
        (A, 0.0, 0.0),
        (0.0, B, 0.0),
        (A, B, 2e-3),
        (0.0, 0.0, 0.0),
        (0.0, 0.0, 2e-3),
    ]
    for pt in pts:
        u = love_displacement(P, (A, B), pt, incompressible)
        assert np.all(np.isfinite(u)), pt
    # displacement under the load is downward and largest at the center
    center = love_displacement(P, (A, B), (0, 0, 0), incompressible)[2]
    corner = love_displacement(P, (A, B), (A, B, 0), incompressible)[2]
    assert center > corner > 0.0


def test_argument_guards(incompressible):
    with pytest.raises(InvalidArgumentError):
        love_displacement(P, (0.0, B), (0, 0, 0), incompressible)
    with pytest.raises(InvalidArgumentError):
        love_displacement(P, (A, B), (0, 0, -1e-6), incompressible)
    with pytest.raises(InvalidArgumentError):
        love_effective_column((0, 0), (A, B), 0.0, incompressible)
    with pytest.raises(InvalidArgumentError):
        love_potential_oracle(P, (A, B), (0, 0, 0), "W")


def test_an_oracle_short_of_its_tolerance_is_an_oracle_failure():
    with pytest.raises(OracleFailureError, match="potential quadrature achieved"):
        love_potential_oracle(P, (A, B), (3e-3, 0.0, 1e-3), "V", rel_tol=1e-30)


def test_uz_against_potential_quadrature(incompressible):
    """Closed-form surface settlement against direct integration."""
    nu = incompressible.poisson_ratio
    for x, y in [(0.0, 0.0), (3e-3, 1e-3), (5e-3, 2e-3), (8e-3, 0.0), (0.0, -6e-3)]:
        v = love_potential_oracle(P, (A, B), (x, y, 0.0), "V", rel_tol=1e-10)
        want = (1.0 - nu * nu) / (math.pi * E) * v
        got = love_displacement(P, (A, B), (x, y, 0.0), incompressible)[2]
        assert got == pytest.approx(want, rel=1e-9), (x, y)


def test_uz_against_quadrature_at_depth():
    """Full depth expression against V plus its vertical derivative."""
    for nu in (0.0, 0.3, 0.5):
        params = ElastomerParams(poisson_ratio=nu)
        for x, y, z in [(0.0, 0.0, 2e-3), (4e-3, 1e-3, 1e-3), (7e-3, -1e-3, 2e-3)]:
            vint, _ = _integrate_cell(
                lambda xx, yy: 1.0 / math.sqrt((xx - x) ** 2 + (yy - y) ** 2 + z * z),
                A, B, x, y, 1e-10,
            )
            dvdz, _ = _integrate_cell(
                lambda xx, yy: -z / ((xx - x) ** 2 + (yy - y) ** 2 + z * z) ** 1.5,
                A, B, x, y, 1e-10,
            )
            want = (1 - nu**2) / (math.pi * E) * P * vint - (1 + nu) * z / (
                2 * math.pi * E
            ) * P * dvdz
            got = love_displacement(P, (A, B), (x, y, z), params)[2]
            assert got == pytest.approx(want, rel=1e-8), (nu, x, y, z)


def test_tangential_against_quadrature_at_depth():
    """ux from the log-potential derivative plus the z-weighted term."""
    z = 1.5e-3
    for nu in (0.0, 0.3, 0.5):
        params = ElastomerParams(poisson_ratio=nu)
        for x, y in [(2e-3, 1e-3), (-6e-3, 0.5e-3)]:

            def rho(xx, yy):
                return math.sqrt((xx - x) ** 2 + (yy - y) ** 2 + z * z)

            dchidx, _ = _integrate_cell(
                lambda xx, yy: -(xx - x) / (rho(xx, yy) * (z + rho(xx, yy))),
                A, B, x, y, 1e-10,
            )
            dvdx, _ = _integrate_cell(
                lambda xx, yy: (xx - x) / rho(xx, yy) ** 3, A, B, x, y, 1e-10
            )
            want = -P / (4 * math.pi) * (
                2 * (1 + nu) * (1 - 2 * nu) / E * dchidx + 2 * (1 + nu) * z / E * dvdx
            )
            got = love_displacement(P, (A, B), (x, y, z), params)[0]
            assert got == pytest.approx(want, rel=1e-8, abs=1e-22), (nu, x, y)


def test_tangential_against_quadrature_on_surface():
    """At z = 0 only the log-potential derivative survives."""
    nu = 0.3
    params = ElastomerParams(poisson_ratio=nu)
    for x, y in [(2e-3, 1e-3), (6e-3, -1e-3)]:
        dchidx, _ = _integrate_cell(
            lambda xx, yy: -(xx - x) / ((xx - x) ** 2 + (yy - y) ** 2),
            A, B, x, y, 1e-10,
        )
        want = -P / (4 * math.pi) * 2 * (1 + nu) * (1 - 2 * nu) / E * dchidx
        got = love_displacement(P, (A, B), (x, y, 0.0), params)[0]
        assert got == pytest.approx(want, rel=1e-8, abs=1e-22), (x, y)


def test_tangential_vanishes_for_incompressible(incompressible):
    """nu = 1/2 kills the surface tangential term entirely."""
    u = love_displacement(P, (A, B), (3e-3, 1e-3, 0.0), incompressible)
    assert u[0] == 0.0 and u[1] == 0.0


def test_oracle_chi_matches_closed_log_sum(incompressible):
    """chi quadrature cross-checked at a comfortable depth."""
    z = 2e-3
    x, y = 1e-3, 0.5e-3
    val = love_potential_oracle(P, (A, B), (x, y, z), "chi", rel_tol=1e-10)
    # Richardson check: same integral at doubled tolerance should agree
    val2 = love_potential_oracle(P, (A, B), (x, y, z), "chi", rel_tol=1e-7)
    assert val == pytest.approx(val2, rel=1e-6)
    assert math.isfinite(val)


def _surface_nodes(rng):
    """In-plane offsets from the cell (A, B): random ones, then the cell's
    corners, its edges and the on-axis node."""
    x = [*rng.uniform(-3 * A, 3 * A, 400), A, -A, A, -A, A, -A, 0.0, 0.0, 0.0, 2 * A]
    y = [*rng.uniform(-3 * B, 3 * B, 400), B, B, -B, -B, 0.0, 0.5 * B, B, -B, 0.0, B]
    return np.array(x), np.array(y)


@pytest.mark.parametrize("nu", [0.0, 0.3, 0.5])
def test_a_term_weighted_by_the_scalar_zero_is_skipped_bitwise(nu):
    """At the surface z = 0 weights J's log term, L's arctangent and the
    direct terms: the scalar zero skips them, while a 1-element zero
    array evaluates them and multiplies them by zero, as every depth
    does.  Both give the same bits."""
    x, y = _surface_nodes(np.random.default_rng(26))
    a, b = np.full(len(x), A), np.full(len(x), B)
    pre = love._prefactor(E, nu)
    skipped, computed = love._length(0.0), love._length(np.zeros(1))
    assert skipped.zero and not computed.zero
    for k in (love._Corners(a, b, x, y), love._Corners(b, a, y, x)):
        for component in (love._ux, love._uz):
            want = component(k, computed, nu, pre)
            assert np.all(np.isfinite(want))
            np.testing.assert_array_equal(component(k, skipped, nu, pre), want)
        tol = love.EDGE_WEIGHT_TOL * k.extent
        with np.errstate(divide="ignore", invalid="ignore"):
            L = [love._term(k.c, z, k.dy, tol) for z in (skipped, computed)]
            J = [love._term(z, k.abs_c, k.dy, tol) for z in (skipped, computed)]
        np.testing.assert_array_equal(*L)
        np.testing.assert_array_equal(*J)
    kernel = love.love_zz_kernel(2e-3, E, nu)(x, y, a, b)
    k = love._Corners(a, b, x, y)
    depth = love._uz(k, love._length(2e-3), nu, pre)
    np.testing.assert_array_equal(kernel, love._uz(k, computed, nu, pre) - depth)
