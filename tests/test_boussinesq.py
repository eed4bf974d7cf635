import math

import mpmath
import numpy as np
import pytest

from contactshape import (
    InvalidArgumentError,
    SingularPointError,
    UnsupportedModelError,
    bc_approx_coefficients,
    bc_effective_block,
    bc_point_displacement,
    bc_resolved_block,
    bc_resolved_zz,
    bc_point_displacement as point_disp,
    psi,
    require_incompressible,
    spread_radius,
)
from contactshape.boussinesq import PSI_MODES, _exact_zz, bc_zz_kernel

E = 2.1e5

# Frozen high-precision reference values (40-digit arithmetic, rounded to
# double).  Point solution: unit normal force, surface point 1 mm away.
UZ_POINT_1MM = 1.136821022084966684e-3
# Mixed force F = (0.3, -0.2, 1.0) N observed at (1 mm, 2 mm, 0.5 mm).
U_MIXED = (1.866466677734206525e-4, -2.362616047764818387e-5, 5.150502984127304083e-4)
# Effective block at offset (1.5 mm, -0.7 mm) through a 2 mm cover.
BLOCK_REF = {
    (0, 0): 6.666732800023742051e-4,
    (0, 1): -1.949647843955758010e-4,
    (0, 2): -1.949052358081645224e-4,
    (1, 1): 3.398751652059804816e-4,
    (1, 2): 9.095577671047677713e-5,
    (2, 2): -1.098204858950758873e-5,
}
# Spread-load quantities for a cell of area 4e-8 m^2 under a 2 mm cover.
Z0_REF = 1.381976597885341917e-4
CT_CONST = 6.169538383416704987e-3
CN_CONST = 1.233907676683340997e-2
CT_EXACT = 5.689930123925084495e-3
CN_EXACT = 1.137986024785016899e-2


def test_psi_modes():
    assert psi(3.0) == 0.25
    assert psi(1.0, "exact") == pytest.approx(0.2431 - 0.1814, rel=1e-15)
    assert psi(1e9, "exact") == pytest.approx(0.2431, rel=1e-6)
    with pytest.raises(InvalidArgumentError):
        psi(0.0, "exact")
    with pytest.raises(InvalidArgumentError):
        psi(1.0, "fancy")


def test_incompressibility_guard():
    require_incompressible(0.5)
    with pytest.raises(UnsupportedModelError):
        require_incompressible(0.3)


def test_point_displacement_normal_on_surface():
    u = bc_point_displacement((0.0, 0.0, 1.0), (1e-3, 0.0, 0.0), E)
    assert u[2] == pytest.approx(UZ_POINT_1MM, rel=1e-14)
    # on the surface a normal force produces no tangential motion here
    assert u[0] == 0.0 and u[1] == 0.0


def test_point_displacement_mixed_force():
    u = bc_point_displacement((0.3, -0.2, 1.0), (1e-3, 2e-3, 5e-4), E)
    for got, want in zip(u, U_MIXED):
        assert got == pytest.approx(want, rel=1e-14)


def test_point_displacement_linearity():
    rng = np.random.default_rng(5)
    for _ in range(50):
        f1 = rng.normal(size=3)
        f2 = rng.normal(size=3)
        pt = rng.normal(size=3)
        pt[2] = abs(pt[2])
        u12 = bc_point_displacement(f1 + f2, pt, E)
        u1 = bc_point_displacement(f1, pt, E)
        u2 = bc_point_displacement(f2, pt, E)
        np.testing.assert_allclose(u12, u1 + u2, rtol=1e-12, atol=1e-18)


def test_point_displacement_guards():
    # offsets so small that rho^3 underflows are the load point too
    for offset in [(0.0, 0.0, 0.0), (1e-120, 0.0, 0.0), (0.0, 0.0, 1e-120)]:
        with pytest.raises(SingularPointError):
            bc_point_displacement((1, 1, 1), offset, E)
    assert np.all(np.isfinite(bc_point_displacement((1, 1, 1), (1e-100, 0.0, 0.0), E)))
    with pytest.raises(InvalidArgumentError):
        bc_point_displacement((0, 0, 1), (1e-3, 0.0, -1e-6), E)


def test_effective_block_reference_values():
    blk = bc_effective_block(1.5e-3, -0.7e-3, 2e-3, E)
    for (i, j), want in BLOCK_REF.items():
        assert blk[i, j] == pytest.approx(want, rel=1e-14), (i, j)
    np.testing.assert_allclose(blk, blk.T, rtol=0, atol=0)


def test_effective_block_matches_point_difference():
    """Block columns are u(surface) - u(depth h) of the point solution."""
    rng = np.random.default_rng(17)
    h = 2e-3
    eye = np.eye(3)
    for _ in range(40):
        x, y = rng.uniform(-8e-3, 8e-3, size=2)
        if x * x + y * y < 1e-12:
            continue
        blk = bc_effective_block(x, y, h, E)
        for j in range(3):
            want = point_disp(eye[j], (x, y, 0.0), E) - point_disp(eye[j], (x, y, h), E)
            np.testing.assert_allclose(blk[:, j], want, rtol=1e-11, atol=1e-20)


def test_effective_block_sentinels_on_axis():
    blk = bc_effective_block(0.0, 0.0, 2e-3, E)
    inf = math.inf
    want = np.array([[inf, inf, 0.0], [inf, inf, 0.0], [0.0, 0.0, inf]])
    np.testing.assert_array_equal(blk, want)


def test_spread_radius_value():
    assert spread_radius(4e-8) == pytest.approx(Z0_REF, rel=1e-15)
    with pytest.raises(InvalidArgumentError):
        spread_radius(0.0)


def test_approx_coefficients_values():
    ct, cn = bc_approx_coefficients(4e-8, 2e-3, E, "const")
    assert ct == pytest.approx(CT_CONST, rel=1e-14)
    assert cn == pytest.approx(CN_CONST, rel=1e-14)
    ct, cn = bc_approx_coefficients(4e-8, 2e-3, E, "exact")
    assert ct == pytest.approx(CT_EXACT, rel=1e-14)
    assert cn == pytest.approx(CN_EXACT, rel=1e-14)
    assert cn == pytest.approx(2.0 * ct, rel=1e-15)


def test_resolved_block_on_axis():
    blk = bc_resolved_block(0.0, 0.0, 4e-8, 2e-3, E)
    assert np.all(np.isfinite(blk))
    assert blk[0, 0] == pytest.approx(CT_CONST, rel=1e-14)
    assert blk[1, 1] == pytest.approx(CT_CONST, rel=1e-14)
    assert blk[2, 2] == pytest.approx(CN_CONST, rel=1e-14)
    off = blk - np.diag(np.diag(blk))
    np.testing.assert_array_equal(off, np.zeros((3, 3)))


def test_resolved_block_far_field_is_exact():
    x, y = 12e-3, -9e-3
    blk = bc_resolved_block(x, y, 4e-8, 2e-3, E)
    exact = bc_effective_block(x, y, 2e-3, E)
    np.testing.assert_allclose(blk, exact, rtol=1e-15)


def test_resolved_blocks_always_finite():
    rng = np.random.default_rng(23)
    for _ in range(500):
        x, y = rng.uniform(-0.02, 0.02, size=2)
        blk = bc_resolved_block(x, y, 4e-8, 2e-3, E, "exact" if rng.random() < 0.5 else "const")
        assert np.all(np.isfinite(blk))


def test_resolved_zz_matches_block():
    rng = np.random.default_rng(29)
    for _ in range(100):
        x, y = rng.uniform(-0.01, 0.01, size=2)
        zz = bc_resolved_zz(x, y, 4e-8, 2e-3, E)
        blk = bc_resolved_block(x, y, 4e-8, 2e-3, E)
        assert zz == blk[2, 2]


def test_resolved_zz_switches_once_along_a_ray():
    """Out from the axis, the normal-normal coefficient is the on-axis
    candidate cn up to one radius and the exact value beyond it."""
    area, h = 4e-8, 2e-3
    _, cn = bc_approx_coefficients(area, h, E)
    ray = [(0.6 * r, 0.8 * r) for r in np.geomspace(1e-6, 100.0, 2001) * h]
    got = [bc_resolved_zz(x, y, area, h, E) for x, y in ray]
    exact = [_exact_zz(x * x + y * y, h, E) for x, y in ray]
    near = [g == cn for g in got]
    assert near[0] and not near[-1]
    assert sum(a != b for a, b in zip(near, near[1:])) == 1
    first_far = near.index(False)
    assert got[first_far:] == exact[first_far:]
    assert all(abs(e) > cn for e in exact[:first_far])


@pytest.mark.parametrize("h", [2e-3, 5e-4])
def test_exact_zz_keeps_its_digits_in_the_far_field(h):
    """The surface and depth terms nearly cancel far from the load; the
    coefficient stays within 1e-12 of 60-digit arithmetic out to 1000 h."""
    with mpmath.workdps(60):
        k = 3 / (4 * mpmath.pi * mpmath.mpf(E))
        hh = mpmath.mpf(h)
        worst = 0.0
        for reach in np.geomspace(0.1, 1000.0, 41):
            for angle in (0.0, 0.7, 2.0):
                x, y = reach * h * math.cos(angle), reach * h * math.sin(angle)
                s = mpmath.mpf(x) ** 2 + mpmath.mpf(y) ** 2
                t = s + hh * hh
                want = k * (1 / mpmath.sqrt(s) - (s + 2 * hh * hh) / (t * mpmath.sqrt(t)))
                got = bc_effective_block(x, y, h, E)[2, 2]
                worst = max(worst, float(abs((got - want) / want)))
    assert worst <= 1e-12


@pytest.mark.parametrize("s", [5e-324, 1e-320, 4e-314, 1e-300])
def test_exact_zz_at_vanishing_offsets(s):
    """Where h^2 / s overflows, the coefficient is its surface term alone:
    finite and positive, so the on-axis candidate still wins."""
    h = 2e-3
    got = _exact_zz(s, h, E)
    assert math.isfinite(got) and got > 0.0
    assert got == pytest.approx(3.0 / (4.0 * math.pi * E * math.sqrt(s)), rel=1e-15)
    x = math.sqrt(s)
    assert bc_resolved_zz(x, 0.0, 4e-8, h, E) == bc_approx_coefficients(4e-8, h, E)[1]
    assert bc_effective_block(x, 0.0, h, E)[2, 2] == math.inf


@pytest.mark.parametrize("h", [2e-3, 5e-4])
def test_effective_block_keeps_its_digits_in_the_far_field(h):
    """Every block entry is surface minus depth of the Green's tensor; it
    stays within 1e-9 of 50-digit arithmetic from 0.1 h out to 1000 h."""
    with mpmath.workdps(50):
        k = 3 / (4 * mpmath.pi * mpmath.mpf(E))

        def green(r):
            rho = mpmath.sqrt(sum(c * c for c in r))
            return [[k * ((i == j) / rho + r[i] * r[j] / rho**3) for j in range(3)]
                    for i in range(3)]

        for reach in np.geomspace(0.1, 1000.0, 41):
            for angle in (0.3, 2.0, 4.1):
                x, y = reach * h * math.cos(angle), reach * h * math.sin(angle)
                xm, ym = mpmath.mpf(x), mpmath.mpf(y)
                top, deep = green((xm, ym, 0)), green((xm, ym, mpmath.mpf(h)))
                got = bc_effective_block(x, y, h, E)
                for i in range(3):
                    for j in range(3):
                        want = top[i][j] - deep[i][j]
                        assert float(abs((got[i, j] - want) / want)) <= 1e-9, (reach, i, j)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_kernels_refuse_non_finite_inputs(bad):
    calls = [
        lambda: bc_point_displacement((0.0, 0.0, 1.0), (bad, 0.0, 0.0), E),
        lambda: bc_point_displacement((0.0, bad, 1.0), (1e-3, 0.0, 0.0), E),
        lambda: bc_point_displacement((0.0, 0.0, 1.0), (1e-3, 0.0, 0.0), bad),
        lambda: bc_effective_block(bad, 0.0, 2e-3, E),
        lambda: bc_effective_block(1e-3, 0.0, bad, E),
        lambda: bc_resolved_zz(bad, 0.0, 4e-8, 2e-3, E),
        lambda: bc_resolved_zz(0.0, bad, 4e-8, 2e-3, E),
        lambda: bc_resolved_zz(1e-3, 0.0, bad, 2e-3, E),
        lambda: bc_resolved_block(bad, 0.0, 4e-8, 2e-3, E),
        lambda: bc_approx_coefficients(4e-8, bad, E),
        lambda: spread_radius(bad),
        lambda: psi(bad, "exact"),
        lambda: bc_zz_kernel(bad, E),
        lambda: bc_zz_kernel(2e-3, bad),
    ]
    for call in calls:
        with pytest.raises(InvalidArgumentError):
            call()


@pytest.mark.parametrize("modulus", [0.0, -E])
def test_kernels_refuse_a_non_positive_modulus(modulus):
    with pytest.raises(InvalidArgumentError):
        bc_point_displacement((0.0, 0.0, 1.0), (1e-3, 0.0, 0.0), modulus)
    with pytest.raises(InvalidArgumentError):
        bc_effective_block(1e-3, 0.0, 2e-3, modulus)
    with pytest.raises(InvalidArgumentError):
        bc_resolved_zz(1e-3, 0.0, 4e-8, 2e-3, modulus)
    with pytest.raises(InvalidArgumentError):
        bc_approx_coefficients(4e-8, 2e-3, modulus)
    with pytest.raises(InvalidArgumentError):
        bc_zz_kernel(2e-3, modulus)


@pytest.mark.parametrize("mode", PSI_MODES)
def test_zz_kernel_is_the_resolved_zz_bitwise(mode):
    kernel = bc_zz_kernel(2e-3, E, mode)
    rng = np.random.default_rng(71)
    for x, y in [(0.0, 0.0), (1e-120, 0.0)] + [tuple(p) for p in rng.uniform(-2e-2, 2e-2, (200, 2))]:
        a, b = rng.uniform(1e-4, 2e-3, 2)
        assert kernel(x, y, a, b) == bc_resolved_zz(x, y, 4.0 * a * b, 2e-3, E, mode)
    with pytest.raises(InvalidArgumentError):
        bc_zz_kernel(2e-3, E, "fancy")(1e-3, 0.0, 1e-3, 1e-3)
