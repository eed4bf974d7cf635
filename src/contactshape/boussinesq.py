"""Point-load elastic model for an incompressible half space.

For nu = 1/2 the displacement at a point r = (x, y, z) due to a
concentrated force F on the surface at the origin is G(r) F, with the
point-load Green's tensor

    G(r) = 3/(4 pi E) * (I / rho + r r^T / rho^3),    rho = |r|

(Johnson, Contact Mechanics, CUP 1985, section 3.2).  What the
capacitive layer senses is the effective displacement: the field at the
surface minus the field at depth h_c (the compressed cover thickness),
because the taxel electrode rides on the bottom of the cover.  So each
node pair's influence block is G at the surface minus G at depth h_c.

Five entries of that block diverge when the two nodes are vertically
aligned.  An approximate solution spreads the force over the cell area
(radius-equivalent scale z0 = sqrt(3 A / (2 pi))) and stays finite; each
coefficient is resolved by keeping whichever candidate has the smaller
magnitude, which switches from the approximate value near the axis to
the exact value in the far field.

Every public function checks its numeric arguments and raises
InvalidArgumentError for a non-finite value, a non-positive modulus,
cover thickness or cell area; ``bc_zz_kernel`` hands assembly the
unchecked normal-normal form, which it calls on blocks of node pairs.
The normal-normal path (``_exact_zz``, the spread-load candidate and the
switch between them) is NumPy array code with the branches as masks;
the scalar public functions are 0-d calls of it, so a matrix entry and
the public function for its pair agree bitwise.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import InvalidArgumentError, SingularPointError, UnsupportedModelError
from .errors import check_choice, check_entries, check_finite, check_positive

PSI_MODES = ("const", "exact")

# Psi coefficients of the spread-load depth profile, and its flat-mode value.
PSI_SLOPE = 0.2431
PSI_OFFSET = 0.1814
PSI_CONST = 0.25

_SUPPORTED_NU = 0.5


def _check_layer(h_c: float, young_modulus: float) -> None:
    check_positive("cover thickness", h_c)
    check_positive("young modulus", young_modulus)


def require_incompressible(nu: float) -> None:
    """This model is only valid for nu = 1/2."""
    if nu != _SUPPORTED_NU:
        raise UnsupportedModelError(
            "point-load model requires poisson_ratio = 0.5, got %r" % nu
        )


def psi(x, mode: str = "const"):
    """Depth decay factor Psi of the spread-load solution.

    ``exact`` evaluates Psi(x) = (0.2431 x - 0.1814) / x for x > 0;
    ``const`` uses the flat approximation 0.25 (Psi tends to 0.2431 for
    large x, and 0.25 is the convenient round value used for design).
    ``x`` may be an array, whose entries must all be valid.
    """
    check_choice("psi mode", mode, PSI_MODES)
    if mode == "const":
        return PSI_CONST
    if not np.all((0.0 < x) & (x < math.inf)):
        raise InvalidArgumentError("psi exact mode needs a finite x > 0, got %r" % (x,))
    return (PSI_SLOPE * x - PSI_OFFSET) / x


def _green(x: float, y: float, z: float, young_modulus: float):
    """Green's tensor G(x, y, z) as a 3x3 array, or None where rho^3 is zero.

    Built from Python floats: numpy's eye/outer cost more than the formula.
    """
    rho2 = x * x + y * y + z * z
    rho = math.sqrt(rho2)
    rho3 = rho2 * rho
    if rho3 == 0.0:
        return None
    k = 3.0 / (4.0 * math.pi * young_modulus)
    d = k / rho
    kx, ky, kz = k * x / rho3, k * y / rho3, k * z / rho3
    xy, xz, yz = kx * y, kx * z, ky * z
    return np.array(
        [
            [d + kx * x, xy, xz],
            [xy, d + ky * y, yz],
            [xz, yz, d + kz * z],
        ]
    )


def bc_point_displacement(force, offset, young_modulus: float) -> np.ndarray:
    """Displacement vector (ux, uy, uz) at ``offset`` from a point force.

    ``offset`` is (x, y, z) from the load application point; the load
    acts on the surface z = 0, displacements are sought at z >= 0.
    The load point raises SingularPointError, and so does any offset so
    small (below about 1e-103 m) that rho^3 underflows to zero.
    """
    check_entries("offset", offset, 3)
    check_entries("force", force, 3)
    x, y, z = (float(c) for c in offset)
    force = np.asarray(force, dtype=float)
    check_positive("young modulus", young_modulus)
    if z < 0.0:
        raise InvalidArgumentError("depth z must be non-negative, got %r" % z)
    g = _green(x, y, z, young_modulus)
    if g is None:
        raise SingularPointError("point-load displacement diverges at the load point")
    return g @ force


def _exact_zz(s, h_c: float, young_modulus: float):
    """Exact normal-normal effective coefficient at squared in-plane distance
    s >= 0 (an array or a scalar); +inf at s = 0.

    k (1/sqrt(s) - (s + 2h^2) / (s + h^2)^(3/2)) = k (1 - (1 + 2u)(1 + u)^(-3/2)) / sqrt(s)
    with u = h^2 / s.  The two terms nearly cancel far from the load; taking
    the bracket as -expm1(log1p(2u) - 1.5 log1p(u)) keeps its digits there.
    """
    k = 3.0 / (4.0 * math.pi * young_modulus)
    with np.errstate(divide="ignore", over="ignore"):
        # u is capped at 1e300 (s below about 1e-300 h^2, s = 0 too) so that 2u
        # cannot overflow; the bracket is then 1 - O(u^-1/2), exactly 1.0
        u = np.minimum(np.divide(h_c * h_c, s), 1e300)
        return -k * np.expm1(np.log1p(2.0 * u) - 1.5 * np.log1p(u)) / np.sqrt(s)


def bc_effective_block(x: float, y: float, h_c: float, young_modulus: float) -> np.ndarray:
    """Exact 3x3 effective-displacement block for one node pair.

    Row r, column c holds the effective displacement component r at the
    sensing node per unit force component c on the traction node, the
    nodes being offset by (x, y) in plane with cover thickness h_c: the
    Green's tensor at the surface minus at depth h_c, with the
    normal-normal entry from ``_exact_zz``.  Entries that diverge at
    x = y = 0 are reported as +inf sentinels, also for offsets so small
    (below about 1e-103 m) that s^(3/2) underflows to zero.
    """
    check_finite("offset", x, y)
    _check_layer(h_c, young_modulus)
    surface = _green(x, y, 0.0, young_modulus)
    if surface is None:
        inf = math.inf
        return np.array([[inf, inf, 0.0], [inf, inf, 0.0], [0.0, 0.0, inf]])
    blk = surface - _green(x, y, h_c, young_modulus)
    blk[2, 2] = _exact_zz(x * x + y * y, h_c, young_modulus)
    return blk


def spread_radius(cell_area: float) -> float:
    """Equivalent spreading scale z0 = sqrt(3 A / (2 pi)) of a cell."""
    check_positive("cell area", cell_area)
    return _spread_radius(cell_area)


def _spread_radius(cell_area):
    return np.sqrt(cell_area * (1.5 / math.pi))


def bc_approx_coefficients(
    cell_area: float, h_c: float, young_modulus: float, psi_mode: str = "const"
) -> tuple[float, float]:
    """Finite per-unit-force coefficients (tangential, normal).

    These come from spreading the force over the cell and keeping the
    on-axis response; they couple each force component only to its own
    displacement component.
    """
    check_positive("cell area", cell_area)
    _check_layer(h_c, young_modulus)
    return _approx_coefficients(cell_area, h_c, young_modulus, psi_mode)


def _approx_coefficients(cell_area, h_c, young_modulus, psi_mode):
    z0 = _spread_radius(cell_area)
    p = psi(h_c / z0, psi_mode)
    base = 9.0 / (4.0 * math.pi * young_modulus) * p / z0
    return (base, 2.0 * base)


def _resolved_coefficient(exact, approx):
    """Pick the candidate with the smaller magnitude, entry by entry.

    Continuous switch between the approximate value near the axis and
    the exact value in the far field; an inf sentinel always loses.
    """
    return np.where(abs(exact) <= abs(approx), exact, approx)[()]


def bc_resolved_block(
    x: float,
    y: float,
    cell_area: float,
    h_c: float,
    young_modulus: float,
    psi_mode: str = "const",
) -> np.ndarray:
    """Resolved (finite) 3x3 block for one node pair.

    The spread-load solution only offers candidates for the diagonal;
    off-diagonal couplings keep the exact value, which is finite except
    exactly on the axis where the sentinel resolves to the approximate
    solution's implied zero.
    """
    blk = bc_effective_block(x, y, h_c, young_modulus)
    ct, cn = bc_approx_coefficients(cell_area, h_c, young_modulus, psi_mode)
    blk[0, 0] = _resolved_coefficient(blk[0, 0], ct)
    blk[1, 1] = _resolved_coefficient(blk[1, 1], ct)
    blk[2, 2] = _resolved_coefficient(blk[2, 2], cn)
    blk[~np.isfinite(blk)] = 0.0
    return blk


def bc_resolved_zz(
    x: float,
    y: float,
    cell_area: float,
    h_c: float,
    young_modulus: float,
    psi_mode: str = "const",
) -> float:
    """Resolved normal-normal coefficient only (the usual sensing mode)."""
    check_finite("offset", x, y)
    check_positive("cell area", cell_area)
    _check_layer(h_c, young_modulus)
    return _resolved_zz(x, y, cell_area, h_c, young_modulus, psi_mode)


def bc_zz_kernel(h_c: float, young_modulus: float, psi_mode: str = "const"):
    """``bc_resolved_zz`` as kernel(x, y, a, b) for a cell of half-extents
    (a, b), area 4ab, at in-plane offset (x, y).

    h_c and the modulus are checked here, once; the kernel itself checks
    nothing but the psi mode, so it is fed finite offsets and positive
    half-extents (a validated grid's cells), as scalars or as
    equal-length arrays holding one node pair per entry.
    """
    _check_layer(h_c, young_modulus)
    return lambda x, y, a, b: _resolved_zz(x, y, 4.0 * a * b, h_c, young_modulus, psi_mode)


def _resolved_zz(x, y, cell_area, h_c, young_modulus, psi_mode):
    # on the axis (s = 0) the exact coefficient is +inf, so cn wins
    _, cn = _approx_coefficients(cell_area, h_c, young_modulus, psi_mode)
    return _resolved_coefficient(_exact_zz(x * x + y * y, h_c, young_modulus), cn)
