"""Uniform-pressure rectangular-cell elastic model (finite cells).

A uniform pressure p over the rectangle |x'| <= a, |y'| <= b on the
surface of an elastic half space displaces the point (x, y, z) by an
amount expressible through two potentials of the loaded area,

    chi = integral of p * log(z + r) over the cell
    V   = integral of p / r         over the cell

with r the distance from (x', y', 0) to (x, y, z):

    ux = -1/(4 pi) [ 2(1+nu)(1-2 nu)/E * d(chi)/dx + 2(1+nu) z/E * dV/dx ]
    uy = likewise with d/dy
    uz = +1/(4 pi) [ 4(1-nu^2)/E * V - 2(1+nu) z/E * dV/dz ]

Both potentials integrate in closed form.  With the per-term
abbreviations (j = 1 uses c = a - x, j = 2 uses c = -(a + x); dy is the
integration bracket offset y' - y)

    r    = sqrt(c^2 + dy^2 + z^2)
    beta = sqrt(c^2 + z^2)
    psi  = dy / (r + beta)

the antiderivatives used below are

    J = dy [ln(z + r) - 1] + z ln((1+psi)/(1-psi)) + 2|c| atan(|c| psi / (z + beta))
    L = dy [ln(c + r) - 1] + c ln((1+psi)/(1-psi)) + 2 z  atan(z   psi / (c + beta))

and the displacements are bracketed differences of J, L and two direct
log/arctan terms over y' = +-b (x' = +-a for uy).  Every term of the
form w * f with f divergent has a removable w -> 0 limit of zero; the
code forces that limit explicitly, so evaluations are finite for any
z >= 0 including cell edges and corners.  A term whose weight is the
scalar zero is skipped, not computed and then zeroed, since its limit
is exactly 0: at the surface, z = 0, that is J's z log term, L's z atan
term and the z-weighted direct term of ux and of uz.

Each component has one implementation (``_ux``, which gives uy with
the axes swapped, and ``_uz``), valid for every z >= 0.  Both are NumPy
array functions that broadcast over the cell and the point, with the
four corner terms of a bracket evaluated in one call, and take the
depth-independent corner geometry (``_Corners``) formed once, so the
surface and the depth share it.  The scalar public functions are calls
of that same code on the cell and point stacked with their axes
swapped (ux and uy one call, and uz from the same corners), so a
matrix entry and the public function for its pair agree bitwise.  The effective influence of a
cell on a sensing node is that same form at the surface minus its
value at depth h_c, per unit pressure.

Every public function checks its numeric arguments; ``love_zz_kernel``
hands assembly the unchecked normal form, which it calls on blocks of
node pairs.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .errors import InvalidArgumentError, OracleFailureError
from .errors import check_choice, check_entries, check_finite, check_positive

# A weight smaller than this fraction of the local length scale forces
# its (removable-limit) term to zero.
EDGE_WEIGHT_TOL = 1e-14

# Depth floor for the log-potential quadrature oracle.
ORACLE_Z_FLOOR = 1e-9

_4PI = 4.0 * math.pi


class _Length(NamedTuple):
    """A length w with its square and its magnitude, formed once for all
    the terms that read them.  ``zero`` marks the scalar zero: a term
    weighted by it is its removable limit, exactly 0, and is skipped."""

    w: object
    sq: object
    mag: object
    zero: bool


def _length(w):
    return _Length(w, w * w, abs(w), isinstance(w, float) and w == 0.0)


def _add_root(u, r, s):
    """u + r for r = sqrt(u^2 + s), s >= 0 and u a ``_Length``, without
    cancellation for u < 0: there it is s / (r - u).  Both branches
    divide or add r + |u|, which is u + r for u >= 0 and r - u for u < 0."""
    r_u = r + u.mag
    return np.where(u.w >= 0.0, r_u, s / r_u)


def _term(u, v, dy, tol):
    """J and L of the module docstring in one antiderivative, z and c in
    swapped roles: J(c, dy, z) is _term(z, |c|, dy), L(c, dy, z) is _term(c, z, dy).

    Takes ``_Length``s and broadcasts over them; a weight at or below
    ``tol`` makes its term the removable limit, zero, and a weight that
    is the scalar zero skips it.  The branches np.where discards may
    divide by zero, so callers run it under np.errstate.
    """
    s = dy.sq + v.sq
    r = np.sqrt(u.sq + s)
    beta = np.sqrt(u.sq + v.sq)
    den = r + beta
    psi = np.where(den > 0.0, dy.w / den, 0.0)
    t = np.where(dy.mag > tol, dy.w * (np.log(_add_root(u, r, s)) - 1.0), 0.0)
    if not u.zero:
        t = t + np.where(u.mag > tol, u.w * np.log((1.0 + psi) / (1.0 - psi)), 0.0)
    if v.zero:
        return t
    # v times a bounded arctangent: zero at v = 0 without a guard
    return t + 2.0 * v.w * np.arctan2(v.w * psi, _add_root(u, beta, v.sq))


# The two edges of the cell along each axis, x' = +-a (y' = +-b): each
# component brackets its terms over c = +-a - x and dy = +-b - y.
_EDGES = np.array([1.0, -1.0])


class _Corners:
    """What a cell and an in-plane point give every depth alike.

    ``c`` and ``dy`` are shaped (2, 1, ...) and (1, 2, ...): entry [i, j]
    of an expression in both is its value at the cell corner (c_i, dy_j).
    ``abs_c`` is |c| as a length of its own (J's v), and ``extent``
    a + b + |x| + |y|, the depth-free part of the weight tolerance's
    length scale.
    """

    def __init__(self, a, b, x, y):
        self.c = c = _length((np.multiply.outer(_EDGES, a) - x)[:, None])
        self.abs_c = _Length(c.mag, c.sq, c.mag, False)
        self.dy = _length((np.multiply.outer(_EDGES, b) - y)[None])
        self.extent = a + b + abs(x) + abs(y)


def _bracket(f):
    """Sum over the corners of f[i, j] with sign +1 for i == j, -1 otherwise."""
    d = f[0] - f[1]
    return d[0] - d[1]


def _prefactor(E, nu):
    """2 (1 + nu) / (4 pi E), the factor of both components."""
    return (2.0 * (1.0 + nu) / E) / _4PI


def _ux(k, z, nu, pre):
    """x displacement per unit pressure at depth ``z`` (a ``_Length``)
    below the point of corners ``k``, ``pre`` being ``_prefactor``; uy
    is _ux of the corners with the axes swapped.

    The bracketed J difference plus the z-weighted log term, skipped at
    z = 0.  Broadcasts over the corners and z.
    """
    tol = EDGE_WEIGHT_TOL * (k.extent + z.w)
    with np.errstate(divide="ignore", invalid="ignore"):
        f = (1.0 - 2.0 * nu) * _term(z, k.abs_c, k.dy, tol)
        if not z.zero:
            s = k.c.sq + z.sq
            root = _add_root(k.dy, np.sqrt(k.dy.sq + s), s)
            f = f + np.where(z.w > tol, z.w * np.log(root), 0.0)
    return pre * _bracket(f)


def _uz(k, z, nu, pre):
    """z displacement per unit pressure, as ``_ux``.

    The bracketed L difference plus the z-weighted arctangent term,
    skipped at z = 0.
    """
    tol = EDGE_WEIGHT_TOL * (k.extent + z.w)
    with np.errstate(divide="ignore", invalid="ignore"):
        f = 2.0 * (1.0 - nu) * _term(k.c, z, k.dy, tol)
    if not z.zero:
        f = f + z.w * np.arctan2(k.c.w * k.dy.w, z.w * np.sqrt(k.c.sq + k.dy.sq + z.sq))
    return pre * _bracket(f)


def _check_cell_point(cell, pt) -> tuple[float, float, float, float, float]:
    check_entries("cell half-extents", cell, 2)
    check_entries("point", pt, 3)
    a, b = cell
    x, y, z = pt
    check_positive("cell half-extent", a)
    check_positive("cell half-extent", b)
    if z < 0.0:
        raise InvalidArgumentError("depth z must be non-negative, got %r" % z)
    return float(a), float(b), float(x), float(y), float(z)


def love_displacement(p: float, cell, pt, params) -> np.ndarray:
    """Displacement (ux, uy, uz) at ``pt`` from uniform pressure ``p``.

    Parameters
    ----------
    p : pressure over the cell, Pa.
    cell : half-extents (a, b) of the rectangle, m.
    pt : evaluation point (x, y, z) with z >= 0, m.
    params : ElastomerParams; only young_modulus and poisson_ratio enter.
    """
    check_finite("pressure", p)
    a, b, x, y, z = _check_cell_point(cell, pt)
    nu = params.poisson_ratio
    pre = _prefactor(params.young_modulus, nu)
    ab, xy, depth = np.array([a, b]), np.array([x, y]), _length(z)
    # the cell and point, then the two with their axes swapped: ux, uy
    # and (from the first) uz
    k = _Corners(ab, ab[::-1], xy, xy[::-1])
    return p * np.append(_ux(k, depth, nu, pre), _uz(k, depth, nu, pre)[0])


def love_effective_column(delta, half_extents, h_c: float, params) -> np.ndarray:
    """Effective displacement per unit pressure on one cell.

    ``delta`` is the in-plane offset of the sensing node from the cell
    center.  It is ``love_displacement`` of unit pressure at the surface
    minus its value at depth h_c.
    """
    check_entries("node offset", delta, 2)
    check_positive("cover thickness", h_c)
    surface = love_displacement(1.0, half_extents, (*delta, 0.0), params)
    return surface - love_displacement(1.0, half_extents, (*delta, h_c), params)


def love_effective_zz(
    x: float, y: float, a: float, b: float, h_c: float, young_modulus: float, poisson_ratio: float
) -> float:
    """Normal effective displacement per unit pressure on one cell.

    The z entry of ``love_effective_column`` for the offset (x, y) and
    half-extents (a, b).
    """
    a, b, x, y, _ = _check_cell_point((a, b), (x, y, 0.0))
    return love_zz_kernel(h_c, young_modulus, poisson_ratio)(x, y, a, b)


def love_zz_kernel(h_c: float, young_modulus: float, poisson_ratio: float):
    """``love_effective_zz`` as kernel(x, y, a, b), which checks nothing:
    h_c and the material constants are checked here, once, and assembly
    feeds it a validated grid's finite offsets and positive half-extents,
    as scalars or as equal-length arrays holding one node pair per entry."""
    check_positive("cover thickness", h_c)
    check_positive("young modulus", young_modulus)
    check_finite("poisson ratio", poisson_ratio)
    nu = poisson_ratio
    pre = _prefactor(young_modulus, nu)
    surface, depth = _length(0.0), _length(h_c)

    def kernel(x, y, a, b):
        k = _Corners(a, b, x, y)
        return _uz(k, surface, nu, pre) - _uz(k, depth, nu, pre)

    return kernel


def _quad1(g, lo, hi, tol, breakpoints=None):
    # scipy is imported here, by the quadrature oracle alone, so that
    # importing the package does not pay for it
    import warnings

    from scipy import integrate

    pts = None
    if breakpoints:
        pts = [p for p in breakpoints if lo < p < hi]
        pts = pts or None
    with warnings.catch_warnings():
        # error control happens in the caller's tripwire, not per panel
        warnings.simplefilter("ignore", integrate.IntegrationWarning)
        return integrate.quad(
            g, lo, hi, epsabs=1e-290, epsrel=tol, limit=200, points=pts
        )


def _corner_wedges(f, ext_u, ext_v, tol):
    """Integrate f over [0, ext_u] x [0, ext_v] in polar around the origin.

    The polar Jacobian cancels the inverse-distance singularity at the
    corner, so plain adaptive rules converge.  Returns (value, error).
    """
    if ext_u <= 0.0 or ext_v <= 0.0:
        return 0.0, 0.0
    split = math.atan2(ext_v, ext_u)

    def radial(theta, reach):
        cu = math.cos(theta)
        cv = math.sin(theta)
        val, _ = _quad1(
            lambda r: r * f(r * cu, r * cv), 0.0, reach, max(0.01 * tol, 1e-12)
        )
        return val

    def wedge_a(theta):
        return radial(theta, ext_u / math.cos(theta))

    def wedge_b(theta):
        return radial(theta, ext_v / math.sin(theta))

    va, ea = _quad1(wedge_a, 0.0, split, tol)
    vb, eb = _quad1(wedge_b, split, 0.5 * math.pi, tol)
    return va + vb, ea + eb


def _integrate_cell(f, a, b, x, y, rel_tol):
    """Adaptive quadrature of f(x', y') over the cell; returns (value, error).

    When the in-plane projection (x, y) of the field point lies inside
    the cell, the cell is cut into quadrant rectangles meeting at that
    point and each is integrated in polar coordinates, which absorbs the
    near-field singularity of the potentials.  Otherwise plain nested
    quadrature (with breakpoints at the projection) is used.
    """
    inner_tol = max(0.01 * rel_tol, 1e-13)
    if -a <= x <= a and -b <= y <= b:
        total = 0.0
        err = 0.0
        for su, ext_u in ((1.0, a - x), (-1.0, a + x)):
            for sv, ext_v in ((1.0, b - y), (-1.0, b + y)):
                val, e = _corner_wedges(
                    lambda u, v: f(x + su * u, y + sv * v), ext_u, ext_v, rel_tol
                )
                total += val
                err += e
        return total, err

    def outer(yy):
        val, _ = _quad1(lambda xx: f(xx, yy), -a, a, inner_tol, breakpoints=[x])
        return val

    return _quad1(outer, -b, b, rel_tol, breakpoints=[y])


def love_potential_oracle(p: float, cell, pt, which: str, rel_tol: float = 1e-9) -> float:
    """Brute-force quadrature of one elastic potential over the cell.

    ``which`` selects ``chi`` (log potential) or ``V`` (inverse-distance
    potential).  The log potential needs z + r > 0, so its evaluation
    floors z at 1e-9 m; V is integrable down to z = 0.
    """
    check_finite("pressure", p)
    check_positive("relative tolerance", rel_tol)
    a, b, x, y, z = _check_cell_point(cell, pt)
    check_choice("potential", which, ("chi", "V"))
    if which == "chi":
        z = max(z, ORACLE_Z_FLOOR)

        def f(xx, yy):
            dx = xx - x
            dyv = yy - y
            return math.log(z + math.sqrt(dx * dx + dyv * dyv + z * z))

    else:

        def f(xx, yy):
            dx = xx - x
            dyv = yy - y
            return 1.0 / math.sqrt(dx * dx + dyv * dyv + z * z)

    val, err = _integrate_cell(f, a, b, x, y, rel_tol)
    if err > 50.0 * rel_tol * max(abs(val), 1e-300):
        raise OracleFailureError(
            "potential quadrature achieved %.3g relative error, requested %.3g"
            % (err / max(abs(val), 1e-300), rel_tol)
        )
    return p * val
