"""Singularity analysis of plane algebraic curves in affine charts.

A reduced curve is split into its lines of constant y, its lines of
constant x and a core; its singular points lie where two of the three meet
or on Sing(core).  One locate step serves each of these sites: the rational
roots of an eliminant in y, then the rational roots in x of the site's
polynomials at each of them.  Non-rational singular points are never
located numerically, only certified through one eliminant.  What kind of
singular point each is, is read by the blow-up driver from the integer
2-jet there (``poly.two_jet_at``).
"""

from __future__ import annotations

from fractions import Fraction

from .poly import (
    MultiPoly,
    content_in,
    dehomogenize,
    exact_divide,
    format_poly,
    gcd_all,
    primitive_integer,
    radical,
    rational_roots,
    resultant,
)
from .record import Record, Value

PROJECTIVE_VARS = ("A0", "A1", "A2")


class NonReducedCurveError(ValueError):
    """The input has a repeated component; divide out multiple factors first."""


class AffineChart(Value):
    """One of the three standard affine charts of the projective plane."""

    __slots__ = ("index", "coords")

    def __init__(self, index: int, coords: tuple[str, str]):
        if index not in (0, 1, 2):
            raise ValueError("chart index must be 0, 1 or 2")
        self._store(index, coords)

    @staticmethod
    def standard(index: int) -> "AffineChart":
        names = {0: ("a1", "a2"), 1: ("u", "v"), 2: ("u", "v")}
        return AffineChart(index, names[index])

    def dehomogenize(self, p: MultiPoly) -> MultiPoly:
        """Restrict a homogeneous polynomial in (A0,A1,A2) to this chart:
        drop the A_index column and rename the other two coordinates."""
        var = PROJECTIVE_VARS[self.index]
        others = [v for v in PROJECTIVE_VARS if v != var]
        return dehomogenize(p, var, dict(zip(others, self.coords)))

    def to_projective(self, point) -> tuple:
        coords = [Fraction(point[0]), Fraction(point[1])]
        coords.insert(self.index, Fraction(1))
        return tuple(coords)


def normalize_projective(point) -> tuple:
    """The representative of a projective point whose first nonzero entry is 1."""
    for c in point:
        if c != 0:
            return tuple(Fraction(x) / Fraction(c) for x in point)
    raise ValueError("projective point cannot be zero")


class SingularLocus(Record):
    """Rational singular points, sorted (x, y) pairs of ``Fraction``, plus,
    if some are not rational, a squarefree eliminant in the second chart
    coordinate whose roots include their second coordinates (else None)."""

    __slots__ = ("points", "eliminant_squarefree")

    def __init__(self, points: list, eliminant_squarefree: MultiPoly | None):
        self.points, self.eliminant_squarefree = points, eliminant_squarefree


def rational_singular_points(f: MultiPoly, chart: AffineChart) -> SingularLocus:
    """Solve f = f_x = f_y = 0 over the rationals on an affine chart.

    All rational solutions are returned as sorted (x, y) pairs.  Solutions
    that are not rational are accounted for by a squarefree eliminant in
    the second chart coordinate whose roots include their second
    coordinates; they are never located numerically.

    The reduced f is h(y) v(x) core, with h and v its contents in x and y,
    pairwise coprime.  Lines of one direction are smooth and parallel, so
    the solutions lie on four sites: Sing(core), h & v, h & core and
    v & core.  Each site is a list of polynomials with those common zeros
    and an eliminant in y: ``_singular_eliminant`` for the core, and for a
    pair (g, k), g when it is free of x, else Res_x(g, k).  The eliminant
    lies in the elimination ideal, so each common zero has its y among its
    roots (Cox, Little, O'Shea, Ideals, Varieties, and Algorithms, ch. 3).
    """
    x, y = chart.coords
    if f.is_zero():
        raise ValueError("zero polynomial is not a curve")
    fx, fy = f.derivative(x), f.derivative(y)
    common = gcd_all((f, fx, fy))
    if not common.is_constant():
        raise NonReducedCurveError(
            "curve has a repeated component (gcd with gradient is "
            f"{format_poly(common)}); reduce the input first"
        )
    h, v = content_in(f, x), content_in(f, y)
    core = f
    if not (h.is_constant() and v.is_constant()):
        core = exact_divide(f, h * v)
        fx, fy = core.derivative(x), core.derivative(y)
    parts = [p for p in (h, v, core) if not p.is_constant()]
    sites = [
        ((g, k), g if g.degree_in(x) < 1 else resultant(g, k, x))
        for i, g in enumerate(parts) for k in parts[i + 1:]
    ]
    if not core.is_constant():
        sites.append(((core, fx, fy), _singular_eliminant(core, (fx, fy), x)))

    points, leftover = set(), MultiPoly.const(1)
    for polys, eliminant in sites:
        roots, rest = rational_roots(radical(eliminant))
        leftover = leftover * rest
        for y0, _ in roots:
            xs, off = rational_roots(gcd_all(p.substitute({y: y0}) for p in polys))
            points.update((x0, y0) for x0, _ in xs)
            if not off.is_constant():
                leftover = leftover * (MultiPoly.variable(y) - y0)

    leftover_sf = None
    if not leftover.is_constant():
        leftover_sf, _ = primitive_integer(radical(leftover))
    return SingularLocus(points=sorted(points), eliminant_squarefree=leftover_sf)


def _singular_eliminant(core: MultiPoly, partials: tuple, x: str) -> MultiPoly:
    """gcd of the x-resultants of core with its two partials, never zero:
    a reduced core of positive degree in x shares no factor with core_x."""
    # a partial of degree 0 in x is free of x already
    return gcd_all(resultant(core, p, x) if p.degree_in(x) >= 1 else p for p in partials)
