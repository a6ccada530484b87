"""Singularity analysis of plane algebraic curves in affine charts.

Rational singular points are located by resultant elimination plus exact
rational-root extraction; non-rational singular points are never located
numerically, only certified through eliminant polynomials.  What kind of
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
    """
    x, y = chart.coords
    if f.is_zero():
        raise ValueError("zero polynomial is not a curve")
    fx = f.derivative(x)
    fy = f.derivative(y)
    common = gcd_all((f, fx, fy))
    if not common.is_constant():
        raise NonReducedCurveError(
            "curve has a repeated component (gcd with gradient is "
            f"{format_poly(common)}); reduce the input first"
        )

    candidates = set()

    # Components that are lines of constant x or constant y show up as
    # contents; their crossings with the rest are singular points of f.
    content_x = content_in(f, x)   # polynomial in y only
    content_y = content_in(f, y)   # polynomial in x only
    core = f
    if not content_x.is_constant():
        core = exact_divide(core, content_x)
    if not content_y.is_constant():
        core = exact_divide(core, content_y)

    eliminant = None
    if core.degree_in(x) >= 1 and core.degree_in(y) >= 1:
        eliminant = _singular_eliminant(core, x, y)
    elif not core.is_constant():
        # core depends on a single variable; squarefree, so smooth lines
        eliminant = MultiPoly.const(1)

    line_roots_y, irrational_y = rational_roots(content_x)
    line_roots_x, irrational_x = rational_roots(content_y)
    # second coordinates of singular points that are not rational, by the
    # lines through them: horizontal lines y = c with c irrational meet the
    # vertical lines and the core, vertical ones x = c meet the horizontal
    # lines at every root of content_x and the core where Res_x vanishes
    unlocated = []
    if not irrational_y.is_constant() and (
        not content_y.is_constant() or not core.is_constant()
    ):
        unlocated.append(irrational_y)
    if not irrational_x.is_constant():
        unlocated.append(content_x)
        if not core.is_constant():
            unlocated.append(resultant(irrational_x, core, x))

    # line-line crossings
    for rx, _ in line_roots_x:
        for ry, _ in line_roots_y:
            candidates.add((rx, ry))

    leftover = MultiPoly.const(1)
    if eliminant is not None and not eliminant.is_constant():
        roots, leftover = rational_roots(radical(eliminant))
        for root, _ in roots:
            # locate rational x for this y by intersecting the specializations
            xs, rest = rational_roots(_singular_locus_over_root(core, fx, fy, y, root))
            candidates.update((rx, root) for rx, _ in xs)
            if not rest.is_constant():
                unlocated.append(MultiPoly.variable(y) - MultiPoly.const(root))
    if eliminant is not None and eliminant.is_zero():
        raise NonReducedCurveError("degenerate elimination; reduce the input first")

    # line-core crossings
    for ry, _ in line_roots_y:
        xs, rest = rational_roots(core.substitute({y: Fraction(ry)}))
        candidates.update((rx, ry) for rx, _ in xs)
        if not rest.is_constant():
            unlocated.append(MultiPoly.variable(y) - MultiPoly.const(ry))
    for rx, _ in line_roots_x:
        ys, rest = rational_roots(core.substitute({x: Fraction(rx)}))
        candidates.update((rx, ry) for ry, _ in ys)
        unlocated.append(rest)

    points = [
        pt for pt in sorted(candidates)
        if all(p.evaluate({x: pt[0], y: pt[1]}) == 0 for p in (f, fx, fy))
    ]

    for part in unlocated:
        leftover = leftover * part
    leftover_sf = None
    if not leftover.is_constant():
        prim, _ = primitive_integer(leftover)
        leftover_sf, _ = primitive_integer(radical(prim))
    return SingularLocus(points=points, eliminant_squarefree=leftover_sf)


def _singular_eliminant(core: MultiPoly, x: str, y: str) -> MultiPoly:
    """gcd of the x-resultants of (core, core_x) and (core, core_y)."""
    # a partial of degree 0 in x is free of x already
    return gcd_all(
        resultant(core, other, x) if other.degree_in(x) >= 1 else other
        for other in (core.derivative(x), core.derivative(y))
    )


def _singular_locus_over_root(core, fx, fy, y, root):
    """Polynomial in x whose roots are the x-coordinates of the singular
    points with y = root."""
    return gcd_all(p.substitute({y: Fraction(root)}) for p in (core, fx, fy))
