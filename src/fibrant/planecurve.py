"""Singularity analysis of plane algebraic curves in affine charts.

Rational singular points are located by resultant elimination plus exact
rational-root extraction; non-rational singular points are never located
numerically, only certified through eliminant polynomials.  The
multiplicity of a point is the least total degree of the recentred germ.
Double points are classified (node / cusp / tacnode) by the 2-jet and,
where the quadratic part degenerates, by blowing up and re-classifying
the strict transform.
"""

from __future__ import annotations

from fractions import Fraction

from .poly import (
    MultiPoly,
    content_in,
    dehomogenize,
    exact_divide,
    gcd_multivariate,
    format_poly,
    primitive_integer,
    radical,
    rational_roots,
    resultant,
    strict_transform,
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


class SingularPointReport(Record):
    """Classification of one singular (or smooth) rational point; ``kind``
    is smooth, node, cusp, tacnode, multiplicity_ge_3 or unresolved."""

    __slots__ = ("point", "kind", "multiplicity")

    def __init__(self, point: tuple | None, kind: str, multiplicity: int = 0):
        self.point, self.kind, self.multiplicity = point, kind, multiplicity


class SingularLocus(Record):
    """Rational singular points plus, if some are not rational, a
    squarefree eliminant in the second chart coordinate whose roots
    include their second coordinates (else None)."""

    __slots__ = ("points", "eliminant_squarefree")

    def __init__(self, points: list, eliminant_squarefree: MultiPoly | None):
        self.points, self.eliminant_squarefree = points, eliminant_squarefree


def _gcd_many(polys):
    acc = MultiPoly.zero()
    for p in polys:
        acc = gcd_multivariate(acc, p)
        if acc.is_constant() and not acc.is_zero():
            break
    return acc


def rational_singular_points(f: MultiPoly, chart: AffineChart) -> SingularLocus:
    """Solve f = f_x = f_y = 0 over the rationals on an affine chart.

    All rational solutions are returned as classified reports.  Solutions
    that are not rational are accounted for by a squarefree eliminant in
    the second chart coordinate whose roots include their second
    coordinates; they are never located numerically.
    """
    x, y = chart.coords
    if f.is_zero():
        raise ValueError("zero polynomial is not a curve")
    fx = f.derivative(x)
    fy = f.derivative(y)
    common = _gcd_many([f, fx, fy])
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

    reports = []
    for pt in sorted(candidates):
        values = {x: pt[0], y: pt[1]}
        if f.evaluate(values) == 0 and fx.evaluate(values) == 0 and fy.evaluate(values) == 0:
            reports.append(classify_double_point(f, pt, (x, y)))

    for part in unlocated:
        leftover = leftover * part
    leftover_sf = None
    if not leftover.is_constant():
        prim, _ = primitive_integer(leftover)
        leftover_sf, _ = primitive_integer(radical(prim))
    return SingularLocus(points=reports, eliminant_squarefree=leftover_sf)


def _singular_eliminant(core: MultiPoly, x: str, y: str) -> MultiPoly:
    """gcd of the x-resultants of (core, core_x) and (core, core_y)."""
    cx = core.derivative(x)
    cy = core.derivative(y)
    parts = []
    for other in (cx, cy):
        if other.is_zero():
            continue
        if other.degree_in(x) >= 1:
            parts.append(resultant(core, other, x))
        else:
            parts.append(other)  # already free of x
    return _gcd_many(parts)


def _singular_locus_over_root(core, fx, fy, y, root):
    """Polynomial in x whose roots are the x-coordinates of the singular
    points with y = root."""
    restrictions = []
    for p in (core, fx, fy):
        s = p.substitute({y: Fraction(root)})
        if not s.is_zero():
            restrictions.append(s)
    return _gcd_many(restrictions) if restrictions else MultiPoly.const(1)


# -- double point classification ---------------------------------------------


def classify_double_point(f: MultiPoly, point, vars) -> SingularPointReport:
    """Classify a singular rational point of the curve f = 0.

    Nodes are recognized by a nondegenerate quadratic part.  A rank-one
    quadratic part triggers blow-ups of the germ (depth limit 3): a strict
    transform that is smooth over the center certifies a cusp, a nodal
    strict transform a tacnode.  Deeper singularities are reported as
    unresolved, and multiplicity >= 3 is labeled as such.
    """
    x, y = vars
    px, py = Fraction(point[0]), Fraction(point[1])
    germ = f.shift({x: px, y: py})
    if germ.is_zero():
        raise ValueError("curve vanishes identically")
    mult = min(map(sum, germ.ints))
    if mult == 0:
        raise ValueError("point does not lie on the curve")
    if mult == 1:
        raise ValueError("point is a smooth point, not singular")
    if mult >= 3:
        return SingularPointReport((px, py), "multiplicity_ge_3", mult)

    kind = {1: "node", 2: "cusp", 3: "tacnode"}.get(_a_index(germ, x, y), "unresolved")
    return SingularPointReport((px, py), kind, 2)


def two_jet(germ: MultiPoly, x: str, y: str) -> dict:
    """The 2-jet of ``germ`` at the origin of the (x, y) plane as
    {(i, j): c_ij} for i + j <= 2, absent terms 0.

    The c_ij are the integer coefficients of the stored form, a positive
    multiple of the rational ones, so every test of signs, ratios or
    vanishing reads them directly."""
    jet = dict.fromkeys([(0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2)], 0)
    for e, c in germ.ints.items():
        if sum(e) <= 2:
            powers = dict(zip(germ.variables, e))
            jet[powers.get(x, 0), powers.get(y, 0)] = c
    return jet


def _a_index(germ: MultiPoly, x: str, y: str):
    """A_k index of a multiplicity-2 germ at the origin, or None if it
    takes more than three blow-ups."""
    current = germ
    for depth in range(3):
        jet = two_jet(current, x, y)
        a, b, c = jet[2, 0], jet[1, 1], jet[0, 2]
        if b * b - 4 * a * c != 0:
            return 2 * depth + 1  # nondegenerate: node here
        # rank-one quadratic part: single (rational) tangent direction.
        # Tangent x = -(b/2a) y shows in the chart (x, y) = (u v, v); a
        # quadratic part c*y^2 (tangent y = 0) in the chart (x, y) = (u, u v).
        # The exceptional line carries the multiplicity, 2, of the germ.
        chart = "B" if a != 0 else "A"
        strict, _ = strict_transform(current, (x, y), (x, y), chart)
        if a != 0:
            strict = strict.shift({x: Fraction(-b, 2 * a)})
        mult2 = min(map(sum, strict.ints))
        if mult2 <= 1:
            # strict transform smooth over (or missing) the center: chain ends
            return 2 * (depth + 1)
        if mult2 >= 3:
            return None
        current = strict
    return None
