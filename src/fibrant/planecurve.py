"""Singularity analysis of plane algebraic curves in affine charts.

Rational singular points are located by resultant elimination plus exact
rational-root extraction; non-rational singular points are never located
numerically, only certified through eliminant polynomials.  Double points
are classified (node / cusp / tacnode) by recentering and, where the
quadratic part degenerates, by blowing up and re-classifying the strict
transform.  Intersection multiplicities are computed as vanishing orders
of resultants after a shear making the projection generic, which keeps
every step exact over the rationals.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .poly import (
    MultiPoly,
    content_in,
    exact_divide,
    extract_power,
    gcd_multivariate,
    gcd_univariate,
    homogeneous_components,
    format_poly,
    primitive_integer,
    radical,
    resultant,
    split_rational_roots,
)

PROJECTIVE_VARS = ("A0", "A1", "A2")


class NonReducedCurveError(ValueError):
    """The input has a repeated component; divide out multiple factors first."""


@dataclass(frozen=True)
class AffineChart:
    """One of the three standard affine charts of the projective plane."""

    index: int
    coords: tuple[str, str]

    def __post_init__(self):
        if self.index not in (0, 1, 2):
            raise ValueError("chart index must be 0, 1 or 2")

    @staticmethod
    def standard(index: int) -> "AffineChart":
        names = {0: ("a1", "a2"), 1: ("u", "v"), 2: ("u", "v")}
        return AffineChart(index, names[index])

    def dehomogenize(self, p: MultiPoly) -> MultiPoly:
        """Restrict a homogeneous polynomial in (A0,A1,A2) to this chart."""
        mapping = {}
        others = [v for v in PROJECTIVE_VARS if v != PROJECTIVE_VARS[self.index]]
        mapping[PROJECTIVE_VARS[self.index]] = MultiPoly.const(1)
        mapping[others[0]] = MultiPoly.variable(self.coords[0])
        mapping[others[1]] = MultiPoly.variable(self.coords[1])
        return p.substitute(mapping)

    def homogenize(self, f: MultiPoly, degree: int) -> MultiPoly:
        """Inverse of dehomogenize for polynomials of affine degree <= degree."""
        others = [v for v in PROJECTIVE_VARS if v != PROJECTIVE_VARS[self.index]]
        out = MultiPoly.zero()
        x, y = self.coords
        xi = MultiPoly.variable(others[0])
        yi = MultiPoly.variable(others[1])
        hi = MultiPoly.variable(PROJECTIVE_VARS[self.index])
        for exp, coeff in f.terms.items():
            powers = dict(zip(f.variables, exp))
            dx = powers.get(x, 0)
            dy = powers.get(y, 0)
            if dx + dy > degree:
                raise ValueError("affine degree exceeds homogenization degree")
            out = out + MultiPoly.const(coeff) * xi**dx * yi**dy * hi ** (degree - dx - dy)
        return out

    def to_projective(self, point) -> tuple:
        x, y = (Fraction(point[0]), Fraction(point[1]))
        coords = [None, None, None]
        coords[self.index] = Fraction(1)
        others = [i for i in range(3) if i != self.index]
        coords[others[0]] = x
        coords[others[1]] = y
        return tuple(coords)


@dataclass
class SingularPointReport:
    """Classification of one singular (or smooth) rational point."""

    point: tuple | None
    kind: str  # smooth | node | cusp | tacnode | multiplicity_ge_3 | unresolved
    multiplicity: int = 0


@dataclass
class SingularLocus:
    """Rational singular points plus eliminant data for the rest."""

    points: list
    # squarefree polynomial in the second chart coordinate whose roots
    # include the second coordinates of the singular points that are not
    # rational; None if there are none
    eliminant_squarefree: MultiPoly | None


@dataclass
class SmoothnessCertificate:
    smooth: bool
    witness_point: tuple | None = None
    witness_eliminant: MultiPoly | None = None
    reason: str = ""


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

    line_roots_y, irrational_y = split_rational_roots(content_x)
    line_roots_x, irrational_x = split_rational_roots(content_y)
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
        roots, leftover = split_rational_roots(eliminant)
        for root, _ in roots:
            # locate rational x for this y by intersecting the specializations
            xs, rest = split_rational_roots(_singular_locus_over_root(core, fx, fy, y, root))
            candidates.update((rx, root) for rx, _ in xs)
            if not rest.is_constant():
                unlocated.append(MultiPoly.variable(y) - MultiPoly.const(root))
    if eliminant is not None and eliminant.is_zero():
        raise NonReducedCurveError("degenerate elimination; reduce the input first")

    # line-core crossings
    for ry, _ in line_roots_y:
        xs, rest = split_rational_roots(core.substitute({y: Fraction(ry)}))
        candidates.update((rx, ry) for rx, _ in xs)
        if not rest.is_constant():
            unlocated.append(MultiPoly.variable(y) - MultiPoly.const(ry))
    for rx, _ in line_roots_x:
        ys, rest = split_rational_roots(core.substitute({x: Fraction(rx)}))
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
    elim = _gcd_many(parts)
    return elim


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
    comps = homogeneous_components(germ)
    if comps and not comps[0].is_zero():
        raise ValueError("point does not lie on the curve")
    mult = next((d for d, c in enumerate(comps) if not c.is_zero()), None)
    if mult is None:
        raise ValueError("curve vanishes identically")
    if mult == 1:
        raise ValueError("point is a smooth point, not singular")
    if mult >= 3:
        return SingularPointReport((px, py), "multiplicity_ge_3", mult)

    kind = {1: "node", 2: "cusp", 3: "tacnode"}.get(_a_index(germ, x, y), "unresolved")
    return SingularPointReport((px, py), kind, 2)


def _quadratic_data(quad: MultiPoly, x: str, y: str):
    a = b = c = Fraction(0)
    for exp, coeff in quad.terms.items():
        powers = dict(zip(quad.variables, exp))
        if powers.get(x, 0) == 2:
            a = coeff
        elif powers.get(y, 0) == 2:
            c = coeff
        else:
            b = coeff
    return a, b, c


def _a_index(germ: MultiPoly, x: str, y: str):
    """A_k index of a multiplicity-2 germ at the origin, or None if it
    takes more than three blow-ups."""
    current = germ
    for depth in range(3):
        comps = homogeneous_components(current)
        quad = comps[2] if len(comps) > 2 else MultiPoly.zero()
        a, b, c = _quadratic_data(quad, x, y)
        if b * b - 4 * a * c != 0:
            return 2 * depth + 1  # nondegenerate: node here
        # rank-one quadratic part: single (rational) tangent direction
        if a != 0:
            # tangent x = -(b/2a) y: visible in the chart (x,y) = (u v, v)
            slope = -b / (2 * a)
            total = current.substitute(
                {x: MultiPoly.variable(x) * MultiPoly.variable(y), y: MultiPoly.variable(y)}
            )
            k, strict = extract_power(total, MultiPoly.variable(y))
            center = {x: slope, y: Fraction(0)}
        else:
            # quadratic part c*y^2: tangent y = 0, chart (x,y) = (u, u v)
            total = current.substitute(
                {x: MultiPoly.variable(x), y: MultiPoly.variable(x) * MultiPoly.variable(y)}
            )
            k, strict = extract_power(total, MultiPoly.variable(x))
            center = {x: Fraction(0), y: Fraction(0)}
        if k != 2:
            return None  # not a plain double-point transform
        strict = strict.shift(center)
        comps2 = homogeneous_components(strict)
        mult2 = next((d for d, cpt in enumerate(comps2) if not cpt.is_zero()), None)
        if mult2 is None:
            return None
        if mult2 <= 1:
            # strict transform smooth over (or missing) the center: chain ends
            return 2 * (depth + 1)
        if mult2 >= 3:
            return None
        current = strict
    return None


# -- intersection multiplicity ------------------------------------------------


def intersection_multiplicity(f: MultiPoly, g: MultiPoly, point, vars) -> int:
    """Local intersection number of two curves at a rational point.

    Shears x -> x + lambda*y are tried for lambda = 0, 1, 2, ... until the
    projection is generic at the point (nonvanishing leading coefficients
    in y, and the shifted line meets the two curves only at the point of
    interest); the multiplicity is then the vanishing order of the
    y-resultant at the sheared x-coordinate.
    """
    x, y = vars
    px, py = Fraction(point[0]), Fraction(point[1])
    values = {x: px, y: py}
    if f.evaluate({v: values.get(v, 0) for v in f.variables} | values) != 0:
        raise ValueError("point is not on the first curve")
    if g.evaluate({v: values.get(v, 0) for v in g.variables} | values) != 0:
        raise ValueError("point is not on the second curve")
    common = gcd_multivariate(f, g)
    if not common.is_constant():
        cval = common.evaluate({v: values[v] for v in common.variables})
        if cval == 0:
            raise ValueError("curves share a component through the point")
        else:
            f = exact_divide(f, common)
            g = exact_divide(g, common)

    xv = MultiPoly.variable(x)
    yv = MultiPoly.variable(y)
    lam = 0
    while True:
        F = f.substitute({x: xv + lam * yv})
        G = g.substitute({x: xv + lam * yv})
        qx = px - lam * py
        if _shear_is_generic(F, G, x, y, qx, py):
            res = resultant(F, G, y)
            k, _ = extract_power(res, xv - MultiPoly.const(qx))
            return k
        lam += 1
        if lam > 64:
            raise RuntimeError("no generic shear found (unexpected)")


def _shear_is_generic(F, G, x, y, qx, qy) -> bool:
    if F.degree_in(y) < 1 or G.degree_in(y) < 1:
        return False
    for P in (F, G):
        lc = P.leading_coefficient_in(y)
        val = lc.evaluate({v: qx for v in lc.variables}) if not lc.is_constant() else lc.constant_value()
        if val == 0:
            return False
    # the line x = qx must meet the curves in no common point besides (qx, qy)
    Fline = F.substitute({x: qx})
    Gline = G.substitute({x: qx})
    h = gcd_univariate(Fline, Gline, y)
    k, rest = extract_power(h, MultiPoly.variable(y) - qy) if not h.is_constant() else (0, h)
    return h.is_constant() or (k >= 1 and rest.is_constant())


# -- smoothness certificates ---------------------------------------------------


def smoothness_certificate(f: MultiPoly, chart: AffineChart) -> SmoothnessCertificate:
    """Prove f = f_x = f_y = 0 has no solution on the chart, or exhibit one.

    A nonvanishing constant partial derivative certifies smoothness
    immediately; otherwise the resultant eliminant of the singular system
    is computed, a nonzero constant eliminant being a proof of smoothness
    (the resultant lies in the elimination ideal of the system).
    """
    x, y = chart.coords
    fx = f.derivative(x)
    fy = f.derivative(y)
    for d in (fx, fy):
        if d.is_constant() and not d.is_zero():
            return SmoothnessCertificate(True, reason="constant nonzero partial derivative")
    try:
        locus = rational_singular_points(f, chart)
    except NonReducedCurveError:
        raise
    if locus.points:
        return SmoothnessCertificate(
            False,
            witness_point=locus.points[0].point,
            reason="rational singular point",
        )
    if locus.eliminant_squarefree is not None and locus.eliminant_squarefree.total_degree() > 0:
        return SmoothnessCertificate(
            False,
            witness_eliminant=locus.eliminant_squarefree,
            reason="non-rational candidate singular locus (eliminant shown)",
        )
    return SmoothnessCertificate(True, reason="singular-system eliminant is a nonzero constant")
