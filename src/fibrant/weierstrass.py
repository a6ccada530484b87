"""Weierstrass fibrations over the projective plane and Kodaira fiber types.

A fibration is stored as its pair of defining sections: ``a`` of degree 4
and ``b`` of degree 6 in the homogeneous coordinates (A0, A1, A2), cutting
out Y^2 Z = 4 X^3 - a X Z^2 - b Z^3 in a projectivized rank-3 bundle.  The
bundle itself is never materialized: every total-space question is
answered through the section pair.

The classification of fibers over smooth points of the reduced
discriminant is Kodaira's table, keyed by the vanishing orders (L, K, N)
of (a, b, Delta) along a component.  Orders may be infinite (a section
identically zero along the component).

Over a node where two discriminant components meet, the fiber is not of
Kodaira type in general; it is classified by Miranda's collision table
(rows I+I, I+I* for even and odd multiplicative index, II+IV, II+I0*,
II+IV*, IV+I0*, III+I0*) as an explicit multiplicity-labeled dual graph,
usually a contraction of a Kodaira fiber.  The table's Kodaira column is
the type of the sum of the two types' minimal order triples.

Index bookkeeping for the I_{M1} + I_{M2}* rows: the drawn fiber has
M2 + floor(M1/2) + 1 components of multiplicity two, i.e. the dual graph
of the star type with index M2 + floor(M1/2) when M1 is even; that index
is what the pipeline reports.  The table's "corresponding Kodaira type"
column (the contraction source I_{M1+M2}*) is kept alongside.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from . import monodromy
from .planecurve import (
    AffineChart,
    NonReducedCurveError,
    PROJECTIVE_VARS,
    rational_singular_points,
)
from .poly import (
    INFINITE_ORDER,
    MultiPoly,
    exact_divide,
    extract_power,
    format_poly,
    gcd_multivariate,
    parse,
    strip_coordinate_lines,
)


class NotAnalyzableError(ValueError):
    """Input outside the scope the analysis certifies (with a diagnostic)."""


class GenericityError(NotAnalyzableError):
    """Parameter value on the excluded degeneracy locus."""


class NeedsNormalizationError(ValueError):
    """Order triple with L >= 4 and K >= 6: rescale fiber coordinates first."""


class NotInTableError(ValueError):
    """Order triple matching no row of Kodaira's table."""


# -- order triples -------------------------------------------------------------


@dataclass(frozen=True)
class OrderTriple:
    """Vanishing orders (L, K, N) of (a, b, a^3 - 27 b^2) along a divisor."""

    L: object
    K: object
    N: object

    def __post_init__(self):
        for v in (self.L, self.K, self.N):
            if not (v == INFINITE_ORDER or (isinstance(v, int) and v >= 0)):
                raise ValueError(f"bad order {v!r}")

    def as_tuple(self):
        return (self.L, self.K, self.N)

    def is_consistent(self) -> bool:
        """N >= min(3L, 2K), with equality whenever 3L != 2K."""
        three_l = self.L * 3 if self.L != INFINITE_ORDER else INFINITE_ORDER
        two_k = self.K * 2 if self.K != INFINITE_ORDER else INFINITE_ORDER
        low = min(three_l, two_k)
        if low == INFINITE_ORDER:
            return self.N == INFINITE_ORDER
        if three_l != two_k:
            return self.N == low
        return self.N >= low

    def to_json(self):
        return ["inf" if v == INFINITE_ORDER else v for v in self.as_tuple()]


def reduce_triple_mod(t: OrderTriple) -> OrderTriple:
    """Subtract (4, 6, 12) as often as L >= 4, K >= 6 and N >= 12 allow.

    Infinite orders stay infinite; three infinite orders raise ValueError.
    """
    steps = (4, 6, 12)
    finite = [v // s for v, s in zip(t.as_tuple(), steps) if v != INFINITE_ORDER]
    if not finite:
        raise ValueError("discriminant vanishes identically along the divisor")
    k = min(finite)
    return OrderTriple(
        *(v if v == INFINITE_ORDER else v - s * k for v, s in zip(t.as_tuple(), steps))
    )


# -- dual graphs ----------------------------------------------------------------


@dataclass(frozen=True)
class DualGraph:
    """Multiplicity-labeled dual graph of a degenerate fiber."""

    kind: str                 # irreducible | cycle | chain | star_chain | tree
    nodes: tuple
    edges: tuple              # pairs of node indices; repeats allowed

    @staticmethod
    def irreducible() -> "DualGraph":
        return DualGraph("irreducible", (1,), ())

    @staticmethod
    def cycle(*mults) -> "DualGraph":
        n = len(mults)
        if n == 1:
            edges = ((0, 0),)
        elif n == 2:
            edges = ((0, 1), (0, 1))
        else:
            edges = tuple((i, (i + 1) % n) for i in range(n))
        return DualGraph("cycle", tuple(mults), edges)

    @staticmethod
    def chain(*mults) -> "DualGraph":
        edges = tuple((i, i + 1) for i in range(len(mults) - 1))
        return DualGraph("chain", tuple(mults), edges)

    @staticmethod
    def star_chain(spine, left_legs=(1, 1), right_legs=(1, 1)) -> "DualGraph":
        """A chain of components with extra leaf components at the two ends."""
        nodes = list(spine)
        edges = [(i, i + 1) for i in range(len(spine) - 1)]
        for m in left_legs:
            nodes.append(m)
            edges.append((len(nodes) - 1, 0))
        for m in right_legs:
            nodes.append(m)
            edges.append((len(nodes) - 1, len(spine) - 1))
        return DualGraph("star_chain", tuple(nodes), tuple(edges))

    @staticmethod
    def tree(nodes, edges) -> "DualGraph":
        return DualGraph("tree", tuple(nodes), tuple(edges))

    def component_count(self) -> int:
        return len(self.nodes)

    def multiplicities(self) -> tuple:
        return self.nodes

    def canonical(self):
        """Isomorphism-friendly invariant: multiplicities + edge label pairs."""
        mults = tuple(sorted(self.nodes))
        edge_labels = tuple(
            sorted(tuple(sorted((self.nodes[i], self.nodes[j]))) for i, j in self.edges)
        )
        return (mults, edge_labels)

    def to_json(self):
        return {
            "kind": self.kind,
            "multiplicities": list(self.nodes),
            "edges": [list(e) for e in self.edges],
        }


# -- Kodaira types ---------------------------------------------------------------


@dataclass(frozen=True)
class KodairaType:
    """A fiber type from Kodaira's classification, e.g. I3, I2*, IV*."""

    tag: str

    def __post_init__(self):
        self._data()  # validate

    def _data(self):
        if self.tag in _FIXED_TYPES:
            return _FIXED_TYPES[self.tag]
        n = self.multiplicative_index()
        if n is not None:
            return {"graph": DualGraph.cycle(*([1] * n))}
        n = self.star_index()
        if n is not None:
            return {"graph": DualGraph.star_chain((2,) * (n + 1))}
        raise ValueError(f"unknown Kodaira tag {self.tag!r}")

    def dual_graph(self) -> DualGraph:
        return self._data()["graph"]

    def component_count(self) -> int:
        return self.dual_graph().component_count()

    def multiplicities(self) -> tuple:
        return self.dual_graph().multiplicities()

    def is_smooth(self) -> bool:
        return self.tag == "I0"

    def multiplicative_index(self):
        """n for I_n fibers, None otherwise."""
        return _tag_index(self.tag, "")

    def star_index(self):
        """n for I_n* fibers, None otherwise."""
        return _tag_index(self.tag, "*")

    def minimal_triple(self) -> OrderTriple:
        """The least orders (L, K, N) on this type's row of Kodaira's table."""
        n, row = self.multiplicative_index(), "I{}"
        if n is None:
            n, row = self.star_index(), "I{}*"
        if n is None:
            row = self.tag
        for tag, (low_l, _), (low_k, _), (low_n, _), shift in _KODAIRA_ROWS:
            if tag == row:
                return OrderTriple(low_l, low_k, low_n if n is None else n + shift)

    def to_json(self):
        return {
            "tag": self.tag,
            "components": self.component_count(),
            "multiplicities": list(self.multiplicities()),
            "dual_graph": self.dual_graph().to_json(),
        }


def _tag_index(tag: str, suffix: str):
    """n when ``tag`` is exactly f"I{n}{suffix}" for an ASCII integer n >= 0
    written without leading zeros, else None."""
    digits = tag[1:len(tag) - len(suffix)]
    if digits.isascii() and digits.isdigit() and tag == f"I{int(digits)}{suffix}":
        return int(digits)
    return None


_E6 = DualGraph.tree(
    (3, 2, 1, 2, 1, 2, 1),
    ((0, 1), (1, 2), (0, 3), (3, 4), (0, 5), (5, 6)),
)
_E7 = DualGraph.tree(
    (1, 2, 3, 4, 3, 2, 1, 2),
    ((0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (3, 7)),
)
_E8 = DualGraph.tree(
    (1, 2, 3, 4, 5, 6, 4, 2, 3),
    ((0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (6, 7), (5, 8)),
)

_FIXED_TYPES = {
    "I0": {"graph": DualGraph.irreducible()},
    "II": {"graph": DualGraph.irreducible()},
    "III": {"graph": DualGraph.chain(1, 1)},
    "IV": {"graph": DualGraph("tree", (1, 1, 1), ((0, 1), (1, 2), (0, 2)))},
    "IV*": {"graph": _E6},
    "III*": {"graph": _E7},
    "II*": {"graph": _E8},
}


# Kodaira's table, one row per fiber type: the tag, then the (least,
# greatest) orders L, K and N of the row.  "{}" in a tag stands for N
# minus the row's last entry.
_KODAIRA_ROWS = (
    ("I0", (0, INFINITE_ORDER), (0, INFINITE_ORDER), (0, 0), 0),
    ("I{}", (0, 0), (0, 0), (1, INFINITE_ORDER), 0),
    ("II", (1, INFINITE_ORDER), (1, 1), (2, 2), 0),
    ("III", (1, 1), (2, INFINITE_ORDER), (3, 3), 0),
    ("IV", (2, INFINITE_ORDER), (2, 2), (4, 4), 0),
    ("I0*", (2, INFINITE_ORDER), (3, INFINITE_ORDER), (6, 6), 0),
    ("I{}*", (2, 2), (3, 3), (7, INFINITE_ORDER), 6),
    ("IV*", (3, INFINITE_ORDER), (4, 4), (8, 8), 0),
    ("III*", (3, 3), (5, INFINITE_ORDER), (9, 9), 0),
    ("II*", (4, INFINITE_ORDER), (5, 5), (10, 10), 0),
)


def kodaira_classify(t: OrderTriple) -> KodairaType:
    """Classify an order triple by Kodaira's table.

    Triples with L >= 4 and K >= 6 are rejected with
    NeedsNormalizationError (rescale fiber coordinates first); triples
    matching no row raise NotInTableError.
    """
    L, K, N = t.as_tuple()
    if L >= 4 and K >= 6:
        raise NeedsNormalizationError(f"triple {t.as_tuple()} needs (4,6,12) reduction")
    for tag, (l0, l1), (k0, k1), (n0, n1), shift in _KODAIRA_ROWS:
        if l0 <= L <= l1 and k0 <= K <= k1 and n0 <= N <= n1:
            return KodairaType(tag.format(N - shift))
    raise NotInTableError(f"triple {t.as_tuple()} matches no Kodaira row")


def kodaira_monodromy(k: KodairaType) -> monodromy.SL2Z:
    """Conjugacy-class representative of the local monodromy."""
    tag = k.tag
    n = k.multiplicative_index()
    if n is not None:
        return monodromy.SL2Z(1, n, 0, 1)
    n = k.star_index()
    if n is not None:
        return monodromy.SL2Z(-1, -n, 0, -1)
    table = {
        "II": monodromy.SL2Z(1, 1, -1, 0),
        "III": monodromy.SL2Z(0, 1, -1, 0),
        "IV": monodromy.SL2Z(0, 1, -1, -1),
        "IV*": monodromy.SL2Z(-1, -1, 1, 0),
        "III*": monodromy.SL2Z(0, -1, 1, 0),
        "II*": monodromy.SL2Z(0, -1, 1, 1),
    }
    return table[tag]


# -- Miranda's collision table ----------------------------------------------------


class NotOnListError(ValueError):
    """Colliding pair outside the collision table: blow up further."""


@dataclass(frozen=True)
class MirandaFiber:
    """The fiber over a node where two discriminant components collide."""

    pair: tuple                  # (KodairaType, KodairaType), sorted
    dual_graph: DualGraph
    kodaira_label: str           # contraction source (table column)
    label: str                   # pipeline-facing label
    contracted: str              # description of the contracted components

    def component_count(self) -> int:
        return self.dual_graph.component_count()

    def to_json(self):
        return {
            "pair": [k.tag for k in self.pair],
            "dual_graph": self.dual_graph.to_json(),
            "kodaira_label": self.kodaira_label,
            "label": self.label,
            "contracted": self.contracted,
        }


# The rows of the table with two additive types: the dual graph of the
# fiber and what it contracts of the Kodaira fiber named in the table.
_ADDITIVE_COLLISIONS = {
    ("I0*", "II"): (DualGraph.chain(1, 2, 3), "two of the three multiplicity-(1,2) arms"),
    ("II", "IV"): (DualGraph.chain(1, 2), "3 components with multiplicity 1"),
    ("II", "IV*"): (DualGraph.chain(1, 2, 3, 4, 2), "the multiplicity-(3,4,5,6) chain segment"),
    ("I0*", "IV"): (DualGraph.chain(1, 2, 4, 2), "the multiplicity-(3,3,4,5,6) components"),
    ("I0*", "III"): (DualGraph.chain(1, 2, 3, 2, 1), "the multiplicity-(2,3,4) components"),
}


def collide(k1: KodairaType, k2: KodairaType) -> MirandaFiber:
    """Classify the fiber over a node where two component types meet.

    Symmetric in the two types; a smooth branch (I0) returns the other
    type unchanged.  Pairs outside the table raise NotOnListError, which
    signals the blow-up driver to keep modifying the base.  The table's
    Kodaira column is the type of the summed minimal order triples.
    """
    pair = tuple(sorted((k1, k2), key=lambda k: k.tag))
    tags = tuple(k.tag for k in pair)
    n1, n2 = k1.multiplicative_index(), k2.multiplicative_index()
    s1, s2 = k1.star_index(), k2.star_index()
    label = "{}"  # the table's Kodaira column unless a row names another
    if k1.is_smooth() or k2.is_smooth():
        graph = (k2 if k1.is_smooth() else k1).dual_graph()
        contracted = "none (smooth branch)"
    elif n1 is not None and n2 is not None:
        graph, contracted = DualGraph.cycle(*([1] * (n1 + n2))), "none"
    elif (n1 is not None and s2 is not None) or (n2 is not None and s1 is not None):
        m1, m2 = (n1, s2) if n1 is not None else (n2, s1)
        if m1 % 2 == 0:
            graph = DualGraph.star_chain((2,) * (m2 + m1 // 2 + 1), (1, 1), (1, 1))
            label = f"I{m2 + m1 // 2}*"
            contracted = f"{m1 // 2} components with multiplicity 2"
        else:
            graph = DualGraph.star_chain((2,) * (m2 + (m1 - 1) // 2 + 1), (1, 1), ())
            label = "{} (contracted)"
            contracted = (
                f"{(m1 - 1) // 2} components with multiplicity 2 and "
                "2 components with multiplicity 1"
            )
    elif tags in _ADDITIVE_COLLISIONS:
        graph, contracted = _ADDITIVE_COLLISIONS[tags]
    else:
        raise NotOnListError(f"collision {tags} is not on the list")
    triples = (k1.minimal_triple().as_tuple(), k2.minimal_triple().as_tuple())
    source = kodaira_classify(OrderTriple(*map(sum, zip(*triples)))).tag
    return MirandaFiber(pair, graph, source, label.format(source), contracted)


# -- the fibration datatype -------------------------------------------------------


def check_genericity(alpha: Fraction):
    """Reject parameter values where the branch-point analysis degenerates.

    The four transverse contact points of the degree-4 and degree-6
    divisors collapse exactly on the vanishing locus of
    -3^10 a^4 (a^2+16)^3 (a+4)^3 (a-4)^3, i.e. at a in {0, 4, -4} over Q.
    """
    alpha = Fraction(alpha)
    if alpha in (0, 4, -4):
        raise GenericityError(
            f"alpha = {alpha} lies on the excluded locus a^4 (a+4)^3 (a-4)^3 = 0; "
            "the contact-point analysis degenerates there"
        )
    return alpha


@dataclass(frozen=True)
class TotalSpaceSingularity:
    fiber_point: tuple          # (X : Y : Z), rational entries
    base_point: tuple | None    # (A0 : A1 : A2) for isolated points
    base_curve: str | None = None   # equation text for non-isolated loci

    def kind(self) -> str:
        return "curve" if self.base_curve is not None else "isolated"

    def to_json(self):
        out = {
            "kind": self.kind(),
            "fiber_point": [str(c) for c in self.fiber_point],
        }
        if self.base_point is not None:
            out["base_point"] = [str(c) for c in self.base_point]
        if self.base_curve is not None:
            out["base_curve"] = self.base_curve
        return out


class WeierstrassFibration:
    """Sections (a, b) of degrees (4, 6) over the plane, with Delta not 0."""

    def __init__(self, a: MultiPoly, b: MultiPoly, alpha=None):
        if not a.is_zero() and (not a.is_homogeneous() or a.total_degree() != 4):
            raise ValueError("a must be homogeneous of degree 4 (or zero)")
        if not b.is_zero() and (not b.is_homogeneous() or b.total_degree() != 6):
            raise ValueError("b must be homogeneous of degree 6 (or zero)")
        bad = set(a.variables) | set(b.variables)
        if not bad <= set(PROJECTIVE_VARS):
            raise ValueError(f"sections must live in {PROJECTIVE_VARS}")
        delta = a**3 - 27 * b**2
        if delta.is_zero():
            raise ValueError("discriminant a^3 - 27 b^2 vanishes identically")
        self.a = a
        self.b = b
        self.alpha = None if alpha is None else Fraction(alpha)
        self._delta = delta

    @staticmethod
    def from_strings(a_text: str, b_text: str, alpha=None) -> "WeierstrassFibration":
        params = {} if alpha is None else {"alpha": Fraction(alpha)}
        return WeierstrassFibration(parse(a_text, params), parse(b_text, params), alpha)

    def discriminant(self) -> MultiPoly:
        """a^3 - 27 b^2, homogeneous of degree 12."""
        return self._delta

    def j_invariant(self):
        """Functional invariant a^3 / Delta as unreduced and reduced pairs."""
        num = self.a**3
        den = self.discriminant()
        g = _gcd_homogeneous(num, den)
        reduced = (exact_divide(num, g), exact_divide(den, g))
        return {"unreduced": (num, den), "reduced": reduced, "gcd": g}

    # -- total-space singularities (fiber equation Y^2 Z = 4X^3 - aXZ^2 - bZ^3) --

    def total_space_singularities(self, discriminant_singular_points) -> list:
        """Singular points of the total space, each with Y = 0 and Z != 0.

        Two sources: points with a = b = 0 where the degree-6 divisor is
        singular carry the singular point (0:0:1); singular points of the
        discriminant away from both section divisors carry (-3b : 0 : 2a).
        The latter are taken from ``discriminant_singular_points``, the
        rational points ``blowup.regularize`` certified (projective triples).
        Non-isolated loci along shared components are reported as curve
        markers (detected along the coordinate lines).
        """
        results = []
        marker_lines = []
        # curve markers: coordinate lines contained in A along which B is singular
        for i, var in enumerate(PROJECTIVE_VARS):
            line = MultiPoly.variable(var)
            la, _ = extract_power(self.a, line)
            lb, _ = extract_power(self.b, line)
            if la >= 1 and lb >= 2:
                marker_lines.append(i)
                results.append(
                    TotalSpaceSingularity(
                        fiber_point=(Fraction(0), Fraction(0), Fraction(1)),
                        base_point=None,
                        base_curve=f"{var} = 0",
                    )
                )

        def on_marker(pt):
            return any(pt[i] == 0 for i in marker_lines)

        # isolated points with fiber point (-3b : 0 : 2a): Sing(D) away from A and B
        for pt in discriminant_singular_points:
            if on_marker(pt):
                continue
            aval = self.a.evaluate(dict(zip(PROJECTIVE_VARS, pt)))
            bval = self.b.evaluate(dict(zip(PROJECTIVE_VARS, pt)))
            if aval == 0 or bval == 0:
                continue
            results.append(
                TotalSpaceSingularity(
                    fiber_point=(Fraction(-3) * bval / (2 * aval), Fraction(0), Fraction(1)),
                    base_point=pt,
                )
            )
        # isolated points with fiber point (0:0:1): Sing(B) meeting A
        for pt in self._rational_b_singularities():
            if on_marker(pt):
                continue
            aval = self.a.evaluate(dict(zip(PROJECTIVE_VARS, pt)))
            if aval != 0:
                continue
            results.append(
                TotalSpaceSingularity(
                    fiber_point=(Fraction(0), Fraction(0), Fraction(1)),
                    base_point=pt,
                )
            )
        return results

    def reduced_discriminant(self):
        """(line factors with multiplicity, residual curve) of Delta."""
        orders, residual = strip_coordinate_lines(self.discriminant())
        return list(orders.items()), residual

    def _rational_b_singularities(self):
        if self.b.is_zero():
            return []
        orders, reduced = strip_coordinate_lines(self.b)
        for var in orders:
            reduced = reduced * MultiPoly.variable(var)
        try:
            points, eliminants = _projective_rational_singular_points(reduced)
        except NonReducedCurveError as exc:
            raise NotAnalyzableError(
                "the degree-6 section has a repeated non-linear factor; "
                f"its singular locus is not certified: {exc}"
            ) from exc
        if eliminants:
            raise NotAnalyzableError(
                "the degree-6 section may have singular points that are not rational "
                f"(eliminant {format_poly(eliminants[0])}); its singular locus is not certified"
            )
        return points


def _projective_rational_singular_points(curve: MultiPoly):
    """Rational singular points of a reduced plane projective curve, and
    the eliminants the charts leave for candidates that are not rational."""
    seen = set()
    points = []
    eliminants = []
    for idx in range(3):
        chart = AffineChart.standard(idx)
        affine = chart.dehomogenize(curve)
        if affine.is_constant():
            continue
        locus = rational_singular_points(affine, chart)
        if locus.eliminant_squarefree is not None:
            eliminants.append(locus.eliminant_squarefree)
        for rep in locus.points:
            proj = chart.to_projective(rep.point)
            key = _normalize_projective(proj)
            if key in seen:
                continue
            seen.add(key)
            points.append(key)
    return points, eliminants


def _normalize_projective(pt):
    for c in pt:
        if c != 0:
            return tuple(Fraction(x) / Fraction(c) for x in pt)
    raise ValueError("projective point cannot be zero")


# -- orders along components and condition-(C) normalization ----------------------


def order_triple_along(a: MultiPoly, b: MultiPoly, component: MultiPoly) -> OrderTriple:
    """Vanishing orders of (a, b, a^3 - 27b^2) along an irreducible component."""
    la, _ = extract_power(a, component)
    lb, _ = extract_power(b, component)
    ln, _ = extract_power(a**3 - 27 * b**2, component)
    return OrderTriple(la, lb, ln)


def normalize_condition_C(a: MultiPoly, b: MultiPoly, var: str):
    """Divide out u^(4t) from a and u^(6t) from b for the maximal t.

    Enforces the minimality condition along the coordinate u: afterwards
    no positive power u^4 divides a jointly with u^6 dividing b.  Returns
    (a', b', t).
    """
    u = MultiPoly.variable(var)
    ka, _ = extract_power(a, u)
    kb, _ = extract_power(b, u)
    if ka == INFINITE_ORDER and kb == INFINITE_ORDER:
        raise ValueError("both sections vanish identically")
    t_a = ka // 4 if ka != INFINITE_ORDER else INFINITE_ORDER
    t_b = kb // 6 if kb != INFINITE_ORDER else INFINITE_ORDER
    t = min(t_a, t_b)
    if t == 0:
        return a, b, 0
    a2 = a if a.is_zero() else exact_divide(a, u ** (4 * t))
    b2 = b if b.is_zero() else exact_divide(b, u ** (6 * t))
    return a2, b2, t


def _gcd_homogeneous(p: MultiPoly, q: MultiPoly) -> MultiPoly:
    """gcd of two homogeneous polynomials in the plane coordinates."""
    if p.is_zero():
        return q
    if q.is_zero():
        return p
    result = MultiPoly.const(1)
    orders_p, p = strip_coordinate_lines(p)
    orders_q, q = strip_coordinate_lines(q)
    for var, k in orders_p.items():
        if var in orders_q:
            result = result * MultiPoly.variable(var) ** min(k, orders_q[var])
    chart = AffineChart(0, ("x1", "x2"))
    pa = chart.dehomogenize(p)
    qa = chart.dehomogenize(q)
    g = gcd_multivariate(pa, qa)
    if not g.is_constant():
        result = result * chart.homogenize(g, g.total_degree())
    return result
