"""Weierstrass fibrations over the projective plane and Kodaira fiber types.

A fibration is stored as its pair of defining sections: ``a`` of degree 4
and ``b`` of degree 6 in the homogeneous coordinates (A0, A1, A2), cutting
out Y^2 Z = 4 X^3 - a X Z^2 - b Z^3 in a projectivized rank-3 bundle.  The
bundle itself is never materialized: every total-space question is
answered through the section pair.  Its singular points are read off
the sections at what ``blowup.regularize`` certified, with no elimination.

The classification of fibers over smooth points of the reduced
discriminant is Kodaira's table, keyed by the vanishing orders (L, K, N)
of (a, b, Delta) along a component.  Orders may be infinite (a section
identically zero along the component).  Each row of the table carries a
type's orders, component count, dual graph and local monodromy, the last
three as functions of n in the rows I_n and I_n*.

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

import functools
import sys
from collections import namedtuple
from fractions import Fraction

from .monodromy import SL2Z
from .planecurve import PROJECTIVE_VARS
from .poly import (
    INFINITE_ORDER,
    MultiPoly,
    extract_power,
    format_poly,
    strip_coordinate_lines,
)
from .record import JsonDict, JsonList, Value


# The most values each lookup of Kodaira and collision data keeps for
# reuse in one process; the whole Lagrange family uses a few dozen.
CACHE_SIZE = 256


class NotAnalyzableError(ValueError):
    """Input outside the scope the analysis certifies (with a diagnostic)."""


class GenericityError(NotAnalyzableError):
    """Parameter value on the excluded degeneracy locus."""


class NeedsNormalizationError(ValueError):
    """Order triple with L >= 4 and K >= 6: rescale fiber coordinates first."""


class NotInTableError(ValueError):
    """Order triple matching no row of Kodaira's table."""


# -- order triples -------------------------------------------------------------


class OrderTriple(Value):
    """Vanishing orders (L, K, N) of (a, b, a^3 - 27 b^2) along a divisor."""

    __slots__ = ("L", "K", "N")

    def __init__(self, L, K, N):
        for v in (L, K, N):
            if not (v == INFINITE_ORDER or (isinstance(v, int) and v >= 0)):
                raise ValueError(f"bad order {quote_tag(repr(v))}")
        self._store(L, K, N)

    def as_tuple(self):
        return (self.L, self.K, self.N)

    def is_consistent(self) -> bool:
        """N >= min(3L, 2K), with equality whenever 3L != 2K."""
        three_l, two_k = 3 * self.L, 2 * self.K  # an infinite order stays infinite
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


class DualGraph(Value):
    """Multiplicity-labeled dual graph of a degenerate fiber, of ``kind`` irreducible,
    cycle, chain, star_chain or tree; ``edges`` are node index pairs, repeats allowed."""

    __slots__ = ("kind", "nodes", "edges")

    def __init__(self, kind: str, nodes: tuple, edges: tuple):
        self._store(kind, nodes, edges)

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

    @functools.lru_cache(maxsize=CACHE_SIZE)
    def to_json(self):
        """Built once per process for each graph, and read-only."""
        return JsonDict({
            "kind": self.kind,
            "multiplicities": JsonList(self.nodes),
            "edges": JsonList([JsonList(e) for e in self.edges]),
        })


# -- Kodaira types ---------------------------------------------------------------


class KodairaType(Value):
    """A fiber type from Kodaira's classification, e.g. I3, I2*, IV*,
    validated from the tag alone: its dual graph is built on request."""

    __slots__ = ("tag",)

    def __init__(self, tag: str):
        _kodaira_row(tag)  # an unknown tag is a ValueError
        self._store(tag)

    def dual_graph(self) -> DualGraph:
        return _column(self.tag, "graph")

    def component_count(self) -> int:
        """The dual graph's component count; the rows I_n and I_n* build no graph."""
        row, n = _kodaira_row(self.tag)
        return row.graph.component_count() if n is None else row.components(n)

    def is_smooth(self) -> bool:
        return self.tag == "I0"

    def minimal_triple(self) -> OrderTriple:
        """The least orders (L, K, N) on this type's row of Kodaira's table."""
        row, n = _kodaira_row(self.tag)
        return OrderTriple(row.L[0], row.K[0], row.N[0] if n is None else n + row.shift)

    @functools.lru_cache(maxsize=CACHE_SIZE)
    def to_json(self):
        """Built once per process for each type, and read-only."""
        graph = self.dual_graph()
        return JsonDict({
            "tag": self.tag,
            "components": graph.component_count(),
            "multiplicities": JsonList(graph.multiplicities()),
            "dual_graph": graph.to_json(),
        })


def quote_tag(tag: str) -> str:
    """``tag`` as a message quotes it: verbatim when its repr takes at most
    22 bytes, as 20 printable ASCII characters do, else the longest of its
    first 12 characters whose repr takes at most 14 bytes, and "..."."""
    if len(tag) <= 20 and len(repr(tag).encode()) <= 22:
        return tag
    return next(f"{tag[:k]}..." for k in range(12, -1, -1) if len(repr(tag[:k]).encode()) <= 14)


def _tag_index(tag: str, suffix: str):
    """n when ``tag`` is exactly f"I{n}{suffix}" for an ASCII integer n >= 0
    written without leading zeros, else None.  An index of more digits
    than CPython converts to an int by default is a ValueError."""
    digits = tag[1:len(tag) - len(suffix)]
    if not (tag[:1] == "I" and tag.endswith(suffix) and digits.isascii() and digits.isdigit()):
        return None
    if len(digits) > sys.int_info.default_max_str_digits:
        raise ValueError(
            f"Kodaira tag {quote_tag(tag)} has an index of {len(digits)} digits, too long"
        )
    return int(digits) if tag == f"I{int(digits)}{suffix}" else None


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

_Row = namedtuple("_Row", "tag L K N shift graph monodromy components", defaults=(None,))
_INF = INFINITE_ORDER
_STAR = _Row("I{}*", (2, 2), (3, 3), (7, _INF), 6, lambda n: DualGraph.star_chain((2,) * (n + 1)),
             lambda n: SL2Z(-1, -n, 0, -1), lambda n: n + 5)

# Kodaira's table (Miranda, Table I.4.1), one row per fiber type: the tag,
# the (least, greatest) orders L, K and N, the shift, the dual graph and the
# local monodromy up to conjugacy.  In the rows I_n and I_n*, "{}" in the
# tag stands for n = N minus the shift, and the graph, monodromy and
# component count are functions of n; the other rows count off their graphs.
_KODAIRA_ROWS = (
    _Row("I0", (0, _INF), (0, _INF), (0, 0), 0, DualGraph.irreducible(), SL2Z(1, 0, 0, 1)),
    _Row("I{}", (0, 0), (0, 0), (1, _INF), 0,
         lambda n: DualGraph.cycle(*([1] * n)), lambda n: SL2Z(1, n, 0, 1), lambda n: n),
    _Row("II", (1, _INF), (1, 1), (2, 2), 0, DualGraph.irreducible(), SL2Z(1, 1, -1, 0)),
    _Row("III", (1, 1), (2, _INF), (3, 3), 0, DualGraph.chain(1, 1), SL2Z(0, 1, -1, 0)),
    _Row("IV", (2, _INF), (2, 2), (4, 4), 0,
         DualGraph.tree((1, 1, 1), ((0, 1), (1, 2), (0, 2))), SL2Z(0, 1, -1, -1)),
    _Row("I0*", (2, _INF), (3, _INF), (6, 6), 0, _STAR.graph(0), _STAR.monodromy(0)),
    _STAR,
    _Row("IV*", (3, _INF), (4, 4), (8, 8), 0, _E6, SL2Z(-1, -1, 1, 0)),
    _Row("III*", (3, 3), (5, _INF), (9, 9), 0, _E7, SL2Z(0, -1, 1, 0)),
    _Row("II*", (4, _INF), (5, 5), (10, 10), 0, _E8, SL2Z(0, -1, 1, 1)),
)


def _kodaira_row(tag: str):
    """(row, n) for ``tag``: the row of Kodaira's table of that one type and
    None, or the row I_n or I_n* and n.  The rows of one type are tried
    first, so that I0 is the smooth fiber, not the empty cycle I_0, and
    I0* keeps its row.  An unknown tag is a ValueError."""
    for row in _KODAIRA_ROWS:
        if row.tag == tag and "{}" not in tag:
            return row, None
    for row in _KODAIRA_ROWS:
        if "{}" in row.tag and (n := _tag_index(tag, row.tag[3:])) is not None:
            return row, n
    raise ValueError(f"unknown Kodaira tag {quote_tag(tag)!r}")


def _column(tag: str, name: str):
    """The entry ``name`` of the row of ``tag``, at n for I_n and I_n*."""
    row, n = _kodaira_row(tag)
    entry = getattr(row, name)
    return entry if n is None else entry(n)


@functools.lru_cache(maxsize=CACHE_SIZE)
def kodaira_classify(t: OrderTriple) -> KodairaType:
    """Classify an order triple by Kodaira's table.

    Triples with L >= 4 and K >= 6 are rejected with
    NeedsNormalizationError (rescale fiber coordinates first); triples
    matching no row raise NotInTableError.  A type is looked up once per
    process for each triple; a refusal is not kept, so it is raised again
    on every call.
    """
    L, K, N = t.as_tuple()
    if L >= 4 and K >= 6:
        raise NeedsNormalizationError(f"triple {t.as_tuple()} needs (4,6,12) reduction")
    for tag, (l0, l1), (k0, k1), (n0, n1), shift, *_ in _KODAIRA_ROWS:
        if l0 <= L <= l1 and k0 <= K <= k1 and n0 <= N <= n1:
            return KodairaType(tag.format(N - shift))
    raise NotInTableError(f"triple {t.as_tuple()} matches no Kodaira row")


def kodaira_monodromy(k: KodairaType) -> SL2Z:
    """Conjugacy-class representative of the local monodromy."""
    return _column(k.tag, "monodromy")


# -- Miranda's collision table ----------------------------------------------------


class NotOnListError(ValueError):
    """Colliding pair outside the collision table: blow up further."""


class MirandaFiber(Value):
    """The fiber over a node where two discriminant components collide: the
    sorted ``pair`` of Kodaira types, the dual graph, the contraction source
    (the table's column), the pipeline-facing label and what is contracted."""

    __slots__ = ("pair", "dual_graph", "kodaira_label", "label", "contracted")

    def __init__(self, pair, dual_graph, kodaira_label, label, contracted):
        self._store(pair, dual_graph, kodaira_label, label, contracted)

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


@functools.lru_cache(maxsize=CACHE_SIZE)
def collide(k1: KodairaType, k2: KodairaType) -> MirandaFiber:
    """Classify the fiber over a node where two component types meet.

    Symmetric in the two types; a smooth branch (I0) returns the other
    type unchanged.  Pairs outside the table raise NotOnListError, which
    signals the blow-up driver to keep modifying the base.  The table's
    Kodaira column is the type of the summed minimal order triples.  A
    fiber is built once per process for each ordered pair of types; a
    refusal is not kept, so it is raised again on every call.
    """
    pair = tuple(sorted((k1, k2), key=lambda k: k.tag))
    tags = tuple(k.tag for k in pair)
    n1, n2 = _tag_index(k1.tag, ""), _tag_index(k2.tag, "")  # I_n
    s1, s2 = _tag_index(k1.tag, "*"), _tag_index(k2.tag, "*")  # I_n*, I0* among them
    label = "{}"  # the table's Kodaira column unless a row names another
    if k1.is_smooth() or k2.is_smooth():
        graph, contracted = (k2 if k1.is_smooth() else k1).dual_graph(), "none (smooth branch)"
    elif n1 is not None and n2 is not None:
        graph, contracted = KodairaType(f"I{n1 + n2}").dual_graph(), "none"
    elif (n1 is not None and s2 is not None) or (n2 is not None and s1 is not None):
        m1, m2 = (n1, s2) if n1 is not None else (n2, s1)
        if m1 % 2 == 0:
            label = f"I{m2 + m1 // 2}*"
            graph = KodairaType(label).dual_graph()
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
    divisors of the Lagrange family lie over the roots of their contact
    eliminant E = 3 a2^4 - alpha^2 a2^3 + 72 a2^2 - 108 alpha^2 a2
    + 27 alpha^4 + 432, and collapse exactly on the vanishing locus of
    disc_{a2}(E) = -3^9 alpha^4 (alpha-4)^3 (alpha+4)^3 (alpha^2+16)^3,
    i.e. at alpha in {0, 4, -4} over Q.  A node of the residual curve,
    at (a1, a2) = (-+alpha, alpha^2/4 -+ 2), meets a contact point only
    there or where alpha^2 = 48, which has no rational point.
    """
    alpha = Fraction(alpha)
    if alpha in (0, 4, -4):
        raise GenericityError(
            f"alpha = {alpha} lies on the excluded locus a^4 (a+4)^3 (a-4)^3 = 0; "
            "the contact-point analysis degenerates there"
        )
    return alpha


class TotalSpaceSingularity(Value):
    """A singular point (X : Y : Z) of the total space over the base point
    (A0 : A1 : A2) if isolated, else along the curve ``base_curve``, the
    text "C = 0" of a discriminant component C; a curve's fiber point is
    always (0:0:1)."""

    __slots__ = ("fiber_point", "base_point", "base_curve")

    def __init__(self, fiber_point: tuple, base_point: tuple | None, base_curve=None):
        self._store(fiber_point, base_point, base_curve)

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

    def __init__(self, a: MultiPoly, b: MultiPoly):
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
        self._delta = delta

    def discriminant(self) -> MultiPoly:
        """a^3 - 27 b^2, homogeneous of degree 12."""
        return self._delta

    # -- total-space singularities (fiber equation Y^2 Z = 4X^3 - aXZ^2 - bZ^3) --

    def total_space_singularities(self, mod) -> list:
        """Singular points of the total space, each with Y = 0 and Z != 0,
        read off ``mod``, the ``BaseModification`` that ``blowup.regularize``
        certified for this fibration, with no elimination.

        Over a base point p the total space is singular exactly where the
        cubic 4X^3 - aX - b has a double root X with X grad a + grad b = 0.
        If a(p) != 0, that means grad Delta(p) = 0, with X = -3b/2a.  If
        a(p) = 0, it means X = 0 and grad b(p) = 0; then Delta has
        multiplicity >= 3 at p, so p is singular on the reduced discriminant
        or lies on a component with N >= 2.  Hence four rules:

        1. every component with L >= 1 and K >= 2 is a curve of singular
           points with fiber point (0:0:1);
        2. a component with L = 0 and N >= 2 (I_n) carries a curve whose
           fiber point moves: NotAnalyzableError;
        3. each certified rational singular point of the reduced
           discriminant off the curves of rule 1 gives (-3b/2a : 0 : 1)
           where a != 0, and (0:0:1) where a = 0 and the three partials of
           b vanish;
        4. a crossing that is not rational (a node collision with no point)
           on no curve of rule 1 is NotAnalyzableError: the total space is
           singular there wherever a != 0, and a record lists no such point.

        The contact points that are not rational are transverse zeros of a
        and b, where grad b != 0, so the total space is smooth over them.
        """
        origin = (Fraction(0), Fraction(0), Fraction(1))
        curves, results = {}, []  # the curves of rule 1 by component name
        for d in mod.component_divisors:
            L, K, N = d.triple.as_tuple()
            if L >= 1 and K >= 2:
                curves[d.name] = mod.equations[d.name]
                base_curve = f"{format_poly(curves[d.name])} = 0"
                results.append(TotalSpaceSingularity(origin, None, base_curve))
            elif L == 0 and N >= 2:
                raise NotAnalyzableError(
                    f"the total space is singular along the {d.kodaira.tag} component "
                    f"{d.name} with a moving fiber point; not certified"
                )
        for c in mod.node_collisions:
            if c.point is None and curves.keys().isdisjoint(c.pair):
                raise NotAnalyzableError(
                    f"the total space may be singular over the crossings of {c.pair[0]} "
                    f"and {c.pair[1]}, which are not rational; not certified"
                )
        for pt in mod.singular_points:
            at = dict(zip(PROJECTIVE_VARS, pt))
            if any(curve.evaluate(at) == 0 for curve in curves.values()):
                continue
            aval, bval = self.a.evaluate(at), self.b.evaluate(at)
            if aval != 0:
                fiber_point = (Fraction(-3) * bval / (2 * aval), Fraction(0), Fraction(1))
                results.append(TotalSpaceSingularity(fiber_point, pt))
            elif all(self.b.derivative(var).evaluate(at) == 0 for var in PROJECTIVE_VARS):
                results.append(TotalSpaceSingularity(origin, pt))
        return results

    def reduced_discriminant(self):
        """(line factors with multiplicity, residual curve) of Delta."""
        orders, residual = strip_coordinate_lines(self.discriminant())
        return list(orders.items()), residual


# -- orders along components and condition-(C) normalization ----------------------


def order_triple_along(
    a: MultiPoly, b: MultiPoly, delta: MultiPoly, component: MultiPoly
) -> OrderTriple:
    """Vanishing orders of (a, b, delta) along an irreducible component,
    where delta is the discriminant a^3 - 27b^2 the caller already holds."""
    la, _ = extract_power(a, component)
    lb, _ = extract_power(b, component)
    ln, _ = extract_power(delta, component)
    return OrderTriple(la, lb, ln)


def normalize_condition_C(a: MultiPoly, b: MultiPoly, var: str):
    """Divide out u^(4t) from a and u^(6t) from b for the maximal t.

    Enforces the minimality condition along the coordinate u: afterwards
    no positive power u^4 divides a jointly with u^6 dividing b.  Orders
    are least exponents, the division an exponent shift; returns (a', b', t).
    """
    orders = [(a.order_in(var), 4), (b.order_in(var), 6)]
    if all(k == INFINITE_ORDER for k, _ in orders):
        raise ValueError("both sections vanish identically")
    t = min(k // d for k, d in orders if k != INFINITE_ORDER)
    return a.divide_by_power(var, 4 * t), b.divide_by_power(var, 6 * t), t
