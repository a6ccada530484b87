from fractions import Fraction as F

import copy
import functools
import json
import pickle

import pytest
from conftest import (
    from_sympy,
    j_invariant,
    kodaira_classify_oracle,
    parse,
    projective_rational_singular_points,
    reduce_triple_mod_oracle,
    to_sympy,
)
from hypothesis import given, settings, strategies as st

from fibrant import weierstrass
from fibrant.blowup import BaseModification, CollisionRecord, DivisorRecord, regularize
from fibrant.lagrange import build_global_sections
from fibrant.monodromy import SL2Z
from fibrant.poly import (
    INFINITE_ORDER,
    MultiPoly,
    equal_up_to_unit,
    extract_power,
    gcd_multivariate,
    radical,
    strip_coordinate_lines,
)
from fibrant.weierstrass import (
    GenericityError,
    KodairaType,
    NeedsNormalizationError,
    NotAnalyzableError,
    NotInTableError,
    NotOnListError,
    OrderTriple,
    WeierstrassFibration,
    check_genericity,
    collide,
    kodaira_classify,
    kodaira_monodromy,
    normalize_condition_C,
    order_triple_along,
    quote_tag,
    reduce_triple_mod,
)

A0 = MultiPoly.variable("A0")
A1 = MultiPoly.variable("A1")
A2 = MultiPoly.variable("A2")


class TestDiscriminant:
    def test_lagrange_line_power(self, lagrange_fibration):
        delta = lagrange_fibration.discriminant()
        assert delta.is_homogeneous() and delta.total_degree() == 12
        k, rest = extract_power(delta, A0)
        assert k == 7 and rest.total_degree() == 5

    def test_zero_b(self):
        fib = WeierstrassFibration(A0**4, MultiPoly.zero())
        assert fib.discriminant() == A0**12

    def test_identically_zero_rejected(self):
        # a^3 = 27 b^2 for a = 3 t^2, b = (1/\sqrt27)... use a=0, b=0
        with pytest.raises(ValueError):
            WeierstrassFibration(MultiPoly.zero(), MultiPoly.zero())


class TestJInvariant:
    def test_a_zero(self):
        fib = WeierstrassFibration(MultiPoly.zero(), A0**6)
        j = j_invariant(fib)
        assert j["unreduced"][0].is_zero()  # J = 0

    def test_b_zero_means_j_one(self):
        fib = WeierstrassFibration(A0**4, MultiPoly.zero())
        num, den = j_invariant(fib)["unreduced"]
        assert num == den  # J = 1

    def test_pole_on_discriminant(self):
        # local invariant pair (a^3, a^3 - 27 b^2) at a discriminant point
        num = parse("s1^3").evaluate({"s1": F(3)})
        den = parse("s1^3 - 27*s2^2").evaluate({"s1": F(3), "s2": F(1)})
        assert num == 27 and den == 0  # pole of J

    def test_lagrange_reduction(self, lagrange_fibration):
        j = j_invariant(lagrange_fibration)
        assert j["gcd"] == A0**6
        num, den = j["reduced"]
        assert num.total_degree() == 6 and den.total_degree() == 6


class TestTotalSpaceSingularities:
    def test_lagrange_alpha1(self, lagrange_fibration):
        sings = lagrange_fibration.total_space_singularities(regularize(lagrange_fibration))
        isolated = {
            (s.fiber_point[0], tuple(s.base_point))
            for s in sings
            if s.kind() == "isolated"
        }
        assert isolated == {
            (F(5, 16), (F(1), F(1), F(9, 4))),
            (F(-17, 48), (F(1), F(-1), F(-7, 4))),
        }
        curves = [s for s in sings if s.kind() == "curve"]
        assert len(curves) == 1
        assert curves[0].base_curve == "A0 = 0"
        assert tuple(curves[0].fiber_point) == (F(0), F(0), F(1))
        assert all(
            singular_over(lagrange_fibration, s.base_point, s.fiber_point)
            for s in sings if s.kind() == "isolated"
        )

    def test_fiber_points_have_y_zero_z_nonzero(self, lagrange_fibration):
        for s in lagrange_fibration.total_space_singularities(regularize(lagrange_fibration)):
            assert s.fiber_point[1] == 0 and s.fiber_point[2] != 0

    def test_smooth_pair_singular_along_the_iii_curve(self):
        # smooth quartic section, zero degree-6 section: the discriminant is
        # a^3, one III component, along which X = Y = 0 is singular
        fib = WeierstrassFibration(A0**4 + A1**4 + A2**4, MultiPoly.zero())
        (curve,) = fib.total_space_singularities(regularize(fib))
        assert curve.to_json() == {
            "kind": "curve", "fiber_point": ["0", "0", "1"], "base_curve": "A0^4 + A1^4 + A2^4 = 0",
        }
        jacobian = total_space_jacobian(fib, curve.fiber_point)
        common = functools.reduce(gcd_multivariate, [p for p in jacobian if not p.is_zero()])
        assert equal_up_to_unit(common, parse(curve.base_curve.removesuffix(" = 0")))

    def test_nonrational_singularities_of_b_are_not_dropped(self):
        # A2 = 0 meets the conic factor of b at (1 : +-sqrt(2) : 0), where
        # a vanishes too: the total space is singular there, and the
        # modification a report needs is refused
        fib = WeierstrassFibration(
            parse("(A1^2 - 2*A0^2)*(A0^2 + A1*A2 + A2^2)"), parse("(A1^2 - 2*A0^2)*A2^4")
        )
        with pytest.raises(NotAnalyzableError, match="not certified"):
            regularize(fib)

    @pytest.mark.parametrize("alpha", [
        F(1), F(7, 3), F(-5, 9), F(101, 13), F(12345, 678), F(1000003, 999983),
        F(19, 2), F(-9, 8), F(1, 2), F(5, 6), F(-2, 7), F(9, 4),
    ])
    def test_lagrange_sing_b_matches_three_chart_oracle(self, alpha):
        # the premise of rule 3: every singular point of b where a vanishes
        # lies on the curve A0 = 0 or among the certified singular points
        fib = build_global_sections(alpha)
        oracle, eliminants = projective_rational_singular_points(_reduced_b(fib))
        assert eliminants == [] and (0, 1, 0) in oracle
        singular_points = regularize(fib).singular_points
        for pt in oracle:
            if fib.a.evaluate(dict(zip(VARS, pt))) == 0:
                assert pt[0] == 0 or pt in singular_points

    def test_sing_b_off_a_marker_line(self):
        # b = A1^3 C for a nodal cubic C with its node at (0:1:0), where a
        # vanishes, and rational crossings with the line A1 = 0
        fib = WeierstrassFibration(A1 * A0**3, A1**3 * parse("A1*(A0^2 - A2^2) + A0*A2*(A0 + 2*A2)"))
        with pytest.raises(NotAnalyzableError, match="singular on the line A0 = 0"):
            regularize(fib)

    def test_nonrational_sing_b_on_a_marker_line_refused(self):
        # C also meets the line A1 = 0 where A0^2 - A0 A2 + A2^2 = 0
        fib = WeierstrassFibration(A1 * A0**3, A1**3 * parse("A1*(A0^2 - A2^2) + A0^3 + A2^3"))
        with pytest.raises(NotAnalyzableError, match="singular on the line A0 = 0"):
            regularize(fib)

    # Hand-built modifications, one per rule of the method's docstring.

    def test_rule_1_components_with_l_1_and_k_2_are_curves(self):
        # a III conic C: a = C A0^2, b = C^2 A0^2; a point of C is no
        # isolated singular point, though a, b and grad b vanish there
        conic = parse("A0^2 + A1^2 - A2^2")
        fib = WeierstrassFibration(conic * A0**2, conic**2 * A0**2)
        mod = _modification(fib, {"Q~": conic}, singular_points=[(F(1), F(0), F(1))])
        assert mod.component_divisors[0].kodaira.tag == "III"
        assert [s.to_json() for s in fib.total_space_singularities(mod)] == [
            {"kind": "curve", "fiber_point": ["0", "0", "1"], "base_curve": "A0^2 + A1^2 - A2^2 = 0"},
        ]
        jacobian = total_space_jacobian(fib, (0, 0, 1))
        common = functools.reduce(gcd_multivariate, [p for p in jacobian if not p.is_zero()])
        assert equal_up_to_unit(gcd_multivariate(common, conic), conic)

    def test_rule_2_an_i_n_component_is_refused(self):
        # a = 3 A0^4, b = A0^6 + C^3: an I3 conic C, over which the double
        # root X = -3b/2a of the cubic is singular and is not (0:0:1)
        conic = parse("A1^2 - A0*A2")
        fib = WeierstrassFibration(3 * A0**4, A0**6 + conic**3)
        mod = _modification(fib, {"Q~": conic})
        assert mod.component_divisors[0].kodaira.tag == "I3"
        with pytest.raises(NotAnalyzableError, match="I3 component Q~ with a moving fiber point"):
            fib.total_space_singularities(mod)
        for pt in [(1, 0, 0), (1, 1, 1), (1, 2, 4)]:
            assert singular_over(fib, pt, (F(-1, 2), 0, 1))
            assert not singular_over(fib, pt, (0, 0, 1))

    def test_rule_3_points_read_off_the_sections(self):
        # at (0:0:1) a != 0 and grad Delta = 0; at (1:0:0) a = 0 and grad b
        # = 0; at (1:-243:3) a = b = 0 but grad b != 0
        fib = WeierstrassFibration(A1 * A0**3 + 3 * A2**4, A1 * A2 * A0**4 + A2**6)
        points = [(F(0), F(0), F(1)), (F(1), F(0), F(0)), (F(1), F(-243), F(3))]
        sings = fib.total_space_singularities(_modification(fib, {}, singular_points=points))
        assert [(s.fiber_point, s.base_point) for s in sings] == [
            ((F(-1, 2), 0, 1), points[0]),
            ((0, 0, 1), points[1]),
        ]
        for s in sings:
            assert singular_over(fib, s.base_point, s.fiber_point)
        assert fib.a.evaluate(dict(zip(VARS, points[2]))) == 0
        assert not singular_over(fib, points[2], (0, 0, 1))

    def test_rule_4_an_uncovered_nonrational_crossing_is_refused(self):
        # b = A0^6 + A1 A0^3 (A2^2 - 2 A0^2) and a = 3 A0^4: the I1 line
        # A1 = 0 meets the residual at (1 : 0 : +-sqrt(2)), where a != 0
        fib = WeierstrassFibration(3 * A0**4, A0**6 + A1 * A0**3 * parse("A2^2 - 2*A0^2"))
        crossing = CollisionRecord(
            ("L~(A1)", "Q~"), None, None, collide(KodairaType("I1"), KodairaType("I1")),
            2, parse("A2^2 - 2"), "crossing on the discriminant",
        )
        mod = _modification(fib, {"L~(A1)": A1}, node_collisions=[crossing])
        assert mod.component_divisors[0].kodaira.tag == "I1"
        with pytest.raises(NotAnalyzableError, match="crossings of L~\\(A1\\) and Q~"):
            fib.total_space_singularities(mod)
        # on a curve of rule 1 the crossings are covered
        mod.component_divisors[0].triple = OrderTriple(1, 2, 3)
        assert [s.kind() for s in fib.total_space_singularities(mod)] == ["curve"]


VARS = ("A0", "A1", "A2")


def _modification(fib, equations, **fields):
    """A modification with the components ``equations`` of ``fib``, each
    with its own order triple and Kodaira type, and the other ``fields``."""
    divisors = []
    for name, equation in equations.items():
        triple = order_triple_along(fib.a, fib.b, fib.discriminant(), equation)
        divisors.append(DivisorRecord(name, "planted", triple, kodaira_classify(triple)))
    return BaseModification(divisors, equations=equations, **fields)


def total_space_jacobian(fib, fiber_point):
    """Y^2 Z - 4 X^3 + a X Z^2 + b Z^3 and its six partials at the fiber
    point (X : Y : Z), as polynomials on the base (oracle only)."""
    X, Y, Z = (MultiPoly.variable(v) for v in "XYZ")
    w = Y**2 * Z - 4 * X**3 + fib.a * X * Z**2 + fib.b * Z**3
    at = dict(zip("XYZ", map(F, fiber_point)))
    return [p.substitute(at) for p in [w, *(w.derivative(v) for v in ("X", "Y", "Z", *VARS))]]


def singular_over(fib, base_point, fiber_point) -> bool:
    """Whether the total space is singular at the fiber point over the
    base point, by its Jacobian (oracle only)."""
    at = dict(zip(VARS, map(F, base_point)))
    return all(p.substitute(at).is_zero() for p in total_space_jacobian(fib, fiber_point))


def _reduced_b(fib):
    """The degree-6 section with each coordinate line factor taken once."""
    orders, reduced = strip_coordinate_lines(fib.b)
    for var in orders:
        reduced = reduced * MultiPoly.variable(var)
    return reduced


class TestOrderTriples:
    def test_lagrange_line(self, lagrange_fibration):
        a, b = lagrange_fibration.a, lagrange_fibration.b
        t = order_triple_along(a, b, a**3 - 27 * b**2, A0)
        assert t.as_tuple() == (2, 3, 7)
        assert kodaira_classify(t).tag == "I1*"

    def test_local_model_along_s1(self):
        s1, s2 = MultiPoly.variable("s1"), MultiPoly.variable("s2")
        t = order_triple_along(s1, s2, s1**3 - 27 * s2**2, s1)
        assert t.as_tuple() == (1, 0, 0)

    def test_first_cusp_chart(self):
        s1, s2 = MultiPoly.variable("s1"), MultiPoly.variable("s2")
        t = order_triple_along(s1, s1 * s2, s1**3 - 27 * (s1 * s2) ** 2, s1)
        assert t.as_tuple() == (1, 1, 2)
        assert kodaira_classify(t).tag == "II"

    def test_consistency_rule(self, lagrange_fibration):
        lines, residual = lagrange_fibration.reduced_discriminant()
        a, b = lagrange_fibration.a, lagrange_fibration.b
        for comp in [A0, residual]:
            t = order_triple_along(a, b, a**3 - 27 * b**2, comp)
            assert t.is_consistent()

    def test_infinite_order(self):
        zero, s1 = MultiPoly.zero(), MultiPoly.variable("s1")
        t = order_triple_along(zero, s1, zero**3 - 27 * s1**2, s1)
        assert t.L == INFINITE_ORDER


KODAIRA_ROWS = [
    ((0, 0, 0), "I0"),
    ((3, 0, 0), "I0"),
    ((0, 0, 1), "I1"),
    ((0, 0, 4), "I4"),
    ((1, 1, 2), "II"),
    ((INFINITE_ORDER, 1, 2), "II"),
    ((1, 2, 3), "III"),
    ((1, 4, 3), "III"),
    ((2, 2, 4), "IV"),
    ((5, 2, 4), "IV"),
    ((2, 3, 6), "I0*"),
    ((4, 3, 6), "I0*"),
    ((2, 5, 6), "I0*"),
    ((2, 3, 7), "I1*"),
    ((2, 3, 8), "I2*"),
    ((2, 3, 13), "I7*"),
    ((3, 4, 8), "IV*"),
    ((INFINITE_ORDER, 4, 8), "IV*"),
    ((3, 5, 9), "III*"),
    ((3, 7, 9), "III*"),
    ((4, 5, 10), "II*"),
    ((6, 5, 10), "II*"),
]


class TestKodairaTable:
    @pytest.mark.parametrize("triple,tag", KODAIRA_ROWS)
    def test_rows(self, triple, tag):
        assert kodaira_classify(OrderTriple(*triple)).tag == tag

    def test_needs_normalization(self):
        with pytest.raises(NeedsNormalizationError):
            kodaira_classify(OrderTriple(4, 6, 12))

    def test_not_in_table(self):
        with pytest.raises(NotInTableError):
            kodaira_classify(OrderTriple(1, 1, 3))

    def test_table_matches_row_chain(self):
        """Same tag, or the same exception class, as the oracle's row tests."""

        def outcome(classify, t):
            try:
                return classify(t).tag
            except ValueError as exc:
                return type(exc)

        for L in [*range(14), INFINITE_ORDER]:
            for K in [*range(20), INFINITE_ORDER]:
                for N in [*range(40), INFINITE_ORDER]:
                    t = OrderTriple(L, K, N)
                    assert outcome(kodaira_classify, t) == outcome(kodaira_classify_oracle, t), t

    def test_minimal_triple_classifies_back(self):
        tags = ["I0", "I1", "I7", "II", "III", "IV", "I0*", "I1*", "I5*", "IV*", "III*", "II*"]
        for tag in tags:
            assert kodaira_classify(KodairaType(tag).minimal_triple()).tag == tag

    def test_component_data(self):
        assert KodairaType("I0*").component_count() == 5
        i3s = KodairaType("I3*")
        assert sorted(i3s.dual_graph().multiplicities()) == [1, 1, 1, 1, 2, 2, 2, 2]
        assert KodairaType("IV*").component_count() == 7
        assert KodairaType("III*").component_count() == 8
        assert KodairaType("II*").component_count() == 9
        assert KodairaType("I5").component_count() == 5
        assert sum(KodairaType("II*").dual_graph().multiplicities()) == 30

    @pytest.mark.parametrize(
        "tag", ["I00", "I01", "I002*", "I\uff11", "I\u00b2", "I", "I*", "I-1", "V", "I{}", "I{}*"]
    )
    def test_non_canonical_tag_rejected(self, tag):
        with pytest.raises(ValueError, match="unknown Kodaira tag"):
            KodairaType(tag)

    @pytest.mark.parametrize(
        "tag, quoted",
        [
            ("I" * 20, "I" * 20),
            ("I" * 21, "I" * 12 + "..."),
            ("I\u00e9" * 10, "I\u00e9" * 4 + "..."),
            ("\U0001f600" * 20, "\U0001f600" * 3 + "..."),
            ("\x00" * 20, "\x00" * 3 + "..."),
        ],
    )
    def test_quoted_tag_takes_at_most_22_bytes(self, tag, quoted):
        assert quote_tag(tag) == quoted
        assert len(repr(quote_tag(tag)).encode()) <= 22

    def test_star_has_n_plus_1_double_components(self):
        for n in range(1, 6):
            mults = KodairaType(f"I{n}*").dual_graph().multiplicities()
            assert sum(1 for m in mults if m == 2) == n + 1
            assert sum(1 for m in mults if m == 1) == 4


class TestCachedLookups:
    """Kodaira types, collision fibers and their JSON are built once per
    process for each value; refusals are raised on every call."""

    def test_lookups_are_kept(self):
        triple = OrderTriple(2, 3, 9)
        assert kodaira_classify(triple) is kodaira_classify(OrderTriple(2, 3, 9))
        pair = (KodairaType("I4"), KodairaType("I1*"))
        assert collide(*pair) is collide(KodairaType("I4"), KodairaType("I1*"))
        assert kodaira_classify.cache_info().hits >= 1 and collide.cache_info().hits >= 1

    def test_refusals_are_raised_on_every_call(self):
        for _ in range(3):
            with pytest.raises(NotInTableError):
                kodaira_classify(OrderTriple(1, 1, 3))
            with pytest.raises(NeedsNormalizationError):
                kodaira_classify(OrderTriple(4, 6, 12))
            with pytest.raises(NotOnListError):
                collide(KodairaType("II"), KodairaType("II*"))
        assert kodaira_classify.cache_info().currsize == collide.cache_info().currsize == 0

    @pytest.mark.parametrize("tag", ["I3", "I2*", "IV*", "I0"])
    def test_json_fragments_are_shared_and_read_only(self, tag):
        k = KodairaType(tag)
        data = k.to_json()
        assert data is KodairaType(tag).to_json()
        assert data["dual_graph"] is k.dual_graph().to_json()
        before = json.dumps(data, sort_keys=True)
        graph = data["dual_graph"]
        for change in (
            lambda: data.__setitem__("tag", "I9"),
            lambda: data.pop("tag"),
            lambda: data.update(tag="I9"),
            lambda: data.setdefault("extra", 1),
            lambda: data.clear(),
            lambda: data["multiplicities"].append(1),
            lambda: data["multiplicities"].__setitem__(0, 7),
            lambda: graph["edges"].append([0, 0]),
            lambda: graph["multiplicities"].sort(),
            lambda: graph.__delitem__("kind"),
        ):
            with pytest.raises(TypeError, match="read-only"):
                change()
        with pytest.raises(TypeError, match="read-only"):
            data |= {"tag": "I9"}
        for edge in graph["edges"]:
            with pytest.raises(TypeError, match="read-only"):
                edge.reverse()
        assert json.dumps(KodairaType(tag).to_json(), sort_keys=True) == before

    def test_copies_of_a_fragment_are_plain_data(self):
        data = KodairaType("I2*").to_json()
        before = json.dumps(data, sort_keys=True)
        for twin in (copy.copy(data), copy.deepcopy(data), pickle.loads(pickle.dumps(data))):
            assert type(twin) is dict and twin == data
        deep = copy.deepcopy(data)
        deep["multiplicities"].append(1)
        deep["dual_graph"]["edges"].append([0, 0])
        assert type(deep["dual_graph"]) is dict and type(deep["multiplicities"]) is list
        assert json.dumps(KodairaType("I2*").to_json(), sort_keys=True) == before


class TestNormalizeConditionC:
    def test_forced_unit(self):
        u = MultiPoly.variable("u")
        a, b, t = normalize_condition_C(u**4, u**6, "u")
        assert (a, b, t) == (MultiPoly.const(1), MultiPoly.const(1), 1)

    def test_partial_powers(self):
        u, s = MultiPoly.variable("u"), MultiPoly.variable("s")
        a = u**9 * s**3 * (1 + u * s)
        b = u**12 * s**4 * (1 + u)
        a2, b2, t = normalize_condition_C(a, b, "u")
        assert t == 2
        assert a2 == u * s**3 * (1 + u * s)
        assert b2 == s**4 * (1 + u)

    def test_no_division(self):
        u = MultiPoly.variable("u")
        a, b, t = normalize_condition_C(u**3, u**5, "u")
        assert t == 0 and a == u**3 and b == u**5


class TestReduceTripleMod:
    def test_collision_sum(self):
        # sum of the triples (1,1,2) and (2,3,6): already reduced
        t = reduce_triple_mod(OrderTriple(3, 4, 8))
        assert t.as_tuple() == (3, 4, 8)
        assert kodaira_classify(t).tag == "IV*"

    def test_full_reduction(self):
        assert reduce_triple_mod(OrderTriple(4, 6, 12)).as_tuple() == (0, 0, 0)

    def test_one_step(self):
        assert reduce_triple_mod(OrderTriple(6, 9, 18)).as_tuple() == (2, 3, 6)

    def test_matches_stepwise_oracle(self):
        values = [*range(31), INFINITE_ORDER]
        for L in values:
            for K in values:
                for N in values:
                    t = OrderTriple(L, K, N)
                    try:
                        expected = reduce_triple_mod_oracle(t)
                    except ValueError:
                        with pytest.raises(ValueError):
                            reduce_triple_mod(t)
                        continue
                    assert reduce_triple_mod(t) == expected, t


class TestMonodromyRepresentatives:
    def test_i1(self):
        assert kodaira_monodromy(KodairaType("I1")) == SL2Z(1, 1, 0, 1)

    def test_identity(self):
        assert kodaira_monodromy(KodairaType("I0")) == SL2Z.identity()

    def test_i2_is_square_of_i1(self):
        t = kodaira_monodromy(KodairaType("I1"))
        assert kodaira_monodromy(KodairaType("I2")) == t * t

    def test_orders(self):
        # standard orders in SL(2,Z): II has order 6, III order 4, IV order 3
        for tag, order in (("II", 6), ("III", 4), ("IV", 3), ("I0*", 2)):
            m = kodaira_monodromy(KodairaType(tag))
            acc = SL2Z.identity()
            for _ in range(order):
                acc = acc * m
            assert acc == SL2Z.identity()


# Miranda, Table I.4.1, written out by hand: the trace and the order in
# SL(2,Z) of the local monodromy of each type that is not I_n or I_n*, and
# the type whose monodromy is the negative of it (X and X* differ by -1).
MIRANDA_MONODROMY = {
    "II": (1, 6, "IV*"),
    "III": (0, 4, "III*"),
    "IV": (-1, 3, "II*"),
    "I0*": (-2, 2, "I0"),
    "IV*": (-1, 3, "II"),
    "III*": (0, 4, "III"),
    "II*": (1, 6, "IV"),
}


def matrix_product(x, y):
    return [[sum(x[i][k] * y[k][j] for k in range(2)) for j in range(2)] for i in range(2)]


def matrix_order(m, limit=12):
    """The least k <= limit with m^k = 1, by repeated products, else None."""
    power = m
    for k in range(1, limit + 1):
        if power == [[1, 0], [0, 1]]:
            return k
        power = matrix_product(power, m)
    return None


class TestMonodromyOracle:
    def test_every_row_is_in_the_oracle(self):
        fixed = {row.tag for row in weierstrass._KODAIRA_ROWS if "{}" not in row.tag}
        assert fixed == set(MIRANDA_MONODROMY) | {"I0"}

    @pytest.mark.parametrize("tag", sorted(MIRANDA_MONODROMY))
    def test_trace_order_and_sign_of_the_star(self, tag):
        trace, order, negative = MIRANDA_MONODROMY[tag]
        m = kodaira_monodromy(KodairaType(tag)).to_json()
        assert (m[0][0] + m[1][1], matrix_order(m)) == (trace, order)
        minus = kodaira_monodromy(KodairaType(negative)).to_json()
        assert m == [[-v for v in row] for row in minus]

    @pytest.mark.parametrize("n", [0, 1, 2, 3, 7, 25])
    def test_families_are_plus_and_minus_powers_of_T(self, n):
        power = [[1, 0], [0, 1]]
        for _ in range(n):
            power = matrix_product(power, [[1, 1], [0, 1]])
        assert kodaira_monodromy(KodairaType(f"I{n}")).to_json() == power
        assert kodaira_monodromy(KodairaType(f"I{n}*")).to_json() == [[-v for v in row] for row in power]

    def test_huge_index_is_read_off_the_tag(self):
        n = 10**40
        assert kodaira_monodromy(KodairaType(f"I{n}")).to_json() == [[1, n], [0, 1]]
        assert kodaira_monodromy(KodairaType(f"I{n}*")).to_json() == [[-1, -n], [0, -1]]


class TestGenericity:
    @pytest.mark.parametrize("alpha", [0, 4, -4])
    def test_rejected(self, alpha):
        with pytest.raises(GenericityError):
            check_genericity(F(alpha))

    @pytest.mark.parametrize("alpha", [1, 2, F(3, 2), -5])
    def test_accepted(self, alpha):
        assert check_genericity(F(alpha)) == F(alpha)

    def test_locus_of_the_contact_eliminant(self):
        # the facts the check_genericity docstring states
        sympy = pytest.importorskip("sympy")
        alpha, a2 = sympy.symbols("alpha a2")
        e = 3 * a2**4 - alpha**2 * a2**3 + 72 * a2**2 - 108 * alpha**2 * a2 + 27 * alpha**4 + 432
        locus = -(3**9) * alpha**4 * (alpha - 4) ** 3 * (alpha + 4) ** 3 * (alpha**2 + 16) ** 3
        assert sympy.expand(sympy.discriminant(e, a2) - locus) == 0
        # the nodes of the residual curve lie on a2 = alpha^2/4 +- 2
        plus = sympy.resultant(4 * a2 - alpha**2 - 8, e, a2)
        minus = sympy.resultant(4 * a2 - alpha**2 + 8, e, a2)
        assert sympy.expand(plus + (alpha - 4) ** 3 * (alpha + 4) ** 3 * (alpha**2 + 48)) == 0
        assert sympy.expand(minus + (alpha**2 - 48) * (alpha**2 + 16) ** 3) == 0
        assert sympy.sqrt(48).is_rational is False
        for value in (F(1), F(1, 2), F(7, 3)):
            notes = regularize(build_global_sections(value)).notes
            printed = next(n for n in notes if n.startswith("contact-point cluster eliminant: "))
            expected = e.subs(alpha, sympy.Rational(value.numerator, value.denominator))
            assert equal_up_to_unit(
                parse(printed.split(": ")[1]), from_sympy(sympy, expected, ("a2",))
            )


# -- the gcd's homogeneous users against sympy ------------------------------------

PLANE = ("A0", "A1", "A2")


@st.composite
def homogeneous_forms(draw, degree):
    """A nonzero form of the given degree in A0, A1, A2 with small coefficients."""
    monomials = [(i, j, degree - i - j) for i in range(degree + 1) for j in range(degree + 1 - i)]
    coeffs = draw(st.lists(st.integers(-3, 3), min_size=len(monomials), max_size=len(monomials)))
    if not any(coeffs):
        coeffs[draw(st.integers(0, len(monomials) - 1))] = 1
    return MultiPoly(PLANE, {m: F(c, draw(st.integers(1, 3))) for m, c in zip(monomials, coeffs)})


@given(
    homogeneous_forms(1), homogeneous_forms(2), homogeneous_forms(2), homogeneous_forms(1),
    st.integers(1, 2), st.integers(0, 2),
)
@settings(max_examples=40, deadline=None)
def test_gcd_homogeneous_against_sympy(common, f, g, line, k, j):
    sympy = pytest.importorskip("sympy")
    p = common**k * f * line**j
    q = common * g * A0**j
    ours = gcd_multivariate(p, q)
    theirs = sympy.gcd(to_sympy(sympy, p), to_sympy(sympy, q))
    assert ours.is_homogeneous()
    assert equal_up_to_unit(ours, from_sympy(sympy, theirs, PLANE))


@given(homogeneous_forms(1), homogeneous_forms(2), homogeneous_forms(1), st.integers(1, 3), st.integers(1, 3))
@settings(max_examples=40, deadline=None)
def test_radical_against_sympy(f, g, line, i, j):
    sympy = pytest.importorskip("sympy")
    p = f**i * g**j * line
    theirs = sympy.sqf_part(to_sympy(sympy, p), *sympy.symbols(PLANE))
    assert equal_up_to_unit(radical(p), from_sympy(sympy, theirs, PLANE))
