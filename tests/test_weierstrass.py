from fractions import Fraction as F

import pytest
from conftest import from_sympy, kodaira_classify_oracle, reduce_triple_mod_oracle, to_sympy
from hypothesis import given, settings, strategies as st

from fibrant.blowup import regularize
from fibrant.monodromy import SL2Z
from fibrant.poly import (
    INFINITE_ORDER,
    MultiPoly,
    equal_up_to_unit,
    extract_power,
    parse,
    radical,
)
from fibrant.weierstrass import (
    GenericityError,
    KodairaType,
    NeedsNormalizationError,
    NotAnalyzableError,
    NotInTableError,
    OrderTriple,
    WeierstrassFibration,
    _gcd_homogeneous,
    check_genericity,
    kodaira_classify,
    kodaira_monodromy,
    normalize_condition_C,
    order_triple_along,
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
        j = fib.j_invariant()
        assert j["unreduced"][0].is_zero()  # J = 0

    def test_b_zero_means_j_one(self):
        fib = WeierstrassFibration(A0**4, MultiPoly.zero())
        num, den = fib.j_invariant()["unreduced"]
        assert num == den  # J = 1

    def test_pole_on_discriminant(self):
        # local invariant pair (a^3, a^3 - 27 b^2) at a discriminant point
        num = parse("s1^3").evaluate({"s1": F(3)})
        den = parse("s1^3 - 27*s2^2").evaluate({"s1": F(3), "s2": F(1)})
        assert num == 27 and den == 0  # pole of J

    def test_lagrange_reduction(self, lagrange_fibration):
        j = lagrange_fibration.j_invariant()
        assert j["gcd"] == A0**6
        num, den = j["reduced"]
        assert num.total_degree() == 6 and den.total_degree() == 6


class TestTotalSpaceSingularities:
    def test_lagrange_alpha1(self, lagrange_fibration):
        mod = regularize(lagrange_fibration)
        sings = lagrange_fibration.total_space_singularities(mod.singular_points)
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

    def test_fiber_points_have_y_zero_z_nonzero(self, lagrange_fibration):
        mod = regularize(lagrange_fibration)
        for s in lagrange_fibration.total_space_singularities(mod.singular_points):
            assert s.fiber_point[1] == 0 and s.fiber_point[2] != 0

    def test_smooth_pair_empty(self):
        # smooth quartic section, zero degree-6 section: discriminant is a
        # cube of a smooth curve, no isolated singular points
        fib = WeierstrassFibration(A0**4 + A1**4 + A2**4, MultiPoly.zero())
        assert fib.total_space_singularities(regularize(fib).singular_points) == []

    def test_nonrational_singularities_of_b_are_not_dropped(self):
        # A2 = 0 meets the conic factor of b at (1 : +-sqrt(2) : 0), where
        # a vanishes too: the total space is singular there
        fib = WeierstrassFibration(
            parse("(A1^2 - 2*A0^2)*(A0^2 + A1*A2 + A2^2)"), parse("(A1^2 - 2*A0^2)*A2^4")
        )
        with pytest.raises(NotAnalyzableError, match="not certified"):
            fib.total_space_singularities([])


class TestOrderTriples:
    def test_lagrange_line(self, lagrange_fibration):
        t = order_triple_along(lagrange_fibration.a, lagrange_fibration.b, A0)
        assert t.as_tuple() == (2, 3, 7)
        assert kodaira_classify(t).tag == "I1*"

    def test_local_model_along_s1(self):
        s1, s2 = MultiPoly.variable("s1"), MultiPoly.variable("s2")
        t = order_triple_along(s1, s2, s1)
        assert t.as_tuple() == (1, 0, 0)

    def test_first_cusp_chart(self):
        s1, s2 = MultiPoly.variable("s1"), MultiPoly.variable("s2")
        t = order_triple_along(s1, s1 * s2, s1)
        assert t.as_tuple() == (1, 1, 2)
        assert kodaira_classify(t).tag == "II"

    def test_consistency_rule(self, lagrange_fibration):
        lines, residual = lagrange_fibration.reduced_discriminant()
        for comp in [A0, residual]:
            t = order_triple_along(lagrange_fibration.a, lagrange_fibration.b, comp)
            assert t.is_consistent()

    def test_infinite_order(self):
        t = order_triple_along(MultiPoly.zero(), MultiPoly.variable("s1"), MultiPoly.variable("s1"))
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
        assert sorted(i3s.multiplicities()) == [1, 1, 1, 1, 2, 2, 2, 2]
        assert KodairaType("IV*").component_count() == 7
        assert KodairaType("III*").component_count() == 8
        assert KodairaType("II*").component_count() == 9
        assert KodairaType("I5").component_count() == 5
        assert sum(KodairaType("II*").multiplicities()) == 30

    @pytest.mark.parametrize("tag", ["I00", "I01", "I002*", "I\uff11", "I\u00b2", "I", "I*", "I-1", "V"])
    def test_non_canonical_tag_rejected(self, tag):
        with pytest.raises(ValueError, match="unknown Kodaira tag"):
            KodairaType(tag)

    def test_star_has_n_plus_1_double_components(self):
        for n in range(1, 6):
            k = KodairaType(f"I{n}*")
            assert sum(1 for m in k.multiplicities() if m == 2) == n + 1
            assert sum(1 for m in k.multiplicities() if m == 1) == 4


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


class TestGenericity:
    @pytest.mark.parametrize("alpha", [0, 4, -4])
    def test_rejected(self, alpha):
        with pytest.raises(GenericityError):
            check_genericity(F(alpha))

    @pytest.mark.parametrize("alpha", [1, 2, F(3, 2), -5])
    def test_accepted(self, alpha):
        assert check_genericity(F(alpha)) == F(alpha)


class TestFromStrings:
    def test_round_trip(self):
        fib = WeierstrassFibration.from_strings(
            "A0^2*(A0^2 + (1/12)*A2^2 - (alpha/4)*A0*A1)",
            "A0^3*((1/216)*A2^3 + (1/16)*A0*A1^2 - (alpha/48)*A0*A1*A2"
            " - (1/6)*A0^2*A2 + (alpha^2/16)*A0^3)",
            alpha="3/2",
        )
        assert fib.alpha == F(3, 2)
        assert fib.a.total_degree() == 4 and fib.b.total_degree() == 6


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
    ours = _gcd_homogeneous(p, q)
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
