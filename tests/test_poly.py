import math
from fractions import Fraction as F
from unittest import mock

import pytest
from conftest import bareiss_resultant, from_sympy, to_sympy
from hypothesis import example, given, settings, strategies as st

from fibrant import poly
from fibrant.poly import (
    INFINITE_ORDER,
    MultiPoly,
    NotDivisibleError,
    equal_up_to_unit,
    exact_divide,
    extract_power,
    format_poly,
    gcd_multivariate,
    gcd_univariate,
    homogeneous_components,
    is_squarefree,
    parse,
    primitive_integer,
    radical,
    rational_roots,
    resultant,
    split_rational_roots,
    strip_coordinate_lines,
)

x = MultiPoly.variable("x")
y = MultiPoly.variable("y")
s1 = MultiPoly.variable("s1")
s2 = MultiPoly.variable("s2")


class TestArithmetic:
    def test_cancellation(self):
        p = MultiPoly.variable("s1") ** 2 + 1
        assert p + (-1) == MultiPoly.variable("s1") ** 2

    def test_discriminant_shape(self):
        # a^3 - 27 b^2 with a = s1, b = s2
        assert s1**3 - 27 * s2**2 == parse("s1^3 - 27*s2^2")

    def test_binomial(self):
        assert (x + y) ** 2 == parse("x^2 + 2*x*y + y^2")

    def test_negative_power_rejected(self):
        with pytest.raises(ValueError):
            x ** (-1)

    def test_variable_merge_by_name(self):
        p = parse("x + 1") * parse("y + 1")
        assert p == parse("x*y + x + y + 1")

    def test_scalar_coercion(self):
        assert 2 * x - x == x
        assert F(1, 2) * (2 * x) == x


class TestDerivative:
    def test_g2_partial(self):
        g2 = parse("1 + (1/12)*a2^2 - (1/4)*a1")  # alpha = 1
        assert g2.derivative("a1") == MultiPoly.const(F(-1, 4))

    def test_constant(self):
        assert MultiPoly.const(7).derivative("x").is_zero()

    def test_power_rule(self):
        assert (s1**3 - 27 * s2**2).derivative("s2") == -54 * s2

    @given(st.integers(-4, 4), st.integers(0, 3), st.integers(0, 3))
    def test_partials_commute(self, c, i, j):
        p = c * x**i * y**j + x * y + 3
        assert p.derivative("x").derivative("y") == p.derivative("y").derivative("x")


class TestSubstitute:
    def test_monomial_map(self):
        t1 = MultiPoly.variable("t1")
        t2 = MultiPoly.variable("t2")
        result = (s1**3 - 27 * s2**2).substitute({"s1": t1, "s2": t1 * t2})
        # oracle: term-by-term substitution
        oracle = t1**3 - 27 * (t1 * t2) ** 2
        assert result == oracle == parse("t1^3 - 27*t1^2*t2^2")

    def test_identity(self):
        p = parse("x^2*y - 3*x + 2")
        assert p.substitute({"x": x, "y": y}) == p

    def test_dehomogenize_section(self):
        phi = parse("A0^2*(A0^2 + (1/12)*A2^2 - (alpha/4)*A0*A1)", {"alpha": F(1)})
        g2 = phi.substitute({"A0": F(1)})
        assert g2 == parse("1 + (1/12)*A2^2 - (1/4)*A1")


class TestExactDivide:
    def test_monomial_factor(self):
        t1, t2 = MultiPoly.variable("t1"), MultiPoly.variable("t2")
        p = t1**2 * (t1 - 27 * t2**2)
        assert exact_divide(p, t1**2) == t1 - 27 * t2**2

    def test_difference_of_squares(self):
        assert exact_divide(x**2 - y**2, x - y) == x + y

    def test_not_divisible(self):
        with pytest.raises(NotDivisibleError):
            exact_divide(x**2 + 1, x)


class TestExtractPower:
    def test_monomial_power(self):
        p = parse("s1^2*s2^6*(s1 - 27)")
        k, rest = extract_power(p, s2)
        assert k == 6 and rest == parse("s1^2*(s1 - 27)")

    def test_constant(self):
        k, rest = extract_power(MultiPoly.const(5), x)
        assert k == 0 and rest == MultiPoly.const(5)

    def test_zero_is_infinitely_divisible(self):
        k, rest = extract_power(MultiPoly.zero(), x)
        assert k == INFINITE_ORDER and rest.is_zero()

    def test_strip_coordinate_lines(self):
        orders, rest = strip_coordinate_lines(parse("(2/3)*x^3*s2*(s1 + s2)"))
        assert orders == {"s2": 1, "x": 3} and rest == parse("(2/3)*(s1 + s2)")
        assert strip_coordinate_lines(x + 1) == ({}, x + 1)
        assert strip_coordinate_lines(MultiPoly.zero()) == ({}, MultiPoly.zero())

    def test_lagrange_discriminant_line_power(self, lagrange_fibration):
        delta = lagrange_fibration.discriminant()
        k, rest = extract_power(delta, MultiPoly.variable("A0"))
        assert k == 7
        assert rest.total_degree() == 5 and rest.is_homogeneous()


class TestResultant:
    def test_linear(self):
        a, b = MultiPoly.variable("a"), MultiPoly.variable("b")
        assert resultant(x - a, x - b, "x") == a - b

    def test_common_root(self):
        assert resultant(x**2, x, "x").is_zero()

    def test_quartic_discriminant_value(self):
        # contact quartic at alpha = 1 against its derivative
        f = parse("3*a2^4 - a2^3 + 72*a2^2 - 108*a2 + 459")
        r = resultant(f, f.derivative("a2"), "a2")
        assert abs(r.constant_value()) == 979113612375
        # the Sylvester convention here lands on the positive sign
        assert r.constant_value() == 979113612375

    def test_against_fraction_elimination_oracle(self):
        from conftest import sylvester_det_fractions

        f = parse("3*a2^4 - a2^3 + 72*a2^2 - 108*a2 + 459")
        fc = [c.constant_value() for c in f.as_univariate("a2")][::-1]
        dc = [c.constant_value() for c in f.derivative("a2").as_univariate("a2")][::-1]
        size = 7
        rows = []
        for i in range(3):
            rows.append([F(0)] * i + fc + [F(0)] * (size - 5 - i))
        for i in range(4):
            rows.append([F(0)] * i + dc + [F(0)] * (size - 4 - i))
        oracle = sylvester_det_fractions(rows)
        assert oracle == resultant(f, f.derivative("a2"), "a2").constant_value()

    def test_degenerate_rejected(self):
        with pytest.raises(ValueError):
            resultant(x, MultiPoly.const(3), "x")


class TestGcd:
    def test_basic(self):
        assert gcd_univariate(x**2 - 1, x - 1, "x") == x - 1

    def test_squarefree_vs_derivative(self):
        f = parse("x^3 + 2*x + 1")
        assert gcd_univariate(f, f.derivative("x"), "x") == MultiPoly.const(1)

    def test_content_slice(self):
        g = gcd_univariate(s1**3 - 27 * s2**2, -54 * s2, "s2")
        assert g.is_constant()

    def test_multivariate(self):
        assert gcd_multivariate(x**2 - y**2, (x + y) ** 2) == x + y

    @given(st.integers(-3, 3), st.integers(-3, 3), st.integers(1, 3), st.integers(1, 3))
    @settings(max_examples=40, deadline=None)
    def test_resultant_vanishes_iff_common_factor(self, a, b, i, j):
        f = (x - a) ** i * (x - b)
        g = (x - a) ** j * (x + b + 1)
        r = resultant(f, g, "x")
        has_common = not gcd_univariate(f, g, "x").is_constant()
        assert r.is_zero() == has_common


class TestHomogeneousComponents:
    def test_node_recentering(self, quintic_alpha1):
        # degree-1 part vanishes at a double point of the residual curve
        affine = quintic_alpha1.substitute({"A0": F(1)})
        parts = homogeneous_components(affine.shift({"A1": F(1), "A2": F(9, 4)}))
        assert parts[0].is_zero() and parts[1].is_zero()
        assert not parts[2].is_zero()

    def test_square_at_origin(self):
        parts = homogeneous_components(x**2)
        assert [format_poly(c) for c in parts] == ["0", "0", "x^2"]

    def test_shifted_square(self):
        parts = homogeneous_components(((x - 1) ** 2).shift({"x": F(1)}))
        assert [format_poly(c) for c in parts] == ["0", "0", "x^2"]

    @given(st.integers(-3, 3), st.integers(-3, 3), st.integers(-2, 2))
    @settings(max_examples=30, deadline=None)
    def test_components_sum_back(self, a, b, c):
        p = a * x**3 + b * x * y + c
        point = {"x": F(1), "y": F(-2)}
        parts = homogeneous_components(p.shift(point))
        total = MultiPoly.zero()
        for part in parts:
            total = total + part
        assert total == p.shift(point)


class TestEvaluate:
    def test_g2_origin(self):
        g2 = parse("1 + (1/12)*a2^2 - (alpha/4)*a1", {"alpha": F(1)})
        assert g2.evaluate({"a1": F(0), "a2": F(0)}) == 1

    def test_g3_origin(self):
        g3 = parse(
            "(1/216)*a2^3 + (1/16)*a1^2 - (alpha/48)*a1*a2 - (1/6)*a2 + (alpha^2/16)",
            {"alpha": F(1)},
        )
        assert g3.evaluate({"a1": F(0), "a2": F(0)}) == F(1, 16)

    def test_exact_pair(self):
        g2 = parse("1 + (1/12)*a2^2 - (alpha/4)*a1", {"alpha": F(2)})
        g3 = parse(
            "(1/216)*a2^3 + (1/16)*a1^2 - (alpha/48)*a1*a2 - (1/6)*a2 + (alpha^2/16)",
            {"alpha": F(2)},
        )
        point = {"a1": F(1), "a2": F(2)}
        assert g2.evaluate(point) == F(5, 6)
        assert g3.evaluate(point) == F(-29, 432)

    def test_missing_variable(self):
        with pytest.raises(KeyError):
            (x + y).evaluate({"x": 1})

    def test_complex_mode(self):
        val = (x**2 + 1).evaluate({"x": 1j})
        assert abs(val) < 1e-15


class TestRoots:
    def test_simple(self):
        assert rational_roots(parse("x^3 - x")) == [(F(-1), 1), (F(0), 1), (F(1), 1)]

    def test_multiplicity_and_fractions(self):
        p = parse("4*x^2 - 1") * parse("x - 3") ** 2
        assert rational_roots(p) == [(F(-1, 2), 1), (F(1, 2), 1), (F(3), 2)]

    def test_no_rational_roots(self):
        assert rational_roots(parse("x^2 - 2")) == []

    def test_big_coefficients(self):
        p = parse("x - 979113612375") * parse("3*x + 2")
        roots = dict(rational_roots(p))
        assert roots[F(979113612375)] == 1 and roots[F(-2, 3)] == 1

    def test_roots_at_the_lifting_bound(self):
        # x - k has |an * k| = |a0 * an|, the largest numerator the lift must recover
        for k in range(-40, 41):
            if k:
                assert rational_roots(x - k) == [(F(k), 1)]
                assert rational_roots((7 * x - k) * (x**2 + 3)) == [(F(k, 7), 1)]

    def test_divisor_rich_integer(self):
        n = 979113612375
        assert n == 3**13 * 5**3 * 17**3
        assert rational_roots((x - n) ** 2 * (x**2 + n)) == [(F(n), 2)]
        as_lead = (5**3 * 17**3 * x - 2) * (3**13 * x + 1) * (n * x**2 + 1)
        assert rational_roots(as_lead) == [(F(-1, 3**13), 1), (F(2, 5**3 * 17**3), 1)]

    def test_split_rational_roots(self):
        roots, rest = split_rational_roots(parse("(x - 1)^2*(2*x + 3)*(x^2 + 2)"))
        assert roots == [(F(-3, 2), 1), (F(1), 2)]
        assert equal_up_to_unit(rest, parse("x^2 + 2"))
        assert split_rational_roots(MultiPoly.const(3)) == ([], MultiPoly.const(3))

    def test_squarefree_tools(self):
        p = parse("(x - 1)^2*(x + 2)")
        assert not is_squarefree(p, "x")
        assert equal_up_to_unit(radical(p), parse("(x - 1)*(x + 2)"))


class TestTextFormat:
    def test_round_trip_exact(self):
        text = "(1/12)*A2^2 - (1/4)*A1 + 1"
        p = parse(text)
        assert format_poly(p) == text
        assert parse(format_poly(p)) == p

    def test_alpha_substitution(self):
        p = parse("1 + (1/12)*A2^2 - (1/4)*alpha*A1", {"alpha": F(3, 2)})
        assert p == parse("1 + (1/12)*A2^2 - (3/8)*A1")

    def test_zero(self):
        assert format_poly(MultiPoly.zero()) == "0"
        assert parse("0").is_zero()

    def test_primitive_integer_units(self):
        p = parse("(2/3)*x^2 - (4/3)")
        prim, unit = primitive_integer(p)
        assert prim == parse("x^2 - 2") and unit == F(2, 3)
        assert equal_up_to_unit(p, parse("3*x^2 - 6"))


# -- ring axioms (property-based) ------------------------------------------------

coeffs = st.integers(-5, 5).map(F)
exponents = st.tuples(st.integers(0, 3), st.integers(0, 3))


@st.composite
def polys(draw):
    n_terms = draw(st.integers(0, 4))
    terms = {}
    for _ in range(n_terms):
        exp = draw(exponents)
        terms[exp] = terms.get(exp, F(0)) + draw(coeffs)
    return MultiPoly(("x", "y"), terms)


@given(polys(), polys(), polys())
@settings(max_examples=60, deadline=None)
def test_ring_axioms(p, q, r):
    assert (p + q) + r == p + (q + r)
    assert p + q == q + p
    assert (p * q) * r == p * (q * r)
    assert p * q == q * p
    assert p * (q + r) == p * q + p * r


@given(polys(), st.integers(0, 3), st.sampled_from(["x + 1", "x*y + 1", "-2*x*y^2", "(3/5)*y"]))
@settings(max_examples=60, deadline=None)
def test_extract_power_reconstructs(p, extra, divisor):
    q = parse(divisor)
    value = p * q**extra
    if value.is_zero():
        return
    k, rest = extract_power(value, q)
    assert q**int(k) * rest == value
    # the cofactor really is not divisible again
    with pytest.raises(NotDivisibleError):
        exact_divide(rest, q)


# -- rational roots against independent oracles ---------------------------------


def _divisors_by_trial(n: int) -> list:
    n = abs(n)
    small = [d for d in range(1, math.isqrt(n) + 1) if n % d == 0]
    return sorted(set(small + [n // d for d in small]))


def _roots_by_divisor_enumeration(coeffs: list) -> list:
    """Rational root theorem by brute force: every +-u/v with u | a0, v | an.

    ``coeffs`` are ascending integers with a nonzero constant term; each
    root's multiplicity is counted by repeated synthetic division.
    """
    found = {}
    denominators = _divisors_by_trial(coeffs[-1])
    for u in _divisors_by_trial(coeffs[0]):
        for v in denominators:
            for root in {F(u, v), F(-u, v)} - found.keys():
                mult, current = 0, [F(c) for c in coeffs]
                while len(current) > 1:
                    acc, quotient = F(0), []
                    for c in reversed(current):
                        acc = acc * root + c
                        quotient.append(acc)
                    if acc:
                        break
                    current = quotient[:-1][::-1]
                    mult += 1
                if mult:
                    found[root] = mult
    return sorted(found.items())


@st.composite
def planted(draw, height, quadratic_leads, quadratic_constants):
    """(polynomial, expected roots): planted roots, a zero root, an irreducible factor."""
    poly = MultiPoly.const(draw(st.integers(1, 2**64)) * draw(st.sampled_from((1, -1))))
    expected = {}
    for _ in range(draw(st.integers(0, 3))):
        root = F(draw(st.integers(-height, height)), draw(st.integers(1, height)))
        mult = draw(st.integers(1, 3))
        poly = poly * (root.denominator * x - root.numerator) ** mult
        expected[root] = expected.get(root, 0) + mult
    zero_mult = draw(st.integers(0, 2))
    poly = poly * x**zero_mult
    if zero_mult and F(0) in expected:
        expected[F(0)] += zero_mult
    elif zero_mult:
        expected[F(0)] = zero_mult
    # positive definite quadratic: no rational root, irreducible over Q
    lead, const = draw(quadratic_leads), draw(quadratic_constants)
    poly = poly * (lead * x**2 + const)
    return poly, sorted(expected.items())


@given(planted(2**320, st.integers(1, 2**10), st.integers(2**310, 2**320)))
@settings(max_examples=30, deadline=None)
def test_rational_roots_high_height_against_sympy(case):
    sympy = pytest.importorskip("sympy")
    poly, expected = case
    prim, _ = primitive_integer(poly)
    coeffs = [c.constant_value().numerator for c in prim.as_univariate("x")]
    assert max(abs(c) for c in coeffs).bit_length() >= 300
    assert rational_roots(poly) == expected
    sx = sympy.Symbol("x")
    oracle = sympy.roots(sympy.Poly(list(reversed(coeffs)), sx), filter="Q")
    assert rational_roots(poly) == sorted((F(int(r.p), int(r.q)), m) for r, m in oracle.items())


@given(planted(12, st.integers(1, 12), st.integers(1, 12)), st.lists(st.integers(-9, 9), min_size=0, max_size=3))
@settings(max_examples=60, deadline=None)
def test_rational_roots_against_divisor_enumeration(case, extra):
    poly, _ = case
    poly = poly * sum((c * x ** (i + 1) for i, c in enumerate(extra)), MultiPoly.const(1))
    if poly.is_constant():
        return
    prim, _ = primitive_integer(poly)
    coeffs = [c.constant_value().numerator for c in prim.as_univariate("x")]
    zeros = next(i for i, c in enumerate(coeffs) if c)
    expected = _roots_by_divisor_enumeration(coeffs[zeros:])
    if zeros:
        expected = sorted(expected + [(F(0), zeros)])
    assert rational_roots(poly) == expected


# -- pseudo-remainders and the subresultant gcd ----------------------------------


def pseudo_remainder(f, g, var):
    """prem(f, g): remainder of lc(g)^(deg f - deg g + 1) * f by g in var,
    computed by the integer kernel ``poly._iprem``; f itself when deg f < deg g."""
    df, dg = f.degree_in(var), g.degree_in(var)
    if df < dg:
        return f
    names = poly._union(f, g)
    if var not in names:
        return MultiPoly.zero()
    owed = df - dg + 1
    cf, cg = f.content, g.content
    num, den = cf.numerator * cg.numerator**owed, cf.denominator * cg.denominator**owed
    rem = poly._iprem(poly._over(f, names), poly._over(g, names), names.index(var))
    return poly._make(names, rem, num, den)


def test_pseudo_remainder_owes_the_full_power():
    # one reduction step drops the degree in x from 3 to 0, so lc(g) is
    # applied once by the step and once more as the power still owed
    f, g = -(x**3), 4 * x**2 * y + 2 * y**3 + 3 * x**2
    lead = 4 * y + 3
    r = pseudo_remainder(f, g, "x")
    assert r.degree_in("x") < g.degree_in("x")
    exact_divide(lead**2 * f - r, g)
    assert r == lead * (2 * y**3) * x


@given(st.integers(-3, 3), st.integers(1, 4), st.integers(1, 3))
@settings(max_examples=40, deadline=None)
def test_pseudo_remainder_identity(c, df, dg):
    f = (x + c * y) ** df * (x - y) + c * x * y + 1
    g = (c * y + 1) * x**dg + y**2 * x + c
    r = pseudo_remainder(f, g, "x")
    e = f.degree_in("x") - g.degree_in("x") + 1
    assert r.degree_in("x") < g.degree_in("x")
    exact_divide(g.leading_coefficient_in("x") ** max(e, 0) * f - r, g)


small_coeffs = st.fractions(min_value=-4, max_value=4, max_denominator=3)


@st.composite
def polys_in(draw, names, max_terms=4, max_exp=2, coeffs=small_coeffs):
    terms = {}
    for _ in range(draw(st.integers(1, max_terms))):
        exp = tuple(draw(st.integers(0, max_exp)) for _ in names)
        terms[exp] = terms.get(exp, F(0)) + draw(coeffs)
    return MultiPoly(names, terms)


@st.composite
def planted_gcd_pairs(draw):
    names = ("x", "y", "z")[: draw(st.sampled_from((2, 3)))]
    common = draw(polys_in(names, max_terms=3))
    return common * draw(polys_in(names)), common * draw(polys_in(names))


@given(planted_gcd_pairs())
@example((-(x**3), 4 * x**2 * y + 2 * y**3 + 3 * x**2))
@settings(max_examples=80, deadline=None)
def test_gcd_multivariate_against_sympy(pair):
    sympy = pytest.importorskip("sympy")
    p, q = pair
    ours = gcd_multivariate(p, q)
    names = tuple(sorted(set(p.variables) | set(q.variables))) or ("x",)
    theirs = sympy.gcd(to_sympy(sympy, p), to_sympy(sympy, q))
    assert equal_up_to_unit(ours, from_sympy(sympy, theirs, names))
    if not ours.is_zero():
        exact_divide(p, ours)
        exact_divide(q, ours)
    with mock.patch.object(poly, "_heu_gcd", lambda f, g: None):
        assert gcd_multivariate(p, q) == ours


# Coefficients of up to 220 bits, so the evaluation points are large.
wide_coeffs = st.one_of(small_coeffs, st.integers(-(2**220), 2**220).map(F))


@st.composite
def heuristic_gcd_cases(draw):
    """Pairs in 1-3 variables: a planted factor, coprime, or one dividing the other."""
    names = ("x", "y", "z")[: draw(st.integers(1, 3))]
    common = draw(polys_in(names, max_terms=3, coeffs=wide_coeffs))
    p = draw(polys_in(names, coeffs=wide_coeffs))
    q = draw(polys_in(names, coeffs=wide_coeffs))
    kind = draw(st.sampled_from(("planted", "coprime", "divides")))
    if kind == "planted":
        return common * p, common * q
    if kind == "divides":
        return common, common * q
    return p, q


@given(heuristic_gcd_cases())
@example((x**2 - 1, x**2 + 2 * x + 1))
@example((F(2**200 + 7) * x * y + 3, 5 * x * y + F(3, 2**201)))
@settings(max_examples=80, deadline=None)
def test_heuristic_gcd_against_sympy(pair):
    sympy = pytest.importorskip("sympy")
    p, q = pair
    names = tuple(sorted(set(p.variables) | set(q.variables))) or ("x",)
    theirs = from_sympy(sympy, sympy.gcd(to_sympy(sympy, p), to_sympy(sympy, q)), names)
    ours = gcd_multivariate(p, q)
    assert equal_up_to_unit(ours, theirs)
    if p.is_zero() or q.is_zero():
        return
    # The heuristic itself, where it answers, gives the gcd of the stored
    # integer forms, whose contents are 1.
    heu = poly._heu_gcd(poly._over(p, names), poly._over(q, names))
    if heu is not None:
        assert equal_up_to_unit(MultiPoly(names, heu), theirs)
        assert math.gcd(*heu.values()) == 1


# -- the trusted constructor and the integer kernels -------------------------------

VARIABLE_POOL = ("w", "x", "y", "z")


@st.composite
def small_polys(draw, max_exp=2):
    names = tuple(draw(st.lists(st.sampled_from(VARIABLE_POOL), min_size=1, max_size=4, unique=True)))
    return draw(polys_in(names, max_exp=max_exp))


def assert_canonical(r):
    """Kernel output is the stored form that full validation would build.

    A nonzero polynomial is content * ints with a positive rational
    content, nonzero integer coefficients of gcd 1 and no unused
    variable; the zero polynomial has no variables, content 0 and no
    coefficients.  ``terms`` is the Fraction view of content * ints.
    """
    assert isinstance(r, MultiPoly)
    assert list(r.variables) == sorted(set(r.variables))
    if r.is_zero():
        assert (r.variables, r.content, r.ints) == ((), 0, {})
    else:
        assert type(r.content) is F and r.content > 0
        assert all(type(c) is int and c != 0 for c in r.ints.values())
        assert math.gcd(*r.ints.values()) == 1
        assert all(len(e) == len(r.variables) for e in r.ints)
        assert all(any(e[i] for e in r.ints) for i in range(len(r.variables)))
    assert all(type(c) is F for c in r.terms.values())
    assert r.terms == {e: r.content * c for e, c in r.ints.items()}
    rebuilt = MultiPoly(r.variables, r.terms)
    assert (rebuilt.variables, rebuilt.content, rebuilt.ints) == (r.variables, r.content, r.ints)


def fraction_sum(p, q, scale):
    """p + scale * q, added term by term in Fractions and built by the public constructor."""
    names = tuple(sorted(set(p.variables) | set(q.variables)))
    out = {}
    for poly, factor in ((p, 1), (q, scale)):
        for e, c in poly.terms.items():
            powers = dict(zip(poly.variables, e))
            key = tuple(powers.get(v, 0) for v in names)
            out[key] = out.get(key, 0) + factor * c
    return MultiPoly(names, out)


@given(small_polys(), small_polys(), st.data())
@settings(max_examples=80, deadline=None)
def test_kernels_build_canonical_polynomials(p, q, data):
    for r in (p + q, p - q, p * q, -p, p**2, 3 * p, q * F(1, 2), p * F(-5, 7), p * 0):
        assert_canonical(r)
    scale = data.draw(st.fractions(min_value=-9, max_value=9, max_denominator=11))
    for sign in (1, -1):
        combined = p + sign * scale * q
        assert_canonical(combined)
        assert combined == fraction_sum(p, q, sign * scale)
    assert_canonical(primitive_integer(p)[0])
    for part in homogeneous_components(p):
        assert_canonical(part)
    for var in VARIABLE_POOL:
        assert_canonical(p.derivative(var))
        for c in p.as_univariate(var):
            assert_canonical(c)
        if not q.is_zero():
            assert_canonical(pseudo_remainder(p, q, var))
    product = p * q
    if not q.is_zero():
        quotient = exact_divide(product, q)
        assert_canonical(quotient)
        assert quotient == p
    if not q.is_constant() and not p.is_zero():
        k, cofactor = extract_power(product, q)
        assert_canonical(cofactor)
        assert k >= 1 and q**k * cofactor == product
    mapped = data.draw(st.lists(st.sampled_from(p.variables or ("x",)), unique=True))
    mapping = {v: data.draw(st.one_of(small_polys(max_exp=1), small_coeffs)) for v in mapped}
    image = p.substitute(mapping)
    assert_canonical(image)
    point = {v: data.draw(small_coeffs) for v in VARIABLE_POOL}
    values = {v: (m.evaluate(point) if isinstance(m, MultiPoly) else m) for v, m in mapping.items()}
    assert image.evaluate(point) == p.evaluate({**point, **values})
    shifted = p.shift({v: point[v] for v in mapped})
    assert_canonical(shifted)
    assert shifted.substitute({v: MultiPoly.variable(v) - point[v] for v in mapped}) == p
    constant = p.substitute(point)
    assert_canonical(constant)
    assert constant.is_constant() and constant.constant_value() == p.evaluate(point)
    for zero in (0, F(0), MultiPoly.zero()):
        image = p.substitute({v: zero for v in mapped})
        assert_canonical(image)
        assert image == p.substitute({v: MultiPoly.const(0) for v in mapped})
    assert_canonical(p.substitute({v: 0 for v in VARIABLE_POOL}))


def evaluate_by_terms(p, point):
    """The exact value, term by term in Fractions."""
    total = F(0)
    for exp, coeff in p.terms.items():
        for v, e in zip(p.variables, exp):
            coeff *= F(point[v]) ** e
        total += coeff
    return total


rational_values = st.one_of(
    st.just(0),
    st.just(F(0)),
    st.booleans(),
    st.integers(-50, 50),
    small_coeffs,
    st.builds(F, st.integers(-(10**40), 10**40), st.integers(1, 10**40)),
)


@given(small_polys(max_exp=3), st.data())
@settings(max_examples=80, deadline=None)
def test_evaluate_against_fraction_oracle(p, data):
    point = {v: data.draw(rational_values) for v in VARIABLE_POOL}
    value = p.evaluate(point)
    assert type(value) is F
    assert value == evaluate_by_terms(p, point)
    origin = p.evaluate(dict.fromkeys(VARIABLE_POOL, 0))
    assert type(origin) is F and origin == evaluate_by_terms(p, dict.fromkeys(VARIABLE_POOL, 0))


def test_evaluate_float_and_complex_path():
    # Values pinned from the term-by-term complex evaluation.
    p = parse("(1/3)*x^3*y - (2/7)*x*y^2 + (5/11)*y^3 - x + 5")
    assert p.evaluate({"x": 0.1 + 2j, "y": -1.5}) == 3.901123376623377 + 0.6842857142857142j
    assert p.evaluate({"x": 0.25, "y": F(3, 7)}) == 4.774893155314074 + 0j
    assert p.evaluate({"x": 1j, "y": 2}) == 8.636363636363637 - 2.8095238095238093j
    assert MultiPoly.zero().evaluate({}) == 0 and type(MultiPoly.zero().evaluate({})) is F


@given(small_polys(), st.fractions(min_value=-9, max_value=9).filter(bool))
@settings(max_examples=60, deadline=None)
def test_equality_and_terms_view(p, unit):
    view = p.terms
    assert all(type(c) is F for c in view.values())
    assert MultiPoly(p.variables, view) == p
    assert p.terms is view
    with pytest.raises(TypeError):
        view[(0,) * len(p.variables)] = F(1)
    # The same polynomial from the public constructor and from kernels.
    assert MultiPoly(p.variables + ("t",), {e + (0,): c for e, c in view.items()}) == p
    assert (p * unit) * (1 / unit) == p
    assert p + MultiPoly.zero() == p and MultiPoly.zero() + p == p
    assert exact_divide(p * (x + 1), x + 1) == p
    assert p.substitute({}) == p and p.shift({}) == p
    if not p.is_zero():
        assert equal_up_to_unit(p * unit, p)
        assert equal_up_to_unit(p, MultiPoly(p.variables, {e: unit * c for e, c in view.items()}))
        assert (p * unit == p) == (unit == 1)
        prim, scale = primitive_integer(p * unit)
        assert prim * scale == p * unit and prim.content == 1


@st.composite
def trivariate_resultant_pairs(draw):
    """Pairs in x, y, z of positive degree in x; some with an x-leading
    coefficient that vanishes at small integers y."""
    names = ("x", "y", "z")
    pair = []
    for _ in range(2):
        p = draw(polys_in(names, max_terms=4, coeffs=st.one_of(small_coeffs, st.integers(-(2**40), 2**40).map(F))))
        if draw(st.booleans()):
            lead = MultiPoly.const(1)
            for root in draw(st.lists(st.integers(-3, 3), min_size=1, max_size=2)):
                lead = lead * (y - root)
            p = p + lead * x ** (p.degree_in("x") + 1)
        if p.degree_in("x") < 1:
            p = p + x
        pair.append(p)
    return pair


@given(trivariate_resultant_pairs())
@example([(y - 1) * (y + 2) * x**2 + parse("z") * x + y, (y - 1) * x + parse("z^2 - 3")])
@settings(max_examples=40, deadline=None)
def test_trivariate_resultant_against_bareiss_oracle(pair):
    p, q = pair
    r = resultant(p, q, "x")
    assert_canonical(r)
    assert r == bareiss_resultant(p, q, "x")


@given(small_polys(), small_polys(), st.sampled_from(VARIABLE_POOL))
@settings(max_examples=60, deadline=None)
def test_resultant_against_bareiss_oracle(p, q, var):
    if p.degree_in(var) < 1 or q.degree_in(var) < 1:
        with pytest.raises(ValueError):
            resultant(p, q, var)
        return
    r = resultant(p, q, var)
    assert_canonical(r)
    assert r == bareiss_resultant(p, q, var)
