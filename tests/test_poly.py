import math
from fractions import Fraction as F
from unittest import mock

import pytest
from conftest import (
    bareiss_resultant, chart_substitution, compose, evaluate_by_terms, from_sympy, parse, to_sympy,
    two_jet,
)
from hypothesis import example, given, settings, strategies as st

from fibrant import poly, upoly
from fibrant.poly import (
    INFINITE_ORDER,
    MultiPoly,
    NotDivisibleError,
    blow_up_chart,
    equal_up_to_unit,
    exact_divide,
    extract_power,
    format_poly,
    gcd_all,
    gcd_multivariate,
    is_squarefree,
    poisson_brackets,
    primitive_integer,
    radical,
    rational_roots,
    resultant,
    strip_coordinate_lines,
    two_jet_at,
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
        result = compose(s1**3 - 27 * s2**2, {"s1": t1, "s2": t1 * t2})
        assert result == t1**3 - 27 * (t1 * t2) ** 2 == parse("t1^3 - 27*t1^2*t2^2")

    def test_identity(self):
        p = parse("x^2*y - 3*x + 2")
        assert compose(p, {"x": x, "y": y}) == p

    @pytest.mark.parametrize("image", [y, x + 1, parse("x*y"), "1/2", 0.5])
    def test_polynomial_image_refused(self, image):
        p = parse("x^2*y - 3*x + 2")
        with pytest.raises(TypeError, match="specializes to rationals"):
            p.substitute({"x": image})
        assert p.substitute({"x": MultiPoly.const(F(1, 2)), "z": image}) == p.substitute(
            {"x": F(1, 2)}
        )

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

    def test_floordiv_is_exact_division(self):
        assert (x**2 - y**2) // (x - y) == x + y
        assert (F(1, 3) * x**2 * y - x * y) // (2 * x * y) == F(1, 6) * x - F(1, 2)
        assert (6 * x) // 4 == F(3, 2) * x
        assert MultiPoly.zero() // (x + 1) == MultiPoly.zero()
        with pytest.raises(NotDivisibleError):
            (x**2 + 1) // x
        with pytest.raises(NotDivisibleError):
            (x**2 + y) // (x + y)
        with pytest.raises(ZeroDivisionError):
            x // MultiPoly.zero()
        with pytest.raises(ZeroDivisionError):
            x // 0
        with pytest.raises(TypeError):
            x // "x"


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
        assert gcd_multivariate(x**2 - 1, x - 1) == x - 1

    def test_squarefree_vs_derivative(self):
        f = parse("x^3 + 2*x + 1")
        assert gcd_multivariate(f, f.derivative("x")) == MultiPoly.const(1)

    def test_content_slice(self):
        g = gcd_multivariate(s1**3 - 27 * s2**2, -54 * s2)
        assert g.is_constant()

    def test_multivariate(self):
        assert gcd_multivariate(x**2 - y**2, (x + y) ** 2) == x + y

    def test_gcd_all_of_nothing_is_zero(self):
        assert gcd_all([]).is_zero()
        assert gcd_all(iter([MultiPoly.zero()] * 3)).is_zero()

    def test_gcd_all_is_normalized(self):
        assert gcd_all([MultiPoly.zero(), 4 * x**2 - 4, 6 - 6 * x]) == x - 1
        assert gcd_all([F(-3, 5) * x * y]) == x * y

    def test_gcd_all_stops_at_the_first_constant(self):
        def coprime_then_raise():
            yield x**2 - 1
            yield 2 * x + 4
            raise AssertionError("drawn past a constant gcd")

        def constant_then_raise():
            yield MultiPoly.const(F(-7, 2))
            raise AssertionError("drawn past a constant gcd")

        assert gcd_all(coprime_then_raise()) == MultiPoly.const(1)
        assert gcd_all(constant_then_raise()) == MultiPoly.const(1)

    @given(st.integers(-3, 3), st.integers(-3, 3), st.integers(1, 3), st.integers(1, 3))
    @settings(max_examples=40, deadline=None)
    def test_resultant_vanishes_iff_common_factor(self, a, b, i, j):
        f = (x - a) ** i * (x - b)
        g = (x - a) ** j * (x + b + 1)
        r = resultant(f, g, "x")
        has_common = not gcd_multivariate(f, g).is_constant()
        assert r.is_zero() == has_common


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
        # exact only: a value that is not rational is refused, as by substitute
        for value in (1j, 0.5):
            with pytest.raises(TypeError, match="rationals"):
                (x**2 + 1).evaluate({"x": value})


class TestRoots:
    def test_simple(self):
        assert rational_roots(parse("x^3 - x"))[0] == [(F(-1), 1), (F(0), 1), (F(1), 1)]

    def test_multiplicity_and_fractions(self):
        p = parse("4*x^2 - 1") * parse("x - 3") ** 2
        assert rational_roots(p)[0] == [(F(-1, 2), 1), (F(1, 2), 1), (F(3), 2)]

    def test_no_rational_roots(self):
        assert rational_roots(parse("x^2 - 2"))[0] == []

    def test_big_coefficients(self):
        p = parse("x - 979113612375") * parse("3*x + 2")
        roots = dict(rational_roots(p)[0])
        assert roots[F(979113612375)] == 1 and roots[F(-2, 3)] == 1

    def test_roots_at_the_lifting_bound(self):
        # x - k has |an * k| = |a0 * an|, the largest numerator the lift must recover
        for k in range(-40, 41):
            if k:
                assert rational_roots(x - k)[0] == [(F(k), 1)]
                assert rational_roots((7 * x - k) * (x**2 + 3))[0] == [(F(k, 7), 1)]

    def test_divisor_rich_integer(self):
        n = 979113612375
        assert n == 3**13 * 5**3 * 17**3
        assert rational_roots((x - n) ** 2 * (x**2 + n))[0] == [(F(n), 2)]
        as_lead = (5**3 * 17**3 * x - 2) * (3**13 * x + 1) * (n * x**2 + 1)
        assert rational_roots(as_lead)[0] == [(F(-1, 3**13), 1), (F(2, 5**3 * 17**3), 1)]

    def test_split_rational_roots(self):
        roots, rest = rational_roots(parse("(x - 1)^2*(2*x + 3)*(x^2 + 2)"))
        assert roots == [(F(-3, 2), 1), (F(1), 2)]
        assert equal_up_to_unit(rest, parse("x^2 + 2"))
        assert rational_roots(MultiPoly.const(3)) == ([], MultiPoly.const(3))

    def test_squarefree_tools(self):
        p = parse("(x - 1)^2*(x + 2)")
        assert not is_squarefree(p)
        assert is_squarefree(parse("x*y*(x + y)"))
        assert not is_squarefree(parse("(x - y)^2*(x + 1)"))
        assert is_squarefree(MultiPoly.const(3))
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

    def test_round_trip_of_a_dense_trivariate_polynomial(self):
        terms = {
            (i, j, k): F((7 * i - 3 * j + k * k) or 1, 1 + (i + 2 * j + 3 * k) % 11)
            for i in range(30) for j in range(30 - i) for k in range(30 - i - j)
        }
        p = MultiPoly(("x", "y", "z"), terms)
        assert len(p.terms) == 4960
        assert parse(format_poly(p)) == p
        assert parse("-(" + format_poly(p) + ")") == -p

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
    assert rational_roots(poly)[0] == expected
    sx = sympy.Symbol("x")
    oracle = sympy.roots(sympy.Poly(list(reversed(coeffs)), sx), filter="Q")
    assert rational_roots(poly)[0] == sorted((F(int(r.p), int(r.q)), m) for r, m in oracle.items())


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
    assert rational_roots(poly)[0] == expected


@given(planted(12, st.integers(1, 12), st.integers(1, 12)), st.lists(st.integers(-9, 9), min_size=0, max_size=3))
@settings(max_examples=60, deadline=None)
def test_rational_roots_split_off_the_cofactor_against_sympy(case, extra):
    sympy = pytest.importorskip("sympy")
    p, _ = case
    p = p * sum((c * x ** (i + 1) for i, c in enumerate(extra)), MultiPoly.const(1))
    roots, cofactor = rational_roots(p)
    product = cofactor
    for root, mult in roots:
        product = product * (x - root) ** mult
    assert product == p
    sx = sympy.Symbol("x")
    _, factors = sympy.factor_list(to_sympy(sympy, cofactor), sx)
    assert all(sympy.degree(factor, sx) != 1 for factor, _ in factors)


# -- pseudo-remainders and the subresultant gcd ----------------------------------


def pseudo_remainder(f, g, var):
    """prem(f, g): remainder of lc(g)^(deg f - deg g + 1) * f by g in var,
    computed by ``upoly.prem_list`` on the coefficient lists in var; f
    itself when deg f < deg g."""
    if f.degree_in(var) < g.degree_in(var):
        return f
    rem = upoly.prem_list(f.as_univariate(var), g.as_univariate(var))
    v = MultiPoly.variable(var)
    return sum((c * v**j for j, c in enumerate(rem)), MultiPoly.zero())


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
    exact_divide(g.as_univariate("x")[-1] ** max(e, 0) * f - r, g)


small_coeffs = st.fractions(min_value=-4, max_value=4, max_denominator=3)


@st.composite
def polys_in(draw, names, max_terms=4, max_exp=2, coeffs=small_coeffs):
    terms = {}
    for _ in range(draw(st.integers(1, max_terms))):
        exp = tuple(draw(st.integers(0, max_exp)) for _ in names)
        terms[exp] = terms.get(exp, F(0)) + draw(coeffs)
    return MultiPoly(names, terms)


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_pseudo_remainder_against_sympy(data):
    sympy = pytest.importorskip("sympy")
    names = ("x", "y", "z")[: data.draw(st.sampled_from((2, 3)))]
    f = data.draw(polys_in(names, max_terms=5, max_exp=3))
    g = data.draw(polys_in(names, max_terms=4, max_exp=2))
    if g.is_zero():
        return
    theirs = sympy.prem(to_sympy(sympy, f), to_sympy(sympy, g), *map(sympy.Symbol, names))
    assert pseudo_remainder(f, g, "x") == from_sympy(sympy, theirs, names)


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


@st.composite
def univariate_gcd_pairs(draw):
    common = draw(polys_in(("x",), max_terms=3, max_exp=3))
    return common * draw(polys_in(("x",), max_exp=3)), common * draw(polys_in(("x",), max_exp=3))


@given(univariate_gcd_pairs())
@example((2 * x**2 + x, 2 * x**2 + 7 * x + 3))
@example((F(-1, 3) * x**2, F(1, 2) * x))
@settings(max_examples=60, deadline=None)
def test_univariate_gcd_against_sympy(pair):
    """The one normal form: sympy's gcd up to a unit, primitive over the
    integers with a positive leading coefficient."""
    sympy = pytest.importorskip("sympy")
    p, q = pair
    theirs = from_sympy(sympy, sympy.gcd(to_sympy(sympy, p), to_sympy(sympy, q)), ("x",))
    ours = gcd_multivariate(p, q)
    assert ours == primitive_integer(theirs)[0]
    assert ours.is_zero() or (ours.content == 1 and ours.ints[max(ours.ints)] > 0)


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


@given(small_polys())
@settings(max_examples=80, deadline=None)
def test_pass_through_kernels_keep_the_content(p):
    """Kernels that only move exponents hand the content on as it is:
    the same ``Fraction`` whenever no integer gcd moves into it."""
    results = []
    for var in VARIABLE_POOL:
        restriction = p.at_zero(var)
        assert restriction == p.substitute({var: 0})
        results.append(restriction)
        k = p.order_in(var) if p.ints else 0
        if k not in (0, INFINITE_ORDER):
            divided = p.divide_by_power(var, k)
            assert divided * MultiPoly.variable(var) ** k == p
            results.append(divided)
        results.append(p.derivative(var))
    if not p.is_zero():
        results.append(poly.dehomogenize(p, "w", {"x": "a", "y": "b"}))
        for chart in ("A", "B"):
            results.append(blow_up_chart(p, ("x", "y"), ("u", "v"), chart))
            results.append(poly.strict_transform(p, ("x", "y"), ("u", "v"), chart)[0])
            assert results[-1].content is results[-2].content is p.content
    for r in results:
        assert_canonical(r)
        if r.content == p.content:
            assert r.content is p.content


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
    image = compose(p, mapping)
    point = {v: data.draw(small_coeffs) for v in VARIABLE_POOL}
    values = {v: (m.evaluate(point) if isinstance(m, MultiPoly) else m) for v, m in mapping.items()}
    assert image.evaluate(point) == p.evaluate({**point, **values})
    shifted = p.shift({v: point[v] for v in mapped})
    assert_canonical(shifted)
    assert compose(shifted, {v: MultiPoly.variable(v) - point[v] for v in mapped}) == p
    constant = p.substitute(point)
    assert_canonical(constant)
    assert constant.is_constant() and constant.constant_value() == p.evaluate(point)
    for zero in (0, F(0), MultiPoly.zero()):
        image = p.substitute({v: zero for v in mapped})
        assert_canonical(image)
        assert image == p.substitute({v: MultiPoly.const(0) for v in mapped})
    assert_canonical(p.substitute({v: 0 for v in VARIABLE_POOL}))


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
    # evaluate refuses floats; the term-by-term oracle keeps the pinned values
    p = parse("(1/3)*x^3*y - (2/7)*x*y^2 + (5/11)*y^3 - x + 5")
    for point, value in (
        ({"x": 0.1 + 2j, "y": -1.5}, 3.901123376623377 + 0.6842857142857142j),
        ({"x": 0.25, "y": F(3, 7)}, 4.774893155314074 + 0j),
        ({"x": 1j, "y": 2}, 8.636363636363637 - 2.8095238095238093j),
    ):
        with pytest.raises(TypeError):
            p.evaluate(point)
        assert evaluate_by_terms(p, point) == value
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


# -- linear Poisson brackets -------------------------------------------------------

# so(3)*: {x, y} = z, {y, z} = x, {z, x} = y; w commutes with everything.
SO3 = {("x", "y"): ((1, "z"),), ("x", "z"): ((-1, "y"),), ("y", "z"): ((1, "x"),)}
# Not a Lie algebra (Jacobi fails), but a valid table with two constants on a pair.
TWO_TERM = {("x", "y"): ((2, "z"), (-3, "w")), ("w", "z"): ((1, "x"),)}
w = MultiPoly.variable("w")
z = MultiPoly.variable("z")


def bracket(f, g, structure):
    """{f, g}: the one pair of ``poisson_brackets``."""
    return poisson_brackets([f, g], structure)[0, 1]


def bracket_by_sympy(sympy, f, g, structure):
    """The bracket from sympy's derivatives of the two expressions."""
    sf, sg = to_sympy(sympy, f), to_sympy(sympy, g)
    total = sympy.Integer(0)
    for (a, b), consts in structure.items():
        sa, sb = sympy.Symbol(a), sympy.Symbol(b)
        cross = sympy.diff(sf, sa) * sympy.diff(sg, sb) - sympy.diff(sf, sb) * sympy.diff(sg, sa)
        total += sum(c * sympy.Symbol(v) for c, v in consts) * cross
    return from_sympy(sympy, sympy.expand(total), VARIABLE_POOL)


class TestPoissonBracket:
    def test_so3_coordinates(self):
        assert bracket(x, y, SO3) == z
        assert bracket(y, z, SO3) == x
        assert bracket(z, x, SO3) == y
        assert bracket(y, x, SO3) == -z
        assert bracket(x, x, SO3).is_zero()

    def test_so3_planted_values(self):
        assert bracket(x**2, y, SO3) == 2 * x * z
        assert bracket(x * y, z, SO3) == x**2 - y**2
        casimir = x**2 + y**2 + z**2
        for f in (x, y * z, x**3 - 2 * y + z):
            assert bracket(casimir, f, SO3).is_zero()

    def test_two_constants_on_a_pair(self):
        assert bracket(x, y, TWO_TERM) == 2 * z - 3 * w
        assert bracket(w * x, z * y, TWO_TERM) == w * z * (2 * z - 3 * w) + x * x * y

    def test_pair_orientation(self):
        flipped = {("y", "x"): ((-1, "z"),), ("z", "x"): ((1, "y"),), ("z", "y"): ((-1, "x"),)}
        f, g = x**2 * y - 3 * z, y * z + x
        assert bracket(f, g, flipped) == bracket(f, g, SO3)

    def test_rational_content(self):
        r = bracket(F(1, 3) * x**2, F(5, 2) * y, SO3)
        assert r == F(5, 3) * x * z
        assert r.content == F(5, 3) and r.ints == {(1, 1): 1}
        assert_canonical(bracket(F(-2, 9) * x * y + F(1, 6) * z, F(3, 4) * x - y, SO3))

    def test_missing_variables(self):
        assert bracket(w * x, y, SO3) == w * z
        assert bracket(w, x, SO3).is_zero()
        assert bracket(x**2, x**3 + w, SO3).is_zero()
        r = bracket(x, y**2, SO3)  # z occurs in neither input
        assert r == 2 * y * z and r.variables == ("y", "z")

    def test_zero_and_constants(self):
        for zero in (MultiPoly.zero(), MultiPoly.const(0)):
            assert bracket(zero, x * y, SO3) is MultiPoly.zero()
            assert bracket(x * y, zero, SO3) is MultiPoly.zero()
        assert bracket(MultiPoly.const(F(7, 3)), x, SO3).is_zero()
        assert bracket(x, y, {}).is_zero()

    @pytest.mark.parametrize("bad", [F(1, 2), F(2), 1.0, "1"])
    def test_rejects_non_integer_constants(self, bad):
        with pytest.raises(TypeError):
            bracket(x, y, {("x", "y"): ((bad, "z"),)})
        with pytest.raises(TypeError):
            bracket(w, w, {("x", "y"): ((1, "z"), (bad, "w"))})
        for polys in ([], [x], [x, y, z, w]):
            with pytest.raises(TypeError):
                poisson_brackets(polys, {("x", "y"): ((bad, "z"),)})

    def test_every_pair_of_a_list(self):
        polys = [x * y, z, MultiPoly.zero(), F(2, 3) * x + w, y**2]
        table = poisson_brackets(polys, SO3)
        assert list(table) == [(i, j) for i in range(5) for j in range(i + 1, 5)]
        for (i, j), value in table.items():
            assert value == bracket(polys[i], polys[j], SO3)
        assert table[0, 1] == x**2 - y**2 and table[1, 4] == -2 * x * y
        assert poisson_brackets([], SO3) == {} and poisson_brackets([x], SO3) == {}


@given(small_polys(), small_polys(), small_polys())
@example(x * y + F(1, 2) * z**2, y**2 - w * z, x * z + F(-3, 4))
@settings(max_examples=60, deadline=None)
def test_bracket_antisymmetry_and_jacobi(p, q, r):
    pq = bracket(p, q, SO3)
    assert_canonical(pq)
    assert pq == -bracket(q, p, SO3)
    assert bracket(p, p, SO3).is_zero()
    jacobi = (
        bracket(p, bracket(q, r, SO3), SO3)
        + bracket(q, bracket(r, p, SO3), SO3)
        + bracket(r, pq, SO3)
    )
    assert jacobi.is_zero()


@given(small_polys(), small_polys(), st.sampled_from((SO3, TWO_TERM)))
@example(x * y + F(1, 3) * z, w * x**2 - y, SO3)
@example(x * y + F(1, 3) * z, w * x**2 - y, TWO_TERM)
@settings(max_examples=60, deadline=None)
def test_bracket_against_sympy(p, q, structure):
    sympy = pytest.importorskip("sympy")
    r = bracket(p, q, structure)
    assert_canonical(r)
    assert r == bracket_by_sympy(sympy, p, q, structure)


# -- blow-up charts as exponent maps ------------------------------------------------


class TestBlowUpChart:
    def test_cusp_charts(self):
        cusp = s1**3 - 27 * s2**2
        u, v = MultiPoly.variable("u"), MultiPoly.variable("v")
        assert blow_up_chart(cusp, ("s1", "s2"), ("u", "v"), "A") == u**3 - 27 * u**2 * v**2
        assert blow_up_chart(cusp, ("s1", "s2"), ("u", "v"), "B") == u**3 * v**3 - 27 * v**2

    def test_unused_chart_coordinate_is_dropped(self):
        # chart A sees y only through v, chart B sees x only through u
        p = F(2, 3) * x**2 + 1
        assert blow_up_chart(p, ("x", "y"), ("u", "v"), "A") == parse("(2/3)*u^2 + 1")
        assert blow_up_chart(p, ("x", "y"), ("u", "v"), "B") == parse("(2/3)*u^2*v^2 + 1")
        assert blow_up_chart(y, ("x", "y"), ("u", "v"), "B") == MultiPoly.variable("v")

    def test_polynomial_free_of_the_coordinates_is_returned(self):
        p = w**2 - 3
        assert blow_up_chart(p, ("x", "y"), ("u", "v"), "A") is p
        assert blow_up_chart(MultiPoly.zero(), ("x", "y"), ("u", "v"), "B").is_zero()

    def test_chart_may_reuse_the_coordinate_names(self):
        p = x**2 + x * y**3
        assert blow_up_chart(p, ("x", "y"), ("x", "y"), "B") == x**2 * y**2 + x * y**4

    def test_chart_coordinate_already_in_use(self):
        with pytest.raises(ValueError, match="already occur"):
            blow_up_chart(x + w, ("x", "y"), ("w", "v"), "A")


CHART_NAMES = ("a", "m", "s", "u", "z")


@given(
    st.permutations(CHART_NAMES).flatmap(
        lambda names: st.tuples(st.just(names), polys_in((names[0], names[1], names[4]), 6, 3))
    ),
    st.sampled_from("AB"),
    st.just((0, 0)) | st.tuples(small_coeffs, small_coeffs),
)
@example((CHART_NAMES, parse("a^3 - 27*m^2 + (1/2)*z*a*m")), "A", (0, 0))
@example((CHART_NAMES, parse("a^3 - 27*m^2 + (1/2)*z*a*m")), "B", (F(-1, 3), 2))
@settings(max_examples=120, deadline=None)
def test_blow_up_chart_matches_substitution(case, chart, center):
    """Shift the center to the origin, then map exponents: the same as
    substituting the chart map, with the third variable left alone."""
    (x_name, y_name, u_name, v_name, _), p = case
    coords, chart_coords = (x_name, y_name), (u_name, v_name)
    pulled = blow_up_chart(p.shift(dict(zip(coords, center))), coords, chart_coords, chart)
    assert_canonical(pulled)
    assert pulled == compose(p, chart_substitution(coords, chart_coords, chart, center))


@given(small_polys(max_exp=3), st.sampled_from(VARIABLE_POOL), st.integers(0, 3))
@settings(max_examples=120, deadline=None)
def test_orders_and_exponent_shifts_match_extract_power(p, var, extra):
    v = MultiPoly.variable(var)
    p = p * v**extra
    k, cofactor = extract_power(p, v)
    assert p.order_in(var) == k
    restriction = p.at_zero(var)
    assert_canonical(restriction)
    assert restriction == p.substitute({var: F(0)})
    if p.is_zero():
        assert p.divide_by_power(var, 2).is_zero()
        return
    assert p.divide_by_power(var, k) == cofactor
    # a stripped polynomial and its radical have no coordinate line as a component
    orders, rest = strip_coordinate_lines(p)
    assert orders.get(var, 0) == k
    assert not rest.at_zero(var).is_zero() and not radical(rest).at_zero(var).is_zero()
    for j in range(k + 1):
        shifted = p.divide_by_power(var, j)
        assert_canonical(shifted)
        assert extract_power(shifted, v) == (k - j, cofactor)
        assert shifted * v**j == p
    with pytest.raises(NotDivisibleError):
        p.divide_by_power(var, k + 1)


# -- integer kernels for the substitution shapes, against the composition oracle ---

# zero, small and 60-70 bit rationals of both signs
kernel_values = st.one_of(
    st.just(F(0)),
    small_coeffs,
    st.builds(
        lambda n, d, sign: sign * F(n, d),
        st.integers(2**60, 2**70),
        st.integers(1, 2**70),
        st.sampled_from((1, -1)),
    ),
)
BIG = F(2**64 + 13, 2**61 - 1)


points = st.dictionaries(st.sampled_from(VARIABLE_POOL), kernel_values)
full_points = st.fixed_dictionaries({v: kernel_values for v in VARIABLE_POOL})


@given(small_polys(max_exp=4), points)
@example(parse("x^4*y - 3*x*y^2 + 7"), {"x": BIG, "w": F(-5)})
@settings(max_examples=120, deadline=None)
def test_shift_matches_the_composition(p, point):
    # the point may name variables that do not occur in p
    shifted = p.shift(point)
    assert_canonical(shifted)
    mapping = {v: MultiPoly.variable(v) + c for v, c in point.items()}
    assert shifted == compose(p, mapping)
    assert shifted.shift({v: -c for v, c in point.items()}) == p


@st.composite
def plane_polys(draw):
    """Integer polynomials in x and y of degree up to 6 in each."""
    terms = draw(st.dictionaries(
        st.tuples(st.integers(0, 6), st.integers(0, 6)), st.integers(-9, 9), max_size=8
    ))
    return MultiPoly(("x", "y"), terms)


@given(plane_polys(), kernel_values, kernel_values)
@example(parse("x^6*y^5 - 3*x*y^2 + 7"), BIG, -BIG)
@example(parse("y^3 - 2*y"), F(0), F(3, 7))
@example(MultiPoly.zero(), F(1, 2), F(0))
@settings(max_examples=150, deadline=None)
def test_two_jet_at_is_the_jet_of_the_shift(p, px, py):
    """``two_jet_at`` is ``two_jet`` of the shifted polynomial times the
    positive factor d1^D1 d2^D2 / content(p) that its docstring states."""
    jet = two_jet_at(p, ("x", "y"), (px, py))
    shifted = p.shift({"x": px, "y": py})
    oracle = two_jet(shifted, "x", "y")
    factor = F(px.denominator ** max(p.degree_in("x"), 0) * py.denominator ** max(p.degree_in("y"), 0))
    if not p.is_zero():
        factor = factor / p.content * shifted.content
    assert factor > 0 or p.is_zero()
    assert jet == {k: factor * c for k, c in oracle.items()}
    assert all(type(c) is int for c in jet.values())


def test_two_jet_at_refuses_a_variable_off_the_plane():
    assert two_jet_at(parse("x*y - 3"), ("y", "x"), (F(1), F(3)))[0, 0] == 0
    with pytest.raises(ValueError, match="not among"):
        two_jet_at(parse("x*z"), ("x", "y"), (F(0), F(0)))


@given(small_polys(max_exp=4), points, full_points)
@example(parse("w^3*x - (1/2)*x*y^2 + y"), {"y": -BIG, "z": BIG}, dict.fromkeys(VARIABLE_POOL, BIG))
@settings(max_examples=120, deadline=None)
def test_specialization_matches_evaluate_and_the_composition(p, values, point):
    special = p.substitute(values)
    assert_canonical(special)
    assert special == compose(p, values)
    assert not set(values) & set(special.variables)
    assert special.evaluate(point) == p.evaluate({**point, **values})
    full = p.substitute(point)
    assert full.is_constant() and full.constant_value() == p.evaluate(point)


@given(small_polys(max_exp=4), points.filter(bool))
@example(parse("x^4*y - 3*x*y^2 + 7"), {"x": BIG, "y": F(0)})
@settings(max_examples=60, deadline=None)
def test_specialization_against_sympy_subs(p, values):
    sympy = pytest.importorskip("sympy")
    subs = {sympy.Symbol(v): sympy.Rational(c.numerator, c.denominator) for v, c in values.items()}
    expected = from_sympy(sympy, sympy.expand(to_sympy(sympy, p).subs(subs)), VARIABLE_POOL)
    assert p.substitute(values) == expected


PROJECTIVE = ("A0", "A1", "A2")


@st.composite
def forms(draw, extra):
    """A form in (A0, A1, A2), its coefficients polynomials in ``extra``."""
    degree = draw(st.integers(0, 5))
    terms = {}
    for _ in range(draw(st.integers(1, 5))):
        a = draw(st.integers(0, degree))
        b = draw(st.integers(0, degree - a))
        exp = (a, b, degree - a - b) + tuple(draw(st.integers(0, 3)) for _ in extra)
        terms[exp] = terms.get(exp, F(0)) + draw(kernel_values)
    return MultiPoly(PROJECTIVE + extra, terms)


@given(st.sampled_from(((), ("alpha",), ("b", "w"))).flatmap(forms), st.sampled_from((0, 1, 2)))
@example(parse("A1^3 - 2*A1*A2^2"), 0)
@example(parse("alpha*A0*A2 + A1^2"), 1)
@example(parse("A0^2*A1*(A1^2 - 2*A2^2)"), 0)
@settings(max_examples=120, deadline=None)
def test_dehomogenize_matches_the_substitution(form, index):
    from fibrant.planecurve import AffineChart

    chart = AffineChart.standard(index)
    others = [v for v in PROJECTIVE if v != PROJECTIVE[index]]
    mapping = dict(zip(others, map(MultiPoly.variable, chart.coords)))
    mapping[PROJECTIVE[index]] = MultiPoly.const(1)
    affine = chart.dehomogenize(form)
    assert_canonical(affine)
    assert affine == compose(form, mapping)
    # by Euler's identity deg Q * Q = sum A_i dQ/dA_i, the partials of a form
    # vanish together on a line only if it divides the form: not once stripped
    rest = strip_coordinate_lines(form)[1]
    gradient = [rest.derivative(v).at_zero(PROJECTIVE[index]) for v in PROJECTIVE]
    assert gcd_all(gradient).is_zero() == all(rest.degree_in(v) <= 0 for v in PROJECTIVE)


def test_dehomogenize_adds_terms_of_a_polynomial_that_is_no_form():
    p = parse("A0^2*A1 + A1 - 3*A0*A2 + 3*A2")
    assert poly.dehomogenize(p, "A0", {"A1": "u", "A2": "v"}) == 2 * MultiPoly.variable("u")
    assert poly.dehomogenize(parse("A0 - 1"), "A0", {}).is_zero()


def test_dehomogenize_refuses_to_merge_variables():
    with pytest.raises(ValueError, match="merges"):
        poly.dehomogenize(parse("A0*A1 + u"), "A0", {"A1": "u"})


@given(
    st.permutations(CHART_NAMES).flatmap(
        lambda names: st.tuples(st.just(names), polys_in((names[0], names[1], names[4]), 6, 3))
    ),
    st.sampled_from("AB"),
)
@example((CHART_NAMES, parse("a^3 - 27*m^2 + (1/2)*z*a*m")), "A")
@example((CHART_NAMES, parse("a^2 - 2*m^2")), "B")
@example((CHART_NAMES, parse("z^2 + 1")), "A")
@settings(max_examples=150, deadline=None)
def test_strict_transform_matches_pull_back_and_division(case, chart):
    (x_name, y_name, u_name, v_name, _), p = case
    coords, chart_coords = (x_name, y_name), (u_name, v_name)
    exc = u_name if chart == "A" else v_name
    total = blow_up_chart(p, coords, chart_coords, chart)
    strict, multiplicity = poly.strict_transform(p, coords, chart_coords, chart)
    assert_canonical(strict)
    assert strict == total.divide_by_power(exc, total.order_in(exc))
    # the power of the exceptional coordinate is the multiplicity at the origin
    degrees = [sum(dict(zip(p.variables, e)).get(v, 0) for v in coords) for e in p.ints]
    assert total.order_in(exc) == min(degrees, default=INFINITE_ORDER)
    if not p.is_zero():
        assert multiplicity == min(degrees)
        # restricted to the exceptional divisor it is the tangent cone, never 0
        assert not strict.at_zero(exc).is_zero()


def roots_by_lifting(p):
    """The rational roots of p by the general path: the zero root split off
    as a power of x, then the p-adic candidates of the rest, confirmed by
    Horner evaluation."""
    k, rest = extract_power(p, x)
    roots = [(F(0), k)] if k else []
    if not rest.is_constant():
        sf = poly._int_coeffs(radical(rest).ints)
        candidates = upoly.padic_candidates(sf)
        roots += [(c, 1) for c in candidates if not upoly.horner_pq(sf, c.numerator, c.denominator)]
    return sorted(roots)


@given(kernel_values.filter(bool), kernel_values)
@example(BIG, -BIG)
@example(F(-(2**61) - 1, 3), F(0))
@settings(max_examples=120, deadline=None)
def test_linear_rational_roots_match_the_padic_path(c1, c0):
    p = c1 * x + c0
    roots, cofactor = rational_roots(p)
    assert roots == roots_by_lifting(p) == [(-c0 / c1, 1)]
    assert_canonical(cofactor)
    assert cofactor == MultiPoly.const(c1)
    assert cofactor * (x + c0 / c1) == p
