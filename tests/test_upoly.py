"""The dense univariate integer kernels against sympy, on products of
planted factors: the squarefree decomposition, the gcd and rational roots."""

import math
from fractions import Fraction as F

import pytest
from hypothesis import example, given, settings, strategies as st

from fibrant import upoly

sympy = pytest.importorskip("sympy")
X = sympy.Symbol("x")

# Roots up to the height of the ladder rung 1000003/999983.
roots = st.builds(F, st.integers(-1000003, 1000003), st.integers(1, 999983))
# Factors of degree 2-3 with small coefficients and no rational root
# forced: x^2 + c with c > 0 has none, the cubic may have one.
nonlinear = st.one_of(
    st.integers(1, 50).map(lambda c: [c, 0, 1]),
    st.lists(st.integers(-9, 9), min_size=4, max_size=4).filter(lambda f: f[-1] and f[0]),
)


def expr(f: list):
    return sum(c * X**i for i, c in enumerate(f))


def coeffs(e) -> list:
    return [int(c) for c in reversed(sympy.Poly(e, X).all_coeffs())]


def linear(r: F) -> list:
    return [-r.numerator, r.denominator]


def mul(f: list, g: list) -> list:
    out = [0] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        for j, b in enumerate(g):
            out[i + j] += a * b
    return out


@st.composite
def planted(draw):
    """(f, the planted (root, multiplicity) pairs): a nonzero content times
    products of linear and nonlinear factors, each to a power 1-4, and a
    power of x."""
    content = draw(st.integers(-30, 30).filter(bool))
    picked = draw(st.dictionaries(roots, st.integers(1, 4), max_size=3))
    f = [content]
    for r, m in picked.items():
        for _ in range(m):
            f = mul(f, linear(r))
    for factor, m in draw(st.lists(st.tuples(nonlinear, st.integers(1, 4)), max_size=2)):
        for _ in range(m):
            f = mul(f, factor)
    zero = draw(st.integers(0, 2))
    return [0] * zero + f, picked


@given(planted())
@example(([0, 0, -12, 12, 27, -18, -9], {F(1): 2, F(-3, 2): 1}))
@settings(max_examples=60, deadline=None)
def test_squarefree_decomposition_against_sqf_list(case):
    f, _ = case
    if len(f) < 2:
        return
    content, factors = upoly.squarefree_decomposition(f)
    theirs_content, theirs = sympy.sqf_list(expr(f), X)
    assert factors and factors[-1] != [1]
    assert all(a[-1] > 0 and math.gcd(*a) == 1 for a in factors)
    ours = {m: a for m, a in enumerate(factors, 1) if len(a) > 1}
    # sympy's factors are primitive too, up to a sign it moves into the content
    theirs = {m: coeffs(g) for g, m in theirs}
    signs = 1
    for m, g in theirs.items():
        if g[-1] < 0:
            theirs[m] = [-c for c in g]
            signs *= (-1) ** m
    assert ours == theirs
    assert content == theirs_content * signs


@given(planted(), planted(), st.integers(-6, 6).filter(bool))
@example(([0, 1], {}), ([0, 0, 2], {}), 3)
@settings(max_examples=60, deadline=None)
def test_gcd_against_sympy(first, second, scale):
    f, g = first[0], [scale * c for c in second[0]]
    common = mul(f, [1, 2, 3])
    ours = upoly.gcd(common, mul(g, [1, 2, 3]))
    theirs = sympy.gcd(sympy.Poly(expr(common), X), sympy.Poly(expr(mul(g, [1, 2, 3])), X))
    assert ours == coeffs(theirs.as_expr())
    assert ours[-1] > 0


@given(planted())
@example(([5, 7], {}))
@example(([0, 0, 0, -3], {}))
@settings(max_examples=60, deadline=None)
def test_rational_roots_against_sympy(case):
    f, picked = case
    found, cofactor = upoly.rational_roots(f)
    theirs = sympy.roots(sympy.Poly(expr(f), X), filter="Q")
    assert found == sorted((F(int(r.p), int(r.q)), m) for r, m in theirs.items())
    assert dict(found).keys() >= picked.keys()
    assert all(dict(found)[r] >= m for r, m in picked.items())
    # f = cofactor * prod (x - r)^m, and the cofactor has no rational root left
    product = sympy.Integer(1)
    for r, m in found:
        product *= (X - sympy.Rational(r.numerator, r.denominator)) ** m
    assert sympy.expand(expr(cofactor) * product - expr(f)) == 0
    assert not sympy.roots(sympy.Poly(expr(cofactor), X), filter="Q")


def test_gcd_falls_back_to_the_prs(monkeypatch):
    """With GCDHEU failing at every point, the PRS gives the same gcd of a
    planted pair, content included."""
    common = mul([6], mul(linear(F(1000003, 999983)), [1, 0, 1]))
    f, g = mul(common, [3, -1, 4]), mul(common, linear(F(-2, 7)))
    assert upoly.gcd(f, g) == common
    calls = []
    prs = upoly._prs_gcd
    monkeypatch.setattr(upoly, "_heu_gcd", lambda f, g: None)
    monkeypatch.setattr(upoly, "_prs_gcd", lambda f, g: calls.append(1) or prs(f, g))
    assert upoly.gcd(f, g) == common
    assert upoly.gcd([-c for c in f], g) == common
    assert calls == [1, 1]


def test_exact_quotient():
    f = mul([2, -3, 1], [5, 0, 7])
    assert upoly.exact_quotient(f, [5, 0, 7]) == [2, -3, 1]
    assert upoly.exact_quotient(f, [1, 1]) is None
    assert upoly.exact_quotient(f, [2, 0, 14]) is None
    assert upoly.exact_quotient([], [1, 1]) == []
    assert upoly.exact_quotient([1, 1], [1, 0, 1]) is None
