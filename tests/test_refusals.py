"""Each refusal of the package's constructors and kernels, with its
exception type and message, for inputs no pipeline run produces."""

import re

import pytest

from fibrant.planecurve import AffineChart, normalize_projective, rational_singular_points
from fibrant.poly import INFINITE_ORDER, MultiPoly, extract_power, rational_roots
from fibrant.weierstrass import OrderTriple, WeierstrassFibration, normalize_condition_C

A0, A1 = MultiPoly.variable("A0"), MultiPoly.variable("A1")
X, Y = MultiPoly.variable("x"), MultiPoly.variable("y")


REFUSALS = [
    pytest.param(
        lambda: WeierstrassFibration(A0**3, A0**6), ValueError,
        "a must be homogeneous of degree 4 (or zero)", id="fibration-degree-of-a",
    ),
    pytest.param(
        lambda: WeierstrassFibration(A0**4, A0**5 + A1), ValueError,
        "b must be homogeneous of degree 6 (or zero)", id="fibration-degree-of-b",
    ),
    pytest.param(
        lambda: WeierstrassFibration(X**4, A0**6), ValueError,
        "sections must live in ('A0', 'A1', 'A2')", id="fibration-variables",
    ),
    pytest.param(
        lambda: normalize_condition_C(MultiPoly.zero(), MultiPoly.zero(), "u"), ValueError,
        "both sections vanish identically", id="condition-C-zero-sections",
    ),
    pytest.param(
        lambda: MultiPoly(("x",), {(1,): 0.5}), TypeError,
        "expected int or Fraction coefficient, got float", id="multipoly-float-coefficient",
    ),
    pytest.param(
        lambda: MultiPoly(("x", "y"), {(1,): 1}), ValueError,
        "exponent arity does not match variable list", id="multipoly-arity",
    ),
    pytest.param(
        lambda: MultiPoly(("x",), {(-1,): 1}), ValueError,
        "negative exponent", id="multipoly-negative-exponent",
    ),
    pytest.param(
        lambda: MultiPoly(("x", "x"), {(1, 1): 1}), ValueError,
        "duplicate variable names in ('x', 'x')", id="multipoly-duplicate-variables",
    ),
    pytest.param(
        lambda: setattr(X, "variables", ("z",)), AttributeError,
        "MultiPoly is immutable", id="multipoly-immutable",
    ),
    pytest.param(
        lambda: X.constant_value(), ValueError,
        "polynomial is not constant", id="constant-value-of-a-variable",
    ),
    pytest.param(
        lambda: X.derivative(""), ValueError,
        "invalid variable name ''", id="derivative-empty-name",
    ),
    pytest.param(
        lambda: extract_power(X, MultiPoly.const(2)), ValueError,
        "extract_power needs a non-constant divisor", id="extract-power-constant",
    ),
    pytest.param(
        lambda: rational_roots(MultiPoly.zero()), ValueError,
        "zero polynomial has every root", id="rational-roots-zero",
    ),
    pytest.param(
        lambda: rational_roots(X * Y - 1), ValueError,
        "rational_roots expects a univariate polynomial", id="rational-roots-bivariate",
    ),
    pytest.param(
        lambda: normalize_projective((0, 0, 0)), ValueError,
        "projective point cannot be zero", id="normalize-projective-zero",
    ),
    pytest.param(
        lambda: rational_singular_points(MultiPoly.zero(), AffineChart(0, ("x", "y"))),
        ValueError, "zero polynomial is not a curve", id="singular-points-of-zero",
    ),
]


@pytest.mark.parametrize("call,error,message", REFUSALS)
def test_refusal(call, error, message):
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        call()


@pytest.mark.parametrize(
    "triple,consistent",
    [
        ((INFINITE_ORDER, INFINITE_ORDER, INFINITE_ORDER), True),
        ((INFINITE_ORDER, INFINITE_ORDER, 7), False),
        ((1, INFINITE_ORDER, 3), True),
    ],
)
def test_is_consistent_with_infinite_orders(triple, consistent):
    assert OrderTriple(*triple).is_consistent() is consistent
