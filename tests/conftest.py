"""Shared fixtures and independent oracles for the test suite."""

import re
from fractions import Fraction
from typing import NamedTuple

import pytest

from fibrant import blowup, lagrange, weierstrass
from fibrant.planecurve import AffineChart, normalize_projective, rational_singular_points
from fibrant.poly import (
    INFINITE_ORDER,
    MultiPoly,
    exact_divide,
    extract_power,
    gcd_multivariate,
    resultant,
    strict_transform,
)
from fibrant.weierstrass import (
    KodairaType,
    NeedsNormalizationError,
    NotInTableError,
    OrderTriple,
)


def fulton_multiplicity(f, g, x="x", y="y", depth=0):
    """Independent intersection-number oracle (recursive reduction).

    Uses only the axioms of the local intersection number: translation to
    the origin is the caller's job; degenerate (infinite) intersections
    return float('inf').
    """
    if depth > 1000:
        raise RuntimeError("oracle recursion blown")
    if f.is_zero() or g.is_zero():
        return float("inf")
    fv = f.evaluate({v: Fraction(0) for v in f.variables})
    gv = g.evaluate({v: Fraction(0) for v in g.variables})
    if fv != 0 or gv != 0:
        return 0
    fr = f.substitute({y: Fraction(0)})
    gr = g.substitute({y: Fraction(0)})
    if fr.is_zero() and gr.is_zero():
        return float("inf")
    if fr.is_zero() or (not gr.is_zero() and fr.degree_in(x) > gr.degree_in(x)):
        f, g, fr, gr = g, f, gr, fr
    if gr.is_zero():
        h = exact_divide(g, MultiPoly.variable(y))
        k, _ = extract_power(fr, MultiPoly.variable(x))
        return int(k) + fulton_multiplicity(f, h, x, y, depth + 1)
    r, s = fr.degree_in(x), gr.degree_in(x)
    if r > s:
        f, g, fr, gr, r, s = g, f, gr, fr, s, r
    lcf = fr.as_univariate(x)[-1].constant_value()
    lcg = gr.as_univariate(x)[-1].constant_value()
    gnew = g - (lcg / lcf) * MultiPoly.variable(x) ** (s - r) * f
    return fulton_multiplicity(f, gnew, x, y, depth + 1)


def intersection_multiplicity(f, g, point, vars):
    """Local intersection number of two curves at a rational point, by a
    shear and a resultant (oracle only).

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
        if common.evaluate({v: values[v] for v in common.variables}) == 0:
            raise ValueError("curves share a component through the point")
        f, g = exact_divide(f, common), exact_divide(g, common)
    xv, yv = MultiPoly.variable(x), MultiPoly.variable(y)
    for lam in range(65):
        F, G = (compose(p, {x: xv + lam * yv}) for p in (f, g))
        qx = px - lam * py
        if _shear_is_generic(F, G, x, y, qx, py):
            k, _ = extract_power(resultant(F, G, y), xv - MultiPoly.const(qx))
            return k
    raise RuntimeError("no generic shear found (unexpected)")


def _shear_is_generic(F, G, x, y, qx, qy) -> bool:
    if F.degree_in(y) < 1 or G.degree_in(y) < 1:
        return False
    for P in (F, G):
        lc = P.as_univariate(y)[-1]
        if lc.evaluate({v: qx for v in lc.variables}) == 0:
            return False
    # the line x = qx must meet the curves in no common point besides (qx, qy)
    h = gcd_multivariate(F.substitute({x: qx}), G.substitute({x: qx}))
    if h.is_constant():
        return True
    k, rest = extract_power(h, MultiPoly.variable(y) - qy)
    return k >= 1 and rest.is_constant()


def compose(p, mapping):
    """p with variables replaced by polynomials or rationals, term by term
    in ``MultiPoly`` arithmetic (oracle only; ``substitute`` takes
    rational images alone)."""
    images = {v: m if isinstance(m, MultiPoly) else MultiPoly.const(m) for v, m in mapping.items()}
    total = MultiPoly.zero()
    for exp, coeff in p.terms.items():
        term = MultiPoly.const(coeff)
        for v, k in zip(p.variables, exp):
            term = term * images.get(v, MultiPoly.variable(v)) ** k
        total = total + term
    return total


def parse(text: str, params: dict | None = None) -> MultiPoly:
    """Read the text format of ``format_poly`` (integers, identifiers, those
    of ``params`` as their rationals, ``+ - * / ^`` and parentheses), adding
    a sum pairwise: n terms cost O(n log n) term copies, not O(n^2)."""
    tokens, params = re.findall(r"\d+|[A-Za-z_][\w'~]*|\S", text)[::-1], params or {}

    def take(*expected):
        return tokens and tokens[-1] in expected and tokens.pop()

    def expr():
        terms, sign = [], take("+", "-") or "+"
        while sign:
            terms.append(-term() if sign == "-" else term())
            sign = take("+", "-")
        while len(terms) > 1:
            odd = terms[-1:] if len(terms) % 2 else []
            terms = [p + q for p, q in zip(terms[::2], terms[1::2])] + odd
        return terms[0]

    def term():
        result = factor()
        while op := take("*", "/"):
            rhs = factor()
            result = result * (rhs if op == "*" else 1 / rhs.constant_value())
        return result

    def factor():
        base = atom()
        return base ** int(tokens.pop()) if take("^") else base

    def atom():
        token = tokens.pop()
        if token == "(":
            inner = expr()
            assert take(")"), f"unbalanced parentheses in {text!r}"
            return inner
        if token.isdigit():
            return MultiPoly.const(int(token))
        return MultiPoly.const(params[token]) if token in params else MultiPoly.variable(token)

    result = expr()
    assert not tokens, f"trailing input in {text!r}"
    return result


def evaluate_by_terms(p: MultiPoly, point: dict):
    """p at ``point``, term by term in the arithmetic of its values: exact
    at rationals, floating at floats or complex numbers (oracle only;
    ``MultiPoly.evaluate`` takes rationals alone)."""
    total = 0
    for exp, coeff in p.terms.items():
        for v, e in zip(p.variables, exp):
            coeff *= point[v] ** e
        total += coeff
    return total


def projective_rational_singular_points(curve: MultiPoly, charts=range(3)):
    """Rational singular points of a reduced plane projective curve in the
    union of the standard affine ``charts``, and the eliminants those
    charts leave for candidates that are not rational (oracle only: the
    pipeline searches one chart, after certifying the line A0 = 0)."""
    seen = set()
    points = []
    eliminants = []
    for idx in charts:
        chart = AffineChart.standard(idx)
        affine = chart.dehomogenize(curve)
        if affine.is_constant():
            continue
        locus = rational_singular_points(affine, chart)
        if locus.eliminant_squarefree is not None:
            eliminants.append(locus.eliminant_squarefree)
        for point in locus.points:
            key = normalize_projective(chart.to_projective(point))
            if key in seen:
                continue
            seen.add(key)
            points.append(key)
    return points, eliminants


class SmoothnessCertificate(NamedTuple):
    smooth: bool
    witness_point: tuple = None
    witness_eliminant: MultiPoly = None
    reason: str = ""


def smoothness_certificate(f, chart):
    """Prove f = f_x = f_y = 0 has no solution on the chart, or exhibit one
    (oracle only).

    A nonvanishing constant partial derivative certifies smoothness
    immediately; otherwise the singular locus is solved, a nonzero
    constant eliminant being a proof of smoothness (the resultant lies in
    the elimination ideal of the system).
    """
    for d in (f.derivative(v) for v in chart.coords):
        if d.is_constant() and not d.is_zero():
            return SmoothnessCertificate(True, reason="constant nonzero partial derivative")
    locus = rational_singular_points(f, chart)
    if locus.points:
        return SmoothnessCertificate(False, locus.points[0], reason="rational singular point")
    if locus.eliminant_squarefree is not None and locus.eliminant_squarefree.total_degree() > 0:
        reason = "non-rational candidate singular locus (eliminant shown)"
        return SmoothnessCertificate(False, None, locus.eliminant_squarefree, reason)
    return SmoothnessCertificate(True, reason="singular-system eliminant is a nonzero constant")


def two_jet(germ: MultiPoly, x: str, y: str) -> dict:
    """The 2-jet of ``germ`` at the origin of the (x, y) plane as
    {(i, j): c_ij} for i + j <= 2, absent terms 0 (oracle only: the
    pipeline reads ``poly.two_jet_at``).

    The c_ij are the integer coefficients of the stored form, a positive
    multiple of the rational ones, so every test of signs, ratios or
    vanishing reads them directly."""
    jet = dict.fromkeys([(0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2)], 0)
    for e, c in germ.ints.items():
        if sum(e) <= 2:
            powers = dict(zip(germ.variables, e))
            jet[powers.get(x, 0), powers.get(y, 0)] = c
    return jet


class SingularPointReport(NamedTuple):
    """Classification of one singular rational point; ``kind`` is node,
    cusp, tacnode, multiplicity_ge_3 or unresolved."""

    point: tuple
    kind: str
    multiplicity: int = 0


def classify_double_point(f: MultiPoly, point, vars) -> SingularPointReport:
    """Classify a singular rational point of the curve f = 0.

    Nodes are recognized by a nondegenerate quadratic part.  A rank-one
    quadratic part triggers blow-ups of the germ (depth limit 3): a strict
    transform that is smooth over the center certifies a cusp, a nodal
    strict transform a tacnode.  Deeper singularities are reported as
    unresolved, and multiplicity >= 3 is labeled as such (oracle only).
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


def j_invariant(fib):
    """Functional invariant a^3 / Delta of a fibration as unreduced and
    reduced pairs (oracle only)."""
    num, den = fib.a**3, fib.discriminant()
    g = gcd_multivariate(num, den)
    reduced = (exact_divide(num, g), exact_divide(den, g))
    return {"unreduced": (num, den), "reduced": reduced, "gcd": g}


def cross(u, v):
    """The cross product of two 3-vectors of numbers or polynomials."""
    return (
        u[1] * v[2] - u[2] * v[1],
        u[2] * v[0] - u[0] * v[2],
        u[0] * v[1] - u[1] * v[0],
    )


def directional_derivative(h, params):
    """Exact dh/dt along the Euler-Poisson flow, the bracket {h, H3} with
    the energy (flow oracle)."""
    return lagrange.lie_poisson_bracket(h, lagrange.first_integrals(params)[2])


def euler_poisson_rhs(point, params):
    """Numeric tangent vector of the Euler-Poisson flow at a phase point
    (oracle only).

    ``point`` is a pair of complex 3-vectors (Gamma, Omega); the result
    is (Gamma', M') with M = (Omega1, Omega2, (1+m) Omega3) and
    chi = (0, 0, -1).
    """
    gamma, omega = point
    m = complex(Fraction(params.m))
    mom = (omega[0], omega[1], (1 + m) * omega[2])
    chi = (0.0, 0.0, -1.0)
    return cross(gamma, omega), tuple(a + b for a, b in zip(cross(mom, omega), cross(gamma, chi)))


def chart_substitution(coords, chart_coords, chart, center=(0, 0)):
    """The chart map of a point blow-up as an explicit substitution.

    The parent coordinates (x, y) = ``coords`` as polynomials in the chart
    coordinates (u, v): (c1 + u, c2 + u*v) in chart "A" and
    (c1 + u*v, c2 + v) in chart "B", for the center (c1, c2).
    """
    u, v = (MultiPoly.variable(c) for c in chart_coords)
    c1, c2 = (MultiPoly.const(c) for c in center)
    if chart == "A":
        return {coords[0]: c1 + u, coords[1]: c2 + u * v}
    return {coords[0]: c1 + u * v, coords[1]: c2 + v}


def sylvester_det_fractions(rows):
    """Determinant by plain fraction Gaussian elimination (oracle only)."""
    n = len(rows)
    m = [[Fraction(v) for v in row] for row in rows]
    det = Fraction(1)
    for k in range(n):
        pivot_row = next((i for i in range(k, n) if m[i][k] != 0), None)
        if pivot_row is None:
            return Fraction(0)
        if pivot_row != k:
            m[k], m[pivot_row] = m[pivot_row], m[k]
            det = -det
        det *= m[k][k]
        inv = 1 / m[k][k]
        for i in range(k + 1, n):
            factor = m[i][k] * inv
            if factor == 0:
                continue
            for j in range(k, n):
                m[i][j] -= factor * m[k][j]
    return det


def bareiss_resultant(f, g, var):
    """Sylvester resultant as a Bareiss determinant over polynomials (oracle only).

    Fraction-free elimination on the Sylvester matrix of MultiPoly
    entries: every step is one exact division by the previous pivot.
    """
    fc, gc = f.as_univariate(var)[::-1], g.as_univariate(var)[::-1]
    m, n = len(fc) - 1, len(gc) - 1
    size = m + n
    zero = MultiPoly.zero()
    rows = [[zero] * i + fc + [zero] * (size - m - 1 - i) for i in range(n)]
    rows += [[zero] * i + gc + [zero] * (size - n - 1 - i) for i in range(m)]
    sign, prev = 1, MultiPoly.const(1)
    for k in range(size - 1):
        if rows[k][k].is_zero():
            swap = next((i for i in range(k + 1, size) if not rows[i][k].is_zero()), None)
            if swap is None:
                return zero
            rows[k], rows[swap] = rows[swap], rows[k]
            sign = -sign
        pivot = rows[k][k]
        for i in range(k + 1, size):
            for j in range(k + 1, size):
                rows[i][j] = exact_divide(rows[i][j] * pivot - rows[i][k] * rows[k][j], prev)
            rows[i][k] = zero
        prev = pivot
    return rows[-1][-1] if sign == 1 else -rows[-1][-1]


def to_sympy(sympy, p):
    """A MultiPoly as a sympy expression."""
    return sum(
        (
            sympy.Rational(c.numerator, c.denominator)
            * sympy.Mul(*(sympy.Symbol(v) ** k for v, k in zip(p.variables, e)))
            for e, c in p.terms.items()
        ),
        sympy.Integer(0),
    )


def from_sympy(sympy, expr, names):
    """A sympy expression in the given variable names as a MultiPoly."""
    poly = sympy.Poly(expr, *(sympy.Symbol(v) for v in names))
    return MultiPoly(names, {m: Fraction(int(c.p), int(c.q)) for m, c in poly.terms()})


def kodaira_classify_oracle(t):
    """Kodaira's table as a chain of row tests (oracle only)."""
    L, K, N = t.as_tuple()
    if L >= 4 and K >= 6:
        raise NeedsNormalizationError(f"triple {t.as_tuple()} needs (4,6,12) reduction")
    if N == 0:
        return KodairaType("I0")
    if L == 0 and K == 0 and N >= 1:
        return KodairaType(f"I{N}")
    if L >= 1 and K == 1 and N == 2:
        return KodairaType("II")
    if L == 1 and K >= 2 and N == 3:
        return KodairaType("III")
    if L >= 2 and K == 2 and N == 4:
        return KodairaType("IV")
    if L >= 2 and K >= 3 and N == 6:
        return KodairaType("I0*")
    if L == 2 and K == 3 and N >= 7:
        return KodairaType(f"I{N - 6}*")
    if L >= 3 and K == 4 and N == 8:
        return KodairaType("IV*")
    if L == 3 and K >= 5 and N == 9:
        return KodairaType("III*")
    if L >= 4 and K == 5 and N == 10:
        return KodairaType("II*")
    raise NotInTableError(f"triple {t.as_tuple()} matches no Kodaira row")


def reduce_triple_mod_oracle(t):
    """Subtract (4, 6, 12) one step at a time (oracle only)."""
    L, K, N = t.as_tuple()
    while L >= 4 and K >= 6 and N >= 12:
        if L == INFINITE_ORDER and K == INFINITE_ORDER and N == INFINITE_ORDER:
            raise ValueError("discriminant vanishes identically along the divisor")
        L = L - 4 if L != INFINITE_ORDER else L
        K = K - 6 if K != INFINITE_ORDER else K
        N = N - 12 if N != INFINITE_ORDER else N
    return OrderTriple(L, K, N)


@pytest.fixture(autouse=True)
def fresh_caches():
    """Every test builds the contact tower, parses the section templates and
    looks up its Kodaira and collision data and their JSON itself, so a
    test that patches their internals sees them run."""
    blowup._contact_tower.cache_clear()
    lagrange._section_templates.cache_clear()
    for cached in (
        weierstrass.kodaira_classify, weierstrass.collide,
        weierstrass.KodairaType.to_json, weierstrass.DualGraph.to_json,
    ):
        cached.cache_clear()


@pytest.fixture(scope="session")
def lagrange_fibration():
    return lagrange.build_global_sections(1)


@pytest.fixture(scope="session")
def quintic_alpha1(lagrange_fibration):
    _, residual = lagrange_fibration.reduced_discriminant()
    return residual


# -- acceptance criterion bookkeeping ---------------------------------------

_CRITERIA = {}


@pytest.fixture
def criterion():
    def record(number, description, passed):
        _CRITERIA[number] = (description, bool(passed))
        return passed

    return record


def pytest_terminal_summary(terminalreporter):
    if not _CRITERIA:
        return
    terminalreporter.section("acceptance criteria")
    for number in sorted(_CRITERIA):
        description, passed = _CRITERIA[number]
        status = "PASS" if passed else "FAIL"
        terminalreporter.write_line(f"  criterion {number:>2}: {status}  {description}")
