import functools
import operator
from fractions import Fraction as F

import pytest
from hypothesis import Phase, assume, example, given, settings, strategies as st

from conftest import (
    classify_double_point,
    compose,
    fulton_multiplicity,
    intersection_multiplicity,
    parse,
    smoothness_certificate,
    to_sympy,
)
from fibrant.planecurve import (
    AffineChart,
    NonReducedCurveError,
    rational_singular_points,
)
from fibrant.poly import (
    MultiPoly,
    equal_up_to_unit,
    extract_power,
    is_squarefree,
)


def nonrational_count(locus):
    """Number of distinct non-rational singular points certified."""
    if locus.eliminant_squarefree is None:
        return 0
    return locus.eliminant_squarefree.total_degree()


def _lines(var):
    """Up to two lines var = c, or pairs (var - c)^2 = d with d no square."""
    rational = st.integers(-3, 3).map(lambda c: var - c)
    pair = st.tuples(st.integers(-2, 2), st.sampled_from([2, 3, 5, -1]))
    irrational = pair.map(lambda cd: (var - cd[0]) ** 2 - cd[1])
    return st.lists(st.one_of(rational, irrational), max_size=2)


def _curve(degree):
    """A random curve of degree at most ``degree`` with small coefficients."""
    exponents = [(i, j) for i in range(degree + 1) for j in range(degree + 1 - i)]
    coeffs = st.lists(st.integers(-3, 3), min_size=len(exponents), max_size=len(exponents))
    return coeffs.map(lambda cs: MultiPoly(("x", "y"), dict(zip(exponents, cs))))


CORES = st.one_of(st.just(MultiPoly.const(1)), _curve(2), _curve(3))


U0 = AffineChart.standard(0)
U1 = AffineChart.standard(1)
U2 = AffineChart.standard(2)

PHI_TILDE = "A0^2 + (1/12)*A2^2 - (alpha/4)*A0*A1"
PSI_TILDE = (
    "(1/216)*A2^3 + (1/16)*A0*A1^2 - (alpha/48)*A0*A1*A2"
    " - (1/6)*A0^2*A2 + (alpha^2/16)*A0^3"
)


class TestRationalSingularPoints:
    def test_quintic_nodes_alpha1(self, quintic_alpha1):
        curve = U0.dehomogenize(quintic_alpha1)
        locus = rational_singular_points(curve, U0)
        assert locus.points == [(F(-1), F(-7, 4)), (F(1), F(9, 4))]
        assert {classify_double_point(curve, p, U0.coords).kind for p in locus.points} == {"node"}

    def test_quintic_cusp_eliminant_alpha1(self, quintic_alpha1):
        locus = rational_singular_points(U0.dehomogenize(quintic_alpha1), U0)
        quartic = parse("3*a2^4 - a2^3 + 72*a2^2 - 108*a2 + 27*17")
        assert equal_up_to_unit(locus.eliminant_squarefree, quartic)
        assert is_squarefree(locus.eliminant_squarefree)
        assert nonrational_count(locus) == 4

    def test_smooth_conic(self):
        locus = rational_singular_points(parse("x^2 + y^2 - 1"), AffineChart(0, ("x", "y")))
        assert locus.points == []
        assert nonrational_count(locus) == 0

    def test_non_reduced_rejected(self):
        with pytest.raises(NonReducedCurveError):
            rational_singular_points(parse("(x - y)^2"), AffineChart(0, ("x", "y")))

    def test_line_crossings_found(self):
        # union of a vertical line and a conic through (2, 1)
        f = parse("(x - 2)*(x^2 + y^2 - 5)")
        locus = rational_singular_points(f, AffineChart(0, ("x", "y")))
        pts = set(locus.points)
        assert (F(2), F(1)) in pts and (F(2), F(-1)) in pts

    @pytest.mark.parametrize(
        "curve,eliminant",
        [
            pytest.param("y*(x^2 - 2)", "y", id="irrational-vertical-lines"),
            pytest.param("(x^2 - 2)*(x - y)", "y^2 - 2", id="irrational-vertical-lines-core"),
            pytest.param("(y^2 - 2)*(x - y)", "y^2 - 2", id="irrational-horizontal-lines-core"),
            pytest.param("(x^2 - 2)*(y^2 - 3)", "y^2 - 3", id="irrational-line-grid"),
            pytest.param("y*(x^2 + y - 2)", "y", id="rational-horizontal-line"),
            pytest.param("x*(y^2 + x - 2)", "y^2 - 2", id="rational-vertical-line"),
            pytest.param("(x^2 - 2 - y)*(x^2 - 2 + y)", "y", id="core-nodes-at-rational-y"),
        ],
    )
    def test_nonrational_singular_points_reach_the_eliminant(self, curve, eliminant):
        sympy = pytest.importorskip("sympy")
        f = parse(curve)
        locus = rational_singular_points(f, AffineChart(0, ("x", "y")))
        assert locus.points == []
        assert equal_up_to_unit(locus.eliminant_squarefree, parse(eliminant))
        # every singular point has its y-coordinate among the eliminant's roots
        x, y = sympy.symbols("x y")
        g = to_sympy(sympy, f)
        elim = to_sympy(sympy, locus.eliminant_squarefree)
        solutions = sympy.solve([g, sympy.diff(g, x), sympy.diff(g, y)], [x, y], dict=True)
        assert solutions
        for sol in solutions:
            assert sympy.simplify(elim.subs(y, sol[y])) == 0


# no shrink phase: one Groebner basis of a planted curve takes up to 0.4 s
@settings(max_examples=10, deadline=None, phases=(Phase.explicit, Phase.reuse, Phase.generate))
@given(horizontal=_lines(MultiPoly.variable("y")), vertical=_lines(MultiPoly.variable("x")), core=CORES)
@example(horizontal=[parse("y - 1")], vertical=[parse("x - 2")], core=MultiPoly.const(1))
@example(horizontal=[parse("y")], vertical=[parse("x^2 - 2")], core=MultiPoly.const(1))
@example(horizontal=[parse("y^2 - 2")], vertical=[parse("x - 1")], core=parse("x^2 + y^2 - 5"))
def test_planted_singular_points_against_groebner_oracle(horizontal, vertical, core):
    """Lines of constant y and x, rational or not, times a conic or cubic:
    the points are the rational solutions of f = f_x = f_y = 0, and the
    eliminant is squarefree, vanishes at the y of every other solution and
    has a rational root only where such a solution has a rational y.  The
    oracle projects with sympy's lex Groebner basis (grevlex, then FGLM),
    whose last element generates the elimination ideal in y."""
    sympy = pytest.importorskip("sympy")
    f = functools.reduce(operator.mul, horizontal + vertical, core)
    x, y = sympy.symbols("x y")
    system = [to_sympy(sympy, p) for p in (f, f.derivative("x"), f.derivative("y"))]
    assume(not f.is_zero() and all(m == 1 for _, m in sympy.sqf_list(system[0])[1]))
    locus = rational_singular_points(f, AffineChart(0, ("x", "y")))

    points, elsewhere, irrational_y = [], set(), []
    basis = sympy.groebner(system, x, y, order="grevlex")
    if not basis.exprs[-1].is_number:
        basis = basis.fglm("lex")
        for factor, _ in sympy.factor_list(basis.exprs[-1], y)[1]:
            if sympy.degree(factor, y) > 1:
                irrational_y.append(factor)
                continue
            y0 = sympy.solve(factor, y)[0]
            over = sympy.gcd_list([p.subs(y, y0) for p in system])
            for piece, _ in sympy.factor_list(over, x)[1]:
                if sympy.degree(piece, x) == 1:
                    points.append((F(str(sympy.solve(piece, x)[0])), F(str(y0))))
                else:
                    elsewhere.add(F(str(y0)))
    assert locus.points == sorted(points)
    if locus.eliminant_squarefree is None:
        assert not elsewhere and not irrational_y
        return
    assert is_squarefree(locus.eliminant_squarefree)
    elim = to_sympy(sympy, locus.eliminant_squarefree)
    assert all(sympy.rem(elim, factor, y) == 0 for factor in irrational_y)
    roots = sympy.Poly(elim, y).ground_roots() if elim.has(y) else {}
    assert {F(str(r)) for r in roots} == elsewhere


class TestClassifyDoublePoint:
    def test_cuspidal_discriminant_germ(self):
        report = classify_double_point(parse("s1^3 - 27*s2^2"), (0, 0), ("s1", "s2"))
        assert report.kind == "cusp"

    def test_node(self):
        assert classify_double_point(parse("x^2 - y^2"), (0, 0), ("x", "y")).kind == "node"

    def test_tacnode(self):
        report = classify_double_point(parse("x^2 - y^4"), (0, 0), ("x", "y"))
        assert report.kind == "tacnode"
        # oracle: one blow-up of x^2 - y^4 leaves a plain node
        total = compose(parse("x^2 - y^4"), {"x": MultiPoly.variable("x") * MultiPoly.variable("y")})
        k, strict = extract_power(total, MultiPoly.variable("y"))
        assert k == 2
        assert classify_double_point(strict, (0, 0), ("x", "y")).kind == "node"

    def test_unit_factor_invariance(self):
        f = parse("x^2 - y^3")
        unit = parse("1 + x + 7*y")  # nonvanishing at the origin
        assert classify_double_point(f, (0, 0), ("x", "y")).kind == "cusp"
        assert classify_double_point(f * unit, (0, 0), ("x", "y")).kind == "cusp"

    def test_triple_point(self):
        report = classify_double_point(parse("x^3 - y^3 + x^4"), (0, 0), ("x", "y"))
        assert report.kind == "multiplicity_ge_3" and report.multiplicity == 3

    def test_smooth_point_rejected(self):
        with pytest.raises(ValueError):
            classify_double_point(parse("x - y^2"), (0, 0), ("x", "y"))

    def test_off_curve_rejected(self):
        with pytest.raises(ValueError, match="does not lie on the curve"):
            classify_double_point(parse("x^2 - y^2 + 1"), (0, 0), ("x", "y"))
        with pytest.raises(ValueError, match="vanishes identically"):
            classify_double_point(MultiPoly.zero(), (0, 0), ("x", "y"))


class TestIntersectionMultiplicity:
    def test_transverse_lines(self):
        x, y = MultiPoly.variable("x"), MultiPoly.variable("y")
        assert intersection_multiplicity(x, y, (0, 0), vars=("x", "y")) == 1

    def test_section_divisors_contact_at_infinity(self):
        phi = U1.dehomogenize(parse(PHI_TILDE, {"alpha": F(1)}))
        psi = U1.dehomogenize(parse(PSI_TILDE, {"alpha": F(1)}))
        m = intersection_multiplicity(phi, psi, (0, 0), vars=U1.coords)
        assert m == 2
        assert fulton_multiplicity(phi, psi, "u", "v") == 2

    def test_quintic_line_tangency(self, quintic_alpha1):
        # the residual quintic meets the line A0 = 0 at two points; the
        # restriction -(1/64) A1^2 A2^3 forces contact orders 2 and 3
        line = MultiPoly.variable("u")
        q1 = U1.dehomogenize(quintic_alpha1)
        q2 = U2.dehomogenize(quintic_alpha1)
        m_010 = intersection_multiplicity(q1, line, (0, 0), vars=U1.coords)
        m_001 = intersection_multiplicity(q2, line, (0, 0), vars=U2.coords)
        assert m_001 == 2
        assert m_010 == 3
        assert fulton_multiplicity(q1, line, "u", "v") == m_010
        assert fulton_multiplicity(q2, line, "u", "v") == m_001

    def test_symmetry(self):
        f = parse("y - x^2")
        g = parse("y + x^3")
        a = intersection_multiplicity(f, g, (0, 0), vars=("x", "y"))
        b = intersection_multiplicity(g, f, (0, 0), vars=("x", "y"))
        assert a == b == 2
        assert fulton_multiplicity(f, g) == 2

    def test_transverse_iff_one(self):
        f = parse("y - x")
        g = parse("y + 2*x")
        assert intersection_multiplicity(f, g, (0, 0), vars=("x", "y")) == 1

    def test_common_component_rejected(self):
        f = parse("(x - y)*(x + y)")
        g = parse("(x - y)*(x + 2*y)")
        with pytest.raises(ValueError):
            intersection_multiplicity(f, g, (0, 0), vars=("x", "y"))


class TestSmoothness:
    def test_degree4_section_smooth_constant_partial(self):
        phi0 = U0.dehomogenize(parse(PHI_TILDE, {"alpha": F(1)}))
        cert = smoothness_certificate(phi0, U0)
        assert cert.smooth and "constant" in cert.reason

    def test_degree6_section_smooth_on_chart(self):
        psi0 = U0.dehomogenize(parse(PSI_TILDE, {"alpha": F(1)}))
        cert = smoothness_certificate(psi0, U0)
        assert cert.smooth

    def test_division_identity_behind_smoothness(self):
        # the singular system of the degree-6 section reduces to a cubic
        # and a quadratic in a2 whose division identity has the linear
        # remainder below, so the system is inconsistent
        alpha = MultiPoly.variable("alpha")
        a2 = MultiPoly.variable("a2")
        cubic = 8 * a2**3 - 3 * alpha**2 * a2**2 - 288 * a2 + 108 * alpha**2
        quadratic = 4 * a2**2 - alpha**2 * a2 - 48
        quotient = 2 * a2 - F(1, 4) * alpha**2
        remainder = -(F(1, 4) * alpha**4 + 192) * a2 + 96 * alpha**2
        assert cubic == quadratic * quotient + remainder

    def test_witness_point(self):
        cert = smoothness_certificate(parse("x^2 + y^2"), AffineChart(0, ("x", "y")))
        assert not cert.smooth
        assert tuple(cert.witness_point) == (F(0), F(0))


class TestCharts:
    def test_dehomogenize_divides_exactly(self):
        p = parse("A0^2*A1 + A2^3")
        f = U1.dehomogenize(p)
        assert f == parse("u^2 + v^3")

    def test_projective_round_trip(self):
        assert U1.to_projective((F(1, 2), F(3))) == (F(1, 2), F(1), F(3))
