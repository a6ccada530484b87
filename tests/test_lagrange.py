import itertools
import random
from fractions import Fraction as F

import pytest
from conftest import cross, directional_derivative, euler_poisson_rhs, evaluate_by_terms, parse

from fibrant import lagrange
from fibrant.lagrange import (
    E3_STRUCTURE,
    GAMMA_VARS,
    MOMENTUM_VARS,
    Level,
    TopParams,
    build_global_sections,
    casimirs,
    first_integrals,
    g2_g3,
    integral_residuals,
    lie_poisson_bracket,
    quotient_cubic_residual,
    sample_fiber_point,
    shifted_weierstrass_residual,
    tau_transform,
)
from fibrant.poly import MultiPoly, extract_power, poisson_brackets


PHASE_VARS = GAMMA_VARS + MOMENTUM_VARS

# The two global sections with alpha as a variable, as literal text: the
# oracle of the sections that ``lagrange`` derives from ``g2_g3``.
SECTION_TEXTS = (
    "A0^2*(A0^2 + (1/12)*A2^2 - (alpha/4)*A0*A1)",
    "A0^3*((1/216)*A2^3 + (1/16)*A0*A1^2 - (alpha/48)*A0*A1*A2"
    " - (1/6)*A0^2*A2 + (alpha^2/16)*A0^3)",
)


def random_phase_poly(rng, terms=4, denominators=(1,)):
    out = MultiPoly.zero()
    for _ in range(terms):
        powers = {rng.choice(PHASE_VARS): rng.randint(0, 2) for _ in range(2)}
        variables = tuple(powers)
        exponents = tuple(powers[v] for v in variables)
        coeff = F(rng.randint(-3, 3), rng.choice(denominators))
        out = out + MultiPoly(variables, {exponents: coeff})
    return out


# -- the bracket and the flow written out with cross products (oracle only) ----


def _dot(u, v):
    return u[0] * v[0] + u[1] * v[1] + u[2] * v[2]


def _grad(poly, names):
    return tuple(poly.derivative(v) for v in names)


def bracket_by_cross_products(f, g):
    """{F,G} = -<G, grad_M F x grad_G G> - <G, grad_G F x grad_M G>
    - <M, grad_M F x grad_M G>, with G the gravity vector and M the momentum."""
    gamma = tuple(MultiPoly.variable(v) for v in GAMMA_VARS)
    mom = tuple(MultiPoly.variable(v) for v in MOMENTUM_VARS)
    f_g, f_m = _grad(f, GAMMA_VARS), _grad(f, MOMENTUM_VARS)
    g_g, g_m = _grad(g, GAMMA_VARS), _grad(g, MOMENTUM_VARS)
    return -(
        _dot(gamma, cross(f_m, g_g))
        + _dot(gamma, cross(f_g, g_m))
        + _dot(mom, cross(f_m, g_m))
    )


def euler_poisson_rhs_poly(params):
    """(Gamma', M') = (Gamma x Omega, M x Omega + Gamma x chi) as six
    polynomials in (Gamma, M), with chi = (0, 0, -1)."""
    gamma = tuple(MultiPoly.variable(v) for v in GAMMA_VARS)
    mom = tuple(MultiPoly.variable(v) for v in MOMENTUM_VARS)
    omega = (mom[0], mom[1], F(1, 1 + params.m) * mom[2])
    chi = (MultiPoly.const(0), MultiPoly.const(0), MultiPoly.const(-1))
    dmom = tuple(a + b for a, b in zip(cross(mom, omega), cross(gamma, chi)))
    return cross(gamma, omega) + dmom


def derivative_along_field(h, params):
    return sum(
        (h.derivative(n) * c for n, c in zip(PHASE_VARS, euler_poisson_rhs_poly(params))),
        MultiPoly.zero(),
    )


class TestBracket:
    def test_casimirs_commute_with_integrals(self):
        params = TopParams(m=F(1, 2))
        c1, c2 = casimirs()
        for h in first_integrals(params):
            assert lie_poisson_bracket(c1, h).is_zero()
            assert lie_poisson_bracket(c2, h).is_zero()

    def test_casimirs_commute_with_random_polys(self):
        rng = random.Random(7)
        c1, c2 = casimirs()
        for _ in range(8):
            f = random_phase_poly(rng)
            assert lie_poisson_bracket(c1, f).is_zero()
            assert lie_poisson_bracket(c2, f).is_zero()

    def test_antisymmetry(self):
        rng = random.Random(11)
        for _ in range(6):
            f = random_phase_poly(rng)
            g = random_phase_poly(rng)
            assert lie_poisson_bracket(f, f).is_zero()
            assert (lie_poisson_bracket(f, g) + lie_poisson_bracket(g, f)).is_zero()

    def test_leibniz(self):
        rng = random.Random(13)
        for _ in range(4):
            f, g, h = (random_phase_poly(rng, terms=3) for _ in range(3))
            lhs = lie_poisson_bracket(f, g * h)
            rhs = lie_poisson_bracket(f, g) * h + g * lie_poisson_bracket(f, h)
            assert lhs == rhs

    def test_matches_cross_product_oracle(self):
        rng = random.Random(17)
        nonzero = 0
        for _ in range(120):
            f = random_phase_poly(rng, denominators=(1, 2, 3, 7))
            g = random_phase_poly(rng, denominators=(1, 5))
            expected = bracket_by_cross_products(f, g)
            assert lie_poisson_bracket(f, g) == expected
            nonzero += not expected.is_zero()
        assert nonzero >= 50

    def test_list_kernel_matches_cross_product_oracle(self):
        """Every pair of a list of 2-5 polynomials, in one kernel call."""
        rng = random.Random(23)
        nonzero = 0
        for _ in range(40):
            polys = [random_phase_poly(rng, denominators=(1, 2, 3)) for _ in range(rng.randint(2, 5))]
            table = poisson_brackets(polys, E3_STRUCTURE)
            assert list(table) == list(itertools.combinations(range(len(polys)), 2))
            for (i, j), value in table.items():
                expected = bracket_by_cross_products(polys[i], polys[j])
                assert value == expected
                nonzero += not expected.is_zero()
        assert nonzero >= 150

    def test_coordinate_pairs_match_oracle(self):
        nonzero = 0
        for a, b in itertools.combinations(PHASE_VARS, 2):
            xa, xb = MultiPoly.variable(a), MultiPoly.variable(b)
            expected = bracket_by_cross_products(xa, xb)
            assert lie_poisson_bracket(xa, xb) == expected
            assert lie_poisson_bracket(xb, xa) == -expected
            nonzero += not expected.is_zero()
        assert nonzero == 9  # the three pairs of G commute

    @pytest.mark.parametrize("m", [F(0), F(1, 2), F(3)])
    def test_full_involution(self, m):
        integrals = first_integrals(TopParams(m=m))
        for i in range(4):
            for j in range(i + 1, 4):
                assert lie_poisson_bracket(integrals[i], integrals[j]).is_zero()


class TestFirstIntegrals:
    def test_h1(self):
        h1 = first_integrals(TopParams())[0]
        assert h1 == parse("G1^2 + G2^2 + G3^2")

    def test_h2_any_m(self):
        for m in (F(0), F(1, 2), F(5)):
            h2 = first_integrals(TopParams(m=m))[1]
            assert h2 == parse("G1*M1 + G2*M2 + G3*M3")

    def test_h4_at_m_zero(self):
        h4 = first_integrals(TopParams(m=F(0)))[3]
        assert h4 == MultiPoly.variable("M3")


class TestEulerPoisson:
    def test_upright_equilibrium(self):
        m = F(1, 2)
        point = ((0, 0, 1), (0, 0, 1))  # Gamma = e3, Omega = e3
        dgamma, dmom = euler_poisson_rhs(point, TopParams(m=m))
        assert all(abs(c) < 1e-15 for c in dgamma + dmom)

    def test_gravity_torque(self):
        point = ((1, 0, 0), (0, 0, 0))
        dgamma, dmom = euler_poisson_rhs(point, TopParams())
        assert dgamma == (0, 0, 0)
        assert dmom == (0, 1, 0)

    @pytest.mark.parametrize("m", [F(0), F(1, 2), F(3)])
    def test_symbolic_conservation(self, m):
        params = TopParams(m=m)
        for h in first_integrals(params):
            assert directional_derivative(h, params).is_zero()

    @pytest.mark.parametrize("m", [F(0), F(5, 7), F(-3, 2), F(9)])
    def test_coordinates_move_along_the_field(self, m):
        params = TopParams(m=m)
        field = euler_poisson_rhs_poly(params)
        for name, component in zip(PHASE_VARS, field):
            assert directional_derivative(MultiPoly.variable(name), params) == component

    @pytest.mark.parametrize("m", [F(0), F(5, 7), F(-3, 2), F(9)])
    def test_derivative_of_random_polys_along_field(self, m):
        params = TopParams(m=m)
        rng = random.Random(19)
        for _ in range(12):
            h = random_phase_poly(rng, denominators=(1, 2, 3))
            expected = derivative_along_field(h, params)
            assert directional_derivative(h, params) == expected
            assert h.is_constant() or not expected.is_zero()

    def test_finite_difference_oracle(self):
        params = TopParams(m=F(1, 2))
        h3 = first_integrals(params)[2]
        rng = random.Random(3)
        eps = 1e-4
        names = PHASE_VARS
        for _ in range(20):
            point = {n: rng.uniform(-1, 1) for n in names}
            rhs = [evaluate_by_terms(p, point) for p in euler_poisson_rhs_poly(params)]

            def along(t):
                shifted = {n: point[n] + t * v for n, v in zip(names, rhs)}
                return evaluate_by_terms(h3, shifted)

            deriv = (along(-2 * eps) - 8 * along(-eps) + 8 * along(eps) - along(2 * eps)) / (
                12 * eps
            )
            assert abs(deriv) < 1e-10


class TestParameterMaps:
    def test_tau_trivial_m(self):
        assert tau_transform(1, 1, 0) == (F(2), F(2))

    def test_tau_zero(self):
        assert tau_transform(0, 0, F(7, 3)) == (F(0), F(0))

    def test_tau_generic(self):
        assert tau_transform(1, 2, F(1, 2)) == (F(6), F(5))

    def test_g2_g3_constant_terms(self):
        assert g2_g3(0, 0, 1) == (F(1), F(1, 16))

    def test_g2_g3_generic(self):
        assert g2_g3(1, 2, 2) == (F(5, 6), F(-29, 432))

    def test_sections_are_derived_from_g2_g3(self):
        assert lagrange._section_templates() == tuple(map(parse, SECTION_TEXTS))

    def test_sections_restrict_to_g2_g3(self):
        alpha = F(3, 2)
        fib = build_global_sections(alpha)
        a1v, a2v = F(2, 5), F(-7, 3)
        g2, g3 = g2_g3(a1v, a2v, alpha)
        point = {"A0": F(1), "A1": a1v, "A2": a2v}
        assert fib.a.evaluate(point) == g2
        assert fib.b.evaluate(point) == g3


class TestGlobalSections:
    def test_vertex_values(self):
        alpha = F(3)
        fib = build_global_sections(alpha)
        origin = {"A0": F(1), "A1": F(0), "A2": F(0)}
        assert fib.a.evaluate(origin) == 1
        assert fib.b.evaluate(origin) == alpha**2 / 16

    def test_line_divisibility(self):
        fib = build_global_sections(1)
        line = {"A0": F(0), "A1": F(3), "A2": F(-2)}
        assert fib.a.evaluate(line) == 0 and fib.b.evaluate(line) == 0
        k_a, a_tilde = extract_power(fib.a, MultiPoly.variable("A0"))
        k_b, _ = extract_power(fib.b, MultiPoly.variable("A0"))
        assert (k_a, k_b) == (2, 3)
        assert a_tilde == parse(
            "A0^2 + (1/12)*A2^2 - (alpha/4)*A0*A1", {"alpha": F(1)}
        )


class TestSampler:
    def test_residuals_over_seeds(self):
        level = Level(F(3, 5), F(2, 7), F(1, 3), F(1, 2))
        for seed in range(100):
            point = sample_fiber_point(level, seed=seed)
            worst = max(abs(r) for r in integral_residuals(point, level))
            assert worst < 1e-10

    def test_h4_zero_pins_omega3(self):
        point = sample_fiber_point(Level(F(1), 0, F(1, 3), F(1, 2)), seed=5)
        assert point[1][2] == 0

    def test_deterministic(self):
        level = Level(F(3, 5), F(2, 7), F(1, 3), F(1, 2))
        assert sample_fiber_point(level, seed=9) == sample_fiber_point(level, seed=9)


class TestQuotientCubic:
    @pytest.mark.parametrize(
        "h3,h4,a",
        [
            (F(3, 5), F(2, 7), F(1, 3)),
            (F(-1, 2), F(1), F(2, 5)),
            (F(7, 4), F(-3, 8), F(-1, 6)),
        ],
    )
    def test_residuals(self, h3, h4, a):
        level = Level(h3, h4, a, F(1, 2))
        for seed in range(100):
            point = sample_fiber_point(level, seed=seed)
            assert abs(quotient_cubic_residual(point, level)) < 1e-9
            assert abs(shifted_weierstrass_residual(point, level)) < 1e-9

    def test_upright_equilibrium_closed_form(self):
        # Gamma = e3, Omega = h4 e3 lies on the level set with
        # a = (1+m) h4 and h3 = (1+m) h4^2 / 2 - 1
        m, h4 = F(1, 2), F(2, 3)
        a = (1 + m) * h4
        h3 = (1 + m) * h4**2 / 2 - 1
        point = ((0, 0, 1), (0, 0, complex(F(2, 3))))
        level = Level(h3, h4, a, m)
        assert max(abs(r) for r in integral_residuals(point, level)) < 1e-15
        assert abs(quotient_cubic_residual(point, level)) < 1e-12
