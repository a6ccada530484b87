"""Lagrange-top front end: Poisson structure, first integrals, and the
family of plane cubics swept out by the energy-momentum values.

Phase-space polynomials live in the six variables (G1, G2, G3, M1, M2,
M3) for the body-frame gravity direction and angular momentum.  The
inertia normalization is J1 = J2 = 1 and J3 = 1 + m, with the center of
mass along the symmetry axis and chi = (0, 0, -1), so the angular
velocity is Omega = (M1, M2, M3/(1+m)).

The quotient of an energy-momentum level set by its circle action is an
affine cubic; ``tau_transform`` and ``g2_g3`` carry the level values to
the cubic's short Weierstrass coefficients, and ``build_global_sections``
compactifies the family into a fibration over the projective plane.
"""

from __future__ import annotations

import cmath
import random
from dataclasses import dataclass
from fractions import Fraction

from .poly import MultiPoly, parse
from .weierstrass import WeierstrassFibration

GAMMA_VARS = ("G1", "G2", "G3")
MOMENTUM_VARS = ("M1", "M2", "M3")


@dataclass(frozen=True)
class TopParams:
    """Symmetric-top parameters: m = (J3 - J2)/J1, Casimir level a."""

    m: Fraction = Fraction(0)
    a_cas: Fraction = Fraction(0)

    def __post_init__(self):
        if 1 + self.m == 0:
            raise ValueError("1 + m must be nonzero")

    @property
    def alpha(self) -> Fraction:
        return -2 * self.a_cas


def _grad(poly: MultiPoly, names) -> tuple:
    return tuple(poly.derivative(v) for v in names)


def _cross(u, v):
    return (
        u[1] * v[2] - u[2] * v[1],
        u[2] * v[0] - u[0] * v[2],
        u[0] * v[1] - u[1] * v[0],
    )


def _dot(u, v):
    return u[0] * v[0] + u[1] * v[1] + u[2] * v[2]


def lie_poisson_bracket(f: MultiPoly, g: MultiPoly) -> MultiPoly:
    """Lie-Poisson bracket on the dual of the Euclidean Lie algebra.

    {F,G} = -<G, grad_M F x grad_G G> - <G, grad_G F x grad_M G>
            - <M, grad_M F x grad_M G>
    with G the gravity vector and M the momentum vector.
    """
    gamma = tuple(MultiPoly.variable(v) for v in GAMMA_VARS)
    mom = tuple(MultiPoly.variable(v) for v in MOMENTUM_VARS)
    f_g, f_m = _grad(f, GAMMA_VARS), _grad(f, MOMENTUM_VARS)
    g_g, g_m = _grad(g, GAMMA_VARS), _grad(g, MOMENTUM_VARS)
    return -(
        _dot(gamma, _cross(f_m, g_g))
        + _dot(gamma, _cross(f_g, g_m))
        + _dot(mom, _cross(f_m, g_m))
    )


def casimirs() -> tuple:
    """C1 = <Gamma, Gamma> and C2 = <Gamma, M>."""
    gamma = tuple(MultiPoly.variable(v) for v in GAMMA_VARS)
    mom = tuple(MultiPoly.variable(v) for v in MOMENTUM_VARS)
    return _dot(gamma, gamma), _dot(gamma, mom)


def first_integrals(params: TopParams) -> tuple:
    """The four commuting integrals (H1, H2, H3, H4) in (Gamma, M)."""
    m = params.m
    g1, g2, g3 = (MultiPoly.variable(v) for v in GAMMA_VARS)
    m1, m2, m3 = (MultiPoly.variable(v) for v in MOMENTUM_VARS)
    h1 = g1**2 + g2**2 + g3**2
    h2 = g1 * m1 + g2 * m2 + g3 * m3
    h3 = (
        Fraction(1, 2) * (m1**2 + m2**2 + Fraction(1, 1 + m) * m3**2)
        - g3
    )
    h4 = Fraction(1, 1 + m) * m3
    return h1, h2, h3, h4


def euler_poisson_rhs_poly(params: TopParams) -> tuple:
    """The vector field (Gamma', M') = (Gamma x Omega, M x Omega + Gamma x chi)
    as six polynomials in (Gamma, M), with chi = (0, 0, -1)."""
    m = params.m
    gamma = tuple(MultiPoly.variable(v) for v in GAMMA_VARS)
    mom = tuple(MultiPoly.variable(v) for v in MOMENTUM_VARS)
    omega = (mom[0], mom[1], Fraction(1, 1 + m) * mom[2])
    chi = (MultiPoly.const(0), MultiPoly.const(0), MultiPoly.const(-1))
    dgamma = _cross(gamma, omega)
    dmom = tuple(
        a + b for a, b in zip(_cross(mom, omega), _cross(gamma, chi))
    )
    return dgamma + dmom


def euler_poisson_rhs(point, params: TopParams) -> tuple:
    """Numeric tangent vector at a phase point given as (Gamma, Omega).

    ``point`` is a pair of complex 3-vectors (Gamma, Omega); the result
    is (Gamma', M') with M = (Omega1, Omega2, (1+m) Omega3).
    """
    gamma, omega = point
    m = complex(Fraction(params.m))
    mom = (omega[0], omega[1], (1 + m) * omega[2])
    chi = (0.0, 0.0, -1.0)
    return _cross(gamma, omega), tuple(
        a + b for a, b in zip(_cross(mom, omega), _cross(gamma, chi))
    )


def directional_derivative(h: MultiPoly, params: TopParams) -> MultiPoly:
    """Derivative of an integral along the equations of motion (exact)."""
    rhs = euler_poisson_rhs_poly(params)
    names = GAMMA_VARS + MOMENTUM_VARS
    total = MultiPoly.zero()
    for name, component in zip(names, rhs):
        total = total + h.derivative(name) * component
    return total


# -- parameter transforms ------------------------------------------------------


def tau_transform(h3, h4, m) -> tuple:
    """Map energy-momentum values to cubic parameters (a1, a2)."""
    h3, h4, m = Fraction(h3), Fraction(h4), Fraction(m)
    return 2 * (1 + m) * h4, 2 * h3 + (1 + m) * m * h4**2


def g2_g3(a1, a2, alpha) -> tuple:
    """Short Weierstrass coefficients of the depressed quotient cubic."""
    a1, a2, alpha = Fraction(a1), Fraction(a2), Fraction(alpha)
    g2 = 1 + a2**2 / 12 - alpha / 4 * a1
    g3 = (
        a2**3 / 216
        + a1**2 / 16
        - alpha / 48 * a1 * a2
        - a2 / 6
        + alpha**2 / 16
    )
    return g2, g3


def build_global_sections(alpha) -> WeierstrassFibration:
    """Compactify the cubic family over the plane: sections of degrees 4, 6.

    The degree-4 section restricts on the affine chart A0 != 0 to g2 and
    the degree-6 one to g3 (in the coordinates a1 = A1/A0, a2 = A2/A0).
    """
    alpha = Fraction(alpha)
    phi = parse(
        "A0^2*(A0^2 + (1/12)*A2^2 - (alpha/4)*A0*A1)", {"alpha": alpha}
    )
    psi = parse(
        "A0^3*((1/216)*A2^3 + (1/16)*A0*A1^2 - (alpha/48)*A0*A1*A2"
        " - (1/6)*A0^2*A2 + (alpha^2/16)*A0^3)",
        {"alpha": alpha},
    )
    return WeierstrassFibration(phi, psi, alpha=alpha)


# -- numeric level-set sampling --------------------------------------------------


class SamplingError(RuntimeError):
    """No nondegenerate sample found within the retry budget."""


def sample_fiber_point(h3, h4, a_cas, m, seed=0, tol=1e-10, retries=100):
    """Complex phase point (Gamma, Omega) on a joint level set.

    Construction: Gamma3 and a complex angle parametrize Gamma with
    <Gamma, Gamma> = 1 exactly; Omega3 is pinned by the momentum integral
    and (Omega1, Omega2) solve the remaining linear-plus-quadratic system,
    which is solvable over C away from a measure-zero set of draws.
    Deterministic for a fixed seed.
    """
    h3f, h4f, af, mf = (complex(Fraction(v)) for v in (h3, h4, a_cas, m))
    rng = random.Random(seed)
    for _ in range(retries):
        gamma3 = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
        theta = complex(rng.uniform(0, 6.28318530717958647), rng.uniform(-0.5, 0.5))
        r2 = 1 - gamma3 * gamma3
        if abs(r2) < 1e-6:
            continue
        r = cmath.sqrt(r2)
        gamma = (r * cmath.cos(theta), r * cmath.sin(theta), gamma3)
        omega3 = h4f
        c = af - (1 + mf) * gamma3 * omega3
        rho = 2 * (h3f + gamma3) - (1 + mf) * omega3 * omega3
        lam = c / r2
        mu2 = rho / r2 - lam * lam
        mu = cmath.sqrt(mu2)
        omega1 = lam * gamma[0] - mu * gamma[1]
        omega2 = lam * gamma[1] + mu * gamma[0]
        point = (gamma, (omega1, omega2, omega3))
        if max(abs(x) for x in integral_residuals(point, h3, h4, a_cas, m)) < tol:
            return point
    raise SamplingError("no nondegenerate sample within retry budget")


def integral_residuals(point, h3, h4, a_cas, m):
    """|H_i(point) - target| for the four integrals, as complex numbers."""
    gamma, omega = point
    h3f, h4f, af, mf = (complex(Fraction(v)) for v in (h3, h4, a_cas, m))
    r1 = gamma[0] ** 2 + gamma[1] ** 2 + gamma[2] ** 2 - 1
    r2 = (
        gamma[0] * omega[0]
        + gamma[1] * omega[1]
        + (1 + mf) * gamma[2] * omega[2]
        - af
    )
    r3 = (
        0.5 * (omega[0] ** 2 + omega[1] ** 2 + (1 + mf) * omega[2] ** 2)
        - gamma[2]
        - h3f
    )
    r4 = omega[2] - h4f
    return (r1, r2, r3, r4)


def quotient_cubic_residual(point, h3, h4, a_cas, m) -> complex:
    """Defect of the circle-quotient image against the quotient cubic.

    The invariants (x, y) = (-Gamma3/2, -(Gamma1 Omega2 - Gamma2 Omega1)/2)
    of a level-set point satisfy
    y^2 = 4x^3 - (2h3 + (1+m) m h4^2) x^2 - (1 + (1+m) a h4) x
          + (2h3 - (1+m) h4^2 - a^2)/4;
    the returned value is the left side minus the right side.
    """
    gamma, omega = point
    h3f, h4f, af, mf = (complex(Fraction(v)) for v in (h3, h4, a_cas, m))
    x = -gamma[2] / 2
    y = -(gamma[0] * omega[1] - gamma[1] * omega[0]) / 2
    rhs = (
        4 * x**3
        - (2 * h3f + (1 + mf) * mf * h4f**2) * x**2
        - (1 + (1 + mf) * af * h4f) * x
        + (2 * h3f - (1 + mf) * h4f**2 - af**2) / 4
    )
    return y * y - rhs


def shifted_weierstrass_residual(point, h3, h4, a_cas, m) -> complex:
    """Defect of the depressed form: with (a1, a2) the tau image and
    alpha = -2a, the shifted point (x - a2/12, y) satisfies
    Y^2 = 4X^3 - g2 X - g3."""
    gamma, omega = point
    a1, a2 = tau_transform(h3, h4, m)
    alpha = -2 * Fraction(a_cas)
    g2, g3 = g2_g3(a1, a2, alpha)
    x = -gamma[2] / 2 - complex(Fraction(a2, 12))
    y = -(gamma[0] * omega[1] - gamma[1] * omega[0]) / 2
    return y * y - (4 * x**3 - complex(g2) * x - complex(g3))
