"""Lagrange-top front end: Poisson structure, first integrals, and the
family of plane cubics swept out by the energy-momentum values.

Phase-space polynomials live in the six variables (G1, G2, G3, M1, M2,
M3) for the body-frame gravity direction and angular momentum.  The
inertia normalization is J1 = J2 = 1 and J3 = 1 + m, with the center of
mass along the symmetry axis and chi = (0, 0, -1), so the angular
velocity is Omega = (M1, M2, M3/(1+m)).  The Lie-Poisson bracket of
e(3)* is the table of structure constants ``E3_STRUCTURE``, evaluated by
``poly.poisson_brackets`` over a list of polynomials, and along the
Euler-Poisson flow a function F changes at the rate dF/dt = {F, H3}, one
bracket with the energy.

The quotient of an energy-momentum level set by its circle action is an
affine cubic; ``tau_transform`` and ``g2_g3`` carry the level values to
the cubic's short Weierstrass coefficients, and ``build_global_sections``
compactifies the family into a fibration over the projective plane.
"""

from __future__ import annotations

import cmath
import functools
import random
from fractions import Fraction

from .poly import MultiPoly, poisson_brackets
from .record import Value
from .weierstrass import WeierstrassFibration, check_genericity

GAMMA_VARS = ("G1", "G2", "G3")
MOMENTUM_VARS = ("M1", "M2", "M3")


class TopParams(Value):
    """Symmetric-top parameters: m = (J3 - J2)/J1, Casimir level a."""

    __slots__ = ("m", "a_cas")

    def __init__(self, m: Fraction = Fraction(0), a_cas: Fraction = Fraction(0)):
        if 1 + m == 0:
            raise ValueError("1 + m must be nonzero")
        self._store(m, a_cas)


# The Lie-Poisson structure of e(3)*, one entry per pair (x, y) with x < y:
# {M_i, M_j} = -eps_ijk M_k, {G_i, M_j} = -eps_ijk G_k, and the G commute.
E3_STRUCTURE = {
    ("M1", "M2"): ((-1, "M3"),), ("M1", "M3"): ((1, "M2"),), ("M2", "M3"): ((-1, "M1"),),
    ("G1", "M2"): ((-1, "G3"),), ("G1", "M3"): ((1, "G2"),),
    ("G2", "M1"): ((1, "G3"),), ("G2", "M3"): ((-1, "G1"),),
    ("G3", "M1"): ((-1, "G2"),), ("G3", "M2"): ((1, "G1"),),
}


def lie_poisson_bracket(f: MultiPoly, g: MultiPoly) -> MultiPoly:
    """Lie-Poisson bracket on the dual of the Euclidean Lie algebra e(3)."""
    return poisson_brackets((f, g), E3_STRUCTURE)[0, 1]


def casimirs() -> tuple:
    """C1 = <Gamma, Gamma> and C2 = <Gamma, M>."""
    c1 = MultiPoly(GAMMA_VARS, {(2, 0, 0): 1, (0, 2, 0): 1, (0, 0, 2): 1})
    diagonal = {(1, 0, 0, 1, 0, 0): 1, (0, 1, 0, 0, 1, 0): 1, (0, 0, 1, 0, 0, 1): 1}
    return c1, MultiPoly(GAMMA_VARS + MOMENTUM_VARS, diagonal)


def _energy(m) -> MultiPoly:
    """H3 = (M1^2 + M2^2 + M3^2 / (1 + m)) / 2 - G3."""
    half = Fraction(1, 2)
    return MultiPoly(
        ("G3", "M1", "M2", "M3"),
        {(1, 0, 0, 0): -1, (0, 2, 0, 0): half, (0, 0, 2, 0): half, (0, 0, 0, 2): half / (1 + m)},
    )


def first_integrals(params: TopParams) -> tuple:
    """The four commuting integrals (H1, H2, H3, H4) in (Gamma, M): the two
    Casimirs, the energy and the axial momentum M3 / (1 + m)."""
    h1, h2 = casimirs()
    return h1, h2, _energy(params.m), Fraction(1, 1 + params.m) * MultiPoly.variable("M3")


# -- parameter transforms ------------------------------------------------------


def tau_transform(h3, h4, m) -> tuple:
    """Map energy-momentum values to cubic parameters (a1, a2)."""
    h3, h4, m = Fraction(h3), Fraction(h4), Fraction(m)
    return 2 * (1 + m) * h4, 2 * h3 + (1 + m) * m * h4**2


def g2_g3(a1, a2, alpha) -> tuple:
    """Short Weierstrass coefficients of the depressed quotient cubic, at
    rationals or at polynomials."""
    g2 = 1 + Fraction(1, 12) * a2**2 - Fraction(1, 4) * alpha * a1
    g3 = (
        Fraction(1, 216) * a2**3
        + Fraction(1, 16) * a1**2
        - Fraction(1, 48) * alpha * a1 * a2
        - Fraction(1, 6) * a2
        + Fraction(1, 16) * alpha**2
    )
    return g2, g3


def build_global_sections(alpha) -> WeierstrassFibration:
    """Compactify the cubic family over the plane: sections of degrees 4, 6.

    The degree-4 section restricts on the affine chart A0 != 0 to g2 and
    the degree-6 one to g3 (in the coordinates a1 = A1/A0, a2 = A2/A0).
    Refuses alpha in {0, 4, -4} by ``check_genericity``.
    """
    alpha = check_genericity(alpha)
    phi, psi = (t.substitute({"alpha": alpha}) for t in _section_templates())
    return WeierstrassFibration(phi, psi)


@functools.cache
def _section_templates() -> tuple:
    """The two sections with alpha as a variable: ``g2_g3`` at the variables
    A1, A2 and alpha, homogenized by A0 to degrees 4 and 6."""
    g2, g3 = g2_g3(*map(MultiPoly.variable, ("A1", "A2", "alpha")))
    return _homogenize(g2, 4), _homogenize(g3, 6)


def _homogenize(p: MultiPoly, degree: int) -> MultiPoly:
    """A0^degree * p(A1/A0, A2/A0), with alpha a parameter."""
    plane = [v != "alpha" for v in p.variables]
    lift = {(degree - sum(k for k, on in zip(e, plane) if on),) + e: c for e, c in p.terms.items()}
    return MultiPoly(("A0",) + p.variables, lift)


# -- numeric level-set sampling --------------------------------------------------


# A sample is accepted when every integral residual is below SAMPLE_TOL;
# SAMPLE_RETRIES draws are tried before giving up.
SAMPLE_TOL = 1e-10
SAMPLE_RETRIES = 100


class SamplingError(RuntimeError):
    """No nondegenerate sample found within the retry budget."""


class Level:
    """A joint level set of the integrals, for the float sampler: the
    values h3, h4 and a of the energy, the axial momentum and the Casimir
    <Gamma, M>, and the top parameter m, each converted to ``complex`` once.

    ``depressed`` gives the shift a2/12 and (g2, g3) of the level's short
    Weierstrass cubic, computed exactly and converted on first use, so a
    float overflow there is raised where the first residual needs them.
    """

    __slots__ = ("h3", "h4", "a", "m", "_exact", "_depressed")

    def __init__(self, h3, h4, a_cas, m):
        self._exact = tuple(Fraction(v) for v in (h3, h4, a_cas, m))
        self.h3, self.h4, self.a, self.m = (complex(v) for v in self._exact)
        self._depressed = None

    def depressed(self) -> tuple:
        """(a2/12, g2, g3) as complex numbers, with (a1, a2) the tau image
        and alpha = -2a."""
        if self._depressed is None:
            h3, h4, a_cas, m = self._exact
            a1, a2 = tau_transform(h3, h4, m)
            g2, g3 = g2_g3(a1, a2, -2 * a_cas)
            self._depressed = (complex(a2 / 12), complex(g2), complex(g3))
        return self._depressed


def sample_fiber_point(level: Level, seed=0):
    """Complex phase point (Gamma, Omega) on a joint level set.

    Construction: Gamma3 and a complex angle parametrize Gamma with
    <Gamma, Gamma> = 1 exactly; Omega3 is pinned by the momentum integral
    and (Omega1, Omega2) solve the remaining linear-plus-quadratic system,
    which is solvable over C away from a measure-zero set of draws.
    Deterministic for a fixed seed.
    """
    h3f, h4f, af, mf = level.h3, level.h4, level.a, level.m
    rng = random.Random(seed)
    for _ in range(SAMPLE_RETRIES):
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
        if max(abs(x) for x in integral_residuals(point, level)) < SAMPLE_TOL:
            return point
    raise SamplingError("no nondegenerate sample within retry budget")


def integral_residuals(point, level: Level):
    """|H_i(point) - target| for the four integrals, as complex numbers."""
    gamma, omega = point
    h3f, h4f, af, mf = level.h3, level.h4, level.a, level.m
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


def quotient_cubic_residual(point, level: Level) -> complex:
    """Defect of the circle-quotient image against the quotient cubic.

    The invariants (x, y) = (-Gamma3/2, -(Gamma1 Omega2 - Gamma2 Omega1)/2)
    of a level-set point satisfy
    y^2 = 4x^3 - (2h3 + (1+m) m h4^2) x^2 - (1 + (1+m) a h4) x
          + (2h3 - (1+m) h4^2 - a^2)/4;
    the returned value is the left side minus the right side.
    """
    gamma, omega = point
    h3f, h4f, af, mf = level.h3, level.h4, level.a, level.m
    x = -gamma[2] / 2
    y = -(gamma[0] * omega[1] - gamma[1] * omega[0]) / 2
    rhs = (
        4 * x**3
        - (2 * h3f + (1 + mf) * mf * h4f**2) * x**2
        - (1 + (1 + mf) * af * h4f) * x
        + (2 * h3f - (1 + mf) * h4f**2 - af**2) / 4
    )
    return y * y - rhs


def shifted_weierstrass_residual(point, level: Level) -> complex:
    """Defect of the depressed form: the shifted point (x - a2/12, y)
    satisfies Y^2 = 4X^3 - g2 X - g3."""
    gamma, omega = point
    shift, g2, g3 = level.depressed()
    x = -gamma[2] / 2 - shift
    y = -(gamma[0] * omega[1] - gamma[1] * omega[0]) / 2
    return y * y - (4 * x**3 - g2 * x - g3)
