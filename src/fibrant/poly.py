"""Exact sparse multivariate polynomial arithmetic over the rationals.

A polynomial is a map from exponent vectors to nonzero ``Fraction``
coefficients, together with the ordered tuple of variable names the
exponents refer to.  The representation is canonical: variables are
sorted by name, variables that do not occur are pruned, and zero
coefficients are never stored.  Two ``MultiPoly`` objects are equal
exactly when they are the same polynomial.

The public constructor ``MultiPoly(variables, terms)`` validates and
canonicalizes whatever it is given.  The kernels build their results
through the private trusted constructor ``_new`` instead: their output
is canonical by construction (exponents aligned to a sorted variable
tuple), so it only drops zero coefficients and prunes unused variables.

The elimination kernels work in the integer-primitive form of a
polynomial, p = c * P with c a rational content and P an integer
polynomial of content 1, so that their inner loops multiply and divide
integers and no ``Fraction`` is built until the result is.  On that form
run products and powers, exact division (by Gauss's lemma, P / Q is an
integer polynomial whenever Q is primitive and divides P), maximal-power
extraction, the accumulation of ``substitute``, and the subresultant
pseudo-remainder sequence of the gcd (W. S. Brown, "On Euclid's
algorithm and the computation of polynomial greatest common divisors",
JACM 18, 1971).  Resultants are computed by evaluation and
interpolation (G. E. Collins, "The calculation of multivariate
polynomial resultants", JACM 18, 1971): the variables that remain after
elimination are set, one at a time, to integer points where neither
leading coefficient vanishes; the univariate integer resultants come
from the subresultant sequence and are interpolated back (Newton form)
up to a degree bound read off the Sylvester matrix.  Taylor recentering
into homogeneous components and exact rational-root extraction for
univariate polynomials complete the toolkit.

The text format round-trips bit-exactly, e.g.::

    (1/12)*A2^2 - (1/4)*A1 + 1

``parse`` accepts the same syntax and can substitute named parameters
(e.g. ``alpha``) by exact rationals while reading.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from operator import add, sub

Rational = Fraction
Exponent = tuple[int, ...]

# Order of a zero polynomial along any divisor (a, b may vanish identically
# along a component).  float('inf') compares correctly against ints.
INFINITE_ORDER = math.inf


class NotDivisibleError(ArithmeticError):
    """Raised by exact_divide when the divisor does not divide the input."""


def _coerce_coeff(value) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    raise TypeError(f"expected int or Fraction coefficient, got {type(value).__name__}")


class MultiPoly:
    """Immutable sparse polynomial with exact rational coefficients."""

    __slots__ = ("variables", "terms")

    def __init__(self, variables=(), terms=None):
        variables = tuple(variables)
        raw = {} if terms is None else terms
        clean = {}
        for exp, coeff in raw.items():
            coeff = _coerce_coeff(coeff)
            if coeff == 0:
                continue
            exp = tuple(int(e) for e in exp)
            if len(exp) != len(variables):
                raise ValueError("exponent arity does not match variable list")
            if any(e < 0 for e in exp):
                raise ValueError("negative exponent")
            clean[exp] = clean.get(exp, Fraction(0)) + coeff
        variables, clean = _canonicalize(variables, clean)
        object.__setattr__(self, "variables", variables)
        object.__setattr__(self, "terms", clean)

    def __setattr__(self, name, value):
        raise AttributeError("MultiPoly is immutable")

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zero() -> "MultiPoly":
        return _ZERO

    @staticmethod
    def const(value) -> "MultiPoly":
        return _new((), {(): _coerce_coeff(value)})

    @staticmethod
    def variable(name: str) -> "MultiPoly":
        return _new((name,), {(1,): Fraction(1)})

    @staticmethod
    def monomial(coeff, powers: dict) -> "MultiPoly":
        """Build coeff * prod(v**e) from a {name: exponent} map."""
        names = tuple(powers)
        return MultiPoly(names, {tuple(powers[v] for v in names): coeff})

    # -- basic queries -----------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def is_constant(self) -> bool:
        return not self.variables

    def constant_value(self) -> Fraction:
        if self.variables:
            raise ValueError("polynomial is not constant")
        return self.terms.get((), Fraction(0))

    def total_degree(self) -> int:
        """Total degree; -1 for the zero polynomial."""
        if not self.terms:
            return -1
        return max(sum(e) for e in self.terms)

    def degree_in(self, var: str) -> int:
        """Degree in one variable; -1 for the zero polynomial."""
        if not self.terms:
            return -1
        if var not in self.variables:
            return 0
        i = self.variables.index(var)
        return max(e[i] for e in self.terms)

    def is_homogeneous(self) -> bool:
        degs = {sum(e) for e in self.terms}
        return len(degs) <= 1

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = MultiPoly.const(other)
        if not isinstance(other, MultiPoly):
            return NotImplemented
        return self.variables == other.variables and self.terms == other.terms

    __hash__ = None

    def __repr__(self):
        return f"MultiPoly({format_poly(self)!r})"

    # -- ring operations ---------------------------------------------------

    def __add__(self, other):
        other = _coerce_poly(other)
        if other is NotImplemented:
            return NotImplemented
        names, a, b = _aligned(self, other)
        out = dict(a)
        for exp, coeff in b.items():
            out[exp] = out.get(exp, 0) + coeff
        return _new(names, out)

    __radd__ = __add__

    def __neg__(self):
        return _new(self.variables, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        other = _coerce_poly(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = _coerce_poly(other)
        if other is NotImplemented:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other):
        other = _coerce_poly(other)
        if other is NotImplemented:
            return NotImplemented
        if not self.terms or not other.terms:
            return _ZERO
        if not other.variables or not self.variables:
            poly, scalar = (self, other) if not other.variables else (other, self)
            c = scalar.terms[()]
            return _new(poly.variables, {e: k * c for e, k in poly.terms.items()})
        names, a, b = _aligned(self, other)
        ca, ia = _int_form(a)
        cb, ib = _int_form(b)
        return _from_int(names, _imul(ia, ib), ca * cb)

    __rmul__ = __mul__

    def __pow__(self, exponent: int):
        if not isinstance(exponent, int):
            return NotImplemented
        if exponent < 0:
            raise ValueError("negative polynomial exponent")
        if exponent == 0:
            return _new((), {(): Fraction(1)})
        if not self.terms:
            return _ZERO
        content, ints = _int_form(self.terms)
        return _from_int(self.variables, _ipow(ints, exponent), content**exponent)

    # -- calculus and substitution ----------------------------------------

    def derivative(self, var: str) -> "MultiPoly":
        """Formal partial derivative with respect to ``var``."""
        if var not in self.variables:
            if not _IDENT_OK(var):
                raise ValueError(f"invalid variable name {var!r}")
            return _ZERO
        i = self.variables.index(var)
        out = {}
        for exp, coeff in self.terms.items():
            k = exp[i]
            if k:
                out[exp[:i] + (k - 1,) + exp[i + 1:]] = coeff * k
        return _new(self.variables, out)

    def substitute(self, mapping: dict) -> "MultiPoly":
        """Exact composition: replace variables by polynomials or rationals.

        Variables of the mapping that do not occur in the polynomial are
        ignored; unmapped variables are left alone.  Each image is taken
        in integer-primitive form; every term becomes a rational scalar
        times a product of cached integer powers, and all terms are added
        into one integer dict over the common denominator.
        """
        images = {}
        for var in self.variables:
            if var in mapping:
                images[var] = _coerce_poly_strict(mapping[var])
        if not images:
            return self
        names = {v for v in self.variables if v not in images}
        for img in images.values():
            names.update(img.variables)
        names = tuple(sorted(names))
        index = {v: i for i, v in enumerate(names)}
        one = (0,) * len(names)
        factors = []  # per variable: (content, {k: integer image^k})
        for var in self.variables:
            img = images.get(var)
            if img is None:
                unit = [0] * len(names)
                unit[index[var]] = 1
                content, ints = 1, {tuple(unit): 1}
            elif img.terms:
                content, ints = _int_form(_embed(img, names))
            else:
                content, ints = 0, {}
            factors.append((content, {0: {one: 1}, 1: ints}))
        scaled = []
        for exp, coeff in self.terms.items():
            product = {one: 1}
            for k, (content, powers) in zip(exp, factors):
                if k:
                    if content != 1:
                        coeff *= content**k
                    product = _imul(product, _cached_power(powers, k))
            if coeff:
                scaled.append((coeff, product))
        if not scaled:
            return _ZERO
        den = math.lcm(*[s.denominator for s, _ in scaled])
        acc = {}
        get = acc.get
        for s, product in scaled:
            m = s.numerator * (den // s.denominator)
            for e, c in product.items():
                acc[e] = get(e, 0) + m * c
        return _from_int(names, acc, Fraction(1, den))

    def shift(self, point: dict) -> "MultiPoly":
        """Recenter: substitute v -> v + point[v] for each listed variable."""
        mapping = {}
        for var, value in point.items():
            mapping[var] = MultiPoly.variable(var) + MultiPoly.const(value)
        return self.substitute(mapping)

    def evaluate(self, assignment: dict):
        """Evaluate at a full assignment.

        Exact ``Fraction`` result when every value is rational; otherwise
        standard complex/float arithmetic.
        """
        missing = [v for v in self.variables if v not in assignment]
        if missing:
            raise KeyError(f"missing assignment for {missing}")
        values = [assignment[v] for v in self.variables]
        exact = all(isinstance(v, (int, Fraction)) for v in values)
        total = Fraction(0) if exact else 0.0
        for exp, coeff in self.terms.items():
            term = coeff if exact else complex(coeff)
            for v, e in zip(values, exp):
                if e:
                    term = term * v**e
            total = total + term
        return total

    # -- univariate views ---------------------------------------------------

    def as_univariate(self, var: str) -> list:
        """Coefficients in ``var``, ascending, as polynomials in the rest."""
        d = self.degree_in(var)
        if d < 0:
            return []
        if var not in self.variables:
            return [self]
        i = self.variables.index(var)
        rest = self.variables[:i] + self.variables[i + 1:]
        buckets = [dict() for _ in range(d + 1)]
        for exp, coeff in self.terms.items():
            buckets[exp[i]][exp[:i] + exp[i + 1:]] = coeff
        return [_new(rest, b) for b in buckets]

    def leading_coefficient_in(self, var: str) -> "MultiPoly":
        coeffs = self.as_univariate(var)
        return coeffs[-1] if coeffs else _ZERO


_ZERO = object.__new__(MultiPoly)
object.__setattr__(_ZERO, "variables", ())
object.__setattr__(_ZERO, "terms", {})

_SET_VARIABLES = MultiPoly.variables.__set__
_SET_TERMS = MultiPoly.terms.__set__


def _new(variables: tuple, terms: dict) -> MultiPoly:
    """Trusted constructor for kernel output that is canonical by construction.

    ``variables`` must be sorted and distinct, every exponent aligned to
    it and every coefficient a ``Fraction``; zero coefficients are
    dropped and variables that no longer occur are pruned.
    """
    terms = {e: c for e, c in terms.items() if c}
    if not terms:
        return _ZERO
    if variables:
        used = [i for i, column in enumerate(zip(*terms)) if any(column)]
        if len(used) < len(variables):
            variables = tuple(variables[i] for i in used)
            terms = {tuple(e[i] for i in used): c for e, c in terms.items()}
    poly = object.__new__(MultiPoly)
    _SET_VARIABLES(poly, variables)
    _SET_TERMS(poly, terms)
    return poly


def _IDENT_OK(name: str) -> bool:
    return isinstance(name, str) and bool(name)


def _canonicalize(variables, terms):
    if not terms:
        return (), {}
    used = [i for i in range(len(variables)) if any(e[i] for e in terms)]
    names = [variables[i] for i in used]
    if len(set(names)) != len(names):
        raise ValueError(f"duplicate variable names in {variables}")
    order = sorted(range(len(names)), key=lambda j: names[j])
    new_vars = tuple(names[j] for j in order)
    remap = [used[j] for j in order]
    out = {}
    for exp, coeff in terms.items():
        out[tuple(exp[i] for i in remap)] = coeff
    return new_vars, out


def _coerce_poly(value):
    if isinstance(value, MultiPoly):
        return value
    if isinstance(value, (int, Fraction)):
        return MultiPoly.const(value)
    return NotImplemented


def _coerce_poly_strict(value) -> MultiPoly:
    poly = _coerce_poly(value)
    if poly is NotImplemented:
        raise TypeError(f"cannot interpret {type(value).__name__} as a polynomial")
    return poly


def _aligned(p: MultiPoly, q: MultiPoly):
    if p.variables == q.variables:
        return p.variables, p.terms, q.terms
    union = tuple(sorted(set(p.variables) | set(q.variables)))
    return union, _embed(p, union), _embed(q, union)


def _embed(p: MultiPoly, union):
    if p.variables == union:
        return p.terms
    index = {v: i for i, v in enumerate(union)}
    n = len(union)
    out = {}
    for exp, coeff in p.terms.items():
        ne = [0] * n
        for i, v in enumerate(p.variables):
            ne[index[v]] = exp[i]
        out[tuple(ne)] = coeff
    return out


def _cached_power(cache: dict, k: int) -> dict:
    """base^k for the integer polynomial base = cache[1], memoized in cache."""
    if k in cache:
        return cache[k]
    half = _cached_power(cache, k // 2)
    result = _imul(half, half)
    if k & 1:
        result = _imul(result, cache[1])
    cache[k] = result
    return result


# -- integer-primitive form ---------------------------------------------------
#
# An integer polynomial is a dict {exponent tuple: nonzero int} whose
# exponents are aligned to a variable tuple held by the caller.


def _int_form(terms: dict):
    """(content, integer terms) of nonempty ``Fraction`` terms.

    The content is a positive rational and the integer terms have gcd 1,
    so terms = content * integer terms.
    """
    values = terms.values()
    den = math.lcm(*[c.denominator for c in values])
    nums = [c.numerator * (den // c.denominator) for c in values]
    g = math.gcd(*nums)
    return Fraction(g, den), dict(zip(terms, [n // g for n in nums]))


def _from_int(variables: tuple, ints: dict, content) -> MultiPoly:
    """The polynomial content * ints, through the trusted constructor."""
    num, den = content.numerator, content.denominator
    if den == 1:
        return _new(variables, {e: Fraction(c * num) for e, c in ints.items()})
    return _new(variables, {e: Fraction(c * num, den) for e, c in ints.items()})


def _imul(a: dict, b: dict) -> dict:
    if len(a) > len(b):
        a, b = b, a
    out = {}
    get = out.get
    for ea, ca in a.items():
        for eb, cb in b.items():
            e = tuple(map(add, ea, eb))
            out[e] = get(e, 0) + ca * cb
    return {e: c for e, c in out.items() if c}


def _ipow(base: dict, k: int) -> dict:
    return _cached_power({0: {(0,) * len(next(iter(base))): 1}, 1: base}, k)


def _iadd(a: dict, b: dict, scale: int = 1) -> dict:
    """a + scale * b."""
    out = dict(a)
    get = out.get
    for e, c in b.items():
        out[e] = get(e, 0) + scale * c
    return {e: c for e, c in out.items() if c}


def _idiv(p: dict, q: dict):
    """Exact quotient p / q in Z[x], or None when there is none.

    Division by the lexicographically leading term.  A quotient term
    outside the box of exponents deg_i(p) - deg_i(q) proves that q does
    not divide p, which bounds the number of steps.
    """
    qexp = max(q)
    qc = q[qexp]
    lower = [(e, c) for e, c in q.items() if e != qexp]
    box = [a - b for a, b in zip(map(max, zip(*p)), map(max, zip(*q)))]
    remaining = dict(p)
    quotient = {}
    get = remaining.get
    while remaining:
        exp = max(remaining)
        coeff = remaining.pop(exp)
        diff = tuple(map(sub, exp, qexp))
        factor, rem = divmod(coeff, qc)
        if rem or any(map(int.__gt__, diff, box)) or (diff and min(diff) < 0):
            return None
        quotient[diff] = factor
        for qe, qk in lower:
            target = tuple(map(add, diff, qe))
            new = get(target, 0) - factor * qk
            if new:
                remaining[target] = new
            else:
                del remaining[target]
    return quotient


# -- exact division and power extraction ------------------------------------


def exact_divide(p: MultiPoly, q: MultiPoly) -> MultiPoly:
    """Return r with p = q*r, raising NotDivisibleError otherwise."""
    q = _coerce_poly_strict(q)
    p = _coerce_poly_strict(p)
    if q.is_zero():
        raise ZeroDivisionError("division by the zero polynomial")
    if p.is_zero():
        return _ZERO
    if q.is_constant():
        c = q.terms[()]
        return _new(p.variables, {e: k / c for e, k in p.terms.items()})
    names, ptab, qtab = _aligned(p, q)
    cp, ip = _int_form(ptab)
    cq, iq = _int_form(qtab)
    quotient = _idiv(ip, iq)
    if quotient is None:
        raise NotDivisibleError(format_poly(q) + " does not divide " + format_poly(p))
    return _from_int(names, quotient, cp / cq)


def extract_power(p: MultiPoly, q: MultiPoly):
    """Maximal k with q**k | p, together with the cofactor p / q**k.

    The zero polynomial is divisible by every power: returns
    (INFINITE_ORDER, 0).  ``q`` must be non-constant.
    """
    q = _coerce_poly_strict(q)
    if q.is_constant():
        raise ValueError("extract_power needs a non-constant divisor")
    if p.is_zero():
        return INFINITE_ORDER, _ZERO
    names, ptab, qtab = _aligned(p, q)
    cp, ip = _int_form(ptab)
    cq, iq = _int_form(qtab)
    k = 0
    while True:
        quotient = _idiv(ip, iq)
        if quotient is None:
            break
        ip = quotient
        k += 1
    if not k:
        return 0, p
    return k, _from_int(names, ip, cp / cq**k)


# -- resultants --------------------------------------------------------------


def resultant(f: MultiPoly, g: MultiPoly, var: str) -> MultiPoly:
    """Sylvester resultant of f and g with respect to ``var``.

    With f = cf * F and g = cg * G in integer-primitive form,
    res(f, g) = cf^deg(g) * cg^deg(f) * res(F, G), and the integer
    resultant is found by evaluation and interpolation over the
    remaining variables.  Exact; both inputs must have positive degree in
    ``var``.
    """
    m, n = f.degree_in(var), g.degree_in(var)
    if m < 1 or n < 1:
        raise ValueError("resultant needs positive degree in the variable")
    names, ftab, gtab = _aligned(f, g)
    i = names.index(var)
    cf, fi = _int_form(ftab)
    cg, gi = _int_form(gtab)

    def var_first(p):
        return {(e[i],) + e[:i] + e[i + 1:]: c for e, c in p.items()}

    ints = _iresultant(var_first(fi), var_first(gi), m, n)
    return _from_int(names[:i] + names[i + 1:], ints, cf**n * cg**m)


def _iresultant(f: dict, g: dict, m: int, n: int) -> dict:
    """res_x(f, g) for integer polynomials whose first variable is x.

    m and n are the degrees in x.  The last variable is set to integer
    points t where neither degree drops, so the Sylvester matrix and its
    determinant specialize; one more such value than the degree bound
    determines the resultant.
    """
    if len(next(iter(f))) == 1:
        a, b = [0] * (m + 1), [0] * (n + 1)
        for (j,), c in f.items():
            a[j] = c
        for (j,), c in g.items():
            b[j] = c
        sign = -1 if m < n and m & n & 1 else 1
        last, d, h, prs_sign = _subresultant_list(*((a, b) if m >= n else (b, a)))
        if len(last) > 1:
            return {}
        return {(): sign * prs_sign * (last[0] ** d // h ** (d - 1))}
    # Sylvester degree bounds: row maxima, and entries weighted by x-degree
    # (the coefficient of x^j in f has y-degree at most deg_{x,y} f - j).
    bound = min(
        n * max(e[-1] for e in f) + m * max(e[-1] for e in g),
        n * max(e[0] + e[-1] for e in f) + m * max(e[0] + e[-1] for e in g) - m * n,
    )
    points, values = [], []
    t = 0
    while len(points) <= bound:
        fe, ge = _eval_last(f, t), _eval_last(g, t)
        if fe and ge and max(e[0] for e in fe) == m and max(e[0] for e in ge) == n:
            points.append(t)
            values.append(_iresultant(fe, ge, m, n))
        t = -t if t > 0 else 1 - t
    return _interpolate_last(points, values)


def _eval_last(p: dict, t: int) -> dict:
    """Set the last variable of an integer polynomial to t."""
    out = {}
    get = out.get
    for e, c in p.items():
        head = e[:-1]
        out[head] = get(head, 0) + c * t ** e[-1]
    return {e: c for e, c in out.items() if c}


def _interpolate_last(points: list, values: list) -> dict:
    """Integer polynomial in one more (last) variable y with value values[k] at y = points[k].

    Newton divided differences at integer points of an integer polynomial
    are integers, so every division is exact.  The Newton form is then
    expanded by Horner's rule, dense in y.
    """
    coeffs = list(values)
    for j in range(1, len(points)):
        for k in range(len(points) - 1, j - 1, -1):
            step = points[k] - points[k - j]
            coeffs[k] = {e: c // step for e, c in _iadd(coeffs[k], coeffs[k - 1], -1).items()}
    dense = [coeffs[-1]]
    for k in range(len(points) - 2, -1, -1):
        shifted = [{}] + dense  # y * dense
        for d, part in enumerate(dense):
            shifted[d] = _iadd(shifted[d], part, -points[k])
        shifted[0] = _iadd(shifted[0], coeffs[k])
        dense = shifted
    return {e + (d,): c for d, part in enumerate(dense) for e, c in part.items()}


# -- gcd via pseudo-remainder sequences ---------------------------------------


def pseudo_remainder(f: MultiPoly, g: MultiPoly, var: str) -> MultiPoly:
    """prem(f, g): remainder of lc(g)^(deg f - deg g + 1) * f by g in var.

    Returns f itself when deg f < deg g.
    """
    if g.is_zero():
        raise ZeroDivisionError("pseudo-division by zero")
    df, dg = f.degree_in(var), g.degree_in(var)
    if df < dg:
        return f
    names, ftab, gtab = _aligned(f, g)
    if var not in names:
        return _ZERO
    cf, fi = _int_form(ftab)
    cg, gi = _int_form(gtab)
    return _from_int(names, _iprem(fi, gi, names.index(var)), cf * cg ** (df - dg + 1))


def _leading_in(p: dict, i: int, degree: int, shift: int) -> dict:
    """Coefficient of x_i^degree in p, multiplied by x_i^shift."""
    return {e[:i] + (shift,) + e[i + 1:]: c for e, c in p.items() if e[i] == degree}


def _iprem(a: dict, b: dict, i: int) -> dict:
    """Integer pseudo-remainder lc(b)^(deg a - deg b + 1) * a mod b in x_i.

    Each reduction step multiplies by lc(b) once; a step can lower the
    degree by more than one, so the power still owed is applied at the end.
    """
    db = max(e[i] for e in b)
    lead = _leading_in(b, i, db, 0)
    r = a
    owed = max(e[i] for e in a) - db + 1
    while r:
        dr = max(e[i] for e in r)
        if dr < db:
            break
        r = _iadd(_imul(lead, r), _imul(_leading_in(r, i, dr, dr - db), b), -1)
        owed -= 1
    if owed > 0 and r:
        r = _imul(r, _ipow(lead, owed))
    return r


def content_in(p: MultiPoly, var: str) -> MultiPoly:
    """gcd of the coefficients of p viewed as univariate in ``var``."""
    coeffs = [c for c in p.as_univariate(var) if not c.is_zero()]
    if not coeffs:
        return _ZERO
    g = coeffs[0]
    for c in coeffs[1:]:
        g = gcd_multivariate(g, c)
        if g.is_constant():
            break
    return _normalize_gcd(g)


def primitive_part_in(p: MultiPoly, var: str) -> MultiPoly:
    if p.is_zero():
        return _ZERO
    return exact_divide(p, content_in(p, var))


def gcd_multivariate(p: MultiPoly, q: MultiPoly) -> MultiPoly:
    """Normalized gcd over Q[x1..xn] (subresultant PRS, recursing on contents)."""
    if p.is_zero():
        return _normalize_gcd(q)
    if q.is_zero():
        return _normalize_gcd(p)
    if p.is_constant() or q.is_constant():
        return MultiPoly.const(1)
    shared = [v for v in p.variables if v in q.variables]
    if not shared:
        return MultiPoly.const(1)
    var = shared[-1]
    return gcd_univariate(p, q, var)


def gcd_univariate(f: MultiPoly, g: MultiPoly, var: str) -> MultiPoly:
    """gcd of f and g viewed as univariate in ``var``.

    Coefficients in the remaining variables are handled through content
    and primitive part; the remainder sequence is the subresultant PRS
    on the integer-primitive parts, whose exact divisions keep
    coefficient growth polynomial.  The result is monic when univariate
    over Q, otherwise primitive with a sign-normalized leading
    coefficient.
    """
    if f.is_zero():
        return _normalize_gcd(g)
    if g.is_zero():
        return _normalize_gcd(f)
    if f.degree_in(var) == 0 or g.degree_in(var) == 0:
        return _normalize_gcd(gcd_multivariate(content_in(f, var), content_in(g, var)))
    if len(f.variables) == 1 and len(g.variables) == 1:
        a, b = _int_coeffs(f, var), _int_coeffs(g, var)
        last = _subresultant_list(*((a, b) if len(a) >= len(b) else (b, a)))[0]
        return _normalize_gcd(_new((var,), {(j,): Fraction(c) for j, c in enumerate(last)}))
    cf = content_in(f, var)
    cg = content_in(g, var)
    cont = gcd_multivariate(cf, cg)
    names, ftab, gtab = _aligned(exact_divide(f, cf), exact_divide(g, cg))
    i = names.index(var)
    a, b = _int_form(ftab)[1], _int_form(gtab)[1]
    if max(e[i] for e in a) < max(e[i] for e in b):
        a, b = b, a
    last = _subresultant_prs(a, b, i)
    if not max(e[i] for e in last):
        return _normalize_gcd(cont)
    return _normalize_gcd(cont * primitive_part_in(_from_int(names, last, Fraction(1)), var))


def _subresultant_prs(a: dict, b: dict, i: int) -> dict:
    """Last nonzero remainder of the subresultant PRS of a, b in x_i.

    a and b are integer polynomials with deg a >= deg b >= 1.  The
    sequence stops at the first remainder that vanishes or is free of
    x_i; in the first case the one returned is a gcd up to content.
    """
    da, db = max(e[i] for e in a), max(e[i] for e in b)
    g = h = {(0,) * len(next(iter(a))): 1}
    while db > 0:
        delta = da - db
        r = _iprem(a, b, i)
        if not r:
            break
        a, b = b, _idiv(r, _imul(g, _ipow(h, delta)) if delta else g)
        da, db = db, max(e[i] for e in b)
        g = _leading_in(a, i, da, 0)
        if delta == 1:
            h = g
        elif delta:
            h = _idiv(_ipow(g, delta), _ipow(h, delta - 1))
    return b


def _subresultant_list(a: list, b: list):
    """The subresultant PRS of ``_subresultant_prs`` on ascending integer lists.

    Univariate gcds and the evaluated resultants take this path, which
    runs several times faster on plain lists than on dicts.  Returns
    (last, d, h, sign): the last nonzero remainder, the degree of the one
    before it, the scale h of the sequence and (-1)^(sum of deg a * deg b
    over the steps).  If ``last`` is a constant the resultant is
    sign * last^d / h^(d - 1), otherwise it is 0 (H. Cohen, A Course in
    Computational Algebraic Number Theory, Algorithm 3.3.7).
    """
    da, db = len(a) - 1, len(b) - 1
    g = h = sign = 1
    while db > 0:
        delta = da - db
        if da & db & 1:
            sign = -sign
        r = _prem_list(a, b)
        if not r:
            break
        divisor = g * h**delta
        a, b = b, [c // divisor for c in r]
        da, db = db, len(b) - 1
        g = a[-1]
        if delta:
            h = g**delta // h ** (delta - 1)
    return b, da, h, sign


def _prem_list(a: list, b: list) -> list:
    """lc(b)^(deg a - deg b + 1) * a mod b for ascending integer lists."""
    lead = b[-1]
    owed = len(a) - len(b) + 1
    r = list(a)
    while len(r) >= len(b):
        top = r.pop()
        shift = len(r) - len(b) + 1
        r = [lead * c for c in r]
        for j, c in enumerate(b[:-1]):
            r[j + shift] -= top * c
        owed -= 1
        while r and not r[-1]:
            r.pop()
    return [c * lead**owed for c in r] if owed > 0 else r


def _normalize_gcd(p: MultiPoly) -> MultiPoly:
    if p.is_zero():
        return _ZERO
    if p.is_constant():
        return MultiPoly.const(1)
    if len(p.variables) == 1:
        lead = p.terms[max(p.terms, key=_grlex_key)]
        return exact_divide(p, MultiPoly.const(lead))
    prim, _ = primitive_integer(p)
    return prim


# -- monomial order (graded lexicographic, descending for display) ---------


def _grlex_key(exp: Exponent):
    return (sum(exp), exp)


# -- homogeneous components --------------------------------------------------


def homogeneous_components(p: MultiPoly, point=None) -> list:
    """Split p (optionally recentered at ``point``) by total degree.

    ``point`` may be a mapping {var: value} or a sequence aligned with
    ``p.variables``.  Returns [p_0, p_1, ..., p_d] with sum(p_i) equal to
    the recentered polynomial; missing degrees are zero polynomials.
    """
    if point is not None:
        if not isinstance(point, dict):
            values = list(point)
            if len(values) != len(p.variables):
                raise ValueError("point arity does not match variables")
            point = dict(zip(p.variables, values))
        p = p.shift(point)
    if p.is_zero():
        return [_ZERO]
    d = p.total_degree()
    buckets = [dict() for _ in range(d + 1)]
    for exp, coeff in p.terms.items():
        buckets[sum(exp)][exp] = coeff
    return [_new(p.variables, b) for b in buckets]


# -- integer utilities for rational root extraction --------------------------


def primitive_integer(p: MultiPoly):
    """Scale p to integer coefficients with content 1 and positive lead.

    Returns (primitive, unit) with p = unit * primitive and unit a
    nonzero rational.
    """
    if p.is_zero():
        return _ZERO, Fraction(1)
    unit, ints = _int_form(p.terms)
    if ints[max(ints, key=_grlex_key)] < 0:
        unit = -unit
        ints = {e: -c for e, c in ints.items()}
    return _from_int(p.variables, ints, Fraction(1)), unit


def equal_up_to_unit(p: MultiPoly, q: MultiPoly) -> bool:
    """True when p = c*q for a nonzero rational constant c."""
    if p.is_zero() or q.is_zero():
        return p.is_zero() and q.is_zero()
    return primitive_integer(p)[0] == primitive_integer(q)[0]


def _int_coeffs(p: MultiPoly, var: str) -> list:
    prim, _ = primitive_integer(p)
    coeffs = prim.as_univariate(var)
    return [int(c.constant_value()) if not c.is_zero() else 0 for c in coeffs]


def rational_roots(p: MultiPoly) -> list:
    """All rational roots of a univariate polynomial, with multiplicities.

    Candidates come from p-adic lifting of the squarefree part (Loos,
    SIAM J. Comput. 12, 1983) and are confirmed by integer Horner
    evaluation, so no integer is factored and no fraction arithmetic
    happens in the search.  Returns a sorted list of (root, multiplicity)
    pairs.
    """
    if p.is_zero():
        raise ValueError("zero polynomial has every root")
    if p.is_constant():
        return []
    if len(p.variables) != 1:
        raise ValueError("rational_roots expects a univariate polynomial")
    var = p.variables[0]
    vals = _int_coeffs(p, var)
    roots = []
    k = 0
    while vals[k] == 0:
        k += 1
    if k:
        roots.append((Fraction(0), k))
        vals = vals[k:]
    if len(vals) == 1:
        return sorted(roots)
    poly = _new((var,), {(i,): Fraction(c) for i, c in enumerate(vals)})
    sf = _int_coeffs(squarefree_part(poly, var), var)
    found = {
        cand
        for cand in _padic_candidates(sf)
        if _horner_pq(sf, cand.numerator, cand.denominator) == 0
    }
    for root in sorted(found):
        mult = 0
        current = [Fraction(c) for c in vals]
        while len(current) > 1:
            acc = Fraction(0)
            quotient = []
            for c in reversed(current):
                acc = acc * root + c
                quotient.append(acc)
            if acc != 0:
                break
            current = quotient[:-1][::-1]
            mult += 1
        if mult:
            roots.append((root, mult))
    return sorted(roots)


def _padic_candidates(sf: list) -> list:
    """Rationals among which every rational root of ``sf`` lies.

    ``sf`` holds the ascending integer coefficients of a squarefree
    polynomial with a nonzero constant term.  A root u/v in lowest terms
    has v | an and u | a0, so N = an*u/v is an integer with |N| <= |a0*an|.
    Modulo a prime p not dividing an, u/v reduces to a root of sf; when
    every root mod p is simple, Newton's iteration lifts it uniquely to
    the modulus M = p^(2^k) > 2|a0*an|, and N is the symmetric residue of
    an*r mod M.  Every prime dividing neither an nor the discriminant of
    sf, which is nonzero, qualifies, so the search for p ends.
    """
    a0, an = sf[0], sf[-1]
    deriv = [i * c for i, c in enumerate(sf)][1:]
    for p in itertools.count(2):
        if an % p == 0 or any(p % d == 0 for d in range(2, math.isqrt(p) + 1)):
            continue
        residues = [r for r in range(p) if _eval_mod(sf, r, p) == 0]
        if all(_eval_mod(deriv, r, p) for r in residues):
            break
    modulus = p
    while modulus <= 2 * abs(a0 * an):
        modulus *= modulus
        residues = [
            (r - _eval_mod(sf, r, modulus) * pow(_eval_mod(deriv, r, modulus), -1, modulus))
            % modulus
            for r in residues
        ]
    candidates = []
    for r in residues:
        n = an * r % modulus
        if 2 * n > modulus:
            n -= modulus
        candidates.append(Fraction(n, an))
    return candidates


def _eval_mod(coeffs: list, x: int, modulus: int) -> int:
    """Value at x, reduced mod ``modulus``, of an ascending coefficient list."""
    acc = 0
    for c in reversed(coeffs):
        acc = (acc * x + c) % modulus
    return acc


def _horner_pq(coeffs: list, p: int, q: int) -> int:
    """q^n * f(p/q) for integer coefficients, all in exact integers."""
    n = len(coeffs) - 1
    qpow = [1] * (n + 1)
    for i in range(1, n + 1):
        qpow[i] = qpow[i - 1] * q
    total = 0
    ppow = 1
    for i, c in enumerate(coeffs):
        total += c * ppow * qpow[n - i]
        ppow *= p
    return total


def squarefree_part(p: MultiPoly, var: str) -> MultiPoly:
    """p divided by gcd(p, dp/dvar): same roots, all simple."""
    g = gcd_univariate(p, p.derivative(var), var)
    if g.is_constant():
        return p
    return exact_divide(p, g)


def is_squarefree(p: MultiPoly, var: str) -> bool:
    return gcd_univariate(p, p.derivative(var), var).is_constant()


# -- text format -------------------------------------------------------------


def format_coeff(c: Fraction) -> str:
    if c.denominator == 1:
        return str(c.numerator)
    return f"({c.numerator}/{c.denominator})"


def format_poly(p: MultiPoly) -> str:
    """Deterministic human-readable form; round-trips through parse."""
    if p.is_zero():
        return "0"
    pieces = []
    for exp in sorted(p.terms, key=_grlex_key, reverse=True):
        coeff = p.terms[exp]
        factors = []
        for name, e in zip(p.variables, exp):
            if e == 1:
                factors.append(name)
            elif e > 1:
                factors.append(f"{name}^{e}")
        mag = abs(coeff)
        if not factors:
            body = format_coeff(mag)
        elif mag == 1:
            body = "*".join(factors)
        else:
            body = format_coeff(mag) + "*" + "*".join(factors)
        pieces.append(("-" if coeff < 0 else "+", body))
    sign, body = pieces[0]
    text = ("-" if sign == "-" else "") + body
    for sign, body in pieces[1:]:
        text += f" {sign} {body}"
    return text


class _Parser:
    def __init__(self, text: str, params: dict):
        self.tokens = self._lex(text)
        self.pos = 0
        self.params = params

    @staticmethod
    def _lex(text: str):
        tokens = []
        i = 0
        while i < len(text):
            ch = text[i]
            if ch.isspace():
                i += 1
            elif ch.isdigit():
                j = i
                while j < len(text) and text[j].isdigit():
                    j += 1
                tokens.append(("num", int(text[i:j])))
                i = j
            elif ch.isalpha() or ch == "_":
                j = i
                while j < len(text) and (text[j].isalnum() or text[j] in "_'~"):
                    j += 1
                tokens.append(("ident", text[i:j]))
                i = j
            elif ch in "+-*/^()":
                tokens.append((ch, ch))
                i += 1
            else:
                raise ValueError(f"unexpected character {ch!r} in polynomial text")
        tokens.append(("end", None))
        return tokens

    def peek(self):
        return self.tokens[self.pos][0]

    def next(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def parse_expr(self) -> MultiPoly:
        if self.peek() in "+-":
            sign = self.next()[0]
            result = self.parse_term()
            if sign == "-":
                result = -result
        else:
            result = self.parse_term()
        while self.peek() in "+-":
            op = self.next()[0]
            term = self.parse_term()
            result = result + term if op == "+" else result - term
        return result

    def parse_term(self) -> MultiPoly:
        result = self.parse_factor()
        while self.peek() in "*/":
            op = self.next()[0]
            rhs = self.parse_factor()
            if op == "*":
                result = result * rhs
            else:
                if not rhs.is_constant() or rhs.constant_value() == 0:
                    raise ValueError("division only by nonzero constants")
                result = result * MultiPoly.const(1 / rhs.constant_value())
        return result

    def parse_factor(self) -> MultiPoly:
        base = self.parse_base()
        if self.peek() == "^":
            self.next()
            kind, value = self.next()
            if kind != "num":
                raise ValueError("exponent must be a nonnegative integer")
            return base**value
        return base

    def parse_base(self) -> MultiPoly:
        kind, value = self.next()
        if kind == "num":
            return MultiPoly.const(value)
        if kind == "ident":
            if value in self.params:
                return MultiPoly.const(self.params[value])
            return MultiPoly.variable(value)
        if kind == "(":
            inner = self.parse_expr()
            if self.next()[0] != ")":
                raise ValueError("unbalanced parentheses")
            return inner
        raise ValueError(f"unexpected token {value!r}")


def parse(text: str, params: dict | None = None) -> MultiPoly:
    """Parse the polynomial text format.

    ``params`` maps identifier names to exact rationals substituted while
    reading (e.g. ``{"alpha": Fraction(3, 2)}``).
    """
    parser = _Parser(text, {k: _coerce_coeff(v) for k, v in (params or {}).items()})
    result = parser.parse_expr()
    if parser.peek() != "end":
        raise ValueError("trailing input in polynomial text")
    return result
