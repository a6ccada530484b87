"""Exact sparse multivariate polynomial arithmetic over the rationals.

A ``MultiPoly`` stores one form, the integer-primitive one (Knuth, TAOCP
vol. 2, 4.6.1), p = content * P: ``variables`` is the sorted tuple of the
variables that occur, ``content`` a positive ``Fraction`` (0 for the zero
polynomial) and ``ints`` maps exponent tuples aligned to ``variables`` to
the nonzero integer coefficients of P, whose gcd is 1.  The form is
canonical, with the sign in ``ints``, so ``__eq__`` compares it directly.
``terms`` is a read-only {exponent: ``Fraction``} view of content * P,
built on first use and cached for the text format and other readers.

The public constructor ``MultiPoly(variables, terms)`` validates its
input and converts it once.  The kernels build their results through the
one private constructor ``_make``, from integer coefficients and a
content given as an integer numerator/denominator pair; it moves the gcd
and sign of the integers into the content and prunes unused variables,
a step a kernel skips when its integers are primitive by construction
(by Gauss's lemma a product of primitive polynomials is primitive).
So every kernel computes on integers: sums over a common content
denominator, products, powers, derivatives, ``substitute``, evaluation at
a rational point, exact division (P / Q is integral whenever Q is
primitive and divides P) and power extraction.

Gcds and resultants set one variable at a time to a single large
integer xi, so the work falls to CPython's big-integer arithmetic, and
read the answer off the balanced xi-adic digits of the result.  The gcd
is the heuristic GCDHEU (Char, Geddes and Gonnet, J. Symbolic Comput. 7,
1989) with xi >= 2 * min(|f|_inf, |g|_inf) + 2; a candidate is returned
only when it divides both inputs exactly, and after six failed points
the subresultant pseudo-remainder sequence (W. S. Brown, JACM 18, 1971)
takes over.  A resultant needs one point per variable, a power of two
xi > 2H with H Hadamard's bound over the unit torus,
H^2 = (sum_j |f_j|_1^2)^n * (sum_j |g_j|_1^2)^m for the coefficients
f_j, g_j of the eliminated variable, which bounds every coefficient of
the resultant.  Homogeneous components, coordinate-line stripping and
exact rational roots of univariate polynomials complete the toolkit.

The text format round-trips bit-exactly, e.g.::

    (1/12)*A2^2 - (1/4)*A1 + 1

``parse`` accepts the same syntax and can substitute named parameters
(e.g. ``alpha``) by exact rationals while reading.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from operator import add, itemgetter, sub
from types import MappingProxyType

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

    __slots__ = ("variables", "content", "ints", "_terms")

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
            clean[exp] = clean.get(exp, 0) + coeff
        clean = {e: c for e, c in clean.items() if c}
        variables, clean = _canonicalize(variables, clean)
        den = math.lcm(*[c.denominator for c in clean.values()])
        ints = {e: c.numerator * (den // c.denominator) for e, c in clean.items()}
        built = _make(variables, ints, 1, den)
        _SET_VARIABLES(self, built.variables)
        _SET_CONTENT(self, built.content)
        _SET_INTS(self, built.ints)

    def __setattr__(self, name, value):
        raise AttributeError("MultiPoly is immutable")

    @property
    def terms(self):
        """Read-only {exponent: nonzero Fraction} view of content * ints."""
        try:
            return self._terms
        except AttributeError:
            pass
        num, den = self.content.numerator, self.content.denominator
        view = MappingProxyType({e: Fraction(c * num, den) for e, c in self.ints.items()})
        _SET_VIEW(self, view)
        return view

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zero() -> "MultiPoly":
        return _ZERO

    @staticmethod
    def const(value) -> "MultiPoly":
        value = _coerce_coeff(value)
        return _make((), {(): 1}, value.numerator, value.denominator, primitive=True)

    @staticmethod
    def variable(name: str) -> "MultiPoly":
        return _make((name,), {(1,): 1}, primitive=True)

    # -- basic queries -----------------------------------------------------

    def is_zero(self) -> bool:
        return not self.ints

    def is_constant(self) -> bool:
        return not self.variables

    def constant_value(self) -> Fraction:
        if self.variables:
            raise ValueError("polynomial is not constant")
        return self.content if self.ints.get((), 1) > 0 else -self.content

    def total_degree(self) -> int:
        """Total degree; -1 for the zero polynomial."""
        if not self.ints:
            return -1
        return max(map(sum, self.ints))

    def degree_in(self, var: str) -> int:
        """Degree in one variable; -1 for the zero polynomial."""
        if not self.ints:
            return -1
        if var not in self.variables:
            return 0
        i = self.variables.index(var)
        return max(e[i] for e in self.ints)

    def is_homogeneous(self) -> bool:
        return len(set(map(sum, self.ints))) <= 1

    def __bool__(self):
        return bool(self.ints)

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = MultiPoly.const(other)
        if not isinstance(other, MultiPoly):
            return NotImplemented
        return (
            self.variables == other.variables
            and self.content == other.content
            and self.ints == other.ints
        )

    __hash__ = None

    def __repr__(self):
        return f"MultiPoly({format_poly(self)!r})"

    # -- ring operations ---------------------------------------------------

    def __add__(self, other):
        other = _coerce_poly(other)
        if other is NotImplemented:
            return NotImplemented
        return _combine(self, other, 1)

    __radd__ = __add__

    def __neg__(self):
        return _scale(self, -1, 1)

    def __sub__(self, other):
        other = _coerce_poly(other)
        if other is NotImplemented:
            return NotImplemented
        return _combine(self, other, -1)

    def __rsub__(self, other):
        other = _coerce_poly(other)
        if other is NotImplemented:
            return NotImplemented
        return _combine(other, self, -1)

    def __mul__(self, other):
        if not isinstance(other, MultiPoly):
            if isinstance(other, (int, Fraction)):
                return _scale(self, other.numerator, other.denominator)
            return NotImplemented
        if not other.variables:
            return _scale(self, *_scalar(other))
        if not self.variables:
            return _scale(other, *_scalar(self))
        names = _union(self, other)
        c, d = self.content, other.content
        num, den = c.numerator * d.numerator, c.denominator * d.denominator
        return _make(names, _imul(_over(self, names), _over(other, names)), num, den, primitive=True)

    __rmul__ = __mul__

    def __pow__(self, exponent: int):
        if not isinstance(exponent, int):
            return NotImplemented
        if exponent < 0:
            raise ValueError("negative polynomial exponent")
        if exponent == 0:
            return _ONE
        if exponent == 1 or not self.ints:
            return self
        c = self.content
        num, den = c.numerator**exponent, c.denominator**exponent
        return _make(self.variables, _ipow(self.ints, exponent), num, den, primitive=True)

    # -- calculus and substitution ----------------------------------------

    def derivative(self, var: str) -> "MultiPoly":
        """Formal partial derivative with respect to ``var``."""
        if var not in self.variables:
            if not _IDENT_OK(var):
                raise ValueError(f"invalid variable name {var!r}")
            return _ZERO
        i = self.variables.index(var)
        out = {}
        for exp, coeff in self.ints.items():
            k = exp[i]
            if k:
                out[exp[:i] + (k - 1,) + exp[i + 1:]] = coeff * k
        return _make(self.variables, out, self.content.numerator, self.content.denominator)

    def substitute(self, mapping: dict) -> "MultiPoly":
        """Exact composition: replace variables by polynomials or rationals.

        Variables of the mapping that do not occur in the polynomial are
        ignored; unmapped variables are left alone.  An image with one
        term (a constant, a variable or a monomial) is an integer
        numerator/denominator pair times an exponent shift.  Every term
        becomes such a pair and shift times a product of cached integer
        powers of the images with several terms, and all terms are added
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
        factors = []  # per variable: (num, den, exponent shift, {k: image^k} or None)
        for var in self.variables:
            img = images.get(var)
            if img is None:
                unit = [0] * len(names)
                unit[index[var]] = 1
                factors.append((1, 1, tuple(unit), None))
                continue
            c = img.content
            if len(img.ints) == 1:
                (exp, sign), = _over(img, names).items()
                factors.append((sign * c.numerator, c.denominator, exp if any(exp) else one, None))
            elif img.ints:
                factors.append((c.numerator, c.denominator, one, {0: {one: 1}, 1: _over(img, names)}))
            else:
                factors.append((0, 1, one, None))
        scaled = []
        for exp, num in self.ints.items():
            den = 1
            shift = one
            product = None
            for k, (fnum, fden, step, powers) in zip(exp, factors):
                if k:
                    if fnum != 1:
                        num *= fnum**k
                    if fden != 1:
                        den *= fden**k
                    if step is not one:
                        shift = tuple(s + k * t for s, t in zip(shift, step))
                    if powers is not None:
                        power = _cached_power(powers, k)
                        product = power if product is None else _imul(product, power)
            if num:
                scaled.append((num, den, shift, product))
        if not scaled:
            return _ZERO
        common = math.lcm(*[den for _, den, _, _ in scaled])
        acc = {}
        get = acc.get
        for num, den, shift, product in scaled:
            m = num * (common // den)
            if product is None:
                acc[shift] = get(shift, 0) + m
            elif shift is one:
                for e, c in product.items():
                    acc[e] = get(e, 0) + m * c
            else:
                for e, c in product.items():
                    e = tuple(map(add, e, shift))
                    acc[e] = get(e, 0) + m * c
        acc = {e: k for e, k in acc.items() if k}
        return _make(names, acc, self.content.numerator, self.content.denominator * common)

    def shift(self, point: dict) -> "MultiPoly":
        """Recenter: substitute v -> v + point[v] for each listed variable."""
        mapping = {}
        for var, value in point.items():
            if value:
                mapping[var] = MultiPoly.variable(var) + MultiPoly.const(value)
        return self.substitute(mapping) if mapping else self

    def evaluate(self, assignment: dict):
        """Evaluate at a full assignment.

        Exact ``Fraction`` result when every value is rational: with
        v = n_v / d_v and D_v the degree in v, every term is an integer
        times n_v^k * d_v^(D_v - k) over the common denominator
        prod d_v^D_v.  Otherwise standard complex/float arithmetic.
        """
        missing = [v for v in self.variables if v not in assignment]
        if missing:
            raise KeyError(f"missing assignment for {missing}")
        values = [assignment[v] for v in self.variables]
        if not all(isinstance(v, (int, Fraction)) for v in values):
            total = 0.0
            for exp, coeff in self.terms.items():
                term = complex(coeff)
                for v, e in zip(values, exp):
                    if e:
                        term = term * v**e
                total = total + term
            return total
        num, den = self.content.numerator, self.content.denominator
        if not any(values):
            return Fraction(num * self.ints.get((0,) * len(values), 0), den)
        weights = []
        for v, top in zip(values, map(max, zip(*self.ints))):
            n, d = v.numerator, v.denominator
            weights.append([n**k * d ** (top - k) for k in range(top + 1)])
            den *= d**top
        total = 0
        for exp, coeff in self.ints.items():
            for row, k in zip(weights, exp):
                coeff *= row[k]
            total += coeff
        return Fraction(num * total, den)

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
        for exp, coeff in self.ints.items():
            buckets[exp[i]][exp[:i] + exp[i + 1:]] = coeff
        num, den = self.content.numerator, self.content.denominator
        return [_make(rest, b, num, den) for b in buckets]

    def leading_coefficient_in(self, var: str) -> "MultiPoly":
        coeffs = self.as_univariate(var)
        return coeffs[-1] if coeffs else _ZERO


_SET_VARIABLES = MultiPoly.variables.__set__
_SET_CONTENT = MultiPoly.content.__set__
_SET_INTS = MultiPoly.ints.__set__
_SET_VIEW = MultiPoly._terms.__set__


def _make(variables: tuple, ints: dict, num: int = 1, den: int = 1, primitive: bool = False):
    """The private constructor: the polynomial (num / den) * ints.

    ``variables`` is sorted and distinct, every exponent of ``ints`` is
    aligned to it, no coefficient is zero and den > 0.  The gcd and the
    sign of the integers are moved into the content and variables that
    no longer occur are pruned.  With ``primitive`` the caller vouches
    that ``ints`` is nonempty, has gcd 1 and uses every variable, so only
    the sign of num is moved.
    """
    if not num:
        return _ZERO
    if not primitive:
        if not ints:
            return _ZERO
        g = math.gcd(*ints.values())
        if num < 0:
            num, g = -num, -g
        if g != 1:
            ints = {e: c // g for e, c in ints.items()}
            num *= abs(g)
        if variables:
            used = [i for i, column in enumerate(zip(*ints)) if any(column)]
            if len(used) < len(variables):
                variables = tuple(variables[i] for i in used)
                ints = {tuple(e[i] for i in used): c for e, c in ints.items()}
    elif num < 0:
        num = -num
        ints = {e: -c for e, c in ints.items()}
    poly = object.__new__(MultiPoly)
    _SET_VARIABLES(poly, variables)
    _SET_CONTENT(poly, _UNIT if num == den == 1 else Fraction(num, den))
    _SET_INTS(poly, ints)
    return poly


_UNIT = Fraction(1)
_ZERO = object.__new__(MultiPoly)
_SET_VARIABLES(_ZERO, ())
_SET_CONTENT(_ZERO, Fraction(0))
_SET_INTS(_ZERO, {})
_ONE = MultiPoly.const(1)


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


# -- kernels on the stored form ----------------------------------------------
#
# An integer polynomial is a dict {exponent tuple: nonzero int} whose
# exponents are aligned to a variable tuple held by the caller.


def _scalar(p: MultiPoly):
    """(numerator, denominator) of the value of a constant polynomial."""
    c = p.content
    return c.numerator * p.ints.get((), 0), c.denominator


def _scale(p: MultiPoly, num: int, den: int) -> MultiPoly:
    """p * (num / den), for den > 0."""
    c = p.content
    return _make(p.variables, p.ints, c.numerator * num, c.denominator * den, primitive=True)


def _union(p: MultiPoly, q: MultiPoly) -> tuple:
    if p.variables == q.variables:
        return p.variables
    return tuple(sorted({*p.variables, *q.variables}))


def _over(p: MultiPoly, names: tuple) -> dict:
    """p.ints with its exponents written over ``names``, a sorted superset of p.variables."""
    if p.variables == names:
        return p.ints
    if not p.variables:
        return {(0,) * len(names): c for c in p.ints.values()}
    # names has at least two entries here, so itemgetter returns tuples.
    pad = len(p.variables)
    where = {v: i for i, v in enumerate(p.variables)}
    take = itemgetter(*[where.get(v, pad) for v in names])
    return {take(e + (0,)): c for e, c in p.ints.items()}


def _combine(p: MultiPoly, q: MultiPoly, sign: int) -> MultiPoly:
    """p + sign * q, summed as integers over the common content denominator."""
    if not q.ints:
        return p
    if not p.ints:
        return q if sign > 0 else -q
    names = _union(p, q)
    pn, pd = p.content.numerator, p.content.denominator
    qn, qd = q.content.numerator, q.content.denominator
    g = math.gcd(pd, qd)
    ma, mb = pn * (qd // g), sign * qn * (pd // g)
    h = math.gcd(ma, mb)
    ma //= h
    mb //= h
    a = _over(p, names)
    out = dict(a) if ma == 1 else {e: ma * c for e, c in a.items()}
    get = out.get
    for e, c in _over(q, names).items():
        value = get(e, 0) + mb * c
        if value:
            out[e] = value
        else:
            del out[e]
    return _make(names, out, h, pd // g * qd)


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
        num, den = _scalar(q)
        return _scale(p, den if num > 0 else -den, abs(num))
    names = _union(p, q)
    quotient = _idiv(_over(p, names), _over(q, names))
    if quotient is None:
        raise NotDivisibleError(format_poly(q) + " does not divide " + format_poly(p))
    cp, cq = p.content, q.content
    return _make(names, quotient, cp.numerator * cq.denominator, cp.denominator * cq.numerator)


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
    names = _union(p, q)
    ip, iq = _over(p, names), _over(q, names)
    if len(iq) == 1:
        # A monomial divisor u * m (u = +-1): the order is read off the exponents.
        (qexp, unit), = iq.items()
        k = min(min(e[i] for e in ip) // d for i, d in enumerate(qexp) if d)
        if k:
            shift = [k * d for d in qexp]
            ip = {tuple(map(sub, e, shift)): c for e, c in ip.items()}
    else:
        unit, k = 1, 0
        while True:
            quotient = _idiv(ip, iq)
            if quotient is None:
                break
            ip = quotient
            k += 1
    if not k:
        return 0, p
    cp, cq = p.content, q.content
    num, den = unit**k * cp.numerator * cq.denominator**k, cp.denominator * cq.numerator**k
    return k, _make(names, ip, num, den)


def strip_coordinate_lines(p: MultiPoly):
    """({var: k}, p / prod(var^k)) for the maximal power k of each variable
    dividing p; only positive orders are listed, in variable order."""
    orders = {}
    for i, var in enumerate(p.variables):
        k = min(e[i] for e in p.ints)
        if k:
            orders[var] = k
    if not orders:
        return orders, p
    shift = [orders.get(var, 0) for var in p.variables]
    ints = {tuple(map(sub, e, shift)): c for e, c in p.ints.items()}
    return orders, _make(p.variables, ints, p.content.numerator, p.content.denominator)


# -- resultants --------------------------------------------------------------


def resultant(f: MultiPoly, g: MultiPoly, var: str) -> MultiPoly:
    """Sylvester resultant of f and g with respect to ``var``.

    With f = cf * F and g = cg * G in integer-primitive form,
    res(f, g) = cf^deg(g) * cg^deg(f) * res(F, G), and the integer
    resultant is found by evaluating the remaining variables, one at a
    time, at a single large integer.  Exact; both inputs must have
    positive degree in ``var``.
    """
    m, n = f.degree_in(var), g.degree_in(var)
    if m < 1 or n < 1:
        raise ValueError("resultant needs positive degree in the variable")
    names = _union(f, g)
    i = names.index(var)

    def var_first(p):
        return {(e[i],) + e[:i] + e[i + 1:]: c for e, c in _over(p, names).items()}

    ints = _iresultant(var_first(f), var_first(g), m, n)
    cf, cg = f.content, g.content
    num, den = cf.numerator**n * cg.numerator**m, cf.denominator**n * cg.denominator**m
    return _make(names[:i] + names[i + 1:], ints, num, den)


def _iresultant(f: dict, g: dict, m: int, n: int) -> dict:
    """res_x(f, g) for integer polynomials whose first variable is x.

    m and n are the degrees in x.  The last variable y is set to one
    power of two xi > 2H, where H is Hadamard's bound over the unit
    torus, H^2 = (sum_j |f_j|_1^2)^n * (sum_j |g_j|_1^2)^m for the
    coefficients f_j, g_j of x^j.  No coefficient of the resultant
    exceeds H, so the balanced xi-adic digits of the specialized
    resultant are its coefficients in y.  The degrees in x survive:
    xi > 1 + |f_m|_1, Cauchy's bound on the roots of each coefficient
    of f_m in y, and likewise for g_n.
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
    bound = math.isqrt(_row_norms(f, m) ** n * _row_norms(g, n) ** m) + 1
    xi = 2 << bound.bit_length()
    return _xi_adic(_iresultant(_eval_last(f, xi), _eval_last(g, xi), m, n), xi)


def _row_norms(p: dict, degree: int) -> int:
    """sum_j |p_j|_1^2 over the coefficients p_j of x^j, x the first variable."""
    norms = [0] * (degree + 1)
    for e, c in p.items():
        norms[e[0]] += abs(c)
    return sum(v * v for v in norms)


def _eval_last(p: dict, t: int) -> dict:
    """Set the last variable of an integer polynomial to t."""
    powers = [1]
    for _ in range(max(e[-1] for e in p)):
        powers.append(powers[-1] * t)
    out = {}
    get = out.get
    for e, c in p.items():
        head = e[:-1]
        out[head] = get(head, 0) + c * powers[e[-1]]
    return {e: c for e, c in out.items() if c}


def _xi_adic(p: dict, xi: int) -> dict:
    """The integer polynomial in one more (last) variable with value p at xi.

    Its coefficients are the balanced xi-adic digits, in (-xi/2, xi/2], of
    the coefficients of p; for a power of two they are bit fields.
    """
    bits, half = xi.bit_length() - 1, xi >> 1
    mask = xi - 1 if xi == 1 << bits else 0
    out = {}
    for e, c in p.items():
        k = 0
        while c:
            c, d = (c >> bits, c & mask) if mask else divmod(c, xi)
            if d > half:
                d -= xi
                c += 1
            if d:
                out[e + (k,)] = d
            k += 1
    return out


# -- gcd via pseudo-remainder sequences ---------------------------------------


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
    """Normalized gcd over Q[x1..xn] (GCDHEU, the subresultant PRS as fallback)."""
    if p.is_zero():
        return _normalize_gcd(q)
    if q.is_zero():
        return _normalize_gcd(p)
    if p.is_constant() or q.is_constant():
        return _ONE
    shared = [v for v in p.variables if v in q.variables]
    if not shared:
        return _ONE
    var = shared[-1]
    return gcd_univariate(p, q, var)


def gcd_univariate(f: MultiPoly, g: MultiPoly, var: str) -> MultiPoly:
    """gcd of f and g, the subresultant PRS in ``var`` as fallback.

    The heuristic gcd ``_heu_gcd`` runs first.  Should it fail, the
    coefficients in the remaining variables are handled through content
    and primitive part, and the remainder sequence is the subresultant
    PRS on the integer-primitive parts, whose exact divisions keep
    coefficient growth polynomial.  The result is monic when univariate
    over Q, otherwise primitive with a sign-normalized leading
    coefficient.
    """
    if f.is_zero():
        return _normalize_gcd(g)
    if g.is_zero():
        return _normalize_gcd(f)
    names = _union(f, g)
    h = _heu_gcd(_over(f, names), _over(g, names))
    if h is None:
        return _prs_gcd(f, g, var)
    return _normalize_gcd(_make(names, h))


def _heu_gcd(f: dict, g: dict):
    """gcd of two nonzero integer polynomials over one variable tuple, or None.

    GCDHEU (B. W. Char, K. O. Geddes, G. H. Gonnet, J. Symbolic Comput. 7,
    1989): with the integer contents removed, the last variable is set to
    an integer xi >= 2 * min(|f|_inf, |g|_inf) + 2 and the gcd of the
    images is found recursively, down to an integer gcd.  The primitive
    part of the polynomial read off its balanced xi-adic digits is the
    gcd of the primitive parts if and only if it divides both, which is
    checked by exact division.  None after six points without success,
    at this level or below.
    """
    if not next(iter(f)):
        return {(): math.gcd(f[()], g[()])}
    cf, cg = math.gcd(*f.values()), math.gcd(*g.values())
    if cf > 1:
        f = {e: c // cf for e, c in f.items()}
    if cg > 1:
        g = {e: c // cg for e, c in g.items()}
    content = math.gcd(cf, cg)
    xi = 2 * min(max(map(abs, f.values())), max(map(abs, g.values()))) + 2
    for _ in range(6):
        fe, ge = _eval_last(f, xi), _eval_last(g, xi)
        if fe and ge:
            image = _heu_gcd(fe, ge)
            if image is None:
                return None
            h = _xi_adic(image, xi)
            if len(h) == 1 and not any(next(iter(h))):
                return {next(iter(h)): content}
            k = math.gcd(*h.values())
            h = {e: c // k for e, c in h.items()}
            if _idiv(f, h) is not None and _idiv(g, h) is not None:
                return {e: content * c for e, c in h.items()}
        xi = xi * 73794 * math.isqrt(math.isqrt(xi)) // 27011
    return None


def _prs_gcd(f: MultiPoly, g: MultiPoly, var: str) -> MultiPoly:
    """Normalized gcd of nonzero f and g by the subresultant PRS in ``var``."""
    if f.degree_in(var) == 0 or g.degree_in(var) == 0:
        return _normalize_gcd(gcd_multivariate(content_in(f, var), content_in(g, var)))
    if len(f.variables) == 1 and len(g.variables) == 1:
        a, b = _int_coeffs(f), _int_coeffs(g)
        last = _subresultant_list(*((a, b) if len(a) >= len(b) else (b, a)))[0]
        return _normalize_gcd(_make((var,), {(j,): c for j, c in enumerate(last) if c}))
    cf = content_in(f, var)
    cg = content_in(g, var)
    cont = gcd_multivariate(cf, cg)
    fp, gp = exact_divide(f, cf), exact_divide(g, cg)
    names = _union(fp, gp)
    i = names.index(var)
    a, b = _over(fp, names), _over(gp, names)
    if max(e[i] for e in a) < max(e[i] for e in b):
        a, b = b, a
    last = _subresultant_prs(a, b, i)
    if not max(e[i] for e in last):
        return _normalize_gcd(cont)
    return _normalize_gcd(cont * primitive_part_in(_make(names, last), var))


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

    Univariate resultants and the PRS of univariate gcds take this path, which
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
        return _ONE
    if len(p.variables) == 1:
        lead = p.ints[max(p.ints)]
        return _make(p.variables, p.ints, 1 if lead > 0 else -1, abs(lead), primitive=True)
    prim, _ = primitive_integer(p)
    return prim


# -- monomial order (graded lexicographic, descending for display) ---------


def _grlex_key(exp: Exponent):
    return (sum(exp), exp)


# -- homogeneous components --------------------------------------------------


def homogeneous_components(p: MultiPoly) -> list:
    """Split p by total degree: [p_0, p_1, ..., p_d] with sum(p_i) = p;
    missing degrees are zero polynomials."""
    if p.is_zero():
        return [_ZERO]
    buckets = [dict() for _ in range(p.total_degree() + 1)]
    for exp, coeff in p.ints.items():
        buckets[sum(exp)][exp] = coeff
    num, den = p.content.numerator, p.content.denominator
    return [_make(p.variables, b, num, den) for b in buckets]


# -- integer utilities for rational root extraction --------------------------


def primitive_integer(p: MultiPoly):
    """Scale p to integer coefficients with content 1 and positive lead.

    Returns (primitive, unit) with p = unit * primitive and unit a
    nonzero rational.
    """
    if p.is_zero():
        return _ZERO, Fraction(1)
    unit, ints = p.content, p.ints
    if ints[max(ints, key=_grlex_key)] < 0:
        unit = -unit
        ints = {e: -c for e, c in ints.items()}
    elif unit == 1:
        return p, unit
    return _make(p.variables, ints, primitive=True), unit


def equal_up_to_unit(p: MultiPoly, q: MultiPoly) -> bool:
    """True when p = c*q for a nonzero rational constant c."""
    if p.is_zero() or q.is_zero():
        return p.is_zero() and q.is_zero()
    return primitive_integer(p)[0] == primitive_integer(q)[0]


def _int_coeffs(p: MultiPoly) -> list:
    """Ascending integer coefficients of a univariate p, with content 1 and positive lead."""
    coeffs = [0] * (max(p.ints)[0] + 1)
    for (j,), c in p.ints.items():
        coeffs[j] = c
    return coeffs if coeffs[-1] > 0 else [-c for c in coeffs]


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
    vals = _int_coeffs(p)
    roots = []
    k = 0
    while vals[k] == 0:
        k += 1
    if k:
        roots.append((Fraction(0), k))
        vals = vals[k:]
    if len(vals) == 1:
        return sorted(roots)
    poly = _make((var,), {(i,): c for i, c in enumerate(vals) if c}, primitive=True)
    sf = _int_coeffs(radical(poly))
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


def split_rational_roots(p: MultiPoly):
    """(rational roots with multiplicities, the cofactor free of them) of a
    univariate polynomial."""
    roots = rational_roots(p)
    for root, mult in roots:
        p = exact_divide(p, (MultiPoly.variable(p.variables[0]) - root) ** mult)
    return roots, p


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


def radical(p: MultiPoly) -> MultiPoly:
    """Squarefree part of a polynomial: p / gcd(p, all partials)."""
    if p.is_zero() or p.is_constant():
        return p
    g = p
    for v in p.variables:
        g = gcd_multivariate(g, p.derivative(v))
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
