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
content given as an integer numerator/denominator pair, or passed
through as the ``Fraction`` an input already holds; it moves the gcd
and sign of the integers into the content and prunes unused variables,
a step a kernel skips when its integers are primitive by construction
(by Gauss's lemma a product of primitive polynomials is primitive).
So every kernel computes on integers: sums over a common content
denominator, products, powers, derivatives, evaluation at a rational
point, exact division (P / Q is integral whenever Q is primitive and
divides P), power extraction and ``poisson_brackets`` (the linear Poisson
brackets of every pair of a list, for a table of integer structure
constants, summed over partial derivatives each taken once).  Each
substitution shape has its own kernel: ``substitute`` specializes variables to
rationals in one integer pass per variable (v = n / d of degree D scales
the term with v^k by n^k * d^(D-k) and puts d^D into the content) and
takes no polynomial image, and ``evaluate`` at rationals is that pass
over every variable; ``shift`` is an integer Taylor shift, and
``two_jet_at`` reads the terms of degree <= 2 of that shift at a point
of the plane, term by term, without building it, both from one table of
Taylor weights; ``dehomogenize`` (a coordinate set to 1, others renamed),
``blow_up_chart`` (a chart of a point blow-up) and ``strict_transform``
(the same chart divided by the largest power of the exceptional
coordinate, which is the multiplicity at the center) are maps on
exponents.

Gcds and resultants set one variable at a time to a single large integer
xi, so the work falls to CPython's big-integer arithmetic, and read the
answer off the balanced xi-adic digits of the result.  A univariate
input is converted once to its integer coefficients, and its gcd,
resultant, squarefree part and test and rational roots (with the cofactor
they leave) run in ``upoly``.  The multivariate gcd, ``gcd_multivariate``,
is GCDHEU (Char, Geddes and Gonnet, J. Symbolic Comput. 7, 1989) down to
one variable, with the subresultant PRS on ``MultiPoly`` coefficients in
the last shared variable after six failed points.  Every gcd is 0 or in
the ``primitive_integer`` form, integer coefficients of gcd 1 and a
positive leading coefficient, and ``gcd_all`` folds it over any number of
polynomials.  A resultant needs one point per variable, a power of two
xi > 2H with H Hadamard's bound over the unit torus,
H^2 = (sum_j |f_j|_1^2)^n * (sum_j |g_j|_1^2)^m for the coefficients f_j,
g_j of the eliminated variable.  Coordinate-line stripping and the
multivariate squarefree part (a gcd with each partial in turn) complete
the toolkit.

``format_poly`` writes the text format, exact and in a fixed term order,
e.g.::

    (1/12)*A2^2 - (1/4)*A1 + 1
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from operator import add, itemgetter, sub
from types import MappingProxyType

from . import upoly

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

    def order_in(self, var: str):
        """Least exponent of ``var``, the order along var = 0; INFINITE_ORDER for 0."""
        if not self.ints:
            return INFINITE_ORDER
        if var not in self.variables:
            return 0
        i = self.variables.index(var)
        return min(e[i] for e in self.ints)

    def multiplicity(self):
        """Least total degree, the multiplicity at the origin; INFINITE_ORDER for 0."""
        return min(map(sum, self.ints)) if self.ints else INFINITE_ORDER

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

    def __floordiv__(self, other):
        """The exact quotient, as ``exact_divide``: NotDivisibleError
        unless ``other`` divides this polynomial."""
        other = _coerce_poly(other)
        if other is NotImplemented:
            return NotImplemented
        return exact_divide(self, other)

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
            if not isinstance(var, str) or not var:
                raise ValueError(f"invalid variable name {var!r}")
            return _ZERO
        out = _ipartial(self.ints, self.variables.index(var))
        return _make(self.variables, out, self.content)

    def substitute(self, mapping: dict) -> "MultiPoly":
        """Specialize variables to rationals (int, ``Fraction`` or constant
        images) in one integer pass over the terms, ``_specialize``.

        Variables of the mapping that do not occur in the polynomial are
        ignored; unmapped variables are left alone.  An image with a
        variable is a ``TypeError``: shifts, charts and renamings have
        their own exponent maps.
        """
        values = {}
        for var in self.variables:
            if var not in mapping:
                continue
            image = mapping[var]
            if isinstance(image, MultiPoly) and not image.variables:
                image = image.constant_value()
            if not isinstance(image, (int, Fraction)):
                raise TypeError(f"{var} specializes to rationals only, not {image!r}")
            values[var] = image
        return _specialize(self, values) if values else self

    def shift(self, point: dict) -> "MultiPoly":
        """Recenter: substitute v -> v + point[v] for each listed variable.

        An integer Taylor shift per variable: with point[v] = n / d and D
        the degree in v, the term v^k gives C(k, i) * n^(k-i) * d^(D-k+i)
        times v^i, over d^D, for each i <= k: the weights of ``_taylor_weights``.
        """
        ints, den = self.ints, self.content.denominator
        for i, var in enumerate(self.variables):
            value = point.get(var)
            if not value:
                continue
            top = max(e[i] for e in ints)
            weights = _taylor_weights(value, top, top)
            out = {}
            get = out.get
            for e, c in ints.items():
                head, tail = e[:i], e[i + 1:]
                for j, w in weights[e[i]]:
                    key = head + (j,) + tail
                    out[key] = get(key, 0) + c * w
            ints = {e: c for e, c in out.items() if c}
            den *= value.denominator**top
        if ints is self.ints:
            return self
        return _make(self.variables, ints, self.content.numerator, den)

    def at_zero(self, var: str) -> "MultiPoly":
        """The restriction to var = 0: the terms free of ``var``."""
        if var not in self.variables:
            return self
        i = self.variables.index(var)
        ints = {e: c for e, c in self.ints.items() if not e[i]}
        return _make(self.variables, ints, self.content)

    def divide_by_power(self, var: str, k: int) -> "MultiPoly":
        """p / var^k as an exponent shift; NotDivisibleError unless var^k | p."""
        if not k or not self.ints:
            return self
        if self.order_in(var) < k:
            raise NotDivisibleError(f"{var}^{k} does not divide {format_poly(self)}")
        i = self.variables.index(var)
        ints = {e[:i] + (e[i] - k,) + e[i + 1:]: c for e, c in self.ints.items()}
        return _make(self.variables, ints, self.content)

    def evaluate(self, assignment: dict) -> Fraction:
        """The exact value at a point that assigns every variable: ``substitute``
        over all of them, so a value that is not rational is a ``TypeError``."""
        missing = [v for v in self.variables if v not in assignment]
        if missing:
            raise KeyError(f"missing assignment for {missing}")
        return self.substitute(assignment).constant_value()

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


_SET_VARIABLES = MultiPoly.variables.__set__
_SET_CONTENT = MultiPoly.content.__set__
_SET_INTS = MultiPoly.ints.__set__
_SET_VIEW = MultiPoly._terms.__set__


def _make(variables: tuple, ints: dict, num: int | Fraction = 1, den: int = 1, primitive=False):
    """The private constructor: the polynomial (num / den) * ints.

    ``variables`` is sorted and distinct, every exponent of ``ints`` is
    aligned to it, no coefficient is zero and den > 0.  The gcd and the
    sign of the integers are moved into the content and variables that
    no longer occur are pruned.  With ``primitive`` the caller vouches
    that ``ints`` is nonempty, has gcd 1 and uses every variable, so only
    the sign of num is moved.  ``num`` may also be a ``Fraction`` with
    den 1, such as the content of a polynomial a kernel passes through,
    which is kept as it is when nothing moves into it.
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
    _SET_CONTENT(
        poly, num if num.__class__ is Fraction else _UNIT if num == den == 1 else Fraction(num, den)
    )
    _SET_INTS(poly, ints)
    return poly


_UNIT = Fraction(1)
_ZERO = object.__new__(MultiPoly)
_SET_VARIABLES(_ZERO, ())
_SET_CONTENT(_ZERO, Fraction(0))
_SET_INTS(_ZERO, {})
_ONE = MultiPoly.const(1)


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


def _specialize(p: MultiPoly, values: dict) -> MultiPoly:
    """p with the variables of ``values`` set to those rationals.

    One integer pass: for v = n / d of degree D in v, the term with v^k is
    scaled by n^k * d^(D-k), the v column is dropped and d^D goes into the
    content denominator.
    """
    names = p.variables
    den = p.content.denominator
    rows, keep = [], []
    for i, top in enumerate(map(max, zip(*p.ints))):
        value = values.get(names[i])
        if value is None:
            keep.append(i)
            continue
        n, d = value.numerator, value.denominator
        dpow = [d**k for k in range(top + 1)]
        rows.append((i, [n**k * dpow[top - k] for k in range(top + 1)]))
        den *= dpow[top]
    out = {}
    get = out.get
    for e, c in p.ints.items():
        for i, row in rows:
            c *= row[e[i]]
        if c:
            key = tuple([e[k] for k in keep]) if keep else ()
            out[key] = get(key, 0) + c
    ints = {e: c for e, c in out.items() if c}
    return _make(tuple(names[k] for k in keep), ints, p.content.numerator, den)


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


def _ipartial(p: dict, i: int) -> dict:
    """The partial derivative of p in its i-th variable."""
    return {e[:i] + (e[i] - 1,) + e[i + 1:]: c * e[i] for e, c in p.items() if e[i]}


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
    orders = {var: k for var in p.variables if (k := p.order_in(var))}
    for var, k in orders.items():
        p = p.divide_by_power(var, k)
    return orders, p


def blow_up_chart(p: MultiPoly, coords: tuple, chart_coords: tuple, chart: str) -> MultiPoly:
    """p pulled back to one chart of the blow-up of the origin of ``coords``.

    With (x, y) = coords and (u, v) = chart_coords, chart "A" maps (u, v)
    to (x, y) = (u, u*v) and chart "B" to (u*v, v), so x^i y^j becomes
    u^(i+j) v^j or u^i v^(i+j).  Both maps are one-to-one on exponents:
    the integer coefficients and the content stay as they are.  Other
    variables are left alone; u and v may reuse the names x and y but must
    not name another variable of p.
    """
    return _chart_map(p, coords, chart_coords, chart, strict=False)[0]


def strict_transform(p: MultiPoly, coords: tuple, chart_coords: tuple, chart: str) -> tuple:
    """(``blow_up_chart`` divided by the largest power of the exceptional
    coordinate, u in chart "A" and v in chart "B", that power).

    That coordinate carries the exponent i + j of x^i y^j, so the power
    is the multiplicity of p at the origin, its least total degree in
    ``coords`` (0 when p is free of them), and the division is part of
    the same exponent map.
    """
    return _chart_map(p, coords, chart_coords, chart, strict=True)


def dehomogenize(p: MultiPoly, var: str, renames: dict) -> MultiPoly:
    """p at ``var`` = 1, with each variable of ``renames`` renamed.

    One map on exponents: the ``var`` column is dropped and the others are
    reordered to the sorted new names; terms that then share an exponent
    are added, which never happens for a form.  No two variables may get
    the same name.
    """
    names = p.variables
    where = {renames.get(w, w): k for k, w in enumerate(names) if w != var}
    if len(where) < len(names) - (var in names):
        raise ValueError(f"renaming {renames} merges variables of the polynomial")
    out = tuple(sorted(where))
    if out == names:
        return p
    columns = [where[w] for w in out]
    ints = {}
    get = ints.get
    for e, c in p.ints.items():
        key = tuple([e[k] for k in columns])
        ints[key] = get(key, 0) + c
    if len(ints) == len(p.ints):
        return _make(out, ints, p.content, primitive=True)
    return _make(out, {e: c for e, c in ints.items() if c}, p.content)


def _chart_map(p: MultiPoly, coords: tuple, chart_coords: tuple, chart: str, strict: bool):
    names = p.variables
    x, y = coords
    u, v = chart_coords
    if (u in names and u not in coords) or (v in names and v not in coords):
        raise ValueError(f"chart coordinates {chart_coords} already occur in the polynomial")
    pad = len(names)
    i = names.index(x) if x in names else pad
    j = names.index(y) if y in names else pad
    if i == j:
        return p, 0  # neither coordinate occurs
    # each new exponent is a sum of two old ones, pad reading as 0; a new
    # coordinate with both sums at pad does not occur and is left out, so
    # the result uses all its variables and keeps the content of p
    exc = u if chart == "A" else v
    sums = {u: (i, j), v: (j, pad)} if chart == "A" else {u: (i, pad), v: (i, j)}
    if pad in (i, j):
        sums = {w: s for w, s in sums.items() if min(s) < pad}
    if pad > 2 or pad in (i, j):
        sums.update((w, (k, pad)) for k, w in enumerate(names) if w not in coords)
    lowest = shift = 0
    if strict:
        if pad in (i, j):
            degrees = [e[min(i, j)] for e in p.ints]
        else:
            degrees = [e[i] + e[j] for e in p.ints]
        lowest = min(degrees)
        if lowest == max(degrees):
            del sums[exc]  # the strict transform is free of the exceptional coordinate
        else:
            shift = lowest
    out = tuple(sorted(sums))
    recipe = [sums[w] for w in out]
    ints = {}
    if shift:
        k = out.index(exc)
        for e, c in p.ints.items():
            e += (0,)
            key = [e[a] + e[b] for a, b in recipe]
            key[k] -= shift
            ints[tuple(key)] = c
    else:
        for e, c in p.ints.items():
            e += (0,)
            ints[tuple([e[a] + e[b] for a, b in recipe])] = c
    return _make(out, ints, p.content, primitive=True), lowest


# -- 2-jets at a point -------------------------------------------------------

# The exponents (k, l) of the monomials x^k y^l of total degree <= 2.
JET_KEYS = ((0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2))


def two_jet_at(p: MultiPoly, coords: tuple, point) -> dict:
    """The Taylor coefficients of ``p`` of total degree <= 2 at the rational
    ``point`` of the plane ``coords``, as {(k, l): c_kl} over ``JET_KEYS``,
    absent terms 0.

    The c_kl are integers, the coefficients of p recentred at the point
    times one positive factor, so every test of signs, ratios or vanishing
    reads them directly.  Term by term over a common denominator, with no
    shifted polynomial built: for the point (n1/d1, n2/d2) and D1, D2 the
    degrees of p in the two coordinates, the term x^i y^j adds
    C(i, k) n1^(i-k) d1^(D1-i+k) * C(j, l) n2^(j-l) d2^(D2-j+l) times its
    integer coefficient to c_kl, so the factor is d1^D1 d2^D2 over the
    content of p.  Every variable of p must be one of ``coords``.
    """
    names = p.variables
    x, y = coords
    cx = names.index(x) if x in names else -1
    cy = names.index(y) if y in names else -1
    if len(names) > (cx >= 0) + (cy >= 0):
        raise ValueError(f"variables {names} of the polynomial are not among {coords}")
    ints = p.ints
    px, py = point
    wx = _AT_ZERO if cx < 0 or not px else _taylor_weights(px, max(e[cx] for e in ints), 2)
    wy = _AT_ZERO if cy < 0 or not py else _taylor_weights(py, max(e[cy] for e in ints), 2)
    sums = [0] * 9  # c_kl at 3k + l
    for e, c in ints.items():
        row_x = wx.get(e[cx] if cx >= 0 else 0)
        row_y = wy.get(e[cy] if cy >= 0 else 0)
        if row_x is None or row_y is None:
            continue  # a power above 2 of a coordinate at 0
        for k, a in row_x:
            ca = c * a
            for l, b in row_y:
                if k + l <= 2:
                    sums[3 * k + l] += ca * b
    return {(k, l): sums[3 * k + l] for k, l in JET_KEYS}


# The weights of ``_taylor_weights`` at the value 0: x^i stays x^i.
_AT_ZERO = {0: ((0, 1),), 1: ((1, 1),), 2: ((2, 1),)}


def _taylor_weights(value, top: int, upto: int) -> dict:
    """For x -> x + value with value = n / d, the pairs
    (k, C(i, k) n^(i-k) d^(top-i+k)) for k <= min(i, upto), keyed by
    i <= top: what x^i gives to x^k over d^top."""
    n, d = value.numerator, value.denominator
    npow = [n**k for k in range(top + 1)]
    dpow = [d**k for k in range(top + 1)]
    return {
        i: [(k, math.comb(i, k) * npow[i - k] * dpow[top - i + k]) for k in range(min(i, upto) + 1)]
        for i in range(top + 1)
    }


# -- linear Poisson brackets -------------------------------------------------


def poisson_brackets(polys, structure) -> dict:
    """{(i, j): {p_i, p_j}} for i < j, the brackets of every pair of ``polys``,
    where {f, g} = sum over the table of {x, y} * (f_x * g_y - f_y * g_x).

    ``structure`` maps a pair of variable names (x, y), one entry per
    unordered pair, to integer structure constants ((c, z), ...) with
    {x, y} = sum c * z; then {y, x} = -{x, y}, and unlisted pairs commute.
    Each polynomial is written over the common variables once and each of
    its partial derivatives is taken once; every sum is taken on the
    integer parts and scaled once by the two contents.
    """
    if any(type(c) is not int for consts in structure.values() for c, _ in consts):
        raise TypeError("structure constants must be integers")
    occurring = {v for p in polys for v in p.variables}
    pairs = [(x, y, consts) for (x, y), consts in structure.items()
             if x in occurring and y in occurring]
    names = tuple(sorted({*occurring, *(z for *_, consts in pairs for _, z in consts)}))
    where = {v: i for i, v in enumerate(names)}
    table = [(where[x], where[y], [(c, where[z]) for c, z in consts]) for x, y, consts in pairs]
    need = {i for i, j, _ in table} | {j for i, j, _ in table}
    partials = []
    for p in polys:
        ints = _over(p, names)
        partials.append({where[v]: _ipartial(ints, where[v]) for v in p.variables if where[v] in need})
    brackets = {}
    for (a, p), (b, q) in itertools.combinations(enumerate(polys), 2):
        dp, dq = partials[a], partials[b]
        out = {}
        get = out.get
        for i, j, shifts in table:
            for sign, u, v in ((1, i, j), (-1, j, i)):
                if u not in dp or v not in dq:
                    continue
                for ea, ca in dp[u].items():
                    for eb, cb in dq[v].items():
                        e, cab = tuple(map(add, ea, eb)), sign * ca * cb
                        for c, k in shifts:
                            ek = e[:k] + (e[k] + 1,) + e[k + 1:]
                            out[ek] = get(ek, 0) + c * cab
        out = {e: s for e, s in out.items() if s}
        c, d = p.content, q.content
        brackets[a, b] = _make(names, out, c.numerator * d.numerator, c.denominator * d.denominator)
    return brackets


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
        r = upoly.resultant(_int_coeffs(f), _int_coeffs(g))
        return {(): r} if r else {}
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
    """The integer polynomial in one more (last) variable with value p at
    xi: the balanced xi-adic digits of its coefficients."""
    return {e + (k,): d for e, c in p.items() for k, d in enumerate(upoly.digits(c, xi)) if d}


# -- gcds --------------------------------------------------------------------


def content_in(p: MultiPoly, var: str) -> MultiPoly:
    """gcd of the coefficients of p viewed as univariate in ``var``."""
    return gcd_all(p.as_univariate(var))


def gcd_all(polys) -> MultiPoly:
    """The normalized gcd of an iterable of polynomials, 0 when it yields
    none or only zeros.  Drawing stops at the first nonzero constant gcd."""
    g = _ZERO
    for p in polys:
        g = gcd_multivariate(g, p)
        if g.is_constant() and not g.is_zero():
            break
    return g


def gcd_multivariate(p: MultiPoly, q: MultiPoly) -> MultiPoly:
    """Normalized gcd over Q[x1..xn].

    Univariate inputs go to ``upoly.gcd`` on their integer coefficients.
    Otherwise the heuristic gcd ``_heu_gcd`` runs first.  Should it fail, the
    subresultant PRS runs in the last variable the inputs share: the
    coefficients in the remaining variables are handled through content
    and primitive part, and the remainder sequence runs on the
    integer-primitive parts, whose exact divisions keep coefficient
    growth polynomial.  The result is 0 or the ``primitive_integer`` form:
    integer coefficients of gcd 1 and a positive leading coefficient.
    """
    if p.is_zero():
        return primitive_integer(q)[0]
    if q.is_zero():
        return primitive_integer(p)[0]
    if p.is_constant() or q.is_constant():
        return _ONE
    shared = [v for v in p.variables if v in q.variables]
    if not shared:
        return _ONE
    names = _union(p, q)
    if len(names) == 1:
        h = upoly.gcd(_int_coeffs(p.ints), _int_coeffs(q.ints))
        return _ONE if len(h) == 1 else _make(names, _int_dict(h), primitive=True)
    h = _heu_gcd(_over(p, names), _over(q, names))
    if h is None:
        return _prs_gcd(p, q, shared[-1])
    return primitive_integer(_make(names, h))[0]


def _heu_gcd(f: dict, g: dict):
    """gcd of two nonzero integer polynomials over one variable tuple, or None.

    GCDHEU (B. W. Char, K. O. Geddes, G. H. Gonnet, J. Symbolic Comput. 7,
    1989): with the integer contents removed, the last variable is set to
    an integer xi >= 2 * min(|f|_inf, |g|_inf) + 2 and the gcd of the
    images is found recursively, down to one variable, where ``upoly.gcd``
    takes over.  The primitive part of the polynomial read off its
    balanced xi-adic digits is the gcd of the primitive parts if and only
    if it divides both, which is checked by exact division.  None after
    six points without success at one level.
    """
    if len(next(iter(f))) == 1:
        return _int_dict(upoly.gcd(_int_coeffs(f), _int_coeffs(g)))
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
        return gcd_multivariate(content_in(f, var), content_in(g, var))
    cf = content_in(f, var)
    cg = content_in(g, var)
    cont = gcd_multivariate(cf, cg)
    a, b = exact_divide(f, cf).as_univariate(var), exact_divide(g, cg).as_univariate(var)
    last = upoly.subresultant_list(*((a, b) if len(a) >= len(b) else (b, a)))[0]
    if len(last) == 1:
        return cont
    x = MultiPoly.variable(var)
    h = _ZERO
    for c in reversed(last):
        h = h * x + c
    return primitive_integer(cont * exact_divide(h, content_in(h, var)))[0]


# -- monomial order (graded lexicographic, descending for display) ---------


def _grlex_key(exp: Exponent):
    return (sum(exp), exp)


# -- normal forms and univariate conversions ---------------------------------


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


def _int_coeffs(ints: dict) -> list:
    """The integer coefficients of a univariate polynomial, ascending."""
    coeffs = [0] * (max(ints)[0] + 1)
    for (j,), c in ints.items():
        coeffs[j] = c
    return coeffs


def _int_dict(coeffs: list) -> dict:
    return {(j,): c for j, c in enumerate(coeffs) if c}


def rational_roots(p: MultiPoly):
    """The rational roots of a univariate polynomial, split off.

    Returns (roots, cofactor): the sorted (root, multiplicity) pairs and
    the cofactor free of rational roots, with p = cofactor * prod (x - r)^m,
    by ``upoly.rational_roots`` on the integer coefficients.
    """
    if p.is_zero():
        raise ValueError("zero polynomial has every root")
    if p.is_constant():
        return [], p
    if len(p.variables) != 1:
        raise ValueError("rational_roots expects a univariate polynomial")
    roots, cofactor = upoly.rational_roots(_int_coeffs(p.ints))
    return roots, _make(p.variables, _int_dict(cofactor), p.content)


def radical(p: MultiPoly) -> MultiPoly:
    """Squarefree part of a polynomial: p / gcd(p, all partials)."""
    if p.is_zero() or p.is_constant():
        return p
    if len(p.variables) == 1:
        part = upoly.squarefree_part(_int_coeffs(p.ints))
        return _make(p.variables, _int_dict(part), p.content, primitive=True)
    g = gcd_all(itertools.chain((p,), map(p.derivative, p.variables)))
    return p if g.is_constant() else exact_divide(p, g)


def is_squarefree(p: MultiPoly) -> bool:
    """True when no square of a nonconstant polynomial divides p."""
    return radical(p) == p


# -- text format -------------------------------------------------------------


def format_coeff(c: Fraction) -> str:
    if c.denominator == 1:
        return str(c.numerator)
    return f"({c.numerator}/{c.denominator})"


def format_poly(p: MultiPoly) -> str:
    """The text format: terms in decreasing grlex order, each coefficient
    an integer or ``(n/d)``."""
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
