"""Exact sparse multivariate polynomial arithmetic over the rationals.

A polynomial is a map from exponent vectors to nonzero ``Fraction``
coefficients, together with the ordered tuple of variable names the
exponents refer to.  The representation is canonical: variables are
sorted by name, variables that do not occur are pruned, and zero
coefficients are never stored.  Two ``MultiPoly`` objects are equal
exactly when they are the same polynomial.

Besides ring arithmetic the module provides the elimination toolkit
used throughout the package: exact division, maximal-power extraction,
Sylvester resultants (fraction-free Bareiss elimination), univariate
and multivariate gcd via primitive pseudo-remainder sequences, Taylor
recentering into homogeneous components, and exact rational-root
extraction for univariate polynomials.

The text format round-trips bit-exactly, e.g.::

    (1/12)*A2^2 - (1/4)*A1 + 1

``parse`` accepts the same syntax and can substitute named parameters
(e.g. ``alpha``) by exact rationals while reading.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

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
        value = _coerce_coeff(value)
        if value == 0:
            return _ZERO
        return MultiPoly((), {(): value})

    @staticmethod
    def variable(name: str) -> "MultiPoly":
        return MultiPoly((name,), {(1,): Fraction(1)})

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
            out[exp] = out.get(exp, Fraction(0)) + coeff
        return MultiPoly(names, out)

    __radd__ = __add__

    def __neg__(self):
        return MultiPoly(self.variables, {e: -c for e, c in self.terms.items()})

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
        names, a, b = _aligned(self, other)
        out = {}
        for ea, ca in a.items():
            for eb, cb in b.items():
                exp = tuple(x + y for x, y in zip(ea, eb))
                out[exp] = out.get(exp, Fraction(0)) + ca * cb
        return MultiPoly(names, out)

    __rmul__ = __mul__

    def __pow__(self, exponent: int):
        if not isinstance(exponent, int):
            return NotImplemented
        if exponent < 0:
            raise ValueError("negative polynomial exponent")
        result = MultiPoly.const(1)
        base = self
        n = exponent
        while n:
            if n & 1:
                result = result * base
            base = base * base if n > 1 else base
            n >>= 1
        return result

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
            if k == 0:
                continue
            ne = exp[:i] + (k - 1,) + exp[i + 1:]
            out[ne] = out.get(ne, Fraction(0)) + coeff * k
        return MultiPoly(self.variables, out)

    def substitute(self, mapping: dict) -> "MultiPoly":
        """Exact composition: replace variables by polynomials or rationals.

        Variables of the mapping that do not occur in the polynomial are
        ignored; unmapped variables are left alone.
        """
        images = {}
        for var in self.variables:
            if var in mapping:
                images[var] = _coerce_poly_strict(mapping[var])
        if not images:
            return self
        result = _ZERO
        cache = {var: {0: MultiPoly.const(1), 1: img} for var, img in images.items()}
        for exp, coeff in self.terms.items():
            term = MultiPoly.const(coeff)
            for i, var in enumerate(self.variables):
                k = exp[i]
                if k == 0:
                    continue
                if var in images:
                    term = term * _cached_power(cache[var], images[var], k)
                else:
                    term = term * MultiPoly((var,), {(k,): Fraction(1)})
            result = result + term
        return result

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
            re = exp[:i] + exp[i + 1:]
            buckets[exp[i]][re] = coeff
        return [MultiPoly(rest, b) for b in buckets]

    def leading_coefficient_in(self, var: str) -> "MultiPoly":
        coeffs = self.as_univariate(var)
        return coeffs[-1] if coeffs else _ZERO


_ZERO = object.__new__(MultiPoly)
object.__setattr__(_ZERO, "variables", ())
object.__setattr__(_ZERO, "terms", {})


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
    index = {v: i for i, v in enumerate(union)}
    n = len(union)
    out = {}
    for exp, coeff in p.terms.items():
        ne = [0] * n
        for i, v in enumerate(p.variables):
            ne[index[v]] = exp[i]
        out[tuple(ne)] = coeff
    return out


def _cached_power(cache: dict, base: MultiPoly, k: int) -> MultiPoly:
    if k in cache:
        return cache[k]
    half = _cached_power(cache, base, k // 2)
    result = half * half
    if k & 1:
        result = result * base
    cache[k] = result
    return result


# -- monomial order (graded lexicographic, descending for display) ---------


def _grlex_key(exp: Exponent):
    return (sum(exp), exp)


def _leading_term(p: MultiPoly):
    exp = max(p.terms, key=_grlex_key)
    return exp, p.terms[exp]


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
        c = q.constant_value()
        return MultiPoly(p.variables, {e: k / c for e, k in p.terms.items()})
    names, ptab, qtab = _aligned(p, q)
    qexp, qc = max(qtab, key=_grlex_key), None
    qc = qtab[qexp]
    remaining = dict(ptab)
    quotient = {}
    while remaining:
        exp = max(remaining, key=_grlex_key)
        coeff = remaining[exp]
        diff = tuple(a - b for a, b in zip(exp, qexp))
        if any(d < 0 for d in diff):
            raise NotDivisibleError(format_poly(q) + " does not divide " + format_poly(p))
        factor = coeff / qc
        quotient[diff] = factor
        for qe, qk in qtab.items():
            target = tuple(a + b for a, b in zip(diff, qe))
            new = remaining.get(target, Fraction(0)) - factor * qk
            if new == 0:
                remaining.pop(target, None)
            else:
                remaining[target] = new
    return MultiPoly(names, quotient)


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
    k = 0
    current = p
    while True:
        try:
            current = exact_divide(current, q)
        except NotDivisibleError:
            return k, current
        k += 1


# -- resultants --------------------------------------------------------------


def resultant(f: MultiPoly, g: MultiPoly, var: str) -> MultiPoly:
    """Sylvester resultant of f and g with respect to ``var``.

    Computed as the determinant of the Sylvester matrix by fraction-free
    Bareiss elimination over the remaining variables, so the result is
    exact.  Both inputs must have positive degree in ``var``.
    """
    fc = f.as_univariate(var)
    gc = g.as_univariate(var)
    m, n = len(fc) - 1, len(gc) - 1
    if m < 1 or n < 1:
        raise ValueError("resultant needs positive degree in the variable")
    if fc[-1].is_zero() or gc[-1].is_zero():
        raise ValueError("degenerate leading coefficient")
    size = m + n
    rows = []
    fdesc = fc[::-1]
    gdesc = gc[::-1]
    for i in range(n):
        row = [_ZERO] * size
        for j, c in enumerate(fdesc):
            row[i + j] = c
        rows.append(row)
    for i in range(m):
        row = [_ZERO] * size
        for j, c in enumerate(gdesc):
            row[i + j] = c
        rows.append(row)
    return _bareiss_determinant(rows)


def _bareiss_determinant(matrix) -> MultiPoly:
    n = len(matrix)
    sign = 1
    prev = MultiPoly.const(1)
    for k in range(n - 1):
        if matrix[k][k].is_zero():
            for i in range(k + 1, n):
                if not matrix[i][k].is_zero():
                    matrix[k], matrix[i] = matrix[i], matrix[k]
                    sign = -sign
                    break
            else:
                return _ZERO
        pivot = matrix[k][k]
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                num = matrix[i][j] * pivot - matrix[i][k] * matrix[k][j]
                matrix[i][j] = exact_divide(num, prev)
            matrix[i][k] = _ZERO
        prev = pivot
    result = matrix[n - 1][n - 1]
    return result if sign == 1 else -result


# -- gcd via primitive pseudo-remainder sequences ----------------------------


def pseudo_remainder(f: MultiPoly, g: MultiPoly, var: str) -> MultiPoly:
    """prem(f, g): remainder of lc(g)^(deg f - deg g + 1) * f by g in var."""
    dg = g.degree_in(var)
    if g.is_zero():
        raise ZeroDivisionError("pseudo-division by zero")
    lg = g.leading_coefficient_in(var)
    r = f
    v = MultiPoly.variable(var)
    while not r.is_zero() and r.degree_in(var) >= dg:
        k = r.degree_in(var) - dg
        lr = r.leading_coefficient_in(var)
        r = lg * r - lr * v**k * g
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
    """Normalized gcd over Q[x1..xn] (primitive PRS, recursing on contents)."""
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
    and primitive part; the remainder sequence is the subresultant PRS,
    whose exact divisions keep coefficient growth polynomial.  The result
    is monic when univariate over Q, otherwise primitive with a
    sign-normalized leading coefficient.
    """
    if f.is_zero():
        return _normalize_gcd(g)
    if g.is_zero():
        return _normalize_gcd(f)
    if f.degree_in(var) == 0 or g.degree_in(var) == 0:
        cf = content_in(f, var)
        cg = content_in(g, var)
        return _normalize_gcd(gcd_multivariate(cf, cg))
    if len(f.variables) == 1 and len(g.variables) == 1:
        return _gcd_univariate_rational(f, g, var)
    cf = content_in(f, var)
    cg = content_in(g, var)
    cont = gcd_multivariate(cf, cg)
    a = exact_divide(f, cf)
    b = exact_divide(g, cg)
    if a.degree_in(var) < b.degree_in(var):
        a, b = b, a
    # subresultant polynomial remainder sequence
    g_coef = MultiPoly.const(1)
    h_coef = MultiPoly.const(1)
    while True:
        delta = a.degree_in(var) - b.degree_in(var)
        r = pseudo_remainder(a, b, var)
        if r.is_zero():
            break
        divisor = g_coef * h_coef**delta
        a, b = b, exact_divide(r, divisor)
        if b.degree_in(var) == 0:
            return _normalize_gcd(cont)
        g_coef = a.leading_coefficient_in(var)
        if delta == 1:
            h_coef = g_coef
        elif delta > 1:
            h_coef = exact_divide(g_coef**delta, h_coef ** (delta - 1))
    return _normalize_gcd(cont * primitive_part_in(b, var))


def _gcd_univariate_rational(f: MultiPoly, g: MultiPoly, var: str) -> MultiPoly:
    """Monic gcd of univariate polynomials over Q (integer-primitive PRS)."""
    a, b = _int_coeffs(f, var), _int_coeffs(g, var)
    if len(a) < len(b):
        a, b = b, a
    while any(b):
        # integer pseudo-remainder of a by b, then strip integer content
        while len(a) >= len(b):
            if a and a[-1] == 0:
                a.pop()
                continue
            lead_b = b[-1]
            lead_a = a[-1]
            d = math.gcd(lead_a, lead_b)
            scale_a, scale_b = lead_b // d, lead_a // d
            shift = len(a) - len(b)
            a = [scale_a * c for c in a]
            for i, c in enumerate(b):
                a[i + shift] -= scale_b * c
            while a and a[-1] == 0:
                a.pop()
            if not a:
                break
        content = 0
        for c in a:
            content = math.gcd(content, c)
        if content > 1:
            a = [c // content for c in a]
        a, b = b, a
    poly = MultiPoly((var,), {(i,): Fraction(c) for i, c in enumerate(a)})
    return _normalize_gcd(poly)


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
    return [MultiPoly(p.variables, b) for b in buckets]


# -- integer utilities for rational root extraction --------------------------


def primitive_integer(p: MultiPoly):
    """Scale p to integer coefficients with content 1 and positive lead.

    Returns (primitive, unit) with p = unit * primitive and unit a
    nonzero rational.
    """
    if p.is_zero():
        return _ZERO, Fraction(1)
    denom = 1
    for c in p.terms.values():
        denom = denom * c.denominator // math.gcd(denom, c.denominator)
    nums = [int(c * denom) for c in p.terms.values()]
    g = 0
    for v in nums:
        g = math.gcd(g, v)
    lead = p.terms[max(p.terms, key=_grlex_key)]
    sign = -1 if lead < 0 else 1
    unit = Fraction(sign * g, denom)
    return exact_divide(p, MultiPoly.const(unit)), unit


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
    poly = MultiPoly((var,), {(i,): Fraction(c) for i, c in enumerate(vals)})
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
