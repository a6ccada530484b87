"""Dense univariate polynomials over the integers, as lists of their
coefficients in ascending order with a nonzero last entry ([] is zero).

Nothing here builds a ``MultiPoly``: ``poly`` converts a univariate input
once and calls these kernels.  ``gcd`` is GCDHEU (B. W. Char, K. O.
Geddes, G. H. Gonnet, J. Symbolic Comput. 7, 1989), with the subresultant
PRS (W. S. Brown, JACM 18, 1971) after six failed points; the squarefree
decomposition is Yun's (SYMSAC 1976), and rational roots are read off its
factors by p-adic lifting (Loos, SIAM J. Comput. 12, 1983), so no integer
is factored.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction


def subresultant_list(a: list, b: list):
    """The subresultant PRS of a and b, coefficient lists with
    deg a >= deg b >= 1 over the integers or any ring with exact ``//``
    (``poly`` passes ``MultiPoly``s): (last, d, h, sign), the last nonzero
    remainder, the degree of the one before it, the scale h and
    (-1)^(sum of deg a * deg b over the steps).  It stops at the first
    remainder that vanishes, when ``last`` is a gcd up to content, or is
    constant, when the resultant is sign * last^d / h^(d - 1) (H. Cohen,
    A Course in Computational Algebraic Number Theory, Algorithm 3.3.7).
    """
    da, db = len(a) - 1, len(b) - 1
    g = h = sign = 1
    while db > 0:
        delta = da - db
        if da & db & 1:
            sign = -sign
        r = prem_list(a, b)
        if not r:
            break
        divisor = g * h**delta
        a, b = b, [c // divisor for c in r]
        da, db = db, len(b) - 1
        g = a[-1]
        if delta:
            h = g**delta // h ** (delta - 1)
    return b, da, h, sign


def prem_list(a: list, b: list) -> list:
    """lc(b)^(deg a - deg b + 1) * a mod b for ascending coefficient lists.

    Each reduction step multiplies by lc(b) once; a step can lower the
    degree by more than one, so the power still owed is applied at the end.
    """
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


def resultant(f: list, g: list) -> int:
    """The resultant of two polynomials of positive degree."""
    m, n = len(f) - 1, len(g) - 1
    last, d, h, sign = subresultant_list(*((f, g) if m >= n else (g, f)))
    if len(last) > 1:
        return 0
    return (-sign if m < n and m & n & 1 else sign) * (last[0] ** d // h ** (d - 1))


def gcd(f: list, g: list) -> list:
    """The gcd in Z[x] of two nonzero polynomials: the gcd of their
    contents times their primitive gcd, with a positive lead."""
    h = _heu_gcd(f, g)
    return _prs_gcd(f, g) if h is None else h


def _heu_gcd(f: list, g: list):
    """GCDHEU: the primitive parts are evaluated at one integer
    xi >= 2 * min(|f|_inf, |g|_inf) + 2, and the primitive part read off
    the balanced xi-adic digits of the integer gcd is the gcd if and only
    if it divides both; None after six points."""
    cf, cg = math.gcd(*f), math.gcd(*g)
    f, g = [c // cf for c in f], [c // cg for c in g]
    content = math.gcd(cf, cg)
    xi = 2 * min(max(map(abs, f)), max(map(abs, g))) + 2
    for _ in range(6):
        fe, ge = horner_pq(f, xi, 1), horner_pq(g, xi, 1)
        if fe and ge:
            h = _primitive(digits(math.gcd(fe, ge), xi))
            if len(h) == 1:
                return [content]
            if exact_quotient(f, h) is not None and exact_quotient(g, h) is not None:
                return [content * c for c in h]
        xi = xi * 73794 * math.isqrt(math.isqrt(xi)) // 27011
    return None


def _prs_gcd(f: list, g: list) -> list:
    content = math.gcd(math.gcd(*f), math.gcd(*g))
    a, b = (f, g) if len(f) >= len(g) else (g, f)
    last = subresultant_list(a, b)[0] if len(b) > 1 else [1]
    return [content * c for c in _primitive(last)]


def exact_quotient(f: list, g: list):
    """f / g for a nonzero g, or None when g does not divide f in Z[x]."""
    m, k = len(g) - 1, len(f) - len(g)
    if not f:
        return []
    if k < 0 or (g[0] and f[0] % g[0]):
        return None
    lead, r, q = g[-1], list(f), [0] * (k + 1)
    for i in range(k, -1, -1):
        c, rem = divmod(r[i + m], lead)
        if rem:
            return None
        if c:
            q[i] = c
            for j in range(m):
                r[i + j] -= c * g[j]
    return None if any(r[:m]) else q


def squarefree_part(f: list) -> list:
    """f / gcd(f, f') for f of positive degree: each of its irreducible
    factors once, times a constant."""
    return exact_quotient(f, gcd(f, _derivative(f)))


def squarefree_decomposition(f: list):
    """(c, [a1, a2, ...]) with f = c * a1 * a2^2 * a3^3 * ... for f of
    positive degree, by Yun's gcds with derivatives: the ai are primitive,
    squarefree, pairwise coprime and have positive leads, [1] where no
    factor has that multiplicity, and the last is not [1]."""
    c = math.gcd(*f) if f[-1] > 0 else -math.gcd(*f)
    f = [x // c for x in f]
    df = _derivative(f)
    a = gcd(f, df)
    b, d = exact_quotient(f, a), exact_quotient(df, a)
    factors = []
    while len(b) > 1:
        d = [u - v for u, v in itertools.zip_longest(d, _derivative(b), fillvalue=0)]
        while d and not d[-1]:
            d.pop()
        a = gcd(b, d) if d else b
        b, d = exact_quotient(b, a), exact_quotient(d, a)
        factors.append(a)
    return c, factors


def rational_roots(f: list):
    """(roots, g) for a nonzero f: its rational roots as sorted (root,
    multiplicity) pairs and the g with no rational root and
    f = g * prod (x - r)^m.  A power of x is split off first, and a linear
    c1 x + c0 has the root -c0 / c1 and g = c1; otherwise each root is one
    of a factor ai of the squarefree decomposition, of multiplicity i."""
    k = next(i for i, c in enumerate(f) if c)
    roots, f = [(Fraction(0), k)] if k else [], f[k:]
    if len(f) == 2:
        roots.append((Fraction(-f[0], f[1]), 1))
    if len(f) < 3:
        return sorted(roots), f[-1:]
    scale = 1
    for m, a in enumerate(squarefree_decomposition(f)[1], 1):
        if len(a) == 1:
            continue
        if len(a) == 2:
            found = [Fraction(-a[0], a[1])]
        else:
            found = [r for r in padic_candidates(a) if not horner_pq(a, r.numerator, r.denominator)]
        for r in found:
            for _ in range(m):
                f = exact_quotient(f, [-r.numerator, r.denominator])
            scale *= r.denominator**m
            roots.append((r, m))
    return sorted(roots), [scale * c for c in f]


def padic_candidates(sf: list) -> list:
    """Rationals among which every rational root of ``sf``, squarefree with
    a nonzero constant term, lies.  A root u/v in lowest terms has v | an
    and u | a0, so N = an*u/v is an integer with |N| <= |a0*an|.  Modulo a
    prime p dividing neither an nor the discriminant of sf, u/v reduces to
    a simple root r of sf, which Newton's iteration lifts uniquely to the
    modulus M = p^(2^k) > 2|a0*an|; N is the symmetric residue of an*r."""
    a0, an = sf[0], sf[-1]
    deriv = _derivative(sf)
    for p in itertools.count(2):
        if an % p == 0 or any(p % d == 0 for d in range(2, math.isqrt(p) + 1)):
            continue
        residues = [r for r in range(p) if eval_mod(sf, r, p) == 0]
        if all(eval_mod(deriv, r, p) for r in residues):
            break
    modulus = p
    while modulus <= 2 * abs(a0 * an):
        modulus *= modulus
        residues = [
            (r - eval_mod(sf, r, modulus) * pow(eval_mod(deriv, r, modulus), -1, modulus))
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


def eval_mod(coeffs: list, x: int, modulus: int) -> int:
    """Value at x, reduced mod ``modulus``."""
    acc = 0
    for c in reversed(coeffs):
        acc = (acc * x + c) % modulus
    return acc


def horner_pq(coeffs: list, p: int, q: int) -> int:
    """q^n * f(p/q) for f of degree n, by Horner's rule in integers."""
    acc, qk = 0, 1
    for c in reversed(coeffs):
        acc = acc * p + c * qk
        qk *= q
    return acc


def digits(n: int, xi: int) -> list:
    """The balanced xi-adic digits of n, in (-xi/2, xi/2], ascending; bit
    fields when xi is a power of two."""
    bits, half = xi.bit_length() - 1, xi >> 1
    mask = xi - 1 if xi == 1 << bits else 0
    out = []
    while n:
        n, d = (n >> bits, n & mask) if mask else divmod(n, xi)
        if d > half:
            d -= xi
            n += 1
        out.append(d)
    return out


def _primitive(f: list) -> list:
    """f divided by its content, with a positive lead."""
    c = math.gcd(*f) if f[-1] > 0 else -math.gcd(*f)
    return [x // c for x in f]


def _derivative(f: list) -> list:
    return [i * c for i, c in enumerate(f)][1:]
