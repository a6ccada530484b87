"""SL(2,Z) arithmetic and bounded solving of monodromy relations.

Around a node of the branch curve the two local monodromy matrices
commute; around a cusp they satisfy the braid relation ABA = BAB.  Both
relations are solved exhaustively over matrices with bounded entries
that are conjugate to T = [[1,1],[0,1]], which is the monodromy of a
fiber with one vanishing cycle.  One walk per call lists those matrices:
the trace-2 matrices [[p, q], [r, 2-p]], of determinant 1 when
qr = -(p-1)^2, so off p = 1 it visits only the divisor pairs of
(p-1)^2.  Conjugacy to T is decided by its closed form, and both solvers
filter the walk's list by their relation; they are exact, and solutions
of the braid relation normalize under the centralizer of T to the single
representative [[1,0],[-1,1]].
"""

from __future__ import annotations

from math import gcd

from .record import Record, Value

_set = object.__setattr__  # faster than Value._store; the walk builds an SL2Z per matrix


class NotUnimodularError(ValueError):
    """Matrix determinant is not 1."""


class SL2Z(Value):
    """Integer 2x2 matrix with determinant 1."""

    __slots__ = ("a", "b", "c", "d")

    def __init__(self, a: int, b: int, c: int, d: int):
        if a * d - b * c != 1:
            raise NotUnimodularError(f"det {((a, b), (c, d))} != 1")
        _set(self, "a", a)
        _set(self, "b", b)
        _set(self, "c", c)
        _set(self, "d", d)

    @staticmethod
    def identity() -> "SL2Z":
        return SL2Z(1, 0, 0, 1)

    def __mul__(self, other: "SL2Z") -> "SL2Z":
        return SL2Z(
            self.a * other.a + self.b * other.c,
            self.a * other.b + self.b * other.d,
            self.c * other.a + self.d * other.c,
            self.c * other.b + self.d * other.d,
        )

    def inverse(self) -> "SL2Z":
        return SL2Z(self.d, -self.b, -self.c, self.a)

    def trace(self) -> int:
        return self.a + self.d

    def __pow__(self, n: int) -> "SL2Z":
        if n < 0:
            return self.inverse() ** (-n)
        result = SL2Z.identity()
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base if n > 1 else base
            n >>= 1
        return result

    def to_json(self):
        return [[self.a, self.b], [self.c, self.d]]


T = SL2Z(1, 1, 0, 1)


def is_conjugate_to_T(m: SL2Z) -> bool:
    """Decide whether m is conjugate to T in SL(2,Z), by the closed form.

    A trace-2 matrix I + N != I is conjugate to T^n, where n = ±gcd of
    the entries of N, with the sign of N12, or of -N21 when N12 = 0
    (M. Newman, *Integral Matrices*, 1972, ch. VII).  So m ~ T exactly
    when that gcd is 1 and the sign is positive.  For m = I every entry
    of N is 0, and so is their gcd, so the identity fails that test.
    """
    if m.trace() != 2 or m.b < 0 or (m.b == 0 and m.c > 0):
        return False
    return gcd(m.a - 1, m.b, m.c, m.d - 1) == 1


def conjugates_of_T(bound: int) -> list:
    """The matrices with entries bounded by ``bound`` that are conjugate to
    T, in lexicographic order of their entries.

    Off the row p = 1 a trace-2 matrix [[p, q], [r, 2-p]] has determinant 1
    exactly when q r = -(p-1)^2, so q = ±d for the divisors d of (p-1)^2
    with (p-1)^2 / bound <= d <= bound, and only those pairs are visited.
    The divisors at most |p-1| are found by trial, the others as their
    cofactors.
    """
    found = []
    for p in range(2 - bound, bound + 1):  # so that |2 - p| <= bound too
        k = abs(p - 1)
        square = k * k
        if square:
            low = [d for d in range(-(-square // bound), k + 1) if not square % d]
            ds = low + [square // d for d in reversed(low[:-1])]  # low ends at k
            pairs = [(-d, square // d) for d in reversed(ds)] + [(d, -square // d) for d in ds]
        else:
            span = range(-bound, bound + 1)
            pairs = [(q, r) for q in span for r in ((0,) if q else span)]
        found += [m for q, r in pairs if is_conjugate_to_T(m := SL2Z(p, q, r, 2 - p))]
    return found


def solve_node_relation(a: SL2Z, candidates: list) -> list:
    """The candidates B with A B = B A: over ``conjugates_of_T(bound)``,
    all bounded B conjugate to T that commute with A."""
    return [b for b in candidates if a * b == b * a]


def solve_cusp_relation(a: SL2Z, candidates: list) -> list:
    """The candidates B != A with A B A = B A B, from the same walk as
    ``solve_node_relation``; B = A satisfies the relation trivially."""
    return [b for b in candidates if b != a and a * b * a == b * a * b]


class NotInFamilyError(ValueError):
    """Matrix is not a centralizer conjugate of [[1,0],[-1,1]]."""


STANDARD_CUSP_PARTNER = SL2Z(1, 0, -1, 1)


def normalize_pair(b: SL2Z) -> SL2Z:
    """Normalize a braid-relation partner of T by the centralizer of T.

    The centralizer of T is {±T^k}; conjugating [[1,0],[-1,1]] by T^k
    gives [[1-k, k^2], [-1, 1+k]], so the unique representative with
    vanishing offset in the (1,1) entry is [[1,0],[-1,1]] itself.
    """
    if b == T:
        raise NotInFamilyError("B equals A; nothing to normalize")
    k = 1 - b.a
    candidate = (T ** (-k)) * b * (T**k)
    if candidate != STANDARD_CUSP_PARTNER:
        raise NotInFamilyError(f"{b.to_json()} is not in the cusp solution family")
    return candidate


# -- presentation assembly ----------------------------------------------------


class Relation(Record):
    """A "node" or "cusp" relation of two generators, with its certified local pair (A, B)."""

    __slots__ = ("kind", "generators", "local_pair")

    def __init__(self, kind: str, generators: tuple, local_pair: tuple):
        self.kind, self.generators, self.local_pair = kind, generators, local_pair

    def to_json(self):
        return {
            "kind": self.kind,
            "generators": list(self.generators),
            "local_pair": [m.to_json() for m in self.local_pair],
            "certified": True,
        }


class Presentation(Record):
    """Generators and typed relations of the branch-curve complement group."""

    __slots__ = ("generators", "relations", "assignment", "notes")

    def __init__(self, generators: list, relations: list, assignment: dict, notes=()):
        self.generators, self.relations, self.assignment = generators, relations, assignment
        self.notes = list(notes)

    def to_json(self):
        return {
            "generators": list(self.generators),
            "relations": [r.to_json() for r in self.relations],
            "assignment": {g: m.to_json() for g, m in self.assignment.items()},
            "notes": list(self.notes),
        }


def build_presentation(report) -> Presentation:
    """Assemble the monodromy presentation from a classification report.

    ``report`` must expose ``quintic_degree``, ``node_count`` and
    ``cusp_count``.  One generator per sheet of the branch curve, one
    commutation relation per node and one braid relation per cusp.  Each
    relation carries a certified local matrix pair: equal conjugates of
    T at a node, the distinct pair (T, [[1,0],[-1,1]]) at a cusp.
    """
    degree = report.quintic_degree
    nodes = report.node_count
    cusps = report.cusp_count
    gens = [f"g{i + 1}" for i in range(degree)]
    relations = []
    b0 = STANDARD_CUSP_PARTNER
    for i in range(nodes):
        pair = (gens[i % len(gens)], gens[(i + 1) % len(gens)])
        relations.append(Relation("node", pair, (T, T)))
    for i in range(cusps):
        pair = (gens[i % len(gens)], gens[(i + 1) % len(gens)])
        relations.append(Relation("cusp", pair, (T, b0)))
    assignment = {g: T for g in gens}
    notes = [
        "generators are meridian loops of the branch curve; every generator "
        "maps to a conjugate of T (one vanishing cycle over a generic branch point)",
        "the binding of relations to specific generators is conventional: the "
        "computation certifies the relation types and local matrix pairs only",
    ]
    return Presentation(gens, relations, assignment, notes)
