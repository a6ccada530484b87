"""SL(2,Z) arithmetic and brute-force solving of monodromy relations.

Around a node of the branch curve the two local monodromy matrices
commute; around a cusp they satisfy the braid relation ABA = BAB.  Both
relations are solved exhaustively over matrices with bounded entries
that are conjugate to T = [[1,1],[0,1]], which is the monodromy of a
fiber with one vanishing cycle.  The solvers are bound-parametrized and
exact; solutions of the braid relation normalize under the centralizer
of T to the single representative [[1,0],[-1,1]].
"""

from __future__ import annotations

from dataclasses import dataclass, field


class NotUnimodularError(ValueError):
    """Matrix determinant is not 1."""


@dataclass(frozen=True)
class SL2Z:
    """Integer 2x2 matrix with determinant 1."""

    a: int
    b: int
    c: int
    d: int

    def __post_init__(self):
        if self.a * self.d - self.b * self.c != 1:
            raise NotUnimodularError(f"det {self.entries()} != 1")

    @staticmethod
    def identity() -> "SL2Z":
        return SL2Z(1, 0, 0, 1)

    def entries(self):
        return ((self.a, self.b), (self.c, self.d))

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


def is_conjugate_to_T(m: SL2Z, bound: int = 25) -> bool:
    """Search for P with |entries| <= bound, det 1 and P m P^-1 = T.

    Necessary conditions (trace 2, m != I) prune the search; the
    conjugation equation P m = T P is linear in P, so only the last row
    (r, s) is enumerated and the first row solved from it.
    """
    if m.trace() != 2 or m == SL2Z.identity():
        return False
    # P m = T P with P = [[p, q], [r, s]]:
    #   rows 3,4:  r(a-1) + s c = 0,  r b + s(d-1) = 0
    #   rows 1,2:  p(a-1) + q c = r,  p b + q(d-1) = s
    a, b, c, d = m.a, m.b, m.c, m.d
    for r in range(-bound, bound + 1):
        for s in range(-bound, bound + 1):
            if r * (a - 1) + s * c != 0 or r * b + s * (d - 1) != 0:
                continue
            for p in range(-bound, bound + 1):
                rem = r - p * (a - 1)
                if c != 0:
                    if rem % c:
                        continue
                    q = rem // c
                    if abs(q) > bound:
                        continue
                    if p * b + q * (d - 1) != s:
                        continue
                    if p * s - q * r != 1:
                        continue
                    return True
                else:
                    # c == 0 with trace 2 and det 1 forces a = d = 1
                    if rem != 0:
                        continue
                    for q in range(-bound, bound + 1):
                        if p * b + q * (d - 1) != s:
                            continue
                        if p * s - q * r == 1:
                            return True
    return False


def _bounded_unimodular(bound: int):
    """All SL(2,Z) matrices with entries bounded by ``bound``, exactly."""
    for p in range(-bound, bound + 1):
        for q in range(-bound, bound + 1):
            for r in range(-bound, bound + 1):
                if p == 0:
                    if q * r != -1:
                        continue
                    for s in range(-bound, bound + 1):
                        yield SL2Z(p, q, r, s)
                else:
                    num = 1 + q * r
                    if num % p:
                        continue
                    s = num // p
                    if abs(s) <= bound:
                        yield SL2Z(p, q, r, s)


def solve_node_relation(a: SL2Z, bound: int = 25) -> list:
    """All bounded B conjugate to T with A B = B A."""
    found = []
    for b in _bounded_unimodular(bound):
        if b.trace() != 2 or b == SL2Z.identity():
            continue
        if a * b != b * a:
            continue
        if is_conjugate_to_T(b, bound):
            found.append(b)
    return found


def solve_cusp_relation(a: SL2Z, bound: int = 25) -> list:
    """All bounded B != A conjugate to T with A B A = B A B; B = A
    satisfies the relation trivially."""
    found = []
    for b in _bounded_unimodular(bound):
        if b.trace() != 2 or b == SL2Z.identity():
            continue
        if b == a:
            continue
        if a * b * a != b * a * b:
            continue
        if is_conjugate_to_T(b, bound):
            found.append(b)
    return found


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
        raise NotInFamilyError(f"{b.entries()} is not in the cusp solution family")
    return candidate


# -- presentation assembly ----------------------------------------------------


@dataclass
class Relation:
    kind: str            # "node" | "cusp"
    generators: tuple    # names of the two generators the relation binds
    local_pair: tuple    # (A, B) certified SL2Z matrices for the local model
    certified: bool = True

    def to_json(self):
        return {
            "kind": self.kind,
            "generators": list(self.generators),
            "local_pair": [m.to_json() for m in self.local_pair],
            "certified": self.certified,
        }


@dataclass
class Presentation:
    """Generators and typed relations of the branch-curve complement group."""

    generators: list
    relations: list
    assignment: dict
    notes: list = field(default_factory=list)

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
