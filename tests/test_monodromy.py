import pytest

from fibrant.monodromy import (
    NotInFamilyError,
    NotUnimodularError,
    SL2Z,
    STANDARD_CUSP_PARTNER,
    T,
    _bounded_conjugates_of_T,
    build_presentation,
    is_conjugate_to_T,
    normalize_pair,
    solve_cusp_relation,
    solve_node_relation,
)

B0 = STANDARD_CUSP_PARTNER


def _bounded_unimodular(bound: int):
    """Oracle: all SL(2,Z) matrices with entries bounded by ``bound``, in
    lexicographic order of their entries."""
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


def bounded_conjugacy_search(m: SL2Z, bound: int) -> bool:
    """Oracle: search for P with |entries| <= bound, det 1 and P m P^-1 = T.

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


class TestArithmetic:
    def test_inverse(self):
        assert T * T.inverse() == SL2Z.identity()
        assert T.inverse() == SL2Z(1, -1, 0, 1)

    def test_product(self):
        assert T * SL2Z(1, 0, -1, 1) == SL2Z(0, 1, -1, 1)

    def test_determinant_enforced(self):
        with pytest.raises(NotUnimodularError):
            SL2Z(1, 0, 0, 2)

    def test_powers(self):
        assert T**3 == SL2Z(1, 3, 0, 1)
        assert T**-2 == SL2Z(1, -2, 0, 1)


class TestConjugacy:
    def test_lower_triangular_partner(self):
        assert is_conjugate_to_T(B0)

    def test_identity_not_conjugate(self):
        assert not is_conjugate_to_T(SL2Z.identity())

    def test_t_inverse_not_conjugate(self):
        # T and T^-1 lie in different conjugacy classes
        assert not is_conjugate_to_T(T.inverse())

    @pytest.mark.parametrize(
        "m",
        [
            SL2Z(1, 0, 1, 1),  # N12 = 0 and -N21 = -1: conjugate to T^-1
            SL2Z(1, 2, 0, 1),  # entries of m - I have gcd 2: T^2
            SL2Z(-1, -1, 0, -1),  # -T, trace -2
        ],
    )
    def test_other_classes_not_conjugate(self, m):
        assert not is_conjugate_to_T(m)

    def test_random_conjugates(self):
        p = SL2Z(2, 1, 1, 1)
        assert is_conjugate_to_T(p * T * p.inverse())


class TestConjugacyOracle:
    """The closed form agrees with the bounded search at bound 40."""

    def test_bounded_trace_two_matrices(self):
        trace_two = [m for m in _bounded_unimodular(6) if m.trace() == 2]
        assert len(trace_two) == 53
        for m in trace_two:
            assert is_conjugate_to_T(m) == bounded_conjugacy_search(m, 40), m

    @pytest.mark.parametrize("n", range(-3, 4))
    def test_conjugates_of_powers(self, n):
        conjugators = [
            SL2Z.identity(),
            SL2Z(2, 1, 1, 1),
            SL2Z(0, -1, 1, 0),
            SL2Z(3, 2, 4, 3),
            SL2Z(1, 0, -2, 1),
            SL2Z(-2, 3, 1, -2),
        ]
        for p in conjugators:
            m = p * T**n * p.inverse()
            assert is_conjugate_to_T(m) == bounded_conjugacy_search(m, 40), (p, n)
            assert is_conjugate_to_T(m) == (n == 1)


class TestBoundedConjugates:
    """The trace-2 walk yields what filtering every bounded matrix of
    SL(2,Z) by conjugacy to T yields, in the same order."""

    @pytest.mark.parametrize("bound", [*range(13), 20, 25, 33])
    def test_equals_filtered_enumeration(self, bound):
        expected = [m for m in _bounded_unimodular(bound) if is_conjugate_to_T(m)]
        assert list(_bounded_conjugates_of_T(bound)) == expected


class TestNodeRelation:
    def test_exactly_t(self):
        assert solve_node_relation(T, 10) == [T]

    def test_conjugate_symmetric(self):
        assert solve_node_relation(B0, 10) == [B0]

    def test_tiny_bound(self):
        assert solve_node_relation(T, 1) == [T]

    def test_bound_stable(self):
        assert solve_node_relation(T, 25) == solve_node_relation(T, 10)


class TestCuspRelation:
    def test_family_members(self):
        found = solve_cusp_relation(T, 10)
        assert B0 in found
        assert SL2Z(2, 1, -1, 0) in found
        for b in found:
            assert (T * b).trace() == 1

    def test_defining_relation_holds(self):
        for b in solve_cusp_relation(T, 10):
            assert T * b * T == b * T * b

    def test_distinct_flag(self):
        # B = A satisfies the braid relation trivially and is left out
        found = solve_cusp_relation(T, 10)
        assert T not in found and B0 in found

    def test_all_normalize_to_standard_partner(self):
        for b in solve_cusp_relation(T, 25):
            assert normalize_pair(b) == B0

    def test_bound_monotone_normal_forms(self):
        forms10 = {normalize_pair(b) for b in solve_cusp_relation(T, 10)}
        forms25 = {normalize_pair(b) for b in solve_cusp_relation(T, 25)}
        assert forms10 == forms25 == {B0}


class TestNormalizePair:
    def test_centralizer_conjugate(self):
        assert normalize_pair(SL2Z(2, 1, -1, 0)) == B0

    def test_fixed_point(self):
        assert normalize_pair(B0) == B0

    def test_family_sweep(self):
        for k in range(-5, 6):
            member = (T**k) * B0 * (T**-k)
            assert normalize_pair(member) == B0

    def test_rejects_non_family(self):
        with pytest.raises(NotInFamilyError):
            normalize_pair(T)
        with pytest.raises(NotInFamilyError):
            normalize_pair(SL2Z(1, 1, -1, 0) * SL2Z(0, -1, 1, 1))


class TestPresentation:
    class FakeReport:
        quintic_degree = 5
        node_count = 2
        cusp_count = 4

    def test_counts(self):
        pres = build_presentation(self.FakeReport())
        assert len(pres.generators) == 5
        kinds = [r.kind for r in pres.relations]
        assert kinds.count("node") == 2 and kinds.count("cusp") == 4

    def test_certificates(self):
        pres = build_presentation(self.FakeReport())
        for rel in pres.relations:
            a, b = rel.local_pair
            if rel.kind == "node":
                assert a * b == b * a
                assert a == b  # around a node the matrices coincide
            else:
                assert a * b * a == b * a * b
                assert a != b  # around a cusp the matrices are distinct
                assert is_conjugate_to_T(b)

    def test_assignment_is_conjugate_to_t(self):
        pres = build_presentation(self.FakeReport())
        for gen in pres.generators:
            assert is_conjugate_to_T(pres.assignment[gen])

    def test_json(self):
        import json

        pres = build_presentation(self.FakeReport())
        payload = json.loads(json.dumps(pres.to_json()))
        assert payload["generators"] == ["g1", "g2", "g3", "g4", "g5"]
        assert len(payload["relations"]) == 6
