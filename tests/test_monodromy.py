import pytest

from fibrant.monodromy import (
    NotInFamilyError,
    NotUnimodularError,
    Presentation,
    SL2Z,
    STANDARD_CUSP_PARTNER,
    T,
    build_presentation,
    is_conjugate_to_T,
    normalize_pair,
    solve_cusp_relation,
    solve_node_relation,
)

B0 = STANDARD_CUSP_PARTNER


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
        assert not is_conjugate_to_T(T.inverse(), bound=50)

    def test_random_conjugates(self):
        p = SL2Z(2, 1, 1, 1)
        assert is_conjugate_to_T(p * T * p.inverse())


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
