import time
from fractions import Fraction as F

import pytest
from conftest import parse
from hypothesis import given, settings, strategies as st

from fibrant.lagrange import build_global_sections
from fibrant.miranda import analyze_lagrange_family
from fibrant.weierstrass import (
    DualGraph,
    GenericityError,
    KodairaType,
    NotOnListError,
    collide,
    kodaira_monodromy,
)


def K(tag):
    return KodairaType(tag)


class TestCollide:
    def test_two_nodal_branches(self):
        fiber = collide(K("I1"), K("I1"))
        assert fiber.label == "I2"
        assert fiber.dual_graph.canonical() == DualGraph.cycle(1, 1).canonical()
        assert fiber.contracted == "none"

    def test_multiplicative_meets_star(self):
        fiber = collide(K("I4"), K("I1*"))
        # star chain with 1 + 4/2 + 1 = 4 components of multiplicity two
        assert sum(1 for m in fiber.dual_graph.multiplicities() if m == 2) == 4
        assert fiber.label == "I3*"
        assert fiber.kodaira_label == "I5*"

    def test_cusp_type_meets_star(self):
        fiber = collide(K("II"), K("I0*"))
        assert fiber.dual_graph.canonical() == DualGraph.chain(1, 2, 3).canonical()
        assert fiber.kodaira_label == "IV*"
        assert "two of the three" in fiber.contracted

    def test_i1_plus_i4(self):
        assert collide(K("I1"), K("I4")).label == "I5"

    def test_i4_plus_i2star(self):
        assert collide(K("I4"), K("I2*")).label == "I4*"

    def test_odd_multiplicative_star(self):
        fiber = collide(K("I1"), K("I0*"))
        assert fiber.dual_graph.canonical() == (
            DualGraph.star_chain((2,), (1, 1), ()).canonical()
        )
        assert fiber.kodaira_label == "I1*"
        assert "2 components with multiplicity 1" in fiber.contracted

    def test_remaining_rows(self):
        assert collide(K("II"), K("IV")).kodaira_label == "I0*"
        assert collide(K("II"), K("IV*")).kodaira_label == "II*"
        assert collide(K("IV"), K("I0*")).kodaira_label == "II*"
        assert collide(K("III"), K("I0*")).kodaira_label == "III*"

    def test_smooth_branch_passthrough(self):
        fiber = collide(K("I0"), K("IV*"))
        assert fiber.label == "IV*"
        assert fiber.dual_graph.canonical() == K("IV*").dual_graph().canonical()

    @pytest.mark.parametrize(
        "t1,t2",
        [(f"I{n}", f"I{m}") for n in range(5) for m in range(5)]
        + [(f"I{n}", f"I{m}*") for n in range(5) for m in range(4)]
        + [("II", "I0*"), ("II", "IV"), ("II", "IV*"), ("IV", "I0*"), ("III", "I0*")]
        + [("I0", t) for t in ("II", "III", "IV", "IV*", "III*", "II*")],
    )
    def test_monodromy_product_is_kodaira_column(self, t1, t2):
        fiber = collide(K(t1), K(t2))
        product = kodaira_monodromy(K(t1)) * kodaira_monodromy(K(t2))
        assert product == kodaira_monodromy(K(fiber.kodaira_label))

    def test_off_list(self):
        with pytest.raises(NotOnListError):
            collide(K("IV*"), K("IV"))
        with pytest.raises(NotOnListError):
            collide(K("II"), K("III"))

    @pytest.mark.parametrize(
        "t1,t2",
        [
            ("I1", "I3"),
            ("I2", "I1*"),
            ("I3", "I2*"),
            ("II", "I0*"),
            ("II", "IV"),
            ("II", "IV*"),
            ("IV", "I0*"),
            ("III", "I0*"),
        ],
    )
    def test_symmetry(self, t1, t2):
        assert collide(K(t1), K(t2)) == collide(K(t2), K(t1))

    @pytest.mark.parametrize("m1", [2, 4, 6])
    @pytest.mark.parametrize("m2", [0, 1, 2, 3])
    def test_even_star_component_count(self, m1, m2):
        fiber = collide(K(f"I{m1}"), K(f"I{m2}*"))
        doubles = sum(1 for m in fiber.dual_graph.multiplicities() if m == 2)
        assert doubles == m2 + m1 // 2 + 1
        assert fiber.label == f"I{m2 + m1 // 2}*"

    @pytest.mark.parametrize(
        "t1,t2",
        [("I2", "I3"), ("I4", "I1*"), ("I1", "I2*"), ("II", "I0*"), ("III", "I0*")],
    )
    def test_collision_never_exceeds_kodaira_source(self, t1, t2):
        fiber = collide(K(t1), K(t2))
        source = KodairaType(fiber.kodaira_label)
        assert sum(fiber.dual_graph.multiplicities()) <= sum(source.dual_graph().multiplicities())
        assert fiber.dual_graph.component_count() <= source.component_count()


def _assert_alpha1_shape_with_exact_points(report, high):
    """``high`` has the structure of ``report`` (alpha = 1) and every
    reported node and total-space singularity is exact."""
    assert high.structure() == report.structure()
    fib = build_global_sections(high.alpha)
    quintic = fib.reduced_discriminant()[1].substitute({"A0": 1})
    nodes = [c.point for c in high.collisions if c.where == "node of the residual curve"]
    assert len(nodes) == 2
    for a1, a2 in nodes:
        at = {"A1": a1, "A2": a2}
        assert quintic.evaluate(at) == 0
        assert quintic.derivative("A1").evaluate(at) == 0
        assert quintic.derivative("A2").evaluate(at) == 0
    weierstrass = parse("Y^2*Z - 4*X^3") + fib.a * parse("X*Z^2") + fib.b * parse("Z^3")
    isolated = [s for s in high.total_space_singularities if s.kind() == "isolated"]
    assert len(isolated) == 2
    for s in isolated:
        at = dict(zip(("X", "Y", "Z", "A0", "A1", "A2"), s.fiber_point + s.base_point))
        assert weierstrass.evaluate(at) == 0
        for var in at:
            assert weierstrass.derivative(var).evaluate(at) == 0


@pytest.fixture(scope="module")
def report():
    return analyze_lagrange_family(1)


class TestAnalyzeLagrangeFamily:

    def test_divisor_inventory(self, report):
        tags = {d.name: d.kodaira.tag for d in report.divisors}
        expected = {"L~": "I1*", "Q~": "I1"}
        for i in (1, 2, 3, 4):
            expected[f"E1(p{i})"] = "II"
            expected[f"E2(p{i})"] = "III"
            expected[f"E3(p{i})"] = "I0*"
        expected["E1((0:0:1))"] = "I2*"
        expected["E2((0:0:1))"] = "I4"
        expected["E1((0:1:0))"] = "IV*"
        expected["E2((0:1:0))"] = "IV"
        expected["E3((0:1:0))"] = "I0"
        expected["E4((0:1:0))"] = "I0"
        assert tags == expected

    def test_collision_inventory(self, report):
        labels = sorted(c.fiber.label for c in report.collisions)
        expected = sorted(
            ["I2"] * 2
            + ["IV*", "III*", "I1* (contracted)"] * 4
            + ["I4*", "I5", "I3*"]
        )
        assert labels == expected

    def test_counts(self, report):
        assert report.node_count == 2
        assert report.cusp_count == 4

    def test_presentation_handle(self, report):
        kinds = [r.kind for r in report.presentation.relations]
        assert kinds.count("node") == 2 and kinds.count("cusp") == 4
        assert len(report.presentation.generators) == 5

    def test_alpha_invariance(self, report):
        other = analyze_lagrange_family(2)
        assert report.structure() == other.structure()

    @pytest.mark.parametrize("alpha", [F(999, 1000), F(1000003, 999983)])
    def test_high_height_alpha(self, report, alpha):
        """Divisor-rich and large-prime alpha: same structure, exact points, < 10 s."""
        start = time.perf_counter()
        high = analyze_lagrange_family(alpha)
        elapsed = time.perf_counter() - start
        _assert_alpha1_shape_with_exact_points(report, high)
        assert elapsed < 10.0

    @settings(max_examples=25, deadline=None)
    @given(
        st.builds(F, st.integers(-(10**6), 10**6), st.integers(1, 10**6)).filter(
            lambda a: a not in (0, 4, -4)
        )
    )
    def test_alpha_sweep(self, report, alpha):
        """Bounded-height alpha: same structure and exact points as alpha = 1."""
        _assert_alpha1_shape_with_exact_points(report, analyze_lagrange_family(alpha))

    def test_rejected_alpha(self):
        with pytest.raises(GenericityError):
            analyze_lagrange_family(4)

    def test_json_serializes(self, report):
        import json

        payload = json.dumps(report.to_json(), sort_keys=True)
        assert '"L~"' in payload
