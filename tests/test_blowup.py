from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from fibrant import blowup
from fibrant.blowup import (
    BlowupBudgetError,
    LocalModel,
    blow_up_point,
    exceptional_order_triple,
    pull_back_fibration,
    regularize,
)
from fibrant.lagrange import build_global_sections
from fibrant.planecurve import classify_double_point
from fibrant.poly import MultiPoly, extract_power, format_poly, parse, radical
from fibrant.weierstrass import (
    NotAnalyzableError,
    WeierstrassFibration,
    _projective_rational_singular_points,
)

s1 = MultiPoly.variable("s1")
s2 = MultiPoly.variable("s2")


def cusp_model():
    return LocalModel(("s1", "s2"), s1, s2)


def composed_map(model):
    """Original chart coordinates as polynomials in the model's coordinates."""
    mapping = {c: MultiPoly.variable(c) for c in model.history[0].parent_coords}
    for step in model.history:
        sub = step.substitution()
        mapping = {k: poly.substitute(sub) for k, poly in mapping.items()}
    return mapping


def all_collisions(mod):
    return list(mod.node_collisions) + [c for t in mod.towers for c in t.collisions]


def blow_up_count(mod):
    return sum(t.blow_ups for t in mod.towers)


class TestBlowUpPoint:
    def test_first_chart_of_cuspidal_germ(self):
        chart_a, chart_b = blow_up_point(cusp_model(), (0, 0))
        u, v = (MultiPoly.variable(c) for c in chart_a.coords)
        assert chart_a.delta() == u**2 * (u - 27 * v**2)
        # exceptional divisor of chart B is the second coordinate
        q = MultiPoly.variable(chart_b.coords[1])
        k, _ = extract_power(chart_b.delta(), q)
        assert k == 2

    def test_three_blowups_reach_the_known_charts(self):
        # origin, then chart A origin, then (that) chart B origin
        a1, _ = blow_up_point(cusp_model(), (0, 0))
        a1 = pull_back_fibration(a1)
        _, b2 = blow_up_point(a1, (0, 0))
        b2 = pull_back_fibration(b2)
        a3, b3 = blow_up_point(b2, (0, 0))
        a3, b3 = pull_back_fibration(a3), pull_back_fibration(b3)
        xa, ya = (MultiPoly.variable(c) for c in a3.coords)
        xb, yb = (MultiPoly.variable(c) for c in b3.coords)
        assert a3.delta() == xa**6 * ya**3 * (1 - 27 * ya)
        assert b3.delta() == xb**2 * yb**6 * (xb - 27)

    def test_center_off_divisors(self):
        # blowing up a point off the discriminant: exceptional triple (0,0,0)
        model = cusp_model()
        chart_a, _ = blow_up_point(model, (1, 1))
        chart_a = pull_back_fibration(chart_a)
        assert exceptional_order_triple(chart_a).as_tuple() == (0, 0, 0)
        # the discriminant pulls back through the substitution untouched
        sub = chart_a.history[-1].substitution()
        assert chart_a.delta() == model.delta().substitute(sub)


class TestPullBack:
    def test_cusp_tower_needs_no_rescaling(self):
        chart_a, _ = blow_up_point(cusp_model(), (0, 0))
        assert pull_back_fibration(chart_a).t_record == ()

    def test_rescaling_recorded(self):
        u = MultiPoly.variable("s1")
        model = LocalModel(("s1", "s2"), u**4 * (1 + s2), u**6 * (1 - s2))
        normalized = pull_back_fibration(model)
        assert normalized.t_record == (("s1", 1),)
        assert normalized.a == (1 + s2)
        assert normalized.b == (1 - s2)

    def test_delta_transform_identity(self):
        # Delta of the normalized germ times u^(12t) equals the pullback
        model = cusp_model()
        chart_a, _ = blow_up_point(model, (0, 0))
        norm = pull_back_fibration(chart_a)
        sub = chart_a.history[-1].substitution()
        pulled = model.delta().substitute(sub)
        scale = MultiPoly.const(1)
        for coord, t in norm.t_record:
            scale = scale * MultiPoly.variable(coord) ** (12 * t)
        assert norm.delta() * scale == pulled


class TestExceptionalTriples:
    def test_cusp_tower_triples(self):
        a1, _ = blow_up_point(cusp_model(), (0, 0))
        a1 = pull_back_fibration(a1)
        assert exceptional_order_triple(a1).as_tuple() == (1, 1, 2)
        _, b2 = blow_up_point(a1, (0, 0))
        b2 = pull_back_fibration(b2)
        assert exceptional_order_triple(b2).as_tuple() == (1, 2, 3)
        a3, _ = blow_up_point(b2, (0, 0))
        a3 = pull_back_fibration(a3)
        assert exceptional_order_triple(a3).as_tuple() == (2, 3, 6)


class TestHistory:
    def test_composed_map_and_invertibility(self):
        a1, _ = blow_up_point(cusp_model(), (0, 0))
        _, b2 = blow_up_point(a1, (0, 0))
        a3, _ = blow_up_point(b2, (0, 0))
        mapping = composed_map(a3)
        # push a random final-chart point forward and invert step by step
        final = {a3.coords[0]: F(3, 7), a3.coords[1]: F(5, 2)}
        image = {
            name: poly.evaluate({v: final[v] for v in poly.variables})
            for name, poly in mapping.items()
        }
        point = dict(image)
        for step in a3.history:
            c1, c2 = step.center
            p1 = point[step.parent_coords[0]]
            p2 = point[step.parent_coords[1]]
            if step.chart == "A":
                u = p1 - c1
                v = (p2 - c2) / u
            else:
                v = p2 - c2
                u = (p1 - c1) / v
            point = {step.coords[0]: u, step.coords[1]: v}
        assert point == final


@pytest.fixture(scope="module")
def modification():
    return regularize(build_global_sections(1))


class TestRegularizeLagrange:

    def test_component_types(self, modification):
        comp = {d.name: (d.triple.as_tuple(), d.kodaira.tag) for d in modification.component_divisors}
        assert comp == {
            "L~": ((2, 3, 7), "I1*"),
            "Q~": ((0, 0, 1), "I1"),
        }

    def test_contact_tower(self, modification):
        tower = next(t for t in modification.towers if t.label == "contact cluster")
        assert tower.count == 4
        divisors = {d.name: d.kodaira.tag for d in tower.divisors}
        assert divisors == {"E1": "II", "E2": "III", "E3": "I0*"}
        pairs = {tuple(sorted(c.pair)): c.fiber.label for c in tower.collisions}
        assert pairs[("E1", "E3")] == "IV*"
        assert pairs[("E2", "E3")] == "III*"
        assert pairs[("E3", "Q~")] == "I1* (contracted)"

    def test_tower_at_vertex_001(self, modification):
        tower = next(t for t in modification.towers if "(0:0:1)" in t.label)
        divisors = {d.name: (d.triple.as_tuple(), d.kodaira.tag) for d in tower.divisors}
        assert divisors == {"E1": ((2, 3, 8), "I2*"), "E2": ((0, 0, 4), "I4")}
        pairs = {tuple(sorted(c.pair)): c.fiber.label for c in tower.collisions}
        assert pairs == {
            ("E1", "E2"): "I4*",
            ("E2", "Q~"): "I5",
            ("E2", "L~"): "I3*",
        }
        q2 = next(c for c in tower.collisions if tuple(sorted(c.pair)) == ("E2", "Q~"))
        assert tuple(q2.point) == (F(0), F(4))

    def test_tower_at_vertex_010(self, modification):
        tower = next(t for t in modification.towers if "(0:1:0)" in t.label)
        divisors = {d.name: (d.triple.as_tuple(), d.kodaira.tag) for d in tower.divisors}
        assert divisors == {
            "E1": ((3, 4, 8), "IV*"),
            "E2": ((2, 2, 4), "IV"),
            "E3": ((1, 0, 0), "I0"),
            "E4": ((0, 0, 0), "I0"),
        }
        # after the extra blow-ups no collision survives in this zone
        assert tower.collisions == []
        assert tower.blow_ups == 4

    def test_normalized_germs_at_vertex_001(self, modification):
        # the final chart containing the line transform: a = u^2 * (1/12 + ...),
        # b = u^3 * (1/216 + ...), discriminant orders (7, 4)
        tower = next(t for t in modification.towers if "(0:0:1)" in t.label)
        final = [ch for ch in tower.charts if len(ch.history) == 2]
        for chart in final:
            u, v = chart.coords
            ka, ra = extract_power(chart.a, MultiPoly.variable(u))
            kb, rb = extract_power(chart.b, MultiPoly.variable(v))
            if ka == 2:
                # line-transform chart
                k_b, rest_b = extract_power(chart.b, MultiPoly.variable(u))
                assert k_b == 3
                origin = {name: F(0) for name in (u, v)}
                assert ra.evaluate({n: origin.get(n, F(0)) for n in ra.variables}) == F(1, 12)
                assert rest_b.evaluate(
                    {n: origin.get(n, F(0)) for n in rest_b.variables}
                ) == F(1, 216)
                kd, _ = extract_power(chart.delta(), MultiPoly.variable(u))
                kd2, _ = extract_power(chart.delta(), MultiPoly.variable(v))
                assert (kd, kd2) == (7, 4)

    def test_normalized_germs_at_vertex_010(self, modification):
        # one final chart carries a = s^2*(1/12 + ...), b = s^2*(1/16 + ...)
        # with discriminant s^4 * unit, s being the degree-4 divisor transform
        tower = next(t for t in modification.towers if "(0:1:0)" in t.label)
        matches = 0
        for chart in tower.charts:
            if len(chart.history) != 3:
                continue
            for coord in chart.coords:
                v = MultiPoly.variable(coord)
                ka, ra = extract_power(chart.a, v)
                kb, rb = extract_power(chart.b, v)
                kd, _ = extract_power(chart.delta(), v)
                if (ka, kb, kd) != (2, 2, 4):
                    continue
                origin = {n: F(0) for n in chart.coords}
                a0 = ra.evaluate({n: origin.get(n, F(0)) for n in ra.variables})
                b0 = rb.evaluate({n: origin.get(n, F(0)) for n in rb.variables})
                if (a0, b0) == (F(1, 12), F(1, 16)):
                    matches += 1
        assert matches >= 1

    def test_node_collisions(self, modification):
        nodes = [c for c in modification.node_collisions if c.pair == ("Q~", "Q~")]
        assert len(nodes) == 2
        assert all(c.fiber.label == "I2" for c in nodes)
        points = {tuple(c.point) for c in nodes}
        assert points == {(F(1), F(9, 4)), (F(-1), F(-7, 4))}

    def test_blow_up_count(self, modification):
        # 3 at the contact germ, 2 at (0:0:1), 4 at (0:1:0)
        assert blow_up_count(modification) == 9

    def test_cluster_eliminant_note(self, modification):
        assert any("3*a2^4" in note for note in modification.notes)


@given(st.lists(st.integers(-2, 2), min_size=7, max_size=7), st.integers(-2, 2), st.integers(-2, 2))
@settings(max_examples=80, deadline=None)
def test_hessian_node_test_matches_the_classifier(coeffs, cx, cy):
    # a germ singular at (cx, cy): quadratic and cubic terms only, recentered
    monomials = ("x^2", "x*y", "y^2", "x^3", "x^2*y", "x*y^2", "y^3")
    germ = MultiPoly.zero()
    for c, m in zip(coeffs, monomials):
        germ = germ + c * parse(m)
    if germ.is_zero():
        return
    f = germ.shift({"x": F(-cx), "y": F(-cy)})
    kind = classify_double_point(f, (cx, cy), ("x", "y")).kind
    expected = "node" if kind == "node" else "blow"
    assert blowup._classify_product(f, (F(cx), F(cy)), ("x", "y")) == expected


class TestRegularizeEdges:
    def test_idempotent_on_regular_model(self):
        # smooth reduced discriminant: a smooth quartic cubed
        A0, A1, A2 = (MultiPoly.variable(v) for v in ("A0", "A1", "A2"))
        fib = WeierstrassFibration(A0**4 + A1**4 + A2**4, MultiPoly.zero())
        mod = regularize(fib)
        assert blow_up_count(mod) == 0
        assert all_collisions(mod) == []
        [q] = mod.component_divisors
        assert q.kodaira.tag == "III"  # triple (1, inf, 3)

    def test_budget_exceeded(self, monkeypatch):
        monkeypatch.setattr(blowup, "BLOWUP_BUDGET", 1)
        with pytest.raises(BlowupBudgetError):
            regularize(build_global_sections(1))

    def test_off_table_line_crossing_is_blown_up(self):
        # two multiple lines of type I0* cross; that pair is off the
        # collision table, so the crossing must be blown up: the
        # exceptional triple (4, inf, 12) reduces to a smooth fiber and
        # the two components are separated
        A0, A1 = MultiPoly.variable("A0"), MultiPoly.variable("A1")
        fib = WeierstrassFibration(A0**2 * A1**2, MultiPoly.zero())
        mod = regularize(fib)
        tags = {d.name: d.kodaira.tag for d in mod.component_divisors}
        assert tags == {"L~": "I0*", "L~(A1)": "I0*"}
        assert blow_up_count(mod) == 1
        assert all_collisions(mod) == []
        [tower] = mod.towers
        assert [d.kodaira.tag for d in tower.divisors] == ["I0"]

    def test_shared_conic_is_reported_not_a_gcd_failure(self):
        # a and b share the conic q; the gcd on the way to that diagnosis
        # used to stop with NotDivisibleError (a pseudo-remainder that owed
        # a power of the leading coefficient)
        q = parse("A1^2 + A2^2 - 2*A0^2")
        fib = WeierstrassFibration(
            q * parse("A0^2 + A1*A2"), q * parse("A0^4 + A1^4 + A2^4 + A0*A1*A2^2")
        )
        with pytest.raises(NotAnalyzableError, match="section divisors share a component"):
            regularize(fib)

    def test_off_table_nonrational_line_crossing_is_not_analyzable(self):
        # the line A0 = 0 (type II) meets the residual curve (type II) at
        # three non-rational points; II + II is off the collision table
        fib = WeierstrassFibration(
            MultiPoly.zero(), parse("A0*A1^2*(A2^3 + A0^3 + 2*A1^3 + A0*A1*A2)")
        )
        with pytest.raises(NotAnalyzableError, match=r"\(L~, Q~\)"):
            regularize(fib)

    def test_chart_consistency_is_checked(self):
        # the driver recomputes each exceptional triple in both charts; run
        # a tower and confirm the recorded triples match a direct recompute
        a1, b1 = blow_up_point(cusp_model(), (0, 0))
        ta = exceptional_order_triple(pull_back_fibration(a1))
        tb = exceptional_order_triple(pull_back_fibration(b1))
        assert ta.as_tuple() == tb.as_tuple()


class TestPlantedSites:
    """Sites the Lagrange family never reaches: transverse line-curve and
    line-line crossings, and a rational contact point."""

    def test_line_crossings(self):
        fib = WeierstrassFibration(
            MultiPoly.zero(),
            parse("A0*A1^2*(A2^3 - A2*A0^2 - A2*A1^2 + A0^2*A1 + A0*A1^2)"),
        )
        mod = regularize(fib)
        tags = {d.name: d.kodaira.tag for d in mod.component_divisors}
        assert tags == {"L~": "II", "L~(A1)": "IV", "Q~": "II"}
        nodes = [
            (c.pair, tuple(F(x) for x in c.point), c.fiber.label)
            for c in mod.node_collisions
        ]
        assert nodes == [
            (("L~(A1)", "Q~"), (1, 0, 0), "I0*"),
            (("L~(A1)", "Q~"), (1, 0, -1), "I0*"),
            (("L~(A1)", "Q~"), (1, 0, 1), "I0*"),
            (("L~", "L~(A1)"), (0, 0, 1), "I0*"),
        ]
        # II + II is off the table: one blow-up separates L~ and Q~
        towers = [(t.label, tuple(t.point), len(t.divisors)) for t in mod.towers]
        assert towers == [
            ("point (0:1:0)", (0, 1, 0), 1),
            ("point (0:1:-1)", (0, 1, -1), 1),
            ("point (0:1:1)", (0, 1, 1), 1),
        ]
        for tower in mod.towers:
            assert [d.kodaira.tag for d in tower.divisors] == ["IV"]
            pairs = {tuple(sorted(c.pair)): c.fiber.label for c in tower.collisions}
            assert pairs == {("E1", "L~"): "I0*", ("E1", "Q~"): "I0*"}
        assert mod.singular_points == [
            (0, 1, 0), (0, 1, -1), (0, 1, 1), (1, 0, 0), (1, 0, -1), (1, 0, 1), (0, 0, 1)
        ]

    def test_rational_contact_point(self):
        fib = WeierstrassFibration(
            parse("A0^3*A1 + A2^4 + A1^4"), parse("A0^5*A2 + A1^6 + A2^6")
        )
        mod = regularize(fib)
        towers = [(t.label, t.kind, t.count, len(t.divisors)) for t in mod.towers]
        assert towers == [
            ("contact point ('0', '0')", "contact", 1, 3),
            ("contact cluster", "contact", 23, 3),
        ]
        assert mod.node_collisions == []
        assert mod.singular_points == [(1, 0, 0)]


def _three_chart_singular_points(fib):
    """Rational singular points of the reduced discriminant on all three charts."""
    lines, residual = fib.reduced_discriminant()
    reduced = radical(residual)
    for var, _ in lines:
        reduced = reduced * MultiPoly.variable(var)
    return reduced, _projective_rational_singular_points(reduced)[0]


class TestRecordedSingularPoints:
    """The points regularize certifies are exactly Sing(reduced discriminant)(Q)."""

    @pytest.mark.parametrize("alpha", [F(1), F(7, 3), F(-5, 9), F(12345, 678)])
    def test_lagrange_matches_three_chart_oracle(self, alpha):
        fib = build_global_sections(alpha)
        points = regularize(fib).singular_points
        reduced, oracle = _three_chart_singular_points(fib)
        assert len(set(points)) == len(points)
        assert set(points) == set(oracle)
        for pt in points:
            at = dict(zip(("A0", "A1", "A2"), pt))
            assert reduced.evaluate(at) == 0
            for var in ("A0", "A1", "A2"):
                assert reduced.derivative(var).evaluate(at) == 0

    def test_smooth_pair_records_none(self):
        A0, A1, A2 = (MultiPoly.variable(v) for v in ("A0", "A1", "A2"))
        fib = WeierstrassFibration(A0**4 + A1**4 + A2**4, MultiPoly.zero())
        assert regularize(fib).singular_points == []
        assert _three_chart_singular_points(fib)[1] == []

    def test_line_line_crossing_recorded(self):
        A0, A1 = MultiPoly.variable("A0"), MultiPoly.variable("A1")
        fib = WeierstrassFibration(A0**2 * A1**2, MultiPoly.zero())
        assert regularize(fib).singular_points == [(F(0), F(0), F(1))]
        assert _three_chart_singular_points(fib)[1] == [(F(0), F(0), F(1))]
