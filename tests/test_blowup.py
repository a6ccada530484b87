import copy
from fractions import Fraction as F
from unittest import mock

import pytest
from conftest import (
    chart_substitution,
    classify_double_point,
    compose,
    fulton_multiplicity,
    intersection_multiplicity,
    parse,
    projective_rational_singular_points,
)
from hypothesis import example, given, settings, strategies as st
from test_cli import GOLDEN_ANALYZE

from fibrant import blowup
from fibrant.blowup import (
    BlowupBudgetError,
    LocalModel,
    blow_up_point,
    pull_back_fibration,
    regularize,
)
from fibrant.cli import main
from fibrant.lagrange import build_global_sections
from fibrant.miranda import analyze_lagrange_family
from fibrant.planecurve import AffineChart, SingularLocus
from fibrant.poly import MultiPoly, extract_power, format_poly, radical, two_jet_at
from fibrant.weierstrass import (
    KodairaType,
    NotAnalyzableError,
    OrderTriple,
    WeierstrassFibration,
)

s1 = MultiPoly.variable("s1")
s2 = MultiPoly.variable("s2")


def cusp_model():
    return LocalModel(("s1", "s2"), s1, s2)


def own_triple(model):
    """The orders of the model's own sections along the exceptional
    divisor of its last blow-up."""
    exc = model.history[-1].exceptional_coord()
    return OrderTriple(*(p.order_in(exc) for p in (model.a, model.b, model.delta())))


def step_substitution(step):
    """The oracle chart map of one blow-up step, as a substitution."""
    return chart_substitution(step.parent_coords, step.coords, step.chart, step.center)


def composed_map(model):
    """Original chart coordinates as polynomials in the model's coordinates."""
    mapping = {c: MultiPoly.variable(c) for c in model.history[0].parent_coords}
    for step in model.history:
        sub = step_substitution(step)
        mapping = {k: compose(poly, sub) for k, poly in mapping.items()}
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
        _, b2 = blow_up_point(a1, (0, 0))
        a3, b3 = blow_up_point(b2, (0, 0))
        xa, ya = (MultiPoly.variable(c) for c in a3.coords)
        xb, yb = (MultiPoly.variable(c) for c in b3.coords)
        assert a3.delta() == xa**6 * ya**3 * (1 - 27 * ya)
        assert b3.delta() == xb**2 * yb**6 * (xb - 27)

    def test_center_off_divisors(self):
        # blowing up a point off the discriminant: exceptional triple (0,0,0)
        model = cusp_model()
        chart_a, _ = blow_up_point(model, (1, 1))
        assert chart_a.history[-1].triple.as_tuple() == (0, 0, 0)
        # the discriminant pulls back through the substitution untouched
        sub = step_substitution(chart_a.history[-1])
        assert chart_a.delta() == compose(model.delta(), sub)


class TestPullBack:
    def test_cusp_tower_needs_no_rescaling(self):
        chart_a, _ = blow_up_point(cusp_model(), (0, 0))
        assert chart_a.t_record == ()

    def test_rescaling_recorded(self):
        u = MultiPoly.variable("s1")
        model = LocalModel(("s1", "s2"), u**4 * (1 + s2), u**6 * (1 - s2))
        normalized = pull_back_fibration(model)
        assert normalized.t_record == (("s1", 1),)
        assert normalized.a == (1 + s2)
        assert normalized.b == (1 - s2)

    def test_delta_transform_identity(self):
        # Delta of the minimal chart times u^(12t) equals the pullback
        model = cusp_model()
        norm, _ = blow_up_point(model, (0, 0))
        sub = step_substitution(norm.history[-1])
        pulled = compose(model.delta(), sub)
        scale = MultiPoly.const(1)
        for coord, t in norm.t_record:
            scale = scale * MultiPoly.variable(coord) ** (12 * t)
        assert norm.delta() * scale == pulled

    def test_blown_up_charts_are_minimal(self):
        # (s1^4 + s2^5, s1^6 + s2^7) has the multiplicities (4, 6, 12) at the
        # origin: each chart divides a, b and Delta by u^4, u^6 and u^12
        model = LocalModel(("s1", "s2"), s1**4 + s2**5, s1**6 + s2**7)
        for chart in blow_up_point(model, (0, 0)):
            step = chart.history[-1]
            u, sub = MultiPoly.variable(step.exceptional_coord()), step_substitution(step)
            assert chart.t_record == ((step.exceptional_coord(), 1),)
            assert chart.a * u**4 == compose(model.a, sub)
            assert chart.b * u**6 == compose(model.b, sub)
            assert chart.delta() * u**12 == compose(model.delta(), sub)
            assert step.triple == own_triple(chart) == OrderTriple(0, 0, 0)


class TestCarriedDiscriminant:
    @pytest.mark.parametrize("alpha", sorted(GOLDEN_ANALYZE))
    def test_every_chart_of_every_tower(self, alpha):
        # Delta is computed at the root of a tower and then only pulled
        # back and divided by powers of u; it must stay a^3 - 27 b^2
        mod = regularize(build_global_sections(F(alpha)))
        labels = {t.label for t in mod.towers}
        assert {"contact cluster", "point (0:1:0)", "point (0:0:1)"} <= labels
        for tower in mod.towers:
            assert tower.charts
            for model in tower.charts:
                assert model.delta() == model.a**3 - 27 * model.b**2

    @pytest.mark.parametrize("center", [(0, 0), (1, 1), (F(-2, 3), 0), (0, F(5, 4))])
    def test_raw_charts_against_the_substitution(self, center):
        # no center gives multiplicities that allow a rescaling, so the
        # minimal charts are the raw pull-backs
        model = LocalModel(("s1", "s2"), s1**2 * s2 - 3 * s2**3, s1**3 + F(1, 2) * s2)
        for chart in blow_up_point(model, center):
            sub = step_substitution(chart.history[-1])
            assert chart.a == compose(model.a, sub)
            assert chart.b == compose(model.b, sub)
            assert chart.delta() == compose(model.delta(), sub)
            assert chart.delta() == chart.a**3 - 27 * chart.b**2


class TestChartsOnFirstRead:
    """A chart is built when a, b, Delta or its rescalings are first read,
    and then equals the eager chart: the parent's sections pulled back by
    the substitution oracle and rescaled.  Its exceptional triple is read
    before that, off the centred parent sections, once per blow-up, and
    stored on the step of both charts: the eager chart's own sections
    give the triple recorded for its divisor."""

    @pytest.mark.parametrize("site", ["cusp", *sorted(GOLDEN_ANALYZE)])
    def test_every_chart_equals_the_eager_one(self, monkeypatch, site):
        roots = {}  # tower label -> the model its driver starts from
        run = blowup._TowerDriver.run

        def recording(driver, model, divisors):
            roots[driver.tower.label] = model
            return run(driver, model, divisors)

        monkeypatch.setattr(blowup._TowerDriver, "run", recording)
        if site == "cusp":
            towers = [blowup.contact_tower("cusp", {"Q~": KodairaType("I1")})]
        else:
            towers = regularize(build_global_sections(F(site))).towers
        for tower in towers:
            root = roots["contact" if tower.kind == "contact" else tower.label]
            by_history = {chart.history: chart for chart in tower.charts}
            assert len(by_history) == len(tower.charts) == 2 * tower.blow_ups
            assert any(chart.pending is not None for chart in tower.charts)
            for k, chart in enumerate(tower.charts):
                step = chart.history[-1]
                parent = by_history.get(chart.history[:-1], root)
                sub = step_substitution(step)
                eager = pull_back_fibration(LocalModel(
                    step.coords, compose(parent.a, sub), compose(parent.b, sub),
                    chart.history, parent.t_record, compose(parent.delta(), sub),
                ))
                assert step.triple == tower.divisors[k // 2].triple == own_triple(eager)
                assert chart == eager and chart.pending is None

    def test_copy_of_an_unbuilt_chart_is_the_built_chart(self):
        # a copy goes through ``LocalModel.__reduce__``, whose fields build
        # the chart first
        chart, _ = blow_up_point(cusp_model(), (0, 0))
        assert chart.pending is not None
        twin = copy.copy(chart)
        assert twin is not chart and twin.pending is None and chart.pending is None
        assert twin == chart == blow_up_point(cusp_model(), (0, 0))[0]

    def test_analyze_builds_only_the_charts_it_blows_up(self, monkeypatch):
        # six blow-ups give twelve charts; four of them are blown up again,
        # and each blow-up computes its exceptional triple once
        main(["analyze", "--alpha=101/13"])  # the contact tower, once per process
        build = mock.Mock(wraps=blowup._build_chart)
        triple = mock.Mock(wraps=blowup.reduce_triple_mod)
        monkeypatch.setattr(blowup, "_build_chart", build)
        monkeypatch.setattr(blowup, "reduce_triple_mod", triple)
        assert main(["analyze", "--alpha=101/13"]) == 0
        assert (build.call_count, triple.call_count) == (4, 6)
        mod = regularize(build_global_sections(F(101, 13)))
        assert sum(t.blow_ups for t in mod.towers if t.kind == "point") == 6


class TestExceptionalTriples:
    def test_cusp_tower_triples(self):
        a1, _ = blow_up_point(cusp_model(), (0, 0))
        assert a1.history[-1].triple.as_tuple() == (1, 1, 2)
        _, b2 = blow_up_point(a1, (0, 0))
        assert b2.history[-1].triple.as_tuple() == (1, 2, 3)
        a3, _ = blow_up_point(b2, (0, 0))
        assert a3.history[-1].triple.as_tuple() == (2, 3, 6)


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


class TestContactOrders:
    """Contact orders read off the towers by Noether's formula, against the
    Fulton recursion and the shear-and-resultant oracle."""

    @pytest.mark.parametrize("alpha", sorted(GOLDEN_ANALYZE))
    def test_line_and_quintic_against_two_oracles(self, alpha):
        fib = build_global_sections(F(alpha))
        _, quintic = fib.reduced_discriminant()
        towers = {t.label: t for t in regularize(fib).towers}
        line = MultiPoly.variable("u")
        orders = []
        for label, index, expected in (("(0:0:1)", 2, 2), ("(0:1:0)", 1, 3)):
            order = towers[f"point {label}"].contact_order("L~", "Q~")
            chart = AffineChart.standard(index)
            q_aff = chart.dehomogenize(quintic)
            assert order == expected == fulton_multiplicity(q_aff, line, "u", "v")
            assert order == intersection_multiplicity(q_aff, line, (0, 0), vars=chart.coords)
            orders.append(order)
        assert sum(orders) == quintic.total_degree() == 5

    def test_kept_crossings_count_once(self, modification):
        # in the contact tower every collision pair crosses once, and the
        # sections' cusp meets E1 twice: m = 2 at the first center, then
        # once more at the second
        tower = next(t for t in modification.towers if t.label == "contact cluster")
        assert all(tower.contact_order(*c.pair) == 1 for c in tower.collisions)
        assert tower.contact_order("Q~", "E1") == 2
        assert tower.contact_order("E1", "Q~") == 2

    def test_transverse_off_table_crossing_has_order_one(self):
        fib = WeierstrassFibration(
            MultiPoly.zero(),
            parse("A0*A1^2*(A2^3 - A2*A0^2 - A2*A1^2 + A0^2*A1 + A0*A1^2)"),
        )
        towers = regularize(fib).towers
        assert len(towers) == 3
        assert all(t.contact_order("L~", "Q~") == 1 for t in towers)

    def test_a_wrong_multiplicity_is_not_analyzable(self, monkeypatch):
        transform = blowup._TowerDriver._transform_divisors

        def skewed(driver, divisors, model, exc_name):
            germs, mults = transform(driver, divisors, model, exc_name)
            if "L~" in mults:
                mults["L~"] += 1
            return germs, mults

        monkeypatch.setattr(blowup._TowerDriver, "_transform_divisors", skewed)
        with pytest.raises(NotAnalyzableError, match="contact order of L~ and Q~ over point"):
            regularize(build_global_sections(1))


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
    jet = two_jet_at(f, ("x", "y"), (F(cx), F(cy)))
    assert blowup._classify_jet(jet) == expected


# germs through the origin: terms of degree 1 to 3 with small coefficients
branch_germs = st.dictionaries(
    st.sampled_from([(1, 0), (0, 1), (2, 0), (1, 1), (0, 2), (3, 0), (1, 2), (0, 3)]),
    st.integers(-2, 2), min_size=1, max_size=4,
).map(lambda terms: MultiPoly(("x", "y"), terms))


@given(
    st.lists(branch_germs, min_size=1, max_size=3),
    st.builds(F, st.integers(-3, 3), st.integers(1, 3)),
    st.builds(F, st.integers(-3, 3), st.integers(1, 3)),
)
@example([parse("x"), parse("y")], F(1), F(-2, 3))  # two lines: a node
@example([parse("x^2 - y^2 + x^3")], F(0), F(1, 2))  # one nodal branch
@example([parse("x"), parse("x + y^2")], F(2), F(1))  # tangent branches: blow up
@example([parse("x"), parse("y"), parse("x + y")], F(0), F(0))  # a triple point
@settings(max_examples=120, deadline=None)
def test_node_rule_on_branch_jets_matches_the_product(germs, px, py):
    """The tower driver's rule on the truncated product of the branch jets
    decides as the same rule on the 2-jet of the product of the branches."""
    coords, point = ("x", "y"), (px, py)
    branches = [g.shift({"x": -px, "y": -py}) for g in germs if not g.is_zero()]
    if not branches:
        return
    jets = [two_jet_at(b, coords, point) for b in branches]
    assert all(jet[0, 0] == 0 for jet in jets)  # every branch passes through the point
    product_jet, product = jets[0], branches[0]
    for jet, branch in zip(jets[1:], branches[1:]):
        product_jet, product = blowup._jet_product(product_jet, jet), product * branch
    whole = two_jet_at(product, coords, point)
    # the same 2-jet up to a positive factor
    assert all(product_jet[k] * c > 0 or product_jet[k] == c == 0 for k, c in whole.items())
    assert len({F(product_jet[k], c) for k, c in whole.items() if c}) <= 1
    assert blowup._classify_jet(product_jet) == blowup._classify_jet(whole)


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
        # both charts of one blow-up see the same exceptional divisor: they
        # share the triple read before they are built, and each built chart
        # gives it again off its own sections
        a1, b1 = blow_up_point(cusp_model(), (0, 0))
        assert a1.pending is not None and b1.pending is not None
        assert a1.history[-1].triple is b1.history[-1].triple
        for chart in (a1, b1):
            assert own_triple(chart) == chart.history[-1].triple == OrderTriple(1, 1, 2)

    def test_chart_inconsistency_is_not_analyzable(self):
        # a triple on chart B's step that its own sections contradict once
        # it is built: reading the chart refuses it, and chart A builds
        chart_a, chart_b = blow_up_point(cusp_model(), (0, 0))
        step = chart_b.history[-1]
        skewed = blowup.BlowupStep(
            step.center, step.chart, step.parent_coords, step.coords, OrderTriple(1, 1, 3)
        )
        chart_b = blowup._chart(chart_b.coords, chart_b.history[:-1] + (skewed,), chart_b.pending)
        with pytest.raises(NotAnalyzableError, match=r"chart inconsistency .*\(1, 1, 3\).*\(1, 1, 2\)"):
            chart_b.a
        assert chart_b.pending is not None
        assert chart_a.a is not None and own_triple(chart_a) == chart_a.history[-1].triple


class TestContactTowerCache:
    """The contact tower is built once per type of Q~ in a process; every
    caller gets its own copy."""

    def test_second_analyze_builds_no_contact_tower(self, monkeypatch):
        kinds = []
        run = blowup._TowerDriver.run

        def counted(driver, *args):
            kinds.append(driver.tower.kind)
            return run(driver, *args)

        monkeypatch.setattr(blowup._TowerDriver, "run", counted)
        analyze_lagrange_family(1)
        assert sorted(kinds) == ["contact", "point", "point"]
        analyze_lagrange_family(F(7, 3))
        assert kinds[3:] == ["point", "point"]

    def test_returned_tower_is_the_callers(self):
        types = {"Q~": KodairaType("I1")}
        first = blowup.contact_tower("p", types)
        sizes = (first.blow_ups, len(first.divisors), len(first.collisions), len(first.charts))
        first.divisors.append(first.divisors[0])
        first.collisions.append(first.collisions[0])
        first.charts.append(first.charts[0])
        first.divisors[0].origin = "changed"
        first.collisions[0].count = 9
        again = blowup.contact_tower("q", types, count=4)
        assert (again.blow_ups, len(again.divisors), len(again.collisions), len(again.charts)) == sizes
        assert (again.label, again.kind, again.count) == ("q", "contact", 4)
        assert {d.origin for d in again.divisors} == {"exceptional divisor over q"}
        assert {c.count for c in again.collisions} == {1}


class TestPlantedSites:
    """Sites the Lagrange family never reaches: transverse line-curve and
    line-line crossings, and a rational contact point."""

    def test_contact_point_needs_a_jacobian_and_zeros_of_the_stripped_sections(self):
        # a = a1, b = a2 on the chart A0 = 1: a transverse contact at the origin
        A0, A1, A2 = (MultiPoly.variable(v) for v in ("A0", "A1", "A2"))
        chart = AffineChart.standard(0)
        a1, a2 = (MultiPoly.variable(v) for v in chart.coords)
        origin = (F(0), F(0))
        blowup._verify_contact_point(
            WeierstrassFibration(A1 * A0**3, A2 * A0**5), (a1, a2), chart, origin
        )
        refused = "neither a node nor a transverse contact"
        with pytest.raises(NotAnalyzableError, match=refused):  # a stripped germ off the point
            blowup._verify_contact_point(
                WeierstrassFibration(A1 * A0**3, A2 * A0**5), (a1 + 1, a2), chart, origin
            )
        with pytest.raises(NotAnalyzableError, match=refused):  # tangent sections
            blowup._verify_contact_point(
                WeierstrassFibration(A1 * A0**3, (A1 * A0 + A2**2) * A0**4), (a1, a2), chart, origin
            )

    def test_nonrational_crossings_must_be_transverse(self):
        # Q~ (type II) and E1 (type IV) cross on the table, as I0*, at the
        # simple roots of 2*y1^2 - 1; a squared eliminant is a tangency (from
        # input: test_nonrational_line_tangency_is_not_analyzable)
        types, pair = {"Q~": KodairaType("II"), "E1": KodairaType("IV")}, ("Q~", "E1")
        eliminant = parse("2*y1^2 - 1")
        record = blowup._crossing_record(types, pair, eliminant, "over p", [parse("y1 + 1")])
        assert (record.fiber.label, record.count) == ("I0*", 2)
        with pytest.raises(NotAnalyzableError, match="eliminant 4\\*y1\\^4 .* not squarefree"):
            blowup._crossing_record(types, pair, eliminant**2, "over p")

    def test_nonrational_crossings_must_miss_a_third_divisor(self):
        types, pair = {"Q~": KodairaType("II"), "E1": KodairaType("IV")}, ("Q~", "E1")
        eliminant = parse("2*y1^2 - 1")
        refused = "non-rational collision of three divisors over p"
        with pytest.raises(NotAnalyzableError, match=refused):
            blowup._crossing_record(types, pair, eliminant, "over p", [eliminant * parse("y1 + 1")])
        # in a tower: two singular divisors with the same non-rational
        # tangents (``regularize`` has one singular divisor, Q~, but the
        # driver takes any germs)
        model = LocalModel(("x", "y"), MultiPoly.variable("x"), MultiPoly.variable("y"))
        types = {"Q~": KodairaType("I1"), "D": KodairaType("I1"), "D'": KodairaType("I1")}
        driver = blowup._TowerDriver(blowup.Tower("p", "point"), types)
        germs = {"Q~": model.delta(), "D": parse("x^2 - 2*y^2"), "D'": parse("x^2 - 2*y^2 + x^3")}
        with pytest.raises(NotAnalyzableError, match=refused):
            driver.run(model, germs)

    def test_contact_sections_must_eliminate(self):
        # the transverse contact of a1 = 0 and a1 + a2 = 0 at the origin is
        # certified; a section free of the eliminated coordinate a1 is refused
        chart = AffineChart.standard(0)
        a1, a2 = (MultiPoly.variable(v) for v in chart.coords)
        assert blowup._certify_contacts((a1, a1 + a2), chart, [(F(0), F(0))], None) == 1
        refused = "section divisors do not eliminate"
        for sections in ((a2, a1), (a1, a2)):
            with pytest.raises(NotAnalyzableError, match=refused):
                blowup._certify_contacts(sections, chart, [], None)
        # from input: a is four lines through (0:1:0)
        fib = WeierstrassFibration(
            parse("(A2^2 - A0^2)*(A2^2 - 4*A0^2)"),
            parse("A0^6 + A1^6 + 2*A2^6 + A0*A1^2*A2^3 + 3*A0^5*A1"),
        )
        with pytest.raises(NotAnalyzableError, match=refused):
            regularize(fib)

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
        # the rational contact at (1:0:0) and the 23 others share one tower
        assert towers == [("contact cluster", "contact", 24, 3)]
        assert mod.node_collisions == []
        assert mod.singular_points == [(1, 0, 0)]

    def test_rational_contacts_may_share_a_coordinate(self):
        # a is four lines and b six; their 24 crossings are the rational
        # contacts, twelve of them on the lines a2 = +-2
        fib = WeierstrassFibration(
            parse("(A1^2 - A0^2)*(A2^2 - 4*A0^2)"),
            parse(
                "(A1 - 4*A2 - 4*A0)*(6*A1 + 9*A2 + 8*A0)*(A2 + 2*A0 - 6*A1)"
                "*(3*A2 + 5*A0 - 6*A1)*(5*A2 - 2*A0 - 5*A1)*(3*A2 - 2*A0 - 5*A1)"
            ),
        )
        mod = regularize(fib)
        towers = [(t.label, t.kind, t.count) for t in mod.towers]
        assert towers == [("contact cluster", "contact", 24)]
        assert mod.node_collisions == [] and mod.notes == []
        assert len(mod.singular_points) == 24
        assert sum(p[2] == 2 for p in mod.singular_points) == 6

    def test_triple_point_where_stripped_sections_cross_is_not_analyzable(self):
        # b has the line A1 through (1:0:0), where the discriminant has a
        # triple point; with A1 stripped, a and b would cross there
        fib = WeierstrassFibration(
            parse("A0^3*A1 + A2^4 + A1^4"), parse("A1*(A0^4*A2 + A1^5 + A2^5)")
        )
        message = r"singular point \(1:0:0\) of the residual curve is neither a node nor a"
        with pytest.raises(NotAnalyzableError, match=message):
            regularize(fib)

    def test_nonrational_crossings_with_an_exceptional_divisor(self):
        # the residual cubic (type II) is a1^2 - 2*a2^2 + a2^3 = 0 on the
        # chart A0 = 1, a node at (1:0:0) with the tangents a1 = +-sqrt(2) a2;
        # II + II is off the table, so (1:0:0) is blown up to E1 of type IV,
        # which the strict transform meets at the two points 54*y1^2 = 27
        fib = WeierstrassFibration(MultiPoly.zero(), parse(_NODAL_CUBIC_B))
        mod = regularize(fib)
        tags = {d.name: d.kodaira.tag for d in mod.component_divisors}
        assert tags == {"L~": "I0*", "Q~": "II"}
        assert mod.node_collisions == []
        tower = mod.towers[0]
        assert (tower.label, tower.blow_ups) == ("point (1:0:0)", 1)
        assert [(d.name, d.kodaira.tag) for d in tower.divisors] == [("E1", "IV")]
        [collision] = tower.collisions
        assert (collision.pair, collision.point, collision.fiber.label, collision.count) == (
            ("Q~", "E1"), None, "I0*", 2
        )
        assert format_poly(collision.cluster_eliminant) == "54*y1^2 - 27"
        assert mod.singular_points == [(1, 0, 0), (0, 1, 0)]

    def test_i0_divisor_makes_no_collision_in_a_tower(self):
        # D = x^2 - 2*y^2 (type I0) meets E1 of the cusp tower at the two
        # points 2*y1^2 = 1; an I0 divisor carries no singular fiber, so as
        # at rational points nothing is recorded for it
        model = LocalModel(("x", "y"), MultiPoly.variable("x"), MultiPoly.variable("y"))
        types = {"Q~": KodairaType("I1"), "D": KodairaType("I0")}
        driver = blowup._TowerDriver(blowup.Tower("cusp", "point"), types)
        tower = driver.run(model, {"Q~": model.delta(), "D": parse("x^2 - 2*y^2")})
        assert [(d.name, d.kodaira.tag) for d in tower.divisors] == [
            ("E1", "II"), ("E2", "III"), ("E3", "I0*")
        ]
        assert all("D" not in c.pair for c in tower.collisions)
        assert [(c.pair, c.fiber.label) for c in tower.collisions] == [
            (("E2", "E3"), "III*"), (("Q~", "E3"), "I1* (contracted)"), (("E1", "E3"), "IV*")
        ]

    def test_nonrational_line_tangency_is_not_analyzable(self):
        # the residual meets A0 = 0 where (A1^2 - 2*A2^2)^2 = 0: two
        # conjugate points, each a tangency
        fib = WeierstrassFibration(
            MultiPoly.zero(), parse("A0^2*((A1^2 - 2*A2^2)^2 + A0*A2^3 + A0^4)")
        )
        with pytest.raises(NotAnalyzableError, match="non-rational tangency"):
            regularize(fib)

    def test_gradient_factor_on_the_line_at_infinity_is_not_certified(self):
        fib = WeierstrassFibration(parse("A0^4"), parse(_NODAL_CUBIC_B))
        with pytest.raises(NotAnalyzableError, match="may be singular on the line A0 = 0"):
            regularize(fib)

    def test_residual_point_of_multiplicity_three_is_not_analyzable(self):
        fib = WeierstrassFibration(parse("A0^2*A1^2"), parse(_NODAL_CUBIC_B))
        message = r"singular point \(1:0:0\) of the residual curve is neither a node nor a"
        with pytest.raises(NotAnalyzableError, match=message):
            regularize(fib)

    @pytest.mark.parametrize("alpha", [F(19, 2), F(-43, 8)])
    def test_contacts_must_match_the_contact_eliminant(self, monkeypatch, alpha):
        # at these alpha one contact point is rational; a locus that loses
        # it, or the cluster, no longer accounts for the contact eliminant
        locate = blowup.rational_singular_points
        fib = build_global_sections(alpha)
        contact = next(t for t in regularize(fib).towers if t.kind == "contact")
        assert contact.count == 4

        def without_contacts(curve, chart):
            locus = locate(curve, chart)
            nodes = [
                p for p in locus.points
                if blowup._classify_jet(two_jet_at(curve, chart.coords, p)) == "node"
            ]
            return SingularLocus(nodes, locus.eliminant_squarefree)

        monkeypatch.setattr(blowup, "rational_singular_points", without_contacts)
        with pytest.raises(NotAnalyzableError, match="do not match the transverse contact locus"):
            regularize(fib)

        def without_cluster(curve, chart):
            return SingularLocus(locate(curve, chart).points, None)

        monkeypatch.setattr(blowup, "rational_singular_points", without_cluster)
        with pytest.raises(NotAnalyzableError, match="do not match the transverse contact locus"):
            regularize(fib)

        def cluster_over_the_contact(curve, chart):
            locus = locate(curve, chart)
            (_, root), = [
                p for p in locus.points
                if blowup._classify_jet(two_jet_at(curve, chart.coords, p)) != "node"
            ]
            shared = MultiPoly.variable(chart.coords[1]) - MultiPoly.const(root)
            return SingularLocus(locus.points, locus.eliminant_squarefree * shared)

        monkeypatch.setattr(blowup, "rational_singular_points", cluster_over_the_contact)
        with pytest.raises(NotAnalyzableError, match="shares its a2-coordinate"):
            regularize(fib)


_NODAL_CUBIC_B = "A0^3*(A0*(A1^2 - 2*A2^2) + A2^3)"


def _three_chart_singular_points(fib):
    """Rational singular points of the reduced discriminant on all three charts."""
    lines, residual = fib.reduced_discriminant()
    reduced = radical(residual)
    for var, _ in lines:
        reduced = reduced * MultiPoly.variable(var)
    return reduced, projective_rational_singular_points(reduced)[0]


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
