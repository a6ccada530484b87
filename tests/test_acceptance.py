"""Acceptance suite: one test per criterion, each recording a PASS/FAIL line.

Every expected value is exact unless explicitly marked numeric; stated
runtime bounds are asserted.  Run with ``pytest tests/test_acceptance.py -v``;
a per-criterion summary is printed at the end of the session.
"""

import time
from fractions import Fraction as F

from conftest import classify_double_point, directional_derivative, fulton_multiplicity, parse
from fibrant.blowup import regularize
from fibrant.lagrange import (
    Level,
    TopParams,
    build_global_sections,
    first_integrals,
    lie_poisson_bracket,
    quotient_cubic_residual,
    sample_fiber_point,
    shifted_weierstrass_residual,
)
from fibrant.miranda import analyze_lagrange_family
from fibrant.monodromy import (
    STANDARD_CUSP_PARTNER,
    T,
    conjugates_of_T,
    normalize_pair,
    solve_cusp_relation,
    solve_node_relation,
)
from fibrant.planecurve import AffineChart, rational_singular_points
from fibrant.poly import (
    MultiPoly,
    equal_up_to_unit,
    extract_power,
    is_squarefree,
    resultant,
)
from fibrant.weierstrass import (
    DualGraph,
    KodairaType,
    OrderTriple,
    collide,
    kodaira_classify,
    reduce_triple_mod,
)

A0 = MultiPoly.variable("A0")


def test_criterion_1_discriminant_structure(criterion):
    """Line of multiplicity 7 plus a quintic restricting to -(1/64) A1^2 A2^3."""
    start = time.time()
    expected_restriction = parse("-(1/64)*A1^2*A2^3")
    ok = True
    for alpha in (1, 2, 3):
        fib = build_global_sections(alpha)
        k, rest = extract_power(fib.discriminant(), A0)
        ok &= k == 7
        ok &= rest.is_homogeneous() and rest.total_degree() == 5
        ok &= rest.substitute({"A0": F(0)}) == expected_restriction
    elapsed = time.time() - start
    ok &= elapsed < 1.0
    criterion(1, "discriminant = line^7 * quintic; restriction exact; < 1 s", ok)
    assert ok, f"elapsed {elapsed:.3f}s"


def test_criterion_2_quintic_singularities(criterion):
    """Two rational nodes, squarefree quartic cusp eliminant, resultant value."""
    start = time.time()
    fib = build_global_sections(1)
    _, quintic = fib.reduced_discriminant()
    chart = AffineChart.standard(0)
    curve = chart.dehomogenize(quintic)
    locus = rational_singular_points(curve, chart)

    points = locus.points
    ok = points == [(F(-1), F(-7, 4)), (F(1), F(9, 4))]
    ok &= all(classify_double_point(curve, p, chart.coords).kind == "node" for p in points)
    nodes = [c for c in regularize(fib).node_collisions if c.pair == ("Q~", "Q~")]
    ok &= [c.fiber.label for c in nodes] == ["I2", "I2"]

    quartic = parse("3*a2^4 - a2^3 + 72*a2^2 - 108*a2 + 27*17")
    ok &= equal_up_to_unit(locus.eliminant_squarefree, quartic)
    ok &= is_squarefree(locus.eliminant_squarefree)

    res = resultant(quartic, quartic.derivative("a2"), "a2").constant_value()
    ok &= abs(res) == 979113612375

    elapsed = time.time() - start
    ok &= elapsed < 5.0
    criterion(2, "quintic: 2 nodes, squarefree quartic eliminant, |res| exact; < 5 s", ok)
    assert ok, f"points={points}, |res|={abs(res)}, elapsed={elapsed:.3f}s"


def vertex_tower(modification, label):
    """The blow-up tower ``regularize`` built over a vertex of the base plane."""
    return next(t for t in modification.towers if t.label == f"point {label}")


def test_criterion_3_tangency_at_001(criterion):
    """Contact order of the quintic with the line A0 = 0 at (0:0:1), read
    off the pipeline's tower there."""
    fib = build_global_sections(1)
    _, quintic = fib.reduced_discriminant()
    m = vertex_tower(regularize(fib), "(0:0:1)").contact_order("L~", "Q~")
    q_aff = AffineChart.standard(2).dehomogenize(quintic)
    ok = m == 2 and fulton_multiplicity(q_aff, MultiPoly.variable("u"), "u", "v") == 2
    criterion(3, "tangency at (0:0:1): intersection multiplicity 2", ok)
    assert ok, f"contact order at (0:0:1) is {m}"


def test_criterion_3_tangency_at_010(criterion):
    """Contact order 3 of the quintic with the line A0 = 0 at (0:1:0).

    The line is an inflectional tangent there.  The quintic restricts to
    the line as -(1/64) A1^2 A2^3 (criterion 1), which vanishes to order 3
    in A2 at this point.  By Bezout the contact orders at the two zeros of
    the restriction add up to the degree 5, and the order at (0:0:1) is 2.
    Both orders are read off the pipeline's towers.
    """
    fib = build_global_sections(1)
    _, quintic = fib.reduced_discriminant()
    modification = regularize(fib)
    m = vertex_tower(modification, "(0:1:0)").contact_order("L~", "Q~")
    m_001 = vertex_tower(modification, "(0:0:1)").contact_order("L~", "Q~")
    oracle = fulton_multiplicity(
        AffineChart.standard(1).dehomogenize(quintic), MultiPoly.variable("u"), "u", "v"
    )
    ok = m == 3 and oracle == 3
    ok &= m + m_001 == quintic.total_degree()
    criterion(3.5, "tangency at (0:1:0): intersection multiplicity 3 (inflectional)", ok)
    assert ok, (
        f"intersection multiplicity at (0:1:0) is {m}, oracle {oracle}; "
        f"Bezout sum {m_001} + {m} = {m + m_001}, degree {quintic.total_degree()}"
    )


def test_criterion_4_total_space_singularities(criterion):
    """Two isolated singular points plus the singular curve over A0 = 0."""
    fib = build_global_sections(1)
    sings = fib.total_space_singularities(regularize(fib))
    isolated = {
        (s.fiber_point[0], tuple(s.base_point))
        for s in sings
        if s.kind() == "isolated"
    }
    curves = [s for s in sings if s.kind() == "curve"]
    ok = isolated == {
        (F(5, 16), (F(1), F(1), F(9, 4))),
        (F(-17, 48), (F(1), F(-1), F(-7, 4))),
    }
    ok &= len(curves) == 1 and curves[0].base_curve == "A0 = 0"
    ok &= tuple(curves[0].fiber_point) == (F(0), F(0), F(1))
    ok &= len(sings) == 3
    criterion(4, "total-space singularities: x = 5/16, -17/48 and the A0 = 0 curve", ok)
    assert ok, sings


def test_criterion_5_cusp_tower(criterion):
    """The contact tower reproduces the two final charts and the triples."""
    from fibrant.blowup import LocalModel, blow_up_point

    model = LocalModel(("s1", "s2"), MultiPoly.variable("s1"), MultiPoly.variable("s2"))
    a1, _ = blow_up_point(model, (0, 0))
    _, b2 = blow_up_point(a1, (0, 0))
    a3, b3 = blow_up_point(b2, (0, 0))
    t1, t2, t3 = (chart.history[-1].triple for chart in (a1, b2, a3))

    ok = (t1.as_tuple(), t2.as_tuple(), t3.as_tuple()) == ((1, 1, 2), (1, 2, 3), (2, 3, 6))
    ok &= [kodaira_classify(t).tag for t in (t1, t2, t3)] == ["II", "III", "I0*"]

    # exact equality of the two final total-transform charts
    xa, ya = (MultiPoly.variable(c) for c in a3.coords)
    xb, yb = (MultiPoly.variable(c) for c in b3.coords)
    ok &= a3.delta() == xa**6 * ya**3 * (1 - 27 * ya)
    ok &= b3.delta() == xb**2 * yb**6 * (xb - 27)
    criterion(5, "cusp tower: exact final charts and triples (1,1,2)/(1,2,3)/(2,3,6)", ok)
    assert ok


def test_criterion_6_full_pipeline(criterion):
    """The full fiber inventory, structurally stable across parameters."""
    start = time.time()
    report = analyze_lagrange_family(1)

    tags = {d.name: d.kodaira.tag for d in report.divisors}
    expected_tags = {"L~": "I1*", "Q~": "I1"}
    for i in (1, 2, 3, 4):
        expected_tags[f"E1(p{i})"] = "II"
        expected_tags[f"E2(p{i})"] = "III"
        expected_tags[f"E3(p{i})"] = "I0*"
    expected_tags["E1((0:0:1))"] = "I2*"
    expected_tags["E2((0:0:1))"] = "I4"
    expected_tags["E1((0:1:0))"] = "IV*"
    expected_tags["E2((0:1:0))"] = "IV"
    expected_tags["E3((0:1:0))"] = "I0"
    expected_tags["E4((0:1:0))"] = "I0"
    ok = tags == expected_tags

    # the three collision dual graphs over each contact point
    graphs = {}
    for c in report.collisions:
        if "(p1)" in c.pair[1]:
            graphs[c.pair] = c.fiber.dual_graph.canonical()
    ok &= graphs.get(("E1(p1)", "E3(p1)")) == DualGraph.chain(1, 2, 3).canonical()
    ok &= graphs.get(("E2(p1)", "E3(p1)")) == DualGraph.chain(1, 2, 3, 2, 1).canonical()
    ok &= graphs.get(("Q~", "E3(p1)")) == DualGraph.chain(1, 2, 1).canonical()

    labels = sorted(c.fiber.label for c in report.collisions)
    ok &= labels == sorted(
        ["I2"] * 2 + ["IV*", "III*", "I1* (contracted)"] * 4 + ["I4*", "I5", "I3*"]
    )
    ok &= report.node_count == 2 and report.cusp_count == 4

    for alpha in (2, 3, 5):
        ok &= analyze_lagrange_family(alpha).structure() == report.structure()
    elapsed = time.time() - start
    ok &= elapsed < 60.0
    criterion(6, "full pipeline inventory, alpha-independent structure; < 60 s", ok)
    assert ok, f"elapsed={elapsed:.1f}s tags={tags}"


def test_criterion_7_tables_round_trip(criterion):
    """All Kodaira rows and all collision rows, plus the (4,6,12) rule."""
    kodaira_rows = [
        ((0, 0, 0), "I0"),
        ((0, 0, 1), "I1"),
        ((0, 0, 5), "I5"),
        ((2, 3, 6), "I0*"),
        ((2, 3, 9), "I3*"),
        ((1, 1, 2), "II"),
        ((1, 2, 3), "III"),
        ((2, 2, 4), "IV"),
        ((3, 4, 8), "IV*"),
        ((3, 5, 9), "III*"),
        ((4, 5, 10), "II*"),
    ]
    ok = len(kodaira_rows) == 11
    for triple, tag in kodaira_rows:
        ktype = kodaira_classify(OrderTriple(*triple))
        ok &= ktype.tag == tag
        ok &= KodairaType(tag).dual_graph().canonical() == ktype.dual_graph().canonical()

    collision_rows = [
        (("I2", "I3"), "I5"),
        (("I2", "I1*"), "I2*"),         # even multiplicative index
        (("I3", "I1*"), "I4* (contracted)"),  # odd multiplicative index
        (("II", "IV"), "I0*"),
        (("II", "I0*"), "IV*"),
        (("II", "IV*"), "II*"),
        (("IV", "I0*"), "II*"),
        (("III", "I0*"), "III*"),
    ]
    ok &= len(collision_rows) == 8
    for (t1, t2), label in collision_rows:
        fiber = collide(KodairaType(t1), KodairaType(t2))
        ok &= fiber.label == label
        ok &= fiber == collide(KodairaType(t2), KodairaType(t1))

    reduced = reduce_triple_mod(OrderTriple(3, 4, 8))
    ok &= reduced.as_tuple() == (3, 4, 8)
    ok &= kodaira_classify(reduced).tag == "IV*"
    ok &= reduce_triple_mod(OrderTriple(4, 6, 12)).as_tuple() == (0, 0, 0)
    criterion(7, "11 Kodaira rows + 8 collision rows + (4,6,12) reduction", ok)
    assert ok


def test_criterion_8_integrable_system_identities(criterion):
    """All pairwise brackets and all conservation laws vanish exactly."""
    start = time.time()
    ok = True
    for m in (F(0), F(1, 2), F(3)):
        params = TopParams(m=m)
        integrals = first_integrals(params)
        for i in range(4):
            for j in range(i + 1, 4):
                ok &= lie_poisson_bracket(integrals[i], integrals[j]).is_zero()
            ok &= directional_derivative(integrals[i], params).is_zero()
    elapsed = time.time() - start
    ok &= elapsed < 5.0
    criterion(8, "6 pairwise brackets and 4 conservation laws exactly zero; < 5 s", ok)
    assert ok, f"elapsed={elapsed:.3f}s"


def test_criterion_9_quotient_cubic(criterion):
    """Sampled level-set points land on the quotient cubic (numeric)."""
    parameter_sets = [
        (F(3, 5), F(2, 7), F(1, 3)),
        (F(-1, 2), F(1), F(2, 5)),
        (F(7, 4), F(-3, 8), F(-1, 6)),
    ]
    m = F(1, 2)
    ok = True
    for h3, h4, a in parameter_sets:
        level = Level(h3, h4, a, m)
        for seed in range(100):
            point = sample_fiber_point(level, seed=seed)
            ok &= abs(quotient_cubic_residual(point, level)) < 1e-9
            ok &= abs(shifted_weierstrass_residual(point, level)) < 1e-9
    criterion(9, "quotient cubic and shifted form: |residual| < 1e-9 on 300 samples", ok)
    assert ok


def test_criterion_10_monodromy(criterion):
    """Node solver returns {A}; braid solutions normalize; bound-stable."""
    start = time.time()
    b0 = STANDARD_CUSP_PARTNER
    ok = solve_node_relation(T, conjugates_of_T(10)) == [T]
    ok &= solve_node_relation(T, conjugates_of_T(25)) == [T]

    sols10 = solve_cusp_relation(T, conjugates_of_T(10))
    sols25 = solve_cusp_relation(T, conjugates_of_T(25))
    ok &= all(normalize_pair(b) == b0 for b in sols10)
    ok &= all(normalize_pair(b) == b0 for b in sols25)
    ok &= {normalize_pair(b) for b in sols10} == {normalize_pair(b) for b in sols25}
    ok &= set(sols10) <= set(sols25)

    ok &= T * b0 * T == b0 * T * b0
    elapsed = time.time() - start
    ok &= elapsed < 10.0
    criterion(10, "monodromy relations solved, normal form stable 10 -> 25; < 10 s", ok)
    assert ok, f"elapsed={elapsed:.3f}s"
