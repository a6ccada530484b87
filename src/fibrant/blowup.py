"""Base-surface blow-up engine for Weierstrass fibration germs.

A ``LocalModel`` is a fibration germ in a two-coordinate affine chart.
Blowing up a rational center produces two charts,

    chart A:  (s1, s2) -> (c1 + u,   c2 + u*v)   (exceptional divisor u = 0)
    chart B:  (s1, s2) -> (c1 + u*v, c2 + v)     (exceptional divisor v = 0)

after which the fibration germ is pulled back and fiber coordinates are
rescaled until no coordinate power u^4 divides the degree-4 section
jointly with u^6 dividing the degree-6 one (the minimality condition for
Weierstrass data); the rescaling exponents are recorded.

``regularize`` is the driver: it walks the singular points of the
reduced discriminant, blows up every point that is not a node of the
reduced total transform or whose colliding fiber types are off the
collision table (``weierstrass.collide``), and returns the full registry
of exceptional divisors, their order triples and fiber types, and the
certified collisions.  The blow-ups over one center form a ``Tower``,
which records whether the center is a rational point (and which) or a
transverse contact.  Non-rational singular points are handled through
the transverse-contact device: at a transverse intersection of the
degree-4 and degree-6 divisors the sections themselves serve as local
coordinates, so one abstract germ (a, b) = (s1, s2) covers the whole
cluster.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from fractions import Fraction

from .planecurve import (
    PROJECTIVE_VARS,
    AffineChart,
    classify_double_point,
    rational_singular_points,
)
from .poly import (
    MultiPoly,
    equal_up_to_unit,
    exact_divide,
    extract_power,
    format_poly,
    gcd_univariate,
    is_squarefree,
    primitive_integer,
    rational_roots,
    resultant,
    squarefree_part,
)
from .weierstrass import (
    KodairaType,
    MirandaFiber,
    NotAnalyzableError,
    NotOnListError,
    OrderTriple,
    WeierstrassFibration,
    _gcd_homogeneous,
    _normalize_projective,
    check_genericity,
    collide,
    kodaira_classify,
    normalize_condition_C,
    order_triple_along,
    radical,
)

DEFAULT_BLOWUP_BUDGET = 12


class BlowupBudgetError(NotAnalyzableError):
    """The driver exceeded its per-center blow-up budget."""


@dataclass(frozen=True)
class BlowupStep:
    center: tuple          # rational pair in the parent chart
    chart: str             # "A" or "B"
    parent_coords: tuple
    coords: tuple

    def substitution(self) -> dict:
        """Parent coordinates as polynomials in this chart's coordinates."""
        u = MultiPoly.variable(self.coords[0])
        v = MultiPoly.variable(self.coords[1])
        c1, c2 = (MultiPoly.const(c) for c in self.center)
        if self.chart == "A":
            return {self.parent_coords[0]: c1 + u, self.parent_coords[1]: c2 + u * v}
        return {self.parent_coords[0]: c1 + u * v, self.parent_coords[1]: c2 + v}

    def exceptional_coord(self) -> str:
        return self.coords[0] if self.chart == "A" else self.coords[1]


@dataclass(frozen=True)
class LocalModel:
    """A fibration germ (a, b) in one affine chart of the (modified) base."""

    coords: tuple
    a: MultiPoly
    b: MultiPoly
    history: tuple = ()
    t_record: tuple = ()     # ((coord, t), ...) fiber rescalings applied

    def delta(self) -> MultiPoly:
        return self.a**3 - 27 * self.b**2

    def composed_map(self) -> dict:
        """Original chart coordinates as polynomials in the current ones."""
        mapping = None
        for step in self.history:
            sub = step.substitution()
            if mapping is None:
                mapping = sub
            else:
                mapping = {k: poly.substitute(sub) for k, poly in mapping.items()}
        if mapping is None:
            return {c: MultiPoly.variable(c) for c in self.coords}
        return mapping


def blow_up_point(model: LocalModel, center, names=None) -> tuple:
    """Blow up a rational point of the chart; returns (chart A, chart B).

    The fibration germs are substituted raw; apply
    ``pull_back_fibration`` to restore the minimality condition.
    ``names`` optionally supplies the two coordinate pairs.
    """
    c = (Fraction(center[0]), Fraction(center[1]))
    if names is None:
        depth = len(model.history) + 1
        names = ((f"x{depth}", f"y{depth}"), (f"p{depth}", f"q{depth}"))
    (na, nb) = names
    step_a = BlowupStep(c, "A", model.coords, na)
    step_b = BlowupStep(c, "B", model.coords, nb)
    out = []
    for step in (step_a, step_b):
        sub = step.substitution()
        out.append(
            LocalModel(
                coords=step.coords,
                a=model.a.substitute(sub),
                b=model.b.substitute(sub),
                history=model.history + (step,),
                t_record=model.t_record,
            )
        )
    return tuple(out)


def pull_back_fibration(model: LocalModel) -> LocalModel:
    """Rescale fiber coordinates along the chart axes (exceptional first).

    Divides a by u^(4t) and b by u^(6t) for the maximal t along each
    coordinate, recording every positive t.
    """
    if not model.history:
        order = model.coords
    else:
        exc = model.history[-1].exceptional_coord()
        other = next(c for c in model.coords if c != exc)
        order = (exc, other)
    a, b = model.a, model.b
    recorded = model.t_record
    for coord in order:
        a, b, t = normalize_condition_C(a, b, coord)
        if t:
            recorded = recorded + ((coord, t),)
    return LocalModel(model.coords, a, b, model.history, recorded)


def exceptional_order_triple(model: LocalModel) -> OrderTriple:
    """(L, K, N) along the exceptional divisor of the latest blow-up."""
    if not model.history:
        raise ValueError("model has no blow-up history")
    coord = model.history[-1].exceptional_coord()
    return order_triple_along(model.a, model.b, MultiPoly.variable(coord))


# -- driver data -----------------------------------------------------------------


@dataclass
class DivisorRecord:
    name: str
    origin: str
    triple: OrderTriple
    kodaira: KodairaType

    def to_json(self):
        return {
            "name": self.name,
            "origin": self.origin,
            "triple": self.triple.to_json(),
            "kodaira": self.kodaira.to_json(),
        }


@dataclass
class CollisionRecord:
    pair: tuple            # divisor names
    chart_coords: tuple | None
    point: tuple | None    # rational pair, or None for a certified cluster
    fiber: MirandaFiber
    count: int = 1
    cluster_eliminant: MultiPoly | None = None
    where: str = ""        # the site in words, as the report names it

    def to_json(self):
        out = {
            "divisor_pair": list(self.pair),
            "count": self.count,
            "fiber": self.fiber.to_json(),
        }
        if self.point is not None:
            out["chart"] = list(self.chart_coords)
            out["point"] = [str(c) for c in self.point]
        if self.cluster_eliminant is not None:
            out["cluster_eliminant"] = format_poly(self.cluster_eliminant)
        return out


@dataclass
class BlowupEvent:
    center_label: str
    chart_coords: tuple
    center: tuple
    new_coords: tuple      # (chart A coords, chart B coords)
    t_values: tuple        # ((coord, t), ...) from both charts


@dataclass
class Tower:
    """All blow-up data over one center of the original base plane."""

    label: str
    kind: str                       # "contact" (of the section divisors) or "point"
    point: tuple | None = None      # projective center of a "point" tower
    count: int = 1                  # identical copies (cluster size)
    events: list = field(default_factory=list)
    divisors: list = field(default_factory=list)
    collisions: list = field(default_factory=list)
    charts: list = field(default_factory=list)   # final LocalModels

    def over(self, site: str) -> tuple:
        """(divisors, collisions) of one copy of the tower, with its
        exceptional divisors named after ``site``."""
        names = {d.name: f"{d.name}({site})" for d in self.divisors}
        divisors = [
            DivisorRecord(names[d.name], f"exceptional divisor over {site}", d.triple, d.kodaira)
            for d in self.divisors
        ]
        collisions = [
            replace(c, pair=tuple(names.get(n, n) for n in c.pair), where=f"over {site}")
            for c in self.collisions
        ]
        return divisors, collisions


@dataclass
class BaseModification:
    """Divisor and collision registry produced by the regularization driver."""

    component_divisors: list = field(default_factory=list)
    towers: list = field(default_factory=list)
    node_collisions: list = field(default_factory=list)
    notes: list = field(default_factory=list)
    # certified rational singular points of the reduced discriminant,
    # normalized projective triples in the order they were certified
    singular_points: list = field(default_factory=list)
    residual_degree: int = 0    # of the reduced residual curve; 0 if none

    def record_singular_point(self, point):
        key = _normalize_projective(point)
        if key not in self.singular_points:
            self.singular_points.append(key)

    def all_collisions(self):
        out = list(self.node_collisions)
        for tower in self.towers:
            out.extend(tower.collisions)
        return out

    def blow_up_count(self):
        return sum(len(t.events) for t in self.towers)


# -- the local driver ---------------------------------------------------------


class _ChartTask:
    def __init__(self, model, divisors, scan_all, exceptional):
        self.model = model              # normalized LocalModel
        self.divisors = divisors        # name -> germ in chart coords
        self.scan_all = scan_all
        self.exceptional = exceptional  # name of the fresh exceptional divisor


class _TowerDriver:
    """Blows up one center until the reduced total transform has only
    nodes with collision types on the collision table."""

    def __init__(self, tower, types, budget):
        self.tower = tower
        self.types = dict(types)        # divisor name -> KodairaType
        self.budget = budget
        self.counter = 0

    def run(self, model: LocalModel, divisors: dict) -> Tower:
        task = _ChartTask(model, divisors, scan_all=False, exceptional=None)
        self._process_point(task, (Fraction(0), Fraction(0)))
        return self.tower

    # -- point handling ---------------------------------------------------

    def _discriminant_branches(self, task, point):
        """Divisors of positive discriminant order passing through a point."""
        branches = []
        for name, germ in task.divisors.items():
            ktype = self.types[name]
            if ktype.is_smooth():
                continue
            value = germ.evaluate(
                {v: dict(zip(task.model.coords, point)).get(v, Fraction(0)) for v in germ.variables}
            )
            if value == 0:
                branches.append((name, germ))
        return branches

    def _process_point(self, task, point):
        branches = self._discriminant_branches(task, point)
        if not branches:
            return
        product = MultiPoly.const(1)
        for _, germ in branches:
            product = product * germ
        report = _classify_product(product, point, task.model.coords)
        if report == "smooth":
            return
        if report == "node":
            if len(branches) > 2:
                self._blow_up(task, point)
                return
            if len(branches) == 1:
                pair = (branches[0][0], branches[0][0])
            else:
                pair = (branches[0][0], branches[1][0])
            fiber = self._try_collide(pair)
            if fiber is None:
                self._blow_up(task, point)
                return
            self.tower.collisions.append(
                CollisionRecord(pair, task.model.coords, point, fiber)
            )
            return
        self._blow_up(task, point)

    def _try_collide(self, pair):
        try:
            return collide(self.types[pair[0]], self.types[pair[1]])
        except NotOnListError:
            return None

    # -- blowing up --------------------------------------------------------

    def _blow_up(self, task, point):
        if len(self.tower.events) >= self.budget:
            raise BlowupBudgetError(
                f"center {self.tower.label}: blow-up budget exceeded at chart "
                f"{task.model.coords}, germ {format_poly(task.model.delta())[:120]}"
            )
        self.counter += 1
        exc_name = f"E{self.counter}"
        raw_a, raw_b = blow_up_point(task.model, point)
        model_a = pull_back_fibration(raw_a)
        model_b = pull_back_fibration(raw_b)
        self.tower.events.append(
            BlowupEvent(
                self.tower.label,
                task.model.coords,
                point,
                (model_a.coords, model_b.coords),
                tuple(model_a.t_record[len(task.model.t_record):])
                + tuple(model_b.t_record[len(task.model.t_record):]),
            )
        )
        # order triple of the new exceptional divisor, checked in both charts
        triple_a = exceptional_order_triple(model_a)
        triple_b = exceptional_order_triple(model_b)
        if triple_a.as_tuple() != triple_b.as_tuple():
            raise NotAnalyzableError(
                f"chart inconsistency over {self.tower.label}: "
                f"{triple_a.as_tuple()} vs {triple_b.as_tuple()}"
            )
        ktype = kodaira_classify(triple_a)
        self.types[exc_name] = ktype
        self.tower.divisors.append(
            DivisorRecord(
                exc_name,
                f"exceptional divisor over {self.tower.label}",
                triple_a,
                ktype,
            )
        )
        task_a = _ChartTask(
            model_a,
            self._transform_divisors(task, point, model_a, exc_name, "A"),
            scan_all=True,
            exceptional=exc_name,
        )
        task_b = _ChartTask(
            model_b,
            self._transform_divisors(task, point, model_b, exc_name, "B"),
            scan_all=False,
            exceptional=exc_name,
        )
        self.tower.charts.append(model_a)
        self.tower.charts.append(model_b)
        self._scan_chart(task_a)
        self._scan_chart(task_b)

    def _transform_divisors(self, task, point, model, exc_name, chart):
        step = model.history[-1]
        sub = step.substitution()
        exc_var = step.exceptional_coord()
        new = {}
        for name, germ in task.divisors.items():
            pulled = germ.substitute(sub)
            if pulled.is_zero():
                continue
            _, strict = extract_power(pulled, MultiPoly.variable(exc_var))
            if strict.is_constant():
                continue  # divisor not visible in this chart
            new[name] = strict
        new[exc_name] = MultiPoly.variable(exc_var)
        return new

    def _scan_chart(self, task):
        """Find every point of the new exceptional divisor needing action."""
        exc_var = task.model.history[-1].exceptional_coord()
        other_var = next(c for c in task.model.coords if c != exc_var)
        if not task.scan_all:
            self._process_point(task, (Fraction(0), Fraction(0)))
            return
        points = set()
        for name, germ in task.divisors.items():
            if name == task.exceptional:
                continue
            restriction = germ.substitute({exc_var: Fraction(0)})
            if restriction.is_zero():
                raise NotAnalyzableError(
                    f"divisor {name} contains the exceptional divisor over {self.tower.label}"
                )
            if restriction.is_constant():
                continue
            leftover = restriction
            for root, mult in rational_roots(restriction):
                points.add(root)
                leftover = exact_divide(
                    leftover,
                    (MultiPoly.variable(other_var) - MultiPoly.const(root)) ** mult,
                )
            if not leftover.is_constant():
                self._handle_cluster(task, name, leftover, exc_var, other_var)
        for root in sorted(points):
            pt = (Fraction(0), root) if exc_var == task.model.coords[0] else (root, Fraction(0))
            self._process_point(task, pt)

    def _handle_cluster(self, task, name, leftover, exc_var, other_var):
        """Certify non-rational crossings with the exceptional as nodes."""
        exc_type = self.types[task.exceptional]
        if not is_squarefree(leftover, other_var):
            raise NotAnalyzableError(
                f"non-rational tangency of {name} with {task.exceptional} "
                f"over {self.tower.label}: eliminant {format_poly(leftover)} not squarefree"
            )
        for other_name, other_germ in task.divisors.items():
            if other_name in (name, task.exceptional):
                continue
            if self.types[other_name].is_smooth():
                continue
            other_restriction = other_germ.substitute({exc_var: Fraction(0)})
            if other_restriction.is_constant():
                continue
            g = gcd_univariate(leftover, other_restriction, other_var)
            if not g.is_constant():
                raise NotAnalyzableError(
                    f"non-rational collision of three divisors over {self.tower.label}"
                )
        if exc_type.is_smooth():
            return
        fiber = self._try_collide((name, task.exceptional))
        if fiber is None:
            raise NotAnalyzableError(
                f"non-rational off-table collision ({name}, {task.exceptional}) "
                f"over {self.tower.label}"
            )
        self.tower.collisions.append(
            CollisionRecord(
                (name, task.exceptional),
                task.model.coords,
                None,
                fiber,
                count=max(leftover.total_degree(), 0),
                cluster_eliminant=leftover,
            )
        )


def _classify_product(product, point, coords):
    """'smooth', 'node', or 'blow' for the reduced union of local branches."""
    values = dict(zip(coords, (Fraction(point[0]), Fraction(point[1]))))
    grads = [product.derivative(c) for c in coords]
    grad_vals = [
        g.evaluate({v: values.get(v, Fraction(0)) for v in g.variables}) for g in grads
    ]
    if any(v != 0 for v in grad_vals):
        return "smooth"
    report = classify_double_point(product, point, vars=coords)
    return "node" if report.kind == "node" else "blow"


# -- the global driver -----------------------------------------------------------


def regularize(fib: WeierstrassFibration, budget: int = DEFAULT_BLOWUP_BUDGET) -> BaseModification:
    """Blow up the base plane until the discriminant data is collision-clean.

    Locates all singular points of the reduced discriminant and all
    component collisions, blows up (within ``budget`` per center) until
    every singularity of the reduced total transform is a node whose
    colliding fiber pair is on the collision table, and returns the full
    divisor/collision registry.
    """
    if fib.alpha is not None:
        check_genericity(fib.alpha)
    mod = BaseModification()
    lines, residual = fib.reduced_discriminant()

    types = {}
    line_names = {}
    for var, mult in lines:
        name = "L~" if var == "A0" else f"L~({var})"
        line_names[var] = name
        triple = order_triple_along(fib.a, fib.b, MultiPoly.variable(var))
        ktype = kodaira_classify(triple)
        types[name] = ktype
        mod.component_divisors.append(
            DivisorRecord(name, f"line {var} = 0 (multiplicity {mult} in the discriminant)", triple, ktype)
        )
    residual_name = None
    if not residual.is_constant():
        residual = radical(residual)
        mod.residual_degree = residual.total_degree()
        residual_name = "Q~"
        triple = order_triple_along(fib.a, fib.b, residual)
        ktype = kodaira_classify(triple)
        types[residual_name] = ktype
        mod.component_divisors.append(
            DivisorRecord(
                residual_name,
                f"residual discriminant curve (degree {residual.total_degree()})",
                triple,
                ktype,
            )
        )

    # 1. singular points of the residual curve
    cusp_cluster = None
    if residual_name is not None:
        cusp_cluster = _residual_singularities(fib, residual, types, mod, budget)

    # 2. crossings of the residual with the lines
    if residual_name is not None:
        for var, _ in lines:
            _line_curve_crossings(fib, residual, var, line_names[var], types, mod, budget)

    # 3. line-line crossings
    for i, (var1, _) in enumerate(lines):
        for var2, _ in lines[i + 1:]:
            _line_line_crossing(fib, var1, var2, line_names, types, mod, budget)

    if cusp_cluster is not None:
        mod.notes.append(
            "contact-point cluster eliminant: " + format_poly(cusp_cluster)
        )
    return mod


def _residual_singularities(fib, residual, types, mod, budget):
    """Handle Sing(residual): nodes collide, contact points get towers.

    Singular points are located on the A0 != 0 chart after certifying
    that the singular system has no solution on the line A0 = 0 (its
    gradient restrictions share no common zero there).
    """
    _certify_no_singularities_at_infinity(residual)
    chart = AffineChart.standard(0)
    affine = chart.dehomogenize(residual)
    locus = rational_singular_points(affine, chart)
    for rep in locus.points:
        mod.record_singular_point(chart.to_projective(rep.point))
        if rep.kind == "node":
            fiber = _node_fiber_or_tower(
                fib,
                ("Q~", "Q~"),
                types,
                chart,
                rep.point,
                {"Q~": affine},
                mod,
                budget,
            )
            if fiber is not None:
                mod.node_collisions.append(
                    CollisionRecord(("Q~", "Q~"), chart.coords, rep.point, fiber)
                )
        elif rep.kind == "cusp":
            _verify_contact_point(fib, chart, rep.point)
            label = f"contact point {tuple(map(str, rep.point))}"
            mod.towers.append(contact_tower(label, types, budget))
        else:
            raise NotAnalyzableError(
                f"residual curve has a {rep.kind} singular point at {rep.point}; "
                "only nodes and transverse-contact cusps are certified"
            )
    cluster = locus.eliminant_squarefree
    if cluster is not None and cluster.total_degree() > 0:
        count = _certify_contact_cluster(fib, cluster, locus.eliminant_variable)
        mod.towers.append(contact_tower("contact cluster", types, budget, count))
    return cluster


def _certify_no_singularities_at_infinity(residual):
    """Prove that the residual curve is smooth along the line A0 = 0."""
    restrictions = []
    for var in ("A0", "A1", "A2"):
        part = residual.derivative(var).substitute({"A0": Fraction(0)})
        if part.is_zero():
            continue
        restrictions.append(part)
    if not restrictions:
        raise NotAnalyzableError("residual curve is singular along A0 = 0")
    g = restrictions[0]
    for part in restrictions[1:]:
        g = _gcd_homogeneous(g, part)
        if g.is_constant():
            return
    # a common factor survives; its zeros are candidate singular points
    value = residual.substitute({"A0": Fraction(0)})
    if _gcd_homogeneous(g, value).is_constant():
        return
    raise NotAnalyzableError(
        "residual curve may be singular on the line A0 = 0 "
        f"(common gradient factor {format_poly(g)}); not certified"
    )


def _verify_contact_point(fib, chart, point):
    """A cusp of the residual must be a transverse contact of the sections."""
    fa = chart.dehomogenize(_strip_lines(fib.a))
    fb = chart.dehomogenize(_strip_lines(fib.b))
    x, y = chart.coords
    values = {x: Fraction(point[0]), y: Fraction(point[1])}

    def at(p):
        return p.evaluate({v: values.get(v, Fraction(0)) for v in p.variables})

    jacobian = at(fa.derivative(x)) * at(fb.derivative(y)) - at(fa.derivative(y)) * at(
        fb.derivative(x)
    )
    if at(fa) != 0 or at(fb) != 0 or jacobian == 0:
        raise NotAnalyzableError(
            f"cusp at {point} is not a transverse contact of the section "
            "divisors; the local-coordinate device does not apply"
        )


def _node_fiber_or_tower(fib, pair, types, chart, point, germs, mod, budget):
    """Collision fiber at a node, or None after an off-table pair is blown up.

    ``germs`` maps the divisor names through the node to their affine
    equations in the chart; off-table pairs get a tower at the node.
    """
    try:
        return collide(types[pair[0]], types[pair[1]])
    except NotOnListError:
        mod.towers.append(_point_tower(fib, chart, point, germs, types, budget))
        return None


def _point_tower(fib, chart, point, germs, types, budget):
    """Tower over a rational point of the base plane, given in ``chart``;
    ``germs`` maps divisor names to their affine equations there."""
    center = (Fraction(point[0]), Fraction(point[1]))
    shift = dict(zip(chart.coords, center))
    model = LocalModel(
        chart.coords,
        chart.dehomogenize(fib.a).shift(shift),
        chart.dehomogenize(fib.b).shift(shift),
    )
    projective = chart.to_projective(center)
    tower = Tower(f"point ({':'.join(map(str, projective))})", "point", projective)
    germs = {name: germ.shift(shift) for name, germ in germs.items()}
    return _TowerDriver(tower, types, budget).run(model, germs)


def _certify_contact_cluster(fib, cluster, var):
    """The non-rational singular points must be the transverse contacts of
    the section divisors; certified through the contact eliminant."""
    a_tilde = _strip_lines(fib.a)
    b_tilde = _strip_lines(fib.b)
    chart = AffineChart.standard(0)
    fa = chart.dehomogenize(a_tilde)
    fb = chart.dehomogenize(b_tilde)
    x, y = chart.coords
    if fa.degree_in(x) < 1 or fb.degree_in(x) < 1:
        raise NotAnalyzableError("section divisors do not eliminate; cannot certify cluster")
    contact = resultant(fa, fb, x)
    if contact.is_zero():
        raise NotAnalyzableError("section divisors share a component")
    contact_sf, _ = primitive_integer(squarefree_part(contact, y))
    reduced = contact_sf
    for root, _ in rational_roots(contact_sf):
        reduced = exact_divide(
            reduced, MultiPoly.variable(y) - MultiPoly.const(root)
        )
    if not is_squarefree(contact, y):
        raise NotAnalyzableError(
            "contact eliminant of the section divisors is not squarefree; "
            "transversality of the contact points is not certified"
        )
    cluster_named = cluster.substitute({cluster.variables[0]: MultiPoly.variable(y)}) if cluster.variables else cluster
    if not equal_up_to_unit(cluster_named, reduced):
        raise NotAnalyzableError(
            "non-rational singular points of the residual do not match the "
            "transverse contact locus of the section divisors: "
            f"{format_poly(cluster_named)} vs {format_poly(reduced)}"
        )
    return max(reduced.total_degree(), 0)


def _strip_lines(p):
    out = p
    for var in PROJECTIVE_VARS:
        _, out = extract_power(out, MultiPoly.variable(var))
    return out


def contact_tower(label, types, budget, count=1) -> Tower:
    """Tower over ``count`` transverse contacts of the section divisors.

    There the sections themselves are local coordinates, so the germ is
    exactly (a, b) = (s1, s2) with the cuspidal discriminant
    s1^3 - 27 s2^2; the tower is independent of the contact point.
    ``types`` gives the Kodaira type of the residual curve "Q~".
    """
    model = LocalModel(("s1", "s2"), MultiPoly.variable("s1"), MultiPoly.variable("s2"))
    tower = Tower(label, "contact", count=count)
    return _TowerDriver(tower, types, budget).run(model, {"Q~": model.delta()})


def _line_curve_crossings(fib, residual, var, line_name, types, mod, budget):
    """Process the intersection points of a discriminant line with the curve."""
    restriction = residual.substitute({var: Fraction(0)})
    if restriction.is_zero():
        raise NotAnalyzableError("line is contained in the residual curve")
    # the restriction is homogeneous in the two other coordinates;
    # vertex points show up as powers of those coordinates
    others = [v for v in ("A0", "A1", "A2") if v != var]
    for other in others:
        k, restriction = extract_power(restriction, MultiPoly.variable(other))
        if k == 0:
            continue
        # vanishing coordinate `other` names the vertex point
        point = {var: Fraction(0), other: Fraction(0), _third(var, other): Fraction(1)}
        _handle_line_point(fib, residual, var, line_name, point, int(k), types, mod, budget)
    if not restriction.is_constant():
        third = others[1]
        leftover = restriction.substitute({others[0]: Fraction(1)})
        for root, mult in rational_roots(leftover):
            point = {var: Fraction(0), others[0]: Fraction(1), third: root}
            _handle_line_point(fib, residual, var, line_name, point, mult, types, mod, budget)
            leftover = exact_divide(
                leftover, (MultiPoly.variable(third) - MultiPoly.const(root)) ** mult
            )
        if not leftover.is_constant():
            if not is_squarefree(leftover, third):
                raise NotAnalyzableError(
                    f"non-rational tangency of the residual with {var} = 0"
                )
            fiber = collide(types[line_name], types["Q~"])
            mod.node_collisions.append(
                CollisionRecord(
                    (line_name, "Q~"),
                    None,
                    None,
                    fiber,
                    count=max(leftover.total_degree(), 0),
                    cluster_eliminant=leftover,
                )
            )


def _third(var, other):
    return next(v for v in ("A0", "A1", "A2") if v not in (var, other))


def _handle_line_point(fib, residual, var, line_name, point, contact, types, mod, budget):
    mod.record_singular_point(tuple(point[v] for v in PROJECTIVE_VARS))
    label_pt = tuple(str(point[v]) for v in ("A0", "A1", "A2"))
    chart_index = next(i for i, v in enumerate(("A0", "A1", "A2")) if point[v] != 0)
    chart = AffineChart.standard(chart_index)
    pivot = ("A0", "A1", "A2")[chart_index]
    others = [v for v in ("A0", "A1", "A2") if v != pivot]
    center = (point[others[0]] / point[pivot], point[others[1]] / point[pivot])
    germs = {
        line_name: chart.dehomogenize(MultiPoly.variable(var)),
        "Q~": chart.dehomogenize(residual),
    }
    if contact == 1:
        # transverse crossing: a node of the reduced discriminant
        fiber = _node_fiber_or_tower(
            fib, (line_name, "Q~"), types, chart, center, germs, mod, budget
        )
        if fiber is not None:
            mod.node_collisions.append(
                CollisionRecord((line_name, "Q~"), ("A0", "A1", "A2"), label_pt, fiber)
            )
        return
    # tangential: blow up
    mod.towers.append(_point_tower(fib, chart, center, germs, types, budget))


def _line_line_crossing(fib, var1, var2, line_names, types, mod, budget):
    third = _third(var1, var2)
    point = {var1: Fraction(0), var2: Fraction(0), third: Fraction(1)}
    mod.record_singular_point(tuple(point[v] for v in PROJECTIVE_VARS))
    chart_index = ("A0", "A1", "A2").index(third)
    chart = AffineChart.standard(chart_index)
    germs = {
        line_names[var1]: chart.dehomogenize(MultiPoly.variable(var1)),
        line_names[var2]: chart.dehomogenize(MultiPoly.variable(var2)),
    }
    fiber = _node_fiber_or_tower(
        fib,
        (line_names[var1], line_names[var2]),
        types,
        chart,
        (Fraction(0), Fraction(0)),
        germs,
        mod,
        budget,
    )
    if fiber is not None:
        mod.node_collisions.append(
            CollisionRecord(
                (line_names[var1], line_names[var2]),
                ("A0", "A1", "A2"),
                tuple(str(point[v]) for v in ("A0", "A1", "A2")),
                fiber,
            )
        )
