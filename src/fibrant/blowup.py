"""Base-surface blow-up engine for Weierstrass fibration germs.

A ``LocalModel`` is a fibration germ in a two-coordinate affine chart.
Blowing up a rational center produces two charts,

    chart A:  (s1, s2) -> (c1 + u,   c2 + u*v)   (exceptional divisor u = 0)
    chart B:  (s1, s2) -> (c1 + u*v, c2 + v)     (exceptional divisor v = 0)

after which the fibration germ is pulled back and fiber coordinates are
rescaled until no coordinate power u^4 divides the degree-4 section
jointly with u^6 dividing the degree-6 one (the minimality condition for
Weierstrass data); the rescaling exponents are recorded.

``regularize`` is the driver.  It walks the singular points of the
reduced discriminant (those of the residual curve, then its crossings
with the lines, then the line-line crossings) and applies one rule at
each rational point, following Miranda, "Smooth models for elliptic
threefolds" (1983): a transverse crossing whose pair of fiber types is
on the collision table (``weierstrass.collide``) is kept as a node
collision, and anything else is blown up until the reduced total
transform has only such crossings.  It returns the registry of
exceptional divisors, their order triples and fiber types, and the
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

from .planecurve import PROJECTIVE_VARS, AffineChart, rational_singular_points
from .poly import (
    MultiPoly,
    equal_up_to_unit,
    extract_power,
    format_poly,
    gcd_univariate,
    is_squarefree,
    primitive_integer,
    radical,
    resultant,
    split_rational_roots,
    strip_coordinate_lines,
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
)

# Blow-ups allowed over one center of the base plane.
BLOWUP_BUDGET = 12


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


def blow_up_point(model: LocalModel, center) -> tuple:
    """Blow up a rational point of the chart; returns (chart A, chart B).

    The fibration germs are substituted raw; apply
    ``pull_back_fibration`` to restore the minimality condition.
    """
    c = (Fraction(center[0]), Fraction(center[1]))
    depth = len(model.history) + 1
    step_a = BlowupStep(c, "A", model.coords, (f"x{depth}", f"y{depth}"))
    step_b = BlowupStep(c, "B", model.coords, (f"p{depth}", f"q{depth}"))
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
    point: tuple | None    # rational point in chart_coords, or None for a cluster
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
class Tower:
    """All blow-up data over one center of the original base plane."""

    label: str
    kind: str                       # "contact" (of the section divisors) or "point"
    point: tuple | None = None      # projective center of a "point" tower
    count: int = 1                  # identical copies (cluster size)
    blow_ups: int = 0
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

    def __init__(self, tower, types):
        self.tower = tower
        self.types = dict(types)        # divisor name -> KodairaType

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
            pair = (branches[0][0], branches[-1][0])
            fiber = _collide_or_none(self.types, pair)
            if fiber is None:
                self._blow_up(task, point)
                return
            self.tower.collisions.append(
                CollisionRecord(pair, task.model.coords, point, fiber)
            )
            return
        self._blow_up(task, point)

    # -- blowing up --------------------------------------------------------

    def _blow_up(self, task, point):
        if self.tower.blow_ups >= BLOWUP_BUDGET:
            raise BlowupBudgetError(
                f"center {self.tower.label}: blow-up budget exceeded at chart "
                f"{task.model.coords}, germ {format_poly(task.model.delta())[:120]}"
            )
        self.tower.blow_ups += 1
        exc_name = f"E{self.tower.blow_ups}"
        raw_a, raw_b = blow_up_point(task.model, point)
        model_a = pull_back_fibration(raw_a)
        model_b = pull_back_fibration(raw_b)
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
            roots, leftover = split_rational_roots(restriction)
            points.update(root for root, _ in roots)
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
        pair = (name, task.exceptional)
        self.tower.collisions.append(
            _cluster_record(self.types, pair, leftover, f"over {self.tower.label}")
        )


def _collide_or_none(types, pair):
    """Collision fiber of a pair of divisor names, or None off the table."""
    try:
        return collide(types[pair[0]], types[pair[1]])
    except NotOnListError:
        return None


def _cluster_record(types, pair, eliminant, site, where=""):
    """Collision record for the non-rational crossings of ``pair`` cut out
    by ``eliminant``.  Only rational points are blown up, so an off-table
    pair there is not analyzable."""
    fiber = _collide_or_none(types, pair)
    if fiber is None:
        raise NotAnalyzableError(
            f"non-rational off-table collision ({pair[0]}, {pair[1]}) {site}"
        )
    return CollisionRecord(
        pair, None, None, fiber, eliminant.total_degree(), eliminant, where
    )


def _classify_product(product, point, coords):
    """'smooth', 'node', or 'blow' for the reduced union of local branches.

    At a singular point the curve has a node exactly when its Hessian is
    nondegenerate, f_xy^2 != f_xx * f_yy; all second derivatives vanish
    at a point of multiplicity >= 3."""
    values = dict(zip(coords, point))

    def at(p):
        return p.evaluate({v: values.get(v, Fraction(0)) for v in p.variables})

    x, y = coords
    fx, fy = product.derivative(x), product.derivative(y)
    if at(fx) != 0 or at(fy) != 0:
        return "smooth"
    if at(fx.derivative(y)) ** 2 != at(fx.derivative(x)) * at(fy.derivative(y)):
        return "node"
    return "blow"


# -- the global driver -----------------------------------------------------------


def regularize(fib: WeierstrassFibration) -> BaseModification:
    """Blow up the base plane until the discriminant data is collision-clean.

    Locates all singular points of the reduced discriminant and all
    component collisions, blows up (at most ``BLOWUP_BUDGET`` times per
    center) until every singularity of the reduced total transform is a
    node whose colliding fiber pair is on the collision table, and
    returns the full divisor/collision registry.
    """
    if fib.alpha is not None:
        check_genericity(fib.alpha)
    return _Regularizer(fib).run()


class _Regularizer:
    """One run of ``regularize``: the fibration, the discriminant
    components (homogeneous equation and Kodaira type by name) and the
    registry being built."""

    def __init__(self, fib):
        self.fib = fib
        self.mod = BaseModification()
        self.equations = {}
        self.types = {}

    def run(self) -> BaseModification:
        lines, residual = self.fib.reduced_discriminant()
        line_names = {var: "L~" if var == "A0" else f"L~({var})" for var, _ in lines}
        for var, mult in lines:
            self._add_component(
                line_names[var],
                MultiPoly.variable(var),
                f"line {var} = 0 (multiplicity {mult} in the discriminant)",
            )
        if not residual.is_constant():
            residual = radical(residual)
            self.mod.residual_degree = residual.total_degree()
            self._add_component(
                "Q~", residual, f"residual discriminant curve (degree {residual.total_degree()})"
            )
            self._residual_singularities()
            for var, _ in lines:
                self._line_curve_crossings(var, line_names[var])
        for i, (var1, _) in enumerate(lines):
            for var2, _ in lines[i + 1:]:
                vertex = tuple(Fraction(v not in (var1, var2)) for v in PROJECTIVE_VARS)
                self._site(vertex, (line_names[var1], line_names[var2]), transverse=True)
        return self.mod

    def _add_component(self, name, equation, origin):
        triple = order_triple_along(self.fib.a, self.fib.b, equation)
        ktype = kodaira_classify(triple)
        self.equations[name] = equation
        self.types[name] = ktype
        self.mod.component_divisors.append(DivisorRecord(name, origin, triple, ktype))

    def _site(self, point, names, transverse):
        """Keep a transverse crossing with an on-table pair of fiber types
        as a node collision; blow up anything else.

        ``point`` is a rational projective point and ``names`` are the
        discriminant components through it: one for a node of the
        residual curve, two for a crossing.  A node of the residual is
        reported in the chart where it was located, a crossing in
        projective coordinates.
        """
        self.mod.record_singular_point(point)
        index = next(i for i, c in enumerate(point) if c != 0)
        chart = AffineChart.standard(index)
        center = tuple(c / point[index] for i, c in enumerate(point) if i != index)
        pair = (names[0], names[-1])
        fiber = _collide_or_none(self.types, pair) if transverse else None
        if fiber is None:
            self.mod.towers.append(self._point_tower(chart, center, names))
        elif len(names) == 1:
            self.mod.node_collisions.append(
                CollisionRecord(
                    pair, chart.coords, center, fiber, where="node of the residual curve"
                )
            )
        else:
            self.mod.node_collisions.append(
                CollisionRecord(
                    pair, PROJECTIVE_VARS, point, fiber, where="crossing on the discriminant"
                )
            )

    def _point_tower(self, chart, center, names):
        """Tower over a rational point of the base plane, given in ``chart``,
        through the discriminant components ``names``."""
        shift = dict(zip(chart.coords, center))
        model = LocalModel(
            chart.coords,
            chart.dehomogenize(self.fib.a).shift(shift),
            chart.dehomogenize(self.fib.b).shift(shift),
        )
        projective = chart.to_projective(center)
        tower = Tower(f"point ({':'.join(map(str, projective))})", "point", projective)
        germs = {name: chart.dehomogenize(self.equations[name]).shift(shift) for name in names}
        return _TowerDriver(tower, self.types).run(model, germs)

    def _residual_singularities(self):
        """Sites at Sing(residual): nodes, and contact points, which get towers.

        Singular points are located on the A0 != 0 chart after certifying
        that the singular system has no solution on the line A0 = 0 (its
        gradient restrictions share no common zero there).
        """
        residual = self.equations["Q~"]
        _certify_no_singularities_at_infinity(residual)
        chart = AffineChart.standard(0)
        locus = rational_singular_points(chart.dehomogenize(residual), chart)
        for rep in locus.points:
            if rep.kind == "node":
                self._site(chart.to_projective(rep.point), ("Q~",), transverse=True)
            elif rep.kind == "cusp":
                self.mod.record_singular_point(chart.to_projective(rep.point))
                _verify_contact_point(self.fib, chart, rep.point)
                label = f"contact point {tuple(map(str, rep.point))}"
                self.mod.towers.append(contact_tower(label, self.types))
            else:
                raise NotAnalyzableError(
                    f"residual curve has a {rep.kind} singular point at {rep.point}; "
                    "only nodes and transverse-contact cusps are certified"
                )
        cluster = locus.eliminant_squarefree
        if cluster is not None:
            count = _certify_contact_cluster(self.fib, cluster)
            self.mod.towers.append(contact_tower("contact cluster", self.types, count))
            self.mod.notes.append("contact-point cluster eliminant: " + format_poly(cluster))

    def _line_curve_crossings(self, var, line_name):
        """Sites where the line ``var`` = 0 meets the residual curve."""
        restriction = self.equations["Q~"].substitute({var: Fraction(0)})
        if restriction.is_zero():
            raise NotAnalyzableError("line is contained in the residual curve")
        names = (line_name, "Q~")
        # the restriction is homogeneous in the two other coordinates;
        # vertex points show up as powers of those coordinates
        first, second = (v for v in PROJECTIVE_VARS if v != var)
        orders, restriction = strip_coordinate_lines(restriction)
        for other, k in orders.items():
            vertex = tuple(Fraction(v not in (var, other)) for v in PROJECTIVE_VARS)
            self._site(vertex, names, transverse=k == 1)
        if restriction.is_constant():
            return
        roots, leftover = split_rational_roots(restriction.substitute({first: Fraction(1)}))
        for root, mult in roots:
            point = {var: Fraction(0), first: Fraction(1), second: root}
            self._site(tuple(point[v] for v in PROJECTIVE_VARS), names, transverse=mult == 1)
        if not leftover.is_constant():
            if not is_squarefree(leftover, second):
                raise NotAnalyzableError(
                    f"non-rational tangency of the residual with {var} = 0"
                )
            self.mod.node_collisions.append(
                _cluster_record(
                    self.types, names, leftover, f"on the line {var} = 0",
                    where="crossing on the discriminant",
                )
            )


def _certify_no_singularities_at_infinity(residual):
    """Prove that the residual curve is smooth along the line A0 = 0."""
    restrictions = []
    for var in PROJECTIVE_VARS:
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
    fa = chart.dehomogenize(strip_coordinate_lines(fib.a)[1])
    fb = chart.dehomogenize(strip_coordinate_lines(fib.b)[1])
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


def _certify_contact_cluster(fib, cluster):
    """The non-rational singular points must be the transverse contacts of
    the section divisors; certified through the contact eliminant.

    ``cluster`` is the squarefree eliminant of those points in the second
    coordinate of the A0 chart."""
    chart = AffineChart.standard(0)
    fa = chart.dehomogenize(strip_coordinate_lines(fib.a)[1])
    fb = chart.dehomogenize(strip_coordinate_lines(fib.b)[1])
    x, y = chart.coords
    if fa.degree_in(x) < 1 or fb.degree_in(x) < 1:
        raise NotAnalyzableError("section divisors do not eliminate; cannot certify cluster")
    contact = resultant(fa, fb, x)
    if contact.is_zero():
        raise NotAnalyzableError("section divisors share a component")
    contact_sf, _ = primitive_integer(radical(contact))
    _, reduced = split_rational_roots(contact_sf)
    if not is_squarefree(contact, y):
        raise NotAnalyzableError(
            "contact eliminant of the section divisors is not squarefree; "
            "transversality of the contact points is not certified"
        )
    if not equal_up_to_unit(cluster, reduced):
        raise NotAnalyzableError(
            "non-rational singular points of the residual do not match the "
            "transverse contact locus of the section divisors: "
            f"{format_poly(cluster)} vs {format_poly(reduced)}"
        )
    return max(reduced.total_degree(), 0)


def contact_tower(label, types, count=1) -> Tower:
    """Tower over ``count`` transverse contacts of the section divisors.

    There the sections themselves are local coordinates, so the germ is
    exactly (a, b) = (s1, s2) with the cuspidal discriminant
    s1^3 - 27 s2^2; the tower is independent of the contact point.
    ``types`` gives the Kodaira type of the residual curve "Q~".
    """
    model = LocalModel(("s1", "s2"), MultiPoly.variable("s1"), MultiPoly.variable("s2"))
    tower = Tower(label, "contact", count=count)
    return _TowerDriver(tower, types).run(model, {"Q~": model.delta()})
