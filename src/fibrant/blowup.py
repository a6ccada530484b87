"""Base-surface blow-up engine for Weierstrass fibration germs.

A ``LocalModel`` is a fibration germ (a, b) in a two-coordinate affine
chart, together with its discriminant Delta = a^3 - 27 b^2.  Blowing up a
rational center produces two charts,

    chart A:  (s1, s2) -> (c1 + u,   c2 + u*v)   (exceptional divisor u = 0)
    chart B:  (s1, s2) -> (c1 + u*v, c2 + v)     (exceptional divisor v = 0)

A center off the origin is shifted there by an integer Taylor shift,
once for both charts; at the origin the charts are exponent maps,
s1^i s2^j -> u^(i+j) v^j and u^i v^(i+j) (``poly.blow_up_chart``), that
pull back a, b and Delta without coefficient arithmetic.  Every chart is
minimal: fiber coordinates are rescaled until no coordinate power u^4
divides the degree-4 section jointly with u^6 dividing the degree-6 one,
and Delta by u^(12t) alongside, the exponents recorded.  A chart is
built on the first read of its fields, so only the charts that are
blown up again or printed are built; each blow-up reads the order triple
of its exceptional divisor once, before that, off the multiplicities of
the centred sections, and every built chart must give it again.  A
divisor germ goes to the chart as its strict transform
(``poly.strict_transform``), the same map with the exponent of the
exceptional coordinate lowered by the germ's multiplicity, its least
total degree.  No tower multiplies a^3 - 27 b^2 out: a point
tower takes the fibration's Delta, restricted to the chart and shifted
like a and b, and the contact tower computes the Delta of its abstract
germ once per process.  Orders along a divisor u = 0 are least exponents
and divisions by powers of u are exponent shifts.  Whether a point
needs a blow-up is read off the 2-jets of the branches through it
(``poly.two_jet_at``), one jet per branch and no product of germs.

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
transverse contact, and the multiplicity of every divisor germ at each
center it blows up, so the contact order of two divisors over the
center follows from Noether's formula; where a line meets the residual
curve it must equal the order of the restriction to the line.
Singular points of the residual curve that are not nodes, rational or
not, are handled through the transverse-contact device: at a transverse
intersection of the degree-4 and degree-6 divisors the sections
themselves serve as local coordinates, so one abstract germ
(a, b) = (s1, s2) covers every contact point.
"""

from __future__ import annotations

import functools
from fractions import Fraction

from .planecurve import (
    PROJECTIVE_VARS,
    AffineChart,
    normalize_projective,
    rational_singular_points,
)
from .poly import (
    JET_KEYS,
    MultiPoly,
    blow_up_chart,
    equal_up_to_unit,
    format_poly,
    gcd_all,
    gcd_multivariate,
    is_squarefree,
    radical,
    rational_roots,
    resultant,
    strict_transform,
    strip_coordinate_lines,
    two_jet_at,
)
from .record import Record, Value
from .weierstrass import (
    KodairaType,
    NotAnalyzableError,
    NotOnListError,
    OrderTriple,
    WeierstrassFibration,
    check_genericity,
    collide,
    kodaira_classify,
    normalize_condition_C,
    order_triple_along,
    reduce_triple_mod,
)

# Blow-ups allowed over one center of the base plane.
BLOWUP_BUDGET = 12


class BlowupBudgetError(NotAnalyzableError):
    """The driver exceeded its per-center blow-up budget."""


class BlowupStep(Value):
    """The blow-up of the rational point ``center`` of the chart
    ``parent_coords``, seen in its chart "A" or "B" with ``coords``;
    ``triple`` is the order triple of the minimal sections along its
    exceptional divisor, shared by both charts."""

    __slots__ = ("center", "chart", "parent_coords", "coords", "triple")

    def __init__(self, center, chart: str, parent_coords, coords, triple: OrderTriple):
        self._store(center, chart, parent_coords, coords, triple)

    def exceptional_coord(self) -> str:
        return self.coords[0] if self.chart == "A" else self.coords[1]


class LocalModel(Value):
    """A fibration germ (a, b) in one affine chart of the (modified) base.

    ``history`` holds the blow-up steps that led here and ``t_record``
    the fiber rescalings applied, ((coord, t), ...).  ``discriminant`` is
    a^3 - 27 b^2, computed here only when not given.  A chart of a
    blow-up is built on first read of a, b, ``t_record`` or Delta: until
    then those are unset and ``pending`` holds the parent's a, b and Delta
    centred at the blown-up point and the parent's ``t_record``;
    ``pending`` is None once built."""

    __slots__ = ("coords", "a", "b", "history", "t_record", "discriminant", "pending")

    def __init__(self, coords, a, b, history=(), t_record=(), discriminant=None):
        delta = a**3 - 27 * b**2 if discriminant is None else discriminant
        self._store(coords, a, b, history, t_record, delta, None)

    def __getattr__(self, name):  # only reached for an unset field of a chart
        if name not in _BUILT_ON_READ:
            raise AttributeError(name)
        _build_chart(self)
        return getattr(self, name)

    def __reduce__(self):
        return LocalModel, self._fields()[:-1]

    def delta(self) -> MultiPoly:
        return self.discriminant


_BUILT_ON_READ = ("a", "b", "t_record", "discriminant")


def _chart(coords, history, pending) -> LocalModel:
    """A chart built on first read, from ``pending``."""
    model = object.__new__(LocalModel)
    for name, value in (("coords", coords), ("history", history), ("pending", pending)):
        object.__setattr__(model, name, value)
    return model


def _build_chart(model: LocalModel):
    """Pull a, b and Delta back from the centred parent sections along the
    last step, rescale them to minimal and store them.

    The step's triple must be the orders of the built sections along the
    exceptional divisor: one comes from multiplicities and
    ``reduce_triple_mod``, the other from the chart map and
    ``normalize_condition_C``."""
    step = model.history[-1]
    centred, t_record = model.pending
    a, b, delta = (blow_up_chart(p, step.parent_coords, step.coords, step.chart) for p in centred)
    built = pull_back_fibration(LocalModel(model.coords, a, b, model.history, t_record, delta))
    exc = step.exceptional_coord()
    orders = OrderTriple(*(p.order_in(exc) for p in (built.a, built.b, built.delta())))
    if orders != step.triple:
        raise NotAnalyzableError(
            f"chart inconsistency at {step.coords}: exceptional triple "
            f"{step.triple.as_tuple()} read before the chart was built, {orders.as_tuple()} after"
        )
    for name in _BUILT_ON_READ:
        object.__setattr__(model, name, getattr(built, name))
    object.__setattr__(model, "pending", None)


def blow_up_point(model: LocalModel, center) -> tuple:
    """Blow up a rational point of the chart; returns (chart A, chart B),
    each minimal and built on first read.

    Both charts share the parent's sections centred at the point and the
    exceptional triple, read once off them: the exceptional coordinate has
    exponent i + j in the pull-back of s1^i s2^j, so the raw orders along
    it are the multiplicities of the centred sections, and the rescaling
    takes (4, 6, 12) off them as often as it can, since N >= min(3L, 2K).
    """
    c = (Fraction(center[0]), Fraction(center[1]))
    shift = dict(zip(model.coords, c))  # to the origin, where both charts are exponent maps
    sections = tuple(p.shift(shift) for p in (model.a, model.b, model.delta()))
    triple = reduce_triple_mod(OrderTriple(*(p.multiplicity() for p in sections)))
    depth = len(model.history) + 1
    steps = (
        BlowupStep(c, "A", model.coords, (f"x{depth}", f"y{depth}"), triple),
        BlowupStep(c, "B", model.coords, (f"p{depth}", f"q{depth}"), triple),
    )
    pending = (sections, model.t_record)
    return tuple(_chart(step.coords, model.history + (step,), pending) for step in steps)


def pull_back_fibration(model: LocalModel) -> LocalModel:
    """Rescale fiber coordinates along the chart axes (exceptional first).

    Divides a by u^(4t), b by u^(6t) and Delta by u^(12t) for the maximal
    t along each coordinate, recording every positive t.
    """
    exc = model.history[-1].exceptional_coord() if model.history else model.coords[0]
    order = (exc, *(c for c in model.coords if c != exc))
    a, b, delta = model.a, model.b, model.delta()
    recorded = model.t_record
    for coord in order:
        a, b, t = normalize_condition_C(a, b, coord)
        if t:
            delta = delta.divide_by_power(coord, 12 * t)
            recorded = recorded + ((coord, t),)
    return LocalModel(model.coords, a, b, model.history, recorded, delta)


# -- driver data -----------------------------------------------------------------


class DivisorRecord(Record):
    __slots__ = ("name", "origin", "triple", "kodaira")

    def __init__(self, name: str, origin: str, triple: OrderTriple, kodaira: KodairaType):
        self.name, self.origin, self.triple, self.kodaira = name, origin, triple, kodaira

    def to_json(self):
        return {
            "name": self.name,
            "origin": self.origin,
            "triple": self.triple.to_json(),
            "kodaira": self.kodaira.to_json(),
        }


class CollisionRecord(Record):
    """The fiber over the crossing of the divisors named in ``pair``, at a
    rational ``point`` of the chart ``chart_coords`` or, with ``point``
    None, at the roots of ``cluster_eliminant``; ``where`` is the site in
    words, as the report names it."""

    __slots__ = ("pair", "chart_coords", "point", "fiber", "count", "cluster_eliminant", "where")

    def __init__(
        self, pair, chart_coords, point, fiber, count=1, cluster_eliminant=None, where=""
    ):
        self.pair, self.chart_coords, self.point, self.fiber = pair, chart_coords, point, fiber
        self.count, self.cluster_eliminant, self.where = count, cluster_eliminant, where

    def at(self, pair: tuple, where: str) -> "CollisionRecord":
        """A copy for the divisors ``pair`` at the site ``where``."""
        return CollisionRecord(
            pair, self.chart_coords, self.point, self.fiber, self.count,
            self.cluster_eliminant, where,
        )

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


class Tower(Record):
    """All blow-up data over one center of the original base plane.

    ``kind`` is "contact" (of the section divisors) or "point", with the
    projective center ``point``; ``count`` identical copies (the cluster
    size); ``divisors`` holds one exceptional divisor per blow-up;
    ``charts`` holds the final LocalModels; ``multiplicities`` holds, for
    each blown-up center in blow-up order, the multiplicity there of
    every divisor germ through it, {name: m}.  The lists are copied."""

    __slots__ = (
        "label", "kind", "point", "count", "divisors", "collisions", "charts", "multiplicities",
    )

    def __init__(
        self, label: str, kind: str, point=None, count=1,
        divisors=(), collisions=(), charts=(), multiplicities=(),
    ):
        self.label, self.kind, self.point, self.count = label, kind, point, count
        self.divisors, self.collisions = list(divisors), list(collisions)
        self.charts, self.multiplicities = list(charts), list(multiplicities)

    @property
    def blow_ups(self) -> int:
        return len(self.divisors)

    def contact_order(self, first: str, second: str) -> int:
        """The intersection number of two divisors over the center, by
        Noether's formula (Fulton, *Algebraic Curves*, ch. 7): the sum of
        m(first) * m(second) over the blown-up centers, plus the crossings
        of the two that the tower keeps as collisions."""
        pair = {first, second}
        kept = sum(c.count for c in self.collisions if set(c.pair) == pair)
        return kept + sum(m.get(first, 0) * m.get(second, 0) for m in self.multiplicities)

    def over(self, site: str) -> tuple:
        """(divisors, collisions) of one copy of the tower, with its
        exceptional divisors named after ``site``."""
        names = {d.name: f"{d.name}({site})" for d in self.divisors}
        divisors = [
            DivisorRecord(names[d.name], f"exceptional divisor over {site}", d.triple, d.kodaira)
            for d in self.divisors
        ]
        collisions = [
            c.at(tuple(names.get(n, n) for n in c.pair), f"over {site}") for c in self.collisions
        ]
        return divisors, collisions


class BaseModification(Record):
    """Divisor and collision registry produced by the regularization driver.

    ``singular_points`` are the certified rational singular points of
    the reduced discriminant, normalized projective triples in the order
    they were certified; ``equations`` holds the homogeneous equation of
    each discriminant component by name.  The lists and the dict are
    copied."""

    __slots__ = (
        "component_divisors", "towers", "node_collisions", "notes", "singular_points",
        "equations",
    )

    def __init__(
        self, component_divisors=(), towers=(), node_collisions=(), notes=(),
        singular_points=(), equations=(),
    ):
        self.component_divisors, self.towers = list(component_divisors), list(towers)
        self.node_collisions, self.notes = list(node_collisions), list(notes)
        self.singular_points, self.equations = list(singular_points), dict(equations)

    @property
    def residual_degree(self) -> int:
        """The degree of the reduced residual curve ``Q~``, 0 if none."""
        return self.equations["Q~"].total_degree() if "Q~" in self.equations else 0

    def record_singular_point(self, point):
        key = normalize_projective(point)
        if key not in self.singular_points:
            self.singular_points.append(key)


# -- the local driver ---------------------------------------------------------


class _TowerDriver:
    """Blows up one center until the reduced total transform has only
    nodes with collision types on the collision table.

    Each chart is a normalized ``model`` with the germs of the divisors
    it sees, ``divisors``, a dict from name to germ in its coordinates."""

    def __init__(self, tower, types):
        self.tower = tower
        self.types = dict(types)        # divisor name -> KodairaType

    def run(self, model: LocalModel, divisors: dict) -> Tower:
        self._process_point(model, divisors, (Fraction(0), Fraction(0)))
        return self.tower

    # -- point handling ---------------------------------------------------

    def _process_point(self, model, divisors, point):
        """Keep a node with an on-table pair of branches; blow up any other
        singular point of the union of the branches through ``point``.

        Each branch of positive discriminant order gives its 2-jet at the
        point once: a zero constant term says the branch passes through
        it, and the 2-jet of the union is the product of the branch jets
        truncated at degree 2."""
        branches, product = [], None
        for name, germ in divisors.items():
            if self.types[name].is_smooth():
                continue
            jet = two_jet_at(germ, model.coords, point)
            if jet[0, 0]:
                continue
            branches.append(name)
            product = jet if product is None else _jet_product(product, jet)
        if not branches:
            return
        report = _classify_jet(product)
        if report == "smooth":
            return
        if report == "node":
            pair = (branches[0], branches[-1])
            fiber = _collide_or_none(self.types, pair) if len(branches) <= 2 else None
            if fiber is not None:
                self.tower.collisions.append(CollisionRecord(pair, model.coords, point, fiber))
                return
        self._blow_up(model, divisors, point)

    # -- blowing up --------------------------------------------------------

    def _blow_up(self, model, divisors, point):
        if self.tower.blow_ups >= BLOWUP_BUDGET:
            raise BlowupBudgetError(
                f"center {self.tower.label}: blow-up budget exceeded at chart "
                f"{model.coords}, germ {format_poly(model.delta())[:120]}"
            )
        exc_name = f"E{self.tower.blow_ups + 1}"
        model_a, model_b = blow_up_point(model, point)
        triple = model_a.history[-1].triple
        ktype = kodaira_classify(triple)
        self.types[exc_name] = ktype
        self.tower.divisors.append(
            DivisorRecord(exc_name, f"exceptional divisor over {self.tower.label}", triple, ktype)
        )
        self.tower.charts += [model_a, model_b]
        shift = dict(zip(model.coords, point))
        centred = {name: germ.shift(shift) for name, germ in divisors.items()}
        germs_a, mults = self._transform_divisors(centred, model_a, exc_name)
        germs_b, _ = self._transform_divisors(centred, model_b, exc_name)
        self.tower.multiplicities.append(mults)
        self._scan_chart(model_a, germs_a, exc_name)
        self._scan_chart(model_b, germs_b, exc_name)

    def _transform_divisors(self, centred, model, exc_name):
        """(the strict transforms in the chart ``model`` of the divisor
        germs ``centred`` at the center just blown up, their multiplicities
        there), in one exponent map per germ."""
        step = model.history[-1]
        exc_var = step.exceptional_coord()
        new, mults = {}, {}
        for name, germ in centred.items():
            strict, m = strict_transform(germ, step.parent_coords, step.coords, step.chart)
            if m:
                mults[name] = m
            if strict.is_constant():
                continue  # divisor not visible in this chart
            new[name] = strict
        new[exc_name] = MultiPoly.variable(exc_var)
        return new, mults

    def _scan_chart(self, model, divisors, exceptional):
        """Find every point of the new exceptional divisor, ``exceptional``,
        needing action.

        Chart A sees all of that divisor but one point, the origin of
        chart B, so chart B is scanned at its origin only.  As at rational
        points, I0 divisors carry no singular fiber and are passed over."""
        step = model.history[-1]
        if step.chart == "B":
            self._process_point(model, divisors, (Fraction(0), Fraction(0)))
            return
        exc_var = step.exceptional_coord()
        restrictions = {
            name: germ.at_zero(exc_var)
            for name, germ in divisors.items()
            if name != exceptional and not self.types[name].is_smooth()
        }
        points = set()
        for name, restriction in restrictions.items():
            # a strict transform restricts to its tangent cone, never to 0
            assert not restriction.is_zero(), f"{name} contains the exceptional divisor"
            if restriction.is_constant():
                continue
            roots, leftover = rational_roots(restriction)
            points.update(root for root, _ in roots)
            if leftover.is_constant():
                continue
            others = [
                r for other, r in restrictions.items() if other != name and not r.is_constant()
            ]
            record = _crossing_record(
                self.types, (name, exceptional), leftover,
                f"over {self.tower.label}", others,
            )
            if not self.types[exceptional].is_smooth():
                self.tower.collisions.append(record)
        for root in sorted(points):
            self._process_point(model, divisors, (Fraction(0), root))


def _collide_or_none(types, pair):
    """Collision fiber of a pair of divisor names, or None off the table."""
    try:
        return collide(types[pair[0]], types[pair[1]])
    except NotOnListError:
        return None


def _crossing_record(types, pair, eliminant, site, others=(), where=""):
    """Collision record for the crossings of the divisors ``pair`` at the
    roots of ``eliminant``, a univariate polynomial with no rational root.

    Only rational points are blown up, so these crossings are certified
    here: transverse (``eliminant`` squarefree), off every other divisor
    (coprime to each restriction in ``others``) and with an on-table pair
    of fiber types; anything else is not analyzable."""
    if not is_squarefree(eliminant):
        raise NotAnalyzableError(
            f"non-rational tangency of {pair[0]} with {pair[1]} {site}: "
            f"eliminant {format_poly(eliminant)} not squarefree"
        )
    if any(not gcd_multivariate(eliminant, other).is_constant() for other in others):
        raise NotAnalyzableError(f"non-rational collision of three divisors {site}")
    fiber = _collide_or_none(types, pair)
    if fiber is None:
        raise NotAnalyzableError(
            f"non-rational off-table collision ({pair[0]}, {pair[1]}) {site}"
        )
    return CollisionRecord(
        pair, None, None, fiber, eliminant.total_degree(), eliminant, where
    )


def _classify_jet(jet):
    """'smooth', 'node', or 'blow' for a curve through the point whose
    2-jet, c10 x + c01 y + c20 x^2 + c11 x y + c02 y^2, is ``jet`` up to a
    positive factor: the curve is singular there when c10 = c01 = 0, with
    a node exactly when the Hessian is nondegenerate, c11^2 != 4 c20 c02,
    and never at a point of multiplicity >= 3, where the whole 2-jet
    vanishes."""
    if jet[1, 0] or jet[0, 1]:
        return "smooth"
    return "node" if jet[1, 1] ** 2 != 4 * jet[2, 0] * jet[0, 2] else "blow"


def _jet_product(f, g):
    """The product of two 2-jets, truncated at degree 2."""
    f00, f10, f01, f20, f11, f02 = map(f.__getitem__, JET_KEYS)
    g00, g10, g01, g20, g11, g02 = map(g.__getitem__, JET_KEYS)
    return dict(zip(JET_KEYS, (
        f00 * g00,
        f00 * g10 + f10 * g00,
        f00 * g01 + f01 * g00,
        f00 * g20 + f10 * g10 + f20 * g00,
        f00 * g11 + f10 * g01 + f01 * g10 + f11 * g00,
        f00 * g02 + f01 * g01 + f02 * g00,
    )))


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
    """One run of ``regularize``: the fibration, the Kodaira type of each
    discriminant component by name and the registry being built, which
    keeps the components' equations."""

    def __init__(self, fib):
        self.fib = fib
        self.mod = BaseModification()
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
        triple = order_triple_along(self.fib.a, self.fib.b, self.fib.discriminant(), equation)
        ktype = kodaira_classify(triple)
        self.mod.equations[name] = equation
        self.types[name] = ktype
        self.mod.component_divisors.append(DivisorRecord(name, origin, triple, ktype))

    def _site(self, point, names, transverse):
        """Keep a transverse crossing with an on-table pair of fiber types
        as a node collision; blow up anything else.

        ``point`` is a rational projective point and ``names`` are the
        discriminant components through it: one for a node of the
        residual curve, two for a crossing.  A node of the residual is
        reported in the chart where it was located, a crossing in
        projective coordinates.  Returns the tower built, if any.
        """
        self.mod.record_singular_point(point)
        index = next(i for i, c in enumerate(point) if c != 0)
        chart = AffineChart.standard(index)
        center = tuple(c / point[index] for i, c in enumerate(point) if i != index)
        pair = (names[0], names[-1])
        fiber = _collide_or_none(self.types, pair) if transverse else None
        if fiber is None:
            tower = self._point_tower(chart, center, names)
            self.mod.towers.append(tower)
            return tower
        if len(names) == 1:
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
        a, b, delta = (
            chart.dehomogenize(p).shift(shift)
            for p in (self.fib.a, self.fib.b, self.fib.discriminant())
        )
        model = LocalModel(chart.coords, a, b, discriminant=delta)
        projective = chart.to_projective(center)
        tower = Tower(f"point ({':'.join(map(str, projective))})", "point", projective)
        germs = {name: chart.dehomogenize(self.mod.equations[name]).shift(shift) for name in names}
        return _TowerDriver(tower, self.types).run(model, germs)

    def _residual_singularities(self):
        """Sites at Sing(residual): nodes, and contact points, which share
        one contact tower.

        Singular points are located on the A0 != 0 chart after certifying
        that the singular system has no solution on the line A0 = 0 (its
        gradient restrictions share no common zero there).  A rational
        point is a node by the 2-jet rule of the tower driver; every other
        singular point, rational or not, must be a transverse contact of
        the section divisors.
        """
        residual = self.mod.equations["Q~"]
        _certify_no_singularities_at_infinity(residual)
        chart = AffineChart.standard(0)
        curve = chart.dehomogenize(residual)
        locus = rational_singular_points(curve, chart)
        # the section divisors, lines stripped, as germs on the same chart
        sections = [
            chart.dehomogenize(strip_coordinate_lines(s)[1]) for s in (self.fib.a, self.fib.b)
        ]
        contacts = []
        for point in locus.points:
            if _classify_jet(two_jet_at(curve, chart.coords, point)) == "node":
                self._site(chart.to_projective(point), ("Q~",), transverse=True)
                continue
            self.mod.record_singular_point(chart.to_projective(point))
            _verify_contact_point(self.fib, sections, chart, point)
            contacts.append(point)
        cluster = locus.eliminant_squarefree
        if contacts or cluster is not None:
            count = _certify_contacts(sections, chart, contacts, cluster)
            self.mod.towers.append(contact_tower("contact cluster", self.types, count))
        if cluster is not None:
            self.mod.notes.append("contact-point cluster eliminant: " + format_poly(cluster))

    def _line_curve_crossings(self, var, line_name):
        """Sites where the line ``var`` = 0 meets the residual curve."""
        restriction = self.mod.equations["Q~"].at_zero(var)
        # every coordinate line was stripped off Q~, and ``radical`` keeps it so
        assert not restriction.is_zero(), f"{var} divides the residual curve"
        names = (line_name, "Q~")
        # the restriction is homogeneous in the two other coordinates;
        # vertex points show up as powers of those coordinates
        first, second = (v for v in PROJECTIVE_VARS if v != var)
        orders, restriction = strip_coordinate_lines(restriction)
        for other, k in orders.items():
            vertex = tuple(Fraction(v not in (var, other)) for v in PROJECTIVE_VARS)
            self._line_site(vertex, names, k)
        if restriction.is_constant():
            return
        roots, leftover = rational_roots(restriction.substitute({first: Fraction(1)}))
        for root, mult in roots:
            point = {var: Fraction(0), first: Fraction(1), second: root}
            self._line_site(tuple(point[v] for v in PROJECTIVE_VARS), names, mult)
        if not leftover.is_constant():
            self.mod.node_collisions.append(
                _crossing_record(
                    self.types, names, leftover, f"on the line {var} = 0",
                    where="crossing on the discriminant",
                )
            )

    def _line_site(self, point, names, order):
        """The site where the line ``names[0]`` meets ``Q~`` with the
        intersection number ``order``, the order of the restriction there;
        a tower built over the point must have the same contact order."""
        tower = self._site(point, names, transverse=order == 1)
        if tower is not None and tower.contact_order(*names) != order:
            raise NotAnalyzableError(
                f"contact order of {names[0]} and {names[1]} over {tower.label}: "
                f"{tower.contact_order(*names)} in the tower, {order} on the line"
            )


def _certify_no_singularities_at_infinity(residual):
    """Prove that the residual curve is smooth along the line A0 = 0."""
    g = gcd_all(residual.derivative(var).at_zero("A0") for var in PROJECTIVE_VARS)
    # by Euler's identity d Q = sum A_i dQ/dA_i, g divides Q at A0 = 0, which
    # is not zero, A0 being stripped: so g is not zero either, and its zeros
    # are the candidate singular points
    assert not g.is_zero(), "A0 divides the residual curve"
    if not g.is_constant():
        raise NotAnalyzableError(
            "residual curve may be singular on the line A0 = 0 "
            f"(common gradient factor {format_poly(g)}); not certified"
        )


def _verify_contact_point(fib, sections, chart, point):
    """A singular point of the residual that is not a node must be a
    transverse contact of the sections a, b of ``fib`` (a nonzero Jacobian:
    the discriminant is locally the cusp of the contact tower) and a common
    zero of their line-stripped germs ``sections`` on ``chart``.  Values
    and gradients are read off 2-jets, which scale them by positive
    factors and so keep every zero."""
    ja, jb, *stripped = (
        two_jet_at(f, chart.coords, point)
        for f in (chart.dehomogenize(fib.a), chart.dehomogenize(fib.b), *sections)
    )
    jacobian = ja[1, 0] * jb[0, 1] - ja[0, 1] * jb[1, 0]
    if any(jet[0, 0] for jet in stripped) or jacobian == 0:
        raise NotAnalyzableError(
            f"singular point ({':'.join(map(str, chart.to_projective(point)))}) of the "
            "residual curve is neither a node nor a transverse contact of the section "
            "divisors; the local-coordinate device does not apply"
        )


def _certify_contacts(sections, chart, contacts, cluster):
    """The singular points of the residual that are not nodes must be the
    transverse contacts of the section divisors, given as germs (fa, fb)
    on ``chart``: their eliminant must be, up to a unit, ``cluster`` (the
    squarefree eliminant of the non-rational points in the second
    coordinate, or None) times y - y_i over the rational points (x_i, y_i)
    in ``contacts``, simple zeros of fa and fb that may share y_i but no
    root with ``cluster``.  Returns the number of contact points."""
    fa, fb = sections
    x, y = chart.coords
    if fa.degree_in(x) < 1 or fb.degree_in(x) < 1:
        raise NotAnalyzableError("section divisors do not eliminate; cannot certify contacts")
    contact = resultant(fa, fb, x)
    if contact.is_zero():
        raise NotAnalyzableError("section divisors share a component")
    expected = MultiPoly.const(1) if cluster is None else cluster
    for _, root in contacts:
        if cluster is not None and cluster.evaluate({y: root}) == 0:
            raise NotAnalyzableError(
                f"a rational contact point shares its {y}-coordinate {root} with a "
                "singular point of the residual that is not rational; transversality "
                "of the contact points is not certified"
            )
        expected = expected * (MultiPoly.variable(y) - MultiPoly.const(root))
    if not equal_up_to_unit(contact, expected):
        raise NotAnalyzableError(
            "singular points of the residual that are not nodes do not match the "
            "transverse contact locus of the section divisors: "
            f"{format_poly(expected)} vs {format_poly(contact)}"
        )
    return contact.total_degree()


def contact_tower(label, types, count=1) -> Tower:
    """Tower over ``count`` transverse contacts of the section divisors.

    There the sections themselves are local coordinates, so the germ is
    exactly (a, b) = (s1, s2) with the cuspidal discriminant
    s1^3 - 27 s2^2; the tower is independent of the contact point.
    ``types`` gives the Kodaira type of the residual curve "Q~".  The
    tower is built once per type in a process; each call gets its own
    lists and records, named after ``label``.
    """
    cached = _contact_tower(types["Q~"])
    origin = f"exceptional divisor over {label}"
    return Tower(
        label, "contact", count=count,
        divisors=[DivisorRecord(d.name, origin, d.triple, d.kodaira) for d in cached.divisors],
        collisions=[c.at(c.pair, c.where) for c in cached.collisions],
        charts=cached.charts, multiplicities=[dict(m) for m in cached.multiplicities],
    )


@functools.cache
def _contact_tower(residual_type: KodairaType) -> Tower:
    model = LocalModel(("s1", "s2"), MultiPoly.variable("s1"), MultiPoly.variable("s2"))
    driver = _TowerDriver(Tower("contact", "contact"), {"Q~": residual_type})
    return driver.run(model, {"Q~": model.delta()})
