"""Collision table for fiber types over nodes of the reduced discriminant,
and the end-to-end analysis pipeline for the Lagrange-top fibration family.

Over a node where two discriminant components meet, the fiber is not of
Kodaira type in general; it is classified by Miranda's collision table
(rows I+I, I+I* for even and odd multiplicative index, II+IV, II+I0*,
II+IV*, IV+I0*, III+I0*) as an explicit multiplicity-labeled dual graph,
usually a contraction of a Kodaira fiber.

Index bookkeeping for the I_{M1} + I_{M2}* rows: the drawn fiber has
M2 + floor(M1/2) + 1 components of multiplicity two, i.e. the dual graph
of the star type with index M2 + floor(M1/2) when M1 is even; that index
is what the pipeline reports.  The table's "corresponding Kodaira type"
column (the contraction source I_{M1+M2}*) is kept alongside.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .blowup import BaseModification, DEFAULT_BLOWUP_BUDGET, regularize
from .monodromy import Presentation, build_presentation
from .weierstrass import (
    DualGraph,
    KodairaType,
    check_genericity,
)


class NotOnListError(ValueError):
    """Colliding pair outside the collision table: blow up further."""


@dataclass(frozen=True)
class MirandaFiber:
    """The fiber over a node where two discriminant components collide."""

    pair: tuple                  # (KodairaType, KodairaType), sorted
    dual_graph: DualGraph
    kodaira_label: str           # contraction source (table column)
    label: str                   # pipeline-facing label
    contracted: str              # description of the contracted components

    def component_count(self) -> int:
        return self.dual_graph.component_count()

    def to_json(self):
        return {
            "pair": [k.tag for k in self.pair],
            "dual_graph": self.dual_graph.to_json(),
            "kodaira_label": self.kodaira_label,
            "label": self.label,
            "contracted": self.contracted,
        }


def _pair_key(k1: KodairaType, k2: KodairaType):
    return tuple(sorted((k1.tag, k2.tag)))


def collide(k1: KodairaType, k2: KodairaType) -> MirandaFiber:
    """Classify the fiber over a node where two component types meet.

    Symmetric in the two types; a smooth branch (I0) returns the other
    type unchanged.  Pairs outside the table raise NotOnListError, which
    signals the blow-up driver to keep modifying the base.
    """
    if k1.is_smooth():
        return _smooth_collision(k2)
    if k2.is_smooth():
        return _smooth_collision(k1)
    pair = tuple(sorted((k1, k2), key=lambda k: k.tag))
    n1, n2 = k1.multiplicative_index(), k2.multiplicative_index()
    s1, s2 = k1.star_index(), k2.star_index()
    if n1 is not None and n2 is not None:
        total = n1 + n2
        graph = DualGraph.cycle(*([1] * total))
        return MirandaFiber(pair, graph, f"I{total}", f"I{total}", "none")
    if n1 is not None and s2 is not None:
        return _multiplicative_star(pair, n1, s2)
    if n2 is not None and s1 is not None:
        return _multiplicative_star(pair, n2, s1)
    tags = _pair_key(k1, k2)
    if tags == ("I0*", "II"):
        return MirandaFiber(
            pair,
            DualGraph.chain(1, 2, 3),
            "IV*",
            "IV*",
            "two of the three multiplicity-(1,2) arms",
        )
    if tags == ("II", "IV"):
        return MirandaFiber(
            pair,
            DualGraph.chain(1, 2),
            "I0*",
            "I0*",
            "3 components with multiplicity 1",
        )
    if tags == ("II", "IV*"):
        return MirandaFiber(
            pair,
            DualGraph.chain(1, 2, 3, 4, 2),
            "II*",
            "II*",
            "the multiplicity-(3,4,5,6) chain segment",
        )
    if tags == ("I0*", "IV"):
        return MirandaFiber(
            pair,
            DualGraph.chain(1, 2, 4, 2),
            "II*",
            "II*",
            "the multiplicity-(3,3,4,5,6) components",
        )
    if tags == ("I0*", "III"):
        return MirandaFiber(
            pair,
            DualGraph.chain(1, 2, 3, 2, 1),
            "III*",
            "III*",
            "the multiplicity-(2,3,4) components",
        )
    raise NotOnListError(f"collision {tags} is not on the list")


def _smooth_collision(k: KodairaType) -> MirandaFiber:
    return MirandaFiber(
        (KodairaType("I0"), k), k.dual_graph(), k.tag, k.tag, "none (smooth branch)"
    )


def _multiplicative_star(pair, m1: int, m2: int) -> MirandaFiber:
    source = f"I{m1 + m2}*"
    if m1 % 2 == 0:
        spine = (2,) * (m2 + m1 // 2 + 1)
        graph = DualGraph.star_chain(spine, (1, 1), (1, 1))
        label = f"I{m2 + m1 // 2}*"
        contracted = f"{m1 // 2} components with multiplicity 2"
    else:
        spine = (2,) * (m2 + (m1 - 1) // 2 + 1)
        graph = DualGraph.star_chain(spine, (1, 1), ())
        label = f"{source} (contracted)"
        contracted = (
            f"{(m1 - 1) // 2} components with multiplicity 2 and "
            "2 components with multiplicity 1"
        )
    return MirandaFiber(pair, graph, source, label, contracted)


# -- pipeline report -------------------------------------------------------------


@dataclass
class ReportDivisor:
    name: str
    origin: str
    triple: object
    kodaira: KodairaType

    def to_json(self):
        return {
            "name": self.name,
            "origin": self.origin,
            "triple": self.triple.to_json(),
            "kodaira": self.kodaira.to_json(),
        }


@dataclass
class ReportCollision:
    pair: tuple
    where: str
    fiber: MirandaFiber
    point: tuple | None = None

    def to_json(self):
        out = {
            "divisor_pair": list(self.pair),
            "where": self.where,
            "dual_graph": self.fiber.dual_graph.to_json(),
            "label": self.fiber.label,
            "kodaira_label": self.fiber.kodaira_label,
            "contracted": self.fiber.contracted,
        }
        if self.point is not None:
            out["point"] = [str(c) for c in self.point]
        return out


@dataclass
class ClassificationReport:
    """Full inventory of a fibration analysis."""

    alpha: Fraction
    divisors: list
    collisions: list
    total_space_singularities: list
    node_count: int
    cusp_count: int
    quintic_degree: int
    modification: BaseModification
    notes: list = field(default_factory=list)
    presentation: Presentation = field(init=False)

    def __post_init__(self):
        self.presentation = build_presentation(self)

    def divisor(self, name: str) -> ReportDivisor:
        for d in self.divisors:
            if d.name == name:
                return d
        raise KeyError(name)

    def structure(self):
        """Parameter-independent shape of the report, for equality checks."""
        divisors = sorted(
            (d.name, d.kodaira.tag, tuple(str(v) for v in d.triple.as_tuple()))
            for d in self.divisors
        )
        collisions = sorted(
            (tuple(sorted(c.pair)), c.fiber.label, c.fiber.dual_graph.canonical())
            for c in self.collisions
        )
        sing = sorted(s.kind() for s in self.total_space_singularities)
        return (divisors, collisions, tuple(sing), self.node_count, self.cusp_count)

    def to_json(self):
        return {
            "alpha": str(self.alpha),
            "divisors": [d.to_json() for d in self.divisors],
            "collisions": [c.to_json() for c in self.collisions],
            "total_space_singularities": [
                s.to_json() for s in self.total_space_singularities
            ],
            "monodromy": self.presentation.to_json(),
            "notes": list(self.notes),
        }


def analyze_lagrange_family(
    alpha, budget: int = DEFAULT_BLOWUP_BUDGET
) -> ClassificationReport:
    """Classify every singular fiber of the Lagrange-top fibration.

    Builds the global sections for the given parameter, decomposes the
    discriminant, regularizes the base by blow-ups, classifies all
    generic and collision fibers, lists the total-space singularities and
    attaches the monodromy presentation.
    """
    from .lagrange import build_global_sections

    alpha = check_genericity(Fraction(alpha))
    fib = build_global_sections(alpha)
    mod = regularize(fib, budget=budget)

    divisors = []
    for rec in mod.component_divisors:
        divisors.append(ReportDivisor(rec.name, rec.origin, rec.triple, rec.kodaira))

    collisions = []
    node_count = 0
    for rec in mod.node_collisions:
        for _ in range(rec.count):
            collisions.append(
                ReportCollision(
                    rec.pair,
                    "node of the residual curve"
                    if rec.pair == ("Q~", "Q~")
                    else "crossing on the discriminant",
                    rec.fiber,
                    rec.point,
                )
            )
        if rec.pair == ("Q~", "Q~"):
            node_count += rec.count

    cusp_count = 0
    for tower in mod.towers:
        if tower.label.startswith("contact"):
            labels = [f"p{i + 1}" for i in range(cusp_count, cusp_count + tower.count)]
            cusp_count += tower.count
        else:
            labels = [tower.label.replace("point ", "")] * tower.count
        for label in labels:
            for rec in tower.divisors:
                divisors.append(
                    ReportDivisor(
                        f"{rec.name}({label})",
                        rec.origin.replace(tower.label, label),
                        rec.triple,
                        rec.kodaira,
                    )
                )
            for rec in tower.collisions:
                qualified = tuple(
                    name if name in ("Q~", "L~") or name.startswith("L~(")
                    else f"{name}({label})"
                    for name in rec.pair
                )
                collisions.append(
                    ReportCollision(qualified, f"over {label}", rec.fiber, rec.point)
                )

    sing = fib.total_space_singularities(mod.singular_points)

    notes = list(mod.notes)
    notes.append(
        "contact-cluster towers are computed once on the germ (a, b) = (s1, s2) "
        "and replicated per contact point; the tower is independent of the point"
    )

    return ClassificationReport(
        alpha=alpha,
        divisors=divisors,
        collisions=collisions,
        total_space_singularities=sing,
        node_count=node_count,
        cusp_count=cusp_count,
        quintic_degree=mod.residual_degree,
        modification=mod,
        notes=notes,
    )
