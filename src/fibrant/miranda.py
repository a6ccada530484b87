"""The end-to-end analysis of the Lagrange-top fibration family.

``analyze_lagrange_family`` regularizes the base (``blowup``), lists every
divisor and every collision fiber over a node of the reduced discriminant
(classified by Miranda's table in ``weierstrass``), one copy per point of
a replicated tower, adds the total-space singularities and the monodromy
presentation, and returns them as a ``ClassificationReport``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .blowup import regularize
from .lagrange import build_global_sections
from .monodromy import Presentation, build_presentation
from .weierstrass import check_genericity


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
    notes: list = field(default_factory=list)
    presentation: Presentation = field(init=False)

    def __post_init__(self):
        self.presentation = build_presentation(self)

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
            "collisions": [_collision_json(c) for c in self.collisions],
            "total_space_singularities": [
                s.to_json() for s in self.total_space_singularities
            ],
            "monodromy": self.presentation.to_json(),
            "notes": list(self.notes),
        }


def _collision_json(c) -> dict:
    out = {
        "divisor_pair": list(c.pair),
        "where": c.where,
        "dual_graph": c.fiber.dual_graph.to_json(),
        "label": c.fiber.label,
        "kodaira_label": c.fiber.kodaira_label,
        "contracted": c.fiber.contracted,
    }
    if c.point is not None:
        out["point"] = [str(x) for x in c.point]
    return out


def analyze_lagrange_family(alpha) -> ClassificationReport:
    """Classify every singular fiber of the Lagrange-top fibration.

    Builds the global sections for the given parameter, decomposes the
    discriminant, regularizes the base by blow-ups, classifies all
    generic and collision fibers, lists the total-space singularities and
    attaches the monodromy presentation.
    """
    alpha = check_genericity(Fraction(alpha))
    fib = build_global_sections(alpha)
    mod = regularize(fib)

    divisors = list(mod.component_divisors)
    collisions = []
    node_count = 0
    for rec in mod.node_collisions:
        if rec.pair == ("Q~", "Q~"):
            node_count += rec.count
        collisions.extend([rec] * rec.count)

    cusp_count = 0
    for tower in mod.towers:
        if tower.kind == "contact":
            sites = [f"p{i + 1}" for i in range(cusp_count, cusp_count + tower.count)]
            cusp_count += tower.count
        else:
            sites = ["(" + ":".join(map(str, tower.point)) + ")"] * tower.count
        for site in sites:
            tower_divisors, tower_collisions = tower.over(site)
            divisors.extend(tower_divisors)
            collisions.extend(tower_collisions)

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
        notes=notes,
    )
