"""Command-line front end: exact rational inputs, byte-stable reports.

All rationals cross the boundary as strings like "3/2"; nothing is ever
parsed as a float.  Exit codes: 0 success, 2 rejected input (including
parameters on the excluded degeneracy locus), 1 an input the analysis
cannot certify.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

from . import __version__
from .blowup import contact_tower, regularize
from .lagrange import (
    TopParams,
    build_global_sections,
    casimirs,
    directional_derivative,
    first_integrals,
    integral_residuals,
    lie_poisson_bracket,
    quotient_cubic_residual,
    sample_fiber_point,
    shifted_weierstrass_residual,
)
from .miranda import analyze_lagrange_family
from .monodromy import (
    STANDARD_CUSP_PARTNER,
    T,
    normalize_pair,
    solve_cusp_relation,
    solve_node_relation,
)
from .poly import format_poly, strip_coordinate_lines
from .weierstrass import (
    GenericityError,
    KodairaType,
    NotAnalyzableError,
    OrderTriple,
    collide,
    kodaira_classify,
    reduce_triple_mod,
)


class InputError(ValueError):
    """A command-line value outside the documented domain (exit 2)."""


# Options that take an exact rational, which may be negative.
_RATIONAL_OPTIONS = ("--alpha", "--m", "--h3", "--h4", "--a")


def _attach_negative_values(argv: list) -> list:
    """Join a rational option and a negative value: ``--m -1/2`` -> ``--m=-1/2``.

    argparse reads any token that starts with "-" as an option unless it
    looks like a negative integer or decimal, so "-1/2" would be taken
    for an option and the option would lack its value.
    """
    out = []
    for token in argv:
        if out and out[-1] in _RATIONAL_OPTIONS and token[:1] == "-" and token[1:2].isdigit():
            out[-1] += "=" + token
        else:
            out.append(token)
    return out


def _checked(build, *values):
    """``build(*values)`` for values given by the user; a ValueError is rejected input."""
    try:
        return build(*values)
    except ValueError as exc:
        raise InputError(str(exc)) from exc


def _rational(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise argparse.ArgumentTypeError(f"not an exact rational: {text!r}") from exc


def _emit(payload: dict):
    payload = {"version": __version__, **payload}
    _validate_json(payload)
    print(json.dumps(payload, sort_keys=True, indent=2))


def _validate_json(obj):
    """Reject anything that would not serialize deterministically."""
    if isinstance(obj, dict):
        for key, value in obj.items():
            if not isinstance(key, str):
                raise TypeError(f"non-string JSON key {key!r}")
            _validate_json(value)
    elif isinstance(obj, (list, tuple)):
        for value in obj:
            _validate_json(value)
    elif isinstance(obj, float):
        raise TypeError("floats are not emitted; use exact rational strings")
    elif obj is not None and not isinstance(obj, (str, int, bool)):
        raise TypeError(f"non-JSON value {obj!r}")


# -- subcommands -------------------------------------------------------------


def cmd_analyze(args) -> int:
    report = analyze_lagrange_family(args.alpha)
    if args.format == "json":
        _emit({"report": report.to_json()})
        return 0
    print(f"# fibrant {__version__}")
    print(f"Fibration analysis at alpha = {args.alpha}\n")
    print("| divisor | order triple | fiber type |")
    print("|---------|--------------|------------|")
    for d in report.divisors:
        triple = ",".join(str(v) for v in d.triple.to_json())
        print(f"| {d.name} | ({triple}) | {d.kodaira.tag} |")
    print("\n| collision | fiber | dual graph |")
    print("|-----------|-------|------------|")
    for c in report.collisions:
        graph = "-".join(str(m) for m in c.fiber.dual_graph.multiplicities())
        print(f"| {c.pair[0]} + {c.pair[1]} | {c.fiber.label} | {graph} |")
    print("\nTotal-space singularities:")
    for s in report.total_space_singularities:
        loc = s.base_curve if s.base_curve else "(" + " : ".join(str(c) for c in s.base_point) + ")"
        fiber = "(" + " : ".join(str(c) for c in s.fiber_point) + ")"
        print(f"  - {s.kind()}: fiber point {fiber} over {loc}")
    print(
        f"\nMonodromy: {len(report.presentation.generators)} generators, "
        f"{report.node_count} commutation and {report.cusp_count} braid relations."
    )
    return 0


def cmd_classify_triple(args) -> int:
    triple = _checked(OrderTriple, args.L, args.K, args.N)
    if not triple.is_consistent():
        raise InputError(
            f"order triple {triple.as_tuple()} is inconsistent: "
            "N must equal min(3L, 2K), or be at least 3L when 3L = 2K"
        )
    reduced = reduce_triple_mod(triple)
    ktype = kodaira_classify(reduced)
    _emit(
        {
            "triple": triple.to_json(),
            "reduced": reduced.to_json(),
            "kodaira": ktype.to_json(),
        }
    )
    return 0


def cmd_collide(args) -> int:
    fiber = collide(_checked(KodairaType, args.type1), _checked(KodairaType, args.type2))
    _emit({"collision": fiber.to_json()})
    return 0


def cmd_blowup_demo(args) -> int:
    if args.site == "cusp":
        tower = contact_tower("cusp", {"Q~": KodairaType("I1")})
    else:
        mod = regularize(build_global_sections(args.alpha))
        target = (0, 1, 0) if args.site == "p010" else (0, 0, 1)
        tower = next(t for t in mod.towers if t.point == target)
    final_step = max(len(ch.history) for ch in tower.charts)
    charts = [ch for ch in tower.charts if len(ch.history) == final_step]
    payload = {
        "site": args.site,
        "blow_ups": tower.blow_ups,
        "divisors": [d.to_json() for d in tower.divisors],
        "collisions": [c.to_json() for c in tower.collisions],
        "final_charts": [
            {
                "coords": list(ch.coords),
                "a": format_poly(ch.a),
                "b": format_poly(ch.b),
                "delta_hat": format_poly(ch.delta()),
                "delta_hat_factors": _factor_display(ch),
                "fiber_rescalings": [[c, t] for c, t in ch.t_record],
            }
            for ch in charts
        ],
    }
    _emit({"demo": payload})
    return 0


def _factor_display(model):
    orders, delta = strip_coordinate_lines(model.delta())
    factors = [[coord, orders[coord]] for coord in model.coords if coord in orders]
    if not delta.is_constant() or delta.constant_value() != 1:
        factors.append([format_poly(delta), 1])
    return factors


def cmd_bracket_check(args) -> int:
    params = _checked(TopParams, args.m)
    integrals = first_integrals(params)
    names = ["H1", "H2", "H3", "H4"]
    brackets = {}
    for i in range(4):
        for j in range(i + 1, 4):
            val = lie_poisson_bracket(integrals[i], integrals[j])
            brackets[f"{{{names[i]},{names[j]}}}"] = format_poly(val)
    casimir_ok = all(
        lie_poisson_bracket(c, h).is_zero() for c in casimirs() for h in integrals
    )
    conserved = {
        f"d{name}/dt": format_poly(directional_derivative(h, params))
        for name, h in zip(names, integrals)
    }
    _emit(
        {
            "m": str(args.m),
            "pairwise_brackets": brackets,
            "all_zero": all(v == "0" for v in brackets.values()),
            "casimirs_central": casimir_ok,
            "conservation": conserved,
        }
    )
    return 0


def cmd_sample_fiber(args) -> int:
    _checked(TopParams, args.m, args.a)
    if args.count < 0:
        raise InputError(f"--count must be non-negative, got {args.count}")
    points = []
    for i in range(args.count):
        point = sample_fiber_point(
            args.h3, args.h4, args.a, args.m, seed=args.seed + i
        )
        gamma, omega = point
        residual = abs(quotient_cubic_residual(point, args.h3, args.h4, args.a, args.m))
        shifted = abs(
            shifted_weierstrass_residual(point, args.h3, args.h4, args.a, args.m)
        )
        worst = max(abs(r) for r in integral_residuals(point, args.h3, args.h4, args.a, args.m))
        points.append(
            {
                "gamma": [[repr(z.real), repr(z.imag)] for z in gamma],
                "omega": [[repr(z.real), repr(z.imag)] for z in omega],
                "integral_residual": repr(worst),
                "cubic_residual": repr(residual),
                "shifted_weierstrass_residual": repr(shifted),
            }
        )
    _emit(
        {
            "parameters": {
                "h3": str(args.h3),
                "h4": str(args.h4),
                "a": str(args.a),
                "m": str(args.m),
            },
            "seed": args.seed,
            "points": points,
        }
    )
    return 0


def cmd_monodromy(args) -> int:
    if args.bound < 0:
        raise InputError(f"--bound must be non-negative, got {args.bound}")
    node = solve_node_relation(T, args.bound)
    cusp = solve_cusp_relation(T, args.bound)
    normal_forms = sorted({str(normalize_pair(b).to_json()) for b in cusp})
    b0 = STANDARD_CUSP_PARTNER
    _emit(
        {
            "bound": args.bound,
            "node_solutions": [m.to_json() for m in node],
            "cusp_solutions": [m.to_json() for m in sorted(cusp, key=lambda m: m.to_json())],
            "cusp_normal_forms": normal_forms,
            "braid_certificate": (T * b0 * T) == (b0 * T * b0),
        }
    )
    return 0


# -- entry point --------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fibrant",
        description="Exact singular-fiber analysis of plane Weierstrass fibrations",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="classify all singular fibers of the family")
    p.add_argument("--alpha", type=_rational, required=True)
    p.add_argument("--format", choices=("json", "md"), default="json")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("classify-triple", help="Kodaira type of an order triple")
    p.add_argument("L", type=int)
    p.add_argument("K", type=int)
    p.add_argument("N", type=int)
    p.set_defaults(func=cmd_classify_triple)

    p = sub.add_parser("collide", help="collision fiber of two Kodaira types")
    p.add_argument("type1")
    p.add_argument("type2")
    p.set_defaults(func=cmd_collide)

    p = sub.add_parser("blowup-demo", help="show a blow-up tower's final charts")
    p.add_argument("site", choices=("cusp", "p010", "p001"))
    p.add_argument("--alpha", type=_rational, default=Fraction(1))
    p.set_defaults(func=cmd_blowup_demo)

    p = sub.add_parser("bracket-check", help="verify the commuting integrals")
    p.add_argument("--m", type=_rational, required=True)
    p.set_defaults(func=cmd_bracket_check)

    p = sub.add_parser("sample-fiber", help="sample points of a level set")
    p.add_argument("--h3", type=_rational, required=True)
    p.add_argument("--h4", type=_rational, required=True)
    p.add_argument("--a", type=_rational, required=True)
    p.add_argument("--m", type=_rational, required=True)
    p.add_argument("-n", "--count", type=int, default=1)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_sample_fiber)

    p = sub.add_parser("monodromy", help="solve the node and braid relations")
    p.add_argument("--bound", type=int, default=25)
    p.set_defaults(func=cmd_monodromy)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(_attach_negative_values(sys.argv[1:] if argv is None else argv))
    try:
        return args.func(args)
    except (GenericityError, InputError) as exc:
        print(f"rejected: {exc}", file=sys.stderr)
        return 2
    except (NotAnalyzableError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
