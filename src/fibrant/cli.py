"""Command-line front end: exact rational inputs, byte-stable reports.

All rationals cross the boundary as strings like "3/2"; nothing is ever
parsed as a float.  Exit codes: 0 success, 2 rejected input (including
parameters on the excluded degeneracy locus), 1 an input the analysis
cannot certify.
"""

from __future__ import annotations

import argparse
import functools
import sys
from fractions import Fraction
from json.encoder import encode_basestring_ascii
from types import GeneratorType

from . import __version__
from .blowup import contact_tower, regularize
from .lagrange import (
    E3_STRUCTURE,
    Level,
    SamplingError,
    TopParams,
    build_global_sections,
    first_integrals,
    integral_residuals,
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
from .poly import MultiPoly, format_poly, poisson_brackets, strip_coordinate_lines
from .record import JsonDict
from .weierstrass import (
    GenericityError,
    KodairaType,
    NotAnalyzableError,
    OrderTriple,
    collide,
    kodaira_classify,
    quote_tag,
    reduce_triple_mod,
)


class InputError(ValueError):
    """A command-line value outside the documented domain (exit 2)."""


# The most dual-graph components ``collide`` and ``classify-triple`` build:
# a Kodaira type I_n has n components, so a larger index is rejected.
MAX_COMPONENTS = 10_000

# The largest ``monodromy --bound``: the solvers walk about (2B)^2 matrices
# with entries bounded by B, so a larger bound is rejected.
MAX_BOUND = 1000

# The largest ``sample-fiber --count``: 10 000 points take about 1 s and
# print 7 MB (2-vCPU Xeon), so a larger count is rejected.
MAX_SAMPLES = 10_000

# The most digits of the numerator or the denominator of ``--alpha`` for
# ``analyze`` and ``blowup-demo``: a fresh ``analyze`` costs about d^2,
# 1.8 s at 300 digits and 4.2 s at 500 (2-vCPU Xeon), so a taller alpha
# is rejected.
MAX_ALPHA_DIGITS = 300

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


def _check_components(types):
    """Reject types with over ``MAX_COMPONENTS`` components in all, which bound their collision."""
    count = sum(k.component_count() for k in types)
    if count > MAX_COMPONENTS:
        tags = " + ".join(quote_tag(k.tag) for k in types)
        # count // 10: a sum of two indices may have one digit more than str() converts
        digits = len(str(count // 10)) + 1
        size = count if digits <= len(str(MAX_COMPONENTS)) else f"a {digits}-digit number of"
        raise InputError(f"{tags} has {size} dual-graph components, over the cap {MAX_COMPONENTS}")


def _check_height(alpha: Fraction):
    """Reject an alpha whose numerator or denominator has over ``MAX_ALPHA_DIGITS`` digits."""
    for part, value in (("numerator", alpha.numerator), ("denominator", alpha.denominator)):
        digits = len(str(abs(value)))
        if digits > MAX_ALPHA_DIGITS:
            raise InputError(
                f"--alpha has a {part} of {digits} digits, over the cap {MAX_ALPHA_DIGITS}"
            )


def _rational(text: str) -> Fraction:
    """``Fraction(text)``, refused before it is built when its numerator or
    denominator would have more digits than CPython converts from a string
    by default: an exponent (``1e99999999``) would make it a power of ten
    of that size first."""
    limit = sys.int_info.default_max_str_digits
    mantissa, _, exponent = text.lower().partition("e")
    shift = exponent.strip().lstrip("+-").replace("_", "").lstrip("0") or "0"
    try:
        if len(shift) > len(str(limit)) or sum(map(str.isdigit, mantissa)) + int(shift) > limit:
            raise argparse.ArgumentTypeError(f"over {limit} digits: {text[:20]!r}")
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise argparse.ArgumentTypeError(f"not an exact rational: {quote_tag(text)!r}") from exc


def _integer(text: str) -> int:
    """``int(text)``, refused with a message that quotes at most 20
    characters of ``text``: not an integer, or one of more digits than
    CPython converts from a string by default."""
    try:
        return int(text)
    except ValueError:
        limit = sys.int_info.default_max_str_digits
        raise argparse.ArgumentTypeError(
            f"not an integer of at most {limit} digits: {quote_tag(text)!r}"
        ) from None


def _emit(payload: dict):
    print(_write_json({"version": __version__, **payload}))


def _write_json(obj, indent="\n") -> str:
    """``json.dumps(obj, sort_keys=True, indent=2)``, for values that
    serialize deterministically: anything else (a float, a non-string
    key, a value of any other type) raises TypeError.

    A shared ``JsonDict`` is rendered once per indent and its text kept
    with it.  A generator is written as a list, each item rendered as it
    is drawn, so the items need not all be held at once.  Containers are
    tested first, since leaves of type str and int are rendered in place;
    a ``bool`` leaf, among others, recurses."""
    inner = indent + "  "
    if isinstance(obj, dict):
        if obj.__class__ is JsonDict:
            text = obj.texts.get(indent)
            if text is None:
                text = obj.texts[indent] = _write_json(dict(obj), indent)
            return text
        for key in obj:
            if not isinstance(key, str):
                raise TypeError(f"non-string JSON key {key!r}")
        items = [
            encode_basestring_ascii(k) + ": " + (
                encode_basestring_ascii(v) if (t := type(v)) is str
                else int.__repr__(v) if t is int
                else _write_json(v, inner)
            )
            for k, v in sorted(obj.items())  # keys are distinct, so values are never compared
        ]
        return f"{{{inner}{(',' + inner).join(items)}{indent}}}" if items else "{}"
    if isinstance(obj, (list, tuple, GeneratorType)):
        items = [
            encode_basestring_ascii(v) if (t := type(v)) is str
            else int.__repr__(v) if t is int
            else _write_json(v, inner)
            for v in obj
        ]
        return f"[{inner}{(',' + inner).join(items)}{indent}]" if items else "[]"
    if isinstance(obj, str):
        return encode_basestring_ascii(obj)
    if obj is None or isinstance(obj, bool):
        return "null" if obj is None else "true" if obj else "false"
    if isinstance(obj, int):
        return int.__repr__(obj)
    if isinstance(obj, float):
        raise TypeError("floats are not emitted; use exact rational strings")
    raise TypeError(f"non-JSON value {obj!r}")


# -- subcommands -------------------------------------------------------------


def cmd_analyze(args) -> int:
    _check_height(args.alpha)
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
            f"order triple {quote_tag(str(triple.as_tuple()))} is inconsistent: "
            "N must equal min(3L, 2K), or be at least 3L when 3L = 2K"
        )
    reduced = reduce_triple_mod(triple)
    ktype = kodaira_classify(reduced)
    _check_components([ktype])
    _emit(
        {
            "triple": triple.to_json(),
            "reduced": reduced.to_json(),
            "kodaira": ktype.to_json(),
        }
    )
    return 0


def cmd_collide(args) -> int:
    types = [_checked(KodairaType, tag) for tag in (args.type1, args.type2)]
    _check_components(types)
    _emit({"collision": collide(*types).to_json()})
    return 0


def cmd_blowup_demo(args) -> int:
    if args.site == "cusp":
        tower = contact_tower("cusp", {"Q~": KodairaType("I1")})
    else:
        _check_height(args.alpha)
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
    table = poisson_brackets(first_integrals(params), E3_STRUCTURE)
    names = ["H1", "H2", "H3", "H4"]
    brackets = {f"{{{names[i]},{names[j]}}}": format_poly(val) for (i, j), val in table.items()}
    # H1 and H2 are the Casimirs, so they are central exactly when every
    # bracket they enter is zero ({H, H} = 0 by antisymmetry)
    casimir_ok = all(v == "0" for k, v in brackets.items() if "H1" in k or "H2" in k)
    # Along the flow dH/dt = {H, H3}: read off the table, with {H4, H3} = -{H3, H4}
    flow = (table[0, 2], table[1, 2], MultiPoly.zero(), -table[2, 3])
    conserved = {f"d{name}/dt": format_poly(rate) for name, rate in zip(names, flow)}
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


def _sample_json(level, seed) -> dict:
    """One sampled level-set point and its residuals, as printed."""
    point = sample_fiber_point(level, seed=seed)
    gamma, omega = point
    return {
        "gamma": [[repr(z.real), repr(z.imag)] for z in gamma],
        "omega": [[repr(z.real), repr(z.imag)] for z in omega],
        "integral_residual": repr(max(abs(r) for r in integral_residuals(point, level))),
        "cubic_residual": repr(abs(quotient_cubic_residual(point, level))),
        "shifted_weierstrass_residual": repr(abs(shifted_weierstrass_residual(point, level))),
    }


def cmd_sample_fiber(args) -> int:
    _checked(TopParams, args.m, args.a)
    if not 0 <= args.count <= MAX_SAMPLES:
        raise InputError(f"--count must be in 0..{MAX_SAMPLES}, got {quote_tag(str(args.count))}")
    params = (args.h3, args.h4, args.a, args.m)
    for name, value in zip(("--h3", "--h4", "--a", "--m"), params):
        try:
            float(value)
        except OverflowError:
            raise InputError(f"{name} has no finite float value") from None
    level = Level(*params)
    # each point is rendered as it is sampled; the text is printed whole, so
    # an overflow leaves stdout empty
    points = (_sample_json(level, args.seed + i) for i in range(args.count))
    try:
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
    except OverflowError as exc:
        raise SamplingError(f"float overflow while sampling: {exc}") from exc
    return 0


def cmd_monodromy(args) -> int:
    if not 0 <= args.bound <= MAX_BOUND:
        raise InputError(f"--bound must be in 0..{MAX_BOUND}, got {quote_tag(str(args.bound))}")
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


@functools.cache  # built on first use; every later call in the process reuses it
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
    p.add_argument("L", type=_integer)
    p.add_argument("K", type=_integer)
    p.add_argument("N", type=_integer)
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
    p.add_argument("-n", "--count", type=_integer, default=1)
    p.add_argument("--seed", type=_integer, default=0)
    p.set_defaults(func=cmd_sample_fiber)

    p = sub.add_parser("monodromy", help="solve the node and braid relations")
    p.add_argument("--bound", type=_integer, default=25)
    p.set_defaults(func=cmd_monodromy)

    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = build_parser().parse_args(_attach_negative_values(argv))
    try:
        return args.func(args)
    except (GenericityError, InputError) as exc:
        print(f"rejected: {exc}", file=sys.stderr)
        return 2
    except (NotAnalyzableError, SamplingError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
