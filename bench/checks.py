"""Independent checks of the emitted JSON.

The checks read only the JSON that ``fibrant`` prints.  Their arithmetic
is plain ``Fraction``/``int``/``complex`` or sympy; they never import
``fibrant``.  Every reference is rebuilt from the paper's formulas or from
a property the method must have, never from a stored copy of an earlier
output.  Each ``check_*`` function returns a list of failure messages,
empty when the output passes.

``self_test`` feeds each checker deliberately corrupted copies of a real
output and reports the corruptions a checker let through.
"""

from __future__ import annotations

import copy
import functools
import math
from fractions import Fraction

import sympy

INF = math.inf
T = ((1, 1), (0, 1))
STANDARD_CUSP_PARTNER = ((1, 0), (-1, 1))

# The tolerance `fibrant.lagrange.sample_fiber_point` states for the
# integral residuals of an accepted sample.
SAMPLE_TOL = 1e-10

# The paper's classification for generic alpha.
NODES = 2
CUSPS = 4
QUINTIC_DEGREE = 5
LINE_MULTIPLICITY = 7

# Kodaira's table of singular fibres by the vanishing orders (L, K, N) of
# (a, b, a^3 - 27 b^2), as in Miranda, "The Basic Theory of Elliptic
# Surfaces", Table IV.3.1.  Rows: (L range, K range, N range, tag), where
# a range is (low, high) with high None for unbounded, and the tags "I{N}"
# and "I{N-6}*" are filled in from N.
KODAIRA_ROWS = (
    ((0, None), (0, None), (0, 0), "I0"),
    ((0, 0), (0, 0), (1, None), "I{N}"),
    ((1, None), (1, 1), (2, 2), "II"),
    ((1, 1), (2, None), (3, 3), "III"),
    ((2, None), (2, 2), (4, 4), "IV"),
    ((2, None), (3, None), (6, 6), "I0*"),
    ((2, 2), (3, 3), (7, None), "I{N-6}*"),
    ((3, None), (4, 4), (8, 8), "IV*"),
    ((3, 3), (5, None), (9, 9), "III*"),
    ((4, None), (5, 5), (10, 10), "II*"),
)

# Components of each fibre type (I_n: n, I_n*: n + 5).
FIXED_COMPONENTS = {"I0": 1, "II": 1, "III": 2, "IV": 3, "IV*": 7, "III*": 8, "II*": 9}


def _order(value):
    return INF if value == "inf" else value


def kodaira_tag(L, K, N):
    """The tag of a minimal triple by the table, or None off the table."""

    def inside(v, rng):
        low, high = rng
        return v >= low and (high is None or v <= high)

    for l_rng, k_rng, n_rng, tag in KODAIRA_ROWS:
        if inside(L, l_rng) and inside(K, k_rng) and inside(N, n_rng):
            if tag == "I{N}":
                return f"I{N}"
            if tag == "I{N-6}*":
                return f"I{N - 6}*"
            return tag
    return None


def component_count(tag: str):
    if tag in FIXED_COMPONENTS:
        return FIXED_COMPONENTS[tag]
    if tag.startswith("I") and tag.endswith("*"):
        return int(tag[1:-1]) + 5
    if tag.startswith("I"):
        return int(tag[1:])
    return None


def triple_rule_holds(L, K, N) -> bool:
    """N = min(3L, 2K) when 3L != 2K, and N >= 3L otherwise."""
    three_l, two_k = 3 * L, 2 * K
    if three_l != two_k:
        return N == min(three_l, two_k)
    return N >= three_l


# -- 2x2 integer matrices -------------------------------------------------------


def _matrix(entries):
    (a, b), (c, d) = entries
    for v in (a, b, c, d):
        if not isinstance(v, int) or isinstance(v, bool):
            raise ValueError(f"non-integer entry {v!r}")
    return ((a, b), (c, d))


def matmul(x, y):
    return (
        (x[0][0] * y[0][0] + x[0][1] * y[1][0], x[0][0] * y[0][1] + x[0][1] * y[1][1]),
        (x[1][0] * y[0][0] + x[1][1] * y[1][0], x[1][0] * y[0][1] + x[1][1] * y[1][1]),
    )


def det(x):
    return x[0][0] * x[1][1] - x[0][1] * x[1][0]


# -- the paper's sections, rebuilt in sympy ------------------------------------------

A0, A1, A2, X, Y, Z = sympy.symbols("A0 A1 A2 X Y Z")
PLANE = (A0, A1, A2)
TOTAL = (X, Y, Z, A0, A1, A2)


def _terms(poly: sympy.Poly):
    """Exponents and Fraction coefficients, for exact evaluation."""
    return [(exps, Fraction(int(c.p), int(c.q))) for exps, c in poly.terms()]


def _evaluate(terms, point) -> Fraction:
    total = Fraction(0)
    for exps, coeff in terms:
        value = coeff
        for x, e in zip(point, exps):
            if e:
                value *= x**e
        total += value
    return total


class Family:
    """The Lagrange-top fibration at one alpha, from the paper's formulas.

    g2 = 1 + a2^2/12 - alpha a1/4 and
    g3 = a2^3/216 + a1^2/16 - alpha a1 a2/48 - a2/6 + alpha^2/16 are
    homogenized with a1 = A1/A0, a2 = A2/A0 into sections phi (degree 4)
    and psi (degree 6) of the Weierstrass model
    F = Y^2 Z - 4 X^3 + phi X Z^2 + psi Z^3.
    """

    def __init__(self, alpha: Fraction):
        al = sympy.Rational(alpha.numerator, alpha.denominator)
        a1, a2 = sympy.symbols("a1 a2")
        g2 = 1 + a2**2 / 12 - al * a1 / 4
        g3 = a2**3 / 216 + a1**2 / 16 - al * a1 * a2 / 48 - a2 / 6 + al**2 / 16
        chart = {a1: A1 / A0, a2: A2 / A0}
        self.phi = sympy.Poly(sympy.expand(A0**4 * g2.subs(chart, simultaneous=True)), *PLANE)
        self.psi = sympy.Poly(sympy.expand(A0**6 * g3.subs(chart, simultaneous=True)), *PLANE)
        self.delta = self.phi**3 - 27 * self.psi**2
        self.line_orders = tuple(_order_along_a0(p) for p in (self.phi, self.psi, self.delta))
        self.quintic = sympy.Poly(
            sympy.cancel(self.delta.as_expr() / A0 ** self.line_orders[2]), *PLANE
        )
        self.quintic_ok = (
            self.quintic.is_homogeneous
            and self.quintic.total_degree() == QUINTIC_DEGREE
            and self.quintic.as_expr().subs(A0, 0) != 0
            and len(self.quintic.sqf_list()[1]) == 1
            and self.quintic.sqf_list()[1][0][1] == 1
            and sympy.gcd(self.quintic, self.phi).total_degree() == 0
            and sympy.gcd(self.quintic, self.psi).total_degree() == 0
        )
        q = self.quintic
        self.quintic_gradient = [_terms(q.diff(v)) for v in PLANE]
        F = sympy.Poly(
            Y**2 * Z - 4 * X**3 + self.phi.as_expr() * X * Z**2 + self.psi.as_expr() * Z**3,
            *TOTAL,
        )
        self.total = [F] + [F.diff(v) for v in TOTAL]
        self.total_terms = [_terms(p) for p in self.total]


def _order_along_a0(poly: sympy.Poly) -> int:
    return min(m[0] for m in poly.monoms())


@functools.cache
def family(alpha: Fraction) -> Family:
    return Family(alpha)


def _fractions(values):
    return [Fraction(v) for v in values]


# -- analyze -----------------------------------------------------------------


def check_analyze(out: dict, alpha: Fraction) -> list:
    """Check one `analyze` report against the paper's sections at alpha."""
    fails = []
    try:
        rep = out["report"]
        if Fraction(rep["alpha"]) != alpha:
            fails.append(f"report alpha {rep['alpha']} != requested {alpha}")
        fam = family(alpha)
        fails += _check_discriminant(rep, fam)
        fails += _check_fibre_types(rep)
        fails += _check_singular_points(rep, fam)
        fails += _check_monodromy(rep, fam)
    except (KeyError, TypeError, ValueError, IndexError, ZeroDivisionError) as exc:
        fails.append(f"malformed analyze output: {exc!r}")
    return fails


def _divisor(rep, name):
    hits = [d for d in rep["divisors"] if d["name"] == name]
    if len(hits) != 1:
        raise ValueError(f"expected one divisor named {name}, found {len(hits)}")
    return hits[0]


def _check_discriminant(rep, fam: Family) -> list:
    fails = []
    if fam.line_orders[2] != LINE_MULTIPLICITY or not fam.quintic_ok:
        fails.append(
            f"a^3 - 27 b^2 is not A0^7 times a reduced quintic: orders {fam.line_orders}"
        )
    line = _divisor(rep, "L~")
    if tuple(map(_order, line["triple"])) != fam.line_orders:
        fails.append(f"L~ triple {line['triple']} != orders along A0 {list(fam.line_orders)}")
    quintic = _divisor(rep, "Q~")
    if tuple(map(_order, quintic["triple"])) != (0, 0, 1):
        fails.append(f"Q~ triple {quintic['triple']} != (0, 0, 1) of a reduced quintic")
    return fails


def _check_fibre_types(rep) -> list:
    fails = []
    names = [d["name"] for d in rep["divisors"]]
    if len(set(names)) != len(names):
        fails.append("divisor names repeat")
    for d in rep["divisors"]:
        L, K, N = map(_order, d["triple"])
        tag = d["kodaira"]["tag"]
        want = kodaira_tag(L, K, N)
        if want != tag:
            fails.append(f"{d['name']}: triple {d['triple']} is {want} by the table, report says {tag}")
        if not triple_rule_holds(L, K, N):
            fails.append(f"{d['name']}: triple {d['triple']} breaks N = min(3L, 2K)")
        if component_count(tag) != d["kodaira"]["components"]:
            fails.append(f"{d['name']}: {tag} with {d['kodaira']['components']} components")
    return fails


def _node_points(rep):
    return [
        c for c in rep["collisions"]
        if c["divisor_pair"] == ["Q~", "Q~"] and c["where"].startswith("node")
    ]


def _check_singular_points(rep, fam: Family) -> list:
    fails = []
    for s in rep["total_space_singularities"]:
        x, y, z = _fractions(s["fiber_point"])
        if y != 0 or z == 0:
            fails.append(f"singular fibre point {s['fiber_point']} does not have Y = 0, Z != 0")
            continue
        if s["kind"] == "isolated":
            point = [x, y, z] + _fractions(s["base_point"])
            bad = [i for i, t in enumerate(fam.total_terms) if _evaluate(t, point) != 0]
            if bad:
                fails.append(f"Weierstrass equation or a partial is nonzero at {point} ({bad})")
        else:
            var, _, rest = s["base_curve"].partition(" = ")
            if var not in ("A0", "A1", "A2") or rest != "0":
                fails.append(f"unreadable singular curve {s['base_curve']!r}")
                continue
            at = {X: x, Y: y, Z: z, sympy.Symbol(var): 0}
            if any(sympy.expand(p.as_expr().subs(at)) != 0 for p in fam.total):
                fails.append(f"total space is not singular along {s['base_curve']}")
    for c in _node_points(rep):
        point = [Fraction(1)] + _fractions(c["point"])
        if any(_evaluate(g, point) != 0 for g in fam.quintic_gradient):
            fails.append(f"Q~ + Q~ collision at {c['point']} is not a singular point of Q")
    return fails


def _check_monodromy(rep, fam: Family) -> list:
    fails = []
    mono = rep["monodromy"]
    gens = mono["generators"]
    if len(gens) != QUINTIC_DEGREE or len(gens) != fam.quintic.total_degree():
        fails.append(f"{len(gens)} generators, the branch quintic has degree {QUINTIC_DEGREE}")
    kinds = {"node": 0, "cusp": 0}
    for rel in mono["relations"]:
        a, b = (_matrix(m) for m in rel["local_pair"])
        if det(a) != 1 or det(b) != 1:
            fails.append(f"{rel['kind']} pair {rel['local_pair']} is not in SL(2, Z)")
        if rel["kind"] == "node":
            holds = matmul(a, b) == matmul(b, a)
        elif rel["kind"] == "cusp":
            holds = matmul(matmul(a, b), a) == matmul(matmul(b, a), b)
        else:
            fails.append(f"unknown relation kind {rel['kind']!r}")
            continue
        kinds[rel["kind"]] += 1
        if not holds or rel["certified"] is not True:
            fails.append(f"{rel['kind']} pair {rel['local_pair']} does not satisfy its relation")
        if not set(rel["generators"]) <= set(gens):
            fails.append(f"relation binds unknown generators {rel['generators']}")
    nodes = len(_node_points(rep))
    if kinds["node"] != NODES or nodes != NODES:
        fails.append(f"{kinds['node']} node relations and {nodes} node collisions, expected {NODES}")
    if kinds["cusp"] != CUSPS:
        fails.append(f"{kinds['cusp']} cusp relations, expected {CUSPS}")
    for g, m in mono["assignment"].items():
        m = _matrix(m)
        if det(m) != 1 or m[0][0] + m[1][1] != 2 or m == ((1, 0), (0, 1)):
            fails.append(f"generator {g} maps to {m}, not a conjugate of T")
    return fails


def structure(out: dict):
    """What the paper's classification fixes for every generic alpha."""
    rep = out["report"]
    return (
        sorted((d["name"], tuple(d["triple"]), d["kodaira"]["tag"]) for d in rep["divisors"]),
        sorted(
            (tuple(c["divisor_pair"]), c["where"], c["label"], c["kodaira_label"])
            for c in rep["collisions"]
        ),
        sorted((s["kind"], s.get("base_curve", "")) for s in rep["total_space_singularities"]),
        sorted(r["kind"] for r in rep["monodromy"]["relations"]),
        len(rep["monodromy"]["generators"]),
    )


def check_same_structure(outs: list) -> list:
    """Every alpha of a workload gives the same classification."""
    try:
        shapes = [structure(o) for o in outs]
    except (KeyError, TypeError) as exc:
        return [f"malformed analyze output: {exc!r}"]
    return [
        f"report {i} differs in structure from report 0"
        for i, s in enumerate(shapes)
        if s != shapes[0]
    ]


# -- monodromy ---------------------------------------------------------------------


def cusp_family(bound: int) -> set:
    """T^-k [[1,0],[-1,1]] T^k = [[1-k, k^2], [-1, 1+k]] within the bound."""
    reach = math.isqrt(bound) + 1
    fam = set()
    for k in range(-reach, reach + 1):
        m = ((1 - k, k * k), (-1, 1 + k))
        if max(abs(v) for row in m for v in row) <= bound and m != T:
            fam.add(m)
    return fam


def check_monodromy(out: dict, bound: int) -> list:
    fails = []
    try:
        if out["bound"] != bound:
            fails.append(f"bound {out['bound']} != requested {bound}")
        node = [_matrix(m) for m in out["node_solutions"]]
        if node != [T]:
            fails.append(f"node solutions {node} != [T]")
        cusp = [_matrix(m) for m in out["cusp_solutions"]]
        if len(set(cusp)) != len(cusp) or set(cusp) != cusp_family(bound):
            fails.append(f"cusp solutions {sorted(cusp)} != the conjugates of [[1,0],[-1,1]] by T^k")
        if out["cusp_normal_forms"] != [str([list(r) for r in STANDARD_CUSP_PARTNER])]:
            fails.append(f"cusp normal forms {out['cusp_normal_forms']}")
        if out["braid_certificate"] is not True:
            fails.append("braid certificate is not true")
    except (KeyError, TypeError, ValueError) as exc:
        fails.append(f"malformed monodromy output: {exc!r}")
    return fails


# -- the integrable system ---------------------------------------------------------

GAMMA = sympy.symbols("G1 G2 G3")
MOMENTUM = sympy.symbols("M1 M2 M3")
PAIRS = ("{H1,H2}", "{H1,H3}", "{H1,H4}", "{H2,H3}", "{H2,H4}", "{H3,H4}")
RATES = ("dH1/dt", "dH2/dt", "dH3/dt", "dH4/dt")


def poly_text(text: str):
    """A polynomial in the program's text format, read by sympy."""
    names = {str(s): s for s in GAMMA + MOMENTUM}
    return sympy.expand(sympy.parse_expr(text.replace("^", "**"), local_dict=names))


def lie_poisson(f, g):
    """{F,G} = -<G, d_M F x d_G G> - <G, d_G F x d_M G> - <M, d_M F x d_M G>."""

    def grad(h, names):
        return sympy.Matrix([sympy.diff(h, v) for v in names])

    gam, mom = sympy.Matrix(GAMMA), sympy.Matrix(MOMENTUM)
    fg, fm, gg, gm = grad(f, GAMMA), grad(f, MOMENTUM), grad(g, GAMMA), grad(g, MOMENTUM)
    return sympy.expand(
        -(gam.dot(fm.cross(gg)) + gam.dot(fg.cross(gm)) + mom.dot(fm.cross(gm)))
    )


# Brackets with a nonzero value, so that a bracket that always returns 0 fails.
CONTROL_PAIRS = (("M1", "M2"), ("M1", "G2"), ("G1", "M3"))


def check_control(values: dict) -> list:
    """``values`` maps each control pair to the program's bracket text."""
    fails = []
    for pair in CONTROL_PAIRS:
        want = lie_poisson(*(sympy.Symbol(n) for n in pair))
        if want == 0:
            fails.append(f"control pair {pair} has bracket 0")
        got = values.get(pair)
        if got is None or poly_text(got) != want:
            fails.append(f"control bracket {pair} = {got!r}, expected {want}")
    return fails


def check_bracket(out: dict, m: Fraction) -> list:
    fails = []
    try:
        if Fraction(out["m"]) != m:
            fails.append(f"m {out['m']} != requested {m}")
        if sorted(out["pairwise_brackets"]) != sorted(PAIRS):
            fails.append(f"bracket keys {sorted(out['pairwise_brackets'])}")
        for key, text in out["pairwise_brackets"].items():
            if poly_text(text) != 0:
                fails.append(f"{key} = {text}, not 0")
        if sorted(out["conservation"]) != sorted(RATES):
            fails.append(f"conservation keys {sorted(out['conservation'])}")
        for key, text in out["conservation"].items():
            if poly_text(text) != 0:
                fails.append(f"{key} = {text}, not 0")
        if out["all_zero"] is not True or out["casimirs_central"] is not True:
            fails.append("all_zero or casimirs_central is not true")
    except (KeyError, TypeError, ValueError, SyntaxError, sympy.SympifyError) as exc:
        fails.append(f"malformed bracket-check output: {exc!r}")
    return fails


def level_set_residuals(gamma, omega, h3, h4, a, m):
    """Residuals of a phase point (Gamma, Omega), M = (O1, O2, (1+m) O3).

    The four integrals |Gamma|^2 = 1, <Gamma, M> = a,
    (M1^2 + M2^2 + M3^2/(1+m))/2 - Gamma3 = h3 and M3/(1+m) = h4; the
    quotient cubic in x = -Gamma3/2, y = -(Gamma1 O2 - Gamma2 O1)/2; and
    the Weierstrass form Y^2 = 4X^3 - g2 X - g3 at X = x - a2/12 with
    (a1, a2) = (2(1+m) h4, 2 h3 + (1+m) m h4^2) and alpha = -2a.

    Returns the largest integral residual and, for each of the two
    cubics, its residual divided by max(1, sum of its terms' moduli):
    the terms grow like the cube of the parameters, and float rounding
    with them.
    """
    g1, g2_, g3_ = gamma
    o1, o2, o3 = omega
    h3f, h4f, af, mf = (float(v) for v in (h3, h4, a, m))
    integrals = (
        g1 * g1 + g2_ * g2_ + g3_ * g3_ - 1,
        g1 * o1 + g2_ * o2 + (1 + mf) * g3_ * o3 - af,
        0.5 * (o1 * o1 + o2 * o2 + (1 + mf) * o3 * o3) - g3_ - h3f,
        o3 - h4f,
    )
    x = -g3_ / 2
    y = -(g1 * o2 - g2_ * o1) / 2
    cubic_terms = (
        y * y,
        -4 * x**3,
        (2 * h3f + (1 + mf) * mf * h4f**2) * x**2,
        (1 + (1 + mf) * af * h4f) * x,
        -(2 * h3f - (1 + mf) * h4f**2 - af**2) / 4,
    )
    a1 = 2 * (1 + m) * h4
    a2 = 2 * h3 + (1 + m) * m * h4**2
    alpha = -2 * a
    g2 = 1 + a2**2 / 12 - alpha * a1 / 4
    g3 = a2**3 / 216 + a1**2 / 16 - alpha * a1 * a2 / 48 - a2 / 6 + alpha**2 / 16
    xs = x - float(a2) / 12
    weierstrass_terms = (y * y, -4 * xs**3, float(g2) * xs, float(g3))
    return (
        max(abs(r) for r in integrals),
        _relative(cubic_terms),
        _relative(weierstrass_terms),
    )


def _relative(terms) -> float:
    return abs(sum(terms)) / max(1.0, sum(abs(t) for t in terms))


def check_sample(out: dict, params: dict, count: int) -> list:
    fails = []
    try:
        h3, h4, a, m = (params[k] for k in ("h3", "h4", "a", "m"))
        got = {k: Fraction(v) for k, v in out["parameters"].items()}
        if got != params:
            fails.append(f"parameters {out['parameters']} != requested")
        if len(out["points"]) != count:
            fails.append(f"{len(out['points'])} points, requested {count}")
        for i, p in enumerate(out["points"]):
            gamma = [complex(float(r), float(im)) for r, im in p["gamma"]]
            omega = [complex(float(r), float(im)) for r, im in p["omega"]]
            recomputed = level_set_residuals(gamma, omega, h3, h4, a, m)
            reported = float(p["integral_residual"])
            if not all(math.isfinite(v) and v < SAMPLE_TOL for v in recomputed + (reported,)):
                fails.append(
                    f"point {i}: residuals {recomputed}, reported {reported}, tolerance {SAMPLE_TOL}"
                )
    except (KeyError, TypeError, ValueError) as exc:
        fails.append(f"malformed sample-fiber output: {exc!r}")
    return fails


# -- dispatch and self-test --------------------------------------------------------


def option(argv, name):
    prefix = f"--{name}="
    return next(a[len(prefix):] for a in argv if a.startswith(prefix))


def check_operation(argv: list, out: dict) -> list:
    """Check the JSON that the call ``fibrant <argv>`` printed."""
    command = argv[0]
    if command == "analyze":
        return check_analyze(out, Fraction(option(argv, "alpha")))
    if command == "monodromy":
        return check_monodromy(out, int(option(argv, "bound")))
    if command == "bracket-check":
        return check_bracket(out, Fraction(option(argv, "m")))
    if command == "sample-fiber":
        params = {k: Fraction(option(argv, k)) for k in ("h3", "h4", "a", "m")}
        return check_sample(out, params, int(option(argv, "count")))
    return [f"no checker for {command!r}"]


def _set(path, value):
    def corrupt(out):
        node = out
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = value(node[path[-1]]) if callable(value) else value

    return corrupt


def _find(items, **match):
    return next(i for i, d in enumerate(items) if all(d.get(k) == v for k, v in match.items()))


def _analyze_corruptions(out):
    rep = out["report"]
    divs, colls, sings = rep["divisors"], rep["collisions"], rep["total_space_singularities"]
    q = _find(divs, name="Q~")
    line = _find(divs, name="L~")
    iso = _find(sings, kind="isolated")
    node = next(i for i, c in enumerate(colls) if c["divisor_pair"] == ["Q~", "Q~"])
    cusp = _find(rep["monodromy"]["relations"], kind="cusp")
    rel = ["report", "monodromy", "relations"]
    return {
        "Kodaira tag": _set(["report", "divisors", q, "kodaira", "tag"], "I2"),
        "component count": _set(["report", "divisors", q, "kodaira", "components"], 2),
        "triple N": _set(["report", "divisors", line, "triple", 2], 8),
        "fibre point X": _set(
            ["report", "total_space_singularities", iso, "fiber_point", 0],
            lambda v: str(Fraction(v) + 1),
        ),
        "fibre point Y": _set(["report", "total_space_singularities", iso, "fiber_point", 1], "1"),
        "base point": _set(
            ["report", "total_space_singularities", iso, "base_point", 2],
            lambda v: str(Fraction(v) + Fraction(1, 7)),
        ),
        "node point": _set(
            ["report", "collisions", node, "point", 0], lambda v: str(Fraction(v) + 1)
        ),
        "cusp pair": _set(rel + [cusp, "local_pair", 1], [[1, 0], [-2, 1]]),
        "non-unimodular pair": _set(rel + [cusp, "local_pair", 1], [[2, 0], [-1, 1]]),
        "relation dropped": _set(rel, lambda rels: rels[:-1]),
        "generator dropped": _set(["report", "monodromy", "generators"], lambda g: g[:-1]),
        "alpha": _set(["report", "alpha"], lambda v: str(Fraction(v) + 1)),
    }


def _monodromy_corruptions(out):
    return {
        "extra node solution": _set(["node_solutions"], lambda s: s + [[[1, 2], [0, 1]]]),
        "cusp solution dropped": _set(["cusp_solutions"], lambda s: s[1:]),
        "extra cusp solution": _set(["cusp_solutions"], lambda s: s + [[[1, 0], [-2, 1]]]),
        "braid certificate": _set(["braid_certificate"], False),
    }


def _bracket_corruptions(out):
    return {
        "nonzero bracket": _set(["pairwise_brackets", "{H2,H3}"], "M3"),
        "nonzero rate": _set(["conservation", "dH3/dt"], "G1*M2"),
        "casimirs": _set(["casimirs_central"], False),
        "bracket dropped": _set(["pairwise_brackets"], lambda b: dict(list(b.items())[1:])),
    }


def _sample_corruptions(out):
    return {
        "moved point": _set(
            ["points", 0, "gamma", 0, 0], lambda v: repr(float(v) + 1e-6)
        ),
        "reported residual": _set(["points", 0, "integral_residual"], "1e-06"),
        "point dropped": _set(["points"], lambda p: p[1:]),
    }


CORRUPTIONS = {
    "analyze": _analyze_corruptions,
    "monodromy": _monodromy_corruptions,
    "bracket-check": _bracket_corruptions,
    "sample-fiber": _sample_corruptions,
}


MALFORMED = (StopIteration, KeyError, IndexError, TypeError, ValueError)


def self_test(argv: list, out: dict) -> list:
    """Names of corruptions of ``out`` that the checker did not reject."""
    missed = []
    try:
        corruptions = CORRUPTIONS[argv[0]](out)
    except MALFORMED as exc:
        return [f"{argv[0]}: output too malformed to corrupt ({exc!r})"]
    for name, corrupt in corruptions.items():
        bad = copy.deepcopy(out)
        try:
            corrupt(bad)
        except MALFORMED as exc:
            missed.append(f"{argv[0]}: {name}: cannot corrupt ({exc!r})")
            continue
        if not check_operation(argv, bad):
            missed.append(f"{argv[0]}: {name}")
    return missed


def self_test_structure(outs: list) -> list:
    if len(outs) < 2:
        return []
    bad = copy.deepcopy(outs)
    try:
        bad[1]["report"]["divisors"][0]["kodaira"]["tag"] = "II*"
    except MALFORMED as exc:
        return [f"analyze: output too malformed to corrupt ({exc!r})"]
    return [] if check_same_structure(bad) else ["analyze: structure across alpha"]


def self_test_control(values: dict) -> list:
    zero = {pair: "0" for pair in values}
    return [] if check_control(zero) else ["control brackets: all zero"]
