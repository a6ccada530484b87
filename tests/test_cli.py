import contextlib
import functools
import hashlib
import io
import json
import math
import os
import re
import subprocess
import sys
import time
import tracemalloc
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

import fibrant
from fibrant import blowup, cli, lagrange, planecurve, poly, upoly, weierstrass
from fibrant.cli import main
from fibrant.lagrange import build_global_sections
from fibrant.monodromy import SL2Z, T
from fibrant.planecurve import AffineChart, rational_singular_points
from fibrant.weierstrass import KodairaType, OrderTriple, kodaira_classify


@pytest.fixture
def run(capsys):
    def invoke(*argv):
        code = main(list(argv))
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    return invoke


def assert_rejected(result, fragment):
    """Exit 2, nothing on stdout, one stderr line naming the bad value."""
    code, out, err = result
    assert code == 2
    assert out == ""
    assert err.count("\n") == 1 and err.startswith("rejected: ")
    assert fragment in err


class TestClassifyTriple:
    def test_star_type(self, run):
        code, out, _ = run("classify-triple", "2", "3", "7")
        assert code == 0
        payload = json.loads(out)
        assert payload["kodaira"]["tag"] == "I1*"

    def test_reduction_applied(self, run):
        code, out, _ = run("classify-triple", "6", "9", "18")
        payload = json.loads(out)
        assert payload["reduced"] == [2, 3, 6]
        assert payload["kodaira"]["tag"] == "I0*"

    def test_negative_order_rejected(self, run):
        assert_rejected(run("classify-triple", "-1", "0", "0"), "-1")

    def test_large_orders_reduce_at_once(self, run):
        start = time.perf_counter()
        code, out, _ = run("classify-triple", "4000000000", "6000000000", "12000000000")
        assert time.perf_counter() - start < 1.0
        assert code == 0
        payload = json.loads(out)
        assert payload["reduced"] == [0, 0, 0]
        assert payload["kodaira"]["tag"] == "I0"

    @pytest.mark.parametrize(
        "triple, tag",
        [(("0", "0", "1000000000000"), "I1000000000000"), (("2", "3", "1000000000000"), "I999999999994*")],
    )
    def test_huge_index_rejected(self, run, triple, tag):
        assert_rejected(run("classify-triple", *triple), f"{tag} has")

    def test_long_tag_and_count_quoted_short(self, run):
        code, out, err = run("classify-triple", "0", "0", "1" * 4300)
        assert_rejected((code, out, err), "I11111111111... has a 4300-digit number of dual-graph")
        assert len(err) < 120

    @pytest.mark.parametrize("triple", [("1", "1", "1"), ("4", "6", "11"), ("2", "3", "5")])
    def test_inconsistent_triple_rejected(self, run, triple):
        # N must be min(3L, 2K), and at least that when 3L = 2K.
        assert_rejected(run("classify-triple", *triple), "(" + ", ".join(triple) + ")")

    @pytest.mark.parametrize(
        "triple, reduced, tag", [(("6", "9", "18"), [2, 3, 6], "I0*"), (("5", "5", "10"), [5, 5, 10], "II*")]
    )
    def test_consistent_edge_triples_classify(self, run, triple, reduced, tag):
        code, out, _ = run("classify-triple", *triple)
        assert code == 0
        payload = json.loads(out)
        assert payload["reduced"] == reduced
        assert payload["kodaira"]["tag"] == tag


class TestCollide:
    def test_label(self, run):
        code, out, _ = run("collide", "I1", "I4")
        assert code == 0
        assert json.loads(out)["collision"]["label"] == "I5"

    def test_off_list_is_an_error(self, run):
        code, _, err = run("collide", "IV*", "IV")
        assert code == 1
        assert "not on the list" in err

    def test_unknown_tag_rejected(self, run):
        assert_rejected(run("collide", "I1", "foo"), "'foo'")

    @pytest.mark.parametrize("pair", [("I1000000000000", "I5"), ("I1000000000000*", "I0")])
    def test_huge_index_rejected(self, run, pair):
        assert_rejected(run("collide", *pair), " + ".join(pair) + " has")

    @pytest.mark.parametrize("suffix", ["", "*"])
    def test_index_too_long_to_convert_rejected(self, run, suffix):
        code, out, err = run("collide", "I" + "1" * 5000 + suffix, "I1")
        assert_rejected((code, out, err), "Kodaira tag I11111111111... has an index of 5000 digits")
        assert len(err) < 100

    @pytest.mark.parametrize(
        "pair, quoted",
        [
            (("I" + "1" * 4300, "I1"), "I11111111111... + I1 has a 4300-digit number"),
            (("I" + "9" * 4300,) * 2, "I99999999999... + I99999999999... has a 4301-digit number"),
        ],
    )
    def test_long_tags_and_counts_quoted_short(self, run, pair, quoted):
        code, out, err = run("collide", *pair)
        assert_rejected((code, out, err), quoted + " of dual-graph components")
        assert len(err) < 120

    def test_component_cap_boundary(self, run):
        """The collision fiber has at most as many components as its two
        types; at the cap it is built, one past it is rejected."""
        cap = cli.MAX_COMPONENTS
        code, out, _ = run("collide", f"I{cap - 5}", "I5")
        assert code == 0
        assert json.loads(out)["collision"]["dual_graph"]["multiplicities"] == [1] * cap
        assert_rejected(run("collide", f"I{cap - 4}", "I5"), f"{cap + 1} dual-graph components")
        code, out, _ = run("classify-triple", "2", "3", str(cap + 1))
        assert code == 0 and json.loads(out)["kodaira"]["components"] == cap
        assert_rejected(run("classify-triple", "2", "3", str(cap + 2)), f"I{cap - 4}*")

    @pytest.mark.parametrize("pair", [("I00", "II"), ("I01", "I1"), ("I1", "I002*"), ("I\uff11", "I1")])
    def test_non_canonical_tag_rejected(self, run, pair):
        assert_rejected(run("collide", *pair), "unknown Kodaira tag")


def call_in_process(*argv):
    """(exit code, stdout, stderr) of ``cli.main``, an argparse exit included."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(list(argv))
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def decimal_near(digits):
    """Decimal strings of ``digits`` - 2 to ``digits`` + 1 digits."""
    return st.builds(
        lambda lead, rest, size: str(lead) + str(rest) * (size - 1),
        st.integers(1, 9), st.integers(0, 9), st.integers(digits - 2, digits + 1),
    )


_INDICES = st.one_of(
    st.integers(0, 12).map(str),
    st.integers(cli.MAX_COMPONENTS - 12, cli.MAX_COMPONENTS + 12).map(str),
    decimal_near(sys.int_info.default_max_str_digits),
)
_CANONICAL = st.sampled_from(
    ["I0", "I1", "I2", "I9", "II", "III", "IV", "I0*", "I1*", "I4*", "IV*", "III*", "II*"]
)
# Free text has no "-", since "-h" and the prefixes of "--help" ask argparse
# for the usage text, which is no tag; signed tags are drawn on their own.
_TAGS = st.one_of(
    _CANONICAL,
    st.builds(lambda n, star: f"I{n}{star}", _INDICES, st.sampled_from(["", "*"])),
    st.builds(
        lambda bad, n, star: f"I{bad}{n}{star}",
        st.sampled_from(["0", "00", "+", "-", " ", "１", "²"]),
        _INDICES,
        st.sampled_from(["", "*", "**", " "]),
    ),
    st.builds(lambda sign, tag: sign + tag, st.sampled_from(["-", "+", " "]), _CANONICAL),
    st.sampled_from(["", "I", "I*", "i1", "V", "Ié1", "I٣", "ⅠⅠ", "I{}", "I{}*"]),
    st.text(st.characters(blacklist_characters="-"), max_size=30),
)
_ORDERS = st.one_of(
    st.integers(-3, 24).map(str),
    st.integers(-(10**12), 10**12).map(str),
    st.builds(
        lambda sign, n: sign + n,
        st.sampled_from(["", "-", "+"]),
        decimal_near(sys.int_info.default_max_str_digits),
    ),
    st.sampled_from(["", " 7 ", "1_0", "٣", "1.5", "inf", "x" * 300]),
    st.text(st.characters(blacklist_characters="-"), max_size=30),
)


_BOUNDS = st.one_of(
    st.integers(-5, cli.MAX_BOUND + 10).map(str),
    st.builds(
        lambda sign, n: sign + n,
        st.sampled_from(["", "-", "+"]),
        decimal_near(sys.int_info.default_max_str_digits),
    ),
    st.sampled_from(["", " 7 ", "1_0", "٣", "1.5", "inf", "0x10", "x" * 300]),
    st.text(max_size=30),
)


class TestContract:
    """README's contract for ``collide``, ``classify-triple`` and
    ``monodromy``: exit 0 with JSON, exit 1 with one ``error:`` line, or
    exit 2 with one ``rejected:`` line or argparse's usage and error line;
    stderr under 200 bytes and no traceback."""

    @staticmethod
    def check(code, out, err):
        assert code in (0, 1, 2)
        assert len(err.encode()) < 200 and "Traceback" not in err
        if code == 0:
            assert err == ""
            return json.loads(out)
        assert out == ""
        lines = err.splitlines()
        if code == 1:
            assert len(lines) == 1 and lines[0].startswith("error: ")
        elif lines[0].startswith("usage: "):
            assert err.count(": error: ") == 1 and lines[-1].startswith("fibrant ")
        else:
            assert len(lines) == 1 and lines[0].startswith("rejected: ")
        return None

    @settings(max_examples=300, deadline=None)
    @given(_TAGS, _TAGS)
    @example("I9995", "I5")
    @example("I" + "1" * 5000, "I1")
    @example("x" * 500, "I1")
    @example("\ue000" * 20, "I1")
    @example("I{}", "I1")
    @example("I{}*", "I0")
    def test_collide(self, tag1, tag2):
        payload = self.check(*call_in_process("collide", tag1, tag2))
        if payload is not None:
            fiber = payload["collision"]
            triples = [KodairaType(t).minimal_triple().as_tuple() for t in (tag1, tag2)]
            summed = OrderTriple(*map(sum, zip(*triples)))
            assert fiber["kodaira_label"] == kodaira_classify(summed).tag
            assert fiber["pair"] == sorted((tag1, tag2))

    @settings(max_examples=300, deadline=None)
    @given(_ORDERS, _ORDERS, _ORDERS)
    @example("0", "-" + "1" * 300, "0")
    @example("1", "1", "1" * 4300)
    @example("\U0001f600" * 20, "1", "1")
    @example("1", "1", "\x00" * 20)
    def test_classify_triple(self, L, K, N):
        payload = self.check(*call_in_process("classify-triple", L, K, N))
        if payload is not None:
            kodaira = KodairaType(payload["kodaira"]["tag"])
            least = kodaira.minimal_triple().as_tuple()
            assert all(m <= r for m, r in zip(least, payload["reduced"]))
            assert payload["kodaira"]["components"] == kodaira.component_count()

    @settings(max_examples=40, deadline=None)
    @given(_BOUNDS)
    @example("-1")
    @example("0")
    @example(str(cli.MAX_BOUND))
    @example(str(cli.MAX_BOUND + 1))
    @example("1" * 5000)
    def test_monodromy(self, bound):
        # ``--bound=VALUE`` as one token, so a value starting with "-" is no option
        payload = self.check(*call_in_process("monodromy", f"--bound={bound}"))
        if payload is not None:
            b = payload["bound"]
            assert b == int(bound) and 0 <= b <= cli.MAX_BOUND
            assert payload["node_solutions"] == ([[[1, 1], [0, 1]]] if b else [])
            for entries in payload["cusp_solutions"]:
                assert all(abs(e) <= b for row in entries for e in row)
                m = SL2Z(*entries[0], *entries[1])
                assert T * m * T == m * T * m
            if payload["cusp_solutions"]:
                assert payload["cusp_normal_forms"] == ["[[1, 0], [-1, 1]]"]


class TestAnalyze:
    def test_json_contains_line_divisor(self, run):
        code, out, _ = run("analyze", "--alpha", "1")
        assert code == 0
        payload = json.loads(out)
        tags = {d["name"]: d["kodaira"]["tag"] for d in payload["report"]["divisors"]}
        assert tags["L~"] == "I1*"

    def test_genericity_exit_code(self, run):
        code, _, err = run("analyze", "--alpha", "4")
        assert code == 2
        assert "excluded" in err

    def test_height_cap_boundary(self, run):
        """An alpha with ``MAX_ALPHA_DIGITS`` digits is analyzed; one more
        digit, in the numerator or the denominator, is rejected at once."""
        cap = cli.MAX_ALPHA_DIGITS
        code, out, err = run("analyze", f"--alpha=-1e{cap - 1}")
        assert code == 0 and err == ""
        assert json.loads(out)["report"]["alpha"] == "-1" + "0" * (cap - 1)
        for alpha, part in ((f"1e{cap}", "numerator"), (f"3e-{cap}", "denominator")):
            start = time.perf_counter()
            result = run("analyze", f"--alpha={alpha}")
            assert time.perf_counter() - start < 0.5
            assert_rejected(result, f"--alpha has a {part} of {cap + 1} digits, over the cap {cap}")
        assert_rejected(run("blowup-demo", "p010", "--alpha=7e4000"), "numerator of 4001 digits")
        assert run("blowup-demo", "cusp", "--alpha=7e4000")[0] == 0

    def test_markdown_table(self, run):
        code, out, _ = run("analyze", "--alpha", "1", "--format", "md")
        assert code == 0
        assert "| L~ | (2,3,7) | I1* |" in out
        assert "I4*" in out and "I5" in out and "I3*" in out

    def test_byte_stability(self, run):
        _, first, _ = run("analyze", "--alpha", "1")
        _, second, _ = run("analyze", "--alpha", "1")
        assert first == second

    def test_negative_alpha_as_separate_token(self, run):
        spaced = run("analyze", "--alpha", "-1/2")
        joined = run("analyze", "--alpha=-1/2")
        assert spaced[0] == 0
        assert spaced == joined


# First 16 hex digits of the sha256 of the `analyze` stdout, pinned when
# the elimination kernels moved to integer arithmetic: outputs must stay
# byte-identical.
GOLDEN_ANALYZE = {
    "1": "8daf0c34e5fe00d8",
    "7/3": "a81240e581b9a16e",
    "-5/9": "7c1e486fafcb0bd4",
    "101/13": "d1b677322b244f47",
    "12345/678": "f8cf69bcb4595d78",
    "999/1000": "c03e205b19394132",
    "1000003/999983": "f3591d3eb1353ff0",
}
GOLDEN_ANALYZE_MD = {"1": "8dd15e2ec0d69b35", "7/3": "2f9e65702f69360b"}
# Pinned before the substitutions moved to integer kernels: the `analyze`
# stdout at the 108 small alpha of `test_golden_sweep_of_small_alpha`.
GOLDEN_SWEEP = "670f20e1c618b549"
# Pinned before the collision table moved next to the Kodaira types.
GOLDEN_BLOWUP_DEMO = {
    "cusp": "2ddf40178cc1860e",
    "p010": "f67f215112ce0bbe",
    "p001": "a43dcb9a16536c07",
}
# One pair per row of the collision table, and the smooth pass-through.
GOLDEN_COLLIDE = {
    ("I1", "I4"): "16809f12511baf56",
    ("I4", "I2*"): "72d3d879a6f50b75",
    ("I3", "I1*"): "23a537db4a31de0a",
    ("II", "IV"): "645676f5144ea34b",
    ("II", "I0*"): "428487937f3eec0c",
    ("II", "IV*"): "ee5c5e1c64166643",
    ("IV", "I0*"): "70a86cda85593fc0",
    ("III", "I0*"): "6f5afd623b74bc07",
    ("I0", "IV*"): "755d9862c3cbb73d",
}
# Pinned with the bounded conjugator search over every bounded matrix of
# SL(2,Z): the bounded answer sets must not depend on how conjugacy to T
# is decided, nor on which matrices the solvers walk.
GOLDEN_MONODROMY = {
    0: "7037572808fade5e",
    1: "997044f796690613",
    2: "e6528f9e0f66a4ee",
    3: "360afec19aacd9f2",
    4: "da5993e07230b5f2",
    5: "392d1b6ea008c416",
    6: "859e7711a09b52be",
    7: "04eaefd03f4c83e7",
    8: "cd0de44a9c625e8f",
    9: "31f5cdd5922ba7e3",
    10: "58dca5e61f65da14",
    11: "df0ff28380274481",
    12: "3e49d0c67a4fb227",
    13: "8b8da8efe332d289",
    14: "d7ba29f9281210b0",
    15: "5eb372d4bda01a65",
    16: "c955b87374f5085a",
    17: "252dba030dd5de51",
    18: "a77ed6eb78c0e7a4",
    19: "68e6148f50fa72ea",
    20: "c84160d4fcce4084",
    21: "582ef35fdf1d9b46",
    22: "35bb6b8123eab61e",
    23: "fe6750bdf184170e",
    24: "71083eb38c755b19",
    25: "ae5c4f81e1f94521",
    26: "4744b81141bc746f",
    27: "e40f9180f108d2c4",
    28: "35e023a96f272022",
    29: "4139e7bc60b1b610",
    30: "97a36ca17809e264",
    31: "bb8f351d62552bfd",
    32: "3f0a2d71f4347035",
    33: "5d097cc9e26c61b2",
    34: "38f9d67efc712350",
    35: "aecdafddcec4ac8f",
    36: "0d8acf349b97cf34",
    37: "46036d2dbf6f83d6",
    38: "97fe76714db66e26",
    39: "02513910e51d389b",
    40: "a781d68e8122fea6",
    # pinned before the walk visited only the divisor pairs of (p - 1)^2:
    # wide bounds, where it skips the most of the old scan, the cap included
    100: "e4d59f57e97872a4",
    333: "c43e7d3204d8a830",
    1000: "defdc37d09947646",
}
# Pinned before the bracket and the sampler stopped recomputing the
# integrals and the level: the `bracket-check` stdout at the 110 m = p/q
# with |p| <= 9, 1 <= q <= 9, m != -1, in increasing order ...
GOLDEN_BRACKET_SWEEP = "e8fbd2c5f7498e9f"
# ... and the `sample-fiber` stdout for each (h3, h4, a, m, count, seed).
GOLDEN_SAMPLE_FIBER = {
    ("3/5", "2/7", "1/3", "1/2", 4, 11): "c43e4e1b98f1ea9a",
    ("-1/2", "1", "2/5", "1/2", 3, 0): "00e5dd9a9f343217",
    ("7/4", "-3/8", "-1/6", "1/2", 2, 123456789): "041020d5caeb2fea",
    ("1", "0", "1/3", "1/2", 1, 5): "8bc520dc2dc22e76",
    ("0", "0", "0", "0", 2, 1): "b393a273541711b4",
    ("-9/7", "5/3", "-8/9", "-1/2", 4, 1073741823): "4523814b04c2c3cc",
    ("12345/678", "-1/9", "3", "9", 2, 42): "bd76322d9d81da37",
    ("1/3", "1/3", "1/3", "-9/8", 0, 7): "734f62183e9e0aa9",
}
# Pinned before rational singular points lost their double-point labels:
# the `analyze` stdout at the alpha of height <= 60 where E(alpha) has a
# rational root, so the residual quintic has one rational contact point.
GOLDEN_RATIONAL_CONTACT = {
    "19/2": "0551568d1d666ce6",
    "-19/2": "44c398bfeda8e033",
    "28": "15eb59b6df1a8df0",
    "-28": "3b5ef071084da628",
    "49/8": "a618e7dd948df93c",
    "-49/8": "8f1277f37180c08c",
    "43/8": "46ceb6b114f629e7",
    "-43/8": "bc41d034cdeb5806",
}


class TestGoldenOutput:
    @pytest.mark.parametrize("site", sorted(GOLDEN_BLOWUP_DEMO))
    def test_blowup_demo(self, run, site):
        code, out, _ = run("blowup-demo", site)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest()[:16] == GOLDEN_BLOWUP_DEMO[site]

    @pytest.mark.parametrize("pair", sorted(GOLDEN_COLLIDE))
    def test_collide(self, run, pair):
        code, out, _ = run("collide", *pair)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest()[:16] == GOLDEN_COLLIDE[pair]

    @pytest.mark.parametrize("bound", sorted(GOLDEN_MONODROMY))
    def test_monodromy(self, run, bound):
        code, out, _ = run("monodromy", f"--bound={bound}")
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest()[:16] == GOLDEN_MONODROMY[bound]

    def test_bracket_check_sweep(self, run):
        ms = sorted({Fraction(p, q) for p in range(-9, 10) for q in range(1, 10)} - {-1})
        assert len(ms) == 110
        digest = hashlib.sha256()
        for m in ms:
            code, out, _ = run("bracket-check", f"--m={m}")
            assert code == 0
            digest.update(out.encode())
        assert digest.hexdigest()[:16] == GOLDEN_BRACKET_SWEEP

    @pytest.mark.parametrize("params", sorted(GOLDEN_SAMPLE_FIBER))
    def test_sample_fiber(self, run, params):
        h3, h4, a, m, count, seed = params
        code, out, _ = run(
            "sample-fiber", f"--h3={h3}", f"--h4={h4}", f"--a={a}", f"--m={m}",
            f"--count={count}", f"--seed={seed}",
        )
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest()[:16] == GOLDEN_SAMPLE_FIBER[params]

    @pytest.mark.parametrize("alpha", sorted(GOLDEN_ANALYZE))
    def test_json(self, run, alpha):
        code, out, _ = run("analyze", f"--alpha={alpha}")
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest()[:16] == GOLDEN_ANALYZE[alpha]

    @pytest.mark.parametrize("alpha", sorted(GOLDEN_RATIONAL_CONTACT))
    def test_rational_contact_point(self, run, alpha):
        code, out, _ = run("analyze", f"--alpha={alpha}")
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest()[:16] == GOLDEN_RATIONAL_CONTACT[alpha]
        # of the rational singular points of Q~, all but one are nodes
        fib = build_global_sections(Fraction(alpha))
        chart = AffineChart.standard(0)
        residual = chart.dehomogenize(poly.radical(fib.reduced_discriminant()[1]))
        points = rational_singular_points(residual, chart).points
        jets = [poly.two_jet_at(residual, chart.coords, p) for p in points]
        kinds = [blowup._classify_jet(jet) for jet in jets]
        nodes = [c for c in blowup.regularize(fib).node_collisions if c.pair == ("Q~", "Q~")]
        assert (sorted(kinds), len(nodes)) == (["blow", "node", "node"], 2)

    @pytest.mark.parametrize("alpha", sorted(GOLDEN_ANALYZE_MD))
    def test_markdown(self, run, alpha):
        code, out, _ = run("analyze", f"--alpha={alpha}", "--format", "md")
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest()[:16] == GOLDEN_ANALYZE_MD[alpha]

    @pytest.mark.parametrize("alpha", sorted(GOLDEN_ANALYZE))
    def test_json_through_prs_fallback(self, run, monkeypatch, alpha):
        # Every gcd through the subresultant PRS gives the same output, and
        # the PRS runs on polynomial coefficients for multivariate gcds.
        prs = upoly.subresultant_list
        calls = {"integer": 0, "multivariate": 0}

        def counted(a, b):
            calls["multivariate" if isinstance(a[0], poly.MultiPoly) else "integer"] += 1
            return prs(a, b)

        monkeypatch.setattr(poly, "_heu_gcd", lambda f, g: None)
        monkeypatch.setattr(upoly, "_heu_gcd", lambda f, g: None)
        monkeypatch.setattr(upoly, "subresultant_list", counted)
        code, out, _ = run("analyze", f"--alpha={alpha}")
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest()[:16] == GOLDEN_ANALYZE[alpha]
        assert calls["multivariate"] > 0 and calls["integer"] > 0

    @pytest.mark.parametrize("alpha", sorted(GOLDEN_ANALYZE))
    def test_eliminations_take_the_fast_paths(self, run, monkeypatch, alpha):
        """No gcd falls back to a PRS; each resultant evaluates once per level.

        A fallback would leave the output unchanged and only cost time, so
        it is counted here instead.
        """
        heu, prs, iresultant = poly._heu_gcd, poly._prs_gcd, poly._iresultant
        counts = {"heu": 0, "prs": 0, "list prs": 0}
        chains = []  # per top-level resultant: [variables, calls of _iresultant]
        depth = [0]

        def counted(name, inner):
            def wrapper(*args):
                counts[name] += 1
                return inner(*args)

            return wrapper

        def chained(f, g, m, n):
            if not depth[0]:
                chains.append([len(next(iter(f))), 0])
            chains[-1][1] += 1
            depth[0] += 1
            try:
                return iresultant(f, g, m, n)
            finally:
                depth[0] -= 1

        monkeypatch.setattr(poly, "_heu_gcd", counted("heu", heu))
        monkeypatch.setattr(poly, "_prs_gcd", counted("prs", prs))
        monkeypatch.setattr(upoly, "_prs_gcd", counted("list prs", upoly._prs_gcd))
        monkeypatch.setattr(poly, "_iresultant", chained)
        code, _, _ = run("analyze", f"--alpha={alpha}")
        assert code == 0
        assert counts["heu"] > 0 and counts["prs"] == 0
        assert counts["list prs"] == 0
        assert any(variables == 2 for variables, _ in chains)
        assert all(calls == variables for variables, calls in chains)

    @pytest.mark.parametrize("alpha", ["1", "19/2", "12345/678"])
    def test_singular_points_are_searched_once(self, run, monkeypatch, alpha):
        """One ``analyze`` searches the rational singular points of a curve
        once, on the residual, and the total-space step takes no resultant:
        it reads its points off the certified modification.  A second
        search would leave the output unchanged and only cost time, so it
        is counted here instead."""
        counts = {"search": 0, "resultant": 0}
        in_total_space = [False]
        search, iresultant = planecurve.rational_singular_points, poly._iresultant
        total_space = weierstrass.WeierstrassFibration.total_space_singularities

        def searched(*args):
            counts["search"] += 1
            return search(*args)

        def counted_resultant(*args):
            counts["resultant"] += in_total_space[0]
            return iresultant(*args)

        def total_space_step(fib, mod):
            in_total_space[0] = True
            try:
                return total_space(fib, mod)
            finally:
                in_total_space[0] = False

        for module in (planecurve, blowup, weierstrass):
            if hasattr(module, "rational_singular_points"):
                monkeypatch.setattr(module, "rational_singular_points", searched)
        monkeypatch.setattr(poly, "_iresultant", counted_resultant)
        monkeypatch.setattr(
            weierstrass.WeierstrassFibration, "total_space_singularities", total_space_step
        )
        code, _, _ = run("analyze", f"--alpha={alpha}")
        assert code == 0
        assert counts == {"search": 1, "resultant": 0}

    def test_integrals_and_level_are_computed_once(self, run, monkeypatch):
        """One ``bracket-check`` builds H3 once and takes at most 4 x 6
        partial derivatives; one ``sample-fiber --count 4`` computes
        (g2, g3) once.  Repeated work would leave the output unchanged and
        only cost time, so it is counted here instead."""
        counts = {"energy": 0, "partial": 0, "g2_g3": 0}

        def counted(name, inner):
            def wrapper(*args):
                counts[name] += 1
                return inner(*args)

            return wrapper

        monkeypatch.setattr(lagrange, "_energy", counted("energy", lagrange._energy))
        monkeypatch.setattr(poly, "_ipartial", counted("partial", poly._ipartial))
        monkeypatch.setattr(lagrange, "g2_g3", counted("g2_g3", lagrange.g2_g3))
        code, out, _ = run("bracket-check", "--m=1/2")
        assert code == 0 and json.loads(out)["all_zero"] is True
        assert counts["energy"] == 1
        assert 0 < counts["partial"] <= 4 * 6
        code, out, _ = run("sample-fiber", "--h3=3/5", "--h4=2/7", "--a=1/3", "--m=1/2", "--count=4")
        assert code == 0 and len(json.loads(out)["points"]) == 4
        assert counts["g2_g3"] == 1

    @pytest.mark.parametrize("alpha", sorted(GOLDEN_ANALYZE))
    def test_substitutions_and_linear_roots_take_the_integer_kernels(self, run, monkeypatch, alpha):
        """Substitutions run the integer specialization kernel (a polynomial
        image would be a ``TypeError``), and no linear polynomial reaches
        the p-adic root search.

        A fallback would leave the output unchanged and only cost time, so
        it is counted here instead.
        """
        counts = {"specialize": 0, "linear p-adic": 0}
        specialize, padic = poly._specialize, upoly.padic_candidates

        def counted(name, inner):
            def wrapper(*args):
                counts[name] += 1
                return inner(*args)

            return wrapper

        def lifted(sf):
            counts["linear p-adic"] += len(sf) == 2
            return padic(sf)

        monkeypatch.setattr(poly, "_specialize", counted("specialize", specialize))
        monkeypatch.setattr(upoly, "padic_candidates", lifted)
        code, out, _ = run("analyze", f"--alpha={alpha}")
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest()[:16] == GOLDEN_ANALYZE[alpha]
        assert counts["specialize"] > 0
        assert counts["linear p-adic"] == 0

    def test_golden_sweep_of_small_alpha(self, run):
        """One hash over the ``analyze`` stdout at the 108 alpha = p/q with
        |p| <= 9, 1 <= q <= 9, off {0, +-4}, in increasing order."""
        alphas = sorted({Fraction(p, q) for p in range(-9, 10) for q in range(1, 10)} - {0, 4, -4})
        assert len(alphas) == 108
        digest = hashlib.sha256()
        for alpha in alphas:
            code, out, _ = run("analyze", f"--alpha={alpha}")
            assert code == 0
            digest.update(out.encode())
        assert digest.hexdigest()[:16] == GOLDEN_SWEEP

    @pytest.mark.parametrize("alpha", sorted(GOLDEN_ANALYZE))
    def test_blow_ups_take_the_exponent_maps(self, run, monkeypatch, alpha):
        """A blow-up at a chart origin divides nothing and substitutes
        nothing, a point is classified from the 2-jets of its branches with
        no product of germs and no shift, the point towers take their
        discriminant from the fibration, and the contact tower computes
        the discriminant of its germ at most once per process.

        Each slowdown would leave the output unchanged, so it is counted here.
        """
        counts = {
            "towers": 0, "origin blow-ups": 0, "_idiv": 0, "substitute": 0,
            "point products": 0, "point shifts": 0,
        }
        at_origin = [False]  # inside the blow-up step of an origin center
        at_point = [False]  # inside _process_point, outside any blow-up it starts
        roots = []  # coordinates and history of each model that computes its own discriminant
        run_tower, blow_up, scan, process = (
            getattr(blowup._TowerDriver, name)
            for name in ("run", "_blow_up", "_scan_chart", "_process_point")
        )
        init = blowup.LocalModel.__init__

        def counted(name, inner, flag=at_origin):
            def wrapper(*args):
                counts[name] += flag[0]
                return inner(*args)

            return wrapper

        def flagged(inner, origin_of):
            def wrapper(walker, *args):
                saved, at_origin[0] = at_origin[0], origin_of(args)
                saved_point, at_point[0] = at_point[0], inner is process
                try:
                    return inner(walker, *args)
                finally:
                    at_origin[0], at_point[0] = saved, saved_point

            return wrapper

        def towers(walker, *args):
            counts["towers"] += 1
            return run_tower(walker, *args)

        def origin(args):  # (model, divisors, point)
            centered = not any(args[2])
            counts["origin blow-ups"] += centered
            return centered

        def computing(model, coords, a, b, history=(), t_record=(), discriminant=None):
            if discriminant is None:
                roots.append((coords, history))
            init(model, coords, a, b, history, t_record, discriminant)

        monkeypatch.setattr(blowup._TowerDriver, "run", towers)
        # root finding on the exceptional divisor may divide; it is not the blow-up step
        monkeypatch.setattr(blowup._TowerDriver, "_blow_up", flagged(blow_up, origin))
        monkeypatch.setattr(blowup._TowerDriver, "_scan_chart", flagged(scan, lambda args: False))
        monkeypatch.setattr(
            blowup._TowerDriver, "_process_point", flagged(process, lambda args: False)
        )
        monkeypatch.setattr(blowup.LocalModel, "__init__", computing)
        monkeypatch.setattr(poly, "_idiv", counted("_idiv", poly._idiv))
        monkeypatch.setattr(poly.MultiPoly, "substitute", counted("substitute", poly.MultiPoly.substitute))
        for name in ("__mul__", "__rmul__"):
            inner = getattr(poly.MultiPoly, name)
            monkeypatch.setattr(poly.MultiPoly, name, counted("point products", inner, at_point))
        shift = poly.MultiPoly.shift
        monkeypatch.setattr(poly.MultiPoly, "shift", counted("point shifts", shift, at_point))
        code, out, _ = run("analyze", f"--alpha={alpha}")
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest()[:16] == GOLDEN_ANALYZE[alpha]
        assert counts["towers"] == 3 and counts["origin blow-ups"] > 0
        assert counts["_idiv"] == counts["substitute"] == 0
        assert counts["point products"] == counts["point shifts"] == 0
        # the contact tower's germ is the one root; the cache builds it once per process
        assert roots in ([], [(("s1", "s2"), ())])


# Where the report gives a point in a1 / A1 coordinates: the index of a1
# in the chart point of a residual node, of A1 in a projective crossing.
A1_INDEX = {"node of the residual curve": 0, "crossing on the discriminant": 1}


def _report_up_to_a1_sign(report, sign):
    """The ``analyze`` report with alpha and every a1 / A1 coordinate times
    ``sign``; the collisions at points of the base plane and the
    total-space points as sorted lists, since negating a1 reorders them."""

    def scaled(point, i):
        return point[:i] + [str(sign * Fraction(point[i]))] + point[i + 1:]

    key = functools.partial(json.dumps, sort_keys=True)
    sites, towers = [], []
    for c in report["collisions"]:
        i = A1_INDEX.get(c["where"])
        if i is None:
            towers.append(c)
        else:
            sites.append({**c, "point": scaled(c["point"], i)} if "point" in c else c)
    points = [
        {**s, "base_point": scaled(s["base_point"], 1)} if "base_point" in s else s
        for s in report["total_space_singularities"]
    ]
    return {
        **report,
        "alpha": str(sign * Fraction(report["alpha"])),
        "collisions": [sorted(sites, key=key), towers],
        "total_space_singularities": sorted(points, key=key),
    }


@pytest.mark.parametrize("alpha", ["1", "7/3", "-5/9", "101/13"])
def test_alpha_sign_symmetry(run, alpha):
    """alpha -> -alpha, a1 -> -a1 fixes both sections, so the report at
    -alpha is the report at alpha with every a1 / A1 coordinate negated."""
    reports = [
        json.loads(run("analyze", f"--alpha={value}")[1])["report"]
        for value in (alpha, -Fraction(alpha))
    ]
    assert _report_up_to_a1_sign(reports[0], -1) == _report_up_to_a1_sign(reports[1], 1)


class TestBlowupDemo:
    def test_cusp_charts(self, run):
        code, out, _ = run("blowup-demo", "cusp")
        assert code == 0
        payload = json.loads(out)["demo"]
        assert payload["blow_ups"] == 3
        deltas = {c["delta_hat"] for c in payload["final_charts"]}
        assert deltas == {
            "-27*x3^6*y3^4 + x3^6*y3^3",
            "p3^3*q3^6 - 27*p3^2*q3^6",
        }

    def test_p001(self, run):
        code, out, _ = run("blowup-demo", "p001")
        payload = json.loads(out)["demo"]
        tags = {d["name"]: d["kodaira"]["tag"] for d in payload["divisors"]}
        assert tags == {"E1": "I2*", "E2": "I4"}


class TestBracketCheck:
    def test_all_zero(self, run):
        code, out, _ = run("bracket-check", "--m", "1/2")
        payload = json.loads(out)
        assert payload["all_zero"] is True
        assert payload["casimirs_central"] is True
        assert set(payload["conservation"].values()) == {"0"}

    def test_excluded_m_rejected(self, run):
        assert_rejected(run("bracket-check", "--m", "-1"), "1 + m")


class TestSampleFiber:
    def test_residuals_reported(self, run):
        code, out, _ = run(
            "sample-fiber", "--h3", "3/5", "--h4", "2/7", "--a", "1/3", "--m", "1/2",
            "-n", "3", "--seed", "11",
        )
        assert code == 0
        payload = json.loads(out)
        assert len(payload["points"]) == 3
        for point in payload["points"]:
            assert float(point["cubic_residual"]) < 1e-9
            assert len(point["gamma"]) == 3

    def test_excluded_m_rejected(self, run):
        args = ("sample-fiber", "--h3", "3/5", "--h4", "2/7", "--a", "1/3")
        assert_rejected(run(*args, "--m=-1"), "1 + m")

    def test_negative_count_rejected(self, run):
        args = ("sample-fiber", "--h3=1", "--h4=2", "--a=1", "--m=1")
        assert_rejected(run(*args, "--count=-1"), "-1")

    def test_count_cap_boundary(self, run):
        """The cap is sampled; one past it is rejected, and a huge count is
        rejected at once and quoted by its start."""
        args = ("sample-fiber", "--h3=3/5", "--h4=2/7", "--a=1/3", "--m=1/2")
        cap = cli.MAX_SAMPLES
        code, out, _ = run(*args, f"--count={cap}")
        assert code == 0
        assert len(json.loads(out)["points"]) == cap
        code, out, err = run(*args, f"--count={cap + 1}")
        assert_rejected((code, out, err), f"0..{cap}, got {cap + 1}")
        start = time.perf_counter()
        code, out, err = run(*args, f"--count={10**4000}")
        assert time.perf_counter() - start < 1.0
        assert_rejected((code, out, err), "got 100000000000...")
        assert len(err) < 80

    def test_uncertifiable_level_set_is_an_error(self, run):
        code, out, err = run(
            "sample-fiber", "--h3", "1000000000000", "--h4", "1000000", "--a", "1000000000",
            "--m", "1/2",
        )
        assert code == 1
        assert out == ""
        assert err == "error: no nondegenerate sample within retry budget\n"

    @pytest.mark.parametrize(
        "option, value", [("--h3", "1e400"), ("--h4", "-1e309"), ("--a", "1e400"), ("--m", "1e400")]
    )
    def test_parameter_without_a_finite_float_rejected(self, run, option, value):
        args = {"--h3": "1", "--h4": "2", "--a": "1", "--m": "1", option: value}
        argv = [f"{k}={v}" for k, v in args.items()]
        assert_rejected(run("sample-fiber", *argv), f"{option} has no finite float value")

    @pytest.mark.parametrize("args", [("--h4=1e200", "--a=1"), ("--h4=1", "--a=1e200")])
    def test_overflow_while_sampling_is_an_error(self, run, args):
        code, out, err = run("sample-fiber", "--h3=1", *args, "--m=1")
        assert code == 1
        assert out == ""
        assert err == "error: float overflow while sampling: complex exponentiation\n"

    def test_overflow_after_some_points_prints_nothing(self, run, monkeypatch):
        sample = cli._sample_json

        def overflowing(level, seed):
            if seed == 2:
                raise OverflowError("complex exponentiation")
            return sample(level, seed)

        monkeypatch.setattr(cli, "_sample_json", overflowing)
        code, out, err = run("sample-fiber", "--h3=3/5", "--h4=2/7", "--a=1/3", "--m=1/2", "-n", "5")
        assert code == 1
        assert out == ""
        assert err == "error: float overflow while sampling: complex exponentiation\n"

    def test_points_are_rendered_as_they_are_sampled(self):
        """No point's record is kept to the end.  Measured with tracemalloc
        at --count 1000 (0.72 MB of output): a peak of 2.23 MB, 3.1 times
        the text, against 4.02 MB (5.6 times) when every record was kept
        until the end; the bound is four times the text."""
        argv = ["sample-fiber", "--h3=3/5", "--h4=2/7", "--a=1/3", "--m=1/2", "-n"]
        with contextlib.redirect_stdout(io.StringIO()):
            assert main([*argv, "1"]) == 0  # the parser and the level's set-up
        out = io.StringIO()
        tracemalloc.start()
        try:
            with contextlib.redirect_stdout(out):
                code = main([*argv, "1000"])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 0 and len(json.loads(out.getvalue())["points"]) == 1000
        assert peak < 4 * len(out.getvalue())

    def test_negative_values_as_separate_tokens(self, run):
        spaced = run("sample-fiber", "--h3", "-3/5", "--h4", "-2/7", "--a", "-1/3", "--m", "-1/2")
        joined = run("sample-fiber", "--h3=-3/5", "--h4=-2/7", "--a=-1/3", "--m=-1/2")
        assert spaced[0] == 0
        assert spaced == joined


class TestMonodromyCommand:
    def test_solutions(self, run):
        code, out, _ = run("monodromy", "--bound", "10")
        payload = json.loads(out)
        assert payload["node_solutions"] == [[[1, 1], [0, 1]]]
        assert payload["cusp_normal_forms"] == ["[[1, 0], [-1, 1]]"]
        assert payload["braid_certificate"] is True

    def test_negative_bound_rejected(self, run):
        assert_rejected(run("monodromy", "--bound=-3"), "-3")

    def test_bound_cap_boundary(self, run):
        """The cap is solved; one past it is rejected, and a huge bound is
        rejected at once and quoted by its start."""
        cap = cli.MAX_BOUND
        code, out, _ = run("monodromy", f"--bound={cap}")
        assert code == 0
        payload = json.loads(out)
        assert payload["node_solutions"] == [[[1, 1], [0, 1]]]
        # T^k [[1,0],[-1,1]] T^-k = [[1-k, k^2], [-1, 1+k]] for k^2 <= cap
        assert len(payload["cusp_solutions"]) == 2 * math.isqrt(cap) + 1
        code, out, err = run("monodromy", f"--bound={cap + 1}")
        assert_rejected((code, out, err), f"0..{cap}, got {cap + 1}")
        start = time.perf_counter()
        code, out, err = run("monodromy", f"--bound={10**20}")
        assert time.perf_counter() - start < 1.0
        assert_rejected((code, out, err), "got 100000000000...")
        assert len(err) < 80


JSON_SCALARS = st.one_of(
    st.none(), st.booleans(), st.integers(-(10**40), 10**40), st.text()
)
JSON_VALUES = st.recursive(
    JSON_SCALARS,
    lambda children: st.one_of(
        st.lists(children),
        st.lists(children).map(tuple),
        st.dictionaries(st.text(), children),
    ),
    max_leaves=30,
)


class TestWriteJson:
    """``cli._write_json`` prints what ``json.dumps(sort_keys=True, indent=2)`` prints."""

    @given(JSON_VALUES)
    @example({"k\u00e9y": ['"quoted"', "tab\there\n", "\x00\x1f\x7f", "\u2603\U0001f600\ud800"]})
    @example({"b": [True, False, None, -(2**100), 0], "a": {}, "": [[], ()]})
    @settings(max_examples=200, deadline=None)
    def test_matches_json_dumps(self, obj):
        assert cli._write_json(obj) == json.dumps(obj, sort_keys=True, indent=2)

    def test_shared_fragments_are_rendered_once_per_indent(self):
        data = KodairaType("I2*").to_json()
        payload = {"a": [data, {"b": data}], "c": data}
        assert cli._write_json(payload) == json.dumps(payload, sort_keys=True, indent=2)
        assert set(data.texts) == {"\n  ", "\n    ", "\n      "}
        assert data["dual_graph"].texts.keys() == {"\n    ", "\n      ", "\n        "}
        # a later write reads the kept text
        data.texts["\n  "] = '"kept"'
        assert cli._write_json({"c": data}) == '{\n  "c": "kept"\n}'

    def test_generators_are_written_as_lists(self):
        drawn = []

        def items():
            for i in range(3):
                drawn.append(i)
                yield {"i": i}

        obj = {"n": 3, "points": items()}
        assert cli._write_json(obj) == json.dumps(
            {"n": 3, "points": [{"i": 0}, {"i": 1}, {"i": 2}]}, sort_keys=True, indent=2
        )
        assert drawn == [0, 1, 2]

    @pytest.mark.parametrize(
        "obj, message",
        [
            ({"a": [1, 0.5]}, "floats are not emitted"),
            ({"a": {1: "x"}}, "non-string JSON key 1"),
            ([Fraction(1, 2)], "non-JSON value Fraction(1, 2)"),
            ({"a": {"x"}}, "non-JSON value {'x'}"),
        ],
    )
    def test_rejects_what_would_not_serialize_deterministically(self, obj, message):
        with pytest.raises(TypeError, match=re.escape(message)):
            cli._write_json(obj)

    @pytest.mark.parametrize(
        "argv",
        [
            ("analyze", "--alpha=1"),
            ("classify-triple", "2", "3", "7"),
            ("collide", "I4", "I2*"),
            ("blowup-demo", "cusp"),
            ("bracket-check", "--m=1/2"),
            ("sample-fiber", "--h3=3/5", "--h4=2/7", "--a=1/3", "--m=1/2", "-n", "2"),
            ("monodromy", "--bound=10"),
        ],
    )
    def test_every_subcommand_prints_canonical_json(self, run, argv):
        code, out, _ = run(*argv)
        assert code == 0
        assert out == json.dumps(json.loads(out), sort_keys=True, indent=2) + "\n"


class TestInputValidation:
    def test_float_rejected(self, run):
        with pytest.raises(SystemExit):
            run("analyze", "--alpha", "0.5x")

    @pytest.mark.parametrize(
        "argv",
        [
            ("analyze", "--alpha=1e5000"),
            ("bracket-check", "--m=-1e-5000"),
            ("sample-fiber", "--h3=1", "--h4=1", "--a=1e-1_000_000", "--m=1"),
        ],
    )
    def test_exponent_past_the_digit_limit_rejected(self, capsys, argv):
        """Refused before the power of ten is built, with argparse's exit 2."""
        start = time.perf_counter()
        with pytest.raises(SystemExit) as exc:
            cli.build_parser().parse_args(list(argv))
        assert time.perf_counter() - start < 1.0
        assert exc.value.code == 2
        assert "over 4300 digits" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv, option",
        [
            (("monodromy", "--bound=" + "1" * 5000), "--bound"),
            (("sample-fiber", "--h3=1", "--h4=1", "--a=1", "--m=1", "--seed=" + "1" * 5000), "--seed"),
            (("sample-fiber", "--h3=1", "--h4=1", "--a=1", "--m=1", "-n", "9" * 5000), "-n/--count"),
            (("classify-triple", "1" * 5000, "1", "1"), "L"),
            (("monodromy", "--bound=" + "x" * 5000), "--bound"),
            (("analyze", "--alpha=" + "x" * 5000), "--alpha"),
        ],
    )
    def test_long_values_quoted_short(self, capsys, argv, option):
        """A value that is no integer, or no rational, is quoted by its
        start: argparse's usage and one error line of under 200 bytes."""
        with pytest.raises(SystemExit) as exc:
            cli.build_parser().parse_args(list(argv))
        assert exc.value.code == 2
        err = capsys.readouterr().err
        line = err.splitlines()[-1]
        assert line.startswith("fibrant ") and f"argument {option}" in line
        assert "..." in line and len(line.encode()) < 200
        assert err.startswith("usage: ") and err.count(": error: ") == 1

    @pytest.mark.parametrize(
        "text, value", [("0", 0), ("-7", -7), (" +12 ", 12), ("1_000", 1000), ("1" * 4300, int("1" * 4300))]
    )
    def test_integers_as_int_reads_them(self, text, value):
        assert cli._integer(text) == value

    @pytest.mark.parametrize(
        "text, value",
        [("1e4299", Fraction(10**4299)), ("-25e-2", Fraction(-1, 4)), ("3/2", Fraction(3, 2))],
    )
    def test_exponents_within_the_limit_accepted(self, text, value):
        assert cli._rational(text) == value

    def test_version_key_present(self, run):
        _, out, _ = run("classify-triple", "0", "0", "1")
        assert "version" in json.loads(out)


class TestParserReuse:
    """One parser serves every call in a process; no value carries over."""

    SEQUENCE = (
        ("analyze", "--alpha=1", "--format", "md"),
        ("analyze", "--alpha=1"),
        ("sample-fiber", "--h3=3/5", "--h4=2/7", "--a=1/3", "--m=1/2", "-n", "2", "--seed=5"),
        ("sample-fiber", "--h3=3/5", "--h4=2/7", "--a=1/3", "--m=1/2"),
        ("blowup-demo", "p001", "--alpha=7/3"),
        ("blowup-demo", "p001"),
    )

    def test_parser_is_built_once(self):
        assert cli.build_parser() is cli.build_parser()

    def test_consecutive_calls_print_what_fresh_calls_print(self, run):
        src = str(Path(fibrant.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=src)
        outputs = [run(*argv) for argv in self.SEQUENCE]
        assert outputs[0][1] != outputs[1][1] and outputs[2][1] != outputs[3][1]
        for argv, (code, out, err) in zip(self.SEQUENCE, outputs):
            fresh = subprocess.run(
                [sys.executable, "-m", "fibrant.cli", *argv], env=env, capture_output=True, text=True
            )
            assert (code, out, err) == (fresh.returncode, fresh.stdout, fresh.stderr), argv


def test_cli_import_loads_no_code_generator():
    """A fresh ``import fibrant.cli`` loads neither ``dataclasses`` nor
    ``inspect``; ``-S`` keeps any ``site`` hook from deciding the result."""
    src = str(Path(fibrant.__file__).resolve().parents[1])
    script = (
        f"import sys; sys.path.insert(0, {src!r}); import fibrant.cli; "
        "print(*sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    )
    done = subprocess.run(
        [sys.executable, "-S", "-c", script], capture_output=True, text=True, check=True
    )
    assert done.stdout.split() == []


def test_cli_import_loads_only_stdlib_and_fibrant():
    """fibrant is stdlib-only: importing the CLI pulls in nothing else."""
    script = (
        "import sys\n"
        "before = set(sys.modules)\n"
        "import fibrant.cli\n"
        "print(*sorted(set(sys.modules) - before))\n"
    )
    src = str(Path(fibrant.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, check=True
    )
    loaded = done.stdout.split()
    assert "fibrant.cli" in loaded
    foreign = [
        name
        for name in loaded
        if name.split(".")[0] != "fibrant" and name.split(".")[0] not in sys.stdlib_module_names
    ]
    assert foreign == []
