import hashlib
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import fibrant
from fibrant import poly
from fibrant.cli import main


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

    @pytest.mark.parametrize("pair", [("I00", "II"), ("I01", "I1"), ("I1", "I002*"), ("I\uff11", "I1")])
    def test_non_canonical_tag_rejected(self, run, pair):
        assert_rejected(run("collide", *pair), "unknown Kodaira tag")


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

    @pytest.mark.parametrize("alpha", sorted(GOLDEN_ANALYZE))
    def test_json(self, run, alpha):
        code, out, _ = run("analyze", f"--alpha={alpha}")
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest()[:16] == GOLDEN_ANALYZE[alpha]

    @pytest.mark.parametrize("alpha", sorted(GOLDEN_ANALYZE_MD))
    def test_markdown(self, run, alpha):
        code, out, _ = run("analyze", f"--alpha={alpha}", "--format", "md")
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest()[:16] == GOLDEN_ANALYZE_MD[alpha]

    @pytest.mark.parametrize("alpha", sorted(GOLDEN_ANALYZE))
    def test_json_through_prs_fallback(self, run, monkeypatch, alpha):
        # Every gcd through the subresultant PRS gives the same output.
        monkeypatch.setattr(poly, "_heu_gcd", lambda f, g: None)
        code, out, _ = run("analyze", f"--alpha={alpha}")
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest()[:16] == GOLDEN_ANALYZE[alpha]

    @pytest.mark.parametrize("alpha", sorted(GOLDEN_ANALYZE))
    def test_eliminations_take_the_fast_paths(self, run, monkeypatch, alpha):
        """No gcd falls back to the PRS; each resultant evaluates once per level.

        A fallback would leave the output unchanged and only cost time, so
        it is counted here instead.
        """
        heu, prs, iresultant = poly._heu_gcd, poly._prs_gcd, poly._iresultant
        counts = {"heu": 0, "prs": 0}
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
        monkeypatch.setattr(poly, "_iresultant", chained)
        code, _, _ = run("analyze", f"--alpha={alpha}")
        assert code == 0
        assert counts["heu"] > 0 and counts["prs"] == 0
        assert any(variables == 2 for variables, _ in chains)
        assert all(calls == variables for variables, calls in chains)


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


class TestInputValidation:
    def test_float_rejected(self, run):
        with pytest.raises(SystemExit):
            run("analyze", "--alpha", "0.5x")

    def test_version_key_present(self, run):
        _, out, _ = run("classify-triple", "0", "0", "1")
        assert "version" in json.loads(out)


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
