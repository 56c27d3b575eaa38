"""cli module: subcommands, exit codes, determinism, round trips."""

import hashlib
import json
import os
import subprocess
import sys

import pytest

from lexdist.cli import main


@pytest.fixture
def files(tmp_path):
    def write(name, data):
        path = tmp_path / name
        path.write_text(json.dumps(data))
        return str(path)

    return {
        "mono": write("mono.json", {"n": 2, "gens": [[2, 0], [1, 1]]}),
        "poly": write("poly.json", {"n": 2, "polys": ["x1^2 + x1*x2"]}),
        "shakin": write("shakin.json", {"n": 2, "pieces": [], "powers": [2, 2]}),
        "shakin_pl": write("shakin_pl.json",
                           {"n": 2, "pieces": [{"i": 1, "gens": [[2]]}], "powers": []}),
        "distraction": write("d.json", {
            "n": 2,
            "rows": [[{"c": [1, 0]}, {"c": [1, 1]}], [{"c": [0, 1]}]],
        }),
        "bad_base": write("bad.json", {"n": 2, "gens": [[0, 2]]}),
        "tmp": tmp_path,
    }


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, (json.loads(out) if out else None)


def test_hilbert_monomial(capsys, files):
    code, data = run(capsys, "hilbert", "--ideal", files["mono"], "--dmax", "6")
    assert code == 0
    assert data["values"] == [1, 2, 1, 1, 1, 1, 1]
    assert data["v"] == 1


def test_hilbert_order_is_deprecated_and_ignored(capsys, files):
    argv = ["hilbert", "--ideal", files["mono"], "--dmax", "6"]
    assert main(argv) == 0
    plain = capsys.readouterr()
    assert main(argv + ["--order", "lex"]) == 0
    flagged = capsys.readouterr()
    assert flagged.out == plain.out
    assert plain.err == ""
    assert flagged.err == "lexdist: --order is deprecated and ignored\n"


def test_hilbert_polynomial_input(capsys, files):
    code, data = run(capsys, "hilbert", "--ideal", files["poly"], "--dmax", "4")
    assert code == 0
    assert data["values"] == [1, 2, 2, 2, 2]


def test_hilbert_round_trips_into_embed(capsys, files, tmp_path):
    art = tmp_path / "art.json"
    art.write_text(json.dumps({"n": 2, "gens": [[2, 0], [1, 1], [0, 2]]}))
    code, hf = run(capsys, "hilbert", "--ideal", str(art), "--dmax", "4")
    assert code == 0
    hf_file = tmp_path / "hf.json"
    hf_file.write_text(json.dumps(hf))
    code, data = run(capsys, "embed", "--shakin", files["shakin"], "--hf", str(hf_file))
    assert code == 0
    assert data["ideal"]["gens"] == [[0, 2], [1, 1], [2, 0]]


def test_embed_example(capsys, files):
    code, data = run(capsys, "embed", "--shakin", files["shakin"], "--hf", "[1,1,0]")
    assert code == 0
    assert data["ideal"]["gens"] == [[1, 0], [0, 2]]


def test_embed_not_admissible_exit_code(capsys, files):
    code, data = run(capsys, "embed", "--shakin", files["shakin"], "--hf", "[1,3,0]")
    assert code == 1
    assert data["error"] == "not-admissible"
    assert data["degree"] == 1


def test_lexify(capsys):
    code, data = run(capsys, "lexify", "--n", "2", "--hf", "[1,2,2,0]")
    assert code == 0
    assert data["ideal"]["gens"] == [[2, 0], [0, 3], [1, 2]]


def test_lexify_and_embed_with_no_variables(capsys, files):
    code, data = run(capsys, "lexify", "--n", "0", "--hf", "[1]")
    assert code == 0 and data["ideal"] == {"gens": [], "n": 0}
    code, data = run(capsys, "lexify", "--n", "0", "--hf", "[0]")
    assert code == 0 and data["ideal"] == {"gens": [[]], "n": 0}
    path = files["tmp"] / "k.json"
    path.write_text(json.dumps({"n": 0, "gens": []}))
    code, data = run(capsys, "embed", "--shakin", str(path), "--hf", "[1,0]")
    assert code == 0 and data["ideal"] == {"gens": [], "n": 0}


def test_lexify_rejects_non_o_sequence(capsys):
    code, data = run(capsys, "lexify", "--n", "2", "--hf", "[1,3]")
    assert code == 1
    assert data["error"] == "no-such-ideal"
    assert data["degree"] == 1


def test_distract(capsys, files):
    code, data = run(capsys, "distract", "--ideal", files["mono"],
                     "--distraction", files["distraction"])
    assert code == 0
    assert data["polys"] == ["x1*x2", "x1^2 + x1*x2"]


def test_polarize(capsys, files):
    code, data = run(capsys, "polarize", "--ideal", files["mono"])
    assert code == 0
    assert data["extended_n"] == 5
    assert sorted(data["polarized"]["gens"]) == [[0, 0, 1, 0, 1], [0, 0, 1, 1, 0]]


def test_betti(capsys, files):
    code, data = run(capsys, "betti", "--ideal", files["mono"], "--dmax", "5")
    assert code == 0
    assert data["entries"] == {"0,0": 1, "1,2": 2, "2,3": 1}


def test_betti_rejects_non_prime_characteristic(capsys, files):
    code, data = run(capsys, "betti", "--ideal", files["mono"], "--dmax", "5", "--char", "4")
    assert code == 2
    assert data["error"] == "invalid-input"


def test_localcoh(capsys, files):
    code, data = run(capsys, "localcoh", "--ideal", files["mono"], "--window=-3:2")
    assert code == 0
    assert data["entries"]["0,1"] == 1
    assert data["window_truncated"] is True


def test_verify_pass_and_fail_exit_codes(capsys, files):
    code, data = run(capsys, "verify", "macaulay-lex",
                     "--shakin", files["shakin"], "--dmax", "4")
    assert code == 0 and data["passed"]
    code, data = run(capsys, "verify", "macaulay-lex",
                     "--shakin", files["bad_base"], "--dmax", "4")
    assert code == 1 and not data["passed"]


def test_verify_betti_extremal_rejects_non_prime_characteristic(capsys, files):
    code, data = run(capsys, "verify", "betti-extremal", "--shakin", files["shakin"],
                     "--dmax", "3", "--char", "1")
    assert code == 2
    assert data["error"] == "invalid-input"


def test_verify_budget_exit_code(capsys, files, tmp_path):
    zero = tmp_path / "zero.json"
    zero.write_text(json.dumps({"n": 3, "gens": []}))
    code, data = run(capsys, "verify", "macaulay-lex",
                     "--shakin", str(zero), "--dmax", "3", "--budget", "5")
    assert code == 3
    assert data["error"] == "budget-exceeded"


def test_verify_sampled_kinds(capsys, files):
    code, data = run(capsys, "verify", "codistra-h0", "--n", "2", "--dmax", "4",
                     "--samples", "5", "--seed", "3")
    assert code == 0
    code, data = run(capsys, "verify", "distraction-hf",
                     "--shakin", files["shakin_pl"], "--dmax", "3",
                     "--distraction", files["distraction"], "--samples", "5")
    assert code == 0


@pytest.mark.parametrize("kind", ["betti-invariance", "codistra-h0"])
@pytest.mark.parametrize("n", ["0", "-1"])
def test_verify_sampled_kinds_reject_fewer_than_one_variable(capsys, kind, n):
    code, data = run(capsys, "verify", kind, "--n", n, "--dmax", "3", "--samples", "2")
    assert code == 2
    assert data["error"] == "invalid-input"


def test_verify_sampled_kinds_reject_a_negative_sample_count(capsys, files):
    ring = ["--shakin", files["shakin_pl"], "--distraction", files["distraction"]]
    for argv in (["betti-invariance"], ["codistra-h0"],
                 ["distraction-hf", *ring], ["epsilon-d-extremal", *ring]):
        code, data = run(capsys, "verify", *argv, "--dmax", "3", "--samples", "-3")
        assert code == 2, argv
        assert data["error"] == "invalid-input"


def test_unknown_subcommand_exits_2(capsys):
    assert main(["frobnicate"]) == 2


def test_byte_identical_output(capsys, files, tmp_path):
    out1 = tmp_path / "a.json"
    out2 = tmp_path / "b.json"
    for out in (out1, out2):
        code = main(["verify", "codistra-h0", "--n", "2", "--dmax", "4",
                     "--samples", "4", "--seed", "9", "--out", str(out)])
        assert code == 0
    assert out1.read_bytes() == out2.read_bytes()


# sha256 of the `verify ARGS --out` bytes, with the expected exit code.
# The three exhaustive kinds run over the non-Shakin base (x2*x3) at dmax 3:
# 490 cases each.  Their ClosureError failures are recorded per ideal, so a
# cache keyed too coarsely would drop or reorder entries and change the
# digest.  betti-extremal and coh-extremal also run at dmax 4 over the
# Shakin ring (x1^2) with pure powers (2, 3), 706 passing cases each, where
# the homology and Hilbert-numerator memos are hit most; coh-extremal also
# over plain (x1^2), 3266 passing cases.  The sampled kinds pin their seeded
# cases and failure payloads.  {raw}, {ring}, {x1sq} and {d} stand for the
# files holding RAW_BASE, SHAKIN_RING, X1SQ_RING and DISTRACTION.
RAW_BASE = {"n": 3, "gens": [[0, 1, 1]]}
SHAKIN_RING = {"n": 3, "pieces": [{"i": 1, "gens": [[2]]}], "powers": [2, 3]}
X1SQ_RING = {"n": 3, "pieces": [{"i": 1, "gens": [[2]]}], "powers": []}
DISTRACTION = {"n": 3, "char": 32003, "rows": [
    [{"c": [1, 0, 0]}, {"c": [1, 5, 0]}, {"c": [1, 0, 7]}],
    [{"c": [0, 1, 0]}, {"c": [3, 1, 0]}, {"c": [0, 1, 2]}],
    [{"c": [0, 0, 1]}, {"c": [4, 0, 1]}, {"c": [0, 9, 1]}],
]}
GOLDEN_REPORTS = {
    "macaulay-lex": (
        "macaulay-lex --dmax 3 --shakin {raw}", 1,
        "ba46c214759aacf1fe495e56866b8f21adda6a2b38696e21261b75748fc5e0cc"),
    "betti-extremal": (
        "betti-extremal --dmax 3 --shakin {raw}", 1,
        "821ebd78396ce311b654a5215c1a3ec3a1af88e82042e2c52f23fe698af46ad8"),
    "betti-extremal-shakin-dmax4": (
        "betti-extremal --dmax 4 --shakin {ring}", 0,
        "08020ee09abd2b4066ee91f4b518c18b5efc9b6b863f78271fd948caaa2044a5"),
    "coh-extremal": (
        "coh-extremal --dmax 3 --shakin {raw}", 1,
        "608170bd0105bd277efc7c1fa7fcf8fb5e795f0ca2455fa4cc228a20dd4a166a"),
    "coh-extremal-shakin-dmax4": (
        "coh-extremal --dmax 4 --shakin {ring}", 0,
        "5c314b93ae54523c47c6d28c5db34fd16b0e5e024727347f6c8f71f1c0dd8789"),
    "coh-extremal-x1sq-dmax4": (
        "coh-extremal --dmax 4 --shakin {x1sq}", 0,
        "7850422907a698526d1b00bb9fb259027e46030ea07ac7917dba7f7e57bf7199"),
    "distraction-hf": (
        "distraction-hf --dmax 4 --shakin {raw} --distraction {d} --samples 30 --seed 5", 1,
        "c791b7c47aa46989983fd9dcc94ce31d06d1961f19821fb86e4a8b8b335f134b"),
    "epsilon-d-extremal": (
        "epsilon-d-extremal --dmax 4 --shakin {raw} --distraction {d} --samples 12 --seed 5", 1,
        "8643e910909cd54f1195f0bea95da4b0098669ebfc5564910048c784ffdf3ce2"),
    "betti-invariance": (
        "betti-invariance --n 3 --dmax 5 --samples 10 --seed 5", 0,
        "3e701805bd215e7222a425b9e16805b5d6264709562c84a0472a4f5a44af5de1"),
    "codistra-h0": (
        "codistra-h0 --n 3 --dmax 6 --samples 20 --seed 5", 0,
        "f426b0d9ddd493b85097916d8045b4c7544e2ea94d24a0226dcf45c5eafc748e"),
}


@pytest.mark.parametrize("kind", sorted(GOLDEN_REPORTS))
def test_verify_report_bytes_pinned(tmp_path, kind):
    args, expected_code, digest = GOLDEN_REPORTS[kind]
    paths = {"raw": tmp_path / "raw.json", "ring": tmp_path / "ring.json",
             "x1sq": tmp_path / "x1sq.json", "d": tmp_path / "d.json"}
    paths["raw"].write_text(json.dumps(RAW_BASE))
    paths["ring"].write_text(json.dumps(SHAKIN_RING))
    paths["x1sq"].write_text(json.dumps(X1SQ_RING))
    paths["d"].write_text(json.dumps(DISTRACTION))
    out = tmp_path / "report.json"
    argv = ["verify", *(a.format(**paths) for a in args.split()), "--out", str(out)]
    assert main(argv) == expected_code
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


def test_pretty_rendering(capsys, files):
    code = main(["hilbert", "--ideal", files["mono"], "--dmax", "3", "--pretty"])
    out = capsys.readouterr().out
    assert code == 0
    assert "values:" in out


def test_cli_imports_without_numpy():
    # lexdist's arithmetic is pure Python; numpy is not a dependency
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    proc = subprocess.run(
        [sys.executable, "-c", "import lexdist.cli, sys; assert 'numpy' not in sys.modules"],
        env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
