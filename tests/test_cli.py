"""cli module: subcommands, exit codes, determinism, round trips."""

import hashlib
import json
import os
import subprocess
import sys

import pytest

from lexdist.cli import _VERIFY_KINDS, build_parser, main
from lexdist.distraction import DistractionMatrix
from lexdist.errors import InvalidInputError
from lexdist.groebner import Ideal
from lexdist.shakin import ShakinIdeal


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
        "neither": write("neither.json", {"n": 2}),
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


def test_hilbert_rejects_removed_order_flag(capsys, files):
    argv = ["hilbert", "--ideal", files["mono"], "--dmax", "6"]
    assert main(argv + ["--order", "lex"]) == 2
    assert capsys.readouterr().out == ""
    assert main(argv) == 0


MALFORMED_ARGV = {
    "hilbert": "hilbert --ideal {bad} --dmax 3",
    "betti": "betti --ideal {bad} --dmax 3",
    "distract": "distract --ideal {mono} --distraction {bad}",
    "embed": "embed --shakin {bad} --hf [1,1,0]",
    "macaulay-lex": "verify macaulay-lex --shakin {bad} --dmax 3",
    "betti-extremal": "verify betti-extremal --shakin {bad} --dmax 3",
    "coh-extremal": "verify coh-extremal --shakin {bad} --dmax 3",
    "distraction-hf": "verify distraction-hf --shakin {bad} --distraction {distraction} --dmax 3",
    "epsilon-d-extremal":
        "verify epsilon-d-extremal --shakin {bad} --distraction {distraction} --dmax 3",
}


@pytest.mark.parametrize("command, data", [
    ("hilbert", {"n": 2, "polys": [3]}),
    ("hilbert", {"n": 2, "polys": "1"}),
    ("hilbert", {"n": 2, "char": "q", "polys": ["x1"]}),
    ("hilbert", {"n": 2, "gens": [[1.5, 0]]}),
    ("betti", {"n": 2, "gens": [[1.5, 0]]}),
    ("distract", {"n": 2, "rows": [[{"c": [1, "x"]}], [{"c": [0, 1]}]]}),
    ("distract", {"n": 2, "char": "q", "rows": [[{"c": [1, 0]}], [{"c": [0, 1]}]]}),
    ("distract", {"n": 2, "rows": [[{"c": [1.5, 0]}], [{"c": [0, 1]}]]}),
    ("hilbert", 5),
    ("betti", 5),
    ("distract", [1]),
    *((kind, 5) for kind in ("embed", "macaulay-lex", "betti-extremal", "coh-extremal",
                             "distraction-hf", "epsilon-d-extremal")),
], ids=["poly-not-text", "polys-not-list", "ideal-char-text", "float-exponent",
        "betti-float-exponent", "text-coefficient", "distraction-char-text",
        "float-coefficient", "hilbert-number", "betti-number", "distraction-list",
        "embed-number", "macaulay-lex-number", "betti-extremal-number",
        "coh-extremal-number", "distraction-hf-number", "epsilon-d-extremal-number"])
def test_malformed_json_is_invalid_input(capsys, files, command, data):
    path = files["tmp"] / "malformed.json"
    path.write_text(json.dumps(data))
    argv = MALFORMED_ARGV[command].format(bad=path, **files).split()
    code, out = run(capsys, *argv)
    assert code == 2 and out["error"] == "invalid-input", out


@pytest.mark.parametrize("argv", [
    "verify macaulay-lex --dmax 2",
    "verify distraction-hf --shakin {shakin} --dmax 2",
    "verify macaulay-lex --shakin {neither} --dmax 2",
    "hilbert --ideal {neither} --dmax 2",
    "hilbert --ideal {missing} --dmax 2",
    "localcoh --ideal {mono} --window 3",
    "verify coh-extremal --shakin {shakin} --dmax 2 --window 3",
], ids=["no-shakin", "no-distraction", "shakin-without-gens", "ideal-without-gens",
        "unreadable-path", "localcoh-window-3", "coh-extremal-window-3"])
def test_missing_or_unusable_input_is_invalid_input(capsys, files, argv):
    argv = argv.format(missing=files["tmp"] / "missing.json", **files)
    code, out = run(capsys, *argv.split())
    assert code == 2 and out["error"] == "invalid-input", out


@pytest.mark.parametrize("argv", [
    "verify distraction-hf --shakin {neither} --dmax 2",
    "verify coh-extremal --shakin {neither} --dmax 2 --window 3",
], ids=["before-the-distraction", "before-the-window"])
def test_verify_reports_a_bad_base_first(capsys, files, argv):
    code, out = run(capsys, *argv.format(**files).split())
    assert code == 2
    assert out["message"] == f"{files['neither']}: expected 'pieces'/'powers' or 'gens'"


BAD_INPUTS = {
    # id: (argv with {bad} for the file written from data, data, message)
    "distraction-empty-row": ("distract --ideal {mono} --distraction {bad}",
                              {"n": 2, "rows": [[], [{"c": [0, 1]}]]}, "row 1 is empty"),
    "distraction-form-length": ("distract --ideal {mono} --distraction {bad}",
                                {"n": 2, "rows": [[{"c": [1, 0, 0]}], [{"c": [0, 1]}]]},
                                "linear form of wrong length"),
    "distraction-zero-form": ("distract --ideal {mono} --distraction {bad}",
                              {"n": 2, "rows": [[{"c": [0, 0]}], [{"c": [0, 1]}]]},
                              "zero linear form in distraction"),
    "distraction-no-rows": ("distract --ideal {mono} --distraction {bad}", {"n": 2},
                            "bad distraction JSON: 'rows'"),
    "distraction-n-not-rows": ("distract --ideal {mono} --distraction {bad}",
                               {"n": 3, "rows": [[{"c": [1, 0]}], [{"c": [0, 1]}]]},
                               "distraction declares n=3 but has 2 rows"),
    "distract-other-n": ("distract --ideal {mono} --distraction {bad}",
                         {"n": 1, "rows": [[{"c": [1]}]]}, "ambient mismatch"),
    "polarize-other-n": ("polarize --ideal {mono} --distraction {bad}",
                         {"n": 1, "rows": [[{"c": [1]}]]}, "distraction ambient mismatch"),
    "polys-without-n": ("hilbert --ideal {bad} --dmax 2", {"polys": ["x1"]},
                        "bad ideal JSON: 'n'"),
    "poly-factor-y2": ("hilbert --ideal {bad} --dmax 2", {"n": 2, "polys": ["x1*y2"]},
                       "bad monomial factor 'y2'"),
    "poly-missing-factor": ("hilbert --ideal {bad} --dmax 2",
                            {"n": 2, "polys": ["x1*x2 - -x1*x2"]},
                            "bad polynomial 'x1*x2--x1*x2': a factor is missing"),
    "piece-index": ("embed --shakin {bad} --hf [1,2,2]",
                    {"n": 2, "pieces": [{"i": 3, "gens": [[2, 0, 0]]}], "powers": []},
                    "piece index 3 out of range 1..2"),
    "piece-without-gens": ("embed --shakin {bad} --hf [1,2,2]",
                           {"n": 2, "pieces": [{"i": 1}], "powers": []},
                           "bad Shakin ideal JSON: 'gens'"),
    "power-0": ("verify macaulay-lex --shakin {bad} --dmax 2",
                {"n": 2, "pieces": [], "powers": [0, 2]}, "pure power degrees must be positive"),
    "embed-dmax-past-hf": ("embed --shakin {shakin} --hf [1,2,2] --dmax 3", None,
                           "Hilbert function shorter than dmax+1"),
    "lexify-negative-n": ("lexify --n -1 --hf [1]", None, "variable count must be nonnegative"),
    "localcoh-polys": ("localcoh --ideal {bad}", {"n": 2, "polys": ["x1"]},
                       "bad monomial ideal JSON: 'gens'"),
}


@pytest.mark.parametrize("case", list(BAD_INPUTS))
def test_input_checks_exit_2_with_their_message(capsys, files, case):
    argv, data, message = BAD_INPUTS[case]
    bad = files["tmp"] / "bad.json"
    if data is not None:
        bad.write_text(json.dumps(data))
    code, out = run(capsys, *argv.format(bad=bad, **files).split())
    assert (code, out) == (2, {"v": 1, "error": "invalid-input", "message": message})


@pytest.mark.parametrize("argv", [
    "lexify --n 2 --hf [1,2,3]",
    "verify macaulay-lex --shakin {shakin} --dmax 2",
    "verify macaulay-lex --shakin {shakin} --dmax 2 --budget 0",
], ids=["lexify", "macaulay-lex", "macaulay-lex-over-budget"])
@pytest.mark.parametrize("where", ["missing-directory", "directory"])
def test_an_unwritable_out_is_invalid_input_on_stdout(capsys, files, argv, where):
    # exit 1 would read as a counterexample; the error is reported once, on
    # stdout, also when the run itself ended in an error payload
    out = files["tmp"] / "missing" / "x.json" if where == "missing-directory" else files["tmp"]
    reason = "No such file or directory" if where == "missing-directory" else "Is a directory"
    code, data = run(capsys, *argv.format(**files).split(), "--out", str(out))
    assert (code, data) == (2, {"v": 1, "error": "invalid-input",
                                "message": f"cannot write {out}: {reason}"})
    assert not (files["tmp"] / "missing").exists()


def test_lexify_rejects_values_that_are_not_a_list(capsys):
    code, out = run(capsys, "lexify", "--n", "2", "--hf", '{"values": 3}')
    assert code == 2 and out["error"] == "invalid-input", out


@pytest.mark.parametrize("cls", [Ideal, ShakinIdeal, DistractionMatrix])
@pytest.mark.parametrize("data", [[1], 5])
def test_from_json_rejects_a_non_object(cls, data):
    with pytest.raises(InvalidInputError):
        cls.from_json(data)


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


@pytest.mark.parametrize("argv", ["lexify --n 2", "embed --shakin {shakin}"])
def test_hilbert_function_rejects_json_booleans(capsys, files, argv):
    code, data = run(capsys, *argv.format(**files).split(), "--hf", "[true, 2, 1]")
    assert code == 2 and data["error"] == "invalid-input", data


def test_rejected_values_are_echoed_as_json(capsys):
    code, data = run(capsys, "lexify", "--n", "2", "--hf", "[true, 2, 1]")
    assert code == 2 and data["error"] == "invalid-input", data
    assert data["message"].endswith("got [true, 2, 1]"), data


@pytest.mark.parametrize("argv", ["lexify --n 2", "embed --shakin {shakin}"])
def test_an_empty_hilbert_function_is_invalid(capsys, files, argv):
    # dmax would be -1, and the zero ideal cut off there misses the base
    code, data = run(capsys, *argv.format(**files).split(), "--hf", "[]")
    assert code == 2 and data["error"] == "invalid-input", data
    assert data["message"] == "dmax must be nonnegative"


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


def test_distract_rejects_a_matrix_that_is_not_a_distraction(capsys, files):
    # the selection (x2, x2) of rows [x1, x2] and [x2] spans one form only
    bad = files["tmp"] / "singular.json"
    bad.write_text(json.dumps({"n": 2, "char": 5,
                               "rows": [[{"c": [1, 0]}, {"c": [0, 1]}], [{"c": [0, 1]}]]}))
    for command in ("distract", "polarize"):
        code, data = run(capsys, command, "--ideal", files["mono"], "--distraction", str(bad))
        assert code == 2 and data["error"] == "invalid-input", command
        assert data["message"] == "invalid distraction, witness [(0, 1), (1, 0)]", command


def test_polarize(capsys, files):
    code, data = run(capsys, "polarize", "--ideal", files["mono"])
    assert code == 0
    assert data["extended_n"] == 5
    assert sorted(data["polarized"]["gens"]) == [[0, 0, 1, 0, 1], [0, 0, 1, 1, 0]]
    assert data["specialization_l"] is None
    code, with_d = run(capsys, "polarize", "--ideal", files["mono"],
                       "--distraction", files["distraction"])
    assert code == 0
    assert {k: v for k, v in with_d.items() if k != "specialization_l"} == \
        {k: v for k, v in data.items() if k != "specialization_l"}
    # blocks X_11, X_12 (indices 2, 3) and X_21 (4) carry l_11, l_12 and l_21
    assert with_d["specialization_l"] == [[[1, 0], 2], [[1, 1], 3], [[0, 1], 4]]


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


@pytest.mark.parametrize("bounds", ["--irange=3:1", "--window=3:1"])
def test_localcoh_rejects_an_empty_range(capsys, files, bounds):
    code, data = run(capsys, "localcoh", "--ideal", files["mono"], bounds)
    assert code == 2 and data["error"] == "invalid-input", data


def test_verify_coh_extremal_rejects_an_empty_window(capsys, files):
    code, data = run(capsys, "verify", "coh-extremal", "--shakin", files["shakin"],
                     "--dmax", "3", "--window=3:1")
    assert code == 2 and data["error"] == "invalid-input", data


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


def test_verify_rejects_a_negative_budget(capsys, tmp_path):
    x1sq = tmp_path / "x1sq.json"
    x1sq.write_text(json.dumps({"n": 3, "gens": [[2, 0, 0]]}))
    argv = ["verify", "macaulay-lex", "--shakin", str(x1sq), "--dmax", "2"]
    code, data = run(capsys, *argv, "--budget", "-1")
    assert code == 2 and data["error"] == "invalid-input"
    assert data["message"] == "budget must be nonnegative, got -1"
    code, data = run(capsys, *argv, "--budget", "0")
    assert code == 3
    assert data == {"v": 1, "error": "budget-exceeded", "budget": 0, "count_estimate": 512}


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


@pytest.mark.parametrize("argv", [
    "hilbert --ideal {mono}",
    "embed --shakin {shakin} --hf [1,1,0]",
    "betti --ideal {mono}",
    "verify macaulay-lex --shakin {shakin}",
    "verify betti-extremal --shakin {shakin}",
    "verify coh-extremal --shakin {shakin}",
    "verify distraction-hf --shakin {shakin_pl} --distraction {distraction} --samples 2",
    "verify epsilon-d-extremal --shakin {shakin_pl} --distraction {distraction} --samples 2",
    "verify betti-invariance --n 2 --samples 2",
    "verify codistra-h0 --n 2 --samples 2",
], ids=lambda argv: " ".join(argv.split()[:2]))
def test_every_command_rejects_a_negative_dmax(capsys, files, argv):
    code, data = run(capsys, *argv.format(**files).split(), "--dmax", "-1")
    assert code == 2
    assert data["error"] == "invalid-input"
    assert data["message"] == "dmax must be nonnegative"


SWEEP_BASES = {"x1sq": {"n": 2, "gens": [[2, 0]]},
               "n0-zero": {"n": 0, "gens": []}, "n0-unit": {"n": 0, "gens": [[]]}}
EXHAUSTIVE_KINDS = ("macaulay-lex", "betti-extremal", "coh-extremal")
SAMPLED_SHAKIN_KINDS = ("distraction-hf", "epsilon-d-extremal")


@pytest.mark.parametrize("dmax", ["0", "1"])
@pytest.mark.parametrize("kind, base", [
    *((kind, "x1sq") for kind in _VERIFY_KINDS),
    *((kind, base) for kind in EXHAUSTIVE_KINDS for base in ("n0-zero", "n0-unit")),
    *((kind, "n0-zero") for kind in SAMPLED_SHAKIN_KINDS),
])
def test_verify_kinds_end_cleanly_at_the_smallest_degrees(capsys, files, kind, base, dmax):
    # each kind reads only its own options; every run ends in one JSON
    # object and a documented exit code, never an uncaught exception.  A
    # base in no variables comes with a distraction in none, and leaves the
    # sampled kinds nothing to draw from.
    path = files["tmp"] / f"{base}.json"
    path.write_text(json.dumps(SWEEP_BASES[base]))
    distraction = files["distraction"]
    if base != "x1sq":
        distraction = files["tmp"] / "d0.json"
        distraction.write_text(json.dumps({"n": 0, "rows": []}))
    for seed in ("1", "2"):
        code, data = run(capsys, "verify", kind, "--shakin", str(path), "--n", "2",
                         "--distraction", str(distraction), "--dmax", dmax,
                         "--samples", "20", "--seed", seed)
        assert isinstance(data, dict) and code in (0, 1, 2, 3), (code, data)
        if kind in SAMPLED_SHAKIN_KINDS and (dmax == "0" or base != "x1sq"):
            assert code == 2 and data["error"] == "invalid-input", data
            if base != "x1sq":
                assert data["message"] == "sampled ideals need at least one variable, got n=0"
        elif base != "x1sq":
            assert code == 0 and data["passed"], data


@pytest.mark.parametrize("argv", [
    "embed --shakin {piece} --hf [1,2,2]",
    "verify macaulay-lex --shakin {piece} --dmax 2",
], ids=lambda argv: argv.split()[argv.startswith("verify")])
def test_a_non_lex_piece_is_invalid_input(capsys, files, argv):
    # (x2^2) is no lex segment of K[x1, x2]: x1^2 > x2^2 is missing
    piece = files["tmp"] / "piece.json"
    piece.write_text(json.dumps({"n": 2, "pieces": [{"i": 2, "gens": [[0, 2]]}], "powers": []}))
    code, data = run(capsys, *argv.format(piece=piece).split())
    assert code == 2 and data["error"] == "invalid-input", data
    assert data["message"] == "piece in 2 variables is not a lex segment"


CHAR_EXTRAS = {"plain": [], "samples-0": ["--samples", "0"], "budget-0": ["--budget", "0"]}
VERIFY_ARGV = "verify {kind} --shakin {shakin_pl} --n 2 --distraction {distraction} --dmax 3"


@pytest.mark.parametrize("argv, extra", [
    *((VERIFY_ARGV.replace("{kind}", kind), extra) for kind in _VERIFY_KINDS for extra in CHAR_EXTRAS),
    ("hilbert --ideal {mono} --dmax 3", "plain"),
    ("polarize --ideal {mono}", "plain"),
], ids=lambda v: v if v in CHAR_EXTRAS else v.split()[v.startswith("verify")])
def test_verify_kinds_reject_a_non_prime_characteristic(capsys, files, argv, extra):
    # every command that takes --char rejects 4 before it samples or counts
    # anything, so no sample count or budget can end the run first; also
    # where it works over no field (macaulay-lex, hilbert on a monomial
    # ideal, polarize without a distraction)
    code, data = run(capsys, *argv.format(**files).split(), "--char", "4", *CHAR_EXTRAS[extra])
    assert code == 2 and data["error"] == "invalid-input", data
    assert data["message"] == "characteristic 4 is not prime"


@pytest.mark.parametrize("kind", ["distraction-hf", "epsilon-d-extremal"])
def test_sampled_shakin_kinds_use_the_distractions_field(capsys, files, kind):
    # without --char the sampled ideals and the report live over the
    # distraction file's field, here 7
    d7 = files["tmp"] / "d7.json"
    d7.write_text(json.dumps({"n": 2, "char": 7,
                              "rows": [[{"c": [1, 0]}, {"c": [1, 1]}], [{"c": [0, 1]}]]}))
    for samples in ("1", "5"):
        code, data = run(capsys, "verify", kind, "--shakin", files["shakin_pl"],
                         "--distraction", str(d7), "--dmax", "3", "--samples", samples)
        assert code == 0 and data["passed"], data
        assert data["params"]["char"] == data["params"]["distraction"]["char"] == 7


def test_unknown_subcommand_exits_2(capsys):
    assert main(["frobnicate"]) == 2


def test_verify_kinds_are_listed_once_and_pinned(capsys):
    kinds = ["macaulay-lex", "betti-extremal", "coh-extremal", "distraction-hf",
             "epsilon-d-extremal", "betti-invariance", "codistra-h0"]
    assert list(_VERIFY_KINDS) == kinds
    assert main(["verify", "--help"]) == 0
    assert "{" + ",".join(kinds) + "}" in capsys.readouterr().out
    # a new kind cannot ship without its report bytes pinned
    assert {args.split()[0] for args, _, _ in GOLDEN_REPORTS.values()} == set(kinds)


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
# over plain (x1^2), 3266 passing cases.  coh-extremal also runs over
# RAW_BASE_4 (x1*x2, x3*x4) in four variables at dmax 2, 434 cases with 100
# failures, and over RAW_BASE at p = 2 on the window (-10, 8), wider than
# the default on both sides: 4534 cases with 1110 failures.  The sampled
# kinds pin their seeded cases and failure payloads.  macaulay-lex also
# runs over two Shakin rings, where it passes on the Hilbert-function count
# without building an ideal: SHAKIN_RING at dmax 4, 706 cases over 89
# Hilbert functions, and X1CU_RING (x1^3) at dmax 5 with budget 10^6,
# 579 726 cases over 715.  {raw}, {raw4}, {ring}, {x1sq}, {x1cu} and {d}
# stand for the files holding RAW_BASE, RAW_BASE_4, SHAKIN_RING,
# X1SQ_RING, X1CU_RING and DISTRACTION.  Over
# SHAKIN_RING at dmax 1 and 2 the base generator x2^3 lies above dmax + 1
# and at dmax + 1, where it is a minimal generator of some enumerated
# ideals and not of others; a Betti table read off the graded pieces must
# count it only where it is minimal.
RAW_BASE = {"n": 3, "gens": [[0, 1, 1]]}
RAW_BASE_4 = {"n": 4, "gens": [[1, 1, 0, 0], [0, 0, 1, 1]]}
SHAKIN_RING = {"n": 3, "pieces": [{"i": 1, "gens": [[2]]}], "powers": [2, 3]}
X1SQ_RING = {"n": 3, "pieces": [{"i": 1, "gens": [[2]]}], "powers": []}
X1CU_RING = {"n": 3, "pieces": [{"i": 1, "gens": [[3]]}], "powers": []}
DISTRACTION = {"n": 3, "char": 32003, "rows": [
    [{"c": [1, 0, 0]}, {"c": [1, 5, 0]}, {"c": [1, 0, 7]}],
    [{"c": [0, 1, 0]}, {"c": [3, 1, 0]}, {"c": [0, 1, 2]}],
    [{"c": [0, 0, 1]}, {"c": [4, 0, 1]}, {"c": [0, 9, 1]}],
]}
GOLDEN_REPORTS = {
    "macaulay-lex": (
        "macaulay-lex --dmax 3 --shakin {raw}", 1,
        "ba46c214759aacf1fe495e56866b8f21adda6a2b38696e21261b75748fc5e0cc"),
    "macaulay-lex-shakin-dmax4": (
        "macaulay-lex --dmax 4 --shakin {ring}", 0,
        "68f819c095314229578fb62467b25a885e709ed2c46092ef893ebf46163ff3ae"),
    "macaulay-lex-x1cu-dmax5": (
        "macaulay-lex --dmax 5 --budget 1000000 --shakin {x1cu}", 0,
        "a0a5a92c81296232749650e35c0af382e587a4c2035f6de411d627ab1092a7ed"),
    "betti-extremal": (
        "betti-extremal --dmax 3 --shakin {raw}", 1,
        "821ebd78396ce311b654a5215c1a3ec3a1af88e82042e2c52f23fe698af46ad8"),
    "betti-extremal-shakin-dmax4": (
        "betti-extremal --dmax 4 --shakin {ring}", 0,
        "08020ee09abd2b4066ee91f4b518c18b5efc9b6b863f78271fd948caaa2044a5"),
    "betti-extremal-shakin-dmax1": (
        "betti-extremal --dmax 1 --shakin {ring}", 0,
        "d8e453454dc9ad90488e339b83bc030d0f1680feb97d6ed59b92185e6c4f1495"),
    "betti-extremal-shakin-dmax2": (
        "betti-extremal --dmax 2 --shakin {ring}", 0,
        "080b2f4cf2ac140dc1eb7f42326950867be410df81ce7e69ecdac46bd56e0df9"),
    "coh-extremal": (
        "coh-extremal --dmax 3 --shakin {raw}", 1,
        "608170bd0105bd277efc7c1fa7fcf8fb5e795f0ca2455fa4cc228a20dd4a166a"),
    "coh-extremal-shakin-dmax1": (
        "coh-extremal --dmax 1 --shakin {ring}", 0,
        "b8f80b22f8045b40f32216809afd2c715996c9b2c17b59d2ef41bbb9ed88a10e"),
    "coh-extremal-shakin-dmax2": (
        "coh-extremal --dmax 2 --shakin {ring}", 0,
        "a7d7e5c302b38f5464a707d631c45377e1e5e987d07f705a355223aa2cba9dfa"),
    "coh-extremal-shakin-dmax4": (
        "coh-extremal --dmax 4 --shakin {ring}", 0,
        "5c314b93ae54523c47c6d28c5db34fd16b0e5e024727347f6c8f71f1c0dd8789"),
    "coh-extremal-x1sq-dmax4": (
        "coh-extremal --dmax 4 --shakin {x1sq}", 0,
        "7850422907a698526d1b00bb9fb259027e46030ea07ac7917dba7f7e57bf7199"),
    "coh-extremal-four-variables": (
        "coh-extremal --dmax 2 --shakin {raw4}", 1,
        "aa3bfae6670b1cb4dda30c25b8631b97f03486ecd781403fe2ec52d515d227e8"),
    "coh-extremal-char2-wide-window": (
        "coh-extremal --dmax 4 --char 2 --window=-10:8 --shakin {raw}", 1,
        "da835197a2b9825fd06672a3279385c2c2bede8608590b80c6f1aae3c92055cd"),
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
    paths = {"raw": tmp_path / "raw.json", "raw4": tmp_path / "raw4.json",
             "ring": tmp_path / "ring.json", "x1sq": tmp_path / "x1sq.json",
             "x1cu": tmp_path / "x1cu.json", "d": tmp_path / "d.json"}
    paths["raw"].write_text(json.dumps(RAW_BASE))
    paths["raw4"].write_text(json.dumps(RAW_BASE_4))
    paths["ring"].write_text(json.dumps(SHAKIN_RING))
    paths["x1sq"].write_text(json.dumps(X1SQ_RING))
    paths["x1cu"].write_text(json.dumps(X1CU_RING))
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


def test_pretty_rendering_of_lists_of_lists(capsys, files):
    ideal = files["tmp"] / "x1sq.json"
    ideal.write_text(json.dumps({"n": 1, "gens": [[2]]}))
    assert main(["polarize", "--ideal", str(ideal), "--pretty"]) == 0
    assert capsys.readouterr().out == (
        "block_sizes:\n"
        "  - 2\n"
        "extended_n: 3\n"
        "polarized:\n"
        "  gens:\n"
        "    -\n"
        "      - 0\n"
        "      - 1\n"
        "      - 1\n"
        "  n: 3\n"
        "specialization_l: null\n"
        "specialization_x:\n"
        "  -\n"
        "    - 0\n"
        "    - 1\n"
        "  -\n"
        "    - 0\n"
        "    - 2\n"
        "v: 1\n"
    )


def test_pretty_prints_json_scalars_in_json_spelling(capsys):
    assert main(["verify", "codistra-h0", "--n", "2", "--dmax", "2", "--samples", "1",
                 "--pretty"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert "passed: true" in lines
    assert not any(word in line for line in lines for word in ("None", "True", "False"))


def test_one_parser_serves_every_call(capsys, files):
    # main() builds the parser once per process; a call must give the bytes
    # it gives on its own, with a parser nobody used before
    calls = [
        ["verify", "codistra-h0", "--n", "2", "--dmax", "4", "--samples", "4",
         "--seed", "9", "--pretty"],
        ["betti", "--ideal", files["mono"], "--dmax", "4"],
        ["hilbert", "--ideal", files["mono"], "--dmax", "3", "--pretty"],
        ["hilbert", "--ideal", files["mono"], "--dmax", "3"],
    ]
    alone = []
    for argv in calls:
        build_parser.cache_clear()
        alone.append((main(argv), capsys.readouterr().out))
    build_parser.cache_clear()
    shared = []
    for argv in calls:
        shared.append((main(argv), capsys.readouterr().out))
    assert shared == alone
    assert [code for code, _ in alone] == [0, 0, 0, 0]
    assert alone[2][1] != alone[3][1]
    assert build_parser.cache_info().misses == 1


def test_parse_errors_and_help_leave_the_parser_usable(capsys, files):
    argv = ["betti", "--ideal", files["mono"]]
    expected = run(capsys, *argv, "--dmax", "3")
    assert main(argv) == 2
    assert capsys.readouterr().out == ""
    assert run(capsys, *argv, "--dmax", "3") == expected
    assert main(["--help"]) == 0
    assert "{hilbert,lexify,embed,distract,polarize,betti,localcoh,verify}" in \
        capsys.readouterr().out
    assert run(capsys, *argv, "--dmax", "3") == expected


def test_cli_imports_without_numpy():
    # lexdist's arithmetic is pure Python; numpy is not a dependency
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    proc = subprocess.run(
        [sys.executable, "-c", "import lexdist.cli, sys; assert 'numpy' not in sys.modules"],
        env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
