import json
import os
import subprocess
import sys

import pytest

import fqwilson
from fqwilson import cli
from fqwilson.cli import main
from fqwilson.survey import resume


def run(capsys, argv, expect=0):
    code = main(argv)
    out, err = capsys.readouterr()
    assert code == expect, err or out
    return out, err


@pytest.fixture(autouse=True)
def _clean_seed_env(monkeypatch):
    monkeypatch.delenv("CARLITZ_SEED", raising=False)


# ------------------------------------------------------------- goldens


def test_primes_list(capsys):
    out, _ = run(capsys, ["primes", "list", "--field", "2", "--degree", "3"])
    assert out == ("2 monic irreducibles of degree 3 over 2\n"
                   "t^3+t+1\n"
                   "t^3+t^2+1\n")


def test_carlitz_bracket(capsys):
    out, _ = run(capsys, ["carlitz", "compute", "--field", "2",
                          "--what", "bracket", "--n", "1"])
    assert out == "degree 2\nt^2+t\n"


def test_check_wilson_all_conditions(capsys):
    out, _ = run(capsys, ["check", "wilson", "--field", "3",
                          "--prime", "t^3+2*t+2", "--all-conditions"])
    lines = out.splitlines()
    assert lines[0] == "def: true"
    assert lines[-1] == "wilson: true (15 conditions, unanimous)"
    assert len(lines) == 16
    assert all(line.endswith(": true") for line in lines[:-1])


def test_check_wilson_negative(capsys):
    out, _ = run(capsys, ["check", "wilson", "--field", "3",
                          "--prime", "t^3+t^2+2"])
    assert out == "wilson: false (15 conditions, unanimous)\n"


def test_check_wilson_char2_marker(capsys):
    out, _ = run(capsys, ["check", "wilson", "--field", "2",
                          "--prime", "t^2+t+1"])
    assert out == "wilson: false (1 condition, unanimous) [definition-only]\n"


def test_check_wieferich(capsys):
    out, _ = run(capsys, ["check", "wieferich", "--field", "3",
                          "--prime", "t^2+1", "--base", "t^3"])
    assert out == "wieferich: true (6 conditions, unanimous)\n"


def test_classify_base_json(capsys):
    out, _ = run(capsys, ["classify-base", "--field", "3",
                          "--base", "t^3+2*t", "--json"])
    assert out == '{"c":2,"tag":"NoWieferichPrimes","witness":"t"}\n'


def test_factor_golden(capsys):
    out, _ = run(capsys, ["factor", "--field", "3", "--poly", "t^2+2*t+1"])
    assert out == "unit: 1\n(t+1)^2\n"


def test_factor_trial_division_cofactor(capsys):
    out, _ = run(capsys, ["factor", "--field", "3",
                          "--poly", "t^4+t^3+2*t^2+t+2",
                          "--max-trial-degree", "1"])
    assert out == ("unit: 1\n"
                   "t+1\n"
                   "cofactor: degree 3 (irreducible: True)\n")


def test_survey_human_output(capsys):
    out, _ = run(capsys, ["survey", "--field", "3", "--degree", "3"])
    assert out == (
        "field 3 degree 3: 8 primes\n"
        "wilson (2): t^3+2*t+1 t^3+2*t+2\n"
        "special c=1 (0): -\n"
        "special c=2 (2): t^3+2*t+1 t^3+2*t+2\n"
        "mult D_plus_sign_c c=2: t^3+2*t+1:1 t^3+2*t+2:1\n"
        "mult L_minus_c c=2: t^3+2*t+1:2 t^3+2*t+2:2\n"
        "mult wilson_sum: t^3+2*t+1:1 t^3+2*t+2:1\n"
    )


def test_theorem5_output(capsys):
    out, _ = run(capsys, ["theorem5", "--field", "3", "--degree", "3"])
    assert out == (
        "wilson sum, degree 3: polynomial degree 9\n"
        "factors: 1x3 3x2\n"
        "degree-3 factors = wilson primes (2), multiplicities "
        "t^3+2*t+1:1 t^3+2*t+2:1\n"
    )


def test_theorem7_output(capsys):
    out, _ = run(capsys, ["theorem7", "--field", "3", "--degree", "3",
                          "--c", "2"])
    lines = out.splitlines()
    assert lines[0] == "perturbations at degree 3, c=2 (full mode)"
    assert lines[1] == "special primes (2): t^3+2*t+1 t^3+2*t+2"
    assert any(line.startswith("L_minus_c: degree 12") for line in lines)
    assert any(line.startswith("D_plus_sign_c: degree 18") for line in lines)


def test_scan_borisov_output(capsys):
    out, _ = run(capsys, ["scan", "borisov", "--field", "3",
                          "--max-degree", "4"])
    assert out == "d=3 c=1 gcd degree 6: t^6+t^4+t^2+2\n"


def test_scan_no_findings(capsys):
    out, _ = run(capsys, ["scan", "alt-conjecture", "--field", "5",
                          "--max-degree", "4"])
    assert out == "no nontrivial gcd found\n"


# ------------------------------------------------------------ exit codes


@pytest.mark.parametrize("descriptor,message", [
    ("6", "6 is not a prime power"),
    ("2^-1", "extension degree -1 must be at least 1"),
    ("2^0", "extension degree 0 must be at least 1"),
], ids=["6", "2^-1", "2^0"])
def test_bad_field_exits_2(capsys, descriptor, message):
    _, err = run(capsys, ["primes", "list", "--field", descriptor, "--degree", "2"],
                 expect=2)
    assert err == f"error: {message}\n"


def _cli_process(*argv):
    """Run the CLI as a real process, so that an escaping exception
    would show as a traceback on stderr."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.dirname(os.path.dirname(fqwilson.__file__))
    proc = subprocess.run([sys.executable, "-m", "fqwilson.cli", *argv],
                          capture_output=True, text=True, env=env, timeout=60)
    assert "Traceback" not in proc.stderr
    return proc


def test_import_leaves_process_pool_unloaded():
    # the pool module is imported only when a survey starts workers
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.dirname(os.path.dirname(fqwilson.__file__))
    code = ("import sys, fqwilson.cli; "
            "print('concurrent.futures.process' in sys.modules)")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "False\n"


@pytest.mark.parametrize("degree", ["0", "-1"])
def test_primes_list_nonpositive_degree_exits_2(degree):
    proc = _cli_process("primes", "list", "--field", "3", "--degree", degree)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr == "error: degree must be at least 1\n"


@pytest.mark.parametrize("bound", (["--start", "-9"], ["--stop", "-1"]))
def test_primes_list_negative_index_exits_2(bound):
    proc = _cli_process("primes", "list", "--field", "3", "--degree", "2",
                        "--json", *bound)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr == "error: candidate indices must be non-negative\n"


@pytest.mark.parametrize("text, message", [
    ("2*", "bad term '2*'"),
    ("t^", "bad term 't^'"),
    ("t^-1", "bad term 't^-1'"),
    ("[1,1,]", "bad item '' at position 2 of code list '[1,1,]'"),
    ("[1,,1]", "bad item '' at position 1 of code list '[1,,1]'"),
])
def test_malformed_poly_names_bad_term_and_exits_2(text, message):
    proc = _cli_process("factor", "--field", "3", "--poly", text)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr == f"error: {message}\n"


def test_negative_trial_degree_exits_2():
    proc = _cli_process("factor", "--field", "3", "--poly", "t^4+t+2",
                        "--max-trial-degree", "-3")
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr == "error: trial division bound must be non-negative, got -3\n"


@pytest.mark.parametrize("argv", [
    ("survey", "--field", "3", "--degree", "3", "--jobs", "0"),
    ("survey", "--field", "3", "--degree", "3", "--jobs", "-4"),
    ("verify", "paper", "--case", "q3d9", "--jobs", "0"),
], ids=["survey-0", "survey--4", "verify-0"])
def test_jobs_below_one_exits_2(argv):
    proc = _cli_process(*argv)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr.endswith(
        f"error: argument --jobs: must be at least 1, got {argv[-1]}\n")


def test_verify_has_no_trial_degree_flag():
    proc = _cli_process("verify", "paper", "--case", "q3d9",
                        "--max-trial-degree", "22")
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert "unrecognized arguments: --max-trial-degree 22" in proc.stderr


def test_unparseable_poly_exits_2(capsys):
    _, err = run(capsys, ["factor", "--field", "3",
                          "--poly", "(t+1)*(t^3+2*t+2)"], expect=2)
    assert err.startswith("error:")


def test_perturbation_without_c_exits_2(capsys):
    _, err = run(capsys, ["carlitz", "compute", "--field", "3",
                          "--what", "perturbation", "--n", "3"], expect=2)
    assert "requires --c" in err


def test_missing_required_flag_is_usage_error():
    with pytest.raises(SystemExit) as exc:
        main(["primes", "list", "--degree", "2"])
    assert exc.value.code == 2


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    out, _ = capsys.readouterr()
    assert out.strip()


# ------------------------------------------------------------------ json


def test_json_outputs_parse_and_repeat(capsys):
    argv = ["check", "wilson", "--field", "3", "--prime", "t^3+2*t+2",
            "--json"]
    first, _ = run(capsys, argv)
    data = json.loads(first)
    assert data["prime"] == "t^3+2*t+2"
    assert data["unanimous"] is True
    second, _ = run(capsys, argv)
    assert second == first


def test_zero_result_json_is_strict(capsys):
    def reject(constant):
        raise ValueError(f"non-standard JSON constant {constant}")

    argv = ["carlitz", "compute", "--field", "3", "--what", "L", "--n", "3",
            "--mod", "t"]
    data = json.loads(run(capsys, argv + ["--json"])[0], parse_constant=reject)
    assert data["degree"] is None and data["poly"] == "0"
    assert run(capsys, argv)[0] == "degree -inf\n0\n"


def test_survey_json_is_the_persisted_document(capsys, tmp_path):
    path = tmp_path / "out.jsonl"
    argv = ["survey", "--field", "3", "--degree", "2", "--out", str(path)]
    run(capsys, argv)
    stdout_doc, _ = run(capsys, argv + ["--json"])
    assert stdout_doc == path.read_text()
    header, records = resume(path)
    assert header["seed"] == 0
    assert set(records) == {"3|2"}


# ----------------------------------------------------------- persistence


def test_survey_append_and_seed_mismatch(capsys, tmp_path, monkeypatch):
    path = tmp_path / "sweep.jsonl"
    run(capsys, ["survey", "--field", "3", "--degree", "1",
                 "--out", str(path)])
    argv = ["survey", "--field", "3", "--degree", "2",
            "--out", str(path), "--append"]
    first, _ = run(capsys, argv)
    _, records = resume(path)
    assert set(records) == {"3|1", "3|2"}

    # a repeated --append run resumes the stored record: same stdout,
    # no recomputation and still one record per key
    def no_recompute(*args, **kwargs):
        raise AssertionError("survey recomputed a stored record")

    monkeypatch.setattr(cli, "survey_degree", no_recompute)
    again, _ = run(capsys, argv)
    assert again == first
    lines = path.read_text().splitlines()
    assert len(lines) == 3
    assert {json.loads(line)["degree"] for line in lines[1:]} == {1, 2}

    _, err = run(capsys, ["survey", "--field", "3", "--degree", "3",
                          "--out", str(path), "--append", "--seed", "5"],
                 expect=2)
    assert "line 1" in err


def test_seed_env_fallback_and_flag_priority(capsys, tmp_path, monkeypatch):
    monkeypatch.setenv("CARLITZ_SEED", "5")
    path = tmp_path / "env.jsonl"
    run(capsys, ["survey", "--field", "3", "--degree", "1",
                 "--out", str(path)])
    header, _ = resume(path)
    assert header["seed"] == 5

    path2 = tmp_path / "flag.jsonl"
    run(capsys, ["survey", "--field", "3", "--degree", "1",
                 "--out", str(path2), "--seed", "9"])
    header, _ = resume(path2)
    assert header["seed"] == 9


# ----------------------------------------------------------- verify cases


def test_verify_artin_schreier(capsys):
    out, _ = run(capsys, ["verify", "paper", "--case", "artin-schreier"])
    assert out.splitlines()[0] == "case artin-schreier"
    assert "all 54 checks passed" in out
    assert "MISMATCH" not in out


def test_verify_q3d9(capsys):
    out, _ = run(capsys, ["verify", "paper", "--case", "q3d9"])
    assert "all 5 checks passed" in out
    assert "MISMATCH" not in out


def test_verify_q3d6_and_q2d14(capsys, monkeypatch, q3d6_record, q2d14_record,
                               q3d6_wilson_sum, q3d6_perturbations):
    # the census and the reports are the session fixtures the acceptance
    # gate checks, so only the composition of the verify cases runs here
    def survey(field, d, *, seed, jobs, full_suites=False):
        assert (seed, jobs) == (0, 1)
        return {("3", 6, True): q3d6_record,
                ("2", 14, False): q2d14_record}[field.descriptor(), d, full_suites]

    def theorem5(field, d, seed):
        assert (field.descriptor(), d, seed) == ("3", 6, 0)
        return q3d6_wilson_sum

    def theorem7(field, d, c, mode, seed):
        assert (field.descriptor(), d, mode, seed) == ("3", 6, "full", 0)
        return q3d6_perturbations[0][c]

    monkeypatch.setattr(cli, "survey_degree", survey)
    monkeypatch.setattr(cli, "theorem5_report", theorem5)
    monkeypatch.setattr(cli, "theorem7_report", theorem7)
    out, _ = run(capsys, ["verify", "paper", "--case", "q3d6"])
    assert out == (
        "case q3d6\n"
        "ok: counts (primes, special, wilson) = (116, 6, 15)\n"
        "ok: special primes per c = {1: 3, 2: 3}\n"
        "ok: 15-condition suites unanimous on every prime = True\n"
        "ok: wilson sum degree = 360\n"
        "ok: wilson sum factors = 1^4x3 2x3 6x15 18x2 20x3 24x3 28x3\n"
        "ok: wilson sum degree-6 factor set size = 15\n"
        "ok: L_5-1 degree = 363\n"
        "ok: L_5-1 factors = 6^2x3 14x3 95x3\n"
        "ok: L_5-1 degree-6 factor derivative = ['2']\n"
        "ok: D_5 side multiplicities at c=1 = [1, 1, 1]\n"
        "ok: L_5-2 degree = 363\n"
        "ok: L_5-2 factors = 6^2x3 14x3 95x3\n"
        "ok: L_5-2 degree-6 factor derivative = ['1']\n"
        "ok: D_5 side multiplicities at c=2 = [1, 1, 1]\n"
        "all 14 checks passed\n")
    out, _ = run(capsys, ["verify", "paper", "--case", "q2d14"])
    ones = ", ".join(["1"] * 12)
    assert out == (
        "case q2d14\n"
        "ok: counts (primes, special) = (1161, 12)\n"
        f"ok: L-side multiplicities = [{ones}]\n"
        f"ok: D-side multiplicities = [{ones}]\n"
        "all 3 checks passed\n")


def test_verify_json_payload(capsys):
    out, _ = run(capsys, ["verify", "paper", "--case", "artin-schreier",
                          "--json"])
    data = json.loads(out)
    assert data["case"] == "artin-schreier"
    assert data["ok"] is True
    assert len(data["checks"]) == 54


# ------------------------------------------------------------------ fuzz

FUZZ_FIELDS = ("2", "3", "4", "5", "9", "2^2", "4:t^2+t+1", "4/t^2+t+2",
               "4:t^2+t+1/t^2+t+2", "9/t^2+t+3")
# not a prime power, a bad exponent, a bad or reducible modulus, a
# modulus on a prime field, empty parts, a tower above the height cap
MALFORMED_FIELDS = (
    "6", "1", "0", "-3", "2^0", "2^-1", "6^2", "x", "", "4:t^3+t+1",
    "4:t^2+1", "3:t^2+1", "4/t+1", "4/t^2+1", "4/", "/t^2+t+2", "4:",
    "4:t^2+t+1/t^2+t+2/t^2+t+1",
)


def _fuzz_argv(st):
    """Argument vectors over every subcommand, sized so that an example
    runs well under a second."""
    valid = st.sampled_from(FUZZ_FIELDS)
    field = st.one_of(valid, valid, st.sampled_from(MALFORMED_FIELDS))
    degree = st.sampled_from(("-1", "0", "1", "2", "3", "x", "2.5"))
    small = st.sampled_from(("-1", "0", "1", "2", "x"))
    poly = st.sampled_from(("t", "t+1", "t^2+1", "t^3+2*t+2", "2*t^2+3",
                            "[1,0,1]", "0", "1", "2*", "t^", "[1,,1]", ""))
    junk = st.one_of(st.just([]), st.just([]), st.lists(
        st.sampled_from(("--bogus", "--json", "-x", "--field", "7", "", "--",
                         "--seed", "-1")), min_size=1, max_size=2))

    def cmd(*parts):
        return st.tuples(*parts).map(
            lambda ps: [w for p in ps for w in ((p,) if isinstance(p, str) else p)])

    def opt(flag, values):
        return st.one_of(st.just(()), values.map(lambda v: (flag, v)))

    def flag(name):
        return st.sampled_from(((), (name,)))

    commands = st.one_of(
        cmd(st.just("primes"), st.just("list"), st.just("--field"), field,
            st.just("--degree"), degree, opt("--start", small),
            opt("--stop", small), flag("--json")),
        cmd(st.just("check"), st.just("wieferich"), st.just("--field"), field,
            st.just("--prime"), poly, st.just("--base"), poly,
            flag("--all-conditions")),
        cmd(st.just("check"), st.just("wilson"), st.just("--field"), field,
            st.just("--prime"), poly, flag("--skip-def"),
            flag("--all-conditions")),
        cmd(st.just("classify-base"), st.just("--field"), field,
            st.just("--base"), poly),
        cmd(st.just("carlitz"), st.just("compute"), st.just("--field"), field,
            st.just("--what"),
            st.sampled_from(("bracket", "L", "D", "F", "wilson-sum",
                             "perturbation", "nope")),
            st.just("--n"), small, opt("--c", small),
            opt("--kind", st.sampled_from(("L_minus_c", "D_plus_sign_c", "x"))),
            opt("--mod", poly)),
        cmd(st.just("factor"), st.just("--field"), field, st.just("--poly"),
            poly, opt("--max-trial-degree", small), opt("--seed", small)),
        cmd(st.just("survey"), st.just("--field"), field, st.just("--degree"),
            degree, opt("--jobs", st.sampled_from(("1", "0", "-1", "x"))),
            flag("--full-suites"), opt("--budget", small),
            flag("--no-multiplicities")),
        cmd(st.just("theorem5"), st.just("--field"), field,
            st.just("--degree"), degree),
        cmd(st.just("theorem7"), st.just("--field"), field,
            st.just("--degree"), small, st.just("--c"), small,
            opt("--mode", st.sampled_from(("full", "partial", "x"))),
            opt("--max-trial-degree", small)),
        cmd(st.just("scan"), st.sampled_from(("borisov", "alt-conjecture")),
            st.just("--field"), field, st.just("--max-degree"), degree),
        cmd(st.just("verify"), st.just("paper"), st.just("--case"),
            st.sampled_from(("artin-schreier", "q3d5", "")),
            flag("--json")),
    )
    return st.tuples(commands, junk).map(lambda pair: pair[0] + pair[1])


def test_cli_fuzz_exit_codes(capsys):
    # an exception escaping main() is what a user would see as a
    # traceback; argparse's usage errors leave through SystemExit(2)
    hyp = pytest.importorskip("hypothesis")

    @hyp.settings(max_examples=300, deadline=None)
    @hyp.given(_fuzz_argv(hyp.strategies))
    def check(argv):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        _, err = capsys.readouterr()
        assert code in (0, 1, 2), (argv, code)
        assert "Traceback" not in err, argv

    check()
