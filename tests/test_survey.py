import concurrent.futures
import json
from concurrent.futures import Future, ProcessPoolExecutor

import pytest

from fqwilson import survey
from fqwilson.carlitz import CarlitzCache
from fqwilson.congruence import holds, is_special_wilson, wilson_suite
from fqwilson.errors import (
    FieldMismatch,
    SchemaVersionMismatch,
    TheoremViolation,
    ZeroC,
)
from fqwilson.gf import make_prime_field, parse_field
from fqwilson.irr import count_irreducibles, iter_monic_irreducibles
from fqwilson.poly import Poly, gcd, parse_poly
from fqwilson.reports import (
    alt_gcd_conjecture_scan,
    borisov_scan,
    perturbation_divisor_scan,
    special_primes_by_form,
    theorem5_report,
    theorem7_report,
)
from fqwilson.survey import (
    canonical_json,
    jsonl_document,
    persist,
    resume,
    survey_degree,
    validate,
)

F2 = make_prime_field(2)
F3 = make_prime_field(3)
F5 = make_prime_field(5)

AS_CUBICS = ["t^3+2*t+1", "t^3+2*t+2"]


# ----------------------------------------------------------- survey_degree


def test_survey_matches_direct_loop():
    for d in (1, 2, 3):
        rec = survey_degree(F3, d)
        wilson, special = [], {"1": [], "2": []}
        for ctx in iter_monic_irreducibles(F3, d):
            if holds(wilson_suite(ctx)):
                wilson.append(str(ctx.prime))
            dp = ctx.prime.derivative()
            if dp.degree == 0:
                e = dp.coeff(0)
                c = (e if d % 2 else -e).code
                special[str(c)].append(str(ctx.prime))
        assert rec["prime_count"] == count_irreducibles(F3, d)
        assert rec["wilson_primes"] == wilson
        assert rec["special_primes"] == special
        assert rec["suite_agreement"]


def test_survey_full_suites_same_record():
    assert survey_degree(F3, 3, full_suites=True) == survey_degree(F3, 3)
    assert survey_degree(F2, 4, full_suites=True) == survey_degree(F2, 4)


def test_survey_multiplicity_tables_q3_d3():
    rec = survey_degree(F3, 3)
    assert rec["special_primes"] == {"1": [], "2": AS_CUBICS}
    assert rec["multiplicity_cap"] == 5
    l_tab = rec["multiplicities"]["L_minus_c"]["2"]
    d_tab = rec["multiplicities"]["D_plus_sign_c"]["2"]
    ws_tab = rec["multiplicities"]["wilson_sum"]
    for text in AS_CUBICS:
        assert l_tab[text] >= 2
        assert d_tab[text] == 1
        assert ws_tab[text] >= 1
    assert set(ws_tab) == set(rec["wilson_primes"])


def test_survey_without_multiplicities():
    rec = survey_degree(F3, 3, multiplicities=False)
    assert rec["multiplicities"] == {
        "L_minus_c": {}, "D_plus_sign_c": {}, "wilson_sum": {},
    }


def test_survey_def_budget():
    cheap = survey_degree(F3, 3, def_budget=10)
    assert cheap["def_skipped"]
    assert cheap["wilson_primes"] == survey_degree(F3, 3)["wilson_primes"]

    assert not survey_degree(F3, 3, def_budget=1000)["def_skipped"]
    # characteristic 2 has only the definition, so it is never skipped
    assert not survey_degree(F2, 3, def_budget=1)["def_skipped"]


def test_survey_rejects_degree_zero():
    with pytest.raises(ValueError):
        survey_degree(F3, 0)


def test_survey_jobs_deterministic():
    one = survey_degree(F3, 4, jobs=1)
    two = survey_degree(F3, 4, jobs=2)
    assert canonical_json(one) == canonical_json(two)


def test_survey_jobs_capped_at_cpu_count(monkeypatch):
    pools = []

    class InlinePool:
        """Stands in for ProcessPoolExecutor: records max_workers and
        runs each chunk at submit, so no process is started."""

        def __init__(self, max_workers):
            pools.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def submit(self, fn, *args):
            fut = Future()
            fut.set_result(fn(*args))
            return fut

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InlinePool)
    monkeypatch.setattr(survey.os, "cpu_count", lambda: 3)
    want = canonical_json(survey_degree(F3, 4, jobs=1))
    for jobs in (2, 3, 5000):
        assert canonical_json(survey_degree(F3, 4, jobs=jobs)) == want
    assert pools == [2, 3, 3]
    monkeypatch.setattr(survey.os, "cpu_count", lambda: None)
    assert canonical_json(survey_degree(F3, 4, jobs=5000)) == want
    assert pools == [2, 3, 3]  # an unknown CPU count runs in-process


def test_survey_chunks_through_a_real_pool(monkeypatch):
    # one worker whatever os.cpu_count() says, so _survey_chunk, its
    # arguments and its rows cross a real process boundary on any
    # machine; at degree 6 over F_3 the chunks fill the special-prime
    # and the wilson_sum tables
    with ProcessPoolExecutor(max_workers=1) as pool:
        futures = [pool.submit(survey._survey_chunk, "3", 6, lo, lo + 243,
                               False, False, True)
                   for lo in (0, 243, 486)]
        pooled = [row for fut in futures for row in fut.result(timeout=120)]
    assert pooled == survey._survey_chunk("3", 6, 0, 729, False, False, True)

    pools = []

    def one_worker(max_workers):
        pools.append(max_workers)
        return ProcessPoolExecutor(max_workers=1)

    want = survey_degree(F3, 6, full_suites=True)
    assert all(want["multiplicities"][kind] for kind in
               ("L_minus_c", "D_plus_sign_c", "wilson_sum"))
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", one_worker)
    monkeypatch.setattr(survey.os, "cpu_count", lambda: 2)
    got = survey_degree(F3, 6, jobs=2, full_suites=True)
    assert canonical_json(got) == canonical_json(want)
    assert pools == [2]


@pytest.mark.parametrize("descriptor,d,full_suites", [
    ("3", 3, False), ("3", 3, True), ("2", 4, False),
])
def test_survey_chunk_builds_each_modulus_once_per_prime(
        monkeypatch, built_moduli, descriptor, d, full_suites):
    # a prime's work starts once its context is yielded; the Rabin
    # tests before it build reducers of their own
    built = built_moduli()
    real = survey.iter_monic_irreducibles

    def contexts(*args):
        for ctx in real(*args):
            built.clear()
            yield ctx

    monkeypatch.setattr(survey, "iter_monic_irreducibles", contexts)
    field = parse_field(descriptor)
    kinds = set()
    for index in range(field.order ** d):
        rows = survey._survey_chunk(descriptor, d, index, index + 1,
                                    full_suites, False, True)
        if rows:
            kinds.update(rows[0])
            assert built and len(built) == len(set(built)), rows
    # the L/D tables and, for p > 2, the wilson_sum table ran
    assert {"L_minus_c", "D_plus_sign_c"} <= kinds
    assert ("wilson_sum" in kinds) == (field.char > 2)


@pytest.mark.parametrize("jobs", [0, -4])
def test_survey_jobs_below_one_rejected(jobs):
    with pytest.raises(ValueError, match="jobs must be at least 1"):
        survey_degree(F3, 2, jobs=jobs)


def test_validate_catches_tampering():
    rec = survey_degree(F3, 2)
    rec["prime_count"] += 1
    with pytest.raises(TheoremViolation):
        validate(rec, F3)

    rec = survey_degree(F3, 2)
    rec["special_primes"]["1"] = ["t^2+1"]
    with pytest.raises(TheoremViolation):
        validate(rec, F3)

    rec = survey_degree(F3, 5)
    rec["wilson_primes"] = ["t^5+t+1"]
    with pytest.raises(TheoremViolation):
        validate(rec, F3)


SWEEP_GRID = (
    [(2, d) for d in range(1, 9)]
    + [(3, d) for d in range(1, 9)]
    + [(4, d) for d in range(1, 7)]
    + [(5, d) for d in range(1, 6)]
)


@pytest.mark.parametrize("q,d", SWEEP_GRID)
def test_sweep_invariants(q, d):
    # validate() runs inside survey_degree; reaching the assert means
    # no TheoremViolation and no EquivalenceViolation fired
    field = parse_field(str(q))
    rec = survey_degree(field, d)
    assert rec["prime_count"] == count_irreducibles(field, d)


@pytest.mark.slow
@pytest.mark.parametrize("d", [7, 8])
def test_sweep_invariants_f4_deep(d):
    field = parse_field("4")
    rec = survey_degree(field, d)
    assert rec["prime_count"] == count_irreducibles(field, d)


def test_survey_over_a_tower_field():
    # each survey chunk re-parses the field from its descriptor, which
    # for F_16 over F_4 is the tower form base/modulus; at degree 2 each
    # prime's residue field F_256 is a third tower level
    field = parse_field("4:t^2+t+1/t^2+t+2")
    for d, count in ((1, 16), (2, 120)):
        rec = survey_degree(field, d)
        assert rec["field"] == field.descriptor()
        assert rec["prime_count"] == count_irreducibles(field, d) == count


# ------------------------------------------------------------ persistence


def test_record_round_trip(tmp_path):
    # a record is its JSONL line: it comes back from the file as it was
    # written, under its key, its c keys decimal text
    recs = [survey_degree(F3, 3), survey_degree(F2, 4)]
    path = tmp_path / "survey.jsonl"
    persist(recs, path)
    _, loaded = resume(path)
    assert loaded == {"3|3": recs[0], "2|4": recs[1]}
    assert list(recs[0]["special_primes"]) == ["1", "2"]
    assert list(recs[0]["multiplicities"]["L_minus_c"]) == ["2"]


def test_persist_resume_append(tmp_path):
    path = tmp_path / "survey.jsonl"
    recs = [survey_degree(F3, d) for d in (1, 2)]
    persist(recs, path, seed=7)

    header, loaded = resume(path)
    assert header["schema"] == "fqwilson.survey/1"
    assert header["seed"] == 7
    assert set(loaded) == {"3|1", "3|2"}
    assert loaded["3|2"] == recs[1]

    persist([survey_degree(F3, 3)], path, seed=7, append=True)
    _, loaded = resume(path)
    assert set(loaded) == {"3|1", "3|2", "3|3"}

    with pytest.raises(SchemaVersionMismatch):
        persist([survey_degree(F3, 4)], path, seed=8, append=True)


def test_persist_bytes_match_document(tmp_path):
    path = tmp_path / "survey.jsonl"
    recs = [survey_degree(F3, 2)]
    persist(recs, path, seed=3)
    assert path.read_text() == jsonl_document(recs, seed=3)


def test_resume_reports_line_numbers(tmp_path):
    path = tmp_path / "survey.jsonl"
    persist([survey_degree(F3, 1), survey_degree(F3, 2)], path)
    lines = path.read_text().splitlines()

    for bad, message in (('{"broken": true}', "record has no 'field'"),
                         ("[1]", "a record must be a JSON object"),
                         ("{", "Expecting property name")):
        path.write_text("\n".join(lines[:2] + [bad]) + "\n")
        with pytest.raises(SchemaVersionMismatch, match=f"^line 3: {message}"):
            resume(path)

    # a blank line between records is skipped
    path.write_text("\n".join(lines) + "\n")
    whole = resume(path)
    assert len(whole[1]) == 2
    path.write_text("\n".join(lines[:2] + [""] + lines[2:]) + "\n")
    assert resume(path) == whole

    for bad, message in (("{", "Expecting property name"),
                         ("[1]", "expected schema"),
                         ('{"schema": "other/1"}', "expected schema")):
        path.write_text("\n".join([bad] + lines[1:]) + "\n")
        with pytest.raises(SchemaVersionMismatch, match=f"^line 1: {message}"):
            resume(path)

    header = json.loads(lines[0])
    header["version"] = "0.0.0"
    lines[0] = canonical_json(header)
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(SchemaVersionMismatch, match="line 1"):
        resume(path)

    path.write_text("")
    with pytest.raises(SchemaVersionMismatch, match="line 1"):
        resume(path)


@pytest.mark.parametrize("change", [
    {"special_primes": []},
    {"degree": "2"},
    {"degree": True},
    {"prime_count": 8.0},
    {"field": 3},
    {"wilson_primes": [1]},
    {"special_primes": {"01": [], "2": []}},
    {"special_primes": {"x": []}},
    {"special_primes": {"1": "t"}},
    {"multiplicities": {"L_minus_c": {}, "D_plus_sign_c": {}}},
    {"multiplicities": {"L_minus_c": {"2": {"t": "1"}}, "D_plus_sign_c": {},
                        "wilson_sum": {}}},
    {"multiplicities": {"L_minus_c": {}, "D_plus_sign_c": {},
                        "wilson_sum": []}},
    {"suite_agreement": 1},
    {"def_skipped": None},
    {"multiplicity_cap": "5"},
])
def test_resume_refuses_wrong_typed_records(tmp_path, change):
    path = tmp_path / "survey.jsonl"
    persist([survey_degree(F3, 1), survey_degree(F3, 2)], path)
    lines = path.read_text().splitlines()
    rec = json.loads(lines[2])
    rec.update(change)
    lines[2] = canonical_json(rec)
    path.write_text("\n".join(lines) + "\n")
    (key,) = change
    with pytest.raises(SchemaVersionMismatch,
                       match=f"^line 3: record '{key}' has the wrong type$"):
        resume(path)


# -------------------------------------------------------- special by form


def test_special_primes_by_form():
    assert [str(f) for f in special_primes_by_form(F3, 3, 2)] == AS_CUBICS
    assert special_primes_by_form(F3, 3, 1) == []
    assert special_primes_by_form(F3, 2, 1) == []
    assert [str(f) for f in special_primes_by_form(F3, 1, 1)] == \
        ["t", "t+1", "t+2"]
    assert special_primes_by_form(F3, 1, 2) == []
    assert [str(f) for f in special_primes_by_form(F2, 2, 1)] == ["t^2+t+1"]
    with pytest.raises(ZeroC):
        special_primes_by_form(F3, 3, 0)


def test_special_primes_match_survey(q3d6_census):
    rec, _ = q3d6_census
    for c in (1, 2):
        forms = [str(f) for f in special_primes_by_form(F3, 6, c)]
        assert sorted(forms) == sorted(rec["special_primes"][str(c)])


# ------------------------------------------------------- theorem reports


def test_theorem5_small_case():
    rep = theorem5_report(F3, 3)
    assert rep["poly_degree"] == 9
    assert rep["wilson_primes"] == AS_CUBICS
    assert rep["factor_degrees"] == [[1, 1], [1, 1], [1, 1], [3, 1], [3, 1]]
    assert rep["degree_d_multiplicities"] == {t: 1 for t in AS_CUBICS}
    assert rep["field"] == "3" and rep["degree"] == 3
    with pytest.raises(ValueError):
        theorem5_report(F2, 3)
    with pytest.raises(ValueError):
        theorem5_report(F3, 1)


def test_theorem7_small_case():
    rep = theorem7_report(F3, 3, 2)
    assert rep["mode"] == "full"
    assert rep["special_primes"] == AS_CUBICS
    assert rep["L"]["poly_degree"] == 12
    assert rep["D"]["poly_degree"] == 18
    for text in AS_CUBICS:
        assert rep["L"]["degree_d_multiplicities"][text] >= 2
        assert rep["D"]["degree_d_multiplicities"][text] == 1
    with pytest.raises(ZeroC):
        theorem7_report(F3, 3, 0)
    with pytest.raises(ValueError):
        theorem7_report(F3, 3, 2, mode="partial")  # missing max_degree


def test_theorem7_partial_agrees_with_full(q3d6_perturbations):
    reports, _ = q3d6_perturbations
    partial = theorem7_report(F3, 6, 1, mode="partial", max_degree=14)
    full = reports[1]
    assert partial["mode"] == "partial"
    assert partial["special_primes"] == full["special_primes"]
    for side in ("L", "D"):
        assert partial[side]["degree_d_multiplicities"] == \
            full[side]["degree_d_multiplicities"]
    assert partial["L"]["note"] == "trial division to degree 14"
    assert "residue scan" in partial["D"]["note"]
    # 363 minus three degree-6 factors squared minus three degree-14s
    assert partial["L"]["cofactor_degree"] == 363 - 3 * 12 - 3 * 14
    assert partial["L"]["cofactor_irreducible"] is False


def test_perturbation_divisor_scan_small():
    scan = perturbation_divisor_scan(F3, 3, [("L_minus_c", 2),
                                             ("D_plus_sign_c", 2)])
    assert scan["prime_count"] == 8
    assert set(scan["divisors"][("L_minus_c", 2)]) == set(AS_CUBICS)
    assert set(scan["divisors"][("D_plus_sign_c", 2)]) == set(AS_CUBICS)
    assert all(v == 1 for v in scan["divisors"][("D_plus_sign_c", 2)].values())
    with pytest.raises(ZeroC):
        perturbation_divisor_scan(F3, 3, [("L_minus_c", 0)])


def test_constants_are_read_in_the_field():
    # c goes through field(c): an element of F_3 or of a subfield is
    # taken, one of an unrelated field raises
    f9 = parse_field("9")
    assert special_primes_by_form(f9, 3, F3(2)) == \
        special_primes_by_form(f9, 3, f9(2)) != []
    ctx = next(iter_monic_irreducibles(F3, 3))
    c = F5(1)
    for call in (lambda: special_primes_by_form(F3, 1, c),
                 lambda: perturbation_divisor_scan(F3, 3, [("L_minus_c", c)]),
                 lambda: theorem7_report(F3, 3, c),
                 lambda: is_special_wilson(ctx, c)):
        with pytest.raises(FieldMismatch):
            call()


# ------------------------------------------------------------- gcd scans


def test_borisov_scan_q3():
    findings = borisov_scan(F3, 4)
    assert len(findings) == 1
    hit = findings[0]
    assert (hit["d"], hit["c"]) == (3, 1)
    assert not hit["violates_expectation"]
    assert str(hit["gcd"]) == "t^6+t^4+t^2+2"
    # the reported gcd is the literal Euclid gcd of the two operands
    cache = CarlitzCache(F3)
    lit = gcd(cache.L(2) + Poly.one(F3), cache.bracket(3))
    assert lit == hit["gcd"]
    assert hit["gcd"] == parse_poly(AS_CUBICS[0], F3) * parse_poly(AS_CUBICS[1], F3)


def test_borisov_scan_q2():
    findings = borisov_scan(F2, 4)
    assert [(f["d"], f["c"]) for f in findings] == [(2, 1), (4, 1)]
    cache = CarlitzCache(F2)
    for hit in findings:
        assert not hit["violates_expectation"]
        lit = gcd(cache.L(hit["d"] - 1) + Poly.one(F2), cache.bracket(hit["d"]))
        assert lit == hit["gcd"]


def test_alt_gcd_conjecture_scan():
    findings = alt_gcd_conjecture_scan(F3, 6)
    assert [f["d"] for f in findings] == [6]
    assert not findings[0]["violates_expectation"]
    # each reported gcd is the literal Euclid gcd of [d] and the exact
    # alternating sum 1 - [d-1] + [d-1][d-2] - ... +- L_(d-1)
    cache = CarlitzCache(F3)
    for hit in findings:
        alt = Poly.one(F3)
        for m in range(1, hit["d"]):
            alt = Poly.one(F3) - cache.bracket(m) * alt
        assert gcd(cache.bracket(hit["d"]), alt) == hit["gcd"]
    assert alt_gcd_conjecture_scan(F5, 4) == []
    with pytest.raises(ValueError):
        alt_gcd_conjecture_scan(F2, 4)


def test_append_recomputes_record_made_with_other_options(tmp_path, capsys,
                                                           monkeypatch):
    from fqwilson.cli import main

    monkeypatch.delenv("CARLITZ_SEED", raising=False)

    def survey(*extra):
        assert main(["survey", "--field", "3", "--degree", "3", *extra]) == 0
        return capsys.readouterr().out

    fresh = survey()
    assert "mult L_minus_c c=2: " in fresh
    assert "mult D_plus_sign_c c=2: " in fresh
    path = str(tmp_path / "sweep.jsonl")
    bare = survey("--no-multiplicities", "--out", path)
    assert "mult L_minus_c" not in bare
    assert survey("--out", path, "--append") == fresh
    assert survey("--no-multiplicities", "--out", path, "--append") == bare
    # a budget that skips the definition route is another option set
    skipped = survey("--budget", "10", "--out", path, "--append")
    assert skipped == fresh + "def condition skipped (bound)\n"
    _, stored = resume(path)
    assert stored["3|3"]["def_skipped"]
    # the latest record of each option set is reused, not appended again
    lines = len(open(path).read().splitlines())
    assert survey("--budget", "10", "--out", path, "--append") == skipped
    assert len(open(path).read().splitlines()) == lines
