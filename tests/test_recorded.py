"""The recorded values of fqwilson.recorded, pinned in one place.

The acceptance gate and `verify paper` compare computed objects against
these values; this test pins the values themselves, so a change to one
shows here and not only as a passing comparison.
"""

import inspect
from types import SimpleNamespace as Stub

from fqwilson import cli, recorded


def wants(check, *objects):
    """(label, recorded value) for each comparison check makes, and
    ("note", text) for each note."""
    v = recorded.Verifier()
    check(v, *objects)
    return [(c["label"], c["want"]) if "label" in c else ("note", c["note"])
            for c in v.checks]


def test_recorded_values():
    # stand-ins carry the attributes each check reads; only the recorded
    # side of each comparison is asserted
    rec = Stub(prime_count=0, special_primes={}, wilson_primes=[],
               suite_agreement=True, multiplicities={})
    report = Stub(poly_degree=0, factor_degrees=[], degree_d_multiplicities={})
    fac = Stub(factors=[])
    assert wants(recorded.q3d6_census, rec) == [
        ("counts (primes, special, wilson)", (116, 6, 15)),
        ("special primes per c", {1: 3, 2: 3}),
        ("15-condition suites unanimous on every prime", True),
    ]
    assert wants(recorded.q3d6_wilson_sum, report) == [
        ("wilson sum degree", 360),
        ("wilson sum factors", "1^4x3 2x3 6x15 18x2 20x3 24x3 28x3"),
        ("wilson sum degree-6 factor set size", 15),
    ]
    for c, derivative in ((1, "2"), (2, "1")):
        rep7 = Stub(c=c, field_descriptor="3", special_primes=[], L=report, D=report)
        assert wants(recorded.q3d6_perturbation, rep7) == [
            (f"L_5-{c} degree", 363),
            (f"L_5-{c} factors", "6^2x3 14x3 95x3"),
            (f"L_5-{c} degree-6 factor derivative", [derivative]),
            (f"D_5 side multiplicities at c={c}", [1, 1, 1]),
        ]
    assert wants(recorded.q2d14_census, rec) == [
        ("counts (primes, special)", (1161, 12)),
        ("L-side multiplicities", [1] * 12),
        ("D-side multiplicities", [1] * 12),
    ]
    assert recorded.Q2D14_TRIAL_DEGREE == 22
    assert wants(recorded.l13_trial_division, Stub(degree=0), fac, []) == [
        ("L_13+1 degree", 16382),
        ("factors of degree <= 22", "14x12 22x1"),
        ("degree-14 factor set", []),
    ]
    assert wants(recorded.l13_remaining, fac, fac) == [
        ("remaining factor degrees", "128x1 1156x2 2246x2 9260x1"),
        ("degree bookkeeping", 16382),
        ("note", "the published figure 8192 for the largest remaining factor "
                 "is inconsistent: verified degrees sum to 16382 with largest "
                 "factor 9260"),
    ]
    scan = {"prime_count": 0,
            "divisors": {("L_minus_c", 1): {}, ("L_minus_c", 2): {}}}
    assert wants(recorded.q3d9_scan, [], [], scan) == [
        ("special primes at c=1", 6),
        ("special primes at c=-1", 0),
        ("degree-9 prime count", 2184),
        ("degree-9 divisors of L_8-1", []),
        ("degree-9 divisors of L_8+1", []),
    ]
    suite = dict(wants(recorded.artin_schreier_prime, 3, 1))
    assert suite.pop("t^3-t-1 wilson suite") == (True, True, 15)
    assert len(suite) == 8 and all(want is True for want in suite.values())


def test_cli_holds_no_recorded_value():
    source = inspect.getsource(cli)
    for literal in ("116", "360", "363", "1^4x3", "6^2x3", "1161", "16382",
                    "14x12", "9260", "2184"):
        assert literal not in source, literal
