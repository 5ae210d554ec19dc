import time

import pytest

from fqwilson.gf import default_modulus, make_extension, make_prime_field
from fqwilson.poly import ModReducer
from fqwilson.survey import survey_degree, theorem5_report, theorem7_report

try:
    from hypothesis import settings
except ImportError:  # the property tests skip themselves without it
    pass
else:
    # a fixed example sequence, so a property failure reproduces on rerun
    settings.register_profile("fqwilson", derandomize=True, deadline=None)
    settings.load_profile("fqwilson")


@pytest.fixture
def built_moduli(monkeypatch):
    """Start recording the codes of every modulus a ModReducer is built
    for; the call returns the list it appends to."""
    def start():
        built = []
        real = ModReducer.__init__

        def init(self, modulus):
            built.append(modulus.codes)
            real(self, modulus)

        monkeypatch.setattr(ModReducer, "__init__", init)
        return built

    return start


@pytest.fixture(scope="session")
def f2():
    return make_prime_field(2)


@pytest.fixture(scope="session")
def f3():
    return make_prime_field(3)


@pytest.fixture(scope="session")
def f4(f2):
    return make_extension(f2, default_modulus(2, 2))


@pytest.fixture(scope="session")
def f5():
    return make_prime_field(5)


# The two census fixtures below are shared between the survey tests and
# the acceptance gate; each returns (record, elapsed seconds), and the
# elapsed time carries the wall-clock bound the gate asserts, so they
# must be computed fresh here and not loaded from disk.

@pytest.fixture(scope="session")
def q3d6_census(f3):
    t0 = time.perf_counter()
    rec = survey_degree(f3, 6, full_suites=True)
    return rec, time.perf_counter() - t0


@pytest.fixture(scope="session")
def q2d14_census(f2):
    t0 = time.perf_counter()
    rec = survey_degree(f2, 14)
    return rec, time.perf_counter() - t0


@pytest.fixture(scope="session")
def q3d6_wilson_sum(f3):
    return theorem5_report(f3, 6)


@pytest.fixture(scope="session")
def q3d6_perturbations(f3):
    t0 = time.perf_counter()
    reports = {c: theorem7_report(f3, 6, c) for c in (1, 2)}
    return reports, time.perf_counter() - t0
