import time

import pytest

from fqwilson.gf import default_modulus, make_extension, make_prime_field
from fqwilson.survey import survey_degree, theorem5_report, theorem7_report

try:
    from hypothesis import settings
except ImportError:  # the property tests skip themselves without it
    pass
else:
    # a fixed example sequence, so a property failure reproduces on rerun
    settings.register_profile("fqwilson", derandomize=True, deadline=None)
    settings.load_profile("fqwilson")


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
# the acceptance gate; their timing dicts carry the wall-clock bounds
# the gate asserts, so they must be computed fresh here and not loaded
# from disk.

@pytest.fixture(scope="session")
def q3d6_record(f3):
    return survey_degree(f3, 6, full_suites=True)


@pytest.fixture(scope="session")
def q2d14_record(f2):
    return survey_degree(f2, 14)


@pytest.fixture(scope="session")
def q3d6_wilson_sum(f3):
    return theorem5_report(f3, 6)


@pytest.fixture(scope="session")
def q3d6_perturbations(f3):
    t0 = time.perf_counter()
    reports = {c: theorem7_report(f3, 6, c) for c in (1, 2)}
    return reports, time.perf_counter() - t0
