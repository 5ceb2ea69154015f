"""Shared fixtures and the acceptance summary reporter."""

from __future__ import annotations

import re

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

settings.register_profile(
    "a2w",
    deadline=None,
    max_examples=60,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("a2w")


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(20260813)


# --- acceptance criteria reporting -----------------------------------------
#
# Each acceptance test is named test_criterion_NN_slug; the hooks below
# collect their call-phase outcomes and print one PASS/FAIL line per
# criterion at the end of the run, visible regardless of capture settings.

_ACCEPTANCE_OUTCOMES: dict[int, str] = {}

_DESCRIPTIONS = {
    1: "built-in 2x2 and 3x3 power matrices decide a2 with exact "
       "off-diagonal exponents, under 0.1 s each",
    2: "perturbed off-diagonal exponent fails positivity with a numeric "
       "witness; unit diagonal exponent fails the range rule",
    3: "symbolic determinant and inverse match LU and elimination routes "
       "on 100 seeded weights, under 5 s",
    4: "scalar gamma=1/2 estimate reaches [0.99, 1.0] of 4/3 with argmax "
       "interval anchored near 0",
    5: "no interval shape scored for 50 seeded weights (the estimate's, "
       "the coarse grid's and 400 origin-free ones) exceeds the certified "
       "trace bound",
    6: "divergence sweep slope >= 0.24 with strictly increasing products; "
       "equal-exponent control stays bounded, under 10 s",
    7: "structural identities: trace sum, rotation unitarity, eigenvalue "
       "multiset, 100 seeded points each",
    8: "norm^2 <= trace <= n * norm^2 and floor bounds on 500 seeded "
       "(weight, interval) pairs",
    9: "separable cube averages match 1D closed-form products and brute "
       "quadrature; radial average matches the exact constant; radial "
       "range rule at d=2",
    10: "repeated constant and divergence runs with identical inputs "
        "produce byte-identical JSON and CSV",
}

_NODE_RE = re.compile(r"test_acceptance\.py::test_criterion_(\d+)")


def pytest_runtest_logreport(report):
    m = _NODE_RE.search(report.nodeid)
    if not m:
        return
    num = int(m.group(1))
    if report.when == "call":
        _ACCEPTANCE_OUTCOMES[num] = report.outcome
    elif report.when == "setup" and report.outcome != "passed":
        _ACCEPTANCE_OUTCOMES[num] = report.outcome


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _ACCEPTANCE_OUTCOMES:
        return
    terminalreporter.write_sep("-", "acceptance criteria")
    for num in sorted(_ACCEPTANCE_OUTCOMES):
        verdict = "PASS" if _ACCEPTANCE_OUTCOMES[num] == "passed" else "FAIL"
        desc = _DESCRIPTIONS.get(num, "")
        terminalreporter.write_line(f"criterion {num:2d}: {verdict} - {desc}")
