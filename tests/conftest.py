"""Shared test configuration.

Registers a derandomized hypothesis profile so CI runs are
reproducible, provides fixtures used across the suite (a seeded rng
and the environment for child processes), and prints a one-line
verdict per acceptance criterion at the end of a run that included
the acceptance module.
"""

import os
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

settings.register_profile(
    "det",
    derandomize=True,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("det")


@pytest.fixture
def rng():
    return np.random.default_rng(20260822)


@pytest.fixture
def child_env():
    """Environment for a child python that imports wgqed from this
    checkout's src, installed or not."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    path = os.environ.get("PYTHONPATH")
    return {**os.environ,
            "PYTHONPATH": src + os.pathsep + path if path else src}


_CRITERIA = {}
_CRITERION_RE = re.compile(
    r"test_acceptance\.py::test_criterion_(\d+)")


def pytest_runtest_logreport(report):
    match = _CRITERION_RE.search(report.nodeid)
    if match is None:
        return
    number = int(match.group(1))
    if report.when == "call":
        _CRITERIA[number] = report.outcome
    elif report.outcome != "passed":
        # setup/teardown errors count as failures of the criterion
        _CRITERIA.setdefault(number, report.outcome)


def pytest_terminal_summary(terminalreporter):
    if not _CRITERIA:
        return
    terminalreporter.write_sep("-", "acceptance criteria")
    for number in sorted(_CRITERIA):
        outcome = _CRITERIA[number]
        label = {"passed": "PASS", "skipped": "SKIP"}.get(outcome,
                                                          "FAIL")
        terminalreporter.write_line(f"CRITERION {number}: {label}")
