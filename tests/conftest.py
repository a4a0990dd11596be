"""Shared test plumbing: the stock figures, and the acceptance verdicts.

The three stock sweeps run once per session, at their preset scale, through
a pool of one worker per CPU, and both the acceptance criteria and the
pinned output bytes read them.

pytest's default fd-level capture swallows anything a passing test prints,
so the acceptance tests register their ``CRITERION n: PASS/FAIL`` lines here
and a terminal-summary hook replays the full verdict table after capture is
torn down — every run of the suite ends with one line per criterion.
"""

import os

import pytest

from corrclass.sweep import figure_preset, run_sweep

VERDICTS: list[str] = []


@pytest.fixture(scope="session")
def fig1():
    return run_sweep(figure_preset(1), jobs=os.cpu_count() or 1)


@pytest.fixture(scope="session")
def fig2():
    return run_sweep(figure_preset(2), jobs=os.cpu_count() or 1)


@pytest.fixture(scope="session")
def fig3():
    return run_sweep(figure_preset(3), jobs=os.cpu_count() or 1)


def record_verdict(line: str) -> None:
    VERDICTS.append(line)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if VERDICTS:
        terminalreporter.section("acceptance criteria")
        for line in VERDICTS:
            terminalreporter.write_line(line)
