"""Shared pytest plumbing: surface the acceptance pass/fail lines in the
terminal summary so they are visible regardless of output capture, and a
fixture that makes ``util.fork_map`` fork on any host."""
import pytest

ACCEPTANCE_LINES = []


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


@pytest.fixture
def forking(monkeypatch):
    """Two usable CPUs, no work floor and a stand-in OpenBLAS thread setter:
    the host-dependent conditions of ``util.fork_map`` (its docstring has
    them all), met whichever BLAS this host loaded."""
    from canm import util

    monkeypatch.setattr(util, "usable_cpus", lambda: 2)
    monkeypatch.setattr(util, "FORK_MIN_WORK", 0)
    monkeypatch.setattr(util, "_blas_thread_setters", lambda: (lambda threads: None,))
