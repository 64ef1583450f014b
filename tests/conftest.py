"""Shared fixtures: session-scoped coefficient tables, a count of the
normalize calls, the benchmark's tracer module, benchmarks/same_reports.py
and benchmarks/record.py, and acceptance reporting."""

from __future__ import annotations

import importlib.util
from pathlib import Path

import pytest

from cuspsums.coeffs import generate_tau

ROOT = Path(__file__).resolve().parents[1]


def _load_script(name: str, path: Path):
    """The module of a script outside the package, loaded from its path."""
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="session")
def table_2e4():
    """Coefficient table to n = 20000; enough for every unit-level window."""
    return generate_tau(20_000)


@pytest.fixture(scope="session")
def table_1e5():
    return generate_tau(100_000)


@pytest.fixture
def normalize_calls(monkeypatch):
    """The record count of every coeffs.normalize call, wherever it is
    looked up (coeffs and sums), while the test runs."""
    from cuspsums import coeffs, sums

    calls = []
    normalize = coeffs.normalize

    def counted(records, ns=None):
        calls.append(records.size)
        return normalize(records, ns)

    monkeypatch.setattr(coeffs, "normalize", counted)
    monkeypatch.setattr(sums, "normalize", counted)
    return calls


@pytest.fixture(scope="session")
def tracer():
    """perfbench/tracer.py, loaded once: it names package functions by string."""
    return _load_script("bench_tracer", ROOT / "perfbench" / "tracer.py")


@pytest.fixture(scope="session")
def same_reports():
    """benchmarks/same_reports.py, the two-checkout comparison, loaded once."""
    return _load_script("same_reports", ROOT / "benchmarks" / "same_reports.py")


@pytest.fixture(scope="session")
def record():
    """benchmarks/record.py, the two-checkout benchmark record, loaded once."""
    return _load_script("record", ROOT / "benchmarks" / "record.py")


def _span_names(tracer):
    """Every ``layer.name`` the tracer wraps, times, counts or hooks."""
    names = {n for spans in tracer.TIME_METRICS.values() for n in spans}
    names |= set(tracer.CALL_METRICS.values())
    names |= {span for _, span in tracer.SHARE_METRICS.values()}
    names |= set(tracer.HOOKS)
    return names - {tracer.PROCESS_SPAN}


_ACCEPTANCE_RESULTS: list[tuple[str, str]] = []


def record_acceptance(name: str, passed: bool, detail: str = "") -> None:
    _ACCEPTANCE_RESULTS.append((name, ("PASS" if passed else "FAIL") + (f" {detail}" if detail else "")))


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _ACCEPTANCE_RESULTS:
        return
    terminalreporter.section("acceptance criteria")
    for name, status in _ACCEPTANCE_RESULTS:
        terminalreporter.write_line(f"{name}: {status}")
