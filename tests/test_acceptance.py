"""Conformance gate: every criterion at its reference resolution.

Each test prints its pass/fail line so the suite doubles as a report
(`pytest tests/test_acceptance.py -v -s`).  The same criteria back the
CLI's `check` command.
"""

import pytest

from memslab import acceptance

CRITERIA = list(acceptance.registry())


@pytest.mark.parametrize("name", CRITERIA)
def test_criterion(name):
    result = acceptance.registry()[name](1.0)
    print(result.line())
    assert result.passed, result.detail


def test_raising_criterion_keeps_its_registry_name(monkeypatch):
    def broken(*args):
        raise RuntimeError("injected")

    monkeypatch.setattr(acceptance, "power_profile", broken)
    result = acceptance.registry()["power-weight-bound"](1.0)
    assert not result.passed
    assert result.name == "power-weight-bound"
    assert "injected" in result.detail
