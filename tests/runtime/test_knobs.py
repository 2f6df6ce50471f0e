"""Tests for the runtime's environment knobs (:mod:`repro.runtime.knobs`)."""

from __future__ import annotations

import pytest

from repro.runtime import knobs


@pytest.fixture
def clean_env(monkeypatch):
    """No runtime knob set, whatever the calling shell exports."""
    for name in knobs.KNOWN_KNOBS:
        monkeypatch.delenv(name, raising=False)
    return monkeypatch


def test_known_knobs_are_the_module_constants():
    constants = {
        getattr(knobs, name) for name in dir(knobs) if name.endswith("_ENV")
    }
    assert set(knobs.KNOWN_KNOBS) == constants
    assert len(knobs.KNOWN_KNOBS) == len(constants) == 5
    assert all(name.startswith("REPRO_RUNTIME_") for name in constants)


def test_read_knob_falls_back_to_the_default(clean_env):
    assert knobs.read_knob(knobs.WORKERS_ENV) is None
    assert knobs.read_knob(knobs.WORKERS_ENV, "1") == "1"
    clean_env.setenv(knobs.WORKERS_ENV, "3")
    assert knobs.read_knob(knobs.WORKERS_ENV, "1") == "3"


def test_snapshot_reports_only_set_knobs(clean_env):
    assert knobs.knob_snapshot() == {}
    clean_env.setenv(knobs.FAULTS_ENV, "error,*,count=1")
    clean_env.setenv("REPRO_RUNTIME_UNKNOWN", "x")  # not a knob
    assert knobs.knob_snapshot() == {knobs.FAULTS_ENV: "error,*,count=1"}
