"""Shared infrastructure for the benchmark suite.

Every bench regenerates one of the paper's tables or figures and renders
it as an ASCII table.  Rendered reports are:

- written to ``benchmarks/results/<name>.txt``;
- echoed in the pytest terminal summary (so ``pytest benchmarks/
  --benchmark-only`` shows the reproduced series without ``-s``).

Fidelity: benches default to the ``fast`` preset (see
``repro.config``); set ``REPRO_BENCH_FIDELITY=paper`` for a full-scale
run (hours).  Datasets and trained models are cached per session so
benches that share a configuration do not retrain.
"""

from __future__ import annotations

import os

import pytest

from repro.config import fidelity as fidelity_preset
from repro.datasets import build_dataset, dataset_spec
from repro.core.training import train_splitbeam
from repro.runtime import (
    CheckpointStore,
    ResultCache,
    default_cache_root,
    default_checkpoint_root,
)

RESULTS_DIR = os.path.join(os.path.dirname(__file__), "results")


def runtime_cache() -> ResultCache:
    """The engine benches' result cache ($REPRO_RUNTIME_CACHE overrides)."""
    return ResultCache(
        default_cache_root(os.path.join(RESULTS_DIR, "runtime_cache"))
    )


def checkpoint_store() -> CheckpointStore:
    """The zoo benches' weight store ($REPRO_RUNTIME_CHECKPOINTS overrides)."""
    return CheckpointStore(
        default_checkpoint_root(os.path.join(RESULTS_DIR, "checkpoint_store"))
    )

_REPORTS: list[str] = []


def pytest_addoption(parser):
    parser.addoption(
        "--perf",
        action="store_true",
        default=False,
        help="run the perf-marked hot-path benchmarks (skipped by default)",
    )


def pytest_configure(config):
    config.addinivalue_line(
        "markers",
        "perf: hot-path wall-time benchmark; runs only with --perf so the "
        "tier-1 suite stays fast",
    )


def pytest_collection_modifyitems(config, items):
    if config.getoption("--perf"):
        return
    skip_perf = pytest.mark.skip(reason="perf benchmark; pass --perf to run")
    for item in items:
        if item.get_closest_marker("perf") is not None:
            item.add_marker(skip_perf)


#: Stage/comparison name-prefix families co-owning ``BENCH_hotpaths.json``.
#: Each named family maps to ``(stage_prefixes, comparison_prefixes)``;
#: the hot-path suite itself (``family=None``) owns the envelope plus
#: every stage/comparison no named family claims.
HOTPATH_FAMILIES = {
    "campaign": (("campaign/",), ("campaign_",)),
    "store": (("store/",), ("store_",)),
    "train_step_wide": (("train_step_wide/",), ("train_step_wide",)),
}


def write_hotpaths_json(report, path: str, family: "str | None") -> None:
    """Write one bench's stages into the co-owned ``BENCH_hotpaths.json``.

    ``benchmarks/bench_perf_hotpaths.py`` (``family=None``; its
    ``--train-smoke`` mode writes ``family="train_step_wide"``),
    ``benchmarks/bench_network_campaign.py`` (``family="campaign"``),
    and ``benchmarks/bench_store.py`` (``family="store"``) share the
    file: each writer replaces only the stage/comparison family it owns
    (see :data:`HOTPATH_FAMILIES`) and preserves everyone else's, so
    the benches can run independently, in any order, without erasing
    each other's results.  The hot-path suite owns the envelope
    (title/context).
    """
    import json

    if family is not None and family not in HOTPATH_FAMILIES:
        raise ValueError(f"unknown hotpath family {family!r}")

    def family_of_stage(stage: dict) -> "str | None":
        for name, (stage_prefixes, _) in HOTPATH_FAMILIES.items():
            if stage["name"].startswith(stage_prefixes):
                return name
        return None

    def family_of_comparison(comparison: dict) -> "str | None":
        for name, (_, comparison_prefixes) in HOTPATH_FAMILIES.items():
            if comparison["stage"].startswith(comparison_prefixes):
                return name
        return None

    fresh = report.to_dict()
    try:
        with open(path) as handle:
            existing = json.load(handle)
    except (OSError, ValueError):
        existing = None
    if existing is not None:
        preserved_stages = [
            s for s in existing.get("stages", []) if family_of_stage(s) != family
        ]
        preserved_comparisons = [
            c
            for c in existing.get("comparisons", [])
            if family_of_comparison(c) != family
        ]
        if family is not None:
            # Keep the hot-path suite's envelope and stage ordering.
            merged = dict(existing)
            merged["stages"] = preserved_stages + fresh["stages"]
            merged["comparisons"] = preserved_comparisons + fresh["comparisons"]
            fresh = merged
        else:
            fresh["stages"] = fresh["stages"] + preserved_stages
            fresh["comparisons"] = fresh["comparisons"] + preserved_comparisons
    with open(path, "w") as handle:
        json.dump(fresh, handle, indent=2)
        handle.write("\n")


def record_report(name: str, text: str) -> None:
    """Register a rendered table for the terminal summary and save it."""
    _REPORTS.append(text)
    os.makedirs(RESULTS_DIR, exist_ok=True)
    path = os.path.join(RESULTS_DIR, f"{name}.txt")
    with open(path, "w") as handle:
        handle.write(text + "\n")


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _REPORTS:
        return
    terminalreporter.section("reproduced paper tables/figures")
    for text in _REPORTS:
        terminalreporter.write_line("")
        for line in text.splitlines():
            terminalreporter.write_line(line)


@pytest.fixture(scope="session")
def bench_fidelity():
    """The fidelity preset used by all benches (env-overridable)."""
    return fidelity_preset(os.environ.get("REPRO_BENCH_FIDELITY", "fast"))


@pytest.fixture(scope="session")
def transfer_fidelity():
    """Preset for cross-environment benches (env-overridable)."""
    name = os.environ.get("REPRO_BENCH_TRANSFER_FIDELITY", "transfer")
    return fidelity_preset(name)


class _Caches:
    """Session-wide dataset/model caches keyed by configuration."""

    def __init__(self) -> None:
        self.datasets: dict = {}
        self.models: dict = {}

    def dataset(self, dataset_id: str, fidelity, seed: int = 7):
        key = (dataset_id, fidelity.name, seed)
        if key not in self.datasets:
            self.datasets[key] = build_dataset(
                dataset_spec(dataset_id), fidelity=fidelity, seed=seed
            )
        return self.datasets[key]

    def trained(self, dataset_id: str, fidelity, compression: float, seed: int = 0):
        key = (dataset_id, fidelity.name, compression, seed)
        if key not in self.models:
            self.models[key] = train_splitbeam(
                self.dataset(dataset_id, fidelity),
                compression=compression,
                fidelity=fidelity,
                seed=seed,
            )
        return self.models[key]


@pytest.fixture(scope="session")
def caches():
    return _Caches()
