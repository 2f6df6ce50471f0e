"""Network-campaign orchestration benchmark: cold vs warm, 1 vs N workers.

Times a heterogeneous multi-STA :class:`~repro.core.network.
NetworkCampaign` (the paper's AP-serving-many-STAs scenario) through
the runtime engine and merges three stages into
``benchmarks/results/BENCH_hotpaths.json`` alongside the engine/zoo
stages:

- ``campaign/cold_1worker``    ladder training + every STA-round
  measured, serial;
- ``campaign/cold_4workers``   the same with a 4-process pool (ladders
  come from a shared checkpoint store, so this times round fan-out);
- ``campaign/warm_cache``      everything replayed from the
  content-addressed stores — zero trainings, zero link simulations.

The cost under test is orchestration (planning, per-round cache keys,
the one task per STA, the pool), so the physics stays smoke-scale.  The
determinism contract is asserted along the way: worker counts must not
change a byte of the campaign manifest, and the warm run must execute
nothing.

Run with ``pytest benchmarks/bench_network_campaign.py --perf`` or
``python benchmarks/bench_network_campaign.py`` (tier-1 never runs it).
"""

from __future__ import annotations

import itertools
import json
import os
import shutil
import sys
import tempfile

import pytest

from repro.config import Fidelity
from repro.core.network import NetworkCampaign
from repro.perf import Benchmark, PerfReport
from repro.runtime import (
    CheckpointStore,
    NetworkCampaignSpec,
    ResultCache,
    fidelity_to_dict,
    mobility_episode,
    sta_profile,
)
from repro.runtime.tasks import clear_memos

try:
    from benchmarks.conftest import (
        RESULTS_DIR,
        record_report,
        write_hotpaths_json,
    )
except ModuleNotFoundError:  # direct `python benchmarks/bench_network_campaign.py`
    sys.path.insert(
        0, os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    )
    from benchmarks.conftest import (
        RESULTS_DIR,
        record_report,
        write_hotpaths_json,
    )

pytestmark = pytest.mark.perf

JSON_NAME = "BENCH_hotpaths.json"

#: Orchestration-scale budget: the campaign machinery is the workload,
#: not the physics, so datasets and trainings stay tiny.
CAMPAIGN_FIDELITY = Fidelity(
    name="perf-campaign",
    n_samples=96,
    n_sessions=2,
    epochs=4,
    ber_samples=12,
    ofdm_symbols=1,
)

CAMPAIGN_WORKERS = 4
N_STAS = 8
N_ROUNDS = 4


def _campaign_spec() -> NetworkCampaignSpec:
    """8 heterogeneous STAs x 4 rounds on one dataset, with a burst."""
    stas = []
    for i in range(N_STAS):
        if i % 4 == 3:
            stas.append(
                sta_profile(
                    f"sta{i:02d}", "D1", scheme="dot11",
                    samples_per_round=6, seed=i,
                )
            )
        else:
            stas.append(
                sta_profile(
                    f"sta{i:02d}", "D1",
                    compressions=(1 / 16, 1 / 8),
                    max_ber=0.5,
                    doppler_hz=(0.0, 2.0, 6.0)[i % 3],
                    samples_per_round=6,
                    seed=i,
                )
            )
    return NetworkCampaignSpec(
        name="perf-campaign",
        title=f"campaign benchmark: {N_STAS} STAs x {N_ROUNDS} rounds on D1",
        fidelity=fidelity_to_dict(CAMPAIGN_FIDELITY),
        stas=tuple(stas),
        n_rounds=N_ROUNDS,
        episodes=(
            mobility_episode(0),
            mobility_episode(2, doppler_scale=20.0, snr_offset_db=-4.0),
        ),
    )


def build_report() -> PerfReport:
    bench = Benchmark(warmup=0, repeats=2)
    report = PerfReport(
        "network-campaign orchestration (cold/warm, worker scaling)",
        context={
            "workload": f"{N_STAS} STAs x {N_ROUNDS} rounds on D1, "
            "2-rung ladders + 802.11 baselines"
        },
    )
    spec = _campaign_spec()
    workdir = tempfile.mkdtemp(prefix="repro-campaign-bench-")
    counter = itertools.count()
    store = CheckpointStore(os.path.join(workdir, "store"))
    last_run: dict[int, object] = {}

    def cold_run(n_workers: int):
        # A fresh round cache and empty per-process memos each call, so
        # every repeat pays the full round-measurement cost; the ladder
        # checkpoint store is shared, so 1- and 4-worker stages time the
        # same work.
        clear_memos()
        cache = ResultCache(os.path.join(workdir, f"cold-{next(counter)}"))
        run = NetworkCampaign(
            spec, cache=cache, store=store, n_workers=n_workers
        ).run()
        assert run.n_executed_rounds == N_STAS * N_ROUNDS
        last_run[n_workers] = run
        return run

    try:
        # Prime the checkpoint store outside the timed region: the cold
        # stages compare round orchestration, not first-training luck.
        cold_run(1)
        cold_serial = bench.run(
            "campaign/cold_1worker",
            lambda: cold_run(1),
            n_items=N_STAS * N_ROUNDS,
            meta={"n_stas": N_STAS, "n_rounds": N_ROUNDS},
        )
        cold_workers = bench.run(
            f"campaign/cold_{CAMPAIGN_WORKERS}workers",
            lambda: cold_run(CAMPAIGN_WORKERS),
            n_items=N_STAS * N_ROUNDS,
            meta={
                "n_stas": N_STAS,
                "n_rounds": N_ROUNDS,
                "n_workers": CAMPAIGN_WORKERS,
                "cpu_count": os.cpu_count(),
            },
        )
        # Determinism: worker count must not change a manifest byte.
        assert json.dumps(
            last_run[1].to_dict(), sort_keys=True
        ) == json.dumps(last_run[CAMPAIGN_WORKERS].to_dict(), sort_keys=True)

        warm_cache = ResultCache(os.path.join(workdir, "warm"))
        NetworkCampaign(spec, cache=warm_cache, store=store).run()

        def warm_run():
            clear_memos()
            run = NetworkCampaign(
                spec, cache=warm_cache, store=store, n_workers=1
            ).run()
            # A warm re-run replays every STA-round from the
            # content-addressed store: zero tasks, zero link sims.
            assert run.n_executed_rounds == 0
            assert run.zoo_trained == 0
            return run

        warm = bench.run(
            "campaign/warm_cache",
            warm_run,
            n_items=N_STAS * N_ROUNDS,
            repeats=3,
            meta={"n_stas": N_STAS, "n_rounds": N_ROUNDS},
        )
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    report.add(cold_serial)
    report.add(cold_workers)
    report.add(warm)
    report.add_comparison("campaign_cache", cold_serial, warm)
    # Worker scaling only means something with cores to scale onto;
    # below the gate the txt report renders this row as skipped.
    report.add_comparison(
        "campaign_workers", cold_serial, cold_workers, requires_cpus=4
    )
    return report


@pytest.mark.perf
def test_perf_network_campaign():
    report = build_report()
    os.makedirs(RESULTS_DIR, exist_ok=True)
    write_hotpaths_json(
        report, os.path.join(RESULTS_DIR, JSON_NAME), family="campaign"
    )
    record_report("BENCH_network_campaign", report.render())
    comparisons = {c["stage"]: c for c in report.to_dict()["comparisons"]}
    # A warm store (reads JSON, replays controllers) must beat
    # re-measuring every round outright.
    assert comparisons["campaign_cache"]["speedup"] >= 2.0
    # Worker scaling is hardware-dependent; assert only where four
    # workers actually have four cores to land on.
    if (os.cpu_count() or 1) >= 4:
        assert comparisons["campaign_workers"]["speedup"] >= 1.5


if __name__ == "__main__":
    perf_report = build_report()
    os.makedirs(RESULTS_DIR, exist_ok=True)
    write_hotpaths_json(
        perf_report, os.path.join(RESULTS_DIR, JSON_NAME), family="campaign"
    )
    print(perf_report.render())
