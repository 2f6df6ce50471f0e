"""Acceptance tests: end-to-end tracing of engine runs and campaigns.

The issue's acceptance criteria live here at smoke scale:

- a 4-worker engine run and a 16-STA campaign, traced, produce result
  artifacts **byte-identical** to their untraced runs;
- the Chrome trace-event JSON contains coordinator spans *and* a
  worker-recorded task span for every executed task;
- ``python -m repro.obs report`` (``render_report``) names the
  critical path;
- span trees are structurally deterministic (same ids across runs and
  across worker counts);
- ``$REPRO_RUNTIME_TRACE`` activates tracing and writes all three
  artifacts;
- worker counters and ``@profiled`` timers merge into the coordinator's
  registry exactly once, and a trace's ``metrics`` record counts a
  nested zoo build's work once.
"""

from __future__ import annotations

import json
import os
from dataclasses import asdict
from pathlib import Path

import pytest

from repro.config import SMOKE
from repro.core.network import NetworkCampaign
from repro.obs import (
    CHROME_NAME,
    JSONL_NAME,
    SUMMARY_NAME,
    critical_path,
    load_trace,
    metrics,
    render_report,
    validate_events,
)
from repro.obs.report import task_rows
from repro.runtime import (
    CheckpointStore,
    ExperimentEngine,
    NetworkCampaignSpec,
    ResultCache,
    RetryPolicy,
    Scenario,
    dot11,
    fidelity_to_dict,
    get_campaign,
    ideal,
    parse_plan,
    point,
    splitbeam,
    sta_profile,
)
from repro.runtime.tasks import clear_memos

N_WORKERS = 4
N_STAS = 16
N_ROUNDS = 2


def _scenario() -> Scenario:
    points = [
        point(
            f"SB seed {seed}",
            "D1",
            splitbeam(1 / 8, seed=seed),
            link={"snr_db": 20.0},
            ber_samples=6,
        )
        for seed in range(4)
    ]
    points.append(
        point("802.11", "D1", dot11(), link={"snr_db": 20.0}, ber_samples=6)
    )
    points.append(
        point("ideal", "D1", ideal(), link={"snr_db": 20.0}, ber_samples=6)
    )
    return Scenario(
        name="obs-acceptance",
        title="tracing acceptance scenario",
        fidelity=fidelity_to_dict(SMOKE),
        points=tuple(points),
    )


def _sixteen_sta_spec() -> NetworkCampaignSpec:
    stas = []
    for i in range(N_STAS):
        if i % 4 == 3:
            stas.append(
                sta_profile(
                    f"sta{i:03d}",
                    "D1",
                    scheme="dot11",
                    samples_per_round=2,
                    seed=i % 2,
                )
            )
        else:
            stas.append(
                sta_profile(
                    f"sta{i:03d}",
                    "D1",
                    compressions=(1 / 8,),
                    max_ber=0.5,
                    samples_per_round=2,
                    seed=i % 2,
                )
            )
    return NetworkCampaignSpec(
        name="obs-16sta",
        title="16-STA tracing acceptance campaign",
        fidelity=asdict(SMOKE),
        stas=tuple(stas),
        n_rounds=N_ROUNDS,
    )


def _task_events(chrome: dict) -> "list[dict]":
    return [
        event
        for event in chrome["traceEvents"]
        if event.get("ph") == "X" and event.get("cat") == "task"
    ]


@pytest.fixture(scope="module")
def engine_runs(tmp_path_factory):
    """Untraced serial + traced 4-worker + traced serial runs."""
    root = tmp_path_factory.mktemp("obs-engine")
    scenario = _scenario()

    def run(tag, n_workers, trace):
        clear_memos()
        cache = ResultCache(root / f"cache-{tag}")
        return ExperimentEngine(
            cache=cache, n_workers=n_workers, trace=trace
        ).run(scenario)

    untraced = run("untraced", N_WORKERS, False)
    base = metrics.snapshot()
    pooled = run("pooled", N_WORKERS, str(root / "trace-pooled"))
    pooled_timers = metrics.since(base)["timers"]
    serial = run("serial", 1, str(root / "trace-serial"))
    repeat = run("repeat", N_WORKERS, str(root / "trace-repeat"))
    return {
        "scenario": scenario,
        "untraced": untraced,
        "pooled": pooled,
        "pooled_timers": pooled_timers,
        "serial": serial,
        "repeat": repeat,
    }


class TestEngineAcceptance:
    def test_traced_artifact_is_byte_identical(self, engine_runs):
        untraced = json.dumps(
            engine_runs["untraced"].to_dict(), sort_keys=True
        )
        for tag in ("pooled", "serial", "repeat"):
            traced = json.dumps(engine_runs[tag].to_dict(), sort_keys=True)
            assert traced == untraced, tag

    def test_trace_dir_reported_and_artifacts_written(self, engine_runs):
        assert engine_runs["untraced"].trace_dir is None
        trace_dir = engine_runs["pooled"].trace_dir
        assert sorted(os.listdir(trace_dir)) == [
            CHROME_NAME, SUMMARY_NAME, JSONL_NAME,
        ]

    def test_trace_validates_against_schema(self, engine_runs):
        events = load_trace(engine_runs["pooled"].trace_dir)
        assert validate_events(events) == []

    def test_chrome_trace_has_worker_span_per_task_plus_coordinator(
        self, engine_runs
    ):
        with open(
            os.path.join(engine_runs["pooled"].trace_dir, CHROME_NAME)
        ) as handle:
            chrome = json.load(handle)
        tasks = _task_events(chrome)
        run = engine_runs["pooled"]
        labels = {event["args"]["task"] for event in tasks}
        expected = {
            f"{index:04d}:{p['label']}"
            for index, p in enumerate(engine_runs["scenario"].points)
        }
        # (b) a span for every executed task...
        assert labels == expected and len(tasks) == run.n_executed
        # ...recorded by worker processes (lane != coordinator's 0)...
        assert all(event["pid"] != 0 for event in tasks)
        # ...alongside the coordinator's own engine/executor spans.
        coordinator = [
            event
            for event in chrome["traceEvents"]
            if event.get("ph") == "X" and event["pid"] == 0
        ]
        names = {event["name"] for event in coordinator}
        assert {"execute", "dispatch", "plan", "cache_check"} <= names
        lanes = {
            event["args"]["name"]
            for event in chrome["traceEvents"]
            if event.get("ph") == "M"
        }
        assert "coordinator" in lanes and "worker-1" in lanes

    def test_serial_run_records_tasks_on_the_coordinator(self, engine_runs):
        with open(
            os.path.join(engine_runs["serial"].trace_dir, CHROME_NAME)
        ) as handle:
            chrome = json.load(handle)
        tasks = _task_events(chrome)
        assert len(tasks) == engine_runs["serial"].n_executed
        assert all(event["pid"] == 0 for event in tasks)

    def test_report_names_the_critical_path(self, engine_runs):
        report = render_report(load_trace(engine_runs["pooled"].trace_dir))
        assert "critical path" in report
        assert "->" in report
        # The named chain is one of the scenario's points.
        labels = [p["label"] for p in engine_runs["scenario"].points]
        assert any(label in report for label in labels)

    def test_span_tree_identical_across_runs_and_worker_counts(
        self, engine_runs
    ):
        def tree(tag, category=None):
            events = load_trace(engine_runs[tag].trace_dir)
            return {
                (event["id"], event["parent"], event["name"])
                for event in events
                if event.get("type") == "span"
                and (category is None or event["cat"] == category)
            }

        # Same configuration -> identical full span tree (ids included).
        assert tree("pooled") == tree("repeat")
        # Task spans have logical (wave/chunk-independent) parents, so
        # even serial vs 4-worker runs agree on every task span id.
        assert tree("pooled", "task") == tree("serial", "task")

    def test_worker_timers_merge_into_coordinator(self, engine_runs):
        timers = engine_runs["pooled_timers"]
        # The link simulator only ever ran inside pool workers, yet the
        # coordinator registry sees it: workers ship their deltas.
        assert timers["link.measure_ber"]["calls"] >= 2  # baseline points

    def test_metrics_record_cache_and_ipc_counters(self, engine_runs):
        events = load_trace(engine_runs["pooled"].trace_dir)
        record = next(e for e in events if e.get("type") == "metrics")
        counters = record["counters"]
        run = engine_runs["pooled"]
        assert counters["cache.misses"] == run.n_tasks
        assert counters["cache.puts"] == run.n_executed
        assert "cache.hits" not in counters
        assert counters["executor.messages"] >= 1
        assert counters["executor.message_bytes"] > 0
        assert "executor.task_errors" not in counters
        # The trace carries the worker-side @profiled time too.
        calls = {name: t["calls"] for name, t in record["timers"].items()}
        assert calls == {
            name: t["calls"] for name, t in engine_runs["pooled_timers"].items()
        }


@pytest.fixture(scope="module")
def campaign_runs(tmp_path_factory):
    """Untraced and traced 4-worker runs of the 16-STA campaign."""
    root = tmp_path_factory.mktemp("obs-campaign")
    spec = _sixteen_sta_spec()
    store = CheckpointStore(root / "store")

    clear_memos()
    untraced = NetworkCampaign(
        spec,
        cache=ResultCache(root / "cache-untraced"),
        store=store,
        n_workers=N_WORKERS,
        trace=False,
    ).run()
    clear_memos()
    traced = NetworkCampaign(
        spec,
        cache=ResultCache(root / "cache-traced"),
        store=store,
        n_workers=N_WORKERS,
        trace=str(root / "trace"),
    ).run()
    return {"spec": spec, "untraced": untraced, "traced": traced}


class TestCampaignAcceptance:
    def test_traced_manifest_is_byte_identical(self, campaign_runs):
        untraced = json.dumps(
            campaign_runs["untraced"].to_dict(), sort_keys=True
        )
        traced = json.dumps(campaign_runs["traced"].to_dict(), sort_keys=True)
        assert traced == untraced

    def test_trace_contains_worker_span_for_every_round(self, campaign_runs):
        traced = campaign_runs["traced"]
        with open(
            os.path.join(traced.trace_dir, CHROME_NAME)
        ) as handle:
            chrome = json.load(handle)
        tasks = _task_events(chrome)
        round_events = [
            event
            for event in tasks
            if "/rounds-" in event["args"]["task"]
            or "/dot11-" in event["args"]["task"]
        ]
        # One worker span per executed task: a SplitBeam STA's chain
        # (``<sta>/rounds-<first>-<last>``) or an 802.11 STA's rounds
        # (``<sta>/dot11-<first>-<last>``, no gaps on a cold run);
        # together they cover every round once.
        covered = []
        for event in round_events:
            sta, _, rounds = event["args"]["task"].partition("/")
            bounds = [int(part) for part in rounds.split("-")[1:]]
            covered.extend(
                (sta, r) for r in range(bounds[0], bounds[-1] + 1)
            )
        expected = [
            (f"sta{i:03d}", r) for i in range(N_STAS) for r in range(N_ROUNDS)
        ]
        assert sorted(covered) == expected
        assert len(covered) == traced.n_executed_rounds
        assert any("/rounds-" in e["args"]["task"] for e in round_events)
        assert any("/dot11-" in e["args"]["task"] for e in round_events)
        assert all(event["pid"] != 0 for event in round_events)
        # The embedded zoo build joined the campaign's timeline.
        names = {
            event["name"]
            for event in chrome["traceEvents"]
            if event.get("ph") == "X"
        }
        assert f"campaign:{campaign_runs['spec'].name}" in names
        assert any(name.startswith("zoo:") for name in names)
        assert {"plan_rounds", "assemble"} <= names

    def test_trace_validates_and_reports_critical_path(self, campaign_runs):
        events = load_trace(campaign_runs["traced"].trace_dir)
        assert validate_events(events) == []
        report = render_report(events)
        # The critical path is the longest task span.
        (longest,), _ = critical_path(events)
        assert longest == max(
            task_rows(events),
            key=lambda row: row["end_s"] - row["start_s"],
        )["attrs"]["task"]
        assert "critical path (1 task(s), " in report
        assert f"-> {longest}\n" in report

    def test_campaign_metrics_fold_health(self, campaign_runs):
        events = load_trace(campaign_runs["traced"].trace_dir)
        record = next(e for e in events if e.get("type") == "metrics")
        counters = record["counters"]
        traced = campaign_runs["traced"]
        assert counters["cache.puts"] == traced.n_executed_rounds
        assert "executor.worker_crashes" not in counters
        assert record["timers"]["link.measure_ber"]["calls"] >= 1


class TestEnvActivation:
    def test_env_var_traces_a_run_end_to_end(self, tmp_path, monkeypatch):
        from repro.obs.trace import TRACE_ENV

        trace_dir = tmp_path / "env-trace"
        monkeypatch.setenv(TRACE_ENV, str(trace_dir))
        clear_memos()
        scenario = _scenario()
        run = ExperimentEngine(cache=ResultCache(tmp_path / "cache")).run(
            scenario
        )
        assert run.trace_dir == str(trace_dir)
        assert sorted(os.listdir(trace_dir)) == [
            CHROME_NAME, SUMMARY_NAME, JSONL_NAME,
        ]
        assert validate_events(load_trace(trace_dir)) == []

    def test_trace_false_wins_over_env(self, tmp_path, monkeypatch):
        from repro.obs.trace import TRACE_ENV

        monkeypatch.setenv(TRACE_ENV, str(tmp_path / "never"))
        clear_memos()
        run = ExperimentEngine(
            cache=ResultCache(tmp_path / "cache"), trace=False
        ).run(_scenario())
        assert run.trace_dir is None
        assert not (tmp_path / "never").exists()


def _smoke_campaign(n_rounds: int):
    """The smoke ``network-scale`` campaign: 6 STAs, ladders selectable."""
    return get_campaign(
        "network-scale",
        fidelity=SMOKE,
        n_stas=6,
        n_rounds=n_rounds,
        gamma_scale=10,
    )


class TestNestedRunTelemetry:
    def test_trace_counts_the_nested_zoo_build_once(self, tmp_path):
        # One injected error on each zoo training task (ids "0000:...");
        # the campaign's own tasks are named after their STAs.
        clear_memos()
        result = NetworkCampaign(
            _smoke_campaign(n_rounds=2),
            cache=ResultCache(tmp_path / "cache"),
            store=CheckpointStore(tmp_path / "store"),
            n_workers=1,
            policy=RetryPolicy(backoff_s=0.0),
            faults=parse_plan("error,0*,count=1"),
            trace=str(tmp_path / "trace"),
        ).run()
        health = result.health
        events = load_trace(result.trace_dir)
        record = next(e for e in events if e.get("type") == "metrics")
        for name in ("retries", "task_errors", "injected_faults"):
            both = health["zoo"]["executor"][name] + health["executor"][name]
            assert both == 6, name
            assert record["counters"][f"executor.{name}"] == both, name
        # Health is counted, never copied into the trace as gauges.
        jsonl = Path(result.trace_dir, JSONL_NAME).read_text()
        assert '"health.' not in jsonl
        for timer in ("link.measure_ber", "trainer.fit", "sampler.collect_session"):
            assert record["timers"][timer]["calls"] >= 1, timer


#: perfbench ledger layer -> how the registry counts the same calls.
_LEDGER_LAYERS = {
    "channels.collect": ("timer", ("sampler.collect_session",)),
    "datasets.build": ("timer", ("datasets.build",)),
    "datasets.median": ("timer", ("datasets.median",)),
    "phy.link": ("timer", ("link.measure_ber",)),
    "nn.optim": ("timer", ("optim.step",)),
    "nn.fit": ("timer", ("trainer.fit",)),
    "runtime.store_get": (
        "counter",
        ("cache.hits", "cache.misses", "checkpoint.hits", "checkpoint.misses"),
    ),
    "runtime.store_put": ("counter", ("cache.puts", "checkpoint.puts")),
}


def _registry_calls(delta: dict) -> "dict[str, int]":
    out = {}
    for layer, (kind, names) in _LEDGER_LAYERS.items():
        if kind == "timer":
            out[layer] = sum(
                delta["timers"].get(name, {"calls": 0})["calls"] for name in names
            )
        else:
            out[layer] = sum(delta["counters"].get(name, 0) for name in names)
    return out


class TestRegistryMatchesLedger:
    """perfbench's ledger wraps the public entry points from outside.

    It reads no registry, so where both see the same calls their counts
    must agree; an untraced run counts as fully as a traced one.
    """

    @staticmethod
    def _cold_run(root: Path, n_workers: int) -> dict:
        clear_memos()
        base = metrics.snapshot()
        NetworkCampaign(
            _smoke_campaign(n_rounds=3),
            cache=ResultCache(root / "cache"),
            store=CheckpointStore(root / "store"),
            n_workers=n_workers,
            trace=False,
        ).run()
        return _registry_calls(metrics.since(base))

    def test_registry_counts_equal_the_ledger(self, tmp_path, monkeypatch):
        monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[2]))
        from perfbench import ledger

        recorder = ledger.Recorder()
        installation = ledger.install(recorder)
        try:
            serial = self._cold_run(tmp_path / "serial", n_workers=1)
        finally:
            installation.uninstall()
        assert installation.missing == []
        assert all(serial.values()), serial
        assert {layer: recorder.calls.get(layer, 0) for layer in serial} == serial
        # Pool workers ship their deltas and the coordinator merges each
        # once: two workers count exactly what one does.
        assert self._cold_run(tmp_path / "pooled", n_workers=2) == serial
