"""Tests of the benchmark's own code: names, ledger arithmetic, probe, compare."""

from __future__ import annotations

import json
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from perfbench import compare, ledger, stats  # noqa: E402
from perfbench.run import scipy_import_us  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def test_metric_and_workload_names_are_well_formed():
    names = [w["name"] for w in BENCHMARK["workloads"]]
    names += [m["name"] for m in BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]]
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.fullmatch(name) and len(name) <= 64, name


def test_every_ledger_metric_is_declared():
    import repro.lint  # noqa: F401  (registers the rules)

    targets = (*ledger.TARGETS, *ledger.rule_targets())
    assert len(targets) > len(ledger.TARGETS)
    layers = tuple(dict.fromkeys(layer for layer, _, _ in targets))
    produced = ledger.layer_metrics([], {}, {}, layers)
    declared = {m["name"] for m in BENCHMARK["per_layer"]}
    assert set(produced) <= declared


def _span(span_id, parent, name, start, end):
    return ledger.Span(span_id, parent, name, start, end, "job")


def test_self_times_and_unattributed_add_up_to_wall():
    spans = [
        _span(2, 1, "datasets.build", 1.0, 4.0),
        _span(3, 2, "phy.svd", 2.0, 3.0),
        _span(4, 1, "runtime.executor", 5.0, 9.0),
        _span(5, 4, "phy.link", 6.0, 7.5),
        _span(6, 4, "phy.link", 7.5, 8.0),
        _span(1, None, "job", 0.0, 10.0),
    ]
    result = ledger.build_ledger(spans, [1])
    assert result.wall_s == pytest.approx(10.0)
    assert result.layers == pytest.approx(
        {"datasets.build": 2.0, "phy.svd": 1.0, "runtime.executor": 2.0, "phy.link": 2.0}
    )
    assert result.unattributed_s == pytest.approx(3.0)
    assert sum(result.layers.values()) + result.unattributed_s == pytest.approx(result.wall_s)


def test_ledger_of_one_root_ignores_other_jobs():
    spans = [
        _span(2, 1, "phy.svd", 0.5, 1.0),
        _span(1, None, "job", 0.0, 2.0),
        _span(4, 3, "phy.svd", 3.0, 5.0),
        _span(3, None, "job", 3.0, 6.0),
    ]
    result = ledger.build_ledger(spans, [3])
    assert result.layers == pytest.approx({"phy.svd": 2.0})
    assert result.wall_s == pytest.approx(3.0)


def test_wrapper_that_never_fires_is_reported_as_such():
    import numpy as np
    import repro.datasets.preprocess as preprocess
    import repro.datasets.builder as builder

    original = preprocess.moving_median
    recorder = ledger.Recorder()
    installation = ledger.install(recorder)
    try:
        assert builder.moving_median is not original  # caller's binding wrapped
        root = recorder.call("job", builder.moving_median, (np.ones((12, 2, 3)),), {"window": 3})
    finally:
        installation.uninstall()
    assert builder.moving_median is original and preprocess.moving_median is original
    root_id = recorder.spans[-1].span_id
    metrics = ledger.layer_metrics(
        [(ledger.build_ledger(recorder.spans, [root_id]), 1.0)],
        recorder.calls, recorder.counts, installation.layers,
    )
    assert root is not None
    assert metrics["datasets.median_s"] is not None and metrics["datasets.median_s"] >= 0.0
    for name in ("datasets.build_s", "phy.svd_s", "nn.optim_s", "datasets.builds", "runtime.tasks"):
        assert metrics[name] is None, name


def test_lint_wrappers_fire_and_rules_add_up(tmp_path):
    from repro.lint import RULES, run_lint

    package = tmp_path / "pkg"
    package.mkdir()
    (package / "__init__.py").write_text("")
    (package / "mod.py").write_text("import os\n\n\ndef f():\n    return os.environ.get('X')\n")
    originals = {code: vars(type(rule))["run"] for code, rule in RULES.items()}
    recorder = ledger.Recorder()
    installation = ledger.install(recorder)
    try:
        assert vars(type(RULES["REP-NONDET"]))["run"] is not originals["REP-NONDET"]
        result = recorder.call("job", run_lint, ([tmp_path],), {})
    finally:
        installation.uninstall()
    assert {code: vars(type(rule))["run"] for code, rule in RULES.items()} == originals
    root_id = recorder.spans[-1].span_id
    metrics = ledger.layer_metrics(
        [(ledger.build_ledger(recorder.spans, [root_id]), 1.0)],
        recorder.calls, recorder.counts, installation.layers,
    )
    assert result.n_modules == 2 and any(f.rule == "REP-ENV-READ" for f in result.findings)
    rules = [name for name in metrics if name.startswith(ledger.RULE_PREFIX)]
    assert len(rules) == len(RULES)
    for name in ["lint.load_s", "lint.analysis_s", "lint.rules_s", *rules]:
        assert metrics[name] is not None and metrics[name] >= 0.0, name
    assert metrics["lint.rules_s"] == pytest.approx(sum(metrics[name] for name in rules))
    assert metrics["phy.svd_s"] is None


def test_probe_imports_nothing_from_repro():
    code = (
        "import sys; sys.path.insert(0, sys.argv[1]); import perfbench.probe as p; "
        "p.probe_loop(); "
        "print(sorted(m for m in sys.modules if m == 'repro' or m.startswith('repro.')))"
    )
    out = subprocess.run(
        [sys.executable, "-c", code, str(ROOT)], capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "[]"


def test_probe_scales_wall_time_by_measured_speed():
    from perfbench.probe import INTERVAL_S, SpeedProbe

    probe = SpeedProbe(reference_s=1e-4)
    probe.start()
    began = time.perf_counter()
    while time.perf_counter() - began < 4 * INTERVAL_S:
        sum(i * i for i in range(1000))
    timing = probe.stop()
    assert timing.wall_s >= 4 * INTERVAL_S and timing.n_probes >= 2
    assert timing.reference_s == pytest.approx(
        timing.wall_s * 1e-4 / timing.probe_s, rel=0.9
    )


RUNS = {0: 10.0, 1: 10.2, 2: 9.9, 3: 10.1, 4: 10.0, 5: 9.8, 6: 10.3, 7: 10.0, 8: 10.1, 9: 9.9}


@pytest.mark.parametrize(
    "change, bound, expected",
    [
        ({s: v * 0.8 for s, v in RUNS.items()}, 0.1, "better"),
        ({s: v * 1.3 for s, v in RUNS.items()}, 0.1, "worse"),
        ({s: v * 1.01 for s, v in RUNS.items()}, 0.1, "unchanged"),
        ({s: v * (1.0 + (0.4 if s % 2 else -0.3)) for s, v in RUNS.items()}, 0.1, "unresolved"),
        # A regression that also widens the spread is still a regression.
        ({s: v * (1.4 + (0.3 if s % 2 else -0.3)) for s, v in RUNS.items()}, 0.1, "worse"),
    ],
)
def test_compare_verdicts(change, bound, expected):
    outcome, share = compare.verdict(RUNS, change, bound, "lower")
    assert outcome == expected
    assert 0.0 <= share <= 1.0


def test_compare_respects_higher_is_better():
    change = {s: v * 0.8 for s, v in RUNS.items()}
    assert compare.verdict(RUNS, change, 0.1, "higher")[0] == "worse"


def test_compare_flags_failed_units_despite_their_spread():
    parent = {seed: 1.0 for seed in range(10)}
    change = {seed: 1.0 if seed % 2 else 0.5 for seed in range(10)}
    assert compare.verdict(parent, change, 0.01, "higher")[0] == "worse"


def test_compare_reads_run_directories(tmp_path):
    for side, factor in (("a", 1.0), ("b", 1.5)):
        directory = tmp_path / side
        directory.mkdir()
        for seed, value in RUNS.items():
            report = {
                "workload": "zoo-table2", "seed": seed, "trace": 0,
                "result": {"metrics": {"cold_s": {"value": value * factor, "unit": "s"}}},
            }
            (directory / f"zoo-table2-seed{seed}-trace0.json").write_text(json.dumps(report))
    assert compare.main([str(tmp_path / "a"), str(tmp_path / "b")], BENCHMARK) == 1


def test_scipy_import_time_counts_only_outermost_scipy_entries():
    log = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:       100 |        100 |     scipy._lib",
        "import time:       200 |        300 |   scipy",
        "import time:        50 |         50 |     numpy.core",
        "import time:        10 |        360 |   repro.channels",
        "import time:        40 |         40 |   scipy.special",
        "import time:         5 |        405 | repro",
    ])
    assert scipy_import_us(log) == 340.0


def test_tail_percentile_needs_ten_samples_beyond():
    assert stats.tail_percentile(list(range(39))) is None
    assert stats.tail_percentile(list(range(40)))[0] == 75
    assert stats.tail_percentile(list(range(1000)))[0] == 99
