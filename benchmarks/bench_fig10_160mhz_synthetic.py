"""Fig. 10: BER and STA FLOPs at 160 MHz (synthetic D13-D15, BCC 1/2).

The paper's widest-band experiment: Model-B synthetic channels at
160 MHz for 2x2, 3x3 and 4x4, rate-1/2 convolutional coding, K = 1/8.
Expected shape: all three schemes reach comparable (coded) BER while
SplitBeam's STA-load advantage *grows with the antenna count* (the
paper: "the improvement given by SplitBeam is more prominent when the
number of antennas increases").

Documented deviation on the absolute ordering: SplitBeam's head is
O(K * (Nt*Nr*S)^2) while SVD+GR is linear in S, and our testbed
geometry has Nr = 1 per STA.  At S = 484 that quadratic term makes the
2x2/3x3 heads *more* expensive than the (very cheap, Nr = 1) 802.11
pipeline; the crossover lands at 4x4, where SplitBeam wins as the paper
reports.  We therefore assert the monotone ratio trend and the 4x4 win
rather than a uniform SplitBeam < 802.11 ordering, and record all
measured values in the report.

160 MHz models are the most expensive to train; this bench uses a
reduced sample budget (``FIG10_FIDELITY`` in ``repro.runtime.registry``;
see docs/conventions.md, § Fidelity presets).

The grid executes through ``repro.runtime``: the ``synthetic-160mhz``
scenario preset expands to 9 (config x scheme) tasks — trainings
included — that fan out over ``$REPRO_RUNTIME_WORKERS`` workers and
memoize in the content-addressed result cache, with a deterministic
JSON artifact next to the rendered table.
"""

import os

from repro.analysis.report import ExperimentReport
from repro.runtime import ExperimentEngine, get_scenario
from repro.runtime.registry import FIG10_FIDELITY

from benchmarks.conftest import RESULTS_DIR, record_report, runtime_cache

DATASETS = {"2x2": "D13", "3x3": "D14", "4x4": "D15"}
JSON_NAME = "fig10_160mhz_synthetic.json"


def compute_report() -> ExperimentReport:
    fidelity = FIG10_FIDELITY
    if os.environ.get("REPRO_BENCH_FIDELITY") == "paper":
        from repro.config import PAPER

        fidelity = PAPER
    scenario = get_scenario("synthetic-160mhz", fidelity=fidelity)
    run = ExperimentEngine(cache=runtime_cache()).run(scenario)
    run.write_json(os.path.join(RESULTS_DIR, JSON_NAME))
    report = ExperimentReport(
        "Fig. 10: BER and STA FLOPs @ 160 MHz, BCC 1/2, K = 1/8"
    )
    for entry in run.points:
        report.add(entry["label"], "BER", entry["result"]["ber"])
        report.add(entry["label"], "FLOPs x1e5",
                   entry["result"]["sta_flops"] / 1e5)
    return report


def test_fig10_160mhz_synthetic(benchmark):
    report = benchmark.pedantic(compute_report, rounds=1, iterations=1)
    record_report("fig10_160mhz_synthetic", report.render(precision=4))

    flops = {
        r.setting: r.measured for r in report.records if "FLOPs" in r.metric
    }
    bers = {r.setting: r.measured for r in report.records if r.metric == "BER"}
    for config in DATASETS:
        # LB-SciFi pays SVD+GR *plus* its encoder.
        assert flops[f"{config} 802.11"] < flops[f"{config} LB-SciFi"]
        # Coded BERs stay in the Fig. 10 band (<~1e-2 at paper fidelity;
        # the reduced-budget DNNs stay within a wider but bounded band).
        assert bers[f"{config} 802.11"] < 0.05
    assert bers["2x2 SplitBeam"] < 0.15
    # SplitBeam's advantage grows with antenna count (see docstring):
    # the SB/802.11 load ratio falls monotonically and crosses below 1
    # at 4x4.
    ratios = [
        flops[f"{config} SplitBeam"] / flops[f"{config} 802.11"]
        for config in ("2x2", "3x3", "4x4")
    ]
    assert ratios[0] > ratios[1] > ratios[2]
    assert ratios[2] < 1.0
    # And SplitBeam undercuts LB-SciFi once past the 2x2 corner case.
    for config in ("3x3", "4x4"):
        assert flops[f"{config} SplitBeam"] < flops[f"{config} LB-SciFi"]
