"""Fig. 7: SplitBeam/802.11 beamforming-feedback size ratio.

Regenerates the Fig. 7 bars — BM size ratio for 4x4 and 8x8 systems,
K in {1/32 .. 1/4}, 20/40/80 MHz — from the airtime models of
Sec. IV-E2, and checks the quoted 91%/93% reductions (K = 1/32 under
the Eq. (9) 16-bit convention; see docs/conventions.md, § The Eq. (9)
16-bit convention).
"""

from repro.analysis.report import ExperimentReport
from repro.core.costs import feedback_size_ratio

from benchmarks.conftest import record_report

COMPRESSIONS = (1 / 32, 1 / 16, 1 / 8, 1 / 4)
BANDWIDTHS = (20, 40, 80)
PAPER_ANCHORS = {(4, 80, 1 / 32): 0.09, (8, 80, 1 / 32): 0.07}


def compute_report() -> ExperimentReport:
    report = ExperimentReport("Fig. 7: BM size ratio SplitBeam/802.11 (%)")
    for mimo in (4, 8):
        for bandwidth in BANDWIDTHS:
            for compression in COMPRESSIONS:
                ratio = feedback_size_ratio(compression, mimo, mimo, bandwidth)
                paper = PAPER_ANCHORS.get((mimo, bandwidth, compression))
                report.add(
                    f"{mimo}x{mimo} {bandwidth} MHz K=1/{round(1 / compression)}",
                    "ratio %",
                    100 * ratio,
                    paper_value=100 * paper if paper is not None else None,
                )
    return report


def test_fig07_airtime_ratio(benchmark):
    report = benchmark.pedantic(compute_report, rounds=1, iterations=1)
    record_report("fig07_airtime_ratio", report.render(precision=3))

    by_setting = {r.setting: r.measured for r in report.records}
    # Paper: 91% and 93% reduction at 80 MHz (ratio 9% / 7%).
    assert by_setting["4x4 80 MHz K=1/32"] < 11.0
    assert by_setting["8x8 80 MHz K=1/32"] < 9.0
    # Ratio linear in K; 8x8 always compresses harder than 4x4.
    for bandwidth in BANDWIDTHS:
        assert by_setting[f"4x4 {bandwidth} MHz K=1/16"] == (
            __import__("pytest").approx(
                2 * by_setting[f"4x4 {bandwidth} MHz K=1/32"], rel=1e-6
            )
        )
        for compression in COMPRESSIONS:
            key = f"K=1/{round(1 / compression)}"
            assert (
                by_setting[f"8x8 {bandwidth} MHz {key}"]
                < by_setting[f"4x4 {bandwidth} MHz {key}"]
            )
