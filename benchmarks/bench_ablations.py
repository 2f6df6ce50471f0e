"""Ablations on three SplitBeam design choices.

1. **Phase-gauge fixing** (docs/conventions.md, § Phase gauge):
   training against raw SVD targets (random per-column phases) versus
   the standard's gauge-fixed representative.  Expectation: without
   the gauge the regression target is not a function of the input and
   BER collapses.
2. **Bottleneck quantization width**: over-the-air bits per bottleneck
   element versus BER and feedback size.  Expectation: 8+ bits are
   indistinguishable from float; feedback shrinks linearly.
3. **Loss functions**: the paper's Eq. (8) normalized L1 versus plain
   MSE/MAE under the same budget.
"""

import numpy as np

from repro.analysis.report import ExperimentReport
from repro.core.pipeline import SplitBeamFeedback, evaluate_scheme
from repro.core.split import BottleneckQuantizer
from repro.core.training import ber_of_model, train_splitbeam
from repro.nn.losses import MAELoss, MSELoss, NormalizedL1Loss
from repro.nn.trainer import Trainer
from repro.phy.link import LinkConfig
from repro.phy.svd import beamforming_matrices

from benchmarks.conftest import record_report

LINK = LinkConfig(snr_db=20.0)


def test_ablation_gauge_fixing(benchmark, caches, bench_fidelity):
    """Training without phase-gauge fixing must hurt badly."""

    def compute():
        dataset = caches.dataset("D1", bench_fidelity)
        indices = dataset.splits.test[: bench_fidelity.ber_samples]
        report = ExperimentReport("Ablation: phase-gauge fixing of targets")

        gauged = caches.trained("D1", bench_fidelity, 1 / 8)
        report.add(
            "gauge-fixed targets (default)",
            "BER",
            evaluate_scheme(SplitBeamFeedback(gauged), dataset, indices, LINK).ber,
        )

        # Rebuild targets WITHOUT the gauge: random per-column phases.
        raw = dataset.__class__(
            spec=dataset.spec,
            csi=dataset.csi,
            bf=_randomize_phases(dataset),
            splits=dataset.splits,
        )
        ungauged = train_splitbeam(
            raw, compression=1 / 8, fidelity=bench_fidelity, seed=0
        )
        report.add(
            "raw SVD targets (random column phase)",
            "BER",
            ber_of_model(
                ungauged.model, raw, indices, link_config=LINK,
                quantizer=ungauged.quantizer,
            ).ber,
        )
        return report

    report = benchmark.pedantic(compute, rounds=1, iterations=1)
    record_report("ablation_gauge_fixing", report.render(precision=4))
    gauged_ber, ungauged_ber = (r.measured for r in report.records)
    assert gauged_ber < ungauged_ber
    assert ungauged_ber > 2 * gauged_ber  # the ablation bites


def _randomize_phases(dataset):
    rng = np.random.default_rng(123)
    bf = beamforming_matrices(dataset.csi, n_streams=1, gauge_fix=False)[..., 0]
    phases = np.exp(
        1j * rng.uniform(0, 2 * np.pi, size=bf.shape[:-1] + (1,))
    )
    return bf * phases


def test_ablation_quantization_bits(benchmark, caches, bench_fidelity):
    """Bottleneck wire-format width vs BER and feedback size."""

    def compute():
        dataset = caches.dataset("D1", bench_fidelity)
        indices = dataset.splits.test[: bench_fidelity.ber_samples]
        trained = caches.trained("D1", bench_fidelity, 1 / 8)
        report = ExperimentReport("Ablation: bottleneck quantization bits")
        baseline = ber_of_model(
            trained.model, dataset, indices, link_config=LINK, quantizer=None
        ).ber
        report.add("float (no quantization)", "BER", baseline)
        for bits in (16, 8, 6, 4, 2):
            quantizer = BottleneckQuantizer(bits)
            ber = ber_of_model(
                trained.model, dataset, indices,
                link_config=LINK, quantizer=quantizer,
            ).ber
            report.add(f"{bits}-bit codes", "BER", ber)
            report.add(
                f"{bits}-bit codes", "feedback bits",
                trained.model.bottleneck_dim * bits,
            )
        return report

    report = benchmark.pedantic(compute, rounds=1, iterations=1)
    record_report("ablation_quantization_bits", report.render(precision=4))
    bers = {r.setting: r.measured for r in report.records if r.metric == "BER"}
    assert abs(bers["16-bit codes"] - bers["float (no quantization)"]) < 0.005
    assert bers["2-bit codes"] > bers["8-bit codes"]


def test_ablation_loss_functions(benchmark, caches, bench_fidelity):
    """Eq. (8) normalized L1 vs MSE vs MAE at equal budget."""

    def compute():
        dataset = caches.dataset("D1", bench_fidelity)
        indices = dataset.splits.test[: bench_fidelity.ber_samples]
        report = ExperimentReport("Ablation: training loss")
        for name, loss in (
            ("normalized L1 (Eq. 8)", NormalizedL1Loss()),
            ("MSE", MSELoss()),
            ("MAE", MAELoss()),
        ):
            # Train from scratch under each loss, same budget and seed.
            from repro.core.model import SplitBeamNet, three_layer_widths
            from repro.core.training import splitbeam_training_config

            model = SplitBeamNet(
                three_layer_widths(dataset.input_dim, 1 / 8), rng=0
            )
            trainer = Trainer(
                model,
                loss=loss,
                config=splitbeam_training_config(bench_fidelity, seed=0),
            )
            x_train, y_train = dataset.train_arrays()
            x_val, y_val = dataset.val_arrays()
            trainer.fit(x_train, y_train, x_val, y_val)
            ber = ber_of_model(
                model, dataset, indices, link_config=LINK
            ).ber
            report.add(name, "BER", ber)
        return report

    report = benchmark.pedantic(compute, rounds=1, iterations=1)
    record_report("ablation_loss_functions", report.render(precision=4))
    bers = {r.setting: r.measured for r in report.records}
    # All reasonable losses land in a usable band on this task.
    assert all(b < 0.15 for b in bers.values())
