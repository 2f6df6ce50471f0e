"""Hot-path wall-time benchmarks: seed loops vs vectorized kernels.

Times every stage of the CSI -> feedback -> BER pipeline against the
frozen pre-vectorization implementations in ``repro.perf.reference``
(the link simulator carries its own frozen twin,
``LinkSimulator.measure_ber_reference``) and writes the results to
``benchmarks/results/BENCH_hotpaths.json`` so the perf trajectory is
tracked across PRs.

Stages:

- ``sampler``            packetized multi-user CSI collection
- ``median``             the 10-point CSI moving median on one
                         campaign STA's batch: sorted windows vs the
                         per-step ``np.median`` loop — bits asserted
                         equal on every run
- ``givens``             Givens decompose + reconstruct
- ``cbf_encode``/``cbf_decode``  802.11 report framing
- ``link_ber``           the Sec. 5.2.2 BER procedure
- ``evaluate_scheme``    the full figure-benchmark entry point at a
                         Fig. 12-sized workload (3x3, 80 MHz, 50 BER
                         samples) — target >= 10x vs the seed path
- ``dot11_rounds``       one 802.11 campaign STA's 40 rounds (4
                         samples each, 40 MHz): the codec and a link
                         pass per round vs the STA's one-pass task —
                         result bytes asserted equal on every run
- ``conv_fwd``/``conv_bwd``      one Conv1d layer, strided im2col vs
                         the frozen per-kernel-position loops
- ``csinet_fwd``/``csinet_bwd``  conv-head DNN forward/backward vs a
                         reference-pinned twin model
- ``train_step``         a full ladder-rung training run (epoch
                         pipeline + block-swept clip/Adam) vs the
                         frozen loop trainer — trained weights
                         asserted bit-identical
- ``train_step_wide``    the same on the Table II wide 5-layer model
                         (3.6M parameters, many optimizer blocks);
                         recorded by ``--train-smoke`` only
- ``engine/*``           the ``repro.runtime`` orchestration engine on a
                         6-point scenario: cold vs warm (content-
                         addressed) cache, and 1 vs 4 worker processes;
                         a warm re-run must execute zero simulations and
                         worker counts must not change a single byte of
                         the result JSON
- ``zoo/*``              zoo training through the engine on a 4-model
                         grid: cold vs warm (content-addressed
                         checkpoint store), and 1 vs 4 worker
                         processes; a warm rebuild must train zero
                         epochs and worker counts must not change a
                         byte of the manifest or weights

Run with ``pytest benchmarks/bench_perf_hotpaths.py --perf`` or
``python benchmarks/bench_perf_hotpaths.py`` (tier-1 never runs it; see
``docs/perf.md``).  ``python benchmarks/bench_perf_hotpaths.py
--train-smoke`` runs only the train_step and train_step_wide
reference/vectorized equivalence at smoke scale (the CI training smoke)
and records ``train_step_wide`` into the JSON.
"""

from __future__ import annotations

import json
import os
import sys
from dataclasses import asdict

import numpy as np
import pytest

from repro.baselines import IdealSvdFeedback
from repro.baselines.csinet import ConvSplitNet
from repro.channels.environment import E1
from repro.channels.sampler import CsiSampler
from repro.config import Fidelity
from repro.core.model import SplitBeamNet, three_layer_widths
from repro.core.pipeline import evaluate_scheme
from repro.core.session import dot11_round_scheme
from repro.datasets import build_dataset, dataset_spec, moving_median
from repro.nn.conv import Conv1d
from repro.nn.losses import NormalizedL1Loss
from repro.nn.serialize import state_dict
from repro.nn.trainer import Trainer, TrainingConfig
from repro.perf import Benchmark, PerfReport
from repro.perf.reference import (
    ReferenceConv1d,
    ReferenceNormalizedL1Loss,
    ReferenceTrainer,
    pin_reference_nn,
    reference_collect_session,
    reference_decode_cbf,
    reference_encode_cbf,
    reference_givens_decompose,
    reference_givens_reconstruct,
    reference_moving_median,
)
from repro.phy.link import LinkConfig, LinkSimulator
from repro.phy.ofdm import band_plan
from repro.phy.svd import beamforming_matrices
from repro.runtime.registry import TABLE2_ARCHITECTURES
from repro.runtime.spec import sta_profile
from repro.runtime.tasks import (
    campaign_round_indices,
    get_dataset,
    network_dot11,
    network_round,
)
from repro.standard.cbf import MimoControl, decode_cbf, encode_cbf
from repro.standard.givens import givens_decompose, givens_reconstruct

try:
    from benchmarks.conftest import (
        RESULTS_DIR,
        record_report,
        write_hotpaths_json,
    )
except ModuleNotFoundError:  # direct `python benchmarks/bench_perf_hotpaths.py`
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

#: Fig. 12 workload: 3x3 MU-MIMO at 80 MHz, 50 BER samples (the bench
#: fidelity's test split), 16-QAM ZF links.
FIG12_DATASET = "D10"
FIG12_FIDELITY = Fidelity(
    name="perf-fig12",
    n_samples=500,  # 8:1:1 split -> 50 test samples, the Fig. 12 size
    n_sessions=1,
    epochs=1,
    ber_samples=50,
    ofdm_symbols=1,
)

#: Smoke-scale budget for the orchestration-engine scenario: the cost
#: under test is the engine (planning, cache, worker pool), not the
#: physics, so every point stays tiny.
ENGINE_FIDELITY = Fidelity(
    name="perf-engine",
    n_samples=96,
    n_sessions=2,
    epochs=4,
    ber_samples=12,
    ofdm_symbols=1,
)

ENGINE_WORKERS = 4


def _engine_scenario():
    """Six independent points: four DNN trainings plus two baselines."""
    from repro.runtime import (
        Scenario,
        dot11,
        fidelity_to_dict,
        ideal,
        point,
        splitbeam,
    )

    points = [
        point(
            f"SB seed {seed}",
            "D1",
            splitbeam(1 / 8, seed=seed),
            link={"snr_db": 20.0},
            ber_samples=ENGINE_FIDELITY.ber_samples,
        )
        for seed in range(4)
    ]
    points.append(
        point("802.11", "D1", dot11(), link={"snr_db": 20.0},
              ber_samples=ENGINE_FIDELITY.ber_samples)
    )
    points.append(
        point("ideal", "D1", ideal(), link={"snr_db": 20.0},
              ber_samples=ENGINE_FIDELITY.ber_samples)
    )
    return Scenario(
        name="perf-engine",
        title="engine benchmark: 4 trainings + 2 baselines on D1",
        fidelity=fidelity_to_dict(ENGINE_FIDELITY),
        points=tuple(points),
    )


class _ReferenceLinkSimulator(LinkSimulator):
    """A simulator pinned to the frozen per-sample BER path."""

    def measure_ber(self, channels, bf_estimates, rng=None):
        return self.measure_ber_reference(channels, bf_estimates, rng=rng)


#: Training-stage workload: the paper's primary dataset (the zoo's
#: compression-ladder substrate) at the engine benchmark fidelity.
TRAIN_DATASET = "D1"
TRAIN_COMPRESSION = 1 / 8
#: The Table II wide 5-layer model (224-896-1792-896-224, 3.6M
#: parameters): its packed optimizer buffers span ~110 optimizer
#: blocks, where the ladder rung's ~13k parameters are one block.
WIDE_WIDTHS = TABLE2_ARCHITECTURES["wide 5-layer"]
#: The ``train_step_wide`` row's timing policy: epochs per timed run (10
#: steps each at the smoke fidelity), untimed warm-up runs and timed
#: repeats.  Sized so the spread between repeats stays well under the
#: training-step changes the row must resolve (see ``docs/perf.md``).
WIDE_EPOCHS = 2
WIDE_BENCH = Benchmark(warmup=1, repeats=5)


def _train_step_stage(
    bench, report, fidelity, stage="train_step", widths=None, epochs=None
):
    """Time the frozen loop trainer vs the vectorized trainer on one model.

    Both sides train the same model — the D1 ladder rung unless
    ``widths`` names another, for ``epochs`` (default: the fidelity's)
    — from the same init seed, data and schedule; the trained weights
    are asserted bit-identical, since the vectorized trainer replays
    the reference arithmetic exactly.  Returns the (baseline,
    optimized) results for the ``stage`` comparison row.
    """
    train_set = build_dataset(
        dataset_spec(TRAIN_DATASET), fidelity=fidelity, seed=7
    )
    x, y = train_set.model_arrays(train_set.splits.train)
    if widths is None:
        widths = three_layer_widths(train_set.input_dim, TRAIN_COMPRESSION)
    config = TrainingConfig(
        epochs=epochs or fidelity.epochs, batch_size=16, optimizer="adam", seed=0
    )
    n_items = x.shape[0] * config.epochs
    meta = {
        "dataset": TRAIN_DATASET,
        "widths": [int(w) for w in widths],
        "epochs": config.epochs,
        "n_train": int(x.shape[0]),
    }

    def new_model():
        return SplitBeamNet(widths, rng=3)

    def fit(trainer_cls, model):
        trainer_cls(model, config=config).fit(x, y)
        return model

    state_ref = state_dict(fit(ReferenceTrainer, new_model()))
    state_vec = state_dict(fit(Trainer, new_model()))
    for key in state_ref:
        assert np.array_equal(state_ref[key], state_vec[key]), (stage, key)

    # Each timed run trains a fresh model built outside the timing: the
    # rows time training, not a Glorot draw of the model's weights.
    baseline = bench.run(
        f"{stage}/reference",
        lambda model: fit(ReferenceTrainer, model),
        setup=new_model,
        n_items=n_items,
        meta=meta,
    )
    optimized = bench.run(
        f"{stage}/vectorized",
        lambda model: fit(Trainer, model),
        setup=new_model,
        n_items=n_items,
        meta=meta,
    )
    report.add(baseline)
    report.add(optimized)
    return baseline, optimized


#: The 802.11 STA-task workload: one campaign STA's rounds of 4 samples
#: on D5 (2x2, 40 MHz), the network-scale preset's 802.11 shape.
DOT11_DATASET = "D5"
DOT11_ROUNDS = 40


def _dot11_rounds_stage(bench, report):
    """Time an 802.11 STA's campaign rounds one by one vs in one pass.

    The per-round side is how a campaign measured them before an 802.11
    STA became one task: per round, the codec and a ``network_round``
    link pass on the round's own slices.  The one-pass side is the
    STA's ``network_dot11`` task.  Both return the same bytes
    (asserted).  Returns the (baseline, optimized) results.
    """
    fidelity = asdict(ENGINE_FIDELITY)
    profile = sta_profile("dot11", DOT11_DATASET, scheme="dot11", seed=3)
    rounds = list(range(DOT11_ROUNDS))
    links = [
        LinkConfig(snr_db=20.0 - 0.25 * r, seed=1000 + 7919 * r) for r in rounds
    ]
    dataset = get_dataset(profile["dataset"], fidelity)

    def per_round():
        results = []
        for round_index, link in zip(rounds, links):
            indices = campaign_round_indices(dataset, profile, round_index)
            measured = network_round(
                {
                    "channels": dataset.link_channels(indices),
                    "link_config": link,
                    "scheme": dot11_round_scheme(dataset, indices),
                }
            )
            results.append(measured)
        return results

    def one_pass():
        return network_dot11(
            {
                "profile": profile,
                "fidelity": fidelity,
                "rounds": rounds,
                "links": links,
            }
        )

    assert json.dumps(per_round()) == json.dumps(one_pass())
    meta = {
        "dataset": DOT11_DATASET,
        "rounds": DOT11_ROUNDS,
        "samples_per_round": profile["samples_per_round"],
    }
    baseline = bench.run(
        "dot11_rounds/per_round", per_round, n_items=DOT11_ROUNDS, meta=meta
    )
    optimized = bench.run(
        "dot11_rounds/one_pass", one_pass, n_items=DOT11_ROUNDS, meta=meta
    )
    report.add(baseline)
    report.add(optimized)
    return baseline, optimized


def _random_channels(rng, n, users, n_sc, n_rx, n_tx):
    shape = (n, users, n_sc, n_rx, n_tx)
    return (
        rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    ) / np.sqrt(2.0)


def build_report() -> PerfReport:
    bench = Benchmark(warmup=1, repeats=5)
    report = PerfReport(
        "hot-path benchmarks (seed reference vs vectorized)",
        context={"workload": "fig12: 3x3 @ 80 MHz, 50 samples"},
    )
    rng = np.random.default_rng(7)

    # -- sampler ---------------------------------------------------------------
    n_packets = 300
    sampler_args = dict(env=E1, n_users=2, n_rx=2, n_tx=3, band=band_plan(40))
    baseline = bench.run(
        "sampler/reference",
        lambda: reference_collect_session(
            CsiSampler(**sampler_args, rng=5), n_packets
        ),
        n_items=n_packets * 2,
    )
    optimized = bench.run(
        "sampler/vectorized",
        lambda: CsiSampler(**sampler_args, rng=5).collect_session(n_packets),
        n_items=n_packets * 2,
    )
    report.add(baseline)
    report.add(optimized)
    report.add_comparison("sampler", baseline, optimized)

    # -- moving median (one campaign STA's CSI batch) --------------------------
    median_rng = np.random.default_rng(11)
    shape = (57, 114, 1, 2)
    csi = median_rng.standard_normal(shape) + 1j * median_rng.standard_normal(shape)
    assert moving_median(csi).tobytes() == reference_moving_median(csi).tobytes()
    baseline = bench.run(
        "median/reference",
        lambda: reference_moving_median(csi),
        n_items=csi.shape[0],
    )
    optimized = bench.run(
        "median/vectorized", lambda: moving_median(csi), n_items=csi.shape[0]
    )
    report.add(baseline)
    report.add(optimized)
    report.add_comparison("median", baseline, optimized)

    # -- givens ----------------------------------------------------------------
    plan = band_plan(80)
    bf = beamforming_matrices(
        _random_channels(rng, 50, 3, plan.n_subcarriers, 3, 3), n_streams=1
    )
    baseline = bench.run(
        "givens/reference",
        lambda: reference_givens_reconstruct(reference_givens_decompose(bf)),
        n_items=bf.shape[0] * bf.shape[1] * bf.shape[2],
    )
    optimized = bench.run(
        "givens/vectorized",
        lambda: givens_reconstruct(givens_decompose(bf)),
        n_items=bf.shape[0] * bf.shape[1] * bf.shape[2],
    )
    report.add(baseline)
    report.add(optimized)
    report.add_comparison("givens", baseline, optimized)

    # -- cbf encode/decode -----------------------------------------------------
    control = MimoControl(
        n_columns=1, n_rows=3, bandwidth_mhz=80, grouping=2, feedback_type="mu"
    )
    one_bf = bf[0, 0][..., :, :1]  # (S, Nt, 1)
    frame = encode_cbf(one_bf, control)
    assert frame == reference_encode_cbf(one_bf, control)
    baseline = bench.run(
        "cbf_encode/reference",
        lambda: reference_encode_cbf(one_bf, control),
        n_items=1,
    )
    optimized = bench.run(
        "cbf_encode/vectorized", lambda: encode_cbf(one_bf, control), n_items=1
    )
    report.add(baseline)
    report.add(optimized)
    report.add_comparison("cbf_encode", baseline, optimized)
    baseline = bench.run(
        "cbf_decode/reference", lambda: reference_decode_cbf(frame), n_items=1
    )
    optimized = bench.run(
        "cbf_decode/vectorized", lambda: decode_cbf(frame), n_items=1
    )
    report.add(baseline)
    report.add(optimized)
    report.add_comparison("cbf_decode", baseline, optimized)

    # -- link BER (synthetic channels, fig-12 dimensions) ----------------------
    channels = _random_channels(rng, 50, 3, plan.n_subcarriers, 3, 3)
    link_bf = beamforming_matrices(channels, n_streams=1)[..., 0]
    simulator = LinkSimulator(LinkConfig())
    baseline = bench.run(
        "link_ber/reference",
        lambda: simulator.measure_ber_reference(channels, link_bf, rng=1),
        n_items=channels.shape[0],
    )
    optimized = bench.run(
        "link_ber/vectorized",
        lambda: simulator.measure_ber(channels, link_bf, rng=1),
        n_items=channels.shape[0],
    )
    report.add(baseline)
    report.add(optimized)
    report.add_comparison("link_ber", baseline, optimized)

    # -- evaluate_scheme (the acceptance target: >= 10x) -----------------------
    dataset = build_dataset(
        dataset_spec(FIG12_DATASET), fidelity=FIG12_FIDELITY, seed=7
    )
    scheme = IdealSvdFeedback()
    baseline = bench.run(
        "evaluate_scheme/reference",
        lambda: evaluate_scheme(
            scheme, dataset, simulator=_ReferenceLinkSimulator(LinkConfig())
        ),
        n_items=dataset.splits.test.size,
        meta={"dataset": FIG12_DATASET, "ber_samples": int(dataset.splits.test.size)},
    )
    optimized = bench.run(
        "evaluate_scheme/vectorized",
        lambda: evaluate_scheme(scheme, dataset),
        n_items=dataset.splits.test.size,
        meta={"dataset": FIG12_DATASET, "ber_samples": int(dataset.splits.test.size)},
    )
    report.add(baseline)
    report.add(optimized)
    report.add_comparison("evaluate_scheme", baseline, optimized)

    # -- one 802.11 campaign STA's rounds: per round vs one pass ---------------
    report.add_comparison("dot11_rounds", *_dot11_rounds_stage(bench, report))

    # -- bare Conv1d: strided im2col vs the frozen per-position loops ----------
    conv_batch = 16
    conv_x = rng.standard_normal((conv_batch, 18, plan.n_subcarriers // 2))
    conv_g = rng.standard_normal((conv_batch, 8, plan.n_subcarriers // 2))
    conv_vec = Conv1d(18, 8, kernel_size=5, rng=0)
    conv_ref = Conv1d(18, 8, kernel_size=5, rng=0)
    conv_ref.__class__ = ReferenceConv1d
    # The im2col forward is bit-identical to the frozen loops.
    assert np.array_equal(conv_vec.forward(conv_x), conv_ref.forward(conv_x))
    baseline = bench.run(
        "conv_fwd/reference",
        lambda: conv_ref.forward(conv_x),
        n_items=conv_batch,
    )
    optimized = bench.run(
        "conv_fwd/vectorized",
        lambda: conv_vec.forward(conv_x),
        n_items=conv_batch,
    )
    report.add(baseline)
    report.add(optimized)
    report.add_comparison("conv_fwd", baseline, optimized)
    baseline = bench.run(
        "conv_bwd/reference",
        lambda: conv_ref.backward(conv_g),
        n_items=conv_batch,
    )
    optimized = bench.run(
        "conv_bwd/vectorized",
        lambda: conv_vec.backward(conv_g),
        n_items=conv_batch,
    )
    report.add(baseline)
    report.add(optimized)
    report.add_comparison("conv_bwd", baseline, optimized)

    # -- csinet forward/backward vs a reference-pinned twin model --------------
    input_dim = dataset.input_dim
    csinet_args = dict(
        input_dim=input_dim,
        n_feature_channels=2 * dataset.spec.n_rx * dataset.spec.n_tx,
        compression=1 / 8,
        rng=0,
    )
    model = ConvSplitNet(**csinet_args)
    model_ref = ConvSplitNet(**csinet_args)  # same rng -> same weights
    pin_reference_nn(model_ref)
    x, y = dataset.model_arrays(dataset.splits.test[:16])
    loss = NormalizedL1Loss()
    loss_ref = ReferenceNormalizedL1Loss()
    assert np.array_equal(model.forward(x), model_ref.forward(x))
    baseline = bench.run(
        "csinet_fwd/reference",
        lambda: model_ref.forward(x),
        n_items=x.shape[0],
    )
    optimized = bench.run(
        "csinet_fwd/vectorized", lambda: model.forward(x), n_items=x.shape[0]
    )
    report.add(baseline)
    report.add(optimized)
    report.add_comparison("csinet_fwd", baseline, optimized)

    def forward_backward(net, net_loss):
        prediction = net.forward(x)
        net_loss.forward(prediction, y)
        net.backward(net_loss.backward())

    baseline = bench.run(
        "csinet_bwd/reference",
        lambda: forward_backward(model_ref, loss_ref),
        n_items=x.shape[0],
    )
    optimized = bench.run(
        "csinet_bwd/vectorized",
        lambda: forward_backward(model, loss),
        n_items=x.shape[0],
    )
    report.add(baseline)
    report.add(optimized)
    report.add_comparison("csinet_bwd", baseline, optimized)

    # -- train_step: the fused trainer vs the frozen loop trainer --------------
    train_stage = _train_step_stage(bench, report, ENGINE_FIDELITY)
    report.add_comparison("train_step", *train_stage)

    # -- runtime engine: cold/warm cache and 1-vs-N workers --------------------
    import itertools
    import json
    import shutil
    import tempfile

    from repro.runtime import ExperimentEngine, ResultCache
    from repro.runtime.tasks import clear_memos

    scenario = _engine_scenario()
    workdir = tempfile.mkdtemp(prefix="repro-engine-bench-")
    counter = itertools.count()
    last_run: dict[int, object] = {}

    def cold_run(n_workers: int):
        # A fresh cache directory and empty per-process memos each call,
        # so every repeat pays the full cold cost.
        clear_memos()
        cache = ResultCache(os.path.join(workdir, f"cold-{next(counter)}"))
        run = ExperimentEngine(cache=cache, n_workers=n_workers).run(scenario)
        assert run.n_executed == scenario.n_points
        last_run[n_workers] = run
        return run

    try:
        cold_serial = bench.run(
            "engine/cold_1worker",
            lambda: cold_run(1),
            n_items=scenario.n_points,
            repeats=2,
            warmup=0,
            meta={"n_points": scenario.n_points},
        )
        cold_workers = bench.run(
            f"engine/cold_{ENGINE_WORKERS}workers",
            lambda: cold_run(ENGINE_WORKERS),
            n_items=scenario.n_points,
            repeats=2,
            warmup=0,
            meta={
                "n_points": scenario.n_points,
                "n_workers": ENGINE_WORKERS,
                "cpu_count": os.cpu_count(),
            },
        )
        # Determinism: worker count must not change a byte of the artifact.
        assert json.dumps(last_run[1].to_dict(), sort_keys=True) == json.dumps(
            last_run[ENGINE_WORKERS].to_dict(), sort_keys=True
        )

        warm_cache = ResultCache(os.path.join(workdir, "warm"))
        ExperimentEngine(cache=warm_cache, n_workers=1).run(scenario)

        def warm_run():
            clear_memos()
            run = ExperimentEngine(cache=warm_cache, n_workers=1).run(scenario)
            # A warm re-run serves every point from the content-addressed
            # store: zero tasks, zero link simulations.
            assert run.n_executed == 0
            return run

        warm = bench.run(
            "engine/warm_cache",
            warm_run,
            n_items=scenario.n_points,
            repeats=3,
            warmup=0,
            meta={"n_points": scenario.n_points},
        )
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    report.add(cold_serial)
    report.add(cold_workers)
    report.add(warm)
    report.add_comparison("engine_cache", cold_serial, warm)
    # Worker scaling only means something with cores to scale onto;
    # below the gate the txt report renders this row as skipped.
    report.add_comparison(
        "engine_workers", cold_serial, cold_workers, requires_cpus=4
    )

    # -- zoo training: cold/warm checkpoint store and 1-vs-N workers -----------
    from repro.core.zoo_builder import train_zoo
    from repro.obs import metrics
    from repro.runtime import CheckpointStore, TrainingGrid, zoo_entry
    from repro.runtime.spec import fidelity_to_dict

    zoo_grid = TrainingGrid(
        name="perf-zoo",
        title="zoo benchmark: a 4-model compression ladder on D1",
        fidelity=fidelity_to_dict(ENGINE_FIDELITY),
        entries=tuple(
            zoo_entry(
                f"D1 K=1/{round(1 / k)}",
                "D1",
                compression=k,
                ber_samples=ENGINE_FIDELITY.ber_samples,
            )
            for k in (1 / 32, 1 / 16, 1 / 8, 1 / 4)
        ),
    )
    workdir = tempfile.mkdtemp(prefix="repro-zoo-bench-")
    last_build: dict[int, object] = {}

    def cold_build(n_workers: int):
        # A fresh store and empty per-process memos each call, so every
        # repeat pays the full cold (training) cost.
        clear_memos()
        store = CheckpointStore(os.path.join(workdir, f"cold-{next(counter)}"))
        build = train_zoo(zoo_grid, store=store, n_workers=n_workers)
        assert build.n_trained == zoo_grid.n_entries
        last_build[n_workers] = build
        return build

    try:
        zoo_cold_serial = bench.run(
            "zoo/cold_1worker",
            lambda: cold_build(1),
            n_items=zoo_grid.n_entries,
            repeats=2,
            warmup=0,
            meta={"n_entries": zoo_grid.n_entries},
        )
        zoo_cold_workers = bench.run(
            f"zoo/cold_{ENGINE_WORKERS}workers",
            lambda: cold_build(ENGINE_WORKERS),
            n_items=zoo_grid.n_entries,
            repeats=2,
            warmup=0,
            meta={
                "n_entries": zoo_grid.n_entries,
                "n_workers": ENGINE_WORKERS,
                "cpu_count": os.cpu_count(),
            },
        )
        # Determinism: worker count must not change a byte of the
        # manifest (which digests every weight tensor via state_sha256).
        assert json.dumps(
            last_build[1].to_dict(), sort_keys=True
        ) == json.dumps(last_build[ENGINE_WORKERS].to_dict(), sort_keys=True)

        warm_store = CheckpointStore(os.path.join(workdir, "warm"))
        train_zoo(zoo_grid, store=warm_store, n_workers=1)

        def warm_build():
            clear_memos()
            base = metrics.snapshot()
            build = train_zoo(zoo_grid, store=warm_store, n_workers=1)
            # A warm rebuild loads every model from the checkpoint
            # store: zero trainings, zero epochs, zero link simulations.
            assert build.n_trained == 0
            timers = metrics.since(base)["timers"]
            assert "trainer.fit" not in timers
            assert "trainer.epoch" not in timers
            return build

        zoo_warm = bench.run(
            "zoo/warm_checkpoints",
            warm_build,
            n_items=zoo_grid.n_entries,
            repeats=3,
            warmup=0,
            meta={"n_entries": zoo_grid.n_entries},
        )
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    report.add(zoo_cold_serial)
    report.add(zoo_cold_workers)
    report.add(zoo_warm)
    report.add_comparison("zoo_checkpoints", zoo_cold_serial, zoo_warm)
    report.add_comparison(
        "zoo_workers", zoo_cold_serial, zoo_cold_workers, requires_cpus=4
    )

    # -- observability: tracing overhead on the engine scenario ----------------
    traced, untraced = _obs_stage(bench, report)
    report.add_comparison("obs_trace_overhead", traced, untraced)

    # -- static analysis: full-tree lint with the dataflow rule pack -----------
    report.add(_lint_stage(bench))
    return report


def _lint_stage(bench):
    """One full ``repro.lint`` pass over ``src/``.

    The interprocedural rules (read-set summaries, callback-escape
    inference, key coverage) dominate this stage, so it tracks the
    analyzer's own perf trajectory.
    """
    from repro.lint import run_lint

    here = os.path.dirname(os.path.abspath(__file__))
    src = os.path.join(os.path.dirname(here), "src")
    n_modules = run_lint([src]).n_modules
    return bench.run(
        "lint/analyze_tree",
        lambda: run_lint([src]),
        n_items=n_modules,
        repeats=3,
        warmup=1,
        meta={"n_modules": n_modules},
    )


def _obs_stage(bench, report, repeats: int = 2):
    """Traced vs untraced cold engine runs (same scenario as engine/*).

    The untraced leg runs the *instrumented* code with no tracer
    installed — the disabled path under test is one module-global read
    per call site, so its medians should match ``engine/cold_1worker``
    within timer noise.  The traced leg records the full span timeline
    (coordinator + store spans, metrics) *and* pays the end-of-run
    export of all three trace artifacts; the ``obs_trace_overhead``
    ratio is traced/untraced, targeted < 5% overhead on this
    training-dominated workload.
    """
    import itertools
    import shutil
    import tempfile

    from repro.runtime import ExperimentEngine, ResultCache
    from repro.runtime.tasks import clear_memos

    scenario = _engine_scenario()
    workdir = tempfile.mkdtemp(prefix="repro-obs-bench-")
    counter = itertools.count()

    def cold_run(trace):
        clear_memos()
        cache = ResultCache(os.path.join(workdir, f"cache-{next(counter)}"))
        run = ExperimentEngine(cache=cache, n_workers=1, trace=trace).run(
            scenario
        )
        assert run.n_executed == scenario.n_points
        assert (run.trace_dir is None) == (trace is False)
        return run

    try:
        # Untraced first, and one warmup repeat each: the first cold
        # run of the process pays one-time costs (module imports, page
        # cache) that would otherwise bias whichever leg runs first.
        untraced = bench.run(
            "obs/engine_untraced",
            lambda: cold_run(False),
            n_items=scenario.n_points,
            repeats=repeats,
            warmup=1,
            meta={"n_points": scenario.n_points},
        )
        traced = bench.run(
            "obs/engine_traced",
            lambda: cold_run(os.path.join(workdir, f"trace-{next(counter)}")),
            n_items=scenario.n_points,
            repeats=repeats,
            warmup=1,
            meta={"n_points": scenario.n_points, "exports": "jsonl+chrome+summary"},
        )
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    report.add(traced)
    report.add(untraced)
    return traced, untraced


@pytest.mark.perf
def test_perf_hotpaths():
    report = build_report()
    os.makedirs(RESULTS_DIR, exist_ok=True)
    # Merge-preserving write: the campaign/* stages belong to
    # bench_network_campaign.py and must survive this suite's runs.
    write_hotpaths_json(
        report, os.path.join(RESULTS_DIR, JSON_NAME), family=None
    )
    record_report("BENCH_hotpaths", report.render())
    comparisons = {c["stage"]: c for c in report.to_dict()["comparisons"]}
    # Regression guard: the tentpole target is >= 10x on evaluate_scheme
    # (the committed BENCH_hotpaths.json records the measured number);
    # assert a margin below it so a loaded CI box does not flake.
    assert comparisons["evaluate_scheme"]["speedup"] >= 7.0
    # The vectorized codecs must never regress below the seed loops.
    for stage in (
        "sampler", "median", "givens", "cbf_encode", "cbf_decode", "link_ber",
        "dot11_rounds",
    ):
        assert comparisons[stage]["speedup"] >= 1.0, stage
    # The vectorized training stack must never regress below the frozen
    # loop implementations (the measured ratios live in the JSON; the
    # floors sit below the observed medians so a loaded box does not
    # flake).  train_step is bit-identity-pinned, bandwidth-bound
    # float64 work shared by both sides — its win is structural
    # overhead only, so its floor is parity within timer noise.
    assert comparisons["conv_fwd"]["speedup"] >= 1.2
    assert comparisons["conv_bwd"]["speedup"] >= 1.2
    assert comparisons["csinet_fwd"]["speedup"] >= 1.1
    assert comparisons["csinet_bwd"]["speedup"] >= 1.05
    assert comparisons["train_step"]["speedup"] >= 0.9
    # A warm content-addressed cache must beat recomputation outright
    # (it reads six JSON files instead of training four DNNs).
    assert comparisons["engine_cache"]["speedup"] >= 5.0
    # Likewise a warm checkpoint store must beat retraining the zoo
    # outright (it loads four .npz files instead of training 4 DNNs).
    assert comparisons["zoo_checkpoints"]["speedup"] >= 5.0
    # Worker scaling is hardware-dependent; assert the >= 2x target only
    # where four workers actually have four cores to land on.
    if (os.cpu_count() or 1) >= 4:
        assert comparisons["engine_workers"]["speedup"] >= 2.0
        assert comparisons["zoo_workers"]["speedup"] >= 2.0
    # Tracing overhead: the ratio is traced/untraced on the cold engine
    # scenario (target < 1.05; the measured number lives in the JSON).
    # The floor sits higher so two-repeat medians on a loaded box do
    # not flake on timer noise.
    assert comparisons["obs_trace_overhead"]["speedup"] <= 1.15


def train_smoke() -> None:
    """CI smoke: trained-weight bit-identity on a one- and a many-block model.

    Runs the :func:`_train_step_stage` workload at the ``smoke``
    fidelity preset on the D1 ladder rung (one optimizer block) and,
    for :data:`WIDE_EPOCHS` epochs, on the wide 5-layer model (many
    blocks) — the bit-identity assertions are the point.  No speedup is
    asserted, so a noisy CI box cannot flake; the ``train_step_wide``
    timings (:data:`WIDE_BENCH`: a warm-up run, then the median of
    several) are merged into ``BENCH_hotpaths.json`` (the ladder rung's
    ``train_step`` row belongs to the full suite).
    """
    from repro.config import fidelity as fidelity_preset

    smoke = fidelity_preset("smoke")
    bench = Benchmark(warmup=0, repeats=2)
    report = PerfReport("train_step smoke (reference vs vectorized)")
    report.add_comparison("train_step", *_train_step_stage(bench, report, smoke))
    wide = PerfReport("train_step_wide smoke (reference vs vectorized)")
    wide.add_comparison(
        "train_step_wide",
        *_train_step_stage(
            WIDE_BENCH, wide, smoke, "train_step_wide", WIDE_WIDTHS, epochs=WIDE_EPOCHS
        ),
    )
    os.makedirs(RESULTS_DIR, exist_ok=True)
    write_hotpaths_json(
        wide, os.path.join(RESULTS_DIR, JSON_NAME), family="train_step_wide"
    )
    print(report.render())
    print(wide.render())
    print("train_step smoke: trained weights bit-identical on both models")


def obs_smoke() -> None:
    """Standalone tracing-overhead measurement (no JSON, no floors)."""
    bench = Benchmark(warmup=0, repeats=2)
    report = PerfReport("tracing overhead (traced vs untraced engine run)")
    traced, untraced = _obs_stage(bench, report)
    report.add_comparison("obs_trace_overhead", traced, untraced)
    print(report.render())


if __name__ == "__main__":
    if "--train-smoke" in sys.argv:
        train_smoke()
        sys.exit(0)
    if "--obs-smoke" in sys.argv:
        obs_smoke()
        sys.exit(0)
    perf_report = build_report()
    os.makedirs(RESULTS_DIR, exist_ok=True)
    write_hotpaths_json(
        perf_report, os.path.join(RESULTS_DIR, JSON_NAME), family=None
    )
    print(perf_report.render())
