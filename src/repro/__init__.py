"""SplitBeam reproduction: split-computing DNN beamforming feedback for Wi-Fi.

Reproduces Bahadori et al., "SplitBeam: Effective and Efficient
Beamforming in Wi-Fi Networks Through Split Computing" (ICDCS 2023).

Quickstart
----------
>>> from repro import build_dataset, dataset_spec, train_splitbeam, FAST
>>> dataset = build_dataset(dataset_spec("D1"), fidelity=FAST, seed=0)
>>> trained = train_splitbeam(dataset, compression=1 / 8, fidelity=FAST)
>>> trained.test_ber().ber  # doctest: +SKIP
0.02

Sub-packages
------------
- ``repro.nn`` -- NumPy neural-network training substrate;
- ``repro.phy`` -- MIMO-OFDM PHY (QAM, BCC/Viterbi, ZF, BER link sim);
- ``repro.standard`` -- IEEE 802.11 Givens-rotation feedback baseline;
- ``repro.channels`` -- TGn/TGac stochastic channel models (E1/E2);
- ``repro.datasets`` -- Table I dataset catalog, preprocessing, splits;
- ``repro.core`` -- the SplitBeam model, head/tail split, BOP solver;
- ``repro.baselines`` -- LB-SciFi and 802.11 feedback pipelines;
- ``repro.sounding`` -- channel-sounding protocol and delay model;
- ``repro.fpga`` -- FPGA latency model (Table III);
- ``repro.analysis`` -- experiment reporting helpers;
- ``repro.perf`` -- wall-clock benchmarks and the frozen reference
  implementations they compare against;
- ``repro.runtime`` -- scenario registry, worker-pool experiment
  engine, and content-addressed result caching (``docs/runtime.md``);
- ``repro.lint`` -- determinism and concurrency linter
  (``docs/static-analysis.md``);
- ``repro.obs`` -- the counter/timer registry, run tracing and the
  trace report (``docs/observability.md``).

Every name in ``__all__`` is importable from ``repro`` directly and is
loaded on first use, so a job imports only the sub-packages it touches.
"""

import importlib as _importlib

__version__ = "1.0.0"

#: Where each public name is defined.  ``import repro`` loads none of
#: them; the module-level ``__getattr__`` (PEP 562) imports a name's
#: module on first access, so ``import repro.lint`` loads no NumPy.
_EXPORTS = {
    "repro.errors": (
        "ReproError",
        "ConfigurationError",
        "ShapeError",
        "TrainingError",
        "FeedbackError",
        "ConstraintViolation",
        "DatasetError",
    ),
    "repro.config": ("Fidelity", "PAPER", "FAST", "TRANSFER", "SMOKE", "fidelity"),
    "repro.datasets": (
        "DatasetSpec",
        "CATALOG",
        "dataset_spec",
        "CsiDataset",
        "build_dataset",
        "save_dataset",
        "load_dataset",
    ),
    "repro.core": (
        "SplitBeamNet",
        "three_layer_widths",
        "BottleneckQuantizer",
        "SplitExecutor",
        "train_splitbeam",
        "TrainedSplitBeam",
        "BopConstraints",
        "BopResult",
        "solve_bop",
        "compare_schemes",
        "NetworkConfiguration",
        "ZooEntry",
        "ModelZoo",
        "ZooBuilder",
        "ZooBuildResult",
        "train_zoo",
        "QosProfile",
        "select_model",
        "AdaptiveCompressionController",
    ),
    "repro.core.pipeline": ("SplitBeamFeedback",),
    "repro.baselines": ("Dot11Feedback", "IdealSvdFeedback", "LbSciFi", "train_lbscifi"),
    "repro.phy": ("LinkConfig", "LinkSimulator"),
    "repro.channels": ("Environment", "E1", "E2", "SYNTHETIC", "environment"),
    "repro.core.session": ("NetworkSession", "SessionReport"),
    "repro.core.network": ("NetworkCampaign", "NetworkCampaignResult", "run_campaign"),
    "repro.sounding": (
        "bm_reporting_delay",
        "simulate_sounding",
        "SoundingCampaign",
        "feedback_overhead_rate_bps",
    ),
    "repro.fpga": ("table3_latency_s", "splitbeam_latency_s"),
    "repro.runtime": (
        "CheckpointStore",
        "ExperimentEngine",
        "ResultCache",
        "Scenario",
        "TrainingGrid",
        "NetworkCampaignSpec",
        "get_scenario",
        "get_training_grid",
        "get_campaign",
        "scenario_names",
        "training_grid_names",
        "campaign_names",
    ),
}
_ORIGIN = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = ["__version__", *_ORIGIN]


def __getattr__(name: str):
    module = _ORIGIN.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(_importlib.import_module(module), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
