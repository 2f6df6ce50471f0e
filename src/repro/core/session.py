"""Full-network session simulation: sounding + feedback + goodput over time.

Ties the reproduction's pieces into the system the paper actually
envisions (Fig. 1 "online utilization"): an AP periodically sounds its
STAs, each STA produces beamforming feedback with its configured scheme
(802.11 or a SplitBeam model from the zoo), the link simulator measures
the per-round BER the reconstructed beamforming achieves, adaptive
controllers react, and the campaign model converts sounding airtime
into the goodput left for data at an SINR-selected MCS.

This is the integration surface the examples and the end-to-end tests
drive; each constituent model is unit-tested in its own package.

Every round's CSI draw comes from the session RNG up front, in round
order (no draw depends on a measured BER).  Fixed-scheme (802.11-only)
sessions have no cross-round coupling: each round is a pure
measurement task, and :mod:`repro.runtime.executor` runs them on a
worker pool.  An adaptive session is one feedback chain (the controller
reacts to each round before the next is built) and steps in-process
through :func:`repro.runtime.tasks.step_chain`, the code a network
campaign's chain task runs.  Results are identical for any worker count
either way.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.adaptive import AdaptiveCompressionController, QosProfile
from repro.core.split import BottleneckQuantizer
from repro.core.training import TrainedSplitBeam
from repro.core.zoo import ModelZoo, NetworkConfiguration
from repro.datasets.builder import CsiDataset
from repro.errors import ConfigurationError
from repro.phy.link import LinkConfig, LinkSimulator
from repro.phy.mcs import data_rate_bps, select_mcs
from repro.runtime.executor import Task, run_tasks
from repro.runtime.tasks import session_round, step_chain
from repro.sounding.campaign import MU_MIMO_SOUNDING_INTERVAL_S, SoundingCampaign
from repro.standard.feedback import Dot11FeedbackConfig, bmr_bits
from repro.utils.blas import one_blas_thread

__all__ = [
    "RoundRecord",
    "SessionReport",
    "NetworkSession",
    "dot11_round_scheme",
    "entry_round_scheme",
]


def dot11_round_scheme(dataset: CsiDataset, indices: np.ndarray) -> dict:
    """The 802.11 payload for the samples at ``indices``.

    The feedback size and the ground-truth beamforming slice the
    standard quantizer reconstructs from — never the dataset itself: a
    ``session_round`` task's parameters, or, built in the worker, every
    pending round of an 802.11 campaign STA's ``network_dot11`` task.
    """
    spec = dataset.spec
    bits = bmr_bits(
        Dot11FeedbackConfig(
            n_tx=spec.n_tx,
            n_rx=spec.n_rx,
            n_streams=1,
            bandwidth_mhz=spec.bandwidth_mhz,
        )
    )
    return {
        "kind": "dot11",
        "bits": bits,
        "bf_true": dataset.link_bf(indices),
    }


def entry_round_scheme(
    dataset: CsiDataset,
    indices: np.ndarray,
    entry,
    trained: "TrainedSplitBeam | None" = None,
) -> dict:
    """A zoo entry's parameters for one round (model + inputs).

    ``trained`` optionally overrides the entry's model/quantizer with a
    freshly-trained pair (the :class:`NetworkSession` ``trained_models``
    path); by default the entry carries everything the STA deploys.
    Built where the round runs — a campaign's chain task builds it in
    the worker — so the model never travels per round.
    """
    if trained is not None:
        model, quantizer = trained.model, trained.quantizer
    else:
        model = entry.model
        quantizer = (
            BottleneckQuantizer(entry.quantizer_bits)
            if entry.quantizer_bits is not None
            else None
        )
    x, _ = dataset.model_arrays(indices)
    return {
        "kind": "model",
        "label": entry.model.label(),
        "bits": entry.feedback_bits,
        "model": model,
        "quantizer": quantizer,
        "x": x,
    }


@dataclass(frozen=True)
class RoundRecord:
    """Everything measured in one sounding round."""

    index: int
    scheme: str  # model label or "802.11"
    feedback_bits: int
    ber: float
    mean_sinr_db: float
    occupancy: float
    mcs_index: int
    goodput_bps: float
    controller_action: str = "n/a"


@dataclass
class SessionReport:
    """Aggregated outcome of a simulated session."""

    rounds: list[RoundRecord] = field(default_factory=list)

    @property
    def n_rounds(self) -> int:
        return len(self.rounds)

    @property
    def mean_ber(self) -> float:
        if not self.rounds:
            return 0.0
        return float(np.mean([r.ber for r in self.rounds]))

    @property
    def mean_goodput_bps(self) -> float:
        if not self.rounds:
            return 0.0
        return float(np.mean([r.goodput_bps for r in self.rounds]))

    @property
    def mean_occupancy(self) -> float:
        if not self.rounds:
            return 0.0
        return float(np.mean([r.occupancy for r in self.rounds]))

    def rows(self) -> list[list[object]]:
        """Table rows for the report renderer."""
        return [
            [
                r.index + 1,
                r.scheme,
                r.feedback_bits,
                r.ber,
                f"MCS{r.mcs_index}",
                r.goodput_bps / 1e6,
                r.controller_action,
            ]
            for r in self.rounds
        ]


class NetworkSession:
    """Simulates an AP serving one MU-MIMO group over many sounding rounds.

    Parameters
    ----------
    dataset:
        Supplies the channel realizations each round samples from (its
        network configuration defines the MU-MIMO group).
    zoo:
        The :class:`ModelZoo` holding the SplitBeam ladder for the
        dataset's configuration (e.g. from
        :func:`repro.core.zoo_builder.train_zoo`), or ``None`` for an
        802.11-only session.  Models and their bottleneck quantizers
        come straight from the zoo entries.
    trained_models:
        Optional override keyed by bottleneck width: use these
        :class:`TrainedSplitBeam` objects (model + quantizer) instead of
        the zoo entries' own — e.g. to drive a session with
        freshly-trained models before they are published.  Requires
        ``zoo``.
    qos:
        BER ceiling and objective weighting for the adaptive controller.
    samples_per_round:
        CSI samples measured per sounding round (more = smoother BER).
    n_workers:
        Worker processes for the round measurements (``None`` reads
        ``$REPRO_RUNTIME_WORKERS``; the default 1 stays in-process).
        Only fixed-scheme sessions parallelize — an adaptive session is
        one controller feedback chain with nothing to overlap, so it
        always steps in-process.  Results never depend on this.
    """

    def __init__(
        self,
        dataset: CsiDataset,
        zoo: ModelZoo | None = None,
        trained_models: "dict[int, TrainedSplitBeam] | None" = None,
        qos: QosProfile | None = None,
        link_config: LinkConfig | None = None,
        interval_s: float = MU_MIMO_SOUNDING_INTERVAL_S,
        samples_per_round: int = 8,
        seed: int = 0,
        n_workers: int | None = None,
    ) -> None:
        if samples_per_round < 1:
            raise ConfigurationError("samples_per_round must be >= 1")
        if trained_models is not None and zoo is None:
            raise ConfigurationError(
                "trained_models is an override of zoo entries and "
                "requires a zoo (omit both for an 802.11-only session)"
            )
        self.dataset = dataset
        self.config = NetworkConfiguration(
            n_tx=dataset.spec.n_tx,
            n_rx=dataset.spec.n_rx,
            bandwidth_mhz=dataset.spec.bandwidth_mhz,
        )
        self.qos = qos or QosProfile()
        self.link = LinkSimulator(link_config or LinkConfig())
        self.interval_s = float(interval_s)
        self.samples_per_round = int(samples_per_round)
        self.rng = np.random.default_rng(seed)
        self.n_workers = n_workers
        self.trained_models = trained_models
        self.controller: AdaptiveCompressionController | None = None
        if zoo is not None:
            candidates = zoo.candidates(self.config)
            if not candidates:
                raise ConfigurationError(
                    f"zoo has no models for {self.config.label()}"
                )
            if trained_models is not None:
                # The controller may walk the whole ladder at runtime; a
                # partial override would only surface as a KeyError
                # several rounds in.
                missing = sorted(
                    {e.model.bottleneck_dim for e in candidates}
                    - set(trained_models)
                )
                if missing:
                    raise ConfigurationError(
                        "trained_models must cover every candidate "
                        f"bottleneck width; missing {missing}"
                    )
            self.controller = AdaptiveCompressionController(
                candidates, self.qos
            )

    # -- internals --------------------------------------------------------------

    def _round_params(self, indices: np.ndarray, entry=None) -> dict:
        """Parameters for one ``session_round`` (pure measurement).

        ``entry`` is the zoo entry an adaptive session deploys this
        round (``None``: the 802.11 path).  Only the round's data slices
        (and the model, for DNN rounds) go in — not the dataset — so a
        worker pool never pickles the full CSI tensors.
        """
        if entry is not None:
            trained = (
                self.trained_models[entry.model.bottleneck_dim]
                if self.trained_models is not None
                else None
            )
            scheme = entry_round_scheme(self.dataset, indices, entry, trained)
        else:
            scheme = dot11_round_scheme(self.dataset, indices)
        return {
            "channels": self.dataset.link_channels(indices),
            "link_config": self.link.config,
            "scheme": scheme,
        }

    # -- public API -----------------------------------------------------------

    @one_blas_thread()
    def run(self, n_rounds: int) -> SessionReport:
        """Simulate ``n_rounds`` sounding rounds and aggregate a report.

        Runs at one BLAS thread, like every job
        (:func:`~repro.utils.blas.one_blas_thread`).
        """
        if n_rounds < 1:
            raise ConfigurationError("n_rounds must be >= 1")
        pool = self.dataset.splits.test
        n_users = self.dataset.n_users
        size = min(self.samples_per_round, pool.size)
        draws = [
            self.rng.choice(pool, size=size, replace=False)
            for _ in range(n_rounds)
        ]
        if self.controller is None:
            tasks = [
                Task(
                    task_id=f"round-{i:04d}",
                    fn="repro.runtime.tasks:session_round",
                    params=self._round_params(indices),
                )
                for i, indices in enumerate(draws)
            ]
            results = run_tasks(tasks, n_workers=self.n_workers)
            measured_rounds = [results[task.task_id] for task in tasks]
            actions = ["n/a"] * n_rounds
        else:
            seen = len(self.controller.history)
            measured_rounds = step_chain(
                self.controller,
                n_rounds,
                lambda offset, rung: self._round_params(draws[offset], rung),
                session_round,
            )
            actions = [action for _, action in self.controller.history[seen:]]

        report = SessionReport()
        for round_index, measured in enumerate(measured_rounds):
            bits = measured["feedback_bits"]
            campaign = SoundingCampaign(
                n_users=n_users,
                bandwidth_mhz=self.dataset.spec.bandwidth_mhz,
                feedback_bits=bits,
                interval_s=self.interval_s,
            )
            campaign_report = campaign.report()
            occupancy = campaign_report.occupancy
            mcs = select_mcs(measured["mean_sinr_db"], backoff_db=3.0)
            rate = data_rate_bps(
                mcs.index,
                self.dataset.spec.bandwidth_mhz,
                n_streams=1,
            )
            # Routed through the report so a round whose sounding
            # exchange overruns the interval reports zero goodput
            # instead of whatever airtime the clamp left over.
            goodput = campaign_report.goodput_bps(rate * n_users)
            report.rounds.append(
                RoundRecord(
                    index=round_index,
                    scheme=measured["scheme"],
                    feedback_bits=bits,
                    ber=measured["ber"],
                    mean_sinr_db=measured["mean_sinr_db"],
                    occupancy=occupancy,
                    mcs_index=mcs.index,
                    goodput_bps=goodput,
                    controller_action=actions[round_index],
                )
            )
        return report
