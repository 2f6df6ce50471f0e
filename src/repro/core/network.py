"""Multi-STA network campaigns: the paper's headline scenario at scale.

The intro's argument is about a *network*: an AP serving "heterogeneous
devices and a wide range of performance requirements" (Sec. IV-B) under
the 10 ms MU-MIMO sounding deadline (Sec. I).  :class:`NetworkCampaign`
simulates exactly that — N STAs (tens to hundreds), each with its own
dataset (antenna configuration, bandwidth, environment), QoS profile,
device cost model, and feedback scheme, sounded every ``interval_s``
for ``n_rounds`` rounds while mobility/aging episodes make the measured
BER drift and each STA's :class:`AdaptiveCompressionController` walks
its compression ladder in response.

Execution reuses the whole ``repro.runtime`` stack:

- SplitBeam ladders build through :func:`~repro.core.zoo_builder.
  train_zoo` (one merged :class:`TrainingGrid`, deduplicated across
  STAs, warm-loaded from a :class:`CheckpointStore`);
- each CSI dataset recipe builds once per process: before the ladders
  train, the coordinator builds, through the per-process memo
  :func:`~repro.runtime.tasks.get_dataset`, the dataset of every STA
  with a round missing from the cache index.  Serial training and the
  STA tasks read the same memo, and the zoo and round pools' workers
  forked afterwards inherit it, so no process rebuilds a recipe; a
  fully warm replay builds none;
- the rounds run as one wave of independent tasks, one per STA with
  pending rounds.  A SplitBeam STA's rounds form a feedback chain
  (round *r*'s rung depends on round *r-1*'s BER), so its pending
  rounds are one :func:`~repro.runtime.tasks.network_chain` task that
  steps the controller locally; an 802.11 STA's pending rounds are one
  pure seeded :func:`~repro.runtime.tasks.network_dot11` task that
  measures them in one codec pass and one link pass.  A STA's task is
  the unit of dispatch, retry, fault injection and failure;
- results flow, one entry per STA-round, through the
  content-addressed :class:`ResultCache` (keys exclude the cosmetic STA
  ``name`` and fidelity ``name``), so a warm re-run replays every round
  from the store and executes **zero** link simulations, and manifests
  are byte-identical for any worker count.

Per-round aggregate airtime/occupancy numbers come from
:mod:`repro.sounding.campaign`: STAs group by bandwidth into
:class:`SoundingCampaign` rounds whose reports combine via
:func:`combine_reports` — surfacing both the clamped medium occupancy
and the honest (unclamped) ``occupancy_ratio``/``feasible`` overload
signals.
"""

from __future__ import annotations

import os
import time
from contextlib import nullcontext as _null
from dataclasses import dataclass, replace

import numpy as np

from repro.channels.doppler import jakes_ar1_coefficient
from repro.config import Fidelity
from repro.core.adaptive import (
    AdaptiveCompressionController,
    QosProfile,
    select_model,
)
from repro.core.costs import StaCostModel
from repro.core.zoo import ModelZoo, NetworkConfiguration, ZooEntry
from repro.core.zoo_builder import train_zoo
from repro.datasets import dataset_spec
from repro.errors import ConfigurationError
from repro.obs import trace as trace_mod
from repro.phy.link import LinkConfig
from repro.phy.mcs import data_rate_bps, select_mcs
from repro.runtime.cache import ResultCache
from repro.runtime.checkpoints import CheckpointStore
from repro.runtime.engine import run_scoped
from repro.runtime.executor import (
    RetryPolicy,
    RunHealth,
    Task,
    resolve_worker_count,
    run_tasks,
)
from repro.runtime.hashing import code_version, task_key
from repro.runtime.spec import NetworkCampaignSpec, TrainingGrid, zoo_entry
from repro.runtime.tasks import get_dataset
from repro.sounding.aging import stale_sinr_db
from repro.sounding.campaign import SoundingCampaign, combine_reports
from repro.standard.flopmodel import dot11_flops
from repro.utils.artifacts import write_json_artifact

__all__ = [
    "NetworkCampaign",
    "NetworkCampaignResult",
    "run_campaign",
    "campaign_round_spec",
]

#: Bump when the campaign-manifest layout changes incompatibly.
CAMPAIGN_SCHEMA_VERSION = 1

#: Result-cache namespace for STA-round measurements (never collides
#: with scenario-point or checkpoint addresses).
CAMPAIGN_ROUND_KIND = "network-round"

#: The campaign's task entry points (importable in worker processes):
#: one SplitBeam STA's chain of rounds, and one 802.11 STA's rounds.
CHAIN_FN = "repro.runtime.tasks:network_chain"
DOT11_FN = "repro.runtime.tasks:network_dot11"

#: Link-adaptation backoff applied when mapping a round's measured SINR
#: to the MCS behind the goodput accounting (matches NetworkSession).
MCS_BACKOFF_DB = 3.0


def campaign_round_spec(
    spec: NetworkCampaignSpec, sta: dict, round_index: int
) -> dict:
    """The cache-relevant spec of one STA-round (JSON-able, stable).

    A round's measurement is a pure function of the campaign-level
    environment (interval, base link, episodes, fidelity), the STA's
    own profile, and the round index — the adaptive chain is
    deterministic, so earlier rounds are implied.  Other STAs never
    influence it, and the cosmetic ``name`` fields are dropped, so a
    renamed STA (or the same profile inside a different campaign) keeps
    its cache entries.  ``n_rounds`` and episodes that only start
    *after* this round are likewise excluded (``_episode_at`` never
    consults them, and the implied earlier rounds consult strictly
    fewer): a longer campaign — even one whose later episode schedule
    shifted with its length — re-uses a shorter one's cached prefix.
    """
    return {
        "campaign": {
            "interval_s": spec.interval_s,
            "link": dict(spec.link),
            "episodes": [
                dict(episode)
                for episode in spec.episodes
                if episode["start_round"] <= round_index
            ],
            "fidelity": {
                key: value
                for key, value in spec.fidelity.items()
                if key != "name"
            },
        },
        "sta": {key: value for key, value in sta.items() if key != "name"},
        "round": int(round_index),
    }


def _episode_at(episodes, round_index: int) -> "tuple[float, float]":
    """(doppler_scale, snr_offset_db) in force at one round."""
    scale, offset = 1.0, 0.0
    for episode in episodes:
        if episode["start_round"] > round_index:
            break
        scale = episode["doppler_scale"]
        offset = episode["snr_offset_db"]
    return scale, offset


def _round_snr_db(
    base_snr_db: float,
    doppler_hz: float,
    interval_s: float,
    n_users: int,
    scale: float,
    offset_db: float,
) -> float:
    """The round's operating SNR after the mobility/aging episode.

    CSI inside a sounding interval is on average ``interval/2`` old, so
    the Jakes correlation at that lag (``channels.doppler``) sets how
    much of the beamforming still points at the channel; the stale-CSI
    SINR model (``sounding.aging``) converts the de-correlated residue
    into inter-user interference.  Episodes scale the Doppler spread
    (mobility bursts) and shift the fresh SNR (blockage).
    """
    rho = jakes_ar1_coefficient(doppler_hz * scale, interval_s / 2.0)
    return stale_sinr_db(base_snr_db + offset_db, rho, n_users=n_users)


def _ladder_label(dataset: dict, scheme: dict, compression: float) -> str:
    """Deterministic training-grid label for one (dataset, rung) pair."""
    return (
        f"{dataset['id']} seed{dataset['seed']} "
        f"reset{dataset['reset_interval']} K={compression:g} "
        f"q{scheme['quantizer_bits']} t{scheme['train_seed']}"
    )


class _StaState:
    """Coordinator-side bookkeeping for one STA's rounds.

    Per-round facts live in dicts keyed by round index, because an
    802.11 STA's rounds arrive in two parts: its cached rounds, which
    can sit anywhere, then its task's results for the rest.  A chained
    STA's :meth:`observe` calls come in round order (cached prefix
    first, then its chain task's results), which keeps its controller
    trajectory exact.

    The STA's task slices its CSI dataset in the worker, from the
    per-process memo (:func:`~repro.runtime.tasks.get_dataset`) that
    training tasks also read; the coordinator never touches a round's
    CSI tensors, and a fully warm replay never samples a channel.
    Static facts (antenna counts, bandwidth, subcarriers, group size)
    come from the Table I catalog entry instead.  ``keys`` are the
    STA's round cache keys, one per round.
    """

    def __init__(
        self,
        profile: dict,
        catalog,
        fidelity: dict,
        base_link: LinkConfig,
        keys: "list[str]",
    ) -> None:
        self.profile = profile
        self.catalog = catalog
        self.fidelity = fidelity
        self.base_link = base_link
        self.keys = keys
        self.config = NetworkConfiguration(
            n_tx=catalog.n_tx,
            n_rx=catalog.n_rx,
            bandwidth_mhz=catalog.bandwidth_mhz,
        )
        self.qos = QosProfile(**profile["qos"])
        self.cost = StaCostModel(**profile["cost"])
        self.mode = "802.11"
        self.selection: "dict | None" = None
        self.controller: "AdaptiveCompressionController | None" = None
        self.measured: "dict[int, dict]" = {}
        self.actions: "dict[int, str]" = {}
        self.rungs: "dict[int, ZooEntry]" = {}
        self.errors: "dict[int, str]" = {}  # failed round -> error
        self.skipped: "set[int]" = set()  # rounds behind a failed one

    @property
    def name(self) -> str:
        return self.profile["name"]

    @property
    def chained(self) -> bool:
        return self.controller is not None

    def attach_ladder(self, entries: "list[ZooEntry]") -> None:
        """Run the Eq. (7) selection; fall back to 802.11 if infeasible."""
        zoo = ModelZoo()
        for entry in entries:
            zoo.register(entry)
        outcome = select_model(zoo, self.config, self.qos, self.cost)
        self.selection = {
            "selected": (
                None
                if outcome.selected is None
                else outcome.selected.model.label()
            ),
            "rejected": [
                [entry.model.label(), reason]
                for entry, reason in outcome.rejected
            ],
        }
        if outcome.fell_back:
            # The paper's escape hatch: no trained model satisfies this
            # STA's constraints, so it keeps the standard feedback path.
            self.mode = "802.11-fallback"
            return
        self.mode = "splitbeam"
        # Deploy the Eq. (7) winner from round 0 (the Fig. 1 flow:
        # select offline, adapt at runtime) — never an unvetted rung.
        self.controller = AdaptiveCompressionController(
            entries, self.qos, initial=outcome.selected
        )

    def observe(self, round_index: int, measured: dict) -> None:
        """Record one round's measurement, once per round.

        A chained STA's controller consumes the BER here, in round
        order, and the rung that measured it is recorded alongside — so
        only rounds that reported count towards :meth:`deadline_misses`.
        """
        self.measured[round_index] = measured
        if self.controller is None:
            self.actions[round_index] = "n/a"
        else:
            self.rungs[round_index] = self.controller.current
            self.controller.observe(measured["ber"])
            self.actions[round_index] = self.controller.history[-1][1]

    def round_link(self, round_index: int, interval_s, episodes) -> LinkConfig:
        """The round's link: episode-shifted SNR, per-round noise seed."""
        scale, offset = _episode_at(episodes, round_index)
        snr_db = _round_snr_db(
            self.base_link.snr_db,
            self.profile["doppler_hz"],
            interval_s,
            self.catalog.n_users,
            scale,
            offset,
        )
        return replace(
            self.base_link,
            snr_db=snr_db,
            seed=(int(self.profile["seed"]) * 100_003 + round_index * 7919)
            % (2**31 - 1),
        )

    def task(self, pending: "list[int]", interval_s, episodes) -> Task:
        """The one task that runs this STA's ``pending`` rounds.

        A chained STA's pending rounds are the contiguous tail after its
        cached prefix: one :func:`~repro.runtime.tasks.network_chain`
        task (id ``<sta>/rounds-<first>-<last>``) whose ladder travels
        inline — a worker cannot rebuild it from the other parameters,
        so the task stays a pure function of them — and whose
        controller travels as its post-prefix
        :meth:`~repro.core.adaptive.AdaptiveCompressionController.state`.
        An 802.11 STA's pending rounds can have gaps, so they travel as
        a list: one :func:`~repro.runtime.tasks.network_dot11` task (id
        ``<sta>/dot11-<first>-<last>``).  Either way the worker builds
        each round's slices itself.
        """
        first, last = pending[0], pending[-1]
        params = {
            "profile": self.profile,
            "fidelity": self.fidelity,
            "links": [
                self.round_link(round_index, interval_s, episodes)
                for round_index in pending
            ],
        }
        if self.chained:
            params["ladder"] = self.controller.ladder
            params["state"] = self.controller.state()
            params["first_round"] = first
            return Task(
                task_id=f"{self.name}/rounds-{first:04d}-{last:04d}",
                fn=CHAIN_FN,
                params=params,
            )
        params["rounds"] = list(pending)
        return Task(
            task_id=f"{self.name}/dot11-{first:04d}-{last:04d}",
            fn=DOT11_FN,
            params=params,
        )

    def round_compute_s(self, round_index: int) -> float:
        """Feedback-computation time feeding the sounding schedule."""
        rung = self.rungs.get(round_index)
        if rung is not None:
            return self.cost.head_time_s(rung.head_flops)
        return (
            dot11_flops(
                self.catalog.n_tx,
                self.catalog.n_rx,
                n_subcarriers=self.config.n_subcarriers,
            )
            / self.cost.sta_flops_per_s
        )

    def deadline_misses(self) -> int:
        """Reported rounds whose reporting delay overran τ (Eq. (7d)).

        The controller optimizes for BER only, so a step-down to a less
        compressed rung can push a slow device past its own deadline —
        the campaign-level accounting surfaces that.
        """
        misses = 0
        for rung in self.rungs.values():
            delay = self.cost.end_to_end_delay_s(
                rung.head_flops, rung.tail_flops, rung.feedback_bits
            )
            if delay > self.qos.max_delay_s:
                misses += 1
        return misses


@dataclass
class NetworkCampaignResult:
    """The outcome of one campaign: manifest rows plus run statistics.

    :meth:`to_dict` is the deterministic manifest — byte-identical for
    any worker count and for cold vs warm caches; the execution
    statistics (``n_executed_rounds``, ``wall_s``, ...) live only on
    the in-memory object.
    """

    campaign: str
    title: str
    fidelity: dict
    interval_s: float
    n_rounds: int
    stas: "list[dict]"  # per-STA manifest rows, campaign order
    rounds: "list[dict]"  # aggregate per-round rows
    summary: dict
    n_round_tasks: int
    n_cached_rounds: int
    n_executed_rounds: int
    zoo_trained: int
    zoo_cached: int
    n_workers: int
    wall_s: float = 0.0
    code_version: str = ""
    health: dict = None
    #: Directory the campaign's trace was written to (``None``
    #: untraced).  Telemetry — never part of :meth:`to_dict`.
    trace_dir: "str | None" = None

    def sta(self, name: str) -> dict:
        """The manifest row for one STA name."""
        for row in self.stas:
            if row["name"] == name:
                return row
        raise ConfigurationError(f"no STA named {name!r}")

    def to_dict(self, include_health: bool = False) -> dict:
        """Deterministic manifest payload (no timestamps, no wall time).

        ``include_health=True`` appends fault-tolerance statistics
        (executor retries/crashes, store quarantines).  The default
        omits them so the manifest stays byte-identical across worker
        counts, cold/warm caches, and fault schedules — a chaos run that
        fully recovers diffs clean against the fault-free run.
        """
        payload = {
            "schema_version": CAMPAIGN_SCHEMA_VERSION,
            "campaign": self.campaign,
            "title": self.title,
            "fidelity": self.fidelity,
            "interval_s": self.interval_s,
            "n_rounds": self.n_rounds,
            "code_version": self.code_version,
            "stas": self.stas,
            "rounds": self.rounds,
            "summary": self.summary,
        }
        if include_health:
            payload["health"] = self.health
        return payload

    def write_json(self, path: "str | os.PathLike") -> None:
        """Write the manifest (2-space indent, sorted keys, trailing \\n)."""
        write_json_artifact(path, self.to_dict())


class NetworkCampaign:
    """Runs a :class:`NetworkCampaignSpec` on the runtime engine.

    Parameters
    ----------
    spec:
        The declarative campaign (see :func:`repro.runtime.spec.
        sta_profile` and the presets in :mod:`repro.runtime.registry`).
    cache:
        A :class:`ResultCache` for completed STA-rounds (``None`` =
        always re-measure).
    store:
        A :class:`CheckpointStore` for the SplitBeam ladders (``None``
        = retrain on every run).
    n_workers:
        Worker processes; ``None`` reads ``$REPRO_RUNTIME_WORKERS``.
        STA tasks (one per STA with pending rounds) parallelize across
        the pool; each STA's rounds stay inside its task.  Results
        never depend on this.
    policy:
        A :class:`~repro.runtime.executor.RetryPolicy` bounding
        retries/timeouts (``None`` = the default).
    faults:
        A :class:`~repro.runtime.faults.FaultPlan` of injected chaos
        (``None`` = the installed plan or ``$REPRO_RUNTIME_FAULTS``).
    trace:
        Observability: a directory path (or a
        :class:`~repro.obs.trace.Tracer`) recording the campaign's
        span timeline and metrics — the embedded zoo build and every
        STA task land in the same trace; ``None`` joins an installed
        tracer or honours ``$REPRO_RUNTIME_TRACE``; ``False`` disables
        tracing.  Tracing never changes manifest bytes.

    Graceful degradation: the campaign runs its tasks in collect-errors
    mode — a STA's task (a SplitBeam chain or an 802.11 STA's rounds)
    that exhausts its retries marks only *that* STA degraded (its first
    pending round is recorded as failed and the rest as skipped; the
    manifest's per-STA ``degraded`` entry and the summary's
    ``degraded_stas``/``partial_coverage`` flags record the gap) while
    the other N-1 STAs complete normally.
    """

    def __init__(
        self,
        spec: NetworkCampaignSpec,
        cache: "ResultCache | None" = None,
        store: "CheckpointStore | None" = None,
        n_workers: "int | None" = None,
        policy: "RetryPolicy | None" = None,
        faults=None,
        trace=None,
    ) -> None:
        self.spec = spec
        self.cache = cache
        self.store = store
        self.n_workers = resolve_worker_count(n_workers)
        self.policy = policy
        self.faults = faults
        self.trace = trace

    # -- offline phase ----------------------------------------------------------

    def _training_grid(self) -> "TrainingGrid | None":
        """The merged, deduplicated ladder grid for all SplitBeam STAs."""
        entries: "dict[str, dict]" = {}
        for sta in self.spec.stas:
            scheme = sta["scheme"]
            if scheme["kind"] != "splitbeam":
                continue
            for compression in scheme["compressions"]:
                label = _ladder_label(sta["dataset"], scheme, compression)
                if label in entries:
                    continue
                entries[label] = zoo_entry(
                    label,
                    sta["dataset"]["id"],
                    dataset_seed=sta["dataset"]["seed"],
                    reset_interval=sta["dataset"]["reset_interval"],
                    compression=compression,
                    quantizer_bits=scheme["quantizer_bits"],
                    train_seed=scheme["train_seed"],
                    link=dict(self.spec.link),
                    notes=label,
                )
        if not entries:
            return None
        return TrainingGrid(
            name=f"campaign-{self.spec.name}",
            title=f"SplitBeam ladders for campaign {self.spec.name!r}",
            fidelity=dict(self.spec.fidelity),
            entries=tuple(entries.values()),
        )

    # -- execution --------------------------------------------------------------

    def run(self) -> NetworkCampaignResult:
        """Build ladders, run every STA's rounds, aggregate the network."""
        # The embedded zoo build joins the campaign's fault plan and,
        # when traced, its timeline.
        return run_scoped(
            f"campaign:{self.spec.name}", self.trace, self.faults, self._run
        )

    def _run(self, plan) -> NetworkCampaignResult:
        start = time.perf_counter()
        spec = self.spec
        version = code_version()
        health = RunHealth()
        # Round keys depend on the spec, not on the ladders, so they are
        # computed once, here, and reused by _plan_rounds.
        keys = [
            [
                task_key(
                    campaign_round_spec(spec, sta, round_index),
                    version,
                    kind=CAMPAIGN_ROUND_KIND,
                )
                for round_index in range(spec.n_rounds)
            ]
            for sta in spec.stas
        ]
        # Build every dataset a round will need before training, through
        # the per-process memo the training tasks read: serial training
        # reuses it, the zoo and round pools forked after this point
        # inherit it, and the round planner finds it.  An index
        # membership check (not a get) picks the STAs with a round to
        # execute, so a fully warm replay samples no channel.
        cached = set(self.cache.keys()) if self.cache is not None else set()
        for sta, sta_keys in zip(spec.stas, keys):
            if not cached.issuperset(sta_keys):
                get_dataset(sta["dataset"], spec.fidelity)
        grid = self._training_grid()
        build = (
            train_zoo(
                grid,
                store=self.store,
                n_workers=self.n_workers,
                policy=self.policy,
                faults=plan,
            )
            if grid is not None
            else None
        )

        base_link = LinkConfig(**dict(spec.link))
        states: "list[_StaState]" = []
        for sta, sta_keys in zip(spec.stas, keys):
            state = _StaState(
                sta,
                dataset_spec(sta["dataset"]["id"]),
                spec.fidelity,
                base_link,
                sta_keys,
            )
            scheme = sta["scheme"]
            if scheme["kind"] == "splitbeam":
                state.attach_ladder(
                    [
                        build.entry(
                            _ladder_label(sta["dataset"], scheme, compression)
                        )
                        for compression in scheme["compressions"]
                    ]
                )
            states.append(state)

        tracer = trace_mod.current_tracer()
        with tracer.span(
            "plan_rounds", "engine", stas=len(states)
        ) if tracer else _null():
            tasks, by_task_id, n_cached = self._plan_rounds(states)

        def record(task_id: str, result) -> None:
            # Store each round the moment its task completes, so an
            # interrupted campaign resumes from every finished task, and
            # replay it into the STA's state — a chain's rounds in order,
            # stepping the coordinator's controller as the worker's did.
            state, rounds = by_task_id[task_id]
            for round_index, measured in zip(rounds, result):
                if self.cache is not None:
                    self.cache.put(
                        state.keys[round_index],
                        campaign_round_spec(spec, state.profile, round_index),
                        measured,
                    )
                state.observe(round_index, measured)

        # collect_errors: a task that exhausts its retries fails only
        # its own STA (graceful degradation), never the other N-1.
        executed = run_tasks(
            tasks,
            n_workers=self.n_workers,
            on_result=record,
            policy=self.policy,
            faults=plan,
            health=health,
            collect_errors=True,
        )
        for row in health.failed:
            # A failed task's first round carries the error; the rest of
            # its rounds never reported, so they count as skipped.
            state, rounds = by_task_id[row["task"]]
            state.errors[rounds[0]] = row["summary"]
            state.skipped.update(rounds[1:])

        if self.cache is not None:
            # Publish the packed index so the next open recovers from a
            # snapshot instead of rescanning every segment tail.
            self.cache.flush()

        with tracer.span("assemble", "engine") if tracer else _null():
            return self._assemble(
                states,
                n_cached=n_cached,
                n_executed=sum(len(by_task_id[t][1]) for t in executed),
                build=build,
                version=version,
                wall_s=time.perf_counter() - start,
                health={
                    "executor": health.to_dict(),
                    "cache": (
                        self.cache.health.to_dict()
                        if self.cache is not None
                        else None
                    ),
                    "zoo": None if build is None else build.health,
                },
            )

    def _plan_rounds(self, states: "list[_StaState]"):
        """Cache-walk every STA and build one wave of tasks for the rest.

        Every STA with a pending round gets exactly one task (see
        :meth:`_StaState.task`).  A SplitBeam STA is a feedback chain:
        its cached *prefix* is replayed (observing each stored BER keeps
        the controller trajectory exact) and every round from its first
        miss on is pending.  An 802.11 STA has no cross-round coupling:
        every cached round is a hit wherever it falls, and only the
        misses are pending.  Chains are listed first, so the executor's
        round-robin packing spreads these longest tasks over its
        messages.

        Returns the tasks, ``{task_id: (state, rounds)}``, and the
        number of cached rounds.
        """
        spec = self.spec
        chains: "list[Task]" = []
        passes: "list[Task]" = []
        by_task_id: dict = {}
        n_cached = 0
        for state in states:
            pending: "list[int]" = []
            for round_index, key in enumerate(state.keys):
                if state.chained and pending:
                    # Only a chain's contiguous prefix is usable, so stop
                    # reading the store at its first miss — entries past
                    # a gap would be discarded (and re-written with
                    # identical content) anyway.
                    pending.append(round_index)
                    continue
                # `is not None`, not truthiness: an *empty* cache is
                # falsy (__len__ == 0), which silently skipped gets —
                # and miss telemetry — on cold campaigns.
                result = (
                    self.cache.get(key) if self.cache is not None else None
                )
                if result is None:
                    pending.append(round_index)
                    continue
                state.observe(round_index, result)
                n_cached += 1
            if pending:
                task = state.task(pending, spec.interval_s, spec.episodes)
                (chains if state.chained else passes).append(task)
                by_task_id[task.task_id] = (state, pending)
        return chains + passes, by_task_id, n_cached

    # -- aggregation ------------------------------------------------------------

    def _assemble(
        self,
        states,
        n_cached,
        n_executed,
        build,
        version,
        wall_s,
        health,
    ) -> NetworkCampaignResult:
        spec = self.spec
        sta_rows = []
        for state in states:
            rows = []
            failed_rounds = []
            skipped_rounds = []
            for round_index in range(spec.n_rounds):
                measured = state.measured.get(round_index)
                if measured is None:
                    # Collect-errors post-mortem (see _run).
                    if round_index in state.skipped:
                        skipped_rounds.append(round_index)
                    else:
                        failed_rounds.append(
                            {
                                "round": round_index,
                                "error": state.errors.get(
                                    round_index, "round missing"
                                ),
                            }
                        )
                    continue
                rows.append(
                    {
                        "round": round_index,
                        "scheme": measured["scheme"],
                        "feedback_bits": int(measured["feedback_bits"]),
                        "ber": float(measured["ber"]),
                        "mean_sinr_db": float(measured["mean_sinr_db"]),
                        "effective_snr_db": float(
                            measured["effective_snr_db"]
                        ),
                        "action": state.actions[round_index],
                    }
                )
            bers = [row["ber"] for row in rows]
            actions = [row["action"] for row in rows]
            degraded = None
            if failed_rounds or skipped_rounds:
                degraded = {
                    "failed_rounds": failed_rounds,
                    "skipped_rounds": skipped_rounds,
                    "n_reported": len(rows),
                }
            sta_rows.append(
                {
                    "name": state.name,
                    "dataset": dict(state.profile["dataset"]),
                    "config": state.config.label(),
                    "mode": state.mode,
                    "selection": state.selection,
                    "qos": dict(state.profile["qos"]),
                    "cost": dict(state.profile["cost"]),
                    "doppler_hz": state.profile["doppler_hz"],
                    "degraded": degraded,
                    "rounds": rows,
                    "summary": {
                        "mean_ber": float(np.mean(bers)) if bers else None,
                        "qos_violations": sum(
                            1 for ber in bers if ber > state.qos.max_ber
                        ),
                        "saturated": actions.count("saturated"),
                        "step_downs": actions.count("step-down"),
                        "step_ups": actions.count("step-up"),
                        "deadline_misses": int(state.deadline_misses()),
                        "final_scheme": rows[-1]["scheme"] if rows else None,
                        "mean_feedback_bits": (
                            float(
                                np.mean([row["feedback_bits"] for row in rows])
                            )
                            if rows
                            else None
                        ),
                    },
                }
            )

        groups: "dict[int, list[_StaState]]" = {}
        for state in states:
            groups.setdefault(state.catalog.bandwidth_mhz, []).append(state)
        round_rows = []
        for round_index in range(spec.n_rounds):
            reports = []
            total_rate = 0.0
            for bandwidth, members in sorted(groups.items()):
                # A degraded STA simply stops reporting: the round's
                # airtime aggregates cover the STAs that actually
                # sounded, exactly as a real AP would account them.
                reporting = [
                    m for m in members if round_index in m.measured
                ]
                if not reporting:
                    continue
                reports.append(
                    SoundingCampaign(
                        n_users=len(reporting),
                        bandwidth_mhz=bandwidth,
                        feedback_bits=[
                            int(m.measured[round_index]["feedback_bits"])
                            for m in reporting
                        ],
                        compute_times_s=[
                            m.round_compute_s(round_index)
                            for m in reporting
                        ],
                        interval_s=spec.interval_s,
                    ).report()
                )
                for member in reporting:
                    mcs = select_mcs(
                        member.measured[round_index]["mean_sinr_db"],
                        backoff_db=MCS_BACKOFF_DB,
                    )
                    total_rate += data_rate_bps(
                        mcs.index, bandwidth, n_streams=1
                    )
            if not reports:
                continue  # every STA degraded before this round
            combined = combine_reports(reports)
            round_rows.append(
                {
                    "round": round_index,
                    "feedback_bits_total": int(combined.feedback_bits_total),
                    "round_duration_s": float(combined.round_duration_s),
                    "occupancy": float(combined.occupancy),
                    "occupancy_ratio": float(combined.occupancy_ratio),
                    "feasible": bool(combined.feasible),
                    "data_fraction": float(combined.data_fraction),
                    "goodput_bps": float(combined.goodput_bps(total_rate)),
                }
            )

        modes: "dict[str, int]" = {}
        for row in sta_rows:
            modes[row["mode"]] = modes.get(row["mode"], 0) + 1
        degraded_stas = sorted(
            row["name"] for row in sta_rows if row["degraded"] is not None
        )
        reporting_bers = [
            row["summary"]["mean_ber"]
            for row in sta_rows
            if row["summary"]["mean_ber"] is not None
        ]
        summary = {
            "n_stas": spec.n_stas,
            "n_rounds": spec.n_rounds,
            "modes": modes,
            "degraded_stas": degraded_stas,
            "partial_coverage": bool(degraded_stas),
            "mean_ber": (
                float(np.mean(reporting_bers)) if reporting_bers else None
            ),
            "mean_occupancy": (
                float(np.mean([row["occupancy"] for row in round_rows]))
                if round_rows
                else None
            ),
            "max_occupancy_ratio": (
                float(max(row["occupancy_ratio"] for row in round_rows))
                if round_rows
                else None
            ),
            "infeasible_rounds": sum(
                1 for row in round_rows if not row["feasible"]
            ),
            "mean_goodput_bps": (
                float(np.mean([row["goodput_bps"] for row in round_rows]))
                if round_rows
                else None
            ),
            "hard_qos_failures": sum(
                row["summary"]["saturated"] for row in sta_rows
            ),
            "qos_violations": sum(
                row["summary"]["qos_violations"] for row in sta_rows
            ),
            "deadline_misses": sum(
                row["summary"]["deadline_misses"] for row in sta_rows
            ),
            "step_downs": sum(
                row["summary"]["step_downs"] for row in sta_rows
            ),
            "step_ups": sum(row["summary"]["step_ups"] for row in sta_rows),
        }

        return NetworkCampaignResult(
            campaign=spec.name,
            title=spec.title,
            fidelity=dict(spec.fidelity),
            interval_s=spec.interval_s,
            n_rounds=spec.n_rounds,
            stas=sta_rows,
            rounds=round_rows,
            summary=summary,
            n_round_tasks=spec.n_stas * spec.n_rounds,
            n_cached_rounds=n_cached,
            n_executed_rounds=n_executed,
            zoo_trained=0 if build is None else build.n_trained,
            zoo_cached=0 if build is None else build.n_cached,
            n_workers=self.n_workers,
            wall_s=wall_s,
            code_version=version,
            health=health,
        )


def run_campaign(
    spec: "NetworkCampaignSpec | str",
    fidelity: "Fidelity | None" = None,
    cache: "ResultCache | None" = None,
    store: "CheckpointStore | None" = None,
    n_workers: "int | None" = None,
    policy: "RetryPolicy | None" = None,
    faults=None,
    trace=None,
    **kwargs,
) -> NetworkCampaignResult:
    """Run a campaign (or a registered preset name).

    The one-call entry point: ``run_campaign("network-scale",
    n_stas=32, cache=..., store=...)`` resolves the preset via
    :func:`repro.runtime.registry.get_campaign` (extra keyword
    arguments reach the preset builder) and runs it through a
    :class:`NetworkCampaign`.
    """
    if isinstance(spec, str):
        from repro.runtime.registry import get_campaign

        spec = get_campaign(spec, fidelity=fidelity, **kwargs)
    elif fidelity is not None or kwargs:
        raise ConfigurationError(
            "fidelity/preset overrides apply to named campaigns only; "
            "build the NetworkCampaignSpec with them instead"
        )
    return NetworkCampaign(
        spec,
        cache=cache,
        store=store,
        n_workers=n_workers,
        policy=policy,
        faults=faults,
        trace=trace,
    ).run()
