"""Pure task functions executed by the runtime workers.

Every task function here takes a single parameter mapping and returns
a JSON-able (or at least picklable) result, with no reliance on process
state beyond memoization: datasets and trained models are cached
per process keyed by their full build recipe, which is safe because
both are deterministic functions of (spec, fidelity, seed).  A worker
that rebuilds instead of reusing gets bit-identical objects, so results
never depend on which worker ran what.  The helpers the coordinators
share with their tasks (:func:`get_dataset`, :func:`step_chain`,
:func:`campaign_round_indices`) live here too.

A network campaign runs one task per STA with pending rounds: a
SplitBeam STA's :func:`network_chain` steps its adaptive controller
round by round, and an 802.11 STA's :func:`network_dot11` measures all
its rounds in one codec pass and one link pass.
"""

from __future__ import annotations

from collections.abc import Mapping

import numpy as np

from repro.config import Fidelity
from repro.errors import ConfigurationError
from repro.phy.link import LinkConfig, LinkSimulator
from repro.phy.metrics import batch_mean_sinr_db

__all__ = [
    "run_point",
    "link_ber_point",
    "session_round",
    "network_round",
    "network_chain",
    "network_dot11",
    "step_chain",
    "campaign_round_indices",
    "train_zoo_entry",
    "clear_memos",
    "get_dataset",
]

_DATASETS: dict = {}
_SCHEMES: dict = {}


def clear_memos() -> None:
    """Drop the per-process dataset/model memos (benchmarks use this)."""
    # Read-through memos keyed purely on frozen specs: clearing them
    # only forces a bit-identical rebuild, never a different result.
    _DATASETS.clear()  # repro: allow[REP-PURE-TASK]
    _SCHEMES.clear()  # repro: allow[REP-PURE-TASK]


def _fidelity(payload: Mapping) -> Fidelity:
    return Fidelity(**dict(payload))


def _freeze(payload: Mapping) -> tuple:
    return tuple(sorted(payload.items()))


def get_dataset(dataset: Mapping, fidelity: Mapping):
    """The CSI dataset of one ``{id, seed, reset_interval}`` recipe.

    Built once per process and recipe: training tasks and the network
    campaign's coordinator read the same memo, and pool workers forked
    after a build inherit it.
    """
    key = (_freeze(dataset), _freeze(fidelity))
    # Pure read-through memo: the key freezes every input, so a miss
    # rebuilds bit-identical state; clear_memos only forces that rebuild.
    if key not in _DATASETS:  # repro: allow[REP-PURE-TASK]
        from repro.datasets import build_dataset, dataset_spec

        _DATASETS[key] = build_dataset(
            dataset_spec(dataset["id"]),
            fidelity=_fidelity(fidelity),
            reset_interval=dataset.get("reset_interval"),
            seed=dataset["seed"],
        )
    return _DATASETS[key]


def _get_scheme(scheme: Mapping, dataset_spec_map: Mapping, fidelity: Mapping):
    """Build (or reuse) the feedback scheme a point asks for."""
    kind = scheme.get("kind")
    key = (_freeze(scheme), _freeze(dataset_spec_map), _freeze(fidelity))
    # Pure read-through memo (see get_dataset): fully-keyed, rebuilds
    # bit-identically on a miss.
    if key in _SCHEMES:  # repro: allow[REP-PURE-TASK]
        return _SCHEMES[key]
    if kind == "dot11":
        from repro.baselines import Dot11Feedback

        built = Dot11Feedback()
    elif kind == "ideal":
        from repro.baselines import IdealSvdFeedback

        built = IdealSvdFeedback()
    elif kind == "splitbeam":
        from repro.core.pipeline import SplitBeamFeedback
        from repro.core.training import train_splitbeam

        built = SplitBeamFeedback(
            train_splitbeam(
                get_dataset(dataset_spec_map, fidelity),
                compression=scheme["compression"],
                fidelity=_fidelity(fidelity),
                seed=scheme["seed"],
            )
        )
    elif kind == "lbscifi":
        from repro.baselines import train_lbscifi

        built = train_lbscifi(
            get_dataset(dataset_spec_map, fidelity),
            compression=scheme["compression"],
            fidelity=_fidelity(fidelity),
            seed=scheme["seed"],
        )
    else:
        raise ConfigurationError(f"unknown scheme kind {kind!r}")
    _SCHEMES[key] = built
    return built


def run_point(params: Mapping) -> dict:
    """Measure one scenario point; the engine's task function.

    ``params`` is a scenario point merged with its fidelity (see
    :meth:`repro.runtime.spec.Scenario.task_specs`).
    """
    from repro.core.pipeline import evaluate_scheme

    fidelity = params["fidelity"]
    dataset = get_dataset(params["dataset"], fidelity)
    eval_spec = params.get("eval_dataset")
    eval_dataset = (
        get_dataset(eval_spec, fidelity) if eval_spec is not None else None
    )
    scheme = _get_scheme(params["scheme"], params["dataset"], fidelity)
    target = eval_dataset if eval_dataset is not None else dataset
    ber_samples = params.get("ber_samples")
    indices = target.splits.test
    if ber_samples is not None:
        indices = indices[:ber_samples]
    evaluation = evaluate_scheme(
        scheme,
        dataset,
        indices=indices,
        link_config=LinkConfig(**params.get("link", {})),
        eval_dataset=eval_dataset,
    )
    return {
        "scheme": evaluation.scheme_name,
        "ber": float(evaluation.ber),
        "sta_flops": float(evaluation.sta_flops),
        "feedback_bits": int(evaluation.feedback_bits),
        "n_samples": int(np.asarray(indices).size),
    }


def train_zoo_entry(params: Mapping) -> dict:
    """Train one zoo model; the zoo builder's task function.

    ``params`` is a training-grid entry merged with its fidelity and
    with the architecture widths already resolved (see
    :meth:`repro.runtime.spec.TrainingGrid.task_specs` and
    :mod:`repro.core.zoo_builder`).  Returns everything the coordinator
    needs to reconstruct the trained model without the dataset: the
    state dict, the architecture, the measured test BER, and a history
    summary.  Pure and fully seeded, so results are bit-identical
    whichever worker (or the coordinator itself) runs the training.
    """
    from repro.core.training import train_splitbeam
    from repro.nn.serialize import state_dict

    fidelity = params["fidelity"]
    dataset = get_dataset(params["dataset"], fidelity)
    model_spec = params["model"]
    train_spec = params["train"]
    trained = train_splitbeam(
        dataset,
        widths=list(model_spec["widths"]),
        fidelity=_fidelity(fidelity),
        checkpoint_on=train_spec["checkpoint_on"],
        quantizer_bits=params["quantizer_bits"],
        activation=model_spec["activation"],
        qat_bits=model_spec["qat_bits"],
        seed=train_spec["seed"],
    )
    measured = trained.test_ber(
        link_config=LinkConfig(**params.get("link", {})),
        max_samples=params["ber_samples"],
    ).ber
    history = trained.history
    return {
        "state": state_dict(trained.model),
        "widths": list(trained.model.widths),
        "activation": trained.model.activation_name,
        "measured_ber": float(measured),
        "history": {
            "n_epochs": len(history),
            "best_epoch": int(history.best_epoch),
            "best_val_metric": float(history.best_val_metric),
            "final_train_loss": float(history.train_loss[-1]),
            "stopped_early": bool(history.stopped_early),
        },
    }


def link_ber_point(params: Mapping) -> dict:
    """One (config, seed) BER measurement for :func:`ber_sweep`.

    ``params``: ``config`` (a :class:`LinkConfig`), ``channels``
    ``(n, users, S, Nr, Nt)``, and ``bf`` ``(n, users, S, Nt)``.
    """
    result = LinkSimulator(params["config"]).measure_ber(
        params["channels"], params["bf"]
    )
    return {
        "ber": float(result.ber),
        "bit_errors": int(result.bit_errors),
        "total_bits": int(result.total_bits),
    }


def session_round(params: Mapping) -> dict:
    """One :class:`~repro.core.session.NetworkSession` sounding round.

    The payload carries only what the round touches (a few samples'
    worth of arrays plus, for DNN rounds, the model) — never the whole
    dataset, so parallel sessions don't pickle gigabytes per round.

    ``params``: ``channels`` ``(k, users, S, Nr, Nt)``, a
    ``link_config``, and ``scheme`` — either ``{"kind": "dot11",
    "bits": ..., "bf_true": (k, users, S, Nt)}`` or ``{"kind":
    "model", "label": ..., "bits": ..., "model": ..., "quantizer":
    ..., "x": model-input rows}``.
    """
    channels = params["channels"]
    scheme = params["scheme"]
    n_samples, n_users, n_sc = channels.shape[:3]
    n_tx = channels.shape[4]
    if scheme["kind"] == "model":
        from repro.core.training import bf_from_model_inputs

        bf = bf_from_model_inputs(
            scheme["model"],
            scheme["x"],
            n_users=n_users,
            n_subcarriers=n_sc,
            n_tx=n_tx,
            quantizer=scheme["quantizer"],
        )
        label = scheme["label"]
    elif scheme["kind"] == "dot11":
        from repro.baselines.dot11 import Dot11Feedback

        bf = Dot11Feedback().quantize_reconstruct(scheme["bf_true"])
        label = "802.11"
    else:
        raise ConfigurationError(f"unknown session scheme {scheme['kind']!r}")
    # One gain pass per round: the SINR reuses the effective gains the
    # BER measurement already computed.
    measured = LinkSimulator(params["link_config"]).measure_ber(channels, bf)
    return {
        "scheme": label,
        "feedback_bits": int(scheme["bits"]),
        "ber": float(measured.ber),
        "mean_sinr_db": batch_mean_sinr_db(
            measured.gains, measured.noise_power
        ),
    }


def network_round(params: Mapping) -> dict:
    """One STA-round of a :class:`~repro.core.network.NetworkCampaign`.

    The same pure measurement as :func:`session_round`; the campaign
    coordinator additionally pins the round's mobility/aging-degraded
    operating SNR into ``link_config``, which is echoed back so the
    campaign manifest records the environment each BER was measured
    under.
    """
    measured = session_round(params)
    measured["effective_snr_db"] = float(params["link_config"].snr_db)
    return measured


def step_chain(controller, n_rounds: int, round_params, measure) -> "list[dict]":
    """Run ``n_rounds`` consecutive rounds of one adaptive feedback chain.

    The SplitBeam online loop (Fig. 1): each round is measured with the
    rung ``controller`` (an :class:`~repro.core.adaptive.
    AdaptiveCompressionController`) deploys, and its BER is observed
    before the next round is built.  ``round_params(offset, rung)``
    builds round ``offset``'s parameters for ``measure`` (a round task
    function such as :func:`session_round`).  Returns every round's
    result, in round order; ``controller`` ends stepped past them.
    """
    results = []
    for offset in range(n_rounds):
        measured = measure(round_params(offset, controller.current))
        controller.observe(measured["ber"])
        results.append(measured)
    return results


def campaign_round_indices(dataset, profile: Mapping, round_index: int):
    """A campaign round's CSI draw: a pure function of (STA profile, round).

    The draw never depends on a measured BER, so a chain task (a
    SplitBeam round) and an 802.11 STA's task draw alike.
    """
    pool = dataset.splits.test
    rng = np.random.default_rng(
        [0x5E55, int(profile["seed"]), int(round_index)]
    )
    size = min(int(profile["samples_per_round"]), int(pool.size))
    return rng.choice(pool, size=size, replace=False)


def network_chain(params: Mapping) -> "list[dict]":
    """A SplitBeam STA's pending campaign rounds, stepped inside one task.

    ``params``: the STA ``profile``, the campaign ``fidelity``, the
    controller's ``ladder`` (its deployed models, inline), the
    controller ``state`` after the STA's cached prefix (see
    :meth:`~repro.core.adaptive.AdaptiveCompressionController.state`),
    the ``first_round`` to run, and ``links``, one round-pinned
    :class:`LinkConfig` per pending round.  Each round's slices are
    built here from the :func:`get_dataset` memo, so no CSI array
    crosses the process boundary.  Returns one :func:`network_round`
    result per pending round, in round order — the coordinator replays
    them through its own controller.
    """
    from repro.core.adaptive import AdaptiveCompressionController
    from repro.core.session import entry_round_scheme

    profile = params["profile"]
    dataset = get_dataset(profile["dataset"], params["fidelity"])
    first = int(params["first_round"])
    links = params["links"]

    def round_params(offset: int, rung) -> dict:
        indices = campaign_round_indices(dataset, profile, first + offset)
        return {
            "channels": dataset.link_channels(indices),
            "link_config": links[offset],
            "scheme": entry_round_scheme(dataset, indices, rung),
        }

    controller = AdaptiveCompressionController.resume(
        params["ladder"], params["state"]
    )
    return step_chain(controller, len(links), round_params, network_round)


def network_dot11(params: Mapping) -> "list[dict]":
    """An 802.11 STA's pending campaign rounds, measured inside one task.

    ``params``: the STA ``profile``, the campaign ``fidelity``, the
    pending ``rounds`` (round indices, ascending; a list, because the
    STA's cached rounds can sit anywhere), and ``links``, one
    round-pinned :class:`LinkConfig` per pending round.  Every round's
    draw and slices come from the :func:`get_dataset` memo; the 802.11
    codec runs once over all of them, and one
    :meth:`~repro.phy.link.LinkSimulator.measure_ber` pass measures
    every round with its own generator and SNR.  Returns one
    :func:`network_round` result per pending round, in ``rounds``
    order, each bit-identical to measuring that round alone.
    """
    from repro.baselines.dot11 import Dot11Feedback
    from repro.core.session import dot11_round_scheme

    profile = params["profile"]
    dataset = get_dataset(profile["dataset"], params["fidelity"])
    links = params["links"]
    indices = np.concatenate(
        [
            campaign_round_indices(dataset, profile, round_index)
            for round_index in params["rounds"]
        ]
    )
    scheme = dot11_round_scheme(dataset, indices)
    bf = Dot11Feedback().quantize_reconstruct(scheme["bf_true"])
    measured = LinkSimulator(links[0]).measure_ber(
        dataset.link_channels(indices), bf, links=links
    )
    return [
        {
            "scheme": "802.11",
            "feedback_bits": int(scheme["bits"]),
            "ber": float(result.ber),
            "mean_sinr_db": batch_mean_sinr_db(
                result.gains, result.noise_power
            ),
            "effective_snr_db": float(link.snr_db),
        }
        for link, result in zip(links, measured)
    ]
