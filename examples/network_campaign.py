"""Network campaign demo: heterogeneous STAs at scale on the runtime engine.

The paper's headline scenario (Sec. I + IV-B): an AP sounding many
heterogeneous STAs — different bandwidths, QoS profiles, device cost
models, Doppler spreads, and feedback schemes — every 10 ms, with each
SplitBeam STA's adaptive controller walking its compression ladder as
mobility episodes push the measured BER around.  The campaign runs
twice to show the caching contract: the cold run trains the ladders
and measures every STA-round; the warm run replays everything from the
content-addressed stores and executes zero link simulations.

With ``--chaos`` the campaign runs a third time on a fresh round cache
under an injected fault plan — worker hard-crashes, task errors, torn
cache writes — and asserts that the plan hit at least one SplitBeam
chain task and that the manifest is byte-identical to the fault-free
run: chaos costs retries, never bytes (docs/runtime.md,
"Fault tolerance").  Smoke-fidelity ladders need ``--gamma-scale`` to
stay selectable, or every STA falls back to 802.11 and no chain runs.

With ``--trace DIR`` the cold campaign records its span timeline —
zoo training, STA-round dispatch, every worker-side task, store
get/put — into ``DIR`` (``trace.jsonl`` + ``chrome_trace.json`` +
``summary.txt``), the run-health counters are printed, and the trace
report (critical path, slowest rounds, cache statistics) is rendered
inline.  Tracing never changes manifest bytes (docs/observability.md).

Run:  python examples/network_campaign.py
      python examples/network_campaign.py --preset mobility-episodes
      REPRO_RUNTIME_WORKERS=4 python examples/network_campaign.py
      python examples/network_campaign.py --fidelity smoke --stas 6 --rounds 3
      python examples/network_campaign.py --fidelity smoke --stas 6 --rounds 3 --gamma-scale 10 --chaos
      python examples/network_campaign.py --fidelity smoke --trace /tmp/campaign-trace
"""

import argparse
import json
import shutil
import tempfile

from repro import fidelity as fidelity_preset
from repro.core.network import run_campaign
from repro.runtime import (
    CheckpointStore,
    ResultCache,
    campaign_names,
    parse_plan,
)
from repro.utils.tables import render_table

#: The ``--chaos`` fault schedule: one-shot worker crashes on 40% of
#: SplitBeam chain tasks (``<sta>/rounds-<first>-<last>``), errors on
#: the first two attempts of 50% of chains and of every 802.11 STA's
#: task (``<sta>/dot11-<first>-<last>``) — two, because a crash replays
#: every in-flight task as a new attempt — and torn writes on half the
#: cache entries, all recoverable within the default retry budget.
CHAOS_PLAN = (
    "crash,*/rounds-*,rate=0.4,count=1;"
    "error,*/rounds-*,rate=0.5,count=2;"
    "error,*/dot11-*,count=2;"
    "torn,cache:*,rate=0.5"
)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--preset",
        default="network-scale",
        choices=campaign_names(),
        help="registered campaign preset to run",
    )
    parser.add_argument(
        "--fidelity",
        default="fast",
        help="fidelity preset (smoke keeps the demo to a few seconds)",
    )
    parser.add_argument(
        "--stas", type=int, default=None, help="override the STA count"
    )
    parser.add_argument(
        "--rounds", type=int, default=None, help="override the round count"
    )
    parser.add_argument(
        "--gamma-scale",
        type=float,
        default=None,
        help="loosen every QoS tier's BER ceiling by this factor "
        "(network-scale only; smoke-fidelity models need ~10x to stay "
        "selectable)",
    )
    parser.add_argument(
        "--chaos",
        action="store_true",
        help="re-run the campaign under an injected fault plan (worker "
        "crashes, task errors, torn cache writes) and assert the "
        "manifest is byte-identical to the fault-free run",
    )
    parser.add_argument(
        "--trace",
        default=None,
        metavar="DIR",
        help="record the cold campaign's trace under DIR and print "
        "the run-health counters plus the trace report",
    )
    args = parser.parse_args()
    fidelity = fidelity_preset(args.fidelity)

    overrides = {}
    if args.stas is not None:
        overrides["n_stas"] = args.stas
    if args.rounds is not None:
        overrides["n_rounds"] = args.rounds
    if args.gamma_scale is not None:
        if args.preset != "network-scale":
            parser.error(
                f"--gamma-scale applies to the network-scale preset only; "
                f"{args.preset!r} has no QoS-tier scaling override"
            )
        overrides["gamma_scale"] = args.gamma_scale

    workdir = tempfile.mkdtemp(prefix="repro-campaign-")
    cache = ResultCache(f"{workdir}/rounds")
    store = CheckpointStore(f"{workdir}/checkpoints")

    try:
        cold = demo(args, fidelity, overrides, cache, store)
        if args.chaos:
            chaos_demo(
                args,
                fidelity,
                overrides,
                cold,
                ResultCache(f"{workdir}/rounds-chaos"),
                store,
            )
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def chaos_demo(args, fidelity, overrides, cold, cache, store) -> None:
    print(f"\nchaos run: injecting '{CHAOS_PLAN}' ...")
    chaotic = run_campaign(
        args.preset,
        fidelity=fidelity,
        cache=cache,
        store=store,
        n_workers=2,
        faults=parse_plan(CHAOS_PLAN),
        **overrides,
    )
    executor = chaotic.health["executor"]
    # Only chain task ids (``<sta>/rounds-...``) match the crash rule,
    # so an observed worker crash is a fault that hit a SplitBeam chain.
    assert executor["worker_crashes"] >= 1, (
        "no injected fault hit a SplitBeam chain task"
    )
    print(
        f"chaos run: {executor['injected_faults']} injected fault(s), "
        f"{executor['worker_crashes']} worker crash(es), "
        f"{executor['retries']} retrie(s), "
        f"{executor['pool_rebuilds']} pool rebuild(s) in "
        f"{chaotic.wall_s:.2f} s"
    )
    clean_bytes = json.dumps(cold.to_dict(), sort_keys=True)
    chaos_bytes = json.dumps(chaotic.to_dict(), sort_keys=True)
    assert chaos_bytes == clean_bytes, "chaos changed the manifest bytes"
    assert not chaotic.summary["partial_coverage"], (
        "chaos run should recover every STA within the retry budget"
    )
    print(
        "chaos run: manifest is byte-identical to the fault-free run — "
        "chaos cost retries, never bytes."
    )


def print_health(result, label: str) -> None:
    """One line per health family (executor retries, store quarantines)."""
    for family, counters in (result.health or {}).items():
        if not isinstance(counters, dict):
            continue
        interesting = {
            key: value for key, value in sorted(counters.items())
            if isinstance(value, (int, float)) and value
        }
        print(f"{label} health[{family}]: {interesting or 'clean'}")


def demo(args, fidelity, overrides, cache, store):
    print(f"Running campaign preset {args.preset!r} (fidelity={fidelity.name}) ...")
    cold = run_campaign(
        args.preset,
        fidelity=fidelity,
        cache=cache,
        store=store,
        trace=args.trace if args.trace else False,
        **overrides,
    )
    print(
        f"cold run: trained {cold.zoo_trained} ladder model(s), executed "
        f"{cold.n_executed_rounds} STA-rounds with {cold.n_workers} "
        f"worker(s) in {cold.wall_s:.2f} s"
    )

    warm = run_campaign(
        args.preset, fidelity=fidelity, cache=cache, store=store, **overrides
    )
    print(
        f"warm run: executed {warm.n_executed_rounds} STA-rounds "
        f"({warm.n_cached_rounds} replayed from {cache.root}) in "
        f"{warm.wall_s:.2f} s"
    )
    assert warm.n_executed_rounds == 0, "warm re-run must not simulate a link"

    sta_rows = [
        [
            row["name"],
            row["config"],
            row["mode"],
            row["summary"]["mean_ber"],
            int(row["summary"]["mean_feedback_bits"]),
            row["summary"]["qos_violations"],
            row["summary"]["saturated"],
            "/".join(
                f"{row['summary'][key]}" for key in ("step_downs", "step_ups")
            ),
        ]
        for row in warm.stas
    ]
    print()
    print(
        render_table(
            ["STA", "config", "mode", "mean BER", "fb bits", "γ viol",
             "saturated", "down/up"],
            sta_rows,
            title=warm.title,
        )
    )

    round_rows = [
        [
            row["round"] + 1,
            f"{100 * row['occupancy']:.1f}%",
            f"{row['occupancy_ratio']:.3f}",
            "yes" if row["feasible"] else "NO",
            row["goodput_bps"] / 1e6,
        ]
        for row in warm.rounds
    ]
    print()
    print(
        render_table(
            ["round", "occupancy", "raw ratio", "fits 10 ms", "goodput Mb/s"],
            round_rows,
            title="Aggregate sounding cost per round",
        )
    )

    if args.trace:
        from repro.obs import load_trace, render_report

        print()
        print_health(cold, "cold")
        print(f"\ntrace written: {cold.trace_dir}")
        print("trace report:\n")
        print(render_report(load_trace(cold.trace_dir), top_k=5))

    summary = warm.summary
    print(
        f"\n{summary['n_stas']} STAs, {summary['n_rounds']} rounds: modes "
        f"{summary['modes']}, mean occupancy "
        f"{100 * summary['mean_occupancy']:.1f}% (max raw ratio "
        f"{summary['max_occupancy_ratio']:.3f}), "
        f"{summary['hard_qos_failures']} hard QoS failure(s), "
        f"{summary['deadline_misses']} deadline miss(es).  Manifests are "
        "byte-identical for any worker count, and warm re-runs replay "
        "entirely from the content-addressed caches (docs/runtime.md)."
    )
    return cold


if __name__ == "__main__":
    main()
