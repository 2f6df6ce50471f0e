"""Scenario engine demo: declarative grids, workers, and result caching.

Runs the ``snr-sweep`` scenario preset (BER vs operating SNR for ideal /
802.11 / SplitBeam feedback on dataset D1) through
``repro.runtime.ExperimentEngine`` twice, to show the two multipliers
the engine adds on top of the vectorized kernels:

- the first run executes every grid point (optionally on worker
  processes — results are bit-identical to serial execution);
- the second run serves every point from the content-addressed result
  cache and executes nothing.

With ``--trace DIR`` both runs record their span timelines and metrics
into ``DIR/cold`` and ``DIR/warm`` (``trace.jsonl`` +
``chrome_trace.json`` + ``summary.txt``), the run-health counters are
printed, and the cold run's trace report — critical path, slowest
tasks, cache statistics — is rendered inline.  Tracing never changes
result bytes (docs/observability.md).

Run:  python examples/scenario_engine.py
      REPRO_RUNTIME_WORKERS=4 python examples/scenario_engine.py
      python examples/scenario_engine.py --trace /tmp/engine-trace
"""

import argparse
import os
import shutil
import tempfile

from repro import SMOKE
from repro.runtime import ExperimentEngine, ResultCache, get_scenario
from repro.utils.tables import render_table


def print_health(run, label: str) -> None:
    """One line per health family (executor retries, store quarantines)."""
    for family, counters in run.health.items():
        if not isinstance(counters, dict):
            continue
        interesting = {
            key: value for key, value in sorted(counters.items())
            if isinstance(value, (int, float)) and value
        }
        print(f"{label} health[{family}]: {interesting or 'clean'}")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--trace",
        default=None,
        metavar="DIR",
        help="record cold/warm run traces under DIR and print the "
        "cold run's trace report",
    )
    args = parser.parse_args()

    # SMOKE keeps the demo in seconds; drop fidelity= for the real grid.
    scenario = get_scenario("snr-sweep", fidelity=SMOKE, dataset_id="D1")
    print(f"scenario {scenario.name!r}: {scenario.n_points} points")

    root = tempfile.mkdtemp(prefix="repro-scenario-cache-")
    try:
        demo(args, scenario, ResultCache(root))
    finally:
        shutil.rmtree(root, ignore_errors=True)


def demo(args, scenario, cache: ResultCache) -> None:
    def engine(trace_leg: str):
        trace = os.path.join(args.trace, trace_leg) if args.trace else False
        # workers: $REPRO_RUNTIME_WORKERS
        return ExperimentEngine(cache=cache, trace=trace)

    run = engine("cold").run(scenario)
    print(
        f"cold run: executed {run.n_executed}/{run.n_tasks} points "
        f"with {run.n_workers} worker(s) in {run.wall_s:.2f} s"
    )

    warm = engine("warm").run(scenario)
    print(
        f"warm run: executed {warm.n_executed}/{warm.n_tasks} points "
        f"(all {warm.n_cached} served from {cache.root}) in {warm.wall_s:.3f} s"
    )

    rows = [
        [entry["label"], entry["result"]["ber"], entry["result"]["feedback_bits"]]
        for entry in warm.points
    ]
    print()
    print(render_table(["point", "BER", "feedback bits"], rows,
                       title=scenario.title))

    if args.trace:
        from repro.obs import load_trace, render_report

        print()
        print_health(run, "cold")
        print_health(warm, "warm")
        print(f"\ntraces written: {run.trace_dir} and {warm.trace_dir}")
        print("cold-run trace report:\n")
        print(render_report(load_trace(run.trace_dir), top_k=5))

    print(
        "\nEvery point is a pure seeded task: re-runs, overlapping "
        "scenarios, and worker pools all reproduce these exact numbers "
        "(see docs/runtime.md)."
    )


if __name__ == "__main__":
    main()
