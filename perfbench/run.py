"""End-to-end benchmark of the SplitBeam reproduction's real jobs.

    python3 perfbench/run.py --workload zoo-table2 --seed 1 --seconds 50 --trace 0
    python3 perfbench/run.py --compare RUNS_A RUNS_B

A run times one workload (see ``BENCHMARK.json`` and ``workloads.json``)
in fresh interpreters, checks its outputs, prints its context, and ends
with one JSON line: every end-to-end metric with ``--trace 0``, every
per-layer metric with ``--trace 1``.  Timings are reference-host seconds
(see ``probe.py``).  Each run's full report is also written to
``.perfbench_out/runs/``; ``--compare`` reads two such directories.
"""

import argparse
import compileall
import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[0] = str(ROOT)

from perfbench import stats  # noqa: E402

HERE = Path(__file__).resolve().parent
OUT = ROOT / ".perfbench_out"
#: Seconds after the run starts by which every leg must have ended; the
#: whole run must exit within 180 s.
DEADLINE_S = 170
_STARTED = time.monotonic()


def load_config() -> "tuple[dict, dict]":
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = json.loads((HERE / "workloads.json").read_text())
    return benchmark, workloads


def leg_environment() -> dict:
    """The user's environment, minus every runtime knob.

    No BLAS or OpenMP thread count is set.  ``TMPDIR`` points under the
    checkout, so that temporary files (the campaign's payload spool) stay
    inside it like everything else the benchmark writes.
    """
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_RUNTIME_")}
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    tmp = OUT / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    env["TMPDIR"] = str(tmp)
    return env


def run_leg(config: dict, env: dict, importtime: bool = False) -> "tuple[dict, str]":
    """Run one leg in a fresh interpreter; returns (report, stderr)."""
    legs = OUT / "legs"
    legs.mkdir(parents=True, exist_ok=True)
    out = legs / f"leg-{os.getpid()}-{time.monotonic_ns()}.json"
    config = {**config, "out": str(out), "work_dir": str(out.with_suffix(".work"))}
    command = [sys.executable] + (["-X", "importtime"] if importtime else [])
    command += [str(HERE / "leg.py"), json.dumps(config)]
    proc = subprocess.Popen(
        command, cwd=ROOT, env=env, stdout=subprocess.DEVNULL,
        stderr=subprocess.PIPE, text=True, start_new_session=True,
    )
    try:
        _, err = proc.communicate(timeout=max(DEADLINE_S - (time.monotonic() - _STARTED), 1))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise SystemExit(f"perfbench: {config['mode']} leg timed out")
    finally:
        _kill_group(proc.pid)
    if proc.returncode != 0 or not out.exists():
        sys.stderr.write(err[-4000:])
        raise SystemExit(f"perfbench: {config['mode']} leg failed ({proc.returncode})")
    report = json.loads(out.read_text())
    out.unlink()
    return report, err


def _kill_group(pgid: int) -> None:
    """Stop anything a leg left behind in its process group."""
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def scipy_import_us(importtime_log: str) -> float:
    """Microseconds spent importing scipy, from ``-X importtime`` output.

    Lines are printed children-first; an entry's parent is the next line
    one level up.  Counts the cumulative time of every ``scipy`` entry
    whose parent is not itself a ``scipy`` module.
    """
    entries = []
    for line in importtime_log.splitlines():
        if not line.startswith("import time:") or "|" not in line:
            continue
        fields = line[len("import time:"):].split("|")
        if len(fields) != 3 or not fields[1].strip().isdigit():
            continue
        name = fields[2].rstrip()
        level = (len(name) - len(name.lstrip())) // 2
        entries.append((level, name.strip(), int(fields[1])))
    total = 0
    ancestors: "list[tuple[int, str]]" = []
    for level, name, cumulative in reversed(entries):
        while ancestors and ancestors[-1][0] >= level:
            ancestors.pop()
        parent = ancestors[-1][1] if ancestors else ""
        if name.split(".")[0] == "scipy" and parent.split(".")[0] != "scipy":
            total += cumulative
        ancestors.append((level, name))
    return float(total)


def describe(name: str, samples: "list[float]", unit: str, raw: "list[float]") -> str:
    line = f"  {name:<14} {stats.median(samples):.4f} {unit}  median of {len(samples)}"
    tail = stats.tail_percentile(samples)
    if tail is not None:
        line += f", p{tail[0]} {tail[1]:.4f}"
    return line + f"  (raw wall {stats.median(raw):.4f} s)"


def measure(args, benchmark: dict, workloads: dict, env: dict):
    spec = workloads["workloads"][args.workload]
    nproc = len(os.sched_getaffinity(0))
    base = {
        "workload": args.workload,
        "seed": args.seed,
        "size": spec["size"],
        "workers": nproc if spec["workers"] == "nproc" else int(spec["workers"]),
        "nproc": nproc,
        "reference_s": workloads["probe_reference_s"],
    }
    lines = []
    if not args.trace:
        started = time.perf_counter()
        legs = []
        while True:
            began = time.perf_counter()
            legs.append(run_leg({**base, "mode": "jobs"}, env)[0])
            now = time.perf_counter()
            if now - started + (now - began) > args.seconds:
                break
        samples = {
            name: [leg[name] for leg in legs] for name in ("setup", "cold", "warm")
        }
        values = {
            name + "_s": stats.median(s["reference_s"] for s in samples[name])
            for name in samples
        }
        values["peak_rss_mb"] = stats.median(leg["peak_rss_mb"] for leg in legs)
        for name, taken in samples.items():
            lines.append(
                describe(f"{name}_s", [s["reference_s"] for s in taken], "s",
                         [s["wall_s"] for s in taken])
            )
        lines[-1] += f", {sum(w['replays'] for w in samples['warm'])} replays"
        lines.append(
            f"  {'peak_rss_mb':<14} {values['peak_rss_mb']:.1f} MB  median of {len(legs)}"
        )
        job = {
            "attempted": sum(leg["attempted"] for leg in legs),
            "failed": sum(leg["failed"] for leg in legs),
            "problems": [p for leg in legs for p in leg["problems"]],
            "digests": sorted({d for leg in legs for d in leg["digests"]}),
            "environment": legs[0]["environment"],
            "legs": legs,
        }
        if len(job["digests"]) > 1:
            job["problems"].append("legs of one seed gave different artifacts")
        declared = benchmark["end_to_end"]
    else:
        job, err = run_leg(
            {**base, "mode": "trace", "spans_out": str(spans_path(args))}, env,
            importtime=True,
        )
        setup = job["setup"]
        # The lint layer has no end-to-end workload of its own (one pass
        # takes 7-8 s, too few legs a run to be steady), so every traced
        # run also traces the lint-tree job, in its own interpreter.
        lint_spec = workloads["traced_only"]["lint-tree"]
        lint_leg, _ = run_leg(
            {**base, "workload": "lint-tree", "workers": lint_spec["workers"], "mode": "lint"}, env
        )
        lint = lint_leg["lint"]
        values = {
            "setup.import_s": setup["import_s"],
            "setup.import_scipy_s": scipy_import_us(err) * 1e-6 * setup["reference_s"] / setup["wall_s"],
            **job["trace"]["per_layer"],
            **lint["per_layer"],
        }
        for key in ("attempted", "failed", "problems", "digests"):
            job[key] += lint_leg[key]
        declared = benchmark["per_layer"]
        for leg_name in ("untraced", "traced"):
            for workers, timing in sorted(job["trace"][leg_name].items()):
                lines.append(
                    f"  {leg_name} cold at {workers} worker(s): {timing['reference_s']:.4f} s"
                    f" (raw wall {timing['wall_s']:.4f} s)"
                )
        lines.append(
            f"  lint-tree job, traced: {lint['timing']['reference_s']:.4f} s"
            f" (raw wall {lint['timing']['wall_s']:.4f} s), unattributed {lint['unattributed_s']:.4f} s"
        )
        missing = job["trace"]["missing_targets"] + lint["missing_targets"]
        if missing:
            lines.append(f"  wrap targets not found: {missing}")
        lines.append(f"  spans written to {spans_path(args).relative_to(ROOT)}")
    attempted = max(int(job["attempted"]), 1)
    failed = int(job["failed"])
    values["success_ratio"] = (attempted - failed) / attempted
    metrics = {}
    not_fired = []
    for metric in declared:
        value = values.get(metric["name"])
        if value is None:
            not_fired.append(metric["name"])
            value = 0
        metrics[metric["name"]] = {"value": value, "unit": metric["unit"]}
    if args.trace:
        for metric in declared:
            value = values.get(metric["name"])
            shown = "not fired" if value is None else f"{value:.6g}"
            lines.append(f"  {metric['name']:<32} {shown} {metric['unit']}")
    lines.append(
        f"  success_ratio  {values['success_ratio']:.4f}  ({attempted - failed}/{attempted} units)"
    )
    for digest in job["digests"]:
        lines.append(f"  artifact sha256 (code_version and keys removed): {digest}")
    for problem in job["problems"]:
        lines.append(f"  CHECK FAILED: {problem}")
    env_info = job["environment"]
    header = (
        f"perfbench {args.workload} seed={args.seed} trace={args.trace} "
        f"nproc={env_info['nproc']} blas={env_info['blas']} "
        f"blas_threads={env_info['blas_threads']} thread_env={env_info['thread_env']} "
        f"python={env_info['python']} numpy={env_info['numpy']} "
        f"knobs={env_info['knobs']} probe_reference_s={workloads['probe_reference_s']}"
    )
    result = {
        "correct": not job["problems"] and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    context = {"environment": env_info, "job": job, "not_fired": not_fired}
    return result, [header] + lines, context


def spans_path(args) -> Path:
    return OUT / "spans" / f"{args.workload}-seed{args.seed}.json"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="perfbench/run.py", description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=50)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--compare", nargs=2, metavar=("RUNS_A", "RUNS_B"))
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: no src/repro under {ROOT}; run from a checkout", file=sys.stderr)
        return 2
    benchmark, workloads = load_config()
    if args.compare:
        from perfbench.compare import main as compare_main

        return compare_main(args.compare, benchmark)
    if args.workload not in workloads["workloads"] or args.seed < 0:
        parser.error(f"--workload must be one of {sorted(workloads['workloads'])}; --seed >= 0")
    # Byte-compile first, so no timed import pays for it.
    compileall.compile_dir(str(ROOT / "src"), quiet=2)
    env = leg_environment()
    result, lines, context = measure(args, benchmark, workloads, env)
    for line in lines:
        print(line)
    runs = OUT / "runs"
    runs.mkdir(parents=True, exist_ok=True)
    report = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "result": result, "context": context}
    (runs / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(report, indent=1)
    )
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
