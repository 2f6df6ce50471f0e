"""The benchmark's reproduction jobs and the checks on their outputs.

Each workload builds its inputs from the run's seed, runs one job
through the program's public entry points, and checks the job's output
unit by unit (models, STA-rounds, modules).  ``repro`` is only
imported from :meth:`Workload.imports`, so the set-up timing sees the
whole import.  Sizes and worker counts come from ``workloads.json``.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
from pathlib import Path


def artifact_digest(artifact) -> str:
    """sha256 of an artifact with ``code_version`` and cache ``key``s removed.

    Both change with any edit to any ``repro`` source file (the keys
    hash ``code_version()``), so without them the digest is equal across
    commits exactly when the results are.
    """

    def strip(value):
        if isinstance(value, dict):
            return {
                k: strip(v)
                for k, v in value.items()
                if k not in ("code_version", "key")
            }
        if isinstance(value, list):
            return [strip(v) for v in value]
        return value

    blob = json.dumps(strip(artifact), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def _finite_in(value, lo: float, hi: float) -> bool:
    return isinstance(value, (int, float)) and math.isfinite(value) and lo <= value <= hi


class Workload:
    """One job: inputs from the seed, a cold run, a warm replay, checks."""

    name = ""

    def __init__(self, size: dict, seed: int, root: Path) -> None:
        self.size = size
        self.seed = seed
        self.root = root

    def imports(self) -> None:
        """Import the modules the job uses (part of set-up)."""
        from repro.runtime.tasks import clear_memos

        self._clear_memos = clear_memos

    def prepare(self) -> None:
        """Build the job's spec from the seed (part of set-up)."""

    def open_stores(self, path: Path) -> dict:
        """Fresh store handles over ``path`` (empty on the first open)."""
        return {}

    def reset(self) -> None:
        """Drop per-process memos, so a run rebuilds what it needs."""
        self._clear_memos()

    def run(self, stores: dict, n_workers: int):
        raise NotImplementedError

    def artifact(self, result) -> dict:
        return result.to_dict()

    def executed(self, result) -> int:
        """Units the run computed rather than read from its stores."""
        raise NotImplementedError

    def units(self, result) -> "list[tuple[str, bool]]":
        """(unit, passed its value checks) for every unit of the job."""
        raise NotImplementedError

    def job_problems(self, result) -> "list[str]":
        """Whole-job checks of a cold run that no single unit carries."""
        return []


class ZooTable2(Workload):
    """The registered ``table2-architectures`` grid through ``train_zoo``."""

    name = "zoo-table2"

    def imports(self) -> None:
        super().imports()
        from repro.config import Fidelity
        from repro.core.zoo_builder import train_zoo
        from repro.runtime import CheckpointStore, get_training_grid

        self._api = dict(
            Fidelity=Fidelity, train_zoo=train_zoo,
            CheckpointStore=CheckpointStore, get_training_grid=get_training_grid,
        )

    def prepare(self) -> None:
        size = self.size
        fidelity = self._api["Fidelity"](
            name="perfbench-zoo-table2",
            n_samples=size["n_samples"],
            n_sessions=size["n_sessions"],
            epochs=size["epochs"],
            ber_samples=size["ber_samples"],
            ofdm_symbols=1,
        )
        grid = self._api["get_training_grid"](
            "table2-architectures", fidelity=fidelity, train_seed=self.seed
        )
        entries = tuple(
            {**entry, "dataset": {**entry["dataset"], "seed": self.seed}}
            for entry in grid.entries
        )
        self.spec = dataclasses.replace(grid, entries=entries)

    def open_stores(self, path: Path) -> dict:
        return {"store": self._api["CheckpointStore"](path / "checkpoints")}

    def run(self, stores: dict, n_workers: int):
        return self._api["train_zoo"](self.spec, store=stores["store"], n_workers=n_workers)

    def executed(self, result) -> int:
        return result.n_trained

    def units(self, result):
        return [
            (row["label"], _finite_in(row["measured_ber"], 0.0, 1.0) and bool(row["state_sha256"]))
            for row in result.entries
        ]

    def job_problems(self, result):
        expected = len(self.spec.entries)
        if result.n_trained != expected:
            return [f"cold run trained {result.n_trained} of {expected} models"]
        return []


class Campaign16(Workload):
    """The registered ``network-scale`` campaign of 16 heterogeneous STAs."""

    name = "campaign-16sta"

    def imports(self) -> None:
        super().imports()
        from repro.config import Fidelity
        from repro.core.network import run_campaign
        from repro.runtime import CheckpointStore, ResultCache, get_campaign

        self._api = dict(
            Fidelity=Fidelity, run_campaign=run_campaign,
            CheckpointStore=CheckpointStore, ResultCache=ResultCache,
            get_campaign=get_campaign,
        )

    def prepare(self) -> None:
        size = self.size
        fidelity = self._api["Fidelity"](
            name="perfbench-campaign-16sta",
            n_samples=size["n_samples"],
            n_sessions=size["n_sessions"],
            epochs=size["epochs"],
            ber_samples=size["ber_samples"],
            ofdm_symbols=1,
        )
        spec = self._api["get_campaign"](
            "network-scale",
            fidelity=fidelity,
            n_stas=size["n_stas"],
            n_rounds=size["n_rounds"],
            gamma_scale=size["gamma_scale"],
        )
        offset = 1000 * self.seed
        stas = tuple(
            {
                **sta,
                "seed": sta["seed"] + offset,
                "dataset": {**sta["dataset"], "seed": sta["dataset"]["seed"] + offset},
                "scheme": {**sta["scheme"], "train_seed": self.seed},
            }
            for sta in spec.stas
        )
        self.spec = dataclasses.replace(spec, stas=stas)

    def open_stores(self, path: Path) -> dict:
        return {
            "cache": self._api["ResultCache"](path / "results"),
            "store": self._api["CheckpointStore"](path / "checkpoints"),
        }

    def run(self, stores: dict, n_workers: int):
        return self._api["run_campaign"](
            self.spec, cache=stores["cache"], store=stores["store"], n_workers=n_workers
        )

    def executed(self, result) -> int:
        return result.n_executed_rounds

    def units(self, result):
        out = []
        for sta in result.stas:
            measured = {row["round"]: row for row in sta["rounds"]}
            for round_index in range(result.n_rounds):
                row = measured.get(round_index)
                ok = (
                    row is not None
                    and sta["degraded"] is None
                    and _finite_in(row["ber"], 0.0, 1.0)
                )
                out.append((f"{sta['name']}/round-{round_index:04d}", ok))
        return out

    def job_problems(self, result):
        problems = []
        expected = self.spec.n_stas * self.spec.n_rounds
        if result.n_executed_rounds != expected:
            problems.append(f"cold run executed {result.n_executed_rounds} of {expected} STA-rounds")
        if result.summary["degraded_stas"]:
            problems.append(f"degraded STAs: {result.summary['degraded_stas']}")
        schemes = {row["scheme"] for sta in result.stas for row in sta["rounds"]}
        if "802.11" not in schemes or not schemes - {"802.11"}:
            problems.append(f"rounds do not mix 802.11 and SplitBeam: {sorted(schemes)}")
        return problems


class LintTree(Workload):
    """``run_lint`` over ``src/`` with the default rules, serial.

    Only traced runs use it, for the ``lint`` layer's ledger.  Its input
    is the checkout's own source tree, which the seed does not vary, and
    the linter keeps no store, so it has no warm replay.
    """

    name = "lint-tree"

    def imports(self) -> None:
        from repro.lint import Baseline, run_lint

        self._api = dict(Baseline=Baseline, run_lint=run_lint)

    def prepare(self) -> None:
        src = self.root / "src"
        self.modules = sorted(
            ".".join(path.relative_to(src).with_suffix("").parts).removesuffix(".__init__")
            for path in (src / "repro").rglob("*.py")
            if "__pycache__" not in path.parts
        )
        self.baseline = self.root / "lint-baseline.json"

    def reset(self) -> None:
        pass

    def run(self, stores: dict, n_workers: int):
        baseline = self._api["Baseline"].load(self.baseline)
        return self._api["run_lint"]([self.root / "src"], baseline=baseline, jobs=n_workers)

    def artifact(self, result) -> dict:
        return {
            "n_modules": result.n_modules,
            "rules_run": list(result.rules_run),
            "findings": [
                {**f.to_dict(), "path": Path(f.path).relative_to(self.root).as_posix()}
                for f in result.sorted_findings()
            ],
        }

    def executed(self, result) -> int:
        return 0

    def units(self, result):
        outside = {f.module for f in result.active}
        return [(module, module not in outside) for module in self.modules]

    def job_problems(self, result):
        if result.n_modules != len(self.modules):
            return [f"linted {result.n_modules} of {len(self.modules)} modules under src/repro"]
        return []

    def counts(self, result) -> "dict[str, int]":
        return {"lint.modules": result.n_modules, "lint.findings": len(result.findings)}


WORKLOADS = {cls.name: cls for cls in (ZooTable2, Campaign16, LintTree)}
