"""Parameter sweeps with per-point confidence intervals.

The paper reports single BER numbers; a reproduction should also say
how *stable* they are.  ``ber_sweep`` measures a feedback scheme across
an SNR (or any LinkConfig-parameter) grid with several independent
noise seeds per point and returns mean ± a normal-approximation
confidence halfwidth, which the examples print alongside the point
estimates.

The (SNR x seed) grid points are independent pure tasks, so the sweep
executes through :func:`repro.runtime.executor.run_tasks`: serial and
in-process by default, on a worker pool when ``n_workers > 1`` (or
``$REPRO_RUNTIME_WORKERS`` is set) — with bit-identical results either
way, since each task seeds its own link simulator.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from repro.baselines.interface import FeedbackScheme
from repro.datasets.builder import CsiDataset
from repro.errors import ConfigurationError
from repro.phy.link import LinkConfig
from repro.runtime.executor import Task, run_tasks
from repro.utils.blas import one_blas_thread

__all__ = ["SweepPoint", "ber_sweep"]


@dataclass(frozen=True)
class SweepPoint:
    """One sweep point: mean BER over seeds plus a CI halfwidth."""

    parameter: float
    mean_ber: float
    ci_halfwidth: float
    n_seeds: int
    #: Per-seed BER measurements (length ``n_seeds``), so downstream
    #: statistics (bootstraps, seed-variance audits) need not re-run
    #: the sweep.  Empty only for hand-built points.
    seed_bers: tuple[float, ...] = ()

    @property
    def low(self) -> float:
        return max(self.mean_ber - self.ci_halfwidth, 0.0)

    @property
    def high(self) -> float:
        return min(self.mean_ber + self.ci_halfwidth, 1.0)


@one_blas_thread()
def ber_sweep(
    scheme: FeedbackScheme,
    dataset: CsiDataset,
    snrs_db: Sequence[float],
    indices: np.ndarray | None = None,
    base_config: LinkConfig | None = None,
    n_seeds: int = 3,
    z_score: float = 1.96,
    n_workers: int | None = None,
) -> list[SweepPoint]:
    """Measure BER across an SNR grid with independent noise seeds.

    The beamforming reconstruction is computed once (it does not depend
    on the link noise); only the link simulation is repeated per seed.
    ``n_workers`` parallelizes the (SNR x seed) grid (``None`` reads
    ``$REPRO_RUNTIME_WORKERS``; 1 = in-process serial execution, and
    results are identical regardless: the sweep runs at one BLAS thread,
    like every job — see :func:`~repro.utils.blas.one_blas_thread`).
    """
    if not snrs_db:
        raise ConfigurationError("need at least one SNR point")
    if n_seeds < 1:
        raise ConfigurationError("n_seeds must be >= 1")
    if indices is None:
        indices = dataset.splits.test
    indices = np.asarray(indices)
    if indices.size == 0:
        raise ConfigurationError(
            "indices must be non-empty (an empty test split would yield "
            "a degenerate zero-bit BER mean)"
        )
    base = base_config or LinkConfig()
    bf = scheme.reconstruct_bf(dataset, indices)
    channels = dataset.link_channels(indices)

    # No shard labels: each (SNR, seed) cell is independent and carries
    # its arrays inline, so pinning cells together would only serialize
    # single-SNR multi-seed sweeps without any memoization payoff.
    tasks = [
        Task(
            task_id=f"snr{i:03d}/seed{seed:03d}",
            fn="repro.runtime.tasks:link_ber_point",
            params={
                "config": replace(base, snr_db=float(snr_db), seed=seed),
                "channels": channels,
                "bf": bf,
            },
        )
        for i, snr_db in enumerate(snrs_db)
        for seed in range(n_seeds)
    ]
    results = run_tasks(tasks, n_workers=n_workers)

    points: list[SweepPoint] = []
    for i, snr_db in enumerate(snrs_db):
        bers = [
            results[f"snr{i:03d}/seed{seed:03d}"]["ber"]
            for seed in range(n_seeds)
        ]
        bers_arr = np.asarray(bers)
        halfwidth = (
            z_score * float(bers_arr.std(ddof=1)) / np.sqrt(n_seeds)
            if n_seeds > 1
            else 0.0
        )
        points.append(
            SweepPoint(
                parameter=float(snr_db),
                mean_ber=float(bers_arr.mean()),
                ci_halfwidth=halfwidth,
                n_seeds=n_seeds,
                seed_bers=tuple(float(b) for b in bers),
            )
        )
    return points
