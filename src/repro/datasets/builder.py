"""Dataset construction: from channel sampling to training arrays.

A :class:`CsiDataset` bundles, for one Table I entry:

- the preprocessed multi-user CSI tensor (used both as DNN input and as
  the propagation channel in BER measurements — the paper likewise uses
  its *measured* CSI as the channel in its MATLAB BER program);
- the supervised targets: gauge-fixed SVD beamforming vectors per user
  and subcarrier;
- frozen 8:1:1 split indices.

The builder emulates the collection campaign: several sessions (fresh
channel realizations and placements), packet drops, alignment by
sequence number, a 10-point moving median, and per-sample amplitude
normalization.  Within a session the channel is additionally re-drawn
every ``reset_interval`` packets, standing in for the paper's repeated,
well-separated measurement runs (the source of sample diversity).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.config import FAST, Fidelity
from repro.errors import DatasetError
from repro.channels.sampler import CsiSampler
from repro.datasets.catalog import DatasetSpec
from repro.datasets.preprocess import align_users, moving_median, normalize_amplitude
from repro.datasets.splits import SplitIndices, split_indices
from repro.obs.metrics import profiled
from repro.phy.svd import dominant_right_singular_pair
from repro.utils.complexmat import complex_to_real
from repro.utils.rng import as_generator

__all__ = ["CsiDataset", "build_dataset"]


@dataclass
class CsiDataset:
    """A ready-to-train dataset for one network configuration."""

    spec: DatasetSpec
    csi: np.ndarray  # (n, n_users, S, Nr, Nt) complex
    bf: np.ndarray  # (n, n_users, S, Nt) complex (gauge-fixed SVD)
    splits: SplitIndices

    def __post_init__(self) -> None:
        if self.csi.ndim != 5 or self.bf.ndim != 4:
            raise DatasetError(
                f"bad dataset tensors: csi {self.csi.shape}, bf {self.bf.shape}"
            )
        if self.csi.shape[0] != self.bf.shape[0]:
            raise DatasetError("csi and bf sample counts differ")

    # -- dimensions ----------------------------------------------------------

    @property
    def n_samples(self) -> int:
        return int(self.csi.shape[0])

    @property
    def n_users(self) -> int:
        return int(self.csi.shape[1])

    @property
    def n_subcarriers(self) -> int:
        return int(self.csi.shape[2])

    @property
    def input_dim(self) -> int:
        """Flattened real input width ``D = 2 * Nr * Nt * S``."""
        _, _, s, n_rx, n_tx = self.csi.shape
        return 2 * s * n_rx * n_tx

    @property
    def output_dim(self) -> int:
        """Flattened real output width ``2 * Nt * S`` (Nss = 1)."""
        return 2 * self.csi.shape[2] * self.csi.shape[4]

    # -- model arrays ------------------------------------------------------------

    def model_arrays(
        self, indices: np.ndarray | None = None
    ) -> tuple[np.ndarray, np.ndarray]:
        """Flattened real (X, Y) with one row per (sample, user).

        The paper deploys one model shared by all STAs, so user axes are
        folded into the batch.
        """
        csi = self.csi if indices is None else self.csi[indices]
        bf = self.bf if indices is None else self.bf[indices]
        n, u = csi.shape[:2]
        x = complex_to_real(csi.reshape(n * u, -1))
        y = complex_to_real(bf.reshape(n * u, -1))
        return x, y

    def train_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        return self.model_arrays(self.splits.train)

    def val_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        return self.model_arrays(self.splits.val)

    def test_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        return self.model_arrays(self.splits.test)

    # -- link-simulation views ---------------------------------------------------

    def link_channels(self, indices: np.ndarray | None = None) -> np.ndarray:
        """Channels shaped for the link simulator (n, users, S, Nr, Nt)."""
        return self.csi if indices is None else self.csi[indices]

    def link_bf(self, indices: np.ndarray | None = None) -> np.ndarray:
        """Ground-truth beamforming vectors (n, users, S, Nt)."""
        return self.bf if indices is None else self.bf[indices]


@profiled("datasets.build")
def build_dataset(
    spec: DatasetSpec,
    fidelity: Fidelity = FAST,
    reset_interval: int | None = None,
    median_window: int = 10,
    seed: "int | np.random.Generator | None" = 0,
) -> CsiDataset:
    """Generate a :class:`CsiDataset` for one Table I entry.

    ``fidelity`` controls the sample count (``fidelity.n_samples``
    overrides ``spec.n_samples``), session structure, and channel
    re-randomization cadence (``reset_interval`` overrides it).

    The targets come from :func:`repro.phy.svd.dominant_right_singular_pair`
    in the canonical phase gauge.  Every catalog entry has one receive
    antenna per STA, so each target is the rank-one closed form (the
    conjugated CSI row, normalised and gauge-fixed): within 8 eps of
    LAPACK's :func:`repro.phy.svd.beamforming_matrices`, but not
    bit-equal to it.
    """
    rng = as_generator(seed)
    if reset_interval is None:
        reset_interval = fidelity.reset_interval
    n_target = min(spec.n_samples, fidelity.n_samples)
    n_sessions = max(1, fidelity.n_sessions)
    drop = spec.env.packet_drop_rate
    # Over-collect so alignment losses do not undershoot the target.
    survival = (1.0 - drop) ** spec.n_users
    per_session = math.ceil(n_target / n_sessions / max(survival, 0.1) * 1.15)

    sampler = CsiSampler(
        env=spec.env,
        n_users=spec.n_users,
        n_rx=spec.n_rx,
        n_tx=spec.n_tx,
        band=spec.band,
        rng=rng,
    )

    session_arrays: list[np.ndarray] = []
    for _ in range(n_sessions):
        batches = _collect_with_resets(sampler, per_session, reset_interval)
        smoothed = [
            type(batch)(
                csi=moving_median(batch.csi, window=median_window),
                sequence=batch.sequence,
            )
            for batch in batches
        ]
        session_arrays.append(align_users(smoothed))
    csi = np.concatenate(session_arrays, axis=0)
    if csi.shape[0] < n_target:
        raise DatasetError(
            f"collected {csi.shape[0]} aligned samples < target {n_target}"
        )
    csi = csi[:n_target]
    csi = normalize_amplitude(csi)

    # Supervised targets: gauge-fixed SVD beamforming vector per user.
    bf = dominant_right_singular_pair(csi)[0]
    splits = split_indices(n_target, rng=rng)
    return CsiDataset(spec=spec, csi=csi, bf=bf, splits=splits)


def _collect_with_resets(
    sampler: CsiSampler, n_packets: int, reset_interval: int
):
    """One session, re-randomizing the channel every ``reset_interval``.

    Implemented by chaining short sampler sessions and re-basing their
    sequence numbers so alignment still works across the whole stream.
    """
    if reset_interval < 1:
        raise DatasetError("reset_interval must be >= 1")
    chunks = []
    base = 0
    remaining = n_packets
    while remaining > 0:
        length = min(reset_interval, remaining)
        batches = sampler.collect_session(length)
        for batch in batches:
            batch.sequence += base
        chunks.append(batches)
        base += length
        remaining -= length
    n_users = len(chunks[0])
    merged = []
    for user in range(n_users):
        csi = np.concatenate([c[user].csi for c in chunks], axis=0)
        seq = np.concatenate([c[user].sequence for c in chunks], axis=0)
        merged.append(type(chunks[0][user])(csi=csi, sequence=seq))
    return merged
