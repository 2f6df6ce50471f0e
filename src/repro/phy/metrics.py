"""Link-quality metrics beyond raw BER.

The paper motivates SplitBeam with inter-user interference (IUI): "an
inaccuracy in the beamforming will lead to inter-user interference in
MU-MIMO, which reduces the SINR significantly" (Sec. II).  These metrics
quantify exactly that chain — per-user SINR, the IUI leakage ratio, the
Shannon sum rate, and symbol-level EVM — from the same effective-gain
tensor the BER simulator computes, so benches can report *why* a feedback
scheme's BER moved, not just that it did.

Conventions: the gain tensor ``G`` has shape ``(S, n_users, n_users)``
with ``G[s, i, j] = u_i(s)† H_i(s) w_j(s)`` (receive-combined response of
user ``i`` to the stream intended for user ``j``), matching
``repro.phy.link``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import ShapeError

__all__ = [
    "LinkMetrics",
    "sinr_per_user",
    "leakage_ratio",
    "sum_rate_bps_per_hz",
    "evm_rms",
    "compute_link_metrics",
    "batch_link_metrics",
    "batch_mean_sinr_db",
]


def _check_gains(gains: np.ndarray) -> np.ndarray:
    gains = np.asarray(gains, dtype=np.complex128)
    if gains.ndim != 3 or gains.shape[1] != gains.shape[2]:
        raise ShapeError(
            f"gains must be (S, n_users, n_users), got {gains.shape}"
        )
    return gains


def sinr_per_user(gains: np.ndarray, noise_power: float) -> np.ndarray:
    """Linear post-combining SINR per (subcarrier, user).

    ``SINR[s, i] = |G[s,i,i]|^2 / (sum_{j != i} |G[s,i,j]|^2 + N0)``.
    """
    gains = _check_gains(gains)
    if noise_power < 0:
        raise ShapeError("noise_power must be non-negative")
    power = np.abs(gains) ** 2  # (S, i, j)
    signal = np.diagonal(power, axis1=1, axis2=2)  # (S, users)
    interference = power.sum(axis=2) - signal
    return signal / np.maximum(interference + noise_power, 1e-30)


def leakage_ratio(gains: np.ndarray) -> float:
    """Total IUI power over total desired-signal power (0 = perfect ZF).

    The noise-free analogue of SINR degradation: how much transmit energy
    aimed at other users lands in each receiver because the AP's
    beamforming matrix was reconstructed imperfectly.
    """
    gains = _check_gains(gains)
    power = np.abs(gains) ** 2
    signal = np.diagonal(power, axis1=1, axis2=2).sum()
    interference = power.sum() - signal
    if signal <= 0:
        return float("inf")
    return float(interference / signal)


def sum_rate_bps_per_hz(gains: np.ndarray, noise_power: float) -> float:
    """Shannon sum rate ``mean_s sum_i log2(1 + SINR[s, i])``.

    Averaged over subcarriers, summed over users — the spectral
    efficiency the MU-MIMO transmission achieves with this beamforming
    feedback at this noise level.
    """
    sinr = sinr_per_user(gains, noise_power)
    return float(np.mean(np.sum(np.log2(1.0 + sinr), axis=1)))


def evm_rms(tx_symbols: np.ndarray, rx_symbols: np.ndarray) -> float:
    """Root-mean-square error vector magnitude (as a fraction, not %).

    ``sqrt(mean |rx - tx|^2 / mean |tx|^2)`` over all symbols — the
    constellation-level distortion left after equalization.
    """
    tx = np.asarray(tx_symbols, dtype=np.complex128)
    rx = np.asarray(rx_symbols, dtype=np.complex128)
    if tx.shape != rx.shape:
        raise ShapeError(f"symbol shape mismatch: {tx.shape} vs {rx.shape}")
    reference = np.mean(np.abs(tx) ** 2)
    if reference <= 0:
        return float("inf")
    return float(np.sqrt(np.mean(np.abs(rx - tx) ** 2) / reference))


@dataclass(frozen=True)
class LinkMetrics:
    """Aggregated link-quality summary for one (channels, BF) evaluation."""

    mean_sinr_db: float
    min_sinr_db: float
    leakage: float
    sum_rate_bps_per_hz: float

    def as_row(self) -> list[float]:
        return [
            self.mean_sinr_db,
            self.min_sinr_db,
            self.leakage,
            self.sum_rate_bps_per_hz,
        ]


def compute_link_metrics(gains: np.ndarray, noise_power: float) -> LinkMetrics:
    """Bundle the SINR/leakage/sum-rate metrics for one gain tensor."""
    sinr = sinr_per_user(gains, noise_power)
    sinr_db = 10.0 * np.log10(np.maximum(sinr, 1e-30))
    return LinkMetrics(
        mean_sinr_db=float(np.mean(sinr_db)),
        min_sinr_db=float(np.min(sinr_db)),
        leakage=leakage_ratio(gains),
        sum_rate_bps_per_hz=sum_rate_bps_per_hz(gains, noise_power),
    )


def _batch_sinr(gains: np.ndarray, noise_power: np.ndarray):
    """The elementwise SINR step of :func:`sinr_per_user`, over a batch.

    Validates ``gains`` ``(n, S, n_users, n_users)`` against
    ``noise_power`` ``(n,)`` and returns ``(power, signal, sinr,
    sinr_db)``: the per-entry gain powers, their diagonals, and the
    linear and dB SINR per (sample, subcarrier, user).  Only the sums
    over each row's users run here, so every value equals the
    per-sample computation bit for bit.
    """
    gains = np.asarray(gains, dtype=np.complex128)
    noise_power = np.asarray(noise_power, dtype=np.float64)
    if gains.ndim != 4 or gains.shape[2] != gains.shape[3]:
        raise ShapeError(
            f"gains must be (n, S, n_users, n_users), got {gains.shape}"
        )
    if noise_power.shape != gains.shape[:1]:
        raise ShapeError(
            f"noise_power shape {noise_power.shape} does not match "
            f"{gains.shape[0]} samples"
        )
    if gains.shape[0] == 0:
        raise ShapeError("a link metric needs at least one sample")
    if np.any(noise_power < 0):
        raise ShapeError("noise_power must be non-negative")
    power = np.abs(gains) ** 2  # (n, S, i, j)
    signal = np.diagonal(power, axis1=2, axis2=3)  # (n, S, users)
    interference = power.sum(axis=3) - signal
    sinr = signal / np.maximum(
        interference + noise_power[:, None, None], 1e-30
    )
    return power, signal, sinr, 10.0 * np.log10(np.maximum(sinr, 1e-30))


def _per_sample_mean(values: np.ndarray) -> np.ndarray:
    """The mean of each sample's slice of ``values``, one slice at a time.

    The link simulator's gain tensors are not C-ordered, and a sample's
    slice is summed in memory order; a batched ``reshape(n, -1)``
    reduction would copy to C order, sum in a different order and move
    the last bit.
    """
    means = np.empty(values.shape[0])
    for j in range(values.shape[0]):
        means[j] = np.mean(values[j])
    return means


def batch_link_metrics(
    gains: np.ndarray, noise_power: np.ndarray
) -> LinkMetrics:
    """:func:`compute_link_metrics` averaged over a batch of samples.

    ``gains`` is ``(n, S, n_users, n_users)`` and ``noise_power``
    ``(n,)``.  Mean SINR, leakage and sum rate are means of the
    per-sample values; min-SINR is the batch minimum.  The result
    equals averaging :func:`compute_link_metrics` over the samples,
    bit for bit.

    The elementwise work (powers, SINR, logs) and the sums over each
    row's users run once over the whole batch, but every reduction over
    a whole sample (means, minimum, totals) runs on that sample's own
    slice (see :func:`_per_sample_mean`).
    """
    power, signal, sinr, sinr_db = _batch_sinr(gains, noise_power)
    rates = np.log2(1.0 + sinr)
    per_sample = np.empty((4, power.shape[0]))
    per_sample[0] = _per_sample_mean(sinr_db)
    for j in range(power.shape[0]):
        signal_total = signal[j].sum()
        per_sample[1, j] = np.min(sinr_db[j])
        per_sample[2, j] = (
            np.inf
            if signal_total <= 0
            else (power[j].sum() - signal_total) / signal_total
        )
        per_sample[3, j] = np.mean(np.sum(rates[j], axis=1))
    return LinkMetrics(
        mean_sinr_db=float(np.mean(per_sample[0])),
        min_sinr_db=float(np.min(per_sample[1])),
        leakage=float(np.mean(per_sample[2])),
        sum_rate_bps_per_hz=float(np.mean(per_sample[3])),
    )


def batch_mean_sinr_db(gains: np.ndarray, noise_power: np.ndarray) -> float:
    """``batch_link_metrics(gains, noise_power).mean_sinr_db``, alone.

    The one metric a campaign or session round reports, without the
    minimum, leakage and sum-rate reductions it would discard; same
    steps, same bits.
    """
    *_, sinr_db = _batch_sinr(gains, noise_power)
    return float(np.mean(_per_sample_mean(sinr_db)))
