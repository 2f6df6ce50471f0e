"""CSI preprocessing, mirroring the paper's pipeline (Sec. 5.2.1).

1. **Alignment** — different STAs drop different packets; samples are
   matched by packet sequence number so "each CSI element collected over
   different STAs represents the same time and frequency domain channel
   measurement".
2. **Amplitude normalization** — each sample is divided by its mean
   amplitude over all subcarriers, removing unwanted gain variation.
3. **Moving median** — a 10-point moving median along time smooths
   estimation noise (applied to real and imaginary parts).
"""

from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from repro.errors import DatasetError
from repro.channels.sampler import CsiBatch
from repro.obs.metrics import profiled

__all__ = [
    "align_users",
    "normalize_amplitude",
    "moving_median",
    "preprocess_csi",
]

#: Most values one sorted block of moving-median windows holds (2 MiB of
#: float64), whatever the stream's length and width.
_SORT_BLOCK_ELEMENTS = 1 << 18


def align_users(batches: "list[CsiBatch]") -> np.ndarray:
    """Keep only packets received by every user, matched by sequence.

    Returns ``(n_aligned, n_users, S, Nr, Nt)``.
    """
    if not batches:
        raise DatasetError("no user batches to align")
    common = batches[0].sequence
    for batch in batches[1:]:
        common = np.intersect1d(common, batch.sequence, assume_unique=True)
    if common.size == 0:
        raise DatasetError("users share no common packets after drops")
    aligned = []
    for batch in batches:
        # Positions of the common sequence numbers within this batch.
        positions = np.searchsorted(batch.sequence, common)
        if not np.array_equal(batch.sequence[positions], common):
            raise DatasetError("sequence numbers are not sorted/unique")
        aligned.append(batch.csi[positions])
    return np.stack(aligned, axis=1)


def normalize_amplitude(csi: np.ndarray) -> np.ndarray:
    """Divide each (sample, user) CSI matrix by its mean amplitude.

    ``csi`` has shape ``(n, n_users, S, Nr, Nt)`` (or ``(n, S, Nr,
    Nt)`` for a single user); the mean runs over all subcarriers and
    antenna pairs of that sample.
    """
    csi = np.asarray(csi, dtype=np.complex128)
    axes = tuple(range(csi.ndim - 3, csi.ndim))
    mean_amp = np.mean(np.abs(csi), axis=axes, keepdims=True)
    if np.any(mean_amp == 0):
        raise DatasetError("zero-amplitude CSI sample cannot be normalized")
    return csi / mean_amp


@profiled("datasets.median")
def moving_median(csi: np.ndarray, window: int = 10) -> np.ndarray:
    """``window``-point moving median along the time axis (axis 0).

    Real and imaginary parts are filtered separately; the window is
    trailing (causal) and truncated at the start of the stream, so the
    output has the same length as the input.

    Each part's full windows are sorted by one ``np.sort`` over a
    ``sliding_window_view`` along time, in blocks of at most
    ``_SORT_BLOCK_ELEMENTS`` values, and the truncated window of each of
    the first ``window - 1`` rows as one block of its own.  The median
    is ``np.mean`` of the middle one or two sorted entries, the
    averaging ``np.median`` applies, and a window whose last sorted
    entry is NaN gives NaN.  No ``np.median`` is called: its NaN check
    would import ``numpy.ma`` into every cold build.

    The result is exact: bit-identical to the per-step ``np.median``
    loop frozen as :func:`repro.perf.reference.reference_moving_median`.
    A sort and a partition pick the same middle values, and ``np.mean``
    sums from ``+0.0``, so neither the order of tied values nor the sign
    of a zero shows in the bits.  Caveat: where the input holds NaN, the
    NaNs land where the loop puts them, but their sign and payload are
    not pinned.
    """
    if window < 1:
        raise DatasetError("window must be >= 1")
    csi = np.asarray(csi, dtype=np.complex128)
    if window == 1 or csi.shape[0] == 1:
        return csi.copy()
    out = np.empty_like(csi)
    _moving_median_part(csi.real, window, out.real)
    _moving_median_part(csi.imag, window, out.imag)
    # The loop formed re + 1j * im: an infinite imaginary median made the
    # real part 0 * inf, NaN.
    out.real[np.isinf(out.imag)] = np.nan
    return out


def _moving_median_part(part: np.ndarray, window: int, out: np.ndarray) -> None:
    """Write the moving median of one real part into ``out``."""
    n = part.shape[0]
    for t in range(min(window - 1, n)):
        # The truncated window ending at row t: one window of t + 1 rows.
        out[t : t + 1] = _sorted_window_median(
            sliding_window_view(part[: t + 1], t + 1, axis=0)
        )
    if n < window:
        return
    windows = sliding_window_view(part, window, axis=0)
    full = out[window - 1 :]  # row i ends the window windows[i]
    rows = max(1, _SORT_BLOCK_ELEMENTS // (window * max(1, part[0].size)))
    for start in range(0, len(windows), rows):
        full[start : start + rows] = _sorted_window_median(
            windows[start : start + rows]
        )


def _sorted_window_median(windows: np.ndarray) -> np.ndarray:
    """Median over the last axis of ``windows`` through one sort.

    A function of its own so that each sorted block is freed before the
    next one is copied.
    """
    block = windows.copy()  # C order: each window contiguous for the sort
    block.sort(axis=-1)
    size = block.shape[-1]
    median = np.mean(block[..., (size - 1) // 2 : size // 2 + 1], axis=-1)
    last = block[..., -1]
    np.copyto(median, last, where=np.isnan(last))
    return median


def preprocess_csi(
    csi: np.ndarray, median_window: int = 10, normalize: bool = True
) -> np.ndarray:
    """Full pipeline: moving median then amplitude normalization."""
    csi = moving_median(csi, window=median_window)
    if normalize:
        csi = normalize_amplitude(csi)
    return csi
