"""Givens-rotation decomposition of the beamforming matrix (Algorithm 1).

The 802.11 standard feeds back the beamforming matrix ``V`` as a set of
``phi`` (column phases) and ``psi`` (rotation) angles.  This module
implements the paper's Algorithm 1 and its inverse, batched over leading
axes (samples, subcarriers):

- :func:`givens_decompose` — ``V -> (phi, psi)``;
- :func:`givens_reconstruct` — ``(phi, psi) -> V_tilde`` where
  ``V_tilde = V @ D_tilde†`` (the standard's beamforming-equivalent
  representative with a real, non-negative last row);
- :func:`angle_counts` — number of angles per subcarrier.

Inputs must have orthonormal columns (as SVD beamforming matrices do);
the decomposition is exact for such matrices and the round trip
``reconstruct(decompose(V))`` equals ``fix_phase_gauge(V)`` to machine
precision.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import ShapeError
from repro.obs.metrics import profiled

__all__ = ["GivensAngles", "givens_decompose", "givens_reconstruct", "angle_counts"]


def angle_counts(n_tx: int, n_streams: int) -> tuple[int, int]:
    """Number of (phi, psi) angles per subcarrier for ``Nt x Nss``.

    ``n_phi = n_psi = sum_{t=1..min(Nss, Nt-1)} (Nt - t)`` — e.g. (1, 1)
    for 2x1, (2, 2) for 3x1, (6, 6) for 4x4 (the standard's tables).
    """
    if n_tx < 1 or n_streams < 1:
        raise ShapeError("n_tx and n_streams must be >= 1")
    m = min(n_streams, n_tx - 1)
    count = sum(n_tx - t for t in range(1, m + 1))
    return count, count


@dataclass
class GivensAngles:
    """Angles produced by :func:`givens_decompose`.

    ``phi`` and ``psi`` have shape ``(..., n_phi)`` / ``(..., n_psi)``
    where the leading axes match the input batch.  Angle ordering is the
    standard's: for each ``t`` ascending, first the ``phi_{l,t}`` for
    ``l = t..Nt-1``, then the ``psi_{l,t}`` for ``l = t+1..Nt``.
    """

    phi: np.ndarray
    psi: np.ndarray
    n_tx: int
    n_streams: int

    @property
    def per_subcarrier(self) -> int:
        """Total angles per subcarrier (phi + psi)."""
        return self.phi.shape[-1] + self.psi.shape[-1]


def _decompose_single_stream(column: np.ndarray) -> GivensAngles:
    """Closed-form Algorithm 1 for one-column (Nss = 1) inputs.

    With a single stream every Givens round rotates the same column, so
    the psi recurrence telescopes: after the D_1† de-rotation the
    column is (almost-surely) non-negative real and each rotation's
    running "top" equals the cumulative norm of the entries processed
    so far.  One cumulative sum replaces the per-row rotation loop;
    results match the loop to machine precision (the loop's
    ``cos*top + sin*low`` accumulator and ``hypot`` agree exactly in
    real arithmetic).
    """
    n_tx = column.shape[-1]
    phase = np.exp(-1j * np.angle(column[..., -1:]))
    rotated = column * phase
    phi = np.angle(rotated[..., :-1])
    magnitudes = np.abs(rotated)
    radii = np.sqrt(np.cumsum(magnitudes**2, axis=-1))
    tops = np.concatenate(
        [magnitudes[..., :1], radii[..., 1:-1]], axis=-1
    )
    ratios = tops / np.maximum(radii[..., 1:], 1e-300)
    psi = np.arccos(np.clip(ratios, -1.0, 1.0))
    return GivensAngles(phi=phi, psi=psi, n_tx=n_tx, n_streams=1)


def _reconstruct_single_stream(
    phi: np.ndarray, psi: np.ndarray, n_tx: int
) -> np.ndarray:
    """Closed-form Eq. (5) for one-column (Nss = 1) angle sets.

    ``v_0 = e^{i phi_0} prod_k cos(psi_k)``; row ``k >= 1`` is
    ``e^{i phi_k} sin(psi_k) prod_{j > k} cos(psi_j)`` (no phase on the
    last row) — one reversed cumulative product instead of the rotation
    loop.
    """
    if phi.shape[-1] != n_tx - 1 or psi.shape[-1] != n_tx - 1:
        raise ShapeError("angle arrays inconsistent with (n_tx, n_streams)")
    batch_shape = phi.shape[:-1]
    cos = np.cos(psi)
    sin = np.sin(psi)
    # suffix[k] = prod_{j >= k} cos(psi_j), built in the rotation
    # loop's (descending) multiplication order.
    suffix = np.cumprod(cos[..., ::-1], axis=-1)[..., ::-1]
    result = np.empty(batch_shape + (n_tx, 1), dtype=np.complex128)
    result[..., 0, 0] = suffix[..., 0]
    result[..., 1 : n_tx - 1, 0] = sin[..., :-1] * suffix[..., 1:]
    result[..., n_tx - 1, 0] = sin[..., -1]
    result[..., : n_tx - 1, 0] *= np.exp(1j * phi)
    return result


@profiled("givens.decompose")
def givens_decompose(bf: np.ndarray) -> GivensAngles:
    """Decompose beamforming matrices ``(..., Nt, Nss)`` into GR angles.

    Implements Algorithm 1 of the paper, batched over leading axes.
    The ubiquitous single-stream case (per-user beamforming vectors)
    takes a closed-form path that replaces the per-round rotation loop
    with one cumulative sum over the column.
    """
    omega = np.asarray(bf, dtype=np.complex128)
    if omega.ndim < 2:
        raise ShapeError("expected (..., Nt, Nss) beamforming matrices")
    n_tx, n_streams = omega.shape[-2:]
    if n_tx < n_streams:
        raise ShapeError(f"Nt={n_tx} must be >= Nss={n_streams}")
    if n_streams == 1 and n_tx > 1:
        return _decompose_single_stream(omega[..., 0])
    omega = omega.copy()
    batch_shape = omega.shape[:-2]

    # Step 1: remove last-row phases (the D_tilde† multiply).
    last_phase = np.exp(-1j * np.angle(omega[..., -1:, :]))
    omega *= last_phase

    m = min(n_streams, n_tx - 1)
    phis: list[np.ndarray] = []
    psis: list[np.ndarray] = []
    for t in range(1, m + 1):
        # phi_{l,t} = angle(omega[l, t]) for l = t..Nt-1 (1-indexed).
        column = omega[..., t - 1 : n_tx - 1, t - 1]
        phi_t = np.angle(column)
        phis.append(phi_t)
        # Apply D_t†: de-rotate rows t..Nt-1 in place (one multiply over
        # all tones, no full-size rotation matrix).
        omega[..., t - 1 : n_tx - 1, :] *= np.exp(-1j * phi_t)[..., None]
        for ell in range(t + 1, n_tx + 1):
            top = omega[..., t - 1, t - 1].real
            low = omega[..., ell - 1, t - 1].real
            radius = np.hypot(top, low)
            safe = np.maximum(radius, 1e-300)
            cos_psi = np.clip(top / safe, -1.0, 1.0)
            psi_lt = np.arccos(cos_psi)
            psis.append(psi_lt)
            # Apply G_{l,t} to rows (t, l): a 2x2 real rotation, both new
            # rows computed before either is overwritten (no copies).
            sin_psi = np.sin(psi_lt)
            row_t = omega[..., t - 1, :]
            row_l = omega[..., ell - 1, :]
            new_t = cos_psi[..., None] * row_t + sin_psi[..., None] * row_l
            new_l = -sin_psi[..., None] * row_t + cos_psi[..., None] * row_l
            omega[..., t - 1, :] = new_t
            omega[..., ell - 1, :] = new_l

    n_phi, n_psi = angle_counts(n_tx, n_streams)
    phi = (
        np.concatenate([p.reshape(batch_shape + (-1,)) for p in phis], axis=-1)
        if phis
        else np.zeros(batch_shape + (0,))
    )
    psi = (
        np.stack(psis, axis=-1).reshape(batch_shape + (-1,))
        if psis
        else np.zeros(batch_shape + (0,))
    )
    if phi.shape[-1] != n_phi or psi.shape[-1] != n_psi:
        raise ShapeError(
            f"internal angle-count mismatch: got ({phi.shape[-1]}, "
            f"{psi.shape[-1]}), expected ({n_phi}, {n_psi})"
        )
    return GivensAngles(phi=phi, psi=psi, n_tx=n_tx, n_streams=n_streams)


@profiled("givens.reconstruct")
def givens_reconstruct(angles: GivensAngles) -> np.ndarray:
    """Rebuild ``V_tilde`` from GR angles (Eq. (5)).

    ``V_tilde = prod_t ( D_t * prod_l G_{l,t}^T ) * I_{Nt x Nss}``.
    Returns shape ``(..., Nt, Nss)``.
    """
    n_tx, n_streams = angles.n_tx, angles.n_streams
    phi, psi = np.asarray(angles.phi), np.asarray(angles.psi)
    if n_streams == 1 and n_tx > 1:
        return _reconstruct_single_stream(phi, psi, n_tx)
    batch_shape = phi.shape[:-1]
    m = min(n_streams, n_tx - 1)

    result = np.zeros(batch_shape + (n_tx, n_streams), dtype=np.complex128)
    identity = np.eye(n_tx, n_streams, dtype=np.complex128)
    result[...] = identity

    # Build the product right-to-left: result = D_1 G^T... applied from
    # the innermost (t = m) factor outwards.
    phi_index = phi.shape[-1]
    psi_index = psi.shape[-1]
    for t in range(m, 0, -1):
        # G^T factors for l = Nt down to t+1 (right-most first).
        n_psi_t = n_tx - t
        psi_block = psi[..., psi_index - n_psi_t : psi_index]
        psi_index -= n_psi_t
        for offset, ell in enumerate(range(n_tx, t, -1)):
            psi_lt = psi_block[..., ell - t - 1]
            cos_psi = np.cos(psi_lt)[..., None]
            sin_psi = np.sin(psi_lt)[..., None]
            row_t = result[..., t - 1, :].copy()
            row_l = result[..., ell - 1, :].copy()
            # G^T has [cos, -sin; sin, cos] in the (t, l) plane.
            result[..., t - 1, :] = cos_psi * row_t - sin_psi * row_l
            result[..., ell - 1, :] = sin_psi * row_t + cos_psi * row_l
        # D_t factor.
        n_phi_t = n_tx - t
        phi_block = phi[..., phi_index - n_phi_t : phi_index]
        phi_index -= n_phi_t
        rotation = np.ones(batch_shape + (n_tx, 1), dtype=np.complex128)
        rotation[..., t - 1 : n_tx - 1, 0] = np.exp(1j * phi_block)
        result = result * rotation
    if phi_index != 0 or psi_index != 0:
        raise ShapeError("angle arrays inconsistent with (n_tx, n_streams)")
    return result
