"""SVD beamforming: extracting the beamforming matrix V from CSI.

Implements step (2) of the 802.11 sounding procedure (Sec. III-A2):
``H = U S Z†`` with the beamforming matrix ``V`` given by the first
``Nss`` columns of ``Z``.  Also provides the effective-channel assembly
``H_EQ = [V_1 ... V_Ns]`` used by the BER procedure (Sec. 5.2.2), a
batched LAPACK variant, and :func:`dominant_right_singular_pair`, the
batched closed-form solver that the training targets and the batched
link simulator use (within a few eps of LAPACK, in the same gauge).
"""

from __future__ import annotations

import numpy as np

from repro.errors import ShapeError
from repro.utils.complexmat import fix_phase_gauge

__all__ = [
    "beamforming_matrix",
    "beamforming_matrices",
    "effective_channel",
    "dominant_left_singular_vectors",
    "dominant_right_singular_pair",
    "dominant_singular_pair",
    "jacobi_hermitian_eig",
]


def beamforming_matrix(
    channel: np.ndarray, n_streams: int = 1, gauge_fix: bool = True
) -> np.ndarray:
    """Beamforming matrix for one channel matrix ``(Nr, Nt)``.

    Returns ``V`` of shape ``(Nt, n_streams)`` — the right singular
    vectors of the ``n_streams`` largest singular values.  With
    ``gauge_fix`` (default) each column is rotated so its last entry is
    real non-negative, the standard's representative (see
    ``repro.utils.complexmat.fix_phase_gauge``).
    """
    channel = np.asarray(channel, dtype=np.complex128)
    if channel.ndim != 2:
        raise ShapeError(f"channel must be (Nr, Nt), got shape {channel.shape}")
    n_rx, n_tx = channel.shape
    if not 1 <= n_streams <= min(n_rx, n_tx):
        raise ShapeError(
            f"n_streams={n_streams} invalid for a {n_rx}x{n_tx} channel"
        )
    _, _, vh = np.linalg.svd(channel, full_matrices=True)
    bf = vh.conj().T[:, :n_streams]
    if gauge_fix:
        bf = fix_phase_gauge(bf)
    return bf


def beamforming_matrices(
    channels: np.ndarray, n_streams: int = 1, gauge_fix: bool = True
) -> np.ndarray:
    """Batched :func:`beamforming_matrix` over shape ``(..., Nr, Nt)``.

    Returns shape ``(..., Nt, n_streams)``.  NumPy's batched SVD handles
    the leading axes (samples, subcarriers) in one call.
    """
    channels = np.asarray(channels, dtype=np.complex128)
    if channels.ndim < 2:
        raise ShapeError("channels must have at least 2 dims (..., Nr, Nt)")
    n_rx, n_tx = channels.shape[-2:]
    if not 1 <= n_streams <= min(n_rx, n_tx):
        raise ShapeError(
            f"n_streams={n_streams} invalid for a {n_rx}x{n_tx} channel"
        )
    _, _, vh = np.linalg.svd(channels, full_matrices=True)
    bf = np.swapaxes(vh, -1, -2).conj()[..., :n_streams]
    if gauge_fix:
        bf = fix_phase_gauge(bf)
    return bf


def dominant_left_singular_vectors(channels: np.ndarray) -> np.ndarray:
    """Dominant left singular vector ``u1`` for each ``(..., Nr, Nt)``.

    The STA combines its ``Nr`` received samples with ``u1†`` so the
    effective per-user channel becomes ``sigma_1 v1†`` (Sec. 5.2.2
    receive processing).  Returns shape ``(..., Nr)``.

    The phase gauge is pinned to the standard's beamforming gauge:
    ``u1 = H v1 / sigma_1`` with ``v1`` phase-fixed so its last entry is
    real non-negative.  A singular pair is only defined up to a joint
    phase, and leaving it at LAPACK's arbitrary convention would make
    combiners depend on the SVD implementation; the canonical gauge
    keeps every solver (LAPACK or the closed-form kernels in
    :func:`dominant_singular_pair`) interchangeable to machine
    precision.
    """
    channels = np.asarray(channels, dtype=np.complex128)
    u, _, vh = np.linalg.svd(channels, full_matrices=False)
    v1 = fix_phase_gauge(np.swapaxes(vh, -1, -2).conj()[..., :, :1])[..., 0]
    combined = np.einsum("...rt,...t->...r", channels, v1)
    norms = np.linalg.norm(combined, axis=-1, keepdims=True)
    # Degenerate (zero) channels keep LAPACK's unit vector.
    return np.where(
        norms > 1e-300, combined / np.maximum(norms, 1e-300), u[..., :, 0]
    )


def jacobi_hermitian_eig(
    gram: np.ndarray, max_sweeps: int = 16, tol: float = 1e-14
) -> tuple[np.ndarray, np.ndarray, bool]:
    """Batched cyclic Jacobi diagonalization of Hermitian matrices.

    LAPACK's ``eigh``/``svd`` pay one Fortran dispatch per matrix, which
    dominates when the batch is tens of thousands of 2x2-4x4 Gram
    matrices (the link simulator's case).  Cyclic Jacobi vectorizes over
    the whole batch: each (p, q) rotation is a handful of elementwise
    array operations, and convergence is quadratic.

    Returns ``(eigenvalues, eigenvectors, converged)`` with eigenvalues
    ``(..., n)`` (unordered), eigenvectors in the matching columns of
    ``(..., n, n)``, and ``converged`` False if some matrix still had an
    off-diagonal above ``tol`` times its diagonal scale after
    ``max_sweeps`` sweeps (callers should fall back to LAPACK then).
    """
    gram = np.asarray(gram, dtype=np.complex128)
    if gram.ndim < 2 or gram.shape[-1] != gram.shape[-2]:
        raise ShapeError(f"expected Hermitian (..., n, n), got {gram.shape}")
    batch_shape = gram.shape[:-2]
    n = gram.shape[-1]
    a = gram.reshape((-1,) + gram.shape[-2:]).copy()
    v = np.zeros_like(a)
    v[...] = np.eye(n, dtype=np.complex128)
    if n == 1:
        return (
            a[..., 0, 0].real.reshape(batch_shape + (1,)),
            v.reshape(batch_shape + (n, n)),
            True,
        )
    pairs = [(p, q) for p in range(n - 1) for q in range(p + 1, n)]
    scale = np.maximum(
        np.abs(np.diagonal(a, axis1=-2, axis2=-1)).max(axis=-1), 1e-300
    )
    def _off_diagonal() -> np.ndarray:
        return np.max(
            np.stack([np.abs(a[:, p, q]) for p, q in pairs]), axis=0
        )

    converged = False
    for _ in range(max_sweeps):
        if np.all(_off_diagonal() <= tol * scale):
            converged = True
            break
        for p, q in pairs:
            apq = a[:, p, q]
            abs_apq = np.abs(apq)
            safe_abs = np.where(abs_apq > 0, abs_apq, 1.0)
            phase = np.where(abs_apq > 0, apq / safe_abs, 1.0 + 0.0j)
            tau = (a[:, q, q].real - a[:, p, p].real) / (2.0 * safe_abs)
            sign = np.where(tau >= 0, 1.0, -1.0)
            t = sign / (np.abs(tau) + np.sqrt(1.0 + tau * tau))
            t = np.where(abs_apq > 0, t, 0.0)
            c = 1.0 / np.sqrt(1.0 + t * t)
            s = t * c
            w = s * np.conj(phase)
            # Column update: A <- A Q.
            col_p = a[:, :, p].copy()
            col_q = a[:, :, q]
            a[:, :, p] = c[:, None] * col_p - w[:, None] * col_q
            a[:, :, q] = s[:, None] * col_p + (c * np.conj(phase))[
                :, None
            ] * col_q
            # Row update: A <- Q† A.
            row_p = a[:, p, :].copy()
            row_q = a[:, q, :]
            a[:, p, :] = c[:, None] * row_p - np.conj(w)[:, None] * row_q
            a[:, q, :] = s[:, None] * row_p + (c * phase)[:, None] * row_q
            # Eigenvector accumulation: V <- V Q.
            vcol_p = v[:, :, p].copy()
            vcol_q = v[:, :, q]
            v[:, :, p] = c[:, None] * vcol_p - w[:, None] * vcol_q
            v[:, :, q] = s[:, None] * vcol_p + (c * np.conj(phase))[
                :, None
            ] * vcol_q
    if not converged:
        # The loop checks only at sweep start; convergence during the
        # final sweep still counts.
        converged = bool(np.all(_off_diagonal() <= tol * scale))
    eigenvalues = np.diagonal(a, axis1=-2, axis2=-1).real
    return (
        eigenvalues.reshape(batch_shape + (n,)),
        v.reshape(batch_shape + (n, n)),
        converged,
    )


def _top_eigenvector_2x2(
    gram: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Closed-form dominant eigenpair of Hermitian 2x2 batches.

    Returns ``(vectors, eigenvalues, ok)`` with unit vectors ``(..., 2)``
    and a mask of samples where the closed form is well conditioned
    (``~ok`` means the matrix is a near-multiple of the identity — any
    unit vector is dominant, and the caller falls back to LAPACK).
    """
    a = gram[..., 0, 0].real
    c = gram[..., 1, 1].real
    b = gram[..., 0, 1]
    half_gap = 0.5 * (a - c)
    radius = np.sqrt(half_gap**2 + np.abs(b) ** 2)
    lam1 = 0.5 * (a + c) + radius
    # Two algebraically equivalent eigenvector forms; pick per sample
    # whichever avoids catastrophic cancellation.
    cand_a = np.stack([b, lam1 - a], axis=-1)
    cand_b = np.stack([lam1 - c, np.conj(b)], axis=-1)
    norm_a = np.linalg.norm(cand_a, axis=-1)
    norm_b = np.linalg.norm(cand_b, axis=-1)
    vectors = np.where((norm_a >= norm_b)[..., None], cand_a, cand_b)
    norms = np.maximum(norm_a, norm_b)
    scale = np.maximum(np.abs(a) + np.abs(c), 1e-300)
    ok = norms > 1e-7 * scale
    vectors = vectors / np.maximum(norms, 1e-300)[..., None]
    return vectors, lam1, ok


def _top_eigenvector_3x3(
    gram: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Closed-form dominant eigenpair of Hermitian 3x3 batches.

    Eigenvalues come from the trigonometric (Cardano) solution of the
    characteristic cubic; the dominant eigenvector is read off the
    adjugate of ``A - lam1 I`` (one row-pair cross product).  ``ok`` is
    False where the adjugate norm shows the result is ill-conditioned
    (near-degenerate top eigenvalue, or a dominant eigenvector nearly
    orthogonal to the third axis) — callers fall back to LAPACK there.
    """
    a00 = gram[..., 0, 0].real
    a11 = gram[..., 1, 1].real
    a22 = gram[..., 2, 2].real
    a01 = gram[..., 0, 1]
    a02 = gram[..., 0, 2]
    a12 = gram[..., 1, 2]
    q = (a00 + a11 + a22) / 3.0
    m01 = np.abs(a01) ** 2
    m02 = np.abs(a02) ** 2
    m12 = np.abs(a12) ** 2
    p1 = m01 + m02 + m12
    d00 = a00 - q
    d11 = a11 - q
    d22 = a22 - q
    p2 = d00**2 + d11**2 + d22**2 + 2.0 * p1
    p = np.sqrt(np.maximum(p2, 0.0) / 6.0)
    safe_p = np.maximum(p, 1e-300)
    # det((A - qI)/p), expanded for Hermitian entries.
    det_b = (
        d00 * (d11 * d22 - m12)
        - (a01 * (np.conj(a01) * d22 - a12 * np.conj(a02))).real
        + (a02 * (np.conj(a01) * np.conj(a12) - d11 * np.conj(a02))).real
    ) / safe_p**3
    angle = np.arccos(np.clip(det_b / 2.0, -1.0, 1.0)) / 3.0
    lam1 = q + 2.0 * p * np.cos(angle)
    lam3 = q + 2.0 * p * np.cos(angle + 2.0 * np.pi / 3.0)
    # Eigenvector from the adjugate of M = A - lam1 I: the cross product
    # of M's first two rows solves r0·x = r1·x = 0, i.e. it is the third
    # adjugate column (lam2 - lam1)(lam3 - lam1) v1 conj(v1[2]) — one
    # row pair suffices.  The scale vanishes when lam1 is
    # (near-)degenerate or v1's last component is tiny; both land in
    # ``~ok`` and take the caller's LAPACK fallback (a measure-zero set
    # for generic channels).
    m00 = a00 - lam1
    m11 = a11 - lam1
    c0 = a01 * a12 - a02 * m11
    c1 = a02 * np.conj(a01) - m00 * a12
    c2 = m00 * m11 - m01
    vectors = np.stack([c0, c1, c2 + 0j], axis=-1)
    norm_sq = np.abs(c0) ** 2 + np.abs(c1) ** 2 + c2 * c2
    norm = np.sqrt(norm_sq)
    scale = np.maximum(np.abs(lam1), np.abs(lam3))
    ok = norm > 1e-5 * np.maximum(scale, 1e-300) ** 2
    vectors = vectors / np.maximum(norm, 1e-300)[..., None]
    return vectors, lam1, ok


def _dominant_eigenvector(
    gram: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Dominant unit eigenpair per Hermitian matrix ``(..., n, n)``.

    Dispatches to the closed forms for n <= 3 and batched Jacobi above;
    returns ``(vectors, eigenvalues, ok)`` where ``~ok`` marks samples
    needing the LAPACK fallback.
    """
    n = gram.shape[-1]
    if n == 1:
        vectors = np.ones(gram.shape[:-2] + (1,), dtype=np.complex128)
        lam = gram[..., 0, 0].real
        return vectors, lam, np.ones(gram.shape[:-2], dtype=bool)
    if n == 2:
        return _top_eigenvector_2x2(gram)
    if n == 3:
        return _top_eigenvector_3x3(gram)
    eigenvalues, eigenvectors, converged = jacobi_hermitian_eig(gram)
    top = np.argmax(eigenvalues, axis=-1)
    vectors = np.take_along_axis(
        eigenvectors, top[..., None, None], axis=-1
    )[..., 0]
    lam = np.take_along_axis(eigenvalues, top[..., None], axis=-1)[..., 0]
    ok = np.full(gram.shape[:-2], converged)
    return vectors, lam, ok


def dominant_right_singular_pair(
    channels: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Dominant right singular vector and value per ``(..., Nr, Nt)``.

    Returns ``(v1, sigma1)`` with ``v1`` in the canonical gauge (last
    entry real non-negative, matching :func:`beamforming_matrices` to
    machine precision, not bit for bit) and ``sigma1 >= 0``.  A
    single-row channel (``Nr == 1``, every catalog dataset) takes the
    rank-one closed form, the conjugated row over its norm; otherwise
    one batched closed-form eigensolve of the smaller-side Gram matrix
    replaces a LAPACK SVD pass.  Callers that also need the combiner can
    form ``u1 = H v1 / sigma1`` themselves (or note that
    ``u1† H = sigma1 v1†`` makes ``u1`` unnecessary, as in the link
    simulator).

    Samples the closed form flags as ill-conditioned (near-degenerate
    top eigenvalue) are recomputed with ``np.linalg.svd``; for generic
    channels that subset is empty.
    """
    channels = np.asarray(channels, dtype=np.complex128)
    if channels.ndim < 2:
        raise ShapeError("channels must have at least 2 dims (..., Nr, Nt)")
    n_rx, n_tx = channels.shape[-2:]
    if n_rx == 1:
        # Rank-one channel: the singular pair is the row itself.
        # v1 = conj(row)/sigma gauged by exp(-i angle(v1[-1])) folds into
        # one complex scale: conj(row) * row[-1] / (|row[-1]| sigma).
        # A zero last entry means the gauge phase is 1 (angle(0) = 0),
        # not a zero scale.
        row = channels[..., 0, :]
        sigma = np.linalg.norm(row, axis=-1)
        last = row[..., -1:]
        last_abs = np.abs(last)
        phase = np.where(last_abs > 0, last / np.maximum(last_abs, 1e-300), 1.0)
        scale = phase / np.maximum(sigma[..., None], 1e-300)
        return np.conj(row) * scale, sigma
    small_side_rx = n_rx < n_tx
    if small_side_rx:
        gram = np.einsum("...rt,...st->...rs", channels, channels.conj())
    else:
        gram = np.einsum("...rt,...rs->...ts", channels.conj(), channels)
    lead, lam, ok = _dominant_eigenvector(gram)
    sigma = np.sqrt(np.maximum(lam, 0.0))
    if small_side_rx:
        v1 = np.einsum("...rt,...r->...t", channels.conj(), lead)
        norms = np.linalg.norm(v1, axis=-1, keepdims=True)
        v1 = v1 / np.maximum(norms, 1e-300)
    else:
        v1 = lead
    if not np.all(ok):
        bad = ~ok
        _, s, vh = np.linalg.svd(channels[bad], full_matrices=False)
        v1 = v1.copy()
        sigma = sigma.copy()
        v1[bad] = np.swapaxes(vh, -1, -2).conj()[..., :, 0]
        sigma[bad] = s[..., 0]
    v1 = v1 * np.exp(-1j * np.angle(v1[..., -1:]))
    return v1, sigma


def dominant_singular_pair(
    channels: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Dominant singular pair ``(u1, v1)`` per channel ``(..., Nr, Nt)``.

    Built on :func:`dominant_right_singular_pair`; both vectors use the
    canonical gauge (``v1`` last entry real non-negative and
    ``u1 = H v1 / sigma_1``), so results agree with
    :func:`dominant_left_singular_vectors` /
    :func:`beamforming_matrices` to machine precision rather than up to
    an SVD-implementation-specific phase.
    """
    channels = np.asarray(channels, dtype=np.complex128)
    v1, _ = dominant_right_singular_pair(channels)
    u1 = np.einsum("...rt,...t->...r", channels, v1)
    norms = np.linalg.norm(u1, axis=-1, keepdims=True)
    degenerate = norms <= 1e-300
    u1 = u1 / np.maximum(norms, 1e-300)
    if np.any(degenerate):
        # Zero channels: any unit combiner works; pick the first basis
        # vector.
        filler = np.zeros_like(u1)
        filler[..., 0] = 1.0
        u1 = np.where(degenerate, filler, u1)
    return u1, v1


def effective_channel(bf_list: "list[np.ndarray] | np.ndarray") -> np.ndarray:
    """Stack per-user beamforming vectors into ``H_EQ = [V_1 ... V_Ns]``.

    Accepts a list of ``(Nt, Nss_i)`` matrices (or 1-D ``(Nt,)`` vectors)
    and returns the ``(Nt, sum Nss_i)`` effective channel used for
    zero-forcing (Sec. 5.2.2 step (3)).
    """
    columns = []
    for bf in bf_list:
        bf = np.asarray(bf, dtype=np.complex128)
        if bf.ndim == 1:
            bf = bf[:, None]
        if bf.ndim != 2:
            raise ShapeError(f"beamforming matrix must be 2-D, got {bf.shape}")
        columns.append(bf)
    n_tx = columns[0].shape[0]
    for bf in columns:
        if bf.shape[0] != n_tx:
            raise ShapeError("beamforming matrices disagree on Nt")
    return np.concatenate(columns, axis=1)
