"""Complex-matrix helpers used throughout the PHY and DNN pipelines.

The paper (Sec. IV-D) decouples real and imaginary components of the CSI
matrix ``H`` and the beamforming matrix ``V`` and treats them as
double-sized real vectors before feeding them to the DNN.  This module
centralizes that packing so that the exact layout is defined in one
place, together with the phase-gauge fix that makes the map ``H -> V``
learnable (``docs/conventions.md``, § Phase gauge).
"""

from __future__ import annotations

import numpy as np

from repro.errors import ShapeError

__all__ = [
    "complex_to_real",
    "real_to_complex",
    "fix_phase_gauge",
    "is_unitary_columns",
    "column_correlation",
    "batched_small_inverse",
    "hermitian_inverse_diagonal",
]


def complex_to_real(values: np.ndarray) -> np.ndarray:
    """Pack a complex array into a flat real vector per trailing sample.

    The layout is ``[real..., imag...]`` over the flattened trailing
    dimensions, with the leading axis (if 2-D or higher) treated as the
    batch axis.  A 1-D complex input of length ``n`` becomes a 1-D real
    output of length ``2 n``; an input of shape ``(b, ...)`` becomes
    ``(b, 2 * prod(...))``.
    """
    values = np.asarray(values)
    if values.ndim == 0:
        raise ShapeError("complex_to_real expects at least a 1-D array")
    if values.ndim == 1:
        return np.concatenate([values.real, values.imag]).astype(np.float64)
    batch = values.shape[0]
    flat = values.reshape(batch, -1)
    return np.concatenate([flat.real, flat.imag], axis=1).astype(np.float64)


def real_to_complex(values: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Invert :func:`complex_to_real` back into complex shape ``shape``.

    ``shape`` is the per-sample complex shape.  1-D inputs produce a
    single sample; 2-D inputs are treated as a batch.
    """
    values = np.asarray(values, dtype=np.float64)
    size = int(np.prod(shape))
    if values.ndim == 1:
        if values.shape[0] != 2 * size:
            raise ShapeError(
                f"expected {2 * size} packed reals for complex shape {shape}, "
                f"got {values.shape[0]}"
            )
        return (values[:size] + 1j * values[size:]).reshape(shape)
    if values.shape[1] != 2 * size:
        raise ShapeError(
            f"expected {2 * size} packed reals for complex shape {shape}, "
            f"got {values.shape[1]}"
        )
    real = values[:, :size]
    imag = values[:, size:]
    return (real + 1j * imag).reshape((values.shape[0],) + tuple(shape))


def fix_phase_gauge(bf: np.ndarray) -> np.ndarray:
    """Rotate each column of a beamforming matrix to the standard gauge.

    Right-singular vectors are unique only up to a per-column phase, so a
    supervised ``H -> V`` regression target must pick one representative.
    We use the representative the 802.11 standard itself uses
    (Algorithm 1): multiply each column by ``exp(-j * angle(last row))``
    so the last row becomes real and non-negative.  The standard proves
    this matrix is beamforming-equivalent to the original.

    ``bf`` may be ``(Nt, Nss)`` or batched ``(..., Nt, Nss)``.
    """
    bf = np.asarray(bf, dtype=np.complex128)
    if bf.ndim < 2:
        raise ShapeError("fix_phase_gauge expects a matrix (Nt, Nss)")
    last_row = bf[..., -1:, :]
    phase = np.exp(-1j * np.angle(last_row))
    return bf * phase


def is_unitary_columns(matrix: np.ndarray, tol: float = 1e-8) -> bool:
    """Return True when the columns of ``matrix`` are orthonormal."""
    matrix = np.asarray(matrix)
    if matrix.ndim != 2:
        raise ShapeError("is_unitary_columns expects a 2-D matrix")
    gram = matrix.conj().T @ matrix
    return bool(np.allclose(gram, np.eye(matrix.shape[1]), atol=tol))


def batched_small_inverse(matrices: np.ndarray) -> np.ndarray:
    """Invert a batch of small square matrices without LAPACK round trips.

    ``np.linalg.inv`` dispatches one LAPACK LU factorization per matrix,
    which dominates hot paths that invert tens of thousands of 2x2/3x3
    Gram matrices (the ZF precoder).  Orders 1-3 use the closed-form
    adjugate/determinant inverse as pure elementwise array math; larger
    orders fall back to ``np.linalg.inv``.  Any matrix whose closed-form
    inverse comes out non-finite (numerically singular) is repaired with
    ``np.linalg.pinv``, matching the LAPACK path's behaviour of falling
    back to the pseudo-inverse.
    """
    matrices = np.asarray(matrices)
    if matrices.ndim < 2 or matrices.shape[-1] != matrices.shape[-2]:
        raise ShapeError(
            f"expected square matrices (..., n, n), got {matrices.shape}"
        )
    n = matrices.shape[-1]
    if n > 3:
        try:
            return np.linalg.inv(matrices)
        except np.linalg.LinAlgError:
            return np.linalg.pinv(matrices)
    a = matrices
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        if n == 1:
            inverse = 1.0 / a
        elif n == 2:
            det = a[..., 0, 0] * a[..., 1, 1] - a[..., 0, 1] * a[..., 1, 0]
            inverse = np.empty_like(a)
            inverse[..., 0, 0] = a[..., 1, 1]
            inverse[..., 0, 1] = -a[..., 0, 1]
            inverse[..., 1, 0] = -a[..., 1, 0]
            inverse[..., 1, 1] = a[..., 0, 0]
            inverse /= det[..., None, None]
        else:
            c00 = a[..., 1, 1] * a[..., 2, 2] - a[..., 1, 2] * a[..., 2, 1]
            c01 = a[..., 1, 2] * a[..., 2, 0] - a[..., 1, 0] * a[..., 2, 2]
            c02 = a[..., 1, 0] * a[..., 2, 1] - a[..., 1, 1] * a[..., 2, 0]
            det = (
                a[..., 0, 0] * c00
                + a[..., 0, 1] * c01
                + a[..., 0, 2] * c02
            )
            inverse = np.empty_like(a)
            inverse[..., 0, 0] = c00
            inverse[..., 1, 0] = c01
            inverse[..., 2, 0] = c02
            inverse[..., 0, 1] = (
                a[..., 0, 2] * a[..., 2, 1] - a[..., 0, 1] * a[..., 2, 2]
            )
            inverse[..., 1, 1] = (
                a[..., 0, 0] * a[..., 2, 2] - a[..., 0, 2] * a[..., 2, 0]
            )
            inverse[..., 2, 1] = (
                a[..., 0, 1] * a[..., 2, 0] - a[..., 0, 0] * a[..., 2, 1]
            )
            inverse[..., 0, 2] = (
                a[..., 0, 1] * a[..., 1, 2] - a[..., 0, 2] * a[..., 1, 1]
            )
            inverse[..., 1, 2] = (
                a[..., 0, 2] * a[..., 1, 0] - a[..., 0, 0] * a[..., 1, 2]
            )
            inverse[..., 2, 2] = (
                a[..., 0, 0] * a[..., 1, 1] - a[..., 0, 1] * a[..., 1, 0]
            )
            inverse /= det[..., None, None]
    bad = ~np.isfinite(inverse).all(axis=(-2, -1))
    if np.any(bad):
        inverse[bad] = np.linalg.pinv(a[bad])
    return inverse


def hermitian_inverse_diagonal(matrices: np.ndarray) -> np.ndarray:
    """``diag(A^-1)`` (real) for batches of small Hermitian matrices.

    The ZF noise-calibration step only needs the inverse Gram's
    diagonal (``|ideal gain_i|^2 = sigma_i^2 / [(V†V)^-1]_ii``), so
    computing the full inverse is wasted work.  Orders 1-3 use the
    cofactor/determinant closed form as elementwise array math; larger
    orders take the diagonal of ``np.linalg.inv``.  Entries whose
    closed form comes out non-finite (singular Gram) are repaired with
    ``np.linalg.pinv``.
    """
    matrices = np.asarray(matrices)
    if matrices.ndim < 2 or matrices.shape[-1] != matrices.shape[-2]:
        raise ShapeError(
            f"expected square matrices (..., n, n), got {matrices.shape}"
        )
    n = matrices.shape[-1]
    a = matrices
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        if n == 1:
            diagonal = (1.0 / a[..., 0, 0]).real[..., None]
        elif n == 2:
            det = (
                a[..., 0, 0] * a[..., 1, 1] - a[..., 0, 1] * a[..., 1, 0]
            ).real
            diagonal = (
                np.stack([a[..., 1, 1].real, a[..., 0, 0].real], axis=-1)
                / det[..., None]
            )
        elif n == 3:
            m01 = (a[..., 0, 1] * a[..., 1, 0]).real
            m02 = (a[..., 0, 2] * a[..., 2, 0]).real
            m12 = (a[..., 1, 2] * a[..., 2, 1]).real
            d0 = a[..., 0, 0].real
            d1 = a[..., 1, 1].real
            d2 = a[..., 2, 2].real
            c00 = d1 * d2 - m12
            c11 = d0 * d2 - m02
            c22 = d0 * d1 - m01
            det = (
                a[..., 0, 0] * (a[..., 1, 1] * a[..., 2, 2] - a[..., 1, 2] * a[..., 2, 1])
                - a[..., 0, 1] * (a[..., 1, 0] * a[..., 2, 2] - a[..., 1, 2] * a[..., 2, 0])
                + a[..., 0, 2] * (a[..., 1, 0] * a[..., 2, 1] - a[..., 1, 1] * a[..., 2, 0])
            ).real
            diagonal = np.stack([c00, c11, c22], axis=-1) / det[..., None]
        else:
            try:
                return np.diagonal(
                    np.linalg.inv(a), axis1=-2, axis2=-1
                ).real.copy()
            except np.linalg.LinAlgError:
                return np.diagonal(
                    np.linalg.pinv(a), axis1=-2, axis2=-1
                ).real.copy()
    bad = ~np.isfinite(diagonal).all(axis=-1)
    if np.any(bad):
        diagonal[bad] = np.diagonal(
            np.linalg.pinv(a[bad]), axis1=-2, axis2=-1
        ).real
    return diagonal


def column_correlation(lhs: np.ndarray, rhs: np.ndarray) -> float:
    """Mean absolute normalized inner product between matching columns.

    A phase-invariant similarity in [0, 1]: 1.0 means each column pair is
    identical up to a complex phase, 0.0 means orthogonal.  Used to score
    reconstructed beamforming matrices against ground truth.
    """
    lhs = np.asarray(lhs, dtype=np.complex128)
    rhs = np.asarray(rhs, dtype=np.complex128)
    if lhs.shape != rhs.shape:
        raise ShapeError(f"column shape mismatch: {lhs.shape} vs {rhs.shape}")
    if lhs.ndim == 1:
        lhs = lhs[:, None]
        rhs = rhs[:, None]
    num = np.abs(np.sum(lhs.conj() * rhs, axis=-2))
    den = np.linalg.norm(lhs, axis=-2) * np.linalg.norm(rhs, axis=-2)
    den = np.maximum(den, 1e-30)
    return float(np.mean(num / den))
