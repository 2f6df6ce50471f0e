"""Computational-load models for the 802.11 feedback pipeline.

Sec. IV-E1 of the paper cites (from Golub & Van Loan [8]):

- SVD of the channel: ``O((4*Nt*Nr^2 + 22*Nt^3) * S)`` complex ops;
- Givens decomposition: ``O(Nt^3 * Nr^3 * S)`` complex ops.

We convert complex operations to real FLOPs with a factor of 6 (one
complex multiply-accumulate = 4 real multiplies + 2 real adds).  The
paper's own constants are unpublished ("computed through a MATLAB
program"); ``docs/conventions.md`` (§ FLOP accounting) documents this
convention.
"""

from __future__ import annotations

from repro.errors import ConfigurationError
from repro.phy.ofdm import band_plan

__all__ = ["COMPLEX_FLOP_FACTOR", "svd_flops", "givens_flops", "dot11_flops"]

#: Real FLOPs per complex multiply-accumulate.
COMPLEX_FLOP_FACTOR: int = 6


def _check(n_tx: int, n_rx: int, n_subcarriers: int) -> None:
    if n_tx < 1 or n_rx < 1 or n_subcarriers < 1:
        raise ConfigurationError("n_tx, n_rx, n_subcarriers must be >= 1")


def svd_flops(n_tx: int, n_rx: int, n_subcarriers: int) -> float:
    """Real FLOPs for per-subcarrier SVD of an ``Nr x Nt`` channel."""
    _check(n_tx, n_rx, n_subcarriers)
    complex_ops = (4 * n_tx * n_rx**2 + 22 * n_tx**3) * n_subcarriers
    return float(COMPLEX_FLOP_FACTOR * complex_ops)


def givens_flops(n_tx: int, n_rx: int, n_subcarriers: int) -> float:
    """Real FLOPs for the Givens-rotation angle decomposition."""
    _check(n_tx, n_rx, n_subcarriers)
    complex_ops = (n_tx**3) * (n_rx**3) * n_subcarriers
    return float(COMPLEX_FLOP_FACTOR * complex_ops)


def dot11_flops(
    n_tx: int, n_rx: int, bandwidth_mhz: int | None = None, n_subcarriers: int | None = None
) -> float:
    """Total STA FLOPs for the standard pipeline (SVD + GR).

    Pass either ``bandwidth_mhz`` (resolved through the band plan) or an
    explicit ``n_subcarriers``.
    """
    if n_subcarriers is None:
        if bandwidth_mhz is None:
            raise ConfigurationError(
                "provide bandwidth_mhz or n_subcarriers"
            )
        n_subcarriers = band_plan(bandwidth_mhz).n_subcarriers
    return svd_flops(n_tx, n_rx, n_subcarriers) + givens_flops(
        n_tx, n_rx, n_subcarriers
    )
