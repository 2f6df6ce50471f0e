"""Cost models for the BOP (Sec. IV-B) and the Sec. IV-E analysis.

Two accounting levels coexist (``docs/conventions.md``, § FLOP
accounting):

1. **Exact model costs** — MAC counts of actual :class:`SplitBeamNet`
   instances, used in the Fig. 10/11/12 comparisons where our trained
   models are measured.
2. **Analytical projections** — the paper's closed-form complexity
   expressions (Sec. IV-E) used for the Fig. 6/7 parameter sweeps that
   extend to 8x8 systems the paper never trains.  The single calibration
   constant :data:`CALIBRATED_NN_FLOP_FACTOR` is fitted to the paper's
   headline "75% STA-load reduction at 4x4, 80 MHz, K=1/8" (Sec. IV-E1),
   since the paper's own MATLAB constant factors are unpublished.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigurationError
from repro.core.model import SplitBeamNet
from repro.phy.ofdm import band_plan
from repro.phy.rates import frame_airtime_s
from repro.standard.feedback import Dot11FeedbackConfig, bmr_bits
from repro.standard.flopmodel import dot11_flops

__all__ = [
    "CALIBRATED_NN_FLOP_FACTOR",
    "splitbeam_head_flops",
    "splitbeam_feedback_bits",
    "analytical_splitbeam_flops",
    "comp_load_ratio",
    "feedback_size_ratio",
    "StaCostModel",
]

#: Real FLOPs per unit of K * (Nt*Nr*S)^2 in the analytical model;
#: fitted so that (4x4, 80 MHz, K=1/8) yields the paper's 25% ratio.
CALIBRATED_NN_FLOP_FACTOR: float = 1.116

#: Bits per compressed bottleneck element in the airtime model (matches
#: the Eq. (9) convention of 16 bits per complex CSI element, i.e. 16
#: bits per compressed real value in the paper's ratio definition).
FEEDBACK_BITS_PER_ELEMENT: int = 16


def splitbeam_head_flops(model: SplitBeamNet) -> float:
    """Exact STA FLOPs for a trained model's head (2 FLOPs per MAC)."""
    return 2.0 * model.head_macs()


def splitbeam_feedback_bits(
    bottleneck_dim: int, bits_per_element: int = FEEDBACK_BITS_PER_ELEMENT
) -> int:
    """Over-the-air compressed BF size (payload only)."""
    if bottleneck_dim < 1:
        raise ConfigurationError("bottleneck_dim must be >= 1")
    if bits_per_element < 1:
        raise ConfigurationError("bits_per_element must be >= 1")
    return bottleneck_dim * bits_per_element


def analytical_splitbeam_flops(
    compression: float, n_tx: int, n_rx: int, n_subcarriers: int
) -> float:
    """Sec. IV-E1 projection: ``O(K * Nt^2 * Nr^2 * S^2)`` real FLOPs."""
    if not 0 < compression <= 1:
        raise ConfigurationError("compression must be in (0, 1]")
    return (
        CALIBRATED_NN_FLOP_FACTOR
        * compression
        * (n_tx * n_rx * n_subcarriers) ** 2
    )


def comp_load_ratio(
    compression: float, n_tx: int, n_rx: int, bandwidth_mhz: int
) -> float:
    """Fig. 6: SplitBeam/802.11 computational-load ratio (0..1 scale)."""
    n_sc = band_plan(bandwidth_mhz).n_subcarriers
    ours = analytical_splitbeam_flops(compression, n_tx, n_rx, n_sc)
    theirs = dot11_flops(n_tx, n_rx, n_subcarriers=n_sc)
    return ours / theirs


def feedback_size_ratio(
    compression: float,
    n_tx: int,
    n_rx: int,
    bandwidth_mhz: int,
    n_streams: int | None = None,
) -> float:
    """Fig. 7: SplitBeam/802.11 feedback-size ratio (0..1 scale).

    SplitBeam sends ``K * (2*Nt*Nr*S)`` compressed elements at 16 bits
    each... the paper's convention counts K directly against the 16-bit
    complex CSI baseline, i.e. ``K * S * Nt * Nr * 16`` bits total.  The
    802.11 report size follows Sec. IV-E2 with the (9, 7) quantizer and
    ``Nss = Nt`` for the full-matrix projections (or explicit
    ``n_streams``).
    """
    n_sc = band_plan(bandwidth_mhz).n_subcarriers
    ours = compression * n_sc * n_tx * n_rx * FEEDBACK_BITS_PER_ELEMENT
    config = Dot11FeedbackConfig(
        n_tx=n_tx,
        n_rx=n_rx,
        n_streams=n_tx if n_streams is None else n_streams,
        bandwidth_mhz=bandwidth_mhz,
    )
    return ours / bmr_bits(config)


@dataclass(frozen=True)
class StaCostModel:
    """Maps FLOPs and bits to the BOP's time/energy terms (Sec. IV-B).

    ``sta_flops_per_s`` models the station's sustained DNN throughput
    (a low-power device: default 2 GFLOP/s); ``ap_flops_per_s`` the
    access point's (default 50 GFLOP/s).  ``energy_per_flop_j`` converts
    the computational cost term ``L^c`` to joules.
    """

    sta_flops_per_s: float = 2e9
    ap_flops_per_s: float = 50e9
    energy_per_flop_j: float = 1e-10
    tx_energy_per_bit_j: float = 5e-8
    feedback_bandwidth_mhz: int = 20

    def head_time_s(self, head_flops: float) -> float:
        """``T^H``: head execution time at the STA."""
        return head_flops / self.sta_flops_per_s

    def tail_time_s(self, tail_flops: float) -> float:
        """``T^T``: tail execution time at the AP."""
        return tail_flops / self.ap_flops_per_s

    def airtime_s(self, feedback_bits: int) -> float:
        """``T^A``: feedback airtime at a robust control rate."""
        return frame_airtime_s(feedback_bits, self.feedback_bandwidth_mhz)

    def sta_overhead(self, head_flops: float, feedback_bits: int) -> float:
        """``L^H``: computational + transmit energy at the STA (joules)."""
        return (
            head_flops * self.energy_per_flop_j
            + feedback_bits * self.tx_energy_per_bit_j
        )

    def bop_objective(
        self,
        head_flops: float,
        tail_flops: float,
        feedback_bits: int,
        mu: float,
        n_users: int = 1,
    ) -> float:
        """Eq. (7a): ``sum_i mu * L^H_i + (1 - mu) * T^A_i``.

        Energy (joules) and airtime (seconds) are combined after scaling
        airtime by 1e3 so both terms are O(1) for typical configurations
        (the paper leaves the weighting units unspecified).
        """
        if not 0 < mu < 1:
            raise ConfigurationError("mu must be in (0, 1) per Eq. (7b)")
        per_user = mu * self.sta_overhead(head_flops, feedback_bits) + (
            1 - mu
        ) * (1e3 * self.airtime_s(feedback_bits))
        return n_users * per_user

    def end_to_end_delay_s(
        self, head_flops: float, tail_flops: float, feedback_bits: int
    ) -> float:
        """Eq. (7d) left side for one STA: ``T^H + T^A + T^T``."""
        return (
            self.head_time_s(head_flops)
            + self.airtime_s(feedback_bits)
            + self.tail_time_s(tail_flops)
        )
