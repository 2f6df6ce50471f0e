"""Channel aging: why MU-MIMO must sound every ~10 ms.

The paper adopts the guidance that "MU-MIMO channel sounding should be
performed at least once every 10 ms to account for user mobility" [7]
and designs SplitBeam's latency budget around it.  This module makes
that number derivable instead of quoted:

- under the Jakes model, CSI measured ``tau`` seconds ago correlates
  with the current channel as ``rho = J0(2*pi*f_d*tau)``;
- a zero-forcing precoder built from stale CSI leaks the de-correlated
  channel component as inter-user interference, collapsing the
  post-beamforming SINR to
  ``rho^2 * S / ((1 - rho^2) * S * (Ns - 1) + N)``;
- sounding more often restores SINR but burns airtime (the campaign
  model), so goodput over the sounding interval has an interior
  optimum.

:func:`optimal_sounding_interval` locates that optimum; at pedestrian
Doppler it lands in the paper's single-digit-millisecond regime, and a
*smaller* feedback report (SplitBeam) shifts it toward more frequent
sounding at higher goodput — the system-level version of the paper's
airtime argument.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.channels.doppler import j0
from repro.errors import ConfigurationError
from repro.phy.mcs import data_rate_bps, select_mcs
from repro.phy.noise import snr_db_to_linear, snr_linear_to_db
from repro.sounding.campaign import SoundingCampaign

__all__ = [
    "temporal_correlation",
    "stale_sinr_db",
    "AgingGoodputModel",
    "optimal_sounding_interval",
]


def temporal_correlation(doppler_hz: float, delay_s: float) -> float:
    """Jakes-model correlation ``J0(2 pi f_d tau)`` between CSI snapshots."""
    if doppler_hz < 0 or delay_s < 0:
        raise ConfigurationError("doppler_hz and delay_s must be non-negative")
    return j0(2.0 * np.pi * doppler_hz * delay_s)


def stale_sinr_db(
    fresh_sinr_db: float, correlation: float, n_users: int = 2
) -> float:
    """Post-ZF SINR with beamforming built from aged CSI.

    The channel decomposes as ``h = rho * h_old + sqrt(1 - rho^2) * e``;
    ZF nulls the ``h_old`` component of the other users' streams but the
    innovation ``e`` leaks through, contributing
    ``(1 - rho^2) * S`` interference per interfering stream.
    """
    if not -1.0 <= correlation <= 1.0:
        raise ConfigurationError("correlation must be in [-1, 1]")
    if n_users < 1:
        raise ConfigurationError("n_users must be >= 1")
    signal = snr_db_to_linear(fresh_sinr_db)
    rho_sq = correlation**2
    interference = (1.0 - rho_sq) * signal * max(n_users - 1, 0)
    effective = rho_sq * signal / (interference + 1.0)
    return snr_linear_to_db(max(effective, 1e-12))


@dataclass(frozen=True)
class AgingGoodputModel:
    """Goodput as a function of the sounding interval.

    Combines three effects for an ``n_users`` MU-MIMO group:

    - sounding occupancy rises as the interval shrinks (campaign model);
    - the *average* CSI age inside an interval is half the interval, so
      longer intervals mean staler beamforming and lower SINR;
    - the MCS (and hence the data rate) follows the degraded SINR.
    """

    n_users: int
    bandwidth_mhz: int
    feedback_bits_per_user: int
    doppler_hz: float
    fresh_sinr_db: float = 25.0
    mcs_backoff_db: float = 3.0

    def __post_init__(self) -> None:
        if self.n_users < 1:
            raise ConfigurationError("n_users must be >= 1")
        if self.doppler_hz < 0:
            raise ConfigurationError("doppler_hz must be non-negative")

    def occupancy(self, interval_s: float) -> float:
        campaign = SoundingCampaign(
            n_users=self.n_users,
            bandwidth_mhz=self.bandwidth_mhz,
            feedback_bits=self.feedback_bits_per_user,
            interval_s=interval_s,
        )
        return campaign.report().occupancy

    def effective_sinr_db(self, interval_s: float) -> float:
        rho = temporal_correlation(self.doppler_hz, interval_s / 2.0)
        return stale_sinr_db(self.fresh_sinr_db, rho, self.n_users)

    def goodput_bps(self, interval_s: float) -> float:
        """Aggregate goodput at one sounding interval."""
        if interval_s <= 0:
            raise ConfigurationError("interval_s must be positive")
        occupancy = self.occupancy(interval_s)
        if occupancy >= 1.0:
            return 0.0
        sinr_db = self.effective_sinr_db(interval_s)
        mcs = select_mcs(sinr_db, backoff_db=self.mcs_backoff_db)
        rate = data_rate_bps(mcs.index, self.bandwidth_mhz)
        return rate * (1.0 - occupancy) * self.n_users


def optimal_sounding_interval(
    model: AgingGoodputModel,
    candidates_s: "Sequence[float] | None" = None,
) -> tuple[float, float]:
    """Grid-search the goodput-maximizing sounding interval.

    Returns ``(interval_s, goodput_bps)``.  The default grid spans
    0.5 ms to 100 ms logarithmically (the paper's SU guidance endpoint).
    """
    if candidates_s is None:
        candidates_s = np.logspace(np.log10(0.5e-3), np.log10(100e-3), 40)
    if len(candidates_s) == 0:
        raise ConfigurationError("need at least one candidate interval")
    best_interval = float(candidates_s[0])
    best_goodput = -1.0
    for interval in candidates_s:
        goodput = model.goodput_bps(float(interval))
        if goodput > best_goodput:
            best_interval, best_goodput = float(interval), goodput
    return best_interval, best_goodput
