"""TGn/TGac cluster-tap delay profiles and the channel generator.

The IEEE TGn channel models (802.11-03/940r4), reused by TGac with
wider bandwidths, describe an indoor channel as a tapped delay line
whose taps belong to overlapping clusters; each cluster has its own
angles of arrival/departure and Laplacian angular spreads, which induce
antenna correlation (see :mod:`repro.channels.spatial`).

Model B (the profile the paper's MATLAB synthetic datasets use: "9
channel taps and 2 channel clusters") is implemented with the exact
published tap powers and cluster angles.  Models C-F follow the spec's
structure with tap powers transcribed from the same document; small
transcription deviations in the low-power tails do not affect the
frequency-correlation statistics the SplitBeam DNN learns from.

The generator produces frequency-domain CSI on a band plan's tone grid:

``H_t(f) = sum_c sum_l sqrt(P_{c,l}) * R_rx,c^(1/2) G_{c,l}(t) R_tx,c^(1/2) * exp(-j*2*pi*f*tau_l)``

with per-tap i.i.d. Rayleigh matrices ``G`` evolving as AR(1) processes
matched to the Jakes autocorrelation (see :mod:`repro.channels.doppler`).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.errors import ConfigurationError
from repro.channels.doppler import ar1_filter, jakes_ar1_coefficient
from repro.channels.spatial import correlation_sqrt, ula_correlation
from repro.phy.ofdm import BandPlan
from repro.utils.rng import as_generator

__all__ = [
    "ClusterSpec",
    "DelayProfile",
    "TgacChannel",
    "MODEL_A",
    "MODEL_B",
    "MODEL_C",
    "MODEL_D",
    "MODEL_E",
    "MODEL_F",
    "delay_profile",
]


@dataclass(frozen=True)
class ClusterSpec:
    """One cluster: which taps it covers and its angular geometry."""

    first_tap: int  # 0-based index into the profile's tap delays
    powers_db: tuple[float, ...]  # per covered tap
    aoa_deg: float
    as_rx_deg: float
    aod_deg: float
    as_tx_deg: float

    def covered_taps(self) -> range:
        return range(self.first_tap, self.first_tap + len(self.powers_db))


@dataclass(frozen=True)
class DelayProfile:
    """A named TGn delay profile."""

    name: str
    tap_delays_ns: tuple[float, ...]
    clusters: tuple[ClusterSpec, ...]
    rms_delay_spread_ns: float

    def __post_init__(self) -> None:
        for cluster in self.clusters:
            if cluster.first_tap + len(cluster.powers_db) > len(self.tap_delays_ns):
                raise ConfigurationError(
                    f"cluster in profile {self.name!r} overruns the tap list"
                )

    @property
    def n_taps(self) -> int:
        return len(self.tap_delays_ns)

    @property
    def n_clusters(self) -> int:
        return len(self.clusters)


MODEL_A = DelayProfile(
    name="A",
    tap_delays_ns=(0.0,),
    clusters=(
        ClusterSpec(0, (0.0,), aoa_deg=45.0, as_rx_deg=40.0, aod_deg=45.0, as_tx_deg=40.0),
    ),
    rms_delay_spread_ns=0.0,
)

MODEL_B = DelayProfile(
    name="B",
    tap_delays_ns=(0, 10, 20, 30, 40, 50, 60, 70, 80),
    clusters=(
        ClusterSpec(
            0,
            (0.0, -5.4, -10.8, -16.2, -21.7),
            aoa_deg=4.3,
            as_rx_deg=14.4,
            aod_deg=225.1,
            as_tx_deg=14.4,
        ),
        ClusterSpec(
            2,
            (-3.2, -6.3, -9.4, -12.5, -15.6, -18.7, -21.8),
            aoa_deg=118.4,
            as_rx_deg=25.2,
            aod_deg=106.5,
            as_tx_deg=25.4,
        ),
    ),
    rms_delay_spread_ns=15.0,
)

MODEL_C = DelayProfile(
    name="C",
    tap_delays_ns=(0, 10, 20, 30, 40, 50, 60, 70, 80, 90, 110, 140, 170, 200),
    clusters=(
        ClusterSpec(
            0,
            (0.0, -2.1, -4.3, -6.5, -8.6, -10.8, -13.0, -15.2, -17.3, -19.5),
            aoa_deg=290.3,
            as_rx_deg=24.6,
            aod_deg=13.5,
            as_tx_deg=24.7,
        ),
        ClusterSpec(
            6,
            (-5.0, -7.2, -9.3, -11.5, -13.7, -15.8, -18.0, -20.2),
            aoa_deg=332.3,
            as_rx_deg=22.4,
            aod_deg=56.4,
            as_tx_deg=22.5,
        ),
    ),
    rms_delay_spread_ns=30.0,
)

MODEL_D = DelayProfile(
    name="D",
    tap_delays_ns=(
        0, 10, 20, 30, 40, 50, 60, 70, 80, 90, 110, 140, 170, 200, 240, 290,
        340, 390,
    ),
    clusters=(
        ClusterSpec(
            0,
            (
                0.0, -0.9, -1.7, -2.6, -3.5, -4.3, -5.2, -6.1, -6.9, -7.8,
                -9.0, -11.1, -13.7, -16.3, -19.3, -23.2,
            ),
            aoa_deg=158.9,
            as_rx_deg=27.7,
            aod_deg=332.1,
            as_tx_deg=27.4,
        ),
        ClusterSpec(
            10,
            (-6.6, -9.5, -12.1, -14.7, -17.4, -21.9, -25.5),
            aoa_deg=320.2,
            as_rx_deg=31.4,
            aod_deg=49.3,
            as_tx_deg=32.1,
        ),
        ClusterSpec(
            14,
            (-18.8, -23.2, -25.2, -26.7),
            aoa_deg=276.1,
            as_rx_deg=37.4,
            aod_deg=275.9,
            as_tx_deg=36.8,
        ),
    ),
    rms_delay_spread_ns=50.0,
)

MODEL_E = DelayProfile(
    name="E",
    tap_delays_ns=(
        0, 10, 20, 30, 50, 80, 110, 140, 180, 230, 280, 330, 380, 430, 490,
        560, 640, 730,
    ),
    clusters=(
        ClusterSpec(
            0,
            (
                -2.6, -3.0, -3.5, -3.9, -4.5, -5.6, -6.9, -8.2, -9.8, -11.7,
                -13.9, -16.1, -18.3, -20.5, -22.9,
            ),
            aoa_deg=163.7,
            as_rx_deg=35.8,
            aod_deg=105.6,
            as_tx_deg=36.1,
        ),
        ClusterSpec(
            4,
            (-1.8, -3.2, -4.5, -5.8, -7.1, -9.9, -10.3, -14.3, -14.7, -18.7),
            aoa_deg=251.8,
            as_rx_deg=41.6,
            aod_deg=293.1,
            as_tx_deg=42.5,
        ),
        ClusterSpec(
            8,
            (-7.9, -9.6, -14.2, -13.8, -18.6, -18.1, -22.8),
            aoa_deg=80.0,
            as_rx_deg=37.4,
            aod_deg=61.9,
            as_tx_deg=38.0,
        ),
        ClusterSpec(
            14,
            (-20.6, -20.5, -20.7, -24.6),
            aoa_deg=182.0,
            as_rx_deg=40.3,
            aod_deg=275.7,
            as_tx_deg=38.7,
        ),
    ),
    rms_delay_spread_ns=100.0,
)

MODEL_F = DelayProfile(
    name="F",
    tap_delays_ns=(
        0, 10, 20, 30, 50, 80, 110, 140, 180, 230, 280, 330, 400, 490, 600,
        730, 880, 1050,
    ),
    clusters=(
        ClusterSpec(
            0,
            (
                -3.3, -3.6, -3.9, -4.2, -4.6, -5.3, -6.2, -7.1, -8.2, -9.5,
                -11.0, -12.5, -14.3, -16.7, -19.9,
            ),
            aoa_deg=315.1,
            as_rx_deg=48.0,
            aod_deg=56.2,
            as_tx_deg=41.6,
        ),
        ClusterSpec(
            4,
            (-1.8, -2.8, -3.5, -4.4, -5.3, -7.4, -7.0, -10.3, -10.4, -13.8, -15.7),
            aoa_deg=180.4,
            as_rx_deg=55.0,
            aod_deg=183.7,
            as_tx_deg=55.2,
        ),
        ClusterSpec(
            8,
            (-5.7, -6.7, -10.4, -9.6, -14.1, -12.7, -18.5),
            aoa_deg=74.7,
            as_rx_deg=42.0,
            aod_deg=153.0,
            as_tx_deg=47.4,
        ),
        ClusterSpec(
            12,
            (-8.8, -13.3, -18.7),
            aoa_deg=251.5,
            as_rx_deg=28.6,
            aod_deg=112.5,
            as_tx_deg=27.2,
        ),
        ClusterSpec(
            14,
            (-12.9, -14.2),
            aoa_deg=68.5,
            as_rx_deg=30.7,
            aod_deg=291.0,
            as_tx_deg=33.0,
        ),
        ClusterSpec(
            16,
            (-16.3, -21.2),
            aoa_deg=246.2,
            as_rx_deg=38.2,
            aod_deg=62.3,
            as_tx_deg=38.0,
        ),
    ),
    rms_delay_spread_ns=150.0,
)

_PROFILES = {
    "A": MODEL_A,
    "B": MODEL_B,
    "C": MODEL_C,
    "D": MODEL_D,
    "E": MODEL_E,
    "F": MODEL_F,
}


def delay_profile(name: str) -> DelayProfile:
    """Look up a TGn delay profile by letter (A-F)."""
    try:
        return _PROFILES[name.upper()]
    except KeyError:
        raise ConfigurationError(
            f"unknown delay profile {name!r}; options: {sorted(_PROFILES)}"
        ) from None


@dataclass
class _ClusterState:
    """Precomputed per-cluster matrices and evolving tap gains."""

    amplitudes: np.ndarray  # (n_covered,) linear tap amplitudes
    tap_indices: np.ndarray  # (n_covered,) indices into the delay list
    rx_sqrt: np.ndarray  # (Nr, Nr)
    tx_sqrt: np.ndarray  # (Nt, Nt)
    gains: np.ndarray = field(default=None)  # (n_covered, Nr, Nt)


class TgacChannel:
    """Time-evolving frequency-domain MIMO channel for one link.

    Parameters
    ----------
    profile:
        A :class:`DelayProfile` (e.g. :data:`MODEL_B`).
    n_rx, n_tx:
        Antenna counts at the STA and AP ends.
    band:
        :class:`~repro.phy.ofdm.BandPlan` whose tone grid the response
        is evaluated on.
    doppler_hz:
        Doppler spread controlling sample-to-sample correlation.
    sample_interval_s:
        Time between CSI samples (1 ms in the paper's campaign).
    angle_offset_deg:
        Deterministic offset applied to every cluster angle, modelling
        the STA's placement in the room (see
        ``Environment.location_offsets_deg``).
    rician_k_db:
        If not None, adds a line-of-sight component with this K-factor
        on the first tap (TGn LOS variants).
    normalize:
        Scale tap powers so the average per-element channel power is 1.
    """

    def __init__(
        self,
        profile: DelayProfile,
        n_rx: int,
        n_tx: int,
        band: BandPlan,
        doppler_hz: float = 0.0,
        sample_interval_s: float = 1e-3,
        angle_offset_deg: float = 0.0,
        rician_k_db: float | None = None,
        normalize: bool = True,
        rng: "int | np.random.Generator | None" = None,
    ) -> None:
        if n_rx < 1 or n_tx < 1:
            raise ConfigurationError("antenna counts must be >= 1")
        self.profile = profile
        self.n_rx = int(n_rx)
        self.n_tx = int(n_tx)
        self.band = band
        self.doppler_hz = float(doppler_hz)
        self.sample_interval_s = float(sample_interval_s)
        self.rician_k_db = rician_k_db
        self.rng = as_generator(rng)

        self._rho = jakes_ar1_coefficient(self.doppler_hz, self.sample_interval_s)
        self._clusters = self._build_clusters(angle_offset_deg, normalize)
        delays_s = np.asarray(profile.tap_delays_ns, dtype=np.float64) * 1e-9
        tones = band.tone_frequencies_hz()
        # (S, n_taps) steering of each tap across the tone grid.
        self._tap_phases = np.exp(-2j * np.pi * np.outer(tones, delays_s))
        self._los = self._build_los()
        self.reset()

    # -- public API -----------------------------------------------------------

    def reset(self) -> None:
        """Redraw all tap gains (a fresh channel realization)."""
        for cluster in self._clusters:
            shape = (cluster.amplitudes.size, self.n_rx, self.n_tx)
            cluster.gains = self._draw_gaussian(shape)

    def step(self) -> np.ndarray:
        """Advance one sample interval; return ``H`` of shape (S, Nr, Nt)."""
        rho = self._rho
        innovation_scale = np.sqrt(1.0 - rho**2)
        for cluster in self._clusters:
            noise = self._draw_gaussian(cluster.gains.shape)
            cluster.gains = rho * cluster.gains + innovation_scale * noise
        return self._frequency_response()

    def sample(self, n_samples: int) -> np.ndarray:
        """Collect ``n_samples`` consecutive CSI samples (n, S, Nr, Nt).

        Equivalent to ``n_samples`` calls to :meth:`step` but batched:
        the AR(1) tap evolution runs :func:`ar1_filter` over a single
        batched innovation draw, one array step per sample, and the
        per-cluster correlation shaping and tone steering are applied
        to all steps in one einsum each.
        """
        if n_samples < 1:
            raise ConfigurationError("n_samples must be >= 1")
        rho = self._rho
        innovation_scale = np.sqrt(1.0 - rho**2)
        n_taps = self.profile.n_taps
        tap_matrices = np.zeros(
            (n_samples, n_taps, self.n_rx, self.n_tx), dtype=np.complex128
        )
        for cluster in self._clusters:
            innovations = self._draw_gaussian(
                (n_samples,) + cluster.gains.shape
            )
            series = ar1_filter(
                innovation_scale * innovations, rho, rho * cluster.gains
            )
            cluster.gains = series[-1].copy()
            shaped = np.einsum(
                "rp,nlpq,qt->nlrt", cluster.rx_sqrt, series, cluster.tx_sqrt
            )
            tap_matrices[:, cluster.tap_indices] += (
                cluster.amplitudes[None, :, None, None] * shaped
            )
        self._apply_los(tap_matrices)
        return np.einsum("sl,nlrt->nsrt", self._tap_phases, tap_matrices)

    def current(self) -> np.ndarray:
        """Frequency response for the current tap gains (no time advance)."""
        return self._frequency_response()

    # -- internals --------------------------------------------------------------

    def _build_clusters(
        self, angle_offset_deg: float, normalize: bool
    ) -> list[_ClusterState]:
        offset = float(angle_offset_deg)
        total_power = 0.0
        powers_linear: list[np.ndarray] = []
        for cluster in self.profile.clusters:
            power = 10.0 ** (np.asarray(cluster.powers_db) / 10.0)
            powers_linear.append(power)
            total_power += float(power.sum())
        scale = 1.0 / total_power if normalize else 1.0

        states: list[_ClusterState] = []
        for cluster, power in zip(self.profile.clusters, powers_linear):
            rx_corr = ula_correlation(
                self.n_rx, cluster.aoa_deg + offset, cluster.as_rx_deg
            )
            tx_corr = ula_correlation(
                self.n_tx, cluster.aod_deg + offset, cluster.as_tx_deg
            )
            states.append(
                _ClusterState(
                    amplitudes=np.sqrt(power * scale),
                    tap_indices=np.asarray(list(cluster.covered_taps())),
                    rx_sqrt=correlation_sqrt(rx_corr),
                    tx_sqrt=correlation_sqrt(tx_corr),
                )
            )
        return states

    def _build_los(self) -> np.ndarray | None:
        if self.rician_k_db is None:
            return None
        # Deterministic rank-one LOS steering on the first tap.
        aod = np.deg2rad(self.rng.uniform(-60, 60))
        aoa = np.deg2rad(self.rng.uniform(-60, 60))
        tx_steer = np.exp(1j * np.pi * np.arange(self.n_tx) * np.sin(aod))
        rx_steer = np.exp(1j * np.pi * np.arange(self.n_rx) * np.sin(aoa))
        return np.outer(rx_steer, tx_steer)

    def _draw_gaussian(self, shape: tuple[int, ...]) -> np.ndarray:
        return (
            self.rng.standard_normal(shape) + 1j * self.rng.standard_normal(shape)
        ) / np.sqrt(2.0)

    def _frequency_response(self) -> np.ndarray:
        n_taps = self.profile.n_taps
        tap_matrices = np.zeros(
            (n_taps, self.n_rx, self.n_tx), dtype=np.complex128
        )
        for cluster in self._clusters:
            shaped = np.einsum(
                "rp,lpq,qt->lrt", cluster.rx_sqrt, cluster.gains, cluster.tx_sqrt
            )
            tap_matrices[cluster.tap_indices] += (
                cluster.amplitudes[:, None, None] * shaped
            )
        self._apply_los(tap_matrices)
        return np.tensordot(self._tap_phases, tap_matrices, axes=(1, 0))

    def _apply_los(self, tap_matrices: np.ndarray) -> None:
        """Mix the Rician LOS component into ``(..., n_taps, Nr, Nt)``."""
        if self._los is None:
            return
        k_linear = 10.0 ** (self.rician_k_db / 10.0)
        nlos_scale = np.sqrt(1.0 / (k_linear + 1.0))
        los_scale = np.sqrt(k_linear / (k_linear + 1.0))
        tap_matrices *= nlos_scale
        # First-tap LOS power matches that tap's average NLOS power.
        first_amp = np.linalg.norm(
            [c.amplitudes[0] for c in self._clusters if c.tap_indices[0] == 0]
        )
        tap_matrices[..., 0, :, :] += los_scale * first_amp * self._los
