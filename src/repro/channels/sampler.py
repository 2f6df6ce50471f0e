"""Packetized multi-user CSI sampling.

Emulates the paper's collection campaign: the AP transmits 1000
packets/second; each STA estimates CSI from every received packet.  The
sampler drives one :class:`~repro.channels.tgac.TgacChannel` per user
(same environment, different placement jitter), applies the
environment's blockage shadowing and CSI estimation noise, drops
packets independently per user, and tags every sample with a sequence
number so the dataset pipeline can re-align users exactly like the
paper does ("using the packets sequence number, the data collected from
different devices are aligned").
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import ConfigurationError
from repro.channels.doppler import ShadowingProcess
from repro.obs.metrics import profiled
from repro.channels.environment import Environment
from repro.channels.tgac import TgacChannel
from repro.phy.noise import awgn
from repro.phy.ofdm import BandPlan
from repro.utils.rng import as_generator, spawn

__all__ = ["CsiBatch", "CsiSampler"]


@dataclass
class CsiBatch:
    """CSI collected by one user over a session.

    ``csi`` has shape ``(n_received, S, Nr, Nt)``; ``sequence`` holds
    the packet sequence number of each received sample (monotonically
    increasing, with gaps where packets were dropped).
    """

    csi: np.ndarray
    sequence: np.ndarray

    def __post_init__(self) -> None:
        if self.csi.shape[0] != self.sequence.shape[0]:
            raise ConfigurationError("csi and sequence lengths differ")

    @property
    def n_samples(self) -> int:
        return int(self.csi.shape[0])


class CsiSampler:
    """Generates per-user CSI streams for one environment and topology.

    Parameters
    ----------
    env:
        An :class:`~repro.channels.environment.Environment` preset.
    n_users:
        Number of STAs (each gets an independent channel instance).
    n_rx, n_tx:
        Antennas per STA and at the AP.
    band:
        OFDM band plan.
    packet_rate_hz:
        CSI sampling rate (the paper uses 1000 packets/s).
    """

    def __init__(
        self,
        env: Environment,
        n_users: int,
        n_rx: int,
        n_tx: int,
        band: BandPlan,
        packet_rate_hz: float = 1000.0,
        rng: "int | np.random.Generator | None" = None,
    ) -> None:
        if n_users < 1:
            raise ConfigurationError("n_users must be >= 1")
        if packet_rate_hz <= 0:
            raise ConfigurationError("packet_rate_hz must be positive")
        self.env = env
        self.n_users = int(n_users)
        self.n_rx = int(n_rx)
        self.n_tx = int(n_tx)
        self.band = band
        self.dt_s = 1.0 / float(packet_rate_hz)
        self.rng = as_generator(rng)

    @profiled("sampler.collect_session")
    def collect_session(
        self, n_packets: int, chunk_size: int = 256
    ) -> list[CsiBatch]:
        """One measurement session: fresh channels, ``n_packets`` packets.

        Returns one :class:`CsiBatch` per user.  Each session models a
        distinct collection run (the paper repeats measurements with at
        least 4 hours in between): channels and placement jitter are
        redrawn.

        Generation is chunked and fully array-based: per user,
        ``chunk_size`` packets of channel evolution, shadowing, packet
        drops, and CSI estimation noise are produced by a handful of
        vectorized draws instead of per-packet Python steps.  The
        packet-drop stream consumes ``self.rng`` exactly like the
        original per-packet loop, so drop patterns (and therefore
        sequence alignment) are reproducible per seed.
        """
        if n_packets < 1:
            raise ConfigurationError("n_packets must be >= 1")
        if chunk_size < 1:
            raise ConfigurationError("chunk_size must be >= 1")
        user_rngs = spawn(self.rng, self.n_users)
        # Each user occupies one of the room's fixed candidate locations
        # for the whole session (without replacement while possible).
        offsets = self.env.location_offsets_deg()
        replace = self.n_users > offsets.size
        chosen = self.rng.choice(offsets, size=self.n_users, replace=replace)
        channels = [
            TgacChannel(
                self.env.profile,
                n_rx=self.n_rx,
                n_tx=self.n_tx,
                band=self.band,
                doppler_hz=self.env.doppler_hz,
                sample_interval_s=self.dt_s,
                angle_offset_deg=float(chosen[i]),
                rician_k_db=self.env.rician_k_db,
                rng=user_rngs[i],
            )
            for i in range(self.n_users)
        ]
        shadowing = [
            ShadowingProcess(
                sigma_db=self.env.shadowing_sigma_db,
                coherence_s=self.env.shadowing_coherence_s,
                dt_s=self.dt_s,
                rng=user_rngs[i],
            )
            for i in range(self.n_users)
        ]

        # One uniform draw per (packet, user), C-ordered like the
        # original per-packet loop drew them.
        received = (
            self.rng.random((n_packets, self.n_users))
            >= self.env.packet_drop_rate
        )

        collected: list[list[np.ndarray]] = [[] for _ in range(self.n_users)]
        start = 0
        while start < n_packets:
            length = min(chunk_size, n_packets - start)
            for i in range(self.n_users):
                block = channels[i].sample(length)
                block *= shadowing[i].sample(length)[:, None, None, None]
                block = block[received[start : start + length, i]]
                collected[i].append(self._estimate_block(block, user_rngs[i]))
            start += length

        batches = []
        for i in range(self.n_users):
            csi = np.concatenate(collected[i], axis=0)
            if csi.shape[0] == 0:
                raise ConfigurationError(
                    "a user received no packets; lower the drop rate or "
                    "collect more packets"
                )
            batches.append(
                CsiBatch(
                    csi=csi,
                    sequence=np.nonzero(received[:, i])[0].astype(np.int64),
                )
            )
        return batches

    def collect_aligned(
        self, n_packets: int, n_sessions: int = 1
    ) -> np.ndarray:
        """Convenience: sessions + per-sequence alignment in one call.

        Returns ``(n_aligned, n_users, S, Nr, Nt)`` containing only the
        packets every user received, concatenated across sessions.
        """
        from repro.datasets.preprocess import align_users  # local import: layering

        aligned_sessions = []
        for _ in range(max(1, int(n_sessions))):
            batches = self.collect_session(n_packets)
            aligned_sessions.append(align_users(batches))
        return np.concatenate(aligned_sessions, axis=0)

    # -- internals --------------------------------------------------------------

    def _estimate(
        self, response: np.ndarray, rng: np.random.Generator
    ) -> np.ndarray:
        """Apply CSI estimation noise at the environment's SNR."""
        if self.env.csi_noise_snr_db is None:
            return response
        signal_power = float(np.mean(np.abs(response) ** 2))
        power = signal_power / (10.0 ** (self.env.csi_noise_snr_db / 10.0))
        return response + awgn(response.shape, power=power, rng=rng)

    def _estimate_block(
        self, responses: np.ndarray, rng: np.random.Generator
    ) -> np.ndarray:
        """Batched :meth:`_estimate` over ``(n, S, Nr, Nt)`` responses.

        The noise power is calibrated per sample against that sample's
        own mean power, matching the per-packet path.
        """
        if self.env.csi_noise_snr_db is None or responses.shape[0] == 0:
            return responses
        signal_power = np.mean(np.abs(responses) ** 2, axis=(1, 2, 3))
        power = signal_power / (10.0 ** (self.env.csi_noise_snr_db / 10.0))
        scale = np.sqrt(power / 2.0)[:, None, None, None]
        noise = rng.standard_normal(responses.shape) + 1j * rng.standard_normal(
            responses.shape
        )
        return responses + scale * noise
