"""End-to-end MU-MIMO downlink BER simulation (paper Sec. 5.2.2).

For each CSI sample the simulator follows the paper's six steps:

1. generate random payload bits per user (optionally BCC rate-1/2
   encoded), modulated with 16-QAM by default;
2. take each user's beamforming vector ``V_i`` (from any feedback
   scheme under test);
3. assemble the effective channel ``H_EQ = [V_1 ... V_Ns]``;
4. compute the zero-forcing precoder ``W = H_EQ (H_EQ† H_EQ)^-1`` and
   normalize its columns;
5. propagate through the *true* channel and add AWGN;
6. receive-combine with the dominant left singular vector, equalize,
   demodulate (and Viterbi-decode), and count bit errors.

Noise is calibrated once per sample against the *ideal SVD* beamformer's
post-combining gain, so every feedback scheme is compared at the same
operating SNR and BER differences isolate beamforming error — the
paper's stated goal ("isolate the BER caused by the DNN compression").

Array conventions: channels ``(n_users, S, Nr, Nt)`` and beamforming
vectors ``(n_users, S, Nt)`` per sample (complex128).

:meth:`LinkSimulator.measure_ber` runs the whole batch of samples
through single batched SVD/einsum passes.  Random payloads and noise are
drawn in the same generator order as the original per-sample loop, so
the batched path is bit-identical to :meth:`measure_ber_reference` (the
frozen per-sample implementation kept for equivalence tests and
speedup tracking in ``benchmarks/bench_perf_hotpaths.py``).
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field, replace

import numpy as np

from repro.errors import ConfigurationError, ShapeError
from repro.obs.metrics import profiled
from repro.phy.coding import bcc_rate_half
from repro.phy.interleaver import BlockInterleaver
from repro.phy.metrics import LinkMetrics, batch_link_metrics
from repro.phy.modulation import QamModem
from repro.phy.noise import snr_db_to_linear
from repro.phy.scrambler import Scrambler
from repro.phy.svd import (
    beamforming_matrices,
    dominant_left_singular_vectors,
    dominant_right_singular_pair,
)
from repro.utils.complexmat import batched_small_inverse, hermitian_inverse_diagonal
from repro.utils.rng import as_generator

__all__ = ["LinkConfig", "BerResult", "LinkSimulator"]

_PRECODERS = ("zf", "rzf")


@dataclass
class LinkConfig:
    """Link-simulation parameters.

    The paper uses 16-QAM, zero-forcing, and no channel coding unless
    otherwise specified (BCC rate 1/2 for the 160 MHz results); it does
    not state the operating SNR — 20 dB is our documented default, and
    benches expose a sweep.
    """

    snr_db: float = 20.0
    qam_order: int = 16
    use_coding: bool = False
    n_ofdm_symbols: int = 1
    seed: int = 0
    precoder: str = "zf"  # "zf" (paper) or "rzf" (MMSE-regularized)
    use_scrambler: bool = False
    use_interleaver: bool = False
    soft_decoding: bool = False

    def __post_init__(self) -> None:
        if self.n_ofdm_symbols <= 0:
            raise ConfigurationError("n_ofdm_symbols must be positive")
        if self.precoder not in _PRECODERS:
            raise ConfigurationError(
                f"unknown precoder {self.precoder!r}; options: {_PRECODERS}"
            )
        if self.soft_decoding and not self.use_coding:
            raise ConfigurationError(
                "soft_decoding requires use_coding=True"
            )
        if self.use_interleaver and not self.use_coding:
            raise ConfigurationError(
                "the interleaver protects coded bits; enable use_coding"
            )


@dataclass
class BerResult:
    """Aggregated BER measurement.

    ``gains`` ``(n, S, users, users)`` and ``noise_power`` ``(n,)`` are
    the effective gains and calibrated noise powers
    :meth:`LinkSimulator.measure_ber` computed on the way, so a caller
    can derive :func:`~repro.phy.metrics.batch_link_metrics` without a
    second gain pass.  They are ``None`` from the frozen reference path
    and for an empty batch.
    """

    bit_errors: int
    total_bits: int
    per_user_ber: np.ndarray
    gains: "np.ndarray | None" = field(default=None, repr=False, compare=False)
    noise_power: "np.ndarray | None" = field(
        default=None, repr=False, compare=False
    )

    @property
    def ber(self) -> float:
        if self.total_bits == 0:
            return 0.0
        return self.bit_errors / self.total_bits

    def __str__(self) -> str:
        return f"BER {self.ber:.5f} ({self.bit_errors}/{self.total_bits} bits)"


class LinkSimulator:
    """Runs the Sec. 5.2.2 BER procedure over batches of CSI samples."""

    def __init__(self, config: LinkConfig | None = None) -> None:
        self.config = config or LinkConfig()
        self.modem = QamModem(self.config.qam_order)
        self.code = bcc_rate_half() if self.config.use_coding else None
        self.scrambler = Scrambler() if self.config.use_scrambler else None
        self._interleavers: dict[int, BlockInterleaver] = {}

    def _interleaver(self, n_subcarriers: int) -> BlockInterleaver:
        """Per-band interleaver, cached by subcarrier count."""
        if n_subcarriers not in self._interleavers:
            self._interleavers[n_subcarriers] = BlockInterleaver.for_symbol(
                n_subcarriers, self.modem.bits_per_symbol
            )
        return self._interleavers[n_subcarriers]

    # -- public API -----------------------------------------------------------

    @profiled("link.measure_ber")
    def measure_ber(
        self,
        channels: np.ndarray,
        bf_estimates: np.ndarray,
        rng: "int | np.random.Generator | None" = None,
        links: "Sequence[LinkConfig] | None" = None,
    ) -> "BerResult | list[BerResult]":
        """Measure BER for DNN/codebook-estimated beamforming vectors.

        Parameters
        ----------
        channels:
            True channels, shape ``(n_samples, n_users, S, Nr, Nt)``.
        bf_estimates:
            Estimated beamforming vectors as reconstructed at the AP,
            shape ``(n_samples, n_users, S, Nt)``.
        rng:
            Seed/Generator; defaults to ``LinkConfig.seed``.
        links:
            Measure several rounds in one pass: the batch is
            ``len(links)`` rounds of equally many consecutive samples,
            and round ``k`` is measured exactly as
            ``LinkSimulator(links[k]).measure_ber`` would measure its
            samples alone — its own ``links[k].seed`` generator, noise
            calibration and precoder at ``links[k].snr_db``.  The links
            may differ from this simulator's configuration in ``snr_db``
            and ``seed`` only, and ``rng`` must be ``None``.  Returns one
            :class:`BerResult` per round.

        Each result also carries its samples' effective ``gains`` and
        ``noise_power``, the inputs of the SINR metrics.
        """
        channels = np.asarray(channels, dtype=np.complex128)
        bf_estimates = np.asarray(bf_estimates, dtype=np.complex128)
        self._check_shapes(channels, bf_estimates)
        n_samples, n_users = channels.shape[:2]
        if links is None:
            snr_db = [self.config.snr_db]
            rngs = [as_generator(self.config.seed if rng is None else rng)]
        else:
            self._check_links(links, rng, n_samples)
            snr_db = [link.snr_db for link in links]
            rngs = [as_generator(link.seed) for link in links]
        size = n_samples // len(rngs)
        if n_samples == 0:
            results = [BerResult(0, 0, np.zeros(n_users)) for _ in rngs]
        else:
            gains, noise_power = self._batched_sample_gains(
                channels, bf_estimates, snr_db
            )
            errors, totals = self._transmit_and_count(gains, noise_power, rngs)
            results = []
            for k in range(len(rngs)):
                part = slice(k * size, (k + 1) * size)
                result = self._aggregate(errors[part], totals[part])
                result.gains = gains[part]
                result.noise_power = noise_power[part]
                results.append(result)
        return results[0] if links is None else results

    def _check_links(self, links, rng, n_samples: int) -> None:
        """Validate :meth:`measure_ber`'s per-round ``links``."""
        if rng is not None:
            raise ConfigurationError(
                "per-round links carry their own seeds; pass no rng"
            )
        if not links or n_samples % len(links):
            raise ShapeError(
                f"{n_samples} samples do not split into {len(links)} "
                "equal rounds"
            )
        config = self.config
        for link in links:
            if replace(link, snr_db=config.snr_db, seed=config.seed) != config:
                raise ConfigurationError(
                    "a round's link may differ from the simulator's "
                    f"configuration in snr_db and seed only: {link}"
                )

    def measure_ber_reference(
        self,
        channels: np.ndarray,
        bf_estimates: np.ndarray,
        rng: "int | np.random.Generator | None" = None,
    ) -> BerResult:
        """The original per-sample BER loop, kept as a frozen baseline.

        Bit-identical to :meth:`measure_ber` given the same seed; used by
        the equivalence tests and as the "before" timing in the perf
        benchmarks.  Prefer :meth:`measure_ber` everywhere else.

        One deliberate deviation from the pre-vectorization release:
        combiners now carry the canonical phase gauge (see
        :func:`repro.phy.svd.dominant_left_singular_vectors`), so
        seed-pinned absolute BER values shift by a noise-phase
        relabeling relative to older checkouts — a gauge change, not an
        algorithm change; the BER statistics are identical.
        """
        channels = np.asarray(channels, dtype=np.complex128)
        bf_estimates = np.asarray(bf_estimates, dtype=np.complex128)
        self._check_shapes(channels, bf_estimates)
        rng = as_generator(self.config.seed if rng is None else rng)

        n_users = channels.shape[1]
        errors = np.zeros((channels.shape[0], n_users), dtype=np.int64)
        totals = np.zeros((channels.shape[0], n_users), dtype=np.int64)
        for j in range(channels.shape[0]):
            errors[j], totals[j] = self._one_sample(
                channels[j], bf_estimates[j], rng
            )
        return self._aggregate(errors, totals)

    @staticmethod
    def _aggregate(errors: np.ndarray, totals: np.ndarray) -> BerResult:
        """Fold per-(sample, user) counts into a :class:`BerResult`."""
        user_errors = errors.sum(axis=0)
        user_bits = totals.sum(axis=0)
        per_user = np.where(user_bits > 0, user_errors / np.maximum(user_bits, 1), 0.0)
        return BerResult(
            bit_errors=int(user_errors.sum()),
            total_bits=int(user_bits.sum()),
            per_user_ber=per_user,
        )

    def measure_ber_ideal(
        self,
        channels: np.ndarray,
        rng: "int | np.random.Generator | None" = None,
    ) -> BerResult:
        """BER with perfect (unquantized SVD) beamforming feedback."""
        channels = np.asarray(channels, dtype=np.complex128)
        bf = beamforming_matrices(channels, n_streams=1)[..., 0]
        return self.measure_ber(channels, bf, rng=rng)

    # -- internals --------------------------------------------------------------

    def _check_shapes(self, channels: np.ndarray, bfs: np.ndarray) -> None:
        if channels.ndim != 5:
            raise ShapeError(
                f"channels must be (n_samples, n_users, S, Nr, Nt), "
                f"got {channels.shape}"
            )
        if bfs.ndim != 4:
            raise ShapeError(
                f"bf_estimates must be (n_samples, n_users, S, Nt), "
                f"got {bfs.shape}"
            )
        n_samples, n_users, n_sc, _, n_tx = channels.shape
        if bfs.shape != (n_samples, n_users, n_sc, n_tx):
            raise ShapeError(
                f"bf_estimates shape {bfs.shape} inconsistent with channels "
                f"{channels.shape}"
            )
        if n_users > n_tx:
            raise ShapeError(f"{n_users} users exceed {n_tx} transmit antennas")

    def _one_sample(
        self,
        channels: np.ndarray,
        bf_estimates: np.ndarray,
        rng: np.random.Generator,
    ) -> tuple[np.ndarray, np.ndarray]:
        """BER for one CSI sample. Returns (errors, bits) per user."""
        n_users, n_sc, _, n_tx = channels.shape
        n_symbols = self.config.n_ofdm_symbols

        # Receive combining from the true channel (the STA knows its own
        # channel from the NDP training fields).
        combiners = dominant_left_singular_vectors(channels)  # (users, S, Nr)
        rows = np.einsum("isr,isrt->ist", combiners.conj(), channels)

        # Noise calibration against the ideal SVD beamformer (same for
        # every scheme under comparison at this sample).  Pure ZF here so
        # the reference SNR is precoder-independent.
        ideal_bf = beamforming_matrices(channels, n_streams=1)[..., 0]
        ideal_eq = np.transpose(ideal_bf, (1, 2, 0))
        ideal_w = self._reference_zero_forcing(ideal_eq)
        ideal_gains = np.einsum("ist,stj->sij", rows, ideal_w)
        diag = np.abs(np.diagonal(ideal_gains, axis1=1, axis2=2)) ** 2
        signal_power = float(np.mean(diag))
        if signal_power <= 0:
            raise ShapeError("degenerate channel: zero beamforming gain")
        noise_power = signal_power / snr_db_to_linear(self.config.snr_db)

        # Precoder from the estimated beamforming vectors, per subcarrier.
        h_eq = np.transpose(bf_estimates, (1, 2, 0))  # (S, Nt, n_users)
        if self.config.precoder == "rzf":
            ridge = h_eq.shape[2] / snr_db_to_linear(self.config.snr_db)
            precoder = self._reference_zero_forcing(h_eq, ridge=ridge)
        else:
            precoder = self._reference_zero_forcing(h_eq)

        # Effective gain matrix G[s, i, j] = u_i(s)† H_i(s) w_j(s).
        gains = np.einsum("ist,stj->sij", rows, precoder)  # (S, users, users)

        # Per-user payloads.
        bits_tx, symbols = self._generate_payloads(n_users, n_sc, n_symbols, rng)
        # symbols: (users, S, T) -> transmit through gains.
        received = np.einsum("sij,jst->ist", gains, symbols)
        noise = np.sqrt(noise_power / 2.0) * (
            rng.standard_normal(received.shape)
            + 1j * rng.standard_normal(received.shape)
        )
        received = received + noise

        # Equalize by the direct effective gain.
        direct = np.diagonal(gains, axis1=1, axis2=2)  # (S, users)
        direct = np.transpose(direct)[:, :, None]  # (users, S, 1)
        safe = np.where(np.abs(direct) < 1e-12, 1e-12, direct)
        equalized = received / safe
        # Post-equalization noise variance per (user, subcarrier, symbol).
        noise_var = noise_power / np.maximum(np.abs(safe) ** 2, 1e-30)
        noise_var = np.broadcast_to(noise_var, equalized.shape)

        errors = np.zeros(n_users, dtype=np.int64)
        totals = np.zeros(n_users, dtype=np.int64)
        for i in range(n_users):
            rx_bits = self._recover_bits(
                equalized[i].reshape(-1), noise_var[i].reshape(-1), n_sc
            )
            errors[i] = int(np.sum(rx_bits != bits_tx[i]))
            totals[i] = bits_tx[i].size
        return errors, totals

    def _batched_sample_gains(
        self,
        channels: np.ndarray,
        bf_estimates: np.ndarray,
        snr_db: "Sequence[float] | None" = None,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Effective gains for a whole batch in one pass.

        ``channels`` is ``(n, users, S, Nr, Nt)`` and ``bf_estimates``
        ``(n, users, S, Nt)``; returns ``gains`` of shape ``(n, S,
        users, users)`` and the per-sample calibrated noise power
        ``(n,)``.  ``snr_db`` holds one operating SNR per round of
        equally many consecutive samples (default: the configured SNR,
        one round).  Two identities make this cheap relative to the
        reference path's two LAPACK SVD passes and two ZF solves:

        - the combined row is ``u1† H = sigma_1 v1†`` exactly, so one
          closed-form right-singular-pair solve replaces the combiner
          SVD, the ideal-beamformer SVD, and the combining einsum;
        - the ideal ZF diagonal gain is ``sigma_i / sqrt([(V†V)^-1]_ii)``
          (``V† W = (V†V)(V†V)^-1 D = D``), so noise calibration needs
          only the Gram's inverse diagonal, not a ZF solve.

        BER and calibration are invariant to the singular vectors'
        phase gauge, so the two paths agree to machine precision.

        Everything but the calibration is elementwise per sample, or
        sums over an axis of a few antennas or users, so a sample's
        values do not depend on the batch around it.  The calibration
        averages each sample's whole (subcarrier, user) grid, and how
        numpy splits that sum depends on the size of the array it
        reduces, so each round calibrates on its own slice: a round
        measured inside a multi-round pass keeps the bits it has alone.
        """
        if snr_db is None:
            snr_db = [self.config.snr_db]
        n_samples, n_users = channels.shape[:2]
        size = n_samples // len(snr_db)
        ideal_bf, sigma = dominant_right_singular_pair(channels)
        rows = sigma[..., None] * np.conj(ideal_bf)  # (n, u, S, Nt)
        gram = np.moveaxis(ideal_bf, 1, 3)  # (n, S, Nt, u)
        gram = np.einsum("...tu,...tv->...uv", gram.conj(), gram)
        inv_diag = hermitian_inverse_diagonal(gram)  # (n, S, u)
        noise_power = np.empty(n_samples)
        for k, snr in enumerate(snr_db):
            part = slice(k * size, (k + 1) * size)
            diag = np.moveaxis(sigma[part], 1, 2) ** 2 / np.maximum(
                inv_diag[part], 1e-300
            )
            signal_power = diag.mean(axis=(1, 2))
            if np.any(signal_power <= 0):
                raise ShapeError("degenerate channel: zero beamforming gain")
            noise_power[part] = signal_power / snr_db_to_linear(snr)
        h_est = np.moveaxis(bf_estimates, 1, 3)  # (n, S, Nt, u)
        if self.config.precoder == "zf":
            # Fused ZF: gains = (rows Hest) G^-1 D with G = Hest† Hest
            # and D = diag(1/sqrt([G^-1]_jj)) — the precoder column
            # norms are ||Hest G^-1 e_j|| = sqrt([G^-1]_jj), so W never
            # needs to be materialized.
            gram_est = np.einsum("...tu,...tv->...uv", h_est.conj(), h_est)
            inverse = batched_small_inverse(gram_est)
            projected = np.einsum("nist,nstj->nsij", rows, h_est)
            raw_gains = np.einsum("...ij,...jk->...ik", projected, inverse)
            col_norms = np.sqrt(
                np.maximum(
                    np.diagonal(inverse, axis1=-2, axis2=-1).real, 1e-60
                )
            )
            gains = raw_gains / col_norms[..., None, :]
        else:
            # Each sample regularizes at its own round's SNR.
            ridge = np.repeat(
                [self._ridge(n_users, snr) for snr in snr_db], size
            )
            precoder = self._batched_zero_forcing(
                h_est, ridge=ridge[:, None, None, None]
            )
            gains = np.einsum("nist,nstj->nsij", rows, precoder)
        return gains, noise_power

    def _transmit_and_count(
        self,
        gains: np.ndarray,
        noise_power: np.ndarray,
        rngs: "Sequence[np.random.Generator]",
    ) -> tuple[np.ndarray, np.ndarray]:
        """Run payloads through the gains; count errors per (sample, user).

        ``rngs`` holds one generator per round of equally many
        consecutive samples.  Randomness is drawn per sample in the
        reference implementation's order (per-user payload bits, then
        the noise grid) from the sample's round generator, so results
        are bit-identical to the per-sample loop over each round.
        """
        n_samples, n_sc, n_users = gains.shape[0], gains.shape[1], gains.shape[2]
        size = n_samples // len(rngs)
        n_symbols = self.config.n_ofdm_symbols
        coded_bits = n_sc * n_symbols * self.modem.bits_per_symbol
        info_bits = self._info_bits(coded_bits)

        payloads = np.empty((n_samples, n_users, info_bits), dtype=np.int64)
        noise = np.empty(
            (n_samples, n_users, n_sc, n_symbols), dtype=np.complex128
        )
        grid_shape = (n_users, n_sc, n_symbols)
        for j in range(n_samples):
            # Batched draws consume the generator element-by-element
            # exactly like the reference's sequential calls (per-user
            # payloads, then the real and imaginary noise grids), so the
            # streams stay bit-identical.
            rng = rngs[j // size]
            payloads[j] = rng.integers(0, 2, size=(n_users, info_bits))
            scale = np.sqrt(noise_power[j] / 2.0)
            gaussians = rng.standard_normal((2,) + grid_shape)
            noise[j] = scale * (gaussians[0] + 1j * gaussians[1])

        plain = (
            self.code is None
            and self.scrambler is None
            and not self.config.use_interleaver
        )
        tx_labels: np.ndarray | None = None
        if plain:
            tx_labels = self.modem.pack_bit_labels(payloads.reshape(-1))
            symbols = self.modem.constellation[tx_labels].reshape(
                n_samples, n_users, n_sc, n_symbols
            )
        else:
            symbols = self._modulate_payloads(
                payloads, n_sc, n_symbols, coded_bits
            )
        if n_symbols == 1:
            received = np.einsum("nsij,njs->nis", gains, symbols[..., 0])
            received = received[..., None]
        else:
            received = np.einsum("nsij,njst->nist", gains, symbols)
        received += noise

        direct = np.diagonal(gains, axis1=-2, axis2=-1)  # (n, S, users)
        direct = np.moveaxis(direct, -1, 1)[..., None]  # (n, users, S, 1)
        safe = np.where(np.abs(direct) < 1e-12, 1e-12, direct)
        equalized = received / safe
        if not plain:
            # Post-equalization noise variance feeds the soft demapper;
            # the hard-decision hot path never reads it.
            noise_var = noise_power[:, None, None, None] / np.maximum(
                np.abs(safe) ** 2, 1e-30
            )
            noise_var = np.broadcast_to(noise_var, equalized.shape)

        if plain:
            # Hot path: label-domain hard decisions over every stream at
            # once; bit errors via XOR + popcount.
            rx_labels = self.modem.hard_labels(equalized.reshape(-1))
            per_symbol = self.modem.bit_errors_from_labels(
                tx_labels, rx_labels
            )
            errors = per_symbol.reshape(n_samples, n_users, -1).sum(
                axis=-1, dtype=np.int64
            )
        else:
            errors = np.empty((n_samples, n_users), dtype=np.int64)
            for j in range(n_samples):
                for i in range(n_users):
                    rx_bits = self._recover_bits(
                        equalized[j, i].reshape(-1),
                        noise_var[j, i].reshape(-1),
                        n_sc,
                    )
                    errors[j, i] = int(np.sum(rx_bits != payloads[j, i]))
        totals = np.full((n_samples, n_users), info_bits, dtype=np.int64)
        return errors, totals

    def _info_bits(self, coded_bits: int) -> int:
        """Information bits carried by one ``coded_bits`` OFDM grid."""
        if self.code is None:
            return coded_bits
        info_bits = coded_bits // self.code.n_outputs - (
            self.code.constraint_length - 1
        )
        if info_bits <= 0:
            raise ConfigurationError(
                "OFDM grid too small to carry one coded block; "
                "increase n_ofdm_symbols"
            )
        return info_bits

    def _modulate_payloads(
        self,
        payloads: np.ndarray,
        n_sc: int,
        n_symbols: int,
        coded_bits: int,
    ) -> np.ndarray:
        """Map ``(n, users, info_bits)`` payloads to ``(n, users, S, T)``.

        Coded/scrambled path only (the plain path modulates labels
        directly in :meth:`_transmit_and_count`): the Viterbi/LFSR
        helpers are stream-oriented, so encoding runs per stream before
        a single batched modulation.
        """
        n_samples, n_users, _ = payloads.shape
        streams = np.zeros((n_samples, n_users, coded_bits), dtype=np.int64)
        for j in range(n_samples):
            for i in range(n_users):
                stream = payloads[j, i]
                if self.scrambler is not None:
                    stream = self.scrambler.scramble(stream)
                if self.code is not None:
                    stream = self.code.encode(stream)
                if self.config.use_interleaver:
                    padded = np.zeros(coded_bits, dtype=np.int64)
                    padded[: stream.size] = stream
                    streams[j, i] = self._interleaver(n_sc).interleave(padded)
                else:
                    streams[j, i, : stream.size] = stream
        symbols = self.modem.modulate(streams.reshape(-1))
        return symbols.reshape(n_samples, n_users, n_sc, n_symbols)

    def compute_gains(
        self, channels: np.ndarray, bf_estimates: np.ndarray
    ) -> tuple[np.ndarray, float]:
        """Effective gain tensor and calibrated noise power for one sample.

        Returns ``(gains, noise_power)`` with ``gains`` of shape
        ``(S, n_users, n_users)`` — the inputs to the SINR/sum-rate
        metrics in ``repro.phy.metrics``.
        """
        channels = np.asarray(channels, dtype=np.complex128)
        bf_estimates = np.asarray(bf_estimates, dtype=np.complex128)
        if channels.ndim != 4 or bf_estimates.ndim != 3:
            raise ShapeError(
                "compute_gains expects one sample: channels (users, S, Nr, "
                f"Nt) and bf (users, S, Nt); got {channels.shape} / "
                f"{bf_estimates.shape}"
            )
        combiners = dominant_left_singular_vectors(channels)
        rows = np.einsum("isr,isrt->ist", combiners.conj(), channels)
        ideal_bf = beamforming_matrices(channels, n_streams=1)[..., 0]
        ideal_w = self._batched_zero_forcing(np.transpose(ideal_bf, (1, 2, 0)))
        ideal_gains = np.einsum("ist,stj->sij", rows, ideal_w)
        diag = np.abs(np.diagonal(ideal_gains, axis1=1, axis2=2)) ** 2
        signal_power = float(np.mean(diag))
        if signal_power <= 0:
            raise ShapeError("degenerate channel: zero beamforming gain")
        noise_power = signal_power / snr_db_to_linear(self.config.snr_db)
        precoder = self._batched_zero_forcing(
            np.transpose(bf_estimates, (1, 2, 0)),
            ridge=self._ridge(channels.shape[0], self.config.snr_db),
        )
        gains = np.einsum("ist,stj->sij", rows, precoder)
        return gains, noise_power

    def measure_metrics(
        self, channels: np.ndarray, bf_estimates: np.ndarray
    ) -> LinkMetrics:
        """SINR/leakage/sum-rate metrics averaged over a batch of samples.

        Same array conventions as :meth:`measure_ber`; the samples
        combine as in :func:`~repro.phy.metrics.batch_link_metrics`
        (leakage and sum rate are means of per-sample values, min-SINR
        is the batch minimum).  A caller that also needs the BER should
        pass :meth:`measure_ber`'s ``gains``/``noise_power`` to that
        function instead of calling this, which recomputes them.
        """
        channels = np.asarray(channels, dtype=np.complex128)
        bf_estimates = np.asarray(bf_estimates, dtype=np.complex128)
        self._check_shapes(channels, bf_estimates)
        return batch_link_metrics(
            *self._batched_sample_gains(channels, bf_estimates)
        )

    def _ridge(self, n_users: int, snr_db: float) -> "float | None":
        """The precoder's Gram regularizer at one operating SNR.

        ``None`` for ZF.  For RZF, the effective channel's columns are
        unit-norm beamforming vectors (the physical channel gain sits
        outside, in the combining step), so the correctly scaled MMSE
        regularizer is ``n_users / SNR`` — independent of the absolute
        noise power.
        """
        if self.config.precoder != "rzf":
            return None
        return n_users / snr_db_to_linear(snr_db)

    @staticmethod
    def _reference_zero_forcing(h_eq: np.ndarray, ridge: float = 0.0) -> np.ndarray:
        """The seed ZF kernel (LAPACK inverse), frozen for the reference path.

        :meth:`measure_ber_reference` must keep the original per-sample
        arithmetic so equivalence tests and before/after benchmarks
        compare against an unchanging baseline.
        """
        gram = np.einsum("stu,stv->suv", h_eq.conj(), h_eq)
        if ridge:
            gram = gram + ridge * np.eye(gram.shape[-1])[None, :, :]
        try:
            inverse = np.linalg.inv(gram)
        except np.linalg.LinAlgError:
            inverse = np.linalg.pinv(gram)
        raw = np.einsum("stu,suv->stv", h_eq, inverse)
        norms = np.linalg.norm(raw, axis=1, keepdims=True)
        return raw / np.maximum(norms, 1e-30)

    def _batched_zero_forcing(
        self, h_eq: np.ndarray, ridge: "float | np.ndarray | None" = None
    ) -> np.ndarray:
        """Column-normalized (R)ZF precoders for a batch ``(..., Nt, users)``.

        Leading axes (subcarriers, or samples x subcarriers) are all
        batched through one gram/inverse/apply pass.  ``ridge`` (RZF) is
        a scalar or an array that broadcasts against the leading axes.
        """
        gram = np.einsum("...tu,...tv->...uv", h_eq.conj(), h_eq)
        if ridge is not None:
            gram = gram + ridge * np.eye(gram.shape[-1])
        raw = np.einsum("...tu,...uv->...tv", h_eq, batched_small_inverse(gram))
        norms = np.linalg.norm(raw, axis=-2, keepdims=True)
        return raw / np.maximum(norms, 1e-30)

    def _generate_payloads(
        self,
        n_users: int,
        n_sc: int,
        n_symbols: int,
        rng: np.random.Generator,
    ) -> tuple[list[np.ndarray], np.ndarray]:
        """Random (optionally coded) payloads mapped onto the OFDM grid.

        Returns the list of transmitted *information* bits per user and a
        ``(users, S, T)`` complex symbol grid.
        """
        bps = self.modem.bits_per_symbol
        coded_bits = n_sc * n_symbols * bps
        info_bits = self._info_bits(coded_bits)

        tx_bits: list[np.ndarray] = []
        grids = np.empty((n_users, n_sc, n_symbols), dtype=np.complex128)
        for i in range(n_users):
            payload = rng.integers(0, 2, size=info_bits)
            stream = payload
            if self.scrambler is not None:
                stream = self.scrambler.scramble(stream)
            if self.code is not None:
                stream = self.code.encode(stream)
            if stream.size != coded_bits:
                # Zero-pad any residue (whole-symbol granularity).
                padded = np.zeros(coded_bits, dtype=np.int64)
                padded[: stream.size] = stream
                stream = padded
            if self.config.use_interleaver:
                stream = self._interleaver(n_sc).interleave(stream)
            symbols = self.modem.modulate(stream)
            grids[i] = symbols.reshape(n_sc, n_symbols)
            tx_bits.append(payload)
        return tx_bits, grids

    def _recover_bits(
        self,
        symbols: np.ndarray,
        noise_var: np.ndarray,
        n_subcarriers: int,
    ) -> np.ndarray:
        """Demodulate (and decode) a user's flattened symbol stream.

        ``noise_var`` carries the per-symbol post-equalization noise
        variance used by the soft demapper.
        """
        if self.config.soft_decoding and self.code is not None:
            llrs = self.modem.llr(symbols, noise_var)
            if self.config.use_interleaver:
                llrs = self._interleaver(n_subcarriers).deinterleave(llrs)
            bits = self.code.decode_soft(llrs)
        else:
            hard = self.modem.demodulate(symbols)
            if self.config.use_interleaver:
                hard = self._interleaver(n_subcarriers).deinterleave(hard)
            bits = hard if self.code is None else self.code.decode(hard)
        if self.scrambler is not None:
            bits = self.scrambler.descramble(bits)
        return bits
