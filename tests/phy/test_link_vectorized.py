"""Batched LinkSimulator vs the frozen per-sample reference path.

``measure_ber`` draws its randomness in the reference implementation's
generator order and pins the singular-vector phase gauge to the
standard's convention, so the two paths must report identical error
counts for equal seeds — across precoders, coding options, antenna
shapes, and QAM orders.  The fast linear-algebra kernels feeding the
batched path are checked against their LAPACK twins here too.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

from repro.errors import ConfigurationError, ShapeError
from repro.phy.link import BerResult, LinkConfig, LinkSimulator
from repro.phy.svd import (
    beamforming_matrices,
    dominant_left_singular_vectors,
    dominant_right_singular_pair,
    dominant_singular_pair,
    jacobi_hermitian_eig,
)
from repro.utils.complexmat import (
    batched_small_inverse,
    hermitian_inverse_diagonal,
)


def random_link(rng, n, users, n_sc, n_rx, n_tx, perturb=0.05):
    shape = (n, users, n_sc, n_rx, n_tx)
    channels = (
        rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    ) / np.sqrt(2.0)
    bf = beamforming_matrices(channels, n_streams=1)[..., 0]
    bf = bf + perturb * (
        rng.standard_normal(bf.shape) + 1j * rng.standard_normal(bf.shape)
    )
    return channels, bf


class TestMeasureBerEquivalence:
    @pytest.mark.parametrize(
        "config",
        [
            LinkConfig(),
            LinkConfig(precoder="rzf"),
            LinkConfig(qam_order=64),
            LinkConfig(n_ofdm_symbols=2),
            LinkConfig(use_coding=True, n_ofdm_symbols=4),
            LinkConfig(
                use_coding=True,
                use_scrambler=True,
                use_interleaver=True,
                n_ofdm_symbols=4,
            ),
            LinkConfig(
                use_coding=True,
                soft_decoding=True,
                qam_order=4,
                n_ofdm_symbols=4,
            ),
        ],
    )
    def test_counts_match_reference(self, rng, config):
        channels, bf = random_link(rng, 3, 2, 16, 2, 3)
        simulator = LinkSimulator(config)
        fast = simulator.measure_ber(channels, bf, rng=123)
        seed = simulator.measure_ber_reference(channels, bf, rng=123)
        assert fast.bit_errors == seed.bit_errors
        assert fast.total_bits == seed.total_bits
        assert np.array_equal(fast.per_user_ber, seed.per_user_ber)

    @pytest.mark.parametrize(
        "users,n_sc,n_rx,n_tx",
        [(1, 8, 1, 2), (2, 16, 1, 3), (3, 12, 3, 3), (2, 10, 4, 4)],
    )
    def test_shapes_match_reference(self, rng, users, n_sc, n_rx, n_tx):
        channels, bf = random_link(rng, 4, users, n_sc, n_rx, n_tx)
        simulator = LinkSimulator(LinkConfig())
        fast = simulator.measure_ber(channels, bf, rng=7)
        seed = simulator.measure_ber_reference(channels, bf, rng=7)
        assert fast.bit_errors == seed.bit_errors
        assert np.array_equal(fast.per_user_ber, seed.per_user_ber)

    def test_empty_batch(self):
        simulator = LinkSimulator(LinkConfig())
        channels = np.zeros((0, 2, 8, 1, 2), dtype=np.complex128)
        bf = np.zeros((0, 2, 8, 2), dtype=np.complex128)
        result = simulator.measure_ber(channels, bf)
        assert isinstance(result, BerResult)
        assert result.total_bits == 0
        assert result.ber == 0.0

    def test_metrics_match_reference_gains(self, rng):
        from repro.phy.metrics import compute_link_metrics

        channels, bf = random_link(rng, 3, 2, 12, 2, 3)
        simulator = LinkSimulator(LinkConfig())
        batched = simulator.measure_metrics(channels, bf)
        per_sample = [
            compute_link_metrics(*simulator.compute_gains(channels[j], bf[j]))
            for j in range(channels.shape[0])
        ]
        assert batched.mean_sinr_db == pytest.approx(
            float(np.mean([m.mean_sinr_db for m in per_sample])), rel=1e-9
        )
        assert batched.sum_rate_bps_per_hz == pytest.approx(
            float(np.mean([m.sum_rate_bps_per_hz for m in per_sample])),
            rel=1e-9,
        )


def assert_same_result(batched, alone):
    assert batched.bit_errors == alone.bit_errors
    assert batched.total_bits == alone.total_bits
    assert batched.per_user_ber.tobytes() == alone.per_user_ber.tobytes()
    assert batched.gains.tobytes() == alone.gains.tobytes()
    assert batched.noise_power.tobytes() == alone.noise_power.tobytes()


class TestMultiRoundPass:
    """``measure_ber(..., links=...)``: one pass, each round's own bits."""

    @staticmethod
    def round_links(rng, config, n_rounds):
        return [
            replace(
                config,
                snr_db=float(rng.uniform(0.0, 30.0)),
                seed=int(rng.integers(1, 2**31 - 1)),
            )
            for _ in range(n_rounds)
        ]

    @pytest.mark.parametrize(
        "config",
        [
            LinkConfig(),
            LinkConfig(precoder="rzf"),
            LinkConfig(use_coding=True, use_interleaver=True),
            LinkConfig(n_ofdm_symbols=2, qam_order=64),
        ],
    )
    @pytest.mark.parametrize("users,n_sc,n_rx,n_tx", [(1, 56, 1, 2), (3, 114, 2, 3)])
    def test_each_round_equals_its_own_measurement(
        self, rng, config, users, n_sc, n_rx, n_tx
    ):
        n_rounds, size = 6, 3
        channels, bf = random_link(rng, n_rounds * size, users, n_sc, n_rx, n_tx)
        links = self.round_links(rng, config, n_rounds)
        batched = LinkSimulator(links[0]).measure_ber(channels, bf, links=links)
        assert len(batched) == n_rounds
        for k, link in enumerate(links):
            part = slice(k * size, (k + 1) * size)
            alone = LinkSimulator(link).measure_ber(channels[part], bf[part])
            assert_same_result(batched[k], alone)

    def test_one_link_is_the_single_round_pass(self, rng):
        channels, bf = random_link(rng, 5, 2, 56, 1, 2)
        config = LinkConfig(snr_db=12.5, seed=99)
        (batched,) = LinkSimulator(config).measure_ber(
            channels, bf, links=[config]
        )
        assert_same_result(batched, LinkSimulator(config).measure_ber(channels, bf))

    def test_empty_batch_gives_one_empty_result_per_round(self):
        channels = np.zeros((0, 2, 8, 1, 2), dtype=np.complex128)
        bf = np.zeros((0, 2, 8, 2), dtype=np.complex128)
        links = [LinkConfig(seed=1), LinkConfig(seed=2)]
        results = LinkSimulator().measure_ber(channels, bf, links=links)
        assert [r.total_bits for r in results] == [0, 0]

    def test_rejects_inconsistent_rounds(self, rng):
        channels, bf = random_link(rng, 4, 2, 8, 1, 2)
        simulator = LinkSimulator(LinkConfig())
        with pytest.raises(ConfigurationError, match="seeds"):
            simulator.measure_ber(channels, bf, rng=1, links=[LinkConfig()])
        with pytest.raises(ShapeError, match="equal rounds"):
            simulator.measure_ber(channels, bf, links=[LinkConfig()] * 3)
        with pytest.raises(ShapeError, match="equal rounds"):
            simulator.measure_ber(channels, bf, links=[])
        with pytest.raises(ConfigurationError, match="snr_db and seed only"):
            simulator.measure_ber(
                channels, bf, links=[LinkConfig(), LinkConfig(qam_order=64)]
            )


class TestFastKernels:
    @pytest.mark.parametrize(
        "n_rx,n_tx", [(1, 2), (1, 4), (2, 2), (2, 3), (3, 2), (3, 3), (4, 4)]
    )
    def test_dominant_singular_pair_matches_lapack(self, rng, n_rx, n_tx):
        shape = (500, n_rx, n_tx)
        channels = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        u1, v1 = dominant_singular_pair(channels)
        np.testing.assert_allclose(
            u1, dominant_left_singular_vectors(channels), atol=1e-10
        )
        np.testing.assert_allclose(
            v1,
            beamforming_matrices(channels, n_streams=1)[..., 0],
            atol=1e-10,
        )

    def test_dominant_right_pair_sigma(self, rng):
        channels = rng.standard_normal((300, 3, 3)) + 1j * rng.standard_normal(
            (300, 3, 3)
        )
        _, sigma = dominant_right_singular_pair(channels)
        reference = np.linalg.svd(channels, compute_uv=False)[..., 0]
        np.testing.assert_allclose(sigma, reference, rtol=1e-10)

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_jacobi_matches_eigh(self, rng, n):
        raw = rng.standard_normal((200, n, n)) + 1j * rng.standard_normal(
            (200, n, n)
        )
        gram = raw @ raw.conj().swapaxes(-1, -2)
        values, vectors, converged = jacobi_hermitian_eig(gram)
        assert converged
        reference = np.sort(np.linalg.eigvalsh(gram), axis=-1)
        np.testing.assert_allclose(
            np.sort(values, axis=-1), reference, rtol=1e-9, atol=1e-9
        )
        # Columns diagonalize the gram.
        rebuilt = np.einsum(
            "...ij,...j,...kj->...ik", vectors, values, vectors.conj()
        )
        np.testing.assert_allclose(rebuilt, gram, atol=1e-9)

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_batched_small_inverse(self, rng, n):
        raw = rng.standard_normal((300, n, n)) + 1j * rng.standard_normal(
            (300, n, n)
        )
        matrices = raw @ raw.conj().swapaxes(-1, -2) + 0.5 * np.eye(n)
        inverse = batched_small_inverse(matrices)
        np.testing.assert_allclose(
            inverse @ matrices, np.broadcast_to(np.eye(n), matrices.shape),
            atol=1e-9,
        )
        np.testing.assert_allclose(
            hermitian_inverse_diagonal(matrices),
            np.diagonal(inverse, axis1=-2, axis2=-1).real,
            rtol=1e-9,
            atol=1e-12,
        )

    def test_rank_one_channel_with_zero_last_entry(self):
        # angle(0) = 0 means gauge phase 1, not a zero scale.
        channels = np.array([[[1.0 + 0.0j, 0.0 + 0.0j]]])
        u1, v1 = dominant_singular_pair(channels)
        np.testing.assert_allclose(v1, [[1.0, 0.0]], atol=1e-12)
        np.testing.assert_allclose(
            v1, beamforming_matrices(channels, n_streams=1)[..., 0], atol=1e-12
        )
        np.testing.assert_allclose(np.abs(u1), [[1.0]], atol=1e-12)

    def test_singular_matrices_fall_back_to_pinv(self):
        singular = np.zeros((4, 3, 3), dtype=np.complex128)
        singular[:, 0, 0] = 1.0  # rank one
        inverse = batched_small_inverse(singular)
        np.testing.assert_allclose(inverse, np.linalg.pinv(singular), atol=1e-12)
