"""The fused link pass: one gain computation serves BER and SINR metrics.

``session_round`` derives its SINR from the gains ``measure_ber``
already computed, through :func:`batch_mean_sinr_db` — the
``mean_sinr_db`` of :func:`batch_link_metrics`, alone.  Both must equal
the two-pass computation they replace exactly (``==``, not approx):
``measure_ber(...).ber`` and the per-sample average of
:func:`compute_link_metrics` over the link simulator's batched gains.
The simulator's gain tensors are not C-ordered, so these tests also pin
that every per-sample reduction sums in the same order as before.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.baselines.dot11 import Dot11Feedback
from repro.errors import ShapeError
from repro.phy.link import LinkConfig, LinkSimulator
from repro.phy.metrics import (
    batch_link_metrics,
    batch_mean_sinr_db,
    compute_link_metrics,
)
from repro.phy.svd import beamforming_matrices
from repro.runtime.tasks import session_round

N_TX, N_RX = 3, 2
SUBCARRIERS = (56, 114, 242)
PRECODERS = ("zf", "rzf")


def random_channels(rng, n, users, n_sc):
    shape = (n, users, n_sc, N_RX, N_TX)
    return (
        rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    ) / np.sqrt(2.0)


def random_config(rng, precoder):
    return LinkConfig(
        precoder=precoder,
        snr_db=float(rng.uniform(5.0, 30.0)),
        seed=int(rng.integers(1, 2**31 - 1)),
    )


def per_sample_average(gains, noise_power):
    """The pre-fusion ``measure_metrics``: a loop of per-sample metrics."""
    per_sample = [
        compute_link_metrics(gains[j], float(noise_power[j]))
        for j in range(gains.shape[0])
    ]
    return {
        "mean_sinr_db": float(np.mean([m.mean_sinr_db for m in per_sample])),
        "min_sinr_db": float(np.min([m.min_sinr_db for m in per_sample])),
        "leakage": float(np.mean([m.leakage for m in per_sample])),
        "sum_rate_bps_per_hz": float(
            np.mean([m.sum_rate_bps_per_hz for m in per_sample])
        ),
    }


def as_fields(metrics):
    return {
        "mean_sinr_db": metrics.mean_sinr_db,
        "min_sinr_db": metrics.min_sinr_db,
        "leakage": metrics.leakage,
        "sum_rate_bps_per_hz": metrics.sum_rate_bps_per_hz,
    }


class TestSessionRoundFusedPass:
    @pytest.mark.parametrize("n_sc", SUBCARRIERS)
    @pytest.mark.parametrize("precoder", PRECODERS)
    def test_equals_two_pass_computation(self, precoder, n_sc):
        rng = np.random.default_rng([n_sc, PRECODERS.index(precoder)])
        for users in (1, 2, 3):
            for n_samples in range(1, 10):
                channels = random_channels(rng, n_samples, users, n_sc)
                bf_true = beamforming_matrices(channels, n_streams=1)[..., 0]
                config = random_config(rng, precoder)
                measured = session_round(
                    {
                        "channels": channels,
                        "link_config": config,
                        "scheme": {
                            "kind": "dot11",
                            "bits": 1,
                            "bf_true": bf_true,
                        },
                    }
                )
                bf = Dot11Feedback().quantize_reconstruct(bf_true)
                simulator = LinkSimulator(config)
                gains, noise_power = simulator._batched_sample_gains(
                    channels, bf
                )
                case = (users, n_samples)
                assert measured["ber"] == simulator.measure_ber(
                    channels, bf
                ).ber, case
                assert (
                    measured["mean_sinr_db"]
                    == per_sample_average(gains, noise_power)["mean_sinr_db"]
                ), case


class TestBatchLinkMetrics:
    @pytest.mark.parametrize("n_sc", SUBCARRIERS)
    @pytest.mark.parametrize("precoder", PRECODERS)
    def test_equals_per_sample_average_on_link_gains(self, precoder, n_sc):
        rng = np.random.default_rng([7, n_sc, PRECODERS.index(precoder)])
        simulator = LinkSimulator(random_config(rng, precoder))
        for users in (1, 2, 3):
            for n_samples in range(1, 10):
                channels = random_channels(rng, n_samples, users, n_sc)
                bf = beamforming_matrices(channels, n_streams=1)[..., 0]
                bf = bf + 0.1 * (
                    rng.standard_normal(bf.shape)
                    + 1j * rng.standard_normal(bf.shape)
                )
                gains, noise_power = simulator._batched_sample_gains(
                    channels, bf
                )
                assert as_fields(
                    batch_link_metrics(gains, noise_power)
                ) == per_sample_average(gains, noise_power), (users, n_samples)

    def test_equals_per_sample_average_on_c_ordered_gains(self, rng):
        for users in (1, 2, 3, 4):
            gains = rng.standard_normal(
                (5, 114, users, users)
            ) + 1j * rng.standard_normal((5, 114, users, users))
            noise_power = rng.uniform(0.01, 1.0, 5)
            assert as_fields(
                batch_link_metrics(gains, noise_power)
            ) == per_sample_average(gains, noise_power)

    def test_measure_metrics_uses_the_batch_function(self, rng):
        channels = random_channels(rng, 4, 2, 56)
        bf = beamforming_matrices(channels, n_streams=1)[..., 0]
        simulator = LinkSimulator(LinkConfig())
        assert simulator.measure_metrics(channels, bf) == batch_link_metrics(
            *simulator._batched_sample_gains(channels, bf)
        )

    def test_rejects_bad_batches(self):
        gains = np.ones((2, 8, 2, 2), dtype=np.complex128)
        with pytest.raises(ShapeError):
            batch_link_metrics(gains[0], np.ones(2))
        with pytest.raises(ShapeError):
            batch_link_metrics(gains, np.ones(3))
        with pytest.raises(ShapeError):
            batch_link_metrics(gains[:0], np.ones(0))
        with pytest.raises(ShapeError):
            batch_link_metrics(gains, np.array([0.1, -0.1]))


class TestMeanSinrOnly:
    """The SINR a round reports, without the reductions it discards."""

    @pytest.mark.parametrize("n_sc", (56, 114))  # 20 and 40 MHz
    @pytest.mark.parametrize("precoder", PRECODERS)
    def test_equals_batch_link_metrics_on_link_gains(self, precoder, n_sc):
        rng = np.random.default_rng([11, n_sc, PRECODERS.index(precoder)])
        for users in (1, 2, 3):
            for n_samples in range(1, 10):
                channels = random_channels(rng, n_samples, users, n_sc)
                bf_true = beamforming_matrices(channels, n_streams=1)[..., 0]
                bf = Dot11Feedback().quantize_reconstruct(bf_true)
                measured = LinkSimulator(
                    random_config(rng, precoder)
                ).measure_ber(channels, bf)
                # The simulator's gains, exactly as a round reduces them
                # (one user's (n, S, 1, 1) tensor is trivially C-ordered).
                assert measured.gains.flags.c_contiguous == (users == 1)
                assert batch_mean_sinr_db(
                    measured.gains, measured.noise_power
                ) == batch_link_metrics(
                    measured.gains, measured.noise_power
                ).mean_sinr_db, (users, n_samples)

    def test_rejects_bad_batches(self):
        gains = np.ones((2, 8, 2, 2), dtype=np.complex128)
        with pytest.raises(ShapeError):
            batch_mean_sinr_db(gains[0], np.ones(2))
        with pytest.raises(ShapeError):
            batch_mean_sinr_db(gains[:0], np.ones(0))


class TestBerResultCarriesGains:
    def test_measure_ber_returns_its_gains(self, rng):
        channels = random_channels(rng, 3, 2, 56)
        bf = beamforming_matrices(channels, n_streams=1)[..., 0]
        simulator = LinkSimulator(LinkConfig())
        result = simulator.measure_ber(channels, bf)
        gains, noise_power = simulator._batched_sample_gains(channels, bf)
        assert np.array_equal(result.gains, gains)
        assert np.array_equal(result.noise_power, noise_power)

    def test_reference_path_leaves_them_unset(self, rng):
        channels = random_channels(rng, 2, 2, 56)
        bf = beamforming_matrices(channels, n_streams=1)[..., 0]
        result = LinkSimulator(LinkConfig()).measure_ber_reference(channels, bf)
        assert result.gains is None
        assert result.noise_power is None
