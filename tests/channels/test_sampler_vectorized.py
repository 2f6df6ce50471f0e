"""Vectorized channel sampling vs the frozen per-packet reference.

The vectorized sampler consumes the session RNG (spawn, placement,
per-packet drop draws) exactly like the seed loop, so packet-drop
patterns — and therefore the sequence numbers driving multi-user
alignment — are identical per seed.  Channel realizations draw their
innovations in a different (batched) order and are compared
statistically; the shadowing AR(1) recursion evaluates the stepwise
path's arithmetic step for step, so only its final dB-to-linear power
may round differently.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.channels.doppler import ShadowingProcess
from repro.channels.environment import E1, E2, SYNTHETIC
from repro.channels.sampler import CsiSampler
from repro.channels.tgac import MODEL_B, TgacChannel
from repro.errors import ConfigurationError
from repro.perf.reference import reference_collect_session
from repro.phy.ofdm import band_plan


def make_sampler(env=E1, seed=5, **kwargs):
    defaults = dict(
        env=env, n_users=2, n_rx=1, n_tx=2, band=band_plan(20), rng=seed
    )
    defaults.update(kwargs)
    return CsiSampler(**defaults)


class TestSamplerEquivalence:
    @pytest.mark.parametrize("env", [E1, E2, SYNTHETIC])
    def test_sequences_match_reference(self, env):
        fast = make_sampler(env=env, seed=11).collect_session(60)
        seed = reference_collect_session(make_sampler(env=env, seed=11), 60)
        for fast_batch, seed_batch in zip(fast, seed):
            assert np.array_equal(fast_batch.sequence, seed_batch.sequence)
            assert fast_batch.csi.shape == seed_batch.csi.shape

    def test_chunking_is_invisible(self):
        small = make_sampler(seed=3).collect_session(40, chunk_size=7)
        large = make_sampler(seed=3).collect_session(40, chunk_size=4096)
        for a, b in zip(small, large):
            assert np.array_equal(a.sequence, b.sequence)
            # Same drop pattern; channel draws are chunk-order dependent,
            # so only the statistics must agree.
            assert a.csi.shape == b.csi.shape

    def test_statistics_match_reference(self):
        fast = make_sampler(env=SYNTHETIC, seed=2).collect_session(200)
        seed = reference_collect_session(
            make_sampler(env=SYNTHETIC, seed=2), 200
        )
        fast_power = np.mean([np.mean(np.abs(b.csi) ** 2) for b in fast])
        seed_power = np.mean([np.mean(np.abs(b.csi) ** 2) for b in seed])
        assert fast_power == pytest.approx(seed_power, rel=0.2)

    def test_invalid_chunk_size(self):
        with pytest.raises(ConfigurationError):
            make_sampler().collect_session(10, chunk_size=0)


class TestChannelBlockSampling:
    def _channel(self, **kwargs):
        defaults = dict(
            profile=MODEL_B,
            n_rx=2,
            n_tx=2,
            band=band_plan(20),
            doppler_hz=5.0,
            rng=9,
        )
        defaults.update(kwargs)
        return TgacChannel(**defaults)

    def test_deterministic(self):
        assert np.array_equal(
            self._channel().sample(12), self._channel().sample(12)
        )

    def test_state_advances_between_blocks(self):
        channel = self._channel()
        first = channel.sample(6)
        second = channel.sample(6)
        assert not np.allclose(first[-1], second[0])
        # Consecutive blocks stay temporally correlated (AR(1) carries
        # the state across the block boundary).
        a, b = first[-1].ravel(), second[0].ravel()
        corr = np.abs(np.vdot(a, b)) / (
            np.linalg.norm(a) * np.linalg.norm(b)
        )
        assert corr > 0.5

    def test_unit_average_power(self):
        blocks = [self._channel(rng=k).sample(40) for k in range(4)]
        power = np.mean(np.abs(np.concatenate(blocks)) ** 2)
        assert power == pytest.approx(1.0, rel=0.2)

    def test_rician_block_matches_los_structure(self):
        los = self._channel(rician_k_db=15.0, rng=4).sample(20)
        nlos = self._channel(rng=4).sample(20)
        assert np.std(np.abs(los)) < np.std(np.abs(nlos))


class TestShadowingBlockSampling:
    def test_matches_step_to_rounding(self):
        stepped = ShadowingProcess(3.0, 0.5, 1e-3, rng=1)
        blocked = ShadowingProcess(3.0, 0.5, 1e-3, rng=1)
        a = np.array([stepped.step() for _ in range(100)])
        b = blocked.sample(100)
        # Same draws, same recursion; only the dB-to-linear power runs
        # as an array operation, which may round in the last place.
        np.testing.assert_allclose(a, b, rtol=1e-12)

    def test_state_continues_across_blocks(self):
        stepped = ShadowingProcess(2.0, 0.2, 1e-3, rng=3)
        blocked = ShadowingProcess(2.0, 0.2, 1e-3, rng=3)
        a = np.array([stepped.step() for _ in range(30)])
        b = np.concatenate([blocked.sample(10) for _ in range(3)])
        assert np.allclose(a, b, rtol=1e-12)

    def test_disabled_is_ones(self):
        assert np.array_equal(
            ShadowingProcess(0.0, 1.0, 1e-3, rng=0).sample(5), np.ones(5)
        )

    def test_invalid_count(self):
        with pytest.raises(ConfigurationError):
            ShadowingProcess(1.0, 1.0, 1e-3, rng=0).sample(0)
