"""``ar1_filter`` and ``j0`` against the scipy routines they replace.

The channel models used ``scipy.signal.lfilter`` for the AR(1) tap and
shadowing recursions and ``scipy.special.j0`` for the Jakes coefficient.
Their NumPy / pure-Python replacements must give the same bits, or every
sampled dataset would drift; scipy is only a test reference, so these
tests skip without it.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.channels.doppler import ar1_filter, j0


def _lfilter_ar1(x: np.ndarray, rho: float, zi) -> np.ndarray:
    signal = pytest.importorskip("scipy.signal")
    zi = np.reshape(zi, (1,) + x.shape[1:])
    series, _ = signal.lfilter([1.0], [1.0, -rho], x, axis=0, zi=zi)
    return series


def _draw(rng: np.random.Generator, shape: tuple[int, ...], complex_: bool):
    values = rng.standard_normal(shape)
    if complex_:
        values = values + 1j * rng.standard_normal(shape)
    return values


def _assert_same_bits(x: np.ndarray, rho: float, zi) -> None:
    expected = _lfilter_ar1(x, rho, zi)
    got = ar1_filter(x, rho, zi)
    assert got.dtype == expected.dtype
    assert got.shape == expected.shape
    assert got.tobytes() == expected.tobytes()


class TestAr1FilterMatchesLfilter:
    def test_shadowing_track(self):
        # ShadowingProcess.sample: a 1-D real series, scalar initial state.
        rng = np.random.default_rng(0)
        x = 0.13 * rng.standard_normal(256)
        _assert_same_bits(x, float(np.exp(-1e-3 / 0.5)), 0.99 * 1.7)

    def test_tap_gains(self):
        # TgacChannel.sample: (n, taps, Nr, Nt) complex innovations.
        rng = np.random.default_rng(1)
        x = 0.2 * _draw(rng, (256, 7, 4, 4), complex_=True)
        zi = 0.98 * _draw(rng, (7, 4, 4), complex_=True)
        _assert_same_bits(x, 0.98, zi)

    @pytest.mark.parametrize("complex_", [False, True])
    def test_single_step(self, complex_):
        rng = np.random.default_rng(2)
        x = _draw(rng, (1, 3, 2), complex_)
        _assert_same_bits(x, 0.5, _draw(rng, (3, 2), complex_))

    @pytest.mark.parametrize("complex_", [False, True])
    def test_static_channel_rho(self, complex_):
        # jakes_ar1_coefficient clips a static channel to 1 - 1e-12.
        rng = np.random.default_rng(3)
        x = _draw(rng, (500, 2, 2), complex_)
        _assert_same_bits(x, 1.0 - 1e-12, _draw(rng, (2, 2), complex_))

    def test_random_shapes(self):
        rng = np.random.default_rng(4)
        for _ in range(300):
            ndim = int(rng.integers(1, 5))
            shape = tuple(int(n) for n in rng.integers(1, 7, size=ndim))
            complex_ = bool(rng.integers(2))
            scale = 10.0 ** rng.uniform(-6, 6)
            x = scale * _draw(rng, shape, complex_)
            zi = scale * _draw(rng, shape[1:], complex_)
            _assert_same_bits(x, float(rng.uniform(0.0, 1.0)), zi)

    @given(
        n=st.integers(1, 40),
        tail=st.lists(st.integers(1, 4), max_size=3),
        complex_=st.booleans(),
        rho=st.floats(0.0, 1.0 - 1e-12),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_property(self, n, tail, complex_, rho, seed):
        rng = np.random.default_rng(seed)
        shape = (n, *tail)
        _assert_same_bits(
            _draw(rng, shape, complex_), rho, _draw(rng, shape[1:], complex_)
        )


def _j0_grid() -> np.ndarray:
    """Both signs of a dense grid, a geometric grid and the branch points."""
    branch_points = []
    for point in (1e-5, 5.0):
        below = np.nextafter(point, 0.0) - np.arange(500) * np.spacing(point)
        above = point + np.arange(501) * np.spacing(point)
        near = point * np.linspace(0.999, 1.001, 20_001)
        branch_points += [below, above, near]
    positive = np.concatenate(
        [
            np.linspace(0.0, 50.0, 200_001),
            np.geomspace(1e-12, 1e3, 200_001),
            *branch_points,
        ]
    )
    return np.concatenate([positive, -positive])


class TestJ0MatchesScipy:
    def test_dense_grid(self):
        special = pytest.importorskip("scipy.special")
        grid = _j0_grid()
        got = np.array([j0(x) for x in grid.tolist()])
        expected = special.j0(grid)
        mismatched = grid[got.view(np.uint64) != expected.view(np.uint64)]
        assert mismatched.size == 0, mismatched[:10]

    def test_non_finite(self):
        special = pytest.importorskip("scipy.special")
        for x in (math.inf, -math.inf, math.nan):
            assert math.isnan(j0(x))
            assert math.isnan(special.j0(x))

    def test_small_argument_branch(self):
        # Below 1e-5 Cephes returns 1 - x**2 / 4 without the rational fit.
        assert j0(1e-6) == 1.0 - 1e-6 * 1e-6 / 4.0
        assert j0(0.0) == j0(-0.0) == 1.0

    def test_accepts_numpy_scalars(self):
        assert j0(np.float64(2.5)) == j0(2.5)
        assert type(j0(np.float64(2.5))) is float
