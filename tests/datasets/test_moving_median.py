"""``moving_median`` against the per-step loop it replaced.

Every dataset build smooths its CSI through the moving median, so the
sorted-window pass must give the loop's bits, or every sampled dataset
would drift.  The loop is frozen as
:func:`repro.perf.reference.reference_moving_median`.  Where an input
holds NaN, the NaNs must land where the loop puts them; their sign and
payload are not pinned.
"""

from __future__ import annotations

import tracemalloc

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.datasets.preprocess import moving_median
from repro.perf.reference import reference_moving_median

#: Values that tie inside a window: both signed zeros and small integers.
_TIES = np.array([-0.0, 0.0, -1.0, 1.0, 2.0])


def _part(rng: np.random.Generator, shape: tuple, kind: str) -> np.ndarray:
    if kind == "ties":
        return rng.choice(_TIES, size=shape)
    if kind == "integers":
        return rng.integers(-3, 4, size=shape).astype(np.float64)
    return rng.standard_normal(shape)


def _assert_matches_reference(csi: np.ndarray, window: int) -> None:
    with np.errstate(invalid="ignore"):  # the loop's 0 * inf, inf - inf
        expected = reference_moving_median(csi, window)
        got = moving_median(csi, window)
    assert got.dtype == expected.dtype
    assert got.shape == expected.shape
    nan = np.isnan(expected)
    assert np.array_equal(np.isnan(got), nan)
    assert np.array_equal(
        got[~nan].view(np.uint64), expected[~nan].view(np.uint64)
    )


_KINDS = st.sampled_from(["normal", "ties", "integers"])


@st.composite
def _stream(draw):
    """(csi, window): 1-5 dims, n from 1 to 3 windows (shorter than one too)."""
    window = draw(st.integers(1, 20))
    n = draw(st.integers(1, 3 * window))
    tail = tuple(draw(st.lists(st.integers(1, 3), max_size=4)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    csi = np.empty((n, *tail), dtype=np.complex128)
    # Part by part: re + 1j * im would turn a -0.0 real part into +0.0.
    csi.real = _part(rng, csi.shape, draw(_KINDS))
    csi.imag = _part(rng, csi.shape, draw(_KINDS))
    return csi, window


class TestMatchesReference:
    @settings(max_examples=200)
    @given(_stream())
    def test_bits_on_nan_free_input(self, stream):
        _assert_matches_reference(*stream)

    @settings(max_examples=100)
    @given(
        _stream(),
        st.floats(0.01, 0.3),
        st.sampled_from([np.nan, -np.nan, np.inf, -np.inf]),
        st.integers(0, 2**32 - 1),
    )
    def test_nan_lands_where_the_loop_puts_it(self, stream, share, value, seed):
        csi, window = stream
        rng = np.random.default_rng(seed)
        csi.real[rng.random(csi.shape) < share] = value
        csi.imag[rng.random(csi.shape) < share] = value
        _assert_matches_reference(csi, window)

    def test_negative_zero_middle_pair_gives_positive_zero(self):
        # np.median averages through np.mean, whose sum starts at +0.0:
        # a middle pair of -0.0 gives +0.0, where (lo + hi) / 2 gives -0.0.
        csi = np.full((12, 3), complex(-0.0, -0.0))
        for window in (1, 2, 3, 10):
            _assert_matches_reference(csi, window)
        smoothed = moving_median(csi, 10)
        assert not np.signbit(smoothed.real).any()
        assert not np.signbit(smoothed.imag).any()


def test_calls_no_np_median(monkeypatch):
    # np.median's NaN check imports numpy.ma, which a cold dataset build
    # would pay for the truncated rows alone.
    rng = np.random.default_rng(3)
    cases = []
    for n in (4, 25):  # shorter and longer than the window
        for tail in ((), (5, 1, 2)):  # a 1-D stream stays an array
            csi = rng.standard_normal((n, *tail)) + 1j * rng.standard_normal(
                (n, *tail)
            )
            cases.append((csi, reference_moving_median(csi, 10)))

    def forbidden(*args, **kwargs):
        raise AssertionError("moving_median called np.median")

    monkeypatch.setattr(np, "median", forbidden)
    for csi, expected in cases:
        assert moving_median(csi, 10).tobytes() == expected.tobytes()


def test_peak_memory_stays_under_twice_the_batch():
    # A PAPER-size D15 batch: 640 packets x 484 tones x 1 x 4.  Sorting
    # every window at once would hold about 5x the batch.
    rng = np.random.default_rng(6)
    shape = (640, 484, 1, 4)
    csi = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    tracemalloc.start()
    try:
        moving_median(csi, 10)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 * csi.nbytes
