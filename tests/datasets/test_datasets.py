"""Tests for the dataset pipeline: catalog, preprocessing, splits, IO."""

import numpy as np
import pytest

from repro.config import SMOKE
from repro.errors import ConfigurationError, DatasetError
from repro.channels.sampler import CsiBatch
from repro.datasets import (
    CATALOG,
    build_dataset,
    dataset_spec,
    load_dataset,
    save_dataset,
    split_indices,
)
from repro.datasets.preprocess import (
    align_users,
    moving_median,
    normalize_amplitude,
    preprocess_csi,
)
from repro.phy.svd import beamforming_matrices, dominant_right_singular_pair


class TestCatalog:
    def test_fifteen_datasets(self):
        assert len(CATALOG) == 15
        assert set(CATALOG) == {f"D{i}" for i in range(1, 16)}

    def test_table1_layout(self):
        # Table I: D1 = 2x2 E1 @ 20, D4 = 3x3 E2 @ 20, D12 = 3x3 E2 @ 80.
        assert (CATALOG["D1"].n_users, CATALOG["D1"].env_name) == (2, "E1")
        assert CATALOG["D1"].bandwidth_mhz == 20
        assert (CATALOG["D4"].n_users, CATALOG["D4"].env_name) == (3, "E2")
        assert (CATALOG["D12"].n_users, CATALOG["D12"].bandwidth_mhz) == (3, 80)
        assert CATALOG["D12"].env_name == "E2"

    def test_synthetic_entries(self):
        for dataset_id, n_users in (("D13", 2), ("D14", 3), ("D15", 4)):
            spec = CATALOG[dataset_id]
            assert spec.env_name == "MATLAB"
            assert spec.bandwidth_mhz == 160
            assert spec.n_users == n_users

    def test_default_sample_count_is_paper(self):
        assert CATALOG["D1"].n_samples == 10_000

    def test_lookup(self):
        assert dataset_spec("d5") is CATALOG["D5"]
        with pytest.raises(ConfigurationError):
            dataset_spec("D99")


class TestAlignment:
    def _batch(self, seqs, n_sc=4):
        csi = np.arange(len(seqs) * n_sc, dtype=complex).reshape(
            len(seqs), n_sc, 1, 1
        )
        return CsiBatch(csi=csi, sequence=np.asarray(seqs))

    def test_intersection(self):
        a = self._batch([0, 1, 2, 4])
        b = self._batch([1, 2, 3, 4])
        aligned = align_users([a, b])
        assert aligned.shape[0] == 3  # seq 1, 2, 4
        assert aligned.shape[1] == 2

    def test_matched_rows_correspond(self):
        a = self._batch([0, 2, 5])
        b = self._batch([2, 5, 7])
        aligned = align_users([a, b])
        # User a contributes rows for seq 2, 5 -> its rows 1, 2.
        assert np.array_equal(aligned[:, 0], a.csi[[1, 2]])
        assert np.array_equal(aligned[:, 1], b.csi[[0, 1]])

    def test_disjoint_raises(self):
        with pytest.raises(DatasetError):
            align_users([self._batch([0, 1]), self._batch([2, 3])])

    def test_empty_list_raises(self):
        with pytest.raises(DatasetError):
            align_users([])


class TestNormalization:
    def test_unit_mean_amplitude(self, rng):
        csi = rng.standard_normal((5, 2, 8, 1, 2)) * 37.0 + 1j
        normalized = normalize_amplitude(csi)
        means = np.mean(np.abs(normalized), axis=(-3, -2, -1))
        assert np.allclose(means, 1.0)

    def test_zero_sample_rejected(self):
        with pytest.raises(DatasetError):
            normalize_amplitude(np.zeros((1, 1, 4, 1, 1), dtype=complex))


class TestMovingMedian:
    def test_constant_stream_unchanged(self):
        csi = np.full((20, 4, 1, 1), 2 + 3j)
        assert np.allclose(moving_median(csi, 10), csi)

    def test_removes_impulse_noise(self, rng):
        clean = np.ones((50, 4, 1, 1), dtype=complex)
        noisy = clean.copy()
        noisy[25] = 100.0  # one corrupted packet
        smoothed = moving_median(noisy, 10)
        assert np.max(np.abs(smoothed[30:] - 1.0)) < 1e-12

    def test_window_one_is_identity(self, rng):
        csi = rng.standard_normal((7, 3, 1, 1)) + 1j
        assert np.array_equal(moving_median(csi, 1), csi)

    def test_output_length_preserved(self, rng):
        csi = rng.standard_normal((13, 2, 1, 1)) + 0j
        assert moving_median(csi, 10).shape == csi.shape

    def test_invalid_window(self):
        with pytest.raises(DatasetError):
            moving_median(np.ones((3, 1, 1, 1)), 0)

    def test_pipeline(self, rng):
        csi = rng.standard_normal((12, 2, 8, 1, 2)) + 1j
        out = preprocess_csi(csi)
        assert out.shape == csi.shape


class TestSplits:
    def test_ratios_8_1_1(self):
        splits = split_indices(1000)
        assert splits.train.size == 800
        assert splits.val.size == 100
        assert splits.test.size == 100

    def test_partition_is_disjoint_and_complete(self):
        splits = split_indices(97, rng=3)
        union = np.concatenate([splits.train, splits.val, splits.test])
        assert sorted(union.tolist()) == list(range(97))

    def test_deterministic(self):
        a = split_indices(50, rng=1)
        b = split_indices(50, rng=1)
        assert np.array_equal(a.train, b.train)

    def test_no_shuffle_keeps_order(self):
        splits = split_indices(10, shuffle=False)
        assert np.array_equal(splits.train, np.arange(8))

    def test_tiny_sets(self):
        splits = split_indices(3)
        assert splits.n_total == 3
        assert splits.val.size >= 1
        assert splits.test.size >= 1

    def test_too_small_raises(self):
        with pytest.raises(DatasetError):
            split_indices(2)


class TestBuilder:
    def test_smoke_dataset_shapes(self, smoke_dataset_2x2):
        ds = smoke_dataset_2x2
        assert ds.csi.shape == (96, 2, 56, 1, 2)
        assert ds.bf.shape == (96, 2, 56, 2)
        assert ds.input_dim == 224
        assert ds.output_dim == 224

    def test_targets_are_gauge_fixed_unit_vectors(self, smoke_dataset_2x2):
        bf = smoke_dataset_2x2.bf
        assert np.allclose(np.linalg.norm(bf, axis=-1), 1.0)
        assert np.allclose(bf[..., -1].imag, 0.0, atol=1e-10)
        assert np.all(bf[..., -1].real >= -1e-12)

    # One catalog entry per shape: 2 and 3 users at 56, 114, 242 and 484
    # tones, and 4 users at 484.
    @pytest.mark.parametrize(
        "dataset_id", ["D1", "D2", "D5", "D6", "D9", "D10", "D13", "D14", "D15"]
    )
    def test_targets_match_svd_of_csi(self, dataset_id):
        ds = build_dataset(dataset_spec(dataset_id), fidelity=SMOKE, seed=5)
        # The targets are the closed-form dominant pair's, bit for bit ...
        closed_form, _ = dominant_right_singular_pair(ds.csi)
        assert ds.bf.tobytes() == closed_form.tobytes()
        # ... and LAPACK's gauge-fixed right singular vectors to within
        # a few eps, though only a few percent of entries share its bits.
        lapack = beamforming_matrices(ds.csi, n_streams=1)[..., 0]
        assert np.abs(ds.bf - lapack).max() <= 8 * np.finfo(float).eps

    def test_model_arrays_consistent(self, smoke_dataset_2x2):
        ds = smoke_dataset_2x2
        x, y = ds.model_arrays(np.array([0, 1]))
        assert x.shape == (4, 224)  # 2 samples x 2 users
        assert y.shape == (4, 224)
        # Row 1 must be (sample 0, user 1).
        from repro.utils.complexmat import complex_to_real

        assert np.allclose(x[1], complex_to_real(ds.csi[0, 1].reshape(-1)))

    def test_csi_amplitude_normalized(self, smoke_dataset_2x2):
        mean_amp = np.mean(
            np.abs(smoke_dataset_2x2.csi), axis=(-3, -2, -1)
        )
        assert np.allclose(mean_amp, 1.0)

    def test_deterministic_given_seed(self):
        a = build_dataset(dataset_spec("D1"), fidelity=SMOKE, seed=3)
        b = build_dataset(dataset_spec("D1"), fidelity=SMOKE, seed=3)
        assert np.array_equal(a.csi, b.csi)

    def test_different_seeds_differ(self):
        a = build_dataset(dataset_spec("D1"), fidelity=SMOKE, seed=3)
        b = build_dataset(dataset_spec("D1"), fidelity=SMOKE, seed=4)
        assert not np.allclose(a.csi, b.csi)


class TestIo:
    def test_round_trip(self, smoke_dataset_2x2, tmp_path):
        path = str(tmp_path / "d1.npz")
        save_dataset(smoke_dataset_2x2, path)
        loaded = load_dataset(path)
        assert np.array_equal(loaded.csi, smoke_dataset_2x2.csi)
        assert np.array_equal(loaded.bf, smoke_dataset_2x2.bf)
        assert loaded.spec.dataset_id == "D1"
        assert np.array_equal(
            loaded.splits.train, smoke_dataset_2x2.splits.train
        )

    def test_missing_file_raises(self):
        with pytest.raises(DatasetError):
            load_dataset("/nonexistent/path.npz")
