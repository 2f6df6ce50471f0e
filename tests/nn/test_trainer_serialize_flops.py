"""Tests for the training loop, serialization, and FLOP counting."""

import hashlib

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from repro.errors import ShapeError, TrainingError
from repro.nn.flops import count_flops, count_macs, count_parameters
from repro.nn.layers import Dropout, Linear, ReLU, Sequential, Tanh
from repro.nn.losses import NormalizedL1Loss
from repro.nn.serialize import (
    load_state,
    load_state_dict,
    model_from_state,
    save_state,
    state_dict,
    state_digest,
)
from repro.nn import trainer as trainer_mod
from repro.nn.trainer import Trainer, TrainingConfig


def linear_task(rng, n=96, d=6):
    x = rng.normal(size=(n, d))
    y = x @ rng.normal(size=(d, d))
    return x, y


class TestTrainer:
    def test_loss_decreases(self, rng):
        x, y = linear_task(rng)
        model = Sequential([Linear(6, 8, rng=0), Tanh(), Linear(8, 6, rng=1)])
        trainer = Trainer(model, config=TrainingConfig(epochs=15, seed=0))
        history = trainer.fit(x, y)
        assert history.train_loss[-1] < history.train_loss[0]

    def test_best_checkpoint_restored(self, rng):
        x, y = linear_task(rng)
        model = Sequential([Linear(6, 6, rng=0)])
        trainer = Trainer(model, config=TrainingConfig(epochs=8, seed=0))
        history = trainer.fit(x, y, x[:16], y[:16])
        # After fit, the model must score exactly the recorded best.
        restored = trainer.validation_metric(model, x[:16], y[:16])
        assert restored == pytest.approx(history.best_val_metric)
        assert 0 <= history.best_epoch < 8

    def test_history_lengths(self, rng):
        x, y = linear_task(rng)
        model = Sequential([Linear(6, 6, rng=0)])
        trainer = Trainer(model, config=TrainingConfig(epochs=5, seed=0))
        history = trainer.fit(x, y, x[:8], y[:8])
        assert len(history.train_loss) == 5
        assert len(history.val_metric) == 5
        assert len(history.learning_rate) == 5

    def test_lr_schedule_applied(self, rng):
        x, y = linear_task(rng)
        model = Sequential([Linear(6, 6, rng=0)])
        config = TrainingConfig(epochs=6, lr_milestones=(2, 4), seed=0)
        trainer = Trainer(model, config=config)
        history = trainer.fit(x, y)
        assert history.learning_rate[0] == pytest.approx(1e-3)
        assert history.learning_rate[-1] == pytest.approx(1e-5)

    def test_custom_validation_metric_drives_checkpoint(self, rng):
        x, y = linear_task(rng)
        model = Sequential([Linear(6, 6, rng=0)])
        calls = []

        def metric(m, xv, yv):
            calls.append(1)
            return float(len(calls))  # strictly increasing: epoch 0 is best

        trainer = Trainer(
            model,
            config=TrainingConfig(epochs=4, seed=0),
            validation_metric=metric,
        )
        history = trainer.fit(x, y, x[:8], y[:8])
        assert history.best_epoch == 0

    def test_best_last_epoch_is_neither_copied_nor_restored(self, rng, monkeypatch):
        x, y = linear_task(rng)
        copies, restores = [], []

        def copy(model):
            copies.append(model)
            return state_dict(model)

        def restore(model, state):
            restores.append(model)
            load_state_dict(model, state)

        monkeypatch.setattr(trainer_mod, "state_dict", copy)
        monkeypatch.setattr(trainer_mod, "load_state_dict", restore)
        scores = iter([3.0, 2.0, 1.0])  # every epoch improves; the last is best
        model = Sequential([Linear(6, 6, rng=0)])
        config = TrainingConfig(epochs=3, seed=0)
        history = Trainer(
            model, config=config, validation_metric=lambda *_: next(scores)
        ).fit(x, y, x[:8], y[:8])
        assert history.best_epoch == 2
        assert len(copies) == 2  # one per improving epoch but the last
        assert not restores
        # The weights are the last epoch's, as a fit without validation
        # (which copies nothing) leaves them.
        plain = Sequential([Linear(6, 6, rng=0)])
        Trainer(plain, config=config).fit(x, y)
        for key, value in state_dict(plain).items():
            assert np.array_equal(state_dict(model)[key], value)

    def test_earlier_best_epoch_is_restored(self, rng):
        x, y = linear_task(rng)
        snapshots = []
        scores = iter([3.0, 1.0, 2.0])

        def metric(model, xv, yv):
            snapshots.append(state_dict(model))
            return next(scores)

        model = Sequential([Linear(6, 6, rng=0)])
        history = Trainer(
            model, config=TrainingConfig(epochs=3, seed=0), validation_metric=metric
        ).fit(x, y, x[:8], y[:8])
        assert history.best_epoch == 1
        final = state_dict(model)
        assert all(np.array_equal(final[k], snapshots[1][k]) for k in final)
        assert not all(np.array_equal(final[k], snapshots[2][k]) for k in final)

    def test_mismatched_counts_raise(self, rng):
        model = Sequential([Linear(6, 6, rng=0)])
        with pytest.raises(TrainingError):
            Trainer(model).fit(np.zeros((4, 6)), np.zeros((5, 6)))

    def test_ragged_final_batch_weighted_by_sample_count(self, rng):
        # 21 samples at batch size 16 -> batches of 16 and 5.  The epoch
        # loss must be the sample-weighted mean of the (per-sample-mean)
        # batch losses, not the plain mean over batches — the old code
        # let the 5-sample tail count as much as the 16-sample head.
        x, y = linear_task(rng, n=21)

        class SpyLoss(NormalizedL1Loss):
            def __init__(self):
                super().__init__()
                self.batches = []  # (loss value, sample count)

            def forward(self, prediction, target):
                value = super().forward(prediction, target)
                self.batches.append((value, prediction.shape[0]))
                return value

        loss = SpyLoss()
        model = Sequential([Linear(6, 6, rng=0)])
        trainer = Trainer(
            model, loss=loss, config=TrainingConfig(epochs=1, seed=0)
        )
        history = trainer.fit(x, y)
        assert [count for _, count in loss.batches] == [16, 5]
        weighted = sum(v * n for v, n in loss.batches) / 21
        unweighted = sum(v for v, _ in loss.batches) / 2
        assert history.train_loss[0] == pytest.approx(weighted, rel=1e-12)
        assert history.train_loss[0] != pytest.approx(unweighted, rel=1e-6)

    def test_divisible_batches_match_plain_mean(self, rng):
        # With equal-sized batches the weighting is a no-op.
        x, y = linear_task(rng, n=32)

        class SpyLoss(NormalizedL1Loss):
            def __init__(self):
                super().__init__()
                self.values = []

            def forward(self, prediction, target):
                value = super().forward(prediction, target)
                self.values.append(value)
                return value

        loss = SpyLoss()
        model = Sequential([Linear(6, 6, rng=0)])
        trainer = Trainer(
            model, loss=loss, config=TrainingConfig(epochs=1, seed=0)
        )
        history = trainer.fit(x, y)
        assert history.train_loss[0] == pytest.approx(
            sum(loss.values) / len(loss.values), rel=1e-12
        )

    def test_half_provided_validation_split_raises(self, rng):
        # One of val_inputs/val_targets alone used to silently disable
        # validation (and checkpointing); now it is a loud error.
        x, y = linear_task(rng)
        model = Sequential([Linear(6, 6, rng=0)])
        trainer = Trainer(model, config=TrainingConfig(epochs=2, seed=0))
        with pytest.raises(TrainingError, match="together"):
            trainer.fit(x, y, val_inputs=x[:8])
        with pytest.raises(TrainingError, match="together"):
            trainer.fit(x, y, val_targets=y[:8])

    def test_mismatched_validation_counts_raise(self, rng):
        x, y = linear_task(rng)
        model = Sequential([Linear(6, 6, rng=0)])
        with pytest.raises(TrainingError, match="validation"):
            Trainer(model).fit(x, y, x[:8], y[:7])

    def test_validation_arrays_coerced_to_float64(self, rng):
        # Validation splits get the same float64 coercion as training
        # data, whatever the caller hands in.
        x, y = linear_task(rng)
        seen = []

        def metric(m, xv, yv):
            seen.append((xv.dtype, yv.dtype))
            return 0.0

        model = Sequential([Linear(6, 6, rng=0)])
        trainer = Trainer(
            model,
            config=TrainingConfig(epochs=1, seed=0),
            validation_metric=metric,
        )
        trainer.fit(
            x, y, x[:8].astype(np.float32), y[:8].astype(np.float32)
        )
        assert seen == [(np.dtype(np.float64), np.dtype(np.float64))]

    def test_deterministic_given_seed(self, rng):
        x, y = linear_task(rng)
        losses = []
        for _ in range(2):
            model = Sequential([Linear(6, 6, rng=0)])
            trainer = Trainer(model, config=TrainingConfig(epochs=3, seed=9))
            losses.append(trainer.fit(x, y).train_loss)
        assert losses[0] == losses[1]

    def test_invalid_config(self):
        with pytest.raises(TrainingError):
            TrainingConfig(epochs=0)
        with pytest.raises(TrainingError):
            TrainingConfig(optimizer="rmsprop")

    def test_predict_uses_eval_mode(self, rng):
        model = Sequential([Linear(6, 6, rng=0), Dropout(0.9, rng=0)])
        trainer = Trainer(model)
        x = rng.normal(size=(3, 6))
        a = trainer.predict(x)
        b = trainer.predict(x)
        assert np.array_equal(a, b)


class TestSerialization:
    def test_round_trip_in_memory(self, rng):
        model = Sequential([Linear(4, 3, rng=0), Tanh(), Linear(3, 4, rng=1)])
        snapshot = state_dict(model)
        for param in model.parameters():
            param.data[...] = 0.0
        load_state_dict(model, snapshot)
        x = rng.normal(size=(2, 4))
        model2 = Sequential([Linear(4, 3, rng=0), Tanh(), Linear(3, 4, rng=1)])
        load_state_dict(model2, snapshot)
        assert np.allclose(model.forward(x), model2.forward(x))

    def test_round_trip_on_disk(self, rng, tmp_path):
        model = Sequential([Linear(4, 4, rng=0)])
        path = str(tmp_path / "model.npz")
        save_state(model, path)
        other = Sequential([Linear(4, 4, rng=99)])
        load_state(other, path)
        x = rng.normal(size=(2, 4))
        assert np.allclose(model.forward(x), other.forward(x))

    def test_shape_mismatch_raises(self):
        model = Sequential([Linear(4, 4, rng=0)])
        snapshot = state_dict(model)
        other = Sequential([Linear(4, 5, rng=0)])
        with pytest.raises(ShapeError):
            load_state_dict(other, snapshot)

    def test_missing_tensor_raises(self):
        model = Sequential([Linear(4, 4, rng=0)])
        snapshot = state_dict(model)
        snapshot.pop(next(iter(snapshot)))
        with pytest.raises(ShapeError):
            load_state_dict(model, snapshot)


def _reference_digest(state: dict) -> str:
    """``state_digest`` as first written: every array copied by ``tobytes``."""
    digest = hashlib.sha256()
    for name in sorted(state):
        value = state[name]
        for field in (
            name.encode(),
            str(value.dtype).encode(),
            repr(value.shape).encode(),
            np.ascontiguousarray(value).tobytes(),
        ):
            digest.update(field + b"\0")
    return digest.hexdigest()


def _layouts(value: np.ndarray) -> "list[np.ndarray]":
    """The same values in C order, Fortran order, and two strided views."""
    doubled = np.repeat(value, 2, axis=0)
    return [value, np.asfortranarray(value), doubled[::2], value[::-1]]


_ARRAYS = st.sampled_from(["<f8", ">f8", "<i4", "|b1", "<c16"]).flatmap(
    lambda dtype: arrays(
        dtype, array_shapes(min_dims=1, max_dims=3, min_side=0, max_side=4)
    )
)


class TestStateDigest:
    @given(value=_ARRAYS, layout=st.integers(0, 3))
    def test_matches_the_tobytes_reference(self, value, layout):
        # Pins every manifest's state_sha256 and ModelZoo.save's file
        # names: hashing buffers in place must not move a digest.
        state = {"p0.weight": _layouts(value)[layout], "p1.bias": value}
        assert state_digest(state) == _reference_digest(state)

    def test_layout_does_not_change_the_digest(self):
        value = np.arange(24.0).reshape(2, 3, 4)
        digests = {state_digest({"w": view}) for view in _layouts(value)[:2]}
        assert len(digests) == 1


def _two_layer(arrays):
    """A ``Linear -> Tanh -> Linear`` stack around ``[W0, b0, W1, b1]``."""
    return Sequential(
        [
            Linear.from_arrays(arrays[0], arrays[1]),
            Tanh(),
            Linear.from_arrays(arrays[2], arrays[3]),
        ]
    )


class TestModelFromState:
    def test_holds_copies_of_exactly_the_state(self, rng):
        model = Sequential([Linear(6, 3, rng=0), Tanh(), Linear(3, 6, rng=1)])
        state = state_dict(model)
        rebuilt = model_from_state(_two_layer, state)
        for name, value in state_dict(rebuilt).items():
            np.testing.assert_array_equal(value, state[name])
        x = rng.normal(size=(3, 6))
        assert np.array_equal(rebuilt.forward(x), model.forward(x))
        for param, value in zip(rebuilt.parameters(), state.values()):
            assert param.data.flags.writeable
            assert not np.shares_memory(param.data, value)

    def test_keys_must_name_the_built_parameters(self):
        model = Sequential([Linear(6, 3, rng=0), Tanh(), Linear(3, 6, rng=1)])
        state = state_dict(model)
        renamed = {key.replace("bias", "offset"): v for key, v in state.items()}
        with pytest.raises(ShapeError, match="model's parameters"):
            model_from_state(_two_layer, renamed)
        gapped = dict(state)
        gapped["p9.bias"] = gapped.pop("p1.bias")
        with pytest.raises(ShapeError, match="one per index"):
            model_from_state(_two_layer, gapped)

    def test_bias_must_match_its_weight(self):
        state = state_dict(Sequential([Linear(6, 3, rng=0), Linear(3, 6, rng=1)]))
        state["p1.bias"] = np.zeros(4)
        with pytest.raises(ShapeError, match="bias"):
            model_from_state(_two_layer, state)


class TestFlops:
    def test_macs_sum_over_linears(self):
        model = Sequential([Linear(10, 4, rng=0), ReLU(), Linear(4, 10, rng=1)])
        assert count_macs(model) == 10 * 4 + 4 * 10

    def test_flops_include_bias_and_activation(self):
        model = Sequential([Linear(10, 4, rng=0), ReLU()])
        assert count_flops(model) == 2 * 40 + 4 + 4

    def test_flops_without_bias(self):
        model = Sequential([Linear(10, 4, bias=False, rng=0)])
        assert count_flops(model) == 2 * 40

    def test_parameters(self):
        model = Sequential([Linear(10, 4, rng=0)])
        assert count_parameters(model) == 10 * 4 + 4
