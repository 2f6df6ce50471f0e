"""Tests for the SplitBeam architecture and head/tail split execution."""

import numpy as np
import pytest

from repro.errors import ConfigurationError, FeedbackError, ShapeError
from repro.core.model import SplitBeamNet, three_layer_widths
from repro.core.split import (
    BottleneckQuantizer,
    HeadModel,
    SplitExecutor,
    TailModel,
)


class TestWidths:
    def test_table2_2x2_20mhz(self):
        # Table II highlighted row: 224-28-28-224 at K = 1/8.
        assert three_layer_widths(224, 1 / 8) == [224, 28, 28, 224]

    def test_table2_40_and_80mhz(self):
        assert three_layer_widths(456, 1 / 8) == [456, 57, 57, 456]
        assert three_layer_widths(968, 1 / 8) == [968, 121, 121, 968]

    def test_minimum_bottleneck_of_one(self):
        assert three_layer_widths(10, 0.01)[1] == 1

    def test_invalid(self):
        with pytest.raises(ConfigurationError):
            three_layer_widths(224, 0.0)
        with pytest.raises(ConfigurationError):
            three_layer_widths(1, 0.5)


class TestSplitBeamNet:
    def test_architecture_introspection(self):
        net = SplitBeamNet([224, 28, 28, 224], rng=0)
        assert net.input_dim == 224
        assert net.output_dim == 224
        assert net.bottleneck_dim == 28
        assert net.compression == pytest.approx(1 / 8)
        assert net.n_weight_layers == 3
        assert net.label() == "224-28-28-224"

    def test_mac_counts(self):
        net = SplitBeamNet([224, 28, 28, 224], rng=0)
        assert net.head_macs() == 224 * 28
        assert net.tail_macs() == 28 * 28 + 28 * 224

    def test_table3_mac_calibration(self):
        """The [D, D/4, D] model's MACs match the Table III fit."""
        net = SplitBeamNet([224, 56, 224], rng=0)
        assert net.head_macs() + net.tail_macs() == 2 * 224 * 56

    def test_forward_shape(self, rng):
        net = SplitBeamNet([10, 4, 10], rng=0)
        assert net.forward(rng.normal(size=(3, 10))).shape == (3, 10)

    def test_head_tail_composition_equals_full(self, rng):
        net = SplitBeamNet([16, 4, 4, 16], rng=0)
        net.eval()
        x = rng.normal(size=(5, 16))
        full = net.forward(x)
        composed = net.tail_network().forward(net.head_network().forward(x))
        assert np.allclose(full, composed)

    def test_head_is_single_linear(self):
        net = SplitBeamNet([16, 4, 16], rng=0)
        assert len(net.head_network()) == 1

    def test_trainable_end_to_end(self, rng):
        from repro.nn import MSELoss, Trainer, TrainingConfig

        net = SplitBeamNet([8, 4, 8], rng=0)
        x = rng.normal(size=(64, 8))
        trainer = Trainer(
            net, loss=MSELoss(), config=TrainingConfig(epochs=10, seed=0)
        )
        history = trainer.fit(x, x)
        assert history.train_loss[-1] < history.train_loss[0]

    def test_activation_options(self):
        for act in ("relu", "leaky_relu", "tanh", "linear"):
            SplitBeamNet([8, 2, 8], activation=act, rng=0)
        with pytest.raises(ConfigurationError):
            SplitBeamNet([8, 2, 8], activation="gelu", rng=0)

    def test_from_parameters_matches_an_initialized_then_loaded_model(
        self, rng
    ):
        import pickle

        from repro.nn.serialize import load_state_dict, state_dict

        trained = SplitBeamNet([8, 2, 3, 8], activation="tanh", rng=5)
        loaded = SplitBeamNet([8, 2, 3, 8], activation="tanh", rng=9)
        load_state_dict(loaded, state_dict(trained))
        rebuilt = SplitBeamNet.from_parameters(
            [param.data for param in trained.parameters()], activation="tanh"
        )
        assert rebuilt.widths == [8, 2, 3, 8]
        x = rng.normal(size=(4, 8))
        assert np.array_equal(rebuilt.forward(x), trained.forward(x))
        # Same pickled bytes, so payload digests cannot tell them apart.
        assert pickle.dumps(rebuilt) == pickle.dumps(loaded)

    def test_from_parameters_rejects_unchainable_layers(self):
        params = [p.data for p in SplitBeamNet([8, 2, 8], rng=0).parameters()]
        with pytest.raises(ShapeError, match="pairs"):
            SplitBeamNet.from_parameters(params[:3])
        with pytest.raises(ShapeError, match="cannot feed"):
            SplitBeamNet.from_parameters(params[:2] + params[:2])
        with pytest.raises(ConfigurationError, match="at least"):
            SplitBeamNet.from_parameters(params[:2])

    def test_too_few_widths(self):
        with pytest.raises(ConfigurationError):
            SplitBeamNet([8, 8], rng=0)


class TestQuantizer:
    def test_round_trip_error_bounded(self, rng):
        quantizer = BottleneckQuantizer(bits=8)
        values = rng.normal(size=(10, 32)) * 5.0
        feedback = quantizer.quantize(values)
        restored = quantizer.dequantize(feedback)
        span = values.max(axis=1) - values.min(axis=1)
        step = span / (2**8 - 1)
        assert np.all(np.abs(restored - values) <= step[:, None] / 2 + 1e-12)

    def test_more_bits_less_error(self, rng):
        values = rng.normal(size=(4, 64))
        errors = {}
        for bits in (4, 8, 16):
            q = BottleneckQuantizer(bits)
            errors[bits] = np.max(np.abs(q.dequantize(q.quantize(values)) - values))
        assert errors[16] < errors[8] < errors[4]

    def test_payload_bits(self, rng):
        q = BottleneckQuantizer(bits=8)
        feedback = q.quantize(rng.normal(size=(1, 28)))
        assert feedback.payload_bits == 28 * 8 + 32

    def test_constant_vector_safe(self):
        q = BottleneckQuantizer(bits=8)
        values = np.full((2, 16), 3.14)
        restored = q.dequantize(q.quantize(values))
        assert np.allclose(restored, values, atol=1e-9)

    def test_bit_width_mismatch_raises(self, rng):
        feedback = BottleneckQuantizer(8).quantize(rng.normal(size=(1, 4)))
        with pytest.raises(FeedbackError):
            BottleneckQuantizer(16).dequantize(feedback)

    def test_invalid_bits(self):
        with pytest.raises(ConfigurationError):
            BottleneckQuantizer(1)


class TestSplitExecution:
    def test_unquantized_split_is_exact(self, rng):
        net = SplitBeamNet([32, 8, 8, 32], rng=0)
        net.eval()
        x = rng.normal(size=(6, 32))
        assert np.array_equal(SplitExecutor(net, None).run(x), net.forward(x))

    def test_quantized_split_close(self, rng):
        net = SplitBeamNet([32, 8, 32], rng=0)
        net.eval()
        x = rng.normal(size=(6, 32))
        out = SplitExecutor(net, BottleneckQuantizer(16)).run(x)
        assert np.allclose(out, net.forward(x), atol=1e-3)

    def test_head_produces_feedback_object(self, rng):
        net = SplitBeamNet([32, 8, 32], rng=0)
        head = HeadModel(net, BottleneckQuantizer(8))
        feedback = head.compress(rng.normal(size=(2, 32)))
        assert feedback.codes.shape == (2, 8)

    def test_tail_requires_quantizer_for_codes(self, rng):
        net = SplitBeamNet([32, 8, 32], rng=0)
        feedback = HeadModel(net, BottleneckQuantizer(8)).compress(
            rng.normal(size=(1, 32))
        )
        with pytest.raises(FeedbackError):
            TailModel(net, None).reconstruct(feedback)

    def test_feedback_bits(self):
        net = SplitBeamNet([224, 28, 224], rng=0)
        executor = SplitExecutor(net, BottleneckQuantizer(16))
        assert executor.feedback_bits() == 28 * 16 + 32

    def test_split_shares_trained_parameters(self, rng):
        net = SplitBeamNet([16, 4, 16], rng=0)
        executor = SplitExecutor(net, None)
        x = rng.normal(size=(2, 16))
        before = executor.run(x)
        for param in net.parameters():
            param.data += 1.0
        after = executor.run(x)
        assert not np.allclose(before, after)
