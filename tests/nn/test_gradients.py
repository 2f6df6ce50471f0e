"""Property-based gradient verification for every layer and loss.

These tests are the correctness foundation of the whole training
substrate: they compare analytic backward passes against central finite
differences on random shapes.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.nn.gradcheck import gradcheck_loss, gradcheck_module
from repro.nn.layers import (
    Dropout,
    LeakyReLU,
    Linear,
    ReLU,
    Sequential,
    Sigmoid,
    Tanh,
)
from repro.nn.losses import MAELoss, MSELoss, NormalizedL1Loss

dims = st.integers(min_value=1, max_value=7)


@given(batch=dims, n_in=dims, n_out=dims)
@settings(max_examples=15)
def test_linear_gradients(batch, n_in, n_out):
    assert gradcheck_module(Linear(n_in, n_out, rng=0), (batch, n_in))


@given(batch=dims, n_in=dims)
@settings(max_examples=10)
def test_linear_no_bias_gradients(batch, n_in):
    assert gradcheck_module(Linear(n_in, 3, bias=False, rng=1), (batch, n_in))


@pytest.mark.parametrize(
    "layer_factory",
    [
        lambda: Sequential([Linear(4, 3, rng=0), Tanh(), Linear(3, 4, rng=1)]),
        lambda: Sequential([Linear(4, 3, rng=0), Sigmoid(), Linear(3, 2, rng=1)]),
        lambda: Sequential(
            [Linear(4, 4, rng=0), LeakyReLU(0.05), Linear(4, 4, rng=1)]
        ),
        lambda: Sequential(
            [Linear(5, 4, rng=0), Tanh(), Linear(4, 3, rng=1), Tanh(),
             Linear(3, 5, rng=2)]
        ),
    ],
)
def test_deep_network_gradients(layer_factory):
    assert gradcheck_module(layer_factory(), (3, layer_factory()[0].in_features))


def test_relu_gradients_away_from_kink(rng):
    # ReLU's kink at 0 breaks finite differences; keep inputs away from it.
    model = Sequential([Linear(4, 4, rng=3), ReLU(), Linear(4, 4, rng=4)])
    # Use a fixed, kink-free input by shifting the bias strongly positive.
    model[0].bias.data += 2.0
    assert gradcheck_module(model, (2, 4), rng=5)


def test_dropout_eval_gradients():
    model = Sequential([Linear(4, 4, rng=0), Dropout(0.5, rng=0), Tanh()])
    # gradcheck runs the module in eval mode, making dropout deterministic.
    assert gradcheck_module(model, (2, 4))


@pytest.mark.parametrize(
    "loss",
    [MSELoss(), MAELoss(), NormalizedL1Loss(epsilon=0.2)],
    ids=["mse", "mae", "normalized-l1"],
)
@pytest.mark.parametrize("shape", [(6,), (4, 5)])
def test_loss_gradients(loss, shape):
    assert gradcheck_loss(loss, shape, rng=7)
