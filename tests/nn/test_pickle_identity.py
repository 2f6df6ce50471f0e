"""Pickled bytes must not change when a forward pass runs.

Models cross IPC inline, by pickle (a SplitBeam chain task carries its
STA's whole ladder): if a forward pass leaves an activation cache where
``pickle.dumps`` sees it, that cache bloats every chain message, and
the same weights pickle to different bytes before and after inference.
``REP-GETSTATE-CACHE`` enforces this statically; these tests enforce it
empirically for every layer type in ``repro.nn``.

Layers with *legitimate* forward-time state are pinned in eval mode:
``BatchNorm1d`` updates running moments during training and ``Dropout``
advances its generator — that is real state, not cache leakage.
"""

from __future__ import annotations

import pickle

import numpy as np
import pytest

from repro.nn import (
    BatchNorm1d,
    Conv1d,
    Dropout,
    Flatten,
    Identity,
    LayerNorm,
    LeakyReLU,
    Linear,
    ReLU,
    Reshape,
    Sequential,
    Sigmoid,
    Tanh,
)

BATCH = np.linspace(-1.0, 1.0, 4 * 6).reshape(4, 6)
CONV_BATCH = np.linspace(-1.0, 1.0, 4 * 3 * 8).reshape(4, 3, 8)


def flat_layers():
    return [
        Linear(6, 5, rng=0),
        ReLU(),
        LeakyReLU(),
        Tanh(),
        Sigmoid(),
        Identity(),
        LayerNorm(6),
        Flatten(),
        Sequential([Linear(6, 4, rng=1), ReLU(), LayerNorm(4)]),
    ]


def make_cases():
    cases = [(layer, BATCH, False) for layer in flat_layers()]
    cases += [
        # Train-mode batch statistics and dropout rng draws are real
        # state; eval mode must be byte-stable.
        (BatchNorm1d(6), BATCH, True),
        (Dropout(0.5, rng=0), BATCH, True),
        (Conv1d(3, 4, 3, rng=0), CONV_BATCH, False),
        (Reshape((3, 2)), BATCH, False),
    ]
    return cases


@pytest.mark.parametrize(
    "layer, batch, eval_only",
    make_cases(),
    ids=lambda value: type(value).__name__ if hasattr(value, "forward") else None,
)
def test_forward_pass_keeps_pickled_bytes_identical(layer, batch, eval_only):
    layer.eval()
    before = pickle.dumps(layer)
    if not eval_only:
        layer.train()
    out = layer.forward(batch)
    assert np.all(np.isfinite(out))
    layer.eval()
    after = pickle.dumps(layer)
    assert after == before, (
        f"{type(layer).__name__}: pickled bytes changed after a forward "
        f"pass ({len(before)} -> {len(after)} bytes); a transient cache "
        "is leaking through __getstate__"
    )


def test_backward_pass_state_is_not_pickled_either():
    layer = LayerNorm(6)
    layer.eval()
    before = pickle.dumps(layer)
    out = layer.forward(BATCH)
    layer.backward(np.ones_like(out))
    layer.zero_grad()
    assert pickle.dumps(layer) == before


def test_pickle_roundtrip_restores_forward_behaviour():
    layer = Sequential([Linear(6, 4, rng=2), Tanh(), LayerNorm(4)])
    layer.eval()
    expected = layer.forward(BATCH)
    clone = pickle.loads(pickle.dumps(layer))
    np.testing.assert_array_equal(clone.forward(BATCH), expected)
