"""Regression tests: vectorized training stack vs the frozen references.

The contract the vectorized training stack makes (see
``repro.perf.reference``):

- the block-swept SGD/Adam updates and gradient clip, and the
  trainer's preallocated batch pipeline replay the loop
  implementations element-for-element — trained weights are
  **bit-identical**, also for models that span many optimizer blocks,
  and whether the blocks are swept in one chunk or in one chunk per
  core on that many threads;
- ``step(max_norm=...)`` leaves the weights and gradients exactly as
  ``clip_global_norm(...)`` followed by ``step()`` does, and a large
  ``Sequential``'s backward, which adds its Linears' weight gradients
  on a helper thread, gives exactly the serial backward's gradients;
- the im2col convolution's *forward* is bit-identical to the frozen
  per-kernel-position loops; its *backward* contracts each gradient in
  one GEMM, which reorders floating-point reductions — gradients match
  the reference to reduction-order rounding (1e-12 relative).
"""

from __future__ import annotations

import itertools
import multiprocessing
import os
import sys
import threading

import numpy as np
import pytest

from repro.nn import optim
from repro.nn.conv import Conv1d
from repro.nn.layers import LeakyReLU, Linear, Sequential, Tanh
from repro.nn.losses import NormalizedL1Loss
from repro.nn.module import Module, Parameter
from repro.nn.optim import BLOCK, SGD, Adam
from repro.nn.serialize import state_dict
from repro.nn.trainer import Trainer, TrainingConfig
from repro.perf.reference import (
    ReferenceAdam,
    ReferenceConv1d,
    ReferenceSGD,
    ReferenceSequential,
    ReferenceTrainer,
    pin_reference_nn,
    reference_clip_gradients,
)


def _twin_models(seed=3, widths=(20, 8, 20), activation=Tanh):
    """Two structurally identical models with identical weights."""

    def build():
        rng = np.random.default_rng(seed)
        layers = []
        for i in range(len(widths) - 1):
            layers.append(
                Linear(widths[i], widths[i + 1], rng=int(rng.integers(2**31)))
            )
            if i < len(widths) - 2:
                layers.append(activation())
        return Sequential(layers)

    return build(), build()


#: A layout that puts every block-edge case of the optimizer sweep in
#: play: a 3-element bias, a parameter of exactly BLOCK elements that
#: straddles the first block edge, one of BLOCK + 1 elements that
#: straddles the second, a matrix spanning more than three blocks, and a
#: 5-element bias that ends in a ragged final block.
_MULTI_BLOCK_SHAPES = (
    (3,),
    (BLOCK // 128, 128),
    (BLOCK + 1,),
    (3, BLOCK + 17),
    (5,),
)


class _ParameterBag(Module):
    """Bare parameters of the given shapes; tests write their gradients."""

    def __init__(self, shapes, seed):
        super().__init__()
        rng = np.random.default_rng(seed)
        self.params = [Parameter(rng.standard_normal(shape)) for shape in shapes]


def _twins(kind, widths, batch):
    """Twin models and ``feed(rng)``, which gives both one step's gradients.

    ``"single-block"`` twins are :func:`_twin_models` stacks of
    ``widths`` that back-propagate a random batch of ``batch`` rows;
    ``"multi-block"`` twins are :data:`_MULTI_BLOCK_SHAPES` parameter
    bags (``widths`` and ``batch`` unused) whose gradients are drawn
    directly.
    """
    if kind == "single-block":
        model_a, model_b = _twin_models(widths=widths)

        def feed(rng):
            x = rng.standard_normal((batch, widths[0]))
            grad = rng.standard_normal((batch, widths[-1]))
            for model in (model_a, model_b):
                model.forward(x)
                model.backward(grad)

    else:
        model_a = _ParameterBag(_MULTI_BLOCK_SHAPES, seed=3)
        model_b = _ParameterBag(_MULTI_BLOCK_SHAPES, seed=3)

        def feed(rng):
            for pa, pb in zip(model_a.parameters(), model_b.parameters()):
                grad = rng.standard_normal(pa.shape)
                pa.grad += grad
                pb.grad += grad

    return model_a, model_b, feed


def _grid(*axes):
    """Parametrize rows: every twin kind crossed with ``axes``.

    The single-block rows keep the bare ids these tests had before the
    multi-block twins joined them (``0.001-0.9``); multi-block rows
    are prefixed (``multi-block-0.001-0.9``).
    """
    rows = []
    for kind in ("single-block", "multi-block"):
        for values in itertools.product(*axes):
            label = "-".join(str(value) for value in values)
            if kind != "single-block":
                label = f"{kind}-{label}"
            rows.append(pytest.param(kind, *values, id=label))
    return rows


def _assert_states_equal(model_a, model_b):
    state_a, state_b = state_dict(model_a), state_dict(model_b)
    assert state_a.keys() == state_b.keys()
    for key in state_a:
        assert np.array_equal(state_a[key], state_b[key]), key


class TestFusedOptimizerBitIdentity:
    """Block-swept flat-buffer updates replay the per-parameter loops exactly."""

    @pytest.mark.parametrize(
        ("twins", "weight_decay", "momentum"), _grid([0.0, 1e-3], [0.0, 0.9])
    )
    def test_sgd_steps(self, twins, weight_decay, momentum):
        model_a, model_b, feed = _twins(twins, widths=(20, 8, 20), batch=5)
        opt_a = ReferenceSGD(
            list(model_a.parameters()),
            lr=0.05,
            momentum=momentum,
            weight_decay=weight_decay,
        )
        opt_b = SGD(
            list(model_b.parameters()),
            lr=0.05,
            momentum=momentum,
            weight_decay=weight_decay,
        )
        rng = np.random.default_rng(0)
        for _ in range(7):
            opt_a.zero_grad()
            opt_b.zero_grad()
            feed(rng)
            opt_a.step()
            opt_b.step()
            _assert_states_equal(model_a, model_b)

    @pytest.mark.parametrize(("twins", "weight_decay"), _grid([0.0, 1e-2]))
    def test_adam_steps(self, twins, weight_decay):
        model_a, model_b, feed = _twins(twins, widths=(13, 7, 3, 13), batch=4)
        opt_a = ReferenceAdam(
            list(model_a.parameters()), lr=1e-2, weight_decay=weight_decay
        )
        opt_b = Adam(
            list(model_b.parameters()), lr=1e-2, weight_decay=weight_decay
        )
        rng = np.random.default_rng(1)
        for _ in range(9):
            opt_a.zero_grad()
            opt_b.zero_grad()
            feed(rng)
            opt_a.step()
            opt_b.step()
            _assert_states_equal(model_a, model_b)

    def test_clip_interaction(self):
        """Blocked clip + blocked step == loop clip + loop step, bit for bit."""
        # A loop over both twin kinds, not a parametrize, so the test
        # keeps its id.
        for twins in ("single-block", "multi-block"):
            model_a, model_b, feed = _twins(twins, widths=(16, 5, 16), batch=6)
            opt_a = ReferenceAdam(list(model_a.parameters()), lr=5e-2)
            opt_b = Adam(list(model_b.parameters()), lr=5e-2)
            rng = np.random.default_rng(2)
            limit = 0.05  # tight enough that every step actually clips
            for _ in range(6):
                opt_a.zero_grad()
                opt_b.zero_grad()
                feed(rng)
                reference_clip_gradients(model_a, limit)
                opt_a.step()
                opt_b.clip_global_norm(limit)
                opt_b.step()
                params_a = list(model_a.parameters())
                params_b = list(model_b.parameters())
                for pa, pb in zip(params_a, params_b):
                    assert np.array_equal(pa.grad, pb.grad), twins
                _assert_states_equal(model_a, model_b)

    def test_clip_norm_is_numpys_pairwise_sum(self):
        """The blocked sum of squares adds exactly what ``np.sum`` adds."""
        rng = np.random.default_rng(0)
        # A split tree that differs from NumPy's only near the top
        # changes the low bits for roughly one size in three, so sweep
        # many sizes beyond the block edge cases.
        sizes = [BLOCK - 1, BLOCK, BLOCK + 1, 3 * BLOCK + 51]
        sizes += [int(n) for n in rng.integers(BLOCK + 2, 12 * BLOCK, 24)]
        for size in sizes:
            grad = rng.standard_normal(size)
            param = Parameter(np.zeros(size))
            opt = SGD([param], lr=0.1)
            param.grad += grad
            norm = opt.clip_global_norm(np.inf)
            assert norm == float(np.sqrt(np.sum(grad**2))), size

    def test_clip_below_limit_is_noop(self):
        param = Parameter(np.zeros(4))
        opt = SGD([param], lr=0.1)
        param.grad += np.array([0.3, 0.0, -0.4, 0.0])
        norm = opt.clip_global_norm(10.0)
        assert norm == pytest.approx(0.5)
        assert np.array_equal(param.grad, [0.3, 0.0, -0.4, 0.0])

    def test_packing_aliases_parameters(self):
        """Layers keep writing the same arrays the optimizer updates."""
        param = Parameter(np.arange(6.0).reshape(2, 3))
        opt = SGD([param], lr=1.0)
        param.grad += 1.0  # through the re-pointed view
        opt.step()
        np.testing.assert_allclose(
            param.data, np.arange(6.0).reshape(2, 3) - 1.0
        )
        opt.zero_grad()
        assert np.array_equal(param.grad, np.zeros((2, 3)))


#: A layout of 49 blocks (at least ``2 * _MIN_BLOCKS + 1``) that the
#: sweep splits into uneven chunks at 2 and at 3 cores (24 + 25 and
#: 16 + 16 + 17 blocks): a 30-block parameter straddles the chunk edge
#: at either count, a 3-row matrix the second edge at 3 cores, the
#: edges fall inside clip-tree leaves, and a 5-element bias ends in a
#: ragged 68-element last block.
_CHUNKED_SHAPES = (
    (3,),
    (BLOCK + 1,),
    (30 * BLOCK + 5,),
    (5, 3 * BLOCK + 11),
    (2 * BLOCK - 1,),
    (5,),
)


@pytest.fixture(params=[2, 3], ids=["2-cores", "3-cores"])
def cores(request, monkeypatch):
    """The sweep sees ``request.param`` cores, whatever the host has."""
    monkeypatch.setattr(
        os, "sched_getaffinity", lambda pid: set(range(request.param)), raising=False
    )
    return request.param


def _chunked_twins():
    """Twin :data:`_CHUNKED_SHAPES` bags and ``feed(rng)`` for their gradients."""
    model_a = _ParameterBag(_CHUNKED_SHAPES, seed=4)
    model_b = _ParameterBag(_CHUNKED_SHAPES, seed=4)

    def feed(rng):
        for pa, pb in zip(model_a.parameters(), model_b.parameters()):
            grad = rng.standard_normal(pa.shape)
            pa.grad += grad
            pb.grad += grad

    return model_a, model_b, feed


def _assert_chunked(opt, n_cores):
    """The layout really is chunked as :data:`_CHUNKED_SHAPES` claims."""
    sizes = [len(chunk.blocks) for chunk in opt._chunks]
    assert sizes == ([24, 25] if n_cores == 2 else [16, 16, 17])
    assert [block for chunk in opt._chunks for block in chunk.blocks] == opt._blocks
    assert opt._blocks[-1].stop - opt._blocks[-1].start == 68
    edges = [chunk.span.start for chunk in opt._chunks[1:]]
    assert all(
        any(span.start < edge < span.stop for span in opt._slices) for edge in edges
    )
    leaves = [index for chunk in opt._chunks for index in chunk.leaves]
    assert leaves == list(range(len(opt._leaves)))


class TestChunkedSweep:
    """One chunk per core, each on its own thread, replays the loops exactly."""

    @pytest.mark.parametrize("weight_decay", [0.0, 1e-4])
    def test_adam_steps(self, cores, weight_decay):
        model_a, model_b, feed = _chunked_twins()
        opt_a = ReferenceAdam(
            list(model_a.parameters()), lr=1e-2, weight_decay=weight_decay
        )
        opt_b = Adam(list(model_b.parameters()), lr=1e-2, weight_decay=weight_decay)
        _assert_chunked(opt_b, cores)
        rng = np.random.default_rng(1)
        for _ in range(4):
            opt_a.zero_grad()
            opt_b.zero_grad()
            feed(rng)
            opt_a.step()
            opt_b.step()
            _assert_states_equal(model_a, model_b)

    @pytest.mark.parametrize(
        ("weight_decay", "momentum"), itertools.product([0.0, 1e-3], [0.0, 0.9])
    )
    def test_sgd_steps(self, cores, weight_decay, momentum):
        model_a, model_b, feed = _chunked_twins()
        opt_a = ReferenceSGD(
            list(model_a.parameters()),
            lr=0.05,
            momentum=momentum,
            weight_decay=weight_decay,
        )
        opt_b = SGD(
            list(model_b.parameters()),
            lr=0.05,
            momentum=momentum,
            weight_decay=weight_decay,
        )
        _assert_chunked(opt_b, cores)
        rng = np.random.default_rng(0)
        for _ in range(3):
            opt_a.zero_grad()
            opt_b.zero_grad()
            feed(rng)
            opt_a.step()
            opt_b.step()
            _assert_states_equal(model_a, model_b)

    @pytest.mark.parametrize("limit", [1.0, 1e6], ids=["clips", "below-limit"])
    def test_clip(self, cores, limit):
        model_a, model_b, feed = _chunked_twins()
        opt_b = SGD(list(model_b.parameters()), lr=0.1)
        _assert_chunked(opt_b, cores)
        feed(np.random.default_rng(2))
        grads = [p.grad.copy() for p in model_b.parameters()]
        # The sum of squares before the root: the root can hide a
        # difference in the last bit of the sum.
        total = 0.0
        for grad in grads:
            total += float(np.sum(grad**2))
        assert opt_b._sum_of_squares() == total
        expected = float(np.sqrt(total))
        reference_clip_gradients(model_a, limit)
        assert opt_b.clip_global_norm(limit) == expected
        for pa, pb, grad in zip(model_a.parameters(), model_b.parameters(), grads):
            assert np.array_equal(pa.grad, pb.grad)
            assert np.array_equal(pb.grad, grad) == (limit > expected)

    def test_zero_grad(self, cores):
        model_a, model_b, feed = _chunked_twins()
        opt_a = ReferenceSGD(list(model_a.parameters()), lr=0.1)
        opt_b = SGD(list(model_b.parameters()), lr=0.1)
        _assert_chunked(opt_b, cores)
        feed(np.random.default_rng(3))
        opt_a.zero_grad()
        opt_b.zero_grad()
        for pa, pb in zip(model_a.parameters(), model_b.parameters()):
            assert not pb.grad.any()
            assert np.array_equal(pa.grad, pb.grad)
        _assert_states_equal(model_a, model_b)


    def test_more_threads_than_cores_with_a_short_switch_interval(self, monkeypatch):
        """Three sweep threads on a 2-core host, switching every 10 µs."""
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(8)), raising=False)
        model_a, model_b, feed = _chunked_twins()
        opt_a = ReferenceAdam(list(model_a.parameters()), lr=1e-2)
        opt_b = Adam(list(model_b.parameters()), lr=1e-2)
        assert len(opt_b._chunks) == 3
        rng = np.random.default_rng(6)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for _ in range(3):
                opt_a.zero_grad()
                opt_b.zero_grad()
                feed(rng)
                reference_clip_gradients(model_a, 1.0)
                opt_a.step()
                opt_b.clip_global_norm(1.0)
                opt_b.step()
                _assert_states_equal(model_a, model_b)
        finally:
            sys.setswitchinterval(interval)


class _NoThread:
    def __init__(self, *args, **kwargs):
        raise AssertionError("the optimizer sweep started a thread")


def _sweep_everything(opt, feed):
    """Every sweep an optimizer makes: zero, clip (with rescale), step."""
    opt.zero_grad()
    feed(np.random.default_rng(5))
    assert opt.clip_global_norm(1e-3) > 1e-3
    opt.step()


class TestSweepStartsNoThread:
    """Small models, and every model built in a pool worker, stay on one thread."""

    @pytest.mark.parametrize("kind", ["adam", "sgd"])
    def test_small_model(self, cores, monkeypatch, kind):
        shapes = ((2 * optim._MIN_BLOCKS - 1) * BLOCK,)
        model = _ParameterBag(shapes, seed=0)
        monkeypatch.setattr(threading, "Thread", _NoThread)
        opt = (Adam if kind == "adam" else SGD)(list(model.parameters()), lr=1e-2)
        assert len(opt._chunks) == 1

        def feed(rng):
            for param in model.parameters():
                param.grad += rng.standard_normal(param.shape)

        _sweep_everything(opt, feed)

    def test_one_more_block_is_chunked(self, cores):
        model = _ParameterBag(((2 * optim._MIN_BLOCKS - 1) * BLOCK + 1,), seed=0)
        assert len(SGD(list(model.parameters()), lr=1e-2)._chunks) == 2

    def test_model_built_in_a_pool_worker(self, cores, monkeypatch):
        _, model, feed = _chunked_twins()
        monkeypatch.setattr(multiprocessing, "parent_process", lambda: object())
        monkeypatch.setattr(threading, "Thread", _NoThread)
        opt = Adam(list(model.parameters()), lr=1e-2)
        assert len(opt._chunks) == 1
        _sweep_everything(opt, feed)


def _fold_twins(layout):
    """Twin parameter bags swept in one chunk, or chunked as :data:`_CHUNKED_SHAPES`."""
    if layout == "chunked":
        return _chunked_twins()
    return _twins("multi-block", widths=None, batch=None)


def _assert_fold_matches(layout, n_cores, build):
    """``step(max_norm=limit)`` replays ``clip_global_norm(limit); step()``.

    ``build(params)`` makes a fresh optimizer; both sides are live
    optimizers, so their packed buffers compare directly.  The first
    step's norm is above its limit and the second's below.
    """
    model_a, model_b, feed = _fold_twins(layout)
    opt_a = build(list(model_a.parameters()))
    opt_b = build(list(model_b.parameters()))
    if layout == "chunked":
        _assert_chunked(opt_b, n_cores)
    else:
        assert len(opt_b._chunks) == 1
    rng = np.random.default_rng(8)
    for limit, clips in ((1.0, True), (1e6, False)):
        opt_a.zero_grad()
        opt_b.zero_grad()
        feed(rng)
        assert (opt_a.clip_global_norm(limit) > limit) == clips
        opt_a.step()
        opt_b.step(max_norm=limit)
        assert np.array_equal(opt_a._flat_grad, opt_b._flat_grad)
        assert np.array_equal(opt_a._flat_data, opt_b._flat_data)


_LAYOUTS = pytest.mark.parametrize("layout", ["one-chunk", "chunked"])


class TestFoldedClip:
    """The clip folded into the step keeps the weights' and gradients' bits."""

    @_LAYOUTS
    @pytest.mark.parametrize("weight_decay", [0.0, 1e-4])
    def test_adam(self, cores, layout, weight_decay):
        _assert_fold_matches(
            layout,
            cores,
            lambda params: Adam(params, lr=1e-2, weight_decay=weight_decay),
        )

    @_LAYOUTS
    @pytest.mark.parametrize(
        ("weight_decay", "momentum"), itertools.product([0.0, 1e-3], [0.0, 0.9])
    )
    def test_sgd(self, cores, layout, weight_decay, momentum):
        _assert_fold_matches(
            layout,
            cores,
            lambda params: SGD(
                params, lr=0.05, momentum=momentum, weight_decay=weight_decay
            ),
        )


#: Widths of a model just over the overlap threshold: 36 optimizer
#: blocks (at least ``2 * _MIN_BLOCKS``) in three Linears.
_WIDE = (64, 1024, 1024, 64)


def _wide_stack(seed=0):
    """A :data:`_WIDE` stack with LeakyReLU and Tanh between its Linears."""
    seeds = [int(s) for s in np.random.default_rng(seed).integers(2**31, size=3)]
    return Sequential(
        [
            Linear(_WIDE[0], _WIDE[1], rng=seeds[0]),
            LeakyReLU(),
            Linear(_WIDE[1], _WIDE[2], rng=seeds[1]),
            Tanh(),
            Linear(_WIDE[2], _WIDE[3], rng=seeds[2]),
        ]
    )


@pytest.fixture
def two_cores(monkeypatch):
    """The backward and the sweep see 2 cores, whatever the host has."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)


@pytest.fixture
def started(monkeypatch):
    """Every thread started from here on."""
    threads = []

    class Counted(threading.Thread):
        def start(self):
            threads.append(self)
            super().start()

    monkeypatch.setattr(threading, "Thread", Counted)
    return threads


class TestOverlappedBackward:
    """A helper thread adds the weight gradients; every bit stays the serial one's."""

    def test_bit_equal_to_the_serial_backward(self, two_cores, started):
        live, serial = _wide_stack(), _wide_stack()
        serial.__class__ = ReferenceSequential
        assert optim.sweep_threads(live.parameters()) == 2
        rng = np.random.default_rng(10)
        for batch in (7, 1):  # the second pass accumulates onto the first
            x = rng.standard_normal((batch, _WIDE[0]))
            grad = rng.standard_normal((batch, _WIDE[-1]))
            assert np.array_equal(live.forward(x), serial.forward(x))
            assert np.array_equal(live.backward(grad), serial.backward(grad))
            for pa, pb in zip(live.parameters(), serial.parameters()):
                assert np.array_equal(pa.grad, pb.grad)
        assert len(started) == 2  # one helper per live backward

    def test_helper_exception_surfaces_in_the_caller(self, two_cores, started):
        model = _wide_stack()
        rng = np.random.default_rng(11)
        model.forward(rng.standard_normal((4, _WIDE[0])))
        # The middle Linear's weight gradient is read-only, so its
        # product fails on the helper thread.
        model.layers[2].weight.grad.flags.writeable = False
        with pytest.raises(ValueError, match="read-only"):
            model.backward(rng.standard_normal((4, _WIDE[-1])))
        assert len(started) == 1 and not started[0].is_alive()
        # The calling thread still ran the chain to its end.
        assert model.layers[0].bias.grad.any()


def _train_steps(model):
    """Two zero_grad, forward, backward and clipped Adam steps."""
    opt = Adam(list(model.parameters()), lr=1e-3)
    rng = np.random.default_rng(12)
    for _ in range(2):
        opt.zero_grad()
        out = model.forward(rng.standard_normal((3, model.layers[0].in_features)))
        model.backward(np.ones_like(out))
        opt.step(max_norm=1e-3)
    return opt


class TestBackwardStartsNoThread:
    """Under the threshold, on one core and in a pool worker, no thread starts."""

    def test_model_under_the_threshold(self, cores, monkeypatch):
        monkeypatch.setattr(threading, "Thread", _NoThread)
        # As many input rows as fit the model into 31 blocks.
        n_blocks = 2 * optim._MIN_BLOCKS - 1
        rows = (n_blocks * BLOCK - 512 - 512 * 8 - 8) // 512
        model = Sequential([Linear(rows, 512, rng=0), Tanh(), Linear(512, 8, rng=1)])
        assert optim.sweep_threads(model.parameters()) == 1
        assert len(_train_steps(model)._blocks) == n_blocks

    def test_one_core(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        monkeypatch.setattr(threading, "Thread", _NoThread)
        assert len(_train_steps(_wide_stack())._chunks) == 1

    def test_model_in_a_pool_worker(self, cores, monkeypatch):
        monkeypatch.setattr(multiprocessing, "parent_process", lambda: object())
        monkeypatch.setattr(threading, "Thread", _NoThread)
        assert len(_train_steps(_wide_stack())._chunks) == 1


class TestTrainerBitIdentity:
    """Full fits (shuffle, ragged batches, validation, clip) match."""

    @pytest.mark.parametrize("optimizer", ["adam", "sgd"])
    def test_fit_bit_identical(self, optimizer):
        rng = np.random.default_rng(11)
        inputs = rng.standard_normal((37, 20))  # ragged: 37 % 8 != 0
        targets = rng.standard_normal((37, 20)) * 0.1
        val_in = rng.standard_normal((9, 20))
        val_out = rng.standard_normal((9, 20)) * 0.1
        config = TrainingConfig(
            epochs=4,
            batch_size=8,
            optimizer=optimizer,
            max_grad_norm=0.2,  # low enough to clip on real batches
            seed=5,
        )
        model_a, model_b = _twin_models(widths=(20, 6, 20))
        hist_a = ReferenceTrainer(model_a, config=config).fit(
            inputs, targets, val_in, val_out
        )
        hist_b = Trainer(model_b, config=config).fit(
            inputs, targets, val_in, val_out
        )
        assert hist_a.train_loss == hist_b.train_loss
        assert hist_a.val_metric == hist_b.val_metric
        assert hist_a.best_epoch == hist_b.best_epoch
        _assert_states_equal(model_a, model_b)

    def test_fit_above_the_overlap_threshold(self, two_cores, started):
        """Chunked sweeps, the folded clip and the overlapped backward."""
        rng = np.random.default_rng(13)
        inputs = rng.standard_normal((20, _WIDE[0]))
        targets = rng.standard_normal((20, _WIDE[-1])) * 0.1
        config = TrainingConfig(epochs=2, batch_size=8, max_grad_norm=0.2, seed=5)
        model_a, model_b = _wide_stack(), _wide_stack()
        hist_a = ReferenceTrainer(model_a, config=config).fit(
            inputs, targets, inputs[:6], targets[:6]
        )
        assert not started  # the reference runs on the calling thread
        hist_b = Trainer(model_b, config=config).fit(
            inputs, targets, inputs[:6], targets[:6]
        )
        # Per step: the backward's helper, then one sweep thread each for
        # zero_grad, the clip's sums and the update.
        assert len(started) == 4 * 2 * 3
        assert hist_a.train_loss == hist_b.train_loss
        assert hist_a.val_metric == hist_b.val_metric
        _assert_states_equal(model_a, model_b)

    def test_no_shuffle_uses_views_and_matches(self):
        rng = np.random.default_rng(3)
        inputs = rng.standard_normal((24, 20))
        targets = rng.standard_normal((24, 20)) * 0.1
        config = TrainingConfig(
            epochs=2, batch_size=8, optimizer="sgd", shuffle=False, seed=0
        )
        model_a, model_b = _twin_models(widths=(20, 4, 20))
        ReferenceTrainer(model_a, config=config).fit(inputs, targets)
        Trainer(model_b, config=config).fit(inputs, targets)
        _assert_states_equal(model_a, model_b)


def _reference_conv_twin(*args, **kwargs):
    conv = Conv1d(*args, **kwargs)
    twin = Conv1d(*args, **kwargs)
    twin.__class__ = ReferenceConv1d
    return conv, twin


class TestConvIm2colEquivalence:
    """Strided im2col vs the frozen per-kernel-position loops."""

    @pytest.mark.parametrize(
        "channels,kernel,length,batch",
        [(1, 3, 7, 2), (3, 5, 12, 4), (2, 7, 9, 1), (4, 1, 6, 3)],
    )
    def test_forward_bit_identical(self, channels, kernel, length, batch):
        conv, twin = _reference_conv_twin(channels, 5, kernel, rng=0)
        x = np.random.default_rng(1).standard_normal(
            (batch, channels, length)
        )
        assert np.array_equal(conv.forward(x), twin.forward(x))

    def test_forward_bit_identical_across_batch_shapes(self):
        """Scratch buffers re-key per shape without corrupting results."""
        conv, twin = _reference_conv_twin(3, 4, 5, rng=2)
        rng = np.random.default_rng(3)
        for batch, length in [(8, 11), (3, 11), (8, 11), (5, 20)]:
            x = rng.standard_normal((batch, 3, length))
            assert np.array_equal(conv.forward(x), twin.forward(x))

    def test_padding_zero_skips_padding(self):
        """kernel_size=1 (padding 0) takes the pad-free path and matches."""
        conv, twin = _reference_conv_twin(2, 3, 1, rng=4)
        x = np.random.default_rng(5).standard_normal((4, 2, 9))
        out = conv.forward(x)
        assert np.array_equal(out, twin.forward(x))
        # The pad-free scratch is the (batch, L, C) columns alone.
        ((_, buffers),) = conv._scratch.items()
        assert isinstance(buffers, np.ndarray)
        assert buffers.shape == (4, 9, 2)

    @pytest.mark.parametrize(
        "channels,out_channels,kernel,length,batch",
        [(1, 1, 3, 7, 2), (3, 4, 5, 12, 4), (2, 5, 1, 6, 3)],
    )
    def test_backward_matches_reference_to_rounding(
        self, channels, out_channels, kernel, length, batch
    ):
        conv, twin = _reference_conv_twin(channels, out_channels, kernel, rng=6)
        rng = np.random.default_rng(7)
        x = rng.standard_normal((batch, channels, length))
        grad = rng.standard_normal((batch, out_channels, length))
        conv.forward(x)
        twin.forward(x)
        grad_in = conv.backward(grad)
        grad_in_ref = twin.backward(grad)
        np.testing.assert_allclose(grad_in, grad_in_ref, rtol=1e-12, atol=1e-13)
        np.testing.assert_allclose(
            conv.weight.grad, twin.weight.grad, rtol=1e-12, atol=1e-13
        )
        np.testing.assert_allclose(
            conv.bias.grad, twin.bias.grad, rtol=1e-12, atol=1e-13
        )

    def test_forward_output_is_caller_owned(self):
        """Repeated forwards must not overwrite previously returned arrays."""
        conv = Conv1d(2, 3, 3, rng=8)
        rng = np.random.default_rng(9)
        x1 = rng.standard_normal((2, 2, 6))
        x2 = rng.standard_normal((2, 2, 6))
        out1 = conv.forward(x1)
        snapshot = out1.copy()
        conv.forward(x2)
        assert np.array_equal(out1, snapshot)

    def test_pickle_drops_scratch_and_gradients(self):
        import pickle

        conv = Conv1d(3, 4, 5, rng=1)
        rng = np.random.default_rng(2)
        x = rng.standard_normal((4, 3, 11))
        expected = conv.forward(x)
        conv.backward(rng.standard_normal((4, 4, 11)))
        assert conv._scratch
        assert np.any(conv.weight.grad != 0.0)
        clone = pickle.loads(pickle.dumps(conv))
        assert clone._scratch == {}
        assert clone._cached_columns is None
        # Gradients are scratch, not model state: the clone starts clean.
        assert np.array_equal(clone.weight.grad, np.zeros_like(conv.weight.grad))
        assert np.array_equal(clone.forward(x), expected)

    def test_pickle_bytes_independent_of_gradients(self):
        """Equal weights hash equal regardless of training leftovers."""
        import pickle

        conv_a = Conv1d(2, 2, 3, rng=5)
        conv_b = Conv1d(2, 2, 3, rng=5)
        rng = np.random.default_rng(6)
        conv_b.forward(rng.standard_normal((3, 2, 8)))
        conv_b.backward(rng.standard_normal((3, 2, 8)))
        assert pickle.dumps(conv_a) == pickle.dumps(conv_b)


class TestPinReferenceNn:
    def test_pins_known_layers(self):
        model = Sequential(
            [Linear(6, 4, rng=0), Tanh(), Conv1d(1, 1, 3, rng=1)]
        )
        pin_reference_nn(model)
        names = [type(layer).__name__ for layer in model.layers]
        assert names == ["ReferenceLinear", "ReferenceTanh", "ReferenceConv1d"]

    def test_loss_caching_matches_reference(self):
        from repro.perf.reference import ReferenceNormalizedL1Loss

        rng = np.random.default_rng(0)
        prediction = rng.standard_normal((5, 7))
        target = rng.standard_normal((5, 7))
        live, frozen = NormalizedL1Loss(), ReferenceNormalizedL1Loss()
        assert live.forward(prediction, target) == frozen.forward(
            prediction, target
        )
        assert np.array_equal(live.backward(), frozen.backward())
