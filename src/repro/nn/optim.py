"""Optimizers: SGD (with momentum/weight decay) and Adam [24].

The paper uses SGD for synthetic datasets and Adam for experimental
datasets (Sec. IV-D), both with an initial learning rate of 1e-3.

At construction the optimizer packs every parameter's ``data`` and
``grad`` into one flat buffer each (the
:class:`~repro.nn.module.Parameter` objects are re-pointed at views of
those buffers, so layers keep accumulating gradients exactly as
before).  ``step`` and :meth:`Optimizer.clip_global_norm` then make one
sweep over the packed buffers in blocks of :data:`BLOCK` elements and
run every elementwise operation of the rule on a block while it is
still in cache.  Whole-buffer array operations would stream each
multi-MB buffer through memory once per operation (about 14 passes per
Adam step), which makes the step bound by memory bandwidth; in blocks
the step reads ``grad``, ``data`` and the moments once, writes ``data``
and the moments once, and is bound by its three divides and one
square root per element instead.

The block size is a constant, not a knob: 32 Ki float64 elements is
256 KiB per array, so Adam's six live arrays per block (data, grad,
``m``, ``v`` and two scratch rows) take 1.5 MiB and fit in a 2 MiB L2.
Blocks of 16 to 64 Ki elements time alike on the wide Table II model
(see ``docs/perf.md``), so nothing is gained by tuning it per host.  A
model of at most :data:`BLOCK` parameters is simply one block.

A large model's blocks are split into contiguous *chunks*, one per
core, each of at least :data:`_MIN_BLOCKS` blocks and with its own two
scratch rows, and every sweep (``step``, :meth:`Optimizer.zero_grad`,
and the clip's sums and rescale) runs its chunks on that many threads;
NumPy drops the GIL inside each block's operations.  The threads pay
only while the job holds one BLAS thread
(:func:`repro.utils.blas.one_blas_thread`): otherwise OpenBLAS's idle
thread spins on the core the sweep wants.  A model built in a pool
worker gets one chunk, because the pool already has a process per
core, and a model of fewer than ``2 * _MIN_BLOCKS`` blocks (every
campaign ladder model, the Table II 3-layer model) is one chunk swept
in the calling thread, which starts no thread.  Threads are started
per sweep, so an optimizer never holds a thread pool a fork could
inherit without its threads.

Every element sees the same arithmetic in the same order as the
per-parameter loop formulation (no reciprocal multiplies, no regrouped
terms), so trained weights are bit-identical to it whatever the chunks
— the frozen loop implementations live in ``repro.perf.reference`` and
the equivalence is regression-tested.  The gradient clip stays
bit-identical too, although a parameter may span many blocks: NumPy's
float64 ``sum`` over a contiguous span is one pairwise recursion that
splits at ``n // 2`` rounded down to a multiple of 8, so
:meth:`Optimizer.clip_global_norm` descends that same split tree until
a node fits in one block, squares each such leaf into its chunk's
scratch, sums it with ``sum``, and adds the leaf sums back up the tree
in tree order once every chunk is done — exactly the additions
``np.sum(grad**2)`` makes.

``step(max_norm=limit)`` folds the clip into the update: it sums the
norm as the clip does and, when the norm exceeds ``limit``, scales each
gradient block in place inside the update's sweep, just before the rule
reads it.  Every gradient element is multiplied by the same factor as
in :meth:`Optimizer.clip_global_norm`, so the weights and the gradient
buffer keep their bits, and the buffer is streamed once per step
instead of twice.  The trainer clips this way; ``clip_global_norm``
stays for callers that want the norm or the clipped gradients alone.

The rule that decides the chunks, :func:`sweep_threads`, also decides
whether :meth:`repro.nn.layers.Sequential.backward` runs its weight
gradients on a helper thread, so one policy covers every thread the
training step starts.  Its core count comes from
:func:`repro.utils.cores.job_cores`, which also sizes the zoo
builder's checkpoint loaders.

Construction order matters only in the trivial sense: packing copies
the parameters' current values, so sequential use of several
optimizers over the same model (train, then fine-tune) is fine; two
optimizers mutating the same parameters *concurrently* was never
meaningful and remains unsupported.
"""

from __future__ import annotations

import bisect
import threading
from typing import Callable, Iterable, Iterator, NamedTuple

import numpy as np

from repro.errors import ConfigurationError
from repro.nn.module import Parameter
from repro.obs.metrics import profiled
from repro.utils.cores import job_cores

__all__ = ["Optimizer", "SGD", "Adam", "BLOCK"]

#: Elements per block of the optimizer sweep (see the module docstring).
BLOCK = 1 << 15

#: Fewest blocks a sweep thread takes.  A thread costs a start and a
#: join per sweep, so a chunk must be long enough to pay for them.
_MIN_BLOCKS = 16


def sweep_threads(parameters: "Iterable[Parameter]") -> int:
    """Threads that sweep a model of ``parameters``.

    One per core a job's helper threads may use
    (:func:`repro.utils.cores.job_cores`: 1 in a pool worker), each
    taking at least :data:`_MIN_BLOCKS` blocks.  The optimizer splits
    its sweeps by this count, and :meth:`repro.nn.layers.Sequential.backward`
    overlaps its GEMMs only when it exceeds 1.  The parameters are
    counted last, so a backward in a pool worker or on one core never
    walks the model.
    """
    cores = job_cores()
    if cores < 2:
        return 1
    n_blocks = -(-sum(param.size for param in parameters) // BLOCK)
    return max(1, min(cores, n_blocks // _MIN_BLOCKS))


def _split(count: int) -> int:
    """Where NumPy's pairwise ``sum`` splits a span of ``count`` elements."""
    half = count // 2
    return half - half % 8


def _tree_leaves(start: int, count: int) -> "list[tuple[int, int]]":
    """``(start, count)`` of every node of the split tree that fits a block.

    Left to right: the order in which :func:`_tree_sum` consumes them.
    """
    if count <= BLOCK:
        return [(start, count)]
    half = _split(count)
    return _tree_leaves(start, half) + _tree_leaves(start + half, count - half)


def _tree_sum(count: int, leaf_sums: Iterator[float]) -> float:
    """Add the next leaves' sums up the split tree of ``count`` elements."""
    if count <= BLOCK:
        return next(leaf_sums)
    half = _split(count)
    return _tree_sum(half, leaf_sums) + _tree_sum(count - half, leaf_sums)


class _Chunk(NamedTuple):
    """One sweep thread's contiguous share of the packed buffers."""

    blocks: "list[slice]"
    #: Elements ``blocks`` cover.
    span: slice
    #: Indices of the clip's tree leaves that start inside ``span``.
    leaves: range
    #: The chunk's own two block-sized scratch rows.
    work: np.ndarray


class Optimizer:
    """Base optimizer: holds parameters and a mutable learning rate.

    Packs parameter data/gradients into flat buffers (see the module
    docstring) and exposes the helpers shared by the concrete rules:
    :meth:`zero_grad` clears all gradients in one write and
    :meth:`clip_global_norm` rescales them against a global-L2 bound.
    """

    def __init__(self, parameters: Iterable[Parameter], lr: float) -> None:
        self.parameters = list(parameters)
        if not self.parameters:
            raise ConfigurationError("optimizer received no parameters")
        if lr <= 0:
            raise ConfigurationError(f"learning rate must be positive, got {lr}")
        self.lr = float(lr)
        total = sum(param.size for param in self.parameters)
        self._flat_data = np.empty(total)
        self._flat_grad = np.empty(total)
        self._slices: list[slice] = []
        offset = 0
        for param in self.parameters:
            span = slice(offset, offset + param.size)
            shape = param.data.shape
            self._flat_data[span] = param.data.ravel()
            self._flat_grad[span] = param.grad.ravel()
            # Re-point the parameter at the packed buffers.  All layer
            # code mutates data/grad in place (`+=`, `[...] =`), so the
            # aliasing is preserved for the optimizer's lifetime.
            param.data = self._flat_data[span].reshape(shape)
            param.grad = self._flat_grad[span].reshape(shape)
            self._slices.append(span)
            offset += param.size
        self._blocks = [
            slice(start, min(start + BLOCK, total))
            for start in range(0, total, BLOCK)
        ]
        self._leaves = [
            leaf
            for span in self._slices
            for leaf in _tree_leaves(span.start, span.stop - span.start)
        ]
        n_chunks = sweep_threads(self.parameters)
        edges = [len(self._blocks) * i // n_chunks for i in range(n_chunks + 1)]
        # Element offsets where the chunks meet, and the first leaf of
        # each chunk: a leaf belongs to the chunk it starts in.
        bounds = [0, *(self._blocks[edge].start for edge in edges[1:-1]), total]
        leaf_starts = [start for start, _ in self._leaves]
        cuts = [
            0,
            *(bisect.bisect_left(leaf_starts, bound) for bound in bounds[1:-1]),
            len(self._leaves),
        ]
        work = np.empty((n_chunks, 2, min(total, BLOCK)))
        self._chunks = [
            _Chunk(
                blocks=self._blocks[edges[i] : edges[i + 1]],
                span=slice(bounds[i], bounds[i + 1]),
                leaves=range(cuts[i], cuts[i + 1]),
                work=work[i],
            )
            for i in range(n_chunks)
        ]

    def _sweep(self, fn: "Callable[[_Chunk], None]") -> None:
        """Run ``fn`` on every chunk, each on its own thread.

        The calling thread takes the first chunk, so a one-chunk
        optimizer starts no thread.  An exception on any thread is
        raised here once every thread has finished.
        """
        errors: "list[BaseException]" = []

        def run(chunk: _Chunk) -> None:
            try:
                fn(chunk)
            except BaseException as exc:  # re-raised below, in the caller
                errors.append(exc)

        threads = [
            threading.Thread(target=run, args=(chunk,)) for chunk in self._chunks[1:]
        ]
        for thread in threads:
            thread.start()
        run(self._chunks[0])
        for thread in threads:
            thread.join()
        if errors:
            raise errors[0]

    def zero_grad(self) -> None:
        def zero(chunk: _Chunk) -> None:
            self._flat_grad[chunk.span] = 0.0

        self._sweep(zero)

    def clip_global_norm(self, limit: float) -> float:
        """Scale all gradients so their global L2 norm stays <= ``limit``.

        The norm is the root of :meth:`_sum_of_squares`, bit for bit the
        reference loop's.  The rescale, when needed, is one in-place
        pass over each chunk's blocks, the pass ``step(max_norm=limit)``
        makes inside its update.  Returns the pre-clip norm.
        """
        norm, scale = self._clip(limit)
        if scale is not None:

            def rescale(chunk: _Chunk) -> None:
                for block in chunk.blocks:
                    self._grad(block, scale)

            self._sweep(rescale)
        return norm

    def _clip(self, limit: float) -> "tuple[float, float | None]":
        """The global gradient norm, and the factor that scales it to ``limit``.

        The factor is ``None`` when the norm is within ``limit``.
        """
        norm = float(np.sqrt(self._sum_of_squares()))
        return norm, (limit / norm if norm > limit else None)

    def _grad(self, block: slice, scale: "float | None") -> np.ndarray:
        """The gradient of ``block``, first scaled in place by ``scale``.

        The clip's element arithmetic: every gradient element times the
        one factor, which leaves the buffer as :meth:`clip_global_norm`
        would, however the blocks are grouped.
        """
        grad = self._flat_grad[block]
        if scale is not None:
            grad *= scale
        return grad

    def _sum_of_squares(self) -> float:
        """``np.sum(grad**2)`` per parameter, added in parameter order.

        Each parameter's sum is taken along NumPy's pairwise-summation
        tree: the chunks sum their tree leaves (nodes that fit one
        block), then the leaf sums are added up each parameter's tree,
        which reproduces the reference loop's float arithmetic bit for
        bit.
        """
        leaf_sums = [0.0] * len(self._leaves)

        def square_sums(chunk: _Chunk) -> None:
            row = chunk.work[0]
            for index in chunk.leaves:
                start, count = self._leaves[index]
                grad = self._flat_grad[start : start + count]
                leaf_sums[index] = float(np.multiply(grad, grad, out=row[:count]).sum())

        self._sweep(square_sums)
        ordered = iter(leaf_sums)
        total = 0.0
        for span in self._slices:
            total += _tree_sum(span.stop - span.start, ordered)
        return total

    def step(self, max_norm: "float | None" = None) -> None:
        """One update; with ``max_norm``, clip the gradients first.

        ``step(max_norm=limit)`` leaves the weights and the gradients bit
        for bit as ``clip_global_norm(limit); step()`` does: it sums the
        norm the same way and scales each gradient block in place inside
        the update's sweep, just before the rule reads it, instead of in
        a pass of its own.
        """
        raise NotImplementedError


class SGD(Optimizer):
    """Stochastic gradient descent with optional momentum and weight decay."""

    def __init__(
        self,
        parameters: Iterable[Parameter],
        lr: float = 1e-3,
        momentum: float = 0.0,
        weight_decay: float = 0.0,
    ) -> None:
        super().__init__(parameters, lr)
        if not 0.0 <= momentum < 1.0:
            raise ConfigurationError(f"momentum must be in [0, 1), got {momentum}")
        if weight_decay < 0:
            raise ConfigurationError("weight_decay must be >= 0")
        self.momentum = float(momentum)
        self.weight_decay = float(weight_decay)
        self._velocity = np.zeros_like(self._flat_data)

    @profiled("optim.step")
    def step(self, max_norm: "float | None" = None) -> None:
        scale = None if max_norm is None else self._clip(max_norm)[1]

        def update(chunk: _Chunk) -> None:
            for block in chunk.blocks:
                data = self._flat_data[block]
                grad = self._grad(block, scale)
                work = chunk.work[0, : block.stop - block.start]
                if self.weight_decay:
                    # grad + weight_decay * data
                    np.multiply(self.weight_decay, data, out=work)
                    grad = np.add(grad, work, out=work)
                if self.momentum:
                    update = self._velocity[block]
                    update *= self.momentum
                    update += grad
                else:
                    update = grad
                data -= np.multiply(self.lr, update, out=work)

        self._sweep(update)


class Adam(Optimizer):
    """Adam optimizer (Kingma & Ba, 2015) with bias correction."""

    def __init__(
        self,
        parameters: Iterable[Parameter],
        lr: float = 1e-3,
        betas: tuple[float, float] = (0.9, 0.999),
        eps: float = 1e-8,
        weight_decay: float = 0.0,
    ) -> None:
        super().__init__(parameters, lr)
        beta1, beta2 = betas
        if not (0.0 <= beta1 < 1.0 and 0.0 <= beta2 < 1.0):
            raise ConfigurationError(f"betas must be in [0, 1), got {betas}")
        if eps <= 0:
            raise ConfigurationError("eps must be positive")
        self.beta1 = float(beta1)
        self.beta2 = float(beta2)
        self.eps = float(eps)
        self.weight_decay = float(weight_decay)
        self._step_count = 0
        self._m = np.zeros_like(self._flat_data)
        self._v = np.zeros_like(self._flat_data)

    @profiled("optim.step")
    def step(self, max_norm: "float | None" = None) -> None:
        scale = None if max_norm is None else self._clip(max_norm)[1]
        self._step_count += 1
        bias1 = 1.0 - self.beta1**self._step_count
        bias2 = 1.0 - self.beta2**self._step_count

        def update(chunk: _Chunk) -> None:
            for block in chunk.blocks:
                data = self._flat_data[block]
                grad = self._grad(block, scale)
                m = self._m[block]
                v = self._v[block]
                num, den = chunk.work[:, : block.stop - block.start]
                if self.weight_decay:
                    # grad + weight_decay * data
                    np.multiply(self.weight_decay, data, out=num)
                    grad = np.add(grad, num, out=num)
                # First and second moments; each elementwise expression
                # matches the reference loop's operation order exactly.
                m *= self.beta1
                m += np.multiply(1.0 - self.beta1, grad, out=den)
                v *= self.beta2
                np.multiply(grad, grad, out=den)
                v += np.multiply(1.0 - self.beta2, den, out=den)
                # Bias-corrected update: data -= lr * m_hat / (sqrt(v_hat) + eps).
                np.divide(m, bias1, out=num)
                num *= self.lr
                np.divide(v, bias2, out=den)
                np.sqrt(den, out=den)
                den += self.eps
                num /= den
                data -= num

        self._sweep(update)
