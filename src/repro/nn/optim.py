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

Every element sees the same arithmetic in the same order as the
per-parameter loop formulation (no reciprocal multiplies, no regrouped
terms), so trained weights are bit-identical to it — the frozen loop
implementations live in ``repro.perf.reference`` and the equivalence
is regression-tested.  The gradient clip stays bit-identical too,
although a parameter may span many blocks: NumPy's float64 ``sum``
over a contiguous span is one pairwise recursion that splits at
``n // 2`` rounded down to a multiple of 8, so
:meth:`Optimizer.clip_global_norm` descends that same split tree until
a node fits in one block, squares the node into block scratch, sums it
with ``sum`` and adds the partial sums back up the tree — exactly the
additions ``np.sum(grad**2)`` makes.

Construction order matters only in the trivial sense: packing copies
the parameters' current values, so sequential use of several
optimizers over the same model (train, then fine-tune) is fine; two
optimizers mutating the same parameters *concurrently* was never
meaningful and remains unsupported.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

from repro.errors import ConfigurationError
from repro.nn.module import Parameter

__all__ = ["Optimizer", "SGD", "Adam", "BLOCK"]

#: Elements per block of the optimizer sweep (see the module docstring).
BLOCK = 1 << 15


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
        #: Two block-sized scratch rows, reused by every block.
        self._work = np.empty((2, min(total, BLOCK)))

    def zero_grad(self) -> None:
        self._flat_grad[...] = 0.0

    def clip_global_norm(self, limit: float) -> float:
        """Scale all gradients so their global L2 norm stays <= ``limit``.

        Each parameter's sum of squares is taken block by block along
        NumPy's pairwise-summation tree (:meth:`_sum_of_squares`), and
        the partial sums are accumulated in parameter order, which
        reproduces the reference loop's float arithmetic bit for bit.
        The rescale, when needed, is one in-place pass over the packed
        gradient buffer.  Returns the pre-clip norm.
        """
        total = 0.0
        for span in self._slices:
            total += self._sum_of_squares(span.start, span.stop - span.start)
        norm = float(np.sqrt(total))
        if norm > limit:
            self._flat_grad *= limit / norm
        return norm

    def _sum_of_squares(self, start: int, count: int) -> float:
        """``np.sum(grad**2)`` over ``grad[start:start + count]``, bit for bit.

        Follows the split points of NumPy's pairwise sum (``count // 2``
        rounded down to a multiple of 8) until a node fits in one block;
        a node's ``sum`` is then the very subtree NumPy would compute.
        """
        if count <= BLOCK:
            grad = self._flat_grad[start : start + count]
            return float(np.multiply(grad, grad, out=self._work[0, :count]).sum())
        half = count // 2
        half -= half % 8
        return self._sum_of_squares(start, half) + self._sum_of_squares(
            start + half, count - half
        )

    def step(self) -> None:
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

    def step(self) -> None:
        for block in self._blocks:
            data = self._flat_data[block]
            grad = self._flat_grad[block]
            work = self._work[0, : block.stop - block.start]
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

    def step(self) -> None:
        self._step_count += 1
        bias1 = 1.0 - self.beta1**self._step_count
        bias2 = 1.0 - self.beta2**self._step_count
        for block in self._blocks:
            data = self._flat_data[block]
            grad = self._flat_grad[block]
            m = self._m[block]
            v = self._v[block]
            num, den = self._work[:, : block.stop - block.start]
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
