"""Layers: Linear, activations, Dropout, and the Sequential container.

Each layer caches its forward inputs and implements an explicit backward
pass.  Backward must be called after forward with a gradient of the same
shape as the forward output; parameter gradients *accumulate* (call
``zero_grad`` between steps, as the optimizers do).

A large :class:`Sequential` runs its backward on two threads.  A
``Linear``'s weight gradient (``x.T @ dy``, added into ``weight.grad``)
feeds nothing further down the chain, so :meth:`Sequential.backward`
hands it to one helper thread, which adds them in the order the chain
reaches them, while the calling thread computes the bias gradient and
the input gradient ``dy @ W.T`` and moves on to the next layer.  Every
product keeps its operands, its shape and the job's one BLAS thread
(:func:`repro.utils.blas.one_blas_thread`), so every gradient keeps its
bits.  The overlap engages under the optimizer's own rule
(:func:`repro.nn.optim.sweep_threads`): more than one core, not a pool
worker, and at least ``2 * _MIN_BLOCKS`` optimizer blocks of
parameters, so the Table II 3-layer model and every campaign ladder
model back-propagate on the calling thread and start no thread.
"""

from __future__ import annotations

import queue
import threading
from typing import Callable, Sequence

import numpy as np

from repro.errors import ConfigurationError, ShapeError
from repro.nn.init import initializer
from repro.nn.module import Module, Parameter
from repro.nn.optim import sweep_threads
from repro.utils.rng import as_generator

__all__ = [
    "Linear",
    "ReLU",
    "LeakyReLU",
    "Tanh",
    "Sigmoid",
    "Identity",
    "Dropout",
    "Sequential",
]


#: ``(weight.grad, x, dy)`` of one Linear's backward: add ``x.T @ dy``
#: into ``weight.grad``.
_WeightGrad = tuple[np.ndarray, np.ndarray, np.ndarray]


def _add_weight_grad(job: _WeightGrad) -> None:
    weight_grad, inputs, grad_output = job
    weight_grad += inputs.T @ grad_output


class Linear(Module):
    """Fully-connected layer ``y = x W + b``.

    Parameters
    ----------
    in_features, out_features:
        Input/output widths.
    bias:
        Whether to learn an additive bias (default True).
    init:
        ``"glorot"`` or ``"he"`` (default ``"glorot"``).
    rng:
        Seed or Generator for the weight init.
    """

    def __init__(
        self,
        in_features: int,
        out_features: int,
        bias: bool = True,
        init: str = "glorot",
        rng: "int | np.random.Generator | None" = None,
    ) -> None:
        if in_features <= 0 or out_features <= 0:
            raise ConfigurationError(
                f"Linear dims must be positive, got {in_features}x{out_features}"
            )
        init_fn = initializer(init)
        self._adopt(
            init_fn(in_features, out_features, as_generator(rng)),
            np.zeros(out_features) if bias else None,
        )

    @classmethod
    def from_arrays(
        cls, weight: np.ndarray, bias: "np.ndarray | None" = None
    ) -> "Linear":
        """A layer around trained parameters, copied in (no init draw).

        ``weight`` is ``(in_features, out_features)``; ``bias``, if
        given, ``(out_features,)``.
        """
        weight = np.array(weight, dtype=np.float64)
        if weight.ndim != 2 or weight.size == 0:
            raise ShapeError(
                f"Linear weight must be a non-empty 2-D array, got {weight.shape}"
            )
        if bias is not None:
            bias = np.array(bias, dtype=np.float64)
            if bias.shape != (weight.shape[1],):
                raise ShapeError(
                    f"Linear bias has shape {bias.shape}, "
                    f"expected {(weight.shape[1],)}"
                )
        layer = cls.__new__(cls)
        layer._adopt(weight, bias)
        return layer

    def _adopt(self, weight: np.ndarray, bias: "np.ndarray | None") -> None:
        """Set up the layer around its (owned) parameter arrays."""
        super().__init__()
        self.in_features, self.out_features = weight.shape
        self.weight = Parameter(weight, name="weight")
        self.bias = Parameter(bias, name="bias") if bias is not None else None
        self._cached_input: np.ndarray | None = None

    def forward(self, inputs: np.ndarray) -> np.ndarray:
        inputs = self._as_batch(inputs)
        if inputs.shape[1] != self.in_features:
            raise ShapeError(
                f"Linear expected {self.in_features} features, got {inputs.shape[1]}"
            )
        self._cached_input = inputs
        out = np.empty((inputs.shape[0], self.out_features))
        np.matmul(inputs, self.weight.data, out=out)
        if self.bias is not None:
            out += self.bias.data
        return out

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        return self._backward(grad_output, _add_weight_grad)

    def _backward(
        self, grad_output: np.ndarray, add_weight_grad: "Callable[[_WeightGrad], None]"
    ) -> np.ndarray:
        """Backward, with the weight gradient's product handed to ``add_weight_grad``.

        :meth:`backward` adds it at once; :meth:`Sequential.backward`
        may queue it for its helper thread instead.
        """
        if self._cached_input is None:
            raise ShapeError("backward called before forward on Linear")
        grad_output = np.asarray(grad_output, dtype=np.float64)
        if grad_output.ndim == 1:
            grad_output = grad_output[None, :]
        add_weight_grad((self.weight.grad, self._cached_input, grad_output))
        if self.bias is not None:
            self.bias.grad += grad_output.sum(axis=0)
        return grad_output @ self.weight.data.T

    def macs(self, batch: int = 1) -> int:
        """Multiply-accumulate count for a forward pass of ``batch`` rows."""
        return batch * self.in_features * self.out_features

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Linear({self.in_features}, {self.out_features})"


class _Activation(Module):
    """Base for cached element-wise activations.

    Forward caches both its input and its output; ``_dfn_from`` lets a
    subclass derive the gradient from the cached output (e.g. tanh'
    from tanh) instead of re-evaluating the transcendental — the same
    expression on the same bits, just without the second pass.
    """

    def __init__(self) -> None:
        super().__init__()
        self._cached_input: np.ndarray | None = None
        self._cached_output: np.ndarray | None = None

    def _fn(self, x: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def _dfn(self, x: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def _dfn_from(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        """Derivative given forward input ``x`` and cached output ``y``."""
        return self._dfn(x)

    def forward(self, inputs: np.ndarray) -> np.ndarray:
        inputs = np.asarray(inputs, dtype=np.float64)
        self._cached_input = inputs
        self._cached_output = self._fn(inputs)
        return self._cached_output

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        if self._cached_input is None or self._cached_output is None:
            raise ShapeError(f"backward before forward on {type(self).__name__}")
        return np.asarray(grad_output) * self._dfn_from(
            self._cached_input, self._cached_output
        )


class ReLU(_Activation):
    """Rectified linear unit."""

    def _fn(self, x: np.ndarray) -> np.ndarray:
        return np.maximum(x, 0.0)

    def _dfn(self, x: np.ndarray) -> np.ndarray:
        return (x > 0).astype(np.float64)


class LeakyReLU(_Activation):
    """Leaky ReLU with configurable negative slope (default 0.01)."""

    def __init__(self, negative_slope: float = 0.01) -> None:
        super().__init__()
        if negative_slope < 0:
            raise ConfigurationError("negative_slope must be >= 0")
        self.negative_slope = float(negative_slope)

    def _fn(self, x: np.ndarray) -> np.ndarray:
        return np.where(x > 0, x, self.negative_slope * x)

    def _dfn(self, x: np.ndarray) -> np.ndarray:
        return np.where(x > 0, 1.0, self.negative_slope)


class Tanh(_Activation):
    """Hyperbolic tangent."""

    def _fn(self, x: np.ndarray) -> np.ndarray:
        return np.tanh(x)

    def _dfn(self, x: np.ndarray) -> np.ndarray:
        return 1.0 - np.tanh(x) ** 2

    def _dfn_from(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        return 1.0 - y**2


class Sigmoid(_Activation):
    """Logistic sigmoid."""

    def _fn(self, x: np.ndarray) -> np.ndarray:
        return 1.0 / (1.0 + np.exp(-x))

    def _dfn(self, x: np.ndarray) -> np.ndarray:
        s = self._fn(x)
        return s * (1.0 - s)

    def _dfn_from(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        return y * (1.0 - y)


class Identity(_Activation):
    """Pass-through layer (useful as a named placeholder)."""

    def _fn(self, x: np.ndarray) -> np.ndarray:
        return x

    def _dfn(self, x: np.ndarray) -> np.ndarray:
        return np.ones_like(x)


class Dropout(Module):
    """Inverted dropout; active only in training mode."""

    def __init__(
        self, p: float = 0.5, rng: "int | np.random.Generator | None" = None
    ) -> None:
        super().__init__()
        if not 0.0 <= p < 1.0:
            raise ConfigurationError(f"dropout probability must be in [0, 1), got {p}")
        self.p = float(p)
        self.rng = as_generator(rng)
        self._mask: np.ndarray | None = None

    def forward(self, inputs: np.ndarray) -> np.ndarray:
        inputs = np.asarray(inputs, dtype=np.float64)
        if not self.training or self.p == 0.0:
            self._mask = None
            return inputs
        keep = 1.0 - self.p
        self._mask = (self.rng.random(inputs.shape) < keep) / keep
        return inputs * self._mask

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        if self._mask is None:
            return np.asarray(grad_output)
        return np.asarray(grad_output) * self._mask


class Sequential(Module):
    """Chain of layers applied in order."""

    def __init__(self, layers: Sequence[Module]) -> None:
        super().__init__()
        self.layers = list(layers)
        if not self.layers:
            raise ConfigurationError("Sequential requires at least one layer")

    def forward(self, inputs: np.ndarray) -> np.ndarray:
        out = inputs
        for layer in self.layers:
            out = layer.forward(out)
        return out

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        """Back-propagate through the chain; see the module docstring.

        A helper thread adds the Linears' weight gradients when
        :func:`~repro.nn.optim.sweep_threads` gives this model more than
        one thread.  The helper is joined before this returns, and an
        exception raised on it is raised here.
        """
        if sweep_threads(self.parameters()) < 2:
            grad = grad_output
            for layer in reversed(self.layers):
                grad = layer.backward(grad)
            return grad
        jobs: "queue.SimpleQueue[_WeightGrad | None]" = queue.SimpleQueue()
        errors: "list[BaseException]" = []

        def add_weight_grads() -> None:
            try:
                for job in iter(jobs.get, None):
                    _add_weight_grad(job)
            except BaseException as exc:  # re-raised below, in the caller
                errors.append(exc)

        helper = threading.Thread(target=add_weight_grads)
        helper.start()
        try:
            grad = grad_output
            for layer in reversed(self.layers):
                if isinstance(layer, Linear):
                    grad = layer._backward(grad, jobs.put)
                else:
                    grad = layer.backward(grad)
        finally:
            jobs.put(None)
            helper.join()
        if errors:
            raise errors[0]
        return grad

    def __len__(self) -> int:
        return len(self.layers)

    def __getitem__(self, index: int) -> Module:
        return self.layers[index]

    def slice(self, start: int, stop: int | None = None) -> "Sequential":
        """A new Sequential *sharing* the parameter objects of a sub-range.

        Used to split a trained model into head and tail: the slices keep
        referencing the same :class:`Parameter` instances, so no copying
        or re-training is involved.
        """
        sub = self.layers[start:stop]
        return Sequential(sub)
