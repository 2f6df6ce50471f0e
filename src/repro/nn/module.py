"""Parameter and Module base classes for the NumPy NN stack.

The design is deliberately layer-local: each :class:`Module` implements
``forward`` (caching whatever it needs) and ``backward`` (consuming the
upstream gradient, accumulating parameter gradients, and returning the
gradient with respect to its input).  There is no taped autograd graph —
the model topologies in this project are sequential, and a layer-local
scheme keeps every gradient formula explicit and testable.
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

from repro.errors import ShapeError

__all__ = ["Parameter", "Module"]


def _zero_grad(data: np.ndarray) -> np.ndarray:
    """A zeroed gradient buffer for ``data``.

    ``np.zeros`` rather than ``zeros_like``: its pages are mapped only
    when a backward pass writes them, so a model that only runs
    inference (a checkpoint-loaded zoo) holds no gradient memory.
    """
    return np.zeros(data.shape)


class Parameter:
    """A trainable tensor with an accumulated gradient buffer."""

    def __init__(self, data: np.ndarray, name: str = "param") -> None:
        self.data = np.asarray(data, dtype=np.float64)
        self.grad = _zero_grad(self.data)
        self.name = name

    def __getstate__(self) -> dict:
        """Pickle without the gradient buffer.

        Gradients are per-step scratch, not model state: shipping them
        would double serialized-model payloads and make two models with
        identical weights (one freshly trained, one checkpoint-loaded)
        hash to different content addresses.
        """
        state = self.__dict__.copy()
        state["grad"] = None
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        if self.grad is None:
            self.grad = _zero_grad(self.data)

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def size(self) -> int:
        return int(self.data.size)

    def zero_grad(self) -> None:
        self.grad[...] = 0.0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Parameter({self.name}, shape={self.shape})"


class Module:
    """Base class for all layers and models."""

    def __init__(self) -> None:
        self.training = True

    def __getstate__(self) -> dict:
        """Pickle without transient forward caches or scratch buffers.

        Layers stash their last forward activations (``_cached*``),
        dropout masks, and im2col scratch between passes; none of it is
        model state, and dropping it keeps serialized models (executor
        payloads, checkpoints) lean and content-stable regardless of
        what the instance last computed.
        """
        state = self.__dict__.copy()
        for key in state:
            if key.startswith("_cached") or key == "_mask":
                state[key] = None
            elif key == "_scratch":
                state[key] = {}
        return state

    # -- forward / backward -------------------------------------------------

    def forward(self, inputs: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def __call__(self, inputs: np.ndarray) -> np.ndarray:
        return self.forward(inputs)

    # -- parameter access ----------------------------------------------------

    def parameters(self) -> Iterator[Parameter]:
        """Yield all trainable parameters, depth-first and in order."""
        for value in self.__dict__.values():
            if isinstance(value, Parameter):
                yield value
            elif isinstance(value, Module):
                yield from value.parameters()
            elif isinstance(value, (list, tuple)):
                for item in value:
                    if isinstance(item, Module):
                        yield from item.parameters()
                    elif isinstance(item, Parameter):
                        yield item

    def modules(self) -> Iterator["Module"]:
        """Yield this module and every submodule, depth-first."""
        yield self
        for value in self.__dict__.values():
            if isinstance(value, Module):
                yield from value.modules()
            elif isinstance(value, (list, tuple)):
                for item in value:
                    if isinstance(item, Module):
                        yield from item.modules()

    def zero_grad(self) -> None:
        for param in self.parameters():
            param.zero_grad()

    def num_parameters(self) -> int:
        return sum(param.size for param in self.parameters())

    # -- train / eval mode ---------------------------------------------------

    def train(self) -> "Module":
        for module in self.modules():
            module.training = True
        return self

    def eval(self) -> "Module":
        for module in self.modules():
            module.training = False
        return self

    # -- helpers ---------------------------------------------------------------

    @staticmethod
    def _as_batch(inputs: np.ndarray) -> np.ndarray:
        """Coerce input to a 2-D float batch ``(batch, features)``."""
        inputs = np.asarray(inputs, dtype=np.float64)
        if inputs.ndim == 1:
            return inputs[None, :]
        if inputs.ndim != 2:
            raise ShapeError(
                f"expected 1-D or 2-D input, got shape {inputs.shape}"
            )
        return inputs
