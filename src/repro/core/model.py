"""The SplitBeam DNN architecture.

A SplitBeam model is a dense MLP over the real/imag-decoupled CSI whose
*first* hidden layer is the bottleneck (the Sec. IV-C heuristic fixes
``e = 1``): the input->bottleneck Linear is the **head** executed on the
STA, everything after it is the **tail** executed at the AP.  Layer
widths follow Table II, e.g. ``[224, 28, 28, 224]`` for the 3-layer
2x2/20 MHz model with K = 1/8 (widths count neurons; weight layers =
``len(widths) - 1``).

The bottleneck activations are transmitted over the air *pre-activation*
(raw head outputs); the tail applies the nonlinearity first.  This keeps
the head a single matrix multiply — the property behind the paper's STA
complexity claim O(K * Nt^2 * Nr^2 * S^2).
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.errors import ConfigurationError, ShapeError
from repro.nn.layers import Identity, LeakyReLU, Linear, ReLU, Sequential, Tanh
from repro.nn.module import Module
from repro.utils.rng import as_generator, spawn

__all__ = ["SplitBeamNet", "three_layer_widths"]

_ACTIVATIONS = {
    "relu": ReLU,
    "leaky_relu": LeakyReLU,
    "tanh": Tanh,
    "linear": Identity,
}


def three_layer_widths(input_dim: int, compression: float) -> list[int]:
    """Widths of the Table II 3-layer model: ``[D, K*D, K*D, D]``.

    The bottleneck width is ``max(1, round(K * D))``.
    """
    if input_dim < 2:
        raise ConfigurationError("input_dim must be >= 2")
    if not 0 < compression <= 1:
        raise ConfigurationError(
            f"compression must be in (0, 1], got {compression}"
        )
    bottleneck = max(1, int(round(compression * input_dim)))
    return [input_dim, bottleneck, bottleneck, input_dim]


def _checked_widths(widths: Sequence[int]) -> list[int]:
    """``widths`` as ints, at least ``[input, bottleneck, output]``.

    Larger-than-input bottlenecks are allowed (Table II studies them)
    but are not compressions; nothing to validate there.
    """
    widths = [int(w) for w in widths]
    if len(widths) < 3:
        raise ConfigurationError("need at least [input, bottleneck, output] widths")
    if any(w < 1 for w in widths):
        raise ConfigurationError(f"widths must be >= 1, got {widths}")
    return widths


def _activation(name: str):
    """The activation class registered as ``name``."""
    try:
        return _ACTIVATIONS[name]
    except KeyError:
        raise ConfigurationError(
            f"unknown activation {name!r}; options: {sorted(_ACTIVATIONS)}"
        ) from None


class SplitBeamNet(Module):
    """Dense split DNN with the bottleneck after the first weight layer.

    Parameters
    ----------
    widths:
        Neuron counts per layer, ``[D_in, B, ..., D_out]``; ``B`` is the
        bottleneck width.  Two entries give the BOP's initial
        2-weight-layer model ``[D, B, D]``.
    activation:
        Hidden activation: ``relu``, ``leaky_relu`` (default), ``tanh``
        or ``linear``.
    rng:
        Seed/Generator for weight initialization.
    """

    def __init__(
        self,
        widths: Sequence[int],
        activation: str = "leaky_relu",
        rng: "int | np.random.Generator | None" = 0,
    ) -> None:
        widths = _checked_widths(widths)
        rngs = spawn(as_generator(rng), len(widths) - 1)
        linears = [
            Linear(widths[i], widths[i + 1], rng=rngs[i])
            for i in range(len(widths) - 1)
        ]
        self._build(widths, linears, activation)

    @classmethod
    def from_parameters(
        cls, parameters: Sequence[np.ndarray], activation: str = "leaky_relu"
    ) -> "SplitBeamNet":
        """A model around trained parameters, copied in (no init draw).

        ``parameters`` holds each weight layer's ``(in, out)`` weight and
        ``(out,)`` bias, in :meth:`parameters` order; the widths follow
        from their shapes.
        """
        if len(parameters) % 2:
            raise ShapeError(
                f"expected weight/bias pairs, got {len(parameters)} arrays"
            )
        linears = [
            Linear.from_arrays(weight, bias)
            for weight, bias in zip(parameters[::2], parameters[1::2])
        ]
        widths = _checked_widths(
            [layer.in_features for layer in linears[:1]]
            + [layer.out_features for layer in linears]
        )
        for left, right in zip(linears, linears[1:]):
            if left.out_features != right.in_features:
                raise ShapeError(
                    f"a {left.out_features}-wide layer cannot feed a "
                    f"{right.in_features}-wide one"
                )
        model = cls.__new__(cls)
        model._build(widths, linears, activation)
        return model

    def _build(
        self, widths: "list[int]", linears: "list[Linear]", activation: str
    ) -> None:
        act_cls = _activation(activation)
        super().__init__()
        self.widths = widths
        self.activation_name = activation
        layers: list[Module] = [linears[0]]
        for linear in linears[1:]:
            layers.append(act_cls())
            layers.append(linear)
        self.network = Sequential(layers)

    # -- Module interface ------------------------------------------------------

    def forward(self, inputs: np.ndarray) -> np.ndarray:
        return self.network.forward(inputs)

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        return self.network.backward(grad_output)

    # -- architecture introspection ----------------------------------------------

    @property
    def input_dim(self) -> int:
        return self.widths[0]

    @property
    def output_dim(self) -> int:
        return self.widths[-1]

    @property
    def bottleneck_dim(self) -> int:
        return self.widths[1]

    @property
    def compression(self) -> float:
        """The paper's K = |B| / |input|."""
        return self.bottleneck_dim / self.input_dim

    @property
    def n_weight_layers(self) -> int:
        return len(self.widths) - 1

    def head_network(self) -> Sequential:
        """The STA-side sub-network (input -> raw bottleneck values)."""
        return self.network.slice(0, 1)

    def tail_network(self) -> Sequential:
        """The AP-side sub-network (bottleneck values -> BF estimate)."""
        return self.network.slice(1)

    def head_macs(self) -> int:
        """Multiply-accumulates of the head per inference."""
        return self.widths[0] * self.widths[1]

    def tail_macs(self) -> int:
        """Multiply-accumulates of the tail per inference."""
        return sum(
            self.widths[i] * self.widths[i + 1]
            for i in range(1, len(self.widths) - 1)
        )

    def label(self) -> str:
        """Table II style label, e.g. ``224-28-28-224``."""
        return "-".join(str(w) for w in self.widths)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"SplitBeamNet({self.label()}, act={self.activation_name})"
