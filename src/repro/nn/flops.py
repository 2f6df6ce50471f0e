"""Exact MAC/FLOP counting for models built from this package.

Costs are per single input sample.  The accounting convention, used
consistently by the SplitBeam cost models (``docs/conventions.md``,
§ FLOP accounting):

- one multiply-accumulate (MAC) = 2 FLOPs;
- element-wise activations cost one FLOP per element (ignored in MAC
  counts, included in FLOP counts);
- Dropout/Identity are free at inference time.
"""

from __future__ import annotations

from repro.nn.layers import (
    Dropout,
    Identity,
    LeakyReLU,
    Linear,
    ReLU,
    Sequential,
    Sigmoid,
    Tanh,
)
from repro.nn.module import Module

__all__ = ["count_macs", "count_flops", "count_parameters"]

_ACTIVATIONS = (ReLU, LeakyReLU, Tanh, Sigmoid)


def count_macs(model: Module) -> int:
    """Total multiply-accumulates per input sample."""
    total = 0
    for module in model.modules():
        if isinstance(module, Linear):
            total += module.in_features * module.out_features
    return total


def count_flops(model: Module) -> int:
    """Total real floating-point operations per input sample.

    Linear layers contribute 2 FLOPs per MAC plus one add per output
    when biased; activations contribute one FLOP per output element.
    """
    total = 0
    last_width = None
    for module in model.modules():
        if isinstance(module, Linear):
            total += 2 * module.in_features * module.out_features
            if module.bias is not None:
                total += module.out_features
            last_width = module.out_features
        elif isinstance(module, _ACTIVATIONS) and last_width is not None:
            total += last_width
        elif isinstance(module, (Dropout, Identity, Sequential)):
            continue
    return total


def count_parameters(model: Module) -> int:
    """Total trainable scalar parameters."""
    return model.num_parameters()
