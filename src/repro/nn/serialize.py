"""Model parameter serialization to/from ``.npz`` files.

State dicts map ``"p<i>.<name>"`` keys to arrays in parameter-iteration
order, which is deterministic for our sequential models.  This module
is the only one that knows that key scheme: :func:`load_state_dict`
copies a state into a live model, :func:`model_from_state` builds a new
model around one.
"""

from __future__ import annotations

import os

import numpy as np

from repro.errors import ShapeError
from repro.nn.module import Module

__all__ = [
    "state_dict",
    "load_state_dict",
    "model_from_state",
    "save_state",
    "load_state",
    "read_state",
    "state_digest",
]


def _key(index: int, param) -> str:
    """The state-dict key of a model's ``index``-th parameter."""
    return f"p{index}.{param.name}"


def state_dict(model: Module) -> dict[str, np.ndarray]:
    """Snapshot all parameters of ``model`` as copies."""
    return {
        _key(i, param): param.data.copy()
        for i, param in enumerate(model.parameters())
    }


def load_state_dict(model: Module, state: dict[str, np.ndarray]) -> None:
    """Load a snapshot produced by :func:`state_dict` into ``model``."""
    params = list(model.parameters())
    if len(state) != len(params):
        raise ShapeError(
            f"state has {len(state)} tensors but model has {len(params)} parameters"
        )
    for i, param in enumerate(params):
        key = _key(i, param)
        if key not in state:
            raise ShapeError(f"state is missing parameter {key!r}")
        value = np.asarray(state[key], dtype=np.float64)
        if value.shape != param.data.shape:
            raise ShapeError(
                f"parameter {key!r} has shape {value.shape}, "
                f"expected {param.data.shape}"
            )
        # In-place copy: a live optimizer aliases param.data into its
        # packed update buffer, and rebinding would silently detach it.
        param.data[...] = value


def model_from_state(build, state: dict[str, np.ndarray]) -> Module:
    """The model ``build`` makes around ``state``'s arrays (no init draw).

    ``build`` receives the arrays in parameter order (the ``p<i>``
    indices :func:`state_dict` writes) and returns a module whose
    parameters hold copies of them.  Raises :class:`ShapeError` unless
    the keys name exactly the built model's parameters, as
    :func:`load_state_dict` would.
    """
    by_index = {key.partition(".")[0]: key for key in state}
    try:
        keys = [by_index[f"p{i}"] for i in range(len(state))]
    except KeyError:
        raise ShapeError(
            f"state keys {sorted(state)} are not one per index p0..p{len(state) - 1}"
        ) from None
    model = build([state[key] for key in keys])
    expected = [_key(i, param) for i, param in enumerate(model.parameters())]
    if keys != expected:
        raise ShapeError(
            f"state names {keys} but the model's parameters are {expected}"
        )
    return model


def state_digest(state: dict[str, np.ndarray]) -> str:
    """sha256 over a state dict (order-independent).

    Covers each array's name, dtype, shape, and C-order bytes — used for
    content-addressed weight filenames (:meth:`ModelZoo.save`) and as
    the integrity check the runtime checkpoint store verifies before
    serving persisted weights.  A C-contiguous array is hashed where it
    lies; any other is copied to C order first.
    """
    import hashlib

    digest = hashlib.sha256()
    for name in sorted(state):
        value = np.ascontiguousarray(state[name])
        digest.update(name.encode())
        digest.update(b"\0")
        digest.update(str(value.dtype).encode())
        digest.update(b"\0")
        digest.update(repr(value.shape).encode())
        digest.update(b"\0")
        digest.update(memoryview(value))
        digest.update(b"\0")
    return digest.hexdigest()


def save_state(model: Module, path: str) -> None:
    """Save the model parameters to an ``.npz`` file at ``path``."""
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    np.savez(path, **state_dict(model))


def read_state(path: str) -> dict[str, np.ndarray]:
    """The state dict :func:`save_state` wrote to ``path``."""
    with np.load(path) as data:
        return {key: data[key] for key in data.files}


def load_state(model: Module, path: str) -> None:
    """Load parameters saved by :func:`save_state` into ``model``."""
    load_state_dict(model, read_state(path))
