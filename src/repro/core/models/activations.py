"""Activation functions for GNN layers.

The paper's Theta is "an activation function such as a Rectified Linear
Unit (ReLU) or a Sigmoid function"; both are provided plus identity for
final layers.
"""

from __future__ import annotations

from typing import Callable, Dict

import numpy as np

from repro.errors import ModelError

__all__ = ["ACTIVATIONS", "activate_inplace", "get_activation", "relu",
           "sigmoid", "identity"]


def relu(x: np.ndarray) -> np.ndarray:
    """Rectified linear unit."""
    return np.maximum(x, 0.0)


def sigmoid(x: np.ndarray) -> np.ndarray:
    """Numerically stable logistic sigmoid."""
    out = np.empty_like(x)
    positive = x >= 0
    out[positive] = 1.0 / (1.0 + np.exp(-x[positive]))
    exp_x = np.exp(x[~positive])
    out[~positive] = exp_x / (1.0 + exp_x)
    return out


def identity(x: np.ndarray) -> np.ndarray:
    """Pass-through (used for final layers producing logits)."""
    return x


ACTIVATIONS: Dict[str, Callable[[np.ndarray], np.ndarray]] = {
    "relu": relu,
    "sigmoid": sigmoid,
    "identity": identity,
}


def get_activation(name: str) -> Callable[[np.ndarray], np.ndarray]:
    """Look up an activation by name."""
    if name not in ACTIVATIONS:
        raise ModelError(
            f"unknown activation {name!r}; known: {sorted(ACTIVATIONS)}"
        )
    return ACTIVATIONS[name]


def activate_inplace(name: str, x: np.ndarray) -> np.ndarray:
    """Apply activation ``name`` to a kernel's own output buffer ``x``.

    ReLU overwrites ``x`` (bitwise what :func:`relu` returns) instead of
    allocating a second output-sized array; other activations allocate.
    """
    if name == "relu":
        return np.maximum(x, 0.0, out=x)
    return get_activation(name)(x)
