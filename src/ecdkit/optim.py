"""Gradient-descent optimizers: plain SGD and bias-corrected Adam.

``optimizer_step`` updates a packed store's whole weight buffer from its
gradient buffer in one pass and advances the state by exactly one step;
given identical (state, weights, gradients) it always produces identical
results. The update is elementwise, so each weight gets the bits a
per-parameter update would give it. The new weights are computed into
scratch and copied into the buffer only when all of them are finite; else
no weight changes and ``NonFiniteError`` names the first parameter whose
new weights are not finite.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .autodiff import ParameterStore
from .errors import ContractError


@dataclass
class OptimizerState:
    """An optimizer's hyperparameters and its state. SGD reads only the
    learning rate; the training section declares every value's default and
    bound. The buffers are laid out like the store's weight buffer and
    allocated at the first step: Adam's moments and the scratch for the
    step and its denominator."""

    kind: str
    learning_rate: float
    beta1: float
    beta2: float
    epsilon: float
    step_count: int = 0
    first_moment: np.ndarray | None = None
    second_moment: np.ndarray | None = None
    step: np.ndarray | None = None
    denom: np.ndarray | None = None


def optimizer_step(state: OptimizerState, store: ParameterStore) -> OptimizerState:
    """Apply one update to every parameter of a packed store, from the
    gradients in its gradient buffer. A store that is not packed holds no
    gradients and raises."""
    w, g = store.weights, store.grads
    if g is None:
        raise ContractError(f"no gradient for parameters {store.names()}: the store is not packed")
    if state.step is None:
        state.step = np.empty_like(w)
        if state.kind != "sgd":
            state.first_moment, state.second_moment = np.zeros_like(w), np.zeros_like(w)
            state.denom = np.empty_like(w)
    state.step_count += 1
    t = state.step_count
    step = state.step
    if state.kind == "sgd":
        np.multiply(g, state.learning_rate, out=step)
    else:
        m, v, denom = state.first_moment, state.second_moment, state.denom
        # beta1*m + (1-beta1)*g and beta2*v + ((1-beta2)*g)*g, in place
        np.multiply(g, 1.0 - state.beta1, out=step)
        m *= state.beta1
        m += step
        np.multiply(g, 1.0 - state.beta2, out=step)
        step *= g
        v *= state.beta2
        v += step
        # lr * m_hat / (sqrt(v_hat) + eps)
        np.divide(m, 1.0 - state.beta1 ** t, out=step)
        step *= state.learning_rate
        np.divide(v, 1.0 - state.beta2 ** t, out=denom)
        np.sqrt(denom, out=denom)
        denom += state.epsilon
        step /= denom
    # the new weights go into the scratch and are checked before they
    # replace the old ones, so a non-finite update writes no weight
    np.subtract(w, step, out=step)
    w[...] = store.check_finite(step, "update")
    return state
