"""Gradient-descent optimizers: plain SGD and bias-corrected Adam.

``optimizer_step`` replaces each parameter's tensor and advances
the state by exactly one step; given identical (state, params, grads) it
always produces identical results. A parameter whose new weights are not
all finite keeps its old ones, and ``NonFiniteError`` names it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .autodiff import Parameter
from .errors import ContractError
from .tensor import Tensor, check_finite


@dataclass
class OptimizerState:
    """An optimizer's hyperparameters and its state. SGD reads only the
    learning rate; the training section declares every value's default and
    bound."""

    kind: str
    learning_rate: float
    beta1: float
    beta2: float
    epsilon: float
    step_count: int = 0
    first_moment: dict[str, np.ndarray] = field(default_factory=dict)
    second_moment: dict[str, np.ndarray] = field(default_factory=dict)


def optimizer_step(state: OptimizerState, params, grads: dict) -> OptimizerState:
    """Apply one update to every parameter.

    ``params`` is any iterable of Parameter; ``grads`` maps parameter name to
    its gradient (Tensor or array). A parameter without a gradient is a
    caller bug and raises.
    """
    param_list = [p for p in params if isinstance(p, Parameter)]
    state.step_count += 1
    t = state.step_count
    for param in param_list:
        if param.name not in grads:
            raise ContractError(f"no gradient supplied for parameter {param.name!r}")
        g = grads[param.name]
        g = g.array if isinstance(g, Tensor) else np.asarray(g, dtype=np.float64)
        if g.shape != param.tensor.dims:
            raise ContractError(
                f"gradient dims {g.shape} do not match parameter {param.name!r} dims {param.tensor.dims}"
            )
        w = param.tensor.array
        if state.kind == "sgd":
            step = np.multiply(g, state.learning_rate)
        else:
            m = state.first_moment.setdefault(param.name, np.zeros_like(w))
            v = state.second_moment.setdefault(param.name, np.zeros_like(w))
            # beta1*m + (1-beta1)*g and beta2*v + ((1-beta2)*g)*g, in place
            step = np.multiply(g, 1.0 - state.beta1)
            m *= state.beta1
            m += step
            np.multiply(g, 1.0 - state.beta2, out=step)
            step *= g
            v *= state.beta2
            v += step
            # lr * m_hat / (sqrt(v_hat) + eps)
            np.divide(m, 1.0 - state.beta1 ** t, out=step)
            step *= state.learning_rate
            denom = np.divide(v, 1.0 - state.beta2 ** t)
            np.sqrt(denom, out=denom)
            denom += state.epsilon
            step /= denom
        # the new weights go into the scratch array and are checked before
        # they replace the old ones, which are never written
        new = np.subtract(w, step, out=step)
        param.tensor = Tensor.wrap(check_finite(new, f"update for parameter {param.name!r}"))
    return state
