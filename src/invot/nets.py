"""Small fully-connected networks with manual forward/backward passes.

Hidden layers use tanh; the output layer is a single unit with a relu,
identity, or softplus activation. The relu subgradient at 0 is 0. Gradients
are computed by reverse-mode accumulation over the cached hidden activations
(tanh' = 1 - tanh^2) and the output pre-activation, which keeps training free
of any autodiff dependency and bitwise deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

import numpy as np

from .errors import DimMismatch

OUTPUT_ACTIVATIONS = ("relu", "identity", "softplus")
_B1, _B2, _ADAM_EPS = 0.9, 0.999, 1e-8  # Adam's betas and eps (Kingma & Ba's defaults)


def _out_act(z, kind):
    if kind == "relu":
        return np.maximum(z, 0.0)
    if kind == "identity":
        return z
    return np.log1p(np.exp(-np.abs(z))) + np.maximum(z, 0.0)  # softplus


def _out_act_grad(z, kind):
    if kind == "relu":
        return (z > 0).astype(float)
    if kind == "identity":
        return np.ones_like(z)
    return 1.0 / (1.0 + np.exp(-z))  # softplus


@dataclass
class FeedForwardNet:
    """tanh MLP with scalar output; layer_dims = [d_in, h1, ..., hk, 1]."""

    layer_dims: Sequence[int]
    weights: List[np.ndarray]
    biases: List[np.ndarray]
    output_activation: str = "identity"

    def __post_init__(self):
        dims = list(self.layer_dims)
        if len(dims) < 2 or dims[-1] != 1 or any(d <= 0 for d in dims):
            raise DimMismatch(f"bad layer dims {dims}")
        if self.output_activation not in OUTPUT_ACTIVATIONS:
            raise DimMismatch(f"unknown output activation {self.output_activation!r}")
        for k, (w, b) in enumerate(zip(self.weights, self.biases)):
            if w.shape != (dims[k + 1], dims[k]) or b.shape != (dims[k + 1],):
                raise DimMismatch(f"layer {k} parameter shapes do not match dims")
            if not (np.all(np.isfinite(w)) and np.all(np.isfinite(b))):
                raise DimMismatch(f"layer {k} parameters are not finite")

    @property
    def input_dim(self) -> int:
        return int(self.layer_dims[0])

    def parameters(self) -> List[np.ndarray]:
        """[w_0, b_0, w_1, b_1, ...], the order of every gradient list."""
        return [p for wb in zip(self.weights, self.biases) for p in wb]

    def forward_batch(self, X: np.ndarray):
        """Outputs and caches for a batch; X has shape (N, d_in)."""
        X = np.atleast_2d(np.asarray(X, dtype=float))
        if X.shape[1] != self.input_dim:
            raise DimMismatch(
                f"input dim {X.shape[1]} does not match net input {self.input_dim}")
        acts = [X]
        last = len(self.weights) - 1
        for k, (w, b) in enumerate(zip(self.weights, self.biases)):
            z = acts[-1] @ w.T
            z += b
            if k < last:  # backward needs only tanh(z), so z is overwritten
                acts.append(np.tanh(z, out=z))
        return _out_act(z, self.output_activation)[:, 0], (acts, z)

    def backward_batch(self, cache, out_weights: np.ndarray) -> List[np.ndarray]:
        """Gradients of sum_k out_weights[k] * output_k w.r.t. parameters."""
        acts, z = cache
        last = len(self.weights) - 1
        delta = (np.asarray(out_weights, dtype=float)[:, None]
                 * _out_act_grad(z, self.output_activation))
        grads: List[np.ndarray] = [None] * (2 * len(self.weights))
        for k in range(last, -1, -1):
            grads[2 * k] = delta.T @ acts[k]
            grads[2 * k + 1] = delta.sum(axis=0)
            if k > 0:
                delta = delta @ self.weights[k]
                delta *= 1.0 - acts[k] ** 2
        return grads


def net_forward(net: FeedForwardNet, x) -> float:
    """Scalar output for a single input vector."""
    out, _ = net.forward_batch(np.atleast_2d(np.asarray(x, dtype=float)))
    return float(out[0])


def net_gradient(net: FeedForwardNet, x) -> List[np.ndarray]:
    """Gradients of the scalar output with respect to every parameter."""
    _, cache = net.forward_batch(np.atleast_2d(np.asarray(x, dtype=float)))
    return net.backward_batch(cache, np.ones(1))


def xavier_init(layer_dims: Sequence[int], output_activation: str = "identity",
                seed: int = 0) -> FeedForwardNet:
    """Uniform(+-sqrt(6/(fan_in + fan_out))) weights, zero biases."""
    rng = np.random.default_rng(seed)
    dims = list(layer_dims)
    weights = []
    biases = []
    for fan_in, fan_out in zip(dims[:-1], dims[1:]):
        bound = np.sqrt(6.0 / (fan_in + fan_out))
        weights.append(rng.uniform(-bound, bound, size=(fan_out, fan_in)))
        biases.append(np.zeros(fan_out))
    return FeedForwardNet(layer_dims=dims, weights=weights, biases=biases,
                          output_activation=output_activation)


@dataclass
class AdamState:
    m: List[np.ndarray]
    v: List[np.ndarray]
    step: int = 0

    @classmethod
    def zeros_like(cls, params: Sequence[np.ndarray]) -> "AdamState":
        return cls(m=[np.zeros_like(p) for p in params],
                   v=[np.zeros_like(p) for p in params])


def adam_step(params: Sequence[np.ndarray], grads: Sequence[np.ndarray],
              state: AdamState, lr: float = 1e-4) -> None:
    """One bias-corrected Adam update of params, state.m and state.v in place."""
    state.step += 1
    c1, c2 = 1.0 - _B1 ** state.step, 1.0 - _B2 ** state.step
    for p, g, m, v in zip(params, grads, state.m, state.v):
        m *= _B1
        m += (1.0 - _B1) * g
        v *= _B2
        v += (1.0 - _B2) * g * g
        p -= lr * (m / c1) / (np.sqrt(v / c2) + _ADAM_EPS)
