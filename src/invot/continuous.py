"""Cost-function learning from paired samples.

Three small networks (alpha on x, beta on y, cost on a pair feature) are
trained jointly with Adam on the sampled loss

    L = R(c) - mean alpha(x_k) - mean beta(y_k) + mean c(x_k, y_k)
        + integral of e^{alpha(x) + beta(y) - c(x, y)} over the domain,

with the means over a batch of pairs (x_k, y_k), R(c) an optional
regularizer of the cost net, and the integral estimated by Monte Carlo over
fresh collocation points each step. A step stacks the collocation points
below the pair batch, so each net runs one forward and one backward pass.
Training runs at eps = 1: the learned cost is c/eps of the generating
problem.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, Optional, Sequence, Tuple

import numpy as np

from .errors import BadBounds, DimMismatch, Diverged
from .nets import AdamState, FeedForwardNet, adam_step
from .types import SolveReport

_DIVERGENCE_CAP = 1e8


@dataclass
class CostParameterization:
    """A cost net plus the map from an (x, y) pair to the net input: (x, y)
    for "raw", |x - s y| for both difference modes."""

    input_mode: str  # "raw" | "absdiff" (scale 1) | "scaleddiff"
    net: FeedForwardNet
    scale: float = 1.0  # y-coordinate scale s of the feature |x - s y|

    def __post_init__(self):
        if self.input_mode not in ("raw", "absdiff", "scaleddiff"):
            raise DimMismatch(f"unknown input mode {self.input_mode!r}")
        if not np.isfinite(self.scale):
            raise BadBounds(f"scale must be finite, not {self.scale!r}")
        if self.scale != 1.0 and self.input_mode != "scaleddiff":
            raise BadBounds(f"scale {self.scale!r} needs input mode 'scaleddiff'")

    def features(self, X: np.ndarray, Y: np.ndarray) -> np.ndarray:
        X = np.atleast_2d(np.asarray(X, dtype=float))
        Y = np.atleast_2d(np.asarray(Y, dtype=float))
        if self.input_mode == "raw":
            feats = np.concatenate([X, Y], axis=1)
        elif X.shape[1] != Y.shape[1]:
            raise DimMismatch(f"{self.input_mode} needs x and y of one width, "
                              f"not {X.shape[1]} and {Y.shape[1]}")
        else:
            feats = np.abs(X - self.scale * Y)
        if feats.shape[1] != self.net.input_dim:
            raise DimMismatch(
                f"feature dim {feats.shape[1]} does not match cost net input "
                f"{self.net.input_dim}")
        return feats

    def evaluate(self, X: np.ndarray, Y: np.ndarray) -> np.ndarray:
        out, _ = self.net.forward_batch(self.features(X, Y))
        return out


@dataclass
class SampleSet:
    """Paired observations (x_k, y_k), one row per pair."""

    xs: np.ndarray
    ys: np.ndarray

    def __post_init__(self):
        self.xs = np.atleast_2d(np.asarray(self.xs, dtype=float))
        self.ys = np.atleast_2d(np.asarray(self.ys, dtype=float))
        if self.xs.shape[0] == 0 or self.xs.shape[0] != self.ys.shape[0]:
            raise DimMismatch("paired samples must be nonempty and aligned")
        if not (np.all(np.isfinite(self.xs)) and np.all(np.isfinite(self.ys))):
            raise DimMismatch("sample coordinates must be finite")

    @property
    def n_pairs(self) -> int:
        return self.xs.shape[0]


@dataclass(frozen=True)
class TrainConfig:
    learning_rate: float = 1e-4
    batch_size: int = 0  # 0 = full batch
    n_collocation: int = 500
    epochs: int = 100
    seed: int = 0
    domain_box: Sequence[Tuple[float, float]] = ((0.0, 1.0), (0.0, 1.0))

    def __post_init__(self):
        if not (0 < self.learning_rate < np.inf and self.batch_size >= 0
                and self.n_collocation > 0 and self.epochs > 0):
            raise BadBounds("train configuration values must be positive (rate finite)")
        if len(self.domain_box) == 0 or any(
                not -np.inf < lo < hi < np.inf for lo, hi in self.domain_box):
            raise BadBounds("domain box must be nonempty with finite lo < hi per coordinate")


def _box_volume(box) -> float:
    return float(np.prod([hi - lo for lo, hi in box]))


def _sample_box(box, n, rng) -> np.ndarray:
    lo = np.array([b[0] for b in box])
    hi = np.array([b[1] for b in box])
    return lo + rng.random((n, len(box))) * (hi - lo)


def _split_xy(points: np.ndarray, d_x: int):
    return points[:, :d_x], points[:, d_x:]


def _log_integrand(alpha_net: FeedForwardNet, beta_net: FeedForwardNet,
                   cost: CostParameterization, pts: np.ndarray) -> np.ndarray:
    """alpha(x) + beta(y) - c(x, y) at stacked points (x, y)."""
    x, y = _split_xy(pts, alpha_net.input_dim)
    a, _ = alpha_net.forward_batch(x)
    b, _ = beta_net.forward_batch(y)
    return a + b - cost.evaluate(x, y)


def mc_integral_uniform(alpha_net: FeedForwardNet, beta_net: FeedForwardNet,
                        cost: CostParameterization, box, n_s: int,
                        seed: int = 0) -> float:
    """volume(box) * mean of e^{alpha(x)+beta(y)-c(x,y)} over uniform draws."""
    if n_s < 1:
        raise BadBounds("n_s must be at least 1")
    rng = np.random.default_rng(seed)
    pts = _sample_box(box, n_s, rng)
    log_g = _log_integrand(alpha_net, beta_net, cost, pts)
    return _box_volume(box) * float(np.mean(np.exp(log_g)))


def train(samples: SampleSet, cost: CostParameterization,
          alpha_net: FeedForwardNet, beta_net: FeedForwardNet,
          config: TrainConfig,
          regularizer: Optional[Callable] = None) -> Tuple[
              FeedForwardNet, FeedForwardNet, CostParameterization, SolveReport]:
    """Minimize the sampled loss with Adam; deterministic per seed.

    One Adam state steps the given nets' own parameter vectors in place.

    ``regularizer``, when given, is R(c): it is called with the cost net and
    must return (value, gradient shaped like cost.net.params). Training
    has no stopping rule, so the report always says converged. Its
    feasibility_residual is |I - 1|, with I the last epoch's mean of the
    collocation estimate of the integral of e^{alpha + beta - c}; I = 1
    where the loss is stationary in a constant shift of alpha.
    ``extras["cost_net_dead"]``: a relu cost net's output pre-activation was
    <= 0 on every row of the last epoch, so its data gradient was exactly 0.
    """
    rng = np.random.default_rng(config.seed)
    d_x = alpha_net.input_dim
    box = list(config.domain_box)
    d_xy = samples.xs.shape[1] + samples.ys.shape[1]
    if len(box) != d_xy:
        raise DimMismatch(f"domain box has {len(box)} coordinates, not d_x + d_y = {d_xy}")
    vol = _box_volume(box)
    n = samples.n_pairs
    batch = config.batch_size if config.batch_size > 0 else n
    steps_per_epoch = max(1, int(np.ceil(n / batch)))

    params = [alpha_net.params, beta_net.params, cost.net.params]
    state = AdamState.zeros_like(params)
    epoch_losses = []
    t0 = time.perf_counter()
    for epoch in range(config.epochs):
        losses, integrals = [], []
        dead = cost.net.output_activation == "relu"
        for _step in range(steps_per_epoch):
            pi = np.arange(n) if batch >= n else rng.integers(0, n, size=batch)
            cx, cy = _split_xy(_sample_box(box, config.n_collocation, rng), d_x)
            x = np.concatenate([samples.xs[pi], cx])
            y = np.concatenate([samples.ys[pi], cy])
            k = len(pi)  # rows [:k] are pairs, rows [k:] collocation points
            (a, cache_a), (b, cache_b), (c, cache_c) = (
                alpha_net.forward_batch(x), beta_net.forward_batch(y),
                cost.net.forward_batch(cost.features(x, y)))
            dead = dead and float(cache_c[1].max()) <= 0.0

            with np.errstate(over="ignore"):
                g_vals = np.exp(a[k:] + b[k:] - c[k:])
            integral = vol * float(np.mean(g_vals))
            reg_value, reg_grad = 0.0, None
            if regularizer is not None:
                reg_value, reg_grad = regularizer(cost.net)
            loss = (reg_value - float(np.mean(a[:k])) - float(np.mean(b[:k]))
                    + float(np.mean(c[:k])) + integral)
            if not np.isfinite(loss) or abs(loss) > _DIVERGENCE_CAP:
                raise Diverged(f"loss {loss!r} at epoch {epoch}")
            losses.append(loss)
            integrals.append(integral)

            # d loss / d output: -1/k on pairs and w_col on collocation points
            # for alpha and beta, the negation of both for the cost
            w = np.concatenate([np.full(k, -1.0 / k),
                                (vol / config.n_collocation) * g_vals])
            cost_grad = cost.net.backward_batch(cache_c, -w)
            if reg_grad is not None:
                cost_grad += reg_grad
            adam_step(params, [alpha_net.backward_batch(cache_a, w),
                               beta_net.backward_batch(cache_b, w), cost_grad],
                      state, lr=config.learning_rate)
        epoch_losses.append(float(np.mean(losses)))

    report = SolveReport(
        iterations=config.epochs * steps_per_epoch,
        objective_trace=np.asarray(epoch_losses),
        rel_err_trace=None,
        feasibility_residual=abs(float(np.mean(integrals)) - 1.0),
        converged=True,
        wall_clock_seconds=time.perf_counter() - t0,
        extras={"cost_net_dead": dead},
    )
    return alpha_net, beta_net, cost, report
