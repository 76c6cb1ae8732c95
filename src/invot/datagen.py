"""Synthetic problem generators and plan sampling.

Every generator is a pure function of its seed (numpy PCG64). Marginal
entries are drawn uniform(0.1, 1.1) before normalization, which guarantees
strict positivity with minimum entry at least 0.1 / (1.1 n).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import BadBounds, DimMismatch
from .types import CostMatrix, ProbabilityVector, TransportPlan
from .continuous import SampleSet


@dataclass(frozen=True)
class SyntheticSpec:
    n: int
    p: float
    epsilon: float
    seed: int = 0

    def __post_init__(self):
        if self.n < 2:
            raise BadBounds("n must be at least 2")
        if self.p == 0:
            raise BadBounds("exponent p must be nonzero")
        if not self.epsilon > 0:
            raise BadBounds("epsilon must be positive")


def synth_cost(spec: SyntheticSpec) -> CostMatrix:
    """c*_ij = |(i - j)/n|^p; symmetric with zero diagonal."""
    idx = np.arange(spec.n)
    diff = np.abs(idx[:, None] - idx[None, :]) / spec.n
    with np.errstate(divide="ignore"):
        mat = np.where(diff > 0, diff ** spec.p, 0.0)
    return CostMatrix(mat)


def synth_marginals(m: int, n: int, seed: int = 0):
    """Random strictly-positive (mu, nu) pair, deterministic per seed."""
    if m < 1 or n < 1:
        raise BadBounds("marginal sizes must be at least 1")
    rng = np.random.default_rng(seed)
    mu = rng.uniform(0.1, 1.1, size=m)
    nu = rng.uniform(0.1, 1.1, size=n)
    return ProbabilityVector(mu / mu.sum()), ProbabilityVector(nu / nu.sum())


def sample_pairs(plan: TransportPlan, support_x, support_y, N: int,
                 seed: int = 0) -> SampleSet:
    """Draw N iid pairs from the plan's cell probabilities.

    support_x / support_y give the coordinates of the row / column classes;
    1-d supports are treated as column vectors.
    """
    if N < 1:
        raise BadBounds("N must be at least 1")
    sx = np.atleast_2d(np.asarray(support_x, dtype=float))
    sy = np.atleast_2d(np.asarray(support_y, dtype=float))
    if sx.shape[0] == 1 and plan.shape[0] > 1:
        sx = sx.T
    if sy.shape[0] == 1 and plan.shape[1] > 1:
        sy = sy.T
    m, n = plan.shape
    if sx.shape[0] != m or sy.shape[0] != n:
        raise DimMismatch(
            f"supports ({sx.shape[0]}, {sy.shape[0]}) do not match plan {plan.shape}")
    rng = np.random.default_rng(seed)
    probs = plan.matrix.ravel()
    probs = probs / probs.sum()
    cells = rng.choice(m * n, size=N, p=probs)
    rows, cols = np.unravel_index(cells, (m, n))
    return SampleSet(xs=sx[rows], ys=sy[cols])
