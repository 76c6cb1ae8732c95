import os

# One BLAS thread, set before numpy is first imported: on a busy 2-vCPU host
# OpenBLAS's default threads make small solves 40x slower now and then, which
# trips the monotone-time gate of criterion 3.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import numpy as np
import pytest

from invot import ProbabilityVector, TransportPlan


def make_plan(matrix) -> TransportPlan:
    """Wrap a positive matrix as a plan with its own marginals."""
    mat = np.asarray(matrix, dtype=float)
    mat = mat / mat.sum()
    mu = ProbabilityVector(mat.sum(axis=1) / mat.sum())
    nu = ProbabilityVector(mat.sum(axis=0) / mat.sum())
    return TransportPlan(mat, mu, nu, feas_tol=1e-6)


def random_plan(rng, m, n) -> TransportPlan:
    return make_plan(rng.uniform(0.05, 1.0, size=(m, n)))


@pytest.fixture
def rng():
    return np.random.default_rng(1234)
