"""Inverse optimal transport: recover ground costs from observed plans.

Forward entropy-regularized OT (Sinkhorn scaling), matrix-scaling cost
recovery with proximal constraints, a convergent block-coordinate-descent
variant, and a neural cost learner for sampled continuous plans.
"""

from .bcd import (
    BcdState,
    bcd_alpha_update,
    bcd_beta_update,
    bcd_c_update,
    bcd_solve,
    lipschitz_probe,
    objective_F,
    rate_bound_constant,
    variation_bounds,
)
from .constraints import (
    Box,
    Composite,
    Constraint,
    LinearAffinity,
    NoConstraint,
    SymmetricZeroDiag,
    prox_symmetric_zero_diag,
)
from .continuous import (
    CostParameterization,
    SampleSet,
    TrainConfig,
    mc_integral_uniform,
    train,
)
from .datagen import SyntheticSpec, sample_pairs, synth_cost, synth_marginals
from .nets import AdamState, FeedForwardNet, adam_step, net_forward, net_gradient, xavier_init
from .scaling import (
    InverseProblem,
    InverseSolution,
    learn_cost,
    objective_E,
    smooth_observed_zeros,
)
from .sinkhorn import SinkhornResult, dual_objective, plan_from_duals, sinkhorn_solve
from .types import (
    CostMatrix,
    DualPotentials,
    ProbabilityVector,
    SolveReport,
    SolverConfig,
    TransportPlan,
    entropy,
    relative_error,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
