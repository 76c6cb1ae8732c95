"""Command-line front end.

Exit codes: 0 success, 1 input error, 2 non-convergence / divergence,
3 identifiability refusal (observed plan contains zeros and --smooth-zeros
was not given). All artifacts are CSV/JSON files in the data-io formats and
embed the resolved configuration and seed.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

import numpy as np

from . import (
    Box,
    Composite,
    CostParameterization,
    InverseProblem,
    LinearAffinity,
    ProbabilityVector,
    SolverConfig,
    SymmetricZeroDiag,
    SyntheticSpec,
    TrainConfig,
    TransportPlan,
    bcd_solve,
    learn_cost,
    relative_error,
    sinkhorn_solve,
    smooth_observed_zeros,
    synth_cost,
    synth_marginals,
    train,
    xavier_init,
)
from .continuous import eval_cost_on_grid
from .errors import Diverged, InvotError, NotConverged, ZeroObservation
from .fileio import (
    read_matrix_csv,
    read_pairs_csv,
    read_vector_csv,
    write_checkpoint,
    write_matrix_csv,
    write_report_json,
    write_vector_csv,
)

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_NOT_CONVERGED = 2
EXIT_ZERO_OBSERVATION = 3


def _outdir(path) -> Path:
    out = Path(path)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _parse_constraints(specs):
    parts = []
    for spec in specs or []:
        if spec == "sym0":
            parts.append(SymmetricZeroDiag())
        elif spec.startswith("box:"):
            _, lo, hi = spec.split(":")
            parts.append(Box(float(lo), float(hi)))
        elif spec.startswith("affinity:"):
            _, gfile, dfile, sign = spec.split(":")
            parts.append(LinearAffinity(read_matrix_csv(gfile),
                                        read_matrix_csv(dfile),
                                        1 if sign == "+" else -1))
        else:
            raise ValueError(f"unknown constraint {spec!r}")
    if not parts:
        from .constraints import NoConstraint
        return NoConstraint()
    if len(parts) == 1:
        return parts[0]
    return Composite(parts)


def cmd_synth(args) -> int:
    out = _outdir(args.out)
    spec = SyntheticSpec(n=args.n, p=args.p, epsilon=args.epsilon, seed=args.seed)
    cost = synth_cost(spec)
    mu, nu = synth_marginals(args.n, args.n, seed=args.seed)
    write_matrix_csv(out / "cost.csv", cost)
    write_vector_csv(out / "mu.csv", mu)
    write_vector_csv(out / "nu.csv", nu)
    (out / "config.json").write_text(json.dumps(vars(args), default=str, indent=1))
    return EXIT_OK


def cmd_forward(args) -> int:
    out = _outdir(args.out)
    cost = read_matrix_csv(args.cost)
    mu = ProbabilityVector(read_vector_csv(args.mu))
    nu = ProbabilityVector(read_vector_csv(args.nu))
    config = SolverConfig(epsilon=args.epsilon, max_iter=args.max_iter,
                          tol=args.tol)
    try:
        result = sinkhorn_solve(cost, mu, nu, config, mode=args.mode)
    except NotConverged as exc:
        print(str(exc), file=sys.stderr)
        result = exc.result
    write_matrix_csv(out / "plan.csv", result.plan.matrix)
    stacked = np.concatenate([result.duals.alpha, result.duals.beta]).reshape(-1, 1)
    write_matrix_csv(out / "duals.csv", stacked)
    write_report_json(out / "report.json", result.report, config)
    return EXIT_OK if result.report.converged else EXIT_NOT_CONVERGED


def _load_inverse_problem(args):
    plan_matrix = read_matrix_csv(args.plan)
    constraint = _parse_constraints(args.constraint)
    config = SolverConfig(epsilon=args.epsilon, max_iter=args.max_iter,
                          tol=args.tol)
    smoothed = bool(np.any(plan_matrix == 0))
    if smoothed and not args.smooth_zeros:
        raise ZeroObservation(
            "observed plan contains zero entries; rerun with --smooth-zeros "
            "to opt in to delta-smoothing")
    mu = ProbabilityVector(plan_matrix.sum(axis=1) / plan_matrix.sum())
    nu = ProbabilityVector(plan_matrix.sum(axis=0) / plan_matrix.sum())
    if smoothed:
        plan = smooth_observed_zeros(plan_matrix, mu, nu)
    else:
        plan = TransportPlan(plan_matrix / plan_matrix.sum(), mu, nu, feas_tol=1e-6)
    return InverseProblem(observed=plan, constraint=constraint, config=config,
                          smoothed=smoothed)


def cmd_inverse(args) -> int:
    out = _outdir(args.out)
    problem = _load_inverse_problem(args)
    truth = read_matrix_csv(args.truth) if args.truth else None
    if args.algo == "bcd":
        solution = bcd_solve(problem, M_c=args.mc, truth=truth)
    else:
        solution = learn_cost(problem, truth=truth)
    write_matrix_csv(out / "cost.csv", solution.cost)
    if solution.affinity is not None:
        write_matrix_csv(out / "affinity.csv", solution.affinity)
    trace_cols = [np.arange(1, len(solution.report.objective_trace) + 1),
                  solution.report.objective_trace]
    if solution.report.rel_err_trace is not None:
        trace_cols.append(solution.report.rel_err_trace)
    write_matrix_csv(out / "trace.csv", np.column_stack(trace_cols))
    write_report_json(out / "report.json", solution.report, problem.config)
    if not solution.report.converged:
        print(f"cost change above {problem.config.tol:.3e} after "
              f"{solution.report.iterations} iterations", file=sys.stderr)
    return EXIT_OK if solution.report.converged else EXIT_NOT_CONVERGED


def cmd_bench(args) -> int:
    out = _outdir(args.out)
    sizes = [int(s) for s in args.sizes.split(",")]
    epsilons = [float(e) for e in args.epsilons.split(",")]
    rows = []
    failed = False
    for eps in epsilons:
        for n in sizes:
            times = []
            iters = []
            for rep in range(args.reps):
                seed = args.seed + 1000 * rep + n
                spec = SyntheticSpec(n=n, p=args.p, epsilon=eps, seed=seed)
                c_star = synth_cost(spec)
                mu, nu = synth_marginals(n, n, seed=seed)
                fwd_cfg = SolverConfig(epsilon=eps, max_iter=200000, tol=1e-9)
                plan = sinkhorn_solve(c_star, mu, nu, fwd_cfg).plan
                problem = InverseProblem(
                    observed=plan,
                    constraint=Composite([SymmetricZeroDiag(), Box(0.0, np.inf)]),
                    config=SolverConfig(epsilon=eps, max_iter=args.max_iter,
                                        tol=1e-14))
                t0 = time.perf_counter()
                sol = learn_cost(problem, truth=c_star,
                                 target_rel_err=args.target_err)
                elapsed = time.perf_counter() - t0
                final_err = float(sol.report.rel_err_trace[-1])
                if final_err > args.target_err:
                    failed = True
                times.append(elapsed)
                iters.append(sol.report.iterations)
            rows.append([n, eps, float(np.mean(times)), float(np.mean(iters))])
    write_matrix_csv(out / "bench.csv", np.array(rows))
    (out / "config.json").write_text(json.dumps(vars(args), default=str, indent=1))
    return EXIT_NOT_CONVERGED if failed else EXIT_OK


def _parse_box(spec):
    box = []
    for part in spec.split(","):
        lo, hi = part.split(":")
        box.append((float(lo), float(hi)))
    return box


def cmd_train_continuous(args) -> int:
    out = _outdir(args.out)
    samples = read_pairs_csv(args.pairs)
    d_x = samples.xs.shape[1]
    d_y = samples.ys.shape[1]
    hidden = [int(h) for h in args.hidden.split(",")]
    mode = args.input_mode
    scale = 1.0
    if mode.startswith("scaleddiff"):
        mode, _, s = mode.partition(":")
        scale = float(s) if s else 1.0
    feat_dim = {"raw": d_x + d_y, "absdiff": d_x, "scaleddiff": d_x}[mode]
    cost = CostParameterization(
        input_mode=mode,
        net=xavier_init([feat_dim] + hidden + [1], "relu", seed=args.seed),
        scale=scale)
    alpha_net = xavier_init([d_x] + hidden + [1], "identity", seed=args.seed + 1)
    beta_net = xavier_init([d_y] + hidden + [1], "identity", seed=args.seed + 2)
    box = _parse_box(args.box)
    config = TrainConfig(learning_rate=args.lr, batch_size=args.batch,
                         n_collocation=args.ns, epochs=args.epochs,
                         seed=args.seed, domain_box=box)
    alpha_net, beta_net, cost, report = train(samples, cost, alpha_net,
                                              beta_net, config)
    write_checkpoint(out / "checkpoint.json", cost, config, alpha_net, beta_net)
    trace = np.column_stack([np.arange(1, len(report.objective_trace) + 1),
                             report.objective_trace])
    write_matrix_csv(out / "loss-trace.csv", trace)
    write_matrix_csv(out / "grid-eval.csv", _grid_eval(cost, box, d_x))
    write_report_json(out / "report.json", report, config)
    return EXIT_OK


def _grid_eval(cost: CostParameterization, box, d_x, points: int = 100):
    """Grid evaluation rows; for 1-d features: (feature value, cost)."""
    if cost.net.input_dim == 1 and cost.input_mode in ("absdiff", "scaleddiff"):
        los = np.array([b[0] for b in box])
        his = np.array([b[1] for b in box])
        corners_x = np.array([los[:d_x], his[:d_x]])
        corners_y = np.array([los[d_x:], his[d_x:]])
        s = cost.scale if cost.input_mode == "scaleddiff" else 1.0
        xi_max = max(abs(cx - s * cy) for cx in corners_x.ravel()
                     for cy in corners_y.ravel())
        xi = np.linspace(0.0, float(xi_max), points)
        vals, _ = cost.net.forward_batch(xi.reshape(-1, 1))
        return np.column_stack([xi, vals])
    if cost.input_mode == "raw" and d_x == 1 and len(box) == 2:
        gx = np.linspace(box[0][0], box[0][1], points)
        gy = np.linspace(box[1][0], box[1][1], points)
        xx, yy = np.meshgrid(gx, gy, indexing="ij")
        vals = eval_cost_on_grid(cost, xx.ravel().reshape(-1, 1),
                                 yy.ravel().reshape(-1, 1))
        return np.column_stack([xx.ravel(), yy.ravel(), vals])
    raise ValueError("no grid layout defined for this input mode/dimension")


def cmd_eval(args) -> int:
    cost = read_matrix_csv(args.cost)
    truth = read_matrix_csv(args.truth)
    err = relative_error(cost, truth)
    corr = float(np.corrcoef(cost.ravel(), truth.ravel())[0, 1])
    print(f"relative_error {err:.6e}")
    print(f"pearson_correlation {corr:.6f}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="invot",
                                     description="inverse optimal transport tools")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic cost and marginals")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--p", type=float, default=2.0)
    p.add_argument("--epsilon", type=float, default=1.0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("forward", help="solve entropy-regularized OT")
    p.add_argument("--cost", required=True)
    p.add_argument("--mu", required=True)
    p.add_argument("--nu", required=True)
    p.add_argument("--epsilon", type=float, default=1.0)
    p.add_argument("--tol", type=float, default=1e-8)
    p.add_argument("--max-iter", type=int, default=100000)
    p.add_argument("--mode", choices=["auto", "direct", "log"], default="auto")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_forward)

    for name in ("inverse", "bcd"):
        p = sub.add_parser(name, help="recover a cost matrix from a plan")
        p.add_argument("--plan", required=True)
        p.add_argument("--constraint", action="append",
                       help="sym0 | box:LO:HI | affinity:GFILE:DFILE:+|-")
        p.add_argument("--algo", choices=["scaling", "bcd"],
                       default="bcd" if name == "bcd" else "scaling")
        p.add_argument("--epsilon", type=float, default=1.0)
        p.add_argument("--tol", type=float, default=1e-10)
        p.add_argument("--max-iter", type=int, default=2000)
        p.add_argument("--mc", type=float, default=2.0,
                       help="cost box bound for the bcd algorithm")
        p.add_argument("--truth", default=None)
        p.add_argument("--smooth-zeros", action="store_true")
        p.add_argument("--out", required=True)
        p.set_defaults(func=cmd_inverse)

    p = sub.add_parser("bench", help="time-to-target sweeps over problem size")
    p.add_argument("--suite", choices=["fig1"], default="fig1")
    p.add_argument("--sizes", default="128,256,512")
    p.add_argument("--epsilons", default="1.0,0.1")
    p.add_argument("--p", type=float, default=2.0)
    p.add_argument("--reps", type=int, default=20)
    p.add_argument("--target-err", type=float, default=5e-2)
    p.add_argument("--max-iter", type=int, default=5000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser("train-continuous", help="learn a cost function from pairs")
    p.add_argument("--pairs", required=True)
    p.add_argument("--input-mode", default="absdiff",
                   help="raw | absdiff | scaleddiff:S")
    p.add_argument("--hidden", default="20,20,20")
    p.add_argument("--epochs", type=int, default=1000)
    p.add_argument("--lr", type=float, default=1e-4)
    p.add_argument("--ns", type=int, default=500)
    p.add_argument("--batch", type=int, default=0)
    p.add_argument("--box", default="0:1,0:1")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_train_continuous)

    p = sub.add_parser("eval", help="compare a recovered cost against a reference")
    p.add_argument("--cost", required=True)
    p.add_argument("--truth", required=True)
    p.set_defaults(func=cmd_eval)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_INPUT if exc.code not in (0, None) else EXIT_OK
    try:
        return args.func(args)
    except ZeroObservation as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_ZERO_OBSERVATION
    except (NotConverged, Diverged) as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_NOT_CONVERGED
    except (InvotError, OSError, ValueError) as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
