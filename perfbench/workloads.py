"""The operations the benchmark times, their inputs, and their correctness gates.

Every workload runs all seven operations, so every end-to-end metric has a
value on every workload. A workload runs its own operations at full size
(FOCUS) and the rest at a small probe size (PROBE); the probes are a second,
cache-resident instance size for each operation.

Library functions are called through the `invot` package (``iv.learn_cost``),
never through a name bound here, so the tracer's wrappers see every call.

Each operation is an `Op`:
- ``build(params, seed, workdir)`` makes the inputs from the seed (set-up);
- ``run(inst, ctx)`` returns (seconds, output) and times only the library
  call, or the CLI processes;
- ``check(inst, output)`` returns (problems, quality metrics); any problem
  fails the operation.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, List, Tuple

import numpy as np

import invot as iv

from tracing import now

HERE = Path(__file__).resolve().parent

# gates, fixed by the benchmark's definition; none depends on the instance size
FORWARD_TOL = 1e-9
INVERSE_MAX_REL_ERR = 1e-3
AFFINITY_MAX_REL_ERR = 1e-6
EVAL_MAX_REL_ERR = 1e-2
BCD_MAX_RISE = 1e-9
BCD_MAX_REL_ERR = 1e-2
MAX_ITER = 1_000_000  # every solve must stop on its own tolerance, far below this
CLI_TIMEOUT_S = 150

# "k" is how many instances of the operation a round runs, each from its own
# seed; a metric is the median over every solve of the run, so many small
# instances even out both timing noise and the seed-to-seed spread in
# iteration counts.
PROBE = {
    "forward": {"n": 64, "eps": 0.1, "k": 32},
    "inverse": {"n": 64, "eps": 0.1, "tol": 1e-4, "k": 10},
    "affinity": {"n": 128, "p": 8, "q": 6, "k": 16},
    "chain": {"n": 16, "tol": 1e-3, "k": 1},
    "train": {"pairs": 500, "epochs": 8, "k": 4},
    "logfwd": {"n": 32, "eps": 0.01, "k": 4},
    "bcd": {"n": 6, "tol": 1e-4, "k": 3},
}

# discrete-recover also carries the log-sum-exp paths (log-domain Sinkhorn at
# eps 0.01, and BCD) rather than a fourth workload of their own: the run
# budget gives four workloads about 25 s per run, and at that length the
# run-to-run timing spread on a shared 2-vCPU host was 10-20%; three
# workloads allow 35 s runs.
FOCUS = {
    "discrete-recover": {
        "forward": {"n": 1024, "eps": 0.1, "k": 2},
        "inverse": {"n": 512, "eps": 0.1, "tol": 1e-3, "k": 2},
        "affinity": {"n": 512, "p": 16, "q": 12, "k": 4},
        "logfwd": {"n": 256, "eps": 0.01, "k": 2},
        "bcd": {"n": 16, "tol": 3e-5, "k": 1},
    },
    "cli-chain": {"chain": {"n": 512, "tol": 1e-2, "k": 1}},
    "continuous-train": {"train": {"pairs": 5000, "epochs": 50, "k": 1}},
}

WORKLOADS = tuple(FOCUS)


def sizes(workload: str) -> Dict[str, dict]:
    return {op: dict(FOCUS[workload].get(op, PROBE[op])) for op in PROBE}


def build_instances(table: Dict[str, dict], seed: int, workdir: Path) -> Dict[str, list]:
    """The k instances of every operation; instance j uses seed 100 * seed + j.

    BCD is the exception: it runs k times on one fixed instance. Its
    iteration count and error vary by up to 2x between instances of one size
    (IQR/median 25-50% over 20 seeds at n = 4..32), so seed-drawn instances
    would make bcd_s and bcd_rel_err spread more than their bounds allow.
    """
    return {name: [OPS[name].build(params, 0 if name == "bcd" else 100 * seed + j,
                                   workdir / f"{name}{j}")
                   for j in range(params["k"])]
            for name, params in table.items()}


@dataclass
class RoundContext:
    """What one round shares across operations: tracing and CLI bookkeeping."""

    traced: bool
    env: Dict[str, str]
    child_spans: List[tuple] = field(default_factory=list)
    cli_walls: Dict[str, float] = field(default_factory=dict)
    cli_startups: List[float] = field(default_factory=list)


@dataclass(frozen=True)
class Op:
    metric: str
    build: Callable[[dict, int, Path], Any]
    run: Callable[[Any, RoundContext], Tuple[float, Any]]
    check: Callable[[Any, Any], Tuple[List[str], Dict[str, float]]]


def _timed(fn, *args, **kwargs):
    t0 = now()
    out = fn(*args, **kwargs)
    return now() - t0, out


def _sym_box():
    return iv.Composite([iv.SymmetricZeroDiag(), iv.Box(0.0, np.inf)])


def _marginal_residual(plan, mu, nu) -> float:
    mat = np.asarray(plan.matrix)
    return max(float(np.abs(mat.sum(axis=1) - mu.values).sum()),
               float(np.abs(mat.sum(axis=0) - nu.values).sum()))


def _discrete(n, eps, seed):
    cost = iv.synth_cost(iv.SyntheticSpec(n=n, p=2.0, epsilon=eps, seed=seed))
    mu, nu = iv.synth_marginals(n, n, seed=seed)
    return cost, mu, nu


def _observed_plan(cost, mu, nu, eps, tol):
    config = iv.SolverConfig(epsilon=eps, max_iter=MAX_ITER, tol=tol)
    return iv.sinkhorn_solve(cost, mu, nu, config).plan


# --- forward: sinkhorn_solve, direct path, and log domain at small eps ---

def build_forward(params, seed, workdir, mode="direct"):
    cost, mu, nu = _discrete(params["n"], params["eps"], seed)
    config = iv.SolverConfig(epsilon=params["eps"], max_iter=MAX_ITER, tol=FORWARD_TOL)
    return {"cost": cost, "mu": mu, "nu": nu, "config": config, "mode": mode}


def run_forward(inst, ctx):
    return _timed(iv.sinkhorn_solve, inst["cost"], inst["mu"], inst["nu"],
                  inst["config"], mode=inst["mode"])


def check_forward(inst, result):
    problems = []
    if not result.report.converged:
        problems.append("forward solve did not converge")
    residual = _marginal_residual(result.plan, inst["mu"], inst["nu"])
    if not residual <= FORWARD_TOL:
        problems.append(f"forward marginal residual {residual:.3e} above {FORWARD_TOL:.0e}")
    if inst["mode"] == "log" and result.report.extras.get("log_domain") is not True:
        problems.append("log-mode solve did not report log_domain")
    return problems, {}


def build_logfwd(params, seed, workdir):
    return build_forward(params, seed, workdir, mode="log")


# --- inverse: learn_cost with sym0 + box from an observed plan ---

def build_inverse(params, seed, workdir):
    eps = params["eps"]
    cost, mu, nu = _discrete(params["n"], eps, seed)
    plan = _observed_plan(cost, mu, nu, eps, FORWARD_TOL)
    problem = iv.InverseProblem(
        observed=plan, constraint=_sym_box(),
        config=iv.SolverConfig(epsilon=eps, max_iter=MAX_ITER, tol=params["tol"]))
    return {"truth": cost, "problem": problem}


def run_inverse(inst, ctx):
    return _timed(iv.learn_cost, inst["problem"])


def check_inverse(inst, solution):
    problems = []
    if not solution.report.converged:
        problems.append("learn_cost did not converge")
    err = iv.relative_error(solution.cost, inst["truth"])
    if not err <= INVERSE_MAX_REL_ERR:
        problems.append(f"inverse rel err {err:.3e} above {INVERSE_MAX_REL_ERR:.0e}")
    return problems, {"inverse_rel_err": err}


# --- affinity: learn_cost under a planted LinearAffinity ---

def build_affinity(params, seed, workdir):
    n, p, q = params["n"], params["p"], params["q"]
    rng = np.random.default_rng(seed)
    G = rng.normal(size=(p, n))
    D = rng.normal(size=(q, n))
    A0 = 0.1 * rng.normal(size=(p, q))
    mu, nu = iv.synth_marginals(n, n, seed=seed)
    plan = _observed_plan(G.T @ A0 @ D, mu, nu, 1.0, 1e-12)
    problem = iv.InverseProblem(observed=plan, constraint=iv.LinearAffinity(G, D, 1),
                             config=iv.SolverConfig(epsilon=1.0, max_iter=MAX_ITER))
    return {"A0": A0, "problem": problem}


def check_affinity(inst, solution):
    problems = []
    if not solution.report.converged:
        problems.append("affinity learn_cost did not converge")
    A0 = inst["A0"]
    err = float(np.linalg.norm(solution.affinity - A0) / np.linalg.norm(A0))
    if not err <= AFFINITY_MAX_REL_ERR:
        problems.append(f"affinity rel err {err:.3e} above {AFFINITY_MAX_REL_ERR:.0e}")
    return problems, {}


# --- chain: synth -> forward -> inverse -> eval, one process each ---

def build_chain(params, seed, workdir):
    n, d = str(params["n"]), workdir
    return {"dir": d, "commands": [
        ("synth", ["synth", "--n", n, "--epsilon", "1", "--seed", str(seed),
                   "--out", str(d / "synth")]),
        ("forward", ["forward", "--cost", str(d / "synth" / "cost.csv"),
                     "--mu", str(d / "synth" / "mu.csv"),
                     "--nu", str(d / "synth" / "nu.csv"),
                     "--epsilon", "1", "--tol", "1e-9", "--out", str(d / "fwd")]),
        ("inverse", ["inverse", "--plan", str(d / "fwd" / "plan.csv"),
                     "--constraint", "sym0", "--constraint", "box:0:inf",
                     "--epsilon", "1", "--tol", str(params["tol"]),
                     "--out", str(d / "inv")]),
        ("eval", ["eval", "--cost", str(d / "inv" / "cost.csv"),
                  "--truth", str(d / "synth" / "cost.csv")]),
    ]}


def run_chain(inst, ctx):
    shutil.rmtree(inst["dir"], ignore_errors=True)
    inst["dir"].mkdir(parents=True)
    total, outputs = 0.0, {}
    for name, args in inst["commands"]:
        spans_path = inst["dir"] / f"spans-{name}.json"
        spawned = now()
        if ctx.traced:
            cmd = [sys.executable, str(HERE / "cli_child.py"), str(spans_path),
                   repr(spawned)] + args
        else:
            cmd = [sys.executable, "-m", "invot.cli"] + args
        proc = subprocess.run(cmd, env=ctx.env, capture_output=True, text=True,
                              timeout=CLI_TIMEOUT_S)
        wall = now() - spawned
        total += wall
        outputs[name] = proc
        if ctx.traced:
            ctx.cli_walls[name] = wall
            if spans_path.exists():
                blob = json.loads(spans_path.read_text())
                ctx.cli_startups.append(blob["startup_s"])
                ctx.child_spans.append(blob["spans"])
        if proc.returncode != 0:
            break
    return total, outputs


def check_chain(inst, outputs):
    problems = []
    for name, _args in inst["commands"]:
        proc = outputs.get(name)
        if proc is None:
            problems.append(f"invot {name} did not run")
        elif proc.returncode != 0:
            problems.append(f"invot {name} exited {proc.returncode}: "
                            f"{proc.stderr.strip()[-200:]}")
    if problems:
        return problems, {}
    for step in ("fwd", "inv"):
        report = json.loads((inst["dir"] / step / "report.json").read_text())
        if report["converged"] is not True:
            problems.append(f"invot {step} report says converged=false")
    fields = dict(line.split() for line in outputs["eval"].stdout.splitlines()
                  if len(line.split()) == 2)
    err = float(fields.get("relative_error", "nan"))
    if not err <= EVAL_MAX_REL_ERR:
        problems.append(f"eval rel err {err:.3e} above {EVAL_MAX_REL_ERR:.0e}")
    shutil.rmtree(inst["dir"], ignore_errors=True)
    return problems, {}


# --- train: Adam steps of the continuous learner on criterion-9 pairs ---

def build_train(params, seed, workdir):
    n, eps = 100, 0.5
    cost, mu, nu = _discrete(n, eps, seed)
    plan = _observed_plan(cost, mu, nu, eps, 1e-10)
    support = np.arange(n) / n
    samples = iv.sample_pairs(plan, support, support, N=params["pairs"], seed=seed)
    config = iv.TrainConfig(learning_rate=1e-4, batch_size=500, n_collocation=500,
                         epochs=params["epochs"], seed=seed,
                         domain_box=((0.0, 1.0), (0.0, 1.0)))
    return {"samples": samples, "config": config, "seed": seed, "losses": []}


def run_train(inst, ctx):
    seed = inst["seed"]
    dims = [1, 20, 20, 20, 1]
    cost = iv.CostParameterization("absdiff", iv.xavier_init(dims, "relu", seed=seed))
    alpha = iv.xavier_init(dims, "identity", seed=seed + 1)
    beta = iv.xavier_init(dims, "identity", seed=seed + 2)
    return _timed(iv.train, inst["samples"], cost, alpha, beta, inst["config"])


def check_train(inst, output):
    report = output[3]
    loss = float(report.objective_trace[-1])
    problems = []
    if not report.converged:
        problems.append("train reported converged=false")
    if not np.isfinite(loss):
        problems.append(f"final training loss {loss!r} is not finite")
    inst["losses"].append(loss)
    if inst["losses"][0] != loss:
        problems.append(f"final training loss {loss!r} differs from the first "
                        f"run's {inst['losses'][0]!r} for the same seed")
    return problems, {"train_final_loss": loss}


# --- bcd: block coordinate descent on the log-sum-exp objective ---

def build_bcd(params, seed, workdir):
    cost, mu, nu = _discrete(params["n"], 1.0, seed)
    plan = _observed_plan(cost, mu, nu, 1.0, 1e-12)
    problem = iv.InverseProblem(
        observed=plan, constraint=_sym_box(),
        config=iv.SolverConfig(epsilon=1.0, max_iter=MAX_ITER, tol=params["tol"]))
    return {"truth": cost, "problem": problem}


def run_bcd(inst, ctx):
    return _timed(iv.bcd_solve, inst["problem"], M_c=2.0)


def check_bcd(inst, solution):
    problems = []
    if not solution.report.converged:
        problems.append("bcd_solve did not converge")
    psi = np.asarray(solution.report.objective_trace)
    rise = float(np.max(np.diff(psi))) if psi.size > 1 else 0.0
    if not rise <= BCD_MAX_RISE:
        problems.append(f"BCD objective rose by {rise:.3e} (limit {BCD_MAX_RISE:.0e})")
    err = iv.relative_error(solution.cost, inst["truth"])
    if not err <= BCD_MAX_REL_ERR:
        problems.append(f"bcd rel err {err:.3e} above {BCD_MAX_REL_ERR:.0e}")
    return problems, {"bcd_rel_err": err}


OPS = {
    "forward": Op("forward_s", build_forward, run_forward, check_forward),
    "inverse": Op("inverse_s", build_inverse, run_inverse, check_inverse),
    "affinity": Op("affinity_s", build_affinity, run_inverse, check_affinity),
    "chain": Op("chain_s", build_chain, run_chain, check_chain),
    "train": Op("train_s", build_train, run_train, check_train),
    "logfwd": Op("logfwd_s", build_logfwd, run_forward, check_forward),
    "bcd": Op("bcd_s", build_bcd, run_bcd, check_bcd),
}


# the smallest instances; used for warm-up and by the benchmark's own tests
TINY = {
    "forward": {"n": 16, "eps": 0.1, "k": 1},
    "inverse": {"n": 16, "eps": 0.1, "tol": 1e-4, "k": 1},
    "affinity": {"n": 16, "p": 4, "q": 3, "k": 1},
    "chain": {"n": 8, "tol": 1e-3, "k": 1},
    "train": {"pairs": 500, "epochs": 1, "k": 1},
    "logfwd": {"n": 16, "eps": 0.01, "k": 1},
    "bcd": {"n": 4, "tol": 1e-4, "k": 1},
}


def warm_up(env) -> None:
    """Run every in-process operation once at a tiny size and start one
    child that imports the CLI, so code paths, caches and compiled modules
    are ready before anything is timed."""
    for name, params in TINY.items():
        if name != "chain":
            op = OPS[name]
            op.run(op.build(params, 0, None), RoundContext(traced=False, env=env))
    subprocess.run([sys.executable, "-c", "import invot.cli"], env=env,
                   check=True, timeout=CLI_TIMEOUT_S)
