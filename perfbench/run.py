"""Benchmark for `invot`: one workload per run, every metric by name and unit.

Usage (from the repository root):

    python3 perfbench/run.py --workload discrete-recover --seed 1 --seconds 35 --trace 0

A run sets up its inputs from the seed (three times; the median plus the
import time is `setup_s`), then repeats rounds until `--seconds` have passed.
A round solves every instance of each of the seven operations in
`workloads.OPS` once and checks every output. With `--trace 0` the last line
is a JSON object with the end-to-end metrics, each the median over every
solve of the run. With `--trace 1` rounds alternate traced and untraced; the
layer metrics are medians over the traced rounds, and `trace.overhead_frac`
compares the two kinds. Details, provenance and the spans go to `.bench_out/`
in the repository root.

BLAS and OpenMP threads are pinned to 1 in this process's environment, which
CLI child processes inherit.
"""

from __future__ import annotations

import argparse
import gzip
import json
import os
import platform
import resource
import shutil
import statistics
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
SETUP_REPEATS = 3

# per-layer metrics whose value is a count and must repeat exactly round to round
EXACT_COUNTS = ("sinkhorn.iters", "sinkhorn.log_domain", "scaling.iters",
                "scaling.objective_E_calls", "constraints.prox_calls", "bcd.iters",
                "nets.forward_calls", "nets.backward_calls", "continuous.steps",
                "fileio.bytes_read", "fileio.bytes_written")

# byte counts taken from file sizes, not measured as I/O traffic
COMPUTED_BYTES = ("fileio.bytes_read", "fileio.bytes_written")


class UnknownWorkload(ValueError):
    pass


def pin_threads() -> dict:
    for var in THREAD_VARS:
        os.environ[var] = "1"
    os.environ["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p])
    return {var: os.environ[var] for var in THREAD_VARS}


def tail_percentile(n: int):
    """Highest of p99/p95/p90/p75/p50 with at least ten samples beyond it."""
    for p in (99, 95, 90, 75, 50):
        if n - 1 - int(n * p / 100) >= 10:
            return p
    return None


def summary(values):
    vals = sorted(values)
    out = {"median": statistics.median(vals), "n": len(vals)}
    p = tail_percentile(len(vals))
    if p is not None:
        out[f"p{p}"] = vals[int(len(vals) * p / 100)]
    return out


def git_commit(root: Path) -> str:
    head = root / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        ref_file = root / ".git" / name
        if ref_file.exists():
            return ref_file.read_text().strip()
        for line in (root / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def provenance(workload, seed, seconds, trace, threads, sizes) -> dict:
    import numpy as np

    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "cpu_model": cpu, "nproc": os.cpu_count(),
        "python": platform.python_version(), "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "threads": threads, "git_commit": git_commit(ROOT), "sizes": sizes,
    }


def run_round(instances, traced, env):
    """Run every instance of every operation once.

    Returns per-solve times and quality values, problems, and for a traced
    round the spans and layer metrics.
    """
    import tracing
    import workloads

    ctx = workloads.RoundContext(traced=traced, env=env)
    tracer = tracing.Tracer()
    undo = tracing.install(tracer) if traced else []
    times, quality, problems = {}, {}, {}
    attempted = failed = 0
    start = tracing.now()
    try:
        for name, insts in instances.items():
            op = workloads.OPS[name]
            for inst in insts:
                attempted += 1
                try:
                    seconds, output = op.run(inst, ctx)
                    found, q = op.check(inst, output)
                except Exception as exc:  # an operation that raises counts as failed
                    found, q = [f"{type(exc).__name__}: {exc}"], {}
                if found:
                    failed += 1
                    problems.setdefault(name, []).extend(found)
                    continue
                times.setdefault(op.metric, []).append(seconds)
                for key, value in q.items():
                    quality.setdefault(key, []).append(value)
    finally:
        tracing.uninstall(undo)
    result = {"wall": tracing.now() - start, "times": times, "quality": quality,
              "problems": problems, "attempted": attempted, "failed": failed,
              "spans": None, "layers": None}
    if traced:
        spans = list(tracer.spans)
        for k, child in enumerate(ctx.child_spans):
            spans.extend((f"c{k}.{s}", None if p is None else f"c{k}.{p}", name, a, b, attrs)
                         for s, p, name, a, b, attrs in child)
        result["spans"] = spans
        result["layers"] = tracing.layer_metrics(spans, ctx.cli_walls, ctx.cli_startups)
    return result


def run_benchmark(workload, seed, seconds, trace, sizes=None):
    """Set up, run rounds for `seconds`, and return the full result record.

    `sizes` replaces the workload's instance sizes; the tests pass tiny ones.
    """
    threads = pin_threads()
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import tracing

    t0 = tracing.now()
    import workloads  # imports numpy and invot

    import_s = tracing.now() - t0
    if workload not in workloads.WORKLOADS:
        raise UnknownWorkload(f"unknown workload {workload!r}; choose from "
                              f"{', '.join(workloads.WORKLOADS)}")
    sizes = sizes or workloads.sizes(workload)
    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"work-{os.getpid()}"
    env = dict(os.environ)

    setups, rounds = [], []
    try:
        for _ in range(SETUP_REPEATS):
            t0 = tracing.now()
            instances = workloads.build_instances(sizes, seed, workdir)
            workloads.warm_up(env)
            setups.append(tracing.now() - t0)

        # start another round while it is expected to end within half a
        # round of the deadline; a traced run needs one round of each kind
        start = tracing.now()
        while (not rounds or (trace and len(rounds) < 2)
               or tracing.now() - start + rounds[-1]["wall"] / 2 < seconds):
            traced = bool(trace) and len(rounds) % 2 == 0
            rounds.append(run_round(instances, traced, env))
            rounds[-1]["traced"] = traced
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = sum(r["attempted"] for r in rounds)
    failed = sum(r["failed"] for r in rounds)
    # an upper bound: this process's peak plus the largest child's peak
    peak_kb = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
               + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)

    untraced = [r for r in rounds if not r["traced"]]
    e2e = {"setup_s": ([import_s + statistics.median(setups)], "s"),
           "peak_rss_mb": ([peak_kb / 1024.0], "MiB")}
    for op in workloads.OPS.values():
        e2e[op.metric] = ([t for r in untraced for t in r["times"].get(op.metric, ())], "s")
    for key in ("inverse_rel_err", "train_final_loss", "bcd_rel_err"):
        e2e[key] = ([v for r in untraced for v in r["quality"].get(key, ())], "1")

    layers, unsteady = {}, []
    traced_rounds = [r for r in rounds if r["traced"]]
    if traced_rounds:
        for name, (_v, unit) in traced_rounds[0]["layers"].items():
            values = [r["layers"][name][0] for r in traced_rounds]
            layers[name] = (values, unit)
            if name in EXACT_COUNTS and len(set(values)) > 1:
                unsteady.append(name)
        walls_t = [r["wall"] for r in traced_rounds]
        walls_u = [r["wall"] for r in untraced]
        layers["trace.overhead_frac"] = (
            [statistics.median(walls_t) / statistics.median(walls_u) - 1.0], "1")
        layers["trace.overhead_s"] = (
            [statistics.median(walls_t) - statistics.median(walls_u)], "s")
        layers["trace.unsteady_counts"] = ([float(len(unsteady))], "count")
    layers["failed_frac"] = ([failed / attempted], "1")

    record = {
        "provenance": provenance(workload, seed, seconds, trace, threads, sizes),
        "attempted": attempted, "failed": failed,
        "problems": [(i, name, msg) for i, r in enumerate(rounds)
                     for name, msgs in r["problems"].items() for msg in msgs],
        "round_walls": [r["wall"] for r in rounds],
        "setup_samples": setups, "import_s": import_s,
        "unsteady_counts": unsteady,
        "end_to_end": {k: dict(summary(v), unit=u, samples=v) for k, (v, u) in e2e.items() if v},
        "per_layer": {k: dict(summary(v), unit=u, samples=v) for k, (v, u) in layers.items()},
    }
    stem = OUT / f"{workload}-seed{seed}-trace{int(bool(trace))}"
    stem.with_suffix(".json").write_text(json.dumps(record, indent=1, default=str))
    if traced_rounds:
        with gzip.open(f"{stem}-spans.json.gz", "wt", compresslevel=1) as fh:
            json.dump([r["spans"] for r in traced_rounds], fh)
    return record


def report_line(record, trace) -> dict:
    section = record["per_layer"] if trace else record["end_to_end"]
    return {
        "correct": record["failed"] == 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {name: {"value": s["median"], "unit": s["unit"]}
                    for name, s in section.items()},
    }


def non_negative(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError("must be a non-negative integer")
    return value


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=non_negative, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "invot" / "__init__.py").is_file():
        print(f"perfbench: no invot sources at {SRC}", file=sys.stderr)
        return 2
    try:
        record = run_benchmark(args.workload, args.seed, args.seconds, args.trace)
    except UnknownWorkload as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    for key, value in record["provenance"].items():
        print(f"# {key}: {value}")
    for section in ("end_to_end", "per_layer"):
        for name, s in record[section].items():
            tail = "".join(f", {k} {v:.6g}" for k, v in s.items() if k.startswith("p"))
            note = " [computed from file sizes]" if name in COMPUTED_BYTES else ""
            print(f"{section} {name} = {s['median']:.6g} {s['unit']} "
                  f"(median of {s['n']}{tail}){note}")
    for i, name, msg in record["problems"]:
        print(f"FAILED round {i} {name}: {msg}")
    if record["unsteady_counts"]:
        print(f"counts that differed between rounds: {', '.join(record['unsteady_counts'])}")
    print(json.dumps(report_line(record, args.trace)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
