"""Spans recorded from outside the library, and the layer metrics derived from them.

`install(tracer)` swaps public functions and methods of `invot` for wrappers
that record one span per call: (id, parent id, name, start, end, attrs).
Nothing under `src/` changes; `uninstall` puts the originals back. A function
imported into several modules (``from .fileio import read_matrix_csv``) is
replaced wherever the module binds the same object, so calls through any of
those names are seen.

Timestamps come from CLOCK_MONOTONIC, which is system-wide on Linux, so spans
recorded in CLI child processes line up with the parent's.
"""

from __future__ import annotations

import importlib
import os
import sys
import time
from collections import defaultdict


def now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


class Tracer:
    """Keeps spans in memory as tuples (id, parent, name, start, end, attrs)."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self._next = 0

    def wrap(self, name, fn, attrs_of=None):
        def traced(*args, **kwargs):
            self._next += 1
            sid = self._next
            parent = self._stack[-1] if self._stack else None
            self._stack.append(sid)
            start = now()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self._stack.pop()
                self.spans.append((sid, parent, name, start, now(), None))
                raise
            end = now()
            self._stack.pop()
            attrs = attrs_of(args, result) if attrs_of is not None else None
            self.spans.append((sid, parent, name, start, end, attrs))
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced


def _iterations(args, result):
    return {"iterations": int(result.report.iterations)}


def _sinkhorn_attrs(args, result):
    return {"iterations": int(result.report.iterations),
            "log_domain": bool(result.report.extras.get("log_domain"))}


def _train_attrs(args, result):
    return {"iterations": int(result[3].iterations)}


def _file_bytes(args, result):
    """Bytes computed from the file's size, not measured as I/O traffic."""
    return {"bytes": os.path.getsize(args[0])}


# (module, attribute or Class.method, span name, attrs function)
TARGETS = [
    ("invot.sinkhorn", "sinkhorn_solve", "sinkhorn.solve", _sinkhorn_attrs),
    ("invot.sinkhorn", "dual_objective", "sinkhorn.dual_objective", None),
    ("invot.scaling", "learn_cost", "scaling.learn_cost", _iterations),
    ("invot.scaling", "objective_E", "scaling.objective_E", None),
    ("invot.constraints", "SymmetricZeroDiag.prox", "constraints.sym0", None),
    ("invot.constraints", "Box.prox", "constraints.box", None),
    ("invot.constraints", "LinearAffinity.prox", "constraints.affinity", None),
    ("invot.constraints", "Composite.prox", "constraints.composite", None),
    ("invot.constraints", "NoConstraint.prox", "constraints.none", None),
    ("invot.bcd", "bcd_solve", "bcd.solve", _iterations),
    ("invot.bcd", "bcd_alpha_update", "bcd.alpha", None),
    ("invot.bcd", "bcd_beta_update", "bcd.beta", None),
    ("invot.bcd", "bcd_c_update", "bcd.c", None),
    ("invot.bcd", "objective_F", "bcd.objective_F", None),
    ("invot.nets", "FeedForwardNet.forward_batch", "nets.forward", None),
    ("invot.nets", "FeedForwardNet.backward_batch", "nets.backward", None),
    ("invot.nets", "adam_step", "nets.adam", None),
    ("invot.continuous", "train", "continuous.train", _train_attrs),
    ("invot.fileio", "read_matrix_csv", "fileio.read", _file_bytes),
    ("invot.fileio", "write_matrix_csv", "fileio.write", _file_bytes),
    # timed but not counted: report.json embeds wall-clock seconds, so its
    # size changes run to run while the CSV byte counts repeat exactly
    ("invot.fileio", "write_report_json", "fileio.write", None),
]


def install(tracer: Tracer):
    """Wrap every target; returns the undo list for `uninstall`."""
    undo = []
    for module_name, attr, span_name, attrs_of in TARGETS:
        module = importlib.import_module(module_name)
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(module, cls_name)
            original = cls.__dict__[meth]
            undo.append((cls, meth, original))
            setattr(cls, meth, tracer.wrap(span_name, original, attrs_of))
            continue
        original = getattr(module, attr)
        wrapper = tracer.wrap(span_name, original, attrs_of)
        for name, mod in list(sys.modules.items()):
            if mod is None or not (name == "invot" or name.startswith("invot.")):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    undo.append((mod, key, original))
                    setattr(mod, key, wrapper)
    return undo


def uninstall(undo) -> None:
    for owner, key, original in reversed(undo):
        setattr(owner, key, original)


def self_times(spans):
    """Span id -> duration minus the time its direct children cover."""
    child_total = defaultdict(float)
    for sid, parent, _name, start, end, _attrs in spans:
        if parent is not None:
            child_total[parent] += end - start
    return {sid: (end - start) - child_total[sid]
            for sid, _p, _n, start, end, _a in spans}


PROX_NAMES = ("constraints.sym0", "constraints.box", "constraints.affinity",
              "constraints.composite", "constraints.none")


def layer_metrics(spans, cli_walls, cli_startups):
    """Per-layer metrics of one traced round.

    ``spans`` holds the spans of every process of the round; ``cli_walls``
    maps a CLI subcommand to its process wall time and ``cli_startups`` lists
    each child's time from spawn to the moment `invot.cli` was imported.
    """
    by_name = defaultdict(list)
    for span in spans:
        by_name[span[2]].append(span)
    self_of = self_times(spans)
    names = {span[0]: span[2] for span in spans}

    def total(name):
        return sum(end - start for _s, _p, _n, start, end, _a in by_name[name])

    def calls(name):
        return len(by_name[name])

    def self_total(name):
        return sum(self_of[span[0]] for span in by_name[name])

    def attr_sum(name, key):
        return sum(span[5][key] for span in by_name[name] if span[5])

    def mean_ms(name):
        return 1000.0 * total(name) / calls(name) if calls(name) else 0.0

    def ratio(num, den):
        return num / den if den else 0.0

    sk_iters = attr_sum("sinkhorn.solve", "iterations")
    lc_iters = attr_sum("scaling.learn_cost", "iterations")
    steps = attr_sum("continuous.train", "iterations")
    outer_prox = sum(1 for span in spans if span[2] in PROX_NAMES
                     and names.get(span[1]) not in PROX_NAMES)
    read_s, write_s = total("fileio.read"), total("fileio.write")
    bytes_read = attr_sum("fileio.read", "bytes")
    bytes_written = attr_sum("fileio.write", "bytes")
    return {
        "sinkhorn.solve_s": (total("sinkhorn.solve"), "s"),
        "sinkhorn.iters": (sk_iters, "count"),
        "sinkhorn.sweep_ms": (1000.0 * ratio(self_total("sinkhorn.solve"), sk_iters), "ms"),
        "sinkhorn.log_domain": (sum(1 for s in by_name["sinkhorn.solve"]
                                    if s[5] and s[5]["log_domain"]), "count"),
        "sinkhorn.dual_objective_s": (total("sinkhorn.dual_objective"), "s"),
        "scaling.learn_cost_s": (total("scaling.learn_cost"), "s"),
        "scaling.iters": (lc_iters, "count"),
        "scaling.iter_ms": (1000.0 * ratio(total("scaling.learn_cost"), lc_iters), "ms"),
        "scaling.self_s": (self_total("scaling.learn_cost"), "s"),
        "scaling.objective_E_s": (total("scaling.objective_E"), "s"),
        "scaling.objective_E_calls": (calls("scaling.objective_E"), "count"),
        "constraints.prox_calls": (outer_prox, "count"),
        "constraints.sym0_ms": (mean_ms("constraints.sym0"), "ms"),
        "constraints.box_ms": (mean_ms("constraints.box"), "ms"),
        "constraints.affinity_ms": (mean_ms("constraints.affinity"), "ms"),
        "bcd.solve_s": (total("bcd.solve"), "s"),
        "bcd.iters": (attr_sum("bcd.solve", "iterations"), "count"),
        "bcd.alpha_s": (total("bcd.alpha"), "s"),
        "bcd.beta_s": (total("bcd.beta"), "s"),
        "bcd.c_s": (total("bcd.c"), "s"),
        "bcd.objective_F_s": (total("bcd.objective_F"), "s"),
        "nets.forward_s": (total("nets.forward"), "s"),
        "nets.backward_s": (total("nets.backward"), "s"),
        "nets.adam_s": (total("nets.adam"), "s"),
        "nets.forward_calls": (calls("nets.forward"), "count"),
        "nets.backward_calls": (calls("nets.backward"), "count"),
        "continuous.train_s": (total("continuous.train"), "s"),
        "continuous.steps": (steps, "count"),
        "continuous.step_ms": (1000.0 * ratio(total("continuous.train"), steps), "ms"),
        "continuous.self_s": (self_total("continuous.train"), "s"),
        "fileio.read_s": (read_s, "s"),
        "fileio.write_s": (write_s, "s"),
        "fileio.bytes_read": (bytes_read, "bytes"),
        "fileio.bytes_written": (bytes_written, "bytes"),
        "fileio.read_MBps": (ratio(bytes_read, read_s) / 1e6, "MB/s"),
        "fileio.write_MBps": (ratio(bytes_written, write_s) / 1e6, "MB/s"),
        "cli.synth_s": (cli_walls.get("synth", 0.0), "s"),
        "cli.forward_s": (cli_walls.get("forward", 0.0), "s"),
        "cli.inverse_s": (cli_walls.get("inverse", 0.0), "s"),
        "cli.eval_s": (cli_walls.get("eval", 0.0), "s"),
        "cli.startup_s": (sorted(cli_startups)[len(cli_startups) // 2]
                          if cli_startups else 0.0, "s"),
    }
