"""Spans around the calls into banditlab's modules, recorded from outside.

`install` replaces each public function by a wrapper at the name its
callers look it up by (for example `banditlab.cli.fit_families`, which
`cli` calls, and `banditlab.fitting.fit_subject`, which `fit_families`
calls), plus the `RngStream` methods and the `scipy.optimize` entry
points the fits use.  `src/` is not changed.  A span records its name,
start, end and parent span; spans are kept in memory and written out when
the run ends.  A span's self time is its duration minus its children's.
"""

from __future__ import annotations

import json
import time
from array import array
from collections import defaultdict

import numpy as np


# Per-layer metrics: name -> (unit, better).  Layer times and counts are
# totals over the traced run's fixed rounds.
PER_LAYER = {
    "cli.run_scenario.s": ("s", "lower"),
    "cli.self_s": ("s", "lower"),
    "sessions.write_sessions.s": ("s", "lower"),
    "sessions.rows_written": ("count", "higher"),
    "sessions.read_sessions.s": ("s", "lower"),
    "agents.run_trajectory.calls": ("count", "lower"),
    "agents.run_trajectory.s": ("s", "lower"),
    "agents.steps_per_s": ("1/s", "higher"),
    "env.RngStream.constructions": ("count", "lower"),
    "env.RngStream.construct_s": ("s", "lower"),
    "env.uniform_block.calls": ("count", "lower"),
    "env.uniform_block.s": ("s", "lower"),
    "mc.iter_value_chunks.s": ("s", "lower"),
    "mc.iter_value_chunks.self_s": ("s", "lower"),
    "mc.ensemble_value_moments.s": ("s", "lower"),
    "mc.replica_steps": ("count", "higher"),
    "mc.replica_steps_per_s": ("1/s", "higher"),
    "switching.ensemble_switch_rate.s": ("s", "lower"),
    "switching.ensemble_switch_rate.self_s": ("s", "lower"),
    "switching.kmix_evals_per_s": ("1/s", "higher"),
    "moments.steady_state_delta.calls": ("count", "lower"),
    "moments.steady_state_delta.s": ("s", "lower"),
    "moments.step_moments.calls": ("count", "lower"),
    "moments.propagate_moments.s": ("s", "lower"),
    "fitting.fit_families.s": ("s", "lower"),
    "fitting.recover_bias.s": ("s", "lower"),
    "fitting.fit_subject.calls": ("count", "lower"),
    "fitting.fit_subject.p50_ms": ("ms", "lower"),
    "fitting.fit_subject.bayes.s": ("s", "lower"),
    "fitting.fit_subject.const.s": ("s", "lower"),
    "fitting.fit_subject.conf.s": ("s", "lower"),
    "fitting.fit_subject.full.s": ("s", "lower"),
    "fitting.minimize.calls": ("count", "lower"),
    "fitting.objective_evals": ("count", "lower"),
    "fitting.objective_evals_per_fit": ("count", "lower"),
    "fitting.nll.evals_per_s": ("1/s", "higher"),
    "fitting.beta_at_cap": ("count", "lower"),
    "fitting.fit_nll_sum": ("nats", "lower"),
    "trace.ops_per_s": ("ops/s", "higher"),
}
PER_LAYER_UNITS = {k: unit for k, (unit, _) in PER_LAYER.items()}


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.parent = array("l")
        self.name = array("l")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self.counters: dict[str, float] = defaultdict(float)
        self._undo: list[tuple[object, str, object]] = []

    # ------------------------------------------------------------ spans
    def begin(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        i = len(self.start)
        self.parent.append(self._stack[-1])
        self.name.append(nid)
        self.end.append(0.0)
        self._stack.append(i)
        self.start.append(time.perf_counter())
        return i

    def finish(self, i: int) -> None:
        self.end[i] = time.perf_counter()
        self._stack.pop()

    # -------------------------------------------------------- patching
    def _patch(self, owner, attr, wrapper, fn) -> None:
        wrapper.__wrapped__ = fn
        setattr(owner, attr, wrapper)
        self._undo.append((owner, attr, fn))

    def wrap(self, owner, attr: str, name, after=None) -> None:
        """Span every call of owner.attr; `name` is a string or a function of
        the call's arguments; `after(result, args, kwargs)` updates counters."""
        fn = getattr(owner, attr)

        def wrapper(*args, **kwargs):
            i = self.begin(name if isinstance(name, str) else name(*args, **kwargs))
            try:
                result = fn(*args, **kwargs)
            finally:
                self.finish(i)
            if after is not None:
                after(result, args, kwargs)
            return result

        self._patch(owner, attr, wrapper, fn)

    def wrap_generator(self, owner, attr: str, name: str, after_item=None) -> None:
        """Span each resumption of a generator function, so the time spent
        inside it is separated from its consumer's."""
        fn = getattr(owner, attr)
        tracer = self

        def wrapper(*args, **kwargs):
            gen = fn(*args, **kwargs)
            while True:
                i = tracer.begin(name)
                try:
                    item = next(gen)
                except StopIteration:
                    return
                finally:
                    tracer.finish(i)
                if after_item is not None:
                    after_item(item)
                yield item

        self._patch(owner, attr, wrapper, fn)

    def count(self, owner, attr: str, counter: str) -> None:
        """Count the calls of a function too frequent to span."""
        fn = getattr(owner, attr)
        counters = self.counters

        def wrapper(*args, **kwargs):
            counters[counter] += 1
            return fn(*args, **kwargs)

        self._patch(owner, attr, wrapper, fn)

    def uninstall(self) -> None:
        for owner, attr, fn in reversed(self._undo):
            setattr(owner, attr, fn)
        self._undo.clear()

    # ------------------------------------------------------- summaries
    def arrays(self):
        return (np.array(self.parent, dtype=np.int64), np.array(self.name, dtype=np.int64),
                np.array(self.start), np.array(self.end))

    def summary(self) -> dict[str, dict]:
        """Per span name: calls, total seconds, self seconds, durations."""
        parent, name, start, end = self.arrays()
        dur = end - start
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent],
                            minlength=len(dur))
        own = dur - child
        out = {}
        for nid, n in enumerate(self.names):
            sel = name == nid
            out[n] = {"calls": int(sel.sum()), "s": float(dur[sel].sum()),
                      "self_s": float(own[sel].sum()), "durations": dur[sel]}
        return out

    def write(self, path, extra: dict) -> None:
        """Spans as arrays in `path` (.npz) and per-name totals next to it."""
        parent, name, start, end = self.arrays()
        t0 = start.min() if len(start) else 0.0
        np.savez(path, names=np.array(self.names), parent=parent, name=name,
                 start=start - t0, end=end - t0)
        summ = {n: {k: v for k, v in d.items() if k != "durations"}
                for n, d in self.summary().items()}
        with open(str(path) + ".summary.json", "w", encoding="utf-8") as fh:
            json.dump({"spans": summ, "counters": dict(self.counters), **extra},
                      fh, indent=1, sort_keys=True)
            fh.write("\n")


def install(tracer: Tracer) -> None:
    """Wrap every traced entry point of banditlab and scipy.optimize."""
    import scipy.optimize
    from banditlab import cli, env, fitting, mc, moments, sessions, switching

    c = tracer.counters

    def add(counter, value):
        c[counter] += value

    tracer.wrap(cli, "run_scenario", "cli.run_scenario")
    for mod in (cli, fitting, sessions):
        tracer.wrap(mod, "run_trajectory", "agents.run_trajectory",
                    after=lambda res, a, k: add("agents.steps", res.n_trials))
    for mod in (cli, fitting):
        tracer.wrap(mod, "fit_subject", lambda fam, *a, **k: f"fitting.fit_subject.{fam}")
    tracer.wrap(cli, "write_sessions", "sessions.write_sessions",
                after=lambda rows, a, k: add("sessions.rows_written", rows))
    tracer.wrap(cli, "read_sessions", "sessions.read_sessions")
    tracer.wrap(cli, "fit_families", "fitting.fit_families")
    tracer.wrap(cli, "recover_bias", "fitting.recover_bias")
    for entry in ("minimize", "minimize_scalar"):
        tracer.wrap(scipy.optimize, entry, "fitting.minimize",
                    after=lambda res, a, k: add("fitting.objective_evals", res.nfev))
    tracer.wrap(env.RngStream, "__init__", "env.RngStream")
    tracer.wrap(env.RngStream, "uniform_block", "env.uniform_block")
    for mod in (mc, switching):
        tracer.wrap_generator(mod, "iter_value_chunks", "mc.iter_value_chunks",
                              after_item=lambda ch: add("mc.replica_steps", ch.actions.size))
    tracer.wrap(mc, "ensemble_value_moments", "mc.ensemble_value_moments")
    tracer.wrap(cli, "ensemble_switch_rate", "switching.ensemble_switch_rate",
                after=lambda s, a, k: add("switching.kmix_evals", s.n_replicas * len(s.t)))
    tracer.wrap(cli, "steady_state_delta", "moments.steady_state_delta")
    tracer.wrap(cli, "propagate_moments", "moments.propagate_moments")
    tracer.count(moments, "step_moments", "moments.step_moments.calls")


def _rate(num: float, den: float) -> float:
    return num / den if den > 0 else 0.0


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """The per-layer metrics of BENCHMARK.json from a finished trace."""
    s = tracer.summary()
    c = tracer.counters
    empty = {"calls": 0, "s": 0.0, "self_s": 0.0, "durations": np.zeros(0)}

    def g(name):
        return s.get(name, empty)

    fams = ("bayes", "const", "conf", "full")
    fit_durs = np.concatenate([g(f"fitting.fit_subject.{f}")["durations"] for f in fams])
    fit_calls = len(fit_durs)
    m = {
        "cli.run_scenario.s": g("cli.run_scenario")["s"],
        "cli.self_s": g("cli.run_scenario")["self_s"],
        "sessions.write_sessions.s": g("sessions.write_sessions")["s"],
        "sessions.rows_written": c["sessions.rows_written"],
        "sessions.read_sessions.s": g("sessions.read_sessions")["s"],
        "agents.run_trajectory.calls": g("agents.run_trajectory")["calls"],
        "agents.run_trajectory.s": g("agents.run_trajectory")["s"],
        "agents.steps_per_s": _rate(c["agents.steps"], g("agents.run_trajectory")["s"]),
        "env.RngStream.constructions": g("env.RngStream")["calls"],
        "env.RngStream.construct_s": g("env.RngStream")["s"],
        "env.uniform_block.calls": g("env.uniform_block")["calls"],
        "env.uniform_block.s": g("env.uniform_block")["s"],
        "mc.iter_value_chunks.s": g("mc.iter_value_chunks")["s"],
        "mc.iter_value_chunks.self_s": g("mc.iter_value_chunks")["self_s"],
        "mc.ensemble_value_moments.s": g("mc.ensemble_value_moments")["s"],
        "mc.replica_steps": c["mc.replica_steps"],
        "mc.replica_steps_per_s": _rate(c["mc.replica_steps"], g("mc.iter_value_chunks")["s"]),
        "switching.ensemble_switch_rate.s": g("switching.ensemble_switch_rate")["s"],
        "switching.ensemble_switch_rate.self_s": g("switching.ensemble_switch_rate")["self_s"],
        "switching.kmix_evals_per_s": _rate(c["switching.kmix_evals"],
                                            g("switching.ensemble_switch_rate")["self_s"]),
        "moments.steady_state_delta.calls": g("moments.steady_state_delta")["calls"],
        "moments.steady_state_delta.s": g("moments.steady_state_delta")["s"],
        "moments.step_moments.calls": c["moments.step_moments.calls"],
        "moments.propagate_moments.s": g("moments.propagate_moments")["s"],
        "fitting.fit_families.s": g("fitting.fit_families")["s"],
        "fitting.recover_bias.s": g("fitting.recover_bias")["s"],
        "fitting.fit_subject.calls": fit_calls,
        "fitting.fit_subject.p50_ms": float(np.median(fit_durs)) * 1e3 if fit_calls else 0.0,
        "fitting.minimize.calls": g("fitting.minimize")["calls"],
        "fitting.objective_evals": c["fitting.objective_evals"],
        "fitting.objective_evals_per_fit": _rate(c["fitting.objective_evals"], fit_calls),
    }
    for f in fams:
        m[f"fitting.fit_subject.{f}.s"] = g(f"fitting.fit_subject.{f}")["s"]
    return m
