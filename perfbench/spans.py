"""Span recorder for the traced benchmark run.

Spans are taken from outside the package: ``instrument`` swaps the public
entry points of each layer for wrappers that record a span (name, start,
end, parent) around every call, then restores them.  Spans stay in flat
in-memory arrays until the run ends, so the hot automaton step costs a
few appends, not an object per call.  A span's self time is its duration
minus the durations of its direct children; calls are strictly nested on
one thread, so the children never overlap.
"""

from __future__ import annotations

import os
import weakref
from array import array
from contextlib import contextmanager
from time import perf_counter

import numpy as np

from ecomac_backoff import automata, backoff, dtmc, montecarlo, properties

# per-layer metrics and their units, in report order
LAYER_UNITS = {
    "automata.steps": "count",
    "automata.self_s": "s",
    "automata.steps_per_s": "1/s",
    "dtmc.build.states": "count",
    "dtmc.build.edges": "count",
    "dtmc.build.self_s": "s",
    "dtmc.levels.count": "count",
    "dtmc.levels_s": "s",
    "dtmc.solve.calls": "count",
    "dtmc.solve_s": "s",
    "properties.solves_per_profile": "count",
    "dtmc.graph_s": "s",
    "dtmc.dump_s": "s",
    "dtmc.dump_bytes": "bytes",
    "cli.check_s": "s",
    "cli.sweep_s": "s",
    "cli.dump_s": "s",
    "montecarlo.runs": "count",
    "montecarlo.rounds": "count",
    "montecarlo.sim_ticks": "ticks",
    "montecarlo.self_s": "s",
    "montecarlo.deadlocked_runs": "count",
    "montecarlo.steps_per_round": "steps/round",
    "backoff.draws": "count",
    "backoff.draw_s": "s",
    "properties.profile_s": "s",
    "properties.idle_s": "s",
    "properties.battery_s": "s",
    "properties.sweep_s": "s",
    "trace.wall_s": "s",
    "trace.overhead_s": "s",
}


class Recorder:
    """Spans in flat arrays plus named counts taken at the same boundaries."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._open = [-1]
        self.counts: dict[str, int] = {}
        self.levelled: weakref.WeakSet = weakref.WeakSet()

    def _intern(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def _begin(self, nid: int) -> int:
        idx = len(self.end)
        self.name_id.append(nid)
        self.parent.append(self._open[-1])
        self.end.append(0.0)
        self._open.append(idx)
        self.start.append(perf_counter())
        return idx

    def _finish(self, idx: int) -> None:
        self.end[idx] = perf_counter()
        self._open.pop()

    @contextmanager
    def span(self, name: str):
        idx = self._begin(self._intern(name))
        try:
            yield
        finally:
            self._finish(idx)

    def count(self, name: str, n: int) -> None:
        self.counts[name] = self.counts.get(name, 0) + n

    def wrap(self, fn, name, observe=None):
        """`fn` recording one span per call; `name` may be a function of
        (args, kwargs); `observe(recorder, result, args, kwargs)` takes
        counts from the result outside the span."""
        fixed = None if callable(name) else self._intern(name)

        def traced(*args, **kwargs):
            nid = fixed if fixed is not None else self._intern(name(args, kwargs))
            idx = self._begin(nid)
            try:
                out = fn(*args, **kwargs)
            finally:
                self._finish(idx)
            if observe is not None:
                observe(self, out, args, kwargs)
            return out
        return traced

    # -- reduction ---------------------------------------------------------

    def arrays(self):
        name_id = np.frombuffer(self.name_id, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        start = np.frombuffer(self.start, dtype=np.float64)
        end = np.frombuffer(self.end, dtype=np.float64)
        return name_id, parent, start, end

    def self_times(self) -> np.ndarray:
        """Duration of each span minus the time its child spans cover."""
        _, parent, start, end = self.arrays()
        dur = end - start
        nested = parent >= 0
        covered = np.bincount(parent[nested], weights=dur[nested], minlength=dur.size)
        return dur - covered

    def totals(self) -> dict[str, tuple[int, float, float]]:
        """Per span name: (calls, summed duration, summed self time)."""
        name_id, _, start, end = self.arrays()
        k = len(self.names)
        calls = np.bincount(name_id, minlength=k)
        incl = np.bincount(name_id, weights=end - start, minlength=k)
        excl = np.bincount(name_id, weights=self.self_times(), minlength=k)
        return {n: (int(calls[i]), float(incl[i]), float(excl[i]))
                for i, n in enumerate(self.names)}

    def calls_within(self, name: str, ancestor: str, direct: bool = False) -> int:
        """Spans called `name` inside a span called `ancestor` (as its direct
        child only, when `direct` is set)."""
        nid, aid = self._ids.get(name), self._ids.get(ancestor)
        if nid is None or aid is None:
            return 0
        name_id, parent, _, _ = self.arrays()
        ups = parent[name_id == nid]
        ups = ups[ups >= 0]
        if direct:
            return int((name_id[ups] == aid).sum())
        found = 0
        for up in ups.tolist():
            while up >= 0 and name_id[up] != aid:
                up = parent[up]
            found += up >= 0
        return found

    def dump(self, path) -> None:
        """Write every span: names, name ids, parent ids, start and end."""
        name_id, parent, start, end = self.arrays()
        np.savez(path, names=np.array(self.names), name_id=name_id,
                 parent=parent, start=start, end=end)


# -- instrumentation ------------------------------------------------------------


def _on_build(rec, d, args, kwargs):
    rec.count("dtmc.build.states", d.n_states)
    rec.count("dtmc.build.edges", d.n_edges)


def _on_levels(rec, out, args, kwargs):
    # topo_levels caches per model, so count each model's levels once
    model = args[0]
    if model not in rec.levelled:
        rec.levelled.add(model)
        rec.count("dtmc.levels.count", len(out[0]))


def _on_dump(rec, out, args, kwargs):
    rec.count("dtmc.dump_bytes", os.path.getsize(args[1] if len(args) > 1 else kwargs["path"]))


def _on_simulate(rec, agg, args, kwargs):
    rec.count("montecarlo.runs", agg.n_runs)
    rec.count("montecarlo.rounds", int(agg.rounds.sum()))
    rec.count("montecarlo.sim_ticks", int(agg.ticks.sum()))
    rec.count("montecarlo.deadlocked_runs", agg.n_deadlocked)


def _profile_name(args, kwargs):
    per_packet = kwargs["per_packet"] if "per_packet" in kwargs else (len(args) > 3 and args[3])
    return "properties.profile.per_packet" if per_packet else "properties.profile.per_sender"


# (owner, attribute, span name, observer); every call site reaches these
# through the owner at call time, so swapping the attribute is enough
_TARGETS = (
    (automata.Automaton, "successor_distribution", "automata.step", None),
    (backoff, "sample_rbc", "backoff.draw", None),
    (montecarlo, "sample_rbc", "backoff.draw", None),
    (dtmc, "build", "dtmc.build", _on_build),
    (dtmc.DTMC, "topo_levels", "dtmc.levels", _on_levels),
    (dtmc, "prob_reach", "dtmc.solve", None),
    (dtmc, "expected_reward", "dtmc.solve", None),
    (dtmc, "check_invariant", "dtmc.graph", None),
    (dtmc, "almost_sure_leads_to", "dtmc.graph", None),
    (dtmc, "find_deadlocks", "dtmc.graph", None),
    (dtmc, "dump_statespace", "dtmc.dump", _on_dump),
    (montecarlo, "simulate", "montecarlo.simulate", _on_simulate),
    (properties, "success_profile", _profile_name, None),
    (properties, "idle_listening_time", "properties.idle", None),
    (properties, "run_validity_battery", "properties.battery", None),
    (properties, "tcu_variation_study", "properties.sweep", None),
)


@contextmanager
def instrument(rec: Recorder):
    """Record spans for the layer entry points while the block runs.

    A target the package no longer has is skipped, so the traced run still
    works after a later change renames one layer's function.
    """
    saved = []
    try:
        for owner, attr, name, observe in _TARGETS:
            fn = getattr(owner, attr, None)
            if fn is None:
                continue
            saved.append((owner, attr, fn))
            setattr(owner, attr, rec.wrap(fn, name, observe))
        yield rec
    finally:
        for owner, attr, fn in reversed(saved):
            setattr(owner, attr, fn)


def layer_metrics(rec: Recorder) -> dict[str, float]:
    """Per-layer counts and times of one traced pass; `combine` derives the rest."""
    t = rec.totals()
    c = rec.counts

    def calls(name):
        return t.get(name, (0, 0.0, 0.0))[0]

    def incl(name):
        return t.get(name, (0, 0.0, 0.0))[1]

    def excl(name):
        return t.get(name, (0, 0.0, 0.0))[2]

    rounds = c.get("montecarlo.rounds", 0)
    sim_steps = rec.calls_within("automata.step", "montecarlo.simulate", direct=True)
    profiles = calls("properties.profile.per_sender")
    profile_solves = rec.calls_within("dtmc.solve", "properties.profile.per_sender")
    return {
        "automata.steps": calls("automata.step"),
        "automata.self_s": excl("automata.step"),
        "dtmc.build.states": c.get("dtmc.build.states", 0),
        "dtmc.build.edges": c.get("dtmc.build.edges", 0),
        "dtmc.build.self_s": excl("dtmc.build"),
        "dtmc.levels.count": c.get("dtmc.levels.count", 0),
        "dtmc.levels_s": excl("dtmc.levels"),
        "dtmc.solve.calls": calls("dtmc.solve"),
        "dtmc.solve_s": excl("dtmc.solve"),
        "properties.solves_per_profile": profile_solves / profiles if profiles else 0.0,
        "dtmc.graph_s": excl("dtmc.graph"),
        "dtmc.dump_s": excl("dtmc.dump"),
        "dtmc.dump_bytes": c.get("dtmc.dump_bytes", 0),
        "cli.check_s": incl("cli.check"),
        "cli.sweep_s": incl("cli.sweep"),
        "cli.dump_s": incl("cli.dump"),
        "montecarlo.runs": c.get("montecarlo.runs", 0),
        "montecarlo.rounds": rounds,
        "montecarlo.sim_ticks": c.get("montecarlo.sim_ticks", 0),
        "montecarlo.self_s": excl("montecarlo.simulate"),
        "montecarlo.deadlocked_runs": c.get("montecarlo.deadlocked_runs", 0),
        "montecarlo.steps_per_round": sim_steps / rounds if rounds else 0.0,
        "backoff.draws": calls("backoff.draw"),
        "backoff.draw_s": excl("backoff.draw"),
        "properties.profile_s": (incl("properties.profile.per_sender")
                                 + incl("properties.profile.per_packet")),
        "properties.idle_s": incl("properties.idle"),
        "properties.battery_s": incl("properties.battery"),
        "properties.sweep_s": incl("properties.sweep"),
    }


def combine(passes: list[dict[str, float]]) -> dict[str, float]:
    """Counts from the first traced pass, the fastest pass for every time."""
    out = {}
    for key, unit in LAYER_UNITS.items():
        if key in passes[0]:
            out[key] = min(p[key] for p in passes) if unit == "s" else passes[0][key]
    steps, busy = out["automata.steps"], out["automata.self_s"]
    out["automata.steps_per_s"] = steps / busy if busy > 0 else 0.0
    return {key: out[key] for key in LAYER_UNITS if key in out}
