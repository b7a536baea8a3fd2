"""Span tracer that instruments ``repro`` from outside the package.

The tracer wraps target functions *by identity*: for every target function
object it replaces each attribute of every loaded ``repro.*`` module and
class that *is* that object. This also catches bindings imported by name
(``from .walker import run_walks`` in ``join_sampler``) and functions looked
up at call time from module globals (lambdas and properties inside the
package). Nothing under ``src/`` is edited.

Each wrapped call records a span: metric key, function, start, end, parent
span and self time (duration minus the time covered by child spans), plus
counters read from the returned objects. On span entry the tracer moves the
Spark job group to ``perfbench:<query>:<key>`` so every Spark job is
attributed to the layer that issued it; jobs still in the query's root
group are *unattributed*. Spans stay in memory and are dumped as JSON by
the caller at the end of the run.
"""
from __future__ import annotations

import functools
import importlib
import os
import pickle
import statistics
import sys
import time
from collections import defaultdict


def _walk_plan_bytes(span, out, seen):
    # A plan dict seen for the first time was just built: count the bytes
    # of the value it broadcast (what the executors receive).
    if not isinstance(out, dict) or "bc" not in out or id(out) in seen:
        return
    seen[id(out)] = out
    bc = out["bc"]
    path = getattr(bc, "_path", None)  # the driver-side pickle file
    if path and os.path.isfile(path):
        span["broadcast_bytes"] = os.path.getsize(path)
    else:
        span["broadcast_bytes"] = len(pickle.dumps(bc.value, pickle.HIGHEST_PROTOCOL))


def _walks(span, out, seen):
    span["walks"] = int(out.n_walks)
    span["dead_ends"] = int(out.n_failed)


def _probe_rows(span, out, seen):
    span["rows"] = len(out)


def _union_result(span, out, seen):
    span["psi"] = int(out.n_drawn)
    span["cover_rejected"] = int(out.n_rejected_cover)
    span["accepted"] = len(out.samples)
    # EO weight-bound rejections, counted by sample_join in these stats
    span["weight_rejected"] = int(out.stats.n_rejected_weight) if out.stats else 0


def _online_result(span, out, seen):
    span["reuse_accepted"] = int(out.counts.get("reuse_accepted", 0))
    span["regular_accepted"] = int(out.counts.get("regular_accepted", 0))
    span["backtracks"] = int(out.n_backtracks)
    span["backtrack_rejected"] = int(out.n_backtrack_rejected)


def _rw_state(span, out, seen):
    _, state = out
    span["pool_rows"] = sum(len(p) for p in state.pools.values())
    span["walks"] = span["pool_rows"] + sum(state.n_failed.values())


def _view_sets(span, out, seen):
    span["view_sets"] = len(out)


# metric key -> [(module, attribute path, counter reading the returned object)]
TARGETS: dict[str, list[tuple]] = {
    "walker.plan": [("repro.core.walker", "_walk_plan", _walk_plan_bytes)],
    "walker.run_walks": [("repro.core.walker", "run_walks", _walks)],
    "membership.build": [("repro.core.membership", "MembershipIndex.__init__", None)],
    "membership.probe": [("repro.core.membership", "MembershipIndex.matrix", _probe_rows)],
    "join_sampler.sample_join": [("repro.core.join_sampler", "sample_join", None)],
    "union_sampler": [
        ("repro.core.union_sampler", "warmup_params", None),
        ("repro.core.union_sampler", "set_union_sample", _union_result),
    ],
    "stats": [
        ("repro.core.stats", name, None)
        for name in (
            "degree_histogram",
            "max_degree",
            "avg_degree",
            "pair_degree_product",
            "self_degree",
        )
    ],
    "splitting": [
        ("repro.splitting.split", "split_view_sets", _view_sets),
        ("repro.splitting.split", "split_views", None),
        ("repro.splitting.split", "split_view", None),
        ("repro.splitting.split", "candidate_templates", None),
        ("repro.splitting.split", "_deg", None),
        ("repro.splitting.split", "_first_pair_df", None),
        ("repro.splitting.template", "best_template", None),
        ("repro.splitting.template", "template_cost", None),
    ],
    "histogram_union": [
        ("repro.core.histogram_union", "auto_histogram_warmup", None),
        ("repro.core.histogram_union", "histogram_warmup", None),
        ("repro.core.histogram_union", "chain_view", None),
        ("repro.core.histogram_union", "overlap_bound", None),
        ("repro.core.histogram_union", "build_estimate", None),
        ("repro.core.histogram_union", "ChainStatsView.pair_series", None),
    ],
    "koverlap": [
        ("repro.core.koverlap", name, None)
        for name in ("k_overlaps", "union_size", "cover_sizes")
    ],
    "randomwalk_union": [
        ("repro.core.randomwalk_union", "randomwalk_warmup", _rw_state),
        ("repro.core.randomwalk_union", "estimate_from_state", None),
    ],
    "online_union": [("repro.core.online_union", "online_union_sample", _online_result)],
}

ROOT_KEY = "query"


def _resolve(module: str, path: str):
    obj = importlib.import_module(module)
    for part in path.split("."):
        obj = getattr(obj, part, None)
        if obj is None:
            return None
    return obj if callable(obj) else None


def _owners():
    """Every loaded ``repro`` module and every class defined in one."""
    for name, mod in list(sys.modules.items()):
        if mod is None or not (name == "repro" or name.startswith("repro.")):
            continue
        yield mod
        for value in list(vars(mod).values()):
            if isinstance(value, type) and value.__module__ == name:
                yield value


class Tracer:
    """Collects spans for queries run between :meth:`begin` and :meth:`end`
    while the wrappers are installed."""

    def __init__(self, sc):
        self.sc = sc
        self.spans: list[dict] = []
        self.queries: list[dict] = []
        self.missing: list[str] = []
        self._patches: list[tuple[object, str, object]] = []
        self._stack: list[dict] = []
        self._group: str | None = None
        self._groups: dict[str, str] = {}  # job group -> metric key
        self._seen: dict[int, object] = {}  # built walk plans
        self._query: str | None = None
        self._epoch = time.perf_counter()
        self._next_id = 0

    # ---- wrapping --------------------------------------------------------
    def install(self) -> None:
        if self._patches:
            return
        by_id: dict[int, tuple] = {}
        self.missing = []
        for key, targets in TARGETS.items():
            for module, path, counter in targets:
                fn = _resolve(module, path)
                if fn is None:
                    self.missing.append(f"{module}.{path}")
                    continue
                by_id[id(fn)] = (fn, self._wrap(fn, key, counter))
        for owner in _owners():
            for attr, value in list(vars(owner).items()):
                hit = by_id.get(id(value))
                if hit is not None and value is hit[0]:
                    setattr(owner, attr, hit[1])
                    self._patches.append((owner, attr, value))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches = []

    def _wrap(self, fn, key, counter):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer._query is None:
                return fn(*args, **kwargs)
            span = tracer._enter(key, fn.__qualname__)
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                span["error"] = True
                tracer._exit(span)
                raise
            tracer._exit(span)
            if counter is not None:
                t0 = time.perf_counter()
                counter(span, out, tracer._seen)
                # Reading counters is tracer work: hide it from the parent.
                if tracer._stack:
                    tracer._stack[-1]["_child"] += time.perf_counter() - t0
            return out

        return wrapper

    # ---- spans -----------------------------------------------------------
    def _set_group(self, group: str | None) -> None:
        if group == self._group:
            return
        self._group = group
        if group is None:
            self.sc.setLocalProperty("spark.jobGroup.id", None)
            self.sc.setLocalProperty("spark.job.description", None)
        else:
            self.sc.setJobGroup(group, group)

    def _enter(self, key: str, fn: str) -> dict:
        parent = self._stack[-1] if self._stack else None
        group = f"perfbench:{self._query}:{key}"
        self._groups[group] = key
        span = {
            "id": self._next_id,
            "parent": parent["id"] if parent else None,
            "query": self._query,
            "key": key,
            "fn": fn,
            "_child": 0.0,
            "_group_before": self._group,
        }
        self._next_id += 1
        self._stack.append(span)
        self._set_group(group)
        span["t0"] = time.perf_counter() - self._epoch
        return span

    def _exit(self, span: dict) -> None:
        t1 = time.perf_counter() - self._epoch
        popped = self._stack.pop()
        if popped is not span:  # pragma: no cover - wrappers nest strictly
            raise RuntimeError("span stack out of order")
        span["t1"] = t1
        dur = t1 - span["t0"]
        span["self_s"] = dur - span.pop("_child")
        if self._stack:
            self._stack[-1]["_child"] += dur
        self._set_group(span.pop("_group_before"))
        self.spans.append(span)

    def begin(self, query: str) -> None:
        """Open the root span of one query (or one set-up)."""
        self._query = query
        self._groups = {}
        self._root = self._enter(ROOT_KEY, query)

    def end(self) -> dict:
        """Close the root span; attribute the query's Spark jobs to keys."""
        self._exit(self._root)
        self._set_group(None)
        query, self._query = self._query, None
        self._drain_listener_bus()
        tracker = self.sc.statusTracker()
        jobs: dict[str, int] = defaultdict(int)
        for group, key in self._groups.items():
            jobs[key] += len(tracker.getJobIdsForGroup(group))
        record = {"query": query, "jobs": dict(jobs), "wall_s": self._root["t1"] - self._root["t0"]}
        self.queries.append(record)
        return record

    def _drain_listener_bus(self) -> None:
        # Job-start events reach the status store asynchronously; wait until
        # the listener bus is empty before counting jobs per group.
        try:
            self.sc._jsc.sc().listenerBus().waitUntilEmpty()
        except Exception:  # py4j error on a Spark without this method
            time.sleep(1.0)

    # ---- aggregation -----------------------------------------------------
    def summary(self, query: str) -> dict[str, dict]:
        """Per key: calls, self_s, jobs, summed counters and call durations."""
        out: dict[str, dict] = defaultdict(lambda: defaultdict(float))
        durations: dict[str, list[float]] = defaultdict(list)
        for span in self.spans:
            if span["query"] != query:
                continue
            agg = out[span["key"]]
            agg["calls"] += 1
            agg["self_s"] += span["self_s"]
            durations[span["key"]].append(span["t1"] - span["t0"])
            for name, value in span.items():
                if name not in _SPAN_FIELDS:
                    agg[name] += value
        record = next(q for q in self.queries if q["query"] == query)
        for key, n in record["jobs"].items():
            out[key]["jobs"] += n
        for key, ds in durations.items():
            out[key]["durations"] = ds
        return {k: dict(v) for k, v in out.items()}


_SPAN_FIELDS = {"id", "parent", "query", "key", "fn", "t0", "t1", "self_s", "error"}


def percentile(values: list[float], q: float) -> float:
    """The q-th percentile, interpolated (0 if there are no values)."""
    if not values:
        return 0.0
    if len(values) == 1:
        return float(values[0])
    cuts = statistics.quantiles(values, n=100, method="inclusive")
    return float(cuts[int(q) - 1])
