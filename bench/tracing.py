"""In-memory span tracing around boolfun's module-level functions.

The tracer patches named functions from outside the package: every loaded
``boolfun`` module that holds the original function object (including
modules that imported it by value) gets the wrapper, so calls are seen
wherever the name is looked up.  A target that no longer exists is skipped,
and its metrics are then absent rather than an error.

Each call records a span (name, start, end, parent) in flat arrays.  Self
time is a span's duration minus the part of it that its child spans cover.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import sys
from array import array
from collections import defaultdict
from dataclasses import dataclass, field
from time import perf_counter
from typing import Callable


@dataclass(frozen=True)
class Target:
    """One function to wrap: ``module.attr``, reported under ``layer``."""

    module: str
    attr: str
    layer: str
    count: Callable | None = None  # (counters, result) -> None


def _scan_butterfly_counts(counters, result):
    # computed, not timed: rows * n * 2^n additions, one pass over the
    # matrix bytes per butterfly stage
    rows, width = result.shape
    stages = width.bit_length() - 1
    counters["rows"] += rows
    counters["adds"] += rows * stages * width
    counters["bytes"] += result.nbytes * stages


def _scan_unpack_counts(counters, result):
    counters["rows"] += result.shape[0]


TARGETS = (
    Target("boolfun.scan", "_bits_matrix", "scan.unpack", _scan_unpack_counts),
    Target("boolfun.scan", "_batch_butterfly", "scan.butterfly", _scan_butterfly_counts),
    Target("boolfun.scan", "_accumulate", "scan.accumulate"),
    Target("boolfun.scan", "_sample_table", "scan.sample"),
    Target("boolfun.scan", "_build_consts", "scan.consts"),
    Target("boolfun.scan", "merge_results", "scan.merge"),
    Target("boolfun.scan", "_finalize", "scan.finalize"),
    Target("boolfun.scan", "run_scan", "scan.entry"),
    Target("boolfun.scan", "scan_table_range", "scan.entry"),
    Target("boolfun.scan", "scan_sample_range", "scan.entry"),
    Target("boolfun.scan", "_analyze_chunk", "scan.entry"),
    Target("boolfun.majority", "majority_profile", "majority.profile"),
    Target("boolfun.core", "fwht", "core.fwht"),
    Target("boolfun.core", "_butterfly", "core.butterfly"),
    Target("boolfun.derivatives", "derivative_value_counts", "derivatives.counts"),
    Target("boolfun.derivatives", "influence", "derivatives.influence"),
    Target("boolfun.derivatives", "total_influence", "derivatives.influence"),
    Target("boolfun.derivatives", "influence_profile", "derivatives.influence"),
    Target("boolfun.conjecture", "check_conjecture", "conjecture.check"),
    Target("boolfun.conjecture", "equivalence_predicates", "conjecture.equiv"),
    Target("boolfun.cli", "main", "cli.main"),
)


def self_times(starts, ends, parents) -> list[float]:
    """Per-span duration minus the union of its children's intervals."""
    children = defaultdict(list)
    for idx, parent in enumerate(parents):
        if parent >= 0:
            children[parent].append(idx)
    result = []
    for idx, (start, end) in enumerate(zip(starts, ends)):
        covered = 0.0
        reach = start
        for lo, hi in sorted((starts[c], ends[c]) for c in children.get(idx, ())):
            lo, hi = max(lo, reach), min(hi, end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        result.append(end - start - covered)
    return result


@dataclass
class Tracer:
    """Records spans for wrapped functions until ``uninstall``."""

    names: list[str] = field(default_factory=list)
    name_ids: array = field(default_factory=lambda: array("i"))
    parents: array = field(default_factory=lambda: array("i"))
    starts: array = field(default_factory=lambda: array("d"))
    ends: array = field(default_factory=lambda: array("d"))
    counters: dict = field(default_factory=lambda: defaultdict(lambda: defaultdict(int)))
    installed: set = field(default_factory=set)
    _on: list = field(default_factory=lambda: [False])
    _stack: list = field(default_factory=list)
    _patches: list = field(default_factory=list)

    def _name_id(self, name: str) -> int:
        if name not in self.names:
            self.names.append(name)
        return self.names.index(name)

    def resume(self) -> None:
        self._on[0] = True

    def pause(self) -> None:
        self._on[0] = False

    def begin(self, name: str) -> int:
        idx = len(self.name_ids)
        self.name_ids.append(self._name_id(name))
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.starts.append(perf_counter())
        self.ends.append(0.0)
        self._stack.append(idx)
        return idx

    def end(self, idx: int) -> None:
        self.ends[idx] = perf_counter()
        self._stack.pop()

    def _wrapper(self, fn, layer: str, count):
        name_id = self._name_id(layer)
        counters = self.counters[layer]
        name_ids, parents, starts, ends, stack, on = (
            self.name_ids, self.parents, self.starts, self.ends, self._stack, self._on)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not on[0]:
                return fn(*args, **kwargs)
            idx = len(name_ids)
            name_ids.append(name_id)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            stack.append(idx)
            starts.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = perf_counter()
                stack.pop()
            if count is not None:
                count(counters, result)
            return result

        return traced

    def _patch_everywhere(self, original, replacement) -> None:
        for name, module in list(sys.modules.items()):
            if name != "boolfun" and not name.startswith("boolfun."):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._patches.append((module, attr, original))
                    setattr(module, attr, replacement)

    def install(self, targets=TARGETS) -> None:
        for target in targets:
            try:
                module = importlib.import_module(target.module)
            except ImportError:
                continue
            original = getattr(module, target.attr, None)
            if not callable(original):
                continue
            self.installed.add(target.layer)
            self._patch_everywhere(original, self._wrapper(original, target.layer, target.count))
        self._install_profile_misses()
        self._install_dyadic_counter()

    def _install_profile_misses(self) -> None:
        # a miss is a call for a d the profile cache does not hold yet
        majority = sys.modules.get("boolfun.majority")
        cache = getattr(majority, "_profiles", None)
        original = getattr(majority, "majority_profile", None)
        if not isinstance(cache, dict) or not callable(original):
            return
        counters = self.counters["majority.profile"]
        on = self._on

        @functools.wraps(original)
        def counted(d, *args, **kwargs):
            if not on[0] or d in cache:
                return original(d, *args, **kwargs)
            start = perf_counter()
            try:
                return original(d, *args, **kwargs)
            finally:
                counters["misses"] += 1
                counters["cold_s"] += perf_counter() - start

        counters.update(misses=0, cold_s=0.0)
        self._patch_everywhere(original, counted)

    def _install_dyadic_counter(self) -> None:
        dyadic = sys.modules.get("boolfun.dyadic")
        cls = getattr(dyadic, "DyadicRational", None)
        if cls is None:
            return
        original = cls.__init__
        counters = self.counters["dyadic.new"]
        counters["count"] = 0
        on = self._on

        @functools.wraps(original)
        def counted(obj, *args, **kwargs):
            counters["count"] += on[0]
            original(obj, *args, **kwargs)

        self._patches.append((cls, "__init__", original))
        cls.__init__ = counted

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def summary(self) -> dict[str, dict[str, float]]:
        """Per layer: calls, self_s, and the counters recorded for it."""
        out = {layer: {"calls": 0, "self_s": 0.0} for layer in self.installed}
        for name_id, own in zip(self.name_ids, self_times(self.starts, self.ends, self.parents)):
            entry = out.setdefault(self.names[name_id], {"calls": 0, "self_s": 0.0})
            entry["calls"] += 1
            entry["self_s"] += own
        for layer, counts in self.counters.items():
            out.setdefault(layer, {}).update(counts)
        return out

    def write_spans(self, path) -> None:
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("span\tname\tparent\tstart\tend\n")
            for idx, (name_id, parent, start, end) in enumerate(
                    zip(self.name_ids, self.parents, self.starts, self.ends)):
                fh.write(f"{idx}\t{self.names[name_id]}\t{parent}\t{start:.9f}\t{end:.9f}\n")


def merge_summaries(summaries) -> dict[str, dict[str, float]]:
    """Sum per-layer summaries from several traced processes."""
    out: dict[str, dict[str, float]] = {}
    for summary in summaries:
        for layer, values in summary.items():
            entry = out.setdefault(layer, {})
            for key, value in values.items():
                entry[key] = entry.get(key, 0) + value
    return out
