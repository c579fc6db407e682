"""The four benchmark workloads.

Each is a closed loop with one caller: the runner asks a workload for its
next seeded input (untimed), executes it (timed), then checks the output
(untimed).  Only ``execute`` touches the package's timed entry points, and it
looks every name up on the ``boolfun`` module at call time, so the tracer's
wrappers see the calls.  ``setup`` is what a fresh interpreter pays before
the first timed operation: imports, the majority profiles the workload
needs, and one warm-up operation.

See NOTES.md for why each workload exists and which layers it loads.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path

from gates import check_query, check_scan_payload, check_scan_result, dy, scan_summary

ROOT = Path(__file__).resolve().parent.parent
BENCH = Path(__file__).resolve().parent


def _digest(obj) -> str:
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()


class Workload:
    name = ""
    unit = ""          # what one unit of ops_per_s is
    op = ""            # what one op_p50_ms sample times
    block = 1          # a run ends only after a whole block of ops
    min_ops = 1        # every run completes at least this many (the recorded prefix)
    traces_children = False  # True: operations run in child processes

    def setup(self) -> None:
        raise NotImplementedError

    def start(self, seed: int) -> None:
        raise NotImplementedError

    def next_input(self):
        raise NotImplementedError

    def execute(self, inputs):
        """Timed; returns (units of work, output)."""
        raise NotImplementedError

    def check(self, inputs, output) -> list[str]:
        raise NotImplementedError

    def kind(self, inputs):
        """Which kind of op this is, where a workload mixes ops of unequal cost."""
        return None

    def finish(self) -> list[str]:
        return []

    def records(self) -> tuple[dict, dict]:
        """Exact outputs to compare with expected.json: (any seed, default seed)."""
        return {}, {}


class ExhaustiveN5(Workload):
    """Consecutive 2^14-table spans of exhaustive n = 5, merged in order."""

    name = "exhaustive-n5"
    unit = "function"
    op = "scan_table_range over 16,384 tables plus merge_results"
    min_ops = 2
    span = 1 << 14
    chunks = (1 << 32) // span

    def setup(self):
        import boolfun

        self.bf = boolfun
        self.cfg = boolfun.ScanConfig(
            n=5, mode="exhaustive", allow_huge=True,
            equivalence_check=True, equivalence_d_range=tuple(range(1, 7)))
        boolfun.scan_table_range(self.cfg, 0, 64)

    def start(self, seed):
        # a seeded starting chunk, then the spans run_scan would hand out next
        self.chunk = random.Random(f"{self.name}:{seed}").randrange(self.chunks)
        self.merged = None
        self.done = 0
        self.prefix = None

    def next_input(self):
        chunk, self.chunk = self.chunk, (self.chunk + 1) % self.chunks
        return chunk * self.span, (chunk + 1) * self.span

    def execute(self, span):
        piece = self.bf.scan_table_range(self.cfg, *span)
        self.merged = piece if self.merged is None else self.bf.merge_results(self.merged, piece)
        return self.span, piece

    def check(self, span, piece):
        self.done += 1
        if self.done == self.min_ops:
            self.prefix = scan_summary(self.merged)
        return check_scan_result(self.bf, piece, self.span)

    def finish(self):
        return check_scan_result(self.bf, self.merged, self.done * self.span)

    def records(self):
        return {}, {"first_spans": self.prefix}


class RandomN16(Workload):
    """run_scan calls at n = 16, random mode, one worker, no equivalence."""

    name = "random-n16"
    unit = "function"
    op = "run_scan call of 28-36 samples"

    def setup(self):
        import boolfun

        self.bf = boolfun
        boolfun.run_scan(self._config(1, 0))

    def _config(self, samples, seed):
        return self.bf.ScanConfig(n=16, mode="random", sample_count=samples, seed=seed,
                                  worker_count=1, equivalence_check=False)

    def start(self, seed):
        self.rng = random.Random(f"{self.name}:{seed}")
        self.first = None

    def next_input(self):
        return self._config(self.rng.randint(28, 36), self.rng.getrandbits(64))

    def execute(self, cfg):
        return cfg.sample_count, self.bf.run_scan(cfg)

    def check(self, cfg, result):
        if self.first is None:
            self.first = scan_summary(result)
        return check_scan_result(self.bf, result, cfg.sample_count)

    def records(self):
        return {}, {"first_call": self.first}


@dataclass(frozen=True)
class Query:
    n: int
    table: int
    d: int
    i: int
    oracle: bool


class QueryMix(Workload):
    """Single-function requests as the CLI's analyze, equiv and derivative make them."""

    name = "query-mix"
    unit = "request"
    op = "request"
    min_ops = 256
    oracle_share = 1 / 32

    def setup(self):
        import boolfun

        self.bf = boolfun
        for d in range(1, 12):
            boolfun.majority_profile(d)
        self.execute(Query(4, 0x6996, 3, 2, False))

    def start(self, seed):
        self.rng = random.Random(f"{self.name}:{seed}")
        self.prefix = hashlib.sha256()
        self.done = 0
        self.oracle_checked = 0

    def next_input(self):
        rng = self.rng
        n = rng.randint(2, 10)
        return Query(n, rng.getrandbits(1 << n), rng.randint(1, n + 1), rng.randint(1, n),
                     rng.random() < self.oracle_share)

    def execute(self, q):
        bf = self.bf
        f = bf.BooleanFunction(q.n, q.table)
        spectrum = bf.fwht(f)
        report = bf.check_conjecture(f)
        profile = bf.influence_profile(spectrum)
        preds = bf.equivalence_predicates(f, q.d)
        counted = bf.derivative_distribution_counted(f, q.i)
        spectral = bf.derivative_distribution_spectral(spectrum, q.i)
        return 1, (spectrum, report, profile, preds, counted, spectral)

    def kind(self, q):
        return q.n

    def check(self, q, out):
        spectrum, report, profile, preds, counted, spectral = out
        errors = []
        if counted != spectral:
            errors.append(f"derivative routes disagree at n={q.n} i={q.i}")
        if not preds.agreement:
            errors.append(f"equivalence predicates disagree at n={q.n} d={q.d}")
        if q.oracle:
            self.oracle_checked += 1
            errors += check_query(q.n, q.table, q.d, q.i, out)
        self.done += 1
        if self.done <= self.min_ops:
            line = [q.n, q.table, q.d, q.i, [int(c) for c in spectrum.coeffs],
                    report.degree, dy(report.linear_sum), dy(report.bound),
                    [dy(v) for v in profile.influences],
                    {k: [dy(a), dy(b)] for k, (a, b) in preds.sides.items()},
                    [dy(p) for p in counted.as_triple()]]
            self.prefix.update(json.dumps(line).encode())
        return errors

    def records(self):
        return {}, {"first_requests_sha256": self.prefix.hexdigest()}


class CliFanout(Workload):
    """Fresh ``python -m boolfun ... --json`` processes, one after another."""

    name = "cli-fanout"
    unit = "invocation"
    op = "invocation"
    traces_children = True
    block = min_ops = 7  # one pass of the script below
    samples = 1536
    equiv_d = ",".join(str(d) for d in range(1, 14))

    def setup(self):
        import boolfun.cli  # the import is the whole set-up cost

        self.bf = boolfun

    def start(self, seed):
        self.jobs = min(2, os.cpu_count() or 1)
        scan = ["scan", "--n", "12", "--mode", "random", "--samples", str(self.samples),
                "--seed", str(random.Random(f"{self.name}:{seed}").getrandbits(32)),
                "--chunk-size", "128", "--equiv-d", self.equiv_d]
        self.script = [
            ("analyze", ["analyze", "--fn", "maj:9", "--spectrum"]),
            ("equiv", ["equiv", "--fn", "maj:5", "--d", "20"]),
            ("maj", ["maj", "--d", "22"]),
            ("derivative", ["derivative", "--fn", "parity:10", "--i", "3"]),
            ("scan", ["scan", "--n", "4"]),
            ("scan_jobs1", scan + ["--jobs", "1"]),
            ("scan_jobsk", scan + ["--jobs", str(self.jobs)]),
        ]
        self.position = 0
        self.trace_dir = None
        self.trace_files = []
        self.payloads = {}

    def next_input(self):
        label, args = self.script[self.position % len(self.script)]
        self.position += 1
        if self.trace_dir is None:
            return label, [sys.executable, "-m", "boolfun", *args, "--json"]
        out = self.trace_dir / f"cli-{self.position}.json"
        self.trace_files.append(out)
        return label, [sys.executable, str(BENCH / "cli_traced.py"), str(out), *args, "--json"]

    def execute(self, inputs):
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        proc = subprocess.run(inputs[1], cwd=ROOT, env=env, capture_output=True, timeout=150)
        return 1, proc

    def kind(self, inputs):
        return inputs[0]

    def check(self, inputs, proc):
        label = inputs[0]
        if proc.returncode != 0:
            return [f"{label}: exit code {proc.returncode}: {proc.stderr.decode()[-300:]}"]
        doc = json.loads(proc.stdout)
        payload = doc["payload"]
        payload.pop("wall_time_seconds", None)
        errors = []
        if doc["command"] != dict(self.script)[label][0]:
            errors.append(f"{label}: command field is {doc['command']!r}")
        if label.startswith("scan_jobs"):
            errors += check_scan_payload(self.bf, payload, self.samples)
        first = self.payloads.setdefault(label.replace("jobsk", "jobs1"), payload)
        if payload != first:
            errors.append(f"{label}: payload differs from the first {label} run")
        return errors

    def records(self):
        fixed = {label: _digest(p) for label, p in self.payloads.items()
                 if not label.startswith("scan_jobs")}
        return fixed, {"scan_n12_sha256": _digest(self.payloads.get("scan_jobs1"))}


WORKLOADS = {w.name: w for w in (ExhaustiveN5, RandomN16, QueryMix, CliFanout)}
