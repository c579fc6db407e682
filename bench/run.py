"""Layered benchmark for boolfun.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py [--seconds S] [--trace 0|1]      # every workload

With ``--workload`` the last line of standard output is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``: the
end-to-end metrics of BENCHMARK.json untraced (``--trace 0``), or its
per-layer metrics from a traced run (``--trace 1``).  Without it, every
workload runs in its own process and a table of all metrics is printed.

The package is imported from ``src/`` next to this directory; nothing is
installed.  Each result is also appended, with a record of the machine and
source tree, to ``.bench_out/results.jsonl``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
DEFAULT_SEED = 0
SETUP_PROBES = 6

if not (SRC / "boolfun" / "__init__.py").is_file():
    sys.exit(f"error: no boolfun package under {SRC}; run from a full source checkout")
sys.path.insert(0, str(SRC))

from tracing import Tracer, merge_summaries  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

# per-layer metric -> (traced layer, counter); values are per unit of work
LAYER_METRICS = {
    "scan.unpack.calls": ("scan.unpack", "calls"),
    "scan.unpack.rows": ("scan.unpack", "rows"),
    "scan.unpack.self_s": ("scan.unpack", "self_s"),
    "scan.butterfly.calls": ("scan.butterfly", "calls"),
    "scan.butterfly.rows": ("scan.butterfly", "rows"),
    "scan.butterfly.self_s": ("scan.butterfly", "self_s"),
    "scan.butterfly.adds": ("scan.butterfly", "adds"),
    "scan.butterfly.bytes": ("scan.butterfly", "bytes"),
    "scan.accumulate.self_s": ("scan.accumulate", "self_s"),
    "scan.sample.calls": ("scan.sample", "calls"),
    "scan.sample.self_s": ("scan.sample", "self_s"),
    "scan.consts.calls": ("scan.consts", "calls"),
    "scan.consts.self_s": ("scan.consts", "self_s"),
    "scan.merge.calls": ("scan.merge", "calls"),
    "scan.merge.self_s": ("scan.merge", "self_s"),
    "scan.finalize.self_s": ("scan.finalize", "self_s"),
    "scan.entry.self_s": ("scan.entry", "self_s"),
    "majority.profile.calls": ("majority.profile", "calls"),
    "majority.profile.misses": ("majority.profile", "misses"),
    "majority.profile.cold_s": ("majority.profile", "cold_s"),
    "core.fwht.calls": ("core.fwht", "calls"),
    "core.fwht.self_s": ("core.fwht", "self_s"),
    "core.butterfly.calls": ("core.butterfly", "calls"),
    "core.butterfly.self_s": ("core.butterfly", "self_s"),
    "derivatives.counts.calls": ("derivatives.counts", "calls"),
    "derivatives.counts.self_s": ("derivatives.counts", "self_s"),
    "derivatives.influence.self_s": ("derivatives.influence", "self_s"),
    "conjecture.check.self_s": ("conjecture.check", "self_s"),
    "conjecture.equiv.self_s": ("conjecture.equiv", "self_s"),
    "dyadic.new.count": ("dyadic.new", "count"),
    "cli.main.self_s": ("cli.main", "self_s"),
    "other.self_s": ("op", "self_s"),
}
CLI_LABELS = ("analyze", "equiv", "maj", "derivative", "scan", "scan_jobs1", "scan_jobsk")
CLI_METRICS = (*(f"cli.{label}.p50_ms" for label in CLI_LABELS),
               "scan.fanout.jobs", "scan.fanout.efficiency")
UNITS = {
    **{f"cli.{label}.p50_ms": "ms" for label in CLI_LABELS},
    "scan.fanout.jobs": "count",
    "scan.fanout.efficiency": "ratio",
    "trace.untraced_ops_per_s": "1/s",
    "trace.traced_ops_per_s": "1/s",
    "trace.overhead_pct": "%",
}


def layer_unit(metric: str) -> str:
    if metric in UNITS:
        return UNITS[metric]
    if metric.endswith("_s"):
        return "s/op"
    if metric.endswith(".bytes"):
        return "B/op"
    return "count/op"


# -- measurement ------------------------------------------------------------------


class Phase:
    """Latencies, work and failures of one stretch of closed-loop operations."""

    def __init__(self):
        self.latencies: list[float] = []
        self.work: list[int] = []
        self.kinds: list = []
        self.failed = 0
        self.errors: list[str] = []

    def throughput(self) -> float:
        """Work per second with every op at its kind's median cost per unit of work.

        Total work over total time would count every burst from other tenants
        of a shared machine in full; a per-kind median, like op_p50_ms, is
        unmoved by bursts that hit fewer than half of a kind's ops.
        """
        costs = {}
        for kind, work, seconds in zip(self.kinds, self.work, self.latencies):
            costs.setdefault(kind, []).append(seconds / work)
        median_cost = {kind: statistics.median(c) for kind, c in costs.items()}
        return sum(self.work) / sum(w * median_cost[k] for k, w in zip(self.kinds, self.work))


def run_phase(wl, seconds: float, min_ops: int, tracer: Tracer | None = None,
              probes: list | None = None) -> Phase:
    """Closed loop for ``seconds`` that ends on a whole block of ops.

    With ``probes``, set-up probes run between ops, spread evenly over the
    phase so that their median sees the same machine conditions as the ops;
    their time does not count against the phase.
    """
    phase = Phase()
    deadline = time.perf_counter() + seconds
    next_probe = 0.0
    while (len(phase.latencies) < min_ops or len(phase.latencies) % wl.block
           or time.perf_counter() < deadline):
        if probes is not None and time.perf_counter() >= next_probe:
            begin = time.perf_counter()
            probes.append(probe_setup(wl.name))
            deadline += time.perf_counter() - begin
            next_probe = time.perf_counter() + seconds / SETUP_PROBES
        inputs = wl.next_input()
        if tracer is not None:
            tracer.resume()
            root = tracer.begin("op")
        start = time.perf_counter()
        try:
            work, output = wl.execute(inputs)
            failure = None
        except Exception as exc:  # a failed operation is counted, not fatal
            work, output, failure = 1, None, f"{type(exc).__name__}: {exc}"
        elapsed = time.perf_counter() - start
        if tracer is not None:
            tracer.end(root)
            tracer.pause()
        errors = [failure] if failure else wl.check(inputs, output)
        phase.latencies.append(elapsed)
        phase.work.append(work)
        phase.kinds.append(wl.kind(inputs))
        if errors:
            phase.failed += 1
            phase.errors += errors
    return phase


def probe_setup(name: str) -> float:
    """Seconds from starting a fresh interpreter to the end of the workload's set-up."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    start = time.perf_counter()
    with subprocess.Popen([sys.executable, str(BENCH / "probe.py"), name], cwd=ROOT, env=env,
                          stdout=subprocess.PIPE, text=True) as proc:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - start
        proc.stdout.read()
        if proc.wait(timeout=120) != 0 or line.strip() != "ready":
            raise RuntimeError(f"set-up probe for {name} failed")
    return elapsed


def percentile_with_tail(values: list[float], q: float, tail: int = 10):
    """Nearest-rank q-quantile and the count above it, or None if fewer than tail."""
    ordered = sorted(values)
    rank = math.ceil(q * len(ordered))
    beyond = len(ordered) - rank
    return (ordered[rank - 1], beyond) if rank >= 1 and beyond >= tail else None


def peak_rss_mb(wl) -> float:
    who = resource.RUSAGE_CHILDREN if wl.traces_children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024


def compare_records(wl, seed: int, record: bool) -> list[str]:
    path = BENCH / "expected.json"
    expected = json.loads(path.read_text()) if path.exists() else {}
    any_seed, default_seed = wl.records()
    if record:
        expected[wl.name] = {"any_seed": any_seed, "default_seed": default_seed}
        path.write_text(json.dumps(expected, indent=1, sort_keys=True) + "\n")
        return []
    want = expected.get(wl.name)
    if want is None:
        return [f"no recorded values for {wl.name} in {path.name}"]
    errors = [f"{key}: output differs from the recorded value"
              for key, value in want["any_seed"].items() if any_seed.get(key) != value]
    if seed == DEFAULT_SEED:
        errors += [f"{key}: output differs from the recorded value"
                   for key, value in want["default_seed"].items()
                   if default_seed.get(key) != value]
    return errors


# -- one workload -------------------------------------------------------------------


def layer_metrics(summary: dict, work: int) -> dict[str, float]:
    out = {}
    for metric, (layer, key) in LAYER_METRICS.items():
        if layer in summary:
            out[metric] = summary[layer].get(key, 0) / work
    return out


def cli_metrics(wl, phase: Phase) -> dict[str, float]:
    """Per-subcommand medians and fan-out efficiency from untraced CLI runs."""
    by_label = {label: [] for label in CLI_LABELS}
    for label, seconds in zip(phase.kinds, phase.latencies):
        if label in by_label:
            by_label[label].append(seconds)
    out = {f"cli.{label}.p50_ms": 1e3 * statistics.median(v) if v else 0.0
           for label, v in by_label.items()}
    out["scan.fanout.jobs"] = wl.jobs
    pairs = list(zip(by_label["scan_jobs1"], by_label["scan_jobsk"]))
    if wl.jobs >= 2:
        # one worker's time over k workers' time, per paired run
        out["scan.fanout.efficiency"] = statistics.median(t1 / (wl.jobs * tk) for t1, tk in pairs)
    return out


def run_traced(wl, seconds: float, seed: int) -> tuple[Phase, dict]:
    """A traced phase and the per-layer summary of everything it ran."""
    OUT.mkdir(exist_ok=True)
    if not wl.traces_children:
        tracer = Tracer()
        tracer.install()
        phase = run_phase(wl, seconds, wl.block, tracer)
        tracer.uninstall()
        tracer.write_spans(OUT / f"spans-{wl.name}-seed{seed}.tsv.gz")
        return phase, tracer.summary()
    wl.trace_dir = OUT
    phase = run_phase(wl, seconds, wl.block)
    summaries = []
    for path in wl.trace_files:
        if path.exists():
            summaries.append(json.loads(path.read_text()))
            path.unlink()
    summary = merge_summaries(summaries)
    # outside every traced layer: interpreter start, imports, exit
    inside = sum(v.get("self_s", 0) for v in summary.values())
    summary["op"] = {"calls": len(phase.latencies), "self_s": sum(phase.latencies) - inside}
    return phase, summary


def run_workload(name: str, seed: int, seconds: float, trace: bool, record: bool = False):
    wl = WORKLOADS[name]()
    wl.setup()
    wl.start(seed)
    setups = []
    if trace:
        # untraced then traced halves; their throughput ratio is the overhead
        untraced = run_phase(wl, seconds / 2, wl.min_ops)
        traced, summary = run_traced(wl, seconds / 2, seed)
        phases = [untraced, traced]
        values = layer_metrics(summary, sum(traced.work))
        values.update(cli_metrics(wl, untraced) if wl.traces_children else
                      dict.fromkeys(CLI_METRICS, 0.0))
        plain, slowed = untraced.throughput(), traced.throughput()
        values["trace.untraced_ops_per_s"] = plain
        values["trace.traced_ops_per_s"] = slowed
        values["trace.overhead_pct"] = 100 * (plain - slowed) / plain
        metrics = {m: (v, layer_unit(m)) for m, v in values.items()}
    else:
        phases = [run_phase(wl, seconds, wl.min_ops, probes=setups)]
        setups += [probe_setup(name) for _ in range(SETUP_PROBES - len(setups))]
        metrics = {
            "ops_per_s": (phases[0].throughput(), "1/s"),
            "op_p50_ms": (1e3 * statistics.median(phases[0].latencies), "ms"),
            "setup_s": (statistics.median(setups), "s"),
            "peak_rss_mb": (peak_rss_mb(wl), "MB"),
        }
    errors = [e for p in phases for e in p.errors]
    final = wl.finish() + compare_records(wl, seed, record)
    errors += final
    attempted = sum(len(p.latencies) for p in phases)
    failed = min(attempted, sum(p.failed for p in phases) + (1 if final else 0))
    tail = percentile_with_tail(phases[0].latencies, 0.99)
    detail = {
        "error_rate": failed / attempted,
        "op_p99_ms": None if tail is None else 1e3 * tail[0],
        "latency_samples": len(phases[0].latencies),
        "samples_beyond_p99": None if tail is None else tail[1],
        "setup_probes_s": setups,
        "unit": wl.unit,
        "op": wl.op,
    }
    return {
        "correct": not errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }, detail, errors


# -- machine record -----------------------------------------------------------------


def machine_record() -> dict:
    import numpy

    sha = "unknown"
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30)
        sha = proc.stdout.strip() or sha
    tree = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        tree.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh
                       if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return {
        "git_sha": sha,
        "src_sha256": tree.hexdigest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
    }


# -- entry points -------------------------------------------------------------------


def main_one(args) -> int:
    result, detail, errors = run_workload(args.workload, args.seed, args.seconds,
                                          bool(args.trace), args.record)
    machine = machine_record()
    for err in errors[:20]:
        print(f"error: {err}", file=sys.stderr)
    OUT.mkdir(exist_ok=True)
    with open(OUT / "results.jsonl", "a") as fh:
        fh.write(json.dumps({
            "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "time": time.time(), "machine": machine,
            "detail": detail, "result": result}) + "\n")
    print("machine: " + json.dumps(machine, sort_keys=True))
    print("detail: " + json.dumps(detail, sort_keys=True))
    print(json.dumps(result))
    return 0


def main_all(args) -> int:
    ok = True
    rows = []
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"{name}: failed (exit {proc.returncode})\n{proc.stderr}", file=sys.stderr)
            ok = False
            continue
        result = json.loads(lines[-1])
        detail = json.loads(next(l for l in lines if l.startswith("detail: "))[8:])
        ok = ok and result["correct"]
        rows.append((name, result, detail))
    for name, result, detail in rows:
        print(f"== {name}  (work unit: {detail['unit']}; op: {detail['op']}; "
              f"correct={result['correct']}, attempted={result['attempted']}, "
              f"failed={result['failed']})")
        for metric, m in result["metrics"].items():
            print(f"   {metric:32s} {m['value']:>14.6g} {m['unit']}")
        print(f"   {'error_rate':32s} {detail['error_rate']:>14.6g} ratio")
        if detail["op_p99_ms"] is not None:
            print(f"   {'op_p99_ms':32s} {detail['op_p99_ms']:>14.6g} ms  "
                  f"({detail['latency_samples']} samples, {detail['samples_beyond_p99']} beyond)")
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", action="store_true",
                        help=f"store this run's exact outputs in expected.json "
                             f"(seed {DEFAULT_SEED} only)")
    args = parser.parse_args(argv)
    if args.record and (args.workload is None or args.seed != DEFAULT_SEED):
        parser.error(f"--record needs --workload and --seed {DEFAULT_SEED}")
    return main_one(args) if args.workload else main_all(args)


if __name__ == "__main__":
    sys.exit(main())
