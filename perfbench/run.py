"""voacert benchmark: one workload per process, closed loop, one op in flight.

Usage, from the repository root:

    python3 perfbench/run.py --workload axioms --seed 1 --seconds 30 --trace 0

--trace 0 measures the end-to-end metrics with tracing off.  --trace 1 runs
one round untraced, then the same round with every voacert layer boundary
wrapped, and prints the per-layer metrics, the tracing overhead and the
share of wall time no top-level span accounts for.  --workload all runs
each workload in its own process, one after another.  The last line of
standard output is always one JSON object: {"correct", "attempted",
"failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

# one op in flight and no helper threads: keep BLAS single-threaded
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(1, str(Path(__file__).resolve().parent))

import numpy  # noqa: E402

try:
    import voacert  # noqa: E402
except ImportError as exc:
    sys.exit(f"cannot import voacert from {ROOT / 'src'}: {exc}")
if Path(voacert.__file__).resolve().parent != ROOT / "src" / "voacert":
    sys.exit(f"voacert imported from {voacert.__file__}, not from src/")

from voacert.scalars import Q  # noqa: E402

import spans  # noqa: E402
import speed  # noqa: E402
import workloads  # noqa: E402


def log(msg: str):
    print(f"# {msg}", flush=True)


# -- environment ------------------------------------------------------------


def _git_commit() -> str:
    """HEAD commit read from .git without running git, or "unknown"."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment() -> dict:
    src = ROOT / "src" / "voacert"
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "backend": Q.__module__,
        "commit": _git_commit(),
        "src_lines": sum(len(p.read_text().splitlines())
                         for p in sorted(src.glob("*.py"))),
        "loadavg_start": os.getloadavg()[0],
    }


# -- measurement ------------------------------------------------------------


@dataclass
class Round:
    """One fresh round; times are seconds at the probe's reference speed."""

    setup_s: float
    wall_s: float
    raw_setup_s: float
    raw_wall_s: float  # measured, probe time excluded
    out: workloads.Outcome
    window: tuple  # (first op starts, last verdict), perf_counter time


def timed_setup(workload, seed: int, meter):
    """(plan, reference-speed s, measured s) of one set-up."""
    gc.collect()  # models of earlier rounds hold reference cycles
    meter.probe()
    plan = workload.setup(seed)
    meter.probe()
    start, end = meter.ends[-2], meter.starts[-1]
    return plan, meter.scaled(start, end), end - start


def run_round(workload, seed: int) -> Round:
    out = workloads.Outcome()
    meter = out.meter
    plan, setup_s, raw_setup_s = timed_setup(workload, seed, meter)
    start = meter.ends[-1]
    try:
        workload.ops(plan, seed, out)
    except Exception as exc:  # a crash mid-round is one more failed op
        out.verdict(False, f"round raised {exc!r}")
    meter.probe()
    end = meter.starts[-1]
    workload.cleanup(plan)
    return Round(setup_s, meter.scaled_span(start, end), raw_setup_s,
                 end - start - meter.probe_time(start, end), out,
                 (start, end))


def percentile(values, share: float) -> float:
    """Nearest-rank percentile of a non-empty list."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * share // 1))
    return ordered[int(rank) - 1]


def typical_round(walls, latencies):
    """(wall s, per-op latencies) of a typical round.

    Rounds repeat the same ops on fresh models, so each op's latency is the
    median of its repetitions, and wall time is the sum of those plus the
    median time a round spent between ops.
    """
    per_op = [statistics.median(reps) for reps in zip(*latencies)]
    between = statistics.median(w - sum(lat)
                                for w, lat in zip(walls, latencies))
    return sum(per_op) + between, per_op


def timed_run(workload, seed: int, seconds: float):
    rounds, setups, raw_setups = [], [], []

    def sample_setups():
        """Extra set-ups, so set-up time is sampled all through the run."""
        for _ in range(workload.setup_samples):
            plan, scaled, raw = timed_setup(workload, seed,
                                            speed.SpeedMeter())
            workload.cleanup(plan)
            setups.append(scaled)
            raw_setups.append(raw)

    begin = time.perf_counter()
    while True:
        sample_setups()
        rnd = run_round(workload, seed)
        rounds.append(rnd)
        setups.append(rnd.setup_s)
        raw_setups.append(rnd.raw_setup_s)
        elapsed = time.perf_counter() - begin
        raw_walls = [r.raw_wall_s for r in rounds]
        if len(rounds) >= workload.min_rounds and elapsed + \
                statistics.median(raw_walls) + rnd.raw_setup_s > seconds:
            break
    sample_setups()
    walls = [r.wall_s for r in rounds]
    latencies = [r.out.latencies for r in rounds]
    attempted = sum(r.out.attempted for r in rounds)
    failed = sum(r.out.failed for r in rounds)
    problems = [p for r in rounds for p in r.out.problems]
    if len({len(lat) for lat in latencies}) != 1:
        failed += 1
        problems.append("rounds ran different numbers of ops")
        wall, per_op = statistics.median(walls), sum(latencies, [])
    else:
        wall, per_op = typical_round(walls, latencies)
    log(f"rounds={len(rounds)} ops/round={len(latencies[0])} "
        f"measured={elapsed:.2f}s")
    log(f"measured wall_s per round {[round(w, 3) for w in raw_walls]}, "
        f"at reference speed {[round(w, 3) for w in walls]}")
    log(f"measured setup_s median {statistics.median(raw_setups):.4f}")
    log(f"error_rate={failed / attempted:.6g} ({failed}/{attempted})")
    for text in problems[:5]:
        log(f"FAILED: {text}")
    log(f"op_p99_ms over {len(per_op)} ops, "
        f"{len(per_op) - int(0.99 * len(per_op))} at or beyond it")
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "wall_s": (wall, "s"),
        "op_p50_ms": (1e3 * statistics.median(per_op), "ms"),
        "op_p99_ms": (1e3 * percentile(per_op, 0.99), "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                        / 1024.0, "MB"),
    }
    detail = {"walls": walls, "raw_walls": raw_walls, "setups": setups,
              "raw_setups": raw_setups, "latencies": latencies,
              "raw_latencies": [[b - a for a, b in r.out.op_windows]
                                for r in rounds]}
    return metrics, attempted, failed, detail


def traced_run(workload, seed: int, sidecar: Path):
    plain = run_round(workload, seed)
    tracer = spans.Tracer()
    patches = spans.install(tracer)
    try:
        traced = run_round(workload, seed)
    finally:
        patches.remove()
    same = traced.out.digest == plain.out.digest
    log(f"traced outputs {'match' if same else 'DIFFER FROM'} the untraced "
        f"run (sha256 {traced.out.digest[:16]} vs {plain.out.digest[:16]})")
    attempted = plain.out.attempted + traced.out.attempted + 1
    failed = plain.out.failed + traced.out.failed + (0 if same else 1)
    metrics = spans.layer_metrics(tracer)
    top = tracer.top_level_s(*traced.window)
    raw = traced.raw_wall_s
    metrics["trace.overhead_s"] = (traced.wall_s - plain.wall_s, "s")
    metrics["trace.unaccounted_share"] = ((raw - top) / raw, "fraction")
    log(f"wall_s untraced {plain.wall_s:.3f}, traced {traced.wall_s:.3f} "
        f"(reference speed); measured traced {raw:.3f}s, top-level spans "
        f"{top:.3f}s without probes, {len(tracer.span_start)} spans")
    tracer.write_sidecar(str(sidecar), {"workload": workload.name,
                                        "seed": seed,
                                        "ops_window": traced.window})
    log(f"spans written to {sidecar.relative_to(ROOT)}")
    return metrics, attempted, failed, {}


def run_all(args) -> int:
    """Each workload in a fresh process; prints their result lines."""
    code, lines = 0, {}
    for name in workloads.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed",
             str(args.seed), "--seconds", str(args.seconds), "--trace",
             str(args.trace)], cwd=ROOT, capture_output=True, text=True)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        code = code or proc.returncode
        lines[name] = json.loads(proc.stdout.strip().splitlines()[-1]) \
            if proc.returncode == 0 else None
    ok = code == 0 and all(r["correct"] for r in lines.values())
    print(json.dumps({"correct": ok,
                      "attempted": sum(r["attempted"] for r in lines.values()
                                       if r),
                      "failed": sum(r["failed"] for r in lines.values() if r),
                      "metrics": {f"{w}.{k}": v for w, r in lines.items()
                                  if r for k, v in r["metrics"].items()}}))
    return code


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)

    env = environment()
    log("env " + json.dumps(env, sort_keys=True))
    if not workloads.corrupted_model_flagged():
        print("SELF-TEST FAILED: the axioms checker did not flag the "
              "corrupted heisenberg(1,6) model", file=sys.stderr)
        return 3
    log("self-test: the axioms checker flags the corrupted model")

    workload = workloads.WORKLOADS[args.workload]
    workloads.OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if args.trace:
        metrics, attempted, failed, detail = traced_run(
            workload, args.seed, workloads.OUT / f"{stem}.spans.json.gz")
    else:
        metrics, attempted, failed, detail = timed_run(
            workload, args.seed, args.seconds)
    env["loadavg_end"] = os.getloadavg()[0]
    for name, (value, unit) in metrics.items():
        log(f"{name} = {value:.6g} {unit}")
    result = {"correct": failed == 0, "attempted": attempted,
              "failed": failed,
              "metrics": {name: {"value": value, "unit": unit}
                          for name, (value, unit) in metrics.items()}}
    with open(workloads.OUT / f"{stem}.json", "w") as fh:
        json.dump({"workload": args.workload, "seed": args.seed,
                   "seconds": args.seconds, "env": env, "detail": detail,
                   **result}, fh, indent=1, sort_keys=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
