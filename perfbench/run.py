"""Benchmark of the scanplan planning pipeline.

    python3 perfbench/run.py --workload broker96k --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20

Run from the repository root. One run sets the workload up, then runs its
op in a closed loop with one client for ``--seconds`` and checks every op's
outputs. A fixed machine-speed probe (``speed.py``) runs between ops, and
every op's wall seconds are scaled to the reference speed by the probes
before and after it. With ``--trace 0`` it reports the end-to-end metrics of
BENCHMARK.json; with ``--trace 1`` it alternates untraced and traced ops
and reports the per-layer metrics. The last line of standard output is a
JSON object ``{"correct", "attempted", "failed", "metrics"}``; the line
before it holds the samples, failures and provenance. The exit code is 1
when any check failed. ``--workload all`` runs every workload in turn and
prints one row per metric.

All load comes from this one process; BLAS/OpenMP pools are held to one
thread. ``setup_s`` is the median of ``SETUP_REPS`` cold set-ups, each
scaled to the reference speed: the first in this process, the others one
after another in child processes (``--setup-only``), because only a fresh
interpreter pays the import costs again.
"""

from __future__ import annotations

import os

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in THREAD_VARS:  # before anything imports numpy
    os.environ[_var] = "1"

import argparse
import gc
import hashlib
import json
import math
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = HERE / "_work"
SETUP_REPS = 3
SUBPROCESS_TIMEOUT_S = 60
TAIL_BEYOND = 10  # samples beyond the reported tail percentile

for _path in (str(ROOT / "src"), str(HERE)):
    if _path not in sys.path:
        sys.path.insert(0, _path)

import speed  # noqa: E402


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def reference_digests(workload: str) -> dict:
    table = json.loads((HERE / "reference_digests.json").read_text(encoding="utf-8"))
    return table.get(workload, {})


class Run:
    """Set-up state and counters of one benchmark run."""

    def __init__(self, workload_name: str, seed: int, small: bool = False):
        self.name = workload_name
        self.seed = seed
        self.small = small
        self.workdir = WORK / f"{workload_name}-{os.getpid()}"
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.samples: list[float] = []  # scaled op seconds
        self.walls: list[float] = []  # wall op seconds
        self.probes: list[float] = []  # probe seconds, one before the first op and one after each
        self.reference = None
        self.reference_source = None

    def setup(self) -> float:
        """Import scanplan, generate the inputs and run one warm-up op;
        return those seconds. The warm-up op is checked afterwards and
        fixes the reference digest when none is stored for this seed."""
        start = time.perf_counter()
        import workloads

        self.workload = workloads.WORKLOADS[self.name]
        self.workdir.mkdir(parents=True, exist_ok=True)
        self.inputs = self.workload.setup(self.seed, self.workdir, self.small)
        out = self.workload.op(self.inputs)
        seconds = time.perf_counter() - start
        stored = None if self.small else reference_digests(self.name).get(str(self.seed))
        digest = self.workload.digest(self.inputs, out)
        self.reference, self.reference_source = (stored, "stored") if stored else (digest, "warm-up")
        self._record(self.workload.check(self.inputs, out), digest, "warm-up op")
        if self.workload.once is not None:
            self._record(self.workload.once(self.inputs, out), self.reference, "set-up check")
        return seconds

    def _record(self, problems: list[str], digest: str, label: str) -> bool:
        if digest != self.reference:
            problems = problems + [f"output digest {digest[:16]} != reference {self.reference[:16]}"]
        self.failures += [f"{label}: {p}" for p in problems]
        return not problems

    def op(self, tracer=None) -> float | None:
        """One checked op; its wall seconds, or None when it failed."""
        gc.collect()  # every op starts from the same heap, not the last op's garbage
        self.attempted += 1
        label = f"op {self.attempted}"
        try:
            start = time.perf_counter()
            if tracer is None:
                out = self.workload.op(self.inputs)
            else:
                with tracer.root("op"):
                    out = self.workload.op(self.inputs)
            seconds = time.perf_counter() - start
            ok = self._record(self.workload.check(self.inputs, out), self.workload.digest(self.inputs, out), label)
        except Exception as exc:  # a failed op is counted, and the run goes on
            self.failures.append(f"{label}: raised {exc!r}")
            ok = False
        if not ok:
            self.failed += 1
            return None
        return seconds

    def scaled_op(self, tracer=None) -> tuple[float, float] | None:
        """One checked op between two speed probes; (wall seconds, seconds
        at the reference speed), or None when it failed. The probe after an
        op is the one before the next."""
        if not self.probes:
            self.probes.append(speed.probe())
        before = self.probes[-1]
        seconds = self.op(tracer)
        self.probes.append(speed.probe())
        if seconds is None:
            return None
        return seconds, speed.scale(seconds, (before + self.probes[-1]) / 2)

    def cleanup(self) -> None:
        for path in sorted(self.workdir.glob("*")):
            path.unlink()
        self.workdir.rmdir()


def tail(samples: list[float]) -> dict | None:
    """The highest percentile with TAIL_BEYOND samples beyond it, once the
    run holds enough samples for it to lie above the median."""
    if len(samples) <= 2 * TAIL_BEYOND:
        return None
    ordered = sorted(samples)
    index = len(ordered) - TAIL_BEYOND - 1
    return {"value": ordered[index], "percentile": round(100 * (index + 1) / len(ordered), 2)}


def median(samples: list[float]) -> float:
    return statistics.median(samples) if samples else math.nan


def git_commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text(encoding="utf-8").strip()
    if not ref.startswith("ref: "):
        return ref
    ref_file = ROOT / ".git" / ref[5:]
    if ref_file.is_file():
        return ref_file.read_text(encoding="utf-8").strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return None


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def provenance(seed: int) -> dict:
    import numpy
    import scipy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "thread_env": {var: os.environ.get(var) for var in THREAD_VARS},
        "seed": seed,
        "git_commit": git_commit(),
        "source_sha256": source_digest(),
    }


def child_setup(workload: str, seed: int) -> tuple[float | None, float | None, list[str]]:
    """One cold set-up in a fresh interpreter; (seconds, seconds of a probe
    the child runs right after it, failures)."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
           "--seed", str(seed), "--setup-only"]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=SUBPROCESS_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return None, None, ["child set-up timed out"]
    if proc.returncode != 0:
        return None, None, [f"child set-up exited {proc.returncode}: {proc.stderr.strip()[-400:]}"]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    return result["setup_s"], result["probe_s"], result["failures"]


def run_workload(args, spec: dict) -> int:
    run = Run(args.workload, args.seed)
    if args.setup_only:
        seconds = run.setup()
        run.cleanup()
        print(json.dumps({"setup_s": seconds, "probe_s": speed.probe(), "failures": run.failures}))
        return 0

    # The set-up in this process comes first, while it is still cold; its
    # probe can only follow it. Each child set-up is scaled by the mean of
    # a probe here just before it and one in the child just after it.
    seconds = run.setup()
    setup_walls, setup_probes = [seconds], [speed.probe()]
    for _ in range(0 if args.trace else SETUP_REPS - 1):
        before = speed.probe()
        seconds, after, failures = child_setup(args.workload, args.seed)
        run.failures += failures
        if seconds is not None:
            setup_walls.append(seconds)
            setup_probes.append((before + after) / 2)
    setup_samples = [speed.scale(s, p) for s, p in zip(setup_walls, setup_probes)]
    tracer = None
    if args.trace:
        import tracing  # after set-up: it imports numpy, which set-up must pay for

        tracer = tracing.Tracer()

    traced_samples, traced_walls = [], []
    deadline = time.perf_counter() + args.seconds
    while True:
        timed = run.scaled_op()
        if timed is not None:
            run.walls.append(timed[0])
            run.samples.append(timed[1])
        if tracer is not None:
            with tracing.patched(tracer):
                timed = run.scaled_op(tracer)
            if timed is not None:
                traced_walls.append(timed[0])
                traced_samples.append(timed[1])
        if time.perf_counter() >= deadline:
            break
    run.cleanup()

    detail = {
        "workload": args.workload,
        "seconds": args.seconds,
        "trace": args.trace,
        "ops": run.attempted,
        "error_rate": run.failed / run.attempted,
        "op_s": run.samples,
        "op_wall_s": run.walls,
        "probe_s": run.probes,
        "probe_reference_s": speed.REFERENCE_S,
        "reference_digest": run.reference_source,
        "failures": run.failures[:20],
        "provenance": provenance(args.seed),
    }
    metrics = {}
    if not args.trace:
        detail["setup_s"] = setup_samples
        detail["setup_wall_s"] = setup_walls
        detail["setup_probe_s"] = setup_probes
        if tail(run.samples):
            detail["op_tail_s"] = tail(run.samples)
        values = {
            "op_s": median(run.samples),
            "setup_s": median(setup_samples),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        declared = spec["end_to_end"]
    else:
        per_op = [tracing.root_metrics(spans) for spans in tracer.roots]
        values = {name: statistics.median(m[name] for m in per_op) for name in per_op[0]} if per_op else {}
        values["trace.overhead_ratio"] = median(traced_samples) / median(run.samples)
        detail["traced_op_s"] = traced_samples
        detail["traced_op_wall_s"] = traced_walls
        detail["layer_self_share"] = {
            layer: values.get(f"{layer}.self_s", math.nan) / median(traced_walls) for layer in tracing.LAYERS
        }
        WORK.mkdir(exist_ok=True)
        tracer.dump(WORK / f"spans-{args.workload}-seed{args.seed}.jsonl")
        declared = spec["per_layer"]
    for m in declared:  # a metric without a finite value is left out, and the run is not correct
        if math.isfinite(values.get(m["name"], math.nan)):
            metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
    correct = run.failed == 0 and not run.failures and len(metrics) == len(declared)
    print(json.dumps({"detail": detail}))
    print(json.dumps({"correct": correct, "attempted": run.attempted, "failed": run.failed, "metrics": metrics}))
    return 0 if correct else 1


def run_all(args, spec: dict) -> int:
    """Every workload in turn, each in its own process; one row per metric."""
    status = 0
    for w in spec["workloads"]:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", w["name"], "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or len(lines) < 2:
            status = 1
            print(f"{w['name']}: FAILED (exit {proc.returncode}) {proc.stderr.strip()[-400:]}")
            if len(lines) < 2:
                continue
        detail, result = json.loads(lines[-2])["detail"], json.loads(lines[-1])
        print(f"{w['name']}: correct={result['correct']} ops={result['attempted']} failed={result['failed']}")
        for name, m in result["metrics"].items():
            n = ""
            if name in ("op_s", "setup_s"):
                n = f"  (n={len(detail[name])})"
            print(f"  {name:32s} {m['value']:>14.6g} {m['unit']}{n}")
        if not args.trace:
            print(f"  {'error_rate':32s} {detail['error_rate']:>14.6g} ratio  (n={detail['ops']})")
            if "op_tail_s" in detail:
                tail = detail["op_tail_s"]
                print(f"  {'op_tail_s':32s} {tail['value']:>14.6g} s  (p{tail['percentile']})")
        for failure in detail["failures"]:
            print(f"  failure: {failure}")
        if not result["correct"]:
            status = 1
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, help="a workload of BENCHMARK.json, or 'all'")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=None, help="default: run_seconds of BENCHMARK.json")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "scanplan" / "__init__.py").is_file():
        print(f"error: no scanplan sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = load_spec()
    if args.seconds is None:
        args.seconds = spec["run_seconds"]
    if args.workload == "all":
        return run_all(args, spec)
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    return run_workload(args, spec)


if __name__ == "__main__":
    sys.exit(main())
