"""Compare a parent commit with a change on the benchmark's end-to-end metrics.

    python3 perfbench/compare.py --parent ../parent --change . --pairs 10 --out pairs.jsonl
    python3 perfbench/compare.py --results pairs.jsonl

The first form runs every workload in pairs of runs, one on each checkout
with the same seed, alternating which side runs first, and appends every
run to ``--out``; the second reads such a file. Both then print a verdict
for each (workload, end-to-end metric) and list every run made.

Verdicts follow the rule the benchmark was built for. A metric is
``improved`` when the change wins at least 9 of 10 pairs (ties count for
neither), its median beats the parent's by more than the parent's own
quartile spread, and no more ops failed than at the parent. Otherwise it
is ``unresolved`` when either side's quartile spread, as a share of its
median, is wider than the metric's bound, unless every run of the change
reads better than every run of the parent; ``regressed`` when the change's
median is worse than the parent's by more than the bound; else
``unchanged``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
WIN_SHARE = 0.9


def benchmark_digest(checkout: Path) -> str:
    """Digest of the benchmark's own files; both sides must run the same."""
    h = hashlib.sha256((checkout / "BENCHMARK.json").read_bytes())
    for path in sorted((checkout / "perfbench").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def run_once(checkout: Path, workload: str, seed: int) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        result = {"correct": False, "attempted": 0, "failed": 0, "metrics": {}}
    return {"exit": proc.returncode, **result}


def run_pairs(parent: Path, change: Path, spec: dict, pairs: int, first_seed: int, out: Path) -> list[dict]:
    if benchmark_digest(parent) != benchmark_digest(change):
        raise SystemExit("error: the two checkouts hold different benchmark code")
    records = []
    with open(out, "a", encoding="utf-8") as fh:
        for w in spec["workloads"]:
            for i in range(pairs):
                seed = first_seed + i
                order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
                for position, side in enumerate(order):
                    record = {
                        "workload": w["name"], "pair": i, "seed": seed, "side": side, "position": position,
                        **run_once(parent if side == "parent" else change, w["name"], seed),
                    }
                    fh.write(json.dumps(record) + "\n")
                    fh.flush()
                    records.append(record)
    return records


def verdict(parent: list[float], change: list[float], bound: float, lower_is_better: bool,
            failed_parent: int, failed_change: int) -> tuple[str, dict]:
    def better(a, b):
        return a < b if lower_is_better else a > b

    n = len(parent)
    if n < 2:
        return "unresolved", {"pairs": n}
    pq, cq = statistics.quantiles(parent, n=4), statistics.quantiles(change, n=4)
    pm, cm = statistics.median(parent), statistics.median(change)
    wins = sum(better(c, p) for p, c in zip(parent, change))
    gain = pm - cm if lower_is_better else cm - pm
    spread = max((pq[2] - pq[0]) / pm, (cq[2] - cq[0]) / cm)
    all_better = all(better(c, p) for c in change for p in parent)
    stats = {
        "pairs": n, "wins": wins, "parent": [pq[0], pm, pq[2]], "change": [cq[0], cm, cq[2]],
        "spread": spread, "bound": bound,
    }
    if gain > 0 and wins >= WIN_SHARE * n and gain > pq[2] - pq[0] and failed_change <= failed_parent:
        return "improved", stats
    if spread > bound and not all_better:
        return "unresolved", stats
    if -gain > bound * pm:
        return "regressed", stats
    return "unchanged", stats


def report(records: list[dict], spec: dict) -> int:
    print("workload        metric         parent q1/median/q3                change q1/median/q3"
          "                wins   verdict")
    for w in spec["workloads"]:
        runs = {(r["pair"], r["side"]): r for r in records if r["workload"] == w["name"]}
        pair_ids = sorted({p for p, side in runs if (p, "parent") in runs and (p, "change") in runs})
        failed = {
            side: sum(runs[p, side]["failed"] + (not runs[p, side]["correct"]) for p in pair_ids)
            for side in ("parent", "change")
        }
        for m in spec["end_to_end"]:
            values = {
                side: [runs[p, side]["metrics"].get(m["name"], {}).get("value", float("nan")) for p in pair_ids]
                for side in ("parent", "change")
            }
            name, stats = verdict(values["parent"], values["change"], m["bound"], m["better"] == "lower",
                                  failed["parent"], failed["change"])
            if "parent" in stats:
                p, c = stats["parent"], stats["change"]
                print(f"{w['name']:15s} {m['name']:14s} {p[0]:.4g}/{p[1]:.4g}/{p[2]:.4g} {m['unit']:<16s}"
                      f" {c[0]:.4g}/{c[1]:.4g}/{c[2]:.4g} {m['unit']:<16s}"
                      f" {stats['wins']}/{stats['pairs']:<4} {name}")
            else:
                print(f"{w['name']:15s} {m['name']:14s} (fewer than two complete pairs) {name}")
        if failed["change"] or failed["parent"]:
            print(f"{w['name']:15s} failed ops or runs: parent {failed['parent']}, change {failed['change']}")
    print("\nevery run:")
    for r in records:
        values = " ".join(f"{k}={v['value']:.6g}" for k, v in r["metrics"].items())
        print(f"  {r['workload']:15s} pair {r['pair']:2d} seed {r['seed']:4d} {r['side']:6s} "
              f"(ran {'first' if r['position'] == 0 else 'second'}) exit {r['exit']} correct {r['correct']} "
              f"ops {r['attempted']} failed {r['failed']} {values}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", type=Path, help="checkout of the parent commit")
    parser.add_argument("--change", type=Path, help="checkout of the change")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1000)
    parser.add_argument("--out", type=Path, help="JSON-lines file the runs are appended to")
    parser.add_argument("--results", type=Path, help="read runs from this file instead of running")
    args = parser.parse_args(argv)
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    if args.results:
        lines = args.results.read_text(encoding="utf-8").splitlines()
        records = [json.loads(line) for line in lines if line.strip()]
    elif args.parent and args.change and args.out:
        records = run_pairs(args.parent, args.change, spec, args.pairs, args.first_seed, args.out)
    else:
        parser.error("give --results, or --parent, --change and --out")
    return report(records, spec)


if __name__ == "__main__":
    sys.exit(main())
