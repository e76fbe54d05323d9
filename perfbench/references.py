"""Record the reference output digests that every op is checked against.

    python3 perfbench/references.py --seeds 0-49

For each workload and seed, runs one op, checks its outputs, and stores
the digest of its policy file, trace and CLI stdout in
``reference_digests.json``. Re-record only when an output is meant to
change; a run on a seed without a stored digest uses its warm-up op's.
"""

from __future__ import annotations

import argparse
import json
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import workloads  # noqa: E402


def seed_range(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=seed_range, required=True, help="e.g. 0-49")
    parser.add_argument("--workload", action="append", help="default: every workload")
    args = parser.parse_args(argv)
    path = HERE / "reference_digests.json"
    table = json.loads(path.read_text(encoding="utf-8"))
    for name in args.workload or sorted(workloads.WORKLOADS):
        w = workloads.WORKLOADS[name]
        for seed in args.seeds:
            (HERE / "_work").mkdir(exist_ok=True)
            with tempfile.TemporaryDirectory(dir=HERE / "_work") as tmp:
                inp = w.setup(seed, Path(tmp))
                out = w.op(inp)
                failures = w.check(inp, out)
                if failures:
                    print(f"{name} seed {seed}: not recorded, checks failed: {failures}", file=sys.stderr)
                    return 1
                table.setdefault(name, {})[str(seed)] = w.digest(inp, out)
            print(f"{name} seed {seed}: {table[name][str(seed)][:16]}", flush=True)
            path.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
