"""Smoke tests of the benchmark itself, at tiny sizes.

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import re
import sys
from dataclasses import replace
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import compare  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))


def _small_inputs(name, seed, workdir):
    workdir.mkdir(parents=True, exist_ok=True)
    inp = workloads.WORKLOADS[name].setup(seed, workdir, small=True)
    if name == "fixture_cli":
        files = {p.name: p.read_text(encoding="utf-8") for p in sorted(workdir.iterdir())}
        return inp.commands, files
    return inp


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_seed_changes_the_inputs_and_nothing_else(name, tmp_path):
    a = _small_inputs(name, 1, tmp_path / "a")
    again = _small_inputs(name, 1, tmp_path / "a")
    b = _small_inputs(name, 2, tmp_path / "a")
    assert a == again
    assert a != b
    if name == "fixture_cli":
        assert a[0] == b[0]  # the same commands on the same paths
        assert a[1].keys() == b[1].keys()
    else:
        assert a.text != b.text
        assert a.config.ground_truth_closures != b.config.ground_truth_closures
        same = replace(b, text=a.text, config=replace(b.config, ground_truth_closures=a.config.ground_truth_closures))
        assert same == a


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_small_run_passes_every_check(name):
    r = run.Run(name, seed=3, small=True)
    try:
        r.setup()
        wall, scaled = r.scaled_op()
    finally:
        r.cleanup()
    assert r.failures == []
    assert (r.attempted, r.failed) == (1, 0)
    assert len(r.probes) == 2
    assert scaled == run.speed.scale(wall, (r.probes[0] + r.probes[1]) / 2)


def test_corrupted_reference_digest_fails_the_op():
    r = run.Run("broker96k", seed=3, small=True)
    try:
        r.setup()
        r.reference = "0" * 64
        assert r.op() is None
    finally:
        r.cleanup()
    assert (r.attempted, r.failed) == (1, 1)
    assert "digest" in r.failures[-1]


def test_traced_op_reports_every_per_layer_metric():
    r = run.Run("fixture_cli", seed=3, small=True)
    tracer = tracing.Tracer()
    try:
        r.setup()
        with tracing.patched(tracer):
            assert r.op(tracer) is not None
    finally:
        r.cleanup()
    metrics = tracing.root_metrics(tracer.roots[0])
    declared = {m["name"] for m in SPEC["per_layer"]}
    assert declared - set(metrics) == {"trace.overhead_ratio"}
    assert metrics["cli.sweep_points"] > 0 and metrics["trace.coverage_ratio"] > 0.9


def test_metric_names_use_only_the_allowed_characters():
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]] + [w["name"] for w in SPEC["workloads"]]
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.fullmatch(name), name


def test_compare_verdicts():
    parent = [1.00, 1.01, 0.99, 1.02, 0.98, 1.00, 1.01, 0.99, 1.00, 1.00]
    faster = [v * 0.8 for v in parent]
    slower = [v * 1.3 for v in parent]
    noisy = [0.5, 1.5, 0.6, 1.4, 0.7, 1.3, 0.8, 1.2, 0.9, 1.1]
    assert compare.verdict(parent, faster, 0.1, True, 0, 0)[0] == "improved"
    assert compare.verdict(parent, faster, 0.1, True, 0, 1)[0] == "unchanged"
    assert compare.verdict(parent, slower, 0.1, True, 0, 0)[0] == "regressed"
    assert compare.verdict(parent, parent, 0.1, True, 0, 0)[0] == "unchanged"
    assert compare.verdict(noisy, parent, 0.1, True, 0, 0)[0] == "unresolved"
