"""Command-line interface: subcommands, exit codes, CSV determinism."""

import contextlib
import hashlib
import io
import json
import os
import re
import subprocess
import sys
import time
import tracemalloc
import warnings
from fractions import Fraction
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import scanplan as sp
from scanplan.cli import main
from scanplan.graph import MAX_DENOMINATOR_DIGITS

from conftest import subsample

DATA = Path(__file__).parent / "data"
DOUBLE_STAR = str(DATA / "double_star.json")


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_solve_double_star(capsys, tmp_path):
    policy_file = tmp_path / "policy.json"
    code, out, _ = run(
        capsys, "solve", "--graph", DOUBLE_STAR, "--objective", "p2", "--policy-out", str(policy_file)
    )
    assert code == 0
    assert "optimal_cost 2" in out
    assert "monolog1_cost 4" in out
    assert "monolog2_cost 4" in out
    assert "method flow_cut" in out
    assert "solve_seconds" in out
    pi = sp.load_policy(policy_file)
    assert pi.ones == frozenset({sp.VertexId(1, 0), sp.VertexId(2, 0)})


def test_solve_p3_zero_omega_matches_p2(capsys):
    code, out_p3, _ = run(
        capsys,
        "solve", "--graph", str(DATA / "single_edge.json"),
        "--objective", "p3", "--alpha1", "1", "--alpha2", "1", "--omega", "0",
    )
    assert code == 0
    code, out_p2, _ = run(
        capsys, "solve", "--graph", str(DATA / "single_edge.json"), "--objective", "p2"
    )
    assert code == 0
    line = lambda s: next(l for l in s.splitlines() if l.startswith("optimal_cost"))
    assert line(out_p3) == line(out_p2) == "optimal_cost 3"


def test_malformed_file_exits_2(capsys):
    code, _, err = run(capsys, "solve", "--graph", str(DATA / "malformed.json"))
    assert code == 2
    assert "error" in err


def test_missing_file_exits_2(capsys):
    code, _, err = run(capsys, "solve", "--graph", str(DATA / "no_such_file.json"))
    assert code == 2
    assert "error" in err


def test_invalid_graph_exits_3(capsys):
    code, _, err = run(capsys, "solve", "--graph", str(DATA / "dup_edge.json"))
    assert code == 3
    assert "error" in err
    assert len(err.encode()) < 300


@pytest.mark.parametrize(
    "extra, message",
    [
        ([{"id": 3, "scan_size": -5}], "scan_size of 1:3 is negative: -5"),
        ([{"id": 3, "scan_size": 1, "inertia": -5}], "inertia of 1:3 is negative: -5"),
        ([{"id": -3, "scan_size": 1}], "negative vertex index 1:-3"),
        ([{"id": 3, "scan_size": 1}, {"id": 3, "scan_size": 7}], "duplicate vertex id 1:3"),
    ],
)
def test_isolated_vertex_fault_exits_3(capsys, tmp_path, extra, message):
    # the same refusal whether or not the faulty vertex has an edge
    for ends in ([0], [0, extra[0]["id"]]):
        doc = {
            "v1": [{"id": 0, "scan_size": 1}] + extra,
            "v2": [{"id": 0, "scan_size": 1}],
            "edges": [{"u": u, "v": 0} for u in ends],
        }
        path = tmp_path / "graph.json"
        path.write_text(json.dumps(doc))
        assert run(capsys, "solve", "--graph", str(path)) == (3, "", f"error: {message}\n")


GEOMETRY_SWEEP = ("sweep", "--synthetic", "--synthetic-poses", "12", "--start", "10", "--stop", "20", "--step", "10")


@pytest.mark.parametrize(
    "argv",
    [
        ("build-graph", "--synthetic", "--synthetic-poses", "12", "--dmax", "abc"),
        ("build-graph", "--synthetic", "--synthetic-poses", "12", "--eta", "1/0"),
        ("build-graph", "--synthetic", "--synthetic-poses", "12", "--dmax", "1e400"),
        ("build-graph", "--synthetic", "--synthetic-poses", "12", "--fov-range", "nan"),
        (
            "build-graph", "--scores", str(DATA / "scores_40x40.txt"), "--alpha", "x",
            "--features1", str(DATA / "features_40.txt"), "--features2", str(DATA / "features_40.txt"),
        ),
        GEOMETRY_SWEEP + ("--parameter", "eta", "--dmax", "abc"),
        GEOMETRY_SWEEP + ("--parameter", "dmax", "--eta", "1/0"),
    ],
)
def test_invalid_number_flag_exits_3(capsys, tmp_path, argv):
    code, _, err = run(capsys, *argv, "--out", str(tmp_path / "out"))
    assert code == 3
    assert "error" in err


@pytest.mark.parametrize("flag", ["--fov-range", "--fov-half-angle"])
@pytest.mark.parametrize("value", ["0", "-5"])
def test_non_positive_fov_exits_3(capsys, tmp_path, flag, value):
    code, _, err = run(
        capsys,
        "build-graph", "--synthetic", "--synthetic-poses", "20", "--eta", "0.4", flag, value,
        "--out", str(tmp_path / "g.json"),
    )
    assert code == 3
    assert f"{flag[2:].replace('-', '_')} must be positive" in err
    assert not (tmp_path / "g.json").exists()


def test_invariant_violation_exits_4(capsys, monkeypatch):
    def wrong_flow(*network):
        return 0, []

    monkeypatch.setattr("scanplan.solver._min_cut_reachable_scipy", wrong_flow)
    code, _, err = run(capsys, "solve", "--graph", DOUBLE_STAR)
    assert code == 4
    assert "internal error" in err


def test_check_monolog_double_star(capsys, tmp_path, kitti_graph):
    improving = tmp_path / "improving.json"
    code, out, _ = run(
        capsys,
        "check-monolog", "--graph", DOUBLE_STAR, "--side", "1", "--improving-out", str(improving),
    )
    assert code == 0
    assert "monolog_optimal no" in out
    assert "violating_subset 1:1 1:2 1:3" in out
    assert "improving_cost 2" in out
    pi = sp.load_policy(improving)
    g = sp.load_graph(DOUBLE_STAR)
    assert sp.is_admissible(g, pi)
    assert sp.comm_cost(g, pi) == 2
    # without --improving-out, the same certificate and no file line
    assert run(capsys, "check-monolog", "--graph", DOUBLE_STAR, "--side", "1") == (
        0, out.replace(f"wrote improving policy {improving}\n", ""), ""
    )
    # the two-loop fixture's side-2 monolog is not optimal either
    improving = tmp_path / "kitti-improving.json"
    code, out, _ = run(capsys, "check-monolog", "--graph", kitti_graph, "--side", "2", "--improving-out", str(improving))
    assert code == 0
    assert "monolog_optimal no" in out
    pi, g = sp.load_policy(improving), sp.load_graph(kitti_graph)
    assert sp.is_admissible(g, pi)
    assert f"improving_cost {sp.comm_cost(g, pi)}\n" in out


def test_check_monolog_holds(capsys):
    code, out, _ = run(
        capsys, "check-monolog", "--graph", str(DATA / "single_edge.json"), "--side", "2"
    )
    assert code == 0
    assert "monolog_optimal yes" in out


def test_simulate_with_ground_truth(capsys, tmp_path):
    gt = tmp_path / "gt.txt"
    gt.write_text("0 0\n1 0\n")
    trace_file = tmp_path / "trace.log"
    code, out, _ = run(
        capsys,
        "simulate", "--graph", DOUBLE_STAR, "--ground-truth", str(gt), "--trace-out", str(trace_file),
    )
    assert code == 0
    assert "scan_bytes 2" in out
    assert "discovered 2" in out
    lines = trace_file.read_text().splitlines()
    assert lines[0].startswith("metadata robot1 broker")
    assert any(line.startswith("closure robot1 robot2 64") for line in lines)


def test_simulate_channel_dead_marks_undelivered(capsys, tmp_path):
    gt = tmp_path / "gt.txt"
    gt.write_text("1 0\n")
    code, out, _ = run(
        capsys,
        "simulate", "--graph", DOUBLE_STAR, "--ground-truth", str(gt),
        "--channel-dead", "--trace-out", str(tmp_path / "t.log"),
    )
    assert code == 0
    assert "undelivered 1:1-2:0" in out


def test_simulate_compare_table(capsys):
    code, out, _ = run(capsys, "simulate", "--graph", DOUBLE_STAR, "--compare")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "strategy,scan_bytes,metadata_bytes,ell1,ell2"
    assert lines[1].startswith("optimal,2,")
    assert lines[4].startswith("full_bidirectional,8,")


def test_simulate_rejects_foreign_ground_truth(capsys, tmp_path):
    gt = tmp_path / "gt.txt"
    gt.write_text("3 3\n")
    code, _, err = run(capsys, "simulate", "--graph", DOUBLE_STAR, "--ground-truth", str(gt))
    assert code == 3
    assert "ground-truth" in err


def test_build_graph_synthetic_and_solve(capsys, tmp_path):
    out_file = tmp_path / "g.json"
    code, out, _ = run(
        capsys,
        "build-graph", "--synthetic", "--synthetic-poses", "60",
        "--dmax", "20", "--eta", "0.3", "--out", str(out_file),
    )
    assert code == 0
    assert "wrote" in out
    g = sp.load_graph(out_file)
    assert g.num_edges > 0
    code, out, _ = run(capsys, "solve", "--graph", str(out_file))
    assert code == 0


def test_build_graph_from_pose_files(capsys, tmp_path):
    out_file = tmp_path / "g.json"
    code, _, _ = run(
        capsys,
        "build-graph",
        "--poses1", str(DATA / "two_loop_poses1.txt"),
        "--poses2", str(DATA / "two_loop_poses2.txt"),
        "--features1", str(DATA / "two_loop_features1.txt"),
        "--features2", str(DATA / "two_loop_features2.txt"),
        "--dmax", "15", "--eta", "0", "--out", str(out_file),
    )
    assert code == 0
    g = sp.load_graph(out_file)
    assert g.num_edges > 0


def test_build_graph_appearance_mode(capsys, tmp_path):
    out_file = tmp_path / "g.json"
    # the default top-k is 2
    for flags in (["--alpha", "0.6", "--top-k", "2"], ["--alpha", "0.5"]):
        code, _, _ = run(
            capsys,
            "build-graph",
            "--scores", str(DATA / "scores_40x40.txt"),
            "--features1", str(DATA / "features_40.txt"),
            "--features2", str(DATA / "features_40.txt"),
            *flags, "--out", str(out_file),
        )
        assert code == 0
        g = sp.load_graph(out_file)
        assert 0 < g.num_edges <= 80


def test_sweep_dmax_deterministic_and_consistent(capsys, tmp_path):
    from scanplan.candidates import GeometryParams, build_geometric, synthetic_two_loop

    # 60 poses a side, then the default pose count and eta
    for poses, stop, flags in ((60, "50", ["--synthetic-poses", "60", "--eta", "0"]), (100, "30", [])):
        args = ["sweep", "--parameter", "dmax", "--start", "10", "--stop", stop, "--step", "10", "--synthetic", *flags]
        code, out1, err1 = run(capsys, *args)
        assert code == 0
        code, out2, _ = run(capsys, *args)
        assert out1 == out2  # byte-for-byte deterministic
        assert "nesting non-decreasing: ok" in err1
        lines = out1.strip().splitlines()
        assert lines[0] == "param,optimal,monolog1,monolog2,bidirectional,num_vertices,num_edges"
        assert len(lines) == 1 + int(stop) // 10
        # each row's optimal equals a fresh solve of the graph built at that value
        t1, t2 = synthetic_two_loop(poses)
        for row in lines[1:]:
            cells = row.split(",")
            g = build_geometric(t1, t2, GeometryParams(d_max=float(cells[0]), eta=0.0))
            expect = sp.solve(g, sp.Objective.p2()).optimal_cost if g.num_vertices else 0
            assert cells[1] == str(expect)
            # optimal never beats the feasibility ordering
            assert int(cells[1]) <= min(int(cells[2]), int(cells[3]))


def test_build_graph_synthetic_defaults_are_the_apis(capsys, tmp_path):
    from scanplan.candidates import GeometryParams, build_geometric, synthetic_two_loop

    out_file = tmp_path / "g.json"
    code, _, _ = run(capsys, "build-graph", "--synthetic", "--out", str(out_file))
    assert code == 0
    g = build_geometric(*synthetic_two_loop(), GeometryParams(d_max=30, eta=0))
    assert out_file.read_text(encoding="utf-8") == sp.dumps_graph(g)


@pytest.mark.parametrize("flag, value", [("--synthetic-poses", "100000000000"), ("--synthetic-poses", "0")])
def test_synthetic_size_out_of_range_exits_3_at_once(capsys, monkeypatch, tmp_path, flag, value):
    # 10**11 poses a side ran for minutes, growing linearly in memory: the
    # size is refused before any pose is placed
    monkeypatch.setattr(sp.candidates, "_resample_loop", mock.Mock(side_effect=AssertionError("poses placed")))
    start = time.perf_counter()
    code, _, err = run(capsys, "build-graph", "--synthetic", flag, value, "--out", str(tmp_path / "g.json"))
    assert time.perf_counter() - start < 1
    assert code == 3
    assert err.startswith("error: n must be ")
    assert not (tmp_path / "g.json").exists()


def test_sweep_alpha_edge_counts_non_increasing(capsys):
    for start, points in (("0.1", 5), ("0.5", 3)):
        code, out, _ = run(
            capsys,
            "sweep", "--parameter", "alpha", "--start", start, "--stop", "0.9", "--step", "0.2",
            "--scores", str(DATA / "scores_40x40.txt"),
            "--features1", str(DATA / "features_40.txt"),
            "--features2", str(DATA / "features_40.txt"),
        )
        assert code == 0
        edge_counts = [int(row.split(",")[-1]) for row in out.strip().splitlines()[1:]]
        assert len(edge_counts) == points
        assert edge_counts == sorted(edge_counts, reverse=True)


def test_sweep_omega_over_prebuilt_graph(capsys):
    code, out, _ = run(
        capsys,
        "sweep", "--parameter", "omega", "--start", "0", "--stop", "2", "--step", "1",
        "--graph", DOUBLE_STAR, "--alpha1", "1", "--alpha2", "1",
    )
    assert code == 0
    rows = [row.split(",") for row in out.strip().splitlines()[1:]]
    # omega = 0 collapses to the communication objective
    assert rows[0][1] == "2"
    # costs grow with omega
    optima = [sp.objectives.as_fraction(r[1]) for r in rows]
    assert optima == sorted(optima)


def test_sweep_to_file(capsys, tmp_path):
    out_file = tmp_path / "sweep.csv"
    code, out, _ = run(
        capsys,
        "sweep", "--parameter", "eta", "--start", "0", "--stop", "0.8", "--step", "0.4",
        "--synthetic", "--synthetic-poses", "40", "--dmax", "25", "--out", str(out_file),
    )
    assert code == 0
    assert out == ""
    assert out_file.read_text().startswith("param,")


def test_solve_policy_feeds_simulate(capsys, tmp_path):
    policy_file = tmp_path / "policy.json"
    code, _, _ = run(capsys, "solve", "--graph", DOUBLE_STAR, "--policy-out", str(policy_file))
    assert code == 0
    # the policy from the file, then the one simulate solves for itself
    traces = []
    for name, extra in (("file", ["--policy", str(policy_file)]), ("solved", [])):
        trace = tmp_path / f"{name}.log"
        code, out, _ = run(capsys, "simulate", "--graph", DOUBLE_STAR, *extra, "--trace-out", str(trace))
        assert code == 0
        assert "scan_bytes 2" in out
        traces.append(trace.read_bytes())
    assert traces[0] == traces[1]


def test_repeated_policy_row_exits_3(capsys, tmp_path):
    # the repeated row's bit used to win silently
    policy_file = tmp_path / "policy.json"
    run(capsys, "solve", "--graph", DOUBLE_STAR, "--policy-out", str(policy_file))
    doc = json.loads(policy_file.read_text())
    doc["labels"].insert(0, {"side": 1, "index": 0, "bit": 0})
    policy_file.write_text(json.dumps(doc))
    code, out, err = run(capsys, "simulate", "--graph", DOUBLE_STAR, "--policy", str(policy_file))
    assert code == 3
    assert out == ""
    assert err == "error: duplicate vertex id 1:0 in labels[1]\n"


def test_policy_file_that_is_not_an_object_exits_2(capsys, tmp_path):
    policy_file = tmp_path / "policy.json"
    policy_file.write_text("[]")
    code, out, err = run(capsys, "simulate", "--graph", DOUBLE_STAR, "--policy", str(policy_file))
    assert (code, out, err) == (2, "", f"error: {policy_file}: policy file must hold a JSON object\n")


def test_policy_bit_out_of_range_message_is_clipped(capsys, tmp_path):
    # a 500-digit bit was repeated whole: a 541-byte line
    policy_file = tmp_path / "policy.json"
    run(capsys, "solve", "--graph", DOUBLE_STAR, "--policy-out", str(policy_file))
    doc = json.loads(policy_file.read_text())
    doc["labels"][0]["bit"] = int("9" * 500)
    policy_file.write_text(json.dumps(doc))
    code, out, err = run(capsys, "simulate", "--graph", DOUBLE_STAR, "--policy", str(policy_file))
    assert code == 3
    assert out == ""
    assert err == f"error: label of 1:0 must be 0 or 1, got {'9' * 20}...\n"


NINES = "9" * 401


def _long_value_cases(tmp_path):
    """(argv, the echoed value's full text) of refusals that each repeated
    a 401-digit or longer value whole, in a 430-1055-byte stderr line."""
    def graph(name, v1_id, size, edges):
        path = tmp_path / f"{name}.json"
        ends = ", ".join(f'{{"u": {v1_id}, "v": 0}}' for _ in range(edges))
        path.write_text(
            f'{{"v1": [{{"id": {v1_id}, "scan_size": {size}}}], "v2": [{{"id": 0, "scan_size": 1}}], "edges": [{ends}]}}'
        )
        return str(path)

    policy = tmp_path / "policy.json"
    row = f'{{"side": 1, "index": {NINES}, "bit": 1}}'
    policy.write_text(f'{{"labels": [{row}, {row}]}}')
    sweep = ("sweep", "--parameter")
    return [
        ((*sweep, "omega", "--graph", DOUBLE_STAR, "--start", "1e500", "--stop", "0", "--step", "1"), "1" + "0" * 500),
        ((*sweep, "dmax", "--synthetic", "--start", "1", "--stop", "1e500", "--step", "1e-500"), "9" * 500),
        (("solve", "--graph", graph("size", 0, f"-{NINES}", 1)), f"-{NINES}"),
        (("solve", "--graph", graph("id", f"-{NINES}", 1, 1)), f"1:-{NINES}"),
        (("solve", "--graph", graph("dup", NINES, 1, 2)), f"1:{NINES}"),
        (("simulate", "--graph", DOUBLE_STAR, "--policy", str(policy)), f"1:{NINES}"),
    ]


def test_refusal_of_a_long_value_is_short(capsys, tmp_path):
    for argv, value in _long_value_cases(tmp_path):
        code, out, err = run(capsys, *argv)
        assert code == 3, argv
        assert out == ""
        assert len(err.encode()) < 300
        assert f"{value[:20]}..." in err


def test_sweep_spec_validation():
    from scanplan.cli import SweepSpec

    with pytest.raises(sp.ValidationError):
        SweepSpec("dmax", 10, 5, 1)
    with pytest.raises(sp.ValidationError):
        SweepSpec("dmax", 0, 5, 0)
    with pytest.raises(sp.ValidationError):
        SweepSpec("bogus", 0, 5, 1)
    assert SweepSpec("eta", "0", "1", "1/4").values() == [
        sp.objectives.as_fraction(x) for x in ("0", "1/4", "1/2", "3/4", "1")
    ]


def test_console_entry_point_runs():
    result = subprocess.run(
        [sys.executable, "-m", "scanplan.cli", "solve", "--graph", DOUBLE_STAR],
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0
    assert "optimal_cost 2" in result.stdout


def _build_from_poses(capsys, tmp_path, poses_text, counts_text):
    poses, counts = tmp_path / "poses.txt", tmp_path / "counts.txt"
    poses.write_text(poses_text)
    counts.write_text(counts_text)
    return run(
        capsys,
        "build-graph",
        "--poses1", str(poses), "--poses2", str(DATA / "two_loop_poses2.txt"),
        "--features1", str(counts), "--features2", str(DATA / "two_loop_features2.txt"),
        "--out", str(tmp_path / "g.json"),
    )


IDENTITY_POSE = "1 0 0 0 0 1 0 0 0 0 1 0"


@pytest.mark.parametrize("bad", ["nan 0 0 0 0 1 0 0 0 0 1 0", "1 0 0 0 0 1 0 0 0 0 1 inf"])
def test_non_finite_pose_exits_2(capsys, tmp_path, bad):
    code, _, err = _build_from_poses(capsys, tmp_path, f"{IDENTITY_POSE}\n{bad}\n", "5\n5\n")
    assert code == 2
    assert "poses.txt:2: non-finite value" in err
    assert not (tmp_path / "g.json").exists()


def test_extra_feature_counts_exit_2(capsys, tmp_path):
    code, _, err = _build_from_poses(capsys, tmp_path, f"{IDENTITY_POSE}\n", "5\n5\n5\n")
    assert code == 2
    assert "poses.txt:2: 1 poses but 3 feature counts" in err


def _build_appearance_with_count(capsys, tmp_path, count):
    features = tmp_path / "features.txt"
    features.write_text(f"{count}\n" + (DATA / "features_40.txt").read_text().split("\n", 1)[1])
    return run(
        capsys,
        "build-graph",
        "--scores", str(DATA / "scores_40x40.txt"), "--alpha", "0.3",
        "--features1", str(features), "--features2", str(DATA / "features_40.txt"),
        "--out", str(tmp_path / "g.json"),
    )


@pytest.mark.parametrize("digits", [600, 4299])
def test_feature_count_beyond_scan_size_bound_exits_2(capsys, tmp_path, digits):
    # a 600-digit count wrote a graph file that solve refuses; a 4299-digit
    # one exited 1 with a traceback
    code, _, err = _build_appearance_with_count(capsys, tmp_path, "9" * digits)
    assert code == 2
    assert f"features.txt:1: feature count {'9' * 20}... gives a scan size of more than 500 digits" in err
    assert not (tmp_path / "g.json").exists()


def test_largest_feature_count_solves(capsys, tmp_path):
    largest = (10**500 - 1) // sp.candidates.DESCRIPTOR_BYTES
    code, _, _ = _build_appearance_with_count(capsys, tmp_path, largest)
    assert code == 0
    assert sp.load_graph(tmp_path / "g.json").vertex(sp.VertexId(1, 0)).scan_size == largest * 32
    code, out, _ = run(capsys, "solve", "--graph", str(tmp_path / "g.json"))
    assert code == 0
    assert "optimal_cost " in out
    assert _build_appearance_with_count(capsys, tmp_path, largest + 1)[0] == 2


def test_sweep_point_cap_exits_3(capsys, monkeypatch):
    # the point count is checked before any value or graph is made
    def refuse(*args, **kwargs):
        raise AssertionError("no sweep point may be built")

    monkeypatch.setattr("scanplan.cli.SweepSpec.values", refuse)
    monkeypatch.setattr("scanplan.cli._load_trajectories", refuse)
    code, _, err = run(
        capsys,
        "sweep", "--parameter", "dmax", "--start", "0", "--stop", "1e9", "--step", "1",
        "--synthetic", "--eta", "0",
    )
    assert code == 3
    assert "1000000001 points" in err


def test_build_graph_fov_golden(capsys, tmp_path):
    # the graph files the two-loop fixture gave before the windowed FOV
    # quadrature (default half-angle) and before the row bands took wedges
    # along the row direction (pi/2, where a cone edge lies along the rows
    # for over half the gated pairs); they must stay byte-identical
    golden = [
        ([], 128, "a33ee8fd7f2163739da0e99d9e8669efc12b0c33c19c997ad657b6c316dc4ad7"),
        (
            ["--fov-half-angle", "1.5707963267948966"],
            124,
            "91852a2380423db269f58f494568609c810beb9e01d2a4e7c9ef2de54c83b45c",
        ),
    ]
    for flags, pruned, digest in golden:
        out_file = tmp_path / "g.json"
        with pytest.warns(UserWarning, match=f"pruned {pruned} isolated vertices"):
            code, _, _ = run(
                capsys,
                "build-graph",
                "--poses1", str(DATA / "two_loop_poses1.txt"),
                "--poses2", str(DATA / "two_loop_poses2.txt"),
                "--features1", str(DATA / "two_loop_features1.txt"),
                "--features2", str(DATA / "two_loop_features2.txt"),
                "--dmax", "30", "--eta", "0.4", *flags, "--out", str(out_file),
            )
        assert code == 0
        assert hashlib.sha256(out_file.read_bytes()).hexdigest() == digest


def test_synthetic_build_graph_memory_stays_bounded(capsys, tmp_path):
    # 500 poses a side, 26,671 pairs within dmax: a distance array over
    # every pose pair and count bounds over every gated pair at once took
    # a 79 MB traced peak. At 1000 poses a side, gathering every gated
    # pair's sectors before chunking them took 16 MB. Each file is the one
    # those wrote, byte for byte
    cases = [
        ("500", 632, 24, "10939df770ddfbf5d13d3db0598e0a69d969e15867d6c2f9d8984a3e132ffbc4"),
        ("1000", 1262, 12, "69d8d102d9ef5db3b0ec62cc8434d79f833cc71851ef8f54c350be7d1a9796c0"),
    ]
    for poses, pruned, megabytes, digest in cases:
        out_file = tmp_path / f"g{poses}.json"
        tracemalloc.start()
        try:
            with pytest.warns(UserWarning, match=f"pruned {pruned} isolated vertices"):
                code, _, _ = run(
                    capsys,
                    "build-graph", "--synthetic", "--synthetic-poses", poses,
                    "--dmax", "30", "--eta", "0.4", "--out", str(out_file),
                )
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 0
        assert peak < megabytes * 2**20, (poses, peak)
        assert hashlib.sha256(out_file.read_bytes()).hexdigest() == digest


def test_sweep_memory_stays_bounded(capsys):
    # 291 dmax points at 300 poses a side: holding every point's graph,
    # memo and edge codes until the last point took a traced peak of 128
    # to 141 MiB; streaming holds one joined network's points. The CSV is
    # the one the all-points sweep wrote, byte for byte
    tracemalloc.start()
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)  # pruned vertices
            code, out, err = run(
                capsys,
                "sweep", "--synthetic", "--synthetic-poses", "300",
                "--parameter", "dmax", "--start", "2", "--stop", "60", "--step", "0.2", "--eta", "0",
            )
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    assert err == "nesting non-decreasing: ok (291 points)\n"
    assert peak < 64 * 2**20, peak
    assert hashlib.sha256(out.encode()).hexdigest() == "bc3e80b2ac52f9b5583858b250530d8032f469bd856df848fc6cc54912713d95"


def test_build_graph_extreme_fov_range_no_numpy_warnings(capsys, tmp_path):
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        warnings.simplefilter("ignore", UserWarning)  # every vertex is pruned
        code, out, _ = run(
            capsys,
            "build-graph", "--synthetic", "--synthetic-poses", "12",
            "--eta", "0.4", "--fov-range", "1e308", "--out", str(tmp_path / "g.json"),
        )
    assert code == 0
    assert "|L|=0" in out


FIXTURE_POSES = [
    "--poses1", str(DATA / "two_loop_poses1.txt"),
    "--poses2", str(DATA / "two_loop_poses2.txt"),
    "--features1", str(DATA / "two_loop_features1.txt"),
    "--features2", str(DATA / "two_loop_features2.txt"),
]


@pytest.mark.parametrize(
    "argv, fov_d_max",
    [
        (("--parameter", "eta", "--start", "0", "--stop", "0.9", "--step", "0.15", "--dmax", "24"), 24),
        (("--parameter", "dmax", "--start", "4", "--stop", "32", "--step", "4", "--eta", "0.35"), 32),
        (("--parameter", "dmax", "--start", "4", "--stop", "32", "--step", "7", "--eta", "0"), None),
    ],
)
def test_sweep_matches_per_point_build_geometric(capsys, monkeypatch, argv, fov_d_max):
    from scanplan import candidates as cand

    pairs, kernel = [], []
    gates, batched = cand._fov_gates, cand._fov_overlaps
    monkeypatch.setattr(cand, "_fov_gates", lambda *a: pairs.append(len(a[4])) or gates(*a))
    monkeypatch.setattr(cand, "_fov_overlaps", lambda *a: kernel.extend(np.hstack(a[:4]).tolist()) or batched(*a))
    argv = ("sweep", *FIXTURE_POSES, "--rate-divisor", "3", *argv)
    shared, shared_pruned = run_recording_pruning(capsys, *argv)
    computed, sent = sum(pairs), [tuple(row) for row in kernel]
    # the same sweep with one build_geometric call (a one-point sweep)
    # per point, so no overlap is shared between points
    sweep = cand.build_geometric_sweep
    monkeypatch.setattr(
        cand, "build_geometric_sweep", lambda t1, t2, params: (next(sweep(t1, t2, [p])) for p in params)
    )
    per_point, per_point_pruned = run_recording_pruning(capsys, *argv)
    assert shared[0] == 0 and shared == per_point
    # the same pruning messages, one per point, in point order
    assert shared_pruned == per_point_pruned
    assert pruned_counts(shared_pruned) == pruned_per_point(shared[1], 2 * 34)
    assert len(shared_pruned) == len(shared[1].splitlines()) - 1
    # the shared sweep decided each gated pair once, and the kernel saw
    # only some of them, none twice
    t1, t2 = (subsample(t, 3) for t in load_fixture_trajectories())
    pos1, pos2 = (np.array([pose.position for pose in t]) for t in (t1, t2))
    dists = np.linalg.norm(pos1[:, None, :] - pos2[None, :, :], axis=2)
    if fov_d_max is None:
        assert sum(pairs) == 0 and not kernel
    else:
        assert computed == int((dists <= fov_d_max).sum())
        assert len(set(sent)) == len(sent) < computed
        assert sum(pairs) > 2 * computed  # the per-point sweep decided them again


def run_recording_pruning(capsys, *argv):
    """``run``'s result, and each pruning warning's message and file name."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        result = run(capsys, *argv)
    pruned = [str(w.message) for w in caught if str(w.message).startswith("pruned ")]
    # every warning is a pruning message, issued from candidates.py
    assert len(pruned) == len(caught) and {Path(w.filename).name for w in caught} <= {"candidates.py"}
    return result, pruned


def pruned_counts(messages):
    return [int(message.split()[1]) for message in messages]


def pruned_per_point(csv, vertices):
    """How many of ``vertices`` each sweep point of ``csv`` prunes, for
    the points that prune any."""
    kept = [int(row.split(",")[5]) for row in csv.splitlines()[1:]]
    return [vertices - k for k in kept if k < vertices]


SCORES_40 = [
    "--scores", str(DATA / "scores_40x40.txt"),
    "--features1", str(DATA / "features_40.txt"),
    "--features2", str(DATA / "features_40.txt"),
]


@pytest.mark.parametrize("flags", [(), ("--top-k", "1"), ("--top-k", "3", "--symmetric")])
def test_sweep_matches_per_point_build_appearance(capsys, monkeypatch, flags):
    from scanplan import candidates as cand

    argv = ("sweep", "--parameter", "alpha", "--start", "0.1", "--stop", "0.95", "--step", "0.05", *SCORES_40, *flags)
    shared, shared_pruned = run_recording_pruning(capsys, *argv)
    # the same sweep with one build_appearance call (a one-point sweep)
    # per point, each reading and checking every score again
    sweep = cand.build_appearance_sweep
    monkeypatch.setattr(
        cand, "build_appearance_sweep", lambda scores, w1, w2, params: (next(sweep(scores, w1, w2, [p])) for p in params)
    )
    per_point, per_point_pruned = run_recording_pruning(capsys, *argv)
    assert shared[0] == 0 and shared == per_point
    # the same pruning messages, one per point that prunes, in point order
    assert shared_pruned == per_point_pruned
    assert pruned_counts(shared_pruned) == pruned_per_point(shared[1], 2 * 40)
    edge_counts = [int(row.split(",")[-1]) for row in shared[1].splitlines()[1:]]
    assert len(edge_counts) == 18 and edge_counts[0] > edge_counts[-1]


@pytest.mark.parametrize(
    "parameter, builder, argv",
    [
        ("dmax", "build_geometric_sweep", ("--start", "4", "--stop", "32", "--step", "7", "--eta", "0", *FIXTURE_POSES)),
        ("eta", "build_geometric_sweep", ("--start", "0", "--stop", "0.9", "--step", "0.3", "--dmax", "24", *FIXTURE_POSES)),
        ("alpha", "build_appearance_sweep", ("--start", "0.1", "--stop", "0.9", "--step", "0.2", *SCORES_40)),
    ],
)
def test_sweep_out_of_order_graphs_exit_4(capsys, monkeypatch, parameter, builder, argv):
    from scanplan import candidates as cand

    build = getattr(cand, builder)
    # every point's graph, but the sweep's last graph first
    monkeypatch.setattr(cand, builder, lambda *args: reversed(list(build(*args))))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # pruned vertices
        code, out, err = run(capsys, "sweep", "--parameter", parameter, "--rate-divisor", "3", *argv)
    assert code == 4
    assert out == ""
    assert err == f"internal error: candidate sets not nested along {parameter} sweep\n"


@pytest.mark.parametrize(
    "parameter, argv",
    [
        ("eta", ("--synthetic", "--start", "0.8", "--stop", "1.2", "--step", "0.1", "--dmax", "30")),
        ("alpha", ("--start", "0.9", "--stop", "1.1", "--step", "0.1", *SCORES_40)),
    ],
)
def test_sweep_refusing_a_later_point_writes_no_row(capsys, tmp_path, parameter, argv):
    # the points before the refused one stream into the cut before its
    # error arrives, yet no row reaches stdout or the --out file
    out_file = tmp_path / "sweep.csv"
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # pruned vertices
        for out_flags in ((), ("--out", str(out_file))):
            code, out, err = run(capsys, "sweep", "--parameter", parameter, *argv, *out_flags)
            assert (code, out) == (3, "")
            assert err == f"error: {parameter} must lie in [0, 1], got 1.1\n"
    assert not out_file.exists()


def graphs_over(data, n1, n2, ids=None):
    """A graph on a random edge subset of an ``n1`` x ``n2`` grid; with
    ``ids``, per-side vertex ids in place of positions."""
    pairs = data.draw(st.lists(st.tuples(st.integers(0, n1 - 1), st.integers(0, n2 - 1)), unique=True))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # pruned vertices
        if ids is None:
            return sp.build_graph([1] * n1, [1] * n2, pairs)
        return sp.ExchangeGraph.from_vertices(
            [(i, 1, None) for i in ids[0]], [(i, 1, None) for i in ids[1]], [(ids[0][u], ids[1][v], 1) for u, v in pairs]
        )


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_edge_codes_nest_as_edge_key_sets(data):
    from scanplan.cli import _edge_codes

    n1, n2 = data.draw(st.integers(1, 5)), data.draw(st.integers(1, 5))
    ids = None
    if data.draw(st.booleans()):
        # explicit ids around the int64 bound, so both code types are used
        pool = st.sampled_from([0, 1, 2, 7, 2**31, 2**62, 2**63 - 2, 2**63 - 1, 2**63, 2**70])
        ids = [data.draw(st.lists(pool, min_size=n, max_size=n, unique=True)) for n in (n1, n2)]
    a, b = graphs_over(data, n1, n2, ids), graphs_over(data, n1, n2, ids)
    codes = _edge_codes([a, b])
    assert bool(np.isin(codes[0], codes[1]).all()) == (a.edge_keys() <= b.edge_keys())
    assert bool(np.isin(codes[1], codes[0]).all()) == (b.edge_keys() <= a.edge_keys())


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_subset_check_nests_as_edge_key_sets(data):
    from scanplan.cli import _edge_codes, _subset

    n1, n2 = data.draw(st.integers(1, 5)), data.draw(st.integers(1, 5))
    ids = None
    if data.draw(st.booleans()):
        # ids near 2**63 and past it: int64 codes near the bound that a
        # table spans (a side of one id gives a span of 0), codes spread
        # too wide for it, and Python-int codes
        pool = st.one_of(st.integers(0, 9), st.sampled_from([2**31, 2**62, 2**63 - 2, 2**63 - 1, 2**63, 2**70]))
        ids = [data.draw(st.lists(pool, min_size=n, max_size=n, unique=True)) for n in (n1, n2)]
    a, b = graphs_over(data, n1, n2, ids), graphs_over(data, n1, n2, ids)
    codes = _edge_codes([a, b])
    assert _subset(codes[0], codes[1]) == (a.edge_keys() <= b.edge_keys())
    assert _subset(codes[1], codes[0]) == (b.edge_keys() <= a.edge_keys())


@pytest.mark.parametrize(
    "narrower, wider, kind",
    [
        ([1, 2], list(range(10)), "table"),
        ([5], [0, 3 * 64], "table"),  # a span of 64 times the two sizes
        ([5], [0, 3 * 64 + 1], None),
        ([2**63 - 2], [2**63 - 2], "table"),
        ([0, 2**63 - 1], [2**63 - 2, 2**63 - 1], "table"),
        ([0], [0, 2**63 - 1], None),
        ([3], [], None),
    ],
)
def test_subset_check_uses_a_table_only_within_its_span(monkeypatch, narrower, wider, kind):
    from scanplan.cli import _subset

    kinds, isin = [], np.isin
    monkeypatch.setattr(np, "isin", lambda *arrays, kind=None: kinds.append(kind) or isin(*arrays, kind=kind))
    narrower, wider = np.array(narrower, dtype=np.int64), np.array(wider, dtype=np.int64)
    assert _subset(narrower, wider) == (set(narrower.tolist()) <= set(wider.tolist()))
    assert kinds == [kind]
    objects = [np.array(codes.tolist() + [2**70], dtype=object) for codes in (narrower, wider)]
    assert _subset(*objects) == (set(narrower.tolist()) <= set(wider.tolist()))
    assert kinds == [kind, None]


def load_fixture_trajectories():
    from scanplan.candidates import read_feature_counts, read_kitti_poses

    return [
        read_kitti_poses(DATA / f"two_loop_poses{s}.txt", read_feature_counts(DATA / f"two_loop_features{s}.txt"))
        for s in (1, 2)
    ]


def reader_argv(tmp_path, reader, path):
    """A command that reads ``path`` with the given reader; every other
    input is a valid fixture."""
    poses = [str(DATA / f"two_loop_poses{s}.txt") for s in (1, 2)]
    features = str(DATA / "features_40.txt")
    out = str(tmp_path / "out.json")
    return {
        "graph": ["solve", "--graph", path],
        "policy": ["simulate", "--graph", DOUBLE_STAR, "--policy", path],
        "poses": ["build-graph", "--poses1", path, "--poses2", poses[1], "--out", out],
        "features": ["build-graph", "--poses1", poses[0], "--poses2", poses[1], "--features1", path, "--out", out],
        "scores": ["build-graph", "--scores", path, "--features1", features, "--features2", features, "--out", out],
        "ground truth": ["simulate", "--graph", DOUBLE_STAR, "--ground-truth", path],
    }[reader]


VALID_TEXT = {
    "graph": (DATA / "double_star.json").read_text(),
    "policy": '{"labels": [{"side": 1, "index": 0, "bit": 1}]}',
    "poses": "1 0 0 0 0 1 0 0 0 0 1 0\n",
    "features": "12\n",
    "scores": "0 0 0.5\n",
    "ground truth": "0 0\n",
}


@pytest.mark.parametrize("reader", sorted(VALID_TEXT))
def test_undecodable_input_exits_2_naming_file(capsys, tmp_path, reader):
    path = tmp_path / "input.txt"
    path.write_bytes(VALID_TEXT[reader].encode() + b"\n\xff\xfe\n")
    code, _, err = run(capsys, *reader_argv(tmp_path, reader, str(path)))
    assert code == 2
    assert f"error: {path}: not UTF-8 text" in err and "Traceback" not in err


@pytest.mark.parametrize(
    "reader, text, shown",
    [
        ("graph", '{"v1": [{"id": 1.5, "scan_size": 1}], "v2": [], "edges": []}', "'1.5'"),
        ("graph", '{"v1": [{"id": 0, "scan_size": 1}], "v2": [{"id": 0, "scan_size": 1}], "edges": [{"u": 0, "v": 0.0}]}', "'0.0'"),
        ("policy", '{"labels": [{"side": 1, "index": 0, "bit": 1.0}]}', "'1.0'"),
    ],
)
def test_decimal_token_for_an_integer_is_echoed_as_written(capsys, tmp_path, reader, text, shown):
    # the graph reader echoed Fraction(3, 2) and Fraction(0, 1), the policy reader 1.0
    path = tmp_path / "input.json"
    path.write_text(text)
    code, out, err = run(capsys, *reader_argv(tmp_path, reader, str(path)))
    assert (code, out) == (2, "")
    assert err == f"error: {path}: expected an integer, got {shown}\n"


@pytest.mark.parametrize("reader", ["graph", "policy"])
def test_deeply_nested_json_exits_2_naming_file(capsys, tmp_path, reader):
    path = tmp_path / "deep.json"
    path.write_text('{"labels": ' + "[" * 100_000 + "]" * 100_000 + "}")
    code, _, err = run(capsys, *reader_argv(tmp_path, reader, str(path)))
    assert code == 2
    assert f"error: {path}: JSON nested too deeply" in err


@pytest.mark.parametrize(
    "scan_size",
    ["9" * 5000, "9" * 501, "-" + "9" * 777, "1e999999", "1e-999999", '"1e999999"', "0." + "0" * 600 + "1", '"1/' + "3" * 600 + '"'],
)
def test_number_beyond_format_bound_exits_2(capsys, tmp_path, scan_size):
    # each used to exit 1 with a traceback, or not finish, in solve
    path = tmp_path / "g.json"
    path.write_text(
        '{"v1": [{"id": 0, "scan_size": %s}], "v2": [{"id": 0, "scan_size": 1}], "edges": [{"u": 0, "v": 0}]}'
        % scan_size
    )
    code, _, err = run(capsys, "solve", "--graph", str(path))
    assert code == 2
    assert "exceeds 500 digits or a decimal exponent of 500" in err


def test_numbers_at_format_bound_solve(capsys, tmp_path):
    path = tmp_path / "g.json"
    path.write_text(
        '{"v1": [{"id": 0, "scan_size": %s}], "v2": [{"id": 0, "scan_size": 1e-500}], "edges": [{"u": 0, "v": 0}]}'
        % ("9" * 500)
    )
    code, out, _ = run(capsys, "solve", "--graph", str(path))
    assert code == 0
    assert f"optimal_cost 0.{'0' * 499}1\n" in out
    assert f"monolog1_cost {'9' * 500}\n" in out


GRAPH_WITH_FIELD = {
    "scan_size": '{"v1": [{"id": 0, "scan_size": %s}], "v2": [{"id": 0, "scan_size": 1}], "edges": [{"u": 0, "v": 0}]}',
    "inertia": '{"v1": [{"id": 0, "scan_size": 1, "inertia": %s}], "v2": [{"id": 0, "scan_size": 1}], "edges": [{"u": 0, "v": 0}]}',
    "cost": '{"v1": [{"id": 0, "scan_size": 1}], "v2": [{"id": 0, "scan_size": 1}], "edges": [{"u": 0, "v": 0, "cost": %s}]}',
}


@pytest.mark.parametrize("field", sorted(GRAPH_WITH_FIELD))
@pytest.mark.parametrize("value", ['"abc"', '"1/0"', '"nan"', "[1]", '{"a": 1}', "NaN", "Infinity", "-Infinity"])
def test_graph_value_that_is_not_a_number_exits_2_naming_file(capsys, tmp_path, field, value):
    # each exited 3 without the file's name, as a validation error
    path = tmp_path / "g.json"
    path.write_text(GRAPH_WITH_FIELD[field] % value)
    code, out, err = run(capsys, "solve", "--graph", str(path))
    assert code == 2
    assert f"error: {path}: " in err
    assert out == ""


@pytest.mark.parametrize("value, shown", [("true", "True"), ("null", "None")])
def test_graph_scan_size_that_is_a_json_literal_exits_2(capsys, tmp_path, value, shown):
    path = tmp_path / "g.json"
    path.write_text(GRAPH_WITH_FIELD["scan_size"] % value)
    assert run(capsys, "solve", "--graph", str(path)) == (2, "", f"error: {path}: expected a number, got {shown}\n")


@pytest.mark.parametrize(
    "reader, text, message",
    [
        ("poses", "1 0 0 0 0 1 0 0 0 0 1 " + "x" * 5000, "bad number 'xxxxxxxxxxxxxxxxxxxx...'"),
        ("scores", "0 0 " + "9" * 4999 + "x", "bad score line field '99999999999999999999...'"),
        ("features", "9" * 5000, "bad feature count '99999999999999999999...'"),
        ("ground truth", "9" * 5000 + " 0", "bad index '99999999999999999999...'"),
    ],
    ids=["poses", "scores", "features", "ground truth"],
)
def test_bad_reader_token_is_cut_in_message(capsys, tmp_path, reader, text, message):
    # each message used to hold the whole 5000-character token
    path = tmp_path / "input.txt"
    path.write_text(text + "\n")
    code, out, err = run(capsys, *reader_argv(tmp_path, reader, str(path)))
    assert code == 2
    assert f"error: {path}:1: {message}" in err
    assert len(err.encode()) < 200
    assert out == ""


GRAPH_WITH_ID = '{"v1": [{"id": %s, "scan_size": 1}], "v2": [{"id": 0, "scan_size": 1}], "edges": [{"u": 0, "v": 0}]}'


@pytest.mark.parametrize(
    "text",
    [
        GRAPH_WITH_FIELD["scan_size"] % json.dumps([1] * 5000),
        GRAPH_WITH_FIELD["scan_size"] % json.dumps("x" * 5000),
        GRAPH_WITH_ID % json.dumps("x" * 5000),
    ],
    ids=["scan_size list", "scan_size string", "id string"],
)
def test_graph_value_refusal_is_cut(capsys, tmp_path, text):
    # these printed 29,000, 5,000 and 5,000 bytes, the whole value
    path = tmp_path / "g.json"
    path.write_text(text)
    code, out, err = run(capsys, "solve", "--graph", str(path))
    assert code == 2
    assert err.startswith(f"error: {path}: ")
    assert len(err.encode()) < 200
    assert out == ""


def graph_file(tmp_path, name, n, first=0):
    """A perfect matching on ``n`` + ``n`` vertices whose ids start at ``first``."""
    path = tmp_path / name
    vertices = [(i, 1, None) for i in range(first, first + n)]
    g = sp.ExchangeGraph.from_vertices(vertices, vertices, [(i, i, 1) for i, _, _ in vertices])
    path.write_text(sp.dumps_graph(g))
    return str(path)


def test_policy_over_another_graph_exits_3_with_a_short_message(capsys, tmp_path):
    # the message listed all 6000 missing and 6000 extra ids, 267,829 bytes
    other = graph_file(tmp_path, "other.json", 3000, first=5000)
    policy = tmp_path / "policy.json"
    assert run(capsys, "solve", "--graph", other, "--policy-out", str(policy))[0] == 0
    code, out, err = run(capsys, "simulate", "--graph", graph_file(tmp_path, "g.json", 3000), "--policy", str(policy))
    assert code == 3
    assert err.startswith("error: policy domain mismatch (missing 6000: [1:0, 1:1, 1:2, 1:3, 1:4, 1:5, 1:6, 1:7, ...")
    assert "extra 6000: [1:5000, " in err
    assert len(err.encode()) < 300
    assert out == ""


@pytest.mark.parametrize(
    "text, message",
    [
        ("0 0\n0 1 2\n", "2: expected 'u_index v_index'"),
        ("0 0\n\n0 x\n", "3: bad index 'x'"),
        ("0 1.0\n", "1: bad index '1.0'"),
    ],
    ids=["field count", "bad token", "float token"],
)
def test_ground_truth_refusal_names_line_and_token(capsys, tmp_path, text, message):
    path = tmp_path / "truth.txt"
    path.write_text(text)
    code, out, err = run(capsys, *reader_argv(tmp_path, "ground truth", str(path)))
    assert code == 2
    assert err == f"error: {path}:{message}\n"
    assert len(err.encode()) < 200
    assert out == ""


@pytest.mark.parametrize(
    "text, count",
    [("9" * 1000 + " 0\n", 1), ("".join(f"{u} {u}\n" for u in range(50, 3050)), 3000)],
    ids=["1000-digit index", "3000 pairs"],
)
def test_ground_truth_outside_candidates_message_is_short(capsys, tmp_path, text, count):
    path = tmp_path / "truth.txt"
    path.write_text(text)
    code, out, err = run(capsys, *reader_argv(tmp_path, "ground truth", str(path)))
    assert code == 3
    assert err.startswith(f"error: {count} ground-truth closures outside the candidate set: ")
    assert len(err.encode()) < 300
    assert out == ""


@pytest.mark.parametrize(
    "line, message",
    [
        (f"0 {'9' * 1000} 0.9", "edge (0, 99999999999999999999...) outside vertex ranges"),
        (f"{'9' * 1000} 0 1.5", "score 1.5 for pair (99999999999999999999..., 0) outside [0, 1]"),
    ],
    ids=["index", "score"],
)
def test_score_line_refusal_cuts_its_indices(capsys, tmp_path, line, message):
    # each echoed the whole 1000-digit index
    path = tmp_path / "scores.txt"
    path.write_text(line + "\n")
    code, _, err = run(capsys, *reader_argv(tmp_path, "scores", str(path)))
    assert code == 3
    assert err == f"error: {message}\n"


def test_feature_count_beyond_float_range_builds(capsys, tmp_path):
    # a count past 1.8e308 made the pose check raise OverflowError (exit 1)
    counts = (DATA / "two_loop_features1.txt").read_text().splitlines()
    counts[0] = "9" * 400
    path = tmp_path / "features.txt"
    path.write_text("\n".join(counts) + "\n")
    code, out, err = run(capsys, *reader_argv(tmp_path, "features", str(path)))
    assert code == 0, err
    assert out.startswith(f"wrote {tmp_path / 'out.json'}: ")


def test_missing_feature_counts_named_after_the_last_pose(capsys, tmp_path):
    # trailing blank lines do not move the line the refusal names
    code, _, err = _build_from_poses(capsys, tmp_path, f"{IDENTITY_POSE}\n\n\n", "5\n5\n5\n")
    assert code == 2
    assert "poses.txt:2: 1 poses but 3 feature counts" in err


@pytest.mark.parametrize(
    "argv",
    [
        ("build-graph", "--synthetic", "--dmax", "9" * 500),
        ("sweep", "--synthetic", "--parameter", "dmax", "--start", "1e500", "--stop", "1e500", "--step", "1"),
    ],
    ids=["flag", "sweep value"],
)
def test_gate_beyond_float_range_message_is_short(capsys, tmp_path, argv):
    # each echoed the whole number, of 500 and 501 digits
    code, out, err = run(capsys, *argv, "--out", str(tmp_path / "out"))
    assert code == 3
    assert err.startswith("error: number out of range: ") and err.endswith("...\n")
    assert len(err.encode()) < 100
    assert out == ""


def test_flag_defaults_are_the_library_defaults():
    from scanplan.cli import build_parser

    parser = build_parser()
    geometry = sp.GeometryParams(d_max=1, eta=0)
    appearance = sp.AppearanceParams(alpha=0)
    sweep = ["sweep", "--parameter", "dmax", "--start", "1", "--stop", "1", "--step", "1"]
    for command in (["build-graph", "--out", "g.json"], sweep):
        args = parser.parse_args(command)
        assert (args.rate_divisor, args.fov_half_angle, args.fov_range) == (
            geometry.rate_divisor,
            geometry.fov_half_angle,
            geometry.fov_range,
        )
        assert args.top_k == appearance.top_k
    args = parser.parse_args(["simulate", "--graph", "g.json"])
    config = sp.RendezvousConfig()
    assert (args.metadata_bytes, args.closure_bytes) == (config.metadata_bytes_per_vertex, config.closure_message_bytes)


def test_main_looks_up_the_handler_at_each_call(capsys, monkeypatch):
    from scanplan import cli

    # the parser is built by the first call and kept; a handler replaced
    # after it still runs
    assert run(capsys, "solve", "--graph", DOUBLE_STAR)[0] == 0
    calls = []
    monkeypatch.setattr(cli, "cmd_solve", lambda args: calls.append(args.graph) or 7)
    assert run(capsys, "solve", "--graph", DOUBLE_STAR) == (7, "", "")
    assert calls == [DOUBLE_STAR]


BAD_SCORES = "0 0 0.5\n0 zz 0.5\n"


@pytest.mark.parametrize(
    "argv, message",
    [
        ("build-graph --scores {scores} --out {out}", "{scores}:2: bad score line field 'zz'"),
        ("sweep --parameter alpha --start 0.3 --stop 0.5 --step 0.1 --scores {scores}", "{scores}:2: bad score line field 'zz'"),
        ("build-graph --poses1 {scores} --dmax x --out {out}", "provide --poses1/--poses2 or --synthetic"),
        ("build-graph --synthetic --dmax x --eta y --out {out}", "cannot parse number 'x'"),
        ("sweep --parameter omega --start 0 --stop 1 --step 1 --omega x", "cannot parse number 'x'"),
        ("sweep --parameter alpha --start 0 --stop 1 --step 1 --alpha1 x", "cannot parse number 'x'"),
    ],
    ids=[
        "appearance build",
        "alpha sweep",
        "poses before dmax",
        "dmax before eta",
        "objective before graph",
        "objective before scores",
    ],
)
def test_input_with_two_faults_reports_the_first(capsys, tmp_path, argv, message):
    # the first fault each command reported before it shared its input reader
    scores = tmp_path / "scores.txt"
    scores.write_text(BAD_SCORES)
    fill = {"scores": str(scores), "out": str(tmp_path / "g.json")}
    code, out, err = run(capsys, *argv.format(**fill).split())
    assert code in (2, 3)
    assert err == f"error: {message.format(**fill)}\n"
    assert out == ""


@pytest.mark.parametrize(
    "argv, message",
    [
        ("sweep --parameter omega --start 0 --stop 1 --step 1", "omega sweeps need --graph"),
        ("sweep --parameter alpha --start 0 --stop 1 --step 1 --synthetic", "alpha sweeps need --scores"),
        (
            f"build-graph --scores {DATA / 'scores_40x40.txt'} --features1 {DATA / 'features_40.txt'} --out g.json",
            "appearance graphs need --features1 and --features2",
        ),
    ],
    ids=["omega sweep", "alpha sweep", "appearance build"],
)
def test_missing_input_flag_exits_2(capsys, argv, message):
    assert run(capsys, *argv.split()) == (2, "", f"error: {message}\n")


def test_solve_and_sweep_on_graphs_without_vertices(capsys, tmp_path):
    path = tmp_path / "g.json"
    path.write_text('{"v1": [], "v2": [], "edges": []}')
    code, out, _ = run(capsys, "solve", "--graph", str(path))
    assert code == 0
    assert "optimal_cost 0\nmonolog1_cost n/a\nmonolog2_cost n/a\n" in out
    # every strategy costs 0
    code, out, _ = run(capsys, "simulate", "--graph", str(path), "--compare")
    assert code == 0
    rows = out.splitlines()[1:]
    assert len(rows) == 4 and all(re.fullmatch("[a-z0-9_]*,0,0,0,0", row) for row in rows)
    # a 1 mm gate keeps no pose pair, so every vertex is pruned
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        code, out, _ = run(
            capsys, "sweep", "--synthetic", "--synthetic-poses", "12", "--parameter", "dmax",
            "--start", "1/1000", "--stop", "1/1000", "--step", "1",
        )
    assert code == 0
    assert out.splitlines()[1:] == ["0.001,0,0,0,0,0,0"]


@pytest.mark.parametrize("flag", ["--alpha1", "--alpha2", "--omega"])
@pytest.mark.parametrize(
    "value, code",
    [
        ("9" * 100, 0),
        ("1/" + "9" * 100, 0),
        ("1e-99", 0),
        ("1" + "0" * 100, 3),
        ("1/1" + "0" * 100, 3),
        ("1e-100", 3),
        ("1e-5000", 3),
    ],
)
def test_objective_parameter_digit_bound(capsys, flag, value, code):
    # a parameter's numerator and denominator may have 100 digits each;
    # 1e-5000 used to exit 1 with a traceback from int-to-str conversion
    result, out, err = run(capsys, "solve", "--graph", DOUBLE_STAR, "--objective", "p3", flag, value)
    assert result == code, err
    assert "Traceback" not in err
    if code:
        assert "exceeds 500 digits" in err if "5000" in value else "at most 100 digits" in err
    else:
        assert "optimal_cost" in out


@pytest.mark.parametrize(
    "argv",
    [
        ("build-graph", "--synthetic", "--synthetic-poses", "12", "--dmax", "1e999999999"),
        ("sweep", "--synthetic", "--parameter", "dmax", "--start", "10", "--stop", "1e999999999", "--step", "10"),
    ],
)
def test_huge_exponent_flag_exits_3_quickly(capsys, tmp_path, argv):
    # the text is refused before a Fraction builds a 10**999999999
    start = time.perf_counter()
    code, _, err = run(capsys, *argv, "--out", str(tmp_path / "out"))
    assert code == 3
    assert "exceeds 500 digits or a decimal exponent of 500" in err
    assert time.perf_counter() - start < 5


def primes_below(limit):
    sieve = bytearray([1]) * limit
    sieve[:2] = b"\0\0"
    for n in range(2, int(limit**0.5) + 1):
        if sieve[n]:
            sieve[n * n :: n] = bytes(len(range(n * n, limit, n)))
    return [n for n in range(limit) if sieve[n]]


# the first 1300 primes above 10007
PRIMES = [p for p in primes_below(25_000) if p > 10007][:1300]


def reciprocal_prime_graph(path, count, primes=PRIMES):
    """Side-1 scan sizes 1/p for the first ``count`` of ``primes`` (by
    default, primes above 10007), one edge per vertex: the values' common
    denominator is their product."""
    v1 = ", ".join(f'{{"id": {i}, "scan_size": "1/{p}"}}' for i, p in enumerate(primes[:count]))
    v2 = ", ".join(f'{{"id": {i}, "scan_size": 1}}' for i in range(count))
    edges = ", ".join(f'{{"u": {i}, "v": {i}}}' for i in range(count))
    path.write_text(f'{{"v1": [{v1}], "v2": [{v2}], "edges": [{edges}]}}')
    return str(path)


@pytest.mark.parametrize("count", [1300, 248])
def test_common_denominator_beyond_bound_exits_2(capsys, tmp_path, count):
    # 1300 primes: an 18,137-bit denominator, whose optimal cost used to exit
    # 1 with a traceback from int-to-str conversion; 248 primes: 1004 digits
    path = reciprocal_prime_graph(tmp_path / "g.json", count)
    code, _, err = run(capsys, "solve", "--graph", path)
    assert code == 2
    assert f"error: {path}: the values' common denominator" in err
    assert f"exceeds {MAX_DENOMINATOR_DIGITS} digits" in err
    assert "Traceback" not in err


def test_common_denominator_bound_is_checked_before_any_value_is_scaled(capsys, tmp_path):
    # 8000 scan sizes 1/p over primes above 10**5: scaling every value to
    # the 137,134-bit denominator before the check took 1.4 s and a 285 MB
    # peak of traced memory
    primes = [p for p in primes_below(200_000) if p > 10**5]
    path = reciprocal_prime_graph(tmp_path / "g.json", 8000, primes)
    tracemalloc.start()
    try:
        code, out, err = run(capsys, "solve", "--graph", path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 2
    assert out == ""
    assert err == f"error: {path}: the values' common denominator exceeds 1000 digits\n"
    assert peak < 50 * 2**20


def test_common_denominator_bound_refuses_in_linear_time(capsys, tmp_path):
    # 32,000 scan sizes 1/p over primes above 10**5: the LCM of every
    # denominator, taken before the check, made this refusal take 5.2 s; a
    # running LCM stops once it passes the bound
    primes = [p for p in primes_below(520_000) if p > 10**5][:32_000]
    path = reciprocal_prime_graph(tmp_path / "g.json", 32_000, primes)
    start = time.perf_counter()
    code, out, err = run(capsys, "solve", "--graph", path)
    elapsed = time.perf_counter() - start
    assert (code, out) == (2, "")
    assert err == f"error: {path}: the values' common denominator exceeds 1000 digits\n"
    assert elapsed < 2


def test_common_denominator_bound_comes_before_the_graph_checks(capsys, tmp_path):
    # a format fault (exit 2) and a negative scan size (exit 3): the bound
    # is checked first
    path = reciprocal_prime_graph(tmp_path / "g.json", 1300)
    text = Path(path).read_text()
    Path(path).write_text(text.replace('"scan_size": 1}', '"scan_size": -1}', 1))
    code, _, err = run(capsys, "solve", "--graph", path)
    assert code == 2
    assert f"error: {path}: the values' common denominator" in err


def test_common_denominator_at_bound_prints_every_cost(capsys, tmp_path):
    # 247 primes: a 1000-digit denominator, the largest this family reaches
    # inside the bound
    path = reciprocal_prime_graph(tmp_path / "g.json", 247)
    g = sp.load_graph(path)
    assert len(str(g.den)) == MAX_DENOMINATOR_DIGITS
    p3 = ["--objective", "p3", "--alpha1", "2/3", "--alpha2", "5/7", "--omega", "1/11"]
    optimum = sum(Fraction(1, p) for p in PRIMES[:247])
    for argv in (
        ["solve", "--graph", path],
        ["solve", "--graph", path, *p3],
        ["check-monolog", "--graph", path, "--side", "1", *p3],
        ["check-monolog", "--graph", path, "--side", "2"],
        ["simulate", "--graph", path],
        ["simulate", "--graph", path, "--compare", *p3],
    ):
        code, out, err = run(capsys, *argv)
        assert code == 0, err
        assert "Traceback" not in err
        if argv == ["solve", "--graph", path]:
            assert f"optimal_cost {optimum.numerator}/{optimum.denominator}\n" in out


# -- reader fuzz: mutated fixture files through ``main`` ----------------------

HOSTILE_TOKENS = [
    "nan", "-inf", "1e999", "-1e999", "1e308", "1e-400", "٣", "1_0", "0x10", "+5", "-0", "-1", "1.5", "x",
    "9" * 5000, "9" * 1000, "-" + "9" * 1000, "9" * 400, "0" * 600 + "1",
]  # fmt: skip

FUZZ_EXAMPLES = 30  # per reader; under 2 s in all
GROUND_TRUTH = "0 0\n0 1\n1 0\n0 3\n3 0\n"  # closures of double_star.json


@pytest.fixture(scope="module")
def fuzz_workdir(tmp_path_factory):
    """A directory with the fixture prefixes that the fuzzed commands read,
    each short so a run takes milliseconds, and the text each reader's
    mutations start from."""
    workdir = tmp_path_factory.mktemp("fuzz")
    texts = {"ground truth": GROUND_TRUTH}
    for reader, name, size in [
        ("poses", "two_loop_poses1", 12),
        (None, "two_loop_poses2", 12),
        ("features", "two_loop_features1", 12),
        ("scores", "scores_40x40", 120),
    ]:
        texts[reader] = "".join((DATA / f"{name}.txt").read_text().splitlines(keepends=True)[:size])
        (workdir / f"{name}.txt").write_text(texts[reader])
    return workdir, texts


def fuzz_argv(workdir, reader, path):
    poses, features = str(workdir / "two_loop_poses2.txt"), str(DATA / "features_40.txt")
    out = str(workdir / "out.json")
    return {
        "poses": ["build-graph", "--poses1", path, "--poses2", poses, "--eta", "0.5", "--out", out],
        "features": ["build-graph", "--poses1", str(workdir / "two_loop_poses1.txt"), "--poses2", poses,
                     "--features1", path, "--out", out],
        "scores": ["build-graph", "--scores", path, "--features1", features, "--features2", features, "--out", out],
        "ground truth": ["simulate", "--graph", DOUBLE_STAR, "--ground-truth", path],
    }[reader]  # fmt: skip


def mutated(data, text, extra_tokens=()):
    """``text`` after one to three token or line edits, each new token one
    of ``HOSTILE_TOKENS`` and ``extra_tokens`` or a short random text."""
    lines = [line.split() for line in text.splitlines()]
    hostile = st.sampled_from([*HOSTILE_TOKENS, *extra_tokens])
    tokens = st.one_of(hostile, st.text(st.characters(exclude_categories=["Cs"]), max_size=6))
    for _ in range(data.draw(st.integers(1, 3), label="edits")):
        i = data.draw(st.integers(0, len(lines)), label="line")
        edit = data.draw(st.sampled_from(["replace", "insert", "delete", "drop line", "copy line", "blank line"]))
        if edit == "blank line" or i == len(lines):
            lines.insert(i, [])
        elif edit == "drop line":
            del lines[i]
        elif edit == "copy line":
            lines.insert(i, list(lines[i]))
        else:
            k = data.draw(st.integers(0, len(lines[i])), label="token")
            if edit == "insert" or k == len(lines[i]):
                lines[i].insert(k, data.draw(tokens))
            elif edit == "delete":
                del lines[i][k]
            else:
                lines[i][k] = data.draw(tokens)
    return "".join(" ".join(line) + "\n" for line in lines)


@pytest.mark.parametrize("reader", ["poses", "features", "scores", "ground truth"])
@settings(max_examples=FUZZ_EXAMPLES, deadline=None)
@given(data=st.data())
def test_mutated_reader_input_exits_cleanly(fuzz_workdir, reader, data):
    workdir, texts = fuzz_workdir
    path = workdir / "mutated.txt"
    path.write_text(mutated(data, texts[reader]), encoding="utf-8")
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), warnings.catch_warnings():
        warnings.simplefilter("ignore")
        code = main(fuzz_argv(workdir, reader, str(path)))
    assert code in (0, 2, 3), err.getvalue()
    assert "Traceback" not in err.getvalue()
    assert len(err.getvalue().encode()) < 1024, err.getvalue()[:200]


APPEARANCE_INPUTS = [
    "--scores", str(DATA / "scores_40x40.txt"),
    "--features1", str(DATA / "features_40.txt"),
    "--features2", str(DATA / "features_40.txt"),
]


@pytest.mark.parametrize(
    "argv, digest",
    [
        (
            [*FIXTURE_POSES, "--parameter", "dmax", "--start", "2", "--stop", "60", "--step", "2", "--eta", "0"],
            "b2c6417f46554e61b289ae819680eb0c4671d82c1869413a0b4fbeecdae7c822",
        ),
        (
            [*FIXTURE_POSES, "--parameter", "eta", "--start", "0", "--stop", "0.9", "--step", "0.1", "--dmax", "30"],
            "a91f9dc81b70b83806d9a615e97c25d586abab469630be3738f4046d983d2426",
        ),
        (
            # many pairs whose overlap lies near eta, where the gate's bounds
            # leave the pair to the FOV quadrature
            [*FIXTURE_POSES, "--parameter", "eta", "--start", "0.3", "--stop", "0.5", "--step", "0.01", "--dmax", "30"],
            "2608bf93b0401c483d39bde99936787c81cde94104ecdf7e000d2963d4d0aef6",
        ),
        (
            [*APPEARANCE_INPUTS, "--parameter", "alpha", "--start", "0.1", "--stop", "0.95", "--step", "0.05"],
            "62a71cb68eef56ff2f217ac7a19b809ea394e8e1a8baa99376124b07a6c42f71",
        ),
        (
            ["--parameter", "omega", "--graph", DOUBLE_STAR, "--start", "0", "--stop", "1", "--step", "0.5"],
            "9550bf35b29d67289f1d35a93436b81d3bca433181e68beb8f365e9a017b2211",
        ),
    ],
    ids=["dmax", "eta", "eta-dense", "alpha", "omega"],
)
def test_sweep_csv_digests(capsys, argv, digest):
    # the digests that CI checks on the installed entry point
    code, out, _ = run(capsys, "sweep", *argv)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_sweep_cuts_every_point_with_one_flow(capsys, monkeypatch):
    from scanplan import solver

    networks = []
    flow = solver._min_cut_reachable_scipy
    monkeypatch.setattr(solver, "_min_cut_reachable_scipy", lambda *net: networks.append(net) or flow(*net))
    code, out, _ = run(
        capsys,
        "sweep", *FIXTURE_POSES, "--parameter", "dmax", "--start", "2", "--stop", "60", "--step", "2", "--eta", "0",
    )
    assert code == 0
    assert len(networks) == 1
    # the joined network holds every point's side-1 and side-2 nodes
    points = [line.split(",") for line in out.splitlines()[1:]]
    assert networks[0][0] == 2 + sum(int(point[5]) for point in points)


SOLVE_IMPORTS = """
import sys
from scanplan import cli

real = cli.solve


def solve(*args, **kwargs):
    print("compiled engine loaded:", "scipy.sparse.csgraph" in sys.modules)
    return real(*args, **kwargs)


cli.solve = solve
graph = sys.argv[1]
assert cli.main(["solve", "--graph", graph, "--engine", "dinic"]) == 0
print("scipy loaded:", any(name.split(".")[0] == "scipy" for name in sys.modules))
assert cli.main(["solve", "--graph", graph]) == 0
"""


def test_solve_seconds_times_the_solve_alone():
    # the exact engine imports no scipy module, and the automatic choice
    # imports the compiled engine before the timer starts; the child
    # imports the scanplan package that this test imported
    package_root = Path(sp.__file__).resolve().parent.parent
    done = subprocess.run(
        [sys.executable, "-c", SOLVE_IMPORTS, DOUBLE_STAR],
        env={**os.environ, "PYTHONPATH": str(package_root)},
        capture_output=True,
        text=True,
    )
    assert done.returncode == 0, done.stderr
    loaded = [line for line in done.stdout.splitlines() if "loaded" in line]
    assert loaded == ["compiled engine loaded: False", "scipy loaded: False", "compiled engine loaded: True"]


# -- the entry-point checks, through cli.main; CI runs this file on the installed package --

KITTI_P3 = ["--objective", "p3", "--alpha1", "1", "--alpha2", "2", "--omega", "1/10"]


@pytest.fixture(scope="module")
def kitti_graph(tmp_path_factory) -> str:
    path = str(tmp_path_factory.mktemp("kitti") / "kitti.json")
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["build-graph", *FIXTURE_POSES, "--dmax", "30", "--eta", "0.4", "--out", path]) == 0
    return path


@pytest.mark.parametrize(
    "graph, objective, engines",
    [
        ("kitti", KITTI_P3, [[], ["--engine", "dinic"]]),
        ("star", ["--objective", "p2"], [["--engine", "scipy"], ["--engine", "dinic"]]),
    ],
    ids=["kitti-p3", "double-star-p2"],
)
def test_engines_write_byte_identical_policy_files(capsys, tmp_path, kitti_graph, graph, objective, engines):
    # on the double star the exact engine's greedy flow is 1 and one Dinic
    # phase raises it to 2
    path = kitti_graph if graph == "kitti" else DOUBLE_STAR
    written = []
    for k, engine in enumerate(engines):
        out = tmp_path / f"policy{k}.json"
        code, _, _ = run(capsys, "solve", "--graph", path, *objective, *engine, "--policy-out", str(out))
        assert code == 0
        written.append(out.read_bytes())
    assert written[0] == written[1]


def test_solved_and_file_policies_write_one_trace(capsys, tmp_path, kitti_graph):
    # the solved policy (kept as masks) and the same policy read from its
    # file (kept as sets) give one trace
    policy = tmp_path / "policy.json"
    assert run(capsys, "solve", "--graph", kitti_graph, *KITTI_P3, "--policy-out", str(policy))[0] == 0
    traces = []
    for name, extra in (("solved", []), ("file", ["--policy", str(policy)])):
        trace = tmp_path / f"{name}.log"
        code, _, _ = run(capsys, "simulate", "--graph", kitti_graph, *extra, *KITTI_P3, "--trace-out", str(trace))
        assert code == 0
        traces.append(trace.read_bytes())
    assert traces[0] == traces[1]
    # a dead channel, and the broker hosted on robot 1, which zeroes its legs
    trace = tmp_path / "broker.log"
    argv = ["--policy", str(policy), *KITTI_P3, "--channel-dead", "--broker-host", "1", "--trace-out", str(trace)]
    code, _, _ = run(capsys, "simulate", "--graph", kitti_graph, *argv)
    assert code == 0
    assert trace.read_text().startswith("metadata robot1 broker 0 ")


def test_score_file_refused_by_the_compiled_parse_names_the_bad_line(capsys, tmp_path):
    # the line loop that runs after the compiled parse names the short line
    scores = tmp_path / "scores-bad.txt"
    scores.write_text((DATA / "scores_40x40.txt").read_text() + "0 1\n")
    code, _, err = run(
        capsys,
        "build-graph", "--scores", str(scores), "--features1", str(DATA / "features_40.txt"),
        "--features2", str(DATA / "features_40.txt"), "--alpha", "0.5", "--out", str(tmp_path / "scores-bad.json"),
    )
    assert code == 2
    assert err == f"error: {scores}:1601: expected 'u v score'\n"
