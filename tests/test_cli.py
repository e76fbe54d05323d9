"""Command-line interface: subcommands, exit codes, CSV determinism."""

import subprocess
import sys
from pathlib import Path

import pytest

import scanplan as sp
from scanplan.cli import main

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


def test_invariant_violation_exits_4(capsys, monkeypatch):
    def wrong_flow(*network):
        return 0, set()

    monkeypatch.setattr("scanplan.solver._min_cut_reachable_scipy", wrong_flow)
    code, _, err = run(capsys, "solve", "--graph", DOUBLE_STAR)
    assert code == 4
    assert "internal error" in err


def test_check_monolog_double_star(capsys, tmp_path):
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
    code, _, _ = run(
        capsys,
        "build-graph",
        "--scores", str(DATA / "scores_40x40.txt"),
        "--features1", str(DATA / "features_40.txt"),
        "--features2", str(DATA / "features_40.txt"),
        "--alpha", "0.6", "--top-k", "2", "--out", str(out_file),
    )
    assert code == 0
    g = sp.load_graph(out_file)
    assert 0 < g.num_edges <= 80


def test_sweep_dmax_deterministic_and_consistent(capsys, tmp_path):
    args = [
        "sweep", "--parameter", "dmax", "--start", "10", "--stop", "50", "--step", "10",
        "--synthetic", "--synthetic-poses", "60", "--eta", "0",
    ]
    code, out1, err1 = run(capsys, *args)
    assert code == 0
    code, out2, _ = run(capsys, *args)
    assert out1 == out2  # byte-for-byte deterministic
    assert "nesting non-decreasing: ok" in err1
    lines = out1.strip().splitlines()
    assert lines[0] == "param,optimal,monolog1,monolog2,bidirectional,num_vertices,num_edges"
    assert len(lines) == 6
    # each row's optimal equals a fresh solve of the graph built at that value
    from scanplan.candidates import GeometryParams, build_geometric, synthetic_two_loop

    t1, t2 = synthetic_two_loop(60)
    for row in lines[1:]:
        cells = row.split(",")
        g = build_geometric(t1, t2, GeometryParams(d_max=float(cells[0]), eta=0.0))
        expect = sp.solve(g, sp.Objective.p2()).optimal_cost if g.num_vertices else 0
        assert cells[1] == str(expect)
        # optimal never beats the feasibility ordering
        assert int(cells[1]) <= min(int(cells[2]), int(cells[3]))


def test_sweep_alpha_edge_counts_non_increasing(capsys):
    code, out, _ = run(
        capsys,
        "sweep", "--parameter", "alpha", "--start", "0.1", "--stop", "0.9", "--step", "0.2",
        "--scores", str(DATA / "scores_40x40.txt"),
        "--features1", str(DATA / "features_40.txt"),
        "--features2", str(DATA / "features_40.txt"),
    )
    assert code == 0
    edge_counts = [int(row.split(",")[-1]) for row in out.strip().splitlines()[1:]]
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
    code, out, _ = run(
        capsys,
        "simulate", "--graph", DOUBLE_STAR, "--policy", str(policy_file),
        "--trace-out", str(tmp_path / "t.log"),
    )
    assert code == 0
    assert "scan_bytes 2" in out


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
