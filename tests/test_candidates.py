"""Candidate generation: FOV-overlap quadrature, geometric and appearance
gating (each against a brute-force reference), and pose-file ingestion."""

import math
import random

import numpy as np
import pytest

import scanplan as sp
from scanplan.candidates import (
    DESCRIPTOR_BYTES,
    AppearanceParams,
    GeometryParams,
    Trajectory,
    build_appearance,
    build_geometric,
    fov_overlap,
    make_pose,
    read_feature_counts,
    read_kitti_poses,
    read_scores,
    subsample,
    synthetic_two_loop,
    write_feature_counts,
    write_kitti_poses,
)


HALF, RANGE = 0.7, 30.0


def mc_overlap(pa, heading_a, pb, heading_b, half, r, samples=10**6, seed=42):
    """Monte-Carlo rejection-sampling oracle for the sector overlap."""
    rng = np.random.default_rng(seed)
    lo = [min(pa[0], pb[0]) - r, min(pa[1], pb[1]) - r]
    hi = [max(pa[0], pb[0]) + r, max(pa[1], pb[1]) + r]
    pts = rng.uniform(lo, hi, size=(samples, 2))

    def in_sector(p, ang):
        h = np.array([math.sin(ang), math.cos(ang)])
        d = pts - np.array(p)
        dist = np.hypot(d[:, 0], d[:, 1])
        return (dist <= r) & (d @ h >= math.cos(half) * dist)

    a = in_sector(pa, heading_a)
    b = in_sector(pb, heading_b)
    return 2 * int((a & b).sum()) / (int(a.sum()) + int(b.sum()))


def test_identical_poses_overlap_fully():
    p = make_pose(0, 3.0, -2.0, 0.4)
    assert fov_overlap(p, p, HALF, RANGE) == 1.0


def test_disjoint_sectors_overlap_zero():
    a = make_pose(0, 0.0, 0.0, 0.0)
    b = make_pose(1, 0.0, 70.0, math.pi)  # back-to-back beyond 2*range
    assert fov_overlap(a, b, HALF, RANGE) == 0.0


def test_overlap_matches_monte_carlo():
    # 45 degree mutual bearing, half a range apart
    a = make_pose(0, 0.0, 0.0, 0.0)
    b = make_pose(1, 10.6, 10.6, -math.pi / 4)
    got = fov_overlap(a, b, HALF, RANGE)
    ref = mc_overlap((0, 0), 0.0, (10.6, 10.6), -math.pi / 4, HALF, RANGE)
    assert ref == pytest.approx(0.6798, abs=2e-3)  # frozen oracle value
    assert got == pytest.approx(ref, abs=1e-2)


def test_overlap_symmetric_and_bounded():
    rng = random.Random(3)
    for _ in range(12):
        a = make_pose(0, rng.uniform(-20, 20), rng.uniform(-20, 20), rng.uniform(-3, 3))
        b = make_pose(1, rng.uniform(-20, 20), rng.uniform(-20, 20), rng.uniform(-3, 3))
        ab = fov_overlap(a, b, HALF, RANGE)
        assert ab == fov_overlap(b, a, HALF, RANGE)
        assert 0.0 <= ab <= 1.0


def test_degenerate_zero_range_overlaps_nothing():
    p = make_pose(0, 0.0, 0.0, 0.0)
    assert fov_overlap(p, p, HALF, 0.0) == 0.0


# -- geometric gating ---------------------------------------------------------


def two_pose_trajectories(distance, facing_each_other=True):
    a = make_pose(0, 0.0, 0.0, 0.0)
    heading_b = math.pi if facing_each_other else 0.0
    b = make_pose(0, 0.0, distance, heading_b)
    return Trajectory([a]), Trajectory([b])


def test_distance_gate_alone():
    t1, t2 = two_pose_trajectories(10.0)
    g = build_geometric(t1, t2, GeometryParams(d_max=30, eta=0.0))
    assert g.num_edges == 1


def test_distance_gate_rejects_far_pair():
    t1, t2 = two_pose_trajectories(40.0)
    with pytest.warns(UserWarning):
        g = build_geometric(t1, t2, GeometryParams(d_max=30, eta=0.0))
    assert g.num_edges == 0 and g.num_vertices == 0


def test_geometric_matches_double_loop_oracle():
    t1, t2 = synthetic_two_loop(60)
    params = GeometryParams(d_max=30, eta=0.4)
    g = build_geometric(t1, t2, params)
    expected = set()
    for i, a in enumerate(t1):
        for j, b in enumerate(t2):
            if float(np.linalg.norm(a.position - b.position)) > params.d_max:
                continue
            if fov_overlap(a, b, params.fov_half_angle, params.fov_range) < params.eta:
                continue
            expected.add((sp.VertexId(1, i), sp.VertexId(2, j)))
    assert g.edge_keys() == expected


def test_geometric_weights_are_feature_count_times_descriptor():
    t1, t2 = two_pose_trajectories(5.0)
    t1 = Trajectory([make_pose(0, 0.0, 0.0, 0.0, feature_count=11)])
    g = build_geometric(t1, t2, GeometryParams(d_max=30, eta=0.0))
    assert g.scan_weight(sp.VertexId(1, 0)) == 11 * DESCRIPTOR_BYTES


def test_geometric_transpose_symmetry():
    t1, t2 = synthetic_two_loop(40)
    params = GeometryParams(d_max=25, eta=0.3)
    g12 = build_geometric(t1, t2, params)
    g21 = build_geometric(t2, t1, params)
    flipped = {
        (sp.VertexId(1, v.index), sp.VertexId(2, u.index)) for u, v in g21.edge_keys()
    }
    assert g12.edge_keys() == flipped


def test_candidate_sets_nest_along_gates():
    t1, t2 = synthetic_two_loop(50)
    by_dmax = [
        build_geometric(t1, t2, GeometryParams(d_max=d, eta=0.2)).edge_keys()
        for d in (10, 20, 30)
    ]
    assert by_dmax[0] <= by_dmax[1] <= by_dmax[2]
    by_eta = [
        build_geometric(t1, t2, GeometryParams(d_max=30, eta=e)).edge_keys()
        for e in (0.1, 0.4, 0.7)
    ]
    assert by_eta[2] <= by_eta[1] <= by_eta[0]


def test_subsample_keeps_ceil_n_over_r():
    t1, _ = synthetic_two_loop(50)
    for r in (1, 2, 3, 7, 49, 50, 51):
        assert len(subsample(t1, r)) == math.ceil(len(t1) / r)


def test_subsample_feeds_build():
    t1, t2 = synthetic_two_loop(60)
    g_full = build_geometric(t1, t2, GeometryParams(d_max=20, eta=0.0))
    g_half = build_geometric(t1, t2, GeometryParams(d_max=20, eta=0.0, rate_divisor=2))
    assert g_half.num_vertices <= g_full.num_vertices


def test_empty_trajectory_rejected():
    t1, _ = synthetic_two_loop(10)
    with pytest.raises(sp.EmptyTrajectory):
        build_geometric(t1, Trajectory([]), GeometryParams(d_max=10, eta=0.0))


def test_pose_ids_must_increase():
    a = make_pose(5, 0.0, 0.0, 0.0)
    b = make_pose(5, 1.0, 0.0, 0.0)
    with pytest.raises(sp.ValidationError):
        Trajectory([a, b])


def test_rotation_validation():
    bad = sp.Pose(0, np.zeros(3), np.eye(3) * 2.0)
    with pytest.raises(sp.ValidationError):
        Trajectory([bad])


# -- appearance gating ----------------------------------------------------------


def test_appearance_top2_selection():
    scores = [(0, 0, 0.9), (0, 1, 0.8), (0, 2, 0.7)]
    g = build_appearance(scores, [1], [1, 1, 1], AppearanceParams(alpha=0.5, top_k=2))
    assert g.edge_keys() == {
        (sp.VertexId(1, 0), sp.VertexId(2, 0)),
        (sp.VertexId(1, 0), sp.VertexId(2, 1)),
    }


def test_appearance_all_below_threshold_empty():
    scores = [(0, 0, 0.2), (0, 1, 0.1)]
    with pytest.warns(UserWarning):
        g = build_appearance(scores, [1], [1, 1], AppearanceParams(alpha=0.5, top_k=2))
    assert g.num_vertices == 0


def test_appearance_threshold_is_strict():
    with pytest.warns(UserWarning):
        g = build_appearance([(0, 0, 0.5)], [1], [1], AppearanceParams(alpha=0.5))
    assert g.num_edges == 0


def test_appearance_tie_breaks_to_lower_index():
    scores = [(0, 2, 0.8), (0, 1, 0.8), (0, 0, 0.8)]
    g = build_appearance(scores, [1], [1, 1, 1], AppearanceParams(alpha=0.1, top_k=2))
    assert g.edge_keys() == {
        (sp.VertexId(1, 0), sp.VertexId(2, 0)),
        (sp.VertexId(1, 0), sp.VertexId(2, 1)),
    }


def test_appearance_matches_sort_oracle():
    rng = random.Random(17)
    n = 50
    scores = [
        (i, j, round(rng.random(), 6)) for i in range(n) for j in range(n)
    ]
    params = AppearanceParams(alpha=0.3, top_k=2)
    g = build_appearance(scores, [1] * n, [1] * n, params)
    expected = set()
    for i in range(n):
        row = [(s, j) for (u, j, s) in scores if u == i and s > params.alpha]
        row.sort(key=lambda t: (-t[0], t[1]))
        for s, j in row[:2]:
            expected.add((sp.VertexId(1, i), sp.VertexId(2, j)))
    assert g.edge_keys() == expected


def test_appearance_symmetric_mode_adds_reverse_queries():
    # side-2 vertex 1 loses every side-1 query but wins its own
    scores = [(0, 0, 0.9), (0, 1, 0.5), (1, 0, 0.8), (1, 1, 0.4)]
    with pytest.warns(UserWarning):  # vertex 2:1 pruned in one-way mode
        one_way = build_appearance(scores, [1, 1], [1, 1], AppearanceParams(alpha=0.1, top_k=1))
    both = build_appearance(
        scores, [1, 1], [1, 1], AppearanceParams(alpha=0.1, top_k=1, symmetric=True)
    )
    assert one_way.edge_keys() == {
        (sp.VertexId(1, 0), sp.VertexId(2, 0)),
        (sp.VertexId(1, 1), sp.VertexId(2, 0)),
    }
    assert both.edge_keys() == one_way.edge_keys() | {
        (sp.VertexId(1, 0), sp.VertexId(2, 1))
    }


def test_score_out_of_range():
    with pytest.raises(sp.ScoreOutOfRange):
        build_appearance([(0, 0, 1.5)], [1], [1], AppearanceParams(alpha=0.5))


# -- file ingestion --------------------------------------------------------------


def test_kitti_round_trip(tmp_path):
    t1, _ = synthetic_two_loop(20)
    pose_file = tmp_path / "poses.txt"
    feat_file = tmp_path / "feats.txt"
    write_kitti_poses(t1, pose_file)
    write_feature_counts(t1, feat_file)
    counts = read_feature_counts(feat_file)
    again = read_kitti_poses(pose_file, counts)
    assert len(again) == len(t1)
    for a, b in zip(t1, again):
        assert np.allclose(a.position, b.position)
        assert np.allclose(a.rotation, b.rotation, atol=1e-12)
        assert a.feature_count == b.feature_count


def test_kitti_rejects_wrong_field_count(tmp_path):
    f = tmp_path / "bad.txt"
    f.write_text("1 0 0 0 0 1 0 0 0 0 1\n")  # 11 values
    with pytest.raises(sp.GraphFormatError):
        read_kitti_poses(f)


def test_kitti_orthonormalizes_rounded_rotations(tmp_path):
    # entries rounded to 4 decimals are far outside the 1e-9 tolerance
    theta = 0.7
    c, s = math.cos(theta), math.sin(theta)
    row = [round(v, 4) for v in (c, 0, s, 1.0, 0, 1, 0, 2.0, -s, 0, c, 3.0)]
    f = tmp_path / "poses.txt"
    f.write_text(" ".join(str(v) for v in row) + "\n")
    traj = read_kitti_poses(f)
    r = traj[0].rotation
    assert np.abs(r @ r.T - np.eye(3)).max() <= 1e-9


def test_score_file_parsing(tmp_path):
    f = tmp_path / "scores.txt"
    f.write_text("0 1 0.5\n2 3 0.25\n")
    assert read_scores(f) == [(0, 1, 0.5), (2, 3, 0.25)]
    f.write_text("0 1\n")
    with pytest.raises(sp.GraphFormatError):
        read_scores(f)


def test_feature_count_file_rejects_negative(tmp_path):
    f = tmp_path / "counts.txt"
    f.write_text("3\n-1\n")
    with pytest.raises(sp.GraphFormatError):
        read_feature_counts(f)


@pytest.mark.parametrize("field", ["d_max", "eta", "fov_half_angle", "fov_range"])
@pytest.mark.parametrize("value", [float("nan"), float("inf")])
def test_geometry_params_reject_non_finite(field, value):
    params = {"d_max": 10.0, "eta": 0.5, field: value}
    with pytest.raises(sp.ValidationError, match="finite"):
        GeometryParams(**params)


def test_geometry_params_validation():
    with pytest.raises(sp.ValidationError):
        GeometryParams(d_max=0, eta=0.0)
    with pytest.raises(sp.ValidationError):
        GeometryParams(d_max=10, eta=1.5)
    with pytest.raises(sp.ValidationError):
        AppearanceParams(alpha=-0.1)
