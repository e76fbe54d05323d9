"""Candidate generation: FOV-overlap quadrature, geometric and appearance
gating (each against a brute-force reference), and pose-file ingestion."""

import io
import math
import random
import re
import tracemalloc
import urllib.request
import warnings
from fractions import Fraction
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import scanplan as sp
from scanplan import candidates
from scanplan.candidates import (
    DESCRIPTOR_BYTES,
    AppearanceParams,
    GeometryParams,
    Trajectory,
    build_appearance,
    build_appearance_sweep,
    build_geometric,
    build_geometric_sweep,
    fov_overlap,
    make_pose,
    planar_heading,
    planar_position,
    read_feature_counts,
    read_kitti_poses,
    read_scores,
    synthetic_two_loop,
)
from conftest import subsample, write_feature_counts, write_kitti_poses
from test_cli import mutated


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


def seed_fov_overlap(pose_a, pose_b, fov_half_angle, fov_range, resolution=256):
    """Frozen reference: the original full-lattice meshgrid quadrature.
    The kernel must return exactly (``==``) what this returns."""
    if fov_range <= 0 or fov_half_angle <= 0:
        return 0.0
    pa, pb = planar_position(pose_a), planar_position(pose_b)
    if float(np.hypot(*(pa - pb))) > 2 * fov_range:
        return 0.0
    n_a, n_b, n_ab = seed_fov_counts(pose_a, pose_b, fov_half_angle, fov_range, resolution)
    if n_a + n_b == 0:
        return 0.0
    return 2.0 * n_ab / (n_a + n_b)


def seed_fov_counts(pose_a, pose_b, fov_half_angle, fov_range, resolution=256):
    """The frozen reference's lattice counts: the cells in each sector and
    in both."""
    mask_a, mask_b = seed_fov_masks(pose_a, pose_b, fov_half_angle, fov_range, resolution)
    return int(mask_a.sum()), int(mask_b.sum()), int((mask_a & mask_b).sum())


def seed_fov_masks(pose_a, pose_b, fov_half_angle, fov_range, resolution=256):
    """The frozen reference's (row, column) lattice masks of each sector's
    cells."""
    pa, pb = planar_position(pose_a), planar_position(pose_b)
    ha, hb = planar_heading(pose_a), planar_heading(pose_b)
    r = float(fov_range)
    lo = np.minimum(pa, pb) - r
    hi = np.maximum(pa, pb) + r
    n = int(resolution)
    xs = lo[0] + (np.arange(n) + 0.5) * (hi[0] - lo[0]) / n
    zs = lo[1] + (np.arange(n) + 0.5) * (hi[1] - lo[1]) / n
    gx, gz = np.meshgrid(xs, zs, indexing="ij")
    cos_half = math.cos(fov_half_angle)

    def sector_mask(p, h):
        dx = gx - p[0]
        dz = gz - p[1]
        dist = np.hypot(dx, dz)
        return (dist <= r) & (dx * h[0] + dz * h[1] >= cos_half * dist)

    return sector_mask(pa, ha), sector_mask(pb, hb)


def two_loop_fixture():
    data = Path(__file__).parent / "data"
    return tuple(
        read_kitti_poses(data / f"two_loop_poses{s}.txt", read_feature_counts(data / f"two_loop_features{s}.txt"))
        for s in (1, 2)
    )


def test_kernel_matches_seed_on_every_gated_fixture_pair():
    t1, t2 = two_loop_fixture()
    pos1 = np.array([pose.position for pose in t1])
    pos2 = np.array([pose.position for pose in t2])
    pairs = np.argwhere(np.linalg.norm(pos1[:, None, :] - pos2[None, :, :], axis=2) <= 30).tolist()
    assert len(pairs) == 1065
    got = [fov_overlap(t1[i], t2[j], HALF, RANGE) for i, j in pairs]
    assert got == [seed_fov_overlap(t1[i], t2[j], HALF, RANGE) for i, j in pairs]
    assert sum(v >= 0.4 for v in got) == 233


def test_kernel_counts_lattice_lines_exactly_at_range():
    # 7 cells over [-1, 3]: the centre (1, 0) lies exactly fov_range from
    # pose a, so the window bound |dx| <= r must include it
    a = make_pose(0, 0.0, 0.0, math.pi / 2)
    b = make_pose(1, 2.0, 0.0, -math.pi / 2)
    for half in (0.3, 1.0, 2.0):
        expected = seed_fov_overlap(a, b, half, 1.0, 7)
        assert fov_overlap(a, b, half, 1.0, 7) == expected > 0


coordinate = st.floats(-100, 100)
angle = st.floats(-math.pi, math.pi)


@st.composite
def sector_pairs(draw):
    """Two poses and a sector shape: identical poses, separations within a
    few ulps of ``2 * fov_range``, or anywhere; half-angles past pi/2
    (negative ``cos_half``); tiny, overflowing and NaN ranges."""
    fov_range = draw(st.one_of(st.floats(0.5, 60), st.sampled_from([5e-324, 1e-300, 1e308, math.nan])))
    half = draw(st.floats(0.01, math.pi))
    x, z, heading = draw(coordinate), draw(coordinate), draw(angle)
    kind = draw(st.sampled_from(["identical", "limit", "anywhere"]))
    if kind == "identical":
        bx, bz = x, z
    elif kind == "limit":
        bearing = draw(angle)
        sep = 2 * fov_range * draw(st.sampled_from([1 - 2e-16, 1.0, 1 + 2e-16, 1 - 1e-9, 1 + 1e-9]))
        bx, bz = x + sep * math.sin(bearing), z + sep * math.cos(bearing)
    else:
        bx, bz = draw(coordinate), draw(coordinate)
    b_heading = heading if kind == "identical" else draw(angle)
    return make_pose(0, x, z, heading), make_pose(1, bx, bz, b_heading), half, fov_range


@settings(max_examples=150, deadline=None)
@given(sector_pairs(), st.sampled_from([1, 2, 7, 256]))
def test_kernel_matches_seed_on_random_sectors(case, resolution):
    a, b, half, fov_range = case
    with np.errstate(all="ignore"):  # the reference warns on overflowing ranges
        expected = seed_fov_overlap(a, b, half, fov_range, resolution)
    if math.isnan(fov_range) or not np.isfinite(planar_position(b)).all():
        # fov_overlap refuses a NaN range, and a pose 2 * 1e308 away, at an
        # infinite position; the quadrature behind it must still match the
        # reference
        refusal = "fov_range must be finite, got nan" if math.isnan(fov_range) else "pose_b has a non-finite"
        with pytest.raises(sp.ValidationError, match=f"^{refusal}"):
            fov_overlap(a, b, half, fov_range, resolution)
        for p, q in ((a, b), (b, a)):
            assert candidates._fov_overlaps(*planar([p]), *planar([q]), half, fov_range, resolution) == [expected]
        return
    assert fov_overlap(a, b, half, fov_range, resolution) == expected
    assert fov_overlap(b, a, half, fov_range, resolution) == expected


@pytest.mark.parametrize("fov_range", [1e308, math.inf, math.nan])
def test_extreme_ranges_overlap_zero_without_numpy_warnings(fov_range):
    p = make_pose(0, 3.0, -2.0, 0.4)
    far = make_pose(1, 1e308, -1e308, 2.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        # fov_overlap refuses a non-finite range, which the quadrature behind it still takes
        for q in (p, far):
            assert candidates._fov_overlaps(*planar([p]), *planar([q]), HALF, fov_range) == [0.0]
            if math.isfinite(fov_range):
                assert fov_overlap(p, q, HALF, fov_range) == 0.0


def test_build_geometric_extreme_range_without_numpy_warnings():
    t1, t2 = synthetic_two_loop(12)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        warnings.simplefilter("ignore", UserWarning)  # every vertex is pruned
        g = build_geometric(t1, t2, GeometryParams(d_max=30, eta=0.4, fov_range=1e308))
    assert g.num_edges == 0


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


@pytest.mark.parametrize("resolution", [0, -1, 2.5, True, "7", 2**20 + 1, 10**18])
def test_fov_overlap_refuses_a_non_count_resolution(resolution):
    p = make_pose(0, 0.0, 0.0, 0.0)
    with pytest.raises(sp.ValidationError, match="^resolution must be"):
        fov_overlap(p, p, HALF, RANGE, resolution)


@pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
@pytest.mark.parametrize("argument", ["fov_half_angle", "fov_range"])
def test_fov_overlap_refuses_non_finite_geometry(monkeypatch, argument, value):
    def quadrature(*args):
        raise AssertionError("the quadrature ran")

    monkeypatch.setattr(candidates, "_fov_overlaps", quadrature)
    p = make_pose(0, 0.0, 0.0, 0.0)
    shape = {"fov_half_angle": HALF, "fov_range": RANGE, argument: value}
    with pytest.raises(sp.ValidationError, match=f"^{argument} must be finite, got {value}$"):
        fov_overlap(p, p, **shape)


def tilted(rotation_entry, value):
    """The identity rotation with one entry set to ``value``."""
    rotation = np.eye(3)
    rotation[rotation_entry] = value
    return rotation


@pytest.mark.parametrize(
    "position, rotation",
    [
        (np.zeros(3), np.full((3, 3), np.nan)),
        (np.zeros(3), tilted((0, 2), np.inf)),
        (np.array([np.inf, 0.0, 0.0]), np.eye(3)),
        (np.array([0.0, 0.0, -np.inf]), np.eye(3)),
    ],
    ids=["nan-rotation", "inf-forward", "inf-x", "inf-z"],
)
def test_fov_overlap_refuses_a_non_finite_pose(monkeypatch, position, rotation):
    # a NaN rotation returned 0.0 after evaluating every lattice cell,
    # though Trajectory refuses the same pose
    def quadrature(*args):
        raise AssertionError("the quadrature ran")

    monkeypatch.setattr(candidates, "_fov_overlaps", quadrature)
    p, bad = make_pose(0, 0.0, 0.0, 0.0), candidates.Pose(1, position, rotation)
    for name, pair in (("pose_a", (bad, p)), ("pose_b", (p, bad))):
        with pytest.raises(sp.ValidationError, match=f"^{name} has a non-finite planar position or heading$"):
            fov_overlap(*pair, HALF, RANGE)


@pytest.mark.parametrize(
    "a, b",
    [((1e18, 0.0), (1e18, 5.0)), ((0.0, 1e18), (5.0, 1e18))],
    ids=["far-x", "far-z"],
)
def test_full_row_pairs_are_refused_past_resolution_2_12(monkeypatch, a, b):
    # far from the origin for a 30 m range, every lattice cell is
    # evaluated: 1.5 s at 4096, about 4-5x more per doubling
    a, b = make_pose(0, *a, 0.3), make_pose(1, *b, 1.0)
    assert fov_overlap(a, b, HALF, RANGE, 64) == seed_fov_overlap(a, b, HALF, RANGE, 64)

    def rows(*args):
        raise AssertionError("a lattice row was evaluated")

    monkeypatch.setattr(candidates, "_live_rows", rows)
    with pytest.raises(sp.ValidationError, match=r"^resolution 4097 is above 2\*\*12 for a pair outside") as refused:
        fov_overlap(a, b, HALF, RANGE, 2**12 + 1)
    assert len(str(refused.value)) < 300


def test_a_pair_the_error_bound_covers_is_accepted_at_2_16():
    a, b = make_pose(0, 0.0, 0.0, 0.0), make_pose(1, 10.6, 10.6, -math.pi / 4)
    assert fov_overlap(a, b, HALF, RANGE, 2**16) == pytest.approx(fov_overlap(a, b, HALF, RANGE), abs=1e-2)


def test_degenerate_zero_range_overlaps_nothing():
    p = make_pose(0, 0.0, 0.0, 0.0)
    assert fov_overlap(p, p, HALF, 0.0) == 0.0


# -- row-band filter: adversarial shapes against the frozen reference ---------


ADVERSARIAL_KINDS = ("axis", "half", "near", "row", "lattice", "same", "2r", "any", "split", "touch", "extent")
ADVERSARIAL_HALVES = (1e-300, 1e-8, 1e-6, 1e-3, 0.3, 0.7, math.pi / 4, math.pi / 2, 2.0, math.pi - 1e-6, math.pi, 4.0, 1e3)
ADVERSARIAL_RANGES = (1e-100, 1e-3, 0.5, 7.3, 30.0, 1e4, 1e100)


def sector_reach(heading, axis, half, r):
    """How far a sector reaches beyond its apex along the direction
    ``axis``, both given as ``make_pose`` headings."""
    return r * max(0.0, math.cos(max(0.0, abs(math.remainder(axis - heading, 2 * math.pi)) - half)))


def adversarial_sector_pair(rng, kind, half, r, resolution):
    """Two poses built to sit on the row-band filter's and the culls' edge
    cases for a sector of this half-angle and range: headings along the
    lattice axes, at +-half (a boundary ray parallel to the rows), just off
    it (a long wedge band) or within a wedge's half-width of it (wedge ends
    on both sides of the row direction) with the middle lattice row on or
    near both apexes, an apex on or next to a lattice line, coincident
    poses, poses 2r apart within ulps, sectors a hair apart along a lattice
    axis, a cone edge's normal or the apex-to-apex direction, disks
    touching head-on, and a sector along +-x whose x-extent ends on a
    lattice row."""
    x, z = rng.uniform(-3, 3) * r, rng.uniform(-3, 3) * r
    heading_a, heading_b = rng.uniform(-math.pi, math.pi), rng.uniform(-math.pi, math.pi)
    bx, bz = x + rng.uniform(-2, 2) * r, z + rng.uniform(-2, 2) * r
    axes = [0.0, math.pi / 2, math.pi, -math.pi / 2]
    if kind == "axis":
        heading_a, heading_b = rng.choice(axes), rng.choice(axes)
    elif kind == "half":
        heading_a = rng.choice([half, -half, math.pi - half, half - math.pi])
        heading_b = rng.choice([half, -half, heading_b])
    elif kind == "near":
        # a boundary ray just off the row direction: its wedge band spans
        # many cells of a row
        heading_a = rng.choice([half, -half, math.pi - half]) + rng.choice([-1, 1]) * rng.choice([1.1e-3, 2e-3, 1e-2])
        heading_b = rng.choice([heading_a, heading_b])
    elif kind == "row":
        # a boundary ray theta off the row direction, within a wedge's
        # half-width of it; on an odd resolution the middle lattice row
        # passes midway between the apexes: at 0 or within rounding error of
        # both for equal x, else about theta * r off, where that ray crosses
        # the row inside the disk
        theta = rng.choice([-1, 1]) * rng.choice([1e-13, 1e-10, 1e-7, 5e-7])
        heading_a = rng.choice([half, -half, math.pi - half]) + theta
        heading_b = rng.choice([heading_a, heading_b])
        bx = x + rng.choice([0.0, rng.uniform(-2, 2) * theta * r])
    elif kind == "lattice":
        # lattice-aligned offsets put lattice lines through (or within ulps
        # of) an apex
        cell = 2 * r / resolution
        x = z = 0.0
        bx, bz = rng.choice([0.0, r, -r, 2 * r, cell, -cell]), rng.choice([0.0, r, -r, cell])
    elif kind == "same":
        bx, bz = x, z
        if rng.random() < 0.5:
            heading_b = heading_a
    elif kind == "2r":
        bearing = rng.uniform(-math.pi, math.pi)
        sep = 2 * r * rng.choice([1 - 2e-16, 1.0, 1 + 2e-16, 1 - 1e-9])
        bx, bz = x + sep * math.sin(bearing), z + sep * math.cos(bearing)
    elif kind == "split":
        # b beyond a along the axis by both sectors' reach and a hair, just
        # touching, or overlapping by a hair; the axis is +-x, +-z, a cone
        # edge's outward normal of a or the reversed one of b, or (with no
        # sideways offset) the apex-to-apex direction
        heading_a, heading_b = rng.choice(axes + [heading_a]), rng.choice(axes + [heading_b])
        normal = half + math.pi / 2
        axis = rng.choice(axes + [heading_a + normal, heading_a - normal, heading_b + normal + math.pi, heading_b - normal + math.pi])
        hair = r * rng.choice([1e-6, 1e-9, 1e-12, 0.0, -1e-12, -1e-9])
        along = sector_reach(heading_a, axis, half, r) + sector_reach(heading_b, axis + math.pi, half, r) + hair
        aside = rng.choice([0.0, rng.uniform(-1, 1) * r])
        bx = x + along * math.sin(axis) + aside * math.cos(axis)
        bz = z + along * math.cos(axis) - aside * math.sin(axis)
    elif kind == "touch":
        # disks touching head-on along a lattice axis; at odd resolutions
        # the touching point is a lattice cell
        dx, dz = rng.choice([(1, 0), (-1, 0), (0, 1), (0, -1)])
        x = z = 0.0
        heading_a = math.atan2(dx, dz)
        heading_b = rng.choice([heading_a + math.pi, heading_b])
        bx, bz = 2 * r * dx, 2 * r * dz
    elif kind == "extent":
        # a along +-x, b r / (resolution - 1/2) ahead of it in x: a lattice
        # row centre lies at a's x-extent end, r from its apex; with both
        # apexes on z = 0 and an odd resolution, so does a lattice cell
        sign = rng.choice([-1, 1])
        x = z = 0.0
        heading_a = sign * math.pi / 2
        heading_b = rng.choice(axes + [heading_b])
        bx = sign * r / (resolution - 0.5)
        bz = rng.choice([0.0, 0.0 if resolution == 1 else rng.uniform(-1, 1) * r])
    return make_pose(0, x, z, heading_a), make_pose(1, bx, bz, heading_b)


def culls(monkeypatch):
    """Count, over every call, the pairs the row cull leaves no live row
    and the lattice rows it skips in the other pairs."""
    culled = {"empty": 0, "rows": 0}
    live_rows = candidates._live_rows

    def recording(params, r, n, alpha):
        first, rows = live_rows(params, r, n, alpha)
        culled["empty"] += int((rows == 0).sum())
        culled["rows"] += int((n - rows)[rows > 0].sum())
        return first, rows

    monkeypatch.setattr(candidates, "_live_rows", recording)
    return culled


def planar(poses):
    poses = list(poses)
    return [planar_position(p) for p in poses], [planar_heading(p) for p in poses]


def test_row_bands_match_seed_on_adversarial_pairs(monkeypatch):
    # 7826 pairs over every half-angle and range above, each compared with
    # ``==`` in both orders: all of them through the batched routine, in
    # pair counts that end blocks part-way, and the first few of every
    # shape through fov_overlap, one pair per call; many rows are culled
    culled = culls(monkeypatch)
    rng = random.Random(2024)
    checked = 0
    for resolution, per_shape in ((1, 23), (2, 23), (7, 37), (256, 3)):
        for half in ADVERSARIAL_HALVES:
            for r in ADVERSARIAL_RANGES:
                cases = [
                    adversarial_sector_pair(rng, ADVERSARIAL_KINDS[k % len(ADVERSARIAL_KINDS)], half, r, resolution)
                    for k in range(per_shape)
                ]
                a, b = planar(c[0] for c in cases), planar(c[1] for c in cases)
                with np.errstate(all="ignore"):
                    expected = [seed_fov_overlap(pa, pb, half, r, resolution) for pa, pb in cases]
                assert candidates._fov_overlaps(*a, *b, half, r, resolution) == expected, (half, r)
                assert candidates._fov_overlaps(*b, *a, half, r, resolution) == expected, (half, r)
                for (pa, pb), value in list(zip(cases, expected))[:3]:
                    assert fov_overlap(pa, pb, half, r, resolution) == value
                checked += len(cases)
    assert checked >= 7000
    # the row cull's coverage: pairs whose sectors reach no row centre, and
    # rows skipped in the other pairs
    assert culled == {"empty": 550, "rows": 66_468}


@pytest.mark.parametrize("resolution", [1, 2, 7, 33])
def test_live_rows_hold_every_sector_cell(resolution):
    # a pair with no cell in both sectors overlaps 0.0 whatever rows the
    # cull keeps, so equality with the reference cannot see a cull that
    # drops cells of such a pair: every lattice row that holds a cell of
    # either sector must be live
    rng = random.Random(resolution)
    checked = 0
    for half in ADVERSARIAL_HALVES:
        for r in ADVERSARIAL_RANGES:
            cases = [adversarial_sector_pair(rng, kind, half, r, resolution) for kind in ADVERSARIAL_KINDS * 2]
            pa, ha, pb, hb = (np.array(v) for v in (*planar(c[0] for c in cases), *planar(c[1] for c in cases)))
            alpha = math.acos(math.cos(half))
            with np.errstate(all="ignore"):
                params = candidates._band_setup(pa, ha, pb, hb, r, resolution, alpha)
                first, rows = candidates._live_rows(params, r, resolution, alpha)
                masks = [seed_fov_masks(a, b, half, r, resolution) for a, b in cases]
            for (mask_a, mask_b), start, count in zip(masks, first.tolist(), rows.tolist()):
                held = np.flatnonzero((mask_a | mask_b).any(1))
                assert held.size == 0 or start <= held[0] and held[-1] < start + count, (half, r, start, count, held)
                checked += held.size > 0
    assert checked > 1000


@pytest.mark.parametrize("resolution", [3, 9, 21])
@pytest.mark.parametrize("half", [1.0, 2.0])
def test_cells_exactly_on_the_disk_edge_inside_a_row(resolution, half):
    # with range 5 and the apex at the origin, lattice cell (-4, -3) lies
    # exactly on the disk edge, on the low-column side of an interior row
    a = make_pose(0, 0.0, 0.0, math.atan2(-4.0, -3.0))
    b = make_pose(1, -8.0, 2.0, math.atan2(8.0, -2.0))
    xs = -13.0 + (np.arange(resolution) + 0.5) * 18.0 / resolution
    zs = -5.0 + (np.arange(resolution) + 0.5) * 12.0 / resolution
    assert -4.0 in xs and -3.0 in zs
    expected = seed_fov_overlap(a, b, half, 5.0, resolution)
    assert fov_overlap(a, b, half, 5.0, resolution) == fov_overlap(b, a, half, 5.0, resolution) == expected > 0


def test_wide_bands_match_seed(monkeypatch):
    # widening a band only adds cells evaluated one by one, so any widths
    # at least the error bound's give the same overlaps; wide ones put many
    # cells in each band, make every row near an apex a full chord, and
    # merge bands
    monkeypatch.setattr(candidates, "_DISK_BAND", 0.05)
    monkeypatch.setattr(candidates, "_WEDGE_BAND", 0.05)
    monkeypatch.setattr(candidates, "_APEX", 0.02)
    rng = random.Random(99)
    for resolution, per_shape in ((7, 9), (32, 5), (64, 2)):
        for half in ADVERSARIAL_HALVES:
            for r in (0.5, 7.3, 30.0):
                cases = [
                    adversarial_sector_pair(rng, ADVERSARIAL_KINDS[k % len(ADVERSARIAL_KINDS)], half, r, resolution)
                    for k in range(per_shape)
                ]
                a, b = planar(c[0] for c in cases), planar(c[1] for c in cases)
                with np.errstate(all="ignore"):
                    expected = [seed_fov_overlap(pa, pb, half, r, resolution) for pa, pb in cases]
                assert candidates._fov_overlaps(*a, *b, half, r, resolution) == expected, (half, r)


def adversarial_trajectories(seed, count):
    """Two trajectories whose pairs mix the adversarial kinds at the
    geometry gate's default range and half-angle, all within 30 m."""
    rng = random.Random(seed)
    poses = [[], []]
    for k in range(count):
        pair = adversarial_sector_pair(rng, ADVERSARIAL_KINDS[k % len(ADVERSARIAL_KINDS)], HALF, RANGE, 256)
        for side, pose in enumerate(pair):
            x, z = (float(v) for v in planar_position(pose))
            scale = 10.0 / max(10.0, abs(x), abs(z))
            poses[side].append(make_pose(k, x * scale, z * scale, math.atan2(*planar_heading(pose))))
    return Trajectory(poses[0]), Trajectory(poses[1])


def test_build_geometric_overlaps_match_seed(monkeypatch):
    # the kernel on every pair build_geometric gates, in its gated-pair
    # order, set up 16 pairs at a time (the last time 1) and over several
    # blocks of live rows, equals the frozen reference; and build_geometric
    # keeps exactly the pairs whose reference overlap reaches eta
    monkeypatch.setattr(candidates, "_SETUP_PAIRS", 16)
    t1, t2 = adversarial_trajectories(5, 15)
    params = GeometryParams(d_max=30, eta=0.4)
    blocks = []
    counts = candidates._block_counts

    def block_pairs(params, pair, row, *args):
        blocks.append(pair.tolist())
        return counts(params, pair, row, *args)

    monkeypatch.setattr(candidates, "_block_counts", block_pairs)
    pairs = [(i, j) for i in range(len(t1)) for j in range(len(t2))]
    assert gated_pairs(t1, t2, params.d_max) == pairs
    seen = candidates._fov_overlaps(*planar(t1[i] for i, _ in pairs), *planar(t2[j] for _, j in pairs), HALF, RANGE)
    expected = [seed_fov_overlap(t1[i], t2[j], HALF, RANGE) for i, j in pairs]
    # blocks that hold rows of several pairs, pairs whose rows two blocks
    # share, and a short last block
    assert len(pairs) % 16 == 1
    assert len(blocks) > 4 and len(blocks[-1]) < candidates._BLOCK_ROWS
    assert any(b[0] != b[-1] for b in blocks) and any(a[-1] == b[0] for a, b in zip(blocks, blocks[1:]))
    assert seen == expected
    g = build_geometric(t1, t2, params)
    assert g.edge_keys() == {
        (sp.VertexId(1, i), sp.VertexId(2, j)) for (i, j), v in zip(pairs, expected) if v >= params.eta
    }


def gated_pairs(t1, t2, d_max):
    """The [i, j] pairs within ``d_max``, in build_geometric's row-major order."""
    pos1, pos2 = (np.array([pose.position for pose in t]) for t in (t1, t2))
    return [tuple(p) for p in np.argwhere(np.linalg.norm(pos1[:, None, :] - pos2[None, :, :], axis=2) <= d_max).tolist()]


def gated_fixture_pairs():
    """The two-loop fixture and its 1065 pairs within 30 m, as planar
    positions and headings of each side."""
    t1, t2 = two_loop_fixture()
    pairs = gated_pairs(t1, t2, 30)
    assert len(pairs) == 1065
    return t1, t2, (*planar(t1[i] for i, _ in pairs), *planar(t2[j] for _, j in pairs))


def full_row_masks(monkeypatch):
    """Record, per block, which pairs the row-band set-up leaves to full
    rows (every cell evaluated)."""
    masks = []
    setup = candidates._band_setup

    def recording(*args):
        params = setup(*args)
        masks.append(params["full"].tolist())
        return params

    monkeypatch.setattr(candidates, "_band_setup", recording)
    return masks


def test_fixture_pairs_need_no_kernel_fallback(monkeypatch):
    # at pi/2, 571 of the pairs have a cone edge within asin(2**-10) rad of
    # the row direction
    t1, t2, planes = gated_fixture_pairs()
    for half, edges in ((HALF, 233), (math.pi / 2, 420)):
        masks = full_row_masks(monkeypatch)
        values = candidates._fov_overlaps(*planes, half, RANGE)
        assert sum(map(len, masks)) == 1065 and not any(map(any, masks))
        assert sum(v >= 0.4 for v in values) == edges
        assert build_geometric(t1, t2, GeometryParams(d_max=30, eta=0.4, fov_half_angle=half)).num_edges == edges


@pytest.mark.parametrize(
    "half, edges, pairs, rows",
    [(HALF, 233, 1065, 189_466), (math.pi / 2, 420, 1065, 254_858)],
    ids=["half-0.7", "half-pi-over-2"],
)
def test_culls_shrink_the_fixture_lattice(monkeypatch, half, edges, pairs, rows):
    # of the 1065 gated pairs, 272,640 lattice rows at resolution 256, the
    # lattice sees only the rows that the x-extents of the pair's grown
    # sectors' fans reach
    t1, t2, planes = gated_fixture_pairs()
    culled = culls(monkeypatch)
    sent = []
    counts = candidates._block_counts

    def recording(params, pair, row, *args):
        sent.append(len(row))
        return counts(params, pair, row, *args)

    monkeypatch.setattr(candidates, "_block_counts", recording)
    values = candidates._fov_overlaps(*planes, half, RANGE)
    assert sum(v >= 0.4 for v in values) == edges
    assert (1065 - culled["empty"], sum(sent)) == (pairs, rows)
    assert sum(sent) + culled["rows"] == pairs * 256
    assert build_geometric(t1, t2, GeometryParams(d_max=30, eta=0.4, fov_half_angle=half)).num_edges == edges


@pytest.mark.parametrize("heading", [HALF, -HALF, math.pi - HALF])
def test_boundary_ray_parallel_to_rows_is_banded(monkeypatch, heading):
    # a boundary ray at heading -+ HALF points along +-z, the row direction
    masks = full_row_masks(monkeypatch)
    a = make_pose(0, 0.0, 0.0, heading)
    b = make_pose(1, 4.0, 3.0, 0.3)
    assert fov_overlap(a, b, HALF, RANGE) == seed_fov_overlap(a, b, HALF, RANGE)
    assert masks == [[False]]


def test_full_rows_match_seed_beyond_the_range_bound(monkeypatch):
    # ranges outside [2**-400, 2**400] are not covered by the error bound:
    # every cell is evaluated, as the plain quadrature does
    masks = full_row_masks(monkeypatch)
    rng = random.Random(11)
    for r in (1e-300, 1e300):
        cases = [adversarial_sector_pair(rng, kind, HALF, r, 7) for kind in ADVERSARIAL_KINDS]
        a, b = planar(c[0] for c in cases), planar(c[1] for c in cases)
        expected = [seed_fov_overlap(pa, pb, HALF, r, 7) for pa, pb in cases]
        assert candidates._fov_overlaps(*a, *b, HALF, r, 7) == expected
    assert masks and all(map(all, masks))


def test_full_rows_stay_within_a_block_of_cells(monkeypatch):
    # a pair the error bound does not cover evaluates every cell; at
    # resolution 1024 a block of 1024 such rows took about 94 MB
    masks = full_row_masks(monkeypatch)
    rng = random.Random(3)
    cases = [adversarial_sector_pair(rng, kind, HALF, 1e-300, 1024) for kind in ("same", "axis")]
    (pa, ha), (pb, hb) = planar(c[0] for c in cases), planar(c[1] for c in cases)
    tracemalloc.start()
    try:
        full = candidates._fov_overlaps(pa, ha, pb, hb, HALF, 1e-300, 1024)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20, peak
    # scaling every length by a power of two changes no float operation's
    # result, and brings the range inside the bound, where rows are banded
    scale = 2.0**996
    banded = candidates._fov_overlaps([p * scale for p in pa], ha, [p * scale for p in pb], hb, HALF, 1e-300 * scale, 1024)
    assert masks == [[True, True], [False, False]]
    assert full == banded and any(full)


GATE_HALVES = (*ADVERSARIAL_HALVES, math.pi / 2 - 2**-19, math.pi / 2 - 2**-20)


@settings(max_examples=60, deadline=None)
@given(
    st.integers(0, 2**32 - 1),
    st.sampled_from(ADVERSARIAL_KINDS),
    st.sampled_from(GATE_HALVES),
    st.sampled_from((*ADVERSARIAL_RANGES, 1e-300)),
)
def test_gate_bounds_hold_the_kernel_and_decide_as_it_does(seed, kind, half, r):
    rng = random.Random(seed)
    cases = [adversarial_sector_pair(rng, kind, half, r, 256) for _ in range(3)]
    a, b = planar(c[0] for c in cases), planar(c[1] for c in cases)
    bounds = candidates._count_bounds(*a, *b, half, r)
    # past pi/2 - delta a sector is not convex, and below 2**-400 the
    # kernel takes full rows: no bounds, so every such pair reaches the kernel
    uncovered = math.acos(math.cos(half)) + 2**-20 >= math.pi / 2 or r < 2**-400
    assert np.isnan(bounds).all() or not uncovered
    for (n_lo, n_hi, ab_lo, ab_hi), (pa, pb) in zip(bounds.T, cases):
        if math.isnan(n_lo) or float(np.hypot(*(planar_position(pa) - planar_position(pb)))) > 2 * r:
            continue  # the kernel counts nothing for a pair farther apart than 2r
        n_a, n_b, ab = seed_fov_counts(pa, pb, half, r)
        assert n_lo <= min(n_a, n_b) and max(n_a, n_b) <= n_hi and ab_lo <= ab <= ab_hi
    # the gate at eta equal to each kernel value and its float neighbours
    values = candidates._fov_overlaps(*a, *b, half, r)
    etas = sorted({0.0, 0.4, 1.0}.union(*({v, np.nextafter(v, 0), np.nextafter(v, 1)} for v in values)))
    # the k-th pose of each side makes the k-th pair
    sides, pairs = map(np.array, (*a, *b)), np.repeat(np.arange(len(cases)), 2).reshape(-1, 2)
    with mock.patch.object(candidates, "_fov_overlaps", wraps=candidates._fov_overlaps) as kernel:
        gates = candidates._fov_gates(*sides, pairs, half, r, etas)
    assert ((gates[:, None] >= etas) == (np.array(values)[:, None] >= etas)).all()
    sent = sum(len(call.args[0]) for call in kernel.call_args_list)
    assert kernel.call_count <= 1
    assert sent == len(cases) if uncovered else sent <= len(cases)


def test_fixture_build_sends_few_pairs_to_the_kernel(monkeypatch):
    # build-graph --dmax 30 --eta 0.4 on the fixture: the bounds decide all
    # but 42 of the 1065 gated pairs
    sent = []
    kernel = candidates._fov_overlaps
    monkeypatch.setattr(candidates, "_fov_overlaps", lambda *a: sent.append(len(a[0])) or kernel(*a))
    t1, t2 = two_loop_fixture()
    assert build_geometric(t1, t2, GeometryParams(d_max=30, eta=0.4)).num_edges == 233
    assert sent == [42]


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
    assert g.vertex(sp.VertexId(1, 0)).effective_scan_size == 11 * DESCRIPTOR_BYTES


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


def test_rate_divisor_matches_subsampled_trajectories():
    # the sweep slices the poses itself instead of building new trajectories
    t1, t2 = synthetic_two_loop(60)
    for r in (2, 3):
        g = build_geometric(t1, t2, GeometryParams(d_max=20, eta=0.3, rate_divisor=r))
        via_subsample = build_geometric(subsample(t1, r), subsample(t2, r), GeometryParams(d_max=20, eta=0.3))
        assert sp.dumps_graph(g) == sp.dumps_graph(via_subsample)


def test_numpy_feature_counts_build_the_same_graph():
    # np.int64 scan sizes were refused: "cannot interpret np.int64(160) as a number"
    params = GeometryParams(d_max=10, eta=0.0)
    graphs = [
        build_geometric(Trajectory([make_pose(0, 0.0, 0.0, 0.0, a)]), Trajectory([make_pose(0, 1.0, 0.0, 0.0, b)]), params)
        for a, b in ((np.int64(5), np.int64(7)), (5, 7))
    ]
    assert sp.dumps_graph(graphs[0]) == sp.dumps_graph(graphs[1])
    assert graphs[0].vertex(sp.VertexId(1, 0)).scan_size == 5 * DESCRIPTOR_BYTES


def test_empty_trajectory_rejected():
    t1, _ = synthetic_two_loop(10)
    with pytest.raises(sp.EmptyTrajectory):
        build_geometric(t1, Trajectory([]), GeometryParams(d_max=10, eta=0.0))


def test_pose_ids_must_increase():
    a = make_pose(5, 0.0, 0.0, 0.0)
    b = make_pose(5, 1.0, 0.0, 0.0)
    with pytest.raises(sp.ValidationError):
        Trajectory([a, b])


def test_negative_feature_count_refused():
    pose = sp.Pose(0, np.zeros(3), np.eye(3), feature_count=-1)
    with pytest.raises(sp.ValidationError, match="^pose 0 has negative feature count$"):
        Trajectory([pose])


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


def seed_appearance_edges(scores, p):
    """Frozen reference: the original dict-of-lists top-k selection."""
    rows, cols = {}, {}
    for u, v, score in scores:
        rows.setdefault(int(u), []).append((float(score), int(u), int(v)))
        cols.setdefault(int(v), []).append((float(score), int(u), int(v)))
    selected = set()

    def pick(candidates, tie_index):
        kept = [c for c in candidates if c[0] > p.alpha]
        kept.sort(key=lambda c: (-c[0], c[tie_index]))
        return kept[: p.top_k]

    for u in sorted(rows):
        selected.update((u, v) for _, u, v in pick(rows[u], 2))
    if p.symmetric:
        for v in sorted(cols):
            selected.update((u, v) for _, u, v in pick(cols[v], 1))
    return {(sp.VertexId(1, u), sp.VertexId(2, v)) for u, v in selected}


@settings(max_examples=300, deadline=None)
@given(
    st.integers(1, 6),
    st.integers(1, 6),
    st.lists(st.tuples(st.integers(0, 5), st.integers(0, 5), st.sampled_from([0.0, 0.25, 0.5, 0.75, 1.0])), max_size=30),
    st.integers(0, 4),
    st.sampled_from([0.0, 0.25, 0.5, 0.9, Fraction(1, 4), Fraction(1, 10)]),
    st.integers(1, 4),
    st.booleans(),
)
def test_appearance_matches_seed_loop(n1, n2, entries, repeats, alpha, top_k, symmetric):
    # ties on the few score levels, exact repeats of earlier entries
    scores = [(u % n1, v % n2, s) for u, v, s in entries]
    scores += scores[:repeats]
    params = AppearanceParams(alpha=alpha, top_k=top_k, symmetric=symmetric)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # pruned vertices
        g = build_appearance(scores, [1] * n1, [1] * n2, params)
    assert g.edge_keys() == seed_appearance_edges(scores, params)


def test_appearance_symmetric_ties_break_to_lower_side1_index():
    # side-2 vertex 0 ties between side-1 vertices 1 and 0 (listed first);
    # its own query keeps vertex 0, which no side-1 query keeps
    scores = [(1, 0, 0.8), (0, 0, 0.8), (0, 1, 0.9)]
    g = build_appearance(scores, [1, 1], [1, 1], AppearanceParams(alpha=0.1, top_k=1, symmetric=True))
    assert g.edge_keys() == {
        (sp.VertexId(1, 1), sp.VertexId(2, 0)),
        (sp.VertexId(1, 0), sp.VertexId(2, 1)),
        (sp.VertexId(1, 0), sp.VertexId(2, 0)),
    }


def test_appearance_repeated_entries_fill_top_k():
    # the repeat of (0, 0) takes the second slot, so (0, 1) is not kept
    scores = [(0, 0, 0.9), (0, 1, 0.8), (0, 0, 0.9)]
    with pytest.warns(UserWarning):
        g = build_appearance(scores, [1], [1, 1], AppearanceParams(alpha=0.1, top_k=2))
    assert g.edge_keys() == {(sp.VertexId(1, 0), sp.VertexId(2, 0))}


def test_appearance_indices_beyond_int64():
    # unselected huge indices are ignored; selected ones are out of range,
    # reported for the first selected edge in (u, v) order
    scores = [(0, 0, 0.9), (2**70, 0, 0.2), (0, -(2**70), 0.3)]
    g = build_appearance(scores, [1], [1], AppearanceParams(alpha=0.5))
    assert g.edge_keys() == {(sp.VertexId(1, 0), sp.VertexId(2, 0))}
    with pytest.raises(sp.IndexOutOfRange, match=r"^edge \(0, -1180591620717411303\.\.\.\) outside"):
        build_appearance(scores, [1], [1], AppearanceParams(alpha=0.1))


def test_score_out_of_range_names_first_bad_score():
    scores = [(0, 0, 0.5), (1, 2, Fraction(3, 2)), (3, 4, -0.5)]
    with pytest.raises(sp.ScoreOutOfRange, match=r"^score Fraction\(3, 2\) for pair \(1, 2\) outside \[0, 1\]$"):
        build_appearance(scores, [1] * 4, [1] * 5, AppearanceParams(alpha=0.1))


def appearance_outcomes(graphs):
    """Each graph's file text and pruned ids, until the first error, which
    ends the list as its type and message."""
    out = []
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # pruned vertices
        try:
            for g in graphs:
                out.append((sp.dumps_graph(g), g.pruned))
        except sp.ScanPlanError as exc:
            out.append((type(exc), str(exc)))
    return out


# side-1 and side-2 indices: in range, past the weights, beyond int64, negative
appearance_index = st.one_of(st.integers(0, 5), st.sampled_from([7, 2**63, 2**70, -(2**70)]))


@settings(max_examples=200, deadline=None)
@given(
    st.integers(1, 6),
    st.integers(1, 6),
    st.lists(st.tuples(appearance_index, appearance_index, st.sampled_from([0.0, 0.25, 0.5, 0.75, 1.0])), max_size=30),
    st.integers(0, 4),
    st.lists(
        st.builds(
            AppearanceParams,
            alpha=st.sampled_from([0.0, 0.2, 0.25, 0.5, 0.9, Fraction(1, 4)]),
            top_k=st.integers(1, 3),
            symmetric=st.booleans(),
        ),
        min_size=1,
        max_size=5,
    ),
)
def test_appearance_sweep_equals_per_point_builds(n1, n2, entries, repeats, params):
    # ties on the few score levels, exact repeats of earlier entries, indices
    # mostly within range; the sweep stops at a point's first error
    scores = [(u if not 0 <= u <= 5 else u % n1, v if not 0 <= v <= 5 else v % n2, s) for u, v, s in entries]
    scores += scores[:repeats]
    w1, w2 = list(range(1, n1 + 1)), [2] * n2
    expected = appearance_outcomes(build_appearance(scores, w1, w2, p) for p in params)
    assert appearance_outcomes(build_appearance_sweep(scores, w1, w2, params)) == expected
    # one-shot iterators are read once, for the whole sweep
    once = iter(scores)
    assert appearance_outcomes(build_appearance_sweep(once, iter(w1), iter(w2), params)) == expected
    assert next(once, None) is None


def test_appearance_sweep_checks_scores_at_the_first_point():
    scores = [(0, 0, 0.5), (1, 2, Fraction(3, 2)), (3, 4, -0.5)]
    params = [AppearanceParams(alpha=a) for a in (0.1, 0.2)]
    sweep = build_appearance_sweep(scores, [1] * 4, [1] * 5, params)  # reads nothing yet
    message = r"^score Fraction\(3, 2\) for pair \(1, 2\) outside \[0, 1\]$"
    with pytest.raises(sp.ScoreOutOfRange, match=message):
        next(sweep)
    with pytest.raises(sp.ScoreOutOfRange, match=message):
        build_appearance(scores, [1] * 4, [1] * 5, params[0])


def test_appearance_sweep_is_exact_where_the_loosest_gates_pick_out_of_range():
    # side-2 index 7 is past n2: query 0 ranks (0, 7) third, so top_k 2 at
    # alpha 0.1 and top_k 3 at alpha 0.5 both miss it, while the loosest
    # gates (alpha 0.1, top_k 3) would pick it. A side-1 index past n1
    # cannot play this part: the smallest alpha's point picks the best
    # entry of its own query.
    scores = [(0, 0, 0.9), (0, 1, 0.8), (0, 7, 0.3), (1, 1, 0.6), (1, 0, 0.2)]
    params = [
        AppearanceParams(alpha=0.1, top_k=2),
        AppearanceParams(alpha=0.5, top_k=3),
        AppearanceParams(alpha=0.5, top_k=3, symmetric=True),
        AppearanceParams(alpha=0.1, top_k=1),
    ]
    w1, w2 = [1, 2], [3, 4]
    swept = appearance_outcomes(build_appearance_sweep(scores, w1, w2, params))
    assert swept == appearance_outcomes(build_appearance(scores, w1, w2, p) for p in params)
    assert len(swept) == len(params)  # every point yielded, no error
    with pytest.raises(sp.IndexOutOfRange, match=r"^edge \(0, 7\) outside vertex ranges$"):
        build_appearance(scores, w1, w2, AppearanceParams(alpha=0.1, top_k=3))


def test_appearance_sweep_keeps_boundary_ties_and_excludes_a_score_equal_to_alpha():
    # query 0 ranks (0, 3) at 0.75 first, then ties three ways at 0.6, so
    # top_k 2 keeps side-2 index 1, the lowest of the tie; query 1 ties at
    # 0.5 across the top_k 1 boundary; side-2 query 3 ties at 0.75 between
    # side-1 indices 2 and 0; query 2 repeats an entry; each alpha below
    # equals some score, which is then excluded
    scores = [
        (0, 3, 0.6), (0, 2, 0.6), (0, 1, 0.6), (0, 0, 0.4),
        (1, 1, 0.5), (1, 0, 0.5), (1, 2, 0.25),
        (2, 3, 0.75), (0, 3, 0.75), (2, 0, 0.5), (2, 0, 0.5),
    ]  # fmt: skip
    params = [
        AppearanceParams(alpha=a, top_k=k, symmetric=sym)
        for a in (0.0, 0.25, 0.4, 0.5, 0.6, 0.75)
        for k in (1, 2)
        for sym in (False, True)
    ]
    w1, w2 = [1] * 3, [1] * 4
    swept = appearance_outcomes(build_appearance_sweep(scores, w1, w2, params))
    assert swept == appearance_outcomes(build_appearance(scores, w1, w2, p) for p in params)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # pruned vertices
        graphs = list(build_appearance_sweep(scores, w1, w2, params))
    assert [g.edge_keys() for g in graphs] == [seed_appearance_edges(scores, p) for p in params]
    assert graphs[params.index(AppearanceParams(alpha=0.25, top_k=2))].edge_keys() == {
        (sp.VertexId(1, u), sp.VertexId(2, v)) for u, v in ((0, 3), (0, 1), (1, 0), (1, 1), (2, 3), (2, 0))
    }
    # at alpha 0.75 nothing scores above it: an empty point
    assert graphs[-1].edge_keys() == set()


def test_sweep_points_share_the_widest_effective_sizes_with_a_fresh_build_graph():
    # side-1 sizes 9 * (2**57 + k) over the denominator 9: six of them
    # need Python ints, and the points that keep at most three (alpha 0.7
    # and 0.8) fit int64, so the dtype rule is applied afresh
    w1 = [2**57 + k for k in range(6)]
    w2 = [Fraction(1, 3), 5, 7, Fraction(2, 9)]
    scores = [(u, v, (u * 7 + v * 3) % 10 / 10) for u in range(6) for v in range(4)]
    params = [AppearanceParams(alpha=a / 10, top_k=k) for a in range(9) for k in (1, 3)]
    t1, t2 = synthetic_two_loop(30)
    geometric = [GeometryParams(d_max=d, eta=e) for d in (5, 15, 40) for e in (0.0, 0.5)]
    objectives = [sp.Objective.p1(), sp.Objective.p1(3, 7), sp.Objective.p2(), sp.Objective.p3(1, 2, Fraction(1, 3))]
    g1, g2 = ([p.feature_count * DESCRIPTOR_BYTES for p in t] for t in (t1, t2))
    sweeps = [
        (build_appearance_sweep(scores, w1, w2, params), w1, w2),
        (build_geometric_sweep(t1, t2, geometric), g1, g2),
    ]
    side1_dtypes = set()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # pruned vertices
        for sweep, a, b in sweeps:
            for g in sweep:
                edges = list(zip((g.ids[0][i] for i in g.eu), (g.ids[1][j] for j in g.ev)))
                fresh = sp.build_graph(a, b, edges)
                for ours, theirs in zip(g.eff_num, fresh.eff_num):
                    assert ours.dtype == theirs.dtype and ours.tolist() == theirs.tolist()
                side1_dtypes.add(g.eff_num[0].dtype)
                for obj in objectives:
                    (ours, ours_den), (theirs, theirs_den) = (sp.graph.weight_numerators(h, obj) for h in (g, fresh))
                    assert ours_den == theirs_den
                    for x, y in zip(ours, theirs):
                        assert x.dtype == y.dtype and x.tolist() == y.tolist()
    assert side1_dtypes == {np.dtype(np.int64), np.dtype(object)}


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


def per_line_poses(path):
    """Each pose line's position and nearest rotation, one matrix at a time."""
    out = []
    for line in Path(path).read_text().splitlines():
        m = np.array([float(v) for v in line.split()]).reshape(3, 4)
        u, _, vt = np.linalg.svd(m[:, :3])
        r = u @ vt
        if np.linalg.det(r) < 0:
            u[:, -1] = -u[:, -1]
            r = u @ vt
        out.append((m[:, 3], r))
    return out


@pytest.mark.parametrize("name", ["two_loop_poses1.txt", "two_loop_poses2.txt", "reflection"])
def test_kitti_batch_equals_per_line_projection(tmp_path, name):
    path = Path(__file__).parent / "data" / name
    if name == "reflection":
        # rounded entries, one of them a reflection, and a pure rotation
        path = tmp_path / "poses.txt"
        path.write_text("0.6 0 0.8 1 0 1 0 2 -0.8 0 0.6 3\n1 0 0 0 0 1 0 0 0 0 -1 0\n0.5403 0 0.8415 1 0 1 0 0 -0.8415 0 0.5403 0\n")
    poses = read_kitti_poses(path)
    reference = per_line_poses(path)
    assert len(poses) == len(reference) > 0
    for pose, (position, rotation) in zip(poses, reference):
        assert np.array_equal(pose.position, position) and np.array_equal(pose.rotation, rotation)


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


def test_kitti_projects_a_reflection_to_a_rotation(tmp_path):
    # an orthonormal matrix of determinant -1 is no rotation: the nearest
    # rotation is taken instead
    f = tmp_path / "poses.txt"
    f.write_text("1 0 0 0 0 1 0 0 0 0 -1 0\n")
    r = read_kitti_poses(f)[0].rotation
    assert np.linalg.det(r) == pytest.approx(1)
    assert np.abs(r @ r.T - np.eye(3)).max() <= 1e-9


def test_score_file_parsing(tmp_path):
    f = tmp_path / "scores.txt"
    f.write_text("0 1 0.5\n2 3 0.25\n")
    assert [tuple(r) for r in read_scores(f)] == [(0, 1, 0.5), (2, 3, 0.25)]
    f.write_text("0 1\n")
    with pytest.raises(sp.GraphFormatError):
        read_scores(f)


# tokens and separators on which the compiled parse and the line loop may
# disagree about what a field is or what it reads as
SCORE_TOKENS = ["1_0", "٣", "+1", "1.", ".5", "0x1p-2", "#", "inf", "Infinity", "+nan", "9" * 30, "-" + "9" * 30]
SCORE_SEPARATORS = ["\x0b", "\x0c", "\x1c", "\r\n", "\xa0", "\x00"]
SCORE_TEXT = "0 0 0.470091\n0 1 0.728264\n1 0 1\n1 1 0.25\n2 1 0\n"
SCORE_FILES = [
    "", "\n", " \x0c\n\t\n", "0\x0b1\x0c0.5\x1c\n", "0 1 0.5\r\n2 3 0.25\r\n", "0 1 0.5\r2 3 0.25", "0\xa01 0.5\n",
    "0 1 0.5\x00\n", "0 1 0.5\n\x00\n", "1_0 1 0.5\n", "٣ 1 0.5\n", "+1 1 .5\n", "1. 1 0.5\n", "0 1 1.\n", "0 1 0x1p-2\n",
    "0 1 #\n", "# 0 1\n", "#\n0 1 0.5\n", "0 1 0.5 #\n", "0 1 inf\n", "0 1 Infinity\n", "0 1 +nan\n", "0 1 -0.0\n", "9" * 30 + " 1 0.5\n",
    "0 -" + "9" * 30 + " 0.5\n", "9223372036854775807 0 0.5\n", "9223372036854775808 0 0.5\n", "0 1 0.5 2\n", "0 1\n",
    b"0 1 0.5\n\xff\n", b"0 1\n\xff\n",
]  # fmt: skip


def score_outcome(reader, path):
    """``reader(path)``'s rows, each score as its repr (NaN as "nan"), or
    its refusal's message."""
    try:
        rows = reader(path)
    except sp.GraphFormatError as exc:
        return str(exc)
    return [(int(u), int(v), "nan" if math.isnan(s) else repr(float(s))) for u, v, s in rows]


@pytest.fixture(scope="module")
def score_path(tmp_path_factory):
    return tmp_path_factory.mktemp("scores") / "scores.txt"


@pytest.mark.parametrize("text", SCORE_FILES)
def test_read_scores_agrees_with_the_line_loop(score_path, text):
    if isinstance(text, bytes):
        score_path.write_bytes(text)
    else:
        score_path.write_text(text, encoding="utf-8")
    assert score_outcome(read_scores, score_path) == score_outcome(candidates._read_score_lines, score_path)


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_mutated_score_file_reads_as_the_line_loop_reads_it(score_path, data):
    text = mutated(data, SCORE_TEXT, SCORE_TOKENS)
    for _ in range(data.draw(st.integers(0, 2), label="separators")):
        at = data.draw(st.sampled_from([i for i, c in enumerate(text) if c in " \n"] or [0]), label="gap")
        text = text[:at] + data.draw(st.sampled_from(SCORE_SEPARATORS)) + text[at + 1 :]
    score_path.write_text(text, encoding="utf-8")
    assert score_outcome(read_scores, score_path) == score_outcome(candidates._read_score_lines, score_path)



def score_array(path):
    """``read_scores(path)``, which must be a ``SCORE_DTYPE`` array, as a list."""
    scores = read_scores(path)
    assert isinstance(scores, np.ndarray) and scores.dtype == candidates.SCORE_DTYPE
    return scores.tolist()


@pytest.mark.parametrize("name", ["scores.gz", "scores.txt.bz2", "scores.xz"])
def test_a_plain_score_file_with_a_compressed_suffix_reads_as_text(tmp_path, name):
    # numpy's DataSource would decompress a path with this suffix, and fail
    (tmp_path / "scores.txt").write_text(SCORE_TEXT)
    (tmp_path / name).write_text(SCORE_TEXT)
    assert score_array(tmp_path / name) == score_array(tmp_path / "scores.txt")


def test_a_url_shaped_local_score_path_is_read_locally(tmp_path, monkeypatch):
    # "http://localhost/scores.txt" names the local file http:/localhost/scores.txt
    # when the working directory holds it; numpy's DataSource would fetch the URL
    (tmp_path / "http:" / "localhost").mkdir(parents=True)
    (tmp_path / "http:" / "localhost" / "scores.txt").write_text(SCORE_TEXT)
    (tmp_path / "scores.txt").write_text(SCORE_TEXT)
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(urllib.request, "urlopen", mock.Mock(side_effect=AssertionError("a URL was fetched")))
    assert score_array("http://localhost/scores.txt") == score_array("scores.txt")


def test_loadtxt_reads_only_a_plain_local_score_path_itself(tmp_path, monkeypatch):
    sources, loadtxt = [], np.loadtxt
    monkeypatch.setattr(np, "loadtxt", lambda source, **kwargs: sources.append(source) or loadtxt(source, **kwargs))
    for name in ("scores.txt", "scores", "scores.gz"):
        (tmp_path / name).write_text(SCORE_TEXT)
        score_array(tmp_path / name)
        score_array(str(tmp_path / name))
    plain = [tmp_path / "scores.txt", str(tmp_path / "scores.txt"), tmp_path / "scores", str(tmp_path / "scores")]
    assert sources[:4] == plain and [type(s) for s in sources[4:]] == [io.StringIO] * 2

def appearance_sweep_points(scores, weights, params):
    """Each point's graph file text, pruned ids and warning texts."""
    out = []
    sweep = build_appearance_sweep(scores, weights, weights, params)
    while True:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            g = next(sweep, None)
        if g is None:
            return out
        out.append((sp.dumps_graph(g), g.pruned, [str(w.message) for w in caught]))


@pytest.mark.parametrize("symmetric", [False, True])
@pytest.mark.parametrize("top_k", [1, 2, 3])
def test_appearance_sweep_over_the_score_array_equals_sweep_over_triples(top_k, symmetric):
    data = Path(__file__).parent / "data"
    scores = read_scores(data / "scores_40x40.txt")
    assert isinstance(scores, np.ndarray) and scores.dtype == candidates.SCORE_DTYPE
    triples = [tuple(r) for r in scores.tolist()]
    weights = [c * DESCRIPTOR_BYTES for c in read_feature_counts(data / "features_40.txt")]
    params = [AppearanceParams(alpha=a / 20, top_k=top_k, symmetric=symmetric) for a in range(2, 20)]
    points = appearance_sweep_points(scores, weights, params)
    assert len(points) == len(params) and any(warned for _, _, warned in points)
    assert points == appearance_sweep_points(triples, weights, params)


@pytest.mark.parametrize("bad", [float("nan"), 1.5, -0.1])
def test_score_array_refused_as_its_triples_are(bad):
    triples = [(0, 0, 0.5), (3, 1, bad), (1, 2, 2.0), (2, 2, 0.25)]
    messages = []
    for scores in (triples, np.array(triples, dtype=candidates.SCORE_DTYPE)):
        with pytest.raises(sp.ScoreOutOfRange) as refused:
            next(build_appearance_sweep(scores, [1] * 4, [1] * 3, [AppearanceParams(alpha=0.1)]))
        messages.append(str(refused.value))
    assert messages == [f"score {bad!r} for pair (3, 1) outside [0, 1]"] * 2


@pytest.mark.parametrize("count", [2.7, np.float64(0.5), float("nan"), float("inf"), "2"])
def test_non_integral_feature_count_refused(tmp_path, count):
    # int() would read 2.7 as 2; the pose is named instead
    f = tmp_path / "poses.txt"
    f.write_text("1 0 0 0 0 1 0 0 0 0 1 0\n")
    with pytest.raises(sp.ValidationError, match=r"^pose 0 has a non-integral feature count"):
        read_kitti_poses(f, [count])
    with pytest.raises(sp.ValidationError, match=r"^pose 4 has a non-integral feature count"):
        sp.Trajectory([make_pose(4, 0.0, 0.0, 0.0, feature_count=count)])


def test_integral_feature_counts_keep_their_value(tmp_path):
    f = tmp_path / "poses.txt"
    f.write_text("1 0 0 0 0 1 0 0 0 0 1 0\n" * 3)
    traj = read_kitti_poses(f, [2.0, np.int64(3), True])
    assert [p.feature_count for p in traj] == [2, 3, 1]
    write_feature_counts(traj, tmp_path / "counts.txt")
    assert read_feature_counts(tmp_path / "counts.txt") == [2, 3, 1]


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


@pytest.mark.parametrize("field", ["fov_half_angle", "fov_range"])
@pytest.mark.parametrize("value", [0, -5])
def test_geometry_params_reject_non_positive_fov(field, value):
    params = {"d_max": 10.0, "eta": 0.5, field: value}
    with pytest.raises(sp.ValidationError, match=f"{field} must be positive, got {value}"):
        GeometryParams(**params)


@pytest.mark.parametrize("value", [1.5, 2.0, True, "2", Fraction(2)])
def test_gate_counts_must_be_integers(value):
    with pytest.raises(sp.ValidationError, match="rate_divisor must be an integer"):
        GeometryParams(d_max=10.0, eta=0.0, rate_divisor=value)
    with pytest.raises(sp.ValidationError, match="top_k must be an integer"):
        AppearanceParams(alpha=0.5, top_k=value)
    t1, _ = synthetic_two_loop(4)
    with pytest.raises(sp.ValidationError, match="rate_divisor must be an integer"):
        subsample(t1, value)


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: AppearanceParams(alpha=0.5, symmetric="no"), "symmetric must be a bool, got 'no'"),
        (lambda: AppearanceParams(alpha=0.5, symmetric=1), "symmetric must be a bool, got 1"),
        (lambda: AppearanceParams(alpha=0.5, symmetric=None), "symmetric must be a bool, got None"),
        (lambda: AppearanceParams(alpha=0.5, symmetric="x" * 10**4), "symmetric must be a bool, got 'xxx"),
        (lambda: AppearanceParams(alpha=True), "alpha must be a real number, got True"),
        (lambda: AppearanceParams(alpha=False), "alpha must be a real number, got False"),
        (lambda: AppearanceParams(alpha=np.True_), "alpha must be a real number, got True"),
        (lambda: GeometryParams(d_max=np.True_, eta=0.5), "d_max must be a real number, got True"),
        (lambda: GeometryParams(d_max=True, eta=False), "d_max must be a real number, got True"),
        (lambda: GeometryParams(d_max=10.0, eta=False), "eta must be a real number, got False"),
        (lambda: GeometryParams(d_max=10.0, eta=0.5, fov_half_angle=True), "fov_half_angle must be a real number"),
        (lambda: GeometryParams(d_max=10.0, eta=0.5, fov_range=True), "fov_range must be a real number, got True"),
        (lambda: fov_overlap(make_pose(0, 0, 0, 0), make_pose(1, 0, 0, 0), True, 30.0), "fov_half_angle must be a"),
    ],
)
def test_gate_values_of_the_wrong_kind_are_refused(build, message):
    # a bool gate value would read as 0 or 1, and a truthy symmetric as set
    with pytest.raises(sp.ValidationError, match="^" + re.escape(message)) as refused:
        build()
    assert len(str(refused.value)) < 300


def test_symmetric_accepts_numpy_bools():
    scores = [(1, 0, 0.8), (0, 0, 0.8), (0, 1, 0.9)]
    for flag in (True, False):
        ours, theirs = (
            build_appearance(scores, [1, 1], [1, 1], AppearanceParams(alpha=0.1, top_k=1, symmetric=f))
            for f in (flag, np.bool_(flag))
        )
        assert ours.edge_keys() == theirs.edge_keys()


def test_gate_counts_accept_integers():
    assert GeometryParams(d_max=10.0, eta=0.0, rate_divisor=np.int64(2)).rate_divisor == 2
    assert AppearanceParams(alpha=0.5, top_k=3).top_k == 3
    with pytest.raises(sp.ValidationError, match="top_k must be >= 1"):
        AppearanceParams(alpha=0.5, top_k=0)


@pytest.mark.parametrize("field", ["position", "rotation"])
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_trajectory_rejects_non_finite_pose(field, value):
    good = make_pose(3, 1.0, 2.0, 0.5)
    bad = make_pose(4, 1.0, 2.0, 0.5)
    getattr(bad, field)[0] = value
    with pytest.raises(sp.ValidationError, match=f"pose 4 {field} has a non-finite entry"):
        Trajectory([good, bad])


def first_pose_fault(poses):
    """The one-pose-at-a-time check of a trajectory's geometry: the message
    for its first pose with a non-finite entry or a rotation residual above
    the tolerance, or None."""
    for pose in poses:
        for name in ("position", "rotation"):
            if not np.isfinite(getattr(pose, name)).all():
                return f"pose {pose.pid} {name} has a non-finite entry"
        err = np.abs(pose.rotation @ pose.rotation.T - np.eye(3)).max()
        if err > 1e-9:
            return f"pose {pose.pid} rotation is not orthonormal (residual {err:.3e})"
    return None


@pytest.mark.parametrize(
    "rotation",
    [
        np.eye(3) * (1 + 2e-10),  # residual within half the tolerance
        np.eye(3) * (1 + 4e-10),  # above half the tolerance, within it
        np.eye(3) * (1 + 6e-10),  # above it
        make_pose(0, 0, 0, 0.3).rotation.astype(np.float32),
        np.diag([1.0, 1.0, np.inf]),
    ],
    ids=["within half", "within", "above", "float32", "infinite"],
)
def test_trajectory_checks_geometry_as_one_pose_at_a_time(rotation):
    poses = [make_pose(0, 1.0, 2.0, 0.5), sp.Pose(1, np.zeros(3), rotation), make_pose(2, 0.0, 0.0, 1.0)]
    fault = first_pose_fault(poses)
    if fault is None:
        assert len(Trajectory(poses)) == 3
    else:
        with pytest.raises(sp.ValidationError, match=f"^{re.escape(fault)}$"):
            Trajectory(poses)
    # a later pose's fault of another kind does not come first
    poses.append(make_pose(2, 0.0, 0.0, 1.0))
    with pytest.raises(sp.ValidationError, match=re.escape(fault or "pose ids must strictly increase")):
        Trajectory(poses)


def test_nan_rotation_no_longer_reaches_build_geometric():
    # an all-NaN rotation passes the orthonormality residual test
    bad = sp.Pose(0, np.zeros(3), np.full((3, 3), math.nan))
    with pytest.raises(sp.ValidationError, match="pose 0 rotation"):
        Trajectory([bad])


def bare_pose(pid=0, position=np.zeros(3), rotation=np.eye(3)):
    return sp.Pose(pid, position, rotation)


@pytest.mark.parametrize(
    "poses, message",
    [
        ([bare_pose(rotation=np.eye(2))], "pose 0 rotation is not a 3x3 array of numbers"),
        ([bare_pose(rotation=[[1, 0, 0], [0, 1], [0, 0, 1]])], "pose 0 rotation is not a 3x3 array of numbers"),
        ([bare_pose(rotation=np.eye(3).astype(object))], "pose 0 rotation is not a 3x3 array of numbers"),
        ([bare_pose(position="abc")], "pose 0 position is not a 3 array of numbers"),
        ([bare_pose(position=None)], "pose 0 position is not a 3 array of numbers"),
        ([bare_pose(position=np.zeros(2))], "pose 0 position is not a 3 array of numbers"),
        ([bare_pose(1), bare_pose(None)], "trajectory entry 1 has a non-integer pose id None"),
        ([bare_pose(True)], "trajectory entry 0 has a non-integer pose id True"),
        ([bare_pose(), (1, np.zeros(3), np.eye(3))], "trajectory entry 1 is not a Pose, got (1, array([0., 0., 0..."),
        ([bare_pose(), "x" * 500], "trajectory entry 1 is not a Pose, got 'xxxxxxxxxxxxxxxxxxx..."),
    ],
    ids=[
        "2x2 rotation", "ragged rotation", "object rotation", "text position", "no position", "planar position",
        "no pid", "bool pid", "tuple entry", "text entry",
    ],
)
def test_trajectory_refuses_malformed_poses(poses, message):
    # each used to escape as a bare numpy or Python error, or, for a planar
    # position, to reach build_geometric and fail there on a broadcast
    with pytest.raises(sp.ValidationError, match=f"^{re.escape(message)}$") as caught:
        Trajectory(poses)
    assert len(str(caught.value)) < 300
    # an earlier pose's fault still comes first
    with pytest.raises(sp.ValidationError, match="^pose 0 rotation is not orthonormal"):
        Trajectory([bare_pose(rotation=np.eye(3) * 2.0), *poses])


def test_trajectory_reads_list_and_tuple_geometry(tmp_path):
    # a position or rotation given as a list or tuple of numbers is read as
    # the array it spells, through the sweep and the KITTI writer alike
    rot = np.array([[0.0, 0.0, 1.0], [0.0, 1.0, 0.0], [-1.0, 0.0, 0.0]])
    arrays = Trajectory([sp.Pose(0, np.array([1.0, 2.0, 3.0]), rot), sp.Pose(1, np.array([4.0, 0.0, 0.0]), rot)])
    lists = Trajectory([sp.Pose(0, [1.0, 2.0, 3.0], rot.tolist()), sp.Pose(1, (4, 0, 0), tuple(map(tuple, rot)))])
    g = build_geometric(arrays, arrays, GeometryParams(d_max=10.0, eta=0.1))
    assert g.num_edges == 4
    assert sp.dumps_graph(build_geometric(lists, lists, GeometryParams(d_max=10.0, eta=0.1))) == sp.dumps_graph(g)
    for name, traj in (("arrays", arrays), ("lists", lists)):
        write_kitti_poses(traj, tmp_path / name)
    assert (tmp_path / "arrays").read_text() == (tmp_path / "lists").read_text()


def test_geometry_params_validation():
    with pytest.raises(sp.ValidationError):
        GeometryParams(d_max=0, eta=0.0)
    with pytest.raises(sp.ValidationError):
        GeometryParams(d_max=10, eta=1.5)
    with pytest.raises(sp.ValidationError):
        AppearanceParams(alpha=-0.1)


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("column", [0, 4, 11])
def test_kitti_rejects_non_finite_values(tmp_path, value, column):
    fields = "1 0 0 0 0 1 0 0 0 0 1 0".split()
    fields[column] = value
    path = tmp_path / "poses.txt"
    path.write_text("1 0 0 0 0 1 0 0 0 0 1 0\n\n" + " ".join(fields) + "\n")
    with pytest.raises(sp.GraphFormatError, match=r"poses.txt:3: non-finite"):
        read_kitti_poses(path)


def test_kitti_rejects_extra_feature_counts(tmp_path):
    path = tmp_path / "poses.txt"
    path.write_text("1 0 0 0 0 1 0 0 0 0 1 0\n")
    assert len(read_kitti_poses(path, [5])) == 1
    with pytest.raises(sp.GraphFormatError, match=r"poses.txt:2: 1 poses but 3 feature counts"):
        read_kitti_poses(path, [5, 5, 5])


def test_geometric_sweep_equals_per_point_builds():
    t1, t2 = synthetic_two_loop(40)
    params = [GeometryParams(d_max=d, eta=e) for d, e in ((10, 0.3), (25, 0.3), (25, 0.0), (25, 0.6), (40, 0.3))]
    swept = list(build_geometric_sweep(t1, t2, params))
    assert [sp.dumps_graph(g) for g in swept] == [sp.dumps_graph(build_geometric(t1, t2, p)) for p in params]


def test_geometric_sweep_memory_does_not_grow_with_points_times_pairs():
    # 291 dmax points at 300 poses a side: a (pairs, points) gate array
    # and a mask per point over every pair took a traced peak of 16.4 MiB;
    # one overlap per pair and a mask made per point take about 3 MiB
    t1, t2 = synthetic_two_loop(300)
    points = [GeometryParams(d_max=2 + k / 5, eta=0) for k in range(291)]
    tracemalloc.start()
    try:
        for _ in build_geometric_sweep(t1, t2, points):
            pass  # each graph is dropped when the next replaces it
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20, peak


def test_appearance_sweep_memory_does_not_grow_with_points():
    # 300 alpha points over 2,000 queries of 20 scores each, top_k 2: each
    # point's pair codes held until the first yield took a traced peak of
    # about 27 MiB; one ranking and a mask made per point take about 3 MiB
    rng = np.random.default_rng(5)
    scores = np.zeros(40_000, dtype=candidates.SCORE_DTYPE)
    scores["u"] = np.repeat(np.arange(2000), 20)
    scores["v"] = rng.integers(0, 2000, len(scores))
    scores["score"] = rng.random(len(scores))
    points = [AppearanceParams(alpha=k / 300) for k in range(300)]
    tracemalloc.start()
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)  # pruned vertices
            for _ in build_appearance_sweep(scores, [1] * 2000, [1] * 2000, points):
                pass  # each graph is dropped when the next replaces it
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20, peak


def test_geometric_sweep_points_share_fov_shape():
    t1, t2 = synthetic_two_loop(10)
    points = [GeometryParams(d_max=20, eta=0.3), GeometryParams(d_max=20, eta=0.3, fov_range=20.0)]
    with pytest.raises(sp.ValidationError, match="differ only in d_max and eta"):
        list(build_geometric_sweep(t1, t2, points))


def test_sweeps_raise_a_point_error_after_the_points_before_it():
    t1, t2 = synthetic_two_loop(10)
    first = [GeometryParams(d_max=20, eta=0.3), GeometryParams(d_max=30, eta=0.0)]

    def points(tail):
        """The two points of ``first``, then ``tail``, or its error."""
        yield from first
        if isinstance(tail, Exception):
            raise tail
        yield tail

    for tail, error in (
        (RuntimeError("third point"), RuntimeError),
        (GeometryParams(d_max=20, eta=0.3, fov_range=20.0), sp.ValidationError),
    ):
        sweep = build_geometric_sweep(t1, t2, points(tail))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)  # pruned vertices
            graphs = [next(sweep), next(sweep)]
            assert [sp.dumps_graph(g) for g in graphs] == [sp.dumps_graph(build_geometric(t1, t2, p)) for p in first]
        with pytest.raises(error):
            next(sweep)
    # a fault of the first point comes before a later point's error
    with pytest.raises(sp.EmptyTrajectory):
        next(build_geometric_sweep(Trajectory([]), t2, points(RuntimeError("later"))))
    scores = [(0, 0, 0.9), (0, 5, 0.4)]
    late = (AppearanceParams(alpha=a) for a in (0.5, 0.3, 0.2))
    sweep = build_appearance_sweep(scores, [1], [1, 1], late)
    assert next(sweep).num_edges == 1
    with pytest.raises(sp.IndexOutOfRange, match=r"^edge \(0, 5\) outside vertex ranges$"):
        next(sweep)


@pytest.mark.parametrize(
    "kwargs, message",
    [
        ({"n": 2.5}, "n must be an integer, got 2.5"),
        ({"n": "3"}, "n must be an integer, got '3'"),
        ({"n": None}, "n must be an integer, got None"),
        ({"n": True}, "n must be an integer, got True"),
        ({"n": 0}, "n must be >= 1, got 0"),
        ({"n": -1}, "n must be >= 1, got -1"),
        ({"n": candidates.MAX_SYNTHETIC_POSES + 1}, "n must be at most 100000, got 100001"),
        ({"seed": None}, "seed must be an integer, got None"),
        ({"seed": True}, "seed must be an integer, got True"),
        ({"seed": 7.0}, "seed must be an integer, got 7.0"),
        ({"seed": "7"}, "seed must be an integer, got '7'"),
    ],
)
def test_synthetic_two_loop_refuses_a_bad_size_or_seed(monkeypatch, kwargs, message):
    # a float, a string or None was a bare TypeError; True gave one pose a
    # side, 0 or less none, and a seed of None a different fixture per call.
    # Each is refused before any pose is placed.
    monkeypatch.setattr(candidates, "_resample_loop", mock.Mock(side_effect=AssertionError("poses placed")))
    with pytest.raises(sp.ValidationError, match=f"^{re.escape(message)}$"):
        synthetic_two_loop(**kwargs)


def test_synthetic_two_loop_is_deterministic():
    counts = [[p.feature_count for p in t.poses] for t in synthetic_two_loop(30, seed=3)]
    assert counts == [[p.feature_count for p in t.poses] for t in synthetic_two_loop(30, seed=np.int64(3))]
    assert counts != [[p.feature_count for p in t.poses] for t in synthetic_two_loop(30, seed=4)]
