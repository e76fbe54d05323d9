"""Candidate generation: builds exchange graphs from trajectory geometry
or from appearance-similarity scores.

Geometric gating links two poses when they are within a distance bound and
their camera fields of view overlap enough; appearance gating keeps each
query's best-scoring matches above a threshold. Both emit validated
exchange graphs whose vertex weights are scan sizes in bytes (feature
count times the per-descriptor byte size).

Conventions: poses follow the KITTI camera frame (x right, y down,
z forward). Planar quantities live in the ground (x, z) plane and the
camera heading is the rotation's z column projected onto it.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .errors import EmptyTrajectory, GraphFormatError, ScoreOutOfRange, ValidationError
from .graph import ExchangeGraph, build_graph

# Standard BRIEF descriptor size; one vocabulary word fits in 3 bytes.
DESCRIPTOR_BYTES = 32
METADATA_WORD_BYTES = 3

# Cells per axis for the deterministic sector-overlap quadrature.
FOV_GRID_RESOLUTION = 256


@dataclass(frozen=True, eq=False)
class Pose:
    """One trajectory sample: rigid transform plus its feature count."""

    pid: int
    position: np.ndarray  # (3,) meters
    rotation: np.ndarray  # (3,3) orthonormal
    feature_count: int = 1
    timestamp: int = 0


class Trajectory:
    """Ordered, validated pose sequence for one robot."""

    def __init__(self, poses: Sequence[Pose], rotation_tol: float = 1e-9):
        self.poses = tuple(poses)
        last = None
        for pose in self.poses:
            if last is not None and pose.pid <= last:
                raise ValidationError(f"pose ids must strictly increase, got {pose.pid} after {last}")
            last = pose.pid
            if pose.feature_count < 0:
                raise ValidationError(f"pose {pose.pid} has negative feature count")
            err = np.abs(pose.rotation @ pose.rotation.T - np.eye(3)).max()
            if err > rotation_tol:
                raise ValidationError(
                    f"pose {pose.pid} rotation is not orthonormal (residual {err:.3e})"
                )

    def __len__(self):
        return len(self.poses)

    def __iter__(self):
        return iter(self.poses)

    def __getitem__(self, i):
        return self.poses[i]


@dataclass(frozen=True)
class GeometryParams:
    """Gates for geometric candidate generation."""

    d_max: float
    eta: float
    rate_divisor: int = 1
    fov_half_angle: float = 0.7
    fov_range: float = 30.0

    def __post_init__(self):
        for name in ("d_max", "eta", "fov_half_angle", "fov_range"):
            if not math.isfinite(getattr(self, name)):
                raise ValidationError(f"{name} must be finite, got {getattr(self, name)}")
        if self.d_max <= 0:
            raise ValidationError(f"d_max must be positive, got {self.d_max}")
        if not 0 <= self.eta <= 1:
            raise ValidationError(f"eta must lie in [0, 1], got {self.eta}")
        if int(self.rate_divisor) < 1:
            raise ValidationError(f"rate_divisor must be >= 1, got {self.rate_divisor}")


@dataclass(frozen=True)
class AppearanceParams:
    """Gates for appearance-score candidate generation: keep each query's
    ``top_k`` best matches whose normalized score exceeds ``alpha``."""

    alpha: float
    top_k: int = 2
    symmetric: bool = False

    def __post_init__(self):
        if not 0 <= self.alpha <= 1:
            raise ValidationError(f"alpha must lie in [0, 1], got {self.alpha}")
        if int(self.top_k) < 1:
            raise ValidationError(f"top_k must be >= 1, got {self.top_k}")


def planar_position(pose: Pose) -> np.ndarray:
    return np.array([pose.position[0], pose.position[2]], dtype=float)


def planar_heading(pose: Pose) -> np.ndarray:
    """Camera forward direction projected to the ground plane, unit length."""
    fwd = pose.rotation[:, 2]
    h = np.array([fwd[0], fwd[2]], dtype=float)
    norm = float(np.hypot(h[0], h[1]))
    if norm < 1e-12:  # camera pointing straight up/down; pick a fixed axis
        return np.array([0.0, 1.0])
    return h / norm


def subsample(traj: Trajectory, rate_divisor: int) -> Trajectory:
    """Keep every rate_divisor-th pose starting from the first."""
    r = int(rate_divisor)
    if r < 1:
        raise ValidationError(f"rate_divisor must be >= 1, got {rate_divisor}")
    return Trajectory(traj.poses[::r])


def fov_overlap(
    pose_a: Pose,
    pose_b: Pose,
    fov_half_angle: float,
    fov_range: float,
    resolution: int = FOV_GRID_RESOLUTION,
) -> float:
    """Overlap fraction of two planar view sectors, in [0, 1].

    Each sector sits at its pose's planar position, is bisected by its
    heading, and spans ``fov_half_angle`` to each side up to ``fov_range``.
    The fraction is the sector-intersection area over the (common) area of
    one sector, evaluated by grid quadrature on a fixed shared lattice so
    the result is symmetric in the two poses and exactly 1.0 for identical
    ones. Degenerate zero-range sectors overlap nothing.
    """
    if fov_range <= 0 or fov_half_angle <= 0:
        return 0.0
    pa, pb = planar_position(pose_a), planar_position(pose_b)
    if float(np.hypot(*(pa - pb))) > 2 * fov_range:
        return 0.0
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

    mask_a = sector_mask(pa, ha)
    mask_b = sector_mask(pb, hb)
    n_a = int(mask_a.sum())
    n_b = int(mask_b.sum())
    if n_a + n_b == 0:
        return 0.0
    n_ab = int((mask_a & mask_b).sum())
    return 2.0 * n_ab / (n_a + n_b)


def build_geometric(
    t1: Trajectory,
    t2: Trajectory,
    p: GeometryParams,
    descriptor_bytes: int = DESCRIPTOR_BYTES,
) -> ExchangeGraph:
    """Exchange graph from trajectory geometry: after subsampling, poses
    u (robot 1) and v (robot 2) are candidates iff their positions are
    within ``d_max`` and their view overlap is at least ``eta``. Vertex
    weights are feature_count * descriptor_bytes; edge costs are 1.
    """
    if len(t1) == 0 or len(t2) == 0:
        raise EmptyTrajectory("both trajectories must contain at least one pose")
    s1 = subsample(t1, p.rate_divisor)
    s2 = subsample(t2, p.rate_divisor)
    pos1 = np.array([pose.position for pose in s1], dtype=float)
    pos2 = np.array([pose.position for pose in s2], dtype=float)
    dists = np.linalg.norm(pos1[:, None, :] - pos2[None, :, :], axis=2)
    edges = []
    for i, j in np.argwhere(dists <= p.d_max):
        if p.eta > 0 and fov_overlap(s1[i], s2[j], p.fov_half_angle, p.fov_range) < p.eta:
            continue
        edges.append((int(i), int(j), 1))
    w1 = [pose.feature_count * descriptor_bytes for pose in s1]
    w2 = [pose.feature_count * descriptor_bytes for pose in s2]
    return build_graph(w1, w2, edges)


def build_appearance(
    scores: Iterable[tuple[int, int, float]],
    t1_weights: Sequence,
    t2_weights: Sequence,
    p: AppearanceParams,
) -> ExchangeGraph:
    """Exchange graph from appearance scores: each side-1 query keeps its
    ``top_k`` highest-scoring side-2 candidates with score strictly above
    ``alpha`` (ties broken toward the lower index). With ``symmetric``
    set, side-2 queries against side 1 are unioned in as well.
    """
    rows: dict[int, list[tuple[float, int, int]]] = {}
    cols: dict[int, list[tuple[float, int, int]]] = {}
    for u, v, score in scores:
        if not 0 <= score <= 1:
            raise ScoreOutOfRange(f"score {score!r} for pair ({u}, {v}) outside [0, 1]")
        rows.setdefault(int(u), []).append((float(score), int(u), int(v)))
        cols.setdefault(int(v), []).append((float(score), int(u), int(v)))
    selected: set[tuple[int, int]] = set()

    def pick(candidates, tie_index):
        kept = [c for c in candidates if c[0] > p.alpha]
        kept.sort(key=lambda c: (-c[0], c[tie_index]))
        return kept[: p.top_k]

    for u in sorted(rows):
        selected.update((u, v) for _, u, v in pick(rows[u], 2))
    if p.symmetric:
        for v in sorted(cols):
            selected.update((u, v) for _, u, v in pick(cols[v], 1))
    edges = [(u, v, 1) for u, v in sorted(selected)]
    return build_graph(list(t1_weights), list(t2_weights), edges)


# -- file ingestion ----------------------------------------------------------


def _orthonormalized(m: np.ndarray) -> np.ndarray:
    """Nearest rotation matrix; real pose files carry rounded entries."""
    u, _, vt = np.linalg.svd(m)
    r = u @ vt
    if np.linalg.det(r) < 0:
        u[:, -1] = -u[:, -1]
        r = u @ vt
    return r


def read_kitti_poses(path, feature_counts: Sequence[int] | None = None) -> Trajectory:
    """Read a KITTI odometry ground-truth pose file: one pose per line, 12
    space-separated finite decimals forming a row-major 3x4 rigid
    transform. Rotations are projected to the nearest orthonormal matrix,
    since the files carry rounded entries. ``feature_counts``, when given,
    holds exactly one count per pose."""
    poses = []
    lineno = -1
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh):
            line = line.strip()
            if not line:
                continue
            values = line.split()
            if len(values) != 12:
                raise GraphFormatError(
                    f"{path}:{lineno + 1}: expected 12 values per pose line, got {len(values)}"
                )
            try:
                m = np.array([float(v) for v in values], dtype=float).reshape(3, 4)
            except ValueError as exc:
                raise GraphFormatError(f"{path}:{lineno + 1}: bad number ({exc})") from exc
            if not np.isfinite(m).all():
                raise GraphFormatError(f"{path}:{lineno + 1}: non-finite value in pose line")
            count = 1
            if feature_counts is not None:
                if len(poses) >= len(feature_counts):
                    raise GraphFormatError(
                        f"{path}: more poses than feature counts ({len(feature_counts)})"
                    )
                count = int(feature_counts[len(poses)])
            poses.append(
                Pose(
                    pid=len(poses),
                    position=m[:, 3].copy(),
                    rotation=_orthonormalized(m[:, :3]),
                    feature_count=count,
                    timestamp=len(poses),
                )
            )
    if feature_counts is not None and len(feature_counts) > len(poses):
        # named at the line where the next pose was expected
        raise GraphFormatError(
            f"{path}:{lineno + 2}: {len(poses)} poses but {len(feature_counts)} feature counts"
        )
    return Trajectory(poses)


def read_feature_counts(path) -> list[int]:
    """One non-negative integer per line, aligned with pose lines."""
    counts = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh):
            line = line.strip()
            if not line:
                continue
            try:
                value = int(line)
            except ValueError as exc:
                raise GraphFormatError(f"{path}:{lineno + 1}: bad feature count {line!r}") from exc
            if value < 0:
                raise GraphFormatError(f"{path}:{lineno + 1}: negative feature count {value}")
            counts.append(value)
    return counts


def read_scores(path) -> list[tuple[int, int, float]]:
    """Score file: lines of ``u_index v_index score``."""
    scores = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh):
            line = line.strip()
            if not line:
                continue
            parts = line.split()
            if len(parts) != 3:
                raise GraphFormatError(f"{path}:{lineno + 1}: expected 'u v score'")
            try:
                scores.append((int(parts[0]), int(parts[1]), float(parts[2])))
            except ValueError as exc:
                raise GraphFormatError(f"{path}:{lineno + 1}: bad score line ({exc})") from exc
    return scores


def write_kitti_poses(traj: Trajectory, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for pose in traj:
            m = np.hstack([pose.rotation, pose.position.reshape(3, 1)])
            fh.write(" ".join(f"{v:.17g}" for v in m.reshape(-1)) + "\n")


def write_feature_counts(traj: Trajectory, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for pose in traj:
            fh.write(f"{pose.feature_count}\n")


# -- synthetic fixture --------------------------------------------------------


def _rotation_about_y(theta: float) -> np.ndarray:
    c, s = math.cos(theta), math.sin(theta)
    return np.array([[c, 0.0, s], [0.0, 1.0, 0.0], [-s, 0.0, c]])


def make_pose(pid, x, z, heading, feature_count=1, y=0.0) -> Pose:
    """Planar pose helper: heading is the angle of the camera's forward
    axis in the ground plane (0 points toward +z)."""
    return Pose(
        pid=pid,
        position=np.array([x, y, z], dtype=float),
        rotation=_rotation_about_y(heading),
        feature_count=feature_count,
        timestamp=pid,
    )


def _resample_loop(corners: list[tuple[float, float]], n: int) -> list[tuple[float, float, float]]:
    """n points (x, z, heading) evenly spaced by arc length along the
    closed polyline through ``corners``; heading follows travel direction."""
    pts = [np.array(c, dtype=float) for c in corners]
    segs = [(pts[i], pts[(i + 1) % len(pts)]) for i in range(len(pts))]
    lengths = [float(np.hypot(*(b - a))) for a, b in segs]
    total = sum(lengths)
    out = []
    for k in range(n):
        target = total * k / n
        for idx, ((a, b), seg_len) in enumerate(zip(segs, lengths)):
            # the last segment absorbs any float-roundoff leftovers
            if target <= seg_len or idx == len(segs) - 1:
                frac = 0.0 if seg_len == 0 else min(target / seg_len, 1.0)
                q = a + (b - a) * frac
                d = b - a
                out.append((float(q[0]), float(q[1]), math.atan2(d[0], d[1])))
                break
            target -= seg_len
    return out


def synthetic_two_loop(
    n: int = 100, lane_offset: float = 1.0, seed: int = 7
) -> tuple[Trajectory, Trajectory]:
    """Deterministic two-robot fixture: each robot drives a rectangular
    loop and the two loops share a central corridor traversed in the same
    direction, a few meters apart. Corridor pose pairs are close with
    aligned headings, so geometric gating yields a dense candidate band
    there and nothing across the far legs.

    Feature richness is deliberately lopsided between the robots on the
    two corridor halves (as if they passed the detailed stretch under
    different conditions), so the cheapest complete-search policy is a
    dialog mixing each robot's light scans, strictly beating both
    one-directional policies.
    """
    rng = random.Random(seed)
    half = 30.0
    width = 60.0
    # traversal orders keep both corridor legs heading toward +z
    left = [(-lane_offset, -half), (-lane_offset, half), (-width, half), (-width, -half)]
    right = [(lane_offset, -half), (lane_offset, half), (width, half), (width, -half)]

    def feature_count(side, z):
        light = z < 0 if side == 1 else z >= 0
        return (60 if light else 220) + rng.randint(0, 20)

    trajs = []
    for side, corners in ((1, left), (2, right)):
        poses = [
            make_pose(i, x, z, heading, feature_count=feature_count(side, z))
            for i, (x, z, heading) in enumerate(_resample_loop(corners, n))
        ]
        trajs.append(Trajectory(poses))
    return trajs[0], trajs[1]
