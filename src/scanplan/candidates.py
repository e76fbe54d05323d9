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
import numbers
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
            # NaN would slip through the residual test below (nan > tol is False)
            for name in ("position", "rotation"):
                if not np.isfinite(getattr(pose, name)).all():
                    raise ValidationError(f"pose {pose.pid} {name} has a non-finite entry")
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


def _check_count(name: str, value) -> None:
    """A gate count must be a true integer >= 1: floats and booleans are
    refused rather than truncated."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValidationError(f"{name} must be an integer, got {value!r}")
    if value < 1:
        raise ValidationError(f"{name} must be >= 1, got {value}")


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
        for name in ("fov_half_angle", "fov_range"):
            if getattr(self, name) <= 0:
                raise ValidationError(f"{name} must be positive, got {getattr(self, name)}")
        _check_count("rate_divisor", self.rate_divisor)


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
        _check_count("top_k", self.top_k)


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
    _check_count("rate_divisor", rate_divisor)
    return Trajectory(traj.poses[::rate_divisor])


class _FovQuadrature:
    """Sector-overlap quadrature at one lattice resolution, on scratch
    buffers allocated on first use and reused by every later pair.

    The lattice and every per-cell float operation are those of the plain
    meshgrid formulation, so masks and overlaps are bit-identical to it.
    Three things make it cheaper:

    - the lattice is separable: a sector's offsets are two 1-D vectors
      ``dx``/``dz``, and its distances and heading projections are their
      ``np.hypot`` and ``np.add.outer``, written into the scratch buffers;
    - each sector is evaluated only on the window of lattice rows with
      ``|dx| <= r`` and columns with ``|dz| <= r``. A cell outside it fails
      ``dist <= r`` anyway, because a faithfully rounded ``hypot(dx, dz)``
      is at least ``|dx|`` and ``|dz|``; NaN cells fail both tests;
    - the two sectors are intersected only where their windows overlap.
    """

    def __init__(self, resolution: int = FOV_GRID_RESOLUTION):
        self.resolution = resolution
        self._dist = self._proj = self._in_a = self._in_b = self._test = None

    @staticmethod
    def _window(d: np.ndarray, r: float) -> tuple[int, int]:
        """Index range of the lattice lines within ``r`` of the apex."""
        inside = np.flatnonzero(np.abs(d) <= r)
        return (int(inside[0]), int(inside[-1]) + 1) if inside.size else (0, 0)

    @staticmethod
    def _view(buf: np.ndarray, rows: tuple[int, int], cols: tuple[int, int]) -> np.ndarray:
        """The front of a flat buffer as a C-ordered rows x cols array."""
        shape = (rows[1] - rows[0], cols[1] - cols[0])
        return buf[: shape[0] * shape[1]].reshape(shape)

    def _sector(self, dx, dz, h, cos_half, r, rows, cols, out) -> np.ndarray:
        """Mask of the sector's cells inside its window, written to ``out``."""
        x, z = dx[rows[0] : rows[1]], dz[cols[0] : cols[1]]
        dist = self._view(self._dist, rows, cols)
        proj = self._view(self._proj, rows, cols)
        mask = self._view(out, rows, cols)
        test = self._view(self._test, rows, cols)
        np.hypot(x[:, None], z[None, :], out=dist)
        np.add.outer(x * h[0], z * h[1], out=proj)
        np.less_equal(dist, r, out=mask)
        np.multiply(cos_half, dist, out=dist)
        np.greater_equal(proj, dist, out=test)
        mask &= test
        return mask

    def overlap(self, pa, ha, pb, hb, fov_half_angle, fov_range) -> float:
        """``fov_overlap`` of two sectors given by planar position and unit
        heading."""
        if fov_range <= 0 or fov_half_angle <= 0:
            return 0.0
        # extreme ranges overflow the lattice bounds into inf/NaN lines,
        # which the windows leave out; that is expected, not worth a warning
        with np.errstate(over="ignore", invalid="ignore"):
            if float(np.hypot(*(pa - pb))) > 2 * fov_range:
                return 0.0
            r = float(fov_range)
            lo = np.minimum(pa, pb) - r
            hi = np.maximum(pa, pb) + r
            n = int(self.resolution)
            xs = lo[0] + (np.arange(n) + 0.5) * (hi[0] - lo[0]) / n
            zs = lo[1] + (np.arange(n) + 0.5) * (hi[1] - lo[1]) / n
            cos_half = math.cos(fov_half_angle)
            if self._dist is None:
                size = max(n, 0) ** 2
                self._dist, self._proj = np.empty(size), np.empty(size)
                self._in_a, self._in_b, self._test = (np.empty(size, dtype=bool) for _ in range(3))
            sectors = []
            for p, h, out in ((pa, ha, self._in_a), (pb, hb, self._in_b)):
                dx, dz = xs - p[0], zs - p[1]
                rows, cols = self._window(dx, r), self._window(dz, r)
                sectors.append((rows, cols, self._sector(dx, dz, h, cos_half, r, rows, cols, out)))
        (rows_a, cols_a, mask_a), (rows_b, cols_b, mask_b) = sectors
        n_a = int(np.count_nonzero(mask_a))
        n_b = int(np.count_nonzero(mask_b))
        if n_a + n_b == 0:
            return 0.0
        rows = (max(rows_a[0], rows_b[0]), min(rows_a[1], rows_b[1]))
        cols = (max(cols_a[0], cols_b[0]), min(cols_a[1], cols_b[1]))
        if rows[0] >= rows[1] or cols[0] >= cols[1]:
            return 0.0

        def crop(mask, mask_rows, mask_cols):
            return mask[
                rows[0] - mask_rows[0] : rows[1] - mask_rows[0],
                cols[0] - mask_cols[0] : cols[1] - mask_cols[0],
            ]

        both = np.logical_and(
            crop(mask_a, rows_a, cols_a), crop(mask_b, rows_b, cols_b), out=self._view(self._test, rows, cols)
        )
        return 2.0 * int(np.count_nonzero(both)) / (n_a + n_b)


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
    one sector, evaluated by grid quadrature on a fixed shared lattice
    (``resolution`` cells per axis over the bounding box of both sectors)
    so the result is symmetric in the two poses, and exactly 1.0 for
    identical ones while the lattice bounds are finite. Degenerate
    zero-range sectors overlap nothing, and so do ranges whose lattice
    bounds overflow.
    """
    return _FovQuadrature(resolution).overlap(
        planar_position(pose_a),
        planar_heading(pose_a),
        planar_position(pose_b),
        planar_heading(pose_b),
        fov_half_angle,
        fov_range,
    )


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
    pairs = np.argwhere(dists <= p.d_max).tolist()
    if p.eta > 0:
        # one lattice's buffers and each pose's planar inputs serve every pair
        quad = _FovQuadrature()
        planar1 = [(planar_position(pose), planar_heading(pose)) for pose in s1]
        planar2 = [(planar_position(pose), planar_heading(pose)) for pose in s2]
        pairs = [
            (i, j)
            for i, j in pairs
            if not quad.overlap(*planar1[i], *planar2[j], p.fov_half_angle, p.fov_range) < p.eta
        ]
    w1 = [pose.feature_count * descriptor_bytes for pose in s1]
    w2 = [pose.feature_count * descriptor_bytes for pose in s2]
    return build_graph(w1, w2, [(i, j, 1) for i, j in pairs])


def _top_k(group: np.ndarray, score: np.ndarray, tie: np.ndarray, k: int) -> np.ndarray:
    """Positions of each group's ``k`` best entries: highest score first,
    then the lower ``tie`` value, then the earlier entry."""
    order = np.lexsort((tie, -score, group))
    g = group[order]
    first = np.ones(len(g), dtype=bool)
    first[1:] = g[1:] != g[:-1]
    at = np.arange(len(g))
    rank = at - np.maximum.accumulate(np.where(first, at, 0))
    return order[rank < k]


def build_appearance(
    scores: Iterable[tuple[int, int, float]],
    t1_weights: Sequence,
    t2_weights: Sequence,
    p: AppearanceParams,
) -> ExchangeGraph:
    """Exchange graph from appearance scores: each side-1 query keeps its
    ``top_k`` highest-scoring side-2 candidates with score strictly above
    ``alpha`` (ties broken toward the lower index). With ``symmetric``
    set, side-2 queries against side 1 are unioned in as well. Repeated
    ``(u, v, score)`` entries count as separate candidates.
    """
    us, vs, values = [], [], []
    for u, v, score in scores:
        if not 0 <= score <= 1:
            raise ScoreOutOfRange(f"score {score!r} for pair ({u}, {v}) outside [0, 1]")
        us.append(int(u))
        vs.append(int(v))
        values.append(float(score))
    # np.array keeps indices beyond int64 exact, as an object array
    s = np.array(values, dtype=float)
    keep = np.flatnonzero(s > p.alpha)
    u, v, s = np.array(us)[keep], np.array(vs)[keep], s[keep]
    picked = [_top_k(u, s, v, p.top_k)]
    if p.symmetric:
        picked.append(_top_k(v, s, u, p.top_k))
    chosen = np.concatenate(picked)
    selected = set(zip(u[chosen].tolist(), v[chosen].tolist()))
    edges = [(a, b, 1) for a, b in sorted(selected)]
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
