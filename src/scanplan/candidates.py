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

import io
import math
import numbers
import os
import random
import warnings
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence
from urllib.parse import urlparse

import numpy as np
from numpy.lib._datasource import _file_openers

from .errors import EmptyTrajectory, GraphFormatError, ScoreOutOfRange, ValidationError
from .graph import _NUMBER_LIMIT, ExchangeGraph, VertexId, _index, _unpruned_graph, build_graph, open_text
from .objectives import MAX_NUMBER_DIGITS, _shown

# Standard BRIEF descriptor size.
DESCRIPTOR_BYTES = 32

# Largest entry of R R^T - I that a pose rotation may show.
ROTATION_TOL = 1e-9

# Cells per axis for the deterministic sector-overlap quadrature.
FOV_GRID_RESOLUTION = 256

# The record of a score file line, as ``read_scores`` returns it.
SCORE_DTYPE = np.dtype([("u", np.int64), ("v", np.int64), ("score", np.float64)])


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

    def __init__(self, poses: Sequence[Pose]):
        self.poses = tuple(poses)
        last = None
        for k, (pose, sound) in enumerate(zip(self.poses, _sound_geometry(self.poses))):
            if not isinstance(pose, Pose):
                raise ValidationError(f"trajectory entry {k} is not a Pose, got {_shown(pose)}")
            if isinstance(pose.pid, bool) or not isinstance(pose.pid, numbers.Integral):
                raise ValidationError(f"trajectory entry {k} has a non-integer pose id {_shown(pose.pid)}")
            if last is not None and pose.pid <= last:
                raise ValidationError(
                    f"pose ids must strictly increase, got {_shown(pose.pid, str)} after {_shown(last, str)}"
                )
            last = pose.pid
            count = pose.feature_count
            try:  # exactly, with no float, which a huge count would overflow
                integral = isinstance(count, numbers.Real) and int(count) == count
            except (OverflowError, ValueError):  # infinite or NaN
                integral = False
            if not integral:
                raise ValidationError(
                    f"pose {_shown(pose.pid, str)} has a non-integral feature count {_shown(count)}"
                )
            if count < 0:
                raise ValidationError(f"pose {_shown(pose.pid, str)} has negative feature count")
            if sound:
                continue
            for name, shape, what in (("position", (3,), "3"), ("rotation", (3, 3), "3x3")):
                try:  # any array-like of real numbers, a list or tuple included
                    value = np.asarray(getattr(pose, name))
                except ValueError:  # ragged
                    value = None
                if value is None or value.shape != shape or value.dtype.kind not in "iuf":
                    raise ValidationError(f"pose {_shown(pose.pid, str)} {name} is not a {what} array of numbers")
                # NaN would slip through the residual test below (nan > tol is False)
                if not np.isfinite(value).all():
                    raise ValidationError(f"pose {_shown(pose.pid, str)} {name} has a non-finite entry")
            err = np.abs(value @ value.T - np.eye(3)).max()  # value is the rotation
            if err > ROTATION_TOL:
                raise ValidationError(
                    f"pose {_shown(pose.pid, str)} rotation is not orthonormal (residual {err:.3e})"
                )

    def __len__(self):
        return len(self.poses)

    def __iter__(self):
        return iter(self.poses)

    def __getitem__(self, i):
        return self.poses[i]


def _sound_geometry(poses: Sequence[Pose]) -> list[bool]:
    """Per pose, whether its position and rotation are finite and its
    rotation's residual is at most half of ``ROTATION_TOL``, checked for
    all poses at once; all False unless every position is a float64 array
    of 3 and every rotation a float64 3x3 array. Rounding moves the
    batched residual far less than that margin, so a pose marked sound
    passes the one-by-one check, which the others still take."""
    pos, rot = ([getattr(pose, name, None) for pose in poses] for name in ("position", "rotation"))
    unsound = [False] * len(poses)
    if not all(type(a) is np.ndarray and a.dtype == np.float64 for a in pos + rot):
        return unsound
    try:
        pos, rot = np.array(pos), np.array(rot)
    except ValueError:  # shapes differ
        return unsound
    if pos.shape[1:] != (3,) or rot.shape[1:] != (3, 3):
        return unsound
    with np.errstate(all="ignore"):  # a non-finite rotation's residual is NaN, so not sound
        err = np.abs(rot @ rot.transpose(0, 2, 1) - np.eye(3)).max(axis=(1, 2))
    return (np.isfinite(pos).all(axis=1) & (err <= ROTATION_TOL / 2)).tolist()


def _check_count(name: str, value) -> None:
    """A gate count must be a true integer >= 1: floats and booleans are
    refused rather than truncated."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValidationError(f"{name} must be an integer, got {_shown(value)}")
    if value < 1:
        raise ValidationError(f"{name} must be >= 1, got {_shown(value, str)}")


def _check_finite(name: str, value) -> None:
    """A gate value must be a finite real number: booleans, numpy's
    included, are refused rather than read as 0 or 1."""
    if isinstance(value, (bool, np.bool_)):
        raise ValidationError(f"{name} must be a real number, got {value}")
    real = isinstance(value, numbers.Real)
    try:  # a number beyond the float range, such as 10**400, is not finite
        finite = real and math.isfinite(value)
    except OverflowError:
        finite = False
    if not finite:
        raise ValidationError(f"{name} must be finite, got {_shown(value, str if real else repr)}")


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
            _check_finite(name, getattr(self, name))
        if self.d_max <= 0:
            raise ValidationError(f"d_max must be positive, got {_shown(self.d_max, str)}")
        if not 0 <= self.eta <= 1:
            raise ValidationError(f"eta must lie in [0, 1], got {_shown(self.eta, str)}")
        for name in ("fov_half_angle", "fov_range"):
            if getattr(self, name) <= 0:
                raise ValidationError(f"{name} must be positive, got {_shown(getattr(self, name), str)}")
        _check_count("rate_divisor", self.rate_divisor)


@dataclass(frozen=True)
class AppearanceParams:
    """Gates for appearance-score candidate generation: keep each query's
    ``top_k`` best matches whose normalized score exceeds ``alpha``."""

    alpha: float
    top_k: int = 2
    symmetric: bool = False

    def __post_init__(self):
        if isinstance(self.alpha, (bool, np.bool_)):
            raise ValidationError(f"alpha must be a real number, got {self.alpha}")
        real = isinstance(self.alpha, numbers.Real)
        if not (real and 0 <= self.alpha <= 1):
            raise ValidationError(f"alpha must lie in [0, 1], got {_shown(self.alpha, str if real else repr)}")
        _check_count("top_k", self.top_k)
        if not isinstance(self.symmetric, (bool, np.bool_)):
            raise ValidationError(f"symmetric must be a bool, got {_shown(self.symmetric)}")


def planar_position(pose: Pose) -> np.ndarray:
    return np.array([pose.position[0], pose.position[2]], dtype=float)


def planar_heading(pose: Pose) -> np.ndarray:
    """Camera forward direction projected to the ground plane, unit length."""
    fwd = np.asarray(pose.rotation)[:, 2]
    h = np.array([fwd[0], fwd[2]], dtype=float)
    norm = float(np.hypot(h[0], h[1]))
    if norm < 1e-12:  # camera pointing straight up/down; pick a fixed axis
        return np.array([0.0, 1.0])
    return h / norm


# Row-band filter constants; _fov_overlaps derives them.
_DISK_BAND = 2.0**-40  # kappa: relative half-width of a band around the disk edge
_WEDGE_BAND = 2.0**-20  # delta: half-width, in radians, of a wedge around a cone edge
_APEX = 2.0**-1000  # on rows this near the apex both wedge bands span the whole chord
_SCALE = 2.0**400  # the range lies in [1/_SCALE, _SCALE], every lattice bound within +-_SCALE
_INDEX_ERROR = 2.0**-48  # 32u: column tolerance per cell of coordinate magnitude
_BLOCK_ROWS = 1024  # band rows per block, a full row counting n / 16; under about 1 MB of working arrays
_SETUP_PAIRS = 1024  # pairs gated, and their pairs in doubt set up, at a time; under about 1 MB of per-pair arrays
_GATE_ARC = 0.3  # the widest arc, in radians, that one side of a _count_bounds polygon spans
_MAX_FULL_RESOLUTION = 2**12  # a full-row pair: about 1.5 s at 2**12 (2-core host), 4-5x more per doubling


def _fov_overlaps(pa, ha, pb, hb, fov_half_angle, fov_range, resolution=FOV_GRID_RESOLUTION) -> list[float]:
    """``fov_overlap`` of many sector pairs, given as (pairs, 2) arrays of
    planar positions and unit headings. Each overlap equals (``==``) that
    of the plain quadrature, which tests every cell of the full lattice,
    while a pair the error bound below covers evaluates O(resolution)
    cells instead of O(resolution**2), on the lattice rows its sectors can
    reach.

    **Row bands.** On one lattice row (fixed ``x``) a sector's exact
    predicate ``|v| <= r and v.h >= c|v|`` (``v`` the cell's offset from the
    apex, ``c`` the rounded ``cos(fov_half_angle)``) changes only where the
    row meets the disk edge or a cone edge. A *band* of cells is put around
    each such place: the cells with ``|v|`` in ``[r(1-kappa), r(1+kappa)]``,
    and the cells whose direction lies within ``delta`` of a cone edge, at
    ``+-acos(c)`` from the heading. The band edges of both sectors split the
    row into segments. A band segment's cells are evaluated one by one with
    the plain quadrature's float operations (``hypot``, ``x*h0 + z*h1``,
    ``cos_half*dist``); a gap (a segment outside every band) is evaluated
    at its first cell, and that value holds for the whole gap. The columns
    before the first band edge and after the last one lie outside both
    disks.

    **Wedge bands.** A cone edge's wedge has two ends, the heading turned
    by ``+-alpha +- delta``. An end ``(ex, ez)`` meets the row at offset
    ``dx`` from the apex, at column offset ``dx ez / ex``, when it points
    toward the row (``dx ex > 0``). On the other rows it is taken at
    infinity, on the side the ``ez`` of the wedge's first end points to;
    both ends share that side. The band runs between the two ends' columns,
    clipped to the outer disk edge. So a wedge whose ends straddle the row
    direction meets the row from one end to the disk edge, and a wedge that
    misses the row collapses onto the end of a disk band, adding no cells.
    The side only matters for a wedge that straddles the row direction,
    where both ends' ``ez`` are near +-1 and agree.

    **Why a gap is constant.** Let ``u = 2**-53``. For a cell outside every
    band, with ``|v| >= 2**-1000``:

    - ``hypot`` is faithful, ``|D - |v|| < 2u|v|``, so ``D <= r`` agrees
      with ``|v| <= r`` while ``||v| - r| > (kappa - 8u) r``; the ``8u``
      covers the rounding of the band ends;
    - the quadrature compares ``fl(fl(x h0) + fl(z h1))`` with ``fl(c D)``.
      By Cauchy-Schwarz and ``|h| <= 1 + 3u`` the left side is off by at
      most ``2.01u|v|`` and the right side by ``3.01u|v|``; underflow adds
      at most ``4 * 2**-1075``, below ``u|v|`` at that distance. In all,
      less than ``6.1u|v|``;
    - the exact margin is ``|v| |m cos b - c|``, with ``m = |h|`` and ``b``
      the angle between ``v`` and ``h``. For ``alpha = fl(acos c)`` and
      ``|b - alpha| >= delta'``, ``|cos b - cos alpha| >= 2 sin(delta'/2)**2``.
      Rounding ``acos`` moves ``cos alpha`` off ``c`` by at most ``2 pi u``,
      and ``|m - 1| <= 3u``. Each computed wedge end's direction is within
      ``O(10u)`` rad of exact, whatever ``|ex|`` is. The side test reads
      the sign of the computed ``ex``, so it is exact for the computed end;
      where it differs from the exact end's, that end lies within
      ``O(10u)`` rad of the row direction, and the band is still that of a
      wedge inside this slack. The cotangents and column positions are off
      by ``O(10u)`` relative, so ``delta' >= delta - 2**-40`` and the
      margin exceeds ``2**-41.2 |v|``.

    With ``kappa = 2**-40`` and ``delta = 2**-20`` each margin is more than
    250 times the error, so the float test equals the exact one on every gap
    cell, and the exact one has no crossing inside a gap. On rows within
    ``2**-1000`` of the apex both wedge bands span the whole chord, so no
    cell nearer the apex lies in a gap. Column positions come from the
    lattice formula; each band is widened by the tolerance
    ``2**-48 (Z / step + 1)`` cells, with ``Z`` the sum of the magnitudes of
    every coordinate involved. Widening only adds band cells.

    **Grown sectors.** The same bounds say where the float predicate can
    put a cell at all. A cell it puts in a sector has ``D <= r``, so
    ``|v| < r(1 + kappa)``, and ``v.h >= c|v| - 6.1u|v|``, so ``b`` is at
    most ``alpha + delta`` (``cos alpha - cos b`` would otherwise exceed
    ``2 sin(delta/2)**2``, far above ``6.1u`` plus the rounding of ``m`` and
    ``alpha``); or else ``|v| < 2**-1000``. So each such cell lies in the
    *grown sector* ``S+``: the sector of range ``R = r(1 + kappa)`` and
    half-angle ``beta = alpha + delta`` (the whole disk once ``beta >=
    pi``), together with the ``2**-1000`` ball around the apex. Its
    circumscribed fan (the polygon of ``_count_bounds``, at ``beta`` up to
    ``pi``) is star-shaped from the apex, and every ray inside the cone
    leaves it at distance ``R`` or more, so the fan holds ``S+`` at every
    half-angle and its vertices bound every row the float test can put a
    sector cell on. So a lattice row whose centre lies outside the hull of
    both fans' x-extents, widened by ``2**-40 (|pa|_1 + |pb|_1 + 2R) +
    2**-999`` (far above the rounding of the vertices, the offsets and the
    row positions, and covering both apex balls), adds nothing to any
    count and is skipped: the *row cull*. A pair's live rows are one run.

    **Full rows.** A pair the bound does not cover has every band span the
    whole row, so every cell of every row is evaluated one by one: a
    position or a heading is not finite; the range is outside
    ``[2**-400, 2**400]`` or a lattice bound exceeds ``2**400`` in
    magnitude; ``|h|`` is not within ``2**-50`` of 1; or the column
    tolerance, or its twin for the rows (rows closer than their rounding
    fall on the apex, where bands span the whole row), exceeds a quarter
    cell. Callers pass a finite half-angle and a resolution of at most
    ``2**20``; above ``2**12`` a full-row pair is refused before any row.

    **Blocks.** Every pair is set up and culled in one pass, so a caller
    hands over at most ``_SETUP_PAIRS`` pairs at a time: ``_fov_gates``
    one chunk's pairs in doubt, ``fov_overlap`` one pair. The live rows of
    those pairs, in pair order, are processed in blocks of at most
    ``_BLOCK_ROWS`` band rows, or of the full rows that evaluate about
    as many cells (``16 * _BLOCK_ROWS // resolution`` of them, at least
    one). A block may take rows from several pairs and split a pair's rows
    between blocks; it spans at most
    ``16 * _BLOCK_ROWS // resolution`` pairs (at least one), which bounds
    its per-pair column tables.
    """
    pa, ha, pb, hb = (np.asarray(v, dtype=float).reshape(-1, 2) for v in (pa, ha, pb, hb))
    out = [0.0] * len(pa)
    if fov_range <= 0 or fov_half_angle <= 0:
        return out
    two_r = 2 * fov_range
    # extreme ranges overflow the lattice bounds into inf/NaN lines, which
    # fail every cell test; that is expected, not worth a warning
    with np.errstate(all="ignore"):
        apart = np.hypot(pa[:, 0] - pb[:, 0], pa[:, 1] - pb[:, 1]).tolist()
        live = np.array([k for k, d in enumerate(apart) if not d > two_r], dtype=np.int64)
        if not live.size:
            return out
        r, n = float(fov_range), int(resolution)
        cos_half = math.cos(fov_half_angle)
        alpha = math.acos(cos_half)
        params = _band_setup(pa[live], ha[live], pb[live], hb[live], r, n, alpha)
        if n > _MAX_FULL_RESOLUTION and params["full"].any():
            what = "such as one far from the origin for its range, whose every lattice cell would be evaluated"
            raise ValidationError(f"resolution {n} is above 2**12 for a pair outside the row-band error bound, {what}")
        counts = np.zeros((len(live), 4), dtype=np.int64)
        for pair, row in _row_blocks(*_live_rows(params, r, n, alpha), params["full"], n):
            counts[pair[0] : pair[-1] + 1] += _block_counts(params, pair, row, cos_half, r, n)
    for k, (_, a, b, ab) in zip(live.tolist(), counts.tolist()):
        n_a, n_b = a + ab, b + ab
        if n_a + n_b:
            out[k] = 2.0 * ab / (n_a + n_b)
    return out


def _band_setup(pa, ha, pb, hb, r, n, alpha):
    """Per-pair arrays of the row-band filter, with the mask ``full`` of
    the pairs that take full rows."""
    lo = np.minimum(pa, pb) - r
    hi = np.maximum(pa, pb) + r
    span = hi - lo
    step = span[:, 1] / n
    params = {"lo": lo, "span": span, "scale": 1 / step}
    ok = (1 / _SCALE <= r <= _SCALE) & np.isfinite(pa).all(1) & np.isfinite(pb).all(1)
    ok &= np.maximum(np.abs(lo), np.abs(hi)).max(1) <= _SCALE
    reach = np.abs(lo) + np.abs(hi) + 2 * r * (1 + _DISK_BAND)
    turns = (alpha - _WEDGE_BAND, alpha + _WEDGE_BAND, -alpha - _WEDGE_BAND, -alpha + _WEDGE_BAND)
    cos_t, sin_t = np.array([math.cos(t) for t in turns]), np.array([math.sin(t) for t in turns])
    for s, p, h in (("a", pa, ha), ("b", pb, hb)):
        ok &= np.isfinite(h).all(1) & (np.abs(np.hypot(h[:, 0], h[:, 1]) - 1) <= 2.0**-50)
        # the wedge ends' directions: the heading turned by each angle
        ex = h[:, 0, None] * cos_t + h[:, 1, None] * sin_t
        ez = h[:, 1, None] * cos_t - h[:, 0, None] * sin_t
        params[f"p{s}"], params[f"h{s}"], params[f"side{s}"] = p, h, np.sign(ex)
        params[f"cot{s}"] = ez / ex * params["scale"][:, None]
        params[f"far{s}"] = np.repeat(np.where(ez[:, ::2] > 0, np.inf, -np.inf), 2, axis=1)
        params[f"apex{s}"] = (p[:, 1] - lo[:, 1]) / step - 0.5
        reach = reach + np.abs(p)
    # per axis, how far a lattice line may lie off its place, in cells
    tol = _INDEX_ERROR * (reach / (span / n) + 1)
    params["tol"] = tol[:, 1]
    params["full"] = ~(ok & (tol.max(1) <= 0.25))
    return params


def _live_rows(params, r, n, alpha):
    """Per pair, the first lattice row that can hold a cell of either
    sector and the number of such rows: the rows inside the x-extent of
    both grown sectors' circumscribed fans, and all ``n`` for a pair that
    takes full rows."""
    grown, wide = r * (1 + _DISK_BAND), min(alpha + _WEDGE_BAND, math.pi)
    arcs = max(1, math.ceil(2 * wide / _GATE_ARC))
    radius = grown / math.cos(wide / arcs)
    x = []  # per sector, (vertices, pairs): the x of its fan's vertices
    for s in "ab":
        h = params[f"h{s}"]
        x.append(_fan(params[f"p{s}"], np.arctan2(h[:, 1], h[:, 0]), radius, wide, arcs)[0])
    x = np.concatenate(x)
    margin = 2.0**-40 * (np.abs(params["pa"]).sum(1) + np.abs(params["pb"]).sum(1) + 2 * grown) + 2.0**-999
    x_lo, x_hi = x.min(0) - margin, x.max(0) + margin
    lo, per_row = params["lo"][:, 0], n / params["span"][:, 0]
    first = np.minimum(np.maximum(np.ceil((x_lo - lo) * per_row - 0.5), 0), n)
    stop = np.minimum(np.maximum(np.floor((x_hi - lo) * per_row - 0.5) + 1, first), n)
    full = params["full"]
    first = np.where(full, 0, first)
    stop = np.where(full, n, stop)
    return first.astype(np.int64), (stop - first).astype(np.int64)


def _row_blocks(first, rows, full, n):
    """The pairs' live rows, in pair order, in blocks of at most
    ``16 * _BLOCK_ROWS`` evaluated cells over at most
    ``16 * _BLOCK_ROWS // n`` pairs (at least one row and one pair): per
    block, each row's pair and lattice row index. A band row counts 16
    cells, one per band edge, and a full row (``full`` per pair) all of
    its ``n``, so a block of full rows holds about as many cells as a
    block of ``_BLOCK_ROWS`` band rows."""
    ends = np.cumsum(rows)
    width = np.where(full, max(n, 16), 16)
    spent = np.cumsum(rows * width)
    budget = 16 * _BLOCK_ROWS
    most = max(1, budget // n)
    done = 0
    while done < ends[-1]:
        head = int(np.searchsorted(ends, done, side="right"))
        until = int(spent[head] - (ends[head] - done) * width[head]) + budget
        # the last pair the block reaches, and the rows of it past the budget
        last = min(int(np.searchsorted(spent, until, side="right")), head + most - 1, len(ends) - 1)
        over = max(0, -((until - int(spent[last])) // int(width[last])))
        stop = max(done + 1, int(ends[last]) - over)
        flat = np.arange(done, stop)
        pair = np.searchsorted(ends, flat, side="right")
        yield pair, first[pair] + flat - (ends[pair] - rows[pair])
        done = stop


def _band_bounds(dx, params, pair, s, r, n):
    """Column bounds ``[start, end)`` (4, rows) of sector ``s``'s bands on
    each lattice row of a block: the two disk-edge bands and the two
    cone-edge wedges. ``dx`` holds each row's offset from the apex and
    ``pair`` its pair; ``params`` holds per pair the apex's column
    position, the columns per unit length (``scale``), and each wedge
    end's cotangent in columns per unit of ``dx``, the side of the apex it
    points to (the sign of its ``ex``) and its wedge's far side."""
    adx = np.abs(dx)
    outer, inner = r * (1 + _DISK_BAND), r * (1 - _DISK_BAND)
    scale, apex = params["scale"][pair], params[f"apex{s}"][pair]
    w_hi = np.sqrt(np.maximum((outer - adx) * (outer + adx), 0.0)) * scale
    w_lo = np.sqrt(np.maximum((inner - adx) * (inner + adx), 0.0)) * scale
    first, last = apex - w_hi, apex + w_hi
    # band ends as (start or end, band, rows), so that every array
    # operation below runs along whole rows
    bands = np.empty((2, 4, len(dx)))
    bands[0, 0], bands[1, 0] = first, apex - w_lo
    bands[0, 1], bands[1, 1] = apex + w_lo, last
    # (end, rows): each wedge end's column where it points toward the row,
    # else its wedge's far side
    side, cot, far = (np.take(params[f"{key}{s}"], pair, axis=0).T for key in ("side", "cot", "far"))
    ends = np.where(dx * side > 0, apex + dx * cot, far)
    # past the outer disk edge every cell is decided anyway
    wedges = bands[:, 2:]
    wedges[0] = np.minimum(np.maximum(np.minimum(ends[0::2], ends[1::2]), first), last)
    wedges[1] = np.minimum(np.maximum(np.maximum(ends[0::2], ends[1::2]), first), last)
    near = np.flatnonzero(adx <= _APEX)
    if near.size:
        wedges[0][:, near] = first[near]
        wedges[1][:, near] = last[near]
    tol = params["tol"][pair]
    start = np.minimum(np.maximum(np.ceil(bands[0] - tol), 0), n)
    end = np.minimum(np.maximum(np.floor(bands[1] + tol) + 1, 0), n)
    full = params["full"][pair]
    if full.any():
        start[:, full], end[:, full] = 0, n
    return start.astype(np.int32), end.astype(np.int32)


def _block_counts(params, pair, row, cos_half, r, n) -> np.ndarray:
    """Cells in neither sector, in a only, in b only and in both, over one
    block's rows, for each pair from ``pair[0]`` to ``pair[-1]``, as a
    (pairs, 4) array. ``pair`` and ``row`` give each row's pair and lattice
    row index."""
    local = pair - pair[0]
    pairs = int(local[-1]) + 1
    held = slice(int(pair[0]), int(pair[-1]) + 1)
    lo, span = params["lo"], params["span"]
    # the plain quadrature's lattice lines, and each sector's offsets and
    # heading products along them: x per row, z as (pairs, n) tables
    xs = lo[:, 0][pair] + (row + 0.5) * span[:, 0][pair] / n
    zs = lo[held, 1, None] + (np.arange(n) + 0.5) * span[held, 1, None] / n
    keys = np.empty((len(row), 16), dtype=np.int32)
    sectors = []
    for k, s in enumerate("ab"):
        p, h = params[f"p{s}"], params[f"h{s}"]
        dx, dz = xs - p[:, 0][pair], zs - p[held, 1, None]
        sectors.append((dx, dx * h[:, 0][pair], dz.ravel(), (dz * h[held, 1, None]).ravel()))
        start, end = _band_bounds(dx, params, pair, s, r, n)
        keys[:, 8 * k : 8 * k + 4] = (2 * start + 1).T
        keys[:, 8 * k + 4 : 8 * k + 8] = (2 * end).T
    # band edges by column, a start odd and an end even; the running sum of
    # +1/-1 counts the bands over the segment that follows (each row sums to 0)
    keys.sort(axis=1)
    cols = keys >> 1
    depth = np.cumsum((keys & 1) * 2 - 1).reshape(keys.shape)[:, :-1]
    seg_start = cols[:, :-1]
    seg_len = cols[:, 1:] - seg_start
    covered = depth > 0
    # every segment evaluates its first cell, which stands for the whole of
    # a gap; a band segment also evaluates each of its other cells
    seg_start, seg_len, covered = seg_start.ravel(), seg_len.ravel(), covered.ravel()
    seg = np.flatnonzero(seg_len)
    weight = np.where(covered, 1, seg_len)[seg]
    col = seg_start[seg]
    more = np.flatnonzero(covered & (seg_len > 1))
    if more.size:
        extra = seg_len[more] - 1
        first = np.cumsum(extra) - extra
        more = np.repeat(more, extra)
        seg = np.concatenate([seg, more])
        weight = np.concatenate([weight, np.ones(len(more), dtype=weight.dtype)])
        col = np.concatenate([col, seg_start[more] + 1 + np.arange(len(more)) - np.repeat(first, extra)])
    at = seg // (keys.shape[1] - 1)
    cell = local[at] * n + col
    code = local[at] * 4
    for bit, (dx, xh, dz, zh) in zip((1, 2), sectors):
        x, z = dx[at], dz[cell]
        dist = np.hypot(x, z)
        code += bit * ((dist <= r) & (xh[at] + zh[cell] >= cos_half * dist))
    # per pair: cells in neither sector, in a only, in b only, in both
    return np.bincount(code, weights=weight, minlength=4 * pairs).astype(np.int64).reshape(pairs, 4)


def _fov_gates(xy1, h1, xy2, h2, pairs, fov_half_angle, fov_range, etas) -> np.ndarray:
    """One float per pair that decides its gate at every one of ``etas``:
    ``fov_overlap >= eta`` exactly when ``value >= eta``. ``pairs`` holds
    ``[i, j]`` pose indices into each side's (poses, 2) planar positions
    and unit headings. Per chunk of ``_SETUP_PAIRS`` pairs, the gate
    gathers their sectors, reads the overlap's bounds off the counts of
    ``_count_bounds``, and runs ``_fov_overlaps`` once on the pairs whose
    bounds leave some ``eta`` in doubt.

    The kernel returns ``fl(2 ab / (n_a + n_b))`` (or ``0.0``). With
    ``n_a`` and ``n_b`` in ``[n_lo, n_hi]`` and ``ab`` in
    ``[ab_lo, ab_hi]``, the exact quotient lies in ``[ab_lo / n_hi,
    ab_hi / n_lo]`` and in ``[0, 1]``. Widening both ends by ``2**-40``
    relative covers their own rounding, and rounding the quotient is
    monotone, so the kernel's value lies in the widened interval
    ``[low, high]``, which is ``[0, 1]`` for a pair without bounds. A pair
    with some ``eta`` in ``(low, high]`` is in doubt and takes the
    kernel's value. Any other pair takes ``low``: each ``eta`` is either
    at most ``low``, where the gate is open, or above ``high``, where it
    is closed, both compared exactly. No pair is in doubt at ``eta == 0``,
    since ``low >= 0``.
    """
    overlap = np.empty(len(pairs))
    etas = np.sort(np.asarray(etas))
    for start in range(0, len(pairs), _SETUP_PAIRS):
        i, j = pairs[start : start + _SETUP_PAIRS].T
        pa, ha, pb, hb = xy1[i], h1[i], xy2[j], h2[j]
        n_lo, n_hi, ab_lo, ab_hi = _count_bounds(pa, ha, pb, hb, fov_half_angle, fov_range)
        with np.errstate(all="ignore"):
            # a pair without bounds (NaN) spans [0, 1]
            low = np.fmax(ab_lo / n_hi * (1 - 2.0**-40), 0.0)
            high = np.where(n_lo > 0, np.fmin(ab_hi / n_lo * (1 + 2.0**-40), 1.0), 1.0)
        # more etas lie at or below high than at or below low
        held = np.flatnonzero(np.searchsorted(etas, high, "right") > np.searchsorted(etas, low, "right"))
        if held.size:  # the value of a pair in doubt is the kernel's
            low[held] = _fov_overlaps(pa[held], ha[held], pb[held], hb[held], fov_half_angle, fov_range)
        overlap[start : start + _SETUP_PAIRS] = low
    return overlap


def _count_bounds(pa, ha, pb, hb, fov_half_angle, fov_range):
    """Bounds ``(n_lo, n_hi, ab_lo, ab_hi)`` on the counts ``_fov_overlaps``
    takes at ``FOV_GRID_RESOLUTION``, per pair: each sector's cells ``n_a``
    and ``n_b`` lie in ``[n_lo, n_hi]``, and the cells in both, ``ab``, in
    ``[ab_lo, ab_hi]``.
    A pair gets NaN bounds when the kernel takes it with full rows, when
    ``alpha + delta >= pi/2`` (``alpha = acos(cos_half)``), when the
    kernel would not evaluate it at all (a half-angle or range that is not
    positive), or when rounding leaves a clipped polygon in two pieces.

    **Float cells between two exact sectors.** The kernel counts a cell
    in a sector by the float predicate at the cell's computed offset
    ``v`` from the apex. Its error analysis bounds the grown sector ``S+``
    (range ``r(1 + kappa)``, half-angle ``alpha + delta``): every cell
    that passes lies in ``S+`` or in the ``2**-1000`` ball round the apex.
    The same margins give the converse for the *shrunk sector* ``S-``
    (range ``r(1 - kappa)``, half-angle ``alpha - delta``): there
    ``hypot`` is below ``r(1 - kappa)(1 + 2u) < r``, and the angle ``b``
    to the heading is at most ``alpha - delta`` with ``alpha < pi/2``, so
    ``cos b - cos alpha >= 2 sin(delta/2)**2``, again far above the
    ``6.1u`` error of the cone test. So every cell of ``S-`` outside the
    apex ball passes. (For ``alpha < delta``, ``S-`` is taken as the
    segment along the heading; it has no area, and every lower bound below
    is then negative.) Both sectors hold with far more room than the
    rounding of their radius and half-angle. At most one cell lies in each apex ball, since the
    cells are far more than ``2**-999`` apart. So ``n_a`` lies between
    the cells of ``S-`` less one and those of ``S+`` plus one, and ``ab``
    between the cells of ``S-_a & S-_b`` less two and those of
    ``S+_a & S+_b`` plus two.

    **Cells of a convex set.** The lattice tiles the box ``[lo, lo +
    span]`` with ``w x h`` cells. A computed offset puts the cell's point
    within ``mu = 2**-40 (|pa|_1 + |pb|_1 + 2R) + 2**-999`` of its exact
    centre (the row cull's margin, far above the rounding of the lattice
    lines and offsets), so within ``rho = hypot(w, h) / 2 + mu`` of every
    point of its cell. For a convex ``K`` with ``N`` cell points inside:

    - each such cell lies in ``K`` grown by ``rho``, whose area is
      ``A + rho P + pi rho**2`` (Steiner's formula), so
      ``N w h <= A + rho P + pi rho**2``;
    - each point ``y`` with its ``rho`` disk inside ``K`` lies in a cell
      whose point is within ``rho`` of ``y``, so inside ``K``. Those ``y``
      form the inner parallel body of ``K``, whose area is at least
      ``A - rho P``, because its area falls at the rate of its perimeter,
      never more than ``P``, as the distance grows. So
      ``N w h >= A - rho P``. For ``K`` inside ``S-``, the inner body lies
      within ``r(1 - kappa) - rho`` of the apex, inside the box (whose
      rounding ``rho`` covers).

    **Per-sector counts.** ``S+`` and ``S-`` are convex while their
    half-angle ``beta`` is below ``pi/2``. A sector of radius ``R`` has
    ``A = beta R**2`` and ``P = 2R + 2 beta R``.

    **Intersection counts.** ``S-_a & S-_b`` holds the intersection of the
    inscribed polygons of ``S-_a`` and ``S-_b``: the apex and points on
    the arc no more than ``_GATE_ARC`` apart. ``S+_a & S+_b`` lies in the
    intersection ``X`` of the circumscribed polygons of ``S+_a`` and
    ``S+_b``: the same fan at radius ``R / cos(s/2)`` for an arc step
    ``s``, whose chords touch the arc; the row cull of ``_fov_overlaps``
    skips the rows outside the same fans. The perimeter of either
    intersection is at most that of ``X``, which contains it. The
    polygons are built round ``pa`` and clipped by ``_clip_left``. The
    vertices are off by a few ulps of ``r + |pb - pa|_1``, and a clip only
    moves a vertex that rounding puts on the wrong side of a line, within
    that distance of it; so ``2**-30 (r + |pb - pa|_1)`` more on each
    perimeter, and ``r`` times it on each area, covers the rounding. Each
    count is widened by ``2**-40`` of its terms for the rest.
    """
    pa, ha, pb, hb = (np.asarray(v, dtype=float).reshape(-1, 2) for v in (pa, ha, pb, hb))
    bounds = np.full((4, len(pa)), np.nan)
    r, n = float(fov_range), FOV_GRID_RESOLUTION
    if not (fov_half_angle > 0 and math.isfinite(fov_half_angle) and 1 / _SCALE <= r <= _SCALE):
        return bounds
    alpha = math.acos(math.cos(fov_half_angle))
    wide, thin = alpha + _WEDGE_BAND, max(alpha - _WEDGE_BAND, 0.0)
    if wide >= math.pi / 2:
        return bounds
    with np.errstate(all="ignore"):
        params = _band_setup(pa, ha, pb, hb, r, n, alpha)
        held = np.flatnonzero(~params["full"])
        if not held.size:
            return bounds
        pa, ha, pb, hb = pa[held], ha[held], pb[held], hb[held]
        w, h = params["span"][held].T / n
        cell = w * h
        small, big = r * (1 - _DISK_BAND), r * (1 + _DISK_BAND)
        mu = 2.0**-40 * (np.abs(pa).sum(1) + np.abs(pb).sum(1) + 2 * big) + 2.0**-999
        rho = np.hypot(w, h) / 2 + mu
        rim = 2 * small * (1 + thin)  # the perimeter of S-
        n_lo = _cells_within(thin * small**2, rim, rho, cell)[0] - 1
        n_hi = _cells_within(wide * big**2, 2 * big * (1 + wide), rho, cell)[1] + 1
        # per pair, the inscribed polygons of S-, then the circumscribed
        # ones of S+, with a at the origin
        m = len(held)
        apart = pb - pa
        arcs = max(1, math.ceil(2 * wide / _GATE_ARC))
        outer = big / math.cos(wide / arcs)
        shapes = np.repeat([small, outer], m), np.repeat([thin, wide], m)
        turns = [np.tile(np.arctan2(v[:, 1], v[:, 0]), 2) for v in (ha, hb)]
        ax, az = _fan(np.zeros((2 * m, 2)), turns[0], *shapes, arcs)
        bx, bz = _fan(np.tile(apart, (2, 1)), turns[1], *shapes, arcs)
        torn = np.zeros(2 * m, dtype=bool)
        for k in range(arcs + 2):
            ahead = (k + 1) % (arcs + 2)
            ax, az, runs = _clip_left(ax, az, bx[k], bz[k], bx[ahead] - bx[k], bz[ahead] - bz[k])
            torn |= runs > 1
        nx, nz = np.roll(ax, -1, axis=0), np.roll(az, -1, axis=0)
        area = 0.5 * (ax * nz - nx * az).sum(0)
        fuzz = 2.0**-30 * (r + np.abs(apart).sum(1))
        perimeter = np.hypot(nx - ax, nz - az).sum(0)[m:] + fuzz
        inner, outer_area = area[:m] - r * fuzz, area[m:] + r * fuzz
        ab_lo = _cells_within(inner, np.minimum(perimeter, rim), rho, cell)[0] - 2
        ab_hi = _cells_within(outer_area, perimeter, rho, cell)[1] + 2
    bounds[:, held] = n_lo, n_hi, ab_lo, ab_hi
    # a polygon that rounding left on both sides of a line has no bound
    bounds[:, held[torn[:m] | torn[m:]]] = np.nan
    return bounds


def _cells_within(area, perimeter, rho, cell):
    """Bounds on the cells of area ``cell`` whose points, each within
    ``rho`` of all of its cell, lie in a convex set of this area and
    perimeter (see ``_count_bounds``)."""
    spread, corners = rho * perimeter, math.pi * rho**2
    slack = 2.0**-40 * (np.abs(area) + spread + corners)
    return (area - spread - slack) / cell, (area + spread + corners + slack) / cell


def _fan(apex, turn, radius, half, arcs):
    """(arcs + 2, pairs) x and z of the polygons with a vertex at each
    apex and ``arcs + 1`` evenly spaced from ``turn - half`` to ``turn +
    half`` at ``radius`` from it, counter-clockwise in the (x, z) plane;
    ``apex`` and ``turn`` are per pair, ``radius`` and ``half`` per pair or
    one for all."""
    angle = turn + np.arange(arcs + 1)[:, None] * (2 * half / arcs) - half
    x, z = np.empty((2, arcs + 2, len(turn)))
    x[0], z[0] = apex[:, 0], apex[:, 1]
    x[1:] = apex[:, 0] + radius * np.cos(angle)
    z[1:] = apex[:, 1] + radius * np.sin(angle)
    return x, z


def _clip_left(x, z, sx, sz, ex, ez):
    """Convex polygons, as (vertices, pairs) x and z, clipped to the left
    of the lines through ``(sx, sz)`` along ``(ex, ez)`` (Sutherland and
    Hodgman, CACM 17(1), 1974), one vertex longer; the clip keeps the run
    of vertices on the line's left and puts a vertex where the polygon
    enters it and where it leaves, and repeats the last to fill the
    array. A polygon wholly on the right becomes one point. Also returns,
    per polygon, how many runs of vertices lie on the left: a polygon with
    more than one, which rounding can give a polygon that hugs the line,
    is not clipped as it should be."""
    size, pairs = x.shape
    side = ex * (z - sz) - ez * (x - sx)
    left = side >= 0
    ahead = np.r_[1:size, 0]
    cols = np.arange(pairs)
    # the edges on which the polygon enters and leaves the left side
    enters = ~left & left[ahead]
    edges = [enters.argmax(0), (left & ~left[ahead]).argmax(0)]
    run = (edges[1] - edges[0]) % size
    ends = []
    for edge in edges:
        nxt = (edge + 1) % size
        s0, s1 = side[edge, cols], side[nxt, cols]
        t = s0 / (s0 - s1)
        x0, z0 = x[edge, cols], z[edge, cols]
        ends.append((x0 + t * (x[nxt, cols] - x0), z0 + t * (z[nxt, cols] - z0)))
    (xe, ze), (xl, zl) = ends
    inside, outside = left.all(0), ~left.any(0)
    # a polygon wholly on the left is kept, from its vertex 0 on
    edges[0] = np.where(inside, size - 1, edges[0])
    run = np.where(inside, size, np.where(outside, 0, run))
    xe, ze = np.where(inside, x[-1], np.where(outside, x[0], xe)), np.where(inside, z[-1], np.where(outside, z[0], ze))
    xl, zl = np.where(outside, x[0], xl), np.where(outside, z[0], zl)
    slot = np.arange(size + 1)[:, None]
    source = np.where(slot > run, size + 1, (edges[0] + slot) % size)
    source[0] = size
    flat = source * pairs + cols
    return np.concatenate([x, [xe, xl]]).ravel()[flat], np.concatenate([z, [ze, zl]]).ravel()[flat], enters.sum(0)


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
    bounds overflow. ``fov_half_angle`` and ``fov_range`` must be finite,
    each pose's planar position and heading too, and ``resolution`` an
    integer from 1 to ``2**20``: the kernel's per-pair column tables hold
    ``resolution`` floats each, about 40 MiB at that bound. A full-row
    pair (see :func:`_fov_overlaps`) is refused above ``2**12``.
    """
    _check_finite("fov_half_angle", fov_half_angle)
    _check_finite("fov_range", fov_range)
    _check_count("resolution", resolution)
    if resolution > 2**20:
        raise ValidationError(f"resolution must be at most 2**20, got {_shown(resolution, str)}")
    sectors = []
    for name, pose in (("pose_a", pose_a), ("pose_b", pose_b)):
        with np.errstate(invalid="ignore"):  # an infinite heading is scaled to NaN
            sectors += [planar_position(pose), planar_heading(pose)]
        if not np.isfinite(sectors[-2:]).all():
            raise ValidationError(f"{name} has a non-finite planar position or heading")
    return _fov_overlaps(*sectors, fov_half_angle, fov_range, resolution)[0]


def build_geometric(
    t1: Trajectory,
    t2: Trajectory,
    p: GeometryParams,
) -> ExchangeGraph:
    """Exchange graph from trajectory geometry: after subsampling, poses
    u (robot 1) and v (robot 2) are candidates iff their positions are
    within ``d_max`` and their view overlap is at least ``eta``. Vertex
    weights are feature_count * DESCRIPTOR_BYTES; edge costs are 1.
    """
    return next(build_geometric_sweep(t1, t2, [p]))


def build_geometric_sweep(
    t1: Trajectory,
    t2: Trajectory,
    params: Iterable[GeometryParams],
) -> Iterator[ExchangeGraph]:
    """``build_geometric`` at each of ``params`` in turn. The points may
    differ only in ``d_max`` and ``eta``; ``params`` is read whole at the
    first point, each pose pair's distance computed once, and every pair
    that a point with ``eta > 0`` gates by distance put, as pose indices,
    through one call of ``_fov_gates``, which runs the FOV quadrature only
    on the pairs its bounds leave in doubt and gives one overlap per pair.
    Only the pairs within the loosest gates, the largest ``d_max`` and the
    smallest ``eta``, are kept, with their distance and overlap; each
    point's mask over them is made as the point is yielded. A point that
    cannot be read raises its error after the points before it are
    yielded.
    """
    points, error = _read_points(params, _check_fov_shape)
    if points:
        if len(t1) == 0 or len(t2) == 0:
            raise EmptyTrajectory("both trajectories must contain at least one pose")
        first = points[0]
        s1, s2 = t1.poses[:: first.rate_divisor], t2.poses[:: first.rate_divisor]
        pos1 = np.array([pose.position for pose in s1], dtype=float)
        pos2 = np.array([pose.position for pose in s2], dtype=float)
        d_max, rows = max(p.d_max for p in points), max(1, 16 * _BLOCK_ROWS // len(pos2))
        # [i, j] pairs within every point's distance gate, in row-major
        # order, and their distances, taken a block of rows at a time; the
        # pose indices are int32, as pose counts are far below 2**31
        pairs, apart = [], []
        for start in range(0, len(pos1), rows):
            dists = np.linalg.norm(pos1[start : start + rows, None, :] - pos2[None, :, :], axis=2)
            near = np.argwhere(dists <= d_max)
            apart.append(dists[near[:, 0], near[:, 1]])
            near[:, 0] += start
            pairs.append(near.astype(np.int32))
        # joined one list at a time, so one list's blocks and its copy are held at once
        pairs = np.concatenate(pairs)
        apart = np.concatenate(apart)
        # a pair no point with eta > 0 gates by distance only meets eta 0
        overlap = np.zeros(len(pairs))
        fov_d_max = max((p.d_max for p in points if p.eta > 0), default=None)
        if fov_d_max is not None:
            (xy1, h1), (xy2, h2) = (
                [np.array([f(pose) for pose in s]) for f in (planar_position, planar_heading)] for s in (s1, s2)
            )
            gated = apart <= fov_d_max
            etas = [p.eta for p in points]
            overlap[gated] = _fov_gates(xy1, h1, xy2, h2, pairs[gated], first.fov_half_angle, first.fov_range, etas)
            kept = overlap >= min(etas)
            pairs, apart, overlap = pairs[kept], apart[kept], overlap[kept]
        w1, w2 = ([pose.feature_count * DESCRIPTOR_BYTES for pose in s] for s in (s1, s2))
        # [i, j] pairs, each of cost 1, and each point's mask, made as it is yielded
        yield from _restrictions(w1, w2, pairs, ((apart <= p.d_max) & (overlap >= p.eta) for p in points))
    if error is not None:
        raise error


def _check_fov_shape(first: GeometryParams, p: GeometryParams) -> None:
    if (p.rate_divisor, p.fov_half_angle, p.fov_range) != (first.rate_divisor, first.fov_half_angle, first.fov_range):
        raise ValidationError("sweep points may differ only in d_max and eta")


def _read_points(params: Iterable, check=None) -> tuple[list, Exception | None]:
    """A sweep's points, read whole: every point up to the first that
    cannot be read, or that ``check(first point, point)`` refuses, and the
    error that point raised, or None. The sweep yields the points before
    it and then raises the error, as a sweep that read one point at a time
    would."""
    points = []
    try:
        for p in params:
            if check is not None and points:
                check(points[0], p)
            points.append(p)
    except Exception as exc:
        return points, exc
    return points, None


def _restrictions(w1: list, w2: list, pairs: np.ndarray, masks: Iterable[np.ndarray]) -> Iterator[ExchangeGraph]:
    """``build_graph(w1, w2, pairs[mask])`` for each boolean array of
    ``masks``, taken one at a time, where ``pairs`` holds in-range
    ``[u, v]`` side positions, each pair once, read off one graph over
    all of ``pairs``, checked once."""
    widest = _unpruned_graph(w1, w2, pairs)
    for mask in masks:
        yield widest._restricted(mask)


def _ranks(group: np.ndarray, score: np.ndarray, tie: np.ndarray) -> np.ndarray:
    """Each entry's rank within its group, from 0: highest score first,
    then the lower ``tie`` value, then the earlier entry."""
    order = np.lexsort((tie, -score, group))
    g = group[order]
    first = np.ones(len(g), dtype=bool)
    first[1:] = g[1:] != g[:-1]
    at = np.arange(len(g))
    rank = np.empty(len(g), dtype=np.int64)
    rank[order] = at - np.maximum.accumulate(np.where(first, at, 0))
    return rank


def _score_columns(scores: Iterable) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The index and score columns of ``(u, v, score)`` entries, each
    entry checked in turn: the first that is not a triple, whose score is
    not a number in [0, 1], or whose indices are not integral, is refused.
    Indices beyond int64 stay exact, in object arrays."""
    us, vs, values = [], [], []
    for entry in scores:
        try:
            u, v, score = entry
        except (TypeError, ValueError):
            raise ValidationError(f"score entry {_shown(entry)} is not a (u, v, score) triple") from None
        try:
            in_range = 0 <= score <= 1
        except (TypeError, ValueError):
            in_range = None
        if not in_range:
            pair = f"({_shown(u, str)}, {_shown(v, str)})"
            if in_range is None:
                raise ValidationError(f"score {_shown(score)} for pair {pair} is not a number")
            raise ScoreOutOfRange(f"score {_shown(score)} for pair {pair} outside [0, 1]")
        if type(u) is not int or type(v) is not int:
            what = f"score pair ({_shown(u, str)}, {_shown(v, str)})"
            u, v = _index(u, what), _index(v, what)
        us.append(u)
        vs.append(v)
        values.append(float(score))
    return np.array(us), np.array(vs), np.array(values, dtype=float)


def build_appearance(
    scores: Iterable[tuple[int, int, float]] | np.ndarray,
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
    return next(build_appearance_sweep(scores, t1_weights, t2_weights, [p]))


def build_appearance_sweep(
    scores: Iterable[tuple[int, int, float]] | np.ndarray,
    t1_weights: Sequence,
    t2_weights: Sequence,
    params: Iterable[AppearanceParams],
) -> Iterator[ExchangeGraph]:
    """``build_appearance`` at each of ``params`` in turn. ``params`` is
    read whole, and ``scores`` read and each score checked once, at the
    first point. The entries above the smallest ``alpha`` are ranked once
    within their side-1 query (and their side-2 query if some point is
    symmetric), so a point's picks are the entries above its ``alpha``
    ranked below its ``top_k``, with no sort of its own. One pass over the
    points takes the union of their picks; each point's mask over that
    union is made as the point is yielded. A point that cannot be read, or
    that picks an index out of range, raises its error after the points
    before it are yielded.

    ``scores`` is an iterable of ``(u, v, score)`` entries, or a 1-d array
    of ``SCORE_DTYPE`` records, as ``read_scores`` gives, whose three
    fields are taken whole as the index and score columns. Either way the
    first entry whose score is outside [0, 1], NaN included, is refused
    with the same ``ScoreOutOfRange`` message.
    """
    points, error = _read_points(params)
    if points:
        if isinstance(scores, np.ndarray) and scores.dtype == SCORE_DTYPE and scores.ndim == 1:
            u_all, v_all, s = scores["u"], scores["v"], scores["score"]
            outside = ~((s >= 0) & (s <= 1))
            if outside.any():
                # the loop refuses the first such entry, given as Python values
                i = int(outside.argmax())
                _score_columns([(int(u_all[i]), int(v_all[i]), float(s[i]))])
        else:
            u_all, v_all, s = _score_columns(scores)
        w1, w2 = list(t1_weights), list(t2_weights)
        n1, n2 = len(w1), len(w2)
        # the entries above the smallest alpha, ranked once within their
        # side-1 query and, if a point is symmetric, their side-2 query;
        # a query's entries above any larger alpha are a prefix of its
        # ranking, so a point picks those ranked below its top_k
        keep = np.flatnonzero(s > min(p.alpha for p in points))
        u, v, score = u_all[keep], v_all[keep], s[keep]
        rank = _ranks(u, score, v)
        either = np.minimum(rank, _ranks(v, score, u)) if any(p.symmetric for p in points) else None

        def picks(p: AppearanceParams) -> np.ndarray:
            return ((either if p.symmetric else rank) < p.top_k) & (score > p.alpha)

        # the exact union of the points' picks, up to the first point that
        # picks a pair out of range: the loosest gates' picks may hold an
        # out-of-range entry that no point picks
        out_of_range = ~((u >= 0) & (u < n1) & (v >= 0) & (v < n2))
        union, good = np.zeros(len(u), dtype=bool), 0
        for p in points:
            pick = picks(p)
            if pick[out_of_range].any():
                break
            union |= pick
            good += 1
        if good:
            codes, inverse = np.unique(u[union].astype(np.int64) * n2 + v[union].astype(np.int64), return_inverse=True)
            pairs = np.stack(np.divmod(codes, n2), axis=1)
            masks = (np.bincount(inverse[picks(p)[union]], minlength=len(codes)) > 0 for p in points[:good])
            yield from _restrictions(w1, w2, pairs, masks)
        if good < len(points):
            # build_graph names the first pair out of range
            yield build_graph(w1, w2, sorted(set(zip(u[pick].tolist(), v[pick].tolist()))))
    if error is not None:
        raise error


# -- file ingestion ----------------------------------------------------------


def _orthonormalized(m: np.ndarray) -> np.ndarray:
    """Nearest rotation matrix of each of a stack of 3x3 matrices; real
    pose files carry rounded entries."""
    u, _, vt = np.linalg.svd(m)
    r = u @ vt
    flip = np.flatnonzero(np.linalg.det(r) < 0)
    if flip.size:
        u[flip, :, -1] = -u[flip, :, -1]
        r[flip] = u[flip] @ vt[flip]
    return r


def _bad_field(path, lineno: int, what: str, fields) -> GraphFormatError:
    """The refusal of a line with a ``(convert, token)`` field whose token
    ``convert`` cannot read. It names the file, the line and the first
    such token, cut at 20 characters."""
    for convert, token in fields:
        try:
            convert(token)
        except ValueError:
            break
    return GraphFormatError(f"{path}:{lineno + 1}: bad {what} {_shown(token, str)!r}")


def _records(path, converters, parse, what: str, shape: str) -> Iterator[tuple[int, object]]:
    """``(line index, parse(fields))`` for each non-blank line of the text
    file at ``path``, its fields split at whitespace. A line whose field
    count is not ``len(converters)`` is refused with ``shape``, formatted
    with the count as ``got`` and the line, cut at 20 characters, as
    ``line``. A line that ``parse`` cannot read is refused as a bad
    ``what``, naming its first token that its entry of ``converters``
    cannot read."""
    width = len(converters)
    with open_text(path) as fh:
        for lineno, line in enumerate(fh):
            fields = line.split()
            if not fields:
                continue
            if len(fields) != width:
                message = shape.format(got=len(fields), line=_shown(line.strip(), str))
                raise GraphFormatError(f"{path}:{lineno + 1}: {message}")
            try:
                value = parse(fields)
            except ValueError as exc:
                raise _bad_field(path, lineno, what, zip(converters, fields)) from exc
            yield lineno, value


def read_kitti_poses(path, feature_counts: Sequence[int] | None = None) -> Trajectory:
    """Read a KITTI odometry ground-truth pose file: one pose per line, 12
    space-separated finite decimals forming a row-major 3x4 rigid
    transform. Rotations are projected to the nearest orthonormal matrix,
    since the files carry rounded entries. ``feature_counts``, when given,
    holds exactly one count per pose."""
    rows = []
    lineno = -1
    parse = lambda f: [float(v) for v in f]  # noqa: E731
    for lineno, row in _records(path, (float,) * 12, parse, "number", "expected 12 values per pose line, got {got}"):
        # a sum of finite values is finite unless it overflows
        if not math.isfinite(sum(row)) and not all(map(math.isfinite, row)):
            raise GraphFormatError(f"{path}:{lineno + 1}: non-finite value in pose line")
        if feature_counts is not None and len(rows) >= len(feature_counts):
            raise GraphFormatError(f"{path}: more poses than feature counts ({len(feature_counts)})")
        rows.append(row)
    if feature_counts is not None and len(feature_counts) > len(rows):
        # named at the line after the last pose
        raise GraphFormatError(
            f"{path}:{lineno + 2}: {len(rows)} poses but {len(feature_counts)} feature counts"
        )
    m = np.array(rows, dtype=float).reshape(-1, 3, 4)
    positions = np.ascontiguousarray(m[:, :, 3])
    rotations = _orthonormalized(m[:, :, :3])
    counts = [1] * len(rows) if feature_counts is None else feature_counts
    return Trajectory(
        [Pose(pid, positions[pid], rotations[pid], feature_count=counts[pid], timestamp=pid) for pid in range(len(rows))]
    )


def read_feature_counts(path) -> list[int]:
    """One non-negative integer per line, aligned with pose lines. A count
    whose scan size, ``count * DESCRIPTOR_BYTES``, has more than
    MAX_NUMBER_DIGITS digits is refused, as a graph file would refuse it."""
    counts = []
    parse = lambda f: (f[0], int(f[0]))  # noqa: E731
    for lineno, (text, value) in _records(path, (int,), parse, "feature count", "bad feature count {line!r}"):
        if value < 0:
            raise GraphFormatError(f"{path}:{lineno + 1}: negative feature count {_shown(value, str)}")
        if value * DESCRIPTOR_BYTES >= _NUMBER_LIMIT:
            raise GraphFormatError(
                f"{path}:{lineno + 1}: feature count {_shown(text, str)} "
                f"gives a scan size of more than {MAX_NUMBER_DIGITS} digits"
            )
        counts.append(value)
    return counts


def read_scores(path) -> np.ndarray | list[tuple[int, int, float]]:
    """Score file: lines of ``u_index v_index score``.

    ASCII text with at least one field is parsed in one compiled pass into
    a 1-d array of ``SCORE_DTYPE`` records, one per non-blank line, which
    ``build_appearance_sweep`` takes as columns. Any other file, or one
    that pass cannot read (an index beyond int64, ``1_0``, a wrong field
    count, bytes that are not UTF-8, an empty file), is read by the line
    loop: a list of ``(int, int, float)`` triples, or the
    ``GraphFormatError`` that names the file, line and field at fault.
    Both readers split fields at the same whitespace and read the same
    numbers, so a file that both accept gives the same values. A plain
    local file is read again by ``np.loadtxt`` from its path, in chunks,
    which is faster than line by line from memory (see
    :func:`_opened_in_place`)."""
    try:
        with open_text(path) as fh:
            text = fh.read()
    except GraphFormatError:
        text = ""  # the line loop names the first line it cannot read
    if text.isascii() and text and not text.isspace():
        source = path if _opened_in_place(path) else io.StringIO(text)
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                return np.loadtxt(source, dtype=SCORE_DTYPE, comments=None, ndmin=1)
        except (ValueError, Warning):
            pass
    return _read_score_lines(path)


def _opened_in_place(path) -> bool:
    """Whether numpy's ``DataSource``, which ``np.loadtxt`` opens a path
    with, opens ``path`` as the plain local file it names: a text path
    with no URL scheme, which it would fetch, and no suffix of a file it
    would decompress."""
    if not isinstance(path, (str, os.PathLike)):
        return False
    path = os.fspath(path)
    return isinstance(path, str) and not urlparse(path).scheme and os.path.splitext(path)[1] not in _file_openers.keys()


def _read_score_lines(path) -> list[tuple[int, int, float]]:
    """``read_scores``' line loop: ``(int, int, float)`` per non-blank line."""
    parse = lambda f: (int(f[0]), int(f[1]), float(f[2]))  # noqa: E731
    return [score for _, score in _records(path, (int, int, float), parse, "score line field", "expected 'u v score'")]


def read_ground_truth(path) -> frozenset:
    """Ground-truth closures: lines of ``u_index v_index``, as (side-1,
    side-2) vertex id pairs."""
    parse = lambda f: (VertexId(1, int(f[0])), VertexId(2, int(f[1])))  # noqa: E731
    return frozenset(pair for _, pair in _records(path, (int, int), parse, "index", "expected 'u_index v_index'"))


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


# Most poses a side of the synthetic fixture: 22 times the 4,541 poses of
# KITTI sequence 00; generation time and memory grow linearly in ``n``.
MAX_SYNTHETIC_POSES = 100_000


def synthetic_two_loop(n: int = 100, seed: int = 7) -> tuple[Trajectory, Trajectory]:
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

    ``n``, the poses a side, is an integer from 1 to MAX_SYNTHETIC_POSES
    and ``seed`` an integer; anything else raises ``ValidationError``.
    """
    _check_count("n", n)
    if n > MAX_SYNTHETIC_POSES:
        raise ValidationError(f"n must be at most {MAX_SYNTHETIC_POSES}, got {_shown(n, str)}")
    if isinstance(seed, bool) or not isinstance(seed, numbers.Integral):
        raise ValidationError(f"seed must be an integer, got {_shown(seed)}")
    rng = random.Random(int(seed))
    half = 30.0
    width = 60.0
    lane = 1.0  # the corridor legs' distance from the centre line
    # traversal orders keep both corridor legs heading toward +z
    left = [(-lane, -half), (-lane, half), (-width, half), (-width, -half)]
    right = [(lane, -half), (lane, half), (width, half), (width, -half)]

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
