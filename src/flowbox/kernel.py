"""Scalar building blocks shared by every construction.

The damping ramp (smooth, monotone and flat at both endpoints), partitions
of [0,1], insertion schedules and the collapse maps used by the blowup
machinery.  Two pieces of bookkeeping serve every pipeline: halving_ladder,
the one retry ladder that shrinks a budget until a measured distance meets
its bound, and stage, the one recorder that appends a pipeline stage's
report row and names the stage on an error escaping it.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

COMPARISON_TOL = 1e-9
SOLVER_TOL = 1e-12
# budget halvings a retry ladder makes after its first attempt
MAX_RETRIES = 5


def flat_bump(x):
    """exp(-1/x) for x > 0 and identically 0 for x <= 0."""
    x = np.asarray(x, dtype=float)
    safe = np.where(x > 0.0, x, 1.0)
    with np.errstate(over="ignore"):
        val = np.exp(-1.0 / safe)
    return np.where(x > 0.0, val, 0.0)


def smooth_ramp(x):
    """Normalized bump ramp flat_bump(x) / (flat_bump(x) + flat_bump(1-x)).

    Exactly 0 for x <= 0 and 1 for x >= 1, strictly increasing in between,
    with every finite-difference derivative at the endpoints vanishing once
    the step is moderately small.  ramp(1/2) = 1/2 exactly by symmetry.
    """
    x = np.asarray(x, dtype=float)
    a = flat_bump(x)
    b = flat_bump(1.0 - x)
    # a + b > 0 for every real x, so the quotient is always defined
    return a / (a + b)


@contextmanager
def stage(rows: list, name: str):
    """Append the row {"stage": name} to rows and yield it for the stage to
    fill.  An error escaping the stage names it, as exc.stage.

    Pipelines fill their reports only once an attempt has finished, so the
    stage that raised travels on the error itself.
    """
    row = {"stage": name}
    rows.append(row)
    try:
        yield row
    except (RuntimeError, ValueError) as exc:
        exc.stage = name
        raise


class LadderError(RuntimeError):
    """A retry ladder exhausted its budget; achieved is its best distance."""

    def __init__(self, message: str, achieved: float | None = None):
        super().__init__(message)
        self.achieved = achieved


def halving_ladder(attempt, report: dict | None, message: str):
    """Run attempt(scale) at scale 1, 1/2, ..., 2**-MAX_RETRIES and return the
    first result that passes.

    attempt returns (result, passed, fields), where fields holds the
    attempt's achieved_distance and whatever else the caller reports.  After
    each attempt the report, if given, is updated with fields, retries and
    attempt_distances (every distance so far).  When no attempt passes,
    LadderError is raised with message, whose {retries} is filled with
    MAX_RETRIES, plus the best distance, which it also carries as achieved.
    """
    distances = []
    for retries in range(MAX_RETRIES + 1):
        result, passed, fields = attempt(0.5 ** retries)
        distances.append(fields["achieved_distance"])
        if report is not None:
            report.update(fields, retries=retries,
                          attempt_distances=distances)
        if passed:
            return result
    best = min(distances)
    raise LadderError(
        f"{message.format(retries=MAX_RETRIES)} (best {best:.6g})",
        achieved=best)


@dataclass(frozen=True)
class Partition:
    """Cut points 0 = t_0 < t_1 < ... < t_n = 1."""

    points: tuple

    def __post_init__(self):
        pts = tuple(float(p) for p in self.points)
        object.__setattr__(self, "points", pts)
        if len(pts) < 2 or pts[0] != 0.0 or pts[-1] != 1.0:
            raise ValueError("partition must run from 0 to 1")
        if any(b <= a for a, b in zip(pts, pts[1:])):
            raise ValueError("partition points must be strictly increasing")


@dataclass(frozen=True)
class InsertionSchedule:
    """Finite sorted list of blowup points with positive weights."""

    points: tuple
    weights: tuple

    def __post_init__(self):
        pts = tuple(float(z) for z in self.points)
        wts = tuple(float(w) for w in self.weights)
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "weights", wts)
        if len(pts) != len(wts):
            raise ValueError("points and weights must pair up")
        if any(not 0.0 < z < 1.0 for z in pts):
            raise ValueError("blowup points must lie in (0, 1)")
        if any(b <= a for a, b in zip(pts, pts[1:])):
            raise ValueError("blowup points must be strictly increasing")
        if any(w <= 0.0 or not math.isfinite(w) for w in wts):
            raise ValueError("weights must be positive and finite")

    @property
    def total_weight(self) -> float:
        return float(sum(self.weights))

    def to_json(self) -> dict:
        return {"points": list(self.points), "weights": list(self.weights)}


@dataclass(frozen=True)
class CollapseMap:
    """Weakly monotone surjection of [0,1]: affine pieces plus plateaus.

    plateaus: (x_lo, x_hi, value) intervals collapsed to a point.
    pieces:   (x_lo, x_hi, y_lo, y_hi) strictly increasing affine segments.
    """

    plateaus: tuple
    pieces: tuple

    def __post_init__(self):
        segs = sorted(
            [(p[0], p[1], p[2], p[2]) for p in self.plateaus]
            + [tuple(p) for p in self.pieces])
        if not segs:
            raise ValueError("collapse map needs at least one piece")
        if segs[0][0] != 0.0 or segs[-1][1] != 1.0:
            raise ValueError("segments must cover [0, 1]")
        for (a, b, ylo, yhi) in segs:
            if b <= a:
                raise ValueError("degenerate segment")
            if yhi < ylo:
                raise ValueError("decreasing segment")
        for (_, b, _, yb), (c, _, yc, _) in zip(segs, segs[1:]):
            if b != c:
                raise ValueError("segments must tile [0, 1] without gaps")
            if yb != yc:
                raise ValueError("discontinuity between segments")
        if segs[0][2] != 0.0 or segs[-1][3] != 1.0:
            raise ValueError("image must be [0, 1]")
        for (a, b, ylo, yhi) in self.pieces:
            if yhi <= ylo:
                raise ValueError("pieces must be strictly increasing")
        # evaluation knots (plateaus appear as flat spans)
        xs, ys = [segs[0][0]], [segs[0][2]]
        for (a, b, ylo, yhi) in segs:
            xs.append(b)
            ys.append(yhi)
        object.__setattr__(self, "_knots_x", np.array(xs))
        object.__setattr__(self, "_knots_y", np.array(ys))
        # per-piece data for the right inverse, sorted by image interval
        inv = sorted(self.pieces, key=lambda p: p[2])
        object.__setattr__(self, "_px", np.array([(p[0], p[1]) for p in inv]))
        object.__setattr__(self, "_py", np.array([(p[2], p[3]) for p in inv]))

    def __call__(self, x):
        return np.interp(np.asarray(x, dtype=float),
                         self._knots_x, self._knots_y)

    def preimage(self, y: float):
        """The interval (x_lo, x_hi) if y is a collapsed value, else the
        unique point of the complement mapping to y."""
        y = float(y)
        if not -SOLVER_TOL <= y <= 1.0 + SOLVER_TOL:
            raise ValueError("value outside [0, 1]")
        for x_lo, x_hi, v in self.plateaus:
            if abs(y - v) <= SOLVER_TOL:
                return (x_lo, x_hi)
        for x_lo, x_hi, y_lo, y_hi in self.pieces:
            if y_lo - SOLVER_TOL <= y <= y_hi + SOLVER_TOL:
                u = (y - y_lo) / (y_hi - y_lo)
                u = min(max(u, 0.0), 1.0)
                return x_lo + u * (x_hi - x_lo)
        raise ValueError("no preimage found")  # unreachable for y in [0, 1]

    def complement_embedding(self, y):
        """Piecewise-affine right inverse onto the complement closure.

        Satisfies self(complement_embedding(y)) = y for all y in [0, 1].  The
        inverse jumps across each plateau; at collapsed values it lands on
        the right plateau endpoint.
        """
        y = np.asarray(y, dtype=float)
        idx = np.searchsorted(self._py[:, 0], y, side="right") - 1
        idx = np.clip(idx, 0, self._py.shape[0] - 1)
        y_lo, y_hi = self._py[idx, 0], self._py[idx, 1]
        u = np.clip((y - y_lo) / (y_hi - y_lo), 0.0, 1.0)
        return self._px[idx, 0] + u * (self._px[idx, 1] - self._px[idx, 0])


def build_collapse(schedule: InsertionSchedule) -> CollapseMap:
    """Collapse map p = c∘s for a schedule: s scales [0,1] onto [0, 1+w] and
    c collapses each inserted interval back to its blowup point.

    Collapsed intervals have width w_i/(1+w); the complement maps with
    slope 1+w.
    """
    shrink = 1.0 / (1.0 + schedule.total_weight)
    plateaus = []
    cum = 0.0
    for z, w in zip(schedule.points, schedule.weights):
        lo = (z + cum) * shrink
        plateaus.append((lo, lo + w * shrink, z))
        cum += w
    xs = [0.0] + [x for p in plateaus for x in p[:2]] + [1.0]
    if any(v <= u for u, v in zip(xs, xs[1:])):
        raise ValueError("inserted intervals overlap")
    pieces = []
    x_lo, y_lo = 0.0, 0.0
    for lo, hi, z in plateaus:
        pieces.append((x_lo, lo, y_lo, z))
        x_lo, y_lo = hi, z
    pieces.append((x_lo, 1.0, y_lo, 1.0))
    return CollapseMap(plateaus=tuple(plateaus), pieces=tuple(pieces))


def _min_dots(rows: np.ndarray, cands: np.ndarray) -> np.ndarray:
    """Min over base samples of the normal dot products, (len(rows), len(cands)).

    Blocked over the base axis to bound the intermediate at a few MB.
    """
    n_p = rows.shape[1]
    step = max(1, 2_000_000 // max(1, rows.shape[0] * cands.shape[0]))
    out = None
    for s in range(0, n_p, step):
        a = rows[:, s:s + step].transpose(1, 0, 2)   # (p, k, 3)
        b = cands[:, s:s + step].transpose(1, 2, 0)  # (p, 3, q)
        blk = (a @ b).min(axis=0)
        out = blk if out is None else np.minimum(out, blk)
    return out


def choose_partition(t_samples, normals, epsilon: float) -> Partition:
    """Greedy partition of the leaf-index interval.

    Each cell is the longest run of sampled leaves whose unit normals stay
    pairwise within epsilon in angle at every base sample; cut points are
    taken from t_samples.  Greedy left-to-right maximal steps, so ties go to
    larger cells.  Candidates are scored in blocks that start at 4 per cell
    and double after every block that passes whole, up to 64, so a short
    cell does not pay for a wide rectangle of dot products.

    t_samples: (m,) increasing with t[0] = 0, t[-1] = 1.
    normals:   (m, P, 3) unit leaf normals at P base samples.
    """
    t = np.asarray(t_samples, dtype=float)
    nrm = np.asarray(normals, dtype=float)
    if epsilon <= 0.0:
        raise ValueError("epsilon must be positive")
    if nrm.ndim != 3 or nrm.shape[0] != t.size or nrm.shape[2] != 3:
        raise ValueError("normals must have shape (len(t), P, 3)")
    # pairwise angle <= eps  <=>  dot >= cos(eps) for unit vectors
    cos_floor = math.cos(min(epsilon, math.pi))
    m = t.size
    cuts = [0]
    i = 0
    while i < m - 1:
        j = i
        block = 4
        while j < m - 1:
            # candidates j+1 .. j+span checked in one batch; candidate q is
            # admissible iff every leaf from i up to it stays within eps of it,
            # so the first failure ends the greedy run exactly as a
            # one-at-a-time scan would
            span = min(m - 1 - j, block)
            rows = nrm[i:j + span]
            cands = nrm[j + 1:j + 1 + span]
            mins = _min_dots(rows, cands)
            pref = np.minimum.accumulate(mins, axis=0)
            qs = np.arange(span)
            ok = pref[j - i + qs, qs] >= cos_floor
            good = int(np.argmin(ok)) if not ok.all() else span
            j += good
            if good < span:
                break
            block = min(2 * block, 64)
        if j == i:
            raise ValueError(
                f"adjacent sampled leaves exceed epsilon={epsilon} near "
                f"t={t[i]:.6g}; grid too coarse for this bound")
        cuts.append(j)
        i = j
    return Partition(tuple(float(t[k]) for k in cuts))
