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

# the contract tolerances, each with the identities it bounds
FACE_COMPAT_TOL = 1e-6  # face transports and measure arcs across glued faces
COMPARISON_TOL = 1e-9  # pinned holonomy, blowup properties, smoothed measure
SOLVER_TOL = 1e-12  # collapse widths, anchoring, slack at the ends of [0, 1]
ROTATION_TOL = 1e-3  # the circle shadow's Birkhoff estimate against alpha
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
    """Weakly monotone surjection of [0,1] that collapses each plateau
    (x_lo, x_hi, value) to its value and is affine in between.

    The plateaus are kept sorted.  The map is the piecewise-affine
    interpolant of the knots (0, 0), (x_lo, value), (x_hi, value), ...,
    (1, 1); pieces holds its strictly increasing segments (x_lo, x_hi,
    y_lo, y_hi), one between consecutive plateaus, and gaps the plateaus'
    (x_lo, x_hi) intervals.
    """

    plateaus: tuple

    def __post_init__(self):
        plats = tuple(sorted(tuple(p) for p in self.plateaus))
        object.__setattr__(self, "plateaus", plats)
        xs = [0.0] + [x for p in plats for x in p[:2]] + [1.0]
        ys = [0.0] + [p[2] for p in plats for _ in p[:2]] + [1.0]
        # `not b > a` also refuses NaN
        if any(not b > a for a, b in zip(xs, xs[1:])):
            raise ValueError("plateaus must be disjoint, nondegenerate and "
                             "inside (0, 1)")
        pieces = tuple(zip(xs[::2], xs[1::2], ys[::2], ys[1::2]))
        if any(not y_hi > y_lo for *_, y_lo, y_hi in pieces):
            raise ValueError("collapse must increase strictly off the "
                             "plateaus")
        object.__setattr__(self, "pieces", pieces)
        object.__setattr__(self, "gaps", tuple(p[:2] for p in plats))
        object.__setattr__(self, "_knots_x", np.array(xs))
        object.__setattr__(self, "_knots_y", np.array(ys))
        # per-piece data for the right inverse, in image order
        object.__setattr__(self, "_px", np.array([p[:2] for p in pieces]))
        object.__setattr__(self, "_py", np.array([p[2:] for p in pieces]))

    def __call__(self, x):
        return np.interp(np.asarray(x, dtype=float),
                         self._knots_x, self._knots_y)

    def inject(self, index: int, u):
        """Packet coordinate u of gap index, placed affinely onto the gap."""
        lo, hi = self.gaps[index]
        return lo + (hi - lo) * np.asarray(u, dtype=float)

    def isotopy(self, s: float, z):
        """Straight-line trace from the identity (s = 0) to the map (s = 1)."""
        z = np.asarray(z, dtype=float)
        if not 0.0 <= s <= 1.0:
            raise ValueError("isotopy time must lie in [0, 1]")
        return (1.0 - s) * z + s * self(z)

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
    return CollapseMap(tuple(plateaus))


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
    larger cells.  A pair passes when its dot, as _min_dots computes it, is
    at least c = cos(epsilon); most pairs are certified without a dot.

    At base sample p let C[k, p] be the running sum of the chords
    |n[l+1, p] - n[l, p]| over l < k, and T = max_p C[m-1, p].  The chord
    is a metric, so |n[q] - n[r]| <= C[q] - C[r] at every p, and unit
    normals have n[q].n[r] = 1 - |n[q] - n[r]|^2 / 2.  A pair r < q is
    certified when

        max_p (C[q] - C[r]) < sqrt(2 - 2c - 1e-12) - 1e-15 m T.

    The two margins cover four sources of rounding, with u = 2^-53:
    - each chord is a difference, three squares, a sum and a root, so it
      is at least (1 - 4u) times the exact chord;
    - the cumulative sum adds the chords one after another, so each C[k]
      lies within 1.01 m u T of the exact sum of the rounded chords, and
      1e-15 m T > 9 m u T covers the two ends of a pair.  With the
      subtraction, the max and the bound's own rounding, a certified pair
      has |n[q] - n[r]|^2 <= 2 - 2c - 1e-12 + 67u at every p;
    - normals with |n|^2 = 1 + eta have n[q].n[r] >= 1 - |n[q] - n[r]|^2 / 2
      - |eta|;
    - the matmul's 3-term dot lies within 3.1u of the exact one.
    So a certified pair's computed dot is at least c + 5e-13 - 37u - |eta|,
    which is at least c for normals unit to |eta| <= 4.9e-13, thousands of
    ulp.

    C is nondecreasing in k, so the rows certified against a candidate q
    are a suffix r >= r*(q), and r*(q) is nondecreasing in q.  A cell from
    i first takes the longest run certified from i, found by bisection;
    each further candidate q then needs _min_dots on rows i .. r*(q) - 1
    only, and the first q that fails ends the cell.

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
    sq = nrm[1:] - nrm[:-1]
    sq *= sq
    chords = sq[..., 0] + sq[..., 1]
    chords += sq[..., 2]
    chord_sums = np.zeros(nrm.shape[:2])
    np.cumsum(np.sqrt(chords, out=chords), axis=0, out=chord_sums[1:])
    reach = (math.sqrt(max(0.0, 2.0 - 2.0 * cos_floor - 1e-12))
             - 1e-15 * m * float(chord_sums[-1].max()))

    def certified(r, q):
        # a NaN normal is never certified
        return (chord_sums[q] - chord_sums[r]).max() < reach

    cuts = [0]
    i = 0
    while i < m - 1:
        lo, hi = i, m - 1
        while lo < hi:
            mid = (lo + hi + 1) // 2
            if certified(i, mid):
                lo = mid
            else:
                hi = mid - 1
        j, r = lo, i
        while j < m - 1:
            q = j + 1
            while r < q and not certified(r, q):
                r += 1
            if not _min_dots(nrm[i:r], nrm[q:q + 1]).min() >= cos_floor:
                break
            j = q
        if j == i:
            raise ValueError(
                f"adjacent sampled leaves exceed epsilon={epsilon} near "
                f"t={t[i]:.6g}; grid too coarse for this bound")
        cuts.append(j)
        i = j
    return Partition(tuple(float(t[k]) for k in cuts))
