"""Product foliations on flow boxes as monotone graph families.

A foliation transverse to the vertical fibers of D x [0,1] is stored as a
family of sampled leaf graphs z = f_t(x, y), linear in the leaf index t and
bilinear in the base coordinates.  Leaves are indexed by their height over an
anchor point, so holonomy maps are genuine self-maps of [0,1].
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain

import numpy as np

from .kernel import SOLVER_TOL


def _json_ints(what: str, *values) -> tuple:
    """values, each of which must be a JSON integer: a float or a string is
    refused rather than truncated, and a bool is no integer."""
    if any(type(v) is not int for v in values):
        raise TypeError(f"{what} must be integers, got "
                        f"{', '.join(type(v).__name__ for v in values)}")
    return values


class MissingKey(KeyError):
    """A key missing from a JSON object.  args are the key and the path from
    the document's root to that object, such as "boxes[2] (b10).family"."""

    def __str__(self):
        key, path = self.args
        return f"{path}{': ' if path else ''}missing key {key!r}"


def json_part(step: str, parse, data):
    """parse(data), where step (such as ".family" or "boxes[2]") leads from
    the enclosing object to data: a key missing from data, or from a part
    that parse reads in turn, is raised as a MissingKey whose path begins
    with step, and a TypeError, ValueError or OverflowError is raised again,
    of the same kind, as "<path>: <message>"."""
    try:
        return parse(data)
    except KeyError as exc:
        key, path = (exc.args if isinstance(exc, MissingKey)
                     else (exc.args[0], ""))
        raise MissingKey(key, step + path) from None
    except (TypeError, ValueError, OverflowError) as exc:
        inner, detail = getattr(exc, "json_path", ("", str(exc)))
        path = step + inner
        err = type(exc)(f"{path}: {detail}" if path else detail)
        err.json_path = path, detail
        raise err from None


def json_floats(what: str, data, depth: int = 1) -> np.ndarray:
    """data, lists nested depth deep, as a float array.  Every entry must be
    a JSON number: a bool or a numeric string is refused rather than
    coerced, as np.array(data, dtype=float) alone would."""
    entries = data
    for _ in range(depth - 1):
        entries = chain.from_iterable(entries)
    kinds = set(map(type, entries)) - {int, float}
    if kinds:
        raise TypeError(f"{what} must be numbers, got "
                        f"{', '.join(sorted(k.__name__ for k in kinds))}")
    return np.array(data, dtype=float)


@dataclass(frozen=True)
class BaseDomain:
    """Base of a flow box: the unit square [0,1]^2 with nx x ny nodes.

    An annular box is a rectangle chart whose two opposite faces the
    decomposition glues to each other; no base is periodic.
    """

    shape: str
    nx: int
    ny: int

    def __post_init__(self):
        if self.shape != "rectangle":
            raise ValueError(f"unknown base shape {self.shape!r}")
        if self.nx < 8 or self.ny < 8:
            raise ValueError("resolution must be at least 8 nodes per axis")

    @property
    def x_nodes(self) -> np.ndarray:
        return np.linspace(0.0, 1.0, self.nx)

    @property
    def y_nodes(self) -> np.ndarray:
        return np.linspace(0.0, 1.0, self.ny)

    def to_json(self) -> dict:
        return {"shape": self.shape, "nx": self.nx, "ny": self.ny}

    @classmethod
    def from_json(cls, data: dict) -> "BaseDomain":
        return cls(data["shape"],
                   *_json_ints("node counts", data["nx"], data["ny"]))


def _bilinear_parts(base: BaseDomain, pts: np.ndarray):
    """Cell indices and weights for bilinear evaluation at pts (n, 2)."""
    pts = np.asarray(pts, dtype=float)
    parts = []
    for coord, n in ((pts[..., 0], base.nx), (pts[..., 1], base.ny)):
        s = np.clip(coord, 0.0, 1.0) * (n - 1)
        i = np.clip(np.floor(s).astype(int), 0, n - 2)
        parts.append((i, s - i))
    (ix, u), (iy, v) = parts
    return ix, ix + 1, iy, iy + 1, u, v


def _eval_grids(values: np.ndarray, base: BaseDomain, pts: np.ndarray):
    """Bilinear evaluation of (m, nx, ny) grids at pts (n, 2) -> (m, n)."""
    ix, jx, iy, jy, u, v = _bilinear_parts(base, np.atleast_2d(pts))
    row0 = (1.0 - u) * values[:, ix, iy] + u * values[:, jx, iy]
    row1 = (1.0 - u) * values[:, ix, jy] + u * values[:, jx, jy]
    return (1.0 - v) * row0 + v * row1


def _leaf_gradients(family: "LeafFamily") -> tuple:
    """Per-leaf gradient components (g_x, g_y), each (m, nx, ny): central
    differences inside, first-order one-sided differences at the edges."""
    base = family.base
    dx, dy = 1.0 / (base.nx - 1), 1.0 / (base.ny - 1)
    return tuple(np.gradient(family.values, dx, dy, axis=(1, 2)))


@dataclass(frozen=True)
class LeafFamily:
    """Monotone family of sampled leaf graphs over a base domain.

    values[k] is the grid of f_{t[k]}; linear interpolation in t, bilinear in
    the base.  anchor is the grid node (ix, iy) where f_t = t.
    """

    base: BaseDomain
    t: np.ndarray
    values: np.ndarray
    anchor: tuple = (0, 0)

    def __post_init__(self):
        t = np.asarray(self.t, dtype=float)
        vals = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "t", t)
        object.__setattr__(self, "values", vals)
        object.__setattr__(self, "anchor", (int(self.anchor[0]), int(self.anchor[1])))
        if t.ndim != 1 or t.size < 2:
            raise ValueError("need at least the two boundary leaves")
        if t[0] != 0.0 or t[-1] != 1.0:
            raise ValueError("leaf indices must run from 0 to 1")
        if not np.all(np.diff(t) > 0.0):
            raise ValueError("leaf indices must be strictly increasing")
        if vals.shape != (t.size, self.base.nx, self.base.ny):
            raise ValueError("values must have shape (len(t), nx, ny)")
        if not (np.all(vals[0] == 0.0) and np.all(vals[-1] == 1.0)):
            raise ValueError("boundary leaves must be exactly 0 and 1")
        if not np.all(np.diff(vals, axis=0) > 0.0):
            raise ValueError("leaves must be strictly increasing in t")
        ix, iy = self.anchor
        if not (0 <= ix < self.base.nx and 0 <= iy < self.base.ny):
            raise ValueError("anchor must be a grid node")
        if np.max(np.abs(vals[:, ix, iy] - t)) > SOLVER_TOL:
            raise ValueError("family is not anchored: f_t(x0) must equal t")

    @property
    def m(self) -> int:
        return self.t.size

    def values_at(self, pts) -> np.ndarray:
        """Sampled-leaf heights over base points: (m, n)."""
        return _eval_grids(self.values, self.base, pts)

    def leaves_at(self, ts) -> np.ndarray:
        """Interpolated leaf grids at arbitrary indices ts: (len(ts), nx, ny)."""
        ts = np.atleast_1d(np.asarray(ts, dtype=float))
        if ts.min() < -SOLVER_TOL or ts.max() > 1.0 + SOLVER_TOL:
            raise ValueError("leaf index outside [0, 1]")
        ts = np.clip(ts, 0.0, 1.0)
        k = np.clip(np.searchsorted(self.t, ts, side="right") - 1, 0, self.m - 2)
        u = (ts - self.t[k]) / (self.t[k + 1] - self.t[k])
        u = u[:, None, None]
        return (1.0 - u) * self.values[k] + u * self.values[k + 1]

    def to_json(self) -> dict:
        return {
            "base": self.base.to_json(),
            "t": self.t.tolist(),
            "values": self.values.tolist(),
            "anchor": list(self.anchor),
        }

    @classmethod
    def from_json(cls, data: dict) -> "LeafFamily":
        ax, ay = data["anchor"]
        return cls(
            base=json_part(".base", BaseDomain.from_json, data["base"]),
            t=json_floats("leaf indices", data["t"]),
            values=json_floats("leaf heights", data["values"], depth=3),
            anchor=_json_ints("anchor indices", ax, ay),
        )


def byte_equal(a: LeafFamily, b: LeafFamily) -> bool:
    """Byte identity: the same base and anchor, and leaf indices and grids
    equal bit for bit, compared in place as 64-bit words (so 0.0 and -0.0
    differ).  Every operator reads a family through these alone, so
    byte-equal families give byte-equal results.  Keeps nothing."""
    if a is b:
        return True
    if a.base != b.base or a.anchor != b.anchor or a.m != b.m:
        return False
    return bool(np.all(a.t.view(np.int64) == b.t.view(np.int64))
                and np.all(a.values.view(np.int64)
                           == b.values.view(np.int64)))


def shared_result(memo: list, run, *families):
    """run(*families), or what it returned on an earlier call with this
    memo for byte-equal families.  memo is the caller's list of
    (families, result) pairs, one per distinct input, scanned in order; the
    caller drops it when results may no longer be shared."""
    for seen, result in memo:
        if all(map(byte_equal, seen, families)):
            return result
    result = run(*families)
    memo.append((families, result))
    return result


def tangent_field(family: LeafFamily) -> np.ndarray:
    """Unit leaf normals (m, nx, ny, 3) at every sample point, from central
    finite differences of the sampled leaves."""
    g_x, g_y = _leaf_gradients(family)
    norm = np.sqrt(g_x * g_x + g_y * g_y + 1.0)  # as np.linalg.norm sums
    normals = np.empty(g_x.shape + (3,))
    for c, top in enumerate((-g_x, -g_y, 1.0)):
        np.divide(top, norm, out=normals[..., c])
    return normals


def _normal_angles(p, q) -> np.ndarray:
    """Angles between the leaf normals (-p, 1) and (-q, 1) of gradients
    p = (p_x, p_y) and q: atan2 of the cross and dot products, precise at
    small angles and symmetric in p and q to the last bit."""
    cross = np.sqrt((q[1] - p[1]) ** 2 + (p[0] - q[0]) ** 2
                    + (p[0] * q[1] - p[1] * q[0]) ** 2)
    return np.arctan2(cross, p[0] * q[0] + p[1] * q[1] + 1.0)


# a quartic's monomial coefficients, lowest power first, to its Bernstein
# coefficients on [0, 1], between whose least and largest it stays there
_BERNSTEIN = np.array([[math.comb(i, j) / math.comb(4, j) if j <= i else 0.0
                        for j in range(5)] for i in range(5)])


def _interior_peak(g, dg, worst: float) -> float:
    """Largest angle between the normals of the gradients p + u dp and
    q + u dq for u in [0, 1], or worst if none beats it; g and dg stack
    (p_x, p_y, q_x, q_y) and the steps of k segments, (4, k).

    The angle is atan2(|c|, d) for d = a.b quadratic in u and |c|^2 =
    |a x b|^2 = |q - p|^2 + (p x q)^2 quartic.  As the ends are at or below
    worst < pi/2, nonnegative Bernstein coefficients of sin^2(worst) d^2 -
    cos^2(worst) |c|^2 keep a segment there.  On the others the angle is
    taken at the real parts in [0, 1] of the roots of its critical quartic
    d (|c|^2)'/2 - |c|^2 d'.  Swapping p and q gives the same bits.
    """
    p, q, dp, dq = g[:2], g[2:], dg[:2], dg[2:]

    def dot(x, y):
        return np.einsum("ij,ij->j", x, y)

    def wedge(x, y):
        return x[0] * y[1] - x[1] * y[0]

    e, de = q - p, dq - dp
    k0, k1, k2 = wedge(p, q), wedge(p, dq) + wedge(dp, q), wedge(dp, dq)
    d0, d1, d2 = dot(p, q) + 1.0, dot(p, dq) + dot(dp, q), dot(dp, dq)
    dd = np.stack([d0 * d0, 2.0 * d0 * d1, d1 * d1 + 2.0 * d0 * d2,
                   2.0 * d1 * d2, d2 * d2])
    ss = np.stack([dot(e, e) + k0 * k0, 2.0 * (dot(e, de) + k0 * k1),
                   dot(de, de) + k1 * k1 + 2.0 * k0 * k2, 2.0 * k1 * k2,
                   k2 * k2])
    sin2, cos2 = math.sin(worst) ** 2, math.cos(worst) ** 2
    slack = 16.0 * np.finfo(float).eps * np.sum(
        sin2 * np.abs(dd) + cos2 * np.abs(ss), axis=0)
    live = ((np.min(_BERNSTEIN @ (sin2 * dd - cos2 * ss), axis=0) < -slack)
            | (worst >= 0.5 * math.pi))
    s0, s1, s2, s3, s4 = ss
    r = np.stack([d1 * s4 - 0.5 * d2 * s3,
                  2.0 * d0 * s4 + 0.5 * d1 * s3 - d2 * s2,
                  1.5 * (d0 * s3 - d2 * s1),
                  d0 * s2 - 0.5 * d1 * s1 - 2.0 * d2 * s0,
                  0.5 * d0 * s1 - d1 * s0], axis=-1)
    scale = np.max(np.abs(r), axis=-1)
    live &= scale > 0.0  # a constant angle has no critical points to add
    if not live.any():
        return worst
    r = r[live] / scale[live, None]
    # a vanishing u^4 coefficient only moves a root far outside [0, 1]
    r[:, 0] = np.where(np.abs(r[:, 0]) < 1e-17, 1e-17, r[:, 0])
    companion = np.zeros((r.shape[0], 4, 4))
    companion[:, 0, :] = -r[:, 1:] / r[:, :1]
    companion[:, [1, 2, 3], [0, 1, 2]] = 1.0
    u = np.clip(np.linalg.eigvals(companion).real, 0.0, 1.0).T
    at = g[:, None, live] + u * dg[:, None, live]
    return max(worst, float(_normal_angles(at[:2], at[2:]).max()))


def _cut_rows(a: LeafFamily, b: LeafFamily):
    """The indices of a's leaves that b's leaves are, or None: b's indices
    are some of a's and b's grids are a's rows there, byte for byte."""
    if b.m > a.m:
        return None
    cut = np.searchsorted(a.t, b.t)
    if (not np.array_equal(a.t[cut], b.t)
            or a.values[cut].tobytes() != b.values.tobytes()):
        return None
    return cut


def _largest_angle(g: np.ndarray, order=None) -> float:
    """Sup of the angle between the leaf normals of the gradients p = g[:2]
    and q = g[2:], each (n, k), affine in z between consecutive points of a
    node row; order[r] lists row r's columns by height (None: as stored).

    The angle is at most the gnomonic distance |q - p|, convex between
    consecutive heights (the projection only stretches): only points
    farther than the angle at the farthest, less 1e-9 for rounding (none:
    all 0), and segments with an end farther than worst can hold the
    largest.
    """
    e = g[2:] - g[:2]
    far = np.einsum("i...,i...->...", e, e)
    top = g.reshape(4, -1)[:, np.argmax(far)]
    near = far > (1.0 - 1e-9) * _normal_angles(top[:2], top[2:]) ** 2
    worst = float(_normal_angles(g[:2, near], g[2:, near]).max(initial=0.0))
    n, k = far.shape
    far = far > worst * worst
    if order is not None:
        far = far.take(order + k * np.arange(n)[:, None])
    node, seg = np.divmod(np.flatnonzero(far[:, :-1] | far[:, 1:]), k - 1)
    if node.size:
        lo, hi = ((seg, seg + 1) if order is None
                  else (order[node, seg], order[node, seg + 1]))
        worst = _interior_peak(g[:, node, lo],
                               g[:, node, hi] - g[:, node, lo], worst)
    return worst


def c0_distance(a: LeafFamily, b: LeafFamily) -> float:
    """Sup over grid nodes x and heights z of the angle between the leaf
    normals at (x, z).

    At a node, each family's normal interpolates its per-leaf gradients
    linearly in z between the bracketing leaves.  Between consecutive
    heights of both families' leaves both are affine in z, so the sup is
    taken at those heights and at the angle's critical points between them:
    it depends on the normal fields, not on where they are sampled.

    When b's leaves are some of a's, byte for byte (smooth_in_t's cut
    leaves c_0 < c_1 < ...), every height of b is one of a's, and at a's
    leaf i in [c_J, c_J+1] b's gradient is (1 - u) G[c_J] + u G[c_J+1] of
    a's gradients G, the merge's own operands.  At b's own heights u is
    exactly 0 or 1, so both normals are G[c_j]: the angle there is 0, the
    zero-length segments the merge adds there never hold the sup, and one
    pass over a's heights gives the merge's bits with no sort.
    """
    if a.base != b.base:
        raise ValueError("families must share a base domain")
    n = a.base.nx * a.base.ny
    cut = _cut_rows(a, b)
    if cut is not None:
        # one row per node, a's leaves: (p_x, p_y, q_x, q_y), with q read
        # off a's gradients at the two cut leaves bracketing each leaf
        z = a.values.reshape(a.m, n)
        cell = np.minimum(np.searchsorted(cut, np.arange(a.m), side="right"),
                          cut.size - 1)
        lo, hi = cut[cell - 1], cut[cell]
        u = np.clip((z - z[lo]) / (z[hi] - z[lo]), 0.0, 1.0)
        g = np.empty((4, n, a.m))
        for c, grad in enumerate(_leaf_gradients(a)):
            grad = grad.reshape(a.m, n)
            g[c] = grad.T
            g[c + 2] = ((1.0 - u) * grad[lo] + u * grad[hi]).T
        return _largest_angle(g)

    k = a.m + b.m
    cols_b, cols_a = slice(0, b.m), slice(b.m, k)
    # one row per node, b's leaves and then a's: the heights z and (p_x,
    # p_y, q_x, q_y), a's gradient p and b's q, at their own leaves
    z, g = np.empty((n, k)), np.empty((4, n, k))
    for f, cols, c in ((b, cols_b, 2), (a, cols_a, 0)):
        z[:, cols] = f.values.reshape(f.m, n).T
        for d, grad in zip(g[c:c + 2], _leaf_gradients(f)):
            d[:, cols] = grad.reshape(f.m, n).T

    # merged order: each node's heights of both families sorted exactly (a
    # float offset per node would round near-equal heights together and let
    # the argument order decide); b's leaves come first in the rows sorted,
    # so the stable sort puts a's leaf i after the b leaves at or below it
    # and b's leaf j after the a leaves strictly below it
    order = np.argsort(z, axis=1, kind="stable")
    rows = k * np.arange(n)[:, None]
    # each family's gradients at the other's heights, linear between the
    # bracketing leaves and constant beyond the end leaves: the other's
    # leaf i, merged at rank r, comes after r - i leaves of the family
    for at, src, c, mask in ((cols_b, cols_a, 0, order < b.m),
                             (cols_a, cols_b, 2, order >= b.m)):
        shift = np.arange(at.stop - at.start) + 1 - src.start
        pos = np.clip(np.flatnonzero(mask).reshape(n, -1) - shift,
                      rows + src.start, rows + src.stop - 2)
        pos1, v_lo = pos + 1, z.take(pos)
        u = np.clip((z[:, at] - v_lo) / (z.take(pos1) - v_lo), 0.0, 1.0)
        for d in g[c:c + 2]:
            d[:, at] = (1.0 - u) * d.take(pos) + u * d.take(pos1)
    del mask, pos, pos1, v_lo, u  # their pages serve the passes below
    return _largest_angle(g, order)


def merged_grid(a: np.ndarray, b: np.ndarray,
                tol: float = SOLVER_TOL) -> np.ndarray:
    """Sorted union of two sample sets, dropping every point within tol of
    the last one kept; the first point and the last are always kept."""
    t = np.union1d(a, b)
    kept = [0]
    for i in range(1, t.size):
        if t[i] - t[kept[-1]] > tol:
            kept.append(i)
    kept[-1] = t.size - 1
    return t[kept]


@dataclass(frozen=True)
class HolonomyMap:
    """Sampled monotone bijection of [0,1] with endpoints fixed.

    Piecewise-linear interpolation between samples; composition and inversion
    stay piecewise linear (compose refines the breakpoint set exactly).
    """

    inputs: np.ndarray
    outputs: np.ndarray

    def __post_init__(self):
        xi = np.asarray(self.inputs, dtype=float)
        yo = np.asarray(self.outputs, dtype=float)
        object.__setattr__(self, "inputs", xi)
        object.__setattr__(self, "outputs", yo)
        if xi.shape != yo.shape or xi.ndim != 1 or xi.size < 2:
            raise ValueError("malformed holonomy samples")
        if xi[0] != 0.0 or xi[-1] != 1.0 or yo[0] != 0.0 or yo[-1] != 1.0:
            raise ValueError("holonomy must fix 0 and 1")
        if not (np.all(np.diff(xi) > 0.0) and np.all(np.diff(yo) > 0.0)):
            raise ValueError("holonomy must be strictly increasing")

    def __call__(self, z):
        return np.interp(np.asarray(z, dtype=float), self.inputs, self.outputs)

    def inverse(self) -> "HolonomyMap":
        return HolonomyMap(self.outputs, self.inputs)

    def compose(self, other: "HolonomyMap") -> "HolonomyMap":
        """self after other: z -> self(other(z)), exact on piecewise lines.

        Float evaluation can tie consecutive outputs of the (strictly
        increasing) composite at near-duplicate breakpoints; ties keep one
        representative, the last one for the final run so 1 stays fixed.
        """
        xs = np.union1d(other.inputs, other.inverse()(self.inputs))
        ys = self(other(xs))
        keep = np.flatnonzero(np.concatenate([[True], np.diff(ys) > 0.0]))
        if keep[-1] != xs.size - 1:
            keep[-1] = xs.size - 1
        return HolonomyMap(xs[keep], ys[keep])

    def max_difference(self, other: "HolonomyMap") -> float:
        xs = np.union1d(self.inputs, other.inputs)
        return float(np.max(np.abs(self(xs) - other(xs))))

    def identity_defect(self) -> float:
        return float(np.max(np.abs(self.outputs - self.inputs)))


def interp_columns(x: np.ndarray, xp: np.ndarray, fp: np.ndarray) -> np.ndarray:
    """np.interp(x, xp, fp[:, c]) for every column c of fp in one pass:
    shape (len(x), fp.shape[1]), for queries x >= xp[0].

    np.interp's own arithmetic, so each column matches it bit for bit:
    fp[j] on an exact hit or at the last breakpoint, otherwise
    slope * (x - xp[j]) + fp[j] with the segment's
    slope = (fp[j+1] - fp[j]) / (xp[j+1] - xp[j]).
    """
    last = xp.size - 1
    j = np.searchsorted(xp, x, side="right") - 1
    hit = (j == last) | (xp[j] == x)
    k = np.minimum(j, last - 1)
    slopes = (fp[1:] - fp[:-1]) / (xp[1:] - xp[:-1])[:, None]
    return np.where(hit[:, None], fp[j],
                    slopes[k] * (x - xp[k])[:, None] + fp[k])


def inverse_interp_columns(x: np.ndarray, xp: np.ndarray,
                           fp: np.ndarray) -> np.ndarray:
    """np.interp(x[:, c], xp[:, c], fp) for every column c in one pass:
    shape x.shape.  Queries and breakpoints are per column and fp is
    shared, as when reading leaf indices fp off each node's fiber xp.

    np.interp's own arithmetic, as in interp_columns: fp[0] below the
    first breakpoint, fp[j] on an exact hit or at or past the last one,
    otherwise slope * (x - xp[j]) + fp[j].  A query's segment j comes from
    counting its column's breakpoints at or below it, one breakpoint row at
    a time, so every temporary has the shape of x.
    """
    last = xp.shape[0] - 1
    count = np.zeros(x.shape, dtype=np.intp)
    for row in xp:
        count += row <= x
    j = count - 1
    k = np.clip(j, 0, last - 1)
    xk = np.take_along_axis(xp, k, axis=0)
    slopes = (fp[1:] - fp[:-1])[:, None] / (xp[1:] - xp[:-1])
    # xk == x finds hits on xp[0..last-1]; below xp[0] the clipped k points
    # at xp[0] > x, so that case needs j < 0
    exact = (j < 0) | (j == last) | (xk == x)
    return np.where(exact, fp[np.clip(j, 0, last)],
                    np.take_along_axis(slopes, k, axis=0) * (x - xk) + fp[k])


def holonomy(family: LeafFamily, start, end) -> HolonomyMap:
    """Holonomy along a base path from start to end, as the map (height over
    end) -> (height of the same leaf over start).

    Exact for product foliations: leaves are globally indexed, so the map
    depends on the two endpoints only and no step-by-step continuation is
    needed.  Endpoint heights of the boundary leaves are snapped to exactly
    0 and 1 (they are exact mathematically; bilinear weights can smudge the
    last ulp).
    """
    pts = np.array([start, end], dtype=float)
    for c, name in ((0, "x"), (1, "y")):
        if pts[:, c].min() < -SOLVER_TOL or pts[:, c].max() > 1.0 + SOLVER_TOL:
            raise ValueError(f"path leaves the base domain in {name}")
    starts, ends = family.values_at(pts).T
    ends[0], ends[-1] = 0.0, 1.0
    starts[0], starts[-1] = 0.0, 1.0
    return HolonomyMap(ends, starts)


# ------------------------------------------------------------ constructors

def _grid(base: BaseDomain):
    return np.meshgrid(base.x_nodes, base.y_nodes, indexing="ij")


def horizontal_family(base: BaseDomain, m: int = 17, anchor=(0, 0)) -> LeafFamily:
    """f_t = t at every base point (anchored anywhere)."""
    t = np.linspace(0.0, 1.0, m)
    vals = np.broadcast_to(t[:, None, None], (m, base.nx, base.ny)).copy()
    return LeafFamily(base, t, vals, anchor)


def sheared_family(base: BaseDomain, shear: float = 0.5, m: int = 17,
                   axis: str = "x") -> LeafFamily:
    """f_t = t + shear * t(1-t) * (x or y), anchored where the shear vanishes.

    Monotone for |shear| < 1 (d f/dt = 1 + shear(1-2t) * coordinate).
    """
    if not abs(shear) < 1.0:
        raise ValueError("|shear| must be below 1 for monotonicity")
    if axis not in ("x", "y"):
        raise ValueError("shear axis must be 'x' or 'y'")
    t = np.linspace(0.0, 1.0, m)
    x, y = _grid(base)
    coord = x if axis == "x" else y
    vals = t[:, None, None] + shear * (t * (1.0 - t))[:, None, None] * coord[None]
    return LeafFamily(base, t, vals, (0, 0))
