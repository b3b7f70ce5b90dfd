"""Product foliations on flow boxes as monotone graph families.

A foliation transverse to the vertical fibers of D x [0,1] is stored as a
family of sampled leaf graphs z = f_t(x, y), linear in the leaf index t and
bilinear in the base coordinates.  Leaves are indexed by their height over an
anchor point, so holonomy maps are genuine self-maps of [0,1].
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .kernel import SOLVER_TOL


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
        return cls(data["shape"], int(data["nx"]), int(data["ny"]))


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


def _leaf_gradients(family: "LeafFamily") -> np.ndarray:
    """Per-leaf gradients (m, nx, ny, 2) by central differences, one-sided
    second-order differences at the edges."""
    base = family.base
    dx, dy = 1.0 / (base.nx - 1), 1.0 / (base.ny - 1)
    return np.stack(np.gradient(family.values, dx, dy, axis=(1, 2)), axis=-1)


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
        return cls(
            base=BaseDomain.from_json(data["base"]),
            t=np.array(data["t"], dtype=float),
            values=np.array(data["values"], dtype=float),
            anchor=tuple(data["anchor"]),
        )


def tangent_field(family: LeafFamily) -> np.ndarray:
    """Unit leaf normals (m, nx, ny, 3) at every sample point, from central
    finite differences of the sampled leaves."""
    g = _leaf_gradients(family)
    normals = np.concatenate([-g, np.ones(g.shape[:-1] + (1,))], axis=-1)
    normals /= np.linalg.norm(normals, axis=-1, keepdims=True)
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


def c0_distance(a: LeafFamily, b: LeafFamily) -> float:
    """Sup over grid nodes x and heights z of the angle between the leaf
    normals at (x, z).

    At a node, each family's normal interpolates its per-leaf gradients
    linearly in z between the bracketing leaves.  Between consecutive
    heights of both families' leaves both are affine in z, so the sup is
    taken at those heights and at the angle's critical points between them:
    it depends on the normal fields, not on where they are sampled.
    """
    if a.base != b.base:
        raise ValueError("families must share a base domain")
    n, k = a.base.nx * a.base.ny, a.m + b.m

    def node_rows(grid, m):
        # (m, nx, ny) -> contiguous (n, m): one row of leaf samples per node
        return np.ascontiguousarray(grid.reshape(m, n).T)

    va, vb = node_rows(a.values, a.m), node_rows(b.values, b.m)
    ga = [node_rows(g, a.m) for g in np.moveaxis(_leaf_gradients(a), -1, 0)]
    gb = [node_rows(g, b.m) for g in np.moveaxis(_leaf_gradients(b), -1, 0)]
    rows = k * np.arange(n)[:, None]

    # merged order: each node's heights of both families sorted exactly (a
    # float offset per node would round near-equal heights together and let
    # the argument order decide); b's leaves come first in the rows sorted,
    # so the stable sort puts a's leaf i after the b leaves at or below it
    # and b's leaf j after the a leaves strictly below it
    from_a = np.argsort(np.concatenate([vb, va], axis=1), axis=1,
                        kind="stable") >= b.m
    pa = np.flatnonzero(from_a).reshape(n, a.m)
    pb = np.flatnonzero(~from_a).reshape(n, b.m)

    def interp(v, grads, zq, place):
        # gradients at the heights zq, linear between the bracketing leaves
        # (exact at a leaf's own height) and constant beyond the end leaves
        m, below = v.shape[1], place - rows - np.arange(zq.shape[1])
        pos = m * np.arange(n)[:, None] + np.clip(below - 1, 0, m - 2)
        v_lo, v_hi = v.ravel()[pos], v.ravel()[pos + 1]
        u = np.clip((zq - v_lo) / (v_hi - v_lo), 0.0, 1.0)
        return [(1.0 - u) * c.ravel()[pos] + u * c.ravel()[pos + 1]
                for c in grads]

    # (p_x, p_y, q_x, q_y), a's gradient p and b's q, at the merged heights
    g = np.empty((4, n * k))
    for c, (at_a, at_b) in enumerate(zip(ga + interp(vb, gb, va, pa),
                                         interp(va, ga, vb, pb) + gb)):
        g[c, pa.ravel()], g[c, pb.ravel()] = at_a.ravel(), at_b.ravel()
    g = g.reshape(4, n, k)
    worst = float(_normal_angles(g[:2], g[2:]).max())
    # between merged heights the angle is at most the gnomonic distance
    # |q - p| (the projection only stretches), convex along the segment, so
    # only segments with an end farther than worst can beat it
    e = g[2:] - g[:2]
    far = np.einsum("i...,i...->...", e, e) > worst * worst
    node, seg = np.nonzero(far[:, :-1] | far[:, 1:])
    if node.size:
        worst = _interior_peak(g[:, node, seg],
                               g[:, node, seg + 1] - g[:, node, seg], worst)
    return worst


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


def fiber_map(family: LeafFamily, node) -> HolonomyMap:
    """Leaf index -> height of that leaf over the grid node (ix, iy)."""
    ix, iy = node
    return HolonomyMap(family.t, family.values[:, ix, iy])


def node_columns(family: LeafFamily, nodes) -> np.ndarray:
    """Fiber heights over the grid nodes (ix, iy), one column per node:
    shape (m, len(nodes))."""
    ix, iy = zip(*nodes)
    return family.values[:, list(ix), list(iy)]


def fiber_transports(family: LeafFamily, nodes) -> list:
    """Leaf transports from the fiber over nodes[0] to each later node's.

    Entry k sends a leaf's height over nodes[0] to the same leaf's height
    over nodes[k + 1].  Both fibers are sampled at the same leaves, so the
    transport is exactly the pair of node columns.
    """
    cols = node_columns(family, nodes)
    return [HolonomyMap(cols[:, 0], col) for col in cols[:, 1:].T]


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
