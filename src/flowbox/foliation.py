"""Product foliations on flow boxes as monotone graph families.

A foliation transverse to the vertical fibers of D x [0,1] is stored as a
family of sampled leaf graphs z = f_t(x, y), linear in the leaf index t and
bilinear in the base coordinates.  Leaves are indexed by their height over an
anchor point, so holonomy maps are genuine self-maps of [0,1].
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .kernel import SOLVER_TOL

_SHAPES = ("rectangle", "annulus", "disk")


@dataclass(frozen=True)
class BaseDomain:
    """Base of a flow box: unit square, annulus [0,1] x S^1, or disk chart.

    nx, ny are node counts per axis.  The disk shares the rectangle's square
    chart; the annulus is periodic in y with nodes at j/ny (no seam
    duplicate).
    """

    shape: str
    nx: int
    ny: int

    def __post_init__(self):
        if self.shape not in _SHAPES:
            raise ValueError(f"unknown base shape {self.shape!r}")
        if self.nx < 8 or self.ny < 8:
            raise ValueError("resolution must be at least 8 nodes per axis")

    @property
    def periodic_y(self) -> bool:
        return self.shape == "annulus"

    @property
    def x_nodes(self) -> np.ndarray:
        return np.linspace(0.0, 1.0, self.nx)

    @property
    def y_nodes(self) -> np.ndarray:
        if self.periodic_y:
            return np.arange(self.ny) / self.ny
        return np.linspace(0.0, 1.0, self.ny)

    def to_json(self) -> dict:
        return {"shape": self.shape, "nx": self.nx, "ny": self.ny}

    @classmethod
    def from_json(cls, data: dict) -> "BaseDomain":
        return cls(data["shape"], int(data["nx"]), int(data["ny"]))


def _bilinear_parts(base: BaseDomain, pts: np.ndarray):
    """Cell indices and weights for bilinear evaluation at pts (n, 2)."""
    pts = np.asarray(pts, dtype=float)
    x = np.clip(pts[..., 0], 0.0, 1.0)
    y = pts[..., 1]
    sx = x * (base.nx - 1)
    ix = np.clip(np.floor(sx).astype(int), 0, base.nx - 2)
    u = sx - ix
    if base.periodic_y:
        sy = np.mod(y, 1.0) * base.ny
        iy = np.floor(sy).astype(int) % base.ny
        jy = (iy + 1) % base.ny
        v = sy - np.floor(sy)
    else:
        y = np.clip(y, 0.0, 1.0)
        sy = y * (base.ny - 1)
        iy = np.clip(np.floor(sy).astype(int), 0, base.ny - 2)
        jy = iy + 1
        v = sy - iy
    return ix, ix + 1, iy, jy, u, v


def _eval_grids(values: np.ndarray, base: BaseDomain, pts: np.ndarray):
    """Bilinear evaluation of (m, nx, ny) grids at pts (n, 2) -> (m, n)."""
    ix, jx, iy, jy, u, v = _bilinear_parts(base, np.atleast_2d(pts))
    row0 = (1.0 - u) * values[:, ix, iy] + u * values[:, jx, iy]
    row1 = (1.0 - u) * values[:, ix, jy] + u * values[:, jx, jy]
    return (1.0 - v) * row0 + v * row1


def _leaf_gradients(family: "LeafFamily") -> np.ndarray:
    """Per-leaf gradients (m, nx, ny, 2) by central differences.

    One-sided second-order differences at non-periodic edges, wraparound on
    the annulus seam.
    """
    base = family.base
    vals = family.values
    dx = 1.0 / (base.nx - 1)
    gx = np.gradient(vals, dx, axis=1)
    if base.periodic_y:
        dy = 1.0 / base.ny
        gy = (np.roll(vals, -1, axis=2) - np.roll(vals, 1, axis=2)) / (2 * dy)
    else:
        dy = 1.0 / (base.ny - 1)
        gy = np.gradient(vals, dy, axis=2)
    return np.stack([gx, gy], axis=-1)


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


# cosines this far above the least one have angles smaller by at least this
# much (|arccos'| >= 1), far beyond arccos's rounding error
_C0_COS_SLACK = 1e-9


def c0_distance(a: LeafFamily, b: LeafFamily) -> float:
    """Sup over shared sample points (x, z) of the angle between leaf normals.

    At every grid node, the z-samples are the union of both families' leaf
    heights there; each family's normal at (x, z) interpolates its per-leaf
    gradients linearly between the bracketing sampled leaves.
    """
    if a.base != b.base:
        raise ValueError("families must share a base domain")
    n = a.base.nx * a.base.ny

    def node_rows(grid, m):
        # (m, nx, ny) -> contiguous (n, m): one row of leaf samples per node
        return np.ascontiguousarray(grid.reshape(m, n).T)

    va, vb = node_rows(a.values, a.m), node_rows(b.values, b.m)
    ga = [node_rows(g, a.m) for g in np.moveaxis(_leaf_gradients(a), -1, 0)]
    gb = [node_rows(g, b.m) for g in np.moveaxis(_leaf_gradients(b), -1, 0)]

    def grad_at(v, g, zq):
        # per-row searchsorted: heights sit in [0,1], so offsetting row r by
        # 2r makes the flattened array globally sorted
        m = v.shape[1]
        off = 2.0 * np.arange(v.shape[0], dtype=float)[:, None]
        flat = np.searchsorted((v + off).ravel(), (zq + off).ravel(),
                               side="right")
        idx = flat.reshape(zq.shape) - m * np.arange(v.shape[0])[:, None] - 1
        seg = np.clip(idx, 0, m - 2)
        pos = m * np.arange(v.shape[0])[:, None] + seg
        vf = v.ravel()
        v_lo, v_hi = vf[pos], vf[pos + 1]
        u = np.clip((zq - v_lo) / (v_hi - v_lo), 0.0, 1.0)
        return [(1.0 - u) * c.ravel()[pos] + u * c.ravel()[pos + 1] for c in g]

    def cosines(p, q):
        # two-term sums in the order np.sum takes them over a size-2 axis
        dot = p[0] * q[0] + p[1] * q[1] + 1.0
        norm = np.sqrt((p[0] * p[0] + p[1] * p[1] + 1.0)
                       * (q[0] * q[0] + q[1] * q[1] + 1.0))
        return np.clip(dot / norm, -1.0, 1.0)

    # at a family's own sampled heights the interpolation is exact, so only
    # the other family's heights need the bracketing walk
    cos = [cosines(ga, grad_at(vb, gb, va)), cosines(grad_at(va, ga, vb), gb)]
    # the sup angle sits at the least cosine; arccos only the near-minimal
    # ones so the max never leans on arccos being monotone to the last ulp
    least = min(c.min() for c in cos)
    return float(max(np.arccos(c[c <= least + _C0_COS_SLACK]).max(initial=0.0)
                     for c in cos))


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
    if pts[:, 0].min() < -SOLVER_TOL or pts[:, 0].max() > 1.0 + SOLVER_TOL:
        raise ValueError("path leaves the base domain in x")
    if not family.base.periodic_y:
        if pts[:, 1].min() < -SOLVER_TOL or pts[:, 1].max() > 1.0 + SOLVER_TOL:
            raise ValueError("path leaves the base domain in y")
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
    if axis == "y" and base.periodic_y:
        raise ValueError("y-shear needs a non-periodic y coordinate")
    t = np.linspace(0.0, 1.0, m)
    x, y = _grid(base)
    coord = x if axis == "x" else y
    vals = t[:, None, None] + shear * (t * (1.0 - t))[:, None, None] * coord[None]
    return LeafFamily(base, t, vals, (0, 0))
