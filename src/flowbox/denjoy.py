"""Denjoy blowup of horizontal leaf families.

Fiberwise insertion of foliated packets into the gaps of a collapse map, the
scene-level construction glued across shared faces, a verifier for the eight
defining properties of the collapse data, and the circle-dynamics shadow of
the same construction (blown-up rotations, rotation numbers, wandering gaps).
"""

import math
from bisect import bisect_right
from dataclasses import dataclass

import numpy as np

from .decomposition import (
    DecompositionComplex,
    shared_faces,
    side_nodes,
    validate,  # unused; the bench tracer's alias test checks it
    with_families,
)
from .foliation import (
    HolonomyMap,
    LeafFamily,
    SOLVER_TOL,
    c0_distance,
    fiber_transports,
    inverse_interp_columns,
)
from .kernel import (
    COMPARISON_TOL,
    CollapseMap,
    InsertionSchedule,
    build_collapse,
    halving_ladder,
    stage,
)
from .smoothing import face_transport_defect

FACE_RHO_TOL = 1e-6


# ------------------------------------------------------------ collapse data


@dataclass(frozen=True)
class CollapseData:
    """One collapse map with the packet injection and isotopy trace.

    Every fiber of every box carries the same collapse map, so pi acts as
    identity x p on each box.  The injection j sends packet coordinate u of
    gap i affinely onto that gap, and pi_t is the straight-line trace in the
    fiber coordinate from the identity to pi.
    """

    schedule: InsertionSchedule
    collapse: CollapseMap

    def gaps(self) -> tuple:
        """Blown-coordinate gap intervals, ordered like the schedule points."""
        plats = sorted(self.collapse.plateaus)
        if tuple(p[2] for p in plats) != tuple(self.schedule.points):
            raise ValueError("collapse plateaus do not match the schedule")
        return tuple((p[0], p[1]) for p in plats)

    def pi(self, z):
        return self.collapse(z)

    def inject(self, index: int, u):
        lo, hi = self.gaps()[index]
        return lo + np.asarray(u, dtype=float) * (hi - lo)

    def pi_t(self, s: float, z):
        z = np.asarray(z, dtype=float)
        if not 0.0 <= s <= 1.0:
            raise ValueError("isotopy time must lie in [0, 1]")
        return (1.0 - s) * z + s * self.collapse(z)


# ------------------------------------------------------------ one flow box


def _require_horizontal(family: LeafFamily, label: str) -> None:
    defect = float(np.max(np.abs(
        family.values - family.t[:, None, None])))
    if defect > SOLVER_TOL:
        raise ValueError(
            f"{label}: blowup needs a strictly horizontal family "
            f"(defect {defect:.3g}); straighten the chart first")


def blowup_box(family: LeafFamily, schedule: InsertionSchedule, packets):
    """Denjoy blowup of one strictly horizontal box.

    Cuts the fiber at each scheduled height, opens a gap of the scheduled
    weight (rescaled so the fiber keeps length one), fills the gap with the
    packet family mapped in affinely, and keeps the complement leaves flat at
    their re-embedded heights.  The collapse map, built fiberwise by the
    kernel, undoes the insertion.

    Returns the blown family and its CollapseData.
    """
    _require_horizontal(family, "blowup_box input")
    packets = tuple(packets)
    if len(packets) != len(schedule.points):
        raise ValueError("schedule points and packets must pair up")
    for pkt in packets:
        if pkt.base != family.base:
            raise ValueError("packet base must match the box chart")
        if tuple(pkt.anchor) != tuple(family.anchor):
            raise ValueError("packet must share the box anchor node")
    data = CollapseData(schedule, build_collapse(schedule))
    if not schedule.points:
        return family, data

    pts = np.array(schedule.points)
    on_point = np.min(np.abs(family.t[:, None] - pts[None, :]), axis=1) == 0.0
    t_comp = data.collapse.complement_embedding(family.t[~on_point])
    parts_t = [t_comp]
    nx, ny = family.base.nx, family.base.ny
    parts_v = [np.broadcast_to(t_comp[:, None, None],
                               (t_comp.size, nx, ny))]
    for (lo, hi), pkt in zip(data.gaps(), packets):
        hts = lo + (hi - lo) * pkt.t
        vals_p = lo + (hi - lo) * pkt.values
        # the affine image of 1.0 can miss hi by an ulp; the gap boundary
        # leaves are the plateau endpoints exactly
        hts[0], hts[-1] = lo, hi
        vals_p[0], vals_p[-1] = lo, hi
        parts_t.append(hts)
        parts_v.append(vals_p)
    t_all = np.concatenate(parts_t)
    order = np.argsort(t_all, kind="stable")
    t_all = t_all[order]
    vals = np.concatenate(parts_v, axis=0)[order]
    dup = np.concatenate([[False], np.diff(t_all) == 0.0])
    t_all, vals = t_all[~dup], np.array(vals[~dup])
    if not np.all(np.diff(t_all) > 0.0):
        raise ValueError("blown leaf samples collide; refine the schedule")
    ax, ay = family.anchor
    vals[:, ax, ay] = t_all
    return LeafFamily(family.base, t_all, vals, family.anchor), data


# ------------------------------------------------------------ scene blowup


def _packet_scene_defect(scene, packets):
    """Transport compatibility of each packet's chart data across faces,
    the packet placed in every box."""
    worst, bad = 0.0, None
    for i, pkt in enumerate(packets):
        defect = face_transport_defect(
            with_families(scene, {b.identifier: pkt for b in scene.boxes}))
        if defect > worst:
            worst, bad = defect, i
    return worst, bad


def _transport(family: LeafFamily, side: str) -> HolonomyMap:
    """Leaf transport from the first to the last fiber along one side."""
    nodes = side_nodes(family.base, side)
    return fiber_transports(family, (nodes[0], nodes[-1]))[0]


def _glued_rho(data, packets, side: str) -> HolonomyMap:
    """The face holonomy predicted by gluing: packet transports inside the
    gaps (conjugated into blown coordinates), the original holonomy through
    the collapse elsewhere.  The original here is horizontal, so the
    complement part is the identity."""
    xs = [np.array([0.0])]
    ys = [np.array([0.0])]
    for (lo, hi), pkt in zip(data.gaps(), packets):
        rho_l = _transport(pkt, side)
        xs.append(lo + (hi - lo) * rho_l.inputs)
        ys.append(lo + (hi - lo) * rho_l.outputs)
    xs.append(np.array([1.0]))
    ys.append(np.array([1.0]))
    x = np.concatenate(xs)
    y = np.concatenate(ys)
    keep = np.concatenate([[True], np.diff(x) > 0.0])
    return HolonomyMap(x[keep], y[keep])


def blowup_scene(scene: DecompositionComplex, schedule: InsertionSchedule,
                 packets, epsilon: float, report: dict | None = None):
    """Denjoy blowup of a strictly horizontal scene.

    Blows up every box fiberwise at the same schedule, verifies that the
    resulting face holonomy matches the glued holonomy predicted by the
    packet data on the gaps and the collapse map on the complement, and
    halves all weights until the per-box distance budget is met.  The
    per-box restriction of the output is the box blowup of the restriction,
    by construction.

    packets: one LeafFamily per schedule point, used in every box.
    """
    if epsilon <= 0.0:
        raise ValueError("epsilon must be positive")
    if not scene.validation["valid"]:
        raise ValueError("blowup_scene requires a valid decomposition")
    for box in scene.boxes:
        _require_horizontal(box.family, f"box {box.identifier}")
    packets = tuple(packets)
    if len(packets) != len(schedule.points):
        raise ValueError("schedule points and packets must pair up")
    faces = shared_faces(scene)
    pkt_defect, bad = _packet_scene_defect(scene, packets)
    if pkt_defect > FACE_RHO_TOL:
        raise ValueError(
            f"packet {bad}: face holonomy data disagree across shared faces "
            f"(defect {pkt_defect:.3g})")

    originals = {b.identifier: b.family for b in scene.boxes}

    def attempt(scale):
        live = InsertionSchedule(schedule.points,
                                 tuple(w * scale for w in schedule.weights))
        fams = {}
        stages = []
        with stage(stages, "edge-neighborhood boxes") as row:
            for box in scene.boxes:
                fams[box.identifier], data = blowup_box(box.family, live,
                                                        packets)
            box_distances = {i: c0_distance(originals[i], fams[i])
                             for i in fams}
            worst = max(box_distances.values())
            row.update({"region": "every flow box, fiberwise insertion",
                        "achieved_distance": worst})
        blown_scene = with_families(scene, fams)

        rho_defect = 0.0
        with stage(stages, "maximal-face gluing") as row:
            for axis, pos, (id_a, side_a), (id_b, side_b) in faces:
                predicted = _glued_rho(data, packets, side_a)
                for ident, side in ((id_a, side_a), (id_b, side_b)):
                    actual = _transport(fams[ident], side)
                    gap = predicted.max_difference(actual)
                    rho_defect = max(rho_defect, gap)
                    if gap > FACE_RHO_TOL:
                        raise ValueError(
                            f"face {axis}={pos} ({id_a}|{id_b}): blown "
                            f"holonomy disagrees with the glued prediction "
                            f"by {gap:.3g}")
            row.update({"region": f"{len(faces)} shared faces",
                        "holonomy_defect": rho_defect})
        with stage(stages, "interior extension") as row:
            face_defect = face_transport_defect(blown_scene)
            row.update({"region": "box interiors (unique leaf-to-leaf, "
                                  "fiber-preserving extension)",
                        "holonomy_defect": face_defect})
        return (blown_scene, data), worst <= epsilon, {
            "operation": "blowup_scene",
            "epsilon": epsilon,
            "schedule": live.to_json(),
            "achieved_distance": worst,
            "box_distances": box_distances,
            "face_defect": face_defect,
            "stages": stages,
        }

    return halving_ladder(
        attempt, report,
        f"scene blowup missed epsilon={epsilon} after {{retries}} weight "
        "halvings")


# ------------------------------------------------------------ verification


def _verify_pairs(original, blown):
    if isinstance(original, LeafFamily):
        return {None: (original, blown)}
    return {b.identifier: (b.family, blown.box(b.identifier).family)
            for b in original.boxes}


def _leaf_membership_spread(orig: LeafFamily, heights: np.ndarray) -> tuple:
    """Max spread of original leaf indices hit by each row of heights.

    heights: (m, nx, ny) collapsed leaf graphs.  Returns (spread, witness).
    """
    m = heights.shape[0]
    idx = inverse_interp_columns(heights.reshape(m, -1),
                                 orig.values.reshape(orig.m, -1), orig.t)
    gaps = idx.max(axis=1) - idx.min(axis=1)
    k = int(np.argmax(gaps))
    return float(gaps[k]), {"leaf_row": k, "spread": float(gaps[k])}


def verify_blowup(original, blown, data: CollapseData) -> dict:
    """Check the eight defining properties of a Denjoy blowup at grid
    resolution.  Report-only: every property yields a defect and a pass flag,
    with a witness on failure."""
    pairs = _verify_pairs(original, blown)
    rows = []

    def add(num, label, defect, witness=None):
        row = {"property": num, "label": label, "defect": float(defect),
               "pass": bool(defect <= COMPARISON_TOL)}
        if witness is not None and not row["pass"]:
            row["witness"] = witness
        rows.append(row)

    # (1) transversality: blown leaves strictly monotone along the flow
    defect, wit = 0.0, None
    for key, (_orig, fam) in pairs.items():
        slack = float(np.min(np.diff(fam.values, axis=0)))
        bad = 0.0 if slack > 0.0 else max(-slack, 10.0 * SOLVER_TOL)
        if bad > defect:
            defect, wit = bad, {"box": key, "min_step": slack}
    add(1, "blown leaves transverse to the flow (strictly monotone)",
        defect, wit)

    # (2) the injection maps L x (0,1) onto disjoint open gaps
    gaps = data.gaps()
    defect, wit = 0.0, None
    for i, (lo, hi) in enumerate(gaps):
        bad = max(0.0 - lo, hi - 1.0, lo - hi)
        if bad > defect:
            defect, wit = bad, {"gap": i}
    for i, ((_l1, h1), (l2, _h2)) in enumerate(zip(gaps, gaps[1:])):
        if h1 > l2 and h1 - l2 > defect:
            defect, wit = h1 - l2, {"gap": i + 1}
    add(2, "packet injection lands in disjoint gaps inside (0, 1)",
        defect, wit)

    # (3) each packet fiber {p} x I stays inside one flow line
    defect, wit = 0.0, None
    us = np.linspace(0.0, 1.0, 9)
    for i, (lo, hi) in enumerate(gaps):
        img = data.inject(i, us)
        bad = max(float(lo - img.min()), float(img.max() - hi),
                  float(np.max(-np.diff(img))) if img.size > 1 else 0.0)
        if bad > defect:
            defect, wit = bad, {"gap": i}
    add(3, "injection is fiberwise monotone into its own gap", defect, wit)

    # (4) packet boundary graphs are leaves of the blown foliation
    defect, wit = 0.0, None
    for key, (_orig, fam) in pairs.items():
        for i, (lo, hi) in enumerate(gaps):
            walls = fam.leaves_at(np.array([lo, hi]))
            bad = max(float(np.max(np.abs(walls[0] - lo))),
                      float(np.max(np.abs(walls[1] - hi))))
            if bad > defect:
                defect, wit = bad, {"box": key, "gap": i}
    add(4, "gap boundary graphs are leaves of the blown family", defect, wit)

    # (5) preimages: points off the locus, whole gaps on it
    defect, wit = 0.0, None
    collapse, points = data.collapse, data.schedule.points
    for z, (lo, hi) in zip(points, gaps):
        pre = collapse.preimage(z)
        bad = (max(abs(pre[0] - lo), abs(pre[1] - hi))
               if isinstance(pre, tuple) else 1.0)
        if bad > defect:
            defect, wit = bad, {"point": z}
    pts = np.array(points) if points else np.empty(0)
    for key, (orig, _fam) in pairs.items():
        off = orig.t[(np.min(np.abs(orig.t[:, None] - pts[None, :]), axis=1)
                      > 1e-6)] if pts.size else orig.t
        for z in off:
            pre = collapse.preimage(float(z))
            if isinstance(pre, tuple):
                defect, wit = max(defect, pre[1] - pre[0]), {"box": key,
                                                             "point": float(z)}
            else:
                bad = abs(float(collapse(pre)) - float(z))
                if bad > defect:
                    defect, wit = bad, {"box": key, "point": float(z)}
    add(5, "preimage is a point off the locus and the whole gap on it",
        defect, wit)

    # (6) the collapse maps blown leaves onto single original leaves
    defect, wit = 0.0, None
    for key, (orig, fam) in pairs.items():
        collapsed = data.pi(fam.values)
        spread, local = _leaf_membership_spread(orig, collapsed)
        if spread > defect:
            defect, wit = spread, {"box": key, **local}
    add(6, "collapse sends each blown leaf onto one original leaf",
        defect, wit)

    # (7) leafwise derivative stability under grid coarsening (diagnostic)
    defect, wit = 0.0, None
    for key, (_orig, fam) in pairs.items():
        if fam.base.nx < 5 or fam.base.nx % 2 == 0 or fam.base.ny % 2 == 0:
            continue
        collapsed = data.pi(fam.values)
        dx = 1.0 / (fam.base.nx - 1)
        g_full = np.gradient(collapsed, dx, axis=1)[:, ::2, ::2]
        g_half = np.gradient(collapsed[:, ::2, ::2], 2.0 * dx, axis=1)
        bad = float(np.max(np.abs(g_full - g_half)))
        if bad > defect:
            defect, wit = bad, {"box": key}
    add(7, "leafwise derivative stable under grid coarsening (diagnostic)",
        defect, wit)

    # (8) straight-line isotopy: identity at 0, collapse at 1, monotone
    zs = np.linspace(0.0, 1.0, 257)
    id_defect = float(np.max(np.abs(data.pi_t(0.0, zs) - zs)))
    end_defect = float(np.max(np.abs(data.pi_t(1.0, zs) - collapse(zs))))
    mono = 0.0
    for s in (0.25, 0.5, 0.75, 1.0):
        mono = max(mono, -float(np.min(np.diff(data.pi_t(s, zs)))))
    add(8, "collapse is the time-one map of a monotone straight-line isotopy",
        max(id_defect, end_defect, mono))

    worst = max(r["defect"] for r in rows)
    return {"operation": "verify_blowup", "tolerance": COMPARISON_TOL,
            "properties": rows, "max_defect": worst,
            "all_pass": all(r["pass"] for r in rows)}


# ------------------------------------------------------------ circle shadow


@dataclass(frozen=True)
class CircleMapLift:
    """Sampled strictly increasing lift of a circle map.

    inputs are breakpoints in [0, 1); outputs are the lifted values.  The
    map commutes with integer translation by construction: evaluation splits
    off the integer part before interpolating.
    """

    inputs: np.ndarray
    outputs: np.ndarray

    def __post_init__(self):
        xs = np.asarray(self.inputs, dtype=float)
        ys = np.asarray(self.outputs, dtype=float)
        object.__setattr__(self, "inputs", xs)
        object.__setattr__(self, "outputs", ys)
        if xs.shape != ys.shape or xs.ndim != 1 or xs.size < 2:
            raise ValueError("malformed lift samples")
        if xs[0] < 0.0 or xs[-1] >= 1.0:
            raise ValueError("breakpoints must lie in [0, 1)")
        if not (np.all(np.diff(xs) > 0.0) and np.all(np.diff(ys) > 0.0)):
            raise ValueError("lift must be strictly increasing")
        if ys[-1] - ys[0] >= 1.0:
            raise ValueError("lift must rise by less than one per period")
        # periodic extension used by evaluation
        ex = np.concatenate([[xs[-1] - 1.0], xs, [xs[0] + 1.0]])
        ey = np.concatenate([[ys[-1] - 1.0], ys, [ys[0] + 1.0]])
        object.__setattr__(self, "_ex", ex)
        object.__setattr__(self, "_ey", ey)
        object.__setattr__(self, "_ex_list", ex.tolist())
        object.__setattr__(self, "_ey_list", ey.tolist())

    def __call__(self, x):
        if type(x) is float and math.isfinite(x):
            # np.interp's own arithmetic on one value, without the array
            # round trip; x // 1.0 is np.floor, signed zero included.  u
            # lies in [0, 1], inside the periodic extension, so of
            # np.interp's edge cases only the last breakpoint can occur
            k = x // 1.0
            u = x - k
            ex, ey = self._ex_list, self._ey_list
            j = bisect_right(ex, u) - 1
            if j == len(ex) - 1 or ex[j] == u:
                return ey[j] + k
            return ((ey[j + 1] - ey[j]) / (ex[j + 1] - ex[j]) * (u - ex[j])
                    + ey[j] + k)
        x = np.asarray(x, dtype=float)
        k = np.floor(x)
        return np.interp(x - k, self._ex, self._ey) + k


def circle_orbit(lift: CircleMapLift, iterations: int) -> list:
    """The lift's orbit of x0 = 0: [h(0), h^2(0), ..., h^n(0)] as floats."""
    x = 0.0
    orbit = []
    for _ in range(int(iterations)):
        x = float(lift(x))
        orbit.append(x)
    return orbit


def birkhoff_estimate(orbit: list, report: dict | None = None) -> float:
    """Birkhoff average h^n(0)/n of the lift displacement over an orbit of
    0 as circle_orbit returns it.

    The change in the running estimate over the final step is reported as an
    error proxy; it bounds nothing but tracks the averaging tail.
    """
    n = len(orbit)
    if n < 2:
        raise ValueError("a Birkhoff estimate needs at least two iterates")
    estimate = orbit[-1] / n
    prev = orbit[-2] / (n - 1)
    if report is not None:
        report.update({
            "operation": "rotation_number",
            "iterations": n,
            "estimate": estimate,
            "error_proxy": abs(estimate - prev),
        })
    return estimate


def rotation_number(lift: CircleMapLift, iterations: int,
                    report: dict | None = None) -> float:
    """Birkhoff average h^n(0)/n over n >= 1000 iterates of the lift."""
    n = int(iterations)
    if n < 1000:
        raise ValueError("rotation number needs at least 1000 iterations")
    return birkhoff_estimate(circle_orbit(lift, n), report=report)


def blowup_circle_map(alpha: float, orbit_length: int,
                      report: dict | None = None) -> CircleMapLift:
    """Denjoy blowup of a rigid rotation along a finite orbit segment.

    Opens a gap at each orbit point frac(k*alpha), |k| <= N, with weight
    1/(k^2+1), rescales the circle back to length one, and returns the
    piecewise-affine lift that maps the gap at orbit index k onto the gap at
    k+1 for k < N and interpolates affinely elsewhere.
    """
    n = int(orbit_length)
    if n < 100:
        raise ValueError("orbit segment must contain at least 100 points")
    alpha = float(alpha)
    ks = np.arange(-n, n + 1)
    orbit = np.mod(ks * alpha, 1.0)
    w = 1.0 / (ks * ks + 1.0)
    order = np.argsort(orbit)
    sorted_pts = orbit[order]
    if np.min(np.diff(sorted_pts)) <= 1e-12:
        raise ValueError("orbit points collide; alpha must be irrational "
                         "(far from low rationals at this length)")
    total = float(np.sum(w))
    # blown coordinate of each gap: original position plus all inserted
    # weight strictly below it, rescaled to unit total length
    below = np.zeros(ks.size)
    below[order] = np.concatenate([[0.0], np.cumsum(w[order])[:-1]])
    gap_lo = (orbit + below) / (1.0 + total)
    gap_hi = (orbit + below + w) / (1.0 + total)

    idx = {int(k): i for i, k in enumerate(ks)}
    src = [int(k) for k in ks if int(k) < n]
    xs = np.concatenate([[gap_lo[idx[k]], gap_hi[idx[k]]] for k in src])
    ys = np.concatenate([[gap_lo[idx[k + 1]], gap_hi[idx[k + 1]]]
                         for k in src])
    order2 = np.argsort(xs)
    xs, ys = xs[order2], ys[order2]
    # unroll the image values into a monotone lift
    lift_y = ys.copy()
    for i in range(1, lift_y.size):
        while lift_y[i] <= lift_y[i - 1]:
            lift_y[i] += 1.0
    if lift_y[-1] - lift_y[0] >= 1.0:
        raise ValueError("gap images wrap more than once; orbit too coarse")
    if report is not None:
        report.update({
            "operation": "blowup_circle_map",
            "alpha": alpha,
            "orbit_length": n,
            "total_weight": total,
            "gaps": {str(int(k)): [float(gap_lo[idx[int(k)]]),
                                   float(gap_hi[idx[int(k)]])]
                     for k in ks},
        })
    return CircleMapLift(xs, lift_y)


def wandering_audit(lift: CircleMapLift, gaps, steps: int) -> dict:
    """Iterate every gap interval under the lift and look for a return onto
    itself (open-interval overlap on the circle).

    Zero revisits certifies wandering behavior at this finite horizon,
    nothing more; the truncated tail of the orbit is not blown up and an
    interval can in principle leak through it at longer horizons.

    The gaps are iterated in cyclic order: sorted by lower end, with the
    endpoints interleaved into one array, which is sorted when the gaps are
    disjoint.
    A degree-1 lift preserves cyclic order, so every iterate reduced mod 1
    is a rotated sorted array, on which np.interp's guessed search is cheap.
    np.interp gives each query the same value in any order, so the order
    buys speed only; first_revisit names gaps in the caller's order.
    """
    gaps = [(float(lo), float(hi)) for lo, hi in gaps]
    lo0 = np.array([g[0] for g in gaps])
    hi0 = np.array([g[1] for g in gaps])
    if np.any(hi0 <= lo0):
        raise ValueError("gap intervals must have positive length")
    order = np.argsort(lo0)
    lo0, hi0 = lo0[order], hi0[order]
    cur = np.column_stack([lo0, hi0]).ravel()
    revisits, first = 0, None
    for step in range(1, int(steps) + 1):
        cur = lift(cur)
        frac = cur - np.floor(cur)
        f_lo, f_hi = frac[0::2], frac[1::2]
        plain = f_lo <= f_hi
        hit = np.where(plain,
                       np.minimum(f_hi, hi0) > np.maximum(f_lo, lo0),
                       (f_lo < hi0) | (f_hi > lo0))
        k = int(np.count_nonzero(hit))
        if k and first is None:
            first = {"step": step, "gap": int(order[hit].min())}
        revisits += k
    return {"operation": "wandering_audit", "steps": int(steps),
            "gaps": len(gaps), "revisits": revisits,
            "wandering": revisits == 0, "first_revisit": first}
