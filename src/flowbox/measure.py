"""Transverse measures on product foliations and Tischler approximation.

A transverse measure lives on the vertical fibers of a flow box.  We store
its cumulative function on the box's anchor fiber; the measure of an arc on
any other fiber is read through the family's own leaf structure, so holonomy
invariance is the statement that the stored cumulatives of neighboring boxes
induce the same arc measures on shared faces.
"""

from dataclasses import dataclass
from fractions import Fraction
import math

import numpy as np
from scipy.interpolate import PchipInterpolator

from .decomposition import (
    DecompositionComplex,
    shared_faces,
    side_nodes,
    validate,  # unused; the bench tracer's alias test checks it
)
from .foliation import (
    HolonomyMap,
    SOLVER_TOL,
    fiber_map,
    fiber_transports,
    interp_columns,
    inverse_interp_columns,
    merged_grid,
    node_columns,
)
from .kernel import stage

INVARIANCE_PRE_TOL = 1e-6
INVARIANCE_POST_TOL = 1e-9


@dataclass(frozen=True)
class TransverseMeasure:
    """Cumulative transverse measure along the fiber coordinate.

    totals[k] is the measure of [0, heights[k]] on the reference fiber;
    between samples the cumulative interpolates linearly.  Strict increase
    encodes non-degeneracy (positive measure on every open interval).
    """

    heights: np.ndarray
    totals: np.ndarray

    def __post_init__(self):
        heights = np.asarray(self.heights, dtype=float).copy()
        totals = np.asarray(self.totals, dtype=float).copy()
        object.__setattr__(self, "heights", heights)
        object.__setattr__(self, "totals", totals)
        if heights.ndim != 1 or heights.shape != totals.shape \
                or heights.size < 2:
            raise ValueError("need matching 1-d sample arrays, at least 2")
        if not (np.isfinite(heights).all() and np.isfinite(totals).all()):
            raise ValueError("measure samples must be finite")
        if heights[0] != 0.0 or heights[-1] != 1.0:
            raise ValueError("fiber samples must run exactly from 0 to 1")
        if totals[0] != 0.0:
            raise ValueError("cumulative must start at exactly 0")
        if np.any(np.diff(heights) <= 0.0):
            raise ValueError("fiber samples must be strictly increasing")
        if np.any(np.diff(totals) <= 0.0):
            raise ValueError("cumulative must be strictly increasing")

    def __call__(self, z):
        zs = np.asarray(z, dtype=float)
        if zs.size and (zs.min() < -SOLVER_TOL or zs.max() > 1.0 + SOLVER_TOL):
            raise ValueError("fiber coordinate outside [0, 1]")
        out = np.interp(zs, self.heights, self.totals)
        return float(out) if np.isscalar(z) or zs.ndim == 0 else out

    @classmethod
    def lebesgue(cls, samples: int = 33) -> "TransverseMeasure":
        grid = np.linspace(0.0, 1.0, int(samples))
        return cls(grid, grid.copy())

    def to_json(self) -> dict:
        return {"heights": self.heights.tolist(),
                "totals": self.totals.tolist()}

    @classmethod
    def from_json(cls, data: dict) -> "TransverseMeasure":
        return cls(np.asarray(data["heights"], dtype=float),
                   np.asarray(data["totals"], dtype=float))


def smooth_measure_on_transversal(mu: TransverseMeasure, subsample_count: int,
                                  report: dict | None = None):
    """Smooth a fiber measure: returns (reparametrization f, new measure).

    h is the sampled cumulative, g the monotone cubic spline through h at
    uniform subsample nodes (endpoints are nodes, so g matches h there), and
    f = h^-1 o g.  The new cumulative is g itself sampled on the refined
    grid: mu'([0, t]) = mu([0, f(t)]) = h(h^-1(g(t))).
    """
    if int(subsample_count) != subsample_count or subsample_count < 4:
        raise ValueError("need at least 4 subsample nodes")
    if np.any(np.diff(mu.totals) <= 0.0):
        raise ValueError("cumulative must be strictly increasing")
    nodes = np.linspace(0.0, 1.0, int(subsample_count))
    spline = PchipInterpolator(nodes, mu(nodes))
    grid = merged_grid(mu.heights, nodes)
    g_vals = np.asarray(spline(grid), dtype=float)
    if np.any(np.diff(g_vals) <= 0.0):
        raise ValueError("spline lost strict monotonicity; refine subsamples")
    f_vals = np.interp(g_vals, mu.totals, mu.heights)
    f_vals[0], f_vals[-1] = 0.0, 1.0
    f = HolonomyMap(grid, f_vals)
    smoothed = TransverseMeasure(grid, g_vals)
    if report is not None:
        node_residual = float(np.abs(smoothed(nodes) - spline(nodes)).max())
        report.update({"operation": "smooth_measure_on_transversal",
                       "subsample_count": int(subsample_count),
                       "node_residual": node_residual,
                       "reparametrization_defect": f.identity_defect()})
    return f, smoothed


@dataclass(frozen=True, eq=False)
class MeasuredScene:
    """A decomposition together with one transverse measure per box,
    each stored on that box's anchor fiber."""

    scene: DecompositionComplex
    measures: dict

    def __post_init__(self):
        object.__setattr__(self, "measures", dict(self.measures))
        idents = {b.identifier for b in self.scene.boxes}
        if set(self.measures) != idents:
            raise ValueError("need exactly one measure per box")
        for name, mu in self.measures.items():
            if not isinstance(mu, TransverseMeasure):
                raise ValueError(f"box {name}: not a transverse measure")

    def measure(self, identifier: str) -> TransverseMeasure:
        return self.measures[identifier]


def scene_invariance_defect(measured: MeasuredScene,
                            report: dict | None = None) -> float:
    """Worst disagreement, over shared faces and their fiber columns,
    between the arc measures the two owning boxes induce.

    Each face is checked in one pass over its node columns.  On a column,
    both boxes' cumulatives are read through their inverse fiber maps at
    the images of both measures' breakpoints and at both fibers' leaf
    heights, which include 0 and 1; the column's defect is max - min of
    the difference, which needs neither sorted nor deduplicated heights.
    """
    rows = []
    worst = 0.0
    for axis, pos, (id_a, side_a), (id_b, side_b) in \
            shared_faces(measured.scene):
        fam_a = measured.scene.box(id_a).family
        fam_b = measured.scene.box(id_b).family
        mu_a = measured.measure(id_a)
        mu_b = measured.measure(id_b)
        nodes_a = side_nodes(fam_a.base, side_a)
        nodes_b = side_nodes(fam_b.base, side_b)
        if len(nodes_a) != len(nodes_b):
            raise ValueError(f"face {axis}={pos}: sides sampled differently")
        cols_a = node_columns(fam_a, nodes_a)
        cols_b = node_columns(fam_b, nodes_b)
        heights = np.concatenate([
            interp_columns(mu_a.heights, fam_a.t, cols_a),
            interp_columns(mu_b.heights, fam_b.t, cols_b),
            cols_a, cols_b])
        diff = (mu_a(inverse_interp_columns(heights, cols_a, fam_a.t))
                - mu_b(inverse_interp_columns(heights, cols_b, fam_b.t)))
        defect = float((diff.max(axis=0) - diff.min(axis=0)).max())
        worst = max(worst, defect)
        rows.append({"face": f"{axis}={pos}", "owners": [id_a, id_b],
                     "defect": defect})
    if report is not None:
        report.update({"operation": "scene_invariance_defect",
                       "rows": rows, "defect": worst})
    return worst


def _propagation_chain(face, scene, source, target) -> HolonomyMap:
    """Reference-fiber change of coordinates across one shared face.

    The new cumulative of the target must induce the source's arc measures
    on the face, which pins M_target = M_source o chain with
    chain = E_source^-1 o E_target at any face column; invariance of the
    input makes the column choice immaterial, so the first column is used.
    """
    axis, pos, owner_a, owner_b = face
    sides = {owner_a[0]: owner_a[1], owner_b[0]: owner_b[1]}
    fam_s = scene.box(source).family
    fam_t = scene.box(target).family
    e_s = fiber_map(fam_s, side_nodes(fam_s.base, sides[source])[0])
    e_t = fiber_map(fam_t, side_nodes(fam_t.base, sides[target])[0])
    return e_s.inverse().compose(e_t)


def smooth_measured_scene(measured: MeasuredScene, subsample_count: int = 9,
                          report: dict | None = None) -> MeasuredScene:
    """Replace the scene's measure by one with smooth cumulatives.

    Pipeline: smooth the root box's cumulative along its anchor
    transversal (the spline interpolates its end values, so the
    horizontal-boundary values stay pinned), transport the smoothed
    cumulative across maximal faces (holonomy preserves the measure, so
    transport is composition with the face's change of reference fiber),
    and extend into box interiors by fiber pushforward, recording the
    extension residual.  Leaves are never touched: on product boxes the
    reparametrization isotopy re-anchors each family to itself.
    """
    scene = measured.scene
    if not scene.validation["valid"]:
        raise ValueError("scene fails validation; fix the decomposition first")
    stages = []
    with stage(stages, "invariance pre-check") as row:
        pre = scene_invariance_defect(measured)
        row["defect"] = pre
        if pre > INVARIANCE_PRE_TOL:
            raise ValueError(
                f"measure invariance defect {pre:.3e} exceeds "
                f"{INVARIANCE_PRE_TOL:g}; not an invariant measure")

    order = sorted(b.identifier for b in scene.boxes)
    root = order[0]
    with stage(stages, "vertical-skeleton smoothing") as row:
        f_root, mu_root = smooth_measure_on_transversal(
            measured.measure(root), subsample_count)
        row.update({"root": root,
                    "reparametrization_defect": f_root.identity_defect()})
    smoothed = {root: mu_root}

    with stage(stages, "maximal-face transport") as row:
        faces = shared_faces(scene)
        adjacency = {}
        for face in faces:
            _, _, (id_a, _), (id_b, _) = face
            adjacency.setdefault(id_a, []).append((id_b, face))
            adjacency.setdefault(id_b, []).append((id_a, face))
        tree_edges = []
        queue = [root]
        while queue:
            current = queue.pop(0)
            for neighbor, face in adjacency.get(current, ()):
                if neighbor in smoothed:
                    continue
                chain = _propagation_chain(face, scene, current, neighbor)
                if chain.identity_defect() <= SOLVER_TOL:
                    smoothed[neighbor] = smoothed[current]
                else:
                    mu_c = smoothed[current]
                    grid = merged_grid(chain.inputs,
                                       chain.inverse()(mu_c.heights))
                    smoothed[neighbor] = TransverseMeasure(
                        grid, mu_c(chain(grid)))
                tree_edges.append([current, neighbor])
                queue.append(neighbor)
        for name in order:
            if name not in smoothed:
                _, smoothed[name] = smooth_measure_on_transversal(
                    measured.measure(name), subsample_count)
        result = MeasuredScene(scene, smoothed)
        loop_defect = scene_invariance_defect(result)
        if loop_defect > INVARIANCE_POST_TOL:
            raise RuntimeError(
                f"smoothed measure defect {loop_defect:.3e} exceeds "
                f"{INVARIANCE_POST_TOL:g}")
        row.update({"tree_edges": tree_edges, "loop_defect": loop_defect})

    with stage(stages, "interior cone extension") as row:
        residual = 0.0
        for box in scene.boxes:
            fam = box.family
            mu_new = smoothed[box.identifier]
            iy = fam.base.ny // 2
            nodes = [(0, iy)] + [(ix, iy) for ix in
                                 sorted({1, fam.base.nx // 2, fam.base.nx - 2})
                                 if 0 < ix < fam.base.nx - 1]
            e_0j = fiber_map(fam, nodes[0])
            for node, trans in zip(nodes[1:], fiber_transports(fam, nodes)):
                e_ij = fiber_map(fam, node)
                grid = merged_grid(e_ij.outputs, trans.outputs)
                direct = mu_new(e_ij.inverse()(grid))
                via_edge = mu_new(e_0j.inverse()(trans.inverse()(grid)))
                residual = max(residual,
                               float(np.abs(direct - via_edge).max()))
        row["residual"] = residual

    if report is not None:
        report.update({"operation": "smooth_measured_scene",
                       "subsample_count": int(subsample_count),
                       "root": root, "pre_defect": pre,
                       "post_defect": loop_defect, "stages": stages})
    return result


def _as_exact(value):
    """Exact rational content of a coefficient, or None for floats."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    return None


@dataclass(frozen=True)
class ClosedOneForm:
    """Constant-coefficient closed 1-form on T^2 or T^3.

    Coefficients may be ints, Fractions (exact) or floats; the kernel field
    is the orthogonal line/plane field, so angles between kernels equal
    angles between coefficient vectors.
    """

    coefficients: tuple

    def __post_init__(self):
        coeffs = tuple(self.coefficients)
        object.__setattr__(self, "coefficients", coeffs)
        if len(coeffs) not in (2, 3):
            raise ValueError("need 2 (torus) or 3 (T^3) coefficients")
        # the convergent ladder and the angle work on floats: a coefficient
        # or a ratio to the lead that overflows one has no kernel to compare
        try:
            values = [float(c) for c in coeffs]
        except OverflowError:
            values = [math.inf]
        lead = next((v for v in values if v != 0.0), None)
        if lead is None:
            raise ValueError("coefficient vector must be nonzero")
        if not all(math.isfinite(v) and math.isfinite(v / lead)
                   for v in values):
            raise ValueError("coefficients and their ratios to the first "
                             "nonzero coefficient must be finite floats")

    @property
    def is_rational(self) -> bool:
        return all(_as_exact(c) is not None for c in self.coefficients)

    def angle_to(self, other: "ClosedOneForm") -> float:
        """Unoriented angle between the two kernel fields, in radians.

        atan2 of the cross and dot products of the coefficient vectors, each
        scaled by its largest magnitude: precise at small angles, where an
        arccos of the dot bottoms out near 1.5e-8, and free of the overflow
        a Euclidean norm meets above about 1e154.
        """
        u, v = np.zeros(3), np.zeros(3)
        for w, form in ((u, self), (v, other)):
            w[:len(form.coefficients)] = [float(c) for c in form.coefficients]
            w /= np.abs(w).max()
        cross = float(np.linalg.norm(np.cross(u, v)))
        return math.atan2(cross, abs(float(np.dot(u, v))))


def _convergents(value: float) -> list:
    """Continued-fraction convergents of a float, as exact fractions.

    The expansion terminates at the float's own rational value, so the
    last convergent reproduces the input exactly.
    """
    exact = Fraction(value)
    out = []
    h_prev, h = 1, int(math.floor(value))
    k_prev, k = 0, 1
    out.append(Fraction(h, k))
    rest = exact - h
    while rest != 0:
        rest = 1 / rest
        a = int(math.floor(rest))
        rest -= a
        h_prev, h = h, a * h + h_prev
        k_prev, k = k, a * k + k_prev
        out.append(Fraction(h, k))
    return out


def _strip_certificate(ratios) -> dict:
    """Exact first-return data of the rational linear foliation.

    Crossing one fundamental strip advances the fiber coordinates by the
    ratios mod 1; with q the lcm of their denominators the orbit closes
    after exactly q strips and visits q distinct points.  Above the listing
    cap the orbit enumeration is dropped and both certificate booleans come
    from the same exact divisibility arithmetic.
    """
    q = 1
    for r in ratios:
        q = q * r.denominator // math.gcd(q, r.denominator)
    closes = all(Fraction(q) * r % 1 == 0 for r in ratios)
    if q > 10000:
        # a return at k < q would force every denominator to divide k
        return {"period": q, "closes_exactly": closes,
                "distinct_before_return": True, "orbit": None}
    orbit = []
    seen = set()
    distinct = True
    for k in range(q):
        point = tuple(Fraction(k) * r % 1 for r in ratios)
        if point in seen:
            distinct = False
        seen.add(point)
        orbit.append([str(c) for c in point])
    return {"period": q, "closes_exactly": closes,
            "distinct_before_return": distinct, "orbit": orbit}


def tischler_fibration(form: ClosedOneForm, epsilon: float,
                       report: dict | None = None):
    """Approximate a linear measured foliation by a fibration over S^1.

    Walks the joint continued-fraction convergents of the coefficient
    ratios and returns the first (hence minimal-denominator) rational form
    whose kernel line field deviates from the input by less than epsilon,
    with epsilon read as a half-angle tolerance between unoriented kernel
    fields (accepted full angle < 2 epsilon).  A rational input is returned
    unchanged.  Fibration data is the exact integer strip-walk certificate.
    """
    if not epsilon > 0.0:
        raise ValueError("epsilon must be positive")
    coeffs = form.coefficients
    if form.is_rational:
        rational = form
        defect = 0.0
    else:
        lead_index = next(i for i, c in enumerate(coeffs)
                          if float(c) != 0.0)
        lead = float(coeffs[lead_index])
        lead_exact = _as_exact(coeffs[lead_index])
        ladders = []
        for i, c in enumerate(coeffs):
            exact = _as_exact(c)
            if i == lead_index:
                ladders.append([Fraction(1)])
            elif exact is not None and lead_exact is not None:
                ladders.append([exact / lead_exact])
            else:
                ladders.append(_convergents(float(c) / lead))
        rational = None
        for step in range(max(len(l) for l in ladders)):
            candidate = ClosedOneForm(tuple(
                ladder[min(step, len(ladder) - 1)] for ladder in ladders))
            defect = form.angle_to(candidate)
            if defect < 2.0 * epsilon:
                rational = candidate
                break
        if rational is None:
            raise RuntimeError("convergent ladder exhausted before the bound")
    lead_index = next(i for i, c in enumerate(rational.coefficients)
                      if float(c) != 0.0)
    lead = _as_exact(rational.coefficients[lead_index])
    ratios = [_as_exact(c) / lead for c in rational.coefficients]
    fibration = _strip_certificate(ratios)
    if report is not None:
        report.update({
            "operation": "tischler_fibration",
            "input": [str(c) if _as_exact(c) is not None else float(c)
                      for c in coeffs],
            "convergent": [str(c) for c in rational.coefficients],
            "angle_defect": defect,
            "period": fibration["period"]})
    return rational, fibration
