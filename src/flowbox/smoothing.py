"""Smoothing and extension operators on leaf families.

Interpolation smoothing in the leaf index, damped blending,
holonomy-constrained smoothing and damped coning, plus the scene-level
pipeline that glues the per-box operators across a flow box decomposition.
Every neighbourhood the stages damp toward (horizontal-edge bands, corner
squares, face strips, box interiors) is weighted by a product of one-axis
damped indicators, _axis_weight.
Every operator's output is defined by a closed convex-combination formula
evaluated at grid nodes.  Smoothing in the leaf index returns the input's
leaves at the partition points; its formula is the piecewise-linear
interpolation between those cut leaves.  Compliance is checked, not
assumed, and C0 budgets are measured with retry rather than derived from a
priori constants.
"""

from __future__ import annotations

from fractions import Fraction
from functools import reduce

import numpy as np

from .decomposition import (
    DecompositionComplex,
    face_columns,
    shared_faces,
    side_columns,
    side_transport_gap,
    validate,  # unused; the bench tracer's alias test checks it
    with_families,
)
from .foliation import (
    BaseDomain,
    HolonomyMap,
    LeafFamily,
    c0_distance,
    holonomy,
    merged_grid,
    shared_result,
    tangent_field,
)
from .kernel import (
    COMPARISON_TOL,
    FACE_COMPAT_TOL,
    LadderError,
    Partition,
    choose_partition,
    halving_ladder,
    smooth_ramp,
    stage,
)


# ----------------------------------------------------------------- regions

def _axis_weight(u: np.ndarray, lo_in, hi_in, lo_out, hi_out) -> np.ndarray:
    """Damped indicator of [lo_in, hi_in] along one axis: exactly 1 on it,
    exactly 0 outside [lo_out, hi_out], smooth_ramp of the fraction of the
    margin crossed in between.  An end without margin (lo_out == lo_in or
    hi_out == hi_in) does not decay.  Every neighbourhood weight of the
    smoothing stages is this function of x times this function of y."""
    w = np.ones_like(u)
    if lo_out < lo_in:
        left = u < lo_in
        w = np.where(left, smooth_ramp((u - lo_out) / (lo_in - lo_out)), w)
    if hi_out > hi_in:
        right = u > hi_in
        w = np.minimum(w, np.where(
            right, smooth_ramp((hi_out - u) / (hi_out - hi_in)),
            np.ones_like(u)))
    return w


def damped_blend(f: LeafFamily, g: LeafFamily, weight) -> LeafFamily:
    """Leaves f + weight*(g - f) on f's own leaf indices.

    The weight broadcasts against (len(f.t), nx, ny) leaf grids.  Grid
    values where it is exactly zero are f's values, and f's anchor column
    is pinned to f.t, which g's interpolated leaves can miss by an ulp.
    Every pipeline's g is f cut or blended, whose indices are some of f's.
    """
    vals = f.values + weight * (g.leaves_at(f.t) - f.values)
    vals[:, f.anchor[0], f.anchor[1]] = f.t
    return LeafFamily(f.base, f.t, vals, f.anchor)


# ------------------------------------------------------------- smooth_in_t

def _formula_smooth(family: LeafFamily, partition: Partition) -> LeafFamily:
    """Convex-combination smoothing over the partition cells: the input's
    leaves at the partition points and nothing else.

    LeafFamily is linear in t between samples, so at index s inside a cell
    [a, b] the output leaf is f_a + (s-a)/(b-a) * (f_b - f_a), the
    piecewise-linear interpolation between the cut leaves.  Anchoring fixes
    which leaf carries index s, so samples inside a cell would only repeat
    this family.
    """
    pts = np.asarray(partition.points)
    cut_idx = np.searchsorted(family.t, pts)
    if np.max(np.abs(family.t[cut_idx] - pts)) > 0:
        raise ValueError("partition points must be sampled leaf indices")
    return LeafFamily(family.base, family.t[cut_idx], family.values[cut_idx],
                      family.anchor)


def formula_residual(original: LeafFamily, smoothed: LeafFamily,
                     partition: Partition) -> float:
    """Max node residual of the defining convex-combination formula.

    The smoothed family is evaluated at every input leaf index s; in a cell
    [a, b] of the partition its leaf grid must equal
    f_a + (s-a)/(b-a) * (f_b - f_a), the piecewise-linear interpolation
    between the input's cut leaves.
    """
    t = original.t
    pts = np.asarray(partition.points)
    cut_idx = np.searchsorted(t, pts)
    c = np.clip(np.searchsorted(pts, t, side="right") - 1, 0, pts.size - 2)
    a_i, b_i = cut_idx[c], cut_idx[c + 1]
    lam = (t - t[a_i]) / (t[b_i] - t[a_i])
    fa = original.values[a_i]
    expected = fa + lam[:, None, None] * (original.values[b_i] - fa)
    return float(np.max(np.abs(smoothed.leaves_at(t) - expected)))


def smooth_in_t(family: LeafFamily, epsilon: float,
                report: dict | None = None) -> LeafFamily:
    """Partitioned smoothing in the leaf index.

    Chooses a tangent-angle partition and returns the input's leaves at the
    partition points, whose piecewise-linear interpolation in t is the
    convex-combination formula on each cell; measures the C0 distance to the
    input, and retries with a halved angle budget until the requested
    epsilon is met.  The output's leaves are bit-identical to the input's.
    """
    if epsilon <= 0.0:
        raise ValueError("epsilon must be positive")
    normals = tangent_field(family).reshape(family.m, -1, 3)

    def attempt(scale):
        try:
            part = choose_partition(family.t, normals, epsilon * scale)
        except ValueError:
            # budget finer than the sampling can certify: the finest
            # partition keeps every sample, reproducing the input exactly
            part = Partition(tuple(family.t.tolist()))
        out = _formula_smooth(family, part)
        achieved = c0_distance(family, out)
        fields = {"operation": "smooth_in_t", "epsilon": epsilon,
                  "achieved_distance": achieved}
        if report is not None:
            fields["formula_residual"] = formula_residual(family, out, part)
            fields["partition_points"] = list(part.points)
        return out, achieved <= epsilon, fields

    return halving_ladder(
        attempt, report,
        f"could not meet epsilon={epsilon} after {{retries}} retries")


# ------------------------------------------- holonomy-constrained smoothing

def smooth_with_holonomy_constraint(family: LeafFamily, epsilon: float,
                                    bands: tuple = (0.125, 0.375),
                                    report: dict | None = None) -> LeafFamily:
    """Smoothing of a rectangle-based family that preserves the holonomy
    along the core path alpha = {1/2} x [0,1] and is bit-identical to the
    input on neighborhoods of the horizontal edges.

    bands = (inner, outer): the input is kept where y <= inner or
    y >= 1 - inner, the smoothing is written in fully where
    outer <= y <= 1 - outer, and a damped ramp joins the two.  The bands pin
    both end fibers of alpha to the input's leaf heights, and with them the
    holonomy along alpha.  The holonomy is still checked: the returned
    family satisfies rho_G(alpha) = rho_P(alpha) within 1e-9, measured at
    the sampled fibers, with C0 distance at most epsilon.
    """
    base = family.base
    inner, outer = bands
    if not 0.0 < inner < outer < 0.5:
        raise ValueError("bands need 0 < inner < outer < 1/2")
    # weight exactly zero on the bands keeps them bit-identical
    weight = _axis_weight(base.y_nodes, outer, 1.0 - outer, inner,
                          1.0 - inner)[None, None, :]
    # the core path alpha = {1/2} x [0,1]
    alpha = (0.5, 0.0), (0.5, 1.0)
    h_p = holonomy(family, *alpha)

    def attempt(scale):
        smoothed = smooth_in_t(family, epsilon * scale)
        candidate = damped_blend(family, smoothed, weight)
        h_g = holonomy(candidate, *alpha)
        zs = np.linspace(0.0, 1.0, 101)
        hol_defect = float(np.max(np.abs(h_g(zs) - h_p(zs))))
        achieved = c0_distance(family, candidate)
        passed = achieved <= epsilon and hol_defect <= COMPARISON_TOL
        return candidate, passed, {
            "operation": "smooth_with_holonomy_constraint",
            "epsilon": epsilon,
            "achieved_distance": achieved,
            "holonomy_defect": hol_defect,
        }

    return halving_ladder(
        attempt, report,
        f"constrained smoothing missed epsilon={epsilon}")


# ------------------------------------------------------------------ coning

def damped_cone(family: LeafFamily, collar_width: float,
                epsilon: float) -> LeafFamily:
    """Damped coning of a box family toward its own smoothing in t.

    The family is smoothed in t and the smoothing is written in over the box
    interior: fully from 3 * collar_width away from the boundary on, with a
    damped transition across the collar.  Output grid values on the boundary
    frame of width collar_width are bit-identical to the family's.
    """
    if not 0.0 < collar_width < 1.0 / 6.0:
        raise ValueError("collar width must be in (0, 1/6)")
    smoothed = smooth_in_t(family, epsilon)
    c = collar_width
    base = family.base
    wx = _axis_weight(base.x_nodes, 3 * c, 1.0 - 3 * c, c, 1.0 - c)
    wy = _axis_weight(base.y_nodes, 3 * c, 1.0 - 3 * c, c, 1.0 - c)
    return damped_blend(family, smoothed,
                        wx[None, :, None] * wy[None, None, :])


# --------------------------------------------------- scene-level pipeline

def grid_nodes(scene: DecompositionComplex) -> int:
    """Common chart size of a full-height grid scene; raises otherwise.

    The face charts straddle whole sides, so the pipeline needs every box to
    run the full height range, carry one face per side, and share one square
    grid whose node count is 4k+1 (quarter-width corner regions land on
    nodes).
    """
    sizes = set()
    full = (Fraction(0), Fraction(1))
    for box in scene.boxes:
        ident = box.identifier
        if box.heights != full:
            raise ValueError(
                f"box {ident}: global smoothing needs full-height boxes")
        fam = box.family
        if fam.base.nx != fam.base.ny:
            raise ValueError(f"box {ident}: needs a square chart")
        if tuple(fam.anchor) != (0, 0):
            raise ValueError(
                f"box {ident}: family must be anchored at the origin corner")
        for face in box.faces:
            if face.span != box.side_range(face.side):
                raise ValueError(
                    f"box {ident} side {face.side}: subdivided sides are "
                    "not supported by the smoothing pipeline")
        sizes.add(fam.base.nx)
    if len(sizes) != 1:
        raise ValueError("boxes must share a single grid size")
    g = sizes.pop()
    if g < 17 or (g - 1) % 4:
        raise ValueError("face charts need a grid of 4k+1 >= 17 nodes per axis")
    return g


def face_transport_defect(scene: DecompositionComplex,
                          report: dict | None = None) -> float:
    """Sup disagreement between the holonomy transports the two sides of each
    shared face induce along it.

    Transport at a fiber is the leaf-trace map from the span-start corner
    fiber; indexing of the leaf samples is allowed to differ across the face,
    only the traced structure is compared.  Zero means the per-box families
    glue to one foliated interface structure.
    """
    rows = []
    worst = 0.0
    for face in shared_faces(scene):
        axis, pos, (id_a, _), (id_b, _) = face
        _, cols_a, _, cols_b = face_columns(scene, face)
        defect = side_transport_gap(cols_a, cols_b)
        rows.append({"axis": axis, "pos": pos, "boxes": [id_a, id_b],
                     "defect": defect})
        worst = max(worst, defect)
    if report is not None:
        report.update({"operation": "face_transport_defect",
                       "faces": rows, "max_defect": worst})
    return worst


def _corner_fiber_damp(family: LeafFamily, amplitude: float) -> LeafFamily:
    """Damped replacement toward each corner's own fiber.

    Establishes product structure near the vertical edges.  The replacement
    depends on the corner fiber and the local values only, so two boxes whose
    face traces agree keep agreeing: face transports are preserved.  The
    anchor corner's fiber is the index itself, which keeps anchoring exact.
    """
    base = family.base
    vals = family.values
    # along each axis: 1 within 1/16 of the corner, 0 from 1/4 away on
    low, high = (0.0, 1.0 / 16.0, 0.0, 0.25), (15.0 / 16.0, 1.0, 0.75, 1.0)
    for cx, x_lims in ((0, low), (base.nx - 1, high)):
        wx = _axis_weight(base.x_nodes, *x_lims)
        for cy, y_lims in ((0, low), (base.ny - 1, high)):
            wy = _axis_weight(base.y_nodes, *y_lims)
            w = amplitude * (wx[:, None] * wy[None, :])
            fiber = vals[:, cx, cy]
            vals = vals + w[None, :, :] * (fiber[:, None, None] - vals)
    return LeafFamily(base, family.t, vals, family.anchor)


def _face_chart(fam_a: LeafFamily, fam_b: LeafFamily, axis: str, width: int,
                label: str):
    """Straddle chart across a shared face.

    Chart x runs across the face (the seam is the middle column), chart y
    runs along it.  Both halves are reindexed by the leaf height at the
    span-start corner; the W/S-side corner is that box's anchor, so its
    reindexing is the identity and the chart's index set doubles as the
    W/S-side leaf index set.  Returns the chart, the E/N-side box's
    reindexing e_a, the E/N-side indices ta that e_a sends to the chart's,
    and the seam gap.
    """
    e_a = HolonomyMap(fam_a.t,
                      side_columns(fam_a, "E" if axis == "x" else "N")[:, 0])
    zs = merged_grid(e_a.outputs, fam_b.t, tol=1e-10)
    ta = e_a.inverse()(zs)
    if not np.all(np.diff(ta) > 0.0):
        raise RuntimeError(f"{label}: seam reindexing collapsed leaf samples")
    ga = fam_a.leaves_at(ta)
    gb = fam_b.leaves_at(zs)
    if axis == "x":
        slab_a = ga[:, -(width + 1):, :]
        slab_b = gb[:, :width + 1, :]
    else:
        slab_a = np.swapaxes(ga[:, :, -(width + 1):], 1, 2)
        slab_b = np.swapaxes(gb[:, :, :width + 1], 1, 2)
    seam_gap = float(np.max(np.abs(slab_a[:, -1] - slab_b[:, 0])))
    seam = 0.5 * (slab_a[:, -1] + slab_b[:, 0])
    vals = np.concatenate([slab_a[:, :-1], seam[:, None], slab_b[:, 1:]],
                          axis=1)
    vals[:, width, 0] = zs
    base = BaseDomain("rectangle", 2 * width + 1, fam_a.base.ny)
    return LeafFamily(base, zs, vals, (width, 0)), e_a, ta, seam_gap


def _chart_blend(chart: LeafFamily, smoothed: LeafFamily, width: int,
                 amplitude: float) -> LeafFamily:
    """Damped write-in of the smoothed chart: full strength at the seam,
    exactly zero at the chart's outer columns so the paste leaves no seam."""
    du = 0.5 / width
    n_in, n_out = max(1, width // 4), max(3, (3 * width) // 4)
    w = _axis_weight(chart.base.x_nodes,
                     0.5 - n_in * du, 0.5 + n_in * du,
                     0.5 - n_out * du, 0.5 + n_out * du)
    return damped_blend(chart, smoothed, (amplitude * w)[None, :, None])


def _paste(fam: LeafFamily, strips: dict, width: int) -> LeafFamily:
    """The box resampled once, with its face strips written into it.

    strips maps each glued side of the box to (grid, blended, e_a): the box
    leaf indices that the blended face chart covers and, on an E or N side,
    the reindexing e_a that sends them to the chart's.  The box is resampled
    on the merged grid of all its strips, so it carries every chart's
    breakpoints and each seam stays exact.  An E or N side receives the
    chart's first half (columns up to the seam) read at e_a(t), a W or S
    side its second half read at t.  Strips overlap in the corner squares,
    so they are written in the side order E, N, W, S, never in face order.
    """
    sides = [side for side in "ENWS" if side in strips]
    t_new = reduce(merged_grid, [strips[side][0] for side in sides])
    vals = fam.leaves_at(t_new)
    for side in sides:
        _grid, blended, e_a = strips[side]
        # a view whose first grid axis runs across the face: writes go to vals
        across = vals if side in "EW" else np.swapaxes(vals, 1, 2)
        if side in "EN":
            across[:, -(width + 1):] = blended.leaves_at(
                e_a(t_new))[:, :width + 1]
        else:
            across[:, :width + 1] = blended.leaves_at(t_new)[:, width:]
    vals[:, fam.anchor[0], fam.anchor[1]] = t_new
    return LeafFamily(fam.base, t_new, vals, fam.anchor)


def globally_smooth(scene: DecompositionComplex, epsilon: float,
                    report: dict | None = None) -> DecompositionComplex:
    """Glue-respecting smoothing of a full-height grid scene.

    Deterministic stage order: damped replacement toward the corner fibers
    (vertical-edge neighborhoods), holonomy-constrained smoothing of a
    straddle chart over every shared face (both sides then carry literally
    the same face data), and a damped cone over each box interior.  Every
    face chart is read from the face stage's input, and each box is then
    written once: resampled on the merged grid of its strips' leaf indices,
    with its strips written in the side order E, N, W, S.  So the order in
    which the faces come cannot affect the result, and byte-equal boxes
    stay byte-equal.  Every stage's amplitude scales with epsilon, and the
    whole ladder is re-run with halved amplitudes until each box stays
    within epsilon of its input.

    Within one attempt, byte-equal boxes are damped and coned once, byte-
    equal (E/N box, W/S box) pairs along an axis build one face chart,
    byte-equal face charts are smoothed and blended once, and every stage
    row's and box distance's c0_distance runs once per byte-equal
    (before, after) pair; every face still gets its own row and every box
    its own box_distances entry.
    """
    if epsilon <= 0.0:
        raise ValueError("epsilon must be positive")
    grid = grid_nodes(scene)
    width = (grid - 1) // 4
    if not scene.validation["valid"]:
        raise ValueError("globally_smooth requires a valid decomposition")
    pre = {}
    pre_defect = face_transport_defect(scene, report=pre)
    if pre_defect > FACE_COMPAT_TOL:
        bad = [f"{r['axis']}={r['pos']} ({r['boxes'][0]}|{r['boxes'][1]})"
               for r in pre["faces"] if r["defect"] > FACE_COMPAT_TOL]
        raise ValueError(
            f"face holonomy data disagree beyond {FACE_COMPAT_TOL:g} "
            f"(sup defect {pre_defect:.3g}) on: " + ", ".join(bad))
    faces = shared_faces(scene)
    originals = {box.identifier: box.family for box in scene.boxes}
    order = [box.identifier for box in scene.boxes]

    def attempt(scale):
        amplitude = min(1.0, epsilon) * scale
        eps_face = 0.5 * epsilon * scale
        eps_cone = 0.25 * epsilon * scale
        fams = dict(originals)
        stages = []

        def distances(before):
            # one c0_distance per byte-distinct (before, after) pair
            memo = []
            return {i: shared_result(memo, c0_distance, before[i], fams[i])
                    for i in order}

        def damp(family):
            return _corner_fiber_damp(family, amplitude)

        def smooth_face(chart):
            rep = {}
            smoothed = smooth_with_holonomy_constraint(
                chart, eps_face, bands=(0.25, 15.0 / 32.0), report=rep)
            return _chart_blend(chart, smoothed, width, amplitude), rep

        def cone(family):
            coned = damped_cone(family, 1.0 / 16.0, eps_cone)
            return damped_blend(family, coned, amplitude)

        with stage(stages, "vertical-edge neighborhoods") as row:
            memo = []
            for ident in order:
                fams[ident] = shared_result(memo, damp, fams[ident])
            row.update({
                "region": "corner squares of side 1/4 in every box",
                "achieved_distance": max(distances(originals).values()),
                "holonomy_defect": face_transport_defect(
                    with_families(scene, fams)),
            })
        after_corners = dict(fams)
        face_rows = []
        with stage(stages, "maximal-face neighborhoods") as row:
            memo, charts = [], {"x": [], "y": []}
            strips = {ident: {} for ident in order}
            for axis, pos, (id_a, side_a), (id_b, side_b) in faces:
                label = f"face {axis}={pos} ({id_a}.{side_a}|{id_b}.{side_b})"
                chart, e_a, ta, seam_gap = shared_result(
                    charts[axis],
                    lambda a, b: _face_chart(a, b, axis, width, label),
                    after_corners[id_a], after_corners[id_b])
                try:
                    blended, rep = shared_result(memo, smooth_face, chart)
                except LadderError as err:
                    raise LadderError(f"{label}: {err}",
                                      achieved=err.achieved) from err
                # the chart carries box b's leaf indices; e_a sends box a's
                # ta to them
                strips[id_a][side_a] = ta, blended, e_a
                strips[id_b][side_b] = blended.t, blended, None
                face_rows.append({
                    "face": label,
                    "seam_gap": seam_gap,
                    "achieved_distance": rep.get("achieved_distance"),
                    "holonomy_defect": rep.get("holonomy_defect"),
                    "retries": rep.get("retries", 0),
                })
            for ident in order:
                fams[ident] = _paste(fams[ident], strips[ident], width)
            row.update({
                "region": f"straddle strips over {len(faces)} shared faces",
                "achieved_distance": max(distances(after_corners).values()),
                "holonomy_defect": max(r["holonomy_defect"]
                                       for r in face_rows),
                "retries": sum(r["retries"] for r in face_rows),
                "faces": face_rows,
            })
        after_faces = dict(fams)
        with stage(stages, "interior coning") as row:
            memo = []
            for ident in order:
                try:
                    fams[ident] = shared_result(memo, cone, fams[ident])
                except LadderError as err:
                    raise LadderError(f"box {ident} interior coning: {err}",
                                      achieved=err.achieved) from err
            result = with_families(scene, fams)
            post_defect = face_transport_defect(result)
            row.update({
                "region": "box interiors outside the collar of width 1/16",
                "achieved_distance": max(distances(after_faces).values()),
                "holonomy_defect": post_defect,
            })
        box_distances = distances(originals)
        worst = max(box_distances.values())
        return result, worst <= epsilon, {
            "operation": "globally_smooth",
            "epsilon": epsilon,
            "achieved_distance": worst,
            "box_distances": box_distances,
            "face_defect_before": pre_defect,
            "face_defect_after": post_defect,
            "stages": stages,
        }

    return halving_ladder(
        attempt, report,
        f"global pipeline missed epsilon={epsilon} after {{retries}} retries")
