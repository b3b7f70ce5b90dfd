"""Tests for the smoothing operators.

Derived expectations are computed by the independent oracles at the top of
this file (direct formula evaluation, no calls into the code under test) and
frozen as literals where a single number is pinned.
"""

import dataclasses
import json
import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.optimize import brentq

from flowbox import smoothing
from flowbox.decomposition import (
    DecompositionComplex,
    build_torus_scene,
    shared_faces,
    side_nodes,
    with_families,
)
from flowbox.denjoy import blowup_scene
from flowbox.foliation import (
    BaseDomain,
    HolonomyMap,
    LeafFamily,
    c0_distance,
    holonomy,
    horizontal_family,
    sheared_family,
    tangent_field,
)
from flowbox.kernel import (
    COMPARISON_TOL,
    InsertionSchedule,
    LadderError,
    MAX_RETRIES,
    SOLVER_TOL,
    Partition,
    choose_partition,
    smooth_ramp,
)
from flowbox.smoothing import (
    FACE_COMPAT_TOL,
    _axis_weight,
    _chart_blend,
    _corner_fiber_damp,
    _face_chart,
    _formula_smooth,
    _paste,
    damped_blend,
    damped_cone,
    face_transport_defect,
    formula_residual,
    globally_smooth,
    smooth_in_t,
    smooth_with_holonomy_constraint,
)

from test_foliation import (
    c0_distance_oracle,
    fiber_transports_oracle,
    leaf_families,
    long_leaf_families,
    rough_family,
    tilted_family,
)

RECT = BaseDomain("rectangle", 33, 33)


# ----------------------------------------------------------------- oracles

def ramp_oracle(u: float) -> float:
    """Direct evaluation of the exp-reciprocal ramp."""
    if u <= 0.0:
        return 0.0
    if u >= 1.0:
        return 1.0
    a = math.exp(-1.0 / u)
    b = math.exp(-1.0 / (1.0 - u))
    return a / (a + b)


def axis_weight_oracle(u: float, lo_in: float, hi_in: float, lo_out: float,
                       hi_out: float) -> float:
    """Damped indicator of [lo_in, hi_in] at one coordinate u: 1 on it,
    smooth_ramp of the fraction of the margin crossed toward it, 0 outside
    [lo_out, hi_out]; an end without margin does not decay."""
    if u < lo_in and lo_out < lo_in:
        return float(smooth_ramp((u - lo_out) / (lo_in - lo_out)))
    if u > hi_in and hi_out > hi_in:
        return float(smooth_ramp((hi_out - u) / (hi_out - hi_in)))
    return 1.0


def band_weight_oracle(base: BaseDomain, inner: float, outer: float):
    """Per-node weight of the constrained smoother's bands: 0 within inner
    of a horizontal edge, 1 at least outer away from both, over every x."""
    wy = [axis_weight_oracle(y, outer, 1.0 - outer, inner, 1.0 - inner)
          for y in base.y_nodes]
    return np.array([wy] * base.nx)


def cone_weight_oracle(base: BaseDomain, c: float):
    """Per-node weight of damped_cone: 0 within c of the boundary, 1 at
    least 3c away from it."""
    return np.array([[axis_weight_oracle(x, 3 * c, 1.0 - 3 * c, c, 1.0 - c)
                      * axis_weight_oracle(y, 3 * c, 1.0 - 3 * c, c, 1.0 - c)
                      for y in base.y_nodes] for x in base.x_nodes])


def corner_weight_oracle(d: float) -> float:
    """One axis of a corner's weight at distance d from the corner: 1 up to
    1/16, 0 from 1/4 on, smooth_ramp between."""
    if d <= 1.0 / 16.0:
        return 1.0
    if d >= 0.25:
        return 0.0
    return float(smooth_ramp((0.25 - d) / (0.25 - 1.0 / 16.0)))


def corner_fiber_damp_oracle(family: LeafFamily, amplitude: float):
    """_corner_fiber_damp one node at a time: corner by corner, each node's
    fiber moves toward the corner's fiber by amplitude times the product of
    its two axis weights."""
    base = family.base
    xs, ys = base.x_nodes, base.y_nodes
    vals = family.values.copy()
    for cx in (0, base.nx - 1):
        for cy in (0, base.ny - 1):
            fiber = vals[:, cx, cy].copy()
            for i in range(base.nx):
                for j in range(base.ny):
                    w = amplitude * (corner_weight_oracle(abs(xs[i] - xs[cx]))
                                     * corner_weight_oracle(abs(ys[j] - ys[cy])))
                    vals[:, i, j] = vals[:, i, j] + w * (fiber - vals[:, i, j])
    return vals


def shear_holonomy_oracle(shear: float, z: float) -> float:
    """Leaf index of height z at the far end of the shear: solves
    t + shear * t(1-t) = z by the quadratic formula."""
    s = shear
    return ((1.0 + s) - math.sqrt((1.0 + s) ** 2 - 4.0 * s * z)) / (2.0 * s)


def formula_smooth_oracle(family: LeafFamily, partition: Partition) -> LeafFamily:
    """Damped convex-combination smoothing with one sample per input leaf.

    Output leaves are reindexed by their anchor height, so each output leaf
    at index s inside a cell [a, b] lies on the straight segment between the
    cell's end leaves with coefficient (s-a)/(b-a); the damping profile shows
    up as the reindexing speed.  Samples that collapse at float resolution
    (the profile is flat to many orders near cell ends) are dropped.  Every
    sample lies on the cut leaves' interpolation, so this is the same family
    as _formula_smooth's, sampled more densely.
    """
    t = family.t
    v = family.values
    cut_idx = np.searchsorted(t, np.asarray(partition.points))
    if np.max(np.abs(t[cut_idx] - np.asarray(partition.points))) > 0:
        raise ValueError("partition points must be sampled leaf indices")
    out_t = [0.0]
    out_v = [v[0]]
    # minimum sample gap: keeps increments far enough above one ulp that
    # later convex blends cannot collapse them into ties
    gap = SOLVER_TOL
    for a_i, b_i in zip(cut_idx, cut_idx[1:]):
        a, b = t[a_i], t[b_i]
        fa, fb = v[a_i], v[b_i]
        span = fb - fa
        last_s, last_g = a, fa
        for k in range(a_i + 1, b_i):
            lam = float(smooth_ramp((t[k] - a) / (b - a)))
            s = a + lam * (b - a)
            g = fa + lam * span
            if (s > last_s + gap and s < b - gap
                    and np.all(g > last_g + gap) and np.all(g < fb - gap)):
                out_t.append(s)
                out_v.append(g)
                last_s, last_g = s, g
        out_t.append(b)
        out_v.append(fb)
    return LeafFamily(family.base, np.array(out_t), np.stack(out_v),
                      family.anchor)


def formula_residual_oracle(original: LeafFamily, smoothed: LeafFamily,
                            partition: Partition) -> float:
    """Max node residual of the defining convex-combination formula.

    At each input leaf index s in a cell [a, b] of the partition, the
    smoothed leaf grid (interpolated between its two bracketing samples)
    must equal f_a + (s-a)/(b-a) * (f_b - f_a).
    """
    t = original.t
    cut_idx = np.searchsorted(t, np.asarray(partition.points))
    worst = 0.0
    pts = np.asarray(partition.points)
    for s in t:
        c = np.clip(np.searchsorted(pts, s, side="right") - 1, 0, pts.size - 2)
        a_i, b_i = cut_idx[c], cut_idx[c + 1]
        a, b = t[a_i], t[b_i]
        lam = (s - a) / (b - a)
        expected = original.values[a_i] + lam * (original.values[b_i]
                                                 - original.values[a_i])
        j = min(max(int(np.searchsorted(smoothed.t, s, side="right")) - 1, 0),
                smoothed.m - 2)
        u = (s - smoothed.t[j]) / (smoothed.t[j + 1] - smoothed.t[j])
        grid = (1.0 - u) * smoothed.values[j] + u * smoothed.values[j + 1]
        worst = max(worst, float(np.max(np.abs(grid - expected))))
    return worst


def holonomy_correction_oracle(p_family: LeafFamily, s_family: LeafFamily,
                               start, end) -> HolonomyMap:
    """Leaf-index correction making the smoothed family's holonomy along the
    path match the input's after end-fiber reindexing.

    Composes the four sampled end-fiber evaluation maps; reduces to
    rho_S(alpha) o rho_P(alpha)^{-1} when the smoothing preserves the start
    fiber, and to the identity when it preserves both.
    """
    def fiber_map(fam: LeafFamily, point) -> HolonomyMap:
        heights = fam.values_at(np.asarray(point, float).reshape(1, 2))[:, 0]
        heights[0], heights[-1] = 0.0, 1.0
        return HolonomyMap(fam.t, heights)

    e0_p = fiber_map(p_family, start)
    e1_p = fiber_map(p_family, end)
    e0_s = fiber_map(s_family, start)
    e1_s = fiber_map(s_family, end)
    return e1_s.inverse().compose(e1_p).compose(e0_p.inverse()).compose(e0_s)


def reindex_blend_oracle(s_family: LeafFamily, correction: HolonomyMap,
                         y_lo: float, y_hi: float) -> LeafFamily:
    """Leaves g_t = ell(y) s_t + (1 - ell(y)) s_{h(t)} with ell = 1 below
    y_lo and 0 above y_hi.

    The general path of the constrained smoother: the correction h twists the
    leaf indexing near one horizontal band so the holonomy along the core
    path is restored.  With h = id this is the identity operation.
    """
    base = s_family.base
    ell = 1.0 - smooth_ramp((base.y_nodes - y_lo) / (y_hi - y_lo))
    shifted = s_family.leaves_at(correction(s_family.t))
    vals = s_family.values + (1.0 - ell)[None, None, :] \
        * (shifted - s_family.values)
    return LeafFamily(base, s_family.t, vals, s_family.anchor)


def smooth_with_holonomy_constraint_oracle(
        family: LeafFamily, epsilon: float, bands: tuple = (0.125, 0.375),
        report: dict | None = None) -> LeafFamily:
    """The constrained smoother with its leaf-index correction: measured,
    snapped to the identity below 1e-10 and applied through the reindexing
    blend otherwise (correction_snapped says which).  Used as an == oracle:
    the bands pin both end fibers, so the correction always snaps.
    """
    base = family.base
    inner, outer = bands
    weight = band_weight_oracle(base, inner, outer)[None]
    alpha = (0.5, 0.0), (0.5, 1.0)
    h_p = holonomy(family, *alpha)
    inner_eps = epsilon
    attempts = []
    for attempt in range(MAX_RETRIES + 1):
        smoothed = smooth_in_t(family, inner_eps)
        # weight exactly zero on the declared bands keeps them bit-identical
        candidate = damped_blend(family, smoothed, weight)
        correction = holonomy_correction_oracle(family, candidate, *alpha)
        snapped = correction.identity_defect() <= 1e-10
        if not snapped:
            candidate = reindex_blend_oracle(candidate, correction,
                                             inner, 1.0 - inner)
        h_g = holonomy(candidate, *alpha)
        zs = np.linspace(0.0, 1.0, 101)
        hol_defect = float(np.max(np.abs(h_g(zs) - h_p(zs))))
        achieved = c0_distance(family, candidate)
        attempts.append(achieved)
        if report is not None:
            report.update({
                "operation": "smooth_with_holonomy_constraint",
                "epsilon": epsilon,
                "achieved_distance": achieved,
                "holonomy_defect": hol_defect,
                "correction_snapped": bool(snapped),
                "retries": attempt,
            })
        if achieved <= epsilon and hol_defect <= COMPARISON_TOL:
            return candidate
        inner_eps *= 0.5
    raise LadderError(
        f"constrained smoothing missed epsilon={epsilon} "
        f"(best {min(attempts):.6g})", achieved=min(attempts))


def random_family(base: BaseDomain, m: int, rng, amp: float = 0.35) -> LeafFamily:
    """Random monotone anchored family f_t = t + amp * t(1-t) * psi(x, y)."""
    x, y = np.meshgrid(base.x_nodes, base.y_nodes, indexing="ij")
    c = rng.uniform(-1.0, 1.0, size=4)
    psi = c[0] * x + c[1] * y + c[2] * x * y + c[3] * x * x
    psi = psi - psi[0, 0]
    scale = max(1.0, float(np.max(np.abs(psi))))
    psi /= scale
    t = np.linspace(0.0, 1.0, m)
    vals = t[:, None, None] + amp * (t * (1.0 - t))[:, None, None] * psi[None]
    return LeafFamily(base, t, vals, (0, 0))


# ----------------------------------------------------------------- regions

def test_band_weight_matches_oracle():
    # both band pairs in use: the constrained smoother's default and the
    # face charts' (globally_smooth)
    for base in (RECT, BaseDomain("rectangle", 17, 17),
                 BaseDomain("rectangle", 20, 23)):
        y = base.y_nodes
        for inner, outer in ((0.125, 0.375), (0.25, 15.0 / 32.0)):
            got = _axis_weight(y, outer, 1.0 - outer, inner, 1.0 - inner)
            want = band_weight_oracle(base, inner, outer)
            assert np.array_equal(np.broadcast_to(got, want.shape), want)
            band = (y <= inner) | (y >= 1.0 - inner)
            core = (y >= outer) & (y <= 1.0 - outer)
            assert np.all(got[band] == 0.0) and np.all(got[core] == 1.0)
            assert np.all((got > 0.0) & (got < 1.0) | band | core)
    # the ramp itself, against its direct formula: y = 3/16 is a quarter of
    # the way across the default bands' margin
    probe = _axis_weight(RECT.y_nodes, 0.375, 0.625, 0.125, 0.875)[6]
    assert probe == pytest.approx(ramp_oracle(0.25), abs=1e-15)
    assert 0.0 < probe < 1.0


def test_holonomy_constraint_rejects_bad_bands():
    fam = sheared_family(RECT, 0.2, m=9)
    for bands in ((0.0, 0.25), (0.25, 0.125), (0.2, 0.2), (0.125, 0.5),
                  (-0.1, 0.3)):
        with pytest.raises(ValueError, match="0 < inner < outer < 1/2"):
            smooth_with_holonomy_constraint(fam, 0.2, bands=bands)


def test_cone_weight_matches_oracle():
    fam = random_family(RECT, 33, np.random.default_rng(5), amp=0.3)
    x, y = np.meshgrid(RECT.x_nodes, RECT.y_nodes, indexing="ij")
    d = np.minimum(np.minimum(x, 1.0 - x), np.minimum(y, 1.0 - y))
    for c in (1.0 / 16.0, 0.125, 0.1):
        w = cone_weight_oracle(RECT, c)
        assert np.all(w[d <= c] == 0.0) and np.all(w[d >= 3 * c] == 1.0)
        # the complement of a ring weight, as coning once took it, rounds
        # 1 - (1 - w) back to within half an ulp of 1
        ring = 1.0 - w
        assert np.max(np.abs((1.0 - ring) - w)) <= 2.0 ** -53
        out = damped_cone(fam, c, 0.2)
        want = damped_blend(fam, smooth_in_t(fam, 0.2), w[None])
        assert np.array_equal(out.t, want.t)
        assert np.array_equal(out.values, want.values)


def test_corner_weights_match_oracle():
    # the pipeline's chart grids, 4k+1 nodes; 1/16 and 1/4 land on nodes
    for n in (17, 33, 65):
        base = BaseDomain("rectangle", n, n)
        fam = random_family(base, 9, np.random.default_rng(n), amp=0.4)
        for amplitude in (1.0, 0.3):
            got = _corner_fiber_damp(fam, amplitude)
            assert np.array_equal(got.values,
                                  corner_fiber_damp_oracle(fam, amplitude))
        # each corner's weight: 1 on its square of side 1/16, 0 from 1/4 on
        xs = base.x_nodes
        low = _axis_weight(xs, 0.0, 1.0 / 16.0, 0.0, 0.25)
        high = _axis_weight(xs, 15.0 / 16.0, 1.0, 0.75, 1.0)
        assert low.tolist() == [corner_weight_oracle(u) for u in xs]
        assert high.tolist() == [corner_weight_oracle(1.0 - u) for u in xs]
        assert np.all(low[xs <= 1.0 / 16.0] == 1.0)
        assert np.all(low[xs >= 0.25] == 0.0)
        assert np.array_equal(high, low[::-1])


# ------------------------------------------------------------- smooth_in_t

def test_smooth_horizontal_family_is_unchanged():
    fam = horizontal_family(RECT, 17)
    rep = {}
    out = smooth_in_t(fam, 0.3, report=rep)
    assert rep["partition_points"] == [0.0, 1.0]
    assert rep["retries"] == 0
    # every output leaf is the horizontal plane at its own index
    assert float(np.max(np.abs(out.values - out.t[:, None, None]))) == 0.0
    np.testing.assert_allclose(out.leaves_at(fam.t), fam.values, atol=1e-12)


def test_smooth_single_cell_formula_oracle():
    fam = sheared_family(RECT, 0.04, m=33)
    part = Partition((0.0, 0.5, 1.0))
    out = _formula_smooth(fam, part)
    # the output is the input's leaves at the partition points, nothing else
    assert out.t.tolist() == [0.0, 0.5, 1.0]
    assert np.array_equal(out.values, fam.values[[0, 16, 32]])
    assert formula_residual(fam, out, part) <= 1e-12
    # the input is quadratic in t, so it is not the piecewise-linear
    # interpolation of its own cut leaves: the residual check can fail
    assert formula_residual(fam, fam, part) > 1e-12


def test_smooth_fixed_leaf_bit_identical():
    # the leaves at partition points are the ones smoothing keeps fixed
    fam = sheared_family(RECT, 0.5, m=65)
    rep = {}
    out = smooth_in_t(fam, 0.05, report=rep)
    assert len(rep["partition_points"]) > 2
    for p in rep["partition_points"]:
        idx = np.flatnonzero(out.t == p)
        assert idx.size == 1
        src = np.flatnonzero(fam.t == p)[0]
        assert np.array_equal(out.values[idx[0]], fam.values[src])


def test_smooth_partition_leaves_unchanged():
    fam = random_family(RECT, 33, np.random.default_rng(7))
    rep = {}
    out = smooth_in_t(fam, 0.1, report=rep)
    for p in rep["partition_points"]:
        i_out = np.flatnonzero(out.t == p)[0]
        i_in = np.flatnonzero(fam.t == p)[0]
        assert np.array_equal(out.values[i_out], fam.values[i_in])


def test_smooth_achieves_epsilon_ladder():
    fam = random_family(RECT, 65, np.random.default_rng(3))
    for eps in (0.3, 0.1, 0.03):
        rep = {}
        out = smooth_in_t(fam, eps, report=rep)
        assert c0_distance(fam, out) <= eps
        assert rep["formula_residual"] <= 1e-12


@st.composite
def partitioned_families(draw):
    """A family with either its greedy tangent-angle partition at an epsilon
    in [0.002, 0.5] (every sample where that raises, as smooth_in_t does) or
    a random subset of its leaf indices as cut points; or a rough family
    (independent slopes per node, so the angle to the input often peaks
    between the cut leaves' sampled heights) cut at one random leaf.
    Returns (family, partition, kind)."""
    kind = draw(st.sampled_from(["greedy", "subset", "rough"]))
    if kind == "rough":
        n, m = draw(st.integers(12, 17)), draw(st.integers(9, 25))
        family = rough_family(BaseDomain("rectangle", n, n), m,
                              draw(st.integers(0, 2**32 - 1)),
                              draw(st.floats(0.5, 0.9)))
        cut = family.t[draw(st.integers(1, m - 2))]
        return family, Partition((0.0, float(cut), 1.0)), kind
    family = draw(long_leaf_families())
    if kind == "greedy":
        normals = tangent_field(family).reshape(family.m, -1, 3)
        try:
            part = choose_partition(family.t, normals,
                                    draw(st.floats(0.002, 0.5)))
        except ValueError:
            part = Partition(tuple(family.t.tolist()))
    else:
        inner = family.t[1:-1][draw(st.lists(
            st.booleans(), min_size=family.m - 2, max_size=family.m - 2))]
        part = Partition((0.0, *inner.tolist(), 1.0))
    return family, part, kind


@settings(max_examples=80, deadline=None)
@given(partitioned_families())
# over the first cell the leaves at x = 1 rise by less than the index does
# (fb - fa < b - a), so the oracle's g < fb - gap rejects a sample near the
# cell end that s < b - gap accepts
@example((sheared_family(BaseDomain("rectangle", 8, 8), -0.5, 65),
          Partition((0.0, 0.890625, 1.0)), "subset"))
# the angle to the input peaks between the cut leaves' sampled heights, 4e-3
# above its largest value at any sampled height
@example((rough_family(BaseDomain("rectangle", 9, 9), 9, 6, 0.5),
          Partition((0.0, 0.375, 1.0)), "rough"))
def test_formula_smooth_matches_per_sample_oracle(case):
    family, part, kind = case
    out = _formula_smooth(family, part)
    ref = formula_smooth_oracle(family, part)
    # the cut leaves' interpolation passes through every sample of the
    # per-sample reindexing, up to rounding, so the two are one family
    assert float(np.max(np.abs(out.leaves_at(ref.t) - ref.values))) <= 1e-15
    # c0_distance takes its sup over every height of each fiber, not only
    # the sampled ones, so it reads one family the same however it is sampled
    assert c0_distance(out, ref) <= 1e-12
    assert abs(c0_distance(family, out) - c0_distance(family, ref)) <= 1e-12
    # and it finds a peak between sampled heights whether or not one of
    # ref's heights lands near it; the search oracle is slow on long
    # families, so it checks the rough ones, whose peaks most often lie
    # between sampled heights
    if kind == "rough":
        assert abs(c0_distance(family, out)
                   - c0_distance_oracle(family, out)) <= 1e-12
    for smoothed in (out, family):
        assert (formula_residual(family, smoothed, part)
                == formula_residual_oracle(family, smoothed, part))


def test_smooth_rejections():
    fam = horizontal_family(RECT, 17)
    with pytest.raises(ValueError):
        smooth_in_t(fam, 0.0)


# ------------------------------------------------------ damped replacement

def test_local_replace_slices():
    fam = horizontal_family(RECT, 17, anchor=(16, 0))
    target = tilted_family(RECT, 0.05, 17)
    w = np.array([[axis_weight_oracle(x, 0.375, 0.625, 0.25, 0.75)
                   * axis_weight_oracle(y, 0.375, 0.625, 0.25, 0.75)
                   for y in RECT.y_nodes] for x in RECT.x_nodes])
    slices = [damped_blend(fam, target, s * w[None])
              for s in np.linspace(0.0, 1.0, 5)]
    t = slices[-1].t
    f = fam.leaves_at(t)
    g = target.leaves_at(t)
    assert np.array_equal(slices[0].values, f)
    # slice 1 equals the target on S
    assert np.max(np.abs(slices[-1].values[:, 12:21, 12:21]
                         - g[:, 12:21, 12:21])) <= 1e-12
    # all slices untouched outside N(S)
    outside = w == 0.0
    for sl in slices:
        assert np.array_equal(sl.values[:, outside], f[:, outside])


@st.composite
def blend_pairs(draw):
    base = BaseDomain("rectangle", draw(st.integers(8, 17)),
                      draw(st.integers(8, 17)))
    return draw(leaf_families(base)), draw(leaf_families(base))


@settings(max_examples=60, deadline=None)
@given(blend_pairs())
def test_damped_blend_endpoints(pair):
    # the two families carry independent t-grids; weight 0 and 1 must give
    # back either family resampled on the merged indices, anchor pinned
    f, g = pair
    off = np.ones((f.base.nx, f.base.ny), dtype=bool)
    off[f.anchor] = False
    at_zero = damped_blend(f, g, 0.0)
    at_one = damped_blend(f, g, 1.0)
    for out in (at_zero, at_one):
        assert out.anchor == f.anchor
        assert np.array_equal(out.values[:, f.anchor[0], f.anchor[1]], out.t)
    assert np.array_equal(at_zero.values[:, off],
                          f.leaves_at(at_zero.t)[:, off])
    # f + (g - f) misses g by the rounding of g - f, at most one ulp of 1
    gap = np.abs(at_one.values - g.leaves_at(at_one.t))[:, off]
    assert gap.max() <= 2.0 ** -52


# ------------------------------------------- holonomy-constrained smoothing

def test_holonomy_constraint_benchmark():
    # shear along the core path, so rho_P(alpha) is a genuine quadratic map
    fam = sheared_family(RECT, 0.5, m=65, axis="y")
    rep = {}
    out = smooth_with_holonomy_constraint(fam, 0.15, report=rep)
    assert c0_distance(fam, out) <= 0.15
    # holonomy along the core path, measured independently on both families
    # and against the quadratic oracle
    alpha = (0.5, 0.0), (0.5, 1.0)
    h_in = holonomy(fam, *alpha)
    h_out = holonomy(out, *alpha)
    zs = np.linspace(0.0, 1.0, 101)
    assert np.max(np.abs(h_out(zs) - h_in(zs))) <= 1e-9
    oracle = np.array([shear_holonomy_oracle(0.5, z) for z in zs])
    assert np.max(np.abs(h_in(zs) - oracle)) <= 1e-4
    assert np.max(np.abs(h_out(zs) - oracle)) <= 1e-4
    assert h_in(np.array([0.5]))[0] == pytest.approx(0.3819660112501051, abs=5e-5)
    # declared bands bit-exact
    ref = fam.leaves_at(out.t)
    assert np.array_equal(out.values[:, :, :5], ref[:, :, :5])
    assert np.array_equal(out.values[:, :, 28:], ref[:, :, 28:])
    # the middle strip was genuinely smoothed
    assert np.max(np.abs(out.values - ref)) > 1e-4


def test_holonomy_constraint_reports_attempt_distances():
    fam = random_family(RECT, 65, np.random.default_rng(3))
    rep = {}
    smooth_with_holonomy_constraint(fam, 0.03, report=rep)
    assert rep["retries"] > 0
    assert len(rep["attempt_distances"]) == rep["retries"] + 1
    assert rep["attempt_distances"][-1] == rep["achieved_distance"]
    assert all(d > 0.03 for d in rep["attempt_distances"][:-1])


@st.composite
def constrained_cases(draw):
    """A sheared or random monotone family on a rectangle of 17-33 nodes
    with 9-65 leaves, an epsilon in [0.05, 0.4], and either the default
    bands or the face-chart bands globally_smooth passes."""
    n = draw(st.integers(17, 33))
    base = BaseDomain("rectangle", n, n)
    m = draw(st.integers(9, 65))
    if draw(st.booleans()):
        family = sheared_family(base, draw(st.floats(-0.6, 0.6)), m,
                                axis=draw(st.sampled_from(["x", "y"])))
    else:
        family = random_family(
            base, m, np.random.default_rng(draw(st.integers(0, 2**32 - 1))),
            amp=draw(st.floats(0.05, 0.45)))
    bands = draw(st.sampled_from([(0.125, 0.375), (0.25, 15.0 / 32.0)]))
    return family, draw(st.floats(0.05, 0.4)), bands


@settings(max_examples=30, deadline=None)
@given(constrained_cases())
def test_holonomy_constraint_matches_correction_oracle(case):
    family, epsilon, bands = case
    got_rep, want_rep = {}, {}
    try:
        want = smooth_with_holonomy_constraint_oracle(family, epsilon, bands,
                                                      report=want_rep)
    except LadderError as err:
        with pytest.raises(LadderError) as caught:
            smooth_with_holonomy_constraint(family, epsilon, bands,
                                            report=got_rep)
        assert str(caught.value) == str(err)
        assert caught.value.achieved == err.achieved
    else:
        got = smooth_with_holonomy_constraint(family, epsilon, bands,
                                              report=got_rep)
        assert got.t.tobytes() == want.t.tobytes()
        assert got.values.tobytes() == want.values.tobytes()
    assert want_rep.pop("correction_snapped") is True
    got_rep.pop("attempt_distances")
    assert got_rep == want_rep


# ------------------------------------------------------------------ coning

def test_cone_of_own_restriction_is_interior_smoothing():
    fam = random_family(RECT, 65, np.random.default_rng(11), amp=0.25)
    out = damped_cone(fam, 0.125, 0.2)
    ref = fam.leaves_at(out.t)
    x, y = np.meshgrid(RECT.x_nodes, RECT.y_nodes, indexing="ij")
    d = np.minimum(np.minimum(x, 1.0 - x), np.minimum(y, 1.0 - y))
    frame = d <= 0.125
    assert np.array_equal(out.values[:, frame], ref[:, frame])
    smoothed = smooth_in_t(fam, 0.2)
    interior = d >= 0.375
    assert np.allclose(out.values[:, interior],
                       smoothed.leaves_at(out.t)[:, interior], atol=1e-12)


def test_cone_horizontal_stays_horizontal():
    fam = horizontal_family(RECT, 17)
    out = damped_cone(fam, 0.125, 0.2)
    assert np.max(np.abs(out.values - out.t[:, None, None])) <= 1e-12


def test_cone_validations():
    fam = horizontal_family(RECT, 9)
    with pytest.raises(ValueError):
        damped_cone(fam, 0.3, 0.2)


# ---------------------------------------------------------------- scenes


def _scene(kind="sheared", grid=33, samples=17):
    return build_torus_scene(
        (2, 2), foliation={"kind": kind, "shear": 0.1,
                           "grid": grid, "samples": samples})


def _with_family(scene, ident, family):
    boxes = tuple(dataclasses.replace(b, family=family)
                  if b.identifier == ident else b for b in scene.boxes)
    return DecompositionComplex(boxes)


def _side_heights(family, side):
    if side == "W":
        return family.values[:, 0, :]
    if side == "E":
        return family.values[:, -1, :]
    if side == "S":
        return family.values[:, :, 0]
    if side == "N":
        return family.values[:, :, -1]
    raise ValueError(side)


def _traced_transport(family, side, col, z):
    """Transport along a box side by direct root finding.

    Finds the leaf through height z at the side's first corner with brentq on
    the piecewise-linear corner fiber, then reads that leaf's height at sample
    column col.  Shares no code with the holonomy machinery it checks.
    """
    fib = _side_heights(family, side)
    t_star = brentq(lambda t: np.interp(t, family.t, fib[:, 0]) - z,
                    0.0, 1.0, xtol=1e-14)
    return float(np.interp(t_star, family.t, fib[:, col]))


def _oracle_face_defect(scene):
    # worst side-vs-side transport disagreement over all shared faces,
    # sampled at a quarter, half, and the far column on a fixed height grid
    worst = 0.0
    for _axis, _pos, (id_a, side_a), (id_b, side_b) in shared_faces(scene):
        fam_a = scene.box(id_a).family
        fam_b = scene.box(id_b).family
        n_cols = _side_heights(fam_a, side_a).shape[1]
        for col in (n_cols // 4, n_cols // 2, n_cols - 1):
            for z in np.linspace(0.1, 0.9, 9):
                ta = _traced_transport(fam_a, side_a, col, z)
                tb = _traced_transport(fam_b, side_b, col, z)
                worst = max(worst, abs(ta - tb))
    return worst


def face_transport_defect_oracle(scene: DecompositionComplex,
                                 report: dict | None = None) -> float:
    """Reference for face_transport_defect: one compose-based transport and
    one max_difference per node of each shared face."""
    rows = []
    worst = 0.0
    for axis, pos, (id_a, side_a), (id_b, side_b) in shared_faces(scene):
        fam_a = scene.box(id_a).family
        fam_b = scene.box(id_b).family
        nodes_a = side_nodes(fam_a.base, side_a)
        nodes_b = side_nodes(fam_b.base, side_b)
        if len(nodes_a) != len(nodes_b):
            raise ValueError(f"face {axis}={pos}: sides sampled differently")
        defect = 0.0
        for ta, tb in zip(fiber_transports_oracle(fam_a, nodes_a),
                          fiber_transports_oracle(fam_b, nodes_b)):
            defect = max(defect, ta.max_difference(tb))
        rows.append({"axis": axis, "pos": pos, "boxes": [id_a, id_b],
                     "defect": defect})
        worst = max(worst, defect)
    if report is not None:
        report.update({"operation": "face_transport_defect",
                       "faces": rows, "max_defect": worst})
    return worst


@pytest.fixture(scope="module")
def sheared_scene():
    return _scene()


@pytest.fixture(scope="module")
def smoothed_sheared(sheared_scene):
    report = {}
    out = globally_smooth(sheared_scene, 0.3, report=report)
    return out, report


def test_face_transport_defect_is_trace_level(sheared_scene):
    report = {}
    assert face_transport_defect(sheared_scene, report=report) <= 1e-12
    assert len(report["faces"]) == 8
    assert report["max_defect"] <= 1e-12
    # the x-faces glue E to W sides whose sampled fibers differ pointwise;
    # only the traced leaf structure matches
    east = _side_heights(sheared_scene.box("b10").family, "E")
    west = _side_heights(sheared_scene.box("b00").family, "W")
    assert np.max(np.abs(east - west)) > 0.02


def test_face_transport_defect_flags_true_mismatch(sheared_scene):
    # one horizontal box among sheared neighbors: along its y-faces the
    # sheared side transports z -> z + 0.1 z(1-z) x while the horizontal side
    # is the identity, so the sup defect is 0.1 * max z(1-z) = 0.025
    broken = _with_family(sheared_scene, "b00",
                          horizontal_family(BaseDomain("rectangle", 33, 33)))
    report = {}
    defect = face_transport_defect(broken, report=report)
    assert defect == pytest.approx(0.025, abs=1e-12)
    bad = sorted((r["axis"], r["pos"]) for r in report["faces"]
                 if r["defect"] > FACE_COMPAT_TOL)
    assert bad == [("y", "0"), ("y", "1/2")]
    with pytest.raises(ValueError, match="y=0.*y=1/2"):
        globally_smooth(broken, 0.3)


def test_transport_oracle_agrees_with_defect_metric(sheared_scene):
    assert _oracle_face_defect(sheared_scene) < 1e-9
    broken = _with_family(sheared_scene, "b00",
                          horizontal_family(BaseDomain("rectangle", 33, 33)))
    oracle = _oracle_face_defect(broken)
    assert oracle == pytest.approx(0.025, abs=1e-9)
    assert face_transport_defect(broken) == pytest.approx(oracle, abs=1e-9)


def _assert_defect_matches_oracle(scene):
    report, ref = {}, {}
    assert (face_transport_defect(scene, report=report)
            == face_transport_defect_oracle(scene, report=ref))
    assert report == ref


@pytest.fixture(scope="module")
def blown_horizontal():
    # the inserted packet leaves refine every box's leaf grid
    scene = _scene(kind="horizontal", grid=17, samples=9)
    packet = sheared_family(BaseDomain("rectangle", 17, 17), 0.3, 9)
    out, _data = blowup_scene(scene, InsertionSchedule((0.5,), (0.1,)),
                              (packet,), epsilon=0.5)
    return out


def test_face_transport_defect_matches_oracle_on_scenes(
        sheared_scene, smoothed_sheared, blown_horizontal):
    broken = _with_family(sheared_scene, "b00",
                          horizontal_family(BaseDomain("rectangle", 33, 33)))
    for scene in (sheared_scene, smoothed_sheared[0], broken,
                  blown_horizontal):
        _assert_defect_matches_oracle(scene)


@st.composite
def random_family_scenes(draw):
    """2x2 scenes whose boxes carry random anchored monotone families, some
    boxes possibly sharing one."""
    grid = draw(st.integers(8, 17))
    scene = _scene(kind="horizontal", grid=grid, samples=5)
    base = BaseDomain("rectangle", grid, grid)
    pool = draw(st.lists(leaf_families(base), min_size=1, max_size=4))
    return with_families(scene, {box.identifier: draw(st.sampled_from(pool))
                                 for box in scene.boxes})


@settings(max_examples=40, deadline=None)
@given(random_family_scenes())
def test_face_transport_defect_matches_oracle_on_random_families(scene):
    _assert_defect_matches_oracle(scene)


def test_globally_smooth_horizontal_identity():
    scene = _scene(kind="horizontal")
    out = globally_smooth(scene, 0.3)
    for box in out.boxes:
        fam = box.family
        assert np.max(np.abs(fam.values - fam.t[:, None, None])) <= 1e-12
        assert c0_distance(scene.box(box.identifier).family, fam) <= 1e-12
    assert face_transport_defect(out) <= 1e-12


def test_globally_smooth_sheared_within_budget(sheared_scene, smoothed_sheared):
    out, report = smoothed_sheared
    worst = 0.0
    for box in sheared_scene.boxes:
        dist = c0_distance(box.family, out.box(box.identifier).family)
        assert dist <= 0.3
        assert dist == pytest.approx(
            report["box_distances"][box.identifier], abs=1e-12)
        worst = max(worst, dist)
    assert worst > 0.01        # the pipeline genuinely moved the leaves
    assert report["achieved_distance"] == pytest.approx(worst, abs=1e-12)
    assert face_transport_defect(out) < 1e-6
    assert _oracle_face_defect(out) < 1e-9
    for box in out.boxes:
        assert np.all(np.diff(box.family.values, axis=0) > 0.0)


def test_globally_smooth_ladder_monotone():
    scene = _scene(grid=17, samples=9)
    achieved = []
    for eps in (0.3, 0.15, 0.075):
        report = {}
        globally_smooth(scene, eps, report=report)
        achieved.append(report["achieved_distance"])
        assert report["achieved_distance"] <= eps
        assert report["face_defect_after"] < 1e-6
    assert achieved[0] > achieved[1] > achieved[2] > 0.0


def test_globally_smooth_report_shape(smoothed_sheared):
    _out, report = smoothed_sheared
    json.dumps(report)
    assert report["operation"] == "globally_smooth"
    assert report["epsilon"] == 0.3
    assert report["retries"] == 0
    assert report["attempt_distances"] == [report["achieved_distance"]]
    assert report["face_defect_before"] <= 1e-12
    assert report["face_defect_after"] < 1e-6
    assert sorted(report["box_distances"]) == ["b00", "b01", "b10", "b11"]
    names = [s["stage"] for s in report["stages"]]
    assert names == ["vertical-edge neighborhoods",
                     "maximal-face neighborhoods", "interior coning"]
    for stage in report["stages"]:
        for key in ("region", "achieved_distance", "holonomy_defect"):
            assert key in stage
    # only the face stage runs retry ladders, one per face
    assert ["retries" in stage for stage in report["stages"]] \
        == [False, True, False]
    rows = report["stages"][1]["faces"]
    assert len(rows) == 8
    assert all(row["seam_gap"] <= 1e-9 for row in rows)


def test_globally_smooth_reports_outer_attempt_distances(monkeypatch):
    # distances from the input families read ten times too large, so the
    # first outer attempt misses epsilon and a halved retry meets it
    scene = _scene(grid=17, samples=9)
    originals = [box.family for box in scene.boxes]
    real = smoothing.c0_distance

    def inflated(a, b):
        d = real(a, b)
        return 10.0 * d if any(a is f for f in originals) else d

    monkeypatch.setattr(smoothing, "c0_distance", inflated)
    report = {}
    globally_smooth(scene, 0.3, report=report)
    distances = report["attempt_distances"]
    assert report["retries"] >= 1
    assert len(distances) == report["retries"] + 1
    assert distances[-1] == report["achieved_distance"] <= 0.3 < distances[0]


def test_globally_smooth_interior_failure_keeps_achieved(monkeypatch):
    def failing_cone(family, collar_width, epsilon):
        raise LadderError("cone missed", achieved=0.5)

    monkeypatch.setattr(smoothing, "damped_cone", failing_cone)
    with pytest.raises(LadderError) as err:
        globally_smooth(_scene(grid=17, samples=9), 0.3)
    assert str(err.value) == "box b00 interior coning: cone missed"
    assert err.value.achieved == 0.5
    assert err.value.stage == "interior coning"


def test_globally_smooth_rejects_bad_scenes(sheared_scene):
    with pytest.raises(ValueError, match="positive"):
        globally_smooth(sheared_scene, 0.0)
    gap = DecompositionComplex(sheared_scene.boxes[:-1])
    with pytest.raises(ValueError, match="valid decomposition"):
        globally_smooth(gap, 0.3)
    split = build_torus_scene((1, 1), height_splits={(0, 0): ("1/2",)})
    with pytest.raises(ValueError, match="full-height"):
        globally_smooth(split, 0.3)


def test_globally_smooth_anchor_columns_exact(smoothed_sheared):
    out, _report = smoothed_sheared
    for box in out.boxes:
        assert np.array_equal(box.family.values[:, 0, 0], box.family.t)


def test_globally_smooth_self_glued_torus():
    opts = {"grid": 17, "samples": 9}
    horiz = build_torus_scene((1, 1), foliation={"kind": "horizontal", **opts})
    fam = globally_smooth(horiz, 0.3).boxes[0].family
    assert np.max(np.abs(fam.values - fam.t[:, None, None])) <= 1e-12
    sheared = build_torus_scene(
        (1, 1), foliation={"kind": "sheared", "shear": 0.1, **opts})
    report = {}
    out = globally_smooth(sheared, 0.3, report=report)
    assert report["achieved_distance"] <= 0.3
    assert face_transport_defect(out) < 1e-6


def test_corner_fiber_damp_keeps_transports(sheared_scene):
    fams = {b.identifier: _corner_fiber_damp(b.family, 0.7)
            for b in sheared_scene.boxes}
    moved = max(np.max(np.abs(fams[b.identifier].values - b.family.values))
                for b in sheared_scene.boxes)
    assert moved > 5e-4
    boxes = tuple(dataclasses.replace(b, family=fams[b.identifier])
                  for b in sheared_scene.boxes)
    assert face_transport_defect(DecompositionComplex(boxes)) <= 1e-12
    for fam in fams.values():
        assert np.array_equal(fam.values[:, 0, 0], fam.t)


def test_face_chart_paste_roundtrip(sheared_scene):
    axis, _pos, (id_a, _sa), (id_b, _sb) = shared_faces(sheared_scene)[0]
    fam_a = sheared_scene.box(id_a).family
    fam_b = sheared_scene.box(id_b).family
    chart, e_a, seam_gap = _face_chart(fam_a, fam_b, axis, 8, "roundtrip")
    assert seam_gap <= 1e-12
    assert chart.base.nx == 17 and chart.anchor == (8, 0)
    assert np.array_equal(chart.values[:, 8, 0], chart.t)
    # pasting the unmodified chart back must leave both boxes unchanged as
    # functions of (t, x, y)
    blended = _chart_blend(chart, chart, 8, 1.0)
    assert np.array_equal(blended.values, chart.values)
    ta = e_a.inverse()(blended.t)
    ta[0], ta[-1] = 0.0, 1.0
    back_a = _paste(fam_a, blended, axis, 8, ta, first=blended.t)
    back_b = _paste(fam_b, blended, axis, 8, blended.t, second=blended.t)
    assert np.max(np.abs(back_a.values - fam_a.leaves_at(ta))) <= 1e-12
    assert np.max(np.abs(back_b.values - fam_b.leaves_at(blended.t))) <= 1e-12
