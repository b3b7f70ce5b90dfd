"""Transverse measures, measured smoothing, Tischler approximation."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.interpolate import PchipInterpolator

from flowbox.decomposition import (
    DecompositionComplex,
    FlowBoxSpec,
    build_torus_scene,
    shared_faces,
    side_nodes,
    validate,
)
from flowbox.foliation import (
    BaseDomain,
    HolonomyMap,
    LeafFamily,
    fiber_map,
    fiber_transports,
)
from flowbox.kernel import InsertionSchedule, build_collapse
from flowbox.measure import (
    ClosedOneForm,
    MeasuredScene,
    TransverseMeasure,
    scene_invariance_defect,
    smooth_measure_on_transversal,
    smooth_measured_scene,
    tischler_fibration,
)


# ---------------------------------------------------------------- oracles

def bisect_preimage(cumulative, target, iterations=80):
    """Invert a monotone callable on [0, 1] by bisection."""
    lo, hi = 0.0, 1.0
    for _ in range(iterations):
        mid = 0.5 * (lo + hi)
        if cumulative(mid) < target:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def _field_map(mu: TransverseMeasure, fiber: HolonomyMap) -> HolonomyMap:
    """Normalized cumulative of the measure transported to a fiber.

    The anchor fiber's map is the identity, so the field cumulative at any
    node is M o E^-1 with E the node's leaf-index map; its breakpoints are
    the transported measure samples joined with E's own output breaks.
    """
    grid = np.union1d([0.0, 1.0], np.union1d(fiber(mu.heights),
                                             fiber.outputs))
    vals = mu(fiber.inverse()(grid)) / mu.totals[-1]
    vals[0], vals[-1] = 0.0, 1.0
    return HolonomyMap(grid, vals)


def scene_invariance_defect_oracle(measured: MeasuredScene,
                                   report: dict | None = None) -> float:
    """The per-node loop scene_invariance_defect replaced: one fiber map,
    one sorted union grid and two inverse maps per node of every face."""
    rows = []
    worst = 0.0
    for axis, pos, (id_a, side_a), (id_b, side_b) in \
            shared_faces(measured.scene):
        fam_a = measured.scene.box(id_a).family
        fam_b = measured.scene.box(id_b).family
        mu_a = measured.measure(id_a)
        mu_b = measured.measure(id_b)
        maps_a = [fiber_map(fam_a, n) for n in side_nodes(fam_a.base, side_a)]
        maps_b = [fiber_map(fam_b, n) for n in side_nodes(fam_b.base, side_b)]
        if len(maps_a) != len(maps_b):
            raise ValueError(f"face {axis}={pos}: sides sampled differently")
        defect = 0.0
        for ea, eb in zip(maps_a, maps_b):
            grid = np.unique(np.concatenate([
                [0.0, 1.0], ea(mu_a.heights), eb(mu_b.heights),
                ea.outputs, eb.outputs]))
            diff = mu_a(ea.inverse()(grid)) - mu_b(eb.inverse()(grid))
            defect = max(defect, float(diff.max() - diff.min()))
        worst = max(worst, defect)
        rows.append({"face": f"{axis}={pos}", "owners": [id_a, id_b],
                     "defect": defect})
    if report is not None:
        report.update({"operation": "scene_invariance_defect",
                       "rows": rows, "defect": worst})
    return worst


def sqrt2_convergents_by_hand():
    """First convergents of sqrt(2) = [1; 2, 2, 2, ...]."""
    out = [Fraction(1)]
    h_prev, h, k_prev, k = 1, 1, 0, 1
    for _ in range(6):
        h_prev, h = h, 2 * h + h_prev
        k_prev, k = k, 2 * k + k_prev
        out.append(Fraction(h, k))
    return out


def kernel_angle(p_over_q):
    return abs(math.atan(math.sqrt(2.0)) - math.atan(float(p_over_q)))


def strip_walk_by_hand(ratio, period):
    """Fiber positions after each strip crossing, as exact fractions."""
    return [Fraction(k) * ratio % 1 for k in range(period)]


def staircase_measure(weight=0.6, delta=0.05, samples=41):
    """Strictly monotone blend of a collapse staircase with Lebesgue."""
    collapse = build_collapse(InsertionSchedule((0.4,), (weight,)))
    ends = [v for plat in collapse.plateaus for v in plat[:2]]
    grid = np.union1d(np.linspace(0.0, 1.0, samples), ends)
    vals = (collapse(grid) + delta * grid) / (1.0 + delta)
    return TransverseMeasure(grid, vals - vals[0]), collapse


def from_cumulative(fn, samples) -> TransverseMeasure:
    """Sample a cumulative function on a uniform grid; the value at 0 is
    subtracted off."""
    grid = np.linspace(0.0, 1.0, samples)
    vals = np.asarray([float(fn(z)) for z in grid])
    return TransverseMeasure(grid, vals - vals[0])


def kinked_measure(samples=41):
    """Piecewise-linear cumulative with a slope break at 1/2."""
    return from_cumulative(lambda z: 0.85 * z + 0.3 * min(z, 0.5), samples)


def nudged_measure(mu, size):
    """mu with size added to the cumulative at samples in (0.4, 0.6)."""
    return TransverseMeasure(
        mu.heights, mu.totals + np.where(
            (mu.heights > 0.4) & (mu.heights < 0.6), size, 0.0))


def mirrored_shear_scene(shear=0.3, grid=17, samples=17, shear_b=None):
    """Two-box torus scene: one box sheared, the neighbor mirrored back.

    Face fibers agree bitwise, the within-box holonomy is the quadratic
    shear map, and pushing any one reference cumulative around the scene
    returns it, so every shared cumulative is an invariant measure.  A
    different shear_b for the mirrored box breaks that: the face between
    them then joins two different curved fibers.
    """
    shear_b = shear if shear_b is None else shear_b
    base = BaseDomain("rectangle", grid, grid)
    t = np.linspace(0.0, 1.0, samples)
    x = np.linspace(0.0, 1.0, grid)
    bump = (t * (1.0 - t))[:, None, None]
    ones = np.ones(grid)[None, None, :]
    vals_a = t[:, None, None] + shear * bump * x[None, :, None] * ones
    vals_b = (t[:, None, None]
              + shear_b * bump * (1.0 - x)[None, :, None] * ones)
    fam_a = LeafFamily(base, t, vals_a, (0, 0))
    fam_b = LeafFamily(base, t, vals_b, (grid - 1, 0))
    box_a = FlowBoxSpec.with_default_faces(
        "a", (0, Fraction(1, 2)), (0, 1), (0, 1), fam_a)
    box_b = FlowBoxSpec.with_default_faces(
        "b", (Fraction(1, 2), 1), (0, 1), (0, 1), fam_b)
    return DecompositionComplex((box_a, box_b))


# ----------------------------------------------------- transverse measures

def test_measure_validation():
    with pytest.raises(ValueError, match="strictly increasing"):
        TransverseMeasure(np.linspace(0, 1, 5),
                          np.array([0.0, 0.1, 0.1, 0.2, 0.3]))
    with pytest.raises(ValueError, match="exactly from 0 to 1"):
        TransverseMeasure(np.linspace(0, 0.9, 5), np.linspace(0, 1, 5))
    with pytest.raises(ValueError, match="start at exactly 0"):
        TransverseMeasure(np.linspace(0, 1, 5), np.linspace(0.1, 1, 5))
    with pytest.raises(ValueError, match="at least 2"):
        TransverseMeasure(np.array([0.0]), np.array([0.0]))
    leb = TransverseMeasure.lebesgue(9)
    with pytest.raises(ValueError, match="outside"):
        leb(1.5)


def test_lebesgue_and_sampling():
    leb = TransverseMeasure.lebesgue(33)
    assert leb(0.75) - leb(0.25) == pytest.approx(0.5, abs=1e-15)
    assert leb(0.3) == pytest.approx(0.3, abs=1e-15)
    mu = from_cumulative(lambda z: 2.0 + z * z + z, 21)
    assert mu(0.0) == 0.0
    assert mu.totals[-1] == pytest.approx(2.0, abs=1e-15)
    back = TransverseMeasure.from_json(mu.to_json())
    assert np.array_equal(back.heights, mu.heights)
    assert np.array_equal(back.totals, mu.totals)


# ------------------------------------------------- transversal smoothing

def test_smooth_identity_cumulative_is_fixed():
    leb = TransverseMeasure.lebesgue(33)
    report = {}
    f, new = smooth_measure_on_transversal(leb, 9, report)
    assert f.identity_defect() < 1e-14
    assert np.abs(new(leb.heights) - leb.totals).max() < 1e-14
    assert report["node_residual"] == 0.0


def test_smooth_quadratic_cumulative_matches_spline_and_bisection():
    mu = from_cumulative(lambda z: (z + z * z) / 2.0, 101)
    subsamples = 9
    f, new = smooth_measure_on_transversal(mu, subsamples)
    nodes = np.linspace(0.0, 1.0, subsamples)
    spline = PchipInterpolator(nodes, mu(nodes))
    assert np.abs(new(nodes) - spline(nodes)).max() <= 1e-12
    assert np.abs(new(new.heights) - spline(new.heights)).max() <= 1e-14
    assert np.all(np.diff(f.outputs) > 0.0)
    for t in f.inputs[1:-1]:
        target = float(spline(t))
        oracle = bisect_preimage(mu, target)
        assert float(f(t)) == pytest.approx(oracle, abs=1e-10)
    # push forward through f and land back on the spline
    assert np.abs(mu(f(new.heights)) - new.totals).max() <= 1e-12


def test_smooth_staircase_compresses_plateau():
    # subsampling must be coarser than the plateau, else the spline just
    # copies the flat stretch instead of averaging it away
    mu, collapse = staircase_measure()
    f, new = smooth_measure_on_transversal(mu, 4)
    lo, hi, _ = collapse.plateaus[0]
    f_inv = f.inverse()
    extent = float(f_inv(hi)) - float(f_inv(lo))
    assert extent < 0.3 * (hi - lo)
    assert np.abs(mu(f(new.heights)) - new.totals).max() <= 1e-12


def test_smooth_rejects_bad_inputs():
    leb = TransverseMeasure.lebesgue(9)
    with pytest.raises(ValueError, match="at least 4"):
        smooth_measure_on_transversal(leb, 3)
    broken = TransverseMeasure.lebesgue(5)
    object.__setattr__(broken, "totals",
                       np.array([0.0, 0.1, 0.1, 0.2, 0.3]))
    with pytest.raises(ValueError, match="strictly increasing"):
        smooth_measure_on_transversal(broken, 5)


@settings(max_examples=30, deadline=None)
@given(st.integers(4, 12),
       st.lists(st.floats(0.05, 2.0), min_size=4, max_size=24))
def test_smooth_random_cumulatives_spline_exact(subsamples, increments):
    totals = np.concatenate([[0.0], np.cumsum(increments)])
    heights = np.linspace(0.0, 1.0, totals.size)
    mu = TransverseMeasure(heights, totals)
    f, new = smooth_measure_on_transversal(mu, subsamples)
    nodes = np.linspace(0.0, 1.0, subsamples)
    spline = PchipInterpolator(nodes, mu(nodes))
    assert np.abs(new(nodes) - spline(nodes)).max() <= 1e-12
    assert np.all(np.diff(f.outputs) > 0.0)
    assert float(f(0.0)) == 0.0 and float(f(1.0)) == 1.0
    assert new.totals[-1] == pytest.approx(mu.totals[-1], abs=1e-12)


# ------------------------------------------------------ measured scenes

def horizontal_scene(grid=17, samples=17):
    return build_torus_scene(
        (2, 2), foliation={"kind": "horizontal",
                           "samples": samples, "grid": grid})


def test_measured_scene_validation():
    scene = horizontal_scene()
    leb = TransverseMeasure.lebesgue(9)
    with pytest.raises(ValueError, match="one measure per box"):
        MeasuredScene(scene, {"b00": leb})
    with pytest.raises(ValueError, match="not a transverse measure"):
        MeasuredScene(scene, {b.identifier: None for b in scene.boxes})


def test_scene_lebesgue_unchanged():
    scene = horizontal_scene()
    leb = TransverseMeasure.lebesgue(33)
    measured = MeasuredScene(scene, {b.identifier: leb
                                     for b in scene.boxes})
    report = {}
    out = smooth_measured_scene(measured, 9, report)
    assert report["pre_defect"] == 0.0
    assert report["post_defect"] == 0.0
    for box in scene.boxes:
        assert out.scene.box(box.identifier).family is box.family
        new = out.measure(box.identifier)
        assert np.abs(new(leb.heights) - leb.totals).max() <= 1e-12


def test_scene_nonsmooth_invariant_measure_replaced_by_splines():
    scene = horizontal_scene()
    mu, _ = staircase_measure()
    measured = MeasuredScene(scene, {b.identifier: mu for b in scene.boxes})
    report = {}
    out = smooth_measured_scene(measured, 9, report)
    names = [s["stage"] for s in report["stages"]]
    assert names == ["invariance pre-check",
                     "vertical-skeleton smoothing",
                     "maximal-face transport",
                     "interior cone extension"]
    nodes = np.linspace(0.0, 1.0, 9)
    spline = PchipInterpolator(nodes, mu(nodes))
    for box in scene.boxes:
        assert out.scene.box(box.identifier).family is box.family
        new = out.measure(box.identifier)
        assert np.abs(new(nodes) - spline(nodes)).max() <= 1e-12
    assert report["post_defect"] < 1e-9
    assert report["post_defect"] <= report["pre_defect"] + 1e-15
    assert scene_invariance_defect(out) < 1e-9


def test_scene_never_increases_defect():
    # a just-invariant input (one box's cumulative nudged within the
    # pre-check budget) comes out exactly consistent: the face transport
    # stage propagates a single smoothed reference everywhere
    scene = horizontal_scene()
    mu = kinked_measure()
    measures = {b.identifier: mu for b in scene.boxes}
    measures["b11"] = nudged_measure(mu, 1e-8)
    measured = MeasuredScene(scene, measures)
    pre = scene_invariance_defect(measured)
    assert 0.0 < pre <= 1e-6
    out = smooth_measured_scene(measured, 9)
    assert scene_invariance_defect(out) <= pre


def test_scene_rejects_noninvariant_measure():
    scene = build_torus_scene(
        (2, 1), foliation={"kind": "sheared", "shear": 0.3,
                           "samples": 17, "grid": 17})
    leb = TransverseMeasure.lebesgue(33)
    measured = MeasuredScene(scene, {b.identifier: leb
                                     for b in scene.boxes})
    with pytest.raises(ValueError, match="invariance defect"):
        smooth_measured_scene(measured)


def _assert_matches_invariance_oracle(measured):
    report, ref_report = {}, {}
    value = scene_invariance_defect(measured, report)
    assert value == scene_invariance_defect_oracle(measured, ref_report)
    assert report == ref_report
    return value


def _sheared_torus(shear, samples=17, grid=17):
    return build_torus_scene(
        (2, 2), foliation={"kind": "sheared", "shear": shear,
                           "samples": samples, "grid": grid})


def test_scene_invariance_defect_matches_oracle_on_invariant_scenes():
    staircase, _ = staircase_measure()
    for scene, mu in ((horizontal_scene(), kinked_measure()),
                      (horizontal_scene(), staircase),
                      (mirrored_shear_scene(), staircase)):
        measured = MeasuredScene(scene, {b.identifier: mu
                                         for b in scene.boxes})
        assert _assert_matches_invariance_oracle(measured) <= 1e-12


def test_scene_invariance_defect_matches_oracle_on_noninvariant_scenes():
    for leb in (TransverseMeasure.lebesgue(33), TransverseMeasure.lebesgue(2)):
        scene = _sheared_torus(0.3)
        measured = MeasuredScene(scene, {b.identifier: leb
                                         for b in scene.boxes})
        assert _assert_matches_invariance_oracle(measured) > 1e-3
    scene = horizontal_scene()
    mu = kinked_measure()
    measures = {b.identifier: mu for b in scene.boxes}
    measures["b11"] = nudged_measure(mu, 1e-8)
    measured = MeasuredScene(scene, measures)
    assert _assert_matches_invariance_oracle(measured) > 0.0
    leb = TransverseMeasure.lebesgue(2)
    measured = MeasuredScene(mirrored_shear_scene(0.3, shear_b=-0.2),
                             {"a": leb, "b": leb})
    assert _assert_matches_invariance_oracle(measured) > 1e-3


@st.composite
def measured_scenes(draw):
    """A horizontal or sheared 2 x 2 torus scene, or a mirrored two-box
    scene with unequal shears, with a random cumulative, sampled at random
    heights, on each box."""
    kind = draw(st.sampled_from(["horizontal", "sheared", "mirrored"]))
    grid = draw(st.sampled_from([9, 17]))
    samples = draw(st.integers(2, 17))
    if kind == "horizontal":
        scene = horizontal_scene(grid, samples)
    elif kind == "sheared":
        scene = _sheared_torus(draw(st.sampled_from([0.3, -0.45])),
                               samples, grid)
    else:
        scene = mirrored_shear_scene(draw(st.floats(-0.5, 0.5)), grid,
                                     samples, draw(st.floats(-0.5, 0.5)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    measures = {}
    for box in scene.boxes:
        # n = 0 leaves a linear cumulative, whose defect sits at fiber nodes
        n = int(rng.integers(0, 40))
        heights = np.concatenate([[0.0], np.sort(rng.uniform(0, 1, n)), [1.0]])
        if draw(st.booleans()):
            heights = np.union1d(heights, box.family.t)
        heights = np.unique(heights)
        totals = np.concatenate([[0.0], np.cumsum(
            rng.uniform(1e-3, 1.0, heights.size - 1))])
        measures[box.identifier] = TransverseMeasure(heights, totals)
    return MeasuredScene(scene, measures)


@settings(max_examples=40, deadline=None)
@given(measured_scenes())
def test_scene_invariance_defect_matches_oracle_on_random_measures(measured):
    assert _assert_matches_invariance_oracle(measured) > 0.0


def wave_scene(p, q, amplitude, phase, grid=17, samples=9):
    """2 x 2 torus scene cut from one periodic family
    h(x, y, s) = s + a(x, y) s (1 - s), a = amplitude cos(2 pi (p x + q y)
    + phase), with one measure per box: Lebesgue measure in s.

    Each box is indexed by its leaf heights over its origin corner, so the
    leaf index sets differ box to box while the fibers agree on every shared
    face, and the measure is invariant.  a is evaluated with math.cos, node
    by node, so the scene's bits do not depend on numpy's vector cos.
    """
    s = np.linspace(0.0, 1.0, samples)
    base = BaseDomain("rectangle", grid, grid)
    boxes, measures = [], {}
    for i in range(2):
        for j in range(2):
            a = np.array([[amplitude * math.cos(
                2.0 * math.pi * (p * (i + k / (grid - 1)) / 2
                                 + q * (j + l / (grid - 1)) / 2) + phase)
                for l in range(grid)] for k in range(grid)])
            vals = s[:, None, None] + a[None] * (s * (1.0 - s))[:, None, None]
            fam = LeafFamily(base, vals[:, 0, 0], vals, (0, 0))
            ident = f"b{i}{j}"
            boxes.append(FlowBoxSpec.with_default_faces(
                ident, (Fraction(i, 2), Fraction(i + 1, 2)),
                (Fraction(j, 2), Fraction(j + 1, 2)), (0, 1), fam))
            measures[ident] = TransverseMeasure(fam.t, s)
    return MeasuredScene(DecompositionComplex(tuple(boxes)), measures)


@pytest.mark.parametrize("p, q, phase", [(1, 1, 1.3), (1, -1, 2.0)])
def test_scene_transport_merges_ulp_close_heights(p, q, phase):
    # the transported grid of a face whose chain is not the identity once
    # kept two heights an ulp apart whose images coincide, so the pipeline
    # rejected its own transported cumulative as not strictly increasing
    measured = wave_scene(p, q, 0.5, phase)
    assert scene_invariance_defect(measured) <= 1e-15
    report = {}
    smooth_measured_scene(measured, 9, report=report)
    assert report["post_defect"] < 1e-9


def test_scene_rejects_invalid_decomposition():
    scene = build_torus_scene(
        (2, 2), height_splits={(0, 0): [Fraction(1, 2)]})
    assert not validate(scene)["valid"]
    leb = TransverseMeasure.lebesgue(9)
    measured = MeasuredScene(scene, {b.identifier: leb
                                     for b in scene.boxes})
    with pytest.raises(ValueError, match="fails validation"):
        smooth_measured_scene(measured)


def test_sheared_but_invariant_scene_conjugation_oracle():
    shear = 0.3
    scene = mirrored_shear_scene(shear)
    assert validate(scene)["valid"]
    mu, _ = staircase_measure()
    measured = MeasuredScene(scene, {"a": mu, "b": mu})
    assert scene_invariance_defect(measured) <= 1e-12
    out = smooth_measured_scene(measured, 9)
    fam = scene.box("a").family
    grid = fam.base.nx
    e_west = fiber_map(fam, (0, 0))
    e_east = fiber_map(fam, (grid - 1, 0))
    [rho] = fiber_transports(fam, [(0, 0), (grid - 1, 0)])
    oracle = HolonomyMap(fam.t, fam.t + shear * fam.t * (1.0 - fam.t))
    assert rho.max_difference(oracle) <= 1e-12
    # after smoothing the holonomy is the conjugate of the identity by the
    # field cumulatives on its two fibers
    mu_a = out.measure("a")
    conj = _field_map(mu_a, e_east).inverse().compose(
        _field_map(mu_a, e_west))
    assert rho.max_difference(conj) <= 1e-9
    # the mirrored box carries the inverse transport
    fam_b = scene.box("b").family
    [rho_b] = fiber_transports(fam_b, [(0, 0), (grid - 1, 0)])
    assert rho_b.max_difference(oracle.inverse()) <= 1e-12


# ------------------------------------------------------------- tischler

def test_tischler_rational_passthrough():
    form = ClosedOneForm((1, 0))
    report = {}
    rational, fibration = tischler_fibration(form, 0.5, report)
    assert rational is form
    assert fibration["period"] == 1
    assert fibration["closes_exactly"]
    assert fibration["distinct_before_return"]
    assert report["angle_defect"] == 0.0
    exact = ClosedOneForm((Fraction(1), Fraction(17, 12)))
    rational, fibration = tischler_fibration(exact, 1e-6)
    assert rational is exact
    assert fibration["period"] == 12


def test_tischler_sqrt2_convergents():
    convergents = sqrt2_convergents_by_hand()
    assert convergents[3] == Fraction(17, 12)
    assert convergents[4] == Fraction(41, 29)
    form = ClosedOneForm((1, math.sqrt(2.0)))

    report = {}
    rational, fibration = tischler_fibration(form, 1e-3, report)
    assert rational.coefficients == (Fraction(1), Fraction(17, 12))
    assert report["angle_defect"] == pytest.approx(kernel_angle(Fraction(17, 12)),
                                                   abs=1e-15)
    assert report["angle_defect"] == pytest.approx(8.2e-4, abs=1e-5)
    assert report["angle_defect"] < 1e-3
    assert fibration["period"] == 12

    rational, fibration = tischler_fibration(form, 1e-4)
    assert rational.coefficients == (Fraction(1), Fraction(41, 29))
    assert fibration["period"] == 29
    assert kernel_angle(Fraction(41, 29)) == pytest.approx(1.4e-4, abs=1e-5)


def test_tischler_minimality_under_the_halfangle_rule():
    # epsilon bounds the half-angle between unoriented kernel lines: the
    # chosen convergent is the first with full angle below 2*epsilon
    convergents = sqrt2_convergents_by_hand()
    for eps, expect in [(1e-3, Fraction(17, 12)), (1e-4, Fraction(41, 29))]:
        rational, _ = tischler_fibration(
            ClosedOneForm((1, math.sqrt(2.0))), eps)
        chosen = rational.coefficients[1]
        assert chosen == expect
        assert kernel_angle(chosen) < 2.0 * eps
        for earlier in convergents[:convergents.index(expect)]:
            assert kernel_angle(earlier) >= 2.0 * eps


def test_tischler_certificate_exact_strip_walk():
    rational, fibration = tischler_fibration(
        ClosedOneForm((1, math.sqrt(2.0))), 1e-3)
    ratio = rational.coefficients[1]
    q = fibration["period"]
    assert q == 12
    hand = strip_walk_by_hand(ratio, q)
    assert len(set(hand)) == q
    assert Fraction(q) * ratio % 1 == 0
    walked = [Fraction(point[1]) for point in fibration["orbit"]]
    assert walked == hand
    assert fibration["closes_exactly"]
    assert fibration["distinct_before_return"]


def test_tischler_three_coefficients():
    rational, fibration = tischler_fibration(ClosedOneForm((2, 1, 0)), 1e-3)
    assert fibration["period"] == 2
    assert fibration["closes_exactly"]
    mixed = ClosedOneForm((1, math.sqrt(2.0), Fraction(1, 2)))
    rational, fibration = tischler_fibration(mixed, 1e-3)
    assert rational.coefficients[2] == Fraction(1, 2)
    assert rational.coefficients[1] in sqrt2_convergents_by_hand()
    assert ClosedOneForm(mixed.coefficients).angle_to(rational) < 2e-3
    assert fibration["period"] % 2 == 0


def test_tischler_rejects_bad_inputs():
    with pytest.raises(ValueError, match="positive"):
        tischler_fibration(ClosedOneForm((1, 0)), 0.0)
    with pytest.raises(ValueError, match="nonzero"):
        ClosedOneForm((0, 0))
    with pytest.raises(ValueError, match="coefficients"):
        ClosedOneForm((1,))
