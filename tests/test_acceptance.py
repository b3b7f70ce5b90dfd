"""Acceptance suite: one test per criterion, with pinned tolerances and
runtime budgets.  Run with -v to get one pass/fail line per criterion."""

import math
import time
from fractions import Fraction

import numpy as np
import pytest
from scipy.interpolate import PchipInterpolator

from flowbox.decomposition import (
    build_torus_scene,
    enforce_condition5,
    validate,
)
from flowbox.denjoy import (
    blowup_box,
    blowup_circle_map,
    blowup_scene,
    rotation_number,
    verify_blowup,
    wandering_audit,
)
from flowbox.foliation import (
    BaseDomain,
    LeafFamily,
    c0_distance,
    holonomy,
    horizontal_family,
    sheared_family,
)
from flowbox.kernel import InsertionSchedule, Partition, build_collapse
from flowbox.measure import (
    ClosedOneForm,
    MeasuredScene,
    TransverseMeasure,
    scene_invariance_defect,
    smooth_measured_scene,
    tischler_fibration,
)
from flowbox.smoothing import (
    formula_residual,
    globally_smooth,
    smooth_in_t,
    smooth_with_holonomy_constraint,
)

GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


def random_monotone_family(base, m, rng, amp=0.35):
    # anchored f_t = t + amp * t(1-t) * psi(x, y) with |psi| <= 1
    x, y = np.meshgrid(base.x_nodes, base.y_nodes, indexing="ij")
    c = rng.uniform(-1.0, 1.0, size=4)
    psi = c[0] * x + c[1] * y + c[2] * x * y + c[3] * x * x
    psi = psi - psi[0, 0]
    psi /= max(1.0, float(np.max(np.abs(psi))))
    t = np.linspace(0.0, 1.0, m)
    vals = t[:, None, None] + amp * (t * (1.0 - t))[:, None, None] * psi[None]
    return LeafFamily(base, t, vals, (0, 0))


def test_criterion_1_collapse_exactness():
    # 100 random schedules (<= 20 entries): plateau widths w_i/(1+w) within
    # 1e-12 and p o (complement re-embedding) = id within 1e-12, < 1 s
    start = time.perf_counter()
    rng = np.random.default_rng(20260816)
    positions = np.linspace(0.02, 0.98, 481)
    y = np.linspace(0.0, 1.0, 257)
    for _ in range(100):
        n = int(rng.integers(1, 21))
        zs = np.sort(rng.choice(positions, size=n, replace=False))
        ws = rng.uniform(0.05, 3.0, size=n)
        schedule = InsertionSchedule(tuple(zs), tuple(ws))
        p = build_collapse(schedule)
        w = schedule.total_weight
        assert len(p.plateaus) == n
        for (lo, hi, _level), wi in zip(p.plateaus, ws):
            assert abs((hi - lo) - wi / (1.0 + w)) <= 1e-12
        assert np.max(np.abs(p(p.complement_embedding(y)) - y)) <= 1e-12
    assert time.perf_counter() - start < 1.0


def test_criterion_2_smoothing_formula_and_c0_budget():
    # 50 random monotone families (33x33 grid, 65 t-samples): convex-
    # combination residual <= 1e-12 at nodes and every requested epsilon
    # in {0.3, 0.1, 0.03} achieved by c0_distance, < 30 s
    start = time.perf_counter()
    rng = np.random.default_rng(7)
    base = BaseDomain("rectangle", 33, 33)
    for _ in range(50):
        family = random_monotone_family(base, 65, rng)
        for epsilon in (0.3, 0.1, 0.03):
            report = {}
            smoothed = smooth_in_t(family, epsilon, report=report)
            partition = Partition(tuple(report["partition_points"]))
            assert formula_residual(family, smoothed, partition) <= 1e-12
            assert c0_distance(family, smoothed) <= epsilon
    assert time.perf_counter() - start < 30.0


def test_criterion_3_holonomy_preservation():
    # the sheared benchmark (shear along the core path): rho_P(alpha)
    # reproduced within 1e-9 at 101 fiber samples, declared bands
    # bit-exact, < 5 s
    start = time.perf_counter()
    base = BaseDomain("rectangle", 33, 33)
    family = sheared_family(base, 0.5, m=65, axis="y")
    smoothed = smooth_with_holonomy_constraint(family, 0.15)
    assert c0_distance(family, smoothed) <= 0.15
    alpha = (0.5, 0.0), (0.5, 1.0)
    zs = np.linspace(0.0, 1.0, 101)
    rho_in = holonomy(family, *alpha)(zs)
    rho_out = holonomy(smoothed, *alpha)(zs)
    assert np.max(np.abs(rho_out - rho_in)) <= 1e-9
    # default bands: five grid columns at each horizontal edge
    reference = family.leaves_at(smoothed.t)
    assert np.array_equal(smoothed.values[:, :, :5], reference[:, :, :5])
    assert np.array_equal(smoothed.values[:, :, 28:], reference[:, :, 28:])
    assert time.perf_counter() - start < 5.0


def test_criterion_4_global_pipeline_ladder():
    # sheared T^3 2x2 scene: each epsilon in {0.3, 0.15, 0.075} achieved
    # with face defect < 1e-6, achieved distances monotone decreasing, < 60 s
    start = time.perf_counter()
    scene = build_torus_scene((2, 2), foliation={
        "kind": "sheared", "shear": 0.1, "grid": 33, "samples": 17})
    achieved = []
    for epsilon in (0.3, 0.15, 0.075):
        report = {}
        out = globally_smooth(scene, epsilon, report=report)
        assert report["achieved_distance"] <= epsilon
        assert report["face_defect_after"] < 1e-6
        # smoothing in t keeps only cut leaves, so the blends' unions of
        # leaf indices stay small instead of growing into the hundreds
        assert max(box.family.m for box in out.boxes) <= 64
        achieved.append(report["achieved_distance"])
    assert achieved[0] > achieved[1] > achieved[2] > 0.0
    assert time.perf_counter() - start < 60.0


def test_criterion_5_condition5_induction():
    # split-t3 fails validate with the predicted witness, passes after
    # enforce_condition5, volume conserved within 1e-12, < 1 s
    start = time.perf_counter()
    scene = build_torus_scene((2, 2),
                              height_splits={(0, 0): [Fraction(1, 2)]})
    report = validate(scene)
    assert not report["valid"]
    cond5 = report["conditions"]["5"]
    assert not cond5["pass"]
    witness = cond5["witnesses"][0]
    # a later full-height cell meets an earlier half-height cell
    assert witness["later"][0] in ("b01", "b10")
    assert witness["earlier"][0] in ("b00.0", "b00.1")
    assert witness["later"][3] == ["0", "1"]
    assert witness["earlier"][3] in (["0", "1/2"], ["1/2", "1"])
    fixed = enforce_condition5(scene)
    assert validate(fixed)["valid"]
    assert abs(float(fixed.volume) - float(scene.volume)) <= 1e-12
    assert time.perf_counter() - start < 1.0


def test_criterion_6_denjoy_blowup_verification():
    # single-leaf blowup on the horizontal T^3 scene: all eight checks at
    # 1e-9; per-box restriction equals independent per-box blowup within
    # 1e-10; halving the total weight strictly decreases the C0 distance
    # (sheared packet), < 30 s
    start = time.perf_counter()
    scene = build_torus_scene((2, 2), foliation={
        "kind": "horizontal", "grid": 33, "samples": 17})
    base = BaseDomain("rectangle", 33, 33)
    packets = (sheared_family(base, 0.3, 17),)

    achieved = []
    for total_weight in (0.1, 0.05):
        schedule = InsertionSchedule((0.5,), (total_weight,))
        report = {}
        blown, collapse = blowup_scene(scene, schedule, packets,
                                       epsilon=0.5, report=report)
        achieved.append(report["achieved_distance"])
        if total_weight == 0.1:
            verification = verify_blowup(scene, blown, collapse)
            assert verification["tolerance"] == 1e-9
            assert len(verification["properties"]) == 8
            assert all(row["pass"] for row in verification["properties"])
            assert verification["all_pass"]
            for box in scene.boxes:
                ident = box.identifier
                solo, _solo_collapse = blowup_box(box.family, schedule, packets)
                got = blown.box(ident).family
                np.testing.assert_array_equal(got.t, solo.t)
                assert np.max(np.abs(got.values - solo.values)) <= 1e-10
    assert achieved[1] < achieved[0]
    assert time.perf_counter() - start < 30.0


def test_criterion_7_circle_shadow():
    # golden-mean blowup with 10^3 orbit points: rotation number within
    # 1e-3 over 10^5 iterations and no gap revisits itself within 10^4
    # iterates, < 10 s
    start = time.perf_counter()
    report = {}
    lift = blowup_circle_map(GOLDEN, 1000, report=report)
    rho = rotation_number(lift, 100000)
    assert abs(rho - GOLDEN) < 1e-3
    gaps = [tuple(v) for v in report["gaps"].values()]
    audit = wandering_audit(lift, gaps, 10000)
    assert audit["revisits"] == 0
    assert audit["wandering"]
    assert time.perf_counter() - start < 10.0


def test_criterion_8_tischler_certificate():
    # (1, sqrt 2) at epsilon 1e-3 yields 17/12 with angle defect about
    # 8.2e-4 < epsilon and exact period 12; epsilon 1e-4 yields 41/29, < 1 s
    start = time.perf_counter()
    form = ClosedOneForm((1, math.sqrt(2.0)))

    report = {}
    rational, certificate = tischler_fibration(form, 1e-3, report=report)
    assert rational.coefficients == (Fraction(1), Fraction(17, 12))
    # exact value 8.167567e-4; the approx window covers the two-figure
    # rounding of the stated 8.2e-4
    assert report["angle_defect"] == pytest.approx(8.2e-4, abs=5e-6)
    assert report["angle_defect"] < 1e-3
    assert certificate["period"] == 12
    assert certificate["closes_exactly"]
    assert certificate["distinct_before_return"]
    orbit = certificate["orbit"]
    assert len(orbit) == 12
    assert len({tuple(point) for point in orbit}) == 12
    # q r integral for every coefficient ratio: the exact certificate
    assert (12 * Fraction(17, 12)).denominator == 1

    rational_fine, certificate_fine = tischler_fibration(form, 1e-4)
    assert rational_fine.coefficients == (Fraction(1), Fraction(41, 29))
    assert certificate_fine["period"] == 29
    assert time.perf_counter() - start < 1.0


def test_criterion_9_measure_pipeline():
    # horizontal scene with a non-smooth invariant measure: leaves
    # unchanged, spline-exact cumulatives (residual <= 1e-12 at the
    # subsample nodes), invariance defect < 1e-9, < 10 s
    start = time.perf_counter()
    scene = build_torus_scene((2, 2), foliation={
        "kind": "horizontal", "grid": 17, "samples": 9})
    heights = np.linspace(0.0, 1.0, 41)
    totals = 0.85 * heights + 0.3 * np.minimum(heights, 0.5)
    totals /= totals[-1]
    kinked = TransverseMeasure(heights, totals)
    measured = MeasuredScene(scene, {box.identifier: kinked
                                     for box in scene.boxes})
    report = {}
    smoothed = smooth_measured_scene(measured, subsample_count=9,
                                     report=report)
    assert smoothed.scene is scene
    nodes = np.linspace(0.0, 1.0, 9)
    spline = PchipInterpolator(nodes, kinked(nodes))
    for box in scene.boxes:
        mu = smoothed.measures[box.identifier]
        assert np.max(np.abs(mu(nodes) - kinked(nodes))) <= 1e-12
        assert np.max(np.abs(mu(mu.heights) - spline(mu.heights))) <= 1e-12
    assert report["post_defect"] < 1e-9
    assert scene_invariance_defect(smoothed) < 1e-9
    assert time.perf_counter() - start < 10.0
