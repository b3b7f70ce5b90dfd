import json
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from flowbox.decomposition import (
    DecompositionComplex,
    FlowBoxSpec,
    build_torus_scene,
    shared_faces,
    with_families,
)
from flowbox.denjoy import (
    CircleMapLift,
    _leaf_membership_spread,
    _packet_scene_defect,
    _verify_pairs,
    birkhoff_estimate,
    blowup_box,
    blowup_circle_map,
    blowup_scene,
    circle_orbit,
    rotation_number,
    verify_blowup,
    wandering_audit,
)
from flowbox.foliation import (
    BaseDomain,
    LeafFamily,
    c0_distance,
    horizontal_family,
    sheared_family,
)
from flowbox.kernel import (
    COMPARISON_TOL,
    SOLVER_TOL,
    CollapseMap,
    InsertionSchedule,
    LadderError,
    build_collapse,
)
from flowbox.smoothing import face_transport_defect

from test_foliation import leaf_families, leaf_through

GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


# ---------------------------------------------------------------- oracles

def gap_intervals_by_hand(points, weights):
    """Independent insertion arithmetic: stretch [0,1] to [0,1+w], open an
    interval of width w_i at each point, rescale back to unit length."""
    total = sum(weights)
    out, cum = [], 0.0
    for z, w in zip(points, weights):
        lo = (z + cum) / (1.0 + total)
        out.append((lo, lo + w / (1.0 + total)))
        cum += w
    return out


def sheared_packet_distance(gap_width, shear):
    """Largest normal angle an x-sheared packet can reach once its gradients
    are scaled by the gap width: the shear profile t(1-t) peaks at 1/4."""
    return math.atan(gap_width * shear / 4.0)


def circle_gaps_by_hand(alpha, n, weight_rule):
    """Blown-circle gap intervals computed from scratch: orbit points, the
    inserted weight strictly below each one, rescale by the total."""
    ks = np.arange(-n, n + 1)
    orbit = np.mod(ks * alpha, 1.0)
    w = np.array([weight_rule(int(k)) for k in ks])
    order = np.argsort(orbit)
    below = np.zeros(ks.size)
    below[order] = np.concatenate([[0.0], np.cumsum(w[order])[:-1]])
    total = float(np.sum(w))
    lo = (orbit + below) / (1.0 + total)
    hi = (orbit + below + w) / (1.0 + total)
    return {int(k): (float(lo[i]), float(hi[i])) for i, k in enumerate(ks)}


def wandering_audit_oracle(lift: CircleMapLift, gaps, steps: int) -> dict:
    """Iterate every gap interval under the lift and look for a return onto
    itself (open-interval overlap on the circle).

    Zero revisits certifies wandering behavior at this finite horizon,
    nothing more; the truncated tail of the orbit is not blown up and an
    interval can in principle leak through it at longer horizons.
    """
    gaps = [(float(lo), float(hi)) for lo, hi in gaps]
    lo0 = np.array([g[0] for g in gaps])
    hi0 = np.array([g[1] for g in gaps])
    if np.any(hi0 <= lo0):
        raise ValueError("gap intervals must have positive length")
    cur_lo, cur_hi = lo0.copy(), hi0.copy()
    revisits, first = 0, None
    for step in range(1, int(steps) + 1):
        cur_lo, cur_hi = lift(cur_lo), lift(cur_hi)
        f_lo = np.mod(cur_lo, 1.0)
        f_hi = np.mod(cur_hi, 1.0)
        plain = f_lo <= f_hi
        hit = np.where(plain,
                       np.minimum(f_hi, hi0) > np.maximum(f_lo, lo0),
                       (f_lo < hi0) | (f_hi > lo0))
        k = int(np.count_nonzero(hit))
        if k and first is None:
            first = {"step": step, "gap": int(np.argmax(hit))}
        revisits += k
    return {"operation": "wandering_audit", "steps": int(steps),
            "gaps": len(gaps), "revisits": revisits,
            "wandering": revisits == 0, "first_revisit": first}


def leaf_membership_by_inverse(original, collapsed_leaf, nodes):
    """Spread of original leaf indices over one collapsed leaf graph, probed
    point by point through the bisection oracle leaf_through."""
    ids = [leaf_through(original, (x, y), float(collapsed_leaf[i, j]))
           for (i, j, x, y) in nodes]
    return max(ids) - min(ids)


def leaf_membership_spread_oracle(orig: LeafFamily,
                                  heights: np.ndarray) -> tuple:
    """The per-node loop _leaf_membership_spread replaced: one np.interp
    through each node's original fiber."""
    m = heights.shape[0]
    cols = heights.reshape(m, -1)
    fibers = orig.values.reshape(orig.m, -1)
    lo = hi = None
    for node in range(cols.shape[1]):
        idx = np.interp(cols[:, node], fibers[:, node], orig.t)
        if lo is None:
            lo, hi = idx.copy(), idx.copy()
        else:
            np.minimum(lo, idx, out=lo)
            np.maximum(hi, idx, out=hi)
    gaps = hi - lo
    k = int(np.argmax(gaps))
    return float(gaps[k]), {"leaf_row": k, "spread": float(gaps[k])}


def collapse_preimage(collapse: CollapseMap, y: float):
    """The collapse map's scalar inverse as CollapseMap.preimage gave it:
    the plateau (x_lo, x_hi) if y is within SOLVER_TOL of a collapsed
    value, else the point of the first piece whose image holds y."""
    y = float(y)
    if not -SOLVER_TOL <= y <= 1.0 + SOLVER_TOL:
        raise ValueError("value outside [0, 1]")
    for x_lo, x_hi, v in collapse.plateaus:
        if abs(y - v) <= SOLVER_TOL:
            return (x_lo, x_hi)
    for x_lo, x_hi, y_lo, y_hi in collapse.pieces:
        if y_lo - SOLVER_TOL <= y <= y_hi + SOLVER_TOL:
            u = (y - y_lo) / (y_hi - y_lo)
            u = min(max(u, 0.0), 1.0)
            return x_lo + u * (x_hi - x_lo)
    raise ValueError("no preimage found")


def verify_blowup_oracle(original, blown, collapse: CollapseMap) -> dict:
    """verify_blowup as it was before it grouped byte-equal box pairs and
    dropped the scalar preimage: every per-box property loops over every
    box, properties 6 and 7 each collapse every blown family, and property
    5 inverts one point at a time."""
    pairs = {b.identifier: (b.family, blown.box(b.identifier).family)
             for b in original.boxes}
    rows = []

    def add(num, label, defect, witness=None):
        row = {"property": num, "label": label, "defect": float(defect),
               "pass": bool(defect <= COMPARISON_TOL)}
        if witness is not None and not row["pass"]:
            row["witness"] = witness
        rows.append(row)

    defect, wit = 0.0, None
    for key, (_orig, fam) in pairs.items():
        slack = float(np.min(np.diff(fam.values, axis=0)))
        bad = 0.0 if slack > 0.0 else max(-slack, 10.0 * SOLVER_TOL)
        if bad > defect:
            defect, wit = bad, {"box": key, "min_step": slack}
    add(1, "blown leaves transverse to the flow (strictly monotone)",
        defect, wit)

    gaps = collapse.gaps
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

    defect, wit = 0.0, None
    us = np.linspace(0.0, 1.0, 9)
    for i, (lo, hi) in enumerate(gaps):
        img = collapse.inject(i, us)
        bad = max(float(lo - img.min()), float(img.max() - hi),
                  float(np.max(-np.diff(img))) if img.size > 1 else 0.0)
        if bad > defect:
            defect, wit = bad, {"gap": i}
    add(3, "injection is fiberwise monotone into its own gap", defect, wit)

    defect, wit = 0.0, None
    for key, (_orig, fam) in pairs.items():
        for i, (lo, hi) in enumerate(gaps):
            walls = fam.leaves_at(np.array([lo, hi]))
            bad = max(float(np.max(np.abs(walls[0] - lo))),
                      float(np.max(np.abs(walls[1] - hi))))
            if bad > defect:
                defect, wit = bad, {"box": key, "gap": i}
    add(4, "gap boundary graphs are leaves of the blown family", defect, wit)

    defect, wit = 0.0, None
    points = tuple(z for _lo, _hi, z in collapse.plateaus)
    for z, (lo, hi) in zip(points, gaps):
        pre = collapse_preimage(collapse, z)
        bad = max(abs(pre[0] - lo), abs(pre[1] - hi))
        if bad > defect:
            defect, wit = bad, {"point": z}
    pts = np.array(points) if points else np.empty(0)
    for key, (orig, _fam) in pairs.items():
        off = orig.t[(np.min(np.abs(orig.t[:, None] - pts[None, :]), axis=1)
                      > 1e-6)] if pts.size else orig.t
        for z in off:
            bad = abs(float(collapse(collapse_preimage(collapse, float(z))))
                      - float(z))
            if bad > defect:
                defect, wit = bad, {"box": key, "point": float(z)}
    add(5, "preimage is a point off the locus and the whole gap on it",
        defect, wit)

    defect, wit = 0.0, None
    for key, (orig, fam) in pairs.items():
        collapsed = collapse(fam.values)
        spread, local = _leaf_membership_spread(orig, collapsed)
        if spread > defect:
            defect, wit = spread, {"box": key, **local}
    add(6, "collapse sends each blown leaf onto one original leaf",
        defect, wit)

    defect, wit = 0.0, None
    for key, (_orig, fam) in pairs.items():
        if fam.base.nx < 5 or fam.base.nx % 2 == 0 or fam.base.ny % 2 == 0:
            continue
        collapsed = collapse(fam.values)
        dx = 1.0 / (fam.base.nx - 1)
        g_full = np.gradient(collapsed, dx, axis=1)[:, ::2, ::2]
        g_half = np.gradient(collapsed[:, ::2, ::2], 2.0 * dx, axis=1)
        bad = float(np.max(np.abs(g_full - g_half)))
        if bad > defect:
            defect, wit = bad, {"box": key}
    add(7, "leafwise derivative stable under grid coarsening (diagnostic)",
        defect, wit)

    zs = np.linspace(0.0, 1.0, 257)
    id_defect = float(np.max(np.abs(collapse.isotopy(0.0, zs) - zs)))
    end_defect = float(np.max(np.abs(collapse.isotopy(1.0, zs)
                                     - collapse(zs))))
    mono = 0.0
    for s in (0.25, 0.5, 0.75, 1.0):
        mono = max(mono, -float(np.min(np.diff(collapse.isotopy(s, zs)))))
    add(8, "collapse is the time-one map of a monotone straight-line isotopy",
        max(id_defect, end_defect, mono))

    worst = max(r["defect"] for r in rows)
    return {"operation": "verify_blowup", "tolerance": COMPARISON_TOL,
            "properties": rows, "max_defect": worst,
            "all_pass": all(r["pass"] for r in rows)}


def rotation_number_oracle(lift, iterations: int,
                           report: dict | None = None) -> float:
    """rotation_number before it was split into circle_orbit and
    birkhoff_estimate."""
    n = int(iterations)
    if n < 1000:
        raise ValueError("rotation number needs at least 1000 iterations")
    x0 = 0.0
    x = x0
    prev = 0.0
    for i in range(n):
        if i == n - 1:
            prev = (x - x0) / (n - 1)
        x = float(lift(x))
    estimate = (x - x0) / n
    if report is not None:
        report.update({
            "operation": "rotation_number",
            "iterations": n,
            "estimate": estimate,
            "error_proxy": abs(estimate - prev),
        })
    return estimate


# ---------------------------------------------------------------- one box

def test_blowup_box_empty_schedule_is_identity():
    base = BaseDomain("rectangle", 9, 9)
    fam = horizontal_family(base, 9)
    blown, collapse = blowup_box(fam, InsertionSchedule((), ()), [])
    assert blown is fam
    z = np.linspace(0.0, 1.0, 33)
    np.testing.assert_array_equal(collapse(z), z)
    assert collapse.gaps == ()


def test_blowup_box_single_leaf_gap_quarters():
    base = BaseDomain("rectangle", 9, 9)
    fam = horizontal_family(base, 17)
    blown, collapse = blowup_box(fam, InsertionSchedule((0.5,), (1.0,)),
                                 [horizontal_family(base, 17)])
    assert collapse.gaps == ((0.25, 0.75),)
    # the gap collapses to the blown leaf, the complement maps with slope 2
    assert float(collapse(0.25)) == 0.5
    assert float(collapse(0.75)) == 0.5
    assert float(collapse(0.5)) == 0.5
    assert float(collapse(0.1)) == pytest.approx(0.2, abs=1e-15)
    assert float(collapse(0.875)) == pytest.approx(0.75, abs=1e-15)
    # horizontal packet keeps the family horizontal: 16 complement leaves
    # (the blown sample is replaced) plus 17 packet leaves
    assert blown.m == 33
    assert c0_distance(fam, blown) == 0.0
    np.testing.assert_array_equal(
        blown.values, np.broadcast_to(blown.t[:, None, None],
                                      blown.values.shape))


def test_blowup_box_gaps_match_hand_computation():
    base = BaseDomain("rectangle", 9, 9)
    fam = horizontal_family(base, 9)
    points, weights = (0.25, 0.75), (0.5, 0.5)
    blown, collapse = blowup_box(fam, InsertionSchedule(points, weights),
                                 [horizontal_family(base, 7)] * 2)
    assert collapse.gaps == ((0.125, 0.375), (0.625, 0.875))
    by_hand = gap_intervals_by_hand(points, weights)
    for got, want in zip(collapse.gaps, by_hand):
        assert got[0] == pytest.approx(want[0], abs=1e-15)
        assert got[1] == pytest.approx(want[1], abs=1e-15)


def test_blowup_box_sheared_packet_distance():
    base = BaseDomain("rectangle", 17, 17)
    fam = horizontal_family(base, 17)
    shear, weight = 0.3, 1.0
    blown, _collapse = blowup_box(fam, InsertionSchedule((0.5,), (weight,)),
                                  [sheared_family(base, shear, 17)])
    measured = c0_distance(fam, blown)
    gap_width = weight / (1.0 + weight)
    # the packet gradient is scaled by the gap width exactly, and both the
    # peak of the shear profile and the far edge are grid samples
    # angle-domain tolerance: the arccos in the metric amplifies the
    # last-bit rounding of near-unit dot products by 1/sin(angle)
    assert measured == pytest.approx(
        sheared_packet_distance(gap_width, shear), abs=1e-13)
    # loose a-priori bound: gradients at most shear * w/(1+w)
    assert measured <= math.atan(shear * weight / (1.0 + weight))


def test_blowup_box_rejects_bad_inputs():
    base = BaseDomain("rectangle", 9, 9)
    fam = horizontal_family(base, 9)
    sched = InsertionSchedule((0.5,), (1.0,))
    with pytest.raises(ValueError, match="straighten"):
        blowup_box(sheared_family(base, 0.2, 9), sched,
                   [horizontal_family(base, 9)])
    with pytest.raises(ValueError, match="pair up"):
        blowup_box(fam, sched, [])
    with pytest.raises(ValueError, match="base"):
        blowup_box(fam, sched,
                   [horizontal_family(BaseDomain("rectangle", 11, 11), 9)])
    with pytest.raises(ValueError, match="anchor"):
        blowup_box(fam, sched, [horizontal_family(base, 9, anchor=(2, 3))])


def test_collapse_data_isotopy_and_injection():
    base = BaseDomain("rectangle", 9, 9)
    fam = horizontal_family(base, 17)
    _blown, collapse = blowup_box(fam, InsertionSchedule((0.5,), (1.0,)),
                                  [horizontal_family(base, 9)])
    assert float(collapse.inject(0, 0.0)) == 0.25
    assert float(collapse.inject(0, 1.0)) == 0.75
    z = np.linspace(0.0, 1.0, 101)
    np.testing.assert_array_equal(collapse.isotopy(0.0, z), z)
    np.testing.assert_array_equal(collapse.isotopy(1.0, z), collapse(z))
    # straight-line trace: the midpoint sits halfway, monotone in z
    np.testing.assert_allclose(collapse.isotopy(0.5, z),
                               0.5 * (z + collapse(z)), atol=1e-15)
    for s in (0.25, 0.5, 0.75):
        assert np.all(np.diff(collapse.isotopy(s, z)) >= -1e-15)
    with pytest.raises(ValueError):
        collapse.isotopy(1.5, z)


schedule_entries = st.integers(1, 5).flatmap(lambda n: st.tuples(
    st.lists(st.floats(0.02, 0.98), min_size=n, max_size=n, unique=True),
    st.lists(st.floats(0.05, 2.0), min_size=n, max_size=n)))


@settings(max_examples=40, deadline=None)
@given(schedule_entries)
def test_blowup_box_random_schedules(entry):
    zs, ws = sorted(entry[0]), entry[1]
    assume(len(zs) < 2 or min(b - a for a, b in zip(zs, zs[1:])) > 1e-3)
    base = BaseDomain("rectangle", 9, 9)
    fam = horizontal_family(base, 9)
    sched = InsertionSchedule(tuple(zs), tuple(ws))
    blown, collapse = blowup_box(fam, sched,
                                 [sheared_family(base, 0.2, 7)] * len(zs))
    assert np.all(np.diff(blown.values, axis=0) > 0.0)
    total = sched.total_weight
    for (lo, hi), w in zip(collapse.gaps, ws):
        assert abs((hi - lo) - w / (1.0 + total)) <= 1e-12
    # round trip: the collapse undoes the re-embedding on kept leaves
    kept = fam.t[np.min(np.abs(fam.t[:, None] - np.array(zs)[None, :]),
                        axis=1) > 0.0]
    np.testing.assert_allclose(
        collapse(collapse.complement_embedding(kept)), kept, atol=1e-12)
    scene = build_torus_scene((1, 1), foliation={"kind": "horizontal",
                                                 "samples": 9, "grid": 9})
    rep = verify_blowup(with_families(scene, {"b00": fam}),
                        with_families(scene, {"b00": blown}), collapse)
    assert rep["all_pass"], rep


def test_fiberwise_collapse_matches_kernel():
    base = BaseDomain("rectangle", 9, 9)
    fam = horizontal_family(base, 9)
    sched = InsertionSchedule((0.3, 0.8), (0.5, 0.25))
    _blown, collapse = blowup_box(fam, sched,
                                  [horizontal_family(base, 7)] * 2)
    independent = build_collapse(sched)
    z = np.linspace(0.0, 1.0, 513)
    np.testing.assert_allclose(collapse(z), independent(z), atol=1e-12)


# ---------------------------------------------------------------- scenes

def _torus(samples=9, grid=17):
    return build_torus_scene((2, 2), foliation={"kind": "horizontal",
                                                "samples": samples,
                                                "grid": grid})


def mixed_horizontal_scene():
    """The grid-17 horizontal 2x2 torus with boxes that are not all
    byte-equal: b00 keeps the template family and b01 a byte-equal copy of
    it, b10 carries 13 leaves instead of 9, and b11 the template family with
    its middle leaf lowered by one ulp at node (16, 5), off the anchor.
    That ulp tilts b11's leaves on the x = 1 side, so an x-sheared blowup
    lies a few ulp further from b11 than from b00."""
    scene = _torus()
    fam = scene.box("b00").family
    copy = LeafFamily(fam.base, fam.t.copy(), fam.values.copy(), fam.anchor)
    values = fam.values.copy()
    values[4, 16, 5] = np.nextafter(values[4, 16, 5], 0.0)
    bumped = LeafFamily(fam.base, fam.t, values, fam.anchor)
    assert np.max(np.abs(values - fam.t[:, None, None])) <= SOLVER_TOL
    return with_families(scene, {"b00": fam, "b01": copy,
                                 "b10": horizontal_family(fam.base, 13),
                                 "b11": bumped})


@pytest.fixture(scope="module")
def blown_sheared():
    scene = _torus(samples=17, grid=33)
    base = BaseDomain("rectangle", 33, 33)
    schedule = InsertionSchedule((0.5,), (0.1,))
    packets = (sheared_family(base, 0.3, 17),)
    report = {}
    out, collapse = blowup_scene(scene, schedule, packets, epsilon=0.5,
                                 report=report)
    return scene, schedule, packets, out, collapse, report


def test_blowup_scene_empty_locus_identity():
    scene = _torus()
    out, collapse = blowup_scene(scene, InsertionSchedule((), ()), (),
                                 epsilon=0.1)
    for box in scene.boxes:
        np.testing.assert_array_equal(
            box.family.values, out.box(box.identifier).family.values)
    rep = verify_blowup(scene, out, collapse)
    assert rep["all_pass"]
    assert rep["max_defect"] == 0.0


def test_blowup_scene_horizontal_packet_per_box_oracle():
    scene = _torus()
    base = BaseDomain("rectangle", 17, 17)
    schedule = InsertionSchedule((0.5,), (0.1,))
    packets = (horizontal_family(base, 9),)
    out, collapse = blowup_scene(scene, schedule, packets, epsilon=0.1)
    for box in scene.boxes:
        ident = box.identifier
        solo, solo_collapse = blowup_box(box.family, schedule, packets)
        got = out.box(ident).family
        assert np.max(np.abs(got.values - solo.values)) <= 1e-10
        np.testing.assert_array_equal(got.t, solo.t)
        assert collapse.gaps == solo_collapse.gaps
        # horizontal packets keep the scene horizontal
        assert c0_distance(box.family, got) == 0.0


def test_blowup_scene_sheared_packet_verifies(blown_sheared):
    scene, _schedule, _packets, out, collapse, report = blown_sheared
    rep = verify_blowup(scene, out, collapse)
    assert rep["all_pass"], rep
    assert rep["max_defect"] < 1e-9
    want = sheared_packet_distance(0.1 / 1.1, 0.3)
    assert report["achieved_distance"] == pytest.approx(want, abs=1e-12)
    assert report["face_defect"] <= 1e-12
    assert report["stages"][1]["holonomy_defect"] <= 1e-12


def test_blowup_scene_leaf_membership_against_leaf_through(blown_sheared):
    scene, _schedule, _packets, out, collapse, rep_unused = blown_sheared
    rep = verify_blowup(scene, out, collapse)
    row = next(r for r in rep["properties"] if r["property"] == 6)
    worst = 0.0
    for box in scene.boxes:
        fam = out.box(box.identifier).family
        collapsed = collapse(fam.values)
        nodes = [(i, j, x, y)
                 for i, x in ((0, 0.0), (16, 0.5), (32, 1.0))
                 for j, y in ((0, 0.0), (32, 1.0))]
        for leaf in range(0, fam.m, 5):
            worst = max(worst, leaf_membership_by_inverse(
                box.family, collapsed[leaf], nodes))
    assert worst < 1e-9
    assert row["defect"] < 1e-9
    # the probed spread never exceeds the report's full-grid defect
    assert worst <= row["defect"] + 1e-12


def test_blowup_scene_halving_weights_decreases_distance():
    scene = _torus(samples=17, grid=33)
    base = BaseDomain("rectangle", 33, 33)
    packets = (sheared_family(base, 0.3, 17),)
    achieved = []
    for total in (0.1, 0.05):
        rep = {}
        blowup_scene(scene, InsertionSchedule((0.5,), (total,)), packets,
                     epsilon=0.5, report=rep)
        achieved.append(rep["achieved_distance"])
        assert rep["achieved_distance"] == pytest.approx(
            sheared_packet_distance(total / (1.0 + total), 0.3), abs=1e-12)
    assert achieved[1] < achieved[0]


def test_blowup_scene_epsilon_forces_weight_halving():
    scene = _torus(samples=9, grid=17)
    base = BaseDomain("rectangle", 17, 17)
    packets = (sheared_family(base, 0.3, 9),)
    schedule = InsertionSchedule((0.5,), (0.1,))
    report = {}
    blowup_scene(scene, schedule, packets, epsilon=0.002, report=report)
    assert report["retries"] == 2
    assert report["achieved_distance"] <= 0.002
    distances = report["attempt_distances"]
    assert len(distances) == 3
    assert distances[-1] == report["achieved_distance"]
    assert all(d > 0.002 for d in distances[:-1])
    assert report["achieved_distance"] == pytest.approx(
        sheared_packet_distance(0.025 / 1.025, 0.3), abs=1e-12)
    # the report's schedule holds the final halved weights
    assert report["schedule"] == {"points": [0.5], "weights": [0.025]}
    with pytest.raises(LadderError) as err:
        blowup_scene(scene, schedule, packets, epsilon=1e-9)
    assert err.value.achieved > 0.0


def test_blowup_scene_rejects_inconsistent_inputs():
    scene = _torus()
    base = BaseDomain("rectangle", 17, 17)
    pkt = horizontal_family(base, 9)
    schedule = InsertionSchedule((0.5,), (0.1,))
    with pytest.raises(ValueError, match="positive"):
        blowup_scene(scene, schedule, (pkt,), epsilon=0.0)
    sheared_scene = build_torus_scene(
        (2, 2), foliation={"kind": "sheared", "shear": 0.1,
                           "samples": 9, "grid": 17})
    with pytest.raises(ValueError, match="straighten"):
        blowup_scene(sheared_scene, schedule, (pkt,), epsilon=0.1)
    with pytest.raises(ValueError, match="pair up"):
        blowup_scene(scene, schedule, (), epsilon=0.1)
    # a packet that does not glue with itself across the faces of the
    # torus: f_t = t + 0.4 t(1-t) x y differs between x = 0 and x = 1
    t = np.linspace(0.0, 1.0, 9)
    x = np.linspace(0.0, 1.0, 17)
    bump = t * (1.0 - t)
    bent = LeafFamily(base, t, t[:, None, None] + 0.4 * bump[:, None, None]
                      * x[None, :, None] * x[None, None, :], (0, 0))
    with pytest.raises(ValueError, match="holonomy data disagree"):
        blowup_scene(scene, schedule, (bent,), epsilon=0.1)


def packet_scene_defect_oracle(scene, packets):
    """The packet check _packet_scene_defect replaced: the whole scene with
    the packet in every box, through face_transport_defect."""
    worst, bad = 0.0, None
    for i, pkt in enumerate(packets):
        defect = face_transport_defect(
            with_families(scene, {b.identifier: pkt for b in scene.boxes}))
        if defect > worst:
            worst, bad = defect, i
    return worst, bad


def annulus_box(grid=17, samples=9):
    """The annulus-box template: one box glued to itself across its E|W and
    N|S faces."""
    unit = (Fraction(0), Fraction(1))
    box = FlowBoxSpec.with_default_faces(
        "annulus", unit, unit, unit,
        horizontal_family(BaseDomain("rectangle", grid, grid), samples))
    return DecompositionComplex((box,))


def bent_packet(coefficient=0.3, grid=17, samples=9):
    """f_t = t + c t(1-t) x y: the identity along the W and S sides, a
    bump of height c t(1-t) along E and N."""
    t = np.linspace(0.0, 1.0, samples)
    x = np.linspace(0.0, 1.0, grid)
    bump = coefficient * t * (1.0 - t)
    return LeafFamily(BaseDomain("rectangle", grid, grid), t,
                      t[:, None, None] + bump[:, None, None]
                      * x[None, :, None] * x[None, None, :], (0, 0))


def _assert_packet_defect_matches_oracle(scene, packets):
    worst, bad, sides = _packet_scene_defect(shared_faces(scene), packets)
    assert (worst, bad) == packet_scene_defect_oracle(scene, packets)
    assert (sides is None) == (bad is None)
    return worst, bad, sides


@pytest.mark.parametrize("scene", [_torus(), annulus_box()],
                         ids=["horizontal-t3", "annulus-box"])
def test_packet_scene_defect_matches_scene_oracle(scene):
    base = BaseDomain("rectangle", 17, 17)
    flat = horizontal_family(base, 9)
    x_sheared = sheared_family(base, 0.3, 9)
    y_sheared = sheared_family(base, -0.2, 5, axis="y")
    for packets in ((), (flat,), (x_sheared, y_sheared)):
        assert _assert_packet_defect_matches_oracle(scene, packets) == (
            0.0, None, None)
    # the x.y packet disagrees by 0.3 max t(1-t) = 0.075 across both side
    # pairs; the E|W faces come first
    for packets, bad in (((bent_packet(),), 0),
                         ((flat, bent_packet(), bent_packet(0.4)), 2)):
        worst, got, sides = _assert_packet_defect_matches_oracle(scene,
                                                                 packets)
        assert (got, sides) == (bad, "E|W")
        assert worst == pytest.approx(0.075 if bad == 0 else 0.1, abs=1e-12)
    # with no faces there is nothing to compare
    assert _packet_scene_defect((), (bent_packet(),)) == (0.0, None, None)


@settings(max_examples=30, deadline=None)
@given(st.lists(leaf_families(BaseDomain("rectangle", 17, 17)), min_size=1,
                max_size=3),
       st.booleans())
def test_packet_scene_defect_matches_scene_oracle_on_random_packets(
        packets, annulus):
    scene = annulus_box() if annulus else _torus()
    _assert_packet_defect_matches_oracle(scene, tuple(packets))


@st.composite
def scene_blowup_inputs(draw):
    """A 1-3 point schedule and one packet per point, each horizontal or
    sheared in x or y, on the grid-17 base of the 2x2 torus."""
    n = draw(st.integers(1, 3))
    points = sorted(draw(st.lists(st.floats(0.02, 0.98), min_size=n,
                                  max_size=n, unique=True)))
    assume(min((b - a for a, b in zip(points, points[1:])), default=1.0)
           > 1e-3)
    weights = draw(st.lists(st.floats(0.02, 0.2), min_size=n, max_size=n))
    base = BaseDomain("rectangle", 17, 17)
    packets = []
    for _ in range(n):
        kind = draw(st.sampled_from(["horizontal", "x", "y"]))
        samples = draw(st.integers(3, 9))
        if kind == "horizontal":
            packets.append(horizontal_family(base, samples))
        else:
            packets.append(sheared_family(base, draw(st.floats(-0.4, 0.4)),
                                          samples, axis=kind))
    return InsertionSchedule(tuple(points), tuple(weights)), tuple(packets)


@settings(max_examples=40, deadline=None)
@given(scene_blowup_inputs())
def test_blowup_scene_multi_point_schedules(case):
    schedule, packets = case
    scene = _torus()
    report = {}
    out, collapse = blowup_scene(scene, schedule, packets, epsilon=0.5,
                                 report=report)
    rep = verify_blowup(scene, out, collapse)
    assert rep["all_pass"], rep
    assert len(rep["properties"]) == 8
    live = InsertionSchedule(**report["schedule"])
    for box in scene.boxes:
        solo, _solo_collapse = blowup_box(box.family, live, packets)
        got = out.box(box.identifier).family
        np.testing.assert_array_equal(got.t, solo.t)
        np.testing.assert_array_equal(got.values, solo.values)
    assert report["face_defect"] <= 1e-12
    plateaus = sorted(build_collapse(live).plateaus)
    assert collapse.gaps == tuple((lo, hi) for lo, hi, _z in plateaus)


def test_blowup_scene_report_is_json(blown_sheared):
    _scene, _schedule, _packets, _out, _collapse, report = blown_sheared
    blob = json.loads(json.dumps(report))
    assert blob["operation"] == "blowup_scene"
    assert [s["stage"] for s in blob["stages"]] == [
        "edge-neighborhood boxes", "maximal-face gluing",
        "interior extension"]
    assert set(blob["box_distances"]) == {"b00", "b01", "b10", "b11"}
    assert blob["retries"] == 0
    assert blob["schedule"] == {"points": [0.5], "weights": [0.1]}


def test_verify_blowup_flags_corrupted_collapse(blown_sheared):
    scene, _schedule, _packets, out, collapse, _report = blown_sheared
    (lo, hi), = collapse.gaps
    corrupted = CollapseMap(((lo + 0.01, hi + 0.01, 0.5),))
    rep = verify_blowup(scene, out, corrupted)
    assert not rep["all_pass"]
    row = next(r for r in rep["properties"] if r["property"] == 6)
    assert not row["pass"]
    assert row["witness"]["box"] == "b00"
    assert row["defect"] > 1e-6


def test_blowup_scene_blows_up_each_distinct_family_once(monkeypatch):
    scene = mixed_horizontal_scene()
    assert scene.validation["valid"]
    base = BaseDomain("rectangle", 17, 17)
    packets = (sheared_family(base, 0.3, 9),)
    seen = []

    def counting_blowup_box(family, schedule, packets):
        seen.append(family)
        return blowup_box(family, schedule, packets)

    monkeypatch.setattr("flowbox.denjoy.blowup_box", counting_blowup_box)
    report = {}
    out, collapse = blowup_scene(scene, InsertionSchedule((0.5,), (0.1,)),
                                 packets, epsilon=0.5, report=report)
    assert report["retries"] == 0
    # b01 shares b00's blowup; the ulp-raised b11 is blown up on its own
    assert [f is scene.box(i).family for f, i in
            zip(seen, ("b00", "b10", "b11"))] == [True] * 3
    assert out.box("b00").family is out.box("b01").family
    assert list(report["box_distances"]) == ["b00", "b01", "b10", "b11"]
    assert report["box_distances"]["b11"] != report["box_distances"]["b00"]
    live = InsertionSchedule(**report["schedule"])
    for box in scene.boxes:
        solo, solo_collapse = blowup_box(box.family, live, packets)
        got = out.box(box.identifier).family
        assert (got.base, got.anchor) == (solo.base, solo.anchor)
        assert np.array_equal(got.t, solo.t)
        assert np.array_equal(got.values, solo.values)
        assert solo_collapse.gaps == collapse.gaps
        assert report["box_distances"][box.identifier] == \
            c0_distance(box.family, solo)
    assert report["achieved_distance"] == max(
        report["box_distances"].values())


def test_verify_blowup_matches_per_box_oracle_on_mixed_scene():
    scene = mixed_horizontal_scene()
    packets = (sheared_family(BaseDomain("rectangle", 17, 17), 0.3, 9),)
    out, collapse = blowup_scene(scene, InsertionSchedule((0.5,), (0.1,)),
                                 packets, epsilon=0.5)
    # the first box of each byte-equal (original, blown) pair stands for it
    assert list(_verify_pairs(scene, out)) == ["b00", "b10", "b11"]
    rep = verify_blowup(scene, out, collapse)
    assert rep["all_pass"], rep
    assert rep == verify_blowup_oracle(scene, out, collapse)
    # off the gap the collapse fails properties 4, 6 and 7; each witness
    # names the box the per-box loop names: b00 rather than its twin b01
    # where every box ties, b11 where its lowered node spreads more
    (lo, hi), = collapse.gaps
    corrupted = CollapseMap(((lo + 0.05, hi + 0.05, 0.5),))
    rep = verify_blowup(scene, out, corrupted)
    assert rep == verify_blowup_oracle(scene, out, corrupted)
    failed = {r["property"]: r["witness"]["box"] for r in rep["properties"]
              if not r["pass"]}
    assert failed == {4: "b00", 6: "b11", 7: "b00"}


def test_verify_blowup_matches_per_box_oracle_on_one_family(blown_sheared):
    scene, _schedule, _packets, out, collapse, _report = blown_sheared
    one_box = build_torus_scene((1, 1), foliation={"kind": "horizontal",
                                                   "samples": 17, "grid": 33})
    fam = with_families(one_box, {"b00": scene.box("b10").family})
    blown = with_families(one_box, {"b00": out.box("b10").family})
    assert verify_blowup(fam, blown, collapse) == \
        verify_blowup_oracle(fam, blown, collapse)
    assert verify_blowup(scene, out, collapse) == \
        verify_blowup_oracle(scene, out, collapse)


def _assert_membership_matches_oracle(orig, heights):
    got = _leaf_membership_spread(orig, heights)
    assert got == leaf_membership_spread_oracle(orig, heights)
    return got[0]


def test_leaf_membership_spread_matches_oracle_on_blowup(blown_sheared):
    scene, _schedule, _packets, out, collapse, _report = blown_sheared
    (lo, hi), = collapse.gaps
    shifted = CollapseMap(((lo + 0.01, hi + 0.01, 0.5),))
    for box in scene.boxes:
        fam = out.box(box.identifier).family
        collapsed = collapse(fam.values)
        assert _assert_membership_matches_oracle(box.family, collapsed) < 1e-9
        # a collapse off the blown gap spreads leaves over many indices
        assert _assert_membership_matches_oracle(
            box.family, shifted(fam.values)) > 1e-6


@st.composite
def membership_cases(draw):
    """An original family and collapsed-looking grids on its base: rows of
    another monotone family, with the original's own leaves mixed in so
    that queries hit breakpoints exactly."""
    base = BaseDomain("rectangle", draw(st.integers(8, 12)),
                      draw(st.integers(8, 12)))
    orig = draw(leaf_families(base))
    heights = draw(leaf_families(base)).values
    if draw(st.booleans()):
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        heights = rng.permutation(np.concatenate([heights, orig.values]))
    return orig, heights


@settings(max_examples=60, deadline=None)
@given(membership_cases())
def test_leaf_membership_spread_matches_oracle_on_random_families(case):
    _assert_membership_matches_oracle(*case)


# ---------------------------------------------------------------- circle

def test_circle_lift_validation_and_translation():
    with pytest.raises(ValueError, match="increasing"):
        CircleMapLift(np.array([0.0, 0.5]), np.array([0.4, 0.4]))
    with pytest.raises(ValueError, match="0, 1"):
        CircleMapLift(np.array([0.0, 1.0]), np.array([0.1, 0.9]))
    with pytest.raises(ValueError, match="less than one"):
        CircleMapLift(np.array([0.0, 0.5]), np.array([0.0, 1.0]))
    lift = CircleMapLift(np.array([0.0, 0.25, 0.5]),
                         np.array([0.3, 0.6, 0.7]))
    x = np.linspace(-2.0, 2.0, 401)
    np.testing.assert_allclose(lift(x + 1.0), lift(x) + 1.0, atol=1e-12)
    assert np.all(np.diff(lift(x)) > 0.0)


def test_rotation_number_rigid_third():
    third = 1.0 / 3.0
    lift = CircleMapLift(np.array([0.0, 0.5]),
                         np.array([third, third + 0.5]))
    value = rotation_number(lift, 1200)
    assert value == pytest.approx(third, abs=1e-12)
    report = {}
    assert birkhoff_estimate(circle_orbit(lift, 1200), report) == value
    assert report["iterations"] == 1200
    assert report["error_proxy"] >= 0.0
    with pytest.raises(ValueError, match="1000"):
        rotation_number(lift, 999)


def test_rotation_number_rigid_golden_mean():
    lift = CircleMapLift(np.array([0.0, 0.5]),
                         np.array([GOLDEN, GOLDEN + 0.5]))
    value = rotation_number(lift, 100_000)
    assert value == pytest.approx(GOLDEN, abs=1e-6)


def test_rotation_number_conjugacy_invariance():
    h = blowup_circle_map(GOLDEN, 200)
    g = CircleMapLift(np.array([0.0, 0.3, 0.7]), np.array([0.0, 0.5, 0.8]))
    g_inv = CircleMapLift(np.array([0.0, 0.5, 0.8]),
                          np.array([0.0, 0.3, 0.7]))

    def conjugated(x):
        return g(h(g_inv(x)))

    n = 20_000
    base_value = rotation_number(h, n)
    conj_value = rotation_number(conjugated, n)
    assert abs(base_value - conj_value) <= 2.0 / n


def test_blowup_circle_map_gap_images_affine():
    n = 300
    report = {}
    lift = blowup_circle_map(GOLDEN, n, report=report)
    assert lift.inputs.size == 4 * n
    gaps = circle_gaps_by_hand(GOLDEN, n, lambda k: 1.0 / (k * k + 1.0))
    for k, (lo, hi) in report["gaps"].items():
        want = gaps[int(k)]
        assert lo == pytest.approx(want[0], abs=1e-12)
        assert hi == pytest.approx(want[1], abs=1e-12)
    # every gap maps exactly onto its successor gap, endpoints matched
    for k in range(-n, n):
        lo, hi = gaps[k]
        img_lo, img_hi = gaps[k + 1]
        assert float(np.mod(lift(lo), 1.0)) == pytest.approx(img_lo,
                                                             abs=1e-12)
        assert float(np.mod(lift(hi), 1.0)) == pytest.approx(img_hi,
                                                             abs=1e-12)
    assert report["total_weight"] == pytest.approx(
        sum(1.0 / (k * k + 1.0) for k in range(-n, n + 1)), abs=1e-12)


def test_blowup_circle_map_rotation_number():
    lift = blowup_circle_map(GOLDEN, 300)
    value = rotation_number(lift, 20_000)
    assert abs(value - GOLDEN) <= 1e-3


def test_blowup_circle_map_rejects_bad_inputs():
    with pytest.raises(ValueError, match="collide"):
        blowup_circle_map(1.0 / 3.0, 300)
    with pytest.raises(ValueError, match="100"):
        blowup_circle_map(GOLDEN, 50)


def test_wandering_audit_blown_gaps_do_not_return():
    report = {}
    lift = blowup_circle_map(GOLDEN, 200, report=report)
    gaps = [tuple(v) for v in report["gaps"].values()]
    audit = wandering_audit(lift, gaps, steps=1500)
    assert audit["wandering"]
    assert audit["revisits"] == 0
    assert audit["first_revisit"] is None


def test_wandering_audit_detects_rigid_returns():
    # under the rigid rotation every interval returns: three-distance gives
    # a return of (0, 0.1) within the first 17 golden-mean iterates
    lift = CircleMapLift(np.array([0.0, 0.5]),
                         np.array([GOLDEN, GOLDEN + 0.5]))
    audit = wandering_audit(lift, [(0.0, 0.1)], steps=100)
    assert not audit["wandering"]
    assert audit["revisits"] > 0
    assert audit["first_revisit"]["step"] <= 17
    with pytest.raises(ValueError, match="positive length"):
        wandering_audit(lift, [(0.2, 0.2)], steps=10)


@st.composite
def circle_lifts(draw):
    """A strictly increasing lift: random breakpoints, a rigid rotation, or
    a small golden-mean blowup."""
    kind = draw(st.sampled_from(["random", "rigid", "blowup"]))
    if kind == "rigid":
        shift = draw(st.floats(-3.0, 3.0))
        return CircleMapLift(np.array([0.0, 0.5]),
                             np.array([shift, shift + 0.5]))
    if kind == "blowup":
        return blowup_circle_map(GOLDEN, draw(st.integers(100, 130)))
    n = draw(st.integers(2, 12))
    unit = st.floats(0.0, 1.0, exclude_max=True)
    xs = np.unique(draw(st.lists(unit, min_size=n, max_size=n)))
    assume(xs.size >= 2)
    rises = np.array(draw(st.lists(st.floats(1e-3, 1.0), min_size=xs.size,
                                   max_size=xs.size)))
    ys = np.cumsum(rises) * (0.99 / rises.sum()) + draw(st.floats(-2.0, 2.0))
    assume(np.all(np.diff(ys) > 0.0) and ys[-1] - ys[0] < 1.0)
    return CircleMapLift(xs, ys)


@st.composite
def audit_gaps(draw):
    """Gap intervals in shuffled order: disjoint, or arbitrary (which may
    overlap, so the endpoint order is not kept by the lift)."""
    n = draw(st.integers(1, 12))
    unit = st.floats(0.0, 1.0, exclude_max=True)
    if draw(st.booleans()):
        ends = np.unique(draw(st.lists(unit, min_size=2 * n,
                                       max_size=2 * n)))
        assume(ends.size >= 2)
        gaps = [(ends[i], ends[i + 1]) for i in range(0, ends.size - 1, 2)]
    else:
        pairs = draw(st.lists(st.tuples(unit, unit), min_size=n, max_size=n))
        gaps = [(min(a, b), max(a, b)) for a, b in pairs if a != b]
        assume(gaps)
    return draw(st.permutations(gaps))


@settings(max_examples=80, deadline=None)
@given(circle_lifts(), audit_gaps(), st.integers(0, 200))
def test_wandering_audit_matches_oracle(lift, gaps, steps):
    # the cyclic-order audit reports what the per-gap oracle reports,
    # first revisit included, in the caller's gap order
    assert wandering_audit(lift, gaps, steps) == \
        wandering_audit_oracle(lift, gaps, steps)


def test_wandering_audit_matches_oracle_on_blown_gaps():
    report = {}
    lift = blowup_circle_map(GOLDEN, 150, report=report)
    gaps = [tuple(v) for v in report["gaps"].values()]
    gaps = gaps[::-1] + [(0.05, 0.4)]
    audit = wandering_audit(lift, gaps, 200)
    assert audit == wandering_audit_oracle(lift, gaps, 200)
    assert audit["first_revisit"]["gap"] == len(gaps) - 1


def _same_float(a, b):
    return a == b and math.copysign(1.0, a) == math.copysign(1.0, b)


@settings(max_examples=80, deadline=None)
@given(circle_lifts(), st.data())
def test_circle_lift_scalar_path_matches_array_path(lift, data):
    # a Python float takes the pure-Python evaluation; it must return the
    # array path's value bit for bit, signed zero included
    turns = st.integers(-10_000, 10_000).map(float)
    on_break = st.builds(lambda x, k: x + k, st.sampled_from(
        lift.inputs.tolist()), turns)
    xs = data.draw(st.lists(st.one_of(
        st.floats(-1e4, 1e4), on_break, turns,
        st.sampled_from([0.0, -0.0, -1e-18, 1e-300, -1e-300, 1.0 - 2**-53])),
        min_size=1, max_size=20))
    for x in xs:
        value = lift(x)
        assert type(value) is float
        assert _same_float(value, float(lift(np.array([x]))[0]))


def test_circle_lift_scalar_path_keeps_signed_zero():
    # np.floor(-0.0) is -0.0, so an output of -0.0 at 0 survives the
    # integer shift; a floor that drops the sign would return +0.0
    lift = CircleMapLift(np.array([0.0, 0.5]), np.array([-0.0, 0.5]))
    for x in (-0.0, 0.0):
        assert _same_float(lift(x), float(lift(np.array([x]))[0]))


@settings(max_examples=40, deadline=None)
@given(circle_lifts(), st.integers(1000, 1200))
def test_rotation_number_matches_single_loop_oracle(lift, n):
    report, ref_report = {}, {}
    value = rotation_number(lift, n)
    assert _same_float(value, rotation_number_oracle(lift, n, ref_report))
    assert _same_float(birkhoff_estimate(circle_orbit(lift, n), report), value)
    assert report == ref_report


def test_circle_orbit_feeds_the_birkhoff_estimate():
    lift = blowup_circle_map(GOLDEN, 200)
    orbit = circle_orbit(lift, 1500)
    assert len(orbit) == 1500 and all(type(x) is float for x in orbit)
    x = 0.0
    for value in orbit:
        x = float(lift(x))
        assert value == x
    report = {}
    assert birkhoff_estimate(orbit, report) == rotation_number(lift, 1500)
    assert report["estimate"] == orbit[-1] / 1500
    assert report["error_proxy"] == abs(orbit[-1] / 1500 - orbit[-2] / 1499)
    with pytest.raises(ValueError, match="two iterates"):
        birkhoff_estimate(orbit[:1])
