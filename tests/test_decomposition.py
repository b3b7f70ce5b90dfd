"""Flow box decomposition checks: exact combinatorics against hand
enumerations and brute-force sampling."""

import json
from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from flowbox import decomposition
from flowbox.decomposition import (
    DecompositionComplex,
    Face,
    FlowBoxSpec,
    build_torus_scene,
    circ_components,
    circ_contains,
    enforce_condition5,
    family_slice,
    maximal_faces,
    validate,
)
from flowbox.foliation import BaseDomain, horizontal_family, sheared_family


# ------------------------------------------------------------------ oracles

def expected_2x2_faces():
    """Hand enumeration of the geometric vertical faces of the 2x2 grid:
    two planes per axis, two spans per plane, full heights."""
    out = set()
    for axis in ("x", "y"):
        for pos in (F(0), F(1, 2)):
            for span in ((F(0), F(1, 2)), (F(1, 2), F(1))):
                out.add((axis, pos, span, (F(0), F(1))))
    return out


def sampled_face_contained(outer, inner, k=9):
    """Float-sampled circular containment of face rectangles given as
    (span, heights) pairs; the direct check circ_contains must agree."""
    (o_span, o_h), (i_span, i_h) = outer, inner
    o_len = float(o_span[1] - o_span[0])
    o_hlen = float(o_h[1] - o_h[0])
    for u in np.linspace(float(i_span[0]), float(i_span[1]), k):
        d = (u - float(o_span[0])) % 1.0
        if d > o_len + 1e-9 and o_len < 1 - 1e-12 \
                and (1.0 - d) % 1.0 > 1e-9:
            return False
    for h in np.linspace(float(i_h[0]), float(i_h[1]), k):
        d = (h - float(o_h[0])) % 1.0
        if d > o_hlen + 1e-9 and o_hlen < 1 - 1e-12 \
                and (1.0 - d) % 1.0 > 1e-9:
            return False
    return True


def sheared_slice_oracle(shear, lo, hi, s, x):
    """Closed-form renormalized restriction of f_t = t + shear*t*(1-t)*x
    between leaf indices lo and hi."""
    tau = lo + s * (hi - lo)
    f_tau = tau + shear * tau * (1 - tau) * x
    f_lo = lo + shear * lo * (1 - lo) * x
    f_hi = hi + shear * hi * (1 - hi) * x
    return (f_tau - f_lo) / (f_hi - f_lo)


def five_box_scene():
    """2x2 grid with cell (0,0) split at height 1/2; build order lists the
    split halves before their full-height neighbors."""
    return build_torus_scene((2, 2), height_splits={(0, 0): [F(1, 2)]})


# ------------------------------------------------------- circular intervals

def test_circ_components_hand_cases():
    full = (F(0), F(1))
    assert circ_components(full, full) == [(F(0), F(1))]
    halves = circ_components((F(0), F(1, 2)), (F(1, 2), F(1)))
    assert sorted(halves) == [(F(0), F(0)), (F(1, 2), F(1, 2))]
    assert circ_components((F(0), F(1, 4)), (F(1, 2), F(3, 4))) == []
    assert circ_components((F(0), F(1)), (F(1, 4), F(1, 2))) \
        == [(F(1, 4), F(1, 2))]
    assert circ_components((F(0), F(1, 4)), (F(3, 4), F(1))) \
        == [(F(0), F(0))]


def test_circ_contains_matches_sampling():
    rng = np.random.default_rng(7)
    heights = (F(0), F(1))
    for _ in range(200):
        a, b = sorted(rng.integers(0, 12, size=2))
        c, d = sorted(rng.integers(0, 12, size=2))
        outer = (F(int(a), 12), F(int(b) + 1, 12))
        inner = (F(int(c), 12), F(int(d) + 1, 12))
        direct = circ_contains(outer, inner)
        sampled = sampled_face_contained((outer, heights), (inner, heights))
        assert direct == sampled, (outer, inner)


# ------------------------------------------------------------ construction

def test_build_2x2_valid():
    scene = build_torus_scene((2, 2))
    assert len(scene.boxes) == 4
    assert scene.volume == F(1)
    report = validate(scene)
    assert report["valid"]
    for cond in ("1", "2", "3", "4", "5"):
        assert report["conditions"][cond]["pass"], cond
    assert report["coverage"]["pass"]
    assert report["annular_faces"] == []


def test_build_1x1_annular():
    scene = build_torus_scene((1, 1))
    assert len(scene.boxes) == 1
    report = validate(scene)
    assert report["valid"]
    axes = {a["axis"] for a in report["annular_faces"]}
    assert axes == {"x", "y"}
    faces = maximal_faces(scene)
    # opposite sides self-identify: one annular face per axis
    assert len(faces) == 2
    for f in faces:
        assert len(f["owners"]) == 2
        assert {o[0] for o in f["owners"]} == {"b00"}


def test_build_split_cell_counts():
    scene = five_box_scene()
    ids = [b.identifier for b in scene.boxes]
    assert ids == ["b00.0", "b00.1", "b01", "b10", "b11"]
    assert scene.volume == F(1)
    halves = [b for b in scene.boxes if b.identifier.startswith("b00.")]
    assert [h.heights for h in halves] \
        == [(F(0), F(1, 2)), (F(1, 2), F(1))]


def test_build_rejects_bad_splits():
    with pytest.raises(ValueError):
        build_torus_scene((2, 2), height_splits={(0, 0): [F(0)]})
    with pytest.raises(ValueError):
        build_torus_scene((2, 2), height_splits={(0, 0): [F(1, 2), F(1, 2)]})
    with pytest.raises(ValueError):
        build_torus_scene((0, 2))


# -------------------------------------------------------------- validation

def test_five_box_failing_order_witness():
    scene = five_box_scene()
    report = validate(scene)
    assert not report["valid"]
    cond5 = report["conditions"]["5"]
    assert not cond5["pass"]
    w = cond5["witnesses"][0]
    # a full-height cell of a later box meets a half-height earlier cell
    assert w["later"][0] in ("b01", "b10")
    assert w["earlier"][0] in ("b00.0", "b00.1")
    assert w["later"][3] == ["0", "1"]
    assert w["earlier"][3] in (["0", "1/2"], ["1/2", "1"])
    # the failure is confined to condition (5)
    for cond in ("1", "2", "3", "4"):
        assert report["conditions"][cond]["pass"], cond
    assert report["coverage"]["pass"]


def test_five_box_passing_order():
    scene = five_box_scene()
    scene = DecompositionComplex(tuple(
        scene.box(i) for i in ["b10", "b11", "b01", "b00.0", "b00.1"]))
    report = validate(scene)
    assert report["valid"]


def test_validate_idempotent():
    scene = five_box_scene()
    before = scene.to_json()
    r1 = validate(scene)
    r2 = validate(scene)
    assert r1 == r2
    assert scene.to_json() == before


def test_condition2_union_of_faces_passes():
    base = BaseDomain("rectangle", 9, 9)
    fam = horizontal_family(base, 9)
    v_box = FlowBoxSpec.with_default_faces(
        "v", (F(0), F(1, 2)), (F(0), F(1)), (F(0), F(1)), fam)
    f_box = FlowBoxSpec.with_default_faces(
        "f", (F(1, 2), F(1)), (F(0), F(1)), (F(0), F(1)), fam)
    scene = DecompositionComplex((v_box, f_box), frozenset({"v"}))
    report = validate(scene)
    assert report["conditions"]["2"]["pass"]


def test_condition2_partial_face_witness():
    base = BaseDomain("rectangle", 9, 9)
    fam = horizontal_family(base, 9)
    v_box = FlowBoxSpec.with_default_faces(
        "v", (F(0), F(1, 2)), (F(0), F(1, 2)), (F(0), F(1)), fam)
    f_box = FlowBoxSpec.with_default_faces(
        "f", (F(1, 2), F(1)), (F(0), F(1)), (F(0), F(1)), fam)
    scene = DecompositionComplex((v_box, f_box), frozenset({"v"}))
    report = validate(scene)
    cond2 = report["conditions"]["2"]
    assert not cond2["pass"]
    assert cond2["witnesses"][0]["box"] == "f"


def test_condition3_overlap_witness():
    base = BaseDomain("rectangle", 9, 9)
    fam = horizontal_family(base, 9)
    a = FlowBoxSpec.with_default_faces(
        "a", (F(0), F(3, 5)), (F(0), F(1)), (F(0), F(1)), fam)
    b = FlowBoxSpec.with_default_faces(
        "b", (F(2, 5), F(1)), (F(0), F(1)), (F(0), F(1)), fam)
    report = validate(DecompositionComplex((a, b)))
    cond3 = report["conditions"]["3"]
    assert not cond3["pass"]
    assert cond3["witnesses"][0]["boxes"] == ["a", "b"]


def test_coverage_gap_witness():
    scene = build_torus_scene((2, 2))
    partial = DecompositionComplex(scene.boxes[:3])
    report = validate(partial)
    assert not report["coverage"]["pass"]
    assert report["coverage"]["witnesses"]
    assert not report["valid"]


# ------------------------------------------------------------- enforcement

def test_enforce_noop_on_valid_scene():
    scene = build_torus_scene((2, 2))
    assert enforce_condition5(scene) is scene


def test_enforce_five_box_scene():
    scene = five_box_scene()
    fixed = enforce_condition5(scene)
    report = validate(fixed)
    assert report["valid"]
    assert len(fixed.boxes) == 8
    assert fixed.volume == F(1)
    for box in fixed.boxes:
        assert box.heights in ((F(0), F(1, 2)), (F(1, 2), F(1)))
    # idempotent once valid
    assert enforce_condition5(fixed) is fixed


def test_validation_is_one_report_per_scene(monkeypatch):
    seen = []

    def counting_validate(complex_):
        seen.append(complex_)
        return validate(complex_)

    monkeypatch.setattr(decomposition, "validate", counting_validate)
    scene = five_box_scene()
    assert scene.validation is scene.validation
    assert scene.validation == validate(scene)
    assert seen == [scene]
    # a rebuilt scene is a new object with its own report
    again = DecompositionComplex(scene.boxes, scene.v_boxes)
    assert again.validation is not scene.validation
    assert again.validation == scene.validation
    assert seen == [scene, again]


def test_enforce_validates_each_complex_once(monkeypatch):
    seen = []

    def counting_validate(complex_):
        seen.append(complex_)
        return validate(complex_)

    monkeypatch.setattr(decomposition, "validate", counting_validate)
    # the input and the complexes its three box splits make, each
    # validated once
    enforce_condition5(five_box_scene())
    assert len(seen) == 4 and len({id(c) for c in seen}) == 4
    seen.clear()
    enforce_condition5(build_torus_scene((2, 2)))
    assert len(seen) == 1


def test_enforce_requires_conditions_1_to_4():
    base = BaseDomain("rectangle", 9, 9)
    fam = horizontal_family(base, 9)
    a = FlowBoxSpec.with_default_faces(
        "a", (F(0), F(3, 5)), (F(0), F(1)), (F(0), F(1)), fam)
    b = FlowBoxSpec.with_default_faces(
        "b", (F(2, 5), F(1)), (F(0), F(1)), (F(0), F(1)), fam)
    with pytest.raises(ValueError, match="conditions"):
        enforce_condition5(DecompositionComplex((a, b)))


def test_enforce_nested_splits_converge():
    scene = build_torus_scene(
        (2, 2), height_splits={(0, 0): [F(1, 4), F(1, 2)]})
    assert len(scene.boxes) == 6
    fixed = enforce_condition5(scene)
    assert validate(fixed)["valid"]
    assert len(fixed.boxes) == 12
    assert fixed.volume == F(1)


def test_enforce_span_subdivision_without_box_split():
    base = BaseDomain("rectangle", 9, 9)
    fam = horizontal_family(base, 9)
    u1 = FlowBoxSpec.with_default_faces(
        "u1", (F(0), F(1, 2)), (F(1, 2), F(1)), (F(0), F(1)), fam)
    u2 = FlowBoxSpec.with_default_faces(
        "u2", (F(1, 2), F(1)), (F(1, 2), F(1)), (F(0), F(1)), fam)
    low = FlowBoxSpec.with_default_faces(
        "low", (F(0), F(1)), (F(0), F(1, 2)), (F(0), F(1)), fam)
    scene = DecompositionComplex((u1, u2, low))
    assert not validate(scene)["conditions"]["5"]["pass"]
    fixed = enforce_condition5(scene)
    assert validate(fixed)["valid"]
    # no box is split; the wide box's N and S sides gain a vertical edge
    assert len(fixed.boxes) == 3
    low_fixed = fixed.box("low")
    assert len(low_fixed.faces) == 6
    for side in ("N", "S"):
        spans = sorted(f.span for f in low_fixed.faces if f.side == side)
        assert spans == [(F(0), F(1, 2)), (F(1, 2), F(1))]


# --------------------------------------------------------- identified faces

def test_maximal_faces_2x2_enumeration():
    scene = build_torus_scene((2, 2))
    faces = maximal_faces(scene)
    got = {(f["axis"], F(f["pos"]),
            (F(f["span"][0]), F(f["span"][1])),
            (F(f["heights"][0]), F(f["heights"][1])))
           for f in faces}
    assert got == expected_2x2_faces()
    assert len(faces) == 8
    for f in faces:
        assert len(f["owners"]) == 2  # every geometric face is shared


def test_face_poset_five_box_containments():
    scene = five_box_scene()
    scene = DecompositionComplex(tuple(
        scene.box(i) for i in ["b10", "b11", "b01", "b00.0", "b00.1"]))
    keys = [(f["axis"], F(f["pos"]),
             (F(f["span"][0]), F(f["span"][1])),
             (F(f["heights"][0]), F(f["heights"][1])))
            for f in maximal_faces(scene)]
    # the split box's half-height face and its full-height neighbour's
    # are both listed
    assert ("x", F(1, 2), (F(0), F(1, 2)), (F(0), F(1, 2))) in keys
    assert ("x", F(1, 2), (F(0), F(1, 2)), (F(0), F(1))) in keys
    # interval arithmetic agrees with brute-force sampling on all pairs
    for a in keys:
        for b in keys:
            if a is b or a[0] != b[0] or a[1] != b[1]:
                continue
            direct = circ_contains(b[2], a[2]) and circ_contains(b[3], a[3])
            sampled = sampled_face_contained((b[2], b[3]), (a[2], a[3]))
            assert direct == sampled, (a, b)


# ------------------------------------------------------------ family slice

def test_family_slice_horizontal_stays_horizontal():
    base = BaseDomain("rectangle", 9, 9)
    fam = horizontal_family(base, 17)
    half = family_slice(fam, 0.0, 0.5)
    assert half.t[0] == 0.0 and half.t[-1] == 1.0
    spread = half.values - half.t[:, None, None]
    assert np.max(np.abs(spread)) == 0.0


def test_family_slice_matches_shear_oracle():
    base = BaseDomain("rectangle", 9, 9)
    shear = 0.3
    fam = sheared_family(base, shear, 17)
    lo, hi = 0.25, 0.75
    piece = family_slice(fam, lo, hi)
    xs = base.x_nodes
    for k, s in enumerate(piece.t):
        expected = sheared_slice_oracle(shear, lo, hi, s, xs)
        got = piece.values[k, :, 0]
        assert np.max(np.abs(got - expected)) < 1e-12


def test_family_slice_rejects_bad_range():
    base = BaseDomain("rectangle", 9, 9)
    fam = horizontal_family(base, 9)
    with pytest.raises(ValueError):
        family_slice(fam, 0.5, 0.5)
    with pytest.raises(ValueError):
        family_slice(fam, -0.1, 0.5)


# ------------------------------------------------------------------- JSON

def test_scene_json_roundtrip():
    scene = build_torus_scene(
        (2, 2), height_splits={(0, 0): [F(1, 2)]},
        foliation={"kind": "sheared", "shear": 0.25, "grid": 9,
                   "samples": 9})
    blob = json.dumps(scene.to_json())
    back = DecompositionComplex.from_json(json.loads(blob))
    assert [b.identifier for b in back.boxes] \
        == [b.identifier for b in scene.boxes]
    for b0, b1 in zip(scene.boxes, back.boxes):
        assert b0.x_range == b1.x_range
        assert b0.heights == b1.heights
        assert [f.span for f in b0.faces] == [f.span for f in b1.faces]
        assert np.array_equal(b0.family.values, b1.family.values)
    assert back.volume == F(1)


# -------------------------------------------------------------- properties

@settings(deadline=None, max_examples=25)
@given(
    m=st.integers(1, 3), n=st.integers(1, 3),
    cuts=st.lists(
        st.sampled_from([F(1, 4), F(1, 2), F(3, 4)]),
        unique=True, max_size=2),
    cell=st.tuples(st.integers(0, 2), st.integers(0, 2)))
def test_build_enforce_always_valid(m, n, cuts, cell):
    splits = {}
    if cuts and cell[0] < m and cell[1] < n:
        splits[cell] = cuts
    scene = build_torus_scene(
        (m, n), height_splits=splits,
        foliation={"kind": "horizontal", "grid": 9, "samples": 5})
    report = validate(scene)
    for cond in ("1", "2", "3", "4"):
        assert report["conditions"][cond]["pass"], cond
    assert report["coverage"]["pass"]
    fixed = enforce_condition5(scene)
    assert validate(fixed)["valid"]
    assert fixed.volume == F(1)
