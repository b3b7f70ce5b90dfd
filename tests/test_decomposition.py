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


def circ_components_oracle(a, b):
    """General circular-interval intersection: shift copies catch pieces
    across the 0 = 1 seam, and touching pieces are merged back into single
    components.  Arcs of extent >= 1 are the full circle."""
    def clamp(iv):
        lo, hi = iv
        return (lo, lo + 1) if hi - lo >= 1 else (lo, hi)

    def mod1(v):
        return v - (v // 1)

    a, b = clamp(a), clamp(b)
    pieces = []
    for shift in (-1, 0, 1):
        lo = max(a[0], b[0] + shift)
        hi = min(a[1], b[1] + shift)
        if lo <= hi:
            canon = (mod1(lo), mod1(lo) + (hi - lo))
            if canon not in pieces:
                pieces.append(canon)

    def merge(p, q):
        # merged circular interval when q starts inside p, else None
        d = mod1(q[0] - p[0])
        if d <= p[1] - p[0]:
            ext = min(max(p[1] - p[0], d + (q[1] - q[0])), F(1))
            return (p[0], p[0] + ext)
        return None

    changed = True
    while changed and len(pieces) > 1:
        changed = False
        for i in range(len(pieces)):
            for j in range(len(pieces)):
                if i == j:
                    continue
                m = merge(pieces[i], pieces[j])
                if m is not None:
                    pieces = [pieces[k] for k in range(len(pieces))
                              if k not in (i, j)] + [m]
                    changed = True
                    break
            if changed:
                break
    return sorted(pieces)


def interiors_overlap_oracle(g, g0):
    return any(c[1] > c[0] for c in circ_components_oracle(g.span, g0.span)) \
        and any(c[1] > c[0]
                for c in circ_components_oracle(g.heights, g0.heights))


def enforce_condition5_oracle(complex_):
    """Restart-loop enforcement: split the first F box whose earlier cells
    dictate cuts, revalidate, and rescan the listing from the start."""
    rep = validate(complex_)
    current = complex_
    while not rep["conditions"]["5"]["pass"]:
        v_ids = current.v_boxes
        listing = list(current.boxes)
        f_positions = [k for k, b in enumerate(listing)
                       if b.identifier not in v_ids]
        for n_idx, pos in enumerate(f_positions):
            box = listing[pos]
            earlier = [listing[p] for p in f_positions[:n_idx]]
            cells = decomposition._geom_faces(box)
            x_cells = []
            for e in earlier:
                for g0 in decomposition._geom_faces(e):
                    for g in cells:
                        if g0.axis == g.axis and g0.pos == g.pos \
                                and interiors_overlap_oracle(g, g0):
                            x_cells.append(g0)
                            break
            height_cuts = {h for g0 in x_cells for h in g0.heights
                           if box.heights[0] < h < box.heights[1]}
            span_cuts = {}
            for g0 in x_cells:
                for g in cells:
                    if g.axis == g0.axis and g.pos == g0.pos:
                        pts = {p for p in g0.span
                               if g.span[0] < p < g.span[1]}
                        if pts:
                            span_cuts.setdefault(g.side, set()).update(pts)
            if not height_cuts and not span_cuts:
                continue
            pieces = decomposition._split_box(box, height_cuts, span_cuts)
            listing[pos:pos + 1] = pieces
            current = DecompositionComplex(tuple(listing), v_ids)
            break
        else:
            raise AssertionError("condition (5) fails with nothing to split")
        rep = validate(current)
    return current


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


def test_circ_components_matches_general_oracle():
    # every arc in [0, 1] with endpoints k/q, q <= 8: 253 arcs, 64009 pairs
    ends = sorted({F(k, q) for q in range(1, 9) for k in range(q + 1)})
    arcs = [(lo, hi) for lo in ends for hi in ends if lo < hi]
    assert len(arcs) == 253
    for a in arcs:
        for b in arcs:
            assert circ_components(a, b) == circ_components_oracle(a, b), \
                (a, b)


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


FULL = (F(0), F(1))
# the E, S and N faces of a box over [0, 1/2]^2 x [0, 1]
OTHER_SIDES = tuple(Face(side, (F(0), F(1, 2)), FULL) for side in "ESN")


@pytest.mark.parametrize("west, problem", [
    ((), "side W has no faces"),
    ((Face("W", (F(0), F(1, 4)), FULL),),
     "side W faces do not reach the corners"),
    ((Face("W", (F(0), F(1, 4)), FULL), Face("W", (F(1, 3), F(1, 2)), FULL)),
     "side W faces do not tile (gap at 1/4)"),
    ((Face("W", (F(0), F(1, 2)), (F(0), F(1, 2))),),
     "side W face heights differ from the box heights"),
])
def test_flow_box_spec_enforces_condition_1(west, problem):
    # condition (1) is checked once, when the box is built, so validate's
    # condition-1 row has nothing left to find
    fam = horizontal_family(BaseDomain("rectangle", 9, 9), 9)
    with pytest.raises(ValueError) as err:
        FlowBoxSpec("b", (F(0), F(1, 2)), (F(0), F(1, 2)), FULL,
                    west + OTHER_SIDES, fam)
    assert str(err.value) == f"box b: {problem}"


def test_flow_box_spec_needs_a_leaf_family():
    faces = (Face("W", (F(0), F(1, 2)), FULL),) + OTHER_SIDES
    with pytest.raises(ValueError) as err:
        FlowBoxSpec("b", (F(0), F(1, 2)), (F(0), F(1, 2)), FULL, faces, None)
    assert str(err.value) == "box b: missing attached leaf family"


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
    # the input and the result, each validated once
    scene = five_box_scene()
    fixed = enforce_condition5(scene)
    assert seen == [scene, fixed]
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


def test_enforce_needs_no_split_cap():
    # 35 box splits, more than a capped restart loop allowed
    scene = build_torus_scene(
        (6, 6), height_splits={(0, 0): [F(1, 2)]},
        foliation={"kind": "horizontal", "grid": 9, "samples": 5})
    fixed = enforce_condition5(scene)
    assert fixed.validation["valid"]
    assert len(fixed.boxes) == 72
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


@pytest.mark.parametrize("token, value", [
    ("0", F(0)), ("1", F(1)), ("-2", F(-2)), ("+3/4", F(3, 4)),
    ("0.25", F(1, 4)), ("-0.5", F(-1, 2)), ("007/014", F(1, 2)),
    ("9" * 64 + "/" + "9" * 64, F(1)),
])
def test_frac_reads_signed_digits_with_a_decimal_part_or_denominator(
        token, value):
    assert decomposition.frac(token) == value


@pytest.mark.parametrize("token", [
    "1e3", "1E3", "1e1000000000", "inf", "nan", " 1", "1 ", "1/", "/2",
    "1.", ".5", "1_000", "1/2/3", "0.5/2", "0x10", "\u0661", "",
    "9" * 65, "1/" + "9" * 65, "0." + "9" * 65,
])
def test_frac_refuses_strings_off_the_grammar(token):
    with pytest.raises(ValueError, match="is not a rational"):
        decomposition.frac(token)


@pytest.mark.parametrize("token", ["1/0", "-3/000"])
def test_frac_refuses_a_zero_denominator(token):
    with pytest.raises(ValueError, match="zero denominator"):
        decomposition.frac(token)


def test_every_template_rational_reads_back_through_frac():
    scene = build_torus_scene(
        (3, 2), height_splits={(0, 0): [F(1, 3)], (2, 1): [F(5, 7)]},
        foliation={"kind": "horizontal", "grid": 9, "samples": 3})
    blob = scene.to_json()
    tokens = [tok for box in blob["boxes"]
              for pair in ([box["x_range"], box["y_range"], box["heights"]]
                           + [f[k] for f in box["faces"]
                              for k in ("span", "heights")])
              for tok in pair]
    assert all(str(decomposition.frac(tok)) == tok for tok in tokens)


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
    assert fixed.to_json() == enforce_condition5_oracle(scene).to_json()
