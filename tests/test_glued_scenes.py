"""Property tests of the scene pipelines on glued scenes whose leaf index
sets differ box to box.

Every scene is cut from one foliation of T^3,
h(x, y, s) = s + clip(a(x, y), -0.9, 0.9) s (1 - s), with a a few cosine
modes on T^2, so each leaf is monotone in s.  Box (i, j) samples the
global leaves s_k at its own nodes and is indexed by their heights over its
origin corner, so the face charts and the measure transport see index sets
that differ across faces, while the fibers agree on shared faces.
Lebesgue measure in s is invariant; on a box its cumulative is
TransverseMeasure(t, s).
"""

import json
import math
from fractions import Fraction

import numpy as np
from hypothesis import given, settings, strategies as st

from flowbox.cli import main
from flowbox.decomposition import DecompositionComplex, FlowBoxSpec
from flowbox.foliation import BaseDomain, LeafFamily
from flowbox.kernel import COMPARISON_TOL, FACE_COMPAT_TOL, SOLVER_TOL
from flowbox.measure import (
    MeasuredScene,
    TransverseMeasure,
    scene_invariance_defect,
    smooth_measured_scene,
)
from flowbox.smoothing import face_transport_defect, globally_smooth

GRID = 17
LEAVES = 9
LADDER = (0.3, 0.15, 0.075, 0.0375)

modes = st.tuples(st.integers(-2, 2), st.integers(-2, 2),
                  st.floats(-1.0, 1.0), st.floats(0.0, 2.0 * math.pi))


def cut_scene(m, n, amplitude, waves):
    """(scene, measures): the m x n torus scene cut from h with a the given
    amplitude times the cosine modes (p, q, c, phase), with the invariant
    measure on every box."""

    def a(x, y):
        # math.cos node by node, so the scene's bits do not depend on
        # numpy's vector cos
        value = amplitude * sum(c * math.cos(2.0 * math.pi * (p * x + q * y)
                                             + phase)
                                for p, q, c, phase in waves)
        return min(max(value, -0.9), 0.9)

    s = np.linspace(0.0, 1.0, LEAVES)
    bump = s * (1.0 - s)
    base = BaseDomain("rectangle", GRID, GRID)
    boxes, measures = [], {}
    for i in range(m):
        for j in range(n):
            # a shared face's nodes get the same coordinates from both boxes
            grid = np.array([[a((i + k / (GRID - 1)) / m,
                                (j + l / (GRID - 1)) / n)
                              for l in range(GRID)] for k in range(GRID)])
            vals = s[:, None, None] + grid[None] * bump[:, None, None]
            fam = LeafFamily(base, vals[:, 0, 0], vals, (0, 0))
            ident = f"b{i}{j}"
            boxes.append(FlowBoxSpec.with_default_faces(
                ident, (Fraction(i, m), Fraction(i + 1, m)),
                (Fraction(j, n), Fraction(j + 1, n)), (0, 1), fam))
            measures[ident] = TransverseMeasure(fam.t, s)
    return DecompositionComplex(tuple(boxes)), measures


@st.composite
def glued_scenes(draw):
    """(scene, measures) of cut_scene over a drawn split, amplitude and 1 to
    3 modes."""
    m, n = draw(st.sampled_from([(2, 2), (1, 1), (3, 2)]))
    amplitude = draw(st.sampled_from([0.5, 0.9]))
    waves = draw(st.lists(modes, min_size=1, max_size=3))
    return cut_scene(m, n, amplitude, waves)


@settings(max_examples=12, deadline=None)
@given(glued_scenes())
def test_globally_smooth_holds_its_contract_on_glued_scenes(case):
    scene, _ = case
    assert scene.validation["valid"]
    assert face_transport_defect(scene) <= FACE_COMPAT_TOL
    rungs = []
    for eps in LADDER:
        report = {}
        smoothed = globally_smooth(scene, eps, report=report)
        assert report["achieved_distance"] <= eps
        assert report["face_defect_before"] <= FACE_COMPAT_TOL
        assert report["face_defect_after"] <= FACE_COMPAT_TOL
        for box in smoothed.boxes:
            fam = box.family
            np.testing.assert_array_equal(fam.values[:, 0, 0], fam.t)
        # the attempt a rung accepts is fixed by its budget alone
        rungs.append((report["achieved_distance"],
                      eps * 0.5 ** report["retries"]))
    # the ladder rule cli._run_ladder grades, exception included: a strict
    # fall while above SOLVER_TOL, except that a rung that passes on a
    # retry whose budget equals the next rung's accepted budget runs that
    # very attempt, so achieved repeats
    for (a, budget_a), (b, budget_b) in zip(rungs, rungs[1:]):
        assert b < a or a <= SOLVER_TOL or (b == a and budget_a == budget_b)


@settings(max_examples=40, deadline=None)
@given(glued_scenes())
def test_smooth_measured_scene_holds_its_contract_on_glued_scenes(case):
    scene, measures = case
    measured = MeasuredScene(scene, measures)
    assert scene_invariance_defect(measured) <= FACE_COMPAT_TOL
    report = {}
    smooth_measured_scene(measured, 9, report=report)
    assert report["pre_defect"] <= FACE_COMPAT_TOL
    assert report["post_defect"] < COMPARISON_TOL


def test_flowbox_smooth_passes_when_two_rungs_accept_one_budget(tmp_path):
    # rung 0.3 passes on its second retry and rung 0.15 on its first, both
    # at budget 0.075, so they return one family: distances
    # [0.1497, 0.1497, 0.0732], retries [2, 1, 1]
    scene, _ = cut_scene(1, 1, 0.5, [(-1, -2, 0.375, 0.0),
                                     (2, 2, 1.0, 0.4375)])
    path = tmp_path / "scene.json"
    path.write_text(json.dumps(scene.to_json()))
    out = tmp_path / "run"
    assert main(["smooth", "--scene", str(path), "--out", str(out)]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert [run["retries"] for run in manifest["results"]["runs"]] \
        == [2, 1, 1]
    row, = (row for row in manifest["checks"]
            if row["name"] == "distances-decrease")
    first, second, third = row["distances"]
    assert first == second > third
    assert row["pass"]
