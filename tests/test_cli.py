"""End-to-end tests for the command-line runner and scene templates."""

import csv
import json
import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import flowbox
from flowbox import cli, decomposition, denjoy, smoothing
from flowbox.cli import (
    GOLDEN_MEAN,
    MAX_GAP_STEPS,
    MAX_ITERATIONS,
    MAX_ORBIT_POINTS,
    MAX_SCENE_VALUES,
    MAX_SUBSAMPLES,
    MalformedInput,
    ScenarioConfig,
    generate_scene,
    main,
    run,
)
from flowbox.decomposition import DecompositionComplex, validate
from flowbox.denjoy import blowup_circle_map
from flowbox.foliation import c0_distance, horizontal_family
from flowbox.kernel import LadderError

from test_denjoy import bent_packet, mixed_horizontal_scene
from test_measure import wave_scene


def read_csv(path):
    with Path(path).open(newline="") as handle:
        rows = list(csv.reader(handle))
    return rows[0], rows[1:]


def read_manifest(out_dir):
    return json.loads((Path(out_dir) / "manifest.json").read_text())


@pytest.fixture(scope="module")
def scenes(tmp_path_factory):
    root = tmp_path_factory.mktemp("scenes")
    small = {"grid": 17, "samples": 9}
    return {
        "horizontal": generate_scene("horizontal-t3", small,
                                     root / "horizontal.json"),
        "sheared": generate_scene("sheared-t3", dict(small, shear=0.1),
                                  root / "sheared.json"),
        "split": generate_scene("split-t3", small, root / "split.json"),
        "annulus": generate_scene("annulus-box", small,
                                  root / "annulus.json"),
    }


def load_scene(path):
    return DecompositionComplex.from_json(
        json.loads(Path(path).read_text())["scene"])


# ---------------------------------------------------------------------------
# scene templates


def test_generate_horizontal_t3_four_box_valid(scenes):
    scene = load_scene(scenes["horizontal"])
    assert len(scene.boxes) == 4
    assert validate(scene)["valid"]


def test_generate_sheared_t3_c0_oracle(scenes):
    # analytic maximum of the shear field: atan(shear * max t(1-t)) and
    # t = 1/2 is a sample point, so the sampled max is exactly shear/4
    scene = load_scene(scenes["sheared"])
    distances = []
    for box in scene.boxes:
        flat = horizontal_family(box.family.base, box.family.t.size)
        distances.append(c0_distance(box.family, flat))
    assert max(distances) == pytest.approx(math.atan(0.1 * 0.25), abs=1e-12)
    assert min(distances) == pytest.approx(max(distances), abs=1e-15)


def test_generate_split_t3_fails_validation(scenes):
    scene = load_scene(scenes["split"])
    assert len(scene.boxes) == 5
    report = validate(scene)
    assert not report["valid"]
    assert not report["conditions"]["5"]["pass"]
    assert report["conditions"]["5"]["witnesses"]


def test_generate_annulus_box_valid(scenes):
    scene = load_scene(scenes["annulus"])
    assert len(scene.boxes) == 1
    report = validate(scene)
    assert report["valid"]
    axes = {(row["box"], row["axis"]) for row in report["annular_faces"]}
    assert axes == {("annulus", "x"), ("annulus", "y")}


def test_generate_rejects_unknown_template(tmp_path):
    with pytest.raises(MalformedInput, match="unknown template"):
        generate_scene("moebius-band", {}, tmp_path / "x.json")
    with pytest.raises(MalformedInput, match="unknown parameters"):
        generate_scene("horizontal-t3", {"stripes": 3}, tmp_path / "x.json")
    # values the scene constructors reject: BaseDomain needs 8 nodes per
    # axis, sheared_family needs |shear| < 1
    for template, params in (("horizontal-t3", {"grid": 4}),
                             ("horizontal-t3", {"grid": 1}),
                             ("split-t3", {"grid": 7}),
                             ("annulus-box", {"grid": 7}),
                             ("sheared-t3", {"shear": 1.5})):
        with pytest.raises(MalformedInput, match=f"cannot build {template}"):
            generate_scene(template, params, tmp_path / "x.json")
    assert not (tmp_path / "x.json").exists()


@pytest.mark.parametrize("flags", [["--grid", "4"], ["--grid", "7"],
                                   ["--shear", "1.5"]])
def test_main_generate_out_of_range_exits_three(tmp_path, capsys, flags):
    code = main(["generate", "--template", "sheared-t3",
                 "--out", str(tmp_path)] + flags)
    assert code == 3
    err = capsys.readouterr().err
    assert err.startswith("flowbox: error: cannot build sheared-t3: ")
    assert not (tmp_path / "sheared-t3.json").exists()


@pytest.mark.parametrize("flags", [["--grid", "100000000"],
                                   ["--samples", "1000000000"],
                                   ["--split", "100000,100000"]])
def test_main_generate_over_size_cap_exits_three(tmp_path, capsys,
                                                 monkeypatch, flags):
    # the cap is checked before the scene is built: building it would try
    # to allocate the rejected size, so the builder must never be called
    def never(*args, **kwargs):
        raise AssertionError("scene built over the size cap")

    monkeypatch.setattr(cli, "build_torus_scene", never)
    code = main(["generate", "--template", "horizontal-t3",
                 "--out", str(tmp_path)] + flags)
    assert code == 3
    err = capsys.readouterr().err
    assert err.startswith("flowbox: error: horizontal-t3 with ")
    assert "leaf-grid values" in err
    assert not (tmp_path / "horizontal-t3.json").exists()


def test_generate_is_deterministic(tmp_path):
    a = generate_scene("sheared-t3", {"grid": 17, "samples": 9},
                       tmp_path / "a.json")
    b = generate_scene("sheared-t3", {"grid": 17, "samples": 9},
                       tmp_path / "b.json")
    assert a.read_bytes() == b.read_bytes()


# ---------------------------------------------------------------------------
# scenario runs


def test_validate_torus_scene_exit_zero(scenes, tmp_path):
    config = ScenarioConfig(kind="validate", out=str(tmp_path),
                            scene=str(scenes["horizontal"]))
    assert run(config) == 0
    manifest = read_manifest(tmp_path)
    assert manifest["ok"]
    assert manifest["schema_version"] == 1
    assert all(row["pass"] for row in manifest["checks"])
    names = {row["name"] for row in manifest["checks"]}
    assert {"condition-1", "condition-5", "coverage"} <= names


def test_validate_split_scene_exit_two(scenes, tmp_path):
    config = ScenarioConfig(kind="validate", out=str(tmp_path),
                            scene=str(scenes["split"]))
    assert run(config) == 2
    manifest = read_manifest(tmp_path)
    assert not manifest["ok"]
    failed = [row for row in manifest["checks"] if not row["pass"]]
    assert any(row["name"] == "condition-5" for row in failed)


@pytest.mark.parametrize("kind", ["smooth", "blowup", "measure"])
def test_pipelines_refuse_an_invalid_scene_exit_two(kind, scenes, tmp_path):
    # the scene's validation stops the run before any pipeline stage
    assert run(ScenarioConfig(kind="validate", out=str(tmp_path / "v"),
                              scene=str(scenes["split"]))) == 2
    config = ScenarioConfig(kind=kind, out=str(tmp_path / kind),
                            scene=str(scenes["split"]))
    assert run(config) == 2
    manifest = read_manifest(tmp_path / kind)
    assert manifest["exit_code"] == 2 and manifest["ok"] is False
    assert list(manifest["results"]) == ["validation"]
    assert not manifest["results"]["validation"]["valid"]
    names = [row["name"] for row in manifest["checks"]]
    assert names == [f"condition-{k}" for k in range(1, 6)] + ["coverage"]
    failed = [row["name"] for row in manifest["checks"] if not row["pass"]]
    assert "condition-5" in failed
    assert manifest["checks"] == read_manifest(tmp_path / "v")["checks"]
    assert not list((tmp_path / kind).glob("*.csv"))


def test_blowup_weight_ladder_distances_decrease(scenes, tmp_path):
    config = ScenarioConfig(kind="blowup", out=str(tmp_path),
                            scene=str(scenes["horizontal"]),
                            weights=(0.2, 0.1, 0.05), packet_samples=9)
    assert run(config) == 0
    header, rows = read_csv(tmp_path / "blowup.csv")
    assert header == ["total_weight", "achieved_distance", "face_defect"]
    weights = [float(r[0]) for r in rows]
    distances = [float(r[1]) for r in rows]
    assert weights == [0.2, 0.1, 0.05]
    assert all(b < a for a, b in zip(distances, distances[1:]))
    manifest = read_manifest(tmp_path)
    assert all(row["pass"] for row in manifest["checks"])
    assert any(row["name"] == "distances-decrease"
               for row in manifest["checks"])
    for run_entry in manifest["results"]["runs"]:
        assert run_entry["verification"]["all_pass"]


def test_blowup_manifest_on_a_mixed_scene(tmp_path):
    # b00 and b01 byte-equal, b10 with other leaves, b11 one ulp off b00
    path = tmp_path / "mixed.json"
    path.write_text(json.dumps({"scene": mixed_horizontal_scene().to_json()}))
    config = ScenarioConfig(kind="blowup", out=str(tmp_path / "out"),
                            scene=str(path), weights=(0.2, 0.1),
                            packet_samples=9)
    assert run(config) == 0
    first = read_manifest(tmp_path / "out")
    first_csv = (tmp_path / "out" / "blowup.csv").read_bytes()
    assert all(row["pass"] for row in first["checks"])
    for entry in first["results"]["runs"]:
        distances = entry["pipeline"]["box_distances"]
        assert list(distances) == ["b00", "b01", "b10", "b11"]
        assert distances["b00"] == distances["b01"]
        assert entry["pipeline"]["achieved_distance"] == max(
            distances.values())
        assert entry["verification"]["all_pass"]
    assert run(config) == 0
    second = read_manifest(tmp_path / "out")
    first.pop("created")
    second.pop("created")
    assert json.dumps(first, sort_keys=True) == \
        json.dumps(second, sort_keys=True)
    assert (tmp_path / "out" / "blowup.csv").read_bytes() == first_csv


@pytest.mark.parametrize("argv", [
    ["blowup", "--weights", "0.2,0.1,0.05", "--packet-samples", "9"],
    ["measure"],
])
def test_scene_runs_validate_the_scene_once(argv, scenes, tmp_path,
                                            monkeypatch):
    # the CLI's check and every pipeline call (one per blowup weight) read
    # the loaded scene's one cached report
    seen = []

    def counting_validate(complex_):
        seen.append(complex_)
        return validate(complex_)

    monkeypatch.setattr(decomposition, "validate", counting_validate)
    assert main(argv + ["--scene", str(scenes["horizontal"]),
                        "--out", str(tmp_path)]) == 0
    assert len(seen) == 1


def test_denjoy_circle_golden_rotation_estimate(tmp_path):
    config = ScenarioConfig(kind="denjoy-circle", out=str(tmp_path))
    assert run(config) == 0
    header, rows = read_csv(tmp_path / "rotation.csv")
    assert header == ["iterate", "orbit_value", "rotation_estimate"]
    assert len(rows) == config.iterations
    final = float(rows[-1][2])
    assert abs(final - GOLDEN_MEAN) < 1e-3

    # Birkhoff oracle: rebuild the lift and average the displacement
    lift = blowup_circle_map(GOLDEN_MEAN, config.orbit_points)
    x = 0.0
    for _ in range(config.iterations):
        x = float(lift(x))
    assert final == x / config.iterations

    manifest = read_manifest(tmp_path)
    assert manifest["ok"]
    assert manifest["results"]["audit"]["revisits"] == 0


def test_denjoy_circle_manifest_agrees_with_rotation_csv(tmp_path):
    # the manifest's estimate and error proxy come from the same orbit as
    # the CSV rows, so they equal what the last two rows say
    config = ScenarioConfig(kind="denjoy-circle", out=str(tmp_path),
                            iterations=2000, audit_steps=50)
    assert run(config) == 0
    _header, rows = read_csv(tmp_path / "rotation.csv")
    estimates = [float(row[2]) for row in rows]
    results = read_manifest(tmp_path)["results"]
    rotation = results["rotation"]
    assert rotation["estimate"] == results["final_estimate"] == estimates[-1]
    assert rotation["error_proxy"] == abs(estimates[-1] - estimates[-2])
    assert rotation["iterations"] == len(rows) == config.iterations


def test_smooth_ladder_meets_each_epsilon(scenes, tmp_path):
    config = ScenarioConfig(kind="smooth", out=str(tmp_path),
                            scene=str(scenes["sheared"]),
                            epsilons=(0.3, 0.15))
    assert run(config) == 0
    header, rows = read_csv(tmp_path / "smooth.csv")
    assert header == ["epsilon", "achieved_distance", "face_defect"]
    for eps, achieved, face in ((float(a), float(b), float(c))
                                for a, b, c in rows):
        assert achieved <= eps
        assert face < 1e-6
    manifest = read_manifest(tmp_path)
    assert all(row["pass"] for row in manifest["checks"])


def test_smooth_on_an_already_smooth_scene_exits_zero(scenes, tmp_path):
    # every rung reaches 0.0, which cannot fall any further
    assert main(["smooth", "--scene", str(scenes["horizontal"]),
                 "--out", str(tmp_path)]) == 0
    manifest = read_manifest(tmp_path)
    assert all(row["pass"] for row in manifest["checks"])
    row, = (row for row in manifest["checks"]
            if row["name"] == "distances-decrease")
    assert row["distances"] == [0.0, 0.0, 0.0]


def _ladder_row(distances, retries, tmp_path):
    """The distances-decrease row of _run_ladder down the ladder 0.3, 0.15,
    0.075 when rung k reaches distances[k] after retries[k] retries."""
    ladder = (0.3, 0.15, 0.075)

    def pipeline(value, report):
        k = ladder.index(value)
        report.update(achieved_distance=distances[k], retries=retries[k])

    def grade(value, report, result):
        return {}, {"name": f"rung-{value:g}", "pass": True}, 0.0

    _, checks = cli._run_ladder(ladder, pipeline, "ladder", grade,
                                tmp_path / "ladder.csv", "epsilon")
    return checks[-1]


@pytest.mark.parametrize("distances, ok", [
    ((0.2, 0.1, 0.1), False),
    ((0.2, 0.2, 0.1), False),
    ((0.2, 1e-13, 1e-13), True),
    ((0.2, 0.0, 0.0), True),
    ((0.2, 0.1, 0.0), True),
])
def test_ladder_distances_fall_strictly_above_solver_tol(distances, ok,
                                                         tmp_path):
    # no retries, so every rung accepted a budget of its own
    assert _ladder_row(distances, (0, 0, 0), tmp_path) == {
        "name": "distances-decrease", "pass": ok,
        "distances": list(distances)}


@pytest.mark.parametrize("retries, ok", [
    # budgets 0.075, 0.075, 0.0375: the first two rungs ran one attempt
    ((2, 1, 1), True),
    # budgets 0.15, 0.075, 0.0375
    ((1, 1, 1), False),
])
def test_ladder_equal_distances_pass_only_at_one_budget(retries, ok,
                                                        tmp_path):
    assert _ladder_row((0.15, 0.15, 0.07), retries, tmp_path)["pass"] is ok


def test_tischler_run_writes_certificate(tmp_path):
    config = ScenarioConfig(kind="tischler", out=str(tmp_path),
                            coefficients=(1, math.sqrt(2.0)),
                            epsilons=(1e-3,))
    assert run(config) == 0
    manifest = read_manifest(tmp_path)
    assert manifest["results"]["rational_coefficients"] == ["1", "17/12"]
    assert manifest["results"]["certificate"]["period"] == 12
    header, rows = read_csv(tmp_path / "tischler_orbit.csv")
    assert header == ["step", "coordinate_0", "coordinate_1"]
    assert len(rows) == 12
    assert rows[1][2] == "5/12"


def test_measure_run_with_kinked_cumulative(scenes, tmp_path):
    z = np.linspace(0.0, 1.0, 41)
    totals = 0.85 * z + 0.3 * np.minimum(z, 0.5)
    totals /= totals[-1]
    measure_file = tmp_path / "kinked.json"
    measure_file.write_text(json.dumps(
        {"heights": z.tolist(), "totals": totals.tolist()}))
    out = tmp_path / "run"
    config = ScenarioConfig(kind="measure", out=str(out),
                            scene=str(scenes["horizontal"]),
                            measure_file=str(measure_file))
    assert run(config) == 0
    manifest = read_manifest(out)
    assert manifest["results"]["pipeline"]["post_defect"] < 1e-9
    header, rows = read_csv(out / "measures.csv")
    assert header == ["box", "height", "total"]
    assert {r[0] for r in rows} == {"b00", "b01", "b10", "b11"}


def test_per_box_measure_file_matches_the_single_cumulative(scenes,
                                                            tmp_path):
    z = np.linspace(0.0, 1.0, 41)
    totals = 0.85 * z + 0.3 * np.minimum(z, 0.5)
    totals /= totals[-1]
    cumulative = {"heights": z.tolist(), "totals": totals.tolist()}
    boxes = [box.identifier for box in load_scene(scenes["horizontal"]).boxes]
    files = {"single": cumulative,
             "per-box": {"measures": {box: cumulative for box in boxes}}}
    outputs = []
    for name, content in files.items():
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(content))
        out = tmp_path / name
        assert run(ScenarioConfig(kind="measure", out=str(out),
                                  scene=str(scenes["horizontal"]),
                                  measure_file=str(path))) == 0
        manifest = read_manifest(out)
        outputs.append((manifest["results"], manifest["checks"],
                        (out / "measures.csv").read_bytes()))
    assert outputs[0] == outputs[1]


@pytest.mark.parametrize("measures", [[1, 2], "b00"])
def test_measure_file_whose_measures_are_no_object_exit_three(
        measures, horizontal9_scene, tmp_path):
    path = tmp_path / "measures.json"
    path.write_text(json.dumps({"measures": measures}))
    assert main(["measure", "--scene", str(horizontal9_scene),
                 "--measure-file", str(path),
                 "--out", str(tmp_path / "run")]) == 3
    [row] = read_manifest(tmp_path / "run")["checks"]
    assert row["name"] == "input-wellformed" and not row["pass"]
    assert "measures must map box identifiers to cumulatives" in row["detail"]


def test_measure_file_with_bool_and_string_entries_exit_three(
        horizontal9_scene, tmp_path):
    # np.array(..., dtype=float) would read these as the cumulative
    # (0, 0.5, 1) over the heights (0, 0.5, 1)
    path = tmp_path / "measure.json"
    path.write_text(json.dumps({"heights": [False, "0.5", True],
                                "totals": [0, "0.5", 1]}))
    assert main(["measure", "--scene", str(horizontal9_scene),
                 "--measure-file", str(path),
                 "--out", str(tmp_path / "run")]) == 3
    [row] = read_manifest(tmp_path / "run")["checks"]
    assert row["name"] == "input-wellformed" and not row["pass"]
    assert "measure heights must be numbers, got bool, str" in row["detail"]


@pytest.mark.parametrize("content, where", [
    ({"heights": [0, 0.5, 1]}, "cumulative function: missing key 'totals'"),
    ({"measures": {"b00": {"heights": [0, 0.5, 1]}}},
     "cumulative function: measures.b00: missing key 'totals'"),
])
def test_measure_file_missing_totals_exit_three(content, where,
                                                horizontal9_scene, tmp_path):
    path = tmp_path / "measure.json"
    path.write_text(json.dumps(content))
    assert main(["measure", "--scene", str(horizontal9_scene),
                 "--measure-file", str(path),
                 "--out", str(tmp_path / "run")]) == 3
    [row] = read_manifest(tmp_path / "run")["checks"]
    assert row["name"] == "input-wellformed" and not row["pass"]
    assert row["detail"] == f"measure file {path} does not describe a {where}"


@pytest.mark.parametrize("target, stage", [
    ("smooth_with_holonomy_constraint", "maximal-face neighborhoods"),
    ("damped_cone", "interior coning"),
])
def test_smooth_failure_names_the_failed_stage(target, stage, scenes,
                                                tmp_path, monkeypatch):
    # a failure inside the first attempt, before any report row exists,
    # must still be named by its stage, not by the pipeline
    def fail(*args, **kwargs):
        raise LadderError("injected failure")

    monkeypatch.setattr(smoothing, target, fail)
    config = ScenarioConfig(kind="smooth", out=str(tmp_path),
                            scene=str(scenes["sheared"]), epsilons=(0.3,))
    assert run(config) == 1
    manifest = read_manifest(tmp_path)
    assert manifest["results"]["failed_stage"] == stage
    assert "injected failure" in manifest["results"]["error"]


@pytest.mark.parametrize("target, skip, stage", [
    ("blowup_box", 0, "edge-neighborhood boxes"),
    ("_glued_rho", 0, "maximal-face gluing"),
    # the packet pre-check compares the packet's own sides without
    # face_transport_defect, so its first call is the interior extension's
    ("face_transport_defect", 0, "interior extension"),
])
def test_blowup_failure_names_the_failed_stage(target, skip, stage, scenes,
                                               tmp_path, monkeypatch):
    # a failure inside the first attempt, before any report row exists,
    # must still be named by its stage, not by the pipeline
    real = getattr(denjoy, target)
    calls = []

    def fail(*args, **kwargs):
        calls.append(target)
        if len(calls) <= skip:
            return real(*args, **kwargs)
        raise ValueError("injected failure")

    monkeypatch.setattr(denjoy, target, fail)
    config = ScenarioConfig(kind="blowup", out=str(tmp_path),
                            scene=str(scenes["horizontal"]), weights=(0.2,),
                            packet_samples=9)
    assert run(config) == 1
    manifest = read_manifest(tmp_path)
    assert manifest["results"]["failed_stage"] == stage
    assert "injected failure" in manifest["results"]["error"]


def test_blowup_packet_precheck_names_the_side_pair(scenes, tmp_path,
                                                   monkeypatch):
    # a packet with an x.y term glues with itself across no face; the
    # pre-check fails before any attempt, with exit 1, and says which sides
    monkeypatch.setattr(cli, "sheared_family",
                        lambda base, shear, samples: bent_packet(
                            grid=base.nx, samples=samples))
    config = ScenarioConfig(kind="blowup", out=str(tmp_path),
                            scene=str(scenes["horizontal"]), weights=(0.2,),
                            packet_samples=9)
    assert run(config) == 1
    error = read_manifest(tmp_path)["results"]["error"]
    assert ("packet 0: face holonomy data disagree across E|W faces "
            "(defect 0.075)") in error


@pytest.fixture(scope="module")
def horizontal9_scene(tmp_path_factory):
    return generate_scene("horizontal-t3", {"grid": 9, "samples": 9},
                          tmp_path_factory.mktemp("h9") / "h9.json")


def test_measure_subsamples_over_the_cap_exit_three(horizontal9_scene,
                                                    tmp_path, monkeypatch,
                                                    capsys):
    # the cap is checked before any spline node is allocated
    def never(*args, **kwargs):
        raise AssertionError("measure ran over the subsample cap")

    monkeypatch.setattr(cli, "smooth_measured_scene", never)
    assert main(["measure", "--scene", str(horizontal9_scene),
                 "--subsamples", str(MAX_SUBSAMPLES + 1),
                 "--out", str(tmp_path)]) == 3
    assert str(MAX_SUBSAMPLES) in capsys.readouterr().err
    manifest = read_manifest(tmp_path)
    [row] = manifest["checks"]
    assert row["name"] == "input-wellformed" and not row["pass"]
    assert f"between 4 and {MAX_SUBSAMPLES} subsample nodes" in row["detail"]
    assert not (tmp_path / "measures.csv").exists()


def test_measure_subsamples_at_the_cap_runs(horizontal9_scene, tmp_path):
    assert main(["measure", "--scene", str(horizontal9_scene),
                 "--subsamples", str(MAX_SUBSAMPLES),
                 "--out", str(tmp_path)]) == 0
    manifest = read_manifest(tmp_path)
    assert all(c["pass"] for c in manifest["checks"])
    _, rows = read_csv(tmp_path / "measures.csv")
    assert len(rows) >= 4 * MAX_SUBSAMPLES


# each size flag over its cap, small and huge; the caller never reached
OVER_CAP = [
    (["blowup", "--packet-samples", str(MAX_SCENE_VALUES // 81 + 1)],
     MAX_SCENE_VALUES),
    (["blowup", "--packet-samples", "1000000000000"], MAX_SCENE_VALUES),
    (["denjoy-circle", "--orbit-points", str(MAX_ORBIT_POINTS + 1)],
     MAX_ORBIT_POINTS),
    (["denjoy-circle", "--orbit-points", "1000000000000"], MAX_ORBIT_POINTS),
    (["denjoy-circle", "--iterations", str(MAX_ITERATIONS + 1)],
     MAX_ITERATIONS),
    (["denjoy-circle", "--iterations", "1000000000000"], MAX_ITERATIONS),
    (["denjoy-circle", "--audit-steps",
      str(MAX_GAP_STEPS // ScenarioConfig.orbit_points + 1)], MAX_GAP_STEPS),
    (["denjoy-circle", "--audit-steps", "1000000000"], MAX_GAP_STEPS),
]


@pytest.mark.parametrize("argv, cap", OVER_CAP)
def test_size_flags_over_their_caps_exit_three(argv, cap, horizontal9_scene,
                                               tmp_path, monkeypatch):
    # the caps are checked before the packet, the orbit's gaps or the
    # orbit itself is allocated, and before the gap audit runs
    for name in ("sheared_family", "blowup_circle_map", "circle_orbit",
                 "wandering_audit"):
        def never(*args, name=name, **kwargs):
            raise AssertionError(f"{name} ran over a size cap")

        monkeypatch.setattr(cli, name, never)
    if argv[0] == "blowup":
        argv = argv + ["--scene", str(horizontal9_scene)]
    assert main(argv + ["--out", str(tmp_path)]) == 3
    manifest = read_manifest(tmp_path)
    assert manifest["exit_code"] == 3
    [row] = manifest["checks"]
    assert row["name"] == "input-wellformed" and not row["pass"]
    assert str(cap) in row["detail"]
    assert not list(tmp_path.glob("*.csv"))


class _ReachedPacket(Exception):
    pass


def test_packet_samples_at_the_cap_reach_the_packet(tmp_path, monkeypatch):
    # the bound is nx * ny * samples <= MAX_SCENE_VALUES on the scene's own
    # base, which the packet is built on; on a grid of 8 the cap is exact
    scene = generate_scene("horizontal-t3", {"grid": 8, "samples": 5},
                           tmp_path / "h8.json")
    seen = []

    def stop(base, shear, samples):
        seen.append((base, samples))
        raise _ReachedPacket

    monkeypatch.setattr(cli, "sheared_family", stop)
    samples = MAX_SCENE_VALUES // 64
    assert 64 * samples == MAX_SCENE_VALUES
    with pytest.raises(_ReachedPacket):
        main(["blowup", "--scene", str(scene), "--packet-samples",
              str(samples), "--out", str(tmp_path / "run")])
    [(base, got)] = seen
    assert got == samples
    assert base == load_scene(scene).boxes[0].family.base


def test_orbit_flags_at_their_caps_are_accepted(tmp_path):
    config = ScenarioConfig(kind="denjoy-circle", out=str(tmp_path),
                            orbit_points=MAX_ORBIT_POINTS,
                            iterations=MAX_ITERATIONS)
    assert (config.orbit_points, config.iterations) == \
        (MAX_ORBIT_POINTS, MAX_ITERATIONS)
    steps = MAX_GAP_STEPS // MAX_ORBIT_POINTS
    assert MAX_ORBIT_POINTS * steps == MAX_GAP_STEPS
    config = ScenarioConfig(kind="denjoy-circle", out=str(tmp_path),
                            orbit_points=MAX_ORBIT_POINTS, audit_steps=steps)
    assert config.orbit_points * config.audit_steps == MAX_GAP_STEPS


def test_measure_rejects_noninvariant_with_stage(scenes, tmp_path):
    # Lebesgue is not holonomy-invariant on the sheared scene; the
    # pre-check must stop the pipeline and name the stage
    config = ScenarioConfig(kind="measure", out=str(tmp_path),
                            scene=str(scenes["sheared"]))
    assert run(config) == 1
    manifest = read_manifest(tmp_path)
    assert not manifest["ok"]
    assert manifest["results"]["failed_stage"] == "invariance pre-check"


@pytest.mark.parametrize("p, q, phase", [(1, 1, 1.3), (1, -1, 2.0)])
def test_measure_run_transports_across_non_identity_faces(p, q, phase,
                                                         tmp_path):
    # the wave scene's boxes index their leaves differently, so the face
    # transport changes each neighbor's reference fiber coordinates
    measured = wave_scene(p, q, 0.5, phase)
    scene = tmp_path / "wave.json"
    scene.write_text(json.dumps({"scene": measured.scene.to_json()}))
    measure_file = tmp_path / "measures.json"
    measure_file.write_text(json.dumps({"measures": {
        name: {"heights": mu.heights.tolist(), "totals": mu.totals.tolist()}
        for name, mu in measured.measures.items()}}))
    outputs = []
    for _ in range(2):
        assert main(["measure", "--scene", str(scene),
                     "--measure-file", str(measure_file),
                     "--out", str(tmp_path / "run")]) == 0
        manifest = read_manifest(tmp_path / "run")
        assert manifest["results"]["pipeline"]["post_defect"] < 1e-9
        manifest.pop("created")
        outputs.append((json.dumps(manifest, sort_keys=True),
                        (tmp_path / "run" / "measures.csv").read_bytes()))
    assert outputs[0] == outputs[1]
    _, rows = read_csv(tmp_path / "run" / "measures.csv")
    per_box = {}
    for box, z, total in rows:
        per_box.setdefault(box, []).append((z, total))
    # a face whose chain were the identity would copy the root's cumulative
    assert len({tuple(v) for v in per_box.values()}) > 1


def test_measure_names_the_skeleton_stage(tmp_path):
    # Lebesgue-invariant on the horizontal scene, so the pre-check passes;
    # the near-flat step then breaks the skeleton spline's monotonicity
    scene = generate_scene("horizontal-t3", {"grid": 9, "samples": 9},
                           tmp_path / "scene.json")
    measure_file = tmp_path / "measure.json"
    measure_file.write_text(json.dumps(
        {"heights": [0.0, 0.1, 0.9, 1.0],
         "totals": [0.0, 0.5, 0.5 + 4e-16, 1.0]}))
    config = ScenarioConfig(kind="measure", out=str(tmp_path / "run"),
                            scene=str(scene), measure_file=str(measure_file))
    assert run(config) == 1
    results = read_manifest(tmp_path / "run")["results"]
    assert results["failed_stage"] == "vertical-skeleton smoothing"
    assert "monotonicity" in results["error"]


# ---------------------------------------------------------------------------
# manifest invariants and exit codes


# every scenario, at small sizes
DETERMINISM_RUNS = {
    "denjoy-circle": {"iterations": 2000, "audit_steps": 50},
    "validate": {"scene": "split"},
    "blowup": {"scene": "horizontal", "weights": (0.2, 0.1),
               "packet_samples": 9},
    "measure": {"scene": "horizontal"},
    "tischler": {"coefficients": (1, math.sqrt(2.0)), "epsilons": (1e-3,)},
    "smooth": {"scene": "sheared", "epsilons": (0.3,)},
}


@pytest.mark.parametrize("kind", DETERMINISM_RUNS)
def test_manifest_determinism_excluding_timestamp(kind, scenes, tmp_path):
    options = dict(DETERMINISM_RUNS[kind])
    if "scene" in options:
        options["scene"] = str(scenes[options["scene"]])
    config = ScenarioConfig(kind=kind, out=str(tmp_path), **options)
    # split-t3 fails condition 5 by design; validate writes no CSV
    code = 2 if kind == "validate" else 0
    assert run(config) == code
    first = read_manifest(tmp_path)
    first_csv = {p.name: p.read_bytes() for p in tmp_path.glob("*.csv")}
    assert first_csv or kind == "validate"
    assert run(config) == code
    second = read_manifest(tmp_path)
    first.pop("created")
    second.pop("created")
    assert json.dumps(first, sort_keys=True) == \
        json.dumps(second, sort_keys=True)
    assert {p.name: p.read_bytes() for p in tmp_path.glob("*.csv")} == \
        first_csv


def jsonable_oracle(value):
    """The manifest writer's former walk, which coerced every payload to
    plain JSON values before json.dumps saw it."""
    if isinstance(value, Fraction):
        return str(value)
    if isinstance(value, np.floating):
        return float(value)
    if isinstance(value, np.integer):
        return int(value)
    if isinstance(value, np.ndarray):
        return [jsonable_oracle(v) for v in value.tolist()]
    if isinstance(value, dict):
        return {str(k): jsonable_oracle(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [jsonable_oracle(v) for v in value]
    if isinstance(value, (frozenset, set)):
        return sorted((jsonable_oracle(v) for v in value), key=str)
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    return str(value)


def write_csv_oracle(path, header, rows):
    """The former CSV writer: each float field as its repr, row by row."""
    with Path(path).open("w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(header)
        for row in rows:
            writer.writerow([repr(v) if isinstance(v, float) else v
                             for v in row])


SPECIAL_FLOATS = [math.nan, math.inf, -math.inf, -0.0, 5e-324, 0.1 + 0.2,
                  1e300, 2.0 ** -1074 * 3]
SERIALIZER_PAYLOAD = {
    "fraction": Fraction(17, 12),
    "numpy": [np.float64(0.1), np.float32(0.1), np.int64(-7), np.bool_(True),
              np.float64(math.nan), np.float32(-0.0)],
    "arrays": {"float": np.array([[0.5, -0.0], [math.inf, 5e-324]]),
               "float32": np.array([[[0.1, 0.2]]], dtype=np.float32),
               "int": np.arange(3, dtype=np.int64),
               "bool": np.array([True, False]),
               "object": np.array([Fraction(1, 3), None], dtype=object)},
    "set": {"b", "a", 3, Fraction(1, 2), np.float32(0.25), np.int64(2),
            np.bool_(False), None, 1.5},
    "frozenset": frozenset({("x", Fraction(10, 3)), ("x", Fraction(2, 1)),
                            ("x", 0.25), ("a", 2), frozenset({1, "1"})}),
    "tuple": (1, (2.5, "z"), [Fraction(-1, 2)], ()),
    "floats": SPECIAL_FLOATS,
    "nested": {"deeper": {"value": np.float64(1e300), "none": None,
                          "flag": False, "text": "a,\"b\""}},
}


def test_manifest_writer_matches_jsonable_oracle(tmp_path):
    config = {"kind": "validate", "epsilons": (0.3, np.float64(0.15))}
    checks = [{"name": "row", "pass": np.bool_(True),
               "value": np.float32(1e-7)}]
    path = cli._write_manifest(tmp_path, config, SERIALIZER_PAYLOAD, checks, 2)
    text = path.read_text()
    expected = {"schema_version": cli.SCHEMA_VERSION,
                "created": json.loads(text)["created"],
                "config": jsonable_oracle(config),
                "results": jsonable_oracle(SERIALIZER_PAYLOAD),
                "checks": jsonable_oracle(checks),
                "ok": False, "exit_code": 2}
    assert text == json.dumps(expected, indent=2, sort_keys=True) + "\n"


def test_csv_writer_matches_repr_oracle(tmp_path):
    header = ("k", "value", "other")
    rows = [(k, v, -v) for k, v in enumerate(SPECIAL_FLOATS)]
    rows += [(None, "a,\"b\"", Fraction(1, 3)),
             (np.int64(4), np.float32(0.1), np.bool_(True)), ("", 0, 1.0)]
    cli._write_csv(tmp_path / "new.csv", header, iter(rows))
    write_csv_oracle(tmp_path / "old.csv", header, rows)
    assert (tmp_path / "new.csv").read_bytes() == \
        (tmp_path / "old.csv").read_bytes()


def test_csv_writer_writes_numpy_doubles_as_floats(tmp_path):
    # the one place the writers differ: the old one wrote repr of an
    # np.float64, which numpy 2 spells np.float64(0.5); no pipeline hands
    # the writer one
    rows = [(1, np.float64(0.5), np.float64(-0.0)),
            (2, np.float64(5e-324), np.float64(math.nan))]
    cli._write_csv(tmp_path / "new.csv", ("k", "a", "b"), rows)
    write_csv_oracle(tmp_path / "old.csv", ("k", "a", "b"),
                     [tuple(float(v) if isinstance(v, np.float64) else v
                            for v in row) for row in rows])
    assert (tmp_path / "new.csv").read_bytes() == \
        (tmp_path / "old.csv").read_bytes()


def test_malformed_scene_file_exit_three(tmp_path):
    garbage = tmp_path / "garbage.json"
    garbage.write_text("{not json")
    config = ScenarioConfig(kind="validate", out=str(tmp_path / "run"),
                            scene=str(garbage))
    assert run(config) == 3
    manifest = read_manifest(tmp_path / "run")
    assert not manifest["ok"]
    assert manifest["checks"][0]["name"] == "input-wellformed"

    missing = ScenarioConfig(kind="validate", out=str(tmp_path / "run2"),
                             scene=str(tmp_path / "nope.json"))
    assert run(missing) == 3


@pytest.fixture(scope="module")
def grid9_scene(tmp_path_factory):
    # passes validate, but its 9-node charts are too coarse for smoothing
    root = tmp_path_factory.mktemp("grid9")
    return generate_scene("sheared-t3", {"grid": 9, "samples": 9},
                          root / "sheared9.json")


def _leaf_nan(scene):
    scene["boxes"][0]["family"]["values"][4][3][3] = math.nan


def _t_inf(scene):
    scene["boxes"][0]["family"]["t"][3] = math.inf


def _height_nan(scene):
    scene["boxes"][0]["faces"][0]["heights"][1] = math.nan


def _far_anchor(scene):
    scene["boxes"][0]["family"]["anchor"] = [99, 0]


def _disk_base(scene):
    scene["boxes"][0]["family"]["base"]["shape"] = "disk"


def _annulus_base(scene):
    # an annular box is a rectangle chart glued to itself by its faces
    scene["boxes"][0]["family"]["base"]["shape"] = "annulus"


def _west_faces(scene, *spans):
    """Replace box b00's W faces by faces over the given spans."""
    faces = scene["boxes"][0]["faces"]
    west = next(f for f in faces if f["side"] == "W")
    faces[:] = [f for f in faces if f["side"] != "W"] + [
        dict(west, span=list(span)) for span in spans]


def _west_missing(scene):
    _west_faces(scene)


def _west_short(scene):
    _west_faces(scene, ("0", "1/4"))


def _west_gap(scene):
    _west_faces(scene, ("0", "1/4"), ("1/3", "1/2"))


def _west_heights(scene):
    scene["boxes"][0]["faces"][0]["heights"] = ["0", "1/2"]


def _heights_over_zero(scene):
    scene["boxes"][0]["heights"] = ["0", "1/0"]


def _span_over_zero(scene):
    scene["boxes"][0]["faces"][0]["span"] = ["0", "1/0"]


def _fractional_nx(scene):
    scene["boxes"][0]["family"]["base"]["nx"] = 9.5


def _fractional_anchor(scene):
    scene["boxes"][0]["family"]["anchor"] = [0.5, 0]


def _one_index_anchor(scene):
    scene["boxes"][0]["family"]["anchor"] = [0]


def _infinite_range(scene):
    scene["boxes"][0]["x_range"] = [0, math.inf]


def _one_ended_range(scene):
    scene["boxes"][0]["x_range"] = ["0"]


def _huge_leaf_index(scene):
    scene["boxes"][0]["family"]["t"][1] = 10 ** 400


def _bool_rational(scene):
    # a JSON bool is no rational, though Python's bool is an int
    scene["boxes"][0]["x_range"] = [True, "1/2"]


def _bool_leaf_index(scene):
    # np.array(..., dtype=float) would read false as 0.0, a valid t[0]
    scene["boxes"][0]["family"]["t"][0] = False


def _string_leaf_index(scene):
    scene["boxes"][0]["family"]["t"][-1] = "1"


def _bool_leaf_height(scene):
    scene["boxes"][0]["family"]["values"][0][0][0] = False


def _string_height_in_b10(scene):
    # a family error is named with its JSON path, which names its box
    assert scene["boxes"][2]["identifier"] == "b10"
    scene["boxes"][2]["family"]["values"][3][1][1] = "0.4"


def _int_identifier_of_b10(scene):
    # a TypeError, ValueError or OverflowError is named with its JSON path
    # too, at every level: box, range, face, family and base
    scene["boxes"][2]["identifier"] = 10


def _zero_denominator_in_b10_range(scene):
    scene["boxes"][2]["y_range"] = ["0", "1/0"]


def _infinite_span_of_b10_face(scene):
    scene["boxes"][2]["faces"][1]["span"] = ["0", math.inf]


def _huge_leaf_index_of_b10(scene):
    scene["boxes"][2]["family"]["t"][1] = 10 ** 400


def _fractional_nx_of_b10(scene):
    scene["boxes"][2]["family"]["base"]["nx"] = 9.5


def _drop_boxes(scene):
    del scene["boxes"]


def _drop_faces_of_b10(scene):
    # a missing key is named with the JSON path to the object that lacks it
    del scene["boxes"][2]["faces"]


def _drop_span_of_b10_face(scene):
    del scene["boxes"][2]["faces"][1]["span"]


def _drop_anchor_of_b10(scene):
    del scene["boxes"][2]["family"]["anchor"]


def _drop_nx_of_b10(scene):
    del scene["boxes"][2]["family"]["base"]["nx"]


def _object_v_boxes(scene):
    # an object's keys are no list of box identifiers
    scene["v_boxes"] = {"b00": 1}


def _int_identifier(scene):
    scene["boxes"][0]["identifier"] = 5


@pytest.mark.parametrize("kind", ["validate", "smooth"])
@pytest.mark.parametrize("corrupt, problem", [
    (_west_missing, "side W has no faces"),
    (_west_short, "side W faces do not reach the corners"),
    (_west_gap, "side W faces do not tile (gap at 1/4)"),
    (_west_heights, "side W face heights differ from the box heights"),
])
def test_condition_1_breach_exit_three(kind, corrupt, problem, scenes,
                                       tmp_path):
    data = json.loads(Path(scenes["horizontal"]).read_text())
    assert data["scene"]["boxes"][0]["faces"][0]["side"] == "W"
    corrupt(data["scene"])
    path = tmp_path / "breach.json"
    path.write_text(json.dumps(data))
    config = ScenarioConfig(kind=kind, out=str(tmp_path / "run"),
                            scene=str(path))
    assert run(config) == 3
    row = read_manifest(tmp_path / "run")["checks"][0]
    assert row["name"] == "input-wellformed" and not row["pass"]
    assert row["detail"] == (f"scene file {path} does not describe a "
                             f"decomposition: boxes[0] (b00): box b00: "
                             f"{problem}")


@pytest.mark.parametrize("template", ["horizontal", "sheared", "split",
                                      "annulus"])
def test_validate_condition_1_row_passes_on_every_template(template, scenes,
                                                           tmp_path):
    code = run(ScenarioConfig(kind="validate", out=str(tmp_path),
                              scene=str(scenes[template])))
    assert code == (2 if template == "split" else 0)
    rows = {row["name"]: row for row in read_manifest(tmp_path)["checks"]}
    assert rows["condition-1"] == {"name": "condition-1", "pass": True,
                                   "witnesses": []}


@pytest.mark.parametrize("kind", ["validate", "smooth"])
@pytest.mark.parametrize("corrupt, reason", [
    (_leaf_nan, "leaves must be strictly increasing"),
    (_t_inf, "leaf indices must be strictly increasing"),
    (_height_nan, "NaN"),
    (_far_anchor, "anchor must be a grid node"),
    (_disk_base, "unknown base shape 'disk'"),
    (_annulus_base, "unknown base shape 'annulus'"),
    (_heights_over_zero, "'1/0' has a zero denominator"),
    (_span_over_zero, "'1/0' has a zero denominator"),
    (_fractional_nx, "node counts must be integers, got float, int"),
    (_fractional_anchor, "anchor indices must be integers, got float, int"),
    (_one_index_anchor, "not enough values to unpack"),
    (_infinite_range, "inf is not a finite rational"),
    (_one_ended_range, "not enough values to unpack"),
    (_huge_leaf_index, "int too large to convert to float"),
    (_bool_rational, "cannot coerce bool to a rational"),
    (_bool_leaf_index, "leaf indices must be numbers, got bool"),
    (_string_leaf_index, "leaf indices must be numbers, got str"),
    (_bool_leaf_height, "leaf heights must be numbers, got bool"),
    (_string_height_in_b10,
     "decomposition: boxes[2] (b10).family: leaf heights must be numbers, "
     "got str"),
    (_int_identifier_of_b10,
     "decomposition: boxes[2]: box identifier must be a string, got int"),
    (_zero_denominator_in_b10_range,
     "decomposition: boxes[2] (b10).y_range: '1/0' has a zero denominator"),
    (_infinite_span_of_b10_face,
     "decomposition: boxes[2] (b10).faces[1]: inf is not a finite rational"),
    (_huge_leaf_index_of_b10,
     "decomposition: boxes[2] (b10).family: int too large to convert to "
     "float"),
    (_fractional_nx_of_b10,
     "decomposition: boxes[2] (b10).family.base: node counts must be "
     "integers, got float, int"),
    (_drop_boxes, "decomposition: missing key 'boxes'"),
    (_drop_faces_of_b10, "decomposition: boxes[2] (b10): missing key 'faces'"),
    (_drop_span_of_b10_face,
     "decomposition: boxes[2] (b10).faces[1]: missing key 'span'"),
    (_drop_anchor_of_b10,
     "decomposition: boxes[2] (b10).family: missing key 'anchor'"),
    (_drop_nx_of_b10,
     "decomposition: boxes[2] (b10).family.base: missing key 'nx'"),
    (_object_v_boxes, "v_boxes must be a list of box identifiers, got dict"),
    (_int_identifier, "box identifier must be a string, got int"),
])
def test_corrupted_scene_exit_three(kind, corrupt, reason, grid9_scene,
                                    tmp_path):
    data = json.loads(Path(grid9_scene).read_text())
    corrupt(data["scene"])
    path = tmp_path / "corrupted.json"
    path.write_text(json.dumps(data))
    config = ScenarioConfig(kind=kind, out=str(tmp_path / "run"),
                            scene=str(path))
    assert run(config) == 3
    manifest = read_manifest(tmp_path / "run")
    row = manifest["checks"][0]
    assert row["name"] == "input-wellformed" and not row["pass"]
    assert reason in row["detail"]


def test_scene_exponent_is_refused_before_fraction(grid9_scene, tmp_path,
                                                   monkeypatch):
    # Fraction would expand the exponent digit by digit, for hours; the
    # grammar refuses it first.  It is b00's first rational, so no other
    # call to Fraction comes before it
    data = json.loads(Path(grid9_scene).read_text())
    data["scene"]["boxes"][0]["x_range"] = ["1e1000000000", "1/2"]
    path = tmp_path / "exponent.json"
    path.write_text(json.dumps(data))

    def never(*args, **kwargs):
        raise AssertionError("Fraction read a scene rational")

    monkeypatch.setattr(decomposition, "Fraction", never)
    assert main(["validate", "--scene", str(path),
                 "--out", str(tmp_path / "run")]) == 3
    [row] = read_manifest(tmp_path / "run")["checks"]
    assert row["name"] == "input-wellformed" and not row["pass"]
    assert "'1e1000000000' is not a rational" in row["detail"]


@pytest.mark.parametrize("text", [
    "{not json",
    '{"scene": 1' + "0" * 5000 + "}",    # past Python's int digit limit
    "[" * 100000 + "]" * 100000,         # past the recursion limit
])
def test_unreadable_scene_json_exit_three(text, tmp_path):
    path = tmp_path / "scene.json"
    path.write_text(text)
    assert run(ScenarioConfig(kind="validate", out=str(tmp_path / "run"),
                              scene=str(path))) == 3
    [row] = read_manifest(tmp_path / "run")["checks"]
    assert row["name"] == "input-wellformed" and not row["pass"]
    assert "is not valid JSON" in row["detail"]


def _json_paths(node, path=()):
    """Paths to every node of a scene's JSON, entering only the first and
    last entry of each list."""
    yield path
    if isinstance(node, dict):
        for key, child in node.items():
            yield from _json_paths(child, path + (key,))
    elif isinstance(node, list):
        for i in sorted({0, len(node) - 1} if node else set()):
            yield from _json_paths(node[i], path + (i,))


_DROP = object()
_MUTANTS = st.one_of(
    st.sampled_from([
        _DROP, "1/0", "1e1000000000", "1e3", "-1", "-1/2", "nan", "inf",
        "", "b00", "9" * 70, math.nan, math.inf, -math.inf, -1, 0, 9.5,
        10 ** 30, 10 ** 400, True, None, [], {}, [0], ["0", "1/0"],
        {"nx": 9}]),
    st.integers(), st.floats(), st.text(max_size=6))


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_one_mutated_scene_field_never_ends_in_a_traceback(
        horizontal9_scene, tmp_path_factory, data):
    # swapped types, "1/0", NaN, exponents, negatives, huge ints and
    # dropped keys: every mutant exits 0, 2 or 3 with a manifest, and an
    # exit-3 detail names the mutated box.  The one exception is an
    # identifier changed to another box's, which fails at scene level as a
    # duplicate
    document = json.loads(Path(horizontal9_scene).read_text())
    identifiers = [box["identifier"] for box in document["scene"]["boxes"]]
    path = data.draw(st.sampled_from(list(_json_paths(document["scene"]))))
    mutant = data.draw(_MUTANTS)
    if not path:
        document["scene"] = {} if mutant is _DROP else mutant
    else:
        parent = document["scene"]
        for key in path[:-1]:
            parent = parent[key]
        if mutant is _DROP:
            del parent[path[-1]]
        else:
            parent[path[-1]] = mutant
    root = tmp_path_factory.mktemp("mutant")
    scene = root / "scene.json"
    scene.write_text(json.dumps(document))
    code = run(ScenarioConfig(kind="validate", out=str(root),
                              scene=str(scene)))
    assert code in (0, 2, 3)
    manifest = read_manifest(root)
    assert manifest["exit_code"] == code
    if code == 3 and len(path) > 1 and path[0] == "boxes":
        detail = manifest["checks"][0]["detail"]
        if path[2:] == ("identifier",) and mutant in identifiers:
            assert "box identifiers must be unique" in detail
        else:
            assert f"boxes[{path[1]}]" in detail, detail


def test_smooth_rejects_unchartable_scene_exit_three(grid9_scene, tmp_path):
    assert run(ScenarioConfig(kind="validate", out=str(tmp_path / "v"),
                              scene=str(grid9_scene))) == 0
    assert run(ScenarioConfig(kind="smooth", out=str(tmp_path / "s"),
                              scene=str(grid9_scene))) == 3
    manifest = read_manifest(tmp_path / "s")
    row = manifest["checks"][0]
    assert row["name"] == "input-wellformed" and not row["pass"]
    assert "4k+1 >= 17" in row["detail"]
    assert "failed_stage" not in manifest["results"]


@pytest.mark.parametrize("epsilon", ["nan", "inf", "0", "-1"])
def test_smooth_rejects_bad_epsilon_exit_three(epsilon, grid9_scene,
                                               tmp_path, capsys):
    assert main(["smooth", "--scene", str(grid9_scene),
                 f"--epsilon={epsilon}", "--out", str(tmp_path)]) == 3
    assert "epsilon" in capsys.readouterr().err
    # no ScenarioConfig could be built, so config holds the parsed flags
    manifest = read_manifest(tmp_path)
    assert manifest["exit_code"] == 3 and manifest["ok"] is False
    assert manifest["config"]["kind"] == "smooth"
    assert manifest["config"]["scene"] == str(grid9_scene)
    assert repr(manifest["config"]["epsilon"]) == repr([float(epsilon)])
    [row] = manifest["checks"]
    assert row["name"] == "input-wellformed" and not row["pass"]
    assert "must be finite and positive" in row["detail"]
    assert manifest["results"]["error"] == row["detail"]


def test_config_rejects_out_of_range_parameters(tmp_path):
    out = str(tmp_path)
    with pytest.raises(MalformedInput, match="unknown scenario kind"):
        ScenarioConfig(kind="frobnicate", out=out)
    with pytest.raises(MalformedInput, match="finite and positive"):
        ScenarioConfig(kind="smooth", out=out, epsilons=(0.0,))
    with pytest.raises(MalformedInput, match="lie in"):
        ScenarioConfig(kind="blowup", out=out, weights=(1.5,))
    with pytest.raises(MalformedInput, match="1000 iterations"):
        ScenarioConfig(kind="denjoy-circle", out=out, iterations=500)
    with pytest.raises(MalformedInput, match="100 orbit points"):
        ScenarioConfig(kind="denjoy-circle", out=out, orbit_points=50)
    with pytest.raises(MalformedInput, match="subsample"):
        ScenarioConfig(kind="measure", out=out, subsamples=3)
    with pytest.raises(MalformedInput, match="alpha"):
        ScenarioConfig(kind="denjoy-circle", out=out, alpha=1.5)


def test_tischler_requires_inputs(tmp_path):
    config = ScenarioConfig(kind="tischler", out=str(tmp_path))
    assert run(config) == 3
    manifest = read_manifest(tmp_path)
    assert "coefficients" in manifest["results"]["error"]


# ---------------------------------------------------------------------------
# argparse front end


# the required flags of each scenario subcommand and the fields they give
REQUIRED_FLAGS = {
    "validate": (["--scene", "s.json"], {"scene": "s.json"}),
    "smooth": (["--scene", "s.json"], {"scene": "s.json"}),
    "blowup": (["--scene", "s.json"], {"scene": "s.json"}),
    "measure": (["--scene", "s.json"], {"scene": "s.json"}),
    "tischler": (["--coefficients", "1,17/12", "--epsilon", "0.1"],
                 {"coefficients": (1, Fraction(17, 12)), "epsilons": (0.1,)}),
    "denjoy-circle": ([], {}),
}


@pytest.mark.parametrize("command", REQUIRED_FLAGS)
def test_flag_defaults_are_the_config_defaults(command):
    flags, fields = REQUIRED_FLAGS[command]
    args = cli._build_parser().parse_args([command] + flags)
    assert cli._config_from_args(args) == \
        ScenarioConfig(kind=command, out=".", **fields)


def test_generate_leaves_its_defaults_to_generate_scene():
    args = cli._build_parser().parse_args(["generate", "--template",
                                           "annulus-box"])
    assert vars(args) == {"command": "generate", "template": "annulus-box",
                          "out": "."}


@pytest.mark.parametrize("command, defaults", [
    ("validate", []),
    ("smooth", [("repeat for a ladder",
                 " ".join(map(str, cli.SMOOTH_LADDER)))]),
    ("blowup", [("comma-separated total weights",
                 ",".join(map(str, cli.BLOWUP_WEIGHTS))),
                ("C0 budget for each blowup", cli.BLOWUP_EPSILON),
                ("height of the blown leaf", ScenarioConfig.blowup_level)]),
    ("tischler", []),
    ("denjoy-circle", [("rotation-estimate iterates",
                        ScenarioConfig.iterations),
                       ("gap-return horizon", ScenarioConfig.audit_steps)]),
    ("measure", [(f"4 to {MAX_SUBSAMPLES}", ScenarioConfig.subsamples)]),
    ("generate", []),
])
def test_help_names_each_default(command, defaults, capsys):
    with pytest.raises(SystemExit) as done:
        main([command, "--help"])
    assert done.value.code == 0
    text = " ".join(capsys.readouterr().out.split())
    assert "output directory (default: current)" in text
    for phrase, default in defaults:
        assert f"{phrase} (default {default})" in text
    assert "%" not in text and "None" not in text


def test_main_generate_then_validate(tmp_path, capsys):
    assert main(["generate", "--template", "horizontal-t3",
                 "--grid", "17", "--samples", "9",
                 "--out", str(tmp_path)]) == 0
    scene_path = capsys.readouterr().out.strip()
    assert Path(scene_path).exists()
    out = tmp_path / "run"
    assert main(["validate", "--scene", scene_path,
                 "--out", str(out)]) == 0
    assert read_manifest(out)["ok"]


def _src_env():
    """The environment with this checkout's src/ first on PYTHONPATH."""
    src = str(Path(flowbox.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    return env


def test_python_dash_m_flowbox_runs_the_cli(tmp_path):
    done = subprocess.run(
        [sys.executable, "-m", "flowbox", "generate", "--template",
         "horizontal-t3", "--grid", "9", "--samples", "9",
         "--out", str(tmp_path)],
        capture_output=True, text=True, env=_src_env(), timeout=120)
    assert done.returncode == 0
    assert done.stderr == ""
    assert (tmp_path / "horizontal-t3.json").exists()


# numpy is the only runtime dependency: scipy is a test oracle only
_NO_SCIPY = """
import json, runpy, sys
from pathlib import Path

out = Path(sys.argv[1])
import flowbox
assert "scipy" not in sys.modules, "import flowbox loaded scipy"
sys.argv = ["flowbox", "--help"]
try:
    runpy.run_module("flowbox", run_name="__main__")
except SystemExit as exc:
    assert exc.code == 0
assert "scipy" not in sys.modules, "flowbox --help loaded scipy"

sys.modules["scipy"] = None  # any import of scipy now fails
from flowbox.cli import main
assert main(["generate", "--template", "horizontal-t3", "--grid", "9",
             "--samples", "9", "--out", str(out)]) == 0
assert main(["measure", "--scene", str(out / "horizontal-t3.json"),
             "--out", str(out / "m")]) == 0
manifest = json.loads((out / "m" / "manifest.json").read_text())
assert manifest["checks"] and all(c["pass"] for c in manifest["checks"])
"""


def test_flowbox_runs_without_scipy(tmp_path):
    done = subprocess.run(
        [sys.executable, "-c", _NO_SCIPY, str(tmp_path)],
        capture_output=True, text=True, env=_src_env(), timeout=120)
    assert done.returncode == 0, done.stderr
    assert (tmp_path / "m" / "measures.csv").exists()


def test_main_tischler_with_fraction_tokens(tmp_path):
    assert main(["tischler", "--coefficients", "1,17/12",
                 "--epsilon", "1e-3", "--out", str(tmp_path)]) == 0
    manifest = read_manifest(tmp_path)
    # already rational: passthrough with zero defect
    assert manifest["results"]["report"]["angle_defect"] == 0.0


@pytest.mark.parametrize("coefficients, epsilon", [
    # parallel kernels: the last convergent is the float ratio itself
    ("3.3,1.7", "1e-12"),
    # coefficients whose Euclidean norm overflows
    ("1,1e300", "0.1"),
])
def test_main_tischler_meets_the_bound_at_the_last_convergent(
        coefficients, epsilon, tmp_path):
    assert main(["tischler", "--coefficients", coefficients,
                 "--epsilon", epsilon, "--out", str(tmp_path)]) == 0
    manifest = read_manifest(tmp_path)
    assert manifest["ok"]
    assert manifest["results"]["report"]["angle_defect"] \
        < 2.0 * float(epsilon)


def test_tischler_failure_names_the_stage(tmp_path, monkeypatch):
    def fail(*args, **kwargs):
        raise RuntimeError("convergent ladder exhausted before the bound")

    monkeypatch.setattr(cli, "tischler_fibration", fail)
    assert main(["tischler", "--coefficients", "1,1.4142135623730951",
                 "--epsilon", "1e-3", "--out", str(tmp_path)]) == 1
    manifest = read_manifest(tmp_path)
    assert manifest["results"]["failed_stage"] == "tischler_fibration"
    assert manifest["checks"][0]["name"] == "pipeline:tischler_fibration"
    assert "exhausted" in manifest["results"]["error"]


def test_denjoy_circle_failure_names_the_stage(tmp_path, monkeypatch):
    def fail(*args, **kwargs):
        raise ValueError("orbit points collide")

    monkeypatch.setattr(cli, "blowup_circle_map", fail)
    assert main(["denjoy-circle", "--iterations", "1000",
                 "--out", str(tmp_path)]) == 1
    manifest = read_manifest(tmp_path)
    assert manifest["results"]["failed_stage"] == "orbit blowup"
    assert manifest["checks"][0]["name"] == "pipeline:orbit blowup"
    assert "collide" in manifest["results"]["error"]


def test_main_malformed_flags_exit_three(tmp_path, capsys):
    assert main(["validate"]) == 3
    assert main(["no-such-command"]) == 3
    assert main(["denjoy-circle", "--alpha", "not-a-number",
                 "--out", str(tmp_path)]) == 3
    assert main(["denjoy-circle", "--iterations", "10",
                 "--out", str(tmp_path)]) == 3
    # blowup_circle_map needs 100 orbit points: the boundary says so
    assert main(["denjoy-circle", "--orbit-points", "50",
                 "--out", str(tmp_path)]) == 3
    assert "100 orbit points" in read_manifest(tmp_path)["checks"][0]["detail"]
    # coefficients, or ratios to the lead, that overflow a float
    for coefficients in ("1e-320,1", "1e-300,1e300", "1" + "0" * 400 + ",1"):
        assert main(["tischler", "--coefficients", coefficients,
                     "--epsilon", "0.1", "--out", str(tmp_path)]) == 3
        check, = read_manifest(tmp_path)["checks"]
        assert check["name"] == "input-wellformed"
        assert "finite" in check["detail"]
    capsys.readouterr()


def test_blowup_bad_weights_list_exit_three(horizontal9_scene, tmp_path,
                                            capsys):
    assert main(["blowup", "--scene", str(horizontal9_scene),
                 "--weights", "0.2,x", "--out", str(tmp_path)]) == 3
    assert "flowbox: error: bad numeric list '0.2,x'" in \
        capsys.readouterr().err
    manifest = read_manifest(tmp_path)
    assert manifest["exit_code"] == 3
    assert manifest["config"]["weights"] == "0.2,x"
    assert manifest["checks"] == [{"name": "input-wellformed", "pass": False,
                                   "detail": "bad numeric list '0.2,x'"}]
    assert manifest["results"] == {"error": "bad numeric list '0.2,x'"}


def test_blowup_weights_flag_gives_the_weights_field():
    args = cli._build_parser().parse_args(
        ["blowup", "--scene", "s.json", "--weights", "0.2, 0.1,,0.05"])
    assert cli._config_from_args(args).weights == (0.2, 0.1, 0.05)
