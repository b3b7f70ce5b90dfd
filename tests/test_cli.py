"""End-to-end tests for the command-line runner and scene templates."""

import csv
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import flowbox
from flowbox import cli, decomposition, denjoy, smoothing
from flowbox.cli import (
    GOLDEN_MEAN,
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
    # the packet pre-check calls face_transport_defect once per leaf label
    # before any attempt; the next call is the interior-extension check
    ("face_transport_defect", 1, "interior extension"),
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


def test_measure_rejects_noninvariant_with_stage(scenes, tmp_path):
    # Lebesgue is not holonomy-invariant on the sheared scene; the
    # pre-check must stop the pipeline and name the stage
    config = ScenarioConfig(kind="measure", out=str(tmp_path),
                            scene=str(scenes["sheared"]))
    assert run(config) == 1
    manifest = read_manifest(tmp_path)
    assert not manifest["ok"]
    assert manifest["results"]["failed_stage"] == "invariance pre-check"


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


@pytest.mark.parametrize("kind", ["validate", "smooth"])
@pytest.mark.parametrize("corrupt, reason", [
    (_leaf_nan, "leaves must be strictly increasing"),
    (_t_inf, "leaf indices must be strictly increasing"),
    (_height_nan, "NaN"),
    (_far_anchor, "anchor must be a grid node"),
    (_disk_base, "unknown base shape 'disk'"),
    (_annulus_base, "unknown base shape 'annulus'"),
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


def test_python_dash_m_flowbox_runs_the_cli(tmp_path):
    src = str(Path(flowbox.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    done = subprocess.run(
        [sys.executable, "-m", "flowbox", "generate", "--template",
         "horizontal-t3", "--grid", "9", "--samples", "9",
         "--out", str(tmp_path)],
        capture_output=True, text=True, env=env, timeout=120)
    assert done.returncode == 0
    assert done.stderr == ""
    assert (tmp_path / "horizontal-t3.json").exists()


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
