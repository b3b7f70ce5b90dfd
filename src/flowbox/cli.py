"""Command-line front end: scene generation, scenario runs, artifact emission.

Every run writes a ``manifest.json`` into its output directory (inputs,
results, invariant-check rows, overall verdict) plus CSV series meant for
external plotting.  Manifests are serialized with sorted keys so that two
runs with the same config and seed are byte-identical except for the
``created`` timestamp, which lives in its own field.

Exit codes: 0 success, 1 pipeline failure (failed stage recorded in the
manifest), 2 validation failure, 3 malformed input.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import datetime
import json
import math
import sys
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

import numpy as np

from .decomposition import (
    DecompositionComplex,
    FlowBoxSpec,
    build_torus_scene,
    validate,  # unused; the bench tracer's alias test checks it
)
from .denjoy import (
    birkhoff_estimate,
    blowup_circle_map,
    blowup_scene,
    circle_orbit,
    verify_blowup,
    wandering_audit,
)
from .foliation import BaseDomain, horizontal_family, sheared_family
from .kernel import InsertionSchedule
from .measure import (
    ClosedOneForm,
    MeasuredScene,
    TransverseMeasure,
    smooth_measured_scene,
    tischler_fibration,
)
from .smoothing import globally_smooth, grid_nodes

SCHEMA_VERSION = 1
GOLDEN_MEAN = (math.sqrt(5.0) - 1.0) / 2.0

SCENARIO_KINDS = ("validate", "smooth", "blowup", "tischler",
                  "denjoy-circle", "measure")
SCENE_TEMPLATES = ("horizontal-t3", "sheared-t3", "split-t3", "annulus-box")
# leaf-grid values a generated scene may hold (boxes x samples x grid^2):
# 28 times the default 2x2 scene of grid 33 with 17 samples, and 16 MB as
# float64, so a size flag cannot fill the machine's memory
MAX_SCENE_VALUES = 2 ** 21

# tolerances the check rows are graded against; the library pipelines
# enforce their own internal budgets, these only grade the emitted numbers
FACE_DEFECT_TOL = 1e-6
ROTATION_TOL = 1e-3
MEASURE_POST_TOL = 1e-9


class MalformedInput(ValueError):
    """Input that fails to parse or lies outside documented ranges."""


class ValidationFailure(Exception):
    """Scene rejected by the decomposition validator before any pipeline ran."""

    def __init__(self, message: str, results=None, checks=None):
        super().__init__(message)
        self.results = results
        self.checks = checks


class PipelineFailure(Exception):
    """A module pipeline raised; carries the stage identifier for the manifest."""

    def __init__(self, stage: str, message: str, results=None):
        super().__init__(message)
        self.stage = stage
        self.results = results


@dataclass(frozen=True)
class ScenarioConfig:
    kind: str
    out: str
    scene: str | None = None
    seed: int = 0
    epsilons: tuple = ()
    weights: tuple = ()
    iterations: int = 20000
    orbit_points: int = 300
    audit_steps: int = 2000
    alpha: float = GOLDEN_MEAN
    coefficients: tuple = ()
    subsamples: int = 9
    measure_file: str | None = None
    packet_shear: float = 0.3
    packet_samples: int = 17
    blowup_level: float = 0.5

    def __post_init__(self):
        if self.kind not in SCENARIO_KINDS:
            raise MalformedInput(f"unknown scenario kind {self.kind!r}; "
                                 f"choose one of {', '.join(SCENARIO_KINDS)}")
        if not isinstance(self.seed, int) or self.seed < 0:
            raise MalformedInput("seed must be a nonnegative integer")
        for eps in self.epsilons:
            if not (math.isfinite(eps) and eps > 0.0):
                raise MalformedInput(f"epsilon {eps!r} must be finite and positive")
        for w in self.weights:
            if not (math.isfinite(w) and 0.0 < w < 1.0):
                raise MalformedInput(f"blowup weight {w!r} must lie in (0, 1)")
        if self.iterations < 1000:
            # rotation_number's documented Birkhoff minimum
            raise MalformedInput("need at least 1000 iterations")
        if self.orbit_points < 100:
            # blowup_circle_map's documented minimum
            raise MalformedInput("need at least 100 orbit points")
        if self.audit_steps < 1:
            raise MalformedInput("audit steps must be positive")
        if not (math.isfinite(self.alpha) and 0.0 < self.alpha < 1.0):
            raise MalformedInput("alpha must lie in (0, 1)")
        if self.subsamples < 4:
            raise MalformedInput("need at least 4 subsample nodes")
        if not (math.isfinite(self.packet_shear)
                and 0.0 <= self.packet_shear < 1.0):
            raise MalformedInput("packet shear must lie in [0, 1)")
        if self.packet_samples < 3:
            raise MalformedInput("need at least 3 packet samples")
        if not 0.0 < self.blowup_level < 1.0:
            raise MalformedInput("blowup level must lie strictly inside (0, 1)")

    def to_json(self) -> dict:
        return {
            "kind": self.kind,
            "out": str(self.out),
            "scene": self.scene,
            "seed": self.seed,
            "epsilons": [float(e) for e in self.epsilons],
            "weights": [float(w) for w in self.weights],
            "iterations": self.iterations,
            "orbit_points": self.orbit_points,
            "audit_steps": self.audit_steps,
            "alpha": float(self.alpha),
            "coefficients": [str(c) for c in self.coefficients],
            "subsamples": self.subsamples,
            "measure_file": self.measure_file,
            "packet_shear": float(self.packet_shear),
            "packet_samples": self.packet_samples,
            "blowup_level": float(self.blowup_level),
        }


# ---------------------------------------------------------------------------
# serialization helpers


def _jsonable(value):
    """Recursively coerce report payloads into JSON-representable values."""
    if isinstance(value, Fraction):
        return str(value)
    if isinstance(value, np.floating):
        return float(value)
    if isinstance(value, np.integer):
        return int(value)
    if isinstance(value, np.ndarray):
        return [_jsonable(v) for v in value.tolist()]
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, (frozenset, set)):
        return sorted((_jsonable(v) for v in value), key=str)
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    return str(value)


def _write_manifest(out_dir: Path, config: dict, results, checks,
                    exit_code: int) -> Path:
    manifest = {
        "schema_version": SCHEMA_VERSION,
        "created": datetime.datetime.now(datetime.timezone.utc)
                   .isoformat(timespec="seconds"),
        "config": _jsonable(config),
        "results": _jsonable(results),
        "checks": _jsonable(checks),
        "ok": exit_code == 0,
        "exit_code": exit_code,
    }
    path = out_dir / "manifest.json"
    path.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    return path


def _write_csv(path: Path, header, rows) -> Path:
    # repr-based float formatting keeps '.' decimals at full precision
    with path.open("w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(header)
        for row in rows:
            writer.writerow([repr(v) if isinstance(v, float) else v
                             for v in row])
    return path


def _load_scene(path_str: str | None) -> DecompositionComplex:
    if path_str is None:
        raise MalformedInput("this scenario needs a scene file (--scene)")
    path = Path(path_str)
    try:
        data = json.loads(path.read_text())
    except OSError as exc:
        raise MalformedInput(f"cannot read scene file {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise MalformedInput(f"scene file {path} is not valid JSON: {exc}") from exc
    if isinstance(data, dict) and "scene" in data:
        data = data["scene"]  # generated files wrap the scene with metadata
    try:
        return DecompositionComplex.from_json(data)
    except (KeyError, TypeError, ValueError) as exc:
        raise MalformedInput(f"scene file {path} does not describe a "
                             f"decomposition: {exc}") from exc


def _require_valid(scene: DecompositionComplex) -> None:
    report = scene.validation
    if not report["valid"]:
        raise ValidationFailure(
            "scene fails validation",
            results={"validation": report},
            checks=_condition_checks(report))


def _condition_checks(report: dict) -> list:
    checks = []
    for key in sorted(report["conditions"], key=int):
        row = report["conditions"][key]
        checks.append({"name": f"condition-{key}", "pass": row["pass"],
                       "witnesses": row["witnesses"]})
    checks.append({"name": "coverage", "pass": report["coverage"]["pass"],
                   "witnesses": report["coverage"]["witnesses"]})
    return checks


# ---------------------------------------------------------------------------
# scenario runners; each returns (results, checks)


def _run_validate(config: ScenarioConfig, out_dir: Path):
    scene = _load_scene(config.scene)
    report = scene.validation
    results = {"validation": report,
               "boxes": [box.identifier for box in scene.boxes],
               "volume": str(scene.volume)}
    return results, _condition_checks(report)


@contextlib.contextmanager
def _named_failure(pipeline: str, results=None):
    """Turn a pipeline's RuntimeError or ValueError into a PipelineFailure.
    The report is only filled once an attempt finishes, so the failed stage
    travels on the error itself."""
    try:
        yield
    except (RuntimeError, ValueError) as exc:
        stage = getattr(exc, "stage", None) or pipeline
        raise PipelineFailure(stage, str(exc), results=results) from exc


def _run_ladder(values, pipeline, name: str, grade, csv_path: Path,
                value_name: str) -> tuple:
    """(runs, checks) of pipeline(value, report) down a ladder of values.

    grade(value, report, result) gives each rung's run entry, check row and
    face defect; a strictly decreasing ladder gets a distances-decrease row.
    """
    rows, runs, checks = [], [], []
    for value in values:
        report = {}
        with _named_failure(name, {"runs": runs}):
            result = pipeline(value, report)
        run_entry, check, face = grade(value, report, result)
        rows.append((float(value), float(report["achieved_distance"]),
                     float(face)))
        runs.append(run_entry)
        checks.append(check)
    if len(values) >= 2 and all(b < a for a, b in zip(values, values[1:])):
        distances = [row[1] for row in rows]
        checks.append({"name": "distances-decrease",
                       "pass": all(b < a for a, b in
                                   zip(distances, distances[1:])),
                       "distances": distances})
    _write_csv(csv_path, (value_name, "achieved_distance", "face_defect"),
               rows)
    return runs, checks


def _run_smooth(config: ScenarioConfig, out_dir: Path):
    scene = _load_scene(config.scene)
    _require_valid(scene)
    try:
        grid_nodes(scene)
    except ValueError as exc:
        raise MalformedInput(f"scene cannot be smoothed: {exc}") from exc
    ladder = tuple(config.epsilons) or (0.3, 0.15, 0.075)

    def grade(eps, report, _smoothed):
        achieved = report["achieved_distance"]
        face = report["face_defect_after"]
        return report, {"name": f"epsilon-{eps:g}",
                        "pass": achieved <= eps and face < FACE_DEFECT_TOL,
                        "achieved_distance": float(achieved),
                        "face_defect": float(face)}, face

    runs, checks = _run_ladder(
        ladder, lambda eps, report: globally_smooth(scene, eps, report=report),
        "globally_smooth", grade, out_dir / "smooth.csv", "epsilon")
    return {"runs": runs, "ladder": [float(e) for e in ladder]}, checks


def _run_blowup(config: ScenarioConfig, out_dir: Path):
    scene = _load_scene(config.scene)
    _require_valid(scene)
    weights = tuple(config.weights) or (0.2, 0.1, 0.05)
    epsilon = config.epsilons[0] if config.epsilons else 0.5
    base = scene.boxes[0].family.base
    packet = sheared_family(BaseDomain("rectangle", base.nx, base.ny),
                            config.packet_shear, config.packet_samples)

    def blowup(w, report):
        schedule = InsertionSchedule((config.blowup_level,), (w,))
        return blowup_scene(scene, schedule, (packet,), epsilon,
                            report=report)

    def grade(w, report, result):
        verification = verify_blowup(scene, *result)
        return ({"total_weight": float(w), "pipeline": report,
                 "verification": verification},
                {"name": f"verified-w-{w:g}", "pass": verification["all_pass"],
                 "max_defect": float(verification["max_defect"]),
                 "achieved_distance": float(report["achieved_distance"])},
                report["face_defect"])

    runs, checks = _run_ladder(weights, blowup, "blowup_scene", grade,
                               out_dir / "blowup.csv", "total_weight")
    return {"runs": runs, "weights": [float(w) for w in weights],
            "epsilon": float(epsilon)}, checks


def _parse_coefficient(token: str):
    token = token.strip()
    if "/" in token:
        try:
            return Fraction(token)
        except (ValueError, ZeroDivisionError) as exc:
            raise MalformedInput(f"bad coefficient {token!r}: {exc}") from exc
    try:
        return int(token)
    except ValueError:
        pass
    try:
        value = float(token)
    except ValueError as exc:
        raise MalformedInput(f"bad coefficient {token!r}") from exc
    if not math.isfinite(value):
        raise MalformedInput(f"coefficient {token!r} must be finite")
    return value


def _run_tischler(config: ScenarioConfig, out_dir: Path):
    if not config.coefficients:
        raise MalformedInput("tischler needs --coefficients, e.g. "
                             "--coefficients 1,1.4142135623730951")
    if not config.epsilons:
        raise MalformedInput("tischler needs one --epsilon")
    epsilon = config.epsilons[0]
    try:
        form = ClosedOneForm(tuple(config.coefficients))
    except ValueError as exc:
        raise MalformedInput(str(exc)) from exc
    report = {}
    try:
        rational, certificate = tischler_fibration(form, epsilon,
                                                   report=report)
    except RuntimeError as exc:
        raise PipelineFailure("tischler_fibration", str(exc)) from exc
    checks = [
        {"name": "angle-bound",
         "pass": report["angle_defect"] < 2.0 * epsilon,
         "angle_defect": float(report["angle_defect"]),
         "epsilon": float(epsilon)},
        {"name": "closed-leaf-certificate",
         "pass": bool(certificate["closes_exactly"]
                      and certificate["distinct_before_return"]),
         "period": certificate["period"]},
    ]
    if certificate["orbit"] is not None:
        width = len(certificate["orbit"][0])
        header = ("step",) + tuple(f"coordinate_{i}" for i in range(width))
        _write_csv(out_dir / "tischler_orbit.csv", header,
                   [(k, *point) for k, point in
                    enumerate(certificate["orbit"])])
    results = {"report": report,
               "rational_coefficients": [str(c) for c in rational.coefficients],
               "certificate": certificate}
    return results, checks


def _run_denjoy_circle(config: ScenarioConfig, out_dir: Path):
    circle_report = {}
    try:
        lift = blowup_circle_map(config.alpha, config.orbit_points,
                                 report=circle_report)
    except ValueError as exc:
        raise PipelineFailure("orbit blowup", str(exc)) from exc
    # one orbit feeds both the CSV and the Birkhoff estimate: the estimate
    # is the last row's running average, bit for bit
    orbit = circle_orbit(lift, config.iterations)
    rows = [(k, x - math.floor(x), x / k) for k, x in enumerate(orbit, 1)]
    rotation_report = {}
    final = birkhoff_estimate(orbit, report=rotation_report)
    gaps = [tuple(v) for v in circle_report["gaps"].values()]
    audit = wandering_audit(lift, gaps, config.audit_steps)
    checks = [
        {"name": "rotation-close",
         "pass": abs(final - config.alpha) < ROTATION_TOL,
         "estimate": final, "alpha": float(config.alpha),
         "error": abs(final - config.alpha)},
        {"name": "gaps-wander", "pass": audit["wandering"],
         "revisits": audit["revisits"]},
    ]
    _write_csv(out_dir / "rotation.csv",
               ("iterate", "orbit_value", "rotation_estimate"), rows)
    results = {"alpha": float(config.alpha),
               "orbit_points": config.orbit_points,
               "gap_count": len(gaps),
               "total_weight": circle_report["total_weight"],
               "final_estimate": final,
               "rotation": rotation_report,
               "audit": audit}
    return results, checks


def _load_measures(config: ScenarioConfig,
                   scene: DecompositionComplex) -> dict:
    identifiers = [box.identifier for box in scene.boxes]
    if config.measure_file is None:
        mu = TransverseMeasure.lebesgue()
        return {name: mu for name in identifiers}
    path = Path(config.measure_file)
    try:
        data = json.loads(path.read_text())
    except OSError as exc:
        raise MalformedInput(f"cannot read measure file {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise MalformedInput(f"measure file {path} is not valid JSON: "
                             f"{exc}") from exc
    try:
        if isinstance(data, dict) and "measures" in data:
            return {name: TransverseMeasure.from_json(entry)
                    for name, entry in data["measures"].items()}
        # a single cumulative is broadcast to every box
        mu = TransverseMeasure.from_json(data)
    except (KeyError, TypeError, ValueError) as exc:
        raise MalformedInput(f"measure file {path} does not describe a "
                             f"cumulative function: {exc}") from exc
    return {name: mu for name in identifiers}


def _run_measure(config: ScenarioConfig, out_dir: Path):
    scene = _load_scene(config.scene)
    _require_valid(scene)
    measures = _load_measures(config, scene)
    try:
        measured = MeasuredScene(scene, measures)
    except ValueError as exc:
        raise MalformedInput(str(exc)) from exc
    report = {}
    with _named_failure("smooth_measured_scene"):
        smoothed = smooth_measured_scene(measured, config.subsamples,
                                         report=report)
    checks = [
        {"name": "post-invariance",
         "pass": report["post_defect"] < MEASURE_POST_TOL,
         "post_defect": float(report["post_defect"])},
        {"name": "defect-not-increased",
         "pass": report["post_defect"] <= report["pre_defect"] + 1e-15,
         "pre_defect": float(report["pre_defect"])},
        {"name": "leaves-unchanged",
         "pass": smoothed.scene is measured.scene},
    ]
    rows = []
    for name in sorted(smoothed.measures):
        mu = smoothed.measures[name]
        for z, m in zip(mu.heights, mu.totals):
            rows.append((name, float(z), float(m)))
    _write_csv(out_dir / "measures.csv", ("box", "height", "total"), rows)
    return {"pipeline": report}, checks


_RUNNERS = {
    "validate": _run_validate,
    "smooth": _run_smooth,
    "blowup": _run_blowup,
    "tischler": _run_tischler,
    "denjoy-circle": _run_denjoy_circle,
    "measure": _run_measure,
}


def _malformed(exc: MalformedInput) -> tuple:
    """Manifest results and check rows for input rejected as malformed."""
    return ({"error": str(exc)},
            [{"name": "input-wellformed", "pass": False, "detail": str(exc)}])


def run(config: ScenarioConfig) -> int:
    """Dispatch one scenario and write manifest + CSV artifacts.

    Returns the process exit code; a manifest with any failed check row
    never carries exit code 0.
    """
    out_dir = Path(config.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    try:
        results, checks = _RUNNERS[config.kind](config, out_dir)
        code = 0
    except MalformedInput as exc:
        results, checks = _malformed(exc)
        code = 3
    except ValidationFailure as exc:
        results = exc.results or {"error": str(exc)}
        checks = exc.checks or [{"name": "scene-valid", "pass": False,
                                 "detail": str(exc)}]
        code = 2
    except PipelineFailure as exc:
        results = dict(exc.results or {})
        results["failed_stage"] = exc.stage
        results["error"] = str(exc)
        checks = [{"name": f"pipeline:{exc.stage}", "pass": False,
                   "detail": str(exc)}]
        code = 1
    if code == 0 and not all(row["pass"] for row in checks):
        code = 2 if config.kind == "validate" else 1
    _write_manifest(out_dir, config.to_json(), results, checks, code)
    return code


# ---------------------------------------------------------------------------
# scene generation


def _parse_split(value) -> tuple:
    if isinstance(value, (tuple, list)):
        parts = list(value)
    else:
        parts = str(value).split(",")
    if len(parts) != 2:
        raise MalformedInput(f"split must be two integers, got {value!r}")
    try:
        nx, ny = (int(p) for p in parts)
    except ValueError as exc:
        raise MalformedInput(f"split must be two integers, got {value!r}") from exc
    if nx < 1 or ny < 1:
        raise MalformedInput("split counts must be positive")
    return nx, ny


def generate_scene(template: str, parameters: dict | None = None,
                   path=None) -> Path:
    """Write a deterministic scene file for one of the built-in templates."""
    if template not in SCENE_TEMPLATES:
        raise MalformedInput(f"unknown template {template!r}; choose one of "
                             f"{', '.join(SCENE_TEMPLATES)}")
    params = dict(parameters or {})
    seed = int(params.pop("seed", 0))
    grid = int(params.pop("grid", 33))
    samples = int(params.pop("samples", 17))
    shear = float(params.pop("shear", 0.1))
    split = _parse_split(params.pop("split", (2, 2)))
    if params:
        raise MalformedInput(f"unknown parameters {sorted(params)}")
    if samples < 3:
        raise MalformedInput("need samples >= 3")
    boxes = {"split-t3": 5, "annulus-box": 1}.get(template,
                                                   split[0] * split[1])
    if boxes * samples * grid * grid > MAX_SCENE_VALUES:
        raise MalformedInput(
            f"{template} with {boxes} boxes, {samples} samples and grid "
            f"{grid} exceeds {MAX_SCENE_VALUES} leaf-grid values")

    used = {"seed": seed, "grid": grid, "samples": samples}
    try:
        if template == "horizontal-t3":
            used["split"] = list(split)
            scene = build_torus_scene(split, foliation={
                "kind": "horizontal", "grid": grid, "samples": samples})
        elif template == "sheared-t3":
            used["split"] = list(split)
            used["shear"] = shear
            scene = build_torus_scene(split, foliation={
                "kind": "sheared", "shear": shear,
                "grid": grid, "samples": samples})
        elif template == "split-t3":
            # the condition-(5) violator: 2x2 torus with one box height-split
            scene = build_torus_scene((2, 2),
                                      height_splits={(0, 0): [Fraction(1, 2)]},
                                      foliation={"kind": "horizontal",
                                                 "grid": grid,
                                                 "samples": samples})
        else:
            base = BaseDomain("rectangle", grid, grid)
            family = horizontal_family(base, samples)
            box = FlowBoxSpec.with_default_faces(
                "annulus", (Fraction(0), Fraction(1)),
                (Fraction(0), Fraction(1)), (Fraction(0), Fraction(1)), family)
            scene = DecompositionComplex((box,))
    except ValueError as exc:
        # the constructors' own range checks, e.g. BaseDomain's 8-node
        # minimum or sheared_family's |shear| < 1
        raise MalformedInput(f"cannot build {template}: {exc}") from exc

    payload = {"schema_version": SCHEMA_VERSION,
               "template": template,
               "parameters": used,
               "scene": scene.to_json()}
    out_path = Path(path) if path is not None else Path(f"{template}.json")
    out_path.parent.mkdir(parents=True, exist_ok=True)
    out_path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return out_path


# ---------------------------------------------------------------------------
# argument parsing


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        # argparse exits with 2 by default, which collides with the
        # "validation failure" code; malformed flags are exit 3 here
        raise MalformedInput(message)


def _parse_alpha(token: str) -> float:
    if token.strip().lower() == "golden":
        return GOLDEN_MEAN
    try:
        return float(token)
    except ValueError as exc:
        raise MalformedInput(f"bad alpha {token!r}; give a float or "
                             f"'golden'") from exc


def _float_list(token: str) -> tuple:
    try:
        return tuple(float(part) for part in token.split(",") if part.strip())
    except ValueError as exc:
        raise MalformedInput(f"bad numeric list {token!r}") from exc


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="flowbox",
                     description="Flow-box foliation workbench: validate, "
                                 "smooth, blow up, and measure sampled "
                                 "foliated scenes.")
    subparsers = parser.add_subparsers(dest="command", required=True,
                                       parser_class=_Parser)

    def add_common(sub):
        sub.add_argument("--out", default=".",
                         help="output directory (default: current)")
        sub.add_argument("--seed", type=int, default=0,
                         help="deterministic seed recorded in the manifest")

    sub = subparsers.add_parser("validate",
                                help="check the five flow-box conditions")
    sub.add_argument("--scene", required=True)
    add_common(sub)

    sub = subparsers.add_parser("smooth",
                                help="run the global smoothing ladder")
    sub.add_argument("--scene", required=True)
    sub.add_argument("--epsilon", action="append", type=float, default=None,
                     help="target C0 distance; repeat for a ladder "
                          "(default 0.3 0.15 0.075)")
    add_common(sub)

    sub = subparsers.add_parser("blowup",
                                help="blow up one leaf over a weight ladder")
    sub.add_argument("--scene", required=True)
    sub.add_argument("--weights", type=_float_list, default=(),
                     help="comma-separated total weights "
                          "(default 0.2,0.1,0.05)")
    sub.add_argument("--epsilon", type=float, default=None,
                     help="C0 budget for each blowup (default 0.5)")
    sub.add_argument("--level", type=float, default=0.5,
                     help="height of the blown leaf (default 0.5)")
    sub.add_argument("--packet-shear", type=float, default=0.3)
    sub.add_argument("--packet-samples", type=int, default=17)
    add_common(sub)

    sub = subparsers.add_parser("tischler",
                                help="approximate a closed 1-form by a "
                                     "rational fibration")
    sub.add_argument("--coefficients", required=True,
                     help="comma-separated periods, e.g. "
                          "1,1.4142135623730951 or 1,17/12")
    sub.add_argument("--epsilon", type=float, required=True,
                     help="angle tolerance for the kernel line")
    add_common(sub)

    sub = subparsers.add_parser("denjoy-circle",
                                help="blow up a rotation orbit and audit "
                                     "the gaps")
    sub.add_argument("--alpha", default="golden",
                     help="rotation number, a float or 'golden'")
    sub.add_argument("--orbit-points", type=int, default=300)
    sub.add_argument("--iterations", type=int, default=20000,
                     help="rotation-estimate iterates (default 20000)")
    sub.add_argument("--audit-steps", type=int, default=2000,
                     help="gap-return horizon (default 2000)")
    add_common(sub)

    sub = subparsers.add_parser("measure",
                                help="smooth an invariant transverse measure")
    sub.add_argument("--scene", required=True)
    sub.add_argument("--measure-file", default=None,
                     help="JSON cumulative(s); default is Lebesgue on "
                          "every box")
    sub.add_argument("--subsamples", type=int, default=9)
    add_common(sub)

    sub = subparsers.add_parser("generate",
                                help="write a built-in scene template")
    sub.add_argument("--template", required=True, choices=SCENE_TEMPLATES)
    sub.add_argument("--grid", type=int, default=33)
    sub.add_argument("--samples", type=int, default=17)
    sub.add_argument("--shear", type=float, default=0.1)
    sub.add_argument("--split", default="2,2")
    add_common(sub)

    return parser


def _config_from_args(args) -> ScenarioConfig:
    kwargs = {"kind": args.command, "out": args.out, "seed": args.seed}
    if getattr(args, "scene", None) is not None:
        kwargs["scene"] = args.scene
    if args.command == "smooth" and args.epsilon:
        kwargs["epsilons"] = tuple(args.epsilon)
    if args.command == "blowup":
        if args.weights:
            kwargs["weights"] = tuple(args.weights)
        if args.epsilon is not None:
            kwargs["epsilons"] = (args.epsilon,)
        kwargs["blowup_level"] = args.level
        kwargs["packet_shear"] = args.packet_shear
        kwargs["packet_samples"] = args.packet_samples
    if args.command == "tischler":
        kwargs["coefficients"] = tuple(
            _parse_coefficient(tok) for tok in args.coefficients.split(","))
        kwargs["epsilons"] = (args.epsilon,)
    if args.command == "denjoy-circle":
        kwargs["alpha"] = _parse_alpha(args.alpha)
        kwargs["orbit_points"] = args.orbit_points
        kwargs["iterations"] = args.iterations
        kwargs["audit_steps"] = args.audit_steps
    if args.command == "measure":
        kwargs["measure_file"] = args.measure_file
        kwargs["subsamples"] = args.subsamples
    return ScenarioConfig(**kwargs)


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except MalformedInput as exc:
        print(f"flowbox: error: {exc}", file=sys.stderr)
        return 3

    if args.command == "generate":
        params = {"grid": args.grid, "samples": args.samples,
                  "shear": args.shear, "split": args.split,
                  "seed": args.seed}
        try:
            path = generate_scene(args.template, params,
                                  Path(args.out) / f"{args.template}.json")
        except MalformedInput as exc:
            print(f"flowbox: error: {exc}", file=sys.stderr)
            return 3
        print(path)
        return 0

    try:
        config = _config_from_args(args)
    except MalformedInput as exc:
        print(f"flowbox: error: {exc}", file=sys.stderr)
        # no ScenarioConfig exists, so the manifest records the flags as
        # parsed
        flags = dict(vars(args))
        flags["kind"] = flags.pop("command")
        out_dir = Path(args.out)
        out_dir.mkdir(parents=True, exist_ok=True)
        _write_manifest(out_dir, flags, *_malformed(exc), 3)
        return 3
    code = run(config)
    manifest = Path(config.out) / "manifest.json"
    status = "ok" if code == 0 else f"failed (exit {code})"
    print(f"{config.kind}: {status}; manifest at {manifest}")
    return code


if __name__ == "__main__":
    sys.exit(main())
