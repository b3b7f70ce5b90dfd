"""Desk-scale workbench for foliations on flow boxes.

Smoothing operators for product foliations, flow box decomposition
combinatorics, holonomy computation, Denjoy blowup, and Tischler
approximation of measured foliations, all verified numerically.
"""

from .kernel import (
    CollapseMap,
    InsertionSchedule,
    LadderError,
    Partition,
    build_collapse,
    choose_partition,
)
from .foliation import (
    BaseDomain,
    HolonomyMap,
    LeafFamily,
    c0_distance,
    holonomy,
    horizontal_family,
    sheared_family,
)
from .smoothing import (
    face_transport_defect,
    globally_smooth,
    smooth_in_t,
    smooth_with_holonomy_constraint,
)
from .decomposition import (
    DecompositionComplex,
    FlowBoxSpec,
    build_torus_scene,
    enforce_condition5,
    validate,
)
from .denjoy import (
    CircleMapLift,
    birkhoff_estimate,
    blowup_box,
    blowup_circle_map,
    blowup_scene,
    circle_orbit,
    rotation_number,
    verify_blowup,
    wandering_audit,
)
from .measure import (
    ClosedOneForm,
    MeasuredScene,
    TransverseMeasure,
    scene_invariance_defect,
    smooth_measure_on_transversal,
    smooth_measured_scene,
    tischler_fibration,
)
from .cli import ScenarioConfig, generate_scene, run

__version__ = "0.1.0"
