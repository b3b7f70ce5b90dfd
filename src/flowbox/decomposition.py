"""Flow box decompositions of torus scenes.

Axis-aligned boxes on T^3 = T^2 x (leaf circle cut at the reference leaf 0).
All combinatorics is exact: base rectangles, face spans, and leaf heights are
rational, so validation is interval arithmetic with no floating-point
topology.  Attached leaf families are sampled float data in box-normalized
coordinates.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, replace
from fractions import Fraction
from functools import cached_property

import numpy as np

from .foliation import (
    BaseDomain,
    LeafFamily,
    horizontal_family,
    interp_columns,
    json_part,
    sheared_family,
)

SIDES = ("W", "E", "S", "N")
# a rational as a scene file writes it: a sign, digits, and a decimal part or
# a denominator.  No exponent, which Fraction would expand digit by digit
# ("1e1000000000" runs for hours), and at most 64 digits a part, where
# generate writes at most ten
_RATIONAL = re.compile(r"[+-]?[0-9]{1,64}(?:\.[0-9]{1,64}|/[0-9]{1,64})?")


def frac(v) -> Fraction:
    if isinstance(v, str):
        if not _RATIONAL.fullmatch(v):
            raise ValueError(f"{v[:80]!r} is not a rational such as 1/3, "
                             f"-2 or 0.25 with at most 64 digits a part")
        try:
            return Fraction(v)
        except ZeroDivisionError:
            raise ValueError(f"{v!r} has a zero denominator") from None
    if isinstance(v, Fraction):
        return v
    if isinstance(v, int) and not isinstance(v, bool):
        return Fraction(v)
    if isinstance(v, float):
        # Fraction refuses NaN with a ValueError but inf with an OverflowError
        if math.isinf(v):
            raise ValueError(f"{v!r} is not a finite rational")
        f = Fraction(v).limit_denominator(10 ** 9)
        if float(f) != v:
            raise ValueError(f"{v!r} is not exactly rational at scene scale")
        return f
    raise TypeError(f"cannot coerce {type(v).__name__} to a rational")


def _mod1(v: Fraction) -> Fraction:
    return v - (v // 1)


# ------------------------------------------------- circular interval algebra

def circ_contains(outer, inner) -> bool:
    """Closed containment of circle arcs (lo, hi) with 0 <= lo < hi <= 1.
    No such arc crosses the seam, so this is plain containment."""
    return outer[0] <= inner[0] and inner[1] <= outer[1]


def circ_components(a, b) -> list:
    """Connected components of the intersection of two circle arcs, sorted.

    Both arcs are (lo, hi) with 0 <= lo < hi <= 1, as every box range and
    face span is (faces tile their side).  The intersection is then the
    plain overlap, plus the seam point 0 = 1 when one arc ends at 1 and the
    other starts at 0, unless the overlap already reaches the seam.
    """
    lo, hi = max(a[0], b[0]), min(a[1], b[1])
    pieces = [(lo, hi)] if lo <= hi else []
    if ((a[0] == 0 and b[1] == 1) or (b[0] == 0 and a[1] == 1)) \
            and not (pieces and (lo == 0 or hi == 1)):
        pieces.insert(0, (Fraction(0), Fraction(0)))
    return pieces


def _interval_str(iv) -> list:
    return [str(iv[0]), str(iv[1])]


def _interval_parse(data) -> tuple:
    lo, hi = data
    return (frac(lo), frac(hi))


# ------------------------------------------------------------------- types

@dataclass(frozen=True)
class Face:
    """Vertical 2-cell of a flow box: one side of the base rectangle, a span
    along that side's circular coordinate, and the box's leaf-height range."""

    side: str
    span: tuple
    heights: tuple

    def __post_init__(self):
        if self.side not in SIDES:
            raise ValueError(f"unknown side {self.side!r}")
        span = (frac(self.span[0]), frac(self.span[1]))
        heights = (frac(self.heights[0]), frac(self.heights[1]))
        object.__setattr__(self, "span", span)
        object.__setattr__(self, "heights", heights)
        if not span[0] < span[1]:
            raise ValueError("face span must be nondegenerate")
        if not heights[0] < heights[1]:
            raise ValueError("face heights must be nondegenerate")

    def to_json(self) -> dict:
        return {"side": self.side, "span": _interval_str(self.span),
                "heights": _interval_str(self.heights)}

    @classmethod
    def from_json(cls, data: dict) -> "Face":
        return cls(data["side"], _interval_parse(data["span"]),
                   _interval_parse(data["heights"]))


@dataclass(frozen=True)
class FlowBoxSpec:
    """Axis-aligned flow box: base rectangle in T^2 coordinates, leaf-height
    interval, vertical faces tiling the four sides, and the attached leaf
    family in box-normalized coordinates.

    Base rectangles never wrap (grid cells live in the fundamental domain);
    the torus shows up through plane identification of side positions mod 1.
    """

    identifier: str
    x_range: tuple
    y_range: tuple
    heights: tuple
    faces: tuple
    family: LeafFamily

    def __post_init__(self):
        for name in ("x_range", "y_range", "heights"):
            lo, hi = getattr(self, name)
            lo, hi = frac(lo), frac(hi)
            object.__setattr__(self, name, (lo, hi))
            if not (0 <= lo < hi <= 1):
                raise ValueError(f"{name} must satisfy 0 <= lo < hi <= 1")
        object.__setattr__(self, "faces", tuple(self.faces))
        # condition (1): faces tile each side at the box's heights
        problems = []
        for side in SIDES:
            lo, hi = self.side_range(side)
            spans = sorted(f.span for f in self.faces if f.side == side)
            if not spans:
                problems.append(f"side {side} has no faces")
                continue
            if spans[0][0] != lo or spans[-1][1] != hi:
                problems.append(f"side {side} faces do not reach the corners")
            for (_, b), (c, _) in zip(spans, spans[1:]):
                if b != c:
                    problems.append(f"side {side} faces do not tile (gap at {b})")
            for f in self.faces:
                if f.side == side and f.heights != self.heights:
                    problems.append(
                        f"side {side} face heights differ from the box heights")
        if not isinstance(self.family, LeafFamily):
            problems.append("missing attached leaf family")
        if problems:
            raise ValueError(f"box {self.identifier}: " + "; ".join(problems))

    def side_range(self, side: str) -> tuple:
        """Span coordinates of the given side (y for W/E, x for S/N)."""
        return self.y_range if side in ("W", "E") else self.x_range

    def plane(self, side: str):
        """(axis, position mod 1) of the plane carrying the side."""
        if side == "W":
            return ("x", _mod1(self.x_range[0]))
        if side == "E":
            return ("x", _mod1(self.x_range[1]))
        if side == "S":
            return ("y", _mod1(self.y_range[0]))
        return ("y", _mod1(self.y_range[1]))

    def annular_sides(self) -> tuple:
        """Axes along which the two opposite sides self-identify."""
        out = []
        if self.x_range[1] - self.x_range[0] == 1:
            out.append("x")
        if self.y_range[1] - self.y_range[0] == 1:
            out.append("y")
        return tuple(out)

    @property
    def volume(self) -> Fraction:
        return ((self.x_range[1] - self.x_range[0])
                * (self.y_range[1] - self.y_range[0])
                * (self.heights[1] - self.heights[0]))

    @classmethod
    def with_default_faces(cls, identifier, x_range, y_range, heights,
                           family) -> "FlowBoxSpec":
        """One full-span face per side."""
        faces = tuple(Face(side, y_range if side in ("W", "E") else x_range,
                           heights) for side in SIDES)
        return cls(identifier, x_range, y_range, heights, faces, family)

    def to_json(self) -> dict:
        return {
            "identifier": self.identifier,
            "x_range": _interval_str(self.x_range),
            "y_range": _interval_str(self.y_range),
            "heights": _interval_str(self.heights),
            "faces": [f.to_json() for f in self.faces],
            "family": self.family.to_json(),
        }

    @classmethod
    def from_json(cls, data: dict) -> "FlowBoxSpec":
        ident = data["identifier"]
        if not isinstance(ident, str):
            raise TypeError(f"box identifier must be a string, got "
                            f"{type(ident).__name__}")
        ranges = [json_part(f".{name}", _interval_parse, data[name])
                  for name in ("x_range", "y_range", "heights")]
        faces = tuple(json_part(f".faces[{j}]", Face.from_json, face)
                      for j, face in enumerate(data["faces"]))
        family = json_part(".family", LeafFamily.from_json, data["family"])
        return cls(ident, *ranges, faces, family)


@dataclass(frozen=True)
class DecompositionComplex:
    """Ordered flow boxes covering the torus scene, possibly rel V.

    The listing order is semantic (conditions (5) and (6) read it).  The
    constructor checks only shape-level properties; geometric validity is
    validate()'s report, so invalid scenes remain representable.
    """

    boxes: tuple
    v_boxes: frozenset = frozenset()

    def __post_init__(self):
        object.__setattr__(self, "boxes", tuple(self.boxes))
        object.__setattr__(self, "v_boxes", frozenset(self.v_boxes))
        ids = [b.identifier for b in self.boxes]
        if len(set(ids)) != len(ids):
            raise ValueError("box identifiers must be unique")
        if not self.v_boxes <= set(ids):
            raise ValueError("V must be a set of listed box identifiers")

    @cached_property
    def validation(self) -> dict:
        """validate()'s report on this scene, computed on the first read.

        The report reads only the boxes' exact geometry, which is frozen, so
        every pipeline given this object shares one report and must not
        mutate it.  validate is looked up at call time, so a rebound or
        patched module-level validate is the one that runs.
        """
        return validate(self)

    @property
    def f_boxes(self) -> tuple:
        """The non-V boxes in listing order (the F_i of the decomposition)."""
        return tuple(b for b in self.boxes if b.identifier not in self.v_boxes)

    def box(self, identifier: str) -> FlowBoxSpec:
        for b in self.boxes:
            if b.identifier == identifier:
                return b
        raise KeyError(identifier)

    @property
    def volume(self) -> Fraction:
        return sum((b.volume for b in self.boxes), Fraction(0))

    def to_json(self) -> dict:
        return {"boxes": [b.to_json() for b in self.boxes],
                "v_boxes": sorted(self.v_boxes)}

    @classmethod
    def from_json(cls, data: dict) -> "DecompositionComplex":
        boxes = []
        for i, box in enumerate(data["boxes"]):
            ident = box.get("identifier") if isinstance(box, dict) else None
            step = f"boxes[{i}]" + (f" ({ident})" if isinstance(ident, str)
                                    else "")
            boxes.append(json_part(step, FlowBoxSpec.from_json, box))
        v_boxes = data.get("v_boxes", [])
        if not isinstance(v_boxes, list):
            raise TypeError(f"v_boxes must be a list of box identifiers, "
                            f"got {type(v_boxes).__name__}")
        return cls(boxes, frozenset(v_boxes))


@dataclass(frozen=True)
class _GeomFace:
    """Flattened face record used by the geometric checks."""

    box_id: str
    side: str
    axis: str
    pos: Fraction
    span: tuple
    heights: tuple

    def key(self):
        return (self.axis, self.pos, self.span, self.heights)


def _geom_faces(box: FlowBoxSpec) -> list:
    out = []
    for f in box.faces:
        axis, pos = box.plane(f.side)
        out.append(_GeomFace(box.identifier, f.side, axis, pos,
                             f.span, f.heights))
    return out


# -------------------------------------------------------------- validation

def _pair_components(a: FlowBoxSpec, b: FlowBoxSpec):
    """Connected components of the torus intersection of two boxes, as
    (x, y, z) circular-interval triples."""
    xs = circ_components(a.x_range, b.x_range)
    ys = circ_components(a.y_range, b.y_range)
    zs = circ_components(a.heights, b.heights)
    return [(x, y, z) for x in xs for y in ys for z in zs]


def _face_containing(box: FlowBoxSpec, axis: str, pos: Fraction,
                     span, heights):
    for g in _geom_faces(box):
        if g.axis == axis and g.pos == pos \
                and circ_contains(g.span, span) \
                and circ_contains(g.heights, heights):
            return g
    return None


def _circ_cover_exact(span, pieces) -> bool:
    """Exact covering of an arc by sub-arcs of it, all in [0, 1]."""
    reach = span[0]
    for lo, hi in sorted(pieces):
        if lo > reach:
            return False
        reach = max(reach, hi)
    return reach >= span[1]


def _vertical_union_of_faces(box: FlowBoxSpec, axis: str, pos: Fraction,
                             span, heights) -> bool:
    """True when the given vertical rectangle is exactly a union of the
    box's vertical 2-cells on that plane."""
    if heights != box.heights:
        return False
    pieces = [g.span for g in _geom_faces(box)
              if g.axis == axis and g.pos == pos
              and circ_contains(span, g.span)]
    return bool(pieces) and _circ_cover_exact(span, pieces)


def validate(complex_: DecompositionComplex) -> dict:
    """Report-only check of the decomposition conditions (1) through (5).

    Never raises on geometric failure: each condition gets a pass flag and a
    witness list.  Coverage of the scene (fiber heights tile the leaf circle
    over every base cell) is reported alongside.
    """
    report = {"conditions": {}, "annular_faces": [], "valid": True}

    for box in complex_.boxes:
        for axis in box.annular_sides():
            report["annular_faces"].append(
                {"box": box.identifier, "axis": axis})
    # (1) holds for every box: FlowBoxSpec raises on any box that breaks it
    report["conditions"]["1"] = {"pass": True, "witnesses": []}

    # (3) interior disjointness and (4) boundary-intersection shape, from the
    # same component decomposition
    witnesses3 = []
    witnesses4 = []
    boxes = complex_.boxes
    for i in range(len(boxes)):
        for j in range(i + 1, len(boxes)):
            a, b = boxes[i], boxes[j]
            for (xc, yc, zc) in _pair_components(a, b):
                if xc[1] > xc[0] and yc[1] > yc[0] and zc[1] > zc[0]:
                    witnesses3.append({
                        "boxes": [a.identifier, b.identifier],
                        "overlap": [_interval_str(xc), _interval_str(yc),
                                    _interval_str(zc)]})
                    continue
                contact = _vertical_contact(xc, yc, zc)
                if contact is None:
                    continue
                axis, pos, span = contact
                fa = _face_containing(a, axis, pos, span, zc)
                fb = _face_containing(b, axis, pos, span, zc)
                if fa is None or fb is None:
                    culprit = a.identifier if fa is None else b.identifier
                    witnesses4.append({
                        "boxes": [a.identifier, b.identifier],
                        "plane": [axis, str(pos)],
                        "span": _interval_str(span),
                        "heights": _interval_str(zc),
                        "not_in_single_face_of": culprit})
    report["conditions"]["3"] = {"pass": not witnesses3,
                                 "witnesses": witnesses3}
    report["conditions"]["4"] = {"pass": not witnesses4,
                                 "witnesses": witnesses4}

    # (2) V interfaces: vertical components of V-box intersections must be
    # whole faces of the F-box
    witnesses2 = []
    for vb in (complex_.box(i) for i in sorted(complex_.v_boxes)):
        for fb in complex_.f_boxes:
            for (xc, yc, zc) in _pair_components(vb, fb):
                contact = _vertical_contact(xc, yc, zc)
                if contact is None:
                    continue
                axis, pos, span = contact
                if not _vertical_union_of_faces(fb, axis, pos, span, zc):
                    witnesses2.append({
                        "v_box": vb.identifier, "box": fb.identifier,
                        "plane": [axis, str(pos)],
                        "span": _interval_str(span)})
    report["conditions"]["2"] = {"pass": not witnesses2,
                                 "witnesses": witnesses2}

    # (5) later vertical cells meeting earlier ones must be contained
    witnesses5 = []
    earlier = []
    for box in complex_.f_boxes:
        for g, g0 in _meetings(box, earlier):
            if not (circ_contains(g0.span, g.span)
                    and circ_contains(g0.heights, g.heights)):
                witnesses5.append({
                    "later": [g.box_id, g.side, _interval_str(g.span),
                              _interval_str(g.heights)],
                    "earlier": [g0.box_id, g0.side, _interval_str(g0.span),
                                _interval_str(g0.heights)]})
        earlier += _geom_faces(box)
    report["conditions"]["5"] = {"pass": not witnesses5,
                                 "witnesses": witnesses5}

    report["coverage"] = _coverage_report(complex_)
    report["volume"] = str(complex_.volume)
    report["valid"] = all(c["pass"] for c in report["conditions"].values()) \
        and report["coverage"]["pass"]
    return report


def _vertical_contact(xc, yc, zc):
    """(axis, pos, span) of a component of two boxes' intersection that is a
    vertical rectangle, or None for a solid, a horizontal disk in a shared
    leaf, or anything of lower dimension."""
    if zc[1] == zc[0] or (xc[1] > xc[0]) == (yc[1] > yc[0]):
        return None
    if xc[1] == xc[0]:
        return ("x", _mod1(xc[0]), yc)
    return ("y", _mod1(yc[0]), xc)


def _meetings(box: FlowBoxSpec, earlier) -> list:
    """(g, g0) pairs of a vertical cell g of box and a cell g0 of earlier
    (cells in listing order) on the same plane whose interiors overlap, with
    g the outer loop.  Arcs lie in [0, 1], so the interiors of two arcs
    overlap exactly when their plain overlap has positive length."""
    return [(g, g0) for g in _geom_faces(box) for g0 in earlier
            if g0.axis == g.axis and g0.pos == g.pos
            and max(g.span[0], g0.span[0]) < min(g.span[1], g0.span[1])
            and max(g.heights[0], g0.heights[0])
            < min(g.heights[1], g0.heights[1])]


def _coverage_report(complex_: DecompositionComplex) -> dict:
    """Fiber heights must tile the leaf circle over every base cell."""
    xs = sorted({frac(0), frac(1)}
                | {v for b in complex_.boxes for v in b.x_range})
    ys = sorted({frac(0), frac(1)}
                | {v for b in complex_.boxes for v in b.y_range})
    gaps = []
    for x0, x1 in zip(xs, xs[1:]):
        for y0, y1 in zip(ys, ys[1:]):
            mx, my = (x0 + x1) / 2, (y0 + y1) / 2
            heights = sorted(
                b.heights for b in complex_.boxes
                if b.x_range[0] <= mx <= b.x_range[1]
                and b.y_range[0] <= my <= b.y_range[1])
            ok = bool(heights) and heights[0][0] == 0 \
                and heights[-1][1] == 1 \
                and all(a[1] == b[0] for a, b in zip(heights, heights[1:]))
            if not ok:
                gaps.append({"cell": [_interval_str((x0, x1)),
                                      _interval_str((y0, y1))],
                             "heights": [_interval_str(h) for h in heights]})
    return {"pass": not gaps, "witnesses": gaps}


# ------------------------------------------------------------- enforcement

def family_slice(fam: LeafFamily, lo: float, hi: float) -> LeafFamily:
    """Renormalized restriction of a family between two leaf indices."""
    if not 0.0 <= lo < hi <= 1.0:
        raise ValueError("slice range must be inside [0, 1]")
    inner = fam.t[(fam.t > lo + 1e-12) & (fam.t < hi - 1e-12)]
    ts = np.concatenate([[lo], inner, [hi]])
    grids = fam.leaves_at(ts)
    f_lo, f_hi = grids[0], grids[-1]
    vals = (grids - f_lo) / (f_hi - f_lo)
    s = (ts - lo) / (hi - lo)
    ix, iy = fam.anchor
    vals[:, ix, iy] = s
    return LeafFamily(fam.base, s, vals, fam.anchor)


def _split_box(box: FlowBoxSpec, height_cuts, span_cuts) -> list:
    """Split a box at global leaf heights and refine its faces at the given
    span positions (per side).  Returns the stack bottom-up."""
    h_lo, h_hi = box.heights
    cuts = sorted(c for c in height_cuts if h_lo < c < h_hi)
    levels = [h_lo] + cuts + [h_hi]
    out = []
    for k, (a, b) in enumerate(zip(levels, levels[1:])):
        if cuts:
            lo = float((a - h_lo) / (h_hi - h_lo))
            hi = float((b - h_lo) / (h_hi - h_lo))
            fam = family_slice(box.family, lo, hi)
            ident = f"{box.identifier}.{k}"
        else:
            fam = box.family
            ident = box.identifier
        faces = []
        for side in SIDES:
            s_lo, s_hi = box.side_range(side)
            existing = {p for f in box.faces if f.side == side
                        for p in f.span}
            pts = sorted(existing
                         | {p for p in span_cuts.get(side, ())
                            if s_lo < p < s_hi})
            for p, q in zip(pts, pts[1:]):
                faces.append(Face(side, (p, q), (a, b)))
        out.append(FlowBoxSpec(ident, box.x_range, box.y_range, (a, b),
                               tuple(faces), fam))
    return out


def enforce_condition5(complex_: DecompositionComplex) -> DecompositionComplex:
    """Inductive subdivision making condition (5) hold, in one forward pass.

    Each F box, in listing order, is cut against the F boxes and pieces
    already placed before it: the earlier vertical cells X meeting its
    cells' interiors dictate horizontal splits (at the heights of X's
    horizontal boundaries) and extra vertical edges (at X's span
    boundaries).  Placed boxes are never touched again, and every piece of
    a cut box lies inside the cells that met it, so the pass settles the
    induction.  V boxes pass through unchanged.  Conditions (1)-(4) must
    hold; a scene that already satisfies (5) is returned as it is.
    """
    rep = complex_.validation
    for cond in ("1", "2", "3", "4"):
        if not rep["conditions"][cond]["pass"]:
            raise ValueError(
                f"conditions (1)-(4) must hold before enforcing (5); "
                f"condition ({cond}) fails")
    if rep["conditions"]["5"]["pass"]:
        return complex_
    listing, earlier = [], []
    for box in complex_.boxes:
        if box.identifier in complex_.v_boxes:
            listing.append(box)
            continue
        meetings = _meetings(box, earlier)
        height_cuts = {h for _, g0 in meetings for h in g0.heights
                       if box.heights[0] < h < box.heights[1]}
        span_cuts = {}
        for g, g0 in meetings:
            pts = {p for p in g0.span if g.span[0] < p < g.span[1]}
            if pts:
                span_cuts.setdefault(g.side, set()).update(pts)
        pieces = _split_box(box, height_cuts, span_cuts) \
            if height_cuts or span_cuts else [box]
        listing += pieces
        for piece in pieces:
            earlier += _geom_faces(piece)
    current = DecompositionComplex(tuple(listing), complex_.v_boxes)
    if not current.validation["conditions"]["5"]["pass"]:
        raise RuntimeError("condition (5) still fails after enforcement")
    return current


# ---------------------------------------------------------- scene helpers

def maximal_faces(complex_: DecompositionComplex) -> tuple:
    """The identified vertical faces in sorted order, each a dict of axis,
    pos, span, heights and owners (the sorted (box id, side) pairs carrying
    it).

    In a valid scene whose faces each join two boxes, no identified face
    lies inside another: that would put two boxes on one side of the plane
    over the smaller face, overlapping in the interior.  So these are the
    maximal faces; shared_faces checks the owners.
    """
    groups = {}
    for box in complex_.boxes:
        for g in _geom_faces(box):
            groups.setdefault(g.key(), []).append((g.box_id, g.side))
    return tuple(
        {"axis": k[0], "pos": str(k[1]),
         "span": _interval_str(k[2]), "heights": _interval_str(k[3]),
         "owners": tuple(sorted(groups[k]))}
        for k in sorted(groups))


def shared_faces(complex_: DecompositionComplex) -> list:
    """Identified geometric faces, each as
    (axis, pos, (id, E/N side), (id, W/S side))."""
    out = []
    for face in maximal_faces(complex_):
        owners = face["owners"]
        head = [o for o in owners if o[1] in ("E", "N")]
        tail = [o for o in owners if o[1] in ("W", "S")]
        if len(owners) != 2 or len(head) != 1 or len(tail) != 1:
            raise ValueError(
                f"face {face['axis']}={face['pos']} x {face['span']} must "
                "join exactly one E/N side to one W/S side")
        out.append((face["axis"], face["pos"], head[0], tail[0]))
    return out


def with_families(complex_: DecompositionComplex,
                  fams: dict) -> DecompositionComplex:
    """The same decomposition with every box's family replaced by fams[id]."""
    boxes = tuple(replace(box, family=fams[box.identifier])
                  for box in complex_.boxes)
    return DecompositionComplex(boxes, complex_.v_boxes)


def side_columns(family: LeafFamily, side: str) -> np.ndarray:
    """Fiber heights along one side of a chart, one column per grid node in
    order of position on the side: a view of shape (m, nodes)."""
    if side in ("W", "E"):
        return family.values[:, 0 if side == "W" else -1, :]
    if side in ("S", "N"):
        return family.values[:, :, 0 if side == "S" else -1]
    raise ValueError(f"unknown side {side!r}")


def face_columns(scene: DecompositionComplex, face) -> tuple:
    """(fam_a, cols_a, fam_b, cols_b) of a face from shared_faces: each
    owner's family and its side_columns along its side of the face."""
    axis, pos, (id_a, side_a), (id_b, side_b) = face
    fam_a, fam_b = scene.box(id_a).family, scene.box(id_b).family
    cols_a, cols_b = side_columns(fam_a, side_a), side_columns(fam_b, side_b)
    if cols_a.shape[1] != cols_b.shape[1]:
        raise ValueError(f"face {axis}={pos}: sides sampled differently")
    return fam_a, cols_a, fam_b, cols_b


def side_transport_gap(cols_a: np.ndarray, cols_b: np.ndarray) -> float:
    """Sup disagreement between the leaf transports from the first fiber to
    each later one along two sides given as side_columns, evaluated on the
    union grid of the two first fibers in one pass per side."""
    xs = np.union1d(cols_a[:, 0], cols_b[:, 0])
    ta = interp_columns(xs, cols_a[:, 0], cols_a[:, 1:])
    tb = interp_columns(xs, cols_b[:, 0], cols_b[:, 1:])
    return float(np.abs(ta - tb).max())


# ------------------------------------------------------------ construction

def build_torus_scene(base_split, height_splits=None,
                      foliation=None) -> DecompositionComplex:
    """Axis-aligned T^3 scene: an m x n grid of base cells, optional per-cell
    height splits (at exact rationals), and a per-box leaf family.

    foliation: {"kind": "horizontal"} or {"kind": "sheared", "shear": c}
    plus optional "samples" (leaf count) and "grid" (nodes per base axis).
    Boxes are listed row-major in (i, j), stacked bottom-up; validity of the
    listing order is validate()'s business, not the builder's.
    """
    m, n = int(base_split[0]), int(base_split[1])
    if m < 1 or n < 1:
        raise ValueError("base split must be at least 1x1")
    height_splits = height_splits or {}
    foliation = dict(foliation or {"kind": "horizontal"})
    kind = foliation.get("kind", "horizontal")
    samples = int(foliation.get("samples", 17))
    grid = int(foliation.get("grid", 33))
    base = BaseDomain("rectangle", grid, grid)
    if kind == "horizontal":
        cell_family = horizontal_family(base, samples)
    elif kind == "sheared":
        cell_family = sheared_family(base, float(foliation.get("shear", 0.1)),
                                     samples)
    else:
        raise ValueError(f"unknown foliation kind {kind!r}")
    boxes = []
    for i in range(m):
        for j in range(n):
            x_range = (Fraction(i, m), Fraction(i + 1, m))
            y_range = (Fraction(j, n), Fraction(j + 1, n))
            cuts = sorted(frac(c) for c in height_splits.get((i, j), ()))
            if any(not 0 < c < 1 for c in cuts) \
                    or len(set(cuts)) != len(cuts):
                raise ValueError(
                    f"height splits for cell {(i, j)} must be distinct "
                    "rationals strictly inside (0, 1)")
            levels = [Fraction(0)] + cuts + [Fraction(1)]
            for k, (a, b) in enumerate(zip(levels, levels[1:])):
                ident = f"b{i}{j}" if not cuts else f"b{i}{j}.{k}"
                fam = cell_family if not cuts else family_slice(
                    cell_family, float(a), float(b))
                boxes.append(FlowBoxSpec.with_default_faces(
                    ident, x_range, y_range, (a, b), fam))
    return DecompositionComplex(tuple(boxes))
