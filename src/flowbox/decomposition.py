"""Flow box decompositions of torus scenes.

Axis-aligned boxes on T^3 = T^2 x (leaf circle cut at the reference leaf 0).
All combinatorics is exact: base rectangles, face spans, and leaf heights are
rational, so validation is interval arithmetic with no floating-point
topology.  Attached leaf families are sampled float data in box-normalized
coordinates.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from functools import cached_property

import numpy as np

from .foliation import BaseDomain, LeafFamily, horizontal_family, sheared_family

SIDES = ("W", "E", "S", "N")


def frac(v) -> Fraction:
    if isinstance(v, Fraction):
        return v
    if isinstance(v, (int, str)):
        return Fraction(v)
    if isinstance(v, float):
        f = Fraction(v).limit_denominator(10 ** 9)
        if float(f) != v:
            raise ValueError(f"{v!r} is not exactly rational at scene scale")
        return f
    raise TypeError(f"cannot coerce {type(v).__name__} to a rational")


def _mod1(v: Fraction) -> Fraction:
    return v - (v // 1)


# ------------------------------------------------- circular interval algebra

def circ_contains(outer, inner) -> bool:
    """Closed containment of circular intervals (lo, hi), hi - lo <= 1."""
    o_lo, o_hi = outer
    i_lo, i_hi = inner
    if o_hi - o_lo >= 1:
        return True
    if i_hi - i_lo > o_hi - o_lo:
        return False
    d = _mod1(i_lo - o_lo)
    return d + (i_hi - i_lo) <= o_hi - o_lo


def circ_components(a, b) -> list:
    """Connected components of the intersection of two circular intervals.

    Intervals are (lo, hi) pairs; anything of extent >= 1 is the full
    circle.  Shift copies catch intersections across the 0 = 1 seam, and
    touching pieces are merged back into single components.
    """
    def clamp(iv):
        lo, hi = iv
        return (lo, lo + 1) if hi - lo >= 1 else (lo, hi)

    a, b = clamp(a), clamp(b)
    pieces = []
    for shift in (-1, 0, 1):
        lo = max(a[0], b[0] + shift)
        hi = min(a[1], b[1] + shift)
        if lo <= hi:
            canon = (_mod1(lo), _mod1(lo) + (hi - lo))
            if canon not in pieces:
                pieces.append(canon)

    def merge(p, q):
        # merged circular interval when q starts inside p, else None
        d = _mod1(q[0] - p[0])
        if d <= p[1] - p[0]:
            ext = min(max(p[1] - p[0], d + (q[1] - q[0])), Fraction(1))
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


def _interval_str(iv) -> list:
    return [str(iv[0]), str(iv[1])]


def _interval_parse(data) -> tuple:
    return (Fraction(data[0]), Fraction(data[1]))


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
        problems = box_wellformedness(self)
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
        x_range = (frac(x_range[0]), frac(x_range[1]))
        y_range = (frac(y_range[0]), frac(y_range[1]))
        heights = (frac(heights[0]), frac(heights[1]))
        faces = []
        for side in SIDES:
            span = y_range if side in ("W", "E") else x_range
            faces.append(Face(side, span, heights))
        return cls(identifier, x_range, y_range, heights, tuple(faces), family)

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
        return cls(
            data["identifier"],
            _interval_parse(data["x_range"]),
            _interval_parse(data["y_range"]),
            _interval_parse(data["heights"]),
            tuple(Face.from_json(f) for f in data["faces"]),
            LeafFamily.from_json(data["family"]),
        )


def box_wellformedness(box: FlowBoxSpec) -> list:
    """Condition (1) checks: faces tile each side at the box's heights and a
    valid leaf family is attached.  Returns human-readable problems."""
    problems = []
    for side in SIDES:
        lo, hi = box.side_range(side)
        spans = sorted(f.span for f in box.faces if f.side == side)
        if not spans:
            problems.append(f"side {side} has no faces")
            continue
        if spans[0][0] != lo or spans[-1][1] != hi:
            problems.append(f"side {side} faces do not reach the corners")
        for (a, b), (c, d) in zip(spans, spans[1:]):
            if b != c:
                problems.append(f"side {side} faces do not tile (gap at {b})")
        for f in box.faces:
            if f.side == side and f.heights != box.heights:
                problems.append(
                    f"side {side} face heights differ from the box heights")
    if not isinstance(box.family, LeafFamily):
        problems.append("missing attached leaf family")
    return problems


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
        return cls(tuple(FlowBoxSpec.from_json(b) for b in data["boxes"]),
                   frozenset(data.get("v_boxes", ())))


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
    """Exact covering of a circular interval by sub-intervals of it."""
    length = span[1] - span[0]
    offsets = sorted((_mod1(p[0] - span[0]), p[1] - p[0]) for p in pieces)
    reach = Fraction(0)
    for d, ext in offsets:
        if d > reach:
            return False
        reach = max(reach, d + ext)
    return reach >= length


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

    witnesses1 = []
    for box in complex_.boxes:
        for p in box_wellformedness(box):
            witnesses1.append({"box": box.identifier, "problem": p})
        for axis in box.annular_sides():
            report["annular_faces"].append(
                {"box": box.identifier, "axis": axis})
    report["conditions"]["1"] = {"pass": not witnesses1,
                                 "witnesses": witnesses1}

    # (3) interior disjointness and (4) boundary-intersection shape, from the
    # same component decomposition
    witnesses3 = []
    witnesses4 = []
    boxes = complex_.boxes
    for i in range(len(boxes)):
        for j in range(i + 1, len(boxes)):
            a, b = boxes[i], boxes[j]
            for (xc, yc, zc) in _pair_components(a, b):
                extents = [xc[1] - xc[0], yc[1] - yc[0], zc[1] - zc[0]]
                dims = sum(1 for e in extents if e > 0)
                if dims == 3:
                    witnesses3.append({
                        "boxes": [a.identifier, b.identifier],
                        "overlap": [_interval_str(xc), _interval_str(yc),
                                    _interval_str(zc)]})
                    continue
                if dims < 2:
                    continue
                if extents[2] == 0:
                    continue  # horizontal disk in a shared leaf
                axis, pos, span = ("x", _mod1(xc[0]), yc) \
                    if extents[0] == 0 else ("y", _mod1(yc[0]), xc)
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
                extents = [xc[1] - xc[0], yc[1] - yc[0], zc[1] - zc[0]]
                if sum(1 for e in extents if e > 0) != 2 or extents[2] == 0:
                    continue
                axis, pos, span = ("x", _mod1(xc[0]), yc) \
                    if extents[0] == 0 else ("y", _mod1(yc[0]), xc)
                if not _vertical_union_of_faces(fb, axis, pos, span, zc):
                    witnesses2.append({
                        "v_box": vb.identifier, "box": fb.identifier,
                        "plane": [axis, str(pos)],
                        "span": _interval_str(span)})
    report["conditions"]["2"] = {"pass": not witnesses2,
                                 "witnesses": witnesses2}

    # (5) later vertical cells meeting earlier ones must be contained
    witnesses5 = []
    f_boxes = complex_.f_boxes
    for n in range(len(f_boxes)):
        later = f_boxes[n]
        for g in _geom_faces(later):
            for i in range(n):
                for g0 in _geom_faces(f_boxes[i]):
                    if g0.axis != g.axis or g0.pos != g.pos:
                        continue
                    if not _interiors_overlap(g, g0):
                        continue
                    if not (circ_contains(g0.span, g.span)
                            and circ_contains(g0.heights, g.heights)):
                        witnesses5.append({
                            "later": [g.box_id, g.side,
                                      _interval_str(g.span),
                                      _interval_str(g.heights)],
                            "earlier": [g0.box_id, g0.side,
                                        _interval_str(g0.span),
                                        _interval_str(g0.heights)]})
    report["conditions"]["5"] = {"pass": not witnesses5,
                                 "witnesses": witnesses5}

    report["coverage"] = _coverage_report(complex_)
    report["volume"] = str(complex_.volume)
    report["valid"] = all(c["pass"] for c in report["conditions"].values()) \
        and report["coverage"]["pass"]
    return report


def _interiors_overlap(g: _GeomFace, g0: _GeomFace) -> bool:
    for comp in circ_components(g.span, g0.span):
        if comp[1] > comp[0]:
            break
    else:
        return False
    for comp in circ_components(g.heights, g0.heights):
        if comp[1] > comp[0]:
            return True
    return False


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
    vals[0] = 0.0
    vals[-1] = 1.0
    s = (ts - lo) / (hi - lo)
    s[0], s[-1] = 0.0, 1.0
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
    """Inductive subdivision making condition (5) hold.

    For each box in listing order, the union X of earlier vertical cells
    meeting its cells' interiors dictates horizontal splits (at the heights
    of the horizontal boundaries of X) and extra vertical edges (at the span
    boundaries of X).  Earlier boxes are never touched, so one forward pass
    settles the induction; the outer loop of at most 32 passes is a guard.
    """
    rep = validate(complex_)
    for cond in ("1", "2", "3", "4"):
        if not rep["conditions"][cond]["pass"]:
            raise ValueError(
                f"conditions (1)-(4) must hold before enforcing (5); "
                f"condition ({cond}) fails")
    current = complex_
    for _ in range(32):
        if rep["conditions"]["5"]["pass"]:
            return current
        v_ids = current.v_boxes
        listing = list(current.boxes)
        f_positions = [k for k, b in enumerate(listing)
                       if b.identifier not in v_ids]
        for n_idx, pos in enumerate(f_positions):
            box = listing[pos]
            earlier = [listing[p] for p in f_positions[:n_idx]]
            x_cells = []
            for e in earlier:
                for g0 in _geom_faces(e):
                    for g in _geom_faces(box):
                        if g0.axis == g.axis and g0.pos == g.pos \
                                and _interiors_overlap(g, g0):
                            x_cells.append(g0)
                            break
            if not x_cells:
                continue
            height_cuts = {h for g0 in x_cells for h in g0.heights
                           if box.heights[0] < h < box.heights[1]}
            span_cuts = {}
            for g0 in x_cells:
                for g in _geom_faces(box):
                    if g.axis == g0.axis and g.pos == g0.pos:
                        pts = {p for p in g0.span
                               if g.span[0] < p < g.span[1]}
                        if pts:
                            span_cuts.setdefault(g.side, set()).update(pts)
            if not height_cuts and not span_cuts:
                continue
            pieces = _split_box(box, height_cuts, span_cuts)
            listing[pos:pos + 1] = pieces
            current = DecompositionComplex(tuple(listing), v_ids)
            break
        else:
            break
        rep = validate(current)
    if not rep["conditions"]["5"]["pass"]:
        raise RuntimeError("condition (5) enforcement did not converge")
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


def side_nodes(base: BaseDomain, side: str) -> list:
    """Grid nodes (ix, iy) along one side of a chart, ordered by position
    on the side."""
    if side in ("W", "E"):
        ix = 0 if side == "W" else base.nx - 1
        return [(ix, iy) for iy in range(base.ny)]
    if side in ("S", "N"):
        iy = 0 if side == "S" else base.ny - 1
        return [(ix, iy) for ix in range(base.nx)]
    raise ValueError(f"unknown side {side!r}")


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
