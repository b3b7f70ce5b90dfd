import json
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from flowbox.foliation import (
    BaseDomain,
    HolonomyMap,
    LeafFamily,
    c0_distance,
    fiber_map,
    fiber_transports,
    holonomy,
    horizontal_family,
    interp_columns,
    inverse_interp_columns,
    merged_grid,
    sheared_family,
    tangent_field,
    _leaf_gradients,
)
from flowbox.kernel import SOLVER_TOL, choose_partition
from flowbox.smoothing import smooth_in_t

RECT = BaseDomain("rectangle", 33, 33)


# ---------------------------------------------------------------- oracles

def sheared_leaf_index_oracle(x, z, shear=0.5):
    """Root of t + shear*t*(1-t)*x = z by the quadratic formula."""
    if x == 0:
        return z
    a = -shear * x
    b = 1.0 + shear * x
    c = -z
    disc = b * b - 4 * a * c
    return (-b + math.sqrt(disc)) / (2 * a)


GOLDEN_INDEX = sheared_leaf_index_oracle(1.0, 0.5)  # (3 - sqrt 5)/2


def c0_distance_oracle(a: LeafFamily, b: LeafFamily, samples: int = 32) -> float:
    """Reference for c0_distance by search instead of algebra.

    Per node: the union of both families' leaf heights (np.union1d), each
    gradient there by np.interp, then every segment between consecutive
    heights sampled at `samples` + 1 points.  The angle moves no faster than
    |dp| + |dq| along a segment, so every sample interval that could hold a
    larger angle than the largest sampled one is searched by golden section.
    Angles from np.cross and np.linalg.norm.  samples=1 gives the largest
    angle at the sampled heights only.
    """
    if a.base != b.base:
        raise ValueError("families must share a base domain")
    n = a.base.nx * a.base.ny
    va = a.values.reshape(a.m, n).T        # (n, ma)
    vb = b.values.reshape(b.m, n).T
    ga = _leaf_gradients(a).reshape(a.m, n, 2).transpose(1, 0, 2)  # (n, ma, 2)
    gb = _leaf_gradients(b).reshape(b.m, n, 2).transpose(1, 0, 2)
    ends = []
    for r in range(n):
        z = np.union1d(va[r], vb[r])
        at = [np.stack([np.interp(z, v[r], g[r, :, c]) for c in range(2)], -1)
              for v, g in ((va, ga), (vb, gb))]
        ends.append(np.stack([at[0][:-1], at[0][1:], at[1][:-1], at[1][1:]]))
    p0, p1, q0, q1 = np.concatenate(ends, axis=1)[..., None, :]  # (s, 1, 2)

    def angle(u):
        up, uq = p0 + u[..., None] * (p1 - p0), q0 + u[..., None] * (q1 - q0)
        na = np.concatenate([-up, np.ones(up.shape[:-1] + (1,))], axis=-1)
        nb = np.concatenate([-uq, np.ones(uq.shape[:-1] + (1,))], axis=-1)
        return np.arctan2(np.linalg.norm(np.cross(na, nb), axis=-1),
                          np.sum(na * nb, axis=-1))

    vals = angle(np.broadcast_to(np.linspace(0.0, 1.0, samples + 1),
                                 (p0.shape[0], samples + 1)))
    best = float(vals.max())
    if samples == 1:
        return best
    speed = (np.linalg.norm(p1 - p0, axis=-1)
             + np.linalg.norm(q1 - q0, axis=-1))
    seg, j = np.nonzero(np.maximum(vals[:, :-1], vals[:, 1:])
                        + speed / (2 * samples) >= best)
    p0, p1, q0, q1 = (x[seg] for x in (p0, p1, q0, q1))
    lo, hi = j[:, None] / samples, (j[:, None] + 1) / samples
    ratio = (math.sqrt(5.0) - 1.0) / 2.0
    x1, x2 = hi - ratio * (hi - lo), lo + ratio * (hi - lo)
    f1, f2 = angle(x1), angle(x2)
    for _ in range(30):
        left = f1 >= f2
        lo, hi = np.where(left, lo, x1), np.where(left, x2, hi)
        x1, x2 = np.where(left, hi - ratio * (hi - lo), x2), \
            np.where(left, x1, lo + ratio * (hi - lo))
        f_new = angle(np.where(left, x1, x2))
        f1, f2 = np.where(left, f_new, f2), np.where(left, f1, f_new)
    return max(best, float(angle(0.5 * (lo + hi)).max()))


def fiber_transports_oracle(family: LeafFamily, nodes) -> list:
    """Reference for fiber_transports: each node's fiber map composed with
    the inverted start fiber map."""
    start = fiber_map(family, nodes[0]).inverse()
    return [fiber_map(family, node).compose(start) for node in nodes[1:]]


def tilted_family(base: BaseDomain, slope: float = 0.1, m: int = 17) -> LeafFamily:
    """Family whose middle leaf is the genuine tilted plane z = t + slope(x - 1/2).

    The tilt is ramped in linearly from the horizontal boundary leaves
    (hat profile 1 - |2t - 1|), so the normals at t = 1/2 are constant and
    the family stays inside [0, 1].  Anchored at x = 1/2, which must be a
    grid node (odd nx).
    """
    if base.nx % 2 == 0:
        raise ValueError("tilted family needs an odd nx so x = 1/2 is a node")
    if not abs(slope) < 0.5:
        raise ValueError("|slope| must be below 1/2 for monotonicity")
    t = np.linspace(0.0, 1.0, m)
    x, _ = np.meshgrid(base.x_nodes, base.y_nodes, indexing="ij")
    hat = 1.0 - np.abs(2.0 * t - 1.0)
    vals = t[:, None, None] + slope * hat[:, None, None] * (x[None] - 0.5)
    return LeafFamily(base, t, vals, ((base.nx - 1) // 2, 0))


def leaf_through(family: LeafFamily, base_point, z: float) -> float:
    """Bisection oracle for the leaf index of the point (base_point, z),
    to 1e-12."""
    z = float(z)
    if not -SOLVER_TOL <= z <= 1.0 + SOLVER_TOL:
        raise ValueError("z must lie in [0, 1]")
    pt = np.asarray(base_point, dtype=float).reshape(1, 2)
    heights = family.values_at(pt)[:, 0]

    def height(t):
        k = min(max(int(np.searchsorted(family.t, t, side="right")) - 1, 0),
                family.m - 2)
        u = (t - family.t[k]) / (family.t[k + 1] - family.t[k])
        return (1.0 - u) * heights[k] + u * heights[k + 1]

    lo, hi = 0.0, 1.0
    if z <= heights[0]:
        return 0.0
    if z >= heights[-1]:
        return 1.0
    while hi - lo > SOLVER_TOL:
        mid = 0.5 * (lo + hi)
        if height(mid) < z:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def test_oracle_against_closed_form():
    assert GOLDEN_INDEX == pytest.approx((3.0 - math.sqrt(5.0)) / 2.0, abs=1e-15)
    assert GOLDEN_INDEX == pytest.approx(0.3819660112501051, abs=1e-15)
    # residual of the defining equation
    t = GOLDEN_INDEX
    assert t + 0.5 * t * (1 - t) * 1.0 == pytest.approx(0.5, abs=1e-15)


# ---------------------------------------------------------------- domains

def test_base_domain_validation():
    with pytest.raises(ValueError):
        BaseDomain("rectangle", 4, 33)
    with pytest.raises(ValueError):
        BaseDomain("torus", 33, 33)
    # an annular box is a rectangle chart glued to itself, not a base shape
    with pytest.raises(ValueError, match="unknown base shape"):
        BaseDomain("annulus", 33, 32)
    assert RECT.y_nodes[-1] == 1.0


def test_family_invariants_rejected():
    fam = horizontal_family(RECT, 9)
    bad = fam.values.copy()
    bad[3, 5, 5] = bad[4, 5, 5]  # break strict monotonicity
    with pytest.raises(ValueError):
        LeafFamily(RECT, fam.t, bad)
    bad2 = fam.values.copy()
    bad2[0, 0, 0] = 0.01  # break boundary leaf
    with pytest.raises(ValueError):
        LeafFamily(RECT, fam.t, bad2)
    bad3 = fam.values.copy()
    bad3[:, 0, 0] += 0.001 * fam.t * (1 - fam.t)  # break anchoring
    with pytest.raises(ValueError):
        LeafFamily(RECT, fam.t, bad3)


def test_family_json_round_trip_bit_exact():
    fam = sheared_family(RECT, 0.5, 17)
    blob = json.dumps(fam.to_json())
    back = LeafFamily.from_json(json.loads(blob))
    assert back.base == fam.base
    np.testing.assert_array_equal(back.t, fam.t)
    np.testing.assert_array_equal(back.values, fam.values)
    assert back.anchor == fam.anchor


# ------------------------------------------------- the leaf through a point

def test_leaf_through_horizontal():
    fam = horizontal_family(RECT, 17)
    got = leaf_through(fam, (0.3, 0.7), 0.3)
    assert got == pytest.approx(0.3, abs=1e-12)


def test_leaf_through_at_anchor_is_identity():
    fam = sheared_family(RECT, 0.5, 33)
    for z in (0.1, 0.5, 0.93):
        got = leaf_through(fam, (0.0, 0.25), z)
        assert got == pytest.approx(z, abs=1e-10)


def test_leaf_through_sheared_quadratic():
    fam = sheared_family(RECT, 0.5, 65)
    got = leaf_through(fam, (1.0, 0.5), 0.5)
    # sampled-family index differs from the smooth solution only through
    # piecewise-linear interpolation error (~ (dt)^2 * curvature)
    assert got == pytest.approx(GOLDEN_INDEX, abs=5e-5)


def test_leaf_through_inverse_property():
    fam = sheared_family(RECT, 0.3, 17)
    rng = np.random.default_rng(7)
    for _ in range(25):
        pt = rng.uniform(0, 1, 2)
        z = rng.uniform(0, 1)
        t = leaf_through(fam, pt, z)
        back = np.interp(t, fam.t, fam.values_at(pt.reshape(1, 2))[:, 0])
        assert back == pytest.approx(z, abs=1e-10)


# ---------------------------------------------------------------- tangents

def test_tangent_field_horizontal_vertical_normals():
    normals = tangent_field(horizontal_family(RECT, 9))
    np.testing.assert_array_equal(normals[..., 0], 0.0)
    np.testing.assert_array_equal(normals[..., 1], 0.0)
    np.testing.assert_array_equal(normals[..., 2], 1.0)


def test_tangent_field_tilted_middle_leaf_constant():
    fam = tilted_family(RECT, 0.1, 17)
    mid = tangent_field(fam)[8]  # t = 0.5, the genuinely tilted plane
    expected = np.array([-0.1, 0.0, 1.0]) / math.hypot(0.1, 1.0)
    np.testing.assert_allclose(mid, np.broadcast_to(expected, mid.shape),
                               atol=1e-12)


def test_tangent_field_sheared_matches_analytic_gradient():
    fam = sheared_family(RECT, 0.5, 17)
    # at t = 0.5 the slope in x is 0.5 * 0.25 = 0.125, independent of x
    n = tangent_field(fam)[8]
    slope = -n[..., 0] / n[..., 2]
    np.testing.assert_allclose(slope, 0.125, atol=1e-12)


def test_tangent_refinement_stability():
    fam = sheared_family(RECT, 0.5, 17)
    # the same interpolant resampled on a grid refined by 2
    n = 2 * RECT.nx - 1
    base = BaseDomain("rectangle", n, n)
    pts = np.stack(np.meshgrid(base.x_nodes, base.y_nodes, indexing="ij"),
                   axis=-1).reshape(-1, 2)
    vals = fam.values_at(pts).reshape(fam.m, n, n)
    vals[0], vals[-1] = 0.0, 1.0
    fine = LeafFamily(base, fam.t, vals)
    # coarse nodes appear at even indices of the fine grid
    coarse_at_fine = tangent_field(fine)[:, ::2, ::2]
    diff = np.abs(coarse_at_fine - tangent_field(fam)).max()
    # leaf gradients vary by at most the sampled modulus of continuity
    assert diff < np.abs(np.diff(fam.values, axis=1)).max()


# ---------------------------------------------------------------- distance

def test_c0_distance_identical_is_zero():
    fam = sheared_family(RECT, 0.5, 17)
    assert c0_distance(fam, fam) == 0.0


def test_c0_distance_horizontal_vs_tilted():
    flat = horizontal_family(RECT, 17)
    tilt = tilted_family(RECT, 0.1, 17)
    d = c0_distance(flat, tilt)
    assert d == pytest.approx(math.atan(0.1), abs=1e-12)


def test_c0_distance_symmetry():
    rng = np.random.default_rng(3)
    for _ in range(5):
        s1, s2 = rng.uniform(-0.6, 0.6, 2)
        a = sheared_family(RECT, s1, 13)
        b = sheared_family(RECT, s2, 17)
        assert c0_distance(a, b) == c0_distance(b, a)
    # near ties: sorted with a float offset per node, these heights round
    # together and the argument order decides their order, which moved the
    # sup by a fifth
    for seed in (12, 53):
        a, b = one_ulp_pair(seed)
        assert c0_distance(a, b) == c0_distance(b, a)
        assert abs(c0_distance(a, b) - c0_distance_oracle(a, b)) <= 1e-12


def rough_family(base: BaseDomain, m: int, seed: int, amp: float) -> LeafFamily:
    """f_t = t + amp * t(1-t) * psi(x, y) with psi uniform per node."""
    psi = np.random.default_rng(seed).uniform(-1.0, 1.0, (base.nx, base.ny))
    psi = psi - psi[0, 0]
    psi /= max(1.0, float(np.max(np.abs(psi))))
    t = np.linspace(0.0, 1.0, m)
    vals = t[:, None, None] + amp * (t * (1.0 - t))[:, None, None] * psi[None]
    return LeafFamily(base, t, vals, (0, 0))


def one_ulp_pair(seed: int) -> tuple:
    """A rough 7-leaf family on the 8x8 rectangle and its copy with every
    interior height off the anchor column one ulp higher: each height of one
    family nearly ties a height of the other."""
    a = rough_family(BaseDomain("rectangle", 8, 8), 7, seed, 0.7)
    up = np.nextafter(a.values, 2.0)
    up[[0, -1]] = a.values[[0, -1]]
    up[:, 0, 0] = a.t
    return a, LeafFamily(a.base, a.t, up, (0, 0))


@st.composite
def leaf_families(draw, base):
    """Anchored family t + amp*t(1-t)*psi over base: psi random per node
    (rough) or a smooth field periodic in y, on a random strictly
    increasing t-grid."""
    steps = draw(st.lists(st.integers(1, 4), min_size=1, max_size=40))
    t = np.concatenate([[0.0], np.cumsum(steps) / sum(steps)])
    x, y = np.meshgrid(base.x_nodes, base.y_nodes, indexing="ij")
    if draw(st.booleans()):
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        psi = rng.uniform(-1.0, 1.0, x.shape)
    else:
        c = draw(st.lists(st.floats(-1.0, 1.0), min_size=3, max_size=3))
        psi = (c[0] * x + c[1] * np.sin(2 * np.pi * y)
               + c[2] * x * np.cos(2 * np.pi * y))
    psi = psi - psi[0, 0]
    psi /= max(1.0, float(np.max(np.abs(psi))))
    amp = draw(st.floats(0.0, 0.9))
    vals = t[:, None, None] + amp * (t * (1.0 - t))[:, None, None] * psi[None]
    return LeafFamily(base, t, vals, (0, 0))


@st.composite
def long_leaf_families(draw):
    """Like leaf_families, with 3 to 260 leaves, so greedy partition runs
    reach 64 candidates."""
    base = BaseDomain("rectangle", draw(st.integers(8, 17)),
                      draw(st.integers(8, 17)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    steps = rng.integers(1, 5, size=draw(st.integers(2, 259)))
    t = np.concatenate([[0.0], np.cumsum(steps) / steps.sum()])
    x, y = np.meshgrid(base.x_nodes, base.y_nodes, indexing="ij")
    if draw(st.booleans()):
        psi = rng.uniform(-1.0, 1.0, x.shape)
    else:
        c = rng.uniform(-1.0, 1.0, 3)
        psi = (c[0] * x + c[1] * np.sin(2 * np.pi * y)
               + c[2] * x * np.cos(2 * np.pi * y))
    psi = psi - psi[0, 0]
    psi /= max(1.0, float(np.max(np.abs(psi))))
    amp = draw(st.floats(0.0, 0.9))
    vals = t[:, None, None] + amp * (t * (1.0 - t))[:, None, None] * psi[None]
    return LeafFamily(base, t, vals, (0, 0))


@st.composite
def parallel_gradient_pairs(draw):
    """Two families on a rectangle whose gradients run in parallel past the
    vertical between the leaves t1 and t2, as in
    test_c0_distance_finds_a_peak_between_sampled_heights: from
    (tilt, +/-offset) to (-tilt, +/-offset), so the angle between them peaks
    between the sampled heights.  Tilt, offset, t1, t2 and the extra leaves
    each family is resampled at are random."""
    base = BaseDomain("rectangle", draw(st.integers(8, 17)),
                      draw(st.integers(8, 17)))
    x, y = np.meshgrid(base.x_nodes, base.y_nodes, indexing="ij")
    t1, t2 = draw(st.floats(0.15, 0.4)), draw(st.floats(0.6, 0.85))
    t = np.array([0.0, t1, t2, 1.0])
    tilt = draw(st.floats(0.02, 0.09)) * draw(st.sampled_from([-1.0, 1.0]))
    offset = draw(st.floats(0.005, 0.05))
    pair = []
    for h in (-offset, offset):
        vals = np.stack([np.zeros_like(x), t1 + tilt * x + h * y,
                         t2 - tilt * x + h * y, np.ones_like(x)])
        family = LeafFamily(base, t, vals, (0, 0))
        extra = [k / 100.0 for k in draw(st.lists(st.integers(1, 99),
                                                  max_size=6, unique=True))
                 if min(abs(k / 100.0 - t1), abs(k / 100.0 - t2)) > 1e-3]
        resampled = np.union1d(t, extra)
        pair.append(LeafFamily(base, resampled, family.leaves_at(resampled),
                               (0, 0)))
    return tuple(pair)


@st.composite
def family_pairs(draw):
    kind = draw(st.sampled_from(["smoothed", "independent", "parallel"]))
    if kind == "parallel":
        return draw(parallel_gradient_pairs())
    base = BaseDomain("rectangle", draw(st.integers(8, 17)),
                      draw(st.integers(8, 17)))
    a = draw(leaf_families(base))
    if kind == "smoothed":
        return a, smooth_in_t(a, draw(st.sampled_from([0.3, 0.1, 0.03])))
    return a, draw(leaf_families(base))


@settings(max_examples=60, deadline=None)
@given(family_pairs())
def test_c0_distance_matches_oracle(pair):
    a, b = pair
    d = c0_distance(a, b)
    assert abs(d - c0_distance_oracle(a, b)) <= 1e-12
    assert d == c0_distance(b, a)
    assert c0_distance(a, a) == 0.0
    assert c0_distance(b, b) == 0.0


def midpoint_refinement(family: LeafFamily) -> LeafFamily:
    """The same family with an extra leaf halfway between each pair of
    sampled leaves: every leaf and every gradient the interpolation gives
    there already, so only the sampling changes."""
    t = np.empty(2 * family.m - 1)
    vals = np.empty((t.size,) + family.values.shape[1:])
    t[::2], vals[::2] = family.t, family.values
    t[1::2] = 0.5 * (family.t[:-1] + family.t[1:])
    vals[1::2] = 0.5 * (family.values[:-1] + family.values[1:])
    return LeafFamily(family.base, t, vals, family.anchor)


@settings(max_examples=40, deadline=None)
@given(family_pairs())
def test_c0_distance_ignores_how_a_family_is_sampled(pair):
    a, b = pair
    d = c0_distance(a, b)
    assert abs(c0_distance(a, midpoint_refinement(b)) - d) <= 1e-12
    assert abs(c0_distance(midpoint_refinement(a), b) - d) <= 1e-12


def test_c0_distance_finds_a_peak_between_sampled_heights():
    # between the leaves 1/3 and 2/3 both gradients run in parallel, from
    # (0.2, -/+0.02) to (-0.2, -/+0.02): the normals are nearest the
    # vertical halfway, where the angle between them is largest
    base = BaseDomain("rectangle", 9, 9)
    x, y = np.meshgrid(base.x_nodes, base.y_nodes, indexing="ij")
    t = np.array([0.0, 1.0 / 3.0, 2.0 / 3.0, 1.0])

    def family(h):
        tilt = 0.2 * (x - 0.5)
        vals = np.stack([np.zeros_like(x), t[1] + tilt + h * (y - 0.5),
                         t[2] - tilt + h * (y - 0.5), np.ones_like(x)])
        return LeafFamily(base, t, vals, (4, 4))

    a, b = family(-0.02), family(0.02)
    d = c0_distance(a, b)
    assert abs(d - c0_distance_oracle(a, b)) <= 1e-12
    assert d > c0_distance_oracle(a, b, samples=1) + 1e-3


@st.composite
def families_with_nodes(draw):
    base = BaseDomain("rectangle", draw(st.integers(8, 17)),
                      draw(st.integers(8, 17)))
    node = st.tuples(st.integers(0, base.nx - 1), st.integers(0, base.ny - 1))
    nodes = draw(st.lists(node, min_size=1, max_size=6))
    if draw(st.booleans()):
        # a repeated node gives the identity transport
        nodes.insert(draw(st.integers(0, len(nodes))),
                     draw(st.sampled_from(nodes)))
    return draw(leaf_families(base)), nodes


@settings(max_examples=60, deadline=None)
@given(families_with_nodes())
def test_fiber_transports_carry_each_leaf(case):
    fam, nodes = case
    maps = fiber_transports(fam, nodes)
    assert len(maps) == len(nodes) - 1
    start = fam.values[:, nodes[0][0], nodes[0][1]]
    for rho, (ix, iy) in zip(maps, nodes[1:]):
        assert np.array_equal(rho(start), fam.values[:, ix, iy])


@settings(max_examples=60, deadline=None)
@given(families_with_nodes())
def test_fiber_transports_match_oracle(case):
    fam, nodes = case
    maps = fiber_transports(fam, nodes)
    ref = fiber_transports_oracle(fam, nodes)
    assert len(maps) == len(ref)
    for rho, rho_ref in zip(maps, ref):
        assert np.array_equal(rho.inputs, rho_ref.inputs)
        assert np.array_equal(rho.outputs, rho_ref.outputs)


def _same_floats(a, b):
    return (np.array_equal(a, b)
            and np.array_equal(np.signbit(a), np.signbit(b)))


@st.composite
def column_tables(draw):
    """Strictly increasing breakpoints from 0 to 1, a table of arbitrary
    columns on them, and queries: random points, every breakpoint, 0, 1."""
    n = draw(st.integers(1, 30))
    rise = st.floats(1e-6, 1.0)
    xp = _unit_knots(draw(st.lists(rise, min_size=n, max_size=n)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    cols = draw(st.integers(1, 8))
    fp = rng.uniform(-2.0, 2.0, (xp.size, cols))
    if draw(st.booleans()):
        fp = np.cumsum(np.abs(fp), axis=0)   # monotone, like leaf heights
    x = np.concatenate([rng.uniform(0.0, 1.0, draw(st.integers(0, 40))),
                        xp, [0.0, 1.0]])
    rng.shuffle(x)
    return x, xp, fp


@settings(max_examples=100, deadline=None)
@given(column_tables())
def test_interp_columns_matches_np_interp(case):
    x, xp, fp = case
    out = interp_columns(x, xp, fp)
    assert out.shape == (x.size, fp.shape[1])
    for c in range(fp.shape[1]):
        assert _same_floats(out[:, c], np.interp(x, xp, fp[:, c]))


@st.composite
def fiber_tables(draw):
    """Strictly increasing breakpoints per column, one shared fp, and
    per-column queries: random points below, inside and above the column's
    breakpoints, every breakpoint, the last one again, and tied repeats."""
    m = draw(st.integers(2, 30))
    cols = draw(st.integers(1, 8))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    xp = (np.cumsum(rng.uniform(1e-6, 1.0, (m, cols)), axis=0)
          + rng.uniform(-1.0, 1.0, cols))
    if draw(st.booleans()):
        # unit fibers, like leaf heights over grid nodes
        xp = (xp - xp[0]) / (xp[-1] - xp[0])
        xp[0], xp[-1] = 0.0, 1.0
    assume(np.all(np.diff(xp, axis=0) > 0.0))
    fp = rng.uniform(-2.0, 2.0, m)
    if draw(st.booleans()):
        fp = np.linspace(0.0, 1.0, m)   # leaf indices
    span = xp[-1] - xp[0]
    inside = xp[0] + span * rng.uniform(-0.5, 1.5,
                                         (draw(st.integers(0, 40)), cols))
    x = np.concatenate([inside, xp, xp[-1:], xp[:1] - span])
    ties = x[rng.integers(0, x.shape[0], draw(st.integers(0, 10)))]
    x = rng.permuted(np.concatenate([x, ties]), axis=0)
    return x, xp, fp


@settings(max_examples=100, deadline=None)
@given(fiber_tables())
def test_inverse_interp_columns_matches_np_interp(case):
    x, xp, fp = case
    out = inverse_interp_columns(x, xp, fp)
    assert out.shape == x.shape
    for c in range(x.shape[1]):
        assert _same_floats(out[:, c], np.interp(x[:, c], xp[:, c], fp))


def test_inverse_interp_columns_exact_hits_on_steep_segments():
    # a subnormal breakpoint gap makes the slope infinite; np.interp
    # returns fp[j] on an exact hit instead of inf * 0
    xp = np.array([[0.0, 0.0], [5e-324, 0.5], [1.0, 1.0]])
    fp = np.array([0.0, 1.0, 2.0])
    x = np.array([[0.0, 0.0], [5e-324, 0.5], [1.0, 0.25], [2.0, -1.0]])
    with np.errstate(over="ignore", invalid="ignore"):
        out = inverse_interp_columns(x, xp, fp)
    for c in range(2):
        ref = np.interp(x[:, c], xp[:, c], fp)
        assert not np.isnan(ref).any()
        assert _same_floats(out[:, c], ref)


# ---------------------------------------------------------------- holonomy

def _unit_knots(rises):
    """Strictly increasing knots from 0 to 1 exactly, spaced by the rises."""
    knots = np.concatenate([[0.0], np.cumsum(rises) / np.sum(rises)])
    knots[-1] = 1.0
    return knots


def test_merged_grid_drops_near_duplicates_and_keeps_ends():
    a = np.array([0.0, 0.25, 0.5, 1.0 - 1e-13, 1.0])
    b = np.array([0.0, 5e-13, np.nextafter(0.25, 1.0), 0.75, 1.0])
    assert merged_grid(a, b).tolist() == [0.0, 0.25, 0.5, 0.75, 1.0]
    # a looser tolerance drops more, and the last point still wins
    assert merged_grid(a, b, tol=0.3).tolist() == [0.0, 0.5, 1.0]


@st.composite
def holonomy_maps(draw):
    n = draw(st.integers(1, 24))
    rise = st.floats(1e-3, 1.0)
    xs = _unit_knots(draw(st.lists(rise, min_size=n, max_size=n)))
    ys = _unit_knots(draw(st.lists(rise, min_size=n, max_size=n)))
    return HolonomyMap(xs, ys)


@settings(max_examples=100, deadline=None)
@given(holonomy_maps())
def test_holonomy_compose_inverse_round_trips(h):
    assert h.compose(h.inverse()).identity_defect() < 1e-9
    assert h.inverse().compose(h).identity_defect() < 1e-9
    assert h.inverse().inverse().max_difference(h) <= 1e-12


def test_holonomy_horizontal_identity():
    fam = horizontal_family(RECT, 17)
    h = holonomy(fam, (0.0, 0.5), (1.0, 0.5))
    assert h.identity_defect() == 0.0


def test_holonomy_reversed_is_inverse():
    fam = sheared_family(RECT, 0.5, 33)
    h = holonomy(fam, (0.0, 0.25), (1.0, 0.75))
    hr = holonomy(fam, (1.0, 0.75), (0.0, 0.25))
    assert h.compose(hr).identity_defect() < 1e-9
    assert hr.max_difference(h.inverse()) < 1e-9


def test_holonomy_sheared_golden_value():
    fam = sheared_family(RECT, 0.5, 65)
    h = holonomy(fam, (0.0, 0.5), (1.0, 0.5))
    # leaf through z = 1/2 over the far edge has index (3 - sqrt 5)/2,
    # which is exactly its height over the near edge
    assert float(h(0.5)) == pytest.approx(GOLDEN_INDEX, abs=5e-5)


def test_holonomy_functorial():
    fam = sheared_family(RECT, 0.5, 33)
    whole = holonomy(fam, (0.0, 0.2), (1.0, 0.9))
    split = holonomy(fam, (0.0, 0.2), (0.6, 0.5)).compose(
        holonomy(fam, (0.6, 0.5), (1.0, 0.9)))
    assert whole.max_difference(split) < 1e-9


# ---------------------------------------------------------------- partitions

def test_choose_partition_family_level():
    # the call smooth_in_t makes: one unit normal per leaf and base node
    def partition(fam, eps):
        normals = tangent_field(fam).reshape(fam.m, -1, 3)
        return choose_partition(fam.t, normals, eps)

    assert partition(horizontal_family(RECT, 17), 0.01).points == (0.0, 1.0)
    fam = sheared_family(RECT, 0.5, 65)
    assert partition(fam, 0.2).points == (0.0, 1.0)
    part = partition(fam, 0.05)
    assert len(part.points) >= 3


# ---------------------------------------------------------------- paths

@pytest.mark.parametrize("start, end", [((0.0, 0.0), (2.0, 0.5)),
                                        ((-0.1, 0.5), (1.0, 0.5)),
                                        ((0.5, 0.0), (0.5, 1.5))])
def test_holonomy_rejects_endpoints_outside_domain(start, end):
    with pytest.raises(ValueError, match="leaves the base domain"):
        holonomy(horizontal_family(RECT, 9), start, end)
