import json
import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from flowbox.foliation import (
    BaseDomain,
    horizontal_family,
    sheared_family,
    tangent_field,
)
from flowbox.kernel import (
    MAX_RETRIES,
    InsertionSchedule,
    LadderError,
    Partition,
    _min_dots,
    build_collapse,
    choose_partition,
    halving_ladder,
    smooth_ramp,
    stage,
)

from test_foliation import long_leaf_families


# ---------------------------------------------------------------- oracles

def finite_difference_at_zero(f, order, h):
    """Forward-difference derivative estimate of order `order`, step h."""
    acc = 0.0
    for j in range(order + 1):
        acc += (-1.0) ** (order - j) * math.comb(order, j) * float(f(j * h))
    return acc / h**order


def collapse_by_hand(points, weights, x):
    """Direct evaluation of the scale-then-collapse composite for one x."""
    w = sum(weights)
    s = (1.0 + w) * x
    shift = 0.0
    for z, wi in zip(points, weights):
        lo = z + shift
        if s < lo:
            break
        if s <= lo + wi:
            return z
        shift += wi
    return s - shift


def max_pairwise_angle(normals):
    """Brute-force pairwise angle sweep over a (k, P, 3) block."""
    worst = 0.0
    k = normals.shape[0]
    for a in range(k):
        for b in range(a + 1, k):
            dots = np.sum(normals[a] * normals[b], axis=-1)
            ang = np.arccos(np.clip(dots, -1.0, 1.0)).max()
            worst = max(worst, float(ang))
    return worst


def choose_partition_fixed_blocks(t_samples, normals, epsilon: float) -> Partition:
    """Greedy partition of the leaf-index interval.

    Each cell is the longest run of sampled leaves whose unit normals stay
    pairwise within epsilon in angle at every base sample; cut points are
    taken from t_samples.  Greedy left-to-right maximal steps, so ties go to
    larger cells.

    t_samples: (m,) increasing with t[0] = 0, t[-1] = 1.
    normals:   (m, P, 3) unit leaf normals at P base samples.
    """
    t = np.asarray(t_samples, dtype=float)
    nrm = np.asarray(normals, dtype=float)
    if epsilon <= 0.0:
        raise ValueError("epsilon must be positive")
    if nrm.ndim != 3 or nrm.shape[0] != t.size or nrm.shape[2] != 3:
        raise ValueError("normals must have shape (len(t), P, 3)")
    # pairwise angle <= eps  <=>  dot >= cos(eps) for unit vectors
    cos_floor = math.cos(min(epsilon, math.pi))
    m = t.size
    cuts = [0]
    i = 0
    while i < m - 1:
        j = i
        while j < m - 1:
            # candidates j+1 .. j+span checked in one batch; candidate q is
            # admissible iff every leaf from i up to it stays within eps of it,
            # so the first failure ends the greedy run exactly as a
            # one-at-a-time scan would
            span = min(m - 1 - j, 64)
            rows = nrm[i:j + span]
            cands = nrm[j + 1:j + 1 + span]
            mins = _min_dots(rows, cands)
            pref = np.minimum.accumulate(mins, axis=0)
            qs = np.arange(span)
            ok = pref[j - i + qs, qs] >= cos_floor
            good = int(np.argmin(ok)) if not ok.all() else span
            j += good
            if good < span:
                break
        if j == i:
            raise ValueError(
                f"adjacent sampled leaves exceed epsilon={epsilon} near "
                f"t={t[i]:.6g}; grid too coarse for this bound")
        cuts.append(j)
        i = j
    return Partition(tuple(float(t[k]) for k in cuts))


def shear_normals(t_grid, coeff=0.5, samples=9):
    """Unit normals of f_t(x, y) = t + coeff*t*(1-t)*x: slope coeff*t*(1-t)
    in x, zero in y, constant across the base."""
    g = coeff * t_grid * (1.0 - t_grid)
    n = np.stack([-g, np.zeros_like(g), np.ones_like(g)], axis=-1)
    n /= np.linalg.norm(n, axis=-1, keepdims=True)
    return np.repeat(n[:, None, :], samples, axis=1)


# ---------------------------------------------------------------- damping

def test_damping_endpoints_and_midpoint():
    assert float(smooth_ramp(0.0)) == 0.0
    assert float(smooth_ramp(1.0)) == 1.0
    assert float(smooth_ramp(0.5)) == 0.5


def test_damping_flat_to_third_order():
    # every finite-difference derivative up to order 3 at both endpoints,
    # at the 1/256 step the smoothing resolves
    for order in (1, 2, 3):
        d = finite_difference_at_zero(smooth_ramp, order, 1.0 / 256)
        assert abs(d) < 1e-9
        d1 = finite_difference_at_zero(lambda u: smooth_ramp(1.0 - u), order,
                                       1.0 / 256)
        assert abs(d1) < 1e-9


def test_damping_monotone_and_in_range():
    v = smooth_ramp(np.linspace(0.0, 1.0, 257))
    assert v[0] == 0.0 and v[-1] == 1.0
    assert np.all(np.diff(v) >= 0)
    # strict increase wherever the quotient has not saturated in float
    interior = (v[:-1] > 0.0) & (v[1:] < 1.0)
    assert np.all(np.diff(v)[interior] > 0)
    assert v.min() >= 0.0 and v.max() <= 1.0


def test_ramp_outside_unit_interval():
    assert float(smooth_ramp(-0.5)) == 0.0
    assert float(smooth_ramp(1.5)) == 1.0


def _ulp_neighbours(x, n=4):
    """x and the n floats on either side of it."""
    out, lo, hi = [x], x, x
    for _ in range(n):
        lo, hi = math.nextafter(lo, -math.inf), math.nextafter(hi, math.inf)
        out += [lo, hi]
    return out


RAMP_EDGE_POINTS = ([0.5, 5e-324, -5e-324, 2.2250738585072014e-308 / 3,
                     1.0 - 5e-324] + _ulp_neighbours(0.0)
                    + _ulp_neighbours(1.0))


@settings(max_examples=100, deadline=None)
@given(st.lists(st.floats(-0.5, 1.5), max_size=300))
def test_smooth_ramp_array_matches_scalar(drawn):
    # the per-cell smoothing evaluates the ramp on arrays of every length
    # and relies on each element having the bits of a scalar call
    xs = np.array(RAMP_EDGE_POINTS + drawn)
    scalar = np.array([float(smooth_ramp(x)) for x in xs])
    assert smooth_ramp(xs).tobytes() == scalar.tobytes()


# ---------------------------------------------------------------- partition type

def test_partition_validation():
    p = Partition((0.0, 0.25, 1.0))
    assert p.points == (0.0, 0.25, 1.0)
    with pytest.raises(ValueError):
        Partition((0.0, 0.5))
    with pytest.raises(ValueError):
        Partition((0.0, 0.5, 0.5, 1.0))
    with pytest.raises(ValueError):
        Partition((0.1, 1.0))


# ---------------------------------------------------------------- schedules

def test_schedule_validation():
    s = InsertionSchedule((0.25, 0.5), (1.0, 2.0))
    assert s.total_weight == 3.0
    with pytest.raises(ValueError):
        InsertionSchedule((0.5, 0.25), (1.0, 1.0))
    with pytest.raises(ValueError):
        InsertionSchedule((0.0,), (1.0,))
    with pytest.raises(ValueError):
        InsertionSchedule((0.5,), (-1.0,))
    with pytest.raises(ValueError):
        InsertionSchedule((0.5,), ())


def test_schedule_json_round_trip():
    s = InsertionSchedule((1 / 3, 2 / 3), (0.125, 0.7))
    data = json.loads(json.dumps(s.to_json()))
    assert InsertionSchedule(tuple(data["points"]),
                             tuple(data["weights"])) == s


# ---------------------------------------------------------------- collapse maps

def test_collapse_single_entry_by_hand():
    p = build_collapse(InsertionSchedule((0.5,), (1.0,)))
    (lo, hi, val) = p.plateaus[0]
    assert (lo, hi, val) == pytest.approx((0.25, 0.75, 0.5), abs=1e-15)
    assert float(p(0.1)) == pytest.approx(0.2, abs=1e-12)
    assert float(p(0.5)) == pytest.approx(0.5, abs=1e-12)
    assert float(p(0.9)) == pytest.approx(0.8, abs=1e-12)


def test_collapse_empty_schedule_is_identity():
    p = build_collapse(InsertionSchedule((), ()))
    x = np.linspace(0, 1, 17)
    np.testing.assert_allclose(p(x), x, atol=0)
    assert p.preimage(0.3) == pytest.approx(0.3)


def test_collapse_two_entry_widths():
    p = build_collapse(InsertionSchedule((1 / 3, 2 / 3), (1.0, 1.0)))
    (a, b, va), (c, d, vb) = p.plateaus
    assert (a, b) == pytest.approx((1 / 9, 4 / 9), abs=1e-12)
    assert (c, d) == pytest.approx((5 / 9, 8 / 9), abs=1e-12)
    assert b - a == pytest.approx(1 / 3, abs=1e-12)
    assert d - c == pytest.approx(1 / 3, abs=1e-12)
    assert (va, vb) == (1 / 3, 2 / 3)


def test_collapse_matches_hand_evaluation_on_grid():
    points, weights = (0.2, 0.5, 0.8), (0.4, 1.0, 0.1)
    p = build_collapse(InsertionSchedule(points, weights))
    for x in np.linspace(0, 1, 101):
        assert float(p(x)) == pytest.approx(
            collapse_by_hand(points, weights, float(x)), abs=1e-12)


def test_collapse_preimage_cases():
    p = build_collapse(InsertionSchedule((0.5,), (1.0,)))
    assert p.preimage(0.5) == pytest.approx((0.25, 0.75))
    assert p.preimage(0.1) == pytest.approx(0.05, abs=1e-12)
    assert p.preimage(0.0) == pytest.approx(0.0)
    assert p.preimage(1.0) == pytest.approx(1.0)


schedules = st.integers(1, 20).flatmap(lambda n: st.tuples(
    st.lists(st.floats(0.01, 0.99), min_size=n, max_size=n, unique=True),
    st.lists(st.floats(0.01, 4.0), min_size=n, max_size=n)))


@settings(max_examples=150, deadline=None)
@given(schedules)
def test_collapse_properties_random(entry):
    zs, ws = sorted(entry[0]), entry[1]
    assume(len(zs) < 2 or min(b - a for a, b in zip(zs, zs[1:])) > 1e-6)
    schedule = InsertionSchedule(tuple(zs), tuple(ws))
    p = build_collapse(schedule)
    w = schedule.total_weight
    # width of every plateau is w_i/(1+w)
    for (lo, hi, z), wi in zip(p.plateaus, ws):
        assert abs((hi - lo) - wi / (1.0 + w)) <= 1e-12
    # total collapsed length
    assert abs(sum(hi - lo for lo, hi, _ in p.plateaus)
               - w / (1.0 + w)) <= 1e-9
    # p composed with the complement re-embedding is the identity
    y = np.linspace(0, 1, 257)
    np.testing.assert_allclose(p(p.complement_embedding(y)), y, atol=1e-12)
    # weak monotonicity on a fine grid
    vals = p(np.linspace(0, 1, 513))
    assert np.all(np.diff(vals) >= -1e-15)
    assert vals[0] == 0.0 and vals[-1] == 1.0


# ---------------------------------------------------------------- partitions

def test_partition_horizontal_single_cell():
    t = np.linspace(0, 1, 33)
    normals = np.zeros((33, 9, 3))
    normals[..., 2] = 1.0
    assert choose_partition(t, normals, 0.01).points == (0.0, 1.0)


def test_partition_sheared_family_loose_bound():
    t = np.linspace(0, 1, 65)
    normals = shear_normals(t)
    # max tangent angle atan(0.125) ~ 0.1244 < 0.2
    assert max_pairwise_angle(normals) == pytest.approx(math.atan(0.125), abs=1e-12)
    assert choose_partition(t, normals, 0.2).points == (0.0, 1.0)


def test_partition_sheared_family_tight_bound():
    t = np.linspace(0, 1, 65)
    normals = shear_normals(t)
    part = choose_partition(t, normals, 0.05)
    assert len(part.points) >= 3
    # exhaustive recheck of every cell at grid resolution
    idx = np.searchsorted(t, np.array(part.points))
    for a, b in zip(idx, idx[1:]):
        assert max_pairwise_angle(normals[a:b + 1]) <= 0.05


def test_partition_greedy_is_maximal():
    t = np.linspace(0, 1, 65)
    normals = shear_normals(t)
    part = choose_partition(t, normals, 0.05)
    idx = np.searchsorted(t, np.array(part.points))
    # extending any interior cell by one sample must break the bound
    for a, b in zip(idx, idx[1:]):
        if b < 64:
            assert max_pairwise_angle(normals[a:b + 2]) > 0.05


def test_partition_too_coarse_raises():
    t = np.array([0.0, 0.5, 1.0])
    normals = np.zeros((3, 4, 3))
    normals[..., 2] = 1.0
    tilt = np.array([-math.sin(0.5), 0.0, math.cos(0.5)])
    normals[1] = tilt
    with pytest.raises(ValueError):
        choose_partition(t, normals, 0.01)


def _partition_or_error(fn, t, normals, epsilon):
    try:
        return fn(t, normals, epsilon).points
    except ValueError as exc:
        return str(exc)


def _family_normals(family):
    return family.t, tangent_field(family).reshape(family.m, -1, 3)


@st.composite
def wandering_normals(draw):
    """Unit normals at 1 to 16 base samples whose tilt takes a random walk in
    the leaf index, so the widest pair of a cell need not include its first
    leaf (for t + amp*t(1-t)*psi families it always does until t = 1/2)."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    m = draw(st.integers(3, 260))
    step = draw(st.floats(1e-4, 0.05))
    tilt = np.cumsum(rng.normal(0.0, step, (m, draw(st.integers(1, 16)), 2)),
                     axis=0)
    n = np.concatenate([-tilt, np.ones(tilt.shape[:2] + (1,))], axis=-1)
    return np.linspace(0.0, 1.0, m), n / np.linalg.norm(n, axis=-1,
                                                        keepdims=True)


@settings(max_examples=120, deadline=None)
@given(st.one_of(long_leaf_families().map(_family_normals),
                 wandering_normals()),
       st.floats(0.002, 0.5))
@example(_family_normals(horizontal_family(BaseDomain("rectangle", 9, 8),
                                           260)), 0.002)
@example(_family_normals(sheared_family(BaseDomain("rectangle", 9, 9), 0.3,
                                        260)), 0.5)
def test_choose_partition_matches_fixed_block_oracle(samples, epsilon):
    t, normals = samples
    assert (_partition_or_error(choose_partition, t, normals, epsilon)
            == _partition_or_error(choose_partition_fixed_blocks, t, normals,
                                   epsilon))


# ------------------------------------------------------ ladder and recorder

def scripted_attempt(distances, bound):
    """An attempt that reads its distances off a list and passes at or
    below bound; the scales it was called with are kept on it."""
    scales = []

    def attempt(scale):
        d = distances[len(scales)]
        scales.append(scale)
        return f"result {d}", d <= bound, {"achieved_distance": d,
                                           "extra": scale}

    attempt.scales = scales
    return attempt


def test_ladder_halves_the_scale_from_one():
    attempt = scripted_attempt([9.0] * (MAX_RETRIES + 1), 1.0)
    with pytest.raises(LadderError):
        halving_ladder(attempt, None, "missed")
    assert attempt.scales == [0.5 ** k for k in range(MAX_RETRIES + 1)]
    assert attempt.scales[:3] == [1.0, 0.5, 0.25]


def test_ladder_returns_the_first_passing_attempt():
    attempt = scripted_attempt([0.4, 0.3, 0.05, 0.01], 0.1)
    report = {}
    assert halving_ladder(attempt, report, "missed") \
        == "result 0.05"
    assert attempt.scales == [1.0, 0.5, 0.25]
    assert report == {"achieved_distance": 0.05, "extra": 0.25,
                      "retries": 2, "attempt_distances": [0.4, 0.3, 0.05]}


def test_ladder_raises_with_the_best_distance():
    distances = [0.5, 0.2, 0.3, 0.25, 0.4, 0.35]
    assert len(distances) == MAX_RETRIES + 1
    report = {}
    with pytest.raises(LadderError) as err:
        halving_ladder(scripted_attempt(distances, 0.1), report,
                       "missed eps=0.1 after {retries} retries")
    assert err.value.achieved == 0.2
    assert str(err.value) == (
        f"missed eps=0.1 after {MAX_RETRIES} retries (best 0.2)")
    assert report["retries"] == MAX_RETRIES
    assert report["attempt_distances"] == distances


def test_ladder_without_report_writes_nothing():
    fields = []

    def attempt(scale):
        row = {"achieved_distance": scale}
        fields.append(row)
        return None, scale < 0.3, row

    halving_ladder(attempt, None, "missed")
    assert fields == [{"achieved_distance": 1.0}, {"achieved_distance": 0.5},
                      {"achieved_distance": 0.25}]


def test_stage_appends_its_row_on_entry():
    rows = [{"stage": "earlier"}]
    with stage(rows, "next") as row:
        assert rows[-1] is row
        assert row == {"stage": "next"}
        row["defect"] = 0.5
    assert rows == [{"stage": "earlier"}, {"stage": "next", "defect": 0.5}]


@pytest.mark.parametrize("kind", [RuntimeError, ValueError, LadderError])
def test_stage_names_itself_on_pipeline_errors(kind):
    rows = []
    with pytest.raises(kind) as err:
        with stage(rows, "gluing"):
            raise kind("boom")
    assert err.value.stage == "gluing"
    assert rows == [{"stage": "gluing"}]


def test_stage_leaves_other_errors_untagged():
    with pytest.raises(KeyError) as err:
        with stage([], "gluing"):
            raise KeyError("boom")
    assert not hasattr(err.value, "stage")
