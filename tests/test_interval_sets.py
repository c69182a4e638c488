
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from karlin_rsm.cli import _set_from_json
from karlin_rsm.interval_sets import (
    CapacityError,
    IntervalSet,
    atomize,
    moebius,
    normalize,
    union_measures,
)

from oracles import grid_bitmap


def test_normalize_merges_overlaps():
    assert normalize([(0.2, 0.5), (0.4, 0.7)]).intervals == ((0.2, 0.7),)


def test_normalize_drops_empty():
    assert normalize([(0.5, 0.5)]).intervals == ()
    assert normalize([(0.7, 0.2)]).intervals == ()


def test_normalize_sorts():
    assert normalize([(0.6, 0.8), (0.1, 0.2)]).intervals == ((0.1, 0.2), (0.6, 0.8))


def test_normalize_idempotent():
    a = normalize([(0.1, 0.3), (0.25, 0.6), (0.8, 0.9)])
    assert normalize(a.intervals).intervals == a.intervals


def test_normalize_rejects_nan():
    with pytest.raises(ValueError):
        normalize([(float("nan"), 0.5)])


def test_carrier_needs_lo_below_hi():
    for carrier in ((1.0, 0.0), (0.5, 0.5), (0.0, float("nan"))):
        with pytest.raises(ValueError, match="carrier"):
            IntervalSet((), carrier)


def test_union_merges_adjacent():
    assert normalize([(0.0, 0.5)]).union(normalize([(0.5, 1.0)])).intervals == ((0.0, 1.0),)


def intersection(a, b):
    """A n B: the atoms of the pair that both sets hold."""
    atoms, owners = atomize([a, b])
    return normalize([atom for atom, owner in zip(atoms, owners) if owner == 0b11], a.carrier)


def test_intersect():
    assert intersection(normalize([(0.0, 0.5)]), normalize([(0.25, 1.0)])).intervals == ((0.25, 0.5),)
    assert intersection(normalize([(0.0, 0.5)]), normalize([])).intervals == ()


def test_carrier_mismatch():
    a = normalize([(0.0, 0.5)])
    b = normalize([(0.0, 0.5)], carrier=(0.0, 2.0))
    with pytest.raises(ValueError):
        a.union(b)


def test_lebesgue():
    assert normalize([(0.2, 0.45)]).lebesgue() == pytest.approx(0.25)
    assert normalize([]).lebesgue() == 0.0
    assert normalize([(0.0, 0.1), (0.9, 1.0)]).lebesgue() == pytest.approx(0.2)


def test_measure_additivity():
    a = normalize([(0.1, 0.4), (0.6, 0.9)])
    b = normalize([(0.3, 0.7)])
    total = a.union(b).lebesgue() + intersection(a, b).lebesgue()
    assert total == pytest.approx(a.lebesgue() + b.lebesgue(), abs=1e-14)


def test_contains_points_half_open():
    a = normalize([(0.2, 0.4), (0.9, 1.0)])
    xs = np.array([0.0, 0.2, 0.3, 0.4, 0.9, 0.95])
    assert a.contains_points(xs).tolist() == [False, True, True, False, True, True]


def test_atomize_example():
    atoms, owners = atomize([normalize([(0.0, 0.6)]), normalize([(0.4, 1.0)])])
    assert (atoms, owners) == ([(0.0, 0.4), (0.4, 0.6), (0.6, 1.0)], [0b01, 0b11, 0b10])


def test_atomize_single_and_disjoint():
    atoms, owners = atomize([normalize([(0.1, 0.5)])])
    assert len(atoms) == 1 and owners == [0b1]
    atoms, owners = atomize([normalize([(0.0, 0.2)]), normalize([(0.5, 0.8)])])
    assert len(atoms) == 2
    assert owners == [0b01, 0b10]


def test_atomize_reunion_exact():
    fam = [
        normalize([(0.05, 0.35), (0.5, 0.8)]),
        normalize([(0.2, 0.6)]),
        normalize([(0.55, 0.95)]),
    ]
    atoms, owners = atomize(fam)
    for i, s in enumerate(fam):
        parts = [a for a, owner in zip(atoms, owners) if owner >> i & 1]
        assert normalize(parts).intervals == s.intervals


def test_atomize_any_number_of_intervals():
    # 64 intervals, 32 of them inside [1/4, 3/4), which adds the 32 gaps after them: 96 atoms,
    # and owner masks of two bits however many atoms there are
    comb = normalize([(i / 128, i / 128 + 0.004) for i in range(0, 128, 2)])
    atoms, owners = atomize([comb, normalize([(0.25, 0.75)])])
    assert len(atoms) == 96 and [owners.count(owner) for owner in (0b01, 0b10, 0b11)] == [32, 32, 32]


def test_union_measures_adds_pieces_left_to_right():
    atoms, owners = atomize([normalize([(0.0, 0.6)]), normalize([(0.4, 1.0)])])
    a, ab, b = (hi - lo for lo, hi in atoms)
    assert union_measures(atoms, owners, 2).tolist() == [0.0, a + ab, ab + b, a + ab + b]
    assert union_measures([(3.0, 7.0)], [0b10], 2).tolist() == [0.0, 0.0, 4.0, 4.0]


def test_moebius_inverts_a_union_functional_exactly():
    # f of unions of the disjoint sets {a, b}: the share on exactly {a}, {b} and both
    f = np.array([0.0, 0.25, 0.5, 0.75]) ** 0.5
    p = moebius(f)
    assert p[1] == pytest.approx(f[3] - f[2]) and p[2] == pytest.approx(f[3] - f[1])
    assert p[3] == pytest.approx(f[1] + f[2] - f[3])
    # a measure of 1e-300 beside one of 1/2 keeps its rate: no cancellation in float
    tiny = moebius(np.array([0.0, 1e-300, 0.5, 0.5 + 1e-300]) ** 0.5)
    assert tiny[1] == pytest.approx(1e-150)


def test_atomize_atom_budget_bound():
    # d single intervals produce at most 2d - 1 atoms
    rng = np.random.default_rng(5)
    for _ in range(50):
        d = int(rng.integers(1, 8))
        fam = []
        for _ in range(d):
            w = rng.uniform(0.05, 0.5)
            lo = rng.uniform(0, 1 - w)
            fam.append(normalize([(lo, lo + w)]))
        atoms, _ = atomize(fam)
        assert len(atoms) <= 2 * d - 1


def test_atomize_capacity():
    fam = [normalize([(i / 50, i / 50 + 0.005)]) for i in range(21)]
    with pytest.raises(CapacityError):
        atomize(fam)


def test_json_round_trip():
    a = normalize([(0.1, 0.2), (0.5, 0.8)], carrier=(0.0, 2.0))
    assert _set_from_json({"carrier": [0.0, 2.0], "intervals": [[0.1, 0.2], [0.5, 0.8]]}, "set") == a
    with pytest.raises(ValueError, match=r"^set\.intervals: missing"):
        _set_from_json({"carrier": [0, 1]}, "set")


@st.composite
def interval_sets(draw):
    k = draw(st.integers(min_value=0, max_value=4))
    pairs = []
    for _ in range(k):
        lo = draw(st.floats(min_value=0.0, max_value=0.99))
        hi = draw(st.floats(min_value=lo, max_value=1.0))
        pairs.append((round(lo, 4), round(hi, 4)))  # align to the bitmap grid
    return normalize(pairs)


@given(st.lists(interval_sets(), min_size=1, max_size=5))
@settings(max_examples=200)
def test_atomize_against_bitmap_oracle(family):
    # sorted and disjoint atoms, each inside some set, and every set their union
    atoms, owners = atomize(family)
    flat = [v for atom in atoms for v in atom]
    assert all(lo < hi for lo, hi in atoms) and flat == sorted(flat)
    assert len(owners) == len(atoms) and all(0 < owner < 1 << len(family) for owner in owners)
    for i, s in enumerate(family):
        parts = [atom for atom, owner in zip(atoms, owners) if owner >> i & 1]
        assert np.array_equal(grid_bitmap(s.intervals), grid_bitmap(parts))


@given(interval_sets(), interval_sets())
@settings(max_examples=200)
def test_union_commutes(a, b):
    assert a.union(b) == b.union(a)


@given(interval_sets(), interval_sets(), interval_sets())
@settings(max_examples=200)
def test_union_associative(a, b, c):
    assert a.union(b).union(c) == a.union(b.union(c))


def test_algebra_against_bitmap_oracle():
    # randomized algebra, endpoints on the 1e-4 grid so midpoints decide exactly
    rng = np.random.default_rng(101)
    cells = 10 ** 4
    for _ in range(10 ** 4):
        raw_a = [tuple(sorted(np.round(rng.uniform(0, 1, 2), 4))) for _ in range(rng.integers(0, 4))]
        raw_b = [tuple(sorted(np.round(rng.uniform(0, 1, 2), 4))) for _ in range(rng.integers(0, 4))]
        a, b = normalize(raw_a), normalize(raw_b)
        bm_a, bm_b = grid_bitmap(a.intervals, cells), grid_bitmap(b.intervals, cells)
        assert np.array_equal(grid_bitmap(a.union(b).intervals, cells), bm_a | bm_b)
        assert np.array_equal(grid_bitmap(intersection(a, b).intervals, cells), bm_a & bm_b)
        assert abs(a.lebesgue() - bm_a.mean()) < 1e-12


GRID_SIZES = (1, 3, 7, 10007, 10 ** 5)


@st.composite
def grid_sets(draw):
    """A grid size n and a set whose endpoints sit at, or one ulp beside, points j/n."""
    n = draw(st.sampled_from(GRID_SIZES))
    points = []
    for _ in range(draw(st.integers(min_value=1, max_value=6))):
        kind = draw(st.sampled_from(["grid", "free"]))
        if kind == "free":
            points.append(draw(st.floats(min_value=-0.5, max_value=1.5)))
            continue
        x = draw(st.integers(min_value=0, max_value=n)) / n
        points.append(float(np.nextafter(x, draw(st.sampled_from([-np.inf, x, np.inf])))))
    points.sort()
    carrier = (-0.5, 1.5)
    return n, normalize(list(zip(points[::2], points[1::2])), carrier=carrier)


def _range_mask(ranges, n):
    mask = np.zeros(n, dtype=bool)
    for lo, hi in ranges:
        assert 0 <= lo < hi <= n
        mask[lo:hi] = True
    return mask


@settings(max_examples=300, deadline=None)
@given(grid_sets())
def test_grid_ranges_equal_point_membership(case):
    n, a = case
    ranges = a.grid_ranges(n)
    assert np.array_equal(_range_mask(ranges, n), a.contains_points(np.arange(n) / n))
    assert all(prev[1] <= nxt[0] for prev, nxt in zip(ranges, ranges[1:]))


@pytest.mark.parametrize("n", GRID_SIZES)
def test_grid_ranges_at_every_boundary(n):
    grid = np.arange(n) / n
    carrier = (-1.0, 2.0)
    for j in sorted({0, 1, n // 3, n // 2, n - 1, n}):
        x = j / n
        for lo in (float(np.nextafter(x, -1.0)), x, float(np.nextafter(x, 2.0))):
            for a in (normalize([(lo, 2.0)], carrier), normalize([(-1.0, lo)], carrier),
                      normalize([(-1.0, lo / 2), (lo, 2.0)], carrier)):
                assert np.array_equal(_range_mask(a.grid_ranges(n), n), a.contains_points(grid))
