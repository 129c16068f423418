import csv
import tracemalloc
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from arraycode import analysis as an
from arraycode.codes import family_spec
from arraycode.core import ParameterError, ParityGroupId, is_prime
from test_core import group_members


def _primes(lo, hi):
    return [p for p in range(lo, hi + 1) if is_prime(p)]


# -- references: the loop and set versions of the counting oracles ------------

def _ref_common_block_oracle(p, partition, classes):
    """Intersect each class's covered Coord set over columns 2..p."""
    covered = []
    for v in classes:
        cells = set()
        for m in partition[v]:
            for c in group_members(p, ParityGroupId(v, m)):
                if c.col != 1:
                    cells.add(c)
        covered.append(cells)
    common = covered[0]
    for cells in covered[1:]:
        common &= cells
    return len(common)


def _ref_exact_union_bandwidth(p, r, partition):
    slope_sets = [frozenset(cls) for cls in partition]
    raw = 0
    for row in range(1, p):
        for col in range(2, p + 1):
            if any((row + (col - 1) * v) % p in slope_sets[v] for v in range(r)):
                raw += 1
    return raw + (p - 1) + r


def _ref_covered_imaginary_cells(p, r, partition):
    return sum(1 for col in range(2, p + 1)
               if any(((col - 1) * v) % p in partition[v] for v in range(r)))


def _ref_brute_force_min_single(p):
    """Every flat/sloped row assignment, its union measured as an int bitset."""
    width = p - 1

    def bit(row, col):
        return 1 << ((row - 1) * width + (col - 2))

    flat_mask = []
    sloped_mask = []
    for row in range(1, p):
        fm = 0
        for col in range(2, p + 1):
            fm |= bit(row, col)
        flat_mask.append(fm)
        sm = 0
        for c in group_members(p, ParityGroupId(1, row)):
            if c.col != 1 and c.row != p:
                sm |= bit(c.row, c.col)
        sloped_mask.append(sm)
    best = None
    best_x = set()
    for sigma in range(1 << width):
        union = 0
        x = 0
        for i in range(width):
            if sigma >> i & 1:
                union |= flat_mask[i]
                x += 1
            else:
                union |= sloped_mask[i]
        gamma = union.bit_count() + (p - 1) + 2
        if best is None or gamma < best:
            best = gamma
            best_x = {x}
        elif gamma == best:
            best_x.add(x)
    return best, frozenset(best_x)


def _any_partition(data, primes):
    """A drawn prime p, class count r and partition of rows 1..p-1 into r
    classes, some possibly empty."""
    p = data.draw(st.sampled_from(primes))
    r = data.draw(st.integers(2, 5))
    owner = data.draw(st.lists(st.integers(0, r - 1), min_size=p - 1, max_size=p - 1))
    return p, r, tuple(frozenset(m for m, v in zip(range(1, p), owner) if v == u)
                       for u in range(r))


def test_evenodd_bandwidth_frozen_p5():
    assert [an.evenodd_bandwidth(5, x) for x in range(5)] == [18, 16, 16, 18, 22]


def test_evenodd_min_values():
    assert [an.evenodd_min_bandwidth(p) for p in (3, 5, 7, 11, 13)] == \
        [6, 16, 32, 82, 116]


def test_evenodd_min_is_min_over_x():
    for p in (3, 5, 7, 11, 13):
        assert min(an.evenodd_bandwidth(p, x) for x in range(p)) == \
            an.evenodd_min_bandwidth(p)
        assert {x for x in range(p)
                if an.evenodd_bandwidth(p, x) == an.evenodd_min_bandwidth(p)} \
            == set(an.evenodd_optimal_x(p))


def test_bandwidth_x_out_of_range():
    with pytest.raises(ParameterError):
        an.evenodd_bandwidth(5, 5)


def test_rdp_values():
    assert [an.rdp_bandwidth(p) for p in (3, 5, 7, 11)] == [3, 12, 27, 75]


def test_xcode_bound_values():
    assert [an.xcode_bandwidth_bound(p) for p in (5, 7, 11, 13)] == \
        [17, 34, 86, 121]


def test_star_saving_values():
    assert [an.star_symmetry_saving(p) for p in (5, 7, 11, 13)] == \
        [2, 4, 12, 18]


def test_star_double_bandwidth_p5():
    assert an.star_double_bandwidth(5) == 18


def test_cutset_values():
    assert an.cutset_bound(20, 5, 6) == 12
    assert an.cutset_bound(31 * 30, 31, 32) == Fraction(961 - 1, 2)
    with pytest.raises(ParameterError):
        an.cutset_bound(20, 5, 4)


def test_cutset_is_exact_fraction():
    got = an.cutset_bound(42, 7, 8)
    assert isinstance(got, Fraction)
    assert got == Fraction(42 * 8, 7 * 2)


# -- partitions and f counts -------------------------------------------------

def test_default_partition_frozen():
    assert an.default_partition(5, 2) == (frozenset({2, 4}), frozenset({1, 3}))
    assert an.default_partition(7, 3) == (
        frozenset({3, 6}), frozenset({1, 4}), frozenset({2, 5}))


def test_validate_partition_errors():
    with pytest.raises(ParameterError):
        an.validate_partition(5, 3, (frozenset({1, 2}), frozenset({3, 4})))
    with pytest.raises(ParameterError):
        an.validate_partition(5, 2, (frozenset({1, 2}), frozenset({2, 3, 4})))
    with pytest.raises(ParameterError):
        an.validate_partition(5, 2, (frozenset({1, 2}), frozenset({3})))
    with pytest.raises(ParameterError):
        an.validate_partition(5, 2, (frozenset({1, 2, 5}), frozenset({3, 4})))


def test_common_blocks_match_enumeration():
    """Arithmetic pair/triple/... counts equal brute set intersection."""
    for p in (5, 7, 11, 13):
        for r in (3, 4, 5):
            if r >= p:
                continue
            part = an.default_partition(p, r)
            for size in range(2, r + 1):
                for classes in combinations(range(r), size):
                    assert (an.common_block_count(p, part, classes)
                            == an.common_block_oracle(p, part, classes)), \
                        (p, r, classes)


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_common_blocks_match_enumeration_on_any_partition(data):
    """The same agreement for any partition and any order of the classes,
    up to the p of the benchmark's f-check oracle."""
    p, r, part = _any_partition(data, [5, 7, 11, 13, 31, 53])
    classes = data.draw(st.lists(st.integers(0, r - 1), min_size=2, max_size=r, unique=True))
    assert (an.common_block_count(p, part, classes)
            == an.common_block_oracle(p, part, classes)
            == _ref_common_block_oracle(p, part, classes)), (p, part, classes)


def test_common_block_oracle_matches_set_reference():
    for p in _primes(3, 53):
        for r in (3, 4, 5):
            if r >= p:
                continue
            part = an.default_partition(p, r)
            for size in range(2, r + 1):
                for classes in combinations(range(r), size):
                    assert (an.common_block_oracle(p, part, classes)
                            == _ref_common_block_oracle(p, part, classes)), (p, r, classes)


def test_common_block_oracle_errors():
    part = an.default_partition(7, 3)
    with pytest.raises(ParameterError):
        an.common_block_oracle(9, an.default_partition(9, 3), (0, 1))
    with pytest.raises(ParameterError):
        an.common_block_oracle(7, (*part[:2], frozenset({7})), (0, 2))
    with pytest.raises(ParameterError):  # slope 5 at p=5
        an.common_block_oracle(5, (frozenset({2, 3, 4}), *[frozenset()] * 4, frozenset({1})),
                               (0, 5))


def test_common_blocks_pairs_are_products():
    for p in (7, 13):
        part = an.default_partition(p, 3)
        for u, v in combinations(range(3), 2):
            assert an.common_block_count(p, part, (u, v)) == \
                len(part[u]) * len(part[v])


def test_common_blocks_needs_two_classes():
    with pytest.raises(ParameterError):
        an.common_block_count(5, an.default_partition(5, 3), (1,))


def test_union_counts_p7_frozen():
    assert an.exact_union_bandwidth(7, 3) == 32
    assert an.inclusion_exclusion_bound(7, 3) == 42
    assert _ref_covered_imaginary_cells(7, 3, an.default_partition(7, 3)) == 3


def test_inclusion_exclusion_slack_is_imaginary_overhead():
    """The alternating-sum value counts p phantom parity-column cells plus
    every covered imaginary cell; nothing else separates it from the
    exact union."""
    for p in (5, 7, 11, 13, 17):
        for r in (2, 3, 4, 5):
            if r >= p:
                continue
            exact = an.exact_union_bandwidth(p, r)
            bound = an.inclusion_exclusion_bound(p, r)
            assert bound >= exact
            covered = _ref_covered_imaginary_cells(p, r, an.default_partition(p, r))
            assert bound - exact == p + covered


def test_union_counts_match_loop_reference():
    for p in _primes(5, 101):
        for r in (2, 3, 4, 5):
            if r >= p:
                continue
            part = an.default_partition(p, r)
            assert (an.exact_union_bandwidth(p, r)
                    == _ref_exact_union_bandwidth(p, r, part)), (p, r)


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_union_counts_match_loop_reference_on_any_partition(data):
    p, r, part = _any_partition(data, [5, 7, 11, 13, 31, 53])
    assert (an.exact_union_bandwidth(p, r, part)
            == _ref_exact_union_bandwidth(p, r, part)), (p, part)


def test_transfer_inequality():
    """The docstring's claim, at every prime from 13 to 101."""
    for p in _primes(13, 101):
        assert an.transfer_inequality_holds(p), p


# -- brute force -------------------------------------------------------------

def test_brute_force_agrees_with_closed_form():
    for p in _primes(3, 23):
        minimum, best_x = an.brute_force_min_single(p)
        assert minimum == an.evenodd_min_bandwidth(p), p
        assert best_x == an.evenodd_optimal_x(p), p


def test_brute_force_matches_loop_reference():
    """Minimum and argmin set, against the bitset loop over every assignment."""
    for p in _primes(3, 17):
        assert an.brute_force_min_single(p) == _ref_brute_force_min_single(p), p


def test_brute_force_memory_is_bounded():
    """The two half tables are combined a block at a time: at p=23 the
    2^22 assignments would take about 34 MB as one int64 table."""
    tracemalloc.start()
    try:
        an.brute_force_min_single(23)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4_000_000, peak


def test_brute_force_rejects_composite():
    with pytest.raises(ParameterError):
        an.brute_force_min_single(9)
    with pytest.raises(ParameterError):
        an.brute_force_min_single(2)


# -- reports -----------------------------------------------------------------

def test_closed_form_bound_dispatch():
    assert family_spec("evenodd").closed_form(5, 2) == 16
    assert family_spec("rdp").closed_form(5, 2) == 12
    assert family_spec("xcode").closed_form(5, 2) == 17
    assert family_spec("star").closed_form(5, 3) == 18
    with pytest.raises(ParameterError):
        family_spec("nope").closed_form(5, 2)


def test_sweep_and_csv(tmp_path):
    reports = an.bandwidth_sweep("evenodd", [3, 5, 7])
    assert [r.gamma for r in reports] == [6, 16, 32]
    assert all(r.gamma <= r.naive for r in reports)
    path = tmp_path / "sweep.csv"
    an.write_report_csv(reports, path)
    with open(path) as fh:
        rows = list(csv.DictReader(fh))
    assert [int(r["gamma_blocks"]) for r in rows] == [6, 16, 32]
    assert float(rows[1]["cutset_blocks"]) == 12.0


def test_sweep_star_uses_double_erasure():
    (report,) = an.bandwidth_sweep("star", [5])
    assert report.erased == (1, 2)
    assert report.gamma == 18
