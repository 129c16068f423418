import csv
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from arraycode import analysis as an
from arraycode.codes import family_spec
from arraycode.core import ParameterError


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
    p = data.draw(st.sampled_from([5, 7, 11, 13, 31, 53]))
    r = data.draw(st.integers(2, 5))
    owner = data.draw(st.lists(st.integers(0, r - 1), min_size=p - 1, max_size=p - 1))
    part = tuple(frozenset(m for m, v in zip(range(1, p), owner) if v == u) for u in range(r))
    classes = data.draw(st.lists(st.integers(0, r - 1), min_size=2, max_size=r, unique=True))
    assert (an.common_block_count(p, part, classes)
            == an.common_block_oracle(p, part, classes)), (p, part, classes)


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
    assert an.covered_imaginary_cells(7, 3) == 3


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
            assert bound - exact == p + an.covered_imaginary_cells(p, r)


def test_transfer_inequality():
    for p in (13, 17, 19, 23, 29, 31):
        assert an.transfer_inequality_holds(p)


# -- brute force -------------------------------------------------------------

def test_brute_force_agrees_with_closed_form():
    for p in (3, 5, 7):
        minimum, best_x = an.brute_force_min_single(p)
        assert minimum == an.evenodd_min_bandwidth(p)
        assert best_x == an.evenodd_optimal_x(p)


def test_brute_force_rejects_composite():
    with pytest.raises(ParameterError):
        an.brute_force_min_single(9)


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
