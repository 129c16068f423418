"""Acceptance suite: one test per required behavior, one line each.

Run with ``pytest -v tests/test_acceptance.py``; the verdict line per
criterion is the test's PASSED/FAILED status (a matching ``PASS`` print
shows under ``-s``).
"""

import itertools
import time
from fractions import Fraction

import numpy as np
import pytest

from arraycode import Code, encode, mds_decode, random_info
from arraycode import analysis as an
from arraycode.core import Coord
from arraycode.planner import (
    execute_plan,
    plan_evenodd_single,
    plan_rdp_single,
    plan_star_double,
    plan_xcode_single,
    recovered_column,
)

RNG = np.random.default_rng(60221023)


def _verify_plan(code, plan, block_size=4):
    grid = encode(code, random_info(code, block_size, RNG))
    recovered = execute_plan(plan, grid)
    column = recovered_column(plan, recovered, block_size)
    for row in range(1, code.rows + 1):
        assert np.array_equal(column[row - 1],
                              grid.cell(Coord(row, plan.recover_col))), \
            f"cell ({row},{plan.recover_col}) wrong"
    return plan.gamma


def test_evenodd_single_repair_bandwidth():
    """Single-erasure plans hit (3p^2-4p+9)/4 blocks, 16 at p=5, each
    prime planned in under a second."""
    for p in (3, 5, 7, 11, 13):
        start = time.perf_counter()
        code = Code.evenodd(p)
        gamma = _verify_plan(code, plan_evenodd_single(code, 1))
        elapsed = time.perf_counter() - start
        assert gamma == (3 * p * p - 4 * p + 9) // 4, (p, gamma)
        if p == 5:
            assert gamma == 16
        assert elapsed < 1.0, f"p={p} took {elapsed:.2f}s"
    print("PASS evenodd single-erasure bandwidth formula, p in 3..13")


def test_flat_count_brute_force_oracle():
    """Exhaustive search over all 2^(p-1) flat/sloped assignments agrees
    with the closed-form minimum and the optimal flat counts."""
    start = time.perf_counter()
    for p in (3, 5, 7, 11):
        minimum, best_x = an.brute_force_min_single(p)
        assert minimum == an.evenodd_min_bandwidth(p), (p, minimum)
        assert best_x == frozenset({(p - 1) // 2, (p - 3) // 2}), (p, best_x)
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0, f"enumeration took {elapsed:.1f}s"
    print("PASS brute-force flat-count oracle matches closed form, p in 3..11")


def test_rdp_single_repair_bandwidth():
    for p in (3, 5, 7, 11):
        for erased in (1, p - 1):
            gamma = _verify_plan(Code.rdp(p), plan_rdp_single(Code.rdp(p), erased))
            assert gamma == 3 * (p - 1) * (p - 1) // 4, (p, erased, gamma)
    assert plan_rdp_single(Code.rdp(5), 1).gamma == 12
    print("PASS rdp single-erasure bandwidth 3(p-1)^2/4, p in 3..11")


def test_xcode_bound_and_reconstruction():
    for p in (5, 7, 11, 13):
        bound = (3 * p * p - 2 * p + 5) // 4
        for erased in (1, 2, p):
            gamma = _verify_plan(Code.xcode(p), plan_xcode_single(Code.xcode(p), erased))
            assert gamma <= bound, (p, erased, gamma, bound)
    print("PASS xcode bandwidth within bound with bit-exact rebuild, p in 5..13")


def test_three_parity_inequality_and_common_counts():
    """r=3 exact unions beat the quadratic budget for p in 13..31; the
    alternating-sum value never undershoots the exact count; arithmetic
    common-block counts equal set-intersection enumeration up to r=5."""
    for p in (13, 17, 19, 23, 29, 31):
        gamma = an.exact_union_bandwidth(p, 3)
        budget = (Fraction(13, 18) * p * p + Fraction(17, 9) * p
                  - Fraction(47, 18))
        assert Fraction(gamma) < budget, (p, gamma, budget)
    for p in (5, 7, 11, 13, 17, 19, 23, 29, 31):
        for r in (2, 3, 4, 5):
            if r >= p:
                continue
            part = an.default_partition(p, r)
            assert (an.inclusion_exclusion_bound(p, r, part)
                    >= an.exact_union_bandwidth(p, r, part)), (p, r)
            for size in range(2, r + 1):
                for classes in itertools.combinations(range(r), size):
                    got = an.common_block_count(p, part, classes)
                    want = an.common_block_oracle(p, part, classes)
                    assert got == want, (p, r, classes, got, want)
    print("PASS three-parity transfer inequality, union bound, and "
          "common-block counts")


def test_star_double_erasure_chain():
    """Every column gap x yields a solvable chain that rebuilds the first
    column bit-exactly with 3(p-1)/2 parity-group values and the
    piecewise symmetry savings."""
    for p in (5, 7, 11, 13):
        want_saving = an.star_symmetry_saving(p)
        for x in range(1, p):
            plan = plan_star_double(Code.star(p), (1, 1 + x))
            assert plan.meta["parity_values"] == 3 * (p - 1) // 2, (p, x)
            assert plan.meta["savings"] == want_saving, \
                (p, x, plan.meta["savings"], want_saving)
            _verify_plan(Code.star(p), plan, 2)
    assert an.star_symmetry_saving(5) == 2
    print("PASS star double-erasure chain, parity-group count, and savings")


def test_randomized_roundtrips_and_exhaustive_patterns():
    """1,000 seeded encode/erase/repair/verify cycles with no mismatch,
    plus every within-tolerance pattern for p <= 7."""
    combos = []
    for p in (3, 5, 7, 11, 13):
        combos.append(Code.evenodd(p))
        combos.append(Code.rdp(p))
        if p >= 5:
            combos.append(Code.evenodd_ext(p, 3))
            combos.append(Code.xcode(p))
            combos.append(Code.star(p))
    rounds = 0
    for block_size in (1, 16):
        for code in combos:
            for _ in range(23):
                grid = encode(code, random_info(code, block_size, RNG))
                t = int(RNG.integers(1, code.erasure_tolerance + 1))
                cols = RNG.choice(np.arange(1, code.n + 1), size=t,
                                  replace=False)
                broken = grid.copy()
                for c in cols:
                    broken.cells[:, c - 1] = 0
                fixed = mds_decode(code, broken, [int(c) for c in cols])
                assert np.array_equal(fixed.cells, grid.cells), \
                    (code.family, code.p, cols)
                rounds += 1
    assert rounds >= 1000, rounds
    exhaustive = 0
    for code in combos:
        if code.p > 7:
            continue
        grid = encode(code, random_info(code, 2, RNG))
        for t in range(1, code.erasure_tolerance + 1):
            for pattern in itertools.combinations(range(1, code.n + 1), t):
                broken = grid.copy()
                for c in pattern:
                    broken.cells[:, c - 1] = 0
                fixed = mds_decode(code, broken, list(pattern))
                assert np.array_equal(fixed.cells, grid.cells), \
                    (code.family, code.p, pattern)
                exhaustive += 1
    print(f"PASS {rounds} randomized roundtrips and {exhaustive} "
          "exhaustive patterns with zero mismatches")


def test_large_prime_savings_ratio():
    """At p=31 the planner moves about three quarters of what naive
    repair moves, and the flow bound is exactly (p^2-1)/2 blocks."""
    p = 31
    code = Code.evenodd(p)
    plan = plan_evenodd_single(code, 1)
    naive = code.k * code.rows
    ratio = plan.gamma / naive
    assert 0.72 <= ratio <= 0.78, (plan.gamma, naive, ratio)
    cut = an.cutset_bound(code.total_info_blocks, code.k, code.n - 1)
    assert cut == Fraction(p * p - 1, 2) == 480
    print(f"PASS p=31 ratio {plan.gamma}/{naive} = {ratio:.3f} and "
          "cut-set 480")


def test_four_parity_union_value_reproducible():
    """The r=4 alternating-sum values are pinned to this implementation's
    own evaluation and must reproduce exactly, run over run."""
    frozen_bound = {7: 42, 11: 95, 13: 131, 17: 218}
    frozen_exact = {7: 32, 11: 79, 13: 112, 17: 193}
    for p, want in frozen_bound.items():
        first = an.inclusion_exclusion_bound(p, 4)
        second = an.inclusion_exclusion_bound(p, 4)
        assert first == second == want, (p, first, second, want)
        assert an.exact_union_bandwidth(p, 4) == frozen_exact[p]
    print("PASS four-parity union values reproduce bit-for-bit")
