"""Closed-form bandwidth accounting, bounds, and optimality oracles.

Counts are in blocks. A repair that reads k whole surviving columns (the
fallback every MDS code supports) costs k times the column height; the
functions here quantify how far below that the group-based plans land and
what an information-flow argument says is the floor.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Iterable, Sequence

import numpy as np

from .codes import Code, family_spec
from .core import Coord, ParameterError, ParityGroupId, is_prime, parity_group_members

__all__ = [
    "evenodd_bandwidth",
    "evenodd_min_bandwidth",
    "evenodd_optimal_x",
    "rdp_bandwidth",
    "xcode_bandwidth_bound",
    "star_symmetry_saving",
    "star_double_bandwidth",
    "cutset_bound",
    "naive_bandwidth",
    "Partition",
    "default_partition",
    "validate_partition",
    "common_block_count",
    "common_block_oracle",
    "inclusion_exclusion_bound",
    "exact_union_bandwidth",
    "transfer_inequality_holds",
    "brute_force_min_single",
    "BandwidthReport",
    "bandwidth_sweep",
    "write_report_csv",
]

Partition = Sequence[frozenset[int]]


# ---------------------------------------------------------------------------
# closed forms
# ---------------------------------------------------------------------------

def evenodd_bandwidth(p: int, x: int) -> int:
    """Blocks moved by the x-flat-group single repair: every flat/sloped
    group pair shares one shipped block, and two column sums ride along."""
    if not 0 <= x <= p - 1:
        raise ParameterError(f"x={x} out of range 0..{p - 1}")
    return (p - 1) * p + 2 - (x + 1) * (p - 1 - x)


def evenodd_min_bandwidth(p: int) -> int:
    return (3 * p * p - 4 * p + 9) // 4


def evenodd_optimal_x(p: int) -> frozenset[int]:
    return frozenset({(p - 1) // 2, (p - 3) // 2})


def rdp_bandwidth(p: int) -> int:
    """Half flat, half diagonal; every pair of unlike groups overlaps."""
    return 3 * (p - 1) * (p - 1) // 4


def xcode_bandwidth_bound(p: int) -> int:
    return (3 * p * p - 2 * p + 5) // 4


def star_symmetry_saving(p: int) -> int:
    """Blocks the double-repair chain ships once instead of twice."""
    if (p + 1) // 2 % 2 == 1:
        return (p - 1) * (p - 1) // 8
    return (p + 1) * (p - 3) // 8


def star_double_bandwidth(p: int) -> int:
    """Chain repair of columns (1, 1+x): raw union plus parity blocks
    (one group runs without a stored block) plus three column sums."""
    return (p - 1) * (p - 2) - star_symmetry_saving(p) + 3 * (p - 1) // 2 + 2


def naive_bandwidth(code) -> int:
    """Read any k whole columns and decode."""
    return code.k * code.rows


def cutset_bound(total_blocks: int, k: int, d: int) -> Fraction:
    """Information-flow floor on single-node repair bandwidth when d
    helpers participate, in blocks."""
    if d < k:
        raise ParameterError(f"need at least k={k} helpers, got {d}")
    return Fraction(total_blocks * d, k * (d - k + 1))


# ---------------------------------------------------------------------------
# row partitions for the r-parity code
# ---------------------------------------------------------------------------

def default_partition(p: int, r: int) -> tuple[frozenset[int], ...]:
    """Residue classes mod r: row m repairs through slope m mod r."""
    return tuple(frozenset(m for m in range(1, p) if m % r == v)
                 for v in range(r))


def validate_partition(p: int, r: int, partition: Partition) -> None:
    if len(partition) != r:
        raise ParameterError(f"partition has {len(partition)} classes, need {r}")
    seen: set[int] = set()
    for cls in partition:
        if not cls <= set(range(1, p)):
            raise ParameterError(f"class {sorted(cls)} not within rows 1..{p - 1}")
        if cls & seen:
            raise ParameterError("partition classes overlap")
        seen |= set(cls)
    if seen != set(range(1, p)):
        raise ParameterError("partition does not cover rows 1..p-1")


def common_block_count(p: int, partition: Partition, classes: Sequence[int]) -> int:
    """Blocks shared by one group of each listed class (column-1 repair).

    A shared cell is pinned down by the slope-v1 group index and the
    column offset y: the remaining indices follow as m1 + y*(v_i - v1),
    checked for every (m1, y) at once against a residue table per class.
    Imaginary-row cells count; they matter to the union arithmetic even
    though they are never shipped.
    """
    if len(classes) < 2:
        raise ParameterError("need at least two classes")
    v1 = classes[0]
    m1 = np.fromiter(partition[v1], dtype=np.int64)[:, None]
    y = np.arange(1, p)
    shared = np.ones((len(m1), p - 1), dtype=bool)
    for v in classes[1:]:
        inside = np.zeros(p, dtype=bool)  # residue -> is it in class v
        inside[[m for m in partition[v] if 0 <= m < p]] = True
        shared &= inside[(m1 + y * (v - v1)) % p]
    return int(shared.sum())


def common_block_oracle(p: int, partition: Partition, classes: Sequence[int]) -> int:
    """Same count by brute construction: build each class's covered cell
    set over columns 2..p (imaginary row included) and intersect."""
    covered: list[set[Coord]] = []
    for v in classes:
        cells: set[Coord] = set()
        for m in partition[v]:
            for c in parity_group_members(p, ParityGroupId(v, m)):
                if c.col != 1:
                    cells.add(c)
        covered.append(cells)
    common = covered[0]
    for cells in covered[1:]:
        common &= cells
    return len(common)


def inclusion_exclusion_bound(p: int, r: int,
                              partition: Partition | None = None) -> int:
    """Alternating-sum upper bound on the column-1 repair bandwidth.

    Counts the covered-cell union over columns 2..p with imaginary cells
    left in, which is why it sits above the exact transmission count by
    p plus the number of covered imaginary cells.
    """
    if partition is None:
        partition = default_partition(p, r)
    validate_partition(p, r, partition)
    total = p * (p - 1) + p + r
    for k in range(2, r + 1):
        sign = -1 if k % 2 == 0 else 1
        for classes in combinations(range(r), k):
            total += sign * common_block_count(p, partition, classes)
    return total


def exact_union_bandwidth(p: int, r: int,
                          partition: Partition | None = None) -> int:
    """Exact blocks moved by the column-1 plan: the real covered-cell
    union, one parity block per group, r column sums."""
    if partition is None:
        partition = default_partition(p, r)
    validate_partition(p, r, partition)
    slope_sets = [frozenset(cls) for cls in partition]
    raw = 0
    for row in range(1, p):
        for col in range(2, p + 1):
            if any((row + (col - 1) * v) % p in slope_sets[v] for v in range(r)):
                raw += 1
    return raw + (p - 1) + r


def covered_imaginary_cells(p: int, r: int,
                            partition: Partition | None = None) -> int:
    if partition is None:
        partition = default_partition(p, r)
    return sum(1 for col in range(2, p + 1)
               if any(((col - 1) * v) % p in partition[v] for v in range(r)))


def transfer_inequality_holds(p: int, partition: Partition | None = None) -> bool:
    """Is the three-parity repair cheap enough that eighteen repairs cost
    less than 13p^2 + 34p - 47 blocks? Holds for every prime p >= 13."""
    gamma = exact_union_bandwidth(p, 3, partition)
    return 18 * gamma < 13 * p * p + 34 * p - 47


# ---------------------------------------------------------------------------
# brute-force optimality oracle
# ---------------------------------------------------------------------------

def brute_force_min_single(p: int) -> tuple[int, frozenset[int]]:
    """Try all 2^(p-1) flat/sloped row assignments for column-1 repair and
    measure each union exactly with bitsets.

    Returns the minimum block count and the set of flat-group counts that
    reach it. No closed form is consulted anywhere here.
    """
    if not is_prime(p):
        raise ParameterError(f"p={p} is not prime")
    width = p - 1

    def bit(row: int, col: int) -> int:
        return 1 << ((row - 1) * width + (col - 2))

    flat_mask = []
    sloped_mask = []
    for row in range(1, p):
        fm = 0
        for col in range(2, p + 1):
            fm |= bit(row, col)
        flat_mask.append(fm)
        sm = 0
        for c in parity_group_members(p, ParityGroupId(1, row)):
            if c.col != 1 and c.row != p:
                sm |= bit(c.row, c.col)
        sloped_mask.append(sm)
    best = None
    best_x: set[int] = set()
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


# ---------------------------------------------------------------------------
# reports
# ---------------------------------------------------------------------------

@dataclass
class BandwidthReport:
    family: str
    p: int
    r: int
    erased: tuple[int, ...]
    gamma: int
    bound: int
    naive: int
    ratio: float
    cutset: Fraction

    def row(self) -> list:
        return [self.family, self.p, self.r,
                ";".join(str(e) for e in self.erased),
                self.gamma, self.bound, self.naive, f"{self.ratio:.4f}",
                f"{float(self.cutset):.2f}"]


_CSV_HEADER = ["family", "p", "r", "erased", "gamma_blocks", "bound_blocks",
               "naive_blocks", "ratio", "cutset_blocks"]


def bandwidth_sweep(family: str, primes: Iterable[int], r: int = 3) -> list[BandwidthReport]:
    """Plan the family's ``analyze`` erasure pattern at each prime and set the
    measured bandwidth beside the closed form, naive and cut-set costs."""
    spec = family_spec(family)
    erased = spec.analyze_erased
    out = []
    for p in primes:
        code = Code.make(family, p, r)
        gamma = spec.plan(code, erased).gamma
        naive = naive_bandwidth(code) * len(erased)
        cut = cutset_bound(code.total_info_blocks, code.k, code.n - len(erased))
        bound = spec.closed_form(p, code.r)
        out.append(BandwidthReport(family, p, code.r, erased, gamma, bound,
                                   naive, gamma / naive, cut))
    return out


def write_report_csv(reports: Sequence[BandwidthReport], path) -> None:
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(_CSV_HEADER)
        for rep in reports:
            w.writerow(rep.row())
