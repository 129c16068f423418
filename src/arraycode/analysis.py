"""Closed-form bandwidth accounting, bounds, and optimality oracles.

Counts are in blocks. A repair that reads k whole surviving columns (the
fallback every MDS code supports) costs k times the column height; the
functions here quantify how far below that the group-based plans land and
what an information-flow argument says is the floor.

The counting oracles mark lines of one slope on a boolean grid of the cells
of columns 2..p, imaginary row p included, straight from the line formula
(:func:`_covered`), and AND, OR or sum such grids. None reads a closed form
or :func:`common_block_count`'s residue table, so each checks them
independently.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Iterable, Sequence

import numpy as np

from .codes import Code, family_spec
from .core import ParameterError, is_prime

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


def _covered(p: int, slope: int, indices: Iterable[int]) -> np.ndarray:
    """The cells of columns 2..p on the lines of ``slope`` through
    ``indices``: ``grid[row - 1, col - 2]`` of a ``(p, p - 1)`` boolean
    grid, imaginary row p last. The line through index i visits row
    ``<i + slope*(1 - j)>`` of column j."""
    grid = np.zeros((p, p - 1), dtype=bool)
    i = np.fromiter(indices, dtype=np.int64)[:, None]
    j = np.arange(2, p + 1)
    grid[(i + slope * (1 - j) - 1) % p, j - 2] = True
    return grid


def common_block_oracle(p: int, partition: Partition, classes: Sequence[int]) -> int:
    """Same count by brute construction: mark each class's covered cells
    over columns 2..p (imaginary row included) and intersect."""
    if not is_prime(p) or p < 3 or any(not -p < v < p or not partition[v] <= set(range(p))
                                       for v in classes):
        raise ParameterError(f"classes {list(classes)} are not line sets of an odd prime p={p}")
    common = _covered(p, classes[0], partition[classes[0]])
    for v in classes[1:]:
        common &= _covered(p, v, partition[v])
    return int(common.sum())


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
    covered = np.logical_or.reduce([_covered(p, v, cls) for v, cls in enumerate(partition)])
    return int(covered[:-1].sum()) + (p - 1) + r


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
    count each union exactly.

    A cell of columns 2..p (rows 1..p-1) ships unless its row is sloped and
    the slope-1 line through it is not. With ``s`` marking the sloped rows,
    ``C[a, b]`` the cells of row a on slope-1 line b (from :func:`_covered`)
    and w = p - 1, an assignment leaves out ``w*|s| - s'Cs`` of the w^2
    cells. Each half of the rows is enumerated as a table, and the halves
    are combined in blocks of at most 2^15 pairs (one first-half row past
    p = 31), so memory does not grow with 2^(p-1).

    Returns the minimum block count and the set of flat-group counts that
    reach it. No closed form is consulted anywhere here.
    """
    if not is_prime(p) or p < 3:
        raise ParameterError(f"p must be an odd prime, got {p}")
    w = p - 1
    h = w // 2
    C = np.stack([_covered(p, 1, (b,))[:-1].sum(1) for b in range(1, p)], axis=1)

    def half(bits: int) -> np.ndarray:  # every 0/1 assignment of ``bits`` rows
        return np.arange(1 << bits)[:, None] >> np.arange(bits) & 1

    s1, s2 = half(h), half(w - h)
    # cells left out, w|s| - s'Cs, are out1[s1] + out2[s2] - s1'K s2, K = C12 + C21'
    out1 = w * s1.sum(1) - ((s1 @ C[:h, :h]) * s1).sum(1)
    out2 = w * s2.sum(1) - ((s2 @ C[h:, h:]) * s2).sum(1)
    cross = (C[:h, h:] + C[h:, :h].T) @ s2.T
    # A block is the s1 rows a..a+step-1, a a multiple of step: s1[a + i] is
    # s1[a] + s1[i], so every block shares the low bits' terms.
    step = min(1 << h, max(1, (1 << 15) >> (w - h)))  # at most 2^15 pairs a block
    low_out = out2 - s1[:step] @ cross
    low_sloped = s1[:step].sum(1)[:, None] + s2.sum(1)
    most, hit = -1, np.zeros(w + 1, dtype=bool)  # hit: sloped-row counts at the most
    for a in range(0, 1 << h, step):
        out = out1[a:a + step, None] + low_out - s1[a] @ cross
        high = int(out.max())
        if high > most:
            most = high
            hit[:] = False
        if high == most:
            hit[s1[a].sum() + low_sloped[out == high]] = True
    return w * w - most + (p - 1) + 2, frozenset((w - np.flatnonzero(hit)).tolist())


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
