"""The five binary MDS array-code families and a generic erasure decoder.

Each family is defined once, as a :class:`FamilySpec` in :data:`FAMILIES`:
its r policy, its geometry, its labelled parity checks, the names of its
repair planners, its closed-form repair bandwidth and its container tag.
Every other layer reads the table instead of naming a family. All families
live on a grid of byte blocks over a prime ``p``:

* ``evenodd``      (p-1) x (p+2): p data columns, slope-0 and slope-1 parity.
* ``evenodd-ext``  (p-1) x (p+r): p data columns, slopes 0..r-1. MDS is
  guaranteed for r <= 3; for r in {4, 5} a pattern of up to r erasures
  decodes exactly when its parity checks have full rank.
* ``rdp``          (p-1) x (p+1): p-1 data columns, a row-parity column and a
  diagonal-parity column whose diagonals include the row parity. The
  diagonal through (p, 1) carries no parity block.
* ``xcode``        p x p: rows 1..p-2 hold data, row p-1 holds slope -1
  parity (skipping row p) and row p holds slope +1 parity (skipping row p-1).
* ``star``         (p-1) x (p+3): p data columns, slopes 0, +1 and -1.

Slope-v parity of the evenodd family tree (the families with slopes) is
``b[i, v] = adjuster(v) XOR sum_j a[<i + v*(1-j)>, j]`` where the adjuster
is the XOR of the index-0 line of that slope and ``adjuster(0) = 0``.

Grids are stored column-major, as the container file stores them: column
``c`` is one contiguous run of ``rows`` blocks (:func:`cell_view` gives the
logical ``(rows, n, block)`` view of such a buffer).

The work-buffer row is the one cell identity inside this module and the
planner. The stored cell ``(r, c)`` is row ``(c-1)*rows + r-1``; in the
evenodd tree each sloped adjuster is a virtual cell, row ``rows*n + slot``,
after the stored ones. Every parity check is an array of such rows, built by
line arithmetic over whole arrays, and the decoder, the encoder and the
planner peel, plan and compile over them.
:class:`Coord` s are made only at the public edge, by :func:`_coords`.

Encoding, decoding and plan execution share one executor: each step of an
ordered ``(target, sources)`` XOR schedule over work-buffer rows XORs its
source rows into its target. The block size alone picks one of two paths.
Blocks of more than ``_IN_PLACE`` (8 KiB) bytes run in place: each step XORs
its source blocks one at a time into its target, where they lie, one NumPy
call per source and no copy. Smaller blocks are gathered whole and run as
a program compiled once per schedule and block size (:func:`_compile`), in
one of two forms: levelled, each level's steps of one width in one gather
and one reduction, or, for a peel chain, its paths gathered end to end, each
path one prefix XOR. The form making fewer NumPy calls at that block size
runs, so a schedule of small blocks costs a few calls per level or per
batch of paths rather than one per step.

* :func:`encode` runs one schedule per code on its own buffer: each
  adjuster from its line, then every parity cell from its check.
* Decoding and plan execution read data only through :func:`_execute`,
  from the live columns of a grid or a simulated cluster, into the caller's
  arrays for every column the schedule writes: large blocks are read and
  solved where they lie; small ones are gathered, run and copied out.
* :func:`mds_decode` runs a schedule compiled once per erasure pattern. It
  peels the parity checks: a check with one unknown cell left solves that
  cell, from survivors and cells solved before it. Adjusters are also
  defined by the XOR of the slope-0 and slope-v parity columns, so every
  two-column erasure peels. Cells peeling cannot reach are solved by GF(2)
  elimination. A caller that wants fewer columns than are erased gets the
  cached schedule pruned to the steps those columns depend on, along the
  links the schedule derives from its own steps.
* Verification reuses the executor: each parity check no peel step used is
  XORed into a scratch row that must come out zero. With n - k columns
  erased there are none, since every set of survivors then decodes to a
  codeword and no check can fail.
"""

from __future__ import annotations

from collections import UserDict
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from typing import Callable, NamedTuple

import numpy as np

from .core import (
    Coord,
    CorruptionError,
    ParameterError,
    UnrecoverableError,
    is_prime,
)

__all__ = [
    "FAMILIES",
    "FamilySpec",
    "Code",
    "CodeGrid",
    "cell_view",
    "encode",
    "family_spec",
    "mds_decode",
    "random_info",
]


def _derived():
    return field(init=False, repr=False, compare=False)


@dataclass(frozen=True)
class Code:
    """Family name plus parameters.

    Constructing a code checks ``p`` and ``r`` against the family's
    :class:`FamilySpec` and computes its geometry once; equality and hashing
    use ``(family, p, r)`` only.
    """

    family: str
    p: int
    r: int
    n: int = _derived()
    k: int = _derived()
    rows: int = _derived()  # stored rows per column
    info_shape: tuple[int, int] = _derived()
    # parity slopes in stored parity-column order (evenodd tree only)
    slopes: tuple[int, ...] = _derived()

    def __post_init__(self):
        spec = family_spec(self.family)
        p, r = self.p, self.r
        if not is_prime(p) or p < 3:
            raise ParameterError(f"p must be an odd prime >= 3, got {p}")
        if p < spec.min_p:
            raise ParameterError(f"{spec.name} needs p >= {spec.min_p}")
        lo, hi = spec.r_range or (spec.r, spec.r)
        if not lo <= r <= hi:
            raise ParameterError(f"{spec.name} supports r in {lo}..{hi}, got r={r}")
        if p < spec.lowest_p(r):
            raise ParameterError(f"r={r} needs p > r, got p={p}")
        for name, value in zip(Geometry._fields, spec.geometry(p, r)):
            object.__setattr__(self, name, value)

    @classmethod
    def make(cls, family: str, p: int, r: int | None = None) -> "Code":
        """Build a code from a family name, as the CLI does: ``r`` defaults
        to the family's and is ignored by families whose r is fixed."""
        spec = family_spec(family)
        return cls(family, p, spec.r if r is None or spec.r_range is None else r)

    @property
    def spec(self) -> FamilySpec:
        return FAMILIES[self.family]

    @property
    def info_cols(self) -> int:
        """Count of pure-data columns (xcode keeps data in rows instead)."""
        return self.info_shape[1]

    @property
    def total_info_blocks(self) -> int:
        r, c = self.info_shape
        return r * c

    @property
    def erasure_tolerance(self) -> int:
        return min(self.spec.tolerance, self.n - self.k)

    def parity_col(self, slope: int) -> int:
        """Column holding the parities of a slope (evenodd tree only)."""
        return self.p + 1 + self.slopes.index(slope)

    def systematic_cols(self) -> range:
        return range(1, self.info_cols + 1)


@dataclass
class CodeGrid:
    """An encoded array: ``cells[row-1, col-1]`` is one block (uint8 vector).

    Grids built here are a transposed view of C-contiguous
    ``(n, rows, block)`` storage (:func:`cell_view`), so each column is one
    contiguous run; any ``(rows, n, block)`` array is accepted.
    """

    code: Code
    cells: np.ndarray  # shape (rows, n, block_size)

    @property
    def block_size(self) -> int:
        return int(self.cells.shape[2])

    def cell(self, coord: Coord) -> np.ndarray:
        """The block stored at ``coord``; row p reads as zeros in the codes
        whose row p is imaginary (``rows == p - 1``)."""
        code, (row, col) = self.code, coord
        if not (1 <= col <= code.n and 1 <= row <= max(code.rows, code.p)):
            raise ParameterError(f"{coord} is outside the {code.rows} x {code.n} grid")
        if row > code.rows:
            return np.zeros(self.block_size, dtype=np.uint8)
        return self.cells[row - 1, col - 1]

    def column(self, col: int) -> np.ndarray:
        return self.cells[:, col - 1]

    def copy(self) -> "CodeGrid":
        return CodeGrid(self.code, self.cells.copy(order="K"))


def cell_view(code: Code, buf: np.ndarray) -> np.ndarray:
    """The ``(rows, n, block)`` cells over the first ``rows * n`` rows of a
    ``(cells, block)`` buffer, stored column by column."""
    stored = buf[:code.rows * code.n].reshape(code.n, code.rows, buf.shape[1])
    return stored.transpose(1, 0, 2)


def random_info(code: Code, block_size: int, rng: np.random.Generator) -> np.ndarray:
    rows, cols = code.info_shape
    return rng.integers(0, 256, size=(rows, cols, block_size), dtype=np.uint8)


# ---------------------------------------------------------------------------
# parity-check equations (shared by the encoder, the decoder and the planner)
# ---------------------------------------------------------------------------

def _virtual(code: Code, slope: int) -> int:
    """Work-buffer row of the virtual adjuster cell of a non-zero slope."""
    return code.rows * code.n + code.slopes.index(slope) - 1


def _lines(code: Code, slope: int, index: np.ndarray) -> np.ndarray:
    """Work-buffer rows of the stored cells of the lines of ``slope`` through
    ``index``, a line per row in column order, imaginary cells dropped."""
    p = code.p
    col = np.arange(1, p + 1)
    row = (index[:, None] + slope * (1 - col) - 1) % p + 1
    cells = (col - 1) * code.rows + row - 1
    return cells[row != p].reshape(len(index), -1)


def _xcode_cols(p: int, slope: int) -> np.ndarray:
    """``[col - 1, row - 1]``: the column where the X-code line of ``slope``
    stored in ``col`` crosses data row ``row``."""
    step = 1 if slope == -1 else -1
    return (np.arange(1, p + 1)[:, None] + step * np.arange(2, p) - 1) % p + 1


# the labelled checks of one slope: (slope, label indexes, (checks x width)
# work-buffer rows, each check's head first, padded with -1)
SlopeChecks = tuple[int, np.ndarray, np.ndarray]


def _tree_equations(code: Code) -> list[SlopeChecks]:
    """Slope-v check i lists its parity cell, its line, then the virtual
    adjuster cell of the slope; check 0 is the adjuster line, headed by that
    virtual cell."""
    p, rows = code.p, code.rows
    out = []
    for v in code.slopes:
        index = np.arange(0 if v else 1, p)
        head = (code.parity_col(v) - 1) * rows + index - 1
        parts = [head, _lines(code, v, index)]
        if v:
            head[0] = _virtual(code, v)
            parts.append(np.where(index > 0, head[0], -1))
        out.append((v, index, np.column_stack(parts)))
    return out


def _rdp_equations(code: Code) -> list[SlopeChecks]:
    """Row checks (slope 0) then diagonal checks, which read row parity;
    the diagonal through (p, 1) carries no check."""
    p, index = code.p, np.arange(1, code.p)
    diagonal = np.column_stack([p * code.rows + index - 1, _lines(code, 1, index)])
    return [(0, index, np.roll(_lines(code, 0, index), 1, axis=1)), (1, index, diagonal)]


def _xcode_equations(code: Code) -> list[SlopeChecks]:
    p, index = code.p, np.arange(1, code.p + 1)
    return [(v, index, np.column_stack([(index - 1) * p + prow - 1,
                                        (_xcode_cols(p, v) - 1) * p + np.arange(p - 2)]))
            for v, prow in ((-1, p - 1), (1, p))]


# ---------------------------------------------------------------------------
# the family table
# ---------------------------------------------------------------------------

class Geometry(NamedTuple):
    """The shape of a code, from its family, p and r."""

    n: int
    k: int
    rows: int
    info_shape: tuple[int, int]
    slopes: tuple[int, ...]


def _tree_geometry(p: int, slopes: tuple[int, ...]) -> Geometry:
    return Geometry(p + len(slopes), p, p - 1, (p - 1, p), slopes)


@dataclass(frozen=True)
class FamilySpec:
    """Everything the other layers need to know of one array-code family.

    ``equations`` lists the family's parity checks slope by slope, over
    work-buffer rows, each labelled with its :class:`~.core.ParityGroupId`
    index; the decoder and the repair planners read them.
    The planners and the closed form live in :mod:`.planner` and
    :mod:`.analysis`, which import this module: the table names each planner
    (a ``planner`` function taking the code) and reaches it and the closed
    form through their modules at call time.
    """

    name: str
    tag: int  # the family byte of a container header
    r: int  # the family's r, or its default when ``r_range`` is set
    r_range: tuple[int, int] | None  # the r a caller may choose, also below p
    min_p: int
    geometry: Callable[[int, int], Geometry]  # (p, r) -> shape
    tolerance: int  # erasures decoding is proven for, if n - k allows
    equations: Callable[[Code], list[SlopeChecks]]
    plan_single: str  # planner function: (code, erased data column) -> RepairPlan
    closed_form: Callable[[int, int], int]  # (p, r) -> blocks of its analyze plan
    plan_double: str | None = None  # planner function: (code, (col, other)) -> RepairPlan
    analyze_erased: tuple[int, ...] = (1,)  # the pattern ``analyze`` plans

    def lowest_p(self, r: int) -> int:
        """The least p the family allows with ``r``: ``min_p``, and above r
        where r is chosen (a fixed r is ignored, as :meth:`Code.make` does)."""
        return max(self.min_p, r + 1) if self.r_range else self.min_p

    def plan(self, code: Code, erased: tuple[int, ...]):
        """The repair plan for the first of the ``erased`` columns, or None
        when one of them holds parity or the family has no planner for that
        many erasures: the one rule for whether a paper plan applies."""
        from . import planner
        if any(code.info_cols < c <= code.n for c in erased):
            return None
        if len(erased) == 1:
            return getattr(planner, self.plan_single)(code, erased[0])
        if len(erased) == 2 and self.plan_double is not None:
            return getattr(planner, self.plan_double)(code, erased)
        return None


def _analysis():
    from . import analysis
    return analysis


FAMILIES: dict[str, FamilySpec] = {spec.name: spec for spec in (
    FamilySpec(
        "evenodd", tag=1, r=2, r_range=None, min_p=3,
        geometry=lambda p, r: _tree_geometry(p, (0, 1)), tolerance=2,
        equations=_tree_equations, plan_single="plan_evenodd_single",
        closed_form=lambda p, r: _analysis().evenodd_min_bandwidth(p)),
    FamilySpec(
        "evenodd-ext", tag=2, r=3, r_range=(2, 5), min_p=3,
        geometry=lambda p, r: _tree_geometry(p, tuple(range(r))), tolerance=3,
        equations=_tree_equations, plan_single="plan_extended_single",
        closed_form=lambda p, r: _analysis().inclusion_exclusion_bound(p, r)),
    FamilySpec(
        "rdp", tag=3, r=2, r_range=None, min_p=3,
        geometry=lambda p, r: Geometry(p + 1, p - 1, p - 1, (p - 1, p - 1), ()),
        tolerance=2, equations=_rdp_equations, plan_single="plan_rdp_single",
        closed_form=lambda p, r: _analysis().rdp_bandwidth(p)),
    FamilySpec(
        "xcode", tag=4, r=2, r_range=None, min_p=5,
        geometry=lambda p, r: Geometry(p, p - 2, p, (p - 2, p), ()),
        tolerance=2, equations=_xcode_equations, plan_single="plan_xcode_single",
        closed_form=lambda p, r: _analysis().xcode_bandwidth_bound(p)),
    FamilySpec(
        "star", tag=5, r=3, r_range=None, min_p=3,
        geometry=lambda p, r: _tree_geometry(p, (0, 1, -1)), tolerance=3,
        equations=_tree_equations, plan_single="plan_evenodd_single",
        plan_double="plan_star_double",
        closed_form=lambda p, r: _analysis().star_double_bandwidth(p),
        analyze_erased=(1, 2)),
)}


def family_spec(family: str) -> FamilySpec:
    try:
        return FAMILIES[family]
    except KeyError:
        raise ParameterError(f"unknown family {family!r}") from None


# ---------------------------------------------------------------------------
# XOR schedules: parity generation and erasure decoding
# ---------------------------------------------------------------------------

# blocks of more than ``_IN_PLACE`` bytes run in place, smaller ones are
# gathered whole. In place, a step costs one NumPy call per source and copies
# nothing; gathered, a few calls and one more copy of each source. Timed
# in-process against gathering 8 KiB byte ranges of each block in turn
# (EVENODD, RDP, X-code and STAR at p=31 and p=53), in place ran plans at
# 1.4-2.7x and decodes at 0.88-2.5x from 8 KiB + 5 to 31 KiB, encodes at
# 0.92-1.3x at p=31, and at p=53, whose encode steps read about 53 sources,
# 0.84-1.1x up to 14 KiB and 0.93-1.1x from 16 KiB. Gathering 10-16 KiB
# blocks whole ran decodes and plans as slow as 0.49x, so nothing over 8 KiB
# is gathered. With 1 MiB blocks at p=13 in place ran 1.2-2.6x, so blocks
# are never cut into byte ranges
_IN_PLACE = 8192
# bytes one batched gather of :func:`_run_steps` may read. Batching saves
# NumPy calls, which is what small blocks cost; once a step gathers a few KiB
# its bytes cost more, and larger temporaries only disturb the allocator (at
# p=7 with 4 KiB blocks, batches under a 64 KiB budget made CLI repairs 3-4%
# slower, and a 256 KiB budget made encodes about 2x slower)
_GATHER = 32 * 1024
# compiled schedules kept; at p=53 each holds 0.03-0.05 MB with its 16-byte
# program (tracemalloc over cold naive decodes of each family)
_CACHE_SIZE = 128


class XorSchedule(UserDict):
    """``(target, sources)`` steps over the rows of a work buffer: the cells
    of ``code``, then ``slots`` rows, its virtual cells and a scratch row per
    verification check. The first ``solves`` steps compute cells from given
    cells or earlier targets; the rest XOR each check into its scratch row.
    ``eliminated`` holds the solved cells peeling could not reach, solved by
    GF(2) elimination. Step i writes row ``targets[i]`` from ``widths[i]``
    rows of ``sources``, from ``starts[i]``. ``starts``, :attr:`links` and
    :attr:`levels` are derived from the steps when first read; each link
    pairs a step that reads an earlier step's target with that step.

    As a mapping, a schedule is its recipe: target row -> source rows.
    """

    starts = cached_property(lambda self: np.cumsum(self.widths) - self.widths)

    def __init__(self, code: Code, targets: np.ndarray, sources: np.ndarray,
                 widths: np.ndarray, solves: int, eliminated: tuple[int, ...] = ()):
        self.code, self.solves, self.eliminated = code, solves, eliminated
        self.targets, self.sources, self.widths = targets, sources, widths
        self.slots = len(code.slopes[1:]) + len(targets) - solves  # virtual cells, scratch rows
        self._programs: dict[int, tuple] = {}

    @cached_property
    def steps(self) -> tuple[tuple[int, np.ndarray], ...]:
        """The steps as ``(target, sources)`` pairs, in order."""
        return tuple(zip(self.targets.tolist(), np.split(self.sources, self.starts[1:])))

    @cached_property
    def data(self) -> dict[int, np.ndarray]:  # the mapping's contents
        return dict(self.steps[:self.solves])

    @cached_property
    def links(self) -> tuple[np.ndarray, np.ndarray]:
        """Each source that another step writes, as the index of the step
        reading it (ascending) and of the step writing it: one mask of the
        written rows, taken over the sources."""
        size, sources = self.code.rows * self.code.n + self.slots, self.sources.astype(np.intp)
        written = np.zeros(size, dtype=bool)
        written[self.targets] = True
        hit = np.flatnonzero(written.take(sources))
        writer = np.empty(size, dtype=np.intp)
        writer[self.targets] = np.arange(len(self.targets))
        return (np.searchsorted(self.starts, hit, side="right") - 1,
                writer.take(sources.take(hit)))

    @cached_property
    def levels(self) -> np.ndarray:
        """Each step's level: one above the highest step it reads, 0 when it
        reads only given rows, so no step reads a target of its own level."""
        level = [0] * len(self.targets)
        for step, by in zip(*(side.tolist() for side in self.links)):
            if level[by] >= level[step]:
                level[step] = level[by] + 1
        return np.array(level)

    def pruned(self, keep) -> "XorSchedule":
        """The solve steps that the buffer rows ``keep`` or the checks depend
        on, in order, over the same buffer layout: walking the links from
        the last reading step back, a step is kept when its target is kept
        or a kept step reads it. When the kept steps are the first ones (a
        peel chain cut after the last step ``keep`` needs), the pruned
        schedule views this one's arrays."""
        wanted = np.zeros(self.code.rows * self.code.n + self.slots, dtype=bool)
        wanted[keep] = True
        kept = wanted[self.targets]
        kept[self.solves:] = True
        kept, (readers, writers) = kept.tolist(), self.links
        for step, by in zip(reversed(readers.tolist()), reversed(writers.tolist())):
            kept[by] = kept[by] or kept[step]
        count = sum(kept)
        if count == len(kept):
            return self
        if all(kept[:count]):  # the first steps: views of this one's arrays
            parts = (self.targets[:count], self.sources[:self.starts[count]], self.widths[:count],
                     count)
        else:
            kept = np.array(kept)
            parts = (self.targets[kept], self.sources[np.repeat(kept, self.widths)],
                     self.widths[kept], int(kept[:self.solves].sum()))
        return XorSchedule(self.code, *parts, tuple(c for c in self.eliminated if c in parts[0]))

    def program(self, block: int) -> tuple:
        """What :func:`_run_steps` runs on blocks of ``block`` bytes,
        compiled once per block size by :func:`_compile`."""
        if block not in self._programs:
            self._programs[block] = _compile(self, block)
        return self._programs[block]

    @cached_property
    def reads(self) -> tuple:
        """``(column, buffer rows, column rows)`` of each column's stored
        cells the steps read and never write, worked out once per schedule:
        what :func:`_execute` gathers, or in place the columns it views."""
        rows, n = self.code.rows, self.code.n
        read = np.zeros(rows * n + self.slots, dtype=bool)
        read[self.sources] = True
        read[self.targets] = False
        grid = read[:rows * n].reshape(n, rows)
        counts = grid.sum(axis=1)
        col_rows = np.nonzero(grid[(counts > 0) & (counts < rows)])[1]  # of columns read in part
        out, lo = [], 0
        for c, count in enumerate(counts.tolist()):
            if count == rows:  # a whole column: slices copy without a temporary
                out.append((c + 1, slice(c * rows, (c + 1) * rows), slice(None)))
            elif count:
                out.append((c + 1, c * rows + col_rows[lo:lo + count], col_rows[lo:lo + count]))
                lo += count
        return tuple(out)


class Equations:
    """The parity checks of a code over work-buffer rows, which the decoder,
    the encoder and the planner read through :func:`_decode_equations`.

    ``table`` holds the labelled checks, one per row, head first, padded
    with -1; ``slope`` and ``index`` are their labels, ``slopes`` the slopes
    that have checks. The virtual cell ``s`` of slope ``v`` is defined twice:
    by its adjuster line, labelled ``(v, 0)``, and by ``identities[v]``,
    ``s = (XOR of the slope-0 parity column) XOR (XOR of the slope-v parity
    column)`` (p-1 is even), so every two-column erasure peels. The checks
    are stored once, in ``table`` and ``identities``.
    """

    def __init__(self, code: Code):
        blocks = code.spec.equations(code)
        self.code, self.slopes = code, tuple(v for v, _, _ in blocks)
        self.table = np.concatenate([cells for _, _, cells in blocks])
        self.slope = np.concatenate([np.full(len(index), v) for v, index, _ in blocks])
        self.index = np.concatenate([index for _, index, _ in blocks])
        self.identities = {v: np.array([_virtual(code, v), *_column_rows(
            code, (code.parity_col(0), code.parity_col(v)))]) for v in code.slopes[1:]}

    @cached_property
    def peel_index(self) -> tuple[np.ndarray, ...]:
        """The peel's index, built on a code's first decode (``analyze``
        sweeps never build it): the checks of ``table``, padding dropped,
        then the identities, end to end as int32, which halves the sources a
        cached schedule holds, with each check's start and size; then the
        checks through each buffer row, row by row, with each row's start
        and count. Returns ``(cells, starts, sizes, on, on_starts,
        on_sizes)``."""
        valid, ids = self.table >= 0, list(self.identities.values())
        cells = np.concatenate([self.table[valid], *ids]).astype(np.int32)
        sizes = np.array(valid.sum(axis=1).tolist() + [len(s) for s in ids])
        on_sizes = np.bincount(cells, minlength=self.code.rows * self.code.n + len(
            self.code.slopes[1:]))
        on = np.repeat(np.arange(len(sizes)), sizes)[np.argsort(cells, kind="stable")]
        return cells, np.cumsum(sizes) - sizes, sizes, on, np.cumsum(on_sizes) - on_sizes, on_sizes


def _coords(code: Code, rows) -> list[Coord]:
    """The :class:`Coord` of each work-buffer row: ``Coord(r, c)`` for the
    stored cell ``(r, c)``, ``Coord(0, parity column)`` for the virtual
    adjuster cell of that column's slope."""
    stored = code.rows * code.n
    return [Coord(r % code.rows + 1, r // code.rows + 1) if r < stored
            else Coord(0, code.p + 2 + r - stored)  # slot s: slope code.slopes[s + 1]
            for r in np.asarray(rows).tolist()]


# A sweep over p would fill a larger cache with its largest codes (about 0.3
# MB each at p=101 and r <= 3, and 0.4-0.55 MB more for the peel's index
# once one decodes); two cover the code in use.
_decode_equations = lru_cache(maxsize=2)(Equations)


@lru_cache(maxsize=8)
def _encode_schedule(code: Code) -> XorSchedule:
    """Parity generation, compiled from the decoder's equations.

    Each sloped adjuster line is solved into its virtual cell first, then
    every parity check for the parity cell it lists first, in equation
    order. The column identities that also define the adjusters are left
    out: they serve decoding only and would double a step's sources.
    """
    table = _decode_equations(code).table
    table = table[np.argsort(table[:, 0] < code.rows * code.n, kind="stable")]
    valid = table[:, 1:] >= 0
    return XorSchedule(code, table[:, 0], table[:, 1:][valid], valid.sum(axis=1), len(table))


@lru_cache(maxsize=_CACHE_SIZE)
def _solve_schedule(code: Code, erased: tuple[int, ...],
                    wanted: tuple[int, ...]) -> XorSchedule | None:
    """Peel the parity checks into a triangular schedule of erased cells.

    Repeatedly take a check with exactly one unknown cell left and solve that
    cell from the others, which may be cells solved earlier. Cells left when
    peeling stalls (three-erasure patterns of some families, and r > 3) are
    solved by elimination. The checks no peel step used become the
    schedule's verification checks, none when n - k columns are erased (see
    :func:`mds_decode`). With every erased column wanted the schedule is
    returned as solved; only a schedule for a subset of the columns is
    pruned, from the cached one for all of them, to the steps its cells
    and the checks depend on. Cells are work-buffer rows. Returns None,
    cached like a schedule, when the pattern's checks are rank-deficient.

    The peel moves only numbers of unknown cells: each unknown's checks come
    from :attr:`Equations.peel_index` in one lookup, and each check keeps the
    count and the XOR of the numbers of its unsolved unknowns, so the one
    left is that XOR; every step's sources are cut from the checks in one
    pass after.
    """
    if wanted != erased:
        whole = _solve_schedule(code, erased, erased)
        return None if whole is None else whole.pruned(_column_rows(code, wanted))
    cells, starts, sizes, on, on_starts, on_sizes = _decode_equations(code).peel_index
    stored, virtual = code.rows * code.n, len(code.slopes[1:])
    unknowns = np.array(_column_rows(code, erased) + list(range(stored, stored + virtual)),
                        dtype=np.intp)
    counts = on_sizes[unknowns]
    on = _segments(on, on_starts[unknowns], counts)  # each unknown's checks
    checks_of, on_bounds = on.tolist(), [0, *np.cumsum(counts).tolist()]
    last = np.zeros(len(sizes), dtype=np.intp)  # the XOR of each check's unsolved unknowns
    np.bitwise_xor.at(last, on, np.repeat(np.arange(len(unknowns)), counts))
    left = np.bincount(on, minlength=len(sizes))  # each check's unknowns
    queue, left, last = np.flatnonzero(left == 1).tolist(), left.tolist(), last.tolist()
    done = [False] * len(unknowns)  # each unknown solved yet
    check, solved, eliminated = [], [], []
    options: dict[int, np.ndarray] | None = None
    while True:
        if queue:
            e = queue.pop()
            if not left[e]:
                continue  # another check solved its last unknown
            target = last[e]  # the one unknown left
        elif rest := [u for u, d in enumerate(done) if not d]:
            # peeling stalled: solve the cheapest cell elimination offers, then peel on
            options = options or _eliminate(np.split(cells, starts[1:]), unknowns[rest].tolist())
            if options is None:
                return None
            e, target = -1, min(rest, key=lambda u: len(options[int(unknowns[u])]))
            eliminated.append(int(unknowns[target]))
        else:
            break
        done[target] = True
        solved.append(target)
        check.append(e)
        for e in checks_of[on_bounds[target]:on_bounds[target + 1]]:
            left[e] -= 1
            last[e] ^= target
            if left[e] == 1:
                queue.append(e)
    solves = len(check)
    check += sorted(set(range(len(left))) - set(check)) if len(erased) < code.n - code.k else []
    targets = np.concatenate([unknowns[solved], stored + virtual + np.arange(len(check) - solves)])
    # every step's sources in one pass: its check's cells but its target
    check = np.array(check, dtype=np.intp)
    sizes = sizes[check] * (check >= 0)  # an eliminated step's come from elimination
    cells = _segments(cells, starts[check], sizes)
    sources = cells[cells != np.repeat(targets, sizes)]
    widths = sizes - ((check >= 0) & (np.arange(len(check)) < solves))
    if eliminated:
        parts = np.split(sources, np.cumsum(widths)[:-1])
        for i in np.flatnonzero(check < 0).tolist():
            parts[i] = options[int(targets[i])]
        sources, widths = np.concatenate(parts), np.array([len(s) for s in parts])
    return XorSchedule(code, targets, sources, widths, solves, tuple(eliminated))


def _segments(array: np.ndarray, starts: np.ndarray, sizes: np.ndarray) -> np.ndarray:
    """``array[starts[i]:starts[i] + sizes[i]]`` for each i, end to end."""
    ends = np.cumsum(sizes)
    return array[np.arange(int(sizes.sum())) + np.repeat(starts - ends + sizes, sizes)]


def _eliminate(eqs, unknowns: list[int]) -> dict[int, np.ndarray] | None:
    """Express each of ``unknowns`` as an XOR of surviving or solved cells.

    Gauss-Jordan elimination over GF(2). Each check is one int bitset: bit i
    for ``unknowns[i]``, then bit ``len(unknowns) + c`` for each known cell
    ``c``, so combining checks XORs their known cells into the recovery set
    too. Returns None if the system is rank-deficient.
    """
    u = len(unknowns)
    bit_of = {cell: i for i, cell in enumerate(unknowns)}
    mask = (1 << u) - 1
    pivots: dict[int, int] = {}  # lowest unknown bit -> check
    for eq in eqs:
        row = 0
        for cell in eq.tolist():
            row ^= 1 << bit_of.get(cell, u + cell)
        while row & mask:
            bit = row & -row
            if bit not in pivots:
                pivots[bit] = row
                break
            row ^= pivots[bit]
    if len(pivots) < u:
        return None
    for bit in sorted(pivots, reverse=True):  # back-substitute to one unknown per check
        row = pivots[bit]
        while rest := row & mask ^ bit:
            row ^= pivots[rest & -rest]
        pivots[bit] = row
    return {unknowns[bit.bit_length() - 1]: np.flatnonzero(np.unpackbits(np.frombuffer(
        (row >> u).to_bytes(row.bit_length() // 8 + 1, "little"), np.uint8), bitorder="little"))
        for bit, row in pivots.items()}


def _column_rows(code: Code, cols) -> list[int]:
    """Work-buffer rows of the stored cells of ``cols``."""
    return [i for c in cols for i in range((c - 1) * code.rows, c * code.rows)]


def decode_recipe(code: Code, erased: tuple[int, ...], *,
                  wanted: list[int] | tuple[int, ...] | None = None) -> XorSchedule:
    """The peel-order schedule that rebuilds the ``wanted`` columns (every
    erased one by default) and verifies the survivors.

    The schedule for all of ``erased`` is solved once, and for fewer wanted
    columns pruned once to the steps their cells and its checks depend on;
    both are cached, and so is the verdict on a rank-deficient pattern,
    which raises :class:`UnrecoverableError`, as does erasing more than
    n - k columns. A column outside 1..n, a wanted column that is not
    erased, or an empty ``wanted`` raises :class:`ParameterError`.
    """
    erased = tuple(sorted(set(erased)))
    if any(not 1 <= c <= code.n for c in erased):
        raise ParameterError(f"erased columns {erased} out of range 1..{code.n}")
    if len(erased) > code.n - code.k:
        raise UnrecoverableError(
            f"{len(erased)} erasures exceed the {code.n - code.k} parity columns")
    if wanted is not None and not wanted:
        raise ParameterError("wanted names no column")
    wanted = erased if wanted is None else tuple(sorted(set(wanted)))
    if not set(wanted) <= set(erased):
        raise ParameterError(f"wanted columns {list(wanted)} are not all erased")
    schedule = _solve_schedule(code, erased, wanted)
    if schedule is None:
        raise UnrecoverableError(
            f"erasure pattern {list(erased)} is not decodable for {code.family} p={code.p}")
    return schedule


def _run_steps(buf: np.ndarray, schedule: XorSchedule) -> None:
    """Run the steps of ``schedule`` on the rows of ``buf``: XOR each step's
    source rows into its target row. Blocks of more than ``_IN_PLACE`` bytes
    run in place, over whole rows (:func:`_xor_rows`); smaller ones run the
    schedule's program for their size (:meth:`XorSchedule.program`)."""
    if buf.shape[1] > _IN_PLACE:
        _xor_rows(list(buf), schedule.steps)
        return
    for run, *args in schedule.program(buf.shape[1]):
        run(buf, *args)


def _reduce_one(buf: np.ndarray, target: int, sources: np.ndarray) -> None:
    np.bitwise_xor.reduce(buf.take(sources, axis=0), axis=0, out=buf[target])


def _reduce_batch(buf: np.ndarray, targets: np.ndarray, sources: np.ndarray) -> None:
    buf[targets] = np.bitwise_xor.reduce(buf.take(sources, axis=0), axis=0)


def _run_paths(buf: np.ndarray, targets: np.ndarray, rows: np.ndarray,
               segments: tuple, ends: np.ndarray) -> None:
    gathered = buf.take(rows, axis=0)
    for a, b in segments:
        np.bitwise_xor.accumulate(gathered[a:b], axis=0, out=gathered[a:b])
    buf[targets] = gathered.take(ends, axis=0)


def _compile(schedule: XorSchedule, block: int) -> tuple:
    """The operations that run ``schedule`` on blocks of ``block`` bytes,
    each ``(function, targets, sources, ...)`` for ``function(buf, ...)``.

    Levelled form: the steps of one level and one width form a group, and
    the groups run level by level, as no step reads a target of its own
    level. A group runs in batches, each one gather of its ``(width,
    steps)`` source matrix reduced over axis 0 (about 2x faster at 16-byte
    blocks than a ``(steps, width)`` gather over axis 1); a batch of one
    step reduces straight into its target.

    Path form: when each step above level 0 reads no target above level 0
    but that of the step above level 0 just before it, those steps form
    paths (a peel chain), and a step's target is the XOR of the sources of
    its path up to it, the targets the path reads left out. After the level-0
    groups, the paths' sources are gathered end to end in batches, each path
    in a batch one prefix XOR (:func:`_run_paths`); a path cut by a batch
    reads its last target again as a source in the next one.

    A gather keeps within ``_GATHER`` bytes unless one step alone reads
    more. The form making fewer NumPy calls at this block size runs (two per
    single step, three per batch, three per path batch and one per path in
    it), the levelled form on a tie; when no two steps fit in one gather,
    each runs alone, in schedule order (4 KiB blocks at p=7).
    """
    block = max(block, 1)  # zero-byte blocks batch as one-byte ones do
    widths = schedule.widths
    if 2 * int(widths.min()) * block > _GATHER:
        return tuple((_reduce_one, t, schedule.sources[a:a + w]) for t, a, w in zip(
            schedule.targets.tolist(), schedule.starts.tolist(), widths.tolist()))
    levels, span = schedule.levels, int(widths.max()) + 1
    key, count = np.unique(levels * span + widths, return_counts=True)
    batch = np.maximum(_GATHER // (key % span * block), 1)
    calls = 3 * -(-count // batch) - np.where(batch == 1, count, count % batch == 1)
    flat = int(calls[key < span].sum())  # the level-0 groups
    paths = _paths(schedule, block, int(calls.sum()) - flat)
    if paths is None:
        return _levelled(schedule, block, np.arange(len(levels)))
    return _levelled(schedule, block, np.flatnonzero(levels == 0)) + paths


def _levelled(schedule: XorSchedule, block: int, ids: np.ndarray) -> tuple:
    targets, sources, starts = schedule.targets, schedule.sources, schedule.starts
    members: dict[tuple[int, int], list[int]] = {}
    for i, key in zip(ids.tolist(), zip(schedule.levels[ids].tolist(),
                                        schedule.widths[ids].tolist())):
        members.setdefault(key, []).append(i)
    ops = []
    for (_, width), group in sorted(members.items()):
        batch = max(_GATHER // (width * block), 1)
        for chunk in (group[a:a + batch] for a in range(0, len(group), batch)):
            rows = sources[starts[chunk] + np.arange(width)[:, None]]  # (width, steps)
            ops.append((_reduce_one, int(targets[chunk[0]]), rows[:, 0]) if len(chunk) == 1
                       else (_reduce_batch, targets[chunk], rows))
    return tuple(ops)


def _paths(schedule: XorSchedule, block: int, spare: int) -> tuple | None:
    """The path batches of the steps above level 0, or None when those do
    not form paths or make ``spare`` NumPy calls or more (:func:`_compile`)."""
    levels, (readers, writers) = schedule.levels, schedule.links
    later = np.flatnonzero(levels > 0)
    place = np.full(len(levels), -1)
    place[later] = np.arange(len(later))
    chain = levels[writers] > 0
    after = place[readers[chain]]
    if 3 + len(later) - len(after) >= spare or (after != place[writers[chain]] + 1).any():
        return None
    follows = np.zeros(len(later), dtype=bool)  # reads the target of the step before
    follows[after] = True
    widths = schedule.widths[later]
    cuts, size, budget, calls = [0], 0, max(_GATHER // block, 1), 4
    for k, width in enumerate((widths - follows).tolist()):
        if k > cuts[-1] and size + width > budget:
            cuts.append(k)  # a new batch, where the step reads the target before it again
            size, follows[k], calls = int(follows[k]), False, calls + 4
        elif not follows[k] and k:
            calls += 1
        size += width
    if calls >= spare:
        return None
    targets = schedule.targets[later]
    cells = schedule.sources[np.repeat(levels > 0, schedule.widths)]
    cells = cells[cells != np.repeat(np.where(follows, np.roll(targets, 1), -1), widths)]
    top = np.concatenate([[0], np.cumsum(widths - follows)])
    ops = []
    for a, b in zip(cuts, cuts[1:] + [len(later)]):
        heads = (top[a:b][~follows[a:b]] - top[a]).tolist()
        ops.append((_run_paths, targets[a:b], cells[top[a]:top[b]],
                    tuple(zip(heads, heads[1:] + [top[b] - top[a]])),
                    top[a + 1:b + 1] - top[a] - 1))
    return tuple(ops)


def _xor_rows(blocks: list, steps) -> None:
    """Run ``steps`` in order on whole blocks where they lie: ``blocks[row]``
    is the block of a work-buffer row, a view of wherever it is kept. Each
    step XORs its first two sources into its target (a check has at least
    three cells), then each further source onto it: one NumPy call per
    source, and no copy."""
    for target, sources in steps:
        out, (a, b, *rest) = blocks[target], sources.tolist()
        np.bitwise_xor(blocks[a], blocks[b], out=out)
        for row in rest:
            out ^= blocks[row]


def _execute(schedule: XorSchedule, source, out: dict[int, np.ndarray]) -> None:
    """Run ``schedule`` on the columns ``source.column(c)`` it reads, and
    leave the solved cells of each column of ``out`` (column ->
    ``(rows, block)`` array) in that array. ``out`` names every column whose
    stored cells the schedule writes.

    Every column read is asked for before any byte is XORed, so a source
    that refuses one (a failed cluster node) raises first. Blocks of more
    than ``_IN_PLACE`` bytes run in place (:func:`_xor_rows`): every column
    read and every ``out`` column is viewed whole, row by row, so sources
    are read where they lie and targets written into ``out``; the virtual
    cells and check rows share one scratch array. Smaller blocks are gathered
    whole: the cells the schedule reads, one index per column, go into one
    work buffer, the schedule's program for the block size runs on it
    (:func:`_run_steps`), and the ``out`` columns are copied out. Either way
    the check rows come last in the scratch array, and a non-zero one raises
    :class:`CorruptionError`.
    """
    code, block = schedule.code, source.block_size
    columns = [source.column(c) for c, _, _ in schedule.reads]
    if block > _IN_PLACE:
        scratch = np.empty((schedule.slots, block), dtype=np.uint8)
        blocks: list = [None] * (code.rows * code.n) + list(scratch)
        for (c, _, _), column in zip(schedule.reads, columns):
            blocks[(c - 1) * code.rows:c * code.rows] = column
        for c, cells in out.items():
            blocks[(c - 1) * code.rows:c * code.rows] = cells
        _xor_rows(blocks, schedule.steps)
    else:
        scratch = np.empty((code.rows * code.n + schedule.slots, block), dtype=np.uint8)
        for (_, rows, col_rows), column in zip(schedule.reads, columns):
            scratch[rows] = column[col_rows] if isinstance(col_rows, slice) else \
                column.take(col_rows, axis=0)
        _run_steps(scratch, schedule)
        for c, cells in out.items():
            cells[:] = scratch[(c - 1) * code.rows:c * code.rows]
    checks = len(schedule.targets) - schedule.solves
    if checks and scratch[-checks:].any():  # the check steps come last
        raise CorruptionError("surviving columns are inconsistent: a parity check fails")


def encode(code: Code, info: np.ndarray) -> CodeGrid:
    """Encode an information array of shape ``code.info_shape + (block,)``.

    The information blocks are copied into a work buffer with one extra row
    per virtual adjuster cell, and the code's parity schedule is run on it
    by the same executor that decodes erasures.
    """
    info = np.asarray(info, dtype=np.uint8)
    if info.ndim != 3 or info.shape[:2] != code.info_shape:
        raise ParameterError(
            f"info shape {info.shape} does not match {code.info_shape} + (block,)")
    rows, cols, block = info.shape
    buf = _encode_buffer(code, block)
    cell_view(code, buf)[:rows, :cols] = info
    return _encode_in_place(code, buf)


def _encode_buffer(code: Code, block: int) -> np.ndarray:
    """An unset work buffer for :func:`_encode_in_place`: the information
    cells are for the caller to fill, through :func:`cell_view`."""
    return np.empty((code.rows * code.n + _encode_schedule(code).slots, block),
                    dtype=np.uint8)


def _encode_in_place(code: Code, buf: np.ndarray) -> CodeGrid:
    """Compute the parity cells of a work buffer whose information cells
    are filled; returns the grid over it."""
    _run_steps(buf, _encode_schedule(code))
    return CodeGrid(code, cell_view(code, buf))


def mds_decode(code: Code, source, erased: list[int] | tuple[int, ...],
               *, wanted: list[int] | tuple[int, ...] | None = None) -> CodeGrid:
    """Rebuild the ``wanted`` erased columns (all of ``erased`` by default)
    from the surviving ones.

    ``source`` supplies the surviving columns: a :class:`CodeGrid`, or
    anything else with ``column(c)`` and ``block_size``, such as a simulated
    cluster; erased columns are never asked for. The peel-order schedule of
    :func:`decode_recipe` runs on :func:`_execute`, which reads only the
    survivor cells it needs, blocks over ``_IN_PLACE`` bytes where they lie
    and smaller ones gathered whole. Each parity check no peel
    step used is XORed into a scratch row; any row left non-zero raises
    :class:`CorruptionError`. With n - k columns erased there are no such
    checks: every set of survivors then decodes to a codeword.

    By default the whole grid is returned, survivors copied in; with nothing
    erased every check is verified. With ``wanted`` given only the wanted
    columns are defined; every other column holds undefined bytes. An empty
    ``wanted`` raises :class:`ParameterError`, as a column outside 1..n
    does: :func:`decode_recipe` checks every column argument.

    Any pattern of up to n - k erased columns is tried, and the rank of its
    parity checks decides: a rank-deficient pattern (possible only past the
    proven tolerance, in extended codes with r > 3) raises
    :class:`UnrecoverableError`, as does erasing more than n - k columns.
    """
    schedule = decode_recipe(code, erased, wanted=wanted)
    cells = cell_view(code, np.empty((code.rows * code.n, source.block_size), dtype=np.uint8))
    _execute(schedule, source, {c: cells[:, c - 1] for c in erased})
    if wanted is None:
        for c in range(1, code.n + 1):
            if c not in erased:
                cells[:, c - 1] = source.column(c)
    return CodeGrid(code, cells)
