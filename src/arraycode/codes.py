"""The five binary MDS array-code families and a generic erasure decoder.

Each family is defined once, as a :class:`FamilySpec` in :data:`FAMILIES`:
its r policy, its geometry, its labelled parity checks, the names of its
repair planners, its closed-form repair bandwidth and its container tag.
Every other layer reads the table instead of naming a family. All families
live on a grid of byte blocks over a prime ``p``:

* ``evenodd``      (p-1) x (p+2): p data columns, slope-0 and slope-1 parity.
* ``evenodd-ext``  (p-1) x (p+r): p data columns, slopes 0..r-1. MDS is
  guaranteed for r <= 3; r in {4, 5} encode fine but decoding more than 3
  erasures must be requested explicitly.
* ``rdp``          (p-1) x (p+1): p-1 data columns, a row-parity column and a
  diagonal-parity column whose diagonals include the row parity. The
  diagonal through (p, 1) carries no parity block.
* ``xcode``        p x p: rows 1..p-2 hold data, row p-1 holds slope -1
  parity (skipping row p) and row p holds slope +1 parity (skipping row p-1).
* ``star``         (p-1) x (p+3): p data columns, slopes 0, +1 and -1.

Slope-v parity of the evenodd family tree (the families with slopes) is
``b[i, v] = adjuster(v) XOR sum_j a[<i + v*(1-j)>, j]`` where the adjuster
is the XOR of the index-0 line of that slope and ``adjuster(0) = 0``.

Encoding, decoding and plan execution share one executor. Each compiles
its equations to an ordered ``(target, sources)`` XOR schedule over a work
buffer that holds the cells and one row per virtual cell; each step gathers
its sources and XOR-reduces them into its target, in fixed-size byte chunks.
In the evenodd tree each sloped adjuster is a virtual cell
``Coord(0, parity column)``.

Grids are stored column-major, as the container file stores them: column
``c`` is one contiguous run of ``rows`` blocks, so the stored cell
``(r, c)`` is row ``(c-1)*rows + r-1`` of a work buffer (:func:`cell_view`
gives the logical ``(rows, n, block)`` view of such a buffer).

* :func:`encode` runs one schedule per code in place: each adjuster from
  its line, then every parity cell from its check.
* Decoding and plan execution read data only through :func:`_execute`:
  per chunk it gathers the cells a schedule reads from the live columns of
  a grid or a simulated cluster, runs the steps and copies out the result.
* :func:`mds_decode` runs a schedule compiled once per erasure pattern. It
  peels the parity checks: a check with one unknown cell left solves that
  cell, from survivors and cells solved before it. Adjusters are also
  defined by the XOR of the slope-0 and slope-v parity columns, so every
  two-column erasure peels. Cells peeling cannot reach are solved by GF(2)
  elimination. A caller that wants fewer columns than are erased gets the
  cached schedule pruned to the steps those columns depend on.
* Verification reuses the executor: each parity check no peel step used is
  XORed into a scratch row that must come out zero in every chunk. With
  n - k columns erased there are none, since every set of survivors then
  decodes to a codeword and no check can fail.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from typing import Callable, NamedTuple

import numpy as np

from .core import (
    Coord,
    CorruptionError,
    ParameterError,
    ParityGroupId,
    UnrecoverableError,
    coord_table,
    is_prime,
    parity_group_members,
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
    "parity_check_equations",
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

    @classmethod
    def evenodd(cls, p: int) -> "Code":
        return cls.make("evenodd", p)

    @classmethod
    def evenodd_ext(cls, p: int, r: int) -> "Code":
        return cls("evenodd-ext", p, r)

    @classmethod
    def rdp(cls, p: int) -> "Code":
        return cls.make("rdp", p)

    @classmethod
    def xcode(cls, p: int) -> "Code":
        return cls.make("xcode", p)

    @classmethod
    def star(cls, p: int) -> "Code":
        return cls.make("star", p)

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

    def info(self) -> np.ndarray:
        rows, cols = self.code.info_shape
        return self.cells[:rows, :cols]


def cell_view(code: Code, buf: np.ndarray) -> np.ndarray:
    """The ``(rows, n, block)`` cells over the first ``rows * n`` rows of a
    ``(cells, block)`` buffer, stored column by column."""
    stored = buf[:code.rows * code.n].reshape(code.n, code.rows, buf.shape[1])
    return stored.transpose(1, 0, 2)


def _cell_index(rows: int, c: Coord) -> int:
    """Row of the stored cell ``c`` of a code with ``rows`` rows, in a buffer
    laid out by :func:`cell_view`."""
    return (c.col - 1) * rows + c.row - 1


def random_info(code: Code, block_size: int, rng: np.random.Generator) -> np.ndarray:
    rows, cols = code.info_shape
    return rng.integers(0, 256, size=(rows, cols, block_size), dtype=np.uint8)


# ---------------------------------------------------------------------------
# parity-check equations (shared by the encoder, the decoder and the planner)
# ---------------------------------------------------------------------------

def xcode_line(p: int, slope: int, col: int) -> list[Coord]:
    """Data cells covered by the X-code parity of ``slope`` stored in ``col``.

    Slope -1 parity sits at (p-1, col); slope +1 parity sits at (p, col) and
    covers the line through the cell (p-1, col) it skips.
    """
    step = 1 if slope == -1 else -1
    cell = coord_table(p)
    return [cell[r][(col + step * (r + 1) - 1) % p + 1] for r in range(1, p - 1)]


# a parity check: its label, and the cells that XOR-sum to zero
Check = tuple[ParityGroupId, list[Coord]]


def parity_check_equations(code: Code) -> list[list[Coord]]:
    """Coordinate sets of stored cells, each XOR-summing to zero.

    Imaginary cells are dropped. Every stored parity block appears in
    exactly one equation, listed first, together with the cells that define
    it; in RDP the row-parity checks precede the diagonal ones that read
    row parity.
    """
    return [cells for _, cells in code.spec.equations(code)]


def _line(p: int, gid: ParityGroupId) -> list[Coord]:
    """The stored cells of a parity line: its imaginary cell dropped."""
    return [c for c in parity_group_members(p, gid) if c.row != p]


def _tree_equations(code: Code) -> list[Check]:
    """Slope-v checks list their parity cell, their line, then the adjuster
    line of the slope (:func:`_decode_equations` relies on that order)."""
    p, cell = code.p, coord_table(code.p)
    eqs = []
    for v in code.slopes:
        pcol = code.parity_col(v)
        adj = _line(p, ParityGroupId(v, 0)) if v != 0 else []
        for i in range(1, p):
            gid = ParityGroupId(v, i)
            eqs.append((gid, [cell[i][pcol]] + _line(p, gid) + adj))
    return eqs


def _rdp_equations(code: Code) -> list[Check]:
    p, cell = code.p, coord_table(code.p)
    eqs = [(ParityGroupId(0, i), [cell[i][p], *cell[i][1:p]]) for i in range(1, p)]
    for i in range(1, p):
        gid = ParityGroupId(1, i)
        eqs.append((gid, [cell[i][p + 1]] + _line(p, gid)))
    return eqs


def _xcode_equations(code: Code) -> list[Check]:
    p, cell = code.p, coord_table(code.p)
    eqs = []
    for c in range(1, p + 1):
        eqs.append((ParityGroupId(-1, c), [cell[p - 1][c]] + xcode_line(p, -1, c)))
        eqs.append((ParityGroupId(1, c), [cell[p][c]] + xcode_line(p, 1, c)))
    return eqs


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

    ``equations`` lists the family's parity checks, each labelled with its
    :class:`ParityGroupId`; the decoder and the repair planners read them.
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
    equations: Callable[[Code], list[Check]]
    plan_single: str  # planner function: (code, erased data column) -> RepairPlan
    closed_form: Callable[[int, int], int]  # (p, r) -> blocks of its analyze plan
    plan_double: str | None = None  # planner function: (code, (col, other)) -> RepairPlan
    analyze_erased: tuple[int, ...] = (1,)  # the pattern ``analyze`` plans

    def lowest_p(self, r: int) -> int:
        """The least p the family allows with ``r``: ``min_p``, and above r
        where r is chosen (a fixed r is ignored, as :meth:`Code.make` does)."""
        return max(self.min_p, r + 1) if self.r_range else self.min_p

    def plan(self, code: Code, erased: tuple[int, ...]):
        """The repair plan for the first of the ``erased`` data columns, or
        None when the family has no planner for that many erasures."""
        from . import planner
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

# bytes of each block one gather reads: a step's sources stay in cache, and a
# gather of whole 64 KiB blocks was measured slower than this
_CHUNK = 8192
# compiled schedules kept; each holds about 0.1 MB at p=53
_CACHE_SIZE = 128


class XorSchedule(dict):
    """An ordered XOR recipe: computed cell -> the cells XORed into it.

    Entries run in order; every source is a given cell (surviving, or
    information when encoding) or the key of an earlier entry.
    ``Coord(0, c)`` is the virtual adjuster cell of the evenodd-tree parity
    column ``c``. ``eliminated`` names the cells a decode schedule's peeling
    could not reach, solved by GF(2) elimination instead. ``checks`` are the
    parity checks a decode verifies, each a tuple of cells XOR-summing to
    zero. ``steps`` is the schedule compiled to ``(target, sources)`` row
    indices of a work buffer holding the ``rows * n`` cells of ``code``
    (:func:`_cell_index`) followed by ``slots`` rows: the virtual cells, then
    one scratch row per check, which the last steps XOR each check into.
    """

    def __init__(self, code: Code, recipe: dict[Coord, tuple[Coord, ...]], steps,
                 slots: int, eliminated: tuple[Coord, ...] = (),
                 checks: tuple[tuple[Coord, ...], ...] = ()):
        super().__init__(recipe)
        self.code = code
        self.steps = steps
        self.slots = slots
        self.eliminated = eliminated
        self.checks = checks

    @classmethod
    def compile(cls, code: Code, recipe: dict[Coord, tuple[Coord, ...]],
                eliminated: tuple[Coord, ...] = (),
                checks: tuple[tuple[Coord, ...], ...] = ()) -> "XorSchedule":
        rows, base = code.rows, code.rows * code.n
        virtual: dict[Coord, int] = {}

        def index(c: Coord) -> int:
            if c.row:
                return _cell_index(rows, c)
            return virtual.setdefault(c, base + len(virtual))

        def sources(cells) -> np.ndarray:
            return np.array([index(c) for c in cells], dtype=np.intp)

        steps = [(index(t), sources(srcs)) for t, srcs in recipe.items()]
        scratch = base + len(virtual)
        steps += [(scratch + i, sources(eq)) for i, eq in enumerate(checks)]
        return cls(code, recipe, tuple(steps), scratch + len(checks) - base,
                   eliminated, checks)

    def pruned(self, keep) -> "XorSchedule":
        """The entries that the buffer rows ``keep`` or the checks depend on,
        in order, over the same buffer layout: walking the steps backwards,
        a step is kept when its target is needed, and its sources become
        needed."""
        solves = len(self)
        needed = set(keep)
        for _, sources in self.steps[solves:]:
            needed.update(sources.tolist())
        kept = []
        for i in reversed(range(solves)):
            target, sources = self.steps[i]
            if target in needed:
                needed.update(sources.tolist())
                kept.append(i)
        kept.reverse()
        entries = list(self.items())
        recipe = dict(entries[i] for i in kept)
        return XorSchedule(self.code, recipe,
                           tuple(self.steps[i] for i in kept) + self.steps[solves:],
                           self.slots, tuple(c for c in self.eliminated if c in recipe),
                           self.checks)

    @cached_property
    def reads(self) -> tuple:
        """``(column, buffer rows, column rows)`` of each column's stored
        cells the steps read and never write: the gather :func:`_execute`
        makes, worked out once per schedule."""
        rows, n = self.code.rows, self.code.n
        read = np.zeros(rows * n + self.slots, dtype=bool)
        read[np.concatenate([s for _, s in self.steps])] = True
        read[[t for t, _ in self.steps]] = False
        out = []
        for c in range(n):
            col = np.flatnonzero(read[c * rows:(c + 1) * rows])
            if len(col) == rows:  # a whole column: slices copy without a temporary
                out.append((c + 1, slice(c * rows, (c + 1) * rows), slice(None)))
            elif len(col):
                out.append((c + 1, c * rows + col, col))
        return tuple(out)


@lru_cache(maxsize=2)
def _decode_equations(code: Code) -> tuple[tuple[ParityGroupId | None, tuple[Coord, ...]], ...]:
    """Labelled parity checks, each sloped adjuster replaced by its virtual cell.

    Two more equations define the virtual cell ``s`` of slope ``v``: the
    adjuster line itself, labelled ``(v, 0)``, and the unlabelled
    ``s = (XOR of the slope-0 parity column) XOR (XOR of the slope-v parity
    column)``, which holds because p-1 is even. With them every two-column
    erasure peels without elimination. Every check draws its cells from
    :func:`coord_table`. The decoder and the planner both read them, so a
    sweep over p would fill a larger cache with the checks of its largest
    codes (about 0.3 MB each at p=101); two codes cover the code in use.
    """
    p, cell = code.p, coord_table(code.p)
    adjusters = {code.parity_col(v): (v, _line(p, ParityGroupId(v, 0)))
                 for v in code.slopes if v}
    out = []
    for gid, eq in code.spec.equations(code):
        if eq[0].col in adjusters:  # a slope-v check: name the adjuster cell instead
            eq = [*eq[:-len(adjusters[eq[0].col][1])], cell[0][eq[0].col]]
        out.append((gid, tuple(eq)))
    flat = [cell[i][code.parity_col(0)] for i in range(1, p)] if adjusters else []
    for pcol, (v, adj) in adjusters.items():
        out.append((ParityGroupId(v, 0), (cell[0][pcol], *sorted(adj))))
        out.append((None, (cell[0][pcol], *flat, *(cell[i][pcol] for i in range(1, p)))))
    return tuple(out)


@lru_cache(maxsize=8)
def _encode_schedule(code: Code) -> XorSchedule:
    """Parity generation, compiled from the decoder's equations.

    Each sloped adjuster line is solved into its virtual cell first, then
    every parity check for the parity cell it lists first, in equation
    order. The column identities that also define the adjusters are left
    out: they serve decoding only and would double a step's sources.
    """
    eqs = _decode_equations(code)
    lines = [eq for gid, eq in eqs if gid is not None and not eq[0].row]
    checks = [eq for _, eq in eqs if eq[0].row]
    return XorSchedule.compile(code, {eq[0]: eq[1:] for eq in lines + checks})


@lru_cache(maxsize=_CACHE_SIZE)
def _solve_schedule(code: Code, erased: tuple[int, ...],
                    wanted: tuple[int, ...]) -> XorSchedule:
    """Peel the parity checks into a triangular schedule of erased cells.

    Repeatedly take a check with exactly one unknown cell left and solve that
    cell from the others, which may be cells solved earlier. Cells left when
    peeling stalls (three-erasure patterns of some families, and r > 3) are
    solved by elimination. The checks no peel step used become the
    schedule's verification checks, none when n - k columns are erased (see
    :func:`mds_decode`). Steps neither a ``wanted`` cell nor a check depends
    on are dropped; a schedule for fewer columns than ``erased`` is pruned
    from the cached one for all of them.
    """
    if wanted != erased:
        return _solve_schedule(code, erased, erased).pruned(_column_rows(code, wanted))
    eqs = [eq for _, eq in _decode_equations(code)]
    lost = [Coord(r, c) for c in erased for r in range(1, code.rows + 1)]
    lost_set = set(lost)
    unknown_of = [[c for c in eq if c in lost_set or c.row == 0] for eq in eqs]
    eqs_of: dict[Coord, list[int]] = {}
    for e, unknowns in enumerate(unknown_of):
        for c in unknowns:
            eqs_of.setdefault(c, []).append(e)
    left = [len(u) for u in unknown_of]
    queue = [e for e, count in enumerate(left) if count == 1]
    recipe: dict[Coord, tuple[Coord, ...]] = {}
    eliminated: list[Coord] = []
    used: set[int] = set()

    def solve(target: Coord, sources: tuple[Coord, ...]) -> None:
        recipe[target] = sources
        for e2 in eqs_of[target]:
            left[e2] -= 1
            if left[e2] == 1:
                queue.append(e2)

    unknowns = lost + sorted(c for c in eqs_of if c.row == 0)
    options: dict[Coord, tuple[Coord, ...]] = {}
    while True:
        while queue:
            e = queue.pop()
            target = next((c for c in unknown_of[e] if c not in recipe), None)
            if target is not None:  # else another check solved its last unknown
                used.add(e)
                solve(target, tuple(c for c in eqs[e] if c != target))
        rest = [c for c in unknowns if c not in recipe]
        if not rest:
            break
        # peeling stalled: solve the cheapest cell elimination offers, then peel on
        if not options:
            options = _eliminate(code, erased, eqs, rest)
        target = min(rest, key=lambda c: len(options[c]))
        eliminated.append(target)
        solve(target, options[target])
    checks = () if len(erased) == code.n - code.k else \
        tuple(eq for e, eq in enumerate(eqs) if e not in used)
    schedule = XorSchedule.compile(code, recipe, tuple(eliminated), checks)
    return schedule.pruned(_column_rows(code, erased))


def _eliminate(code: Code, erased: tuple[int, ...], eqs,
               unknowns: list[Coord]) -> dict[Coord, tuple[Coord, ...]]:
    """Express each of ``unknowns`` as an XOR of surviving or solved cells.

    Gauss-Jordan elimination over GF(2), tracking which equations were
    combined; their known-cell lists symmetric-difference into the recovery
    set. Raises :class:`UnrecoverableError` if the system is rank-deficient.
    """
    idx = {coord: i for i, coord in enumerate(unknowns)}
    pivots: dict[int, tuple[int, set[Coord]]] = {}
    for eq in eqs:
        mask = 0
        knowns: set[Coord] = set()
        for coord in eq:
            if coord in idx:
                mask |= 1 << idx[coord]
            else:
                knowns.add(coord)
        while mask:
            bit = mask & -mask
            if bit in pivots:
                pmask, pknowns = pivots[bit]
                mask ^= pmask
                knowns = knowns ^ pknowns
            else:
                pivots[bit] = (mask, knowns)
                break
    if len(pivots) < len(unknowns):
        raise UnrecoverableError(
            f"erasure pattern {sorted(erased)} is not decodable for {code.family} p={code.p}")
    # back-substitute so every pivot row holds a single unknown
    for bit in sorted(pivots, reverse=True):
        mask, knowns = pivots[bit]
        rest = mask ^ bit
        while rest:
            b2 = rest & -rest
            m2, k2 = pivots[b2]
            mask ^= m2
            knowns = knowns ^ k2
            rest = mask ^ bit
        pivots[bit] = (mask, knowns)
    return {unknowns[_bit_index(bit)]: tuple(sorted(knowns))
            for bit, (_, knowns) in sorted(pivots.items())}


def _bit_index(bit: int) -> int:
    return bit.bit_length() - 1


def _column_rows(code: Code, cols) -> list[int]:
    """Work-buffer rows of the stored cells of ``cols``."""
    return [i for c in cols for i in range((c - 1) * code.rows, c * code.rows)]


def decode_recipe(code: Code, erased: tuple[int, ...], *,
                  wanted: list[int] | tuple[int, ...] | None = None) -> XorSchedule:
    """The peel-order schedule that rebuilds the ``wanted`` columns (every
    erased one by default) and verifies the survivors.

    The schedule for all of ``erased`` is solved once, and for fewer wanted
    columns pruned once to the steps their cells and its checks depend on;
    both are cached.
    """
    erased = tuple(sorted(set(erased)))
    wanted = erased if wanted is None else tuple(sorted(set(wanted)))
    if not set(wanted) <= set(erased):
        raise ParameterError(f"wanted columns {list(wanted)} are not all erased")
    return _solve_schedule(code, erased, wanted)


def _run_steps(buf: np.ndarray, steps) -> None:
    """XOR each step's source rows of ``buf`` into its target row, in order.

    Runs chunk by chunk over the block bytes: a step only reads bytes of the
    same chunk that earlier steps wrote, and one chunk's gather stays small.
    """
    for lo in range(0, buf.shape[1], _CHUNK):
        hi = lo + _CHUNK
        for target, sources in steps:
            np.bitwise_xor.reduce(buf[sources, lo:hi], axis=0, out=buf[target, lo:hi])


def _execute(schedule: XorSchedule, source, out: dict[int, np.ndarray]) -> None:
    """Run ``schedule`` on the columns ``source.column(c)`` it reads, and
    copy each column of ``out`` (column -> ``(rows, block)`` array) out.

    Per chunk of every block: gather the cells the schedule reads, one index
    per column, so they stay in cache for the steps; run the steps; raise
    :class:`CorruptionError` if a check row is non-zero; copy out.
    """
    code, block = schedule.code, source.block_size
    gathers = [(source.column(c), rows, col_rows) for c, rows, col_rows in schedule.reads]
    buf = np.empty((code.rows * code.n + schedule.slots, min(block, _CHUNK)), dtype=np.uint8)
    checks = len(schedule.checks)
    for lo in range(0, block, _CHUNK):
        chunk = buf[:, :min(block - lo, _CHUNK)]
        hi = lo + chunk.shape[1]
        for column, rows, col_rows in gathers:
            chunk[rows] = column[col_rows, lo:hi]
        _run_steps(chunk, schedule.steps)
        if checks and chunk[-checks:].any():
            raise CorruptionError("surviving columns are inconsistent: a parity check fails")
        for c, cells in out.items():
            cells[:, lo:hi] = chunk[(c - 1) * code.rows:c * code.rows]


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
    _run_steps(buf, _encode_schedule(code).steps)
    return CodeGrid(code, cell_view(code, buf))


def mds_decode(code: Code, source, erased: list[int] | tuple[int, ...],
               *, wanted: list[int] | tuple[int, ...] | None = None,
               allow_unchecked: bool = False) -> CodeGrid:
    """Rebuild the ``wanted`` erased columns (all of ``erased`` by default)
    from the surviving ones.

    ``source`` supplies the surviving columns: a :class:`CodeGrid`, or
    anything else with ``column(c)`` and ``block_size``, such as a simulated
    cluster; erased columns are never asked for. The peel-order schedule of
    :func:`decode_recipe` runs on :func:`_execute`, which reads the
    survivors it needs in place, chunk by chunk. Each parity check no peel
    step used is XORed into a scratch row; any row left non-zero raises
    :class:`CorruptionError`. With n - k columns erased there are no such
    checks: every set of survivors then decodes to a codeword.

    By default the whole grid is returned, survivors copied in; with nothing
    erased every check is verified. With ``wanted`` given only the wanted
    columns are defined; every other column holds undefined bytes.

    Patterns beyond the family's proven tolerance are refused unless
    ``allow_unchecked`` is set, which raises the limit to n - k (it matters
    for extended codes with r > 3); the elimination fallback then decides
    solvability case by case.
    """
    erased = tuple(sorted(set(erased)))
    if any(not 1 <= c <= code.n for c in erased):
        raise ParameterError(f"erased columns {erased} out of range 1..{code.n}")
    limit = code.n - code.k if allow_unchecked else code.erasure_tolerance
    if len(erased) > limit:
        raise UnrecoverableError(
            f"{len(erased)} erasures exceed the supported tolerance {limit}")
    cells = cell_view(code, np.empty((code.rows * code.n, source.block_size), dtype=np.uint8))
    _execute(decode_recipe(code, erased, wanted=wanted), source,
             {c: cells[:, c - 1] for c in (erased if wanted is None else wanted)})
    if wanted is None:
        for c in range(1, code.n + 1):
            if c not in erased:
                cells[:, c - 1] = source.column(c)
    return CodeGrid(code, cells)
