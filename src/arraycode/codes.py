"""The five binary MDS array-code families and a generic erasure decoder.

All families live on a grid of byte blocks over a prime ``p``:

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

Slope-v parity of the evenodd family tree is
``b[i, v] = adjuster(v) XOR sum_j a[<i + v*(1-j)>, j]`` where the adjuster
is the XOR of the index-0 line of that slope and ``adjuster(0) = 0``.

:func:`mds_decode` runs a schedule compiled once per erasure pattern. The
schedule peels the parity checks: a check with one unknown cell left solves
that cell, from survivors and cells solved before it. In the evenodd tree
each sloped adjuster is a virtual cell ``Coord(0, parity column)``, defined
by its line and by the XOR of the slope-0 and slope-v parity columns, so
every two-column erasure peels. Cells peeling cannot reach are solved by
GF(2) elimination. One work buffer holds the cells and the virtual cells;
each step gathers its sources and XOR-reduces them into its target, in
fixed-size byte chunks.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from functools import lru_cache
from threading import Lock

import numpy as np

from .core import (
    Coord,
    CorruptionError,
    ParameterError,
    ParityGroupId,
    UnrecoverableError,
    adjuster_line,
    is_prime,
    mod_index,
    parity_group_members,
)

__all__ = [
    "Code",
    "CodeGrid",
    "encode",
    "mds_decode",
    "parity_check_equations",
    "random_info",
]

_EVENODD_TREE = ("evenodd", "evenodd-ext", "star")


@dataclass(frozen=True)
class Code:
    """Family tag plus parameters; use the classmethod constructors."""

    family: str
    p: int
    r: int

    @classmethod
    def evenodd(cls, p: int) -> "Code":
        _check_prime(p)
        return cls("evenodd", p, 2)

    @classmethod
    def evenodd_ext(cls, p: int, r: int) -> "Code":
        _check_prime(p)
        if not 2 <= r <= 5:
            raise ParameterError(f"extended code supports r in 2..5, got {r}")
        if r >= p:
            raise ParameterError(f"r={r} needs p > r, got p={p}")
        return cls("evenodd-ext", p, r)

    @classmethod
    def rdp(cls, p: int) -> "Code":
        _check_prime(p)
        return cls("rdp", p, 2)

    @classmethod
    def xcode(cls, p: int) -> "Code":
        _check_prime(p)
        if p < 5:
            raise ParameterError("xcode needs p >= 5")
        return cls("xcode", p, 2)

    @classmethod
    def star(cls, p: int) -> "Code":
        _check_prime(p)
        return cls("star", p, 3)

    @classmethod
    def make(cls, family: str, p: int, r: int | None = None) -> "Code":
        """Build a code from a family name, as the CLI and file headers do."""
        if family == "evenodd":
            return cls.evenodd(p)
        if family == "evenodd-ext":
            return cls.evenodd_ext(p, 3 if r is None else r)
        if family == "rdp":
            return cls.rdp(p)
        if family == "xcode":
            return cls.xcode(p)
        if family == "star":
            return cls.star(p)
        raise ParameterError(f"unknown family {family!r}")

    # -- geometry ---------------------------------------------------------

    @property
    def slopes(self) -> tuple[int, ...]:
        """Parity slopes, in stored parity-column order (evenodd tree only)."""
        if self.family == "evenodd":
            return (0, 1)
        if self.family == "evenodd-ext":
            return tuple(range(self.r))
        if self.family == "star":
            return (0, 1, -1)
        raise ParameterError(f"{self.family} has no slope-indexed parity columns")

    @property
    def n(self) -> int:
        return {"evenodd": self.p + 2, "evenodd-ext": self.p + self.r,
                "rdp": self.p + 1, "xcode": self.p, "star": self.p + 3}[self.family]

    @property
    def k(self) -> int:
        return {"evenodd": self.p, "evenodd-ext": self.p, "rdp": self.p - 1,
                "xcode": self.p - 2, "star": self.p}[self.family]

    @property
    def rows(self) -> int:
        """Stored rows per column."""
        return self.p if self.family == "xcode" else self.p - 1

    @property
    def info_cols(self) -> int:
        """Count of pure-data columns (xcode keeps data in rows instead)."""
        return self.k if self.family != "xcode" else self.p

    @property
    def info_shape(self) -> tuple[int, int]:
        if self.family == "xcode":
            return (self.p - 2, self.p)
        return (self.p - 1, self.k)

    @property
    def total_info_blocks(self) -> int:
        r, c = self.info_shape
        return r * c

    @property
    def erasure_tolerance(self) -> int:
        if self.family == "evenodd-ext":
            return min(self.r, 3)
        return 3 if self.family == "star" else 2

    def parity_col(self, slope: int) -> int:
        """Column holding the parities of a slope (evenodd tree only)."""
        return self.p + 1 + self.slopes.index(slope)

    def systematic_cols(self) -> range:
        return range(1, self.info_cols + 1)


def _check_prime(p: int) -> None:
    if not is_prime(p) or p < 3:
        raise ParameterError(f"p must be an odd prime >= 3, got {p}")


@dataclass
class CodeGrid:
    """An encoded array: ``cells[row-1, col-1]`` is one block (uint8 vector)."""

    code: Code
    cells: np.ndarray  # shape (rows, n, block_size)

    @property
    def block_size(self) -> int:
        return int(self.cells.shape[2])

    def cell(self, coord: Coord) -> np.ndarray:
        if coord.row == self.code.p and self.code.family != "xcode":
            return np.zeros(self.block_size, dtype=np.uint8)
        return self.cells[coord.row - 1, coord.col - 1]

    def set_cell(self, coord: Coord, value: np.ndarray) -> None:
        self.cells[coord.row - 1, coord.col - 1] = value

    def column(self, col: int) -> np.ndarray:
        return self.cells[:, col - 1]

    def copy(self) -> "CodeGrid":
        return CodeGrid(self.code, self.cells.copy())

    def info(self) -> np.ndarray:
        rows, cols = self.code.info_shape
        return self.cells[:rows, :cols]


def random_info(code: Code, block_size: int, rng: np.random.Generator) -> np.ndarray:
    rows, cols = code.info_shape
    return rng.integers(0, 256, size=(rows, cols, block_size), dtype=np.uint8)


# ---------------------------------------------------------------------------
# encoding
# ---------------------------------------------------------------------------

def encode(code: Code, info: np.ndarray) -> CodeGrid:
    """Encode an information array of shape ``code.info_shape + (block,)``."""
    info = np.asarray(info, dtype=np.uint8)
    if info.ndim != 3 or info.shape[:2] != code.info_shape:
        raise ParameterError(
            f"info shape {info.shape} does not match {code.info_shape} + (block,)")
    block = info.shape[2]
    grid = CodeGrid(code, np.zeros((code.rows, code.n, block), dtype=np.uint8))
    if code.family in _EVENODD_TREE:
        _encode_evenodd_tree(code, info, grid)
    elif code.family == "rdp":
        _encode_rdp(code, info, grid)
    else:
        _encode_xcode(code, info, grid)
    return grid


def _line_xor(grid_info: np.ndarray, p: int, coords: list[Coord]) -> np.ndarray:
    """XOR of real (non-imaginary) cells of a line over an info array."""
    block = grid_info.shape[2]
    out = np.zeros(block, dtype=np.uint8)
    for c in coords:
        if c.row != p:
            out ^= grid_info[c.row - 1, c.col - 1]
    return out


def _encode_evenodd_tree(code: Code, info: np.ndarray, grid: CodeGrid) -> None:
    p = code.p
    grid.cells[:, :p] = info
    for v in code.slopes:
        col = code.parity_col(v) - 1
        if v == 0:
            # plain row parity across the data columns
            grid.cells[:, col] = np.bitwise_xor.reduce(info, axis=1)
            continue
        adjuster = _line_xor(info, p, adjuster_line(p, v))
        for i in range(1, p):
            members = parity_group_members(p, ParityGroupId(v, i))
            grid.cells[i - 1, col] = adjuster ^ _line_xor(info, p, members)


def _encode_rdp(code: Code, info: np.ndarray, grid: CodeGrid) -> None:
    p = code.p
    grid.cells[:, : p - 1] = info
    # row parity over the data columns
    grid.cells[:, p - 1] = np.bitwise_xor.reduce(info, axis=1)
    # diagonal parity: the slope-1 line through (i, 1) over columns 1..p,
    # which picks up one row-parity block; the line through (p, 1) is skipped
    left = grid.cells[:, :p]
    for i in range(1, p):
        members = parity_group_members(p, ParityGroupId(1, i))
        grid.cells[i - 1, p] = _line_xor(left, p, members)


def _encode_xcode(code: Code, info: np.ndarray, grid: CodeGrid) -> None:
    p = code.p
    grid.cells[: p - 2] = info
    for c in range(1, p + 1):
        # slope -1 parity covers the line through its own cell (p-1, c),
        # skipping the row-p cell: data member of row r sits in col <c+r+1>
        grid.cells[p - 2, c - 1] = _line_xor(
            info, p, [Coord(r, mod_index(c + r + 1, p)) for r in range(1, p - 1)])
        # slope +1 parity at (p, c) covers the line through the excluded cell
        # (p-1, c): data member of row r sits in col <c-r-1>
        grid.cells[p - 1, c - 1] = _line_xor(
            info, p, [Coord(r, mod_index(c - r - 1, p)) for r in range(1, p - 1)])


# ---------------------------------------------------------------------------
# parity-check equations (shared by the decoder and by tests)
# ---------------------------------------------------------------------------

def parity_check_equations(code: Code) -> list[list[Coord]]:
    """Coordinate sets of stored cells, each XOR-summing to zero.

    Imaginary cells are dropped. Every stored parity block appears in
    exactly one equation together with the cells that define it.
    """
    p = code.p
    eqs: list[list[Coord]] = []
    if code.family in _EVENODD_TREE:
        for v in code.slopes:
            pcol = code.parity_col(v)
            adj = [c for c in adjuster_line(p, v) if c.row != p] if v != 0 else []
            for i in range(1, p):
                members = [c for c in parity_group_members(p, ParityGroupId(v, i))
                           if c.row != p]
                eqs.append([Coord(i, pcol)] + members + adj)
    elif code.family == "rdp":
        for i in range(1, p):
            eqs.append([Coord(i, p)] + [Coord(i, j) for j in range(1, p)])
        for i in range(1, p):
            members = [c for c in parity_group_members(p, ParityGroupId(1, i))
                       if c.row != p]
            eqs.append([Coord(i, p + 1)] + members)
    else:
        for c in range(1, p + 1):
            eqs.append([Coord(p - 1, c)] + [
                Coord(r, mod_index(c + r + 1, p)) for r in range(1, p - 1)])
            eqs.append([Coord(p, c)] + [
                Coord(r, mod_index(c - r - 1, p)) for r in range(1, p - 1)])
    return eqs


# ---------------------------------------------------------------------------
# generic erasure decoding
# ---------------------------------------------------------------------------

# bytes of each block one gather reads: a step's sources stay in cache, and a
# gather of whole 64 KiB blocks was measured slower than this
_CHUNK = 8192
# compiled schedules kept; each holds about 0.1 MB at p=53
_CACHE_SIZE = 128

_recipe_cache: OrderedDict[tuple, "DecodeSchedule"] = OrderedDict()
_recipe_lock = Lock()


class DecodeSchedule(dict):
    """Peel-order decode recipe: rebuilt cell -> the cells XORed into it.

    Entries run in order; every source is a surviving cell or the key of an
    earlier entry. ``Coord(0, c)`` is the virtual adjuster cell of the
    evenodd-tree parity column ``c``. ``eliminated`` names the cells peeling
    could not reach, solved by GF(2) elimination instead. ``steps`` is the
    schedule compiled to ``(target, sources)`` row indices of a work buffer
    holding the ``rows * n`` cells followed by ``slots`` virtual cells.
    """

    def __init__(self, code: Code, recipe: dict[Coord, tuple[Coord, ...]],
                 eliminated: tuple[Coord, ...]):
        super().__init__(recipe)
        self.eliminated = eliminated
        n, base = code.n, code.rows * code.n
        virtual: dict[Coord, int] = {}

        def index(c: Coord) -> int:
            if c.row:
                return (c.row - 1) * n + c.col - 1
            return virtual.setdefault(c, base + len(virtual))

        self.steps = tuple((index(t), np.array([index(c) for c in srcs], dtype=np.intp))
                           for t, srcs in recipe.items())
        self.slots = len(virtual)


@lru_cache(maxsize=8)
def _decode_equations(code: Code) -> tuple[tuple[Coord, ...], ...]:
    """Parity checks with each sloped adjuster replaced by its virtual cell.

    Two more equations define the virtual cell ``s`` of slope ``v``: the
    adjuster line itself, and ``s = (XOR of the slope-0 parity column) XOR
    (XOR of the slope-v parity column)``, which holds because p-1 is even.
    With them every two-column erasure peels without elimination. Cached
    per code, so the schedules of one code share its Coord objects.
    """
    eqs = parity_check_equations(code)
    if code.family not in _EVENODD_TREE:
        return tuple(map(tuple, eqs))
    p = code.p
    column = {c: [Coord(i, c) for i in range(1, p)] for c in range(p + 1, code.n + 1)}
    adjusters = {}
    for v in code.slopes:
        if v:
            pcol = code.parity_col(v)
            adjusters[pcol] = frozenset(c for c in adjuster_line(p, v) if c.row != p)
    out = []
    for eq in eqs:
        adj = adjusters.get(eq[0].col)
        if adj is not None:  # a slope-v check: name the adjuster cell instead
            eq = [c for c in eq if c not in adj] + [Coord(0, eq[0].col)]
        out.append(tuple(eq))
    for pcol, adj in adjusters.items():
        out.append((Coord(0, pcol), *sorted(adj)))
        out.append((Coord(0, pcol), *column[code.parity_col(0)], *column[pcol]))
    return tuple(out)


def _solve_schedule(code: Code, erased: tuple[int, ...]) -> DecodeSchedule:
    """Peel the parity checks into a triangular schedule of erased cells.

    Repeatedly take a check with exactly one unknown cell left and solve that
    cell from the others, which may be cells solved earlier. Cells left when
    peeling stalls (three-erasure patterns of some families, and r > 3) are
    solved by elimination; steps no erased cell depends on are dropped.
    """
    eqs = _decode_equations(code)
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
    needed = set(lost)
    for target in reversed(list(recipe)):
        if target in needed:
            needed.update(recipe[target])
        else:
            del recipe[target]
    return DecodeSchedule(code, recipe, tuple(c for c in eliminated if c in recipe))


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


def decode_recipe(code: Code, erased: tuple[int, ...]) -> DecodeSchedule:
    """The cached peel-order schedule that rebuilds the ``erased`` columns."""
    key = (code.family, code.p, code.r, tuple(sorted(erased)))
    with _recipe_lock:
        recipe = _recipe_cache.get(key)
        if recipe is not None:
            _recipe_cache.move_to_end(key)
            return recipe
    recipe = _solve_schedule(code, key[3])
    with _recipe_lock:
        recipe = _recipe_cache.setdefault(key, recipe)
        _recipe_cache.move_to_end(key)
        while len(_recipe_cache) > _CACHE_SIZE:
            _recipe_cache.popitem(last=False)
    return recipe


def _run_steps(buf: np.ndarray, steps) -> None:
    """XOR each step's source rows of ``buf`` into its target row, in order.

    Runs chunk by chunk over the block bytes: a step only reads bytes of the
    same chunk that earlier steps wrote, and one chunk's gather stays small.
    """
    for lo in range(0, buf.shape[1], _CHUNK):
        hi = lo + _CHUNK
        for target, sources in steps:
            np.bitwise_xor.reduce(buf[sources, lo:hi], axis=0, out=buf[target, lo:hi])


def mds_decode(code: Code, grid: CodeGrid, erased: list[int] | tuple[int, ...],
               *, allow_unchecked: bool = False) -> CodeGrid:
    """Rebuild erased columns from the surviving ones.

    ``grid`` supplies the surviving columns (erased ones are ignored). The
    cells are copied once into a work buffer with one extra row per virtual
    adjuster cell, and the peel-order schedule of :func:`decode_recipe` is
    run on it: each step gathers its source rows and XOR-reduces them into
    its target, in fixed-size byte chunks. The repaired grid is re-encoded
    and compared against every surviving block; any mismatch raises
    :class:`CorruptionError`.

    Patterns beyond the family's proven tolerance are refused unless
    ``allow_unchecked`` is set (extended codes with r > 3); the elimination
    fallback then decides solvability case by case.
    """
    erased = tuple(sorted(set(erased)))
    if not erased:
        return grid.copy()
    if any(not 1 <= c <= code.n for c in erased):
        raise ParameterError(f"erased columns {erased} out of range 1..{code.n}")
    limit = code.erasure_tolerance
    if allow_unchecked and code.family == "evenodd-ext":
        limit = code.r
    if len(erased) > limit:
        raise UnrecoverableError(
            f"{len(erased)} erasures exceed the supported tolerance {limit}")
    recipe = decode_recipe(code, erased)
    rows, n, block = grid.cells.shape
    buf = np.empty((rows * n + recipe.slots, block), dtype=np.uint8)
    cells = buf[:rows * n].reshape(rows, n, block)
    cells[...] = grid.cells
    _run_steps(buf, recipe.steps)
    reencoded = encode(code, CodeGrid(code, cells).info())
    live = [c for c in range(1, code.n + 1) if c not in erased]
    for col in live:
        if not np.array_equal(reencoded.column(col), grid.column(col)):
            raise CorruptionError(f"surviving column {col} is inconsistent")
    return reencoded
