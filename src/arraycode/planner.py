"""Bandwidth-efficient repair plans.

A plan names parity groups, one per block being rebuilt, and the exact
transmissions that feed them. Three transmission kinds exist:

* ``raw``    one stored block, identified by its coordinate;
* ``parity`` one stored parity block, identified by its cell and slope;
* ``sum``    the XOR of a whole parity column, computed by the node that
  stores it and shipped as a single block.

For the evenodd family tree every slope-v parity folds in that slope's
adjuster (the XOR of the index-0 line). A repairing node reconstructs the
adjuster of slope v by XORing the slope-v column sum with the slope-0
column sum, so plans that touch sloped groups carry ``sum`` transmissions.
An index-0 group has no stored parity block at all; its parity-side value
is the adjuster itself. Blocks wanted by several groups are shipped once:
the transmission list is a set union, which is where the bandwidth savings
over one-group-per-block accounting come from.

Plans only target data columns. Rebuilding a parity column is a plain
decode-then-reencode job and is handled by the cluster layer at naive cost.

:func:`execute_plan` compiles a plan to ``(target, sources)`` XOR steps and
runs them on the executor that encodes and decodes (``codes._run_steps``).
It reads only the shipped blocks, straight from the live columns.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

from .codes import _CHUNK, Code, _run_steps, xcode_line
from .core import (
    Coord,
    ParameterError,
    ParityGroupId,
    PlanError,
    mod_index,
    parity_group_members,
)

__all__ = [
    "Transmission",
    "GroupUse",
    "RepairPlan",
    "plan_evenodd_single",
    "plan_extended_single",
    "plan_rdp_single",
    "plan_xcode_single",
    "plan_star_double",
    "execute_plan",
    "plan_to_json",
]


@dataclass(frozen=True)
class Transmission:
    source: int
    kind: str  # "raw" | "parity" | "sum"
    coord: Coord | None = None
    slope: int | None = None


@dataclass(frozen=True)
class GroupUse:
    """One parity group put to work on one erased block.

    ``members`` holds every real line cell except the target, including
    cells in erased columns that an earlier group of the same plan rebuilds
    (plans are solved in order). ``parity_coord`` is None for index-0
    groups and for X-code groups whose own parity cell is the target;
    ``adjuster_slope`` names the adjuster folded into the equation.
    """

    group: ParityGroupId
    target: Coord
    parity_coord: Coord | None
    members: tuple[Coord, ...]
    adjuster_slope: int | None = None


@dataclass
class RepairPlan:
    code: Code
    erased: tuple[int, ...]
    recover_col: int
    groups: tuple[GroupUse, ...]
    transmissions: tuple[Transmission, ...]
    horizontal_rows: tuple[int, ...] | None = None
    meta: dict = field(default_factory=dict)

    @property
    def gamma(self) -> int:
        """Total blocks moved: every transmission costs exactly one block."""
        return len(self.transmissions)

    @property
    def x(self) -> int | None:
        return None if self.horizontal_rows is None else len(self.horizontal_rows)

    def raw_cells(self) -> set[Coord]:
        return {t.coord for t in self.transmissions if t.kind == "raw"}

    def parity_block_count(self) -> int:
        return sum(1 for t in self.transmissions if t.kind == "parity")

    def sum_count(self) -> int:
        return sum(1 for t in self.transmissions if t.kind == "sum")


# ---------------------------------------------------------------------------
# group equations per family
# ---------------------------------------------------------------------------

def _tree_group(code: Code, gid: ParityGroupId, target: Coord) -> GroupUse:
    """Evenodd-tree group rebuilding ``target`` (one of its line cells)."""
    p = code.p
    members = tuple(c for c in parity_group_members(p, gid)
                    if c.row != p and c != target)
    parity = None if gid.index == 0 else Coord(gid.index, code.parity_col(gid.slope))
    adj = gid.slope if gid.slope != 0 else None
    return GroupUse(gid, target, parity, members, adj)


def _rdp_group(code: Code, gid: ParityGroupId, target: Coord) -> GroupUse:
    p = code.p
    if gid.slope == 0:
        members = tuple(Coord(gid.index, j) for j in range(1, p) if j != target.col)
        parity = Coord(gid.index, p)
    else:
        members = tuple(c for c in parity_group_members(p, gid)
                        if c.row != p and c != target)
        parity = Coord(gid.index, p + 1)
    return GroupUse(gid, target, parity, members)


def _xcode_group(p: int, slope: int, parity_col: int, target: Coord) -> GroupUse:
    parity_cell = Coord(p - 1 if slope == -1 else p, parity_col)
    members = tuple(c for c in xcode_line(p, slope, parity_col) if c != target)
    gid = ParityGroupId(slope, parity_col)
    if parity_cell == target:
        return GroupUse(gid, target, None, members)
    return GroupUse(gid, target, parity_cell, members)


# ---------------------------------------------------------------------------
# transmissions
# ---------------------------------------------------------------------------

def _build_transmissions(code: Code, groups: Sequence[GroupUse],
                         erased: Iterable[int], *,
                         sum_slopes: Sequence[int] = ()) -> tuple[Transmission, ...]:
    """Sums first, then one parity block per stored group, then the union
    of surviving member cells ordered by (column, row)."""
    erased = set(erased)
    out: list[Transmission] = []
    for v in sum_slopes:
        out.append(Transmission(code.parity_col(v), "sum", None, v))
    shipped_parity: set[Coord] = set()
    for g in groups:
        if g.parity_coord is not None:
            out.append(Transmission(g.parity_coord.col, "parity",
                                    g.parity_coord, g.group.slope))
            shipped_parity.add(g.parity_coord)
    raw: set[Coord] = set()
    for g in groups:
        for m in g.members:
            if m.col not in erased and m not in shipped_parity:
                raw.add(m)
    for c in sorted(raw, key=lambda c: (c.col, c.row)):
        out.append(Transmission(c.col, "raw", c, None))
    return tuple(out)


def _ordered_rows(p: int, erased_col: int) -> list[int]:
    """Rows of the erased column, the one sitting on the index-0 slope-1
    line first (it has no usable sloped group and must repair flat)."""
    rows = list(range(1, p))
    special = mod_index(1 - erased_col, p)
    if special != p:
        rows.remove(special)
        rows.insert(0, special)
    return rows


# ---------------------------------------------------------------------------
# planners
# ---------------------------------------------------------------------------

def plan_evenodd_single(p: int, erased_col: int, x: int | None = None,
                        code: Code | None = None) -> RepairPlan:
    """Repair one data column with x flat groups and p-1-x slope-1 groups.

    Works for any family of the evenodd tree (the slope-0 and slope-1
    parity columns are defined identically across it). The transmission
    count is (p-1)*p + 2 - (x+1)*(p-1-x), minimized at x = (p-1)/2.
    With x = 0 and an erased column other than 1, the row on the index-0
    slope-1 line repairs through the adjuster pseudo-group and the plan
    comes in one block under that count.
    """
    code = code or Code.evenodd(p)
    if code.slopes[:2] != (0, 1) or code.p != p:
        raise ParameterError(f"not an evenodd-tree code for p={p}: {code}")
    if not 1 <= erased_col <= p:
        raise ParameterError(f"erased column {erased_col} is not a data column")
    if x is None:
        x = (p - 1) // 2
    if not 0 <= x <= p - 1:
        raise ParameterError(f"x={x} out of range 0..{p - 1}")
    rows = _ordered_rows(p, erased_col)
    flat, sloped = rows[:x], rows[x:]
    groups = [_tree_group(code, ParityGroupId(0, i), Coord(i, erased_col))
              for i in sorted(flat)]
    for i in sorted(sloped):
        idx = mod_index(i + erased_col - 1, p) % p  # index p behaves as 0
        groups.append(_tree_group(code, ParityGroupId(1, idx), Coord(i, erased_col)))
    tx = _build_transmissions(code, groups, [erased_col], sum_slopes=(0, 1))
    return RepairPlan(code, (erased_col,), erased_col, tuple(groups), tx,
                      horizontal_rows=tuple(sorted(flat)))


def plan_extended_single(p: int, r: int, erased_col: int = 1,
                         partition: Sequence[frozenset[int]] | None = None) -> RepairPlan:
    """Repair one data column of the r-parity extended code.

    Each erased row is rebuilt through the parity group of the slope its
    partition class names; all r column sums travel along so every
    adjuster is available. r=2 exists as a consistency path (it must match
    the flat/sloped split above); r in 3..5 is the useful range.
    """
    code = Code.evenodd_ext(p, r)
    if not 1 <= erased_col <= p:
        raise ParameterError(f"erased column {erased_col} is not a data column")
    from .analysis import default_partition, validate_partition
    if partition is None:
        partition = default_partition(p, r)
    validate_partition(p, r, partition)
    groups = []
    for v, cls in enumerate(partition):
        for m in sorted(cls):
            idx = mod_index(m + v * (erased_col - 1), p) % p
            groups.append(_tree_group(code, ParityGroupId(v, idx),
                                      Coord(m, erased_col)))
    tx = _build_transmissions(code, groups, [erased_col],
                              sum_slopes=tuple(range(r)))
    return RepairPlan(code, (erased_col,), erased_col, tuple(groups), tx,
                      meta={"partition": [sorted(c) for c in partition]})


def plan_rdp_single(p: int, erased_col: int) -> RepairPlan:
    """Repair one data column: half the rows flat, half diagonally.

    The diagonal through (p, 1) has no parity block, so the row of the
    erased column sitting on it always repairs flat. Every flat group
    crosses every diagonal group in one shipped block, giving
    3*(p-1)^2/4 transmissions.
    """
    code = Code.rdp(p)
    if not 1 <= erased_col <= p - 1:
        raise ParameterError(f"erased column {erased_col} is not a data column")
    rows = _ordered_rows(p, erased_col)
    half = (p - 1) // 2
    flat, sloped = rows[:half], rows[half:]
    groups = [_rdp_group(code, ParityGroupId(0, i), Coord(i, erased_col))
              for i in sorted(flat)]
    for i in sorted(sloped):
        idx = mod_index(i + erased_col - 1, p)
        if idx == p:
            raise PlanError("row on the parity-less diagonal must repair flat")
        groups.append(_rdp_group(code, ParityGroupId(1, idx), Coord(i, erased_col)))
    tx = _build_transmissions(code, groups, [erased_col])
    return RepairPlan(code, (erased_col,), erased_col, tuple(groups), tx,
                      horizontal_rows=tuple(sorted(flat)))


def plan_xcode_single(p: int, erased_col: int) -> RepairPlan:
    """Repair one X-code column.

    Both parity cells of the column force their own groups; the p-2 data
    cells split (p-1)/2 to slope +1 and the rest to slope -1, lowest rows
    first. Savings come from slope-(+1)/slope-(-1) group pairs whose lines
    meet in a shipped data cell; meetings in the two parity rows save
    nothing.
    """
    code = Code.xcode(p)
    if not 1 <= erased_col <= p:
        raise ParameterError(f"erased column {erased_col} out of range")
    e = erased_col
    groups = []
    for r in range(1, p - 1):
        if r <= (p - 1) // 2:
            groups.append(_xcode_group(p, 1, mod_index(e + r + 1, p), Coord(r, e)))
        else:
            groups.append(_xcode_group(p, -1, mod_index(e - r - 1, p), Coord(r, e)))
    groups.append(_xcode_group(p, -1, e, Coord(p - 1, e)))
    groups.append(_xcode_group(p, 1, e, Coord(p, e)))
    tx = _build_transmissions(code, groups, [erased_col])
    return RepairPlan(code, (erased_col,), erased_col, tuple(groups), tx)


def _star_schedule(p: int, x: int) -> list[tuple[int, int]]:
    """(slope, multiple-of-x) entries; the group of entry (v, m) meets the
    first erased column in row <m*x> and the second in row <(m-v)*x>."""
    out = []
    for t in range(1, (p - 1) // 2 + 1):
        out.append((-1, 2 * (t - 1)))
        out.append((0, 2 * t - 1))
        out.append((1, 2 * t))
    return out


def plan_star_double(p: int, erased: tuple[int, int]) -> RepairPlan:
    """Repair the first of two erased data columns of a STAR code.

    Walks a chain of slope -1, 0, +1 groups; each group meets the erased
    pair in one already-recovered cell and one new cell, so a single pass
    rebuilds the whole first column (and every other row of the second).
    The chain is checked by rank over GF(2) before the plan is returned;
    a chain that does not determine the column raises :class:`PlanError`.
    """
    code = Code.star(p)
    c, other = erased
    if c == other or not (1 <= c <= p and 1 <= other <= p):
        raise ParameterError(f"need two distinct data columns, got {erased}")
    x = (other - c) % p
    groups: list[GroupUse] = []
    for v, m in _star_schedule(p, x):
        idx = mod_index(m * x + v * (c - 1), p) % p
        row_here = mod_index(m * x, p)
        row_other = mod_index((m - v) * x, p)
        target = Coord(row_other, other) if v == -1 else Coord(row_here, c)
        groups.append(_tree_group(code, ParityGroupId(v, idx), target))
    if not _chain_solvable(code, groups, (c, other), c):
        raise PlanError(f"the group chain does not determine column {c} of {erased}")
    tx = _build_transmissions(code, groups, (c, other), sum_slopes=(0, 1, -1))
    raw_info = {t.coord for t in tx if t.kind == "raw"}
    savings = (p - 1) * (p - 2) - len(raw_info)
    return RepairPlan(code, (c, other), c, tuple(groups), tx,
                      meta={"x": x, "savings": savings, "parity_values": len(groups)})


def _chain_solvable(code: Code, groups: Sequence[GroupUse],
                    erased: tuple[int, ...], recover_col: int) -> bool:
    """Do the group equations determine every cell of recover_col?

    Each group contributes one GF(2) equation over the erased cells it
    meets; a cell is determined iff its unit vector lies in the row space.
    """
    p = code.p
    unknowns: dict[Coord, int] = {}
    for col in erased:
        for r in range(1, p):
            unknowns[Coord(r, col)] = len(unknowns)
    pivots: dict[int, int] = {}
    for g in groups:
        mask = 1 << unknowns[g.target] if g.target in unknowns else 0
        for m in g.members:
            if m in unknowns:
                mask |= 1 << unknowns[m]
        while mask:
            low = mask & -mask
            if low in pivots:
                mask ^= pivots[low]
            else:
                pivots[low] = mask
                break

    def in_rowspace(vec: int) -> bool:
        while vec:
            low = vec & -vec
            if low not in pivots:
                return False
            vec ^= pivots[low]
        return True

    return all(in_rowspace(1 << unknowns[Coord(r, recover_col)])
               for r in range(1, p))


# ---------------------------------------------------------------------------
# execution
# ---------------------------------------------------------------------------

def execute_plan(plan: RepairPlan, source) -> dict[Coord, np.ndarray]:
    """Run a plan against surviving data and return the recovered cells.

    ``source`` is a :class:`CodeGrid` or anything else with ``column(c)``
    and ``block_size``, such as a simulated cluster. The plan is compiled to
    ``(target, sources)`` steps over one buffer: a row per transmission, a
    row per adjuster (the slope-v column sum XOR the slope-0 one) and a row
    per group target. Only the shipped blocks are read, one gather per
    source column, and the steps run on the executor that encodes and
    decodes. The plan is checked before any byte is read: a transmission
    from an erased column, an adjuster whose sums were not shipped, or a
    member block neither shipped nor recovered by an earlier group (the
    plan is rank deficient) raises :class:`PlanError`.
    """
    row_of: dict[Coord, int] = {}  # shipped or recovered cell -> buffer row
    sum_rows: dict[int, int] = {}  # slope -> buffer row of its column sum
    gathers: dict[int, tuple[list[int], list[int]]] = {}  # col -> (buffer rows, its rows)
    for i, t in enumerate(plan.transmissions):
        if t.source in plan.erased:
            raise PlanError(f"transmission sourced from erased column {t.source}")
        if t.kind == "sum":
            sum_rows[t.slope] = i
        else:
            row_of[t.coord] = i
            rows, col_rows = gathers.setdefault(t.source, ([], []))
            rows.append(i)
            col_rows.append(t.coord.row - 1)
    steps = []
    adjuster_rows: dict[int, int] = {}
    if 0 in sum_rows:  # only evenodd-tree plans ship column sums
        for v, row in sum_rows.items():
            if v != 0:
                adjuster_rows[v] = len(plan.transmissions) + len(steps)
                steps.append((adjuster_rows[v],
                              np.array([row, sum_rows[0]], dtype=np.intp)))
    first = len(plan.transmissions) + len(steps)  # buffer row of the first group target
    for k, g in enumerate(plan.groups):
        sources = []
        if g.adjuster_slope is not None:
            if g.adjuster_slope not in adjuster_rows:
                raise PlanError(f"adjuster for slope {g.adjuster_slope} not shipped")
            sources.append(adjuster_rows[g.adjuster_slope])
        wanted = g.members if g.parity_coord is None else (g.parity_coord, *g.members)
        for m in wanted:
            if m not in row_of:
                raise PlanError(f"member {m} neither shipped nor recovered yet")
            sources.append(row_of[m])
        row_of[g.target] = first + k
        steps.append((first + k, np.array(sources, dtype=np.intp)))
    sums = [(row, plan.transmissions[row].source) for row in sum_rows.values()]
    columns = {c: source.column(c) for c in {*gathers, *(c for _, c in sums)}}
    block = source.block_size
    out = np.empty((len(plan.groups), block), dtype=np.uint8)
    buf = np.empty((first + len(plan.groups), min(block, _CHUNK)), dtype=np.uint8)
    # gather and run one chunk of every block at a time: the shipped blocks
    # then stay in cache between the gather and the steps that read them
    for lo in range(0, block, _CHUNK):
        chunk = buf[:, :min(block - lo, _CHUNK)]
        hi = lo + chunk.shape[1]
        for col, (rows, col_rows) in gathers.items():
            chunk[rows] = columns[col][col_rows, lo:hi]
        for row, col in sums:
            np.bitwise_xor.reduce(columns[col][:, lo:hi], axis=0, out=chunk[row])
        _run_steps(chunk, steps)
        out[:, lo:hi] = chunk[first:]
    return {g.target: out[row_of[g.target] - first] for g in plan.groups}


def recovered_column(plan: RepairPlan, recovered: dict[Coord, np.ndarray],
                     block_size: int) -> np.ndarray:
    code = plan.code
    out = np.zeros((code.rows, block_size), dtype=np.uint8)
    for r in range(1, code.rows + 1):
        cell = Coord(r, plan.recover_col)
        if cell not in recovered:
            raise PlanError(f"plan did not recover {cell}")
        out[r - 1] = recovered[cell]
    return out


def plan_to_json(plan: RepairPlan) -> dict:
    doc = {
        "family": plan.code.family,
        "p": plan.code.p,
        "r": plan.code.r,
        "erased": list(plan.erased),
        "groups": [{"slope": g.group.slope, "index": g.group.index}
                   for g in plan.groups],
        "transmissions": [
            {"source": t.source, "kind": t.kind,
             "row": None if t.coord is None else t.coord.row,
             "col": None if t.coord is None else t.coord.col,
             "slope": t.slope}
            for t in plan.transmissions],
        "gamma": plan.gamma,
    }
    if plan.horizontal_rows is not None:
        doc["x"] = len(plan.horizontal_rows)
    doc.update(plan.meta)
    return doc
