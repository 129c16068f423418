"""Bandwidth-efficient repair plans.

A plan rebuilds each lost cell from one of the decoder's labelled parity
checks (``codes._decode_equations``): a group is that check, chosen per lost
cell by its slope, put to work on the cell. Each ``plan_*`` function is a
chooser over those choices for one family; :func:`_plan` builds every plan
from its choices, listing the groups in solve order and the exact
transmissions that feed them, and checks one rule: a group's members in
erased columns are targets of earlier groups, and every stored cell of the
recovered column is some group's target (else :class:`PlanError`). It works
on the decoder's integer cell indices, the work-buffer rows, and makes the
public objects' :class:`Coord` s once, at the end. Transmissions are:

* ``raw``    one stored block, identified by its coordinate;
* ``parity`` one stored parity block, identified by its cell and slope;
* ``sum``    the XOR of a whole parity column, computed by the node that
  stores it and shipped as a single block.

In the evenodd tree every slope-v check names that slope's adjuster (the
XOR of the index-0 line) as a virtual cell, which a repairing node gets by
XORing the slope-v and slope-0 column sums; the index-0 check is the
adjuster line itself. Blocks wanted by several groups are shipped once: the
transmissions are a set union, which is where the bandwidth savings come
from. Plans only target data columns; a parity column is decoded whole, at
naive cost, by the cluster layer.

:func:`execute_plan` turns each group into one step over work-buffer rows
and runs the steps on the decoder's executor (``codes._execute``), reading
only the shipped blocks, straight from the live columns.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from itertools import accumulate, chain, compress, repeat
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from .codes import Code, XorSchedule, _column_rows, _decode_equations, _execute
from .core import Coord, ParameterError, ParityGroupId, PlanError, mod_index

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


class Transmission(NamedTuple):
    source: int
    kind: str  # "raw" | "parity" | "sum"
    coord: Coord | None = None
    slope: int | None = None


@dataclass(frozen=True)
class GroupUse:
    """One decoder check put to work on one lost cell, its ``target``.

    ``group`` is the check's label. ``parity_coord`` is the stored parity
    cell the check lists first, or None when that cell is the target (an
    X-code parity cell) or the check has none (an adjuster line).
    ``adjuster_slope`` is the slope of the virtual adjuster cell the check
    names, if any. ``members`` holds the check's other stored cells,
    including cells in erased columns that an earlier group of the same
    plan rebuilds (plans are solved in order).
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
# groups and transmissions: one decoder check per lost cell
# ---------------------------------------------------------------------------

def _plan(code: Code, erased: tuple[int, ...], choices: Iterable[tuple[tuple[int, int], int]],
          sum_slopes: Sequence[int] = (), **extra) -> RepairPlan:
    """Rebuild the cell of each ((row, col), slope) choice, in order, from its
    labelled check of that slope; the first erased column is recovered.

    The check's stored head is the group's ``parity_coord`` unless it is the
    cell, its virtual cell the ``adjuster_slope``, its other stored cells the
    ``members``. Transmissions: the sums, each group's parity block, then
    the surviving members in (column, row), that is work-buffer row, order.
    """
    for col in erased:
        if not 1 <= col <= code.info_cols:
            raise ParameterError(f"erased column {col} is not a data column")
    eqs = _decode_equations(code)
    rows, stored, coords = code.rows, code.rows * code.n, eqs.coords
    choices = [(r, c, v) for (r, c), v in choices]
    for r, c, v in choices:  # a cell of an erased column, and a slope with checks
        if c not in erased or not 0 < r <= rows or v not in eqs.slopes:
            raise PlanError(f"no slope-{v} check through {Coord(r, c)}")
    row, col, slope = np.fromiter(chain.from_iterable(choices), dtype=np.intp).reshape(-1, 3).T
    target, order = (col - 1) * rows + row - 1, np.arange(len(row))
    in_erased = np.bincount(erased, minlength=code.n + 2) > 0  # column -> erased; 0, n+1 never
    check = _lookup(eqs, in_erased, target, slope)
    if (check < 0).any():
        g = int(np.argmax(check < 0))
        raise PlanError(f"no slope-{slope[g]} check through {coords[target[g]]}")
    cells = eqs.table[check]
    head, body = cells[:, 0], cells[:, 1:]
    parity = (head < stored) & (head != target)
    member = (body >= 0) & (body < stored) & (body != target[:, None])
    lost = member & in_erased[body // rows + 1]
    first = np.full(stored, len(order))  # the first group rebuilding each cell
    np.minimum.at(first, target, order)
    late = lost & (first[np.where(lost, body, 0)] >= order[:, None])
    if late.any():
        g, m = np.argwhere(late)[0]
        raise PlanError(f"{coords[target[g]]} needs {coords[body[g, m]]}, "
                        "which no earlier group rebuilds")
    if missed := [coords[c] for c in _column_rows(code, erased[:1]) if first[c] == len(order)]:
        raise PlanError(f"no group rebuilds {missed}")
    shipped = np.zeros(stored, dtype=bool)
    shipped[body[member & ~lost]] = True
    shipped[head[parity]] = False
    ends = list(accumulate(member.sum(axis=1).tolist()))
    members = tuple(map(coords.__getitem__, body[member].tolist()))
    groups = tuple(
        GroupUse(ParityGroupId(v, i), coords[t], coords[h] if has_parity else None,
                 members[lo:hi], v if adjusted else None)
        for v, i, t, h, has_parity, lo, hi, adjusted in zip(
            slope.tolist(), eqs.index[check].tolist(), target.tolist(), head.tolist(),
            parity.tolist(), [0, *ends], ends, (cells >= stored).any(axis=1).tolist()))
    sent = np.concatenate([head[parity], np.flatnonzero(shipped)])
    tx = [Transmission(code.parity_col(v), "sum", None, v) for v in sum_slopes]
    tx += map(partial(tuple.__new__, Transmission), zip(  # from plain tuples, at C speed
        (sent // rows + 1).tolist(), chain(repeat("parity", int(parity.sum())), repeat("raw")),
        map(coords.__getitem__, sent.tolist()), chain(slope[parity].tolist(), repeat(None))))
    return RepairPlan(code, erased, erased[0], groups, tuple(tx), **extra)


def _lookup(eqs, in_erased: np.ndarray, target: np.ndarray, slope: np.ndarray) -> np.ndarray:
    """The row of ``eqs.table`` with the labelled check of each ``slope``
    through each ``target`` (a cell of an erased column), or -1."""
    rows, stored = eqs.code.rows, eqs.code.rows * eqs.code.n
    lo = min(eqs.slopes)
    on = np.full((max(eqs.slopes) - lo + 1) * stored, -1)  # per slope: buffer row -> check
    check, k = np.nonzero(in_erased[eqs.table // rows + 1] & (eqs.table < stored))
    on[(eqs.slope[check] - lo) * stored + eqs.table[check, k]] = check
    return on[(slope - lo) * stored + target]


def _ordered_rows(p: int, erased_col: int) -> list[int]:
    """Rows of the erased column, the one sitting on the index-0 slope-1
    line first: its slope-1 check stores no parity block (in RDP there is
    none), so it repairs flat whenever any row does."""
    rows = list(range(1, p))
    special = mod_index(1 - erased_col, p)
    if special != p:
        rows.remove(special)
        rows.insert(0, special)
    return rows


# ---------------------------------------------------------------------------
# planners
# ---------------------------------------------------------------------------

def _split_plan(code: Code, col: int, x: int, sum_slopes: Sequence[int] = ()) -> RepairPlan:
    """x rows of ``col`` flat, the rest on slope 1 (see :func:`_ordered_rows`)."""
    rows = _ordered_rows(code.p, col)
    flat, sloped = sorted(rows[:x]), sorted(rows[x:])
    choices = [((i, col), 0) for i in flat] + [((i, col), 1) for i in sloped]
    return _plan(code, (col,), choices, sum_slopes, horizontal_rows=tuple(flat))


def plan_evenodd_single(code: Code, col: int, x: int | None = None) -> RepairPlan:
    """Repair one data column with x flat groups and p-1-x slope-1 groups.

    Works for any family of the evenodd tree (the slope-0 and slope-1
    parity columns are defined identically across it). The transmission
    count is (p-1)*p + 2 - (x+1)*(p-1-x), minimized at x = (p-1)/2.
    With x = 0 and an erased column other than 1, the row on the index-0
    slope-1 line repairs through the adjuster line and the plan comes in
    one block under that count.
    """
    p = code.p
    if code.slopes[:2] != (0, 1):
        raise ParameterError(f"not an evenodd-tree code: {code}")
    if x is None:
        x = (p - 1) // 2
    if not 0 <= x <= p - 1:
        raise ParameterError(f"x={x} out of range 0..{p - 1}")
    return _split_plan(code, col, x, sum_slopes=(0, 1))


def plan_extended_single(code: Code, col: int,
                         partition: Sequence[frozenset[int]] | None = None) -> RepairPlan:
    """Repair one data column of the r-parity extended code.

    Each erased row is rebuilt through the check of the slope its partition
    class names; all r column sums travel along so every adjuster is
    available. r=2 exists as a consistency path (it must match the
    flat/sloped split above); r in 3..5 is the useful range.
    """
    from .analysis import default_partition, validate_partition
    p, r = code.p, code.r
    if partition is None:
        partition = default_partition(p, r)
    validate_partition(p, r, partition)
    choices = [((m, col), v) for v, cls in enumerate(partition) for m in sorted(cls)]
    return _plan(code, (col,), choices, sum_slopes=tuple(range(r)),
                 meta={"partition": [sorted(c) for c in partition]})


def plan_rdp_single(code: Code, col: int) -> RepairPlan:
    """Repair one data column: half the rows flat, half diagonally.

    The diagonal through (p, 1) has no parity block, so the row of the
    erased column sitting on it always repairs flat. Every flat group
    crosses every diagonal group in one shipped block, giving
    3*(p-1)^2/4 transmissions.
    """
    return _split_plan(code, col, (code.p - 1) // 2)


def plan_xcode_single(code: Code, col: int) -> RepairPlan:
    """Repair one X-code column.

    Both parity cells of the column force their own checks; the p-2 data
    cells split (p-1)/2 to slope +1 and the rest to slope -1, lowest rows
    first. Savings come from slope-(+1)/slope-(-1) group pairs whose lines
    meet in a shipped data cell; meetings in the two parity rows save
    nothing.
    """
    p = code.p
    choices = [((r, col), 1 if r <= (p - 1) // 2 else -1) for r in range(1, p - 1)]
    return _plan(code, (col,), choices + [((p - 1, col), -1), ((p, col), 1)])


def _star_schedule(p: int) -> list[tuple[int, int]]:
    """(slope, multiple-of-x) entries; the group of entry (v, m) meets the
    first erased column in row <m*x> and the second in row <(m-v)*x>."""
    out = []
    for t in range(1, (p - 1) // 2 + 1):
        out.append((-1, 2 * (t - 1)))
        out.append((0, 2 * t - 1))
        out.append((1, 2 * t))
    return out


def plan_star_double(code: Code, erased: tuple[int, int]) -> RepairPlan:
    """Repair the first of two erased data columns of a STAR code.

    Walks a chain of slope -1, 0, +1 checks; each meets the erased pair in
    one already-recovered cell and one new cell, so a single pass rebuilds
    the whole first column (and every other row of the second). A slope -1
    check rebuilds its cell in the second column, the others theirs in the
    first. Like every plan, the chain is checked in solve order as it is
    built (:func:`_plan`); a chain that does not rebuild the column raises
    :class:`PlanError`.
    """
    p = code.p
    c, other = erased
    if c == other:
        raise ParameterError(f"need two distinct data columns, got {erased}")
    x = (other - c) % p
    choices = [((mod_index((m - v) * x, p), other) if v == -1
                else (mod_index(m * x, p), c), v)
               for v, m in _star_schedule(p)]
    plan = _plan(code, (c, other), choices, sum_slopes=(0, 1, -1))
    savings = (p - 1) * (p - 2) - sum(t.kind == "raw" for t in plan.transmissions)
    plan.meta.update(x=x, savings=savings, parity_values=len(plan.groups))
    return plan


# ---------------------------------------------------------------------------
# execution
# ---------------------------------------------------------------------------

def execute_plan(plan: RepairPlan, source) -> dict[Coord, np.ndarray]:
    """Run a plan against surviving data and return the recovered cells.

    ``source`` is a :class:`CodeGrid` or anything else with ``column(c)``
    and ``block_size``, such as a simulated cluster. Each group becomes one
    step over work-buffer rows, target <- (adjuster, parity cell, members),
    each adjuster the decoder's column identity, and the steps run on the
    decoder's executor, reading only the shipped blocks. Before any byte is
    read, a transmission from an erased column, an adjuster whose sums were
    not shipped, or a member neither shipped nor rebuilt by an earlier group
    (the plan is rank deficient) raises :class:`PlanError`.
    """
    code, groups = plan.code, plan.groups
    rows, stored = code.rows, code.rows * code.n
    source_of, kind, coord, slope = list(zip(*plan.transmissions)) or [()] * 4
    if not set(plan.erased).isdisjoint(source_of):
        raise PlanError("transmission sourced from erased column "
                        f"{next(c for c in source_of if c in plan.erased)}")
    sums = set(compress(slope, map("sum".__eq__, kind)))
    identities = _decode_equations(code).identities
    steps = []
    for v in sorted({g.adjuster_slope for g in groups} - {None}):
        if not {0, v} <= sums:
            raise PlanError(f"adjuster for slope {v} not shipped")
        steps.append((int(identities[v][0]), identities[v][1:]))
    sent = list(filter(None, coord))  # every kind but the sums has a coord
    srcs = [g.members if g.parity_coord is None else (g.parity_coord, *g.members) for g in groups]
    cells = _rows(rows, chain(sent, (g.target for g in groups), chain.from_iterable(srcs)))
    shipped = np.zeros(stored, dtype=bool)
    shipped[cells[:len(sent)]] = True
    target, cells = cells[len(sent):len(sent) + len(groups)], cells[len(sent) + len(groups):]
    sizes = [len(s) for s in srcs]
    first = np.full(stored, len(groups))  # the first group rebuilding each cell
    np.minimum.at(first, target, np.arange(len(groups)))
    known = shipped[cells] | (first[cells] < np.repeat(np.arange(len(groups)), sizes))
    if not known.all():
        c = int(cells[np.argmin(known)])
        raise PlanError(f"member {Coord(c % rows + 1, c // rows + 1)} "
                        "neither shipped nor recovered yet")
    ends = list(accumulate(sizes))
    for g, t, lo, hi in zip(groups, target.tolist(), [0, *ends], ends):
        sources = cells[lo:hi]
        if g.adjuster_slope is not None:
            sources = np.concatenate([identities[g.adjuster_slope][:1], sources])
        steps.append((t, sources))
    columns = {c: np.empty((rows, source.block_size), dtype=np.uint8)
               for c in {g.target.col for g in groups}}
    _execute(XorSchedule(code, tuple(steps), len(steps)), source, columns)
    return {g.target: columns[g.target.col][g.target.row - 1] for g in groups}


def _rows(rows: int, coords: Iterable[Coord]) -> np.ndarray:
    """Work-buffer rows of stored cells (:func:`codes._cell_index`)."""
    cells = np.fromiter(chain.from_iterable(coords), dtype=np.intp).reshape(-1, 2)
    return (cells[:, 1] - 1) * rows + cells[:, 0] - 1


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
