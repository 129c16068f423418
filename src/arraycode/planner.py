"""Bandwidth-efficient repair plans.

A plan rebuilds each lost cell from one of the decoder's labelled parity
checks (``codes._decode_equations``): a group is that check, chosen per lost
cell by its slope, put to work on the cell. Each ``plan_*`` function is a
chooser over those choices for one family; :func:`_plan` builds every plan
from its choices as a :class:`RepairPlan`, a few arrays over the decoder's
cell indices (the work-buffer rows): each group's check and target, in solve
order, and the stored cells shipped raw. What crosses the network:

* ``sum``    the XOR of a whole parity column, computed by the node that
  stores it and shipped as a single block;
* ``parity`` one stored parity block, the head of a group's check;
* ``raw``    one stored block.

In the evenodd tree every slope-v check names that slope's adjuster (the
XOR of the index-0 line) as a virtual cell, which a repairing node gets by
XORing the slope-v and slope-0 column sums; the index-0 check is the
adjuster line itself. Blocks wanted by several groups are shipped once,
which is where the bandwidth savings come from. Plans only target data
columns; a parity column is decoded whole, at naive cost, by the cluster.

A plan is immutable and is checked once, when it is built, by the one rule
that makes its schedule (:attr:`RepairPlan.schedule`): a group reads only
shipped cells and the targets of earlier groups, and the groups rebuild the
whole recovered column. :func:`execute_plan` runs that schedule, each group
one step, on the decoder's executor (``codes._execute``), reading only the
shipped blocks, from the live columns.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property, partial
from itertools import chain, repeat
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from .analysis import default_partition, validate_partition
from .codes import Code, XorSchedule, _coords, _decode_equations, _execute
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


@dataclass(eq=False, frozen=True)
class RepairPlan:
    """A repair plan: group ``g`` rebuilds the cell ``targets[g]`` from the
    labelled check ``checks[g]``, a row of the decoder's ``Equations.table``;
    groups run in order. Transmissions (:attr:`sources`): the sum of each of
    ``sum_slopes``, the parity block of each group whose check heads with a
    stored cell other than its target, then the ``raw`` cells, ascending.
    A plan is immutable; its :attr:`schedule`, which checks it, and the
    ``groups`` and ``transmissions`` views are made on first read.
    """

    code: Code
    erased: tuple[int, ...]
    recover_col: int
    checks: np.ndarray
    targets: np.ndarray
    raw: np.ndarray
    sum_slopes: tuple[int, ...] = ()
    meta: dict = field(default_factory=dict)

    @property
    def gamma(self) -> int:
        """Total blocks moved: every transmission costs exactly one block."""
        return len(self.sum_slopes) + self.parity_block_count() + len(self.raw)

    def parity_block_count(self) -> int:
        return int(self._cells[2].sum())

    @cached_property
    def _cells(self):
        """The decoder's equations, each group's check (head first, padded
        with -1) and which groups ship the check's head as a parity block."""
        eqs = _decode_equations(self.code)
        cells, stored = eqs.table[self.checks], self.code.rows * self.code.n
        return eqs, cells, (cells[:, 0] < stored) & (cells[:, 0] != self.targets)

    @cached_property
    def schedule(self) -> XorSchedule:
        """The plan's steps on the decoder's executor: each adjuster from its
        column identity, then each group's target from the other cells of
        its check. Raises :class:`PlanError` unless no transmission comes
        from an erased column, the sums of every adjuster a check names are
        shipped, each cell a group reads besides its target is shipped or
        rebuilt by an earlier group, and every stored cell of the recovered
        column is a target."""
        code, targets, rows = self.code, self.targets, self.code.rows
        stored = rows * code.n
        eqs, cells, parity = self._cells
        known = np.zeros(stored + len(eqs.identities), dtype=bool)  # the shipped cells
        known[self.raw] = known[cells[parity, 0]] = True
        sums = {code.parity_col(v) for v in self.sum_slopes}
        if bad := [c for c in self.erased if c in sums or known[(c - 1) * rows:c * rows].any()]:
            raise PlanError(f"transmission sourced from erased column {bad[0]}")
        at = np.flatnonzero(~known[cells])  # with every virtual cell and pad
        g, unknown = at // cells.shape[1], cells.take(at)  # each one's group and cell
        adjusters = sorted({code.slopes[c - stored + 1] for c in unknown.tolist() if c >= stored})
        if missing := [v for v in adjusters if not {0, v} <= set(self.sum_slopes)]:
            raise PlanError(f"adjuster for slope {missing[0]} not shipped")
        first = np.full(len(known), len(targets))  # the first group rebuilding each cell
        first[stored:] = -1  # the adjusters, from the sums, and the pads come first
        np.minimum.at(first, targets, np.arange(len(targets)))
        # first[c] == g only where c is group g's own target, which it writes
        if (late := first[unknown] > g).any():
            i = np.argmax(late)
            target, needed = _coords(code, (targets[g[i]], unknown[i]))
            raise PlanError(f"{target} needs {needed}, "
                            "neither shipped nor rebuilt by an earlier group")
        col = self.recover_col
        if len(missed := np.flatnonzero(first[(col - 1) * rows:col * rows] == len(targets))):
            raise PlanError(f"no group rebuilds rows {(missed + 1).tolist()} of column {col}")
        read = cells != targets[:, None]
        read.flat[at[unknown < 0]] = False  # the pads
        ids = [eqs.identities[v] for v in adjusters]
        return XorSchedule(code, np.concatenate([*(s[:1] for s in ids), targets]),
                           np.concatenate([*(s[1:] for s in ids), cells[read]]),
                           np.concatenate([np.array([len(s) - 1 for s in ids], dtype=np.intp),
                                           read.sum(axis=1)]),
                           len(ids) + len(targets))

    @property
    def sources(self) -> np.ndarray:
        """The column serving each transmission, in transmission order."""
        _, cells, parity = self._cells
        sums = np.array([self.code.parity_col(v) for v in self.sum_slopes], dtype=np.intp)
        return np.concatenate([sums, np.concatenate([cells[parity, 0], self.raw])
                               // self.code.rows + 1])

    @cached_property
    def groups(self) -> tuple[GroupUse, ...]:
        eqs, cells, parity = self._cells
        stored = self.code.rows * self.code.n
        coords = _coords(self.code, range(stored))
        return tuple(
            GroupUse(ParityGroupId(v, i), coords[t], coords[check[0]] if has_parity else None,
                     tuple(coords[c] for c in check[1:] if 0 <= c < stored and c != t),
                     v if max(check) >= stored else None)
            for v, i, t, check, has_parity in zip(
                eqs.slope[self.checks].tolist(), eqs.index[self.checks].tolist(),
                self.targets.tolist(), cells.tolist(), parity.tolist()))

    @cached_property
    def transmissions(self) -> tuple[Transmission, ...]:
        eqs, cells, parity = self._cells
        sums = len(self.sum_slopes)
        sent = _coords(self.code, np.concatenate([cells[parity, 0], self.raw]))
        return tuple(map(partial(tuple.__new__, Transmission), zip(  # at C speed
            self.sources.tolist(),
            chain(repeat("sum", sums), repeat("parity", int(parity.sum())), repeat("raw")),
            chain(repeat(None, sums), sent),
            chain(self.sum_slopes, eqs.slope[self.checks][parity].tolist(), repeat(None)))))


# ---------------------------------------------------------------------------
# building and checking plans: one decoder check per lost cell
# ---------------------------------------------------------------------------

def _plan(code: Code, erased: tuple[int, ...], choices: Iterable[tuple[tuple[int, int], int]],
          sum_slopes: Sequence[int] = (), **extra) -> RepairPlan:
    """Rebuild the cell of each ((row, col), slope) choice, in order, from its
    labelled check of that slope; the first erased column is recovered.

    Each stored cell the checks read outside the erased columns is shipped
    once: as a parity block if it heads a check, else raw.
    """
    eqs = _decode_equations(code)
    rows, stored = code.rows, code.rows * code.n
    lost = np.zeros(stored + len(eqs.identities), dtype=bool)
    for col in erased:
        if not 1 <= col <= code.info_cols:
            raise ParameterError(f"erased column {col} is not a data column")
        lost[(col - 1) * rows:col * rows] = True
    flat = []
    for (r, c), v in choices:  # a cell of an erased column, and a slope with checks
        if c not in erased or not 0 < r <= rows or v not in eqs.slopes:
            raise PlanError(f"no slope-{v} check through {Coord(r, c)}")
        flat += r, c, v
    row, col, slope = np.array(flat, dtype=np.intp).reshape(-1, 3).T
    target = (col - 1) * rows + row - 1
    check = _lookup(eqs, lost, target, slope)
    if (check < 0).any():
        g = int(np.argmax(check < 0))
        raise PlanError(f"no slope-{slope[g]} check through {_coords(code, [target[g]])[0]}")
    cells = eqs.table[check]
    shipped = np.zeros(len(lost), dtype=bool)
    shipped[cells] = True  # a pad marks the last virtual cell
    shipped[cells[:, 0]] = False
    raw = np.flatnonzero(shipped[:stored] & ~lost[:stored])
    plan = RepairPlan(code, erased, erased[0], check, target, raw, tuple(sum_slopes), **extra)
    plan.schedule  # checks the plan and makes its schedule
    return plan


def _lookup(eqs, lost: np.ndarray, target: np.ndarray, slope: np.ndarray) -> np.ndarray:
    """The row of ``eqs.table`` with the labelled check of each ``slope``
    through each ``target`` (a ``lost`` cell), or -1."""
    # only evenodd-tree tables are padded, and a -1 pad reads the last row of
    # ``lost``, a virtual cell, which is never lost
    stored, lo = eqs.code.rows * eqs.code.n, min(eqs.slopes)
    on = np.full((max(eqs.slopes) - lo + 1) * stored, -1)  # per slope: buffer row -> check
    hit = np.flatnonzero(lost.take(eqs.table))
    check = hit // eqs.table.shape[1]
    on[(eqs.slope[check] - lo) * stored + eqs.table.take(hit)] = check
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
    return _plan(code, (col,), choices, sum_slopes, meta={"x": x})


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
    return [(v, 2 * t - 1 + v) for t in range(1, (p - 1) // 2 + 1) for v in (-1, 0, 1)]


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
    plan.meta.update(x=x, savings=(p - 1) * (p - 2) - len(plan.raw),
                     parity_values=len(plan.targets))
    return plan


# ---------------------------------------------------------------------------
# execution
# ---------------------------------------------------------------------------

def execute_plan(plan: RepairPlan, source) -> dict[int, np.ndarray]:
    """Run a plan against surviving data: ``{column: (rows, block) array}``
    for each column holding a target. The recovered column is whole; in any
    other, only the targets' rows are defined.

    ``source`` is a :class:`CodeGrid` or anything else with ``column(c)``
    and ``block_size``, such as a simulated cluster. It runs the plan's
    :attr:`~RepairPlan.schedule`, made when the plan was checked, on the
    decoder's executor, so a plan that breaks the rule raises
    :class:`PlanError` before any byte is read.
    """
    columns = {c: np.empty((plan.code.rows, source.block_size), dtype=np.uint8)
               for c in set((plan.targets // plan.code.rows + 1).tolist())}
    _execute(plan.schedule, source, columns)
    return columns


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
    doc.update(plan.meta)
    return doc
