"""Bandwidth-efficient repair plans.

A plan rebuilds each lost cell from one of the decoder's parity checks
(``codes._decode_equations``): a group is that check, chosen per lost cell
by the check's slope, put to work on the cell. Each ``plan_*`` function is
a chooser over those choices for one family, and :func:`_group` turns every
choice into a :class:`GroupUse`. The plan lists the groups in the order they
are solved and the exact transmissions that feed them. Every plan, whatever
its chooser, is checked by one rule as it is built: a group's members in
erased columns are targets of earlier groups, and every stored cell of the
recovered column is some group's target; a plan that breaks it raises
:class:`PlanError`. Three transmission kinds exist:

* ``raw``    one stored block, identified by its coordinate;
* ``parity`` one stored parity block, identified by its cell and slope;
* ``sum``    the XOR of a whole parity column, computed by the node that
  stores it and shipped as a single block.

For the evenodd family tree every slope-v check names that slope's
adjuster (the XOR of the index-0 line) as a virtual cell. A repairing node
reconstructs the adjuster of slope v by XORing the slope-v column sum with
the slope-0 column sum, so plans that touch sloped groups carry ``sum``
transmissions. The index-0 check is the adjuster line itself: it has no
stored parity block, its parity-side value being the adjuster. Blocks
wanted by several groups are shipped once: the transmission list is a set
union, which is where the bandwidth savings over one-group-per-block
accounting come from.

Plans only target data columns. Rebuilding a parity column is a plain
decode-then-reencode job and is handled by the cluster layer at naive cost.

:func:`execute_plan` compiles a plan to ``(target, sources)`` XOR steps and
runs them on the executor that encodes and decodes (``codes._run_steps``).
It reads only the shipped blocks, straight from the live columns.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from .codes import _CHUNK, Code, _decode_equations, _run_steps
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
# groups: one decoder check per lost cell
# ---------------------------------------------------------------------------

def _checks(code: Code, cols: Iterable[int]) -> dict:
    """(cell, slope) -> the labelled decoder check of that slope through the
    cell, for the cells of the data columns ``cols``.

    Unlabelled checks (the adjusters' column identities) are left out; a
    stored cell lies on at most one labelled check per slope.
    """
    cols = set(cols)
    out = {}
    for gid, cells in _decode_equations(code):
        if gid is not None:
            for c in cells:
                if c.col in cols:
                    out[c, gid.slope] = gid, cells
    return out


def _group(checks: dict, cell: Coord, slope: int) -> GroupUse:
    """Rebuild ``cell`` from its decoder check of ``slope``.

    The check's stored head becomes ``parity_coord`` unless it is the cell
    itself, its virtual adjuster cell becomes ``adjuster_slope``, and its
    other stored cells become ``members``.
    """
    try:
        gid, cells = checks[cell, slope]
    except KeyError:
        raise PlanError(f"no slope-{slope} check through {cell}") from None
    head = cells[0]
    parity = head if head.row and head != cell else None
    adjuster = slope if not head.row or not cells[-1].row else None
    members = tuple(c for c in cells[1:] if c.row and c != cell)
    return GroupUse(gid, cell, parity, members, adjuster)


# ---------------------------------------------------------------------------
# transmissions
# ---------------------------------------------------------------------------

def _build_transmissions(code: Code, groups: Sequence[GroupUse],
                         erased: Iterable[int], *,
                         sum_slopes: Sequence[int] = ()) -> tuple[Transmission, ...]:
    """Sums first, then one parity block per stored group, then the union
    of surviving member cells ordered by (column, row).

    Groups are solved in order, so a member in an erased column must be the
    target of an earlier group; a plan that breaks that order raises
    :class:`PlanError`.
    """
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
    rebuilt: set[Coord] = set()
    for g in groups:
        for m in g.members:
            if m.col in erased:
                if m not in rebuilt:
                    raise PlanError(f"{g.target} needs {m}, which no earlier group rebuilds")
            elif m not in shipped_parity:
                raw.add(m)
        rebuilt.add(g.target)
    for c in sorted(raw, key=lambda c: (c.col, c.row)):
        out.append(Transmission(c.col, "raw", c, None))
    return tuple(out)


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

def _plan(code: Code, erased: tuple[int, ...], choices: Iterable[tuple[Coord, int]],
          sum_slopes: Sequence[int] = (), **extra) -> RepairPlan:
    """Rebuild the cell of each (cell, slope) choice, in order, from its
    check of that slope; the first erased column is the one recovered.

    A stored cell of that column that no choice rebuilds raises
    :class:`PlanError`, as does a choice out of solve order
    (:func:`_build_transmissions`).
    """
    for col in erased:
        if not 1 <= col <= code.info_cols:
            raise ParameterError(f"erased column {col} is not a data column")
    checks = _checks(code, erased)
    groups = tuple(_group(checks, cell, v) for cell, v in choices)
    tx = _build_transmissions(code, groups, erased, sum_slopes=sum_slopes)
    missed = {Coord(r, erased[0]) for r in range(1, code.rows + 1)}
    missed.difference_update(g.target for g in groups)
    if missed:
        raise PlanError(f"no group rebuilds {sorted(missed)}")
    return RepairPlan(code, erased, erased[0], groups, tx, **extra)


def _split_plan(code: Code, col: int, x: int, sum_slopes: Sequence[int] = ()) -> RepairPlan:
    """x rows of ``col`` flat, the rest on slope 1 (see :func:`_ordered_rows`)."""
    rows = _ordered_rows(code.p, col)
    flat, sloped = sorted(rows[:x]), sorted(rows[x:])
    choices = [(Coord(i, col), 0) for i in flat] + [(Coord(i, col), 1) for i in sloped]
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
    choices = [(Coord(m, col), v) for v, cls in enumerate(partition) for m in sorted(cls)]
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
    choices = [(Coord(r, col), 1 if r <= (p - 1) // 2 else -1) for r in range(1, p - 1)]
    return _plan(code, (col,), choices + [(Coord(p - 1, col), -1), (Coord(p, col), 1)])


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
    choices = [(Coord(mod_index((m - v) * x, p), other) if v == -1
                else Coord(mod_index(m * x, p), c), v)
               for v, m in _star_schedule(p)]
    plan = _plan(code, (c, other), choices, sum_slopes=(0, 1, -1))
    savings = (p - 1) * (p - 2) - len(plan.raw_cells())
    plan.meta.update(x=x, savings=savings, parity_values=len(plan.groups))
    return plan


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
