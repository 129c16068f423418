import dataclasses
import functools
import itertools
import json

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from arraycode import Code, codes, encode, planner, random_info, simnet
from arraycode.analysis import (
    bandwidth_sweep,
    default_partition,
    evenodd_bandwidth,
    exact_union_bandwidth,
    rdp_bandwidth,
    star_symmetry_saving,
    xcode_bandwidth_bound,
)
from arraycode.cli import main
from arraycode.codes import FAMILIES
from arraycode.core import Coord, ParameterError, ParityGroupId, PlanError
from arraycode.planner import (
    _plan,
    execute_plan,
    plan_evenodd_single,
    plan_extended_single,
    plan_rdp_single,
    plan_star_double,
    plan_to_json,
    plan_xcode_single,
)

RNG = np.random.default_rng(2024)


def run_and_verify(code, plan, block_size=4):
    """Execute against a fresh random encode; every recovered cell must
    match the ground truth."""
    grid = encode(code, random_info(code, block_size, RNG))
    columns = execute_plan(plan, grid)
    for g in plan.groups:
        assert np.array_equal(columns[g.target.col][g.target.row - 1], grid.cell(g.target)), g
    column = columns[plan.recover_col]
    for row in range(1, code.rows + 1):
        assert np.array_equal(column[row - 1],
                              grid.cell(Coord(row, plan.recover_col)))
    return plan.gamma


def _count(plan, kind):
    return sum(t.kind == kind for t in plan.transmissions)


def _raw_cells(plan):
    return {t.coord for t in plan.transmissions if t.kind == "raw"}


# -- evenodd ----------------------------------------------------------------

def test_evenodd_worked_example():
    """p=5, column 1, two flat groups: 16 blocks, four of them shared."""
    plan = plan_evenodd_single(Code.make("evenodd", 5), 1, 2)
    assert plan.gamma == 16
    assert _count(plan, "sum") == 2
    assert plan.parity_block_count() == 4
    assert len(_raw_cells(plan)) == 10
    flat = [g for g in plan.groups if g.group.slope == 0]
    sloped = [g for g in plan.groups if g.group.slope == 1]
    shared = ({m for g in flat for m in g.members}
              & {m for g in sloped for m in g.members})
    assert shared == {Coord(1, 3), Coord(1, 4), Coord(2, 2), Coord(2, 3)}
    run_and_verify(Code.make("evenodd", 5), plan)


@pytest.mark.parametrize("p", [3, 5, 7])
def test_evenodd_gamma_formula_and_execution(p):
    code = Code.make("evenodd", p)
    for erased in range(1, p + 1):
        for x in range(p):
            plan = plan_evenodd_single(code, erased, x)
            gamma = run_and_verify(code, plan, 2)
            expected = evenodd_bandwidth(p, x)
            if x == 0 and erased != 1:
                # the row on the index-0 diagonal repairs through the
                # adjuster, which stores no parity block
                assert gamma == expected - 1
            else:
                assert gamma == expected


def test_evenodd_default_x_is_balanced():
    plan = plan_evenodd_single(Code.make("evenodd", 11), 4)
    assert plan.meta["x"] == 5


def test_evenodd_plan_validation():
    code = Code.make("evenodd", 5)
    with pytest.raises(ParameterError):
        plan_evenodd_single(code, 0)
    with pytest.raises(ParameterError):
        plan_evenodd_single(code, 6)
    with pytest.raises(ParameterError):
        plan_evenodd_single(code, 1, x=5)
    with pytest.raises(ParameterError):
        plan_evenodd_single(Code.make("rdp", 5), 1)


def test_special_row_prefers_flat():
    """With erased column e, row <1-e> has an unusable index-0 slope-1
    line and must sort into the flat half."""
    for p in (5, 7):
        for erased in range(2, p + 1):
            plan = plan_evenodd_single(Code.make("evenodd", p), erased)
            special = (1 - erased) % p
            if special == 0:
                continue
            flat = plan.targets[codes._decode_equations(plan.code).slope[plan.checks] == 0]
            assert special in (flat % plan.code.rows + 1).tolist()


# -- rdp --------------------------------------------------------------------

@pytest.mark.parametrize("p", [3, 5, 7, 11])
def test_rdp_gamma_exact(p):
    code = Code.make("rdp", p)
    for erased in range(1, p):
        plan = plan_rdp_single(code, erased)
        assert run_and_verify(code, plan, 2) == rdp_bandwidth(p)


def test_rdp_shares_through_row_parity_cell():
    """A diagonal group's line passes through the horizontal parity
    column, so one shipped parity block can serve both group kinds."""
    plan = plan_rdp_single(Code.make("rdp", 5), 2)
    parity_coords = {t.coord for t in plan.transmissions if t.kind == "parity"}
    member_cells = {m for g in plan.groups for m in g.members}
    assert parity_coords & member_cells
    assert plan.gamma == 12


def test_rdp_no_sums():
    assert _count(plan_rdp_single(Code.make("rdp", 7), 3), "sum") == 0


# -- xcode ------------------------------------------------------------------

@pytest.mark.parametrize("p", [5, 7, 11])
def test_xcode_within_bound_and_exact(p):
    code = Code.make("xcode", p)
    for erased in range(1, p + 1):
        plan = plan_xcode_single(code, erased)
        gamma = run_and_verify(code, plan, 2)
        assert gamma <= xcode_bandwidth_bound(p)


def test_xcode_gamma_pinned():
    """Plan sizes for every erased column, as first measured."""
    expected = {5: 12, 7: 28, 11: 78, 13: 112}
    for p, gamma in expected.items():
        code = Code.make("xcode", p)
        assert {plan_xcode_single(code, e).gamma for e in range(1, p + 1)} == {gamma}


def test_xcode_parity_rows_force_own_groups():
    plan = plan_xcode_single(Code.make("xcode", 7), 4)
    targets = {g.target for g in plan.groups}
    assert Coord(6, 4) in targets and Coord(7, 4) in targets
    own = [g for g in plan.groups if g.target.row >= 6]
    assert all(g.parity_coord is None for g in own)


# -- extended ---------------------------------------------------------------

@pytest.mark.parametrize("p,r", [(5, 3), (7, 3), (7, 4), (7, 5), (11, 4)])
def test_extended_execution_and_union_count(p, r):
    code = Code("evenodd-ext", p, r)
    for erased in (1, 2, p):
        plan = plan_extended_single(code, erased)
        gamma = run_and_verify(code, plan, 2)
        if erased == 1:
            assert gamma == exact_union_bandwidth(p, r)
    assert _count(plan_extended_single(code, 1), "sum") == r


def test_extended_two_slopes_matches_flat_split():
    """With r=2 the residue partition reduces to a flat/sloped split of
    size |M_0|, and the transmission counts agree."""
    for p in (5, 7, 11):
        x = len(default_partition(p, 2)[0])
        assert (plan_extended_single(Code("evenodd-ext", p, 2), 1).gamma
                == evenodd_bandwidth(p, x))


def test_extended_custom_partition():
    part = (frozenset({1, 2}), frozenset({3}), frozenset({4}))
    plan = plan_extended_single(Code("evenodd-ext", 5, 3), 1, partition=part)
    assert plan.gamma == exact_union_bandwidth(5, 3, part)
    run_and_verify(Code("evenodd-ext", 5, 3), plan, 2)


def test_extended_rejects_bad_partition():
    code = Code("evenodd-ext", 5, 3)
    with pytest.raises(ParameterError):
        plan_extended_single(code, 1, partition=(frozenset({1}),) * 3)
    with pytest.raises(ParameterError):
        plan_extended_single(code, 1,
                             partition=(frozenset({1, 2}), frozenset({3}),
                                        frozenset({5})))


# -- star -------------------------------------------------------------------

def test_star_frozen_pair():
    plan = plan_star_double(Code.make("star", 5), (1, 2))
    assert plan.gamma == 18
    assert {(g.group.slope, g.group.index) for g in plan.groups} == {
        (-1, 0), (0, 1), (1, 2), (-1, 2), (0, 3), (1, 4)}
    assert plan.meta["parity_values"] == 6
    assert plan.meta["savings"] == 2
    assert _count(plan, "sum") == 3
    unsent = ({Coord(r, c) for r in range(1, 5) for c in range(3, 6)}
              - _raw_cells(plan))
    assert unsent == {Coord(2, 4), Coord(2, 5)}


def test_star_pseudo_group_uses_adjuster():
    plan = plan_star_double(Code.make("star", 5), (1, 2))
    pseudo = [g for g in plan.groups if g.parity_coord is None]
    assert len(pseudo) == 1
    assert pseudo[0].group == ParityGroupId(-1, 0)
    assert pseudo[0].adjuster_slope == -1


@pytest.mark.parametrize("p", [5, 7, 11])
def test_star_all_pairs_recover(p):
    code = Code.make("star", p)
    for c in range(1, p + 1):
        for other in range(1, p + 1):
            if other == c:
                continue
            plan = plan_star_double(code, (c, other))
            assert plan.meta["parity_values"] == 3 * (p - 1) // 2
            assert plan.meta["savings"] == star_symmetry_saving(p)
            run_and_verify(code, plan, 2)


def test_star_single_erasure_via_flat_sloped_split():
    code = Code.make("star", 7)
    plan = plan_evenodd_single(code, 3)
    assert run_and_verify(code, plan, 2) == evenodd_bandwidth(7, 3)


def test_star_rejects_degenerate_pair():
    code = Code.make("star", 5)
    with pytest.raises(ParameterError):
        plan_star_double(code, (2, 2))
    with pytest.raises(ParameterError):
        plan_star_double(code, (0, 3))


def _choices(plan):
    return [(g.target, g.group.slope) for g in plan.groups]


def test_plan_refuses_chain_out_of_solve_order():
    # the second group's flat check reads the cell the first group rebuilds
    plan = plan_star_double(Code.make("star", 7), (2, 5))
    choices = _choices(plan)
    choices[:2] = choices[1::-1]
    with pytest.raises(PlanError):
        _plan(plan.code, plan.erased, choices, sum_slopes=(0, 1, -1))


def test_plan_refuses_choices_missing_a_row():
    plan = plan_evenodd_single(Code.make("evenodd", 7), 3)
    with pytest.raises(PlanError):
        _plan(plan.code, plan.erased, _choices(plan)[:-1], sum_slopes=(0, 1))


def test_plan_refuses_a_check_the_code_lacks():
    """A slope the code has no parity for, and RDP's slope 1 on the row of
    column 2 whose diagonal carries no parity block."""
    with pytest.raises(PlanError, match="no slope-2 check"):
        _plan(Code.make("evenodd", 5), (1,), [(Coord(1, 1), 2)])
    with pytest.raises(PlanError, match="no slope-1 check"):
        _plan(Code.make("rdp", 5), (2,), [(Coord(4, 2), 1)])


def test_lookup_reads_the_pads_as_a_virtual_cell():
    """``_lookup`` indexes ``lost`` with every cell of ``Equations.table``,
    the -1 pads too: only evenodd-tree tables are padded, and there -1 is
    the last virtual cell, which no erasure loses. For every one- and
    two-column erasure, each lost cell's check of each slope is the one a
    scan of the checks finds (a stored cell lies on at most one check per
    slope)."""
    for family in FAMILIES:
        for p in (5, 7):
            code = Code.make(family, p)
            eqs = codes._decode_equations(code)
            stored, pads = code.rows * code.n, eqs.table < 0
            assert pads.any() == bool(eqs.identities)
            assert (eqs.table[pads] == -1).all()
            on = {}
            for i, (v, check) in enumerate(zip(eqs.slope.tolist(), eqs.table.tolist())):
                for cell in check:
                    if 0 <= cell < stored:
                        assert (v, cell) not in on
                        on[v, cell] = i
            for count in (1, 2):
                for erased in itertools.combinations(code.systematic_cols(), count):
                    lost = np.zeros(stored + len(eqs.identities), dtype=bool)
                    for c in erased:
                        lost[(c - 1) * code.rows:c * code.rows] = True
                    target = np.repeat(np.flatnonzero(lost), len(eqs.slopes))
                    slope = np.tile(eqs.slopes, lost.sum())
                    assert planner._lookup(eqs, lost, target, slope).tolist() == [
                        on.get((v, t), -1) for v, t in zip(slope.tolist(), target.tolist())]


# -- execution and serialization -------------------------------------------

def test_execute_flags_missing_transmission():
    """A raw cell, or the slope-1 sum the diagonal checks' adjuster needs."""
    plan = plan_evenodd_single(Code.make("evenodd", 5), 1, 2)
    broken = dataclasses.replace(plan, raw=plan.raw[:-1])
    code = Code.make("evenodd", 5)
    grid = encode(code, random_info(code, 2, RNG))
    with pytest.raises(PlanError):
        execute_plan(broken, grid)
    with pytest.raises(PlanError, match="adjuster for slope 1"):
        execute_plan(dataclasses.replace(plan, sum_slopes=(0,)), grid)


def test_execute_flags_dropped_group():
    """A plan whose last group is gone leaves a row of its column unbuilt."""
    plan = plan_evenodd_single(Code.make("evenodd", 5), 1, 2)
    broken = dataclasses.replace(plan, checks=plan.checks[:-1], targets=plan.targets[:-1])
    code = Code.make("evenodd", 5)
    grid = encode(code, random_info(code, 2, RNG))
    with pytest.raises(PlanError):
        execute_plan(broken, grid)


def test_execute_refuses_source_in_erased_column():
    plan = plan_evenodd_single(Code.make("evenodd", 5), 1, 2)
    bad = dataclasses.replace(plan, erased=(1, plan.transmissions[-1].source))
    code = Code.make("evenodd", 5)
    grid = encode(code, random_info(code, 2, RNG))
    with pytest.raises(PlanError):
        execute_plan(bad, grid)


def test_a_plan_is_checked_once(monkeypatch):
    """Building a plan, reading its gamma and running it twice runs the
    plan's rule once, and ``execute_plan`` hands the executor the very
    schedule the rule made."""
    rule, runs, executed = planner.RepairPlan.schedule.func, [], []
    monkeypatch.setattr(planner.RepairPlan.schedule, "func",
                        lambda plan: runs.append(plan) or rule(plan))
    run = planner._execute
    monkeypatch.setattr(planner, "_execute",
                        lambda schedule, *args: executed.append(schedule) or run(schedule, *args))
    code = Code.make("evenodd", 7)
    plan = plan_evenodd_single(code, 2)
    assert plan.gamma == evenodd_bandwidth(7, 3)
    run_and_verify(code, plan)
    run_and_verify(code, plan)
    assert runs == [plan]
    assert len(executed) == 2 and all(s is plan.schedule for s in executed)


def test_a_plan_is_frozen():
    plan = plan_evenodd_single(Code.make("evenodd", 5), 1)
    with pytest.raises(dataclasses.FrozenInstanceError):
        plan.raw = plan.raw[:-1]
    with pytest.raises(dataclasses.FrozenInstanceError):
        plan.sum_slopes = (0,)


def test_plan_json_schema():
    plan = plan_star_double(Code.make("star", 5), (1, 2))
    doc = plan_to_json(plan)
    text = json.dumps(doc)
    parsed = json.loads(text)
    assert parsed["family"] == "star"
    assert parsed["p"] == 5 and parsed["r"] == 3
    assert parsed["erased"] == [1, 2]
    assert parsed["gamma"] == 18 == len(parsed["transmissions"])
    assert len(parsed["groups"]) == 6
    kinds = {t["kind"] for t in parsed["transmissions"]}
    assert kinds == {"sum", "parity", "raw"}
    for t in parsed["transmissions"]:
        if t["kind"] == "sum":
            assert t["row"] is None and t["col"] is None
        else:
            assert 1 <= t["row"] and 1 <= t["col"]
        assert 1 <= t["source"] <= 8


def test_transmission_sources_never_erased():
    for p in (5, 7):
        for erased in range(1, p + 1):
            plan = plan_evenodd_single(Code.make("evenodd", p), erased)
            assert all(t.source != erased for t in plan.transmissions)
    plan = plan_star_double(Code.make("star", 7), (2, 5))
    assert all(t.source not in (2, 5) for t in plan.transmissions)


def test_execute_on_cluster_refuses_dead_node():
    """A plan read through a cluster cannot read a failed node's column,
    gathered (4-byte blocks) or in place (a block over ``_IN_PLACE``)."""
    plan = plan_evenodd_single(Code.make("evenodd", 5), 1)
    assert 3 in {t.source for t in plan.transmissions}
    for block in (4, codes._IN_PLACE + 5):
        cluster = simnet.create_cluster("evenodd", 5, block_size=block, seed=3)
        simnet.fail_nodes(cluster, [1, 3])
        with pytest.raises(PlanError):
            cluster.column(3)
        with pytest.raises(PlanError):
            execute_plan(plan, cluster)


def _reference_execute(plan, grid):
    """Per-group fold of the shipped blocks, written without the compiled
    executor."""
    store, sums = {}, {}
    for t in plan.transmissions:
        if t.kind == "sum":
            sums[t.slope] = np.bitwise_xor.reduce(grid.column(t.source), axis=0)
        else:
            store[t.coord] = grid.cell(t.coord)
    adjusters = {v: s ^ sums[0] for v, s in sums.items() if v != 0}
    recovered = {}
    for g in plan.groups:
        parts = [np.zeros(grid.block_size, dtype=np.uint8)]
        if g.parity_coord is not None:
            parts.append(store[g.parity_coord])
        if g.adjuster_slope is not None:
            parts.append(adjusters[g.adjuster_slope])
        parts += [store[m] if m in store else recovered[m] for m in g.members]
        recovered[g.target] = functools.reduce(np.bitwise_xor, parts)
    return recovered


def _single_plans(code):
    for c in code.systematic_cols():
        yield code.spec.plan(code, (c,))


@pytest.mark.parametrize("p", [5, 7, 11, 13])
@settings(max_examples=4, deadline=None)
@given(block=st.integers(1, 64), seed=st.integers(0, 2**32 - 1))
@example(block=codes._IN_PLACE + 5, seed=0)  # runs in place
def test_execute_matches_reference_fold(p, block, seed):
    rng = np.random.default_rng(seed)
    star = Code.make("star", p)
    plans = [(star, plan_star_double(star, (a, b)))
             for a in range(1, p + 1) for b in range(1, p + 1) if a != b]
    for code in (Code.make(f, p) for f in FAMILIES):
        plans += [(code, plan) for plan in _single_plans(code)]
    grids = {}
    for code, plan in plans:
        if code not in grids:
            grids[code] = encode(code, random_info(code, block, rng))
        got = execute_plan(plan, grids[code])
        want = _reference_execute(plan, grids[code])
        assert got.keys() == {coord.col for coord in want}
        for coord, value in want.items():
            assert np.array_equal(got[coord.col][coord.row - 1], value), \
                (code, plan.erased, coord)


def test_plans_and_peeling_never_hash_or_compare_coords(monkeypatch):
    """Plans, encode schedules and decode schedules (peeled or eliminated)
    are built over work-buffer rows: no Coord is hashed, compared or sorted
    on the way, only made for the public fields."""
    def refuse(*args):
        raise AssertionError("a Coord was hashed or compared")

    for name in ("__hash__", "__eq__", "__ne__", "__lt__", "__le__", "__gt__", "__ge__"):
        monkeypatch.setattr(Coord, name, refuse)
    p = 13
    for family in FAMILIES:
        code = Code.make(family, p)
        codes._decode_equations.cache_clear()
        codes._solve_schedule.cache_clear()
        codes._encode_schedule.cache_clear()
        plans = [code.spec.plan(code, (col,)) for col in code.systematic_cols()]
        if code.spec.plan_double is not None:
            plans += [code.spec.plan(code, (1, b)) for b in range(2, p + 1)]
        assert all(plan.gamma for plan in plans)
        encode(code, random_info(code, 1, RNG))
        for pattern in itertools.combinations(range(1, code.n + 1), code.n - code.k):
            codes.decode_recipe(code, pattern, wanted=pattern[:1])


def test_sweeps_and_sessions_build_no_plan_objects(monkeypatch, tmp_path):
    """``analyze``, the star-validate oracle and a ``repair --report``
    session count from the plan's arrays: none of them makes a
    ``GroupUse``, a ``Transmission`` or a ``Coord``."""
    data = tmp_path / "in.bin"
    data.write_bytes(bytes(range(256)))
    box = tmp_path / "c.aerc"
    assert main(["encode", str(data), str(box), "--family", "star", "--p", "7"]) == 0

    def refuse(*args, **kwargs):
        raise AssertionError("a plan object was made")

    monkeypatch.setattr(planner, "GroupUse", refuse)
    monkeypatch.setattr(planner, "Transmission", refuse)
    monkeypatch.setattr(Coord, "__new__", refuse)
    primes = [q for q in range(5, 32) if all(q % d for d in range(2, q))]
    for family in FAMILIES:
        assert all(rep.gamma for rep in bandwidth_sweep(family, primes, r=3))
    assert main(["oracle", "--mode", "star-validate", "--p", "13"]) == 0
    for fail in ("2,5", "3"):
        report = tmp_path / f"report-{fail}.json"
        assert main(["repair", str(box), "--fail", fail, "--report", str(report)]) == 0
        doc = json.loads(report.read_text())
        assert doc["verified"] and {r["strategy_used"] for r in doc["repairs"]} == {"paper"}


@pytest.mark.parametrize("family", list(FAMILIES))
def test_no_paper_plan_once_a_parity_column_is_erased(family):
    """``FamilySpec.plan`` is None for every erased set of up to n - k
    columns that includes a parity column, whichever column comes first;
    the planner called directly still refuses a parity column."""
    for p in (5, 7):
        code = Code.make(family, p)
        parity = set(range(code.info_cols + 1, code.n + 1))
        for size in range(1, code.n - code.k + 1):
            for erased in itertools.permutations(range(1, code.n + 1), size):
                if parity & set(erased):
                    assert code.spec.plan(code, erased) is None, erased
        for col in parity:
            with pytest.raises(ParameterError, match="not a data column"):
                getattr(planner, code.spec.plan_single)(code, col)
