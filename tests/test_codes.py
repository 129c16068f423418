import itertools
import pickle
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from arraycode import (
    Code,
    CodeGrid,
    CorruptionError,
    ParameterError,
    UnrecoverableError,
    codes,
    encode,
    mds_decode,
    random_info,
    simnet,
)
from arraycode.core import Coord, ParityGroupId
from test_core import group_members


def _families(p):
    codes = [Code.make("evenodd", p), Code.make("rdp", p), Code.make("star", p)]
    if p >= 5:
        codes.append(Code("evenodd-ext", p, 3))
        codes.append(Code.make("xcode", p))
    return codes


def test_constructor_validation():
    with pytest.raises(ParameterError):
        Code.make("evenodd", 4)
    with pytest.raises(ParameterError):
        Code.make("evenodd", 1)
    with pytest.raises(ParameterError):
        Code.make("xcode", 3)
    with pytest.raises(ParameterError):
        Code("evenodd-ext", 5, 6)
    with pytest.raises(ParameterError):
        Code("evenodd-ext", 3, 3)
    with pytest.raises(ParameterError):
        Code.make("nonsense", 5)


def test_shapes():
    assert Code.make("evenodd", 5).n == 7
    assert Code.make("evenodd", 5).k == 5
    assert Code.make("rdp", 5).n == 6
    assert Code.make("star", 5).n == 8
    assert Code("evenodd-ext", 7, 4).n == 11
    assert Code.make("xcode", 7).n == 7
    assert Code.make("xcode", 7).k == 5
    assert Code.make("xcode", 7).rows == 7
    assert Code.make("evenodd", 7).rows == 6


def test_make_dispatch():
    """make fills in each family's r and passes an extended code's r on."""
    for f, spec in codes.FAMILIES.items():
        assert Code.make(f, 7) == Code(f, 7, spec.r)
    assert Code.make("evenodd-ext", 7, 4) == Code("evenodd-ext", 7, 4)
    assert Code.make("evenodd-ext", 7) == Code("evenodd-ext", 7, 3)


def test_code_is_its_family_p_and_r():
    """Equality, hashing and pickling see (family, p, r) and the geometry
    survives a pickle; the constructor refuses an r the family does not
    have, where make ignores it."""
    code = Code.make("evenodd-ext", 7, 4)
    assert hash(code) == hash(Code("evenodd-ext", 7, 4))
    restored = pickle.loads(pickle.dumps(code))
    assert restored == code and (restored.n, restored.slopes) == (11, (0, 1, 2, 3))
    assert Code.make("evenodd", 5, 7) == Code("evenodd", 5, 2)
    with pytest.raises(ParameterError):
        Code("evenodd", 5, 7)


def test_evenodd_p3_single_bit():
    """Hand-worked p=3 encode: one set byte at info cell (1,1)."""
    code = Code.make("evenodd", 3)
    info = np.zeros((2, 3, 1), dtype=np.uint8)
    info[0, 0, 0] = 1
    grid = encode(code, info)
    assert grid.cells[:, 3, 0].tolist() == [1, 0]  # row parity column
    assert grid.cells[:, 4, 0].tolist() == [1, 0]  # slope-1 parity column


def test_evenodd_p3_adjuster_bit():
    """A byte on the index-0 diagonal folds into every slope-1 parity."""
    code = Code.make("evenodd", 3)
    info = np.zeros((2, 3, 1), dtype=np.uint8)
    info[1, 1, 0] = 1  # cell (2,2), on the line through the imaginary cell
    grid = encode(code, info)
    assert grid.cells[:, 3, 0].tolist() == [0, 1]
    # adjuster = 1, so both slope-1 parities flip; the group of (2,2) is
    # index 0 and stores nothing extra
    assert grid.cells[:, 4, 0].tolist() == [1, 1]


def test_imaginary_row_reads_zero():
    code = Code.make("evenodd", 5)
    rng = np.random.default_rng(0)
    grid = encode(code, random_info(code, 4, rng))
    assert not grid.cell(Coord(5, 2)).any()


def test_cell_refuses_coordinates_outside_the_grid():
    """Row 0 and column 0 are not stored cells and must not wrap to the
    last row or column; rows past the grid read as zeros only for the
    imaginary row p, which X-code (p stored rows) does not have."""
    rng = np.random.default_rng(0)
    for code in (Code.make("evenodd", 5), Code.make("xcode", 5)):
        grid = encode(code, random_info(code, 4, rng))
        outside = [Coord(0, 1), Coord(1, 0), Coord(code.p + 1, 1), Coord(1, code.n + 1),
                   Coord(code.p, code.n + 1)]
        for coord in outside:
            with pytest.raises(ParameterError):
                grid.cell(coord)
    assert np.array_equal(grid.cell(Coord(5, 2)), grid.cells[4, 1])  # X-code stores row p


def test_encode_shape_validation():
    code = Code.make("evenodd", 5)
    with pytest.raises(ParameterError):
        encode(code, np.zeros((3, 5, 1), dtype=np.uint8))
    with pytest.raises(ParameterError):
        encode(code, np.zeros((4, 5), dtype=np.uint8))


def xcode_line(p, slope, col):
    """Data cells covered by the X-code parity of ``slope`` stored in
    ``col``, from the family definition (Xu and Bruck, 0-based indexes):
    the slope -1 parity of column i, in row p-2, covers a[k, <i+k+2>] and
    the slope +1 parity, in row p-1, covers a[k, <i-k-2>], for the data
    rows k = 0..p-3."""
    step = 1 if slope == -1 else -1
    return [Coord(k + 1, (col - 1 + step * (k + 2)) % p + 1) for k in range(p - 2)]


def _coord(code, row):
    """The ``Coord`` of a work-buffer row, from the buffer layout: the stored
    cell (r, c) is row (c-1)*rows + r-1, and slot s after the stored cells
    holds the virtual adjuster of slope ``code.slopes[s + 1]``, named
    ``Coord(0, parity column of that slope)``."""
    col, r = divmod(row, code.rows)
    if col < code.n:
        return Coord(r + 1, col + 1)
    return Coord(0, code.parity_col(code.slopes[row - code.rows * code.n + 1]))


def _in_coords(code, schedule):
    """A schedule read through ``_coord``: its recipe, target -> sources in
    step order, and its verification checks."""
    def of(rows):
        return tuple(_coord(code, c) for c in rows)

    recipe = {_coord(code, t): of(s.tolist()) for t, s in schedule.items()}
    return recipe, tuple(of(s.tolist()) for _, s in schedule.steps[schedule.solves:])


def parity_check_equations(code):
    """Coordinate sets of stored cells, each XOR-summing to zero: every
    stored parity block once, listed first, with the cells that define it,
    a sloped adjuster expanded into its line."""
    stored = code.rows * code.n
    checks = [row[row >= 0] for row in codes._decode_equations(code).table]
    lines = {eq[0]: eq[1:] for eq in checks if eq[0] >= stored}
    return [[_coord(code, c) for c in np.concatenate(
        [eq[eq < stored], *(lines[v] for v in eq[eq >= stored])]).tolist()]
        for eq in checks if eq[0] < stored]


def _label_agrees(code, gid, cells):
    """Does a check list the cells of the line its label names, its parity
    cell (or, for an adjuster line, its virtual cell) first?"""
    p = code.p
    stored = {c for c in cells[1:] if c.row}
    if code.family == "xcode":
        head = Coord(p - 1 if gid.slope == -1 else p, gid.index)
        return cells[0] == head and stored == set(xcode_line(p, gid.slope, gid.index))
    if code.family == "rdp" and gid.slope == 0:
        return cells[0] == Coord(gid.index, p) and stored == {
            Coord(gid.index, j) for j in range(1, p)}
    line = {c for c in group_members(p, gid) if c.row != p}
    if code.family == "rdp":
        return cells[0] == Coord(gid.index, p + 1) and stored == line
    pcol = code.parity_col(gid.slope)
    virtual = {c for c in cells if not c.row}
    head = Coord(gid.index, pcol) if gid.index else Coord(0, pcol)
    return (cells[0] == head and stored == line
            and virtual == ({Coord(0, pcol)} if gid.slope else set()))


def _labelled_checks(code):
    """The decoder's labelled checks, each read through its ``Coord`` s."""
    eqs = codes._decode_equations(code)
    return [(ParityGroupId(v, i), [_coord(code, c) for c in row if c >= 0])
            for v, i, row in zip(eqs.slope.tolist(), eqs.index.tolist(), eqs.table.tolist())]


@pytest.mark.parametrize("p", [5, 7, 11, 13, 31, 53, 101])
def test_check_labels(p):
    """What the planner's (cell, slope) lookup of the decoder's checks
    relies on: every stored cell lies on at most one labelled check per
    slope, every data cell on exactly one (except RDP's cells on the
    diagonal without parity), and each label names the line its check
    lists. The large primes are the sizes the benchmark plans at."""
    ext = [Code("evenodd-ext", p, r) for r in range(2, min(5, p - 1) + 1) if r != 3]
    for code in _families(p) + ext:
        labelled = _labelled_checks(code)
        on = Counter((c, gid.slope) for gid, cells in labelled for c in cells if c.row)
        assert max(on.values()) == 1, code
        slopes = {gid.slope for gid, _ in labelled}
        rows, cols = code.info_shape
        for r in range(1, rows + 1):
            for c in range(1, cols + 1):
                for v in slopes:
                    no_parity = code.family == "rdp" and v == 1 and (r + c - 1) % p == 0
                    assert on[Coord(r, c), v] == (0 if no_parity else 1), (code, r, c, v)
        for gid, cells in labelled:
            assert isinstance(gid, ParityGroupId)
            assert _label_agrees(code, gid, cells), (code, gid)


@pytest.mark.parametrize("p", [3, 5, 7])
def test_parity_equations_hold(p):
    rng = np.random.default_rng(p)
    for code in _families(p):
        grid = encode(code, random_info(code, 8, rng))
        for eq in parity_check_equations(code):
            acc = np.zeros(8, dtype=np.uint8)
            for coord in eq:
                acc ^= grid.cell(coord)
            assert not acc.any(), (code.family, eq)


@pytest.mark.parametrize("p", [5, 7])
def test_coords_name_buffer_rows(p):
    """``codes._coords`` names each row of an encode work buffer as the
    layout does, and the grid cell it names holds that row's block; a
    virtual cell holds its slope's adjuster, the XOR of the slope-0 and
    slope-v parity columns."""
    rng = np.random.default_rng(40 + p)
    ext = [Code("evenodd-ext", p, r) for r in range(2, min(5, p - 1) + 1) if r != 3]
    for code in _families(p) + ext:
        buf = codes._encode_buffer(code, 4)
        codes.cell_view(code, buf)[:code.info_shape[0], :code.info_cols] = \
            random_info(code, 4, rng)
        grid = codes._encode_in_place(code, buf)
        got = codes._coords(code, range(len(buf)))
        assert got == [_coord(code, row) for row in range(len(buf))], code
        for row, coord in enumerate(got):
            if coord.row:
                assert np.array_equal(buf[row], grid.cell(coord)), (code, coord)
            else:
                parity = grid.column(code.parity_col(0)) ^ grid.column(coord.col)
                assert np.array_equal(buf[row], np.bitwise_xor.reduce(parity)), (code, coord)


def _reference_encode(code, info):
    """Per-line encoder written from the family definitions.

    It shares no code with ``parity_check_equations`` or the schedule
    executor: lines are indexed directly, 0-based, and the imaginary row p
    is a zero row appended to the array it reads.
    """
    p, fam = code.p, code.family
    rows, cols, block = info.shape
    grid = np.zeros((code.rows, code.n, block), dtype=np.uint8)
    grid[:rows, :cols] = info

    def line(a, i, v, width):
        """XOR over columns j of a[<i + v*(1-j)>, j]; a has p rows."""
        out = np.zeros(block, dtype=np.uint8)
        for j in range(1, width + 1):
            out ^= a[(i + v * (1 - j) - 1) % p, j - 1]
        return out

    if fam == "xcode":
        for c in range(1, p + 1):
            for r in range(1, p - 1):
                grid[p - 2, c - 1] ^= info[r - 1, (c + r) % p]      # slope -1
                grid[p - 1, c - 1] ^= info[r - 1, (c - r - 2) % p]  # slope +1
        return grid
    if fam == "rdp":
        grid[:, p - 1] = np.bitwise_xor.reduce(info, axis=1)
        left = np.zeros((p, p, block), dtype=np.uint8)
        left[:p - 1] = grid[:, :p]  # data plus row parity, row p imaginary
        for i in range(1, p):
            grid[i - 1, p] = line(left, i, 1, p)
        return grid
    padded = np.zeros((p, p, block), dtype=np.uint8)
    padded[:p - 1] = info
    for s, v in enumerate(code.slopes):
        adjuster = line(padded, p, v, p) if v else 0  # the index-0 line
        for i in range(1, p):
            grid[i - 1, p + s] = adjuster ^ line(padded, i, v, p)
    return grid


@st.composite
def _info_arrays(draw):
    p = draw(st.sampled_from([3, 5, 7, 11, 13]))
    family = draw(st.sampled_from(
        ["evenodd", "evenodd-ext", "rdp", "star"] + (["xcode"] if p >= 5 else [])))
    code = Code.make(family, p, draw(st.integers(2, min(5, p - 1))))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return code, random_info(code, draw(st.integers(1, 64)), rng)


@settings(max_examples=80, deadline=None)
@given(_info_arrays())
def test_encode_matches_reference(case):
    code, info = case
    assert np.array_equal(encode(code, info).cells, _reference_encode(code, info))


# every family on both sides of the executor's switch: at ``_IN_PLACE``, the
# largest block that is gathered whole, and just over it, which runs in place
_EXECUTOR_BLOCKS = [
    pytest.param(family, block, id=family + suffix)
    for block, suffix in ((codes._IN_PLACE, ""), (codes._IN_PLACE + 5, "-in-place"))
    for family in ["evenodd", "evenodd-ext", "rdp", "xcode", "star"]]


@pytest.mark.parametrize("family, block", _EXECUTOR_BLOCKS)
def test_blocks_over_one_executor_chunk(family, block):
    """Encode, a two-column decode and every single-column repair, by plan
    and by the naive one-column decode (parity columns fall back to it under
    ``paper``), come out bit-exact on both executor paths: the largest
    gathered block, and the smallest block that runs in place."""
    code = Code.make(family, 5)
    info = random_info(code, block, np.random.default_rng(7))
    grid = encode(code, info)
    assert np.array_equal(grid.cells, _reference_encode(code, info))
    broken = grid.copy()
    broken.cells[:, [1, code.n - 1]] = 0
    assert np.array_equal(mds_decode(code, broken, [2, code.n]).cells, grid.cells)
    for strategy in ("paper", "naive"):
        for col in range(1, code.n + 1):
            cluster = simnet.cluster_from_grid(grid)
            simnet.fail_nodes(cluster, [col])
            result = simnet.run_repair(cluster, col, strategy)
            planned = strategy == "paper" and col in code.systematic_cols()
            assert result.strategy_used == ("paper" if planned else "naive"), (strategy, col)
            assert np.array_equal(result.column, grid.column(col)), (strategy, col)
            assert result.verified, (strategy, col)


@pytest.mark.parametrize("family, block", _EXECUTOR_BLOCKS)
def test_corruption_in_the_last_partial_chunk(family, block):
    """A byte flipped near the end of a surviving block is caught when
    redundancy is left, on both executor paths: in the check rows of the
    gathered buffer, and in the scratch check rows of the in-place run."""
    code = Code.make(family, 5)
    grid = encode(code, random_info(code, block, np.random.default_rng(8)))
    erased = list(range(2, code.erasure_tolerance + 1))  # fewer than the tolerance
    broken = grid.copy()
    broken.cells[:, [c - 1 for c in erased]] = 0
    broken.cells[code.rows - 1, 0, block - 3] ^= 0x10
    with pytest.raises(CorruptionError):
        mds_decode(code, broken, erased)


@pytest.mark.parametrize("p", [3, 5, 7, 13])
def test_encode_schedule_shape(p):
    """Every parity cell is computed exactly once, from information cells or
    cells computed before it, by a step of at most p sources."""
    extra = [Code("evenodd-ext", p, 5)] if p > 5 else []
    for code in _families(p) + extra:
        schedule = codes._encode_schedule(code)
        rows, cols = code.info_shape
        stored = code.rows * code.n
        info = {(c - 1) * code.rows + r - 1 for r in range(1, rows + 1)
                for c in range(1, cols + 1)}
        targets = [t for t, _ in schedule.steps]
        assert sorted(t for t in targets if t < stored) == \
            sorted(set(range(stored)) - info), code
        assert sorted(t for t in targets if t >= stored) == \
            list(range(stored, stored + schedule.slots)), code
        done = set()
        for target, sources in schedule.steps:
            assert len(sources) <= p, (code, target)
            assert all(s in info or s in done for s in sources), (code, target)
            done.add(target)


def _step_by_step(buf, steps):
    """The reference fold: each step over whole blocks, in schedule order."""
    for target, sources in steps:
        buf[target] = np.bitwise_xor.reduce(buf[sources], axis=0)


def _op_steps(op):
    """The ``(target, sources)`` steps one compiled operation runs, sources
    sorted, and the rows it reads. A path's step reads its own cells of the
    gathered rows and, unless it starts the path, the target before it."""
    run, targets, rows, *rest = op
    if run is codes._reduce_one:
        return [(targets, sorted(rows.tolist()))], rows.tolist()
    if run is codes._reduce_batch:
        return [(t, sorted(s)) for t, s in zip(targets.tolist(), rows.T.tolist())], \
            rows.ravel().tolist()
    assert run is codes._run_paths
    segments, ends = rest
    heads, steps, lo = {a for a, _ in segments}, [], 0
    for i, (t, end) in enumerate(zip(targets.tolist(), ends.tolist())):
        own = rows[lo:end + 1].tolist() + ([] if lo in heads else [int(targets[i - 1])])
        steps.append((t, sorted(own)))
        lo = end + 1
    assert lo == len(rows) and sorted(heads) == [a for a, _ in segments]
    return steps, rows.tolist()


def _plan_schedule(code, erased):
    """The schedule ``execute_plan`` runs for the family's plan of the data
    columns ``erased``, or None when the family has no such plan."""
    plan = code.spec.plan(code, erased)
    return None if plan is None else plan.schedule


def _schedules(code, erased):
    """Every schedule the executor runs for ``erased``: the encode schedule,
    the decode schedule, its pruning to the first erased column, and the
    repair plan's when the family plans for those columns."""
    out = [codes._encode_schedule(code), codes.decode_recipe(code, erased),
           codes.decode_recipe(code, erased, wanted=erased[:1])]
    if set(erased) <= set(code.systematic_cols()):
        out.append(_plan_schedule(code, erased))
    return [s for s in out if s is not None]


def _naive_erased(code, failed):
    """The columns a naive rebuild erases: all but the first k live ones."""
    live = [c for c in range(1, code.n + 1) if c not in failed]
    return tuple(sorted(set(range(1, code.n + 1)) - set(live[:code.k])))


# the block sizes the small-block forms see, then both sides of the switch to
# running in place
_RUN_BLOCKS = [1, 16, 512, 4096, codes._IN_PLACE, codes._IN_PLACE + 5]


@st.composite
def _schedule_runs(draw):
    family = draw(st.sampled_from(["evenodd", "evenodd-ext", "rdp", "xcode", "star"]))
    code = Code.make(family, draw(st.sampled_from([5, 7, 13, 53])), draw(st.sampled_from([2, 3])))
    erased = draw(st.lists(st.integers(1, code.n), min_size=1,
                           max_size=code.erasure_tolerance, unique=True))
    if draw(st.booleans()):  # what a naive rebuild of these failures decodes
        erased = _naive_erased(code, erased)
    block = draw(st.sampled_from(_RUN_BLOCKS + ([65536] if code.p < 53 else [])))
    return code, tuple(erased), block, draw(st.integers(0, 2**32 - 1))


@settings(max_examples=60, deadline=None)
@given(_schedule_runs())
def test_levelled_run_matches_step_by_step(case):
    """The executor writes what running the steps one by one writes, in
    whichever form a schedule compiles to at every block size up to
    ``_IN_PLACE``, and at ``_IN_PLACE + 5`` and 65536 bytes, which run in
    place; also at p=53 and for the patterns a naive rebuild decodes."""
    code, erased, block, seed = case
    rng = np.random.default_rng(seed)
    for schedule in _schedules(code, erased):
        buf = rng.integers(0, 256, (code.rows * code.n + schedule.slots, block), dtype=np.uint8)
        want = buf.copy()
        _step_by_step(want, schedule.steps)
        codes._run_steps(buf, schedule)
        assert np.array_equal(buf, want), (code, erased, block)


@pytest.mark.parametrize("p", [5, 7])
def test_groups_are_levels(p):
    """The compiled operations run exactly the schedule's steps, each step
    once with its own sources, and no operation reads a row that it or a
    later operation writes: at 16-byte blocks (levelled, and paths where
    chains peel) and at 4 KiB (one step at a time)."""
    for code in _families(p) + ([Code("evenodd-ext", p, 5)] if p > 5 else []):
        for erased in itertools.chain.from_iterable(
                itertools.combinations(range(1, code.n + 1), t)
                for t in range(1, code.erasure_tolerance + 1)):
            for schedule, block in itertools.product(_schedules(code, erased), (16, 4096)):
                ops = [_op_steps(op) for op in schedule.program(block)]
                assert sorted(step for steps, _ in ops for step in steps) == \
                    sorted((t, sorted(s.tolist())) for t, s in schedule.steps), \
                    (code, erased, block)
                later = set()
                for steps, read in reversed(ops):
                    later.update(t for t, _ in steps)
                    assert not later & set(read), (code, erased, block)


def _forms(schedule, block):
    return {op[0] for op in schedule.program(block)}


@pytest.mark.parametrize("family", ["evenodd", "rdp", "xcode"])
def test_two_column_decodes_compile_to_paths(family):
    """A two-data-column decode at p=53 is a peel chain: with 16-byte blocks
    it compiles to the path form, whole or pruned to one column, as the
    naive rebuild asks; at p=7 with 4 KiB blocks it stays levelled."""
    rng = np.random.default_rng(11)
    for p, block, form in ((53, 16, codes._run_paths), (7, 4096, codes._reduce_one)):
        code = Code.make(family, p)
        for _ in range(4):
            pair = tuple(sorted(rng.choice(np.arange(1, code.info_cols + 1), 2, replace=False)))
            erased = _naive_erased(code, pair)
            for wanted in (None, pair[:1]):
                schedule = codes.decode_recipe(code, erased, wanted=wanted)
                assert form in _forms(schedule, block), (code, erased, wanted)
                assert _forms(schedule, block) <= {codes._run_paths, codes._reduce_one,
                                                   codes._reduce_batch}
                if form is codes._reduce_one:
                    assert codes._run_paths not in _forms(schedule, block)


@pytest.mark.parametrize("p", [7, 53])
def test_single_column_plans_compile_levelled(p):
    """Every single-column plan runs levelled at every gathered block size:
    its groups read no group's target, so no path is longer than one step."""
    for code in _families(p):
        for col in code.systematic_cols():
            schedule = _plan_schedule(code, (col,))
            for block in (16, 512, 4096, codes._IN_PLACE):
                assert codes._run_paths not in _forms(schedule, block), (code, col, block)


@pytest.mark.parametrize("code, erased", [
    (Code.make("star", 7), (1, 2, 3)), (Code.make("star", 13), (2, 5, 9)),
    (Code("evenodd-ext", 7, 5), (1, 2, 4, 5, 9)), (Code("evenodd-ext", 11, 5), (1, 3, 4))])
def test_stalled_and_wide_patterns_run_bit_exactly(code, erased):
    """Patterns the peel stalls on (three STAR data columns, solved by
    elimination) and r = 5 patterns decode bit-exactly at 16-byte blocks,
    whichever form they compile to, and at ``_IN_PLACE + 5`` bytes, in
    place."""
    if code.family == "star":
        assert codes.decode_recipe(code, erased).eliminated
    for block in (16, codes._IN_PLACE + 5):
        grid = encode(code, random_info(code, block, np.random.default_rng(len(erased))))
        broken = grid.copy()
        broken.cells[:, [c - 1 for c in erased]] = 0x5A
        assert np.array_equal(mds_decode(code, broken, erased).cells, grid.cells)
        for col in erased:
            fixed = mds_decode(code, broken, erased, wanted=[col])
            assert np.array_equal(fixed.column(col), grid.column(col)), (code, erased, col, block)


@pytest.mark.parametrize("p", [3, 5, 7])
def test_decode_exhaustive_within_tolerance(p):
    """Every erasure pattern the family promises to survive decodes back
    to the original grid."""
    rng = np.random.default_rng(100 + p)
    for code in _families(p):
        grid = encode(code, random_info(code, 2, rng))
        cols = range(1, code.n + 1)
        for t in range(1, code.erasure_tolerance + 1):
            for pattern in itertools.combinations(cols, t):
                broken = grid.copy()
                for c in pattern:
                    broken.cells[:, c - 1] = 0
                fixed = mds_decode(code, broken, list(pattern))
                assert np.array_equal(fixed.cells, grid.cells), \
                    (code.family, pattern)


def test_decode_rejects_excess_erasures():
    """More erased columns than parity columns, or a column outside 1..n."""
    code = Code.make("evenodd", 5)
    rng = np.random.default_rng(1)
    grid = encode(code, random_info(code, 2, rng))
    with pytest.raises(UnrecoverableError):
        mds_decode(code, grid, [1, 2, 3])
    for bad in ([0], [2, 8]):
        with pytest.raises(ParameterError):
            mds_decode(code, grid, bad)


def test_decode_recipe_rejects_column_past_n():
    with pytest.raises(ParameterError, match="out of range"):
        codes.decode_recipe(Code.make("evenodd", 5), (1, 99))


def test_decode_recipe_rejects_column_zero():
    with pytest.raises(ParameterError, match="out of range"):
        codes.decode_recipe(Code.make("evenodd", 5), (0, 1))


def test_decode_recipe_refuses_excess_erasures_before_solving():
    code = Code.make("evenodd", 5)
    misses = codes._solve_schedule.cache_info().misses
    with pytest.raises(UnrecoverableError, match="3 erasures exceed the 2 parity columns"):
        codes.decode_recipe(code, (1, 2, 3))
    assert codes._solve_schedule.cache_info().misses == misses


def test_decode_rejects_empty_wanted():
    code = Code.make("evenodd", 5)
    grid = encode(code, random_info(code, 2, np.random.default_rng(5)))
    with pytest.raises(ParameterError, match="wanted"):
        mds_decode(code, grid, (1, 2), wanted=[])


def test_extended_unchecked_beyond_three():
    """Four erasures of r = 4, past the proven tolerance: the solver's rank
    decides, and this pattern decodes."""
    code = Code("evenodd-ext", 11, 4)
    rng = np.random.default_rng(2)
    grid = encode(code, random_info(code, 2, rng))
    broken = grid.copy()
    for c in (1, 4, 8, 12):
        broken.cells[:, c - 1] = 0
    fixed = mds_decode(code, broken, [1, 4, 8, 12])
    assert np.array_equal(fixed.cells, grid.cells)


@pytest.mark.parametrize("p,r,decodable,undecodable", [
    (5, 4, 126, 0), (7, 4, 302, 28), (7, 5, 708, 84)])
def test_extended_rank_decides_every_pattern(p, r, decodable, undecodable):
    """Past the proven tolerance the extended code is not MDS in general:
    of all r-column patterns, the decodable ones rebuild bit-exactly and
    the rest raise UnrecoverableError from the rank check."""
    code = Code("evenodd-ext", p, r)
    grid = encode(code, random_info(code, 1, np.random.default_rng(p * r)))
    verdicts = Counter()
    for pattern in itertools.combinations(range(1, code.n + 1), r):
        broken = grid.copy()
        broken.cells[:, [c - 1 for c in pattern]] = 0xA5
        try:
            fixed = mds_decode(code, broken, pattern)
        except UnrecoverableError:
            verdicts["undecodable"] += 1
            continue
        assert np.array_equal(fixed.cells, grid.cells), pattern
        verdicts["decodable"] += 1
    assert verdicts == Counter(decodable=decodable, undecodable=undecodable)


def test_decode_detects_corruption():
    code = Code.make("rdp", 5)
    rng = np.random.default_rng(3)
    grid = encode(code, random_info(code, 4, rng))
    broken = grid.copy()
    broken.cells[:, 0] = 0
    broken.cells[1, 2, 0] ^= 0x40  # silent damage in a surviving column
    with pytest.raises(CorruptionError):
        mds_decode(code, broken, [1])


@pytest.mark.parametrize("block", [16, codes._IN_PLACE + 5])
def test_nothing_erased_verifies_every_check(block):
    """With nothing erased every parity check is verified: the grid comes
    back as it is, and one flipped bit in any column raises
    :class:`CorruptionError`, also in RDP and X-code, which solve no
    virtual cell first."""
    rng = np.random.default_rng(block)
    for code in _families(7):
        grid = encode(code, random_info(code, block, rng))
        assert np.array_equal(mds_decode(code, grid, []).cells, grid.cells), code
        for col in range(1, code.n + 1):
            broken = grid.copy()
            broken.cells[rng.integers(code.rows), col - 1, rng.integers(block)] ^= 1 << \
                rng.integers(8)
            with pytest.raises(CorruptionError):
                mds_decode(code, broken, [])


def test_grid_copy_is_deep():
    code = Code.make("star", 5)
    rng = np.random.default_rng(4)
    grid = encode(code, random_info(code, 2, rng))
    dup = grid.copy()
    dup.cells[0, 0, 0] ^= 0xFF
    assert grid.cells[0, 0, 0] != dup.cells[0, 0, 0]


def _within_tolerance(code):
    cols = range(1, code.n + 1)
    for t in range(1, code.erasure_tolerance + 1):
        yield from itertools.combinations(cols, t)


def _assert_links(schedule):
    """``schedule.links`` pairs each step, readers ascending, with exactly
    the earlier steps whose targets it reads (a walk keeping the step that
    last wrote each row)."""
    writer, want = {}, []
    for step, (target, sources) in enumerate(schedule.steps):
        want += [(step, writer[c]) for c in sources.tolist() if c in writer]
        writer[target] = step
    readers, writers = (side.tolist() for side in schedule.links)
    assert readers == sorted(readers)
    assert sorted(zip(readers, writers)) == sorted(want)


@pytest.mark.parametrize("p", [5, 7])
def test_schedule_reads_only_known_cells(p):
    """Each step reads surviving stored cells or targets of earlier steps,
    the schedule rebuilds every erased cell, and its links, like the encode
    schedule's, name exactly the earlier steps each step reads."""
    for code in _families(p):
        stored_rows = range(1, code.rows + 1)
        _assert_links(codes._encode_schedule(code))
        for pattern in _within_tolerance(code):
            schedule = codes.decode_recipe(code, pattern)
            _assert_links(schedule)
            recipe, _ = _in_coords(code, schedule)
            lost = {Coord(r, c) for c in pattern for r in stored_rows}
            assert lost <= recipe.keys(), (code.family, pattern)
            done = set()
            for target, sources in recipe.items():
                for c in sources:
                    assert c in done or (c.row in stored_rows and c.col not in pattern), \
                        (code.family, pattern, target, c)
                done.add(target)


def test_decode_schedule_maps_rows_to_rows():
    """A decode schedule, peeled, eliminated or pruned, is a mapping from
    int work-buffer rows to int arrays of rows."""
    star = Code.make("star", 7)
    cases = [(code, pattern, None) for code in _families(7) for pattern in ((2,), (1, 3))]
    cases += [(star, (1, 2, 3), None), (star, (1, 2, 3), (2,))]
    for code, pattern, wanted in cases:
        schedule = codes.decode_recipe(code, pattern, wanted=wanted)
        assert len(schedule) == schedule.solves > 0
        for target, sources in schedule.items():
            assert type(target) is int, (code, pattern, target)
            assert isinstance(sources, np.ndarray) and sources.dtype.kind == "i"
        assert all(type(c) is int for c in schedule.eliminated)
    assert codes.decode_recipe(star, (1, 2, 3)).eliminated


@pytest.mark.parametrize("p", [5, 7, 13])
def test_two_column_patterns_peel(p):
    """Virtual adjuster cells make every two-column erasure peel, each step
    XORing at most 2(p-1) blocks."""
    for code in _families(p):
        for pattern in itertools.combinations(range(1, code.n + 1), 2):
            recipe = codes.decode_recipe(code, pattern)
            assert not recipe.eliminated, (code.family, pattern)
            assert max(map(len, recipe.values())) <= 2 * (p - 1), (code.family, pattern)


def test_decode_cache_is_bounded():
    code = Code.make("star", 13)
    rng = np.random.default_rng(5)
    grid = encode(code, random_info(code, 3, rng))
    cache = codes._solve_schedule
    cache.cache_clear()
    patterns = list(itertools.islice(_within_tolerance(code), codes._CACHE_SIZE + 20))
    assert len(patterns) > codes._CACHE_SIZE
    for pattern in patterns:
        broken = grid.copy()
        broken.cells[:, [c - 1 for c in pattern]] = 0
        assert np.array_equal(mds_decode(code, broken, pattern).cells, grid.cells)
        assert cache.cache_info().currsize <= codes._CACHE_SIZE
    assert cache.cache_info().currsize == codes._CACHE_SIZE


def test_decode_recipe_cached_for_any_column_order():
    code = Code.make("star", 7)
    assert codes.decode_recipe(code, (3, 1)) is codes.decode_recipe(code, (1, 3))


def _survivor_sums(code, pattern, recipe):
    """Each cell a recipe reads or solves, as the set of surviving cells
    XORing to it (an int bitset over work-buffer rows)."""
    sums = {}

    def of(c):
        if c.row and c.col not in pattern:
            return 1 << (c.col - 1) * code.rows + c.row - 1
        return sums[c]

    for target, sources in recipe.items():
        bits = 0
        for c in sources:
            bits ^= of(c)
        sums[target] = bits
    return of


def _reference_peel(code, erased):
    """The peel written plainly, cell by cell, as a reference: a stack of
    checks with one unknown cell left, each solving that cell from its
    other cells; cells peeling cannot reach come from ``codes._eliminate``.
    Returns target row -> source rows, in solve order."""
    eqs, stored = codes._decode_equations(code), code.rows * code.n
    checks = [row[row >= 0] for row in eqs.table] + list(eqs.identities.values())
    unknowns = [(c - 1) * code.rows + r for c in erased for r in range(code.rows)]
    unknowns += list(range(stored, stored + len(code.slopes[1:])))
    unknown_of = [[c for c in check.tolist() if c in unknowns] for check in checks]
    checks_of = {c: [e for e, cells in enumerate(unknown_of) if c in cells] for c in unknowns}
    left = [len(cells) for cells in unknown_of]
    queue = [e for e, count in enumerate(left) if count == 1]
    recipe, options = {}, None

    def solve(target, sources):
        recipe[target] = sources
        for e in checks_of[target]:
            left[e] -= 1
            if left[e] == 1:
                queue.append(e)

    while True:
        while queue:
            e = queue.pop()
            target = next((c for c in unknown_of[e] if c not in recipe), None)
            if target is not None:
                solve(target, checks[e][checks[e] != target])
        rest = [c for c in unknowns if c not in recipe]
        if not rest:
            return recipe
        options = options or codes._eliminate(checks, rest)
        target = min(rest, key=lambda c: len(options[c]))
        solve(target, options[target])


@pytest.mark.parametrize("p", [5, 7])
def test_peel_solves_the_reference_system(p):
    """For every pattern of up to tolerance columns, the decoder solves the
    cells a plain cell-by-cell peel solves, and each solved cell's sources
    XOR to the same survivor set as the reference's (``_survivor_sums``)."""
    for code in _families(p) + ([Code("evenodd-ext", p, 5)] if p > 5 else []):
        for pattern in _within_tolerance(code):
            recipe, _ = _in_coords(code, codes.decode_recipe(code, pattern))
            reference = {_coord(code, t): tuple(_coord(code, c) for c in s.tolist())
                         for t, s in _reference_peel(code, pattern).items()}
            assert recipe.keys() == reference.keys(), (code, pattern)
            got, want = _survivor_sums(code, pattern, recipe), \
                _survivor_sums(code, pattern, reference)
            assert all(got(c) == want(c) for c in recipe), (code, pattern)


def _gf2_rank(vectors):
    pivots = {}
    for v in vectors:
        while v:
            top = v.bit_length()
            if top not in pivots:
                pivots[top] = v
                break
            v ^= pivots[top]
    return len(pivots)


@pytest.mark.parametrize("p", [5, 7])
def test_verification_checks_exactly_below_redundancy(p):
    """A decode verifies parity checks exactly when fewer than n - k columns
    are erased. Its checks then constrain the survivors in every way the
    code does: substituting the solved cells, their rank is the
    (n - k - erased) * rows constraints the survivors of a codeword obey."""
    for code in _families(p):
        assert code.erasure_tolerance == code.n - code.k  # every pattern up to n - k
        for pattern in _within_tolerance(code):
            recipe, checks = _in_coords(code, codes.decode_recipe(code, pattern))
            spare = code.n - code.k - len(pattern)
            assert bool(checks) == (spare > 0), (code.family, pattern)
            of = _survivor_sums(code, pattern, recipe)
            residuals = []
            for check in checks:
                bits = 0
                for c in check:
                    bits ^= of(c)
                residuals.append(bits)
            assert _gf2_rank(residuals) == spare * code.rows, (code.family, pattern)


def test_verification_checks_of_unchecked_extended_code():
    """Past the proven tolerance of r = 4: a decodable pattern of n - k
    columns has no checks, and one of three columns still verifies."""
    code = Code("evenodd-ext", 11, 4)
    assert _in_coords(code, codes.decode_recipe(code, (1, 4, 8, 12)))[1] == ()
    assert _in_coords(code, codes.decode_recipe(code, (1, 4, 8)))[1]
    grid = encode(code, random_info(code, 3, np.random.default_rng(9)))
    broken = grid.copy()
    broken.cells[:, [0, 3, 7, 11]] = 0x5A
    fixed = mds_decode(code, broken, [1, 4, 8, 12])
    assert np.array_equal(fixed.cells, grid.cells)
    broken.cells[2, 1, 0] ^= 1
    with pytest.raises(CorruptionError):
        mds_decode(code, broken, [1, 4, 8])


@pytest.mark.parametrize("p", [5, 7])
def test_pruned_schedule_rebuilds_wanted_column(p):
    """For every n - k pattern and each wanted column, the pruned schedule
    is a subsequence of the full one, reads only surviving cells or cells
    solved before, links each step to exactly the earlier steps it reads,
    and rebuilds the column bit-exactly."""
    rng = np.random.default_rng(200 + p)
    for code in _families(p):
        grid = encode(code, random_info(code, 3, rng))
        for pattern in itertools.combinations(range(1, code.n + 1), code.n - code.k):
            whole = codes.decode_recipe(code, pattern)
            _assert_links(whole)
            full, _ = _in_coords(code, whole)
            broken = grid.copy()
            broken.cells[:, [c - 1 for c in pattern]] = 0xA5
            for col in pattern:
                schedule = codes.decode_recipe(code, pattern, wanted=(col,))
                _assert_links(schedule)
                pruned, _ = _in_coords(code, schedule)
                order = list(full)
                positions = [order.index(t) for t in pruned]
                assert positions == sorted(positions), (code.family, pattern, col)
                assert all(full[t] == srcs for t, srcs in pruned.items())
                done = set()
                for target, sources in pruned.items():
                    for c in sources:
                        assert c in done or (c.row and c.col not in pattern), \
                            (code.family, pattern, col, target, c)
                    done.add(target)
                assert {Coord(r, col) for r in range(1, code.rows + 1)} <= done
                fixed = mds_decode(code, broken, pattern, wanted=[col])
                assert np.array_equal(fixed.column(col), grid.column(col)), \
                    (code.family, pattern, col)


class _RecordingSource:
    """A grid served column by column, logging each column asked for."""

    def __init__(self, grid):
        self.grid, self.block_size, self.asked = grid, grid.block_size, []

    def column(self, col):
        self.asked.append(col)
        return self.grid.column(col)


@pytest.mark.parametrize("p", [5, 7])
def test_decode_reads_only_live_survivors(p):
    """Through any source with ``column`` and ``block_size``, the decoder
    asks only for surviving columns and gets what decoding the grid gets,
    for every n - k pattern, each wanted column and all of them."""
    rng = np.random.default_rng(300 + p)
    for code in _families(p):
        grid = encode(code, random_info(code, 3, rng))
        for pattern in itertools.combinations(range(1, code.n + 1), code.n - code.k):
            broken = grid.copy()
            broken.cells[:, [c - 1 for c in pattern]] = 0x3C
            for wanted in [[col] for col in pattern] + [None]:
                source = _RecordingSource(broken)
                got = mds_decode(code, source, pattern, wanted=wanted)
                assert source.asked and not set(source.asked) & set(pattern), \
                    (code.family, pattern, wanted)
                want = mds_decode(code, broken, pattern, wanted=wanted)
                for col in wanted or range(1, code.n + 1):
                    assert np.array_equal(got.column(col), want.column(col)), \
                        (code.family, pattern, wanted, col)


def test_wanted_columns_must_be_erased():
    code = Code.make("evenodd", 5)
    grid = encode(code, random_info(code, 2, np.random.default_rng(6)))
    with pytest.raises(ParameterError):
        mds_decode(code, grid, [1, 2], wanted=[3])


@st.composite
def _erased_grids(draw):
    family = draw(st.sampled_from(["evenodd", "evenodd-ext", "rdp", "xcode", "star"]))
    code = Code.make(family, draw(st.sampled_from([5, 7, 11, 13])),
                     draw(st.sampled_from([2, 3])))
    erased = draw(st.lists(st.integers(1, code.n), min_size=1,
                           max_size=code.erasure_tolerance, unique=True))
    block = draw(st.integers(1, 64))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    grid = encode(code, random_info(code, block, rng))
    flip = (draw(st.sampled_from([c for c in range(1, code.n + 1) if c not in erased])),
            draw(st.integers(1, code.rows)), draw(st.integers(0, block - 1)),
            draw(st.integers(1, 255)))
    return code, grid, erased, flip


@settings(max_examples=60, deadline=None)
@given(_erased_grids())
def test_random_roundtrip_and_corruption(case):
    code, grid, erased, (col, row, byte, mask) = case
    broken = grid.copy()
    broken.cells[:, [c - 1 for c in erased]] = 0xA5
    assert np.array_equal(mds_decode(code, broken, erased).cells, grid.cells)
    if len(erased) < code.erasure_tolerance:
        # column distance is tolerance + 1, so one bad surviving byte shows
        broken.cells[row - 1, col - 1, byte] ^= mask
        with pytest.raises(CorruptionError):
            mds_decode(code, broken, erased)
