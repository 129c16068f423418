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
    parity_check_equations,
    random_info,
    simnet,
)
from arraycode.core import Coord, ParityGroupId, parity_group_members


def _families(p):
    codes = [Code.evenodd(p), Code.rdp(p), Code.star(p)]
    if p >= 5:
        codes.append(Code.evenodd_ext(p, 3))
        codes.append(Code.xcode(p))
    return codes


def test_constructor_validation():
    with pytest.raises(ParameterError):
        Code.evenodd(4)
    with pytest.raises(ParameterError):
        Code.evenodd(1)
    with pytest.raises(ParameterError):
        Code.xcode(3)
    with pytest.raises(ParameterError):
        Code.evenodd_ext(5, 6)
    with pytest.raises(ParameterError):
        Code.evenodd_ext(3, 3)
    with pytest.raises(ParameterError):
        Code.make("nonsense", 5)


def test_shapes():
    assert Code.evenodd(5).n == 7
    assert Code.evenodd(5).k == 5
    assert Code.rdp(5).n == 6
    assert Code.star(5).n == 8
    assert Code.evenodd_ext(7, 4).n == 11
    assert Code.xcode(7).n == 7
    assert Code.xcode(7).k == 5
    assert Code.xcode(7).rows == 7
    assert Code.evenodd(7).rows == 6


def test_make_dispatch():
    assert Code.make("evenodd", 5) == Code.evenodd(5)
    assert Code.make("evenodd-ext", 7, 4) == Code.evenodd_ext(7, 4)
    assert Code.make("evenodd-ext", 7) == Code.evenodd_ext(7, 3)
    assert Code.make("star", 5) == Code.star(5)


def test_code_is_its_family_p_and_r():
    """Equality, hashing and pickling see (family, p, r) and the geometry
    survives a pickle; the constructor refuses an r the family does not
    have, where make ignores it."""
    code = Code.make("evenodd-ext", 7, 4)
    assert hash(code) == hash(Code("evenodd-ext", 7, 4))
    restored = pickle.loads(pickle.dumps(code))
    assert restored == code and (restored.n, restored.slopes) == (11, (0, 1, 2, 3))
    assert Code.make("evenodd", 5, 7) == Code.evenodd(5)
    with pytest.raises(ParameterError):
        Code("evenodd", 5, 7)


def test_evenodd_p3_single_bit():
    """Hand-worked p=3 encode: one set byte at info cell (1,1)."""
    code = Code.evenodd(3)
    info = np.zeros((2, 3, 1), dtype=np.uint8)
    info[0, 0, 0] = 1
    grid = encode(code, info)
    assert grid.cells[:, 3, 0].tolist() == [1, 0]  # row parity column
    assert grid.cells[:, 4, 0].tolist() == [1, 0]  # slope-1 parity column


def test_evenodd_p3_adjuster_bit():
    """A byte on the index-0 diagonal folds into every slope-1 parity."""
    code = Code.evenodd(3)
    info = np.zeros((2, 3, 1), dtype=np.uint8)
    info[1, 1, 0] = 1  # cell (2,2), on the line through the imaginary cell
    grid = encode(code, info)
    assert grid.cells[:, 3, 0].tolist() == [0, 1]
    # adjuster = 1, so both slope-1 parities flip; the group of (2,2) is
    # index 0 and stores nothing extra
    assert grid.cells[:, 4, 0].tolist() == [1, 1]


def test_imaginary_row_reads_zero():
    code = Code.evenodd(5)
    rng = np.random.default_rng(0)
    grid = encode(code, random_info(code, 4, rng))
    assert not grid.cell(Coord(5, 2)).any()


def test_encode_shape_validation():
    code = Code.evenodd(5)
    with pytest.raises(ParameterError):
        encode(code, np.zeros((3, 5, 1), dtype=np.uint8))
    with pytest.raises(ParameterError):
        encode(code, np.zeros((4, 5), dtype=np.uint8))


def _label_agrees(code, gid, cells):
    """Does a check list the cells of the line its label names, its parity
    cell (or, for an adjuster line, its virtual cell) first?"""
    p = code.p
    stored = {c for c in cells[1:] if c.row}
    if code.family == "xcode":
        head = Coord(p - 1 if gid.slope == -1 else p, gid.index)
        return cells[0] == head and stored == set(codes.xcode_line(p, gid.slope, gid.index))
    if code.family == "rdp" and gid.slope == 0:
        return cells[0] == Coord(gid.index, p) and stored == {
            Coord(gid.index, j) for j in range(1, p)}
    line = {c for c in parity_group_members(p, gid) if c.row != p}
    if code.family == "rdp":
        return cells[0] == Coord(gid.index, p + 1) and stored == line
    pcol = code.parity_col(gid.slope)
    virtual = {c for c in cells if not c.row}
    head = Coord(gid.index, pcol) if gid.index else Coord(0, pcol)
    return (cells[0] == head and stored == line
            and virtual == ({Coord(0, pcol)} if gid.slope else set()))


@pytest.mark.parametrize("p", [5, 7, 11, 13])
def test_check_labels(p):
    """What the planner's (cell, slope) lookup of the decoder's checks
    relies on: every stored cell lies on at most one labelled check per
    slope, every data cell on exactly one (except RDP's cells on the
    diagonal without parity), and each label names the line its check
    lists."""
    ext = [Code.evenodd_ext(p, r) for r in range(2, min(5, p - 1) + 1) if r != 3]
    for code in _families(p) + ext:
        labelled = [(gid, cells) for gid, cells in codes._decode_equations(code)
                    if gid is not None]
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


@pytest.mark.parametrize("family", ["evenodd", "evenodd-ext", "rdp", "xcode", "star"])
def test_blocks_over_one_executor_chunk(family):
    """Blocks of two chunks and a tail: encode, a two-column decode and
    every single-column repair plan run the executor's chunk loop."""
    code = Code.make(family, 5)
    block = 2 * codes._CHUNK + 5
    info = random_info(code, block, np.random.default_rng(7))
    grid = encode(code, info)
    assert np.array_equal(grid.cells, _reference_encode(code, info))
    broken = grid.copy()
    broken.cells[:, [1, code.n - 1]] = 0
    assert np.array_equal(mds_decode(code, broken, [2, code.n]).cells, grid.cells)
    for col in code.systematic_cols():
        cluster = simnet.cluster_from_grid(grid)
        simnet.fail_nodes(cluster, [col])
        result = simnet.run_repair(cluster, col)
        assert result.strategy_used == "paper", col
        assert np.array_equal(result.column, grid.column(col)), col


@pytest.mark.parametrize("p", [3, 5, 7, 13])
def test_encode_schedule_shape(p):
    """Every parity cell is computed exactly once, from information cells or
    cells computed before it, by a step of at most p sources."""
    extra = [Code.evenodd_ext(p, 5)] if p > 5 else []
    for code in _families(p) + extra:
        schedule = codes._encode_schedule(code)
        rows, cols = code.info_shape
        stored = code.rows * code.n
        info = {codes._cell_index(code.rows, Coord(r, c)) for r in range(1, rows + 1)
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
    code = Code.evenodd(5)
    rng = np.random.default_rng(1)
    grid = encode(code, random_info(code, 2, rng))
    with pytest.raises(UnrecoverableError):
        mds_decode(code, grid, [1, 2, 3])


def test_extended_unchecked_beyond_three():
    code = Code.evenodd_ext(11, 4)
    rng = np.random.default_rng(2)
    grid = encode(code, random_info(code, 2, rng))
    broken = grid.copy()
    for c in (1, 4, 8, 12):
        broken.cells[:, c - 1] = 0
    with pytest.raises(UnrecoverableError):
        mds_decode(code, broken, [1, 4, 8, 12])
    fixed = mds_decode(code, broken, [1, 4, 8, 12], allow_unchecked=True)
    assert np.array_equal(fixed.cells, grid.cells)


def test_decode_detects_corruption():
    code = Code.rdp(5)
    rng = np.random.default_rng(3)
    grid = encode(code, random_info(code, 4, rng))
    broken = grid.copy()
    broken.cells[:, 0] = 0
    broken.cells[1, 2, 0] ^= 0x40  # silent damage in a surviving column
    with pytest.raises(CorruptionError):
        mds_decode(code, broken, [1])


def test_grid_copy_is_deep():
    code = Code.star(5)
    rng = np.random.default_rng(4)
    grid = encode(code, random_info(code, 2, rng))
    dup = grid.copy()
    dup.cells[0, 0, 0] ^= 0xFF
    assert grid.cells[0, 0, 0] != dup.cells[0, 0, 0]


def _within_tolerance(code):
    cols = range(1, code.n + 1)
    for t in range(1, code.erasure_tolerance + 1):
        yield from itertools.combinations(cols, t)


@pytest.mark.parametrize("p", [5, 7])
def test_schedule_reads_only_known_cells(p):
    """Each step reads surviving stored cells or targets of earlier steps,
    and the schedule rebuilds every erased cell."""
    for code in _families(p):
        stored_rows = range(1, code.rows + 1)
        for pattern in _within_tolerance(code):
            recipe = codes.decode_recipe(code, pattern)
            lost = {Coord(r, c) for c in pattern for r in stored_rows}
            assert lost <= recipe.keys(), (code.family, pattern)
            done = set()
            for target, sources in recipe.items():
                for c in sources:
                    assert c in done or (c.row in stored_rows and c.col not in pattern), \
                        (code.family, pattern, target, c)
                done.add(target)


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
    code = Code.star(13)
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
    code = Code.star(7)
    assert codes.decode_recipe(code, (3, 1)) is codes.decode_recipe(code, (1, 3))


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
