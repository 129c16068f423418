import io
import itertools
from collections import Counter

import numpy as np
import pytest

from arraycode import Code, codes, container, encode, random_info, simnet
from arraycode.codes import FAMILIES, decode_recipe
from arraycode.core import ParameterError, UnrecoverableError


def test_node_counts():
    assert len(simnet.create_cluster("evenodd", 5, seed=0).columns) == 7
    assert len(simnet.create_cluster("star", 5, seed=0).columns) == 8
    assert len(simnet.create_cluster("rdp", 5, seed=0).columns) == 6


def test_fail_budget():
    cluster = simnet.create_cluster("evenodd", 5, seed=0)
    with pytest.raises(ParameterError):
        simnet.fail_nodes(cluster, [1, 2, 3])
    simnet.fail_nodes(cluster, [1, 3])
    assert cluster.dead_ids() == [1, 3]
    with pytest.raises(ParameterError):
        simnet.fail_nodes(cluster, [5])


def test_repair_requires_dead_target():
    """A live target, a node that does not exist, an unknown strategy."""
    cluster = simnet.create_cluster("evenodd", 5, seed=0)
    with pytest.raises(ParameterError):
        simnet.run_repair(cluster, 2)
    with pytest.raises(ParameterError):
        cluster.column(0)
    simnet.fail_nodes(cluster, [2])
    with pytest.raises(ParameterError):
        simnet.run_repair(cluster, 2, "fast")


def test_paper_single_ledger_matches_plan():
    cluster = simnet.create_cluster("evenodd", 5, block_size=16, seed=11)
    simnet.fail_nodes(cluster, [1])
    result = simnet.run_repair(cluster, 1, "paper")
    assert result.verified
    assert result.strategy_used == "paper"
    assert result.ledger.total_blocks == 16
    assert result.ledger.total_blocks == len(result.plan.transmissions)
    assert result.ledger.total_bytes == 16 * 16
    # conservation: totals equal the sum over nodes
    assert sum(e["blocks"] for e in result.ledger.per_node()) == 16
    assert all(e["id"] != 1 for e in result.ledger.per_node())


def test_naive_ledger_is_k_columns():
    cluster = simnet.create_cluster("evenodd", 5, seed=11)
    simnet.fail_nodes(cluster, [1])
    result = simnet.run_repair(cluster, 1, "naive")
    assert result.verified
    assert result.ledger.total_blocks == 20
    per_node = result.ledger.per_node()
    assert len(per_node) == 5
    assert all(e["blocks"] == 4 for e in per_node)


@pytest.mark.parametrize("family", ["evenodd", "evenodd-ext", "rdp", "xcode", "star"])
def test_naive_rebuild_reads_the_columns_it_charges(family):
    """A naive rebuild asks the cluster for exactly the k columns its
    ledger charges, whether one column or n - k are down."""
    for p in (5, 7):
        code = Code.make(family, p)
        for failed in ([1], list(range(code.k + 1, code.n + 1))):
            cluster = simnet.create_cluster(family, p, seed=p)
            simnet.fail_nodes(cluster, failed)
            asked, serve = [], cluster.column
            cluster.column = lambda c: asked.append(c) or serve(c)
            result = simnet.run_repair(cluster, failed[0], "naive")
            assert result.verified
            assert sorted(set(asked)) == sorted(result.ledger.blocks), (p, failed)
            # every family here is MDS at its default r: the k lowest live columns
            live = [c for c in range(1, code.n + 1) if c not in failed]
            assert sorted(result.ledger.blocks) == live[:code.k], (p, failed)


def test_naive_rebuild_skips_columns_that_do_not_decode():
    """Past the proven tolerance the k lowest live columns of evenodd-ext at
    (p, r) = (7, 5) do not always decode the target. Every decodable failure
    of fewer than r columns is repaired and verified under both strategies,
    and each naive repair still charges k whole columns."""
    code = Code("evenodd-ext", 7, 5)
    grid = encode(code, random_info(code, 1, np.random.default_rng(75)))
    decodable = 0
    for size in range(1, code.r):
        for failed in itertools.combinations(range(1, code.n + 1), size):
            try:
                decode_recipe(code, failed)
            except UnrecoverableError:
                continue
            decodable += 1
            for strategy in ("paper", "naive"):
                cluster = simnet.cluster_from_grid(grid)
                simnet.fail_nodes(cluster, failed)
                for target in failed:
                    result = simnet.run_repair(cluster, target, strategy)
                    assert result.verified, (failed, strategy, target)
                    if result.strategy_used == "naive":
                        assert result.ledger.total_blocks == code.k * code.rows
    assert decodable == 793


def test_naive_rebuild_caches_an_undecodable_subset():
    """The first k live columns after failing (1, 2, 4, 9) of evenodd-ext
    at (7, 5) do not decode column 1, so a naive repair skips them; the
    solver's verdict on them is cached, and a repeated repair solves
    nothing anew."""
    code = Code("evenodd-ext", 7, 5)
    grid = encode(code, random_info(code, 16, np.random.default_rng(79)))

    def repair():
        cluster = simnet.fail_nodes(simnet.cluster_from_grid(grid), (1, 2, 4, 9))
        assert simnet.run_repair(cluster, 1, "naive").verified

    with pytest.raises(UnrecoverableError):
        decode_recipe(code, (1, 2, 4, 9, 12), wanted=(1,))
    repair()
    misses = codes._solve_schedule.cache_info().misses
    repair()
    repair()
    assert codes._solve_schedule.cache_info().misses == misses


@pytest.mark.parametrize("family,p", [("evenodd", 7), ("rdp", 7),
                                      ("xcode", 7), ("star", 7),
                                      ("evenodd-ext", 7)])
def test_paper_never_beats_naive_backwards(family, p):
    cluster = simnet.create_cluster(family, p, seed=5)
    simnet.fail_nodes(cluster, [1])
    paper = simnet.run_repair(cluster, 1, "paper")
    cluster2 = simnet.create_cluster(family, p, seed=5)
    simnet.fail_nodes(cluster2, [1])
    naive = simnet.run_repair(cluster2, 1, "naive")
    assert paper.verified and naive.verified
    assert paper.ledger.total_blocks <= naive.ledger.total_blocks


def test_rebuild_restores_node():
    cluster = simnet.create_cluster("rdp", 5, seed=7)
    original = cluster.column(2).copy()
    simnet.fail_nodes(cluster, [2])
    assert cluster.columns[1] is None
    result = simnet.run_repair(cluster, 2)
    assert cluster.dead_ids() == []
    assert np.array_equal(cluster.column(2), original)
    assert result.verified


def test_nodes_view_grid_and_shadow_is_private():
    code = Code.make("rdp", 5)
    grid = encode(code, random_info(code, 4, np.random.default_rng(8)))
    original = grid.copy()
    cluster = simnet.cluster_from_grid(grid)
    for column in cluster.columns:
        assert np.shares_memory(column, grid.cells)
    simnet.fail_nodes(cluster, [2, 4])
    for nid in (2, 4):
        kept = cluster.originals[nid]
        assert np.array_equal(kept, original.column(nid))
        assert not np.shares_memory(kept, grid.cells)
        for column in cluster.columns:
            assert column is None or not np.shares_memory(kept, column)
    assert simnet.run_repair(cluster, 2).verified
    assert not np.shares_memory(cluster.column(2), grid.cells)
    assert not np.shares_memory(cluster.column(2), cluster.originals[2])
    assert np.array_equal(grid.cells, original.cells)


def test_original_kept_from_first_failure():
    cluster = simnet.create_cluster("evenodd", 5, seed=3)
    original = cluster.column(2).copy()
    simnet.fail_nodes(cluster, [2])
    simnet.run_repair(cluster, 2)
    cluster.columns[1] = cluster.columns[1] ^ 1  # a bad repair installed
    simnet.fail_nodes(cluster, [2])
    assert np.array_equal(cluster.originals[2], original)
    assert simnet.run_repair(cluster, 2).verified


def test_determinism_same_seed_same_ledger():
    runs = []
    for _ in range(2):
        cluster = simnet.create_cluster("star", 7, block_size=8, seed=99)
        simnet.fail_nodes(cluster, [2, 6])
        first = simnet.run_repair(cluster, 2)
        second = simnet.run_repair(cluster, 6)
        runs.append((first.ledger.blocks, second.ledger.blocks,
                     first.column.tobytes(), second.column.tobytes()))
    assert runs[0] == runs[1]


def test_star_double_session():
    cluster = simnet.create_cluster("star", 5, block_size=8, seed=21)
    simnet.fail_nodes(cluster, [1, 2])
    first = simnet.run_repair(cluster, 1)
    second = simnet.run_repair(cluster, 2)
    assert first.strategy_used == "paper"
    assert first.ledger.total_blocks == 18
    assert len(first.plan.groups) == 6
    assert first.plan.parity_block_count() == 5
    assert second.strategy_used == "paper"
    report = simnet.session_report(cluster, [1, 2], "paper", [first, second])
    assert report["verified"] is True
    assert report["failed"] == [1, 2]
    assert report["gamma_blocks"] == (first.ledger.total_blocks
                                      + second.ledger.total_blocks)
    assert report["gamma_bytes"] == report["gamma_blocks"] * 8
    assert report["repairs"][0]["groups"] == 6
    merged = {e["id"]: e["blocks"] for e in report["per_node"]}
    assert sum(merged.values()) == report["gamma_blocks"]


def test_parity_column_target_falls_back():
    cluster = simnet.create_cluster("evenodd", 5, seed=2)
    simnet.fail_nodes(cluster, [6])
    result = simnet.run_repair(cluster, 6)
    assert result.strategy_used == "naive"
    assert result.verified


def test_double_failure_non_star_falls_back():
    cluster = simnet.create_cluster("evenodd-ext", 7, 3, seed=2)
    simnet.fail_nodes(cluster, [1, 2])
    result = simnet.run_repair(cluster, 1)
    assert result.strategy_used == "naive"
    assert result.verified


def test_mixed_failure_with_parity_column_falls_back():
    cluster = simnet.create_cluster("star", 7, seed=3)
    simnet.fail_nodes(cluster, [2, 9])
    result = simnet.run_repair(cluster, 2)
    assert result.strategy_used == "naive"
    assert result.verified


def test_extended_wide_failure_naive():
    cluster = simnet.create_cluster("evenodd-ext", 7, 4, seed=4)
    simnet.fail_nodes(cluster, [1, 3, 5, 7])
    for target in (1, 3, 5):
        assert simnet.run_repair(cluster, target).verified
    last = simnet.run_repair(cluster, 7)
    assert last.verified
    assert last.strategy_used == "paper"  # single failure by now


def test_payload_backed_cluster():
    data = bytes(range(160))
    grid, _ = container.encode_payload(Code.make("rdp", 5), io.BytesIO(data), 16)
    cluster = simnet.cluster_from_grid(grid)
    simnet.fail_nodes(cluster, [1])
    assert simnet.run_repair(cluster, 1).verified


def test_insufficient_survivors():
    cluster = simnet.create_cluster("evenodd", 5, seed=6)
    simnet.fail_nodes(cluster, [1])
    # lose two more columns behind the budget checker's back
    cluster.columns[1] = cluster.columns[2] = None
    with pytest.raises(UnrecoverableError):
        simnet.run_repair(cluster, 1, "naive")


def test_ledger_counts_each_transmission_at_its_source():
    """The per-node blocks of a paper repair are its plan's transmissions
    counted by source: every family's single-column plans at p = 5 and 7
    and every STAR pair at p = 7."""
    rng = np.random.default_rng(5)
    runs = [(code, (c,)) for family in FAMILIES for p in (5, 7)
            for code in [Code.make(family, p)] for c in code.systematic_cols()]
    star = Code.make("star", 7)
    runs += [(star, pair) for pair in itertools.permutations(star.systematic_cols(), 2)]
    for code, erased in runs:
        cluster = simnet.cluster_from_grid(encode(code, random_info(code, 1, rng)))
        simnet.fail_nodes(cluster, erased)
        result = simnet.run_repair(cluster, erased[0])
        assert result.strategy_used == "paper" and result.verified, (code, erased)
        want = Counter(t.source for t in result.plan.transmissions)
        assert result.ledger.blocks == dict(want), (code, erased)
