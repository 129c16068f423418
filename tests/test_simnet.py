import itertools
from collections import Counter

import numpy as np
import pytest

from arraycode import Code, encode, random_info, simnet
from arraycode.codes import FAMILIES
from arraycode.core import ParameterError, UnrecoverableError


def test_node_counts():
    assert len(simnet.create_cluster("evenodd", 5, seed=0).nodes) == 7
    assert len(simnet.create_cluster("star", 5, seed=0).nodes) == 8
    assert len(simnet.create_cluster("rdp", 5, seed=0).nodes) == 6


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
        cluster.node(0)
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
            assert len(result.ledger.blocks) == code.k


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
    original = cluster.node(2).column.copy()
    simnet.fail_nodes(cluster, [2])
    assert cluster.node(2).column is None
    result = simnet.run_repair(cluster, 2)
    assert cluster.node(2).alive
    assert np.array_equal(cluster.node(2).column, original)
    assert result.verified


def test_nodes_view_grid_and_shadow_is_private():
    code = Code.make("rdp", 5)
    grid = encode(code, random_info(code, 4, np.random.default_rng(8)))
    original = grid.copy()
    cluster = simnet.cluster_from_grid(grid)
    for node in cluster.nodes:
        assert np.shares_memory(node.column, grid.cells)
    simnet.fail_nodes(cluster, [2, 4])
    for nid in (2, 4):
        kept = cluster.originals[nid]
        assert np.array_equal(kept, original.column(nid))
        assert not np.shares_memory(kept, grid.cells)
        for node in cluster.nodes:
            assert node.column is None or not np.shares_memory(kept, node.column)
    assert simnet.run_repair(cluster, 2).verified
    assert not np.shares_memory(cluster.node(2).column, grid.cells)
    assert not np.shares_memory(cluster.node(2).column, cluster.originals[2])
    assert np.array_equal(grid.cells, original.cells)


def test_original_kept_from_first_failure():
    cluster = simnet.create_cluster("evenodd", 5, seed=3)
    original = cluster.node(2).column.copy()
    simnet.fail_nodes(cluster, [2])
    simnet.run_repair(cluster, 2)
    cluster.node(2).column = cluster.node(2).column ^ 1  # a bad repair installed
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
    cluster = simnet.create_cluster("rdp", 5, block_size=16, data=data)
    simnet.fail_nodes(cluster, [1])
    assert simnet.run_repair(cluster, 1).verified


def test_insufficient_survivors():
    cluster = simnet.create_cluster("evenodd", 5, seed=6)
    simnet.fail_nodes(cluster, [1])
    # lose two more columns behind the budget checker's back
    for nid in (2, 3):
        cluster.node(nid).alive = False
        cluster.node(nid).column = None
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
