"""In-process simulated storage cluster with per-node transfer accounting.

One node stores one column: node c is the cluster's column c, or nothing
while the node is down. A repair session picks a strategy:

* ``paper``  run the family's parity-group planner and ship exactly its
  transmission list; falls back to naive when ``FamilySpec.plan`` has no
  plan (a down node holds parity, or more nodes are down than the planners
  cover), and the result records which strategy actually ran.
* ``naive``  fetch k whole live columns, the first k in column order that
  decode the target, and decode the target column alone from them: the
  decoder reads those columns from their nodes, in place or gathered
  whole by block size, and runs only the steps that column depends on. For
  an MDS code these are the k lowest-numbered live columns.

Nodes answer in deterministic order. When a node first fails, a private
copy of its column is kept that only the verification step reads, so a
buggy plan cannot quietly read through a failure. Every block on the wire
is charged to the node that served it; a parity-sum request costs the
serving node one block no matter how many cells it folds together.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from itertools import combinations

import numpy as np

from .codes import Code, CodeGrid, encode, mds_decode, random_info
from .core import ParameterError, PlanError, UnrecoverableError
from .planner import RepairPlan, execute_plan

__all__ = [
    "TransferLedger",
    "Cluster",
    "RepairResult",
    "create_cluster",
    "cluster_from_grid",
    "fail_nodes",
    "run_repair",
    "session_report",
]


@dataclass
class TransferLedger:
    session: str
    block_size: int
    blocks: Counter[int] = field(default_factory=Counter)  # node id -> blocks served

    @property
    def total_blocks(self) -> int:
        return self.blocks.total()

    @property
    def total_bytes(self) -> int:
        return self.total_blocks * self.block_size

    def per_node(self) -> list[dict]:
        return [{"id": nid, "blocks": nb, "bytes": nb * self.block_size}
                for nid, nb in sorted(self.blocks.items())]


@dataclass
class Cluster:
    code: Code
    block_size: int
    # node c's column at index c - 1, or None while node c is down
    columns: list[np.ndarray | None]
    sessions: int = 0
    # node id -> its column as it was before the node first failed
    originals: dict[int, np.ndarray] = field(default_factory=dict)

    def dead_ids(self) -> list[int]:
        return [c for c, column in enumerate(self.columns, 1) if column is None]

    def column(self, node_id: int) -> np.ndarray:
        """The column a live node serves; reading a dead one is a plan
        error, so a repair can never read through a failure."""
        if not 1 <= node_id <= len(self.columns):
            raise ParameterError(f"no node {node_id}")
        if (column := self.columns[node_id - 1]) is None:
            raise PlanError(f"node {node_id} is dead")
        return column

    def next_session(self) -> str:
        self.sessions += 1
        return f"s{self.sessions:04d}"


def create_cluster(family: str, p: int, r: int | None = None, *,
                   block_size: int = 16, seed: int | None = None) -> Cluster:
    code = Code.make(family, p, r)
    rng = np.random.default_rng(seed)
    return cluster_from_grid(encode(code, random_info(code, block_size, rng)))


def cluster_from_grid(grid: CodeGrid) -> Cluster:
    """Nodes view their columns of ``grid``; nothing is copied.

    Node columns are never written in place (a failure drops the column, a
    repair installs a new array), so a failed node's column is copied only
    when it fails.
    """
    columns = [grid.column(c) for c in range(1, grid.code.n + 1)]
    return Cluster(grid.code, grid.block_size, columns)


def fail_nodes(cluster: Cluster, ids) -> Cluster:
    ids = sorted(set(ids))
    if bad := [nid for nid in ids if not 1 <= nid <= cluster.code.n]:
        raise ParameterError(f"no node {bad[0]}")
    budget = cluster.code.n - cluster.code.k
    if len(set(cluster.dead_ids()) | set(ids)) > budget:
        raise ParameterError(
            f"cannot exceed {budget} simultaneous failures for {cluster.code.family}")
    for nid in ids:
        if nid not in cluster.originals:  # a later failure may hold a bad repair
            cluster.originals[nid] = cluster.columns[nid - 1].copy()
        cluster.columns[nid - 1] = None
    return cluster


@dataclass
class RepairResult:
    target: int
    strategy_used: str
    ledger: TransferLedger
    verified: bool
    plan: RepairPlan | None
    column: np.ndarray


def run_repair(cluster: Cluster, target: int, strategy: str = "paper") -> RepairResult:
    if strategy not in ("paper", "naive"):
        raise ParameterError(f"unknown strategy {strategy!r}")
    if target not in (dead := cluster.dead_ids()):
        raise ParameterError(f"node {target} is not down; nothing to repair")
    ledger = TransferLedger(cluster.next_session(), cluster.block_size)
    code = cluster.code
    plan = code.spec.plan(code, (target, *(d for d in dead if d != target))) \
        if strategy == "paper" else None
    if plan is not None:
        used = "paper"
        served = np.bincount(plan.sources)
        nodes = np.flatnonzero(served)
        ledger.blocks.update(dict(zip(nodes.tolist(), served[nodes].tolist())))
        column = execute_plan(plan, cluster)[plan.recover_col]
    else:
        used = "naive"
        column = _naive_rebuild(cluster, target, ledger)
    verified = bool(np.array_equal(column, cluster.originals[target]))
    cluster.columns[target - 1] = column
    return RepairResult(target, used, ledger, verified, plan, column)


def _naive_rebuild(cluster: Cluster, target: int,
                   ledger: TransferLedger) -> np.ndarray:
    """Decode ``target`` from the first k live columns, in lexicographic
    order, that decode it (past the proven tolerance an extended code can
    be rank-deficient on some of them); each is charged whole."""
    code = cluster.code
    live = [c for c, column in enumerate(cluster.columns, 1) if column is not None]
    for sources in combinations(live, code.k):
        erased = [c for c in range(1, code.n + 1) if c not in sources]
        try:  # the solver refuses a pattern before any column is read
            decoded = mds_decode(code, cluster, erased, wanted=[target])
        except UnrecoverableError:
            continue
        ledger.blocks.update(dict.fromkeys(sources, code.rows))
        return decoded.column(target)
    raise UnrecoverableError(f"no {code.k} of the live columns {live} decode column {target}")


def session_report(cluster: Cluster, failed, strategy: str,
                   results: list[RepairResult]) -> dict:
    merged = TransferLedger(results[0].ledger.session if results else cluster.next_session(),
                            cluster.block_size, sum((r.ledger.blocks for r in results), Counter()))
    doc = {
        "session": merged.session,
        "family": cluster.code.family,
        "p": cluster.code.p,
        "r": cluster.code.r,
        "failed": sorted(failed),
        "strategy": strategy,
        "gamma_blocks": merged.total_blocks,
        "gamma_bytes": merged.total_bytes,
        "per_node": merged.per_node(),
        "verified": all(r.verified for r in results),
        "repairs": [
            {"target": r.target, "strategy_used": r.strategy_used,
             "gamma_blocks": r.ledger.total_blocks,
             "groups": None if r.plan is None else len(r.plan.targets),
             "parity_blocks": None if r.plan is None
             else r.plan.parity_block_count()}
            for r in results],
    }
    return doc
