"""In-process simulated storage cluster with per-node transfer accounting.

One node stores one column. A repair session picks a strategy:

* ``paper``  run the family's parity-group planner and ship exactly its
  transmission list; falls back to naive when no planner applies (parity
  column target, more simultaneous failures than the planners cover, or a
  helper the plan needs is itself dead), and the result records which
  strategy actually ran.
* ``naive``  fetch the k lowest-numbered live columns and decode the
  target column alone from them: the decoder reads those columns in place
  from their nodes, chunk by chunk, and runs only the steps that column
  depends on.

Nodes answer in deterministic order. When a node first fails, a private
copy of its column is kept that only the verification step reads, so a
buggy plan cannot quietly read through a failure. Every block on the wire
is charged to the node that served it; a parity-sum request costs the
serving node one block no matter how many cells it folds together.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .codes import Code, CodeGrid, encode, mds_decode, random_info
from .core import ParameterError, PlanError
from .planner import RepairPlan, execute_plan

__all__ = [
    "Node",
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
class Node:
    id: int
    column: np.ndarray | None
    alive: bool = True


@dataclass
class TransferLedger:
    session: str
    block_size: int
    blocks: dict[int, int] = field(default_factory=dict)

    def record(self, node_id: int, blocks: int = 1) -> None:
        self.blocks[node_id] = self.blocks.get(node_id, 0) + blocks

    @property
    def total_blocks(self) -> int:
        return sum(self.blocks.values())

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
    nodes: list[Node]
    sessions: int = 0
    # node id -> its column as it was before the node first failed
    originals: dict[int, np.ndarray] = field(default_factory=dict)

    def node(self, node_id: int) -> Node:
        if not 1 <= node_id <= len(self.nodes):
            raise ParameterError(f"no node {node_id}")
        return self.nodes[node_id - 1]

    def dead_ids(self) -> list[int]:
        return [n.id for n in self.nodes if not n.alive]

    def column(self, node_id: int) -> np.ndarray:
        """The column a live node serves; reading a dead one is a plan
        error, so a repair can never read through a failure."""
        node = self.node(node_id)
        if not node.alive:
            raise PlanError(f"node {node_id} is dead")
        return node.column

    def next_session(self) -> str:
        self.sessions += 1
        return f"s{self.sessions:04d}"


def create_cluster(family: str, p: int, r: int | None = None, *,
                   block_size: int = 16, data: bytes | None = None,
                   seed: int | None = None) -> Cluster:
    code = Code.make(family, p, r)
    if data is not None:
        from .container import encode_payload
        grid = encode_payload(code, data, block_size)
    else:
        rng = np.random.default_rng(seed)
        grid = encode(code, random_info(code, block_size, rng))
    return cluster_from_grid(grid)


def cluster_from_grid(grid: CodeGrid) -> Cluster:
    """Nodes view their columns of ``grid``; nothing is copied.

    Node columns are never written in place (a failure drops the column, a
    repair installs a new array), so a failed node's column is copied only
    when it fails.
    """
    nodes = [Node(c, grid.column(c)) for c in range(1, grid.code.n + 1)]
    return Cluster(grid.code, grid.block_size, nodes)


def fail_nodes(cluster: Cluster, ids) -> Cluster:
    ids = sorted(set(ids))
    for nid in ids:
        cluster.node(nid)
    already = set(cluster.dead_ids())
    budget = cluster.code.n - cluster.code.k
    if len(already | set(ids)) > budget:
        raise ParameterError(
            f"cannot exceed {budget} simultaneous failures for {cluster.code.family}")
    for nid in ids:
        node = cluster.node(nid)
        if nid not in cluster.originals:  # a later failure may hold a bad repair
            cluster.originals[nid] = node.column.copy()
        node.alive = False
        node.column = None
    return cluster


@dataclass
class RepairResult:
    target: int
    strategy: str
    strategy_used: str
    ledger: TransferLedger
    verified: bool
    plan: RepairPlan | None
    column: np.ndarray


def _paper_plan(cluster: Cluster, target: int) -> RepairPlan | None:
    """The family's plan for ``target`` when every dead node holds data
    and serves none of the plan's blocks."""
    code = cluster.code
    dead = cluster.dead_ids()
    data_cols = set(code.systematic_cols())
    if target not in data_cols or not set(dead) <= data_cols:
        return None
    plan = code.spec.plan(code, (target, *(d for d in dead if d != target)))
    return None if plan is None or (plan.sources[:, None] == dead).any() else plan


def run_repair(cluster: Cluster, target: int, strategy: str = "paper") -> RepairResult:
    if strategy not in ("paper", "naive"):
        raise ParameterError(f"unknown strategy {strategy!r}")
    node = cluster.node(target)
    if node.alive:
        raise ParameterError(f"node {target} is alive; nothing to repair")
    ledger = TransferLedger(cluster.next_session(), cluster.block_size)
    plan = _paper_plan(cluster, target) if strategy == "paper" else None
    if plan is not None:
        used = "paper"
        nodes, blocks = np.unique(plan.sources, return_counts=True)
        for nid, nb in zip(nodes.tolist(), blocks.tolist()):
            ledger.record(nid, nb)
        column = execute_plan(plan, cluster)[plan.recover_col]
    else:
        used = "naive"
        column = _naive_rebuild(cluster, target, ledger)
    expected = cluster.originals[target]
    verified = bool(np.array_equal(column, expected))
    node.column = column.copy()
    node.alive = True
    return RepairResult(target, strategy, used, ledger, verified, plan, column)


def _naive_rebuild(cluster: Cluster, target: int,
                   ledger: TransferLedger) -> np.ndarray:
    code = cluster.code
    sources = [n.id for n in cluster.nodes if n.alive][:code.k]
    for s in sources:
        ledger.record(s, code.rows)
    erased = [c for c in range(1, code.n + 1) if c not in sources]
    decoded = mds_decode(code, cluster, erased, wanted=[target])
    return decoded.column(target).copy()


def session_report(cluster: Cluster, failed, strategy: str,
                   results: list[RepairResult]) -> dict:
    merged = TransferLedger(results[0].ledger.session if results else cluster.next_session(),
                            cluster.block_size)
    for res in results:
        for nid, nb in res.ledger.blocks.items():
            merged.record(nid, nb)
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
