"""In-process simulated storage cluster with per-node transfer accounting.

One node stores one column. A repair session picks a strategy:

* ``paper``  run the family's parity-group planner and ship exactly its
  transmission list; falls back to naive when no planner applies (parity
  column target, more simultaneous failures than the planners cover, or a
  helper the plan needs is itself dead), and the result records which
  strategy actually ran.
* ``naive``  fetch the k lowest-numbered live columns and re-decode.

Nodes answer in deterministic order and the dead node's original column
is kept in a shadow copy that only the verification step may read, so a
buggy plan cannot quietly read through a failure. Every block on the wire
is charged to the node that served it; a parity-sum request costs the
serving node one block no matter how many cells it folds together.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

import numpy as np

from .codes import Code, CodeGrid, cell_view, encode, mds_decode, random_info
from .core import ParameterError, PlanError, UnrecoverableError
from .planner import (
    RepairPlan,
    execute_plan,
    plan_evenodd_single,
    plan_extended_single,
    plan_rdp_single,
    plan_star_double,
    plan_xcode_single,
    recovered_column,
)

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
    shadow: CodeGrid
    sessions: int = 0

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


def _seed_from_env(seed: int | None) -> int | None:
    if seed is not None:
        return seed
    env = os.environ.get("ARRAYCODE_SEED")
    return int(env) if env else None


def create_cluster(family: str, p: int, r: int | None = None, *,
                   block_size: int = 16, data: bytes | None = None,
                   seed: int | None = None) -> Cluster:
    code = Code.make(family, p, r)
    if data is not None:
        from .container import encode_payload
        grid = encode_payload(code, data, block_size)
    else:
        rng = np.random.default_rng(_seed_from_env(seed))
        grid = encode(code, random_info(code, block_size, rng))
    return cluster_from_grid(grid)


def cluster_from_grid(grid: CodeGrid) -> Cluster:
    """Nodes view their columns of ``grid``; the shadow is the one copy.

    Node columns are never written in place (a failure drops the column, a
    repair installs a new array), so only the shadow needs its own bytes.
    """
    nodes = [Node(c, grid.column(c)) for c in range(1, grid.code.n + 1)]
    return Cluster(grid.code, grid.block_size, nodes, grid.copy())


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
    code = cluster.code
    dead = cluster.dead_ids()
    data_cols = set(code.systematic_cols())
    if target not in data_cols or not set(dead) <= data_cols:
        return None
    if len(dead) == 1:
        p = code.p
        if code.family == "evenodd":
            return plan_evenodd_single(p, target)
        if code.family == "evenodd-ext":
            return plan_extended_single(p, code.r, target)
        if code.family == "rdp":
            return plan_rdp_single(p, target)
        if code.family == "xcode":
            return plan_xcode_single(p, target)
        if code.family == "star":
            return plan_evenodd_single(p, target, code=code)
    if code.family == "star" and len(dead) == 2:
        other = next(d for d in dead if d != target)
        return plan_star_double(code.p, (target, other))
    return None


def run_repair(cluster: Cluster, target: int, strategy: str = "paper") -> RepairResult:
    if strategy not in ("paper", "naive"):
        raise ParameterError(f"unknown strategy {strategy!r}")
    node = cluster.node(target)
    if node.alive:
        raise ParameterError(f"node {target} is alive; nothing to repair")
    ledger = TransferLedger(cluster.next_session(), cluster.block_size)
    plan = _paper_plan(cluster, target) if strategy == "paper" else None
    if plan is not None:
        dead = set(cluster.dead_ids())
        if any(t.source in dead for t in plan.transmissions):
            plan = None  # a helper the plan relies on is gone
    if plan is not None:
        used = "paper"
        for t in plan.transmissions:
            ledger.record(t.source)
        recovered = execute_plan(plan, cluster)
        column = recovered_column(plan, recovered, cluster.block_size)
    else:
        used = "naive"
        column = _naive_rebuild(cluster, target, ledger)
    expected = cluster.shadow.column(target)
    verified = bool(np.array_equal(column, expected))
    node.column = column.copy()
    node.alive = True
    return RepairResult(target, strategy, used, ledger, verified, plan, column)


def _naive_rebuild(cluster: Cluster, target: int,
                   ledger: TransferLedger) -> np.ndarray:
    code = cluster.code
    live = [n.id for n in cluster.nodes if n.alive]
    if len(live) < code.k:
        raise UnrecoverableError(
            f"{len(live)} live nodes cannot rebuild a {code.family} column "
            f"(need {code.k})")
    sources = live[:code.k]
    cells = cell_view(code, np.zeros((code.rows * code.n, cluster.block_size),
                                     dtype=np.uint8))
    for s in sources:
        cells[:, s - 1] = cluster.node(s).column
        ledger.record(s, code.rows)
    erased = [c for c in range(1, code.n + 1) if c not in sources]
    allow = code.family == "evenodd-ext" and code.r > 3
    full = mds_decode(code, CodeGrid(code, cells), erased,
                      allow_unchecked=allow)
    return full.column(target).copy()


def session_report(cluster: Cluster, failed, strategy: str,
                   results: list[RepairResult]) -> dict:
    merged: dict[int, int] = {}
    for res in results:
        for nid, nb in res.ledger.blocks.items():
            merged[nid] = merged.get(nid, 0) + nb
    total = sum(merged.values())
    bs = cluster.block_size
    doc = {
        "session": results[0].ledger.session if results else cluster.next_session(),
        "family": cluster.code.family,
        "p": cluster.code.p,
        "r": cluster.code.r,
        "failed": sorted(failed),
        "strategy": strategy,
        "gamma_blocks": total,
        "gamma_bytes": total * bs,
        "per_node": [{"id": nid, "blocks": nb, "bytes": nb * bs}
                     for nid, nb in sorted(merged.items())],
        "verified": all(r.verified for r in results),
        "repairs": [
            {"target": r.target, "strategy_used": r.strategy_used,
             "gamma_blocks": r.ledger.total_blocks,
             "groups": None if r.plan is None else len(r.plan.groups),
             "parity_blocks": None if r.plan is None
             else r.plan.parity_block_count()}
            for r in results],
    }
    return doc
