"""Spans around the calls into each arraycode module, for the traced run.

Each public function is wrapped at the module attribute through which its
callers reach it (``simnet.mds_decode`` as well as ``codes.mds_decode``), so
a call made inside the program shows up as a child of its caller's span.
Spans are recorded only while a CLI command is open, live in memory and are
written out when the run ends. The program itself is not modified.
"""

from __future__ import annotations

import importlib
import json
import time
from collections import defaultdict

# span name -> (module, attribute) pairs to wrap
TARGETS = {
    "core.xor_blocks": [("core", "xor_blocks"), ("codes", "xor_blocks"),
                        ("planner", "xor_blocks")],
    "core.parity_group_members": [("core", "parity_group_members"),
                                  ("codes", "parity_group_members"),
                                  ("planner", "parity_group_members"),
                                  ("analysis", "parity_group_members")],
    "codes.encode": [("codes", "encode"), ("container", "encode"), ("simnet", "encode")],
    "codes.decode_recipe": [("codes", "decode_recipe")],
    "codes.mds_decode": [("codes", "mds_decode"), ("simnet", "mds_decode")],
    "planner.plan": [(mod, fn) for mod in ("planner", "simnet")
                     for fn in ("plan_evenodd_single", "plan_extended_single",
                                "plan_rdp_single", "plan_xcode_single",
                                "plan_star_double")] + [("cli", "plan_star_double")],
    "planner.execute_plan": [("planner", "execute_plan"), ("simnet", "execute_plan")],
    "simnet.cluster_from_grid": [("simnet", "cluster_from_grid")],
    "simnet.run_repair": [("simnet", "run_repair")],
    "container.read_container": [("container", "read_container")],
    "container.write_container": [("container", "write_container")],
    "container.encode_payload": [("container", "encode_payload")],
    "container.extract_payload": [("container", "extract_payload")],
    "analysis.bandwidth_sweep": [("analysis", "bandwidth_sweep")],
    "analysis.brute_force_min_single": [("analysis", "brute_force_min_single")],
    "analysis.common_block_count": [("analysis", "common_block_count")],
    "analysis.common_block_oracle": [("analysis", "common_block_oracle")],
}

CLI = "cli.main"


def _recipe_key(code, erased) -> tuple:
    return (code.family, code.p, code.r, tuple(sorted(erased)))


class Tracer:
    """Span recorder. A span is (id, parent, command, name, start_ns, end_ns, info)."""

    def __init__(self):
        self.spans: list[tuple] = []
        self._stack: list[int] = []
        self._command: int | None = None
        self._next = 0
        self.solved: set[tuple] = set()  # decode_recipe keys seen in this process
        self.missing: list[str] = []

    def install(self, package) -> None:
        for name, sites in TARGETS.items():
            for mod_name, attr in sites:
                mod = importlib.import_module(f"{package}.{mod_name}")
                fn = getattr(mod, attr, None)
                if fn is None:
                    self.missing.append(f"{mod_name}.{attr}")
                    continue
                setattr(mod, attr, self._wrap(name, fn))

    def _wrap(self, name, fn):
        before, after = _HOOKS.get(name, (None, None))
        tracer = self

        def traced(*args, **kwargs):
            if tracer._command is None:
                if name == "codes.decode_recipe":
                    tracer.solved.add(_recipe_key(*args[:2]))
                return fn(*args, **kwargs)
            if before is not None:
                args, info = before(tracer, args)
            else:
                info = None
            sid = tracer._next
            tracer._next += 1
            parent = tracer._stack[-1]
            tracer._stack.append(sid)
            ok = False
            t0 = time.perf_counter_ns()
            try:
                out = fn(*args, **kwargs)
                ok = True
                return out
            finally:
                t1 = time.perf_counter_ns()
                tracer._stack.pop()
                if not ok:  # the call raised; keep the span so children keep a parent
                    info = None
                elif after is not None:
                    info = after(args, out, info)
                tracer.spans.append((sid, parent, tracer._command, name, t0, t1, info))

        traced.__wrapped__ = fn
        return traced

    def command(self, run):
        """Run one CLI command as the root span; its id tags every child."""
        sid = self._next
        self._next += 1
        self._command = sid
        self._stack.append(sid)
        t0 = time.perf_counter_ns()
        try:
            return run()
        finally:
            t1 = time.perf_counter_ns()
            self._stack.pop()
            self._command = None
            self.spans.append((sid, None, sid, CLI, t0, t1, None))

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for sid, parent, cmd, name, t0, t1, info in self.spans:
                fh.write(json.dumps({"id": sid, "parent": parent, "cmd": cmd,
                                     "name": name, "start_ns": t0, "end_ns": t1,
                                     "info": info}) + "\n")


# -- per-function extras ---------------------------------------------------

def _xor_before(tracer, args):
    blocks = list(args[0])  # callers may pass a generator; count it once
    return (blocks,) + tuple(args[1:]), len(blocks)


def _recipe_before(tracer, args):
    key = _recipe_key(*args[:2])
    warm = key in tracer.solved
    tracer.solved.add(key)
    return args, warm


def _recipe_after(args, recipe, warm):
    cells = len(recipe)
    sources = sum(len(s) for s in recipe.values())
    return {"warm": warm, "cells": cells, "sources": sources}


_HOOKS = {
    "core.xor_blocks": (_xor_before, lambda args, out, n: n),
    "codes.decode_recipe": (_recipe_before, _recipe_after),
    "codes.encode": (None, lambda args, out, _: int(args[1].nbytes)),
    "codes.mds_decode": (None, lambda args, out, _: {
        "erased": len(set(args[2])), "bytes": int(args[1].cells.nbytes)}),
    "planner.execute_plan": (None, lambda args, out, _: (len(args[0].transmissions),
                                                         int(args[1].block_size))),
    "simnet.run_repair": (None, lambda args, out, _: {
        "asked": args[2] if len(args) > 2 else "paper", "used": out.strategy_used,
        "family": args[0].code.family, "blocks": out.ledger.total_blocks}),
    "container.read_container": (None, lambda args, out, _: int(out[0].cells.nbytes)),
}


# -- per-layer metrics -------------------------------------------------------

METRICS = [  # name, unit, better
    ("core.xor_blocks.calls", "count", "lower"),
    ("core.xor_blocks.blocks", "count", "lower"),
    ("core.parity_group_members.calls", "count", "lower"),
    ("codes.encode.ms", "ms", "lower"),
    ("codes.encode.MBps", "MB/s", "higher"),
    ("codes.decode_recipe.cold_ms", "ms", "lower"),
    ("codes.decode_recipe.cold_count", "count", "lower"),
    ("codes.decode_recipe.warm_ratio", "ratio", "higher"),
    ("codes.decode_recipe.xor_sources", "blocks/cell", "lower"),
    ("codes.mds_decode.self_ms", "ms", "lower"),
    ("codes.mds_decode.verify_ms", "ms", "lower"),
    ("planner.plan.ms", "ms", "lower"),
    ("planner.plan.calls", "count", "lower"),
    ("planner.execute_plan.ms", "ms", "lower"),
    ("planner.execute_plan.MBps", "MB/s", "higher"),
    ("planner.transmissions", "blocks", "lower"),
    ("simnet.cluster_from_grid.ms", "ms", "lower"),
    ("simnet.run_repair.self_ms", "ms", "lower"),
    ("simnet.run_repair.paper_ratio", "ratio", "higher"),
    ("container.read_container.ms", "ms", "lower"),
    ("container.read_container.MBps", "MB/s", "higher"),
    ("container.write_container.ms", "ms", "lower"),
    ("container.encode_payload.self_ms", "ms", "lower"),
    ("container.extract_payload.ms", "ms", "lower"),
    ("analysis.bandwidth_sweep.self_ms", "ms", "lower"),
    ("analysis.brute_force_min_single.ms", "ms", "lower"),
    ("analysis.common_block_count.ms", "ms", "lower"),
    ("analysis.common_block_oracle.ms", "ms", "lower"),
    ("cli.self_ms", "ms", "lower"),
]


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(spans: list[tuple], rounds: int) -> dict[str, float]:
    """Per-layer figures from the spans of ``rounds`` whole rounds.

    ``.ms`` is mean span time per call and ``.self_ms`` mean span time not
    covered by child spans; ``.calls``/``_count``/``.blocks`` are per round;
    MB/s divides bytes handled by time spent in the span.
    """
    by_id = {s[0]: s for s in spans}
    child_ns: dict[int, int] = defaultdict(int)
    verify_ns = 0
    for sid, parent, _, name, t0, t1, _ in spans:
        if parent is not None:
            child_ns[parent] += t1 - t0
            if name == "codes.encode" and by_id[parent][3] == "codes.mds_decode":
                verify_ns += t1 - t0
    calls: dict[str, int] = defaultdict(int)
    total: dict[str, int] = defaultdict(int)
    own: dict[str, int] = defaultdict(int)
    infos: dict[str, list] = defaultdict(list)
    for sid, _, _, name, t0, t1, info in spans:
        calls[name] += 1
        total[name] += t1 - t0
        own[name] += t1 - t0 - child_ns[sid]
        if info is not None:
            infos[name].append(info)

    def ms(name):
        return _ratio(total[name], calls[name]) / 1e6

    def self_ms(name):
        return _ratio(own[name], calls[name]) / 1e6

    def mbps(name, nbytes):
        return _ratio(nbytes, total[name] / 1e9) / 1e6

    recipes = infos["codes.decode_recipe"]
    cold_ns = [t1 - t0 for _, _, _, name, t0, t1, info in spans
               if name == "codes.decode_recipe" and info is not None and not info["warm"]]
    executed = infos["planner.execute_plan"]
    runs = infos["simnet.run_repair"]
    paper_asked = [r["used"] for r in runs if r["asked"] == "paper"]
    return {
        "core.xor_blocks.calls": calls["core.xor_blocks"] / rounds,
        "core.xor_blocks.blocks": sum(infos["core.xor_blocks"]) / rounds,
        "core.parity_group_members.calls": calls["core.parity_group_members"] / rounds,
        "codes.encode.ms": ms("codes.encode"),
        "codes.encode.MBps": mbps("codes.encode", sum(infos["codes.encode"])),
        "codes.decode_recipe.cold_ms": _ratio(sum(cold_ns), len(cold_ns)) / 1e6,
        "codes.decode_recipe.cold_count": len(cold_ns) / rounds,
        "codes.decode_recipe.warm_ratio": _ratio(len(recipes) - len(cold_ns), len(recipes)),
        "codes.decode_recipe.xor_sources": _ratio(sum(i["sources"] for i in recipes),
                                                  sum(i["cells"] for i in recipes)),
        "codes.mds_decode.self_ms": self_ms("codes.mds_decode"),
        "codes.mds_decode.verify_ms": _ratio(verify_ns, calls["codes.mds_decode"]) / 1e6,
        "planner.plan.ms": ms("planner.plan"),
        "planner.plan.calls": calls["planner.plan"] / rounds,
        "planner.execute_plan.ms": ms("planner.execute_plan"),
        "planner.execute_plan.MBps": mbps("planner.execute_plan",
                                          sum(n * bs for n, bs in executed)),
        "planner.transmissions": _ratio(sum(n for n, _ in executed), len(executed)),
        "simnet.cluster_from_grid.ms": ms("simnet.cluster_from_grid"),
        "simnet.run_repair.self_ms": self_ms("simnet.run_repair"),
        "simnet.run_repair.paper_ratio": _ratio(paper_asked.count("paper"), len(paper_asked)),
        "container.read_container.ms": ms("container.read_container"),
        "container.read_container.MBps": mbps("container.read_container",
                                              sum(infos["container.read_container"])),
        "container.write_container.ms": ms("container.write_container"),
        "container.encode_payload.self_ms": self_ms("container.encode_payload"),
        "container.extract_payload.ms": ms("container.extract_payload"),
        "analysis.bandwidth_sweep.self_ms": self_ms("analysis.bandwidth_sweep"),
        "analysis.brute_force_min_single.ms": ms("analysis.brute_force_min_single"),
        "analysis.common_block_count.ms": ms("analysis.common_block_count"),
        "analysis.common_block_oracle.ms": ms("analysis.common_block_oracle"),
        "cli.self_ms": self_ms(CLI),
    }
