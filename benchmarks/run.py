"""arraycode benchmark: the CLI driven the way its users drive it.

    python3 benchmarks/run.py --workload bulk-64k --seed 1 --seconds 35 --trace 0
    python3 benchmarks/run.py --workload all --seed 1

One process, one client in a closed loop: each command is issued through
``arraycode.cli.main(argv)`` after the previous one returned. Inputs are
generated from ``--seed``; the program sees only the generated files and
argument lists. Every output is checked against references that do not call
the code under test (``reference.py``). The last line of standard output is
the result: ``{"correct", "attempted", "failed", "metrics"}``, with the
end-to-end metrics when ``--trace 0`` and the per-layer metrics when
``--trace 1``. The line before it describes the host and the sample counts.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import io
import itertools
import json
import os
import platform
import re
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from collections import Counter, defaultdict
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import reference as ref

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / "work"
OUT = HERE / "out"

FAMILIES = ("evenodd", "evenodd-ext", "rdp", "xcode", "star")
EXT_R = 3  # r of the evenodd-ext containers and analyze sweeps
MODES = ("evenodd-min", "star-validate", "f-check")
SETUPS = 5  # set-ups per run; setup_s is their median
# peak_rss_MB is read after this many rounds, the same work in every run;
# the recipe cache grows with every round, so a later reading would depend
# on how many rounds the host's speed allowed
RSS_ROUNDS = 4
# the host-speed probe run before every command, and its median time on the
# host the bounds were set on (2 vCPU x86_64, Python 3.11.7)
PROBE_LOOPS = 30_000
PROBE_NOMINAL_S = 2.4e-3


@dataclass(frozen=True)
class Workload:
    name: str
    p: int
    block: int
    fresh: bool        # a new seeded failure pattern for every repair command
    p_range: str       # analyze sweep
    oracles: dict      # mode -> (p, r)
    passes: int        # analyze and oracle passes per round


SMALL_ORACLES = {"evenodd-min": (11, 3), "star-validate": (13, 3), "f-check": (13, 3)}

# Every workload runs every command kind, so every metric exists on each;
# the sizes decide which layer a workload's time goes to (README.md).
WORKLOADS = {w.name: w for w in (
    Workload("bulk-64k", 31, 65536, False, "5:23", SMALL_ORACLES, 4),
    Workload("wide-16b", 53, 16, True, "5:23", SMALL_ORACLES, 3),
    Workload("analysis", 7, 4096, False, "5:101",
             {"evenodd-min": (17, 3), "star-validate": (31, 3), "f-check": (53, 5)}, 1),
)}

END_TO_END = {  # name -> unit
    "setup_s": "s", "encode_MBps": "MB/s", "extract_MBps": "MB/s",
    "repair_data_ms": "ms", "repair_parity_ms": "ms", "repair_double_ms": "ms",
    "repair_data_blocks": "blocks", "repair_double_blocks": "blocks",
    "analyze_ms": "ms", "oracle_ms": "ms", "peak_rss_MB": "MB",
}


def load_program():
    """Import arraycode from this checkout's sources, nowhere else."""
    if not (SRC / "arraycode" / "__init__.py").is_file():
        sys.exit(f"run.py: no arraycode sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import arraycode
    from arraycode import cli, container, simnet
    if Path(arraycode.__file__).resolve().parent != SRC / "arraycode":
        sys.exit(f"run.py: imported arraycode from {arraycode.__file__}, not {SRC}")
    return cli, container, simnet


def filesystem_of(path: Path) -> str:
    best, fstype = "", "unknown"
    with open("/proc/self/mounts") as fh:
        for line in fh:
            _, mnt, typ = line.split()[:3]
            if str(path).startswith(mnt) and len(mnt) > len(best):
                best, fstype = mnt, typ
    return fstype


class Bench:
    def __init__(self, workload: Workload, seed: int, tracer=None):
        self.w = workload
        self.seed = seed
        self.tracer = tracer
        self.cli, self.container, self.simnet = load_program()
        self.rng = np.random.default_rng([seed, 0])
        self.dir = WORK / f"{workload.name}-{os.getpid()}"
        # metric -> family or oracle mode -> (value, host speed) per command
        self.samples: dict[str, dict[str, list[tuple[float, float]]]] = {
            k: defaultdict(list) for k in END_TO_END if k not in ("setup_s", "peak_rss_MB")}
        self.attempted: Counter[str] = Counter()  # per command kind
        self.failed: Counter[str] = Counter()
        self.errors: list[str] = []
        self.rebuilt_ok: set[tuple] = set()
        self.peak_rss: float | None = None
        self.probes: list[float] = []
        self.files = {fam: self._files(fam) for fam in FAMILIES}
        self.patterns = {fam: self._patterns(i, fam) for i, fam in enumerate(FAMILIES)}

    # -- inputs ---------------------------------------------------------------

    def _files(self, fam: str) -> dict:
        d = self.dir
        return {"payload": d / f"{fam}.bin", "aec": d / f"{fam}.aec",
                "out": d / f"{fam}.out", "report": d / f"{fam}.json",
                "csv": d / f"{fam}.csv"}

    def _patterns(self, i: int, fam: str) -> dict:
        rng = np.random.default_rng([self.seed, 100 + i])
        sh = ref.shape(fam, self.w.p, EXT_R)
        data = [int(c) for c in rng.permutation(np.arange(1, sh.info_cols + 1))]
        parity = [int(c) for c in rng.permutation(np.arange(sh.info_cols + 1, sh.n + 1))]
        pairs = list(itertools.combinations(range(1, sh.info_cols + 1), 2))
        double = [pairs[j] for j in rng.permutation(len(pairs))]
        if self.w.fresh:
            pick = itertools.cycle
        else:  # the same failure columns in every cycle
            def pick(seq):
                return itertools.repeat(seq[0])
        return {"data": pick([(c,) for c in data]),
                "parity": pick([(c,) for c in parity]) if parity else None,
                "double": pick(double)}

    def setup(self) -> float:
        """One set-up: a fresh interpreter importing arraycode, then the
        seeded payload files written. Returns its wall time."""
        t0 = time.perf_counter()
        env = dict(os.environ, PYTHONPATH=str(SRC))
        subprocess.run([sys.executable, "-c", "import arraycode"], env=env, check=True)
        self.dir.mkdir(parents=True, exist_ok=True)
        for i, fam in enumerate(FAMILIES):
            rng = np.random.default_rng([self.seed, 1 + i])
            sh = ref.shape(fam, self.w.p, EXT_R)
            size = sh.info_rows * sh.info_cols * self.w.block - int(rng.integers(0, self.w.block))
            self.files[fam]["payload"].write_bytes(rng.bytes(size))
        return time.perf_counter() - t0

    # -- commands -------------------------------------------------------------

    def run(self, kind: str, argv: list[str]) -> tuple[int, str, float]:
        """Issue one CLI command; returns (exit code, stdout, seconds)."""
        buf = io.StringIO()

        def call():
            with contextlib.redirect_stdout(buf):
                return self.cli.main(argv)

        self.attempted[kind] += 1
        self.probes.append(probe())
        t0 = time.perf_counter()
        try:
            rc = self.tracer.command(call) if self.tracer else call()
        except (Exception, SystemExit):
            traceback.print_exc()
            rc = -1
        dt = time.perf_counter() - t0
        if rc != 0:
            self.failed[kind] += 1
            print(f"run.py: {' '.join(argv)} exited {rc}", file=sys.stderr)
        return rc, buf.getvalue(), dt

    def sample(self, name: str, group: str, value: float) -> None:
        """Record a figure of the last command with the host speed the probe
        just before it measured (1.0 = nominal, 1.3 = 30% slower)."""
        self.samples[name][group].append((value, self.probes[-1] / PROBE_NOMINAL_S))

    def check(self, ok: bool, what: str) -> None:
        if not ok:
            self.errors.append(what)
            print(f"run.py: check failed: {what}", file=sys.stderr)

    def block_cycle(self, fam: str) -> None:
        f, p, block = self.files[fam], self.w.p, self.w.block
        argv = ["encode", "--family", fam, "--p", str(p), "--block-size", str(block)]
        if fam == "evenodd-ext":
            argv += ["--r", str(EXT_R)]
        size = f["payload"].stat().st_size
        rc, _, dt = self.run("encode", argv + [str(f["payload"]), str(f["aec"])])
        if rc == 0:
            self.sample("encode_MBps", fam, size / dt / 1e6)
            why = ref.container_mismatch(f["aec"], fam, p, EXT_R, block,
                                         f["payload"].read_bytes())
            self.check(why is None, f"{fam} container: {why}")
        pats = self.patterns[fam]
        self.repair(fam, "data", next(pats["data"]))
        if pats["parity"] is not None:  # xcode has no parity-only column
            self.repair(fam, "parity", next(pats["parity"]))
        self.repair(fam, "double", next(pats["double"]))
        rc, _, dt = self.run("extract", ["extract", str(f["aec"]), str(f["out"])])
        if rc == 0:
            self.sample("extract_MBps", fam, size / dt / 1e6)
            self.check(ref.files_equal(f["payload"], f["out"]), f"{fam} extract differs")
            f["out"].unlink()  # before the kernel writes it back to disk

    def repair(self, fam: str, kind: str, cols: tuple[int, ...]) -> None:
        f = self.files[fam]
        argv = ["repair", str(f["aec"]), "--fail", ",".join(map(str, cols)),
                "--strategy", "paper", "--report", str(f["report"])]
        rc, _, dt = self.run(f"repair_{kind}", argv)
        if rc != 0:
            return
        self.sample(f"repair_{kind}_ms", fam, dt * 1e3)
        report = json.loads(f["report"].read_text())
        if kind != "parity":
            self.sample(f"repair_{kind}_blocks", fam, report["gamma_blocks"])
        self.check_report(fam, list(cols), report)
        self.check_rebuilt(fam, cols)

    def check_report(self, fam: str, cols: list[int], report: dict) -> None:
        p = self.w.p
        naive = ref.naive(fam, p, EXT_R)
        entries = report["repairs"]
        self.check(report["verified"] and report["failed"] == cols
                   and report["gamma_blocks"] == sum(e["gamma_blocks"] for e in entries),
                   f"{fam} repair {cols}: report totals")
        for i, e in enumerate(entries):
            dead, got = cols[i:], e["gamma_blocks"]  # targets run in ascending order
            if e["strategy_used"] == "naive":
                ok = got == naive
            elif len(dead) == 1:
                want, exact = ref.single_repair(fam, p, EXT_R, dead[0])
                ok = got == want if exact else got <= want
            elif fam == "star" and len(dead) == 2:
                lo, hi = ref.star_double_range(p)
                ok = lo <= got <= hi
            else:
                ok = got <= naive
            self.check(ok, f"{fam} repair {cols}: target {e['target']} moved {got} blocks")

    def check_rebuilt(self, fam: str, cols: tuple[int, ...]) -> None:
        """The columns simnet rebuilds for this failure, outside the timed
        section, must equal the bytes stored at their offsets in the file.
        Without fresh patterns the container is byte-identical every cycle
        (the encode check proves it), so each failure is rebuilt once a run."""
        if (fam, cols) in self.rebuilt_ok:
            return
        path, sh = self.files[fam]["aec"], ref.shape(fam, self.w.p, EXT_R)
        grid, _ = self.container.read_container(path)
        cluster = self.simnet.cluster_from_grid(grid)
        self.simnet.fail_nodes(cluster, cols)
        for target in cols:
            column = self.simnet.run_repair(cluster, target, "paper").column
            stored = ref.read_column(path, target, sh.rows, self.w.block)
            self.check(np.array_equal(column, stored),
                       f"{fam} repair {cols}: rebuilt column {target} differs from file")
        if not self.w.fresh:
            self.rebuilt_ok.add((fam, cols))

    def analyze(self, fam: str) -> None:
        path = self.files[fam]["csv"]
        rc, _, dt = self.run("analyze", ["analyze", "--family", fam, "--p-range",
                                         self.w.p_range, "--r", str(EXT_R),
                                         "--csv", str(path)])
        if rc != 0:
            return
        self.sample("analyze_ms", fam, dt * 1e3)
        with open(path, newline="") as fh:
            rows = list(csv.DictReader(fh))
        lo, hi = map(int, self.w.p_range.split(":"))
        primes = [q for q in range(max(lo, 5 if fam == "xcode" else 3), hi + 1)
                  if all(q % d for d in range(2, q))]
        self.check([int(r["p"]) for r in rows] == primes, f"analyze {fam}: primes")
        for row in rows:
            p = int(row["p"])
            erased = len(row["erased"].split(";"))
            gamma, bound = int(row["gamma_blocks"]), int(row["bound_blocks"])
            naive = int(row["naive_blocks"])
            if fam == "evenodd":
                ok = gamma == bound == ref.evenodd_single(p)
            elif fam == "rdp":
                ok = gamma == bound == ref.rdp_single(p)
            elif fam == "xcode":
                ok = gamma <= bound == ref.xcode_single_bound(p)
            elif fam == "star":
                ok = gamma == bound == ref.star_double_range(p)[0]
            else:
                ok = gamma == ref.ext_single(p, EXT_R, 1) <= bound
            ok = (ok and naive == ref.naive(fam, p, EXT_R) * erased
                  and abs(float(row["ratio"]) - gamma / naive) < 1e-4
                  and abs(float(row["cutset_blocks"])
                          - float(ref.cutset(fam, p, EXT_R, erased))) < 0.01)
            self.check(ok, f"analyze {fam} p={p}: {row}")

    def oracle(self, mode: str) -> None:
        p, r = self.w.oracles[mode]
        rc, out, dt = self.run("oracle", ["oracle", "--mode", mode, "--p", str(p),
                                          "--r", str(r)])
        if rc != 0:
            return
        self.sample("oracle_ms", mode, dt * 1e3)
        if mode == "evenodd-min":
            m = re.search(r"min=(\d+) optimal_x=\[([\d, ]*)\]", out)
            ok = (m is not None and int(m[1]) == ref.evenodd_single(p)
                  and {int(x) for x in m[2].split(",")} == {(p - 1) // 2, (p - 3) // 2})
        elif mode == "star-validate":
            m = re.search(r"savings=(\d+)", out)
            lo, hi = ref.star_double_range(p)
            ok = m is not None and int(m[1]) == hi - lo
        else:
            m = re.search(r"(\d+) class subsets agree", out)
            ok = m is not None and int(m[1]) == 2 ** r - r - 1
        self.check(ok, f"oracle {mode} p={p}: {out.strip()!r}")

    def round(self) -> None:
        for fam in self.rng.permutation(FAMILIES):
            self.block_cycle(str(fam))
        for _ in range(self.w.passes):
            for fam in self.rng.permutation(FAMILIES):
                self.analyze(str(fam))
            for mode in self.rng.permutation(MODES):
                self.oracle(str(mode))

    # -- the run --------------------------------------------------------------

    def measure(self, seconds: float) -> int:
        """Whole rounds until the next one would end past ``seconds``."""
        start = time.perf_counter()
        rounds = 0
        while True:
            t0 = time.perf_counter()
            self.round()
            rounds += 1
            if rounds == RSS_ROUNDS:
                self.peak_rss = peak_rss_mb()
            now = time.perf_counter()
            if now - start + (now - t0) > seconds:
                return rounds

    def end_to_end(self, setups: list[float], scaled: bool = True) -> dict[str, float]:
        """The median per family (or oracle mode), then the mean over them.

        Each timing is first scaled to nominal host speed by the probe taken
        just before its command: this host switches between a fast and a slow
        state every second or so, and for minutes at a time, for the probe and
        the program alike (README.md, "Spread"). ``scaled=False`` gives the
        raw figures.
        """
        def value(name, v, speed):
            if scaled and name.endswith("_ms"):
                return v / speed
            if scaled and name.endswith("_MBps"):
                return v * speed
            return v

        out = {"setup_s": statistics.median(setups)}
        for name, groups in self.samples.items():
            if groups:
                out[name] = statistics.fmean(
                    statistics.median(value(name, v, speed) for v, speed in samples)
                    for samples in groups.values())
        out["peak_rss_MB"] = self.peak_rss or peak_rss_mb()
        return out


def probe() -> float:
    """Seconds taken by a fixed pure-Python loop, independent of arraycode."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(PROBE_LOOPS):
        acc += i * i
    return time.perf_counter() - t0


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def host() -> dict:
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": np.__version__, "machine": platform.machine(),
            "filesystem": filesystem_of(WORK)}


def run_one(args) -> int:
    w = WORKLOADS[args.workload]
    tracer = None
    if args.trace:
        import spans
        tracer = spans.Tracer()
    bench = Bench(w, args.seed, tracer)
    if tracer:
        tracer.install("arraycode")
    try:
        setups = [bench.setup() for _ in range(SETUPS)]
        rounds = bench.measure(args.seconds)
    finally:
        shutil.rmtree(bench.dir, ignore_errors=True)
    e2e = bench.end_to_end(setups)
    if tracer:
        values = spans.layer_metrics(tracer.spans, rounds)
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit, _ in spans.METRICS}
        OUT.mkdir(exist_ok=True)
        tracer.write(OUT / f"{w.name}.spans.jsonl")
        (OUT / f"{w.name}.layers.json").write_text(json.dumps(
            {"workload": w.name, "seed": args.seed, "rounds": rounds,
             "spans": len(tracer.spans), "unwrapped": tracer.missing,
             "per_layer": values, "end_to_end_traced": e2e}, indent=2) + "\n")
    else:
        metrics = {name: {"value": e2e[name], "unit": END_TO_END[name]}
                   for name in END_TO_END if name in e2e}
    attempted = sum(bench.attempted.values())
    failed = sum(bench.failed.values())
    print(json.dumps({"workload": w.name, "seed": args.seed, "rounds": rounds,
                      "host": host(),
                      "commands": {k: {"attempted": n, "failed": bench.failed[k]}
                                   for k, n in sorted(bench.attempted.items())},
                      "samples": {k: sum(map(len, v.values()))
                                  for k, v in bench.samples.items()}
                      | {"setup_s": len(setups)},
                      "host_speed": statistics.median(bench.probes) / PROBE_NOMINAL_S,
                      "unscaled": bench.end_to_end(setups, scaled=False),
                      "check_failures": len(bench.errors)}))
    print(json.dumps({"correct": not bench.errors, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


def run_all(args) -> int:
    """Each workload in its own process, so peak memory stays per workload."""
    correct, attempted, failed, metrics = True, 0, 0, {}
    for name in WORKLOADS:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(args.trace)]
        proc = subprocess.run(argv, capture_output=True, text=True, check=True)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        print(lines[-2])
        result = json.loads(lines[-1])
        correct &= result["correct"]
        attempted += result["attempted"]
        failed += result["failed"]
        for metric, v in result["metrics"].items():
            metrics[f"{name}/{metric}"] = v
            print(f"{name:>9}  {metric:<36} {v['value']:>14.4f} {v['unit']}")
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=35)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    return run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    sys.exit(main())
