"""Golden digests of the repair plans.

Each digest is the sha256 of the plans' ``plan_to_json`` documents, one
sorted-key JSON line per plan, so any change to a group, a transmission or
their order shows up here. The small primes cover every variant; the large
ones are the sizes the benchmark plans at (its ``wide-16b`` p=53, its
``bulk-64k`` p=31, its star-validate oracle and its ``analyze`` sweeps).
The ``analyze --csv`` files of every family over p = 5..101 at each r in
2..5 are pinned byte for byte as well, and so is the whole output of
``repair`` at p = 7 under both strategies.
"""

import hashlib
import json

import numpy as np
import pytest

from arraycode import Code
from arraycode.analysis import bandwidth_sweep
from arraycode.cli import main
from arraycode.codes import FAMILIES
from arraycode.planner import plan_evenodd_single, plan_to_json

PRIMES = (5, 7, 11, 13)
LARGE = (17, 31, 53)


def _singles(primes):
    for p in primes:
        for family in FAMILIES:
            code = Code.make(family, p)
            for col in code.systematic_cols():
                yield code.spec.plan(code, (col,))


def _single_plans():
    return _singles(PRIMES)


def _large_single_plans():
    return _singles(LARGE)


def _evenodd_x_plans():
    for p in PRIMES:
        code = Code.make("evenodd", p)
        for col in code.systematic_cols():
            for x in range(p):
                yield plan_evenodd_single(code, col, x)


def _extended_plans():
    for p in PRIMES:
        for r in range(2, min(5, p - 1) + 1):
            code = Code("evenodd-ext", p, r)
            for col in code.systematic_cols():
                yield code.spec.plan(code, (col,))


def _star_double_plans():
    for p in PRIMES:
        code = Code.make("star", p)
        for a in code.systematic_cols():
            for b in code.systematic_cols():
                if a != b:
                    yield code.spec.plan(code, (a, b))


def _large_extended_plans():
    for r in range(2, 6):
        code = Code("evenodd-ext", 31, r)
        for col in code.systematic_cols():
            yield code.spec.plan(code, (col,))


def _star_validate_plans():
    code = Code.make("star", 31)
    for x in range(1, 31):
        yield code.spec.plan(code, (1, 1 + x))


GOLDEN = {
    _single_plans:
        "1c97bc5e27483ae11df3064149fb7537fbc2923cb357ab30be363588fb356177",
    _evenodd_x_plans:
        "2cf134e7f374936a9086058b8a4ff2cab73b42db7d939bdbf191b6ab738b75e9",
    _extended_plans:
        "f2e875c05c210a7567ccc99fa7a7756670581bb8eb4fbcb661855b5bf1623b37",
    _star_double_plans:
        "a13eeb0fa362554df3c0a596a796013a07e1fd852034f9647bfbbce3a672998c",
    _large_single_plans:
        "0999bbf80fe1a4cee8ccf8677858c5bef397341180d341caaf0e8bc928e7297a",
    _large_extended_plans:
        "6ace43bc1d54b19f5d07aa5d9de6ffd73498571620868566ef2e4613892363e3",
    _star_validate_plans:
        "c018d034cd28e524fb62c41c77645f014301a8aac435f9bbefbd614872c62430",
}


def _digest(plans) -> str:
    h = hashlib.sha256()
    for plan in plans:
        h.update(json.dumps(plan_to_json(plan), sort_keys=True).encode())
        h.update(b"\n")
    return h.hexdigest()


@pytest.mark.parametrize("plans", list(GOLDEN), ids=lambda f: f.__name__[1:])
def test_plan_json_digest(plans):
    assert _digest(plans()) == GOLDEN[plans]


SWEEP_PRIMES = [q for q in range(5, 102) if all(q % d for d in range(2, q))]
SWEEP_GOLDEN = "1c231ac89736f2b9e635422c1d505ff89fe39523b0bc20243a0e07b18fd911ae"


def test_bandwidth_sweep_digest():
    """The ``analyze`` rows of every family over p = 5..101 with r = 3."""
    h = hashlib.sha256()
    for family in FAMILIES:
        for rep in bandwidth_sweep(family, SWEEP_PRIMES, r=3):
            h.update(json.dumps(rep.row()).encode())
            h.update(b"\n")
    assert h.hexdigest() == SWEEP_GOLDEN


def _analyze_csv_digests(family, tmp_path) -> list[str]:
    """sha256 of ``arraycode analyze --p-range 5:101 --csv`` at r = 2..5."""
    out = []
    for r in range(2, 6):
        path = tmp_path / f"{family}-{r}.csv"
        assert main(["analyze", "--family", family, "--p-range", "5:101",
                     "--r", str(r), "--csv", str(path)]) == 0
        out.append(hashlib.sha256(path.read_bytes()).hexdigest())
    return out


# per family, the digests at r = 2, 3, 4, 5; a family with a fixed r ignores --r
ANALYZE_CSV_GOLDEN = {
    "evenodd":
        ["63fa3b6c37941e7d249a98df72983055dacb5af9001fb557b3332191a53e81fe"] * 4,
    "evenodd-ext": [
        "7022f112901c6a9b874e04f233708fa9086e9847d9fe3c544ce3ceff4f4f246f",
        "af99cb69aae2f6600923099cabb08f58653bbcef3d18c290f8d5db8a1efea91f",
        "d246f860f5ee4fc8d8d4a4ba7a02cdc71b4ba78790400ddb938f5dc709033957",
        "a67f1b5e0430d9c68e880d6826b96202cc08b59b291eff38238b6e1a043256ae"],
    "rdp":
        ["7036f0561c77db9f67df212c1db925539d666ed14244f90b2d9fff01760959f2"] * 4,
    "xcode":
        ["cc7986896c4ca6a0eeacf7db804c4a77f7a148a31c6b7085e6def12eb0cfb2a8"] * 4,
    "star":
        ["ab27f7c9b66b0ee7b39792c38b5f9da454b2876f35b46c042e71460d51153817"] * 4,
}


@pytest.mark.parametrize("family", list(FAMILIES))
def test_analyze_csv_digest(family, tmp_path, capsys):
    assert _analyze_csv_digests(family, tmp_path) == ANALYZE_CSV_GOLDEN[family]


REPAIR_FAILS = ("2", "{n}", "1,3", "1,{n}")


def _repair_digest(family, tmp_path, capsys) -> str:
    """sha256 of ``arraycode repair`` at p = 7 with 16-byte blocks, for each
    failure of :data:`REPAIR_FAILS` under each strategy: the exit code, the
    stdout, and the ``--report`` and ``--plan`` JSON files."""
    code = Code.make(family, 7)
    src, box = tmp_path / "in.bin", tmp_path / "c.aerc"
    src.write_bytes(np.random.default_rng(14).integers(0, 256, 500, dtype=np.uint8).tobytes())
    extra = ["--r", "3"] if family == "evenodd-ext" else []
    assert main(["encode", str(src), str(box), "--family", family, "--p", "7",
                 "--block-size", "16", *extra]) == 0
    capsys.readouterr()
    rep, plan = tmp_path / "report.json", tmp_path / "plan.json"
    h = hashlib.sha256()
    for fail in REPAIR_FAILS:
        for strategy in ("paper", "naive"):
            rc = main(["repair", str(box), "--fail", fail.format(n=code.n),
                       "--strategy", strategy, "--report", str(rep), "--plan", str(plan)])
            for part in (str(rc).encode(), capsys.readouterr().out.encode(),
                         rep.read_bytes(), plan.read_bytes()):
                h.update(part)
                h.update(b"\n")
    return h.hexdigest()


REPAIR_GOLDEN = {
    "evenodd": "abdb14ef740dbc6697d78e158bdeef77fdcb28e4f4fea4fefdb53ff68d9d64f4",
    "evenodd-ext": "d2073a54238bab7856d3654ac4cdcfd687dbe1e9595472b29207be2262a76c73",
    "rdp": "77e114af34ad7f7386678545f5d2102665980deec3739774509fa88430572d58",
    "xcode": "2dfa4b1a6a44d365f380b5b45f581b66d71956f15db993dd055f34bb6cda426e",
    "star": "d73ae9c831b65dfb8e58e17c0a0beace308f57ef2213dc854e57195c9cb9a652",
}


@pytest.mark.parametrize("family", list(FAMILIES))
def test_repair_output_digest(family, tmp_path, capsys):
    assert _repair_digest(family, tmp_path, capsys) == REPAIR_GOLDEN[family]
