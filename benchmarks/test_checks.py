"""The benchmark's own checks must catch a wrong byte.

    PYTHONPATH=src python -m pytest -q benchmarks/test_checks.py
"""

from __future__ import annotations

import numpy as np
import pytest

import reference as ref
import run

TINY = run.Workload("tiny", 7, 8, False, "5:11", run.SMALL_ORACLES, 1)


@pytest.fixture
def bench(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "WORK", tmp_path)
    b = run.Bench(TINY, seed=5)
    b.setup()
    return b


def _flip(path, offset: int) -> None:
    with open(path, "r+b") as fh:
        fh.seek(offset)
        byte = fh.read(1)[0]
        fh.seek(offset)
        fh.write(bytes([byte ^ 0x01]))


def test_clean_round_passes(bench):
    bench.round()
    assert bench.errors == []
    assert not bench.failed
    assert sum(bench.attempted.values()) == 5 * 5 - 1 + 5 + 3  # xcode has no parity repair


@pytest.mark.parametrize("fam", run.FAMILIES)
def test_flipped_container_byte_fails(bench, fam):
    f = bench.files[fam]
    bench.block_cycle(fam)
    assert bench.errors == []
    payload = f["payload"].read_bytes()
    sh = ref.shape(fam, TINY.p, run.EXT_R)
    column = sh.rows * TINY.block
    for col in (1, sh.n):  # a data column and the last column
        assert ref.container_mismatch(f["aec"], fam, TINY.p, run.EXT_R, TINY.block,
                                      payload) is None
        offset = ref.HEADER.size + (col - 1) * column + column // 2
        _flip(f["aec"], offset)
        assert ref.container_mismatch(f["aec"], fam, TINY.p, run.EXT_R, TINY.block,
                                      payload) is not None
        _flip(f["aec"], offset)


def test_flipped_rebuilt_column_fails(bench, monkeypatch):
    fam = "evenodd"
    bench.block_cycle(fam)
    assert bench.errors == []
    real = bench.simnet.run_repair

    def corrupt(cluster, target, strategy="paper"):
        result = real(cluster, target, strategy)
        result.column[0, 0] ^= 0x80
        return result

    monkeypatch.setattr(bench.simnet, "run_repair", corrupt)
    bench.check_rebuilt(fam, (2,))
    assert any("rebuilt column 2" in e for e in bench.errors)


def test_flipped_extract_byte_fails(bench):
    f = bench.files["rdp"]
    f["out"].write_bytes(f["payload"].read_bytes())
    assert ref.files_equal(f["payload"], f["out"])
    _flip(f["out"], f["out"].stat().st_size - 1)
    assert not ref.files_equal(f["payload"], f["out"])


def test_wrong_block_count_fails(bench):
    p = TINY.p
    good = ref.evenodd_single(p)
    report = {"verified": True, "failed": [3], "gamma_blocks": good + 1,
              "repairs": [{"target": 3, "strategy_used": "paper", "gamma_blocks": good + 1}]}
    bench.check_report("star", [3], report)
    assert len(bench.errors) == 1


def test_reference_closed_forms_match_paper_values():
    # p = 5: EVENODD 16 blocks of 20, RDP 12, X-code bound 17
    assert ref.evenodd_single(5) == 16
    assert ref.naive("evenodd", 5) == 20
    assert ref.rdp_single(5) == 12
    assert ref.xcode_single_bound(5) == 17
    assert np.array_equal(ref.encode_columns("evenodd", 5, 3, 1, b"")[5], np.zeros((4, 1)))
