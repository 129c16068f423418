import csv
import json

import pytest

from arraycode import analysis
from arraycode.cli import main


def run(*argv):
    try:
        return main(list(argv))
    except SystemExit as exc:  # argparse's own rejections
        return exc.code


@pytest.fixture
def sample(tmp_path):
    data = bytes((i * 37 + 11) % 256 for i in range(100))
    src = tmp_path / "input.bin"
    src.write_bytes(data)
    return tmp_path, src, data


def test_encode_repair_extract_roundtrip(sample, capsys):
    tmp, src, data = sample
    box = tmp / "c.aerc"
    out = tmp / "out.bin"
    assert run("encode", str(src), str(box), "--family", "evenodd",
               "--p", "5", "--block-size", "16") == 0
    printed = capsys.readouterr().out
    assert "n=7" in printed and "k=5" in printed and "M=20" in printed
    rep = tmp / "rep.json"
    plan = tmp / "plan.json"
    assert run("repair", str(box), "--fail", "1", "--report", str(rep),
               "--plan", str(plan)) == 0
    assert run("extract", str(box), str(out)) == 0
    assert out.read_bytes() == data
    report = json.loads(rep.read_text())
    assert report["gamma_blocks"] == 16
    assert report["verified"] is True
    assert report["failed"] == [1]
    assert {e["id"] for e in report["per_node"]}.isdisjoint({1})
    plan_doc = json.loads(plan.read_text())
    assert plan_doc["gamma"] == 16
    assert len(plan_doc["transmissions"]) == 16


@pytest.mark.parametrize("family,p,extra", [
    ("evenodd", 7, []),
    ("evenodd-ext", 7, ["--r", "3"]),
    ("rdp", 7, []),
    ("xcode", 7, []),
    ("star", 7, []),
])
def test_roundtrip_every_family(tmp_path, family, p, extra):
    data = bytes(range(256)) * 2
    src = tmp_path / "in.bin"
    src.write_bytes(data)
    box = tmp_path / "c.aerc"
    out = tmp_path / "out.bin"
    assert run("encode", str(src), str(box), "--family", family,
               "--p", str(p), "--block-size", "16", *extra) == 0
    fail = "1,2" if family == "star" else "1"
    assert run("repair", str(box), "--fail", fail) == 0
    assert run("extract", str(box), str(out)) == 0
    assert out.read_bytes() == data


def test_naive_strategy_report(sample, tmp_path):
    tmp, src, _ = sample
    box = tmp / "c.aerc"
    run("encode", str(src), str(box), "--family", "evenodd", "--p", "5")
    rep = tmp / "rep.json"
    assert run("repair", str(box), "--fail", "1", "--strategy", "naive",
               "--report", str(rep)) == 0
    report = json.loads(rep.read_text())
    assert report["gamma_blocks"] == 20
    assert report["strategy"] == "naive"


def test_exit_code_bad_parameters(sample):
    tmp, src, _ = sample
    assert run("encode", str(src), str(tmp / "o"), "--family", "evenodd",
               "--p", "4") == 2
    assert run("encode", str(src), str(tmp / "o"), "--family", "bogus",
               "--p", "5") == 2
    assert run("analyze", "--family", "evenodd", "--p-range", "24:28") == 2
    assert run("encode", str(src), str(tmp / "o"), "--family", "evenodd",
               "--p", "3", "--block-size", "1") == 2  # capacity too small


def test_exit_code_io_error(tmp_path):
    assert run("extract", str(tmp_path / "missing.aerc"),
               str(tmp_path / "out")) == 3


@pytest.mark.parametrize("strategy", ["paper", "naive"])
def test_corrupt_container_repair_unverified(sample, strategy):
    """A silently damaged helper column cannot crash the repair, but the
    rebuilt column fails verification and the command exits nonzero.

    The naive decode's own consistency recheck cannot fire here: with a
    full-redundancy erasure pattern the corruption cancels out of the
    re-encoded parities, so detection falls to the shadow comparison.
    """
    tmp, src, _ = sample
    box = tmp / "c.aerc"
    run("encode", str(src), str(box), "--family", "evenodd", "--p", "5")
    blob = bytearray(box.read_bytes())
    blob[26 + 3] ^= 0x01  # a byte inside column 1
    box.write_bytes(bytes(blob))
    assert run("repair", str(box), "--fail", "2", "--strategy", strategy) == 1


@pytest.mark.parametrize("damage", [
    lambda blob: blob[:-1],                        # body cut short
    lambda blob: blob + b"\0",                     # trailing byte
    lambda blob: blob[:6] + b"\x04" + blob[7:],    # p=4 in the header
    lambda blob: blob[:20],                        # header cut short
    lambda blob: blob[:10] + b"\x07" + blob[11:],  # r=7, evenodd has r=2
])
def test_damaged_container_exit_code(sample, damage):
    tmp, src, _ = sample
    box = tmp / "c.aerc"
    run("encode", str(src), str(box), "--family", "evenodd", "--p", "5")
    box.write_bytes(damage(box.read_bytes()))
    assert run("extract", str(box), str(tmp / "out")) == 2
    assert run("repair", str(box), "--fail", "1") == 2


def test_exit_code_unrecoverable(sample, monkeypatch):
    import arraycode.cli as cli
    from arraycode.core import UnrecoverableError

    def explode(cluster, target, strategy):
        raise UnrecoverableError("no survivors")

    monkeypatch.setattr(cli.simnet, "run_repair", explode)
    tmp, src, _ = sample
    box = tmp / "c.aerc"
    run("encode", str(src), str(box), "--family", "evenodd", "--p", "5")
    assert run("repair", str(box), "--fail", "1") == 4


def test_analyze_table_and_csv(tmp_path, capsys):
    path = tmp_path / "sweep.csv"
    assert run("analyze", "--family", "evenodd", "--p-range", "3:13",
               "--csv", str(path)) == 0
    capsys.readouterr()
    with open(path) as fh:
        rows = list(csv.DictReader(fh))
    assert [int(r["p"]) for r in rows] == [3, 5, 7, 11, 13]
    assert [int(r["gamma_blocks"]) for r in rows] == [6, 16, 32, 82, 116]
    assert float(rows[1]["cutset_blocks"]) == 12.0


def test_analyze_single_prime(capsys):
    assert run("analyze", "--family", "rdp", "--p-range", "5") == 0
    out = capsys.readouterr().out
    assert "12" in out


def test_oracle_modes(capsys):
    assert run("oracle", "--mode", "evenodd-min", "--p", "5") == 0
    assert "PASS" in capsys.readouterr().out
    assert run("oracle", "--mode", "f-check", "--p", "13", "--r", "3") == 0
    assert "PASS" in capsys.readouterr().out
    assert run("oracle", "--mode", "star-validate", "--p", "7") == 0
    assert "PASS" in capsys.readouterr().out


def test_oracle_mismatch_exit_code(monkeypatch, capsys):
    monkeypatch.setattr(analysis, "evenodd_min_bandwidth", lambda p: 999)
    assert run("oracle", "--mode", "evenodd-min", "--p", "5") == 5
    assert "mismatch" in capsys.readouterr().err


def test_empty_file_container(tmp_path):
    src = tmp_path / "empty"
    src.write_bytes(b"")
    box = tmp_path / "c.aerc"
    out = tmp_path / "out"
    assert run("encode", str(src), str(box), "--family", "evenodd",
               "--p", "5") == 0
    assert run("extract", str(box), str(out)) == 0
    assert out.read_bytes() == b""
