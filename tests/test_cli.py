import csv
import dataclasses
import json
import struct

import numpy as np
import pytest

from arraycode import analysis, cli
from arraycode.cli import main
from arraycode.codes import Code, encode, mds_decode
from arraycode.planner import execute_plan, plan_star_double


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


def test_encode_in_place_roundtrips(sample):
    """``encode`` may write its container over its own input: the input is
    read and closed before the output is opened."""
    tmp, src, data = sample
    out = tmp / "out.bin"
    assert run("encode", str(src), str(src), "--family", "xcode", "--p", "5",
               "--block-size", "8") == 0
    assert run("extract", str(src), str(out)) == 0
    assert out.read_bytes() == data


def test_extract_in_place_roundtrips(sample):
    """``extract`` may write the payload over its own input: the output is
    not written from pages of the file it truncates."""
    tmp, src, data = sample
    box = tmp / "c.aerc"
    assert run("encode", str(src), str(box), "--family", "evenodd", "--p", "5",
               "--block-size", "8") == 0
    assert run("extract", str(box), str(box)) == 0
    assert box.read_bytes() == data


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
    for bad in ("24:28", "5:", ":7", "1:2:3", "x"):
        assert run("analyze", "--family", "evenodd", "--p-range", bad) == 2, bad
    assert run("encode", str(src), str(tmp / "o"), "--family", "evenodd",
               "--p", "3", "--block-size", "1") == 2  # capacity too small
    assert not (tmp / "o").exists()  # refused before the output is opened
    assert run("encode", str(src), str(tmp / "o"), "--family", "evenodd",
               "--p", "5", "--block-size", "0") == 2
    assert run("analyze", "--family", "xcode", "--p-range", "3") == 2  # xcode needs p >= 5
    box = tmp / "c.aerc"
    run("encode", str(src), str(box), "--family", "evenodd", "--p", "5")
    assert run("repair", str(box), "--fail", "x") == 2


def test_oversize_file_refused_before_reading(sample, monkeypatch):
    """A regular file larger than the capacity is refused from its size,
    before ``encode_payload`` reads a byte of it."""
    tmp, src, _ = sample

    def unread(*args):
        raise AssertionError("encode_payload ran")

    monkeypatch.setattr(cli.container, "encode_payload", unread)
    assert run("encode", str(src), str(tmp / "o"), "--family", "evenodd",
               "--p", "3", "--block-size", "1") == 2  # 100 bytes, capacity 4
    assert not (tmp / "o").exists()


def test_block_size_past_the_header_refused_before_allocating(sample, monkeypatch):
    """The header stores the block size as a u32: a larger one is refused
    before the encode buffer (about 44 GiB here) is allocated."""
    tmp, src, _ = sample

    def unallocated(*args):
        raise AssertionError("encode_payload ran")

    monkeypatch.setattr(cli.container, "encode_payload", unallocated)
    args = ["encode", str(src), str(tmp / "o"), "--family", "evenodd", "--p", "3"]
    assert run(*args, "--block-size", str(1 << 32)) == 2
    assert not (tmp / "o").exists()
    with pytest.raises(AssertionError, match="encode_payload ran"):
        run(*args, "--block-size", str((1 << 32) - 1))  # the largest the header stores


COMMANDS = ["encode", "extract", "repair", "analyze", "oracle"]


def test_top_level_help_lists_every_subcommand(capsys):
    assert run("--help") == 0
    out = capsys.readouterr().out
    assert "{" + ",".join(COMMANDS) + "}" in out
    for command in COMMANDS:
        assert f"\n    {command} " in out, command


def test_missing_or_unknown_command_exits_2(capsys):
    assert run() == 2
    assert "{" + ",".join(COMMANDS) + "}" in capsys.readouterr().err
    assert run("bogus", "--p", "5") == 2
    err = capsys.readouterr().err
    assert "invalid choice: 'bogus'" in err
    assert all(command in err for command in COMMANDS)


@pytest.mark.parametrize("command", COMMANDS)
def test_subcommand_help(command, capsys):
    assert run(command, "--help") == 0
    assert capsys.readouterr().out.startswith(f"usage: arraycode {command} ")


# each command runs with options given, then with them left out, so a value or
# file that leaks from one call to the next shows; then help and parse errors,
# after parsers for other commands were built and used
REUSE_SEQUENCE = [
    ["encode", "payload", "a.aec", "--family", "evenodd-ext", "--p", "5", "--r", "4",
     "--block-size", "8"],
    ["encode", "payload", "b.aec", "--family", "evenodd-ext", "--p", "5"],
    ["repair", "a.aec", "--fail", "1,3", "--report", "a.json", "--plan", "a.plan"],
    ["repair", "b.aec", "--fail", "2", "--strategy", "naive"],
    ["repair", "a.aec", "--fail", "4"],
    ["extract", "a.aec", "a.out"],
    ["analyze", "--family", "rdp", "--p-range", "5:7", "--csv", "rdp.csv"],
    ["analyze", "--family", "evenodd", "--p-range", "5"],
    ["oracle", "--mode", "f-check", "--p", "5", "--r", "4"],
    ["oracle", "--mode", "evenodd-min", "--p", "5"],
    ["--help"],
    ["repair", "--help"],
    ["encode", "--help"],
    ["repair", "b.aec"],  # no --fail
    ["encode", "payload", "c.aec", "--family", "bogus", "--p", "5"],
    ["bogus"],
    [],
    ["extract", "b.aec", "b.out"],
]


def test_cached_parsers_match_fresh_ones(sample, monkeypatch, capsys):
    """``main`` called again and again in one process reuses each command's
    parser: every command of a sequence gives the exit code, stdout, stderr
    and files it gives when its parser is built afresh."""
    tmp, _, data = sample

    def session(name, fresh):
        work = tmp / name
        work.mkdir()
        (work / "payload").write_bytes(data)
        monkeypatch.chdir(work)
        cli._parser.cache_clear()
        seen = []
        for argv in REUSE_SEQUENCE:
            if fresh:
                cli._parser.cache_clear()
            rc = run(*argv)
            out, err = capsys.readouterr()
            files = {f.name: f.read_bytes() for f in sorted(work.iterdir())}
            seen.append((argv, rc, out, err, files))
        return seen

    reused = session("reused", fresh=False)
    assert cli._parser.cache_info().currsize == 6  # every command, and the full parser
    fresh = session("fresh", fresh=True)
    for step, fresh_step in zip(reused, fresh, strict=True):
        assert step == fresh_step, step[0]
    codes = [rc for _, rc, *_ in reused]
    assert codes == [0] * 13 + [2] * 4 + [0]
    files, first_repair = reused[-1][-1], reused[2][-1]
    assert files["a.out"] == files["b.out"] == data
    assert files["b.aec"][10:18] == struct.pack("<II", 3, 16)  # the default r and block size
    assert len(files) == 8  # one report, one plan and one CSV were written, once each
    assert files["a.json"] == first_repair["a.json"] and files["a.plan"] == first_repair["a.plan"]


def test_exit_code_io_error(tmp_path):
    assert run("extract", str(tmp_path / "missing.aerc"),
               str(tmp_path / "out")) == 3


@pytest.mark.parametrize("strategy", ["paper", "naive"])
def test_corrupt_container_repair_unverified(sample, strategy):
    """A silently damaged helper column cannot crash the repair, but the
    rebuilt column fails verification and the command exits nonzero.

    The naive decode has no parity check to run here: with n - k columns
    erased every set of survivors decodes to some codeword, so detection
    falls to the shadow comparison.
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


def test_analyze_skips_primes_not_above_r(tmp_path, capsys):
    """evenodd-ext needs p > r: the sweep drops p=3 for r=3 as it drops
    xcode's p=3, and an r the family does not allow still exits 2."""
    path = tmp_path / "sweep.csv"
    assert run("analyze", "--family", "evenodd-ext", "--p-range", "3:11",
               "--csv", str(path)) == 0
    capsys.readouterr()
    with open(path) as fh:
        assert [int(r["p"]) for r in csv.DictReader(fh)] == [5, 7, 11]
    assert run("analyze", "--family", "evenodd-ext", "--p-range", "3:11",
               "--r", "7") == 2


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


ORACLE_OUTPUT = {  # (mode, p, r): stdout, at every size the benchmark and the tests run
    ("evenodd-min", 3, 3): "PASS evenodd-min p=3: min=6 optimal_x=[0, 1]",
    ("evenodd-min", 5, 3): "PASS evenodd-min p=5: min=16 optimal_x=[1, 2]",
    ("evenodd-min", 7, 3): "PASS evenodd-min p=7: min=32 optimal_x=[2, 3]",
    ("evenodd-min", 11, 3): "PASS evenodd-min p=11: min=82 optimal_x=[4, 5]",
    ("evenodd-min", 17, 3): "PASS evenodd-min p=17: min=202 optimal_x=[7, 8]",
    ("f-check", 7, 3): "PASS f-check p=7 r=3: 4 class subsets agree",
    ("f-check", 13, 3): "PASS f-check p=13 r=3: 4 class subsets agree",
    ("f-check", 53, 5): "PASS f-check p=53 r=5: 26 class subsets agree",
    ("star-validate", 7, 3): "PASS star-validate p=7: schedule solvable for all x, savings=4",
    ("star-validate", 13, 3): "PASS star-validate p=13: schedule solvable for all x, savings=18",
    ("star-validate", 31, 3): "PASS star-validate p=31: schedule solvable for all x, savings=112",
}


@pytest.mark.parametrize("mode,p,r", list(ORACLE_OUTPUT))
def test_oracle_output_pinned(mode, p, r, capsys):
    assert run("oracle", "--mode", mode, "--p", str(p), "--r", str(r)) == 0
    assert capsys.readouterr().out == ORACLE_OUTPUT[mode, p, r] + "\n"


def test_oracle_refuses_p2(capsys):
    assert run("oracle", "--mode", "evenodd-min", "--p", "2") == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "odd prime" in captured.err


def test_oracle_mismatch_exit_code(monkeypatch, capsys):
    monkeypatch.setattr(analysis, "evenodd_min_bandwidth", lambda p: 999)
    assert run("oracle", "--mode", "evenodd-min", "--p", "5") == 5
    assert "mismatch" in capsys.readouterr().err
    monkeypatch.setattr(analysis, "common_block_oracle", lambda p, part, classes: -1)
    assert run("oracle", "--mode", "f-check", "--p", "7") == 5
    assert "enumeration -1" in capsys.readouterr().err
    monkeypatch.setattr(analysis, "star_symmetry_saving", lambda p: -1)
    assert run("oracle", "--mode", "star-validate", "--p", "7") == 5
    assert "measured savings" in capsys.readouterr().err


def test_oracle_parity_group_mismatch_exit_code(monkeypatch, capsys):
    """star-validate also checks the count of parity groups each plan uses."""
    def miscounted(code, erased):
        plan = plan_star_double(code, erased)
        return dataclasses.replace(plan, meta={**plan.meta, "parity_values": 0})

    monkeypatch.setattr(cli, "plan_star_double", miscounted)
    assert run("oracle", "--mode", "star-validate", "--p", "7") == 5
    assert "0 parity groups" in capsys.readouterr().err


def test_empty_file_container(tmp_path):
    src = tmp_path / "empty"
    src.write_bytes(b"")
    box = tmp_path / "c.aerc"
    out = tmp_path / "out"
    assert run("encode", str(src), str(box), "--family", "evenodd",
               "--p", "5") == 0
    assert run("extract", str(box), str(out)) == 0
    assert out.read_bytes() == b""


def test_zero_byte_blocks(tmp_path, capsys):
    """Blocks of 0 bytes encode, decode, run a repair plan and repair from a
    container, though no step has a byte to XOR."""
    code = Code.make("evenodd", 5)
    grid = encode(code, np.zeros(code.info_shape + (0,), dtype=np.uint8))
    assert grid.cells.shape == (code.rows, code.n, 0)
    assert mds_decode(code, grid, [2, code.n]).cells.shape == grid.cells.shape
    assert execute_plan(code.spec.plan(code, (1,)), grid)[1].shape == (code.rows, 0)
    box = tmp_path / "zero.aec"
    box.write_bytes(struct.pack("<5sBIIIQ", b"AERC1", 1, 5, 2, 0, 0))
    assert run("repair", str(box), "--fail", "1") == 0
    assert "verified" in capsys.readouterr().out
