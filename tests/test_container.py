import hashlib
import io
import itertools
import os
import struct
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from arraycode import Code, encode
from arraycode import container as ct
from arraycode.cli import main
from arraycode.codes import FAMILIES, CodeGrid

HEADER = "<5sBIIIQ"  # magic, family tag, p, r, block size, payload length
TAG_FAMILIES = {tag: family for family, tag in ct.FAMILY_TAGS.items()}


def _encode(code, payload: bytes, block_size: int):
    grid, length = ct.encode_payload(code, io.BytesIO(payload), block_size)
    assert length == len(payload)
    return grid


def _extract(grid, payload_length) -> bytes:
    out = io.BytesIO()
    ct.extract_payload(grid, payload_length, out)
    return out.getvalue()


def _file_bytes(grid, payload_length) -> bytes:
    """The container of ``grid`` as the format lays it out: the header, then
    the cells column by column."""
    code = grid.code
    header = struct.pack(HEADER, b"AERC1", ct.FAMILY_TAGS[code.family], code.p, code.r,
                         grid.block_size, payload_length)
    return header + grid.cells.transpose(1, 0, 2).tobytes()


def _read(path: Path, blob: bytes):
    path.write_bytes(blob)
    return ct.read_container(path)


def test_header_layout(tmp_path):
    code = Code.make("star", 5)
    grid = _encode(code, b"hello", 4)
    path = tmp_path / "s.aerc"
    ct.write_container(path, grid, 5)
    blob = path.read_bytes()
    assert blob[:5] == b"AERC1"
    assert blob[5] == ct.FAMILY_TAGS["star"]
    assert len(blob) == 26 + 4 * 8 * 4
    assert blob[:26] == struct.pack(HEADER, b"AERC1", ct.FAMILY_TAGS["star"], 5, code.r, 4, 5)


def test_roundtrip_exact(tmp_path):
    code = Code.make("evenodd", 5)
    payload = bytes(range(100))
    grid = _encode(code, payload, 16)
    restored, length = _read(tmp_path / "e.aerc", _file_bytes(grid, len(payload)))
    assert length == 100
    assert restored.code == code
    assert np.array_equal(restored.cells, grid.cells)
    assert _extract(restored, length) == payload


def test_empty_payload(tmp_path):
    code = Code.make("rdp", 5)
    grid = _encode(code, b"", 8)
    assert not grid.cells[:, :4].any()
    path = tmp_path / "r.aerc"
    ct.write_container(path, grid, 0)
    restored, length = ct.read_container(path)
    assert _extract(restored, length) == b""


def test_capacity_enforced():
    code = Code.make("evenodd", 5)
    with pytest.raises(ct.ContainerError):
        ct.encode_payload(code, io.BytesIO(bytes(321)), 16)
    grid = _encode(code, bytes(320), 16)
    with pytest.raises(ct.ContainerError):
        ct.extract_payload(grid, 321, io.BytesIO())


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_payload_fills_information_cells_column_major(family):
    """The payload lands in the information cells column by column and is
    zero-padded, whether it ends mid-block, on a column edge or at capacity,
    and extracting the grid gives it back."""
    for p, block in itertools.product((5, 7), (3, 16)):
        code = Code.make(family, p)
        rows, cols = code.info_shape
        cap = ct.capacity(code, block)
        for size in (0, 1, rows * block, rows * block + 4, cap - 1, cap):
            payload = bytes(np.random.default_rng(size).integers(0, 256, size, dtype=np.uint8))
            padded = np.zeros(cap, dtype=np.uint8)
            padded[:size] = np.frombuffer(payload, dtype=np.uint8)
            info = padded.reshape(cols, rows, block).transpose(1, 0, 2)
            grid = _encode(code, payload, block)
            assert np.array_equal(grid.cells, encode(code, info).cells), (p, block, size)
            assert _extract(grid, size) == payload, (p, block, size)


class _ShortReads(io.RawIOBase):
    """A raw reader that returns at most 7 bytes per ``readinto`` call."""

    def __init__(self, data: bytes):
        self._src = io.BytesIO(data)

    def readable(self) -> bool:
        return True

    def readinto(self, b) -> int:
        chunk = self._src.read(min(7, len(b)))
        b[:len(chunk)] = chunk
        return len(chunk)


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_short_reads_fill_the_same_grid(family):
    """Each information run is read until it is full, not until the first
    short read; a payload one byte past capacity is still refused."""
    code, block = Code.make(family, 5), 4
    cap = ct.capacity(code, block)
    for size in (0, 5, 3 * block + 1, cap - 1, cap):
        payload = bytes(np.random.default_rng(size).integers(0, 256, size, dtype=np.uint8))
        grid, length = ct.encode_payload(code, _ShortReads(payload), block)
        assert length == size
        assert np.array_equal(grid.cells, _encode(code, payload, block).cells), size
    with pytest.raises(ct.ContainerError):
        ct.encode_payload(code, _ShortReads(bytes(cap + 1)), block)


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_extract_from_c_ordered_cells(family):
    """A grid over a C-ordered ``(rows, n, block)`` array, whose information
    runs are not contiguous, extracts the same bytes."""
    for block in (1, 3):
        code = Code.make(family, 5)
        size = ct.capacity(code, block) - 2
        payload = bytes(np.random.default_rng(block).integers(0, 256, size, dtype=np.uint8))
        grid = _encode(code, payload, block)
        c_grid = CodeGrid(code, grid.cells.copy(order="C"))
        assert c_grid.cells.flags.c_contiguous
        assert _extract(c_grid, size) == payload, block


def test_column_major_body(tmp_path):
    """Node c's bytes are one contiguous run in the body."""
    code = Code.make("evenodd", 5)
    payload = bytes(range(80))
    grid = _encode(code, payload, 4)
    path = tmp_path / "e.aerc"
    ct.write_container(path, grid, 80)
    body = path.read_bytes()[26:]
    stride = 4 * 4  # rows * block_size
    col1 = np.frombuffer(body[:stride], dtype=np.uint8).reshape(4, 4)
    assert np.array_equal(col1, grid.cells[:, 0])
    # payload fills column 1 top to bottom first
    assert body[:16] == payload[:16]


def test_bad_inputs(tmp_path):
    path = tmp_path / "bad.aerc"
    with pytest.raises(ct.ContainerError):
        _read(path, b"AERC")
    with pytest.raises(ct.ContainerError):
        _read(path, b"XXXXX" + bytes(21))
    code = Code.make("evenodd", 5)
    blob = _file_bytes(_encode(code, b"x", 4), 1)
    with pytest.raises(ct.ContainerError):
        _read(path, blob[:-3])
    bad_tag = bytearray(blob)
    bad_tag[5] = 99
    with pytest.raises(ct.ContainerError):
        _read(path, bytes(bad_tag))


@pytest.mark.parametrize("family", [f for f, spec in FAMILIES.items() if spec.r_range is None])
def test_header_r_must_match_family(tmp_path, family):
    """A fixed-r family's header with another r is refused, not read as the
    family's own r."""
    code = Code.make(family, 5)
    blob = bytearray(_file_bytes(_encode(code, b"x", 4), 1))
    blob[10:14] = (code.r + 5).to_bytes(4, "little")
    with pytest.raises(ct.ContainerError, match="r="):
        _read(tmp_path / "r.aerc", bytes(blob))


def test_file_io(tmp_path):
    code = Code.make("xcode", 7)
    payload = b"xcode stores data in rows, not columns"
    grid = _encode(code, payload, 2)
    path = tmp_path / "x.aerc"
    ct.write_container(path, grid, len(payload))
    restored, length = ct.read_container(path)
    assert _extract(restored, length) == payload


def test_written_file_matches_struct_layout(tmp_path):
    code = Code.make("star", 5)
    payload = bytes(range(150))
    grid = _encode(code, payload, 8)
    path = tmp_path / "s.aerc"
    ct.write_container(path, grid, len(payload))
    assert path.read_bytes() == _file_bytes(grid, len(payload))


# per family, the sha256 of the file ``arraycode encode`` writes at
# (p, block size) = (5, 1), (5, 16), (7, 1), (7, 16)
ENCODED_GOLDEN = {
    "evenodd": [
        "4c5686277a41a71a592ec148969954f0fa120aeba8c17cab2d8c29a87503ce8a",
        "f6ab5559e0b34516157a480ff32fbbf0b287cc6689db94e2a620e94b43f308ea",
        "1ebcb89f81a3de3086ce217a6228e480ede5814eceb6072c1ad375f0e252e8f7",
        "54593a1a3bce1c5eadbb4329e6d296edbafacff085d0142c151d08bdd969aeb6"],
    "evenodd-ext": [
        "611a14331b854cab802035a865bf6954cf284fa23b6a53dc43b1294cd755da65",
        "48be90c63223dd640f53c7702307fecea13d6ca4f81abf211d49ccf1636b4fa6",
        "f2bf0a5e644b09e16e7b4f5f8174da18e8b0edc0fcc44611d4d3c9f3f0a67985",
        "410aeebccd705f0e9afba4123aca1cdd19ccea3c045223a7418796a01d93d96b"],
    "rdp": [
        "61b53f3c4ea589512cf0f04ee1ee46910370fe614149abb310359dc4de91e21f",
        "53673bbd3006c70400ff66d13ea12f750ab257413d8961297167c04b359b693b",
        "24084099d81a9fe132510b4a4385e4f9a995b95ef0cb86f93762b361218c6af5",
        "e3c48015e985cfa4f2c84f06d3423804655f9687490284620040511e49657e20"],
    "xcode": [
        "7122ec64c746e7488f17c2c501a50155b3f22f52fe555d5c7d168418c3d8dffd",
        "6ca2d160fc0209a4d25b787b0e8deab20f22ef9cca6b16103bbb0d422c1786e2",
        "04672a73684a26739c34e50718b2a8eee9dbd25fcecbaf9ab3d68254e24cc4d7",
        "596f089ec40215d757b49b9f595bd6ca764b8db38b2fb02e1417bc6b3f6a407c"],
    "star": [
        "714ebf6f6eec729d88dae99648d4a5f7f5c355a202ac4ee53f45949a8f5f8e4e",
        "e0525c5d05dec8d132b485eb5b23843bf3bc81bd1b3881cbcdde2e2698ec3024",
        "522e9a73bff991b3153a8e6c2dcecf3b20249076f3e699c9f8e8549f1f45143e",
        "a0224066f1684140bf7dd67b9fd559084e96343612d163271561b9cd30c4e3c3"],
}


@pytest.mark.parametrize("family", list(FAMILIES))
def test_encoded_file_digest(family, tmp_path, capsys):
    """``arraycode encode`` writes the same bytes for a payload that stops
    7 bytes short of capacity (mid-block at 16-byte blocks), and
    ``extract`` gives the payload back."""
    src, box, out = tmp_path / "in.bin", tmp_path / "c.aerc", tmp_path / "out.bin"
    digests = []
    for p in (5, 7):
        for block in (1, 16):
            size = ct.capacity(Code.make(family, p), block) - 7
            payload = np.random.default_rng(17).integers(0, 256, size, dtype=np.uint8).tobytes()
            src.write_bytes(payload)
            assert main(["encode", str(src), str(box), "--family", family, "--p", str(p),
                         "--block-size", str(block)]) == 0
            digests.append(hashlib.sha256(box.read_bytes()).hexdigest())
            assert main(["extract", str(box), str(out)]) == 0
            assert out.read_bytes() == payload, (p, block)
    assert digests == ENCODED_GOLDEN[family]


def _assert_column_major(grid):
    """Each column is C-contiguous and starts where the one before it ends,
    all in one buffer."""
    rows, n, block = grid.cells.shape
    start = grid.column(1).__array_interface__["data"][0]
    for c in range(1, n + 1):
        col = grid.column(c)
        assert col.flags.c_contiguous, c
        assert col.__array_interface__["data"][0] == start + (c - 1) * rows * block, c
        assert np.shares_memory(col, grid.cells)


def test_grids_share_the_file_layout(tmp_path):
    code = Code.make("xcode", 7)
    grid = _encode(code, bytes(range(100)), 3)
    _assert_column_major(grid)
    path = tmp_path / "x.aerc"
    ct.write_container(path, grid, 100)
    restored, _ = ct.read_container(path)
    _assert_column_major(restored)
    assert restored.cells.flags.writeable
    assert np.array_equal(restored.cells, grid.cells)


def test_grid_writes_never_reach_the_file(tmp_path):
    """The grid views a private mapping: writing into it leaves the file as
    it was."""
    code = Code.make("evenodd", 5)
    path = tmp_path / "e.aerc"
    ct.write_container(path, _encode(code, bytes(range(200)), 16), 200)
    before = hashlib.sha256(path.read_bytes()).hexdigest()
    grid, _ = ct.read_container(path)
    grid.cells[...] ^= 0xA5
    grid.column(3)[:] = 0
    assert hashlib.sha256(path.read_bytes()).hexdigest() == before


def test_body_shorter_than_its_size_check_raises_container_error(tmp_path, monkeypatch):
    """A file that shrinks between the size check and the mapping is refused
    with :class:`ContainerError`, not the mapping's ``ValueError``."""
    code = Code.make("rdp", 5)
    path = tmp_path / "r.aerc"
    ct.write_container(path, _encode(code, bytes(range(60)), 4), 60)
    full = path.stat().st_size
    path.write_bytes(path.read_bytes()[:-5])
    real = os.fstat

    def stale(fd):  # the size the file had before it shrank
        st = real(fd)
        return os.stat_result((*st[:6], full, *st[7:]))

    monkeypatch.setattr(os, "fstat", stale)
    with pytest.raises(ct.ContainerError, match="body changed while reading"):
        ct.read_container(path)


def _damaged(blob, kind, at, mask):
    if kind == "truncate":
        return blob[:at % len(blob)]
    if kind == "append":
        return blob + bytes([mask]) * (1 + at % 40)
    flipped = bytearray(blob)
    flipped[at % 26] ^= mask
    return bytes(flipped)


@settings(max_examples=120, deadline=None)
@given(st.sampled_from(["evenodd", "evenodd-ext", "rdp", "xcode", "star"]),
       st.sampled_from([5, 7]), st.integers(1, 9),
       st.sampled_from(["truncate", "append", "flip"]),
       st.integers(0, 2**16), st.integers(1, 255))
def test_damaged_file_raises_container_error(family, p, block, kind, at, mask):
    """A file cut short or with bytes appended is refused; a flipped header
    byte is refused or, where the field allows another valid value (the
    payload length, say), read as the damaged header says: the code, block
    size and payload length its fields hold, over the same body. Nothing
    but :class:`ContainerError` is ever raised."""
    code = Code.make(family, p)
    payload = bytes(range(256))[:ct.capacity(code, block) - 1]
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "bad.aerc"
        ct.write_container(path, _encode(code, payload, block), len(payload))
        bad = _damaged(path.read_bytes(), kind, at, mask)
        # a flip in the magic or the block size can never leave a valid file
        must_fail = kind != "flip" or at % 26 < 5 or 14 <= at % 26 < 18
        try:
            grid, length = _read(path, bad)
        except ct.ContainerError:
            return
    assert not must_fail
    magic, tag, p_, r_, block_, length_ = struct.unpack_from(HEADER, bad)
    same = Code(TAG_FAMILIES[tag], p_, r_)
    assert magic == b"AERC1"
    assert (grid.code, grid.block_size, length) == (same, block_, length_)
    body = np.frombuffer(bad, dtype=np.uint8, offset=26).reshape(same.n, same.rows, block_)
    assert np.array_equal(grid.cells, body.transpose(1, 0, 2))
