import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from arraycode import Code
from arraycode import container as ct
from arraycode.codes import FAMILIES


def test_header_layout():
    code = Code.star(5)
    grid = ct.encode_payload(code, b"hello", 4)
    blob = ct.pack_grid(grid, 5)
    assert blob[:5] == b"AERC1"
    assert blob[5] == ct.FAMILY_TAGS["star"]
    assert len(blob) == 26 + 4 * 8 * 4


def test_roundtrip_exact():
    code = Code.evenodd(5)
    payload = bytes(range(100))
    grid = ct.encode_payload(code, payload, 16)
    restored, length = ct.unpack_grid(ct.pack_grid(grid, len(payload)))
    assert length == 100
    assert restored.code == code
    assert np.array_equal(restored.cells, grid.cells)
    assert ct.extract_payload(restored, length) == payload


def test_empty_payload():
    code = Code.rdp(5)
    grid = ct.encode_payload(code, b"", 8)
    assert not grid.cells[:, :4].any()
    restored, length = ct.unpack_grid(ct.pack_grid(grid, 0))
    assert ct.extract_payload(restored, length) == b""


def test_capacity_enforced():
    code = Code.evenodd(5)
    with pytest.raises(ct.ContainerError):
        ct.encode_payload(code, bytes(321), 16)
    ct.encode_payload(code, bytes(320), 16)


def test_column_major_body():
    """Node c's bytes are one contiguous run in the body."""
    code = Code.evenodd(5)
    payload = bytes(range(80))
    grid = ct.encode_payload(code, payload, 4)
    body = ct.pack_grid(grid, 80)[26:]
    stride = 4 * 4  # rows * block_size
    col1 = np.frombuffer(body[:stride], dtype=np.uint8).reshape(4, 4)
    assert np.array_equal(col1, grid.cells[:, 0])
    # payload fills column 1 top to bottom first
    assert body[:16] == payload[:16]


def test_bad_inputs():
    with pytest.raises(ct.ContainerError):
        ct.unpack_grid(b"AERC")
    with pytest.raises(ct.ContainerError):
        ct.unpack_grid(b"XXXXX" + bytes(21))
    code = Code.evenodd(5)
    blob = ct.pack_grid(ct.encode_payload(code, b"x", 4), 1)
    with pytest.raises(ct.ContainerError):
        ct.unpack_grid(blob[:-3])
    bad_tag = bytearray(blob)
    bad_tag[5] = 99
    with pytest.raises(ct.ContainerError):
        ct.unpack_grid(bytes(bad_tag))


@pytest.mark.parametrize("family", [f for f, spec in FAMILIES.items() if spec.r_range is None])
def test_header_r_must_match_family(tmp_path, family):
    """A fixed-r family's header with another r is refused, not read as the
    family's own r."""
    code = Code.make(family, 5)
    blob = bytearray(ct.pack_grid(ct.encode_payload(code, b"x", 4), 1))
    blob[10:14] = (code.r + 5).to_bytes(4, "little")
    with pytest.raises(ct.ContainerError, match="r="):
        ct.unpack_grid(bytes(blob))
    path = tmp_path / "r.aerc"
    path.write_bytes(blob)
    with pytest.raises(ct.ContainerError, match="r="):
        ct.read_container(path)


def test_file_io(tmp_path):
    code = Code.xcode(7)
    payload = b"xcode stores data in rows, not columns"
    grid = ct.encode_payload(code, payload, 2)
    path = tmp_path / "x.aerc"
    ct.write_container(path, grid, len(payload))
    restored, length = ct.read_container(path)
    assert ct.extract_payload(restored, length) == payload


def test_written_file_matches_pack_grid(tmp_path):
    code = Code.star(5)
    payload = bytes(range(150))
    grid = ct.encode_payload(code, payload, 8)
    path = tmp_path / "s.aerc"
    ct.write_container(path, grid, len(payload))
    assert path.read_bytes() == ct.pack_grid(grid, len(payload))


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
    code = Code.xcode(7)
    grid = ct.encode_payload(code, bytes(range(100)), 3)
    _assert_column_major(grid)
    path = tmp_path / "x.aerc"
    ct.write_container(path, grid, 100)
    restored, _ = ct.read_container(path)
    _assert_column_major(restored)
    assert restored.cells.flags.writeable
    assert np.array_equal(restored.cells, grid.cells)


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
    payload length, say), read the same way as ``unpack_grid`` reads it.
    Nothing but :class:`ContainerError` is ever raised."""
    code = Code.make(family, p)
    payload = bytes(range(256))[:ct.capacity(code, block) - 1]
    blob = ct.pack_grid(ct.encode_payload(code, payload, block), len(payload))
    bad = _damaged(blob, kind, at, mask)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "bad.aerc"
        path.write_bytes(bad)
        # a flip in the magic or the block size can never leave a valid file
        must_fail = kind != "flip" or at % 26 < 5 or 14 <= at % 26 < 18
        try:
            grid, length = ct.read_container(path)
        except ct.ContainerError:
            with pytest.raises(ct.ContainerError):
                ct.unpack_grid(bad)
            return
    assert not must_fail
    same, same_length = ct.unpack_grid(bad)
    assert (grid.code, length) == (same.code, same_length)
    assert np.array_equal(grid.cells, same.cells)
