import numpy as np
import pytest

from arraycode import Code
from arraycode import container as ct


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
