import numpy as np
import pytest

from arraycode.core import (
    Coord,
    ParityGroupId,
    is_prime,
    mod_index,
    parity_group_members,
    xor_blocks,
)


def test_mod_index_examples():
    assert mod_index(1, 5) == 1
    assert mod_index(5, 5) == 5
    assert mod_index(6, 5) == 1
    assert mod_index(0, 5) == 5
    assert mod_index(-1, 5) == 4
    assert mod_index(-7, 5) == 3


def test_mod_index_range_and_congruence():
    for p in (3, 5, 7, 13):
        for x in range(-2 * p, 2 * p + 1):
            m = mod_index(x, p)
            assert 1 <= m <= p
            assert (m - x) % p == 0


def test_is_prime_small():
    primes = {2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31}
    for n in range(2, 32):
        assert is_prime(n) == (n in primes)
    assert not is_prime(1)
    assert not is_prime(0)


def test_xor_blocks_axioms():
    """XOR over 1-byte blocks: identity, self-inverse, commutative."""
    z = np.zeros(1, dtype=np.uint8)
    for a in range(256):
        av = np.array([a], dtype=np.uint8)
        assert xor_blocks([av, z])[0] == a
        assert xor_blocks([av, av])[0] == 0
        for b in (0, 1, 37, 255):
            bv = np.array([b], dtype=np.uint8)
            assert xor_blocks([av, bv])[0] == xor_blocks([bv, av])[0] == a ^ b


def test_xor_blocks_errors():
    with pytest.raises(ValueError):
        xor_blocks([])
    with pytest.raises(ValueError):
        xor_blocks([np.zeros(2, dtype=np.uint8), np.zeros(3, dtype=np.uint8)])


def test_group_members_frozen():
    # slope 1, index 3, p=5: rows <3 + (1-j)> across the five data columns
    got = parity_group_members(5, ParityGroupId(1, 3))
    assert got == [Coord(3, 1), Coord(2, 2), Coord(1, 3), Coord(5, 4), Coord(4, 5)]
    # slope -1, index 2, p=3: rows <2 - (1-j)>
    got = parity_group_members(3, ParityGroupId(-1, 2))
    assert got == [Coord(2, 1), Coord(3, 2), Coord(1, 3)]


def test_group_members_one_per_column():
    for p in (5, 7):
        for v in (-1, 0, 1, 2):
            for i in range(p):
                members = parity_group_members(p, ParityGroupId(v, i))
                assert [c.col for c in members] == list(range(1, p + 1))
                assert all(1 <= c.row <= p for c in members)
