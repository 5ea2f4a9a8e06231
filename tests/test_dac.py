import io
import random
import struct
import sys
import warnings
from array import array

import pytest

from bmatrix._binio import pack_fixed, packed_array, unpack_fixed
from bmatrix.dac import Dac
from bmatrix.k2tree import K2Config


def bits(bv):
    return "".join("1" if bv.access(i) else "0" for i in range(len(bv)))


def test_single_level_example():
    d = Dac.encode([0, 1, 2], chunk_bits=2)
    assert len(d.levels) == 1
    assert list(d.levels[0][0]) == [0, 1, 2]
    assert bits(d.levels[0][1]) == "000"
    assert [d.access(i) for i in range(3)] == [0, 1, 2]


def test_two_level_example():
    # 5 = 01|01 base 4, 9 = 10|01 base 4
    d = Dac.encode([5, 1, 9], chunk_bits=2)
    assert list(d.levels[0][0]) == [1, 1, 1]
    assert bits(d.levels[0][1]) == "101"
    assert list(d.levels[1][0]) == [1, 2]
    assert bits(d.levels[1][1]) == "00"
    assert d.access(2) == 9
    assert [d.access(i) for i in range(3)] == [5, 1, 9]


def test_zero_takes_one_chunk():
    d = Dac.encode([0], chunk_bits=4)
    assert d.access(0) == 0
    assert sum(len(chunks) for chunks, _ in d.levels) == 1


def test_top_level_never_continues():
    rng = random.Random(3)
    values = [rng.randrange(1 << 20) for _ in range(500)]
    d = Dac.encode(values, chunk_bits=4)
    assert d.levels[-1][1].ones == 0


def test_chunk_count_is_sum_of_value_chunks():
    values = [0, 1, 255, 256, 65535, 65536, 2 ** 31]
    for b in (1, 2, 4, 8):
        d = Dac.encode(values, chunk_bits=b)
        expected = sum((max(v.bit_length(), 1) + b - 1) // b for v in values)
        assert sum(len(chunks) for chunks, _ in d.levels) == expected


@pytest.mark.parametrize("b", [1, 2, 4, 8])
def test_round_trip_random(b):
    rng = random.Random(b)
    values = [rng.randrange(1 << 32) for _ in range(2000)]
    values += [0, 1, (1 << 32) - 1]
    d = Dac.encode(values, chunk_bits=b)
    assert len(d) == len(values)
    assert [d.access(i) for i in range(len(values))] == values
    assert d.values().tolist() == values


def test_values_of_wide_and_empty():
    values = [(1 << 64) - 1, 0, 1 << 63, 12345]
    assert Dac.encode(values, chunk_bits=3).values().tolist() == values
    assert Dac.encode([], chunk_bits=3).values().tolist() == []


def _levels_bytes(values, chunk_bits=2):
    buf = io.BytesIO()
    Dac.encode(values, chunk_bits=chunk_bits).write(buf)
    return bytearray(buf.getvalue())


def _continuing(chunk_bits, n_levels=100):
    """A DAC file of one value whose n_levels levels each hold a chunk of 1
    and a set continuation flag."""
    level = (1).to_bytes((chunk_bits + 7) // 8, "little") + (1).to_bytes(8, "little")
    return struct.pack("<BQ", chunk_bits, 1) + level * n_levels


@pytest.mark.parametrize("fault, message", [
    ("length", "set bits past the 4 bits"),
    ("too many levels", "more than 64-bit values need"),
    ("width 0", "chunk width must be 1 to 64, not 0"),
    ("width 65", "chunk width must be 1 to 64, not 65")])
def test_read_refuses_disagreeing_levels(fault, message):
    data = _levels_bytes([5, 1, 9])         # levels of 3 and 2 chunks
    if fault == "length":                   # the third chunk lies past two
        data[1:9] = (2).to_bytes(8, "little")
    elif fault.startswith("width"):
        data[0] = int(fault.split()[1])
    else:
        data = _continuing(2)
    with pytest.raises(ValueError, match=message):
        Dac.read(io.BytesIO(bytes(data)))


@pytest.mark.parametrize("chunk_bits", [1, 2, 3, 7, 8, 64])
def test_flags_past_64_bit_values_are_refused(chunk_bits):
    """The file holds no level count, so only the 64-bit bound stops flags
    that go on continuing: one level past what a 64-bit value takes is
    refused, however many follow, and the value that stops there loads."""
    top = -(-64 // chunk_bits)            # levels of a 64-bit value
    with pytest.raises(ValueError, match=f"DAC has {top + 1} levels of"
                                         f" {chunk_bits}-bit chunks, more than"):
        Dac.read(io.BytesIO(_continuing(chunk_bits)))
    data = bytearray(_continuing(chunk_bits, top))
    data[-8] = 0                          # the last level's flag
    value = sum(1 << lvl * chunk_bits for lvl in range(top))
    assert Dac.read(io.BytesIO(bytes(data))).values().tolist() == [value]


@pytest.mark.parametrize("chunk_bits", [3, 5, 7, 10])
def test_top_chunk_bits_past_bit_63_are_refused(chunk_bits):
    """values() would drop the bits of a top chunk past bit 63 and access()
    keep them; the top chunk may reach bit 63 and no further."""
    top = -(-64 // chunk_bits) - 1        # the level holding bit 63
    spare = 64 - top * chunk_bits         # its chunk bits below bit 64

    def level(chunk, more):
        return chunk.to_bytes((chunk_bits + 7) // 8, "little") + more.to_bytes(8, "little")

    below = struct.pack("<BQ", chunk_bits, 1) + level(0, 1) * top
    with pytest.raises(ValueError, match=f"DAC level {top} has a chunk with bits"
                                         " past bit 63"):
        Dac.read(io.BytesIO(below + level(1 << spare, 0)))
    d = Dac.read(io.BytesIO(below + level((1 << spare) - 1, 0)))
    assert d.values().tolist() == [d.access(0)] == [(1 << 64) - (1 << top * chunk_bits)]


@pytest.mark.parametrize("width", [0, 65, 256])
def test_widths_outside_1_to_64_are_refused(width):
    with pytest.raises(ValueError, match="1 to 64"):
        Dac.encode([1, 2], chunk_bits=width)
    with pytest.raises(ValueError, match="1 to 64"):
        K2Config(dac_chunk_bits=width)


def test_width_64_holds_any_value_without_overflow():
    values = [(1 << 64) - 1, 0, 1 << 63, 12345]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        d = Dac.encode(values, chunk_bits=64)
    assert len(d.levels) == 1
    assert d.values().tolist() == values == [d.access(i) for i in range(4)]


def test_bounds():
    d = Dac.encode([1, 2, 3])
    with pytest.raises(IndexError):
        d.access(3)
    with pytest.raises(IndexError):
        d.access(-1)
    empty = Dac.encode([])
    assert len(empty) == 0
    with pytest.raises(IndexError):
        empty.access(0)


def test_serialization_round_trip():
    rng = random.Random(11)
    for b in (1, 3, 8, 13):
        values = [rng.randrange(1 << 24) for _ in range(rng.randrange(0, 300))]
        d = Dac.encode(values, chunk_bits=b)
        buf = io.BytesIO()
        d.write(buf)
        buf.seek(0)
        back = Dac.read(buf)
        assert back.chunk_bits == b and len(back) == len(values)
        assert [back.access(i) for i in range(len(values))] == values
    buf = io.BytesIO()
    Dac.encode([], chunk_bits=3).write(buf)
    assert buf.getvalue() == struct.pack("<BQ", 3, 0)     # no levels
    back = Dac.read(io.BytesIO(buf.getvalue()))
    assert (back.chunk_bits, len(back), back.levels) == (3, 0, [])


@pytest.mark.parametrize("b", [1, 3, 8, 13, 16])
def test_built_and_loaded_dacs_hold_the_same_chunk_type(b):
    rng = random.Random(5)
    d = Dac.encode([rng.randrange(1 << 40) for _ in range(500)], chunk_bits=b)
    buf = io.BytesIO()
    d.write(buf)
    buf.seek(0)
    back = Dac.read(buf)
    assert len(back.levels) == len(d.levels) > 1
    for (built, _), (loaded, _) in zip(d.levels, back.levels):
        assert type(built) is type(loaded) is array
        assert (loaded.typecode, list(loaded)) == (built.typecode, list(built))


@pytest.mark.parametrize("values", [[], [7], [255] * 1000, [300] * 999,
                                    list(range(70_000)), [1 << 40, 3]])
def test_packed_array_is_sized_exactly(values):
    a = packed_array(values)
    assert list(a) == values
    assert sys.getsizeof(a) == sys.getsizeof(array(a.typecode)) + a.itemsize * len(a)


@pytest.mark.parametrize("width", [0, 3, 16])
def test_unpack_fixed_refuses_a_count_its_bytes_cannot_hold(width):
    data = pack_fixed([1, 2, 3], 16)
    with pytest.raises(ValueError, match="do not fit"):
        unpack_fixed(data, width, 1 << 60)
    assert list(unpack_fixed(data, 16, 3)) == [1, 2, 3]


@pytest.mark.parametrize("width", [1, 3, 8, 16])
def test_unpack_fixed_refuses_set_bits_past_its_values(width):
    data = bytearray(pack_fixed([1, 0, 1], width) + b"\0")
    assert list(unpack_fixed(bytes(data), width, 3)) == [1, 0, 1]
    for bit in range(3 * width, 8 * len(data)):
        bad = bytearray(data)
        bad[bit // 8] |= 1 << bit % 8
        with pytest.raises(ValueError, match=f"set bits past the {3 * width} bits"):
            unpack_fixed(bytes(bad), width, 3)
