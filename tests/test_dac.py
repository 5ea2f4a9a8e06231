import io
import itertools
import random
import sys
import warnings
from array import array

import numpy as np
import pytest

from bmatrix._binio import _pack_bits, _unpack_bits, pack_fixed, packed_array, unpack_fixed
from bmatrix.dac import DAC_MAX_LEVELS, Dac, bit_length_counts, optimal_widths
from bmatrix.k2tree import K2Config


def bits(bv):
    return "".join("1" if bv.access(i) else "0" for i in range(len(bv)))


def chunks(d, lvl):
    """Level lvl's chunks as a list of ints."""
    width, data, flags = d.levels[lvl]
    return list(unpack_fixed(data, width, len(flags)))


def test_single_level_example():
    d = Dac.encode([0, 1, 2], chunk_bits=2)
    assert len(d.levels) == 1
    assert chunks(d, 0) == [0, 1, 2]
    assert bits(d.levels[0][2]) == "000"
    assert [d.access(i) for i in range(3)] == [0, 1, 2]


def test_two_level_example():
    # 5 = 01|01 base 4, 9 = 10|01 base 4
    d = Dac.encode([5, 1, 9], chunk_bits=2)
    assert chunks(d, 0) == [1, 1, 1]
    assert bits(d.levels[0][2]) == "101"
    assert chunks(d, 1) == [1, 2]
    assert bits(d.levels[1][2]) == "00"
    assert d.access(2) == 9
    assert [d.access(i) for i in range(3)] == [5, 1, 9]


def test_zero_takes_one_chunk():
    d = Dac.encode([0], chunk_bits=4)
    assert d.access(0) == 0
    assert sum(len(flags) for _, _, flags in d.levels) == 1


def test_top_level_never_continues():
    rng = random.Random(3)
    values = [rng.randrange(1 << 20) for _ in range(500)]
    d = Dac.encode(values, chunk_bits=4)
    assert d.levels[-1][2].ones == 0


def test_chunk_count_is_sum_of_value_chunks():
    values = [0, 1, 255, 256, 65535, 65536, 2 ** 31]
    for b in (1, 2, 4, 8):
        d = Dac.encode(values, chunk_bits=b)
        expected = sum((max(v.bit_length(), 1) + b - 1) // b for v in values)
        assert sum(len(flags) for _, _, flags in d.levels) == expected


@pytest.mark.parametrize("b", [1, 2, 4, 8])
def test_round_trip_random(b):
    rng = random.Random(b)
    values = [rng.randrange(1 << 32) for _ in range(2000)]
    values += [0, 1, (1 << 32) - 1]
    d = Dac.encode(values, chunk_bits=b)
    assert len(d) == len(values)
    assert [d.access(i) for i in range(len(values))] == values
    assert d.top() == max(values)


def test_values_of_wide_and_empty():
    values = [(1 << 64) - 1, 0, 1 << 63, 12345]
    d = Dac.encode(values, chunk_bits=3)
    assert [d.access(i) for i in range(len(values))] == values
    assert d.top() == (1 << 64) - 1
    assert len(Dac.encode([], chunk_bits=3)) == 0
    assert Dac.encode([], chunk_bits=3).top() == -1 == Dac.encode([]).top()


def test_top_is_decided_by_the_lower_chunks_of_the_longest_values():
    """Values that share their last-level chunk differ only in the chunks
    below it, which `top` reads through the continuation ones."""
    for values in ([5, 4, 0, 6, 7, 1], [7, 6, 4, 5], [4, 5, 1, 0], [0, 0, 0]):
        for b in (1, 2):
            assert Dac.encode(values, chunk_bits=b).top() == max(values)


def _levels_bytes(values, chunk_bits=2):
    buf = io.BytesIO()
    Dac.encode(values, chunk_bits=chunk_bits).write(buf)
    return bytearray(buf.getvalue())


def _level(width, chunk, more):
    """One level of one chunk as a DAC file holds it."""
    return bytes((width,)) + pack_fixed([chunk], width) + more.to_bytes(8, "little")


def _continuing(chunk_bits, n_levels=100):
    """A DAC file of one value whose n_levels levels each hold a chunk of 1
    and a set continuation flag."""
    return _level(chunk_bits, 1, 1) * n_levels


@pytest.mark.parametrize("fault, message", [
    ("length", "set bits past the 4 bits"),
    ("too many levels", "more than 64-bit values need"),
    ("width 0", "chunk width must be 1 to 64, not 0"),
    ("width 65", "chunk width must be 1 to 64, not 65")])
def test_read_refuses_disagreeing_levels(fault, message):
    data = _levels_bytes([5, 1, 9])         # levels of 3 and 2 chunks
    length = 3
    if fault == "length":                   # the third chunk lies past two
        length = 2
    elif fault.startswith("width"):
        data[0] = int(fault.split()[1])     # level 0's width
    else:
        data, length = _continuing(2), 1
    with pytest.raises(ValueError, match=message):
        Dac.read(io.BytesIO(bytes(data)), length)


@pytest.mark.parametrize("chunk_bits", [1, 2, 3, 7, 8, 64])
def test_flags_past_64_bit_values_are_refused(chunk_bits):
    """The file holds no level count, so only the 64-bit bound stops flags
    that go on continuing: one level past what a 64-bit value takes is
    refused, however many follow, and the value that stops there loads."""
    top = -(-64 // chunk_bits)            # levels of a 64-bit value
    with pytest.raises(ValueError, match=f"DAC level {top} starts at bit"
                                         f" {top * chunk_bits}, more than"):
        Dac.read(io.BytesIO(_continuing(chunk_bits)), 1)
    data = bytearray(_continuing(chunk_bits, top))
    data[-8] = 0                          # the last level's flag
    value = sum(1 << lvl * chunk_bits for lvl in range(top))
    d = Dac.read(io.BytesIO(bytes(data)), 1)
    assert [d.access(0)] == [value] == [d.top()]


@pytest.mark.parametrize("chunk_bits", [3, 5, 7, 10])
def test_top_chunk_bits_past_bit_63_are_refused(chunk_bits):
    """top() would drop the bits of a top chunk past bit 63 and access()
    keep them; the top chunk may reach bit 63 and no further."""
    top = -(-64 // chunk_bits) - 1        # the level holding bit 63
    spare = 64 - top * chunk_bits         # its chunk bits below bit 64

    below = _level(chunk_bits, 0, 1) * top
    with pytest.raises(ValueError, match=f"DAC level {top} has a chunk with bits"
                                         " past bit 63"):
        Dac.read(io.BytesIO(below + _level(chunk_bits, 1 << spare, 0)), 1)
    d = Dac.read(io.BytesIO(below + _level(chunk_bits, (1 << spare) - 1, 0)), 1)
    assert d.top() == d.access(0) == (1 << 64) - (1 << top * chunk_bits)


@pytest.mark.parametrize("width", [0, 65, 256])
def test_widths_outside_1_to_64_are_refused(width):
    with pytest.raises(ValueError, match="1 to 64"):
        Dac.encode([1, 2], chunk_bits=width)
    with pytest.raises(TypeError):        # trees always take the optimal widths
        K2Config(dac_chunk_bits=width)


def test_width_64_holds_any_value_without_overflow():
    values = [(1 << 64) - 1, 0, 1 << 63, 12345]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        d = Dac.encode(values, chunk_bits=64)
    assert len(d.levels) == 1
    assert [d.access(i) for i in range(4)] == values
    assert d.top() == max(values)


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
        back = Dac.read(buf, len(values))
        assert back.widths == d.widths and len(back) == len(values)
        assert set(back.widths) <= {b}
        assert [back.access(i) for i in range(len(values))] == values
    buf = io.BytesIO()
    Dac.encode([], chunk_bits=3).write(buf)
    assert buf.getvalue() == b""          # no levels
    back = Dac.read(io.BytesIO(buf.getvalue()), 0)
    assert (len(back), back.levels) == (0, [])


@pytest.mark.parametrize("b", [1, 3, 8, 13, 16])
def test_built_and_loaded_dacs_hold_the_same_chunk_type(b):
    rng = random.Random(5)
    d = Dac.encode([rng.randrange(1 << 40) for _ in range(500)], chunk_bits=b)
    buf = io.BytesIO()
    d.write(buf)
    buf.seek(0)
    back = Dac.read(buf, len(d))
    assert len(back.levels) == len(d.levels) > 1
    # both hold each level's chunks as the packed bytes the file holds
    for (w, built, _), (loaded_w, loaded, _) in zip(d.levels, back.levels):
        assert type(built) is type(loaded) is bytes
        assert (loaded_w, loaded) == (w, built) == (b, built)


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


def _plan_bits(values, widths):
    """The bits of chunks and flags that `widths` give `values`, or None
    when the widths stop short of some value's top bit."""
    lengths = [max(v.bit_length(), 1) for v in values]
    total = start = 0
    for w in widths:
        total += sum(n > start for n in lengths) * (w + 1)
        start += w
    return total if max(lengths) <= start else None


def test_optimal_widths_match_brute_force():
    """Against every width sequence of at most DAC_MAX_LEVELS levels, for
    random value sets of up to 12-bit values."""
    rng = random.Random(21)
    for _ in range(150):
        top = rng.randint(1, 12)
        values = [rng.randrange(1 << rng.randint(0, top))
                  for _ in range(rng.randint(1, 60))]
        n_bits = max(max(v.bit_length(), 1) for v in values)
        best = min(cost for levels in range(1, DAC_MAX_LEVELS + 1)
                   for widths in itertools.product(range(1, n_bits + 1), repeat=levels)
                   if (cost := _plan_bits(values, widths)) is not None)
        widths = optimal_widths(bit_length_counts(np.array(values, dtype=np.uint64)))
        assert len(widths) <= DAC_MAX_LEVELS
        assert _plan_bits(values, widths) == best
        d = Dac.encode(values)
        assert d.widths == widths
        assert [d.access(i) for i in range(len(values))] == values


def test_optimal_widths_examples():
    assert optimal_widths(bit_length_counts(np.array([], dtype=np.uint64))) == []
    assert optimal_widths(bit_length_counts(np.zeros(5, dtype=np.uint64))) == [1]
    # one level of 8 bits costs 4 * 9 bits; 1 + 7 bits costs 4 * 2 + 1 * 8
    assert optimal_widths(bit_length_counts(np.array([1, 1, 0, 200], dtype=np.uint64))) == [1, 7]
    assert optimal_widths(bit_length_counts(np.array([(1 << 64) - 1], dtype=np.uint64))) == [64]


def test_bit_length_counts_is_exact_past_2_to_the_53():
    values = [0, 1, 2, 3, (1 << 53) - 1, 1 << 53, (1 << 53) + 1, (1 << 54) - 1,
              1 << 54, (1 << 63) - 1, 1 << 63, (1 << 64) - 2, (1 << 64) - 1]
    expected = [0] * 65
    for v in values:
        expected[max(v.bit_length(), 1)] += 1
    assert bit_length_counts(np.array(values, dtype=np.uint64)).tolist() == expected


@pytest.mark.parametrize("width", range(1, 65))
def test_fast_packing_matches_the_bit_matrix(width):
    rng = np.random.default_rng(width)
    for count in (1, 7, 9, 63, 1001):
        values = rng.integers(0, 1 << 64, count, dtype=np.uint64) >> np.uint64(64 - width)
        values[0] = (1 << width) - 1
        data = pack_fixed(values, width)
        assert data == _pack_bits(values, width)
        assert len(data) == (count * width + 7) // 8
        assert list(unpack_fixed(data, width, count)) == values.tolist()
        raw = np.frombuffer(data, dtype=np.uint8)
        assert _unpack_bits(raw, width, count).tolist() == values.tolist()


def test_levels_are_capped_and_mixed_widths_round_trip():
    rng = np.random.default_rng(7)
    for values in (rng.geometric(0.05, 5000), rng.integers(0, 1 << 40, 3000),
                   np.concatenate((rng.integers(0, 8, 4000).astype(np.uint64),
                                   np.array([(1 << 64) - 1, 1 << 63], dtype=np.uint64)))):
        values = np.asarray(values, dtype=np.uint64)
        d = Dac.encode(values)
        assert 1 <= len(d.levels) <= DAC_MAX_LEVELS
        assert d.levels[-1][2].ones == 0
        assert [d.access(i) for i in range(len(values))] == values.tolist()
        buf = io.BytesIO()
        d.write(buf)
        back = Dac.read(io.BytesIO(buf.getvalue()), len(values))
        assert back.widths == d.widths
        assert [back.access(i) for i in range(0, len(values), 7)] == values[::7].tolist()
        assert [back.access(i) for i in range(len(values))] == values.tolist()
        assert back.top() == d.top() == int(values.max())
    assert Dac.encode(values).widths == [3, 61]


def test_a_level_starting_at_bit_64_is_refused():
    """Levels of 40 and 24 bits reach bit 63, so flags that continue past
    them ask for a level that starts at bit 64."""
    data = _level(40, 1, 1) + _level(24, 1, 1) + _level(8, 1, 0)
    with pytest.raises(ValueError, match="DAC level 2 starts at bit 64, more than"):
        Dac.read(io.BytesIO(data), 1)
    last = _level(40, 1, 1) + _level(24, (1 << 24) - 1, 0)
    assert Dac.read(io.BytesIO(last), 1).access(0) == (1 << 64) - (1 << 40) + 1


@pytest.mark.parametrize("widths", [(6, 60), (60, 5), (30, 30, 7)])
def test_bits_past_bit_63_at_a_mixed_width_boundary_are_refused(widths):
    """The top level's shift is the sum of the widths below it, so its chunk
    may hold 64 - shift bits and no more."""
    shift = sum(widths[:-1])
    below = b"".join(_level(w, 0, 1) for w in widths[:-1])
    with pytest.raises(ValueError, match=f"DAC level {len(widths) - 1} has a chunk"
                                         " with bits past bit 63"):
        Dac.read(io.BytesIO(below + _level(widths[-1], 1 << 64 - shift, 0)), 1)
    top = (1 << 64 - shift) - 1
    d = Dac.read(io.BytesIO(below + _level(widths[-1], top, 0)), 1)
    assert d.top() == d.access(0) == top << shift


@pytest.mark.parametrize("widths", [(4, 4), (4, 4, 4), (4, 60)])
def test_a_0_chunk_on_the_last_level_is_refused(widths):
    """encode never ends a value with a 0 chunk past level 0, and top()
    relies on it: with 9 stopping at level 0 and 1 going on with 0 chunks,
    the values that reach the last level would not hold the largest."""
    below = bytes((widths[0],)) + pack_fixed([9, 1], widths[0])
    below += (0b10).to_bytes(8, "little")
    below += b"".join(_level(w, 0, 1) for w in widths[1:-1])
    with pytest.raises(ValueError, match=f"DAC level {len(widths) - 1} is the last"
                                         " and has a 0 chunk"):
        Dac.read(io.BytesIO(below + _level(widths[-1], 0, 0)), 2)
    d = Dac.read(io.BytesIO(below + _level(widths[-1], 1, 0)), 2)
    big = 1 + (1 << sum(widths[:-1]))
    assert [d.access(0), d.access(1)] == [9, big] and d.top() == big
    # level 0 may hold 0 chunks, whether one level or more
    zeros = Dac.read(io.BytesIO(_level(widths[0], 0, 0)), 1)
    assert zeros.access(0) == zeros.top() == 0
    # encode's files keep 0 chunks below the last level
    values = [0, 16, 0, 1 << 20]
    back = Dac.read(io.BytesIO(bytes(_levels_bytes(values, chunk_bits=4))), 4)
    assert [back.access(i) for i in range(4)] == values and back.top() == 1 << 20


def test_flags_past_the_last_level_are_refused():
    """A continuation flag on the last level makes the reader take what
    follows for another level: the end of the input, or bytes that fail a
    level's checks."""
    good = bytes((3,)) + pack_fixed([5, 1], 3) + (0).to_bytes(8, "little")
    d = Dac.read(io.BytesIO(good), 2)
    assert [d.access(0), d.access(1)] == [5, 1]
    more = bytearray(good)
    more[-8] = 0b10                       # the second value continues
    with pytest.raises(ValueError, match="truncated input"):
        Dac.read(io.BytesIO(bytes(more)), 2)
    with pytest.raises(ValueError, match="chunk width must be 1 to 64, not 0"):
        Dac.read(io.BytesIO(bytes(more) + bytes(9)), 2)
    with pytest.raises(ValueError, match="set bits past the 3 bits"):
        Dac.read(io.BytesIO(bytes(more) + bytes((3, 0xFF)) + bytes(8)), 2)
