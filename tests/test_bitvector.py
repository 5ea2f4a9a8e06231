import io
import random
from itertools import accumulate

import numpy as np
import pytest

from bmatrix.bitvector import (BitVector, SAMPLE_PRESETS, SAMPLE_RATE_DEFAULT,
                               SAMPLE_RATE_DENSE)
from bmatrix.dac import Dac


def rates(words=(), bits=()):
    """Sample rates to parametrize on, each named as it is given: in 64-bit
    words (rows of 3 or 7 words; 100 words puts no sample past 0 within the
    lengths tested) or in bits (the presets)."""
    return ([pytest.param(64 * w, id=str(w)) for w in words]
            + [pytest.param(b, id=str(b)) for b in bits])


def naive_rank1(bits, i):
    return sum(bits[:i + 1])


def naive_select(bits, value, j):
    seen = 0
    for pos, b in enumerate(bits):
        if b == value:
            seen += 1
            if seen == j:
                return pos
    raise ValueError


def test_rank_examples():
    bv = BitVector("10110")
    assert bv.rank1(0) == 1
    assert bv.rank1(4) == 3
    assert BitVector("11111111").rank1(7) == 8
    assert BitVector("0000").rank1(3) == 0


def test_select_examples():
    bv = BitVector("10110")
    assert bv.select1(1) == 0
    assert bv.select1(2) == 2
    assert bv.select1(3) == 3
    assert BitVector("1").select1(1) == 0


def test_access_examples():
    bv = BitVector("10110")
    assert bv.access(2) is True
    assert bv.access(1) is False
    assert BitVector("0").access(0) is False


def test_bounds_rejected():
    bv = BitVector("10110")
    for bad in (-1, 5, 100):
        with pytest.raises(IndexError):
            bv.rank1(bad)
        with pytest.raises(IndexError):
            bv.access(bad)
    with pytest.raises(ValueError):
        bv.select1(0)
    with pytest.raises(ValueError):
        bv.select1(4)
    with pytest.raises(ValueError):
        bv.select0(3)


def test_empty():
    bv = BitVector("")
    assert len(bv) == 0 and bv.ones == 0
    with pytest.raises(IndexError):
        bv.access(0)
    with pytest.raises(ValueError):
        bv.select1(1)


def test_presets():
    assert SAMPLE_PRESETS["default"] == SAMPLE_RATE_DEFAULT == 1280
    assert SAMPLE_PRESETS["dense"] == SAMPLE_RATE_DENSE == 512
    # 64-bit counter every `rate` bits
    assert 64 / SAMPLE_RATE_DEFAULT == pytest.approx(0.05)
    assert 64 / SAMPLE_RATE_DENSE == pytest.approx(0.125)
    n = 1 << 16
    bv = BitVector(np.ones(n, dtype=bool), SAMPLE_RATE_DEFAULT)
    assert bv.accel_bytes / len(bv.data) == pytest.approx(0.05, abs=0.002)
    dense = BitVector(np.ones(n, dtype=bool), SAMPLE_RATE_DENSE)
    assert dense.accel_bytes / len(dense.data) == pytest.approx(0.125, abs=0.002)


@pytest.mark.parametrize("rate", [0, 1, 63, 65, 100, -64])
def test_sample_rates_off_whole_words_are_refused(rate):
    """A sample must start on a 64-bit word."""
    bv = BitVector("10110")
    buf = io.BytesIO()
    bv.write(buf)
    dac = io.BytesIO()
    Dac.encode([1, 300, 70_000]).write(dac)
    match = "sample_rate must be a positive multiple of 64"
    with pytest.raises(ValueError, match=match):
        BitVector("10110", sample_rate=rate)
    with pytest.raises(ValueError, match=match):
        BitVector.from_bytes(bv.data, len(bv), sample_rate=rate)
    with pytest.raises(ValueError, match=match):
        BitVector.read(io.BytesIO(buf.getvalue()), sample_rate=rate)
    with pytest.raises(ValueError, match=match):
        Dac.encode([1, 300, 70_000], sample_rate=rate)
    with pytest.raises(ValueError, match=match):
        Dac.read(io.BytesIO(dac.getvalue()), 3, sample_rate=rate)


@pytest.mark.parametrize("preset", sorted(SAMPLE_PRESETS))
def test_samples_count_the_bits_before_them(preset):
    # lengths that end on a sample and one bit to either side
    rate = SAMPLE_PRESETS[preset]
    rng = random.Random(preset)
    for n in (rate - 1, rate, rate + 1, 3 * rate - 1, 3 * rate, 3 * rate + 1):
        bits = [rng.random() < 0.4 for _ in range(n)]
        bv = BitVector(bits, sample_rate=rate)
        assert list(bv._samples) == [sum(bits[:j * rate])
                                     for j in range(n // rate + 1)]
        assert bv.ones == sum(bits)


@pytest.mark.parametrize("density", [0.01, 0.5, 0.99])
@pytest.mark.parametrize("rate", rates(words=(1, 2, 7), bits=(64, 512, 1280)))
def test_matches_naive_scan(density, rate, request):
    # seeded by the test's name, so a rate given both ways draws other bits
    rng = random.Random(request.node.callspec.id)
    n = rng.randrange(1, 3000)
    bits = [rng.random() < density for _ in range(n)]
    bv = BitVector(bits, sample_rate=rate)
    ones = sum(bits)
    assert bv.ones == ones
    for _ in range(120):
        i = rng.randrange(n)
        assert bv.rank1(i) == naive_rank1(bits, i)
        assert bv.rank0(i) == i + 1 - naive_rank1(bits, i)
        assert bv.access(i) == bits[i]
    for _ in range(60):
        if ones:
            j = rng.randrange(1, ones + 1)
            assert bv.select1(j) == naive_select(bits, True, j)
        if n - ones:
            j = rng.randrange(1, n - ones + 1)
            assert bv.select0(j) == naive_select(bits, False, j)


def test_rank_access_select_laws():
    rng = random.Random(99)
    bits = [rng.random() < 0.3 for _ in range(5000)]
    bv = BitVector(bits, sample_rate=128)
    for i in range(0, 5000, 37):
        prev = bv.rank1(i - 1) if i else 0
        assert bv.rank1(i) - prev == (1 if bv.access(i) else 0)
        assert bv.rank1(i) + bv.rank0(i) == i + 1
    for j in range(1, bv.ones + 1, 53):
        p = bv.select1(j)
        assert bv.rank1(p) == j
        assert bv.access(p)
    assert bv.rank1(len(bv) - 1) + bv.rank0(len(bv) - 1) == len(bv)


def test_serialization_round_trip():
    rng = random.Random(7)
    for n in (0, 1, 63, 64, 65, 1000, 4097):
        bits = [rng.random() < 0.4 for _ in range(n)]
        bv = BitVector(bits, sample_rate=256)
        buf = io.BytesIO()
        bv.write(buf)
        assert buf.tell() == 8 + 8 * ((n + 63) // 64)
        buf.seek(0)
        # acceleration is rebuilt, possibly with a different preset
        back = BitVector.read(buf, sample_rate=512)
        assert (back.length, back.data) == (bv.length, bv.data)
        assert back.ones == bv.ones
        for i in range(0, n, 17):
            assert back.rank1(i) == bv.rank1(i)


@pytest.mark.parametrize("n", [0, 1, 63, 65])
def test_set_bits_past_the_length_are_refused(n):
    """ones would count them, so a DAC would misread its next level."""
    data = BitVector([1] * n).data
    for bit in range(n, 8 * len(data)):
        bad = bytearray(data)
        bad[bit // 8] |= 1 << bit % 8
        with pytest.raises(ValueError, match=f"set bits past the {n} bits"):
            BitVector.from_bytes(bytes(bad), n)


@pytest.mark.parametrize("rate", rates(words=(1, 3, 7, 100), bits=(512, 1280)))
def test_every_position_matches_naive_count(rate):
    # lengths around byte, word and sample boundaries
    rng = random.Random(rate)
    lengths = {1, 7, 8, 9, 63, 64, 65, 127, 128, 129, 511, 512, 513, 1279, 1280,
               1281, 2561}
    lengths |= {m for m in (rate - 1, rate, rate + 1, 2 * rate + 1) if m <= 2561}
    for n in sorted(lengths):
        for density in (0.1, 0.5):
            bits = [rng.random() < density for _ in range(n)]
            bv = BitVector(bits, sample_rate=rate)
            assert len(bv.data) == 8 * ((n + 63) // 64)
            assert [bv.access(i) for i in range(n)] == bits
            assert [bv.rank1(i) for i in range(n)] == list(accumulate(bits))
            assert [bv.select1(j) for j in range(1, bv.ones + 1)] == \
                [i for i, b in enumerate(bits) if b]
            assert [bv.select0(j) for j in range(1, n - bv.ones + 1)] == \
                [i for i, b in enumerate(bits) if not b]
