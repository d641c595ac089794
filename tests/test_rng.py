"""Seeded generator used for every random instance."""

from __future__ import annotations

import math

import pytest

import orderdim.rng as rng_module
from orderdim import SplitMix64


def test_reference_vector_for_seed_zero():
    # First three outputs of the published splitmix64 reference for seed 0.
    r = SplitMix64(0)
    assert r.next_u64() == 0xE220A8397B1DCDAF
    assert r.next_u64() == 0x6E789E6AA1B965F4
    assert r.next_u64() == 0x06C45D188009454F


def test_streams_are_deterministic_and_seed_sensitive():
    a = [SplitMix64(9).next_u64() for _ in range(4)]
    b = [SplitMix64(9).next_u64() for _ in range(4)]
    assert a == b
    assert SplitMix64(9).next_u64() != SplitMix64(10).next_u64()


def test_below_stays_in_range_and_covers_values():
    r = SplitMix64(5)
    seen = set()
    for _ in range(200):
        v = r.below(6)
        assert 0 <= v < 6
        seen.add(v)
    assert seen == set(range(6))


def test_chance_extremes():
    r = SplitMix64(1)
    assert not any(r.chance(0.0) for _ in range(50))
    assert all(r.chance(1.0) for _ in range(50))


def _chances(r, count, p):
    return sum(r.chance(p) << t for t in range(count))


def test_hits_match_chance_calls_and_leave_the_same_state():
    lanes = rng_module._LANES
    draw = SplitMix64(2024)
    counts = [0, 1, 2, 3 * lanes + 17]
    for edge in (lanes, 2 * lanes):
        counts += [edge - 1, edge, edge + 1]
    chances = [0.0, 1.0, -0.5, 1.5]
    for count in counts:
        for p in chances + [draw.below(1 << 53) / 2**53 for _ in range(2)]:
            seed = draw.next_u64()
            a, b = SplitMix64(seed), SplitMix64(seed)
            assert a.hits(count, p) == _chances(b, count, p), (seed, count, p)
            assert a.state == b.state


def test_hits_keep_the_stream_between_other_draws():
    a, b = SplitMix64(77), SplitMix64(77)
    for count in (5, rng_module._LANES + 3, 0, 64):
        assert a.below(1000) == b.below(1000)
        assert a.hits(count, 0.3) == _chances(b, count, 0.3)
        assert a.next_u64() == b.next_u64()


def test_hits_refuse_nan_as_chance_does():
    with pytest.raises(ValueError) as from_chance:
        SplitMix64(1).chance(math.nan)
    with pytest.raises(ValueError) as from_hits:
        SplitMix64(1).hits(3, math.nan)
    assert str(from_hits.value) == str(from_chance.value)
    with pytest.raises(ValueError, match="negative draw count"):
        SplitMix64(1).hits(-1, 0.5)
