"""Deterministic 64-bit generator so seeded runs are byte-reproducible."""

from __future__ import annotations

import struct

_MASK = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_MUL1 = 0xBF58476D1CE4E5B9
_MUL2 = 0x94D049BB133111EB

# hits() runs this many draws at once, each in its own 128-bit lane of
# one int, so an int stays at 4 KB however many draws are asked for.
_LANES = 1 << 8
_ONES = int.from_bytes((b"\x01" + bytes(15)) * _LANES, "little")  # 1 per lane
_LOW = int.from_bytes((b"\xff" * 8 + bytes(8)) * _LANES, "little")
_RAMP = int.from_bytes(  # t + 1 in lane t
    struct.pack("<" + "Q8x" * _LANES, *range(1, _LANES + 1)), "little"
)
# bit 64 of a lane, the only bit a sum of two 64-bit lane values carries
# into, lands on byte 7 + 16 * (lanes - 1 - t) of the big-endian bytes
_MISS = bytes.maketrans(b"\x00\x01", b"10")


class SplitMix64:
    """The splitmix64 sequence; identical output for identical seeds."""

    def __init__(self, seed: int):
        self.state = seed & _MASK

    def next_u64(self) -> int:
        self.state = (self.state + _GAMMA) & _MASK
        z = self.state
        z = ((z ^ (z >> 30)) * _MUL1) & _MASK
        z = ((z ^ (z >> 27)) * _MUL2) & _MASK
        return z ^ (z >> 31)

    def below(self, n: int) -> int:
        """Uniform-enough draw from 0..n-1 via multiply-shift."""
        if n <= 0:
            raise ValueError(f"empty draw range {n}")
        return (self.next_u64() * n) >> 64

    def chance(self, p: float) -> bool:
        return self.next_u64() < int(p * 2.0**64)

    def hits(self, count: int, p: float) -> int:
        """count calls of chance(p) at once: bit t is the t-th outcome.

        The state ends where those calls would leave it. Each draw runs
        in its own 128-bit lane: the lanes hold the states the calls
        would step through, both multiply-xorshift rounds act on all of
        them, and adding 2**64 - threshold carries out of a lane's 64
        bits exactly when its draw is not below the threshold.
        """
        if count < 0:
            raise ValueError(f"negative draw count {count}")
        if count == 0:
            return 0
        threshold = min(max(int(p * 2.0**64), 0), 1 << 64)
        chunks = []
        for start in range(0, count, _LANES):
            lanes = min(_LANES, count - start)
            keep = (1 << (128 * lanes)) - 1
            ones, low = _ONES & keep, _LOW & keep
            z = (self.state * ones + _GAMMA * (_RAMP & keep)) & low
            z = ((z ^ (z >> 30)) & low) * _MUL1 & low
            z = ((z ^ (z >> 27)) & low) * _MUL2 & low
            z = (z ^ (z >> 31)) & low
            z += ((1 << 64) - threshold) * ones
            carries = z.to_bytes(16 * lanes, "big")
            chunks.append(carries[7::16].translate(_MISS))
            self.state = (self.state + lanes * _GAMMA) & _MASK
        return int(b"".join(reversed(chunks)), 2)
