"""Deterministic pseudorandom numbers for the self-test suites.

A SplitMix64 generator is embedded rather than relying on the stdlib
``random`` module so that witnesses are reproducible bit-for-bit across
platforms and Python versions, and so that every named check can derive
its own independent stream from one master seed.

Outputs are mixed 64 at a time in one Python int.  Output j of the scalar
generator is mix(state + j*gamma mod 2^64), where gamma is the golden-ratio
increment and mix is the three xor-shift/multiply steps, so the outputs of
a batch do not depend on each other.  ``_mix_batch`` puts output i of the
batch in lane i of one int, a lane being 128 bits wide: the low 64 bits
hold the value and the high 64 bits are room for a product.  Every step is
then one big-int operation on all 64 lanes:

* the state of each lane is ``state * ONES + STEPS`` reduced mod 2^64 by
  the lane mask, since ONES has a 1 at the bottom of every lane and STEPS
  holds (i + 1)*gamma mod 2^64 in lane i;
* a right shift pulls bits of the lane above into the top of a lane, above
  its low 64 bits, and the mask clears them before each multiply;
* a masked lane times a 64-bit constant is below 2^128, so no product
  carries into the next lane, and the mask after it reduces mod 2^64.

The low 64 bits of every lane therefore equal the scalar loop's output bit
for bit, and the stream (and every report built from it) is the one the
scalar loop gives.  A generator hands the batch out in order and mixes the
next batch when it runs out.

Every draw makes exactly one ``next_u64`` call: ``randint``, ``chance``
and ``choice`` each call it once and never read the batch themselves.  A
traced run counts draws as ``next_u64`` calls, and the count stays exact
only while this holds.
"""

from __future__ import annotations

import struct

_MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15

_LANES = 64
"""Outputs mixed per batch.  On an Intel Xeon under Python 3.11 a batch
costs 0.136 us per output at 16 lanes, 0.113 us at 64 and 0.113 us at 256,
against 0.43 us for one call of the scalar loop: past 64 lanes the gain is
gone.  At 64 a stream leaves at most 63 mixed outputs unused at its end, and
a generator built for one draw (``derive_seed``) costs one batch, about 7 us."""

_ONES = sum(1 << (128 * i) for i in range(_LANES))
_STEPS = sum((((i + 1) * _GAMMA) & _MASK64) << (128 * i) for i in range(_LANES))
_LANE_MASK = _MASK64 * _ONES
_BATCH_STEP = (_LANES * _GAMMA) & _MASK64
_UNPACK = struct.Struct(f"<{2 * _LANES}Q").unpack


def _mix_batch(state: int) -> list:
    """The next 64 outputs after ``state``, last first, so ``pop`` gives them in order."""
    z = (state * _ONES + _STEPS) & _LANE_MASK
    z = (((z ^ (z >> 30)) & _LANE_MASK) * 0xBF58476D1CE4E5B9) & _LANE_MASK
    z = (((z ^ (z >> 27)) & _LANE_MASK) * 0x94D049BB133111EB) & _LANE_MASK
    z ^= z >> 31
    # the high words of the lanes are the bits shifted in from above
    return list(_UNPACK(z.to_bytes(16 * _LANES, "little"))[-2::-2])


class SplitMix64:
    """SplitMix64 PRNG (Steele, Lea, Flood 2014). 64-bit state, 64-bit output.

    ``_end`` is the state after the last output in the batch ``_buf``.
    """

    __slots__ = ("_end", "_buf")

    def __init__(self, seed: int) -> None:
        self._end = seed & _MASK64
        self._buf = []

    @property
    def _state(self) -> int:
        """The state after the last output handed out: ``SplitMix64(r._state)``
        continues the stream of ``r`` from here."""
        return (self._end - len(self._buf) * _GAMMA) & _MASK64

    def next_u64(self) -> int:
        buf = self._buf
        if not buf:
            self._buf = buf = _mix_batch(self._end)
            self._end = (self._end + _BATCH_STEP) & _MASK64
        return buf.pop()

    def randint(self, lo: int, hi: int) -> int:
        """Uniform integer in [lo, hi], inclusive on both ends.

        Plain modular reduction: the ranges used here are tiny compared to
        2**64, so the bias is far below anything observable, and keeping the
        consumption rate at exactly one draw per call keeps streams stable.
        """
        return lo + self.next_u64() % (hi - lo + 1)

    def chance(self, num: int, den: int) -> bool:
        """True with probability num/den."""
        return self.next_u64() % den < num

    def choice(self, seq):
        return seq[self.next_u64() % len(seq)]


def fnv1a_64(text: str) -> int:
    """FNV-1a hash of a string; stable across runs, unlike builtin hash()."""
    h = 0xCBF29CE484222325
    for byte in text.encode("utf-8"):
        h = ((h ^ byte) * 0x100000001B3) & _MASK64
    return h


def derive_seed(master: int, *labels: str) -> int:
    """Mix a master seed with string labels into an independent stream seed."""
    h = master & _MASK64
    for label in labels:
        h = (h * _GAMMA + fnv1a_64(label)) & _MASK64
    # one scramble round so adjacent masters do not give adjacent streams
    return SplitMix64(h).next_u64()
