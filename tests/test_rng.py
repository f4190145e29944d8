"""The SplitMix64 stream against the scalar loop of ``oracles.splitmix64``.

The generator mixes its outputs in batches; these tests check that every
value it hands out, and the state it reports after each one, is the scalar
loop's, across batch boundaries and from any resumed state.  They also
keep each draw at exactly one ``next_u64`` call, the unit in which traced
runs count draws.
"""

from hypothesis import given, settings, strategies as st

from kubota_meta.rng import SplitMix64, derive_seed
from oracles import splitmix64

SEEDS = st.one_of(
    st.sampled_from([0, 1, 2 ** 63, 2 ** 64 - 1, 2 ** 64, 2 ** 64 + 1, 2 ** 100, -1, -2 ** 64]),
    st.integers(min_value=-2 ** 80, max_value=2 ** 80),
)
DRAW = st.one_of(
    st.tuples(st.just("next_u64")),
    st.tuples(st.just("randint"), st.integers(-10 ** 6, 10 ** 6), st.integers(0, 10 ** 6)),
    st.tuples(st.just("chance"), st.integers(0, 9), st.integers(1, 9)),
    st.tuples(st.just("choice"), st.integers(1, 20)),
)
# more than three batches of 64 outputs
DRAWS = st.lists(DRAW, min_size=3 * 64 + 1, max_size=300)


def draw(rng: SplitMix64, op: tuple):
    """(what the generator returns, what it must return given the next output v)."""
    kind, *args = op
    if kind == "next_u64":
        return rng.next_u64(), lambda v: v
    if kind == "randint":
        lo, span = args
        return rng.randint(lo, lo + span), lambda v: lo + v % (span + 1)
    if kind == "chance":
        num, den = args
        return rng.chance(num, den), lambda v: v % den < num
    seq = list(range(100, 100 + args[0]))
    return rng.choice(seq), lambda v: seq[v % len(seq)]


@settings(max_examples=50)
@given(SEEDS, DRAWS)
def test_every_draw_and_state_match_the_scalar_loop(seed, ops):
    rng = SplitMix64(seed)
    assert rng._state == seed % 2 ** 64
    for op, (state, v) in zip(ops, splitmix64(seed, len(ops))):
        got, expected = draw(rng, op)
        assert got == expected(v), op
        assert rng._state == state


@given(SEEDS, st.lists(st.integers(0, 150), min_size=1, max_size=4))
def test_a_generator_resumes_from_its_state_inside_a_batch(seed, cuts):
    reference = [v for _, v in splitmix64(seed, sum(cuts) + 70)]
    rng, done = SplitMix64(seed), 0
    for cut in cuts:
        assert [rng.next_u64() for _ in range(cut)] == reference[done:done + cut]
        done += cut
        resumed = SplitMix64(rng._state)
        assert resumed._state == rng._state
        # the copy and the original both go on with the same values, past
        # the end of the original's current batch
        ahead = [resumed.next_u64() for _ in range(65)]
        assert ahead == reference[done:done + 65]
    assert [rng.next_u64() for _ in range(65)] == reference[done:done + 65]


def test_known_answers():
    # computed with the scalar generator; SplitMix64(0)'s first output is
    # the published reference value 0xE220A8397B1DCDAF
    firsts = {
        0: [0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4, 0x06C45D188009454F],
        1: [0x910A2DEC89025CC1, 0xBEEB8DA1658EEC67, 0xF893A2EEFB32555E],
        2 ** 64 - 1: [0xE4D971771B652C20, 0xE99FF867DBF682C9, 0x382FF84CB27281E9],
    }
    for seed, values in firsts.items():
        rng = SplitMix64(seed)
        assert [rng.next_u64() for _ in range(3)] == values
        assert [v for _, v in splitmix64(seed, 3)] == values
    assert derive_seed(0, "Qp(3)", "cocycle_identity") == 0x8BE05C643220E5A4


def test_each_draw_is_one_next_u64_call(monkeypatch):
    # perfbench/layers.py wraps these four names from the class __dict__
    # and counts draws as next_u64 calls
    assert {"next_u64", "randint", "chance", "choice"} <= set(SplitMix64.__dict__)
    calls = [0]
    next_u64 = SplitMix64.__dict__["next_u64"]

    def counting(self):
        calls[0] += 1
        return next_u64(self)

    monkeypatch.setattr(SplitMix64, "next_u64", counting)
    rng = SplitMix64(7)
    reference = iter(splitmix64(7, 3 * 150))
    for call, expected in (
        (lambda: rng.randint(3, 9), lambda v: 3 + v % 7),
        (lambda: rng.chance(2, 5), lambda v: v % 5 < 2),
        (lambda: rng.choice("abc"), lambda v: "abc"[v % 3]),
    ):
        # 150 draws each, so every method runs across a batch boundary
        for _ in range(150):
            before = calls[0]
            assert call() == expected(next(reference)[1])
            assert calls[0] == before + 1
