import numpy as np
import pytest

from fpnreg.rng import substream, substreams

SEEDS = [0, 1, 2**63, 2**64 - 1, -5]


def _draws(gen: np.random.Generator) -> list:
    """One of each kind of draw the trial loops make."""
    return [
        gen.integers(0, 1000, size=3, dtype=np.int32),
        gen.random(5),
        gen.choice(50, size=7, replace=False),
        gen.choice(50, size=7),
        gen.integers(0, 2**62, size=3),
        gen.uniform(-1, 1, size=2),
    ]


def _same(a: list, b: list) -> bool:
    return all(np.array_equal(x, y) for x, y in zip(a, b, strict=True))


@pytest.mark.parametrize("seed", SEEDS)
def test_substreams_draw_as_fresh_substreams(seed):
    for t, gen in enumerate(substreams(seed, 5)):
        assert _same(_draws(gen), _draws(substream(seed, t)))
    assert t == 4


@pytest.mark.parametrize("seed", SEEDS)
def test_a_trial_cut_short_leaks_nothing_into_the_next(seed):
    # each trial stops inside a 64-bit word, with one 32-bit half cached
    # by the int32 draw, and inside Philox's four-word buffer
    for t, gen in enumerate(substreams(seed, 4)):
        assert _same(_draws(gen), _draws(substream(seed, t)))
        if gen.bit_generator.state["buffer_pos"] == 4:
            gen.random()
        state = gen.bit_generator.state
        assert state["has_uint32"] == 1 and state["buffer_pos"] < 4


def test_no_substreams_for_zero_trials():
    assert list(substreams(3, 0)) == []
