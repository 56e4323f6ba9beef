import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mvgen.numerics import ContractError
from mvgen.rng import first_uniforms, rng_for

SIGNED_128 = st.integers(-2**127, 2**127 - 1)
KEY_PARTS = st.lists(st.one_of(SIGNED_128, st.text(max_size=6)), max_size=4).map(tuple)


@settings(max_examples=60, deadline=None)
@given(prefix=KEY_PARTS, start=st.integers(-2**127, 2**127 - 1 - 700),
       count=st.sampled_from([0, 1, 2, 3, 16, 255, 680]))
@example(prefix=(-1, "draw", 0), start=0, count=680)
@example(prefix=(2**40, "draw", 9), start=5, count=300)
@example(prefix=(), start=-2**127, count=1)
@example(prefix=(7,), start=0, count=0)
def test_first_uniforms_equal_the_per_position_generators(prefix, start, count):
    positions = range(start, start + count)
    [u] = first_uniforms([(prefix, positions)])
    assert u.dtype == np.float64 and u.shape == (count,)
    assert np.array_equal(u, [rng_for(*prefix, p).random() for p in positions])


@settings(max_examples=30, deadline=None)
@given(prefix=KEY_PARTS, positions=st.lists(SIGNED_128, max_size=40))
def test_first_uniforms_take_any_positions(prefix, positions):
    [u] = first_uniforms([(prefix, positions)])
    assert np.array_equal(u, [rng_for(*prefix, p).random() for p in positions])


@settings(max_examples=30, deadline=None)
@given(groups=st.lists(st.tuples(KEY_PARTS, st.lists(SIGNED_128, max_size=20)), max_size=6))
def test_first_uniforms_give_each_group_its_own_generators(groups):
    """Groups of keys share one Philox pass; each gets back its own array."""
    got = first_uniforms(groups)
    assert len(got) == len(groups)
    for u, (prefix, positions) in zip(got, groups):
        assert u.dtype == np.float64 and u.shape == (len(positions),)
        assert np.array_equal(u, [rng_for(*prefix, p).random() for p in positions])


@pytest.mark.parametrize("prefix,positions", [((1.5,), [0]), ((1, None), [0]), ((1,), [0.5])])
def test_bad_key_part_is_type_error(prefix, positions):
    with pytest.raises(TypeError, match="rng key parts must be int or str"):
        first_uniforms([(prefix, positions)])
    with pytest.raises(TypeError, match="rng key parts must be int or str"):
        rng_for(*prefix, *positions)


@pytest.mark.parametrize("prefix,positions", [((2**127,), [0]), ((1,), [-2**127 - 1])])
def test_key_part_outside_signed_128_bits_is_contract_error(prefix, positions):
    for draw in (lambda: first_uniforms([(prefix, positions)]),
                 lambda: rng_for(*prefix, *positions)):
        with pytest.raises(ContractError, match="lies outside the signed 128-bit range"):
            draw()
