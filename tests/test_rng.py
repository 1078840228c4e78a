import numpy as np
import pytest

from jghm import clip_risk, exact_score
from jghm.presets import reference_model
from jghm.rng import stream, stream_key


def test_same_key_same_stream():
    a = stream(7, "x", 1).standard_normal(5)
    b = stream(7, "x", 1).standard_normal(5)
    assert np.array_equal(a, b)


def test_distinct_keys_distinct_streams():
    assert stream_key(7, "x", 1) != stream_key(7, "x", 2)
    assert stream_key(7, "x") != stream_key(8, "x")
    # length-prefixed encoding: no concatenation collisions
    assert stream_key(0, "ab", "c") != stream_key(0, "a", "bc")
    assert stream_key(0, "a", 1) != stream_key(0, "a1")


def test_order_independent_of_creation():
    first = stream(3, "a").standard_normal(3)
    _ = stream(3, "b").standard_normal(100)
    again = stream(3, "a").standard_normal(3)
    assert np.array_equal(first, again)


def test_rejects_unhashable_part():
    with pytest.raises(TypeError):
        stream_key(0, 1.5)


@pytest.mark.parametrize("args, error, match", [
    ((1.7,), TypeError, "stream seed must be an integer"),
    ((True,), TypeError, "stream seed must be an integer"),
    (("3",), TypeError, "stream seed must be an integer"),
    ((0, True), TypeError, "stream key part must be a string or an integer"),
    ((0, "a", 2.0), TypeError, "stream key part must be a string or an integer"),
    ((2**127,), ValueError, r"stream seed must lie in \[-2\*\*127, 2\*\*127\)"),
    ((-2**200,), ValueError, r"stream seed must lie in"),
    ((0, 2**127), ValueError, r"stream key part must lie in"),
])
def test_seed_and_parts_must_be_integers_in_range(args, error, match):
    with pytest.raises(error, match=match):
        stream_key(*args)


def test_numpy_integers_key_like_ints():
    assert stream_key(np.int64(3), "a", np.uint8(2)) == stream_key(3, "a", 2)
    assert stream_key(-2**127, 2**127 - 1) != stream_key(-2**127, -1)


def test_float_seed_reaches_no_estimate():
    """A float seed used to key seed 1's streams while the report said 1.9."""
    model = reference_model()
    with pytest.raises(TypeError, match="stream seed must be an integer, got 1.9"):
        clip_risk(model, exact_score(model), 4, 50, seed=1.9)
