"""Property tests for :func:`repro.graphs.graph.lex_order` and the weight rank.

``lex_order(keys)`` must return exactly ``np.lexsort(keys[::-1])`` — the
same permutation, ties in input order — whether it takes the packed-int64
path or falls back to ``np.lexsort`` (float keys, uint64 keys, or a span
product of at least ``2**63``).
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.graphs.graph import _weight_rank, lex_order

INT_DTYPES = [np.int8, np.int16, np.int32, np.int64, np.uint8, np.uint16, np.uint32, bool]


@st.composite
def int_keys(draw, max_len=60):
    """1-4 integer/bool keys of one length, narrow value ranges so ties are
    common and negative values appear."""
    n = draw(st.integers(0, max_len))
    keys = []
    for _ in range(draw(st.integers(1, 4))):
        dtype = draw(st.sampled_from(INT_DTYPES))
        if dtype is bool:
            vals = draw(st.lists(st.booleans(), min_size=n, max_size=n))
        else:
            info = np.iinfo(dtype)
            lo = max(int(info.min), -6)
            vals = draw(st.lists(st.integers(lo, lo + 8), min_size=n, max_size=n))
        keys.append(np.array(vals, dtype=dtype))
    return keys


def _assert_lexsort_equal(keys):
    got = lex_order(keys)
    want = np.lexsort(keys[::-1])
    assert got.dtype == want.dtype
    np.testing.assert_array_equal(got, want)


@settings(max_examples=200, deadline=None)
@given(int_keys())
def test_integer_keys_match_lexsort(keys):
    _assert_lexsort_equal(keys)


@settings(max_examples=50, deadline=None)
@given(int_keys(), st.lists(st.floats(-3, 3, allow_nan=False), min_size=60, max_size=60))
def test_float_key_falls_back_to_lexsort(keys, floats):
    w = np.round(np.array(floats[: keys[0].size]), 1)  # rounding forces ties
    _assert_lexsort_equal(keys[:1] + [w] + keys[1:])


@settings(max_examples=50, deadline=None)
@given(st.lists(st.integers(-(2**62), 2**62), min_size=1, max_size=40), st.data())
def test_span_product_at_least_2_63_falls_back(big, data):
    big = np.array(big + [-(2**62), 2**62], dtype=np.int64)
    small = np.array(
        data.draw(st.lists(st.integers(0, 3), min_size=big.size, max_size=big.size)),
        dtype=np.int32,
    )
    # (2**63 + 1) * 4 overflows int64: this must take the lexsort path.
    _assert_lexsort_equal([small, big])
    _assert_lexsort_equal([big, small])


def test_empty_input():
    for keys in ([np.zeros(0, np.int64)], [np.zeros(0, np.int32), np.zeros(0, bool)], [np.zeros(0)]):
        _assert_lexsort_equal(keys)


def test_ties_keep_input_order():
    keys = [np.array([1, 0, 1, 0, 1], dtype=np.int32), np.array([True, True, True, False, True])]
    np.testing.assert_array_equal(lex_order(keys), [3, 1, 0, 2, 4])


def test_uint64_key_falls_back():
    keys = [np.array([2**64 - 1, 0, 2**63, 5], dtype=np.uint64), np.array([0, 1, 0, 1])]
    _assert_lexsort_equal(keys)


def test_extreme_int64_values_within_span():
    keys = [np.array([2**63 - 1, 2**63 - 3, 2**63 - 2, 2**63 - 3], dtype=np.int64)]
    _assert_lexsort_equal(keys)
    keys = [np.array([-(2**63), -(2**63) + 2, -(2**63) + 1], dtype=np.int64)]
    _assert_lexsort_equal(keys)


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_weight_rank_orders_like_w_then_eid(data):
    n = data.draw(st.integers(0, 50))
    w = np.array(data.draw(st.lists(st.sampled_from([0.5, 1.0, 2.0, 3.5]), min_size=n, max_size=n)))
    eid = np.array(data.draw(st.permutations(range(3 * n)))[:n], dtype=np.int64)
    tail = np.array(data.draw(st.lists(st.integers(0, 4), min_size=n, max_size=n)), dtype=np.int64)
    rank = _weight_rank(w, eid)
    assert rank.dtype == np.int64
    np.testing.assert_array_equal(np.sort(rank), np.arange(n))
    np.testing.assert_array_equal(lex_order([tail, rank]), np.lexsort((eid, w, tail)))
