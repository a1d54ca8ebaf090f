"""Unit tests for the TSV edge format."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.edgeio.format as fmt
from repro.edgeio.errors import CorruptEdgeFileError
from repro.edgeio.format import (
    _decode_edges_fast,
    _decode_edges_split,
    _encode_edges_strings,
    decode_edges,
    encode_edges,
    parse_edge_line,
)


class TestEncode:
    def test_basic_layout(self):
        payload = encode_edges(np.array([0, 2]), np.array([1, 0]))
        assert payload == b"0\t1\n2\t0\n"

    def test_empty(self):
        assert encode_edges(np.array([], dtype=np.int64),
                            np.array([], dtype=np.int64)) == b""

    def test_vertex_base_one(self):
        payload = encode_edges(np.array([0]), np.array([1]), vertex_base=1)
        assert payload == b"1\t2\n"

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            encode_edges(np.array([1]), np.array([1, 2]))

    def test_large_labels(self):
        big = np.array([2**40], dtype=np.int64)
        payload = encode_edges(big, big)
        assert payload == f"{2**40}\t{2**40}\n".encode()


class TestDecode:
    def test_round_trip(self):
        u = np.array([5, 0, 63, 17], dtype=np.int64)
        v = np.array([2, 61, 0, 17], dtype=np.int64)
        ru, rv = decode_edges(encode_edges(u, v))
        assert np.array_equal(u, ru) and np.array_equal(v, rv)

    def test_round_trip_with_base(self):
        u = np.array([0, 3], dtype=np.int64)
        v = np.array([1, 2], dtype=np.int64)
        payload = encode_edges(u, v, vertex_base=1)
        ru, rv = decode_edges(payload, vertex_base=1)
        assert np.array_equal(u, ru) and np.array_equal(v, rv)

    def test_empty_and_whitespace_only(self):
        for payload in (b"", b"\n\n", b"  \n"):
            u, v = decode_edges(payload)
            assert len(u) == 0 and len(v) == 0

    def test_odd_token_count_raises(self):
        with pytest.raises(CorruptEdgeFileError, match="odd number"):
            decode_edges(b"1\t2\n3\n")

    def test_non_integer_raises(self):
        with pytest.raises(CorruptEdgeFileError, match="non-integer"):
            decode_edges(b"1\tabc\n")

    def test_strict_reports_line_number(self):
        with pytest.raises(CorruptEdgeFileError, match="line 2"):
            decode_edges(b"1\t2\nbroken\n", strict=True)

    def test_strict_skips_blank_lines(self):
        u, v = decode_edges(b"1\t2\n\n3\t4\n", strict=True)
        assert np.array_equal(u, [1, 3])

    def test_strict_and_fast_agree(self):
        payload = b"10\t20\n30\t40\n50\t60\n"
        fast = decode_edges(payload)
        strict = decode_edges(payload, strict=True)
        assert np.array_equal(fast[0], strict[0])
        assert np.array_equal(fast[1], strict[1])


class TestVectorizedEncodeParity:
    """The fast path must be byte-identical to the string-kernel path."""

    @pytest.mark.parametrize("hi", [1, 2, 10, 11, 101, 2**16, 2**40, 2**62])
    def test_random_arrays_byte_identical(self, hi):
        rng = np.random.default_rng(hi)
        u = rng.integers(0, hi, 257, dtype=np.int64)
        v = rng.integers(0, hi, 257, dtype=np.int64)
        assert encode_edges(u, v) == _encode_edges_strings(u, v)

    @pytest.mark.parametrize("value", [0, 9, 10, 99, 100, 999, 1000,
                                       10**9 - 1, 10**9, 2**62])
    def test_digit_count_boundaries(self, value):
        arr = np.array([value], dtype=np.int64)
        assert encode_edges(arr, arr) == f"{value}\t{value}\n".encode()

    def test_mixed_widths_one_payload(self):
        u = np.array([0, 10, 999, 2**40], dtype=np.int64)
        v = np.array([7, 100, 9, 1], dtype=np.int64)
        assert encode_edges(u, v) == b"0\t7\n10\t100\n999\t9\n1099511627776\t1\n"

    def test_negative_labels_fall_back_to_string_path(self):
        u = np.array([-3, 5], dtype=np.int64)
        v = np.array([2, -1], dtype=np.int64)
        assert encode_edges(u, v) == b"-3\t2\n5\t-1\n"

    @settings(max_examples=50)
    @given(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=2**62),
                st.integers(min_value=0, max_value=2**62),
            ),
            min_size=1, max_size=64,
        ),
        st.integers(min_value=0, max_value=1),
    )
    def test_property_round_trip_and_parity(self, edges, base):
        u = np.array([e[0] for e in edges], dtype=np.int64)
        v = np.array([e[1] for e in edges], dtype=np.int64)
        payload = encode_edges(u, v, vertex_base=base)
        assert payload == _encode_edges_strings(u + base, v + base)
        ru, rv = decode_edges(payload, vertex_base=base)
        assert np.array_equal(ru, u) and np.array_equal(rv, v)


class TestBufferLevelDecode:
    """The frombuffer tokenizer must agree with ``payload.split()``."""

    @pytest.mark.parametrize("payload", [
        b"1 2\n3 4",            # space-separated
        b"1\t2\r\n3\t4\r\n",    # CRLF
        b"  5\t6\n",            # leading whitespace
        b"7\x0b8",              # vertical tab (split() treats it as ws)
        b"9\x0c10\n",           # form feed
        b"1\t2\n\n\n3\t4\n",    # blank lines
    ])
    def test_whitespace_variants_match_split(self, payload):
        fast = _decode_edges_fast(payload)
        legacy = _decode_edges_split(payload)
        assert fast is not None
        assert np.array_equal(fast[0], legacy[0])
        assert np.array_equal(fast[1], legacy[1])

    def test_signed_labels_defer_to_split_path(self):
        assert _decode_edges_fast(b"-5\t3\n") is None
        u, v = decode_edges(b"-5\t3\n")
        assert u[0] == -5 and v[0] == 3

    def test_plus_prefix_defers_to_split_path(self):
        assert _decode_edges_fast(b"+5\t3\n") is None
        u, v = decode_edges(b"+5\t3\n")
        assert u[0] == 5 and v[0] == 3

    def test_long_tokens_defer_to_split_path(self):
        # 19 digits can overflow the vectorized accumulate; int64 still
        # holds 2**62, so the split path must produce the value.
        big = 2**62
        payload = f"{big}\t{big}\n".encode()
        assert _decode_edges_fast(payload) is None
        u, v = decode_edges(payload)
        assert u[0] == big and v[0] == big

    def test_overflowing_token_is_corruption(self):
        with pytest.raises(CorruptEdgeFileError, match="non-integer"):
            decode_edges(b"99999999999999999999\t1\n")

    def test_odd_token_count_message_matches_legacy(self):
        with pytest.raises(CorruptEdgeFileError,
                           match=r"odd number of tokens \(3\)"):
            decode_edges(b"1\t2\n3\n")

    def test_no_python_token_list_on_fast_path(self, monkeypatch):
        # The satellite fix: warm decode must not materialise an
        # O(edges) Python list.  Trip the legacy tokenizer to prove the
        # fast path never reaches it for clean payloads.
        import repro.edgeio.format as fmt

        def boom(payload):
            raise AssertionError("legacy split path used on clean payload")

        monkeypatch.setattr(fmt, "_decode_edges_split", boom)
        u, v = decode_edges(b"12\t34\n56\t78\n")
        assert u.tolist() == [12, 56] and v.tolist() == [34, 78]


def _assert_codec_parity(u, v, *, vertex_base=0):
    """Fast encode == string kernels, fast decode == split tokenizer."""
    u = np.asarray(u, dtype=np.int64)
    v = np.asarray(v, dtype=np.int64)
    payload = encode_edges(u, v, vertex_base=vertex_base)
    assert payload == _encode_edges_strings(u + vertex_base, v + vertex_base)
    _assert_decode_parity(payload)
    ru, rv = decode_edges(payload, vertex_base=vertex_base)
    assert np.array_equal(ru, u) and np.array_equal(rv, v)


def _assert_decode_parity(payload, *, fast_declines=False):
    legacy = _decode_edges_split(payload)
    fast = _decode_edges_fast(payload)
    if fast_declines:
        assert fast is None
        fast = decode_edges(payload)
    for got, want in zip(fast, legacy):
        assert got.dtype == np.int64 and got.flags.c_contiguous
        assert np.array_equal(got, want)


class TestDenseCodecEdges:
    """Width, dtype and block boundaries of the dense fast paths."""

    @pytest.mark.parametrize("power", range(1, 19))
    def test_every_width_boundary(self, power):
        below, at = 10**power - 1, 10**power
        _assert_codec_parity([below, 0, below], [0, below, below])
        # 10**18 is the first 19-digit label: encode still takes the
        # fast path, decode hands the payload to the split tokenizer.
        payload = encode_edges(np.array([at, 1]), np.array([below, at]))
        assert payload == f"{at}\t{below}\n1\t{at}\n".encode()
        _assert_decode_parity(payload, fast_declines=power == 18)

    def test_all_widths_in_one_payload(self):
        labels = [0] + [10**k - 1 for k in range(1, 19)] + [10**k for k in range(1, 18)]
        _assert_codec_parity(labels, labels[::-1])

    @pytest.mark.parametrize("top", [2**32 - 1, 2**32])
    def test_uint32_uint64_division_switch(self, top):
        _assert_codec_parity([top, 7, top - 1], [3, top, 0])
        _assert_codec_parity([5, 7], [top, 0])  # only v is wide

    @pytest.mark.parametrize("top", [10**9 - 1, 10**9])
    def test_int32_int64_accumulator_switch(self, top):
        _assert_codec_parity([top, 1, 42], [0, top, top])
        _assert_codec_parity([top, top], [1, 2])  # only u is wide

    @pytest.mark.parametrize("base", [0, 1])
    @pytest.mark.parametrize("extra", [-1, 0, 1])
    def test_shard_at_the_internal_block_size(self, base, extra):
        # One-digit labels: 4 bytes a line, so this many lines fill a
        # block to the byte.
        lines = fmt._BLOCK_BYTES // 4 + extra
        u = np.arange(lines, dtype=np.int64) % (9 - base)
        v = (u * 7 + 3) % (9 - base)
        assert len(encode_edges(u, v, vertex_base=base)) == 4 * lines
        _assert_codec_parity(u, v, vertex_base=base)

    @pytest.mark.parametrize("block", [11, 12, 33, 64, 100])
    def test_small_blocks_cut_anywhere(self, monkeypatch, block):
        # Lines are at most 6 + 1 + 3 + 1 = 11 bytes: from one line a
        # block upwards, with cuts landing on every residue.
        monkeypatch.setattr(fmt, "_BLOCK_BYTES", block)
        rng = np.random.default_rng(block)
        u = rng.integers(0, 10**6 - 1, 200, dtype=np.int64)
        v = rng.integers(0, 10**3 - 1, 200, dtype=np.int64)
        _assert_codec_parity(u, v)
        _assert_codec_parity(u, v, vertex_base=1)

    def test_blocks_that_start_mid_pair(self, monkeypatch):
        # Tokens pair up across lines, so a cut after a newline can
        # fall between the two labels of one edge.
        monkeypatch.setattr(fmt, "_BLOCK_BYTES", 8)
        payload = b"1\n2 3\n4\n5\n6 7 8\n9 10\n11\n12\n" * 5
        _assert_decode_parity(payload)
        with pytest.raises(CorruptEdgeFileError,
                           match=r"odd number of tokens \(11\)"):
            decode_edges(b"1\n2 3\n" * 3 + b"4 5\n")

    def test_block_without_a_newline_takes_the_rest(self, monkeypatch):
        monkeypatch.setattr(fmt, "_BLOCK_BYTES", 8)
        _assert_decode_parity(b"10 11 12 13 14 15 16 17 18 19 20 21")
        _assert_decode_parity(b"1 2\n" + b"3 4 5 6 7 8 9 10 11 12")

    def test_bad_byte_in_a_later_block_defers(self, monkeypatch):
        monkeypatch.setattr(fmt, "_BLOCK_BYTES", 8)
        payload = b"1\t2\n" * 6 + b"-3\t4\n"
        assert _decode_edges_fast(payload) is None
        u, v = decode_edges(payload)
        assert u[-1] == -3 and v[-1] == 4

    def test_single_edge_and_empty(self):
        _assert_codec_parity([0], [0])
        _assert_codec_parity([12345], [6])
        assert encode_edges(np.array([], dtype=np.int64),
                            np.array([], dtype=np.int64),
                            vertex_base=1) == b""

    @pytest.mark.parametrize("payload", [
        b"12\t345",                      # one edge, no terminator
        b"1\t2\n3\t4",                   # last line unterminated
        b"1\t2\r\n30\t4\r\n",           # CRLF
        b"1\t2\r\n30\t4\r",              # CRLF, cut before the LF
        b"   1    2   \n\n\n  3 \t 4",   # runs of spaces, blank lines
        b"\n\n7\t8\n\n",                 # blank lines around
        b"1 2 3 4\n",                     # two edges on one line
        b"123456789\t1000000000\n5\t6",   # 9- and 10-digit tokens
        b"000\t007\n",                   # zero-padded labels
    ])
    def test_separator_layouts_match_split(self, payload):
        _assert_decode_parity(payload)

    def test_too_long_token_after_clean_ones_defers(self):
        payload = b"1\t2\n" + b"1" * 19 + b"\t3\n"
        _assert_decode_parity(payload, fast_declines=True)

    def test_vertex_base_one_mixed_widths(self):
        _assert_codec_parity([0, 8, 9, 98, 99, 2**32 - 2],
                             [9, 0, 99, 9, 999, 2**32 - 1], vertex_base=1)


class TestParseEdgeLine:
    def test_valid(self):
        assert parse_edge_line(b"12\t34") == (12, 34)

    def test_wrong_field_count(self):
        with pytest.raises(CorruptEdgeFileError, match="expected 2 fields"):
            parse_edge_line(b"1\t2\t3", lineno=7)

    def test_non_integer(self):
        with pytest.raises(CorruptEdgeFileError, match="non-integer"):
            parse_edge_line(b"x\ty")
