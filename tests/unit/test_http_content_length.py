"""``Content-Length`` handling of the HTTP front end, without a socket.

POST bodies and artifact PUTs read their declared length through one
helper, ``BenchmarkRequestHandler._content_length``.  The headers below
are parsed as the server parses them (``http.client.parse_headers``,
latin-1), so every case is a header a client can really send.  A
refusal must come back before any body byte is read.
"""

from __future__ import annotations

import http.client
import io

import pytest

from repro.service.httpd import BenchmarkRequestHandler

LIMIT = 100


class _Unread:
    """An ``rfile`` that fails the test if the body is touched."""

    def read(self, *args):
        raise AssertionError("the body was read")

    readline = read


class _Handler(BenchmarkRequestHandler):
    """The request handler with its headers parsed, and nothing else."""

    def __init__(self, content_length):  # no socket, no server
        block = b""
        if content_length is not None:
            block = b"Content-Length: " + content_length + b"\r\n"
        self.headers = http.client.parse_headers(io.BytesIO(block + b"\r\n"))
        self.rfile = _Unread()
        self.replies = []

    def _reply(self, status, doc):
        self.replies.append((status, doc))


@pytest.mark.parametrize("header, length", [
    (None, 0),
    (b"", 0),
    (b"0", 0),
    (b"17", 17),
    (b"007", 7),
    (str(LIMIT).encode(), LIMIT),
], ids=["absent", "empty", "zero", "plain", "leading-zeros", "at-limit"])
def test_accepted_lengths(header, length):
    handler = _Handler(header)
    assert handler._content_length(LIMIT) == length
    assert handler.replies == []


@pytest.mark.parametrize("header, status", [
    (str(LIMIT + 1).encode(), 413),
    (b"9" * 30, 413),
    (b"-1", 400),
    (b"abc", 400),
    (b"1.5", 400),
    (b"+5", 400),
    (b"1e3", 400),
    (b"0x10", 400),
    (b"5, 5", 400),
    # Latin-1 superscript two: str.isdigit() is true, int() raises.
    (b"\xb2", 400),
], ids=["over-limit", "huge", "negative", "word", "fraction", "signed",
        "exponent", "hex", "list", "superscript"])
def test_refused_lengths(header, status):
    handler = _Handler(header)
    assert handler._content_length(LIMIT) is None
    [(replied, doc)] = handler.replies
    assert replied == status
    expected = "exceeds the 100-byte limit" if status == 413 else "Content-Length"
    assert expected in doc["error"]
