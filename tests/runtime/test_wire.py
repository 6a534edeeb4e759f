"""Request framing in the shared HTTP core.

Bodies are framed by ``Content-Length`` alone.  A body the reader
cannot frame safely — longer than ``max_body``, a ``Content-Length``
that is not plain digits or disagrees with another, any
``Transfer-Encoding`` — must be refused with its error status and the
connection closed, so that body bytes are never parsed as a second
request on the same connection (request smuggling).

The same core holds the numeric boundary rule both services share: a
number read from a request must be finite, and no response body carries
a ``NaN`` or ``Infinity`` token.
"""

import asyncio
import math
import socket

import pytest

from repro.runtime.wire import (
    HttpService,
    Response,
    as_float,
    as_seconds,
    json_bytes,
    read_request,
)

SMUGGLED = b"GET /smuggled HTTP/1.1\r\n\r\n"
HEAD = b"POST /complete HTTP/1.1\r\n"
#: A chunked body whose one chunk (0x1a = 26 bytes) is the smuggled request.
CHUNKED_BODY = b"1a\r\n" + SMUGGLED + b"\r\n0\r\n\r\n"


def _read_all(stream: bytes, max_body: int) -> list:
    """Every ``read_request`` result on ``stream`` until it returns None."""

    async def main():
        reader = asyncio.StreamReader()
        reader.feed_data(stream)
        reader.feed_eof()
        requests = []
        while (request := await read_request(reader, 1.0, max_body=max_body)) is not None:
            requests.append(request)
            if not request.keep_alive:
                break
        return requests

    return asyncio.run(main())


@pytest.mark.parametrize(
    "headers, body, status",
    [
        # Declared body longer than max_body=8.
        (b"Content-Length: 34", b"x" * 8 + SMUGGLED, 413),
        # A sign is not a digit: the 26 bytes after the head are its body.
        (b"Content-Length: +26", SMUGGLED, 400),
        # Chunked framing disagrees with Content-Length on where the body ends.
        (b"Content-Length: 4\r\nTransfer-Encoding: chunked", CHUNKED_BODY, 501),
        # Two lengths: whichever the reader picks, a peer may pick the other.
        (b"Content-Length: 0\r\nContent-Length: 26", SMUGGLED, 400),
    ],
    ids=["oversized", "signed-length", "transfer-encoding", "conflicting-lengths"],
)
def test_unframeable_body_is_refused_not_parsed_as_a_request(headers, body, status):
    (request,) = _read_all(HEAD + headers + b"\r\n\r\n" + body, max_body=8)
    assert (request.method, request.target) == ("POST", "/complete")
    assert request.error is not None and request.error[0] == status
    assert request.body == b"" and not request.keep_alive


def test_well_framed_requests_keep_the_connection():
    stream = HEAD + b"Content-Length: 4\r\n\r\nbody" + SMUGGLED
    first, second = _read_all(stream, max_body=8)
    assert (first.body, first.error, first.keep_alive) == (b"body", None, True)
    assert (second.method, second.target, second.error) == ("GET", "/smuggled", None)


class _RecordingService(HttpService):
    """Answers 200 to everything and records what it was asked."""

    def __init__(self):
        super().__init__(("127.0.0.1", 0), server_name="wire-test", quiet=True, max_body=8)
        self.dispatched = []

    async def handle(self, request):
        self.dispatched.append((request.method, request.target, request.body))
        return Response(200, json_bytes({"ok": True}))


def test_live_service_answers_413_and_closes_without_dispatching():
    service = _RecordingService()
    thread = service.start_in_thread()
    try:
        with socket.create_connection(service.server_address, timeout=10) as sock:
            sock.sendall(HEAD + b"Content-Length: 4\r\n\r\nbody")
            sock.sendall(HEAD + b"Content-Length: 34\r\n\r\n" + b"x" * 8 + SMUGGLED)
            received = b""
            while chunk := sock.recv(65536):
                received += chunk
    finally:
        service.shutdown()
        thread.join(timeout=10)
    assert not thread.is_alive()
    assert received.count(b"HTTP/1.1 ") == 2
    ok, refused = received.split(b"HTTP/1.1 ")[1:]
    assert ok.startswith(b"200 OK") and b"Connection: keep-alive" in ok
    assert refused.startswith(b"413 Content Too Large") and b"Connection: close" in refused
    assert service.dispatched == [("POST", "/complete", b"body")]
    assert service.counters["requests_total"] == 2


@pytest.mark.parametrize("value", ["nan", "inf", "-Infinity", "1e400", math.nan, math.inf])
def test_as_float_refuses_non_finite_numbers(value):
    with pytest.raises(ValueError, match="'v_mv' must be a finite number"):
        as_float(value, "v_mv")


def test_as_float_passes_finite_numbers_and_absence():
    assert as_float("850.5", "v_mv") == 850.5
    assert as_float(0.1, "wall_s") == 0.1
    assert as_float(None, "v_mv") is None


def test_as_float_refuses_an_int_too_large_for_a_float():
    with pytest.raises(ValueError, match="'wall_s' must be a finite number"):
        as_float(10**400, "wall_s")


@pytest.mark.parametrize(
    "value", ["soon", None, [], {}, "nan", "inf", math.nan, -math.inf, 10**400]
)
def test_as_seconds_is_none_for_anything_but_a_finite_number(value):
    """The worker's side of the same rule: no exception, just absence."""
    assert as_seconds(value) is None


@pytest.mark.parametrize(
    "value, seconds", [("2.5", 2.5), (3, 3.0), (0.25, 0.25), ("-4", 0.0), (-0.5, 0.0)]
)
def test_as_seconds_passes_finite_durations_clamped_at_zero(value, seconds):
    assert as_seconds(value) == seconds


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_json_bytes_refuses_non_finite_numbers(value):
    """Strict JSON out: no ``NaN``/``Infinity`` token ever reaches a body."""
    with pytest.raises(ValueError):
        json_bytes({"distance_mv": value})
