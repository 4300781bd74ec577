"""Wire protocol tests: framing, versioning, malformed input."""

import asyncio
import json
import struct

import pytest

from repro.fleet.protocol import (
    MAX_MESSAGE_BYTES,
    PROTOCOL_VERSION,
    ProtocolError,
    decode_payload,
    encode_message,
    extract_fingerprint,
    fetch_message,
    publish_message,
    read_message,
)


def frame_payload(raw: bytes) -> bytes:
    return struct.pack(">I", len(raw)) + raw


def test_roundtrip():
    message = publish_message("ab" * 16, [["main", 3, "helper", 2.0]], run_id="r1")
    framed = encode_message(message)
    length = struct.unpack(">I", framed[:4])[0]
    assert length == len(framed) - 4
    assert decode_payload(framed[4:]) == message


def test_messages_carry_version_and_type():
    for message in (
        publish_message("ff" * 16, [], run_id="r"),
        fetch_message("ff" * 16),
    ):
        assert message["v"] == PROTOCOL_VERSION
        assert isinstance(message["type"], str)


def test_extract_fingerprint_without_full_parse():
    fp = "ab" * 32
    payload = encode_message(publish_message(fp, [["m", 0, "f", 1.0]], "r1"))[4:]
    assert extract_fingerprint(payload) == fp
    # A fingerprint-free frame yields None; junk yields None.
    assert extract_fingerprint(encode_message({"v": PROTOCOL_VERSION, "type": "stats"})[4:]) is None
    assert extract_fingerprint(b"\xff\xfenot json") is None
    # A quote-bearing string value before the key cannot fool the scan:
    # quotes inside JSON strings are always escaped, forcing fallback.
    tricky = json.dumps(
        {"note": 'fake \\"fingerprint\\":\\"00\\" here', "fingerprint": fp}
    ).encode()
    assert extract_fingerprint(tricky) == fp


def test_decode_rejects_garbage():
    with pytest.raises(ProtocolError, match="undecodable"):
        decode_payload(b"\xff\xfe not json")


def test_decode_rejects_non_object():
    with pytest.raises(ProtocolError, match="not a JSON object"):
        decode_payload(b"[1, 2]")


def test_decode_rejects_wrong_version():
    payload = json.dumps({"v": 999, "type": "publish"}).encode()
    with pytest.raises(ProtocolError, match="version"):
        decode_payload(payload)


def test_decode_rejects_missing_type():
    payload = json.dumps({"v": PROTOCOL_VERSION}).encode()
    with pytest.raises(ProtocolError, match="no type"):
        decode_payload(payload)


def test_encode_rejects_oversized():
    huge = publish_message(
        "ab" * 16, [["x" * 64, 0, "y" * 64, 1.0]] * 70000, run_id="r"
    )
    with pytest.raises(ProtocolError, match="too large"):
        encode_message(huge)


def _read_from_bytes(data: bytes):
    async def go():
        reader = asyncio.StreamReader()
        reader.feed_data(data)
        reader.feed_eof()
        return await read_message(reader)

    return asyncio.run(go())


def test_async_read_roundtrip():
    message = fetch_message("cd" * 16)
    assert _read_from_bytes(encode_message(message)) == message


def test_async_read_clean_eof_returns_none():
    assert _read_from_bytes(b"") is None


def test_async_read_truncated_header_raises():
    with pytest.raises(ProtocolError, match="mid-header"):
        _read_from_bytes(b"\x00\x00")


def test_async_read_truncated_frame_raises():
    # Header promises 100 bytes; only 10 arrive before EOF.
    with pytest.raises(ProtocolError, match="mid-frame"):
        _read_from_bytes(struct.pack(">I", 100) + b"0123456789")


def test_async_read_oversized_frame_raises():
    with pytest.raises(ProtocolError, match="too large"):
        _read_from_bytes(struct.pack(">I", MAX_MESSAGE_BYTES + 1))


#: 100 000 nested arrays: 200 KB, far under the frame limit, and deeper
#: than the JSON parser can recurse.
DEEP = b"[" * 100_000 + b"]" * 100_000


def test_decode_rejects_deep_nesting():
    payload = b'{"v":1,"type":"publish","edges":' + DEEP + b"}"
    assert len(payload) < MAX_MESSAGE_BYTES
    with pytest.raises(ProtocolError, match="undecodable"):
        decode_payload(payload)


def test_extract_fingerprint_of_deep_nesting_is_none():
    # No fingerprint key to scan for, so the fallback parse runs.
    assert extract_fingerprint(DEEP) is None
