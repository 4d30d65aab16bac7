"""Wire-protocol tests: framing, validation and decision serialization."""

from __future__ import annotations

import asyncio
import math
import struct

import pytest

from repro.errors import ProtocolError
from repro.runtime.link import AdmissionDecision
from repro.service.protocol import (
    MAX_FRAME_BYTES,
    OPS,
    PROTOCOL_VERSION,
    RETRYABLE_CODES,
    decision_from_wire,
    decision_to_wire,
    decode_frame,
    encode_frame,
    error_response,
    make_request,
    ok_response,
    read_frame,
    validate_request,
)

from .conftest import run


def reader_with(data: bytes) -> asyncio.StreamReader:
    reader = asyncio.StreamReader()
    reader.feed_data(data)
    reader.feed_eof()
    return reader


class TestFraming:
    def test_round_trip(self):
        payload = {"v": 1, "id": 3, "op": "admit", "flow": "uniçode-✓"}
        frame = encode_frame(payload)
        length = struct.unpack("!I", frame[:4])[0]
        assert length == len(frame) - 4
        assert decode_frame(frame[4:]) == payload

    def test_decode_rejects_non_object(self):
        with pytest.raises(ProtocolError) as exc:
            decode_frame(b"[1, 2, 3]")
        assert exc.value.code == "bad-frame"

    def test_decode_rejects_bad_json(self):
        with pytest.raises(ProtocolError):
            decode_frame(b"{not json")
        with pytest.raises(ProtocolError):
            decode_frame(b"\xff\xfe")

    def test_encode_rejects_oversized_body(self):
        with pytest.raises(ProtocolError) as exc:
            encode_frame({"blob": "x" * MAX_FRAME_BYTES})
        assert exc.value.code == "bad-frame"

    def test_encode_rejects_nan(self):
        # Strict JSON only; decisions must go through decision_to_wire.
        with pytest.raises(ValueError):
            encode_frame({"target": math.nan})

    def test_read_frame_round_trip_and_clean_eof(self):
        async def scenario():
            a = encode_frame({"v": 1, "id": 0, "op": "ping"})
            b = encode_frame({"v": 1, "id": 1, "op": "ping"})
            reader = reader_with(a + b)
            first = await read_frame(reader)
            second = await read_frame(reader)
            third = await read_frame(reader)
            return first, second, third

        first, second, third = run(scenario())
        assert first["id"] == 0 and second["id"] == 1
        assert third is None  # clean EOF at a frame boundary

    def test_read_frame_truncated_header(self):
        async def scenario():
            await read_frame(reader_with(b"\x00\x00"))

        with pytest.raises(ProtocolError, match="mid-header"):
            run(scenario())

    def test_read_frame_truncated_body(self):
        async def scenario():
            frame = encode_frame({"v": 1, "id": 0, "op": "ping"})
            await read_frame(reader_with(frame[:-3]))

        with pytest.raises(ProtocolError, match="mid-frame"):
            run(scenario())

    def test_read_frame_rejects_oversized_length_prefix(self):
        async def scenario():
            header = struct.pack("!I", MAX_FRAME_BYTES + 1)
            await read_frame(reader_with(header))

        with pytest.raises(ProtocolError, match="exceeds"):
            run(scenario())

    def test_read_frame_honours_custom_limit(self):
        async def scenario():
            frame = encode_frame({"v": 1, "id": 0, "op": "ping"})
            await read_frame(reader_with(frame), max_bytes=4)

        with pytest.raises(ProtocolError, match="exceeds"):
            run(scenario())


class TestValidation:
    def good(self, **overrides):
        payload = make_request("admit", 1, flow="f1", t=2.0)
        payload.update(overrides)
        return payload

    def test_accepts_every_op(self):
        for op in OPS:
            payload = {"v": PROTOCOL_VERSION, "id": 1, "op": op}
            if op in ("admit", "depart"):
                payload["flow"] = "f1"
            elif op in ("admit_many", "depart_many"):
                payload["flows"] = ["f1", 2]
            elif op == "telemetry":
                payload.update(link="l0", t=1.0, bytes=1000)
            elif op == "journal-sync":
                payload.update(
                    shard="s0", seq=0, start=0,
                    entries=[["admit", "f1", 1.0]],
                )
            elif op == "migrate-out":
                payload["flows"] = ["f1", 2]
            elif op == "migrate-in":
                payload["flows"] = [["f1", 1.0], [2, 2.0]]
            elif op == "retarget":
                payload["alpha"] = 2.5
            assert validate_request(payload) is payload

    def test_rejects_wrong_version(self):
        with pytest.raises(ProtocolError) as exc:
            validate_request(self.good(v=99))
        assert exc.value.code == "bad-version"

    def test_rejects_missing_id(self):
        payload = self.good()
        del payload["id"]
        with pytest.raises(ProtocolError) as exc:
            validate_request(payload)
        assert exc.value.code == "bad-request"

    def test_rejects_unknown_op(self):
        with pytest.raises(ProtocolError) as exc:
            validate_request(self.good(op="explode"))
        assert exc.value.code == "unknown-op"

    def test_rejects_bad_time(self):
        for bad in ("soon", math.nan, math.inf):
            with pytest.raises(ProtocolError) as exc:
                validate_request(self.good(t=bad))
            assert exc.value.code == "bad-request"

    def test_rejects_missing_flow(self):
        payload = self.good()
        del payload["flow"]
        with pytest.raises(ProtocolError):
            validate_request(payload)

    def test_rejects_bad_flow_ids(self):
        for bad in (None, 1.5, True, ["nested"]):
            with pytest.raises(ProtocolError):
                validate_request(self.good(flow=bad))

    def test_rejects_empty_or_non_list_flows(self):
        base = {"v": PROTOCOL_VERSION, "id": 1, "op": "admit_many"}
        for bad in ([], "f1", None, [True]):
            with pytest.raises(ProtocolError):
                validate_request(dict(base, flows=bad))


class TestResponses:
    def test_ok_response_shape(self):
        response = ok_response(7, {"pong": True})
        assert response["ok"] and response["id"] == 7
        assert response["v"] == PROTOCOL_VERSION
        assert response["result"] == {"pong": True}

    def test_error_response_marks_retryable_codes(self):
        for code in RETRYABLE_CODES:
            assert error_response(1, code, "m")["error"]["retryable"]
        for code in ("bad-request", "unknown-flow", "state-error", "internal"):
            assert not error_response(1, code, "m")["error"]["retryable"]


class TestDecisionWire:
    @pytest.mark.parametrize(
        "admitted, degraded, health",
        [(True, True, "degraded"), (True, False, "healthy"),
         (False, True, "quarantined")],
        ids=["admitted-degraded", "admitted-healthy", "rejected-quarantined"],
    )
    def test_round_trip_preserves_fields(self, admitted, degraded, health):
        decision = AdmissionDecision(
            admitted=admitted,
            link="link1",
            reason="target",
            target=17.25,
            n_flows=9,
            degraded=degraded,
            health=health,
            mu_hat=1.01,
            sigma_hat=0.29,
        )
        wire = decision_to_wire(decision)
        assert decision_from_wire(wire) == decision
        # And the wire form is strict-JSON safe.
        encode_frame(wire)

    def test_nan_fields_travel_as_null(self):
        decision = AdmissionDecision(
            admitted=False, link="link0", reason="quarantined",
            target=math.nan, n_flows=0, degraded=True, health="quarantined",
        )
        wire = decision_to_wire(decision)
        assert wire["target"] is None
        assert wire["mu_hat"] is None and wire["sigma_hat"] is None
        back = decision_from_wire(wire)
        assert math.isnan(back.target) and math.isnan(back.mu_hat)
