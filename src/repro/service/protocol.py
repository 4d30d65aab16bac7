"""Length-prefixed JSON wire protocol for the admission service.

A frame is a 4-byte big-endian unsigned length followed by that many
bytes of UTF-8 JSON.  Requests and responses are JSON objects:

Request::

    {"v": 1, "id": 7, "op": "admit", "flow": "user-123", "t": 42.5}

Success response::

    {"v": 1, "id": 7, "ok": true, "result": {...}}

Error response::

    {"v": 1, "id": 7, "ok": false,
     "error": {"code": "overloaded", "message": "...", "retryable": true}}

Operations (``op``): ``admit``, ``admit_many``, ``depart``,
``depart_many``, ``telemetry``, ``snapshot``, ``health``, ``ping``,
plus the replication plane: ``journal-sync`` (leader ships a journal
segment to its follower), ``migrate-out`` / ``migrate-in`` (two-phase
flow handoff between shards) and ``promote`` (flip a standby follower
to active).
Timestamps (``t``) are the caller's logical clock; the server clamps them
monotone.  Flow ids must be JSON strings or integers (they travel
verbatim into the gateway's flow table and the decision digest).

``admit`` and ``admit_many`` accept an optional ``"flow_class"`` field (a
non-empty string naming a class in the server's policy set).  Departures
never carry a class: the gateway remembers each admitted flow's class and
credits the departure itself.  A v1 peer that never sends the field gets
the pooled criterion, byte-for-byte as before -- the class tag is purely
additive.

The ``telemetry`` op pushes one cumulative counter sample into a link's
ingest feed (see :mod:`repro.telemetry.ingest`)::

    {"v": 1, "id": 9, "op": "telemetry", "link": "l0",
     "t": 42.5, "bytes": 123456789, "packets": 84213, "flow": "user-123"}

``bytes``/``packets`` are the monitor's running totals (non-negative
integers; width and monotonicity are judged by the feed's rate
estimators, so a corrupted stream quarantines the link instead of being
rejected at the wire).  ``flow`` is optional: present, the sample belongs
to that flow's counter stream; absent, to the link-aggregate stream.

Versioning: every frame carries ``"v"``; a server receiving an
unsupported version answers a typed ``bad-version`` error naming the
versions it speaks, so old clients fail loudly instead of misparsing.

Error frames are *typed*: ``code`` is machine-readable (see
:data:`ERROR_CODES`) and ``retryable`` marks transient conditions
(:data:`RETRYABLE_CODES` -- shedding, timeouts, connection caps) that a
client may retry with backoff; everything else is a hard failure.

Protocol v2 (binary hot path)
-----------------------------
The hot operations (``admit``/``admit_many``/``depart``/``depart_many``/
``telemetry`` and their responses) additionally speak a struct-packed
**binary encoding** under the same 4-byte length prefix.  A v2 body is
recognized by its first byte, the magic :data:`V2_MAGIC` (``0xB2`` --
a byte no JSON document can start with), followed by a version byte and
a frame-kind byte, so v1 JSON and v2 binary frames coexist on one
connection and are told apart per frame::

    +--------+---------+--------+--------+----------+-- op fields --+
    | 0xB2   | version | kind   | flags  | id (u64) | t (f64, opt.) |
    +--------+---------+--------+--------+----------+---------------+

Negotiation rides the *first frame*: a v2-capable client opens with a
plain v1 JSON request carrying ``"max_v": 2``; every response from a
v2-capable server carries ``"max_v": 2`` back (binary responses
implicitly), and the client upgrades its hot ops to binary from the
first response on.  A peer that never advertises ``max_v`` is spoken to
in JSON v1 forever -- transparent fallback in both directions.  A frame
whose version byte (or JSON ``"v"``) names a version outside
:data:`SUPPORTED_VERSIONS` is answered with a loud typed ``bad-version``
error, never silently downgraded.

Anything the binary encoding cannot represent (flow-id strings over
64 KiB, counters past 2^64, non-hot ops like ``snapshot``) transparently
falls back to the JSON encoding for that frame -- the codecs return
``None`` and the caller encodes v1.
"""

from __future__ import annotations

import asyncio
import json
import math
import struct
from typing import Any

from repro.errors import ProtocolError
from repro.runtime.link import AdmissionDecision

__all__ = [
    "PROTOCOL_VERSION",
    "PROTOCOL_VERSION_2",
    "MAX_PROTOCOL_VERSION",
    "SUPPORTED_VERSIONS",
    "V2_MAGIC",
    "V2_OPS",
    "MAX_FRAME_BYTES",
    "OPS",
    "JOURNAL_OPS",
    "ERROR_CODES",
    "RETRYABLE_CODES",
    "encode_frame",
    "decode_frame",
    "decode_frame_body",
    "encode_request",
    "encode_request_v2",
    "encode_response",
    "encode_response_v2",
    "read_frame",
    "write_frame",
    "make_request",
    "ok_response",
    "error_response",
    "validate_request",
    "decision_to_wire",
    "decision_from_wire",
]

#: Baseline (JSON) wire protocol version spoken by this build.
PROTOCOL_VERSION = 1

#: Binary wire protocol version for the hot ops.
PROTOCOL_VERSION_2 = 2

#: Highest protocol version this build speaks (advertised as ``max_v``).
MAX_PROTOCOL_VERSION = PROTOCOL_VERSION_2

#: Versions a server accepts; anything else answers ``bad-version``.
SUPPORTED_VERSIONS = (PROTOCOL_VERSION, PROTOCOL_VERSION_2)

#: Hard ceiling on one frame's JSON body (guards the reader against a
#: corrupt or hostile length prefix allocating unbounded memory).
MAX_FRAME_BYTES = 4 * 1024 * 1024

_LENGTH = struct.Struct("!I")

#: Request operations the server understands.
OPS = (
    "admit",
    "admit_many",
    "depart",
    "depart_many",
    "telemetry",
    "snapshot",
    "health",
    "ping",
    "journal-sync",
    "migrate-out",
    "migrate-in",
    "promote",
    "retarget",
)

#: Journal entry op names a ``journal-sync`` segment may carry (the ops
#: :func:`repro.service.server.replay_journal` understands).
JOURNAL_OPS = (
    "admit",
    "admit_many",
    "depart",
    "depart_many",
    "telemetry",
    "migrate_out",
    "migrate_in",
    # Appended (not inserted) so the v2 binary codes of the ops above
    # stay stable across protocol revisions.
    "retarget",
    # Class-tagged admissions: flows = [flow, class] / [[flow, ...], class].
    "admit_class",
    "admit_many_class",
)

#: Machine-readable error codes carried by error frames.
ERROR_CODES = (
    "bad-frame",          # unparseable body / oversized frame
    "bad-version",        # protocol version mismatch
    "bad-request",        # malformed request object / parameters
    "unknown-op",         # op not in OPS
    "unknown-flow",       # depart for a flow no link is carrying
    "state-error",        # runtime invariant violated (duplicate admit...)
    "overloaded",         # load shed: dispatch queue over its bound
    "timeout",            # request exceeded the per-request deadline
    "too-many-connections",  # connection cap reached
    "shutting-down",      # server is draining
    "internal",           # unexpected server-side failure
)

#: Transient error codes a client may retry (with backoff).
RETRYABLE_CODES = frozenset(
    {"overloaded", "timeout", "too-many-connections", "shutting-down"}
)


# -- framing ------------------------------------------------------------------


def encode_frame(payload: dict) -> bytes:
    """Serialize one frame (length prefix + JSON body)."""
    body = json.dumps(payload, separators=(",", ":"), allow_nan=False).encode(
        "utf-8"
    )
    if len(body) > MAX_FRAME_BYTES:
        raise ProtocolError(
            f"frame body of {len(body)} bytes exceeds the "
            f"{MAX_FRAME_BYTES}-byte limit",
            code="bad-frame",
        )
    return _LENGTH.pack(len(body)) + body


def decode_frame(body: bytes) -> dict:
    """Parse one frame body; the result must be a JSON object."""
    try:
        payload = json.loads(body.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ProtocolError(f"unparseable frame body: {exc}", code="bad-frame")
    if not isinstance(payload, dict):
        raise ProtocolError(
            f"frame body must be a JSON object, got {type(payload).__name__}",
            code="bad-frame",
        )
    return payload


def decode_frame_body(body: bytes) -> dict:
    """Decode one frame body, v1 JSON or v2 binary, into a payload dict.

    Dispatch is on the first byte: :data:`V2_MAGIC` selects the binary
    decoder, anything else is parsed as JSON.  Both paths return the
    same dict shapes, so everything above the framing layer is
    encoding-agnostic.
    """
    if body[:1] == _V2_MAGIC_BYTE:
        return _decode_v2(body)
    return decode_frame(body)


async def read_frame(
    reader: asyncio.StreamReader, *, max_bytes: int = MAX_FRAME_BYTES
) -> dict | None:
    """Read one frame (v1 or v2); ``None`` on clean EOF at a frame boundary.

    Raises :class:`~repro.errors.ProtocolError` on a corrupt length
    prefix (oversized frame) or a truncated body.
    """
    try:
        header = await reader.readexactly(_LENGTH.size)
    except asyncio.IncompleteReadError as exc:
        if not exc.partial:  # clean close between frames
            return None
        raise ProtocolError(
            f"connection closed mid-header ({len(exc.partial)}/4 bytes)",
            code="bad-frame",
        )
    (length,) = _LENGTH.unpack(header)
    if length > max_bytes:
        raise ProtocolError(
            f"frame of {length} bytes exceeds the {max_bytes}-byte limit",
            code="bad-frame",
        )
    try:
        body = await reader.readexactly(length)
    except asyncio.IncompleteReadError as exc:
        raise ProtocolError(
            f"connection closed mid-frame ({len(exc.partial)}/{length} bytes)",
            code="bad-frame",
        )
    return decode_frame_body(body)


async def write_frame(writer: asyncio.StreamWriter, payload: dict) -> None:
    """Serialize and send one frame, draining the transport."""
    writer.write(encode_frame(payload))
    await writer.drain()


# -- protocol v2: struct-packed binary hot path --------------------------------

#: First byte of every v2 binary frame body (no JSON text starts with it).
V2_MAGIC = 0xB2
_V2_MAGIC_BYTE = bytes([V2_MAGIC])

#: Operations with a binary encoding; everything else stays JSON.
V2_OPS = (
    "admit", "admit_many", "depart", "depart_many", "telemetry",
    "journal-sync",
)

# Frame kinds.  Requests are the op itself; responses are typed by the
# result shape they carry (plus one error kind).
(
    _K_ADMIT, _K_ADMIT_MANY, _K_DEPART, _K_DEPART_MANY, _K_TELEMETRY,
    _K_JOURNAL_SYNC,
) = range(1, 7)
_K_OK_DECISION = 0x81       # {"t", "decision"}
_K_OK_DECISIONS = 0x82      # {"t", "decisions"}
_K_OK_DEPART = 0x83         # {"t", "link"}
_K_OK_DEPARTED = 0x84       # {"t", "departed"}
_K_OK_TELEMETRY = 0x85      # {"t", "link", "buffered"}
_K_OK_JOURNAL_SYNC = 0x86   # {"t", "applied", "total", "digest", "digest_ok"}
_K_ERROR = 0xEE

_REQUEST_KINDS = {
    "admit": _K_ADMIT,
    "admit_many": _K_ADMIT_MANY,
    "depart": _K_DEPART,
    "depart_many": _K_DEPART_MANY,
    "telemetry": _K_TELEMETRY,
    "journal-sync": _K_JOURNAL_SYNC,
}
_KIND_OPS = {kind: op for op, kind in _REQUEST_KINDS.items()}

# Journal entry op codes inside a binary journal-sync segment.
_JOURNAL_CODES = {op: code for code, op in enumerate(JOURNAL_OPS, start=1)}
_CODE_JOURNAL_OPS = {code: op for op, code in _JOURNAL_CODES.items()}

# Flags (bit field).
_F_HAS_T = 0x01    # requests: the optional logical clock is present
_F_HAS_ID = 0x02   # responses: the correlation id is present
_F_HAS_FLOW = 0x04  # telemetry: a per-flow stream id is present
_F_HAS_CLASS = 0x08  # admit/admit_many: a flow-class tag is appended

_V2_HEADER = struct.Struct("!BBBB")   # magic, version, kind, flags
_V2_ID = struct.Struct("!Q")
_V2_F64 = struct.Struct("!d")
_V2_U32 = struct.Struct("!I")
_V2_U64 = struct.Struct("!Q")
_V2_I64 = struct.Struct("!q")
_V2_LEN = struct.Struct("!H")
_V2_DECISION = struct.Struct("!BBIddd")  # admitted, degraded, n_flows,
#                                          target, mu_hat, sigma_hat

_U64_MAX = 2**64 - 1
_I64_MIN, _I64_MAX = -(2**63), 2**63 - 1
_STR_NONE = 0xFFFF  # length sentinel for an absent optional string
_STR_NONE_BYTES = _V2_LEN.pack(_STR_NONE)
_isnan = math.isnan


class _NotEncodable(Exception):
    """Internal: this payload needs the JSON fallback."""


def _pack_str(value, out: bytearray) -> None:
    if value is None:
        out += _STR_NONE_BYTES
        return
    raw = str(value).encode("utf-8")
    if len(raw) >= _STR_NONE:
        raise _NotEncodable
    out += _V2_LEN.pack(len(raw))
    out += raw


def _pack_flow(flow, out: bytearray) -> None:
    if isinstance(flow, bool) or not isinstance(flow, (str, int)):
        raise _NotEncodable
    if isinstance(flow, int):
        if not _I64_MIN <= flow <= _I64_MAX:
            raise _NotEncodable
        out += b"\x01"
        out += _V2_I64.pack(flow)
    else:
        out += b"\x00"
        _pack_str(flow, out)


class _V2Reader:
    """Bounds-checked cursor over a v2 frame body."""

    __slots__ = ("body", "pos")

    def __init__(self, body: bytes, pos: int) -> None:
        self.body = body
        self.pos = pos

    def take(self, spec: struct.Struct):
        end = self.pos + spec.size
        if end > len(self.body):
            raise ProtocolError(
                f"truncated v2 frame ({len(self.body)} bytes)", code="bad-frame"
            )
        values = spec.unpack_from(self.body, self.pos)
        self.pos = end
        return values if len(values) > 1 else values[0]

    def take_bytes(self, n: int) -> bytes:
        end = self.pos + n
        if end > len(self.body):
            raise ProtocolError(
                f"truncated v2 frame ({len(self.body)} bytes)", code="bad-frame"
            )
        raw = self.body[self.pos:end]
        self.pos = end
        return raw

    def take_str(self):
        # Hot path (flow ids, decision strings): inline the length read
        # and slice instead of going through take()/take_bytes().
        body = self.body
        pos = self.pos
        end = pos + 2
        if end > len(body):
            raise ProtocolError(
                f"truncated v2 frame ({len(body)} bytes)", code="bad-frame"
            )
        length = (body[pos] << 8) | body[pos + 1]
        if length == _STR_NONE:
            self.pos = end
            return None
        tail = end + length
        if tail > len(body):
            raise ProtocolError(
                f"truncated v2 frame ({len(body)} bytes)", code="bad-frame"
            )
        self.pos = tail
        try:
            return body[end:tail].decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ProtocolError(
                f"bad utf-8 in v2 frame: {exc}", code="bad-frame"
            )

    def take_flow(self):
        body = self.body
        pos = self.pos
        if pos >= len(body):
            raise ProtocolError(
                f"truncated v2 frame ({len(body)} bytes)", code="bad-frame"
            )
        tag = body[pos]
        self.pos = pos + 1
        if tag == 0x01:
            return self.take(_V2_I64)
        if tag == 0x00:
            flow = self.take_str()
            if flow is None:
                raise ProtocolError(
                    "v2 flow id must not be the absent-string sentinel",
                    code="bad-frame",
                )
            return flow
        raise ProtocolError(
            f"unknown v2 flow-id tag {bytes((tag,))!r}", code="bad-frame"
        )


def _pack_journal_entry(entry, out: bytearray) -> None:
    """Binary-encode one ``(op, flows, t)`` journal entry."""
    if not isinstance(entry, (list, tuple)) or len(entry) != 3:
        raise _NotEncodable
    op, flows, t = entry
    code = _JOURNAL_CODES.get(op)
    if code is None or isinstance(t, bool) or not isinstance(t, (int, float)):
        raise _NotEncodable
    out += bytes((code,))
    out += _V2_F64.pack(float(t))
    if op in ("admit", "depart"):
        _pack_flow(flows, out)
    elif op in ("admit_many", "depart_many", "migrate_out"):
        if not isinstance(flows, (list, tuple)):
            raise _NotEncodable
        out += _V2_U32.pack(len(flows))
        for flow in flows:
            _pack_flow(flow, out)
    elif op == "telemetry":
        # One counter sample: (link, t_sample, bytes, packets, flow|None).
        if not isinstance(flows, (list, tuple)) or len(flows) != 5:
            raise _NotEncodable
        link, t_sample, nbytes, packets, flow = flows
        if not isinstance(link, str) or isinstance(t_sample, bool) or (
            not isinstance(t_sample, (int, float))
        ):
            raise _NotEncodable
        _pack_str(link, out)
        out += _V2_F64.pack(float(t_sample))
        for counter in (nbytes, packets):
            if (
                isinstance(counter, bool)
                or not isinstance(counter, int)
                or not 0 <= counter <= _U64_MAX
            ):
                raise _NotEncodable
            out += _V2_U64.pack(counter)
        if flow is None:
            out += b"\x00"
        else:
            out += b"\x01"
            _pack_flow(flow, out)
    elif op == "retarget":
        # Re-inversion install: (alpha, link|None for all links).
        if not isinstance(flows, (list, tuple)) or len(flows) != 2:
            raise _NotEncodable
        alpha, link = flows
        if isinstance(alpha, bool) or not isinstance(alpha, (int, float)):
            raise _NotEncodable
        if link is not None and not isinstance(link, str):
            raise _NotEncodable
        out += _V2_F64.pack(float(alpha))
        _pack_str(link, out)
    elif op == "admit_class":
        # Class-tagged admit: (flow, class name).
        if not isinstance(flows, (list, tuple)) or len(flows) != 2:
            raise _NotEncodable
        flow, cls = flows
        if not isinstance(cls, str):
            raise _NotEncodable
        _pack_flow(flow, out)
        _pack_str(cls, out)
    elif op == "admit_many_class":
        # Class-tagged batch admit: ([flow, ...], class name).
        if not isinstance(flows, (list, tuple)) or len(flows) != 2:
            raise _NotEncodable
        batch, cls = flows
        if not isinstance(batch, (list, tuple)) or not isinstance(cls, str):
            raise _NotEncodable
        out += _V2_U32.pack(len(batch))
        for flow in batch:
            _pack_flow(flow, out)
        _pack_str(cls, out)
    else:  # migrate_in: [(flow, original effective_t), ...]
        if not isinstance(flows, (list, tuple)):
            raise _NotEncodable
        out += _V2_U32.pack(len(flows))
        for pair in flows:
            if not isinstance(pair, (list, tuple)) or len(pair) != 2:
                raise _NotEncodable
            flow, t0 = pair
            if isinstance(t0, bool) or not isinstance(t0, (int, float)):
                raise _NotEncodable
            _pack_flow(flow, out)
            out += _V2_F64.pack(float(t0))


def _take_journal_entry(reader: _V2Reader) -> list:
    code = reader.take_bytes(1)[0]
    op = _CODE_JOURNAL_OPS.get(code)
    if op is None:
        raise ProtocolError(
            f"unknown v2 journal op code 0x{code:02x}", code="bad-frame"
        )
    t = reader.take(_V2_F64)
    if op in ("admit", "depart"):
        flows: Any = reader.take_flow()
    elif op in ("admit_many", "depart_many", "migrate_out"):
        count = reader.take(_V2_U32)
        flows = [reader.take_flow() for _ in range(count)]
    elif op == "telemetry":
        link = reader.take_str()
        t_sample = reader.take(_V2_F64)
        nbytes = reader.take(_V2_U64)
        packets = reader.take(_V2_U64)
        has_flow = reader.take_bytes(1) == b"\x01"
        flows = [link, t_sample, nbytes, packets,
                 reader.take_flow() if has_flow else None]
    elif op == "retarget":
        flows = [reader.take(_V2_F64), reader.take_str()]
    elif op == "admit_class":
        flows = [reader.take_flow(), reader.take_str()]
    elif op == "admit_many_class":
        count = reader.take(_V2_U32)
        flows = [
            [reader.take_flow() for _ in range(count)], reader.take_str()
        ]
    else:  # migrate_in
        count = reader.take(_V2_U32)
        flows = [
            [reader.take_flow(), reader.take(_V2_F64)] for _ in range(count)
        ]
    return [op, flows, t]


def encode_request_v2(payload: dict) -> bytes | None:
    """Binary-encode a request payload; ``None`` when it needs JSON.

    Accepts the same dicts :func:`make_request` builds.  Returns the
    frame *body* (the caller adds the length prefix), or ``None`` when
    the op has no binary encoding or a field is out of the binary
    domain (oversized string, counter past 2^64, ...).
    """
    kind = _REQUEST_KINDS.get(payload.get("op"))
    request_id = payload.get("id")
    t = payload.get("t")
    if (
        kind is None
        or isinstance(request_id, bool)
        or not isinstance(request_id, int)
        or not 0 <= request_id <= _U64_MAX
    ):
        return None
    if t is not None and not isinstance(t, (int, float)):
        return None
    out = bytearray()
    flags = _F_HAS_T if t is not None else 0
    if kind == _K_TELEMETRY and payload.get("flow") is not None:
        flags |= _F_HAS_FLOW
    flow_class = payload.get("flow_class")
    if kind in (_K_ADMIT, _K_ADMIT_MANY) and flow_class is not None:
        if not isinstance(flow_class, str):
            return None
        flags |= _F_HAS_CLASS
    out += _V2_HEADER.pack(V2_MAGIC, PROTOCOL_VERSION_2, kind, flags)
    out += _V2_ID.pack(request_id)
    if t is not None:
        out += _V2_F64.pack(float(t))
    try:
        if kind in (_K_ADMIT, _K_DEPART):
            _pack_flow(payload["flow"], out)
            if flags & _F_HAS_CLASS:
                _pack_str(flow_class, out)
        elif kind in (_K_ADMIT_MANY, _K_DEPART_MANY):
            flows = payload["flows"]
            if not isinstance(flows, list) or len(flows) > _U64_MAX:
                return None
            out += _V2_U32.pack(len(flows))
            for flow in flows:
                _pack_flow(flow, out)
            if flags & _F_HAS_CLASS:
                _pack_str(flow_class, out)
        elif kind == _K_TELEMETRY:
            if t is None:
                return None
            _pack_str(payload["link"], out)
            for counter in ("bytes", "packets"):
                value = payload.get(counter, 0)
                if (
                    isinstance(value, bool)
                    or not isinstance(value, int)
                    or not 0 <= value <= _U64_MAX
                ):
                    return None
                out += _V2_U64.pack(value)
            if flags & _F_HAS_FLOW:
                _pack_flow(payload["flow"], out)
        else:  # journal-sync
            shard = payload.get("shard")
            if not isinstance(shard, str):
                return None
            _pack_str(shard, out)
            for field in ("seq", "start"):
                value = payload[field]
                if (
                    isinstance(value, bool)
                    or not isinstance(value, int)
                    or not 0 <= value <= _U64_MAX
                ):
                    return None
                out += _V2_U64.pack(value)
            digest = payload.get("digest")
            if digest is not None and not isinstance(digest, str):
                return None
            _pack_str(digest, out)
            entries = payload["entries"]
            if not isinstance(entries, (list, tuple)):
                return None
            out += _V2_U32.pack(len(entries))
            for entry in entries:
                _pack_journal_entry(entry, out)
    except (_NotEncodable, KeyError, struct.error):
        return None
    return bytes(out)


def _pack_decision(decision: dict, out: bytearray) -> None:
    get = decision.get
    target = get("target")
    mu_hat = get("mu_hat")
    sigma_hat = get("sigma_hat")
    out += _V2_DECISION.pack(
        1 if get("admitted") else 0,
        1 if get("degraded") else 0,
        int(get("n_flows", 0)),
        math.nan if target is None else float(target),
        math.nan if mu_hat is None else float(mu_hat),
        math.nan if sigma_hat is None else float(sigma_hat),
    )
    _pack_str(get("link"), out)
    _pack_str(get("reason"), out)
    _pack_str(get("health"), out)


def _unpack_decision(reader: _V2Reader) -> dict:
    admitted, degraded, n_flows, target, mu_hat, sigma_hat = reader.take(
        _V2_DECISION
    )
    take_str = reader.take_str
    return {
        "admitted": bool(admitted),
        "link": take_str(),
        "reason": take_str(),
        "target": None if _isnan(target) else target,
        "n_flows": n_flows,
        "degraded": bool(degraded),
        "health": take_str(),
        "mu_hat": None if _isnan(mu_hat) else mu_hat,
        "sigma_hat": None if _isnan(sigma_hat) else sigma_hat,
    }


def encode_response_v2(payload: dict) -> bytes | None:
    """Binary-encode a response payload; ``None`` when it needs JSON.

    The response kind is inferred from the result shape (the five hot-op
    results are structurally distinct); snapshot/health/ping results have
    no binary form and fall back.
    """
    request_id = payload.get("id")
    if request_id is not None and (
        isinstance(request_id, bool)
        or not isinstance(request_id, int)
        or not 0 <= request_id <= _U64_MAX
    ):
        return None
    out = bytearray()
    flags = _F_HAS_ID if request_id is not None else 0
    try:
        if payload.get("ok"):
            result = payload.get("result", {})
            t = result.get("t")
            if not isinstance(t, (int, float)) or isinstance(t, bool):
                return None
            if "decision" in result:
                kind, body = _K_OK_DECISION, bytearray()
                _pack_decision(result["decision"], body)
            elif "decisions" in result:
                kind, body = _K_OK_DECISIONS, bytearray()
                decisions = result["decisions"]
                body += _V2_U32.pack(len(decisions))
                for decision in decisions:
                    _pack_decision(decision, body)
            elif "applied" in result:
                kind, body = _K_OK_JOURNAL_SYNC, bytearray()
                body += _V2_U32.pack(int(result["applied"]))
                body += _V2_U64.pack(int(result["total"]))
                digest = result.get("digest")
                if digest is not None and not isinstance(digest, str):
                    return None
                _pack_str(digest, body)
                digest_ok = result.get("digest_ok")
                body += (
                    b"\x02" if digest_ok is None
                    else (b"\x01" if digest_ok else b"\x00")
                )
            elif "departed" in result:
                kind, body = _K_OK_DEPARTED, bytearray()
                body += _V2_U32.pack(int(result["departed"]))
            elif "buffered" in result:
                kind, body = _K_OK_TELEMETRY, bytearray()
                _pack_str(result["link"], body)
                body += _V2_U32.pack(int(result["buffered"]))
            elif "link" in result:
                kind, body = _K_OK_DEPART, bytearray()
                _pack_str(result["link"], body)
            else:
                return None
            out += _V2_HEADER.pack(V2_MAGIC, PROTOCOL_VERSION_2, kind, flags)
            if request_id is not None:
                out += _V2_ID.pack(request_id)
            out += _V2_F64.pack(float(t))
            out += body
        else:
            error = payload.get("error", {})
            out += _V2_HEADER.pack(
                V2_MAGIC, PROTOCOL_VERSION_2, _K_ERROR, flags
            )
            if request_id is not None:
                out += _V2_ID.pack(request_id)
            _pack_str(error.get("code", "internal"), out)
            message = str(error.get("message", ""))
            if len(message.encode("utf-8")) >= _STR_NONE:
                message = message[: _STR_NONE // 4]
            _pack_str(message, out)
            out += b"\x01" if error.get("retryable") else b"\x00"
    except (_NotEncodable, KeyError, ValueError, TypeError, struct.error):
        return None
    return bytes(out)


def _decode_v2(body: bytes) -> dict:
    reader = _V2Reader(body, 0)
    magic, version, kind, flags = reader.take(_V2_HEADER)
    if version != PROTOCOL_VERSION_2:
        raise ProtocolError(
            f"unsupported binary protocol version {version}; this build "
            f"speaks v{', v'.join(str(v) for v in SUPPORTED_VERSIONS)}",
            code="bad-version",
        )
    if kind in _KIND_OPS:
        op = _KIND_OPS[kind]
        payload: dict = {
            "v": PROTOCOL_VERSION_2,
            "id": reader.take(_V2_ID),
            "op": op,
        }
        if flags & _F_HAS_T:
            payload["t"] = reader.take(_V2_F64)
        if kind in (_K_ADMIT, _K_DEPART):
            payload["flow"] = reader.take_flow()
            if flags & _F_HAS_CLASS:
                payload["flow_class"] = reader.take_str()
        elif kind in (_K_ADMIT_MANY, _K_DEPART_MANY):
            count = reader.take(_V2_U32)
            payload["flows"] = [reader.take_flow() for _ in range(count)]
            if flags & _F_HAS_CLASS:
                payload["flow_class"] = reader.take_str()
        elif kind == _K_TELEMETRY:
            payload["link"] = reader.take_str()
            payload["bytes"] = reader.take(_V2_U64)
            payload["packets"] = reader.take(_V2_U64)
            if flags & _F_HAS_FLOW:
                payload["flow"] = reader.take_flow()
        else:  # journal-sync
            payload["shard"] = reader.take_str()
            payload["seq"] = reader.take(_V2_U64)
            payload["start"] = reader.take(_V2_U64)
            payload["digest"] = reader.take_str()
            count = reader.take(_V2_U32)
            payload["entries"] = [
                _take_journal_entry(reader) for _ in range(count)
            ]
        return payload
    # Responses carry max_v implicitly: a binary frame proves v2.
    request_id = reader.take(_V2_ID) if flags & _F_HAS_ID else None
    base = {
        "v": PROTOCOL_VERSION_2,
        "id": request_id,
        "max_v": MAX_PROTOCOL_VERSION,
    }
    if kind == _K_ERROR:
        code = reader.take_str()
        message = reader.take_str()
        retryable = reader.take_bytes(1) == b"\x01"
        base["ok"] = False
        base["error"] = {
            "code": code,
            "message": message,
            "retryable": retryable,
        }
        return base
    t = reader.take(_V2_F64)
    if kind == _K_OK_DECISION:
        result: dict = {"t": t, "decision": _unpack_decision(reader)}
    elif kind == _K_OK_DECISIONS:
        count = reader.take(_V2_U32)
        result = {
            "t": t,
            "decisions": [_unpack_decision(reader) for _ in range(count)],
        }
    elif kind == _K_OK_DEPART:
        result = {"t": t, "link": reader.take_str()}
    elif kind == _K_OK_DEPARTED:
        result = {"t": t, "departed": reader.take(_V2_U32)}
    elif kind == _K_OK_TELEMETRY:
        result = {
            "t": t,
            "link": reader.take_str(),
            "buffered": reader.take(_V2_U32),
        }
    elif kind == _K_OK_JOURNAL_SYNC:
        result = {
            "t": t,
            "applied": reader.take(_V2_U32),
            "total": reader.take(_V2_U64),
            "digest": reader.take_str(),
        }
        flag = reader.take_bytes(1)
        result["digest_ok"] = None if flag == b"\x02" else flag == b"\x01"
    else:
        raise ProtocolError(
            f"unknown v2 frame kind 0x{kind:02x}", code="bad-frame"
        )
    base["ok"] = True
    base["result"] = result
    return base


def encode_request(payload: dict, version: int = PROTOCOL_VERSION) -> bytes:
    """Encode one request frame (length prefix included) at ``version``.

    At v2, hot ops go binary with a transparent per-frame JSON fallback;
    everything else (and all of v1) is JSON.  The ``"v"`` field of the
    emitted frame always matches the encoding actually used, so the
    receiver answers in kind.
    """
    if version >= PROTOCOL_VERSION_2:
        body = encode_request_v2(payload)
        if body is not None:
            return _LENGTH.pack(len(body)) + body
    if payload.get("v") != PROTOCOL_VERSION:
        payload = {**payload, "v": PROTOCOL_VERSION}
    return encode_frame(payload)


def encode_response(payload: dict, version: int = PROTOCOL_VERSION) -> bytes:
    """Encode one response frame (length prefix included) at ``version``.

    ``version`` is the version of the *request* being answered: v2
    requests get binary responses (JSON fallback for shapes with no
    binary form), v1 requests always get JSON.
    """
    if version >= PROTOCOL_VERSION_2:
        body = encode_response_v2(payload)
        if body is not None:
            return _LENGTH.pack(len(body)) + body
    return encode_frame(payload)


# -- request / response builders ----------------------------------------------


def make_request(op: str, request_id: int, **fields: Any) -> dict:
    """Build a request frame payload."""
    payload = {"v": PROTOCOL_VERSION, "id": request_id, "op": op}
    payload.update(fields)
    return payload


def ok_response(request_id: Any, result: dict) -> dict:
    """Build a success response payload.

    Every response advertises ``max_v``, the highest protocol version
    this build speaks -- that is the entire server side of the version
    negotiation (clients upgrade after the first response carrying it).
    """
    return {
        "v": PROTOCOL_VERSION,
        "id": request_id,
        "ok": True,
        "max_v": MAX_PROTOCOL_VERSION,
        "result": result,
    }


def error_response(request_id: Any, code: str, message: str) -> dict:
    """Build a typed error response payload (advertises ``max_v`` too)."""
    return {
        "v": PROTOCOL_VERSION,
        "id": request_id,
        "ok": False,
        "max_v": MAX_PROTOCOL_VERSION,
        "error": {
            "code": code,
            "message": message,
            "retryable": code in RETRYABLE_CODES,
        },
    }


def _check_flow_id(flow: Any) -> Any:
    if not isinstance(flow, (str, int)) or isinstance(flow, bool):
        raise ProtocolError(
            f"flow ids must be strings or integers, got {flow!r}",
            code="bad-request",
        )
    return flow


def _check_flow_pairs(flows: Any, op: str, *, allow_empty: bool) -> None:
    """Validate a ``[[flow, t], ...]`` list (migrate-in / promote tables)."""
    if not isinstance(flows, list) or (not flows and not allow_empty):
        raise ProtocolError(
            f"{op} requires a non-empty 'flows' list of [flow, t] pairs",
            code="bad-request",
        )
    for pair in flows:
        if not isinstance(pair, (list, tuple)) or len(pair) != 2:
            raise ProtocolError(
                f"{op} 'flows' entries must be [flow, t] pairs, got {pair!r}",
                code="bad-request",
            )
        _check_flow_id(pair[0])
        t0 = pair[1]
        if (
            isinstance(t0, bool)
            or not isinstance(t0, (int, float))
            or not math.isfinite(t0)
        ):
            raise ProtocolError(
                f"{op} pair time must be a finite number, got {t0!r}",
                code="bad-request",
            )


def validate_request(payload: dict) -> dict:
    """Validate a decoded request frame; returns it on success.

    Checks version, op, and the per-op required fields.  Raises
    :class:`~repro.errors.ProtocolError` with the matching error code.
    """
    version = payload.get("v")
    if version not in SUPPORTED_VERSIONS:
        raise ProtocolError(
            f"unsupported protocol version {version!r}; this server "
            f"speaks v{', v'.join(str(v) for v in SUPPORTED_VERSIONS)}",
            code="bad-version",
        )
    if "id" not in payload:
        raise ProtocolError("request is missing 'id'", code="bad-request")
    op = payload.get("op")
    if op not in OPS:
        raise ProtocolError(
            f"unknown op {op!r}; expected one of {', '.join(OPS)}",
            code="unknown-op",
        )
    t = payload.get("t")
    if t is not None and not isinstance(t, (int, float)):
        raise ProtocolError(f"'t' must be a number, got {t!r}", code="bad-request")
    if t is not None and not math.isfinite(t):
        raise ProtocolError(f"'t' must be finite, got {t!r}", code="bad-request")
    if op in ("admit", "admit_many"):
        flow_class = payload.get("flow_class")
        if flow_class is not None and (
            not isinstance(flow_class, str) or not flow_class
        ):
            raise ProtocolError(
                f"'flow_class' must be a non-empty string or null, "
                f"got {flow_class!r}",
                code="bad-request",
            )
    if op in ("admit", "depart"):
        if "flow" not in payload:
            raise ProtocolError(f"{op} requires 'flow'", code="bad-request")
        _check_flow_id(payload["flow"])
    elif op in ("admit_many", "depart_many"):
        flows = payload.get("flows")
        if not isinstance(flows, list) or not flows:
            raise ProtocolError(
                f"{op} requires a non-empty 'flows' list", code="bad-request"
            )
        for flow in flows:
            _check_flow_id(flow)
    elif op == "telemetry":
        link = payload.get("link")
        if not isinstance(link, str) or not link:
            raise ProtocolError(
                "telemetry requires a non-empty 'link' name", code="bad-request"
            )
        if t is None:
            raise ProtocolError(
                "telemetry requires 't' (the sample's measurement time)",
                code="bad-request",
            )
        for counter in ("bytes", "packets"):
            value = payload.get(counter, 0 if counter == "packets" else None)
            if (
                isinstance(value, bool)
                or not isinstance(value, int)
                or value < 0
            ):
                raise ProtocolError(
                    f"telemetry {counter!r} must be a non-negative integer, "
                    f"got {value!r}",
                    code="bad-request",
                )
        if "flow" in payload and payload["flow"] is not None:
            _check_flow_id(payload["flow"])
    elif op == "journal-sync":
        shard = payload.get("shard")
        if not isinstance(shard, str) or not shard:
            raise ProtocolError(
                "journal-sync requires a non-empty 'shard' name",
                code="bad-request",
            )
        for field in ("seq", "start"):
            value = payload.get(field)
            if (
                isinstance(value, bool)
                or not isinstance(value, int)
                or value < 0
            ):
                raise ProtocolError(
                    f"journal-sync {field!r} must be a non-negative integer, "
                    f"got {value!r}",
                    code="bad-request",
                )
        digest = payload.get("digest")
        if digest is not None and not isinstance(digest, str):
            raise ProtocolError(
                f"journal-sync 'digest' must be a hex string or null, "
                f"got {digest!r}",
                code="bad-request",
            )
        entries = payload.get("entries")
        if not isinstance(entries, list):
            raise ProtocolError(
                "journal-sync requires an 'entries' list (may be empty)",
                code="bad-request",
            )
        for entry in entries:
            if not isinstance(entry, (list, tuple)) or len(entry) != 3:
                raise ProtocolError(
                    f"journal-sync entries must be (op, flows, t) triples, "
                    f"got {entry!r}",
                    code="bad-request",
                )
            if entry[0] not in JOURNAL_OPS:
                raise ProtocolError(
                    f"unknown journal op {entry[0]!r}; expected one of "
                    f"{', '.join(JOURNAL_OPS)}",
                    code="bad-request",
                )
            entry_t = entry[2]
            if (
                isinstance(entry_t, bool)
                or not isinstance(entry_t, (int, float))
                or not math.isfinite(entry_t)
            ):
                raise ProtocolError(
                    f"journal entry time must be a finite number, "
                    f"got {entry_t!r}",
                    code="bad-request",
                )
    elif op == "migrate-out":
        flows = payload.get("flows")
        if not isinstance(flows, list) or not flows:
            raise ProtocolError(
                f"{op} requires a non-empty 'flows' list", code="bad-request"
            )
        for flow in flows:
            _check_flow_id(flow)
    elif op == "migrate-in":
        _check_flow_pairs(payload.get("flows"), op, allow_empty=False)
    elif op == "retarget":
        alpha = payload.get("alpha")
        if (
            isinstance(alpha, bool)
            or not isinstance(alpha, (int, float))
            or not math.isfinite(alpha)
            or alpha <= 0.0
        ):
            raise ProtocolError(
                f"retarget 'alpha' must be a positive finite number, "
                f"got {alpha!r}",
                code="bad-request",
            )
        link = payload.get("link")
        if link is not None and (not isinstance(link, str) or not link):
            raise ProtocolError(
                f"retarget 'link' must be a non-empty string or null, "
                f"got {link!r}",
                code="bad-request",
            )
    elif op == "promote":
        if "flows" in payload and payload["flows"] is not None:
            _check_flow_pairs(payload["flows"], op, allow_empty=True)
        digest = payload.get("digest")
        if digest is not None and not isinstance(digest, str):
            raise ProtocolError(
                f"promote 'digest' must be a hex string or null, "
                f"got {digest!r}",
                code="bad-request",
            )
    return payload


# -- decision serialization ---------------------------------------------------


def decision_to_wire(decision: AdmissionDecision) -> dict:
    """Serialize an :class:`AdmissionDecision` for a response frame.

    NaN fields (target/mu_hat/sigma_hat when no estimate was available)
    become ``null`` -- strict JSON has no NaN token.
    """
    return {
        "admitted": decision.admitted,
        "link": decision.link,
        "reason": decision.reason,
        "target": None if math.isnan(decision.target) else decision.target,
        "n_flows": decision.n_flows,
        "degraded": decision.degraded,
        "health": decision.health,
        "mu_hat": None if math.isnan(decision.mu_hat) else decision.mu_hat,
        "sigma_hat": None if math.isnan(decision.sigma_hat) else decision.sigma_hat,
    }


def decision_from_wire(payload: dict) -> AdmissionDecision:
    """Rebuild an :class:`AdmissionDecision` from a response frame."""
    # Positional: keywords cost the frozen dataclass ~0.35 us a decision.
    get = payload.get
    target = get("target")
    mu_hat = get("mu_hat")
    sigma_hat = get("sigma_hat")
    return AdmissionDecision(
        bool(payload["admitted"]),
        payload["link"],
        payload["reason"],
        math.nan if target is None else float(target),
        int(payload["n_flows"]),
        bool(get("degraded", False)),
        get("health", "healthy"),
        math.nan if mu_hat is None else float(mu_hat),
        math.nan if sigma_hat is None else float(sigma_hat),
    )
