"""Wire protocol of the plan-serving daemon: length-prefixed JSON.

Every message — request and response alike — is one **frame**: a
4-byte big-endian unsigned length followed by that many bytes of
UTF-8 JSON encoding a single object.  JSON (never pickle — enforced by
the ``no-pickle`` analysis gate, which covers ``serving/`` exactly like
the cache persistence layer) because the bytes cross a socket: a
malicious or corrupt peer must at worst produce a parse error, never
code execution.  The length prefix is capped at :data:`MAX_FRAME_BYTES`
so a garbage header cannot make the server allocate gigabytes.

Queries travel as the **wire form** of a
:class:`~repro.optimizer.QuerySpec` — relations as ``[name,
cardinality]`` pairs plus join specs — produced by
:func:`spec_to_wire` and rebuilt by :func:`wire_to_spec`; an answer is
the summary :func:`result_to_wire` builds.  The spec
form is the natural serialization boundary: it is exactly the
declarative subset of queries that is cacheable, and
``QuerySpec.from_hypergraph`` lets clients ship hypergraphs too.

Request envelope: ``{"op": <name>, ...}``.  Response envelope:
``{"ok": true, ...}`` or ``{"ok": false, "error": <code>,
"message": <human text>}``.  See ``docs/serving.md`` for the op
catalogue.
"""

from __future__ import annotations

import asyncio
import json
import socket
from typing import Any, Optional

#: hard ceiling on one frame's JSON body (8 MiB); a length prefix
#: above this is treated as a protocol violation, not an allocation
MAX_FRAME_BYTES = 8 * 1024 * 1024

#: bytes in the big-endian unsigned length prefix
HEADER_BYTES = 4


class ProtocolError(ValueError):
    """The peer sent bytes that are not a valid frame."""


class FrameTooLargeError(ProtocolError):
    """A frame's declared length exceeds :data:`MAX_FRAME_BYTES`.

    Distinct from a generic :class:`ProtocolError` because the stream
    cannot be resynchronized — the only safe reaction is closing the
    connection (after a best-effort error response).
    """


def encode_frame(message: "dict[str, Any]") -> bytes:
    """Serialize one message to its on-wire bytes (header + JSON)."""
    body = json.dumps(message, separators=(",", ":")).encode("utf-8")
    if len(body) > MAX_FRAME_BYTES:
        raise FrameTooLargeError(
            f"outgoing frame of {len(body)} bytes exceeds the "
            f"{MAX_FRAME_BYTES}-byte frame limit"
        )
    return len(body).to_bytes(HEADER_BYTES, "big") + body


def decode_body(body: bytes) -> "dict[str, Any]":
    """Parse a frame body; raise :class:`ProtocolError` on garbage."""
    try:
        message = json.loads(body.decode("utf-8"))
    except (ValueError, UnicodeDecodeError) as exc:
        raise ProtocolError(f"frame body is not valid JSON: {exc}") from exc
    if not isinstance(message, dict):
        raise ProtocolError(
            f"frame body must be a JSON object, got {type(message).__name__}"
        )
    return message


def _declared_length(header: bytes) -> int:
    length = int.from_bytes(header, "big")
    if length > MAX_FRAME_BYTES:
        raise FrameTooLargeError(
            f"peer declared a {length}-byte frame; the limit is "
            f"{MAX_FRAME_BYTES} bytes"
        )
    return length


async def read_frame(
    reader: asyncio.StreamReader,
) -> "Optional[dict[str, Any]]":
    """Read one frame from an asyncio stream (server side).

    Returns ``None`` on a clean end-of-stream *between* frames (the
    peer hung up, normal).  A connection dropped *mid-frame* or an
    invalid frame raises :class:`ProtocolError`.
    """
    try:
        header = await reader.readexactly(HEADER_BYTES)
    except asyncio.IncompleteReadError as exc:
        if not exc.partial:
            return None  # clean close between frames
        raise ProtocolError(
            "connection closed mid-header"
        ) from exc
    length = _declared_length(header)
    try:
        body = await reader.readexactly(length)
    except asyncio.IncompleteReadError as exc:
        raise ProtocolError(
            f"connection closed mid-frame ({len(exc.partial)} of "
            f"{length} bytes)"
        ) from exc
    return decode_body(body)


def recv_frame(sock: socket.socket) -> "dict[str, Any]":
    """Read one frame from a blocking socket (client side).

    Raises :class:`ProtocolError` on any truncation — the synchronous
    client always expects a response, so even a clean close counts as
    an error here (the server died or rejected the connection).
    """
    header = _recv_exactly(sock, HEADER_BYTES, "header")
    length = _declared_length(header)
    body = _recv_exactly(sock, length, "frame body")
    return decode_body(body)


def send_frame(sock: socket.socket, message: "dict[str, Any]") -> None:
    """Write one frame to a blocking socket (client side)."""
    sock.sendall(encode_frame(message))


def _recv_exactly(sock: socket.socket, n: int, what: str) -> bytes:
    chunks = []
    remaining = n
    while remaining:
        chunk = sock.recv(remaining)
        if not chunk:
            raise ProtocolError(
                f"connection closed while reading {what} "
                f"({n - remaining} of {n} bytes)"
            )
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)


# -- query wire form ---------------------------------------------------------


def spec_to_wire(spec: Any) -> "dict[str, Any]":
    """Serialize a :class:`~repro.optimizer.QuerySpec` for the wire."""
    return {
        "relations": [
            [name, card]
            for name, card in zip(spec.relation_names, spec.cardinalities)
        ],
        "joins": [
            {
                "left": list(join.left),
                "right": list(join.right),
                "selectivity": join.selectivity,
                "flex": list(join.flex),
                "predicate": join.predicate,
            }
            for join in spec.joins
        ],
    }


def wire_to_spec(payload: Any) -> Any:
    """Rebuild a :class:`~repro.optimizer.QuerySpec` from wire form.

    Raises :class:`ProtocolError` on malformed payloads — the server
    maps that to a ``bad-request`` response rather than a crash.
    """
    from ..optimizer import JoinSpec, QuerySpec  # local: import cycle

    if not isinstance(payload, dict):
        raise ProtocolError("query payload must be a JSON object")
    try:
        relations = [
            (str(name), float(card)) for name, card in payload["relations"]
        ]
        joins = [
            JoinSpec.of(
                tuple(join["left"]),
                tuple(join["right"]),
                selectivity=float(join.get("selectivity", 1.0)),
                flex=tuple(join.get("flex", ())),
                predicate=join.get("predicate"),
            )
            for join in payload.get("joins", [])
        ]
        return QuerySpec(relations=relations, joins=joins)
    except ProtocolError:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise ProtocolError(f"malformed query payload: {exc}") from exc


def result_to_wire(result: Any, via: str) -> "dict[str, Any]":
    """Summarize an :class:`~repro.optimizer.OptimizationResult` for
    the wire; ``via`` names who computed it (``parent``, ``pool`` or,
    for a shard router's local answer, ``fallback``)."""
    plannable = result.plan is not None
    extra = result.stats.extra.get("plan_cache", {})
    return {
        "ok": True,
        "via": via,
        "algorithm": result.algorithm,
        "plannable": plannable,
        "cost": result.plan.cost if plannable else None,
        "cardinality": result.plan.cardinality if plannable else None,
        "cache_event": extra.get("event"),
    }
