"""The memcached text protocol (the subset YCSB exercises).

Requests::

    set <key> <flags> <exptime> <bytes>\\r\\n<data>\\r\\n
    get <key>\\r\\n
    delete <key>\\r\\n

Responses::

    STORED\\r\\n
    VALUE <key> <flags> <bytes>\\r\\n<data>\\r\\nEND\\r\\n
    END\\r\\n                      (miss)
    DELETED\\r\\n / NOT_FOUND\\r\\n
    ERROR\\r\\n
"""

from __future__ import annotations

from typing import NamedTuple, Optional

CRLF = "\r\n"

#: Protocol limits (memcached's defaults): keys are at most 250
#: bytes and values at most 1 MiB.  Requests beyond these are
#: rejected as malformed instead of allocating attacker-chosen
#: amounts of memory.
MAX_KEY_BYTES = 250
MAX_DATA_BYTES = 1 << 20


class Request(NamedTuple):
    command: str                 # "set" | "get" | "delete"
    key: str
    flags: int = 0
    exptime: int = 0
    data: bytes = b""


class ProtocolError(ValueError):
    pass


def _int_field(token: str, what: str) -> int:
    """Parse a protocol integer field; malformed digits are a
    protocol error, never a stray ``ValueError`` crash."""
    try:
        value = int(token)
    except ValueError:
        raise ProtocolError(f"{what} is not a number: {token!r}")
    if value < 0:
        raise ProtocolError(f"{what} is negative: {value}")
    return value


def _checked_key(key: str) -> str:
    if len(key) > MAX_KEY_BYTES:
        raise ProtocolError(
            f"key of {len(key)} bytes exceeds the {MAX_KEY_BYTES}-"
            f"byte limit")
    return key


def parse_request(text: str) -> Request:
    """Parse one complete request (header line [+ data line]).

    Every malformation — bad command, wrong arity, non-numeric or
    negative sizes, oversized key/value, non-latin-1 data — raises
    :class:`ProtocolError`, so ``MiniCache.handle`` (and the socket
    server built on it) can answer ``ERROR`` instead of crashing.
    """
    if CRLF not in text:
        raise ProtocolError("request not terminated")
    header, _, rest = text.partition(CRLF)
    parts = header.split()
    if not parts:
        raise ProtocolError("empty request")
    command = parts[0].lower()
    if command == "get":
        if len(parts) != 2:
            raise ProtocolError("get expects one key")
        return Request("get", _checked_key(parts[1]))
    if command == "delete":
        if len(parts) != 2:
            raise ProtocolError("delete expects one key")
        return Request("delete", _checked_key(parts[1]))
    if command == "set":
        if len(parts) != 5:
            raise ProtocolError("set expects key flags exptime bytes")
        key, flags, exptime, nbytes = parts[1:]
        size = _int_field(nbytes, "set: byte count")
        if size > MAX_DATA_BYTES:
            raise ProtocolError(
                f"set: {size} data bytes exceed the "
                f"{MAX_DATA_BYTES}-byte limit")
        try:
            data = rest[:size].encode("latin-1")
        except UnicodeEncodeError:
            raise ProtocolError("set: data is not latin-1")
        if len(data) != size:
            raise ProtocolError(
                f"set: expected {size} data bytes, got {len(data)}")
        return Request("set", _checked_key(key),
                       _int_field(flags, "set: flags"),
                       _int_field(exptime, "set: exptime"), data)
    raise ProtocolError(f"unknown command {command!r}")


def encode_set(key: str, data: bytes, flags: int = 0,
               exptime: int = 0) -> str:
    return (f"set {key} {flags} {exptime} {len(data)}{CRLF}"
            f"{data.decode('latin-1')}{CRLF}")


def encode_get(key: str) -> str:
    return f"get {key}{CRLF}"


def encode_delete(key: str) -> str:
    return f"delete {key}{CRLF}"


def encode_value(key: str, data: bytes, flags: int = 0) -> str:
    return (f"VALUE {key} {flags} {len(data)}{CRLF}"
            f"{data.decode('latin-1')}{CRLF}END{CRLF}")


STORED = f"STORED{CRLF}"
END = f"END{CRLF}"
DELETED = f"DELETED{CRLF}"
NOT_FOUND = f"NOT_FOUND{CRLF}"
ERROR = f"ERROR{CRLF}"
#: Backpressure response of the socket server (repro.serve): the
#: pending-request queue is full and this request was shed.
SERVER_BUSY = f"SERVER_BUSY{CRLF}"
#: Degraded-mode response of the sharded router (repro.serve): the
#: shard owning this key is confirmed dead and its state was not
#: migrated, so the request cannot be served until the shard returns.
SHARD_UNAVAILABLE = f"SHARD_UNAVAILABLE{CRLF}"


def parse_value_response(text: str) -> Optional[bytes]:
    """Extract the data from a VALUE response; None for a miss."""
    if text == END:
        return None
    if not text.startswith("VALUE "):
        raise ProtocolError(f"unexpected response {text[:32]!r}")
    header, _, rest = text.partition(CRLF)
    fields = header.split()
    if len(fields) != 4:
        raise ProtocolError(f"malformed VALUE header {header!r}")
    size = _int_field(fields[3], "VALUE: byte count")
    return rest[:size].encode("latin-1")
