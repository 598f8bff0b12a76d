"""Bit-exact ISAKMP phase-1 message codec.

Big-endian throughout.  A message is a 28-byte fixed header, a chain of
payloads (each a 4-byte generic header plus a typed body), and - when the
header's encryption flag is set - an optional opaque encrypted blob after
the chain.  The blob carries a whole payload chain sealed as one AEAD unit;
payloads that must stay readable (the device payload, or payloads whose
bodies are individually sealed) live in the clear chain before it.

A chain is its bodies, each payload's type read off its body's class; the
DEV body holds its sealed bytes once, nonce first.

The parser is total: any byte string yields either a message or one of the
named codec errors, never an uncontrolled exception.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from enum import IntEnum
from operator import attrgetter

from .errors import (
    BadLength,
    BadVersion,
    ChainMismatch,
    NonzeroReserved,
    Truncated,
    UnknownPayloadType,
)

ISAKMP_VERSION = 0x10
EXCHANGE_AGGRESSIVE = 4
FLAG_ENCRYPTION = 0x01

HEADER_LEN = 28
GENERIC_HEADER_LEN = 4
_HEADER = struct.Struct("!8s8sBBBBII")
_GENERIC_HEADER = struct.Struct("!BBH")

DEV_NONCE_LEN = 16
DEV_FORMAT_VERSION = 1
DEV_TAG_LEN = 16  # default AEAD suite tag width, fixed on the wire

NONCE_MIN = 8
NONCE_MAX = 256


class PayloadType(IntEnum):
    SA = 1
    KE = 4
    ID = 5
    CERT = 6
    SIG = 9
    NONCE = 10
    DEV = 55


# ---------------------------------------------------------------------------
# Payload bodies
# ---------------------------------------------------------------------------

@dataclass(frozen=True, slots=True)
class SaBody:
    """Security-association proposal, treated as opaque transform bytes."""
    proposal: bytes

    def __post_init__(self):
        if not self.proposal:
            raise ValueError("SA proposal must be non-empty")


@dataclass(frozen=True, slots=True)
class KeBody:
    public_value: bytes

    def __post_init__(self):
        if not self.public_value:
            raise ValueError("KE public value must be non-empty")


@dataclass(frozen=True, slots=True)
class NonceBody:
    nonce: bytes

    def __post_init__(self):
        if not NONCE_MIN <= len(self.nonce) <= NONCE_MAX:
            raise ValueError(
                f"nonce length {len(self.nonce)} outside [{NONCE_MIN}, {NONCE_MAX}]")


@dataclass(frozen=True, slots=True)
class IdBody:
    id_type: int
    identity: bytes


@dataclass(frozen=True, slots=True)
class CertBody:
    encoding: int
    certificate: bytes


@dataclass(frozen=True, slots=True)
class SigBody:
    signature: bytes

    def __post_init__(self):
        if not self.signature:
            raise ValueError("signature must be non-empty")


@dataclass(frozen=True, slots=True)
class DevBody:
    """Device-information payload body: the sealed 7-byte serial record,
    a crypto.seal() output (nonce || ciphertext || tag) held once."""
    sealed: bytes

    def __post_init__(self):
        if len(self.sealed) < DEV_NONCE_LEN + DEV_TAG_LEN:
            raise ValueError("DEV body shorter than an AEAD nonce and tag")

    @classmethod
    def from_sealed(cls, blob: bytes) -> "DevBody":
        """The same as ``DevBody(blob)``; perfbench/workloads.py calls it."""
        return cls(blob)

    @property
    def nonce(self) -> bytes:
        return self.sealed[:DEV_NONCE_LEN]


Body = SaBody | KeBody | NonceBody | IdBody | CertBody | SigBody | DevBody


@dataclass(slots=True)
class IsakmpMessage:
    """The fixed header's own fields, the clear payload chain and the
    encrypted blob after it, if any."""

    initiator_cookie: bytes
    responder_cookie: bytes
    exchange_type: int = EXCHANGE_AGGRESSIVE
    flags: int = 0
    message_id: int = 0
    payloads: list[Body] = field(default_factory=list)
    encrypted_chain: bytes | None = None

    @property
    def encrypted(self) -> bool:
        return bool(self.flags & FLAG_ENCRYPTION)

    def first(self, cls: type[Body]) -> Body | None:
        """The first clear payload body of class ``cls``, or None."""
        for body in self.payloads:
            if type(body) is cls:
                return body
        return None


# ---------------------------------------------------------------------------
# Body encode / parse
# ---------------------------------------------------------------------------

# Each body class's payload type and encoder, the one place both live.
_BODY_CODECS = {
    SaBody: (PayloadType.SA, attrgetter("proposal")),
    KeBody: (PayloadType.KE, attrgetter("public_value")),
    NonceBody: (PayloadType.NONCE, attrgetter("nonce")),
    IdBody: (PayloadType.ID, lambda body: bytes([body.id_type]) + body.identity),
    CertBody: (PayloadType.CERT,
               lambda body: bytes([body.encoding]) + body.certificate),
    SigBody: (PayloadType.SIG, attrgetter("signature")),
    DevBody: (PayloadType.DEV,
              lambda body: bytes([DEV_FORMAT_VERSION]) + body.sealed),
}

# Each body class's payload name, as the message log spells it.
PAYLOAD_NAMES = {cls: ptype.name for cls, (ptype, _) in _BODY_CODECS.items()}


def encode_body(body: Body) -> bytes:
    try:
        _, encode = _BODY_CODECS[type(body)]
    except KeyError:
        raise TypeError(f"unknown body {type(body)!r}") from None
    return encode(body)


# Body parsers by type code; a body type's own checks are the size rules.
_BODY_PARSERS = {
    PayloadType.SA: SaBody,
    PayloadType.KE: KeBody,
    PayloadType.NONCE: NonceBody,
    PayloadType.ID: lambda data: IdBody(data[0], data[1:]),
    PayloadType.CERT: lambda data: CertBody(data[0], data[1:]),
    PayloadType.SIG: SigBody,
    PayloadType.DEV: lambda data: DevBody(data[1:]),
}


# ---------------------------------------------------------------------------
# Chain encode / parse
# ---------------------------------------------------------------------------

def _encode_chain(bodies: list[Body]) -> tuple[int, bytes]:
    """The first body's type and the chain, whose generic headers each
    link to the type of the body after it (the last to 0), written once
    that type is known."""
    parts, first, data = [], 0, None   # data: the last body's bytes, header due
    for body in bodies:
        code = _BODY_CODECS[type(body)][0]
        if data is None:
            first = code
        else:
            parts += _GENERIC_HEADER.pack(code, 0, GENERIC_HEADER_LEN + len(data)), data
        data = encode_body(body)
    if data is not None:
        parts += _GENERIC_HEADER.pack(0, 0, GENERIC_HEADER_LEN + len(data)), data
    return first, b"".join(parts)


def _parse_chain(data: bytes, offset: int, first_type: int,
                 link_offset: int) -> tuple[list[Body], int]:
    """Parse payloads until a 0 link; returns (bodies, end offset)."""
    bodies = []
    code = first_type
    size = len(data)
    while code:
        parse = _BODY_PARSERS.get(code)
        if parse is None:
            raise UnknownPayloadType(f"payload type {code}", link_offset)
        if offset + GENERIC_HEADER_LEN > size:
            raise Truncated("generic payload header", offset)
        next_payload, reserved, plen = _GENERIC_HEADER.unpack_from(data, offset)
        if reserved:
            raise NonzeroReserved(f"reserved byte {reserved:#04x}", offset + 1)
        if plen < GENERIC_HEADER_LEN:
            raise BadLength(f"payload length {plen} below header size", offset + 2)
        if offset + plen > size:
            raise Truncated(f"payload claims {plen} bytes", offset + 2)
        start = offset + GENERIC_HEADER_LEN
        try:
            body = parse(data[start:offset + plen])
        except (ValueError, IndexError) as exc:
            raise BadLength(f"{PayloadType(code).name} body of "
                            f"{plen - GENERIC_HEADER_LEN} bytes: {exc}",
                            start) from None
        if type(body) is DevBody and data[start] != DEV_FORMAT_VERSION:
            raise BadVersion(f"DEV format version {data[start]}", start)
        bodies.append(body)
        link_offset = offset
        offset += plen
        code = next_payload
    return bodies, offset


# ---------------------------------------------------------------------------
# Message encode / decode
# ---------------------------------------------------------------------------

def encode_message(msg: IsakmpMessage) -> bytes:
    """Serialize; links, version and length are derived from the payloads."""
    if msg.encrypted_chain is not None and not msg.encrypted:
        raise ChainMismatch("encrypted chain present without encryption flag")
    first, chain = _encode_chain(msg.payloads)
    tail = msg.encrypted_chain or b""
    length = HEADER_LEN + len(chain) + len(tail)
    head = _HEADER.pack(msg.initiator_cookie, msg.responder_cookie,
                        first, ISAKMP_VERSION,
                        msg.exchange_type, msg.flags, msg.message_id, length)
    return head + chain + tail


def decode_message(data: bytes) -> IsakmpMessage:
    """Parse arbitrary bytes into a message or raise a named codec error."""
    size = len(data)
    if size < HEADER_LEN:
        raise Truncated(f"header needs {HEADER_LEN} bytes, got {size}", size)
    (cky_i, cky_r, next_payload, version, exchange_type, flags,
     message_id, length) = _HEADER.unpack_from(data)
    if version != ISAKMP_VERSION:
        raise BadVersion(f"version byte {version:#04x}", 17)
    if length != size:
        raise BadLength(f"header says {length} bytes, message has {size}", 24)
    payloads, offset = _parse_chain(data, HEADER_LEN, next_payload, 16)
    encrypted_chain = None
    if offset < size:
        if not flags & FLAG_ENCRYPTION:
            raise BadLength(
                f"{size - offset} trailing bytes without encryption flag",
                offset)
        encrypted_chain = data[offset:]
    return IsakmpMessage(cky_i, cky_r, exchange_type, flags, message_id,
                         payloads, encrypted_chain)


def link_payloads(bodies: list[Body]) -> list[Body]:
    """A copy of ``bodies``; kept because perfbench/workloads.py calls it."""
    return list(bodies)


def build_message(initiator_cookie: bytes, responder_cookie: bytes,
                  bodies: list[Body], *, flags: int = 0,
                  encrypted_chain: bytes | None = None) -> IsakmpMessage:
    """A phase-1 message (Message ID 0); the encoder derives links and length
    and turns away a chain without the encryption flag."""
    return IsakmpMessage(initiator_cookie, responder_cookie,
                         EXCHANGE_AGGRESSIVE, flags, 0, list(bodies),
                         encrypted_chain)


# ---------------------------------------------------------------------------
# Encrypted payload chains
# ---------------------------------------------------------------------------

def serialize_payload_chain(bodies: list[Body]) -> bytes:
    """Self-describing chain plaintext: leading type byte, then the chain."""
    first, chain = _encode_chain(bodies)
    return bytes([first]) + chain


def parse_payload_chain(data: bytes) -> list[Body]:
    if not data:
        raise Truncated("empty chain plaintext", 0)
    bodies, end = _parse_chain(data, 1, data[0], 0)
    if end != len(data):
        raise BadLength(f"{len(data) - end} trailing bytes after chain", end)
    return bodies


# ---------------------------------------------------------------------------
# Byte-range maps for tamper/observe tooling
# ---------------------------------------------------------------------------

@dataclass(frozen=True, slots=True)
class PayloadRange:
    type: PayloadType
    body_start: int
    body_end: int


def payload_byte_ranges(data: bytes) -> list[PayloadRange]:
    """Map each clear-chain payload to its body's byte range in ``data``."""
    msg = decode_message(data)
    ranges = []
    offset = HEADER_LEN
    for body in msg.payloads:
        ptype, encode = _BODY_CODECS[type(body)]
        body_len = len(encode(body))
        ranges.append(PayloadRange(ptype, offset + GENERIC_HEADER_LEN,
                                   offset + GENERIC_HEADER_LEN + body_len))
        offset += GENERIC_HEADER_LEN + body_len
    return ranges


# Canonical single-transform proposal: DOI, situation, one proposal with one
# transform carrying cipher/hash/auth/group attribute pairs.
def _default_sa() -> bytes:
    attrs = struct.pack("!HHHHHHHH",
                        0x8001, 7,    # encryption algorithm
                        0x8002, 4,    # hash algorithm
                        0x8003, 3,    # auth method: signature
                        0x8004, 14)   # DH group
    transform = struct.pack("!BBBB", 1, 1, 0, 0) + attrs
    proposal = struct.pack("!BBBB", 1, 1, 0, 1) + transform
    return struct.pack("!II", 1, 1) + proposal


DEFAULT_SA_PROPOSAL = _default_sa()
