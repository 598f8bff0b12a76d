"""Exception hierarchy shared across the package.

Codec errors carry the byte offset at which decoding gave up, so a fuzz
harness or a packet dissector can point at the exact spot in a capture.
"""


class IkeDevError(Exception):
    """Base class for every error raised by this package."""


# --- device / crypto -------------------------------------------------------

class InvalidSerialLength(IkeDevError):
    """Device serials are exactly 7 bytes."""


class DeviceAbsent(IkeDevError):
    """The principal has no security key device attached."""


class AuthFailure(IkeDevError):
    """A seal did not open: authenticated decryption's one FAIL outcome
    (RFC 5116 section 2.2), whatever the cause."""


class MalformedCiphertext(AuthFailure):
    """A seal too short to hold nonce and tag, which is a seal that does not
    open; a handler of ``AuthFailure`` handles it too."""


class PermissionDenied(IkeDevError):
    """Device memory region does not allow the requested operation."""


class WeakPublicValue(IkeDevError):
    """Peer Diffie-Hellman public value is 0, 1 or p-1 (or out of range)."""


# --- codec -----------------------------------------------------------------

class CodecError(IkeDevError):
    """Base class for wire-format errors; ``offset`` locates the fault."""

    def __init__(self, message: str, offset: int = 0):
        super().__init__(f"{message} (offset {offset})")
        self.offset = offset


class Truncated(CodecError):
    pass


class BadVersion(CodecError):
    pass


class BadLength(CodecError):
    pass


class UnknownPayloadType(CodecError):
    pass


class NonzeroReserved(CodecError):
    pass


class ChainMismatch(IkeDevError):
    """An encrypted chain is given without the header's encryption flag."""


# --- simulator / cli -------------------------------------------------------

class ConfigError(IkeDevError):
    """Scenario configuration is malformed or references unknown entities."""


class SelectorMiss(IkeDevError):
    """A tamper selector did not resolve to a byte position."""


class IncompleteTrace(IkeDevError):
    """Verdicts requested from a trace that lacks a required scenario."""
