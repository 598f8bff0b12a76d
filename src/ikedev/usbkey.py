"""Emulated computer-security USB key device.

The device owns a unique 7-byte serial, the fleet-wide secret ``key1``, a
signing keypair and a certificate.  Secret material never crosses the
device boundary: callers get ciphertext, plaintext, signatures or the
certificate, never key bytes.  Memory is partitioned into regions with a
fixed host-access policy (manager regions are sealed, the virtual CD is
read-only, the user region is read-write).  That policy decides the
``certificate_storage`` cell, through :func:`host_reads_signing_key`.

A device seals only its own serial, as its DEV record, and only under its
own chain key, so a token holder cannot claim another device's serial.  An
insider who extracted key1 from a device still can.

Module-level ``device_*`` functions accept ``None`` for principals that
carry no device and raise :class:`~ikedev.errors.DeviceAbsent`, which is
how a negotiation stop on a missing device is modelled.
"""

from __future__ import annotations

import hashlib
import struct
from dataclasses import dataclass, field
from enum import Enum

from cryptography.hazmat.primitives.asymmetric.ed25519 import Ed25519PrivateKey

from . import crypto
from .errors import BadLength, DeviceAbsent, PermissionDenied

SERIAL_LEN = crypto.SERIAL_LEN

VIRTUAL_CD_IMAGE = b"IKEDEV-VCD\x00utility image placeholder"


class RegionId(Enum):
    MANAGER_PRIVATE_KEY = "manager_private_key"
    MANAGER_ALGORITHM = "manager_algorithm"
    MANAGER_CERTIFICATE = "manager_certificate"
    VIRTUAL_CD = "virtual_cd"
    USER_DATA = "user_data"


class RegionOp(Enum):
    READ = "read"
    WRITE = "write"


# (host may read, host may write) per region
ACCESS_POLICY = {
    RegionId.MANAGER_PRIVATE_KEY: (False, False),
    RegionId.MANAGER_ALGORITHM: (False, False),
    RegionId.MANAGER_CERTIFICATE: (False, False),
    RegionId.VIRTUAL_CD: (True, False),
    RegionId.USER_DATA: (True, True),
}


# ---------------------------------------------------------------------------
# Certificates
# ---------------------------------------------------------------------------

CERT_VERSION = 1
NO_SERIAL_BINDING = b"\x00" * SERIAL_LEN


@dataclass(frozen=True)
class Certificate:
    """Self-contained signing certificate, optionally bound to a device serial."""

    subject: str
    public_key: bytes
    serial_binding: bytes
    encoded: bytes


def make_certificate(subject: str, serial_binding: bytes,
                     private_key: Ed25519PrivateKey,
                     public_key: bytes) -> Certificate:
    subject_b = subject.encode()
    if len(subject_b) > 255:
        raise ValueError("subject too long")
    body = struct.pack("!BB", CERT_VERSION, len(subject_b)) + subject_b
    body += serial_binding + public_key
    encoded = body + crypto.sign(private_key, body)
    return Certificate(subject, public_key, serial_binding, encoded)


def decode_certificate(data: bytes) -> Certificate:
    if len(data) < 2:
        raise BadLength("certificate too short", 0)
    version, subject_len = struct.unpack_from("!BB", data)
    if version != CERT_VERSION:
        raise BadLength(f"unsupported certificate version {version}", 0)
    end = 2 + subject_len + SERIAL_LEN + crypto.PUBLIC_KEY_LEN
    if len(data) != end + crypto.SIGNATURE_LEN:
        raise BadLength("certificate length mismatch", len(data))
    subject = data[2:2 + subject_len].decode(errors="replace")
    serial = data[2 + subject_len:2 + subject_len + SERIAL_LEN]
    public_key = data[2 + subject_len + SERIAL_LEN:end]
    return Certificate(subject, public_key, serial, data)


def verify_certificate(cert: Certificate) -> bool:
    """Check the certificate's self-signature (single-cert model, no chains)."""
    body = cert.encoded[:-crypto.SIGNATURE_LEN]
    return crypto.verify(cert.public_key, body, cert.encoded[-crypto.SIGNATURE_LEN:])


@dataclass(frozen=True)
class FileIdentity:
    """Key material held as plain host-readable bytes (a *.p12-style file).

    This is the baseline's storage model: the private key sits outside any
    device and is available to whatever can read the file, loaded once as
    ``signing_key``.
    """

    certificate: Certificate
    signing_key: Ed25519PrivateKey = field(repr=False, compare=False)


def make_file_identity(subject: str, seed: bytes) -> FileIdentity:
    signing_key, public = crypto.signature_keypair(seed)
    cert = make_certificate(subject, NO_SERIAL_BINDING, signing_key, public)
    return FileIdentity(cert, signing_key)


# ---------------------------------------------------------------------------
# Deployment and the device itself
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DeploymentConfig:
    """Fleet-wide device provisioning: the shared key1 and the key seed."""

    key1: bytes
    seed: int = 0

    def __post_init__(self):
        if len(self.key1) != crypto.AES256GCM.key_size:
            raise ValueError(
                f"key1 must be {crypto.AES256GCM.key_size} bytes")


@dataclass
class SecurityToken:
    serial: bytes
    certificate: Certificate
    _key1: bytes = field(repr=False)
    _signing_key: Ed25519PrivateKey = field(repr=False, compare=False)
    _rng: object = field(repr=False)
    _regions: dict = field(repr=False)


def create_token(serial: bytes, deployment: DeploymentConfig,
                 subject: str) -> SecurityToken:
    """Provision one device: fresh keypair, self-contained certificate,
    regions initialised per the access-policy table."""
    crypto.check_serial(serial)
    private = hashlib.sha256(
        b"ikedev/token-keygen|%d|" % deployment.seed + serial).digest()
    signing_key, public = crypto.signature_keypair(private)
    cert = make_certificate(subject, serial, signing_key, public)
    regions = {
        RegionId.MANAGER_PRIVATE_KEY: private + serial,
        RegionId.MANAGER_ALGORITHM: b"\x01",  # AES-256-GCM
        RegionId.MANAGER_CERTIFICATE: cert.encoded,
        RegionId.VIRTUAL_CD: VIRTUAL_CD_IMAGE,
        RegionId.USER_DATA: b"",
    }
    rng = crypto.derive_rng(deployment.seed, f"token-nonce|{serial.hex()}")
    return SecurityToken(
        serial=serial, certificate=cert, _key1=deployment.key1,
        _signing_key=signing_key, _rng=rng, _regions=regions)


def _require(token: SecurityToken | None) -> SecurityToken:
    if token is None:
        raise DeviceAbsent("no security key device attached")
    return token


# ---------------------------------------------------------------------------
# On-device operations
# ---------------------------------------------------------------------------

def device_get_certificate(token: SecurityToken | None) -> Certificate:
    return _require(token).certificate


def device_encrypt(token: SecurityToken | None) -> bytes:
    """Seal the device's own serial under key1: its DEV record."""
    token = _require(token)
    return crypto.seal(crypto.AES256GCM, token._key1, token._rng, token.serial)


def device_decrypt(token: SecurityToken | None, ciphertext: bytes) -> bytes:
    """Open a key1 blob; tag failure means the sender is not legitimate."""
    if token is None:
        raise DeviceAbsent("no security key device attached")
    return crypto.open_sealed(crypto.AES256GCM, token._key1, ciphertext)


def device_session_encrypt(token: SecurityToken | None,
                           plaintext: bytes) -> bytes:
    """Seal under the device's own chain key, kdf_session(key1, serial).

    Computed on-device so key1 never leaves; a peer opens it with the
    serial carried in the same message's device payload.
    """
    token = _require(token)
    key = crypto.kdf_session(token._key1, token.serial)
    return crypto.seal(crypto.AES256GCM, key, token._rng, plaintext)


def device_session_decrypt(token: SecurityToken | None, serial: bytes,
                           blob: bytes) -> bytes:
    token = _require(token)
    key = crypto.kdf_session(token._key1, serial)
    return crypto.open_sealed(crypto.AES256GCM, key, blob)


def device_sign(token: SecurityToken | None, data: bytes) -> bytes:
    token = _require(token)
    if not data:
        raise ValueError("data must be non-empty")
    return crypto.sign(token._signing_key, data)


def region_access(token: SecurityToken | None, region: RegionId, op: RegionOp,
                  data: bytes | None = None) -> bytes | None:
    """Host access to device memory, gated by the fixed policy table."""
    token = _require(token)
    may_read, may_write = ACCESS_POLICY[region]
    if op is RegionOp.READ:
        if not may_read:
            raise PermissionDenied(f"read denied on {region.value}")
        return token._regions[region]
    if op is RegionOp.WRITE:
        if not may_write:
            raise PermissionDenied(f"write denied on {region.value}")
        token._regions[region] = bytes(data or b"")
        return None
    raise ValueError(f"unsupported region op {op}")


def host_reads_signing_key(token: SecurityToken) -> bool:
    """Whether a region the host may read holds this device's signing key."""
    key = token._signing_key.private_bytes_raw()
    return any(key in region_access(token, region, RegionOp.READ)
               for region, (may_read, _) in ACCESS_POLICY.items() if may_read)
