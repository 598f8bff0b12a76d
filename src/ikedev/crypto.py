"""Cryptographic primitives and the phase-1 key-derivation formulas.

Everything here is a pure function of its inputs; randomness always comes
from a caller-supplied ``random.Random`` so simulation runs are exactly
reproducible from a seed.  The primitives are fixed: AES-256-GCM for
sealing, Ed25519 for signatures, HMAC-SHA256 as the PRF, and OpenSSL's
Diffie-Hellman for the modexp on groups that it accepts.
"""

from __future__ import annotations

import _random
import functools
import hashlib
import random
from dataclasses import dataclass
from typing import NamedTuple

from cryptography.exceptions import InvalidSignature, InvalidTag
from cryptography.hazmat.primitives import serialization
from cryptography.hazmat.primitives.asymmetric import dh
from cryptography.hazmat.primitives.asymmetric.ed25519 import (
    Ed25519PrivateKey,
    Ed25519PublicKey,
)
from cryptography.hazmat.primitives.ciphers.aead import AESGCM

from .errors import AuthFailure, InvalidSerialLength, MalformedCiphertext, WeakPublicValue

SERIAL_LEN = 7

SIGNATURE_LEN = 64
PUBLIC_KEY_LEN = 32


def derive_rng(seed: int, label: str) -> random.Random:
    """Independent sub-generator for (seed, label); stable across call order.

    Its stream is ``random.Random(int(sha256(f"{seed}|{label}")))``, hashed
    and seeded on first use: a session that never draws (a responder
    rejecting a forged message 1 at the gate) skips both the SHA-256 and the
    ~7 us Mersenne Twister set-up.
    """
    return _SeedOnFirstUse(seed, label)


def _switching(name: str, seeded: bool):
    """A method that makes the object a plain ``random.Random``, seeded from
    the kept (seed, label) if ``seeded``, and then calls its ``name``.  A
    bound method taken before the switch (``choices`` keeps ``self.random``)
    finds nothing kept when called again.  It seeds via ``_random``: what
    ``random.Random.seed`` adds, ``gauss_next = None``, ``__init__`` did."""
    def method(self, *args, **kwargs):
        kept = self.__dict__.pop("_kept", None)
        if kept is not None:
            self.__class__ = random.Random
            if seeded:
                seed, label = kept
                digest = hashlib.sha256(f"{seed}|{label}".encode()).digest()
                _random.Random.seed(self, int.from_bytes(digest, "big"))
        return getattr(self, name)(*args, **kwargs)
    return method


class _SeedOnFirstUse(random.Random):
    """A ``random.Random`` that keeps its (seed, label) until first used.

    Every draw reaches ``random`` or ``getrandbits`` (defining the latter
    keeps ``_randbelow_with_getrandbits``), and ``getstate`` and
    ``__reduce__`` (pickle, copy) read the state, so these seed first; a
    first ``seed`` or ``setstate`` drops what is kept instead.  After
    either, later calls cost what they cost on a plain ``random.Random``.
    """

    def __init__(self, seed: int, label: str) -> None:
        self._kept = seed, label
        self.gauss_next = None

    random = _switching("random", seeded=True)
    getrandbits = _switching("getrandbits", seeded=True)
    getstate = _switching("getstate", seeded=True)
    __reduce__ = _switching("__reduce__", seeded=True)
    seed = _switching("seed", seeded=False)
    setstate = _switching("setstate", seeded=False)


# ---------------------------------------------------------------------------
# Diffie-Hellman
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class DhGroup:
    """Multiplicative group mod p with generator g.

    ``value_size`` is the fixed big-endian width of public values and shared
    secrets on the wire.  A group equals only itself: caches hash it by id.
    """

    name: str
    p: int
    g: int
    exponent_bits: int

    @functools.cached_property
    def value_size(self) -> int:
        return (self.p.bit_length() + 7) // 8

    @functools.cached_property
    def in_openssl(self) -> bool:
        """Whether OpenSSL does the modexp: it refuses a modulus of under
        512 bits, so smaller groups, ``desk64`` among them, stay in Python."""
        return self.p.bit_length() >= 512

    def encode(self, value: int) -> bytes:
        return value.to_bytes(self.value_size, "big")


# Small group for fast deterministic simulation runs; 2**64 - 59 is prime.
DESK_GROUP = DhGroup(name="desk64", p=2**64 - 59, g=2, exponent_bits=56)

# RFC 3526 group 14 (2048-bit MODP).
_MODP2048_P = int(
    "FFFFFFFFFFFFFFFFC90FDAA22168C234C4C6628B80DC1CD1"
    "29024E088A67CC74020BBEA63B139B22514A08798E3404DD"
    "EF9519B3CD3A431B302B0A6DF25F14374FE1356D6D51C245"
    "E485B576625E7EC6F44C42E9A637ED6B0BFF5CB6F406B7ED"
    "EE386BFB5A899FA5AE9F24117C4B1FE649286651ECE45B3D"
    "C2007CB8A163BF0598DA48361C55D39A69163FA8FD24CF5F"
    "83655D23DCA3AD961C62F356208552BB9ED529077096966D"
    "670C354E4ABC9804F1746C08CA18217C32905E462E36CE3B"
    "E39E772C180E86039B2783A2EC07A28FB5C55DF06F4C52C9"
    "DE2BCBF6955817183995497CEA956AE515D2261898FA0510"
    "15728E5A8AACAA68FFFFFFFFFFFFFFFF",
    16,
)
MODP2048_GROUP = DhGroup(name="modp2048", p=_MODP2048_P, g=2, exponent_bits=256)


GROUPS = {group.name: group for group in (DESK_GROUP, MODP2048_GROUP)}


@functools.cache
def _openssl_parameters(group: DhGroup) -> dh.DHParameterNumbers:
    return dh.DHParameterNumbers(group.p, group.g)


def _openssl_modexp(group: DhGroup, base: int, x: int) -> bytes:
    """base^x mod p from OpenSSL's DH exchange, padded to the group's width.

    The private key's public value is a placeholder (g): ``exchange`` reads
    only x, and checks neither that value nor that ``base`` lies in the
    prime-order subgroup, so it returns ``pow(base, x, p)`` for every base
    in [2, p-2].
    """
    params = _openssl_parameters(group)
    key = dh.DHPrivateNumbers(x, dh.DHPublicNumbers(group.g, params)).private_key()
    return key.exchange(dh.DHPublicNumbers(base, params).public_key())


# Exponent bits per row of a fixed-base table: one table lookup and one
# multiplication per window of the exponent.  A window is one byte, because
# dh_keypair splits the exponent with int.to_bytes.
_WINDOW_BITS = 8


@functools.cache
def _fixed_base_table(group: DhGroup) -> tuple[tuple[int, ...], ...]:
    """Row i holds g^(d * 2^(8i)) mod p for every window digit d < 256.

    Fixed-base windowing (HAC section 14.6.3): with the rows precomputed,
    g^x is the product of one entry per 8-bit window of x, little end
    first, and needs no squarings.  The table is a pure function of the
    group, so one copy per group serves every caller in the process.  Only
    groups that OpenSSL refuses use it: on ``desk64`` it holds ~80 KB, is
    built in under 1 ms, and gives a keypair in ~6 us where ``pow`` takes
    ~18 us.
    """
    rows = []
    base = group.g
    for _ in range(-(-group.exponent_bits // _WINDOW_BITS)):
        row = [1]
        for _ in range((1 << _WINDOW_BITS) - 1):
            row.append(row[-1] * base % group.p)
        rows.append(tuple(row))
        base = row[-1] * base % group.p
    return tuple(rows)


def dh_keypair(group: DhGroup, rng: random.Random) -> tuple[int, bytes]:
    """Fresh secret exponent and its public value g^x mod p (fixed width).

    On a group of 512 bits or more (``modp2048``), g^x comes from OpenSSL
    (``_openssl_modexp`` with base g), ~0.6 ms.  On a smaller group it is
    read off the group's fixed-base table (``_fixed_base_table``): the
    product of ceil(exponent_bits / 8) entries, 7 on ``desk64``, reduced
    mod p once, which costs less than a reduction after each product.
    """
    p = group.p
    x = 0
    while not 1 <= x <= p - 2:
        x = rng.getrandbits(group.exponent_bits)
    if group.in_openssl:
        return x, _openssl_modexp(group, group.g, x)
    table = _fixed_base_table(group)
    gx = 1
    for row, digit in zip(table, x.to_bytes(len(table), "little")):
        gx *= row[digit]
    return x, group.encode(gx % p)


def dh_shared(group: DhGroup, x: int, peer_gx: bytes) -> bytes:
    """Shared secret peer_gx^x mod p; rejects degenerate public values.

    The range check stays here, ahead of OpenSSL, so a degenerate value is
    always :class:`WeakPublicValue` and never OpenSSL's ``ValueError``.
    """
    value = int.from_bytes(peer_gx, "big")
    if not 2 <= value <= group.p - 2:
        raise WeakPublicValue(f"public value {value} outside [2, p-2]")
    if group.in_openssl:
        return _openssl_modexp(group, value, x)
    return group.encode(pow(value, x, group.p))


# ---------------------------------------------------------------------------
# PRF and phase-1 derivations
# ---------------------------------------------------------------------------

_BLOCK = 64   # SHA-256's block, in bytes
_IPAD = bytes(b ^ 0x36 for b in range(256))
_OPAD = bytes(b ^ 0x5C for b in range(256))


@functools.lru_cache(maxsize=64)
def _hmac_pads(key: bytes) -> tuple[bytes, bytes]:
    """The key XOR ipad and XOR opad blocks; a key is used up to four times
    in a row (SKEYID for its ladder and HASH_R), so its pads are kept."""
    if len(key) > _BLOCK:
        key = hashlib.sha256(key).digest()
    key = key.ljust(_BLOCK, b"\0")
    return key.translate(_IPAD), key.translate(_OPAD)


def prf(key: bytes, data: bytes) -> bytes:
    """HMAC-SHA256 (RFC 2104) from two SHA-256 calls, which cost less than
    one ``hmac.new`` on OpenSSL 3 and later."""
    ipad, opad = _hmac_pads(key)
    return hashlib.sha256(opad + hashlib.sha256(ipad + data).digest()).digest()


class SkeyidBundle(NamedTuple):
    """Phase-1 master keying material and its derived sub-keys."""

    skeyid: bytes
    skeyid_d: bytes
    skeyid_a: bytes
    skeyid_e: bytes


def derive_skeyid(ni: bytes, nr: bytes, gxy: bytes,
                  cky_i: bytes, cky_r: bytes) -> SkeyidBundle:
    """Signature-authentication SKEYID ladder.

    SKEYID   = prf(Ni | Nr, g^xy)
    SKEYID_d = prf(SKEYID, g^xy | CKY-I | CKY-R | 0)
    SKEYID_a = prf(SKEYID, SKEYID_d | g^xy | CKY-I | CKY-R | 1)
    SKEYID_e = prf(SKEYID, SKEYID_a | g^xy | CKY-I | CKY-R | 2)
    SKEYID keys the last three, so its HMAC pads are looked up once."""
    skeyid = prf(ni + nr, gxy)
    ipad, opad = _hmac_pads(skeyid)
    tail = gxy + cky_i + cky_r
    keys = [skeyid]
    prev = b""   # SKEYID_d chains no earlier sub-key
    for index in (b"\x00", b"\x01", b"\x02"):
        inner = hashlib.sha256(ipad + prev + tail + index).digest()
        prev = hashlib.sha256(opad + inner).digest()
        keys.append(prev)
    return SkeyidBundle(*keys)


def compute_hash(skeyid: bytes, gx_signer: bytes, gx_peer: bytes,
                 cky_signer: bytes, cky_peer: bytes, sa_bytes: bytes,
                 id_bytes: bytes) -> bytes:
    """prf(SKEYID, g^x | g^x' | CKY | CKY' | SA_b | ID_b) with the signer's
    DH value and cookie first: HASH_I for the initiator, and HASH_R, the
    same with the responder's values first (RFC 2409 section 5)."""
    return prf(skeyid, gx_signer + gx_peer + cky_signer + cky_peer
               + sa_bytes + id_bytes)


# ---------------------------------------------------------------------------
# Key derivation for the device-gated variant
# ---------------------------------------------------------------------------

def check_serial(serial: bytes) -> None:
    if len(serial) != SERIAL_LEN:
        raise InvalidSerialLength(f"serial must be {SERIAL_LEN} bytes, got {len(serial)}")


def kdf_serial(serial: bytes) -> bytes:
    """Stretch a 7-byte device serial to a full-width cipher key."""
    check_serial(serial)
    return prf(b"ikedev/serial-key/v1", serial)


def kdf_session(key1: bytes, serial: bytes) -> bytes:
    """Per-sender chain key binding the fleet secret to one device serial."""
    check_serial(serial)
    return prf(key1, b"ikedev/session-key/v1" + serial)


# ---------------------------------------------------------------------------
# Authenticated encryption
# ---------------------------------------------------------------------------

@dataclass(frozen=True, slots=True)
class AeadSuite:
    """AEAD cipher parameters; ``seal``/``open_sealed`` do nonce framing."""

    name: str
    key_size: int
    nonce_size: int
    tag_size: int


AES256GCM = AeadSuite(name="aes256gcm", key_size=32, nonce_size=16, tag_size=16)


# An AESGCM is a stateless function of its key, so one per key serves every
# call and its key schedule (~2 us) is built once.  Bounded.
_aesgcm = functools.lru_cache(maxsize=64)(AESGCM)


def seal(suite: AeadSuite, key: bytes, rng: random.Random,
         plaintext: bytes) -> bytes:
    """Encrypt with a fresh random nonce; returns nonce || ciphertext || tag."""
    nonce = rng.randbytes(suite.nonce_size)
    return nonce + _aesgcm(key).encrypt(nonce, plaintext, b"")


def open_sealed(suite: AeadSuite, key: bytes, blob: bytes) -> bytes:
    """Authenticate and decrypt a :func:`seal` blob."""
    split = suite.nonce_size
    if len(blob) < split + suite.tag_size:
        raise MalformedCiphertext(
            f"ciphertext of {len(blob)} bytes cannot hold nonce and tag")
    try:
        return _aesgcm(key).decrypt(blob[:split], blob[split:], b"")
    except InvalidTag:
        pass    # raised below, outside the handler, it chains no context
    raise AuthFailure("authentication tag mismatch")


# ---------------------------------------------------------------------------
# Signatures
# ---------------------------------------------------------------------------

def signature_keypair(seed: bytes) -> tuple[Ed25519PrivateKey, bytes]:
    """Deterministic Ed25519 keypair from 32 seed bytes -> (private, public).

    The private key is returned as the key object so holders can sign with
    it repeatedly; its raw bytes are ``seed[:32]``.
    """
    priv = Ed25519PrivateKey.from_private_bytes(seed[:32])
    pub = priv.public_key().public_bytes(
        encoding=serialization.Encoding.Raw, format=serialization.PublicFormat.Raw)
    return priv, pub


def sign(private_key: Ed25519PrivateKey, data: bytes) -> bytes:
    """Ed25519 signature; deterministic (RFC 8032 section 5.1.6)."""
    return private_key.sign(data)


def verify(public_key: bytes, data: bytes, signature: bytes) -> bool:
    try:
        Ed25519PublicKey.from_public_bytes(public_key).verify(signature, data)
        return True
    except InvalidSignature:
        return False
