"""Primitive-level checks against independent oracles.

The PRF is checked against an RFC 4231 vector and a from-scratch
ipad/opad construction; signatures against RFC 8032 TEST 1; the DH layer
against hand-sized numbers small enough to verify on paper, and both of
its fast paths, the fixed-base table on ``desk64`` and OpenSSL on
``modp2048``, against ``pow``.
"""

import copy
import hashlib
import hmac
import os
import pickle
import random
import subprocess
import sys
from pathlib import Path

import pytest
from cryptography.hazmat.primitives.ciphers.aead import AESGCM
from hypothesis import given, settings
from hypothesis import strategies as st

from ikedev import crypto
from ikedev.errors import (
    AuthFailure,
    InvalidSerialLength,
    MalformedCiphertext,
    WeakPublicValue,
)


# --- Diffie-Hellman --------------------------------------------------------

def test_dh_tiny_group_known_values():
    # p=23, g=2: 2^6 mod 23 = 18 and both sides land on 2^30 mod 23 = 3
    # (the order of 2 mod 23 is 11, so 2^30 = 2^8 = 256 - 11*23 = 3).
    group = crypto.DhGroup(name="tiny", p=23, g=2, exponent_bits=4)
    assert pow(2, 6, 23) == 18
    gx = group.encode(pow(group.g, 6, group.p))
    gy = group.encode(pow(group.g, 5, group.p))
    assert crypto.dh_shared(group, 5, gx) == crypto.dh_shared(group, 6, gy)
    assert crypto.dh_shared(group, 5, gx) == group.encode(3)


def test_dh_symmetry_many_pairs():
    rng = random.Random(101)
    group = crypto.DESK_GROUP
    for _ in range(100):
        xa, ga = crypto.dh_keypair(group, rng)
        xb, gb = crypto.dh_keypair(group, rng)
        assert crypto.dh_shared(group, xa, gb) == crypto.dh_shared(group, xb, ga)


def test_dh_symmetry_modp2048():
    rng = random.Random(102)
    group = crypto.MODP2048_GROUP
    for _ in range(3):
        xa, ga = crypto.dh_keypair(group, rng)
        xb, gb = crypto.dh_keypair(group, rng)
        assert crypto.dh_shared(group, xa, gb) == crypto.dh_shared(group, xb, ga)


class _FixedExponent:
    """Stands in for the RNG so dh_keypair draws exactly ``x``."""

    def __init__(self, x: int):
        self.x = x

    def getrandbits(self, bits: int) -> int:
        return self.x


GROUPS = [crypto.DESK_GROUP, crypto.MODP2048_GROUP]


@pytest.mark.parametrize("group", GROUPS, ids=lambda g: g.name)
def test_dh_keypair_matches_pow_at_window_edges(group):
    bits = group.exponent_bits
    windows = -(-bits // 8)
    exponents = [
        1,
        2**bits - 1,                                   # every window 0xff
        0xA5 << 8 * (windows // 2),                    # one nonzero window
        (0x01 << 8 * (windows - 1)) | (0x80 << 8) | 0x7F,  # zero windows between
    ]
    for x in exponents:
        assert crypto.dh_keypair(group, _FixedExponent(x)) == (
            x, group.encode(pow(group.g, x, group.p)))


@pytest.mark.parametrize("group", GROUPS, ids=lambda g: g.name)
def test_dh_keypair_matches_pow_on_seeded_draws(group):
    rng = random.Random(103)
    for _ in range(50):
        x, gx = crypto.dh_keypair(group, rng)
        assert gx == group.encode(pow(group.g, x, group.p))


# SHA-256 over the first 20 modp2048 public values drawn from
# random.Random(7), recorded while dh_keypair still called pow.
MODP2048_PUBLIC_DIGEST = (
    "680134f6e4bad7aea072f92fb0172c87ad19ebbe579459969cf651ef164ab3ea")


def test_modp2048_public_values_match_the_recorded_digest():
    rng = random.Random(7)
    digest = hashlib.sha256()
    for _ in range(20):
        digest.update(crypto.dh_keypair(crypto.MODP2048_GROUP, rng)[1])
    assert digest.hexdigest() == MODP2048_PUBLIC_DIGEST


# SHA-256 over dh_shared(G, xa, gb) for 20 pairs of modp2048 keypairs
# (xa, _), (_, gb) drawn from random.Random(7), recorded while dh_shared
# still called pow.
MODP2048_SHARED_DIGEST = (
    "f21fa8f27afa6194920deb24968fdd44ff4bba5a21ab0bc63ed7eff1e51855cd")


def test_modp2048_shared_secrets_match_the_recorded_digest():
    group = crypto.MODP2048_GROUP
    rng = random.Random(7)
    digest = hashlib.sha256()
    for _ in range(20):
        xa, _ = crypto.dh_keypair(group, rng)
        _, gb = crypto.dh_keypair(group, rng)
        digest.update(crypto.dh_shared(group, xa, gb))
    assert digest.hexdigest() == MODP2048_SHARED_DIGEST


def test_openssl_modexp_keeps_leading_zeros_and_takes_any_base():
    group = crypto.MODP2048_GROUP
    # g^x for this x is below 2^2040, so its first byte on the wire is zero.
    x = 0xD8C741E1E949CE8E3C091C426A1CC6A617ED9B3FDACA4A4C5115F659543DE6CE
    _, gx = crypto.dh_keypair(group, _FixedExponent(x))
    assert gx[0] == 0 and gx == group.encode(pow(group.g, x, group.p))
    # 11 is a quadratic non-residue mod this p, so it lies outside the
    # subgroup that g generates; a tampered KE may carry such a value.
    assert crypto.dh_shared(group, x, group.encode(11)) == group.encode(
        pow(11, x, group.p))


def test_importing_ikedev_builds_no_fixed_base_table():
    code = ("import random, ikedev, ikedev.cli, ikedev.netsim, "
            "ikedev.crypto as c; "
            "print(c._fixed_base_table.cache_info().currsize, "
            "c._openssl_parameters.cache_info().currsize); "
            "c.dh_keypair(c.MODP2048_GROUP, random.Random(1)); "
            "print(c._fixed_base_table.cache_info().currsize)")
    src = str(Path(crypto.__file__).resolve().parent.parent)
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True, env={**os.environ,
                                                     "PYTHONPATH": src})
    assert out.stdout.split() == ["0", "0", "0"]


@pytest.mark.parametrize("value", [0, 1])
def test_dh_rejects_weak_small_values(value):
    group = crypto.DESK_GROUP
    with pytest.raises(WeakPublicValue):
        crypto.dh_shared(group, 5, group.encode(value))


_MODP_P = crypto.MODP2048_GROUP.p


@pytest.mark.parametrize("peer", [
    crypto.MODP2048_GROUP.encode(0), crypto.MODP2048_GROUP.encode(1),
    crypto.MODP2048_GROUP.encode(_MODP_P - 1),
    crypto.MODP2048_GROUP.encode(_MODP_P), b"\xff" * 256,
], ids=["0", "1", "p-1", "p", "all-ff"])
def test_modp2048_rejects_weak_values_before_openssl(peer):
    # OpenSSL would raise ValueError for these; the caller sees one error.
    with pytest.raises(WeakPublicValue):
        crypto.dh_shared(crypto.MODP2048_GROUP, 5, peer)


def test_dh_rejects_p_minus_1_and_out_of_range():
    group = crypto.DESK_GROUP
    with pytest.raises(WeakPublicValue):
        crypto.dh_shared(group, 5, group.encode(group.p - 1))
    with pytest.raises(WeakPublicValue):
        crypto.dh_shared(group, 5, b"\xff" * group.value_size)


def test_desk_group_parameters():
    assert crypto.DESK_GROUP.p == 2**64 - 59
    assert crypto.DESK_GROUP.value_size == 8
    assert crypto.MODP2048_GROUP.value_size == 256


def test_modp2048_spot_check():
    # The well-known 2048-bit prime starts and ends with 64 one-bits.
    p = crypto.MODP2048_GROUP.p
    assert p % 2 == 1
    assert p >> (2048 - 64) == 2**64 - 1
    assert p & (2**64 - 1) == 2**64 - 1


# --- PRF (HMAC-SHA256) -----------------------------------------------------

def _hmac_oracle(key: bytes, data: bytes) -> bytes:
    """Independent HMAC construction straight from the definition."""
    block = 64
    if len(key) > block:
        key = hashlib.sha256(key).digest()
    key = key.ljust(block, b"\x00")
    ipad = bytes(b ^ 0x36 for b in key)
    opad = bytes(b ^ 0x5C for b in key)
    inner = hashlib.sha256(ipad + data).digest()
    return hashlib.sha256(opad + inner).digest()


def test_prf_rfc4231_case_1():
    key = b"\x0b" * 20
    expected = ("b0344c61d8db38535ca8afceaf0bf12b"
                "881dc200c9833da726e9376c2e32cff7")
    assert crypto.prf(key, b"Hi There").hex() == expected
    assert _hmac_oracle(key, b"Hi There").hex() == expected


@pytest.mark.parametrize("key, data, expected", [
    pytest.param(b"Jefe", b"what do ya want for nothing?",
                 "5bdcc146bf60754e6a042426089575c7"
                 "5a003f089d2739839dec58b964ec3843", id="case-2"),
    pytest.param(b"\xaa" * 20, b"\xdd" * 50,
                 "773ea91e36800e46854db8ebd09181a7"
                 "2959098b3ef8c122d9635514ced565fe", id="case-3"),
    pytest.param(bytes(range(1, 26)), b"\xcd" * 50,
                 "82558a389a443c0ea4cc819899f2083a"
                 "85f0faa3e578f8077a2e3ff46729665b", id="case-4"),
    pytest.param(b"\xaa" * 131,
                 b"Test Using Larger Than Block-Size Key - Hash Key First",
                 "60e431591ee0b67f0d8a26aacbf5b77f"
                 "8e0bc6213728c5140546040f0ee37f54", id="case-6"),
    pytest.param(b"\xaa" * 131,
                 b"This is a test using a larger than block-size key and a "
                 b"larger than block-size data. The key needs to be hashed "
                 b"before being used by the HMAC algorithm.",
                 "9b09ffa71b942fcb27635fbcd5b0e944"
                 "bfdc63644f0713938a7f51535c3a35e2", id="case-7"),
])
def test_prf_rfc4231_cases(key, data, expected):
    """RFC 4231 section 4's HMAC-SHA-256 values; case 5 truncates its
    output and is left out.  Cases 6 and 7 have a 131-byte key, longer than
    SHA-256's 64-byte block, so the PRF hashes the key first."""
    assert crypto.prf(key, data).hex() == expected
    assert hmac.new(key, data, hashlib.sha256).hexdigest() == expected


@given(key=st.binary(min_size=0, max_size=100),
       data=st.binary(min_size=0, max_size=200))
def test_prf_matches_independent_construction(key, data):
    assert crypto.prf(key, data) == _hmac_oracle(key, data)


# --- SKEYID ladder ---------------------------------------------------------

def _skeyid_oracle(ni, nr, gxy, cky_i, cky_r):
    skeyid = _hmac_oracle(ni + nr, gxy)
    d = _hmac_oracle(skeyid, gxy + cky_i + cky_r + b"\x00")
    a = _hmac_oracle(skeyid, d + gxy + cky_i + cky_r + b"\x01")
    e = _hmac_oracle(skeyid, a + gxy + cky_i + cky_r + b"\x02")
    return skeyid, d, a, e


def test_skeyid_ladder_matches_oracle():
    ni, nr = b"N" * 16, b"M" * 16
    gxy, cky_i, cky_r = b"\x12" * 8, b"I" * 8, b"R" * 8
    bundle = crypto.derive_skeyid(ni, nr, gxy, cky_i, cky_r)
    skeyid, d, a, e = _skeyid_oracle(ni, nr, gxy, cky_i, cky_r)
    assert bundle.skeyid == skeyid
    assert bundle.skeyid_d == d
    assert bundle.skeyid_a == a
    assert bundle.skeyid_e == e


def test_skeyid_golden():
    # Frozen output of the oracle above for the fixed inputs; guards the
    # ladder against accidental reordering of the concatenated fields.
    bundle = crypto.derive_skeyid(b"N" * 16, b"M" * 16, b"\x12" * 8,
                                  b"I" * 8, b"R" * 8)
    assert bundle.skeyid.hex() == (
        "d9f041321094c805b44a9a46ce480be8894bc1e38d632d4e98ecab3b0f6a679a")


def test_hash_i_and_hash_r_bind_inputs():
    # HASH_I and HASH_R are one formula with the signer's values first, so
    # the same session must yield different HASH_I and HASH_R values.  The
    # known answers were recorded from the separate HASH_I and HASH_R
    # functions that this one formula replaced.
    skeyid = b"\xaa" * 32
    gxi, gxr, cky_i, cky_r = b"\x01" * 8, b"\x02" * 8, b"I" * 8, b"R" * 8
    hi = crypto.compute_hash(skeyid, gxi, gxr, cky_i, cky_r, b"sa", b"idi")
    hr = crypto.compute_hash(skeyid, gxr, gxi, cky_r, cky_i, b"sa", b"idr")
    assert hi.hex() == (
        "a975458cc2c7d9688c0244024c2adba28390a3bdccef548a215513b7bddb6ac5")
    assert hr.hex() == (
        "346111f8f93f14b4a2f076841369c915fa46f8b9adb69306e221fddc9ade86bb")
    assert hi != hr
    # every input perturbs the output
    assert hi != crypto.compute_hash(skeyid, gxi, gxr, cky_i, cky_r,
                                     b"sa'", b"idi")
    assert hi != crypto.compute_hash(skeyid, gxi, gxr, cky_i, cky_r,
                                     b"sa", b"idx")
    assert hi != crypto.compute_hash(skeyid, gxr, gxi, cky_i, cky_r,
                                     b"sa", b"idi")
    assert hi != crypto.compute_hash(b"\xab" * 32, gxi, gxr, cky_i, cky_r,
                                     b"sa", b"idi")


# --- serial-derived keys ---------------------------------------------------

def test_kdf_serial_and_session_domain_separation():
    serial = b"SERIAL7"
    key1 = b"\x07" * 32
    k_serial = crypto.kdf_serial(serial)
    k_session = crypto.kdf_session(key1, serial)
    assert len(k_serial) == 32 and len(k_session) == 32
    assert k_serial != k_session
    # Independent recomputation of both labels.
    assert k_serial == _hmac_oracle(b"ikedev/serial-key/v1", serial)
    assert k_session == _hmac_oracle(key1, b"ikedev/session-key/v1" + serial)


def test_kdf_no_collisions_over_corpus():
    rng = random.Random(3)
    seen = set()
    for _ in range(10_000):
        serial = rng.randbytes(7)
        seen.add(crypto.kdf_serial(serial))
    assert len(seen) == 10_000


def test_kdf_serial_rejects_bad_length():
    with pytest.raises(InvalidSerialLength):
        crypto.kdf_serial(b"short")


# --- AEAD ------------------------------------------------------------------

def test_seal_open_round_trip():
    rng = random.Random(5)
    key = rng.randbytes(32)
    blob = crypto.seal(crypto.AES256GCM, key, rng, b"hello device")
    assert len(blob) == 16 + len(b"hello device") + 16
    assert crypto.open_sealed(crypto.AES256GCM, key, blob) == b"hello device"


def test_seal_golden():
    # Frozen reference blob: fixed key and a deterministic nonce stream.
    key = bytes(range(32))
    blob = crypto.seal(crypto.AES256GCM, key, random.Random(9), b"attack at dawn")
    assert blob.hex() == (
        "6ea687766eacfb9cf05e915ffceb6244"
        "0f37fce201b238e2d3137c7cae41"
        "a3379a343bac754a7f6ff3aa00d0b0af")
    assert crypto.open_sealed(crypto.AES256GCM, key, blob) == b"attack at dawn"


def test_open_sealed_rejects_every_single_byte_flip():
    rng = random.Random(6)
    key = rng.randbytes(32)
    blob = crypto.seal(crypto.AES256GCM, key, rng, b"integrity matters")
    for i in range(len(blob)):
        bad = blob[:i] + bytes([blob[i] ^ 0x01]) + blob[i + 1:]
        with pytest.raises(AuthFailure):
            crypto.open_sealed(crypto.AES256GCM, key, bad)


def test_cached_cipher_never_crosses_keys():
    rng = random.Random(8)
    key, other = rng.randbytes(32), rng.randbytes(32)
    blob = crypto.seal(crypto.AES256GCM, key, rng, b"one key each")
    assert crypto.open_sealed(crypto.AES256GCM, key, blob) == b"one key each"
    with pytest.raises(AuthFailure):
        crypto.open_sealed(crypto.AES256GCM, other, blob)
    nonce = random.Random(9).randbytes(crypto.AES256GCM.nonce_size)
    for k in (key, other, key):
        assert (crypto.seal(crypto.AES256GCM, k, random.Random(9), b"same")
                == nonce + AESGCM(k).encrypt(nonce, b"same", b""))


def test_open_sealed_too_short_is_malformed():
    with pytest.raises(MalformedCiphertext):
        crypto.open_sealed(crypto.AES256GCM, b"\x00" * 32, b"\x00" * 31)


# --- signatures ------------------------------------------------------------

def test_ed25519_rfc8032_test_1():
    seed = bytes.fromhex("9d61b19deffd5a60ba844af492ec2cc4"
                         "4449c5697b326919703bac031cae7f60")
    priv, pub = crypto.signature_keypair(seed)
    assert pub.hex() == ("d75a980182b10ab7d54bfed3c964073a"
                         "0ee172f3daa62325af021a68f707511a")
    assert crypto.sign(priv, b"").hex() == (
        "e5564300c360ac729086e2cc806e828a"
        "84877f1eb8e5d974d873e06522490155"
        "5fb8821590a33bacc61e39701cf9b46b"
        "d25bf5f0595bbe24655141438e7a100b")
    assert crypto.verify(pub, b"", crypto.sign(priv, b""))


@settings(max_examples=50)
@given(seed=st.binary(min_size=32, max_size=32),
       message=st.binary(max_size=64))
def test_sign_verify_round_trip(seed, message):
    priv, pub = crypto.signature_keypair(seed)
    sig = crypto.sign(priv, message)
    assert len(sig) == crypto.SIGNATURE_LEN
    assert crypto.verify(pub, message, sig)
    assert not crypto.verify(pub, message + b"x", sig)


def test_verify_rejects_wrong_key_and_garbage():
    priv, pub = crypto.signature_keypair(b"\x01" * 32)
    _, other = crypto.signature_keypair(b"\x02" * 32)
    sig = crypto.sign(priv, b"msg")
    assert not crypto.verify(other, b"msg", sig)
    assert not crypto.verify(pub, b"msg", b"\x00" * 64)
    assert not crypto.verify(pub, b"msg", b"short")


# --- seeded rng derivation -------------------------------------------------

def test_derive_rng_reproducible_and_label_separated():
    a1 = crypto.derive_rng(7, "alpha").randbytes(16)
    a2 = crypto.derive_rng(7, "alpha").randbytes(16)
    b = crypto.derive_rng(7, "beta").randbytes(16)
    c = crypto.derive_rng(8, "alpha").randbytes(16)
    assert a1 == a2
    assert a1 != b
    assert a1 != c


def _seeded_random(seed: int, label: str) -> random.Random:
    digest = hashlib.sha256(f"{seed}|{label}".encode()).digest()
    return random.Random(int.from_bytes(digest, "big"))


@pytest.mark.parametrize("draw", [
    lambda r: r.randbytes(33),
    lambda r: r.getrandbits(300),
    lambda r: r.random(),
    lambda r: r.randrange(10**30),
    lambda r: r.getstate(),
    lambda r: r.choices(range(1000), k=5),   # keeps a bound r.random
    lambda r: r.gauss(),   # reads gauss_next, which seeding must leave None
], ids=["randbytes", "getrandbits", "random", "randrange", "getstate",
        "choices", "gauss"])
def test_derive_rng_gives_the_stream_of_a_seeded_random(draw):
    rng, reference = crypto.derive_rng(7, "alpha"), _seeded_random(7, "alpha")
    assert [draw(rng) for _ in range(3)] == [draw(reference) for _ in range(3)]
    assert type(rng) is random.Random


@pytest.mark.parametrize("clone", [
    copy.deepcopy, lambda r: pickle.loads(pickle.dumps(r))],
    ids=["deepcopy", "pickle"])
def test_derive_rng_copies_before_the_first_draw(clone):
    rng = crypto.derive_rng(7, "alpha")
    twin = clone(rng)
    expected = _seeded_random(7, "alpha").randbytes(32)
    assert twin.randbytes(32) == expected
    assert rng.randbytes(32) == expected


def test_derive_rng_formats_the_label_when_it_first_draws():
    # the label is hashed as given, separators and non-ASCII text included
    label = "session|bob|ünïcode→€|0"
    rng = crypto.derive_rng(-3, label)
    assert rng.randbytes(32) == _seeded_random(-3, label).randbytes(32)


def test_derive_rng_reseeds_before_the_first_draw():
    rng = crypto.derive_rng(7, "alpha")
    rng.seed(5)
    assert rng.randbytes(32) == random.Random(5).randbytes(32)
    rng = crypto.derive_rng(7, "alpha")
    rng.setstate(random.Random(6).getstate())
    assert rng.randbytes(32) == random.Random(6).randbytes(32)
    assert type(rng) is random.Random
