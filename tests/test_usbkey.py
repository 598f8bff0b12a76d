"""Device-boundary tests: access policy, sealed operations, secrecy."""

import pytest
from cryptography.hazmat.primitives.asymmetric.ed25519 import Ed25519PrivateKey

from ikedev import crypto, usbkey
from ikedev.errors import (
    AuthFailure,
    DeviceAbsent,
    InvalidSerialLength,
    PermissionDenied,
)
from ikedev.usbkey import RegionId, RegionOp


@pytest.fixture
def deployment():
    rng = crypto.derive_rng(42, "test-deployment")
    return usbkey.DeploymentConfig(key1=rng.randbytes(32), seed=42)


@pytest.fixture
def token(deployment):
    return usbkey.create_token(b"AB12345", deployment, "alice")


@pytest.fixture
def peer(deployment):
    return usbkey.create_token(b"CD67890", deployment, "bob")


# --- region access matrix --------------------------------------------------

EXPECTED_ACCESS = [
    (RegionId.MANAGER_PRIVATE_KEY, RegionOp.READ, False),
    (RegionId.MANAGER_PRIVATE_KEY, RegionOp.WRITE, False),
    (RegionId.MANAGER_ALGORITHM, RegionOp.READ, False),
    (RegionId.MANAGER_ALGORITHM, RegionOp.WRITE, False),
    (RegionId.MANAGER_CERTIFICATE, RegionOp.READ, False),
    (RegionId.MANAGER_CERTIFICATE, RegionOp.WRITE, False),
    (RegionId.VIRTUAL_CD, RegionOp.READ, True),
    (RegionId.VIRTUAL_CD, RegionOp.WRITE, False),
    (RegionId.USER_DATA, RegionOp.READ, True),
    (RegionId.USER_DATA, RegionOp.WRITE, True),
]


def test_access_matrix_covers_every_region_and_op():
    assert {(r, o) for r, o, _ in EXPECTED_ACCESS} == {
        (r, o) for r in RegionId for o in RegionOp}


@pytest.mark.parametrize("region,op,allowed", EXPECTED_ACCESS,
                         ids=[f"{r.value}-{o.value}" for r, o, _ in EXPECTED_ACCESS])
def test_region_access_policy(token, region, op, allowed):
    data = b"host payload" if op is RegionOp.WRITE else None
    if allowed:
        result = usbkey.region_access(token, region, op, data)
        if op is RegionOp.READ:
            assert isinstance(result, bytes)
    else:
        with pytest.raises(PermissionDenied):
            usbkey.region_access(token, region, op, data)


def test_user_data_write_then_read_round_trip(token):
    usbkey.region_access(token, RegionId.USER_DATA, RegionOp.WRITE, b"notes")
    assert usbkey.region_access(token, RegionId.USER_DATA, RegionOp.READ) == b"notes"


def test_virtual_cd_is_stable_and_readonly(token):
    image = usbkey.region_access(token, RegionId.VIRTUAL_CD, RegionOp.READ)
    with pytest.raises(PermissionDenied):
        usbkey.region_access(token, RegionId.VIRTUAL_CD, RegionOp.WRITE, b"x")
    assert usbkey.region_access(token, RegionId.VIRTUAL_CD, RegionOp.READ) == image


def test_host_reads_no_signing_key_from_a_provisioned_token(token):
    assert usbkey.host_reads_signing_key(token) is False


def test_host_reads_the_signing_key_under_a_leaky_policy(token, monkeypatch):
    monkeypatch.setitem(usbkey.ACCESS_POLICY, RegionId.MANAGER_PRIVATE_KEY,
                        (True, False))
    assert usbkey.host_reads_signing_key(token) is True


def test_host_reads_the_signing_key_copied_to_user_data(token):
    usbkey.region_access(token, RegionId.USER_DATA, RegionOp.WRITE,
                         b"backup:" + _provisioned_private_key(token))
    assert usbkey.host_reads_signing_key(token) is True


# --- identity / provisioning ----------------------------------------------

def test_create_token_rejects_bad_serial(deployment):
    with pytest.raises(InvalidSerialLength):
        usbkey.create_token(b"short", deployment, "alice")
    with pytest.raises(InvalidSerialLength):
        usbkey.create_token(b"toolong99", deployment, "alice")


def test_absent_device_raises_everywhere():
    for call in (
        lambda: usbkey.device_get_certificate(None),
        lambda: usbkey.device_encrypt(None),
        lambda: usbkey.device_decrypt(None, b"x" * 33),
        lambda: usbkey.device_sign(None, b"x"),
        lambda: usbkey.device_session_encrypt(None, b"x"),
        lambda: usbkey.region_access(None, RegionId.USER_DATA, RegionOp.READ),
    ):
        with pytest.raises(DeviceAbsent):
            call()


# --- sealed operations -----------------------------------------------------

def _key1_seal(token, plaintext: bytes) -> bytes:
    """A seal under the token's key1, as an insider who extracted key1 makes
    it: the device itself seals only its own serial."""
    return crypto.seal(crypto.AES256GCM, token._key1,
                       crypto.derive_rng(7, "insider"), plaintext)


def test_key1_seal_opens_on_any_fleet_device(token, peer):
    blob = _key1_seal(token, b"fleet secret")
    assert usbkey.device_decrypt(peer, blob) == b"fleet secret"


def test_deployment_rejects_a_key1_of_the_wrong_length():
    for size in (16, 31, 33):
        with pytest.raises(ValueError):
            usbkey.DeploymentConfig(key1=b"\x01" * size)


def test_foreign_deployment_cannot_open_key1_blob(token):
    other = usbkey.DeploymentConfig(key1=b"\x99" * 32, seed=9)
    stranger = usbkey.create_token(b"ZZ99999", other, "mallory")
    blob = _key1_seal(token, b"fleet secret")
    with pytest.raises(AuthFailure):
        usbkey.device_decrypt(stranger, blob)


def test_session_seal_round_trip_between_fleet_devices(token, peer):
    blob = usbkey.device_session_encrypt(token, b"chain bytes")
    assert usbkey.device_session_decrypt(peer, b"AB12345", blob) == b"chain bytes"
    # Session keys are serial-bound: the same blob under the wrong serial fails.
    with pytest.raises(AuthFailure):
        usbkey.device_session_decrypt(peer, b"CD67890", blob)


def test_a_device_seals_only_its_own_serial(token, peer):
    # the DEV record is the sealing device's own serial, whoever asks
    assert usbkey.device_decrypt(peer, usbkey.device_encrypt(token)) \
        == token.serial
    # and its chain opens under that serial's key, and under no other
    blob = usbkey.device_session_encrypt(token, b"chain bytes")
    assert usbkey.device_session_decrypt(peer, token.serial, blob) \
        == b"chain bytes"
    for other in (peer.serial, b"ZZ99999", b"\x00" * crypto.SERIAL_LEN):
        with pytest.raises(AuthFailure):
            usbkey.device_session_decrypt(peer, other, blob)


def test_sign_verifies_under_certificate_key(token):
    sig = usbkey.device_sign(token, b"authenticate me")
    cert = usbkey.device_get_certificate(token)
    assert crypto.verify(cert.public_key, b"authenticate me", sig)
    assert not crypto.verify(cert.public_key, b"something else", sig)


# --- certificates ----------------------------------------------------------

def test_certificate_round_trip_and_verification(token):
    cert = usbkey.device_get_certificate(token)
    decoded = usbkey.decode_certificate(cert.encoded)
    assert decoded.subject == "alice"
    assert decoded.serial_binding == b"AB12345"
    assert decoded.public_key == cert.public_key
    assert usbkey.verify_certificate(decoded)


def test_certificate_rejects_bit_flips(token):
    encoded = usbkey.device_get_certificate(token).encoded
    # Flip one byte in the subject and one in the signature.
    for idx in (3, len(encoded) - 1):
        bad = encoded[:idx] + bytes([encoded[idx] ^ 0x01]) + encoded[idx + 1:]
        decoded = usbkey.decode_certificate(bad)
        assert not usbkey.verify_certificate(decoded)


def test_decode_certificate_rejects_truncation(token):
    encoded = usbkey.device_get_certificate(token).encoded
    with pytest.raises(Exception):
        usbkey.decode_certificate(encoded[:10])


def test_file_identity_mirrors_certificate_shape():
    ident = usbkey.make_file_identity("carol", b"\x05" * 32)
    decoded = usbkey.decode_certificate(ident.certificate.encoded)
    assert decoded.subject == "carol"
    assert usbkey.verify_certificate(decoded)


def _provisioned_private_key(token) -> bytes:
    """The private key bytes as provisioned: the manager private-key region
    holds them, then the serial."""
    region = token._regions[RegionId.MANAGER_PRIVATE_KEY]
    assert region[32:] == token.serial
    return region[:32]


def test_device_sign_uses_the_provisioned_private_key(token):
    data = b"hash to sign"
    expected = Ed25519PrivateKey.from_private_bytes(
        _provisioned_private_key(token)).sign(data)
    assert usbkey.device_sign(token, data) == expected
    assert usbkey.device_sign(token, data) == expected   # the held key is reusable


def test_file_identity_signs_with_its_file_key():
    ident = usbkey.make_file_identity("carol", b"\x05" * 32)
    assert ident.signing_key.private_bytes_raw() == b"\x05" * 32
    data = b"hash to sign"
    expected = Ed25519PrivateKey.from_private_bytes(b"\x05" * 32).sign(data)
    assert crypto.sign(ident.signing_key, data) == expected
    assert crypto.verify(ident.certificate.public_key, data, expected)


# --- secrecy of device internals --------------------------------------------

def test_key_material_never_leaks_through_readable_surfaces(token, deployment):
    secrets = [deployment.key1, _provisioned_private_key(token)]
    readable = [
        token.serial,
        usbkey.device_get_certificate(token).encoded,
        usbkey.region_access(token, RegionId.VIRTUAL_CD, RegionOp.READ),
        usbkey.region_access(token, RegionId.USER_DATA, RegionOp.READ),
    ]
    for secret in secrets:
        for surface in readable:
            assert secret not in surface
        # not even in a sealed blob (AEAD output must not embed the key)
        blob = _key1_seal(token, b"probe")
        assert secret not in blob


def test_same_serial_same_deployment_reproduces_keypair(deployment):
    a = usbkey.create_token(b"AB12345", deployment, "alice")
    b = usbkey.create_token(b"AB12345", deployment, "alice")
    assert a.certificate.encoded == b.certificate.encoded
