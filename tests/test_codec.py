"""Wire-format tests: golden vector, round trips, totality under fuzz."""

import hashlib
import random
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import payload_types
from ikedev import codec, crypto
from ikedev.codec import (
    CertBody,
    DevBody,
    IdBody,
    IsakmpMessage,
    KeBody,
    NonceBody,
    PayloadType,
    SaBody,
    SigBody,
)
from ikedev.errors import (
    BadLength,
    BadVersion,
    ChainMismatch,
    CodecError,
    NonzeroReserved,
    Truncated,
    UnknownPayloadType,
)

VECTOR_DIR = Path(__file__).parent / "vectors"


def load_vector(name: str) -> bytes:
    """Extract wire bytes from an annotated hexdump: hex pairs up to the
    first run of two-or-more spaces on each line; '#' lines are comments."""
    out = bytearray()
    for line in (VECTOR_DIR / name).read_text().splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        hex_part = line.split("  ", 1)[0]
        out.extend(bytes.fromhex(hex_part.replace(" ", "")))
    return bytes(out)


def _fixed_msg1() -> IsakmpMessage:
    return codec.build_message(
        b"INITCOOK", b"\x00" * 8,
        [SaBody(codec.DEFAULT_SA_PROPOSAL),
         KeBody(bytes.fromhex("0000000000000012")),
         NonceBody(bytes.fromhex("a0a1a2a3a4a5a6a7a8a9aaabacadaeaf")),
         IdBody(2, b"alice")])


# --- golden vector -----------------------------------------------------------

def test_golden_vector_encodes_byte_exact():
    assert codec.encode_message(_fixed_msg1()) == load_vector("aggressive_msg1.txt")


def test_golden_vector_decodes_to_expected_structure():
    msg = codec.decode_message(load_vector("aggressive_msg1.txt"))
    assert msg.initiator_cookie == b"INITCOOK"
    assert msg.exchange_type == codec.EXCHANGE_AGGRESSIVE
    assert not msg.encrypted
    assert payload_types(msg.payloads) == [
        PayloadType.SA, PayloadType.KE, PayloadType.NONCE, PayloadType.ID]
    assert msg.payloads[0].proposal == codec.DEFAULT_SA_PROPOSAL
    assert msg.payloads[3].identity == b"alice"
    assert msg.encrypted_chain is None


# --- round trips -------------------------------------------------------------

def body_strategy():
    blob = st.binary(min_size=1, max_size=64)
    return st.one_of(
        blob.map(SaBody),
        blob.map(KeBody),
        st.binary(min_size=8, max_size=64).map(NonceBody),
        st.tuples(st.integers(0, 255), st.binary(max_size=32)).map(
            lambda t: IdBody(*t)),
        st.tuples(st.integers(0, 255), st.binary(max_size=64)).map(
            lambda t: CertBody(*t)),
        blob.map(SigBody),
        st.binary(min_size=32, max_size=64).map(DevBody),
    )


def message_strategy():
    return st.builds(
        lambda cky_i, cky_r, bodies, blob, mid: codec.IsakmpMessage(
            cky_i, cky_r, codec.EXCHANGE_AGGRESSIVE,
            codec.FLAG_ENCRYPTION if blob is not None else 0, mid, bodies,
            blob),
        st.binary(min_size=8, max_size=8),
        st.binary(min_size=8, max_size=8),
        st.lists(body_strategy(), min_size=1, max_size=6),
        st.one_of(st.none(), st.binary(min_size=33, max_size=80)),
        st.integers(0, 2**32 - 1),
    )


@settings(max_examples=200)
@given(message_strategy())
def test_encode_decode_identity(msg):
    wire = codec.encode_message(msg)
    again = codec.decode_message(wire)
    assert again == msg
    assert codec.encode_message(again) == wire


@settings(max_examples=100)
@given(st.lists(body_strategy(), min_size=1, max_size=8))
def test_payload_chain_round_trip(bodies):
    plain = codec.serialize_payload_chain(bodies)
    assert codec.parse_payload_chain(plain) == bodies


# --- named decode errors, with offsets ---------------------------------------

def test_short_header_truncated_at_data_end():
    with pytest.raises(Truncated) as exc:
        codec.decode_message(b"\x00" * 10)
    assert exc.value.offset == 10


def test_bad_version_flagged_at_byte_17():
    wire = bytearray(codec.encode_message(_fixed_msg1()))
    wire[17] = 0x20
    with pytest.raises(BadVersion) as exc:
        codec.decode_message(bytes(wire))
    assert exc.value.offset == 17


def test_wrong_total_length_flagged_at_byte_24():
    wire = bytearray(codec.encode_message(_fixed_msg1()))
    wire[27] ^= 0x01
    with pytest.raises(BadLength) as exc:
        codec.decode_message(bytes(wire))
    assert exc.value.offset == 24


def test_unknown_first_payload_type_flagged_at_byte_16():
    wire = bytearray(codec.encode_message(_fixed_msg1()))
    wire[16] = 99
    with pytest.raises(UnknownPayloadType) as exc:
        codec.decode_message(bytes(wire))
    assert exc.value.offset == 16


@pytest.mark.parametrize("index", range(4))
def test_unknown_linked_payload_type_flagged_at_its_generic_header(index):
    # byte 0 of each generic header names the next payload's type
    wire = codec.encode_message(_fixed_msg1())
    link = (codec.payload_byte_ranges(wire)[index].body_start
            - codec.GENERIC_HEADER_LEN)
    bad = bytearray(wire)
    bad[link] = 99
    with pytest.raises(UnknownPayloadType) as exc:
        codec.decode_message(bytes(bad))
    assert exc.value.offset == link


def test_nonzero_reserved_names_the_byte():
    wire = bytearray(codec.encode_message(_fixed_msg1()))
    wire[codec.HEADER_LEN + 1] = 0xFF  # RESERVED of the first payload
    with pytest.raises(NonzeroReserved) as exc:
        codec.decode_message(bytes(wire))
    assert exc.value.offset == codec.HEADER_LEN + 1


def test_payload_length_below_minimum():
    wire = bytearray(codec.encode_message(_fixed_msg1()))
    wire[codec.HEADER_LEN + 2:codec.HEADER_LEN + 4] = (3).to_bytes(2, "big")
    with pytest.raises(BadLength) as exc:
        codec.decode_message(bytes(wire))
    assert exc.value.offset == codec.HEADER_LEN + 2


def test_trailing_bytes_without_encryption_flag_rejected():
    wire = codec.encode_message(_fixed_msg1()) + b"\x00" * 40
    # fix up the declared length so only the flag check can object
    wire = bytearray(wire)
    wire[24:28] = len(wire).to_bytes(4, "big")
    with pytest.raises(BadLength):
        codec.decode_message(bytes(wire))


def test_truncated_mid_payload():
    wire = codec.encode_message(_fixed_msg1())[:40]
    wire = bytearray(wire)
    wire[24:28] = (40).to_bytes(4, "big")
    with pytest.raises(Truncated):
        codec.decode_message(bytes(wire))


def test_parse_payload_chain_rejects_empty_and_trailing():
    with pytest.raises(Truncated):
        codec.parse_payload_chain(b"")
    chain = codec.serialize_payload_chain([SaBody(b"x")])
    with pytest.raises(BadLength):
        codec.parse_payload_chain(chain + b"\x00")


# --- encode side ---------------------------------------------------------------

def test_encode_rejects_blob_without_flag():
    msg = _fixed_msg1()
    bad = IsakmpMessage(msg.initiator_cookie, msg.responder_cookie,
                        payloads=msg.payloads, encrypted_chain=b"\x00" * 33)
    with pytest.raises(ChainMismatch):
        codec.encode_message(bad)


def test_encode_encodes_each_body_once(monkeypatch):
    encode = codec.encode_body
    calls = []

    def counting_encode(body):
        calls.append(body)
        return encode(body)

    monkeypatch.setattr(codec, "encode_body", counting_encode)
    bodies = [SaBody(b"x"), KeBody(b"y"), NonceBody(b"z" * 8), IdBody(2, b"a")]
    codec.encode_message(codec.build_message(b"A" * 8, b"B" * 8, bodies))
    assert calls == bodies


# --- DEV payload specifics ----------------------------------------------------

def test_dev_payload_wire_type_is_55():
    assert int(PayloadType.DEV) == 55
    dev = DevBody(b"\x01" * 16 + b"\x02" * 23)
    wire = codec.encode_message(
        codec.build_message(b"A" * 8, b"B" * 8, [dev]))
    assert wire[16] == 55


def test_dev_body_sealed_round_trip():
    rng = random.Random(13)
    key = rng.randbytes(32)
    sealed = crypto.seal(crypto.AES256GCM, key, rng, b"AB12345")
    dev = DevBody.from_sealed(sealed)
    assert dev == DevBody(sealed)
    assert dev.sealed == sealed
    assert dev.nonce == sealed[:codec.DEV_NONCE_LEN]
    assert crypto.open_sealed(crypto.AES256GCM, key, dev.sealed) == b"AB12345"


def test_dev_body_rejects_wrong_format_version():
    dev = DevBody(b"\x01" * 16 + b"\x02" * 16)
    wire = bytearray(codec.encode_message(
        codec.build_message(b"A" * 8, b"B" * 8, [dev])))
    wire[codec.HEADER_LEN + 4] = 2  # DEV format byte
    with pytest.raises(BadVersion) as info:
        codec.decode_message(bytes(wire))
    assert info.value.offset == codec.HEADER_LEN + 4


def test_dev_body_minimum_length_enforced():
    dev = DevBody(b"\x01" * 16 + b"\x02" * 16)
    wire = bytearray(codec.encode_message(
        codec.build_message(b"A" * 8, b"B" * 8, [dev])))
    # shrink the DEV payload below its 4 + 1 + 16 + 16 byte minimum
    wire = wire[:codec.HEADER_LEN + 4 + 32]
    wire[codec.HEADER_LEN + 2:codec.HEADER_LEN + 4] = (
        len(wire) - codec.HEADER_LEN).to_bytes(2, "big")
    wire[24:28] = len(wire).to_bytes(4, "big")
    with pytest.raises(BadLength):
        codec.decode_message(bytes(wire))
    # the size rule is checked before the format byte
    wire[codec.HEADER_LEN + 4] = 2
    with pytest.raises(BadLength) as info:
        codec.decode_message(bytes(wire))
    assert info.value.offset == codec.HEADER_LEN + 4


# --- byte-range helpers --------------------------------------------------------

def test_payload_byte_ranges_cover_bodies_exactly():
    wire = codec.encode_message(_fixed_msg1())
    ranges = codec.payload_byte_ranges(wire)
    assert [r.type for r in ranges] == [
        PayloadType.SA, PayloadType.KE, PayloadType.NONCE, PayloadType.ID]
    sa = ranges[0]
    assert wire[sa.body_start:sa.body_end] == codec.DEFAULT_SA_PROPOSAL
    ke = ranges[1]
    assert wire[ke.body_start:ke.body_end] == bytes.fromhex("0000000000000012")
    # ranges tile the payload section without gaps
    assert sa.body_start == codec.HEADER_LEN + 4
    assert ranges[-1].body_end == len(wire)


def test_build_message_rejects_blob_without_flag():
    msg = codec.build_message(b"A" * 8, b"B" * 8, [SaBody(b"x")],
                              encrypted_chain=b"\x00" * 33)
    with pytest.raises(ChainMismatch):
        codec.encode_message(msg)


# --- totality fuzz --------------------------------------------------------------

def _adversarial_inputs():
    """10,000 fixed inputs: random bytes, and two valid messages with bytes
    overwritten, some of them cut short."""
    rng = random.Random(0xC0DEC)
    seeds = [codec.encode_message(_fixed_msg1())]
    msg = codec.build_message(
        b"C" * 8, b"D" * 8,
        [DevBody(b"\x05" * 16 + b"\x06" * 23),
         CertBody(200, b"\x07" * 40), SigBody(b"\x08" * 64)],
        flags=codec.FLAG_ENCRYPTION, encrypted_chain=b"\x09" * 64)
    seeds.append(codec.encode_message(msg))
    for _ in range(10_000):
        mode = rng.randrange(3)
        if mode == 0:
            yield rng.randbytes(rng.randrange(0, 200))
            continue
        base = bytearray(seeds[rng.randrange(len(seeds))])
        for _ in range(rng.randrange(1, 6)):
            base[rng.randrange(len(base))] = rng.randrange(256)
        if mode == 2:
            base = base[:rng.randrange(len(base) + 1)]
        yield bytes(base)


def test_decode_total_over_10000_adversarial_inputs():
    decoded = 0
    for data in _adversarial_inputs():
        try:
            codec.decode_message(data)
            decoded += 1
        except CodecError as exc:
            assert 0 <= exc.offset <= len(data)
    # sanity: the fuzzer must actually exercise the error paths
    assert decoded < 10_000


# What decode made of each adversarial input: the error class and offset,
# or the message encoded again.  A rework of the decoder must keep it.
DECODE_DIGEST = (
    "5430f4217451245d5d338cf2ab38a78abe53cd20d323b843719443d9cfcfb3fb")


def test_decode_outcomes_match_the_recorded_digest():
    digest = hashlib.sha256()
    for data in _adversarial_inputs():
        try:
            outcome = ("decoded", codec.encode_message(codec.decode_message(data)))
        except CodecError as exc:
            outcome = (type(exc).__name__, exc.offset)
        digest.update(repr(outcome).encode())
    assert digest.hexdigest() == DECODE_DIGEST
