"""Handshake ladder behavior for both variants.

Covers the honest path, the device gate, tamper/replay/splice handling,
and state-machine safety under arbitrary redelivery of captured wires.
"""

import hashlib
import itertools
import random
import types

import pytest

from conftest import Fleet, drive_handshake, payload_types
from ikedev import codec, crypto, netsim, protocol, usbkey
from ikedev.codec import CertBody, DevBody, IdBody, KeBody, NonceBody, PayloadType, SaBody
from ikedev.errors import DeviceAbsent, IkeDevError
from ikedev.protocol import (
    CERT_ENCODING_SEALED,
    REPLAY_WINDOW,
    ReplayGuard,
    Role,
    SessionState,
    Variant,
)
from ikedev.usbkey import device_encrypt, device_session_encrypt


# --- honest ladder -----------------------------------------------------------

@pytest.mark.parametrize("variant", [Variant.BASELINE, Variant.IMPROVED])
def test_honest_handshake_establishes_with_matching_secrets(fleet, variant):
    ini, rsp = fleet.pair(variant)
    drive_handshake(ini, rsp)
    assert ini.state is SessionState.ESTABLISHED
    assert rsp.state is SessionState.ESTABLISHED
    for field in ("skeyid", "skeyid_d", "skeyid_a", "skeyid_e"):
        assert getattr(ini.skeyid, field) == getattr(rsp.skeyid, field)
    assert ini.counters.dh_ops == 2 and rsp.counters.dh_ops == 1
    assert ini.counters.sig_verifies == 1 and rsp.counters.sig_verifies == 1


def test_baseline_wire_shapes(fleet):
    ini, rsp = fleet.pair(Variant.BASELINE)
    wires = drive_handshake(ini, rsp)
    msgs = [codec.decode_message(w) for w in wires]
    assert payload_types(msgs[0].payloads) == [
        PayloadType.SA, PayloadType.KE, PayloadType.NONCE, PayloadType.ID]
    assert payload_types(msgs[1].payloads) == [
        PayloadType.SA, PayloadType.KE, PayloadType.NONCE, PayloadType.ID,
        PayloadType.CERT, PayloadType.SIG]
    assert payload_types(msgs[2].payloads) == [
        PayloadType.CERT, PayloadType.SIG]
    assert all(m.encrypted_chain is None for m in msgs)
    assert msgs[0].payloads[0].proposal == codec.DEFAULT_SA_PROPOSAL


def test_improved_wire_shapes(fleet):
    ini, rsp = fleet.pair(Variant.IMPROVED)
    wires = drive_handshake(ini, rsp)
    msgs = [codec.decode_message(w) for w in wires]
    # messages 1 and 2 lead with the device payload and carry a sealed chain
    assert payload_types(msgs[0].payloads) == [PayloadType.DEV]
    assert payload_types(msgs[1].payloads) == [
        PayloadType.DEV, PayloadType.CERT, PayloadType.SIG]
    assert msgs[0].encrypted and msgs[0].encrypted_chain
    assert msgs[1].encrypted and msgs[1].encrypted_chain
    # message 3 is flagged encrypted but everything rides in sealed bodies
    assert payload_types(msgs[2].payloads) == [
        PayloadType.CERT, PayloadType.SIG]
    assert msgs[2].encrypted and msgs[2].encrypted_chain is None
    assert msgs[1].payloads[1].encoding == CERT_ENCODING_SEALED


def test_improved_wires_leak_no_identity_material(fleet):
    ini, rsp = fleet.pair(Variant.IMPROVED)
    wires = drive_handshake(ini, rsp)
    cert_i = fleet.tokens["alice"].certificate.encoded
    cert_r = fleet.tokens["bob"].certificate.encoded
    for wire in wires:
        assert fleet.serials["alice"] not in wire
        assert fleet.serials["bob"] not in wire
        assert cert_i not in wire and cert_r not in wire
        assert b"alice" not in wire and b"bob" not in wire


def test_baseline_wires_expose_identity_material(fleet):
    ini, rsp = fleet.pair(Variant.BASELINE)
    wires = drive_handshake(ini, rsp)
    assert b"alice" in wires[0]
    assert fleet.file_identities["bob"].certificate.encoded in wires[1]


def test_events_record_ladder_steps(fleet):
    ini, rsp = fleet.pair(Variant.IMPROVED)
    drive_handshake(ini, rsp)
    assert [e.emitted for e in ini.events] == ["msg1", "msg3"]
    assert [e.emitted for e in rsp.events] == ["msg2", None]
    assert all(e.failure is None for e in ini.events + rsp.events)


def test_gate_disabled_honest_run_still_establishes(fleet):
    ini, rsp = fleet.pair(Variant.IMPROVED, disable_dos_gate=True)
    drive_handshake(ini, rsp)
    assert rsp.state is SessionState.ESTABLISHED
    assert rsp.counters.dh_ops == 1


# --- missing device ----------------------------------------------------------

def test_improved_initiator_without_device_stops_before_any_bytes(fleet):
    ini = fleet.session("alice", Role.INITIATOR, Variant.IMPROVED, token=False)
    with pytest.raises(DeviceAbsent):
        ini.initiator_start()
    assert ini.state is SessionState.FAILED
    assert ini.failure == "no device"
    assert ini.counters.dh_ops == 0


def test_improved_responder_without_device_stops(fleet):
    ini, _ = fleet.pair(Variant.IMPROVED)
    rsp = fleet.session("bob", Role.RESPONDER, Variant.IMPROVED, token=False)
    msg1 = ini.initiator_start()
    with pytest.raises(DeviceAbsent):
        rsp.responder_on_msg1(msg1)
    assert rsp.failure == "no device"
    assert rsp.counters.dh_ops == 0


@pytest.fixture
def device_signers(monkeypatch):
    """The name of each session that signs through the device, in order."""
    signers = []
    device_sign = protocol.device_sign

    def recorded(token, data):
        signers.append(token.certificate.subject)
        return device_sign(token, data)

    monkeypatch.setattr(protocol, "device_sign", recorded)
    return signers


def test_baseline_needs_no_device(fleet, device_signers):
    ini = fleet.session("alice", Role.INITIATOR, Variant.BASELINE, token=False)
    rsp = fleet.session("bob", Role.RESPONDER, Variant.BASELINE, token=False,
                        replay_guard=ReplayGuard())
    drive_handshake(ini, rsp)
    assert ini.state is SessionState.ESTABLISHED
    assert device_signers == []


def test_improved_signatures_come_from_the_device(fleet, device_signers):
    ini, rsp = fleet.pair(Variant.IMPROVED)
    drive_handshake(ini, rsp)
    assert device_signers == ["bob", "alice"]


# --- the device gate ---------------------------------------------------------

def _forged_improved_msg1(rng) -> codec.IsakmpMessage:
    """Attacker without key1: structurally perfect, sealed under junk keys."""
    dev = DevBody(rng.randbytes(16) + rng.randbytes(23))
    return codec.build_message(
        rng.randbytes(8), b"\x00" * 8, [dev],
        flags=codec.FLAG_ENCRYPTION, encrypted_chain=rng.randbytes(64))


def test_gate_rejects_forged_msg1_before_any_dh(fleet):
    rng = crypto.derive_rng(99, "adversary")
    _, rsp = fleet.pair(Variant.IMPROVED)
    for _ in range(10):
        assert rsp.responder_on_msg1(_forged_improved_msg1(rng)) is None
    assert rsp.counters.dh_ops == 0
    assert rsp.counters.messages_rejected_pre_dh == 10
    assert rsp.counters.decrypt_failures == 10
    assert rsp.state is SessionState.IDLE  # drops, not failures


def test_gated_reject_seeds_no_rng(fleet, monkeypatch):
    wire = netsim._forged_msg1(Variant.IMPROVED, random.Random(4),
                               crypto.DESK_GROUP, "attacker")
    seeds = []
    plain_seed = random.Random.seed

    def counting_seed(self, *args, **kwargs):
        seeds.append(args)
        return plain_seed(self, *args, **kwargs)

    monkeypatch.setattr(random.Random, "seed", counting_seed)
    rsp = fleet.session("bob", Role.RESPONDER, Variant.IMPROVED,
                        replay_guard=ReplayGuard())
    assert rsp.responder_on_msg1(codec.decode_message(wire)) is None
    assert rsp.counters.messages_rejected_pre_dh == 1
    assert rsp.counters.dh_ops == 0
    assert seeds == []


def test_gated_reject_hashes_nothing_for_its_rng(fleet, monkeypatch):
    # derive_rng hashes (seed, label) on the first draw, and a session that
    # rejects at the gate never draws: from decode to the reject, crypto
    # computes no SHA-256 (an rng hashed when built would count one)
    wire = netsim._forged_msg1(Variant.IMPROVED, random.Random(4),
                               crypto.DESK_GROUP, "attacker")
    hashed = []

    def counting_sha256(*args):
        hashed.append(args)
        return hashlib.sha256(*args)

    monkeypatch.setattr(crypto, "hashlib",
                        types.SimpleNamespace(sha256=counting_sha256))
    msg = codec.decode_message(wire)
    rsp = fleet.session("bob", Role.RESPONDER, Variant.IMPROVED,
                        replay_guard=ReplayGuard())
    assert rsp.responder_on_msg1(msg) is None
    assert rsp.counters.messages_rejected_pre_dh == 1
    assert hashed == []
    rsp.rng.random()
    assert len(hashed) == 1


def test_transition_events_are_immutable(fleet):
    ini, rsp = fleet.pair(Variant.IMPROVED)
    drive_handshake(ini, rsp)
    event = rsp.events[-1]
    with pytest.raises(AttributeError):
        event.failure = "forged"
    assert event.failure is None and event.emitted is None


def test_gate_rejects_msg1_without_dev_payload(fleet):
    _, rsp = fleet.pair(Variant.IMPROVED)
    bare = codec.build_message(b"A" * 8, b"\x00" * 8,
                               [SaBody(codec.DEFAULT_SA_PROPOSAL)])
    assert rsp.responder_on_msg1(bare) is None
    assert rsp.counters.dh_ops == 0
    assert rsp.events[-1].failure == "no-dev"


def _nine_byte_serial_msg1(fleet: Fleet) -> codec.IsakmpMessage:
    """A message 1 whose DEV is a genuine key1 seal, but of a 9-byte record,
    as only an insider who extracted key1 can make it."""
    rng = crypto.derive_rng(5, "x")
    sealed = crypto.seal(crypto.AES256GCM, fleet.tokens["alice"]._key1, rng,
                         b"AB1234567")
    return codec.build_message(
        rng.randbytes(8), b"\x00" * 8, [DevBody.from_sealed(sealed)],
        flags=codec.FLAG_ENCRYPTION, encrypted_chain=rng.randbytes(64))


def test_gate_rejects_wrong_length_serial(fleet):
    _, rsp = fleet.pair(Variant.IMPROVED)
    assert rsp.responder_on_msg1(_nine_byte_serial_msg1(fleet)) is None
    assert rsp.events[-1].failure == "bad-dev"
    assert rsp.counters.dh_ops == 0


def test_an_observer_learns_no_serial_from_a_wrong_length_record(fleet):
    # the record opens under key1, but like the gate a key1 holder takes
    # only a 7-byte record for a serial, and tries no chain key with it
    serials: set[bytes] = set()
    findings = netsim.observe(_nine_byte_serial_msg1(fleet),
                              fleet.tokens["carol"], serials)
    assert findings == [] and serials == set()


@pytest.mark.parametrize("dev", ["forged", "nine-byte record"])
def test_a_gated_reject_is_one_event_and_one_pre_dh_reject(fleet, dev):
    # the whole outcome of a message 1 turned away at the DEV check: the
    # session stays idle, records one event and counts one pre-DH reject and
    # no DH or signature work; only a DEV whose tag fails is a failed open
    if dev == "forged":
        msg = codec.decode_message(netsim._forged_msg1(
            Variant.IMPROVED, random.Random(4), crypto.MODP2048_GROUP,
            "attacker"))
    else:
        msg = _nine_byte_serial_msg1(fleet)
    rsp = fleet.session("bob", Role.RESPONDER, Variant.IMPROVED,
                        replay_guard=ReplayGuard(), group=crypto.MODP2048_GROUP)
    assert rsp.responder_on_msg1(msg) is None
    assert rsp.state is SessionState.IDLE
    assert rsp.events == [("responder_on_msg1", "idle", None, "bad-dev")]
    assert rsp.counters.to_dict() == {
        "dh_ops": 0, "sig_verifies": 0,
        "decrypt_failures": 1 if dev == "forged" else 0,
        "messages_rejected_pre_dh": 1}
    assert len(rsp.replay_guard) == 0


def test_gate_detects_replayed_dev_nonce(fleet):
    ini, rsp = fleet.pair(Variant.IMPROVED)
    wire = codec.encode_message(ini.initiator_start())
    assert rsp.responder_on_msg1(codec.decode_message(wire)) is not None

    # same principal, fresh session, SHARED replay guard
    again = fleet.session("bob", Role.RESPONDER, Variant.IMPROVED,
                          replay_guard=rsp.replay_guard, label="1")
    assert again.responder_on_msg1(codec.decode_message(wire)) is None
    assert again.events[-1].failure == "replay"
    assert again.counters.dh_ops == 0
    assert again.counters.messages_rejected_pre_dh == 1


def test_tampered_copy_of_msg1_does_not_spend_its_dev_nonce(fleet):
    # a copy of message 1 whose chain does not open, delivered first, leaves
    # the DEV nonce out of the replay guard, so the genuine one is answered
    ini, rsp = fleet.pair(Variant.IMPROVED)
    wire = codec.encode_message(ini.initiator_start())
    tampered = wire[:-1] + bytes([wire[-1] ^ 0x01])
    assert rsp.responder_on_msg1(codec.decode_message(tampered)) is None
    assert rsp.events[-1].failure == "bad-chain"
    assert rsp.counters.dh_ops == 0

    genuine = fleet.session("bob", Role.RESPONDER, Variant.IMPROVED,
                            replay_guard=rsp.replay_guard, label="1")
    assert genuine.responder_on_msg1(codec.decode_message(wire)) is not None
    assert genuine.counters.dh_ops == 1


def test_chain_too_short_for_nonce_and_tag_fails_as_bad_chain(fleet):
    # a 31-byte chain, one short of nonce plus tag, is a seal that does not
    # open: the responder and an observer with key1 treat it as one
    ini, rsp = fleet.pair(Variant.IMPROVED)
    genuine = ini.initiator_start()
    short = codec.decode_message(codec.encode_message(codec.build_message(
        genuine.initiator_cookie, bytes(8), [genuine.first(DevBody)],
        flags=codec.FLAG_ENCRYPTION,
        encrypted_chain=genuine.encrypted_chain[:31])))
    assert len(short.encrypted_chain) == 31
    assert rsp.responder_on_msg1(short) is None
    assert rsp.events[-1].failure == "bad-chain"
    assert rsp.counters.decrypt_failures == 1
    assert rsp.counters.dh_ops == 0
    assert len(rsp.replay_guard) == 0

    findings = netsim.observe(short, fleet.tokens["carol"], set())
    assert [f.payload for f in findings] == ["DEV-SERIAL"]


def _count_calls(monkeypatch, calls: list[str], module, name: str) -> None:
    """Record each call of ``module.name``, under every name ikedev binds
    it to, in ``calls``."""
    original = getattr(module, name)

    def counting(*args, **kwargs):
        calls.append(name)
        return original(*args, **kwargs)

    for mod in (codec, crypto, usbkey, protocol, netsim):
        for key, value in list(vars(mod).items()):
            if value is original:
                monkeypatch.setattr(mod, key, counting)


@pytest.mark.parametrize("disable_dos_gate", [False, True])
def test_forged_msg1_costs_one_aead_open_before_the_gate(
        fleet, monkeypatch, disable_dos_gate):
    wire = netsim._forged_msg1(Variant.IMPROVED, random.Random(4),
                               crypto.MODP2048_GROUP, "attacker")
    calls: list[str] = []
    for module, name in ((crypto, "open_sealed"),
                         (usbkey, "device_session_decrypt"),
                         (crypto, "kdf_session"), (crypto, "dh_keypair")):
        _count_calls(monkeypatch, calls, module, name)
    msg = codec.decode_message(wire)
    rsp = fleet.session("bob", Role.RESPONDER, Variant.IMPROVED,
                        replay_guard=ReplayGuard(), group=crypto.MODP2048_GROUP,
                        disable_dos_gate=disable_dos_gate)
    assert rsp.responder_on_msg1(msg) is None
    assert rsp.events[-1].failure == "bad-dev"
    if disable_dos_gate:   # the regression mode pays for its keypair first
        assert calls == ["dh_keypair", "open_sealed"]
    else:
        assert calls == ["open_sealed"]
        assert rsp.counters.messages_rejected_pre_dh == 1


@pytest.mark.parametrize("variant", [Variant.BASELINE, Variant.IMPROVED])
@pytest.mark.parametrize("message", [0, 1, 2])
@pytest.mark.parametrize("disable_dos_gate", [False, True])
def test_a_nonzero_message_id_is_turned_away_before_any_aead_or_dh(
        fleet, monkeypatch, variant, message, disable_dos_gate):
    # phase 1 fixes the Message ID at 0 (RFC 2408 section 3.1)
    calls: list[str] = []
    for name in ("open_sealed", "dh_keypair", "dh_shared", "verify"):
        _count_calls(monkeypatch, calls, crypto, name)

    def with_message_id(index: int, wire: bytes) -> bytes:
        if index != message:
            return wire
        msg = codec.decode_message(wire)
        msg.message_id = 0xDEADBEEF
        calls.clear()   # count only what the step that takes it does
        return codec.encode_message(msg)

    ini, rsp = fleet.pair(variant, disable_dos_gate=disable_dos_gate)
    wires = drive_handshake(ini, rsp, mutate=with_message_id)
    assert len(wires) == message + 1
    assert calls == []
    receiver = ini if message == 1 else rsp
    assert receiver.events[-1].failure == "malformed"
    assert rsp.state is not SessionState.ESTABLISHED
    if message == 0:
        assert rsp.counters.dh_ops == 0
        assert rsp.counters.messages_rejected_pre_dh == 1
    else:
        assert receiver.state is SessionState.FAILED


def test_replayed_msg1_is_turned_away_before_its_chain_opens(fleet, monkeypatch):
    # the replay guard is asked before the chain open, so a replayed genuine
    # message 1 costs the gate's key1 open and no chain key or chain open
    ini, rsp = fleet.pair(Variant.IMPROVED)
    wire = codec.encode_message(ini.initiator_start())
    assert rsp.responder_on_msg1(codec.decode_message(wire)) is not None

    calls: list[str] = []
    _count_calls(monkeypatch, calls, usbkey, "device_session_decrypt")
    again = fleet.session("bob", Role.RESPONDER, Variant.IMPROVED,
                          replay_guard=rsp.replay_guard, label="1")
    assert again.responder_on_msg1(codec.decode_message(wire)) is None
    assert again.events[-1].failure == "replay"
    assert calls == []


def test_replay_guard_lru_eviction():
    # at the full window, never a shrunk one
    guard = ReplayGuard()
    nonces = [i.to_bytes(16, "big") for i in range(REPLAY_WINDOW + 1)]
    for nonce in nonces[:-1]:
        assert not guard.seen_before(nonce)
    assert len(guard) == REPLAY_WINDOW
    assert guard.seen_before(nonces[0])        # still resident, refreshed
    assert not guard.seen_before(nonces[-1])   # evicts nonces[1]
    assert not guard.seen_before(nonces[1])    # was evicted: admitted again
    assert guard.seen_before(nonces[0])        # the refreshed one stayed
    assert len(guard) == REPLAY_WINDOW


def test_baseline_responder_pays_dh_for_any_well_formed_msg1(fleet):
    rng = crypto.derive_rng(1, "adv")
    _, rsp = fleet.pair(Variant.BASELINE)
    _, gx = crypto.dh_keypair(crypto.DESK_GROUP, rng)
    forged = codec.build_message(
        rng.randbytes(8), b"\x00" * 8,
        [SaBody(codec.DEFAULT_SA_PROPOSAL), KeBody(gx),
         NonceBody(rng.randbytes(16)), IdBody(2, b"mallory")])
    # the responder cannot tell and answers, burning a DH episode
    assert rsp.responder_on_msg1(forged) is not None
    assert rsp.counters.dh_ops == 1
    assert rsp.counters.messages_rejected_pre_dh == 0


# --- weak key-exchange values --------------------------------------------------

def test_baseline_rejects_degenerate_public_value(fleet):
    rng = crypto.derive_rng(2, "adv")
    _, rsp = fleet.pair(Variant.BASELINE)
    msg = codec.build_message(
        rng.randbytes(8), b"\x00" * 8,
        [SaBody(codec.DEFAULT_SA_PROPOSAL),
         KeBody(crypto.DESK_GROUP.encode(1)),
         NonceBody(rng.randbytes(16)), IdBody(2, b"mallory")])
    assert rsp.responder_on_msg1(msg) is None
    assert rsp.events[-1].failure == "weak-ke"


def test_improved_rejects_degenerate_public_value_after_gate(fleet):
    rng = crypto.derive_rng(3, "adv")
    _, rsp = fleet.pair(Variant.IMPROVED)
    token = fleet.tokens["alice"]
    bodies = [SaBody(codec.DEFAULT_SA_PROPOSAL),
              KeBody(crypto.DESK_GROUP.encode(1)),
              NonceBody(rng.randbytes(16)), IdBody(2, b"alice")]
    dev = DevBody.from_sealed(device_encrypt(token))
    blob = device_session_encrypt(token, codec.serialize_payload_chain(bodies))
    msg = codec.build_message(rng.randbytes(8), b"\x00" * 8, [dev],
                              flags=codec.FLAG_ENCRYPTION, encrypted_chain=blob)
    assert rsp.responder_on_msg1(msg) is None
    assert rsp.events[-1].failure == "weak-ke"
    # the sender held a genuine device, so the gate was passed and DH paid
    assert rsp.counters.dh_ops == 1
    assert rsp.counters.messages_rejected_pre_dh == 0


# --- in-flight tampering ---------------------------------------------------------

def _flip_payload_byte(wire: bytes, ptype: PayloadType, delta: int = 0x01) -> bytes:
    for r in codec.payload_byte_ranges(wire):
        if r.type is ptype:
            i = r.body_start
            return wire[:i] + bytes([wire[i] ^ delta]) + wire[i + 1:]
    raise AssertionError(f"no {ptype} payload present")


def _flip_blob_byte(wire: bytes, delta: int = 0x01) -> bytes:
    start = len(wire) - len(codec.decode_message(wire).encrypted_chain)
    return wire[:start] + bytes([wire[start] ^ delta]) + wire[start + 1:]


def test_baseline_msg2_sa_tamper_caught_at_signature_check(fleet):
    ini, rsp = fleet.pair(Variant.BASELINE)
    mutate = lambda i, w: _flip_payload_byte(w, PayloadType.SA) if i == 1 else w
    drive_handshake(ini, rsp, mutate=mutate)
    assert ini.state is SessionState.FAILED
    assert ini.failure == "sig-verify"
    assert ini.counters.sig_verifies == 1  # detection costs a verify


def test_baseline_msg1_ke_tamper_desynchronizes_keys(fleet):
    ini, rsp = fleet.pair(Variant.BASELINE)
    mutate = lambda i, w: _flip_payload_byte(w, PayloadType.KE) if i == 0 else w
    drive_handshake(ini, rsp, mutate=mutate)
    # the responder answers obliviously; the initiator's check catches it
    assert rsp.state is SessionState.SENT2
    assert ini.failure == "sig-verify"


def test_baseline_msg1_sa_tamper_caught_by_responder_on_msg3(fleet):
    ini, rsp = fleet.pair(Variant.BASELINE)
    mutate = lambda i, w: _flip_payload_byte(w, PayloadType.SA) if i == 0 else w
    drive_handshake(ini, rsp, mutate=mutate)
    assert rsp.state is SessionState.FAILED
    assert rsp.failure == "sig-verify"
    assert ini.state is SessionState.ESTABLISHED  # one-sided: msg3 never acked


def test_improved_blob_tamper_fails_closed_without_signature_work(fleet):
    ini, rsp = fleet.pair(Variant.IMPROVED)
    mutate = lambda i, w: _flip_blob_byte(w) if i == 1 else w
    drive_handshake(ini, rsp, mutate=mutate)
    assert ini.state is SessionState.FAILED
    assert ini.failure == "chain"
    assert ini.counters.sig_verifies == 0
    assert ini.counters.decrypt_failures == 1


def test_improved_msg1_blob_tamper_rejected_after_gate(fleet):
    ini, rsp = fleet.pair(Variant.IMPROVED)
    mutate = lambda i, w: _flip_blob_byte(w) if i == 0 else w
    drive_handshake(ini, rsp, mutate=mutate)
    assert rsp.state is SessionState.IDLE
    assert rsp.events[-1].failure == "bad-chain"
    assert rsp.counters.sig_verifies == 0
    assert rsp.counters.dh_ops == 0


def test_improved_dev_tamper_rejected_at_the_gate(fleet):
    ini, rsp = fleet.pair(Variant.IMPROVED)

    def mutate(i, wire):
        if i != 0:
            return wire
        r = codec.payload_byte_ranges(wire)[0]
        assert r.type is PayloadType.DEV
        j = r.body_start + 1  # first sealed byte, past the DEV format byte
        return wire[:j] + bytes([wire[j] ^ 0x01]) + wire[j + 1:]

    drive_handshake(ini, rsp, mutate=mutate)
    assert rsp.events[-1].failure == "bad-dev"
    assert rsp.counters.dh_ops == 0
    assert rsp.counters.messages_rejected_pre_dh == 1


# --- certificate splicing ---------------------------------------------------------

def _resign_chain(msg, new_bodies):
    return codec.IsakmpMessage(
        msg.initiator_cookie, msg.responder_cookie, msg.exchange_type,
        msg.flags, msg.message_id, list(new_bodies), msg.encrypted_chain)


def test_baseline_cert_splice_caught_by_subject_check(fleet):
    carol_cert = fleet.file_identities["carol"].certificate.encoded
    ini, rsp = fleet.pair(Variant.BASELINE)

    def mutate(i, wire):
        if i != 1:
            return wire
        msg = codec.decode_message(wire)
        bodies = [body if type(body) is not CertBody
                  else CertBody(body.encoding, carol_cert)
                  for body in msg.payloads]
        return codec.encode_message(_resign_chain(msg, bodies))

    drive_handshake(ini, rsp, mutate=mutate)
    assert ini.failure == "cert"
    assert ini.counters.sig_verifies == 0


def test_improved_cert_splice_fails_at_unsealing(fleet):
    rng = crypto.derive_rng(77, "splice")
    carol = fleet.tokens["carol"]
    sealed_foreign = crypto.seal(
        crypto.AES256GCM, crypto.kdf_serial(carol.serial), rng,
        carol.certificate.encoded)
    ini, rsp = fleet.pair(Variant.IMPROVED)

    def mutate(i, wire):
        if i != 1:
            return wire
        msg = codec.decode_message(wire)
        bodies = [body if type(body) is not CertBody
                  else CertBody(CERT_ENCODING_SEALED, sealed_foreign)
                  for body in msg.payloads]
        return codec.encode_message(_resign_chain(msg, bodies))

    drive_handshake(ini, rsp, mutate=mutate)
    assert ini.failure == "cert"
    assert ini.counters.sig_verifies == 0
    assert ini.counters.decrypt_failures == 1


def test_improved_cert_bound_to_another_serial_fails_cert():
    """Bob's device holds a certificate bound to another serial, while its
    DEV and chain carry his own: his certificate, key and signature are all
    genuine, so only the serial binding turns him away."""
    fleet = Fleet(seed=1)
    token = usbkey.create_token(b"\x01" * 7, fleet.deployment, "bob")
    token.serial = fleet.serials["bob"]
    fleet.tokens["bob"] = token
    ini, rsp = fleet.pair(Variant.IMPROVED)
    drive_handshake(ini, rsp)
    assert ini.failure == "cert"
    assert ini.counters.sig_verifies == 0


# --- replay of later messages -------------------------------------------------------

@pytest.mark.parametrize("variant", [Variant.BASELINE, Variant.IMPROVED])
def test_stale_msg3_rejected_by_fresh_responder(fleet, variant):
    ini1, rsp1 = fleet.pair(variant, label="first")
    wires = drive_handshake(ini1, rsp1)
    stale_msg3 = codec.decode_message(wires[2])

    ini2, rsp2 = fleet.pair(variant, label="second")
    msg2 = rsp2.responder_on_msg1(ini2.initiator_start())
    assert msg2 is not None
    assert rsp2.responder_on_msg3(stale_msg3) is None
    assert rsp2.failure == "sig-verify"


# --- state-machine safety -------------------------------------------------------------

def _deliver(party, wire):
    msg = codec.decode_message(wire)
    try:
        if party.role is Role.RESPONDER:
            if party.state is SessionState.IDLE:
                party.responder_on_msg1(msg)
            else:
                party.responder_on_msg3(msg)
        elif party.state is SessionState.SENT1:
            party.initiator_on_msg2(msg)
    except IkeDevError:
        pass


@pytest.mark.parametrize("variant", [Variant.BASELINE, Variant.IMPROVED])
def test_no_replayed_wire_sequence_reaches_establishment(fleet, variant):
    honest_i, honest_r = fleet.pair(variant, label="captured")
    wires = drive_handshake(honest_i, honest_r)
    assert len(wires) == 3

    count = 0
    for length in (1, 2, 3):
        for seq in itertools.product(range(3), repeat=length):
            label = f"victim-{variant.value}-{count}"
            count += 1
            ini = fleet.session("alice", Role.INITIATOR, variant, label=label)
            rsp = fleet.session("bob", Role.RESPONDER, variant, label=label,
                                replay_guard=ReplayGuard())
            ini.initiator_start()
            for idx in seq:
                _deliver(ini, wires[idx])
                _deliver(rsp, wires[idx])
            assert ini.state is not SessionState.ESTABLISHED, seq
            assert rsp.state is not SessionState.ESTABLISHED, seq


def test_out_of_order_calls_fail_cleanly(fleet):
    ini, rsp = fleet.pair(Variant.BASELINE, label="ooo")
    msg1 = ini.initiator_start()
    assert ini.initiator_start() is None          # double start
    assert ini.failure == "out-of-order"

    ini2, rsp2 = fleet.pair(Variant.BASELINE, label="ooo2")
    assert ini2.initiator_on_msg2(msg1) is None   # msg2 before start
    assert ini2.failure == "out-of-order"
    assert rsp2.responder_on_msg3(msg1) is None   # msg3 before msg1
    assert rsp2.failure == "out-of-order"


def test_role_confusion_is_rejected(fleet):
    rsp = fleet.session("bob", Role.RESPONDER, Variant.BASELINE, label="rc")
    assert rsp.initiator_start() is None
    assert rsp.failure == "out-of-order"
