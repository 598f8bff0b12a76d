"""Adversarial simulator tests: scripting, observation, verdict derivation."""

import collections
import dataclasses
import hashlib
import json
import os
import socket
import subprocess
import sys
import time
from pathlib import Path

import pytest

from conftest import requires_loopback_udp
from ikedev import cli, codec, crypto, netsim, protocol, usbkey
from ikedev.errors import ConfigError, IncompleteTrace, SelectorMiss
from ikedev.netsim import (
    EXPECTED_VERDICTS,
    FLOOD_COUNT,
    Flood,
    Observe,
    ObserverKnowledge,
    PrincipalConfig,
    Replay,
    ScenarioConfig,
    Tamper,
    battery_configs,
    observe,
    run_matrix,
    run_scenario,
    tamper_in_flight,
    verdicts_from_trace,
)
from ikedev.protocol import Role, Variant


def scenario(name="t", variant=Variant.IMPROVED, seed=5, adversary=(),
             **kwargs) -> ScenarioConfig:
    return ScenarioConfig(name=name, variant=variant, seed=seed,
                          adversary=tuple(adversary), **kwargs)


def _unfolded(report: dict) -> dict:
    """``report`` (a ``ScenarioReport.to_dict()``) with each message-log and
    failure-trace entry expanded into its ``count`` entries, the i-th of
    them at ``index + i``, and ``count`` dropped: one entry per datagram and
    per failure, as reports were before equal entries were folded."""
    def expand(entry: dict) -> list[dict]:
        rest = {k: v for k, v in entry.items() if k != "count"}
        if "index" not in rest:
            return [rest] * entry["count"]
        return [{**rest, "index": rest["index"] + i}
                for i in range(entry["count"])]

    return {**report, **{key: [e for entry in report[key] for e in expand(entry)]
                         for key in ("message_log", "failure_trace")}}


def _canonical(document: dict) -> bytes:
    """The bytes ``ScenarioReport.to_json`` gives for ``document``."""
    return json.dumps(document, sort_keys=True, separators=(",", ":")).encode()


# --- determinism -------------------------------------------------------------

def test_reports_are_byte_identical_across_runs():
    for variant in (Variant.BASELINE, Variant.IMPROVED):
        for cfg in battery_configs(variant, seed=17):
            assert run_scenario(cfg).to_json() == run_scenario(cfg).to_json()


def test_different_seeds_change_the_transcript():
    a = run_scenario(scenario(seed=1)).to_json()
    b = run_scenario(scenario(seed=2)).to_json()
    assert a != b


def test_report_json_is_canonical():
    report = run_scenario(scenario())
    parsed = json.loads(report.to_json())
    assert parsed == report.to_dict()
    assert report.to_json() == json.dumps(
        parsed, sort_keys=True, separators=(",", ":")).encode()


# SHA-256 over the battery for seeds 0-4, baseline then improved, each
# battery in order.  BATTERY_DIGEST hashes the canonical JSON of each report
# unfolded to one log entry per datagram and one trace entry per failure: it
# was recorded before the provisioning and codec speed-ups and before equal
# entries were folded, and any later change that keeps behaviour must keep
# it.  It was re-pinned once, when the signer-label key left the report:
# over tools/report_digest.py's whole set, each report then equalled the one
# before with that key dropped.  BATTERY_FOLDED_DIGEST hashes to_json() itself.
BATTERY_DIGEST = "6dbd40a5960553241b63d1389893a681a81510ae51a40eb16806a242982ac0da"
BATTERY_FOLDED_DIGEST = (
    "b9cde8a72cc655833774f6577b14131584b3a955008343a404fca8394a1bd597")


def _digests(reports) -> tuple[str, str]:
    """SHA-256 over the unfolded and over the folded bytes of ``reports``."""
    unfolded, folded = hashlib.sha256(), hashlib.sha256()
    for report in reports:
        unfolded.update(_canonical(_unfolded(report.to_dict())))
        folded.update(report.to_json())
    return unfolded.hexdigest(), folded.hexdigest()


def test_battery_reports_match_the_recorded_digest():
    assert _digests(
        run_scenario(cfg) for seed in range(5)
        for variant in (Variant.BASELINE, Variant.IMPROVED)
        for cfg in battery_configs(variant, seed)
    ) == (BATTERY_DIGEST, BATTERY_FOLDED_DIGEST)


# The gate-off battery of seeds 0-1, then every shipped scenario at seeds 0-1,
# unfolded and folded as above.
GATE_OFF_AND_SCENARIOS_DIGEST = (
    "369324e4b1f346c247c6b9b278b3632775c18338302b18b7f6e9cfb2214da976")
GATE_OFF_AND_SCENARIOS_FOLDED_DIGEST = (
    "f52caec288ef7f82610ad93cf98a3fbbd24b39dc59949e8db6688b282d7db7da")
SCENARIO_DIR = Path(__file__).resolve().parent.parent / "scenarios"


def test_gate_off_battery_and_shipped_scenarios_match_the_recorded_digest():
    configs = [cfg for seed in range(2)
               for variant in (Variant.BASELINE, Variant.IMPROVED)
               for cfg in battery_configs(variant, seed, disable_dos_gate=True)]
    configs += [dataclasses.replace(netsim.load_scenario(str(path)), seed=seed)
                for path in sorted(SCENARIO_DIR.glob("*.json"))
                for seed in range(2)]
    assert _digests(run_scenario(cfg) for cfg in configs) == (
        GATE_OFF_AND_SCENARIOS_DIGEST, GATE_OFF_AND_SCENARIOS_FOLDED_DIGEST)


# SHA-256 over every codec.encode_message return while the battery runs at
# seeds 0-3, baseline then improved, gate on then off, each flood cut to its
# first WIRE_FLOOD packets (the rest repeat the same recipe); the baseline
# digest hashes the baseline runs alone.  A change that moves a wire byte
# moves the first, and the second shows whether a baseline byte moved.
WIRE_DIGEST = "6fe69500f32833f6b0290bd39be8707ab46790b1081f76dbd2b01b733617f7e3"
BASELINE_WIRE_DIGEST = (
    "657d5e183f119a129e7097e72385f08c7989d34c0065630a1a7b6ede39a517de")
WIRE_FLOOD = 50


def test_wire_bytes_match_the_recorded_digests(monkeypatch):
    encode = codec.encode_message
    wire, baseline_wire = hashlib.sha256(), hashlib.sha256()
    variant = None

    def hashed_encode(msg):
        data = encode(msg)
        wire.update(data)
        if variant is Variant.BASELINE:
            baseline_wire.update(data)
        return data

    monkeypatch.setattr(codec, "encode_message", hashed_encode)
    for seed in range(4):
        for variant in (Variant.BASELINE, Variant.IMPROVED):
            for gate_off in (False, True):
                for cfg in battery_configs(variant, seed, gate_off):
                    if cfg.name == "flood":
                        cfg = dataclasses.replace(
                            cfg, adversary=(Flood(count=WIRE_FLOOD),))
                    run_scenario(cfg)
    assert (wire.hexdigest(), baseline_wire.hexdigest()) == (
        WIRE_DIGEST, BASELINE_WIRE_DIGEST)


# --- provisioning ------------------------------------------------------------

@pytest.mark.parametrize("variant, used, unused", [
    (Variant.BASELINE, "make_file_identity", "create_token"),
    (Variant.IMPROVED, "create_token", "make_file_identity"),
])
def test_honest_run_provisions_only_what_the_variant_signs_with(
        monkeypatch, variant, used, unused):
    calls = {used: 0, unused: 0}
    for name in calls:
        def counted(*args, _real=getattr(netsim, name), _name=name, **kwargs):
            calls[_name] += 1
            return _real(*args, **kwargs)
        monkeypatch.setattr(netsim, name, counted)
    report = run_scenario(scenario(variant=variant))
    assert report.established and report.skeyid_match
    assert calls == {used: 2, unused: 0}


def test_tokenless_principal_gets_no_token_in_either_variant():
    configs = (PrincipalConfig("alice", Role.INITIATOR, token=False),
               PrincipalConfig("bob", Role.RESPONDER))
    deployment = netsim._deployment(3)
    improved = netsim.build_principals(deployment, Variant.IMPROVED, configs)
    assert improved["alice"].token is None
    assert improved["bob"].token is not None
    baseline = netsim.build_principals(deployment, Variant.BASELINE, configs)
    assert all(p.token is None and p.file_identity is not None
               for p in baseline.values())


# --- flood -------------------------------------------------------------------

def test_flood_counters_baseline():
    cfg = scenario(variant=Variant.BASELINE, handshake=False,
                   adversary=[Flood(count=FLOOD_COUNT)])
    report = run_scenario(cfg)
    bob = report.principal_counters["bob"]
    assert report.flood_sent == FLOOD_COUNT
    assert bob["dh_ops"] == FLOOD_COUNT
    assert bob["messages_rejected_pre_dh"] == 0
    assert report.verdicts["dos_prevention"] == netsim.NOT_SUPPORTED


def test_flood_counters_improved():
    cfg = scenario(variant=Variant.IMPROVED, handshake=False,
                   adversary=[Flood(count=FLOOD_COUNT)])
    report = run_scenario(cfg)
    bob = report.principal_counters["bob"]
    assert bob["dh_ops"] == 0
    assert bob["messages_rejected_pre_dh"] == FLOOD_COUNT
    assert bob["decrypt_failures"] == FLOOD_COUNT
    assert report.verdicts["dos_prevention"] == netsim.SUPPORTED


def test_a_malformed_msg1_after_a_flood_is_rejected_pre_dh():
    """Whether a reject comes before DH is the session's own fact, not its
    principal's: after one baseline flood packet has cost bob a DH, a
    message 1 whose SA header links to ID instead of KE still counts as a
    pre-DH reject."""
    sa_next_type = codec.HEADER_LEN   # KE (4) xor 1 is ID (5)
    report = run_scenario(scenario(
        variant=Variant.BASELINE,
        adversary=[Flood(count=1), Tamper(message=1, offset=sa_next_type)]))
    bob = report.principal_counters["bob"]
    assert bob["dh_ops"] == 1
    assert bob["messages_rejected_pre_dh"] == 1
    assert report.failure_trace == [{"principal": "bob",
                                     "op": "responder_on_msg1",
                                     "failure": "malformed", "count": 1}]


# The calls a flood packet is charged for, counted through module attributes.
_FLOOD_CHARGES = ((crypto, "dh_keypair"), (crypto, "dh_shared"),
                  (crypto, "derive_skeyid"), (crypto, "sign"),
                  (crypto, "kdf_session"), (crypto, "open_sealed"),
                  (crypto, "seal"), (codec, "encode_message"))


@pytest.mark.parametrize("variant", list(Variant))
def test_each_flood_packet_pays_what_the_model_charges(monkeypatch, variant):
    """A speedup of the flood path keeps its work: 50 desk64 packets cost
    the forger one encode each, and two seals each (its DEV and its chain)
    in the improved variant, the baseline responder one keypair, one
    shared secret, one SKEYID ladder and one signature each, and the gated
    improved responder one failing key1 open each and nothing more.  The
    responder seals nothing: a reply to a flood packet is lost unsent."""
    party = ["setup"]               # who makes the calls counted now
    calls = collections.Counter()   # (party, name) and (party, name, "failed")

    def acting_as(label, method):
        def acting(*args, **kwargs):
            party.append(label)
            try:
                return method(*args, **kwargs)
            finally:
                party.pop()
        return acting

    monkeypatch.setattr(netsim, "_forged_msg1",
                        acting_as("forger", netsim._forged_msg1))
    monkeypatch.setattr(protocol.HandshakeSession, "responder_on_msg1",
                        acting_as("responder",
                                  protocol.HandshakeSession.responder_on_msg1))
    for module, name in _FLOOD_CHARGES:
        original = getattr(module, name)

        def counting(*args, _name=name, _original=original, **kwargs):
            calls[party[-1], _name] += 1
            try:
                return _original(*args, **kwargs)
            except Exception:
                calls[party[-1], _name, "failed"] += 1
                raise

        for mod in (codec, crypto, usbkey, protocol, netsim):
            for key, value in list(vars(mod).items()):
                if value is original:
                    monkeypatch.setattr(mod, key, counting)

    report = run_scenario(scenario(variant=variant, handshake=False,
                                   adversary=[Flood(count=50)]))
    assert report.flood_sent == 50
    assert calls["forger", "encode_message"] == 50
    assert calls["forger", "seal"] == (100 if variant is Variant.IMPROVED
                                       else 0)
    assert calls["responder", "seal"] == 0
    responder = {name: calls["responder", name] for _, name in _FLOOD_CHARGES}
    if variant is Variant.BASELINE:
        for name in ("dh_keypair", "dh_shared", "derive_skeyid", "sign"):
            assert responder[name] == 50
    else:
        assert responder["open_sealed"] == 50
        assert calls["responder", "open_sealed", "failed"] == 50
        for name in ("dh_keypair", "dh_shared", "sign", "kdf_session"):
            assert responder[name] == 0


@pytest.mark.parametrize("seed", [424242, 424243])
def test_an_honest_handshake_builds_one_cipher_per_key(seed):
    """Of an improved handshake's 16 seals and opens, only the first under
    each of its five keys (key1, each side's chain key and serial key)
    builds a cipher: the chain opens and the second CERT/SIG seal hit the
    cache."""
    before = crypto._aesgcm.cache_info().misses
    report = run_scenario(scenario(variant=Variant.IMPROVED, seed=seed))
    assert report.established is True
    assert crypto._aesgcm.cache_info().misses - before == 5


def test_gate_disabled_flood_loses_dos_protection():
    cfg = scenario(variant=Variant.IMPROVED, handshake=False,
                   adversary=[Flood(count=50)], disable_dos_gate=True)
    report = run_scenario(cfg)
    assert report.principal_counters["bob"]["dh_ops"] == 50
    assert report.verdicts["dos_prevention"] == netsim.NOT_SUPPORTED


def test_flood_then_honest_handshake_still_works():
    cfg = scenario(variant=Variant.IMPROVED,
                   adversary=[Flood(count=25)])
    report = run_scenario(cfg)
    assert report.established is True and report.skeyid_match is True
    assert report.principal_counters["bob"]["dh_ops"] == 1


# --- tampering ----------------------------------------------------------------

def test_tamper_selector_by_payload_type():
    from conftest import Fleet, drive_handshake
    fleet = Fleet()
    wires = drive_handshake(*fleet.pair(Variant.BASELINE))
    out = tamper_in_flight(wires[0], Tamper(message=0, payload="KE"))
    assert len(out) == len(wires[0])
    diff = [i for i in range(len(out)) if out[i] != wires[0][i]]
    ranges = {r.type.name: r for r in codec.payload_byte_ranges(wires[0])}
    assert diff == [ranges["KE"].body_start]


def test_tamper_selector_misses():
    from conftest import Fleet, drive_handshake
    fleet = Fleet()
    base = drive_handshake(*fleet.pair(Variant.BASELINE))
    improved = drive_handshake(*fleet.pair(Variant.IMPROVED))

    with pytest.raises(SelectorMiss):   # SA rides inside the sealed blob
        tamper_in_flight(improved[0], Tamper(message=0, payload="SA",
                                             fallback_to_blob=False))
    with pytest.raises(SelectorMiss):   # offset beyond the selected body
        tamper_in_flight(base[0], Tamper(message=0, payload="KE", offset=500))
    with pytest.raises(SelectorMiss):   # raw offset beyond the datagram
        tamper_in_flight(base[0], Tamper(message=0, offset=10_000))
    with pytest.raises(SelectorMiss):   # unparseable message
        tamper_in_flight(b"\x00" * 10, Tamper(message=0, payload="SA"))


@pytest.mark.parametrize("kwargs, fragment", [
    ({"message": -1}, "message"),
    ({"message": 0, "offset": -3}, "offset"),
    ({"message": 0, "payload": "KE", "offset": -3}, "offset"),
    ({"message": 0, "xor": 0}, "xor"),
    ({"message": 0, "xor": 256}, "xor"),
    ({"message": 0, "payload": "XYZ"}, "payload"),
], ids=["message-1", "offset-3", "KE-offset-3", "xor0", "xor256", "XYZ"])
def test_a_tamper_outside_its_bounds_is_a_config_error(kwargs, fragment):
    # a negative offset would reach before the selected body, and an xor
    # of 0 would log a tamper that changed no byte
    with pytest.raises(ConfigError, match=fragment):
        Tamper(**kwargs)


@pytest.mark.parametrize("count", [0, -1])
def test_a_flood_of_no_packets_is_a_config_error(count):
    # it would send nothing and leave the report with no DoS verdict
    with pytest.raises(ConfigError, match="count"):
        Flood(count=count)


def test_a_replay_before_the_first_datagram_is_a_config_error():
    with pytest.raises(ConfigError, match="message"):
        Replay(message=-1)


def test_a_principal_name_used_twice_is_a_config_error():
    # otherwise it fails only at run time, and for a misleading reason
    with pytest.raises(ConfigError, match="duplicate"):
        ScenarioConfig(name="t", variant=Variant.IMPROVED, seed=1,
                       principals=(PrincipalConfig("alice", Role.INITIATOR),
                                   PrincipalConfig("alice", Role.RESPONDER)))


@pytest.mark.parametrize("kwargs, fragment", [
    ({"principals": ()}, "needs a responder"),
    ({"principals": (PrincipalConfig("bob", Role.RESPONDER),),
      "handshake": True}, "needs an initiator"),
    ({"adversary": (Tamper(message=3),)}, "tamper index 3"),
], ids=["no-responder", "no-initiator", "tamper-past-the-script"])
def test_a_config_built_in_code_is_held_to_the_pre_run_rules(kwargs, fragment):
    # raised when the config is built, not when it runs
    with pytest.raises(ConfigError, match=fragment):
        ScenarioConfig(**kwargs)


def test_json_and_code_share_one_set_of_defaults():
    assert ScenarioConfig.from_dict({}) == ScenarioConfig()
    assert ScenarioConfig.from_dict(
        {"adversary": [{"action": "flood"}]}).adversary == (Flood(),)


def test_raw_offset_tamper_flips_exactly_one_byte():
    data = bytes(range(100))
    out = tamper_in_flight(data, Tamper(message=0, offset=40, xor=0xFF))
    assert out[40] == data[40] ^ 0xFF
    assert out[:40] == data[:40] and out[41:] == data[41:]


def test_blob_fallback_flips_the_offset_byte_of_the_blob():
    from conftest import Fleet, drive_handshake
    improved = drive_handshake(*Fleet().pair(Variant.IMPROVED))
    for wire in improved[:2]:
        out = tamper_in_flight(wire, Tamper(message=0, payload="SA", offset=5))
        diff = [i for i in range(len(out)) if out[i] != wire[i]]
        blob = codec.decode_message(wire).encrypted_chain
        assert diff == [len(wire) - len(blob) + 5]
    with pytest.raises(SelectorMiss):   # offset beyond the blob
        tamper_in_flight(improved[0], Tamper(message=0, payload="SA",
                                             offset=len(improved[0])))


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_a_certificate_whose_self_signature_is_corrupted_fails_cert(seed):
    """Message 2's CERT body is the encoding byte, then the certificate, so
    an offset of the certificate's length flips the last byte of Bob's
    self-signature.  The key, the subject and HASH_R's signature are all
    intact: only ``verify_certificate`` turns the run away."""
    cert_len = len(usbkey.make_file_identity(
        "bob", bytes(32)).certificate.encoded)
    report = run_scenario(scenario(
        variant=Variant.BASELINE, seed=seed,
        adversary=[Tamper(message=1, payload="CERT", offset=cert_len)]))
    assert report.established is False
    assert report.failure_trace == [{"principal": "alice",
                                     "op": "initiator_on_msg2",
                                     "failure": "cert", "count": 1}]


@pytest.fixture
def decoded(monkeypatch) -> list[bytes]:
    """Every datagram ``codec.decode_message`` is called on, in order."""
    decode = codec.decode_message
    calls = []

    def counting_decode(data):
        calls.append(data)
        return decode(data)

    monkeypatch.setattr(codec, "decode_message", counting_decode)
    return calls


@pytest.mark.parametrize("variant", [Variant.BASELINE, Variant.IMPROVED])
@pytest.mark.parametrize("name", ["tamper-sa", "tamper-ke"])
def test_tampered_datagrams_are_decoded_once_more(decoded, variant, name):
    cfg = next(c for c in battery_configs(variant, seed=1) if c.name == name)
    log = run_scenario(cfg).message_log
    assert len(decoded) == len(log) + sum(m["tampered"] for m in log)


def test_tamper_scenario_baseline_detected_late():
    report = run_scenario(scenario(
        variant=Variant.BASELINE,
        adversary=[Tamper(message=1, payload="SA")]))
    assert report.established is False
    assert report.total_sig_verifies() >= 1
    assert any(f["failure"] == "sig-verify" for f in report.failure_trace)
    assert any(m["tampered"] for m in report.message_log)


def test_tamper_scenario_improved_blob_fallback():
    report = run_scenario(scenario(
        variant=Variant.IMPROVED,
        adversary=[Tamper(message=1, payload="SA")]))
    assert report.established is False
    assert report.total_sig_verifies() == 0
    assert any(f["failure"] == "chain" for f in report.failure_trace)


def test_tamper_without_fallback_propagates_miss():
    cfg = scenario(variant=Variant.IMPROVED,
                   adversary=[Tamper(message=1, payload="SA",
                                     fallback_to_blob=False)])
    with pytest.raises(SelectorMiss):
        run_scenario(cfg)


# --- observation ----------------------------------------------------------------

def test_blind_observer_reads_everything_off_baseline():
    report = run_scenario(scenario(
        variant=Variant.BASELINE,
        adversary=[Observe(ObserverKnowledge.NONE)]))
    seen = {f["payload"] for f in report.observer_findings}
    assert {"SA", "KE", "NONCE", "ID", "CERT", "SIG"} <= seen
    messages = {f["message"] for f in report.observer_findings}
    assert messages == {0, 1, 2}


def test_blind_observer_reads_nothing_off_improved():
    report = run_scenario(scenario(
        variant=Variant.IMPROVED,
        adversary=[Observe(ObserverKnowledge.NONE)]))
    assert report.observer_findings == []
    assert report.verdicts["cert_sig_protection"] == netsim.SUPPORTED


def test_insider_observer_recovers_improved_plaintext():
    report = run_scenario(scenario(
        variant=Variant.IMPROVED,
        adversary=[Observe(ObserverKnowledge.HAS_KEY1_AND_TOKEN)]))
    seen = {f["payload"] for f in report.observer_findings}
    assert "DEV-SERIAL" in seen        # the gate secret falls to key1 holders
    assert {"SA", "KE"} <= seen        # blob contents fall to session keys
    assert {"CERT", "SIG"} <= seen     # sealed bodies fall to serial keys
    # message 3 carries no DEV payload: decrypting it proves the observer
    # carried serials across the transcript
    assert any(f["payload"] == "CERT" and f["message"] == 2
               for f in report.observer_findings)


def test_observe_function_is_pure_for_blind_knowledge():
    from conftest import Fleet, drive_handshake
    wires = drive_handshake(*Fleet().pair(Variant.BASELINE))
    msg1 = codec.decode_message(wires[0])
    findings = observe(msg1, None, set())
    assert {f.payload for f in findings} == {"SA", "KE", "NONCE", "ID"}
    assert observe(msg1, None, set()) == findings


def test_a_party_with_only_a_serial_reads_that_devices_cert_and_sig():
    # CERT and SIG are sealed under kdf_serial(serial) alone, and a serial
    # is no secret: without key1 the DEV and the chain stay shut
    from conftest import Fleet, drive_handshake
    fleet = Fleet()
    wires = drive_handshake(*fleet.pair(Variant.IMPROVED))
    msg2 = codec.decode_message(wires[1])
    findings = observe(msg2, None, {fleet.serials["bob"]})
    assert [f.payload for f in findings] == ["CERT", "SIG"]
    assert usbkey.decode_certificate(findings[0].plaintext).subject == "bob"
    assert len(findings[1].plaintext) == crypto.SIGNATURE_LEN


def test_a_serial_observer_reads_bobs_cert_and_sig_off_message_2():
    report = run_scenario(scenario(
        adversary=[Observe(ObserverKnowledge.SERIAL)]))
    assert report.established is True
    assert [(f["knowledge"], f["message"], f["payload"])
            for f in report.observer_findings] == [
        ("serial", 1, "CERT"), ("serial", 1, "SIG")]
    cert, sig = (bytes.fromhex(f["hex"]) for f in report.observer_findings)
    assert usbkey.decode_certificate(cert).subject == "bob"
    assert len(sig) == crypto.SIGNATURE_LEN


@pytest.mark.parametrize("variant", [Variant.BASELINE, Variant.IMPROVED])
def test_a_serial_observer_changes_no_verdict(variant):
    # the paper's verdicts read the no-knowledge observer only
    reports = []
    for cfg in battery_configs(variant, seed=1):
        if cfg.name == "honest":
            cfg = dataclasses.replace(cfg, adversary=cfg.adversary + (
                Observe(ObserverKnowledge.SERIAL),))
        reports.append(run_scenario(cfg))
    assert verdicts_from_trace(reports) == EXPECTED_VERDICTS[variant.value]


def test_observer_handles_garbage_datagrams():
    # byte 17 is the header version: message 1 does not decode, so the
    # observer is not shown it and the failure is traced once
    observer = Observe(ObserverKnowledge.NONE)
    clear = run_scenario(scenario(variant=Variant.BASELINE,
                                  adversary=[observer]))
    assert any(f["message"] == 0 for f in clear.observer_findings)
    report = run_scenario(scenario(
        variant=Variant.BASELINE,
        adversary=[observer, Tamper(message=0, offset=17)]))
    assert not any(f["message"] == 0 for f in report.observer_findings)
    assert report.failure_trace == [{"principal": "bob", "op": "decode",
                                     "failure": "codec:BadVersion", "count": 1}]


def test_observed_datagrams_are_decoded_once(decoded):
    for knowledge in ObserverKnowledge:
        decoded.clear()
        report = run_scenario(scenario(adversary=[Observe(knowledge)]))
        assert report.established is True
        assert len(decoded) == len(report.message_log) == 3


# --- replay scenarios --------------------------------------------------------------

def test_replayed_msg1_hits_the_guard_improved():
    report = run_scenario(scenario(
        variant=Variant.IMPROVED, adversary=[Replay(message=0)]))
    assert report.established is True  # the honest run already finished
    assert any(f["failure"] == "replay" for f in report.failure_trace)


def test_replayed_msg1_fools_baseline_responder():
    report = run_scenario(scenario(
        variant=Variant.BASELINE, adversary=[Replay(message=0)]))
    # the baseline responder answers the replay as if it were fresh
    assert not any(f["failure"] == "replay" for f in report.failure_trace)
    assert report.principal_counters["bob"]["dh_ops"] == 2


@pytest.mark.parametrize("variant", [Variant.BASELINE, Variant.IMPROVED])
def test_a_replayed_replay_goes_to_the_step_of_its_original(variant):
    # message 3 is the replay of message 2 (msg3), so it too is a msg3
    report = run_scenario(scenario(variant=variant, seed=1, adversary=[
        Replay(message=2), Replay(message=3)]))
    log = _unfolded(report.to_dict())["message_log"]
    assert [m["kind"] for m in log[3:]] == ["replay", "replay"]
    assert report.principal_counters["bob"]["messages_rejected_pre_dh"] == 0
    assert report.failure_trace == [
        {"principal": "bob", "op": "responder_on_msg3",
         "failure": "out-of-order", "count": 2}]


def test_a_reply_to_a_replay_is_never_sent():
    # The baseline responder answers the replayed message 1 (and pays a DH
    # keypair for it), but no session sent the replay, so the reply is lost.
    # A flood's: test_a_flood_is_one_log_entry_and_one_trace_entry.
    report = run_scenario(scenario(variant=Variant.BASELINE, seed=1,
                                   adversary=[Replay(message=0)]))
    assert report.principal_counters["bob"]["dh_ops"] == 2
    assert [(m["src"], m["dst"], m["kind"])
            for m in _unfolded(report.to_dict())["message_log"]] == [
        ("alice", "bob", "msg1"), ("bob", "alice", "msg2"),
        ("alice", "bob", "msg3"), ("adversary", "bob", "replay")]


@pytest.mark.parametrize("variant, alice_token, replayed", [
    (Variant.BASELINE, True, 2), (Variant.IMPROVED, True, 2),
    (Variant.IMPROVED, False, 1)])
def test_each_scripted_datagram_opens_the_next_session_ordinal(
        monkeypatch, variant, alice_token, replayed):
    # Floods, then the handshake, then a replay.  A tokenless initiator
    # sends no message 1, and bob still opens the handshake's session.
    labels = []
    derive_rng = crypto.derive_rng

    def recording(seed, label):
        if label.startswith("session|"):
            labels.append(label.removeprefix("session|"))
        return derive_rng(seed, label)
    monkeypatch.setattr(crypto, "derive_rng", recording)
    run_scenario(scenario(
        variant=variant, seed=1,
        principals=(PrincipalConfig("alice", Role.INITIATOR, alice_token),
                    PrincipalConfig("bob", Role.RESPONDER)),
        adversary=[Flood(count=2), Replay(message=replayed)]))
    assert labels == ["bob|0", "bob|1", "alice|0", "bob|2", "bob|3"]


def test_replay_index_out_of_range_is_config_error():
    with pytest.raises(ConfigError):
        run_scenario(scenario(adversary=[Replay(message=40)]))


def test_a_tamper_past_the_last_datagram_is_config_error():
    with pytest.raises(ConfigError, match="tamper index 40"):
        run_scenario(scenario(seed=1, adversary=[
            Tamper(message=40, payload="SA")]))


def test_a_tamper_the_run_never_reaches_tampers_nothing():
    # The first tamper breaks the header version, so bob never answers and
    # message 3 is never sent: the second tamper is in the script's reach
    # but not in this run's.
    report = run_scenario(scenario(seed=1, adversary=[
        Tamper(message=0, offset=17), Tamper(message=2, payload="SIG")]))
    assert report.established is False
    assert [m["tampered"] for m in report.message_log] == [True]


def test_the_tamper_bound_counts_floods_ladder_and_replays():
    script = [Flood(count=2), Replay(message=0)]   # 2 + 3 + 1 datagrams
    report = run_scenario(scenario(seed=1, adversary=[
        *script, Tamper(message=5, offset=0)]))
    log = _unfolded(report.to_dict())["message_log"]
    assert [m["tampered"] for m in log] == [False] * 5 + [True]
    with pytest.raises(ConfigError, match="tamper index 6"):
        run_scenario(scenario(seed=1, adversary=[
            *script, Tamper(message=6, offset=0)]))


# --- scenario config parsing ----------------------------------------------------------

def test_from_dict_round_trip_minimal():
    cfg = ScenarioConfig.from_dict({"name": "x", "variant": "improved",
                                    "seed": 3})
    assert cfg.variant is Variant.IMPROVED
    assert [p.name for p in cfg.principals] == ["alice", "bob"]
    assert cfg.handshake is True


def test_from_dict_reads_the_serial_knowledge_level():
    cfg = ScenarioConfig.from_dict({"adversary": [
        {"action": "observe", "knowledge": "serial"}]})
    assert cfg.adversary == (Observe(ObserverKnowledge.SERIAL),)


@pytest.mark.parametrize("raw,fragment", [
    ({"variant": "quantum"}, "variant"),
    ({"typo_field": 1}, "unknown scenario fields"),
    ({"principals": [{"name": "a"}]}, "name and role"),
    ({"principals": [{"name": "a", "role": "spectator"}]}, "role"),
    ({"principals": [{"name": "a", "role": "initiator"},
                     {"name": "a", "role": "responder"}]}, "duplicate"),
    ({"adversary": [{"action": "teleport"}]}, "action"),
    ({"adversary": [{"action": "flood", "count": 0}]}, "count"),
    ({"adversary": [{"action": "tamper", "message": 0, "xor": 0}]}, "xor"),
    ({"adversary": [{"action": "tamper", "message": 0, "xor": 256}]}, "xor"),
    ({"adversary": [{"action": "tamper"}]}, "message"),
    ({"adversary": [{"action": "observe", "knowledge": "psychic"}]},
     "knowledge"),
    ({"adversary": [{"action": "flood", "count": 5, "volume": 11}]},
     "unknown"),
    ({"adversary": [{"action": "tamper", "message": 0, "payload": "KE",
                     "offset": -3}]}, "offset"),
    ({"adversary": [{"action": "replay", "message": 0, "delay": 5}]},
     "unknown"),
    ({"adversary": [{"action": "tamper", "message": -1}]}, "message"),
    ({"group": "modp1024"}, "DH group"),
    ({"seed": "abc"}, "seed"),
    ({"seed": 1.5}, "seed"),
    ({"seed": True}, "seed"),
    ({"variant": "improved", "disable_dos_gate": "false"}, "disable_dos_gate"),
    ({"handshake": 0}, "handshake"),
    ({"principals": [{"name": "a", "role": "initiator", "token": "no"}]},
     "token"),
    ({"adversary": [{"action": "flood", "count": True}]}, "count"),
    ({"adversary": [{"action": "flood", "count": "5"}]}, "count"),
    ({"adversary": [{"action": "tamper", "message": "0"}]}, "message"),
    ({"adversary": [{"action": "tamper", "message": 0, "offset": 1.0}]},
     "offset"),
    ({"adversary": [{"action": "tamper", "message": 0, "xor": "1"}]}, "xor"),
    ({"adversary": [{"action": "tamper", "message": 0,
                     "fallback_to_blob": 1}]}, "fallback_to_blob"),
    ({"adversary": [{"action": "replay", "message": False}]}, "message"),
    ({"adversary": [{"action": "tamper", "message": 0, "payload": "XYZ"}]},
     "payload"),
    ({"adversary": [{"action": "tamper", "message": 0, "payload": 55}]},
     "payload"),
    ({"name": 7}, "name"),
    ({"principals": [{"name": 7, "role": "initiator"}]}, "name"),
    ({"adversary": [{"action": "flood", "forge_source": ["x"]}]},
     "forge_source"),
    ({"adversary": [{"action": "replay", "message": -1}]}, "message"),
    ({"adversary": 5}, "adversary must be a JSON array"),
    ({"principals": None}, "principals must be a JSON array"),
    ({"adversary": [{"action": ["x"]}]}, "unknown adversary action"),
    ({"adversary": "flood"}, "adversary must be a JSON array"),
    ({"principals": "ab"}, "principals must be a JSON array"),
])
def test_from_dict_rejects_bad_configs(raw, fragment):
    with pytest.raises(ConfigError) as exc:
        ScenarioConfig.from_dict(raw)
    assert fragment in str(exc.value)


def test_load_scenario_missing_and_malformed(tmp_path):
    with pytest.raises(ConfigError):
        netsim.load_scenario(str(tmp_path / "absent.json"))
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(ConfigError):
        netsim.load_scenario(str(bad))


def test_load_scenario_reads_the_shipped_files():
    paths = sorted(SCENARIO_DIR.glob("*.json"))
    assert paths
    for path in paths:
        run_scenario(netsim.load_scenario(str(path)))  # must execute cleanly


# --- message accounting ------------------------------------------------------------

def test_message_log_accounts_for_every_datagram(monkeypatch):
    sent = []   # every datagram is encoded once, floods included
    encode = codec.encode_message
    monkeypatch.setattr(codec, "encode_message",
                        lambda msg: sent.append(msg) or encode(msg))
    report = run_scenario(scenario(
        variant=Variant.IMPROVED,
        adversary=[Flood(count=3), Tamper(message=4, payload="SA"),
                   Observe(ObserverKnowledge.NONE)]))
    log = report.message_log
    # each entry's indexes run on from the last one's, through the last datagram
    assert [m["index"] for m in log] == [0] + [
        m["index"] + m["count"] for m in log[:-1]]
    assert sum(m["count"] for m in log) == len(sent) == 5   # no message 3
    assert all(m["delivered"] for m in log)
    assert sum(m["count"] for m in log if m["tampered"]) == 1
    assert sum(m["count"] for m in log if m["kind"] == "flood") == 3
    # improved handshake messages lead with the DEV payload
    msg1 = next(m for m in log if m["kind"] == "msg1")
    assert msg1["payloads"][0] == "DEV" and msg1["blob_bytes"] > 0


@pytest.mark.parametrize("variant, trace", [
    (Variant.IMPROVED, [{"principal": "bob", "op": "responder_on_msg1",
                         "failure": "bad-dev", "count": 1000}]),
    (Variant.BASELINE, []),
])
def test_a_flood_is_one_log_entry_and_one_trace_entry(variant, trace):
    report = run_scenario(scenario(variant=variant, handshake=False,
                                   adversary=[Flood(count=1000)]))
    assert [(m["index"], m["kind"], m["count"]) for m in report.message_log] \
        == [(0, "flood", 1000)]
    assert report.failure_trace == trace


def test_undecodable_datagram_is_logged_and_traced_once():
    # byte 17 is the header version: the responder cannot decode message 1
    report = run_scenario(scenario(adversary=[Tamper(message=0, offset=17)]))
    assert report.established is False
    assert report.message_log[0]["payloads"] == []
    assert report.message_log[0]["tampered"] is True
    assert report.failure_trace == [{"principal": "bob", "op": "decode",
                                     "failure": "codec:BadVersion", "count": 1}]


# --- folding equal log and trace rows ------------------------------------------

def _log_row(**changes) -> tuple:
    """A flood packet's message-log row, as ``transmit`` appends it."""
    values = {"src": "attacker", "dst": "bob", "kind": "flood", "size": 100,
              "payloads": ["SA", "KE", "NONCE", "ID"], "blob_bytes": 0,
              "tampered": False, "delivered": True, **changes}
    return tuple(values[name] for name in netsim._LOG_FIELDS)


def _log_entry(index: int, count: int, **changes) -> dict:
    """The report entry for ``count`` rows ``_log_row(**changes)`` from
    position ``index`` on."""
    return {"index": index, **dict(zip(netsim._LOG_FIELDS, _log_row(**changes))),
            "count": count}


def _fold_log(rows: list[tuple]) -> list[dict]:
    return netsim._folded(rows, netsim._LOG_FIELDS, indexed=True)


def test_folded_counts_a_run_of_equal_entries_on_its_first():
    assert _fold_log([_log_row()] * 3) == [_log_entry(0, 3)]


@pytest.mark.parametrize("changes", [
    {"src": "mallory"}, {"dst": "carol"}, {"kind": "replay"}, {"size": 101},
    {"payloads": ["SA", "KE", "NONCE"]}, {"blob_bytes": 1},
    {"tampered": True}, {"delivered": False},
], ids=lambda changes: "-".join(f"{k}={v}" for k, v in changes.items()))
def test_folded_starts_a_new_entry_when_one_field_differs(changes):
    rows = [_log_row(), _log_row(), _log_row(**changes)]
    # the new entry holds its row's fields, with count 1
    assert _fold_log(rows) == [_log_entry(0, 2), _log_entry(2, 1, **changes)]
    # and the next equal row runs on from it
    assert _fold_log(rows + [_log_row(**changes)]) == [
        _log_entry(0, 2), _log_entry(2, 2, **changes)]


def test_folded_indexes_an_entry_at_its_runs_first_row():
    a, b = _log_row(), _log_row(kind="replay")
    assert _fold_log([a, a, b]) == [_log_entry(0, 2),
                                    _log_entry(2, 1, kind="replay")]


def test_folded_starts_a_new_run_where_an_earlier_row_recurs():
    a, b = _log_row(), _log_row(kind="replay")
    assert _fold_log([a, a, b, a]) == [_log_entry(0, 2),
                                       _log_entry(2, 1, kind="replay"),
                                       _log_entry(3, 1)]


def test_folded_folds_unindexed_entries_on_equality_alone():
    bad_dev = {"principal": "bob", "op": "responder_on_msg1",
               "failure": "bad-dev"}
    replay = {**bad_dev, "failure": "replay"}
    rows = [tuple(entry[name] for name in netsim._TRACE_FIELDS)
            for entry in (bad_dev, bad_dev, bad_dev, replay, bad_dev)]
    assert netsim._folded(rows, netsim._TRACE_FIELDS, indexed=False) == [
        {**bad_dev, "count": 3}, {**replay, "count": 1},
        {**bad_dev, "count": 1}]


# --- UDP loopback hop -----------------------------------------------------------------

def _token_layout(alice: bool, bob: bool) -> tuple[PrincipalConfig, ...]:
    return (PrincipalConfig("alice", Role.INITIATOR, token=alice),
            PrincipalConfig("bob", Role.RESPONDER, token=bob))


@requires_loopback_udp
@pytest.mark.parametrize("seed", [1, 2])
@pytest.mark.parametrize("alice, bob", [(True, True), (False, True),
                                        (True, False), (False, False)])
@pytest.mark.parametrize("variant", [Variant.BASELINE, Variant.IMPROVED])
def test_udp_report_equals_the_in_memory_report(variant, alice, bob, seed):
    cfg = ScenarioConfig(name="handshake", variant=variant, seed=seed,
                         principals=_token_layout(alice, bob))
    assert run_scenario(cfg, udp=True).to_json() == run_scenario(cfg).to_json()


@requires_loopback_udp
@pytest.mark.parametrize("variant", [Variant.BASELINE, Variant.IMPROVED])
def test_udp_battery_equals_the_in_memory_battery(variant):
    for cfg in battery_configs(variant, seed=3):
        assert (run_scenario(cfg, udp=True).to_json()
                == run_scenario(cfg).to_json()), cfg.name


@requires_loopback_udp
def test_udp_returns_at_once_when_the_initiator_gives_up():
    start = time.monotonic()
    report = run_scenario(ScenarioConfig(
        name="handshake", variant=Variant.IMPROVED, seed=7,
        principals=_token_layout(alice=False, bob=True)), udp=True)
    assert time.monotonic() - start < 5
    assert report.failure_trace == [
        {"principal": "alice", "op": "initiator_start",
         "failure": "no device", "count": 1}]
    assert report.established is False
    assert report.message_log == []


@requires_loopback_udp
def test_udp_returns_at_once_when_the_responder_gives_up():
    start = time.monotonic()
    report = run_scenario(ScenarioConfig(
        name="handshake", variant=Variant.IMPROVED, seed=7,
        principals=_token_layout(alice=True, bob=False)), udp=True)
    assert time.monotonic() - start < 5
    assert [e["failure"] for e in report.failure_trace
            if e["principal"] == "bob"] == ["no device"]
    assert len(report.message_log) == 1


@requires_loopback_udp
def test_a_failed_udp_read_delivers_nothing(monkeypatch):
    def timed_out(self, bufsize):
        raise TimeoutError("timed out")

    monkeypatch.setattr(socket.socket, "recvfrom", timed_out)
    start = time.monotonic()
    report = run_scenario(scenario(seed=7), udp=True)
    assert time.monotonic() - start < 1
    assert report.failure_trace == [{"principal": "bob", "op": "recv",
                                     "failure": "udp:TimeoutError", "count": 1}]
    assert [m["delivered"] for m in report.message_log] == [False]
    assert report.message_log[0]["payloads"] == []
    assert report.established is False


# --- verdict derivation --------------------------------------------------------------

def test_verdicts_from_trace_requires_full_battery():
    reports = [run_scenario(cfg)
               for cfg in battery_configs(Variant.IMPROVED, seed=5)[:2]]
    with pytest.raises(IncompleteTrace) as exc:
        verdicts_from_trace(reports)
    assert "tamper-sa" in str(exc.value)


def test_cert_sig_protection_needs_an_established_honest_run():
    # a blind observer that reads no CERT or SIG shows nothing when none
    # was exchanged, so an honest run that never establishes cannot support
    # the cell
    reports = []
    for cfg in battery_configs(Variant.IMPROVED, seed=1):
        if cfg.name == "honest":
            cfg = dataclasses.replace(cfg, principals=(
                PrincipalConfig("alice", Role.INITIATOR, token=False),
                PrincipalConfig("bob", Role.RESPONDER)))
        reports.append(run_scenario(cfg))
    assert reports[0].established is False
    assert (verdicts_from_trace(reports)["cert_sig_protection"]
            == netsim.NOT_SUPPORTED)


@pytest.mark.parametrize("tokenless", [
    ("honest", "flood", "tamper-sa", "tamper-ke"), ("tamper-sa", "tamper-ke")])
def test_sa_ke_protection_needs_delivered_tampers_and_an_honest_run(tokenless):
    # a tokenless initiator sends nothing, so its runs deliver no tamper and
    # its blind observer reads nothing: neither shows any protection
    alice = PrincipalConfig("alice", Role.INITIATOR, token=False)
    bob = PrincipalConfig("bob", Role.RESPONDER)
    reports = [run_scenario(dataclasses.replace(cfg, principals=(alice, bob))
                            if cfg.name in tokenless else cfg)
               for cfg in battery_configs(Variant.IMPROVED, seed=1)]
    assert all(not r.message_log for r in reports
               if r.scenario in tokenless and r.scenario != "flood")
    assert (verdicts_from_trace(reports)["sa_ke_protection"]
            == netsim.NOT_SUPPORTED)


def test_sa_ke_protection_needs_a_blind_observer_on_the_honest_run():
    # an honest run that nobody watched shows nothing about what the wire
    # reveals, so neither observer-backed cell may pass
    reports = [run_scenario(dataclasses.replace(cfg, adversary=())
                            if cfg.name == "honest" else cfg)
               for cfg in battery_configs(Variant.IMPROVED, seed=1)]
    assert reports[0].established is True
    verdicts = verdicts_from_trace(reports)
    assert verdicts["cert_sig_protection"] == netsim.NOT_SUPPORTED
    assert verdicts["sa_ke_protection"] == netsim.NOT_SUPPORTED


def test_certificate_storage_reads_file_when_the_host_can_read_the_key(
        monkeypatch):
    # the negative control: a policy that lets the host read the device's
    # private-key region puts the signing key on the host
    monkeypatch.setitem(usbkey.ACCESS_POLICY,
                        usbkey.RegionId.MANAGER_PRIVATE_KEY, (True, False))
    improved = run_matrix(1)["improved"]
    assert improved["verdicts"]["certificate_storage"] == "file"
    assert improved["matches_expected"] is False


@pytest.mark.parametrize("variant", [Variant.BASELINE, Variant.IMPROVED])
def test_battery_verdicts_match_expected_row(variant):
    reports = [run_scenario(cfg) for cfg in battery_configs(variant, seed=23)]
    assert verdicts_from_trace(reports) == EXPECTED_VERDICTS[variant.value]


def test_run_matrix_shape_and_expectation():
    result = run_matrix(seed=23)
    assert set(result) == {"baseline", "improved"}
    for row in result.values():
        assert row["matches_expected"] is True
        assert len(row["reports"]) == 4
    assert result["improved"]["verdicts"]["certificate_storage"] == "device"


# Whole runs on modp2048: both variants, honest, at three seeds, and a
# baseline flood, which makes the responder do DH for every packet.
MODP2048_RUNS = [
    *(scenario(variant=variant, seed=seed, group="modp2048")
      for variant in (Variant.BASELINE, Variant.IMPROVED)
      for seed in (1, 2, 3)),
    scenario(variant=Variant.BASELINE, seed=1, group="modp2048",
             adversary=[Flood(count=20)], handshake=False),
]


def test_modp2048_reports_with_openssl_equal_reports_with_pow(monkeypatch):
    openssl = crypto._openssl_modexp
    calls = []

    def counted(group, base, x):
        calls.append(group.name)
        return openssl(group, base, x)

    monkeypatch.setattr(crypto, "_openssl_modexp", counted)
    with_openssl = [run_scenario(cfg).to_json() for cfg in MODP2048_RUNS]
    assert len(calls) >= 6 * 4 + 20 * 2
    assert set(calls) == {"modp2048"}
    monkeypatch.setattr(crypto, "_openssl_modexp",
                        lambda group, base, x: group.encode(pow(base, x, group.p)))
    assert [run_scenario(cfg).to_json() for cfg in MODP2048_RUNS] == with_openssl


def test_run_matrix_gate_disabled_breaks_the_improved_row():
    result = run_matrix(seed=23, disable_dos_gate=True)
    assert result["improved"]["matches_expected"] is False
    assert (result["improved"]["verdicts"]["dos_prevention"]
            == netsim.NOT_SUPPORTED)
    # the baseline row is unaffected by the knob
    assert result["baseline"]["matches_expected"] is True


def _serial_matrix(seed: int, disable_dos_gate: bool = False,
                   group: str = crypto.DESK_GROUP.name) -> dict:
    """What ``run_matrix`` returns, computed one row after the other in
    this process."""
    result = {}
    for variant in (Variant.BASELINE, Variant.IMPROVED):
        reports = [run_scenario(cfg) for cfg in
                   battery_configs(variant, seed, disable_dos_gate, group)]
        verdicts = verdicts_from_trace(reports)
        result[variant.value] = {
            "reports": reports, "verdicts": verdicts,
            "matches_expected": verdicts == EXPECTED_VERDICTS[variant.value]}
    return result


def _rows(result: dict) -> str:
    """``result``'s rows as text that shows every value, type and dict key
    order."""
    return repr({variant: ([(type(r), r.to_dict()) for r in row["reports"]],
                           row["verdicts"], row["matches_expected"])
                 for variant, row in result.items()})


@pytest.mark.parametrize("seed, disable_dos_gate, group", [
    *((seed, gate, "desk64") for seed in range(4) for gate in (False, True)),
    (1, False, "modp2048")])
def test_the_forked_matrix_prints_what_the_serial_one_prints(
        monkeypatch, capsys, seed, disable_dos_gate, group):
    results = {}

    def structured(run_rows) -> tuple[int, str]:
        def recorded(*args, **kwargs):
            results[run_rows] = run_rows(*args, **kwargs)
            return results[run_rows]
        monkeypatch.setattr(cli, "run_matrix", recorded)
        code = cli.main(["matrix", "--format", "structured", "--seed", str(seed),
                         "--group", group]
                        + ["--disable-dos-gate"] * disable_dos_gate)
        return code, capsys.readouterr().out

    assert structured(run_matrix) == structured(_serial_matrix)
    forked, serial = results[run_matrix], results[_serial_matrix]
    assert _rows(forked) == _rows(serial)
    for variant, row in serial.items():
        assert ([r.to_json() for r in forked[variant]["reports"]]
                == [r.to_json() for r in row["reports"]])


# What the caller of run_matrix opens, as (variant, principal, ordinal), when
# its child carries the improved row and baseline flood packets 700-999:
# each other baseline scenario's sessions, and flood sessions 0-699.
_CALLER_PART = sorted([("baseline", name, 0) for name in ("alice", "bob")] * 3
                      + [("baseline", "bob", n) for n in range(700)])


def test_run_matrix_of_a_module_imported_again_since(tmp_path):
    # perfbench imports ikedev afresh for each set-up, so an earlier set-up's
    # modules are no longer the ones that sys.modules names
    script = tmp_path / "reimport.py"
    script.write_text(
        "import sys\n"
        "import ikedev.netsim as first\n"
        "for name in [n for n in sys.modules\n"
        "             if n == 'ikedev' or n.startswith('ikedev.')]:\n"
        "    del sys.modules[name]\n"
        "import ikedev.netsim as fresh\n"
        "assert fresh is not first\n"
        "def rows(netsim):\n"
        "    opened, new_session = [], netsim.Principal.new_session\n"
        "    def recorded(self, variant, *args):\n"
        "        opened.append((variant.value, self.name, self.opened))\n"
        "        return new_session(self, variant, *args)\n"
        "    netsim.Principal.new_session = recorded\n"
        "    result = netsim.run_matrix(1)\n"
        "    # the child's part arrived: this process opened only its own\n"
        f"    assert sorted(opened) == {_CALLER_PART!r}, opened\n"
        "    for row in result.values():\n"
        "        assert all(type(r) is netsim.ScenarioReport\n"
        "                   for r in row['reports'])\n"
        "    return repr({v: ([r.to_dict() for r in row['reports']],\n"
        "                     row['verdicts'], row['matches_expected'])\n"
        "                 for v, row in result.items()})\n"
        "print(rows(first) == rows(fresh))\n")
    src = Path(netsim.__file__).resolve().parents[1]
    done = subprocess.run([sys.executable, str(script)], capture_output=True,
                          text=True, timeout=60,
                          env={**os.environ, "PYTHONPATH": str(src)})
    assert done.returncode == 0, done.stderr
    assert done.stdout == "True\n"


def _no_child_left() -> bool:
    try:
        os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return True
    return False


@pytest.mark.parametrize("failing", [Variant.BASELINE, Variant.IMPROVED])
def test_a_row_that_raises_raises_here_and_leaves_no_child(monkeypatch,
                                                            failing):
    run_matrix(1)
    assert _no_child_left()
    battery = netsim.battery_configs

    def configs(variant, *args, **kwargs):
        honest, *others = battery(variant, *args, **kwargs)
        if variant is not failing:
            return [honest, *others]
        # a replay of a datagram the run never captures
        return [dataclasses.replace(honest, adversary=(Replay(message=99),)),
                *others]

    monkeypatch.setattr(netsim, "battery_configs", configs)
    with pytest.raises(ConfigError,
                       match="replay index 99 out of range") as raised:
        run_matrix(1)
    assert _no_child_left()
    # raised by the row computed here, whichever row failed; the improved
    # one is computed here only once the child has failed
    names = [entry.name for entry in raised.traceback]
    assert "_battery_row" in names
    assert ("flood_tail" in names) is (failing is Variant.IMPROVED)


def test_a_flood_part_that_raises_raises_here_and_leaves_no_child(
        monkeypatch):
    new_session = netsim.Principal.new_session

    def failing(self, variant, *args):
        if variant is Variant.BASELINE and self.opened == 850:
            raise RuntimeError("flood session 850 failed")
        return new_session(self, variant, *args)

    # session 850 is in the child's part, so the child fails, and the
    # caller raises as it computes that part itself
    monkeypatch.setattr(netsim.Principal, "new_session", failing)
    with pytest.raises(RuntimeError, match="flood session 850") as raised:
        run_matrix(1)
    assert _no_child_left()
    names = [entry.name for entry in raised.traceback]
    assert "flood_tail" in names and "child_part" in names


@pytest.mark.parametrize("child_dies, computed_here", [
    (False, [Variant.BASELINE]),
    (True, [Variant.BASELINE, Variant.IMPROVED]),
    ("in its flood part", [Variant.BASELINE, Variant.IMPROVED])])
def test_the_caller_computes_the_improved_row_only_if_the_child_fails(
        monkeypatch, child_dies, computed_here):
    caller, opened = os.getpid(), []
    new_session = netsim.Principal.new_session

    def recorded(self, variant, *args):
        if os.getpid() == caller:
            opened.append((variant.value, self.name, self.opened))
        elif child_dies is True or (child_dies and self.opened == 850
                                    and variant is Variant.BASELINE):
            os._exit(3)
        return new_session(self, variant, *args)

    monkeypatch.setattr(netsim.Principal, "new_session", recorded)
    forked, here = _rows(run_matrix(1)), sorted(opened)
    opened.clear()
    assert forked == _rows(_serial_matrix(1))
    assert sorted({variant for variant, _, _ in here}) == [
        variant.value for variant in computed_here]
    # after a child that died, the caller opens what a serial run opens
    assert here == (sorted(opened) if child_dies else _CALLER_PART)
    assert _no_child_left()


def test_the_flood_report_joins_the_childs_packets_after_the_callers(
        monkeypatch):
    # Packets on both sides of the split, and at its edges, fail to decode,
    # so the joined log and trace show which packets each side carried.
    seam, forge, forged = {1, 699, 700, 701, 998}, netsim._forged_msg1, {}

    def truncated(variant, rng, *args):
        index = forged[rng] = forged.get(rng, -1) + 1
        wire = forge(variant, rng, *args)
        cut = variant is Variant.BASELINE and index in seam
        return wire[:-1] if cut else wire

    monkeypatch.setattr(netsim, "_forged_msg1", truncated)
    flood = next(cfg for cfg in battery_configs(Variant.BASELINE, seed=1)
                 if cfg.name == "flood")
    joined = next(report for report in run_matrix(1)["baseline"]["reports"]
                  if report.scenario == "flood")
    assert joined.to_json() == run_scenario(flood).to_json()
    assert [(entry["index"], entry["count"]) for entry in joined.message_log
            if not entry["payloads"]] == [(1, 1), (699, 3), (998, 1)]
    assert joined.failure_trace == [{"principal": "bob", "op": "decode",
                                     "failure": "codec:BadLength", "count": 5}]
    assert joined.principal_counters["bob"]["dh_ops"] == FLOOD_COUNT - 5


@pytest.mark.parametrize("group", ["desk64", "modp2048"])
@pytest.mark.parametrize("disable_dos_gate", [False, True])
@pytest.mark.parametrize("variant", [Variant.BASELINE, Variant.IMPROVED])
def test_the_battery_flood_scenario_holds_its_flood_alone(
        variant, disable_dos_gate, group):
    """``run_matrix`` splits the baseline flood scenario by packet between
    its two processes and joins the two reports, which gives the report of
    one run only if the scenario holds its flood alone: no handshake,
    tamper, observer or replay."""
    flood, = [cfg for cfg in battery_configs(variant, 1, disable_dos_gate, group)
              if cfg.name == "flood"]
    assert flood.adversary == (Flood(),)
    assert flood.handshake is False
