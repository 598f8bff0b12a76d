"""Deterministic adversarial network simulator.

Principals exchange wire bytes over an in-memory medium, or over a
loopback UDP hop for each datagram, with adversary hooks: source-spoofed
floods, byte-level tampering, passive observation at three knowledge levels,
and replay of captured datagrams.  Every random
choice flows from ``crypto.derive_rng(seed, label)``, so a (scenario, seed)
pair reproduces the identical :class:`ScenarioReport`, byte for byte.

One rule delivers every datagram.  Each scripted one (a flood packet,
message 1 of the handshake, a replay) opens a fresh session of its
receiver.  Each reply goes at once back to the session that sent what it
answers; a flood packet or a replay has no such session, so a reply to it
is lost, never sent.

Verdict rules (fixed, mechanical — never hand-set):

* ``sa_ke_protection``     — supported iff both tamper scenarios delivered
  a tampered datagram and end unestablished with zero
  signature-verification attempts anywhere (the tamper was caught at a
  decrypt step) AND a no-knowledge observer watched the honest run
  establish and recovered no SA or KE plaintext.
* ``cert_sig_protection``  — supported iff the honest run established and
  its no-knowledge observer recovered no CERT or SIG plaintext.
* ``dos_prevention``       — supported iff a forged flood left the
  responder's ``dh_ops`` at exactly zero.
* ``certificate_storage``  — for an established run, ``file`` iff the host
  can read some principal's signing key (a file identity, or a token region
  that ``usbkey.ACCESS_POLICY`` lets the host read holds it), else ``device``.
"""

from __future__ import annotations

import contextlib
import itertools
import json
import os
import socket
import types
import typing
from dataclasses import MISSING, dataclass, field, fields, is_dataclass
from enum import Enum

from . import codec, crypto
from .codec import DevBody, KeBody, NonceBody
from .errors import (
    AuthFailure,
    CodecError,
    ConfigError,
    DeviceAbsent,
    IncompleteTrace,
    SelectorMiss,
)
from .protocol import (
    CERT_ENCODING_SEALED,
    Counters,
    HandshakeSession,
    ReplayGuard,
    Role,
    SessionState,
    Variant,
    auth_opener,
    id_payload,
    open_chain,
)
from .usbkey import (
    DeploymentConfig,
    FileIdentity,
    SecurityToken,
    create_token,
    device_decrypt,
    host_reads_signing_key,
    make_file_identity,
)

SUPPORTED = "supported"
NOT_SUPPORTED = "not-supported"
TABLE_COLUMNS = ("sa_ke_protection", "cert_sig_protection", "dos_prevention",
                 "certificate_storage")
MATRIX_SCENARIOS = ("honest", "flood", "tamper-sa", "tamper-ke")
FLOOD_COUNT = 1000
UDP_TIMEOUT = 5.0   # seconds a loopback read waits before the hop fails

EXPECTED_VERDICTS = {
    "baseline": {
        "sa_ke_protection": NOT_SUPPORTED,
        "cert_sig_protection": NOT_SUPPORTED,
        "dos_prevention": NOT_SUPPORTED,
        "certificate_storage": "file",
    },
    "improved": {
        "sa_ke_protection": SUPPORTED,
        "cert_sig_protection": SUPPORTED,
        "dos_prevention": SUPPORTED,
        "certificate_storage": "device",
    },
}


class ObserverKnowledge(Enum):
    NONE = "none"
    HAS_KEY1_AND_TOKEN = "has-key1-and-token"
    SERIAL = "serial"


# ---------------------------------------------------------------------------
# Adversary script actions
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Flood:
    """Source-spoofed message-1 packets; DEV forged under a random key."""
    count: int = FLOOD_COUNT
    forge_source: str = "attacker"

    def __post_init__(self) -> None:
        if self.count < 1:
            raise ConfigError("flood count must be >= 1")


@dataclass(frozen=True)
class Tamper:
    """Flip one byte of the ``message``-th delivered datagram.

    ``message`` must be below the number of datagrams the script can send
    (its flood packets, three for the handshake, one per replay); a tamper
    that the run never reaches, because the ladder stopped early, tampers
    nothing.

    ``payload`` selects the first clear-chain payload of that type; when it
    does not resolve (the target rides inside the encrypted blob) and
    ``fallback_to_blob`` is set, the same offset is applied inside the blob
    instead.
    """
    message: int
    payload: str | None = None
    offset: int = 0
    xor: int = 0x01
    fallback_to_blob: bool = True

    def __post_init__(self) -> None:
        if not 1 <= self.xor <= 255:
            raise ConfigError("tamper xor must be in [1, 255]")
        if self.offset < 0:
            raise ConfigError("tamper offset must be >= 0")
        if self.message < 0:
            raise ConfigError("tamper message must be >= 0")
        if (self.payload is not None
                and self.payload.upper() not in codec.PayloadType.__members__):
            raise ConfigError(
                f"unknown tamper payload {self.payload!r}; choose from "
                f"{sorted(codec.PayloadType.__members__)}")


@dataclass(frozen=True)
class Observe:
    knowledge: ObserverKnowledge = ObserverKnowledge.NONE


@dataclass(frozen=True)
class Replay:
    """Re-inject the captured ``message``-th datagram to a fresh session,
    after the honest flow."""
    message: int

    def __post_init__(self) -> None:
        if self.message < 0:
            raise ConfigError("replay message must be >= 0")


Action = Flood | Tamper | Observe | Replay
_ACTION_KINDS = {"flood": Flood, "tamper": Tamper, "observe": Observe,
                 "replay": Replay}


@dataclass(frozen=True)
class PrincipalConfig:
    name: str
    role: Role
    token: bool = True


@dataclass(frozen=True)
class ScenarioConfig:
    """A whole scenario.  Each rule that needs more than one of its fields,
    the tamper bound (see ``Tamper``) among them, is checked when it is built."""
    name: str = "scenario"
    variant: Variant = Variant.BASELINE
    seed: int = 0
    principals: tuple[PrincipalConfig, ...] = (
        PrincipalConfig("alice", Role.INITIATOR),
        PrincipalConfig("bob", Role.RESPONDER))
    adversary: tuple[Action, ...] = ()
    handshake: bool = True
    disable_dos_gate: bool = False
    group: str = crypto.DESK_GROUP.name

    def __post_init__(self) -> None:
        names = [p.name for p in self.principals]
        if len(set(names)) != len(names):
            raise ConfigError(f"duplicate principal names: {names}")
        if self.group not in crypto.GROUPS:
            raise ConfigError(f"unknown DH group {self.group!r}; "
                              f"choose from {sorted(crypto.GROUPS)}")
        roles = {p.role for p in self.principals}
        if Role.RESPONDER not in roles:
            raise ConfigError("scenario needs a responder principal")
        if self.handshake and Role.INITIATOR not in roles:
            raise ConfigError("handshake scenario needs an initiator principal")
        sendable = (sum(a.count for a in self.adversary if isinstance(a, Flood))
                    + 3 * self.handshake
                    + sum(isinstance(a, Replay) for a in self.adversary))
        beyond = [a.message for a in self.adversary
                  if isinstance(a, Tamper) and a.message >= sendable]
        if beyond:
            raise ConfigError(
                f"tamper index {min(beyond)} out of range "
                f"(the script sends at most {sendable} messages)")

    @classmethod
    def from_dict(cls, raw: dict) -> "ScenarioConfig":
        return _from_json(cls, raw, "scenario")


_JSON_KINDS = {int: "an integer", bool: "true or false", str: "a string"}


def _from_json(hint, value, key: str):
    """``value``, as parsed from JSON, read as type ``hint``; ``key`` names
    it in errors.

    A scalar must be exactly its JSON type: nothing is coerced, and an
    integer is no bool, float or string.  ``X | None`` also takes null, a
    tuple takes a JSON array, and an enum takes one of its values.  A
    dataclass takes a JSON object with every field that has no default and
    no field it lacks, each read by its type hint; an action is the one that
    its ``"action"`` key names.
    """
    if hint == Action:
        if not isinstance(value, dict) or "action" not in value:
            raise ConfigError(
                f"adversary action needs an 'action' field: {value!r}")
        kind = value["action"]
        if not isinstance(kind, str) or kind not in _ACTION_KINDS:
            raise ConfigError(f"unknown adversary action {kind!r}")
        hint = _ACTION_KINDS[kind]
        value = {k: v for k, v in value.items() if k != "action"}
    if is_dataclass(hint):
        label = hint.__name__.removesuffix("Config").lower()
        if not isinstance(value, dict):
            raise ConfigError(f"{label} must be a JSON object, not {value!r}")
        extra = set(value) - {f.name for f in fields(hint)}
        if extra:
            raise ConfigError(f"unknown {label} fields: {sorted(extra)}")
        required = [f.name for f in fields(hint) if f.default is MISSING]
        if not set(required) <= set(value):
            raise ConfigError(f"{label} needs {' and '.join(required)}: "
                              f"{value!r}")
        hints = typing.get_type_hints(hint)
        return hint(**{k: _from_json(hints[k], v, k) for k, v in value.items()})
    if isinstance(hint, types.UnionType):   # X | None
        if value is None:
            return None
        hint, = (a for a in typing.get_args(hint) if a is not type(None))
        return _from_json(hint, value, key)
    if typing.get_origin(hint) is tuple:
        if type(value) is not list:
            raise ConfigError(f"{key} must be a JSON array, not {value!r}")
        return tuple(_from_json(typing.get_args(hint)[0], item, key)
                     for item in value)
    if issubclass(hint, Enum):
        try:
            return hint(value)
        except ValueError:
            raise ConfigError(f"unknown {key} {value!r}; choose from "
                              f"{[m.value for m in hint]}") from None
    if type(value) is not hint:
        raise ConfigError(f"{key} must be {_JSON_KINDS[hint]}, not {value!r}")
    return value


def load_scenario(path: str) -> ScenarioConfig:
    try:
        with open(path, encoding="utf-8") as fh:
            raw = json.load(fh)
    except FileNotFoundError:
        raise ConfigError(f"scenario file not found: {path}") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(f"scenario file is not valid JSON: {exc}") from None
    return ScenarioConfig.from_dict(raw)


# ---------------------------------------------------------------------------
# Adversary primitives
# ---------------------------------------------------------------------------

def tamper_in_flight(data: bytes, action: Tamper) -> bytes:
    """Flip the byte of ``data`` that ``action`` selects; the header length
    field is never invalidated because the mutation preserves size.

    Without a payload the offset counts from the start of the datagram.
    With one it counts from the first clear-chain body of that type, or,
    when that misses and ``fallback_to_blob`` is set, from the start of the
    encrypted blob, which begins where the clear chain ends.
    """
    pos = action.offset
    if action.payload is not None:
        try:
            ranges = codec.payload_byte_ranges(data)
        except CodecError as exc:
            raise SelectorMiss(f"message undecodable: {exc}") from None
        wanted = action.payload.upper()
        body = next((r for r in ranges if r.type.name == wanted), None)
        if body is not None and pos < body.body_end - body.body_start:
            pos += body.body_start
        else:
            blob_start = ranges[-1].body_end if ranges else codec.HEADER_LEN
            if not (action.fallback_to_blob and pos < len(data) - blob_start):
                raise SelectorMiss(
                    f"offset {pos} is in no clear {wanted} body"
                    + (" and beyond the blob" if action.fallback_to_blob else ""))
            pos += blob_start
    if pos >= len(data):
        raise SelectorMiss(f"offset {pos} beyond message of {len(data)} bytes")
    return data[:pos] + bytes([data[pos] ^ (action.xor & 0xFF)]) + data[pos + 1:]


@dataclass(frozen=True)
class Finding:
    """One piece of plaintext an observer could read off the wire."""
    payload: str
    plaintext: bytes


# The field of each body type that holds what an observer reads.
_PLAINTEXT_FIELD = {codec.SaBody: "proposal", codec.KeBody: "public_value",
                    codec.NonceBody: "nonce", codec.IdBody: "identity",
                    codec.CertBody: "certificate", codec.SigBody: "signature"}


def _body_plaintext(body: codec.Body) -> bytes:
    return getattr(body, _PLAINTEXT_FIELD[type(body)])


def observe(msg: codec.IsakmpMessage, token: SecurityToken | None,
            serials: set[bytes]) -> list[Finding]:
    """What a party recovers from one decoded datagram with the keys it
    holds: ``token``'s key1 (None for no key1) and the device ``serials``.

    A DEV body opens under key1 to a serial, which joins ``serials``
    (mutated in place, so a party carries serials across a transcript —
    message 3 has no DEV payload of its own); as at the responder's gate, a
    record that is not 7 bytes is no serial.  The encrypted chain opens
    under key1 and a serial; a sealed CERT (by its encoding byte) or SIG (in
    a flag-encrypted message) opens under a serial alone.  Every other body
    is readable as-is.  Serials are tried this datagram's own first.
    """
    findings: list[Finding] = []
    serials_here: list[bytes] = []

    def first_opened(open_one):
        """What ``open_one(serial)`` returns for the first serial it works
        for; None if none does."""
        for serial in serials_here + sorted(serials - set(serials_here)):
            try:
                return open_one(serial)
            except (AuthFailure, CodecError):
                continue
        return None

    for body in msg.payloads:
        if isinstance(body, DevBody):
            if token is None:
                continue
            try:
                serial = device_decrypt(token, body.sealed)
            except AuthFailure:
                continue
            if len(serial) != crypto.SERIAL_LEN:
                continue
            findings.append(Finding("DEV-SERIAL", serial))
            serials_here.append(serial)
            serials.add(serial)
            continue
        plain = _body_plaintext(body)
        sealed = (body.encoding == CERT_ENCODING_SEALED
                  if isinstance(body, codec.CertBody)
                  else isinstance(body, codec.SigBody) and msg.encrypted)
        if sealed:
            plain = first_opened(
                lambda serial, blob=plain: auth_opener(serial)(blob))
        if plain is not None:
            findings.append(Finding(codec.PAYLOAD_NAMES[type(body)], plain))

    if msg.encrypted_chain is not None and token is not None:
        inner = first_opened(lambda serial: open_chain(
            token, serial, msg.encrypted_chain)) or []
        findings.extend(Finding(codec.PAYLOAD_NAMES[type(body)],
                                _body_plaintext(body)) for body in inner)
    return findings


# ---------------------------------------------------------------------------
# Scenario execution
# ---------------------------------------------------------------------------

@dataclass
class Principal:
    """Key material, a replay guard, and the totals of its sessions."""
    name: str
    role: Role
    token: SecurityToken | None
    file_identity: FileIdentity | None
    replay_guard: ReplayGuard | None
    opened: int = 0
    counters: Counters = field(default_factory=Counters)

    def new_session(self, variant: Variant, seed: int, group: crypto.DhGroup,
                    disable_dos_gate: bool = False) -> HandshakeSession:
        """Open this principal's next session, which adds to its totals; its RNG
        is keyed by ordinal."""
        session = HandshakeSession(
            role=self.role, variant=variant, name=self.name,
            rng=crypto.derive_rng(seed, f"session|{self.name}|{self.opened}"),
            group=group, token=self.token, file_identity=self.file_identity,
            replay_guard=self.replay_guard, disable_dos_gate=disable_dos_gate,
            counters=self.counters)
        self.opened += 1
        return session


@dataclass
class ScenarioReport:
    """What one run did.  A run of equal consecutive ``message_log`` or
    ``failure_trace`` entries is one entry whose ``count`` says how many."""
    scenario: str
    variant: str
    seed: int
    established: bool | None
    skeyid_match: bool | None
    flood_sent: int
    principal_counters: dict[str, dict[str, int]]
    observer_findings: list[dict]
    failure_trace: list[dict]
    message_log: list[dict]
    verdicts: dict[str, str]

    def to_dict(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}

    def to_json(self) -> bytes:
        """Canonical byte serialization; equal seeds must reproduce it."""
        return json.dumps(self.to_dict(), sort_keys=True,
                          separators=(",", ":")).encode()

    def total_sig_verifies(self) -> int:
        return sum(c["sig_verifies"] for c in self.principal_counters.values())


@dataclass
class _ObserverState:
    """An observer is the keys it holds: a fleet token's key1 or none, and
    the serials it knows; ``knowledge`` only labels its findings."""
    knowledge: ObserverKnowledge
    token: SecurityToken | None
    serials: set[bytes] = field(default_factory=set)
    findings: list[dict] = field(default_factory=list)


# The fields of a message-log row and of a failure-trace row, in the order
# ``_run`` appends them.
_LOG_FIELDS = ("src", "dst", "kind", "size", "payloads", "blob_bytes",
               "tampered", "delivered")
_TRACE_FIELDS = ("principal", "op", "failure")


def _folded(rows: list[tuple], fields: tuple[str, ...],
            indexed: bool) -> list[dict]:
    """``rows`` as report entries named by ``fields``: a run of equal
    consecutive rows is one entry whose ``count`` says how many, and an
    ``indexed`` entry's ``index`` is the position of its run's first row."""
    entries: list[dict] = []
    position = 0
    for row, run in itertools.groupby(rows):
        entry = {"index": position} if indexed else {}
        entry.update(zip(fields, row), count=sum(1 for _ in run))
        entries.append(entry)
        position += entry["count"]
    return entries


def _unfolded(entries: list[dict], fields: tuple[str, ...]) -> list[tuple]:
    """The rows that ``_folded`` folded into ``entries``."""
    return [tuple(entry[f] for f in fields)
            for entry in entries for _ in range(entry["count"])]


_FORGED_SA = codec.SaBody(codec.DEFAULT_SA_PROPOSAL)


def _forged_msg1(variant: Variant, rng, group: crypto.DhGroup,
                 source: str) -> bytes:
    """Well-formed message 1 that cost the attacker no key1 and no modexp;
    the improved one seals under two keys that are never used again."""
    bodies = [_FORGED_SA, KeBody(rng.randbytes(group.value_size)),
              NonceBody(rng.randbytes(16)), id_payload(source)[0]]
    if variant is Variant.BASELINE:
        flags, blob = 0, None
    else:
        sealed = crypto.seal(crypto.AES256GCM, rng.randbytes(32), rng,
                             rng.randbytes(crypto.SERIAL_LEN))
        blob = crypto.seal(crypto.AES256GCM, rng.randbytes(32), rng,
                           codec.serialize_payload_chain(bodies))
        flags, bodies = codec.FLAG_ENCRYPTION, [DevBody(sealed)]
    return codec.encode_message(codec.IsakmpMessage(
        rng.randbytes(8), bytes(8), codec.EXCHANGE_AGGRESSIVE, flags, 0, bodies, blob))


def _deployment(seed: int) -> DeploymentConfig:
    return DeploymentConfig(
        key1=crypto.derive_rng(seed, "deployment-key1").randbytes(32),
        seed=seed)


def _token(deployment: DeploymentConfig, name: str) -> SecurityToken:
    """The device ``deployment`` provisions for ``name``."""
    serial = crypto.derive_rng(
        deployment.seed, f"device-serial|{name}").randbytes(crypto.SERIAL_LEN)
    return create_token(serial, deployment, name)


def build_principals(deployment: DeploymentConfig, variant: Variant,
                     configs: tuple[PrincipalConfig, ...]) -> dict[str, Principal]:
    """Provision each principal with what ``variant`` signs with.

    The improved variant gets a security token of ``deployment`` (unless
    the config strips it) and the baseline a *.p12-style file identity;
    neither variant is given the other's key material.  Every key comes
    from its own ``derive_rng`` label of the deployment's seed, so what is
    left out changes nothing else.
    """
    principals: dict[str, Principal] = {}
    for pc in configs:
        token = file_identity = None
        if variant is Variant.BASELINE:
            file_identity = make_file_identity(pc.name, crypto.derive_rng(
                deployment.seed, f"file-identity|{pc.name}").randbytes(32))
        elif pc.token:
            token = _token(deployment, pc.name)
        principals[pc.name] = Principal(
            name=pc.name, role=pc.role, token=token,
            file_identity=file_identity,
            replay_guard=ReplayGuard() if pc.role is Role.RESPONDER else None)
    return principals


# The session step that takes a datagram of each kind.  Looked up by name on
# the session at each call, so a method rebound on the class is honoured.
_STEP = {"msg1": "responder_on_msg1", "flood": "responder_on_msg1",
         "msg2": "initiator_on_msg2", "msg3": "responder_on_msg3"}


def run_scenario(config: ScenarioConfig, udp: bool = False) -> ScenarioReport:
    """Run one scenario and report what happened to each datagram.

    With ``udp`` every datagram also crosses a real loopback socket, one
    bound per principal for the length of the run: it is sent to the
    receiver's socket after any tamper and read back there before it is
    decoded.  The report is the same, byte for byte, unless that hop fails.
    """
    if not udp:
        return _run(config, None)
    with contextlib.ExitStack() as stack:
        sockets = {}
        for pc in config.principals:
            sock = stack.enter_context(
                socket.socket(socket.AF_INET, socket.SOCK_DGRAM))
            sock.bind(("127.0.0.1", 0))
            sock.settimeout(UDP_TIMEOUT)
            sockets[pc.name] = sock
        return _run(config, sockets)


def _run(config: ScenarioConfig, sockets: dict[str, socket.socket] | None,
         carried: slice = slice(None),
         rest: typing.Callable[[], dict] | None = None) -> ScenarioReport:
    """``run_scenario``'s run, sending only the flood packets in ``carried``;
    the rows and counters of ``rest()``, a later run's ``to_dict()``, join
    this run's before they are folded."""
    seed = config.seed
    group = crypto.GROUPS[config.group]
    deployment = _deployment(seed)
    principals = build_principals(deployment, config.variant, config.principals)

    initiator = next((p for p in principals.values()
                      if p.role is Role.INITIATOR), None)
    responder = next(p for p in principals.values()
                     if p.role is Role.RESPONDER)

    # Each knowledge level is a key set: ``none`` holds no key,
    # ``has-key1-and-token`` a fleet token's key1 and no serial, and
    # ``serial`` no key1 and the responder's serial (if it has a device).
    observers = []
    for action in config.adversary:
        if isinstance(action, Observe):
            obs_token, serials = None, set()
            if action.knowledge is ObserverKnowledge.HAS_KEY1_AND_TOKEN:
                obs_token = _token(deployment, "observer")
            elif (action.knowledge is ObserverKnowledge.SERIAL
                  and responder.token is not None):
                serials = {responder.token.serial}
            observers.append(_ObserverState(action.knowledge, obs_token, serials))
    tampers = [a for a in config.adversary if isinstance(a, Tamper)]

    transcript: list[tuple[bytes, str, str, str]] = []  # wire, src, dst, kind
    # One row per datagram, at its transcript index, and one per failure;
    # ``_folded`` turns each list into report entries once, at the end.
    log_rows: list[tuple] = []
    trace_rows: list[tuple] = []

    def transmit(wire: bytes, src: str, dst: str, kind: str,
                 label: str | None = None) -> codec.IsakmpMessage | None:
        """Carry one datagram to ``dst`` and decode it once, for the
        observers, the log and ``dst``; a datagram that does not reach
        ``dst`` or does not decode there is recorded in the failure trace,
        shown to no observer and yields None.  ``kind`` picks the step that
        takes the datagram and is kept in the transcript; the log shows
        ``label`` instead when given."""
        index = len(transcript)
        hits = tampers and [a for a in tampers if a.message == index]
        for action in hits:
            wire = tamper_in_flight(wire, action)
        transcript.append((wire, src, dst, kind))
        delivered = True
        if sockets is not None:
            sock = sockets[dst]
            try:
                sock.sendto(wire, sock.getsockname())
                wire, _ = sock.recvfrom(65535)
            except OSError as exc:
                delivered = False
                trace_rows.append((dst, "recv", f"udp:{type(exc).__name__}"))
        decoded = None
        payload_names, blob_bytes = [], 0
        if delivered:
            try:
                decoded = codec.decode_message(wire)
            except CodecError as exc:
                trace_rows.append((dst, "decode",
                                   f"codec:{type(exc).__name__}"))
        if decoded is not None:
            payload_names = [codec.PAYLOAD_NAMES[type(body)]
                             for body in decoded.payloads]
            blob_bytes = len(decoded.encrypted_chain or b"")
            for obs in observers:
                for finding in observe(decoded, obs.token, obs.serials):
                    obs.findings.append({"message": index,
                                         "payload": finding.payload,
                                         "hex": finding.plaintext.hex()})
        log_rows.append((src, dst, label or kind, len(wire), payload_names,
                         blob_bytes, bool(hits), delivered))
        return decoded

    def exchange(wire: bytes | None, src: str, dst: str, kind: str,
                 label: str | None = None,
                 sender: HandshakeSession | None = None) -> HandshakeSession:
        """Carry ``wire`` to a fresh session of ``dst``, then each reply at
        once back to the session that sent what it answers, until a step
        sends nothing or a datagram is not delivered; with no ``sender`` (a
        flood or a replay) a reply is lost.  ``wire`` None, from a sender
        that sent nothing, still opens ``dst``'s session.  Traces the
        sender's session's failures, then ``dst``'s, and returns ``dst``'s."""
        msg = None if wire is None else transmit(wire, src, dst, kind, label)
        receiver = principals[dst].new_session(config.variant, seed, group,
                                               config.disable_dos_gate)
        at, peer = receiver, sender
        while msg is not None:
            try:
                reply = getattr(at, _STEP[kind])(msg)
            except DeviceAbsent:   # a step that finds no device sends nothing
                break
            if reply is None or peer is None:
                break
            kind = at.events[-1].emitted   # what the step logged it sent
            msg = transmit(codec.encode_message(reply), at.name, peer.name,
                           kind)
            at, peer = peer, at
        # Only the step that ends the exchange can record a failure, so
        # draining afterwards keeps the trace in the order it happened.
        for session in (receiver,) if sender is None else (sender, receiver):
            for event in session.events:
                if event.failure is not None:
                    trace_rows.append((session.name, event.op, event.failure))
        return receiver

    # The script: floods, then the honest handshake, then replays.  A flood
    # packet before ``carried`` is forged from the stream but not sent; each
    # one sent opens the responder's session of its own ordinal.
    packets = [action for action in config.adversary
               if isinstance(action, Flood) for _ in range(action.count)]
    responder.opened = first = carried.start or 0
    attacker_rng = crypto.derive_rng(seed, "adversary")
    for ordinal, action in enumerate(packets[:carried.stop]):
        wire = _forged_msg1(config.variant, attacker_rng, group,
                            action.forge_source)
        if ordinal >= first:
            exchange(wire, action.forge_source, responder.name, "flood")

    established = skeyid_match = None
    if config.handshake:
        ini_session = initiator.new_session(config.variant, seed, group,
                                            config.disable_dos_gate)
        try:
            msg1 = ini_session.initiator_start()
        except DeviceAbsent:
            msg1 = None
        rsp_session = exchange(
            None if msg1 is None else codec.encode_message(msg1),
            initiator.name, responder.name, "msg1", sender=ini_session)
        established = (ini_session.state is SessionState.ESTABLISHED
                       and rsp_session.state is SessionState.ESTABLISHED)
        skeyid_match = (established
                        and ini_session.skeyid == rsp_session.skeyid)

    for action in config.adversary:
        if not isinstance(action, Replay):
            continue
        if action.message >= len(transcript):
            raise ConfigError(
                f"replay index {action.message} out of range "
                f"({len(transcript)} messages captured)")
        wire, _, dst, kind = transcript[action.message]
        exchange(wire, "adversary", dst, kind, label="replay")

    if rest is not None:
        later = rest()
        log_rows += _unfolded(later["message_log"], _LOG_FIELDS)
        trace_rows += _unfolded(later["failure_trace"], _TRACE_FIELDS)
        for name, totals in later["principal_counters"].items():
            counters = principals[name].counters
            for counter, count in totals.items():
                setattr(counters, counter, getattr(counters, counter) + count)

    report = ScenarioReport(
        scenario=config.name,
        variant=config.variant.value,
        seed=seed,
        established=established,
        skeyid_match=skeyid_match,
        flood_sent=len(packets),
        principal_counters={name: p.counters.to_dict()
                            for name, p in sorted(principals.items())},
        observer_findings=[{"knowledge": obs.knowledge.value, **finding}
                           for obs in observers for finding in obs.findings],
        failure_trace=_folded(trace_rows, _TRACE_FIELDS, indexed=False),
        message_log=_folded(log_rows, _LOG_FIELDS, indexed=True),
        verdicts={},
    )
    has_none_observer = any(
        obs.knowledge is ObserverKnowledge.NONE for obs in observers)
    report.verdicts = _partial_verdicts(report, principals, responder.name,
                                        has_none_observer)
    return report


def _findings_with(report: ScenarioReport, payloads: tuple[str, ...]) -> bool:
    return any(f["payload"] in payloads for f in report.observer_findings
               if f["knowledge"] == ObserverKnowledge.NONE.value)


def _partial_verdicts(report: ScenarioReport,
                      principals: dict[str, Principal], responder: str,
                      has_none_observer: bool) -> dict[str, str]:
    """Verdict entries derivable from this single run (rules in module doc)."""
    verdicts: dict[str, str] = {}
    if report.flood_sent:
        dh = report.principal_counters[responder]["dh_ops"]
        verdicts["dos_prevention"] = SUPPORTED if dh == 0 else NOT_SUPPORTED
    if report.established:
        if has_none_observer:
            verdicts["cert_sig_protection"] = (
                NOT_SUPPORTED if _findings_with(report, ("CERT", "SIG"))
                else SUPPORTED)
        on_host = any(p.file_identity is not None or (
            p.token is not None and host_reads_signing_key(p.token))
            for p in principals.values())
        verdicts["certificate_storage"] = "file" if on_host else "device"
    return verdicts


def verdicts_from_trace(reports: list[ScenarioReport]) -> dict[str, str]:
    """Derive one Table-row verdict map from a full scenario battery."""
    by_name: dict[str, ScenarioReport] = {}
    for report in reports:
        by_name.setdefault(report.scenario, report)
    missing = [name for name in MATRIX_SCENARIOS if name not in by_name]
    if missing:
        raise IncompleteTrace(f"missing scenarios: {', '.join(missing)}")
    honest = by_name["honest"]
    flood = by_name["flood"]
    tampers = (by_name["tamper-sa"], by_name["tamper-ke"])

    tamper_caught_early = all(
        report.established is False and report.total_sig_verifies() == 0
        and any(entry["tampered"] and entry["delivered"]
                for entry in report.message_log)
        for report in tampers)
    # Set iff a ``none`` observer watched the honest run establish.
    observer_blind_sa_ke = ("cert_sig_protection" in honest.verdicts
                            and not _findings_with(honest, ("SA", "KE")))

    return {
        "sa_ke_protection": (
            SUPPORTED if tamper_caught_early and observer_blind_sa_ke
            else NOT_SUPPORTED),
        "cert_sig_protection": honest.verdicts.get("cert_sig_protection",
                                                   NOT_SUPPORTED),
        "dos_prevention": flood.verdicts.get("dos_prevention", NOT_SUPPORTED),
        "certificate_storage": honest.verdicts.get("certificate_storage",
                                                   "file"),
    }


# ---------------------------------------------------------------------------
# The fixed battery behind the comparison matrix
# ---------------------------------------------------------------------------

def battery_configs(variant: Variant, seed: int, disable_dos_gate: bool = False,
                    group: str = crypto.DESK_GROUP.name) -> list[ScenarioConfig]:
    def cfg(name: str, adversary: tuple[Action, ...],
            handshake: bool = True) -> ScenarioConfig:
        return ScenarioConfig(name=name, variant=variant, seed=seed,
                              adversary=adversary, handshake=handshake,
                              disable_dos_gate=disable_dos_gate, group=group)

    return [
        cfg("honest", (Observe(ObserverKnowledge.NONE),)),
        cfg("flood", (Flood(),), handshake=False),
        cfg("tamper-sa", (Tamper(message=1, payload="SA"),)),
        cfg("tamper-ke", (Tamper(message=1, payload="KE"),)),
    ]


def _battery_row(variant: Variant, seed: int, disable_dos_gate: bool,
                 group: str, run: typing.Callable = run_scenario) -> dict:
    """One table row: ``variant``'s battery reports, each scenario's from
    ``run``, the verdicts derived from them and whether those are the
    expected row."""
    reports = [run(cfg) for cfg in
               battery_configs(variant, seed, disable_dos_gate, group)]
    verdicts = verdicts_from_trace(reports)
    return {"reports": reports, "verdicts": verdicts,
            "matches_expected": verdicts == EXPECTED_VERDICTS[variant.value]}


# The share of the baseline flood, its last packets, that ``run_matrix``'s
# child sends: the best of a sweep of 1/4 to 1/2 on two vCPUs.
_CHILD_SHARE = 3 / 10


def run_matrix(seed: int, disable_dos_gate: bool = False,
               group: str = crypto.DESK_GROUP.name) -> dict:
    """Run the full battery for both variants; the one-command reproduction.

    A child forked for this call, which sees this process's state as it is
    now, computes the improved row and the last ``_CHILD_SHARE`` of the
    baseline flood, while this process computes the rest; the battery's
    flood scenario holds its flood alone, so its two parts join into the
    report of one run.  The child sends its part over a pipe as JSON, so
    each report is rebuilt as this module's class even if this package was
    imported again since (as perfbench does for each set-up).  If the child
    does not exit 0, its part is computed here, so that whatever failed
    there raises here.  The child is reaped before this returns or raises.
    Like any fork, this is unsafe in a process that runs other threads.
    """
    flood = next(cfg for cfg in battery_configs(
        Variant.BASELINE, seed, disable_dos_gate, group) if cfg.name == "flood")
    split = round(FLOOD_COUNT * (1 - _CHILD_SHARE))

    def child_part() -> list:
        """The improved row and the flood's tail, each report as a dict."""
        row = _battery_row(Variant.IMPROVED, seed, disable_dos_gate, group)
        row["reports"] = [r.to_dict() for r in row["reports"]]
        return [row, _run(flood, None, slice(split, None)).to_dict()]

    part, status = [], None
    read_fd, write_fd = os.pipe()
    with open(read_fd, "rb") as pipe, open(write_fd, "wb") as sink:
        pid = os.fork()
        if pid == 0:
            pipe.close()   # so that a write finds no reader once ours closes
            try:
                sink.write(json.dumps(child_part()).encode())
                sink.close()
                os._exit(0)
            finally:   # reached only if sending failed
                os._exit(1)
        sink.close()

        def flood_tail() -> dict:
            """The child's flood part, read once this process's is sent."""
            nonlocal status
            data = pipe.read()
            _, status = os.waitpid(pid, 0)
            part.extend(json.loads(data) if status == 0 else child_part())
            return part[1]

        try:
            baseline = _battery_row(
                Variant.BASELINE, seed, disable_dos_gate, group,
                lambda cfg: _run(cfg, None, slice(split), flood_tail)
                if cfg == flood else run_scenario(cfg))
        finally:
            pipe.close()
            if status is None:
                os.waitpid(pid, 0)
    improved = part[0]
    improved["reports"] = [ScenarioReport(**d) for d in improved["reports"]]
    return {Variant.BASELINE.value: baseline, Variant.IMPROVED.value: improved}
