"""Phase-1 aggressive-mode state machines, instrumented.

Two variants share one session class:

* ``BASELINE`` — the plain three-message ladder.  Everything travels in
  clear text; peers authenticate with signatures over the standard
  HASH_I / HASH_R digests at the end of the exchange.
* ``IMPROVED`` — the same ladder gated by a security key device.  Message 1
  opens with a DEV payload (the sender's 7-byte serial sealed under the
  fleet key), the SA/KE/nonce/ID chain rides inside one AEAD blob keyed
  from (key1, serial), and CERT/SIG bodies are sealed under a key derived
  from the sender's serial.  The responder performs no Diffie-Hellman work
  until the DEV payload authenticates (the DoS gate).

Counters record the externally observable costs the two variants are
compared on: ``dh_ops`` counts DH episodes (one per ladder step that does
modular exponentiation), ``sig_verifies`` counts signature-verification
attempts over HASH digests, ``decrypt_failures`` counts failed AEAD opens
and ``messages_rejected_pre_dh`` counts message-1 rejects that cost no DH
work.  Every transition appends an event so a harness can replay the run.

Phase 1 fixes the header's Message ID at 0 (RFC 2408 section 3.1, RFC 2409
section 5): each step that takes a message turns any other value away as
``malformed`` before any AEAD open or DH work.

One deliberate strengthening over the classic HASH_R formula: the SA bytes
covered by HASH_R are the ones carried in message 2 (the responder's echo),
not the initiator's stored offer.  For honest peers the two are identical;
for a tampered echo this makes the mismatch visible at signature
verification instead of leaving the echo entirely unauthenticated.
"""

from __future__ import annotations

import functools
import random
from collections import OrderedDict
from collections.abc import Callable
from dataclasses import dataclass, field
from enum import Enum
from typing import NamedTuple

from . import codec, crypto
from .codec import (
    Body,
    CertBody,
    DevBody,
    IdBody,
    IsakmpMessage,
    KeBody,
    NonceBody,
    SaBody,
    SigBody,
)
from .errors import AuthFailure, CodecError, DeviceAbsent, WeakPublicValue
from .usbkey import (
    Certificate,
    FileIdentity,
    SecurityToken,
    decode_certificate,
    device_decrypt,
    device_encrypt,
    device_get_certificate,
    device_session_decrypt,
    device_session_encrypt,
    device_sign,
    verify_certificate,
)

ID_TYPE_FQDN = 2
NONCE_LEN = 16
COOKIE_LEN = 8
CERT_ENCODING_CLEAR = 4     # certificate bytes as-is
CERT_ENCODING_SEALED = 200  # body is an AEAD blob of the certificate bytes
REPLAY_WINDOW = 4096


class Variant(Enum):
    BASELINE = "baseline"
    IMPROVED = "improved"


class Role(Enum):
    INITIATOR = "initiator"
    RESPONDER = "responder"


class SessionState(Enum):
    IDLE = "idle"
    SENT1 = "sent1"
    SENT2 = "sent2"
    ESTABLISHED = "established"
    FAILED = "failed"


@dataclass(slots=True)
class Counters:
    dh_ops: int = 0
    sig_verifies: int = 0
    decrypt_failures: int = 0
    messages_rejected_pre_dh: int = 0

    def to_dict(self) -> dict[str, int]:
        return {name: getattr(self, name) for name in self.__slots__}


class TransitionEvent(NamedTuple):
    op: str
    state: str
    emitted: str | None
    failure: str | None


# Enum members as module names: Python 3.11 reads one via its class in ~75 ns.
_BASELINE, _IMPROVED = Variant.BASELINE, Variant.IMPROVED
_INITIATOR, _RESPONDER = Role.INITIATOR, Role.RESPONDER
_IDLE, _SENT1, _SENT2 = SessionState.IDLE, SessionState.SENT1, SessionState.SENT2
_ESTABLISHED, _FAILED = SessionState.ESTABLISHED, SessionState.FAILED
# An event is a value from a fixed vocabulary: one object of each serves all.
_event = functools.cache(TransitionEvent)


class ReplayGuard:
    """LRU set of the last ``REPLAY_WINDOW`` DEV nonces, with test-and-insert.

    Shared by all of one responder's sessions, which run in one thread;
    everything else in a session is single-owner.
    """

    def __init__(self):
        self._seen: OrderedDict[bytes, None] = OrderedDict()

    def recall(self, nonce: bytes) -> bool:
        """Whether ``nonce`` was seen; a seen nonce becomes the most recent."""
        if nonce in self._seen:
            self._seen.move_to_end(nonce)
            return True
        return False

    def seen_before(self, nonce: bytes) -> bool:
        if self.recall(nonce):
            return True
        self._seen[nonce] = None
        if len(self._seen) > REPLAY_WINDOW:
            self._seen.popitem(last=False)
        return False

    def __len__(self) -> int:
        return len(self._seen)


# -- the openers that peers and observers share ------------------------------

def open_chain(token: SecurityToken | None, serial: bytes,
               blob: bytes) -> list[Body]:
    """The SA/KE/nonce/ID chain that device ``serial`` sealed under
    kdf_session(key1, serial), opened with ``token``'s key1 and parsed.

    Raises AuthFailure when the seal does not open, too short to hold a
    nonce and tag included, and CodecError when what it held does not parse.
    """
    return codec.parse_payload_chain(
        device_session_decrypt(token, serial, blob))


def auth_opener(serial: bytes) -> Callable[[bytes], bytes]:
    """Opens the CERT and SIG bodies that device ``serial`` sealed under
    kdf_serial(serial), deriving that key once; a seal that does not open,
    too short included, raises AuthFailure."""
    key = crypto.kdf_serial(serial)
    return lambda blob: crypto.open_sealed(crypto.AES256GCM, key, blob)


def _ladder_bodies(bodies) -> tuple[SaBody, KeBody, NonceBody, IdBody] | None:
    """The first SA, KE, nonce and ID bodies, or None if one is missing."""
    found = {}
    for body in reversed(bodies):   # a loop: a comprehension is a call
        found[type(body)] = body
    try:
        return found[SaBody], found[KeBody], found[NonceBody], found[IdBody]
    except KeyError:
        return None


def id_payload(name: str) -> tuple[IdBody, bytes]:
    """The FQDN ID body naming ``name`` and its encoding (what HASH_I or
    HASH_R covers)."""
    body = IdBody(ID_TYPE_FQDN, name.encode())
    return body, codec.encode_body(body)


@dataclass(slots=True)
class HandshakeSession:
    """Single-owner state machine for one peer of one handshake; it adds its
    costs to ``counters``, its own unless handed its principal's totals."""

    role: Role
    variant: Variant
    name: str
    rng: random.Random
    group: crypto.DhGroup = crypto.DESK_GROUP
    token: SecurityToken | None = None
    file_identity: FileIdentity | None = None
    replay_guard: ReplayGuard | None = None
    disable_dos_gate: bool = False
    counters: Counters = field(default_factory=Counters)

    state: SessionState = SessionState.IDLE
    events: list[TransitionEvent] = field(default_factory=list)
    failure: str | None = None
    skeyid: crypto.SkeyidBundle | None = None
    peer_serial: bytes | None = None

    cky_i: bytes = b""
    cky_r: bytes = b""
    own_nonce: bytes = b""
    peer_nonce: bytes = b""
    own_public: bytes = b""
    peer_public: bytes = b""
    _exponent: int = field(default=0, repr=False)
    _sa_offer: bytes = b""      # SA bytes from message 1
    _id_i: IdBody | None = None   # initiator ID, covered by HASH_I
    _id_r: IdBody | None = None   # responder ID, covered by HASH_R

    # -- bookkeeping ---------------------------------------------------------

    def _record(self, op: str, emitted: str | None = None,
                failure: str | None = None) -> None:
        self.events.append(_event(op, self.state._value_, emitted, failure))

    def _fail(self, op: str, step: str) -> None:
        self.state = _FAILED
        self.failure = step
        self._record(op, failure=step)

    def _reject(self, op: str, reason: str, pre_dh: bool) -> None:
        """Responder drop of a bad message 1: no state change, no reply."""
        if pre_dh:
            self.counters.messages_rejected_pre_dh += 1
        self.events.append(_event(op, self.state._value_, None, reason))

    def _keypair(self) -> None:
        """A fresh DH exponent and own public value: one counted DH episode."""
        self.counters.dh_ops += 1
        self._exponent, self.own_public = crypto.dh_keypair(self.group, self.rng)

    def _require_token(self, op: str) -> None:
        if self.token is None and self.variant is _IMPROVED:
            self._fail(op, "no device")
            raise DeviceAbsent(f"{self.name} has no security key device")

    # -- sealing and opening, the same in both directions ---------------------

    def _ladder_message(self, sa: SaBody, own_id: IdBody,
                        auth: list[Body]) -> IsakmpMessage:
        """Message 1 (``auth`` empty) or message 2: ``sa``, own KE and
        nonce, ``own_id`` and ``auth``.  The improved variant puts a DEV
        payload first and seals the SA/KE/nonce/ID chain under (key1, own
        serial)."""
        bodies = [sa, KeBody(self.own_public), NonceBody(self.own_nonce), own_id]
        if self.variant is _BASELINE:
            bodies += auth
            return IsakmpMessage(self.cky_i, self.cky_r,
                                 codec.EXCHANGE_AGGRESSIVE, 0, 0, bodies)
        dev = DevBody(device_encrypt(self.token))
        blob = device_session_encrypt(self.token,
                                      codec.serialize_payload_chain(bodies))
        return codec.build_message(self.cky_i, self.cky_r, [dev] + auth,
                                   flags=codec.FLAG_ENCRYPTION,
                                   encrypted_chain=blob)

    def _auth_bodies(self, digest: bytes) -> list[Body]:
        """Sign ``digest`` with the file identity, or with the device in the
        improved variant; CERT + SIG, sealed under the own serial key in the
        improved variant."""
        if self.variant is _BASELINE:
            if self.file_identity is None:
                raise DeviceAbsent(f"{self.name} has no file identity")
            return [CertBody(CERT_ENCODING_CLEAR,
                             self.file_identity.certificate.encoded),
                    SigBody(crypto.sign(self.file_identity.signing_key, digest))]
        signature = device_sign(self.token, digest)
        cert_encoded = device_get_certificate(self.token).encoded
        serial_key = crypto.kdf_serial(self.token.serial)
        return [
            CertBody(CERT_ENCODING_SEALED,
                     crypto.seal(crypto.AES256GCM, serial_key, self.rng,
                                 cert_encoded)),
            SigBody(crypto.seal(crypto.AES256GCM, serial_key, self.rng,
                                signature)),
        ]

    def _open_ladder(self, msg: IsakmpMessage) -> list[Body] | str:
        """The peer's SA/KE/nonce/ID payloads, or why they cannot be had.

        The improved variant authenticates DEV under key1, turns away a DEV
        nonce the replay guard has seen, opens the chain under (key1, peer
        serial), then admits the nonce, so a replay costs no chain open and
        a copy whose chain does not open spends no nonce.
        Reasons: ``no-dev``, ``bad-dev``, ``bad-chain``, ``malformed`` and
        ``replay``.
        """
        if self.variant is _BASELINE:
            return msg.payloads
        dev = msg.first(DevBody)
        if dev is None:
            return "no-dev"
        try:
            serial = device_decrypt(self.token, dev.sealed)
        except AuthFailure:
            self.counters.decrypt_failures += 1
            return "bad-dev"
        if len(serial) != crypto.SERIAL_LEN:
            return "bad-dev"
        if msg.encrypted_chain is None:
            return "malformed"
        guard = self.replay_guard
        if guard is not None and guard.recall(dev.nonce):
            return "replay"
        try:
            bodies = open_chain(self.token, serial, msg.encrypted_chain)
        except AuthFailure:
            self.counters.decrypt_failures += 1
            return "bad-chain"
        except CodecError:
            return "malformed"
        if guard is not None:
            guard.seen_before(dev.nonce)
        self.peer_serial = serial
        return bodies

    def _open_peer_auth(self, cert_body: CertBody, sig_body: SigBody,
                        peer_id: IdBody) -> tuple[Certificate, bytes] | str:
        """The peer's vetted certificate and its signature, or the failing
        step (``cert`` or ``sig-decrypt``).  The improved variant unseals
        both bodies under the peer's serial key first."""
        cert_encoded, signature = cert_body.certificate, sig_body.signature
        if self.variant is _IMPROVED:
            unseal = auth_opener(self.peer_serial)
            opened = []
            for blob, step in ((cert_encoded, "cert"),
                               (signature, "sig-decrypt")):
                try:
                    opened.append(unseal(blob))
                except AuthFailure:
                    self.counters.decrypt_failures += 1
                    return step
            cert_encoded, signature = opened
        try:
            cert = decode_certificate(cert_encoded)
        except CodecError:
            return "cert"
        if (not verify_certificate(cert)
                or cert.subject.encode() != peer_id.identity
                or (self.variant is _IMPROVED
                    and cert.serial_binding != self.peer_serial)):
            return "cert"
        return cert, signature

    # -- ladder steps: each returns the message it sends, or None -----------

    def initiator_start(self) -> IsakmpMessage | None:
        op = "initiator_start"
        if self.role is not _INITIATOR or self.state is not _IDLE:
            self._fail(op, "out-of-order")
            return None
        self._require_token(op)

        self.cky_i = self.rng.randbytes(COOKIE_LEN)
        self.cky_r = bytes(COOKIE_LEN)
        self._keypair()
        self.own_nonce = self.rng.randbytes(NONCE_LEN)
        self._sa_offer = codec.DEFAULT_SA_PROPOSAL
        self._id_i, _ = id_payload(self.name)

        msg = self._ladder_message(SaBody(self._sa_offer), self._id_i, [])
        self.state = _SENT1
        self._record(op, emitted="msg1")
        return msg

    def responder_on_msg1(self, msg: IsakmpMessage) -> IsakmpMessage | None:
        op = "responder_on_msg1"
        if self.role is not _RESPONDER or self.state is not _IDLE:
            self._fail(op, "out-of-order")
            return None
        self._require_token(op)
        if msg.message_id:
            self._reject(op, "malformed", pre_dh=True)
            return None
        self.cky_i = msg.initiator_cookie

        if self.disable_dos_gate and self.variant is _IMPROVED:
            # Regression mode: pay for the DH keypair before the gate, the
            # way the baseline does.
            self._keypair()
        bodies = self._open_ladder(msg)
        if isinstance(bodies, str):
            self._reject(op, bodies, pre_dh=not self.disable_dos_gate)
            return None
        ladder = _ladder_bodies(bodies)
        if ladder is None:
            self._reject(op, "malformed", pre_dh=not self._exponent)
            return None
        sa, ke, nonce, peer_id = ladder

        if not self._exponent:
            self._keypair()
        try:
            shared = crypto.dh_shared(self.group, self._exponent,
                                      ke.public_value)
        except WeakPublicValue:
            self._reject(op, "weak-ke", pre_dh=False)
            return None

        self.cky_r = self.rng.randbytes(COOKIE_LEN)
        self.own_nonce = self.rng.randbytes(NONCE_LEN)
        self.peer_nonce = nonce.nonce
        self.peer_public = ke.public_value
        self._sa_offer = sa.proposal
        self._id_i = peer_id
        self._id_r, id_r_bytes = id_payload(self.name)
        self.skeyid = crypto.derive_skeyid(self.peer_nonce, self.own_nonce,
                                           shared, self.cky_i, self.cky_r)

        hash_r = crypto.compute_hash(self.skeyid.skeyid, self.own_public,
                                     self.peer_public, self.cky_r, self.cky_i,
                                     sa.proposal, id_r_bytes)
        reply = self._ladder_message(sa, self._id_r, self._auth_bodies(hash_r))
        self.state = _SENT2
        self._record(op, emitted="msg2")
        return reply

    def initiator_on_msg2(self, msg: IsakmpMessage) -> IsakmpMessage | None:
        op = "initiator_on_msg2"
        if self.role is not _INITIATOR or self.state is not _SENT1:
            self._fail(op, "out-of-order")
            return None
        if msg.message_id:
            self._fail(op, "malformed")
            return None
        self.cky_r = msg.responder_cookie

        bodies = self._open_ladder(msg)
        if isinstance(bodies, str):
            self._fail(op, "umr" if bodies in ("no-dev", "bad-dev")
                       else "chain")
            return None
        ladder = _ladder_bodies(bodies)
        if ladder is None:
            self._fail(op, "malformed")
            return None
        sa, ke, nonce, peer_id = ladder

        cert_body = msg.first(CertBody)
        sig_body = msg.first(SigBody)
        if cert_body is None:
            self._fail(op, "cert")
            return None
        if sig_body is None:
            self._fail(op, "sig-decrypt")
            return None
        auth = self._open_peer_auth(cert_body, sig_body, peer_id)
        if isinstance(auth, str):
            self._fail(op, auth)
            return None
        cert, signature = auth

        self.peer_nonce = nonce.nonce
        self.peer_public = ke.public_value
        self._id_r = peer_id

        self.counters.dh_ops += 1
        try:
            shared = crypto.dh_shared(self.group, self._exponent,
                                      self.peer_public)
        except WeakPublicValue:
            self._fail(op, "ke")
            return None
        skeyid = crypto.derive_skeyid(self.own_nonce, self.peer_nonce, shared,
                                      self.cky_i, self.cky_r)
        hash_r = crypto.compute_hash(skeyid.skeyid, self.peer_public,
                                     self.own_public, self.cky_r, self.cky_i,
                                     sa.proposal, codec.encode_body(self._id_r))
        self.counters.sig_verifies += 1
        if not crypto.verify(cert.public_key, hash_r, signature):
            self._fail(op, "sig-verify")
            return None
        self.skeyid = skeyid

        hash_i = crypto.compute_hash(skeyid.skeyid, self.own_public,
                                     self.peer_public, self.cky_i, self.cky_r,
                                     self._sa_offer, codec.encode_body(self._id_i))
        flags = codec.FLAG_ENCRYPTION if self.variant is _IMPROVED else 0
        reply = codec.build_message(self.cky_i, self.cky_r,
                                    self._auth_bodies(hash_i), flags=flags)
        self.state = _ESTABLISHED
        self._record(op, emitted="msg3")
        return reply

    def responder_on_msg3(self, msg: IsakmpMessage) -> None:
        op = "responder_on_msg3"
        if self.role is not _RESPONDER or self.state is not _SENT2:
            self._fail(op, "out-of-order")
            return

        cert_body = msg.first(CertBody)
        sig_body = msg.first(SigBody)
        if msg.message_id or cert_body is None or sig_body is None:
            self._fail(op, "malformed")
            return
        auth = self._open_peer_auth(cert_body, sig_body, self._id_i)
        if isinstance(auth, str):
            self._fail(op, auth)
            return
        cert, signature = auth

        hash_i = crypto.compute_hash(self.skeyid.skeyid, self.peer_public,
                                     self.own_public, self.cky_i, self.cky_r,
                                     self._sa_offer, codec.encode_body(self._id_i))
        self.counters.sig_verifies += 1
        if not crypto.verify(cert.public_key, hash_i, signature):
            self._fail(op, "sig-verify")
            return
        self.state = _ESTABLISHED
        self._record(op)
