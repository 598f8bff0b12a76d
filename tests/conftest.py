import socket

import pytest

from ikedev import codec, crypto
from ikedev.protocol import HandshakeSession, ReplayGuard, Role, Variant
from ikedev.usbkey import DeploymentConfig, create_token, make_file_identity


def payload_types(bodies) -> list[codec.PayloadType]:
    """The payload type of each body, as the generic headers link them."""
    return [codec.PayloadType[codec.PAYLOAD_NAMES[type(body)]]
            for body in bodies]


class Fleet:
    """One deployment with provisioned principals, for driving handshakes."""

    def __init__(self, seed: int = 7):
        self.seed = seed
        self.deployment = DeploymentConfig(
            key1=crypto.derive_rng(seed, "key1").randbytes(32), seed=seed)
        self.tokens = {}
        self.file_identities = {}
        self.serials = {}
        for name in ("alice", "bob", "carol"):
            serial = crypto.derive_rng(seed, f"serial|{name}").randbytes(7)
            self.serials[name] = serial
            self.tokens[name] = create_token(serial, self.deployment, name)
            self.file_identities[name] = make_file_identity(
                name, crypto.derive_rng(seed, f"fid|{name}").randbytes(32))

    def session(self, name: str, role: Role, variant: Variant, *,
                token: bool = True, replay_guard: ReplayGuard | None = None,
                label: str = "0", **kwargs) -> HandshakeSession:
        return HandshakeSession(
            role=role, variant=variant, name=name,
            rng=crypto.derive_rng(self.seed, f"sess|{name}|{label}"),
            token=(self.tokens[name]
                   if token and variant is Variant.IMPROVED else None),
            file_identity=self.file_identities[name],
            replay_guard=replay_guard, **kwargs)

    def pair(self, variant: Variant, *, label: str = "0", **kwargs):
        ini = self.session("alice", Role.INITIATOR, variant, label=label)
        rsp = self.session("bob", Role.RESPONDER, variant, label=label,
                           replay_guard=ReplayGuard(), **kwargs)
        return ini, rsp


@pytest.fixture
def fleet():
    return Fleet()


def drive_handshake(ini: HandshakeSession, rsp: HandshakeSession,
                    mutate=None):
    """Run a full ladder; ``mutate(index, wire) -> wire`` taps each message.

    Returns the delivered wire bytes (post-mutation); stops at the first
    step that produces no reply.
    """
    wires = []

    def hop(msg, index):
        wire = codec.encode_message(msg)
        if mutate is not None:
            wire = mutate(index, wire)
        wires.append(wire)
        return codec.decode_message(wire)

    msg1 = ini.initiator_start()
    if msg1 is None:
        return wires
    msg2 = rsp.responder_on_msg1(hop(msg1, 0))
    if msg2 is None:
        return wires
    msg3 = ini.initiator_on_msg2(hop(msg2, 1))
    if msg3 is None:
        return wires
    rsp.responder_on_msg3(hop(msg3, 2))
    return wires


@pytest.fixture
def handshake():
    return drive_handshake


def _loopback_udp_available() -> bool:
    try:
        with socket.socket(socket.AF_INET, socket.SOCK_DGRAM) as s:
            s.bind(("127.0.0.1", 0))
        return True
    except OSError:
        return False


requires_loopback_udp = pytest.mark.skipif(
    not _loopback_udp_available(), reason="no loopback UDP in this environment")
