"""Time the parts of a gated reject in this checkout and in another tree.

A gate-on improved responder on ``modp2048`` is fed forged message 1s, the
packets ``netsim`` floods with, and each part of its work is timed apart:

* decode     -- ``codec.decode_message`` of the datagram;
* derive_rng -- ``crypto.derive_rng`` of the session's RNG;
* session    -- ``HandshakeSession(...)`` built with keyword arguments,
                as perfbench's ``flood-modp2048`` builds it (``netsim``
                passes its arguments by position and adds its principal's
                counters);
* on_msg1    -- ``responder_on_msg1``, which rejects the packet;
* key1_open  -- ``usbkey.device_decrypt`` of the packet's DEV, which fails
                (a part of on_msg1, timed again on its own);
* record     -- ``HandshakeSession._record`` of the reject on a fresh
                session (also a part of on_msg1);
* aes_floor  -- the failing ``AESGCM.decrypt`` of the same DEV under a
                key the tool draws itself (a failing open costs the same
                under any key), called on ``cryptography`` directly: what
                key1_open would cost with no Python of ikedev around it.

``total`` is decode + derive_rng + session + on_msg1, the responder's whole
cost of one forged packet.  Both trees are imported side by side, each
under its own package name, and fed the same packets, alternating per
packet and which tree goes first, for PASSES passes of PACKETS packets.
The figures are medians over the passes of each pass's median, in us.

    python3 tools/gate_parts.py <other-src>

``<other-src>`` is a directory holding an ``ikedev`` package, for example
the ``src/`` of a checkout of the parent commit.  The last line printed is
a JSON object of both trees' figures.
"""

import gc
import importlib
import importlib.util
import json
import random
import statistics
import sys
from pathlib import Path
from time import perf_counter_ns

from cryptography.exceptions import InvalidTag
from cryptography.hazmat.primitives.ciphers.aead import AESGCM

ROOT = Path(__file__).resolve().parent.parent
PACKETS = 1000
PASSES = 8
SEED = 1
PARTS = ("decode", "derive_rng", "session", "on_msg1", "key1_open", "record",
         "aes_floor")


def load(src: Path, name: str):
    """Import ``src/ikedev`` as package ``name``; return its modules."""
    init = src / "ikedev" / "__init__.py"
    if not init.is_file():
        sys.exit(f"error: no ikedev package in {src}")
    spec = importlib.util.spec_from_file_location(
        name, init, submodule_search_locations=[str(init.parent)])
    package = importlib.util.module_from_spec(spec)
    sys.modules[name] = package
    spec.loader.exec_module(package)
    return {mod: importlib.import_module(f"{name}.{mod}")
            for mod in ("codec", "crypto", "errors", "netsim", "protocol",
                        "usbkey")}


class Tree:
    """One tree's responder and the forged packets it is fed."""

    def __init__(self, label: str, ike: dict):
        self.label = label
        self.ike = ike
        crypto, netsim, protocol = ike["crypto"], ike["netsim"], ike["protocol"]
        self.group = crypto.MODP2048_GROUP
        principals = netsim.build_principals(
            netsim._deployment(SEED), protocol.Variant.IMPROVED,
            netsim.ScenarioConfig().principals)
        self.bob = principals["bob"]
        attacker = random.Random(f"gate-parts|{SEED}")
        self.packets = [netsim._forged_msg1(protocol.Variant.IMPROVED, attacker,
                                            self.group, "mallory")
                        for _ in range(PACKETS)]
        self.floor_aead = AESGCM(attacker.randbytes(32))
        self.opened = 0

    def session(self, rng):
        protocol, bob = self.ike["protocol"], self.bob
        return protocol.HandshakeSession(
            role=bob.role, variant=protocol.Variant.IMPROVED, name=bob.name,
            rng=rng, group=self.group, token=bob.token,
            file_identity=bob.file_identity, replay_guard=bob.replay_guard,
            disable_dos_gate=False)

    def step(self, wire: bytes, ns: dict[str, list[int]]) -> None:
        codec, crypto = self.ike["codec"], self.ike["crypto"]
        usbkey, errors = self.ike["usbkey"], self.ike["errors"]
        t0 = perf_counter_ns()
        msg = codec.decode_message(wire)
        t1 = perf_counter_ns()
        rng = crypto.derive_rng(SEED, f"session|bob|{self.opened}")
        t2 = perf_counter_ns()
        session = self.session(rng)
        t3 = perf_counter_ns()
        reply = session.responder_on_msg1(msg)
        t4 = perf_counter_ns()
        self.opened += 1
        if reply is not None or session.counters.dh_ops:
            sys.exit(f"error: {self.label} answered or paid DH for a forged "
                     "message 1")

        sealed = msg.first(codec.DevBody).sealed   # the DEV, alone in the clear
        t5 = perf_counter_ns()
        try:
            usbkey.device_decrypt(self.bob.token, sealed)
        except errors.AuthFailure:
            pass
        t6 = perf_counter_ns()
        fresh = self.session(rng)
        t7 = perf_counter_ns()
        fresh._record("responder_on_msg1", failure="bad-dev")
        t8 = perf_counter_ns()
        nonce, rest = sealed[:codec.DEV_NONCE_LEN], sealed[codec.DEV_NONCE_LEN:]
        t9 = perf_counter_ns()
        try:
            self.floor_aead.decrypt(nonce, rest, b"")
        except InvalidTag:
            pass
        t10 = perf_counter_ns()
        for part, spent in zip(PARTS, (t1 - t0, t2 - t1, t3 - t2, t4 - t3,
                                       t6 - t5, t8 - t7, t10 - t9)):
            ns[part].append(spent)


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print("usage: python3 tools/gate_parts.py <other-src>", file=sys.stderr)
        return 2
    trees = [Tree("this", load(ROOT / "src", "ikedev_this")),
             Tree("other", load(Path(argv[0]).resolve(), "ikedev_other"))]
    per_pass = {tree.label: {part: [] for part in PARTS + ("total",)}
                for tree in trees}
    for _ in range(PASSES):
        ns = {tree.label: {part: [] for part in PARTS} for tree in trees}
        gc.collect()
        for i in range(PACKETS):
            for tree in (trees if i % 2 == 0 else trees[::-1]):
                tree.step(tree.packets[i], ns[tree.label])
        for label, parts in ns.items():
            totals = [sum(t) for t in zip(*(parts[p] for p in PARTS[:4]))]
            for part, values in (*parts.items(), ("total", totals)):
                per_pass[label][part].append(statistics.median(values) / 1e3)

    result = {label: {part: round(statistics.median(values), 3)
                      for part, values in parts.items()}
              for label, parts in per_pass.items()}
    print(f"{'us':>11} {'this':>8} {'other':>8} {'ratio':>7}")
    for part in PARTS + ("total",):
        this, other = result["this"][part], result["other"][part]
        print(f"{part:>11} {this:8.3f} {other:8.3f} {this / other:7.3f}")
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
