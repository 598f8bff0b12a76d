"""Time ``ikedev matrix`` and netsim's flood packets, part by part, in this
checkout and in another tree.

First both trees run ``ikedev matrix --format structured`` on seeds 1 to
PAIRS, alternating which tree goes first, and must print equal stdout; the
per-pair time ratio (this / other) is printed with its median.

Then each tree runs netsim's flood scenario, cut to PACKETS forged message
1s (``Flood(count=PACKETS)``, no handshake, gate on, seed SEED), for each of
ROWS: both variants on ``desk64``, the packets the matrix spends its time
on, and the improved variant on ``modp2048``, the gated reject behind the
paper's DoS figure.  The trees alternate per pass for PASSES passes.  Five
calls that the flood path makes through a module or class attribute are
wrapped to read the clock as they start and end: ``netsim._forged_msg1``,
``codec.decode_message``, ``Principal.new_session``,
``HandshakeSession.responder_on_msg1`` and ``protocol.device_decrypt``.
The clock readings split each packet into

* forge     -- ``_forged_msg1``, the attacker's build and encode;
* transmit  -- from the forge's end to the session's start: ``transmit``,
               with its message-log row and
  * decode    -- ``codec.decode_message`` of the datagram;
* session   -- ``Principal.new_session``;
* responder -- from the session's end to the step's end: the responder's
               ``responder_on_msg1``, and on an improved row within it
  * key1_open -- ``device_decrypt`` of the forged DEV, which fails;
* drain     -- from the step's end to the next forge: the failure trace
               and the principal's totals.

``total`` is forge + transmit + session + responder + drain.  Each row also
gets a floor row, timed after each pass's flood with no ikedev code around
it: the crypto that its packet cannot skip, called on ``cryptography`` and
the builtins directly.

* crypto_floor -- baseline: the Ed25519 sign of a 32-byte digest, a
                  ``desk64`` ``pow`` with a 56-bit exponent, and
                  ``_random.Random.seed`` from a 256-bit int, the Mersenne
                  Twister set-up of the session's RNG;
* aes_floor    -- improved: the forge's two ``AESGCM(key).encrypt`` calls,
                  each under a fresh key (its key schedule included), of a
                  7-byte serial and of the row's group's forged chain, and
                  the responder's failing ``decrypt`` of a forged DEV under
                  one kept cipher, as the responder keeps key1's.

Each floor signs or opens under keys it draws itself: an Ed25519 sign and
a failing AES-GCM open cost the same under any key.

``responder`` less ``crypto_floor`` is the Python around the baseline's
crypto (with the SHA-256 calls of the SKEYID ladder and HASH_R);
``forge`` plus ``responder`` less ``aes_floor`` is the improved packet's.

A gate-on improved responder must turn away every forged packet before any
DH work: the tool exits 1 if one answers a packet or pays DH for one.

The figures are medians over the passes of each pass's median, in us; the
wrappers' own cost falls into the parts equally in both trees.  Both trees
are imported side by side, each under its own package name.

    python3 tools/matrix_parts.py <other-src>

``<other-src>`` is a directory holding an ``ikedev`` package, for example
the ``src/`` of a checkout of the parent commit.  The last line printed is
a JSON object of the figures.
"""

import _random
import contextlib
import gc
import importlib
import importlib.util
import io
import json
import random
import statistics
import sys
from pathlib import Path
from time import perf_counter, perf_counter_ns

from cryptography.exceptions import InvalidTag
from cryptography.hazmat.primitives.asymmetric.ed25519 import Ed25519PrivateKey
from cryptography.hazmat.primitives.ciphers.aead import AESGCM

ROOT = Path(__file__).resolve().parent.parent
PAIRS = 30
PACKETS = 250
PASSES = 16
SEED = 1
ROWS = (("baseline", "desk64"), ("improved", "desk64"),
        ("improved", "modp2048"))


def load(src: Path, name: str) -> dict:
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
            for mod in ("cli", "codec", "crypto", "netsim", "protocol")}


def run_matrix(ike: dict, seed: int) -> tuple[float, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        start = perf_counter()
        code = ike["cli"].main(["matrix", "--format", "structured",
                                "--seed", str(seed)])
        seconds = perf_counter() - start
    if code != 0:
        sys.exit(f"error: matrix exited {code} on seed {seed}")
    return seconds, out.getvalue()


@contextlib.contextmanager
def clocked(owner, attr: str, marks: list[int]):
    """Rebind ``owner.attr`` to a wrapper that appends the clock to
    ``marks`` as each call starts and ends."""
    original = getattr(owner, attr)

    def wrapper(*args, **kwargs):
        marks.append(perf_counter_ns())
        try:
            return original(*args, **kwargs)
        finally:
            marks.append(perf_counter_ns())
    setattr(owner, attr, wrapper)
    try:
        yield
    finally:
        setattr(owner, attr, original)


def flood_parts(ike: dict, variant, group: str) -> dict[str, float]:
    """Median us per part over one flood run of PACKETS packets."""
    netsim, protocol = ike["netsim"], ike["protocol"]
    improved = variant is protocol.Variant.IMPROVED
    config = netsim.ScenarioConfig(
        name="flood", variant=variant, seed=SEED, group=group,
        adversary=(netsim.Flood(count=PACKETS),), handshake=False)
    forge, decode, session, step, key1 = [], [], [], [], []
    with (clocked(netsim, "_forged_msg1", forge),
          clocked(ike["codec"], "decode_message", decode),
          clocked(netsim.Principal, "new_session", session),
          clocked(protocol.HandshakeSession, "responder_on_msg1", step),
          clocked(protocol, "device_decrypt", key1)):
        report = netsim.run_scenario(config)
    if (report.flood_sent != PACKETS
            or {len(forge), len(decode), len(session), len(step)} != {2 * PACKETS}
            or len(key1) != 2 * PACKETS * improved):
        sys.exit("error: the flood did not reach the responder once a packet")
    totals = report.principal_counters.values()
    if improved and (any(c["dh_ops"] for c in totals)
                     or sum(c["messages_rejected_pre_dh"] for c in totals)
                     != PACKETS):
        sys.exit(f"error: a gate-on improved responder on {group} answered "
                 "a forged message 1 or paid DH for one")
    ns = {part: [] for part in ("forge", "transmit", "decode", "session",
                                "responder", "key1_open", "drain", "total")}
    for i in range(PACKETS - 1):
        f0, f1 = forge[2 * i], forge[2 * i + 1]
        s0, s1 = session[2 * i], session[2 * i + 1]
        r1 = step[2 * i + 1]
        spent = {"forge": f1 - f0, "transmit": s0 - f1, "session": s1 - s0,
                 "responder": r1 - s1, "drain": forge[2 * i + 2] - r1}
        spent["total"] = sum(spent.values())
        spent["decode"] = decode[2 * i + 1] - decode[2 * i]
        if improved:
            spent["key1_open"] = key1[2 * i + 1] - key1[2 * i]
        for part, value in spent.items():
            ns[part].append(value)
    parts = {part: statistics.median(values) / 1e3
             for part, values in ns.items() if values}
    if improved:
        parts["aes_floor"] = aes_floor(ike, group)
    else:
        parts["crypto_floor"] = crypto_floor(ike)
    return parts


def crypto_floor(ike: dict) -> float:
    """Median us over PACKETS rounds of the baseline responder's crypto,
    called on ``cryptography`` and the builtins with no ikedev code around
    it: sign, ``desk64`` ``pow`` and Mersenne Twister seeding."""
    group = ike["crypto"].DESK_GROUP
    inputs = random.Random(f"matrix-parts|{SEED}")
    key = Ed25519PrivateKey.from_private_bytes(inputs.randbytes(32))
    twister = random.Random()
    ns = []
    for _ in range(PACKETS):
        digest = inputs.randbytes(32)
        base = inputs.randrange(2, group.p - 1)
        exponent = inputs.getrandbits(group.exponent_bits)
        seed = inputs.getrandbits(256)
        t0 = perf_counter_ns()
        key.sign(digest)
        pow(base, exponent, group.p)
        _random.Random.seed(twister, seed)
        ns.append(perf_counter_ns() - t0)
    return statistics.median(ns) / 1e3


def aes_floor(ike: dict, group: str) -> float:
    """Median us over PACKETS rounds of the improved packet's AES-GCM,
    called on ``cryptography`` directly: two seals under fresh keys, of a
    serial and of a plaintext the size of a forged chain on ``group``, and
    the failing open under one kept cipher of a DEV-sized record, what a
    forged DEV is under key1."""
    codec = ike["codec"]
    inputs = random.Random(f"matrix-parts|{SEED}")
    kept = AESGCM(inputs.randbytes(32))
    chain_len = len(codec.serialize_payload_chain([
        codec.SaBody(codec.DEFAULT_SA_PROPOSAL),
        codec.KeBody(bytes(ike["crypto"].GROUPS[group].value_size)),
        codec.NonceBody(bytes(16)), codec.IdBody(2, b"attacker")]))
    ns = []
    for _ in range(PACKETS):
        keys = inputs.randbytes(32), inputs.randbytes(32)
        nonces = inputs.randbytes(16), inputs.randbytes(16)
        serial, chain = inputs.randbytes(7), inputs.randbytes(chain_len)
        dev = inputs.randbytes(16 + 7 + 16)
        t0 = perf_counter_ns()
        AESGCM(keys[0]).encrypt(nonces[0], serial, b"")
        AESGCM(keys[1]).encrypt(nonces[1], chain, b"")
        try:
            kept.decrypt(dev[:16], dev[16:], b"")
        except InvalidTag:
            pass
        ns.append(perf_counter_ns() - t0)
    return statistics.median(ns) / 1e3


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print("usage: python3 tools/matrix_parts.py <other-src>",
              file=sys.stderr)
        return 2
    trees = {"this": load(ROOT / "src", "ikedev_this"),
             "other": load(Path(argv[0]).resolve(), "ikedev_other")}

    ratios = []
    for seed in range(1, PAIRS + 1):
        order = list(trees) if seed % 2 else list(trees)[::-1]
        gc.collect()
        runs = {label: run_matrix(trees[label], seed) for label in order}
        if runs["this"][1] != runs["other"][1]:
            sys.exit(f"error: the trees print different matrices on seed {seed}")
        ratios.append(runs["this"][0] / runs["other"][0])
    print(f"matrix time ratio this/other, {PAIRS} pairs: median "
          f"{statistics.median(ratios):.3f} "
          f"({' '.join(f'{r:.3f}' for r in ratios)}); stdout equal")

    result = {"matrix_ratio_p50": round(statistics.median(ratios), 4)}
    for variant, group in ROWS:
        per_pass = {label: {} for label in trees}
        for i in range(PASSES):
            for label in (list(trees) if i % 2 == 0 else list(trees)[::-1]):
                ike = trees[label]
                gc.collect()
                parts = flood_parts(ike, ike["protocol"].Variant(variant),
                                    group)
                for part, value in parts.items():
                    per_pass[label].setdefault(part, []).append(value)
        figures = {label: {part: round(statistics.median(values), 3)
                           for part, values in parts.items()}
                   for label, parts in per_pass.items()}
        print(f"{variant} {group} flood packet, us "
              f"{'this':>8} {'other':>8} {'ratio':>7}")
        for part, this in figures["this"].items():
            other = figures["other"][part]
            print(f"{part:>33} {this:8.3f} {other:8.3f} {this / other:7.3f}")
        result[f"{variant}-{group}"] = figures
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
