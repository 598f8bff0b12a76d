"""The three benchmark workloads: closed loop, one client, one thread.

Each workload turns the benchmark seed into its own inputs and performs one
operation per ``step``: it times the call into ikedev, checks the output and
returns a :class:`Sample`.  Only the ikedev public API is used.

* ``matrix``         -- ``ikedev matrix --format structured`` in process,
                        one fresh seed per call: the paper's one-command
                        reproduction (``desk64`` group, so almost no DH).
* ``handshake``      -- honest ``netsim.run_scenario`` runs, variants
                        alternating, a fresh seed each, so provisioning runs
                        every time as it does for a user.
* ``flood-modp2048`` -- a responder on RFC 3526 ``modp2048`` fed forged
                        message 1s with genuine ones at a fixed share, under
                        three configs: baseline, improved, and improved with
                        ``disable_dos_gate``.  ``run_scenario`` cannot select
                        a group, so the benchmark drives the responder the
                        way ``netsim`` delivers to a fresh session.
* ``accept-modp2048`` -- the same responders fed only genuine message 1s,
                        improved and baseline alternating: the accept path,
                        where the responder does its Diffie-Hellman work.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import random
import statistics
from dataclasses import dataclass, field
from time import perf_counter

# The paper's comparison table, kept here so the check does not trust the
# program's own notion of what is expected.
EXPECTED_TABLE = {
    "baseline": {"sa_ke_protection": "not-supported",
                 "cert_sig_protection": "not-supported",
                 "dos_prevention": "not-supported",
                 "certificate_storage": "file"},
    "improved": {"sa_ke_protection": "supported",
                 "cert_sig_protection": "supported",
                 "dos_prevention": "supported",
                 "certificate_storage": "device"},
}

COUNTER_KEYS = ("dh_ops", "sig_verifies", "decrypt_failures",
                "messages_rejected_pre_dh")
TAIL_LADDER = (50, 75, 90, 95, 99)


@dataclass
class Sample:
    """One operation: its kind, timed seconds, check result and output."""
    kind: str
    seconds: float
    ok: bool
    output: bytes = b""
    counters: dict[str, int] = field(default_factory=dict)
    forged: int = 0
    datagrams: int = 0


def p50(samples: list[float]) -> float:
    return statistics.median(samples)


def tail(name: str, samples: list[float], scale: float) -> dict[str, float]:
    """The tail of ``samples`` times ``scale`` as ``name``, with its
    percentile and sample count.

    The tail is the highest percentile of TAIL_LADDER with at least ten
    samples beyond it.  A fixed ladder keeps the percentile the same from
    run to run while the sample count varies a little; p99.9 is left out
    because the runs hold about 10,000 samples, where it would flip between
    runs.
    """
    ordered = sorted(samples)
    n = len(ordered)
    pct = max((p for p in TAIL_LADDER if n * (100 - p) / 100 >= 10),
              default=TAIL_LADDER[0])
    # nearest-rank percentile: the smallest sample with pct% at or below it
    rank = max(1, math.ceil(pct / 100 * n))
    return {name: ordered[rank - 1] * scale,
            f"{name}.percentile": pct, f"{name}.samples": n}


def _sum_counters(per_principal) -> dict[str, int]:
    per_principal = list(per_principal)
    return {k: sum(c[k] for c in per_principal) for k in COUNTER_KEYS}


def _canonical(document: dict) -> bytes:
    """The bytes ``ScenarioReport.to_json`` gives for the same report."""
    return json.dumps(document, sort_keys=True, separators=(",", ":")).encode()


def _op_span(tracer, name: str, index: int):
    return contextlib.nullcontext() if tracer is None else tracer.op(name, index)


def _untraced(tracer):
    return contextlib.nullcontext() if tracer is None else tracer.paused()


class Matrix:
    name = "matrix"
    fingerprint_ops = 2     # ops whose output the fingerprint covers
    trace_ops = 5           # ops per phase of a traced run
    primary = ("matrix",)   # sample kinds the end-to-end metrics describe

    def __init__(self, ike, seed: int):
        self.ike = ike
        self.seeds = random.Random(f"matrix|{seed}")

    def step(self, index: int, tracer, want_output: bool) -> Sample:
        seed = self.seeds.randrange(2**31)
        argv = ["matrix", "--format", "structured", "--seed", str(seed)]
        out = io.StringIO()
        with contextlib.redirect_stdout(out), _op_span(tracer, "op.matrix", index):
            start = perf_counter()
            code = self.ike.cli.main(argv)
            seconds = perf_counter() - start
        doc = json.loads(out.getvalue())
        ok = (code == 0 and doc["matches_expected"] is True
              and doc["seed"] == seed and doc["rows"] == EXPECTED_TABLE)
        reports = [r for rows in doc["reports"].values() for r in rows]
        return Sample(
            kind="matrix", seconds=seconds, ok=ok,
            output=b"".join(_canonical(r) for r in reports) if want_output else b"",
            counters=_sum_counters(c for r in reports
                                   for c in r["principal_counters"].values()),
            forged=sum(r["flood_sent"] for r in reports),
            datagrams=sum(len(r["message_log"]) for r in reports))

    @staticmethod
    def details(by_kind) -> dict[str, float]:
        return {"matrix_s_p50": p50(by_kind["matrix"]),
                **tail("matrix_s_tail", by_kind["matrix"], 1)}


class Handshake:
    name = "handshake"
    fingerprint_ops = 16
    trace_ops = 200
    primary = ("handshake/baseline", "handshake/improved")

    def __init__(self, ike, seed: int):
        self.ike = ike
        self.seeds = random.Random(f"handshake|{seed}")
        netsim, Role = ike.netsim, ike.protocol.Role
        self.principals = (netsim.PrincipalConfig("alice", Role.INITIATOR),
                           netsim.PrincipalConfig("bob", Role.RESPONDER))
        self.variants = (ike.protocol.Variant.BASELINE,
                         ike.protocol.Variant.IMPROVED)

    def step(self, index: int, tracer, want_output: bool) -> Sample:
        variant = self.variants[index % 2]
        config = self.ike.netsim.ScenarioConfig(
            name="handshake", variant=variant,
            seed=self.seeds.randrange(2**31), principals=self.principals)
        with _op_span(tracer, "op.handshake", index):
            start = perf_counter()
            report = self.ike.netsim.run_scenario(config)
            seconds = perf_counter() - start
        return Sample(
            kind=f"handshake/{variant.value}", seconds=seconds,
            ok=report.established is True and report.skeyid_match is True,
            output=report.to_json() if want_output else b"",
            counters=_sum_counters(report.principal_counters.values()),
            datagrams=len(report.message_log))

    @staticmethod
    def details(by_kind) -> dict[str, float]:
        both = by_kind["handshake/baseline"] + by_kind["handshake/improved"]
        return {
            "handshakes_per_s": len(both) / sum(both),
            "handshake_ms_p50.baseline": p50(by_kind["handshake/baseline"]) * 1e3,
            "handshake_ms_p50.improved": p50(by_kind["handshake/improved"]) * 1e3,
            **tail("handshake_ms_tail", both, 1e3),
        }


@dataclass
class _Responder:
    """One responder config of the flood, with its own principals."""
    label: str
    variant: object
    disable_dos_gate: bool
    bob_token: object
    bob_identity: object
    alice_token: object
    alice_identity: object
    guard: object
    forged_pool: list[bytes]
    delivered: int = 0      # responder sessions opened so far
    initiated: int = 0      # genuine message 1s built so far


class FloodModp2048:
    name = "flood-modp2048"
    POOL = 512              # distinct forged packets per recipe
    GENUINE_EVERY = 25      # every 25th message 1 is genuine (4%)
    # (config, packets per round): the improved config is cheap per forged
    # packet, so it gets more of each round to sample the gate well.
    ROUND = (("improved", 250), ("baseline", 25), ("improved-nogate", 25))
    ROUND_LEN = sum(n for _, n in ROUND)
    fingerprint_ops = ROUND_LEN
    trace_ops = 2 * ROUND_LEN
    primary = ("forged/improved",)

    def __init__(self, ike, seed: int):
        """Provision the principals and forge the packets (set-up time)."""
        self.ike = ike
        crypto, usbkey, protocol = ike.crypto, ike.usbkey, ike.protocol
        gen = random.Random(f"flood-modp2048|{seed}")
        self.scenario_seed = gen.randrange(2**31)
        self.group = crypto.MODP2048_GROUP
        deployment = usbkey.DeploymentConfig(
            key1=crypto.derive_rng(self.scenario_seed,
                                   "deployment-key1").randbytes(32),
            seed=self.scenario_seed)

        def token(name):
            serial = crypto.derive_rng(
                self.scenario_seed,
                f"device-serial|{name}").randbytes(crypto.SERIAL_LEN)
            return usbkey.create_token(serial, deployment, name)

        def identity(name):
            return usbkey.make_file_identity(
                name, crypto.derive_rng(self.scenario_seed,
                                        f"file-identity|{name}").randbytes(32))

        Variant = protocol.Variant
        pools = {variant: [self._forge(variant, gen) for _ in range(self.POOL)]
                 for variant in (Variant.BASELINE, Variant.IMPROVED)}
        self.responders = {}
        for label, _ in self.ROUND:
            variant = Variant.BASELINE if label == "baseline" else Variant.IMPROVED
            self.responders[label] = _Responder(
                label=label, variant=variant,
                disable_dos_gate=label == "improved-nogate",
                bob_token=token("bob"), bob_identity=identity("bob"),
                alice_token=token("alice"), alice_identity=identity("alice"),
                guard=protocol.ReplayGuard(), forged_pool=pools[variant])

    def _forge(self, variant, rng: random.Random) -> bytes:
        """A well-formed message 1 costing the attacker no key1 and no
        modexp: the recipe of ``netsim``'s flood, on this group."""
        codec, crypto = self.ike.codec, self.ike.crypto
        bodies = [codec.SaBody(codec.DEFAULT_SA_PROPOSAL),
                  codec.KeBody(rng.randbytes(self.group.value_size)),
                  codec.NonceBody(rng.randbytes(16)),
                  codec.IdBody(2, b"attacker")]
        if variant is self.ike.protocol.Variant.BASELINE:
            msg = codec.build_message(rng.randbytes(8), bytes(8), bodies)
        else:
            dev = crypto.seal(crypto.AES256GCM, rng.randbytes(32), rng,
                              rng.randbytes(crypto.SERIAL_LEN))
            blob = crypto.seal(crypto.AES256GCM, rng.randbytes(32), rng,
                               codec.serialize_payload_chain(
                                   codec.link_payloads(bodies)))
            msg = codec.build_message(rng.randbytes(8), bytes(8),
                                      [codec.DevBody.from_sealed(dev)],
                                      flags=codec.FLAG_ENCRYPTION,
                                      encrypted_chain=blob)
        return codec.encode_message(msg)

    def _genuine(self, rsp: _Responder) -> bytes:
        """A real initiator's message 1; its cost is not the responder's."""
        protocol, crypto = self.ike.protocol, self.ike.crypto
        improved = rsp.variant is protocol.Variant.IMPROVED
        session = protocol.HandshakeSession(
            role=protocol.Role.INITIATOR, variant=rsp.variant, name="alice",
            rng=crypto.derive_rng(self.scenario_seed,
                                  f"session|alice|{rsp.initiated}"),
            group=self.group,
            token=rsp.alice_token if improved else None,
            file_identity=rsp.alice_identity)
        rsp.initiated += 1
        return self.ike.codec.encode_message(session.initiator_start())

    def _schedule(self, index: int) -> str:
        pos = index % self.ROUND_LEN
        for label, count in self.ROUND:
            if pos < count:
                return label
            pos -= count
        raise AssertionError("unreachable")

    def step(self, index: int, tracer, want_output: bool) -> Sample:
        protocol, codec, crypto = self.ike.protocol, self.ike.codec, self.ike.crypto
        rsp = self.responders[self._schedule(index)]
        genuine = rsp.delivered % self.GENUINE_EVERY == self.GENUINE_EVERY - 1
        with _untraced(tracer):
            wire = (self._genuine(rsp) if genuine
                    else rsp.forged_pool[rsp.delivered % self.POOL])
        ordinal = rsp.delivered
        rsp.delivered += 1
        with _op_span(tracer, "op.packet", index):
            start = perf_counter()
            msg = codec.decode_message(wire)
            session = protocol.HandshakeSession(
                role=protocol.Role.RESPONDER, variant=rsp.variant, name="bob",
                rng=crypto.derive_rng(self.scenario_seed,
                                      f"session|bob|{ordinal}"),
                group=self.group,
                token=(rsp.bob_token
                       if rsp.variant is protocol.Variant.IMPROVED else None),
                file_identity=rsp.bob_identity, replay_guard=rsp.guard,
                disable_dos_gate=rsp.disable_dos_gate)
            reply = session.responder_on_msg1(msg)
            seconds = perf_counter() - start
        dh_ops = session.counters.dh_ops
        if genuine:
            ok = reply is not None
        elif rsp.label == "improved":
            ok = reply is None and dh_ops == 0
        elif rsp.label == "improved-nogate":
            ok = reply is None and dh_ops >= 1
        else:
            # The baseline cannot tell a forged message 1 from a genuine
            # one: it pays for DH and answers, which is the flaw measured.
            ok = reply is not None and dh_ops >= 1
        output = b""
        if want_output and reply is not None:
            with _untraced(tracer):
                output = codec.encode_message(reply)
        return Sample(
            kind=f"{'genuine' if genuine else 'forged'}/{rsp.label}",
            seconds=seconds, ok=ok, output=output,
            counters=session.counters.to_dict(), forged=0 if genuine else 1,
            datagrams=1)

    @staticmethod
    def details(by_kind) -> dict[str, float]:
        def us(kind):
            return p50(by_kind[kind]) * 1e6

        return {
            "flood_rsp_us_p50.baseline": us("forged/baseline"),
            "flood_rsp_us_p50.improved": us("forged/improved"),
            "flood_rsp_us_p50.improved-nogate": us("forged/improved-nogate"),
            **tail("flood_rsp_us_tail.improved", by_kind["forged/improved"], 1e6),
            "accept_rsp_us_p50.baseline": us("genuine/baseline"),
            "accept_rsp_us_p50.improved": us("genuine/improved"),
            "gate_ratio": us("forged/improved") / us("genuine/improved"),
        }


class AcceptModp2048(FloodModp2048):
    """The flood's responders fed genuine message 1s only.

    Each accepted message 1 costs the responder its Diffie-Hellman work, so
    this workload's operation, an accepted message 1 at the improved
    responder, is the denominator of the paper's ratio and carries the
    ``crypto.dh_*`` layer.
    """
    name = "accept-modp2048"
    POOL = 0                # nothing forged
    GENUINE_EVERY = 1
    ROUND = (("improved", 1), ("baseline", 1))
    ROUND_LEN = 2
    fingerprint_ops = 8
    trace_ops = 100
    primary = ("genuine/improved",)

    @staticmethod
    def details(by_kind) -> dict[str, float]:
        return {
            "accept_rsp_us_p50.baseline": p50(by_kind["genuine/baseline"]) * 1e6,
            "accept_rsp_us_p50.improved": p50(by_kind["genuine/improved"]) * 1e6,
            **tail("accept_rsp_us_tail.improved", by_kind["genuine/improved"], 1e6),
        }


WORKLOADS = {w.name: w for w in (Matrix, Handshake, FloodModp2048,
                                 AcceptModp2048)}
