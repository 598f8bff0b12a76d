"""Span tracing installed around ikedev's layer functions from outside.

The tracer replaces each listed function with a wrapper that records one
span per call: id, parent span, operation id, name, start, end and outcome.
Names bound elsewhere with ``from .module import fn`` are rebound too, or
those calls would escape the trace.  Spans stay in memory until the run
ends; ``layer_metrics`` turns them into calls and self time per function,
where self time is a span's duration minus the time its child spans cover.
"""

from __future__ import annotations

import contextlib
import functools
import gzip
import json
import sys
from collections import defaultdict
from time import perf_counter_ns

# layer -> functions traced in it ("Class.method" for methods)
TRACED = {
    "crypto": ("dh_keypair", "dh_shared", "sign", "verify",
               "signature_keypair", "seal", "open_sealed", "derive_rng",
               "kdf_serial", "kdf_session", "derive_skeyid"),
    "usbkey": ("create_token", "make_file_identity", "make_certificate",
               "verify_certificate", "decode_certificate", "device_encrypt",
               "device_decrypt", "device_session_encrypt",
               "device_session_decrypt", "device_sign"),
    "codec": ("encode_message", "decode_message", "build_message",
              "serialize_payload_chain", "parse_payload_chain",
              "payload_byte_ranges"),
    "protocol": ("HandshakeSession.initiator_start",
                 "HandshakeSession.responder_on_msg1",
                 "HandshakeSession.initiator_on_msg2",
                 "HandshakeSession.responder_on_msg3",
                 "ReplayGuard.seen_before"),
    "netsim": ("run_matrix", "run_scenario", "observe", "tamper_in_flight",
               "verdicts_from_trace"),
    "cli": ("main",),
}

# span outcomes
OK, RAISED, RETURNED_NONE = 0, 1, 2

# span name -> metric reported from its outcomes
OUTCOME_METRICS = {
    "crypto.open_sealed": ("failed", (RAISED,)),
    "usbkey.device_decrypt": ("failed", (RAISED,)),
    "protocol.responder_on_msg1": ("rejected", (RAISED, RETURNED_NONE)),
}


def span_name(layer: str, qualname: str) -> str:
    """Metric-facing name: methods of HandshakeSession drop the class."""
    return f"{layer}.{qualname.removeprefix('HandshakeSession.')}"


class Tracer:
    """In-memory span recorder for one single-threaded run."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []   # (id, parent, op, name, start, end, outcome)
        self.op_id = 0
        self.active = True
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def _enter(self) -> tuple[int, int | None]:
        sid = len(self.spans) + len(self._stack)
        parent = self._stack[-1] if self._stack else None
        self._stack.append(sid)
        return sid, parent

    def _exit(self, sid: int, parent: int | None, name: str, start: int,
              outcome: int) -> None:
        end = perf_counter_ns()
        self._stack.pop()
        self.spans.append((sid, parent, self.op_id, name, start, end, outcome))

    @contextlib.contextmanager
    def paused(self):
        """Calls made inside run untraced (benchmark work, not the op's)."""
        self.active = False
        try:
            yield
        finally:
            self.active = True

    @contextlib.contextmanager
    def op(self, name: str, op_id: int):
        """Root span of one benchmark operation; layer spans nest in it."""
        self.op_id = op_id
        sid, parent = self._enter()
        outcome = RAISED
        start = perf_counter_ns()
        try:
            yield
            outcome = OK
        finally:
            self._exit(sid, parent, name, start, outcome)

    def wrap(self, name: str, fn):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            sid, parent = tracer._enter()
            outcome = RAISED
            start = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
                outcome = RETURNED_NONE if result is None else OK
                return result
            finally:
                tracer._exit(sid, parent, name, start, outcome)

        return traced

    # -- installation ------------------------------------------------------

    def install(self, modules: dict) -> None:
        """Wrap every function in TRACED; ``modules`` maps layer -> module."""
        ikedev_modules = [m for n, m in sys.modules.items()
                          if n == "ikedev" or n.startswith("ikedev.")]
        for layer, names in TRACED.items():
            for qualname in names:
                owner = modules[layer]
                attr = qualname
                if "." in qualname:
                    cls_name, attr = qualname.split(".")
                    owner = getattr(owner, cls_name)
                original = getattr(owner, attr)
                wrapped = self.wrap(span_name(layer, qualname), original)
                self._rebind(owner, attr, original, wrapped)
                if owner is modules[layer]:
                    for mod in ikedev_modules:
                        for key, value in list(vars(mod).items()):
                            if value is original:
                                self._rebind(mod, key, original, wrapped)

    def _rebind(self, owner, attr: str, original, wrapped) -> None:
        setattr(owner, attr, wrapped)
        self._restore.append((owner, attr, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    # -- results -----------------------------------------------------------

    def self_times(self) -> list[int]:
        """Self time in ns of each span, indexed like ``self.spans``."""
        index = {span[0]: i for i, span in enumerate(self.spans)}
        selfs = [span[5] - span[4] for span in self.spans]
        for span in self.spans:
            if span[1] is not None:
                selfs[index[span[1]]] -= span[5] - span[4]
        return selfs

    def layer_metrics(self) -> dict[str, tuple[float, str]]:
        """calls, self_us and outcome counts for every traced function."""
        calls: dict[str, int] = defaultdict(int)
        self_ns: dict[str, int] = defaultdict(int)
        outcomes: dict[str, int] = defaultdict(int)
        for span, own in zip(self.spans, self.self_times()):
            name = span[3]
            calls[name] += 1
            self_ns[name] += own
            extra = OUTCOME_METRICS.get(name)
            if extra is not None and span[6] in extra[1]:
                outcomes[name] += 1
        metrics: dict[str, tuple[float, str]] = {}
        for layer, names in TRACED.items():
            for qualname in names:
                name = span_name(layer, qualname)
                metrics[f"{name}.calls"] = (calls[name], "count")
                metrics[f"{name}.self_us"] = (self_ns[name] / 1000, "us")
        for name, (suffix, _) in OUTCOME_METRICS.items():
            metrics[f"{name}.{suffix}"] = (outcomes[name], "count")
        return metrics

    def write(self, path) -> None:
        """Write all spans as gzip'd JSON lines, one array per span."""
        fields = ["id", "parent", "op", "name", "start_ns", "end_ns", "outcome"]
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            fh.write(json.dumps({"fields": fields}) + "\n")
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")

