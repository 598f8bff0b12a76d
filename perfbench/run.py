"""ikedev benchmark: one workload per run, result as the last stdout line.

    python3 perfbench/run.py --workload matrix --seed 1 --seconds 30 --trace 0

Run from the root of a checkout: the benchmark imports the ikedev it
measures from the checkout's ``src/`` and from nowhere else.  ``--trace 0``
measures the end-to-end metrics of BENCHMARK.json for ``--seconds``, timing
each operation against the same operation on the pinned reference copy of
ikedev in ``perfbench/pinned/``; ``--trace 1`` runs a fixed number of
operations twice, untraced and then traced, and reports the per-layer
metrics.  Both print each workload's own figures above the
result line and write everything, with the environment, to
``perfbench/out/``.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import importlib.util
import json
import os
import platform
import statistics
import sys
from collections import defaultdict
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace

from tracing import Tracer
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
PINNED = HERE / "pinned" / "ikedev"
OUT = HERE / "out"

SETUP_REPEATS = 15     # set-ups per untraced run, spread over it
WINDOW_S = 2.0         # windows op_ref_ratio_p50 compares within
LAYERS = ("crypto", "usbkey", "codec", "protocol", "netsim", "cli")


class BenchmarkError(Exception):
    """The benchmark cannot run here; no result is printed."""


def load_ikedev() -> SimpleNamespace:
    """Import ikedev afresh from the checkout, dropping any earlier copy."""
    for name in [n for n in sys.modules if n == "ikedev" or n.startswith("ikedev.")]:
        del sys.modules[name]
    mods = {layer: importlib.import_module(f"ikedev.{layer}") for layer in LAYERS}
    origin = Path(sys.modules["ikedev"].__file__).resolve()
    if SRC.resolve() not in origin.parents:
        raise BenchmarkError(f"ikedev imported from {origin}, not from {SRC}")
    return SimpleNamespace(**mods)


def load_pinned() -> SimpleNamespace:
    """Import the pinned reference copy of ikedev as ``ikedev_pinned``,
    once per process."""
    if "ikedev_pinned" not in sys.modules:
        if not (PINNED / "__init__.py").is_file():
            raise BenchmarkError(f"no pinned reference copy at {PINNED}")
        spec = importlib.util.spec_from_file_location(
            "ikedev_pinned", PINNED / "__init__.py",
            submodule_search_locations=[str(PINNED)])
        package = importlib.util.module_from_spec(spec)
        sys.modules["ikedev_pinned"] = package
        spec.loader.exec_module(package)
    return SimpleNamespace(**{
        layer: importlib.import_module(f"ikedev_pinned.{layer}")
        for layer in LAYERS})


def build(workload_cls, seed: int):
    """One set-up: import ikedev afresh and build the workload's inputs.

    Returns the modules, the workload and the seconds it took.  The garbage
    of earlier set-ups and operations is collected first, untimed, so that
    no set-up pays for it.
    """
    gc.collect()
    start = perf_counter()
    ike = load_ikedev()
    workload = workload_cls(ike, seed)
    return ike, workload, perf_counter() - start


class Run:
    """The samples of one phase of a run, in operation order.

    Given a ``reference`` workload (the same workload on the pinned copy of
    ikedev), each step also performs the reference's operation of the same
    index, before or after the measured one in turn.
    """

    def __init__(self, workload, tracer=None, reference=None):
        self.workload = workload
        self.tracer = tracer
        self.reference = reference
        self.by_kind: dict[str, list[float]] = defaultdict(list)
        self.timeline: list[tuple[float, float]] = []  # primary (end, seconds)
        self.ref_timeline: list[tuple[float, float]] = []  # the reference's
        self.attempted = 0
        self.failed = 0
        self.counters: dict[str, int] = defaultdict(int)
        self.forged = 0
        self.datagrams = 0
        self.digest = hashlib.sha256()

    def step(self) -> None:
        if self.reference is None or self.attempted % 2 == 0:
            self.measured_step()
            self.reference_step()
        else:
            self.reference_step()
            self.measured_step()
        self.attempted += 1

    def reference_step(self) -> None:
        if self.reference is None:
            return
        sample = self.reference.step(self.attempted, None, False)
        if not sample.ok:
            raise BenchmarkError("the pinned reference failed a check")
        if sample.kind in self.workload.primary:
            self.ref_timeline.append((perf_counter(), sample.seconds))

    def measured_step(self) -> None:
        index = self.attempted
        want = index < self.workload.fingerprint_ops
        sample = self.workload.step(index, self.tracer, want)
        self.failed += not sample.ok
        self.by_kind[sample.kind].append(sample.seconds)
        if sample.kind in self.workload.primary:
            self.timeline.append((perf_counter(), sample.seconds))
        for key, value in sample.counters.items():
            self.counters[key] += value
        self.forged += sample.forged
        self.datagrams += sample.datagrams
        if want:
            self.digest.update(hashlib.sha256(sample.output).digest())

    def for_seconds(self, seconds: float, every=None, times: int = 0) -> "Run":
        """Step until ``seconds`` pass; call ``every`` ``times`` times,
        evenly spread."""
        start = perf_counter()
        deadline = start + seconds
        calls = 0
        while (self.attempted < self.workload.fingerprint_ops
               or perf_counter() < deadline):
            self.step()
            if calls < times and perf_counter() >= start + seconds * calls / times:
                every()
                calls += 1
        while calls < times:
            every()
            calls += 1
        return self

    def for_ops(self, ops: int) -> "Run":
        while self.attempted < ops:
            self.step()
        return self

    def primary(self) -> list[float]:
        return [s for kind in self.workload.primary for s in self.by_kind[kind]]

    def ref_ratio(self) -> float:
        """Median over WINDOW_S windows of (median primary operation time /
        median reference operation time) within the window.

        Both medians come from the same seconds and the same mix of work, so
        however the shared machine slows down, it slows both alike.
        """
        start = self.timeline[0][0]
        ops: dict[int, list[float]] = defaultdict(list)
        refs: dict[int, list[float]] = defaultdict(list)
        for series, windows in ((self.timeline, ops), (self.ref_timeline, refs)):
            for end, seconds in series:
                windows[int((end - start) / WINDOW_S)].append(seconds)
        return statistics.median(
            statistics.median(ops[w]) / statistics.median(refs[w])
            for w in ops if w in refs)


def end_to_end(run: Run, setup_s: float) -> dict[str, tuple[float, str]]:
    return {
        "setup_s": (setup_s, "s"),
        "op_ref_ratio_p50": (run.ref_ratio(), "ratio"),
    }


def per_layer(untraced: Run, traced: Run, tracer) -> dict[str, tuple[float, str]]:
    metrics = tracer.layer_metrics()
    decodes = metrics["codec.decode_message.calls"][0]
    c = traced.counters
    metrics.update({
        "codec.decodes_per_datagram": (decodes / traced.datagrams, "ratio"),
        "netsim.datagrams": (traced.datagrams, "count"),
        "protocol.dh_ops": (c["dh_ops"], "count"),
        "protocol.sig_verifies": (c["sig_verifies"], "count"),
        "protocol.decrypt_failures": (c["decrypt_failures"], "count"),
        "protocol.rejected_pre_dh": (c["messages_rejected_pre_dh"], "count"),
        # rejects before DH per forged packet; 0 when nothing was forged
        "protocol.rejected_pre_dh_ratio": (
            c["messages_rejected_pre_dh"] / traced.forged if traced.forged
            else 0.0, "ratio"),
        "trace.overhead_ratio": (
            statistics.median(traced.primary())
            / statistics.median(untraced.primary()), "ratio"),
    })
    return metrics


def environment(seed: int) -> dict:
    def proc(path: str) -> str:
        try:
            return Path(path).read_text()
        except OSError:
            return ""

    cpu = next((line.split(":", 1)[1].strip()
                for line in proc("/proc/cpuinfo").splitlines()
                if line.startswith("model name")), platform.processor())
    try:
        import cryptography
        crypto_version = cryptography.__version__
    except ImportError:
        crypto_version = None
    return {
        "python": platform.python_version(),
        "cryptography": crypto_version,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu or "unknown",
        "loadavg": proc("/proc/loadavg").split()[:3],
        "seed": seed,
    }


def measure(workload_name: str, seed: int, seconds: float, trace: bool,
            trace_ops: int | None = None):
    """Run one workload; return the result document and the tracer."""
    workload_cls = WORKLOADS[workload_name]
    env = environment(seed)
    ike, workload, setup_first = build(workload_cls, seed)
    if not trace:
        setups = [setup_first]
        reference = workload_cls(load_pinned(), seed)
        run = Run(workload, reference=reference).for_seconds(
            seconds, every=lambda: setups.append(build(workload_cls, seed)[2]),
            times=SETUP_REPEATS - 1)
        runs, tracer = [run], None
        metrics = end_to_end(run, statistics.median(setups))
    else:
        ops = trace_ops or workload_cls.trace_ops
        untraced = Run(workload).for_ops(ops)
        tracer = Tracer()
        traced_workload = workload_cls(ike, seed)
        tracer.install({layer: getattr(ike, layer) for layer in LAYERS})
        try:
            traced = Run(traced_workload, tracer).for_ops(ops)
        finally:
            tracer.uninstall()
        runs, metrics = [untraced, traced], per_layer(untraced, traced, tracer)
        run = traced
    attempted = sum(r.attempted for r in runs)
    failed = sum(r.failed for r in runs)
    return {
        "workload": workload_name,
        "trace": int(trace),
        "environment": env,
        "fingerprint": run.digest.hexdigest(),
        "fingerprint_ops": workload_cls.fingerprint_ops,
        "fingerprints_agree": len({r.digest.hexdigest() for r in runs}) == 1,
        "samples": {kind: len(v) for kind, v in sorted(run.by_kind.items())},
        "details": workload_cls.details(run.by_kind),
        "correct": failed == 0 and len({r.digest.hexdigest() for r in runs}) == 1,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }, tracer


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=tuple(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "ikedev" / "__init__.py").is_file():
        print(f"error: no ikedev source tree at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    try:
        doc, tracer = measure(args.workload, args.seed, args.seconds,
                              bool(args.trace))
    except BenchmarkError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if tracer is not None:
        tracer.write(OUT / f"{stem}.spans.jsonl.gz")
    document = {**doc, "metrics": {k: {"value": v, "unit": u}
                                   for k, (v, u) in doc["metrics"].items()}}
    (OUT / f"{stem}.json").write_text(json.dumps(document, indent=2) + "\n")

    print(f"environment: {json.dumps(doc['environment'], sort_keys=True)}")
    print(f"fingerprint: {doc['fingerprint']} (first {doc['fingerprint_ops']} ops)")
    for name, value in doc["details"].items():
        print(f"{name}: {value:.6g}")
    print(json.dumps({key: document[key] for key in
                      ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
