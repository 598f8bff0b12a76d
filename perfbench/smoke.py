"""Smoke check of the benchmark itself, at tiny size (about half a minute).

    python3 perfbench/smoke.py

For every workload it checks that an untraced run emits each end-to-end
metric of BENCHMARK.json with its unit, that a traced run emits each
per-layer metric with its unit, that the span tree is well formed (every
parent recorded, children inside their parents and in the same operation,
self time >= 0), and that the fingerprint and the ``protocol.*`` counters
repeat exactly for the same seed.  Exits 1 listing what failed.
"""

from __future__ import annotations

import json
import sys

import run
from workloads import WORKLOADS

TINY_TRACE_OPS = {"matrix": 1, "handshake": 8,
                  "flood-modp2048": WORKLOADS["flood-modp2048"].ROUND_LEN,
                  "accept-modp2048": 8}
SEED = 3

failures: list[str] = []


def check(condition: bool, message: str) -> None:
    if not condition:
        failures.append(message)


def check_metrics(where: str, metrics: dict, expected: list[dict]) -> None:
    for spec in expected:
        got = metrics.get(spec["name"])
        check(got is not None, f"{where}: {spec['name']} missing")
        if got is not None:
            check(got[1] == spec["unit"],
                  f"{where}: {spec['name']} unit {got[1]!r}, "
                  f"expected {spec['unit']!r}")
    extra = set(metrics) - {spec["name"] for spec in expected}
    check(not extra, f"{where}: metrics not in BENCHMARK.json: {sorted(extra)}")


def check_spans(where: str, tracer) -> None:
    spans = {span[0]: span for span in tracer.spans}
    check(len(spans) == len(tracer.spans), f"{where}: duplicate span ids")
    for span, own in zip(tracer.spans, tracer.self_times()):
        sid, parent, op, name, start, end, _ = span
        check(start <= end, f"{where}: span {sid} {name} ends before it starts")
        check(own >= 0, f"{where}: span {sid} {name} self time {own} < 0")
        if parent is None:
            check(name.startswith("op."), f"{where}: root span {sid} is {name}")
            continue
        up = spans.get(parent)
        check(up is not None, f"{where}: span {sid} has unrecorded parent")
        if up is not None:
            check(up[4] <= start and end <= up[5],
                  f"{where}: span {sid} {name} outside parent {up[3]}")
            check(up[2] == op, f"{where}: span {sid} op id differs from parent")


def main() -> int:
    bench = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    sys.path.insert(0, str(run.SRC))
    for name in WORKLOADS:
        plain, _ = run.measure(name, SEED, seconds=0.5, trace=False)
        check(plain["correct"] and plain["failed"] == 0,
              f"{name}: untraced run not correct")
        check_metrics(f"{name} untraced", plain["metrics"], bench["end_to_end"])
        check(all(v > 0 for v, _ in plain["metrics"].values()),
              f"{name}: an end-to-end metric is not positive")

        traced = [run.measure(name, SEED, seconds=0.5, trace=True,
                              trace_ops=TINY_TRACE_OPS[name]) for _ in range(2)]
        for doc, tracer in traced:
            check(doc["correct"] and doc["fingerprints_agree"],
                  f"{name}: traced run not correct or fingerprints differ")
            check_metrics(f"{name} traced", doc["metrics"], bench["per_layer"])
            check_spans(name, tracer)
        docs = [doc for doc, _ in traced]
        check(docs[0]["fingerprint"] == docs[1]["fingerprint"],
              f"{name}: fingerprint differs between runs of one seed")
        counters = [{k: v for k, v in doc["metrics"].items()
                     if k.startswith("protocol.") and not k.endswith("_us")}
                    for doc in docs]
        check(counters[0] == counters[1],
              f"{name}: protocol counters differ between runs of one seed")
        print(f"{name}: checked", flush=True)
    for failure in failures:
        print(f"FAIL {failure}", file=sys.stderr)
    print("smoke check", "failed" if failures else "passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
