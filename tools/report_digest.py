"""Print the report digest and the wire digest of this checkout.

A refactor that claims to change no behaviour must leave both unchanged.

* Report digest: SHA-256 over ``ScenarioReport.to_json()`` of, in order,
  seeds 0-99 x variant (baseline, improved) x ``disable_dos_gate``
  (False, True) x ``battery_configs``, then every ``scenarios/*.json``
  (sorted by name) x seeds 0-19.
* Wire digest: SHA-256 over every ``codec.encode_message`` return during
  the battery part.
* Baseline wire digest: the same over the baseline variant's runs alone, so
  a change to improved wire bytes can show that no baseline byte moved.

Run from anywhere; it imports ikedev from this checkout's ``src/``:

    python3 tools/report_digest.py

It takes about 33 s on a 2-vCPU Xeon.  With no ``scenarios/*.json`` it exits
1 before running anything, rather than print a digest that leaves them out.
"""

import dataclasses
import hashlib
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from ikedev import codec, netsim  # noqa: E402
from ikedev.protocol import Variant  # noqa: E402


def main() -> None:
    scenarios = sorted((ROOT / "scenarios").glob("*.json"))
    if not scenarios:
        sys.exit(f"error: no *.json in {ROOT / 'scenarios'}; "
                 "the digest would leave the scenarios out")
    reports = hashlib.sha256()
    wire = hashlib.sha256()
    baseline_wire = hashlib.sha256()
    encode = codec.encode_message
    variant = None

    def hashed_encode(msg):
        data = encode(msg)
        wire.update(data)
        if variant is Variant.BASELINE:
            baseline_wire.update(data)
        return data

    codec.encode_message = hashed_encode
    try:
        for seed in range(100):
            for variant in (Variant.BASELINE, Variant.IMPROVED):
                for gate_off in (False, True):
                    for cfg in netsim.battery_configs(variant, seed, gate_off):
                        reports.update(netsim.run_scenario(cfg).to_json())
    finally:
        codec.encode_message = encode
    for path in scenarios:
        for seed in range(20):
            cfg = dataclasses.replace(netsim.load_scenario(str(path)), seed=seed)
            reports.update(netsim.run_scenario(cfg).to_json())
    print(f"report digest {reports.hexdigest()}")
    print(f"wire digest   {wire.hexdigest()}")
    print(f"baseline wire digest {baseline_wire.hexdigest()}")


if __name__ == "__main__":
    main()
