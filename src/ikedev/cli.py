"""Command-line driver.

Three subcommands:

* ``handshake`` — run one phase-1 exchange (in memory, or over loopback
  UDP with ``--udp``) and print the message ladder.
* ``attack``    — run one adversary scenario from a JSON file and print
  counters plus the failure trace.
* ``matrix``    — run the fixed four-scenario battery for both variants
  and render the two-row comparison table.

Exit codes are a stable CI contract: 0 success/match, 1 protocol-level
failure or matrix mismatch, 2 usage or configuration error.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys

from . import crypto, netsim
from .codec import PayloadType
from .errors import ConfigError, IkeDevError
from .netsim import (
    EXPECTED_VERDICTS,
    TABLE_COLUMNS,
    PrincipalConfig,
    ScenarioConfig,
    run_matrix,
    run_scenario,
)
from .protocol import Role, Variant

DEFAULT_SEED = 1729
SEED_ENV = "IKEDEV_SEED"

COLUMN_TITLES = {
    "sa_ke_protection": "SA/KE protection",
    "cert_sig_protection": "CERT/SIG protection",
    "dos_prevention": "DoS prevention",
    "certificate_storage": "Certificate storage",
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ikedev",
        description="Phase-1 aggressive-mode handshakes, with and without "
                    "a security-key gate, under an adversarial simulator.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser,
               seed_default: str = f"${SEED_ENV} or {DEFAULT_SEED}") -> None:
        p.add_argument("--seed", type=int, default=None,
                       help=f"simulation seed (default {seed_default})")
        p.add_argument("--format", choices=("table", "structured"),
                       default="table", help="output rendering")

    def group(p: argparse.ArgumentParser) -> None:
        p.add_argument("--group", choices=sorted(crypto.GROUPS),
                       default=crypto.DESK_GROUP.name,
                       help="Diffie-Hellman group (default %(default)s)")

    p_hs = sub.add_parser("handshake", help="run one handshake")
    common(p_hs)
    group(p_hs)
    p_hs.add_argument("--variant", choices=("baseline", "improved"),
                      default="improved")
    p_hs.add_argument("--no-token", metavar="PRINCIPAL", action="append",
                      default=[],
                      help="strip the device from this principal "
                           "(initiator, responder, or a principal name)")
    p_hs.add_argument("--udp", action="store_true",
                      help="exchange the same bytes over loopback datagrams")

    p_at = sub.add_parser("attack", help="run one adversary scenario")
    common(p_at, seed_default="the scenario file's seed")
    p_at.add_argument("--scenario", required=True, metavar="PATH",
                      help="scenario JSON file")

    p_mx = sub.add_parser("matrix", help="run the comparison battery")
    common(p_mx)
    group(p_mx)
    p_mx.add_argument("--ascii", action="store_true",
                      help="render O/x instead of the ○/× glyphs")
    p_mx.add_argument("--disable-dos-gate", action="store_true",
                      help=argparse.SUPPRESS)
    return parser


def _resolve_seed(args: argparse.Namespace) -> int:
    if args.seed is not None:
        return args.seed
    raw = os.environ.get(SEED_ENV)
    if raw is None:
        return DEFAULT_SEED
    try:
        return int(raw)
    except ValueError:
        raise ConfigError(f"${SEED_ENV} must be an integer, got {raw!r}") from None


def _glyph(verdict: str, ascii_only: bool) -> str:
    glyphs = {"supported": "O", "not-supported": "x"} if ascii_only else \
        {"supported": "○", "not-supported": "×"}
    return glyphs.get(verdict, verdict)


def _emit(text: str) -> None:
    try:
        print(text)
    except UnicodeEncodeError:
        enc = sys.stdout.encoding or "utf-8"
        print(text.encode(enc, "replace").decode(enc))


def _print_structured(document: dict) -> None:
    _emit(json.dumps(document, indent=2, sort_keys=True))


def _print_ladder(report: netsim.ScenarioReport) -> None:
    for entry in report.message_log:
        parts = [f"{p}({int(PayloadType[p])})" for p in entry["payloads"]]
        if entry["blob_bytes"]:
            parts.append(f"[encrypted chain {entry['blob_bytes']} B]")
        route = f"{entry['src']} -> {entry['dst']}"
        _emit(f"{entry['kind']:>5}  {route:<16} {entry['size']:>4} B  "
              f"{', '.join(parts)}")


def _print_counters(report: netsim.ScenarioReport) -> None:
    for name, counters in report.principal_counters.items():
        fields = ", ".join(f"{k}={v}" for k, v in counters.items())
        _emit(f"counters[{name}]: {fields}")
    for event in report.failure_trace:
        line = f"failure: {event['principal']} {event['op']}: {event['failure']}"
        _emit(line if event["count"] == 1 else f"{line} (x{event['count']})")


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def cmd_handshake(args: argparse.Namespace) -> int:
    seed = _resolve_seed(args)
    variant = Variant(args.variant)
    aliases = {"initiator": "alice", "responder": "bob"}
    stripped = {aliases.get(n, n) for n in args.no_token}
    unknown = stripped - {"alice", "bob"}
    if unknown:
        raise ConfigError(f"unknown principal(s) for --no-token: "
                          f"{sorted(unknown)}")

    config = ScenarioConfig(
        name="handshake", variant=variant, seed=seed,
        principals=(
            PrincipalConfig("alice", Role.INITIATOR,
                            token="alice" not in stripped),
            PrincipalConfig("bob", Role.RESPONDER,
                            token="bob" not in stripped),
        ),
        group=args.group)
    report = run_scenario(config, udp=args.udp)
    if args.format == "structured":
        _print_structured(report.to_dict())
    else:
        if args.udp:
            _emit(f"udp handshake ({variant.value})")
        _print_ladder(report)
        _emit(f"established: {report.established}  "
              f"skeyid match: {report.skeyid_match}")
        _print_counters(report)
        if any(e["failure"] == "no device" for e in report.failure_trace):
            _emit("negotiation stopped: no device")
    return 0 if report.established and report.skeyid_match else 1


def cmd_attack(args: argparse.Namespace) -> int:
    scenario = netsim.load_scenario(args.scenario)
    if args.seed is not None:
        scenario = dataclasses.replace(scenario, seed=args.seed)
    report = run_scenario(scenario)
    if args.format == "structured":
        _print_structured(report.to_dict())
        return 0
    _emit(f"scenario {report.scenario!r} ({report.variant}, seed {report.seed})")
    if report.flood_sent:
        _emit(f"flood packets: {report.flood_sent}")
    if report.established is not None:
        _emit(f"established: {report.established}  "
              f"skeyid match: {report.skeyid_match}")
    _print_counters(report)
    for key, value in report.verdicts.items():
        _emit(f"verdict[{COLUMN_TITLES[key]}]: {value}")
    return 0


def cmd_matrix(args: argparse.Namespace) -> int:
    seed = _resolve_seed(args)
    result = run_matrix(seed, disable_dos_gate=args.disable_dos_gate,
                        group=args.group)
    matches = all(row["matches_expected"] for row in result.values())
    if args.format == "structured":
        _print_structured({
            "seed": seed,
            "expected": EXPECTED_VERDICTS,
            "rows": {variant: row["verdicts"]
                     for variant, row in result.items()},
            "reports": {variant: [r.to_dict() for r in row["reports"]]
                        for variant, row in result.items()},
            "matches_expected": matches,
        })
        return 0 if matches else 1

    titles = [COLUMN_TITLES[c] for c in TABLE_COLUMNS]
    widths = [max(len(t), 13) for t in titles]
    header = "variant   " + "  ".join(map(str.ljust, titles, widths))
    _emit(header)
    _emit("-" * len(header))
    for variant, row in result.items():
        cells = [_glyph(row["verdicts"][column], args.ascii).ljust(width)
                 for column, width in zip(TABLE_COLUMNS, widths)]
        _emit(f"{variant:<9} " + "  ".join(cells))
    _emit(f"matches expected pattern: {matches}")
    return 0 if matches else 1


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    handlers = {"handshake": cmd_handshake, "attack": cmd_attack,
                "matrix": cmd_matrix}
    try:
        return handlers[args.command](args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        return 1
    except (IkeDevError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
