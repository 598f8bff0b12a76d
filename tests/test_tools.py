"""The timing tools in ``tools/`` run against this tree.

``tools/gate_parts.py`` and ``tools/matrix_parts.py`` reach private names of
ikedev (``build_principals``, ``_deployment``, ``_forged_msg1``,
``Principal.new_session`` and ``HandshakeSession._record``; their floor
rows sign and open under keys the tools draw themselves), so a change to
one of them would break a tool that no other test runs.  These checks load
this tree the way the tools do and run a few packets through each, with
the tools' packet counts cut down.
"""

import importlib
import sys
from pathlib import Path

import pytest

from ikedev import netsim

TOOLS = Path(__file__).resolve().parent.parent / "tools"
PACKAGE = "ikedev_tools_smoke"


@pytest.fixture
def tools(monkeypatch):
    """``gate_parts``, ``matrix_parts`` and this tree loaded through
    ``gate_parts.load``, with its package taken out of ``sys.modules``
    afterwards."""
    monkeypatch.syspath_prepend(str(TOOLS))
    gate_parts = importlib.import_module("gate_parts")
    matrix_parts = importlib.import_module("matrix_parts")
    ike = gate_parts.load(gate_parts.ROOT / "src", PACKAGE)
    yield gate_parts, matrix_parts, ike
    for name in [n for n in sys.modules if n.split(".")[0] == PACKAGE]:
        del sys.modules[name]


def test_gate_parts_times_each_part_of_a_gated_reject(tools, monkeypatch):
    gate_parts, _, ike = tools
    monkeypatch.setattr(gate_parts, "PACKETS", 3)
    tree = gate_parts.Tree("this", ike)
    ns = {part: [] for part in gate_parts.PARTS}
    for wire in tree.packets:
        tree.step(wire, ns)   # exits if the responder answers or pays DH
    assert {part: len(spent) for part, spent in ns.items()} == {
        part: 3 for part in gate_parts.PARTS}


def test_matrix_parts_splits_a_flood_packet_in_each_variant(tools, monkeypatch):
    _, matrix_parts, ike = tools
    monkeypatch.setattr(matrix_parts, "PACKETS", 4)
    clocked = matrix_parts.clocked
    Variant = ike["protocol"].Variant
    for variant in Variant:
        # The tool's wrappers wrap these, so each mark here lies inside the
        # tool's marks for the same call.
        forge, decode, session = [], [], []
        with (clocked(ike["netsim"], "_forged_msg1", forge),
              clocked(ike["codec"], "decode_message", decode),
              clocked(ike["netsim"].Principal, "new_session", session)):
            parts = matrix_parts.flood_parts(ike, variant)
        # Each packet gets one floor row, the crypto it cannot skip, timed
        # with no ikedev code around it: the baseline responder's sign, pow
        # and seeding, and the improved packet's three AES-GCM calls.
        floor = ("crypto_floor" if variant is Variant.BASELINE
                 else "aes_floor")
        assert set(parts) == {*matrix_parts.PARTS, "total", floor}
        assert all(us >= 0 for us in parts.values())
        assert parts[floor] > 0
        # Each packet is decoded once, inside the span the tool calls
        # ``transmit``: after its forge ends, before its session opens.
        packets = matrix_parts.PACKETS
        assert len(decode) == len(forge) == len(session) == 2 * packets
        for i in range(packets):
            assert forge[2 * i + 1] <= decode[2 * i]
            assert decode[2 * i + 1] <= session[2 * i]


def test_report_digest_refuses_a_tree_without_scenarios(tmp_path, monkeypatch):
    # A digest without the scenario part would pass for a whole one.  The
    # battery is cut to nothing, so a tool that goes on returns at once.
    monkeypatch.syspath_prepend(str(TOOLS))
    report_digest = importlib.import_module("report_digest")
    monkeypatch.setattr(report_digest, "ROOT", tmp_path)
    monkeypatch.setattr(netsim, "battery_configs", lambda *args: [])
    with pytest.raises(SystemExit) as exit_:
        report_digest.main()
    assert str(tmp_path / "scenarios") in str(exit_.value.code)
