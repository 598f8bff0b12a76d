"""The timing tools in ``tools/`` run against this tree.

``tools/matrix_parts.py`` wraps names that ikedev keeps private
(``netsim._forged_msg1``, ``Principal.new_session``,
``HandshakeSession.responder_on_msg1`` and ``protocol.device_decrypt``; its
floor rows sign and open under keys the tool draws itself), so a change to
one of them would break a tool that no other test runs.  These checks load
this tree the way the tool does and run a few packets through each of its
rows, with its packet count cut down.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

from ikedev import netsim

TOOLS = Path(__file__).resolve().parent.parent / "tools"
PACKAGE = "ikedev_tools_smoke"

_spec = importlib.util.spec_from_file_location(
    "matrix_parts", TOOLS / "matrix_parts.py")
matrix_parts = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(matrix_parts)


@pytest.fixture
def ike():
    """This tree loaded through ``matrix_parts.load``, with its package
    taken out of ``sys.modules`` afterwards."""
    yield matrix_parts.load(matrix_parts.ROOT / "src", PACKAGE)
    for name in [n for n in sys.modules if n.split(".")[0] == PACKAGE]:
        del sys.modules[name]


@pytest.mark.parametrize("variant, group", matrix_parts.ROWS)
def test_matrix_parts_splits_a_flood_packet_on_each_row(
        ike, monkeypatch, variant, group):
    monkeypatch.setattr(matrix_parts, "PACKETS", 4)
    clocked = matrix_parts.clocked
    sim, protocol = ike["netsim"], ike["protocol"]
    variant = protocol.Variant(variant)
    improved = variant is protocol.Variant.IMPROVED
    # The tool's wrappers wrap these, so each mark here lies inside the
    # tool's marks for the same call.
    forge, decode, session, step, key1, dh = [], [], [], [], [], []
    with (clocked(sim, "_forged_msg1", forge),
          clocked(ike["codec"], "decode_message", decode),
          clocked(sim.Principal, "new_session", session),
          clocked(protocol.HandshakeSession, "responder_on_msg1", step),
          clocked(protocol, "device_decrypt", key1),
          clocked(ike["crypto"], "dh_keypair", dh)):
        parts = matrix_parts.flood_parts(ike, variant, group)
    # Each row gets one floor row, the crypto it cannot skip, timed with no
    # ikedev code around it: the baseline responder's sign, pow and
    # seeding, and the improved packet's three AES-GCM calls.
    floor = "aes_floor" if improved else "crypto_floor"
    assert set(parts) == {"forge", "transmit", "decode", "session",
                          "responder", "drain", "total", floor,
                          *(("key1_open",) if improved else ())}
    assert all(us >= 0 for us in parts.values())
    assert parts[floor] > 0
    # Each packet is decoded once, inside the span the tool calls
    # ``transmit``: after its forge ends, before its session opens.  An
    # improved packet's key1 open lies inside its responder step, and a
    # gate-on improved responder makes no DH keypair.
    packets = matrix_parts.PACKETS
    assert len(decode) == len(forge) == len(session) == len(step) == 2 * packets
    assert len(key1) == 2 * packets * improved
    assert len(dh) == 2 * packets * (not improved)
    for i in range(packets):
        assert forge[2 * i + 1] <= decode[2 * i]
        assert decode[2 * i + 1] <= session[2 * i]
        if improved:
            assert step[2 * i] <= key1[2 * i]
            assert key1[2 * i + 1] <= step[2 * i + 1]


def test_matrix_parts_refuses_a_gated_responder_that_pays_dh(ike, monkeypatch):
    # Every session opened with the gate off: the improved responder pays
    # its DH keypair before the gate turns the forged packet away.
    monkeypatch.setattr(matrix_parts, "PACKETS", 2)
    principal = ike["netsim"].Principal
    new_session = principal.new_session
    monkeypatch.setattr(
        principal, "new_session",
        lambda self, variant, seed, group, gate_off=False:
            new_session(self, variant, seed, group, True))
    with pytest.raises(SystemExit) as exit_:
        matrix_parts.flood_parts(ike, ike["protocol"].Variant.IMPROVED,
                                 "desk64")
    assert "paid DH" in str(exit_.value.code)


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
