"""Command-line behavior: exit codes, renderings, seed resolution."""

import json

import pytest

from conftest import requires_loopback_udp
from ikedev import cli


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# --- handshake ---------------------------------------------------------------

def test_handshake_improved_succeeds(capsys):
    code, out, _ = run_cli(capsys, "handshake", "--variant", "improved")
    assert code == 0
    assert "established: True" in out
    assert "DEV(55)" in out
    assert "skeyid match: True" in out


def test_handshake_baseline_succeeds(capsys):
    code, out, _ = run_cli(capsys, "handshake", "--variant", "baseline")
    assert code == 0
    assert "DEV(55)" not in out
    assert "SA(1)" in out


def test_handshake_on_modp2048(capsys):
    code, out, _ = run_cli(capsys, "handshake", "--group", "modp2048",
                           "--format", "structured")
    assert code == 0
    msg1 = json.loads(out)["message_log"][0]
    assert msg1["size"] > 256


def test_attack_reads_the_group_from_the_scenario_file(capsys, tmp_path):
    path = tmp_path / "flood.json"
    sizes = {}
    for group in ("desk64", "modp2048"):
        path.write_text(json.dumps({
            "name": "flood", "variant": "baseline", "seed": 1,
            "group": group, "handshake": False,
            "adversary": [{"action": "flood", "count": 2}]}))
        code, out, _ = run_cli(capsys, "attack", "--scenario", str(path),
                               "--format", "structured")
        assert code == 0
        sizes[group] = json.loads(out)["message_log"][0]["size"]
    assert sizes["modp2048"] - sizes["desk64"] == 256 - 8


def test_handshake_without_initiator_token_stops(capsys):
    code, out, _ = run_cli(capsys, "handshake", "--variant", "improved",
                           "--no-token", "initiator")
    assert code == 1
    assert "negotiation stopped: no device" in out
    assert "established: False" in out


def test_handshake_without_responder_token_stops(capsys):
    code, out, _ = run_cli(capsys, "handshake", "--no-token", "responder")
    assert code == 1
    assert "negotiation stopped: no device" in out


def test_handshake_no_token_baseline_is_harmless(capsys):
    code, out, _ = run_cli(capsys, "handshake", "--variant", "baseline",
                           "--no-token", "initiator")
    assert code == 0


def test_handshake_unknown_principal_is_config_error(capsys):
    code, _, err = run_cli(capsys, "handshake", "--no-token", "eve")
    assert code == 2
    assert "error:" in err


def test_handshake_structured_output_parses(capsys):
    code, out, _ = run_cli(capsys, "handshake", "--format", "structured")
    assert code == 0
    doc = json.loads(out)
    assert doc["established"] is True
    assert doc["variant"] == "improved"


def test_handshake_seed_changes_transcript(capsys):
    _, out_a, _ = run_cli(capsys, "handshake", "--format", "structured",
                          "--seed", "1")
    _, out_b, _ = run_cli(capsys, "handshake", "--format", "structured",
                          "--seed", "2")
    _, out_a2, _ = run_cli(capsys, "handshake", "--format", "structured",
                           "--seed", "1")
    assert out_a == out_a2
    assert out_a != out_b


def test_seed_env_var_is_honored(capsys, monkeypatch):
    monkeypatch.setenv(cli.SEED_ENV, "12")
    _, out_env, _ = run_cli(capsys, "handshake", "--format", "structured")
    monkeypatch.delenv(cli.SEED_ENV)
    _, out_flag, _ = run_cli(capsys, "handshake", "--format", "structured",
                             "--seed", "12")
    assert out_env == out_flag


def test_bad_seed_env_var_is_config_error(capsys, monkeypatch):
    monkeypatch.setenv(cli.SEED_ENV, "many")
    code, _, err = run_cli(capsys, "handshake")
    assert code == 2
    assert cli.SEED_ENV in err


def test_seed_flag_overrides_env(capsys, monkeypatch):
    monkeypatch.setenv(cli.SEED_ENV, "not-a-number")
    code, _, _ = run_cli(capsys, "handshake", "--seed", "3")
    assert code == 0  # the flag wins before the env var is consulted


# --- attack ------------------------------------------------------------------

def test_attack_runs_shipped_scenarios(capsys):
    code, out, _ = run_cli(capsys, "attack", "--scenario",
                           "scenarios/flood-improved.json")
    assert code == 0
    assert "flood packets: 1000" in out
    assert ("counters[bob]: dh_ops=0, sig_verifies=0, decrypt_failures=1000, "
            "messages_rejected_pre_dh=1000") in out


def test_attack_prints_a_repeated_failure_once_with_its_count(capsys):
    code, out, _ = run_cli(capsys, "attack", "--scenario",
                           "scenarios/flood-improved.json")
    assert code == 0
    failures = [line for line in out.splitlines()
                if line.startswith("failure:")]
    assert failures == ["failure: bob responder_on_msg1: bad-dev (x1000)"]


def test_attack_missing_scenario_file(capsys):
    code, _, err = run_cli(capsys, "attack", "--scenario", "/no/such.json")
    assert code == 2
    assert "error:" in err


def test_attack_malformed_scenario_file(tmp_path, capsys):
    bad = tmp_path / "broken.json"
    bad.write_text('{"variant": "quantum"}')
    code, _, err = run_cli(capsys, "attack", "--scenario", str(bad))
    assert code == 2


def test_attack_string_seed_is_config_error(tmp_path, capsys):
    bad = tmp_path / "string-seed.json"
    bad.write_text('{"seed": "abc"}')
    code, _, err = run_cli(capsys, "attack", "--scenario", str(bad))
    assert code == 2
    assert "error:" in err and "seed" in err
    assert "Traceback" not in err


def test_attack_adversary_that_is_no_array_is_config_error(tmp_path, capsys):
    bad = tmp_path / "adversary-number.json"
    bad.write_text('{"adversary": 5}')
    code, _, err = run_cli(capsys, "attack", "--scenario", str(bad))
    assert code == 2
    assert "error:" in err and "adversary" in err
    assert "Traceback" not in err


def test_attack_unknown_tamper_payload_is_config_error(tmp_path, capsys):
    bad = tmp_path / "unknown-payload.json"
    bad.write_text('{"adversary": [{"action": "tamper", "message": 0, '
                   '"payload": "XYZ"}]}')
    code, _, err = run_cli(capsys, "attack", "--scenario", str(bad))
    assert code == 2
    assert "error:" in err and "XYZ" in err
    assert "Traceback" not in err


def test_attack_seed_flag_overrides_scenario_seed(capsys):
    code, out, _ = run_cli(capsys, "attack", "--scenario",
                           "scenarios/observed-honest.json",
                           "--seed", "99", "--format", "structured")
    assert code == 0
    assert json.loads(out)["seed"] == 99


def test_attack_seed_defaults_to_the_scenario_file_not_the_env(capsys,
                                                              monkeypatch):
    monkeypatch.setenv("IKEDEV_SEED", "99")
    code, out, _ = run_cli(capsys, "attack", "--scenario",
                           "scenarios/observed-honest.json",
                           "--format", "structured")
    assert code == 0
    assert json.loads(out)["seed"] == 7    # the seed written in the file


def test_attack_structured_equals_table_verdicts(capsys):
    _, out_s, _ = run_cli(capsys, "attack", "--scenario",
                          "scenarios/flood-improved.json",
                          "--format", "structured")
    doc = json.loads(out_s)
    _, out_t, _ = run_cli(capsys, "attack", "--scenario",
                          "scenarios/flood-improved.json")
    for key, value in doc["verdicts"].items():
        assert value in out_t


# --- matrix ------------------------------------------------------------------

def test_matrix_matches_expected_and_exits_clean(capsys):
    code, out, _ = run_cli(capsys, "matrix")
    assert code == 0
    assert "matches expected pattern: True" in out
    assert "baseline" in out and "improved" in out
    assert "○" in out and "×" in out


def test_matrix_ascii_rendering(capsys):
    code, out, _ = run_cli(capsys, "matrix", "--ascii")
    assert code == 0
    assert "O" in out and "x" in out
    assert "○" not in out and "×" not in out


@pytest.mark.parametrize("argv", [
    ("handshake",),
    ("attack", "--scenario", "scenarios/observed-honest.json"),
])
def test_ascii_is_a_matrix_only_option(argv):
    with pytest.raises(SystemExit) as exc:
        cli.main([*argv, "--ascii"])
    assert exc.value.code == 2


def test_matrix_structured_document(capsys):
    code, out, _ = run_cli(capsys, "matrix", "--format", "structured")
    assert code == 0
    doc = json.loads(out)
    assert doc["matches_expected"] is True
    assert set(doc["rows"]) == {"baseline", "improved"}
    assert doc["rows"]["improved"]["certificate_storage"] == "device"
    assert doc["seed"] == cli.DEFAULT_SEED


def test_matrix_structured_output_is_not_mostly_flood(capsys):
    # each flood of 1000 packets is one log entry and at most one trace entry
    code, out, _ = run_cli(capsys, "matrix", "--format", "structured",
                           "--seed", "1729")
    assert code == 0
    assert len(out.encode()) < 64 * 1024


def test_matrix_on_modp2048_gives_the_papers_table(capsys):
    code, out, _ = run_cli(capsys, "matrix", "--group", "modp2048",
                           "--format", "structured")
    assert code == 0
    doc = json.loads(out)
    assert doc["rows"] == doc["expected"]
    for reports in doc["reports"].values():
        msg1 = next(m for m in reports[0]["message_log"] if m["kind"] == "msg1")
        assert msg1["size"] > 256   # a 256-byte public value rides in it


def test_matrix_gate_disabled_fails_expectation(capsys):
    code, out, _ = run_cli(capsys, "matrix", "--disable-dos-gate")
    assert code == 1
    assert "matches expected pattern: False" in out


def test_matrix_hidden_flag_absent_from_help(capsys):
    with pytest.raises(SystemExit):
        cli.main(["matrix", "--help"])
    out = capsys.readouterr().out
    assert "--disable-dos-gate" not in out


# --- udp bridge ----------------------------------------------------------------

@requires_loopback_udp
def test_handshake_over_udp(capsys):
    code, out, _ = run_cli(capsys, "handshake", "--udp")
    assert code == 0
    assert "established: True" in out
    _, in_memory, _ = run_cli(capsys, "handshake")
    assert out == "udp handshake (improved)\n" + in_memory


@requires_loopback_udp
def test_udp_structured_output_is_the_scenario_report(capsys):
    _, out, _ = run_cli(capsys, "handshake", "--udp", "--format", "structured")
    _, in_memory, _ = run_cli(capsys, "handshake", "--format", "structured")
    assert out == in_memory
    assert json.loads(out)["scenario"] == "handshake"


@requires_loopback_udp
def test_udp_tokenless_initiator_fails(capsys):
    code, out, _ = run_cli(capsys, "handshake", "--udp",
                           "--no-token", "initiator")
    assert code == 1
    assert "negotiation stopped: no device" in out
