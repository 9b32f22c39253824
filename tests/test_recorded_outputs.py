"""The default outputs against their record: every value inside its old
plus new bar, a byte difference inside the bars reported, and every run
leaving its manifest (see ``recorded_outputs``)."""

import json
from pathlib import Path

import pytest

import recorded_outputs
from cyl.cli import main
from recorded_outputs import CSVS, RECORD, RECORDS, compare


@pytest.mark.parametrize("name", CSVS)
def test_default_csv_lies_inside_the_recorded_bars(default_outputs, name):
    recorded = (RECORD / name).read_text(encoding="utf-8")
    new = (default_outputs / name).read_text(encoding="utf-8")
    failures, moves = compare(name, recorded, new)
    assert not failures, "\n".join(failures)
    if new != recorded:
        print(f"{name} differs from its record inside the bars:")
        print("\n".join(moves))


def test_the_gate_rejects_a_value_two_bars_off():
    # Q at mu = 2.5 moved by two of its bars lies on the edge of the old
    # plus new bar, outside the open interval the gate accepts
    recorded = (RECORD / "path.csv").read_text(encoding="utf-8")
    lines = recorded.splitlines(keepends=True)
    fields = lines[26].split(",")
    assert fields[0] == "2.5"
    q, bar = float(fields[2]), float(fields[3])
    for moved in (q + 2.0 * bar, q - 2.0 * bar):
        fields[2] = repr(moved)
        body = "".join(lines[:26] + [",".join(fields)] + lines[27:])
        failures, _ = compare("path.csv", recorded, body)
        assert len(failures) == 1 and "row 26 Q" in failures[0]
    assert compare("path.csv", recorded, recorded) == ([], [])


def test_every_command_leaves_its_manifest(default_outputs, tmp_path):
    for stem in ("constants", "interaction", "green", "cnc", "gauge", "path"):
        payload = json.loads(
            (default_outputs / f"{stem}.manifest.json").read_text())
        assert payload["config"]["scenario"] == "default", stem
    assert main(["--out", str(tmp_path), "accept", "--only", "1,12"]) == 0
    payload = json.loads((tmp_path / "acceptance.manifest.json").read_text())
    assert list(payload["wall_clock_seconds"]) == ["criterion 1",
                                                   "criterion 12"]


def test_rerecord_takes_the_named_records_or_all(monkeypatch, capsys):
    asked = []
    monkeypatch.setattr(recorded_outputs, "rerecord", asked.append)
    assert recorded_outputs.main(["green.csv"]) == 0
    assert recorded_outputs.main(["accept.txt", "path.csv"]) == 0
    assert recorded_outputs.main([]) == 0
    assert asked == [("green.csv",), ("accept.txt", "path.csv"), RECORDS]
    assert len(RECORDS) == 7
    # an unknown name fails before anything runs
    assert recorded_outputs.main(["green.csv", "greens.csv"]) != 0
    assert len(asked) == 3
    assert "unknown record greens.csv" in capsys.readouterr().err


def test_rerecord_runs_only_the_commands_of_its_records(monkeypatch,
                                                        tmp_path):
    # re-recording green.csv runs green-sweep alone, rewrites that record
    # alone and runs no criterion
    import cyl.acceptance
    record = tmp_path / "recorded"
    record.mkdir()
    for name in RECORDS:
        (record / name).write_bytes((RECORD / name).read_bytes())
    monkeypatch.setattr(recorded_outputs, "RECORD", record)
    monkeypatch.setattr(recorded_outputs, "DETAILS", record / "accept.txt")
    ran = []

    def fake(out, commands):
        ran.extend(commands)
        Path(out, "green.csv").write_text("model\n")

    def no_criteria(*args, **kwargs):
        raise AssertionError("a criterion ran")

    monkeypatch.setattr(recorded_outputs, "run_commands", fake)
    monkeypatch.setattr(cyl.acceptance, "run_acceptance", no_criteria)
    recorded_outputs.rerecord(("green.csv",))
    assert ran == ["green-sweep"]
    for name in RECORDS:
        expect = "model\n" if name == "green.csv" else \
            (RECORD / name).read_text(encoding="utf-8")
        assert (record / name).read_text(encoding="utf-8") == expect, name
