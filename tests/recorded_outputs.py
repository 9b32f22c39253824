"""The default outputs as a recorded gate: the six default CSV bodies and the
twelve acceptance detail lines, kept under ``tests/recorded/``.

A new run passes when every value lies strictly inside the recorded value
plus or minus its recorded bar plus its new bar.  The bar of a value is the
error column beside it; a value without one takes a stated relative
tolerance instead (``BARS``).  Every other field, names, grid points and
flags, must match as text.  A byte difference inside the bars is reported,
not failed, since another BLAS or libm build may round differently.  The
detail lines must match as text, apart from criterion 1's own runtime.

Re-recording is a change of its own kind: it names each value it moves,
and why, in CHANGES.md.  Run it from the repository root, with no names for
every record or with the names of the records a change moves:

    PYTHONPATH=src python tests/recorded_outputs.py [green.csv ... accept.txt]
"""

import contextlib
import csv
import io
import re
import shutil
import sys
import tempfile
from pathlib import Path

RECORD = Path(__file__).resolve().parent / "recorded"
DETAILS = RECORD / "accept.txt"
COMMANDS = ("constants", "interaction-sweep", "green-sweep", "cnc-verify",
            "gauge-verify", "path-profile")
CSVS = ("constants.csv", "interaction.csv", "green.csv", "cnc.csv",
        "gauge.csv", "path.csv")
RECORDS = CSVS + (DETAILS.name,)

# each value column's bar: the error column of its row, or a relative
# tolerance where it has none (the closed-form constants, and the residuals
# of the CNC and gauge checks, which are finite differences)
BARS = {
    "constants.csv": {"value": 1e-15},
    "interaction.csv": {name: f"{name}_err" for name in
                        ("a", "b", "c", "f", "a_prime", "c_prime")},
    "green.csv": {"A_q": "error", "A_q_4t2": "error"},
    "cnc.csv": dict.fromkeys(("R", "Ric", "dR", "sym_dRic"), 1e-5),
    "gauge.csv": dict.fromkeys(("identity_residual", "post_gauge_residual"),
                               1e-5),
    "path.csv": {"Q": "Q_err", "margin": "Q_err"},
}
# rows whose first field starts so take other bars: a slope fit carries its
# rms misfit in f_err and its closed-form target in b, and the parametrix
# exponent, a fit of finite-difference residuals, has no error column
ROW_BARS = {"slope_": {"a": "f_err", "b": 1e-15},
            "parametrix-exponent": {"A_q": 1e-5}}
# a derived column's bar is its base's, scaled by the ratio of the values
DERIVED = {("green.csv", "A_q_4t2"): "A_q"}


def run_commands(out, commands=COMMANDS) -> None:
    """The default commands, in one process, writing to ``out``; what they
    print is dropped."""
    from cyl.cli import main
    for command in commands:
        with contextlib.redirect_stdout(io.StringIO()):
            code = main(["--out", str(out), command])
        if code != 0:
            raise RuntimeError(f"cyl {command} exited {code}")


def _bars(name: str, row: dict) -> dict:
    """The bar of each value column of ``row``."""
    bars = dict(BARS[name])
    first = next(iter(row.values()))
    for prefix, extra in ROW_BARS.items():
        if first.startswith(prefix):
            bars.update(extra)
    return bars


def _width(name: str, column: str, bar: str, row: dict) -> float:
    """The error column ``bar`` of ``row``, scaled for a derived value."""
    width = float(row[bar])
    base = DERIVED.get((name, column))
    if base is not None and float(row[base]) != 0.0:
        width *= abs(float(row[column]) / float(row[base]))
    return width


def compare(name: str, recorded: str, new: str):
    """(failures, moves) of a new CSV body against the recorded one, each a
    list of readable lines; a move is a value that changed inside its
    bars.  An error column is a bar: it bounds its values and may move."""
    old_rows = list(csv.DictReader(io.StringIO(recorded)))
    new_rows = list(csv.DictReader(io.StringIO(new)))
    if (new.splitlines()[:1] != recorded.splitlines()[:1]
            or len(new_rows) != len(old_rows)):
        return [f"{name}: header or row count differs"], []
    failures, moves = [], []
    for i, (old, cur) in enumerate(zip(old_rows, new_rows), start=1):
        bars = _bars(name, old)
        for column, text in old.items():
            if cur[column] == text or column.endswith(("_err", "error")):
                continue
            where = f"{name} row {i} {column}: {text} -> {cur[column]}"
            bar = bars.get(column)
            if bar is None:
                failures.append(f"{where} (compared as text)")
                continue
            a, b = float(text), float(cur[column])
            if isinstance(bar, float):
                tol, what = bar * abs(a), f"relative {bar:g}"
            else:
                tol = (_width(name, column, bar, old)
                       + _width(name, column, bar, cur))
                what = "old plus new bar"
            (moves if a - tol < b < a + tol else failures).append(
                f"{where}, moved {b - a:.3g} against {tol:.3g} ({what})")
    return failures, moves


def detail_line(res) -> str:
    """A criterion's line without its seconds, criterion 1's runtime
    masked."""
    line = re.sub(r" \([0-9.]+s\)$", "", res.line())
    return re.sub(r"runtime [0-9.]+s", "runtime <s>", line)


def recorded_details() -> dict:
    """The recorded detail line of each criterion, by index."""
    lines = DETAILS.read_text(encoding="utf-8").splitlines()
    return {int(line[1:3]): line for line in lines}


def rerecord(names) -> None:
    """Run the commands and criteria behind the named records, print every
    value that moved against the record, then overwrite those records."""
    from cyl.acceptance import run_acceptance
    from cyl.config import RunConfig
    csvs = [name for name in CSVS if name in names]
    with tempfile.TemporaryDirectory() as tmp:
        run_commands(tmp, [COMMANDS[CSVS.index(name)] for name in csvs])
        RECORD.mkdir(exist_ok=True)
        for name in csvs:
            new = Path(tmp, name).read_text(encoding="utf-8")
            old = RECORD / name
            if old.exists():
                failures, moves = compare(
                    name, old.read_text(encoding="utf-8"), new)
                for line in failures + moves:
                    print(line)
            shutil.copyfile(Path(tmp, name), old)
    if DETAILS.name not in names:
        return
    results = run_acceptance(RunConfig(), printer=lambda line: None)
    lines = [detail_line(res) for res in results]
    if DETAILS.exists():
        old = recorded_details()
        for index, line in enumerate(lines, start=1):
            if old.get(index) != line:
                print(f"criterion {index}: {old.get(index)!r} -> {line!r}")
    DETAILS.write_text("\n".join(lines) + "\n", encoding="utf-8")


def main(argv) -> int:
    """Re-record the records named in ``argv``, every record without names;
    an unknown name fails before anything runs."""
    unknown = [name for name in argv if name not in RECORDS]
    if unknown:
        print(f"unknown record {', '.join(unknown)}; the records are "
              f"{', '.join(RECORDS)}", file=sys.stderr)
        return 2
    rerecord(tuple(argv) or RECORDS)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
