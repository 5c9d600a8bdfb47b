"""Golden CLI reports: `cli.main` must reproduce the stored stdout and exit
code of every case in a fixed matrix of commands, formats and splitting
ratios, byte for byte.

The stored reports are the behaviour to preserve through refactors.  A
change that alters one on purpose rewrites the file with

    PYTHONPATH=src python tests/test_golden.py

and argues every changed report in CHANGES.md.  The ratio 0.99999999999
freezes the spurious `consistent` verdict of F_B (ROADMAP item "Verdicts
that know their resolution").
"""

from __future__ import annotations

import contextlib
import io
import json
from pathlib import Path

import pytest

from qhistories.cli import main
from qhistories.mzi import NamedFamilyId

GOLDEN = Path(__file__).resolve().parent / "golden" / "cli.json"

ALPHA2 = ("0.001", "0.25", "0.3333333333333333", "0.5", "0.999", "0.99999999999")
FORMATS = ("text", "csv")
INFER_CHANNELS = ("A", "B", "C", "D", "E", "H", "B+C")
PROBE_SETS = (
    (),
    ("--probes", "a,d,b,e,w"),
    ("--probes", "a,d,b,c,e,w"),
    ("--probes", "d,w"),
)


def cases() -> list[list[str]]:
    heads: list[list[str]] = []
    for fam in NamedFamilyId:
        heads += [["consistency", fam.name], ["probs", fam.name]]
    heads += [
        ["infer", f"t{t}", ch, "--given", "F"]
        for t in (1, 2, 3)
        for ch in INFER_CHANNELS
    ]
    heads += [
        ["weak-values"],
        ["paper-suite"],
        ["paper-suite", "--epsilon", "0.2"],
        ["paper-suite", "--epsilon", "1e-8"],
        ["paper-suite", "--tolerance", "0"],
    ]
    heads += [
        [cmd, *probes]
        for cmd in ("probes", "coincidences", "sample")
        for probes in PROBE_SETS
    ]
    return [
        [*head, "--alpha2", a2, "--format", fmt]
        for head in heads
        for a2 in ALPHA2
        for fmt in FORMATS
    ]


def run(argv: list[str]) -> dict:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    return {"argv": argv, "exit": code, "stdout": out.getvalue()}


def _load() -> dict[str, dict]:
    with open(GOLDEN, encoding="utf-8") as fh:
        return {" ".join(rec["argv"]): rec for rec in json.load(fh)}


_STORED = _load() if GOLDEN.exists() else {}


def test_matrix_matches_stored_cases():
    assert sorted(_STORED) == sorted(" ".join(argv) for argv in cases())


@pytest.mark.parametrize("command", sorted({rec["argv"][0] for rec in _STORED.values()}))
def test_reports_are_byte_identical(command):
    changed = []
    for key, want in _STORED.items():
        if want["argv"][0] != command:
            continue
        got = run(want["argv"])
        if (got["exit"], got["stdout"]) != (want["exit"], want["stdout"]):
            changed.append(key)
    assert not changed, f"{len(changed)} reports changed, first: {changed[0]}"


if __name__ == "__main__":
    GOLDEN.parent.mkdir(exist_ok=True)
    records = [run(argv) for argv in cases()]
    with open(GOLDEN, "w", encoding="utf-8") as fh:
        json.dump(records, fh, indent=1)
        fh.write("\n")
    print(f"wrote {len(records)} cases to {GOLDEN}")
