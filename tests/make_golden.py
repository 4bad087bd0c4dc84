"""Write tests/golden_stdout.json, the pinned stdout and exit status of the CLI.

Run from the repository root:

    PYTHONPATH=src python tests/make_golden.py

Each invocation runs through `cli.main` in process.  Only `wall_time_ms` is
masked (the CSV column, found by its header position, and the JSON key); every
other byte of stdout is pinned.  Regenerating the file is a change of the
output contract: review its diff line by line.
"""

from __future__ import annotations

import contextlib
import io
import json
import pathlib
import re

from clonebench import cli

GOLDEN = pathlib.Path(__file__).with_name("golden_stdout.json")

# The M ~ 10^5 values print wrong 10th significant digits today (ROADMAP
# item 2): f_clon(2, 100000) prints 0.00735284248841 while the exact value is
# 0.007352842489618.  They are pinned as printed, so a digit fix shows up as a
# reviewed golden diff.
_LARGE_M = "10th-digit error at M ~ 10^5 pinned as printed (ROADMAP item 2)"


def _formats(argv, formats=("plain", "csv", "json")):
    return [[*argv, "--format", fmt] for fmt in formats]


def _sweeps(family):
    base = ["sweep", "--family", family, "--n", "1,2", "--m", "2,3,4,5,16"]
    return [
        *_formats([*base, "--grid", "1,2,4,8,16"], ("csv", "json")),  # holds lambda = 1
        *_formats([*base, "--grid", "2,4,8"], ("csv", "json")),  # no lambda = 1
        *_formats([*base, "--lambda-rule", "0.5"], ("csv", "json")),
    ]


INVOCATIONS = [
    *([argv, None] for argv in _sweeps("qubit")),
    *([argv, None] for argv in _sweeps("entangled")),
    *([argv, _LARGE_M] for argv in _formats(
        ["sweep", "--n", "1,2", "--m", "100001,100000", "--lambda-rule", "0.5"],
        ("csv", "json"))),
    [["sweep", "--n", "2", "--m", "100000", "--grid", "1,256"], _LARGE_M],  # f_naive too
    *([argv, None] for argv in _formats(
        ["sweep", "--n", "5", "--m", "1,3", "--grid", "1"], ("csv", "json"))),
    [["sweep", "--n", "4,2,2", "--m", "64,16", "--grid", "1"], None],
    [["sweep", "--family", "entangled", "--n", "2", "--m", "4096", "--grid", "1"], None],
    # Across the window's cut: lambda = 1 keeps 453 of the 2049 labels of M = 4096.
    [["mp-fidelity", "--family", "entangled", "--n", "64", "--m", "4096", "--lambda", "1",
      "--format", "json"], None],
    [["sweep", "--family", "entangled", "--n", "63", "--m", "4097", "--grid", "1,4,16"], None],
    [["sweep", "--n", "2", "--m", "16", "--grid", "1,64"], None],  # clamped cutoff
    [["sweep", "--n", "2", "--m", "", "--grid", "1"], None],  # header only
    *([argv, None] for argv in _formats(["clone-fidelity", "--n", "1", "--m", "3"])),
    *([argv, None] for argv in _formats(
        ["clone-fidelity", "--family", "entangled", "--n", "2", "--m", "4"])),
    *([argv, None] for argv in _formats(
        ["clone-fidelity", "--family", "entangled", "--n", "4", "--m", "1024"])),
    *([argv, _LARGE_M] for argv in _formats(["clone-fidelity", "--n", "2", "--m", "100000"])),
    *([argv, None] for argv in _formats(
        ["mp-fidelity", "--n", "2", "--m", "16", "--lambda", "4"])),
    *([argv, None] for argv in _formats(
        ["mp-fidelity", "--family", "entangled", "--n", "48", "--m", "2048", "--lambda", "16"])),
    *([argv, _LARGE_M] for argv in _formats(
        ["mp-fidelity", "--n", "2", "--m", "100000", "--lambda", "256"])),
    *([argv, None] for argv in _formats(["optimize-prep", "--n", "2", "--m", "16"])),
    # `support` is the solver window; ROADMAP item 5 may change it.
    *([argv, _LARGE_M] for argv in _formats(["optimize-prep", "--n", "1", "--m", "100001"])),
    [["optimize-prep", "--n", "1", "--m", "1", "--tol", "0"], None],  # exit 2
    *([argv, None] for argv in _formats(
        ["appendix-check", "--n", "2", "--lambda", "8", "--m", "128,256,512"], ("csv", "json"))),
    [["oracle-check"], None],
    [["oracle-check", "--nodes", "40"], None],
    [["oracle-check", "--nodes", "1001"], None],
    [["oracle-check", "--nodes", "2"], None],
    [["oracle-check", "--nodes", "0"], None],
    [["oracle-check", "--tol", "1e-30"], None],
    [["oracle-check", "--tol", "-nan"], None],
    [["mp-fidelity", "--n", "2", "--m", "4", "--lambda", "nan"], None],
    [["sweep", "--n", "2", "--m", "4", "--grid", "nan"], None],
    [["clone-fidelity", "--family", "ghz", "--n", "1", "--m", "1"], None],
    [["mp-fidelity", "--n", "2", "--m", "4", "--lambda", "-1e-3"], None],
    [["mp-fidelity", "--n", "2", "--m", str(10**14)], None],  # fatal: out of memory
    [["mp-fidelity", "--family", "entangled", "--n", "2", "--m", str(10**10)], None],  # window
    [["mp-fidelity", "--family", "entangled", "--n", "2", "--m", str(10**10),
      "--lambda", "100"], None],  # the evaluator
    [["clone-fidelity", "--n", "4", "--m", "2"], None],
    [["frobnicate"], None],
    [["optimize-prep", "--n", "1", "--m", "1", "--tol", "-1"], None],
    [["sweep", "--n", "1", "--m", "1", "--grid", "1", "--lambda-rule", "0.5"], None],
    [["sweep", "--n", "1", "--m", "1", "--grid", "1", "--out", "/nonexistent-dir/report.csv"], None],
]


def mask(stdout: str) -> str:
    """Replace every wall_time_ms value with `*`: the CSV column and the JSON key."""
    lines = stdout.split("\n")
    header = lines[0].split(",")
    if "wall_time_ms" in header:
        column = header.index("wall_time_ms")
        for index, line in enumerate(lines[1:], start=1):
            if line:
                cells = line.split(",")
                cells[column] = "*"
                lines[index] = ",".join(cells)
    return re.sub(r'("wall_time_ms": )[^,\n}]+', r'\1"*"', "\n".join(lines))


def run(argv) -> tuple[int, str]:
    """Exit status and masked stdout of one in-process CLI invocation."""
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer), contextlib.redirect_stderr(io.StringIO()):
        status = cli.main(list(argv))
    return status, mask(buffer.getvalue())


def main() -> None:
    entries = []
    for argv, note in INVOCATIONS:
        status, stdout = run(argv)
        entry = {"argv": argv, "exit": status, "stdout": stdout.split("\n")}
        if note:
            entry["note"] = note
        entries.append(entry)
    # One argv per line and one stdout line per line, so a contract change diffs line by line.
    blocks = []
    for entry in entries:
        head = json.dumps({key: value for key, value in entry.items() if key != "stdout"})
        body = ",\n".join(f"  {json.dumps(line)}" for line in entry["stdout"])
        blocks.append(f' {head[:-1]}, "stdout": [\n{body}\n ]}}')
    GOLDEN.write_text("[\n" + ",\n".join(blocks) + "\n]\n", encoding="utf-8")
    print(f"wrote {len(entries)} invocations to {GOLDEN}")


if __name__ == "__main__":
    main()
