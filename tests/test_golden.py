"""The CLI output contract: stdout and exit status, byte for byte.

Every invocation in golden_stdout.json is replayed through `cli.main` in
process; only `wall_time_ms` is masked (see make_golden.mask).  The file is
written by make_golden.py, and any edit to it is a change of the contract.

The `oracle-check` gap digits (e.g. `2.945e-14` for the character-integral
stage) are summation noise of the quadrature's Gram products, so they depend on
the BLAS kernel and its thread count.  The file was written with the OpenBLAS
default on two CPUs; with OPENBLAS_NUM_THREADS=1 the `--nodes 1001`
character-integral gap reads 1.243e-14 instead of 1.227e-14, and every other
line is unchanged.  Where such a line differs, the cause is the BLAS, not the
program.
"""

import json

import pytest

from make_golden import GOLDEN, run

ENTRIES = json.loads(GOLDEN.read_text(encoding="utf-8"))


@pytest.mark.parametrize("entry", ENTRIES, ids=[" ".join(e["argv"]) for e in ENTRIES])
def test_stdout_and_exit_status(entry):
    status, stdout = run(entry["argv"])
    assert (status, stdout.split("\n")) == (entry["exit"], entry["stdout"])
