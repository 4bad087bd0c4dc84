"""The CLI output contract: stdout and exit status, byte for byte.

Every invocation in golden_stdout.json is replayed through `cli.main` in
process; only `wall_time_ms` is masked (see make_golden.mask).  The file is
written by make_golden.py, and any edit to it is a change of the contract.

The `oracle-check` gap digits (e.g. `2.867e-14` for the character-integral
stage) are summation noise of the quadratures.  They are summed by numpy loops
in a fixed order, not by BLAS, so the file is the same under any BLAS thread
count (checked with OPENBLAS_NUM_THREADS=1 and the default on two CPUs).  The
character-integral stage is one call over the 13^4 grid: each quadruple's
value is the einsum of its sorted labels' node products, added chunk by chunk
(1024 nodes) in node order, so it is the same double whichever other
quadruples share the call or its node count.
"""

import json

import pytest

from make_golden import GOLDEN, run

ENTRIES = json.loads(GOLDEN.read_text(encoding="utf-8"))


@pytest.mark.parametrize("entry", ENTRIES, ids=[" ".join(e["argv"]) for e in ENTRIES])
def test_stdout_and_exit_status(entry):
    status, stdout = run(entry["argv"])
    assert (status, stdout.split("\n")) == (entry["exit"], entry["stdout"])
