"""Every simulated value of every strategy, pinned by one digest.

The reduced grid of `tools/ledger_matrix.py` (every query, strategy and
mode; the single_heavy and two_heavy generators; p in {8, 64}) runs here
through the tool's own `matrix`, so the test and the tool share one
definition of the runs and the digest.  A change that moves a ledger, an
output, a round count or an extra on purpose updates DIGEST (the failing
assertion prints the new value) and says why.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tools"))

import ledger_matrix  # noqa: E402

DIGEST = "12276036a08658c93b397522e97f62c446a9097bf056e783cbc64826360939f7"


def test_ledger_matrix_digest_pinned():
    res = ledger_matrix.matrix(ledger_matrix.GRIDS["tier1"])
    assert (res.runs, res.completed, res.auto_rejected) == (1680, 624, 0)
    assert res.shared_mismatched == 0
    assert res.sha256 == DIGEST
