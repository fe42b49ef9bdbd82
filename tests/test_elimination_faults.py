"""One-site faults in the exact elimination must not reach a printed
`derivations` dimension.

Each fault wraps the row reduction or the nullspace that `derivations`
solves its character blocks with.  The command then runs through `cli.main`
and must exit non-zero or print the closed-form dimension n * C(d + n, n - 1)
(Schlessinger, Invent. Math. 14, 1971).  The fields y^(chi + e_b) d/dy_b are
independent derivations of their block, so a solve that loses one is
refused.
"""

import contextlib
import io
import json
import math

import pytest

from vertexalg import cli, veronese
from vertexalg.scalar import Echelon


def _extra_row():
    """veronese.row_reduce with the row x0 = 0 appended to every system."""
    row_reduce = veronese.row_reduce

    def faulty(rows, rhs=None):
        return row_reduce([*rows, {0: 1}], None if rhs is None else [*rhs, 0])

    return veronese, "row_reduce", faulty


def _nullspace_drops_last():
    nullspace = Echelon.nullspace
    return Echelon, "nullspace", lambda self, ncols: nullspace(self, ncols)[:-1]


FAULTS = {"extra row": _extra_row, "nullspace drops last": _nullspace_drops_last}

# (n, N, d): the dimension is n * C(d + n, n - 1)
CASES = [(2, 3, 3), (2, 3, 0), (3, 3, 3), (2, 1, -1), (3, 1, -1)]


def _run(argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(list(argv) + ["--format", "machine"])
    return code, json.loads(buf.getvalue()) if buf.getvalue() else None


@pytest.mark.parametrize("n, N, d", CASES)
@pytest.mark.parametrize("fault", FAULTS)
def test_elimination_fault_never_prints_a_wrong_dimension(monkeypatch, fault, n, N, d):
    monkeypatch.setattr(*FAULTS[fault]())
    code, doc = _run(["derivations", "--n", str(n), "--N", str(N), "--degree", str(d)])
    assert code != 0 or doc["payload"]["dimension"] == n * math.comb(d + n, n - 1), (fault, doc)
