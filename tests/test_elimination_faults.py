"""One-site faults in the exact elimination must not reach a printed verdict.

The first table wraps the row reduction that `derivations` ranks its
character blocks with.  The command then runs through `cli.main` and must
exit non-zero or print the closed-form dimension n * C(d + n, n - 1)
(Schlessinger, Invent. Math. 14, 1971).  The fields y^(chi + e_b) d/dy_b are
an independent basis of their block, so a rank that disagrees with their
count is refused.

The second table wraps `row_reduce` in both `scalar` (the solve of
`quantize` and `morphism`) and `veronese` (membership, the witness and the
derivation blocks), and runs every command that eliminates through
`cli.main`; each must exit non-zero or print its known answer from the
paper.  The rows are augmented, {column: coefficient, RHS: right-hand
side}, so "rhs x 2" doubles every row's RHS entry.  `solve_linear_system`
checks a unique solution against every row it built, so a wrong charge or
wrong levels end in exit 1.  A cell where a fault gets through is marked as
a strict expected failure with what it prints, so it fails loudly once a
check stops it: only membership's two cells are left, since nothing
rebuilds a 'member' form from the span.
"""

import contextlib
import io
import json
import math

import pytest

from vertexalg import cli, scalar, veronese
from vertexalg.scalar import RHS


def _extra_row():
    """veronese.row_reduce with the row x0 = 0 appended to every system."""
    row_reduce = veronese.row_reduce

    def faulty(rows):
        return row_reduce([*rows, {0: 1}])

    return veronese, "row_reduce", faulty


def _pivot_row_lost():
    """veronese.row_reduce returning its echelon form without the last pivot row."""
    row_reduce = veronese.row_reduce

    def faulty(rows):
        echelon = row_reduce(rows)
        return echelon._replace(rows=dict(list(echelon.rows.items())[:-1]))

    return veronese, "row_reduce", faulty


FAULTS = {"extra row": _extra_row, "pivot row lost": _pivot_row_lost}

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


def _drop_last_row(row_reduce):
    return lambda rows: row_reduce(list(rows)[:-1])


def _drop_residuals(row_reduce):
    return lambda rows: row_reduce(rows)._replace(residuals=[])


def _rhs_doubled(row_reduce):
    """Every row's right-hand side doubled."""
    return lambda rows: row_reduce([{c: 2 * x if c == RHS else x for c, x in row.items()}
                                    for row in rows])


def _echelon_sign(row_reduce):
    """Every entry of every pivot row negated, except the pivot itself."""
    def faulty(rows):
        echelon = row_reduce(rows)
        return echelon._replace(rows={col: {c: x if c == col else -x for c, x in row.items()}
                                      for col, row in echelon.rows.items()})
    return faulty


ROW_REDUCE_FAULTS = {"drop last row": _drop_last_row, "drop residuals": _drop_residuals,
                     "rhs x 2": _rhs_doubled, "echelon sign": _echelon_sign}

# argv -> (status, payload) from the paper: charge N + 1, gl_2 levels
# (-N-2, N) at k = N + 1, gl_n levels (-1, -1), the witness
# (N-2) y2^(N-2) y3 dy2 + y2^(N-1) dy3, y1^2 dy2 outside the span of the
# degree-3 generator differentials, and n * C(d + n, n - 1) derivations
KNOWN = {
    ("quantize", "--N", "3"): ("unique", {"charge": "4", "gluing": "(1)*w[1,1]"}),
    ("quantize", "--N", "5"): ("unique", {"charge": "6", "gluing": "(1)*w[1,1]"}),
    ("witness", "--n", "3", "--N", "3"):
        ("non-quantizable", {"witness": "(y2*y3)*dy2 + (y2^2)*dy3"}),
    ("membership", "--N", "3", "--omega", "y1^2*T(y2)"):
        ("non-member", {"omega": "(y1^2)*dy2"}),
    ("morphism", "--n", "2", "--param", "k=4"):
        ("pass", {"failures": [], "levels": ["-5", "3"]}),
    ("morphism", "--n", "3"): ("pass", {"failures": [], "levels": ["-1", "-1"]}),
    ("derivations", "--n", "2", "--N", "3", "--degree", "3"):
        ("pass", {"degree": 3, "dimension": 10, "gl_generates": True}),
    ("derivations", "--n", "3", "--N", "3", "--degree", "3"):
        ("pass", {"degree": 3, "dimension": 45, "gl_generates": True}),
}


@pytest.mark.parametrize("argv", KNOWN, ids=" ".join)
def test_sound_elimination_prints_the_known_answer(argv):
    code, doc = _run(argv)
    assert code == (1 if doc["status"] == "non-member" else 0)
    assert (doc["status"], doc["payload"]) == KNOWN[argv]


MEMBERSHIP = ("membership", "--N", "3", "--omega", "y1^2*T(y2)")
# the cells where a fault reaches a wrong verdict, and what it prints
ESCAPES = {
    ("drop last row", MEMBERSHIP):
        "prints 'member': a lost row loses its residual, and no check rebuilds "
        "the form from the span",
    ("drop residuals", MEMBERSHIP):
        "prints 'member': nothing checks a 'member' verdict against the form",
}


def _cells():
    for fault in ROW_REDUCE_FAULTS:
        for argv in KNOWN:
            reason = ESCAPES.get((fault, argv))
            marks = ([pytest.mark.xfail(strict=True, raises=AssertionError, reason=reason)]
                     if reason else [])
            yield pytest.param(fault, argv, marks=marks, id=f"{fault}-{' '.join(argv)}")


@pytest.mark.parametrize("fault, argv", _cells())
def test_row_reduce_fault_never_prints_a_wrong_verdict(monkeypatch, fault, argv):
    faulty = ROW_REDUCE_FAULTS[fault](scalar.row_reduce)
    monkeypatch.setattr(scalar, "row_reduce", faulty)
    monkeypatch.setattr(veronese, "row_reduce", faulty)
    code, doc = _run(argv)
    assert code != 0 or (doc["status"], doc["payload"]) == KNOWN[argv], (fault, doc)
