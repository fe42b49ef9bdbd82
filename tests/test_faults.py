"""One-site faults in the Fock kernel or the exact elimination must not reach
a printed verdict.

Each fault in FAULTS patches `FreeFieldAlgebra._gen_mode` or `_w_mode`, or
the `row_reduce` of `scalar` and `veronese`.  Each command it runs on goes
through `cli.main` with the product caches cleared, and must exit non-zero,
or print its known answer from the paper unless the fault must stop it.  An
exception that escapes `cli.main` fails the cell.  A cell where a fault gets
through is a strict expected failure (ESCAPES), so it fails loudly once a
check stops it.  `glue-check` is exempt: it is an identity in the frames,
which no kernel fault can move (see README, criterion 6).
"""

import contextlib
import io
import json
import math

import pytest

from vertexalg import algebroid, cli, scalar, veronese
from vertexalg.freefield import FreeFieldAlgebra
from vertexalg.scalar import RHS, accumulate


def _scaled_branch(picks, factor):
    """_gen_mode with the branches picks(cls, p) selects scaled by factor."""
    gen_mode = FreeFieldAlgebra._gen_mode

    def faulty(self, cls, i, p, terms):
        out = gen_mode(self, cls, i, p, terms)
        return {key: c * factor for key, c in out.items()} if picks(cls, p) else out
    return "_gen_mode", faulty


def _series_without_sign():
    """_w_mode without the (-1)^k of its series: layer k contracts k frame
    symbols of variable i, so a term that lost an odd number flips sign."""
    w_mode = FreeFieldAlgebra._w_mode

    def frames(key, i):
        return sum(sym[:2] == ("d", i) for sym in key[1])

    def faulty(self, i, n, terms):
        out = {}
        for key, c in terms.items():
            for new, x in w_mode(self, i, n, {key: c}).items():
                accumulate(out, new, -x if (frames(key, i) - frames(new, i)) % 2 else x)
        return out
    return "_w_mode", faulty


def _zero_mode_raises():
    """_gen_mode raising KeyError on the frame zero mode, which the guard reaches."""
    gen_mode = FreeFieldAlgebra._gen_mode

    def faulty(self, cls, i, p, terms):
        if cls == "d" and p == 0:
            raise KeyError((cls, i, p))
        return gen_mode(self, cls, i, p, terms)
    return "_gen_mode", faulty


def _extra_row(row_reduce):
    """The row x0 = 0 appended to every system."""
    return lambda rows: row_reduce([*rows, {0: 1}])


def _pivot_row_lost(row_reduce):
    """The echelon form returned without its last pivot row."""
    def faulty(rows):
        echelon = row_reduce(rows)
        return echelon._replace(rows=dict(list(echelon.rows.items())[:-1]))
    return faulty


def _drop_last_row(row_reduce):
    return lambda rows: row_reduce(list(rows)[:-1])


def _drop_residuals(row_reduce):
    return lambda rows: row_reduce(rows)._replace(residuals=[])


def _rhs_doubled(row_reduce):
    """Every row's right-hand side, its RHS entry, doubled."""
    return lambda rows: row_reduce([{c: 2 * x if c == RHS else x for c, x in row.items()}
                                    for row in rows])


def _echelon_sign(row_reduce):
    """Every entry of every pivot row negated, except the pivot itself."""
    def faulty(rows):
        echelon = row_reduce(rows)
        return echelon._replace(rows={col: {c: x if c == col else -x for c, x in row.items()}
                                      for col, row in echelon.rows.items()})
    return faulty


QUANTIZE = ("quantize", "--N", "3")
MEMBERSHIP = ("membership", "--N", "3", "--omega", "y1^2*T(y2)")
VIRASORO = ("virasoro", "--n", "2", "--weight", "4")
MORPHISMS = [("morphism", "--n", "2", "--param", "k=4"), ("morphism", "--n", "3")]
WITNESS = ("witness", "--n", "3", "--N", "3")
CASES = [(2, 3, 3), (2, 3, 0), (3, 3, 3), (2, 1, -1), (3, 1, -1)]
BLOCKS = [("derivations", "--n", str(n), "--N", str(N), "--degree", str(d)) for n, N, d in CASES]

# argv -> (status, payload) from the paper: charge N + 1, gl_2 levels
# (-N-2, N) at k = N + 1, gl_n levels (-1, -1), the witness
# (N-2) y2^(N-2) y3 dy2 + y2^(N-1) dy3, y1^2 dy2 outside the span of the
# degree-3 generator differentials, the Virasoro relations, and
# n * C(d + n, n - 1) derivations (Schlessinger, Invent. Math. 14, 1971)
KNOWN = {
    QUANTIZE: ("unique", {"charge": "4", "gluing": "(1)*w[1,1]"}),
    ("quantize", "--N", "5"): ("unique", {"charge": "6", "gluing": "(1)*w[1,1]"}),
    MORPHISMS[0]: ("pass", {"failures": [], "levels": ["-5", "3"]}),
    MORPHISMS[1]: ("pass", {"failures": [], "levels": ["-1", "-1"]}),
    WITNESS: ("non-quantizable", {"witness": "(y2*y3)*dy2 + (y2^2)*dy3"}),
    MEMBERSHIP: ("non-member", {"omega": "(y1^2)*dy2"}),
    VIRASORO: ("pass", {"L_(0)L = T(L)": True, "L_(1)L = 2L": True, "L_(2)L = 0": True,
                        "L_(3)L = n*vac": True}),
    **{argv: ("pass", {"degree": d, "dimension": n * math.comb(d + n, n - 1),
                       "gl_generates": d >= 0})
       for argv, (n, _, d) in zip(BLOCKS, CASES)},
}
ELIMINATION = [QUANTIZE, ("quantize", "--N", "5"), WITNESS, MEMBERSHIP, *MORPHISMS,
               BLOCKS[0], BLOCKS[2]]


def _kernel(fault, stops=(QUANTIZE,)):
    """A fault of FreeFieldAlgebra, run on every Fock-based verdict."""
    return lambda: [(FreeFieldAlgebra, *fault())], [QUANTIZE, *MORPHISMS, WITNESS, VIRASORO], stops


def _row_reduce(wrap, commands=ELIMINATION):
    """A fault of the row reduction of both `scalar` and `veronese`."""
    def patches():
        faulty = wrap(scalar.row_reduce)
        return [(scalar, "row_reduce", faulty), (veronese, "row_reduce", faulty)]
    return patches, commands, ()


# fault -> (its patches, the commands it runs on, the commands it must stop)
FAULTS = {
    # the coordinate field's nonnegative modes contract with +count
    "y sign": _kernel(lambda: _scaled_branch(lambda cls, p: cls == "y" and p >= 0, -1)),
    # the frame field's positive modes contract with -count
    "d sign": _kernel(lambda: _scaled_branch(lambda cls, p: cls == "d" and p >= 1, -1)),
    # the frame zero mode on y^e gives -e
    "zero-mode sign": _kernel(lambda: _scaled_branch(lambda cls, p: cls == "d" and p == 0, -1)),
    "series sign": _kernel(_series_without_sign),
    # all three annihilation branches doubled: a consistent rescaling of the pairing
    "pairing x2": _kernel(lambda: _scaled_branch(lambda cls, p: p >= 0, 2)),
    # the guard reports the crash as a divergence; virasoro runs no guard
    "zero mode raises": _kernel(_zero_mode_raises, stops=(QUANTIZE, *MORPHISMS, WITNESS)),
    # a block's rank is checked against its independent fields y^(chi + e_b) d/dy_b
    "extra row": _row_reduce(_extra_row, BLOCKS),
    "pivot row lost": _row_reduce(_pivot_row_lost, BLOCKS),
    "drop last row": _row_reduce(_drop_last_row),
    "drop residuals": _row_reduce(_drop_residuals),
    "rhs x 2": _row_reduce(_rhs_doubled),
    "echelon sign": _row_reduce(_echelon_sign),
}

# the cells where a fault gets through, and how
ESCAPES = {
    ("drop last row", MEMBERSHIP):
        "prints 'member': a lost row loses its residual, and no check rebuilds "
        "the form from the span",
    ("drop residuals", MEMBERSHIP):
        "prints 'member': nothing checks a 'member' verdict against the form",
    ("zero mode raises", VIRASORO):
        "the KeyError escapes cli.main: virasoro runs no guard (ROADMAP direction 16)",
}


def _clear_product_caches():
    algebroid._shared_algebra.cache_clear()
    veronese._embedded_chart_images.cache_clear()
    algebroid._validated.clear()


@pytest.fixture(autouse=True)
def fresh_caches():
    _clear_product_caches()
    yield
    _clear_product_caches()


def _run(argv):
    buf = io.StringIO()
    try:
        with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
            code = cli.main([*argv, "--format", "machine"])
    except Exception as exc:
        raise AssertionError(f"{exc!r} escaped cli.main") from exc
    return code, json.loads(buf.getvalue()) if buf.getvalue() else None


@pytest.mark.parametrize("argv", KNOWN, ids=" ".join)
def test_sound_engine_prints_the_known_answer(argv):
    code, doc = _run(argv)
    assert code == (1 if doc["status"] == "non-member" else 0)
    assert (doc["status"], doc["payload"]) == KNOWN[argv]


def _cells():
    for fault, (_, commands, _) in FAULTS.items():
        for argv in commands:
            reason = ESCAPES.get((fault, argv))
            marks = ([pytest.mark.xfail(strict=True, raises=AssertionError, reason=reason)]
                     if reason else [])
            yield pytest.param(fault, argv, marks=marks, id=f"{fault}-{' '.join(argv)}")


@pytest.mark.parametrize("fault, argv", _cells())
def test_fault_never_prints_a_wrong_verdict(monkeypatch, fault, argv):
    patches, _, stops = FAULTS[fault]
    for target, name, value in patches():
        monkeypatch.setattr(target, name, value)
    code, doc = _run(argv)
    assert code != 0 or (argv not in stops and (doc["status"], doc["payload"]) == KNOWN[argv]), \
        (fault, doc)
