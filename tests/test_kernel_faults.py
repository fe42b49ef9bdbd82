"""One-site faults in the Fock kernel must not reach a printed verdict.

Each fault wraps `FreeFieldAlgebra._gen_mode` or `_w_mode`.  Every
Fock-based verdict then runs through `cli.main`, with every cache that holds
products cleared before and after, and must exit non-zero or print its
known answer from the paper.  `glue-check` is exempt: it is an identity in
the frames, which no kernel fault can move (see README, criterion 6).
"""

import contextlib
import io
import json

import pytest

from vertexalg import algebroid, cli, veronese
from vertexalg.freefield import FreeFieldAlgebra
from vertexalg.scalar import accumulate


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


FAULTS = {
    # the coordinate field's nonnegative modes contract with +count
    "y sign": lambda: _scaled_branch(lambda cls, p: cls == "y" and p >= 0, -1),
    # the frame field's positive modes contract with -count
    "d sign": lambda: _scaled_branch(lambda cls, p: cls == "d" and p >= 1, -1),
    # the frame zero mode on y^e gives -e
    "zero-mode sign": lambda: _scaled_branch(lambda cls, p: cls == "d" and p == 0, -1),
    "series sign": _series_without_sign,
    # all three annihilation branches doubled: a consistent rescaling of the pairing
    "pairing x2": lambda: _scaled_branch(lambda cls, p: p >= 0, 2),
}

# argv -> (status, payload) from the paper: charge N + 1, gl_2 levels
# (-N-2, N) at k = N + 1, gl_n levels (-1, -1), the witness
# (N-2) y2^(N-2) y3 dy2 + y2^(N-1) dy3, and the Virasoro relations
KNOWN = {
    ("quantize", "--N", "3"):
        ("unique", {"charge": "4", "gluing": "(1)*w[1,1]"}),
    ("morphism", "--n", "2", "--param", "k=4"):
        ("pass", {"failures": [], "levels": ["-5", "3"]}),
    ("morphism", "--n", "3"):
        ("pass", {"failures": [], "levels": ["-1", "-1"]}),
    ("witness", "--n", "3", "--N", "3"):
        ("non-quantizable", {"witness": "(y2*y3)*dy2 + (y2^2)*dy3"}),
    ("virasoro", "--n", "2", "--weight", "4"):
        ("pass", {"L_(0)L = T(L)": True, "L_(1)L = 2L": True, "L_(2)L = 0": True,
                  "L_(3)L = n*vac": True}),
}


def _clear_product_caches():
    algebroid._shared_algebra.cache_clear()
    veronese._embedded_chart_images.cache_clear()
    algebroid._validated.clear()


@pytest.fixture
def fresh_kernel():
    _clear_product_caches()
    yield
    _clear_product_caches()


def _run(argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(list(argv) + ["--format", "machine"])
    return code, json.loads(buf.getvalue()) if buf.getvalue() else None


@pytest.mark.parametrize("argv", KNOWN, ids=" ".join)
def test_sound_kernel_prints_the_known_answer(fresh_kernel, argv):
    code, doc = _run(argv)
    assert code == 0
    assert (doc["status"], doc["payload"]) == KNOWN[argv]


@pytest.mark.parametrize("argv", KNOWN, ids=" ".join)
@pytest.mark.parametrize("fault", FAULTS)
def test_kernel_fault_never_prints_a_wrong_verdict(fresh_kernel, monkeypatch, fault, argv):
    monkeypatch.setattr(FreeFieldAlgebra, *FAULTS[fault]())
    code, doc = _run(argv)
    assert code != 0 or (doc["status"], doc["payload"]) == KNOWN[argv], (fault, doc)


@pytest.mark.parametrize("fault", FAULTS)
def test_kernel_fault_stops_quantize(fresh_kernel, monkeypatch, fault):
    monkeypatch.setattr(FreeFieldAlgebra, *FAULTS[fault]())
    assert _run(("quantize", "--N", "3"))[0] != 0
