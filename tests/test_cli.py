import argparse
import contextlib
import io
import json
import math
import os
import pathlib
import re
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vertexalg import cli
from vertexalg.cli import main

GOLDEN = json.loads((pathlib.Path(__file__).parent / "cli_golden.json").read_text())


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_quantize(capsys):
    code, out, _ = run(capsys, "quantize", "--N", "4", "--format", "machine")
    assert code == 0
    doc = json.loads(out)
    assert doc["status"] == "unique"
    assert doc["payload"]["charge"] == "5"


def test_quantize_text_has_timing(capsys):
    code, out, _ = run(capsys, "quantize", "--N", "2")
    assert code == 0
    assert "status: unique" in out
    assert "timing:" in out


def test_classify(capsys):
    code, out, _ = run(capsys, "classify", "--N", "2", "--degree-bound", "4",
                       "--format", "machine")
    assert code == 0
    doc = json.loads(out)
    assert doc["payload"]["survivors"] == ["(1)*w[1,1]"]


def test_witness(capsys):
    code, out, _ = run(capsys, "witness", "--n", "3", "--N", "2",
                       "--format", "machine")
    assert code == 0
    doc = json.loads(out)
    assert doc["status"] == "non-quantizable"
    assert "dy3" in doc["payload"]["witness"]


def test_membership_exit_codes(capsys):
    code, out, _ = run(capsys, "membership", "--N", "3", "--omega", "y2^2*T(y1)")
    assert code == 1
    assert "non-member" in out
    code, out, _ = run(capsys, "membership", "--N", "3", "--omega", "T(y1^3)")
    assert code == 0
    assert "status: member" in out


def test_morphism_levels(capsys):
    code, out, _ = run(capsys, "morphism", "--n", "2", "--param", "k=3",
                       "--format", "machine")
    assert code == 0
    assert json.loads(out)["payload"]["levels"] == ["-4", "2"]
    code, out, _ = run(capsys, "morphism", "--n", "3", "--format", "machine")
    assert code == 0
    assert json.loads(out)["payload"]["levels"] == ["-1", "-1"]
    # the currents are named E{a},{b} from n = 10 on: as E{a}{b}, E1,11 and
    # E11,1 would share the name E111
    code, out, _ = run(capsys, "morphism", "--n", "11", "--format", "machine")
    assert code == 0
    assert json.loads(out)["payload"] == {"failures": [], "levels": ["-1", "-1"]}


def test_glue_check_and_extend(capsys):
    code, _, _ = run(capsys, "glue-check", "--omega", "w[1,1]")
    assert code == 0
    code, _, _ = run(capsys, "extend", "y2*d1", "--omega", "k*w[1,1]")
    assert code == 0
    code, _, _ = run(capsys, "extend", "y2*d1", "--omega", "w[1,2]")
    assert code == 1


def test_param_read_by_an_expression(capsys):
    code, out, _ = run(capsys, "nprod", "k*y1", "--param", "k=2", "--format", "machine")
    assert code == 0
    assert json.loads(out)["payload"]["value"] == "2*y1"
    code, _, _ = run(capsys, "extend", "y2*d1", "--omega", "k*w[1,1]", "--param", "k=2")
    assert code == 0


def test_extend_from_u2(capsys):
    # a section regular on U2 is extended to U1 by the "2->1" transition
    code, out, _ = run(capsys, "extend", "y1*d2", "--omega", "w[1,1]", "--chart", "U2",
                       "--format", "machine")
    assert code == 0
    payload = json.loads(out)["payload"]
    assert payload == {"section": "(y1)*Dy2 + (-1*y2^-1)*dy1", "other_chart": "(y1)*Dy2"}
    # the twisted frame field carries y1^-1*y2^-1, singular on both charts
    code, out, _ = run(capsys, "extend", "d2", "--omega", "w[1,1]", "--chart", "U2",
                       "--format", "machine")
    assert code == 1
    assert json.loads(out)["status"] == "fail"


def test_virasoro(capsys):
    code, out, _ = run(capsys, "virasoro", "--n", "3", "--weight", "4",
                       "--format", "machine")
    assert code == 0
    assert all(json.loads(out)["payload"].values())


def test_derivations(capsys):
    code, out, _ = run(capsys, "derivations", "--N", "3", "--degree", "0",
                       "--format", "machine")
    assert code == 0
    doc = json.loads(out)
    assert doc["payload"]["dimension"] == 4
    assert doc["payload"]["gl_generates"] is True


@pytest.mark.parametrize("n, N, d", [(2, 3, 3), (3, 2, 0), (3, 3, 3), (4, 2, 2), (3, 6, 6),
                                     (2, 1, -1), (3, 1, -1)])
def test_derivations_in_n_variables(capsys, n, N, d):
    # every derivation is an invariant vector field: n * C(d + n, n - 1); the
    # multiples m * y_a d/dy_b span them from degree 0 on, and at N = 1,
    # d = -1 the n fields d/dy_b are not such multiples
    code, out, _ = run(capsys, "derivations", "--n", str(n), "--N", str(N),
                       "--degree", str(d), "--format", "machine")
    assert code == 0
    doc = json.loads(out)
    assert doc["payload"]["dimension"] == n * math.comb(d + n, n - 1)
    assert doc["payload"]["gl_generates"] is (d >= 0)


@pytest.mark.parametrize("argv, accepted", [
    # the default bound is 2N + 2 = 6; a form y^e dy_i has degree |e| + 1
    (["membership", "--N", "2", "--omega", "y1^5*T(y1)"], True),
    (["membership", "--N", "2", "--omega", "y1^6*T(y1)"], False),
    (["membership", "--N", "2", "--omega", "y1^3*T(y1)", "--degree-bound", "4"], True),
    (["membership", "--N", "2", "--omega", "y1^4*T(y1)", "--degree-bound", "4"], False),
    (["derivations", "--N", "2", "--degree", "6"], True),
    (["derivations", "--N", "2", "--degree", "7"], False),
    (["derivations", "--N", "2", "--degree", "-6"], True),
    (["derivations", "--N", "2", "--degree", "-7"], False),
])
def test_degree_bound_is_inclusive(capsys, argv, accepted):
    code, out, err = run(capsys, *argv, "--format", "machine")
    if accepted:
        assert code == 0 and json.loads(out)["status"] in ("member", "pass"), err
    else:
        assert (code, out) == (2, "") and "exceeds model bound" in err


def test_axioms_reproducible(capsys):
    code, out1, _ = run(capsys, "axioms", "--weight", "1", "--trials", "10",
                        "--seed", "11", "--format", "machine")
    assert code == 0
    _, out2, _ = run(capsys, "axioms", "--weight", "1", "--trials", "10",
                     "--seed", "11", "--format", "machine")
    assert out1 == out2
    assert json.loads(out1)["payload"]["defects"] == 0


def test_axioms_machine_needs_seed(capsys):
    code, _, err = run(capsys, "axioms", "--trials", "5", "--format", "machine")
    assert code == 2
    assert "seed" in err


def test_nprod(capsys):
    code, out, _ = run(capsys, "nprod", "y1 .(0) d1", "--format", "machine")
    assert code == 0
    assert json.loads(out)["payload"]["value"] == "-1*1"
    # a one-term power takes one step, however large
    for expr, value in (("y1^99999999999999999999", "y1^99999999999999999999"),
                        ("(-y1*y2^-2)^100000000000", "y1^100000000000*y2^-200000000000"),
                        ("(y1-y1)^99999999999999999999", "0"),
                        # a weighted power multiplies out; an exponent may carry a plus sign
                        ("d1^2", "d1*d1"), ("y1^+2", "y1^2")):
        code, out, _ = run(capsys, "nprod", expr, "--format", "machine")
        assert code == 0
        assert json.loads(out)["payload"]["value"] == value


def test_usage_errors(capsys):
    assert run(capsys, "quantize")[0] == 2
    assert run(capsys, "membership", "--N", "2", "--omega", "y1 *")[0] == 2
    assert run(capsys, "glue-check", "--omega", "y1*d1")[0] == 2


def test_config_file(tmp_path, capsys):
    cfg = tmp_path / "cfg.txt"
    cfg.write_text("degree_bound = 6\n# comment line\ntrials = 3\n")
    code, out, _ = run(capsys, "classify", "--N", "3", "--config", str(cfg),
                       "--format", "machine")
    assert code == 0
    doc = json.loads(out)
    assert doc["payload"]["bound"] == 6
    # flags override the config
    code, out, _ = run(capsys, "classify", "--N", "3", "--config", str(cfg),
                       "--degree-bound", "5", "--format", "machine")
    assert json.loads(out)["payload"]["bound"] == 5
    cfg.write_text("degree_bound 9\n")
    code, out, err = run(capsys, "quantize", "--N", "3", "--config", str(cfg))
    assert code == 2 and out == ""
    assert err.startswith("usage error: bad config line: 'degree_bound 9'")


def test_config_that_is_not_utf8_is_a_usage_error(tmp_path, capsys):
    cfg = tmp_path / "cfg.txt"
    cfg.write_bytes(b"\xff\xfe degree_bound = 9\n")
    code, out, err = run(capsys, "quantize", "--N", "3", "--config", str(cfg))
    assert code == 2 and out == ""
    assert err.startswith("usage error: cannot read config") and "UTF-8" in err


@pytest.mark.parametrize("argv", [
    ["derivations", "--N", "0"],
    ["membership", "--N", "2", "--omega", "y2^9*T(y1)"],
    ["quantize", "--N", "0"],
    ["witness", "--n", "2", "--N", "2"],
    ["membership", "--N", "2", "--omega", "y1"],
    ["glue-check", "--omega", "w[0,1]"],
    ["extend", "y2^-1*d1", "--omega", "w[1,1]"],
    ["nprod", "(y1+y2)^-1"],
    ["morphism", "--param", "k=abc"],
    ["morphism", "--n", "2", "--param", "y1=3"],
    ["morphism", "--n", "2", "--param", "d2=3"],
    ["morphism", "--n", "2", "--param", "=3"],
    ["morphism", "--n", "2", "--param", "k k=3"],
    ["morphism", "--n", "2", "--param", "2k=3"],
    ["morphism", "--n", "2", "--param", "k=4", "--param", "k=5"],
    ["morphism", "--n", "2", "--param", "k=4", "--param", " k =4"],
    ["quantize", "--N", "3", "--param", "k=5"],
    ["morphism", "--n", "2", "--param", "c=5"],
    ["morphism", "--n", "3", "--param", "k=5"],
    ["derivations", "--N", "2", "--param", "k=1"],
    ["quantize", "--N", "2", "--config", "/nonexistent/vertexalg.cfg"],
    ["nprod", "1/0"],
    ["virasoro", "--weight", "2"],
    ["nprod", "T(d1)^2"],
    ["nprod", "k^-1"],
    ["nprod", "0^-1"],
    ["extend", "y2*d1", "--omega", "k^-1*w[1,1]"],
    ["quantize", "--N", "4", "--trials", "3"],
    ["quantize", "--N", "4", "--degree", "3"],
    ["witness", "--n", "3"],
    ["nprod", "y1 + d1"],
    ["membership", "--N", "3", "--omega", "T(y1)+y2*T(y1)"],
    ["extend", "y2*d1+d1", "--omega", "w[1,1]"],
    ["membership", "--N", "2", "--omega", "y3*T(y3)"],
    ["membership", "--n", "3", "--N", "2", "--omega", "T(y4^2)"],
    ["extend", "y3*d1", "--omega", "w[1,1]"],
    ["extend", "y2*d1", "--omega", "y1*w[1,1]"],
    ["glue-check", "--omega", "y1*w[1,1]"],
    ["glue-check", "--omega", "d2*w[1,1]"],
    ["derivations", "--n", "1", "--N", "2"],
    # no verdict on empty input
    ["extend", "0", "--omega", "w[1,1]"],
    ["glue-check", "--omega", "0*w[1,1]"],
    ["membership", "--N", "2", "--omega", "0"],
    ["membership", "--N", "2", "--omega", "y1*d1"],
    ["quantize", "--N", "3", "--param", "k"],
    ["nprod", "d1^-1"],
    ["nprod", "y1 $ y2"],
    ["nprod", "y1^1/2"],
])
def test_invalid_input_is_a_usage_error(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("usage error: ")


@pytest.mark.parametrize("argv", [
    ["axioms", "--trials", "-3", "--seed", "1"],
    ["axioms", "--trials", "0", "--seed", "1"],
    ["axioms", "--n", "0", "--seed", "1"],
    ["morphism", "--n", "1"],
    ["virasoro", "--n", "0"],
    ["classify", "--N", "2", "--degree-bound", "1"],
])
def test_degenerate_runs_do_not_pass(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert "must be at least" in err


def test_superscript_digits_name_no_variable(capsys):
    # "d²" is no frame index: it stays a formal parameter instead of
    # failing in int()
    code, out, _ = run(capsys, "nprod", "d²*y1", "--format", "machine")
    assert code == 0
    assert json.loads(out)["payload"]["value"] == "d²*y1"


def test_negative_powers_are_exact(capsys):
    _, halved, _ = run(capsys, "extend", "y2*d1", "--omega", "1/2*w[1,1]",
                       "--format", "machine")
    code, out, _ = run(capsys, "extend", "y2*d1", "--omega", "2^-1*w[1,1]",
                       "--format", "machine")
    assert code == 0
    assert out == halved
    assert "-1/2*y1^-1" in json.loads(out)["payload"]["section"]
    code, out, _ = run(capsys, "nprod", "2^-1*y1", "--format", "machine")
    assert code == 0
    assert json.loads(out)["payload"]["value"] == "1/2*y1"
    code, out, _ = run(capsys, "nprod", "(-2*y1*y2^-1)^-2", "--format", "machine")
    assert json.loads(out)["payload"]["value"] == "1/4*y1^-2*y2^2"
    # constant coefficients are plain ints, on which ** -n would be a float
    for expr, value in (("(-2)^-3*y1", "-1/8*y1"), ("(2*y1)^-2", "1/4*y1^-2")):
        code, out, _ = run(capsys, "nprod", expr, "--format", "machine")
        assert code == 0 and json.loads(out)["payload"]["value"] == value
    code, out, _ = run(capsys, "glue-check", "--omega", "(-2)^-3*w[1,1]", "--format", "machine")
    assert json.loads(out)["payload"]["omega"] == "(-1/8)*w[1,1]"


def test_gluing_difference(capsys):
    code, out, _ = run(capsys, "glue-check", "--omega", "w[1,1] - 2*w[2,1]",
                       "--format", "machine")
    assert code == 0
    assert json.loads(out)["payload"]["omega"] == "(1)*w[1,1] + (-2)*w[2,1]"
    # a cancelled parameter leaves a number, which still adds to a scalar
    for omega, want in (("(k-k+1)*w[1,1]", "(1)*w[1,1]"), ("(k+1)*w[1,1]", "(1 + k)*w[1,1]")):
        code, out, _ = run(capsys, "glue-check", "--omega", omega, "--format", "machine")
        assert code == 0 and json.loads(out)["payload"]["omega"] == want


@pytest.mark.parametrize("case", GOLDEN, ids=[" ".join(c["argv"][:-2]) for c in GOLDEN])
def test_machine_output_matches_recording(capsys, case):
    code, out, _ = run(capsys, *case["argv"])
    assert (code, out) == (case["exit"], case["stdout"])


# each subcommand's own flags, besides --param, --format, --config and --help
OWN_FLAGS = {
    "axioms": {"--n", "--weight", "--trials", "--seed"},
    "nprod": {"--n", "--weight"},
    "quantize": {"--N", "--degree-bound"},
    "classify": {"--N", "--degree-bound"},
    "glue-check": {"--omega"},
    "extend": {"--omega", "--chart"},
    "morphism": {"--n"},
    "derivations": {"--N", "--n", "--degree", "--degree-bound"},
    "witness": {"--n", "--N"},
    "membership": {"--N", "--n", "--omega", "--degree-bound"},
    "virasoro": {"--n", "--weight"},
}


@pytest.mark.parametrize("command", sorted(OWN_FLAGS))
def test_help_lists_only_own_flags(capsys, command):
    with pytest.raises(SystemExit) as info:
        main([command, "--help"])
    assert info.value.code == 0
    listed = set(re.findall(r"(?<![\w-])--[\w-]+", capsys.readouterr().out))
    assert listed == OWN_FLAGS[command] | {"--param", "--format", "--config", "--help"}


@pytest.mark.parametrize("argv, message", [
    (["quantize", "--N"], "argument --N: expected one argument"),
    (["quantize", "--N", "--format", "text"], "argument --N: expected one argument"),
    (["quantize", "--N", "x"], "argument --N: invalid int value: 'x'"),
    (["quantize", "--N=2.5"], "argument --N: invalid int value: '2.5'"),
    (["quantize"], "the following arguments are required: --N"),
    (["extend", "--chart", "U2"], "the following arguments are required: expr, --omega"),
    (["extend", "y2*d1", "--omega", "w[1,1]", "--chart", "U3"],
     "argument --chart: invalid choice: 'U3' (choose from 'U1', 'U2')"),
    (["quantize", "--N", "3", "--format", "json"],
     "argument --format: invalid choice: 'json' (choose from 'text', 'machine')"),
    (["quantize", "--N", "3", "--degree-bou", "9"], "unrecognized arguments: --degree-bou 9"),
    (["quantize", "--N", "3", "--degree", "9"], "unrecognized arguments: --degree 9"),
    (["derivations", "--N", "3", "--deg", "2"], "unrecognized arguments: --deg 2"),
    (["quantize", "--N", "3", "--trials=3"], "unrecognized arguments: --trials=3"),
    (["nprod", "--weigth", "y1"], "unrecognized arguments: --weigth"),
    (["nprod", "y1", "y2"], "unrecognized arguments: y2"),
    # only nprod and extend take words after the options
    (["quantize", "--N", "3", "--"], "unrecognized arguments: --"),
])
def test_parser_refusals_keep_their_wording(capsys, argv, message):
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err == f"usage error: {message}\n"


@pytest.mark.parametrize("argv, spelled", [
    (["nprod", "-2*y1"], ["nprod", "--", "-2*y1"]),
    (["glue-check", "--omega", "-w[1,1]"], ["glue-check", "--omega=-w[1,1]"]),
    (["membership", "--N", "3", "--omega", "-T(y1^3)"],
     ["membership", "--N", "3", "--omega=-T(y1^3)"]),
    (["extend", "-y2*d1", "--omega", "-w[1,1]"], ["extend", "--omega=-w[1,1]", "--", "-y2*d1"]),
    (["derivations", "--N", "3", "--degree", "-3"], ["derivations", "--N", "3", "--degree=-3"]),
])
def test_values_may_start_with_a_minus(capsys, argv, spelled):
    # the same run as with --flag=value, or with the expression after --
    code, out, _ = run(capsys, argv[0], "--format", "machine", *argv[1:])
    assert code == 0
    assert run(capsys, spelled[0], "--format", "machine", *spelled[1:]) == (0, out, "")


def test_unknown_first_word_gets_the_full_parser(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    names = ",".join(cli.COMMANDS)
    assert len(cli.COMMANDS) == 11 and "{" + names + "}" in capsys.readouterr().out
    for argv in (["no-such-command"], ["no-such-command", "--N", "2"], []):
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == ""
        if argv:
            choices = ", ".join(f"'{name}'" for name in cli.COMMANDS)
            assert f"invalid choice: 'no-such-command' (choose from {choices})" in err


def test_config_fills_only_declared_flags(tmp_path, capsys):
    cfg = tmp_path / "cfg.txt"
    cfg.write_text("trials = 0\n")
    assert run(capsys, "virasoro", "--config", str(cfg))[0] == 0
    code, _, err = run(capsys, "axioms", "--seed", "1", "--config", str(cfg))
    assert code == 2
    assert "--trials must be at least 1" in err


@pytest.mark.parametrize("text, key", [
    ("degre_bound = 9\n", "degre_bound"),
    ("weight = 4\n# again\nweight = 5\n", "weight"),
    ("trials = 3/2\n", "trials"),
    ("degree_bound = 6\nseed = 1\n", "seed"),
])
def test_config_rejects_unknown_repeated_and_non_integer_keys(tmp_path, capsys, text, key):
    cfg = tmp_path / "cfg.txt"
    cfg.write_text(text)
    # quantize takes degree_bound only; the others are still checked
    code, out, err = run(capsys, "quantize", "--N", "3", "--config", str(cfg))
    assert code == 2 and out == ""
    assert err.startswith("usage error: config") and key in err


def test_too_deep_input_is_an_engine_error(capsys):
    # the Fock recursion goes once per unit of an exponent
    code, out, err = run(capsys, "nprod", "y1^1000 * y2")
    assert code == 1 and out == ""
    assert err.startswith("error: the input is too deep for the recursive engine")
    assert "Traceback" not in err
    # the engine still works afterwards
    assert run(capsys, "nprod", "y1^3 * y2")[0] == 0


def test_deep_brackets_are_a_usage_error_and_long_sums_evaluate(capsys):
    deep = "(" * 1000 + "y1" + ")" * 1000
    code, out, err = run(capsys, "nprod", deep)
    assert code == 2 and out == ""
    assert err.startswith("usage error: brackets nest deeper than")
    # a flat sum is walked in a loop, however long
    code, out, _ = run(capsys, "nprod", "+".join(["y1"] * 2000), "--format", "machine")
    assert code == 0 and json.loads(out)["payload"]["value"] == "2000*y1"
    code, out, _ = run(capsys, "glue-check", "--omega", "+".join(["w[1,1]"] * 2000),
                       "--format", "machine")
    assert code == 0 and json.loads(out)["payload"]["omega"] == "(2000)*w[1,1]"


def test_long_products_evaluate(capsys):
    # a '*' chain is one node, folded in a loop, left to right
    code, out, _ = run(capsys, "nprod", "*".join(["k"] * 1500), "--format", "machine")
    assert code == 0 and json.loads(out)["payload"]["value"] == "k^1500*1"
    omega = "*".join(["2"] * 1999 + ["w[1,1]"])
    code, out, _ = run(capsys, "glue-check", "--omega", omega, "--format", "machine")
    assert code == 0 and json.loads(out)["payload"]["omega"] == f"({2 ** 1999})*w[1,1]"
    code, out, _ = run(capsys, "nprod", "*".join(["y1"] * 3) + "-" + "*".join(["2"] * 500),
                       "--format", "machine")
    assert code == 0 and json.loads(out)["payload"]["value"] == f"-{2 ** 500}*1 + y1^3"
    # so is a '.(n)' chain
    code, out, _ = run(capsys, "nprod", " .(-1) ".join(["k"] * 1500), "--format", "machine")
    assert code == 0 and json.loads(out)["payload"]["value"] == "k^1500*1"
    code, out, _ = run(capsys, "nprod", "y1 .(-1) y1 .(0) d1", "--format", "machine")
    assert code == 0 and json.loads(out)["payload"]["value"] == "-2*y1"  # (y1^2)_(0) d1
    # the type errors of a gluing form are kept
    code, _, err = run(capsys, "glue-check", "--omega", "w[1,1] + " + "*".join(["2"] * 600))
    assert code == 2 and "cannot add a scalar and a gluing form" in err
    code, _, err = run(capsys, "glue-check", "--omega", "2*w[1,1]*" + "*".join(["3"] * 600)
                       + "*w[2,1]")
    assert code == 2 and "cannot multiply two gluing forms" in err


def test_startup_loads_neither_dataclasses_nor_inspect():
    # the modules that importing the CLI adds to those of a bare interpreter
    src = str(pathlib.Path(cli.__file__).resolve().parents[1])
    script = ("import sys; before = set(sys.modules); import vertexalg.cli; "
              "print(' '.join(sorted(set(sys.modules) - before)))")
    env = {**os.environ, "PYTHONPATH": src}
    loaded = subprocess.run([sys.executable, "-c", script], env=env, check=True,
                            capture_output=True, text=True).stdout.split()
    assert "vertexalg.cli" in loaded
    assert not {"dataclasses", "inspect", "argparse", "gettext", "locale"} & set(loaded)


# -- property: any argv of the grammar ends in exit 0, 1 or 2 -----------------

_LEAVES = st.one_of(
    st.sampled_from(["y1", "y2", "y3", "d1", "d2", "k", "c"]),
    st.integers(0, 4).map(str),
    st.tuples(st.integers(0, 4), st.integers(0, 3)).map("{0[0]}/{0[1]}".format),
    st.tuples(st.integers(0, 2), st.integers(0, 2)).map("w[{0[0]},{0[1]}]".format),
)


def _exprs(depth: int):
    """Strings of the expr.py grammar, nested at most `depth` deep."""
    if depth == 0:
        return _LEAVES
    sub = _exprs(depth - 1)
    return st.one_of(
        _LEAVES,
        sub.map("T({})".format),
        sub.map("(-{})".format),
        st.tuples(sub, st.sampled_from("+-*"), sub).map("{0[0]} {0[1]} {0[2]}".format),
        st.tuples(sub, st.integers(-2, 3)).map("({0[0]})^{0[1]}".format),
        st.tuples(sub, st.integers(-2, 2), sub).map("({0[0]}) .({0[1]}) ({0[2]})".format),
    )


# flag -> its drawn values, in range first: hypothesis favours early ones
_INTS = {"N": (2, 3, 1, 4, 0, -1), "n": (2, 3, 1, 4, 0), "weight": (3, 2, 1, 0),
         "trials": (1, 2, 0, -1), "seed": (0, 1, 2), "degree": (0, 2, 3, 6, -2),
         "degree-bound": (4, 8, 2, 1, -1)}


@st.composite
def _argvs(draw):
    command = draw(st.sampled_from(sorted(OWN_FLAGS)))
    argv = [command]
    if command in ("nprod", "extend"):
        argv.append(draw(_exprs(3)))
    # each own flag three times in four, any other flag once in twenty;
    # axioms always gets --trials, as its default of 200 takes seconds
    for flag in sorted(OWN_FLAGS[command] | {"--" + f for f in _INTS}):
        if command == "axioms" and flag == "--trials":
            keep = True
        elif flag in OWN_FLAGS[command]:
            keep = draw(st.integers(0, 3)) < 3
        else:
            keep = draw(st.integers(0, 19)) == 19
        if not keep:
            continue
        name = flag[2:]
        if name in _INTS:
            argv += [flag, str(draw(st.sampled_from(_INTS[name])))]
        elif name == "omega":
            argv += [flag, draw(_exprs(3))]
        else:
            argv += [flag, draw(st.sampled_from(["U1", "U2"]))]
    if draw(st.booleans()):
        argv += ["--param", draw(st.sampled_from(["k=3", "c=1/2", "k=0"]))]
    return argv + ["--format", draw(st.sampled_from(["text", "machine"]))]


@settings(max_examples=300, derandomize=True, deadline=None)
@given(_argvs())
def test_any_argv_exits_0_1_or_2(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2)
    assert "Traceback" not in err.getvalue()


# -- property: parse_args reads an argv as argparse would --------------------


class _Refused(Exception):
    pass


class _ReferenceParser(argparse.ArgumentParser):
    def error(self, message):
        raise _Refused(message)


def _reference_parser() -> argparse.ArgumentParser:
    """argparse's reading of COMMANDS and FLAGS: the reference parse_args is
    checked against."""
    parser = _ReferenceParser(prog="vertexalg")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, required, optional) in cli.COMMANDS.items():
        p = sub.add_parser(name, allow_abbrev=False)
        for flag in required + optional + cli.SHARED:
            if flag == "expr":
                p.add_argument("expr")
            elif flag == "param":
                p.add_argument("--param", action="append", default=[])
            else:
                p.add_argument("--" + flag.replace("_", "-"), required=flag in required,
                               **cli.FLAGS[flag])
    return parser


_REFERENCE = _reference_parser()

# flags, unknown or abbreviated or with a negative value, and their values
_FOREIGN = [["--bogus", "1"], ["--form", "machine"], ["--par", "k=1"], ["--conf", "x"],
            ["--degree", "3"], ["--deg", "3"], ["--om", "w[1,1]"], ["--ch", "U2"],
            ["--tri", "2"], ["--Nn", "2"], ["-N", "2"], ["--trials", "-3"],
            ["--degree", "-2"], ["--N=", "3"], ["--degree-bound=x", "4"]]
_REPEATS = {"--format": ["text", "machine"], "--chart": ["U1", "U2"],
            "--omega": ["w[1,1]", "w[2,1]"], "--param": ["k=1", "c=2"]}


@st.composite
def _edge_argvs(draw):
    """An argv of the grammar, as it is or with one edge case worked in."""
    argv = draw(_argvs())
    flags = [i for i, word in enumerate(argv) if word.startswith("--")]
    i = draw(st.sampled_from(flags))
    edge = draw(st.sampled_from([None, "equals", "repeat", "dashdash", "no-value",
                                 "bad-value", "drop", "foreign", "minus"]))
    if edge is None:
        pass
    elif edge == "equals":
        argv[i:i + 2] = [f"{argv[i]}={argv[i + 1]}"]
    elif edge == "repeat":
        # the later value must win
        pool = _REPEATS.get(argv[i]) or [str(v) for v in _INTS[argv[i][2:]]]
        argv[1:1] = [argv[i], draw(st.sampled_from(pool))]
    elif edge == "dashdash":
        # the expression after --; argparse versions differ on a -- that no
        # positional follows, so the other subcommands keep their argv
        if argv[0] in ("nprod", "extend"):
            argv = [argv[0], *argv[2:], "--", argv[1]]
    elif edge == "no-value":
        del argv[i + 1]
    elif edge == "bad-value":
        # for the drawn flag or the closing --format: no int, and no choice
        j = draw(st.sampled_from([len(argv) - 1, i + 1]))
        argv[j] = draw(st.sampled_from(["x", "2.5", "", "json", "u1"]))
    elif edge == "drop":
        del argv[i:i + 2]
    elif edge == "foreign":
        j = draw(st.sampled_from([1, *flags, len(argv)]))
        argv[j:j] = draw(st.sampled_from(_FOREIGN))
    else:
        # a leading minus on an expression, --omega, --param or the drawn
        # flag's value; argparse takes a word with it and no space for an option
        spots = [j + 1 for j in flags if argv[j] in ("--omega", "--param")]
        if argv[0] in ("nprod", "extend"):
            spots.append(1)
        j = draw(st.sampled_from(spots or [i + 1]))
        argv[j] = "-" + argv[j].replace(" ", "")
    return argv


def _read(parse, argv):
    """The values an argv sets, or None when it is refused."""
    try:
        return vars(parse(argv))
    except (cli.UsageError, _Refused):
        return None


@settings(max_examples=400, derandomize=True, deadline=None)
@given(_edge_argvs())
def test_parser_agrees_with_argparse(argv):
    want, got = _read(_REFERENCE.parse_args, argv), _read(cli.parse_args, argv)
    if want is not None:
        assert got == want
    elif got is not None:
        # argparse takes a word with a leading minus for an unknown option
        assert any(isinstance(v, str) and v.startswith("-") and " " not in v
                   for v in [*got.values(), *got["param"]]), argv
