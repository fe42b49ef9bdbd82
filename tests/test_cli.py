import json

import pytest

from vertexalg.cli import main


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


def test_glue_check_and_extend(capsys):
    code, _, _ = run(capsys, "glue-check", "--omega", "w[1,1]")
    assert code == 0
    code, _, _ = run(capsys, "extend", "y2*d1", "--omega", "k*w[1,1]")
    assert code == 0
    code, _, _ = run(capsys, "extend", "y2*d1", "--omega", "w[1,2]")
    assert code == 1


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
    ["quantize", "--N", "2", "--config", "/nonexistent/vertexalg.cfg"],
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
])
def test_degenerate_runs_do_not_pass(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert "must be at least" in err
