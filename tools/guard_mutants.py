"""Seeded one-site mutants of the product kernel and the closed forms, each
run against the kernel guard, `algebroid._validate_rules`.

    python3 tools/guard_mutants.py --seed 1 --json seed1.json
    python3 tools/guard_mutants.py --ci

A mutant changes one site of one target function (TARGETS) in one of four
ways: an operator swap (+ and -, * to +, and/or, ...), a comparison swap
(== and !=, < and <=, ...), an int constant plus 1, or a dropped unary
minus.  Sites are numbered per function and kind in `ast.walk` order, so a
mutant's name, such as `_w_mode.const3`, is stable while its function is
unchanged.  `--seed` samples SAMPLE of the sites.

Each mutant runs in its own child process, one after another: the package
is copied from `<root>/src` to a temporary directory with the one site
changed, and the child runs the guard on each variable list y1..yn,
n in VARIABLE_COUNTS, under an address-space limit.  Per list it reports
  stop     the guard raised RuleOracleDivergence, as it does for any
           exception raised while a row of its battery is checked
  crash    any other exception: one raised before the rows are checked,
           while the battery is built or embedded, or an import error
  pass     the guard accepted the mutant
  timeout  the list ran past TIMEOUT seconds.
The unmutated package (parsed and unparsed the same way) must pass on every
list first.  `--ci` runs CI_SLICE and exits 1 unless the guard stops every
one of those mutants on every list.  `--json PATH` writes the outcomes.
"""

from __future__ import annotations

import argparse
import ast
import json
import random
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
VARIABLE_COUNTS = (2, 3, 4)
TARGETS = {
    "freefield.py": ("_gen_mode", "_w_mode", "_peel", "_factor_mode", "_word_mode",
                     "_expand", "nproduct"),
    "algebroid.py": ("_vprod0", "_vprod1", "embed", "_exact_part"),
}
MEMORY_LIMIT = 512 << 20  # bytes of address space per child
TIMEOUT = 5.0  # seconds per variable list
SAMPLE = 60  # mutants per seed

_SWAP_OP = {ast.Add: ast.Sub, ast.Sub: ast.Add, ast.Mult: ast.Add, ast.Div: ast.Mult,
            ast.FloorDiv: ast.Mult, ast.Mod: ast.FloorDiv, ast.Pow: ast.Mult,
            ast.LShift: ast.RShift, ast.RShift: ast.LShift, ast.BitOr: ast.BitAnd,
            ast.BitAnd: ast.BitOr, ast.BitXor: ast.BitOr, ast.And: ast.Or, ast.Or: ast.And}
_SWAP_CMP = {ast.Eq: ast.NotEq, ast.NotEq: ast.Eq, ast.Lt: ast.LtE, ast.LtE: ast.Lt,
             ast.Gt: ast.GtE, ast.GtE: ast.Gt, ast.Is: ast.IsNot, ast.IsNot: ast.Is,
             ast.In: ast.NotIn, ast.NotIn: ast.In}

# mutants the guard stops on every variable list, one or more per target
# function, with the change each one makes; the first two made one product
# over all 180 field pairs run past 60 s in `_w_mode`
CI_SLICE = {
    "_gen_mode.const0": "p < 0 -> p < 1",
    "_gen_mode.cmp4": "p == 0 -> p != 0",
    "_gen_mode.cmp2": "p < 0 -> p <= 0",
    "_exact_part.cmp0": "cls == 'd' -> cls != 'd'",
    "_expand.const0": "0 -> 1",
    "_expand.const1": "self._shape((alpha2, tail2))[0] -> self._shape((alpha2, tail2))[1]",
    "_factor_mode.const0": "factor == 0 -> factor == 1",
    "_factor_mode.op0": "(-1) ** m * _binom(l, m) -> (-1) ** m + _binom(l, m)",
    "_peel.const2": "(kind, val, 0, 0, tuple(new), tail) -> (kind, val, 1, 0, tuple(new), tail)",
    "_vprod0.cmp0": "cu == cv == 'd' -> cu != cv == 'd'",
    "_vprod0.cmp2": "cu == 'd' -> cu != 'd'",
    "_vprod1.cmp0": "cu == cv == 'd' -> cu != cv == 'd'",
    "_vprod1.op1": "cu != cv and i == j -> cu != cv or i == j",
    "_w_mode.cmp0": "big < 0 -> big <= 0",
    "_w_mode.cmp1": "s[:2] == ('d', i) -> s[:2] != ('d', i)",
    "_word_mode.cmp0": "wt_a + wt_b - n - 1 < 0 -> wt_a + wt_b - n - 1 <= 0",
    "_word_mode.cmp4": "n == -1 -> n != -1",
    "embed.neg0": "-c -> c",
    "nproduct.cmp0": "rw < 0 -> rw <= 0",
    "nproduct.const1": "rw < 0 -> rw < 1",
}


def _sites(func: ast.FunctionDef):
    """The mutable sites of a function, in `ast.walk` order: (kind, node,
    position), position being the operator's index within a comparison."""
    for node in ast.walk(func):
        if isinstance(node, (ast.BinOp, ast.AugAssign, ast.BoolOp)) and type(node.op) in _SWAP_OP:
            yield "op", node, None
        elif isinstance(node, ast.Compare):
            for pos, op in enumerate(node.ops):
                if type(op) in _SWAP_CMP:
                    yield "cmp", node, pos
        elif (isinstance(node, ast.Constant) and type(node.value) is int):
            yield "const", node, None
        elif isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
            yield "neg", node, None


def _function(tree: ast.Module, name: str) -> ast.FunctionDef:
    found = [node for node in ast.walk(tree)
             if isinstance(node, ast.FunctionDef) and node.name == name]
    if len(found) != 1:
        raise SystemExit(f"expected one function {name}, found {len(found)}")
    return found[0]


def list_mutants(src: Path) -> dict[str, tuple[str, str, str, int]]:
    """{mutant name: (file, function, kind, index of that kind)} over TARGETS."""
    out = {}
    for file, names in TARGETS.items():
        tree = ast.parse((src / file).read_text())
        for name in names:
            seen: dict[str, int] = {}
            for kind, _, _ in _sites(_function(tree, name)):
                index = seen[kind] = seen.get(kind, -1) + 1
                out[f"{name}.{kind}{index}"] = (file, name, kind, index)
    return out


def mutate(src: Path, mutant: tuple[str, str, str, int]) -> tuple[str, str]:
    """The mutated source of the mutant's file, and a one-line description."""
    file, name, kind, index = mutant
    tree = ast.parse((src / file).read_text())
    kind_sites = [(node, pos) for k, node, pos in _sites(_function(tree, name)) if k == kind]
    node, pos = kind_sites[index]
    parents = {child: parent for parent in ast.walk(tree) for child in ast.iter_child_nodes(parent)}
    # a constant is shown in the expression that holds it
    shown = parents[node] if kind == "const" and isinstance(parents[node], ast.expr) else node
    before = ast.unparse(shown)
    if kind == "op":
        node.op = _SWAP_OP[type(node.op)]()
    elif kind == "cmp":
        node.ops[pos] = _SWAP_CMP[type(node.ops[pos])]()
    elif kind == "const":
        node.value += 1
    else:  # drop the minus: the operand takes the node's place in its parent
        parent = parents[node]
        for field, value in ast.iter_fields(parent):
            if value is node:
                setattr(parent, field, node.operand)
            elif isinstance(value, list):
                setattr(parent, field, [node.operand if v is node else v for v in value])
        shown = node.operand
    return ast.unparse(tree), f"{file}:{node.lineno}: {before} -> {ast.unparse(shown)}"


_CHILD = """
import json, resource, signal, sys
resource.setrlimit(resource.RLIMIT_AS, ({limit}, {limit}))
sys.path.insert(0, {path!r})

class Timeout(BaseException):
    pass

def alarm(*_):
    raise Timeout

signal.signal(signal.SIGALRM, alarm)
try:
    from vertexalg import algebroid
    from vertexalg.errors import RuleOracleDivergence
    if not algebroid.__file__.startswith({path!r}):
        raise ImportError(f"imported {{algebroid.__file__}}, not the mutant")
except Exception as exc:
    print(json.dumps(["import", "crash", repr(exc)[:200]]), flush=True)
    sys.exit(0)
for n in {counts!r}:
    signal.setitimer(signal.ITIMER_REAL, {timeout})
    try:
        algebroid._validate_rules(tuple(f"y{{i}}" for i in range(1, n + 1)))
        outcome, why = "pass", ""
    except RuleOracleDivergence as exc:
        outcome, why = "stop", str(exc)[:200]
    except Timeout:
        outcome, why = "timeout", ""
    except Exception as exc:
        outcome, why = "crash", repr(exc)[:200]
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
    print(json.dumps([n, outcome, why]), flush=True)
"""


def run_child(src: Path, file: str, text: str):
    """Run the guard on a copy of the package with `file` replaced by text;
    returns {variable count: outcome} and {variable count: the error}."""
    with tempfile.TemporaryDirectory(prefix="guard-mutant-") as tmp:
        pkg = Path(tmp) / "vertexalg"
        shutil.copytree(src, pkg, ignore=shutil.ignore_patterns("__pycache__"))
        (pkg / file).write_text(text)
        code = _CHILD.format(limit=MEMORY_LIMIT, path=tmp, counts=VARIABLE_COUNTS,
                             timeout=TIMEOUT)
        outcomes, errors = {n: "timeout" for n in VARIABLE_COUNTS}, {}
        proc = subprocess.Popen([sys.executable, "-I", "-B", "-c", code],
                                stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
        try:
            out, _ = proc.communicate(timeout=TIMEOUT * len(VARIABLE_COUNTS) + 30)
        except subprocess.TimeoutExpired:  # stuck where the alarm cannot reach
            proc.kill()
            out, _ = proc.communicate()
        for line in out.splitlines():
            n, outcome, error = json.loads(line)
            for m in VARIABLE_COUNTS if n == "import" else (n,):
                outcomes[m], errors[m] = outcome, error
        return outcomes, errors


def baseline(src: Path) -> None:
    """Every target file, parsed and unparsed, must pass on every list."""
    for file in TARGETS:
        text = ast.unparse(ast.parse((src / file).read_text()))
        outcomes, errors = run_child(src, file, text)
        if set(outcomes.values()) != {"pass"}:
            raise SystemExit(f"the unmutated package does not pass the guard: {file} {outcomes} {errors}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--root", type=Path, default=ROOT,
                        help="the checkout whose src/vertexalg is mutated")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--ci", action="store_true", help="run CI_SLICE; all must stop")
    parser.add_argument("--json", type=Path, help="write the outcomes to this file")
    args = parser.parse_args(argv)
    src = args.root / "src" / "vertexalg"
    mutants = list_mutants(src)
    names = list(CI_SLICE) if args.ci else []
    if args.seed is not None:
        names += random.Random(args.seed).sample(sorted(mutants), min(SAMPLE, len(mutants)))
    unknown = [name for name in names if name not in mutants]
    if unknown or not names:
        parser.error(f"unknown mutants {unknown}" if unknown else "give --seed or --ci")
    baseline(src)
    print(f"{len(mutants)} sites; running {len(names)} mutants of {src}")
    print("| mutant | change | " + " | ".join(f"n = {n}" for n in VARIABLE_COUNTS) + " |")
    print("|---|---|" + "---|" * len(VARIABLE_COUNTS))
    results, failures = {}, []
    for name in names:
        text, change = mutate(src, mutants[name])
        outcomes, errors = run_child(src, mutants[name][0], text)
        results[name] = {"change": change, "outcomes": outcomes, "errors": errors}
        print(f"| {name} | `{change}` | " + " | ".join(outcomes.values()) + " |", flush=True)
        if args.ci and name in CI_SLICE:
            if change.split(": ", 1)[1] != CI_SLICE[name]:
                failures.append(f"{name}: the site moved, it now makes {change}")
            elif set(outcomes.values()) != {"stop"}:
                failures.append(f"{name}: {outcomes}")
    for n in VARIABLE_COUNTS:
        tally: dict[str, int] = {}
        for result in results.values():
            outcome = result["outcomes"][n]
            tally[outcome] = tally.get(outcome, 0) + 1
        print(f"n = {n}: " + ", ".join(f"{k} {v}" for k, v in sorted(tally.items())))
    if args.json:
        args.json.write_text(json.dumps(results, indent=1) + "\n")
    for failure in failures:
        print(f"not stopped: {failure}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
