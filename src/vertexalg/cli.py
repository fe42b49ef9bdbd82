"""Command-line front end for the exact verifiers.

Subcommands: axioms, nprod, quantize, classify, glue-check, extend, morphism,
derivations, witness, membership, virasoro; each takes only the flags listed
for it in COMMANDS, plus --param, --format and --config.  parse_args reads
the command line in one pass over COMMANDS and FLAGS, so importing this
module loads no argument-parsing library.  A flag's value may start with a
minus (--omega "-w[1,1]"), and so may the expression of nprod and extend.
Text reports include timing; the machine format is a single JSON document
with deterministic key order and no timing, so runs with the same seed and
flags are byte-identical.
Exit codes: 0 for a passing verdict, 1 for a failing one, 2 for usage errors.
"""

from __future__ import annotations

import functools
import json
import operator
import random
import sys
import time
from fractions import Fraction
from types import SimpleNamespace

from .algebroid import (
    WeightOneElement,
    extract,
    fock_algebra,
    gl_basis,
    morphism_check,
)
from .errors import (
    InhomogeneousInput,
    InvalidInput,
    VertexAlgError,
    WeightBoundExceeded,
)
from .expr import (
    Gluing,
    Ident,
    Neg,
    NProd,
    Num,
    ParseError,
    Power,
    Product,
    Sum,
    Translate,
    identifiers,
    is_identifier,
    parse_expr,
)
from .freefield import FreeFieldAlgebra, axiom_defect, nproduct, random_element, translate
from .geometry import (
    V2,
    GluingForm,
    conformal_glue_check,
    extend_section,
    transition,
)
from .laurent import LaurentElement
from .scalar import SCALAR_TYPES, ParamScalar, exact, power
from .veronese import (
    build_model,
    classify_admissible,
    derivations,
    gl2_chart_images,
    higher_witness,
    omega_membership,
    solve_charge,
)

PASSING = {"pass", "unique", "non-quantizable", "member"}


class Report:
    def __init__(self, command: str, status: str, payload: dict):
        self.command = command
        self.status = status
        self.payload = payload
        self.timing = 0.0

    def render(self, fmt: str) -> str:
        if fmt == "machine":
            doc = {"command": self.command, "status": self.status,
                   "payload": self.payload}
            return json.dumps(doc, sort_keys=True)
        lines = [f"command: {self.command}", f"status: {self.status}"]
        for key in sorted(self.payload):
            lines.append(f"{key}: {self.payload[key]}")
        lines.append(f"timing: {self.timing:.3f}s")
        return "\n".join(lines)


class UsageError(Exception):
    pass


def _arg(args, name: str, default: int, least: int) -> int:
    """An integer flag, or its default, checked against its least value."""
    value = getattr(args, name)
    if value is None:
        value = default
    if value < least:
        flag = name.replace("_", "-")
        raise UsageError(f"--{flag} must be at least {least}, got {value}")
    return value


# -- expression evaluation -----------------------------------------------------


def _is_field(name: str) -> bool:
    """Whether name reads as a coordinate y<i> or a frame field d<i>."""
    return name[:1] in ("y", "d") and name[1:].isdecimal()


def _name(name: str, n_vars: int, params: dict[str, Fraction]):
    """("y", i) or ("d", i) for the coordinate or frame field y<i> or d<i>,
    1 <= i <= n_vars; any other identifier is a parameter: its --param value,
    else the formal parameter."""
    if _is_field(name):
        i = int(name[1:])
        if not 1 <= i <= n_vars:
            raise UsageError(f"{name} is out of range: the variables are "
                             f"{', '.join(f'y{j}' for j in range(1, n_vars + 1))}")
        return name[0], i
    return exact(params[name]) if name in params else ParamScalar.var(name)


def eval_fock(node, alg: FreeFieldAlgebra, params: dict[str, Fraction]):
    """Evaluate an expression tree inside the free-field algebra."""
    if isinstance(node, Num):
        return alg.vacuum().scale(exact(node.value))
    if isinstance(node, Ident):
        value = _name(node.name, len(alg.variables), params)
        if isinstance(value, SCALAR_TYPES):
            return alg.vacuum().scale(value)
        kind, i = value
        return alg.coordinate(i) if kind == "y" else alg.frame(i)
    if isinstance(node, Translate):
        return translate(eval_fock(node.arg, alg, params))
    if isinstance(node, Gluing):
        raise UsageError("gluing symbols w[a,b] only make sense in --omega")
    if isinstance(node, Neg):
        return -eval_fock(node.arg, alg, params)
    # a chain is folded left to right in a loop, however long
    if isinstance(node, Sum):
        return functools.reduce(operator.add,
                                (eval_fock(term, alg, params) for term in node.terms))
    if isinstance(node, Product):
        return functools.reduce(lambda left, right: nproduct(left, -1, right),
                                (eval_fock(factor, alg, params) for factor in node.factors))
    if isinstance(node, NProd):
        out = eval_fock(node.operands[0], alg, params)
        for n, operand in zip(node.modes, node.operands[1:]):
            out = nproduct(out, n, eval_fock(operand, alg, params))
        return out
    if isinstance(node, Power):
        base = eval_fock(node.base, alg, params)
        if not base.weight:  # weight 0 or the zero element: a chart function
            return alg.from_laurent(alg.to_laurent(base) ** node.exponent)
        if node.exponent < 0:
            raise UsageError("negative powers need an invertible chart function")
        out = alg.vacuum()
        for _ in range(node.exponent):
            out = nproduct(out, -1, base)
        return out
    raise UsageError(f"cannot evaluate node {node!r}")


def _add_gluing(left, right):
    if isinstance(left, GluingForm) != isinstance(right, GluingForm):
        raise UsageError("cannot add a scalar and a gluing form")
    return left + right


def _multiply_gluing(left, right):
    if isinstance(left, SCALAR_TYPES) and isinstance(right, GluingForm):
        return right.scale(left)
    if isinstance(left, GluingForm) and isinstance(right, SCALAR_TYPES):
        return left.scale(right)
    if isinstance(left, SCALAR_TYPES) and isinstance(right, SCALAR_TYPES):
        return left * right
    raise UsageError("cannot multiply two gluing forms")


def eval_gluing(node, params: dict[str, Fraction]):
    """Evaluate an expression tree to a gluing form or a scalar."""
    if isinstance(node, Num):
        return exact(node.value)
    if isinstance(node, Ident):
        value = _name(node.name, len(V2), params)
        if not isinstance(value, SCALAR_TYPES):
            raise UsageError(f"{node.name} names a coordinate or frame field; "
                             "a gluing form takes only scalar coefficients")
        return value
    if isinstance(node, Gluing):
        return GluingForm.basis(node.a, node.b)
    if isinstance(node, Neg):
        return -eval_gluing(node.arg, params)
    if isinstance(node, Sum):
        return functools.reduce(_add_gluing,
                                (eval_gluing(term, params) for term in node.terms))
    if isinstance(node, Product):
        return functools.reduce(_multiply_gluing,
                                (eval_gluing(factor, params) for factor in node.factors))
    if isinstance(node, Power):
        base = eval_gluing(node.base, params)
        if isinstance(base, SCALAR_TYPES):
            return power(base, node.exponent)
    raise UsageError("only scalars and w[a,b] terms are allowed in a gluing form")


def _require_gluing(node, params) -> GluingForm:
    out = eval_gluing(node, params)
    if not isinstance(out, GluingForm):
        raise UsageError("--omega must evaluate to a gluing form")
    return out


def _section_from_expr(node, params, n_vars: int = 2,
                       chart: str = "U1") -> WeightOneElement:
    variables = tuple(f"y{i}" for i in range(1, n_vars + 1))
    alg = fock_algebra(variables)
    elem = eval_fock(node, alg, params)
    return extract(elem, chart)


# -- command implementations -----------------------------------------------------


def _cmd_axioms(args, params) -> Report:
    if args.seed is None:
        if args.format == "machine":
            raise UsageError("machine-format randomized runs need --seed")
        args.seed = random.SystemRandom().randint(0, 2 ** 31)
    rng = random.Random(args.seed)
    weight = _arg(args, "weight", 2, 0)
    trials = _arg(args, "trials", 200, 1)
    variables = tuple(f"y{i}" for i in range(1, _arg(args, "n", 2, 1) + 1))
    alg = FreeFieldAlgebra(variables, weight * 2 + 2)

    bad = 0
    for _ in range(trials):
        a = random_element(alg, rng, weight)
        b = random_element(alg, rng, weight)
        c = alg.coordinate(rng.randint(1, len(variables)))
        n = rng.randint(-1, 1)
        if not axiom_defect("vacuum", a).is_zero():
            bad += 1
        if not axiom_defect("translation", a, n, b).is_zero():
            bad += 1
        if not axiom_defect("skew", a, n, b).is_zero():
            bad += 1
        if not axiom_defect("jacobi", a, rng.randint(0, 1), b, n, c).is_zero():
            bad += 1
    status = "pass" if bad == 0 else "fail"
    return Report("axioms", status,
                  {"trials": trials, "defects": bad, "seed": args.seed,
                   "weight": weight})


def _cmd_nprod(args, params) -> Report:
    n_vars = _arg(args, "n", 2, 1)
    weight = _arg(args, "weight", 3, 0)
    variables = tuple(f"y{i}" for i in range(1, n_vars + 1))
    alg = fock_algebra(variables, weight)
    value = eval_fock(args.expr, alg, params)
    return Report("nprod", "pass", {"value": str(value)})


def _cmd_quantize(args, params) -> Report:
    model = build_model(2, args.N, args.degree_bound)
    res = solve_charge(model)
    payload = {"charge": None if res.charge is None else str(res.charge),
               "gluing": repr(res.admissible_gluing)}
    return Report("quantize", res.status, payload)


def _cmd_classify(args, params) -> Report:
    bound = _arg(args, "degree_bound", 4, 2)
    model = build_model(2, args.N)
    survivors = classify_admissible(model, bound)
    return Report("classify", "pass",
                  {"bound": bound, "survivors": [repr(s) for s in survivors]})


def _cmd_glue_check(args, params) -> Report:
    omega = _require_gluing(args.omega, params)
    if not omega:
        raise UsageError("--omega is zero: there is no gluing form to check")
    ok = conformal_glue_check(omega)
    return Report("glue-check", "pass" if ok else "fail", {"omega": repr(omega)})


def _cmd_extend(args, params) -> Report:
    omega = _require_gluing(args.omega, params)
    section = _section_from_expr(args.expr, params, chart=args.chart)
    if not section:
        raise UsageError("the section is zero: there is nothing to extend")
    out = extend_section(section, omega)
    if out is None:
        return Report("extend", "fail", {"section": repr(section)})
    return Report("extend", "pass",
                  {"section": repr(out),
                   "other_chart": repr(transition(out, omega))})


def _cmd_morphism(args, params) -> Report:
    n = _arg(args, "n", 2, 2)
    if n == 2:
        k = exact(params["k"]) if "k" in params else ParamScalar.var("k")
        images = gl2_chart_images(k)
    else:
        variables = tuple(f"y{i}" for i in range(1, n + 1))
        currents = [(a, b) for a in range(1, n + 1) for b in range(1, n + 1)]
        images = {name: WeightOneElement.field(
                      "U1", variables, b, LaurentElement.coordinate(variables, a))
                  for name, (a, b) in zip(gl_basis(n), currents)}
    rep = morphism_check(images)
    payload = {"levels": None if rep.levels is None else
               [str(x) for x in rep.levels],
               "failures": [str(f) for f in rep.failures]}
    return Report("morphism", rep.status, payload)


def _cmd_derivations(args, params) -> Report:
    model = build_model(_arg(args, "n", 2, 2), args.N, args.degree_bound)
    rep = derivations(model, args.degree)
    return Report("derivations", "pass",
                  {"degree": rep.degree, "dimension": rep.dimension,
                   "gl_generates": rep.gl_generates})


def _cmd_witness(args, params) -> Report:
    model = build_model(args.n, args.N)
    witness, verdict = higher_witness(model)
    return Report("witness", verdict, {"witness": repr(witness)})


def _cmd_membership(args, params) -> Report:
    n = _arg(args, "n", 2, 2)
    model = build_model(n, args.N, args.degree_bound)
    section = _section_from_expr(args.omega, params, n_vars=n)
    if section.field_part:
        raise UsageError("--omega must be a pure one-form")
    if not section:
        raise UsageError("--omega is zero: there is no one-form to test")
    member = omega_membership(section.form_part, model)
    return Report("membership", "member" if member else "non-member",
                  {"omega": repr(section.form_part)})


def _cmd_virasoro(args, params) -> Report:
    n = _arg(args, "n", 2, 1)
    weight = _arg(args, "weight", 4, 0)
    variables = tuple(f"y{i}" for i in range(1, n + 1))
    alg = FreeFieldAlgebra(variables, weight)
    L = alg.virasoro_element()
    checks = {
        "L_(0)L = T(L)": nproduct(L, 0, L) == translate(L),
        "L_(1)L = 2L": nproduct(L, 1, L) == L.scale(2),
        "L_(2)L = 0": nproduct(L, 2, L).is_zero(),
        "L_(3)L = n*vac": nproduct(L, 3, L) == alg.vacuum().scale(n),
    }
    status = "pass" if all(checks.values()) else "fail"
    return Report("virasoro", status,
                  {name: bool(ok) for name, ok in checks.items()})


# the keys a --config file may set, each to an integer
CONFIG_KEYS = ("degree_bound", "weight", "trials")


def _read_config(path: str) -> dict[str, int]:
    """The `key = value` lines of a UTF-8 config file (`#` starts a comment):
    each key one of CONFIG_KEYS, given once, with an integer value."""
    out = {}
    try:
        with open(path, encoding="utf-8") as handle:
            text = handle.read()
    except OSError as exc:
        raise UsageError(f"cannot read config {path!r}: {exc.strerror}") from exc
    except UnicodeDecodeError as exc:
        raise UsageError(f"cannot read config {path!r}: it is not UTF-8 text") from exc
    for raw in text.split("\n"):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise UsageError(f"bad config line: {raw.strip()!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in CONFIG_KEYS:
            raise UsageError(f"config key {key!r} is not one of "
                             f"{', '.join(CONFIG_KEYS)}")
        if key in out:
            raise UsageError(f"config key {key} is given twice")
        try:
            out[key] = int(value)
        except ValueError as exc:
            raise UsageError(f"config {key} needs an integer, "
                             f"got {value!r}") from exc
    return out


def _parse_expressions(args) -> set[str]:
    """Parse the subcommand's expression flags in place; return the names
    its inputs read: the identifiers of those expressions, plus k for the
    two-variable morphism."""
    read = set()
    for flag in ("expr", "omega"):
        text = getattr(args, flag, None)
        if text is not None:
            tree = parse_expr(text)
            setattr(args, flag, tree)
            read |= identifiers(tree)
    if args.command == "morphism" and args.n in (None, 2):
        read.add("k")
    return read


def _parse_params(pairs) -> dict[str, Fraction]:
    """name=value pairs: each name an identifier, no coordinate or frame
    field, given once; each value a rational."""
    params = {}
    for pair in pairs:
        if "=" not in pair:
            raise UsageError(f"--param expects name=value, got {pair!r}")
        name, value = (part.strip() for part in pair.split("=", 1))
        if not is_identifier(name):
            raise UsageError(f"--param name {name!r} is not an identifier")
        if _is_field(name):
            raise UsageError(f"--param {name} names a coordinate or frame field, "
                             "not a parameter")
        if name in params:
            raise UsageError(f"--param {name} is given twice")
        try:
            params[name] = Fraction(value)
        except (ValueError, ZeroDivisionError) as exc:
            raise UsageError(f"--param {name} needs a rational value, "
                             f"got {value!r}") from exc
    return params


# flag -> how its value is read: "type" (str when absent), "choices", and
# "default" (None when absent); --param may repeat and collects a list
FLAGS = {
    "N": {"type": int},
    "n": {"type": int},
    "weight": {"type": int},
    "trials": {"type": int},
    "seed": {"type": int},
    "degree": {"type": int, "default": 0},
    "degree_bound": {"type": int},
    "omega": {},
    "chart": {"choices": ("U1", "U2"), "default": "U1"},
    "param": {},
    "format": {"choices": ("text", "machine"), "default": "text"},
    "config": {},
}

# the flags every subcommand takes besides its own
SHARED = ("param", "format", "config")

# subcommand -> (handler, required flags, optional flags); "expr" is the
# positional expression
COMMANDS = {
    "axioms": (_cmd_axioms, (), ("n", "weight", "trials", "seed")),
    "nprod": (_cmd_nprod, ("expr",), ("n", "weight")),
    "quantize": (_cmd_quantize, ("N",), ("degree_bound",)),
    "classify": (_cmd_classify, ("N",), ("degree_bound",)),
    "glue-check": (_cmd_glue_check, ("omega",), ()),
    "extend": (_cmd_extend, ("expr", "omega"), ("chart",)),
    "morphism": (_cmd_morphism, (), ("n",)),
    "derivations": (_cmd_derivations, ("N",), ("n", "degree", "degree_bound")),
    "witness": (_cmd_witness, ("n", "N"), ()),
    "membership": (_cmd_membership, ("N", "omega"), ("n", "degree_bound")),
    "virasoro": (_cmd_virasoro, (), ("n", "weight")),
}


def _option(flag: str) -> str:
    return "--" + flag.replace("_", "-")


def _usage(command: str | None) -> str:
    """The help text of one subcommand, or of the program when command is
    None."""
    if command is None:
        return f"usage: vertexalg [-h] {{{','.join(COMMANDS)}}} ...\n\n{__doc__}"
    _, required, optional = COMMANDS[command]
    words = ["usage: vertexalg", command, "[-h]"]
    for flag in required + optional + SHARED:
        if flag == "expr":
            word = "expr"
        else:
            choices = FLAGS[flag].get("choices")
            metavar = "{" + ",".join(choices) + "}" if choices else flag.upper()
            word = f"{_option(flag)} {metavar}"
        words.append(word if flag in required else f"[{word}]")
    return " ".join(words) + "\n\n-h, --help  show this help message and exit"


def parse_args(argv: list[str]) -> SimpleNamespace:
    """Read a command line against COMMANDS and FLAGS: the subcommand, then
    its flags as `--flag value` or `--flag=value`, spelled in full, and for
    nprod and extend the expression, which may follow `--`.  A word counts
    as an option only when it names one of the subcommand's flags or is
    -h/--help, so a value may start with a minus; a word that starts with
    `--` and a letter must name a flag.  A later flag overrides an earlier
    one, and an unset flag is None unless FLAGS gives a default.  -h/--help
    prints the usage and raises SystemExit(0); any other refusal is a
    UsageError."""
    if argv and argv[0] in ("-h", "--help"):
        print(_usage(None))
        raise SystemExit(0)
    if not argv:
        raise UsageError("the following arguments are required: command")
    command = argv[0]
    if command not in COMMANDS:
        choices = ", ".join(f"'{name}'" for name in COMMANDS)
        raise UsageError(f"argument command: invalid choice: {command!r} "
                         f"(choose from {choices})")
    _, required, optional = COMMANDS[command]
    flags = {_option(flag): flag for flag in required + optional + SHARED
             if flag != "expr"}
    args = SimpleNamespace(command=command,
                           **{flag: FLAGS[flag].get("default") for flag in flags.values()})
    args.param = []
    takes_expr = "expr" in required
    if takes_expr:
        args.expr = None
    positional, unknown = [], []
    words = iter(argv[1:])
    for word in words:
        if word == "--" and takes_expr:
            positional.extend(words)
            break
        if word in ("-h", "--help"):
            print(_usage(command))
            raise SystemExit(0)
        option, eq, value = word.partition("=")
        if option not in flags:
            # a word shaped like a long flag names one this subcommand lacks
            (unknown if word[:2] == "--" and word[2:3].isalpha() else positional).append(word)
            continue
        if not eq:
            value = next(words, None)
            if value is None or value in ("-h", "--help", "--") \
                    or value.partition("=")[0] in flags:
                raise UsageError(f"argument {option}: expected one argument")
        flag = flags[option]
        spec = FLAGS[flag]
        if "type" in spec:
            try:
                value = spec["type"](value)
            except ValueError:
                raise UsageError(f"argument {option}: invalid "
                                 f"{spec['type'].__name__} value: {value!r}") from None
        choices = spec.get("choices")
        if choices and value not in choices:
            raise UsageError(f"argument {option}: invalid choice: {value!r} "
                             f"(choose from {', '.join(map(repr, choices))})")
        if flag == "param":
            args.param.append(value)
        else:
            setattr(args, flag, value)
    if takes_expr and positional:
        args.expr = positional.pop(0)
    missing = [flag if flag == "expr" else _option(flag) for flag in required
               if getattr(args, flag) is None]
    if missing:
        raise UsageError(f"the following arguments are required: {', '.join(missing)}")
    if unknown or positional:
        raise UsageError(f"unrecognized arguments: {' '.join(unknown + positional)}")
    return args


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        args = parse_args(argv)
        if args.config:
            # a config key fills a flag only where the subcommand declares it
            # and the command line leaves it unset
            for key, value in _read_config(args.config).items():
                if getattr(args, key, 0) is None:
                    setattr(args, key, value)
        params = _parse_params(args.param)
        unread = sorted(params.keys() - _parse_expressions(args))
        if unread:
            raise UsageError(f"--param {', '.join(unread)} is read by no input "
                             f"of {args.command}")
        start = time.monotonic()
        report = COMMANDS[args.command][0](args, params)
        report.timing = time.monotonic() - start
    except (UsageError, ParseError, InvalidInput, InhomogeneousInput,
            WeightBoundExceeded) as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except VertexAlgError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except RecursionError:
        # the Fock engine recurses once per unit of an exponent
        print("error: the input is too deep for the recursive engine "
              f"(Python recursion limit {sys.getrecursionlimit()})", file=sys.stderr)
        return 1
    print(report.render(args.format))
    return 0 if report.status in PASSING else 1


if __name__ == "__main__":
    sys.exit(main())
