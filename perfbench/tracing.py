"""Per-layer spans and counters, recorded from outside the program.

`install` replaces the public functions of each vertexalg layer by wrappers.
Several modules import kernel functions by name, so a function is rebound in
every vertexalg module that holds it, not only where it is defined.  Spans
are kept in memory and written out once, by `Tracer.dump`.

Counts are deterministic: two runs with the same inputs give the same counts.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import Counter, defaultdict

# (layer, metric stem, module, attribute): calls timed as spans
SPAN_TARGETS = (
    ("cli", "main", "vertexalg.cli", "main"),
    ("veronese", "solve_charge", "vertexalg.veronese", "solve_charge"),
    ("veronese", "classify_admissible", "vertexalg.veronese", "classify_admissible"),
    ("veronese", "relation_defect", "vertexalg.veronese", "relation_defect"),
    ("veronese", "membership_residuals", "vertexalg.veronese", "membership_residuals"),
    ("veronese", "higher_witness", "vertexalg.veronese", "higher_witness"),
    ("veronese", "derivations", "vertexalg.veronese", "derivations"),
    ("geometry", "extend_section", "vertexalg.geometry", "extend_section"),
    ("algebroid", "morphism_check", "vertexalg.algebroid", "morphism_check"),
    ("algebroid", "vprod", "vertexalg.algebroid", "vprod"),
    ("algebroid", "validate", "vertexalg.algebroid", "_validate_rules"),
    ("freefield", "axiom_defect", "vertexalg.freefield", "axiom_defect"),
    ("freefield", "nproduct", "vertexalg.freefield", "nproduct"),
    ("freefield", "translate", "vertexalg.freefield", "translate"),
    ("scalar", "solve", "vertexalg.scalar", "solve_linear_system"),
)
SCALAR_OPS = ("__add__", "__radd__", "__sub__", "__rsub__",
              "__mul__", "__rmul__", "__truediv__")

# per-layer metric -> unit; `Tracer.metrics` reports exactly these
PER_LAYER_UNITS = {
    "freefield.word_mode.calls": "count",
    "freefield.word_mode.distinct": "count",
    "freefield.word_mode.reuse_ratio": "ratio",
    "freefield.w_mode.calls": "count",
    "freefield.nproduct.calls": "count",
    "freefield.nproduct.s": "s",
    "freefield.self_s": "s",
    "scalar.ops": "count",
    "scalar.param_ops_ratio": "ratio",
    "scalar.solve.calls": "count",
    "scalar.solve.s": "s",
    "laurent.mul.calls": "count",
    "laurent.derive.calls": "count",
    "algebroid.validate.s": "s",
    "algebroid.vprod.calls": "count",
    "algebroid.vprod.s": "s",
    "algebroid.morphism_check.s": "s",
    "algebroid.self_s": "s",
    "geometry.extend_section.calls": "count",
    "geometry.extend_section.s": "s",
    "geometry.self_s": "s",
    "veronese.relation_defect.s": "s",
    "veronese.membership_residuals.calls": "count",
    "veronese.membership_residuals.s": "s",
    "veronese.solve_charge.s": "s",
    "veronese.classify_admissible.s": "s",
    "veronese.higher_witness.s": "s",
    "veronese.self_s": "s",
    "veronese.derivations.s": "s",
    "veronese.derivations.unknowns": "count",
    "cli.main.s": "s",
    "cli.self_s": "s",
}
# metrics that must repeat exactly between runs with the same seed
EXACT = tuple(name for name, unit in PER_LAYER_UNITS.items()
              if unit in ("count", "ratio"))


class Tracer:
    """Spans and counters of one process."""

    def __init__(self):
        self.case = None          # index of the running case: the request id
        self.spans: list[tuple] = []
        self.counts: Counter = Counter()
        self.seconds: defaultdict = defaultdict(float)   # outermost calls only
        self.self_s: defaultdict = defaultdict(float)
        self.word_inputs: set = set()
        self._stack: list[list] = []
        self._open: Counter = Counter()
        self._in_scalar_op = False

    def _enter(self, key: str) -> None:
        parent = self._stack[-1][0] if self._stack else None
        self._stack.append([len(self.spans) + len(self._stack), parent, key,
                            time.perf_counter(), 0.0])
        self._open[key] += 1

    def _exit(self, layer: str) -> None:
        end = time.perf_counter()
        span_id, parent, key, start, children = self._stack.pop()
        dur = end - start
        if self._stack:
            self._stack[-1][4] += dur
        self._open[key] -= 1
        if not self._open[key]:
            self.seconds[key] += dur
        self.counts[key + ".calls"] += 1
        self.self_s[layer] += dur - children
        self.spans.append((span_id, parent, self.case, key, start, end))

    def span(self, layer: str, stem: str, fn, observe=None):
        key = f"{layer}.{stem}"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self._enter(key)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._exit(layer)
            if observe is not None:
                observe(self, args, result)
            return result

        return wrapper

    def counted(self, key: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.counts[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    def word_mode(self, fn):
        """Count _word_mode calls and distinct inputs; rng passes untouched."""
        @functools.wraps(fn)
        def wrapper(alg, alpha, tail, n, terms, *rest, **kwargs):
            self.counts["freefield.word_mode.calls"] += 1
            self.word_inputs.add((alpha, tail, n, frozenset(terms.items())))
            return fn(alg, alpha, tail, n, terms, *rest, **kwargs)

        return wrapper

    def scalar_op(self, fn):
        """Count one ParamScalar operation; delegation inside it is not counted."""
        @functools.wraps(fn)
        def wrapper(a, b):
            if self._in_scalar_op:
                return fn(a, b)
            self._in_scalar_op = True
            try:
                self.counts["scalar.ops"] += 1
                if not a.is_constant() or (type(b) is type(a) and not b.is_constant()):
                    self.counts["scalar.param_ops"] += 1
                return fn(a, b)
            finally:
                self._in_scalar_op = False

        return wrapper

    def metrics(self) -> dict[str, float]:
        out = {}
        for name in PER_LAYER_UNITS:
            if name.endswith(".calls") or name in ("scalar.ops",
                                                   "veronese.derivations.unknowns"):
                out[name] = self.counts[name]
            elif name.endswith(".self_s"):
                out[name] = self.self_s[name.split(".")[0]]
            elif name.endswith(".s"):
                out[name] = self.seconds[name[:-2]]
        calls = self.counts["freefield.word_mode.calls"]
        out["freefield.word_mode.distinct"] = len(self.word_inputs)
        out["freefield.word_mode.reuse_ratio"] = (
            1 - len(self.word_inputs) / calls if calls else 0.0)
        ops = self.counts["scalar.ops"]
        out["scalar.param_ops_ratio"] = self.counts["scalar.param_ops"] / ops if ops else 0.0
        return out

    def dump(self, path) -> None:
        """Write every span as one JSON line, in the order they closed."""
        with open(path, "w") as handle:
            for span_id, parent, case, key, start, end in self.spans:
                handle.write(json.dumps({"id": span_id, "parent": parent, "case": case,
                                         "name": key, "start": start, "end": end}) + "\n")


def _count_unknowns(tracer: Tracer, args, report) -> None:
    model = args[0]
    tracer.counts["veronese.derivations.unknowns"] += (
        len(model.generators) * len(report.monomials))


def _rebind(fn, wrapper) -> int:
    """Point every vertexalg binding of fn at wrapper; return how many."""
    found = 0
    for name, module in list(sys.modules.items()):
        if name != "vertexalg" and not name.startswith("vertexalg."):
            continue
        for attr, value in list(vars(module).items()):
            if value is fn:
                setattr(module, attr, wrapper)
                found += 1
    return found


def install(tracer: Tracer) -> None:
    """Wrap every layer; vertexalg must already be imported in full."""
    from vertexalg.freefield import FreeFieldAlgebra
    from vertexalg.laurent import LaurentElement
    from vertexalg.scalar import ParamScalar

    for layer, stem, module, attr in SPAN_TARGETS:
        fn = getattr(sys.modules[module], attr)
        observe = _count_unknowns if stem == "derivations" else None
        if not _rebind(fn, tracer.span(layer, stem, fn, observe)):
            raise RuntimeError(f"no binding of {module}.{attr} found")
    FreeFieldAlgebra._word_mode = tracer.word_mode(FreeFieldAlgebra._word_mode)
    FreeFieldAlgebra._w_mode = tracer.counted("freefield.w_mode.calls",
                                              FreeFieldAlgebra._w_mode)
    for attr in ("__mul__", "__rmul__"):
        setattr(LaurentElement, attr,
                tracer.counted("laurent.mul.calls", getattr(LaurentElement, attr)))
    LaurentElement.derive = tracer.counted("laurent.derive.calls", LaurentElement.derive)
    for attr in SCALAR_OPS:
        setattr(ParamScalar, attr, tracer.scalar_op(getattr(ParamScalar, attr)))
