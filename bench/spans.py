"""Span recorder for the traced run.

`SpanRecorder.install` wraps, from outside the package, every public function
of each tidlab module, every name another tidlab module binds to one of them
(for example `tidlab.graded.apply_diagram`), and the arithmetic methods of
the value classes.  Each call records a span: name, start, end and the span
that was open when it began.  Spans stay in memory in flat arrays and are
written out when the run ends.

Per-layer metrics are totals per traced pass.  A span's self time is its
duration minus the durations of its child spans.
"""

from __future__ import annotations

import importlib
import inspect
from array import array
from collections import defaultdict
from time import perf_counter

import numpy as np

LAYERS = ("tensors", "matrixops", "graded", "words", "cyclo", "diagrams", "cli")
ARITH = {
    "tensors": ("DenseTensor", ("__add__", "__sub__", "__neg__", "__mul__", "__rmul__")),
    "graded": ("GradedPair", ("__add__", "__sub__", "__mul__", "__rmul__")),
    "words": ("FormalSum", ("__add__", "__sub__", "__neg__", "__mul__", "__rmul__")),
    "cyclo": (
        "WeightPoly",
        ("__add__", "__radd__", "__sub__", "__rsub__", "__neg__", "__mul__", "__rmul__", "__pow__"),
    ),
}
ENUMERATE = "diagrams.enumerate_diagrams"


def _arith(layer: str) -> tuple[str, ...]:
    cls, methods = ARITH[layer]
    return tuple(f"{layer}.{cls}.{m}" for m in methods)


def _fns(layer: str, *names: str) -> tuple[str, ...]:
    return tuple(f"{layer}.{n}" for n in names)


def _words_expand(name: str) -> bool:
    return name.startswith("words.") and not name.startswith(("words.verify_", "words.FormalSum."))


# metric group -> the span names it sums (a tuple, or a predicate on the name)
GROUPS = {
    "tensors.apply_diagram": _fns("tensors", "apply_diagram"),
    "tensors.dense_arith": _arith("tensors"),
    "tensors.random_tensor": _fns("tensors", "random_tensor"),
    "matrixops.phi2": _fns("matrixops", "phi2"),
    "matrixops.brackets": _fns(
        "matrixops", "phi3", "phi4", "jacobi_cyclic_residual", "identity6_residual", "closed_remainder"
    ),
    "matrixops.relative_residual": _fns("matrixops", "relative_residual"),
    "graded.three_commutator": _fns("graded", "three_commutator"),
    "graded.residuals": _fns("graded", "cyclic_residual", "identity18_residual", "graded_relative_residual"),
    "graded.pair_arith": _arith("graded"),
    "graded.random_graded_pair": _fns("graded", "random_graded_pair"),
    "words.expand": _words_expand,
    "words.verify": _fns("words", "verify_identity6_symbolic", "verify_identity18_symbolic"),
    "words.formal_sum_arith": _arith("words"),
    "cyclo.weightpoly_arith": _arith("cyclo"),
    "cyclo.symmetric_ideal_membership": _fns("cyclo", "symmetric_ideal_membership"),
    "diagrams.enumerate": (ENUMERATE,),
    "cli": lambda name: name.startswith("cli."),
}


def _span_name(layer: str, attr: str) -> str:
    if layer == "cli" and attr.startswith("check_"):
        # check_identity18_numeric -> cli.check.identity18-numeric
        return "cli.check." + attr[len("check_"):].replace("_", "-")
    return f"{layer}.{attr}"


class SpanRecorder:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self.counts: dict[str, float] = defaultdict(float)
        self._hooks = {
            "tensors.apply_diagram": self._kernel,
            ENUMERATE: self._enumerated,
            "words.expand_identity18_instances": self._instances,
            **{name: self._terms for name in _arith("words")},
        }
        self._patches: list[tuple[object, str, object]] = []

    def __len__(self) -> int:
        return len(self.name_id)

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    # -- wrapping -----------------------------------------------------------

    def _wrap(self, name: str, fn):
        nid = self._id(name)
        name_id, parent, start, end, stack = self.name_id, self.parent, self.start, self.end, self._stack
        after = self._hooks.get(name)
        clock = perf_counter

        def span(*args, **kwargs):
            i = len(name_id)
            name_id.append(nid)
            parent.append(stack[-1])
            end.append(0.0)
            stack.append(i)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[i] = clock()
                stack.pop()
            if after is not None:
                after(args, kwargs, result, i)
            return result

        span.__wrapped__ = fn
        return span

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        import tidlab

        modules = {layer: importlib.import_module(f"tidlab.{layer}") for layer in LAYERS}
        namespaces = (tidlab, *modules.values())
        for layer, mod in modules.items():
            for attr, fn in list(vars(mod).items()):
                if attr.startswith("_") or not inspect.isfunction(fn) or fn.__module__ != mod.__name__:
                    continue
                wrapper = self._wrap(_span_name(layer, attr), fn)
                for ns in namespaces:
                    for key, value in list(vars(ns).items()):
                        if value is fn:
                            self._patch(ns, key, wrapper)
        for layer, (cls_name, methods) in ARITH.items():
            cls = getattr(modules[layer], cls_name)
            for m in methods:
                self._patch(cls, m, self._wrap(f"{layer}.{cls_name}.{m}", vars(cls)[m]))
        self._count_candidates(modules["diagrams"].ContractionDiagram)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- counters -----------------------------------------------------------

    def _count_candidates(self, cls) -> None:
        """Count ContractionDiagram objects built directly inside enumerate_diagrams."""
        init, enum_id = cls.__init__, self._id(ENUMERATE)
        stack, name_id, counts = self._stack, self.name_id, self.counts

        def counted_init(obj, *args, **kwargs):
            top = stack[-1]
            if top >= 0 and name_id[top] == enum_id:
                counts["diagrams.candidates"] += 1
            init(obj, *args, **kwargs)

        self._patch(cls, "__init__", counted_init)

    def _kernel(self, args, kwargs, result, i) -> None:
        """Computed, not measured: the work of one single-loop einsum over the diagram.

        A diagram with L distinct index labels over n operands at dimension d
        loops d**L times with n-1 multiplies and one add each; the bytes are
        the complex128 operands read plus the output written.
        """
        diagram = args[0] if args else kwargs["diagram"]
        dim = result.dim
        orders = [s.order for s in diagram.operand_shapes]
        labels = sum(orders) - len(diagram.pairs)
        self.counts["tensors.apply_diagram.flops_computed"] += dim**labels * len(orders)
        self.counts["tensors.apply_diagram.bytes_computed"] += 16 * (
            sum(dim**o for o in orders) + dim ** result.shape.order
        )

    def _enumerated(self, args, kwargs, result, i) -> None:
        options = args[1] if len(args) > 1 else kwargs.get("options")
        quotient = options is not None and (
            options.quotient_by_slot_symmetry or options.quotient_by_operand_symmetry
        )
        key = "diagrams.quotient_s" if quotient else "diagrams.labelled_s"
        self.counts[key] += self.end[i] - self.start[i]
        self.counts["diagrams.orbits"] += len(result)

    def _instances(self, args, kwargs, result, i) -> None:
        self.counts["words.instances"] += len(result)

    def _terms(self, args, kwargs, result, i) -> None:
        self.counts["words.formal_sum.terms"] += len(result)

    # -- results ------------------------------------------------------------

    def _arrays(self):
        nid = np.frombuffer(self.name_id, dtype=np.intc)
        parent = np.frombuffer(self.parent, dtype=np.intc)
        dur = np.frombuffer(self.end, dtype=np.float64) - np.frombuffer(self.start, dtype=np.float64)
        return nid, parent, dur

    def metrics(self, passes: list[tuple[int, int, float]], checks: list[str]) -> dict[str, float]:
        """Per-pass layer totals over the traced passes, given as (first span, end span, wall time)."""
        nid, parent, dur = self._arrays()
        child = np.bincount(parent[parent >= 0], weights=dur[parent >= 0], minlength=len(dur))
        k = len(self.names)
        calls = np.bincount(nid, minlength=k)
        self_s = np.bincount(nid, weights=dur - child, minlength=k)
        incl = np.bincount(nid, weights=dur, minlength=k)
        n = len(passes)

        def total(group, per_name) -> float:
            members = GROUPS[group]
            pick = members if callable(members) else members.__contains__
            return float(sum(per_name[i] for i, name in enumerate(self.names) if pick(name)))

        m: dict[str, float] = {}
        for group in ("tensors.apply_diagram", "tensors.dense_arith", "matrixops.phi2",
                      "graded.three_commutator", "cyclo.weightpoly_arith"):
            m[f"{group}.calls"] = total(group, calls) / n
        m["words.formal_sum_arith.calls"] = total("words.formal_sum_arith", calls) / n
        for group in GROUPS:
            if group != "cli":
                m[f"{group}.self_s"] = total(group, self_s) / n
        for key in ("tensors.apply_diagram.flops_computed", "tensors.apply_diagram.bytes_computed",
                    "words.instances", "words.formal_sum.terms", "diagrams.quotient_s",
                    "diagrams.labelled_s", "diagrams.candidates", "diagrams.orbits"):
            m[key] = self.counts[key] / n
        m["diagrams.orbit_yield"] = (
            self.counts["diagrams.orbits"] / self.counts["diagrams.candidates"]
            if self.counts["diagrams.candidates"] else 0.0
        )
        for check in checks:
            i = self._ids.get(f"cli.check.{check}")
            m[f"cli.check.{check}.s"] = float(incl[i]) / n if i is not None else 0.0
        m["cli.self_s"] = total("cli", self_s) / n
        roots = 0.0
        for first, stop, _ in passes:
            sl = slice(first, stop)
            roots += float(dur[sl][parent[sl] < 0].sum())
        m["trace.unattributed_s"] = (sum(t for _, _, t in passes) - roots) / n
        return m

    def save(self, path) -> None:
        nid, parent, _ = self._arrays()
        np.savez(
            path,
            names=np.array(self.names),
            name_id=nid,
            parent=parent,
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
        )
