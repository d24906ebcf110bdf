"""In-memory spans and counts around calls into the hodge4d modules.

``Tracer.install`` replaces module attributes with timing wrappers.  A
function is replaced in every loaded ``hodge4d`` module that holds it, so
calls through a ``from ... import`` binding (``verification`` and ``cli`` use
those) are traced too.  ``PolyField`` arithmetic is counted, not timed: it
runs tens of thousands of times per op.

A span is (id, name, start, end, parent id, op id); self time is the span's
duration minus the durations of its direct children.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict

# (module, attribute) pairs that get a span; the span name is "<module>.<attribute>".
SPANNED = {
    "cli": ["main"],
    "solver": ["assemble", "solve", "reference_evolution", "epsilon_sweep", "l2_error"],
    "verification": [
        "run_identities",
        "check_d_after_d",
        "check_leibniz",
        "check_anticommutativity",
        "check_interior_product",
        "check_flux_fitting",
        "check_potential_negatives",
        "check_emergent_constraints",
        "check_linearity",
        "check_scalar_expansion",
    ],
    "tables": ["star_table_checks", "double_star_checks"],
    "forms": [
        "exterior_derivative",
        "wedge",
        "hodge_star",
        "scaled_hodge_star",
        "codifferential_1a",
        "codifferential_a1",
    ],
    "convdiff": ["unified_operator", "expand_componentwise", "emergent_constraint", "exp_fitted_flux"],
    "vectorcalc": ["gradient", "divergence", "curl", "cross", "dot", "scale", "laplacian", "time_derivative"],
    "boundary": ["boundary_report", "artificial_bc"],
}

# Per-op counts that must repeat exactly between two traced runs of one code and seed.
EXACT_COUNTS = (
    "solver.matrix_nnz",
    "solver.data_calls",
    "solver.data_points",
    "fields.polyfield_inits",
    "fields.mul_term_pairs",
    "forms.exterior_derivative_calls",
    "verification.checks",
)


def _size(value) -> int:
    return getattr(value, "size", 1)


# Counters bumped on hot paths; they live in one list and are credited to the
# current op whenever the op changes.
LIVE = (
    "solver.data_calls",
    "solver.data_points",
    "fields.polyfield_inits",
    "fields.mul_calls",
    "fields.mul_term_pairs",
    "fields.add_calls",
)
DATA_CALLS, DATA_POINTS, INITS, MUL_CALLS, MUL_PAIRS, ADD_CALLS = range(len(LIVE))


class Tracer:
    """Spans and counts of one traced run; ``install`` starts it, ``uninstall`` ends it."""

    def __init__(self):
        self.spans = []  # (name, start, end, parent, op)
        self.stack = []
        self.counts = defaultdict(int)  # per-op counts, keyed (op, name)
        self.matrix = {}  # op -> (nnz, MB) of the largest matrix assembled
        self.live = [0] * len(LIVE)
        self._op = None
        self._restore = []

    @property
    def op(self):
        """The op id that spans and counts are credited to (None between ops)."""
        return self._op

    @op.setter
    def op(self, value):
        for index, name in enumerate(LIVE):
            if self.live[index]:
                self.counts[self._op, name] += self.live[index]
                self.live[index] = 0
        self._op = value

    # -- installation -------------------------------------------------------

    def _replace(self, owner, attr, new):
        self._restore.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def _span(self, name, fn):
        spans, stack, clock, tracer = self.spans, self.stack, time.perf_counter, self

        def wrapper(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, start, end, parent, tracer._op)

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self):
        import hodge4d.cli  # noqa: F401  (loads every module)
        from hodge4d import fields, solver

        modules = [m for key, m in sys.modules.items() if key == "hodge4d" or key.startswith("hodge4d.")]
        for module_name, attrs in SPANNED.items():
            home = sys.modules[f"hodge4d.{module_name}"]
            for attr in attrs:
                original = getattr(home, attr)
                wrapper = self._span(f"{module_name}.{attr}", original)
                if attr == "assemble":
                    wrapper = self._record_matrix(wrapper)
                elif attr == "run_identities":
                    wrapper = self._record_checks(wrapper)
                for module in modules:
                    if module.__dict__.get(attr) is original:
                        self._replace(module, attr, wrapper)
        self._wrap_from_manufactured(solver.ProblemConfig)
        self._count_polyfield(fields.PolyField)

    def uninstall(self):
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    def _record_matrix(self, assemble):
        def wrapper(*args, **kwargs):
            system = assemble(*args, **kwargs)
            m = system.matrix
            mb = (m.data.nbytes + m.indices.nbytes + m.indptr.nbytes) / 1e6
            if m.nnz > self.matrix.get(self.op, (0, 0.0))[0]:
                self.matrix[self.op] = (m.nnz, mb)
            return system

        return wrapper

    def _record_checks(self, run_identities):
        def wrapper(*args, **kwargs):
            report = run_identities(*args, **kwargs)
            self.counts[self.op, "verification.checks"] += sum(1 for c in report.checks if not c.note)
            return report

        return wrapper

    def _wrap_from_manufactured(self, config_cls):
        original = config_cls.__dict__["from_manufactured"]
        spanned = self._span("solver.from_manufactured", original.__func__)
        live = self.live

        def count_data(fn):
            def data(xv, tv):
                live[DATA_CALLS] += 1
                live[DATA_POINTS] += max(_size(xv), _size(tv))
                return fn(xv, tv)

            return data

        def from_manufactured(cls, *args, **kwargs):
            config = spanned(cls, *args, **kwargs)
            for attr in ("f", "g", "q_terminal", "manufactured"):
                fn = getattr(config, attr)
                if fn is not None:
                    setattr(config, attr, count_data(fn))
            return config

        self._replace(config_cls, "from_manufactured", classmethod(from_manufactured))

    def _count_polyfield(self, cls):
        live = self.live
        init, mul, rmul, add, radd = cls.__init__, cls.__mul__, cls.__rmul__, cls.__add__, cls.__radd__

        def counted_init(obj, terms=None):
            live[INITS] += 1
            init(obj, terms)

        def counted_mul(op):
            def wrapper(a, b):
                live[MUL_CALLS] += 1
                live[MUL_PAIRS] += len(a.terms) * (len(b.terms) if isinstance(b, cls) else 1)
                return op(a, b)

            return wrapper

        def counted_add(op):
            def wrapper(a, b):
                live[ADD_CALLS] += 1
                return op(a, b)

            return wrapper

        self._replace(cls, "__init__", counted_init)
        self._replace(cls, "__mul__", counted_mul(mul))
        self._replace(cls, "__rmul__", counted_mul(rmul))
        self._replace(cls, "__add__", counted_add(add))
        self._replace(cls, "__radd__", counted_add(radd))

    # -- analysis ------------------------------------------------------------

    def op_layers(self) -> dict:
        """Per op: {metric: value} with self times, call counts and counters."""
        self.op = self.op  # credit pending counts
        child = [0.0] * len(self.spans)
        for name, start, end, parent, op in self.spans:
            if parent >= 0:
                child[parent] += end - start
        per_op = defaultdict(lambda: defaultdict(float))
        for index, (name, start, end, parent, op) in enumerate(self.spans):
            layer = per_op[op]
            layer[name + "_s"] += end - start - child[index]
            layer[name + "_calls"] += 1
            layer["trace.spans"] += 1
        for (op, name), value in self.counts.items():
            per_op[op][name] += value
        for op, (nnz, mb) in self.matrix.items():
            per_op[op]["solver.matrix_nnz"] = nnz
            per_op[op]["solver.matrix_mb"] = mb
        return per_op

    def write(self, path: str):
        """Write spans as tab-separated lines: id, name, start_s, end_s, parent, op."""
        with open(path, "w") as handle:
            handle.write("id\tname\tstart_s\tend_s\tparent\top\n")
            base = self.spans[0][1] if self.spans else 0.0
            for index, (name, start, end, parent, op) in enumerate(self.spans):
                handle.write(f"{index}\t{name}\t{start - base:.9f}\t{end - base:.9f}\t{parent}\t{op}\n")
