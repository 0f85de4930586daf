"""Span tracing for the traced benchmark run.

The tracer wraps the public functions of each fmmkit layer at the name its
caller looks up (for example ``fmmkit.search.kernels.block_solve`` or
``fmmkit.cli.verify_exact``), so no source file changes.  ``patched``
installs the wrappers and restores every original name on exit.

Each CLI call opens a root span with a job id; layer calls made inside it
become child spans carrying their parent's id.  The per-sweep ALS kernels
are called too often for one span each, so they are aggregated into a call
count and busy time charged to the enclosing span.  Spans stay in memory.
A span's self time is its duration minus the time its children cover;
wrapper bookkeeping is charged to neither.
"""

import contextlib
import importlib
from collections import Counter
from time import perf_counter

# (module, attribute, span name): each attribute is the name the caller
# looks up at call time, so patching it there intercepts every call
SPANNED = (
    ("fmmkit.io", "parse_tensor", "io.parse_tensor"),
    ("fmmkit.io", "write_tensor", "io.write_tensor"),
    ("fmmkit.io", "parse_matrix", "io.parse_matrix"),
    ("fmmkit.io", "write_matrix", "io.write_matrix"),
    ("fmmkit.cli", "write_matrix", "io.write_matrix"),
    ("fmmkit.tensor", "expand", "tensor.expand"),
    ("fmmkit.cli", "verify_exact", "tensor.verify_exact"),
    ("fmmkit.search.als", "verify_exact", "tensor.verify_exact"),
    ("fmmkit.cli", "verify_approximate", "tensor.verify_approximate"),
    ("fmmkit.cli", "type_polynomial", "tensor.type_polynomial"),
    ("fmmkit.cli", "kronecker", "algebra.kronecker"),
    ("fmmkit.cli", "direct_sum", "algebra.direct_sum"),
    ("fmmkit.cli", "embed_and_add", "algebra.embed_and_add"),
    ("fmmkit.cli", "serendipity_find", "algebra.serendipity_find"),
    ("fmmkit.evaluate", "multiply_recursive", "evaluate.multiply_recursive"),
    ("fmmkit.evaluate", "epsilon_error_scan", "evaluate.epsilon_error_scan"),
    ("fmmkit.search", "search", "search.als.search"),
    ("fmmkit.search.als", "rationalize", "search.als.rationalize"),
)

AGGREGATED = (
    ("fmmkit.search.kernels", "block_solve", "search.kernels.block_solve"),
    ("fmmkit.search.kernels", "residual", "search.kernels.residual"),
)

CLI_SPAN = "cli.main"


def _nnz(mat):
    return sum(1 for _ in mat.nonzero_entries())


# counts recorded per call from arguments and result, outside the timed span
COUNTERS = {
    "tensor.expand": lambda args, out: {
        "products": sum(_nnz(t.P) * _nnz(t.Q) * _nnz(t.S) for t in args[0].terms)},
    "io.parse_tensor": lambda args, out: {"bytes": len(args[0])},
    "io.parse_matrix": lambda args, out: {"bytes": len(args[0])},
    "io.write_tensor": lambda args, out: {"bytes": len(out)},
    "io.write_matrix": lambda args, out: {"bytes": len(out)},
    "search.als.rationalize": lambda args, out: {"verified": int(out is not None)},
}


class Span:
    __slots__ = ("id", "parent", "job", "name", "start", "end", "child_s", "counts")

    def __init__(self, id_, parent, job, name, start):
        self.id = id_
        self.parent = parent
        self.job = job
        self.name = name
        self.start = start
        self.end = None
        self.child_s = 0.0
        self.counts = None

    @property
    def duration(self):
        return self.end - self.start

    @property
    def self_s(self):
        return self.duration - self.child_s

    def as_dict(self):
        return {"id": self.id, "parent": self.parent, "job": self.job,
                "name": self.name, "start": self.start, "end": self.end,
                "self_s": self.self_s, "counts": self.counts}


class Tracer:
    """In-memory spans plus aggregated kernel counters."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self.kernel_calls = Counter()
        self.kernel_busy = Counter()
        # (kernel name, argument shapes) -> calls, for the computed counts
        self.kernel_shapes = Counter()

    @contextlib.contextmanager
    def job(self, job_id):
        """Root span of one CLI call."""
        span = self._open(CLI_SPAN, job_id)
        try:
            yield
        finally:
            self._close(span, perf_counter())

    def _open(self, name, job_id=None):
        parent = self._stack[-1] if self._stack else None
        span = Span(len(self.spans), parent.id if parent else None,
                    job_id if parent is None else parent.job, name, perf_counter())
        self.spans.append(span)
        self._stack.append(span)
        return span

    def _close(self, span, end):
        span.end = end
        self._stack.pop()

    def spanned(self, name, fn):
        def wrapper(*args, **kwargs):
            if not self._stack:
                return fn(*args, **kwargs)
            parent = self._stack[-1]
            span = self._open(name)
            done = False
            try:
                out = fn(*args, **kwargs)
                done = True
            finally:
                self._close(span, perf_counter())
                if done and name in COUNTERS:
                    span.counts = COUNTERS[name](args, out)
                parent.child_s += perf_counter() - span.start
            return out
        return wrapper

    def aggregated(self, name, fn):
        def wrapper(*args, **kwargs):
            if not self._stack:
                return fn(*args, **kwargs)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self.kernel_busy[name] += perf_counter() - t0
                self.kernel_calls[name] += 1
                self.kernel_shapes[(name, tuple(a.shape for a in args[:3]))] += 1
                self._stack[-1].child_s += perf_counter() - t0
        return wrapper


@contextlib.contextmanager
def patched(tracer):
    """Install the tracer's wrappers; restore the original names on exit."""
    saved = []
    try:
        for table, wrap in ((SPANNED, tracer.spanned), (AGGREGATED, tracer.aggregated)):
            for module_name, attr, name in table:
                module = importlib.import_module(module_name)
                original = getattr(module, attr)
                saved.append((module, attr, original))
                setattr(module, attr, wrap(name, original))
        yield tracer
    finally:
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)


# -- computed kernel counts ----------------------------------------------------
#
# Derived from argument shapes for the numpy kernels in fmmkit.search.kernels,
# counting one flop per multiply or add and 8 bytes per float64 element each
# time an operation reads or writes it.  These are computed, not measured.

def block_solve_counts(a_shape, b_shape, t_shape):
    """(flops, bytes) of one block_solve(A, B, Tmat, lam, model) call."""
    r, da = a_shape
    db = b_shape[1]
    dx = t_shape[0]
    k = da * db
    flops = (2 * r * r * da + 2 * r * r * db + r * r + r   # Gram Hadamard + ridge
             + r * k + 2 * r * k * dx                        # Khatri-Rao, RHS
             + 2 * r * dx                                    # + lam * model
             + (2 * r ** 3) // 3 + 2 * r * r * dx)           # LU solve
    elems = (2 * r * da + r * r + 2 * r * db + r * r + 3 * r * r   # Grams, product
             + r * da + r * db + r * k                           # Khatri-Rao
             + r * k + dx * k + r * dx                           # RHS matmul
             + 4 * r * dx                                        # lam*model, +=
             + r * r + 2 * r * dx)                               # solve
    return flops, 8 * elems


def residual_counts(p_shape, q_shape, s_shape):
    """(flops, bytes, intermediate bytes) of one residual(P, Q, S, T) call.

    The intermediate is the r x (mn) x (np) x (pm) float64 product that the
    numpy kernel materializes before summing over r.
    """
    r, a = p_shape
    b = q_shape[1]
    c = s_shape[1]
    cube = a * b * c
    flops = r * a * b + r * cube + (r - 1) * cube + 3 * cube
    elems = (r * a + r * b + r * a * b          # P*Q
             + r * a * b + r * c + r * cube     # (P*Q)*S
             + r * cube + cube                  # sum over r
             + 3 * cube + 3 * cube)             # -= T, D*D, sum
    return flops, 8 * elems, 8 * r * cube


def kernel_counts(tracer):
    """Computed totals per kernel: calls, flops, bytes, largest intermediate."""
    out = {}
    for (name, shapes), calls in tracer.kernel_shapes.items():
        entry = out.setdefault(name, {"calls": 0, "flops": 0, "bytes": 0,
                                      "intermediate_bytes": 0, "per_shape": {}})
        if name.endswith("block_solve"):
            flops, nbytes = block_solve_counts(*shapes)
            inter = 0
        else:
            flops, nbytes, inter = residual_counts(*shapes)
        entry["calls"] += calls
        entry["flops"] += calls * flops
        entry["bytes"] += calls * nbytes
        entry["intermediate_bytes"] = max(entry["intermediate_bytes"], inter)
        entry["per_shape"]["x".join(str(s) for s in shapes)] = {
            "calls": calls, "flops_per_call": flops, "bytes_per_call": nbytes}
    return out
