"""Outside-in tracer: spans around advspan's public functions, from outside.

Nothing in src/ is changed. Each target is looked up in its defining module
and the wrapper replaces it in every advspan module namespace that holds the
same object (``from .matkernel import eig_hermitian`` copies the name into
spectral, qsim and advsdp; the package re-exports most names too). A target
that does not exist is reported as absent, so the tracer survives refactors.

Spans stay in memory until the caller asks for them. A span's self time is
its duration minus the durations of its direct children; the work the tracer
does after a call (the array statistics) is recorded as a child span of its
own, named ``trace.bookkeeping``, so it is charged to no layer.
"""

from __future__ import annotations

import dataclasses
import functools
import sys
import time

import numpy as np

TARGETS = (
    ("boolfun", "load_function"),
    ("boolfun", "formula_size"),
    ("advsdp", "build_witness_sdp"),
    ("advsdp", "solve_sdp"),
    ("advsdp", "extract_certificate"),
    ("spanprog", "canonical_from_gram"),
    ("spanprog", "evaluate"),
    ("spectral", "build_program_graph"),
    ("spectral", "build_input_graph"),
    ("spectral", "zero_witness_vectors"),
    ("spectral", "jordan_decompose"),
    ("spectral", "JordanDecomposition.reconstruct_unitary"),
    ("spectral", "JordanDecomposition.eigen_system"),
    ("spectral", "reflection_unitary"),
    ("spectral", "effective_gap_profile"),
    ("spectral", "phase_gap_profile"),
    ("qsim", "qpe_accept_probability"),
    ("qsim", "search_accept_probability"),
    ("qsim", "search_noregister_probability"),
    ("matkernel", "eig_hermitian"),
    ("matkernel", "unitary_eigensystem"),
    ("matkernel", "nullspace_projector"),
    ("matkernel", "gram_factor"),
    ("cli", "run_pipeline"),
)

BOOKKEEPING = "trace.bookkeeping"

# Counts computed from returned objects (labelled as computed, not timed).
COMPUTED = (
    ("advsdp.solve_sdp.iterations", "count", "lower"),
    ("advsdp.solve_sdp.s_per_iter", "s", "lower"),
    ("advsdp.dense_mb", "MB", "lower"),
    ("advsdp.nnz_frac", "ratio", "higher"),
    ("spectral.dense_mb", "MB", "lower"),
    ("spectral.nnz_frac", "ratio", "higher"),
    ("spectral.graph_dim_max", "count", "lower"),
    ("spanprog.m_max", "count", "lower"),
    ("matkernel.eig_hermitian.dim3_sum", "count", "lower"),
    ("matkernel.unitary_eigensystem.dim3_sum", "count", "lower"),
    ("spectral.build_program_graph.per_function", "count", "lower"),
    ("trace.overhead_frac", "ratio", "lower"),
)


def per_layer_names() -> list[tuple[str, str, str]]:
    """(name, unit, better) of every per-layer metric, in report order."""
    out = []
    for module, qualname in TARGETS:
        out.append((f"{module}.{qualname}.calls", "count", "lower"))
        out.append((f"{module}.{qualname}.self_s", "s", "lower"))
    return out + list(COMPUTED)


def _arrays(obj):
    """numpy arrays reachable through tuples, lists and dataclass fields."""
    if isinstance(obj, np.ndarray):
        yield obj
    elif isinstance(obj, (tuple, list)):
        for item in obj:
            yield from _arrays(item)
    elif dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        for fld in dataclasses.fields(obj):
            yield from _arrays(getattr(obj, fld.name))


class ArrayStats:
    """Largest single returned object in MB, and nonzeros over stored entries."""

    def __init__(self):
        self.max_bytes = 0
        self.nnz = 0
        self.size = 0

    def add(self, obj) -> None:
        nbytes = 0
        for arr in _arrays(obj):
            nbytes += arr.nbytes
            self.nnz += int(np.count_nonzero(arr))
            self.size += arr.size
        self.max_bytes = max(self.max_bytes, nbytes)

    @property
    def dense_mb(self) -> float:
        return self.max_bytes / 1e6

    @property
    def nnz_frac(self) -> float:
        return self.nnz / self.size if self.size else 0.0


class Tracer:
    def __init__(self, targets=TARGETS):
        self.targets = tuple(targets)
        self.names = [f"{m}.{q}" for m, q in self.targets] + [BOOKKEEPING]
        # span: [name index, start, end, parent span index or -1, request id]
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.request = 0
        self.absent: list[str] = []
        # targets whose returned objects no longer have the fields counted below
        self.unobserved: set[str] = set()
        self.iterations = 0
        self.sdp_arrays = ArrayStats()
        self.spectral_arrays = ArrayStats()
        self.graph_dim_max = 0
        self.m_max = 0
        self.dim3 = {"eig_hermitian": 0, "unitary_eigensystem": 0}
        self._patches: list[tuple[object, str, object]] = []

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        modules = [mod for name, mod in sorted(sys.modules.items())
                   if mod is not None and (name == "advspan" or name.startswith("advspan."))]
        for index, (module_name, qualname) in enumerate(self.targets):
            module = sys.modules.get(f"advspan.{module_name}")
            owner_name, _, attr = qualname.rpartition(".")
            owner = getattr(module, owner_name, None) if owner_name else module
            original = owner.__dict__.get(attr) if owner is not None else None
            if not callable(original):
                self.absent.append(self.names[index])
                continue
            wrapper = self._wrap(index, original, self._observer(module_name, attr))
            for holder in [owner] if owner_name else modules:
                for key, value in list(vars(holder).items()):
                    if value is original:
                        self._patches.append((holder, key, original))
                        setattr(holder, key, wrapper)

    def uninstall(self) -> None:
        for holder, key, original in reversed(self._patches):
            setattr(holder, key, original)
        self._patches.clear()

    # -- recording ---------------------------------------------------------

    def _wrap(self, index, fn, observe):
        spans, stack, clock = self.spans, self.stack, time.perf_counter
        bookkeeping = len(self.names) - 1

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else -1
            span = [index, 0.0, 0.0, parent, self.request]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if observe is not None:
                try:
                    observe(args, result)
                except (AttributeError, KeyError, TypeError, IndexError):
                    self.unobserved.add(self.names[index])
                spans.append([bookkeeping, span[2], clock(), parent, self.request])
            return result

        return wrapper

    def _observer(self, module_name: str, attr: str):
        if module_name == "advsdp" and attr == "build_witness_sdp":
            return lambda args, result: self.sdp_arrays.add(result)
        if module_name == "advsdp" and attr == "solve_sdp":
            def observe(args, result):
                self.iterations += int(result.residuals["iterations"])
            return observe
        if module_name == "spanprog" and attr == "canonical_from_gram":
            def observe(args, result):
                self.m_max = max(self.m_max, int(result.m))
            return observe
        if module_name == "spectral":
            def observe(args, result):
                self.spectral_arrays.add(result)
                if attr == "build_program_graph":
                    self.graph_dim_max = max(self.graph_dim_max, int(result.dim))
            return observe
        if module_name == "matkernel" and attr in self.dim3:
            def observe(args, result):
                self.dim3[attr] += int(np.shape(args[0])[0]) ** 3
            return observe
        return None

    # -- results -----------------------------------------------------------

    def span_self_times(self) -> list[float]:
        """Each span's duration minus the durations of its direct children."""
        child = [0.0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        return [end - start - child[k] for k, (_, start, end, _, _) in enumerate(self.spans)]

    def layer_times(self) -> tuple[dict[str, int], dict[str, float]]:
        """Calls and self seconds per name, bookkeeping included."""
        calls = dict.fromkeys(self.names, 0)
        self_s = dict.fromkeys(self.names, 0.0)
        for span, own in zip(self.spans, self.span_self_times()):
            name = self.names[span[0]]
            if name != BOOKKEEPING:
                calls[name] += 1
            self_s[name] += own
        return calls, self_s

    def accounting(self, traced_wall: float, untraced_wall: float) -> dict[str, float]:
        """Layer self times + bookkeeping + untraced remainder = traced wall time."""
        _, self_s = self.layer_times()
        roots = sum(end - start for _, start, end, parent, _ in self.spans if parent < 0)
        return {
            "traced_wall_s": traced_wall,
            "untraced_wall_s": untraced_wall,
            "layer_self_s": sum(v for k, v in self_s.items() if k != BOOKKEEPING),
            "bookkeeping_s": self_s[BOOKKEEPING],
            "untraced_remainder_s": traced_wall - roots,
            "min_span_self_s": min(self.span_self_times(), default=0.0),
        }

    def metrics(self, functions: int, traced_wall: float, untraced_wall: float) -> dict[str, float]:
        calls, self_s = self.layer_times()
        out: dict[str, float] = {}
        for name in self.names[:-1]:
            out[f"{name}.calls"] = calls[name]
            out[f"{name}.self_s"] = self_s[name]
        out["advsdp.solve_sdp.iterations"] = self.iterations
        out["advsdp.solve_sdp.s_per_iter"] = (
            self_s.get("advsdp.solve_sdp", 0.0) / self.iterations if self.iterations else 0.0)
        out["advsdp.dense_mb"] = self.sdp_arrays.dense_mb
        out["advsdp.nnz_frac"] = self.sdp_arrays.nnz_frac
        out["spectral.dense_mb"] = self.spectral_arrays.dense_mb
        out["spectral.nnz_frac"] = self.spectral_arrays.nnz_frac
        out["spectral.graph_dim_max"] = self.graph_dim_max
        out["spanprog.m_max"] = self.m_max
        out["matkernel.eig_hermitian.dim3_sum"] = self.dim3["eig_hermitian"]
        out["matkernel.unitary_eigensystem.dim3_sum"] = self.dim3["unitary_eigensystem"]
        out["spectral.build_program_graph.per_function"] = (
            calls.get("spectral.build_program_graph", 0) / functions if functions else 0.0)
        out["trace.overhead_frac"] = traced_wall / untraced_wall - 1.0
        return out

    def span_records(self) -> list[dict]:
        return [
            {"name": self.names[i], "start": s, "end": e, "parent": p, "request": r}
            for i, s, e, p, r in self.spans
        ]
