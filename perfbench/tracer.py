"""Span tracer that measures qfsp's layers from outside the library.

Nothing under ``src/`` knows about it.  ``Tracer.install`` replaces each
named public function (or method) with a timing wrapper in every ``qfsp``
module namespace that binds it, so calls through ``from .x import f``
bindings and calls inside the defining module are both caught.
``Tracer.uninstall`` puts the originals back.

Each call on the main thread records a span (name, start, end, parent span,
operation id).  Calls on other threads, such as the ``classify --threads``
worker pool, run unwrapped, so their time is charged to the main-thread span
that waits for them (``classifier.classify_family``).  A layer's self time
is its span duration minus the durations of its direct child spans.
"""

from __future__ import annotations

import functools
import threading
from contextlib import contextmanager
from time import perf_counter

import numpy as np

# (module, attribute path, span name).  The span name is
# "<module>.<function>"; the metrics derived from it are
# "<span name>.calls" and "<span name>.self_s".
SPANS = [
    ("cli", "main", "cli.main"),
    ("serialize", "load_json", "serialize.load_json"),
    ("serialize", "dump_json", "serialize.dump_json"),
    ("phase_space", "symplectic_extension", "phase_space.symplectic_extension"),
    ("linalg", "MetricCalculus.__init__", "linalg.MetricCalculus"),
    ("linalg", "MetricCalculus.eigh", "linalg.eigh"),
    ("quasifree", "thermal_form", "quasifree.thermal_form"),
    ("quasifree", "transport_form", "quasifree.transport_form"),
    ("quasifree", "double", "quasifree.double"),
    ("quasifree", "validate_form", "quasifree.validate_form"),
    ("quasifree", "moment", "quasifree.moment"),
    ("classifier", "ModeFamily.pair", "classifier.block"),
    ("classifier", "norm_equivalence_bounds", "classifier.norm_equivalence_bounds"),
    ("classifier", "hs_discriminant", "classifier.hs_discriminant"),
    ("classifier", "verdict_from_evidence", "classifier.verdict_from_evidence"),
    ("classifier", "classify_family", "classifier.classify_family"),
    ("classifier", "classify_pair", "classifier.classify_pair"),
    ("classifier", "state_distance_lower_bound",
     "classifier.state_distance_lower_bound"),
    ("fock", "build_fock", "fock.build_fock"),
    ("fock", "field_operator", "fock.field_operator"),
    ("fock", "second_quantize_unitary", "fock.second_quantize_unitary"),
    ("fock", "FockOperator.__matmul__", "fock.FockOperator.matmul"),
    ("sp_algebra", "quantize", "sp_algebra.quantize"),
    ("sp_algebra", "rank_decompose", "sp_algebra.rank_decompose"),
    ("implementers", "implement_T", "implementers.implement_T"),
    ("implementers", "metaplectic", "implementers.metaplectic"),
    ("implementers", "bogoliubov_u", "implementers.bogoliubov_u"),
    ("implementers", "polar", "implementers.polar"),
    ("implementers", "vacuum_overlap", "implementers.vacuum_overlap"),
    ("implementers", "cocycle_sign", "implementers.cocycle_sign"),
    ("implementers", "dP_distance", "implementers.dP_distance"),
    ("modular", "build_modular", "modular.build_modular"),
    ("modular", "modular_generator", "modular.modular_generator"),
    ("modular", "tomita_residual", "modular.tomita_residual"),
    ("modular", "kms_residual", "modular.kms_residual"),
    ("modular", "delta_power", "modular.delta_power"),
    ("modular", "ModularData.delta_power", "modular.delta_power"),
    ("modular", "ModularData.delta_unitary", "modular.delta_unitary"),
]

# Span names reported as "<name>.calls" and "<name>.self_s"; the others
# report self time only.
CALL_COUNTED = [
    "phase_space.symplectic_extension",
    "linalg.MetricCalculus", "linalg.eigh",
    "quasifree.thermal_form", "quasifree.transport_form",
    "quasifree.double", "quasifree.validate_form",
    "classifier.block", "classifier.hs_discriminant",
    "classifier.norm_equivalence_bounds",
    "fock.field_operator", "fock.second_quantize_unitary",
    "fock.FockOperator.matmul", "sp_algebra.quantize",
    "implementers.implement_T", "implementers.metaplectic",
    "implementers.bogoliubov_u", "implementers.polar",
    "implementers.vacuum_overlap", "implementers.cocycle_sign",
    "implementers.expm",
]
SELF_ONLY = [
    "serialize.load_json", "serialize.dump_json",
    "quasifree.moment", "classifier.verdict_from_evidence",
    "fock.build_fock", "sp_algebra.rank_decompose",
    "modular.build_modular", "modular.modular_generator",
    "modular.tomita_residual", "modular.kms_residual",
    "modular.delta_power", "modular.delta_unitary",
    "classifier.classify_family", "classifier.classify_pair",
    "classifier.state_distance_lower_bound", "implementers.dP_distance",
]

# Metrics that are counts of work: per traced pass they repeat exactly.
COUNT_METRICS = [
    "classifier.blocks",
    "quasifree.moment.terms",
    "fock.field_operator.calls",
    "modular.delta_eigh.calls",
    "fock.dim_max",
]


def _is_diagonal(m: np.ndarray) -> bool:
    return not np.any(m - np.diag(np.diag(m)))


class Tracer:
    """Collects spans and counters while installed; inert otherwise."""

    def __init__(self, qfsp_modules: dict):
        self.modules = qfsp_modules  # short name -> module, e.g. "fock"
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self._span_name: list[int] = []
        self._span_parent: list[int] = []
        self._span_start: list[float] = []
        self._span_end: list[float] = []
        self._span_op: list[int] = []
        self._stack: list[int] = []
        self._main = threading.get_ident()
        self._paused = 0
        self._restore: list[tuple] = []
        self.op_id = -1
        self.counters = {
            "classifier.blocks": 0,
            "quasifree.moment.terms": 0,
            "modular.delta_eigh.calls": 0,
            "fock.dim_max": 0,
            "fock.dense_bytes": 0,
            "eigh.calls": 0,
            "eigh.diag_calls": 0,
            "quantize.nnz": 0,
            "quantize.entries": 0,
        }

    # ---- recording -------------------------------------------------------
    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _recording(self) -> bool:
        return not self._paused and threading.get_ident() == self._main

    def _innermost_module(self) -> str | None:
        if not self._stack:
            return None
        return self.names[self._span_name[self._stack[-1]]].split(".", 1)[0]

    def _call(self, name_id: int, fn, args, kwargs):
        idx = len(self._span_name)
        self._span_name.append(name_id)
        self._span_parent.append(self._stack[-1] if self._stack else -1)
        self._span_start.append(0.0)
        self._span_end.append(0.0)
        self._span_op.append(self.op_id)
        self._stack.append(idx)
        t0 = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            t1 = perf_counter()
            self._stack.pop()
            self._span_start[idx] = t0
            self._span_end[idx] = t1

    @contextmanager
    def paused(self):
        """Stop recording, e.g. around the benchmark's own result checks."""
        self._paused += 1
        try:
            yield
        finally:
            self._paused -= 1

    # ---- wrappers --------------------------------------------------------
    def _span_wrapper(self, name: str, fn):
        name_id = self._name_id(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self._recording():
                return fn(*args, **kwargs)
            return self._call(name_id, fn, args, kwargs)

        return wrapper

    def _after(self, wrapper, observe):
        """Wrap an already wrapped callable to inspect its arguments and result."""

        @functools.wraps(wrapper)
        def outer(*args, **kwargs):
            result = wrapper(*args, **kwargs)
            if self._recording():
                observe(args, result)
            return result

        return outer

    def _observe_eigh(self, eigh):
        @functools.wraps(eigh)
        def outer(calc, a, *args, **kwargs):
            if self._recording():
                self.counters["eigh.calls"] += 1
                if _is_diagonal(calc.metric) and _is_diagonal(np.asarray(a)):
                    self.counters["eigh.diag_calls"] += 1
            return eigh(calc, a, *args, **kwargs)

        return outer

    def _count_blocks(self, args, verdict):
        self.counters["classifier.blocks"] += len(verdict.evidence["t"])

    def _count_fock_dim(self, args, fk):
        self.counters["fock.dim_max"] = max(self.counters["fock.dim_max"], fk.dim)

    def _count_nnz(self, args, op):
        m = op.matrix
        self.counters["quantize.nnz"] += int(np.count_nonzero(m))
        self.counters["quantize.entries"] += int(m.size)

    def _fock_operator_init(self, init):
        @functools.wraps(init)
        def wrapper(op, *args, **kwargs):
            init(op, *args, **kwargs)
            if self._recording() and isinstance(op.matrix, np.ndarray) \
                    and op.matrix.ndim == 2:
                # computed, not measured: 16 bytes per complex entry
                self.counters["fock.dense_bytes"] += 16 * op.matrix.size

        return wrapper

    def _pairings(self, pairings):
        """Count the matchings the top-level pairing enumeration yields."""
        depth = [0]

        def counted(indices):
            depth[0] += 1
            try:
                for match in pairings(indices):
                    if self._recording():
                        self.counters["quasifree.moment.terms"] += 1
                    yield match
            finally:
                depth[0] -= 1

        @functools.wraps(pairings)
        def wrapper(indices):
            if depth[0]:
                return pairings(indices)  # recursion inside one enumeration
            return counted(indices)

        return wrapper

    def _eigh_counter(self, eigh):
        @functools.wraps(eigh)
        def wrapper(*args, **kwargs):
            if self._recording() and self._innermost_module() == "modular":
                self.counters["modular.delta_eigh.calls"] += 1
            return eigh(*args, **kwargs)

        return wrapper

    def _expm_span(self, expm):
        name_id = self._name_id("implementers.expm")

        @functools.wraps(expm)
        def wrapper(*args, **kwargs):
            if self._recording() and self._innermost_module() == "implementers":
                return self._call(name_id, expm, args, kwargs)
            return expm(*args, **kwargs)

        return wrapper

    # ---- install / uninstall ---------------------------------------------
    def _bind_everywhere(self, original, replacement, extra=()):
        """Replace ``original`` in every qfsp namespace (and ``extra``)."""
        namespaces = list(self.modules.values()) + list(extra)
        for ns in namespaces:
            for attr, value in list(vars(ns).items()):
                if value is original:
                    setattr(ns, attr, replacement)
                    self._restore.append((ns, attr, original))

    def _patch_attr(self, owner, attr, replacement):
        self._restore.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, replacement)

    def install(self):
        import numpy.linalg
        import scipy.linalg

        mods = self.modules
        observers = {
            "classifier.classify_family": self._count_blocks,
            "fock.build_fock": self._count_fock_dim,
            "sp_algebra.quantize": self._count_nnz,
        }
        for module, path, name in SPANS:
            wrapped_eigh = name == "linalg.eigh"
            if "." in path:
                cls_name, meth = path.split(".")
                cls = getattr(mods[module], cls_name)
                fn = vars(cls)[meth]
                new = self._span_wrapper(name, fn)
                if wrapped_eigh:
                    new = self._observe_eigh(new)
                self._patch_attr(cls, meth, new)
            else:
                fn = getattr(mods[module], path)
                new = self._span_wrapper(name, fn)
                if name in observers:
                    new = self._after(new, observers[name])
                self._bind_everywhere(fn, new)
        fock_op = mods["fock"].FockOperator
        self._patch_attr(fock_op, "__init__",
                         self._fock_operator_init(vars(fock_op)["__init__"]))
        pairings = mods["quasifree"].pairings
        self._bind_everywhere(pairings, self._pairings(pairings))
        self._bind_everywhere(numpy.linalg.eigh,
                              self._eigh_counter(numpy.linalg.eigh),
                              extra=[numpy.linalg])
        self._bind_everywhere(scipy.linalg.expm, self._expm_span(scipy.linalg.expm),
                              extra=[scipy.linalg])

    def uninstall(self):
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    # ---- results ---------------------------------------------------------
    def span_arrays(self) -> dict:
        return {
            "names": np.array(self.names, dtype=str),
            "name": np.array(self._span_name, dtype=np.int32),
            "parent": np.array(self._span_parent, dtype=np.int64),
            "start": np.array(self._span_start),
            "end": np.array(self._span_end),
            "op": np.array(self._span_op, dtype=np.int64),
        }

    def save_spans(self, path: str):
        np.savez(path, **self.span_arrays())

    def self_times(self) -> tuple[dict, dict]:
        """Per span name: number of calls and total self time in seconds."""
        spans = self.span_arrays()
        dur = spans["end"] - spans["start"]
        child = np.zeros_like(dur)
        has_parent = spans["parent"] >= 0
        np.add.at(child, spans["parent"][has_parent], dur[has_parent])
        own = dur - child
        n = len(self.names)
        calls = np.bincount(spans["name"], minlength=n)
        self_s = np.bincount(spans["name"], weights=own, minlength=n)
        return ({name: int(calls[i]) for i, name in enumerate(self.names)},
                {name: float(self_s[i]) for i, name in enumerate(self.names)})

    def layer_metrics(self, passes: int) -> dict:
        """Per-layer metrics, each per traced pass."""
        calls, self_s = self.self_times()
        c = self.counters
        out = {"cli.self_s": self_s.get("cli.main", 0.0) / passes}
        for name in CALL_COUNTED:
            out[f"{name}.calls"] = calls.get(name, 0) / passes
            out[f"{name}.self_s"] = self_s.get(name, 0.0) / passes
        for name in SELF_ONLY:
            out[f"{name}.self_s"] = self_s.get(name, 0.0) / passes
        out["linalg.diag_path_frac"] = (c["eigh.diag_calls"] / c["eigh.calls"]
                                        if c["eigh.calls"] else 0.0)
        out["quasifree.moment.terms"] = c["quasifree.moment.terms"] / passes
        out["classifier.blocks"] = c["classifier.blocks"] / passes
        out["fock.dim_max"] = float(c["fock.dim_max"])
        out["fock.dense_bytes"] = c["fock.dense_bytes"] / passes
        out["sp_algebra.quantize.nnz_frac"] = (
            c["quantize.nnz"] / c["quantize.entries"] if c["quantize.entries"] else 0.0)
        out["modular.delta_eigh.calls"] = c["modular.delta_eigh.calls"] / passes
        return out
