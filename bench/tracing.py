"""Spans around calls into ``vortexstab``, recorded from the benchmark's side.

``Tracer.install`` replaces the public functions and methods listed in
``TRACED`` with wrappers, in every ``vortexstab`` module that binds them, so
calls between modules are seen too.  A span is (name, start, end, parent,
operation); spans stay in memory and are written out at the end.  The
``numpy.linalg`` entry points in ``COUNTED`` are only counted, per operation.
"""

from __future__ import annotations

import functools
import itertools
import sys
import threading
from array import array
from time import perf_counter_ns

import numpy as np

# (module, attribute) for functions; (module, class, method) for methods.
TRACED = (
    ("algebra", "flatten"),
    ("algebra", "unflatten"),
    ("algebra", "build_coupling_matrix"),
    ("hamiltonian", "reduced_gradient"),
    ("hamiltonian", "ReducedHamiltonian", "gradient"),
    ("hamiltonian", "ReducedHamiltonian", "hessian"),
    ("constraints", "casimir_values"),
    ("constraints", "ConstraintSystem", "values"),
    ("constraints", "ConstraintSystem", "jacobian"),
    ("constraints", "ConstraintSystem", "hessians"),
    ("dynamics", "integrate"),
    ("stability", "linearize"),
    ("stability", "spectrum"),
    ("stability", "independence_check"),
    ("stability", "tangent_basis"),
    ("stability", "solve_multiplier_system"),
    ("stability", "restricted_hessian"),
    ("stability", "sylvester_verdict"),
    ("stability", "energy_casimir_certificate"),
    ("scenarios", "build_scenario"),
    ("scenarios", "scenario_fixed_point"),
    ("report", "analyze"),
    ("report", "gamma_sweep"),
)
COUNTED = ("svd", "lstsq", "det")
FIELDS = ("name", "start_ns", "end_ns", "parent", "op", "seq")


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.spans = array("q")  # FIELDS per span, appended when the span ends
        self.count_log = array("q")  # (op, index in COUNTED) per counted call
        self.op = -1  # current operation; -1 for set-up and warm-up
        self.op_workloads: list[str] = []
        self.active = True
        self.hessian_builds: dict[int, tuple[float, int]] = {}
        self._built: set[int] = set()
        self._seq = itertools.count()
        self._local = threading.local()

    def begin_op(self, workload: str) -> None:
        self.op = len(self.op_workloads)
        self.op_workloads.append(workload)

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, fn):
        nid = len(self.names)
        self.names.append(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            stack = self._stack()
            parent = stack[-1] if stack else -1
            seq = next(self._seq)
            op = self.op
            stack.append(seq)
            start = perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter_ns()
                stack.pop()
                # one C call, so spans from the sweep's worker threads never interleave
                self.spans.extend((nid, start, end, parent, op, seq))

        return wrapper

    def wrap_hessians(self, fn):
        """``ConstraintSystem.hessians`` also records its first, building call."""
        traced = self.wrap("constraints.ConstraintSystem.hessians", fn)

        @functools.wraps(fn)
        def wrapper(system):
            if not self.active or id(system) in self._built:
                return traced(system)
            start = perf_counter_ns()
            out = traced(system)
            built = sum(h.nbytes for h in out)
            self.hessian_builds[system.n] = ((perf_counter_ns() - start) / 1e6, built)
            self._built.add(id(system))
            return out

        return wrapper

    def count(self, name: str, fn):
        cid = COUNTED.index(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self.active:
                self.count_log.extend((self.op, cid))
            return fn(*args, **kwargs)

        return wrapper

    def install(self) -> None:
        modules = [m for k, m in sys.modules.items() if k == "vortexstab" or k.startswith("vortexstab.")]
        for target in TRACED:
            owner = sys.modules[f"vortexstab.{target[0]}"]
            if len(target) == 3:
                cls = getattr(owner, target[1])
                fn = getattr(cls, target[2])
                wrapped = (
                    self.wrap_hessians(fn) if target[2] == "hessians"
                    else self.wrap(".".join(target), fn)
                )
                setattr(cls, target[2], wrapped)
                continue
            fn = getattr(owner, target[1])
            wrapped = self.wrap(".".join(target), fn)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is fn:
                        setattr(module, attr, wrapped)
        for name in COUNTED:
            setattr(np.linalg, name, self.count(name, getattr(np.linalg, name)))

    def table(self) -> np.ndarray:
        return np.frombuffer(self.spans, dtype=np.int64).reshape(-1, len(FIELDS))

    def save(self, path) -> None:
        np.savez_compressed(
            path,
            spans=self.table(),
            fields=np.array(FIELDS),
            names=np.array(self.names),
            op_workloads=np.array(self.op_workloads),
            counted_calls=np.frombuffer(self.count_log, dtype=np.int64).reshape(-1, 2),
            counted_names=np.array(COUNTED),
        )


class SpanView:
    """Per-name durations and self times, grouped by the workload of the
    operation each span belongs to."""

    def __init__(self, tracer: Tracer):
        t = tracer.table()
        self.names = tracer.names
        self.op_workloads = np.array(tracer.op_workloads + ["-"])  # op -1 -> "-"
        self.counted_calls = np.frombuffer(tracer.count_log, dtype=np.int64).reshape(-1, 2)
        self.name = t[:, 0]
        self.dur = (t[:, 2] - t[:, 1]).astype(float)
        self.workload = self.op_workloads[t[:, 4]]
        child = np.zeros(len(t))
        has_parent = t[:, 3] >= 0
        by_seq = np.argsort(t[:, 5])
        parents = by_seq[np.searchsorted(t[by_seq, 5], t[has_parent, 3])]
        np.add.at(child, parents, self.dur[has_parent])
        self.self_dur = self.dur - child

    def _mask(self, name: str, workload: str) -> np.ndarray:
        return (self.name == self.names.index(name)) & (self.workload == workload)

    def calls(self, name: str, workload: str) -> int:
        return int(self._mask(name, workload).sum())

    def median_ns(self, name: str, workload: str, self_time: bool = False) -> float:
        values = (self.self_dur if self_time else self.dur)[self._mask(name, workload)]
        if values.size == 0:
            raise LookupError(f"no spans of {name} in {workload} operations")
        return float(np.median(values))

    def counted(self, name: str, workload: str) -> int:
        ops, cid = self.counted_calls[:, 0], self.counted_calls[:, 1]
        return int(((self.op_workloads[ops] == workload) & (cid == COUNTED.index(name))).sum())
