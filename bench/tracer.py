"""Spans around the calls into each qbattery layer, recorded from outside `src/`.

`Tracer.install` replaces the public functions of each module, and the names
that other modules import from it, with wrappers that record a span per call:
name, parent span, total dimension D of the instance being worked on, a size
(trials, grid points or threads, where the layer has one), start and end. The
constructors of `HermitianOperator` and `DensityMatrix` and `numpy.linalg.eigh`
are wrapped the same way, so the spans also count them. Spans stay in memory;
`uninstall` restores every replaced attribute.
"""

import contextlib
import itertools
import threading
import time
from collections import namedtuple

import numpy as np

import qbattery.cli
import qbattery.dynamics
import qbattery.ensembles
import qbattery.moments
import qbattery.operators
import qbattery.search

# `cpu` is the thread CPU time of a span run as an item of the pool layer, else 0.
Span = namedtuple("Span", "sid parent name dim size t0 t1 cpu")

_mods = {
    "cli": qbattery.cli,
    "dynamics": qbattery.dynamics,
    "ensembles": qbattery.ensembles,
    "moments": qbattery.moments,
    "operators": qbattery.operators,
    "search": qbattery.search,
}


def _structure_dim(i):
    return lambda args: args[i].dim


def _matrix_dim(i):
    return lambda args: np.shape(args[i])[0]


# (span name, the modules holding the name, attribute, own dimension, size,
#  inherit the caller's D first). The first module listed defines the function.
_FUNCTIONS = [
    ("ensembles.draw_instance", ("ensembles", "cli"), "draw_instance",
     _structure_dim(0), None, False),
    ("moments.verify_instance", ("moments", "cli", "dynamics", "search"), "verify_instance",
     _structure_dim(3), None, False),
    ("moments.compute_moments", ("moments", "cli", "search"), "compute_moments",
     _structure_dim(3), None, False),
    ("moments.decomposition_terms", ("moments",), "decomposition_terms",
     _structure_dim(3), None, False),
    ("operators.matrix_sqrt", ("operators", "moments"), "matrix_sqrt",
     lambda args: args[0].dim, None, True),
    ("operators.embed_battery_op", ("operators", "moments", "dynamics"), "embed_battery_op",
     _structure_dim(1), None, False),
    ("dynamics.trajectory_report", ("dynamics", "cli"), "trajectory_report",
     lambda args: args[1].structure.dim, lambda args: len(args[3]), False),
    ("search.find_zero_power", ("search", "cli"), "find_zero_power",
     lambda args: args[0].structure.dim, None, False),
    ("search.find_saturating", ("search", "cli"), "find_saturating",
     lambda args: args[0].structure.dim, None, False),
    ("cli.verify", ("cli",), "cmd_verify", lambda args: None, lambda args: args[0].trials, False),
    ("cli.evolve", ("cli",), "cmd_evolve", lambda args: None, None, False),
    ("cli.map_ordered", ("cli",), "_map_ordered", lambda args: None, lambda args: args[2], False),
]

# Spans opened on a worker thread of this layer's pool have this layer as parent,
# and record the CPU time of their thread.
_POOL_LAYER = "cli.map_ordered"

# `trajectory_rows` is a generator: its wrapper drains it inside the span, so the
# span holds the row formatting and not the CSV join in `cli` that consumes it.
_GENERATORS = {"dynamics.trajectory_rows": (("dynamics", "cli"), "trajectory_rows")}


class Tracer:
    """Records spans while installed and enabled; `paused()` stops recording for a while."""

    def __init__(self):
        self.spans: list[Span] = []
        self.enabled = False
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._pool_parent = None
        self._restore = []

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, fn, name, own_dim, size_of, inherit_dim):
        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            stack = self._stack()
            parent = stack[-1] if stack else self._pool_parent
            parent_sid, parent_dim = parent if parent is not None else (0, None)
            pooled = self._pool_parent is not None and parent_sid == self._pool_parent[0]
            dim = parent_dim if inherit_dim and parent_dim is not None else own_dim(args)
            if dim is None:
                dim = parent_dim
            sid = next(self._ids)
            size = size_of(args) if size_of is not None else 0
            stack.append((sid, dim))
            if name == _POOL_LAYER:
                self._pool_parent = (sid, dim)
            c0 = time.thread_time() if pooled else 0.0
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                cpu = time.thread_time() - c0 if pooled else 0.0
                stack.pop()
                if name == _POOL_LAYER:
                    self._pool_parent = None
                self.spans.append(Span(sid, parent_sid, name, dim, size, t0, t1, cpu))

        return traced

    def _wrap_generator(self, fn, name):
        plain = self._wrap(lambda records: list(fn(records)), name,
                           lambda args: None, lambda args: len(args[0]), False)
        return lambda records: iter(plain(records))

    def _patch(self, owner, attr, value):
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self):
        """Replace every traced attribute and start recording."""
        for name, mods, attr, own_dim, size_of, inherit in _FUNCTIONS:
            wrapped = self._wrap(getattr(_mods[mods[0]], attr), name, own_dim, size_of, inherit)
            for mod in mods:
                self._patch(_mods[mod], attr, wrapped)
        for name, (mods, attr) in _GENERATORS.items():
            wrapped = self._wrap_generator(getattr(_mods[mods[0]], attr), name)
            for mod in mods:
                self._patch(_mods[mod], attr, wrapped)
        for cls in (qbattery.operators.HermitianOperator, qbattery.operators.DensityMatrix):
            init = self._wrap(cls.__init__, f"operators.{cls.__name__}",
                              _matrix_dim(1), None, True)
            self._patch(cls, "__init__", init)
        self._patch(np.linalg, "eigh",
                    self._wrap(np.linalg.eigh, "numpy.linalg.eigh", _matrix_dim(0), None, True))
        self.enabled = True

    def uninstall(self):
        """Stop recording and put back every replaced attribute."""
        self.enabled = False
        while self._restore:
            owner, attr, value = self._restore.pop()
            setattr(owner, attr, value)

    @contextlib.contextmanager
    def paused(self):
        """Record nothing inside the block."""
        was, self.enabled = self.enabled, False
        try:
            yield
        finally:
            self.enabled = was


class SpanIndex:
    """Lookups over a finished list of spans."""

    def __init__(self, spans):
        self.by_id = {s.sid: s for s in spans}
        self.children = {}
        self.named = {}
        for s in spans:
            self.children.setdefault(s.parent, []).append(s)
            self.named.setdefault(s.name, []).append(s)

    def of(self, name: str) -> list:
        return self.named.get(name, [])

    def nearest(self, span: Span, name: str):
        """The closest enclosing span called `name`, or None."""
        parent = self.by_id.get(span.parent)
        while parent is not None and parent.name != name:
            parent = self.by_id.get(parent.parent)
        return parent

    def self_time(self, span: Span) -> float:
        """Span duration minus the part of it that its child spans cover."""
        covered, reach = 0.0, span.t0
        for c in sorted(self.children.get(span.sid, []), key=lambda c: c.t0):
            start, end = max(c.t0, reach), min(c.t1, span.t1)
            if end > start:
                covered += end - start
                reach = end
        return (span.t1 - span.t0) - covered
