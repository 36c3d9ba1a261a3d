"""In-memory span tracer that times calls into a program from outside.

A wrapper replaces a function wherever callers look it up: in its
defining module and in every loaded module of the traced package that
bound the same object by name (``from .stepper import step``), or in a
dispatch table such as ``acceptance.CRITERIA``.  Each call records one
span: a name, a start, an end, the index of the enclosing span (-1 at
the top) and a byte count that only transform spans fill in.  Spans
stay in parallel lists until the caller reduces them.

A function that no longer exists cannot be wrapped; its span name goes
to ``absent`` and the run goes on.
"""

from __future__ import annotations

import importlib
import sys
import time
from contextlib import contextmanager

#: the package whose modules get wrappers wherever they bound a target
PACKAGE = "kslogistic"

#: transform entry points counted in scipy.fft and numpy.fft
FFT_FUNCTIONS = (
    "fft", "ifft", "fft2", "ifft2", "fftn", "ifftn",
    "rfft", "irfft", "rfft2", "irfft2", "rfftn", "irfftn",
)


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.names: list = []
        self.starts: list = []
        self.ends: list = []
        self.parents: list = []
        self.nbytes: list = []
        self.counts: dict = {}
        self.absent: list = []
        self._stack: list = []
        self._targets: list = []  # (module path, attribute, span name, on_result)
        self._tables: list = []  # (module path, table attribute, key, span name)
        self._undo: list = []  # (container, key, original, via setattr)

    # -- recording ---------------------------------------------------------

    def _open(self, name: str) -> int:
        i = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.starts.append(0.0)
        self.ends.append(0.0)
        self.nbytes.append(0)
        self._stack.append(i)
        return i

    def _close(self, i: int, t0: float) -> None:
        self.ends[i] = self.clock()
        self.starts[i] = t0
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        """Record a span around a block, e.g. one repetition."""
        i = self._open(name)
        t0 = self.clock()
        try:
            yield i
        finally:
            self._close(i, t0)

    def count(self, key: str, amount=1) -> None:
        self.counts[key] = self.counts.get(key, 0) + amount

    def _wrapper(self, fn, name: str, on_result=None):
        def traced(*args, **kwargs):
            i = self._open(name)
            t0 = self.clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(i, t0)
            if on_result is not None:
                on_result(self, i, args, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    # -- what to wrap ------------------------------------------------------

    def target(self, module: str, attr: str, name: str, on_result=None) -> None:
        """Plan to wrap ``module.attr`` under span ``name``."""
        self._targets.append((module, attr, name, on_result))

    def table_target(self, module: str, table: str, key: str, name: str) -> None:
        """Plan to wrap the entry ``module.table[key]``."""
        self._tables.append((module, table, key, name))

    def fft_targets(self, module: str, name: str) -> None:
        """Plan to count every transform entry point of ``module``."""
        for attr in FFT_FUNCTIONS:
            self.target(module, attr, name, _count_transform)

    # -- installing --------------------------------------------------------

    def install(self) -> None:
        """Put every planned wrapper in place.  Missing targets go to
        ``absent``; transform entry points a library lacks are skipped."""
        self.absent = []
        namespaces = [
            m for key, m in list(sys.modules.items())
            if m is not None and (key == PACKAGE or key.startswith(PACKAGE + "."))
        ]
        for module, attr, name, on_result in self._targets:
            mod = _try_import(module)
            original = getattr(mod, attr, None) if mod is not None else None
            if not callable(original):
                if on_result is not _count_transform:
                    self.absent.append(name)
                continue
            wrapper = self._wrapper(original, name, on_result)
            self._replace(mod, attr, original, wrapper, True)
            for ns in namespaces:
                for key, val in list(vars(ns).items()):
                    if val is original:
                        self._replace(ns, key, original, wrapper, True)
        for module, table, key, name in self._tables:
            mod = _try_import(module)
            mapping = getattr(mod, table, None) if mod is not None else None
            original = mapping.get(key) if isinstance(mapping, dict) else None
            if not callable(original):
                self.absent.append(name)
                continue
            self._replace(mapping, key, original, self._wrapper(original, name), False)

    def _replace(self, container, key, original, wrapper, as_attr: bool) -> None:
        if as_attr:
            setattr(container, key, wrapper)
        else:
            container[key] = wrapper
        self._undo.append((container, key, original, as_attr))

    def uninstall(self) -> None:
        """Restore every original, newest patch first."""
        while self._undo:
            container, key, original, as_attr = self._undo.pop()
            if as_attr:
                setattr(container, key, original)
            else:
                container[key] = original

    @contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()


def _count_transform(tracer: Tracer, i: int, args, result) -> None:
    """Bytes a transform reads plus bytes it writes, from array sizes."""
    tracer.nbytes[i] = (getattr(args[0], "nbytes", 0) if args else 0) + getattr(result, "nbytes", 0)


def _try_import(module: str):
    try:
        return importlib.import_module(module)
    except ImportError:
        return None


class SpanTable:
    """Read-only views over a tracer's spans."""

    def __init__(self, tracer: Tracer):
        self.names = tracer.names
        self.parents = tracer.parents
        self.durations = [e - s for s, e in zip(tracer.starts, tracer.ends)]
        self.nbytes = tracer.nbytes
        child = [0.0] * len(self.names)
        for i, p in enumerate(self.parents):
            if p >= 0:
                child[p] += self.durations[i]
        self.child_time = child

    def nearest(self, pred) -> list:
        """For each span, the index of the closest enclosing span
        (itself included) whose name satisfies pred, else -1.  Parents
        precede their children, so one forward pass suffices."""
        out = [-1] * len(self.names)
        for i, name in enumerate(self.names):
            if pred(name):
                out[i] = i
            elif self.parents[i] >= 0:
                out[i] = out[self.parents[i]]
        return out

    def self_time(self, i: int) -> float:
        return self.durations[i] - self.child_time[i]

    def indices(self, name: str) -> list:
        return [i for i, n in enumerate(self.names) if n == name]
