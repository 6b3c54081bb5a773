"""In-memory span tracer that wraps a package's functions and methods from outside.

A span has a name, a start, an end and a parent. Wrappers are installed by
object identity: a module-level function is replaced in every module of the
package that binds it (so ``from .losses import total_loss`` inside another
module is covered too), and a method is replaced on its class. Every
original is put back by ``restore``. Nothing here imports the traced package;
targets are found by searching its loaded modules, so moving a function to
another module does not make its span vanish.
"""

from __future__ import annotations

import functools
import importlib
import math
import pkgutil
import sys
import time
from collections.abc import Callable
from contextlib import contextmanager
from dataclasses import dataclass, field
from fractions import Fraction


class TraceError(RuntimeError):
    """A target could not be resolved, or a required span never ran."""


@dataclass(slots=True)
class Span:
    name: str
    start: float
    end: float
    parent: int  # index into Tracer.spans, -1 for a root span
    work: dict[str, float] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


Namer = Callable[[tuple, dict], str]
Accountant = Callable[[tuple, dict, object], dict]


class Tracer:
    """Records nested spans of one thread and owns the wrappers it installs."""

    def __init__(self, package: str, clock: Callable[[], float] = time.perf_counter):
        self.package = package
        self.clock = clock
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._originals: list[tuple[object, str, object]] = []

    # -- recording ------------------------------------------------------------

    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(name, self.clock(), math.nan, parent))
        index = len(self.spans) - 1
        self._stack.append(index)
        return index

    def close(self, index: int) -> None:
        if not self._stack or self._stack[-1] != index:
            raise TraceError(f"span {self.spans[index].name!r} closed out of order")
        self._stack.pop()
        self.spans[index].end = self.clock()

    @contextmanager
    def span(self, name: str):
        """Record one span around a block."""
        index = self.open(name)
        try:
            yield index
        finally:
            self.close(index)

    # -- resolving targets ----------------------------------------------------

    def modules(self) -> list:
        """The package and all its submodules, imported if not yet loaded."""
        root = importlib.import_module(self.package)
        for info in pkgutil.walk_packages(getattr(root, "__path__", []), self.package + "."):
            importlib.import_module(info.name)
        prefix = self.package + "."
        return [
            mod
            for name, mod in sorted(sys.modules.items())
            if mod is not None and (name == self.package or name.startswith(prefix))
        ]

    def resolve(self, qualname: str):
        """Find the object a ``name`` or ``Class.method`` refers to.

        The object must be defined inside the package; a name re-exported by
        several modules resolves to the single object they share.
        """
        head, _, rest = qualname.partition(".")
        found = []
        for mod in self.modules():
            obj = vars(mod).get(head)
            if obj is None or getattr(obj, "__module__", None) != mod.__name__:
                continue
            if rest:
                obj = vars(obj).get(rest)
                if obj is None:
                    continue
            if not any(obj is f for f in found):
                found.append(obj)
        if len(found) != 1:
            raise TraceError(f"{qualname!r} resolves to {len(found)} definitions in {self.package}")
        return found[0]

    # -- wrapping ---------------------------------------------------------------

    def _wrapper(self, original, namer: Namer, account: Accountant | None):
        @functools.wraps(original)
        def traced(*args, **kwargs):
            with self.span(namer(args, kwargs)) as index:
                result = original(*args, **kwargs)
            if account is not None:
                self.spans[index].work = account(args, kwargs, result)
            return result

        return traced

    def wrap_function(self, qualname: str, namer: Namer | str, account: Accountant | None = None) -> int:
        """Replace a module-level function in every package module binding it.

        Returns how many bindings were replaced.
        """
        original = self.resolve(qualname)
        traced = self._wrapper(original, _as_namer(namer), account)
        count = 0
        for mod in self.modules():
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._originals.append((mod, attr, original))
                    setattr(mod, attr, traced)
                    count += 1
        return count

    def wrap_method(self, qualname: str, namer: Namer | str, account: Accountant | None = None) -> None:
        """Replace ``Class.method`` on its class."""
        cls_name, _, method = qualname.partition(".")
        cls = self.resolve(cls_name)
        original = vars(cls)[method]
        self._originals.append((cls, method, original))
        setattr(cls, method, self._wrapper(original, _as_namer(namer), account))

    def restore(self) -> None:
        """Put back every original, newest first."""
        while self._originals:
            owner, attr, original = self._originals.pop()
            setattr(owner, attr, original)


def _as_namer(namer: Namer | str) -> Namer:
    if isinstance(namer, str):
        return lambda args, kwargs: namer
    return namer


# -- analysis -------------------------------------------------------------------


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the durations of its direct children.

    Spans come from one thread, so siblings never overlap and the children
    of a span cover exactly the sum of their durations.
    """
    out = [s.duration for s in spans]
    for s in spans:
        if s.parent >= 0:
            out[s.parent] -= s.duration
    return out


@dataclass
class SpanStats:
    calls: int = 0
    total: float = 0.0
    self_total: float = 0.0
    work: dict[str, float] = field(default_factory=dict)


def aggregate(spans: list[Span]) -> dict[str, SpanStats]:
    """Per span name: call count, summed duration, summed self time and work."""
    stats: dict[str, SpanStats] = {}
    for s, own in zip(spans, self_times(spans)):
        st = stats.setdefault(s.name, SpanStats())
        st.calls += 1
        st.total += s.duration
        st.self_total += own
        for key, value in s.work.items():
            st.work[key] = st.work.get(key, 0.0) + value
    return stats


PERCENTILE_LADDER = (50, 75, 90, 95, 99, 99.9)
MIN_BEYOND = 10


def tail_percentile(n: int, ladder=PERCENTILE_LADDER, min_beyond: int = MIN_BEYOND):
    """The highest percentile on the ladder with at least ``min_beyond`` samples
    ranked above it, or None when even the lowest has fewer.

    The p-th percentile of n samples is the one at nearest rank ceil(p*n/100),
    so n - rank samples lie beyond it.
    """
    best = None
    for p in ladder:
        rank = math.ceil(Fraction(str(p)) * n / 100)
        if n - rank >= min_beyond:
            best = p
    return best


def percentile(values: list[float], p) -> float:
    """Nearest-rank percentile, consistent with ``tail_percentile``."""
    if not values:
        raise ValueError("percentile of no values")
    ordered = sorted(values)
    rank = max(1, math.ceil(Fraction(str(p)) * len(ordered) / 100))
    return ordered[rank - 1]
