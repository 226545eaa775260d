"""Span recorder for the traced run.

``instrument`` rebinds, for the length of a ``with`` block, every name under
which a pathlab module holds one of the public functions listed in
``INSTRUMENTED``, so that calls from the benchmark and calls between
pathlab's own modules both open a span.  pathlab's source is not changed,
and the untraced run never enters the block.

A span has a name, a start, an end, the span that was open when it began
(its parent), the unit (benchmark group) it belongs to, and its busy time.
A plain call is busy from start to end.  A generator is busy only while it
runs between two items, so the consumer's work between items is not charged
to it.  Self time is busy time minus the busy time of the child spans.
"""

from __future__ import annotations

import functools
import gzip
import sys
from array import array
from contextlib import contextmanager

from pathlab import polynomials

# (module, attribute, span name, is a generator)
INSTRUMENTED = [
    ("paths", "contact_stats", "paths.contact_stats", False),
    ("paths", "descent_set", "paths.descent_set", False),
    ("paths", "noncontact_heights", "paths.noncontact_heights", False),
    ("swaps", "swapall", "swaps.swapall", False),
    ("swaps", "contact_word", "swaps.contact_word", False),
    ("words", "switch", "words.switch", False),
    ("words", "switch_inv", "words.switch", False),
    ("enumeration", "enumerate_paths", "enumeration.enumerate_paths", True),
    ("enumeration", "path_distribution", "enumeration.path_distribution", False),
    ("enumeration", "enumerate_tuples", "enumeration.enumerate_tuples", True),
    ("enumeration", "lgv_count", "enumeration.lgv_count", False),
    ("tuples", "h_stats", "tuples.h_stats", False),
    ("tuples", "u_stats", "tuples.u_stats", False),
    ("tableaux", "psi", "tableaux.psi", False),
    ("tableaux", "psi_inv", "tableaux.psi_inv", False),
    ("tableaux", "weight", "tableaux.weight", False),
    ("tableaux", "expected_weight", "tableaux.expected_weight", False),
    ("tableaux", "enumerate_flagged_ssyt", "tableaux.enumerate_flagged_ssyt", True),
    ("matroids", "tutte_poly", "matroids.tutte_poly", False),
    ("applications", "corollary_ij_check", "applications.corollary_ij_check", False),
    ("verify", "all_regions", "verify.all_regions", True),
    ("verify", "shapes_in_box", "verify.shapes_in_box", False),
    ("applications", "regions_touching_only_at_ends", "applications.regions_touching_only_at_ends", False),
]
EQ_SPAN = "polynomials.eq"


class Recorder:
    """Spans kept in memory, in parallel arrays, until ``dump``."""

    def __init__(self, clock):
        self.clock = clock
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("H")
        self.start = array("d")
        self.end = array("d")
        self.busy = array("d")
        self.parent = array("l")
        self.unit_of = array("l")
        self.items: dict[str, int] = {}
        self.unit = -1
        self._stack: list[int] = []
        self._resumed: dict[int, float] = {}

    def _new(self, name: str, now: float) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        self.name.append(nid)
        self.start.append(now)
        self.end.append(now)
        self.busy.append(0.0)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.unit_of.append(self.unit)
        return len(self.start) - 1

    def open(self, name: str) -> int:
        i = self._new(name, self.clock())
        self._stack.append(i)
        return i

    def close(self, i: int) -> None:
        now = self.clock()
        self._stack.pop()
        self.end[i] = now
        self.busy[i] = now - self.start[i]

    def resume(self, name: str, i: int | None) -> int:
        now = self.clock()
        if i is None:
            i = self._new(name, now)
        self._resumed[i] = now
        self._stack.append(i)
        return i

    def suspend(self, i: int) -> None:
        now = self.clock()
        self._stack.pop()
        self.end[i] = now
        self.busy[i] += now - self._resumed.pop(i)

    def truncate(self, mark: int) -> None:
        """Drop the spans from index ``mark`` on; none of them may be open."""
        for field in (self.name, self.start, self.end, self.busy, self.parent, self.unit_of):
            del field[mark:]

    def self_times(self, mark: int = 0) -> dict[str, tuple[int, float]]:
        """Span name -> (spans, total self time in seconds), over the spans
        from index ``mark`` on."""
        child = array("d", bytes(8 * len(self.busy)))
        for i in range(mark, len(self.parent)):
            p = self.parent[i]
            if p >= 0:
                child[p] += self.busy[i]
        out: dict[str, list] = {}
        for i in range(mark, len(self.name)):
            entry = out.setdefault(self.names[self.name[i]], [0, 0.0])
            entry[0] += 1
            entry[1] += self.busy[i] - child[i]
        return {name: (n, s) for name, (n, s) in out.items()}

    def dump(self, path) -> None:
        """Write the spans as gzipped tab-separated lines under a header:
        name, start, end, parent, unit, busy; times in seconds from the first
        span, parent and unit as indices (-1 for none)."""
        t0 = self.start[0] if self.start else 0.0
        names = self.names
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("name\tstart\tend\tparent\tunit\tbusy\n")
            rows = zip(self.name, self.start, self.end, self.parent, self.unit_of, self.busy)
            fh.writelines(
                f"{names[n]}\t{s - t0:.9f}\t{e - t0:.9f}\t{p}\t{u}\t{b:.9f}\n" for n, s, e, p, u, b in rows
            )


def _traced_call(rec: Recorder, name: str, fn):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        i = rec.open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            rec.close(i)

    return traced


def _traced_generator(rec: Recorder, name: str, fn):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        gen = fn(*args, **kwargs)
        i = None
        count = 0
        try:
            while True:
                i = rec.resume(name, i)
                try:
                    item = next(gen)
                except StopIteration:
                    return
                finally:
                    rec.suspend(i)
                count += 1
                yield item
        finally:
            rec.items[name] = rec.items.get(name, 0) + count

    return traced


@contextmanager
def instrument(rec: Recorder):
    """Rebind the instrumented functions in every loaded pathlab module."""
    modules = [m for n, m in list(sys.modules.items()) if n == "pathlab" or n.startswith("pathlab.")]
    undo = []
    try:
        for module_name, attr, span, is_gen in INSTRUMENTED:
            original = getattr(sys.modules[f"pathlab.{module_name}"], attr)
            wrap = _traced_generator if is_gen else _traced_call
            traced = wrap(rec, span, original)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, traced)
                        undo.append((module, key, original))
        cls = polynomials.MultiPoly
        undo.append((cls, "__eq__", cls.__eq__))
        cls.__eq__ = _traced_call(rec, EQ_SPAN, cls.__eq__)
        yield rec
    finally:
        for target, key, original in reversed(undo):
            setattr(target, key, original)
