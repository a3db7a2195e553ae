"""Layer timing for the traced benchmark run.

Layers are timed from outside the program: :func:`instrument` swaps public
functions and methods for wrappers that record into a
:class:`repro.perf.Profiler` with ``trace=True``, and puts the originals
back when the block ends.  The profiler keeps every span's name, start and
duration in memory; a span's parent is the innermost span whose interval
contains it, since every span is recorded on one thread.

A span's self time is its duration minus the time its direct children
cover.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Callable, Dict, Iterable, Iterator, List, Tuple, Union

from repro.perf import Profiler

# A target's span name, or a function that takes the original callable and
# returns its replacement (for spans whose name depends on the call).
Wrapping = Union[str, Callable[[Callable], Callable]]

# Slack for float rounding of the profiler's millisecond offsets: a span
# that starts within this of an open span's end is its sibling, not child.
_EPS_MS = 1e-6


@contextmanager
def instrument(
    profiler: Profiler, targets: Iterable[Tuple[object, str, Wrapping]]
) -> Iterator[None]:
    """Replace each target attribute by a span-recording wrapper for the block.

    Each target is ``(owner, attribute, wrapping)``, where the owner is a
    module, a class or an instance.  A string ``wrapping`` records every
    call under that span name through ``profiler.wrap``.

    Instance attributes that did not exist before (a method reached through
    the class) are deleted again on exit; everything else is restored.
    """
    saved = []
    try:
        for owner, attr, wrapping in targets:
            had_own = attr in vars(owner)
            saved.append((owner, attr, had_own, vars(owner).get(attr)))
            original = getattr(owner, attr)
            if isinstance(wrapping, str):
                wrapped = profiler.wrap(wrapping, original)
            else:
                wrapped = wrapping(original)
            setattr(owner, attr, wrapped)
        yield
    finally:
        for owner, attr, had_own, original in reversed(saved):
            if had_own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)


def self_times(entries: List[Tuple[str, float, float]]) -> List[float]:
    """Self milliseconds of each ``(name, start_ms, duration_ms)`` entry.

    Parents follow from interval nesting: entries are visited by start
    (longest first on a tie) while a stack holds the spans still open.
    """
    order = sorted(range(len(entries)), key=lambda i: (entries[i][1], -entries[i][2]))
    covered = [0.0] * len(entries)
    stack: List[int] = []
    for i in order:
        _, start, duration = entries[i]
        while stack and start >= sum(entries[stack[-1]][1:]) - _EPS_MS:
            stack.pop()
        if stack:
            covered[stack[-1]] += duration
        stack.append(i)
    return [entry[2] - own for entry, own in zip(entries, covered)]


def summarize(entries: List[Tuple[str, float, float]]) -> Dict[str, Dict[str, float]]:
    """Per span name: ``calls``, total ``duration`` and total ``self`` seconds."""
    out: Dict[str, Dict[str, float]] = {}
    for (name, _, duration), own in zip(entries, self_times(entries)):
        entry = out.setdefault(name, {"calls": 0, "duration": 0.0, "self": 0.0})
        entry["calls"] += 1
        entry["duration"] += duration / 1e3
        entry["self"] += own / 1e3
    return out
