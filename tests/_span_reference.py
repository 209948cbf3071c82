"""The object span tree: the reference oracle for the columnar store.

:class:`Trace` builds one request's span tree as linked
:class:`~repro.obs.span.Span` objects, one per span.  The simulator
records spans in :class:`repro.obs.columnar.ColumnarTrace` rows
instead; this class stays as the independent, obviously-correct
implementation that ``tests/test_obs_columnar.py`` replays the same
operations into, asserting both produce identical trees.
"""

from __future__ import annotations

from typing import Any, Dict, Iterator, List, Optional, Tuple

from repro.obs.span import LEAF_KINDS, Span

__all__ = ["Trace"]


class Trace:
    """The span tree of one request, built via a begin/end stack.

    ``begin``/``end`` manage *nesting* spans (request, attempt, tier);
    ``add`` records an already-closed *leaf* span as a child of the
    current innermost open span.  Instrumentation sites close their
    spans in LIFO order even on exceptions (each site owns a
    try/except), so the stack stays balanced.
    """

    __slots__ = ("rid", "root", "_stack")

    def __init__(self, rid: int):
        self.rid = rid
        self.root: Optional[Span] = None
        self._stack: List[Span] = []

    @property
    def depth(self) -> int:
        """Number of currently open spans."""
        return len(self._stack)

    @property
    def finished(self) -> bool:
        return self.root is not None and not self._stack

    def begin(self, kind: str, name: str, t: float, **attrs: Any) -> Span:
        """Open a nesting span at time ``t`` and push it."""
        span = Span(kind, name, t, attrs=attrs or None)
        if self._stack:
            self._stack[-1].children.append(span)
        elif self.root is None:
            self.root = span
        else:
            raise ValueError(
                f"trace {self.rid} already has a closed root span"
            )
        self._stack.append(span)
        return span

    def end(self, t: float, **attrs: Any) -> Span:
        """Close the innermost open span at time ``t``."""
        if not self._stack:
            raise ValueError(f"trace {self.rid} has no open span to end")
        span = self._stack.pop()
        span.end = t
        if attrs:
            span.attrs.update(attrs)
        return span

    def add(
        self, kind: str, name: str, start: float, end: float, **attrs: Any
    ) -> Span:
        """Record a closed leaf span under the current open span."""
        if not self._stack:
            raise ValueError(
                f"trace {self.rid}: add() outside any open span"
            )
        span = Span(kind, name, start, end, attrs=attrs or None)
        self._stack[-1].children.append(span)
        return span

    def walk(self) -> Iterator[Tuple[Span, int]]:
        """Yield (span, depth) pairs in pre-order."""
        if self.root is None:
            return
        stack: List[Tuple[Span, int]] = [(self.root, 0)]
        while stack:
            span, depth = stack.pop()
            yield span, depth
            for child in reversed(span.children):
                stack.append((child, depth + 1))

    def spans(self) -> List[Span]:
        """All spans in pre-order."""
        return [span for span, _depth in self.walk()]

    def leaf_durations(self) -> Dict[str, float]:
        """Total duration per leaf component.

        Keys are ``rto_wait`` (client side, one bucket) and
        ``<kind>:<name>`` for the in-system leaves, e.g.
        ``queue_wait:mysql`` or ``service:tomcat``.
        """
        out: Dict[str, float] = {}
        for span, _depth in self.walk():
            if span.kind not in LEAF_KINDS or span.end is None:
                continue
            key = (
                "rto_wait"
                if span.kind == "rto_wait"
                else f"{span.kind}:{span.name}"
            )
            out[key] = out.get(key, 0.0) + span.duration
        return out

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        n = len(self.spans())
        return f"Trace(rid={self.rid}, spans={n}, open={len(self._stack)})"
