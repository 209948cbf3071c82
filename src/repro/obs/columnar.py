"""Columnar span storage: staged rows instead of per-span objects.

At population scale per-span objects dominate traced-run cost: a 60 s
run of 10k users creates ~1M :class:`~repro.obs.span.Span` objects plus
a children list each, and the allocation/GC traffic roughly doubles the
wall time of the whole simulation.  This module stores every span of a
run as one *row* — (kind code, interned name id, start, end, parent
row) plus a sparse attribute side-table — and materializes
:class:`~repro.obs.span.Span` trees lazily, only for the traces an
exporter or analysis actually touches.

Design notes:

* **The append path is one list-extend per span.**  Instrumentation
  sites run inside the simulation hot loop, so each trace stages its
  rows in a single flat list with a stride of :data:`ROW_STRIDE` slots
  (``begin``/``add`` extend it by one 5-slot row; ``end`` mutates one
  slot in place) and does no numpy work at all.  One flat list per
  trace instead of one list per span keeps the retained object count
  at the number of *traces*, not spans — allocator traffic, cyclic-GC
  scan work, and walk locality all scale with 10k traces rather than
  1M rows.  Parent references are trace-local (the row's base offset),
  which keeps the hot path free of any shared-table indirection; the
  :class:`SpanStore` owns what is genuinely shared — the interned name
  table and the trace registry — and :meth:`SpanStore.columns` packs
  every staged row into one structured array (:data:`SPAN_DTYPE`, with
  globalized parent indexes and the owning request id) on demand, in
  bulk.  Python floats are the source of truth — materialized trees
  carry the exact values the instrumentation recorded, so JSONL export
  is byte-identical to a per-span object tree's.
* **Row order is pre-order.**  Every span row is appended after its
  parent's row and after all rows of earlier siblings' subtrees, so a
  trace's row sequence is exactly the pre-order walk of its finished
  tree (the first row is always the root).
  :meth:`ColumnarTrace.leaf_durations` exploits this to fold leaf
  durations straight off the rows — same keys, same insertion order,
  same sums as a pre-order walk of the materialized tree — without
  building a single ``Span``.
* **Open spans have ``end is None``** (``NaN`` in the packed array).
  A truncated trace (simulation horizon hit mid-request) materializes
  with its open spans' ``end`` set to ``None``.

``ColumnarTrace`` exposes the span-tree API
(``begin``/``end``/``add``/``root``/``walk``/``spans``/
``leaf_durations``/``finished``/``depth``) that exporters and
:mod:`repro.analysis.attribution` consume; equivalence with a plain
per-span object tree (the reference ``Trace`` in
``tests/_span_reference.py``) is property-tested in
``tests/test_obs_columnar.py``.
"""

from __future__ import annotations

from typing import Any, Dict, Iterator, List, Optional, Tuple

import numpy as np

from .span import LEAF_KINDS, SPAN_KINDS, Span

__all__ = ["SpanStore", "ColumnarTrace", "SPAN_DTYPE", "ROW_STRIDE"]

#: The packed layout :meth:`SpanStore.columns` produces.
SPAN_DTYPE = np.dtype(
    [
        ("kind", np.uint8),      # index into SPAN_KINDS
        ("name_id", np.int32),   # index into SpanStore.names
        ("start", np.float64),
        ("end", np.float64),     # NaN while the span is open
        ("parent", np.int32),    # parent row (global), -1 for a root
        ("rid", np.int64),       # owning request id
    ]
)

#: Slot offsets of one staged row inside a trace's flat ``data`` list.
#: Staged rows carry the *parent row's base offset* (or -1); ``rid``
#: lives on the trace, and parents are globalized only when
#: :meth:`SpanStore.columns` packs.
KIND, NAME_ID, START, END, PARENT = range(5)

#: Slots per staged row.
ROW_STRIDE = 5

_KIND_CODES = {kind: code for code, kind in enumerate(SPAN_KINDS)}
_LEAF_CODES = frozenset(_KIND_CODES[kind] for kind in LEAF_KINDS)
_RTO_CODE = _KIND_CODES["rto_wait"]


class SpanStore:
    """The shared backing of every trace in one run.

    Owns the interned span-name table and the registry of traces (in
    creation order); the rows themselves are staged on the traces and
    flattened here by :meth:`columns`.
    """

    __slots__ = ("traces", "names", "_name_codes")

    def __init__(self) -> None:
        #: Every :class:`ColumnarTrace` backed by this store, in
        #: creation order — the packing order of :meth:`columns`.
        self.traces: List["ColumnarTrace"] = []
        #: Interned span names; ``NAME_ID`` slots index into this.
        self.names: List[str] = []
        self._name_codes: Dict[str, int] = {}

    def __len__(self) -> int:
        return sum(len(trace.data) for trace in self.traces) // ROW_STRIDE

    def intern(self, name: str) -> int:
        """The stable id of ``name``, assigning one on first sight."""
        nid = self._name_codes.get(name)
        if nid is None:
            nid = len(self.names)
            self._name_codes[name] = nid
            self.names.append(name)
        return nid

    def adopt(self, trace: "ColumnarTrace") -> None:
        """Register a trace created with ``register=False``.

        The adaptive tracer (:mod:`repro.obs.streaming`) records every
        request speculatively but *retains* only a budgeted sample plus
        the promoted tail: traces start unregistered (their rows stage
        on the trace object only) and enter the store — and therefore
        :meth:`columns` packing — at the moment the retention decision
        keeps them.  Unretained traces are simply dropped on the floor
        and garbage-collected, which is what bounds traced memory at
        full-population scale.
        """
        if trace.store is not self:
            raise ValueError("trace belongs to a different store")
        self.traces.append(trace)

    def columns(self) -> np.ndarray:
        """Pack every staged row into one structured array (copies).

        Rows appear trace by trace in creation order, pre-order within
        each trace; parent indexes are globalized against that order.
        """
        out = np.empty(len(self), dtype=SPAN_DTYPE)
        i = 0
        for trace in self.traces:
            offset = i
            rid = trace.rid
            data = trace.data
            for base in range(0, len(data), ROW_STRIDE):
                end = data[base + END]
                parent = data[base + PARENT]
                out[i] = (
                    data[base + KIND],
                    data[base + NAME_ID],
                    data[base + START],
                    np.nan if end is None else end,
                    parent if parent < 0 else parent // ROW_STRIDE + offset,
                    rid,
                )
                i += 1
        return out

    def open_rows(self) -> List[int]:
        """Global rows of spans never closed (truncated at the horizon),
        indexed consistently with :meth:`columns` ordering."""
        out: List[int] = []
        i = 0
        for trace in self.traces:
            data = trace.data
            for base in range(0, len(data), ROW_STRIDE):
                if data[base + END] is None:
                    out.append(i)
                i += 1
        return out


class ColumnarTrace:
    """One request's span tree, staged as stride-5 rows in a flat list.

    The tree view (``root``/``walk``/``spans``) is materialized on
    first access and cached once the trace is finished.
    """

    __slots__ = (
        "store", "rid", "data", "attrs", "_stack", "_tree", "_name_codes"
    )

    def __init__(self, store: SpanStore, rid: int, register: bool = True):
        self.store = store
        self.rid = rid
        #: Flat staged rows, :data:`ROW_STRIDE` slots each
        #: (``kind, name_id, start, end, parent``) in creation (= pre-)
        #: order; the row at offset 0 is the root.
        self.data: List[Any] = []
        #: Sparse side-table: row base offset -> attrs dict (created on
        #: first use; most spans carry no attributes).
        self.attrs: Optional[Dict[int, Dict[str, Any]]] = None
        self._stack: List[int] = []
        self._tree: Optional[Span] = None
        # Direct ref to the shared intern table: one dict probe on the
        # hot path instead of two attribute hops through the store.
        self._name_codes = store._name_codes
        if register:
            store.traces.append(self)

    @property
    def depth(self) -> int:
        """Number of currently open spans."""
        return len(self._stack)

    @property
    def finished(self) -> bool:
        return bool(self.data) and not self._stack

    def __len__(self) -> int:
        return len(self.data) // ROW_STRIDE

    # -- recording (hot path) ------------------------------------------

    def begin(self, kind: str, name: str, t: float, **attrs: Any) -> int:
        """Open a nesting span at time ``t``; returns its base offset."""
        stack = self._stack
        data = self.data
        if stack:
            parent = stack[-1]
        elif not data:
            parent = -1
        else:
            raise ValueError(
                f"trace {self.rid} already has a closed root span"
            )
        nid = self._name_codes.get(name)
        if nid is None:
            nid = self.store.intern(name)
        base = len(data)
        data.extend((_KIND_CODES[kind], nid, t, None, parent))
        if attrs:
            table = self.attrs
            if table is None:
                table = self.attrs = {}
            table[base] = attrs
        stack.append(base)
        return base

    def end(self, t: float, **attrs: Any) -> int:
        """Close the innermost open span at time ``t``."""
        stack = self._stack
        if not stack:
            raise ValueError(f"trace {self.rid} has no open span to end")
        base = stack.pop()
        self.data[base + END] = t
        if attrs:
            table = self.attrs
            if table is None:
                table = self.attrs = {}
            existing = table.get(base)
            if existing is None:
                table[base] = attrs
            else:
                existing.update(attrs)
        return base

    def add(
        self, kind: str, name: str, start: float, end: float, **attrs: Any
    ) -> int:
        """Record a closed leaf span under the current open span."""
        stack = self._stack
        if not stack:
            raise ValueError(
                f"trace {self.rid}: add() outside any open span"
            )
        nid = self._name_codes.get(name)
        if nid is None:
            nid = self.store.intern(name)
        data = self.data
        base = len(data)
        data.extend((_KIND_CODES[kind], nid, start, end, stack[-1]))
        if attrs:
            table = self.attrs
            if table is None:
                table = self.attrs = {}
            table[base] = attrs
        return base

    # -- tree views (lazy) ---------------------------------------------

    def _materialize(self) -> Optional[Span]:
        data = self.data
        attrs = self.attrs
        names = self.store.names
        spans: Dict[int, Span] = {}
        root: Optional[Span] = None
        for base in range(0, len(data), ROW_STRIDE):
            span = Span(
                SPAN_KINDS[data[base + KIND]],
                names[data[base + NAME_ID]],
                data[base + START],
                data[base + END],
                attrs=None if attrs is None else attrs.get(base),
            )
            parent = data[base + PARENT]
            if parent < 0:
                root = span
            else:
                spans[parent].children.append(span)
            spans[base] = span
        return root

    @property
    def root(self) -> Optional[Span]:
        """The materialized span tree (cached once finished)."""
        if self._tree is not None:
            return self._tree
        tree = self._materialize()
        if self.finished:
            self._tree = tree
        return tree

    def walk(self) -> Iterator[Tuple[Span, int]]:
        """Yield (span, depth) pairs in pre-order."""
        root = self.root
        if root is None:
            return
        stack: List[Tuple[Span, int]] = [(root, 0)]
        while stack:
            span, depth = stack.pop()
            yield span, depth
            for child in reversed(span.children):
                stack.append((child, depth + 1))

    def spans(self) -> List[Span]:
        """All spans in pre-order."""
        return [span for span, _depth in self.walk()]

    def leaf_durations(self) -> Dict[str, float]:
        """Total duration per leaf component, straight off the rows.

        Row order is pre-order, so keys appear in the same order (and
        with the same sums) as a pre-order walk of :attr:`root`.
        """
        data = self.data
        names = self.store.names
        out: Dict[str, float] = {}
        for base in range(0, len(data), ROW_STRIDE):
            kind = data[base]
            if kind not in _LEAF_CODES:
                continue
            end = data[base + END]
            if end is None:
                continue
            key = (
                "rto_wait"
                if kind == _RTO_CODE
                else f"{SPAN_KINDS[kind]}:{names[data[base + NAME_ID]]}"
            )
            duration = end - data[base + START]
            if key in out:
                out[key] += duration
            else:
                out[key] = duration
        return out

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ColumnarTrace(rid={self.rid}, spans={len(self)}, "
            f"open={len(self._stack)})"
        )
