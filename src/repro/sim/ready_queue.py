"""Array-backed ready queue: the vectorized scheduling core's data plane.

The scalar engines kept the ready queue as a plain ``List[Request]`` and let
every scheduler re-derive per-request scalars (deadline, LUT-average
remaining time, waiting clock, ...) through Python properties and dict
lookups at every layer boundary — O(queue) interpreter round trips per
decision.  :class:`ReadyQueue` instead keeps the scheduler-visible scalar
state in parallel **numpy arrays** (plus plain-list mirrors for the small-
queue fast path), maintained incrementally:

* **live and parked rows** — rows ``[0, len(queue))`` are the live queue
  every policy scans; the rows after them are *parked*: requests running a
  layer block on an accelerator (engines with more than one NPU, and the
  cluster engine).  Dispatch parks
  the winner with one row swap (``remove(request, requeue=True)``), the
  block end un-parks it with another (``add``) and refreshes only its
  progress columns, and a finished request's parked row is dropped
  (``forget``).  Constant columns and aux state never leave the row.
  ``remove`` raises before touching any state when its argument is not a
  live row, so the engines park a selected request as their membership
  check: a policy that picks a stranger or a running request fails loudly.
* **O(1) swap-remove** — removing a request moves another row into its
  slot in every column; order is not preserved (no converted policy is
  order-sensitive: every selection key ends in the unique rid).
* **O(1) incremental updates** — arrival fills a row from the request's
  cached state; a layer completion refreshes only the affected row.
* **column subsets** — the bound scheduler declares which columns it reads
  (``Scheduler.batch_columns``), and only those are maintained.
* **aux columns** — named scheduler-owned per-request state (PREMA tokens,
  Dysta's cached remaining estimate) that rides along with row moves and
  stays in the parked row while its request runs.

The queue also implements the ``Sequence`` protocol over the live
:class:`~repro.sim.request.Request` objects, so unconverted schedulers'
scalar ``select(queue, now)`` works on it unmodified.

Numpy arrays are the single source of truth; list mirrors exist because at
small queue depths (the common case at moderate load) a tight Python loop
over list elements beats numpy's per-ufunc dispatch overhead.  Vectorized
writers mark a column dirty and the mirror is rebuilt lazily.
"""

from __future__ import annotations

from itertools import islice
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import SchedulingError
from repro.sim.request import Request

#: Columns a scheduler may declare in ``batch_columns``.  ``rid`` is always
#: maintained.  ``est_*`` columns come from the (model, pattern) LUT entry;
#: ``true_*`` columns are ground truth (Oracle only by convention).
KNOWN_COLUMNS = (
    "arrival",
    "deadline",
    "priority",
    "est_isolated",
    "est_remaining",
    "true_isolated",
    "true_remaining",
    "last_run_end",
    "executed_time",
)

_INITIAL_CAPACITY = 64


class _AuxColumn:
    """One scheduler-owned aux column: numpy array + list mirror.

    A single holder object keeps the hot point-write path to one dict lookup;
    ``arr`` is rebound on capacity growth, ``ls`` is mutated in place only.
    """

    __slots__ = ("arr", "ls", "default", "dirty")

    def __init__(self, arr, ls, default):
        self.arr = arr
        self.ls = ls
        self.default = default
        self.dirty = False


def np_lexmin(primary: np.ndarray, *ties: np.ndarray) -> int:
    """Index of the lexicographic minimum of ``(primary, *ties)`` columns."""
    cand = np.flatnonzero(primary == primary.min())
    for arr in ties:
        if cand.size == 1:
            break
        vals = arr[cand]
        cand = cand[vals == vals.min()]
    return int(cand[0])


class ReadyQueue(Sequence):
    """Parallel-array ready queue shared by all three scheduling engines."""

    def __init__(self, lut=None, columns: Sequence[str] = (), capacity: int = _INITIAL_CAPACITY):
        for col in columns:
            if col not in KNOWN_COLUMNS:
                raise SchedulingError(f"unknown ready-queue column {col!r}")
        self._lut = lut
        self._cols = frozenset(columns)
        self._cap = max(int(capacity), 4)
        #: Live rows are ``[0, _n)``; rows ``[_n, len(_requests))`` are
        #: parked (their requests are running on an accelerator).
        self._n = 0
        self._requests: List[Request] = []
        #: rid -> row, for live and parked rows alike.
        self._pos: Dict[int, int] = {}
        self._missing = 0  # live requests without a LUT entry
        #: Change journal for the incremental selection cache: rids touched
        #: since the cache last rebuilt.  ``None`` until a cache attaches via
        #: :meth:`enable_journal`, so unconverted setups pay nothing.
        self._journal: Optional[set] = None
        self._journal_all = True

        self.np_rid = np.empty(self._cap, dtype=np.int64)
        self.ls_rid: List[int] = []
        self._need_entry = "est_isolated" in self._cols or "est_remaining" in self._cols
        self._ls_missing: List[bool] = []
        for col in KNOWN_COLUMNS:
            active = col in self._cols
            setattr(self, f"np_{col}", np.empty(self._cap) if active else None)
            setattr(self, f"ls_{col}", [] if active else None)
        #: Precomputed attribute names of the active columns.
        self._col_attrs: Tuple[Tuple[str, str], ...] = tuple(
            (f"np_{c}", f"ls_{c}") for c in sorted(self._cols)
        )
        #: (numpy array, list mirror) of every active column, for the row
        #: moves.  The list mirrors are stable objects (mutated in place,
        #: never rebound); the arrays are rebound on growth (see
        #: :meth:`_grow`), which rebuilds this tuple.
        self._col_pairs: Tuple[Tuple[np.ndarray, list], ...] = ()
        self._bind_col_pairs()
        # Which progress-dependent columns update_progress must refresh.
        self._up_lre = "last_run_end" in self._cols
        self._up_exec = "executed_time" in self._cols
        self._up_true_rem = "true_remaining" in self._cols
        self._up_est_rem = "est_remaining" in self._cols
        if self._up_lre and not (self._up_exec or self._up_true_rem or self._up_est_rem):
            # Single-column fast path (e.g. Dysta only tracks last_run_end).
            self.update_progress = self._update_progress_lre_only

        self._aux: Dict[str, _AuxColumn] = {}

    # -- Sequence protocol (scalar schedulers see a sequence of requests) ---

    def __len__(self) -> int:
        return self._n

    def __iter__(self) -> Iterator[Request]:
        return islice(self._requests, self._n)

    def __getitem__(self, idx):
        n = self._n
        try:
            if 0 <= idx < n:
                return self._requests[idx]
        except TypeError:  # a slice
            return self._requests[:n][idx]
        if -n <= idx < 0:
            return self._requests[idx + n]
        raise IndexError("ready-queue index out of range")

    def __contains__(self, item) -> bool:
        try:
            i = self._pos[item.rid]
        except (KeyError, AttributeError):
            return False
        return i < self._n and self._requests[i] is item

    def index_of(self, request: Request) -> int:
        """Slot index of live ``request``, or -1 when absent or parked."""
        i = self._pos.get(request.rid)
        if i is not None and i < self._n and self._requests[i] is request:
            return i
        return -1

    @property
    def missing_entries(self) -> int:
        """Live requests whose (model, pattern) key is absent from the LUT.

        When nonzero, the engines fall back to the scalar ``select`` so the
        LUT-driven policies raise the same error they always did.
        """
        return self._missing

    # -- change journal (incremental selection cache) -----------------------

    def enable_journal(self) -> None:
        """Start recording touched rids (idempotent).

        Called by a :class:`~repro.sim.select_cache.SelectionCache` when it
        attaches.  ``_journal_all`` starts True so the first lookup forces a
        full scan.
        """
        if self._journal is None:
            self._journal = set()
        self._journal_all = True

    def journal_clear(self) -> None:
        """Reset the journal after a full re-scan rebuilt the cache."""
        self._journal.clear()
        self._journal_all = False

    # -- aux columns --------------------------------------------------------

    def register_aux(self, name: str, default: float = 0.0) -> None:
        """Create a scheduler-owned per-request column (idempotent)."""
        if name in self._aux:
            return
        rows = len(self._requests)
        arr = np.empty(self._cap)
        arr[:rows] = default
        self._aux[name] = _AuxColumn(arr, [default] * rows, default)

    def aux_np(self, name: str) -> np.ndarray:
        """Full-capacity aux array (slice with ``[:len(queue)]``); read-only
        by convention — use :meth:`aux_np_writable` before vector writes."""
        return self._aux[name].arr

    def aux_np_writable(self, name: str) -> np.ndarray:
        """Aux array for vectorized in-place writes; marks the mirror stale.

        Write only the live rows ``[:len(queue)]``: parked rows keep their
        values for the request's return."""
        col = self._aux[name]
        col.dirty = True
        # A vector write may touch every row: invalidate the whole journal.
        self._journal_all = True
        return col.arr

    def aux_list(self, name: str) -> List[float]:
        """Plain-list mirror of an aux column (rebuilt if stale).

        The returned list object is stable for the queue's lifetime (synced
        in place), so hot paths may hold on to it as long as the column is
        only ever point-written (never through :meth:`aux_np_writable`).
        """
        col = self._aux[name]
        if col.dirty:
            col.ls[:] = col.arr[: len(self._requests)].tolist()
            col.dirty = False
        return col.ls

    def aux_set(self, name: str, i: int, value: float) -> None:
        """Point write to one aux cell (keeps both stores coherent)."""
        col = self._aux[name]
        col.arr[i] = value
        if not col.dirty:
            col.ls[i] = value
        if self._journal is not None:
            self._journal.add(self.ls_rid[i])

    def aux_set_for(self, name: str, request: Request, value: float) -> None:
        """Fused ``aux_set(name, index_of(request), value)``; no-op when the
        request is absent or parked (hot path of the monitor callbacks)."""
        i = self._pos.get(request.rid)
        if i is None or i >= self._n or self._requests[i] is not request:
            return
        col = self._aux[name]
        col.arr[i] = value
        if not col.dirty:
            col.ls[i] = value
        if self._journal is not None:
            self._journal.add(request.rid)

    def forget(self, rid: int) -> None:
        """Drop ``rid``'s parked row (call when a request finishes outside
        the queue, so streaming replays stay bounded-memory).  No-op for a
        live or unknown rid."""
        j = self._pos.get(rid)
        if j is None or j < self._n:
            return
        del self._pos[rid]
        tail = len(self._requests) - 1
        if j != tail:
            self._move(tail, j)
        self._pop_row()

    # -- row moves ----------------------------------------------------------

    def _bind_col_pairs(self) -> None:
        self._col_pairs = tuple(
            (getattr(self, np_name), getattr(self, ls_name))
            for np_name, ls_name in self._col_attrs
        )

    def _swap(self, i: int, j: int) -> None:
        """Exchange rows ``i`` and ``j`` in every store."""
        reqs = self._requests
        a = reqs[i]
        b = reqs[j]
        reqs[i] = b
        reqs[j] = a
        pos = self._pos
        pos[b.rid] = i
        pos[a.rid] = j
        ls = self.ls_rid
        x = ls[i]
        y = ls[j]
        ls[i] = y
        ls[j] = x
        arr = self.np_rid
        arr[i] = y
        arr[j] = x
        for arr, ls in self._col_pairs:
            x = ls[i]
            y = ls[j]
            ls[i] = y
            ls[j] = x
            arr[i] = y
            arr[j] = x
        for col in self._aux.values():
            arr = col.arr
            if col.dirty:
                arr[i], arr[j] = arr[j], arr[i]
            else:
                ls = col.ls
                x = ls[i]
                y = ls[j]
                ls[i] = y
                ls[j] = x
                arr[i] = y
                arr[j] = x
        if self._need_entry:
            ls = self._ls_missing
            ls[i], ls[j] = ls[j], ls[i]

    def _move(self, src: int, dst: int) -> None:
        """Copy row ``src`` over row ``dst`` (whose rid is already gone)."""
        moved = self._requests[src]
        self._requests[dst] = moved
        self._pos[moved.rid] = dst
        self.ls_rid[dst] = moved.rid
        self.np_rid[dst] = moved.rid
        for arr, ls in self._col_pairs:
            v = ls[src]
            ls[dst] = v
            arr[dst] = v
        for col in self._aux.values():
            arr = col.arr
            if col.dirty:
                arr[dst] = arr[src]
            else:
                v = col.ls[src]
                col.ls[dst] = v
                arr[dst] = v
        if self._need_entry:
            self._ls_missing[dst] = self._ls_missing[src]

    def _pop_row(self) -> None:
        """Drop the last row (live or parked) from every list store."""
        self._requests.pop()
        self.ls_rid.pop()
        for _, ls in self._col_pairs:
            ls.pop()
        for col in self._aux.values():
            col.ls.pop()
        if self._need_entry:
            self._ls_missing.pop()

    # -- mutation -----------------------------------------------------------

    def _grow(self) -> None:
        rows = len(self._requests)
        new_cap = self._cap * 2
        grown = np.empty(new_cap, dtype=np.int64)
        grown[:rows] = self.np_rid[:rows]
        self.np_rid = grown
        for np_name, _ in self._col_attrs:
            old = getattr(self, np_name)
            arr = np.empty(new_cap)
            arr[:rows] = old[:rows]
            setattr(self, np_name, arr)
        for col in self._aux.values():
            arr = np.empty(new_cap)
            arr[:rows] = col.arr[:rows]
            col.arr = arr
        self._bind_col_pairs()
        self._cap = new_cap

    def add(self, request: Request) -> int:
        """Admit ``request``; fills every active column from its cached state.

        Returns the slot index.  A parked request (back from running a layer
        block on a multi-accelerator engine) is un-parked instead: its row
        keeps its constant columns and aux state, and only the progress
        columns are refreshed.
        """
        rid = request.rid
        j = self._pos.get(rid)
        if j is not None:
            # Un-park: move the row back into the live region, refreshed.
            n = self._n
            if j < n:
                raise SchedulingError(f"request {rid} is already in the ready queue")
            if j != n:
                self._swap(j, n)
            self._n = n + 1
            if self._journal is not None:
                self._journal.add(rid)
            if self._need_entry and self._ls_missing[n]:
                self._missing += 1
            self._refresh_progress(request, n)
            return n
        i = len(self._requests)
        if i == self._cap:
            self._grow()
        self._requests.append(request)
        self._pos[rid] = i
        self.np_rid[i] = rid
        self.ls_rid.append(rid)
        if self._journal is not None:
            self._journal.add(rid)

        cols = self._cols
        if cols:
            if "arrival" in cols:
                v = request.arrival
                self.np_arrival[i] = v
                self.ls_arrival.append(v)
            if "deadline" in cols:
                v = request.deadline
                self.np_deadline[i] = v
                self.ls_deadline.append(v)
            if "priority" in cols:
                v = request.priority
                self.np_priority[i] = v
                self.ls_priority.append(v)
            if "true_isolated" in cols:
                v = request.isolated_latency
                self.np_true_isolated[i] = v
                self.ls_true_isolated.append(v)
            if "true_remaining" in cols:
                v = request.true_remaining
                self.np_true_remaining[i] = v
                self.ls_true_remaining.append(v)
            if "last_run_end" in cols:
                v = request.last_run_end
                self.np_last_run_end[i] = v
                self.ls_last_run_end.append(v)
            if "executed_time" in cols:
                v = request.executed_time
                self.np_executed_time[i] = v
                self.ls_executed_time.append(v)
            if self._need_entry:
                entry = request.lut_entry(self._lut) if self._lut is not None else None
                missing = entry is None
                self._ls_missing.append(missing)
                if missing:
                    self._missing += 1
                if "est_isolated" in cols:
                    v = np.nan if missing else entry.avg_total_latency
                    self.np_est_isolated[i] = v
                    self.ls_est_isolated.append(v)
                if "est_remaining" in cols:
                    v = np.nan if missing else entry.remaining_suffix_t[request.next_layer]
                    self.np_est_remaining[i] = v
                    self.ls_est_remaining.append(v)

        for col in self._aux.values():
            v = col.default
            col.arr[i] = v
            # A stale mirror still tracks length; contents rebuilt on sync.
            col.ls.append(v)
        n = self._n
        if i != n:
            # Parked rows sit past the live ones: trade places with the
            # first of them.
            self._swap(i, n)
        self._n = n + 1
        return n

    #: Engines call ``queue.append(...)`` on both list- and array-backed
    #: queues; alias keeps the call sites uniform.
    append = add

    def remove(self, request: Request, requeue: bool = False) -> None:
        """Take ``request`` out of the live queue in O(1).

        Raises :class:`SchedulingError` when ``request`` is not a live row
        (absent, or parked on an accelerator), before any store changes.
        The engines rely on this: parking the scheduler's pick doubles as
        the check that the pick came from the live queue.

        Args:
            requeue: The request is only leaving to run a layer block and
                will be re-added (multi-accelerator engines): its row is
                parked past the live ones, to be un-parked by the next
                :meth:`add` or dropped by :meth:`forget`.  Otherwise the
                row is dropped now.
        """
        rid = request.rid
        i = self._pos.get(rid)
        n = self._n
        if i is None or i >= n or self._requests[i] is not request:
            raise SchedulingError(f"request {rid} is not in the ready queue")
        if self._journal is not None:
            # A dropped row needs no mark (dead rids are skipped by
            # liveness checks); an un-park re-marks on the way back in.
            self._journal.discard(rid)
        if self._need_entry and self._ls_missing[i]:
            self._missing -= 1
        last = n - 1
        self._n = last
        if requeue:
            if i != last:
                self._swap(i, last)
            return
        del self._pos[rid]
        if i != last:
            self._move(last, i)
        tail = len(self._requests) - 1
        if tail != last:
            self._move(tail, last)
        self._pop_row()

    def _update_progress_lre_only(self, request: Request) -> None:
        """update_progress specialization when only last_run_end is live."""
        i = self._pos.get(request.rid)
        if i is not None and i < self._n:
            v = request.last_run_end
            self.np_last_run_end[i] = v
            self.ls_last_run_end[i] = v
            if self._journal is not None:
                self._journal.add(request.rid)

    def update_progress(self, request: Request) -> None:
        """Refresh the row of a live request after a layer advance.

        The engine has already mutated ``next_layer`` / ``executed_time`` /
        ``last_run_end``; this folds the new values into the columns in O(1)
        (the engines use it at one NPU; with more NPUs they park the row at
        dispatch and un-park it, refreshed, at the block end).  No-op for
        parked rows.
        """
        i = self._pos.get(request.rid)
        if i is None or i >= self._n:
            return
        if self._journal is not None:
            self._journal.add(request.rid)
        self._refresh_progress(request, i)

    def _refresh_progress(self, request: Request, i: int) -> None:
        """Write ``request``'s progress-dependent columns into row ``i``."""
        if self._up_lre:
            v = request.last_run_end
            self.np_last_run_end[i] = v
            self.ls_last_run_end[i] = v
        if self._up_exec:
            v = request.executed_time
            self.np_executed_time[i] = v
            self.ls_executed_time[i] = v
        if self._up_true_rem:
            v = request.true_remaining
            self.np_true_remaining[i] = v
            self.ls_true_remaining[i] = v
        if self._up_est_rem and not self._ls_missing[i]:
            entry = request.lut_entry(self._lut)
            v = entry.remaining_suffix_t[request.next_layer]
            self.np_est_remaining[i] = v
            self.ls_est_remaining[i] = v
