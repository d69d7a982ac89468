"""Filter / project / aggregate over a warehouse without materializing it.

Queries stream the store one columnar batch (segment) at a time: a filter
builds a numpy mask per batch, a projection decodes only the named columns,
and aggregations fold per-group accumulators (count, sum, sum-of-squares,
min, max) across batches — so a 10k-cell grid is reduced in one pass with
one segment resident at a time.

Predicates are either column equalities (``scenario="diurnal"``) or
callables taking the column's values array and returning a boolean mask
(``seed=lambda s: s >= 2``).
"""

from __future__ import annotations

import math
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.errors import WarehouseError
from repro.warehouse.store import KEY_COLUMN, Warehouse

Predicate = Union[object, Callable]

#: Aggregate statistics computed per (group, metric).
STATS = ("n", "mean", "std", "min", "max")


def _as_array(values) -> np.ndarray:
    if isinstance(values, np.ndarray):
        return values
    return np.asarray(values, dtype=object)


def _batch_mask(batch: Dict[str, object], where: Dict[str, Predicate]
                ) -> np.ndarray:
    n = len(_as_array(batch[KEY_COLUMN]))
    mask = np.ones(n, dtype=bool)
    for name, predicate in where.items():
        if name not in batch:
            return np.zeros(n, dtype=bool)
        values = _as_array(batch[name])
        if callable(predicate):
            hit = np.asarray([bool(v) for v in predicate(values)], dtype=bool)
        else:
            hit = np.asarray([v == predicate for v in values], dtype=bool)
        if hit.shape != (n,):
            raise WarehouseError(
                f"predicate on {name!r} returned shape {hit.shape}, "
                f"expected ({n},)"
            )
        mask &= hit
    return mask


def scan(wh: Warehouse, *, columns: Optional[Sequence[str]] = None,
         where: Optional[Dict[str, Predicate]] = None
         ) -> Iterator[Dict[str, np.ndarray]]:
    """Yield filtered, projected column batches, one per segment.

    When filtering, the predicate columns are decoded alongside the
    projection so the mask can be evaluated per batch.
    """
    where = where or {}
    decode = None
    if columns is not None:
        decode = set(columns) | set(where)
    for batch in wh.iter_batches(columns=decode):
        mask = _batch_mask(batch, where)
        if not mask.any():
            continue
        out = {}
        for name, values in batch.items():
            if columns is not None and name not in columns \
                    and name != KEY_COLUMN:
                continue
            out[name] = _as_array(values)[mask]
        yield out


def select(wh: Warehouse, *, columns: Optional[Sequence[str]] = None,
           where: Optional[Dict[str, Predicate]] = None
           ) -> Dict[str, np.ndarray]:
    """Materialize the matching rows as concatenated columns."""
    batches = list(scan(wh, columns=columns, where=where))
    if not batches:
        return {}
    names = sorted({name for batch in batches for name in batch})
    out = {}
    for name in names:
        parts = [batch[name] if name in batch
                 else np.full(len(batch[KEY_COLUMN]), np.nan)
                 for batch in batches]
        try:
            out[name] = np.concatenate(parts)
        except (ValueError, TypeError):
            out[name] = np.concatenate([_as_array(p) for p in parts])
    return out


def distinct(wh: Warehouse, column: str,
             where: Optional[Dict[str, Predicate]] = None) -> List:
    """Sorted unique values of one column across the matching rows."""
    seen = set()
    for batch in scan(wh, columns=(column,), where=where):
        if column in batch:
            seen.update(batch[column].tolist())
    return sorted(seen)


class _Acc:
    """Streaming accumulator: count / sum / sum-of-squares / min / max."""

    __slots__ = ("n", "total", "total_sq", "lo", "hi")

    def __init__(self):
        self.n = 0
        self.total = 0.0
        self.total_sq = 0.0
        self.lo = math.inf
        self.hi = -math.inf

    def fold(self, values: np.ndarray) -> None:
        values = np.asarray(values, dtype=np.float64)
        values = values[~np.isnan(values)]
        if not len(values):
            return
        self.n += int(len(values))
        self.total += float(values.sum())
        self.total_sq += float((values * values).sum())
        self.lo = min(self.lo, float(values.min()))
        self.hi = max(self.hi, float(values.max()))

    def stats(self) -> Dict[str, float]:
        if not self.n:
            return {"n": 0, "mean": math.nan, "std": math.nan,
                    "min": math.nan, "max": math.nan}
        mean = self.total / self.n
        variance = max(self.total_sq / self.n - mean * mean, 0.0)
        return {"n": self.n, "mean": mean, "std": math.sqrt(variance),
                "min": self.lo, "max": self.hi}


def aggregate(wh: Warehouse, *, group_by: Sequence[str] = ("scenario", "scheduler"),
              metrics: Sequence[str],
              where: Optional[Dict[str, Predicate]] = None
              ) -> Dict[Tuple, Dict[str, Dict[str, float]]]:
    """Per-group streaming statistics over the matching rows.

    Returns ``{group_tuple: {metric: {n, mean, std, min, max}}}`` with
    groups in sorted order.  Group tuples hold Python scalars; rows
    missing a group-by column share one group with ``None`` in that
    position, which sorts first.  Non-numeric metric values and rows
    missing the metric fold as absent (NaN-skipped), so mixed engine
    grids aggregate cleanly.
    """
    accs: Dict[Tuple, Dict[str, _Acc]] = {}
    seen = set()
    for batch in scan(wh, columns=tuple(group_by) + tuple(metrics),
                      where=where):
        n = len(batch[KEY_COLUMN])
        seen.update(name for name in group_by if name in batch)
        group_cols = [_group_values(batch.get(name), n) for name in group_by]
        # Number the batch's groups in first-seen order, then split one
        # stable argsort so each group gets its ascending row indices —
        # the same elements, in the same order, as a per-group mask.
        ids: Dict[Tuple, int] = {}
        groups = zip(*group_cols) if group_cols else [()] * n
        gid = np.fromiter((ids.setdefault(group, len(ids)) for group in groups),
                          dtype=np.intp, count=n)
        order = np.argsort(gid, kind="stable")
        starts = np.flatnonzero(np.diff(gid[order])) + 1
        columns = [(metric, _metric_values(batch[metric]))
                   for metric in metrics if metric in batch]
        for group, rows in zip(ids, np.split(order, starts)):
            target = accs.setdefault(group, {m: _Acc() for m in metrics})
            for metric, values in columns:
                if values is not None:
                    target[metric].fold(values[rows])
    for name in group_by:
        if accs and name not in seen:
            raise WarehouseError(f"unknown group-by column {name!r}")
    return {
        group: {metric: acc.stats() for metric, acc in sorted(group_accs.items())}
        for group, group_accs in sorted(accs.items(), key=_group_order)
    }


def _group_values(values, n: int) -> List:
    """One group-by column as Python scalars, ``None`` where missing."""
    if values is None:
        return [None] * n
    if values.dtype.kind == "f":
        return [None if v != v else v for v in values.tolist()]
    return values.tolist()


def _metric_values(values) -> Optional[np.ndarray]:
    """A metric column as float64 (NaN = absent); ``None`` if non-numeric."""
    if values.dtype.kind in "if":
        return values
    try:
        return np.asarray([math.nan if v is None else float(v)
                           for v in values], dtype=np.float64)
    except (TypeError, ValueError):
        return None


def _group_order(item) -> Tuple:
    """Sort key for ``(group, accs)`` items: ``None`` before any value."""
    return tuple((0,) if v is None else (1, v) for v in item[0])


def group_key(group: Iterable) -> str:
    """Canonical ``a/b/...`` label for a group tuple (baseline file keys)."""
    return "/".join(str(part) for part in group)
