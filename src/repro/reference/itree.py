"""The balanced-incremental I-tree and the full tolerance replay.

The paper's insertion in median-first order reproduces the bulk builder's
tree; replaying the tolerance rule over every candidate, in pairwise order,
reproduces its kept breakpoint set.
"""

from __future__ import annotations

import bisect
from typing import Optional, Sequence

import numpy as np

from repro.core.errors import ConstructionError
from repro.geometry.domain import Domain
from repro.geometry.engine import IntervalEngine, SplitEngine, make_engine
from repro.geometry.functions import Hyperplane, LinearFunction
from repro.itree.itree import ITree
from repro.metrics.counters import Counters

__all__ = ["balanced_incremental_itree", "full_tolerance_replay", "median_first_order"]


def full_tolerance_replay(
    values: np.ndarray, low: float, high: float, tolerance: float
) -> np.ndarray:
    """The incremental builder's drop rule over every candidate, in order.

    ``values`` are breakpoint candidates inside the domain, in pairwise
    insertion order.  Each is kept iff it lies more than ``tolerance``
    (with :meth:`IntervalEngine.splits`' exact float comparisons) from its
    nearest kept neighbours, the domain bounds standing in where there is
    none.  Quadratic (sorted-list inserts); the oracle for
    :func:`repro.itree.itree.replay_tolerance`.
    """
    kept = np.zeros(values.shape[0], dtype=bool)
    kept_values: list[float] = []
    for position, value in enumerate(values.tolist()):
        slot = bisect.bisect_left(kept_values, value)
        predecessor = kept_values[slot - 1] if slot else low
        successor = kept_values[slot] if slot < len(kept_values) else high
        if predecessor + tolerance < value < successor - tolerance:
            kept_values.insert(slot, value)
            kept[position] = True
    return kept


def median_first_order(count: int) -> list[int]:
    """Indices ``0..count-1`` in the insertion order that yields a balanced BST.

    Each range contributes its median before either half, so every ancestor
    precedes its descendants -- inserting sorted breakpoints in this order
    through the incremental BFS reproduces the bulk-built balanced tree.
    """
    order: list[int] = []
    stack = [(0, count)]
    while stack:
        low, high = stack.pop()
        if low >= high:
            continue
        mid = (low + high) // 2
        order.append(mid)
        stack.append((mid + 1, high))
        stack.append((low, mid))
    return order


class _BalancedIncrementalITree(ITree):
    """The incremental builder, inserting the bulk plan median first."""

    def _build(self, hyperplanes) -> None:
        # The constructor hands over every pair in pairwise order; insert
        # the bulk builder's kept breakpoints in median-first order instead.
        plan = self._bulk_plan()
        super()._build(
            [
                Hyperplane(
                    i=int(plan.hyper_i[k]),
                    j=int(plan.hyper_j[k]),
                    normal=(float(plan.hyper_normal[k]),),
                    offset=float(plan.hyper_offset[k]),
                )
                for k in median_first_order(plan.breakpoints.shape[0])
            ]
        )


def balanced_incremental_itree(
    functions: Sequence[LinearFunction],
    domain: Domain,
    engine: Optional[SplitEngine] = None,
    counters: Optional[Counters] = None,
) -> ITree:
    """The I-tree the bulk builder must reproduce node for node (d = 1).

    Every kept breakpoint goes through the paper's BFS insertion, so the
    shape, regions, witnesses and sorted orders come from the incremental
    machinery while the tree is the bulk builder's balanced one.
    """
    engine = engine or make_engine(domain)
    if domain.dimension != 1 or not isinstance(engine, IntervalEngine):
        raise ConstructionError(
            "the balanced-incremental I-tree requires a 1-D domain and an IntervalEngine"
        )
    return _BalancedIncrementalITree(
        functions, domain, engine=engine, counters=counters, builder="incremental"
    )
