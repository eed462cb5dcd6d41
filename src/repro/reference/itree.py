"""The balanced-incremental I-tree: the paper's insertion in median-first order."""

from __future__ import annotations

from typing import Optional, Sequence

from repro.core.errors import ConstructionError
from repro.geometry.domain import Domain
from repro.geometry.engine import IntervalEngine, SplitEngine, make_engine
from repro.geometry.functions import LinearFunction
from repro.itree.itree import ITree
from repro.metrics.counters import Counters

__all__ = ["balanced_incremental_itree", "median_first_order"]


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
        _, planned = self._bulk_plan()
        super()._build([planned[k] for k in median_first_order(len(planned))])


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
