"""Slow reference implementations the fast construction path is checked against.

Production builds an IFMH-tree one way: the I-tree, then every
subdomain's FMH-tree at once through the level-order forest builder
(:class:`repro.merkle.engine.MerkleBuildEngine`), then propagation and
signing (:class:`repro.ifmh.IFMHTree`).  The code here computes the same
values the slow, obvious way, so tests and the ``--construction``
benchmark can compare the two bit for bit:

* :func:`naive_ifmh_tree` -- paper section 3.1 step by step: the I-tree
  by incremental insertion (median-first where the configuration resolves
  to the bulk builder), one list-based
  :class:`~repro.merkle.fmh_tree.FMHTree` per subdomain, the paper's
  stack-walk propagation, signing.  The result serves and verifies
  through :class:`~repro.core.server.Server` and
  :class:`~repro.core.client.Client` like a production tree.
* :func:`balanced_incremental_itree` -- the paper's insertion fed the bulk
  builder's breakpoints in median-first order, which reproduces the
  bulk-built (balanced) I-tree node for node.
* :func:`arena_from_level_trees` -- folds per-tree Merkle levels into one
  shared arena by value: the node sharing the forest builder must match.

Only tests and :mod:`repro.bench` import this package; reprolint RL007
flags an import of it from any other ``repro`` module.
"""

from repro.reference.ifmh import naive_ifmh_tree
from repro.reference.itree import balanced_incremental_itree, median_first_order
from repro.reference.merkle import arena_from_level_trees

__all__ = [
    "naive_ifmh_tree",
    "balanced_incremental_itree",
    "median_first_order",
    "arena_from_level_trees",
]
