"""The naive IFMH construction: paper section 3.1, one subdomain at a time."""

from __future__ import annotations

from typing import Optional

from repro.core.config import SystemConfig
from repro.core.errors import ConstructionError
from repro.core.records import Dataset, UtilityTemplate
from repro.crypto.signer import Signer
from repro.geometry.engine import IntervalEngine
from repro.ifmh.ifmh_tree import IFMHTree
from repro.itree.itree import ITree
from repro.merkle.fmh_tree import FMHTree
from repro.metrics.counters import Counters
from repro.reference.itree import balanced_incremental_itree

__all__ = ["naive_ifmh_tree"]


def naive_ifmh_tree(
    dataset: Dataset,
    template: UtilityTemplate,
    *,
    config: Optional[SystemConfig] = None,
    signer: Optional[Signer] = None,
    counters: Optional[Counters] = None,
) -> IFMHTree:
    """An IFMH-tree built step by step, sharing nothing between subdomains.

    Step 1 builds the I-tree by the paper's incremental insertion: where
    ``config`` resolves to the bulk builder (d = 1 with an interval
    engine), in the bulk tree's median-first order
    (:func:`balanced_incremental_itree`), so the bulk builder is checked
    rather than reused; otherwise through ``ITree(builder=config.build_mode)``.
    Step 2 builds one list-based :class:`FMHTree` per subdomain, hashing
    every leaf and node of it; step 3 is the paper's bottom-up stack walk
    and step 4 signs.  Roots, subdomain digests, verification objects,
    verdicts and the logical hash count equal those of
    ``IFMHTree(dataset, template, config=config)``; every hash runs
    physically.  The tree serves queries like a production one but cannot
    be published: its forest is a list of per-subdomain trees, not an arena
    (:func:`repro.reference.arena_from_level_trees` folds it into one).
    """
    if config is None:
        config = SystemConfig()
    if not config.is_ifmh:
        raise ConstructionError(f"an IFMH-tree needs an IFMH scheme, got {config.scheme!r}")
    tree = IFMHTree.__new__(IFMHTree)
    tree._init_common(dataset, template, config, counters, None, signer)
    engine = config.make_engine(template.domain)
    functions = template.functions_for(dataset)
    bulk = (
        config.build_mode != "incremental"
        and template.domain.dimension == 1
        and isinstance(engine, IntervalEngine)
    )
    if bulk:
        tree.itree = balanced_incremental_itree(
            functions, template.domain, engine=engine, counters=tree.counters
        )
    else:
        tree.itree = ITree(
            functions,
            template.domain,
            engine=engine,
            counters=tree.counters,
            builder=config.build_mode,
        )
    for leaf in tree.itree.leaves():
        sorted_records = [tree.records_by_id[f.index] for f in leaf.sorted_functions]
        leaf.fmh_tree = FMHTree(sorted_records, hash_function=tree.hash_function)
        leaf.hash_value = leaf.fmh_tree.root
    # Without a batched forest this is the paper's per-node stack walk.
    tree._propagate_hashes()
    tree.merkle_engine_stats = None
    tree.root_signature = None
    if signer is not None:
        tree._sign(signer)
    return tree
