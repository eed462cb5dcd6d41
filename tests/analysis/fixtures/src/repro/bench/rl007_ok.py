"""RL007 fixture: the benchmarks time the fast path against the reference."""

from repro.ifmh.ifmh_tree import IFMHTree
from repro.reference import naive_ifmh_tree


def builders():
    return {"naive": naive_ifmh_tree, "batched": IFMHTree}
