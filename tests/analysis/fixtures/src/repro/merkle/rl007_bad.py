"""RL007 fixture: production code importing the slow reference."""

import repro.reference  # line 3
from repro import reference  # line 4
from repro.reference import naive_ifmh_tree  # line 5
from repro.reference.merkle import arena_from_level_trees as refold  # line 6


def build(dataset, template):
    from repro.reference.itree import balanced_incremental_itree  # line 10

    return balanced_incremental_itree, naive_ifmh_tree, refold, reference, repro
