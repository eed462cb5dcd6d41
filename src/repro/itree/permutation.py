"""Shared sorted-order storage for subdomain leaves.

Every subdomain of the arrangement sorts the *same* ``n`` score functions;
only the order differs, and adjacent subdomains differ by a single
transposition.  Materializing one Python list of function references per
leaf therefore costs Theta(n^2) list objects and Theta(n^2) pointers --
the dominant memory (and allocation-time) term of the I-tree at
thousand-record scale.

:class:`SharedFunctionOrder` replaces those lists with one 2-D integer
permutation array (one row per leaf, one column per sorted position) over a
single index-ordered function list, plus vectorized per-function
coefficient arrays that the IFMH scoring hot path indexes directly.
Leaves hold :class:`PermutedView` objects -- lazy, read-only sequences that
behave exactly like the old lists (iteration, indexing, ``len``) while
borrowing one row of the shared array.
"""

from __future__ import annotations

from typing import List, Sequence

import numpy as np

from repro.geometry.functions import LinearFunction

__all__ = ["SharedFunctionOrder", "PermutedView", "LazySplicedPermutation"]


class LazySplicedPermutation:
    """Row-lazy permutation produced by an incremental update.

    The updated forest's sorted rows are, for almost every subdomain, the
    previous epoch's row with one record spliced in at its rank (insert) or
    one column cut out (delete); only the few subdomains around touched
    breakpoints were re-sorted.  Materializing the dense ``(rows, n)``
    matrix eagerly would cost more than the whole changed-path rebuild, so
    this object stores the splice descriptors instead and computes rows on
    demand -- queries touch a handful of subdomains, and a publish reads
    only row 0 unless it stores the dense encoding, which
    :func:`numpy.asarray` (``__array__``) builds.

    Parameters
    ----------
    base:
        The previous permutation -- a dense int32 matrix or another lazy
        permutation (chains are densified past a small depth by the
        updater).
    source_row:
        For every new row, the base row it derives from.
    mode / positions:
        ``"insert"``: ``splice_position`` is the inserted function's base
        position; ``row_rank[k]`` the sorted slot it takes in row ``k``.
        ``"delete"``: ``splice_position`` is the removed function's old
        base position; ``row_rank[k]`` the column cut out of row ``k``.
    overrides:
        ``{row: dense int32 row}`` for re-sorted subdomains (these ignore
        the splice descriptor entirely).
    """

    __slots__ = ("base", "source_row", "mode", "splice_position", "row_rank", "overrides", "shape", "depth")

    ndim = 2
    dtype = np.dtype(np.int32)

    def __init__(self, base, source_row, mode, splice_position, row_rank, overrides):
        if mode not in ("insert", "delete"):
            raise ValueError(f"unknown splice mode {mode!r}")
        self.base = base
        self.source_row = np.asarray(source_row, dtype=np.int64)
        self.mode = mode
        self.splice_position = int(splice_position)
        self.row_rank = np.asarray(row_rank, dtype=np.int64)
        self.overrides = overrides
        width = base.shape[1] + (1 if mode == "insert" else -1)
        self.shape = (self.source_row.shape[0], width)
        self.depth = getattr(base, "depth", 0) + 1

    def __len__(self) -> int:
        return self.shape[0]

    def __getitem__(self, row: int) -> np.ndarray:
        override = self.overrides.get(row)
        if override is not None:
            return override
        source = np.asarray(self.base[self.source_row[row]])
        position = self.splice_position
        out = np.empty(self.shape[1], dtype=np.int32)
        slot = int(self.row_rank[row])
        if self.mode == "insert":
            remapped = source + (source >= position)
            out[:slot] = remapped[:slot]
            out[slot] = position
            out[slot + 1 :] = remapped[slot:]
        else:
            remapped = source - (source > position)
            out[:slot] = remapped[:slot]
            out[slot:] = remapped[slot + 1 :]
        return out

    def __array__(self, dtype=None, copy=None) -> np.ndarray:
        dense = self.materialize()
        if dtype is not None and dense.dtype != dtype:
            return dense.astype(dtype)
        return dense

    def materialize(self) -> np.ndarray:
        """The dense int32 matrix (vectorized: run-grouped slice splices).

        Chains are flattened iteratively -- one full gather/splice pass per
        stacked layer, never more than two dense matrices alive.
        """
        chain: list[LazySplicedPermutation] = []
        node = self
        while isinstance(node, LazySplicedPermutation):
            chain.append(node)
            node = node.base
        dense = np.ascontiguousarray(node, dtype=np.int32)
        for layer in reversed(chain):
            dense = layer._apply(dense)
        return dense

    def _apply(self, base: np.ndarray) -> np.ndarray:
        """One layer's splice applied to its (dense) base matrix."""
        rows, width = self.shape
        position = self.splice_position
        gathered = base[self.source_row]
        out = np.empty((rows, width), dtype=np.int32)
        ranks = self.row_rank
        boundaries = np.nonzero(np.diff(ranks))[0] + 1
        starts = np.concatenate([[0], boundaries, [rows]])
        if self.mode == "insert":
            remapped = gathered + (gathered >= position)
            for run in range(starts.shape[0] - 1):
                a, b = int(starts[run]), int(starts[run + 1])
                if a == b:
                    continue
                slot = int(ranks[a])
                out[a:b, :slot] = remapped[a:b, :slot]
                out[a:b, slot] = position
                out[a:b, slot + 1 :] = remapped[a:b, slot:]
        else:
            remapped = gathered - (gathered > position)
            for run in range(starts.shape[0] - 1):
                a, b = int(starts[run]), int(starts[run + 1])
                if a == b:
                    continue
                slot = int(ranks[a])
                out[a:b, :slot] = remapped[a:b, :slot]
                out[a:b, slot:] = remapped[a:b, slot + 1 :]
        for row, override in self.overrides.items():
            out[row] = override
        return out


class PermutedView(Sequence):
    """Read-only view of ``base[row[i]]`` -- one leaf's sorted order.

    ``base`` is shared by every view (the index-ordered function or record
    list); ``row`` is one row of the shared permutation array (a numpy
    view, not a copy).  ``row_index`` records which row, so batch consumers
    can gather many leaves' rows from the shared array at once.
    """

    __slots__ = ("base", "row", "row_index")

    def __init__(self, base: Sequence, row: np.ndarray, row_index: int = -1):
        self.base = base
        self.row = row
        self.row_index = row_index

    def __len__(self) -> int:
        return len(self.row)

    def __getitem__(self, position):
        if isinstance(position, slice):
            base = self.base
            return [base[p] for p in self.row[position].tolist()]
        return self.base[self.row[position]]

    def __iter__(self):
        base = self.base
        return iter([base[p] for p in self.row.tolist()])

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"PermutedView(row_index={self.row_index}, length={len(self.row)})"


class SharedFunctionOrder:
    """One permutation array holding every leaf's sorted function order.

    Parameters
    ----------
    functions:
        The score functions in ascending ``function.index`` order (the
        canonical base order every permutation row refers to).
    permutation:
        ``(leaf_count, len(functions))`` integer array; row ``r`` lists the
        base positions of leaf ``r``'s functions in ascending score order.
    """

    __slots__ = ("functions", "permutation", "coefficient_matrix", "constant_vector")

    def __init__(self, functions: List[LinearFunction], permutation: np.ndarray):
        if permutation.ndim != 2 or permutation.shape[1] != len(functions):
            raise ValueError(
                f"permutation shape {permutation.shape} does not cover "
                f"{len(functions)} functions"
            )
        self.functions = functions
        self.permutation = permutation
        #: Per-function coefficient rows / constants in base order; a leaf's
        #: score matrix is one fancy-index away (``matrix[permutation[r]]``),
        #: bit-identical to rebuilding it from the function objects.
        self.coefficient_matrix = np.array([f.coefficients for f in functions], dtype=float)
        self.constant_vector = np.array([f.constant for f in functions], dtype=float)

    @property
    def leaf_count(self) -> int:
        return self.permutation.shape[0]

    @property
    def function_count(self) -> int:
        return self.permutation.shape[1]

    def view(self, row_index: int) -> PermutedView:
        """The lazy sorted-function sequence of leaf ``row_index``."""
        return PermutedView(self.functions, self.permutation[row_index], row_index)

    def permuted(self, base: Sequence, row_index: int) -> PermutedView:
        """A view of any base-ordered sequence under leaf ``row_index``'s order."""
        if len(base) != self.permutation.shape[1]:
            raise ValueError(
                f"base sequence has {len(base)} entries, expected {self.permutation.shape[1]}"
            )
        return PermutedView(base, self.permutation[row_index], row_index)
