"""Step-3 hash propagation over the pre-order columns (paper section 3.1).

Step 3 hashes every intersection node from its two children, bottom-up.  A
tree held as pre-order columns -- a d = 1 bulk build, an artifact load, an
incremental update -- needs nothing but its ``node_is_leaf`` column for
that: walking the column backwards visits both subtrees of a node before
the node itself (pre-order is node, above subtree, below subtree), so one
stack of child digests carries the whole propagation.  Bulk builds and
incremental updates both run :func:`propagate_batched`; only trees of the
incremental builder (d >= 2, LP) run the paper's per-node stack walk
(:meth:`repro.ifmh.ifmh_tree.IFMHTree._propagate_hashes`).

Every digest and both hash counters are bit-identical to that walk: the
preimage framing replicates ``HashFunction.combine`` byte for byte, and
one logical and one physical operation are counted per intersection node.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.crypto.hashing import DIGEST_SIZE, HashFunction, sha256
from repro.geometry.functions import Hyperplane

__all__ = ["encode_hyperplanes", "propagate_batched"]


def propagate_batched(
    node_is_leaf: np.ndarray,
    leaf_digests: bytes,
    planes: Optional[Sequence[bytes]],
    hash_function: HashFunction,
) -> Tuple[List[bytes], bytes]:
    """Hash every intersection node of a pre-order tree, bottom-up.

    ``leaf_digests`` concatenates the subdomain digests (FMH roots) in
    pre-order-leaf order; ``planes`` holds each intersection's canonical
    hyperplane encoding in pre-order-internal order, or ``None`` for the
    paper's exact rule ``H(a.h | b.h)`` (``bind_intersections=False``).
    Returns the intersection digests in pre-order-internal order and the
    root digest.
    """
    flags = node_is_leaf.tolist()
    internal_count = len(flags) - len(leaf_digests) // DIGEST_SIZE
    prefix = DIGEST_SIZE.to_bytes(8, "big")
    # combine()'s framing: an 8-byte length before every part.
    if planes is None:
        heads = [prefix] * internal_count
    else:
        heads = [len(plane).to_bytes(8, "big") + plane + prefix for plane in planes]
    digests: List[bytes] = [b""] * internal_count
    stack: List[bytes] = []
    push = stack.append
    pop = stack.pop
    sha = sha256
    leaf_end = len(leaf_digests)
    cursor = internal_count
    for is_leaf in reversed(flags):
        if is_leaf:
            push(leaf_digests[leaf_end - DIGEST_SIZE : leaf_end])
            leaf_end -= DIGEST_SIZE
            continue
        cursor -= 1
        # The above subtree was finished last, so its digest is on top.
        above = pop()
        digest = sha(heads[cursor] + above + prefix + pop())
        digests[cursor] = digest
        push(digest)
    hash_function.note_computed(internal_count)
    return digests, stack[-1]


#: ``encode_str("hyperplane")``: tag, 8-byte length, payload (19 bytes).
_HYPER_STR = b"\x03" + (10).to_bytes(8, "big") + b"hyperplane"


def encode_hyperplanes(
    hyper_i: np.ndarray,
    hyper_j: np.ndarray,
    hyper_normal: np.ndarray,
    hyper_offset: np.ndarray,
) -> List[bytes]:
    """``Hyperplane.to_bytes()`` for every column, byte-identical, in bulk.

    The canonical encoding's only variable-width parts are the two record
    ids (``encode_int`` uses the minimal signed big-endian width), so the
    planes are grouped by id widths and each group is assembled as one
    fixed-width byte matrix.  Negative or enormous ids (never produced by
    ``Dataset.from_rows``, but legal) fall back to the object encoder.
    """
    count = int(hyper_i.shape[0])
    result: List[bytes] = [b""] * count
    plain = (hyper_i >= 0) & (hyper_j >= 0) & (hyper_i < 2**55) & (hyper_j < 2**55)
    for index in np.nonzero(~plain)[0].tolist():
        result[index] = Hyperplane(
            i=int(hyper_i[index]),
            j=int(hyper_j[index]),
            normal=(float(hyper_normal[index]),),
            offset=float(hyper_offset[index]),
        ).to_bytes()
    rows = np.nonzero(plain)[0]
    if rows.shape[0] == 0:
        return result

    def int_width(values: np.ndarray) -> np.ndarray:
        # max(1, (bit_length + 8) // 8) for non-negative ints: one byte up
        # to 127, two up to 32767, ...
        width = np.ones(values.shape[0], dtype=np.int64)
        for extra in range(1, 8):
            width += values >= np.int64(1) << np.int64(8 * extra - 1)
        return width

    width_i = int_width(hyper_i[rows])
    width_j = int_width(hyper_j[rows])
    normal_be = (
        np.ascontiguousarray(hyper_normal[rows], dtype=">f8").view(np.uint8).reshape(-1, 8)
    )
    offset_be = (
        np.ascontiguousarray(hyper_offset[rows], dtype=">f8").view(np.uint8).reshape(-1, 8)
    )
    group_key = width_i * 16 + width_j
    for key in np.unique(group_key).tolist():
        members = np.nonzero(group_key == key)[0]
        li, lj = key // 16, key % 16
        payload = 19 + (9 + li) + (9 + lj) + 17 + 17
        total = 9 + payload
        matrix = np.empty((members.shape[0], total), dtype=np.uint8)
        matrix[:, 0] = 6  # sequence tag
        matrix[:, 1:9] = np.frombuffer(payload.to_bytes(8, "big"), dtype=np.uint8)
        matrix[:, 9:28] = np.frombuffer(_HYPER_STR, dtype=np.uint8)
        cursor = 28
        for length, values in ((li, hyper_i[rows[members]]), (lj, hyper_j[rows[members]])):
            matrix[:, cursor] = 1  # int tag
            matrix[:, cursor + 1 : cursor + 9] = np.frombuffer(
                length.to_bytes(8, "big"), dtype=np.uint8
            )
            for byte in range(length):
                shift = np.int64(8 * (length - 1 - byte))
                matrix[:, cursor + 9 + byte] = (values >> shift) & np.int64(0xFF)
            cursor += 9 + length
        matrix[:, cursor] = 5  # float-vector tag
        matrix[:, cursor + 1 : cursor + 9] = np.frombuffer(
            (8).to_bytes(8, "big"), dtype=np.uint8
        )
        matrix[:, cursor + 9 : cursor + 17] = normal_be[members]
        cursor += 17
        matrix[:, cursor] = 2  # float tag
        matrix[:, cursor + 1 : cursor + 9] = np.frombuffer(
            (8).to_bytes(8, "big"), dtype=np.uint8
        )
        matrix[:, cursor + 9 : cursor + 17] = offset_be[members]
        blob = matrix.tobytes()
        for offset_index, member in enumerate(members.tolist()):
            result[int(rows[member])] = blob[
                offset_index * total : (offset_index + 1) * total
            ]
    return result
