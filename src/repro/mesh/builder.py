"""Signature-mesh construction and server-side query processing.

Construction (paper section 2.3.1):

1. compute the full arrangement of subdomains;
2. sort the records for every subdomain and bracket the list with the
   ``min`` / ``max`` tokens;
3. for every pair of consecutive chain entries compute the digest
   ``H(H(left) | H(right) | B_i)`` -- where ``B_i`` describes the covered
   subdomain(s) -- and sign it with the owner's private key;
4. a pair that remains consecutive across *consecutive* subdomains is signed
   once for the whole run (the shared-signature optimization that turns the
   chains into a mesh).  Sharing is applied for univariate templates, where
   "consecutive subdomains" is well defined (the cells are intervals in
   left-to-right order).

Query processing finds the subdomain containing the query's weight vector by
a linear scan over the cells (the baseline's fundamental cost), selects the
contiguous result window and ships one pair signature per consecutive pair
of the extended window.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.core.config import SIGNATURE_MESH, SystemConfig
from repro.core.errors import ConstructionError, QueryProcessingError
from repro.core.queries import AnalyticQuery
from repro.core.records import Dataset, Record, UtilityTemplate
from repro.core.results import QueryResult
from repro.crypto.hashing import HashFunction, epoch_bound_combine
from repro.crypto.signer import Signer
from repro.geometry.arrangement import build_arrangement
from repro.geometry.domain import ABOVE, BELOW, Constraint, Region
from repro.geometry.engine import SplitEngine
from repro.geometry.functions import Hyperplane
from repro.merkle.fmh_tree import BoundaryEntry
from repro.mesh.structures import (
    CoverageRegion,
    MeshCell,
    MeshVerificationObject,
    PairSignature,
    chain_entry_bytes,
)
from repro.metrics.counters import Counters
from repro.metrics.sizes import DEFAULT_SIZE_MODEL, SizeModel
from repro.queryproc.window import ResultWindow, select_window

__all__ = ["SignatureMesh"]

#: Chain-entry sentinels used by the artifact codec (record positions are
#: >= 0, so the tokens use negative codes).
_MIN_SENTINEL = -1
_MAX_SENTINEL = -2


class SignatureMesh:
    """The signature-mesh authenticated data structure (baseline)."""

    def __init__(
        self,
        dataset: Dataset,
        template: UtilityTemplate,
        *,
        config: Optional[SystemConfig] = None,
        signer: Optional[Signer] = None,
        hash_function: Optional[HashFunction] = None,
        engine: Optional[SplitEngine] = None,
        counters: Optional[Counters] = None,
        epoch: int = 0,
    ):
        # The scheme field is normalized: a SignatureMesh *is* the mesh.
        config = (config or SystemConfig()).replace(scheme=SIGNATURE_MESH)
        self._init_common(dataset, template, config, counters, hash_function, signer, epoch)
        if engine is None and config.tolerance is not None:
            engine = config.make_engine(template.domain)
        functions = template.functions_for(dataset)
        self.functions_by_id = {f.index: f for f in functions}
        self.arrangement = build_arrangement(functions, template.domain, engine=engine)

        self.cells: List[MeshCell] = [
            MeshCell(
                identifier=subdomain.identifier,
                region=subdomain.region,
                witness=subdomain.witness,
                sorted_records=[self.records_by_id[f.index] for f in subdomain.sorted_functions],
            )
            for subdomain in self.arrangement.subdomains
        ]
        self.unique_signatures: List[PairSignature] = []
        if signer is not None:
            self._sign_all(signer)

    def _init_common(
        self,
        dataset: Dataset,
        template: UtilityTemplate,
        config: SystemConfig,
        counters: Optional[Counters],
        hash_function: Optional[HashFunction],
        signer: Optional[Signer],
        epoch: int = 0,
    ) -> None:
        """State shared by fresh construction and artifact reconstruction."""
        if len(dataset) == 0:
            raise ConstructionError("cannot build a signature mesh over an empty dataset")
        if epoch < 0:
            raise ConstructionError(f"epoch must be >= 0, got {epoch}")
        self.config = config
        self.dataset = dataset
        self.template = template
        self.counters = counters or Counters()
        self.hash_function = hash_function or HashFunction(self.counters)
        self.signer = signer
        #: ADS epoch, bound into every pair digest from epoch 1 on.
        self.epoch = int(epoch)
        self.share_signatures = config.share_signatures and template.dimension == 1
        self.records_by_id: Dict[int, Record] = {r.record_id: r for r in dataset}

    # ------------------------------------------------------------- signing
    def _chain_keys(self, cell: MeshCell) -> list[tuple]:
        """Identities of the chain entries: min token, record ids, max token."""
        return ["min"] + [record.record_id for record in cell.sorted_records] + ["max"]

    def _entry_for_key(self, cell: MeshCell, position: int) -> tuple[Optional[Record], Optional[str]]:
        """Record / token at a chain position of a cell."""
        if position == 0:
            return None, "min"
        if position == cell.chain_length - 1:
            return None, "max"
        return cell.sorted_records[position - 1], None

    def _sign_all(self, signer: Signer) -> None:
        if self.share_signatures:
            self._sign_shared(signer)
        else:
            self._sign_per_cell(signer)

    def _pair_digest(self, left_bytes: bytes, right_bytes: bytes, coverage: CoverageRegion) -> bytes:
        """The paper's pair digest ``H(H(r_j) | H(r_{j+1}) | B_i)``.

        From epoch 1 on the epoch token is combined in, so pair signatures
        from a superseded mesh cannot be replayed against a client holding
        the owner's current parameters.
        """
        return epoch_bound_combine(
            self.hash_function,
            self.epoch,
            self.hash_function.digest(left_bytes),
            self.hash_function.digest(right_bytes),
            coverage.to_bytes(),
        )

    def _sign_per_cell(self, signer: Signer) -> None:
        for cell in self.cells:
            coverage = CoverageRegion(kind="constraints", constraints=tuple(cell.region.constraints))
            for position in range(cell.chain_length - 1):
                left_record, left_token = self._entry_for_key(cell, position)
                right_record, right_token = self._entry_for_key(cell, position + 1)
                digest = self._pair_digest(
                    chain_entry_bytes(left_record, left_token),
                    chain_entry_bytes(right_record, right_token),
                    coverage,
                )
                signature = signer.sign(digest)
                self.counters.add_signature_created()
                pair = PairSignature(
                    left_record=left_record,
                    right_record=right_record,
                    coverage=coverage,
                    signature=signature,
                    left_token=left_token,
                    right_token=right_token,
                )
                cell.pair_signatures.append(pair)
                self.unique_signatures.append(pair)

    def _sign_shared(self, signer: Signer) -> None:
        """Shared-signature construction for univariate templates.

        For every adjacent pair, the maximal runs of consecutive cells where
        the pair stays adjacent are found; each run yields one signature
        covering the union interval of its cells.
        """
        # adjacency[cell][position] -> pair key
        chain_keys_per_cell = [self._chain_keys(cell) for cell in self.cells]
        open_runs: Dict[tuple, dict] = {}
        placements: List[List[Optional[PairSignature]]] = [
            [None] * (cell.chain_length - 1) for cell in self.cells
        ]
        run_records: List[dict] = []

        for cell_index, (cell, keys) in enumerate(zip(self.cells, chain_keys_per_cell)):
            current_pairs = {}
            for position in range(len(keys) - 1):
                current_pairs[(keys[position], keys[position + 1])] = position
            # Close runs whose pair is no longer adjacent in this cell.
            for pair_key in list(open_runs):
                if pair_key not in current_pairs:
                    run_records.append(open_runs.pop(pair_key))
            # Extend or open runs.
            for pair_key, position in current_pairs.items():
                if pair_key in open_runs:
                    run = open_runs[pair_key]
                    run["end_cell"] = cell_index
                    run["slots"].append((cell_index, position))
                else:
                    left_record, left_token = self._entry_for_key(cell, position)
                    right_record, right_token = self._entry_for_key(cell, position + 1)
                    open_runs[pair_key] = {
                        "start_cell": cell_index,
                        "end_cell": cell_index,
                        "slots": [(cell_index, position)],
                        "left_record": left_record,
                        "left_token": left_token,
                        "right_record": right_record,
                        "right_token": right_token,
                    }
        run_records.extend(open_runs.values())

        for run in run_records:
            start_cell = self.cells[run["start_cell"]]
            end_cell = self.cells[run["end_cell"]]
            coverage = CoverageRegion(
                kind="interval",
                low=start_cell.region.interval_low,
                high=end_cell.region.interval_high,
            )
            digest = self._pair_digest(
                chain_entry_bytes(run["left_record"], run["left_token"]),
                chain_entry_bytes(run["right_record"], run["right_token"]),
                coverage,
            )
            signature = signer.sign(digest)
            self.counters.add_signature_created()
            pair = PairSignature(
                left_record=run["left_record"],
                right_record=run["right_record"],
                coverage=coverage,
                signature=signature,
                left_token=run["left_token"],
                right_token=run["right_token"],
            )
            self.unique_signatures.append(pair)
            for cell_index, position in run["slots"]:
                placements[cell_index][position] = pair

        for cell, cell_placements in zip(self.cells, placements):
            if any(entry is None for entry in cell_placements):
                raise ConstructionError("internal error: a chain pair was left unsigned")
            cell.pair_signatures = list(cell_placements)

    # ------------------------------------------------------------ accessors
    @property
    def cell_count(self) -> int:
        """Number of subdomains (the paper's number of cells)."""
        return len(self.cells)

    @property
    def signature_count(self) -> int:
        """Number of distinct signatures created by the owner (Fig. 5a)."""
        return len(self.unique_signatures)

    def size_breakdown(self, size_model: SizeModel = DEFAULT_SIZE_MODEL) -> Dict[str, int]:
        """Byte-size breakdown of the serialized mesh (Fig. 5c)."""
        dimension = self.template.dimension
        signature_bytes = 0
        for pair in self.unique_signatures:
            signature_bytes += size_model.signature_size
            signature_bytes += pair.coverage.size_bytes(dimension, size_model)
            signature_bytes += 2 * size_model.int_size
        cell_bytes = 0
        for cell in self.cells:
            cell_bytes += len(cell.region.constraints) * size_model.constraint_size(dimension)
            cell_bytes += cell.chain_length * size_model.pointer_size
        return {"signature_bytes": signature_bytes, "cell_bytes": cell_bytes}

    def size_bytes(self, size_model: SizeModel = DEFAULT_SIZE_MODEL) -> int:
        """Total serialized size in bytes."""
        return sum(self.size_breakdown(size_model).values())

    # --------------------------------------------------------------- codecs
    def _encode_entry(self, record: Optional[Record], token: Optional[str]) -> int:
        if token == "min":
            return _MIN_SENTINEL
        if token == "max":
            return _MAX_SENTINEL
        return self._position_of[record.record_id]

    def to_arrays(self) -> Dict[str, np.ndarray]:
        """Serialize the mesh into flat arrays (artifact export).

        Cells become one permutation matrix over the dataset order plus
        flattened per-cell constraint arrays; the distinct pair signatures
        are stored once each (chain entries as dataset positions, tokens as
        negative sentinels) and every cell references them by index, so the
        shared-signature structure survives the round trip exactly.
        """
        dimension = self.template.dimension
        records = self.dataset.records
        self._position_of = {record.record_id: p for p, record in enumerate(records)}
        cells = self.cells
        chain = len(records) + 1  # pairs per cell (records + 2 tokens - 1)
        order = np.empty((len(cells), len(records)), dtype=np.int32)
        placements = np.empty((len(cells), chain), dtype=np.int64)
        signature_index = {id(pair): k for k, pair in enumerate(self.unique_signatures)}
        for row, cell in enumerate(cells):
            if len(cell.sorted_records) != len(records):
                raise ConstructionError(
                    "mesh cell does not cover the full record set; cannot serialize"
                )
            order[row] = [self._position_of[r.record_id] for r in cell.sorted_records]
            if len(cell.pair_signatures) != chain:
                raise ConstructionError("cannot serialize an unsigned signature mesh")
            placements[row] = [signature_index[id(p)] for p in cell.pair_signatures]
        arrays: Dict[str, np.ndarray] = {
            "cell_order": order,
            "cell_pairs": placements,
            "cell_witness": np.asarray(
                [cell.witness for cell in cells], dtype=np.float64
            ).reshape(len(cells), dimension),
            "cell_interval": np.asarray(
                [
                    (cell.region.interval_low, cell.region.interval_high)
                    for cell in cells
                ],
                dtype=np.float64,
            ),
        }
        arrays.update(
            _flatten_constraints("cell_constraint", [cell.region.constraints for cell in cells], dimension)
        )

        unique = self.unique_signatures
        sizes = {len(pair.signature) for pair in unique}
        if len(sizes) > 1:
            raise ConstructionError("mesh signatures disagree on size")
        signature_size = sizes.pop() if sizes else 0
        arrays["sig_bytes"] = np.frombuffer(
            b"".join(pair.signature for pair in unique), dtype=np.uint8
        ).reshape(len(unique), signature_size)
        arrays["sig_left"] = np.asarray(
            [self._encode_entry(p.left_record, p.left_token) for p in unique], dtype=np.int64
        )
        arrays["sig_right"] = np.asarray(
            [self._encode_entry(p.right_record, p.right_token) for p in unique], dtype=np.int64
        )
        arrays["sig_cov_kind"] = np.asarray(
            [0 if p.coverage.kind == "interval" else 1 for p in unique], dtype=np.uint8
        )
        arrays["sig_cov_interval"] = np.asarray(
            [(p.coverage.low, p.coverage.high) for p in unique], dtype=np.float64
        ).reshape(len(unique), 2)
        arrays.update(
            _flatten_constraints(
                "sig_cov_constraint", [p.coverage.constraints for p in unique], dimension
            )
        )
        del self._position_of
        return arrays

    @classmethod
    def from_arrays(
        cls,
        dataset: Dataset,
        template: UtilityTemplate,
        arrays: Dict[str, np.ndarray],
        *,
        config: SystemConfig,
        counters: Optional[Counters] = None,
        epoch: int = 0,
    ) -> "SignatureMesh":
        """Rebuild a fully functional mesh from :meth:`to_arrays` output.

        The arrangement is **not** recomputed (no geometry engine runs and
        nothing is hashed or signed): cells, regions, witnesses and the
        shared pair-signature graph come straight out of the arrays.  The
        private signing key never ships in an artifact, so the loaded mesh
        carries signatures but no signer.
        """
        self = cls.__new__(cls)
        self._init_common(dataset, template, config, counters, None, None, epoch)
        functions = template.functions_for(dataset)
        self.functions_by_id = {f.index: f for f in functions}
        #: The flat arrangement object only drives construction; a loaded
        #: mesh serves queries from its cells alone.
        self.arrangement = None

        records = dataset.records
        dimension = template.dimension
        univariate = dimension == 1
        domain = template.domain

        entries = _unflatten_constraints("sig_cov_constraint", arrays, dimension)
        sig_bytes = np.ascontiguousarray(arrays["sig_bytes"], dtype=np.uint8)
        signature_size = sig_bytes.shape[1]
        signature_blob = sig_bytes.tobytes()
        sig_left = np.asarray(arrays["sig_left"], dtype=np.int64).tolist()
        sig_right = np.asarray(arrays["sig_right"], dtype=np.int64).tolist()
        cov_kind = np.asarray(arrays["sig_cov_kind"], dtype=np.uint8).tolist()
        cov_interval = np.asarray(arrays["sig_cov_interval"], dtype=np.float64).tolist()

        def decode_entry(code: int) -> tuple[Optional[Record], Optional[str]]:
            if code == _MIN_SENTINEL:
                return None, "min"
            if code == _MAX_SENTINEL:
                return None, "max"
            return records[code], None

        unique: List[PairSignature] = []
        for position in range(len(sig_left)):
            left_record, left_token = decode_entry(sig_left[position])
            right_record, right_token = decode_entry(sig_right[position])
            if cov_kind[position] == 0:
                low, high = cov_interval[position]
                coverage = CoverageRegion(kind="interval", low=low, high=high)
            else:
                coverage = CoverageRegion(
                    kind="constraints", constraints=entries[position]
                )
            unique.append(
                PairSignature(
                    left_record=left_record,
                    right_record=right_record,
                    coverage=coverage,
                    signature=signature_blob[
                        position * signature_size : (position + 1) * signature_size
                    ],
                    left_token=left_token,
                    right_token=right_token,
                )
            )
        self.unique_signatures = unique

        cell_constraints = _unflatten_constraints("cell_constraint", arrays, dimension)
        order = np.asarray(arrays["cell_order"], dtype=np.int64).tolist()
        placements = np.asarray(arrays["cell_pairs"], dtype=np.int64).tolist()
        witnesses = np.asarray(arrays["cell_witness"], dtype=np.float64).tolist()
        intervals = np.asarray(arrays["cell_interval"], dtype=np.float64).tolist()
        cells: List[MeshCell] = []
        for identifier in range(len(order)):
            if univariate:
                low, high = intervals[identifier]
                region = Region(
                    domain=domain,
                    constraints=cell_constraints[identifier],
                    interval_low=low,
                    interval_high=high,
                )
            else:
                region = Region(domain=domain, constraints=cell_constraints[identifier])
            cells.append(
                MeshCell(
                    identifier=identifier,
                    region=region,
                    witness=tuple(witnesses[identifier]),
                    sorted_records=[records[p] for p in order[identifier]],
                    pair_signatures=[unique[k] for k in placements[identifier]],
                )
            )
        self.cells = cells
        return self

    # ------------------------------------------------------------ queries
    def locate_cell(self, weights: Sequence[float], counters: Optional[Counters] = None) -> MeshCell:
        """Linear scan for the cell containing ``weights`` (counted)."""
        counters = counters if counters is not None else self.counters
        for inspected, cell in enumerate(self.cells, start=1):
            if cell.region.contains(weights):
                counters.add_node(inspected)
                return cell
        counters.add_node(len(self.cells))
        raise QueryProcessingError(
            f"weight vector {tuple(weights)} lies outside the published domain"
        )

    def process_query(
        self, query: AnalyticQuery, counters: Optional[Counters] = None
    ) -> tuple[QueryResult, MeshVerificationObject]:
        """Answer a query and build its mesh verification object."""
        query.validate(self.template.dimension)
        counters = counters if counters is not None else self.counters
        cell = self.locate_cell(query.weights, counters)
        scores = [
            self.functions_by_id[record.record_id].evaluate(query.weights)
            for record in cell.sorted_records
        ]
        window = select_window(query, scores)
        records = [cell.sorted_records[position] for position in window.indices()]
        result = QueryResult(records=tuple(records))
        vo = self._build_vo(cell, window, counters)
        return result, vo

    def _build_vo(
        self, cell: MeshCell, window: ResultWindow, counters: Counters
    ) -> MeshVerificationObject:
        left = self._boundary_for_position(cell, window.left_boundary_position)
        right = self._boundary_for_position(cell, window.right_boundary_position)
        first_pair = left.leaf_index
        last_pair = right.leaf_index - 1
        pairs = tuple(cell.pair_signatures[first_pair : last_pair + 1])
        # The server walks the chain slice to collect records and signatures.
        counters.add_node(len(pairs) + 2)
        return MeshVerificationObject(left=left, right=right, pair_signatures=pairs)

    def _boundary_for_position(self, cell: MeshCell, position: int) -> BoundaryEntry:
        if position < 0:
            return BoundaryEntry(leaf_index=0, token="min")
        if position >= len(cell.sorted_records):
            return BoundaryEntry(leaf_index=cell.chain_length - 1, token="max")
        return BoundaryEntry(leaf_index=position + 1, item=cell.sorted_records[position])


# ---------------------------------------------------------------------------
# Constraint-list (de)flattening shared by the artifact codec
# ---------------------------------------------------------------------------
def _flatten_constraints(
    prefix: str, constraint_lists: Sequence[Sequence[Constraint]], dimension: int
) -> Dict[str, np.ndarray]:
    """Flatten variable-length constraint tuples into fixed dtype arrays."""
    counts = np.asarray([len(entry) for entry in constraint_lists], dtype=np.int64)
    flat = [constraint for entry in constraint_lists for constraint in entry]
    return {
        f"{prefix}_counts": counts,
        f"{prefix}_i": np.asarray([c.hyperplane.i for c in flat], dtype=np.int64),
        f"{prefix}_j": np.asarray([c.hyperplane.j for c in flat], dtype=np.int64),
        f"{prefix}_normal": np.asarray(
            [c.hyperplane.normal for c in flat], dtype=np.float64
        ).reshape(len(flat), dimension),
        f"{prefix}_offset": np.asarray([c.hyperplane.offset for c in flat], dtype=np.float64),
        f"{prefix}_side": np.asarray([c.side for c in flat], dtype=np.int8),
    }


def _unflatten_constraints(
    prefix: str, arrays: Dict[str, np.ndarray], dimension: int
) -> List[tuple[Constraint, ...]]:
    """Rebuild the per-entry constraint tuples written by ``_flatten_constraints``."""
    counts = np.asarray(arrays[f"{prefix}_counts"], dtype=np.int64).tolist()
    i_values = np.asarray(arrays[f"{prefix}_i"], dtype=np.int64).tolist()
    j_values = np.asarray(arrays[f"{prefix}_j"], dtype=np.int64).tolist()
    normals = np.asarray(arrays[f"{prefix}_normal"], dtype=np.float64).tolist()
    offsets = np.asarray(arrays[f"{prefix}_offset"], dtype=np.float64).tolist()
    sides = np.asarray(arrays[f"{prefix}_side"], dtype=np.int8).tolist()
    entries: List[tuple[Constraint, ...]] = []
    cursor = 0
    for count in counts:
        entry = tuple(
            Constraint(
                Hyperplane(
                    i=i_values[position],
                    j=j_values[position],
                    normal=tuple(normals[position]),
                    offset=offsets[position],
                ),
                ABOVE if sides[position] == ABOVE else BELOW,
            )
            for position in range(cursor, cursor + count)
        )
        entries.append(entry)
        cursor += count
    return entries
