"""The data user (client): query-result verification.

The client holds only public information (the
:class:`~repro.core.owner.PublicParameters` published by the data owner) and
verifies every query result it receives from the untrusted server.  The
verification cost -- hash operations, signature verifications, wall-clock
time -- is the paper's Fig. 7 metric and is recorded on the returned
:class:`~repro.core.results.VerificationReport`.
"""

from __future__ import annotations

import threading
from numbers import Integral
from typing import Iterable, List, Optional, Union

from repro.core.owner import PublicParameters, SIGNATURE_MESH
from repro.core.queries import AnalyticQuery
from repro.core.records import Record
from repro.core.results import QueryResult, VerificationReport
from repro.geometry.domain import Constraint
from repro.geometry.functions import Hyperplane
from repro.ifmh.ifmh_tree import MULTI_SIGNATURE, ONE_SIGNATURE
from repro.ifmh.verify import verify_result
from repro.ifmh.vo import FunctionVO, IVStep, MultiSignatureIV, VerificationObject
from repro.merkle.fmh_tree import BoundaryEntry
from repro.merkle.mh_tree import RangeProof
from repro.mesh.structures import MeshVerificationObject
from repro.mesh.verify import verify_mesh_result
from repro.metrics.counters import Counters

__all__ = ["Client"]


class Client:
    """A data user that verifies the correctness of analytic query results."""

    def __init__(self, parameters: PublicParameters):
        self.parameters = parameters
        #: Cumulative verification cost across every verified result; mutated
        #: only under a lock so concurrent verifications are safe.
        self.counters = Counters()
        self._counters_lock = threading.Lock()

    @classmethod
    def from_artifact(cls, path) -> "Client":
        """Create a verifying client from a published ADS artifact.

        Only the public parameters (template, schema, scheme, public
        verification key) are read -- a client never needs the ADS arrays
        themselves -- but the artifact's integrity checksum is still
        verified, and a truncated or tampered file raises
        :class:`~repro.core.errors.ConstructionError`.
        """
        from repro.core.artifact import load_public_parameters

        return cls(load_public_parameters(path))

    # --------------------------------------------------------------- verify
    def verify(
        self,
        query: AnalyticQuery,
        result: QueryResult,
        verification_object: Union[VerificationObject, MeshVerificationObject],
        counters: Optional[Counters] = None,
    ) -> VerificationReport:
        """Verify a query result; returns a report, never raises."""
        per_query = counters if counters is not None else Counters()
        params = self.parameters
        if params.scheme == SIGNATURE_MESH:
            if not isinstance(verification_object, MeshVerificationObject):
                report = VerificationReport()
                report.record(
                    "vo-type",
                    False,
                    "expected a signature-mesh verification object",
                )
                return report
            report = verify_mesh_result(
                query,
                result,
                verification_object,
                template=params.template,
                attribute_names=params.attribute_names,
                verifier=params.verifier,
                counters=per_query,
                epoch=params.epoch,
            )
        elif params.scheme in (ONE_SIGNATURE, MULTI_SIGNATURE):
            if not isinstance(verification_object, VerificationObject):
                report = VerificationReport()
                report.record("vo-type", False, "expected an IFMH verification object")
                return report
            problem = _ifmh_structure_problem(verification_object)
            if problem is not None:
                report = VerificationReport()
                report.record("vo-structure", False, f"malformed verification object: {problem}")
                return report
            report = verify_result(
                query,
                result,
                verification_object,
                template=params.template,
                attribute_names=params.attribute_names,
                verifier=params.verifier,
                bind_intersections=params.bind_intersections,
                counters=per_query,
                epoch=params.epoch,
            )
        else:  # pragma: no cover - PublicParameters are built by DataOwner
            report = VerificationReport()
            report.record("scheme", False, f"unknown scheme {params.scheme!r}")
            return report
        with self._counters_lock:
            self.counters.merge(per_query)
        return report

    def verify_batch(self, executions: Iterable[object]) -> List[VerificationReport]:
        """Verify a batch of server executions (e.g. from ``execute_batch``).

        Accepts any iterable of objects carrying ``query``, ``result`` and
        ``verification_object`` attributes; each result is verified against
        its own per-query counter.
        """
        return [
            self.verify(e.query, e.result, e.verification_object)  # type: ignore[attr-defined]
            for e in executions
        ]

    def verify_or_raise(
        self,
        query: AnalyticQuery,
        result: QueryResult,
        verification_object: Union[VerificationObject, MeshVerificationObject],
    ) -> VerificationReport:
        """Like :meth:`verify` but raises :class:`VerificationError` on failure.

        The raised error names the failing checks (``err.failed_checks``)
        and carries the query kind, scheme and epoch as structured context.
        """
        report = self.verify(query, result, verification_object)
        report.raise_if_invalid(
            query_kind=query.kind,
            scheme=self.parameters.scheme,
            epoch=self.parameters.epoch,
        )
        return report


def _ifmh_structure_problem(vo: VerificationObject) -> Optional[str]:
    """Which part of an IFMH verification object has the wrong type, if any.

    Verification reads the fields as the server sent them, so a field of
    the wrong type (``None`` where a digest belongs, an int for a
    signature) would raise inside it instead of failing a check.
    """
    fv = vo.fv
    if not isinstance(fv, FunctionVO):
        return "fv is not a function verification object"
    for name, entry in (("fv.left", fv.left), ("fv.right", fv.right)):
        if not (
            isinstance(entry, BoundaryEntry)
            and isinstance(entry.leaf_index, Integral)
            and (entry.token is not None or isinstance(entry.item, Record))
        ):
            return f"{name} is not a boundary entry"
    proof = fv.proof
    if not (
        isinstance(proof, RangeProof)
        and all(isinstance(value, Integral) for value in (proof.start, proof.end, proof.leaf_count))
        and isinstance(proof.supplements, (tuple, list))
        and all(_is_supplement(entry) for entry in proof.supplements)
    ):
        return "fv.proof is not a range proof"
    if vo.scheme == ONE_SIGNATURE:
        steps = getattr(vo.one_signature_iv, "steps", None)
        if not (isinstance(steps, (tuple, list)) and all(map(_is_step, steps))):
            return "the search path is not a sequence of well-formed steps"
        if not isinstance(vo.root_signature, bytes):
            return "the root signature is not bytes"
        return None
    iv = vo.multi_signature_iv
    if not (
        isinstance(iv, MultiSignatureIV)
        and isinstance(iv.constraints, (tuple, list))
        and all(
            isinstance(c, Constraint) and isinstance(c.hyperplane, Hyperplane)
            for c in iv.constraints
        )
        and isinstance(iv.signature, bytes)
    ):
        return "the subdomain proof is malformed"
    return None


def _is_supplement(entry) -> bool:
    return (
        isinstance(entry, tuple)
        and len(entry) == 3
        and isinstance(entry[0], Integral)
        and isinstance(entry[1], Integral)
        and isinstance(entry[2], bytes)
    )


def _is_step(step) -> bool:
    return (
        isinstance(step, IVStep)
        and isinstance(step.hyperplane, Hyperplane)
        and isinstance(step.took_above, bool)
        and isinstance(step.sibling_hash, bytes)
    )
