"""End-to-end orchestration of the three-party outsourcing protocol.

:class:`OutsourcedSystem` wires a data owner, a cloud server and a client
together for the common case (one owner, one server, one verifying user) so
examples, tests and benchmarks can run the whole pipeline in two lines:

>>> system = OutsourcedSystem.setup(
...     dataset, template, config=SystemConfig(scheme="one-signature")
... )
>>> execution, report = system.query_and_verify(TopKQuery(weights=(0.5,), k=3))
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Optional, Sequence

from repro.core.client import Client
from repro.core.config import SystemConfig
from repro.core.owner import DataOwner
from repro.core.queries import AnalyticQuery
from repro.core.records import Dataset, UtilityTemplate
from repro.core.results import VerificationReport
from repro.core.server import QueryExecution, Server
from repro.geometry.engine import SplitEngine
from repro.metrics.counters import Counters

__all__ = ["OutsourcedSystem"]


@dataclass
class OutsourcedSystem:
    """A wired-up owner / server / client triple.

    ``owner`` is ``None`` for systems cold-started from a published
    artifact (:meth:`from_artifact`): the artifact carries no private key,
    so there is no owner to impersonate.
    """

    owner: Optional[DataOwner]
    server: Server
    client: Client

    @classmethod
    def setup(
        cls,
        dataset: Dataset,
        template: UtilityTemplate,
        *,
        config: Optional[SystemConfig] = None,
        engine: Optional[SplitEngine] = None,
        rng: Optional[random.Random] = None,
    ) -> "OutsourcedSystem":
        """Build the owner's ADS, hand it to a server and create a client.

        Configuration is one :class:`~repro.core.config.SystemConfig`
        threaded through every layer (the default one when omitted).  Its
        ``tolerance`` reaches the geometry engine, so exact comparisons
        (``tolerance=0.0``) need no hand-built
        :class:`~repro.geometry.engine.SplitEngine`.
        """
        owner = DataOwner(dataset, template, config=config, engine=engine, rng=rng)
        server = Server(owner.outsource())
        client = Client(owner.public_parameters())
        return cls(owner=owner, server=server, client=client)

    @classmethod
    def from_artifact(cls, path, *, base=None) -> "OutsourcedSystem":
        """Cold-start a server/client pair from a published ADS artifact.

        The returned system has no :attr:`owner` (the private key never
        ships in an artifact); queries and verification work exactly as in
        an in-process system.  ``base`` names the full artifact a delta
        was published against (see :meth:`repro.core.owner.DataOwner.publish`).
        """
        from repro.core.artifact import load_artifact

        loaded = load_artifact(path, base=base)
        return cls(
            owner=None,
            server=Server(loaded.package),
            client=Client(loaded.public_parameters),
        )

    # ------------------------------------------------------------- pipeline
    def query_and_verify(
        self,
        query: AnalyticQuery,
        server_counters: Optional[Counters] = None,
        client_counters: Optional[Counters] = None,
    ) -> tuple[QueryExecution, VerificationReport]:
        """Run one query through the server and verify it at the client."""
        execution = self.server.execute(query, counters=server_counters)
        report = self.client.verify(
            query,
            execution.result,
            execution.verification_object,
            counters=client_counters,
        )
        return execution, report

    def query_and_verify_batch(
        self, queries: "Sequence[AnalyticQuery]"
    ) -> list[tuple[QueryExecution, VerificationReport]]:
        """Run a batch through ``Server.execute_batch`` and verify every result."""
        executions = self.server.execute_batch(queries)
        reports = self.client.verify_batch(executions)
        return list(zip(executions, reports))

    # ----------------------------------------------------------- resilience
    def resilient_client(
        self,
        replicas: Optional[Sequence[object]] = None,
        *,
        policy=None,
        seed: int = 0,
        clock=None,
        quarantine_threshold: int = 2,
        quarantine_period: float = 5.0,
    ):
        """A retry/failover front-end over this system's verifying client.

        ``replicas`` defaults to just this system's server; pass several
        servers (or :class:`~repro.resilience.faults.FaultInjector`
        wrappers) to serve from a pool.  See :mod:`repro.resilience`.
        """
        from repro.resilience.pool import ReplicaPool, ResilientClient

        pool = ReplicaPool(
            list(replicas) if replicas is not None else [self.server],
            clock=clock,
            quarantine_threshold=quarantine_threshold,
            quarantine_period=quarantine_period,
        )
        return ResilientClient(pool, self.client, policy, seed=seed)

    @classmethod
    def resilient_from_artifact(
        cls,
        path,
        replicas: int = 3,
        *,
        base=None,
        expected_epoch: Optional[int] = None,
        policy=None,
        seed: int = 0,
        clock=None,
        quarantine_threshold: int = 2,
        quarantine_period: float = 5.0,
    ):
        """Cold-start a resilient serving stack from one published artifact.

        Loads ``replicas`` independent servers plus one verifying client
        from the same artifact and returns the wired
        :class:`~repro.resilience.pool.ResilientClient`.
        """
        from repro.core.client import Client as _Client
        from repro.resilience.pool import ResilientClient, pool_from_artifact

        pool = pool_from_artifact(
            path,
            replicas,
            base=base,
            expected_epoch=expected_epoch,
            clock=clock,
            quarantine_threshold=quarantine_threshold,
            quarantine_period=quarantine_period,
        )
        return ResilientClient(pool, _Client.from_artifact(path), policy, seed=seed)

    @property
    def scheme(self) -> str:
        return self.server.scheme
