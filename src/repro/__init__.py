"""repro -- Verifiable analytic query results.

Reproduction of Nosrati & Cai, *"Verifying the Correctness of Analytic Query
Results"* (TKDE 2020 / ICDE 2023): the IFMH-tree authenticated data
structure (one-signature and multi-signature modes) for verifying top-k,
score-range and KNN query results over outsourced databases, plus the
signature-mesh baseline it is compared against.

Quick start
-----------
>>> from repro import Dataset, UtilityTemplate, OutsourcedSystem, SystemConfig, TopKQuery
>>> dataset = Dataset.from_rows(("gpa", "award", "paper"),
...                             [(3.9, 2, 4), (3.5, 1, 7), (3.2, 0, 2)])
>>> template = UtilityTemplate(attributes=("gpa", "award"))
>>> config = SystemConfig(scheme="one-signature", signature_algorithm="hmac")
>>> system = OutsourcedSystem.setup(dataset, template, config=config)
>>> execution, report = system.query_and_verify(TopKQuery(weights=(0.6, 0.4), k=2))
>>> report.is_valid
True

Fast paths
----------
For the univariate interval configuration (the paper's benchmark setting)
the IFMH-tree is built by a vectorized **bulk builder**: all pairwise
breakpoints are computed in one numpy pass, sorted once, and assembled into
a *balanced* I-tree -- no per-hyperplane BFS insertion.  The paper's
incremental insertion builds the paper's tree shape and is used
automatically for d >= 2 (the LP-engine configuration); select it
explicitly with ``SystemConfig(build_mode="incremental")``.  Every
subdomain's FMH-tree is then built at once, level by level across the
whole forest, so nodes that neighbouring subdomains share are hashed
once.  The slow, obvious constructions these fast paths must match bit for
bit live in :mod:`repro.reference`, which only tests and benchmarks
import.

On the query side, servers score a subdomain with a single cached
``A @ w + b`` matvec and expose ``Server.execute_batch(queries)``, which
amortizes the subdomain search and scoring across queries sharing a weight
vector while keeping per-query cost counters isolated;
``OutsourcedSystem.query_and_verify_batch`` runs the batched pipeline end to
end.  Benchmark both fast paths with ``python -m repro.bench --fastpath``
(or the CI gate ``python -m repro.bench --smoke``).

Publishable artifacts
---------------------
Construction is configured by one frozen :class:`SystemConfig` threaded
through every layer, and the finished ADS can be published to disk and
cold-started without rebuilding:

>>> system = OutsourcedSystem.setup(dataset, template,
...                                 config=SystemConfig(scheme="one-signature"))
>>> system.owner.publish("ads.npz")                      # doctest: +SKIP
>>> server = Server.from_artifact("ads.npz")             # doctest: +SKIP

Loading re-hashes nothing and answers queries bit-identically to the
in-process build (``python -m repro.bench --coldstart`` gates load >= 10x
faster than rebuild at n = 1000); see ``docs/artifacts.md``.

Incremental updates
-------------------
The live ADS absorbs record changes without a rebuild:

>>> system.owner.insert(Record(record_id=99, values=(3.3, 2.5)))  # doctest: +SKIP
>>> system.owner.delete(42)                                       # doctest: +SKIP
>>> system.owner.publish("ads-epoch2.npz", base="ads.npz")        # doctest: +SKIP

Each batch rebuilds only the changed paths against the persisted Merkle
arena, bumps the ADS epoch (bound into every signed message, so stale
servers fail verification) and stays bit-identical to a from-scratch
build of the final dataset (``python -m repro.bench --update`` gates
single-record updates >= 10x faster than a rebuild at n = 1000); see
``docs/updates.md``.

Byzantine-resilient serving
---------------------------
Because every answer is client-verified, replica faults -- crashes, stale
epochs, outright tampering -- reduce to "try another replica".  The
:mod:`repro.resilience` package serves from a pool of N replicas
cold-started from one artifact, with bounded retries, deterministic
backoff and quarantine of repeat offenders:

>>> rc = OutsourcedSystem.resilient_from_artifact("ads.npz", replicas=3)  # doctest: +SKIP
>>> outcome = rc.execute(TopKQuery(weights=(0.6, 0.4), k=2))              # doctest: +SKIP
>>> outcome.accepted, outcome.flags()                                     # doctest: +SKIP

The seeded :class:`FaultInjector` drives the adversarial benchmark
``python -m repro.bench --faults`` (zero tampered answers accepted, all
accepted answers verified, goodput floor); see ``docs/resilience.md``.

Multi-worker serving
--------------------
The :mod:`repro.serving` package runs N worker *processes*, each
cold-started from the same published artifact, behind a batching dispatcher
(same-weight queries share one ``execute_batch`` call), with an open-loop
seeded-Poisson load harness and a latency/throughput recorder:

>>> with ServingFrontEnd("ads.npz", workers=4) as frontend:      # doctest: +SKIP
...     trace = generate_trace(dataset, template, TrafficConfig(seed=7))
...     tickets = run_trace(frontend, trace)
...     frontend.drain(tickets)

Worker crashes respawn from the artifact with every owed query requeued,
and ``broadcast_swap`` hot-swaps all workers to a new epoch mid-load
without dropping a query.  Gated by ``python -m repro.bench --serve``; see
``docs/serving.md``.
"""

from repro.core import (
    AnalyticQuery,
    Client,
    ConstructionError,
    DataOwner,
    Dataset,
    InvalidQueryError,
    KNNQuery,
    OutsourcedSystem,
    PublicParameters,
    QueryExecution,
    QueryProcessingError,
    QueryResult,
    RangeQuery,
    Record,
    ReproError,
    SCHEMES,
    SIGNATURE_MESH,
    Server,
    ServerPackage,
    SystemConfig,
    TopKQuery,
    UpdateReport,
    UtilityTemplate,
    VerificationError,
    VerificationReport,
)
from repro.geometry.domain import Domain
from repro.ifmh.ifmh_tree import MULTI_SIGNATURE, ONE_SIGNATURE
from repro.resilience import (
    FaultInjector,
    FaultPlan,
    FaultSpec,
    ReplicaPool,
    ResilientClient,
    ResilientExecution,
    RetryPolicy,
    VirtualClock,
)
from repro.serving import (
    LatencyRecorder,
    ServingClock,
    ServingFrontEnd,
    ServingTicket,
    TrafficConfig,
    TrafficTrace,
    WorkerProxy,
    generate_trace,
    run_trace,
)

__version__ = "1.0.0"

__all__ = [
    "__version__",
    "AnalyticQuery",
    "Client",
    "ConstructionError",
    "DataOwner",
    "Dataset",
    "Domain",
    "FaultInjector",
    "FaultPlan",
    "FaultSpec",
    "InvalidQueryError",
    "KNNQuery",
    "LatencyRecorder",
    "ServingClock",
    "ServingFrontEnd",
    "ServingTicket",
    "TrafficConfig",
    "TrafficTrace",
    "WorkerProxy",
    "generate_trace",
    "run_trace",
    "MULTI_SIGNATURE",
    "ONE_SIGNATURE",
    "OutsourcedSystem",
    "ReplicaPool",
    "ResilientClient",
    "ResilientExecution",
    "RetryPolicy",
    "VirtualClock",
    "PublicParameters",
    "QueryExecution",
    "QueryProcessingError",
    "QueryResult",
    "RangeQuery",
    "Record",
    "ReproError",
    "SCHEMES",
    "SIGNATURE_MESH",
    "Server",
    "ServerPackage",
    "SystemConfig",
    "TopKQuery",
    "UpdateReport",
    "UtilityTemplate",
    "VerificationError",
    "VerificationReport",
]
