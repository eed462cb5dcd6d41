"""The measured operations and the reply wire format.

Workloads call these through the module (``ops.verified_query(...)``), so
the traced mode can wrap them like any layer of the program: ``bench.*``
spans are the roots of each operation's span tree.
"""

from __future__ import annotations

import pickle
import time
import traceback
from typing import Dict, Optional, Tuple

from repro.core.client import Client
from repro.core.owner import DataOwner
from repro.core.queries import AnalyticQuery
from repro.core.server import Server

from perfbench.common import Tally, verdict_reason
from perfbench.inputs import UpdateStep


def encode(result, verification_object) -> bytes:
    """The bytes a serving worker ships for one reply: the pickled (result, VO)."""
    return pickle.dumps((result, verification_object), protocol=pickle.HIGHEST_PROTOCOL)


def decode(blob: bytes):
    """Inverse of :func:`encode`; only ever fed bytes this benchmark wrote."""
    return pickle.loads(blob)


def verified_query(
    server: Server, client: Client, query: AnalyticQuery
) -> Tuple[Optional[object], int]:
    """Send one query, ship its reply over the wire and verify it.

    Returns the rejected verification report (``None`` when the answer
    verified) and the reply's size in bytes.
    """
    execution = server.execute(query)
    blob = encode(execution.result, execution.verification_object)
    result, verification_object = decode(blob)
    report = client.verify(query, result, verification_object)
    return (None if report.is_valid else report), len(blob)


def attempt_query(
    server: Server, client: Client, query: AnalyticQuery, tally: Tally, report: Dict
) -> Optional[Tuple[float, int]]:
    """One timed :func:`verified_query`: its seconds and reply bytes.

    ``None`` when it failed; the failure is counted and named in ``tally``
    (and the first traceback kept in ``report``), never timed.
    """
    tally.attempt()
    started = time.perf_counter()
    try:
        rejected, size = verified_query(server, client, query)
    except Exception as err:  # noqa: BLE001 -- every failure is counted and named
        tally.fail(f"{type(err).__name__}: {err}")
        report.setdefault("first_error", traceback.format_exc())
        return None
    elapsed = time.perf_counter() - started
    if rejected is not None:
        tally.fail(verdict_reason(rejected))
        return None
    return elapsed, size


def update_step(owner: DataOwner, server: Server, step: UpdateStep, base, path):
    """Apply one batch, publish it as a delta and hot-swap the live server to it."""
    report = owner.apply_updates(
        inserts=() if step.insert is None else (step.insert,),
        deletes=() if step.delete is None else (step.delete,),
    )
    owner.publish(path, base=base)
    server.swap_epoch_from_artifact(path, base=base, expected_epoch=owner.epoch)
    return report
