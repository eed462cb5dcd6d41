"""Seeded inputs: datasets, fresh-weight query plans and update sequences.

Everything here depends only on the seed.  Query plans are vectorised:
generating one query with :func:`repro.workloads.generator.make_queries`
sorts all n scores in pure Python (about 0.7 ms at n = 300), which would
dominate a run that needs tens of thousands of fresh-weight queries.  The
plan draws the same kinds of queries -- a topk/range/knn rotation with
``result_size`` answers, range bounds and KNN targets anchored on the sorted
scores under the query's own weights -- from a numpy generator, and keeps
them as arrays until the moment a query is sent.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from repro.core.queries import AnalyticQuery, KNNQuery, RangeQuery, TopKQuery
from repro.core.records import Dataset, Record, UtilityTemplate
from repro.workloads.generator import WorkloadConfig, make_dataset, make_template

#: Answers per query (the generator's default).
RESULT_SIZE = 3
#: Weight vectors keep this share of the domain width away from its edges,
#: as :func:`repro.workloads.generator.make_weight_vector` does.
WEIGHT_MARGIN = 0.05
KINDS = ("topk", "range", "knn")
#: Rows scored per numpy chunk while planning (bounds planning memory).
_CHUNK = 2048


def make_inputs(n_records: int, seed: int) -> Tuple[Dataset, UtilityTemplate]:
    """The d = 1 dataset and template of the paper's benchmark setting."""
    config = WorkloadConfig(n_records=n_records, dimension=1, seed=seed)
    return make_dataset(config), make_template(config)


@dataclass(frozen=True)
class QueryPlan:
    """``count`` queries as arrays; :meth:`query` builds one on demand."""

    weight: np.ndarray
    kind: np.ndarray
    low: np.ndarray
    high: np.ndarray
    target: np.ndarray

    def __len__(self) -> int:
        return len(self.weight)

    def query(self, position: int) -> AnalyticQuery:
        weights = (float(self.weight[position]),)
        kind = KINDS[int(self.kind[position])]
        if kind == "topk":
            return TopKQuery(weights=weights, k=RESULT_SIZE)
        if kind == "range":
            return RangeQuery(
                weights=weights,
                low=float(self.low[position]),
                high=float(self.high[position]),
            )
        return KNNQuery(weights=weights, k=RESULT_SIZE, target=float(self.target[position]))


def plan_queries(
    dataset: Dataset, template: UtilityTemplate, count: int, seed: int
) -> QueryPlan:
    """``count`` queries, each with its own fresh weight vector (d = 1 only)."""
    if template.dimension != 1:
        raise ValueError("the vectorised plan covers the univariate template only")
    functions = template.functions_for(dataset)
    slope = np.array([function.coefficients[0] for function in functions], dtype=float)
    constant = np.array([function.constant for function in functions], dtype=float)
    n = len(functions)
    rng = np.random.default_rng(seed)
    low_edge, high_edge = template.domain.lower[0], template.domain.upper[0]
    width = high_edge - low_edge
    weight = rng.uniform(
        low_edge + WEIGHT_MARGIN * width, high_edge - WEIGHT_MARGIN * width, size=count
    )
    anchor = rng.integers(0, max(1, n - RESULT_SIZE), size=count)
    pick = rng.integers(0, n, size=count)
    low = np.empty(count)
    high = np.empty(count)
    target = np.empty(count)
    top = np.minimum(n - 1, anchor + RESULT_SIZE - 1)
    for start in range(0, count, _CHUNK):
        stop = min(count, start + _CHUNK)
        rows = np.arange(stop - start)
        # The same float operations as LinearFunction.evaluate for d = 1.
        scores = np.sort(weight[start:stop, None] * slope[None, :] + constant[None, :], axis=1)
        low[start:stop] = scores[rows, anchor[start:stop]]
        high[start:stop] = scores[rows, top[start:stop]]
        target[start:stop] = scores[rows, pick[start:stop]]
    kind = np.arange(count) % len(KINDS)
    return QueryPlan(weight=weight, kind=kind, low=low, high=high, target=target)


@dataclass(frozen=True)
class UpdateStep:
    """One single-record batch: an insert or a delete."""

    insert: Optional[Record] = None
    delete: Optional[int] = None


def plan_chain(
    dataset: Dataset, length: int, rng: random.Random, first_id: int
) -> List[UpdateStep]:
    """``length`` batches alternating insert and delete, from ``dataset``.

    Each insert adds a fresh record; each delete removes a record present
    at that point, drawn uniformly, so deletes hit original records too.
    """
    present = [record.record_id for record in dataset]
    width = len(dataset.attribute_names)
    steps: List[UpdateStep] = []
    next_id = first_id
    for position in range(length):
        if position % 2 == 0:
            values = tuple(rng.uniform(0.0, 10.0) for _ in range(width))
            steps.append(UpdateStep(insert=Record(record_id=next_id, values=values)))
            present.append(next_id)
            next_id += 1
        else:
            victim = present.pop(rng.randrange(len(present)))
            steps.append(UpdateStep(delete=victim))
    return steps
