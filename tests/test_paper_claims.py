"""The paper's evaluation claims (Section 7 of arxiv 1905.06385) as one table.

Each row of :data:`CLAIMS` states one claim of the evaluation - recall
against ec* and AUC* (Figs 1, 9-12), the time experiments (Fig 13), the
complexity and dataset tables (Tables 1-2), the parameter ablations and
what Meta-blocking pruning (an extension) does to PPS and PBS - as a
check over the readings below, written as the inequality itself.  A
reading is taken on the row's datasets, averaged over them when there
are several (Figs 10 and 12), and rounded to 3 decimals, so values
closer than that compare as ties; :func:`test_claim` prints every
reading of a row that fails.

Progressive runs use the numpy engine: PPS, PBS, LS-PSN and GS-PSN emit
the python streams exactly there (the parity suites pin that), and PSN,
SA-PSN and SA-PSAB have no backend.  Runs are cached per module, so rows
reading one curve share it.  A row runs at its datasets' :data:`SCALES`;
a ``bench=True`` row runs at the registry default scale instead, and only
under ``pytest -m scale``.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Callable

import pytest

from repro.blocking.workflow import token_blocking_workflow
from repro.datasets.registry import (
    HETEROGENEOUS_DATASETS,
    STRUCTURED_DATASETS,
    list_datasets,
    load_dataset,
)
from repro.evaluation.metrics import evaluate_blocking
from repro.evaluation.timing import cascade_cost_model, timed_run
from repro.matching.match_functions import (
    EditDistanceMatcher,
    JaccardMatcher,
    OracleMatcher,
)
from repro.neighborlist.neighbor_list import NeighborList
from repro.pipeline import ERPipeline

pytest.importorskip("numpy")

#: Tier-1 scale per dataset: the module stays within a few seconds and
#: every row still holds.
SCALES = {
    "census": 1.0,
    "restaurant": 1.0,
    "cora": 0.5,
    "cddb": 0.2,
    "movies": 0.02,
    "dbpedia": 0.001,
    "freebase": 0.0003,
}

#: Every curve runs once, to the largest ec* a row reads.
MAX_EC_STAR = 20.0

ADVANCED = ("LS-PSN", "GS-PSN", "PBS", "PPS")
PRUNING = ("WNP", "CNP", "RWNP", "RCNP")
MATCHERS = {"JS": JaccardMatcher, "ED": EditDistanceMatcher}

# A (dataset, scale) cell; scale None is the registry default.
Cell = tuple[str, "float | None"]


@functools.cache
def dataset(name, scale):
    return load_dataset(name, scale=scale)


def fit(cell, method, params=()):
    """``params`` go to the method, except ``pruning``, which is the
    ``.meta`` stage's."""
    params = dict(params)
    pruning = params.pop("pruning", None)
    pipeline = (
        ERPipeline().meta(pruning=pruning).method(method, **params).backend("numpy")
    )
    return pipeline.fit(dataset(*cell))


@functools.cache
def curve(cell, method, params):
    return fit(cell, method, params).evaluate(max_ec_star=MAX_EC_STAR)


@functools.cache
def timed(cell, method, matcher, routed):
    """A Fig 13 run: the match function's cost is paid on every emission."""
    data, cost = dataset(*cell), MATCHERS[matcher]()
    return timed_run(
        fit(cell, method).build_method(),
        data.ground_truth,
        data.store,
        OracleMatcher(
            data.ground_truth,
            cost_model=cascade_cost_model(cost) if routed else cost,
        ),
        max_comparisons=min(2000, 2 * len(data.ground_truth)),
        checkpoint_every=25,
    )


@functools.cache
def blocking_quality(cell, purge, filter_ratio):
    data = dataset(*cell)
    blocks = token_blocking_workflow(
        data.store, purge_ratio=purge, filter_ratio=filter_ratio
    )
    return evaluate_blocking(blocks, data.ground_truth)


# -- the readings a row's check takes -----------------------------------------

#: The readings of the row being checked, for its failure message.
READINGS: list[str] = []


def reading(measure: Callable[..., float]) -> Callable[..., float]:
    """``measure`` of one cell, read on a row's cells: averaged over them,
    rounded to 3 decimals and logged."""

    @functools.wraps(measure)
    def read(cells: tuple[Cell, ...], *args, **params) -> float:
        total = sum(measure(cell, *args, **params) for cell in cells)
        value = round(total / len(cells), 3)
        spec = [*map(repr, args), *(f"{k}={v!r}" for k, v in params.items())]
        READINGS.append(f"{measure.__name__}({', '.join(spec)}) = {value:g}")
        return value

    return read


@reading
def recall(cell, method, ec_star, **params):
    return curve(cell, method, tuple(params.items())).recall_at(ec_star)


@reading
def auc(cell, method, ec_star, **params):
    return curve(cell, method, tuple(params.items())).normalized_auc_at(ec_star)


@reading
def emissions(cell, method, **params):
    """How many comparisons the method emits before it runs dry."""
    return sum(1 for _ in fit(cell, method, tuple(params.items())).build_method())


@reading
def run(cell, method, matcher, count, routed=True):
    """``emitted``, ``matches_found`` or ``recall`` of a Fig 13 run;
    ``routed`` pays the similarity through ``cascade_cost_model``."""
    result = timed(cell, method, matcher, routed)
    if count == "recall":
        return result.matches_found / result.total_matches
    return getattr(result, count)


@reading
def size(cell, structure, scale):
    """Table 1: ``|P|`` or the Neighbor List's length at ``scale``."""
    store = dataset(cell[0], scale).store
    if structure == "|P|":
        return len(store)
    return len(NeighborList.schema_agnostic(store))


@reading
def generated(cell, stat):
    return dataset(*cell).stats()[stat]


@reading
def published(cell, stat, scaled=False):
    """Table 2's figure for the real dataset, times the scale if ``scaled``."""
    data = dataset(*cell)
    figure = data.paper_stats[stat]
    return round(figure * data.scale) if scaled else figure


@reading
def blocks(cell, metric, purge=0.1, filter_ratio=0.8):
    return getattr(blocking_quality(cell, purge, filter_ratio), metric)


# -- the checks too long for a row --------------------------------------------


def grows_linearly(on, low, high):
    """Table 1: the Neighbor List is O(|p| |P|), so it grows like |P|."""
    population = size(on, "|P|", high) / size(on, "|P|", low)
    neighbor_list = size(on, "NL", high) / size(on, "NL", low)
    return 0.6 * population <= neighbor_list <= 1.6 * population


def profiles_as_published(on):
    target = published(on, "profiles", scaled=True)
    return abs(generated(on, "profiles") - target) <= max(3, 0.05 * target)


def mean_pairs_as_published(on):
    paper = published(on, "mean_pairs")
    return abs(generated(on, "mean_pairs") - paper) <= max(0.6, 0.2 * paper)


# -- the table ----------------------------------------------------------------


@dataclass(frozen=True)
class Claim:
    id: str
    cites: str
    dataset: str | tuple[str, ...]
    holds: Callable[[tuple[Cell, ...]], bool]
    bench: bool = False

    @property
    def datasets(self) -> tuple[str, ...]:
        return (self.dataset,) if isinstance(self.dataset, str) else self.dataset


# fmt: off
CLAIMS = [
    # Fig 1: at 10x the ideal method's comparisons PSN still misses matches.
    *(Claim(f"fig01-{d}-psn-gap", "Fig 1", d, lambda on: recall(on, "PSN", 10) < 1)
      for d in STRUCTURED_DATASETS),
    # Fig 9: the advanced methods dominate naive SA-PSN at ec* = 10.
    *(Claim(f"fig09-{d}-{m.lower()}", "Fig 9", d,
            lambda on, m=m: recall(on, m, 10) >= recall(on, "SA-PSN", 10))
      for d in STRUCTURED_DATASETS for m in ADVANCED),
    # Fig 10: a similarity-based method tops the structured mean AUC*@10,
    *(Claim(f"fig10-similarity-vs-{m.lower()}", "Fig 10", STRUCTURED_DATASETS,
            lambda on, m=m:
            max(auc(on, "LS-PSN", 10), auc(on, "GS-PSN", 10)) >= auc(on, m, 10))
      for m in ("PSN", "SA-PSN", "SA-PSAB")),
    # and naive SA-PSAB trails every advanced method.
    *(Claim(f"fig10-{m.lower()}-vs-sa-psab", "Fig 10", STRUCTURED_DATASETS,
            lambda on, m=m: auc(on, m, 10) > auc(on, "SA-PSAB", 10))
      for m in ADVANCED),
    # Fig 11: PPS beats SA-PSN on every heterogeneous dataset; on RDF data
    # similarity-based LS-PSN collapses and PBS does not.
    *(Claim(f"fig11-{d}-pps", "Fig 11", d,
            lambda on: recall(on, "PPS", 10) > recall(on, "SA-PSN", 10))
      for d in HETEROGENEOUS_DATASETS),
    Claim("fig11c-ls-psn-collapses", "Fig 11c", "freebase",
          lambda on: recall(on, "LS-PSN", 10) < recall(on, "PPS", 10) / 1.5),
    Claim("fig11c-pbs-survives", "Fig 11c", "freebase",
          lambda on: recall(on, "PBS", 10) > recall(on, "SA-PSN", 10)),
    # Fig 12: PPS has the best heterogeneous mean AUC* at every ec*.
    *(Claim(f"fig12-auc{x}-pps-vs-{m.lower()}", "Fig 12", HETEROGENEOUS_DATASETS,
            lambda on, x=x, m=m: auc(on, "PPS", x) >= auc(on, m, x))
      for x in (1, 5, 10, 20) for m in ("SA-PSN", "LS-PSN", "PBS")),
    # Fig 13: paying the similarity through the cascade's exact tier
    # changes the cost, never the oracle's decisions; and PPS reaches at
    # least SA-PSN's recall within the comparison budget.
    *(Claim(f"fig13-{d}-{f.lower()}-{m.lower()}-{count}", "Fig 13", d,
            lambda on, f=f, m=m, count=count:
            run(on, m, f, count) == run(on, m, f, count, routed=False),
            bench=d == "dbpedia")
      for d in ("movies", "dbpedia") for f in MATCHERS
      for m in ("SA-PSN", *ADVANCED) for count in ("emitted", "matches_found")),
    *(Claim(f"fig13-{d}-{f.lower()}-pps-recall", "Fig 13", d,
            lambda on, f=f: run(on, "PPS", f, "recall") >= run(on, "SA-PSN", f, "recall"),
            bench=d == "dbpedia")
      for d in ("movies", "dbpedia") for f in MATCHERS),
    # Table 1 at the script's own scales, and Table 2.
    *(Claim(f"table1-nl-linear-{low:g}-{high:g}", "Table 1", "movies",
            lambda on, low=low, high=high: grows_linearly(on, low, high))
      for low, high in ((0.01, 0.02), (0.02, 0.04))),
    *(Claim(f"table2-{d}-profiles", "Table 2", d, profiles_as_published)
      for d in SCALES),
    *(Claim(f"table2-{d}-mean-pairs", "Table 2", d, mean_pairs_as_published)
      for d in SCALES),
    # PPS's K_max, which the paper leaves open: on cora's large clusters a
    # tiny K caps recall, and the adaptive default sits near the best K.
    Claim("ablation-kmax-tiny-caps-recall", "Sec 7, K_max", "cora",
          lambda on: recall(on, "PPS", 10, k_max=1) < recall(on, "PPS", 10, k_max=50)),
    Claim("ablation-kmax-adaptive-near-best", "Sec 7, K_max", "cora",
          lambda on: auc(on, "PPS", 10) >= 0.75 * max(
              auc(on, "PPS", 10),
              *(auc(on, "PPS", 10, k_max=k) for k in (1, 10, 25, 50, 100)))),
    # GS-PSN's w_max: the Comparison List (its memory) grows with the
    # window range, and a wider range does not cost recall@10.
    Claim("ablation-wmax-list-grows", "Sec 7, w_max", "census",
          lambda on: emissions(on, "GS-PSN", max_window=5)
          <= emissions(on, "GS-PSN", max_window=10)
          <= emissions(on, "GS-PSN", max_window=20)
          <= emissions(on, "GS-PSN", max_window=50)),
    Claim("ablation-wmax-recall-holds", "Sec 7, w_max", "census",
          lambda on: recall(on, "GS-PSN", 10, max_window=50)
          >= recall(on, "GS-PSN", 10, max_window=5) - 0.02),
    # The paper's ARCS weighting is competitive with every other scheme.
    *(Claim(f"ablation-weighting-{m.lower()}-arcs", "Sec 7, weighting", "movies",
            lambda on, m=m: auc(on, m, 10) >= 0.8 * max(
                auc(on, m, 10),
                *(auc(on, m, 10, weighting=s) for s in ("CBS", "ECBS", "JS"))))
      for m in ("PBS", "PPS")),
    # Meta-blocking node pruning (an extension; the paper ranks the
    # unpruned graph): every kept algorithm front-loads the matches on
    # cora and census, and pays for it in recall on cora; the
    # cardinality pair lifts PBS on freebase.
    *(Claim(f"pruning-{p.lower()}-lifts-{m.lower()}-auc1", "Sec 5.2, pruning", "cora",
            lambda on, p=p, m=m: auc(on, m, 1, pruning=p) > auc(on, m, 1))
      for p in PRUNING for m in ("PBS", "PPS")),
    *(Claim(f"pruning-{p.lower()}-caps-{m.lower()}-recall", "Sec 5.2, pruning", "cora",
            lambda on, p=p, m=m: recall(on, m, 20, pruning=p) < recall(on, m, 20))
      for p in PRUNING for m in ("PBS", "PPS")),
    *(Claim(f"pruning-{p.lower()}-lifts-pps-auc10", "Sec 5.2, pruning", "census",
            lambda on, p=p: auc(on, "PPS", 10, pruning=p) > auc(on, "PPS", 10))
      for p in PRUNING),
    *(Claim(f"pruning-{p.lower()}-lifts-pbs-auc10", "Sec 5.2, pruning", "freebase",
            lambda on, p=p: auc(on, "PBS", 10, pruning=p) > auc(on, "PBS", 10))
      for p in ("CNP", "RCNP")),
    # Block Purging + Filtering shrink ||B|| at nearly no cost in PC.
    Claim("ablation-workflow-shrinks-cardinality", "Sec 7, workflow", "freebase",
          lambda on: blocks(on, "aggregate_cardinality")
          < blocks(on, "aggregate_cardinality", None, None)),
    Claim("ablation-workflow-keeps-pc", "Sec 7, workflow", "freebase",
          lambda on: blocks(on, "pairs_completeness")
          >= blocks(on, "pairs_completeness", None, None) - 0.05),
]
# fmt: on


@pytest.mark.parametrize(
    "claim",
    [
        pytest.param(c, id=c.id, marks=pytest.mark.scale if c.bench else ())
        for c in CLAIMS
    ],
)
def test_claim(claim):
    cells = tuple((d, None if claim.bench else SCALES[d]) for d in claim.datasets)
    READINGS.clear()
    assert claim.holds(cells), f"{claim.cites} on {cells}: " + "; ".join(READINGS)


def test_every_registered_dataset_has_a_claim():
    assert set(SCALES) | {"synthetic"} == set(list_datasets())
    assert {d for claim in CLAIMS for d in claim.datasets} == set(SCALES)
    assert len({claim.id for claim in CLAIMS}) == len(CLAIMS)
