"""The tutorial's comparative evaluation, as tables.

The tutorial compares families of methods on common measures.  This script
rebuilds those comparisons on the seeded generators of ``repro.datasets``
and prints one table per experiment:

* blocking -- every named blocking scheme x blocks / comparisons / PC / PQ /
  RR, raw and after block purging + filtering, on a dirty and on a
  clean--clean input, plus the purging x filtering-ratio ablation;
* meta-blocking -- every weighting scheme x every pruning scheme x retained
  comparisons / PC / PQ;
* progressive -- every named scheduler x recall at 10/25/50/100% of a
  comparison budget and the AUC of the recall curve, with the lookahead
  ablation of progressive sorted neighbourhood and the influence ablation
  of cost--benefit scheduling;
* iterative -- R-Swoosh vs the naive fixpoint, collective vs attribute-only
  ER, and iterative vs independent block processing.

Every number is a deterministic function of the seeds below, so the output
is frozen in ``tests/fixtures/paper_tables.txt`` and
``tests/test_paper_tables.py`` regenerates and compares it.  Run::

    python benchmarks/paper_tables.py

After a deliberate change of a result, refresh the fixture with::

    python benchmarks/paper_tables.py > tests/fixtures/paper_tables.txt

and paste it over the tables the README quotes.
"""

from __future__ import annotations

import sys
from pathlib import Path
from typing import Dict, List, Tuple

if __name__ == "__main__":  # run as a script: import the program from this checkout
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.blocking import BlockFiltering, BlockPurging, TokenBlocking  # noqa: E402
# the workflow's own factories: a named scheme is configured as the workflow runs it
from repro.core.workflow import (  # noqa: E402
    _BLOCKING_FACTORIES,
    _SCHEDULER_FACTORIES,
    BLOCKING_SCHEMES,
    SCHEDULERS,
)
from repro.datamodel.pairs import Comparison  # noqa: E402
from repro.datasets import (  # noqa: E402
    CorruptionConfig,
    DatasetConfig,
    generate_bibliographic_dataset,
    generate_clean_clean_task,
    generate_dirty_dataset,
)
from repro.evaluation import evaluate_blocks, evaluate_comparisons, evaluate_matches  # noqa: E402
from repro.evaluation.report import render_table  # noqa: E402
from repro.iterative import (  # noqa: E402
    AttributeOnlyER,
    CollectiveER,
    IndependentBlockProcessing,
    IterativeBlocking,
    NaivePairwiseER,
    RSwoosh,
)
from repro.matching import OracleMatcher, ProfileSimilarityMatcher  # noqa: E402
from repro.metablocking import MetaBlocking  # noqa: E402
from repro.metablocking.pruning import PRUNING_SCHEMES  # noqa: E402
from repro.metablocking.weighting import WEIGHTING_SCHEMES  # noqa: E402
from repro.progressive import (  # noqa: E402
    CostBenefitScheduler,
    SortedListScheduler,
    run_progressive,
)
from repro.text.similarity import jaccard_similarity  # noqa: E402
from repro.text.tokenize import tokenize  # noqa: E402

Rows = List[Dict[str, object]]

#: Schedulers that order weighted comparisons; the others read the blocks.
WEIGHTED_SCHEDULERS = ("weight_order", "cost_benefit")

#: Comparisons every scheduler of the progressive table may execute.
PROGRESSIVE_BUDGET = 2000


def _cleaned(blocks):
    return BlockFiltering(0.8).process(BlockPurging().process(blocks))


def _block_quality(blocks, truth, data, prefix=""):
    quality = evaluate_blocks(blocks, truth, data)
    return {
        f"{prefix}blocks": len(blocks),
        f"{prefix}comparisons": quality.num_comparisons,
        f"{prefix}PC": quality.pair_completeness,
        f"{prefix}PQ": quality.pairs_quality,
        f"{prefix}RR": quality.reduction_ratio,
    }


def blocking_rows(data, truth) -> Rows:
    """Every named scheme, raw and after purging + filtering."""
    rows = []
    for name in BLOCKING_SCHEMES:
        raw = _BLOCKING_FACTORIES[name]().build(data)
        rows.append(
            {
                "scheme": name,
                **_block_quality(raw, truth, data),
                **_block_quality(_cleaned(raw), truth, data, prefix="cleaned "),
            }
        )
    return rows


def cleaning_ablation_rows(data, truth) -> Rows:
    """Block purging on/off x block-filtering ratio, on token blocks."""
    raw = TokenBlocking().build(data)
    rows = []
    for purging in (False, True):
        purged = BlockPurging().process(raw) if purging else raw
        for ratio in (1.0, 0.8, 0.6, 0.4):
            blocks = BlockFiltering(ratio).process(purged) if ratio < 1.0 else purged
            quality = evaluate_blocks(blocks, truth, data)
            rows.append(
                {
                    "purging": "on" if purging else "off",
                    "filtering ratio": ratio,
                    "comparisons": quality.num_comparisons,
                    "PC": quality.pair_completeness,
                    "PQ": quality.pairs_quality,
                    "RR": quality.reduction_ratio,
                }
            )
    return rows


def metablocking_rows(blocks, truth, data) -> Rows:
    """Every weighting x pruning scheme on cleaned token blocks."""
    source = evaluate_blocks(blocks, truth, data)
    rows = [
        {
            "weighting": "(input blocks)",
            "pruning": "-",
            "retained": source.num_comparisons,
            "retained share": 1.0,
            "PC": source.pair_completeness,
            "PQ": source.pairs_quality,
        }
    ]
    for weighting in WEIGHTING_SCHEMES:
        for pruning in PRUNING_SCHEMES:
            retained = MetaBlocking(weighting, pruning).weighted_columns(blocks)
            quality = evaluate_comparisons(retained, truth, data)
            rows.append(
                {
                    "weighting": weighting,
                    "pruning": pruning,
                    "retained": quality.num_comparisons,
                    "retained share": quality.num_comparisons / source.num_comparisons,
                    "PC": quality.pair_completeness,
                    "PQ": quality.pairs_quality,
                }
            )
    return rows


def _recall_row(name, result, budget) -> Dict[str, object]:
    curve = result.curve
    return {
        "scheduler": name,
        "comparisons": result.comparisons_executed,
        "matches found": result.true_matches_found,
        "recall@10%": curve.recall_at(budget // 10),
        "recall@25%": curve.recall_at(budget // 4),
        "recall@50%": curve.recall_at(budget // 2),
        "recall@100%": curve.final_recall(),
        "AUC": curve.auc(),
    }


def progressive_rows(blocks, truth, data, budget) -> Rows:
    """Every named scheduler under one budget, plus PSNM without lookahead:
    the plain incrementally-widening sorted list over every pair."""
    weighted = MetaBlocking("ARCS", "CNP").weighted_comparisons(blocks)
    schedulers = [(name, _SCHEDULER_FACTORIES[name]()) for name in SCHEDULERS]
    schedulers.append(("psnm (no lookahead)", SortedListScheduler(restrict_to_candidates=False)))
    rows = []
    for name, scheduler in schedulers:
        candidates = weighted if name in WEIGHTED_SCHEDULERS else blocks
        result = run_progressive(
            scheduler, OracleMatcher(truth), data, candidates, budget=budget, ground_truth=truth
        )
        rows.append(_recall_row(name, result, budget))
    return rows


def influence_rows(dataset) -> Rows:
    """Cost--benefit scheduling on cheap, imperfect likelihood estimates.

    The estimate of a pair is the Jaccard similarity of the two
    descriptions' first values only; the influence weight sets how far a
    confirmed match raises the benefit of the pairs sharing a description.
    """
    collection, truth = dataset.collection, dataset.ground_truth
    blocks = _cleaned(TokenBlocking().build(collection))
    first_values = {}
    for description in collection:
        values = description.values()
        first_values[description.identifier] = tokenize(values[0] if values else "")
    candidates = [
        Comparison(a, b, weight=jaccard_similarity(first_values[a], first_values[b]))
        for a, b in (c.pair for c in MetaBlocking("CBS", "WNP").weighted_comparisons(blocks))
    ]
    settings = (("static (no updates)", 0.0), ("influence 0.5", 0.5), ("influence 1.0", 1.0))
    rows = []
    for budget in (250, 500, 1000):
        for name, influence in settings:
            result = run_progressive(
                CostBenefitScheduler(window_size=25, influence_weight=influence),
                OracleMatcher(truth),
                collection,
                candidates,
                budget=budget,
                ground_truth=truth,
            )
            rows.append(
                {
                    "budget": budget,
                    "scheduler": name,
                    "matches found": result.true_matches_found,
                    "recall": result.recall,
                    "AUC": result.auc,
                }
            )
    return rows


def swoosh_rows(sizes) -> Rows:
    """Comparisons R-Swoosh and the naive fixpoint need for one partition."""
    rows = []
    for size in sizes:
        dataset = generate_dirty_dataset(
            DatasetConfig(num_entities=size, duplicates_per_entity=2.0, seed=300 + size)
        )
        collection, truth = dataset.collection, dataset.ground_truth
        swoosh = RSwoosh(OracleMatcher(truth)).resolve(collection)
        naive = NaivePairwiseER(OracleMatcher(truth)).resolve(collection)
        rows.append(
            {
                "descriptions": len(collection),
                "true matches": truth.num_matches(),
                "R-Swoosh comparisons": swoosh.comparisons_executed,
                "naive comparisons": naive.comparisons_executed,
                "saving factor": naive.comparisons_executed / swoosh.comparisons_executed,
                "same partition": set(map(frozenset, swoosh.clusters))
                == set(map(frozenset, naive.clusters)),
                "R-Swoosh recall": evaluate_matches(swoosh.matched_pairs(), truth).recall,
            }
        )
    return rows


def collective_rows(dataset) -> Rows:
    """Collective vs attribute-only ER on a publications + authors KB."""
    collection, truth = dataset.collection, dataset.ground_truth
    rows = []
    for threshold in (0.5, 0.6, 0.7):
        for method, resolver in (
            ("attribute-only", AttributeOnlyER(match_threshold=threshold)),
            (
                "collective",
                CollectiveER(
                    match_threshold=threshold, relationship_weight=0.4, candidate_threshold=0.05
                ),
            ),
        ):
            result = resolver.resolve(collection)
            quality = evaluate_matches(result.matched_pairs(), truth)
            rows.append(
                {
                    "threshold": threshold,
                    "method": method,
                    "comparisons": result.comparisons_executed,
                    "precision": quality.precision,
                    "recall": quality.recall,
                    "f1": quality.f1,
                    "rescues": result.relational_rescues,
                }
            )
    return rows


def iterative_blocking_rows(dataset) -> Rows:
    """Iterative blocking vs processing every block in isolation."""
    collection, truth = dataset.collection, dataset.ground_truth
    blocks = BlockPurging().process(TokenBlocking().build(collection))
    rows = []
    for matcher_name, matcher in (
        ("oracle", lambda: OracleMatcher(truth)),
        # the overlap coefficient barely moves when a merge grows the token union
        ("overlap 0.7", lambda: ProfileSimilarityMatcher(threshold=0.7, similarity_name="overlap")),
    ):
        for method, resolver in (
            ("independent blocks", IndependentBlockProcessing),
            ("iterative blocking", IterativeBlocking),
        ):
            result = resolver(matcher()).resolve(collection, blocks)
            quality = evaluate_matches(result.matched_pairs(), truth)
            rows.append(
                {
                    "matcher": matcher_name,
                    "method": method,
                    "comparisons": result.comparisons_executed,
                    "merges": result.merges,
                    "precision": quality.precision,
                    "recall": quality.recall,
                    "f1": quality.f1,
                }
            )
    return rows


def build_tables() -> Dict[str, Tuple[str, Rows]]:
    """``name -> (title, rows)`` of every table, in print order."""
    dirty = generate_dirty_dataset(
        DatasetConfig(num_entities=300, duplicates_per_entity=1.2, domain="person", seed=101)
    )
    clean_clean = generate_clean_clean_task(
        DatasetConfig(
            num_entities=400,
            domain="person",
            noise=CorruptionConfig.somehow_similar(),
            missing_in_right=0.25,
            seed=102,
        )
    )
    collection, truth = dirty.collection, dirty.ground_truth
    task, links = clean_clean.task, clean_clean.ground_truth
    cleaned = _cleaned(TokenBlocking().build(collection))
    clustered = generate_dirty_dataset(
        DatasetConfig(num_entities=40, duplicates_per_entity=2.5, domain="person", seed=103)
    )
    noisy_clustered = generate_dirty_dataset(
        DatasetConfig(
            num_entities=150,
            duplicates_per_entity=2.5,
            domain="person",
            noise=CorruptionConfig.somehow_similar(),
            seed=105,
        )
    )
    bibliographic = generate_bibliographic_dataset(
        num_authors=10, num_publications=30, duplicates_per_publication=1.0, ambiguity=0.5, seed=104
    )
    dirty_input = f"{len(collection)} descriptions, {truth.num_matches()} true matches"
    return {
        "blocking_dirty": (
            f"blocking schemes on a dirty collection ({dirty_input})",
            blocking_rows(collection, truth),
        ),
        "blocking_clean_clean": (
            f"blocking schemes across two heterogeneous KBs ({len(task.left)} + "
            f"{len(task.right)} descriptions, {links.num_matches()} true links)",
            blocking_rows(task, links),
        ),
        "block_cleaning": (
            f"block purging x filtering ratio on token blocks ({dirty_input})",
            cleaning_ablation_rows(collection, truth),
        ),
        "metablocking": (
            f"weighting x pruning schemes on cleaned token blocks ({dirty_input})",
            metablocking_rows(cleaned, truth, collection),
        ),
        "progressive": (
            f"recall under a budget of {PROGRESSIVE_BUDGET} comparisons, oracle matcher "
            f"({dirty_input})",
            progressive_rows(cleaned, truth, collection, PROGRESSIVE_BUDGET),
        ),
        "influence": (
            f"cost-benefit scheduling with imperfect estimates ({len(noisy_clustered.collection)} "
            f"descriptions, {noisy_clustered.ground_truth.num_matches()} true matches)",
            influence_rows(noisy_clustered),
        ),
        "swoosh": (
            "merging-based ER with an oracle matcher: comparisons to reach the fixpoint",
            swoosh_rows((25, 50, 75)),
        ),
        "collective": (
            f"collective vs attribute-only ER on a publications + authors KB "
            f"({len(bibliographic.collection)} descriptions, "
            f"{bibliographic.ground_truth.num_matches()} true matches)",
            collective_rows(bibliographic),
        ),
        "iterative_blocking": (
            f"iterative blocking vs independent block processing "
            f"({len(clustered.collection)} descriptions, "
            f"{clustered.ground_truth.num_matches()} true matches)",
            iterative_blocking_rows(clustered),
        ),
    }


def render(tables: Dict[str, Tuple[str, Rows]]) -> str:
    """The tables as text, without the trailing blanks of the padded last column."""
    text = "\n\n".join(
        render_table(rows, title=f"[{name}] {title}") for name, (title, rows) in tables.items()
    )
    return "".join(line.rstrip() + "\n" for line in text.splitlines())


if __name__ == "__main__":
    sys.stdout.write(render(build_tables()))
