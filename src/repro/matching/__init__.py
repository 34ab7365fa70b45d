"""Entity matching: deciding whether two descriptions refer to the same entity.

The matching phase consumes the comparisons proposed by blocking (possibly
re-ordered by a progressive scheduler) and declares matches.  The package
provides:

* similarity-based matchers over schema-agnostic token profiles and
  schema-aware weighted attributes (:mod:`repro.matching.matchers`);
* a batched comparison-execution engine (:mod:`repro.matching.engine`);
* a ground-truth *oracle* matcher with configurable noise and per-comparison
  cost, used by experiments that need to isolate scheduling behaviour from
  matcher quality (:mod:`repro.matching.oracle`);
* equivalence clustering of pairwise match decisions
  (:mod:`repro.matching.clustering`).

Execution paths
---------------
Like the meta-blocking stage, matching separates *what* is decided from *how*
the decisions are executed.  The matchers are the readable per-pair
formulation, but they re-derive both descriptions' token profiles on every
comparison, so an entity appearing in *K* candidate pairs pays its
tokenisation and TF-IDF weighting cost *K* times.
:class:`~repro.matching.engine.MatchingEngine` instead reads every
description's profile off a :class:`~repro.core.context.PipelineContext`
(the caller's when it owns the data, else a private one over the data)
through a columnar :class:`~repro.text.profile_store.ProfileStore` --
interned integer token ids, sorted id arrays and TF-IDF weight columns with
their norms -- and decides whole columns of ordinal pairs with one NumPy
kernel over it (an exact per-pair body refines the pairs at the threshold,
so decisions are bit-identical).

The per-pair matchers remain the *oracle*: the equivalence suite
(``tests/test_matching_equivalence.py``) pins the engine to bit-identical
decisions against ``matcher.decide_all``, and the engine runs the matcher
itself whenever it cannot replicate it -- :class:`~repro.matching.matchers.RuleBasedMatcher`,
:class:`~repro.matching.matchers.AttributeWeightedMatcher`, custom
:class:`~repro.matching.matchers.Matcher` implementations and
``ProfileSimilarityMatcher`` *subclasses* (whose overridden similarity the
columnar path cannot see).  Which path runs therefore never changes a
workflow's output, only its speed.

The update/iterate phase of :class:`~repro.core.workflow.ERWorkflow` uses
the engine one-vs-many:
:meth:`~repro.matching.engine.MatchingEngine.score_against` scores one
transient merged description against candidates named by the shared
context's *ordinals* -- the merged profile is built by the store and not
kept, the rows holding its tokens come from the transpose of the store's
profile CSR, and nothing per candidate is an object.  Thresholding the scores gives the
per-pair oracle's decisions; what makes the phase's *output* identical too
is its order rule:
candidates are visited in identifier order and the already-clustered check
runs at visit time, because a union made for an earlier candidate can absorb
a later one.

The same split closes the pipeline tail.  The progressive runner can emit
executed decisions straight into a columnar
:class:`~repro.datamodel.pairs.DecisionColumns` (ordinal ``first``/``second``
plus flat ``similarity``/``is_match`` arrays; decision objects materialise
lazily as the oracle bridge), and each clustering algorithm of
:mod:`repro.matching.clustering` has one body over those columns: integer
path-halving union--find and argsort passes, with the heaviest-first tie
order (descending similarity, ties in canonical identifier-pair order).
:class:`~repro.matching.cluster_engine.ClusteringEngine`, the workflow's
clustering stage, adds the pooled connected-components pass and otherwise
calls the algorithm's own ``cluster``; custom
:class:`~repro.matching.clustering.ClusteringAlgorithm` implementations and
subclasses that override ``cluster`` receive the columns, which materialise
decisions lazily when iterated.
"""

from repro.matching.cluster_engine import ClusteringEngine
from repro.matching.clustering import (
    CenterClustering,
    ClusteringAlgorithm,
    ConnectedComponentsClustering,
    MergeCenterClustering,
)
from repro.matching.engine import MatchingEngine
from repro.matching.matchers import (
    AttributeWeightedMatcher,
    DecisionList,
    MatchDecision,
    Matcher,
    ProfileSimilarityMatcher,
    RuleBasedMatcher,
    ThresholdRule,
)
from repro.matching.oracle import OracleMatcher

__all__ = [
    "AttributeWeightedMatcher",
    "CenterClustering",
    "ClusteringAlgorithm",
    "ClusteringEngine",
    "ConnectedComponentsClustering",
    "DecisionList",
    "MatchDecision",
    "Matcher",
    "MatchingEngine",
    "MergeCenterClustering",
    "OracleMatcher",
    "ProfileSimilarityMatcher",
    "RuleBasedMatcher",
    "ThresholdRule",
]
