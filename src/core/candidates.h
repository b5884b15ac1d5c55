#pragma once

#include <vector>

#include "core/options.h"
#include "mining/category_function.h"
#include "rulegraph/rule_graph.h"
#include "tkg/graph.h"
#include "util/containers.h"
#include "util/thread_pool.h"

namespace anot {

/// \brief A candidate's assertion facts regrouped by timestamp (CSR
/// layout, ascending timestamps).
///
/// Cached once per candidate by the builder so each greedy-selection
/// sweep walks a flat, timestamp-sorted array instead of rebuilding a
/// per-candidate hash map, and the sorted group order makes every
/// cost-delta summation deterministic.
struct DeltaHistogram {
  std::vector<Timestamp> times;    // unique, ascending
  std::vector<uint32_t> offsets;   // times.size() + 1 offsets into facts
  std::vector<FactId> facts;       // grouped by time; input order within

  bool empty() const { return times.empty(); }
  size_t num_times() const { return times.size(); }
};

/// Regroups `fact_ids` by their start timestamp in `graph`. Depends only
/// on the id list and the graph, so it can be filled by any shard of the
/// parallel costing pass without affecting determinism.
DeltaHistogram BuildDeltaHistogram(const TemporalKnowledgeGraph& graph,
                                   const std::vector<FactId>& fact_ids);

/// \brief A candidate atomic rule with its correct assertions (§4.3.2).
struct RuleCandidate {
  AtomicRule rule;
  /// Facts this rule describes (A_v).
  std::vector<FactId> assertions;
  /// Model + assertion bits (Eq. 6, priced from `assertions`) and the
  /// per-timestamp assertion histogram, filled by the builder.
  double model_bits = 0.0;
  double assertion_bits = 0.0;
  DeltaHistogram by_time;
};

/// \brief A candidate rule edge with its assertions and timespans.
///
/// Each assertion is anchored on its *tail fact*: a tail fact is counted
/// at most once per edge (paired with its most recent head instantiation),
/// which bounds |A_e| <= |A_tail| and keeps Eq. 7 affordable.
///
/// Assertion encoding (Eq. 7 realization): given the edge and the TKG, the
/// head partner is *determined* by the instantiation procedure (most
/// recent matching fact), so the only residual information per assertion
/// is its occurrence timespan. We charge a prefix code over timespans
/// bucketed at the tolerance L: edges with consistent timing are cheap to
/// describe and win selection; incidental co-occurrences with scattered
/// timespans stay expensive.
struct EdgeCandidate {
  RuleEdgeKind kind = RuleEdgeKind::kChain;
  uint32_t head = 0;  // indexes into the RuleCandidate vector
  uint32_t mid = 0;   // unused for chain edges
  uint32_t tail = 0;
  std::vector<FactId> tail_facts;
  std::vector<Timestamp> timespans;  // parallel to tail_facts
  /// Model + assertion bits (Eq. 7, priced from `timespans`) and the
  /// per-timestamp tail-fact histogram, filled by the builder.
  double model_bits = 0.0;
  double assertion_bits = 0.0;
  DeltaHistogram by_time;

  size_t support() const { return tail_facts.size(); }
};

/// \brief Candidate pools generated from the offline TKG.
struct CandidatePool {
  std::vector<RuleCandidate> rules;
  std::vector<EdgeCandidate> edges;
  /// rule -> index in `rules`.
  dense_map<AtomicRule, uint32_t, AtomicRuleHash> rule_index;
};

/// \brief Generates candidate atomic rules and rule edges (§4.3.2).
///
/// Atomic rules: every (c_s, r, c_o) with c_s ∈ C(s), c_o ∈ C(o) observed
/// on some fact. Chain edges: ordered relation pairs within each entity
/// pair's interaction sequence (bounded lookback). Triadic edges: closures
/// (s,r_m,p), (h,r_n,p) co-occurring within L followed by (s,r_p,h).
///
/// Parallelism: the rules phase is one serial scan over the facts in id
/// order, so rules appear in first-occurrence order with their assertions
/// in fact order. Every edge endpoint is the rule of some fact, so the edge
/// phases only look rules up in that pool, which stays frozen while they
/// run. Each edge phase partitions its scan domain (pair sequences or
/// facts) into shards whose boundaries depend only on the data size; a
/// shard collects edges alone, and the shards are appended to the pool in
/// shard-index order. First-occurrence order over the shard concatenation
/// equals the sequential scan order, and each edge's assertion list is the
/// concatenation of its shards' lists, i.e. the sequential scan's list. The
/// builder prices code lengths from those lists in order, so the pool and
/// its costs are bit-identical for every thread count (including 1).
class CandidateGenerator {
 public:
  CandidateGenerator(const TemporalKnowledgeGraph& graph,
                     const CategoryFunction& categories,
                     const DetectorOptions& options,
                     size_t num_threads = 1);

  /// Runs generation. Edges beyond options.max_candidate_edges are dropped
  /// lowest-support-first (deterministically).
  CandidatePool Generate() const;

  /// Same, on a caller-owned pool (nullptr = serial). Lets the builder
  /// reuse one worker pool across generation and candidate costing.
  CandidatePool Generate(ThreadPool* workers) const;

 private:
  void GenerateRules(CandidatePool* pool) const;
  // `edge_index` maps the keys of the pool's edges to their positions.
  void GenerateChainEdges(CandidatePool* pool,
                          dense_map<uint64_t, uint32_t>* edge_index,
                          ThreadPool* workers) const;
  void GenerateTriadicEdges(CandidatePool* pool,
                            dense_map<uint64_t, uint32_t>* edge_index,
                            ThreadPool* workers) const;

  // anot-own: stack-scoped generation pass owned by RuleGraphBuilder's
  // Build() frame — the referenced graph/categories/options outlive that
  // whole pipeline call; generators are never stored or moved.
  const TemporalKnowledgeGraph& graph_;
  // anot-own: same Build()-frame contract as graph_.
  const CategoryFunction& categories_;
  // anot-own: same Build()-frame contract as graph_.
  const DetectorOptions& options_;
  size_t num_threads_ = 1;
};

}  // namespace anot
