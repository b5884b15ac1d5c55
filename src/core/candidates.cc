#include "core/candidates.h"

#include <algorithm>
#include <memory>

#include "util/logging.h"

namespace anot {

namespace {

uint64_t EdgeCandidateKey(RuleEdgeKind kind, uint32_t head, uint32_t mid,
                          uint32_t tail) {
  uint64_t h = internal::HashMix((static_cast<uint64_t>(head) << 32) | tail);
  h = internal::HashMix(h ^ mid);
  return internal::HashMix(
      h ^ (kind == RuleEdgeKind::kTriadic ? 0xABCDu : 0u));
}

/// Index of `rule` in the pool. An edge endpoint is always the rule of
/// some fact of the graph, so the rules phase has already added it.
uint32_t RuleIndex(const CandidatePool& pool, const AtomicRule& rule) {
  auto it = pool.rule_index.find(rule);
  ANOT_CHECK(it != pool.rule_index.end())
      << "edge endpoint is not a candidate rule";
  return it->second;
}

/// Edges found by one shard of an edge phase, in first-occurrence order.
struct EdgeShard {
  std::vector<EdgeCandidate> edges;
  dense_map<uint64_t, uint32_t> edge_index;

  /// Records one assertion of an edge, creating the edge on first sight.
  void Add(RuleEdgeKind kind, uint32_t head, uint32_t mid, uint32_t tail,
           FactId tail_fact, Timestamp span) {
    auto [it, inserted] = edge_index.emplace(
        EdgeCandidateKey(kind, head, mid, tail),
        static_cast<uint32_t>(edges.size()));
    if (inserted) {
      EdgeCandidate& e = edges.emplace_back();
      e.kind = kind;
      e.head = head;
      e.mid = mid;
      e.tail = tail;
    }
    EdgeCandidate& e = edges[it->second];
    e.tail_facts.push_back(tail_fact);
    e.timespans.push_back(span);
  }
};

/// Appends the shards' edges to the pool in shard order. An edge the pool
/// already holds gets the shard's assertions appended to its own, so every
/// assertion list is the one the sequential scan builds. `edge_index` maps
/// the pool's edge keys to their positions.
void MergeEdgeShards(std::vector<EdgeShard>* shards, CandidatePool* pool,
                     dense_map<uint64_t, uint32_t>* edge_index) {
  for (EdgeShard& shard : *shards) {
    for (EdgeCandidate& local : shard.edges) {
      auto [it, inserted] = edge_index->emplace(
          EdgeCandidateKey(local.kind, local.head, local.mid, local.tail),
          static_cast<uint32_t>(pool->edges.size()));
      if (inserted) {
        pool->edges.push_back(std::move(local));
        continue;
      }
      EdgeCandidate& dst = pool->edges[it->second];
      dst.tail_facts.insert(dst.tail_facts.end(), local.tail_facts.begin(),
                            local.tail_facts.end());
      dst.timespans.insert(dst.timespans.end(), local.timespans.begin(),
                           local.timespans.end());
    }
    shard = EdgeShard();  // release the merged shard's memory early
  }
}

}  // namespace

DeltaHistogram BuildDeltaHistogram(const TemporalKnowledgeGraph& graph,
                                   const std::vector<FactId>& fact_ids) {
  DeltaHistogram h;
  h.facts = fact_ids;
  // Stable sort: groups come out in ascending-timestamp order while facts
  // within a group keep the input order, so the histogram is a pure
  // function of (graph, fact_ids).
  std::stable_sort(h.facts.begin(), h.facts.end(),
                   [&graph](FactId a, FactId b) {
                     return graph.fact(a).time < graph.fact(b).time;
                   });
  h.times.reserve(h.facts.size());
  for (size_t i = 0; i < h.facts.size(); ++i) {
    const Timestamp t = graph.fact(h.facts[i]).time;
    if (h.times.empty() || h.times.back() != t) {
      h.times.push_back(t);
      h.offsets.push_back(static_cast<uint32_t>(i));
    }
  }
  h.offsets.push_back(static_cast<uint32_t>(h.facts.size()));
  h.times.shrink_to_fit();
  return h;
}

CandidateGenerator::CandidateGenerator(const TemporalKnowledgeGraph& graph,
                                       const CategoryFunction& categories,
                                       const DetectorOptions& options,
                                       size_t num_threads)
    : graph_(graph),
      categories_(categories),
      options_(options),
      num_threads_(ResolveNumThreads(num_threads)) {}

void CandidateGenerator::GenerateRules(CandidatePool* pool) const {
  for (FactId id = 0; id < static_cast<FactId>(graph_.num_facts()); ++id) {
    const Fact& f = graph_.fact(id);
    for (CategoryId cs : categories_.Categories(f.subject)) {
      for (CategoryId co : categories_.Categories(f.object)) {
        const AtomicRule rule{cs, f.relation, co};
        auto [it, inserted] = pool->rule_index.emplace(
            rule, static_cast<uint32_t>(pool->rules.size()));
        if (inserted) pool->rules.emplace_back().rule = rule;
        pool->rules[it->second].assertions.push_back(id);
      }
    }
  }
}

void CandidateGenerator::GenerateChainEdges(
    CandidatePool* pool, dense_map<uint64_t, uint32_t>* edge_index,
    ThreadPool* workers) const {
  // Deterministic order: sort pair keys.
  std::vector<uint64_t> pair_keys;
  pair_keys.reserve(graph_.pair_sequences().size());
  // anot-lint: ordered-ok keys are collected here and sorted below before
  // any order-dependent use (the canonical collect-then-sort rewrite)
  for (const auto& [key, seq] : graph_.pair_sequences()) {
    if (seq.size() >= 2) pair_keys.push_back(key);
  }
  std::sort(pair_keys.begin(), pair_keys.end());

  const CandidatePool& rules = *pool;  // frozen while the shards scan
  const size_t num_shards = DeterministicShardCount(pair_keys.size());
  std::vector<EdgeShard> shards(num_shards);
  ParallelForShards(workers, pair_keys.size(), num_shards,
                    [&](size_t shard_idx, size_t begin, size_t end) {
    EdgeShard& shard = shards[shard_idx];
    for (size_t k = begin; k < end; ++k) {
      const uint64_t key = pair_keys[k];
      const auto& seq = graph_.pair_sequences().at(key);
      const EntityId s = static_cast<EntityId>(key >> 32);
      const EntityId o = static_cast<EntityId>(key & 0xFFFFFFFFu);
      const auto& subject_cats = categories_.Categories(s);
      const auto& object_cats = categories_.Categories(o);
      if (subject_cats.empty() || object_cats.empty()) continue;

      for (size_t n = 1; n < seq.size(); ++n) {
        const Fact& tail_fact = graph_.fact(seq[n]);
        const Timestamp tail_time =
            AnchorTime(tail_fact, options_.tail_anchor);
        // Bounded by max_pair_lag entries, so a linear scan over inline
        // storage beats a hash probe here.
        small_vec<RelationId, 16> seen_heads;
        const size_t lookback = std::min(n, options_.max_pair_lag);
        for (size_t back = 1; back <= lookback; ++back) {
          const size_t m = n - back;
          const Fact& head_fact = graph_.fact(seq[m]);
          const Timestamp head_time =
              AnchorTime(head_fact, options_.head_anchor);
          if (head_time > tail_time) continue;
          // Most recent occurrence of each head relation only: one
          // assertion per (edge, tail fact).
          if (std::find(seen_heads.begin(), seen_heads.end(),
                        head_fact.relation) != seen_heads.end()) {
            continue;
          }
          seen_heads.push_back(head_fact.relation);
          const Timestamp span = tail_time - head_time;
          for (CategoryId cs : subject_cats) {
            for (CategoryId co : object_cats) {
              shard.Add(RuleEdgeKind::kChain,
                        RuleIndex(rules, {cs, head_fact.relation, co}),
                        kInvalidId,
                        RuleIndex(rules, {cs, tail_fact.relation, co}),
                        seq[n], span);
            }
          }
        }
      }
    }
  });
  MergeEdgeShards(&shards, pool, edge_index);
}

void CandidateGenerator::GenerateTriadicEdges(
    CandidatePool* pool, dense_map<uint64_t, uint32_t>* edge_index,
    ThreadPool* workers) const {
  const Timestamp window = options_.timespan_tolerance;
  const CandidatePool& rules = *pool;  // frozen while the shards scan
  const size_t n = graph_.num_facts();
  const size_t num_shards = DeterministicShardCount(n);
  std::vector<EdgeShard> shards(num_shards);
  ParallelForShards(workers, n, num_shards,
                    [&](size_t shard_idx, size_t begin, size_t end) {
    EdgeShard& shard = shards[shard_idx];
    for (FactId id = static_cast<FactId>(begin);
         id < static_cast<FactId>(end); ++id) {
      const Fact& f = graph_.fact(id);  // the closing fact (s, r_p, h, t)
      const EntityId s = f.subject;
      const EntityId h = f.object;
      const Timestamp t = AnchorTime(f, options_.tail_anchor);
      const auto* s_facts = graph_.FactsBySubject(s);
      if (s_facts == nullptr) continue;
      const auto& cs_list = categories_.Categories(s);
      const auto& ch_list = categories_.Categories(h);
      if (cs_list.empty() || ch_list.empty()) continue;

      // Scan s's most recent facts before t for heads (s, r_m, p, t1).
      auto upper = std::upper_bound(
          s_facts->begin(), s_facts->end(), t,
          [this](Timestamp lhs, FactId rhs) {
            return lhs < graph_.fact(rhs).time;
          });
      size_t emitted = 0;
      size_t scanned = 0;
      dense_set<uint64_t> local_edges;
      for (auto rit = std::make_reverse_iterator(upper);
           rit != s_facts->rend() &&
           scanned < options_.max_instantiation_scan;
           ++rit, ++scanned) {
        if (emitted >= 8) break;
        const FactId g1_id = *rit;
        if (g1_id == id) continue;
        const Fact& g1 = graph_.fact(g1_id);
        const Timestamp t1 = AnchorTime(g1, options_.head_anchor);
        if (t1 > t) continue;
        const EntityId p = g1.object;
        if (p == h || p == s) continue;
        // Mid fact (h, r_n, p, t2) co-occurring with g1 within the window.
        const auto* hp = graph_.FactsForPair(h, p);
        if (hp == nullptr) continue;
        FactId g2_id = kInvalidId;
        Timestamp t2_best = kNoTimestamp;
        size_t scanned2 = 0;
        for (auto it2 = hp->rbegin();
             it2 != hp->rend() && scanned2 < options_.max_instantiation_scan;
             ++it2, ++scanned2) {
          const Fact& g2 = graph_.fact(*it2);
          const Timestamp t2 = AnchorTime(g2, options_.head_anchor);
          if (t2 > t) continue;
          if (std::llabs(t2 - t1) > window) continue;
          g2_id = *it2;
          t2_best = t2;
          break;  // most recent valid mid
        }
        if (g2_id == kInvalidId) continue;
        const Fact& g2 = graph_.fact(g2_id);
        const Timestamp span = t - std::max(t1, t2_best);

        for (CategoryId cs : cs_list) {
          for (CategoryId ch : ch_list) {
            for (CategoryId cp : categories_.Categories(p)) {
              const uint32_t head_idx =
                  RuleIndex(rules, {cs, g1.relation, cp});
              const uint32_t mid_idx = RuleIndex(rules, {ch, g2.relation, cp});
              const uint32_t tail_idx = RuleIndex(rules, {cs, f.relation, ch});
              // One assertion per (edge, tail fact).
              if (!local_edges
                       .insert(EdgeCandidateKey(RuleEdgeKind::kTriadic,
                                                head_idx, mid_idx, tail_idx))
                       .second) {
                continue;
              }
              shard.Add(RuleEdgeKind::kTriadic, head_idx, mid_idx, tail_idx,
                        id, span);
            }
          }
        }
        ++emitted;
      }
    }
  });
  MergeEdgeShards(&shards, pool, edge_index);
}

CandidatePool CandidateGenerator::Generate() const {
  std::unique_ptr<ThreadPool> workers;
  if (num_threads_ > 1) {
    workers = std::make_unique<ThreadPool>(num_threads_);
  }
  return Generate(workers.get());
}

CandidatePool CandidateGenerator::Generate(ThreadPool* workers) const {
  CandidatePool pool;
  GenerateRules(&pool);
  // Edge keys include the edge kind, so one index serves both edge phases.
  dense_map<uint64_t, uint32_t> edge_index;
  GenerateChainEdges(&pool, &edge_index, workers);
  if (options_.use_triadic) {
    GenerateTriadicEdges(&pool, &edge_index, workers);
  }

  if (pool.edges.size() > options_.max_candidate_edges) {
    // Keep the highest-support edges; stable/deterministic.
    std::vector<uint32_t> order(pool.edges.size());
    for (uint32_t i = 0; i < order.size(); ++i) order[i] = i;
    std::stable_sort(order.begin(), order.end(),
                     [&](uint32_t a, uint32_t b) {
                       return pool.edges[a].support() >
                              pool.edges[b].support();
                     });
    order.resize(options_.max_candidate_edges);
    std::sort(order.begin(), order.end());
    std::vector<EdgeCandidate> kept;
    kept.reserve(order.size());
    for (uint32_t i : order) kept.push_back(std::move(pool.edges[i]));
    pool.edges = std::move(kept);
  }
  return pool;
}

}  // namespace anot
