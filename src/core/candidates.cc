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

/// Private accumulator of one shard of a generation phase.
///
/// Rule indices live in a *combined* space: indices below `base` refer to
/// the frozen global pool, indices at or above it to `rules` (offset by
/// `base`). Edge endpoints are stored in combined space and remapped to
/// final global indices at merge time.
struct ShardPool {
  uint32_t base = 0;  // global pool size when the phase started
  std::vector<RuleCandidate> rules;
  dense_map<AtomicRule, uint32_t, AtomicRuleHash> rule_index;
  std::vector<EdgeCandidate> edges;
  dense_map<uint64_t, uint32_t> edge_index;
};

/// Combined-space EnsureRule: resolves against the frozen global pool
/// first, then the shard's private additions.
uint32_t EnsureShardRule(const CandidatePool& global, ShardPool* shard,
                         const AtomicRule& rule) {
  auto git = global.rule_index.find(rule);
  if (git != global.rule_index.end()) return git->second;
  const uint32_t next =
      shard->base + static_cast<uint32_t>(shard->rules.size());
  auto [it, inserted] = shard->rule_index.emplace(rule, next);
  if (inserted) {
    RuleCandidate candidate;
    candidate.rule = rule;
    shard->rules.push_back(std::move(candidate));
  }
  return it->second;
}

/// Records one edge assertion in the shard, creating the edge on first
/// sight. Endpoints are combined-space indices.
void AddShardEdgeAssertion(ShardPool* shard, RuleEdgeKind kind, uint32_t head,
                           uint32_t mid, uint32_t tail, FactId tail_fact,
                           Timestamp span) {
  const uint64_t key = EdgeCandidateKey(kind, head, mid, tail);
  auto [it, inserted] =
      shard->edge_index.emplace(key, static_cast<uint32_t>(shard->edges.size()));
  if (inserted) {
    EdgeCandidate e;
    e.kind = kind;
    e.head = head;
    e.mid = mid;
    e.tail = tail;
    shard->edges.push_back(std::move(e));
  }
  EdgeCandidate& e = shard->edges[it->second];
  e.tail_facts.push_back(tail_fact);
  e.timespans.push_back(span);
}

uint32_t RemapRuleIndex(uint32_t idx, uint32_t base,
                        const std::vector<uint32_t>& to_global) {
  if (idx == kInvalidId || idx < base) return idx;
  return to_global[idx - base];
}

/// Folds one shard's rules into the global pool (shard-index order across
/// shards ⇒ first-occurrence order equals the sequential scan) and fills
/// the combined-space → global translation for the shard's additions.
void MergeShardRules(ShardPool* shard, CandidatePool* pool,
                     std::vector<uint32_t>* to_global) {
  to_global->resize(shard->rules.size());
  for (size_t i = 0; i < shard->rules.size(); ++i) {
    RuleCandidate& local = shard->rules[i];
    auto it = pool->rule_index.find(local.rule);
    uint32_t global_idx;
    if (it == pool->rule_index.end()) {
      global_idx = static_cast<uint32_t>(pool->rules.size());
      pool->rule_index.emplace(local.rule, global_idx);
      pool->rules.push_back(std::move(local));
    } else {
      global_idx = it->second;
      RuleCandidate& dst = pool->rules[global_idx];
      dst.assertions.insert(dst.assertions.end(), local.assertions.begin(),
                            local.assertions.end());
    }
    (*to_global)[i] = global_idx;
  }
}

/// Folds one shard's edges into the phase-global edge pool, remapping
/// endpoints to final rule indices.
void MergeShardEdges(ShardPool* shard, const std::vector<uint32_t>& to_global,
                     CandidatePool* pool,
                     dense_map<uint64_t, uint32_t>* edge_index) {
  for (EdgeCandidate& local : shard->edges) {
    local.head = RemapRuleIndex(local.head, shard->base, to_global);
    local.mid = RemapRuleIndex(local.mid, shard->base, to_global);
    local.tail = RemapRuleIndex(local.tail, shard->base, to_global);
    const uint64_t key =
        EdgeCandidateKey(local.kind, local.head, local.mid, local.tail);
    auto [it, inserted] =
        edge_index->emplace(key, static_cast<uint32_t>(pool->edges.size()));
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

void CandidateGenerator::GenerateRules(CandidatePool* pool,
                                       ThreadPool* workers) const {
  const size_t n = graph_.num_facts();
  const size_t num_shards = DeterministicShardCount(n);
  std::vector<ShardPool> shards(num_shards);
  for (ShardPool& s : shards) {
    s.base = static_cast<uint32_t>(pool->rules.size());
  }

  ParallelForShards(workers, n, num_shards,
                    [&](size_t shard_idx, size_t begin, size_t end) {
    ShardPool& shard = shards[shard_idx];
    for (FactId id = static_cast<FactId>(begin);
         id < static_cast<FactId>(end); ++id) {
      const Fact& f = graph_.fact(id);
      for (CategoryId cs : categories_.Categories(f.subject)) {
        for (CategoryId co : categories_.Categories(f.object)) {
          AtomicRule rule{cs, f.relation, co};
          const uint32_t idx = EnsureShardRule(*pool, &shard, rule);
          RuleCandidate& c = shard.rules[idx - shard.base];
          c.assertions.push_back(id);
        }
      }
    }
  });

  for (ShardPool& shard : shards) {
    std::vector<uint32_t> to_global;
    MergeShardRules(&shard, pool, &to_global);
  }
}

void CandidateGenerator::GenerateChainEdges(CandidatePool* pool,
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

  const size_t num_shards = DeterministicShardCount(pair_keys.size());
  std::vector<ShardPool> shards(num_shards);
  for (ShardPool& s : shards) {
    s.base = static_cast<uint32_t>(pool->rules.size());
  }

  ParallelForShards(workers, pair_keys.size(), num_shards,
                    [&](size_t shard_idx, size_t begin, size_t end) {
    ShardPool& shard = shards[shard_idx];
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
              AtomicRule head_rule{cs, head_fact.relation, co};
              AtomicRule tail_rule{cs, tail_fact.relation, co};
              const uint32_t head_idx =
                  EnsureShardRule(*pool, &shard, head_rule);
              const uint32_t tail_idx =
                  EnsureShardRule(*pool, &shard, tail_rule);
              AddShardEdgeAssertion(&shard, RuleEdgeKind::kChain, head_idx,
                                    kInvalidId, tail_idx, seq[n], span);
            }
          }
        }
      }
    }
  });

  dense_map<uint64_t, uint32_t> edge_index;
  edge_index.reserve(pool->edges.size());
  for (uint32_t i = 0; i < pool->edges.size(); ++i) {
    const EdgeCandidate& e = pool->edges[i];
    edge_index.emplace(EdgeCandidateKey(e.kind, e.head, e.mid, e.tail), i);
  }
  for (ShardPool& shard : shards) {
    std::vector<uint32_t> to_global;
    MergeShardRules(&shard, pool, &to_global);
    MergeShardEdges(&shard, to_global, pool, &edge_index);
  }
}

void CandidateGenerator::GenerateTriadicEdges(CandidatePool* pool,
                                              ThreadPool* workers) const {
  const Timestamp window = options_.timespan_tolerance;
  const size_t n = graph_.num_facts();
  const size_t num_shards = DeterministicShardCount(n);
  std::vector<ShardPool> shards(num_shards);
  for (ShardPool& s : shards) {
    s.base = static_cast<uint32_t>(pool->rules.size());
  }

  ParallelForShards(workers, n, num_shards,
                    [&](size_t shard_idx, size_t begin, size_t end) {
    ShardPool& shard = shards[shard_idx];
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
              AtomicRule head_rule{cs, g1.relation, cp};
              AtomicRule mid_rule{ch, g2.relation, cp};
              AtomicRule tail_rule{cs, f.relation, ch};
              const uint32_t head_idx =
                  EnsureShardRule(*pool, &shard, head_rule);
              const uint32_t mid_idx =
                  EnsureShardRule(*pool, &shard, mid_rule);
              const uint32_t tail_idx =
                  EnsureShardRule(*pool, &shard, tail_rule);
              const uint64_t ekey = EdgeCandidateKey(
                  RuleEdgeKind::kTriadic, head_idx, mid_idx, tail_idx);
              // One assertion per (edge, tail fact).
              if (!local_edges.insert(ekey).second) continue;
              AddShardEdgeAssertion(&shard, RuleEdgeKind::kTriadic, head_idx,
                                    mid_idx, tail_idx, id, span);
            }
          }
        }
        ++emitted;
      }
    }
  });

  dense_map<uint64_t, uint32_t> edge_index;
  edge_index.reserve(pool->edges.size());
  for (uint32_t i = 0; i < pool->edges.size(); ++i) {
    const EdgeCandidate& e = pool->edges[i];
    edge_index.emplace(EdgeCandidateKey(e.kind, e.head, e.mid, e.tail), i);
  }
  for (ShardPool& shard : shards) {
    std::vector<uint32_t> to_global;
    MergeShardRules(&shard, pool, &to_global);
    MergeShardEdges(&shard, to_global, pool, &edge_index);
  }
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
  GenerateRules(&pool, workers);
  GenerateChainEdges(&pool, workers);
  if (options_.use_triadic) GenerateTriadicEdges(&pool, workers);

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
