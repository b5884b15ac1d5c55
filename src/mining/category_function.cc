#include "mining/category_function.h"

#include <algorithm>
#include <set>

#include "mining/prefixspan.h"
#include "util/logging.h"
#include "util/thread_pool.h"

namespace anot {

namespace {

const std::vector<CategoryId> kNoCategories;

/// |a ∩ b| for ascending vectors.
size_t IntersectionSize(const std::vector<uint32_t>& a,
                        const std::vector<uint32_t>& b) {
  size_t i = 0, j = 0, n = 0;
  while (i < a.size() && j < b.size()) {
    if (a[i] < b[j]) {
      ++i;
    } else if (a[i] > b[j]) {
      ++j;
    } else {
      ++n;
      ++i;
      ++j;
    }
  }
  return n;
}

std::vector<uint32_t> Union(const std::vector<uint32_t>& a,
                            const std::vector<uint32_t>& b) {
  std::vector<uint32_t> out;
  std::set_union(a.begin(), a.end(), b.begin(), b.end(),
                 std::back_inserter(out));
  return out;
}

std::vector<uint32_t> Intersection(const std::vector<uint32_t>& a,
                                   const std::vector<uint32_t>& b) {
  std::vector<uint32_t> out;
  std::set_intersection(a.begin(), a.end(), b.begin(), b.end(),
                        std::back_inserter(out));
  return out;
}

struct ComboCandidate {
  std::vector<uint32_t> tokens;
  std::vector<uint32_t> members;
};

}  // namespace

CategoryFunction CategoryFunction::Build(
    const TemporalKnowledgeGraph& graph,
    const CategoryFunctionOptions& options, ThreadPool* workers,
    const std::atomic<bool>* cancel) {
  CategoryFunction fn;
  fn.options_ = options;
  fn.entity_categories_.resize(graph.num_entities());
  const auto cancelled = [cancel] {
    return cancel != nullptr && cancel->load(std::memory_order_relaxed);
  };

  // 1. Transactions: each entity's directed relation token set. Entities
  // are independent, so the token pass shards trivially.
  std::vector<std::vector<uint32_t>> transactions(graph.num_entities());
  ParallelForShards(workers, graph.num_entities(),
                    DeterministicShardCount(graph.num_entities()),
                    [&](size_t /*shard*/, size_t begin, size_t end) {
    for (EntityId e = static_cast<EntityId>(begin);
         e < static_cast<EntityId>(end); ++e) {
      const auto& tokens = graph.RelationTokens(e);
      transactions[e].assign(tokens.begin(), tokens.end());
      std::sort(transactions[e].begin(), transactions[e].end());
    }
  });

  if (cancelled()) return fn;

  // 2. Frequent relation combinations via PrefixSpan.
  PrefixSpan::Options ps;
  ps.min_support = options.min_support;
  ps.max_length = options.max_combination_size;
  auto mined = PrefixSpan::Mine(transactions, ps);

  std::vector<ComboCandidate> combos;
  combos.reserve(mined.size());
  for (auto& m : mined) {
    combos.push_back(ComboCandidate{std::move(m.items), std::move(m.owners)});
  }

  // 3. Aggregation passes (paper §4.3.1). Only the widest-coverage
  // combinations participate: pairwise comparison is quadratic.
  std::sort(combos.begin(), combos.end(),
            [](const ComboCandidate& a, const ComboCandidate& b) {
              if (a.members.size() != b.members.size()) {
                return a.members.size() > b.members.size();
              }
              return a.tokens < b.tokens;
            });
  if (combos.size() > options.max_aggregation_candidates) {
    combos.resize(options.max_aggregation_candidates);
  }

  // Token sets already in `combos`: each combination is kept once.
  std::set<std::vector<uint32_t>> seen;
  for (const auto& c : combos) seen.insert(c.tokens);

  // Each round shards the quadratic pairwise scan over the outer index.
  // Shards only *read* the frozen combo list and `seen` set and record
  // their qualifying merge proposals in (i, j) scan order; the `seen`
  // insertion — the one piece of state the sequential loop mutates
  // mid-scan — is replayed at merge time in shard order, which equals the
  // sequential scan order because shards are contiguous i-ranges. Token
  // sets already in the pre-round `seen`, or repeated within one shard,
  // can never survive the replay, so shards filter them out up front
  // (keeps the proposal buffers at the sequential loop's O(unique token
  // sets) instead of O(qualifying pairs)). The surviving `added` list is
  // bit-identical for every worker count.
  for (size_t round = 0;
       round < options.max_aggregation_rounds && !cancelled(); ++round) {
    const size_t n = combos.size();
    const size_t num_shards = DeterministicShardCount(n);
    std::vector<std::vector<ComboCandidate>> proposals(num_shards);
    ParallelForShards(workers, n, num_shards,
                      [&](size_t shard_idx, size_t begin, size_t end) {
      auto& local = proposals[shard_idx];
      std::set<std::vector<uint32_t>> local_seen;
      auto fresh = [&](const std::vector<uint32_t>& tokens) {
        return seen.count(tokens) == 0 && local_seen.insert(tokens).second;
      };
      for (size_t i = begin; i < end; ++i) {
        for (size_t j = i + 1; j < n; ++j) {
          const auto& ci = combos[i];
          const auto& cj = combos[j];
          // Entity-based aggregation: members overlap > 90% => the union
          // of relations describes a finer shared category.
          const size_t member_overlap =
              IntersectionSize(ci.members, cj.members);
          const size_t member_min =
              std::min(ci.members.size(), cj.members.size());
          if (member_min > 0 &&
              static_cast<double>(member_overlap) /
                      static_cast<double>(member_min) >
                  options.aggregation_overlap) {
            ComboCandidate merged;
            merged.tokens = Union(ci.tokens, cj.tokens);
            merged.members = Intersection(ci.members, cj.members);
            if (!merged.members.empty() &&
                merged.members.size() >= options.min_support &&
                fresh(merged.tokens)) {
              local.push_back(std::move(merged));
            }
            continue;
          }
          // Relation-based aggregation: relation sets overlap > 90% => a
          // more general category over the member union.
          const size_t token_overlap =
              IntersectionSize(ci.tokens, cj.tokens);
          const size_t token_min =
              std::min(ci.tokens.size(), cj.tokens.size());
          if (token_min > 0 &&
              static_cast<double>(token_overlap) /
                      static_cast<double>(token_min) >
                  options.aggregation_overlap) {
            ComboCandidate merged;
            merged.tokens = Intersection(ci.tokens, cj.tokens);
            if (merged.tokens.empty()) continue;
            merged.members = Union(ci.members, cj.members);
            if (fresh(merged.tokens)) local.push_back(std::move(merged));
          }
        }
      }
    });
    std::vector<ComboCandidate> added;
    // Audited for determinism: `proposals` is a vector of per-shard
    // vectors replayed here in fixed shard order, and each shard appended
    // its candidates in deterministic pair-scan order — so first-wins
    // dedup via `seen` admits the same candidates for every thread count.
    for (auto& local : proposals) {
      for (ComboCandidate& candidate : local) {
        if (seen.insert(candidate.tokens).second) {
          added.push_back(std::move(candidate));
        }
      }
    }
    if (added.empty()) break;
    for (auto& c : added) combos.push_back(std::move(c));
    if (combos.size() > 4 * options.max_aggregation_candidates) break;
  }

  if (cancelled()) return fn;

  // 4. Selection: descending coverage, assign until each entity carries
  // up to k categories (paper: "select one by one until each entity has
  // at least k categories" — bounded by the available combinations).
  std::sort(combos.begin(), combos.end(),
            [](const ComboCandidate& a, const ComboCandidate& b) {
              if (a.members.size() != b.members.size()) {
                return a.members.size() > b.members.size();
              }
              if (a.tokens.size() != b.tokens.size()) {
                return a.tokens.size() > b.tokens.size();  // finer first
              }
              return a.tokens < b.tokens;
            });

  const size_t k = std::max<size_t>(1, options.max_categories_per_entity);
  for (auto& combo : combos) {
    if (fn.categories_.size() >= options.max_categories) break;
    // Keep only members that still need categories.
    std::vector<EntityId> takers;
    takers.reserve(combo.members.size());
    for (EntityId e : combo.members) {
      if (fn.entity_categories_[e].size() < k) takers.push_back(e);
    }
    if (takers.size() < options.min_support) continue;
    CategoryId c = fn.AddCategory(std::move(combo.tokens), takers);
    for (EntityId e : takers) fn.AssignToEntity(e, c);
  }

  // 5. Fallback: entities with no category yet get a singleton category
  // for their most frequent relation token, guaranteeing total coverage.
  for (EntityId e = 0; e < graph.num_entities(); ++e) {
    if (!fn.entity_categories_[e].empty()) continue;
    const auto& txn = transactions[e];
    if (txn.empty()) continue;  // isolated entity: stays uncategorized
    uint32_t token = txn.front();
    auto it = fn.singleton_categories_.find(token);
    CategoryId c;
    if (it != fn.singleton_categories_.end()) {
      c = it->second;
      fn.categories_[c].members.push_back(e);
      std::sort(fn.categories_[c].members.begin(),
                fn.categories_[c].members.end());
    } else {
      c = fn.AddCategory({token}, {e});
      fn.singleton_categories_[token] = c;
    }
    fn.AssignToEntity(e, c);
  }

  return fn;
}

CategoryId CategoryFunction::AddCategory(std::vector<uint32_t> tokens,
                                         std::vector<EntityId> members) {
  CategoryId id = static_cast<CategoryId>(categories_.size());
  for (uint32_t t : tokens) token_index_[t].push_back(id);
  categories_.push_back(CategoryInfo{std::move(tokens), std::move(members)});
  return id;
}

void CategoryFunction::AssignToEntity(EntityId e, CategoryId c) {
  if (e >= entity_categories_.size()) {
    entity_categories_.resize(e + 1);
  }
  auto& cats = entity_categories_[e];
  auto pos = std::lower_bound(cats.begin(), cats.end(), c);
  if (pos != cats.end() && *pos == c) return;
  cats.insert(pos, c);
}

const std::vector<CategoryId>& CategoryFunction::Categories(
    EntityId e) const {
  if (e >= entity_categories_.size()) return kNoCategories;
  return entity_categories_[e];
}

const std::vector<uint32_t>& CategoryFunction::Combination(
    CategoryId c) const {
  ANOT_CHECK(c < categories_.size());
  return categories_[c].tokens;
}

const std::vector<EntityId>& CategoryFunction::Members(CategoryId c) const {
  ANOT_CHECK(c < categories_.size());
  return categories_[c].members;
}

std::string CategoryFunction::Describe(
    CategoryId c, const TemporalKnowledgeGraph& graph) const {
  ANOT_CHECK(c < categories_.size());
  std::string out;
  for (size_t i = 0; i < categories_[c].tokens.size(); ++i) {
    if (i > 0) out += " | ";
    const uint32_t token = categories_[c].tokens[i];
    if (!IsOutToken(token)) out += "~";
    out += graph.RelationName(TokenRelation(token));
  }
  return out;
}

CategoryId CategoryFunction::UpdateEntity(
    EntityId e, uint32_t new_token, const TemporalKnowledgeGraph& graph) {
  if (e >= entity_categories_.size()) {
    entity_categories_.resize(e + 1);
  }
  // Candidate categories: combinations containing the new token whose
  // relation set intersects R(e) (Algorithm 3 line 7).
  const auto& entity_tokens = graph.RelationTokens(e);
  CategoryId best = kInvalidId;
  size_t best_members = 0;
  auto it = token_index_.find(new_token);
  if (it != token_index_.end()) {
    for (CategoryId c : it->second) {
      const auto& info = categories_[c];
      bool intersects = false;
      for (uint32_t t : info.tokens) {
        if (entity_tokens.count(t) > 0) {
          intersects = true;
          break;
        }
      }
      if (!intersects) continue;
      if (info.members.size() > best_members ||
          (info.members.size() == best_members && c < best)) {
        best = c;
        best_members = info.members.size();
      }
    }
  }
  if (best == kInvalidId) {
    // Anonymous singleton category for the new behaviour.
    auto sit = singleton_categories_.find(new_token);
    if (sit != singleton_categories_.end()) {
      best = sit->second;
    } else {
      best = AddCategory({new_token}, {});
      singleton_categories_[new_token] = best;
    }
  }
  const auto& cats = entity_categories_[e];
  if (std::binary_search(cats.begin(), cats.end(), best)) {
    return kInvalidId;  // already assigned
  }
  AssignToEntity(e, best);
  auto& members = categories_[best].members;
  auto pos = std::lower_bound(members.begin(), members.end(), e);
  if (pos == members.end() || *pos != e) members.insert(pos, e);
  return best;
}

}  // namespace anot
