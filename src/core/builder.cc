#include "core/builder.h"

#include <algorithm>
#include <cmath>
#include <memory>

#include "mdl/encoding.h"
#include "util/logging.h"
#include "util/thread_pool.h"
#include "util/timer.h"

namespace anot {

namespace {

/// Per-category occurrence counts among fact subjects/objects (for Eq. 3).
struct CategoryOccurrences {
  std::vector<double> subject;  // indexed by category id
  std::vector<double> object;
  double subject_total = 0.0;
  double object_total = 0.0;
};

CategoryOccurrences CountCategoryOccurrences(
    const TemporalKnowledgeGraph& graph, const CategoryFunction& categories) {
  CategoryOccurrences occ;
  occ.subject.assign(categories.num_categories() + 1, 0.0);
  occ.object.assign(categories.num_categories() + 1, 0.0);
  for (const Fact& f : graph.facts()) {
    for (CategoryId c : categories.Categories(f.subject)) {
      if (c < occ.subject.size()) {
        occ.subject[c] += 1.0;
        occ.subject_total += 1.0;
      }
    }
    for (CategoryId c : categories.Categories(f.object)) {
      if (c < occ.object.size()) {
        occ.object[c] += 1.0;
        occ.object_total += 1.0;
      }
    }
  }
  return occ;
}

/// Eq. 6: prefix-code bits of a rule's assertion subjects plus objects.
/// Symbols are added in assertion-list order, which fixes the
/// floating-point sum for every thread count.
double RuleAssertionBits(const TemporalKnowledgeGraph& graph,
                         const std::vector<FactId>& assertions) {
  EntropyAccumulator subjects;
  EntropyAccumulator objects;
  for (FactId id : assertions) {
    const Fact& f = graph.fact(id);
    subjects.Add(f.subject);
    objects.Add(f.object);
  }
  return subjects.TotalBits() + objects.TotalBits();
}

/// Eq. 7: prefix-code bits of an edge's timespans bucketed at the
/// tolerance L, added in list order.
double EdgeAssertionBits(const std::vector<Timestamp>& timespans,
                         Timestamp tolerance) {
  EntropyAccumulator buckets;
  const Timestamp width = std::max<Timestamp>(1, tolerance);
  for (Timestamp span : timespans) {
    buckets.Add(static_cast<uint64_t>(span / width));
  }
  return buckets.TotalBits();
}

}  // namespace

RuleGraphBuilder::RuleGraphBuilder(const TemporalKnowledgeGraph& graph,
                                   const CategoryFunction& categories,
                                   const DetectorOptions& options,
                                   size_t num_threads)
    : graph_(graph),
      categories_(categories),
      options_(options),
      num_threads_(ResolveNumThreads(num_threads)) {}

RuleGraphBuilder::Output RuleGraphBuilder::Build(
    const std::atomic<bool>* cancel) const {
  WallTimer timer;
  Output out;
  out.rule_graph = std::make_unique<RuleGraph>();
  BuildReport& report = out.report;
  report.num_categories = categories_.num_categories();
  const auto cancelled = [cancel] {
    return cancel != nullptr && cancel->load(std::memory_order_relaxed);
  };

  // One worker pool serves candidate generation and candidate costing.
  std::unique_ptr<ThreadPool> workers;
  if (num_threads_ > 1) workers = std::make_unique<ThreadPool>(num_threads_);

  CandidateGenerator generator(graph_, categories_, options_, num_threads_);
  CandidatePool pool = generator.Generate(workers.get());
  report.num_candidate_rules = pool.rules.size();
  report.num_candidate_edges = pool.edges.size();
  if (cancelled()) return out;

  // ---- Cost constants per candidate --------------------------------------
  MdlUniverse universe;
  universe.num_entities = static_cast<double>(graph_.num_entities());
  universe.num_relations = static_cast<double>(graph_.num_relations());
  universe.num_categories = static_cast<double>(categories_.num_categories());
  universe.num_facts = static_cast<double>(graph_.num_facts());
  universe.num_candidate_rules = static_cast<double>(pool.rules.size());

  const CategoryOccurrences occ =
      CountCategoryOccurrences(graph_, categories_);
  std::vector<double> relation_counts(graph_.num_relations(), 0.0);
  for (const Fact& f : graph_.facts()) relation_counts[f.relation] += 1.0;

  // Candidate costs and delta histograms are independent per candidate
  // (each task writes only its own slots), so the fill parallelizes
  // without affecting the result.
  ParallelForShards(workers.get(), pool.rules.size(),
                    DeterministicShardCount(pool.rules.size()),
                    [&](size_t /*shard*/, size_t begin, size_t end) {
    for (size_t i = begin; i < end; ++i) {
      RuleCandidate& c = pool.rules[i];
      const double n_cs = c.rule.subject_category < occ.subject.size()
                              ? occ.subject[c.rule.subject_category]
                              : 0.0;
      const double n_co = c.rule.object_category < occ.object.size()
                              ? occ.object[c.rule.object_category]
                              : 0.0;
      c.model_bits = AtomicRuleBits(universe, n_cs, occ.subject_total, n_co,
                                    occ.object_total,
                                    relation_counts[c.rule.relation]);
      c.assertion_bits = RuleAssertionBits(graph_, c.assertions);
      c.by_time = BuildDeltaHistogram(graph_, c.assertions);
    }
  });
  ParallelForShards(workers.get(), pool.edges.size(),
                    DeterministicShardCount(pool.edges.size()),
                    [&](size_t /*shard*/, size_t begin, size_t end) {
    for (size_t i = begin; i < end; ++i) {
      EdgeCandidate& e = pool.edges[i];
      e.model_bits =
          RuleEdgeBits(universe, e.kind == RuleEdgeKind::kTriadic);
      e.assertion_bits =
          EdgeAssertionBits(e.timespans, options_.timespan_tolerance);
      e.by_time = BuildDeltaHistogram(graph_, e.tail_facts);
    }
  });
  workers.reset();
  if (cancelled()) return out;

  // ---- Negative-error ledger ----------------------------------------------
  const double tier1 = universe.num_entities * universe.num_entities *
                       std::max(1.0, universe.num_relations);
  // Tier 2 prices a mapped-but-unassociated fact (its missing association
  // partner, one entity out of |E|). It must stay far below tier 1 or
  // rule admission loses its margin over the assertion-entropy cost.
  const double tier2 = std::max(2.0, universe.num_entities);
  NegativeErrorLedger ledger(std::max(tier1, 4.0), tier2);
  for (const auto& [t, ids] : graph_.by_time()) {
    ledger.SetTimestampTotal(t, static_cast<uint32_t>(ids.size()));
  }
  report.num_train_timestamps = graph_.num_timestamps();
  const double per_fact_tier1 = std::log2(std::max(tier1, 4.0));

  // ---- Ranking (Algorithm 1 lines 5-6) ------------------------------------
  auto rank_rules = [&](std::vector<uint32_t>* order) {
    order->resize(pool.rules.size());
    for (uint32_t i = 0; i < order->size(); ++i) (*order)[i] = i;
    std::sort(order->begin(), order->end(), [&](uint32_t a, uint32_t b) {
      const RuleCandidate& ra = pool.rules[a];
      const RuleCandidate& rb = pool.rules[b];
      if (options_.ranking == RankingMode::kDeltaCost) {
        const double ga =
            static_cast<double>(ra.assertions.size()) * per_fact_tier1 -
            ra.model_bits - ra.assertion_bits;
        const double gb =
            static_cast<double>(rb.assertions.size()) * per_fact_tier1 -
            rb.model_bits - rb.assertion_bits;
        if (ga != gb) return ga > gb;
      }
      if (ra.assertions.size() != rb.assertions.size()) {
        return ra.assertions.size() > rb.assertions.size();
      }
      return a > b;  // final tie-break: id (descending, per the paper)
    });
  };
  auto rank_edges = [&](std::vector<uint32_t>* order) {
    order->resize(pool.edges.size());
    for (uint32_t i = 0; i < order->size(); ++i) (*order)[i] = i;
    const double tier2_bits = std::log2(tier2);
    std::sort(order->begin(), order->end(), [&](uint32_t a, uint32_t b) {
      const EdgeCandidate& ea = pool.edges[a];
      const EdgeCandidate& eb = pool.edges[b];
      if (options_.ranking == RankingMode::kDeltaCost) {
        const double ga = static_cast<double>(ea.support()) * tier2_bits -
                          ea.model_bits - ea.assertion_bits;
        const double gb = static_cast<double>(eb.support()) * tier2_bits -
                          eb.model_bits - eb.assertion_bits;
        if (ga != gb) return ga > gb;
      }
      if (ea.support() != eb.support()) return ea.support() > eb.support();
      return a > b;
    });
  };

  // ---- Greedy selection (Algorithm 1 lines 7-12) ---------------------------
  //
  // Each pass repeats sweeps until one admits nothing. A sweep walks
  // candidates in rank order and admits those whose total cost delta is
  // negative, evaluated against the state left by all earlier admissions.
  // The cached by_time histograms make each evaluation a flat CSR walk.
  std::vector<uint8_t> fact_mapped(graph_.num_facts(), 0);
  std::vector<uint8_t> fact_associated(graph_.num_facts(), 0);
  std::vector<uint8_t> rule_selected(pool.rules.size(), 0);
  std::vector<uint8_t> edge_selected(pool.edges.size(), 0);

  double model_bits = ModelHeaderBits(universe);
  double assertion_bits = 0.0;

  using LedgerDeltas = std::vector<NegativeErrorLedger::TimestampDelta>;
  auto run_greedy = [&](const std::vector<uint32_t>& order,
                        const std::vector<uint8_t>& selected,
                        auto&& compute_delta,  // (idx, buf, delta) -> viable
                        auto&& admit) {
    LedgerDeltas buf;
    bool changed = true;
    while (changed && !cancelled()) {
      changed = false;
      for (const uint32_t idx : order) {
        if (selected[idx]) continue;
        double delta = 0.0;
        if (!compute_delta(idx, &buf, &delta) || delta >= 0.0) continue;
        // Admit (Algorithm 1 lines 10-11).
        admit(idx);
        changed = true;
      }
    }
  };

  // Each pass defines its eligibility predicate exactly once, in a
  // collect lambda that fills the timestamp-ordered delta list; pricing
  // previews it with CostDelta, admission applies it verbatim — so the
  // previewed and applied counters cannot drift apart.
  LedgerDeltas admit_buf;

  // ---- Rules pass -----------------------------------------------------------
  std::vector<uint32_t> rule_order;
  rank_rules(&rule_order);
  // Timestamp deltas for the facts this rule would newly map.
  auto collect_rule = [&](uint32_t idx, LedgerDeltas* buf) {
    const DeltaHistogram& h = pool.rules[idx].by_time;
    buf->clear();
    for (size_t k = 0; k < h.num_times(); ++k) {
      int32_t newly = 0;
      for (uint32_t j = h.offsets[k]; j < h.offsets[k + 1]; ++j) {
        newly += fact_mapped[h.facts[j]] == 0;
      }
      if (newly > 0) buf->push_back({h.times[k], {newly, 0}});
    }
    return !buf->empty();
  };
  run_greedy(
      rule_order, rule_selected,
      [&](uint32_t idx, LedgerDeltas* buf, double* delta) {
        if (!collect_rule(idx, buf)) return false;
        const RuleCandidate& c = pool.rules[idx];
        *delta = ledger.CostDelta(*buf) + c.model_bits + c.assertion_bits;
        return true;
      },
      [&](uint32_t idx) {
        const RuleCandidate& c = pool.rules[idx];
        rule_selected[idx] = 1;
        model_bits += c.model_bits;
        assertion_bits += c.assertion_bits;
        collect_rule(idx, &admit_buf);
        for (const auto& td : admit_buf) {
          ledger.Apply(td.t, td.d.mapped, td.d.associated);
        }
        for (FactId f : c.assertions) {
          if (fact_mapped[f] < 255) ++fact_mapped[f];
        }
      });

  if (cancelled()) return out;

  // ---- Edges pass -----------------------------------------------------------
  std::vector<uint32_t> edge_order;
  rank_edges(&edge_order);
  // Only mapped-but-unassociated tail facts yield savings; the tail
  // rule must be selected for the fact to be mapped at all.
  auto collect_edge = [&](uint32_t idx, LedgerDeltas* buf) {
    const DeltaHistogram& h = pool.edges[idx].by_time;
    buf->clear();
    for (size_t k = 0; k < h.num_times(); ++k) {
      int32_t newly = 0;
      for (uint32_t j = h.offsets[k]; j < h.offsets[k + 1]; ++j) {
        const FactId f = h.facts[j];
        newly += fact_mapped[f] > 0 && fact_associated[f] == 0;
      }
      if (newly > 0) buf->push_back({h.times[k], {0, newly}});
    }
    return !buf->empty();
  };
  run_greedy(
      edge_order, edge_selected,
      [&](uint32_t idx, LedgerDeltas* buf, double* delta) {
        if (!collect_edge(idx, buf)) return false;
        const EdgeCandidate& e = pool.edges[idx];
        *delta = ledger.CostDelta(*buf) + e.model_bits + e.assertion_bits;
        return true;
      },
      [&](uint32_t idx) {
        const EdgeCandidate& e = pool.edges[idx];
        edge_selected[idx] = 1;
        model_bits += e.model_bits;
        assertion_bits += e.assertion_bits;
        collect_edge(idx, &admit_buf);
        for (const auto& td : admit_buf) {
          ledger.Apply(td.t, td.d.mapped, td.d.associated);
        }
        for (FactId f : e.tail_facts) {
          if (fact_mapped[f] > 0 && fact_associated[f] < 255) {
            ++fact_associated[f];
          }
        }
      });

  if (cancelled()) return out;

  // ---- Materialize the rule graph ------------------------------------------
  RuleGraph& rg = *out.rule_graph;
  // Recurrence of a rule: fraction of its entity pairs that repeat.
  auto is_recurrent = [&](const RuleCandidate& c) {
    dense_map<uint64_t, uint32_t> pair_counts;
    for (FactId f : c.assertions) {
      const Fact& fact = graph_.fact(f);
      ++pair_counts[PairKey(fact.subject, fact.object)];
    }
    if (pair_counts.empty()) return false;
    size_t repeated = 0;
    // anot-lint: ordered-ok integer count of repeating pairs; addition of
    // size_t is associative and commutative, so hash order cannot change it
    for (const auto& [key, count] : pair_counts) repeated += (count > 1);
    return static_cast<double>(repeated) /
               static_cast<double>(pair_counts.size()) >
           0.15;
  };
  std::vector<RuleId> rule_ids(pool.rules.size(), kInvalidId);
  for (uint32_t i = 0; i < pool.rules.size(); ++i) {
    if (!rule_selected[i]) continue;
    rule_ids[i] = rg.AddRule(pool.rules[i].rule, /*static_selected=*/true);
    rg.SetSupport(rule_ids[i],
                  static_cast<uint32_t>(pool.rules[i].assertions.size()));
    rg.SetRecurrent(rule_ids[i], is_recurrent(pool.rules[i]));
  }
  auto ensure_temporal_rule = [&](uint32_t idx) -> RuleId {
    if (rule_ids[idx] != kInvalidId) return rule_ids[idx];
    rule_ids[idx] =
        rg.AddRule(pool.rules[idx].rule, /*static_selected=*/false);
    rg.SetSupport(rule_ids[idx],
                  static_cast<uint32_t>(pool.rules[idx].assertions.size()));
    rg.SetRecurrent(rule_ids[idx], is_recurrent(pool.rules[idx]));
    return rule_ids[idx];
  };
  for (uint32_t i = 0; i < pool.edges.size(); ++i) {
    if (!edge_selected[i]) continue;
    const EdgeCandidate& e = pool.edges[i];
    RuleEdge edge;
    edge.kind = e.kind;
    edge.head = ensure_temporal_rule(e.head);
    edge.mid = e.kind == RuleEdgeKind::kTriadic
                   ? ensure_temporal_rule(e.mid)
                   : kInvalidId;
    edge.tail = ensure_temporal_rule(e.tail);
    edge.timespans = e.timespans;
    edge.support = static_cast<uint32_t>(e.support());
    rg.AddEdge(edge);
  }

  // ---- Report ---------------------------------------------------------------
  size_t mapped = 0, associated = 0;
  for (FactId f = 0; f < graph_.num_facts(); ++f) {
    mapped += (fact_mapped[f] > 0);
    associated += (fact_associated[f] > 0);
  }
  report.num_rules = rg.num_static_rules();
  report.num_temporal_rules = rg.num_rules() - rg.num_static_rules();
  report.num_edges = rg.num_edges();
  if (graph_.num_facts() > 0) {
    report.explained_fraction =
        static_cast<double>(mapped) / static_cast<double>(graph_.num_facts());
    report.associated_fraction = static_cast<double>(associated) /
                                 static_cast<double>(graph_.num_facts());
  }
  report.model_bits = model_bits;
  report.assertion_bits = assertion_bits;
  report.negative_bits = ledger.total_cost();
  report.build_seconds = timer.ElapsedSeconds();
  // End-of-selection commit boundary: with ANOT_VALIDATE these catch an
  // admission that desynced the ledger, or a materialization bug, right
  // here instead of ten goldens later (no-ops otherwise).
  ledger.CheckInvariants();
  rg.CheckInvariants();
  return out;
}

}  // namespace anot
