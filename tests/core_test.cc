#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <map>
#include <numeric>
#include <tuple>

#include "anomaly/injector.h"
#include "core/anot.h"
#include "core/builder.h"
#include "core/candidates.h"
#include "core/duration.h"
#include "datagen/generator.h"
#include "tkg/split.h"

namespace anot {
namespace {

GeneratorConfig TestWorldConfig() {
  GeneratorConfig cfg;
  cfg.num_entities = 250;
  cfg.num_relations = 30;
  cfg.num_timestamps = 150;
  cfg.num_facts = 8000;
  cfg.num_categories = 6;
  cfg.num_chain_rules = 6;
  cfg.num_triadic_rules = 3;
  cfg.chain_follow_prob = 0.7;
  cfg.noise_fraction = 0.03;
  cfg.secondary_category_prob = 0.1;
  cfg.seed = 77;
  return cfg;
}

DetectorOptions TestDetectorOptions() {
  DetectorOptions opts;
  opts.category.min_support = 4;
  // Smaller than the injector's minimum time shift (0.3 x window span),
  // so genuinely shifted facts disagree with preserved timespans.
  opts.timespan_tolerance = 10;
  opts.max_recursion_steps = 2;
  return opts;
}

/// Shared expensive fixture: one synthetic world + one build.
class CoreFixture : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    gen_ = new SyntheticGenerator(TestWorldConfig());
    graph_ = gen_->Generate().release();
    split_ = new TimeSplit(SplitByTimestamps(*graph_, 0.6, 0.1));
    train_ = Subgraph(*graph_, split_->train).release();

    AnoTOptions options;
    options.detector = TestDetectorOptions();
    anot_ = new AnoT(AnoT::Build(*train_, options));
  }
  static void TearDownTestSuite() {
    delete anot_;
    delete train_;
    delete split_;
    delete graph_;
    delete gen_;
    anot_ = nullptr;
    train_ = nullptr;
    split_ = nullptr;
    graph_ = nullptr;
    gen_ = nullptr;
  }

  static SyntheticGenerator* gen_;
  static TemporalKnowledgeGraph* graph_;
  static TimeSplit* split_;
  static TemporalKnowledgeGraph* train_;
  static AnoT* anot_;
};

SyntheticGenerator* CoreFixture::gen_ = nullptr;
TemporalKnowledgeGraph* CoreFixture::graph_ = nullptr;
TimeSplit* CoreFixture::split_ = nullptr;
TemporalKnowledgeGraph* CoreFixture::train_ = nullptr;
AnoT* CoreFixture::anot_ = nullptr;

// ----------------------------------------------------------- Candidates

bool HasCategory(const CategoryFunction& categories, EntityId e,
                 CategoryId c) {
  const auto& cats = categories.Categories(e);
  return std::find(cats.begin(), cats.end(), c) != cats.end();
}

TEST_F(CoreFixture, CandidateGenerationProducesRulesAndEdges) {
  auto categories =
      CategoryFunction::Build(*train_, TestDetectorOptions().category);
  DetectorOptions opts = TestDetectorOptions();
  CandidateGenerator generator(*train_, categories, opts);
  CandidatePool pool = generator.Generate();

  EXPECT_GT(pool.rules.size(), 20u);
  EXPECT_GT(pool.edges.size(), 20u);
  // Every assertion maps back to a fact the rule actually describes:
  // same relation, and the rule's categories among the fact's entities'.
  for (const auto& c : pool.rules) {
    ASSERT_FALSE(c.assertions.empty());
    for (FactId f : c.assertions) {
      const Fact& fact = train_->fact(f);
      EXPECT_EQ(fact.relation, c.rule.relation);
      EXPECT_TRUE(
          HasCategory(categories, fact.subject, c.rule.subject_category));
      EXPECT_TRUE(
          HasCategory(categories, fact.object, c.rule.object_category));
    }
  }
  // Edge endpoints reference valid rule candidates; timespans nonnegative.
  bool saw_triadic = false;
  for (const auto& e : pool.edges) {
    EXPECT_LT(e.head, pool.rules.size());
    EXPECT_LT(e.tail, pool.rules.size());
    saw_triadic |= (e.kind == RuleEdgeKind::kTriadic);
    for (Timestamp s : e.timespans) EXPECT_GE(s, 0);
    EXPECT_EQ(e.tail_facts.size(), e.timespans.size());
  }
  EXPECT_TRUE(saw_triadic);
}

TEST_F(CoreFixture, CandidateRulesMatchFactOracle) {
  // Brute force over facts in id order x C(s) x C(o): the rules in
  // first-occurrence order, each with the facts it describes in id order.
  const DetectorOptions opts = TestDetectorOptions();
  auto categories = CategoryFunction::Build(*train_, opts.category);
  const CandidatePool pool =
      CandidateGenerator(*train_, categories, opts).Generate();

  std::vector<AtomicRule> rules;
  std::vector<std::vector<FactId>> assertions;
  std::map<std::tuple<CategoryId, RelationId, CategoryId>, size_t> index;
  for (FactId id = 0; id < static_cast<FactId>(train_->num_facts()); ++id) {
    const Fact& f = train_->fact(id);
    for (CategoryId cs : categories.Categories(f.subject)) {
      for (CategoryId co : categories.Categories(f.object)) {
        auto [it, inserted] =
            index.emplace(std::make_tuple(cs, f.relation, co), rules.size());
        if (inserted) {
          rules.push_back(AtomicRule{cs, f.relation, co});
          assertions.emplace_back();
        }
        assertions[it->second].push_back(id);
      }
    }
  }
  ASSERT_EQ(pool.rules.size(), rules.size());
  for (size_t i = 0; i < rules.size(); ++i) {
    ASSERT_TRUE(pool.rules[i].rule == rules[i]) << "rule " << i;
    ASSERT_EQ(pool.rules[i].assertions, assertions[i]) << "rule " << i;
  }

  // Every edge's tail rule describes each of its tail facts.
  ASSERT_FALSE(pool.edges.empty());
  for (size_t i = 0; i < pool.edges.size(); ++i) {
    const EdgeCandidate& e = pool.edges[i];
    ASSERT_LT(e.tail, pool.rules.size()) << "edge " << i;
    const AtomicRule& tail = pool.rules[e.tail].rule;
    for (FactId id : e.tail_facts) {
      const Fact& f = train_->fact(id);
      ASSERT_EQ(f.relation, tail.relation) << "edge " << i;
      ASSERT_TRUE(HasCategory(categories, f.subject, tail.subject_category))
          << "edge " << i;
      ASSERT_TRUE(HasCategory(categories, f.object, tail.object_category))
          << "edge " << i;
    }
  }
}

TEST_F(CoreFixture, CandidateEdgeCapRespected) {
  auto categories =
      CategoryFunction::Build(*train_, TestDetectorOptions().category);
  DetectorOptions opts = TestDetectorOptions();
  opts.max_candidate_edges = 50;
  CandidateGenerator generator(*train_, categories, opts);
  CandidatePool pool = generator.Generate();
  EXPECT_LE(pool.edges.size(), 50u);
}

// --------------------------------------------------------------- Builder

TEST_F(CoreFixture, BuildReportIsCoherent) {
  const BuildReport& report = anot_->report();
  EXPECT_GT(report.num_rules, 0u);
  EXPECT_GT(report.num_edges, 0u);
  EXPECT_GT(report.num_candidate_rules, report.num_rules);
  EXPECT_GT(report.explained_fraction, 0.5)
      << "planted schemas should make most facts mappable";
  EXPECT_LE(report.explained_fraction, 1.0);
  EXPECT_GE(report.explained_fraction, report.associated_fraction);
  EXPECT_GT(report.model_bits, 0.0);
  EXPECT_GT(report.negative_bits, 0.0);
  EXPECT_GT(report.build_seconds, 0.0);
}

TEST_F(CoreFixture, SelectionShrinksDescriptionLength) {
  // An empty model prices everything as tier-1 errors; the built model
  // must cost strictly less in total.
  const BuildReport& report = anot_->report();
  const double e = static_cast<double>(train_->num_entities());
  const double r = static_cast<double>(train_->num_relations());
  NegativeErrorLedger empty_ledger(e * e * r, e);
  for (const auto& [t, ids] : train_->by_time()) {
    empty_ledger.SetTimestampTotal(t, static_cast<uint32_t>(ids.size()));
  }
  EXPECT_LT(report.total_bits(), empty_ledger.total_cost());
}

/// n log2 n - sum_c c log2 c over a count table: the total length of the
/// optimal prefix code for the counted symbols (Eqs. 6-7).
double PrefixCodeTotalBits(const std::map<uint64_t, uint64_t>& counts) {
  double n = 0.0;
  double sum_clog2c = 0.0;
  for (const auto& [symbol, count] : counts) {
    const double c = static_cast<double>(count);
    n += c;
    sum_clog2c += c * std::log2(c);
  }
  return n > 0.0 ? n * std::log2(n) - sum_clog2c : 0.0;
}

TEST_F(CoreFixture, AssertionBitsMatchBruteForceOracle) {
  // Recomputes L(A_G) of a fresh build from scratch: for each static rule,
  // the subject and object codes over every training fact it describes;
  // for each edge, the code of its timespans bucketed at L.
  const DetectorOptions opts = TestDetectorOptions();
  auto categories = CategoryFunction::Build(*train_, opts.category);
  const RuleGraphBuilder::Output built =
      RuleGraphBuilder(*train_, categories, opts).Build();
  const RuleGraph& rg = *built.rule_graph;

  double oracle = 0.0;
  for (RuleId r = 0; r < rg.num_rules(); ++r) {
    if (!rg.static_selected(r)) continue;
    const AtomicRule rule = rg.rule(r);
    std::map<uint64_t, uint64_t> subjects;
    std::map<uint64_t, uint64_t> objects;
    for (const Fact& f : train_->facts()) {
      if (f.relation != rule.relation ||
          !HasCategory(categories, f.subject, rule.subject_category) ||
          !HasCategory(categories, f.object, rule.object_category)) {
        continue;
      }
      ++subjects[f.subject];
      ++objects[f.object];
    }
    ASSERT_FALSE(subjects.empty()) << "rule " << r;
    oracle += PrefixCodeTotalBits(subjects) + PrefixCodeTotalBits(objects);
  }
  for (RuleEdgeId e = 0; e < rg.num_edges(); ++e) {
    std::map<uint64_t, uint64_t> buckets;
    for (Timestamp span : rg.edge(e).timespans) {
      ++buckets[static_cast<uint64_t>(span / opts.timespan_tolerance)];
    }
    oracle += PrefixCodeTotalBits(buckets);
  }
  ASSERT_GT(oracle, 0.0);
  EXPECT_NEAR(built.report.assertion_bits, oracle, 1e-9 * oracle);
}

TEST_F(CoreFixture, RuleSupportsArePositive) {
  const RuleGraph& rules = anot_->rules();
  for (RuleId id = 0; id < rules.num_rules(); ++id) {
    EXPECT_GT(rules.support(id), 0u);
  }
}

TEST_F(CoreFixture, DeterministicBuild) {
  AnoTOptions options;
  options.detector = TestDetectorOptions();
  AnoT second = AnoT::Build(*train_, options);
  EXPECT_EQ(second.rules().num_rules(), anot_->rules().num_rules());
  EXPECT_EQ(second.rules().num_edges(), anot_->rules().num_edges());
  EXPECT_DOUBLE_EQ(second.report().negative_bits,
                   anot_->report().negative_bits);
}

// ------------------------------------------- parallel build determinism
//
// The parallel offline pipeline guarantees bit-identical output for every
// thread count (deterministic sharding + ordered merges; code lengths are
// priced from the merged assertion lists, in list order).
// These tests pin that contract on the datagen test world. EXPECT_EQ on
// doubles is deliberate: byte-identity, not tolerance.

void ExpectPoolsIdentical(const CandidatePool& a, const CandidatePool& b) {
  ASSERT_EQ(a.rules.size(), b.rules.size());
  for (size_t i = 0; i < a.rules.size(); ++i) {
    const RuleCandidate& ra = a.rules[i];
    const RuleCandidate& rb = b.rules[i];
    ASSERT_TRUE(ra.rule == rb.rule) << "rule " << i;
    ASSERT_EQ(ra.assertions, rb.assertions) << "rule " << i;
  }
  ASSERT_EQ(a.edges.size(), b.edges.size());
  for (size_t i = 0; i < a.edges.size(); ++i) {
    const EdgeCandidate& ea = a.edges[i];
    const EdgeCandidate& eb = b.edges[i];
    ASSERT_EQ(ea.kind, eb.kind) << "edge " << i;
    ASSERT_EQ(ea.head, eb.head) << "edge " << i;
    ASSERT_EQ(ea.mid, eb.mid) << "edge " << i;
    ASSERT_EQ(ea.tail, eb.tail) << "edge " << i;
    ASSERT_EQ(ea.tail_facts, eb.tail_facts) << "edge " << i;
    ASSERT_EQ(ea.timespans, eb.timespans) << "edge " << i;
  }
}

void ExpectRuleGraphsIdentical(const RuleGraph& a, const RuleGraph& b) {
  ASSERT_EQ(a.num_rules(), b.num_rules());
  ASSERT_EQ(a.num_static_rules(), b.num_static_rules());
  for (RuleId r = 0; r < a.num_rules(); ++r) {
    ASSERT_TRUE(a.rule(r) == b.rule(r)) << "rule " << r;
    ASSERT_EQ(a.support(r), b.support(r)) << "rule " << r;
    ASSERT_EQ(a.static_selected(r), b.static_selected(r)) << "rule " << r;
    ASSERT_EQ(a.recurrent(r), b.recurrent(r)) << "rule " << r;
  }
  ASSERT_EQ(a.num_edges(), b.num_edges());
  for (RuleEdgeId e = 0; e < a.num_edges(); ++e) {
    const RuleEdge& ea = a.edge(e);
    const RuleEdge& eb = b.edge(e);
    ASSERT_EQ(ea.kind, eb.kind) << "edge " << e;
    ASSERT_EQ(ea.head, eb.head) << "edge " << e;
    ASSERT_EQ(ea.mid, eb.mid) << "edge " << e;
    ASSERT_EQ(ea.tail, eb.tail) << "edge " << e;
    ASSERT_EQ(ea.support, eb.support) << "edge " << e;
    ASSERT_EQ(ea.timespans, eb.timespans) << "edge " << e;
  }
}

TEST_F(CoreFixture, CandidatePoolIdenticalAcrossThreadCounts) {
  auto categories =
      CategoryFunction::Build(*train_, TestDetectorOptions().category);
  DetectorOptions opts = TestDetectorOptions();
  CandidatePool serial =
      CandidateGenerator(*train_, categories, opts, /*num_threads=*/1)
          .Generate();
  CandidatePool parallel =
      CandidateGenerator(*train_, categories, opts, /*num_threads=*/8)
          .Generate();
  ExpectPoolsIdentical(serial, parallel);
}

TEST_F(CoreFixture, RuleGraphIdenticalAcrossThreadCounts) {
  AnoTOptions options;
  options.detector = TestDetectorOptions();
  options.num_threads = 1;
  AnoT serial = AnoT::Build(*train_, options);
  options.num_threads = 8;
  AnoT parallel = AnoT::Build(*train_, options);

  ExpectRuleGraphsIdentical(serial.rules(), parallel.rules());
  EXPECT_EQ(serial.report().model_bits, parallel.report().model_bits);
  EXPECT_EQ(serial.report().assertion_bits,
            parallel.report().assertion_bits);
  EXPECT_EQ(serial.report().negative_bits, parallel.report().negative_bits);
  EXPECT_EQ(serial.report().explained_fraction,
            parallel.report().explained_fraction);
  EXPECT_EQ(serial.report().associated_fraction,
            parallel.report().associated_fraction);
}

TEST_F(CoreFixture, RefreshMidStreamIdenticalAcrossThreadCounts) {
  // Refresh rebuilds the category function and the rule graph from the
  // *grown* TKG; both rebuild stages shard, so the refreshed model must
  // stay bit-identical across thread counts too.
  auto run = [&](size_t threads) {
    AnoTOptions options;
    options.detector = TestDetectorOptions();
    options.num_threads = threads;
    auto system = std::make_unique<AnoT>(AnoT::Build(*train_, options));
    size_t replayed = 0;
    for (FactId id : split_->val) {
      system->IngestValid(graph_->fact(id));
      if (++replayed >= 300) break;
    }
    system->Refresh();
    return system;
  };
  auto serial = run(1);
  auto parallel = run(8);
  EXPECT_EQ(serial->refresh_count(), parallel->refresh_count());
  EXPECT_EQ(serial->categories().num_categories(),
            parallel->categories().num_categories());
  ExpectRuleGraphsIdentical(serial->rules(), parallel->rules());
  EXPECT_EQ(serial->report().negative_bits, parallel->report().negative_bits);
}

// ---------------------------------------------------------------- Scoring

TEST_F(CoreFixture, ValidFactsScoreLowerThanConceptualAnomalies) {
  InjectorConfig icfg;
  AnomalyInjector injector(icfg);
  EvalStream stream = injector.Inject(*graph_, split_->test);

  std::vector<double> valid_scores, anomaly_scores;
  for (const auto& lf : stream.arrivals) {
    const Scores s = anot_->Score(lf.fact);
    if (lf.label == AnomalyType::kValid) {
      valid_scores.push_back(s.static_score);
    } else if (lf.label == AnomalyType::kConceptual) {
      anomaly_scores.push_back(s.static_score);
    }
  }
  ASSERT_GT(valid_scores.size(), 100u);
  ASSERT_GT(anomaly_scores.size(), 50u);
  const double valid_mean =
      std::accumulate(valid_scores.begin(), valid_scores.end(), 0.0) /
      valid_scores.size();
  const double anomaly_mean =
      std::accumulate(anomaly_scores.begin(), anomaly_scores.end(), 0.0) /
      anomaly_scores.size();
  EXPECT_LT(valid_mean, anomaly_mean * 0.5)
      << "static score fails to separate conceptual errors";
}

TEST_F(CoreFixture, TimeAnomaliesRankAboveValidTemporally) {
  // Realistic online protocol: the model keeps ingesting knowledge it
  // deems valid; we then check the temporal score *ranks* time errors
  // above valid facts better than chance (PR-AUC vs base rate).
  AnoTOptions options;
  options.detector = TestDetectorOptions();
  AnoT online = AnoT::Build(*train_, options);
  for (FactId id : split_->val) online.IngestValid(graph_->fact(id));

  InjectorConfig icfg;
  AnomalyInjector injector(icfg);
  EvalStream stream = injector.Inject(*graph_, split_->test);

  std::vector<std::pair<double, int>> scored;  // (score, is_time_error)
  for (const auto& lf : stream.arrivals) {
    const Scores s = online.Score(lf.fact);
    if (lf.label == AnomalyType::kValid) online.IngestValid(lf.fact);
    if (lf.label == AnomalyType::kConceptual) continue;
    scored.push_back({s.temporal_score, lf.label == AnomalyType::kTime});
  }
  std::sort(scored.begin(), scored.end(),
            [](const auto& a, const auto& b) { return a.first > b.first; });
  double tp = 0, fp = 0, auc = 0, prev_recall = 0, total_pos = 0;
  for (const auto& [score, pos] : scored) total_pos += pos;
  ASSERT_GT(total_pos, 20);
  for (const auto& [score, pos] : scored) {
    if (pos) ++tp; else ++fp;
    auc += (tp / (tp + fp)) * (tp / total_pos - prev_recall);
    prev_recall = tp / total_pos;
  }
  const double base_rate = total_pos / static_cast<double>(scored.size());
  // Time shifts on *recurrent* facts are intrinsically hard to detect
  // (any shift lands near some plausible precursor), so the aggregate
  // lift is moderate; the chain-pattern subset separates strongly.
  EXPECT_GT(auc, 1.3 * base_rate)
      << "temporal ranking barely better than chance (AUC " << auc
      << " vs base rate " << base_rate << ")";
}

TEST_F(CoreFixture, MissingFactsHaveHigherSupportThanCorruptions) {
  InjectorConfig icfg;
  AnomalyInjector injector(icfg);
  EvalStream stream = injector.Inject(*graph_, split_->test);

  double missing_support = 0.0, corrupted_support = 0.0;
  size_t n_missing = 0, n_corrupted = 0;
  for (const auto& lf : stream.missing_candidates) {
    const Scores s = anot_->Score(lf.fact);
    if (lf.label == AnomalyType::kMissing) {
      missing_support += s.missing_support();
      ++n_missing;
    } else {
      corrupted_support += s.missing_support();
      ++n_corrupted;
    }
  }
  ASSERT_GT(n_missing, 20u);
  EXPECT_GT(missing_support / n_missing,
            corrupted_support / std::max<size_t>(1, n_corrupted))
      << "missing-error support signal inverted";
}

TEST_F(CoreFixture, UnknownEntityGetsMaximalStaticScore) {
  Fact unknown(static_cast<EntityId>(graph_->num_entities() + 5), 0,
               static_cast<EntityId>(graph_->num_entities() + 6), 10);
  const Scores s = anot_->Score(unknown);
  EXPECT_EQ(s.static_support, 0.0);
  EXPECT_GT(s.static_score, 1e6);
  EXPECT_FALSE(s.temporal_evaluated);  // λ gate
}

TEST_F(CoreFixture, LambdaGateSkipsTemporalScoring) {
  AnoTOptions options;
  options.detector = TestDetectorOptions();
  options.detector.lambda = 1e12;  // nothing clears the gate
  AnoT gated = AnoT::Build(*train_, options);
  const Fact& f = graph_->fact(split_->test.front());
  const Scores s = gated.Score(f);
  EXPECT_FALSE(s.temporal_evaluated);
  EXPECT_EQ(s.temporal_support, 0.0);
}

TEST_F(CoreFixture, EvidenceIsPopulated) {
  // A valid test fact should map to rules and usually find precursors.
  Evidence evidence;
  const Fact& f = graph_->fact(split_->test[split_->test.size() / 2]);
  const Scores s = anot_->ScoreWithEvidence(f, &evidence);
  if (s.static_support > 0) {
    EXPECT_FALSE(evidence.mapped.empty());
  }
  // Rendering never crashes and mentions the fact's subject.
  Explainer explainer = anot_->MakeExplainer();
  std::string rendered = explainer.RenderEvidence(f, evidence);
  EXPECT_NE(rendered.find(graph_->EntityName(f.subject)),
            std::string::npos);
}

TEST_F(CoreFixture, ScoreIsPureFunction) {
  const Fact& f = graph_->fact(split_->test.front());
  const Scores a = anot_->Score(f);
  const Scores b = anot_->Score(f);
  EXPECT_DOUBLE_EQ(a.static_score, b.static_score);
  EXPECT_DOUBLE_EQ(a.temporal_score, b.temporal_score);
}

// ---------------------------------------------------------------- Updater

TEST_F(CoreFixture, IngestAddsFactAndSupports) {
  AnoTOptions options;
  options.detector = TestDetectorOptions();
  AnoT local = AnoT::Build(*train_, options);
  const size_t facts_before = local.graph().num_facts();

  const Fact& f = graph_->fact(split_->test.front());
  UpdateEffects effects = local.IngestValid(f);
  EXPECT_TRUE(effects.added_fact);
  EXPECT_EQ(local.graph().num_facts(), facts_before + 1);
}

TEST_F(CoreFixture, RepeatedNewPatternBecomesRule) {
  AnoTOptions options;
  options.detector = TestDetectorOptions();
  options.updater.new_rule_min_support = 3;
  AnoT local = AnoT::Build(*train_, options);

  // A brand-new relation repeatedly used between two known categories.
  const RelationId fresh_rel =
      static_cast<RelationId>(local.graph().num_relations());
  const size_t rules_before = local.rules().num_rules();
  uint32_t new_nodes = 0;
  Timestamp t = local.graph().max_time() + 1;
  for (int i = 0; i < 8; ++i) {
    // Vary entities so this is a pattern, not a single pair.
    EntityId s = static_cast<EntityId>(2 * i);
    EntityId o = static_cast<EntityId>(2 * i + 1);
    UpdateEffects effects =
        local.IngestValid(Fact(s, fresh_rel, o, t + i));
    new_nodes += effects.new_rule_nodes;
  }
  EXPECT_GT(new_nodes, 0u) << "recurring unseen pattern never admitted";
  EXPECT_GT(local.rules().num_rules(), rules_before);
}

TEST_F(CoreFixture, IngestRecordsTimespansOnInstantiatedEdges) {
  AnoTOptions options;
  options.detector = TestDetectorOptions();
  AnoT local = AnoT::Build(*train_, options);

  // Replay real future facts; some must instantiate in-edges.
  uint32_t recorded = 0;
  size_t replayed = 0;
  for (FactId id : split_->val) {
    recorded += local.IngestValid(graph_->fact(id)).timespans_recorded;
    if (++replayed > 400) break;
  }
  EXPECT_GT(recorded, 0u);
}

TEST_F(CoreFixture, RepeatedIdenticalFactWiresChainEdges) {
  // Regression: the chain-edge scan used to skip *every* fact equal to
  // the new arrival, so a recurring identical fact (same s, r, o, t
  // re-reported) never wired chain edges when its pattern was admitted.
  // Only the just-appended instance may be skipped.
  AnoTOptions options;
  options.detector = TestDetectorOptions();
  options.updater.new_rule_min_support = 3;
  AnoT local = AnoT::Build(*train_, options);

  const RelationId fresh_rel =
      static_cast<RelationId>(local.graph().num_relations());
  const Fact dup(0, fresh_rel, 1, local.graph().max_time() + 1);
  UpdateEffects total;
  for (int i = 0; i < 3; ++i) total.Accumulate(local.IngestValid(dup));
  EXPECT_GT(total.new_rule_nodes, 0u);
  EXPECT_GT(total.new_rule_edges, 0u)
      << "distinct earlier occurrences of an identical fact are real "
         "precursors and must wire chain edges";
}

/// Hand-built world for the scorer identity-vs-equality regressions: the
/// pair (0, 10) holds one prior occurrence of the exact fact under test,
/// the rule graph one atomic rule over it with a self-loop chain edge.
struct RecurrenceWorld {
  TemporalKnowledgeGraph graph;
  CategoryFunction categories;
  RuleGraph rules;
  RuleId rule = kInvalidId;
};

void MakeRecurrenceWorld(RecurrenceWorld* w) {
  // The prior occurrence of the recurring fact, plus sibling pairs that
  // give the entities categories.
  w->graph.AddFact(Fact(0, 0, 10, 100));
  for (EntityId i = 1; i < 4; ++i) {
    w->graph.AddFact(Fact(i, 0, 10 + i, 80 + static_cast<Timestamp>(i)));
  }
  CategoryFunctionOptions copts;
  copts.min_support = 3;
  w->categories = CategoryFunction::Build(w->graph, copts);
  ASSERT_FALSE(w->categories.Categories(0).empty());
  ASSERT_FALSE(w->categories.Categories(10).empty());
  const CategoryId cs = w->categories.Categories(0).front();
  const CategoryId co = w->categories.Categories(10).front();
  w->rule = w->rules.AddRule(AtomicRule{cs, 0, co}, /*static_selected=*/true);
  w->rules.SetSupport(w->rule, 4);
  RuleEdge self_loop;
  self_loop.kind = RuleEdgeKind::kChain;
  self_loop.head = w->rule;
  self_loop.tail = w->rule;
  self_loop.timespans = {0};
  self_loop.support = 1;
  w->rules.AddEdge(self_loop);
}

TEST(ScorerRecurrenceTest, IdenticalRecurringFactCanBeItsOwnWitness) {
  // Regression: the witness scans skipped `g == fact` by *value*, so a
  // re-reported recurring fact — identical to an occurrence already in
  // the graph — could never use that distinct earlier occurrence as a
  // chain witness and was penalized as if the pattern had never been
  // seen. Witness exclusion is by id; an arrival scored before ingestion
  // excludes nothing.
  RecurrenceWorld w;
  ASSERT_NO_FATAL_FAILURE(MakeRecurrenceWorld(&w));
  DetectorOptions dopts;
  dopts.timespan_tolerance = 5;
  Scorer scorer(&w.graph, &w.categories, &w.rules, &dopts);

  const Scores s = scorer.Score(Fact(0, 0, 10, 100));
  EXPECT_GT(s.temporal_support, 0.0)
      << "the identical earlier occurrence must instantiate the self-loop";
  EXPECT_TRUE(s.associated);
  EXPECT_LT(s.temporal_score, 1.0);
}

TEST(ScorerRecurrenceTest, UpdaterTimespanScanExcludesOnlyTheNewInstance) {
  // The updater runs the same witness scan *after* the arrival has been
  // ingested: only the just-added instance may be excluded (by id), while
  // a distinct identical earlier occurrence is a real witness whose
  // timespan must be recorded — and a first occurrence must not witness
  // itself.
  RecurrenceWorld w;
  ASSERT_NO_FATAL_FAILURE(MakeRecurrenceWorld(&w));
  DetectorOptions dopts;
  dopts.timespan_tolerance = 5;
  UpdaterOptions uopts;
  Updater updater(&w.graph, &w.categories, &w.rules, &dopts, uopts);

  // Exact duplicate of the t=100 occurrence: the earlier copy witnesses.
  const UpdateEffects duplicate = updater.Ingest(Fact(0, 0, 10, 100));
  EXPECT_GT(duplicate.timespans_recorded, 0u)
      << "identical recurring fact never records timespans";

  // Fresh pair (1, 10): the newly added instance is the only fact in the
  // pair sequence and must not instantiate the self-loop edge itself.
  const UpdateEffects first = updater.Ingest(Fact(1, 0, 10, 200));
  EXPECT_EQ(first.timespans_recorded, 0u)
      << "a first occurrence must not witness itself";
}

TEST(ScorerAssociationTest, AssociatedFlagSurvivesVisitedSkip) {
  // An in-edge consumed as a *recursive* child of an earlier mapped
  // rule's walk is skipped by the visited filter when its own depth-0
  // turn comes. The association flag must still reflect its successful
  // instantiation: the scorer now records each edge's single
  // TryInstantiate outcome during the walk instead of re-instantiating
  // every in-edge in a second pass (which ignored `visited` and thereby
  // caught this case — the cheap replacement must not regress it).
  TemporalKnowledgeGraph g;
  // Token Out(0) for subjects {0,1,2,3}; objects {20..23} carry In(0).
  for (EntityId i = 0; i < 4; ++i) g.AddFact(Fact(i, 0, 20 + i, 10));
  // Token Out(1) for subjects {0,4,5,6}: low member overlap with Out(0)
  // keeps the two combinations from aggregating into one category.
  g.AddFact(Fact(0, 1, 30, 10));
  for (EntityId i = 4; i < 7; ++i) g.AddFact(Fact(i, 1, 20 + i, 10));
  // The witness: a relation-0 fact on pair (0, 10) just before the probe.
  g.AddFact(Fact(0, 0, 10, 99));

  CategoryFunctionOptions copts;
  copts.min_support = 3;
  auto categories = CategoryFunction::Build(g, copts);
  // Entity 0's two categories, keyed by their defining token.
  CategoryId ca = kInvalidId, cb = kInvalidId;
  for (CategoryId c : categories.Categories(0)) {
    const auto& tokens = categories.Combination(c);
    if (std::find(tokens.begin(), tokens.end(), OutRelationToken(0)) !=
        tokens.end()) {
      ca = c;
    }
    if (std::find(tokens.begin(), tokens.end(), OutRelationToken(1)) !=
        tokens.end()) {
      cb = c;
    }
  }
  ASSERT_NE(ca, kInvalidId);
  ASSERT_NE(cb, kInvalidId);
  ASSERT_NE(ca, cb);
  ASSERT_FALSE(categories.Categories(10).empty());
  const CategoryId cc = categories.Categories(10).front();

  RuleGraph rules;
  const RuleId r1 = rules.AddRule(AtomicRule{ca, 1, cc}, true);
  const RuleId r2 = rules.AddRule(AtomicRule{cb, 1, cc}, true);
  const RuleId head = rules.AddRule(AtomicRule{ca, 0, cc}, true);
  rules.SetSupport(r1, 3);
  rules.SetSupport(r2, 3);
  rules.SetSupport(head, 3);
  // Walk order: r1 (lowest id) is processed first; its in-edge fails to
  // instantiate (no prior relation-1 fact on the pair) and recursion
  // consumes X at depth 1 — so X is already visited when r2's depth-0
  // turn reaches it.
  RuleEdge e1;
  e1.kind = RuleEdgeKind::kChain;
  e1.head = r2;
  e1.tail = r1;
  e1.timespans = {1};
  e1.support = 1;
  rules.AddEdge(e1);
  RuleEdge x;
  x.kind = RuleEdgeKind::kChain;
  x.head = head;
  x.tail = r2;
  x.timespans = {1};
  x.support = 1;
  rules.AddEdge(x);

  DetectorOptions dopts;
  dopts.timespan_tolerance = 5;
  Scorer scorer(&g, &categories, &rules, &dopts);
  const Scores s = scorer.Score(Fact(0, 1, 10, 100));
  EXPECT_GT(s.temporal_support, 0.0);
  EXPECT_TRUE(s.associated)
      << "in-edge instantiated at recursion depth 1 and visited-skipped "
         "at depth 0 must still set the association flag";
}

TEST(UpdaterDurationTest, EndAnchoredChainScanCoversFullWindow) {
  // Regression: the chain-edge scan `break`s at the first pair whose head
  // gap exceeds the tolerance. The pair sequence is sorted by *start*
  // time, so with an end-anchored head on a duration TKG the gap is not
  // monotone: a long-running earlier fact can end nearer the tail than a
  // later short one, and the break skipped it.
  TemporalKnowledgeGraph g;
  // Pair (0, 10): a long-runner starting early but ending near t=120, and
  // a later short fact ending far from it. Sorted by start time the short
  // fact is scanned first and is out of tolerance.
  g.AddFact(Fact(0, 0, 10, 90, 118));   // end within tolerance of 120
  g.AddFact(Fact(0, 0, 10, 100, 100));  // end 20 ticks before 120
  // Category support: three more subjects/objects sharing relation 0.
  for (EntityId i = 1; i < 4; ++i) {
    g.AddFact(Fact(i, 0, 10 + i, 80 + static_cast<Timestamp>(i),
                   80 + static_cast<Timestamp>(i)));
  }

  CategoryFunctionOptions copts;
  copts.min_support = 3;
  auto categories = CategoryFunction::Build(g, copts);
  ASSERT_FALSE(categories.Categories(0).empty());
  ASSERT_FALSE(categories.Categories(10).empty());
  const CategoryId cs = categories.Categories(0).front();
  const CategoryId co = categories.Categories(10).front();

  RuleGraph rules;
  const RuleId head = rules.AddRule(AtomicRule{cs, 0, co},
                                    /*static_selected=*/true);
  rules.SetSupport(head, 5);

  DetectorOptions dopts;
  dopts.head_anchor = TimeAnchor::kEnd;
  dopts.tail_anchor = TimeAnchor::kStart;
  dopts.timespan_tolerance = 5;
  UpdaterOptions uopts;
  uopts.new_rule_min_support = 3;
  Updater updater(&g, &categories, &rules, &dopts, uopts);

  // Two support-building ingests on sibling pairs, then the admitting
  // ingest on (0, 10) whose chain scan must reach past the short fact to
  // the long-runner (end 118, gap 2 <= 5) and wire an edge to `head`.
  const RelationId fresh_rel = 1;
  updater.Ingest(Fact(1, fresh_rel, 11, 119));
  updater.Ingest(Fact(2, fresh_rel, 12, 119));
  const UpdateEffects effects = updater.Ingest(Fact(0, fresh_rel, 10, 120));
  EXPECT_GT(effects.new_rule_nodes, 0u);
  EXPECT_GT(effects.new_rule_edges, 0u)
      << "end-anchored scan stopped at the first out-of-tolerance start";
}

TEST_F(CoreFixture, PendingRuleTableStaysBounded) {
  // A hostile stream minting a fresh, never-repeating pattern per arrival
  // must not grow the pending-candidate table without bound.
  AnoTOptions options;
  options.detector = TestDetectorOptions();
  options.updater.max_pending_rules = 64;
  AnoT local = AnoT::Build(*train_, options);

  const RelationId base_rel =
      static_cast<RelationId>(local.graph().num_relations());
  const Timestamp t0 = local.graph().max_time() + 1;
  for (uint32_t i = 0; i < 500; ++i) {
    const EntityId s = static_cast<EntityId>((2 * i) % 200);
    const EntityId o = static_cast<EntityId>((2 * i + 1) % 200);
    local.IngestValid(Fact(s, base_rel + i, o, t0 + i));
    ASSERT_LE(local.updater().pending_rule_count(), 64u) << "arrival " << i;
  }
  EXPECT_GT(local.updater().pending_rule_count(), 0u);
}

TEST_F(CoreFixture, UpdaterImprovesScoresOnNewPatterns) {
  // Without the updater the fresh relation stays maximally anomalous;
  // with it the pattern is learned.
  AnoTOptions options;
  options.detector = TestDetectorOptions();
  AnoT local = AnoT::Build(*train_, options);
  const RelationId fresh_rel =
      static_cast<RelationId>(local.graph().num_relations());
  Timestamp t = local.graph().max_time() + 1;
  Fact probe(0, fresh_rel, 1, t + 50);
  const double score_before = local.Score(probe).static_score;
  for (int i = 0; i < 10; ++i) {
    local.IngestValid(Fact(static_cast<EntityId>(2 * i), fresh_rel,
                           static_cast<EntityId>(2 * i + 1), t + i));
  }
  const double score_after = local.Score(probe).static_score;
  EXPECT_LT(score_after, score_before);
}

// ---------------------------------------------------------------- Monitor

TEST(MonitorTest, RefreshFiresWhenBudgetExceeded) {
  MonitorOptions mopts;
  mopts.mode = MonitorOptions::Mode::kTotalBudget;
  Monitor monitor(/*training_negative_bits=*/100.0,
                  /*training_timestamps=*/10, 1e8, 1e3, mopts);
  EXPECT_FALSE(monitor.ShouldRefresh());
  // Stream fully unexplained facts until the budget is blown.
  Timestamp t = 0;
  while (!monitor.ShouldRefresh() && t < 1000) {
    for (int i = 0; i < 5; ++i) monitor.Observe(t, false, false);
    ++t;
  }
  EXPECT_TRUE(monitor.ShouldRefresh());
  EXPECT_LT(t, 1000) << "monitor never fired";
}

TEST(MonitorTest, WellExplainedStreamDoesNotFire) {
  MonitorOptions mopts;
  Monitor monitor(100.0, 10, 1e8, 1e3, mopts);
  for (Timestamp t = 0; t < 50; ++t) {
    for (int i = 0; i < 5; ++i) monitor.Observe(t, true, true);
  }
  monitor.Flush();
  EXPECT_DOUBLE_EQ(monitor.online_negative_bits(), 0.0);
  EXPECT_FALSE(monitor.ShouldRefresh());
}

TEST(MonitorTest, PerTimestampModeComparesMeans) {
  MonitorOptions mopts;
  mopts.mode = MonitorOptions::Mode::kPerTimestamp;
  // Training mean: 100 bits over 10 timestamps = 10 bits/ts.
  Monitor monitor(100.0, 10, 1e8, 1e3, mopts);
  // One bad timestamp: 5 unexplained facts cost >> 10 bits.
  for (int i = 0; i < 5; ++i) monitor.Observe(0, false, false);
  monitor.Flush();
  EXPECT_TRUE(monitor.ShouldRefresh());
}

TEST(MonitorTest, ResetAdoptsNewBudget) {
  MonitorOptions mopts;
  Monitor monitor(1.0, 1, 1e8, 1e3, mopts);
  for (int i = 0; i < 5; ++i) monitor.Observe(0, false, false);
  monitor.Flush();
  EXPECT_TRUE(monitor.ShouldRefresh());
  monitor.Reset(1e9, 1);
  EXPECT_FALSE(monitor.ShouldRefresh());
  EXPECT_DOUBLE_EQ(monitor.online_negative_bits(), 0.0);
}

TEST(MonitorTest, PerTimestampSlackScalesTheFiringThreshold) {
  // Training mean: 10 bits/timestamp. One bad tick costs ~2 log2(1e8)
  // ≈ 53 bits: above the mean at slack 1, far below it at slack 1000.
  MonitorOptions tight_opts;
  tight_opts.mode = MonitorOptions::Mode::kPerTimestamp;
  tight_opts.slack = 1.0;
  MonitorOptions loose_opts = tight_opts;
  loose_opts.slack = 1000.0;
  Monitor tight(100.0, 10, 1e8, 1e3, tight_opts);
  Monitor loose(100.0, 10, 1e8, 1e3, loose_opts);
  for (int i = 0; i < 2; ++i) {
    tight.Observe(0, false, false);
    loose.Observe(0, false, false);
  }
  tight.Flush();
  loose.Flush();
  EXPECT_TRUE(tight.ShouldRefresh());
  EXPECT_FALSE(loose.ShouldRefresh());
}

TEST(MonitorTest, ShouldRefreshPricesThePendingOpenBucket) {
  // Facts stream within a single timestamp: the bucket is still open, so
  // nothing is priced into the accumulators yet — but ShouldRefresh must
  // already see the pending cost, or a single-timestamp burst could never
  // fire the monitor.
  MonitorOptions mopts;
  Monitor monitor(1.0, 1, 1e8, 1e3, mopts);
  for (int i = 0; i < 5; ++i) monitor.Observe(7, false, false);
  EXPECT_DOUBLE_EQ(monitor.online_negative_bits(), 0.0);
  EXPECT_EQ(monitor.online_timestamps(), 0u);
  EXPECT_TRUE(monitor.ShouldRefresh());
  monitor.Flush();
  EXPECT_GT(monitor.online_negative_bits(), 1.0);
  EXPECT_EQ(monitor.online_timestamps(), 1u);
  EXPECT_TRUE(monitor.ShouldRefresh());
}

TEST(MonitorTest, ResetPlusReplayEqualsFreshMonitor) {
  // The async swap's handoff: Reset to the new budget, Replay the window
  // observed since the snapshot. Must be bit-identical to a fresh monitor
  // that lived through the same window — including the still-open bucket.
  const std::vector<MonitorObservation> window = {
      {100, false, false}, {100, true, false},  {101, true, true},
      {101, false, false}, {102, false, false},
  };
  MonitorOptions mopts;
  Monitor live(50.0, 5, 1e8, 1e3, mopts);
  for (Timestamp t = 0; t < 4; ++t) live.Observe(t, false, false);

  live.Reset(123.0, 7);
  live.Replay(window);
  Monitor fresh(123.0, 7, 1e8, 1e3, mopts);
  for (const MonitorObservation& o : window) {
    fresh.Observe(o.time, o.mapped, o.associated);
  }
  EXPECT_EQ(live.online_negative_bits(), fresh.online_negative_bits());
  EXPECT_EQ(live.online_timestamps(), fresh.online_timestamps());
  EXPECT_EQ(live.ShouldRefresh(), fresh.ShouldRefresh());

  // The replayed bucket at t=102 is still open: further observations at
  // the same timestamp merge into it on both monitors.
  live.Observe(102, true, true);
  fresh.Observe(102, true, true);
  live.Flush();
  fresh.Flush();
  EXPECT_EQ(live.online_negative_bits(), fresh.online_negative_bits());
  EXPECT_EQ(live.online_timestamps(), fresh.online_timestamps());
}

TEST_F(CoreFixture, ProcessArrivalFeedsMonitorAndAutoRefreshes) {
  AnoTOptions options;
  options.detector = TestDetectorOptions();
  options.monitor.mode = MonitorOptions::Mode::kPerTimestamp;
  options.auto_refresh = true;
  AnoT local = AnoT::Build(*train_, options);
  local.SetValidityThresholds(1.0, 1.0);

  // Stream dense garbage (unknown entities) to blow the per-timestamp
  // budget: each tick's unexplained cost must exceed the training mean.
  const EntityId base = static_cast<EntityId>(local.graph().num_entities());
  Timestamp t = local.graph().max_time() + 1;
  for (int i = 0; i < 400 && local.refresh_count() == 0; ++i) {
    local.ProcessArrival(Fact(base + i, 0, base + i + 1, t + i / 80));
  }
  EXPECT_GT(local.refresh_count(), 0u);
}

// --------------------------------------------------------------- Ablations

TEST_F(CoreFixture, AblationsStillBuildAndScore) {
  const Fact& probe = graph_->fact(split_->test.front());
  for (int variant = 0; variant < 4; ++variant) {
    AnoTOptions options;
    options.detector = TestDetectorOptions();
    switch (variant) {
      case 0: options.detector.use_triadic = false; break;
      case 1: options.detector.use_recursion = false; break;
      case 2: options.detector.unit_rule_weight = true; break;
      case 3:
        options.detector.ranking = RankingMode::kAssertionsOnly;
        break;
    }
    AnoT variant_model = AnoT::Build(*train_, options);
    EXPECT_GT(variant_model.rules().num_rules(), 0u) << variant;
    const Scores s = variant_model.Score(probe);
    EXPECT_GE(s.static_score, 0.0) << variant;
  }
}

TEST_F(CoreFixture, NoTriadicMeansNoTriadicEdges) {
  AnoTOptions options;
  options.detector = TestDetectorOptions();
  options.detector.use_triadic = false;
  AnoT no_triadic = AnoT::Build(*train_, options);
  for (RuleEdgeId e = 0; e < no_triadic.rules().num_edges(); ++e) {
    EXPECT_EQ(no_triadic.rules().edge(e).kind, RuleEdgeKind::kChain);
  }
}

TEST_F(CoreFixture, ThetaModesDiffer) {
  AnoTOptions printed;
  printed.detector = TestDetectorOptions();
  printed.detector.theta_mode = ThetaMode::kAsPrinted;
  AnoT printed_model = AnoT::Build(*train_, printed);

  // Same rule graph, different temporal weighting.
  EXPECT_EQ(printed_model.rules().num_rules(), anot_->rules().num_rules());
  bool any_diff = false;
  for (FactId id : split_->test) {
    const Fact& f = graph_->fact(id);
    const Scores a = anot_->Score(f);
    const Scores b = printed_model.Score(f);
    if (a.temporal_evaluated && b.temporal_evaluated &&
        a.temporal_support != b.temporal_support) {
      any_diff = true;
      break;
    }
  }
  EXPECT_TRUE(any_diff);
}

// ---------------------------------------------------------------- Duration

TEST(DurationTest, FourGraphsBuildAndScore) {
  GeneratorConfig cfg = TestWorldConfig();
  cfg.num_facts = 4000;
  cfg.durations = true;
  cfg.mean_duration = 20.0;
  SyntheticGenerator gen(cfg);
  auto graph = gen.Generate();
  TimeSplit split = SplitByTimestamps(*graph, 0.6, 0.1);
  auto train = Subgraph(*graph, split.train);

  AnoTOptions options;
  options.detector = TestDetectorOptions();
  DurationAnoT model = DurationAnoT::Build(*train, options);
  ASSERT_EQ(model.num_views(), 4u);
  EXPECT_EQ(model.view_name(0), "ST-ST");
  EXPECT_EQ(model.view_name(3), "ED-ST");

  const Fact& f = graph->fact(split.test.front());
  const Scores s = model.Score(f);
  EXPECT_GE(s.static_score, 0.0);

  // Ingest flows into all views.
  const size_t before = model.view(0).graph().num_facts();
  model.IngestValid(f);
  for (size_t i = 0; i < model.num_views(); ++i) {
    EXPECT_EQ(model.view(i).graph().num_facts(), before + 1);
  }
}

TEST(DurationTest, SingleViewStrategies) {
  GeneratorConfig cfg = TestWorldConfig();
  cfg.num_facts = 3000;
  cfg.durations = true;
  SyntheticGenerator gen(cfg);
  auto graph = gen.Generate();
  TimeSplit split = SplitByTimestamps(*graph, 0.6, 0.1);
  auto train = Subgraph(*graph, split.train);

  AnoTOptions options;
  options.detector = TestDetectorOptions();
  for (DurationStrategy strategy :
       {DurationStrategy::kStartOnly, DurationStrategy::kEndOnly,
        DurationStrategy::kAverage}) {
    DurationAnoT model = DurationAnoT::Build(*train, options, strategy);
    EXPECT_EQ(model.num_views(), 1u) << DurationStrategyName(strategy);
    const Scores s = model.Score(graph->fact(split.test.front()));
    EXPECT_GE(s.static_score, 0.0);
  }
}

TEST(DurationTest, StrategyNamesAreStable) {
  EXPECT_STREQ(DurationStrategyName(DurationStrategy::kFourGraphs),
               "four-graphs");
  EXPECT_STREQ(DurationStrategyName(DurationStrategy::kAverage),
               "midpoint-average");
}

TEST(DurationTest, ScoresIdenticalAcrossThreadCounts) {
  GeneratorConfig cfg = TestWorldConfig();
  cfg.num_facts = 3000;
  cfg.durations = true;
  cfg.mean_duration = 20.0;
  SyntheticGenerator gen(cfg);
  auto graph = gen.Generate();
  TimeSplit split = SplitByTimestamps(*graph, 0.6, 0.1);
  auto train = Subgraph(*graph, split.train);

  AnoTOptions options;
  options.detector = TestDetectorOptions();
  options.num_threads = 1;
  DurationAnoT serial = DurationAnoT::Build(*train, options);
  options.num_threads = 8;
  DurationAnoT parallel = DurationAnoT::Build(*train, options);

  ASSERT_EQ(serial.num_views(), parallel.num_views());
  for (size_t v = 0; v < serial.num_views(); ++v) {
    EXPECT_EQ(serial.view_name(v), parallel.view_name(v));
    ExpectRuleGraphsIdentical(serial.view(v).rules(),
                              parallel.view(v).rules());
  }
  const size_t count = std::min<size_t>(100, split.test.size());
  for (size_t i = 0; i < count; ++i) {
    const Fact& f = graph->fact(split.test[i]);
    const Scores a = serial.Score(f);
    const Scores b = parallel.Score(f);
    ASSERT_EQ(a.static_score, b.static_score) << "fact " << i;
    ASSERT_EQ(a.temporal_score, b.temporal_score) << "fact " << i;
    ASSERT_EQ(a.static_support, b.static_support) << "fact " << i;
    ASSERT_EQ(a.temporal_support, b.temporal_support) << "fact " << i;
    ASSERT_EQ(a.out_violations, b.out_violations) << "fact " << i;
    ASSERT_EQ(a.temporal_evaluated, b.temporal_evaluated) << "fact " << i;
    ASSERT_EQ(a.associated, b.associated) << "fact " << i;
  }
}

}  // namespace
}  // namespace anot
