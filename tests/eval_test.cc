#include <gtest/gtest.h>

#include "datagen/generator.h"
#include "eval/anot_model.h"
#include "eval/metrics.h"
#include "eval/protocol.h"
#include "eval/report.h"
#include "tkg/split.h"

namespace anot {
namespace {

// ----------------------------------------------------------------- PR-AUC

TEST(PrAucTest, PerfectRankingIsOne) {
  std::vector<ScoredExample> ex{{0.9, true}, {0.8, true}, {0.2, false},
                                {0.1, false}};
  EXPECT_DOUBLE_EQ(PrAuc(ex), 1.0);
}

TEST(PrAucTest, InvertedRankingIsPoor) {
  std::vector<ScoredExample> ex{{0.9, false}, {0.8, false}, {0.2, true},
                                {0.1, true}};
  EXPECT_LT(PrAuc(ex), 0.55);
}

TEST(PrAucTest, RandomScoresNearBaseRate) {
  Rng rng(3);
  std::vector<ScoredExample> ex;
  for (int i = 0; i < 4000; ++i) {
    ex.push_back({rng.UniformDouble(), rng.Bernoulli(0.2)});
  }
  EXPECT_NEAR(PrAuc(ex), 0.2, 0.04);
}

TEST(PrAucTest, NoPositivesIsZero) {
  EXPECT_DOUBLE_EQ(PrAuc({{0.5, false}}), 0.0);
  EXPECT_DOUBLE_EQ(PrAuc({}), 0.0);
}

TEST(PrAucTest, TiesHandledAsBlock) {
  // All scores equal: AUC == base rate regardless of input order.
  std::vector<ScoredExample> ex{{0.5, true}, {0.5, false}, {0.5, false},
                                {0.5, true}};
  EXPECT_DOUBLE_EQ(PrAuc(ex), 0.5);
}

// ----------------------------------------------------------------- F-beta

TEST(FBetaTest, KnownValues) {
  EXPECT_DOUBLE_EQ(FBeta(1.0, 1.0, 0.5), 1.0);
  EXPECT_DOUBLE_EQ(FBeta(0.0, 1.0, 0.5), 0.0);
  // beta=0.5 weights precision more: P=1,R=0.5 scores higher than
  // P=0.5,R=1.
  EXPECT_GT(FBeta(1.0, 0.5, 0.5), FBeta(0.5, 1.0, 0.5));
  // beta=1 is symmetric.
  EXPECT_DOUBLE_EQ(FBeta(1.0, 0.5, 1.0), FBeta(0.5, 1.0, 1.0));
}

// ------------------------------------------------------------- thresholds

TEST(ThresholdTest, TuneFindsSeparatingThreshold) {
  std::vector<ScoredExample> ex{{0.9, true},  {0.85, true}, {0.8, true},
                                {0.3, false}, {0.2, false}, {0.1, false}};
  auto best = TuneThreshold(ex, 0.5);
  EXPECT_DOUBLE_EQ(best.precision, 1.0);
  EXPECT_DOUBLE_EQ(best.recall, 1.0);
  EXPECT_DOUBLE_EQ(best.f_beta, 1.0);
  EXPECT_GE(best.threshold, 0.8);

  auto at = MetricsAtThreshold(ex, best.threshold, 0.5);
  EXPECT_DOUBLE_EQ(at.f_beta, 1.0);
}

TEST(ThresholdTest, MetricsAtExtremeThresholds) {
  std::vector<ScoredExample> ex{{0.9, true}, {0.1, false}};
  auto none = MetricsAtThreshold(ex, 10.0, 0.5);
  EXPECT_DOUBLE_EQ(none.precision, 0.0);
  auto all = MetricsAtThreshold(ex, -10.0, 0.5);
  EXPECT_DOUBLE_EQ(all.precision, 0.5);
  EXPECT_DOUBLE_EQ(all.recall, 1.0);
}

TEST(ThresholdTest, EmptyAndDegenerateInputs) {
  EXPECT_DOUBLE_EQ(TuneThreshold({}, 0.5).f_beta, 0.0);
  EXPECT_DOUBLE_EQ(TuneThreshold({{0.5, false}}, 0.5).f_beta, 0.0);
}

// --------------------------------------------------------------- Reporter

TEST(ReporterTest, RenderTableAligns) {
  std::string out = Reporter::RenderTable({"a", "model"},
                                          {{"1", "AnoT"}, {"22", "DE"}});
  EXPECT_NE(out.find("| a  | model |"), std::string::npos);
  EXPECT_NE(out.find("| 22 | DE    |"), std::string::npos);
}

TEST(ReporterTest, ComparisonGroupsByDataset) {
  EvalResult r;
  r.model = "AnoT";
  r.dataset = "ICEWS14";
  r.conceptual = {0.9, 0.8, 0.95};
  std::string out = Reporter::RenderComparison({r});
  EXPECT_NE(out.find("== ICEWS14 =="), std::string::npos);
  EXPECT_NE(out.find("AnoT"), std::string::npos);
  EXPECT_NE(out.find("0.950"), std::string::npos);
}

// ------------------------------------------------- stream call ordering

/// Records the model-visible call sequence — Score and ObserveValid, in
/// order. Scores are a deterministic function of the fact, so threshold
/// tuning has something to rank.
class ProbeModel : public AnomalyModel {
 public:
  std::string name() const override { return "probe"; }
  void Fit(const TemporalKnowledgeGraph& train) override { (void)train; }

  TaskScores Score(const Fact& fact) override {
    sequence.push_back("S:" + Key(fact));
    const double x =
        static_cast<double>((fact.subject * 31 + fact.object * 7 +
                             static_cast<uint64_t>(fact.time)) %
                            1000) /
        1000.0;
    return TaskScores{x, 1.0 - x, x};
  }

  void ObserveValid(const Fact& fact) override {
    sequence.push_back("V:" + Key(fact));
  }

  static std::string Key(const Fact& f) {
    return std::to_string(f.subject) + "_" + std::to_string(f.relation) +
           "_" + std::to_string(f.object) + "_" + std::to_string(f.time);
  }

  std::vector<std::string> sequence;
};

GeneratorConfig SmallProtocolWorld() {
  GeneratorConfig cfg;
  cfg.num_entities = 150;
  cfg.num_relations = 18;
  cfg.num_timestamps = 90;
  cfg.num_facts = 3000;
  cfg.num_categories = 5;
  cfg.num_chain_rules = 4;
  cfg.seed = 13;
  return cfg;
}

TEST(ProtocolTest, ObserveValidFollowsItsOwnScore) {
  SyntheticGenerator gen(SmallProtocolWorld());
  auto graph = gen.Generate();
  TimeSplit split = SplitByTimestamps(*graph, 0.6, 0.1);

  ProbeModel model;
  RunProtocol(*graph, split, &model, ProtocolOptions{});

  // Every ingest lands right after the arrival's own score and before the
  // next arrival is scored: each arrival sees all earlier ingests.
  ASSERT_FALSE(model.sequence.empty());
  size_t ingests = 0;
  for (size_t i = 0; i < model.sequence.size(); ++i) {
    const std::string& call = model.sequence[i];
    if (call.rfind("V:", 0) != 0) continue;
    ++ingests;
    ASSERT_GT(i, 0u);
    EXPECT_EQ(model.sequence[i - 1], "S:" + call.substr(2)) << i;
  }
  EXPECT_GT(ingests, 0u) << "protocol never fed back: case is vacuous";
}

// ------------------------------------------------------ protocol + AnoT

TEST(ProtocolTest, AnoTEndToEndProducesSaneMetrics) {
  GeneratorConfig cfg;
  cfg.num_entities = 200;
  cfg.num_relations = 24;
  cfg.num_timestamps = 120;
  cfg.num_facts = 6000;
  cfg.num_categories = 6;
  cfg.num_chain_rules = 5;
  cfg.num_triadic_rules = 2;
  cfg.seed = 41;
  SyntheticGenerator gen(cfg);
  auto graph = gen.Generate();
  TimeSplit split = SplitByTimestamps(*graph, 0.6, 0.1);

  AnoTOptions options;
  options.detector.category.min_support = 4;
  options.detector.timespan_tolerance = 5;
  AnoTModel model(options);
  ProtocolOptions popts;
  EvalResult result = RunProtocol(*graph, split, &model, popts);

  // Conceptual detection must be strong on planted-schema data.
  EXPECT_GT(result.conceptual.pr_auc, 0.5);
  EXPECT_GT(result.conceptual.precision, 0.4);
  // Missing detection should beat the 50% base rate of its candidate set.
  EXPECT_GT(result.missing.pr_auc, 0.6);
  // Time detection beats its ~0.176 base rate (time errors are hard to
  // detect on the synthetic worlds; see README "Deviations from the
  // paper").
  EXPECT_GT(result.time.pr_auc, 0.18);
  EXPECT_GT(result.throughput, 100.0);
  EXPECT_GT(result.fit_seconds, 0.0);
  EXPECT_GT(result.test_seconds, 0.0);
  // Per-arrival latency tail is captured over the same window and is
  // internally consistent: p50 <= p99 <= max.
  EXPECT_GT(result.latency_p50_us, 0.0);
  EXPECT_LE(result.latency_p50_us, result.latency_p99_us);
  EXPECT_LE(result.latency_p99_us, result.latency_max_us);
}

}  // namespace
}  // namespace anot
