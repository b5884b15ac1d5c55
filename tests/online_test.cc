// Equivalence harness for the online serving loop: the ProcessArrival
// sequence — scores, ingests, refresh points and the grown rule graph —
// is bit-identical whatever AnoTOptions::num_threads the offline build and
// every refresh run with. Every comparison is exact (EXPECT_EQ on
// doubles).
//
// CI runs this suite under ANOT_THREADS=1 and ANOT_THREADS=4; the env
// value is folded into the tested thread counts so the equivalence cases
// always exercise both a serial and a contended build schedule.

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "anomaly/injector.h"
#include "core/anot.h"
#include "datagen/generator.h"
#include "serving_test_util.h"
#include "tkg/split.h"

namespace anot {
namespace {

GeneratorConfig OnlineWorldConfig() {
  GeneratorConfig cfg;
  cfg.num_entities = 150;
  cfg.num_relations = 20;
  cfg.num_timestamps = 100;
  cfg.num_facts = 3000;
  cfg.num_categories = 5;
  cfg.num_chain_rules = 4;
  cfg.num_triadic_rules = 2;
  cfg.chain_follow_prob = 0.7;
  cfg.noise_fraction = 0.03;
  cfg.seed = 1234;
  return cfg;
}

AnoTOptions OnlineOptions(size_t num_threads) {
  AnoTOptions options;
  options.detector.category.min_support = 4;
  options.detector.timespan_tolerance = 10;
  options.detector.max_recursion_steps = 2;
  options.num_threads = num_threads;
  return options;
}

/// What the sequential loop left behind, for exact comparison.
struct RunOutcome {
  std::vector<Scores> scores;
  UpdateEffects effects;
  size_t refresh_count = 0;
  size_t num_facts = 0;
  std::string rules;  // serialized rule graph
};

RunOutcome RunSequential(const TemporalKnowledgeGraph& train,
                         const AnoTOptions& options,
                         const std::vector<Fact>& stream) {
  AnoT system = AnoT::Build(train, options);
  RunOutcome out;
  out.scores.reserve(stream.size());
  for (const Fact& f : stream) {
    out.scores.push_back(system.ProcessArrival(f, &out.effects));
  }
  ValidateAtCommitBoundary(system);
  out.refresh_count = system.refresh_count();
  out.num_facts = system.graph().num_facts();
  out.rules = system.rules().ToString();
  return out;
}

void ExpectOutcomesIdentical(const RunOutcome& ref, const RunOutcome& got,
                             size_t threads) {
  SCOPED_TRACE("threads=" + std::to_string(threads));
  ASSERT_EQ(ref.scores.size(), got.scores.size());
  for (size_t i = 0; i < ref.scores.size(); ++i) {
    ExpectScoresIdentical(ref.scores[i], got.scores[i], i);
  }
  EXPECT_EQ(ref.effects.facts_ingested, got.effects.facts_ingested);
  EXPECT_EQ(ref.effects.new_entity_categories,
            got.effects.new_entity_categories);
  EXPECT_EQ(ref.effects.new_rule_nodes, got.effects.new_rule_nodes);
  EXPECT_EQ(ref.effects.new_rule_edges, got.effects.new_rule_edges);
  EXPECT_EQ(ref.effects.timespans_recorded, got.effects.timespans_recorded);
  EXPECT_EQ(ref.refresh_count, got.refresh_count);
  EXPECT_EQ(ref.num_facts, got.num_facts);
  EXPECT_EQ(ref.rules, got.rules);
}

/// Shared expensive fixture: one world, one split, one labeled stream.
class OnlineFixture : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    SyntheticGenerator gen(OnlineWorldConfig());
    graph_ = gen.Generate().release();
    split_ = new TimeSplit(SplitByTimestamps(*graph_, 0.6, 0.1));
    train_ = Subgraph(*graph_, split_->train).release();

    AnomalyInjector injector(InjectorConfig{});
    EvalStream labeled = injector.Inject(*graph_, split_->test);
    stream_ = new std::vector<Fact>();
    for (const LabeledFact& lf : labeled.arrivals) {
      stream_->push_back(lf.fact);
    }
  }
  static void TearDownTestSuite() {
    delete stream_;
    delete train_;
    delete split_;
    delete graph_;
    stream_ = nullptr;
    train_ = nullptr;
    split_ = nullptr;
    graph_ = nullptr;
  }

  static TemporalKnowledgeGraph* graph_;
  static TimeSplit* split_;
  static TemporalKnowledgeGraph* train_;
  static std::vector<Fact>* stream_;
};

TemporalKnowledgeGraph* OnlineFixture::graph_ = nullptr;
TimeSplit* OnlineFixture::split_ = nullptr;
TemporalKnowledgeGraph* OnlineFixture::train_ = nullptr;
std::vector<Fact>* OnlineFixture::stream_ = nullptr;

// ------------------------------------------------------------ const Score

TEST_F(OnlineFixture, ScoreIsPureAndIndependentOfBuildThreads) {
  const size_t count = std::min<size_t>(200, stream_->size());
  const AnoT ref = AnoT::Build(*train_, OnlineOptions(1));
  for (size_t threads : ThreadCountsUnderTest()) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    const AnoT system = AnoT::Build(*train_, OnlineOptions(threads));
    for (size_t i = 0; i < count; ++i) {
      const Scores first = system.Score((*stream_)[i]);
      ExpectScoresIdentical(ref.Score((*stream_)[i]), first, i);
      // Scoring is const: a second call is bitwise identical.
      ExpectScoresIdentical(first, system.Score((*stream_)[i]), i);
    }
  }
}

// ---------------------------------------------------- sequential arrivals

TEST_F(OnlineFixture, ArrivalsBitIdenticalAcrossBuildThreads) {
  const RunOutcome ref = RunSequential(*train_, OnlineOptions(1), *stream_);
  ASSERT_GT(ref.effects.facts_ingested, 0u)
      << "stream never ingests: the equivalence case is vacuous";
  ASSERT_LT(ref.effects.facts_ingested, stream_->size())
      << "stream always ingests: the threshold gate is never exercised";

  for (size_t threads : ThreadCountsUnderTest()) {
    const RunOutcome got =
        RunSequential(*train_, OnlineOptions(threads), *stream_);
    ExpectOutcomesIdentical(ref, got, threads);
  }
}

// ------------------------------------------------- refresh mid-stream

TEST_F(OnlineFixture, AutoRefreshMidStreamBitIdenticalAcrossBuildThreads) {
  AnoTOptions options = OnlineOptions(1);
  options.auto_refresh = true;
  options.monitor.mode = MonitorOptions::Mode::kPerTimestamp;

  // A prefix of real (ingestable) facts, then a dense flood of
  // unknown-entity garbage that blows the per-timestamp budget so Refresh
  // fires mid-stream, then more real facts scored against the rebuilt
  // rule graph. The ingested prefix makes the refreshed graph differ from
  // the offline build.
  std::vector<Fact> stream;
  const EntityId base = static_cast<EntityId>(graph_->num_entities());
  const Timestamp t0 = graph_->max_time() + 1;
  const size_t prefix = std::min<size_t>(60, split_->test.size());
  for (size_t i = 0; i < prefix; ++i) {
    stream.push_back(graph_->fact(split_->test[i]));
  }
  // Kept short: in kPerTimestamp mode every few unexplained facts re-fire
  // the monitor after a refresh, and each refresh is a full rebuild.
  for (int i = 0; i < 24; ++i) {
    stream.push_back(Fact(base + i, 0, base + i + 1, t0 + i / 80));
  }
  for (size_t i = prefix; i < std::min<size_t>(prefix + 40, split_->test.size());
       ++i) {
    stream.push_back(graph_->fact(split_->test[i]));
  }

  const RunOutcome ref = RunSequential(*train_, options, stream);
  ASSERT_GT(ref.refresh_count, 0u) << "monitor never fired: case is vacuous";

  for (size_t threads : ThreadCountsUnderTest()) {
    AnoTOptions par = options;
    par.num_threads = threads;
    const RunOutcome got = RunSequential(*train_, par, stream);
    ExpectOutcomesIdentical(ref, got, threads);
  }
}

}  // namespace
}  // namespace anot
