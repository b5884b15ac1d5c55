// Equivalence harness for the asynchronous double-buffered refresh: pins
// the determinism contract of AnoT::RefreshAsync as a tested property —
// the post-swap state (scores, rule graph, build report, monitor
// counters, refresh_count) is bit-identical to a synchronous Refresh() at
// the snapshot point followed by IngestValid of the facts ingested since
// the snapshot, with the observation window replayed into the reset
// monitor. Every comparison is exact (EXPECT_EQ on doubles).
//
// CI runs this suite under ANOT_THREADS=1 and ANOT_THREADS=4 (same
// convention as online_test) and again under ThreadSanitizer.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <string>
#include <utility>
#include <vector>

#include "anomaly/injector.h"
#include "core/anot.h"
#include "datagen/generator.h"
#include "serving_test_util.h"
#include "tkg/split.h"

namespace anot {
namespace {

GeneratorConfig RefreshWorldConfig() {
  GeneratorConfig cfg;
  cfg.num_entities = 120;
  cfg.num_relations = 18;
  cfg.num_timestamps = 80;
  cfg.num_facts = 2000;
  cfg.num_categories = 5;
  cfg.num_chain_rules = 4;
  cfg.num_triadic_rules = 2;
  cfg.chain_follow_prob = 0.7;
  cfg.noise_fraction = 0.03;
  cfg.seed = 4321;
  return cfg;
}

AnoTOptions RefreshOptions(size_t num_threads) {
  AnoTOptions options;
  options.detector.category.min_support = 4;
  options.detector.timespan_tolerance = 10;
  options.detector.max_recursion_steps = 2;
  options.refresh_mode = RefreshMode::kAsynchronous;
  options.num_threads = num_threads;
  return options;
}

/// The validity rule ProcessArrival applies at the default thresholds
/// (1.0, 1.0): decides which arrivals the updater ingested.
bool IngestedAtDefaultThresholds(const Scores& s) {
  return s.static_score <= 1.0 &&
         (!s.temporal_evaluated || s.temporal_score <= 1.0);
}

/// Feeds `facts` through ProcessArrival in order, appending every
/// returned score to `out`.
void ProcessAll(AnoT* system, const std::vector<Fact>& facts,
                std::vector<Scores>* out) {
  for (const Fact& f : facts) out->push_back(system->ProcessArrival(f));
}

/// Shared expensive fixture: one world, one split, one arrival stream cut
/// into prefix / window / probes, plus the two sequential references.
///
///   prefix  — processed before the snapshot (identical in every run)
///   window  — processed between RefreshAsync() and the swap: scored
///             against the old structures, logged for replay
///             (the last window fact's commit performs the swap)
///   probes  — processed after the swap: scored against the new state
class RefreshAsyncFixture : public ::testing::Test {
 protected:
  static constexpr size_t kPrefix = 80;
  static constexpr size_t kWindow = 30;  // includes the swap-commit fact
  static constexpr size_t kProbes = 20;

  static void SetUpTestSuite() {
    SyntheticGenerator gen(RefreshWorldConfig());
    graph_ = gen.Generate().release();
    split_ = new TimeSplit(SplitByTimestamps(*graph_, 0.6, 0.1));
    train_ = Subgraph(*graph_, split_->train).release();

    AnomalyInjector injector(InjectorConfig{});
    EvalStream labeled = injector.Inject(*graph_, split_->test);
    ASSERT_GE(labeled.arrivals.size(), kPrefix + kWindow + kProbes);
    auto slice = [&](size_t begin, size_t n) {
      std::vector<Fact> out;
      for (size_t i = begin; i < begin + n; ++i) {
        out.push_back(labeled.arrivals[i].fact);
      }
      return out;
    };
    prefix_ = new std::vector<Fact>(slice(0, kPrefix));
    window_ = new std::vector<Fact>(slice(kPrefix, kWindow));
    probes_ = new std::vector<Fact>(slice(kPrefix + kWindow, kProbes));

    // Reference A — the old-structure scores of the window: a sequential
    // system that processes prefix + window with no refresh at all.
    {
      AnoT r = AnoT::Build(*train_, RefreshOptions(1));
      for (const Fact& f : *prefix_) r.ProcessArrival(f);
      ref_window_scores_ = new std::vector<Scores>();
      for (const Fact& f : *window_) {
        ref_window_scores_->push_back(r.ProcessArrival(f));
      }
    }

    // Reference B — the contract's right-hand side: synchronous Refresh()
    // at the snapshot point, then IngestValid of the facts the async run
    // ingests during the window, then the probes.
    {
      ref_ = new AnoT(AnoT::Build(*train_, RefreshOptions(1)));
      for (const Fact& f : *prefix_) ref_->ProcessArrival(f);
      ref_->Refresh();
      // Universe sizes the swap's monitor handoff uses: the snapshot
      // state, before the ingest replay grows the graph (mirrors
      // AnoT::ResetMonitorFromReport).
      ref_tier2_ = std::max<double>(2.0, ref_->graph().num_entities());
      const double r_rels =
          std::max<double>(1.0, ref_->graph().num_relations());
      ref_tier1_ = std::max(ref_tier2_ * ref_tier2_ * r_rels, 4.0);
      size_t replayed = 0;
      for (size_t i = 0; i < window_->size(); ++i) {
        if (IngestedAtDefaultThresholds((*ref_window_scores_)[i])) {
          ref_->IngestValid((*window_)[i]);
          ++replayed;
        }
      }
      // Vacuity guards: the window must exercise both replay branches.
      ASSERT_GT(replayed, 0u) << "window never ingests: replay is vacuous";
      ASSERT_LT(replayed, window_->size())
          << "window always ingests: threshold gate is vacuous";
      ref_probe_scores_ = new std::vector<Scores>();
      for (const Fact& f : *probes_) {
        ref_probe_scores_->push_back(ref_->ProcessArrival(f));
      }
    }
  }

  static void TearDownTestSuite() {
    delete ref_probe_scores_;
    delete ref_;
    delete ref_window_scores_;
    delete probes_;
    delete window_;
    delete prefix_;
    delete train_;
    delete split_;
    delete graph_;
    ref_probe_scores_ = nullptr;
    ref_ = nullptr;
    ref_window_scores_ = nullptr;
    probes_ = nullptr;
    window_ = nullptr;
    prefix_ = nullptr;
    train_ = nullptr;
    split_ = nullptr;
    graph_ = nullptr;
  }

  /// The expected post-swap monitor: reset to the post-refresh budget,
  /// then fed the window observations (recorded from old-structure
  /// scores) and the probe observations (new-structure scores), exactly
  /// as ProcessArrival observed them.
  static Monitor ExpectedMonitor() {
    Monitor expected(ref_->report().negative_bits,
                     ref_->report().num_train_timestamps, ref_tier1_,
                     ref_tier2_, RefreshOptions(1).monitor);
    for (size_t i = 0; i < window_->size(); ++i) {
      const Scores& s = (*ref_window_scores_)[i];
      expected.Observe((*window_)[i].time, s.static_support > 0.0,
                       s.associated);
    }
    for (size_t i = 0; i < probes_->size(); ++i) {
      const Scores& s = (*ref_probe_scores_)[i];
      expected.Observe((*probes_)[i].time, s.static_support > 0.0,
                       s.associated);
    }
    return expected;
  }

  static TemporalKnowledgeGraph* graph_;
  static TimeSplit* split_;
  static TemporalKnowledgeGraph* train_;
  static std::vector<Fact>* prefix_;
  static std::vector<Fact>* window_;
  static std::vector<Fact>* probes_;
  static std::vector<Scores>* ref_window_scores_;
  static std::vector<Scores>* ref_probe_scores_;
  static AnoT* ref_;
  static double ref_tier1_;
  static double ref_tier2_;
};

TemporalKnowledgeGraph* RefreshAsyncFixture::graph_ = nullptr;
TimeSplit* RefreshAsyncFixture::split_ = nullptr;
TemporalKnowledgeGraph* RefreshAsyncFixture::train_ = nullptr;
std::vector<Fact>* RefreshAsyncFixture::prefix_ = nullptr;
std::vector<Fact>* RefreshAsyncFixture::window_ = nullptr;
std::vector<Fact>* RefreshAsyncFixture::probes_ = nullptr;
std::vector<Scores>* RefreshAsyncFixture::ref_window_scores_ = nullptr;
std::vector<Scores>* RefreshAsyncFixture::ref_probe_scores_ = nullptr;
AnoT* RefreshAsyncFixture::ref_ = nullptr;
double RefreshAsyncFixture::ref_tier1_ = 0.0;
double RefreshAsyncFixture::ref_tier2_ = 0.0;

// ------------------------------------------- post-swap state equivalence

TEST_F(RefreshAsyncFixture, PostSwapStateBitIdenticalToSyncRefreshPlusReplay) {
  // {1, 4} fallback: each config pays a full offline + background build,
  // so the unset-env sweep stays at one serial and one contended row.
  for (size_t threads : ThreadCountsUnderTest({1, 4})) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    AnoT system = AnoT::Build(*train_, RefreshOptions(threads));
    std::vector<Scores> prefix_scores;
    ProcessAll(&system, *prefix_, &prefix_scores);
    ASSERT_FALSE(system.refresh_in_flight());
    system.RefreshAsync();
    ASSERT_TRUE(system.refresh_in_flight());

    // Window minus the swap-commit fact: served against the old
    // structures while the build runs. The build (a full offline
    // pipeline, >100ms) cannot finish within these ~30 in-process
    // arrivals (~ms); the assert below would catch it if it ever did.
    std::vector<Scores> window_scores;
    std::vector<Fact> pre_swap(window_->begin(), window_->end() - 1);
    ProcessAll(&system, pre_swap, &window_scores);
    ASSERT_TRUE(system.refresh_in_flight())
        << "build finished mid-window; widen the build/serve margin";

    // Deterministic swap point: wait for the staged build, then let the
    // last window fact's commit perform the swap.
    system.WaitForRefreshReady();
    ASSERT_TRUE(system.RefreshReady());
    std::vector<Fact> tail;
    tail.push_back(window_->back());
    tail.insert(tail.end(), probes_->begin(), probes_->end());
    std::vector<Scores> tail_scores;
    ProcessAll(&system, tail, &tail_scores);
    window_scores.push_back(tail_scores.front());
    std::vector<Scores> probe_scores(tail_scores.begin() + 1,
                                     tail_scores.end());
    ASSERT_FALSE(system.refresh_in_flight());
    EXPECT_EQ(system.refresh_count(), 1u);

    // Window scores: the old structures, bit for bit.
    ASSERT_EQ(window_scores.size(), ref_window_scores_->size());
    for (size_t i = 0; i < window_scores.size(); ++i) {
      ExpectScoresIdentical((*ref_window_scores_)[i], window_scores[i], i);
    }
    // Probe scores: the post-swap structures, bit for bit.
    ASSERT_EQ(probe_scores.size(), ref_probe_scores_->size());
    for (size_t i = 0; i < probe_scores.size(); ++i) {
      ExpectScoresIdentical((*ref_probe_scores_)[i], probe_scores[i], i);
    }
    // Post-swap structures and build report.
    EXPECT_EQ(system.rules().ToString(), ref_->rules().ToString());
    EXPECT_EQ(system.graph().num_facts(), ref_->graph().num_facts());
    EXPECT_EQ(system.categories().num_categories(),
              ref_->categories().num_categories());
    EXPECT_EQ(system.report().negative_bits, ref_->report().negative_bits);
    EXPECT_EQ(system.report().model_bits, ref_->report().model_bits);
    EXPECT_EQ(system.report().num_rules, ref_->report().num_rules);
    EXPECT_EQ(system.report().num_edges, ref_->report().num_edges);
    // Monitor handoff: reset to the new budget + replayed window.
    const Monitor expected = ExpectedMonitor();
    EXPECT_EQ(system.monitor().online_negative_bits(),
              expected.online_negative_bits());
    EXPECT_EQ(system.monitor().online_timestamps(),
              expected.online_timestamps());
    EXPECT_EQ(system.monitor().ShouldRefresh(), expected.ShouldRefresh());
    // The swap is a commit boundary: the adopted structures plus the
    // replayed ingest window must be structurally coherent.
    ValidateAtCommitBoundary(system);
  }
}

// -------------------------------------------------- lifecycle edge cases

TEST_F(RefreshAsyncFixture, EmptyWindowSwapEqualsSynchronousRefresh) {
  AnoT async = AnoT::Build(*train_, RefreshOptions(1));
  AnoT sync = AnoT::Build(*train_, RefreshOptions(1));
  for (const Fact& f : *prefix_) {
    async.ProcessArrival(f);
    sync.ProcessArrival(f);
  }
  async.RefreshAsync();
  EXPECT_TRUE(async.refresh_in_flight());
  EXPECT_TRUE(async.FinishRefresh());
  sync.Refresh();
  ValidateAtCommitBoundary(async);
  ValidateAtCommitBoundary(sync);

  EXPECT_EQ(async.refresh_count(), 1u);
  EXPECT_FALSE(async.refresh_in_flight());
  EXPECT_EQ(async.rules().ToString(), sync.rules().ToString());
  EXPECT_EQ(async.graph().num_facts(), sync.graph().num_facts());
  EXPECT_EQ(async.report().negative_bits, sync.report().negative_bits);
  EXPECT_EQ(async.monitor().online_negative_bits(),
            sync.monitor().online_negative_bits());
  EXPECT_EQ(async.monitor().online_timestamps(),
            sync.monitor().online_timestamps());
}

TEST_F(RefreshAsyncFixture, RequestsCoalesceWhileInFlight) {
  AnoT system = AnoT::Build(*train_, RefreshOptions(1));
  system.RefreshAsync();
  system.RefreshAsync();  // coalesced: still the same in-flight build
  EXPECT_TRUE(system.refresh_in_flight());
  EXPECT_TRUE(system.FinishRefresh());
  EXPECT_EQ(system.refresh_count(), 1u);
  EXPECT_FALSE(system.FinishRefresh()) << "nothing left in flight";
  system.RefreshAsync();  // a new cycle is allowed after the swap
  EXPECT_TRUE(system.FinishRefresh());
  EXPECT_EQ(system.refresh_count(), 2u);
}

TEST_F(RefreshAsyncFixture, SynchronousRefreshAbandonsInFlightBuild) {
  AnoT system = AnoT::Build(*train_, RefreshOptions(1));
  AnoT reference = AnoT::Build(*train_, RefreshOptions(1));
  system.RefreshAsync();
  system.Refresh();  // cancels the background build, rebuilds inline
  reference.Refresh();
  EXPECT_FALSE(system.refresh_in_flight());
  EXPECT_EQ(system.refresh_count(), 1u);
  EXPECT_EQ(system.rules().ToString(), reference.rules().ToString());
}

TEST_F(RefreshAsyncFixture, DestructorAndMoveHandleInFlightBuild) {
  {
    AnoT doomed = AnoT::Build(*train_, RefreshOptions(1));
    doomed.RefreshAsync();
    // Destroyed while the build runs: cancelled and joined, no leak/hang.
  }
  AnoT original = AnoT::Build(*train_, RefreshOptions(1));
  original.RefreshAsync();
  AnoT moved = std::move(original);  // background state survives the move
  EXPECT_TRUE(moved.refresh_in_flight());
  EXPECT_TRUE(moved.FinishRefresh());
  EXPECT_EQ(moved.refresh_count(), 1u);
  const Fact& probe = probes_->front();
  (void)moved.Score(probe);  // serving still works post-swap
}

// ------------------------------------------- auto refresh in async mode

TEST_F(RefreshAsyncFixture, AutoRefreshAsyncKeepsServingWhileRebuilding) {
  AnoTOptions options = RefreshOptions(2);
  options.auto_refresh = true;
  options.monitor.mode = MonitorOptions::Mode::kPerTimestamp;
  AnoT system = AnoT::Build(*train_, options);

  // Real facts, then a garbage flood that blows the per-timestamp budget
  // (fires the monitor => background build), then more real facts served
  // while the build runs. Unlike the synchronous mode, every arrival gets
  // a score without waiting for the rebuild.
  std::vector<Fact> stream = *prefix_;
  const EntityId base = static_cast<EntityId>(graph_->num_entities());
  const Timestamp t0 = graph_->max_time() + 1;
  for (int i = 0; i < 24; ++i) {
    // One dense hot timestamp: its open bucket alone blows the
    // per-timestamp budget.
    stream.push_back(Fact(base + i, 0, base + i + 1, t0));
  }
  stream.insert(stream.end(), window_->begin(), window_->end());

  std::vector<Scores> scores;
  ProcessAll(&system, stream, &scores);
  EXPECT_EQ(scores.size(), stream.size());
  const bool launched = system.refresh_in_flight();
  system.FinishRefresh();
  EXPECT_TRUE(launched || system.refresh_count() > 0)
      << "monitor never launched a background refresh: case is vacuous";
  EXPECT_GE(system.refresh_count(), 1u);
  EXPECT_FALSE(system.refresh_in_flight());
  (void)system.Score(probes_->front());  // functional after the swap
}

}  // namespace
}  // namespace anot
