#include <gtest/gtest.h>

#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "baselines/registry.h"
#include "datagen/generator.h"
#include "eval/protocol.h"
#include "eval/report.h"
#include "eval/sweep.h"
#include "tkg/split.h"

namespace anot {
namespace {

/// The sweep's contract is *byte*-identity of every metric field against
/// the reference serial loop; timing fields (fit/test seconds,
/// throughput, latency percentiles) are the only ones allowed to differ.
void ExpectSameMetrics(const EvalResult& expected, const EvalResult& actual) {
  EXPECT_EQ(expected.model, actual.model);
  EXPECT_EQ(expected.dataset, actual.dataset);
  auto expect_task = [](const TaskResult& e, const TaskResult& a,
                        const char* task) {
    EXPECT_EQ(e.precision, a.precision) << task;
    EXPECT_EQ(e.f_beta, a.f_beta) << task;
    EXPECT_EQ(e.pr_auc, a.pr_auc) << task;
  };
  expect_task(expected.conceptual, actual.conceptual, "conceptual");
  expect_task(expected.time, actual.time, "time");
  expect_task(expected.missing, actual.missing, "missing");
}

struct TestWorkload {
  std::unique_ptr<TemporalKnowledgeGraph> graph;
  TimeSplit split;
  std::string name;
};

class SweepTest : public ::testing::Test {
 protected:
  // One (workload, model) grid of ten cells, mixing deterministic
  // (F-FADE, DynAnom) and stochastic (DE, TA, TADDY) models over two
  // distinct shared-const worlds.
  static constexpr size_t kNumCells = 10;
  static constexpr const char* kModels[5] = {"F-FADE", "DynAnom", "DE",
                                             "TA", "TADDY"};

  static void SetUpTestSuite() {
    workloads_ = new std::vector<TestWorkload>();
    for (int i = 0; i < 2; ++i) {
      GeneratorConfig cfg;
      cfg.num_entities = 100;
      cfg.num_relations = 12;
      cfg.num_timestamps = 60;
      cfg.num_facts = 1000;
      cfg.num_categories = 4;
      cfg.num_chain_rules = 3;
      cfg.num_triadic_rules = 1;
      cfg.seed = 71 + i;
      SyntheticGenerator gen(cfg);
      TestWorkload w;
      w.graph = gen.Generate();
      w.split = SplitByTimestamps(*w.graph, 0.6, 0.1);
      w.name = "world" + std::to_string(i);
      workloads_->push_back(std::move(w));
    }
    // The reference: the pre-sweep serial harness loop, one model at a
    // time on the calling thread.
    reference_ = new std::vector<EvalResult>();
    for (size_t i = 0; i < kNumCells; ++i) {
      const TestWorkload& w = (*workloads_)[i / 5];
      auto model = MakeBaseline(kModels[i % 5]).MoveValue();
      EvalResult r =
          RunProtocol(*w.graph, w.split, model.get(), ProtocolOptions{});
      r.dataset = w.name;
      reference_->push_back(std::move(r));
    }
  }

  static void TearDownTestSuite() {
    delete reference_;
    delete workloads_;
    reference_ = nullptr;
    workloads_ = nullptr;
  }

  /// Cell i of the canonical ten-cell grid.
  static SweepCell CellAt(size_t i) {
    const TestWorkload& w = (*workloads_)[i / 5];
    const std::string name = kModels[i % 5];
    SweepCell cell;
    cell.graph = w.graph.get();
    cell.split = &w.split;
    cell.protocol = ProtocolOptions{};
    cell.dataset = w.name;
    cell.label = name;
    cell.factory = [name] { return MakeBaseline(name); };
    return cell;
  }

  static SweepSpec SpecWith(size_t num_cells, size_t num_threads) {
    SweepSpec spec;
    spec.num_threads = num_threads;
    for (size_t i = 0; i < num_cells; ++i) spec.cells.push_back(CellAt(i));
    return spec;
  }

  static std::vector<TestWorkload>* workloads_;
  static std::vector<EvalResult>* reference_;
};

std::vector<TestWorkload>* SweepTest::workloads_ = nullptr;
std::vector<EvalResult>* SweepTest::reference_ = nullptr;
constexpr const char* SweepTest::kModels[5];

TEST_F(SweepTest, MatchesSerialReferenceAcrossThreadAndCellCounts) {
  for (size_t threads : {1u, 2u, 4u}) {
    for (size_t cells : {1u, 3u, 10u}) {
      SCOPED_TRACE("threads=" + std::to_string(threads) +
                   " cells=" + std::to_string(cells));
      const SweepResult sweep = RunSweep(SpecWith(cells, threads));
      EXPECT_EQ(sweep.num_threads, threads);
      ASSERT_EQ(sweep.cells.size(), cells);
      EXPECT_EQ(sweep.num_failed(), 0u);
      for (size_t i = 0; i < cells; ++i) {
        SCOPED_TRACE("cell=" + std::to_string(i));
        ASSERT_TRUE(sweep.cells[i].status.ok())
            << sweep.cells[i].status.ToString();
        ExpectSameMetrics((*reference_)[i], sweep.cells[i].result);
        EXPECT_EQ(sweep.cells[i].label, kModels[i % 5]);
        EXPECT_EQ(sweep.cells[i].dataset, (*workloads_)[i / 5].name);
      }
      // Results() preserves declared cell order.
      const std::vector<EvalResult> results = sweep.Results();
      ASSERT_EQ(results.size(), cells);
      for (size_t i = 0; i < cells; ++i) {
        EXPECT_EQ(results[i].model, (*reference_)[i].model);
      }
    }
  }
}

TEST_F(SweepTest, FailedFactoryCellDoesNotPoisonOthers) {
  SweepSpec spec = SpecWith(kNumCells, 4);
  // An unknown registry name: the factory itself reports the error.
  spec.cells[4].label = "nope";
  spec.cells[4].factory = [] { return MakeBaseline("nope"); };
  const SweepResult sweep = RunSweep(spec);
  ASSERT_EQ(sweep.cells.size(), kNumCells);
  EXPECT_EQ(sweep.num_failed(), 1u);
  EXPECT_FALSE(sweep.cells[4].status.ok());
  EXPECT_EQ(sweep.cells[4].status.code(), StatusCode::kNotFound);
  for (size_t i = 0; i < kNumCells; ++i) {
    if (i == 4) continue;
    SCOPED_TRACE("cell=" + std::to_string(i));
    ASSERT_TRUE(sweep.cells[i].status.ok());
    ExpectSameMetrics((*reference_)[i], sweep.cells[i].result);
  }
  // Results() drops the failed cell but keeps declared order.
  const std::vector<EvalResult> results = sweep.Results();
  ASSERT_EQ(results.size(), kNumCells - 1);
  for (size_t i = 0, k = 0; i < kNumCells; ++i) {
    if (i == 4) continue;
    EXPECT_EQ(results[k++].model, (*reference_)[i].model);
  }
}

TEST_F(SweepTest, ThrowingFactoryIsSurfacedAsInternalError) {
  SweepSpec spec = SpecWith(3, 2);
  spec.cells[1].factory =
      []() -> Result<std::unique_ptr<AnomalyModel>> {
    throw std::runtime_error("boom");
  };
  const SweepResult sweep = RunSweep(spec);
  EXPECT_EQ(sweep.num_failed(), 1u);
  EXPECT_EQ(sweep.cells[1].status.code(), StatusCode::kInternal);
  EXPECT_NE(sweep.cells[1].status.message().find("boom"), std::string::npos);
  ExpectSameMetrics((*reference_)[0], sweep.cells[0].result);
  ExpectSameMetrics((*reference_)[2], sweep.cells[2].result);
}

TEST_F(SweepTest, MisconfiguredCellsAreInvalidArgument) {
  SweepSpec spec = SpecWith(2, 1);
  spec.cells[0].graph = nullptr;    // no workload
  spec.cells[1].factory = nullptr;  // no factory
  const SweepResult sweep = RunSweep(spec);
  EXPECT_EQ(sweep.num_failed(), 2u);
  EXPECT_EQ(sweep.cells[0].status.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(sweep.cells[1].status.code(), StatusCode::kInvalidArgument);
}

TEST_F(SweepTest, TimingAndSpeedupArePopulated) {
  const SweepResult sweep = RunSweep(SpecWith(3, 2));
  EXPECT_GT(sweep.wall_seconds, 0.0);
  EXPECT_GT(sweep.serial_seconds, 0.0);
  EXPECT_GT(sweep.Speedup(), 0.0);
  for (const SweepCellResult& cell : sweep.cells) {
    EXPECT_GT(cell.cell_seconds, 0.0);
  }
  const std::string rendered = Reporter::RenderSweepTiming(sweep);
  EXPECT_NE(rendered.find("sweep: 3 cells"), std::string::npos);
  EXPECT_NE(rendered.find("F-FADE"), std::string::npos);
}

TEST_F(SweepTest, EmptySweepIsANoOp) {
  const SweepResult sweep = RunSweep(SweepSpec{});
  EXPECT_TRUE(sweep.cells.empty());
  EXPECT_EQ(sweep.num_failed(), 0u);
  EXPECT_TRUE(sweep.Results().empty());
}

}  // namespace
}  // namespace anot
