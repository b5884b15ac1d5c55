// Google-benchmark micro benchmarks for the performance-critical paths:
// TKG ingestion, PrefixSpan mining, MDL primitives, rule-graph
// construction, scoring, and the online updater.

#include <benchmark/benchmark.h>

#include <filesystem>
#include <memory>

#include "core/anot.h"
#include "core/candidates.h"
#include "core/duration.h"
#include "io/checkpoint.h"
#include "datagen/generator.h"
#include "mdl/encoding.h"
#include "mining/category_function.h"
#include "mining/prefixspan.h"
#include "tkg/split.h"
#include "util/thread_pool.h"
#include "util/timer.h"

namespace anot {
namespace {

GeneratorConfig BenchWorld(size_t facts) {
  GeneratorConfig cfg;
  cfg.num_entities = 400;
  cfg.num_relations = 40;
  cfg.num_timestamps = 200;
  cfg.num_facts = facts;
  cfg.num_categories = 8;
  cfg.seed = 7;
  return cfg;
}

// anot-lint: lifetime-ok returns a function-local static leaked for the
// whole benchmark process (immortal storage)
const TemporalKnowledgeGraph& SharedGraph() {
  static auto* graph = [] {
    SyntheticGenerator gen(BenchWorld(12000));
    return gen.Generate().release();
  }();
  return *graph;
}

// anot-lint: lifetime-ok returns a function-local static leaked for the
// whole benchmark process (immortal storage)
const AnoT& SharedSystem() {
  static auto* system = [] {
    TimeSplit split = SplitByTimestamps(SharedGraph(), 0.6, 0.1);
    auto train = Subgraph(SharedGraph(), split.train);
    AnoTOptions options;
    options.detector.timespan_tolerance = 10;
    return new AnoT(AnoT::Build(*train, options));
  }();
  return *system;
}

void BM_TkgAddFact(benchmark::State& state) {
  for (auto _ : state) {
    state.PauseTiming();
    TemporalKnowledgeGraph g;
    state.ResumeTiming();
    for (uint32_t i = 0; i < 2000; ++i) {
      g.AddFact(Fact(i % 97, i % 13, (i * 7) % 89, i % 50));
    }
    benchmark::DoNotOptimize(g.num_facts());
  }
  state.SetItemsProcessed(state.iterations() * 2000);
}
BENCHMARK(BM_TkgAddFact);

// Dictionary probe throughput: string_view lookups against an interned
// symbol table. The transparent-hash dense map must answer these without
// allocating a temporary std::string per probe (the pre-overhaul
// std::unordered_map<std::string, ...> could not).
void BM_DictionaryProbe(benchmark::State& state) {
  Dictionary dict;
  std::vector<std::string> names;
  names.reserve(4096);
  for (int i = 0; i < 4096; ++i) {
    names.push_back("entity_" + std::to_string(i * 37 % 4096));
    dict.GetOrAdd(names.back());
  }
  uint64_t hits = 0;
  for (auto _ : state) {
    for (const std::string& n : names) {
      hits += dict.TryGet(std::string_view(n)).has_value();
    }
  }
  benchmark::DoNotOptimize(hits);
  state.SetItemsProcessed(state.iterations() * names.size());
}
BENCHMARK(BM_DictionaryProbe);

void BM_TkgPairLookup(benchmark::State& state) {
  const auto& g = SharedGraph();
  uint64_t found = 0;
  for (auto _ : state) {
    for (const Fact& f : g.facts()) {
      found += g.FactsForPair(f.subject, f.object) != nullptr;
    }
  }
  benchmark::DoNotOptimize(found);
  state.SetItemsProcessed(state.iterations() * g.num_facts());
}
BENCHMARK(BM_TkgPairLookup);

void BM_PrefixSpan(benchmark::State& state) {
  const auto& g = SharedGraph();
  std::vector<std::vector<uint32_t>> txns(g.num_entities());
  for (EntityId e = 0; e < g.num_entities(); ++e) {
    const auto& tokens = g.RelationTokens(e);
    txns[e].assign(tokens.begin(), tokens.end());
    std::sort(txns[e].begin(), txns[e].end());
  }
  PrefixSpan::Options opts;
  opts.min_support = 5;
  for (auto _ : state) {
    auto patterns = PrefixSpan::Mine(txns, opts);
    benchmark::DoNotOptimize(patterns.size());
  }
}
BENCHMARK(BM_PrefixSpan);

/// True when two category functions hold the same categories (combination
/// and members per id) and assign them to the same entities.
bool CategoryFunctionsIdentical(const CategoryFunction& a,
                                const CategoryFunction& b,
                                size_t num_entities) {
  if (a.num_categories() != b.num_categories()) return false;
  for (CategoryId c = 0; c < a.num_categories(); ++c) {
    if (a.Combination(c) != b.Combination(c) ||
        a.Members(c) != b.Members(c)) {
      return false;
    }
  }
  for (EntityId e = 0; e < num_entities; ++e) {
    if (a.Categories(e) != b.Categories(e)) return false;
  }
  return true;
}

// Category-function build (§4.3.1) on the 12k-fact world at 1/4 worker
// threads, timed in wall clock on a worker pool built outside the timed
// loop. The threaded row first compares its categories with a 1-thread
// build and fails the benchmark if they ever disagree.
void BM_CategoryFunctionBuild(benchmark::State& state) {
  const auto& g = SharedGraph();
  CategoryFunctionOptions opts;
  const size_t threads = static_cast<size_t>(state.range(0));
  std::unique_ptr<ThreadPool> workers;
  if (threads > 1) workers = std::make_unique<ThreadPool>(threads);

  if (workers != nullptr &&
      !CategoryFunctionsIdentical(CategoryFunction::Build(g, opts),
                                  CategoryFunction::Build(g, opts,
                                                          workers.get()),
                                  g.num_entities())) {
    state.SkipWithError(
        "1-thread and N-thread category functions disagree; timings are "
        "meaningless");
    return;
  }

  for (auto _ : state) {
    auto fn = CategoryFunction::Build(g, opts, workers.get());
    benchmark::DoNotOptimize(fn.num_categories());
  }
}
BENCHMARK(BM_CategoryFunctionBuild)
    ->Arg(1)
    ->Arg(4)
    ->ArgName("threads")
    ->UseRealTime();

void BM_MdlNegativeErrorBits(benchmark::State& state) {
  double acc = 0;
  for (auto _ : state) {
    for (int i = 0; i < 1000; ++i) {
      acc += NegativeErrorBitsAt(1e10, 1e3, 50, i % 50, i % 20);
    }
  }
  benchmark::DoNotOptimize(acc);
  state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_MdlNegativeErrorBits);

// Offline rule-graph construction at 1/2/4 worker threads, timed in wall
// clock. The build is bit-identical across thread counts, so the rows are
// directly comparable speedup measurements; threaded rows verify that
// identity against a 1-thread reference before timing (on the small world
// only — identity is thread-count-dependent, not size-dependent) and fail
// the benchmark if the outputs ever disagree.
void BM_RuleGraphBuild(benchmark::State& state) {
  const size_t facts = static_cast<size_t>(state.range(0));
  SyntheticGenerator gen(BenchWorld(facts));
  auto graph = gen.Generate();
  AnoTOptions options;
  options.detector.timespan_tolerance = 10;
  options.num_threads = static_cast<size_t>(state.range(1));
  if (options.num_threads > 1 && facts <= 3000) {
    AnoTOptions serial_options = options;
    serial_options.num_threads = 1;
    AnoT serial = AnoT::Build(*graph, serial_options);
    AnoT parallel = AnoT::Build(*graph, options);
    if (serial.rules().num_rules() != parallel.rules().num_rules() ||
        serial.rules().num_edges() != parallel.rules().num_edges() ||
        serial.report().total_bits() != parallel.report().total_bits()) {
      state.SkipWithError(
          "1-thread and N-thread builds disagree; timings are meaningless");
      return;
    }
  }
  for (auto _ : state) {
    AnoT system = AnoT::Build(*graph, options);
    benchmark::DoNotOptimize(system.rules().num_edges());
  }
  state.SetItemsProcessed(state.iterations() * graph->num_facts());
}
BENCHMARK(BM_RuleGraphBuild)
    ->ArgsProduct({{3000, 12000}, {1, 2, 4}})
    ->ArgNames({"facts", "threads"})
    ->UseRealTime();

/// True when two candidate pools hold the same rules in the same order with
/// the same assertions, and the same edges with the same endpoints, tail
/// facts and timespans.
bool PoolsIdentical(const CandidatePool& a, const CandidatePool& b) {
  if (a.rules.size() != b.rules.size() || a.edges.size() != b.edges.size()) {
    return false;
  }
  for (size_t i = 0; i < a.rules.size(); ++i) {
    if (!(a.rules[i].rule == b.rules[i].rule) ||
        a.rules[i].assertions != b.rules[i].assertions) {
      return false;
    }
  }
  for (size_t i = 0; i < a.edges.size(); ++i) {
    const EdgeCandidate& x = a.edges[i];
    const EdgeCandidate& y = b.edges[i];
    if (x.kind != y.kind || x.head != y.head || x.mid != y.mid ||
        x.tail != y.tail || x.tail_facts != y.tail_facts ||
        x.timespans != y.timespans) {
      return false;
    }
  }
  return true;
}

// Candidate generation (§4.3.2) alone on the small world at 1/4 worker
// threads, timed in wall clock. The category function and the worker pool
// are built once, outside the timed loop, and each iteration runs
// Generate() on that pool as the rule-graph builder does. The threaded row
// first compares its pool with a 1-thread pool and fails the benchmark if
// they ever disagree.
void BM_CandidateGeneration(benchmark::State& state) {
  SyntheticGenerator gen(BenchWorld(3000));
  auto graph = gen.Generate();
  DetectorOptions options;
  options.timespan_tolerance = 10;
  const CategoryFunction categories =
      CategoryFunction::Build(*graph, options.category);
  const size_t threads = static_cast<size_t>(state.range(0));
  const CandidateGenerator generator(*graph, categories, options, threads);
  std::unique_ptr<ThreadPool> workers;
  if (threads > 1) workers = std::make_unique<ThreadPool>(threads);

  if (workers != nullptr &&
      !PoolsIdentical(
          CandidateGenerator(*graph, categories, options, 1).Generate(),
          generator.Generate(workers.get()))) {
    state.SkipWithError(
        "1-thread and N-thread candidate pools disagree; timings are "
        "meaningless");
    return;
  }

  for (auto _ : state) {
    CandidatePool pool = generator.Generate(workers.get());
    benchmark::DoNotOptimize(pool.edges.size());
  }
  state.SetItemsProcessed(state.iterations() * graph->num_facts());
}
BENCHMARK(BM_CandidateGeneration)
    ->Arg(1)
    ->Arg(4)
    ->ArgName("threads")
    ->UseRealTime();

// Four-view duration ensemble build (§4.7), timed in wall clock: views
// parallelize across the pool on top of the sharded per-view pipeline.
void BM_DurationFourViewBuild(benchmark::State& state) {
  SyntheticGenerator gen(BenchWorld(3000));
  auto graph = gen.Generate();
  AnoTOptions options;
  options.detector.timespan_tolerance = 10;
  options.num_threads = static_cast<size_t>(state.range(0));
  for (auto _ : state) {
    DurationAnoT system =
        DurationAnoT::Build(*graph, options, DurationStrategy::kFourGraphs);
    benchmark::DoNotOptimize(system.num_views());
  }
}
BENCHMARK(BM_DurationFourViewBuild)
    ->Arg(1)
    ->Arg(4)
    ->ArgName("threads")
    ->UseRealTime();

// Full-state checkpoint write + read-back of the shared detector. Before
// any timing, the restored detector must score a probe slice identically
// to the original (the equivalence-gate pattern of the build rows):
// a fast but wrong serializer must fail the benchmark, not win it.
void BM_CheckpointSaveLoad(benchmark::State& state) {
  const bool load = state.range(0) != 0;
  const AnoT& system = SharedSystem();
  const std::string path =
      (std::filesystem::temp_directory_path() / "anot_bm_ckpt.bin").string();
  if (!system.SaveCheckpoint(path).ok()) {
    state.SkipWithError("checkpoint save failed");
    return;
  }
  {
    Result<AnoT> restored = AnoT::LoadCheckpoint(path);
    if (!restored.ok()) {
      state.SkipWithError("checkpoint load failed");
      return;
    }
    const auto& facts = SharedGraph().facts();
    for (size_t i = 0; i < std::min<size_t>(256, facts.size()); ++i) {
      const Scores a = system.Score(facts[i]);
      const Scores b = restored.value().Score(facts[i]);
      if (a.static_score != b.static_score ||
          a.temporal_score != b.temporal_score) {
        state.SkipWithError(
            "restored detector diverges from the original; timings are "
            "meaningless");
        return;
      }
    }
  }
  for (auto _ : state) {
    if (load) {
      Result<AnoT> restored = AnoT::LoadCheckpoint(path);
      benchmark::DoNotOptimize(restored.ok());
    } else {
      const Status st = system.SaveCheckpoint(path);
      benchmark::DoNotOptimize(st.ok());
    }
  }
  state.SetBytesProcessed(
      static_cast<int64_t>(state.iterations() *
                           std::filesystem::file_size(path)));
  std::filesystem::remove(path);
}
BENCHMARK(BM_CheckpointSaveLoad)->Arg(0)->Arg(1)->ArgName("load");

void BM_StaticAndTemporalScoring(benchmark::State& state) {
  const AnoT& system = SharedSystem();
  const auto& facts = SharedGraph().facts();
  size_t i = 0;
  for (auto _ : state) {
    const Scores s = system.Score(facts[i++ % facts.size()]);
    benchmark::DoNotOptimize(s.temporal_score);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_StaticAndTemporalScoring);

// Worst per-arrival stall while a rule-graph refresh runs. Synchronous
// mode pays the entire rebuild inside the arrival that triggered it;
// asynchronous mode snapshots, rebuilds on a background thread while the
// old scorer keeps serving, and charges only the snapshot copy plus the
// swap replay to arrivals. The max_stall_us counter is the comparison:
// async must be >= 10x below sync (the PR's latency-cliff acceptance).
void BM_RefreshStall(benchmark::State& state) {
  const bool async = state.range(0) != 0;
  TimeSplit split = SplitByTimestamps(SharedGraph(), 0.6, 0.1);
  auto train = Subgraph(SharedGraph(), split.train);
  AnoTOptions options;
  options.detector.timespan_tolerance = 10;
  options.refresh_mode =
      async ? RefreshMode::kAsynchronous : RefreshMode::kSynchronous;
  AnoT system = AnoT::Build(*train, options);

  const size_t kArrivals = 256;
  double max_stall_us = 0.0;
  size_t next = 0;
  auto timed_arrival = [&](bool trigger_refresh) {
    const Fact f =
        SharedGraph().fact(split.test[next++ % split.test.size()]);
    WallTimer timer;
    if (trigger_refresh) {
      // Emulates the monitor firing at this commit.
      if (async) {
        system.RefreshAsync();
      } else {
        system.Refresh();
      }
    }
    system.ProcessArrival(f);
    max_stall_us = std::max(max_stall_us, timer.ElapsedSeconds() * 1e6);
  };
  for (auto _ : state) {
    for (size_t i = 0; i < kArrivals; ++i) timed_arrival(i == 0);
    if (async) {
      // The background build outlives the short arrival burst; charge the
      // swap (adopt + replay) to the arrival whose commit performs it,
      // excluding the idle wait for the builder.
      system.WaitForRefreshReady();
      timed_arrival(false);
    }
  }
  state.counters["max_stall_us"] = max_stall_us;
  state.SetItemsProcessed(state.iterations() * kArrivals);
}
BENCHMARK(BM_RefreshStall)
    ->Arg(0)
    ->Arg(1)
    ->ArgName("async")
    ->Unit(benchmark::kMillisecond)
    ->Iterations(3)
    ->UseRealTime();

void BM_UpdaterIngest(benchmark::State& state) {
  TimeSplit split = SplitByTimestamps(SharedGraph(), 0.6, 0.1);
  auto train = Subgraph(SharedGraph(), split.train);
  AnoTOptions options;
  options.detector.timespan_tolerance = 10;
  AnoT system = AnoT::Build(*train, options);
  size_t i = 0;
  for (auto _ : state) {
    const Fact& f = SharedGraph().fact(split.test[i++ % split.test.size()]);
    benchmark::DoNotOptimize(system.IngestValid(f).added_fact);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_UpdaterIngest);

}  // namespace
}  // namespace anot

BENCHMARK_MAIN();
