#pragma once

// Shared helpers for the experiment harnesses (one binary per paper
// table/figure). Every harness prints the scale it ran at; set ANOT_SCALE
// to trade fidelity for runtime (1.0 = paper-scale statistics) and
// ANOT_THREADS to pin the worker count used both for each model's offline
// build and for the experiment sweep pool that fits/scores the
// (dataset, model) grid (default: one per hardware thread). Every
// *metric* field a harness prints is bit-identical for every value;
// timing-derived output — the sweep block on stderr, and the
// throughput columns of the fig7/fig8 tables — varies with the worker
// count and from run to run.

#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "baselines/registry.h"
#include "core/anot.h"
#include "datagen/generator.h"
#include "datagen/presets.h"
#include "eval/anot_model.h"
#include "eval/protocol.h"
#include "eval/report.h"
#include "eval/sweep.h"
#include "tkg/split.h"
#include "util/logging.h"
#include "util/string_util.h"
#include "util/thread_pool.h"

namespace anot::bench {

/// Worker count for the offline build, refresh and experiment sweeps:
/// ANOT_THREADS when set (0 = auto), else one worker per hardware
/// thread. Unparseable, negative, or absurd values
/// (strtoul wraps "-1" to ULONG_MAX) fall back to auto instead of asking
/// ThreadPool for billions of workers.
inline size_t EnvThreads() {
  const char* raw = std::getenv("ANOT_THREADS");
  if (raw == nullptr || *raw == '\0') return 0;
  char* end = nullptr;
  const unsigned long value = std::strtoul(raw, &end, 10);
  constexpr unsigned long kMaxThreads = 1024;
  if (end == raw || *raw == '-' || value > kMaxThreads) return 0;
  return static_cast<size_t>(value);
}

/// Per-dataset AnoT hyper-parameters (grid-search winners, §5.2: the
/// timespan restriction L tracks each dataset's temporal footprint).
inline AnoTOptions DefaultAnoTOptions(const std::string& dataset) {
  AnoTOptions options;
  options.num_threads = EnvThreads();
  options.detector.category.max_categories_per_entity = 3;
  options.detector.category.min_support = 4;
  options.detector.max_recursion_steps = 2;
  if (dataset == "ICEWS14") {
    options.detector.timespan_tolerance = 10;
  } else if (dataset == "ICEWS05-15") {
    options.detector.timespan_tolerance = 100;
  } else if (dataset == "YAGO11k") {
    options.detector.timespan_tolerance = 50;
  } else if (dataset == "GDELT") {
    options.detector.timespan_tolerance = 75;
  } else if (dataset == "Wikidata") {
    options.detector.timespan_tolerance = 60;
  } else {
    options.detector.timespan_tolerance = 50;
  }
  return options;
}

struct Workload {
  GeneratorConfig config;
  std::unique_ptr<TemporalKnowledgeGraph> graph;
  TimeSplit split;
};

/// Generates a preset at its default bench scale (times ANOT_SCALE) and
/// splits it 60/10/30.
inline Workload MakeWorkload(const std::string& preset_name) {
  const double scale = DatasetPresets::DefaultBenchScale(preset_name) *
                       DatasetPresets::EnvScale();
  Workload w;
  w.config = DatasetPresets::ByName(preset_name, scale).MoveValue();
  SyntheticGenerator gen(w.config);
  w.graph = gen.Generate();
  w.split = SplitByTimestamps(*w.graph, 0.6, 0.1);
  return w;
}

inline void PrintHeader(const char* what) {
  std::printf("=== %s ===\n", what);
  std::printf(
      "(synthetic presets mirroring Table 1 statistics; ANOT_SCALE=%.3g; "
      "see README \"Deviations from the paper\")\n\n",
      DatasetPresets::EnvScale());
}

/// AnoT options for a *sweep cell*: when the sweep pool itself is
/// parallel, each cell builds with one inner thread — the cells are the
/// parallelism, and N sweep workers each spawning N build workers would
/// oversubscribe the machine. Harmless to results either way: builds are
/// bit-identical for every thread count.
inline AnoTOptions SweepCellAnoTOptions(const std::string& dataset) {
  AnoTOptions options = DefaultAnoTOptions(dataset);
  if (ResolveNumThreads(EnvThreads()) > 1) options.num_threads = 1;
  return options;
}

/// One grid cell over a harness workload. The factory runs inside the
/// cell's own sweep task (per-model RNG seeds never cross cells); the
/// workload is shared const and must outlive the sweep.
inline SweepCell MakeCell(
    const Workload& w, const ProtocolOptions& popts, std::string label,
    std::function<Result<std::unique_ptr<AnomalyModel>>()> factory) {
  SweepCell cell;
  cell.graph = w.graph.get();
  cell.split = &w.split;
  cell.protocol = popts;
  cell.dataset = w.config.name;
  cell.label = std::move(label);
  cell.factory = std::move(factory);
  return cell;
}

/// A registry-baseline cell (paper-default seeds).
inline SweepCell BaselineCell(const Workload& w,
                              const ProtocolOptions& popts,
                              const std::string& name) {
  return MakeCell(w, popts, name, [name] { return MakeBaseline(name); });
}

/// Runs a harness grid on the ANOT_THREADS sweep pool (1 = the reference
/// serial loop) and returns the full SweepResult, cells in declared
/// order — the exact sequence the pre-sweep serial loops produced, each
/// carrying its label and dataset so harnesses never maintain
/// index-parallel bookkeeping. The per-cell timing + speedup block goes
/// to stderr so stdout stays byte-identical across worker counts; a
/// failed cell aborts loudly, because a silently dropped cell would skew
/// every mean the harnesses print.
inline SweepResult RunHarnessSweep(std::vector<SweepCell> cells) {
  SweepSpec spec;
  spec.cells = std::move(cells);
  spec.num_threads = EnvThreads();
  const size_t declared = spec.cells.size();
  SweepResult sweep = RunSweep(spec);
  std::fprintf(stderr, "%s", Reporter::RenderSweepTiming(sweep).c_str());
  for (const SweepCellResult& cell : sweep.cells) {
    ANOT_CHECK(cell.status.ok())
        << "sweep cell " << cell.dataset << "/" << cell.label
        << " failed: " << cell.status.ToString();
  }
  ANOT_CHECK(sweep.cells.size() == declared);
  return sweep;
}

}  // namespace anot::bench
