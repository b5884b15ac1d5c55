// Checkpoint / warm-restart harness: measures checkpoint size and
// save/load wall time per dataset preset, after *verifying* the restart
// contract — a detector saved mid-stream and reloaded must score a probe
// slice bit-identically to the original (the same equivalence gate the
// bench_micro build rows use: if the paths disagree, timings are
// meaningless and the harness aborts loudly).

#include <cstdint>
#include <deque>
#include <filesystem>

#include "common.h"
#include "io/checkpoint.h"
#include "util/timer.h"

using namespace anot;
using namespace anot::bench;

int main() {
  PrintHeader("Checkpoint: size and warm-restart save/load cost");

  std::vector<std::vector<std::string>> rows;
  for (const char* dataset : {"icews14", "gdelt"}) {
    const Workload w = MakeWorkload(dataset);
    auto train = Subgraph(*w.graph, w.split.train);
    AnoT system = AnoT::Build(*train, DefaultAnoTOptions(w.config.name));

    // Grow past the offline build so the checkpoint carries live online
    // state (grown TKG, monitor window, pending rules).
    const size_t arrivals = std::min<size_t>(500, w.split.test.size());
    for (size_t i = 0; i < arrivals; ++i) {
      system.ProcessArrival(w.graph->fact(w.split.test[i]));
    }

    const std::string path =
        (std::filesystem::temp_directory_path() /
         ("anot_exp_checkpoint_" + w.config.name + ".bin"))
            .string();
    WallTimer save_timer;
    ANOT_CHECK(system.SaveCheckpoint(path).ok()) << "save failed";
    const double save_ms = save_timer.ElapsedMillis();
    const uint64_t bytes = std::filesystem::file_size(path);

    WallTimer load_timer;
    Result<AnoT> loaded = AnoT::LoadCheckpoint(path);
    const double load_ms = load_timer.ElapsedMillis();
    ANOT_CHECK(loaded.ok()) << loaded.status().ToString();
    std::filesystem::remove(path);

    // Equivalence gate: the reloaded detector must be indistinguishable
    // from the original on a probe slice before any timing is reported.
    const size_t probe_end =
        std::min(w.split.test.size(), arrivals + 256);
    for (size_t i = arrivals; i < probe_end; ++i) {
      const Fact f = w.graph->fact(w.split.test[i]);
      const Scores a = system.Score(f);
      const Scores b = loaded.value().Score(f);
      ANOT_CHECK(a.static_score == b.static_score &&
                 a.temporal_score == b.temporal_score)
          << "restored detector diverges from the original at probe fact "
          << i << "; timings are meaningless";
    }

    rows.push_back({w.config.name, std::to_string(system.graph().num_facts()),
                    std::to_string(bytes), FormatDouble(save_ms, 2),
                    FormatDouble(load_ms, 2)});
  }

  std::printf("%s\n",
              Reporter::RenderTable(
                  {"Dataset", "facts", "ckpt bytes", "save ms", "load ms"},
                  rows)
                  .c_str());
  return 0;
}
