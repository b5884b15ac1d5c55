// End-to-end benchmark of the AnoT online loop (paper §4.3-4.5).
//
//   anot_e2e --workload <name> --seed <n> --seconds <s> --trace <0|1>
//            --work-dir <dir> [--trace-out <file>]
//
// One process generates the TKG and the labelled stream from --seed, builds
// the detector, checks its outputs in an untimed verification pass, then
// replays the stream as identical timed passes (each from a checkpoint of
// the freshly built detector) until --seconds have passed. The last line of
// stdout is one JSON object: the end-to-end metrics (--trace 0) or the
// per-layer metrics derived from recorded spans (--trace 1). Any failed
// check prints the reason on stderr and exits 1 without a result.
// See README.md in this directory for the workloads and the metrics.

#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "anomaly/injector.h"
#include "core/anot.h"
#include "core/builder.h"
#include "core/candidates.h"
#include "datagen/generator.h"
#include "datagen/presets.h"
#include "eval/metrics.h"
#include "mining/category_function.h"
#include "tkg/split.h"

namespace {

using namespace anot;

// ------------------------------------------------------------------ basics

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// CPU time of the whole process. The metrics are timed on this clock, not
/// on the wall clock: on a shared virtual machine the wall clock also counts
/// the time the host gives this vCPU to other guests (steal time, which a
/// KVM guest with paravirtual steal accounting leaves out of its task
/// clock) and the time the guest's scheduler runs other processes. The
/// timed code runs on one thread and never waits, so on an idle machine the
/// two clocks read the same.
int64_t CpuNs() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<int64_t>(ts.tv_sec) * 1000000000 + ts.tv_nsec;
}

[[noreturn]] void Fail(const std::string& what) {
  std::fprintf(stderr, "anot_e2e: check failed: %s\n", what.c_str());
  std::exit(1);
}

void Check(bool ok, const std::string& what) {
  if (!ok) Fail(what);
}

/// SplitMix64 finalizer: derives independent sub-seeds from --seed.
uint64_t MixSeed(uint64_t seed, uint64_t stream) {
  uint64_t z = seed * 0x9E3779B97F4A7C15ULL + stream;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

/// Nearest-rank percentile, p in (0, 1]; sorts `values` in place.
double Percentile(std::vector<double>* values, double p) {
  if (values->empty()) return 0.0;
  std::sort(values->begin(), values->end());
  const double rank = std::ceil(p * static_cast<double>(values->size()));
  const size_t idx = static_cast<size_t>(std::max(1.0, rank)) - 1;
  return (*values)[std::min(idx, values->size() - 1)];
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2]
                    : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

uint64_t Bits(double v) {
  uint64_t b = 0;
  std::memcpy(&b, &v, sizeof b);
  return b;
}

/// Folds every field of a score into a running FNV-1a-style digest, so two
/// passes agree on the digest only if every score agrees bit for bit.
uint64_t Digest(uint64_t h, const Scores& s) {
  const uint64_t words[] = {
      Bits(s.static_score),      Bits(s.temporal_score),
      Bits(s.static_support),    Bits(s.temporal_support),
      Bits(s.temporal_conflict), s.out_violations,
      (uint64_t{s.temporal_evaluated} << 1) | uint64_t{s.associated}};
  for (uint64_t w : words) h = (h ^ w) * 0x100000001B3ULL;
  return h;
}

// --------------------------------------------------------------- workloads

struct WorkloadSpec {
  const char* name;
  bool gdelt;             // GDELT preset, else ICEWS14
  double scale;           // preset scale
  double train_fraction;  // offline slice, share of timestamps
  double val_fraction;    // threshold-tuning slice (drift only uses it)
  bool drift;             // ProcessArrival + own verdicts + sync refresh
  size_t worlds;          // independently generated worlds per run
};

// A run serves several worlds, each generated and injected from its own
// sub-seed of --seed. Cost and quality move with the generated world: one
// pass over one 61-entity GDELT world runs at 16k-60k arrivals/s depending
// on the seed, so with one world per run, runs on different seeds would
// disagree by more than any useful bound. The most seed-sensitive
// workloads get the most worlds.
//
// drift-icews14 is not in BENCHMARK.json: its rebuild-heavy passes follow
// the host's speed (the same seed reran 10% apart, and runs took 33-55 s),
// so its arrivals/s spread over 25% between seeds. It stays runnable.
constexpr WorkloadSpec kWorkloads[] = {
    {"serve-icews14", false, 0.5, 0.6, 0.1, false, 8},
    {"serve-gdelt", true, 0.008, 0.6, 0.1, false, 14},
    {"drift-icews14", false, 0.5, 0.3, 0.1, true, 5},
};

/// One worker for every build and refresh: a fixed count that fits any
/// host.
constexpr size_t kWorkers = 1;
/// Minimum timed rounds per run: the end-to-end timings are medians over
/// identical passes, which need at least three.
constexpr size_t kMinRounds = 3;
/// Minimum distinct ticks per run, so tick_p95_ms has >= 40 ticks above it.
constexpr size_t kMinTicks = 800;
/// Every k-th arrival of the verification pass gets the Eq. 9 recomputation.
constexpr size_t kEq9Stride = 7;

AnoTOptions OptionsFor(const WorkloadSpec& spec) {
  // The experiment harnesses' per-dataset grid winners (§5.2).
  AnoTOptions options;
  options.num_threads = kWorkers;
  options.detector.category.max_categories_per_entity = 3;
  options.detector.category.min_support = 4;
  options.detector.max_recursion_steps = 2;
  options.detector.timespan_tolerance = spec.gdelt ? 75 : 10;
  options.auto_refresh = spec.drift;
  options.refresh_mode = RefreshMode::kSynchronous;
  return options;
}

struct Inputs {
  std::unique_ptr<TemporalKnowledgeGraph> full;
  std::unique_ptr<TemporalKnowledgeGraph> offline;
  EvalStream stream;       // served arrivals + missing candidates
  EvalStream val_stream;   // drift: threshold tuning
  std::vector<size_t> tick_begin;  // tick i = [tick_begin[i], tick_begin[i+1])
};

Inputs MakeInputs(const WorkloadSpec& spec, uint64_t seed, size_t world) {
  GeneratorConfig config = spec.gdelt ? DatasetPresets::Gdelt(spec.scale)
                                      : DatasetPresets::Icews14(spec.scale);
  config.seed = MixSeed(seed, 3 * world + 1);
  Inputs in;
  in.full = SyntheticGenerator(config).Generate();
  const TimeSplit split =
      SplitByTimestamps(*in.full, spec.train_fraction, spec.val_fraction);
  in.offline = Subgraph(*in.full, split.train);

  InjectorConfig injector;  // the paper's 15% per anomaly type
  injector.seed = MixSeed(seed, 3 * world + 2);
  in.stream = AnomalyInjector(injector).Inject(*in.full, split.test);
  if (spec.drift) {
    injector.seed = MixSeed(seed, 3 * world + 3);
    in.val_stream = AnomalyInjector(injector).Inject(*in.full, split.val);
  }

  const auto& arrivals = in.stream.arrivals;
  for (size_t i = 0; i < arrivals.size(); ++i) {
    Check(i == 0 || arrivals[i - 1].fact.time <= arrivals[i].fact.time,
          "stream is not ordered by timestamp");
    if (i == 0 || arrivals[i - 1].fact.time != arrivals[i].fact.time) {
      in.tick_begin.push_back(i);
    }
  }
  in.tick_begin.push_back(arrivals.size());
  Check(!arrivals.empty() && !in.stream.missing_candidates.empty(),
        "empty stream");
  return in;
}

// ------------------------------------------------------------------ tracing

/// A recorded call. `parent` indexes the span that caused it (-1 = root);
/// spans made for one arrival share `arrival` (-1 = none). A span may also
/// have "separate-call" children: the inner layer of a call that covers two
/// layers is timed by its own call just before the outer one and attached
/// as a child, so the outer span's self time is the outer layer's share.
struct Span {
  const char* name;
  int64_t start_ns;
  int64_t end_ns;
  int32_t parent;
  int32_t arrival;
};

class Trace {
 public:
  int32_t Add(const char* name, int32_t parent, int32_t arrival,
              int64_t start_ns, int64_t end_ns) {
    spans_.push_back(Span{name, start_ns, end_ns, parent, arrival});
    return static_cast<int32_t>(spans_.size() - 1);
  }
  int32_t Open(const char* name, int32_t parent) {
    return Add(name, parent, -1, NowNs(), 0);
  }
  void Close(int32_t id) { spans_[id].end_ns = NowNs(); }

  const std::vector<Span>& spans() const { return spans_; }

  /// Duration minus the time its children cover, per span, in ns.
  std::vector<int64_t> SelfTimes() const {
    std::vector<int64_t> self(spans_.size());
    for (size_t i = 0; i < spans_.size(); ++i) {
      self[i] = spans_[i].end_ns - spans_[i].start_ns;
    }
    for (const Span& s : spans_) {
      if (s.parent >= 0) self[s.parent] -= s.end_ns - s.start_ns;
    }
    return self;
  }

  void Write(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) Fail("cannot write trace file " + path);
    const std::vector<int64_t> self = SelfTimes();
    const int64_t origin = spans_.empty() ? 0 : spans_.front().start_ns;
    std::fprintf(f, "id\tname\tparent\tarrival\tstart_ns\tend_ns\tself_ns\n");
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::fprintf(f, "%zu\t%s\t%d\t%d\t%" PRId64 "\t%" PRId64 "\t%" PRId64
                      "\n",
                   i, s.name, s.parent, s.arrival, s.start_ns - origin,
                   s.end_ns - origin, self[i]);
    }
    std::fclose(f);
  }

 private:
  std::vector<Span> spans_;
};

// --------------------------------------------------------------- the loop

struct PassStats {
  uint64_t digest = 0xCBF29CE484222325ULL;
  double stream_s = 0.0;
  size_t arrivals = 0;
  size_t ingests = 0;
  size_t refreshes = 0;
  UpdateEffects effects;
};

bool PassesThresholds(const Scores& s, double static_thr, double time_thr) {
  return s.static_score <= static_thr &&
         (!s.temporal_evaluated || s.temporal_score <= time_thr);
}

/// One timed pass over the stream, untraced: only the per-tick clock (CPU
/// time, see CpuNs).
PassStats TimedPass(const WorkloadSpec& spec, const Inputs& in, AnoT* det,
                    std::vector<double>* tick_ms) {
  PassStats st;
  const auto& arrivals = in.stream.arrivals;
  const size_t refreshes_before = det->refresh_count();
  const int64_t pass_start = CpuNs();
  int64_t tick_start = pass_start;
  for (size_t t = 0; t + 1 < in.tick_begin.size(); ++t) {
    for (size_t i = in.tick_begin[t]; i < in.tick_begin[t + 1]; ++i) {
      const LabeledFact& lf = arrivals[i];
      if (spec.drift) {
        st.digest = Digest(st.digest, det->ProcessArrival(lf.fact));
      } else {
        st.digest = Digest(st.digest, det->Score(lf.fact));
        if (lf.label == AnomalyType::kValid) det->IngestValid(lf.fact);
      }
    }
    const int64_t tick_end = CpuNs();
    tick_ms->push_back(static_cast<double>(tick_end - tick_start) * 1e-6);
    tick_start = tick_end;
  }
  st.stream_s = static_cast<double>(tick_start - pass_start) * 1e-9;
  st.arrivals = arrivals.size();
  st.refreshes = det->refresh_count() - refreshes_before;
  return st;
}

/// One traced pass: a span per tick and per layer call (see Span). On
/// drift, the scorer share of ProcessArrival is timed by a separate Score
/// call, and the ProcessArrival span is named after the layer its self time
/// belongs to: refresh when refresh_count() advanced, updater when the
/// arrival was ingested, monitor otherwise.
PassStats TracedPass(const WorkloadSpec& spec, const Inputs& in, AnoT* det,
                     Trace* trace, int32_t* next_arrival) {
  PassStats st;
  const auto& arrivals = in.stream.arrivals;
  const size_t refreshes_before = det->refresh_count();
  const int64_t pass_cpu = CpuNs();
  const int32_t pass = trace->Open("pass", -1);
  for (size_t t = 0; t + 1 < in.tick_begin.size(); ++t) {
    const int32_t tick = trace->Open("tick", pass);
    for (size_t i = in.tick_begin[t]; i < in.tick_begin[t + 1]; ++i) {
      const LabeledFact& lf = arrivals[i];
      const int32_t id = (*next_arrival)++;
      const int64_t s0 = NowNs();
      const Scores scores = det->Score(lf.fact);
      const int64_t s1 = NowNs();
      if (spec.drift) {
        const size_t refreshes = det->refresh_count();
        const size_t facts = det->graph().num_facts();
        const Scores processed = det->ProcessArrival(lf.fact, &st.effects);
        const int64_t p1 = NowNs();
        const bool refreshed = det->refresh_count() != refreshes;
        const bool ingested = det->graph().num_facts() != facts;
        const char* name = refreshed  ? "refresh.process_arrival"
                           : ingested ? "updater.process_arrival"
                                      : "monitor.process_arrival";
        const int32_t outer = trace->Add(name, tick, id, s1, p1);
        trace->Add("scorer.score", outer, id, s0, s1);
        Check(Digest(0, processed) == Digest(0, scores),
              "ProcessArrival and Score disagree on one arrival");
        st.ingests += ingested ? 1 : 0;
      } else {
        trace->Add("scorer.score", tick, id, s0, s1);
        if (lf.label == AnomalyType::kValid) {
          const int64_t u0 = NowNs();
          st.effects.Accumulate(det->IngestValid(lf.fact));
          trace->Add("updater.ingest_valid", tick, id, u0, NowNs());
          ++st.ingests;
        }
      }
      st.digest = Digest(st.digest, scores);
    }
    trace->Close(tick);
  }
  trace->Close(pass);
  st.stream_s = static_cast<double>(CpuNs() - pass_cpu) * 1e-9;
  st.arrivals = arrivals.size();
  st.refreshes = det->refresh_count() - refreshes_before;
  return st;
}

// ------------------------------------------------------------------ checks

/// Eq. 9 recomputed apart from the scorer: sum |A_v| (at least 1) over the
/// static rules whose relation matches and whose categories the subject
/// and object carry, in ascending rule id, then S = 1 / (support + eps).
void CheckEq9(const AnoT& det, const Fact& fact, const Scores& s) {
  const std::vector<CategoryId>& cs = det.categories().Categories(fact.subject);
  const std::vector<CategoryId>& co = det.categories().Categories(fact.object);
  const RuleGraph& rules = det.rules();
  double support = 0.0;
  for (RuleId id = 0; id < rules.num_rules(); ++id) {
    const AtomicRule& rule = rules.rule(id);
    if (rule.relation != fact.relation || !rules.static_selected(id)) continue;
    if (std::find(cs.begin(), cs.end(), rule.subject_category) == cs.end() ||
        std::find(co.begin(), co.end(), rule.object_category) == co.end()) {
      continue;
    }
    support += std::max<uint32_t>(1, rules.support(id));
  }
  const double score = 1.0 / (support + 1e-9);
  Check(Bits(support) == Bits(s.static_support),
        "Eq. 9 support differs from the scorer's static_support");
  Check(Bits(score) == Bits(s.static_score),
        "Eq. 9 score differs from the scorer's static_score");
}

struct Thresholds {
  double static_thr = 1.0;
  double time_thr = 1.0;
};

/// Share of the validation window's valid arrivals each drift threshold
/// keeps below it.
constexpr double kValidKeep = 0.5;

/// drift-icews14: validity thresholds tuned on the validation stream,
/// scored by the freshly built detector. Each threshold is the kValidKeep
/// quantile of its score over the stream's ground-truth-valid arrivals
/// (temporal: those the lambda gate lets through), an operating point that
/// lets the updater see most valid knowledge on every seed. F_0.5 tuning,
/// the paper's choice for reporting detection quality, flags nearly every
/// arrival as a time error on some seeds, since the time task's PR-AUC sits
/// barely above its base rate; the stream would then ingest nothing.
Thresholds TuneOnValidation(const Inputs& in, const AnoT& det) {
  std::vector<double> static_scores;
  std::vector<double> temporal_scores;
  for (const LabeledFact& lf : in.val_stream.arrivals) {
    if (lf.label != AnomalyType::kValid) continue;
    const Scores s = det.Score(lf.fact);
    static_scores.push_back(s.static_score);
    if (s.temporal_evaluated) temporal_scores.push_back(s.temporal_score);
  }
  Check(!static_scores.empty() && !temporal_scores.empty(),
        "validation stream has no valid arrivals to tune on");
  return Thresholds{Percentile(&static_scores, kValidKeep),
                    Percentile(&temporal_scores, kValidKeep)};
}

double PositiveShare(const std::vector<ScoredExample>& examples) {
  double pos = 0;
  for (const auto& e : examples) pos += e.second ? 1 : 0;
  return pos / static_cast<double>(examples.size());
}

/// Scored examples of the three Table 2 tasks, pooled over a run's worlds.
struct TaskExamples {
  std::vector<ScoredExample> conceptual;
  std::vector<ScoredExample> time;
  std::vector<ScoredExample> missing;
};

struct Verified {
  uint64_t digest = 0;
  size_t ingests = 0;
  size_t refreshes = 0;
};

/// The untimed verification pass: serves the stream once on `det` with
/// every output check, appends the scored examples to `examples`, and
/// returns the score digest each timed pass must reproduce.
Verified VerifyPass(const WorkloadSpec& spec, const Inputs& in, AnoT* det,
                    const Thresholds& thr, const std::string& work_dir,
                    TaskExamples* examples) {
  uint64_t digest = 0xCBF29CE484222325ULL;
  UpdateEffects effects;
  const double lambda = det->options().detector.lambda;
  const size_t facts_before = det->graph().num_facts();
  size_t expected_ingests = 0;
  const auto& arrivals = in.stream.arrivals;
  for (size_t i = 0; i < arrivals.size(); ++i) {
    const LabeledFact& lf = arrivals[i];
    // Eq. 9 is checked against the state the arrival is scored in, so on
    // drift the sampled arrivals are scored once more before ProcessArrival
    // commits them.
    const bool sampled = i % kEq9Stride == 0;
    Scores s;
    if (!spec.drift || sampled) s = det->Score(lf.fact);
    if (sampled) CheckEq9(*det, lf.fact, s);
    if (spec.drift) {
      const Scores processed = det->ProcessArrival(lf.fact, &effects);
      Check(!sampled || Digest(0, processed) == Digest(0, s),
            "ProcessArrival and Score disagree on one arrival");
      s = processed;
      if (PassesThresholds(s, thr.static_thr, thr.time_thr)) {
        ++expected_ingests;
      }
    } else if (lf.label == AnomalyType::kValid) {
      const UpdateEffects e = det->IngestValid(lf.fact);
      Check(e.added_fact && e.facts_ingested == 1,
            "IngestValid did not add the fact");
      effects.Accumulate(e);
      ++expected_ingests;
    }
    Check(s.temporal_evaluated == (s.static_support >= lambda),
          "temporal_evaluated does not match static_support >= lambda");
    digest = Digest(digest, s);
    examples->conceptual.push_back(
        {s.static_score, lf.label == AnomalyType::kConceptual});
    examples->time.push_back(
        {s.temporal_score, lf.label == AnomalyType::kTime});
  }
  const size_t grown = det->graph().num_facts() - facts_before;
  Check(grown == expected_ingests,
        "graph grew by " + std::to_string(grown) + " facts, expected " +
            std::to_string(expected_ingests) + " ingests");
  Check(effects.facts_ingested == expected_ingests,
        "updater counted a different number of ingests");

  // Warm restart of the end-of-pass detector must score the missing
  // candidates bit-identically.
  const std::string path = work_dir + "/verify.ckpt";
  Check(det->SaveCheckpoint(path).ok(), "SaveCheckpoint failed");
  Result<AnoT> reloaded = AnoT::LoadCheckpoint(path);
  Check(reloaded.ok(), "LoadCheckpoint failed");
  std::filesystem::remove(path);
  for (const LabeledFact& lf : in.stream.missing_candidates) {
    const Scores a = det->Score(lf.fact);
    const Scores b = reloaded.value().Score(lf.fact);
    Check(Digest(0, a) == Digest(0, b),
          "reloaded detector scores a missing candidate differently");
    examples->missing.push_back(
        {a.missing_support(), lf.label == AnomalyType::kMissing});
  }
  return Verified{digest, expected_ingests, det->refresh_count()};
}

/// Table 2 PR-AUC of one task; each must beat its positive share.
double CheckedPrAuc(const char* task,
                    const std::vector<ScoredExample>& examples) {
  const double auc = PrAuc(examples);
  const double share = PositiveShare(examples);
  std::fprintf(stderr, "anot_e2e: pr_auc_%s %.4f (positive share %.4f)\n",
               task, auc, share);
  Check(auc > share, std::string("PR-AUC of the ") + task +
                         " task does not beat its positive share");
  return auc;
}

// ------------------------------------------------------------------ output

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

void PrintResult(size_t attempted, const std::vector<Metric>& metrics) {
  std::printf("{\"correct\": true, \"attempted\": %zu, \"failed\": 0, "
              "\"metrics\": {",
              attempted);
  for (size_t i = 0; i < metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.10g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", metrics[i].name.c_str(), metrics[i].value,
                metrics[i].unit);
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

AnoT Load(const std::string& path) {
  Result<AnoT> loaded = AnoT::LoadCheckpoint(path);
  Check(loaded.ok(), "LoadCheckpoint failed on " + path);
  return loaded.MoveValue();
}

double Ms(int64_t ns) { return static_cast<double>(ns) * 1e-6; }

/// Arrivals of one pass over every world, per second of the worlds' median
/// pass times. `pass_s[k]` holds world k's pass times.
double ArrivalsPerS(const std::vector<Inputs>& worlds,
                    const std::vector<std::vector<double>>& pass_s) {
  double arrivals = 0.0;
  double seconds = 0.0;
  for (size_t k = 0; k < worlds.size(); ++k) {
    arrivals += static_cast<double>(worlds[k].stream.arrivals.size());
    seconds += Median(pass_s[k]);
  }
  return arrivals / seconds;
}

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string work_dir = ".";
  std::string trace_out;
};

Args ParseArgs(int argc, char** argv) {
  Args a;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const char* val = argv[i + 1];
    if (key == "--workload") {
      a.workload = val;
    } else if (key == "--seed") {
      a.seed = std::strtoull(val, nullptr, 10);
    } else if (key == "--seconds") {
      a.seconds = std::strtod(val, nullptr);
    } else if (key == "--trace") {
      a.trace = std::strcmp(val, "0") != 0;
    } else if (key == "--work-dir") {
      a.work_dir = val;
    } else if (key == "--trace-out") {
      a.trace_out = val;
    } else {
      Fail("unknown argument " + key);
    }
  }
  if (argc % 2 != 1) Fail("arguments come in --key value pairs");
  return a;
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = ParseArgs(argc, argv);
  const WorkloadSpec* spec = nullptr;
  for (const WorkloadSpec& w : kWorkloads) {
    if (args.workload == w.name) spec = &w;
  }
  if (spec == nullptr) Fail("unknown workload '" + args.workload + "'");

  const AnoTOptions options = OptionsFor(*spec);
  std::vector<Inputs> worlds;
  for (size_t k = 0; k < spec->worlds; ++k) {
    worlds.push_back(MakeInputs(*spec, args.seed, k));
    const Inputs& in = worlds.back();
    std::fprintf(stderr,
                 "anot_e2e: %s seed %" PRIu64 " world %zu: %zu offline "
                 "facts, %zu arrivals in %zu ticks, %zu missing candidates\n",
                 spec->name, args.seed, k, in.offline->num_facts(),
                 in.stream.arrivals.size(), in.tick_begin.size() - 1,
                 in.stream.missing_candidates.size());
  }

  Trace trace;
  std::vector<Metric> layer;
  size_t built_rules = 0;
  size_t built_edges = 0;
  if (args.trace) {
    // Offline layers of world 0, before any AnoT::Build so the candidate
    // pool's rise in the memory high-water mark is visible. Same calls,
    // options and worker count as AnoT::Build makes internally.
    const TemporalKnowledgeGraph& offline = *worlds[0].offline;
    int64_t t0 = NowNs();
    const CategoryFunction categories =
        CategoryFunction::Build(offline, options.detector.category);
    const int32_t cf =
        trace.Add("category_function.build", -1, -1, t0, NowNs());
    const double rss_before = PeakRssMb();
    const int64_t g0 = NowNs();
    int64_t g1 = 0;
    size_t candidate_rules = 0;
    size_t candidate_edges = 0;
    {
      const CandidatePool pool =
          CandidateGenerator(offline, categories, options.detector,
                             options.num_threads)
              .Generate();
      g1 = NowNs();
      candidate_rules = pool.rules.size();
      candidate_edges = pool.edges.size();
    }
    const double rss_rise = PeakRssMb() - rss_before;
    t0 = NowNs();
    const RuleGraphBuilder::Output built =
        RuleGraphBuilder(offline, categories, options.detector,
                         options.num_threads)
            .Build();
    const int32_t builder = trace.Add("builder.build", -1, -1, t0, NowNs());
    const int32_t gen =
        trace.Add("candidates.generate", builder, -1, g0, g1);
    const std::vector<int64_t> self = trace.SelfTimes();
    built_rules = built.rule_graph->num_rules();
    built_edges = built.rule_graph->num_edges();
    const double edges = static_cast<double>(built_edges);
    layer = {
        {"category_function.build_ms", Ms(self[cf]), "ms"},
        {"candidates.generate_ms", Ms(self[gen]), "ms"},
        {"candidates.peak_rss_mb", rss_rise, "MB"},
        {"candidates.rule_count", static_cast<double>(candidate_rules),
         "count"},
        {"candidates.edge_count", static_cast<double>(candidate_edges),
         "count"},
        {"candidates.edge_yield",
         candidate_edges == 0 ? 0.0
                              : edges / static_cast<double>(candidate_edges),
         "ratio"},
        {"builder.select_ms", Ms(self[builder]), "ms"},
        {"builder.rule_count", static_cast<double>(built_rules), "count"},
        {"builder.edge_count", edges, "count"},
    };
  }

  // Set-up of each world: AnoT::Build on its offline slice (Algorithm 1),
  // then the start checkpoint every timed pass restores, then the
  // verification pass on the built detector.
  std::vector<double> setup_s;
  std::vector<std::string> start_paths;
  std::vector<Verified> verified;
  TaskExamples examples;
  size_t attempted = 0;
  for (size_t k = 0; k < worlds.size(); ++k) {
    const Inputs& in = worlds[k];
    const int64_t t0 = CpuNs();
    AnoT det = AnoT::Build(*in.offline, options);
    setup_s.push_back(static_cast<double>(CpuNs() - t0) * 1e-9);
    std::fprintf(stderr,
                 "anot_e2e: world %zu built: %zu of %zu candidate edges "
                 "selected, peak RSS %.0f MB so far\n",
                 k, det.report().num_edges, det.report().num_candidate_edges,
                 PeakRssMb());
    if (args.trace && k == 0) {
      Check(det.rules().num_rules() == built_rules &&
                det.rules().num_edges() == built_edges,
            "layer-by-layer build differs from AnoT::Build");
    }
    Thresholds thr;
    if (spec->drift) {
      thr = TuneOnValidation(in, det);
      det.SetValidityThresholds(thr.static_thr, thr.time_thr);
    }
    start_paths.push_back(args.work_dir + "/start" + std::to_string(k) +
                          ".ckpt");
    Check(det.SaveCheckpoint(start_paths.back()).ok(),
          "SaveCheckpoint failed");
    verified.push_back(
        VerifyPass(*spec, in, &det, thr, args.work_dir, &examples));
    attempted += in.stream.arrivals.size();
  }
  const double pr_auc_conceptual =
      CheckedPrAuc("conceptual", examples.conceptual);
  const double pr_auc_time = CheckedPrAuc("time", examples.time);
  const double pr_auc_missing = CheckedPrAuc("missing", examples.missing);

  // Timed passes in whole rounds, one pass per world, each from that
  // world's start checkpoint. A trace run alternates untraced and traced
  // rounds, so the tracing overhead is measured on the same host phases.
  const std::string end_path = args.work_dir + "/end.ckpt";
  // Stream seconds per world, one entry per pass, [untraced, traced]; the
  // untraced passes' per-tick milliseconds; untraced restart seconds.
  std::vector<std::vector<double>> pass_s[2] = {
      std::vector<std::vector<double>>(worlds.size()),
      std::vector<std::vector<double>>(worlds.size())};
  std::vector<std::vector<std::vector<double>>> pass_ticks(worlds.size());
  std::vector<double> restart_s;
  size_t rounds = 0;
  size_t traced_passes = 0;
  size_t refresh_passes = 0;
  int32_t next_arrival = 0;
  PassStats traced_sum;  // counters summed over traced passes
  double rules_end = 0.0, edges_end = 0.0, pending_end = 0.0;
  double checkpoint_bytes = 0.0;
  const int64_t phase_start = NowNs();
  const auto elapsed_s = [&] {
    return static_cast<double>(NowNs() - phase_start) * 1e-9;
  };
  while (rounds < (args.trace ? 2u : kMinRounds) ||
         elapsed_s() < args.seconds) {
    const bool traced = args.trace && rounds % 2 == 1;
    for (size_t k = 0; k < worlds.size(); ++k) {
      const Inputs& in = worlds[k];
      AnoT d = Load(start_paths[k]);
      std::vector<double> tick_ms;
      const PassStats st =
          traced ? TracedPass(*spec, in, &d, &trace, &next_arrival)
                 : TimedPass(*spec, in, &d, &tick_ms);
      Check(st.digest == verified[k].digest,
            "a timed pass did not reproduce the verified scores");
      pass_s[traced][k].push_back(st.stream_s);
      if (!traced) pass_ticks[k].push_back(std::move(tick_ms));
      attempted += st.arrivals;

      // Warm restart of the end-of-pass detector.
      const int32_t restart = traced ? trace.Open("restart", -1) : -1;
      const int64_t c0 = CpuNs();
      const int64_t r0 = NowNs();
      Check(d.SaveCheckpoint(end_path).ok(), "SaveCheckpoint failed");
      const int64_t r1 = NowNs();
      int64_t r2 = 0;
      int64_t c2 = 0;
      {
        const AnoT back = Load(end_path);
        r2 = NowNs();
        c2 = CpuNs();
        Check(back.graph().num_facts() == d.graph().num_facts() &&
                  back.rules().num_edges() == d.rules().num_edges(),
              "reloaded detector differs from the saved one");
      }
      if (!traced) {
        restart_s.push_back(static_cast<double>(c2 - c0) * 1e-9);
        continue;
      }
      trace.Add("checkpoint.save", restart, -1, r0, r1);
      trace.Add("checkpoint.load", restart, -1, r1, r2);
      trace.Close(restart);
      ++traced_passes;
      traced_sum.ingests += st.ingests;
      traced_sum.effects.Accumulate(st.effects);
      rules_end += static_cast<double>(d.rules().num_rules());
      edges_end += static_cast<double>(d.rules().num_edges());
      pending_end += static_cast<double>(d.updater().pending_rule_count());
      checkpoint_bytes +=
          static_cast<double>(std::filesystem::file_size(end_path));
      if (st.refreshes > 0) {
        ++refresh_passes;
      } else if (refresh_passes == 0) {
        // Refresh is off while serving: time one explicit rebuild of an
        // end-of-pass detector, so the refresh layer is measured here too.
        const int64_t f0 = NowNs();
        d.Refresh();
        trace.Add("refresh.refresh", -1, -1, f0, NowNs());
        ++refresh_passes;
      }
    }
    ++rounds;
  }
  for (const std::string& path : start_paths) std::filesystem::remove(path);
  std::filesystem::remove(end_path);

  if (!args.trace) {
    // Passes of one world repeat identical work, so each world's pass time
    // and each of its ticks' times is the median over its passes: that
    // keeps the host's faster and slower phases during the run out of the
    // figures. The tick percentiles are then taken over every tick of
    // every world.
    std::vector<double> tick_ms;
    for (size_t k = 0; k < worlds.size(); ++k) {
      const std::vector<double>& passes = pass_s[0][k];
      std::fprintf(stderr,
                   "anot_e2e: world %zu: build %.3f s; pass %.2f ms median "
                   "of %zu, %.2f-%.2f ms\n",
                   k, setup_s[k], 1e3 * Median(passes), passes.size(),
                   1e3 * *std::min_element(passes.begin(), passes.end()),
                   1e3 * *std::max_element(passes.begin(), passes.end()));
      for (size_t t = 0; t + 1 < worlds[k].tick_begin.size(); ++t) {
        std::vector<double> samples;
        for (const std::vector<double>& pass : pass_ticks[k]) {
          samples.push_back(pass[t]);
        }
        tick_ms.push_back(Median(std::move(samples)));
      }
    }
    Check(tick_ms.size() >= kMinTicks, "fewer ticks than tick_p95_ms needs");
    const double p50 = Percentile(&tick_ms, 0.50);
    const double p95 = Percentile(&tick_ms, 0.95);
    std::fprintf(stderr,
                 "anot_e2e: %zu rounds of %zu passes, %zu ticks; world 0: "
                 "%zu ingests and %zu refreshes per pass\n",
                 rounds, worlds.size(), tick_ms.size(), verified[0].ingests,
                 verified[0].refreshes);
    PrintResult(attempted,
                {{"setup_s", Median(setup_s), "s"},
                 {"arrivals_per_s", ArrivalsPerS(worlds, pass_s[0]), "1/s"},
                 {"tick_p50_ms", p50, "ms"},
                 {"tick_p95_ms", p95, "ms"},
                 {"restart_s", Median(restart_s), "s"},
                 {"peak_rss_mb", PeakRssMb(), "MB"},
                 {"pr_auc_conceptual", pr_auc_conceptual, "auc"},
                 {"pr_auc_time", pr_auc_time, "auc"},
                 {"pr_auc_missing", pr_auc_missing, "auc"}});
    return 0;
  }

  // Per-layer metrics, derived from the recorded spans. Per-pass figures
  // are means over the traced passes.
  const std::vector<int64_t> self = trace.SelfTimes();
  std::vector<double> score_us, update_us, refresh_ms, save_ms, load_ms;
  double score_ns = 0.0, update_ns = 0.0, refresh_ns = 0.0;
  for (size_t i = 0; i < trace.spans().size(); ++i) {
    const std::string name = trace.spans()[i].name;
    const std::string layer_name = name.substr(0, name.find('.'));
    const double ns = static_cast<double>(self[i]);
    if (name == "scorer.score") {
      score_us.push_back(ns * 1e-3);
      score_ns += ns;
    } else if (layer_name == "updater") {
      update_us.push_back(ns * 1e-3);
      update_ns += ns;
    } else if (layer_name == "refresh") {
      refresh_ms.push_back(ns * 1e-6);
      refresh_ns += ns;
    } else if (name == "checkpoint.save") {
      save_ms.push_back(ns * 1e-6);
    } else if (name == "checkpoint.load") {
      load_ms.push_back(ns * 1e-6);
    }
  }
  const double per_pass = 1.0 / static_cast<double>(traced_passes);
  const double per_refresh_pass = 1.0 / static_cast<double>(refresh_passes);
  const double refresh_max =
      refresh_ms.empty()
          ? 0.0
          : *std::max_element(refresh_ms.begin(), refresh_ms.end());
  const double aps_untraced = ArrivalsPerS(worlds, pass_s[0]);
  const double aps_traced = ArrivalsPerS(worlds, pass_s[1]);
  const UpdateEffects& e = traced_sum.effects;
  const auto mean = [&](double total) { return total * per_pass; };
  const std::vector<Metric> serving = {
      {"scorer.calls", mean(static_cast<double>(score_us.size())), "count"},
      {"scorer.busy_ms", mean(score_ns * 1e-6), "ms"},
      {"scorer.p50_us", Percentile(&score_us, 0.50), "us"},
      {"scorer.p99_us", Percentile(&score_us, 0.99), "us"},
      {"rulegraph.rules_end", mean(rules_end), "count"},
      {"rulegraph.edges_end", mean(edges_end), "count"},
      {"updater.ingests", mean(static_cast<double>(traced_sum.ingests)),
       "count"},
      {"updater.busy_ms", mean(update_ns * 1e-6), "ms"},
      {"updater.p50_us", Percentile(&update_us, 0.50), "us"},
      {"updater.p99_us", Percentile(&update_us, 0.99), "us"},
      {"updater.new_rules", mean(e.new_rule_nodes), "count"},
      {"updater.new_edges", mean(e.new_rule_edges), "count"},
      {"updater.timespans", mean(e.timespans_recorded), "count"},
      {"updater.pending_rules", mean(pending_end), "count"},
      {"refresh.count",
       static_cast<double>(refresh_ms.size()) * per_refresh_pass, "count"},
      {"refresh.busy_ms", refresh_ns * 1e-6 * per_refresh_pass, "ms"},
      {"refresh.max_ms", refresh_max, "ms"},
      {"checkpoint.save_ms", Median(save_ms), "ms"},
      {"checkpoint.load_ms", Median(load_ms), "ms"},
      {"checkpoint.bytes", mean(checkpoint_bytes), "bytes"},
      {"trace.overhead_pct",
       100.0 * (aps_untraced - aps_traced) / aps_untraced, "%"},
  };
  layer.insert(layer.end(), serving.begin(), serving.end());
  if (!args.trace_out.empty()) trace.Write(args.trace_out);
  std::fprintf(stderr,
               "anot_e2e: traced %zu passes, %zu spans; %.0f vs %.0f "
               "arrivals/s untraced vs traced\n",
               traced_passes, trace.spans().size(), aps_untraced,
               aps_traced);
  PrintResult(attempted, layer);
  return 0;
}
