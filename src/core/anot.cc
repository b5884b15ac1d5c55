#include "core/anot.h"

#include <atomic>
#include <cmath>
#include <thread>
#include <utility>

#include "util/logging.h"

namespace anot {

namespace {

std::unique_ptr<TemporalKnowledgeGraph> CopyGraph(
    const TemporalKnowledgeGraph& src) {
  auto out = std::make_unique<TemporalKnowledgeGraph>();
  for (size_t e = 0; e < src.entity_dict().size(); ++e) {
    out->entity_dict().GetOrAdd(src.entity_dict().Name(e));
  }
  for (size_t r = 0; r < src.relation_dict().size(); ++r) {
    out->relation_dict().GetOrAdd(src.relation_dict().Name(r));
  }
  for (const Fact& f : src.facts()) out->AddFact(f);
  return out;
}

}  // namespace

/// One double-buffered rebuild. The worker thread touches only this
/// struct (snapshot in, built structures out) — never the owning AnoT,
/// whose address changes under moves. This is a lock-free single-producer
/// (worker) / single-consumer (serving thread) handoff, so the ownership
/// contract lives in the two atomics below instead of a mutex; the
/// concurrency lint requires every atomic to carry its `anot-sync:`
/// contract, and the field-by-field ownership is spelled out per member.
struct AnoT::AsyncRefresh {
  /// Written by the serving thread before the worker starts (the thread
  /// constructor provides the happens-before); read-only input to the
  /// worker after that; re-read by the serving thread only after the
  /// `ready` acquire (or the join in CompleteRefresh), when the worker
  /// has finished with it.
  std::unique_ptr<TemporalKnowledgeGraph> snapshot;
  /// Worker-owned while the build runs. Published to the serving thread
  /// by the `ready` release store; the serving thread must not touch it
  /// before an acquire load of `ready` returns true (or the worker is
  /// joined, which orders at least as strongly).
  BuiltStructures built;
  /// anot-sync: serving thread -> worker abort request. Relaxed is
  /// enough: it carries no payload — the worker polls it between build
  /// stages and simply stops; the join below is the real synchronization
  /// point for everything the cancelled worker wrote.
  std::atomic<bool> cancel{false};
  /// anot-sync: publication flag for `built` (and `snapshot` reuse).
  /// Worker stores true with memory_order_release after its last write;
  /// the serving thread reads with memory_order_acquire (RefreshReady /
  /// MaybeCompleteRefresh), so observing true makes every build-side
  /// write visible. The release/acquire pair IS the handoff; downgrade
  /// either side and the struct races.
  std::atomic<bool> ready{false};
  std::thread worker;

  ~AsyncRefresh() {
    cancel.store(true, std::memory_order_relaxed);
    if (worker.joinable()) worker.join();
  }
};

AnoT::AnoT() = default;
AnoT::AnoT(AnoT&&) noexcept = default;
AnoT& AnoT::operator=(AnoT&&) noexcept = default;
AnoT::~AnoT() = default;

AnoT AnoT::Build(const TemporalKnowledgeGraph& offline,
                 const AnoTOptions& options) {
  AnoT anot;
  anot.options_ = std::make_unique<AnoTOptions>(options);
  if (!options.detector.use_category_aggregation) {
    // Table 3 ablation: skip the aggregation passes entirely.
    anot.options_->detector.category.max_aggregation_rounds = 0;
  }
  anot.graph_ = CopyGraph(offline);
  anot.Rebuild();
  return anot;
}

AnoT::BuiltStructures AnoT::BuildStructures(
    const TemporalKnowledgeGraph& graph, const AnoTOptions& options,
    ThreadPool* workers, const std::atomic<bool>* cancel) {
  BuiltStructures out;
  {
    // The category build shards on the caller's pool when given one;
    // otherwise on a scoped transient pool, so pool creation stays lazy
    // for offline-only users. Results are bit-identical for every count.
    std::unique_ptr<ThreadPool> transient;
    if (workers == nullptr) {
      const size_t threads = ResolveNumThreads(options.num_threads);
      if (threads > 1) {
        transient = std::make_unique<ThreadPool>(threads);
        workers = transient.get();
      }
    }
    out.categories = std::make_unique<CategoryFunction>(CategoryFunction::Build(
        graph, options.detector.category, workers, cancel));
  }
  if (cancel != nullptr && cancel->load(std::memory_order_relaxed)) {
    return out;  // incomplete: caller discards
  }
  RuleGraphBuilder builder(graph, *out.categories, options.detector,
                           options.num_threads);
  auto built = builder.Build(cancel);
  out.rules = std::move(built.rule_graph);
  out.report = built.report;
  return out;
}

void AnoT::Rebuild() {
  BuiltStructures built =
      BuildStructures(*graph_, *options_, /*workers=*/nullptr,
                      /*cancel=*/nullptr);
  categories_ = std::move(built.categories);
  rules_ = std::move(built.rules);
  report_ = built.report;
  RecreateServingObjects();
  ResetMonitorFromReport();
}

void AnoT::RecreateServingObjects() {
  scorer_ = std::make_unique<Scorer>(graph_.get(), categories_.get(),
                                     rules_.get(), &options_->detector);
  updater_ = std::make_unique<Updater>(graph_.get(), categories_.get(),
                                       rules_.get(), &options_->detector,
                                       options_->updater);
}

void AnoT::ResetMonitorFromReport() {
  const double e = std::max<double>(2.0, graph_->num_entities());
  const double r = std::max<double>(1.0, graph_->num_relations());
  monitor_ = std::make_unique<Monitor>(report_.negative_bits,
                                       report_.num_train_timestamps,
                                       std::max(e * e * r, 4.0), e,
                                       options_->monitor);
}

Scores AnoT::Score(const Fact& fact) const { return scorer_->Score(fact); }

Scores AnoT::ScoreWithEvidence(const Fact& fact, Evidence* evidence) const {
  return scorer_->Score(fact, evidence);
}

void AnoT::SetValidityThresholds(double static_threshold,
                                 double temporal_threshold) {
  static_threshold_ = static_threshold;
  temporal_threshold_ = temporal_threshold;
}

UpdateEffects AnoT::IngestValid(const Fact& fact) {
  const UpdateEffects effects = updater_->Ingest(fact);
  if (async_ != nullptr) refresh_replay_facts_.push_back(fact);
  return effects;
}

Scores AnoT::ProcessArrival(const Fact& fact, UpdateEffects* effects) {
  const Scores scores = scorer_->Score(fact);
  const bool mapped = scores.static_support > 0.0;
  monitor_->Observe(fact.time, mapped, scores.associated);
  if (async_ != nullptr) {
    refresh_replay_observations_.push_back(
        MonitorObservation{fact.time, mapped, scores.associated});
  }
  const bool valid = scores.static_score <= static_threshold_ &&
                     (!scores.temporal_evaluated ||
                      scores.temporal_score <= temporal_threshold_);
  if (valid && options_->enable_updater) {
    const UpdateEffects e = updater_->Ingest(fact);
    if (effects != nullptr) effects->Accumulate(e);
    if (async_ != nullptr) refresh_replay_facts_.push_back(fact);
  }
  if (options_->auto_refresh && monitor_->ShouldRefresh()) {
    // Requests coalesce while one background build is in flight.
    if (options_->refresh_mode == RefreshMode::kAsynchronous) {
      RefreshAsync();
    } else {
      Refresh();
    }
  }
  // Swap in a staged background build at this commit boundary.
  MaybeCompleteRefresh();
  return scores;
}

void AnoT::Refresh() {
  AbandonRefresh();
  ++refresh_count_;
  Rebuild();
}

void AnoT::RefreshAsync() {
  if (async_ != nullptr) return;  // coalesce: already in flight or staged
  async_ = std::make_unique<AsyncRefresh>();
  async_->snapshot = CopyGraph(*graph_);
  refresh_replay_facts_.clear();
  refresh_replay_observations_.clear();
  // The worker owns only the heap-held AsyncRefresh (stable across moves
  // of this AnoT) and a copy of the options.
  AsyncRefresh* state = async_.get();
  const AnoTOptions options = *options_;
  state->worker = std::thread([state, options] {
    BuiltStructures built =
        BuildStructures(*state->snapshot, options, nullptr, &state->cancel);
    if (!state->cancel.load(std::memory_order_relaxed)) {
      state->built = std::move(built);
    }
    state->ready.store(true, std::memory_order_release);
  });
}

bool AnoT::refresh_in_flight() const { return async_ != nullptr; }

bool AnoT::RefreshReady() const {
  return async_ != nullptr && async_->ready.load(std::memory_order_acquire);
}

void AnoT::WaitForRefreshReady() {
  if (async_ == nullptr) return;
  if (async_->worker.joinable()) async_->worker.join();
}

bool AnoT::FinishRefresh() {
  if (async_ == nullptr) return false;
  WaitForRefreshReady();
  CompleteRefresh();
  return true;
}

void AnoT::MaybeCompleteRefresh() {
  if (async_ != nullptr && async_->ready.load(std::memory_order_acquire)) {
    CompleteRefresh();
  }
}

void AnoT::CompleteRefresh() {
  ANOT_CHECK(async_ != nullptr);
  if (async_->worker.joinable()) async_->worker.join();
  ANOT_CHECK(async_->built.rules != nullptr);
  // 1. Adopt the structures built from the snapshot. The old graph —
  // including the facts ingested since the snapshot — is discarded; the
  // replay below re-applies those ingests to the new state.
  graph_ = std::move(async_->snapshot);
  categories_ = std::move(async_->built.categories);
  rules_ = std::move(async_->built.rules);
  report_ = async_->built.report;
  async_.reset();
  RecreateServingObjects();
  // Monitor budget and universe sizes come from the snapshot state,
  // exactly as a synchronous Refresh() at the snapshot point would set
  // them — so before the ingest replay grows the graph.
  ResetMonitorFromReport();
  // 2. Replay the ingests logged since the snapshot through the fresh
  // updater (their serving-time UpdateEffects were already reported; the
  // replay's are bookkeeping against the new state and are discarded).
  for (const Fact& fact : refresh_replay_facts_) updater_->Ingest(fact);
  // 3. Replay the observation window into the reset monitor so the
  // in-flight bucket accounting is not lost across the swap.
  monitor_->Replay(refresh_replay_observations_);
  refresh_replay_facts_.clear();
  refresh_replay_observations_.clear();
  ++refresh_count_;
}

void AnoT::AbandonRefresh() {
  if (async_ == nullptr) return;
  async_.reset();  // cancels and joins the worker
  refresh_replay_facts_.clear();
  refresh_replay_observations_.clear();
}

Explainer AnoT::MakeExplainer() const {
  return Explainer(graph_.get(), categories_.get(), rules_.get());
}

void AnoT::CheckInvariants() const {
#ifdef ANOT_VALIDATE
  graph_->CheckInvariants();
  rules_->CheckInvariants();
  monitor_->CheckInvariants();
  if (updater_ != nullptr) updater_->CheckInvariants();
#endif
}

}  // namespace anot
