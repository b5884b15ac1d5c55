#pragma once

#include <atomic>
#include <memory>
#include <string>
#include <vector>

#include "core/builder.h"
#include "core/explain.h"
#include "core/monitor.h"
#include "core/options.h"
#include "core/scorer.h"
#include "core/updater.h"
#include "mining/category_function.h"
#include "rulegraph/rule_graph.h"
#include "tkg/graph.h"
#include "util/lifetime.h"
#include "util/result.h"
#include "util/status.h"
#include "util/thread_pool.h"

namespace anot {

class Checkpoint;

/// \brief How a monitor-triggered refresh executes (§4.5 rebuild).
enum class RefreshMode {
  /// Rebuild inline on the serving thread. The paper's semantics: every
  /// refresh stalls arrivals for one full offline build.
  kSynchronous,
  /// Double-buffered: snapshot the grown TKG, rebuild on a background
  /// thread while the old scorer keeps serving, swap at the next commit
  /// boundary and replay the facts ingested since the snapshot. The
  /// post-swap state is bit-identical to a synchronous Refresh() at the
  /// snapshot point followed by the same ingests (see Refresh contract
  /// below).
  kAsynchronous,
};

/// \brief Top-level AnoT configuration.
struct AnoTOptions {
  DetectorOptions detector;
  UpdaterOptions updater;
  MonitorOptions monitor;
  /// Table 3's "remove updater module" ablation switch.
  bool enable_updater = true;
  /// When true, a refresh runs automatically once the monitor fires,
  /// executed per `refresh_mode`. (The paper disables refresh during
  /// evaluation for fairness, §5.2.)
  bool auto_refresh = false;
  /// Execution mode of monitor-triggered refreshes.
  RefreshMode refresh_mode = RefreshMode::kSynchronous;
  /// Worker threads for the offline construction pipeline (category
  /// function, candidate generation, candidate costing, duration views),
  /// used again by every refresh. Serving is one arrival at a time on the
  /// calling thread. 0 = one worker per hardware thread. Built models are
  /// bit-identical for every value.
  size_t num_threads = 0;
};

/// \brief The AnoT detector-updater-monitor system (Figure 2).
///
/// Quickstart:
///   AnoT anot = AnoT::Build(offline_tkg, AnoTOptions{});
///   Scores s = anot.Score(fact);                 // detector
///   if (s.static_score < thr_s && s.temporal_score < thr_t)
///     anot.IngestValid(fact);                    // updater + monitor
///   if (anot.monitor().ShouldRefresh()) anot.Refresh();
///
/// The instance owns a private copy of the TKG that grows as knowledge is
/// ingested; the caller's offline graph is never mutated.
class AnoT {
 public:
  /// Offline phase: copies the preserved TKG, builds the category function
  /// and the optimal rule graph (Algorithm 1).
  static AnoT Build(const TemporalKnowledgeGraph& offline,
                    const AnoTOptions& options);

  AnoT(AnoT&&) noexcept;
  AnoT& operator=(AnoT&&) noexcept;
  /// Cancels and joins any in-flight background rebuild.
  ~AnoT();

  /// Detector: Algorithm 2. Does not mutate state.
  Scores Score(const Fact& fact) const;
  Scores ScoreWithEvidence(const Fact& fact, Evidence* evidence) const;

  /// Full online step (Algorithms 2-3): scores, feeds the monitor, and —
  /// when the scores clear the validity thresholds and the updater is
  /// enabled — ingests the knowledge. Then runs the auto-refresh check and
  /// swaps in a staged background build. Returns the scores. When
  /// `effects` is non-null, the ingest's counters are *accumulated* into
  /// it.
  Scores ProcessArrival(const Fact& fact, UpdateEffects* effects = nullptr);

  /// Validity thresholds used by ProcessArrival (tuned on validation in
  /// the experiment protocol). Facts with static_score <= static_threshold
  /// and temporal_score <= temporal_threshold are treated as valid.
  void SetValidityThresholds(double static_threshold,
                             double temporal_threshold);

  /// Updater path for knowledge already known to be valid.
  UpdateEffects IngestValid(const Fact& fact);

  /// Rebuilds the category function and rule graph from the current
  /// (grown) TKG and resets the monitor, inline on the calling thread.
  /// Abandons (cancels) any in-flight background rebuild first.
  void Refresh();

  // -- Asynchronous (double-buffered) refresh -------------------------------
  //
  // RefreshAsync() snapshots the grown TKG and rebuilds the category
  // function + rule graph on a background thread while the current scorer
  // keeps serving. Facts ingested after the snapshot are logged; monitor
  // observations after the snapshot are logged too. Once the build is
  // ready, the next ProcessArrival (or FinishRefresh) performs the swap:
  //
  //   1. adopt the rebuilt structures (built from the snapshot),
  //   2. replay the logged ingests through a fresh Updater, and
  //   3. reset the monitor to the new budget and replay the logged
  //      observations (the in-flight accounting window is preserved).
  //
  // Determinism contract: the post-swap graph, categories, rule graph,
  // scorer state and refresh_count are bit-identical to calling the
  // synchronous Refresh() at the snapshot point followed by IngestValid
  // of the same logged facts; the post-swap monitor equals a monitor
  // reset to the new budget that then observed the logged window.

  /// Starts a background rebuild; returns immediately. No-op when one is
  /// already in flight or staged (requests coalesce).
  void RefreshAsync();

  /// True from RefreshAsync() until the swap (or abandonment).
  bool refresh_in_flight() const;

  /// True when the background build has finished and the swap will happen
  /// at the next commit boundary.
  bool RefreshReady() const;

  /// Blocks until the in-flight build (if any) is staged. Does NOT swap.
  void WaitForRefreshReady();

  /// Waits for the in-flight build and performs the swap immediately (an
  /// explicit commit boundary: end of stream, quiesce). Returns true when
  /// a swap happened, false when nothing was in flight.
  bool FinishRefresh();

  const TemporalKnowledgeGraph& graph() const ANOT_LIFETIME_BOUND {
    return *graph_;
  }
  const CategoryFunction& categories() const ANOT_LIFETIME_BOUND {
    return *categories_;
  }
  const RuleGraph& rules() const ANOT_LIFETIME_BOUND { return *rules_; }
  const BuildReport& report() const ANOT_LIFETIME_BOUND { return report_; }
  const Monitor& monitor() const ANOT_LIFETIME_BOUND { return *monitor_; }
  const Updater& updater() const ANOT_LIFETIME_BOUND { return *updater_; }
  Explainer MakeExplainer() const;
  const AnoTOptions& options() const ANOT_LIFETIME_BOUND {
    return *options_;
  }
  size_t refresh_count() const { return refresh_count_; }

  /// Debug validator (compiled behind ANOT_VALIDATE, no-op otherwise):
  /// runs CheckInvariants() on the grown TKG, the rule graph, the monitor
  /// and the updater. Call between arrivals or after
  /// Refresh/FinishRefresh, never concurrently with mutation.
  void CheckInvariants() const;

  // -- Checkpoint / warm restart (io/checkpoint.h) --------------------------

  /// Serializes the full detector state to a versioned binary checkpoint.
  /// FailedPrecondition while a background refresh is in flight (quiesce
  /// with FinishRefresh() first). Defined in io/checkpoint.cc.
  Status SaveCheckpoint(const std::string& path) const;

  /// Restores a detector saved by SaveCheckpoint. Processing the remaining
  /// stream on the restored instance is bit-identical to never having
  /// restarted (checkpoint_test pins this under the ANOT_THREADS matrix).
  /// Malformed input of every kind returns an error Status.
  static Result<AnoT> LoadCheckpoint(const std::string& path);

 private:
  /// The checkpoint codec reads/writes private state directly; keeping it
  /// a friend (instead of widening the public API with mutable accessors)
  /// preserves the class's "only serving code mutates state" contract.
  friend class Checkpoint;

  /// Out of line (anot.cc): a defaulted inline ctor would instantiate
  /// ~unique_ptr<AsyncRefresh> in TUs where AsyncRefresh is incomplete.
  AnoT();

  /// The rebuildable structures: what an offline build (or a refresh)
  /// produces from a TKG.
  struct BuiltStructures {
    std::unique_ptr<CategoryFunction> categories;
    std::unique_ptr<RuleGraph> rules;
    BuildReport report;
  };

  /// Runs the CategoryFunction + RuleGraphBuilder pipeline on `graph`.
  /// Pure with respect to the AnoT instance, so it can run on a
  /// background thread against a snapshot. When `workers` is null and the
  /// resolved thread count exceeds 1, a transient pool is created for the
  /// category passes. `cancel` aborts between stages (result must then be
  /// discarded).
  static BuiltStructures BuildStructures(const TemporalKnowledgeGraph& graph,
                                         const AnoTOptions& options,
                                         ThreadPool* workers,
                                         const std::atomic<bool>* cancel);

  void Rebuild();
  /// Recreates scorer_ and updater_ against the current structures.
  void RecreateServingObjects();
  /// Fresh monitor adopting report_'s budget and graph_'s universe sizes.
  void ResetMonitorFromReport();

  /// Swaps in the staged background build if one is ready.
  void MaybeCompleteRefresh();
  /// Adopt staged structures + replay ingest/observation logs (see the
  /// determinism contract above). Requires a ready staged build.
  void CompleteRefresh();
  /// Cancels and discards any in-flight background build and its logs.
  void AbandonRefresh();

  /// Heap-allocated so its address survives moves of the AnoT object:
  /// Scorer and Updater capture a pointer to options_->detector, and
  /// Build() returns by value — with an inline member that pointer would
  /// dangle into the moved-from temporary (a latent UB bug that made
  /// scoring read clobbered stack memory after `AnoT x = AnoT::Build(...)`
  /// was moved again, e.g. into std::optional).
  std::unique_ptr<AnoTOptions> options_;
  std::unique_ptr<TemporalKnowledgeGraph> graph_;
  std::unique_ptr<CategoryFunction> categories_;
  std::unique_ptr<RuleGraph> rules_;
  std::unique_ptr<Scorer> scorer_;
  std::unique_ptr<Updater> updater_;
  std::unique_ptr<Monitor> monitor_;

  /// In-flight double-buffered rebuild (heap-held so the background
  /// thread's pointer survives moves of the AnoT object); nullptr when no
  /// refresh is in flight. Defined in anot.cc; its destructor cancels and
  /// joins the worker.
  struct AsyncRefresh;
  std::unique_ptr<AsyncRefresh> async_;
  /// Facts ingested since the snapshot — replayed through the new updater
  /// at the swap. Serving-thread only.
  std::vector<Fact> refresh_replay_facts_;
  /// Monitor observations since the snapshot — replayed into the reset
  /// monitor at the swap. Serving-thread only.
  std::vector<MonitorObservation> refresh_replay_observations_;

  BuildReport report_;
  double static_threshold_ = 1.0;
  double temporal_threshold_ = 1.0;
  size_t refresh_count_ = 0;
};

}  // namespace anot
