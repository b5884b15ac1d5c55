#pragma once

#include <cstddef>

#include "mining/category_function.h"
#include "tkg/types.h"

namespace anot {

/// \brief Which time annotation anchors a fact during association
/// (duration TKGs, §4.7). Point facts have start == end, so all four
/// combinations coincide.
enum class TimeAnchor { kStart, kEnd };

inline Timestamp AnchorTime(const Fact& f, TimeAnchor anchor) {
  return anchor == TimeAnchor::kStart ? f.time : f.end;
}

/// \brief How θ in Eq. 10 counts preserved timespans.
///
/// The paper's prose says θ "indicates the gap between the timespan of the
/// instantiations and the preserved timespans", yet the printed formula
/// counts *agreeing* spans (|τ - Δt| <= L), which would make evidence
/// weaker the better the timing matches. kMismatch (default) counts
/// *disagreeing* spans, matching the prose semantics; kAsPrinted keeps the
/// printed formula. Both are exercised by bench/exp_ablation_theta.
enum class ThetaMode { kMismatch, kAsPrinted };

/// \brief How candidates are ranked before greedy selection (§4.3.3).
enum class RankingMode {
  kDeltaCost,       // paper: ΔL first, then |A|, then id
  kAssertionsOnly,  // ablation: |A| only (Table 3 variant)
};

/// \brief All detector hyper-parameters (paper §5.2 grid).
struct DetectorOptions {
  CategoryFunctionOptions category;

  /// Cap on candidate rule edges (paper: 50000).
  size_t max_candidate_edges = 50000;

  /// Maximum recursion steps K during temporal scoring (paper: {1,2,3,4}).
  size_t max_recursion_steps = 2;

  /// Timespan restriction L, in ticks (paper: {10,100,1000,2000}); bounds
  /// both triadic co-occurrence and timespan agreement.
  Timestamp timespan_tolerance = 100;

  /// λ — minimum static support before temporal scoring runs (Alg. 2 l.8).
  double lambda = 1.0;

  /// Chain-candidate lookback: how many predecessors of a pair sequence
  /// each fact is paired with (performance cap; the paper enumerates all
  /// m < n pairs).
  size_t max_pair_lag = 8;

  /// Scan caps during instantiation (keeps scoring O(f_max), §4.6).
  size_t max_instantiation_scan = 64;

  /// Ablation switches (Table 3).
  bool use_triadic = true;
  bool use_recursion = true;
  bool use_category_aggregation = true;
  bool unit_rule_weight = false;  // replace |A_v| by 1 in Eqs. 9-10
  RankingMode ranking = RankingMode::kDeltaCost;

  /// Out-edge violation extension of Eq. 10 (the paper's "can be further
  /// extended" remark; needed for the Trump/outgoing-president case).
  bool use_out_edge_violations = true;

  ThetaMode theta_mode = ThetaMode::kMismatch;

  /// Weak occurrence evidence contributed by the mapped rules themselves
  /// (weight × static support added to Eq. 10's denominator). Keeps the
  /// temporal score bounded for knowledge whose patterns carry no
  /// occurrence-order expectation at all, instead of treating "no
  /// expectation" as maximal anomaly. Set to 0 for the strict Eq. 10.
  double temporal_base_weight = 0.05;

  /// Weight of conflict mass (timespan disagreement, unmet one-shot
  /// precursors, out-edge violations) in the extended Eq. 10 numerator.
  double conflict_weight = 3.0;

  /// Duration-TKG anchors (§4.7). Point TKGs ignore these.
  TimeAnchor head_anchor = TimeAnchor::kStart;
  TimeAnchor tail_anchor = TimeAnchor::kStart;
};

/// \brief Online-update knobs (§4.4; Algorithm 3).
struct UpdaterOptions {
  /// A recurring unseen pattern becomes a new rule node once its online
  /// support reaches this count and the marginal MDL test passes.
  size_t new_rule_min_support = 3;

  /// Cap on the not-yet-admitted pattern table. Anomaly-heavy streams mint
  /// unbounded never-admitted candidates (every unseen (C(s), r, C(o))
  /// combination opens an entry); past the cap the least-recently-touched
  /// candidate is evicted, bounding memory at the cost of forgetting
  /// support that accrues slower than the eviction horizon.
  size_t max_pending_rules = 65536;
};

/// \brief Monitor knobs (§4.5; Eq. 11).
struct MonitorOptions {
  enum class Mode {
    /// Paper: refresh when accumulated unseen negative cost exceeds the
    /// training negative cost.
    kTotalBudget,
    /// Normalized: refresh when the mean per-timestamp unseen cost exceeds
    /// the training mean by `slack`.
    kPerTimestamp,
  };
  Mode mode = Mode::kTotalBudget;
  double slack = 1.0;
};

}  // namespace anot
