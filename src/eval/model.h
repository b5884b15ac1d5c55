#pragma once

#include <string>

#include "tkg/graph.h"

namespace anot {

/// \brief Common interface for every anomaly detector in the benchmark
/// (AnoT and all nine baselines).
///
/// Scores are anomaly scores: higher = more anomalous — except `missing`,
/// which is a *plausibility/support* score where higher = more likely a
/// genuinely missing valid fact (§4.3.4: low static and time scores mark
/// missing errors).
class AnomalyModel {
 public:
  virtual ~AnomalyModel() = default;

  virtual std::string name() const = 0;

  /// Offline phase on the preserved TKG.
  virtual void Fit(const TemporalKnowledgeGraph& train) = 0;

  struct TaskScores {
    double conceptual = 0.0;
    double time = 0.0;
    double missing = 0.0;
  };

  /// Scores one arriving (or candidate) piece of knowledge.
  virtual TaskScores Score(const Fact& fact) = 0;

  /// Online hook: knowledge accepted as valid. Models that cannot adapt
  /// online (the fixed-vector embedding baselines) ignore it.
  virtual void ObserveValid(const Fact& fact) { (void)fact; }
};

}  // namespace anot
