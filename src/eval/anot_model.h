#pragma once

#include <memory>
#include <optional>
#include <vector>

#include "core/anot.h"
#include "core/duration.h"
#include "eval/model.h"

namespace anot {

/// \brief AnomalyModel adapter around the AnoT system.
///
/// Task mapping (§4.3.4): conceptual task uses the static score, time task
/// the temporal score, missing task the combined support
/// (static + temporal evidence — high support on an absent fact marks a
/// missing error).
class AnoTModel : public AnomalyModel {
 public:
  explicit AnoTModel(const AnoTOptions& options, std::string name = "AnoT")
      : options_(options), name_(std::move(name)) {}

  std::string name() const override { return name_; }

  void Fit(const TemporalKnowledgeGraph& train) override {
    system_.emplace(AnoT::Build(train, options_));
  }

  TaskScores Score(const Fact& fact) override {
    const Scores s = system_->Score(fact);
    return TaskScores{s.static_score, s.temporal_score,
                      s.missing_support()};
  }

  void ObserveValid(const Fact& fact) override {
    if (options_.enable_updater) system_->IngestValid(fact);
  }

  const AnoT& system() const ANOT_LIFETIME_BOUND { return *system_; }

 private:
  AnoTOptions options_;
  std::string name_;
  std::optional<AnoT> system_;
};

/// \brief Adapter for the duration-TKG variant (§4.7, Table 7).
class DurationAnoTModel : public AnomalyModel {
 public:
  DurationAnoTModel(const AnoTOptions& options, DurationStrategy strategy,
                    std::string name = "AnoT")
      : options_(options), strategy_(strategy), name_(std::move(name)) {}

  std::string name() const override { return name_; }

  void Fit(const TemporalKnowledgeGraph& train) override {
    system_.emplace(DurationAnoT::Build(train, options_, strategy_));
  }

  TaskScores Score(const Fact& fact) override {
    const Scores s = system_->Score(fact);
    return TaskScores{s.static_score, s.temporal_score,
                      s.missing_support()};
  }

  void ObserveValid(const Fact& fact) override {
    if (options_.enable_updater) system_->IngestValid(fact);
  }

  const DurationAnoT& system() const ANOT_LIFETIME_BOUND {
    return *system_;
  }

 private:
  AnoTOptions options_;
  DurationStrategy strategy_;
  std::string name_;
  std::optional<DurationAnoT> system_;
};

}  // namespace anot
