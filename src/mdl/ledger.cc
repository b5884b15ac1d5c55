#include "mdl/ledger.h"

#include <algorithm>
#include <cmath>

#include "mdl/encoding.h"
#include "util/logging.h"

namespace anot {

NegativeErrorLedger::NegativeErrorLedger(double tier1_universe,
                                         double tier2_universe)
    : tier1_universe_(tier1_universe),
      tier2_universe_(tier2_universe > 0.0
                          ? tier2_universe
                          : std::max(2.0, std::cbrt(tier1_universe))) {
  ANOT_CHECK(tier1_universe_ >= 1.0);
}

double NegativeErrorLedger::CostAt(uint32_t total, uint32_t mapped,
                                   uint32_t associated) const {
  return NegativeErrorBitsAt(tier1_universe_, tier2_universe_, total, mapped,
                             associated);
}

void NegativeErrorLedger::SetTimestampTotal(Timestamp t, uint32_t total) {
  Counters& c = per_timestamp_[t];
  total_cost_ -= c.cost;
  c.total = total;
  c.mapped = std::min(c.mapped, total);
  c.associated = std::min(c.associated, c.mapped);
  c.cost = CostAt(c.total, c.mapped, c.associated);
  total_cost_ += c.cost;
}

void NegativeErrorLedger::Apply(Timestamp t, int32_t delta_mapped,
                                int32_t delta_associated) {
  auto it = per_timestamp_.find(t);
  ANOT_CHECK(it != per_timestamp_.end())
      << "Apply on unregistered timestamp " << t;
  Counters& c = it->second;
  total_cost_ -= c.cost;
  const int64_t mapped = static_cast<int64_t>(c.mapped) + delta_mapped;
  const int64_t assoc = static_cast<int64_t>(c.associated) + delta_associated;
  ANOT_CHECK(mapped >= 0 && mapped <= c.total) << "mapped out of range";
  ANOT_CHECK(assoc >= 0 && assoc <= mapped) << "associated out of range";
  c.mapped = static_cast<uint32_t>(mapped);
  c.associated = static_cast<uint32_t>(assoc);
  c.cost = CostAt(c.total, c.mapped, c.associated);
  total_cost_ += c.cost;
}

double NegativeErrorLedger::PreviewOne(const Counters& c,
                                       const Delta& d) const {
  const int64_t mapped = static_cast<int64_t>(c.mapped) + d.mapped;
  const int64_t assoc = static_cast<int64_t>(c.associated) + d.associated;
  ANOT_CHECK(mapped >= 0 && mapped <= c.total)
      << "previewed mapped out of range";
  ANOT_CHECK(assoc >= 0 && assoc <= mapped)
      << "previewed associated out of range";
  return CostAt(c.total, static_cast<uint32_t>(mapped),
                static_cast<uint32_t>(assoc)) -
         c.cost;
}

double NegativeErrorLedger::CostDelta(
    const std::vector<TimestampDelta>& deltas) const {
  double delta_cost = 0.0;
  for (const TimestampDelta& td : deltas) {
    auto it = per_timestamp_.find(td.t);
    if (it == per_timestamp_.end()) continue;
    delta_cost += PreviewOne(it->second, td.d);
  }
  return delta_cost;
}

uint32_t NegativeErrorLedger::mapped_at(Timestamp t) const {
  auto it = per_timestamp_.find(t);
  return it == per_timestamp_.end() ? 0 : it->second.mapped;
}

uint32_t NegativeErrorLedger::associated_at(Timestamp t) const {
  auto it = per_timestamp_.find(t);
  return it == per_timestamp_.end() ? 0 : it->second.associated;
}

uint32_t NegativeErrorLedger::total_at(Timestamp t) const {
  auto it = per_timestamp_.find(t);
  return it == per_timestamp_.end() ? 0 : it->second.total;
}

void NegativeErrorLedger::CheckInvariants() const {
#ifdef ANOT_VALIDATE
  double sum = 0.0;
  // anot-lint: ordered-ok validation only: per-entry checks are
  // independent, and the float sum is compared under a tolerance that
  // absorbs ordering drift
  for (const auto& [t, c] : per_timestamp_) {
    ANOT_CHECK(c.mapped <= c.total)
        << "timestamp " << t << ": mapped " << c.mapped << " > total "
        << c.total;
    ANOT_CHECK(c.associated <= c.mapped)
        << "timestamp " << t << ": associated " << c.associated
        << " > mapped " << c.mapped;
    // The cached cost was assigned from this exact pure call, so it must
    // match bit for bit — any difference means a counter moved without a
    // reprice.
    ANOT_CHECK(c.cost == CostAt(c.total, c.mapped, c.associated))
        << "timestamp " << t << ": cached cost stale";
    sum += c.cost;
  }
  // total_cost_ is maintained incrementally (+= new - old per mutation),
  // so allow float drift; the summation order over the hash map varies,
  // which the tolerance also absorbs.
  ANOT_CHECK(std::abs(total_cost_ - sum) <=
             1e-6 * std::max(1.0, std::abs(sum)))
      << "total cost " << total_cost_ << " diverged from per-timestamp sum "
      << sum;
#endif  // ANOT_VALIDATE
}

#ifdef ANOT_VALIDATE
void NegativeErrorLedger::TestOnlyCorruptCountersForValidation(
    Timestamp t, uint32_t total, uint32_t mapped, uint32_t associated) {
  Counters& c = per_timestamp_[t];
  c.total = total;
  c.mapped = mapped;
  c.associated = associated;
}
#endif

}  // namespace anot
