#pragma once

#include <cstdint>
#include <unordered_map>

#include "util/math_util.h"

namespace anot {

/// \brief MDL cost terms for rule-graph model selection (paper §4.2).
///
/// Implementation notes (see README "Deviations from the paper"):
///  * Code-length denominators are fixed to quantities of the *data* (G)
///    or the candidate universe rather than the evolving model, keeping
///    every candidate's model cost a precomputable constant so the greedy
///    Δ-evaluation stays local. This is the standard trick in MDL pattern
///    mining (Galbrun 2022) and does not change which candidates win.
struct MdlUniverse {
  double num_entities = 0;        // |E|
  double num_relations = 0;       // |R|
  double num_categories = 0;      // |C_E|
  double num_facts = 0;           // |F|
  double num_candidate_rules = 0; // ranking universe for edge endpoints
};

/// First two terms of Eq. 2: bits to transmit the node/edge counts against
/// their candidate upper bounds. Constant across models with the same
/// category function.
double ModelHeaderBits(const MdlUniverse& universe);

/// Eq. 3 — L(v): identify one atomic rule.
/// `subject_cat_count` / `object_cat_count` are the occurrence counts of
/// the rule's categories among fact subjects/objects; the totals are the
/// corresponding occurrence sums. `relation_count` counts the relation's
/// facts.
double AtomicRuleBits(const MdlUniverse& universe, double subject_cat_count,
                      double subject_cat_total, double object_cat_count,
                      double object_cat_total, double relation_count);

/// Eq. 4 — L(e): identify one rule edge (chain: two endpoints; triadic:
/// three). Endpoint codes use the candidate-rule universe.
double RuleEdgeBits(const MdlUniverse& universe, bool triadic);

/// Per-timestamp negative-error bits, Eq. 8 two-tier realization:
///   tier 1 (unmapped):     log2 C(U1 - mapped, total - mapped)
///   tier 2 (unassociated): log2 C(U2 - associated, mapped - associated)
/// with U1 = |E|^2 * |R| the position universe of one timestamp and
/// U2 = |E| the universe for identifying the missing association partner.
/// U2 << U1 makes explaining *concepts* (atomic rules) strictly more
/// valuable than explaining *order* (rule edges), which realizes the
/// paper's rules-then-edges selection order.
double NegativeErrorBitsAt(double tier1_universe, double tier2_universe,
                           double total, double mapped, double associated);

/// \brief Streaming optimal-prefix-code accounting (Eqs. 6-7).
///
/// For a rule's assertion set, the total subject-side cost is
///   sum_s n_s * (-log2(n_s / |A|)) = |A| log2 |A| - sum_s n_s log2 n_s,
/// maintained incrementally as assertions are added.
///
/// The floating-point value of the incremental sum depends on the Add
/// order. The builder prices each candidate by adding the symbols of its
/// assertion list in list order; that list is a deterministic function of
/// the graph (sharded generation merges in shard-index order), so the
/// bits are identical for every thread count.
class EntropyAccumulator {
 public:
  void Add(uint64_t symbol);

  /// Total bits = n log2 n - sum_c c log2 c.
  double TotalBits() const;
  uint64_t total() const { return total_; }

 private:
  std::unordered_map<uint64_t, uint64_t> counts_;
  double sum_clog2c_ = 0.0;
  uint64_t total_ = 0;
};

}  // namespace anot
