#pragma once

#include <cstddef>
#include <cstdint>
#include <string>

#include "core/anot.h"
#include "util/result.h"
#include "util/status.h"

namespace anot {

/// \brief Versioned binary serialization of the full detector state.
///
/// A checkpoint captures everything a warm restart needs: the dictionaries
/// and the grown TKG (as the fact log — every secondary index is replayed
/// back deterministically through AddFact), the category function, the rule
/// graph, the build report, the monitor (including its pricing-ledger
/// universes, which are frozen at build time and must NOT be recomputed
/// from the grown graph), the updater's pending-rule table in LRU order,
/// and the serving thresholds / refresh counter. Loading a checkpoint and
/// continuing the stream is bit-identical to never having restarted, at
/// every ANOT_THREADS setting (pinned by checkpoint_test).
///
/// File layout (all integers little-endian, doubles as IEEE-754 bit
/// patterns):
///
///   [8]  magic "ANOTCKPT"
///   [4]  u32 format version (kFormatVersion)
///   [4]  u32 section count
///   per section, in fixed ascending id order:
///     [4] u32 section id   [8] u64 payload length   [.] payload
///   [8]  u64 FNV-1a-64 checksum of every preceding byte
///
/// Versioning policy: the format version is bumped on any layout change;
/// a reader only accepts its own version (no silent cross-version reads).
/// Version skew, truncation, bit corruption, and semantically invalid
/// state all come back as Status errors — never UB, never an abort.
///
/// Serialization order is canonical (unordered containers are sorted
/// before writing), so saving a just-loaded detector reproduces the
/// original file byte for byte.
class Checkpoint {
 public:
  /// Footer/section framing constants, public so tests and tooling can
  /// craft or inspect checkpoint bytes.
  static constexpr char kMagic[8] = {'A', 'N', 'O', 'T', 'C', 'K', 'P', 'T'};
  static constexpr uint32_t kFormatVersion = 2;

  /// Serializes `system` to `path` atomically (temp file + rename).
  /// FailedPrecondition when a background refresh is in flight — quiesce
  /// with FinishRefresh() (or plain Refresh()) first; the in-flight build
  /// and its replay logs are not serializable mid-handoff.
  static Status Save(const AnoT& system, const std::string& path);

  /// Deserializes a detector. Every failure mode — missing file, wrong
  /// magic, foreign format version, truncated or over-long sections,
  /// corrupt bytes, or state that fails the structural invariants — is a
  /// descriptive error Status.
  static Result<AnoT> Load(const std::string& path);

  /// The footer checksum function (FNV-1a 64).
  static uint64_t Checksum(const void* data, size_t size);

 private:
  /// Section encoders/decoders (defined in checkpoint.cc). Nested so the
  /// codec inherits this class's friendship grants without widening them.
  struct Codec;
};

}  // namespace anot
