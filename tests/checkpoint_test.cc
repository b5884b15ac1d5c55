// Checkpoint / warm-restart suite: pins the headline contract — save after
// offline build + N arrivals, load in a fresh detector, and the remaining
// stream's scores, monitor decisions, and pending-rule state are
// bit-identical to never having restarted — plus the canonical-bytes
// property (saving a just-loaded detector reproduces the file byte for
// byte) and every malformed-input failure path as a descriptive Status
// (never a crash, never an abort: all checks run before any
// ANOT_CHECK-bearing constructor).
//
// CI runs this suite under ANOT_THREADS=1 and ANOT_THREADS=4; the env
// value selects the thread schedule exactly as in online_test.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "anomaly/injector.h"
#include "core/anot.h"
#include "datagen/generator.h"
#include "io/checkpoint.h"
#include "serving_test_util.h"
#include "tkg/split.h"

namespace anot {
namespace {

GeneratorConfig CheckpointWorldConfig() {
  GeneratorConfig cfg;
  cfg.num_entities = 150;
  cfg.num_relations = 20;
  cfg.num_timestamps = 100;
  cfg.num_facts = 3000;
  cfg.num_categories = 5;
  cfg.num_chain_rules = 4;
  cfg.num_triadic_rules = 2;
  cfg.chain_follow_prob = 0.7;
  cfg.noise_fraction = 0.03;
  cfg.seed = 1234;
  return cfg;
}

AnoTOptions CheckpointOptions(size_t num_threads) {
  AnoTOptions options;
  options.detector.category.min_support = 4;
  options.detector.timespan_tolerance = 10;
  options.detector.max_recursion_steps = 2;
  options.num_threads = num_threads;
  return options;
}

std::string TempPath(const std::string& name) {
  return (std::filesystem::temp_directory_path() / name).string();
}

std::string ReadBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  return std::string((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
}

void WriteBytes(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  ASSERT_TRUE(out.good()) << path;
}

uint32_t ReadU32At(const std::string& b, size_t off) {
  uint32_t v = 0;
  for (int i = 0; i < 4; ++i) {
    v |= static_cast<uint32_t>(static_cast<uint8_t>(b[off + i])) << (8 * i);
  }
  return v;
}

uint64_t ReadU64At(const std::string& b, size_t off) {
  uint64_t v = 0;
  for (int i = 0; i < 8; ++i) {
    v |= static_cast<uint64_t>(static_cast<uint8_t>(b[off + i])) << (8 * i);
  }
  return v;
}

void WriteU64At(std::string* b, size_t off, uint64_t v) {
  for (int i = 0; i < 8; ++i) (*b)[off + i] = static_cast<char>(v >> (8 * i));
}

/// Recomputes the footer after a byte patch, so the test reaches the
/// validation layer it targets instead of tripping the checksum first.
void Rechecksum(std::string* bytes) {
  const uint64_t h =
      Checkpoint::Checksum(bytes->data(), bytes->size() - 8);
  WriteU64At(bytes, bytes->size() - 8, h);
}

/// Walks the section table to the payload of section `want_id`.
size_t SectionPayloadOffset(const std::string& b, uint32_t want_id,
                            uint64_t* len_out) {
  size_t off = 8 + 4 + 4;  // magic + version + section count
  for (;;) {
    const uint32_t id = ReadU32At(b, off);
    const uint64_t len = ReadU64At(b, off + 4);
    if (id == want_id) {
      *len_out = len;
      return off + 12;
    }
    off += 12 + static_cast<size_t>(len);
    EXPECT_LT(off, b.size()) << "section " << want_id << " not found";
  }
}

/// Shared expensive fixture: one world, one split, one labeled stream, and
/// one cached good checkpoint for the failure-path tests to mutate.
class CheckpointFixture : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    SyntheticGenerator gen(CheckpointWorldConfig());
    graph_ = gen.Generate().release();
    split_ = new TimeSplit(SplitByTimestamps(*graph_, 0.6, 0.1));
    train_ = Subgraph(*graph_, split_->train).release();

    AnomalyInjector injector(InjectorConfig{});
    EvalStream labeled = injector.Inject(*graph_, split_->test);
    stream_ = new std::vector<Fact>();
    for (const LabeledFact& lf : labeled.arrivals) {
      stream_->push_back(lf.fact);
    }

    // One good checkpoint, mid-stream, shared by every corruption test.
    AnoT system = AnoT::Build(*train_, CheckpointOptions(1));
    const size_t n = std::min<size_t>(100, stream_->size());
    for (size_t i = 0; i < n; ++i) system.ProcessArrival((*stream_)[i]);
    const std::string path = TempPath("anot_ckpt_fixture.bin");
    ASSERT_TRUE(system.SaveCheckpoint(path).ok());
    good_bytes_ = new std::string(ReadBytes(path));
    std::filesystem::remove(path);
  }
  static void TearDownTestSuite() {
    delete good_bytes_;
    delete stream_;
    delete train_;
    delete split_;
    delete graph_;
    good_bytes_ = nullptr;
    stream_ = nullptr;
    train_ = nullptr;
    split_ = nullptr;
    graph_ = nullptr;
  }

  /// Writes a (possibly patched) byte string and loads it.
  static Result<AnoT> LoadFromBytes(const std::string& bytes,
                                    const std::string& name) {
    const std::string path = TempPath(name);
    WriteBytes(path, bytes);
    Result<AnoT> r = AnoT::LoadCheckpoint(path);
    std::filesystem::remove(path);
    return r;
  }

  static TemporalKnowledgeGraph* graph_;
  static TimeSplit* split_;
  static TemporalKnowledgeGraph* train_;
  static std::vector<Fact>* stream_;
  static std::string* good_bytes_;
};

TemporalKnowledgeGraph* CheckpointFixture::graph_ = nullptr;
TimeSplit* CheckpointFixture::split_ = nullptr;
TemporalKnowledgeGraph* CheckpointFixture::train_ = nullptr;
std::vector<Fact>* CheckpointFixture::stream_ = nullptr;
std::string* CheckpointFixture::good_bytes_ = nullptr;

// ------------------------------------------------ warm-restart equivalence

/// Processes stream[begin, end) one arrival at a time, appending the
/// scores.
void RunRange(AnoT* system, const std::vector<Fact>& stream, size_t begin,
              size_t end, std::vector<Scores>* scores,
              UpdateEffects* effects) {
  for (size_t i = begin; i < end; ++i) {
    scores->push_back(system->ProcessArrival(stream[i], effects));
  }
}

TEST_F(CheckpointFixture, WarmRestartBitIdenticalToUninterrupted) {
  for (size_t threads : ThreadCountsUnderTest()) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    const AnoTOptions options = CheckpointOptions(threads);

    // Reference: one uninterrupted run over the whole stream.
    AnoT ref = AnoT::Build(*train_, options);
    std::vector<Scores> ref_scores;
    UpdateEffects ref_effects;
    RunRange(&ref, *stream_, 0, stream_->size(), &ref_scores, &ref_effects);
    ValidateAtCommitBoundary(ref);

    // Interrupted run: process to a mid-stream batch boundary past the
    // halfway mark where pending rules exist (so the checkpoint carries
    // live updater state), save, load in a "fresh process", continue.
    AnoT first = AnoT::Build(*train_, options);
    std::vector<Scores> warm_scores;
    UpdateEffects warm_effects;
    const size_t half = stream_->size() / 2;
    size_t saved_at = 0;
    for (size_t i = 0; i < stream_->size() && saved_at == 0; i += 32) {
      const size_t stop = std::min(stream_->size(), i + 32);
      RunRange(&first, *stream_, i, stop, &warm_scores, &warm_effects);
      if (stop >= half && first.updater().pending_rule_count() > 0 &&
          stop < stream_->size()) {
        saved_at = stop;
      }
    }
    ASSERT_GT(saved_at, 0u)
        << "no mid-stream point with pending rules: the warm-restart case "
           "would not exercise updater state";

    const std::string path =
        TempPath("anot_ckpt_warm_" + std::to_string(threads) + ".bin");
    ASSERT_TRUE(first.SaveCheckpoint(path).ok());
    Result<AnoT> loaded = AnoT::LoadCheckpoint(path);
    std::filesystem::remove(path);
    ASSERT_TRUE(loaded.ok()) << loaded.status().message();
    AnoT warm = loaded.MoveValue();

    // The restored detector must resume exactly where the first left off.
    EXPECT_EQ(warm.graph().num_facts(), first.graph().num_facts());
    EXPECT_EQ(warm.updater().pending_rule_count(),
              first.updater().pending_rule_count());
    EXPECT_EQ(warm.rules().ToString(), first.rules().ToString());

    RunRange(&warm, *stream_, saved_at, stream_->size(), &warm_scores,
             &warm_effects);
    ValidateAtCommitBoundary(warm);

    ASSERT_EQ(ref_scores.size(), warm_scores.size());
    for (size_t i = 0; i < ref_scores.size(); ++i) {
      ExpectScoresIdentical(ref_scores[i], warm_scores[i], i);
    }
    EXPECT_EQ(ref_effects.facts_ingested, warm_effects.facts_ingested);
    EXPECT_EQ(ref_effects.new_entity_categories,
              warm_effects.new_entity_categories);
    EXPECT_EQ(ref_effects.new_rule_nodes, warm_effects.new_rule_nodes);
    EXPECT_EQ(ref_effects.new_rule_edges, warm_effects.new_rule_edges);
    EXPECT_EQ(ref_effects.timespans_recorded,
              warm_effects.timespans_recorded);
    EXPECT_EQ(ref.refresh_count(), warm.refresh_count());
    EXPECT_EQ(ref.graph().num_facts(), warm.graph().num_facts());
    EXPECT_EQ(ref.rules().ToString(), warm.rules().ToString());
    EXPECT_EQ(ref.updater().pending_rule_count(),
              warm.updater().pending_rule_count());
    EXPECT_EQ(ref.monitor().ShouldRefresh(), warm.monitor().ShouldRefresh());
  }
}

// -------------------------------------------------------- canonical bytes

TEST_F(CheckpointFixture, ResaveOfLoadedDetectorIsByteIdentical) {
  // save(load(save(x))) == save(x): the serialization is canonical, so a
  // checkpoint can be re-saved indefinitely without drift.
  Result<AnoT> loaded = LoadFromBytes(*good_bytes_, "anot_ckpt_canon.bin");
  ASSERT_TRUE(loaded.ok()) << loaded.status().message();
  const std::string path = TempPath("anot_ckpt_canon2.bin");
  ASSERT_TRUE(loaded.value().SaveCheckpoint(path).ok());
  const std::string resaved = ReadBytes(path);
  std::filesystem::remove(path);
  EXPECT_EQ(*good_bytes_, resaved);
}

TEST_F(CheckpointFixture, FreshBuildRoundTripsBeforeAnyArrival) {
  AnoT system = AnoT::Build(*train_, CheckpointOptions(1));
  const std::string path = TempPath("anot_ckpt_fresh.bin");
  ASSERT_TRUE(system.SaveCheckpoint(path).ok());
  Result<AnoT> loaded = AnoT::LoadCheckpoint(path);
  std::filesystem::remove(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().message();
  const size_t n = std::min<size_t>(50, stream_->size());
  for (size_t i = 0; i < n; ++i) {
    ExpectScoresIdentical(system.Score((*stream_)[i]),
                          loaded.value().Score((*stream_)[i]), i);
  }
}

// ------------------------------------------------------- refresh quiesce

TEST_F(CheckpointFixture, SaveDuringInFlightRefreshIsFailedPrecondition) {
  AnoTOptions options = CheckpointOptions(2);
  options.refresh_mode = RefreshMode::kAsynchronous;
  AnoT system = AnoT::Build(*train_, options);
  const size_t n = std::min<size_t>(50, stream_->size());
  for (size_t i = 0; i < n; ++i) system.ProcessArrival((*stream_)[i]);

  system.RefreshAsync();
  const std::string path = TempPath("anot_ckpt_inflight.bin");
  const Status st = system.SaveCheckpoint(path);
  EXPECT_EQ(st.code(), StatusCode::kFailedPrecondition) << st.message();
  EXPECT_FALSE(std::filesystem::exists(path));

  // After quiescing, saving works and the checkpoint loads.
  system.FinishRefresh();
  ASSERT_TRUE(system.SaveCheckpoint(path).ok());
  Result<AnoT> loaded = AnoT::LoadCheckpoint(path);
  std::filesystem::remove(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().message();
  EXPECT_EQ(loaded.value().refresh_count(), system.refresh_count());
}

// -------------------------------------------------- malformed-input paths
//
// Every case must come back as an error Status with a recognizable
// message — no crash, no ANOT_CHECK abort — which is what lets these run
// under ASan/UBSan without death tests.

TEST_F(CheckpointFixture, LoadMissingFileFails) {
  Result<AnoT> r = AnoT::LoadCheckpoint(TempPath("anot_ckpt_missing.bin"));
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kIoError);
}

TEST_F(CheckpointFixture, RejectsFileTooShort) {
  Result<AnoT> r =
      LoadFromBytes(good_bytes_->substr(0, 10), "anot_ckpt_short.bin");
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.status().message().find("too short"), std::string::npos)
      << r.status().message();
}

TEST_F(CheckpointFixture, RejectsWrongMagic) {
  std::string bytes = *good_bytes_;
  bytes[0] = 'X';
  Result<AnoT> r = LoadFromBytes(bytes, "anot_ckpt_magic.bin");
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.status().message().find("bad magic"), std::string::npos)
      << r.status().message();
}

TEST_F(CheckpointFixture, RejectsTruncatedFile) {
  const std::string bytes = good_bytes_->substr(0, good_bytes_->size() - 9);
  Result<AnoT> r = LoadFromBytes(bytes, "anot_ckpt_trunc.bin");
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.status().message().find("checksum"), std::string::npos)
      << r.status().message();
}

TEST_F(CheckpointFixture, RejectsCorruptPayloadByte) {
  std::string bytes = *good_bytes_;
  bytes[bytes.size() / 2] ^= 0x40;
  Result<AnoT> r = LoadFromBytes(bytes, "anot_ckpt_flip.bin");
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.status().message().find("checksum"), std::string::npos)
      << r.status().message();
}

TEST_F(CheckpointFixture, RejectsPastAndFutureFormatVersions) {
  // Version 1 carried an extra options byte; a v1 file must come back as
  // a Status, never be misparsed against the current layout.
  for (const uint32_t version : {1u, Checkpoint::kFormatVersion + 1}) {
    std::string bytes = *good_bytes_;
    bytes[8] = static_cast<char>(version);
    Rechecksum(&bytes);
    Result<AnoT> r = LoadFromBytes(bytes, "anot_ckpt_version.bin");
    ASSERT_FALSE(r.ok()) << "version " << version;
    EXPECT_NE(r.status().message().find("format version"), std::string::npos)
        << r.status().message();
  }
}

TEST_F(CheckpointFixture, RejectsSectionLengthBeyondFileSize) {
  std::string bytes = *good_bytes_;
  // First section header sits right after magic+version+count; its u64
  // length starts 4 bytes in (after the section id).
  WriteU64At(&bytes, 8 + 4 + 4 + 4, 0x00FFFFFFFFFFull);
  Rechecksum(&bytes);
  Result<AnoT> r = LoadFromBytes(bytes, "anot_ckpt_seclen.bin");
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.status().message().find("section length"), std::string::npos)
      << r.status().message();
}

TEST_F(CheckpointFixture, RejectsSemanticallyInvalidMonitorState) {
  // Valid framing and checksum, invalid state: bucket_associated (the
  // last field of the monitor section) greater than bucket_mapped. The
  // decoder must catch it as a Status before any Monitor is constructed —
  // Monitor::CheckInvariants would abort on it.
  std::string bytes = *good_bytes_;
  uint64_t len = 0;
  const size_t payload = SectionPayloadOffset(bytes, /*monitor=*/6, &len);
  bytes[payload + len - 4] = static_cast<char>(0xFF);
  bytes[payload + len - 3] = static_cast<char>(0xFF);
  Rechecksum(&bytes);
  Result<AnoT> r = LoadFromBytes(bytes, "anot_ckpt_monitor.bin");
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.status().message().find("monitor"), std::string::npos)
      << r.status().message();
}

TEST_F(CheckpointFixture, RejectsTrailingGarbageInsideSection) {
  // Grow the serving section (the last one) by 8 bytes of zeros and fix
  // up its declared length: framing stays coherent, but the payload now
  // has bytes its decoder never consumes.
  std::string bytes = *good_bytes_;
  uint64_t len = 0;
  const size_t payload = SectionPayloadOffset(bytes, /*serving=*/8, &len);
  bytes.insert(payload + static_cast<size_t>(len), 8, '\0');
  WriteU64At(&bytes, payload - 8, len + 8);
  Rechecksum(&bytes);
  Result<AnoT> r = LoadFromBytes(bytes, "anot_ckpt_trailing.bin");
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.status().message().find("trailing bytes"), std::string::npos)
      << r.status().message();
}

}  // namespace
}  // namespace anot
