#include "io/checkpoint.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iterator>
#include <utility>
#include <vector>

#include "core/builder.h"
#include "core/monitor.h"
#include "core/options.h"
#include "core/updater.h"
#include "mining/category_function.h"
#include "rulegraph/rule_graph.h"
#include "tkg/graph.h"
#include "util/lifetime.h"
#include "util/logging.h"
#include "util/string_util.h"

namespace anot {

namespace {

/// Fixed section order. The reader rejects any other order or id, which
/// keeps the format canonical: there is exactly one byte sequence per
/// detector state, so save(load(save(x))) == save(x).
enum SectionId : uint32_t {
  kSectionOptions = 1,
  kSectionGraph = 2,
  kSectionCategories = 3,
  kSectionRules = 4,
  kSectionReport = 5,
  kSectionMonitor = 6,
  kSectionUpdater = 7,
  kSectionServing = 8,
};
constexpr uint32_t kNumSections = 8;

// ------------------------------------------------------------ byte codec

/// Append-only little-endian encoder. Doubles are written as their
/// IEEE-754 bit pattern, so a round trip is bit-exact.
class ByteWriter {
 public:
  void U8(uint8_t v) { out_.push_back(static_cast<char>(v)); }
  void U32(uint32_t v) {
    for (int i = 0; i < 4; ++i) out_.push_back(static_cast<char>(v >> (8 * i)));
  }
  void U64(uint64_t v) {
    for (int i = 0; i < 8; ++i) out_.push_back(static_cast<char>(v >> (8 * i)));
  }
  void I64(int64_t v) { U64(static_cast<uint64_t>(v)); }
  void F64(double v) {
    uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof(bits));
    U64(bits);
  }
  void Bool(bool v) { U8(v ? 1 : 0); }
  void Str(const std::string& s) {
    U64(s.size());
    out_.append(s);
  }
  void Append(const std::string& s) { out_.append(s); }

  const std::string& bytes() const ANOT_LIFETIME_BOUND { return out_; }

 private:
  std::string out_;
};

/// Bounds-checked little-endian decoder over a borrowed byte range. Every
/// read reports exhaustion instead of walking past the end, so a truncated
/// or corrupt payload can never become UB.
class ByteReader {
 public:
  /// Empty reader (no bytes); a section slot before its payload is carved.
  ByteReader() = default;
  // anot-own: borrows the checkpoint byte buffer owned by Load()'s stack
  // frame (or a sub-range of it), which strictly outlives every reader.
  ByteReader(const char* data, size_t size) : data_(data), size_(size) {}

  bool U8(uint8_t* out) {
    if (remaining() < 1) return false;
    *out = static_cast<uint8_t>(data_[pos_++]);
    return true;
  }
  bool U32(uint32_t* out) {
    if (remaining() < 4) return false;
    uint32_t v = 0;
    for (int i = 0; i < 4; ++i) {
      v |= static_cast<uint32_t>(static_cast<uint8_t>(data_[pos_ + i]))
           << (8 * i);
    }
    pos_ += 4;
    *out = v;
    return true;
  }
  bool U64(uint64_t* out) {
    if (remaining() < 8) return false;
    uint64_t v = 0;
    for (int i = 0; i < 8; ++i) {
      v |= static_cast<uint64_t>(static_cast<uint8_t>(data_[pos_ + i]))
           << (8 * i);
    }
    pos_ += 8;
    *out = v;
    return true;
  }
  bool I64(int64_t* out) {
    uint64_t v = 0;
    if (!U64(&v)) return false;
    *out = static_cast<int64_t>(v);
    return true;
  }
  bool F64(double* out) {
    uint64_t bits = 0;
    if (!U64(&bits)) return false;
    std::memcpy(out, &bits, sizeof(*out));
    return true;
  }
  /// Strict: only 0/1 are valid encodings (canonical format).
  bool Bool(bool* out) {
    uint8_t v = 0;
    if (!U8(&v) || v > 1) return false;
    *out = (v == 1);
    return true;
  }
  bool Str(std::string* out) {
    uint64_t n = 0;
    if (!U64(&n) || n > remaining()) return false;
    out->assign(data_ + pos_, static_cast<size_t>(n));
    pos_ += static_cast<size_t>(n);
    return true;
  }
  /// Reads a container count and rejects counts whose minimal encoding
  /// exceeds the bytes left — a corrupt count must fail here, not drive a
  /// multi-gigabyte allocation.
  bool Count(uint64_t* n, uint64_t min_bytes_per_elem) {
    if (!U64(n)) return false;
    if (min_bytes_per_elem == 0) return true;
    return *n <= remaining() / min_bytes_per_elem;
  }
  bool Skip(size_t n) {
    if (n > remaining()) return false;
    pos_ += n;
    return true;
  }
  /// Carves a length-delimited sub-range (section payload) off the front.
  bool Sub(size_t len, ByteReader* out) {
    if (len > remaining()) return false;
    *out = ByteReader(data_ + pos_, len);
    pos_ += len;
    return true;
  }
  size_t remaining() const { return size_ - pos_; }

 private:
  // anot-own: borrowed view into Load()'s byte buffer; see constructor.
  const char* data_ = nullptr;
  size_t size_ = 0;
  size_t pos_ = 0;
};

/// Every partial read inside a section means the file is truncated or its
/// bytes are not a valid encoding; both surface as the same error shape.
#define ANOT_CKPT_READ(expr, what)                                      \
  do {                                                                  \
    if (!(expr)) {                                                      \
      return Status::InvalidArgument(                                   \
          std::string("checkpoint: truncated or corrupt ") + (what));   \
    }                                                                   \
  } while (0)

#define ANOT_CKPT_EXPECT(cond, msg)                       \
  do {                                                    \
    if (!(cond)) return Status::InvalidArgument(msg);     \
  } while (0)

void AppendSection(uint32_t id, const ByteWriter& payload, ByteWriter* out) {
  out->U32(id);
  out->U64(payload.bytes().size());
  out->Append(payload.bytes());
}

}  // namespace

// ----------------------------------------------------------------- codec
//
// Codec is a nested member of Checkpoint, so its static functions inherit
// the friendship AnoT / CategoryFunction / Monitor / Updater grant to the
// Checkpoint class — private state is serialized without widening any
// public API.

struct Checkpoint::Codec {
  // -- section 1: options ---------------------------------------------------

  static void EncodeOptions(const AnoTOptions& o, ByteWriter* w) {
    const CategoryFunctionOptions& c = o.detector.category;
    w->U64(c.max_categories_per_entity);
    w->U64(c.min_support);
    w->U64(c.max_combination_size);
    w->F64(c.aggregation_overlap);
    w->U64(c.max_aggregation_rounds);
    w->U64(c.max_aggregation_candidates);
    w->U64(c.max_categories);

    const DetectorOptions& d = o.detector;
    w->U64(d.max_candidate_edges);
    w->U64(d.max_recursion_steps);
    w->I64(d.timespan_tolerance);
    w->F64(d.lambda);
    w->U64(d.max_pair_lag);
    w->U64(d.max_instantiation_scan);
    w->Bool(d.use_triadic);
    w->Bool(d.use_recursion);
    w->Bool(d.use_category_aggregation);
    w->Bool(d.unit_rule_weight);
    w->U8(static_cast<uint8_t>(d.ranking));
    w->Bool(d.use_out_edge_violations);
    w->U8(static_cast<uint8_t>(d.theta_mode));
    w->F64(d.temporal_base_weight);
    w->F64(d.conflict_weight);
    w->U8(static_cast<uint8_t>(d.head_anchor));
    w->U8(static_cast<uint8_t>(d.tail_anchor));

    w->U64(o.updater.new_rule_min_support);
    w->U64(o.updater.max_pending_rules);

    w->U8(static_cast<uint8_t>(o.monitor.mode));
    w->F64(o.monitor.slack);

    w->Bool(o.enable_updater);
    w->Bool(o.auto_refresh);
    w->U8(static_cast<uint8_t>(o.refresh_mode));
    w->U64(o.num_threads);
  }

  static Status DecodeOptions(ByteReader* in, AnoTOptions* o) {
    CategoryFunctionOptions& c = o->detector.category;
    uint64_t u = 0;
    ANOT_CKPT_READ(in->U64(&u), "options");
    c.max_categories_per_entity = static_cast<size_t>(u);
    ANOT_CKPT_READ(in->U64(&u), "options");
    c.min_support = static_cast<size_t>(u);
    ANOT_CKPT_READ(in->U64(&u), "options");
    c.max_combination_size = static_cast<size_t>(u);
    ANOT_CKPT_READ(in->F64(&c.aggregation_overlap), "options");
    ANOT_CKPT_READ(in->U64(&u), "options");
    c.max_aggregation_rounds = static_cast<size_t>(u);
    ANOT_CKPT_READ(in->U64(&u), "options");
    c.max_aggregation_candidates = static_cast<size_t>(u);
    ANOT_CKPT_READ(in->U64(&u), "options");
    c.max_categories = static_cast<size_t>(u);

    DetectorOptions& d = o->detector;
    ANOT_CKPT_READ(in->U64(&u), "options");
    d.max_candidate_edges = static_cast<size_t>(u);
    ANOT_CKPT_READ(in->U64(&u), "options");
    d.max_recursion_steps = static_cast<size_t>(u);
    ANOT_CKPT_READ(in->I64(&d.timespan_tolerance), "options");
    ANOT_CKPT_READ(in->F64(&d.lambda), "options");
    ANOT_CKPT_READ(in->U64(&u), "options");
    d.max_pair_lag = static_cast<size_t>(u);
    ANOT_CKPT_READ(in->U64(&u), "options");
    d.max_instantiation_scan = static_cast<size_t>(u);
    ANOT_CKPT_READ(in->Bool(&d.use_triadic), "options");
    ANOT_CKPT_READ(in->Bool(&d.use_recursion), "options");
    ANOT_CKPT_READ(in->Bool(&d.use_category_aggregation), "options");
    ANOT_CKPT_READ(in->Bool(&d.unit_rule_weight), "options");
    uint8_t b = 0;
    ANOT_CKPT_READ(in->U8(&b) && b <= 1, "ranking mode");
    d.ranking = static_cast<RankingMode>(b);
    ANOT_CKPT_READ(in->Bool(&d.use_out_edge_violations), "options");
    ANOT_CKPT_READ(in->U8(&b) && b <= 1, "theta mode");
    d.theta_mode = static_cast<ThetaMode>(b);
    ANOT_CKPT_READ(in->F64(&d.temporal_base_weight), "options");
    ANOT_CKPT_READ(in->F64(&d.conflict_weight), "options");
    ANOT_CKPT_READ(in->U8(&b) && b <= 1, "head anchor");
    d.head_anchor = static_cast<TimeAnchor>(b);
    ANOT_CKPT_READ(in->U8(&b) && b <= 1, "tail anchor");
    d.tail_anchor = static_cast<TimeAnchor>(b);

    ANOT_CKPT_READ(in->U64(&u), "options");
    o->updater.new_rule_min_support = static_cast<size_t>(u);
    ANOT_CKPT_READ(in->U64(&u), "options");
    o->updater.max_pending_rules = static_cast<size_t>(u);

    ANOT_CKPT_READ(in->U8(&b) && b <= 1, "monitor mode");
    o->monitor.mode = static_cast<MonitorOptions::Mode>(b);
    ANOT_CKPT_READ(in->F64(&o->monitor.slack), "options");

    ANOT_CKPT_READ(in->Bool(&o->enable_updater), "options");
    ANOT_CKPT_READ(in->Bool(&o->auto_refresh), "options");
    ANOT_CKPT_READ(in->U8(&b) && b <= 1, "refresh mode");
    o->refresh_mode = static_cast<RefreshMode>(b);
    ANOT_CKPT_READ(in->U64(&u), "options");
    ANOT_CKPT_EXPECT(u <= 4096,
                     "checkpoint: implausible num_threads in options");
    o->num_threads = static_cast<size_t>(u);

    for (double v : {c.aggregation_overlap, d.lambda, d.temporal_base_weight,
                     d.conflict_weight, o->monitor.slack}) {
      ANOT_CKPT_EXPECT(std::isfinite(v),
                       "checkpoint: non-finite option value");
    }
    return Status::OK();
  }

  // -- section 2: dictionaries + fact log -----------------------------------

  static void EncodeGraph(const TemporalKnowledgeGraph& g, ByteWriter* w) {
    const Dictionary& ed = g.entity_dict();
    w->U64(ed.size());
    for (size_t i = 0; i < ed.size(); ++i) w->Str(ed.Name(i));
    const Dictionary& rd = g.relation_dict();
    w->U64(rd.size());
    for (size_t i = 0; i < rd.size(); ++i) w->Str(rd.Name(i));
    w->U64(g.num_entities());
    w->U64(g.num_relations());
    w->U64(g.num_facts());
    for (const Fact& f : g.facts()) {
      w->U32(f.subject);
      w->U32(f.relation);
      w->U32(f.object);
      w->I64(f.time);
      w->I64(f.end);
    }
  }

  static Status DecodeGraph(ByteReader* in, TemporalKnowledgeGraph* g) {
    uint64_t num_entity_names = 0;
    ANOT_CKPT_READ(in->Count(&num_entity_names, 8), "entity dictionary");
    g->entity_dict().Reserve(static_cast<size_t>(num_entity_names));
    std::string name;
    for (uint64_t i = 0; i < num_entity_names; ++i) {
      ANOT_CKPT_READ(in->Str(&name), "entity name");
      ANOT_CKPT_EXPECT(g->entity_dict().GetOrAdd(name) == i,
                       "checkpoint: duplicate entity name in dictionary");
    }
    uint64_t num_relation_names = 0;
    ANOT_CKPT_READ(in->Count(&num_relation_names, 8), "relation dictionary");
    g->relation_dict().Reserve(static_cast<size_t>(num_relation_names));
    for (uint64_t i = 0; i < num_relation_names; ++i) {
      ANOT_CKPT_READ(in->Str(&name), "relation name");
      ANOT_CKPT_EXPECT(g->relation_dict().GetOrAdd(name) == i,
                       "checkpoint: duplicate relation name in dictionary");
    }

    uint64_t num_entities = 0;
    uint64_t num_relations = 0;
    uint64_t num_facts = 0;
    ANOT_CKPT_READ(in->U64(&num_entities), "entity universe");
    ANOT_CKPT_READ(in->U64(&num_relations), "relation universe");
    // Fact ids are u32 and kInvalidId is reserved, so a universe at or
    // beyond kInvalidId cannot have been written by Save.
    ANOT_CKPT_EXPECT(num_entities < kInvalidId && num_relations < kInvalidId,
                     "checkpoint: universe size exceeds the id space");
    ANOT_CKPT_READ(in->Count(&num_facts, 28), "fact log");
    g->Reserve(static_cast<size_t>(num_facts));
    for (uint64_t i = 0; i < num_facts; ++i) {
      Fact f;
      ANOT_CKPT_READ(in->U32(&f.subject) && in->U32(&f.relation) &&
                         in->U32(&f.object) && in->I64(&f.time) &&
                         in->I64(&f.end),
                     "fact log");
      ANOT_CKPT_EXPECT(f.subject < num_entities && f.object < num_entities,
                       "checkpoint: fact references an unknown entity");
      ANOT_CKPT_EXPECT(f.relation < num_relations,
                       "checkpoint: fact references an unknown relation");
      ANOT_CKPT_EXPECT(f.end >= f.time,
                       "checkpoint: fact ends before it starts");
      g->AddFact(f);
    }
    // Replaying the fact log rebuilds every secondary index and the
    // universe counters; the declared sizes must match exactly (Save
    // derives both from the same log).
    ANOT_CKPT_EXPECT(
        g->num_entities() == num_entities && g->num_relations() == num_relations,
        "checkpoint: universe sizes disagree with the fact log");
    return Status::OK();
  }

  // -- section 3: category function -----------------------------------------

  static void EncodeCategories(const CategoryFunction& fn, ByteWriter* w) {
    const CategoryFunctionOptions& c = fn.options_;
    w->U64(c.max_categories_per_entity);
    w->U64(c.min_support);
    w->U64(c.max_combination_size);
    w->F64(c.aggregation_overlap);
    w->U64(c.max_aggregation_rounds);
    w->U64(c.max_aggregation_candidates);
    w->U64(c.max_categories);

    w->U64(fn.categories_.size());
    for (const auto& info : fn.categories_) {
      w->U64(info.tokens.size());
      for (uint32_t t : info.tokens) w->U32(t);
      w->U64(info.members.size());
      for (EntityId e : info.members) w->U32(e);
    }
    w->U64(fn.entity_categories_.size());
    for (const auto& cats : fn.entity_categories_) {
      w->U64(cats.size());
      for (CategoryId c2 : cats) w->U32(c2);
    }
    // Canonical order: the singleton map is unordered in memory, so sort
    // by token before writing.
    std::vector<std::pair<uint32_t, CategoryId>> singletons(
        fn.singleton_categories_.begin(), fn.singleton_categories_.end());
    // anot-lint: ordered-ok the entries are sorted by token immediately
    // below, so the map's iteration order cannot reach the output bytes.
    std::sort(singletons.begin(), singletons.end());
    w->U64(singletons.size());
    for (const auto& [token, cat] : singletons) {
      w->U32(token);
      w->U32(cat);
    }
  }

  static Status DecodeCategories(ByteReader* in,
                                 const TemporalKnowledgeGraph& g,
                                 CategoryFunction* fn) {
    CategoryFunctionOptions& c = fn->options_;
    uint64_t u = 0;
    ANOT_CKPT_READ(in->U64(&u), "category options");
    c.max_categories_per_entity = static_cast<size_t>(u);
    ANOT_CKPT_READ(in->U64(&u), "category options");
    c.min_support = static_cast<size_t>(u);
    ANOT_CKPT_READ(in->U64(&u), "category options");
    c.max_combination_size = static_cast<size_t>(u);
    ANOT_CKPT_READ(in->F64(&c.aggregation_overlap), "category options");
    ANOT_CKPT_EXPECT(std::isfinite(c.aggregation_overlap),
                     "checkpoint: non-finite category option");
    ANOT_CKPT_READ(in->U64(&u), "category options");
    c.max_aggregation_rounds = static_cast<size_t>(u);
    ANOT_CKPT_READ(in->U64(&u), "category options");
    c.max_aggregation_candidates = static_cast<size_t>(u);
    ANOT_CKPT_READ(in->U64(&u), "category options");
    c.max_categories = static_cast<size_t>(u);

    uint64_t num_categories = 0;
    ANOT_CKPT_READ(in->Count(&num_categories, 16), "category table");
    fn->categories_.reserve(static_cast<size_t>(num_categories));
    for (uint64_t i = 0; i < num_categories; ++i) {
      uint64_t n = 0;
      ANOT_CKPT_READ(in->Count(&n, 4), "category tokens");
      std::vector<uint32_t> tokens(static_cast<size_t>(n));
      for (auto& t : tokens) ANOT_CKPT_READ(in->U32(&t), "category tokens");
      ANOT_CKPT_EXPECT(
          std::is_sorted(tokens.begin(), tokens.end()) &&
              std::adjacent_find(tokens.begin(), tokens.end()) == tokens.end(),
          "checkpoint: category tokens not strictly ascending");
      ANOT_CKPT_READ(in->Count(&n, 4), "category members");
      std::vector<EntityId> members(static_cast<size_t>(n));
      for (auto& e : members) {
        ANOT_CKPT_READ(in->U32(&e), "category members");
        ANOT_CKPT_EXPECT(e < g.num_entities(),
                         "checkpoint: category member is not an entity");
      }
      ANOT_CKPT_EXPECT(std::is_sorted(members.begin(), members.end()) &&
                           std::adjacent_find(members.begin(),
                                              members.end()) == members.end(),
                       "checkpoint: category members not strictly ascending");
      fn->categories_.push_back(
          {std::move(tokens), std::move(members)});
    }
    // token_index_ is derived state: AddCategory appends category ids in
    // creation order, so rebuilding in id order reproduces it exactly.
    fn->token_index_.clear();
    for (CategoryId id = 0; id < fn->categories_.size(); ++id) {
      for (uint32_t t : fn->categories_[id].tokens) {
        fn->token_index_[t].push_back(id);
      }
    }

    uint64_t num_tracked = 0;
    ANOT_CKPT_READ(in->Count(&num_tracked, 8), "entity categories");
    ANOT_CKPT_EXPECT(num_tracked <= g.num_entities(),
                     "checkpoint: entity-category table larger than the "
                     "entity universe");
    fn->entity_categories_.resize(static_cast<size_t>(num_tracked));
    for (auto& cats : fn->entity_categories_) {
      uint64_t n = 0;
      ANOT_CKPT_READ(in->Count(&n, 4), "entity categories");
      cats.resize(static_cast<size_t>(n));
      for (auto& c2 : cats) {
        ANOT_CKPT_READ(in->U32(&c2), "entity categories");
        ANOT_CKPT_EXPECT(c2 < num_categories,
                         "checkpoint: entity assigned an unknown category");
      }
      ANOT_CKPT_EXPECT(
          std::is_sorted(cats.begin(), cats.end()) &&
              std::adjacent_find(cats.begin(), cats.end()) == cats.end(),
          "checkpoint: entity categories not strictly ascending");
    }

    uint64_t num_singletons = 0;
    ANOT_CKPT_READ(in->Count(&num_singletons, 8), "singleton categories");
    uint32_t prev_token = 0;
    for (uint64_t i = 0; i < num_singletons; ++i) {
      uint32_t token = 0;
      uint32_t cat = 0;
      ANOT_CKPT_READ(in->U32(&token) && in->U32(&cat),
                     "singleton categories");
      ANOT_CKPT_EXPECT(i == 0 || token > prev_token,
                       "checkpoint: singleton tokens not strictly ascending");
      prev_token = token;
      ANOT_CKPT_EXPECT(cat < num_categories,
                       "checkpoint: singleton maps to an unknown category");
      ANOT_CKPT_EXPECT(fn->categories_[cat].tokens ==
                           std::vector<uint32_t>{token},
                       "checkpoint: singleton category is not a singleton");
      fn->singleton_categories_.emplace(token, cat);
    }
    return Status::OK();
  }

  // -- section 4: rule graph ------------------------------------------------

  static void EncodeRules(const RuleGraph& rg, ByteWriter* w) {
    w->U64(rg.num_rules());
    for (RuleId id = 0; id < rg.num_rules(); ++id) {
      const AtomicRule& r = rg.rule(id);
      w->U32(r.subject_category);
      w->U32(r.relation);
      w->U32(r.object_category);
      w->U32(rg.support(id));
      uint8_t flags = 0;
      if (rg.static_selected(id)) flags |= 1;
      if (rg.recurrent(id)) flags |= 2;
      w->U8(flags);
    }
    w->U64(rg.num_edges());
    for (RuleEdgeId id = 0; id < rg.num_edges(); ++id) {
      const RuleEdge& e = rg.edge(id);
      w->U8(e.kind == RuleEdgeKind::kTriadic ? 1 : 0);
      w->U32(e.head);
      w->U32(e.mid);
      w->U32(e.tail);
      w->U32(e.support);
      w->U64(e.timespans.size());
      for (Timestamp t : e.timespans) w->I64(t);
    }
  }

  static Status DecodeRules(ByteReader* in, const TemporalKnowledgeGraph& g,
                            const CategoryFunction& fn, RuleGraph* rg) {
    uint64_t num_rules = 0;
    ANOT_CKPT_READ(in->Count(&num_rules, 17), "rule table");
    for (uint64_t i = 0; i < num_rules; ++i) {
      AtomicRule r;
      uint32_t support = 0;
      uint8_t flags = 0;
      ANOT_CKPT_READ(in->U32(&r.subject_category) && in->U32(&r.relation) &&
                         in->U32(&r.object_category) && in->U32(&support) &&
                         in->U8(&flags),
                     "rule table");
      ANOT_CKPT_EXPECT(r.subject_category < fn.num_categories() &&
                           r.object_category < fn.num_categories(),
                       "checkpoint: rule references an unknown category");
      ANOT_CKPT_EXPECT(r.relation < g.num_relations(),
                       "checkpoint: rule references an unknown relation");
      ANOT_CKPT_EXPECT(flags <= 3, "checkpoint: unknown rule flags");
      ANOT_CKPT_EXPECT(rg->AddRule(r, (flags & 1) != 0) == i,
                       "checkpoint: duplicate rule node");
      rg->SetSupport(static_cast<RuleId>(i), support);
      rg->SetRecurrent(static_cast<RuleId>(i), (flags & 2) != 0);
    }
    uint64_t num_edges = 0;
    ANOT_CKPT_READ(in->Count(&num_edges, 25), "edge table");
    for (uint64_t i = 0; i < num_edges; ++i) {
      RuleEdge e;
      uint8_t kind = 0;
      uint64_t num_spans = 0;
      ANOT_CKPT_READ(in->U8(&kind) && in->U32(&e.head) && in->U32(&e.mid) &&
                         in->U32(&e.tail) && in->U32(&e.support),
                     "edge table");
      ANOT_CKPT_EXPECT(kind <= 1, "checkpoint: unknown edge kind");
      e.kind = kind == 1 ? RuleEdgeKind::kTriadic : RuleEdgeKind::kChain;
      ANOT_CKPT_EXPECT(e.head < num_rules && e.tail < num_rules,
                       "checkpoint: edge references an unknown rule");
      ANOT_CKPT_EXPECT(e.kind == RuleEdgeKind::kTriadic
                           ? e.mid < num_rules
                           : e.mid == kInvalidId,
                       "checkpoint: edge mid rule malformed");
      ANOT_CKPT_READ(in->Count(&num_spans, 8), "edge timespans");
      Timestamp prev = 0;
      for (uint64_t s = 0; s < num_spans; ++s) {
        Timestamp t = 0;
        ANOT_CKPT_READ(in->I64(&t), "edge timespans");
        ANOT_CKPT_EXPECT(s == 0 || t >= prev,
                         "checkpoint: edge timespans not sorted");
        prev = t;
        e.timespans.push_back(t);
      }
      // AddEdge merges duplicates silently; a duplicate here means the
      // file does not describe a valid edge table.
      ANOT_CKPT_EXPECT(
          !rg->FindEdge(e.kind, e.head, e.mid, e.tail).has_value(),
          "checkpoint: duplicate rule edge");
      ANOT_CKPT_EXPECT(rg->AddEdge(e) == i, "checkpoint: edge table corrupt");
    }
    return Status::OK();
  }

  // -- section 5: build report ----------------------------------------------

  static void EncodeReport(const BuildReport& r, ByteWriter* w) {
    w->F64(r.build_seconds);
    w->U64(r.num_categories);
    w->U64(r.num_rules);
    w->U64(r.num_temporal_rules);
    w->U64(r.num_edges);
    w->U64(r.num_candidate_rules);
    w->U64(r.num_candidate_edges);
    w->F64(r.explained_fraction);
    w->F64(r.associated_fraction);
    w->F64(r.model_bits);
    w->F64(r.assertion_bits);
    w->F64(r.negative_bits);
    w->U64(r.num_train_timestamps);
  }

  static Status DecodeReport(ByteReader* in, BuildReport* r) {
    uint64_t u = 0;
    ANOT_CKPT_READ(in->F64(&r->build_seconds), "build report");
    ANOT_CKPT_READ(in->U64(&u), "build report");
    r->num_categories = static_cast<size_t>(u);
    ANOT_CKPT_READ(in->U64(&u), "build report");
    r->num_rules = static_cast<size_t>(u);
    ANOT_CKPT_READ(in->U64(&u), "build report");
    r->num_temporal_rules = static_cast<size_t>(u);
    ANOT_CKPT_READ(in->U64(&u), "build report");
    r->num_edges = static_cast<size_t>(u);
    ANOT_CKPT_READ(in->U64(&u), "build report");
    r->num_candidate_rules = static_cast<size_t>(u);
    ANOT_CKPT_READ(in->U64(&u), "build report");
    r->num_candidate_edges = static_cast<size_t>(u);
    ANOT_CKPT_READ(in->F64(&r->explained_fraction), "build report");
    ANOT_CKPT_READ(in->F64(&r->associated_fraction), "build report");
    ANOT_CKPT_READ(in->F64(&r->model_bits), "build report");
    ANOT_CKPT_READ(in->F64(&r->assertion_bits), "build report");
    ANOT_CKPT_READ(in->F64(&r->negative_bits), "build report");
    ANOT_CKPT_READ(in->U64(&u), "build report");
    r->num_train_timestamps = static_cast<size_t>(u);
    for (double v : {r->build_seconds, r->explained_fraction,
                     r->associated_fraction, r->model_bits, r->assertion_bits,
                     r->negative_bits}) {
      ANOT_CKPT_EXPECT(std::isfinite(v),
                       "checkpoint: non-finite build-report value");
    }
    return Status::OK();
  }

  // -- section 6: monitor ---------------------------------------------------

  static void EncodeMonitor(const Monitor& m, ByteWriter* w) {
    // The pricing-ledger universes are frozen at build time; they must be
    // persisted, not recomputed from the (since grown) graph.
    w->F64(m.pricing_.tier1_universe());
    w->F64(m.pricing_.tier2_universe());
    w->F64(m.training_bits_);
    w->U64(m.training_timestamps_);
    w->F64(m.online_bits_);
    w->U64(m.online_timestamps_);
    w->Bool(m.bucket_open_);
    w->I64(m.bucket_time_);
    w->U32(m.bucket_total_);
    w->U32(m.bucket_mapped_);
    w->U32(m.bucket_associated_);
  }

  static Status DecodeMonitor(ByteReader* in, const MonitorOptions& options,
                              std::unique_ptr<Monitor>* out) {
    double tier1 = 0.0;
    double tier2 = 0.0;
    double training_bits = 0.0;
    uint64_t training_timestamps = 0;
    double online_bits = 0.0;
    uint64_t online_timestamps = 0;
    bool bucket_open = false;
    Timestamp bucket_time = kNoTimestamp;
    uint32_t bucket_total = 0;
    uint32_t bucket_mapped = 0;
    uint32_t bucket_associated = 0;
    ANOT_CKPT_READ(in->F64(&tier1) && in->F64(&tier2) &&
                       in->F64(&training_bits) &&
                       in->U64(&training_timestamps) && in->F64(&online_bits) &&
                       in->U64(&online_timestamps) && in->Bool(&bucket_open) &&
                       in->I64(&bucket_time) && in->U32(&bucket_total) &&
                       in->U32(&bucket_mapped) && in->U32(&bucket_associated),
                   "monitor state");
    // Mirror of Monitor::CheckInvariants plus the ledger's constructor
    // preconditions — everything that would otherwise abort must be
    // rejected here as a Status.
    ANOT_CKPT_EXPECT(std::isfinite(tier1) && tier1 >= 1.0,
                     "checkpoint: monitor tier-1 universe out of range");
    ANOT_CKPT_EXPECT(std::isfinite(tier2) && tier2 > 0.0,
                     "checkpoint: monitor tier-2 universe out of range");
    ANOT_CKPT_EXPECT(std::isfinite(training_bits),
                     "checkpoint: non-finite monitor training bits");
    ANOT_CKPT_EXPECT(std::isfinite(online_bits) && online_bits >= 0.0,
                     "checkpoint: monitor online bits out of range");
    ANOT_CKPT_EXPECT(bucket_associated <= bucket_mapped &&
                         bucket_mapped <= bucket_total,
                     "checkpoint: monitor bucket counters incoherent");
    if (bucket_open) {
      ANOT_CKPT_EXPECT(bucket_total >= 1 && bucket_time != kNoTimestamp,
                       "checkpoint: open monitor bucket malformed");
    } else {
      ANOT_CKPT_EXPECT(bucket_total == 0 && bucket_mapped == 0 &&
                           bucket_associated == 0,
                       "checkpoint: closed monitor bucket retains counters");
    }
    *out = std::make_unique<Monitor>(training_bits,
                                     static_cast<size_t>(training_timestamps),
                                     tier1, tier2, options);
    Monitor& m = **out;
    m.online_bits_ = online_bits;
    m.online_timestamps_ = static_cast<size_t>(online_timestamps);
    m.bucket_open_ = bucket_open;
    m.bucket_time_ = bucket_time;
    m.bucket_total_ = bucket_total;
    m.bucket_mapped_ = bucket_mapped;
    m.bucket_associated_ = bucket_associated;
    return Status::OK();
  }

  // -- section 7: updater pending-rule table --------------------------------

  static void EncodeUpdater(const Updater& u, ByteWriter* w) {
    w->U64(u.pending_lru_.size());
    // LRU-list order (front = most recently touched) is the only order
    // that matters behaviorally (eviction), and it is deterministic, so
    // it is the canonical serialization order.
    for (const AtomicRule& rule : u.pending_lru_) {
      auto it = u.pending_rules_.find(rule);
      ANOT_CHECK(it != u.pending_rules_.end())
          << "pending LRU entry missing from the table";
      w->U32(rule.subject_category);
      w->U32(rule.relation);
      w->U32(rule.object_category);
      w->U32(it->second.support);
    }
  }

  static Status DecodeUpdater(ByteReader* in, const AnoTOptions& options,
                              const TemporalKnowledgeGraph& g,
                              const CategoryFunction& fn, Updater* u) {
    uint64_t count = 0;
    ANOT_CKPT_READ(in->Count(&count, 16), "pending-rule table");
    ANOT_CKPT_EXPECT(
        count <= std::max<uint64_t>(1, options.updater.max_pending_rules),
        "checkpoint: pending-rule table exceeds its cap");
    for (uint64_t i = 0; i < count; ++i) {
      AtomicRule rule;
      uint32_t support = 0;
      ANOT_CKPT_READ(in->U32(&rule.subject_category) &&
                         in->U32(&rule.relation) &&
                         in->U32(&rule.object_category) && in->U32(&support),
                     "pending-rule table");
      ANOT_CKPT_EXPECT(rule.subject_category < fn.num_categories() &&
                           rule.object_category < fn.num_categories(),
                       "checkpoint: pending rule references an unknown "
                       "category");
      ANOT_CKPT_EXPECT(rule.relation < g.num_relations(),
                       "checkpoint: pending rule references an unknown "
                       "relation");
      ANOT_CKPT_EXPECT(support >= 1,
                       "checkpoint: pending rule with zero support");
      ANOT_CKPT_EXPECT(!u->rules_->FindRule(rule).has_value(),
                       "checkpoint: rule both pending and admitted");
      u->pending_lru_.push_back(rule);
      const bool inserted =
          u->pending_rules_
              .emplace(rule, Updater::PendingRule{
                                 support, std::prev(u->pending_lru_.end())})
              .second;
      ANOT_CKPT_EXPECT(inserted, "checkpoint: duplicate pending rule");
    }
    return Status::OK();
  }

  // -- section 8: serving scalars -------------------------------------------

  static void EncodeServing(const AnoT& s, ByteWriter* w) {
    w->F64(s.static_threshold_);
    w->F64(s.temporal_threshold_);
    w->U64(s.refresh_count_);
  }

  static Status DecodeServing(ByteReader* in, AnoT* s) {
    uint64_t u = 0;
    ANOT_CKPT_READ(in->F64(&s->static_threshold_) &&
                       in->F64(&s->temporal_threshold_) && in->U64(&u),
                   "serving state");
    s->refresh_count_ = static_cast<size_t>(u);
    return Status::OK();
  }

  // -- whole-file assembly --------------------------------------------------

  static std::string EncodeAll(const AnoT& s) {
    ByteWriter out;
    out.Append(std::string(Checkpoint::kMagic, sizeof(Checkpoint::kMagic)));
    out.U32(Checkpoint::kFormatVersion);
    out.U32(kNumSections);
    {
      ByteWriter w;
      EncodeOptions(*s.options_, &w);
      AppendSection(kSectionOptions, w, &out);
    }
    {
      ByteWriter w;
      EncodeGraph(*s.graph_, &w);
      AppendSection(kSectionGraph, w, &out);
    }
    {
      ByteWriter w;
      EncodeCategories(*s.categories_, &w);
      AppendSection(kSectionCategories, w, &out);
    }
    {
      ByteWriter w;
      EncodeRules(*s.rules_, &w);
      AppendSection(kSectionRules, w, &out);
    }
    {
      ByteWriter w;
      EncodeReport(s.report_, &w);
      AppendSection(kSectionReport, w, &out);
    }
    {
      ByteWriter w;
      EncodeMonitor(*s.monitor_, &w);
      AppendSection(kSectionMonitor, w, &out);
    }
    {
      ByteWriter w;
      EncodeUpdater(*s.updater_, &w);
      AppendSection(kSectionUpdater, w, &out);
    }
    {
      ByteWriter w;
      EncodeServing(s, &w);
      AppendSection(kSectionServing, w, &out);
    }
    ByteWriter footer;
    footer.U64(Checkpoint::Checksum(out.bytes().data(), out.bytes().size()));
    std::string bytes = out.bytes();
    bytes += footer.bytes();
    return bytes;
  }

  static Status DecodeAll(const std::string& bytes, AnoT* out) {
    constexpr size_t kMagicSize = sizeof(Checkpoint::kMagic);
    constexpr size_t kMinSize = kMagicSize + 4 + 4 + 8;  // header + footer
    if (bytes.size() < kMinSize) {
      return Status::InvalidArgument(
          "checkpoint: file too short to be a checkpoint");
    }
    if (std::memcmp(bytes.data(), Checkpoint::kMagic, kMagicSize) != 0) {
      return Status::InvalidArgument(
          "checkpoint: bad magic — not an AnoT checkpoint file");
    }
    ByteReader top(bytes.data(), bytes.size() - 8);
    ANOT_CKPT_READ(top.Skip(kMagicSize), "header");
    uint32_t version = 0;
    ANOT_CKPT_READ(top.U32(&version), "header");
    if (version != Checkpoint::kFormatVersion) {
      return Status::InvalidArgument(StrFormat(
          "checkpoint: format version %u is not readable by this build "
          "(expects version %u)",
          version, Checkpoint::kFormatVersion));
    }
    ByteReader footer(bytes.data() + bytes.size() - 8, 8);
    uint64_t want_checksum = 0;
    ANOT_CKPT_READ(footer.U64(&want_checksum), "footer");
    if (Checkpoint::Checksum(bytes.data(), bytes.size() - 8) !=
        want_checksum) {
      return Status::InvalidArgument(
          "checkpoint: checksum mismatch (truncated or corrupt file)");
    }
    uint32_t num_sections = 0;
    ANOT_CKPT_READ(top.U32(&num_sections), "header");
    ANOT_CKPT_EXPECT(num_sections == kNumSections,
                     "checkpoint: unexpected section count");

    ByteReader sections[kNumSections];
    for (uint32_t i = 0; i < kNumSections; ++i) {
      uint32_t id = 0;
      uint64_t len = 0;
      ANOT_CKPT_READ(top.U32(&id), "section header");
      ANOT_CKPT_EXPECT(id == i + 1,
                       "checkpoint: sections out of order or unknown "
                       "section id");
      ANOT_CKPT_READ(top.U64(&len), "section header");
      ANOT_CKPT_EXPECT(len <= top.remaining(),
                       "checkpoint: section length exceeds the file size");
      ANOT_CKPT_READ(top.Sub(static_cast<size_t>(len), &sections[i]),
                     "section payload");
    }
    ANOT_CKPT_EXPECT(top.remaining() == 0,
                     "checkpoint: trailing bytes after the last section");

    out->options_ = std::make_unique<AnoTOptions>();
    ANOT_RETURN_NOT_OK(
        DecodeOptions(&sections[kSectionOptions - 1], out->options_.get()));
    out->graph_ = std::make_unique<TemporalKnowledgeGraph>();
    ANOT_RETURN_NOT_OK(
        DecodeGraph(&sections[kSectionGraph - 1], out->graph_.get()));
    out->categories_ = std::make_unique<CategoryFunction>();
    ANOT_RETURN_NOT_OK(DecodeCategories(&sections[kSectionCategories - 1],
                                        *out->graph_,
                                        out->categories_.get()));
    out->rules_ = std::make_unique<RuleGraph>();
    ANOT_RETURN_NOT_OK(DecodeRules(&sections[kSectionRules - 1], *out->graph_,
                                   *out->categories_, out->rules_.get()));
    ANOT_RETURN_NOT_OK(
        DecodeReport(&sections[kSectionReport - 1], &out->report_));
    ANOT_RETURN_NOT_OK(DecodeMonitor(&sections[kSectionMonitor - 1],
                                     out->options_->monitor, &out->monitor_));
    out->RecreateServingObjects();
    ANOT_RETURN_NOT_OK(DecodeUpdater(&sections[kSectionUpdater - 1],
                                     *out->options_, *out->graph_,
                                     *out->categories_, out->updater_.get()));
    ANOT_RETURN_NOT_OK(DecodeServing(&sections[kSectionServing - 1], out));
    for (uint32_t i = 0; i < kNumSections; ++i) {
      ANOT_CKPT_EXPECT(sections[i].remaining() == 0,
                       "checkpoint: trailing bytes inside a section");
    }
    return Status::OK();
  }
};

// ----------------------------------------------------------- entry points

uint64_t Checkpoint::Checksum(const void* data, size_t size) {
  // FNV-1a 64.
  const unsigned char* p = static_cast<const unsigned char*>(data);
  uint64_t h = 14695981039346656037ull;
  for (size_t i = 0; i < size; ++i) {
    h ^= p[i];
    h *= 1099511628211ull;
  }
  return h;
}

Status Checkpoint::Save(const AnoT& system, const std::string& path) {
  if (system.async_ != nullptr) {
    return Status::FailedPrecondition(
        "checkpoint: a background refresh is in flight; quiesce with "
        "FinishRefresh() (or Refresh()) before saving");
  }
  const std::string bytes = Codec::EncodeAll(system);
  const std::string tmp = path + ".tmp";
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (!out) {
      return Status::IoError("checkpoint: cannot open " + tmp +
                             " for writing");
    }
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    out.flush();
    if (!out) {
      std::remove(tmp.c_str());
      return Status::IoError("checkpoint: short write to " + tmp);
    }
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    return Status::IoError("checkpoint: cannot rename " + tmp + " to " + path);
  }
  return Status::OK();
}

Result<AnoT> Checkpoint::Load(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    return Status::IoError("checkpoint: cannot open " + path);
  }
  std::string bytes((std::istreambuf_iterator<char>(in)),
                    std::istreambuf_iterator<char>());
  if (in.bad()) {
    return Status::IoError("checkpoint: read error on " + path);
  }
  AnoT out;
  ANOT_RETURN_NOT_OK(Codec::DecodeAll(bytes, &out));
  // Belt and braces on validating builds: the Status checks above mirror
  // every structural invariant, and the compiled validators re-verify the
  // assembled detector the same way serving-path tests do.
  out.CheckInvariants();
  return out;
}

Status AnoT::SaveCheckpoint(const std::string& path) const {
  return Checkpoint::Save(*this, path);
}

Result<AnoT> AnoT::LoadCheckpoint(const std::string& path) {
  return Checkpoint::Load(path);
}

}  // namespace anot
