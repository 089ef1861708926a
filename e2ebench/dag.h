// The paper's Figure 3 trending DAG as the benchmark runs it, plus the
// seeded event model both the generator and the correctness reference use.
//
//   incoming -> [Filterer] -> filtered -> [Joiner] -> joined -> [Scorer]
//                               Laser dims lookup ^                 |
//                        Scuba table (per event) <- tee ------------+
//                                                    \-> scored -> Ranker (Puma)
//                                                              \-> Laser item_totals
#ifndef FBSTREAM_E2EBENCH_DAG_H_
#define FBSTREAM_E2EBENCH_DAG_H_

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/hash.h"
#include "common/serde.h"
#include "common/value.h"
#include "core/processor.h"
#include "core/sink.h"
#include "storage/laser/laser.h"
#include "storage/scuba/scuba.h"
#include "trace.h"

namespace e2ebench {

// Scorer key space (items) and Laser dimension table size. The Scorer's
// exactly-once state is checkpointed whole, so its key space stays small.
constexpr int64_t kItems = 1000;
constexpr int64_t kDims = 1000;
constexpr const char* kTopics[] = {"sports", "politics", "arts", "tech"};
constexpr const char* kLanguages[] = {"en", "es", "pt", "fr", "de"};

inline SchemaPtr IncomingSchema() {
  static const SchemaPtr s = Schema::Make({{"ts_us", ValueType::kInt64},
                                           {"seq", ValueType::kInt64},
                                           {"event_type", ValueType::kString},
                                           {"dim_id", ValueType::kInt64},
                                           {"item", ValueType::kInt64},
                                           {"text", ValueType::kString}});
  return s;
}
inline SchemaPtr JoinedSchema() {
  static const SchemaPtr s = Schema::Make({{"ts_us", ValueType::kInt64},
                                           {"seq", ValueType::kInt64},
                                           {"item", ValueType::kInt64},
                                           {"topic", ValueType::kString},
                                           {"language", ValueType::kString}});
  return s;
}
inline SchemaPtr ScoredSchema() {
  static const SchemaPtr s = Schema::Make({{"ts_us", ValueType::kInt64},
                                           {"seq", ValueType::kInt64},
                                           {"item", ValueType::kInt64},
                                           {"topic", ValueType::kString},
                                           {"language", ValueType::kString},
                                           {"total", ValueType::kInt64}});
  return s;
}
inline SchemaPtr DimSchema() {
  static const SchemaPtr s = Schema::Make(
      {{"dim_id", ValueType::kInt64}, {"language", ValueType::kString}});
  return s;
}

inline uint64_t Mix64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}
inline double Unit(uint64_t h) {
  return static_cast<double>(h >> 11) * (1.0 / (1ULL << 53));
}

// Zipf(s) over [0, n) by inverse CDF.
class Zipf {
 public:
  Zipf(int64_t n, double s) : cdf_(static_cast<size_t>(n)) {
    double sum = 0;
    for (int64_t i = 0; i < n; ++i) {
      sum += 1.0 / std::pow(static_cast<double>(i + 1), s);
      cdf_[static_cast<size_t>(i)] = sum;
    }
    for (double& c : cdf_) c /= sum;
  }
  int64_t Sample(double u) const {
    return std::min<int64_t>(
        std::lower_bound(cdf_.begin(), cdf_.end(), u) - cdf_.begin(),
        static_cast<int64_t>(cdf_.size()) - 1);
  }

 private:
  std::vector<double> cdf_;
};

// Event `seq` of a run is a pure function of (seed, seq): the generator
// and the correctness reference derive it independently.
struct EventSpec {
  bool post = false;
  int64_t dim = 0;
  int64_t item = 0;
  uint64_t h = 0;
};
inline EventSpec MakeEvent(uint64_t seed, int64_t seq, const Zipf& items) {
  EventSpec e;
  e.h = Mix64(seed * 0x100000001b3ULL ^ static_cast<uint64_t>(seq));
  e.post = (e.h % 10) < 8;
  e.dim = static_cast<int64_t>((e.h >> 8) % kDims);
  e.item = items.Sample(Unit(Mix64(e.h)));
  return e;
}
inline std::string HashTag(int64_t item) {
  return "#t" + std::to_string(item % 64);
}
inline std::string EventText(const EventSpec& e) {
  static const char kHex[] = "0123456789abcdef";
  std::string text = HashTag(e.item) + " ";
  for (int i = 0; i < 12; ++i) text.push_back(kHex[(e.h >> (4 * i)) & 15]);
  return text;
}
// The Joiner's "classification service": topic of the leading hashtag.
inline std::string TopicOfText(const std::string& text) {
  const size_t end = text.find(' ');
  return kTopics[Fnv1a64(text.substr(0, end)) % 4];
}
inline std::string TopicOfItem(int64_t item) {
  return kTopics[Fnv1a64(HashTag(item)) % 4];
}
// Synthetic event time: a fixed stream-time rate, so Puma windows are a
// function of the input alone.
inline int64_t EventTimeUs(int64_t seq) { return 3600'000'000 + seq * 10; }

// Charges one Process call to its node's NodeTimes in the active Meters.
class TimedProcess {
 public:
  explicit TimedProcess(NodeTimes Meters::*node)
      : node_(node), span_(Layer::kCore) {}
  ~TimedProcess() {
    if (span_.meters() == nullptr) return;
    NodeTimes& t = span_.meters()->*node_;
    t.ns.fetch_add(span_.ElapsedNs(), std::memory_order_relaxed);
    t.events.fetch_add(1, std::memory_order_relaxed);
  }
  TimedProcess(const TimedProcess&) = delete;
  TimedProcess& operator=(const TimedProcess&) = delete;

 private:
  NodeTimes Meters::*node_;
  Span span_;
};

// Node 1: keeps post events.
class Filterer : public stylus::StatelessProcessor {
 public:
  void Process(const stylus::Event& event, std::vector<Row>* out) override {
    TimedProcess timed(&Meters::filterer);
    if (event.row.Get(2).AsString() != "post") return;
    out->push_back(event.row);
  }
};

// Node 2: Laser dimension lookup plus topic classification.
class Joiner : public stylus::StatelessProcessor {
 public:
  explicit Joiner(laser::LaserApp* dims) : dims_(dims) {}
  void Process(const stylus::Event& event, std::vector<Row>* out) override {
    TimedProcess timed(&Meters::joiner);
    std::string language = "unknown";
    {
      Span get(Layer::kLaser, &Meters::join_get);
      auto dim = dims_->Get(event.row.Get(3));
      if (dim.ok()) language = dim->Get(0).AsString();
    }
    const std::string& text = event.row.Get(5).AsString();
    out->push_back(Row(JoinedSchema(),
                       {event.row.Get(0), event.row.Get(1), event.row.Get(4),
                        Value(TopicOfText(text)), Value(std::move(language))}));
  }

 private:
  laser::LaserApp* dims_;
};

// Node 3: per-item running totals, exactly-once state in the shard's local
// LSM store. Emits one scored row per event.
class Scorer : public stylus::StatefulProcessor {
 public:
  Scorer() : totals_(kItems, 0) {
    std::lock_guard<std::mutex> lock(LiveMu());
    Live().push_back(this);
  }
  ~Scorer() override {
    std::lock_guard<std::mutex> lock(LiveMu());
    Live().erase(std::find(Live().begin(), Live().end(), this));
  }

  void Process(const stylus::Event& event, std::vector<Row>* out) override {
    TimedProcess timed(&Meters::scorer);
    const int64_t item = event.row.Get(2).AsInt64();
    const int64_t total = ++totals_[static_cast<size_t>(item)];
    out->push_back(Row(ScoredSchema(),
                       {event.row.Get(0), event.row.Get(1), event.row.Get(2),
                        event.row.Get(3), event.row.Get(4), Value(total)}));
  }

  std::string SerializeState() const override {
    Span span(Layer::kCore);
    std::string out;
    for (int64_t t : totals_) PutVarint64(&out, static_cast<uint64_t>(t));
    if (span.meters() != nullptr) {
      span.meters()->scorer.serialize_ns.fetch_add(span.ElapsedNs());
    }
    return out;
  }
  Status RestoreState(std::string_view data) override {
    for (int64_t& t : totals_) {
      uint64_t v = 0;
      if (!GetVarint64(&data, &v)) return Status::Corruption("scorer state");
      t = static_cast<int64_t>(v);
    }
    return Status::OK();
  }

  const std::vector<int64_t>& totals() const { return totals_; }

  // Live Scorer instances, for the correctness check after Stop().
  static std::mutex& LiveMu() {
    static std::mutex mu;
    return mu;
  }
  static std::vector<Scorer*>& Live() {
    static std::vector<Scorer*> live;
    return live;
  }

 private:
  std::vector<int64_t> totals_;
};

// What the Scorer's sink saw, per input sequence number: how many times the
// row landed in Scuba and when it became visible there.
class VisibilityLog {
 public:
  explicit VisibilityLog(int64_t events)
      : count_(static_cast<size_t>(events), 0),
        visible_ns_(static_cast<size_t>(events), 0) {}

  void Record(int64_t seq, int64_t now_ns) {
    std::lock_guard<std::mutex> lock(mu_);
    if (seq < 0 || static_cast<size_t>(seq) >= count_.size()) {
      out_of_range_ = true;
      return;
    }
    if (count_[static_cast<size_t>(seq)]++ == 0) {
      visible_ns_[static_cast<size_t>(seq)] = now_ns;
    }
    rows_.fetch_add(1, std::memory_order_release);
  }
  int64_t rows() const { return rows_.load(std::memory_order_acquire); }

  // Read only after the pipeline has stopped.
  const std::vector<uint8_t>& counts() const { return count_; }
  const std::vector<int64_t>& visible_ns() const { return visible_ns_; }
  bool out_of_range() const { return out_of_range_; }

 private:
  std::mutex mu_;
  std::vector<uint8_t> count_;
  std::vector<int64_t> visible_ns_;
  bool out_of_range_ = false;
  std::atomic<int64_t> rows_{0};
};

// The Scorer's output: each row goes to the Scuba table (where the event is
// timed as visible) and on to the `scored` stream for Puma and Laser.
// `corrupt` makes the sink drop or duplicate one row, to prove the
// correctness gate rejects such a run.
class ScoredSink : public stylus::OutputSink {
 public:
  enum class Corrupt { kNone, kDrop, kDup };

  ScoredSink(scuba::ScubaTable* table, std::shared_ptr<stylus::OutputSink> bus,
             VisibilityLog* log, Corrupt corrupt, int64_t corrupt_seq)
      : table_(table),
        bus_(std::move(bus)),
        log_(log),
        corrupt_(corrupt),
        corrupt_seq_(corrupt_seq) {}

  Status Emit(const Row& row) override {
    const int64_t seq = row.Get(1).AsInt64();
    int copies = 1;
    if (seq == corrupt_seq_ && corrupt_ == Corrupt::kDrop) copies = 0;
    if (seq == corrupt_seq_ && corrupt_ == Corrupt::kDup) copies = 2;
    for (int i = 0; i < copies; ++i) {
      {
        Span span(Layer::kScuba, &Meters::scuba_ingest);
        table_->AddRow(row);
      }
      log_->Record(seq, NowNs());
      FBSTREAM_RETURN_IF_ERROR(bus_->Emit(row));
    }
    return Status::OK();
  }
  std::string OutputCategory() const override {
    return bus_->OutputCategory();
  }

 private:
  scuba::ScubaTable* table_;
  std::shared_ptr<stylus::OutputSink> bus_;
  VisibilityLog* log_;
  Corrupt corrupt_;
  int64_t corrupt_seq_;
};

// Node 4: the Ranker, the paper's Figure 2 Puma app over the scored stream.
constexpr char kRankerApp[] = R"(
CREATE APPLICATION ranker;
CREATE INPUT TABLE scored (ts_us BIGINT, seq BIGINT, item BIGINT, topic,
                           language, total BIGINT)
  FROM SCRIBE("scored") TIME ts_us;
CREATE TABLE top_items_5min AS
  SELECT topic, item, topk(total) AS score
  FROM scored [5 minutes];
)";

}  // namespace e2ebench

#endif  // FBSTREAM_E2EBENCH_DAG_H_
