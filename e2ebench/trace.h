// Timing seams for the benchmark's traced run. Every layer is measured from
// outside: a Scribe subclass forwards and times each bus call, an OutputSink
// wrapper times emits, and the benchmark's own code times calls into Laser,
// Scuba and Puma. Nothing here reaches into src/.
#ifndef FBSTREAM_E2EBENCH_TRACE_H_
#define FBSTREAM_E2EBENCH_TRACE_H_

#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "common/metrics.h"
#include "core/sink.h"
#include "scribe/scribe.h"

namespace e2ebench {

using namespace fbstream;  // Benchmark code only.

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// Exact percentile (linear interpolation between order statistics) of an
// unsorted sample; sorts `v` in place.
inline double Percentile(std::vector<double>* v, double q) {
  if (v->empty()) return 0;
  std::sort(v->begin(), v->end());
  const double pos = q * static_cast<double>(v->size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, v->size() - 1);
  return (*v)[lo] + (pos - static_cast<double>(lo)) * ((*v)[hi] - (*v)[lo]);
}

inline double Median(std::vector<double> v) { return Percentile(&v, 0.5); }

inline double Mean(const std::vector<double>& v) {
  if (v.empty()) return 0;
  double sum = 0;
  for (double x : v) sum += x;
  return sum / static_cast<double>(v.size());
}

// Log-linear latency histogram in nanoseconds: 16 sub-buckets per power of
// two (≤ 6.25% bucket width), relaxed atomic cells so any thread can record.
// Percentiles interpolate inside the bucket.
class LatencyHistogram {
 public:
  static constexpr int kSub = 16;
  static constexpr int kBuckets = 64 * kSub;

  void Record(int64_t ns) {
    const uint64_t v = ns < 1 ? 1 : static_cast<uint64_t>(ns);
    cells_[Index(v)].fetch_add(1, std::memory_order_relaxed);
    count_.fetch_add(1, std::memory_order_relaxed);
    sum_.fetch_add(v, std::memory_order_relaxed);
  }
  uint64_t count() const { return count_.load(std::memory_order_relaxed); }
  uint64_t sum_ns() const { return sum_.load(std::memory_order_relaxed); }

  // Quantile in nanoseconds.
  double Quantile(double q) const {
    const uint64_t n = count();
    if (n == 0) return 0;
    const double target = q * static_cast<double>(n);
    double seen = 0;
    for (int i = 0; i < kBuckets; ++i) {
      const double c = static_cast<double>(
          cells_[i].load(std::memory_order_relaxed));
      if (c == 0) continue;
      if (seen + c >= target) {
        const double lo = Lower(i);
        const double hi = Lower(i + 1);
        return lo + (hi - lo) * ((target - seen) / c);
      }
      seen += c;
    }
    return Lower(kBuckets - 1);
  }

 private:
  static int Index(uint64_t v) {
    if (v < kSub) return static_cast<int>(v);
    const int exp = 63 - __builtin_clzll(v);  // v in [2^exp, 2^(exp+1)).
    const int sub = static_cast<int>((v >> (exp - 4)) & (kSub - 1));
    return (exp - 3) * kSub + sub;
  }
  static double Lower(int index) {
    if (index < kSub) return index;
    const int exp = index / kSub + 3;
    const int sub = index % kSub;
    return std::ldexp(1.0 + sub / static_cast<double>(kSub), exp);
  }

  std::array<std::atomic<uint64_t>, kBuckets> cells_{};
  std::atomic<uint64_t> count_{0};
  std::atomic<uint64_t> sum_{0};
};

// The layers a traced run splits time across.
enum class Layer { kScribe, kCore, kLsm, kLaser, kScuba, kPuma, kCount };
inline const char* LayerName(Layer l) {
  static const char* kNames[] = {"scribe", "core",  "lsm",
                                 "laser",  "scuba", "puma"};
  return kNames[static_cast<int>(l)];
}

// Self time per layer: a span's duration minus the part of it covered by
// spans nested inside it on the same thread (a ScribeSink emit contains the
// bus append it makes, a Laser poll contains the bus reads).
class LayerClock {
 public:
  void AddSelf(Layer l, int64_t ns) {
    self_ns_[static_cast<int>(l)].fetch_add(ns, std::memory_order_relaxed);
  }
  int64_t self_ns(Layer l) const {
    return self_ns_[static_cast<int>(l)].load(std::memory_order_relaxed);
  }

 private:
  std::array<std::atomic<int64_t>, static_cast<int>(Layer::kCount)>
      self_ns_{};
};

// Time spent in one node's Process (and, for the Scorer, SerializeState).
struct NodeTimes {
  std::atomic<int64_t> ns{0};
  std::atomic<int64_t> events{0};
  std::atomic<int64_t> serialize_ns{0};
};

// Everything the timing seams record during one kind of phase. A traced
// run keeps one Meters per phase kind and points ActiveMeters() at the one
// in force; with no Meters active (every untraced run) the seams only
// forward.
struct Meters {
  LayerClock layers;
  // Bus calls.
  LatencyHistogram append;
  std::atomic<uint64_t> appends{0};
  std::atomic<uint64_t> reads{0};
  std::atomic<uint64_t> empty_reads{0};
  std::atomic<uint64_t> read_msgs{0};
  // Engine.
  NodeTimes filterer, joiner, scorer;
  LatencyHistogram sink_emit;
  LatencyHistogram commit;  // Scorer checkpoint commit.
  std::atomic<int64_t> commit_ns{0};
  // Stores.
  LatencyHistogram join_get;  // The Joiner's Laser lookups.
  LatencyHistogram scuba_ingest;
  std::atomic<int64_t> laser_poll_ns{0}, laser_poll_rows{0};
  std::atomic<int64_t> puma_poll_ns{0}, puma_poll_rows{0};
};

inline std::atomic<Meters*>& ActiveMeters() {
  static std::atomic<Meters*> active{nullptr};
  return active;
}

// RAII span: times one call into `layer` against the active Meters, and
// records its duration in `hist` when given.
class Span {
 public:
  explicit Span(Layer layer, LatencyHistogram Meters::*hist = nullptr)
      : layer_(layer),
        hist_(hist),
        meters_(ActiveMeters().load(std::memory_order_acquire)) {
    if (meters_ == nullptr) return;
    saved_child_ = child_ns_;
    child_ns_ = 0;
    start_ = NowNs();
  }
  ~Span() {
    if (meters_ == nullptr) return;
    const int64_t dur = NowNs() - start_;
    meters_->layers.AddSelf(layer_, dur - child_ns_);
    if (hist_ != nullptr) (meters_->*hist_).Record(dur);
    child_ns_ = saved_child_ + dur;
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  // Null when nothing is being traced.
  Meters* meters() const { return meters_; }
  int64_t ElapsedNs() const { return NowNs() - start_; }

 private:
  static inline thread_local int64_t child_ns_ = 0;
  Layer layer_;
  LatencyHistogram Meters::*hist_;
  Meters* meters_;
  int64_t saved_child_ = 0;
  int64_t start_ = 0;
};

// Forwards every bus call to `inner` and times it. Wraps the in-process bus
// and RemoteScribe alike.
class TimedScribe : public scribe::Scribe {
 public:
  explicit TimedScribe(scribe::Scribe* inner)
      : scribe::Scribe(inner->clock()), inner_(inner) {}

  Status CreateCategory(const scribe::CategoryConfig& config) override {
    return inner_->CreateCategory(config);
  }
  bool HasCategory(const std::string& name) const override {
    return inner_->HasCategory(name);
  }
  StatusOr<scribe::CategoryConfig> GetConfig(
      const std::string& name) const override {
    return inner_->GetConfig(name);
  }
  Status SetNumBuckets(const std::string& category, int n) override {
    return inner_->SetNumBuckets(category, n);
  }
  Status Write(const std::string& category, int bucket,
               const std::string& payload) override {
    Span span(Layer::kScribe, &Meters::append);
    if (span.meters() != nullptr) span.meters()->appends.fetch_add(1);
    return inner_->Write(category, bucket, payload);
  }
  Status WriteSharded(const std::string& category,
                      const std::string& shard_key,
                      const std::string& payload) override {
    Span span(Layer::kScribe, &Meters::append);
    if (span.meters() != nullptr) span.meters()->appends.fetch_add(1);
    return inner_->WriteSharded(category, shard_key, payload);
  }
  StatusOr<std::vector<scribe::Message>> Read(
      const std::string& category, int bucket, uint64_t from_sequence,
      size_t max_messages) const override {
    Span span(Layer::kScribe);
    auto out = inner_->Read(category, bucket, from_sequence, max_messages);
    if (Meters* m = span.meters(); m != nullptr) {
      const size_t n = out.ok() ? out->size() : 0;
      m->reads.fetch_add(1);
      if (n == 0) m->empty_reads.fetch_add(1);
      m->read_msgs.fetch_add(n);
    }
    return out;
  }
  StatusOr<uint64_t> NextSequence(const std::string& category,
                                  int bucket) const override {
    Span span(Layer::kScribe);
    return inner_->NextSequence(category, bucket);
  }
  void TrimExpired() override { inner_->TrimExpired(); }
  StatusOr<uint64_t> TotalBytes(const std::string& category) const override {
    return inner_->TotalBytes(category);
  }
  int NumBuckets(const std::string& category) const override {
    return inner_->NumBuckets(category);
  }

 private:
  scribe::Scribe* inner_;
};

// Times every emit of a node's output sink. The emit's self time (row
// encoding, resharding) is engine work and is charged to `core`; the bus
// append or store ingest it makes is charged to that layer's own span.
class TimedSink : public stylus::OutputSink {
 public:
  explicit TimedSink(std::shared_ptr<stylus::OutputSink> inner)
      : inner_(std::move(inner)) {}

  Status Emit(const Row& row) override {
    Span span(Layer::kCore, &Meters::sink_emit);
    return inner_->Emit(row);
  }
  bool SupportsTransactions() const override {
    return inner_->SupportsTransactions();
  }
  Status AppendToTransaction(const std::vector<Row>& rows,
                             lsm::WriteBatch* batch) override {
    return inner_->AppendToTransaction(rows, batch);
  }
  std::string OutputCategory() const override {
    return inner_->OutputCategory();
  }

 private:
  std::shared_ptr<stylus::OutputSink> inner_;
};

// Process resource usage, for CPU per event and scheduler pressure.
struct ProcUsage {
  double user_s = 0;
  double sys_s = 0;
  double invol_switches = 0;

  static ProcUsage Now() {
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    ProcUsage u;
    u.user_s = static_cast<double>(ru.ru_utime.tv_sec) +
               static_cast<double>(ru.ru_utime.tv_usec) * 1e-6;
    u.sys_s = static_cast<double>(ru.ru_stime.tv_sec) +
              static_cast<double>(ru.ru_stime.tv_usec) * 1e-6;
    u.invol_switches = static_cast<double>(ru.ru_nivcsw);
    return u;
  }
  ProcUsage operator-(const ProcUsage& o) const {
    return {user_s - o.user_s, sys_s - o.sys_s,
            invol_switches - o.invol_switches};
  }
  double cpu_s() const { return user_s + sys_s; }
};

// "Threads:" and "VmHWM:" (peak RSS, kB) from /proc/self/status.
inline double ProcStatusField(const std::string& field) {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind(field + ":", 0) == 0) {
      return std::stod(line.substr(field.size() + 1));
    }
  }
  return 0;
}

// Machine-wide CPU ticks from /proc/stat: steal (time the hypervisor ran
// something else on a virtual CPU) and the total.
struct HostTicks {
  double steal = 0;
  double total = 0;

  static HostTicks Now() {
    std::ifstream in("/proc/stat");
    std::string cpu;
    in >> cpu;
    HostTicks t;
    double v = 0;
    for (int field = 0; field < 10 && (in >> v); ++field) {
      t.total += v;
      if (field == 7) t.steal = v;
    }
    return t;
  }
  // Share of the CPU time since `start` that was stolen.
  double StealSince(const HostTicks& start) const {
    return total > start.total ? (steal - start.steal) / (total - start.total)
                               : 0;
  }
};

// Sum of a registry counter over all its labels.
inline double RegistryTotal(const std::string& name) {
  double total = 0;
  for (const MetricSnapshot& m : MetricsRegistry::Global()->Snapshot()) {
    if (m.name == name) total += m.value;
  }
  return total;
}

}  // namespace e2ebench

#endif  // FBSTREAM_E2EBENCH_TRACE_H_
