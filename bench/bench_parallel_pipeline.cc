// Parallel shard scheduler experiment (§4.2.2, §6.4): node shards are
// independent because Scribe buckets decouple them, so running a node's
// shards on a worker pool should scale round throughput with the thread
// count until the hardware runs out. A Fig-9-style ingest workload (one
// scorer node over a multi-bucket events category) is drained once per
// thread count; every mode replays the same retained Scribe input from
// offset 0, which is exactly the multiplexed reader decoupling the paper's
// design rests on.
//
// The scorer models the paper's Figure 3 Scorer, which issues "a query to a
// separate prediction service" per event: a short blocking remote call plus
// a little local hashing. That latency-bound shape is what shard
// parallelism buys back — overlapped remote calls scale with the worker
// count even when cores are scarce, while the CPU part scales with
// available cores.
//
// `--continuous` runs the second experiment (§4.2 processing overlap): a
// *skewed* workload where one hot bucket holds most of the input, and an
// at-most-once output whose delivery cost lands in the checkpoint-commit
// phase. The round loop serializes process-then-commit per shard and
// barriers every round on the hot shard; continuous execution overlaps
// batch N's commit with batch N+1's processing, so it must beat the round
// loop on wall clock. `--smoke` shrinks the input for CI; `--out <path>`
// redirects the JSON (default BENCH_CONTINUOUS.json).

#include <atomic>
#include <chrono>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench/workloads.h"
#include "common/fs.h"
#include "common/hash.h"
#include "core/node.h"
#include "core/pipeline.h"
#include "core/processor.h"
#include "core/sink.h"
#include "scribe/scribe.h"

namespace fbstream::bench {
namespace {

constexpr int kBuckets = 8;
constexpr int kEvents = 8'000;
constexpr int kHashRounds = 8;          // Local feature hashing per event.
constexpr int kRemoteCallMicros = 30;   // Prediction-service RTT per event.

// The Figure 3 Scorer: per event, a blocking call to a remote prediction
// service (modeled as a short sleep) plus local feature hashing.
class ScorerProcessor : public stylus::StatelessProcessor {
 public:
  void Process(const stylus::Event& event, std::vector<Row>* /*out*/) override {
    std::this_thread::sleep_for(std::chrono::microseconds(kRemoteCallMicros));
    const std::string text = event.row.Get("text").ToString();
    uint64_t h = 0;
    for (int i = 0; i < kHashRounds; ++i) {
      h = Fnv1a64(text) ^ (h * 1099511628211ULL);
    }
    digest_ ^= h;  // Keep the loop observable.
  }

 private:
  uint64_t digest_ = 0;
};

// Scorer variant that forwards the scored event to its output sink — the
// shape of the skewed-workload experiment, where delivery has a cost too.
class ScorerEmitProcessor : public stylus::StatelessProcessor {
 public:
  void Process(const stylus::Event& event, std::vector<Row>* out) override {
    std::this_thread::sleep_for(std::chrono::microseconds(kRemoteCallMicros));
    const std::string text = event.row.Get("text").ToString();
    uint64_t h = 0;
    for (int i = 0; i < kHashRounds; ++i) {
      h = Fnv1a64(text) ^ (h * 1099511628211ULL);
    }
    digest_ ^= h;
    out->push_back(event.row);
  }

 private:
  uint64_t digest_ = 0;
};

double DrainOnce(scribe::Scribe* bus, Clock* clock, const std::string& dir,
                 int num_threads, size_t* processed) {
  stylus::Pipeline pipeline(bus, clock,
                            stylus::Pipeline::Options{num_threads});
  stylus::NodeConfig node;
  node.name = "scorer";
  node.input_category = "events";
  node.input_schema = EventsSchema();
  node.stateless_factory = [] {
    return std::make_unique<ScorerProcessor>();
  };
  node.backend = stylus::StateBackend::kNone;
  node.state_dir = dir + "/threads-" + std::to_string(num_threads);
  node.checkpoint_every_events = 512;
  if (!pipeline.AddNode(node).ok()) return -1.0;

  const auto start = std::chrono::steady_clock::now();
  auto drained = pipeline.RunUntilQuiescent(/*max_rounds=*/100000);
  const auto end = std::chrono::steady_clock::now();
  if (!drained.ok()) {
    fprintf(stderr, "drain failed: %s\n", drained.status().ToString().c_str());
    return -1.0;
  }
  *processed = drained.value();
  return std::chrono::duration<double>(end - start).count();
}

// Delivery to a slow downstream (e.g. a remote service behind the sink):
// with at-most-once output this cost is paid in the commit phase, after the
// checkpoint — exactly the side effect continuous execution overlaps with
// the next batch.
class SlowDeliverySink : public stylus::OutputSink {
 public:
  explicit SlowDeliverySink(int delay_micros) : delay_micros_(delay_micros) {}
  Status Emit(const Row& /*row*/) override {
    std::this_thread::sleep_for(std::chrono::microseconds(delay_micros_));
    delivered_.fetch_add(1, std::memory_order_relaxed);
    return Status::OK();
  }
  size_t delivered() const {
    return delivered_.load(std::memory_order_relaxed);
  }

 private:
  const int delay_micros_;
  std::atomic<size_t> delivered_{0};
};

// One drain of the skewed workload; continuous=false uses the round loop.
double DrainSkewed(scribe::Scribe* bus, Clock* clock, const std::string& dir,
                   bool continuous, size_t* processed, size_t* delivered) {
  stylus::Pipeline::Options options;
  options.num_threads = 4;
  options.commit_threads = 2;
  options.idle_sleep_micros = 50;
  stylus::Pipeline pipeline(bus, clock, options);

  auto sink = std::make_shared<SlowDeliverySink>(kRemoteCallMicros);
  stylus::NodeConfig node;
  node.name = "scorer";
  node.input_category = "events_skew";
  node.input_schema = EventsSchema();
  node.stateless_factory = [] {
    return std::make_unique<ScorerEmitProcessor>();
  };
  node.state_semantics = stylus::StateSemantics::kAtMostOnce;
  node.output_semantics = stylus::OutputSemantics::kAtMostOnce;
  node.backend = stylus::StateBackend::kNone;
  node.state_dir = dir + (continuous ? "/continuous" : "/rounds");
  node.checkpoint_every_events = 64;
  node.sink = sink;
  if (!pipeline.AddNode(node).ok()) return -1.0;

  const auto start = std::chrono::steady_clock::now();
  StatusOr<size_t> drained = continuous
                                 ? [&]() -> StatusOr<size_t> {
                                     Status st = pipeline.Start();
                                     if (!st.ok()) return st;
                                     auto n = pipeline.WaitUntilQuiescent(
                                         /*timeout_ms=*/120'000);
                                     Status stop = pipeline.Stop();
                                     if (!stop.ok()) return stop;
                                     return n;
                                   }()
                                 : pipeline.RunUntilQuiescent(100000);
  const auto end = std::chrono::steady_clock::now();
  if (!drained.ok()) {
    fprintf(stderr, "drain failed: %s\n", drained.status().ToString().c_str());
    return -1.0;
  }
  *processed = drained.value();
  *delivered = sink->delivered();
  return std::chrono::duration<double>(end - start).count();
}

int RunContinuousComparison(bool smoke, const std::string& out_path) {
  const int events = smoke ? 2'000 : 8'000;
  printf("=== Continuous vs round loop on a skewed workload ===\n");
  printf("  (%d events, %d buckets, 60%% in the hot bucket, %dus remote call "
         "+ %dus delivery per event)\n\n",
         events, kBuckets, kRemoteCallMicros, kRemoteCallMicros);

  SimClock clock(1);
  scribe::Scribe bus(&clock);
  scribe::CategoryConfig category;
  category.name = "events_skew";
  category.num_buckets = kBuckets;
  if (!bus.CreateCategory(category).ok()) return 1;

  EventGenOptions gen_options;
  gen_options.text_bytes = 160;
  EventGenerator generator(gen_options);
  for (int i = 0; i < events; ++i) {
    Row row = generator.NextRow();
    // 60% of the input lands in bucket 0; the rest spreads evenly.
    const int bucket = (i % 5 < 3) ? 0 : 1 + (i % (kBuckets - 1));
    if (!bus.Write("events_skew", bucket, generator.codec().Encode(row)).ok()) {
      return 1;
    }
  }

  const std::string dir = MakeTempDir("bench_continuous");
  double seconds[2] = {0, 0};
  for (const bool continuous : {false, true}) {
    size_t processed = 0;
    size_t delivered = 0;
    const double s =
        DrainSkewed(&bus, &clock, dir, continuous, &processed, &delivered);
    if (s < 0 || processed != static_cast<size_t>(events) ||
        delivered != static_cast<size_t>(events)) {
      fprintf(stderr, "%s processed %zu delivered %zu of %d events\n",
              continuous ? "continuous" : "rounds", processed, delivered,
              events);
      (void)RemoveAll(dir);
      return 1;
    }
    seconds[continuous ? 1 : 0] = s;
    printf("%s\n",
           ReportLine(continuous ? "continuous" : "round loop",
                      continuous ? "overlapped commit (Start/Stop)"
                                 : "barrier per round (RunRound)",
                      std::to_string(static_cast<int>(events / s)) +
                          " events/s")
               .c_str());
  }
  (void)RemoveAll(dir);

  const double speedup = seconds[0] / seconds[1];
  printf("\n  continuous speedup over round loop: %.2fx (target > 1x): %s\n",
         speedup, speedup > 1.0 ? "PASS" : "FAIL");

  char json[512];
  snprintf(json, sizeof(json),
           "{\n"
           "  \"bench\": \"bench_parallel_pipeline --continuous\",\n"
           "  \"smoke\": %s,\n"
           "  \"buckets\": %d,\n"
           "  \"events\": %d,\n"
           "  \"round_loop_seconds\": %.3f,\n"
           "  \"continuous_seconds\": %.3f,\n"
           "  \"continuous_speedup\": %.3f\n"
           "}\n",
           smoke ? "true" : "false", kBuckets, events, seconds[0], seconds[1],
           speedup);
  const Status write = WriteFileAtomic(out_path, json);
  if (!write.ok()) {
    fprintf(stderr, "writing %s: %s\n", out_path.c_str(),
            write.ToString().c_str());
    return 1;
  }
  fprintf(stderr, "wrote %s\n", out_path.c_str());
  return speedup > 1.0 ? 0 : 1;
}

}  // namespace
}  // namespace fbstream::bench

int main(int argc, char** argv) {
  using namespace fbstream;
  using namespace fbstream::bench;

  bool continuous = false;
  bool smoke = false;
  std::string out = "BENCH_CONTINUOUS.json";
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--continuous") {
      continuous = true;
    } else if (arg == "--smoke") {
      smoke = true;
    } else if (arg == "--out" && i + 1 < argc) {
      out = argv[++i];
    } else {
      fprintf(stderr, "usage: %s [--continuous] [--smoke] [--out <path>]\n",
              argv[0]);
      return 2;
    }
  }
  if (continuous) return RunContinuousComparison(smoke, out);

  printf("=== Parallel shard scheduler: round throughput vs threads ===\n");
  printf("  (%d events, %d buckets, %dus remote call per event)\n\n", kEvents,
         kBuckets, kRemoteCallMicros);

  SimClock clock(1);
  scribe::Scribe bus(&clock);
  scribe::CategoryConfig category;
  category.name = "events";
  category.num_buckets = kBuckets;
  if (!bus.CreateCategory(category).ok()) return 1;

  EventGenOptions gen_options;
  gen_options.text_bytes = 160;
  EventGenerator generator(gen_options);
  for (int i = 0; i < kEvents; ++i) {
    Row row = generator.NextRow();
    const std::string key = row.Get("dim_id").ToString();
    if (!bus.WriteSharded("events", key, generator.codec().Encode(row)).ok()) {
      return 1;
    }
  }

  const std::string dir = MakeTempDir("bench_parallel");
  double serial_seconds = 0;
  double best_speedup = 0;
  double speedup_at_4 = 0;
  for (const int threads : {1, 2, 4, 8}) {
    size_t processed = 0;
    const double seconds =
        DrainOnce(&bus, &clock, dir, threads, &processed);
    if (seconds < 0 || processed != static_cast<size_t>(kEvents)) {
      fprintf(stderr, "threads=%d processed %zu of %d events\n", threads,
              processed, kEvents);
      return 1;
    }
    if (threads == 1) serial_seconds = seconds;
    const double speedup = serial_seconds / seconds;
    if (threads == 4) speedup_at_4 = speedup;
    if (speedup > best_speedup) best_speedup = speedup;
    printf("%s\n",
           ReportLine("threads=" + std::to_string(threads),
                      threads == 1 ? "baseline" : "linear-ish scaling",
                      std::to_string(static_cast<int>(kEvents / seconds)) +
                          " events/s (" + std::to_string(speedup) + "x)")
               .c_str());
  }
  printf("\n");
  printf("  speedup @4 threads: %.2fx (target >= 2x on %d buckets): %s\n",
         speedup_at_4, kBuckets, speedup_at_4 >= 2.0 ? "PASS" : "FAIL");
  (void)RemoveAll(dir);
  return speedup_at_4 >= 2.0 ? 0 : 1;
}
