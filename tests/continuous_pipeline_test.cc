// Tests for continuous push-based execution (Pipeline::Start/Stop):
//  - differential equivalence against the round loop in every semantics
//    mode — byte-identical per-shard outputs, checkpoint counts, offsets,
//    and checkpoint-store contents;
//  - backpressure: a slow sink bounds every inter-node queue and stalls the
//    source tailer without losing events;
//  - graceful shutdown (WaitUntilQuiescent returns Cancelled, loops pause,
//    a restarted engine finishes the backlog);
//  - offsets-snapshot write-failure accounting and the monitoring alert;
//  - shard reconciliation while the engine is running;
//  - dead consumers excluded from the backpressure lag scan (failure
//    independence over backpressure);
//  - Stop() racing ReconcileShards and lag scans (join-outside-lock
//    deadlock regression).

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "common/fault.h"
#include "common/fs.h"
#include "common/metrics.h"
#include "common/serde.h"
#include "common/shutdown.h"
#include "core/monitoring.h"
#include "core/node.h"
#include "core/pipeline.h"
#include "core/processor.h"
#include "core/sink.h"
#include "storage/lsm/db.h"

namespace fbstream::stylus {
namespace {

SchemaPtr EventSchema() {
  return Schema::Make({{"id", ValueType::kInt64}, {"topic", ValueType::kString}});
}

// Emits one row per event (boundary-independent output) while keeping a
// count in checkpointed state, so both the output multiset and the final
// state are comparable across execution modes.
class CountingEmitProcessor : public StatefulProcessor {
 public:
  void Process(const Event& event, std::vector<Row>* out) override {
    ++count_;
    out->push_back(event.row);
  }
  void OnCheckpoint(Micros /*now*/, std::vector<Row>* /*out*/) override {}
  std::string SerializeState() const override {
    return std::to_string(count_);
  }
  Status RestoreState(std::string_view data) override {
    count_ = strtoll(std::string(data).c_str(), nullptr, 10);
    return Status::OK();
  }

 private:
  int64_t count_ = 0;
};

class PassthroughProcessor : public StatelessProcessor {
 public:
  void Process(const Event& event, std::vector<Row>* out) override {
    out->push_back(event.row);
  }
};

// Transactional sink for exactly-once: rows become "out/<id>" keys committed
// atomically with the checkpoint into the shard's own store.
class LsmOutputSink : public OutputSink {
 public:
  Status Emit(const Row& /*row*/) override {
    return Status::FailedPrecondition("transactional sink: use checkpoint");
  }
  bool SupportsTransactions() const override { return true; }
  Status AppendToTransaction(const std::vector<Row>& rows,
                             lsm::WriteBatch* batch) override {
    for (const Row& row : rows) {
      batch->Put("out/" + std::to_string(row.Get("id").CoerceInt64()),
                 row.Get("topic").ToString());
    }
    return Status::OK();
  }
};

// Thread-safe collecting sink with a configurable per-row delay — the "slow
// consumer" for backpressure tests.
class SlowSink : public OutputSink {
 public:
  explicit SlowSink(int delay_micros) : delay_micros_(delay_micros) {}
  Status Emit(const Row& row) override {
    if (delay_micros_ > 0) {
      std::this_thread::sleep_for(std::chrono::microseconds(delay_micros_));
    }
    std::lock_guard<std::mutex> lock(mu_);
    ids_.push_back(row.Get("id").CoerceInt64());
    return Status::OK();
  }
  std::vector<int64_t> ids() const {
    std::lock_guard<std::mutex> lock(mu_);
    return ids_;
  }
  size_t size() const {
    std::lock_guard<std::mutex> lock(mu_);
    return ids_.size();
  }

 private:
  const int delay_micros_;
  mutable std::mutex mu_;
  std::vector<int64_t> ids_;
};

constexpr int kBuckets = 4;

void PreloadInput(scribe::Scribe* scribe, int events, int64_t first_id = 0) {
  TextRowCodec codec(EventSchema());
  for (int64_t i = first_id; i < first_id + events; ++i) {
    Row row(EventSchema(), {Value(i), Value("t" + std::to_string(i % 3))});
    ASSERT_TRUE(
        scribe->Write("in", static_cast<int>(i % kBuckets), codec.Encode(row))
            .ok());
  }
}

// Everything observable from one run of the single-node semantics workload.
struct ModeResult {
  size_t processed = 0;
  std::vector<uint64_t> checkpoints;
  std::vector<uint64_t> offsets;
  std::vector<int64_t> emitted_ids;  // Sorted; empty for exactly-once.
  // Full per-shard checkpoint-store dumps (state, offset, EO output keys),
  // taken after the pipeline closed its stores.
  std::vector<std::map<std::string, std::string>> dumps;
};

ModeResult RunSemanticsWorkload(bool continuous, StateSemantics state,
                                OutputSemantics output,
                                const std::string& tag) {
  const std::string dir = MakeTempDir("continuous_diff_" + tag);
  ModeResult result;
  {
    SimClock clock(1'000'000);
    scribe::Scribe scribe(&clock);
    scribe::CategoryConfig in;
    in.name = "in";
    in.num_buckets = kBuckets;
    EXPECT_TRUE(scribe.CreateCategory(in).ok());
    PreloadInput(&scribe, 600);

    Pipeline::Options options;
    options.commit_threads = 2;
    options.idle_sleep_micros = 100;
    Pipeline pipeline(&scribe, &clock, options);

    auto collected = std::make_shared<CollectingSink>();
    NodeConfig config;
    config.name = "tally";
    config.input_category = "in";
    config.input_schema = EventSchema();
    config.stateful_factory = [] {
      return std::make_unique<CountingEmitProcessor>();
    };
    config.state_semantics = state;
    config.output_semantics = output;
    config.checkpoint_every_events = 32;
    config.backend = StateBackend::kLocal;
    config.state_dir = dir + "/state";
    if (output == OutputSemantics::kExactlyOnce) {
      config.sink = std::make_shared<LsmOutputSink>();
    } else {
      config.sink = collected;
    }
    EXPECT_TRUE(pipeline.AddNode(config).ok());

    if (continuous) {
      EXPECT_TRUE(pipeline.Start().ok()) << "Start failed";
      auto drained = pipeline.WaitUntilQuiescent(/*timeout_ms=*/30'000);
      EXPECT_TRUE(drained.ok()) << drained.status();
      if (drained.ok()) result.processed = drained.value();
      EXPECT_TRUE(pipeline.Stop().ok());
    } else {
      auto drained = pipeline.RunUntilQuiescent();
      EXPECT_TRUE(drained.ok()) << drained.status();
      if (drained.ok()) result.processed = drained.value();
    }

    for (NodeShard* shard : pipeline.Shards("tally")) {
      result.checkpoints.push_back(shard->checkpoints_completed());
      result.offsets.push_back(shard->TailerOffset());
      EXPECT_EQ(shard->ProcessingLag(), 0u);
    }
    for (const Row& row : collected->rows()) {
      result.emitted_ids.push_back(row.Get("id").CoerceInt64());
    }
    std::sort(result.emitted_ids.begin(), result.emitted_ids.end());
  }
  // The pipeline is gone, stores are closed: dump every shard's checkpoint
  // database byte for byte.
  for (int b = 0; b < kBuckets; ++b) {
    std::map<std::string, std::string> dump;
    auto db = lsm::Db::Open(lsm::DbOptions{},
                            dir + "/state/tally/shard-" + std::to_string(b));
    EXPECT_TRUE(db.ok()) << db.status();
    if (db.ok()) {
      auto it = (*db)->NewIterator();
      for (it.SeekToFirst(); it.Valid(); it.Next()) dump[it.key()] = it.value();
    }
    result.dumps.push_back(std::move(dump));
  }
  EXPECT_TRUE(RemoveAll(dir).ok());
  return result;
}

void ExpectSameRun(const ModeResult& continuous, const ModeResult& rounds) {
  EXPECT_EQ(continuous.processed, rounds.processed);
  EXPECT_EQ(continuous.checkpoints, rounds.checkpoints);
  EXPECT_EQ(continuous.offsets, rounds.offsets);
  EXPECT_EQ(continuous.emitted_ids, rounds.emitted_ids);
  ASSERT_EQ(continuous.dumps.size(), rounds.dumps.size());
  for (size_t b = 0; b < continuous.dumps.size(); ++b) {
    EXPECT_EQ(continuous.dumps[b], rounds.dumps[b]) << "shard " << b;
  }
}

TEST(ContinuousDifferentialTest, MatchesRoundLoopAtLeastOnce) {
  ExpectSameRun(RunSemanticsWorkload(true, StateSemantics::kAtLeastOnce,
                                     OutputSemantics::kAtLeastOnce, "alo_c"),
                RunSemanticsWorkload(false, StateSemantics::kAtLeastOnce,
                                     OutputSemantics::kAtLeastOnce, "alo_r"));
}

TEST(ContinuousDifferentialTest, MatchesRoundLoopAtMostOnce) {
  ExpectSameRun(RunSemanticsWorkload(true, StateSemantics::kAtMostOnce,
                                     OutputSemantics::kAtMostOnce, "amo_c"),
                RunSemanticsWorkload(false, StateSemantics::kAtMostOnce,
                                     OutputSemantics::kAtMostOnce, "amo_r"));
}

TEST(ContinuousDifferentialTest, MatchesRoundLoopExactlyOnce) {
  ExpectSameRun(RunSemanticsWorkload(true, StateSemantics::kExactlyOnce,
                                     OutputSemantics::kExactlyOnce, "eo_c"),
                RunSemanticsWorkload(false, StateSemantics::kExactlyOnce,
                                     OutputSemantics::kExactlyOnce, "eo_r"));
}

// Two-node DAG under continuous execution: the downstream node's batch
// boundaries are timing-dependent (it consumes while the upstream produces),
// so the comparison sticks to boundary-independent observables — the output
// multiset, the per-bucket placement of the intermediate stream, and final
// offsets.
TEST(ContinuousDifferentialTest, DagOutputsMatchRoundLoop) {
  auto run = [](bool continuous) {
    SimClock clock(1'000'000);
    scribe::Scribe scribe(&clock);
    scribe::CategoryConfig in;
    in.name = "in";
    in.num_buckets = kBuckets;
    EXPECT_TRUE(scribe.CreateCategory(in).ok());
    scribe::CategoryConfig mid;
    mid.name = "mid";
    mid.num_buckets = kBuckets;
    EXPECT_TRUE(scribe.CreateCategory(mid).ok());
    PreloadInput(&scribe, 800);
    const std::string dir =
        MakeTempDir(std::string("continuous_dag_") + (continuous ? "c" : "r"));

    Pipeline::Options options;
    options.commit_threads = 2;
    options.idle_sleep_micros = 100;
    Pipeline pipeline(&scribe, &clock, options);

    NodeConfig gen;
    gen.name = "gen";
    gen.input_category = "in";
    gen.input_schema = EventSchema();
    gen.stateless_factory = [] {
      return std::make_unique<PassthroughProcessor>();
    };
    gen.backend = StateBackend::kNone;
    gen.state_dir = dir + "/gen";
    gen.checkpoint_every_events = 32;
    gen.sink = std::make_shared<ScribeSink>(&scribe, "mid", EventSchema(),
                                            std::vector<std::string>{"id"});
    EXPECT_TRUE(pipeline.AddNode(gen).ok());

    auto collected = std::make_shared<CollectingSink>();
    NodeConfig agg;
    agg.name = "agg";
    agg.input_category = "mid";
    agg.input_schema = EventSchema();
    agg.stateful_factory = [] {
      return std::make_unique<CountingEmitProcessor>();
    };
    agg.state_semantics = StateSemantics::kAtLeastOnce;
    agg.output_semantics = OutputSemantics::kAtLeastOnce;
    agg.backend = StateBackend::kLocal;
    agg.state_dir = dir + "/agg";
    agg.checkpoint_every_events = 32;
    agg.sink = collected;
    EXPECT_TRUE(pipeline.AddNode(agg).ok());

    if (continuous) {
      EXPECT_TRUE(pipeline.Start().ok());
      auto drained = pipeline.WaitUntilQuiescent(/*timeout_ms=*/30'000);
      EXPECT_TRUE(drained.ok()) << drained.status();
      EXPECT_TRUE(pipeline.Stop().ok());
    } else {
      auto drained = pipeline.RunUntilQuiescent();
      EXPECT_TRUE(drained.ok()) << drained.status();
    }

    std::vector<int64_t> ids;
    for (const Row& row : collected->rows()) {
      ids.push_back(row.Get("id").CoerceInt64());
    }
    std::sort(ids.begin(), ids.end());
    std::vector<uint64_t> mid_placement;
    for (int b = 0; b < kBuckets; ++b) {
      auto next = scribe.NextSequence("mid", b);
      EXPECT_TRUE(next.ok());
      mid_placement.push_back(next.ok() ? next.value() : 0);
    }
    std::vector<uint64_t> offsets;
    for (const char* node : {"gen", "agg"}) {
      for (NodeShard* shard : pipeline.Shards(node)) {
        offsets.push_back(shard->TailerOffset());
        EXPECT_EQ(shard->ProcessingLag(), 0u) << node;
      }
    }
    EXPECT_TRUE(RemoveAll(dir).ok());
    return std::make_tuple(ids, mid_placement, offsets);
  };

  const auto continuous = run(true);
  const auto rounds = run(false);
  EXPECT_EQ(std::get<0>(continuous), std::get<0>(rounds));
  EXPECT_EQ(std::get<1>(continuous), std::get<1>(rounds));
  EXPECT_EQ(std::get<2>(continuous), std::get<2>(rounds));
}

// Slow-sink soak: with a bounded edge, the source must stall instead of
// letting the intermediate backlog grow with input size, and nothing may be
// lost. The lag bound is max_queue_messages plus one in-flight batch per
// producer shard (each producer checks the edge before polling a batch).
TEST(ContinuousBackpressureTest, SlowSinkBoundsQueueAndLosesNothing) {
  SimClock clock(1'000'000);
  scribe::Scribe scribe(&clock);
  scribe::CategoryConfig in;
  in.name = "in";
  in.num_buckets = kBuckets;
  ASSERT_TRUE(scribe.CreateCategory(in).ok());
  scribe::CategoryConfig mid;
  mid.name = "mid";
  mid.num_buckets = kBuckets;
  ASSERT_TRUE(scribe.CreateCategory(mid).ok());
  const int kEvents = 2000;
  PreloadInput(&scribe, kEvents);
  const std::string dir = MakeTempDir("continuous_backpressure");

  Pipeline::Options options;
  options.max_queue_messages = 64;
  options.commit_threads = 2;
  options.idle_sleep_micros = 100;
  Pipeline pipeline(&scribe, &clock, options);

  NodeConfig gen;
  gen.name = "gen";
  gen.input_category = "in";
  gen.input_schema = EventSchema();
  gen.stateless_factory = [] { return std::make_unique<PassthroughProcessor>(); };
  gen.backend = StateBackend::kNone;
  gen.state_dir = dir + "/gen";
  gen.checkpoint_every_events = 32;
  gen.sink = std::make_shared<ScribeSink>(&scribe, "mid", EventSchema(),
                                          std::vector<std::string>{"id"});
  ASSERT_TRUE(pipeline.AddNode(gen).ok());

  auto slow = std::make_shared<SlowSink>(/*delay_micros=*/150);
  NodeConfig sinknode;
  sinknode.name = "slow";
  sinknode.input_category = "mid";
  sinknode.input_schema = EventSchema();
  sinknode.stateless_factory = [] {
    return std::make_unique<PassthroughProcessor>();
  };
  sinknode.backend = StateBackend::kNone;
  sinknode.state_dir = dir + "/slow";
  sinknode.checkpoint_every_events = 32;
  sinknode.sink = slow;
  ASSERT_TRUE(pipeline.AddNode(sinknode).ok());

  ASSERT_TRUE(pipeline.Start().ok());
  // Sample the intermediate edge's backlog while the slow consumer works
  // through it.
  uint64_t max_mid_lag = 0;
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(60);
  while (slow->size() < static_cast<size_t>(kEvents) &&
         std::chrono::steady_clock::now() < deadline) {
    for (const auto& report : pipeline.GetProcessingLag()) {
      if (report.node == "slow") {
        max_mid_lag = std::max(max_mid_lag, report.lag_messages);
      }
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  auto drained = pipeline.WaitUntilQuiescent(/*timeout_ms=*/60'000);
  ASSERT_TRUE(drained.ok()) << drained.status();
  ASSERT_TRUE(pipeline.Stop().ok());

  // Bounded: far below the kEvents the edge would hold without backpressure.
  const uint64_t bound =
      options.max_queue_messages + kBuckets * gen.checkpoint_every_events;
  EXPECT_LE(max_mid_lag, bound);
  // The source actually stalled (the edge filled at least once)...
  uint64_t stalls = 0;
  for (int b = 0; b < kBuckets; ++b) {
    stalls += MetricsRegistry::Global()
                  ->GetCounter("stylus.continuous.backpressure_stalls", "gen", b)
                  ->value();
  }
  EXPECT_GT(stalls, 0u);
  // ...and no event was lost or invented.
  std::vector<int64_t> ids = slow->ids();
  std::sort(ids.begin(), ids.end());
  ASSERT_EQ(ids.size(), static_cast<size_t>(kEvents));
  for (int64_t i = 0; i < kEvents; ++i) EXPECT_EQ(ids[static_cast<size_t>(i)], i);
  ASSERT_TRUE(RemoveAll(dir).ok());
}

// A crashed downstream shard must not stall its upstream: the lag scan
// skips dead consumers (failure independence, §4.2.2, wins over
// backpressure — the backlog lands in the durable bus, not in memory).
// Regression: counting dead shards' lag froze every upstream loop back to
// the source once the dead shard's backlog crossed max_queue_messages.
TEST(ContinuousBackpressureTest, DeadConsumerDoesNotStallUpstream) {
  SimClock clock(1'000'000);
  scribe::Scribe scribe(&clock);
  scribe::CategoryConfig in;
  in.name = "in";
  in.num_buckets = kBuckets;
  ASSERT_TRUE(scribe.CreateCategory(in).ok());
  scribe::CategoryConfig mid;
  mid.name = "mid";
  mid.num_buckets = kBuckets;
  ASSERT_TRUE(scribe.CreateCategory(mid).ok());
  const int kEvents = 1000;
  PreloadInput(&scribe, kEvents);
  const std::string dir = MakeTempDir("continuous_dead_consumer");

  Pipeline::Options options;
  options.max_queue_messages = 32;  // Far below kEvents.
  options.commit_threads = 2;
  options.idle_sleep_micros = 100;
  Pipeline pipeline(&scribe, &clock, options);

  NodeConfig gen;
  gen.name = "gen";
  gen.input_category = "in";
  gen.input_schema = EventSchema();
  gen.stateless_factory = [] { return std::make_unique<PassthroughProcessor>(); };
  gen.backend = StateBackend::kNone;
  gen.state_dir = dir + "/gen";
  gen.checkpoint_every_events = 32;
  gen.sink = std::make_shared<ScribeSink>(&scribe, "mid", EventSchema(),
                                          std::vector<std::string>{"id"});
  ASSERT_TRUE(pipeline.AddNode(gen).ok());

  auto collected = std::make_shared<CollectingSink>();
  NodeConfig sinknode;
  sinknode.name = "slow";
  sinknode.input_category = "mid";
  sinknode.input_schema = EventSchema();
  sinknode.stateful_factory = [] {
    return std::make_unique<CountingEmitProcessor>();
  };
  sinknode.state_semantics = StateSemantics::kExactlyOnce;
  sinknode.output_semantics = OutputSemantics::kAtLeastOnce;
  sinknode.backend = StateBackend::kLocal;
  sinknode.state_dir = dir + "/slow";
  sinknode.checkpoint_every_events = 16;
  sinknode.sink = collected;
  ASSERT_TRUE(pipeline.AddNode(sinknode).ok());

  // Every consumer shard dies on its own first batch (crashes must fire on
  // the shard's loop thread, never from the test thread).
  auto crashed_once = std::make_shared<std::array<std::atomic<bool>, kBuckets>>();
  for (NodeShard* shard : pipeline.Shards("slow")) {
    std::atomic<bool>* flag = &(*crashed_once)[shard->bucket()];
    shard->SetFailureInjector([flag](FailurePoint point) {
      return point == FailurePoint::kAfterProcessing &&
             !flag->exchange(true, std::memory_order_acq_rel);
    });
  }

  ASSERT_TRUE(pipeline.Start().ok());
  // Quiescence skips dead shards, so this only returns once "gen" pushed the
  // whole input into "mid" — which requires the lag scan to ignore the dead
  // consumers sitting on a backlog far above max_queue_messages.
  auto drained = pipeline.WaitUntilQuiescent(/*timeout_ms=*/60'000);
  ASSERT_TRUE(drained.ok()) << drained.status();
  uint64_t dead_backlog = 0;
  int dead_shards = 0;
  for (const auto& report : pipeline.GetProcessingLag()) {
    if (report.node == "slow") {
      dead_backlog += report.lag_messages;
      if (!pipeline.Shard("slow", report.shard)->alive()) ++dead_shards;
    }
  }
  EXPECT_EQ(dead_shards, kBuckets);
  EXPECT_GT(dead_backlog, options.max_queue_messages);

  // Revival drains the backlog; nothing was lost while the consumers were
  // down (the durable bus held it).
  ASSERT_TRUE(pipeline.RecoverAll().ok());
  drained = pipeline.WaitUntilQuiescent(/*timeout_ms=*/60'000);
  ASSERT_TRUE(drained.ok()) << drained.status();
  ASSERT_TRUE(pipeline.Stop().ok());
  std::set<int64_t> ids;
  for (const Row& row : collected->rows()) {
    ids.insert(row.Get("id").CoerceInt64());
  }
  EXPECT_EQ(ids.size(), static_cast<size_t>(kEvents));
  ASSERT_TRUE(RemoveAll(dir).ok());
}

// Regression: Stop() used to join the loop threads while holding loops_mu_.
// A loop blocked on mu_ (lag scan or offsets snapshot) while a concurrent
// ReconcileShards — explicitly allowed by the thread-safety contract —
// held mu_ and waited on loops_mu_ deadlocked the trio. Hammer the three
// paths against each other; pre-fix this hangs.
TEST(ContinuousStopTest, StopRacesReconcileAndLagScans) {
  for (int iter = 0; iter < 8; ++iter) {
    SimClock clock(1'000'000);
    scribe::Scribe scribe(&clock);
    scribe::CategoryConfig in;
    in.name = "in";
    in.num_buckets = 2;
    ASSERT_TRUE(scribe.CreateCategory(in).ok());
    scribe::CategoryConfig mid;
    mid.name = "mid";
    mid.num_buckets = 2;
    ASSERT_TRUE(scribe.CreateCategory(mid).ok());
    {
      TextRowCodec codec(EventSchema());
      for (int64_t i = 0; i < 200; ++i) {
        Row row(EventSchema(), {Value(i), Value("t")});
        ASSERT_TRUE(
            scribe.Write("in", static_cast<int>(i % 2), codec.Encode(row)).ok());
      }
    }
    const std::string dir = MakeTempDir("continuous_stop_race");

    Pipeline::Options options;
    options.commit_threads = 2;
    options.idle_sleep_micros = 20;
    options.snapshot_every_batches = 1;  // Commit threads hit mu_ hard.
    Pipeline pipeline(&scribe, &clock, options);

    NodeConfig gen;
    gen.name = "gen";
    gen.input_category = "in";
    gen.input_schema = EventSchema();
    gen.stateless_factory = [] {
      return std::make_unique<PassthroughProcessor>();
    };
    gen.backend = StateBackend::kNone;
    gen.state_dir = dir + "/gen";
    gen.checkpoint_every_events = 8;
    gen.sink = std::make_shared<ScribeSink>(&scribe, "mid", EventSchema(),
                                            std::vector<std::string>{"id"});
    ASSERT_TRUE(pipeline.AddNode(gen).ok());
    NodeConfig tail;
    tail.name = "tail";
    tail.input_category = "mid";
    tail.input_schema = EventSchema();
    tail.stateless_factory = [] {
      return std::make_unique<PassthroughProcessor>();
    };
    tail.backend = StateBackend::kNone;
    tail.state_dir = dir + "/tail";
    tail.checkpoint_every_events = 8;
    tail.sink = std::make_shared<CollectingSink>();
    ASSERT_TRUE(pipeline.AddNode(tail).ok());
    ASSERT_TRUE(pipeline.EnableManifest(dir).ok());

    ASSERT_TRUE(pipeline.Start().ok());
    std::atomic<bool> quit{false};
    std::thread reconciler([&pipeline, &scribe, &quit] {
      int buckets = 2;
      while (!quit.load(std::memory_order_acquire)) {
        if (buckets < 6) {
          ASSERT_TRUE(scribe.SetNumBuckets("in", ++buckets).ok());
        }
        ASSERT_TRUE(pipeline.ReconcileShards().ok());
        (void)pipeline.GetProcessingLag();
        std::this_thread::yield();
      }
    });
    // Let loops, commit threads, and the reconciler collide, then Stop
    // while the reconciler keeps running.
    std::this_thread::sleep_for(std::chrono::milliseconds(2 * (iter + 1)));
    ASSERT_TRUE(pipeline.Stop().ok());
    quit.store(true, std::memory_order_release);
    reconciler.join();
    ASSERT_TRUE(RemoveAll(dir).ok());
  }
}

// A shutdown request pauses every loop (the tailers stop consuming) and
// surfaces as Cancelled — distinct from quiescence — and a restarted engine
// finishes the backlog.
TEST(ContinuousShutdownTest, WaitReturnsCancelledAndRestartFinishesBacklog) {
  ResetShutdown();
  SimClock clock(1'000'000);
  scribe::Scribe scribe(&clock);
  scribe::CategoryConfig in;
  in.name = "in";
  in.num_buckets = kBuckets;
  ASSERT_TRUE(scribe.CreateCategory(in).ok());
  PreloadInput(&scribe, 400);
  const std::string dir = MakeTempDir("continuous_shutdown");

  auto collected = std::make_shared<CollectingSink>();
  Pipeline pipeline(&scribe, &clock, Pipeline::Options{});
  NodeConfig config;
  config.name = "tally";
  config.input_category = "in";
  config.input_schema = EventSchema();
  config.stateful_factory = [] {
    return std::make_unique<CountingEmitProcessor>();
  };
  config.state_semantics = StateSemantics::kExactlyOnce;
  config.output_semantics = OutputSemantics::kAtLeastOnce;
  config.checkpoint_every_events = 16;
  config.backend = StateBackend::kLocal;
  config.state_dir = dir + "/state";
  config.sink = collected;
  ASSERT_TRUE(pipeline.AddNode(config).ok());

  // Round-mode API is fenced off while the engine runs.
  ASSERT_TRUE(pipeline.Start().ok());
  EXPECT_TRUE(pipeline.RunRound().status().code() ==
              StatusCode::kFailedPrecondition);

  RequestShutdown();
  auto interrupted = pipeline.WaitUntilQuiescent(/*timeout_ms=*/10'000);
  ASSERT_FALSE(interrupted.ok());
  EXPECT_TRUE(interrupted.status().IsCancelled()) << interrupted.status();
  ASSERT_TRUE(pipeline.Stop().ok());

  // Flag cleared, engine restarted: the backlog drains, each event exactly
  // once (exactly-once state + replay-safe per-event emission dedup check
  // via the id set).
  ResetShutdown();
  ASSERT_TRUE(pipeline.Start().ok());
  auto drained = pipeline.WaitUntilQuiescent(/*timeout_ms=*/30'000);
  ASSERT_TRUE(drained.ok()) << drained.status();
  ASSERT_TRUE(pipeline.Stop().ok());
  std::set<int64_t> ids;
  for (const Row& row : collected->rows()) {
    ids.insert(row.Get("id").CoerceInt64());
  }
  EXPECT_EQ(ids.size(), 400u);
  for (const auto& report : pipeline.GetProcessingLag()) {
    EXPECT_EQ(report.lag_messages, 0u);
  }
  ASSERT_TRUE(RemoveAll(dir).ok());
}

// Satellite regression: a failing OFFSETS write is counted, tracked as a
// streak, and surfaces as a monitoring alert after N consecutive failures;
// one success clears the streak.
TEST(ContinuousMonitoringTest, OffsetsWriteFailuresRaiseSnapshotAlert) {
  auto* faults = FaultRegistry::Global();
  faults->Reset();
  SimClock clock(1'000'000);
  scribe::Scribe scribe(&clock);
  scribe::CategoryConfig in;
  in.name = "in";
  in.num_buckets = 2;
  ASSERT_TRUE(scribe.CreateCategory(in).ok());
  const std::string dir = MakeTempDir("continuous_snapshot_alert");

  Pipeline pipeline(&scribe, &clock);
  NodeConfig config;
  config.name = "tally";
  config.input_category = "in";
  config.input_schema = EventSchema();
  config.stateless_factory = [] {
    return std::make_unique<PassthroughProcessor>();
  };
  config.backend = StateBackend::kNone;
  config.state_dir = dir + "/state";
  config.sink = std::make_shared<CollectingSink>();
  ASSERT_TRUE(pipeline.AddNode(config).ok());
  ASSERT_TRUE(pipeline.EnableManifest(dir + "/manifest").ok());

  MonitoringService monitoring(&clock);
  monitoring.RegisterPipeline("svc", &pipeline);

  Counter* failures = MetricsRegistry::Global()->GetCounter(
      "recovery.offsets.write_failures");
  const uint64_t failures_before = failures->value();

  // Every round rewrites OFFSETS; fail the next three writes.
  faults->FailNext("recovery.offsets.write", StatusCode::kIoError, 3);
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(pipeline.RunRound().ok());
  }
  EXPECT_EQ(pipeline.OffsetsWriteFailureStreak(), 3u);
  EXPECT_EQ(failures->value(), failures_before + 3);
  auto alerts = monitoring.ActiveSnapshotAlerts(/*threshold=*/3);
  ASSERT_EQ(alerts.size(), 1u);
  EXPECT_EQ(alerts[0].service, "svc");
  EXPECT_EQ(alerts[0].consecutive_failures, 3u);
  // Below threshold: a shorter streak does not page.
  EXPECT_TRUE(monitoring.ActiveSnapshotAlerts(4).empty());

  // The fourth write succeeds and clears the streak (the counter, being an
  // event count, keeps its history).
  ASSERT_TRUE(pipeline.RunRound().ok());
  EXPECT_EQ(pipeline.OffsetsWriteFailureStreak(), 0u);
  EXPECT_TRUE(monitoring.ActiveSnapshotAlerts(1).empty());
  EXPECT_EQ(failures->value(), failures_before + 3);

  faults->Reset();
  ASSERT_TRUE(RemoveAll(dir).ok());
}

// Re-bucketing while the engine runs: ReconcileShards gives the new buckets
// event loops immediately (§6.4 scaling without restarting the node).
TEST(ContinuousReconcileTest, NewBucketsGetLoopsWhileRunning) {
  SimClock clock(1'000'000);
  scribe::Scribe scribe(&clock);
  scribe::CategoryConfig in;
  in.name = "in";
  in.num_buckets = 2;
  ASSERT_TRUE(scribe.CreateCategory(in).ok());
  const std::string dir = MakeTempDir("continuous_reconcile");
  TextRowCodec codec(EventSchema());
  for (int64_t i = 0; i < 100; ++i) {
    Row row(EventSchema(), {Value(i), Value("t")});
    ASSERT_TRUE(
        scribe.Write("in", static_cast<int>(i % 2), codec.Encode(row)).ok());
  }

  auto collected = std::make_shared<CollectingSink>();
  Pipeline pipeline(&scribe, &clock, Pipeline::Options{});
  NodeConfig config;
  config.name = "tally";
  config.input_category = "in";
  config.input_schema = EventSchema();
  config.stateless_factory = [] {
    return std::make_unique<PassthroughProcessor>();
  };
  config.backend = StateBackend::kNone;
  config.state_dir = dir + "/state";
  config.sink = collected;
  ASSERT_TRUE(pipeline.AddNode(config).ok());

  ASSERT_TRUE(pipeline.Start().ok());
  ASSERT_TRUE(scribe.SetNumBuckets("in", 4).ok());
  for (int64_t i = 100; i < 140; ++i) {
    Row row(EventSchema(), {Value(i), Value("t")});
    ASSERT_TRUE(
        scribe.Write("in", static_cast<int>(2 + i % 2), codec.Encode(row)).ok());
  }
  ASSERT_TRUE(pipeline.ReconcileShards().ok());
  EXPECT_EQ(pipeline.Shards("tally").size(), 4u);

  auto drained = pipeline.WaitUntilQuiescent(/*timeout_ms=*/30'000);
  ASSERT_TRUE(drained.ok()) << drained.status();
  ASSERT_TRUE(pipeline.Stop().ok());
  EXPECT_EQ(collected->size(), 140u);
  for (const auto& report : pipeline.GetProcessingLag()) {
    EXPECT_EQ(report.lag_messages, 0u);
  }
  ASSERT_TRUE(RemoveAll(dir).ok());
}

}  // namespace
}  // namespace fbstream::stylus
