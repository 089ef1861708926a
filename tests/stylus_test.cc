// Tests for the Stylus core: semantics matrix (Fig 8), checkpoint write
// ordering and the Fig 7 counter behaviors under injected crashes,
// watermark estimation, local/remote state stores, HDFS backup and
// machine-loss recovery, monoid remote state (read-modify-write vs
// append-only), DAG pipelines with independent failures, and streaming vs
// batch equivalence.

#include <gtest/gtest.h>

#include <algorithm>

#include "common/fs.h"
#include "common/hll.h"
#include "common/rng.h"
#include "common/serde.h"
#include "core/batch.h"
#include "core/checkpoint.h"
#include "core/monoid_state.h"
#include "core/node.h"
#include "core/pipeline.h"
#include "core/processor.h"
#include "core/semantics.h"
#include "core/sink.h"
#include "core/watermark.h"
#include "core/windowed.h"

namespace fbstream::stylus {
namespace {

SchemaPtr EventSchema() {
  return Schema::Make({{"event_time", ValueType::kInt64},
                       {"id", ValueType::kInt64},
                       {"topic", ValueType::kString}});
}

// Counts events; emits a (count) row at each checkpoint — the Counter Node
// of the paper's Figure 6.
class CounterProcessor : public StatefulProcessor {
 public:
  void Process(const Event& /*event*/, std::vector<Row>* /*out*/) override {
    ++count_;
  }
  void OnCheckpoint(Micros /*now*/, std::vector<Row>* out) override {
    auto schema = Schema::Make({{"count", ValueType::kInt64}});
    out->push_back(Row(schema, {Value(count_)}));
  }
  std::string SerializeState() const override {
    return std::to_string(count_);
  }
  Status RestoreState(std::string_view data) override {
    count_ = strtoll(std::string(data).c_str(), nullptr, 10);
    return Status::OK();
  }
  int64_t count() const { return count_; }

 private:
  int64_t count_ = 0;
};

// Passes events through, tagging each with its id.
class PassthroughProcessor : public StatelessProcessor {
 public:
  void Process(const Event& event, std::vector<Row>* out) override {
    out->push_back(event.row);
  }
};

// Counts events per topic as monoid contributions.
class TopicCountProcessor : public MonoidProcessor {
 public:
  TopicCountProcessor() : agg_(MakeInt64SumAggregator()) {}
  void Process(const Event& event,
               std::vector<Contribution>* contributions) override {
    contributions->emplace_back(event.row.Get("topic").ToString(), "1");
  }
  const MonoidAggregator& aggregator() const override { return *agg_; }

 private:
  std::unique_ptr<MonoidAggregator> agg_;
};

TEST(SemanticsTest, Figure8Matrix) {
  using S = StateSemantics;
  using O = OutputSemantics;
  EXPECT_TRUE(IsSupportedCombination(S::kAtLeastOnce, O::kAtLeastOnce));
  EXPECT_TRUE(IsSupportedCombination(S::kExactlyOnce, O::kAtLeastOnce));
  EXPECT_FALSE(IsSupportedCombination(S::kAtMostOnce, O::kAtLeastOnce));
  EXPECT_TRUE(IsSupportedCombination(S::kAtMostOnce, O::kAtMostOnce));
  EXPECT_TRUE(IsSupportedCombination(S::kExactlyOnce, O::kAtMostOnce));
  EXPECT_FALSE(IsSupportedCombination(S::kAtLeastOnce, O::kAtMostOnce));
  EXPECT_TRUE(IsSupportedCombination(S::kExactlyOnce, O::kExactlyOnce));
  EXPECT_FALSE(IsSupportedCombination(S::kAtLeastOnce, O::kExactlyOnce));
  EXPECT_FALSE(IsSupportedCombination(S::kAtMostOnce, O::kExactlyOnce));
}

TEST(WatermarkTest, NoLatenessTracksNow) {
  WatermarkEstimator wm;
  for (int i = 0; i < 100; ++i) {
    wm.Observe(/*event_time=*/i * 1000, /*arrival_time=*/i * 1000);
  }
  EXPECT_EQ(wm.EstimateLowWatermark(500'000, 0.99), 500'000);
}

TEST(WatermarkTest, LatenessQuantileLowersWatermark) {
  WatermarkEstimator wm;
  // 90% of events arrive on time; 10% arrive 10s late.
  for (int i = 0; i < 1000; ++i) {
    const Micros lateness = i % 10 == 0 ? 10 * kMicrosPerSecond : 0;
    wm.Observe(/*event_time=*/0, /*arrival_time=*/lateness);
  }
  const Micros now = 100 * kMicrosPerSecond;
  // At 50% confidence, nothing is late.
  EXPECT_EQ(wm.EstimateLowWatermark(now, 0.5), now);
  // At 99% confidence, the watermark backs off by the late tail.
  EXPECT_EQ(wm.EstimateLowWatermark(now, 0.99), now - 10 * kMicrosPerSecond);
}

TEST(WatermarkTest, EmptyEstimatorReturnsNow) {
  WatermarkEstimator wm;
  EXPECT_EQ(wm.EstimateLowWatermark(1234, 0.9), 1234);
}

TEST(MonoidAggregatorTest, BuiltinsAreMonoid) {
  // Identity and associativity for each canned aggregator.
  for (auto make : {&MakeInt64SumAggregator, &MakeInt64MaxAggregator}) {
    auto agg = make();
    const std::string a = "3";
    const std::string b = "5";
    const std::string c = "7";
    EXPECT_EQ(agg->Combine(agg->Identity(), a), a);
    EXPECT_EQ(agg->Combine(agg->Combine(a, b), c),
              agg->Combine(a, agg->Combine(b, c)));
  }
  auto hll = MakeHllAggregator(10);
  HyperLogLog x(10);
  x.Add("one");
  const std::string xs = x.Serialize();
  EXPECT_EQ(HyperLogLog::Deserialize(hll->Combine(hll->Identity(), xs))
                .Estimate(),
            HyperLogLog::Deserialize(xs).Estimate());
}


// ---------------------------------------------------------------------------
// Windowed processor (watermark-driven tumbling windows).

class CountWindow : public WindowedProcessor {
 public:
  explicit CountWindow(Options options) : WindowedProcessor(options) {}
  std::string GroupKey(const Event& event) const override {
    return event.row.Get("topic").ToString();
  }
  std::string InitialState() const override { return "0"; }
  void Fold(const Event&, std::string* state) const override {
    *state = std::to_string(strtoll(state->c_str(), nullptr, 10) + 1);
  }
  Row Render(Micros window_start, const std::string& group,
             const std::string& state) const override {
    auto schema = Schema::Make({{"window", ValueType::kInt64},
                                {"topic", ValueType::kString},
                                {"count", ValueType::kInt64}});
    return Row(schema,
               {Value(window_start), Value(group),
                Value(static_cast<int64_t>(
                    strtoll(state.c_str(), nullptr, 10)))});
  }
};

Event WindowEvent(Micros event_time, Micros arrival_time,
                  const std::string& topic) {
  Event e;
  e.row = Row(EventSchema(), {Value(event_time), Value(0), Value(topic)});
  e.event_time = event_time;
  e.arrival_time = arrival_time;
  return e;
}

TEST(WindowedProcessorTest, FinalizesOnlyPastTheWatermark) {
  WindowedProcessor::Options options;
  options.window_micros = 10 * kMicrosPerSecond;
  CountWindow processor(options);
  std::vector<Row> out;
  // Window [0, 10s): 3 events; window [10s, 20s): 1 event. All on time.
  for (const Micros t : {1, 2, 3}) {
    processor.Process(WindowEvent(t * kMicrosPerSecond,
                                  t * kMicrosPerSecond, "a"),
                      &out);
  }
  processor.Process(WindowEvent(12 * kMicrosPerSecond,
                                12 * kMicrosPerSecond, "a"),
                    &out);
  // Checkpoint at t=12s: watermark ~12s -> window 0 closes, window 10s stays.
  processor.OnCheckpoint(12 * kMicrosPerSecond, &out);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].Get("window").AsInt64(), 0);
  EXPECT_EQ(out[0].Get("count").AsInt64(), 3);
  EXPECT_EQ(processor.open_windows(), 1u);
  // Later checkpoint closes the second window.
  out.clear();
  processor.OnCheckpoint(25 * kMicrosPerSecond, &out);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].Get("window").AsInt64(), 10 * kMicrosPerSecond);
}

TEST(WindowedProcessorTest, LateEventsCountedUntilFinalized) {
  WindowedProcessor::Options options;
  options.window_micros = 10 * kMicrosPerSecond;
  options.confidence = 0.99;
  CountWindow processor(options);
  std::vector<Row> out;
  // On-time event plus one 3s-late event within the same window: with the
  // lateness observed, the watermark backs off and the straggler counts.
  processor.Process(WindowEvent(1 * kMicrosPerSecond,
                                1 * kMicrosPerSecond, "a"),
                    &out);
  processor.Process(WindowEvent(2 * kMicrosPerSecond,
                                5 * kMicrosPerSecond, "a"),
                    &out);
  processor.OnCheckpoint(12 * kMicrosPerSecond, &out);
  // Watermark = 12s - 3s lateness quantile = 9s < 10s: window stays open.
  EXPECT_TRUE(out.empty());
  EXPECT_EQ(processor.open_windows(), 1u);
  // Another late arrival for the open window still lands.
  processor.Process(WindowEvent(8 * kMicrosPerSecond,
                                13 * kMicrosPerSecond, "a"),
                    &out);
  processor.OnCheckpoint(30 * kMicrosPerSecond, &out);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].Get("count").AsInt64(), 3);

  // After finalization, a straggler for the shipped window is counted as
  // dropped, not double-emitted.
  out.clear();
  processor.Process(WindowEvent(9 * kMicrosPerSecond,
                                31 * kMicrosPerSecond, "a"),
                    &out);
  EXPECT_EQ(processor.late_dropped(), 1u);
  processor.OnCheckpoint(60 * kMicrosPerSecond, &out);
  EXPECT_TRUE(out.empty());
}

TEST(WindowedProcessorTest, StateRoundTripsThroughCheckpoint) {
  WindowedProcessor::Options options;
  options.window_micros = kMicrosPerSecond;
  CountWindow a(options);
  std::vector<Row> out;
  for (int i = 0; i < 7; ++i) {
    a.Process(WindowEvent(100, 100, "t" + std::to_string(i % 2)), &out);
  }
  CountWindow b(options);
  ASSERT_TRUE(b.RestoreState(a.SerializeState()).ok());
  std::vector<Row> from_a;
  std::vector<Row> from_b;
  a.FlushAll(&from_a);
  b.FlushAll(&from_b);
  ASSERT_EQ(from_a.size(), from_b.size());
  for (size_t i = 0; i < from_a.size(); ++i) {
    EXPECT_EQ(from_a[i].Get("count").AsInt64(),
              from_b[i].Get("count").AsInt64());
  }
}

TEST(WindowedProcessorTest, GroupsAreIndependent) {
  WindowedProcessor::Options options;
  options.window_micros = kMicrosPerSecond;
  CountWindow processor(options);
  std::vector<Row> out;
  for (int i = 0; i < 6; ++i) {
    processor.Process(WindowEvent(10, 10, i < 4 ? "x" : "y"), &out);
  }
  processor.FlushAll(&out);
  ASSERT_EQ(out.size(), 2u);
  std::map<std::string, int64_t> counts;
  for (const Row& row : out) {
    counts[row.Get("topic").AsString()] = row.Get("count").AsInt64();
  }
  EXPECT_EQ(counts["x"], 4);
  EXPECT_EQ(counts["y"], 2);
}

// ---------------------------------------------------------------------------
// State store tests.

class StateStoreTest : public ::testing::Test {
 protected:
  void SetUp() override { dir_ = MakeTempDir("stylus_store"); }
  void TearDown() override { ASSERT_TRUE(RemoveAll(dir_).ok()); }
  std::string dir_;
};

TEST_F(StateStoreTest, LocalRoundTrip) {
  auto store = LocalStateStore::Open(dir_ + "/s", nullptr, "");
  ASSERT_TRUE(store.ok());
  ASSERT_TRUE((*store)
                  ->SaveCheckpoint(StateSemantics::kExactlyOnce, "state-1",
                                   42, nullptr)
                  .ok());
  auto cp = (*store)->Load();
  ASSERT_TRUE(cp.ok());
  EXPECT_TRUE(cp->has_state);
  EXPECT_EQ(cp->state, "state-1");
  EXPECT_TRUE(cp->has_offset);
  EXPECT_EQ(cp->offset, 42u);
}

TEST_F(StateStoreTest, LocalEmptyLoad) {
  auto store = LocalStateStore::Open(dir_ + "/s", nullptr, "");
  ASSERT_TRUE(store.ok());
  auto cp = (*store)->Load();
  ASSERT_TRUE(cp.ok());
  EXPECT_FALSE(cp->has_state);
  EXPECT_FALSE(cp->has_offset);
}

TEST_F(StateStoreTest, AtLeastOnceCrashLeavesStateAheadOfOffset) {
  auto store = LocalStateStore::Open(dir_ + "/s", nullptr, "");
  ASSERT_TRUE(store.ok());
  ASSERT_TRUE((*store)
                  ->SaveCheckpoint(StateSemantics::kAtLeastOnce, "s10", 10,
                                   nullptr)
                  .ok());
  // Crash between the writes of the second checkpoint.
  const Status st = (*store)->SaveCheckpoint(
      StateSemantics::kAtLeastOnce, "s20", 20,
      [](FailurePoint p) { return p == FailurePoint::kBetweenCheckpointWrites; });
  EXPECT_TRUE(st.IsAborted());
  // Reopen (recovery): state is new, offset is old => replay => at-least-once.
  auto reopened = LocalStateStore::Open(dir_ + "/s", nullptr, "");
  ASSERT_TRUE(reopened.ok());
  auto cp = (*reopened)->Load();
  ASSERT_TRUE(cp.ok());
  EXPECT_EQ(cp->state, "s20");
  EXPECT_EQ(cp->offset, 10u);
}

TEST_F(StateStoreTest, AtMostOnceCrashLeavesOffsetAheadOfState) {
  auto store = LocalStateStore::Open(dir_ + "/s", nullptr, "");
  ASSERT_TRUE(store.ok());
  ASSERT_TRUE((*store)
                  ->SaveCheckpoint(StateSemantics::kAtMostOnce, "s10", 10,
                                   nullptr)
                  .ok());
  const Status st = (*store)->SaveCheckpoint(
      StateSemantics::kAtMostOnce, "s20", 20,
      [](FailurePoint p) { return p == FailurePoint::kBetweenCheckpointWrites; });
  EXPECT_TRUE(st.IsAborted());
  auto reopened = LocalStateStore::Open(dir_ + "/s", nullptr, "");
  ASSERT_TRUE(reopened.ok());
  auto cp = (*reopened)->Load();
  ASSERT_TRUE(cp.ok());
  EXPECT_EQ(cp->state, "s10");   // Old state...
  EXPECT_EQ(cp->offset, 20u);    // ...newer offset => skipped events.
}

TEST_F(StateStoreTest, ExactlyOnceIsAtomicUnderCrashInjection) {
  auto store = LocalStateStore::Open(dir_ + "/s", nullptr, "");
  ASSERT_TRUE(store.ok());
  int calls = 0;
  ASSERT_TRUE((*store)
                  ->SaveCheckpoint(StateSemantics::kExactlyOnce, "s", 5,
                                   [&calls](FailurePoint) {
                                     ++calls;
                                     return true;
                                   })
                  .ok());
  // The injector is never consulted: there is no between-writes window.
  EXPECT_EQ(calls, 0);
}

TEST_F(StateStoreTest, RemoteStoreRoundTrip) {
  zippydb::ClusterOptions options;
  options.simulate_latency = false;
  auto cluster = zippydb::Cluster::Open(options, dir_ + "/z");
  ASSERT_TRUE(cluster.ok());
  RemoteStateStore store(cluster->get(), "ckpt/test/shard-0");
  ASSERT_TRUE(store
                  .SaveCheckpoint(StateSemantics::kExactlyOnce, "remote-state",
                                  7, nullptr)
                  .ok());
  auto cp = store.Load();
  ASSERT_TRUE(cp.ok());
  EXPECT_EQ(cp->state, "remote-state");
  EXPECT_EQ(cp->offset, 7u);
}

TEST_F(StateStoreTest, HdfsBackupAndMachineLossRestore) {
  hdfs::HdfsCluster hdfs(dir_ + "/hdfs");
  {
    auto store = LocalStateStore::Open(dir_ + "/s", &hdfs, "backup/app");
    ASSERT_TRUE(store.ok());
    ASSERT_TRUE((*store)
                    ->SaveCheckpoint(StateSemantics::kExactlyOnce, "precious",
                                     99, nullptr)
                    .ok());
    ASSERT_TRUE((*store)->BackupToHdfs().ok());
  }
  // Machine loss: the local directory is gone.
  ASSERT_TRUE(RemoveAll(dir_ + "/s").ok());
  ASSERT_TRUE(
      LocalStateStore::RestoreFromHdfs(&hdfs, "backup/app", dir_ + "/s").ok());
  auto restored = LocalStateStore::Open(dir_ + "/s", &hdfs, "backup/app");
  ASSERT_TRUE(restored.ok());
  auto cp = (*restored)->Load();
  ASSERT_TRUE(cp.ok());
  EXPECT_EQ(cp->state, "precious");
  EXPECT_EQ(cp->offset, 99u);
}

TEST_F(StateStoreTest, BackupSkippedWhenHdfsDown) {
  hdfs::HdfsCluster hdfs(dir_ + "/hdfs");
  auto store = LocalStateStore::Open(dir_ + "/s", &hdfs, "backup/app");
  ASSERT_TRUE(store.ok());
  ASSERT_TRUE((*store)
                  ->SaveCheckpoint(StateSemantics::kExactlyOnce, "s0", 0,
                                   nullptr)
                  .ok());
  hdfs.SetAvailable(false);
  EXPECT_TRUE((*store)->BackupToHdfs().IsUnavailable());
  // Local processing continues: checkpoints still work.
  EXPECT_TRUE((*store)
                  ->SaveCheckpoint(StateSemantics::kExactlyOnce, "s", 1,
                                   nullptr)
                  .ok());
}

// ---------------------------------------------------------------------------
// Monoid remote state.

class MonoidStateTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = MakeTempDir("monoid");
    agg_ = MakeInt64SumAggregator();
    zippydb::ClusterOptions options;
    options.simulate_latency = false;
    options.merge_operator = std::make_shared<MonoidMergeOperator>(
        std::shared_ptr<const MonoidAggregator>(MakeInt64SumAggregator()));
    auto cluster = zippydb::Cluster::Open(options, dir_ + "/z");
    ASSERT_TRUE(cluster.ok());
    cluster_ = std::move(cluster).value();
  }
  void TearDown() override { ASSERT_TRUE(RemoveAll(dir_).ok()); }

  std::string dir_;
  std::unique_ptr<MonoidAggregator> agg_;
  std::unique_ptr<zippydb::Cluster> cluster_;
};

TEST_F(MonoidStateTest, AppendCombinesInMemory) {
  RemoteMonoidState state(cluster_.get(), agg_.get(), "m",
                          RemoteWriteMode::kAppendOnly);
  state.Append("k", "1");
  state.Append("k", "2");
  state.Append("j", "5");
  EXPECT_EQ(state.dirty_keys(), 2u);
  auto merged = state.Read("k");
  ASSERT_TRUE(merged.ok());
  EXPECT_EQ(*merged, "3");
}

TEST_F(MonoidStateTest, BothModesProduceIdenticalFinalState) {
  RemoteMonoidState rmw(cluster_.get(), agg_.get(), "rmw",
                        RemoteWriteMode::kReadModifyWrite);
  RemoteMonoidState append(cluster_.get(), agg_.get(), "app",
                           RemoteWriteMode::kAppendOnly);
  for (int round = 0; round < 5; ++round) {
    for (int i = 0; i < 10; ++i) {
      const std::string key = "key" + std::to_string(i % 3);
      rmw.Append(key, std::to_string(i));
      append.Append(key, std::to_string(i));
    }
    ASSERT_TRUE(rmw.Flush().ok());
    ASSERT_TRUE(append.Flush().ok());
  }
  for (int i = 0; i < 3; ++i) {
    const std::string key = "key" + std::to_string(i);
    auto a = cluster_->Get("rmw/" + key);
    auto b = cluster_->Get("app/" + key);
    ASSERT_TRUE(a.ok());
    ASSERT_TRUE(b.ok());
    EXPECT_EQ(*a, *b) << key;
  }
}

TEST_F(MonoidStateTest, AppendModeSkipsRemoteReads) {
  RemoteMonoidState state(cluster_.get(), agg_.get(), "m",
                          RemoteWriteMode::kAppendOnly);
  for (int i = 0; i < 20; ++i) {
    state.Append("k" + std::to_string(i), "1");
  }
  cluster_->stats().Reset();
  ASSERT_TRUE(state.Flush().ok());
  EXPECT_EQ(cluster_->stats().reads.load(), 0u);
  EXPECT_EQ(cluster_->stats().merges.load(), 20u);
  EXPECT_EQ(cluster_->stats().writes.load(), 0u);
}

TEST_F(MonoidStateTest, RmwModeReadsAndWrites) {
  RemoteMonoidState state(cluster_.get(), agg_.get(), "m",
                          RemoteWriteMode::kReadModifyWrite);
  for (int i = 0; i < 20; ++i) {
    state.Append("k" + std::to_string(i), "1");
  }
  cluster_->stats().Reset();
  ASSERT_TRUE(state.Flush().ok());
  EXPECT_EQ(cluster_->stats().reads.load(), 20u);
  EXPECT_EQ(cluster_->stats().writes.load(), 20u);
  EXPECT_EQ(cluster_->stats().merges.load(), 0u);
}

TEST_F(MonoidStateTest, FlushClearsDirtySet) {
  RemoteMonoidState state(cluster_.get(), agg_.get(), "m",
                          RemoteWriteMode::kAppendOnly);
  state.Append("k", "1");
  ASSERT_TRUE(state.Flush().ok());
  EXPECT_EQ(state.dirty_keys(), 0u);
  ASSERT_TRUE(state.Flush().ok());  // Idempotent on empty.
  auto v = cluster_->Get("m/k");
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(*v, "1");
}

// ---------------------------------------------------------------------------
// Node runtime: the Figure 7 experiment as unit tests.

class NodeTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = MakeTempDir("stylus_node");
    scribe_ = std::make_unique<scribe::Scribe>(&clock_);
    scribe::CategoryConfig config;
    config.name = "in";
    ASSERT_TRUE(scribe_->CreateCategory(config).ok());
    sink_ = std::make_shared<CollectingSink>();
  }
  void TearDown() override { ASSERT_TRUE(RemoveAll(dir_).ok()); }

  void WriteEvents(int from, int to) {
    TextRowCodec codec(EventSchema());
    for (int i = from; i < to; ++i) {
      Row row(EventSchema(),
              {Value(clock_.NowMicros()), Value(i),
               Value("t" + std::to_string(i % 3))});
      ASSERT_TRUE(scribe_->Write("in", 0, codec.Encode(row)).ok());
    }
  }

  NodeConfig CounterConfig(StateSemantics state, OutputSemantics output) {
    NodeConfig config;
    config.name = "counter";
    config.input_category = "in";
    config.input_schema = EventSchema();
    config.event_time_column = "event_time";
    config.stateful_factory = [] {
      return std::make_unique<CounterProcessor>();
    };
    config.state_semantics = state;
    config.output_semantics = output;
    config.checkpoint_every_events = 10;
    config.backend = StateBackend::kLocal;
    config.state_dir = dir_ + "/state";
    config.sink = sink_;
    return config;
  }

  // Runs until quiescent; crashed shards are recovered and resumed until
  // everything is drained.
  int64_t RunToCompletion(NodeShard* shard) {
    for (int round = 0; round < 1000; ++round) {
      if (!shard->alive()) {
        EXPECT_TRUE(shard->Recover().ok());
      }
      auto result = shard->RunOnce();
      if (!result.ok()) {
        EXPECT_TRUE(result.status().IsAborted()) << result.status();
        continue;
      }
      if (result.value() == 0) break;
    }
    return FinalCount();
  }

  // Final counter value = last emitted count row (0 for non-counter sinks).
  int64_t FinalCount() {
    auto rows = sink_->rows();
    if (rows.empty()) return 0;
    return rows.back().Get("count").CoerceInt64();
  }

  SimClock clock_{1'000'000};
  std::string dir_;
  std::unique_ptr<scribe::Scribe> scribe_;
  std::shared_ptr<CollectingSink> sink_;
};

TEST_F(NodeTest, NoFailureAllSemanticsAgree) {
  WriteEvents(0, 100);  // All shards replay the same 100 events.
  for (const auto& [state, output] :
       {std::pair{StateSemantics::kAtLeastOnce, OutputSemantics::kAtLeastOnce},
        std::pair{StateSemantics::kAtMostOnce, OutputSemantics::kAtMostOnce},
        std::pair{StateSemantics::kExactlyOnce,
                  OutputSemantics::kAtLeastOnce}}) {
    sink_->Clear();
    NodeConfig config = CounterConfig(state, output);
    config.name = std::string("counter-") + ToString(state);
    auto shard = NodeShard::Create(config, scribe_.get(), &clock_, 0);
    ASSERT_TRUE(shard.ok()) << shard.status();
    EXPECT_EQ(RunToCompletion(shard->get()), 100);
  }
}

TEST_F(NodeTest, Figure7AtLeastOnceOvercounts) {
  auto shard = NodeShard::Create(
      CounterConfig(StateSemantics::kAtLeastOnce,
                    OutputSemantics::kAtLeastOnce),
      scribe_.get(), &clock_, 0);
  ASSERT_TRUE(shard.ok());
  int between = 0;
  (*shard)->SetFailureInjector([&between](FailurePoint p) {
    return p == FailurePoint::kBetweenCheckpointWrites && ++between == 3;
  });
  WriteEvents(0, 100);
  const int64_t final_count = RunToCompletion(shard->get());
  // State (30 counted) persisted but offset stayed at 20: events 20..29
  // replay and are double counted.
  EXPECT_EQ(final_count, 110);
}

TEST_F(NodeTest, Figure7AtMostOnceUndercounts) {
  auto shard = NodeShard::Create(
      CounterConfig(StateSemantics::kAtMostOnce,
                    OutputSemantics::kAtMostOnce),
      scribe_.get(), &clock_, 0);
  ASSERT_TRUE(shard.ok());
  int between = 0;
  (*shard)->SetFailureInjector([&between](FailurePoint p) {
    return p == FailurePoint::kBetweenCheckpointWrites && ++between == 3;
  });
  WriteEvents(0, 100);
  const int64_t final_count = RunToCompletion(shard->get());
  // Offset (30) persisted but state stayed at 20: events 20..29 are lost.
  EXPECT_EQ(final_count, 90);
}

TEST_F(NodeTest, Figure7ExactlyOnceMatchesIdeal) {
  auto shard = NodeShard::Create(
      CounterConfig(StateSemantics::kExactlyOnce,
                    OutputSemantics::kAtLeastOnce),
      scribe_.get(), &clock_, 0);
  ASSERT_TRUE(shard.ok());
  // Crash after processing instead (no between-writes window exists): the
  // whole interval replays and the atomic checkpoint keeps counts exact.
  int after = 0;
  (*shard)->SetFailureInjector([&after](FailurePoint p) {
    return p == FailurePoint::kAfterProcessing && ++after == 3;
  });
  WriteEvents(0, 100);
  const int64_t final_count = RunToCompletion(shard->get());
  EXPECT_EQ(final_count, 100);
}

TEST_F(NodeTest, AtLeastOnceOutputDuplicatesOnCrash) {
  NodeConfig config = CounterConfig(StateSemantics::kAtLeastOnce,
                                    OutputSemantics::kAtLeastOnce);
  config.name = "pass";
  config.stateful_factory = nullptr;
  config.stateless_factory = [] {
    return std::make_unique<PassthroughProcessor>();
  };
  config.backend = StateBackend::kNone;
  auto shard = NodeShard::Create(config, scribe_.get(), &clock_, 0);
  ASSERT_TRUE(shard.ok()) << shard.status();
  int after = 0;
  (*shard)->SetFailureInjector([&after](FailurePoint p) {
    return p == FailurePoint::kAfterProcessing && ++after == 1;
  });
  WriteEvents(0, 30);
  RunToCompletion(shard->get());
  // First interval (10 events) emitted, crashed before checkpoint, then
  // replayed and emitted again: 40 rows for 30 events.
  EXPECT_EQ(sink_->size(), 40u);
}

TEST_F(NodeTest, AtMostOnceOutputLosesButNeverDuplicates) {
  NodeConfig config = CounterConfig(StateSemantics::kAtMostOnce,
                                    OutputSemantics::kAtMostOnce);
  config.name = "pass";
  config.stateful_factory = nullptr;
  config.stateless_factory = [] {
    return std::make_unique<PassthroughProcessor>();
  };
  config.backend = StateBackend::kNone;
  auto shard = NodeShard::Create(config, scribe_.get(), &clock_, 0);
  ASSERT_TRUE(shard.ok()) << shard.status();
  int after_ckpt = 0;
  (*shard)->SetFailureInjector([&after_ckpt](FailurePoint p) {
    return p == FailurePoint::kAfterCheckpoint && ++after_ckpt == 1;
  });
  WriteEvents(0, 30);
  RunToCompletion(shard->get());
  // One interval's output was lost after its offset was committed.
  EXPECT_EQ(sink_->size(), 20u);
}

TEST_F(NodeTest, ExactlyOnceOutputIntoTransactionalStore) {
  zippydb::ClusterOptions options;
  options.simulate_latency = false;
  auto cluster = zippydb::Cluster::Open(options, dir_ + "/z");
  ASSERT_TRUE(cluster.ok());

  NodeConfig config = CounterConfig(StateSemantics::kExactlyOnce,
                                    OutputSemantics::kExactlyOnce);
  config.name = "eo";
  config.stateful_factory = nullptr;
  config.stateless_factory = [] {
    return std::make_unique<PassthroughProcessor>();
  };
  config.backend = StateBackend::kRemote;
  config.remote = cluster->get();
  config.sink = std::make_shared<ZippyDbSink>(
      cluster->get(), "out", std::vector<std::string>{"id"},
      std::vector<std::string>{"topic"});
  auto shard = NodeShard::Create(config, scribe_.get(), &clock_, 0);
  ASSERT_TRUE(shard.ok()) << shard.status();
  int after = 0;
  (*shard)->SetFailureInjector([&after](FailurePoint p) {
    return p == FailurePoint::kAfterProcessing && ++after == 2;
  });
  WriteEvents(0, 50);
  RunToCompletion(shard->get());
  // Every event's output row is present exactly once (keys are unique) and
  // none are missing.
  auto rows = (*cluster)->ScanPrefix("out/");
  ASSERT_TRUE(rows.ok());
  EXPECT_EQ(rows->size(), 50u);
}

TEST_F(NodeTest, ScribeSinkRejectsExactlyOnce) {
  scribe::CategoryConfig out;
  out.name = "out";
  ASSERT_TRUE(scribe_->CreateCategory(out).ok());
  NodeConfig config = CounterConfig(StateSemantics::kExactlyOnce,
                                    OutputSemantics::kExactlyOnce);
  config.sink = std::make_shared<ScribeSink>(
      scribe_.get(), "out", EventSchema(), std::vector<std::string>{"id"});
  auto shard = NodeShard::Create(config, scribe_.get(), &clock_, 0);
  EXPECT_FALSE(shard.ok());  // "the receiver must be a data store".
}

TEST_F(NodeTest, InvalidSemanticsComboRejected) {
  auto shard = NodeShard::Create(
      CounterConfig(StateSemantics::kAtMostOnce,
                    OutputSemantics::kAtLeastOnce),
      scribe_.get(), &clock_, 0);
  EXPECT_FALSE(shard.ok());
}

TEST_F(NodeTest, RequiresExactlyOneFactory) {
  NodeConfig config = CounterConfig(StateSemantics::kAtLeastOnce,
                                    OutputSemantics::kAtLeastOnce);
  config.stateless_factory = [] {
    return std::make_unique<PassthroughProcessor>();
  };
  EXPECT_FALSE(NodeShard::Create(config, scribe_.get(), &clock_, 0).ok());
  config.stateless_factory = nullptr;
  config.stateful_factory = nullptr;
  EXPECT_FALSE(NodeShard::Create(config, scribe_.get(), &clock_, 0).ok());
}

TEST_F(NodeTest, HdfsBackupDuringProcessingAndMachineLoss) {
  hdfs::HdfsCluster hdfs(dir_ + "/hdfs");
  NodeConfig config = CounterConfig(StateSemantics::kExactlyOnce,
                                    OutputSemantics::kAtLeastOnce);
  config.hdfs = &hdfs;
  config.backup_every_checkpoints = 2;
  {
    auto shard = NodeShard::Create(config, scribe_.get(), &clock_, 0);
    ASSERT_TRUE(shard.ok());
    WriteEvents(0, 100);
    RunToCompletion(shard->get());
    EXPECT_EQ(FinalCount(), 100);
  }
  // Machine loss: local state directory destroyed.
  ASSERT_TRUE(RemoveAll(config.state_dir).ok());
  ASSERT_TRUE(LocalStateStore::RestoreFromHdfs(
                  &hdfs, "backup/counter/shard-0",
                  config.state_dir + "/counter/shard-0")
                  .ok());
  sink_->Clear();
  auto shard = NodeShard::Create(config, scribe_.get(), &clock_, 0);
  ASSERT_TRUE(shard.ok());
  WriteEvents(100, 120);
  RunToCompletion(shard->get());
  // The backup held at least the first 100 events' checkpoint (every 2nd
  // checkpoint); the final count must cover all 120 with no loss, with
  // possible replay of the tail after the last backup.
  EXPECT_GE(FinalCount(), 120);
}

TEST_F(NodeTest, DegradedModeQueuesBackupsAndResyncsOnRecovery) {
  hdfs::HdfsCluster hdfs(dir_ + "/hdfs");
  NodeConfig config = CounterConfig(StateSemantics::kAtLeastOnce,
                                    OutputSemantics::kAtLeastOnce);
  config.hdfs = &hdfs;
  config.backup_every_checkpoints = 1;
  config.max_pending_backups = 2;
  {
    auto shard_or = NodeShard::Create(config, scribe_.get(), &clock_, 0);
    ASSERT_TRUE(shard_or.ok());
    NodeShard* shard = shard_or->get();

    WriteEvents(0, 20);  // Two checkpoints, two on-schedule backups.
    RunToCompletion(shard);
    BackupHealth h = shard->GetBackupHealth();
    EXPECT_FALSE(h.degraded);
    EXPECT_EQ(h.backups_completed, 2u);
    EXPECT_EQ(h.pending_backups, 0u);

    // HDFS outage (§4.4.2): processing continues, missed backups accumulate
    // in the bounded pending queue.
    hdfs.SetAvailable(false);
    WriteEvents(20, 70);  // Five checkpoints, all missing their backups.
    EXPECT_EQ(RunToCompletion(shard), 70);  // No events lost to the outage.
    h = shard->GetBackupHealth();
    EXPECT_TRUE(h.degraded);
    EXPECT_GT(h.degraded_since, 0);
    EXPECT_EQ(h.pending_backups, 2u);  // Bounded by max_pending_backups.
    EXPECT_EQ(h.backups_dropped, 3u);
    EXPECT_EQ(h.backups_completed, 2u);

    // HDFS recovers: the next (event-less) round resyncs the pending queue.
    hdfs.SetAvailable(true);
    clock_.AdvanceMicros(1000);
    auto drained = shard->RunOnce();
    ASSERT_TRUE(drained.ok());
    EXPECT_EQ(drained.value(), 0u);
    h = shard->GetBackupHealth();
    EXPECT_FALSE(h.degraded);
    EXPECT_EQ(h.degraded_since, 0);
    EXPECT_GT(h.degraded_micros_total, 0);
    EXPECT_EQ(h.pending_backups, 0u);
    EXPECT_EQ(h.backups_resynced, 2u);
  }

  // The resynced backup is complete: machine loss + restore-from-HDFS
  // yields the full post-outage state (count 70 at offset 70).
  ASSERT_TRUE(RemoveAll(config.state_dir).ok());
  ASSERT_TRUE(LocalStateStore::RestoreFromHdfs(
                  &hdfs, "backup/counter/shard-0",
                  config.state_dir + "/counter/shard-0")
                  .ok());
  auto restored = NodeShard::Create(config, scribe_.get(), &clock_, 0);
  ASSERT_TRUE(restored.ok());
  WriteEvents(70, 80);
  RunToCompletion(restored->get());
  EXPECT_GE(FinalCount(), 80);
}

TEST_F(NodeTest, MonoidNodeCountsPerTopic) {
  zippydb::ClusterOptions zopt;
  zopt.simulate_latency = false;
  zopt.merge_operator = std::make_shared<MonoidMergeOperator>(
      std::shared_ptr<const MonoidAggregator>(MakeInt64SumAggregator()));
  auto cluster = zippydb::Cluster::Open(zopt, dir_ + "/z");
  ASSERT_TRUE(cluster.ok());

  NodeConfig config;
  config.name = "topics";
  config.input_category = "in";
  config.input_schema = EventSchema();
  config.event_time_column = "event_time";
  config.monoid_factory = [] {
    return std::make_unique<TopicCountProcessor>();
  };
  config.monoid_aggregator =
      std::shared_ptr<const MonoidAggregator>(MakeInt64SumAggregator());
  config.remote = cluster->get();
  config.remote_mode = RemoteWriteMode::kAppendOnly;
  config.checkpoint_every_events = 16;
  auto shard = NodeShard::Create(config, scribe_.get(), &clock_, 0);
  ASSERT_TRUE(shard.ok()) << shard.status();
  WriteEvents(0, 90);  // Topics t0,t1,t2 x 30 each.
  RunToCompletion(shard->get());
  for (int t = 0; t < 3; ++t) {
    auto v = (*cluster)->Get("mono/topics/t" + std::to_string(t));
    ASSERT_TRUE(v.ok());
    EXPECT_EQ(*v, "30");
  }
}

TEST_F(NodeTest, MonoidCrashIsAtLeastOnce) {
  zippydb::ClusterOptions zopt;
  zopt.simulate_latency = false;
  zopt.merge_operator = std::make_shared<MonoidMergeOperator>(
      std::shared_ptr<const MonoidAggregator>(MakeInt64SumAggregator()));
  auto cluster = zippydb::Cluster::Open(zopt, dir_ + "/z");
  ASSERT_TRUE(cluster.ok());

  NodeConfig config;
  config.name = "topics";
  config.input_category = "in";
  config.input_schema = EventSchema();
  config.monoid_factory = [] {
    return std::make_unique<TopicCountProcessor>();
  };
  config.monoid_aggregator =
      std::shared_ptr<const MonoidAggregator>(MakeInt64SumAggregator());
  config.remote = cluster->get();
  config.checkpoint_every_events = 10;
  auto shard = NodeShard::Create(config, scribe_.get(), &clock_, 0);
  ASSERT_TRUE(shard.ok());
  int between = 0;
  (*shard)->SetFailureInjector([&between](FailurePoint p) {
    return p == FailurePoint::kBetweenCheckpointWrites && ++between == 2;
  });
  WriteEvents(0, 60);
  RunToCompletion(shard->get());
  int64_t total = 0;
  for (int t = 0; t < 3; ++t) {
    auto v = (*cluster)->Get("mono/topics/t" + std::to_string(t));
    ASSERT_TRUE(v.ok());
    total += strtoll(v->c_str(), nullptr, 10);
  }
  // One interval of 10 events was flushed twice: 60 + 10.
  EXPECT_EQ(total, 70);
}


TEST_F(NodeTest, ByteBasedCheckpointTriggerSplitsIntervals) {
  // §2.3/§4.3: checkpoints every B bytes. With a small byte budget the
  // engine must split polled batches and push the remainder back.
  NodeConfig config = CounterConfig(StateSemantics::kExactlyOnce,
                                    OutputSemantics::kAtLeastOnce);
  config.checkpoint_every_events = 1000;  // Effectively unlimited.
  config.checkpoint_every_bytes = 64;     // ~3-4 rows per interval.
  auto shard = NodeShard::Create(config, scribe_.get(), &clock_, 0);
  ASSERT_TRUE(shard.ok()) << shard.status();
  WriteEvents(0, 40);
  size_t intervals = 0;
  while (true) {
    auto n = (*shard)->RunOnce();
    ASSERT_TRUE(n.ok());
    if (*n == 0) break;
    EXPECT_LT(*n, 40u);  // Byte budget forces multiple intervals.
    ++intervals;
  }
  EXPECT_GT(intervals, 4u);
  EXPECT_EQ(FinalCount(), 40);
  EXPECT_EQ((*shard)->checkpoints_completed(), intervals);
}

TEST_F(NodeTest, WatermarkReflectsStreamLateness) {
  NodeConfig config = CounterConfig(StateSemantics::kExactlyOnce,
                                    OutputSemantics::kAtLeastOnce);
  auto shard = NodeShard::Create(config, scribe_.get(), &clock_, 0);
  ASSERT_TRUE(shard.ok());
  // Events whose event_time is 5s behind the (sim) arrival clock.
  TextRowCodec codec(EventSchema());
  for (int i = 0; i < 50; ++i) {
    Row row(EventSchema(),
            {Value(clock_.NowMicros() - 5 * kMicrosPerSecond), Value(i),
             Value("t")});
    ASSERT_TRUE(scribe_->Write("in", 0, codec.Encode(row)).ok());
  }
  while (true) {
    auto n = (*shard)->RunOnce();
    ASSERT_TRUE(n.ok());
    if (*n == 0) break;
  }
  const Micros wm = (*shard)->LowWatermark();
  EXPECT_LE(wm, clock_.NowMicros() - 5 * kMicrosPerSecond + 1);
  EXPECT_EQ((*shard)->watermark().num_observations(), 50u);
}

TEST_F(NodeTest, RunOnceOnDeadShardFails) {
  auto shard = NodeShard::Create(
      CounterConfig(StateSemantics::kExactlyOnce,
                    OutputSemantics::kAtLeastOnce),
      scribe_.get(), &clock_, 0);
  ASSERT_TRUE(shard.ok());
  (*shard)->Crash();
  EXPECT_FALSE((*shard)->alive());
  EXPECT_FALSE((*shard)->RunOnce().ok());
  ASSERT_TRUE((*shard)->Recover().ok());
  EXPECT_TRUE((*shard)->RunOnce().ok());
  // Recover on a live shard is a no-op.
  ASSERT_TRUE((*shard)->Recover().ok());
}

// Passes through the events of even ten-blocks (ids 0-9, 20-29, ...) and
// drops the rest, so with ten-event checkpoints every other batch has no
// output.
class EvenTensProcessor : public StatelessProcessor {
 public:
  void Process(const Event& event, std::vector<Row>* out) override {
    if (event.row.Get("id").CoerceInt64() / 10 % 2 == 0) {
      out->push_back(event.row);
    }
  }
};

// An in-process bus that counts its batched appends; the rows land through
// the base class.
class BatchCountingScribe : public scribe::Scribe {
 public:
  using scribe::Scribe::Scribe;
  Status WriteShardedBatch(
      const std::string& category,
      const std::vector<scribe::ShardedRecord>& records) override {
    ++batch_calls;
    return scribe::Scribe::WriteShardedBatch(category, records);
  }
  int batch_calls = 0;
};

TEST_F(NodeTest, ScribeSinkAppendsOneBatchPerNonEmptyInterval) {
  for (const auto& [state, output] :
       {std::pair{StateSemantics::kAtLeastOnce, OutputSemantics::kAtLeastOnce},
        std::pair{StateSemantics::kAtMostOnce, OutputSemantics::kAtMostOnce}}) {
    BatchCountingScribe bus(&clock_);
    for (const char* name : {"in", "out"}) {
      scribe::CategoryConfig category;
      category.name = name;
      category.num_buckets = 2;
      ASSERT_TRUE(bus.CreateCategory(category).ok());
    }
    TextRowCodec codec(EventSchema());
    for (int i = 0; i < 40; ++i) {
      Row row(EventSchema(), {Value(clock_.NowMicros()), Value(i),
                              Value("t" + std::to_string(i % 3))});
      ASSERT_TRUE(bus.Write("in", 0, codec.Encode(row)).ok());
    }
    NodeConfig config;
    config.name = std::string("batcher-") + ToString(output);
    config.input_category = "in";
    config.input_schema = EventSchema();
    config.stateless_factory = [] {
      return std::make_unique<EvenTensProcessor>();
    };
    config.state_semantics = state;
    config.output_semantics = output;
    config.checkpoint_every_events = 10;
    config.backend = StateBackend::kNone;
    config.state_dir = dir_ + "/state";
    config.sink = std::make_shared<ScribeSink>(
        &bus, "out", EventSchema(), std::vector<std::string>{"topic"});
    auto shard = NodeShard::Create(config, &bus, &clock_, 0);
    ASSERT_TRUE(shard.ok()) << shard.status();
    size_t batches = 0;
    for (;;) {
      auto n = (*shard)->RunOnce();
      ASSERT_TRUE(n.ok()) << n.status();
      if (*n == 0) break;
      ++batches;
    }
    EXPECT_EQ(batches, 4u);
    // Two of the four intervals have output: one append call each.
    EXPECT_EQ(bus.batch_calls, 2) << ToString(output);
    std::vector<int64_t> ids;
    for (int b = 0; b < 2; ++b) {
      auto messages = bus.Read("out", b, 0, 100);
      ASSERT_TRUE(messages.ok());
      for (const scribe::Message& m : *messages) {
        auto row = codec.Decode(m.payload);
        ASSERT_TRUE(row.ok());
        ids.push_back(row->Get("id").CoerceInt64());
      }
    }
    std::sort(ids.begin(), ids.end());
    std::vector<int64_t> want;
    for (int64_t i = 0; i < 40; ++i) {
      if (i / 10 % 2 == 0) want.push_back(i);
    }
    EXPECT_EQ(ids, want) << ToString(output);
  }
}

TEST_F(NodeTest, EmitOnlySinkSeesEveryRowOnceInOrder) {
  // CollectingSink overrides only Emit: the default EmitBatch must hand it
  // every row of every batch, once, in processing order.
  WriteEvents(0, 35);
  for (const auto& [state, output] :
       {std::pair{StateSemantics::kAtLeastOnce, OutputSemantics::kAtLeastOnce},
        std::pair{StateSemantics::kAtMostOnce, OutputSemantics::kAtMostOnce}}) {
    sink_->Clear();
    NodeConfig config;
    config.name = std::string("emit-only-") + ToString(output);
    config.input_category = "in";
    config.input_schema = EventSchema();
    config.stateless_factory = [] {
      return std::make_unique<PassthroughProcessor>();
    };
    config.state_semantics = state;
    config.output_semantics = output;
    config.checkpoint_every_events = 10;
    config.backend = StateBackend::kNone;
    config.state_dir = dir_ + "/state";
    config.sink = sink_;
    auto shard = NodeShard::Create(config, scribe_.get(), &clock_, 0);
    ASSERT_TRUE(shard.ok()) << shard.status();
    RunToCompletion(shard->get());
    const std::vector<Row> rows = sink_->rows();
    ASSERT_EQ(rows.size(), 35u) << ToString(output);
    for (int64_t i = 0; i < 35; ++i) {
      EXPECT_EQ(rows[static_cast<size_t>(i)].Get("id").CoerceInt64(), i);
    }
  }
}

// ---------------------------------------------------------------------------
// Pipelines (DAGs).

TEST_F(NodeTest, PipelineTwoNodeDagWithIndependentFailure) {
  scribe::CategoryConfig mid;
  mid.name = "mid";
  mid.num_buckets = 1;
  ASSERT_TRUE(scribe_->CreateCategory(mid).ok());

  Pipeline pipeline(scribe_.get(), &clock_);

  // Node 1: passthrough in -> mid.
  NodeConfig n1;
  n1.name = "filterer";
  n1.input_category = "in";
  n1.input_schema = EventSchema();
  n1.stateless_factory = [] {
    return std::make_unique<PassthroughProcessor>();
  };
  n1.backend = StateBackend::kNone;
  n1.state_dir = dir_ + "/state";
  n1.sink = std::make_shared<ScribeSink>(scribe_.get(), "mid", EventSchema(),
                                         std::vector<std::string>{"topic"});
  ASSERT_TRUE(pipeline.AddNode(n1).ok());

  // Node 2: counter over mid.
  NodeConfig n2 = CounterConfig(StateSemantics::kExactlyOnce,
                                OutputSemantics::kAtLeastOnce);
  n2.input_category = "mid";
  ASSERT_TRUE(pipeline.AddNode(n2).ok());

  WriteEvents(0, 50);
  ASSERT_TRUE(pipeline.RunUntilQuiescent().ok());
  EXPECT_EQ(FinalCount(), 50);

  // Crash the counter; the filterer keeps consuming new input.
  NodeShard* counter = pipeline.Shard("counter", 0);
  ASSERT_NE(counter, nullptr);
  counter->Crash();
  WriteEvents(50, 80);
  ASSERT_TRUE(pipeline.RunUntilQuiescent().ok());
  // Filterer progressed: mid now holds all 80 rows.
  auto mid_next = scribe_->NextSequence("mid", 0);
  ASSERT_TRUE(mid_next.ok());
  EXPECT_EQ(*mid_next, 80u);

  // Recover the counter: it resumes from its checkpoint and catches up.
  ASSERT_TRUE(pipeline.RecoverAll().ok());
  ASSERT_TRUE(pipeline.RunUntilQuiescent().ok());
  EXPECT_EQ(FinalCount(), 80);
}

TEST_F(NodeTest, PipelineLagMonitoringAndAlerts) {
  Pipeline pipeline(scribe_.get(), &clock_);
  NodeConfig config = CounterConfig(StateSemantics::kExactlyOnce,
                                    OutputSemantics::kAtLeastOnce);
  ASSERT_TRUE(pipeline.AddNode(config).ok());
  WriteEvents(0, 500);
  auto lag = pipeline.GetProcessingLag();
  ASSERT_EQ(lag.size(), 1u);
  EXPECT_EQ(lag[0].lag_messages, 500u);
  EXPECT_EQ(pipeline.GetLagAlerts(100).size(), 1u);
  ASSERT_TRUE(pipeline.RunUntilQuiescent().ok());
  EXPECT_TRUE(pipeline.GetLagAlerts(1).empty());
}

TEST_F(NodeTest, PipelineShardedNodeProcessesAllBuckets) {
  scribe::CategoryConfig wide;
  wide.name = "wide";
  wide.num_buckets = 4;
  ASSERT_TRUE(scribe_->CreateCategory(wide).ok());
  TextRowCodec codec(EventSchema());
  for (int i = 0; i < 200; ++i) {
    Row row(EventSchema(), {Value(0), Value(i), Value("t")});
    ASSERT_TRUE(scribe_->WriteSharded("wide", std::to_string(i),
                                      codec.Encode(row))
                    .ok());
  }
  Pipeline pipeline(scribe_.get(), &clock_);
  NodeConfig config = CounterConfig(StateSemantics::kExactlyOnce,
                                    OutputSemantics::kAtLeastOnce);
  config.input_category = "wide";
  ASSERT_TRUE(pipeline.AddNode(config).ok());
  EXPECT_EQ(pipeline.Shards("counter").size(), 4u);
  ASSERT_TRUE(pipeline.RunUntilQuiescent().ok());
  // Across shards, all 200 events were counted (sum of last counts).
  int64_t total = 0;
  std::map<int64_t, int64_t> best;  // Shard-less sink: take max per shard
                                    // unavailable; sum final counters via
                                    // emitted rows is ambiguous — instead
                                    // verify lag is zero everywhere.
  (void)best;
  for (const auto& report : pipeline.GetProcessingLag()) {
    EXPECT_EQ(report.lag_messages, 0u);
    ++total;
  }
  EXPECT_EQ(total, 4);
}

// ---------------------------------------------------------------------------
// Batch (backfill) equivalence.

TEST(BatchTest, MonoidStreamingAndBatchAgree) {
  const std::string dir = MakeTempDir("stylus_batch");
  SchemaPtr schema = EventSchema();

  // Build a day of data in Hive and the same data in Scribe.
  hive::Hive hive(dir + "/hive");
  ASSERT_TRUE(hive.CreateTable("events", schema).ok());
  SimClock clock(1);
  scribe::Scribe bus(&clock);
  scribe::CategoryConfig config;
  config.name = "in";
  ASSERT_TRUE(bus.CreateCategory(config).ok());

  TextRowCodec codec(schema);
  std::vector<Row> day;
  Rng rng(17);
  for (int i = 0; i < 300; ++i) {
    Row row(schema, {Value(int64_t{i}), Value(i),
                     Value("topic" + std::to_string(rng.Uniform(7)))});
    day.push_back(row);
    ASSERT_TRUE(bus.Write("in", 0, codec.Encode(row)).ok());
  }
  ASSERT_TRUE(hive.WritePartition("events", "2016-01-01", day).ok());
  ASSERT_TRUE(hive.LandPartition("events", "2016-01-01").ok());

  // Streaming run.
  zippydb::ClusterOptions zopt;
  zopt.simulate_latency = false;
  zopt.merge_operator = std::make_shared<MonoidMergeOperator>(
      std::shared_ptr<const MonoidAggregator>(MakeInt64SumAggregator()));
  auto cluster = zippydb::Cluster::Open(zopt, dir + "/z");
  ASSERT_TRUE(cluster.ok());
  NodeConfig node;
  node.name = "topics";
  node.input_category = "in";
  node.input_schema = schema;
  node.event_time_column = "event_time";
  node.monoid_factory = [] { return std::make_unique<TopicCountProcessor>(); };
  node.monoid_aggregator =
      std::shared_ptr<const MonoidAggregator>(MakeInt64SumAggregator());
  node.remote = cluster->get();
  auto shard = NodeShard::Create(node, &bus, &clock, 0);
  ASSERT_TRUE(shard.ok());
  while (true) {
    auto n = (*shard)->RunOnce();
    ASSERT_TRUE(n.ok());
    if (*n == 0) break;
  }

  // Batch run over Hive with the same processor code.
  auto agg = MakeInt64SumAggregator();
  hive::MapReduceCounters counters;
  auto batch = RunMonoidBatch(
      hive, "events", {"2016-01-01"},
      [] { return std::make_unique<TopicCountProcessor>(); }, *agg, schema,
      "event_time", &counters);
  ASSERT_TRUE(batch.ok()) << batch.status();

  // Same totals per topic.
  ASSERT_EQ(batch->size(), 7u);
  for (const auto& [topic, value] : *batch) {
    auto streaming = (*cluster)->Get("mono/topics/" + topic);
    ASSERT_TRUE(streaming.ok()) << topic;
    EXPECT_EQ(*streaming, value) << topic;
  }
  // Map-side combine shrank the shuffle to one record per topic.
  EXPECT_EQ(counters.shuffle_records, 7u);
  EXPECT_EQ(counters.map_input_rows, 300u);
  ASSERT_TRUE(RemoveAll(dir).ok());
}

TEST(BatchTest, StatelessBatchRunsMapperOverPartitions) {
  const std::string dir = MakeTempDir("stylus_batch2");
  SchemaPtr schema = EventSchema();
  hive::Hive hive(dir + "/hive");
  ASSERT_TRUE(hive.CreateTable("events", schema).ok());
  std::vector<Row> rows;
  for (int i = 0; i < 10; ++i) {
    rows.emplace_back(schema, std::vector<Value>{Value(int64_t{i}), Value(i),
                                                 Value("t")});
  }
  ASSERT_TRUE(hive.WritePartition("events", "2016-01-01", rows).ok());
  ASSERT_TRUE(hive.LandPartition("events", "2016-01-01").ok());
  auto output = RunStatelessBatch(
      hive, "events", {"2016-01-01"},
      [] { return std::make_unique<PassthroughProcessor>(); }, schema,
      "event_time");
  ASSERT_TRUE(output.ok());
  EXPECT_EQ(output->size(), 10u);
  ASSERT_TRUE(RemoveAll(dir).ok());
}

TEST(BatchTest, StatefulBatchGroupsAndReplaysInEventTimeOrder) {
  const std::string dir = MakeTempDir("stylus_batch3");
  SchemaPtr schema = EventSchema();
  hive::Hive hive(dir + "/hive");
  ASSERT_TRUE(hive.CreateTable("events", schema).ok());
  std::vector<Row> rows;
  // Deliberately out of event-time order.
  for (const int t : {5, 1, 3, 2, 4}) {
    rows.emplace_back(schema, std::vector<Value>{Value(int64_t{t}), Value(t),
                                                 Value("k")});
  }
  ASSERT_TRUE(hive.WritePartition("events", "2016-01-01", rows).ok());
  ASSERT_TRUE(hive.LandPartition("events", "2016-01-01").ok());

  auto output = RunStatefulBatch(
      hive, "events", {"2016-01-01"},
      [] { return std::make_unique<CounterProcessor>(); }, schema,
      "event_time",
      [](const Row& row) { return row.Get("topic").ToString(); });
  ASSERT_TRUE(output.ok());
  // One group ("k"), final OnCheckpoint emission reports 5 events.
  ASSERT_FALSE(output->empty());
  EXPECT_EQ(output->back().Get("count").AsInt64(), 5);
  ASSERT_TRUE(RemoveAll(dir).ok());
}

}  // namespace
}  // namespace fbstream::stylus
