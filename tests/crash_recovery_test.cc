// Process-crash recovery tests: the durable pipeline manifest, kill-mode
// fault sites, and the fork/kill/restart chaos harness.
//
// The harness is the supervisor of a real crash loop: it forks a child that
// builds (or Recover()s) a pipeline over persisted Scribe categories, arms a
// randomized kill site via FBSTREAM_KILL_SPEC, and lets the child run until
// either it drains or _exit(137) fires mid-write. The supervisor restarts it
// round after round, then differentially checks the surviving output against
// a golden no-crash run of the identical input:
//   exactly-once   — byte-identical output and state (Fig 7 "exact"),
//   at-least-once  — output is a superset (duplicates allowed, no loss),
//   at-most-once   — output is a subset (loss allowed, no duplicates).

#include <gtest/gtest.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdlib>
#include <iterator>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "common/fault.h"
#include "common/fs.h"
#include "common/rng.h"
#include "common/serde.h"
#include "common/shutdown.h"
#include "core/node.h"
#include "core/pipeline.h"
#include "core/recovery.h"
#include "core/sink.h"
#include "storage/hdfs/hdfs.h"
#include "storage/lsm/db.h"
#include "storage/zippydb/zippydb.h"

namespace fbstream::stylus {
namespace {

SchemaPtr EventSchema() {
  return Schema::Make({{"event_time", ValueType::kInt64},
                       {"id", ValueType::kInt64},
                       {"topic", ValueType::kString}});
}

// Counts events in its state and emits one row per event ("e" rows) plus a
// running count at each checkpoint ("c" rows). Per-event rows are what the
// differential checks compare — they are independent of where checkpoint
// boundaries land, so an exactly-once run is byte-identical to golden no
// matter how many times it was killed.
class TallyProcessor : public StatefulProcessor {
 public:
  void Process(const Event& event, std::vector<Row>* out) override {
    ++count_;
    out->push_back(Row(EventSchema(),
                       {Value(event.row.Get("event_time").CoerceInt64()),
                        Value(event.row.Get("id").CoerceInt64()),
                        Value(event.row.Get("topic").ToString())}));
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

// Transactional sink for exactly-once output into the shard's own local LSM
// (the checkpoint and the output rows commit in one WriteBatch, §4.3.1
// activity (c)). Keys are "out/<id>" so the supervisor can dump and diff
// them after the child is dead.
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

// ---------------------------------------------------------------------------
// Manifest serde.

ManifestNodeRecord SampleRecord(const std::string& name) {
  ManifestNodeRecord record;
  record.name = name;
  record.input_category = "in";
  record.num_shards = 2;
  record.state_semantics = StateSemantics::kExactlyOnce;
  record.output_semantics = OutputSemantics::kAtLeastOnce;
  record.backend = StateBackend::kLocal;
  record.state_dir = "/tmp/state/" + name;
  record.checkpoint_every_events = 7;
  record.checkpoint_every_bytes = 1024;
  record.backup_every_checkpoints = 3;
  record.max_pending_backups = 5;
  return record;
}

TEST(ManifestTest, RoundTrip) {
  PipelineManifest manifest;
  manifest.epoch = 42;
  manifest.nodes.push_back(SampleRecord("a"));
  manifest.nodes.push_back(SampleRecord("b"));
  manifest.nodes[1].state_semantics = StateSemantics::kAtMostOnce;
  manifest.nodes[1].output_semantics = OutputSemantics::kAtMostOnce;
  manifest.nodes[1].backend = StateBackend::kNone;

  auto decoded = DecodeManifest(EncodeManifest(manifest));
  ASSERT_TRUE(decoded.ok()) << decoded.status();
  EXPECT_EQ(decoded->epoch, 42u);
  ASSERT_EQ(decoded->nodes.size(), 2u);
  const ManifestNodeRecord& a = decoded->nodes[0];
  EXPECT_EQ(a.name, "a");
  EXPECT_EQ(a.input_category, "in");
  EXPECT_EQ(a.num_shards, 2);
  EXPECT_EQ(a.state_semantics, StateSemantics::kExactlyOnce);
  EXPECT_EQ(a.output_semantics, OutputSemantics::kAtLeastOnce);
  EXPECT_EQ(a.backend, StateBackend::kLocal);
  EXPECT_EQ(a.state_dir, "/tmp/state/a");
  EXPECT_EQ(a.checkpoint_every_events, 7u);
  EXPECT_EQ(a.checkpoint_every_bytes, 1024u);
  EXPECT_EQ(a.backup_every_checkpoints, 3);
  EXPECT_EQ(a.max_pending_backups, 5u);
  EXPECT_EQ(decoded->nodes[1].backend, StateBackend::kNone);
}

TEST(ManifestTest, SaveLoadThroughDisk) {
  const std::string dir = MakeTempDir("manifest");
  EXPECT_TRUE(LoadManifest(dir).status().IsNotFound());
  PipelineManifest manifest;
  manifest.epoch = 7;
  manifest.nodes.push_back(SampleRecord("n"));
  ASSERT_TRUE(SaveManifest(dir, manifest).ok());
  auto loaded = LoadManifest(dir);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  EXPECT_EQ(loaded->epoch, 7u);
  ASSERT_TRUE(RemoveAll(dir).ok());
}

TEST(ManifestTest, CorruptionIsDetected) {
  const std::string dir = MakeTempDir("manifest");
  PipelineManifest manifest;
  manifest.nodes.push_back(SampleRecord("n"));
  ASSERT_TRUE(SaveManifest(dir, manifest).ok());

  const std::string path = dir + "/" + kManifestFileName;
  auto data = ReadFileToString(path);
  ASSERT_TRUE(data.ok());
  // Flip one byte inside the body: the checksum must catch it.
  std::string corrupt = *data;
  corrupt[corrupt.size() / 2] ^= 0x40;
  ASSERT_TRUE(WriteFileAtomic(path, corrupt).ok());
  EXPECT_TRUE(LoadManifest(dir).status().code() == StatusCode::kCorruption);
  // Garbage that is not even a frame.
  ASSERT_TRUE(WriteFileAtomic(path, "not a manifest").ok());
  EXPECT_TRUE(LoadManifest(dir).status().code() == StatusCode::kCorruption);
  ASSERT_TRUE(RemoveAll(dir).ok());
}

TEST(ManifestTest, TornOffsetsSnapshotIsIgnored) {
  const std::string dir = MakeTempDir("offsets");
  EXPECT_TRUE(LoadOffsetsSnapshot(dir).empty());

  std::vector<ShardOffsetRecord> offsets = {{"n", 0, 17}, {"n", 1, 23}};
  ASSERT_TRUE(SaveOffsetsSnapshot(dir, offsets).ok());
  auto loaded = LoadOffsetsSnapshot(dir);
  ASSERT_EQ(loaded.size(), 2u);
  EXPECT_EQ(loaded[1].offset, 23u);

  // A torn write (truncated file) is advisory data gone bad: recovery must
  // shrug it off, not fail.
  const std::string path = dir + "/" + kOffsetsFileName;
  auto data = ReadFileToString(path);
  ASSERT_TRUE(data.ok());
  ASSERT_TRUE(WriteFileAtomic(path, data->substr(0, data->size() / 2)).ok());
  EXPECT_TRUE(LoadOffsetsSnapshot(dir).empty());
  ASSERT_TRUE(WriteFileAtomic(path, "garbage").ok());
  EXPECT_TRUE(LoadOffsetsSnapshot(dir).empty());
  ASSERT_TRUE(RemoveAll(dir).ok());
}

// ---------------------------------------------------------------------------
// Kill-mode fault sites.

TEST(KillSwitchTest, EnvParsing) {
  auto* faults = FaultRegistry::Global();
  ::unsetenv(FaultRegistry::kKillSpecEnvVar);
  faults->Reset();
  EXPECT_FALSE(faults->ArmKillFromEnvironment());
  ::setenv(FaultRegistry::kKillSpecEnvVar, "missing-hash", 1);
  EXPECT_FALSE(faults->ArmKillFromEnvironment());
  ::setenv(FaultRegistry::kKillSpecEnvVar, "site#notanumber", 1);
  EXPECT_FALSE(faults->ArmKillFromEnvironment());
  ::unsetenv(FaultRegistry::kKillSpecEnvVar);
  faults->Reset();
}

TEST(KillSwitchTest, ResetDisarmsKill) {
  auto* faults = FaultRegistry::Global();
  faults->ArmKillAt("kill.test.disarm", 0);
  faults->Reset();
  // If Reset failed to disarm, this Hit would _exit(137) and the whole test
  // binary would vanish — surviving it IS the assertion.
  EXPECT_TRUE(faults->Hit("kill.test.disarm").ok());
}

TEST(KillSwitchTest, ArmedChildDiesAtScheduledHit) {
  // hit index 1 = the second hit fires. The first child survives one hit and
  // exits 42; the second child hits twice and must die with the kill code.
  ::setenv(FaultRegistry::kKillSpecEnvVar, "kill.test.site#1", 1);
  for (const int hits : {1, 2}) {
    const pid_t pid = ::fork();
    ASSERT_GE(pid, 0);
    if (pid == 0) {
      auto* faults = FaultRegistry::Global();
      faults->Reset();
      if (!faults->ArmKillFromEnvironment()) ::_exit(99);
      for (int i = 0; i < hits; ++i) {
        (void)faults->Hit("kill.test.site");
      }
      ::_exit(42);
    }
    int status = 0;
    ASSERT_EQ(::waitpid(pid, &status, 0), pid);
    ASSERT_TRUE(WIFEXITED(status));
    EXPECT_EQ(WEXITSTATUS(status),
              hits == 1 ? 42 : FaultRegistry::kKillExitCode);
  }
  ::unsetenv(FaultRegistry::kKillSpecEnvVar);
}

// ---------------------------------------------------------------------------
// Fork/kill/restart chaos harness.

constexpr int kInputBuckets = 2;
constexpr Micros kChildClockStart = 1'000'000'000'000;  // After any write.

int CrashRounds() {
  const char* env = std::getenv("FBSTREAM_CRASH_ROUNDS");
  if (env == nullptr) return 25;
  const int n = std::atoi(env);
  return n > 0 ? n : 25;
}

scribe::CategoryConfig PersistedCategory(const std::string& name) {
  scribe::CategoryConfig config;
  config.name = name;
  config.num_buckets = kInputBuckets;
  config.persist_to_disk = true;
  config.fsync_appends = true;  // Acked input must survive the kill.
  return config;
}

// The driver a child process runs: rebuild the pipeline (Recover if a
// manifest exists, fresh deploy otherwise), drain everything visible, exit
// cleanly — unless the armed kill site fires first.
void RunDriverChild(const std::string& root, StateSemantics state,
                    OutputSemantics output) {
  auto* faults = FaultRegistry::Global();
  faults->Reset();
  (void)faults->ArmKillFromEnvironment();

  SimClock clock(kChildClockStart);
  scribe::Scribe scribe(&clock, root + "/scribe");
  if (!scribe.CreateCategory(PersistedCategory("in")).ok()) ::_exit(3);
  if (output != OutputSemantics::kExactlyOnce &&
      !scribe.CreateCategory(PersistedCategory("out")).ok()) {
    ::_exit(3);
  }
  hdfs::HdfsCluster hdfs(root + "/hdfs");

  auto base_config = [&](const ManifestNodeRecord&) -> StatusOr<NodeConfig> {
    NodeConfig config;
    config.name = "tally";
    config.input_category = "in";
    config.input_schema = EventSchema();
    config.event_time_column = "event_time";
    config.stateful_factory = [] { return std::make_unique<TallyProcessor>(); };
    config.state_semantics = state;
    config.output_semantics = output;
    config.checkpoint_every_events = 7;  // Several checkpoints per round.
    config.backend = StateBackend::kLocal;
    config.state_dir = root + "/state";
    config.hdfs = &hdfs;
    config.backup_every_checkpoints = 2;
    if (output == OutputSemantics::kExactlyOnce) {
      config.sink = std::make_shared<LsmOutputSink>();
    } else {
      config.sink = std::make_shared<ScribeSink>(
          &scribe, "out", EventSchema(), std::vector<std::string>{"id"});
    }
    return config;
  };

  // Continuous engine with commit overlap: kills land mid-overlap too (the
  // shard already processing batch N+1 while batch N's checkpoint commits),
  // which is exactly the window the §4.2 overlap must keep recoverable.
  Pipeline::Options options;
  options.commit_threads = 2;
  options.idle_sleep_micros = 100;
  Pipeline pipeline(&scribe, &clock, options);
  const std::string manifest_dir = root + "/manifest";
  if (FileExists(manifest_dir + "/" + kManifestFileName)) {
    const Status st = pipeline.Recover(manifest_dir, base_config);
    if (!st.ok()) ::_exit(4);
  } else {
    auto config = base_config(ManifestNodeRecord{});
    if (!config.ok() || !pipeline.AddNode(*config).ok()) ::_exit(5);
    if (!pipeline.EnableManifest(manifest_dir).ok()) ::_exit(6);
  }
  if (!pipeline.Start().ok()) ::_exit(7);
  auto drained = pipeline.WaitUntilQuiescent(/*timeout_ms=*/60'000);
  if (!drained.ok()) ::_exit(7);
  if (!pipeline.Stop().ok()) ::_exit(7);
  ::_exit(0);
}

class CrashHarness {
 public:
  CrashHarness(std::string root, StateSemantics state, OutputSemantics output)
      : root_(std::move(root)), state_(state), output_(output) {}

  // Supervisor-side append: a short-lived Scribe recovers the persisted
  // category from disk and extends it. Only runs while no child is alive, so
  // the on-disk segments have exactly one writer at a time.
  void AppendInput(int64_t from, int64_t to) {
    SimClock clock(1'000'000 + static_cast<Micros>(from));
    scribe::Scribe scribe(&clock, root_ + "/scribe");
    ASSERT_TRUE(scribe.CreateCategory(PersistedCategory("in")).ok());
    TextRowCodec codec(EventSchema());
    for (int64_t i = from; i < to; ++i) {
      Row row(EventSchema(), {Value(clock.NowMicros()), Value(i),
                              Value("t" + std::to_string(i % 3))});
      ASSERT_TRUE(
          scribe.Write("in", static_cast<int>(i % kInputBuckets),
                       codec.Encode(row))
              .ok());
    }
  }

  // Forks a driver child and returns its exit code (-1 on abnormal death).
  int RunChild() {
    const pid_t pid = ::fork();
    EXPECT_GE(pid, 0);
    if (pid == 0) {
      RunDriverChild(root_, state_, output_);  // Never returns.
    }
    int status = 0;
    EXPECT_EQ(::waitpid(pid, &status, 0), pid);
    return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
  }

  // Reads the "out" Scribe category back from disk: id -> emission count.
  std::map<int64_t, int> ReadScribeOutput() {
    std::map<int64_t, int> counts;
    SimClock clock(kChildClockStart * 2);
    scribe::Scribe scribe(&clock, root_ + "/scribe");
    EXPECT_TRUE(scribe.CreateCategory(PersistedCategory("out")).ok());
    TextRowCodec codec(EventSchema());
    for (int b = 0; b < kInputBuckets; ++b) {
      auto messages = scribe.Read("out", b, 0, 1u << 20);
      EXPECT_TRUE(messages.ok());
      for (const auto& m : *messages) {
        auto row = codec.Decode(m.payload);
        EXPECT_TRUE(row.ok());
        ++counts[row->Get("id").CoerceInt64()];
      }
    }
    return counts;
  }

  // Dumps one shard's LSM: "out/..." keys plus the checkpointed state.
  std::map<std::string, std::string> DumpShardDb(int bucket) {
    std::map<std::string, std::string> out;
    auto db = lsm::Db::Open(lsm::DbOptions{},
                            root_ + "/state/tally/shard-" +
                                std::to_string(bucket));
    EXPECT_TRUE(db.ok()) << db.status();
    if (!db.ok()) return out;
    auto it = (*db)->NewIterator();
    for (it.SeekToFirst(); it.Valid(); it.Next()) {
      out[it.key()] = it.value();
    }
    return out;
  }

  const std::string& root() const { return root_; }

 private:
  std::string root_;
  StateSemantics state_;
  OutputSemantics output_;
};

// Kill sites a driver child actually reaches. Sites that happen not to fire
// in a given round (e.g. no flush was due) just produce a clean exit — the
// loop only counts rounds that really died.
const char* const kKillSites[] = {
    "scribe.segment.append",  "lsm.wal.append",          "lsm.wal.sync",
    "lsm.flush",              "lsm.compaction",          "lsm.manifest.append",
    "lsm.manifest.sync",      "hdfs.fsimage.write",      "hdfs.block.write",
    "checkpoint.write.state", "checkpoint.write.offset",
};

struct ChaosResult {
  int kill_rounds = 0;
  int total_forks = 0;
  int64_t events = 0;
};

// Runs the full chaos loop for one semantics mode and leaves the harness
// root drained; `golden` receives the identical input and one clean run.
ChaosResult RunChaosLoop(CrashHarness* harness, CrashHarness* golden,
                         uint64_t seed, bool wipe_shard_dirs) {
  ChaosResult result;
  const int target = CrashRounds();
  Rng rng(seed);
  int64_t next_id = 0;

  harness->AppendInput(next_id, next_id + 40);
  next_id += 40;

  while (result.kill_rounds < target && result.total_forks < 20 * target) {
    ++result.total_forks;
    harness->AppendInput(next_id, next_id + 10);
    next_id += 10;

    const char* site = kKillSites[rng.Uniform(std::size(kKillSites))];
    const std::string spec =
        std::string(site) + "#" + std::to_string(rng.Uniform(12));
    ::setenv(FaultRegistry::kKillSpecEnvVar, spec.c_str(), 1);

    // Every few kill rounds, simulate machine loss for shard 0: wipe its
    // local directory so the child must restore from the HDFS backup
    // (Fig 10) before resuming.
    if (wipe_shard_dirs && result.kill_rounds > 0 &&
        result.kill_rounds % 5 == 0 && rng.Bernoulli(0.5)) {
      EXPECT_TRUE(RemoveAll(harness->root() + "/state/tally/shard-0").ok());
    }

    const int code = harness->RunChild();
    if (code == FaultRegistry::kKillExitCode) {
      ++result.kill_rounds;
    } else {
      EXPECT_EQ(code, 0) << "driver child failed (spec " << spec << ")";
      if (code != 0) break;
    }
  }
  ::unsetenv(FaultRegistry::kKillSpecEnvVar);

  // Final clean run drains whatever the last kill left behind.
  EXPECT_EQ(harness->RunChild(), 0);

  // Golden: identical input, one uninterrupted run.
  golden->AppendInput(0, next_id);
  EXPECT_EQ(golden->RunChild(), 0);

  result.events = next_id;
  return result;
}

TEST(CrashHarnessTest, ExactlyOnceSurvivesKillLoopByteIdentical) {
  const std::string dir = MakeTempDir("chaos_eo");
  CrashHarness harness(dir + "/crash", StateSemantics::kExactlyOnce,
                       OutputSemantics::kExactlyOnce);
  CrashHarness golden(dir + "/golden", StateSemantics::kExactlyOnce,
                      OutputSemantics::kExactlyOnce);
  const ChaosResult result =
      RunChaosLoop(&harness, &golden, /*seed=*/101, /*wipe_shard_dirs=*/true);
  EXPECT_GE(result.kill_rounds, CrashRounds());

  int64_t total_out = 0;
  for (int b = 0; b < kInputBuckets; ++b) {
    const auto crash_db = harness.DumpShardDb(b);
    const auto golden_db = golden.DumpShardDb(b);
    // Byte-identical: same keys, same values — output AND checkpointed
    // state (count + offset) all match the never-killed run.
    EXPECT_EQ(crash_db, golden_db) << "shard " << b;
    for (const auto& [key, value] : crash_db) {
      if (key.rfind("out/", 0) == 0) ++total_out;
    }
  }
  EXPECT_EQ(total_out, result.events);
  ASSERT_TRUE(RemoveAll(dir).ok());
}

TEST(CrashHarnessTest, AtLeastOnceNeverLosesOutput) {
  const std::string dir = MakeTempDir("chaos_alo");
  CrashHarness harness(dir + "/crash", StateSemantics::kAtLeastOnce,
                       OutputSemantics::kAtLeastOnce);
  CrashHarness golden(dir + "/golden", StateSemantics::kAtLeastOnce,
                      OutputSemantics::kAtLeastOnce);
  const ChaosResult result =
      RunChaosLoop(&harness, &golden, /*seed=*/202, /*wipe_shard_dirs=*/false);
  EXPECT_GE(result.kill_rounds, CrashRounds());

  const auto crash = harness.ReadScribeOutput();
  const auto golden_out = golden.ReadScribeOutput();
  EXPECT_EQ(static_cast<int64_t>(golden_out.size()), result.events);
  // Superset: every golden emission survives (possibly duplicated); the
  // crash run invents no ids of its own.
  for (const auto& [id, count] : golden_out) {
    const auto it = crash.find(id);
    ASSERT_NE(it, crash.end()) << "lost id " << id;
    EXPECT_GE(it->second, count);
  }
  EXPECT_EQ(crash.size(), golden_out.size());
  ASSERT_TRUE(RemoveAll(dir).ok());
}

TEST(CrashHarnessTest, AtMostOnceNeverDuplicatesOutput) {
  const std::string dir = MakeTempDir("chaos_amo");
  CrashHarness harness(dir + "/crash", StateSemantics::kAtMostOnce,
                       OutputSemantics::kAtMostOnce);
  CrashHarness golden(dir + "/golden", StateSemantics::kAtMostOnce,
                      OutputSemantics::kAtMostOnce);
  const ChaosResult result =
      RunChaosLoop(&harness, &golden, /*seed=*/303, /*wipe_shard_dirs=*/false);
  EXPECT_GE(result.kill_rounds, CrashRounds());

  const auto crash = harness.ReadScribeOutput();
  const auto golden_out = golden.ReadScribeOutput();
  EXPECT_EQ(static_cast<int64_t>(golden_out.size()), result.events);
  // Subset: ids may be lost across kills but never emitted twice.
  for (const auto& [id, count] : crash) {
    EXPECT_EQ(count, 1) << "duplicated id " << id;
    EXPECT_TRUE(golden_out.count(id) > 0) << "unknown id " << id;
  }
  EXPECT_LE(crash.size(), golden_out.size());
  ASSERT_TRUE(RemoveAll(dir).ok());
}

// ---------------------------------------------------------------------------
// End-to-end semantics matrix: every supported (state, output) pair crashed
// at every FailurePoint must land on its Fig 7/8 outcome.

struct MatrixCase {
  StateSemantics state;
  OutputSemantics output;
};

TEST(SemanticsMatrixTest, AllSupportedPairsAtEveryFailurePoint) {
  const MatrixCase cases[] = {
      {StateSemantics::kAtLeastOnce, OutputSemantics::kAtLeastOnce},
      {StateSemantics::kExactlyOnce, OutputSemantics::kAtLeastOnce},
      {StateSemantics::kAtMostOnce, OutputSemantics::kAtMostOnce},
      {StateSemantics::kExactlyOnce, OutputSemantics::kAtMostOnce},
      {StateSemantics::kExactlyOnce, OutputSemantics::kExactlyOnce},
  };
  const FailurePoint points[] = {FailurePoint::kAfterProcessing,
                                 FailurePoint::kBetweenCheckpointWrites,
                                 FailurePoint::kAfterCheckpoint};
  constexpr int kEvents = 100;

  for (const MatrixCase& c : cases) {
    ASSERT_TRUE(IsSupportedCombination(c.state, c.output));
    for (const FailurePoint point : points) {
      SCOPED_TRACE(std::string(ToString(c.state)) + "/" + ToString(c.output) +
                   "/point-" + std::to_string(static_cast<int>(point)));
      const std::string dir = MakeTempDir("matrix");
      SimClock clock(1'000'000);
      scribe::Scribe scribe(&clock);
      scribe::CategoryConfig in;
      in.name = "in";
      ASSERT_TRUE(scribe.CreateCategory(in).ok());

      std::unique_ptr<zippydb::Cluster> cluster;
      auto sink = std::make_shared<CollectingSink>();

      NodeConfig config;
      config.name = "tally";
      config.input_category = "in";
      config.input_schema = EventSchema();
      config.event_time_column = "event_time";
      config.stateful_factory = [] {
        return std::make_unique<TallyProcessor>();
      };
      config.state_semantics = c.state;
      config.output_semantics = c.output;
      config.checkpoint_every_events = 10;
      config.backend = StateBackend::kLocal;
      config.state_dir = dir + "/state";
      config.sink = sink;
      if (c.output == OutputSemantics::kExactlyOnce) {
        zippydb::ClusterOptions zopt;
        zopt.simulate_latency = false;
        auto opened = zippydb::Cluster::Open(zopt, dir + "/z");
        ASSERT_TRUE(opened.ok());
        cluster = std::move(*opened);
        config.backend = StateBackend::kRemote;
        config.remote = cluster.get();
        config.sink = std::make_shared<ZippyDbSink>(
            cluster.get(), "out", std::vector<std::string>{"id"},
            std::vector<std::string>{"topic"});
      }

      auto shard = NodeShard::Create(config, &scribe, &clock, 0);
      ASSERT_TRUE(shard.ok()) << shard.status();
      int fires = 0;
      (*shard)->SetFailureInjector([&fires, point](FailurePoint p) {
        return p == point && ++fires == 3;
      });

      TextRowCodec codec(EventSchema());
      for (int i = 0; i < kEvents; ++i) {
        Row row(EventSchema(), {Value(clock.NowMicros()), Value(int64_t{i}),
                                Value("t" + std::to_string(i % 3))});
        ASSERT_TRUE(scribe.Write("in", 0, codec.Encode(row)).ok());
      }
      for (int round = 0; round < 1000; ++round) {
        if (!(*shard)->alive()) {
          ASSERT_TRUE((*shard)->Recover().ok());
        }
        auto ran = (*shard)->RunOnce();
        if (!ran.ok()) {
          ASSERT_TRUE(ran.status().IsAborted()) << ran.status();
          continue;
        }
        if (ran.value() == 0) break;
      }

      // Output-side outcome.
      if (c.output == OutputSemantics::kExactlyOnce) {
        auto rows = cluster->ScanPrefix("out/");
        ASSERT_TRUE(rows.ok());
        EXPECT_EQ(rows->size(), static_cast<size_t>(kEvents));
      } else {
        std::map<int64_t, int> counts;
        for (const Row& row : sink->rows()) {
          ++counts[row.Get("id").CoerceInt64()];
        }
        int64_t total = 0;
        for (const auto& [id, n] : counts) total += n;
        if (c.output == OutputSemantics::kAtLeastOnce) {
          EXPECT_EQ(counts.size(), static_cast<size_t>(kEvents));
          EXPECT_GE(total, kEvents);
        } else {
          EXPECT_LE(counts.size(), static_cast<size_t>(kEvents));
          for (const auto& [id, n] : counts) EXPECT_EQ(n, 1);
        }
      }
      ASSERT_TRUE(RemoveAll(dir).ok());
    }
  }
}

// ---------------------------------------------------------------------------
// Manifest-driven in-process recovery (deterministic complement to the
// chaos loop) and graceful shutdown.

class RecoveryTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = MakeTempDir("recovery");
    clock_ = std::make_unique<SimClock>(1'000'000);
    scribe_ = std::make_unique<scribe::Scribe>(clock_.get());
    scribe::CategoryConfig in;
    in.name = "in";
    in.num_buckets = 2;
    ASSERT_TRUE(scribe_->CreateCategory(in).ok());
    hdfs_ = std::make_unique<hdfs::HdfsCluster>(dir_ + "/hdfs");
  }
  void TearDown() override { ASSERT_TRUE(RemoveAll(dir_).ok()); }

  NodeConfig TallyConfig(StateSemantics state, OutputSemantics output,
                         std::shared_ptr<OutputSink> sink = nullptr) {
    NodeConfig config;
    config.name = "tally";
    config.input_category = "in";
    config.input_schema = EventSchema();
    config.event_time_column = "event_time";
    config.stateful_factory = [] { return std::make_unique<TallyProcessor>(); };
    config.state_semantics = state;
    config.output_semantics = output;
    config.checkpoint_every_events = 8;
    config.backend = StateBackend::kLocal;
    config.state_dir = dir_ + "/state";
    config.hdfs = hdfs_.get();
    config.backup_every_checkpoints = 1;
    config.sink = sink != nullptr ? std::move(sink)
                                  : std::make_shared<LsmOutputSink>();
    return config;
  }

  void WriteEvents(int64_t from, int64_t to) {
    TextRowCodec codec(EventSchema());
    for (int64_t i = from; i < to; ++i) {
      Row row(EventSchema(), {Value(clock_->NowMicros()), Value(i),
                              Value("t" + std::to_string(i % 3))});
      ASSERT_TRUE(
          scribe_->Write("in", static_cast<int>(i % 2), codec.Encode(row))
              .ok());
    }
  }

  // The count checkpointed in a shard's local DB ("__state__").
  int64_t ShardStateCount(int bucket) {
    auto db = lsm::Db::Open(
        lsm::DbOptions{},
        dir_ + "/state/tally/shard-" + std::to_string(bucket));
    EXPECT_TRUE(db.ok()) << db.status();
    if (!db.ok()) return -1;
    auto state = (*db)->Get("__state__");
    EXPECT_TRUE(state.ok()) << state.status();
    return state.ok() ? strtoll(state->c_str(), nullptr, 10) : -1;
  }

  Pipeline::NodeConfigResolver Resolver(
      StateSemantics state, OutputSemantics output,
      std::shared_ptr<OutputSink> sink = nullptr) {
    return [this, state, output, sink](const ManifestNodeRecord&) {
      return StatusOr<NodeConfig>(TallyConfig(state, output, sink));
    };
  }

  std::string dir_;
  std::unique_ptr<SimClock> clock_;
  std::unique_ptr<scribe::Scribe> scribe_;
  std::unique_ptr<hdfs::HdfsCluster> hdfs_;
};

TEST_F(RecoveryTest, RecoverContinuesExactlyOnceAcrossProcessDeath) {
  const std::string manifest = dir_ + "/manifest";
  {
    Pipeline pipeline(scribe_.get(), clock_.get());
    ASSERT_TRUE(pipeline
                    .AddNode(TallyConfig(StateSemantics::kExactlyOnce,
                                         OutputSemantics::kExactlyOnce))
                    .ok());
    ASSERT_TRUE(pipeline.EnableManifest(manifest).ok());
    WriteEvents(0, 60);
    auto drained = pipeline.RunUntilQuiescent();
    ASSERT_TRUE(drained.ok()) << drained.status();
    EXPECT_EQ(drained.value(), 60u);
  }  // Pipeline destroyed = old process died; DBs closed.

  WriteEvents(60, 100);
  auto revived = std::make_unique<Pipeline>(scribe_.get(), clock_.get());
  ASSERT_TRUE(
      revived
          ->Recover(manifest, Resolver(StateSemantics::kExactlyOnce,
                                       OutputSemantics::kExactlyOnce))
          .ok());
  auto drained = revived->RunUntilQuiescent();
  ASSERT_TRUE(drained.ok()) << drained.status();
  EXPECT_EQ(drained.value(), 40u);

  // Each shard resumed from a real checkpointed offset (local restart).
  for (NodeShard* shard : revived->Shards("tally")) {
    EXPECT_TRUE(shard->had_checkpoint_offset());
  }
  // Close the shards' LSM handles before inspecting the DBs directly.
  revived.reset();
  int64_t total = 0;
  for (int b = 0; b < 2; ++b) total += ShardStateCount(b);
  EXPECT_EQ(total, 100);
}

TEST_F(RecoveryTest, NewMachineRestoresShardFromHdfsBackup) {
  const std::string manifest = dir_ + "/manifest";
  {
    Pipeline pipeline(scribe_.get(), clock_.get());
    ASSERT_TRUE(pipeline
                    .AddNode(TallyConfig(StateSemantics::kExactlyOnce,
                                         OutputSemantics::kExactlyOnce))
                    .ok());
    ASSERT_TRUE(pipeline.EnableManifest(manifest).ok());
    WriteEvents(0, 80);
    ASSERT_TRUE(pipeline.RunUntilQuiescent().ok());
  }

  // "New machine": shard 0's local directory is gone.
  ASSERT_TRUE(RemoveAll(dir_ + "/state/tally/shard-0").ok());

  auto revived = std::make_unique<Pipeline>(scribe_.get(), clock_.get());
  ASSERT_TRUE(
      revived
          ->Recover(manifest, Resolver(StateSemantics::kExactlyOnce,
                                       OutputSemantics::kExactlyOnce))
          .ok());
  ASSERT_TRUE(revived->RunUntilQuiescent().ok());
  revived.reset();
  // Backup restore rewinds state and offset together, so replay re-counts
  // exactly — both shards land on their precise share.
  EXPECT_EQ(ShardStateCount(0) + ShardStateCount(1), 80);
}

TEST_F(RecoveryTest, InterruptedHdfsRestoreIsRerunNotResumed) {
  const std::string manifest = dir_ + "/manifest";
  {
    Pipeline pipeline(scribe_.get(), clock_.get());
    ASSERT_TRUE(pipeline
                    .AddNode(TallyConfig(StateSemantics::kExactlyOnce,
                                         OutputSemantics::kExactlyOnce))
                    .ok());
    ASSERT_TRUE(pipeline.EnableManifest(manifest).ok());
    WriteEvents(0, 80);
    ASSERT_TRUE(pipeline.RunUntilQuiescent().ok());
  }

  // Simulate a worker killed mid-restore: the RESTORE_PENDING marker and
  // the MANIFEST landed, but the files the MANIFEST references did not
  // (RestoreBackup writes backup files one by one). Resuming such a
  // directory would either crash-loop (Open keeps failing while the
  // MANIFEST's presence blocks a fresh restore) or silently lose state;
  // recovery must wipe it and re-run the restore from the backup.
  const std::string shard_dir = dir_ + "/state/tally/shard-0";
  ASSERT_TRUE(RemoveAll(shard_dir).ok());
  ASSERT_TRUE(CreateDirs(shard_dir).ok());
  ASSERT_TRUE(WriteFileDurable(shard_dir + "/RESTORE_PENDING", "1").ok());
  auto backup_manifest = hdfs_->ReadFile("backup/tally/shard-0/MANIFEST");
  ASSERT_TRUE(backup_manifest.ok()) << backup_manifest.status();
  ASSERT_TRUE(
      WriteFileDurable(shard_dir + "/MANIFEST", *backup_manifest).ok());

  auto revived = std::make_unique<Pipeline>(scribe_.get(), clock_.get());
  ASSERT_TRUE(revived
                  ->Recover(manifest, Resolver(StateSemantics::kExactlyOnce,
                                               OutputSemantics::kExactlyOnce))
                  .ok());
  ASSERT_TRUE(revived->RunUntilQuiescent().ok());
  revived.reset();
  EXPECT_EQ(ShardStateCount(0) + ShardStateCount(1), 80);
  // Reconciliation completed, so the marker is gone.
  EXPECT_FALSE(FileExists(shard_dir + "/RESTORE_PENDING"));
}

TEST_F(RecoveryTest, RecoverPreconditions) {
  Pipeline pipeline(scribe_.get(), clock_.get());
  // No manifest on disk.
  EXPECT_TRUE(pipeline
                  .Recover(dir_ + "/nope",
                           Resolver(StateSemantics::kExactlyOnce,
                                    OutputSemantics::kExactlyOnce))
                  .IsNotFound());
  // Non-empty pipeline.
  ASSERT_TRUE(pipeline
                  .AddNode(TallyConfig(StateSemantics::kExactlyOnce,
                                       OutputSemantics::kExactlyOnce))
                  .ok());
  ASSERT_TRUE(pipeline.EnableManifest(dir_ + "/manifest").ok());
  EXPECT_TRUE(pipeline
                  .Recover(dir_ + "/manifest",
                           Resolver(StateSemantics::kExactlyOnce,
                                    OutputSemantics::kExactlyOnce))
                  .code() == StatusCode::kFailedPrecondition);
}

TEST_F(RecoveryTest, TornOffsetsFileDoesNotBlockRecovery) {
  const std::string manifest = dir_ + "/manifest";
  {
    Pipeline pipeline(scribe_.get(), clock_.get());
    ASSERT_TRUE(pipeline
                    .AddNode(TallyConfig(StateSemantics::kAtMostOnce,
                                         OutputSemantics::kAtMostOnce,
                                         std::make_shared<CollectingSink>()))
                    .ok());
    ASSERT_TRUE(pipeline.EnableManifest(manifest).ok());
    WriteEvents(0, 40);
    ASSERT_TRUE(pipeline.RunUntilQuiescent().ok());
  }
  // Tear the advisory offsets snapshot mid-file.
  const std::string path = manifest + "/" + kOffsetsFileName;
  auto data = ReadFileToString(path);
  ASSERT_TRUE(data.ok());
  ASSERT_TRUE(WriteFileAtomic(path, data->substr(0, data->size() / 3)).ok());

  Pipeline revived(scribe_.get(), clock_.get());
  const Status st = revived.Recover(
      manifest, Resolver(StateSemantics::kAtMostOnce,
                         OutputSemantics::kAtMostOnce,
                         std::make_shared<CollectingSink>()));
  EXPECT_TRUE(st.ok()) << st;
  auto drained = revived.RunUntilQuiescent();
  EXPECT_TRUE(drained.ok()) << drained.status();
}

TEST(GracefulShutdownTest, SigtermDrainsAtCheckpointBoundary) {
  InstallShutdownSignalHandlers();
  ResetShutdown();

  const std::string dir = MakeTempDir("shutdown");
  SimClock clock(1'000'000);
  scribe::Scribe scribe(&clock);
  scribe::CategoryConfig in;
  in.name = "in";
  in.num_buckets = 4;
  ASSERT_TRUE(scribe.CreateCategory(in).ok());
  auto sink = std::make_shared<CollectingSink>();

  NodeConfig config;
  config.name = "tally";
  config.input_category = "in";
  config.input_schema = EventSchema();
  config.event_time_column = "event_time";
  config.stateful_factory = [] { return std::make_unique<TallyProcessor>(); };
  config.state_semantics = StateSemantics::kExactlyOnce;
  config.output_semantics = OutputSemantics::kAtLeastOnce;
  config.checkpoint_every_events = 5;
  config.backend = StateBackend::kLocal;
  config.state_dir = dir + "/state";
  config.sink = sink;

  Pipeline::Options options;
  options.num_threads = 4;  // Worker pool must drain too.
  Pipeline pipeline(&scribe, &clock, options);
  ASSERT_TRUE(pipeline.AddNode(config).ok());

  TextRowCodec codec(EventSchema());
  for (int i = 0; i < 200; ++i) {
    Row row(EventSchema(), {Value(clock.NowMicros()), Value(int64_t{i}),
                            Value("t0")});
    ASSERT_TRUE(scribe.Write("in", i % 4, codec.Encode(row)).ok());
  }

  auto first = pipeline.RunRound();
  ASSERT_TRUE(first.ok());
  ASSERT_GT(first.value(), 0u);

  // Deliver a real SIGTERM: the handler flips the flag, the next drive call
  // returns without starting new work, and nothing is torn. The interrupted
  // drain must be distinguishable from quiescence — input is still queued,
  // so an OK "drained" return here would be a lie (the old behavior).
  ASSERT_EQ(::raise(SIGTERM), 0);
  EXPECT_TRUE(ShutdownRequested());
  auto stopped = pipeline.RunUntilQuiescent();
  ASSERT_FALSE(stopped.ok());
  EXPECT_TRUE(stopped.status().IsCancelled()) << stopped.status();
  // The message carries the drained-so-far count (no new batches started).
  EXPECT_NE(stopped.status().message().find("draining 0 events"),
            std::string::npos)
      << stopped.status();

  // A restarted drive loop (flag cleared) finishes the backlog; every event
  // lands exactly once despite the interruption.
  ResetShutdown();
  auto drained = pipeline.RunUntilQuiescent();
  ASSERT_TRUE(drained.ok()) << drained.status();
  std::set<int64_t> ids;
  for (const Row& row : sink->rows()) ids.insert(row.Get("id").CoerceInt64());
  EXPECT_EQ(ids.size(), 200u);
  ASSERT_TRUE(RemoveAll(dir).ok());
}

}  // namespace
}  // namespace fbstream::stylus
