// Distributed chaos harness (the tentpole's acceptance test): a real
// multi-process topology — one scribed broker, one supervisord, two noded
// workers — driven from this process, which is the only input writer and
// the only chaos agent. Rounds of whole-worker SIGKILL, supervisor
// SIGKILL + re-exec (taking every worker down via PDEATHSIG, occasionally
// wiping a node's local state so recovery must restore from the HDFS
// backup, Fig 10), and timed worker<->broker partitions injected through
// the broker's admin RPC. After the storm the cluster must drain, and the
// surviving output must match a golden single-process replay of the
// identical input:
//
//   exactly-once   — every node shard's LSM byte-identical to golden,
//   at-least-once  — terminal "out" a duplicating superset of golden,
//   at-most-once   — terminal "out" a never-duplicating subset of golden.
//
// Round counts come from FBSTREAM_DIST_KILL_ROUNDS (default 25) and
// FBSTREAM_DIST_PARTITION_ROUNDS (default 10) — the defaults are the full
// acceptance soak; scripts/dist_smoke.sh runs a reduced-round pass.

#include <gtest/gtest.h>
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <cstdlib>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "cluster/heartbeat.h"
#include "cluster/supervisor.h"
#include "cluster/workload.h"
#include "common/clock.h"
#include "common/fs.h"
#include "common/serde.h"
#include "core/pipeline.h"
#include "core/recovery.h"
#include "scribe/remote.h"
#include "scribe/scribe.h"

#ifndef FBSTREAM_SCRIBED_BINARY
#error "FBSTREAM_SCRIBED_BINARY must point at the scribed executable"
#endif
#ifndef FBSTREAM_NODED_BINARY
#error "FBSTREAM_NODED_BINARY must point at the noded executable"
#endif
#ifndef FBSTREAM_SUPERVISORD_BINARY
#error "FBSTREAM_SUPERVISORD_BINARY must point at the supervisord executable"
#endif

namespace fbstream::cluster {
namespace {

using std::chrono::milliseconds;
using std::chrono::steady_clock;

int EnvRounds(const char* name, int fallback) {
  const char* value = ::getenv(name);
  return value != nullptr ? std::atoi(value) : fallback;
}
int KillRounds() { return EnvRounds("FBSTREAM_DIST_KILL_ROUNDS", 25); }
int PartitionRounds() {
  return EnvRounds("FBSTREAM_DIST_PARTITION_ROUNDS", 10);
}

pid_t Spawn(const std::string& binary, const std::vector<std::string>& args) {
  const pid_t pid = ::fork();
  if (pid == 0) {
    std::vector<std::string> owned = args;
    std::vector<char*> argv;
    std::string path = binary;
    argv.push_back(path.data());
    for (auto& a : owned) argv.push_back(a.data());
    argv.push_back(nullptr);
    ::execv(path.c_str(), argv.data());
    ::_exit(96);
  }
  return pid;
}

// Reads everything currently in one bucket of a category.
std::vector<scribe::Message> ReadAll(scribe::Scribe* bus,
                                     const std::string& category, int bucket) {
  std::vector<scribe::Message> all;
  uint64_t from = 0;
  for (;;) {
    auto chunk = bus->Read(category, bucket, from, 1024);
    if (!chunk.ok() || chunk->empty()) break;
    from = chunk->back().sequence + 1;
    all.insert(all.end(), chunk->begin(), chunk->end());
  }
  return all;
}

// One live cluster: broker + supervisor + two workers, plus the driver-side
// RemoteScribe used for input, partitions, and liveness checks.
class DistCluster {
 public:
  DistCluster(std::string root, WorkloadMode mode)
      : root_(std::move(root)), mode_(mode) {}

  ~DistCluster() {
    // Safety net for failed assertions mid-test: never leak processes.
    if (supervisord_pid_ > 0) {
      ::kill(supervisord_pid_, SIGKILL);
      ::waitpid(supervisord_pid_, nullptr, 0);
    }
    if (scribed_pid_ > 0) {
      ::kill(scribed_pid_, SIGKILL);
      ::waitpid(scribed_pid_, nullptr, 0);
    }
  }

  bool Start() {
    EXPECT_TRUE(CreateDirs(root_ + "/status").ok());
    scribed_pid_ = Spawn(FBSTREAM_SCRIBED_BINARY,
                         {"--root", root_ + "/bus", "--port-file",
                          root_ + "/scribed.port"});
    const steady_clock::time_point deadline =
        steady_clock::now() + milliseconds(10'000);
    while (port_ == 0) {
      if (steady_clock::now() > deadline) {
        ADD_FAILURE() << "scribed never published its port";
        return false;
      }
      auto text = ReadFileToString(root_ + "/scribed.port");
      if (text.ok()) port_ = std::atoi(text->c_str());
      if (port_ == 0) std::this_thread::sleep_for(milliseconds(20));
    }
    driver_ = std::make_unique<scribe::RemoteScribe>(
        SystemClock::Get(), "127.0.0.1", port_, "driver");
    while (!driver_->Ping().ok()) {
      if (steady_clock::now() > deadline) {
        ADD_FAILURE() << "broker never answered the driver";
        return false;
      }
      std::this_thread::sleep_for(milliseconds(20));
    }

    // Deploy: categories on the broker, manifest on shared disk. The
    // manifest is the §4.3 durable topology every worker recovers from.
    EXPECT_TRUE(EnsureWorkloadCategories(driver_.get(), mode_).ok());
    EXPECT_TRUE(stylus::SaveManifest(root_ + "/manifest",
                                     BuildWorkloadManifest(mode_, root_))
                    .ok());
    SpawnSupervisor();
    return WaitAllBeating();
  }

  void SpawnSupervisor() {
    supervisord_pid_ = Spawn(
        FBSTREAM_SUPERVISORD_BINARY,
        {"--broker-port", std::to_string(port_), "--manifest-dir",
         root_ + "/manifest", "--status-dir", root_ + "/status", "--root",
         root_, "--mode", WorkloadModeName(mode_), "--worker-binary",
         FBSTREAM_NODED_BINARY, "--workers", "alpha=alpha,beta=beta",
         "--heartbeat-interval-micros", "20000", "--heartbeat-timeout-micros",
         "400000"});
  }

  std::vector<Supervisor::WorkerStatus> Status() const {
    auto text = ReadFileToString(root_ + "/status/CLUSTER");
    return text.ok() ? Supervisor::ParseStatusFile(*text)
                     : std::vector<Supervisor::WorkerStatus>();
  }

  bool WaitAllBeating(int timeout_ms = 30'000) {
    const steady_clock::time_point deadline =
        steady_clock::now() + milliseconds(timeout_ms);
    while (steady_clock::now() < deadline) {
      const auto rows = Status();
      bool ready = rows.size() == 2;
      for (const auto& r : rows) {
        ready = ready && r.alive && r.seq > 0 &&
                r.state == static_cast<int>(WorkerState::kRunning);
      }
      if (ready) return true;
      std::this_thread::sleep_for(milliseconds(25));
    }
    ADD_FAILURE() << "cluster never became fully live";
    return false;
  }

  void AppendInput(int64_t from, int64_t to) {
    ASSERT_TRUE(AppendWorkloadInput(driver_.get(), from, to).ok());
  }

  // SIGKILLs one worker by name and waits for its successor to beat.
  void KillWorker(const std::string& name) {
    int64_t victim = -1;
    for (const auto& r : Status()) {
      if (r.name == name && r.alive && r.pid > 0) victim = r.pid;
    }
    if (victim <= 0) return;  // Already down this round; still chaos.
    ::kill(static_cast<pid_t>(victim), SIGKILL);
    const steady_clock::time_point deadline =
        steady_clock::now() + milliseconds(30'000);
    while (steady_clock::now() < deadline) {
      for (const auto& r : Status()) {
        if (r.name == name && r.alive && r.pid != victim && r.seq > 0) return;
      }
      std::this_thread::sleep_for(milliseconds(25));
    }
    ADD_FAILURE() << "worker " << name << " never came back";
  }

  // SIGKILLs the supervisor (PDEATHSIG takes every worker down with it —
  // the whole "machine" dies) and re-execs it. With `wipe_node_state`, one
  // node's local LSM directory is deleted while everything is down: the
  // respawned worker must restore that state from its HDFS backup.
  void KillSupervisorAndReexec(bool wipe_node_state,
                               const std::string& wipe_node) {
    ::kill(supervisord_pid_, SIGKILL);
    ::waitpid(supervisord_pid_, nullptr, 0);
    supervisord_pid_ = -1;
    // PDEATHSIG delivery is immediate, but give the kernel a beat to tear
    // the workers down before declaring the machine dead.
    const steady_clock::time_point deadline =
        steady_clock::now() + milliseconds(5'000);
    for (const auto& r : Status()) {
      if (r.pid <= 0) continue;
      while (::kill(static_cast<pid_t>(r.pid), 0) == 0 &&
             steady_clock::now() < deadline) {
        std::this_thread::sleep_for(milliseconds(5));
      }
    }
    if (wipe_node_state) {
      EXPECT_TRUE(RemoveAll(root_ + "/state/" + wipe_node).ok());
    }
    SpawnSupervisor();
    WaitAllBeating();
  }

  // Cuts workers off from the broker for `duration`; the supervisor and
  // driver connections stay healthy. Waits out the partition plus the
  // detector's reaction (timeout, fence, respawn) before returning.
  void PartitionWorkers(const std::string& prefix, Micros duration,
                        scribe::PartitionMode mode) {
    ASSERT_TRUE(driver_->InjectPartition(prefix, duration, mode).ok());
    std::this_thread::sleep_for(
        milliseconds(duration / 1000 + 200));
    WaitAllBeating();
  }

  // Drained: both workers alive, running, zero lag, and still beating —
  // stable across `stable_polls` consecutive reads.
  bool Quiesce(int stable_polls = 10, int timeout_ms = 120'000) {
    const steady_clock::time_point deadline =
        steady_clock::now() + milliseconds(timeout_ms);
    int stable = 0;
    uint64_t last_seq_sum = 0;
    while (steady_clock::now() < deadline) {
      const auto rows = Status();
      bool good = rows.size() == 2;
      uint64_t seq_sum = 0;
      for (const auto& r : rows) {
        good = good && r.alive && r.seq > 0 && r.lag == 0 &&
               r.state == static_cast<int>(WorkerState::kRunning);
        seq_sum += r.seq;
      }
      stable = (good && seq_sum > last_seq_sum) ? stable + 1 : 0;
      last_seq_sum = seq_sum;
      if (stable >= stable_polls) return true;
      std::this_thread::sleep_for(milliseconds(100));
    }
    ADD_FAILURE() << "cluster never quiesced";
    return false;
  }

  // Graceful teardown: workers drain on SIGTERM, then the broker exits.
  // Both processes must exit 0 — a worker that fails its final Stop (lost
  // commits) turns the supervisor's drain into a fence, and the golden
  // comparison would catch the damage anyway; the exit codes just localize
  // the failure.
  void Shutdown() {
    ::kill(supervisord_pid_, SIGTERM);
    int status = 0;
    ASSERT_EQ(::waitpid(supervisord_pid_, &status, 0), supervisord_pid_);
    supervisord_pid_ = -1;
    EXPECT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0)
        << "supervisord exit status " << status;
    ::kill(scribed_pid_, SIGTERM);
    ASSERT_EQ(::waitpid(scribed_pid_, &status, 0), scribed_pid_);
    scribed_pid_ = -1;
    EXPECT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0)
        << "scribed exit status " << status;
  }

  uint64_t TotalRestartsFromStatus() const {
    uint64_t total = 0;
    for (const auto& r : Status()) total += r.restarts + r.timeouts;
    return total;
  }

  const std::string& root() const { return root_; }
  scribe::RemoteScribe* driver() { return driver_.get(); }

 private:
  std::string root_;
  WorkloadMode mode_;
  int port_ = 0;
  pid_t scribed_pid_ = -1;
  pid_t supervisord_pid_ = -1;
  std::unique_ptr<scribe::RemoteScribe> driver_;
};

// Runs the full storm against `cluster`; returns the total input count.
int64_t RunStorm(DistCluster* cluster, uint64_t seed) {
  std::mt19937 rng(seed);
  const std::vector<std::string> names = WorkloadNodeNames();
  int64_t next_id = 0;
  cluster->AppendInput(next_id, next_id + 60);
  next_id += 60;

  const int kills = KillRounds();
  for (int round = 0; round < kills; ++round) {
    cluster->AppendInput(next_id, next_id + 20);
    next_id += 20;
    if (round % 8 == 7) {
      // Machine death: supervisor + all workers at once; every third such
      // round also loses one node's local disk (HDFS restore path).
      const bool wipe = round % 24 == 23;
      cluster->KillSupervisorAndReexec(wipe, names[rng() % names.size()]);
    } else {
      cluster->KillWorker(names[rng() % names.size()]);
    }
    if (::testing::Test::HasFatalFailure()) break;
  }

  const int partitions = PartitionRounds();
  for (int round = 0; round < partitions; ++round) {
    cluster->AppendInput(next_id, next_id + 20);
    next_id += 20;
    const Micros duration = 500'000 + (rng() % 400'000);
    const auto mode = (round % 2 == 0) ? scribe::PartitionMode::kBlackhole
                                       : scribe::PartitionMode::kSever;
    // Mostly one worker at a time; sometimes the whole worker tier.
    const std::string prefix =
        (rng() % 10 < 7) ? "worker." + names[rng() % names.size()]
                         : "worker.";
    cluster->PartitionWorkers(prefix, duration, mode);
    if (::testing::Test::HasFatalFailure()) break;
  }

  cluster->AppendInput(next_id, next_id + 40);
  next_id += 40;
  return next_id;
}

// Replays the exact bytes the chaos run ingested ("in", straight off the
// broker's persisted segments) through one clean single-process pipeline
// over a fresh root, and leaves the results for comparison.
class GoldenReplay {
 public:
  GoldenReplay(WorkloadMode mode, const std::string& chaos_bus_root,
               const std::string& golden_root)
      : mode_(mode),
        golden_root_(golden_root),
        chaos_bus_(SystemClock::Get(), chaos_bus_root),
        golden_bus_(SystemClock::Get(), golden_root + "/bus") {
    Run();
  }

  scribe::Scribe* chaos_bus() { return &chaos_bus_; }
  scribe::Scribe* golden_bus() { return &golden_bus_; }
  const std::string& golden_root() const { return golden_root_; }

 private:
  void Run() {
    ASSERT_TRUE(EnsureWorkloadCategories(&chaos_bus_, mode_).ok());
    ASSERT_TRUE(EnsureWorkloadCategories(&golden_bus_, mode_).ok());
    for (int b = 0; b < kWorkloadBuckets; ++b) {
      for (const scribe::Message& m : ReadAll(&chaos_bus_, "in", b)) {
        ASSERT_TRUE(golden_bus_.Write("in", b, m.payload).ok());
      }
    }
    ASSERT_TRUE(stylus::SaveManifest(
                    golden_root_ + "/manifest",
                    BuildWorkloadManifest(mode_, golden_root_))
                    .ok());
    // Mirror the worker runtime exactly: same pipeline options, same
    // continuous-mode lifecycle, so checkpoint bytes are comparable.
    stylus::Pipeline::Options options;
    options.commit_threads = 2;
    options.idle_sleep_micros = 500;
    options.snapshot_every_batches = 8;
    // The resolver owns the HDFS backup handles the recovered NodeConfigs
    // point into — it must outlive the pipeline's last backup write.
    const auto resolver =
        MakeWorkloadResolver(mode_, &golden_bus_, golden_root_);
    stylus::Pipeline pipeline(&golden_bus_, SystemClock::Get(), options);
    ASSERT_TRUE(
        pipeline.Recover(golden_root_ + "/manifest", resolver).ok());
    ASSERT_TRUE(pipeline.Start().ok());
    auto drained = pipeline.WaitUntilQuiescent(120'000);
    ASSERT_TRUE(drained.ok()) << drained.status();
    ASSERT_TRUE(pipeline.Stop().ok());
  }

  WorkloadMode mode_;
  std::string golden_root_;
  scribe::Scribe chaos_bus_;
  scribe::Scribe golden_bus_;
};

int64_t RunDistChaos(const std::string& dir, WorkloadMode mode,
                     uint64_t seed) {
  DistCluster cluster(dir + "/cluster", mode);
  if (!cluster.Start()) return -1;
  const int64_t inputs = RunStorm(&cluster, seed);
  if (::testing::Test::HasFatalFailure()) return -1;
  if (!cluster.Quiesce()) return -1;
  cluster.Shutdown();
  return inputs;
}

TEST(DistChaosTest, ExactlyOnceByteIdenticalUnderStorm) {
  const std::string dir = MakeTempDir("dist_eo");
  const int64_t inputs = RunDistChaos(dir, WorkloadMode::kExactlyOnce, 11);
  ASSERT_GT(inputs, 0);

  GoldenReplay golden(WorkloadMode::kExactlyOnce, dir + "/cluster/bus",
                      dir + "/golden");
  ASSERT_FALSE(::testing::Test::HasFatalFailure());
  int64_t rows_seen = 0;
  for (const std::string& node : WorkloadNodeNames()) {
    for (int b = 0; b < kWorkloadBuckets; ++b) {
      const auto chaos_db =
          DumpWorkloadShardDb(dir + "/cluster", node, b);
      const auto golden_db =
          DumpWorkloadShardDb(golden.golden_root(), node, b);
      ASSERT_FALSE(golden_db.empty()) << node << "/" << b;
      // Byte-identical: output rows AND checkpointed state/offsets all
      // match a run that never saw a single failure.
      EXPECT_EQ(chaos_db, golden_db) << node << "/" << b;
      for (const auto& [key, value] : chaos_db) {
        if (key.rfind("out/", 0) == 0) ++rows_seen;
      }
    }
  }
  // Both nodes emit one row per input.
  EXPECT_EQ(rows_seen, 2 * inputs);
  ASSERT_TRUE(RemoveAll(dir).ok());
}

TEST(DistChaosTest, AtLeastOnceNeverLosesOutputUnderStorm) {
  const std::string dir = MakeTempDir("dist_alo");
  const int64_t inputs = RunDistChaos(dir, WorkloadMode::kAtLeastOnce, 22);
  ASSERT_GT(inputs, 0);

  GoldenReplay golden(WorkloadMode::kAtLeastOnce, dir + "/cluster/bus",
                      dir + "/golden");
  ASSERT_FALSE(::testing::Test::HasFatalFailure());
  auto chaos_out = ReadWorkloadOutput(golden.chaos_bus());
  auto golden_out = ReadWorkloadOutput(golden.golden_bus());
  ASSERT_TRUE(chaos_out.ok());
  ASSERT_TRUE(golden_out.ok());
  EXPECT_EQ(static_cast<int64_t>(golden_out->size()), inputs);
  for (const auto& [id, count] : *golden_out) {
    const auto it = chaos_out->find(id);
    ASSERT_NE(it, chaos_out->end()) << "lost id " << id;
    EXPECT_GE(it->second, count);
  }
  EXPECT_EQ(chaos_out->size(), golden_out->size());  // No invented ids.
  ASSERT_TRUE(RemoveAll(dir).ok());
}

TEST(DistChaosTest, AtMostOnceNeverDuplicatesOutputUnderStorm) {
  const std::string dir = MakeTempDir("dist_amo");
  const int64_t inputs = RunDistChaos(dir, WorkloadMode::kAtMostOnce, 33);
  ASSERT_GT(inputs, 0);

  GoldenReplay golden(WorkloadMode::kAtMostOnce, dir + "/cluster/bus",
                      dir + "/golden");
  ASSERT_FALSE(::testing::Test::HasFatalFailure());
  auto chaos_out = ReadWorkloadOutput(golden.chaos_bus());
  auto golden_out = ReadWorkloadOutput(golden.golden_bus());
  ASSERT_TRUE(chaos_out.ok());
  ASSERT_TRUE(golden_out.ok());
  EXPECT_EQ(static_cast<int64_t>(golden_out->size()), inputs);
  bool duplicates = false;
  for (const auto& [id, count] : *chaos_out) {
    EXPECT_EQ(count, 1) << "duplicated id " << id;
    duplicates = duplicates || count != 1;
    EXPECT_TRUE(golden_out->count(id) > 0) << "unknown id " << id;
  }
  if (duplicates) {
    // Forensics: bus position of every copy of every duplicated id, so a
    // failure log shows whether copies are adjacent (transport double-land)
    // or an interval apart (checkpoint replay).
    TextRowCodec codec(WorkloadEventSchema());
    scribe::Scribe* bus = golden.chaos_bus();
    for (int b = 0; b < bus->NumBuckets("out"); ++b) {
      auto messages = bus->Read("out", b, 0, 1u << 20);
      ASSERT_TRUE(messages.ok());
      for (const scribe::Message& m : *messages) {
        auto row = codec.Decode(m.payload);
        ASSERT_TRUE(row.ok());
        const int64_t id = row->Get("id").CoerceInt64();
        if (chaos_out->at(id) != 1) {
          fprintf(stderr, "dup id %lld: out bucket %d seq %llu\n",
                  static_cast<long long>(id), b,
                  static_cast<unsigned long long>(m.sequence));
        }
      }
    }
  }
  EXPECT_LE(chaos_out->size(), golden_out->size());
  if (::testing::Test::HasFailure()) {
    fprintf(stderr, "preserving failure evidence in %s\n", dir.c_str());
    return;
  }
  ASSERT_TRUE(RemoveAll(dir).ok());
}

// A storm-free control: the failure detector must not fire on a healthy
// cluster (no heartbeat false positives while real work flows).
TEST(DistChaosTest, CleanRunHasNoFalsePositives) {
  const std::string dir = MakeTempDir("dist_clean");
  DistCluster cluster(dir + "/cluster", WorkloadMode::kExactlyOnce);
  ASSERT_TRUE(cluster.Start());
  for (int i = 0; i < 5; ++i) {
    cluster.AppendInput(i * 100, (i + 1) * 100);
    std::this_thread::sleep_for(milliseconds(300));
  }
  ASSERT_TRUE(cluster.Quiesce());
  EXPECT_EQ(cluster.TotalRestartsFromStatus(), 0u);
  cluster.Shutdown();
  EXPECT_EQ(cluster.TotalRestartsFromStatus(), 0u);
  ASSERT_TRUE(RemoveAll(dir).ok());
}

// ---------------------------------------------------------------------------
// Partial-manifest recovery (satellite #3), in-process: two pipelines each
// recover a node_filter slice of one shared manifest, process the same bus,
// and together converge to the same bytes as one pipeline recovering the
// full topology.

TEST(PartialRecoverTest, FilteredSlicesConvergeToFullRecovery) {
  const std::string dir = MakeTempDir("partial_recover");
  const WorkloadMode mode = WorkloadMode::kExactlyOnce;

  stylus::Pipeline::Options options;
  options.commit_threads = 2;
  options.idle_sleep_micros = 500;
  options.snapshot_every_batches = 8;

  auto run = [&](const std::string& root,
                 const std::vector<std::vector<std::string>>& slices) {
    scribe::Scribe bus(SystemClock::Get(), root + "/bus");
    ASSERT_TRUE(EnsureWorkloadCategories(&bus, mode).ok());
    ASSERT_TRUE(AppendWorkloadInput(&bus, 0, 200).ok());
    ASSERT_TRUE(stylus::SaveManifest(root + "/manifest",
                                     BuildWorkloadManifest(mode, root))
                    .ok());
    // One pipeline per slice, all over the same manifest and bus — the
    // worker-process topology without the processes. Resolvers are
    // declared first: they own the HDFS handles the pipelines' backup
    // threads write through, so they must be destroyed last.
    std::vector<stylus::Pipeline::NodeConfigResolver> resolvers;
    std::vector<std::unique_ptr<stylus::Pipeline>> pipelines;
    for (const auto& slice : slices) {
      auto p = std::make_unique<stylus::Pipeline>(&bus, SystemClock::Get(),
                                                  options);
      stylus::Pipeline::RecoverOptions recover;
      recover.node_filter = slice;
      resolvers.push_back(MakeWorkloadResolver(mode, &bus, root));
      ASSERT_TRUE(
          p->Recover(root + "/manifest", resolvers.back(), recover).ok());
      ASSERT_TRUE(p->Start().ok());
      pipelines.push_back(std::move(p));
    }
    for (auto& p : pipelines) {
      auto drained = p->WaitUntilQuiescent(60'000);
      ASSERT_TRUE(drained.ok()) << drained.status();
    }
    for (auto& p : pipelines) ASSERT_TRUE(p->Stop().ok());
  };

  run(dir + "/split", {{"alpha"}, {"beta"}});
  ASSERT_FALSE(::testing::Test::HasFatalFailure());
  run(dir + "/full", {{}});  // Empty filter = the whole manifest.
  ASSERT_FALSE(::testing::Test::HasFatalFailure());

  for (const std::string& node : WorkloadNodeNames()) {
    for (int b = 0; b < kWorkloadBuckets; ++b) {
      const auto split_db = DumpWorkloadShardDb(dir + "/split", node, b);
      const auto full_db = DumpWorkloadShardDb(dir + "/full", node, b);
      ASSERT_FALSE(full_db.empty()) << node << "/" << b;
      EXPECT_EQ(split_db, full_db) << node << "/" << b;
    }
  }

  // A slice must not rewrite the shared manifest as if it owned the whole
  // topology: the full node list survives partial recoveries.
  auto manifest = stylus::LoadManifest(dir + "/split/manifest");
  ASSERT_TRUE(manifest.ok());
  EXPECT_EQ(manifest->nodes.size(), WorkloadNodeNames().size());
  ASSERT_TRUE(RemoveAll(dir).ok());
}

}  // namespace
}  // namespace fbstream::cluster
