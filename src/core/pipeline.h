#ifndef FBSTREAM_CORE_PIPELINE_H_
#define FBSTREAM_CORE_PIPELINE_H_

#include <atomic>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "core/node.h"
#include "core/recovery.h"
#include "common/shard_executor.h"

namespace fbstream::stylus {

// A DAG of processing nodes connected by Scribe categories (§2: "Puma,
// Stylus, and Swift applications can be connected through Scribe into a
// complex DAG"). Because every edge is a persistent Scribe stream, node
// failures are independent: a crashed shard stops consuming but neither
// blocks its upstream nor corrupts its downstream, and it resumes from its
// own checkpoint on recovery (§4.2.2).
//
// Two execution models share one pipeline:
//
//  - Round mode (tests and benches call RunRound / RunUntilQuiescent):
//    within a round, nodes run in insertion (topological) order — a
//    downstream node's round starts only after its upstream node's round
//    completes. With Options{num_threads > 1} the shards *within* each node
//    run concurrently on a fixed worker pool (ShardExecutor); Scribe buckets
//    decouple them, so parallel rounds are deterministic-equivalent to
//    serial ones: identical per-shard outputs and checkpoints, only the
//    interleaving across shards differs.
//
//  - Continuous mode (Start / Stop): every shard gets a long-lived event
//    loop that polls, processes, and checkpoints on its own cadence with no
//    cross-node barrier. The persistent Scribe bus is the inter-node queue
//    (§5.3), so backpressure is the backlog between a producer and the
//    tailers of the category it feeds: a shard whose downstream consumers
//    lag more than max_queue_messages stalls instead of polling, and the
//    stall propagates source-ward hop by hop until the source tailer itself
//    pauses. Checkpoint commits overlap the next batch's processing
//    (§4.2 "processing can proceed while the checkpoint is saved"), so
//    commit I/O comes off the per-shard critical path. Both modes chunk
//    input identically (by checkpoint policy), so with the same input they
//    produce byte-identical per-shard outputs and checkpoints.
//
// Thread-safety contract: one driver thread calls RunRound /
// RunUntilQuiescent / Start / Stop / WaitUntilQuiescent / RecoverAll /
// AddNode. While a round is in flight or continuous loops are running,
// *other* threads may safely call Shards / Shard / GetProcessingLag /
// GetLagAlerts / GetBackupHealth / ReconcileShards (monitoring and
// auto-scaling race running work by design); shard topology is guarded by
// an internal mutex and per-shard counters are atomic. Shards created by a
// concurrent ReconcileShards join the next round, or get their own event
// loop immediately in continuous mode. In continuous mode, RecoverAll is
// safe only for shards that are already down (a dead shard's loop idles;
// reviving it never races the loop's alive() gate).
class Pipeline {
 public:
  struct Options {
    // Worker threads for shard execution. 1 (the default) preserves the
    // fully serial, single-threaded seed behavior; n > 1 runs each node's
    // shards concurrently on a pool of n threads.
    int num_threads = 1;

    // --- Continuous mode (Start/Stop) ---
    // Backpressure bound: a shard stalls (stops polling its input) while
    // any tailer of its output category is more than this many messages
    // behind. Bounds the byte footprint of every inter-node edge to roughly
    // max_queue_messages * message size per consumer shard.
    uint64_t max_queue_messages = 4096;
    // §4.2 processing overlap: with commit_threads > 0, checkpoint commits
    // run on a pool of that many threads, so the shard loop starts batch
    // N+1 while batch N's checkpoint/backup side effects commit; 0 commits
    // inline on the shard loop. Monoid shards always commit inline (their
    // partial-aggregate buffer is single-threaded by design).
    int commit_threads = 2;
    // Event-loop sleep when a shard is idle, stalled, or down.
    int idle_sleep_micros = 200;
    // Offsets-snapshot cadence in continuous mode: rewrite <dir>/OFFSETS
    // every this many committed batches (manifest enabled; 0 disables the
    // cadence — a final snapshot is still taken on Stop).
    uint64_t snapshot_every_batches = 32;
  };

  Pipeline(scribe::Scribe* scribe, Clock* clock)
      : Pipeline(scribe, clock, Options{}) {}
  Pipeline(scribe::Scribe* scribe, Clock* clock, Options options);
  ~Pipeline();

  // Creates one shard per bucket of the node's input category.
  Status AddNode(const NodeConfig& config);

  // Durable manifest (core/recovery.h): once enabled, every topology change
  // rewrites <dir>/PIPELINE and every completed round rewrites <dir>/OFFSETS,
  // both atomically — enough for a fresh process to Recover() after hard
  // death. Call after the initial AddNode()s on a new deployment.
  Status EnableManifest(const std::string& dir);
  const std::string& manifest_dir() const { return manifest_dir_; }

  // Rebuilds the code half of a NodeConfig (factories, schema, sink,
  // cluster pointers) for a manifest record; Recover overrides the scalar
  // half from the record itself. Typically a switch on record.name.
  using NodeConfigResolver =
      std::function<StatusOr<NodeConfig>(const ManifestNodeRecord&)>;

  // Process-restart recovery: rebuilds this (empty) pipeline from the
  // manifest in `dir`. For every recorded node, shards reopen their state
  // stores (LSM WAL replay), reload checkpoints and seek their tailers; a
  // local-backend shard whose directory is gone restores from its HDFS
  // backup first (Fig 10 "new machine"); shards with backups configured
  // re-queue one pending backup so the resync path re-uploads state the
  // crash window may have missed. Manifest maintenance continues in `dir`.
  Status Recover(const std::string& dir, const NodeConfigResolver& resolver);

  // Partial recovery (distributed mode): a worker process recovers only its
  // slice of the manifest topology while sibling workers own the rest.
  struct RecoverOptions {
    // Empty = recover every recorded node. Otherwise only these nodes are
    // instantiated; every name must exist in the manifest (InvalidArgument
    // otherwise — a worker assigned a node the manifest doesn't know is a
    // deployment bug, not a recovery).
    std::vector<std::string> node_filter;
    // Scoped offsets file name: a filtered pipeline writes its advisory
    // snapshots to OFFSETS.<scope> so concurrent workers don't clobber each
    // other (LoadOffsetsSnapshot merges all scopes). Defaults to the filter
    // names joined with '+'.
    std::string offsets_scope;
  };
  // With a nonempty node_filter the pipeline becomes *partial*: it never
  // rewrites PIPELINE (the manifest describes the whole topology, which no
  // single worker sees) and its offsets snapshots go to the scoped file.
  Status Recover(const std::string& dir, const NodeConfigResolver& resolver,
                 const RecoverOptions& options);

  // Runs every live shard once; crashed shards are skipped (their upstream
  // keeps flowing — decoupling in action). Returns events processed.
  // Checks ShutdownRequested() between node batches: on SIGTERM the round
  // finishes the in-flight node (its shards end on a clean checkpoint) and
  // skips the rest — a graceful drain, never a torn write.
  StatusOr<size_t> RunRound();

  // Rounds until a full round consumes nothing. Returns the events processed
  // if the pipeline quiesced; returns DeadlineExceeded if it was still
  // consuming after max_rounds (callers can tell "drained" from "gave up");
  // returns Cancelled (message carries the drained-so-far count) if a
  // shutdown request interrupted the drive loop — an interrupted drain is
  // consistent (every round ends on checkpoints) but NOT quiescence, and
  // callers that treat the two alike will under-drain.
  StatusOr<size_t> RunUntilQuiescent(int max_rounds = 1000);

  // --- Continuous push-based execution ---

  // Spawns one long-lived event loop thread per shard (plus the commit pool
  // when overlap is enabled). Loops run until Stop(): poll a batch, process
  // it, hand the checkpoint commit to the pool, immediately start the next
  // batch. Fails if already running.
  Status Start();

  // Graceful drain: every loop finishes its in-flight batch *and* its
  // in-flight commit — each shard ends on a completed checkpoint — then
  // exits. Joins all loops, drains the commit pool, and writes a final
  // offsets snapshot. Fails if not running.
  Status Stop();

  // Blocks until every alive shard's input is drained and no batch or
  // commit is in flight, then returns events processed since Start().
  // Returns Cancelled (message carries the count) on a shutdown request,
  // DeadlineExceeded after timeout_ms of wall time.
  StatusOr<size_t> WaitUntilQuiescent(int64_t timeout_ms = 10000);

  bool running() const { return running_.load(std::memory_order_acquire); }

  // Events processed since Start() (continuous mode); worker heartbeats
  // report it so the supervisor can tell progress from liveness.
  size_t events_processed() const {
    return continuous_processed_.load(std::memory_order_relaxed);
  }

  // Consecutive OFFSETS-snapshot write failures (0 after any success).
  // MonitoringService::ActiveSnapshotAlerts pages on a sustained streak: a
  // single miss costs recovery precision, a streak means recovery would
  // replay from an ever-staler floor.
  uint64_t OffsetsWriteFailureStreak() const {
    return offsets_failure_streak_.load(std::memory_order_relaxed);
  }

  // All shards of a node, for crash injection and inspection.
  std::vector<NodeShard*> Shards(const std::string& node) const;
  NodeShard* Shard(const std::string& node, int bucket) const;

  // Restarts every crashed shard from its checkpoint.
  Status RecoverAll();

  // Node names in insertion (topological) order. Stable while rounds run:
  // nodes are only added by AddNode, which must not race a round.
  const std::vector<std::string>& NodeNames() const { return node_order_; }

  // Creates shards for input buckets added after the node was deployed
  // (§4.2.2/§6.4: re-bucketing a category is the scaling mechanism; new
  // buckets need consumers). Existing shards are untouched. Safe to call
  // while a round is in flight; new shards join the next round.
  Status ReconcileShards();

  // Monitoring (§6.4): per-shard processing lag, and the alerting query
  // ("alerts ... notify us to adapt our apps to changes in volume").
  // Safe to call concurrently with a running round.
  struct LagReport {
    std::string node;
    int shard = 0;
    uint64_t lag_messages = 0;
  };
  std::vector<LagReport> GetProcessingLag() const;
  std::vector<LagReport> GetLagAlerts(uint64_t threshold_messages) const;

  // Degraded-mode backup state for every shard (§4.4.2): which shards are
  // running without remote backup copies, how many resyncs are queued, and
  // cumulative time degraded. Safe to call concurrently with a running round.
  struct BackupReport {
    std::string node;
    int shard = 0;
    BackupHealth health;
  };
  std::vector<BackupReport> GetBackupHealth() const;

  int num_threads() const { return options_.num_threads; }

 private:
  // Per-shard continuous event loop: the thread plus the one-slot commit
  // channel between it and the commit pool. Defined in pipeline.cc.
  struct ShardLoop;

  // AddNode minus the lock, for callers already holding mu_.
  Status AddNodeLocked(const NodeConfig& config);
  // Serializes the current topology (requires mu_); bumps the epoch.
  Status SaveManifestLocked();
  // Rewrites <dir>/OFFSETS from the live tailer offsets. Serialized
  // internally (continuous commit threads may call it concurrently); tracks
  // the write-failure streak for monitoring.
  void SaveOffsetsSnapshot();

  // Continuous-mode internals (pipeline.cc).
  void SpawnLoopLocked(const std::string& node, NodeShard* shard);
  void ShardLoopMain(ShardLoop* loop);
  bool FinishCommit(ShardLoop* loop);
  void AfterCommit(size_t events);
  uint64_t MaxDownstreamLag(const std::string& category) const;
  bool QuiescentOnce() const;

  scribe::Scribe* scribe_;
  Clock* clock_;
  Options options_;
  std::unique_ptr<ShardExecutor> executor_;  // Null in serial mode.
  std::string manifest_dir_;  // Empty until EnableManifest / Recover.
  uint64_t manifest_epoch_ = 0;
  // True after a node-filtered Recover: this pipeline owns a slice of the
  // topology, must never rewrite PIPELINE, and snapshots offsets under
  // offsets_scope_.
  bool manifest_partial_ = false;
  std::string offsets_scope_;
  // Guards the shard topology (nodes_ / node_order_). Shard pointers remain
  // valid once created: shards are never destroyed, only appended.
  mutable std::mutex mu_;
  std::vector<std::string> node_order_;
  std::map<std::string, std::vector<std::unique_ptr<NodeShard>>> nodes_;

  // Continuous-mode state. Lock order where both are needed: mu_ before
  // loops_mu_ (ReconcileShards spawns loops while holding mu_); readers
  // that need both snapshots take them sequentially instead of nested.
  std::atomic<bool> running_{false};
  std::atomic<bool> stop_requested_{false};
  std::unique_ptr<ShardExecutor> commit_pool_;  // Live while running.
  mutable std::mutex loops_mu_;
  std::vector<std::unique_ptr<ShardLoop>> loops_;
  std::atomic<size_t> continuous_processed_{0};
  std::atomic<uint64_t> continuous_commits_{0};
  std::mutex snapshot_mu_;  // Serializes OFFSETS writes across threads.
  std::atomic<uint64_t> offsets_failure_streak_{0};
};

}  // namespace fbstream::stylus

#endif  // FBSTREAM_CORE_PIPELINE_H_
