#include "core/pipeline.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <functional>
#include <thread>

#include "common/logging.h"
#include "common/metrics.h"
#include "common/shutdown.h"

namespace fbstream::stylus {

// One continuous event loop. `pending` counts in-flight work units for the
// quiescence check: each polled non-empty batch is one unit, held from the
// moment of polling until its commit completes (so overlap shows 2: one
// committing, one processing). The commit channel is a one-slot handoff
// between the shard thread and the commit pool; commits for one shard never
// overlap each other.
struct Pipeline::ShardLoop {
  std::string node;
  NodeShard* shard = nullptr;
  std::thread thread;

  std::mutex mu;
  std::condition_variable cv;
  bool commit_inflight = false;  // Guarded by mu.
  Status commit_status;          // Result of the last finished commit.
  std::atomic<int> pending{0};
};

Pipeline::Pipeline(scribe::Scribe* scribe, Clock* clock, Options options)
    : scribe_(scribe), clock_(clock), options_(options) {
  if (options_.num_threads > 1) {
    executor_ = std::make_unique<ShardExecutor>(options_.num_threads);
  }
}

Pipeline::~Pipeline() {
  if (running()) (void)Stop();
}

Status Pipeline::AddNode(const NodeConfig& config) {
  if (running()) {
    return Status::FailedPrecondition(
        "cannot add nodes while continuous execution is running");
  }
  std::lock_guard<std::mutex> lock(mu_);
  return AddNodeLocked(config);
}

Status Pipeline::AddNodeLocked(const NodeConfig& config) {
  if (nodes_.count(config.name) > 0) {
    return Status::AlreadyExists("node " + config.name);
  }
  const int buckets = scribe_->NumBuckets(config.input_category);
  if (buckets <= 0) {
    return Status::NotFound("input category " + config.input_category);
  }
  std::vector<std::unique_ptr<NodeShard>> shards;
  for (int b = 0; b < buckets; ++b) {
    FBSTREAM_ASSIGN_OR_RETURN(auto shard,
                              NodeShard::Create(config, scribe_, clock_, b));
    shards.push_back(std::move(shard));
  }
  node_order_.push_back(config.name);
  nodes_.emplace(config.name, std::move(shards));
  if (!manifest_dir_.empty()) {
    FBSTREAM_RETURN_IF_ERROR(SaveManifestLocked());
  }
  return Status::OK();
}

Status Pipeline::SaveManifestLocked() {
  // A partial pipeline sees only its slice of the topology; writing that
  // slice as PIPELINE would amputate every other worker's nodes from the
  // shared manifest.
  if (manifest_partial_) return Status::OK();
  PipelineManifest manifest;
  manifest.epoch = ++manifest_epoch_;
  for (const std::string& name : node_order_) {
    const auto& shards = nodes_.at(name);
    if (shards.empty()) continue;
    const NodeConfig& config = shards[0]->config();
    ManifestNodeRecord record;
    record.name = config.name;
    record.input_category = config.input_category;
    record.num_shards = static_cast<int>(shards.size());
    record.state_semantics = config.state_semantics;
    record.output_semantics = config.output_semantics;
    record.backend = config.backend;
    record.state_dir = config.state_dir;
    record.checkpoint_every_events = config.checkpoint_every_events;
    record.checkpoint_every_bytes = config.checkpoint_every_bytes;
    record.backup_every_checkpoints = config.backup_every_checkpoints;
    record.max_pending_backups = config.max_pending_backups;
    manifest.nodes.push_back(std::move(record));
  }
  return SaveManifest(manifest_dir_, manifest);
}

Status Pipeline::EnableManifest(const std::string& dir) {
  std::lock_guard<std::mutex> lock(mu_);
  if (dir.empty()) return Status::InvalidArgument("empty manifest dir");
  manifest_dir_ = dir;
  manifest_partial_ = false;  // A fresh deployment owns the whole manifest.
  offsets_scope_.clear();
  return SaveManifestLocked();
}

void Pipeline::SaveOffsetsSnapshot() {
  std::vector<ShardOffsetRecord> offsets;
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (const std::string& name : node_order_) {
      for (const auto& shard : nodes_.at(name)) {
        offsets.push_back(
            ShardOffsetRecord{name, shard->bucket(), shard->TailerOffset()});
      }
    }
  }
  // Serialize the write: continuous commit threads hit the cadence
  // concurrently, and two interleaved atomic-rename writes would race on
  // the temp file.
  std::lock_guard<std::mutex> snapshot_lock(snapshot_mu_);
  // Advisory data (see LoadOffsetsSnapshot): a failed write costs recovery
  // precision, not correctness, so it must not fail the round. It must not
  // be invisible either — a sustained streak means recovery would replay
  // from an ever-staler floor, so the failure is counted for the exporter
  // and the streak is tracked for MonitoringService::ActiveSnapshotAlerts.
  const Status status = ::fbstream::stylus::SaveOffsetsSnapshot(
      manifest_dir_, offsets, offsets_scope_);
  if (!status.ok()) {
    static Counter* failures = MetricsRegistry::Global()->GetCounter(
        "recovery.offsets.write_failures");
    failures->Add();
    offsets_failure_streak_.fetch_add(1, std::memory_order_relaxed);
    FBSTREAM_LOG(Warning) << "offsets snapshot write failed: " << status;
  } else {
    offsets_failure_streak_.store(0, std::memory_order_relaxed);
  }
}

Status Pipeline::Recover(const std::string& dir,
                         const NodeConfigResolver& resolver) {
  return Recover(dir, resolver, RecoverOptions{});
}

Status Pipeline::Recover(const std::string& dir,
                         const NodeConfigResolver& resolver,
                         const RecoverOptions& options) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (!nodes_.empty()) {
      return Status::FailedPrecondition("Recover requires an empty pipeline");
    }
  }
  static Histogram* recovery_time =
      MetricsRegistry::Global()->GetHistogram("recovery.time_us");
  ScopedLatencyTimer timer(recovery_time);
  FBSTREAM_ASSIGN_OR_RETURN(const PipelineManifest manifest,
                            LoadManifest(dir));
  const bool partial = !options.node_filter.empty();
  if (partial) {
    for (const std::string& wanted : options.node_filter) {
      bool found = false;
      for (const ManifestNodeRecord& record : manifest.nodes) {
        if (record.name == wanted) {
          found = true;
          break;
        }
      }
      if (!found) {
        return Status::InvalidArgument("node filter names '" + wanted +
                                       "', which the manifest does not record");
      }
    }
  }
  auto in_filter = [&](const std::string& name) {
    if (!partial) return true;
    for (const std::string& wanted : options.node_filter) {
      if (wanted == name) return true;
    }
    return false;
  };
  const std::vector<ShardOffsetRecord> snapshot = LoadOffsetsSnapshot(dir);
  std::lock_guard<std::mutex> lock(mu_);
  // manifest_dir_ stays empty until all nodes are rebuilt (so AddNodeLocked
  // never persists a half-recovered topology); the partial flag is set
  // first so nothing in between can rewrite PIPELINE.
  manifest_partial_ = partial;
  if (partial) {
    offsets_scope_ = options.offsets_scope;
    if (offsets_scope_.empty()) {
      for (const std::string& name : options.node_filter) {
        if (!offsets_scope_.empty()) offsets_scope_ += "+";
        offsets_scope_ += name;
      }
    }
  } else {
    offsets_scope_.clear();
  }
  size_t recovered = 0;
  for (const ManifestNodeRecord& record : manifest.nodes) {
    if (!in_filter(record.name)) continue;
    ++recovered;
    FBSTREAM_ASSIGN_OR_RETURN(NodeConfig config, resolver(record));
    // The manifest is authoritative for everything it records; the resolver
    // only supplies the parts that can't be serialized (factories, schema,
    // sink, cluster handles).
    config.name = record.name;
    config.input_category = record.input_category;
    config.state_semantics = record.state_semantics;
    config.output_semantics = record.output_semantics;
    config.backend = record.backend;
    config.state_dir = record.state_dir;
    config.checkpoint_every_events = record.checkpoint_every_events;
    config.checkpoint_every_bytes = record.checkpoint_every_bytes;
    config.backup_every_checkpoints = record.backup_every_checkpoints;
    config.max_pending_backups = record.max_pending_backups;
    config.restore_state_from_backup = true;
    if (scribe_->NumBuckets(record.input_category) < record.num_shards) {
      // Fewer buckets than recorded shards would silently orphan the extra
      // shards' state; a rescale while down must be resolved by the operator.
      return Status::FailedPrecondition(
          "category " + record.input_category + " has fewer buckets than the " +
          std::to_string(record.num_shards) + " shards recorded for node " +
          record.name);
    }
    FBSTREAM_RETURN_IF_ERROR(AddNodeLocked(config));
    for (const auto& shard : nodes_.at(record.name)) {
      if (!shard->had_checkpoint_offset()) {
        // The shard lost its checkpoint. An offsets-snapshot record is the
        // tell between two very different situations: with no record this
        // is a fresh deployment that legitimately starts from zero, while a
        // record proves a predecessor incarnation ran at least to the
        // recorded floor before the wipe.
        bool ran_before = false;
        uint64_t floor = 0;
        for (const ShardOffsetRecord& r : snapshot) {
          if (r.node == record.name && r.bucket == shard->bucket()) {
            ran_before = true;
            floor = std::max(floor, r.offset);
          }
        }
        if (ran_before &&
            record.output_semantics == OutputSemantics::kAtMostOnce) {
          // The snapshot floor trails the dead incarnation's true cursor
          // (it is written every few batches), and everything the
          // predecessor processed was already emitted to the bus. Resuming
          // anywhere behind that unknown true position re-emits output;
          // the live tail is the only position that cannot duplicate, and
          // at-most-once prefers the loss.
          FBSTREAM_RETURN_IF_ERROR(shard->FastForwardInputToTail());
        } else if (ran_before &&
                   record.state_semantics == StateSemantics::kAtMostOnce) {
          // An at-most-once-*state* shard must not replay from zero (that
          // would re-count events it already applied); the advisory floor
          // is close to where it died.
          shard->SeekTailer(std::max(shard->TailerOffset(), floor));
        }
      }
      shard->RequestBackupResync();
    }
  }
  manifest_dir_ = dir;
  manifest_epoch_ = manifest.epoch;  // SaveManifestLocked bumps it.
  FBSTREAM_RETURN_IF_ERROR(SaveManifestLocked());  // No-op when partial.
  static Counter* recoveries =
      MetricsRegistry::Global()->GetCounter("recovery.pipeline.recoveries");
  recoveries->Add();
  FBSTREAM_LOG(Info) << "pipeline recovered from " << dir << " (epoch "
                     << manifest_epoch_ << ", " << recovered << " of "
                     << manifest.nodes.size() << " nodes"
                     << (manifest_partial_ ? ", partial" : "") << ")";
  return Status::OK();
}

StatusOr<size_t> Pipeline::RunRound() {
  if (running()) {
    return Status::FailedPrecondition(
        "continuous execution is running; Stop() before driving rounds");
  }
  std::vector<std::string> order;
  {
    std::lock_guard<std::mutex> lock(mu_);
    order = node_order_;
  }
  std::atomic<size_t> processed{0};
  for (const std::string& name : order) {
    // Graceful drain (SIGTERM / SIGINT): stop before starting the next
    // node's batch. Every shard that already ran ended on a completed
    // checkpoint, so stopping here is always consistent.
    if (ShutdownRequested()) break;
    // Snapshot the node's shards: a concurrent ReconcileShards may append
    // (never remove) shards; appended ones join the next round for earlier
    // nodes, this round for later ones.
    std::vector<NodeShard*> shards;
    {
      std::lock_guard<std::mutex> lock(mu_);
      for (auto& shard : nodes_.at(name)) shards.push_back(shard.get());
    }
    std::mutex error_mu;
    Status error = Status::OK();
    auto run_shard = [&processed, &error_mu, &error, &name](NodeShard* shard) {
      if (!shard->alive()) return;  // Independent failure (§4.2.2).
      auto result = shard->RunOnce();
      if (result.ok()) {
        processed.fetch_add(result.value(), std::memory_order_relaxed);
        return;
      }
      if (result.status().IsAborted()) {
        FBSTREAM_LOG(Warning)
            << name << "/shard-" << shard->bucket() << " crashed";
        return;  // Other shards keep running.
      }
      std::lock_guard<std::mutex> lock(error_mu);
      if (error.ok()) error = result.status();
    };
    if (executor_ != nullptr && shards.size() > 1) {
      std::vector<std::function<void()>> tasks;
      tasks.reserve(shards.size());
      for (NodeShard* shard : shards) {
        tasks.push_back([&run_shard, shard] { run_shard(shard); });
      }
      executor_->RunBatch(std::move(tasks));
    } else {
      for (NodeShard* shard : shards) run_shard(shard);
    }
    // The node's whole batch ran (matching parallel semantics); a
    // non-crash error still fails the round before downstream nodes run.
    if (!error.ok()) return error;
  }
  if (!manifest_dir_.empty()) SaveOffsetsSnapshot();
  return processed.load();
}

StatusOr<size_t> Pipeline::RunUntilQuiescent(int max_rounds) {
  size_t total = 0;
  for (int round = 0; round < max_rounds; ++round) {
    // A shutdown request ends the drive loop cleanly: the last round ended
    // on checkpoints, so "drained so far" is a consistent stopping point.
    // It is NOT quiescence, though — input may remain — so it must be
    // distinguishable from a completed drain: a caller that took the old
    // plain-total return as "drained" would tear down with events still
    // queued. Cancelled carries the count in its message.
    if (ShutdownRequested()) {
      return Status::Cancelled("shutdown requested after draining " +
                               std::to_string(total) + " events");
    }
    FBSTREAM_ASSIGN_OR_RETURN(size_t n, RunRound());
    total += n;
    if (n == 0) return total;
  }
  return Status::DeadlineExceeded(
      "pipeline still consuming after " + std::to_string(max_rounds) +
      " rounds (" + std::to_string(total) + " events processed)");
}

Status Pipeline::Start() {
  if (running_.exchange(true, std::memory_order_acq_rel)) {
    return Status::FailedPrecondition("continuous execution already running");
  }
  stop_requested_.store(false, std::memory_order_release);
  continuous_processed_.store(0, std::memory_order_relaxed);
  continuous_commits_.store(0, std::memory_order_relaxed);
  if (options_.commit_threads > 0) {
    commit_pool_ = std::make_unique<ShardExecutor>(options_.commit_threads);
  }
  std::lock_guard<std::mutex> lock(mu_);
  std::lock_guard<std::mutex> loops_lock(loops_mu_);
  for (const std::string& name : node_order_) {
    for (const auto& shard : nodes_.at(name)) {
      SpawnLoopLocked(name, shard.get());
    }
  }
  FBSTREAM_LOG(Info) << "continuous execution started (" << loops_.size()
                     << " shard loops, "
                     << (commit_pool_ != nullptr ? options_.commit_threads : 0)
                     << " commit threads)";
  return Status::OK();
}

Status Pipeline::Stop() {
  if (!running()) {
    return Status::FailedPrecondition("continuous execution is not running");
  }
  stop_requested_.store(true, std::memory_order_release);
  // Take ownership of the loops under loops_mu_, but join with the lock
  // released: a loop thread can be blocked on mu_ (lag scan, offsets
  // snapshot) while a concurrent ReconcileShards holds mu_ and waits on
  // loops_mu_ — joining under loops_mu_ closes that cycle into a deadlock.
  // The swap is safe against new spawns because SpawnLoopLocked no-ops once
  // stop is requested (stored above, before loops_mu_ is taken).
  std::vector<std::unique_ptr<ShardLoop>> loops;
  {
    std::lock_guard<std::mutex> loops_lock(loops_mu_);
    loops.swap(loops_);
  }
  for (auto& loop : loops) {
    if (loop->thread.joinable()) loop->thread.join();
  }
  // Drain the commit pool before destroying the loops: a commit callback's
  // tail can still be running after FinishCommit observed the commit done,
  // and it touches the loop's mutex/cv.
  if (commit_pool_ != nullptr) {
    commit_pool_->Shutdown();
    commit_pool_.reset();
  }
  loops.clear();
  // Inside loops_mu_ so a racing ReconcileShards either spawned before the
  // swap a loop we just joined (SpawnLoopLocked no-ops once stop is
  // requested), or observes not-running and spawns nothing.
  {
    std::lock_guard<std::mutex> loops_lock(loops_mu_);
    running_.store(false, std::memory_order_release);
  }
  if (!manifest_dir_.empty()) SaveOffsetsSnapshot();
  FBSTREAM_LOG(Info) << "continuous execution stopped ("
                     << continuous_processed_.load(std::memory_order_relaxed)
                     << " events processed)";
  return Status::OK();
}

void Pipeline::SpawnLoopLocked(const std::string& node, NodeShard* shard) {
  if (stop_requested_.load(std::memory_order_acquire)) return;
  auto loop = std::make_unique<ShardLoop>();
  loop->node = node;
  loop->shard = shard;
  ShardLoop* raw = loop.get();
  loops_.push_back(std::move(loop));
  raw->thread = std::thread([this, raw] { ShardLoopMain(raw); });
}

// Largest backlog any consumer of `category` still has — the "queue depth"
// of the edge this category implements. Empty category (terminal sink) or
// no consumers means no backpressure.
uint64_t Pipeline::MaxDownstreamLag(const std::string& category) const {
  uint64_t max_lag = 0;
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& [name, shards] : nodes_) {
    if (shards.empty()) continue;
    if (shards[0]->config().input_category != category) continue;
    for (const auto& shard : shards) {
      // A dead shard's backlog doesn't stall upstream: failure independence
      // (§4.2.2) wins over backpressure. Its loop idles until RecoverAll,
      // and the backlog lands in the durable bus, not in memory — otherwise
      // one crashed consumer would eventually freeze the whole DAG back to
      // the source.
      if (!shard->alive()) continue;
      max_lag = std::max(max_lag, shard->ProcessingLag());
    }
  }
  return max_lag;
}

// Waits for the shard's overlapped commit (if any) and applies its outcome
// on the calling (shard) thread. Returns false when the commit failed — on
// Aborted the injected crash is applied here, where it cannot race the
// shard's own processing.
bool Pipeline::FinishCommit(ShardLoop* loop) {
  Status st;
  {
    std::unique_lock<std::mutex> lock(loop->mu);
    loop->cv.wait(lock, [loop] { return !loop->commit_inflight; });
    st = loop->commit_status;
    loop->commit_status = Status::OK();
  }
  if (st.ok()) return true;
  if (st.IsAborted()) {
    FBSTREAM_LOG(Warning) << loop->node << "/shard-" << loop->shard->bucket()
                          << " crashed during commit";
    loop->shard->Crash();
  } else {
    FBSTREAM_LOG(Warning) << loop->node << "/shard-" << loop->shard->bucket()
                          << " commit failed: " << st;
  }
  return false;
}

void Pipeline::AfterCommit(size_t events) {
  continuous_processed_.fetch_add(events, std::memory_order_relaxed);
  const uint64_t commits =
      continuous_commits_.fetch_add(1, std::memory_order_relaxed) + 1;
  if (!manifest_dir_.empty() && options_.snapshot_every_batches > 0 &&
      commits % options_.snapshot_every_batches == 0) {
    SaveOffsetsSnapshot();
  }
}

void Pipeline::ShardLoopMain(ShardLoop* loop) {
  NodeShard* shard = loop->shard;
  MetricsRegistry* metrics = MetricsRegistry::Global();
  Gauge* queue_depth = metrics->GetGauge("stylus.continuous.queue_depth",
                                         loop->node, shard->bucket());
  Counter* stalls = metrics->GetCounter("stylus.continuous.backpressure_stalls",
                                        loop->node, shard->bucket());
  Counter* batches =
      metrics->GetCounter("stylus.continuous.batches", loop->node,
                          shard->bucket());
  Gauge* overlap_inflight =
      metrics->GetGauge("stylus.continuous.overlap_inflight");
  // Monoid shards append partials into a single-threaded buffer during
  // processing and flush it at commit; overlapping the two would race, so
  // they commit on the loop thread.
  const bool inline_commit = commit_pool_ == nullptr ||
                             shard->config().monoid_factory != nullptr;
  const std::string out_category = shard->config().sink != nullptr
                                       ? shard->config().sink->OutputCategory()
                                       : std::string();
  const auto idle =
      std::chrono::microseconds(std::max(1, options_.idle_sleep_micros));

  while (!stop_requested_.load(std::memory_order_acquire) &&
         !ShutdownRequested()) {
    queue_depth->Set(static_cast<int64_t>(shard->ProcessingLag()));
    if (!shard->alive()) {
      // Independent failure (§4.2.2): this loop idles until RecoverAll
      // revives the shard; upstream keeps producing into the durable bus.
      std::this_thread::sleep_for(idle);
      continue;
    }
    if (!out_category.empty() &&
        MaxDownstreamLag(out_category) > options_.max_queue_messages) {
      // Backpressure: the downstream edge is full. Don't poll — the stall
      // makes *this* shard's input back up, which stalls its own upstream
      // in turn, all the way to the source tailer.
      stalls->Add();
      std::this_thread::sleep_for(idle);
      continue;
    }

    loop->pending.fetch_add(1, std::memory_order_acq_rel);
    auto batch_or = shard->ProcessBatch();
    if (!batch_or.ok()) {
      loop->pending.fetch_sub(1, std::memory_order_acq_rel);
      // Aborted = injected crash; ProcessBatch already downed the shard.
      if (!batch_or.status().IsAborted()) {
        FBSTREAM_LOG(Warning) << loop->node << "/shard-" << shard->bucket()
                              << " process failed: " << batch_or.status();
      }
      std::this_thread::sleep_for(idle);
      continue;
    }
    PendingBatch batch = std::move(batch_or).value();
    if (batch.events == 0) {
      loop->pending.fetch_sub(1, std::memory_order_acq_rel);
      // Idle tick: settle the overlapped commit, then run backup
      // maintenance — allowed exactly here because no commit is in flight.
      if (FinishCommit(loop)) shard->MaintainBackups();
      std::this_thread::sleep_for(idle);
      continue;
    }

    const size_t events = batch.events;
    batches->Add();
    if (inline_commit) {
      Status st = shard->CommitBatch(std::move(batch));
      if (st.IsAborted()) {
        FBSTREAM_LOG(Warning) << loop->node << "/shard-" << shard->bucket()
                              << " crashed during commit";
        shard->Crash();
      } else if (!st.ok()) {
        FBSTREAM_LOG(Warning) << loop->node << "/shard-" << shard->bucket()
                              << " commit failed: " << st;
      } else {
        AfterCommit(events);
      }
      loop->pending.fetch_sub(1, std::memory_order_acq_rel);
      continue;
    }

    // §4.2 processing overlap: settle the *previous* batch's commit, hand
    // this one to the commit pool, and immediately loop around to process
    // the next batch while it commits.
    if (!FinishCommit(loop)) {
      // Previous commit crashed or failed the shard; this batch is void (a
      // recovered shard replays or skips it per its semantics).
      loop->pending.fetch_sub(1, std::memory_order_acq_rel);
      continue;
    }
    {
      std::lock_guard<std::mutex> lock(loop->mu);
      loop->commit_inflight = true;
    }
    overlap_inflight->Add(1);
    commit_pool_->Submit(
        [this, loop, events, overlap_inflight,
         batch = std::move(batch)]() mutable {
          Status st = loop->shard->CommitBatch(std::move(batch));
          if (st.ok()) AfterCommit(events);
          overlap_inflight->Add(-1);
          {
            // Notify under the lock: a waiter can only observe the cleared
            // flag after this section releases the mutex, so the notify has
            // finished before the ShardLoop can be considered settled.
            std::lock_guard<std::mutex> lock(loop->mu);
            loop->commit_status = std::move(st);
            loop->commit_inflight = false;
            loop->pending.fetch_sub(1, std::memory_order_acq_rel);
            loop->cv.notify_all();
          }
        });
  }
  // Graceful drain: the in-flight commit completes before the loop exits,
  // so the shard's last act is a completed checkpoint.
  FinishCommit(loop);
  queue_depth->Set(static_cast<int64_t>(shard->ProcessingLag()));
}

bool Pipeline::QuiescentOnce() const {
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (const auto& [name, shards] : nodes_) {
      for (const auto& shard : shards) {
        if (shard->alive() && shard->ProcessingLag() > 0) return false;
      }
    }
  }
  std::lock_guard<std::mutex> loops_lock(loops_mu_);
  for (const auto& loop : loops_) {
    if (loop->pending.load(std::memory_order_acquire) != 0) return false;
  }
  return true;
}

StatusOr<size_t> Pipeline::WaitUntilQuiescent(int64_t timeout_ms) {
  if (!running()) {
    return Status::FailedPrecondition("continuous execution is not running");
  }
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(timeout_ms);
  for (;;) {
    if (ShutdownRequested()) {
      return Status::Cancelled(
          "shutdown requested after draining " +
          std::to_string(continuous_processed_.load(
              std::memory_order_relaxed)) +
          " events");
    }
    const size_t before =
        continuous_processed_.load(std::memory_order_acquire);
    if (QuiescentOnce()) {
      // Double-check with a settle delay: a batch that started after the
      // first check would show as pending or as a processed-count bump.
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
      if (QuiescentOnce() &&
          continuous_processed_.load(std::memory_order_acquire) == before) {
        return before;
      }
    }
    if (std::chrono::steady_clock::now() >= deadline) {
      return Status::DeadlineExceeded(
          "pipeline still consuming after " + std::to_string(timeout_ms) +
          " ms (" +
          std::to_string(
              continuous_processed_.load(std::memory_order_relaxed)) +
          " events processed)");
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
}

std::vector<NodeShard*> Pipeline::Shards(const std::string& node) const {
  std::vector<NodeShard*> out;
  std::lock_guard<std::mutex> lock(mu_);
  auto it = nodes_.find(node);
  if (it == nodes_.end()) return out;
  for (const auto& shard : it->second) out.push_back(shard.get());
  return out;
}

NodeShard* Pipeline::Shard(const std::string& node, int bucket) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = nodes_.find(node);
  if (it == nodes_.end()) return nullptr;
  if (bucket < 0 || static_cast<size_t>(bucket) >= it->second.size()) {
    return nullptr;
  }
  return it->second[static_cast<size_t>(bucket)].get();
}

Status Pipeline::RecoverAll() {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& [name, shards] : nodes_) {
    for (auto& shard : shards) {
      if (!shard->alive()) {
        FBSTREAM_RETURN_IF_ERROR(shard->Recover());
      }
    }
  }
  return Status::OK();
}

Status Pipeline::ReconcileShards() {
  std::lock_guard<std::mutex> lock(mu_);
  bool grew = false;
  for (auto& [name, shards] : nodes_) {
    if (shards.empty()) continue;
    const NodeConfig& config = shards[0]->config();
    const int buckets = scribe_->NumBuckets(config.input_category);
    while (static_cast<int>(shards.size()) < buckets) {
      const int bucket = static_cast<int>(shards.size());
      FBSTREAM_ASSIGN_OR_RETURN(
          auto shard, NodeShard::Create(config, scribe_, clock_, bucket));
      NodeShard* raw = shard.get();
      shards.push_back(std::move(shard));
      grew = true;
      if (running()) {
        // Continuous mode: a new bucket needs a consumer *now*, not at the
        // next round — give the shard its own event loop immediately.
        std::lock_guard<std::mutex> loops_lock(loops_mu_);
        SpawnLoopLocked(name, raw);
      }
    }
  }
  if (grew && !manifest_dir_.empty()) {
    FBSTREAM_RETURN_IF_ERROR(SaveManifestLocked());
  }
  return Status::OK();
}

std::vector<Pipeline::LagReport> Pipeline::GetProcessingLag() const {
  std::vector<LagReport> reports;
  std::lock_guard<std::mutex> lock(mu_);
  for (const std::string& name : node_order_) {
    for (const auto& shard : nodes_.at(name)) {
      reports.push_back(
          LagReport{name, shard->bucket(), shard->ProcessingLag()});
    }
  }
  return reports;
}

std::vector<Pipeline::BackupReport> Pipeline::GetBackupHealth() const {
  std::vector<BackupReport> reports;
  std::lock_guard<std::mutex> lock(mu_);
  for (const std::string& name : node_order_) {
    for (const auto& shard : nodes_.at(name)) {
      reports.push_back(
          BackupReport{name, shard->bucket(), shard->GetBackupHealth()});
    }
  }
  return reports;
}

std::vector<Pipeline::LagReport> Pipeline::GetLagAlerts(
    uint64_t threshold_messages) const {
  std::vector<LagReport> alerts;
  for (const LagReport& r : GetProcessingLag()) {
    if (r.lag_messages >= threshold_messages) alerts.push_back(r);
  }
  return alerts;
}

}  // namespace fbstream::stylus
