#include "core/node.h"

#include <algorithm>

#include "common/fs.h"
#include "common/logging.h"
#include "common/serde.h"

namespace fbstream::stylus {

NodeShard::NodeShard(NodeConfig config, scribe::Scribe* scribe, Clock* clock,
                     int bucket)
    : config_(std::move(config)),
      scribe_(scribe),
      clock_(clock),
      bucket_(bucket),
      tailer_(scribe, config_.input_category, bucket),
      checkpoint_retry_(std::make_unique<RetryPolicy>(clock)) {
  MetricsRegistry* metrics = MetricsRegistry::Global();
  events_processed_metric_ =
      metrics->GetCounter("stylus.events.processed", config_.name, bucket_);
  checkpoints_metric_ = metrics->GetCounter("stylus.checkpoints.completed",
                                            config_.name, bucket_);
  runonce_latency_metric_ =
      metrics->GetHistogram("stylus.runonce.latency_us", config_.name, bucket_);
  hop_scribe_metric_ =
      metrics->GetHistogram("hop.scribe.deliver_us", config_.name, bucket_);
  hop_engine_metric_ =
      metrics->GetHistogram("hop.engine.process_us", config_.name, bucket_);
  hop_storage_metric_ =
      metrics->GetHistogram("hop.storage.commit_us", config_.name, bucket_);
}

StatusOr<std::unique_ptr<NodeShard>> NodeShard::Create(
    const NodeConfig& config, scribe::Scribe* scribe, Clock* clock,
    int bucket) {
  const int factories = (config.stateless_factory != nullptr ? 1 : 0) +
                        (config.stateful_factory != nullptr ? 1 : 0) +
                        (config.monoid_factory != nullptr ? 1 : 0);
  if (factories != 1) {
    return Status::InvalidArgument(config.name +
                                   ": exactly one processor factory required");
  }
  if (!IsSupportedCombination(config.state_semantics,
                              config.output_semantics)) {
    return Status::InvalidArgument(
        config.name + ": unsupported semantics combination (state=" +
        ToString(config.state_semantics) + ", output=" +
        ToString(config.output_semantics) + "); see Figure 8");
  }
  if (config.input_schema == nullptr) {
    return Status::InvalidArgument(config.name + ": input schema required");
  }
  if (!scribe->HasCategory(config.input_category)) {
    return Status::NotFound(config.name + ": input category " +
                            config.input_category);
  }
  if (config.monoid_factory != nullptr) {
    if (config.remote == nullptr || config.monoid_aggregator == nullptr) {
      return Status::InvalidArgument(
          config.name + ": monoid nodes need a remote cluster + aggregator");
    }
    if (config.state_semantics != StateSemantics::kAtLeastOnce) {
      return Status::InvalidArgument(
          config.name +
          ": monoid remote state supports at-least-once state semantics");
    }
  }
  if (config.backend == StateBackend::kRemote && config.remote == nullptr) {
    return Status::InvalidArgument(config.name + ": remote backend needs a "
                                                 "cluster");
  }
  if ((config.backend == StateBackend::kLocal ||
       config.backend == StateBackend::kNone) &&
      config.state_dir.empty() && config.monoid_factory == nullptr) {
    return Status::InvalidArgument(config.name +
                                   ": local backend needs state_dir");
  }
  if (config.output_semantics == OutputSemantics::kExactlyOnce) {
    if (config.sink == nullptr || !config.sink->SupportsTransactions()) {
      return Status::InvalidArgument(
          config.name +
          ": exactly-once output requires a transactional sink (a data "
          "store, not a transport like Scribe)");
    }
  }
  std::unique_ptr<NodeShard> shard(
      new NodeShard(config, scribe, clock, bucket));
  FBSTREAM_RETURN_IF_ERROR(shard->Start());
  return shard;
}

std::string NodeShard::ShardLabel() const {
  return config_.name + "/shard-" + std::to_string(bucket_);
}

std::string NodeShard::RestoreMarkerPath() const {
  return config_.state_dir + "/" + ShardLabel() + "/RESTORE_PENDING";
}

Status NodeShard::OpenStateStore() {
  if (config_.backend == StateBackend::kRemote) {
    store_ = std::make_unique<RemoteStateStore>(config_.remote,
                                                "ckpt/" + ShardLabel());
    return Status::OK();
  }
  const std::string dir = config_.state_dir + "/" + ShardLabel();
  const std::string backup_prefix = "backup/" + ShardLabel();
  const bool local_db_exists = FileExists(dir + "/MANIFEST");
  const bool marker_present = FileExists(RestoreMarkerPath());
  const bool backup_available =
      (config_.restore_state_from_backup || marker_present) &&
      config_.hdfs != nullptr &&
      config_.hdfs->Exists(backup_prefix + "/MANIFEST");
  if ((config_.restore_state_from_backup && !local_db_exists &&
       backup_available) ||
      (marker_present && backup_available)) {
    // "New machine" restart (Fig 10): the local database is gone but an
    // HDFS backup exists. Clear any partial leftovers (an orphan WAL from a
    // kill before the first flush would make RestoreBackup refuse), then
    // rebuild the directory from the backup. The restored checkpoint is the
    // shard's semantics floor; events after the last backup replay or drop
    // per the configured state semantics.
    //
    // A present marker always re-runs the restore down this same path, even
    // when a MANIFEST exists: RestoreBackup writes backup files one by one,
    // so a kill mid-restore can leave a MANIFEST whose referenced files
    // never landed — a directory that must not be opened. The marker
    // guarantees nothing after the restore was reconciled or checkpointed,
    // so wiping and restoring again is always safe, and it covers both a
    // crash mid-restore and a crash between restore and reconciliation.
    if (marker_present) {
      FBSTREAM_LOG(Warning)
          << ShardLabel()
          << ": re-running an interrupted or unreconciled backup restore";
    }
    FBSTREAM_RETURN_IF_ERROR(RemoveAll(dir));
    // Durable marker, written before the restore materializes anything: a
    // restored directory holds a *stale* offset (the backup floor), and
    // Start() must reconcile it with the bus before it can be trusted. If
    // this process dies between the restore and that reconciliation, the
    // next incarnation would otherwise mistake the restored directory for
    // an authoritative local restart and replay — re-emitting output that
    // was already on the bus before the wipe. The marker survives the
    // crash; Start() removes it only after reconciliation is checkpointed.
    FBSTREAM_RETURN_IF_ERROR(CreateDirs(dir));
    FBSTREAM_RETURN_IF_ERROR(WriteFileDurable(RestoreMarkerPath(), "1"));
    FBSTREAM_RETURN_IF_ERROR(
        LocalStateStore::RestoreFromHdfs(config_.hdfs, backup_prefix, dir));
    FBSTREAM_LOG(Info) << ShardLabel() << ": restored local state from HDFS "
                       << backup_prefix;
    restored_from_backup_ = true;
    MetricsRegistry::Global()
        ->GetCounter("recovery.shard.hdfs_restores", config_.name, bucket_)
        ->Add();
  } else if (marker_present) {
    // Marker present but the backup is gone (pruned between incarnations —
    // it existed when the marker was written). Whatever the directory
    // holds is a partial or unreconciled restore that was never
    // checkpointed against the bus, so it cannot be trusted; start the
    // shard empty rather than crash-looping on a torn database.
    FBSTREAM_LOG(Warning) << ShardLabel()
                          << ": restore marker present but no backup exists; "
                             "discarding the partial restore";
    FBSTREAM_RETURN_IF_ERROR(RemoveAll(dir));
  } else if (config_.restore_state_from_backup && local_db_exists) {
    MetricsRegistry::Global()
        ->GetCounter("recovery.shard.local_restarts", config_.name, bucket_)
        ->Add();
  }
  FBSTREAM_ASSIGN_OR_RETURN(
      store_, LocalStateStore::Open(dir, config_.hdfs, backup_prefix, clock_));
  return Status::OK();
}

Status NodeShard::Start() {
  if (config_.monoid_factory != nullptr) {
    // Monoid nodes keep keyed state in the remote DB; the checkpoint store
    // holds only the offset.
    store_ = std::make_unique<RemoteStateStore>(config_.remote,
                                                "ckpt/" + ShardLabel());
    monoid_ = config_.monoid_factory();
    monoid_state_ = std::make_unique<RemoteMonoidState>(
        config_.remote, config_.monoid_aggregator.get(),
        "mono/" + config_.name, config_.remote_mode);
  } else {
    FBSTREAM_RETURN_IF_ERROR(OpenStateStore());
    if (config_.stateless_factory != nullptr) {
      stateless_ = config_.stateless_factory();
    } else {
      stateful_ = config_.stateful_factory();
    }
  }
  FBSTREAM_ASSIGN_OR_RETURN(Checkpoint cp, store_->Load());
  had_checkpoint_offset_ = cp.has_offset;
  if (cp.has_offset) {
    tailer_.Seek(cp.offset);
  } else {
    tailer_.Seek(0);
  }
  if (restored_from_backup_ &&
      config_.output_semantics == OutputSemantics::kAtMostOnce) {
    // An HDFS backup can be up to backup_every_checkpoints behind the last
    // checkpoint, and output for that window was already emitted to the bus
    // before the machine was wiped. Replaying from the restored offset would
    // re-emit it — at-most-once prefers loss, so resume at the live tail and
    // persist that position before processing anything (another crash before
    // the first checkpoint must not rediscover the stale offset).
    FBSTREAM_RETURN_IF_ERROR(FastForwardInputToTail());
  }
  if (restored_from_backup_ && FileExists(RestoreMarkerPath())) {
    // Reconciliation is durable (at-most-once shards just checkpointed the
    // live tail; other semantics treat the backup floor as authoritative),
    // so the restored directory is now safe to resume from on a plain local
    // restart.
    FBSTREAM_RETURN_IF_ERROR(RemoveFile(RestoreMarkerPath()));
  }
  if (stateful_ != nullptr && cp.has_state && !cp.state.empty()) {
    FBSTREAM_RETURN_IF_ERROR(stateful_->RestoreState(cp.state));
  }
  alive_ = true;
  return Status::OK();
}

Status NodeShard::FastForwardInputToTail() {
  FBSTREAM_ASSIGN_OR_RETURN(
      const uint64_t tail,
      scribe_->NextSequence(config_.input_category, bucket_));
  if (tail <= tailer_.offset()) return Status::OK();
  FBSTREAM_LOG(Info) << ShardLabel()
                     << ": at-most-once recovery fast-forwards input from "
                     << tailer_.offset() << " to tail " << tail
                     << " (dropping the replay window)";
  FBSTREAM_ASSIGN_OR_RETURN(Checkpoint cp, store_->Load());
  FBSTREAM_RETURN_IF_ERROR(store_->SaveCheckpoint(config_.state_semantics,
                                                  cp.state, tail, nullptr));
  MetricsRegistry::Global()
      ->GetCounter("recovery.shard.amo_fast_forwards", config_.name, bucket_)
      ->Add();
  tailer_.Seek(tail);
  return Status::OK();
}

void NodeShard::Crash() {
  // Everything in memory dies; only the durable checkpoint store survives.
  stateless_.reset();
  stateful_.reset();
  monoid_.reset();
  monoid_state_.reset();
  store_.reset();
  watermark_ = WatermarkEstimator();
  // Degraded-mode tracking is in-memory too: close the episode (time counts
  // up to the crash) and forget the pending queue. If HDFS is still down
  // after recovery, the next scheduled backup re-detects it, and the first
  // successful full-state upload covers whatever was pending.
  ExitDegraded();
  pending_backups_.clear();
  pending_backup_count_.store(0, std::memory_order_release);
  alive_ = false;
}

Status NodeShard::Recover() {
  if (alive_) return Status::OK();
  return Start();
}

bool NodeShard::MaybeCrash(FailurePoint point) {
  if (failure_ != nullptr && failure_(point)) {
    Crash();
    return true;
  }
  return false;
}

StatusOr<std::vector<Event>> NodeShard::PollEvents() {
  std::vector<scribe::Message> messages =
      tailer_.Poll(config_.checkpoint_every_events);
  if (config_.checkpoint_every_bytes > 0 && !messages.empty()) {
    size_t bytes = 0;
    size_t keep = 0;
    for (; keep < messages.size(); ++keep) {
      bytes += messages[keep].payload.size();
      if (bytes >= config_.checkpoint_every_bytes) {
        ++keep;
        break;
      }
    }
    if (keep < messages.size()) {
      tailer_.Seek(messages[keep].sequence);  // Push back the remainder.
      messages.resize(keep);
    }
  }
  TextRowCodec codec(config_.input_schema);
  const Micros now = clock_->NowMicros();
  std::vector<Event> events;
  events.reserve(messages.size());
  for (scribe::Message& m : messages) {
    auto row = codec.Decode(m.payload);
    if (!row.ok()) {
      FBSTREAM_LOG(Warning) << ShardLabel() << ": bad row: " << row.status();
      continue;
    }
    Event e;
    e.row = std::move(row).value();
    e.arrival_time = now;
    e.event_time = config_.event_time_column.empty()
                       ? now
                       : e.row.Get(config_.event_time_column).CoerceInt64();
    e.sequence = m.sequence;
    e.trace_id = m.trace_id;
    if (e.trace_id != 0) {
      // Scribe hop: batching + delivery delay, measured in *stream* time
      // (write -> arrival) — the seconds-scale figure of §4.2.1, visible
      // under SimClock as well as wall clock.
      const Micros deliver = std::max<Micros>(0, now - m.write_time);
      hop_scribe_metric_->Record(static_cast<uint64_t>(deliver));
      Tracer::Global()->RecordSpan(SpanRecord{e.trace_id, "scribe.deliver",
                                              config_.name, bucket_,
                                              m.write_time, deliver});
    }
    watermark_.Observe(e.event_time, e.arrival_time);
    events.push_back(std::move(e));
  }
  return events;
}

Status NodeShard::EmitRows(const std::vector<Row>& rows) {
  if (config_.sink == nullptr || rows.empty()) return Status::OK();
  return config_.sink->EmitBatch(rows);
}

StatusOr<size_t> NodeShard::RunOnce() {
  if (!alive_) return Status::FailedPrecondition(ShardLabel() + " is down");
  // Resync before processing, even when no events are pending: a recovered
  // HDFS drains the backup backlog on the next round regardless of whether
  // traffic is still flowing.
  DrainPendingBackups();
  FBSTREAM_ASSIGN_OR_RETURN(PendingBatch batch, ProcessBatch());
  const size_t events = batch.events;
  if (events == 0) return size_t{0};
  const Status st = CommitBatch(std::move(batch));
  if (st.IsAborted()) {
    // CommitBatch never crashes the shard itself (a commit-pool thread must
    // not destroy the processor); on this synchronous path we are the
    // shard's executing thread, so apply the crash here.
    Crash();
    return st;
  }
  FBSTREAM_RETURN_IF_ERROR(st);
  return events;
}

StatusOr<PendingBatch> NodeShard::ProcessBatch() {
  if (!alive_) return Status::FailedPrecondition(ShardLabel() + " is down");
  FBSTREAM_ASSIGN_OR_RETURN(std::vector<Event> events, PollEvents());
  PendingBatch batch;
  if (events.empty()) return batch;
  batch.events = events.size();

  // Sampled events present in this batch; the batch-level engine/storage
  // durations are attributed to each of them (sampled profiling).
  if (Tracer::Global()->enabled()) {
    for (const Event& e : events) {
      if (e.trace_id != 0) batch.traced.push_back(e.trace_id);
    }
  }

  ScopedLatencyTimer process_timer(nullptr);
  if (monoid_ != nullptr) {
    batch.monoid = true;
    std::vector<MonoidProcessor::Contribution> contributions;
    for (const Event& event : events) {
      contributions.clear();
      monoid_->Process(event, &contributions);
      for (auto& [key, partial] : contributions) {
        monoid_state_->Append(key, partial);
      }
    }
  } else {
    // §4.3.1 activity 1+2: process input events (side-effect-free w.r.t.
    // the checkpoint) and generate output, collected over the whole batch.
    // At-least-once output is emitted right here, in one sink call, before
    // the checkpoint; otherwise it stays buffered in the batch and is
    // synchronized with the checkpoint in CommitBatch.
    for (const Event& event : events) {
      if (stateless_ != nullptr) {
        stateless_->Process(event, &batch.buffered);
      } else {
        stateful_->Process(event, &batch.buffered);
      }
    }
    if (stateful_ != nullptr) {
      stateful_->OnCheckpoint(clock_->NowMicros(), &batch.buffered);
    }
    if (config_.output_semantics == OutputSemantics::kAtLeastOnce) {
      FBSTREAM_RETURN_IF_ERROR(EmitRows(batch.buffered));
      batch.buffered.clear();
    }
  }

  batch.process_micros = process_timer.ElapsedMicros();
  if (!batch.traced.empty()) {
    const Micros now = clock_->NowMicros();
    for (const uint64_t id : batch.traced) {
      hop_engine_metric_->Record(batch.process_micros);
      Tracer::Global()->RecordSpan(SpanRecord{
          id, "engine.process", config_.name, bucket_, now,
          static_cast<Micros>(batch.process_micros)});
    }
  }

  if (MaybeCrash(FailurePoint::kAfterProcessing)) {
    return Status::Aborted("injected crash after processing");
  }

  // Snapshot what the commit needs *now*, on the shard thread: continuous
  // mode starts processing the next batch while this one commits, so the
  // commit must not read live processor or tailer state.
  if (stateful_ != nullptr) batch.state = stateful_->SerializeState();
  batch.offset = tailer_.offset();
  return batch;
}

Status NodeShard::CommitBatch(PendingBatch batch) {
  if (batch.events == 0) return Status::OK();
  ScopedLatencyTimer commit_timer(nullptr);

  if (batch.monoid) {
    // Flush partials, then save the offset: at-least-once state semantics
    // (a crash between the two replays and re-merges this interval).
    FBSTREAM_RETURN_IF_ERROR(monoid_state_->Flush());
    if (failure_ != nullptr &&
        failure_(FailurePoint::kBetweenCheckpointWrites)) {
      return Status::Aborted("injected crash before offset save");
    }
    FBSTREAM_RETURN_IF_ERROR(store_->SaveCheckpoint(
        StateSemantics::kAtLeastOnce, "", batch.offset, nullptr));
  } else if (config_.output_semantics == OutputSemantics::kExactlyOnce) {
    lsm::WriteBatch output;
    FBSTREAM_RETURN_IF_ERROR(
        config_.sink->AppendToTransaction(batch.buffered, &output));
    FBSTREAM_RETURN_IF_ERROR(checkpoint_retry_->Run("checkpoint.save", [&] {
      return store_->SaveCheckpointWithOutput(batch.state, batch.offset,
                                              output);
    }));
  } else {
    // Retrying a half-written checkpoint is safe: both writes are idempotent
    // Puts of this interval's values. Injected crashes return Aborted, which
    // is not retryable, so failure-semantics tests still observe them.
    FBSTREAM_RETURN_IF_ERROR(checkpoint_retry_->Run("checkpoint.save", [&] {
      return store_->SaveCheckpoint(config_.state_semantics, batch.state,
                                    batch.offset,
                                    [this](FailurePoint point) {
                                      return failure_ != nullptr &&
                                             failure_(point);
                                    });
    }));
    if (config_.output_semantics == OutputSemantics::kAtMostOnce) {
      // Checkpoint first, then emit: a crash here loses this batch's output
      // (data loss preferred to duplication).
      if (failure_ != nullptr && failure_(FailurePoint::kAfterCheckpoint)) {
        return Status::Aborted("injected crash after checkpoint");
      }
      FBSTREAM_RETURN_IF_ERROR(EmitRows(batch.buffered));
    }
  }

  const uint64_t commit_us = commit_timer.ElapsedMicros();
  if (!batch.traced.empty()) {
    const Micros now = clock_->NowMicros();
    for (const uint64_t id : batch.traced) {
      hop_storage_metric_->Record(commit_us);
      Tracer::Global()->RecordSpan(SpanRecord{
          id, "storage.commit", config_.name, bucket_, now,
          static_cast<Micros>(commit_us)});
    }
  }

  // Only non-empty batches are recorded, so the histogram reflects real
  // processing intervals rather than idle polls.
  runonce_latency_metric_->Record(batch.process_micros + commit_us);
  ++checkpoints_completed_;
  checkpoints_metric_->Add();
  events_processed_metric_->Add(batch.events);
  MaybeBackup();
  return Status::OK();
}

void NodeShard::MaintainBackups() {
  if (!alive_) return;
  DrainPendingBackups();
}

bool NodeShard::BackupConfigured() const {
  // Monoid nodes checkpoint remotely regardless of `backend`.
  return config_.backend == StateBackend::kLocal && config_.hdfs != nullptr &&
         config_.backup_every_checkpoints > 0 &&
         config_.monoid_factory == nullptr;
}

void NodeShard::MaybeBackup() {
  if (!BackupConfigured()) return;
  const uint64_t generation =
      checkpoints_completed_.load(std::memory_order_relaxed);
  if (generation % static_cast<uint64_t>(config_.backup_every_checkpoints) !=
      0) {
    return;
  }
  if (!pending_backups_.empty()) {
    // Already degraded. Queue this generation and leave the recovery probe
    // to DrainPendingBackups — no point hammering a down HDFS once per
    // checkpoint on the hot path.
    EnqueuePendingBackup(generation);
    return;
  }
  auto* local = static_cast<LocalStateStore*>(store_.get());
  const Status st = local->BackupToHdfs();
  if (st.ok()) {
    backups_completed_.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  // "If HDFS is not available for writes, processing continues without
  // remote backup copies." The miss is queued for resync once it recovers.
  FBSTREAM_LOG(Warning) << ShardLabel()
                        << ": hdfs backup missed, degraded mode: " << st;
  EnqueuePendingBackup(generation);
  EnterDegraded();
}

void NodeShard::DrainPendingBackups() {
  if (pending_backups_.empty() || !BackupConfigured()) return;
  auto* local = static_cast<LocalStateStore*>(store_.get());
  if (!local->BackupToHdfs().ok()) return;  // Still down; try next round.
  // Backups are full-state copies, so one successful upload of the current
  // DB covers every missed generation at once.
  backups_resynced_.fetch_add(pending_backups_.size(),
                              std::memory_order_relaxed);
  FBSTREAM_LOG(Info) << ShardLabel() << ": hdfs recovered, resynced "
                     << pending_backups_.size() << " pending backup(s)";
  pending_backups_.clear();
  pending_backup_count_.store(0, std::memory_order_release);
  ExitDegraded();
}

void NodeShard::RequestBackupResync() {
  if (!BackupConfigured()) return;
  if (!pending_backups_.empty()) return;  // Already queued.
  EnqueuePendingBackup(checkpoints_completed_.load(std::memory_order_relaxed));
}

void NodeShard::EnqueuePendingBackup(uint64_t generation) {
  if (config_.max_pending_backups > 0 &&
      pending_backups_.size() >= config_.max_pending_backups) {
    pending_backups_.pop_front();
    backups_dropped_.fetch_add(1, std::memory_order_relaxed);
  }
  pending_backups_.push_back(generation);
  pending_backup_count_.store(pending_backups_.size(),
                              std::memory_order_release);
}

void NodeShard::EnterDegraded() {
  if (backup_degraded_.exchange(true, std::memory_order_acq_rel)) return;
  degraded_since_.store(clock_->NowMicros(), std::memory_order_release);
}

void NodeShard::ExitDegraded() {
  if (!backup_degraded_.exchange(false, std::memory_order_acq_rel)) return;
  const Micros since = degraded_since_.exchange(0, std::memory_order_acq_rel);
  if (since > 0) {
    degraded_micros_total_.fetch_add(clock_->NowMicros() - since,
                                     std::memory_order_relaxed);
  }
}

BackupHealth NodeShard::GetBackupHealth() const {
  BackupHealth h;
  h.degraded = backup_degraded_.load(std::memory_order_acquire);
  h.degraded_since = degraded_since_.load(std::memory_order_acquire);
  h.degraded_micros_total =
      degraded_micros_total_.load(std::memory_order_relaxed);
  h.pending_backups = pending_backup_count_.load(std::memory_order_acquire);
  h.backups_completed = backups_completed_.load(std::memory_order_relaxed);
  h.backups_resynced = backups_resynced_.load(std::memory_order_relaxed);
  h.backups_dropped = backups_dropped_.load(std::memory_order_relaxed);
  return h;
}


uint64_t NodeShard::ProcessingLag() const { return tailer_.LagMessages(); }

Micros NodeShard::LowWatermark() const {
  return watermark_.EstimateLowWatermark(clock_->NowMicros(),
                                         config_.watermark_confidence);
}

}  // namespace fbstream::stylus
