#ifndef FBSTREAM_STORAGE_LSM_DB_H_
#define FBSTREAM_STORAGE_LSM_DB_H_

#include <array>
#include <atomic>
#include <condition_variable>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <set>
#include <shared_mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/status.h"
#include "storage/lsm/block_cache.h"
#include "storage/lsm/compaction.h"
#include "storage/lsm/internal_key.h"
#include "storage/lsm/memtable.h"
#include "storage/lsm/merge_operator.h"
#include "storage/lsm/sstable.h"
#include "storage/lsm/table_cache.h"
#include "storage/lsm/version.h"
#include "storage/lsm/version_set.h"
#include "storage/lsm/wal.h"
#include "storage/lsm/write_batch.h"

namespace fbstream::lsm {

// Embedded LSM key-value store — the RocksDB stand-in the paper's systems
// build on (§2.5 Laser "built on top of RocksDB", §4.4.2 local state
// saving, ZippyDB "built on top of RocksDB"). Features implemented:
// write-ahead logging with crash recovery and group commit, a lock-free
// skiplist memtable flushed to block-based on-disk SSTs through a shared
// LRU block cache, multi-level size-tiered compaction driven from a
// durable VersionEdit MANIFEST, an open-file table cache, sequence-number
// snapshots, merging iterators, custom merge operators (the Figure 12
// append-only optimization), and a backup engine (the Figure 10 HDFS
// remote backup).
//
// Concurrency model (see DESIGN.md "LSM concurrency model" and "Leveled
// compaction"): reads are lock-free against an atomically swapped
// immutable Version; writes batch through a leader-elected writer group;
// flushes and compactions run on two separate background threads — a flush
// is never queued behind a long merge, which is what keeps the write path
// stall-free under sustained ingest.
struct DbOptions {
  // Flush the memtable to an L0 SST when it exceeds this size.
  size_t memtable_bytes = 4u << 20;
  // Compact L0 into L1 once L0 holds this many files.
  int l0_compaction_trigger = 4;
  // Soft backpressure: pace each write with one write_delay_micros sleep
  // while L0 holds this many files, or while the flush is behind and the
  // active memtable is three-quarters full. Shedding a little foreground
  // load early (and yielding the CPU to the flush/compaction threads) is
  // what keeps the hard stall below from ever being reached.
  int l0_slowdown_files = 8;
  uint64_t write_delay_micros = 1000;  // 0 disables the soft tier.
  // Stall writers while L0 holds this many files (compaction is behind).
  int l0_stall_files = 12;
  // Split compaction output files at roughly this size.
  size_t target_sst_bytes = 8u << 20;
  // Size target for L1; level n holds level_size_multiplier times level
  // n-1. A level over target is compacted one file at a time into the next.
  uint64_t level1_max_bytes = 8ull << 20;
  double level_size_multiplier = 10.0;
  // Token-bucket budget for low-priority (deep-level) compaction writes.
  // Flushes and L0->L1 merges bypass it. 0 disables throttling.
  uint64_t compaction_rate_bytes_per_sec = 128ull << 20;
  // Open SST handles (fd + index + bloom) cached per Db.
  size_t table_cache_handles = 256;
  // Rewrite the MANIFEST as a one-record snapshot once it outgrows this.
  uint64_t manifest_rotate_bytes = 1ull << 20;
  // Target uncompressed size of SST data blocks.
  size_t block_bytes = 4096;
  // Shared cache for decoded SST blocks; nullptr uses the process-wide
  // BlockCache::Default(). Multiple Dbs (shards) may share one cache.
  std::shared_ptr<BlockCache> block_cache;
  // Optional merge operator enabling Db::Merge().
  std::shared_ptr<const MergeOperator> merge_operator;
};

// A consistent read view pinned at a sequence number. Obtained from
// Db::GetSnapshot(); must be released.
class DbSnapshot {
 public:
  SequenceNumber sequence() const { return sequence_; }

 private:
  friend class Db;
  explicit DbSnapshot(SequenceNumber s) : sequence_(s) {}
  SequenceNumber sequence_;
};

class Db {
 public:
  // Opens (creating or recovering) a database in `dir`. Recovery replays
  // the MANIFEST's VersionEdit log into the level structure (verifying
  // every referenced SST), replays all WALs into the memtable, and removes
  // orphaned files from interrupted flushes/compactions. A MANIFEST in an
  // unknown format is Status::Corruption (nothing is migrated). A fresh
  // directory writes no MANIFEST until the first flush — its absence is
  // the supervisor's "no local database" signal.
  static StatusOr<std::unique_ptr<Db>> Open(const DbOptions& options,
                                            const std::string& dir);

  ~Db();
  Db(const Db&) = delete;
  Db& operator=(const Db&) = delete;

  Status Put(std::string_view key, std::string_view value);
  Status Delete(std::string_view key);
  Status Merge(std::string_view key, std::string_view operand);
  // Applies the batch atomically (one WAL record, consecutive sequences).
  // Thread-safe; concurrent writers are grouped into a single WAL append
  // (group commit) by a leader writer.
  Status Write(const WriteBatch& batch);

  // Lock-free: reads the current Version without touching the DB mutex.
  StatusOr<std::string> Get(std::string_view key) const;
  StatusOr<std::string> Get(std::string_view key,
                            const DbSnapshot* snapshot) const;

  // Same versioned lock-free read protocol as Get(), but resolves into
  // `*value` (reusing its capacity) through a thread-local lookup scratch,
  // so a hot read loop does no per-call allocation once buffers are warm.
  // This is the Laser serving path (§2.5 "high query throughput, low
  // (millisecond) latency"). `*value` is unspecified on non-OK.
  Status GetInto(std::string_view key, std::string* value) const;

  // Resolved forward iteration over live (key, value) pairs: version
  // selection, merge resolution, and tombstone skipping already applied.
  // Lock-free: pins the Version current at creation time (acquiring every
  // table through the table cache up front) and streams lazily through the
  // block cache (no upfront materialization).
  class Iterator {
   public:
    struct Source;  // Opaque polymorphic cursor over a memtable or SST.

    ~Iterator();
    Iterator(Iterator&&) noexcept;
    Iterator& operator=(Iterator&&) noexcept;

    bool Valid() const { return valid_; }
    const std::string& key() const { return key_; }
    const std::string& value() const { return value_; }
    void Next();
    void Seek(std::string_view target);
    void SeekToFirst();
    // Non-OK if a table failed to open at construction; the iterator is
    // permanently invalid then.
    const Status& status() const { return status_; }

   private:
    friend class Db;
    Iterator(std::shared_ptr<const Version> version, SequenceNumber read_seq,
             const MergeOperator* merge_op);
    // Positions on the next resolved visible key at or after the current
    // source cursors.
    void ResolveNext();

    std::shared_ptr<const Version> version_;  // Keeps sources alive.
    std::vector<std::unique_ptr<Source>> sources_;
    SequenceNumber read_seq_ = 0;
    const MergeOperator* merge_op_ = nullptr;
    bool valid_ = false;
    Status status_;
    std::string key_;
    std::string value_;
  };

  Iterator NewIterator(const DbSnapshot* snapshot = nullptr) const;

  // Persists the memtable as an L0 SST and retires its WAL. Synchronous:
  // returns after background maintenance fully drains.
  Status Flush();
  // Flushes, then merges every file on every level into the bottom-most
  // non-empty level (a full major compaction). Synchronous.
  Status CompactAll();

  const DbSnapshot* GetSnapshot();
  void ReleaseSnapshot(const DbSnapshot* snapshot);

  SequenceNumber LatestSequence() const;

  // Backup engine (paper Fig 10: "The local database is then copied
  // asynchronously to HDFS ... using RocksDB's backup engine"). Flushes,
  // then streams every live file (all levels + MANIFEST) through
  // `sink(name, contents)`.
  Status CreateBackup(
      const std::function<Status(const std::string& name,
                                 const std::string& contents)>& sink);
  // Restores a backup into `dir` (which must not already hold a database):
  // `list()` names the files, `read(name)` returns contents.
  static Status RestoreBackup(
      const std::function<StatusOr<std::vector<std::string>>()>& list,
      const std::function<StatusOr<std::string>(const std::string&)>& read,
      const std::string& dir);

  // Convenience local-directory backup/restore used by tests.
  Status CreateBackupToDir(const std::string& backup_dir);
  static Status RestoreBackupFromDir(const std::string& backup_dir,
                                     const std::string& dir);

  // Point lookups resolved per level are counted only in the registry
  // (lsm.level{n}.reads).
  struct LevelStats {
    int files = 0;
    uint64_t bytes = 0;
  };
  struct Stats {
    size_t memtable_bytes = 0;
    size_t memtable_entries = 0;
    uint64_t flushes = 0;
    uint64_t compactions = 0;
    uint64_t write_stalls = 0;  // All stalled writes (memtable + L0).
    // Stalls charged to L0 reaching l0_stall_files — the condition leveled
    // compaction (L0-first picking, deep-merge preemption) exists to
    // prevent. Memtable backpressure (flush behind) is counted only in
    // write_stalls.
    uint64_t write_stalls_l0 = 0;
    // Writes paced by the soft-backpressure tier (one bounded sleep, no
    // blocking wait). Smooth pacing, not a stall.
    uint64_t write_delays = 0;
    std::array<LevelStats, kNumLevels> levels;
    int num_levels = 0;  // Deepest non-empty level + 1.
    uint64_t total_sst_bytes = 0;
    // Amplification inputs: user payload accepted, bytes written by
    // flushes, bytes read/written by compactions.
    uint64_t user_bytes_written = 0;
    uint64_t bytes_flushed = 0;
    uint64_t compaction_bytes_read = 0;
    uint64_t compaction_bytes_written = 0;
  };
  Stats GetStats() const;

  const std::string& dir() const { return dir_; }

 private:
  // One queued writer; the front of the queue is the group leader.
  struct Writer {
    explicit Writer(const WriteBatch* b) : batch(b) {}
    const WriteBatch* batch;
    Status status;
    bool done = false;
    std::condition_variable cv;
  };

  Db(DbOptions options, std::string dir);

  Status RecoverLocked();
  // Rebuilds the immutable Version from current state and publishes it.
  void PublishVersionLocked();
  // The writer-queue protocol behind Write/Flush/CompactAll. A null batch is
  // a "seal the memtable" request that carries no data.
  Status WriteImpl(const WriteBatch* batch);
  // Blocks (releasing mu_) until the active memtable has room, switching
  // memtables and scheduling a flush as needed. With `force`, seals a
  // non-empty memtable regardless of size. Returns sticky bg errors.
  Status MakeRoomForWriteLocked(std::unique_lock<std::mutex>& lk, bool force);
  // Seals the active memtable as immutable, opens a fresh WAL, and wakes
  // the flush thread. Requires imm_ == nullptr.
  Status SwitchMemtableLocked();
  bool CompactionPendingLocked() const;
  bool MaintenanceIdleLocked() const;

  void FlushThread();
  void CompactThread();
  void BackgroundFlushLocked(std::unique_lock<std::mutex>& lk);
  // One picked (or forced) compaction: merge outside mu_, install the
  // VersionEdit under mu_, unlink inputs.
  void BackgroundCompactLocked(std::unique_lock<std::mutex>& lk,
                               const CompactionPick& pick, bool forced);
  // The full-merge pick behind CompactAll: all files, every level, into the
  // bottom-most non-empty level. pick.level == -1 when there is nothing to
  // merge.
  CompactionPick ForcedPickLocked() const;
  uint64_t AllocFileNumber();

  std::string SstPath(uint64_t number) const;
  std::string WalPath(uint64_t number) const;
  StatusOr<std::string> ResolveLookup(std::string_view key,
                                      const LookupState& state) const;
  void CountLevelRead(int hit_level) const;

  DbOptions options_;
  std::string dir_;
  std::shared_ptr<BlockCache> cache_;
  std::shared_ptr<TableCache> table_cache_;
  // Deferred unlink of compacted-away SSTs; shared with every published
  // Version's deleter so collection survives Db teardown.
  std::shared_ptr<FileGc> gc_;
  RateLimiter rate_limiter_;
  // Publish counter for FileGc epochs (guarded by mu_; publishes only
  // happen under mu_).
  uint64_t publish_epoch_ = 0;

  // --- Read plane (no mu_) -------------------------------------------------
  // Highest sequence whose write is fully applied (WAL + memtable). Readers
  // load this FIRST (acquire), then the current version: every published
  // version contains all data up to the sequence published before it.
  std::atomic<SequenceNumber> visible_sequence_{0};
  // The published superstructure. Readers only ever take the shared side of
  // version_mu_, and only for the pointer copy — never mu_, so they can't
  // block behind writers or maintenance. (std::atomic<std::shared_ptr>
  // would drop even that, but libstdc++'s _Sp_atomic guards its pointer
  // with a spinlock whose load-side unlock is relaxed, which TSan cannot
  // see a happens-before through; a reader-writer lock is exactly as
  // contended here — publishes happen per memtable switch, not per write.)
  std::shared_ptr<const Version> CurrentVersion() const;
  mutable std::shared_mutex version_mu_;
  std::shared_ptr<const Version> current_;

  // --- Control plane (mu_) ------------------------------------------------
  mutable std::mutex mu_;
  std::deque<Writer*> writers_;       // Front is the group leader.
  std::shared_ptr<MemTable> mem_;     // Active memtable.
  std::shared_ptr<const MemTable> imm_;  // Sealed, awaiting flush.
  std::vector<uint64_t> mem_wals_;    // WAL files covering mem_.
  std::vector<uint64_t> imm_wals_;    // WAL files covering imm_.
  std::unique_ptr<WalWriter> wal_;    // Active log (last of mem_wals_).
  SequenceNumber last_allocated_ = 0;  // Sequence allocation cursor.
  VersionSet versions_;               // Levels + durable MANIFEST.
  std::multiset<SequenceNumber> live_snapshots_;
  uint64_t flushes_ = 0;
  uint64_t compactions_ = 0;
  uint64_t write_stalls_ = 0;
  uint64_t write_stalls_l0_ = 0;
  uint64_t write_delays_ = 0;
  uint64_t user_bytes_written_ = 0;
  uint64_t bytes_flushed_ = 0;
  uint64_t compaction_bytes_read_ = 0;
  uint64_t compaction_bytes_written_ = 0;

  // --- Maintenance threads ------------------------------------------------
  // Flush and compaction run on separate threads so a memtable flush (the
  // operation writers stall on) is never queued behind a multi-file merge.
  std::thread flush_thread_;
  std::thread compact_thread_;
  std::condition_variable flush_cv_;    // Wakes the flush thread.
  std::condition_variable compact_cv_;  // Wakes the compaction thread.
  std::condition_variable done_cv_;     // Signals waiters: bg state changed.
  bool flush_active_ = false;
  bool compact_active_ = false;
  bool force_compact_ = false;  // CompactAll requested.
  bool shutdown_ = false;
  std::atomic<bool> cancel_{false};
  // Set by the flush thread when L0 reaches its compaction trigger; makes a
  // throttled low-priority merge yield so the compact thread can serve L0
  // before the stall limit is reached. Cleared when an L0 job is planned.
  std::atomic<bool> l0_pressure_{false};
  Status bg_error_;  // Sticky: a failed flush/compaction halts maintenance.
};

}  // namespace fbstream::lsm

#endif  // FBSTREAM_STORAGE_LSM_DB_H_
