#include "storage/lsm/db.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <set>
#include <thread>
#include <unordered_map>

#include "common/fault.h"
#include "common/fs.h"
#include "common/logging.h"
#include "common/metrics.h"

namespace fbstream::lsm {

namespace {
constexpr char kManifestFile[] = "MANIFEST";
// Writer groups are capped so one giant batch cannot starve followers of
// latency behind a single enormous fwrite.
constexpr size_t kMaxGroupBytes = 1u << 20;

// All-digits check for recovery-time filename parsing.
bool ParseNumber(std::string_view digits, uint64_t* out) {
  if (digits.empty()) return false;
  uint64_t n = 0;
  for (const char c : digits) {
    if (c < '0' || c > '9') return false;
    n = n * 10 + static_cast<uint64_t>(c - '0');
  }
  *out = n;
  return true;
}

// Per-level counters are named at runtime ("lsm.compaction.level3.count");
// the registry interns them, so formatting here is off the hot path.
Counter* LevelCounter(const char* fmt, int level) {
  char name[64];
  snprintf(name, sizeof(name), fmt, level);
  return MetricsRegistry::Global()->GetCounter(name);
}
}  // namespace

Db::Db(DbOptions options, std::string dir)
    : options_(std::move(options)),
      dir_(std::move(dir)),
      cache_(options_.block_cache != nullptr ? options_.block_cache
                                             : BlockCache::Default()),
      table_cache_(std::make_shared<TableCache>(
          dir_, cache_, options_.table_cache_handles)),
      gc_(std::make_shared<FileGc>(dir_, table_cache_)),
      rate_limiter_(options_.compaction_rate_bytes_per_sec),
      versions_(dir_, options_.manifest_rotate_bytes) {}

Db::~Db() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    shutdown_ = true;
  }
  cancel_.store(true, std::memory_order_relaxed);
  flush_cv_.notify_all();
  compact_cv_.notify_all();
  if (flush_thread_.joinable()) flush_thread_.join();
  if (compact_thread_.joinable()) compact_thread_.join();
  // An unflushed memtable (and any abandoned imm_) is recovered from its
  // retained WAL files on the next Open; a cancelled merge leaves orphan
  // outputs for the next Open's GC.
}

StatusOr<std::unique_ptr<Db>> Db::Open(const DbOptions& options,
                                       const std::string& dir) {
  FBSTREAM_RETURN_IF_ERROR(CreateDirs(dir));
  std::unique_ptr<Db> db(new Db(options, dir));
  {
    std::lock_guard<std::mutex> lock(db->mu_);
    FBSTREAM_RETURN_IF_ERROR(db->RecoverLocked());
  }
  db->flush_thread_ = std::thread(&Db::FlushThread, db.get());
  db->compact_thread_ = std::thread(&Db::CompactThread, db.get());
  return db;
}

std::string Db::SstPath(uint64_t number) const {
  return SstFilePath(dir_, number);
}

std::string Db::WalPath(uint64_t number) const {
  char buf[32];
  snprintf(buf, sizeof(buf), "/wal-%06llu.log",
           static_cast<unsigned long long>(number));
  return dir_ + buf;
}

Status Db::RecoverLocked() {
  // Level structure first: replay the MANIFEST's edit log. A fresh
  // directory leaves the VersionSet empty and writes nothing — the MANIFEST
  // is born on the first flush.
  bool manifest_found = false;
  FBSTREAM_RETURN_IF_ERROR(versions_.Recover(&manifest_found));
  last_allocated_ = versions_.recovered_sequence();

  FBSTREAM_ASSIGN_OR_RETURN(std::vector<std::string> names, ListDir(dir_));
  std::vector<uint64_t> wal_numbers;
  for (const std::string& name : names) {
    uint64_t n = 0;
    if (name.size() > 8 && name.rfind("wal-", 0) == 0 &&
        name.compare(name.size() - 4, 4, ".log") == 0 &&
        ParseNumber(std::string_view(name).substr(4, name.size() - 8), &n)) {
      wal_numbers.push_back(n);
    }
  }
  std::sort(wal_numbers.begin(), wal_numbers.end());

  // Replay every WAL in write order into a fresh memtable: these are writes
  // that were acknowledged but not yet flushed when the process stopped.
  // Replay is idempotent against the level structure — a WAL retired after
  // its flush was logged no longer exists, and sequence numbers dedupe the
  // rest at read time.
  mem_ = std::make_shared<MemTable>();
  for (const uint64_t n : wal_numbers) {
    FBSTREAM_RETURN_IF_ERROR(ReplayWal(
        WalPath(n), [this](SequenceNumber first, const WriteBatch& batch) {
          SequenceNumber seq = first;
          for (const WriteBatch::Op& op : batch.ops()) {
            mem_->Add(seq, op.type, op.key, op.value);
            last_allocated_ = std::max(last_allocated_, seq);
            ++seq;
          }
        }));
  }
  if (!wal_numbers.empty()) {
    versions_.BumpFileNumber(wal_numbers.back() + 1);
  }

  // Remove SSTs orphaned by an interrupted flush or compaction (written to
  // disk but never committed to the MANIFEST; their data is still covered
  // by the retained WALs or the input files).
  std::set<uint64_t> live;
  for (const std::vector<FileMeta>& level : versions_.levels()) {
    for (const FileMeta& f : level) live.insert(f.number);
  }
  for (const std::string& name : names) {
    uint64_t n = 0;
    if (name.size() > 4 && name.compare(name.size() - 4, 4, ".sst") == 0 &&
        ParseNumber(std::string_view(name).substr(0, name.size() - 4), &n) &&
        live.count(n) == 0) {
      const Status st = RemoveFile(dir_ + "/" + name);
      if (!st.ok()) FBSTREAM_LOG(Warning) << "orphan gc " << name << ": " << st;
    }
  }

  // Fresh active WAL. The replayed memtable stays covered by the old WAL
  // files until its first flush retires them.
  const uint64_t wal_number = versions_.NewFileNumber();
  wal_ = std::make_unique<WalWriter>();
  FBSTREAM_RETURN_IF_ERROR(wal_->Open(WalPath(wal_number)));
  mem_wals_.clear();
  if (mem_->empty()) {
    for (const uint64_t n : wal_numbers) {
      const Status st = RemoveFile(WalPath(n));
      if (!st.ok()) {
        FBSTREAM_LOG(Warning) << "wal gc " << WalPath(n) << ": " << st;
      }
    }
  } else {
    mem_wals_ = wal_numbers;
  }
  mem_wals_.push_back(wal_number);

  visible_sequence_.store(last_allocated_, std::memory_order_release);
  versions_.SetLastSequence(last_allocated_);
  PublishVersionLocked();
  return Status::OK();
}

void Db::PublishVersionLocked() {
  auto* raw = new Version();
  raw->mem = mem_;
  raw->imm = imm_;
  raw->levels = versions_.levels();
  raw->table_cache = table_cache_;
  // Resolve every file's open handle once, at publish, so point reads never
  // touch the table-cache locks. Handles are carried over from the current
  // version where the file survived; only files new to this version pay an
  // Acquire. A failed open leaves the handle null and probes fall back to
  // Acquire, surfacing the error on the read path.
  {
    std::unordered_map<uint64_t, std::shared_ptr<SstReader>> carried;
    {
      std::shared_lock<std::shared_mutex> lock(version_mu_);
      if (current_ != nullptr) {
        for (const auto& level : current_->levels) {
          for (const FileMeta& f : level) {
            if (f.reader != nullptr) carried.emplace(f.number, f.reader);
          }
        }
      }
    }
    for (auto& level : raw->levels) {
      for (FileMeta& f : level) {
        const auto it = carried.find(f.number);
        if (it != carried.end()) {
          f.reader = it->second;
          continue;
        }
        auto reader_or = table_cache_->Acquire(f.number);
        if (reader_or.ok()) f.reader = std::move(reader_or).value();
      }
    }
  }
  raw->epoch = ++publish_epoch_;
  gc_->AddLive(raw->epoch);
  // The deleter owns a ref to the GC so collection still runs for Versions
  // (iterators, snapshots mid-read) that outlive the Db.
  std::shared_ptr<const Version> v(
      raw, [gc = gc_](const Version* p) {
        const uint64_t epoch = p->epoch;
        delete p;
        gc->OnVersionDeath(epoch);
      });
  std::unique_lock<std::shared_mutex> lock(version_mu_);
  current_ = std::move(v);
}

std::shared_ptr<const Version> Db::CurrentVersion() const {
  std::shared_lock<std::shared_mutex> lock(version_mu_);
  return current_;
}

Status Db::Put(std::string_view key, std::string_view value) {
  WriteBatch batch;
  batch.Put(key, value);
  return Write(batch);
}

Status Db::Delete(std::string_view key) {
  WriteBatch batch;
  batch.Delete(key);
  return Write(batch);
}

Status Db::Merge(std::string_view key, std::string_view operand) {
  if (options_.merge_operator == nullptr) {
    return Status::FailedPrecondition("no merge operator configured");
  }
  WriteBatch batch;
  batch.Merge(key, operand);
  return Write(batch);
}

Status Db::Write(const WriteBatch& batch) {
  if (batch.empty()) return Status::OK();
  return WriteImpl(&batch);
}

Status Db::WriteImpl(const WriteBatch* batch) {
  // LSM metrics are process-global (a node may own many shard-local Dbs;
  // the interesting signal is aggregate flush/compaction pressure).
  static Counter* wal_appends =
      MetricsRegistry::Global()->GetCounter("lsm.wal.appends");
  static Counter* wal_bytes =
      MetricsRegistry::Global()->GetCounter("lsm.wal.bytes");

  Writer w(batch);
  std::unique_lock<std::mutex> lk(mu_);
  writers_.push_back(&w);
  while (!w.done && &w != writers_.front()) w.cv.wait(lk);
  if (w.done) return w.status;  // A previous leader committed us.

  // This writer leads: make room, then commit a group of queued batches
  // with one WAL append (group commit).
  Status st = MakeRoomForWriteLocked(lk, /*force=*/batch == nullptr);

  std::vector<Writer*> group;
  group.push_back(&w);
  size_t total_ops = 0;
  uint64_t group_bytes = 0;
  if (batch != nullptr) {
    total_ops = batch->ops().size();
    for (const WriteBatch::Op& op : batch->ops()) {
      group_bytes += op.key.size() + op.value.size();
    }
    for (auto it = writers_.begin() + 1; it != writers_.end(); ++it) {
      Writer* cand = *it;
      // Memtable-seal requests and oversized groups end the batch window.
      if (cand->batch == nullptr || group_bytes >= kMaxGroupBytes) break;
      group.push_back(cand);
      total_ops += cand->batch->ops().size();
      for (const WriteBatch::Op& op : cand->batch->ops()) {
        group_bytes += op.key.size() + op.value.size();
      }
    }
  }

  if (st.ok() && total_ops > 0) {
    const SequenceNumber first = last_allocated_ + 1;
    last_allocated_ += total_ops;
    // Safe to touch unlocked: only the queue leader (us) appends to the
    // active WAL or memtable, and only the leader can switch them.
    MemTable* mem = mem_.get();
    WalWriter* wal = wal_.get();
    lk.unlock();

    std::vector<WalRecord> records;
    records.reserve(group.size());
    SequenceNumber seq = first;
    for (Writer* g : group) {
      records.push_back(WalRecord{seq, g->batch});
      seq += g->batch->ops().size();
    }
    st = wal->AddRecords(records);
    if (st.ok()) {
      seq = first;
      for (Writer* g : group) {
        for (const WriteBatch::Op& op : g->batch->ops()) {
          mem->Add(seq, op.type, op.key, op.value);
          ++seq;
        }
      }
      // Publish after every entry of the group is inserted: readers loading
      // this sequence see all of it (atomicity of each batch, and of the
      // group, from the reader's perspective).
      visible_sequence_.store(first + total_ops - 1,
                              std::memory_order_release);
      wal_appends->Add(static_cast<uint64_t>(records.size()));
      wal_bytes->Add(group_bytes);
    }

    lk.lock();
    if (st.ok()) {
      user_bytes_written_ += group_bytes;
    } else {
      // WAL append failed before anything was applied; release the
      // sequences (no newer allocation can exist — we were the leader).
      last_allocated_ = first - 1;
    }
  }

  for (Writer* g : group) {
    writers_.pop_front();
    if (g != &w) {
      g->status = st;
      g->done = true;
      g->cv.notify_one();
    }
  }
  if (!writers_.empty()) writers_.front()->cv.notify_one();
  return st;
}

Status Db::MakeRoomForWriteLocked(std::unique_lock<std::mutex>& lk,
                                  bool force) {
  static Counter* stall_count =
      MetricsRegistry::Global()->GetCounter("lsm.write.stalls");
  static Counter* l0_stall_count =
      MetricsRegistry::Global()->GetCounter("lsm.write.stalls.l0");
  static Counter* delay_count =
      MetricsRegistry::Global()->GetCounter("lsm.write.delays");
  bool delayed = false;  // At most one paced sleep per write.
  while (true) {
    if (!bg_error_.ok()) return bg_error_;
    // Soft backpressure: while the pipeline is under pressure but below
    // its hard limits, pace the write with one bounded sleep instead of
    // letting it race to the blocking stall branches below. The sleep
    // sheds foreground load and yields the CPU to the flush/compaction
    // threads — which is what keeps the hard stalls unreachable under
    // sustained ingest.
    if (!delayed && !force && options_.write_delay_micros > 0) {
      const bool flush_behind =
          imm_ != nullptr &&
          mem_->ApproximateBytes() * 4 >= options_.memtable_bytes * 3;
      const bool l0_deep =
          static_cast<int>(versions_.levels()[0].size()) >=
          options_.l0_slowdown_files;
      if (flush_behind || l0_deep) {
        delayed = true;
        ++write_delays_;
        delay_count->Add();
        flush_cv_.notify_one();
        compact_cv_.notify_one();
        lk.unlock();
        std::this_thread::sleep_for(
            std::chrono::microseconds(options_.write_delay_micros));
        lk.lock();
        continue;
      }
    }
    if (!force && mem_->ApproximateBytes() < options_.memtable_bytes) {
      return Status::OK();
    }
    if (force && mem_->empty()) return Status::OK();  // Nothing to seal.
    if (imm_ != nullptr) {
      // Flush is behind; apply backpressure instead of queueing unbounded
      // immutable memtables.
      ++write_stalls_;
      stall_count->Add();
      flush_cv_.notify_one();
      done_cv_.wait(lk);
      continue;
    }
    if (static_cast<int>(versions_.levels()[0].size()) >=
            options_.l0_stall_files &&
        CompactionPendingLocked()) {
      ++write_stalls_;
      ++write_stalls_l0_;
      stall_count->Add();
      l0_stall_count->Add();
      compact_cv_.notify_one();
      done_cv_.wait(lk);
      continue;
    }
    FBSTREAM_RETURN_IF_ERROR(SwitchMemtableLocked());
    force = false;  // The fresh memtable satisfies the next loop check.
  }
}

Status Db::SwitchMemtableLocked() {
  const uint64_t wal_number = versions_.NewFileNumber();
  auto new_wal = std::make_unique<WalWriter>();
  FBSTREAM_RETURN_IF_ERROR(new_wal->Open(WalPath(wal_number)));
  wal_ = std::move(new_wal);
  imm_ = mem_;
  imm_wals_ = std::move(mem_wals_);
  mem_ = std::make_shared<MemTable>();
  mem_wals_ = {wal_number};
  PublishVersionLocked();
  flush_cv_.notify_one();
  return Status::OK();
}

bool Db::CompactionPendingLocked() const {
  const auto& levels = versions_.levels();
  if (static_cast<int>(levels[0].size()) >= options_.l0_compaction_trigger) {
    return true;
  }
  for (int level = 1; level < kNumLevels - 1; ++level) {
    if (TotalBytes(levels[level]) >
        MaxBytesForLevel(level, options_.level1_max_bytes,
                         options_.level_size_multiplier)) {
      return true;
    }
  }
  return false;
}

bool Db::MaintenanceIdleLocked() const {
  return imm_ == nullptr && !flush_active_ && !compact_active_ &&
         !force_compact_ && !CompactionPendingLocked();
}

void Db::FlushThread() {
  std::unique_lock<std::mutex> lk(mu_);
  while (true) {
    flush_cv_.wait(lk, [this] {
      return shutdown_ || (bg_error_.ok() && imm_ != nullptr);
    });
    if (shutdown_) break;
    BackgroundFlushLocked(lk);
    done_cv_.notify_all();
    // The new L0 file may have pushed L0 over its trigger.
    compact_cv_.notify_one();
  }
}

void Db::CompactThread() {
  std::unique_lock<std::mutex> lk(mu_);
  while (true) {
    compact_cv_.wait(lk, [this] {
      return shutdown_ ||
             (bg_error_.ok() && (force_compact_ || CompactionPendingLocked()));
    });
    if (shutdown_) break;
    if (force_compact_) {
      const CompactionPick pick = ForcedPickLocked();
      if (pick.level >= 0) {
        BackgroundCompactLocked(lk, pick, /*forced=*/true);
      }
      force_compact_ = false;
    } else {
      const CompactionPick pick = PickCompaction(
          versions_.levels(), options_.l0_compaction_trigger,
          options_.level1_max_bytes, options_.level_size_multiplier,
          versions_.cursors());
      if (pick.level >= 0) {
        BackgroundCompactLocked(lk, pick, /*forced=*/false);
      }
    }
    done_cv_.notify_all();
  }
}

void Db::BackgroundFlushLocked(std::unique_lock<std::mutex>& lk) {
  static Counter* flush_count =
      MetricsRegistry::Global()->GetCounter("lsm.flush.count");
  static Histogram* flush_latency =
      MetricsRegistry::Global()->GetHistogram("lsm.flush.latency_us");

  const std::shared_ptr<const MemTable> imm = imm_;
  const std::vector<uint64_t> retired_wals = imm_wals_;
  const uint64_t number = versions_.NewFileNumber();
  flush_active_ = true;
  lk.unlock();

  // Injected failures here model a full disk mid-flush; the error is sticky
  // and the immutable memtable is retained (its WALs recover it on reopen).
  Status st = FaultRegistry::Global()->Hit("lsm.flush");
  std::string smallest;
  std::string largest;
  uint64_t file_size = 0;
  {
    ScopedLatencyTimer timer(flush_latency);
    if (st.ok()) {
      SstWriter writer(options_.block_bytes);
      for (const Entry& e : imm->Snapshot()) writer.Add(e);
      smallest = writer.smallest();
      largest = writer.largest();
      st = writer.Finish(SstPath(number));
    }
    if (st.ok()) {
      StatusOr<uint64_t> size_or = FileSize(SstPath(number));
      if (size_or.ok()) {
        file_size = size_or.value();
      } else {
        st = size_or.status();
      }
    }
  }
  // Flushes are the work writers stall on: they bypass the throttle but
  // still charge it, so background merges absorb the debt.
  rate_limiter_.Request(file_size, /*high_priority=*/true, &cancel_);

  lk.lock();
  flush_active_ = false;
  if (!st.ok()) {
    FBSTREAM_LOG(Error) << "lsm flush failed: " << st;
    bg_error_ = st;
    return;
  }
  // Durable install: one VersionEdit appended to the MANIFEST. Until this
  // succeeds nothing is committed — on failure the SST is an orphan and the
  // memtable's WALs still cover every write in it.
  VersionEdit edit;
  edit.AddFile(0, number, file_size, std::move(smallest), std::move(largest));
  edit.last_sequence = visible_sequence_.load(std::memory_order_acquire);
  const Status mst = versions_.LogAndApply(&edit);
  if (!mst.ok()) {
    FBSTREAM_LOG(Error) << "lsm manifest persist failed: " << mst;
    bg_error_ = mst;
    return;
  }
  imm_.reset();
  imm_wals_.clear();
  ++flushes_;
  bytes_flushed_ += file_size;
  flush_count->Add();
  if (versions_.levels()[0].size() >=
      static_cast<size_t>(options_.l0_compaction_trigger)) {
    l0_pressure_.store(true, std::memory_order_relaxed);
  }
  PublishVersionLocked();
  // The flushed data is durable in the SST + MANIFEST; retire its WALs.
  for (const uint64_t n : retired_wals) {
    const Status rst = RemoveFile(WalPath(n));
    if (!rst.ok()) {
      FBSTREAM_LOG(Warning) << "wal gc " << WalPath(n) << ": " << rst;
    }
  }
}

uint64_t Db::AllocFileNumber() {
  std::lock_guard<std::mutex> lock(mu_);
  return versions_.NewFileNumber();
}

CompactionPick Db::ForcedPickLocked() const {
  CompactionPick pick;
  const auto& levels = versions_.levels();
  int deepest = 0;
  size_t tail_files = 0;  // Files below L0.
  for (int level = 0; level < kNumLevels; ++level) {
    if (!levels[level].empty()) deepest = level;
    if (level > 0) tail_files += levels[level].size();
  }
  // Nothing worth a major compaction: L0 empty and at most one file below.
  if (levels[0].empty() && tail_files <= 1) return pick;
  pick.level = 0;
  pick.output_level = std::max(1, deepest);
  // Every file everywhere is an input, so the output range overlaps nothing
  // deeper by construction.
  pick.bottom = true;
  return pick;
}

void Db::BackgroundCompactLocked(std::unique_lock<std::mutex>& lk,
                                 const CompactionPick& pick, bool forced) {
  static Counter* compaction_count =
      MetricsRegistry::Global()->GetCounter("lsm.compaction.count");
  static Histogram* compaction_latency =
      MetricsRegistry::Global()->GetHistogram("lsm.compaction.latency_us");

  // Plan under the lock: the exact input file set and the edit that
  // retires it. Inputs are only ever removed by this thread, so the plan
  // stays valid while the merge runs unlocked (concurrent flushes append
  // *new* L0 files, which simply survive the install).
  std::vector<FileMeta> inputs;
  VersionEdit edit;
  const auto& levels = versions_.levels();
  if (forced) {
    for (int level = 0; level < kNumLevels; ++level) {
      for (const FileMeta& f : levels[level]) {
        inputs.push_back(f);
        edit.DeleteFile(level, f.number);
      }
    }
  } else {
    for (const FileMeta& f : pick.inputs) {
      inputs.push_back(f);
      edit.DeleteFile(pick.level, f.number);
    }
    for (const FileMeta& f : pick.overlaps) {
      inputs.push_back(f);
      edit.DeleteFile(pick.output_level, f.number);
    }
  }

  CompactionOptions copts;
  copts.block_bytes = options_.block_bytes;
  copts.target_sst_bytes = options_.target_sst_bytes;
  copts.merge_operator = options_.merge_operator.get();
  copts.bottom = pick.bottom;
  copts.snapshots_live = !live_snapshots_.empty();
  copts.limiter = &rate_limiter_;
  // L0->L1 unblocks stalled writers; forced compactions have a caller
  // waiting synchronously. Both outrank deep-level shuffling.
  copts.high_priority = forced || pick.level == 0;
  copts.cancel = &cancel_;
  // A low-priority merge sleeping out rate-limiter debt must not park this
  // thread while flushes pile L0 toward the stall limit: it yields to L0
  // pressure and the re-pick serves L0 first (its score outranks bytes).
  // Re-arm the flag from current truth — pressure set by a flush whose L0
  // files a since-installed job already absorbed would otherwise preempt
  // every deep merge forever.
  l0_pressure_.store(versions_.levels()[0].size() >=
                         static_cast<size_t>(options_.l0_compaction_trigger),
                     std::memory_order_relaxed);
  if (!copts.high_priority) copts.preempt = &l0_pressure_;
  compact_active_ = true;
  lk.unlock();

  Status st = FaultRegistry::Global()->Hit("lsm.compaction");
  CompactionResult result;
  {
    ScopedLatencyTimer timer(compaction_latency);
    if (st.ok()) {
      StatusOr<CompactionResult> result_or =
          RunCompaction(*table_cache_, pick.output_level, inputs, copts,
                        [this] { return AllocFileNumber(); });
      if (result_or.ok()) {
        result = std::move(result_or).value();
      } else {
        st = result_or.status();
      }
    }
  }

  lk.lock();
  compact_active_ = false;
  if (!st.ok()) {
    if (st.IsCancelled()) {
      // Teardown cancel or L0 preemption: the merge already unlinked its
      // outputs and its inputs are untouched, so there is nothing to do —
      // the thread loops and re-picks (or exits on shutdown).
      return;
    }
    // Partial outputs are unlinked by RunCompaction; inputs are untouched
    // so no data is lost.
    FBSTREAM_LOG(Error) << "lsm compaction failed: " << st;
    bg_error_ = st;
    return;
  }
  for (const VersionEdit::NewFile& f : result.outputs) {
    edit.added.push_back(f);
  }
  edit.last_sequence = visible_sequence_.load(std::memory_order_acquire);
  const Status mst = versions_.LogAndApply(&edit);
  if (!mst.ok()) {
    FBSTREAM_LOG(Error) << "lsm manifest persist failed: " << mst;
    bg_error_ = mst;
    return;
  }
  ++compactions_;
  compaction_bytes_read_ += result.bytes_read;
  compaction_bytes_written_ += result.bytes_written;
  compaction_count->Add();
  LevelCounter("lsm.compaction.level%d.count", pick.level)->Add();
  LevelCounter("lsm.compaction.level%d.bytes_read", pick.level)
      ->Add(result.bytes_read);
  LevelCounter("lsm.compaction.level%d.bytes_written", pick.level)
      ->Add(result.bytes_written);
  PublishVersionLocked();
  // The inputs are gone from the version just published, but any Version
  // published earlier (pinned by a snapshot read or iterator) may still
  // resolve them through the table cache — including a re-open after a
  // capacity eviction. Hand them to the GC, which unlinks once the last
  // such Version dies.
  std::vector<uint64_t> retired;
  retired.reserve(edit.deleted.size());
  for (const VersionEdit::DeletedFile& d : edit.deleted) {
    retired.push_back(d.number);
  }
  gc_->Defer(publish_epoch_ - 1, std::move(retired));
}

StatusOr<std::string> Db::Get(std::string_view key) const {
  return Get(key, nullptr);
}

void Db::CountLevelRead(int hit_level) const {
  // Registry counters are the one store (telemetry exports them, benches
  // read deltas). Interned once — the hot read path pays a relaxed add, not
  // a name lookup.
  static const std::array<Counter*, kNumLevels> per_level = [] {
    std::array<Counter*, kNumLevels> c{};
    for (int level = 0; level < kNumLevels; ++level) {
      c[level] = LevelCounter("lsm.level%d.reads", level);
    }
    return c;
  }();
  if (hit_level >= 0 && hit_level < kNumLevels) per_level[hit_level]->Add();
}

StatusOr<std::string> Db::Get(std::string_view key,
                              const DbSnapshot* snapshot) const {
  // Sequence FIRST, then version: the version published before this
  // sequence became visible is covered by any version loaded after it.
  const SequenceNumber read_seq =
      snapshot != nullptr ? snapshot->sequence()
                          : visible_sequence_.load(std::memory_order_acquire);
  const std::shared_ptr<const Version> v = CurrentVersion();
  LookupState state;
  int hit_level = -1;
  FBSTREAM_RETURN_IF_ERROR(v->Get(key, read_seq, &state, &hit_level));
  CountLevelRead(hit_level);
  return ResolveLookup(key, state);
}

Status Db::GetInto(std::string_view key, std::string* value) const {
  // Same versioned lock-free protocol as Get(): sequence first (acquire),
  // then version.
  const SequenceNumber read_seq =
      visible_sequence_.load(std::memory_order_acquire);
  const std::shared_ptr<const Version> v = CurrentVersion();
  // The scratch's strings keep their capacity across calls, so a warm read
  // loop stops allocating. clear() never shrinks.
  thread_local LookupState state;
  state.found_base = false;
  state.base_is_delete = false;
  state.base_value.clear();
  state.operands.clear();
  int hit_level = -1;
  FBSTREAM_RETURN_IF_ERROR(v->Get(key, read_seq, &state, &hit_level));
  CountLevelRead(hit_level);
  if (state.operands.empty()) {
    if (!state.found_base || state.base_is_delete) {
      return Status::NotFound(std::string(key));
    }
    value->assign(state.base_value);
    return Status::OK();
  }
  if (options_.merge_operator == nullptr) {
    return Status::Corruption("merge operands but no merge operator");
  }
  const std::string* existing =
      state.found_base && !state.base_is_delete ? &state.base_value : nullptr;
  value->clear();
  if (!options_.merge_operator->FullMerge(key, existing, state.operands,
                                          value)) {
    return Status::Corruption("merge failed for key " + std::string(key));
  }
  return Status::OK();
}

StatusOr<std::string> Db::ResolveLookup(std::string_view key,
                                        const LookupState& state) const {
  if (state.operands.empty()) {
    if (!state.found_base || state.base_is_delete) {
      return Status::NotFound(std::string(key));
    }
    return state.base_value;
  }
  if (options_.merge_operator == nullptr) {
    return Status::Corruption("merge operands but no merge operator");
  }
  const std::string* existing =
      state.found_base && !state.base_is_delete ? &state.base_value : nullptr;
  std::string result;
  if (!options_.merge_operator->FullMerge(key, existing, state.operands,
                                          &result)) {
    return Status::Corruption("merge failed for key " + std::string(key));
  }
  return result;
}

Status Db::Flush() {
  // Seal the memtable through the writer queue (only the queue leader may
  // switch memtables), then wait for maintenance to drain.
  FBSTREAM_RETURN_IF_ERROR(WriteImpl(nullptr));
  std::unique_lock<std::mutex> lk(mu_);
  while (bg_error_.ok() && !MaintenanceIdleLocked()) {
    compact_cv_.notify_one();
    done_cv_.wait(lk);
  }
  return bg_error_;
}

Status Db::CompactAll() {
  FBSTREAM_RETURN_IF_ERROR(WriteImpl(nullptr));
  std::unique_lock<std::mutex> lk(mu_);
  if (!bg_error_.ok()) return bg_error_;
  force_compact_ = true;
  compact_cv_.notify_one();
  while (bg_error_.ok() && !MaintenanceIdleLocked()) {
    compact_cv_.notify_one();
    done_cv_.wait(lk);
  }
  return bg_error_;
}

const DbSnapshot* Db::GetSnapshot() {
  std::lock_guard<std::mutex> lock(mu_);
  const SequenceNumber seq =
      visible_sequence_.load(std::memory_order_acquire);
  live_snapshots_.insert(seq);
  return new DbSnapshot(seq);
}

void Db::ReleaseSnapshot(const DbSnapshot* snapshot) {
  if (snapshot == nullptr) return;
  std::lock_guard<std::mutex> lock(mu_);
  auto it = live_snapshots_.find(snapshot->sequence());
  if (it != live_snapshots_.end()) live_snapshots_.erase(it);
  delete snapshot;
}

SequenceNumber Db::LatestSequence() const {
  return visible_sequence_.load(std::memory_order_acquire);
}

// ---------------------------------------------------------------------------
// Iterator

// Polymorphic cursor over one layer of a pinned Version. Lazily streams
// from its underlying table; nothing is materialized upfront.
struct Db::Iterator::Source {
  virtual ~Source() = default;
  virtual bool Valid() const = 0;
  virtual const Entry& entry() const = 0;
  virtual void Next() = 0;
  virtual void Seek(std::string_view target) = 0;
  virtual void SeekToFirst() = 0;
};

namespace {
struct MemSource final : Db::Iterator::Source {
  explicit MemSource(const MemTable* mem) : it(mem->NewIterator()) {}
  bool Valid() const override { return it.Valid(); }
  const Entry& entry() const override { return it.entry(); }
  void Next() override { it.Next(); }
  void Seek(std::string_view target) override { it.Seek(target); }
  void SeekToFirst() override { it.SeekToFirst(); }
  MemTable::Iterator it;
};

struct SstSource final : Db::Iterator::Source {
  // Holds its own reference: the reader stays open even if the table cache
  // evicts it (or a compaction unlinks the file) mid-iteration.
  explicit SstSource(std::shared_ptr<SstReader> reader)
      : pin(std::move(reader)), it(pin->NewIterator()) {}
  bool Valid() const override { return it.Valid(); }
  const Entry& entry() const override { return it.entry(); }
  void Next() override { it.Next(); }
  void Seek(std::string_view target) override { it.Seek(target); }
  void SeekToFirst() override { it.SeekToFirst(); }
  std::shared_ptr<SstReader> pin;
  SstReader::Iterator it;
};

const Entry* PeekSmallest(
    const std::vector<std::unique_ptr<Db::Iterator::Source>>& sources,
    int* source_index) {
  int best = -1;
  for (size_t i = 0; i < sources.size(); ++i) {
    if (!sources[i]->Valid()) continue;
    if (best < 0 ||
        sources[i]->entry().key.Compare(
            sources[static_cast<size_t>(best)]->entry().key) < 0) {
      best = static_cast<int>(i);
    }
  }
  if (best < 0) return nullptr;
  *source_index = best;
  return &sources[static_cast<size_t>(best)]->entry();
}
}  // namespace

Db::Iterator Db::NewIterator(const DbSnapshot* snapshot) const {
  const SequenceNumber read_seq =
      snapshot != nullptr ? snapshot->sequence()
                          : visible_sequence_.load(std::memory_order_acquire);
  std::shared_ptr<const Version> v = CurrentVersion();
  return Iterator(std::move(v), read_seq, options_.merge_operator.get());
}

Db::Iterator::Iterator(std::shared_ptr<const Version> version,
                       SequenceNumber read_seq, const MergeOperator* merge_op)
    : version_(std::move(version)), read_seq_(read_seq), merge_op_(merge_op) {
  sources_.push_back(std::make_unique<MemSource>(version_->mem.get()));
  if (version_->imm != nullptr) {
    sources_.push_back(std::make_unique<MemSource>(version_->imm.get()));
  }
  for (int level = 0; level < kNumLevels; ++level) {
    for (const FileMeta& f : version_->levels[level]) {
      StatusOr<std::shared_ptr<SstReader>> reader =
          version_->table_cache->Acquire(f.number);
      if (!reader.ok()) {
        status_ = reader.status();
        sources_.clear();
        return;
      }
      sources_.push_back(
          std::make_unique<SstSource>(std::move(reader).value()));
    }
  }
  SeekToFirst();
}

Db::Iterator::~Iterator() = default;
Db::Iterator::Iterator(Iterator&&) noexcept = default;
Db::Iterator& Db::Iterator::operator=(Iterator&&) noexcept = default;

void Db::Iterator::ResolveNext() {
  valid_ = false;
  while (true) {
    int idx = -1;
    const Entry* first = PeekSmallest(sources_, &idx);
    if (first == nullptr) return;
    const std::string user_key = first->key.user_key;

    std::vector<std::string> operands_newest_first;
    bool found_base = false;
    bool base_is_delete = false;
    std::string base_value;
    bool chain_done = false;
    SequenceNumber last_seen_seq = kMaxSequence;
    while (true) {
      int i = -1;
      const Entry* e = PeekSmallest(sources_, &i);
      if (e == nullptr || e->key.user_key != user_key) break;
      const Entry entry = *e;
      sources_[static_cast<size_t>(i)]->Next();  // Consume.
      if (entry.key.sequence > read_seq_) continue;  // Invisible version.
      if (chain_done) continue;  // Shadowed by a newer base.
      if (entry.key.sequence == last_seen_seq) continue;  // Duplicate.
      last_seen_seq = entry.key.sequence;
      if (entry.key.type == EntryType::kMerge) {
        operands_newest_first.push_back(entry.value);
        continue;
      }
      found_base = true;
      base_is_delete = entry.key.type == EntryType::kDelete;
      if (!base_is_delete) base_value = entry.value;
      chain_done = true;
    }

    if (operands_newest_first.empty()) {
      if (!found_base || base_is_delete) continue;  // Not visible.
      key_ = user_key;
      value_ = base_value;
      valid_ = true;
      return;
    }
    if (merge_op_ == nullptr) continue;  // Unresolvable; skip.
    std::vector<std::string> operands(operands_newest_first.rbegin(),
                                      operands_newest_first.rend());
    std::string resolved;
    if (!merge_op_->FullMerge(
            user_key, found_base && !base_is_delete ? &base_value : nullptr,
            operands, &resolved)) {
      continue;
    }
    key_ = user_key;
    value_ = resolved;
    valid_ = true;
    return;
  }
}

void Db::Iterator::Next() {
  if (!valid_) return;
  ResolveNext();
}

void Db::Iterator::Seek(std::string_view target) {
  if (!status_.ok()) return;
  for (auto& s : sources_) s->Seek(target);
  ResolveNext();
}

void Db::Iterator::SeekToFirst() {
  if (!status_.ok()) return;
  for (auto& s : sources_) s->SeekToFirst();
  ResolveNext();
}

// ---------------------------------------------------------------------------
// Backup

Status Db::CreateBackup(
    const std::function<Status(const std::string& name,
                               const std::string& contents)>& sink) {
  FBSTREAM_RETURN_IF_ERROR(Flush());
  // Holding mu_ freezes the file set: the background threads delete
  // obsolete files only under mu_, so everything listed stays readable.
  std::lock_guard<std::mutex> lock(mu_);
  // An empty database may never have flushed; make sure the MANIFEST exists
  // so the backup is openable.
  FBSTREAM_RETURN_IF_ERROR(versions_.EnsureManifest());
  std::vector<std::string> names;
  for (const std::vector<FileMeta>& level : versions_.levels()) {
    for (const FileMeta& f : level) {
      names.push_back(SstPath(f.number).substr(dir_.size() + 1));
    }
  }
  names.push_back(kManifestFile);
  for (const std::string& name : names) {
    FBSTREAM_ASSIGN_OR_RETURN(std::string data,
                              ReadFileToString(dir_ + "/" + name));
    FBSTREAM_RETURN_IF_ERROR(sink(name, data));
  }
  return Status::OK();
}

Status Db::RestoreBackup(
    const std::function<StatusOr<std::vector<std::string>>()>& list,
    const std::function<StatusOr<std::string>(const std::string&)>& read,
    const std::string& dir) {
  if (FileExists(dir + "/" + kManifestFile)) {
    return Status::AlreadyExists("database exists in " + dir);
  }
  FBSTREAM_RETURN_IF_ERROR(CreateDirs(dir));
  FBSTREAM_ASSIGN_OR_RETURN(std::vector<std::string> names, list());
  for (const std::string& name : names) {
    FBSTREAM_ASSIGN_OR_RETURN(std::string data, read(name));
    FBSTREAM_RETURN_IF_ERROR(WriteFileAtomic(dir + "/" + name, data));
  }
  return Status::OK();
}

Status Db::CreateBackupToDir(const std::string& backup_dir) {
  FBSTREAM_RETURN_IF_ERROR(CreateDirs(backup_dir));
  return CreateBackup(
      [&backup_dir](const std::string& name, const std::string& data) {
        return WriteFileAtomic(backup_dir + "/" + name, data);
      });
}

Status Db::RestoreBackupFromDir(const std::string& backup_dir,
                                const std::string& dir) {
  return RestoreBackup(
      [&backup_dir]() { return ListDir(backup_dir); },
      [&backup_dir](const std::string& name) {
        return ReadFileToString(backup_dir + "/" + name);
      },
      dir);
}

Db::Stats Db::GetStats() const {
  std::lock_guard<std::mutex> lock(mu_);
  Stats stats;
  stats.memtable_bytes = mem_->ApproximateBytes();
  stats.memtable_entries = mem_->num_entries();
  const auto& levels = versions_.levels();
  for (int level = 0; level < kNumLevels; ++level) {
    stats.levels[level].files = static_cast<int>(levels[level].size());
    stats.levels[level].bytes = TotalBytes(levels[level]);
    if (!levels[level].empty()) stats.num_levels = level + 1;
  }
  stats.flushes = flushes_;
  stats.compactions = compactions_;
  stats.write_stalls = write_stalls_;
  stats.write_stalls_l0 = write_stalls_l0_;
  stats.write_delays = write_delays_;
  stats.total_sst_bytes = versions_.TotalSstBytes();
  stats.user_bytes_written = user_bytes_written_;
  stats.bytes_flushed = bytes_flushed_;
  stats.compaction_bytes_read = compaction_bytes_read_;
  stats.compaction_bytes_written = compaction_bytes_written_;
  return stats;
}

}  // namespace fbstream::lsm
