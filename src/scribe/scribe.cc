#include "scribe/scribe.h"

#include <algorithm>

#include "common/fault.h"
#include "common/fs.h"
#include "common/metrics.h"
#include "common/hash.h"
#include "common/logging.h"
#include "common/serde.h"

namespace fbstream::scribe {

Bucket::Bucket(std::string dir, bool persist, bool fsync_appends)
    : dir_(std::move(dir)), persist_(persist), fsync_appends_(fsync_appends) {
  if (persist_) {
    const Status st = CreateDirs(dir_);
    if (!st.ok()) {
      FBSTREAM_LOG(Warning) << "scribe bucket dir: " << st;
      persist_ = false;
    }
  }
}

std::string Bucket::SegmentPath(uint64_t base_sequence) const {
  char buf[40];
  snprintf(buf, sizeof(buf), "/segment-%012llu.log",
           static_cast<unsigned long long>(base_sequence));
  return dir_ + buf;
}

uint64_t Bucket::Append(const std::string& payload, Micros now,
                        uint64_t trace_id) {
  std::lock_guard<std::mutex> lock(mu_);
  Message m;
  m.sequence = base_sequence_ + messages_.size();
  m.write_time = now;
  m.payload = payload;
  m.trace_id = trace_id;
  bytes_ += payload.size();
  if (persist_) PersistAppendLocked(m);
  messages_.push_back(std::move(m));
  return base_sequence_ + messages_.size() - 1;
}

void Bucket::PersistAppendLocked(const Message& m) {
  // Kill-mode crash point: the process can die mid-append, leaving a torn
  // record at the segment tail for RecoverFromDisk to truncate.
  const Status kill = FaultRegistry::Global()->Hit("scribe.segment.append");
  if (!kill.ok()) {
    FBSTREAM_LOG(Warning) << "scribe persist: " << kill;
    return;
  }
  // Roll the active segment when full (or on first append).
  if (segments_.empty() || segments_.back().messages >= kSegmentMessages) {
    segments_.push_back(
        SegmentMeta{m.sequence, SegmentPath(m.sequence), m.write_time, 0});
    // The new segment file is born durable: its directory entry is synced
    // once the first record lands (below, when fsync_appends_), or lazily
    // by the next WriteFileAtomic in the directory otherwise.
    if (fsync_appends_) SyncDir(dir_);
  }
  SegmentMeta& active = segments_.back();
  std::string record;
  PutVarint64(&record, m.sequence);
  PutVarint64(&record, static_cast<uint64_t>(m.write_time));
  PutLengthPrefixed(&record, m.payload);
  PutVarint64(&record, m.trace_id);
  // Framed as length + checksum + body (same contract as lsm/wal.h): a
  // torn or bit-flipped tail is detected on replay instead of decoding as
  // garbage messages.
  std::string framed;
  PutVarint64(&framed, record.size());
  PutFixed64(&framed, Fnv1a64(record));
  framed += record;
  // Batch-boundary durability: with fsync_appends the record is on disk
  // before the append is acknowledged to the producer.
  const Status st = AppendToFile(active.path, framed, fsync_appends_);
  if (!st.ok()) FBSTREAM_LOG(Warning) << "scribe persist: " << st;
  ++active.messages;
  active.newest_time = std::max(active.newest_time, m.write_time);
}

size_t Bucket::Read(uint64_t from_sequence, size_t max_messages, Micros now,
                    Micros delivery_latency, std::vector<Message>* out) const {
  std::lock_guard<std::mutex> lock(mu_);
  uint64_t seq = std::max(from_sequence, base_sequence_);
  size_t count = 0;
  while (count < max_messages && seq < base_sequence_ + messages_.size()) {
    const Message& m = messages_[seq - base_sequence_];
    if (m.write_time + delivery_latency > now) break;  // Not yet delivered.
    out->push_back(m);
    ++seq;
    ++count;
  }
  return count;
}

void Bucket::TrimBefore(Micros horizon) {
  std::lock_guard<std::mutex> lock(mu_);
  size_t drop = 0;
  while (drop < messages_.size() && messages_[drop].write_time < horizon) {
    bytes_ -= messages_[drop].payload.size();
    ++drop;
  }
  if (drop > 0) {
    messages_.erase(messages_.begin(),
                    messages_.begin() + static_cast<ptrdiff_t>(drop));
    base_sequence_ += drop;
  }
  // Delete fully expired *sealed* segments from disk (the active segment —
  // the last one — always survives).
  while (segments_.size() > 1 && segments_.front().newest_time < horizon) {
    const Status st = RemoveFile(segments_.front().path);
    if (!st.ok()) FBSTREAM_LOG(Warning) << "scribe segment gc: " << st;
    segments_.erase(segments_.begin());
  }
}

uint64_t Bucket::next_sequence() const {
  std::lock_guard<std::mutex> lock(mu_);
  return base_sequence_ + messages_.size();
}

uint64_t Bucket::oldest_sequence() const {
  std::lock_guard<std::mutex> lock(mu_);
  return base_sequence_;
}

uint64_t Bucket::total_bytes() const {
  std::lock_guard<std::mutex> lock(mu_);
  return bytes_;
}

size_t Bucket::NumSegmentFiles() const {
  std::lock_guard<std::mutex> lock(mu_);
  return segments_.size();
}

Status Bucket::RecoverFromDisk() {
  if (!persist_) return Status::OK();
  auto listing = ListDir(dir_);
  if (!listing.ok()) return Status::OK();  // Fresh bucket.
  std::lock_guard<std::mutex> lock(mu_);
  messages_.clear();
  segments_.clear();
  bytes_ = 0;
  bool first = true;
  bool tail_truncated = false;
  // ListDir sorts lexicographically; the zero-padded base sequence in the
  // file name makes that the append order.
  for (const std::string& name : *listing) {
    if (name.compare(0, 8, "segment-") != 0) continue;
    const std::string path = dir_ + "/" + name;
    if (tail_truncated) {
      // Everything past a corrupt record is untrusted (and would break the
      // bucket's contiguous sequence numbering); drop later segments so the
      // on-disk log matches the recovered state.
      FBSTREAM_LOG(Warning) << "scribe recover: dropping post-corruption "
                            << "segment " << path;
      const Status st = RemoveFile(path);
      if (!st.ok()) FBSTREAM_LOG(Warning) << "scribe recover: " << st;
      continue;
    }
    FBSTREAM_ASSIGN_OR_RETURN(std::string data, ReadFileToString(path));
    std::string_view view(data);
    SegmentMeta meta;
    meta.path = path;
    bool segment_first = true;
    while (!view.empty()) {
      // Offset of this record's frame, for truncation if it proves corrupt.
      const uint64_t record_start = data.size() - view.size();
      uint64_t len = 0;
      uint64_t checksum = 0;
      uint64_t seq = 0;
      uint64_t wt = 0;
      std::string_view payload;
      std::string_view body;
      bool ok = GetVarint64(&view, &len) && GetFixed64(&view, &checksum) &&
                view.size() >= len;
      if (ok) {
        body = view.substr(0, len);
        view.remove_prefix(len);
        ok = Fnv1a64(body) == checksum;
      }
      uint64_t trace_id = 0;
      if (ok) {
        // Every field is required and the body must end after the last
        // one: a short or overlong record is corrupt like a torn one.
        std::string_view cursor = body;
        ok = GetVarint64(&cursor, &seq) && GetVarint64(&cursor, &wt) &&
             GetLengthPrefixed(&cursor, &payload) &&
             GetVarint64(&cursor, &trace_id) && cursor.empty();
      }
      if (!ok) {
        // Torn or corrupt record (crash mid-append, bit rot): truncate the
        // segment back to its intact prefix and continue from there —
        // everything before the bad record is preserved, and the next
        // append lands on a clean record boundary instead of after garbage.
        FBSTREAM_LOG(Warning)
            << "scribe recover: corrupt record in " << path << " at offset "
            << record_start << "; truncating";
        const Status st = TruncateFile(path, record_start);
        if (!st.ok()) FBSTREAM_LOG(Warning) << "scribe recover: " << st;
        tail_truncated = true;
        break;
      }
      if (first) {
        base_sequence_ = seq;
        first = false;
      }
      if (segment_first) {
        meta.base_sequence = seq;
        segment_first = false;
      }
      Message m;
      m.sequence = seq;
      m.write_time = static_cast<Micros>(wt);
      m.payload = std::string(payload);
      m.trace_id = trace_id;
      bytes_ += m.payload.size();
      meta.newest_time = std::max(meta.newest_time, m.write_time);
      ++meta.messages;
      messages_.push_back(std::move(m));
    }
    if (meta.messages > 0) segments_.push_back(std::move(meta));
  }
  return Status::OK();
}

Category::Category(CategoryConfig config, std::string root_dir)
    : config_(std::move(config)),
      root_dir_(std::move(root_dir)),
      append_messages_(MetricsRegistry::Global()->GetCounter(
          "scribe.append.messages", config_.name)),
      append_bytes_(MetricsRegistry::Global()->GetCounter(
          "scribe.append.bytes", config_.name)),
      append_latency_(MetricsRegistry::Global()->GetHistogram(
          "scribe.append.latency_us", config_.name)),
      read_messages_(MetricsRegistry::Global()->GetCounter(
          "scribe.read.messages", config_.name)),
      read_batches_(MetricsRegistry::Global()->GetCounter(
          "scribe.read.batches", config_.name)),
      active_buckets_(config_.num_buckets) {
  for (int i = 0; i < config_.num_buckets; ++i) {
    buckets_.push_back(std::make_unique<Bucket>(
        root_dir_ + "/" + config_.name + "/bucket-" + std::to_string(i),
        config_.persist_to_disk, config_.fsync_appends));
  }
}

CategoryConfig Category::config() const {
  std::lock_guard<std::mutex> lock(mu_);
  return config_;
}

int Category::num_buckets() const {
  std::lock_guard<std::mutex> lock(mu_);
  return active_buckets_;
}

Bucket* Category::bucket(int i) {
  std::lock_guard<std::mutex> lock(mu_);
  if (i < 0 || static_cast<size_t>(i) >= buckets_.size()) return nullptr;
  return buckets_[i].get();
}

const Bucket* Category::bucket(int i) const {
  std::lock_guard<std::mutex> lock(mu_);
  if (i < 0 || static_cast<size_t>(i) >= buckets_.size()) return nullptr;
  return buckets_[i].get();
}

Status Category::SetNumBuckets(int n) {
  if (n <= 0 || n > kMaxBucketsPerCategory) {
    return Status::InvalidArgument("num_buckets must be in 1.." +
                                   std::to_string(kMaxBucketsPerCategory));
  }
  std::lock_guard<std::mutex> lock(mu_);
  while (static_cast<size_t>(n) > buckets_.size()) {
    const int i = static_cast<int>(buckets_.size());
    buckets_.push_back(std::make_unique<Bucket>(
        root_dir_ + "/" + config_.name + "/bucket-" + std::to_string(i),
        config_.persist_to_disk, config_.fsync_appends));
  }
  active_buckets_ = n;
  config_.num_buckets = n;
  return Status::OK();
}

namespace {
RetryOptions DefaultAppendRetry() {
  RetryOptions options;
  options.max_attempts = 3;
  options.initial_backoff_micros = 500;
  options.max_backoff_micros = 50'000;
  return options;
}
}  // namespace

Scribe::Scribe(Clock* clock, std::string root_dir)
    : clock_(clock),
      root_dir_(std::move(root_dir)),
      retry_(std::make_unique<RetryPolicy>(clock, DefaultAppendRetry())) {}

void Scribe::SetRetryOptions(const RetryOptions& options) {
  retry_ = std::make_unique<RetryPolicy>(clock_, options);
}

Status Scribe::CreateCategory(const CategoryConfig& config) {
  if (config.name.empty()) {
    return Status::InvalidArgument("category name must not be empty");
  }
  if (config.num_buckets <= 0 || config.num_buckets > kMaxBucketsPerCategory) {
    return Status::InvalidArgument("num_buckets must be in 1.." +
                                   std::to_string(kMaxBucketsPerCategory));
  }
  if (config.persist_to_disk && root_dir_.empty()) {
    return Status::InvalidArgument(
        "persist_to_disk requires a Scribe root directory");
  }
  std::lock_guard<std::mutex> lock(mu_);
  if (categories_.count(config.name) > 0) {
    return Status::AlreadyExists("category " + config.name);
  }
  auto category = std::make_unique<Category>(config, root_dir_);
  if (config.persist_to_disk) {
    for (int i = 0; i < config.num_buckets; ++i) {
      FBSTREAM_RETURN_IF_ERROR(category->bucket(i)->RecoverFromDisk());
    }
  }
  categories_.emplace(config.name, std::move(category));
  return Status::OK();
}

bool Scribe::HasCategory(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  return categories_.count(name) > 0;
}

StatusOr<CategoryConfig> Scribe::GetConfig(const std::string& name) const {
  Category* c = Find(name);
  if (c == nullptr) return Status::NotFound("category " + name);
  return c->config();
}

Status Scribe::SetNumBuckets(const std::string& category, int n) {
  Category* c = Find(category);
  if (c == nullptr) return Status::NotFound("category " + category);
  return c->SetNumBuckets(n);
}

Category* Scribe::Find(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = categories_.find(name);
  return it == categories_.end() ? nullptr : it->second.get();
}

Status Scribe::Write(const std::string& category, int bucket,
                     const std::string& payload) {
  Category* c = Find(category);
  if (c == nullptr) return Status::NotFound("category " + category);
  Bucket* b = c->bucket(bucket);
  if (b == nullptr || bucket >= c->num_buckets()) {
    return Status::OutOfRange("bucket " + std::to_string(bucket) + " of " +
                              category);
  }
  // Sampled appends mint a trace id here — the start of the event's journey
  // through the stack (§4.2.1).
  const uint64_t trace_id = Tracer::Global()->MaybeStartTrace();
  // Latency includes retry backoff: the histogram reports what a producer
  // actually experiences, not just the happy-path append.
  ScopedLatencyTimer timer(c->append_latency());
  // A transient transport fault fails the append *before* the message is
  // durable, so a retried attempt cannot duplicate it.
  const Status st = retry_->Run("scribe.append", [&] {
    FBSTREAM_RETURN_IF_ERROR(FaultRegistry::Global()->Hit("scribe.append"));
    b->Append(payload, clock_->NowMicros(), trace_id);
    return Status::OK();
  });
  if (st.ok()) {
    c->append_messages()->Add();
    c->append_bytes()->Add(payload.size());
  }
  return st;
}

Status Scribe::WriteSharded(const std::string& category,
                            const std::string& shard_key,
                            const std::string& payload) {
  Category* c = Find(category);
  if (c == nullptr) return Status::NotFound("category " + category);
  const int n = c->num_buckets();
  const int bucket = static_cast<int>(Fnv1a64(shard_key) % uint64_t(n));
  return Write(category, bucket, payload);
}

Status Scribe::WriteShardedBatch(const std::string& category,
                                 const std::vector<ShardedRecord>& records) {
  for (const ShardedRecord& r : records) {
    FBSTREAM_RETURN_IF_ERROR(WriteSharded(category, r.shard_key, r.payload));
  }
  return Status::OK();
}

StatusOr<std::vector<Message>> Scribe::Read(const std::string& category,
                                            int bucket,
                                            uint64_t from_sequence,
                                            size_t max_messages) const {
  Category* c = Find(category);
  if (c == nullptr) return Status::NotFound("category " + category);
  const Bucket* b = c->bucket(bucket);
  if (b == nullptr) {
    return Status::OutOfRange("bucket " + std::to_string(bucket) + " of " +
                              category);
  }
  std::vector<Message> out;
  b->Read(from_sequence, max_messages, clock_->NowMicros(),
          c->config().delivery_latency_micros, &out);
  c->read_batches()->Add();
  c->read_messages()->Add(out.size());
  return out;
}

StatusOr<uint64_t> Scribe::NextSequence(const std::string& category,
                                        int bucket) const {
  Category* c = Find(category);
  if (c == nullptr) return Status::NotFound("category " + category);
  const Bucket* b = c->bucket(bucket);
  if (b == nullptr) {
    return Status::OutOfRange("bucket " + std::to_string(bucket) + " of " +
                              category);
  }
  return b->next_sequence();
}

void Scribe::TrimExpired() {
  std::vector<Category*> cats;
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (auto& [name, c] : categories_) cats.push_back(c.get());
  }
  const Micros now = clock_->NowMicros();
  for (Category* c : cats) {
    const Micros horizon = now - c->config().retention_micros;
    for (int i = 0; i < c->num_buckets(); ++i) {
      Bucket* b = c->bucket(i);
      if (b != nullptr) b->TrimBefore(horizon);
    }
  }
}

StatusOr<uint64_t> Scribe::TotalBytes(const std::string& category) const {
  Category* c = Find(category);
  if (c == nullptr) return Status::NotFound("category " + category);
  uint64_t total = 0;
  for (int i = 0; i < c->num_buckets(); ++i) {
    const Bucket* b = c->bucket(i);
    if (b != nullptr) total += b->total_bytes();
  }
  return total;
}

int Scribe::NumBuckets(const std::string& category) const {
  Category* c = Find(category);
  return c == nullptr ? 0 : c->num_buckets();
}

Tailer::Tailer(Scribe* scribe, std::string category, int bucket,
               uint64_t start_sequence)
    : scribe_(scribe),
      category_(std::move(category)),
      bucket_(bucket),
      offset_(start_sequence) {}

std::vector<Message> Tailer::Poll(size_t max_messages) {
  auto result = scribe_->Read(category_, bucket_, offset(), max_messages);
  if (!result.ok()) return {};
  std::vector<Message> messages = std::move(result).value();
  if (!messages.empty()) {
    Seek(messages.back().sequence + 1);
  }
  return messages;
}

uint64_t Tailer::LagMessages() const {
  auto next = scribe_->NextSequence(category_, bucket_);
  if (!next.ok()) return 0;
  const uint64_t at = offset();
  return next.value() > at ? next.value() - at : 0;
}

}  // namespace fbstream::scribe
