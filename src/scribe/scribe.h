#ifndef FBSTREAM_SCRIBE_SCRIBE_H_
#define FBSTREAM_SCRIBE_SCRIBE_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/clock.h"
#include "common/metrics.h"
#include "common/retry.h"
#include "common/status.h"

namespace fbstream::scribe {

// Scribe (paper §2.1): a persistent, distributed messaging system for
// collecting, aggregating and delivering high volumes of log data with a few
// seconds of latency. Data is organized by *category* (a distinct stream);
// each category has multiple *buckets*, the unit of parallel consumption.
// Messages are durable (optionally persisted to disk segments, standing in
// for Scribe's HDFS storage) and can be replayed by the same or different
// readers for the retention period.
//
// This implementation keeps the properties the paper's design arguments rest
// on: append-only per-bucket logs with monotone sequence numbers, fully
// decoupled readers with independent offsets, replay from any retained
// offset, multiplexing (any number of readers per bucket), retention
// trimming, and re-bucketing via a config change.

// One message in a bucket. `sequence` is the bucket-local offset; a reader
// that has consumed message s resumes at s+1.
struct Message {
  uint64_t sequence = 0;
  Micros write_time = 0;  // When the writer appended it.
  std::string payload;
  // Nonzero for the sampled fraction of appends the Tracer picked (§4.2.1
  // latency analysis). Carried through the engine to storage sinks; persisted
  // with the message so replayed events keep their trace identity.
  uint64_t trace_id = 0;
};

// One row of a batched append (Scribe::WriteShardedBatch).
struct ShardedRecord {
  std::string shard_key;
  std::string payload;
};

// Upper bound on a category's bucket count. Buckets are allocated eagerly,
// so an unbounded count (a bad config, a damaged request frame) would be
// an unbounded allocation.
inline constexpr int kMaxBucketsPerCategory = 4096;

struct CategoryConfig {
  std::string name;
  int num_buckets = 1;  // 1..kMaxBucketsPerCategory.
  // Messages older than this are eligible for trimming ("up to a few days").
  Micros retention_micros = 3 * kMicrosPerDay;
  // Minimum delay before a written message becomes visible to readers;
  // models Scribe's aggregation/batching latency ("about a second per
  // stream"). Zero for latency-insensitive tests.
  Micros delivery_latency_micros = 0;
  // If true, every append is also written to a disk segment under the Scribe
  // root directory and survives process restart.
  bool persist_to_disk = false;
  // With persist_to_disk: fsync the segment after each persisted append (the
  // batch boundary — producers append whole batches through Write), so an
  // acked message survives not just process death but power loss. Off by
  // default: the buffered path matches Scribe's "few seconds of durability
  // lag" and is what most tests want.
  bool fsync_appends = false;
};

// A single append-only bucket log. Thread-safe.
//
// Persistence uses rotated segment files (`segment-<base_seq>.log`): the
// active segment rolls over every kSegmentMessages appends, and retention
// trimming deletes whole expired segments from disk — the unit of deletion
// in real log stores. Each on-disk record is framed as varint length +
// fixed64 checksum + body (as in lsm/wal.h); the body is varint sequence,
// varint write time, length-prefixed payload and varint trace id, all
// required, and nothing may follow the trace id. Replay stops at the first
// torn, short or corrupt record and truncates the segment back to its
// intact prefix so later appends resume from a clean record boundary.
class Bucket {
 public:
  static constexpr size_t kSegmentMessages = 4096;

  Bucket(std::string dir, bool persist, bool fsync_appends = false);

  // Appends a payload; returns its sequence number. `trace_id` is nonzero
  // only for tracer-sampled messages.
  uint64_t Append(const std::string& payload, Micros now,
                  uint64_t trace_id = 0);

  // Reads up to `max_messages` messages with sequence >= from_sequence that
  // are visible at time `now` (write_time + delivery_latency <= now).
  // Returns the number of messages appended to `out`.
  size_t Read(uint64_t from_sequence, size_t max_messages, Micros now,
              Micros delivery_latency, std::vector<Message>* out) const;

  // Drops messages with write_time < horizon (and deletes fully expired
  // sealed segments from disk). Trailing readers whose offset points below
  // the trim point will resume at the oldest retained message.
  void TrimBefore(Micros horizon);

  uint64_t next_sequence() const;
  uint64_t oldest_sequence() const;
  uint64_t total_bytes() const;
  // Sealed + active segment files currently on disk (0 if not persisted).
  size_t NumSegmentFiles() const;

  // Rebuilds in-memory state from disk segments (startup recovery).
  Status RecoverFromDisk();

 private:
  struct SegmentMeta {
    uint64_t base_sequence = 0;
    std::string path;
    Micros newest_time = 0;
    size_t messages = 0;
  };

  std::string SegmentPath(uint64_t base_sequence) const;
  void PersistAppendLocked(const Message& m);

  mutable std::mutex mu_;
  std::string dir_;
  bool persist_;
  bool fsync_appends_;
  uint64_t base_sequence_ = 0;  // Sequence of messages_[0].
  std::vector<Message> messages_;
  uint64_t bytes_ = 0;
  std::vector<SegmentMeta> segments_;  // Ascending base_sequence; last is
                                       // the active segment.
};

class Category {
 public:
  explicit Category(CategoryConfig config, std::string root_dir);

  // Snapshot of the config. By value and mutex-guarded: SetNumBuckets
  // mutates num_buckets concurrently with readers (monitoring threads,
  // parallel pipeline workers).
  CategoryConfig config() const;
  int num_buckets() const;

  Bucket* bucket(int i);
  const Bucket* bucket(int i) const;

  // Reconfigures the number of buckets (§4.2.2 scalability: "changing the
  // number of buckets per Scribe category in a configuration file"). Growing
  // adds empty buckets; shrinking seals the tail buckets — writers stop
  // routing to them, readers can still drain retained data.
  Status SetNumBuckets(int n);

  // Per-category metric handles (node label = category name), looked up once
  // at construction so the append/read hot paths never touch the registry
  // mutex. Registry entries are immortal, so the pointers can't dangle.
  Counter* append_messages() const { return append_messages_; }
  Counter* append_bytes() const { return append_bytes_; }
  Histogram* append_latency() const { return append_latency_; }
  Counter* read_messages() const { return read_messages_; }
  Counter* read_batches() const { return read_batches_; }

 private:
  CategoryConfig config_;
  std::string root_dir_;
  Counter* append_messages_;
  Counter* append_bytes_;
  Histogram* append_latency_;
  Counter* read_messages_;
  Counter* read_batches_;
  mutable std::mutex mu_;
  std::vector<std::unique_ptr<Bucket>> buckets_;
  int active_buckets_;
};

// The bus. Owns all categories. Thread-safe.
//
// Appends run under a RetryPolicy: the "scribe.append" fault site can make
// an individual append fail transiently (a flaky aggregator hop), and the
// writer retries with backoff before surfacing the error. With no faults
// armed the policy never sleeps.
//
// The bus operations are virtual: consumers (Tailer, NodeShard, Pipeline,
// sinks, monitoring) hold a `Scribe*` and work unchanged whether it is this
// in-process bus or a `RemoteScribe` (scribe/remote.h) talking to a
// `scribed` broker process over a socket. Distributed mode is a transport
// swap, not a rewrite.
class Scribe {
 public:
  // `root_dir` hosts persisted segments for categories that opt in; it may
  // be empty if no category persists.
  explicit Scribe(Clock* clock, std::string root_dir = "");
  virtual ~Scribe() = default;

  Scribe(const Scribe&) = delete;
  Scribe& operator=(const Scribe&) = delete;

  virtual Status CreateCategory(const CategoryConfig& config);
  virtual bool HasCategory(const std::string& name) const;
  virtual StatusOr<CategoryConfig> GetConfig(const std::string& name) const;
  virtual Status SetNumBuckets(const std::string& category, int n);

  // Appends to an explicit bucket.
  virtual Status Write(const std::string& category, int bucket,
                       const std::string& payload);
  // Routes by hash of `shard_key` over the category's active buckets. This
  // is how processing nodes reshard their output (§3).
  virtual Status WriteSharded(const std::string& category,
                              const std::string& shard_key,
                              const std::string& payload);
  // Appends `records` in order, each routed as WriteSharded routes it: the
  // producer-side batching of §2.1 ("seconds" of latency buy one bus call
  // per batch). Stops at the first failed row and returns its error; the
  // rows before it have landed. This in-process version loops the virtual
  // WriteSharded, so a subclass that wraps another bus and overrides only
  // the single-row calls stays correct; RemoteScribe overrides it with one
  // RPC per batch.
  virtual Status WriteShardedBatch(const std::string& category,
                                   const std::vector<ShardedRecord>& records);

  // Reads messages visible now. Used by Tailer; exposed for tests.
  virtual StatusOr<std::vector<Message>> Read(const std::string& category,
                                              int bucket,
                                              uint64_t from_sequence,
                                              size_t max_messages) const;

  virtual StatusOr<uint64_t> NextSequence(const std::string& category,
                                          int bucket) const;

  // Applies retention trimming across all categories.
  virtual void TrimExpired();

  // Total backlog (messages not yet trimmed) across a category, for
  // monitoring.
  virtual StatusOr<uint64_t> TotalBytes(const std::string& category) const;

  Clock* clock() const { return clock_; }

  virtual int NumBuckets(const std::string& category) const;

  // Append retry behavior (defaults: 3 attempts, 500us initial backoff).
  void SetRetryOptions(const RetryOptions& options);
  RetryPolicy::StatsSnapshot retry_stats() const { return retry_->stats(); }

 private:
  Category* Find(const std::string& name) const;

  Clock* clock_;
  std::string root_dir_;
  std::unique_ptr<RetryPolicy> retry_;
  mutable std::mutex mu_;
  std::map<std::string, std::unique_ptr<Category>> categories_;
};

// A cursor over one bucket of one category. Each Tailer has an independent
// offset: readers are fully decoupled from writers and from each other.
//
// The offset is atomic: Poll/Seek belong to the single consumer thread that
// owns the cursor, but offset() and LagMessages() may be called concurrently
// by monitoring threads (§6.4 lag sampling races a running pipeline round).
class Tailer {
 public:
  Tailer(Scribe* scribe, std::string category, int bucket,
         uint64_t start_sequence = 0);

  Tailer(const Tailer& other)
      : scribe_(other.scribe_),
        category_(other.category_),
        bucket_(other.bucket_),
        offset_(other.offset_.load(std::memory_order_relaxed)) {}
  Tailer& operator=(const Tailer& other) {
    scribe_ = other.scribe_;
    category_ = other.category_;
    bucket_ = other.bucket_;
    offset_.store(other.offset_.load(std::memory_order_relaxed),
                  std::memory_order_relaxed);
    return *this;
  }

  // Returns up to `max_messages` new messages and advances the offset.
  std::vector<Message> Poll(size_t max_messages = 1024);

  // Next sequence this tailer will read. Persisted by consumers as their
  // checkpoint offset.
  uint64_t offset() const { return offset_.load(std::memory_order_acquire); }
  void Seek(uint64_t sequence) {
    offset_.store(sequence, std::memory_order_release);
  }

  const std::string& category() const { return category_; }
  int bucket() const { return bucket_; }

  // Processing lag in messages: how far the tailer trails the bucket head
  // (§6.4 monitoring).
  uint64_t LagMessages() const;

 private:
  Scribe* scribe_;
  std::string category_;
  int bucket_;
  std::atomic<uint64_t> offset_;
};

}  // namespace fbstream::scribe

#endif  // FBSTREAM_SCRIBE_SCRIBE_H_
