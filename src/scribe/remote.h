#ifndef FBSTREAM_SCRIBE_REMOTE_H_
#define FBSTREAM_SCRIBE_REMOTE_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/clock.h"
#include "common/metrics.h"
#include "common/retry.h"
#include "common/status.h"
#include "scribe/scribe.h"

// Socket transport for the Scribe bus (distributed mode). A `scribed`
// broker process owns the durable categories and runs a ScribeServer in
// front of its in-process Scribe; node processes hold a RemoteScribe — a
// drop-in `Scribe` subclass — and append/tail over localhost TCP.
//
// Wire protocol: every frame is
//
//     u32 LE body_length | u64 LE Fnv1a64(body) | body
//
// where body = u8 opcode + serde-encoded fields. Responses echo the request
// opcode followed by varint status code + length-prefixed status message +
// opcode-specific payload. Frames larger than kMaxFrameBytes or with a
// checksum mismatch are protocol violations: the connection is closed and
// the error surfaces as non-retryable Corruption. Transport-level failures
// (refused / reset / closed / timed out) surface as retryable Unavailable
// or DeadlineExceeded, and the client transparently reconnects with
// exponential backoff under its RetryPolicy.
//
// Appends are idempotent across retries: each Write/WriteSharded carries a
// (client guid, monotone token) pair; the broker remembers the last token
// applied per guid and acks duplicates without re-appending. The dedup
// check, the append, and recording the token happen under a per-guid lock,
// so a retry racing its own slow original (client timed out mid-apply,
// reconnected, resent) blocks until the original lands and is then acked
// as a duplicate. A retry after a lost ack therefore cannot double-append
// — the transport preserves the exactly-once contract the chaos harness
// asserts.
//
// A WriteShardedBatch frame carries n rows and the contiguous token range
// [first, first + n): the client advances its token by n. The broker walks
// the rows in order under the same per-guid lock, skips every row whose
// token is at or below the high-water mark, and raises the mark row by
// row. A batch that failed part-way (row k's append gave up) has marked
// rows [0, k) applied, so its retry lands rows k.. only; a retry after a
// lost ack lands nothing. Either way every row lands exactly once, in
// order.
//
// Scope: the dedup table lives in broker memory. It spans connection loss
// and client reconnects — the failure modes the chaos harness injects —
// but not a broker process restart: a client whose append was applied but
// whose ack was lost across a broker restart will retry against a broker
// with no record of its guid and double-append. Broker restart is outside
// the transport's exactly-once contract (the harness kills workers and the
// supervisor, never the broker); extending it would mean journaling the
// per-guid high-water marks next to the durable category segments.
//
// Partitions: the server can sever or blackhole all connections whose
// client name (from the Hello frame) matches a prefix, for a bounded
// duration on the server's steady clock. Severed clients get their socket
// closed; blackholed clients get silence until their RPC times out. New
// connections from a partitioned name stay partitioned until the deadline.

namespace fbstream::scribe {

// Request opcodes. u8 on the wire.
enum class RemoteOp : uint8_t {
  kHello = 0,  // fields: client name. First frame on every connection.
  kCreateCategory = 1,
  kWrite = 2,
  // 3 is retired: a frame carrying it is malformed.
  kRead = 4,
  kNextSequence = 5,
  kGetConfig = 6,
  kSetNumBuckets = 7,
  kNumBuckets = 8,
  kTotalBytes = 9,
  kHasCategory = 10,
  kTrimExpired = 11,
  kPing = 12,
  kPartition = 13,  // admin: inject a timed partition.
  // fields: category, guid, first token, row count, then per row the
  // shard key and payload. Row i carries token first + i.
  kWriteShardedBatch = 14,
};

// Frames beyond this are a protocol violation (Corruption), not a large
// message: Scribe payloads are rows, and Read responses are chunked
// server-side by both message count and encoded byte size (see
// ScribeServerOptions::max_read_bytes) to stay below this bound.
inline constexpr uint32_t kMaxFrameBytes = 64u << 20;

// RemoteScribe::WriteShardedBatch packs rows into one frame while their
// encoding fits this many bytes, and starts another frame after that. A
// row larger than the budget goes out alone in its own frame.
inline constexpr size_t kBatchFrameBudgetBytes = 1u << 20;

// Framing helpers, exposed so tests can hand-craft (and corrupt) frames.
std::string EncodeFrame(std::string_view body);
// Blocking single-frame read from `fd`. Classification contract
// (satellite: transient vs permanent):
//   - peer closed / ECONNRESET / EPIPE        -> Unavailable   (retryable)
//   - SO_RCVTIMEO expiry                      -> DeadlineExceeded (retryable)
//   - oversize length or checksum mismatch    -> Corruption    (permanent)
StatusOr<std::string> ReadFrameFromFd(int fd);
Status WriteFrameToFd(int fd, std::string_view body);

enum class PartitionMode : uint8_t {
  kSever = 0,      // Close the connection; further connects are refused.
  kBlackhole = 1,  // Swallow requests silently; the client times out.
};

struct ScribeServerOptions {
  // Loopback only: this is a single-machine scale-out simulation.
  std::string host = "127.0.0.1";
  int port = 0;  // 0 = ephemeral; read the bound port back via port().
  // Per-connection socket read timeout (used to poll the stop flag, not a
  // client-visible deadline).
  Micros idle_poll_micros = 100'000;
  // Read responses are chunked to at most this many messages — and at most
  // max_read_bytes of encoded messages, always at least one — per RPC, so a
  // response frame never exceeds kMaxFrameBytes regardless of payload size.
  // The client resumes from the next sequence on its next poll.
  size_t max_read_messages = 8192;
  size_t max_read_bytes = 48u << 20;
  // Dedup memory: last-applied append token retained per client guid.
  size_t max_dedup_clients = 1024;
};

// Serves an in-process Scribe over TCP. One thread per connection (worker
// counts are small: one broker, a handful of node processes). Thread-safe.
class ScribeServer {
 public:
  ScribeServer(Scribe* scribe, ScribeServerOptions options = {});
  ~ScribeServer();

  Status Start();
  void Stop();

  int port() const { return port_; }

  // Injects a timed partition for every client whose Hello name starts
  // with `name_prefix` (empty = everyone). Also reachable remotely via the
  // kPartition RPC — the chaos driver uses that to cut a worker off from
  // the broker without reaching into the broker process.
  void Partition(const std::string& name_prefix, Micros duration,
                 PartitionMode mode);

  uint64_t connections_accepted() const {
    return connections_accepted_.load(std::memory_order_relaxed);
  }

 private:
  struct Conn {
    int fd = -1;
    std::string client_name;
    std::thread thread;
    std::atomic<bool> done{false};
  };
  struct PartitionRule {
    std::string name_prefix;
    std::chrono::steady_clock::time_point until;
    PartitionMode mode;
  };

  void AcceptLoop();
  void ServeConnection(Conn* conn);
  // Returns the active partition rule for `name`, if any.
  bool PartitionFor(const std::string& name, PartitionMode* mode);
  std::string HandleRequest(const std::string& body, Conn* conn);

  Scribe* scribe_;
  ScribeServerOptions options_;
  int listen_fd_ = -1;
  int port_ = 0;
  std::atomic<bool> stopping_{false};
  std::thread accept_thread_;

  // Serializes Stop(): joining a thread from two callers concurrently is
  // UB, and a losing caller must not return before shutdown completes.
  std::mutex stop_mu_;

  std::mutex mu_;
  std::vector<std::unique_ptr<Conn>> conns_;
  std::vector<PartitionRule> partitions_;
  // Per-guid append dedup. `mu` is held across the whole dedup-check +
  // append + record-token sequence so a duplicate racing its in-flight
  // original waits for it instead of re-applying; `applied` is guarded by
  // `mu`, `tick` by the server's mu_. The table is capped at
  // max_dedup_clients by evicting the least-recently-active guid — never
  // wholesale, since wiping an active client's entry would let its
  // in-flight retry double-land.
  struct GuidState {
    std::mutex mu;
    uint64_t applied = 0;
    uint64_t tick = 0;
  };
  // The guid's entry, created (evicting the least-recently-active guid at
  // the cap) if new, and marked most recently active.
  std::shared_ptr<GuidState> DedupStateFor(uint64_t guid);
  std::map<uint64_t, std::shared_ptr<GuidState>> dedup_;
  uint64_t dedup_tick_ = 0;

  std::atomic<uint64_t> connections_accepted_{0};
  Counter* requests_total_;
  Counter* dedup_hits_;
  Counter* partition_drops_;
  Counter* protocol_errors_;
};

struct RemoteScribeOptions {
  Micros connect_timeout_micros = 1'000'000;
  // SO_RCVTIMEO/SO_SNDTIMEO per RPC. A blackholed connection surfaces as
  // DeadlineExceeded after this long.
  Micros rpc_timeout_micros = 2'000'000;
  // Reconnect-with-backoff budget for transient transport failures.
  RetryOptions retry = {
      .max_attempts = 6,
      .initial_backoff_micros = 2'000,
      .max_backoff_micros = 200'000,
  };
};

// Client half: a Scribe whose every operation is an RPC to a ScribeServer.
// Thread-safe; RPCs on the shared connection are serialized.
class RemoteScribe : public Scribe {
 public:
  // `client_name` identifies this process to the broker (partition rules
  // match on it). Convention: "worker.<name>", "supervisor", "driver".
  RemoteScribe(Clock* clock, std::string host, int port,
               std::string client_name, RemoteScribeOptions options = {});
  ~RemoteScribe() override;

  Status CreateCategory(const CategoryConfig& config) override;
  bool HasCategory(const std::string& name) const override;
  StatusOr<CategoryConfig> GetConfig(const std::string& name) const override;
  Status SetNumBuckets(const std::string& category, int n) override;
  Status Write(const std::string& category, int bucket,
               const std::string& payload) override;
  Status WriteSharded(const std::string& category,
                      const std::string& shard_key,
                      const std::string& payload) override;
  // One kWriteShardedBatch RPC per kBatchFrameBudgetBytes of rows.
  Status WriteShardedBatch(const std::string& category,
                           const std::vector<ShardedRecord>& records) override;
  StatusOr<std::vector<Message>> Read(const std::string& category, int bucket,
                                      uint64_t from_sequence,
                                      size_t max_messages) const override;
  StatusOr<uint64_t> NextSequence(const std::string& category,
                                  int bucket) const override;
  void TrimExpired() override;
  StatusOr<uint64_t> TotalBytes(const std::string& category) const override;
  int NumBuckets(const std::string& category) const override;

  // Round-trip liveness probe.
  Status Ping();

  // Asks the broker to partition clients matching `name_prefix` (admin RPC;
  // the chaos driver severs workers without touching the broker process).
  Status InjectPartition(const std::string& name_prefix, Micros duration,
                         PartitionMode mode);

  // Times the transport reconnected after a transient failure.
  uint64_t reconnects() const {
    return reconnects_.load(std::memory_order_relaxed);
  }
  RetryPolicy::StatsSnapshot transport_retry_stats() const {
    return rpc_retry_->stats();
  }
  const std::string& client_name() const { return client_name_; }

 private:
  // One RPC under the reconnect/retry policy. Returns the response payload
  // (bytes after the echoed opcode + status) on OK.
  StatusOr<std::string> Call(RemoteOp op, const std::string& body) const;
  // One attempt on the current connection; closes it on transport error.
  StatusOr<std::string> CallOnce(RemoteOp op, const std::string& body) const;
  Status EnsureConnectedLocked() const;
  void CloseLocked() const;

  std::string host_;
  int port_;
  std::string client_name_;
  RemoteScribeOptions options_;
  uint64_t guid_;
  // Guards token assignment *and* the append RPC together: the broker
  // dedups on a per-guid high-water mark, so tokens must reach it in
  // order. Held around Call() in Write/WriteSharded/WriteShardedBatch.
  mutable std::mutex append_mu_;
  uint64_t next_token_ = 1;
  std::unique_ptr<RetryPolicy> rpc_retry_;

  mutable std::mutex conn_mu_;
  mutable int fd_ = -1;
  mutable bool ever_connected_ = false;
  mutable std::atomic<uint64_t> reconnects_{0};

  Counter* rpcs_total_;
  Counter* rpc_failures_;
  Histogram* rpc_latency_;
};

}  // namespace fbstream::scribe

#endif  // FBSTREAM_SCRIBE_REMOTE_H_
