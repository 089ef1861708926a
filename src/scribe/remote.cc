#include "scribe/remote.h"

#include <arpa/inet.h>
#include <errno.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <string.h>
#include <sys/socket.h>
#include <sys/types.h>
#include <unistd.h>

#include <chrono>
#include <cstring>
#include <random>

#include "common/fault.h"
#include "common/hash.h"
#include "common/serde.h"

namespace fbstream::scribe {

namespace {

// ---------------------------------------------------------------------------
// Socket plumbing. Every helper classifies errno per the satellite contract:
// transport-level failures are retryable (Unavailable / DeadlineExceeded),
// protocol violations are permanent (Corruption).

Status TransportError(const char* op, int err) {
  if (err == EAGAIN || err == EWOULDBLOCK || err == ETIMEDOUT ||
      err == EINPROGRESS) {
    return Status::DeadlineExceeded(std::string(op) + " timed out");
  }
  return Status::Unavailable(std::string(op) + " failed: " +
                             std::string(strerror(err)));
}

Status SendAll(int fd, const char* data, size_t len) {
  size_t sent = 0;
  while (sent < len) {
    ssize_t n = ::send(fd, data + sent, len - sent, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return TransportError("send", errno);
    }
    if (n == 0) return Status::Unavailable("send: connection closed by peer");
    sent += static_cast<size_t>(n);
  }
  return Status::OK();
}

Status RecvAll(int fd, char* data, size_t len) {
  size_t got = 0;
  while (got < len) {
    ssize_t n = ::recv(fd, data + got, len - got, 0);
    if (n < 0) {
      if (errno == EINTR) continue;
      return TransportError("recv", errno);
    }
    if (n == 0) return Status::Unavailable("recv: connection closed by peer");
    got += static_cast<size_t>(n);
  }
  return Status::OK();
}

void SetRpcTimeouts(int fd, Micros timeout) {
  struct timeval tv;
  tv.tv_sec = timeout / 1'000'000;
  tv.tv_usec = timeout % 1'000'000;
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  ::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof(tv));
  int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
}

// ---------------------------------------------------------------------------
// Body encoding.

void PutOp(std::string* dst, RemoteOp op) {
  dst->push_back(static_cast<char>(op));
}

bool GetOp(std::string_view* src, RemoteOp* op) {
  if (src->empty()) return false;
  *op = static_cast<RemoteOp>(static_cast<uint8_t>((*src)[0]));
  src->remove_prefix(1);
  return true;
}

void PutStatus(std::string* dst, const Status& s) {
  PutVarint64(dst, static_cast<uint64_t>(s.code()));
  PutLengthPrefixed(dst, s.message());
}

bool GetStatus(std::string_view* src, Status* s) {
  uint64_t code = 0;
  std::string_view message;
  if (!GetVarint64(src, &code) || !GetLengthPrefixed(src, &message)) {
    return false;
  }
  if (code == 0) {
    *s = Status::OK();
  } else {
    *s = Status(static_cast<StatusCode>(code), std::string(message));
  }
  return true;
}

void PutCategoryConfig(std::string* dst, const CategoryConfig& c) {
  PutLengthPrefixed(dst, c.name);
  PutVarint64(dst, static_cast<uint64_t>(c.num_buckets));
  PutVarint64(dst, static_cast<uint64_t>(c.retention_micros));
  PutVarint64(dst, static_cast<uint64_t>(c.delivery_latency_micros));
  PutVarint64(dst, c.persist_to_disk ? 1 : 0);
  PutVarint64(dst, c.fsync_appends ? 1 : 0);
}

bool GetCategoryConfig(std::string_view* src, CategoryConfig* c) {
  std::string_view name;
  uint64_t buckets = 0, retention = 0, latency = 0, persist = 0, fsync = 0;
  if (!GetLengthPrefixed(src, &name) || !GetVarint64(src, &buckets) ||
      !GetVarint64(src, &retention) || !GetVarint64(src, &latency) ||
      !GetVarint64(src, &persist) || !GetVarint64(src, &fsync)) {
    return false;
  }
  c->name = std::string(name);
  c->num_buckets = static_cast<int>(buckets);
  c->retention_micros = static_cast<Micros>(retention);
  c->delivery_latency_micros = static_cast<Micros>(latency);
  c->persist_to_disk = persist != 0;
  c->fsync_appends = fsync != 0;
  return true;
}

Status ProtocolViolation(const std::string& what) {
  return Status::Corruption("scribe.remote protocol violation: " + what);
}

}  // namespace

// ---------------------------------------------------------------------------
// Framing.

std::string EncodeFrame(std::string_view body) {
  std::string frame;
  frame.reserve(12 + body.size());
  uint32_t len = static_cast<uint32_t>(body.size());
  frame.append(reinterpret_cast<const char*>(&len), 4);
  uint64_t checksum = Fnv1a64(body);
  frame.append(reinterpret_cast<const char*>(&checksum), 8);
  frame.append(body);
  return frame;
}

StatusOr<std::string> ReadFrameFromFd(int fd) {
  char header[12];
  FBSTREAM_RETURN_IF_ERROR(RecvAll(fd, header, sizeof(header)));
  uint32_t len;
  uint64_t checksum;
  memcpy(&len, header, 4);
  memcpy(&checksum, header + 4, 8);
  if (len > kMaxFrameBytes) {
    return ProtocolViolation("frame length " + std::to_string(len) +
                             " exceeds cap");
  }
  std::string body(len, '\0');
  FBSTREAM_RETURN_IF_ERROR(RecvAll(fd, body.data(), len));
  if (Fnv1a64(body) != checksum) {
    return ProtocolViolation("frame checksum mismatch");
  }
  return body;
}

Status WriteFrameToFd(int fd, std::string_view body) {
  if (body.size() > kMaxFrameBytes) {
    return ProtocolViolation("frame length " + std::to_string(body.size()) +
                             " exceeds cap");
  }
  std::string frame = EncodeFrame(body);
  return SendAll(fd, frame.data(), frame.size());
}

// ---------------------------------------------------------------------------
// Server.

ScribeServer::ScribeServer(Scribe* scribe, ScribeServerOptions options)
    : scribe_(scribe),
      options_(std::move(options)),
      requests_total_(MetricsRegistry::Global()->GetCounter(
          "scribe.remote.server.requests")),
      dedup_hits_(MetricsRegistry::Global()->GetCounter(
          "scribe.remote.server.dedup_hits")),
      partition_drops_(MetricsRegistry::Global()->GetCounter(
          "scribe.remote.server.partition_drops")),
      protocol_errors_(MetricsRegistry::Global()->GetCounter(
          "scribe.remote.server.protocol_errors")) {}

ScribeServer::~ScribeServer() { Stop(); }

Status ScribeServer::Start() {
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (listen_fd_ < 0) return TransportError("socket", errno);
  int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  struct sockaddr_in addr;
  memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(options_.port));
  if (::inet_pton(AF_INET, options_.host.c_str(), &addr.sin_addr) != 1) {
    return Status::InvalidArgument("bad listen host: " + options_.host);
  }
  if (::bind(listen_fd_, reinterpret_cast<struct sockaddr*>(&addr),
             sizeof(addr)) != 0) {
    return TransportError("bind", errno);
  }
  if (::listen(listen_fd_, 64) != 0) return TransportError("listen", errno);
  socklen_t addr_len = sizeof(addr);
  if (::getsockname(listen_fd_, reinterpret_cast<struct sockaddr*>(&addr),
                    &addr_len) != 0) {
    return TransportError("getsockname", errno);
  }
  port_ = ntohs(addr.sin_port);
  stopping_.store(false, std::memory_order_release);
  accept_thread_ = std::thread([this] { AcceptLoop(); });
  return Status::OK();
}

void ScribeServer::Stop() {
  // stop_mu_ makes concurrent Stop() calls safe: exactly one caller runs
  // the shutdown sequence, and losers block here until it has finished
  // (returning early would let a caller proceed while connection threads
  // are still alive; joining the same thread from two callers is UB).
  std::lock_guard<std::mutex> stop_lock(stop_mu_);
  if (stopping_.exchange(true, std::memory_order_acq_rel)) return;
  if (accept_thread_.joinable()) accept_thread_.join();
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
  std::vector<std::unique_ptr<Conn>> conns;
  {
    std::lock_guard<std::mutex> lock(mu_);
    conns.swap(conns_);
  }
  for (auto& conn : conns) {
    if (conn->fd >= 0) ::shutdown(conn->fd, SHUT_RDWR);
  }
  for (auto& conn : conns) {
    if (conn->thread.joinable()) conn->thread.join();
    if (conn->fd >= 0) ::close(conn->fd);
  }
}

void ScribeServer::Partition(const std::string& name_prefix, Micros duration,
                             PartitionMode mode) {
  auto until = std::chrono::steady_clock::now() +
               std::chrono::microseconds(duration);
  std::vector<int> to_sever;
  {
    std::lock_guard<std::mutex> lock(mu_);
    partitions_.push_back(PartitionRule{name_prefix, until, mode});
    if (mode == PartitionMode::kSever) {
      for (auto& conn : conns_) {
        if (conn->fd >= 0 &&
            conn->client_name.rfind(name_prefix, 0) == 0) {
          to_sever.push_back(conn->fd);
        }
      }
    }
  }
  // Shut the sockets down outside the lock; the per-connection threads see
  // recv fail and exit on their own.
  for (int fd : to_sever) ::shutdown(fd, SHUT_RDWR);
}

bool ScribeServer::PartitionFor(const std::string& name,
                                PartitionMode* mode) {
  auto now = std::chrono::steady_clock::now();
  std::lock_guard<std::mutex> lock(mu_);
  bool hit = false;
  for (size_t i = 0; i < partitions_.size();) {
    if (partitions_[i].until <= now) {
      partitions_[i] = partitions_.back();
      partitions_.pop_back();
      continue;
    }
    if (!hit && name.rfind(partitions_[i].name_prefix, 0) == 0) {
      *mode = partitions_[i].mode;
      hit = true;
    }
    ++i;
  }
  return hit;
}

void ScribeServer::AcceptLoop() {
  while (!stopping_.load(std::memory_order_acquire)) {
    struct pollfd pfd = {listen_fd_, POLLIN, 0};
    int ready = ::poll(&pfd, 1, 100);
    if (ready <= 0) continue;
    int fd = ::accept4(listen_fd_, nullptr, nullptr, SOCK_CLOEXEC);
    if (fd < 0) continue;
    // Long I/O timeouts: idleness is detected by poll() in the serve loop,
    // the socket timeout only catches a peer stalling mid-frame.
    SetRpcTimeouts(fd, 5'000'000);
    connections_accepted_.fetch_add(1, std::memory_order_relaxed);
    std::lock_guard<std::mutex> lock(mu_);
    if (stopping_.load(std::memory_order_acquire)) {
      ::close(fd);
      return;
    }
    // Reap connections whose serve thread already finished, so a chaos run
    // full of reconnects doesn't accumulate dead fds.
    for (size_t i = 0; i < conns_.size();) {
      if (conns_[i]->done.load(std::memory_order_acquire)) {
        if (conns_[i]->thread.joinable()) conns_[i]->thread.join();
        if (conns_[i]->fd >= 0) ::close(conns_[i]->fd);
        conns_[i] = std::move(conns_.back());
        conns_.pop_back();
      } else {
        ++i;
      }
    }
    auto conn = std::make_unique<Conn>();
    conn->fd = fd;
    Conn* raw = conn.get();
    conn->thread = std::thread([this, raw] { ServeConnection(raw); });
    conns_.push_back(std::move(conn));
  }
}

void ScribeServer::ServeConnection(Conn* conn) {
  while (!stopping_.load(std::memory_order_acquire)) {
    // Idle detection via poll so a quiet client never trips the socket
    // timeout mid-frame.
    struct pollfd pfd = {conn->fd, POLLIN, 0};
    int ready = ::poll(&pfd, 1,
                       static_cast<int>(options_.idle_poll_micros / 1000));
    if (ready == 0) continue;
    if (ready < 0) {
      if (errno == EINTR) continue;
      break;
    }
    StatusOr<std::string> body_or = ReadFrameFromFd(conn->fd);
    if (!body_or.ok()) {
      if (body_or.status().code() == StatusCode::kCorruption) {
        protocol_errors_->Add(1);
      }
      break;
    }
    const std::string& body = body_or.value();
    requests_total_->Add(1);

    // Partition check precedes everything: a blackholed client's requests
    // never reach the bus (the "packets dropped on the floor" model), a
    // severed client loses its socket.
    PartitionMode pmode;
    if (!conn->client_name.empty() && PartitionFor(conn->client_name, &pmode)) {
      partition_drops_->Add(1);
      if (pmode == PartitionMode::kSever) break;
      continue;  // Blackhole: swallow, never reply.
    }

    std::string response = HandleRequest(body, conn);
    if (response.empty()) break;  // Protocol violation: drop the connection.
    if (!WriteFrameToFd(conn->fd, response).ok()) break;
  }
  ::shutdown(conn->fd, SHUT_RDWR);
  conn->done.store(true, std::memory_order_release);
}

std::string ScribeServer::HandleRequest(const std::string& body, Conn* conn) {
  std::string_view src(body);
  RemoteOp op;
  if (!GetOp(&src, &op)) {
    protocol_errors_->Add(1);
    return "";
  }

  std::string response;
  PutOp(&response, op);
  auto respond_status = [&](const Status& s) {
    PutStatus(&response, s);
    return response;
  };
  auto malformed = [&]() {
    protocol_errors_->Add(1);
    return std::string();
  };

  switch (op) {
    case RemoteOp::kHello: {
      std::string_view name;
      if (!GetLengthPrefixed(&src, &name)) return malformed();
      {
        std::lock_guard<std::mutex> lock(mu_);
        conn->client_name = std::string(name);
      }
      // A partitioned name reconnecting stays partitioned: sever right at
      // the handshake so retry loops keep failing until the deadline.
      PartitionMode pmode;
      if (PartitionFor(conn->client_name, &pmode)) {
        partition_drops_->Add(1);
        return "";
      }
      return respond_status(Status::OK());
    }
    case RemoteOp::kCreateCategory: {
      CategoryConfig config;
      if (!GetCategoryConfig(&src, &config)) return malformed();
      return respond_status(scribe_->CreateCategory(config));
    }
    case RemoteOp::kWrite: {
      std::string_view category, route, payload;
      uint64_t bucket = 0, guid = 0, token = 0;
      if (!GetLengthPrefixed(&src, &category) ||
          !GetLengthPrefixed(&src, &route) || !GetVarint64(&route, &bucket) ||
          !GetLengthPrefixed(&src, &payload) || !GetFixed64(&src, &guid) ||
          !GetVarint64(&src, &token)) {
        return malformed();
      }
      const std::shared_ptr<GuidState> guid_state = DedupStateFor(guid);
      // Idempotent producer, atomically: the per-guid lock spans the dedup
      // check, the append, and recording the token. A duplicate delivered
      // while its original is still applying — the client's RPC timed out
      // mid-append, it reconnected and resent — blocks here until the
      // original records its token, then acks as a dup instead of
      // re-appending. Tokens at or below the recorded high-water mark are
      // retries of appends whose ack got lost: ack again, don't re-append.
      std::lock_guard<std::mutex> apply_lock(guid_state->mu);
      if (token <= guid_state->applied) {
        dedup_hits_->Add(1);
        return respond_status(Status::OK());
      }
      const Status s = scribe_->Write(std::string(category),
                                      static_cast<int>(bucket),
                                      std::string(payload));
      if (s.ok()) guid_state->applied = token;
      return respond_status(s);
    }
    case RemoteOp::kWriteShardedBatch: {
      std::string_view category;
      uint64_t guid = 0, first = 0, count = 0;
      // Every row takes at least its two length bytes, which bounds `count`
      // before anything is reserved for it.
      if (!GetLengthPrefixed(&src, &category) || !GetFixed64(&src, &guid) ||
          !GetVarint64(&src, &first) || !GetVarint64(&src, &count) ||
          count > src.size() / 2 || first > UINT64_MAX - count) {
        return malformed();
      }
      // Decode the whole frame before applying any of it: a malformed batch
      // drops the connection with nothing landed.
      std::vector<std::pair<std::string_view, std::string_view>> rows;
      rows.reserve(count);
      for (uint64_t i = 0; i < count; ++i) {
        std::string_view key, payload;
        if (!GetLengthPrefixed(&src, &key) ||
            !GetLengthPrefixed(&src, &payload)) {
          return malformed();
        }
        rows.emplace_back(key, payload);
      }
      if (!src.empty()) return malformed();
      const std::shared_ptr<GuidState> guid_state = DedupStateFor(guid);
      // Row i carries token first + i. Rows at or below the high-water mark
      // landed in an earlier attempt of this batch; the mark rises row by
      // row, so a batch that failed part-way resumes at its first unapplied
      // row when retried.
      std::lock_guard<std::mutex> apply_lock(guid_state->mu);
      const std::string category_name(category);
      for (uint64_t i = 0; i < count; ++i) {
        const uint64_t token = first + i;
        if (token <= guid_state->applied) {
          dedup_hits_->Add(1);
          continue;
        }
        const Status s =
            scribe_->WriteSharded(category_name, std::string(rows[i].first),
                                  std::string(rows[i].second));
        if (!s.ok()) return respond_status(s);
        guid_state->applied = token;
      }
      return respond_status(Status::OK());
    }
    case RemoteOp::kRead: {
      std::string_view category;
      uint64_t bucket = 0, from = 0, max = 0;
      if (!GetLengthPrefixed(&src, &category) || !GetVarint64(&src, &bucket) ||
          !GetVarint64(&src, &from) || !GetVarint64(&src, &max)) {
        return malformed();
      }
      size_t capped =
          std::min<size_t>(max, options_.max_read_messages);
      auto messages_or = scribe_->Read(std::string(category),
                                       static_cast<int>(bucket), from, capped);
      if (!messages_or.ok()) return respond_status(messages_or.status());
      respond_status(Status::OK());
      // Chunk by encoded bytes as well as message count so the response
      // frame stays under kMaxFrameBytes whatever the payload sizes.
      // Always at least one message, so the reader makes progress; the
      // client resumes from the next sequence on its next poll.
      std::string encoded;
      uint64_t count = 0;
      for (const Message& m : messages_or.value()) {
        std::string one;
        PutVarint64(&one, m.sequence);
        PutVarint64(&one, static_cast<uint64_t>(m.write_time));
        PutVarint64(&one, m.trace_id);
        PutLengthPrefixed(&one, m.payload);
        if (count > 0 &&
            encoded.size() + one.size() > options_.max_read_bytes) {
          break;
        }
        encoded.append(one);
        ++count;
      }
      PutVarint64(&response, count);
      response.append(encoded);
      return response;
    }
    case RemoteOp::kNextSequence: {
      std::string_view category;
      uint64_t bucket = 0;
      if (!GetLengthPrefixed(&src, &category) || !GetVarint64(&src, &bucket)) {
        return malformed();
      }
      auto seq_or =
          scribe_->NextSequence(std::string(category), static_cast<int>(bucket));
      if (!seq_or.ok()) return respond_status(seq_or.status());
      respond_status(Status::OK());
      PutVarint64(&response, seq_or.value());
      return response;
    }
    case RemoteOp::kGetConfig: {
      std::string_view category;
      if (!GetLengthPrefixed(&src, &category)) return malformed();
      auto config_or = scribe_->GetConfig(std::string(category));
      if (!config_or.ok()) return respond_status(config_or.status());
      respond_status(Status::OK());
      PutCategoryConfig(&response, config_or.value());
      return response;
    }
    case RemoteOp::kSetNumBuckets: {
      std::string_view category;
      uint64_t n = 0;
      if (!GetLengthPrefixed(&src, &category) || !GetVarint64(&src, &n)) {
        return malformed();
      }
      return respond_status(
          scribe_->SetNumBuckets(std::string(category), static_cast<int>(n)));
    }
    case RemoteOp::kNumBuckets: {
      std::string_view category;
      if (!GetLengthPrefixed(&src, &category)) return malformed();
      respond_status(Status::OK());
      PutVarint64(&response, static_cast<uint64_t>(
                                 scribe_->NumBuckets(std::string(category))));
      return response;
    }
    case RemoteOp::kTotalBytes: {
      std::string_view category;
      if (!GetLengthPrefixed(&src, &category)) return malformed();
      auto bytes_or = scribe_->TotalBytes(std::string(category));
      if (!bytes_or.ok()) return respond_status(bytes_or.status());
      respond_status(Status::OK());
      PutVarint64(&response, bytes_or.value());
      return response;
    }
    case RemoteOp::kHasCategory: {
      std::string_view category;
      if (!GetLengthPrefixed(&src, &category)) return malformed();
      respond_status(Status::OK());
      PutVarint64(&response,
                  scribe_->HasCategory(std::string(category)) ? 1 : 0);
      return response;
    }
    case RemoteOp::kTrimExpired: {
      scribe_->TrimExpired();
      return respond_status(Status::OK());
    }
    case RemoteOp::kPing:
      return respond_status(Status::OK());
    case RemoteOp::kPartition: {
      std::string_view prefix;
      uint64_t duration = 0, mode = 0;
      if (!GetLengthPrefixed(&src, &prefix) || !GetVarint64(&src, &duration) ||
          !GetVarint64(&src, &mode)) {
        return malformed();
      }
      Partition(std::string(prefix), static_cast<Micros>(duration),
                mode == 0 ? PartitionMode::kSever : PartitionMode::kBlackhole);
      return respond_status(Status::OK());
    }
  }
  return malformed();
}

std::shared_ptr<ScribeServer::GuidState> ScribeServer::DedupStateFor(
    uint64_t guid) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = dedup_.find(guid);
  if (it == dedup_.end()) {
    if (dedup_.size() >= options_.max_dedup_clients) {
      // Evict the least-recently-active guid. A linear scan is fine at this
      // cap; what matters is never dropping a live client's entry, which
      // would let its next retry double-land.
      auto victim = dedup_.begin();
      for (auto jt = dedup_.begin(); jt != dedup_.end(); ++jt) {
        if (jt->second->tick < victim->second->tick) victim = jt;
      }
      dedup_.erase(victim);
    }
    it = dedup_.emplace(guid, std::make_shared<GuidState>()).first;
  }
  it->second->tick = ++dedup_tick_;
  return it->second;
}

// ---------------------------------------------------------------------------
// Client.

namespace {
uint64_t RandomGuid() {
  std::random_device rd;
  return (static_cast<uint64_t>(rd()) << 32) ^ rd() ^
         (static_cast<uint64_t>(::getpid()) << 17);
}
}  // namespace

RemoteScribe::RemoteScribe(Clock* clock, std::string host, int port,
                           std::string client_name, RemoteScribeOptions options)
    : Scribe(clock),
      host_(std::move(host)),
      port_(port),
      client_name_(std::move(client_name)),
      options_(options),
      guid_(RandomGuid()),
      rpc_retry_(std::make_unique<RetryPolicy>(clock, options.retry)),
      rpcs_total_(MetricsRegistry::Global()->GetCounter("scribe.remote.rpcs")),
      rpc_failures_(
          MetricsRegistry::Global()->GetCounter("scribe.remote.rpc_failures")),
      rpc_latency_(MetricsRegistry::Global()->GetHistogram(
          "scribe.remote.rpc_latency_us")) {}

RemoteScribe::~RemoteScribe() {
  std::lock_guard<std::mutex> lock(conn_mu_);
  CloseLocked();
}

void RemoteScribe::CloseLocked() const {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

Status RemoteScribe::EnsureConnectedLocked() const {
  if (fd_ >= 0) return Status::OK();
  int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) return TransportError("socket", errno);
  struct sockaddr_in addr;
  memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(port_));
  if (::inet_pton(AF_INET, host_.c_str(), &addr.sin_addr) != 1) {
    ::close(fd);
    return Status::InvalidArgument("bad broker host: " + host_);
  }
  // Non-blocking connect with a bounded wait, then back to blocking I/O
  // with per-RPC timeouts.
  int flags = ::fcntl(fd, F_GETFL, 0);
  ::fcntl(fd, F_SETFL, flags | O_NONBLOCK);
  int rc = ::connect(fd, reinterpret_cast<struct sockaddr*>(&addr),
                     sizeof(addr));
  if (rc != 0 && errno != EINPROGRESS) {
    int err = errno;
    ::close(fd);
    return TransportError("connect", err);
  }
  if (rc != 0) {
    struct pollfd pfd = {fd, POLLOUT, 0};
    int ready = ::poll(&pfd, 1,
                       static_cast<int>(options_.connect_timeout_micros / 1000));
    if (ready <= 0) {
      ::close(fd);
      return Status::DeadlineExceeded("connect timed out");
    }
    int err = 0;
    socklen_t err_len = sizeof(err);
    ::getsockopt(fd, SOL_SOCKET, SO_ERROR, &err, &err_len);
    if (err != 0) {
      ::close(fd);
      return TransportError("connect", err);
    }
  }
  ::fcntl(fd, F_SETFL, flags);
  SetRpcTimeouts(fd, options_.rpc_timeout_micros);

  // Handshake: identify ourselves so partition rules can find us.
  std::string hello;
  PutOp(&hello, RemoteOp::kHello);
  PutLengthPrefixed(&hello, client_name_);
  Status s = WriteFrameToFd(fd, hello);
  if (s.ok()) {
    auto reply_or = ReadFrameFromFd(fd);
    if (!reply_or.ok()) {
      s = reply_or.status();
    } else {
      std::string_view src(reply_or.value());
      RemoteOp op;
      Status remote;
      if (!GetOp(&src, &op) || op != RemoteOp::kHello ||
          !GetStatus(&src, &remote)) {
        s = ProtocolViolation("bad hello response");
      } else {
        s = remote;
      }
    }
  }
  if (!s.ok()) {
    ::close(fd);
    return s;
  }
  if (ever_connected_) reconnects_.fetch_add(1, std::memory_order_relaxed);
  ever_connected_ = true;
  fd_ = fd;
  return Status::OK();
}

StatusOr<std::string> RemoteScribe::CallOnce(RemoteOp op,
                                             const std::string& body) const {
  std::lock_guard<std::mutex> lock(conn_mu_);

  // Fault site: "the wire ate it". Models a transient partition (client
  // side): the connection is severed and the status is retryable, unless
  // the armed schedule says Corruption — then it must surface immediately.
  Status injected = FaultRegistry::Global()->Hit("scribe.remote.rpc");
  if (!injected.ok()) {
    if (injected.IsRetryable()) CloseLocked();
    return injected;
  }

  FBSTREAM_RETURN_IF_ERROR(EnsureConnectedLocked());
  Status s = WriteFrameToFd(fd_, body);
  if (!s.ok()) {
    CloseLocked();
    return s;
  }
  auto reply_or = ReadFrameFromFd(fd_);
  if (!reply_or.ok()) {
    // Both transient failures and protocol violations invalidate the
    // connection — a desynced stream can't be resumed — but only the
    // transient ones are retryable.
    CloseLocked();
    return reply_or.status();
  }
  std::string_view src(reply_or.value());
  RemoteOp echoed;
  Status remote;
  if (!GetOp(&src, &echoed) || echoed != op || !GetStatus(&src, &remote)) {
    CloseLocked();
    return ProtocolViolation("bad response header");
  }
  if (!remote.ok()) return remote;
  return std::string(src);
}

StatusOr<std::string> RemoteScribe::Call(RemoteOp op,
                                         const std::string& body) const {
  rpcs_total_->Add(1);
  int64_t start = SystemClock::Get()->NowMicros();
  std::string payload;
  Status s = rpc_retry_->Run("scribe.remote.rpc", [&]() {
    auto payload_or = CallOnce(op, body);
    if (!payload_or.ok()) return payload_or.status();
    payload = std::move(payload_or).value();
    return Status::OK();
  });
  rpc_latency_->Record(
      static_cast<uint64_t>(SystemClock::Get()->NowMicros() - start));
  if (!s.ok()) {
    rpc_failures_->Add(1);
    return s;
  }
  return payload;
}

Status RemoteScribe::CreateCategory(const CategoryConfig& config) {
  std::string body;
  PutOp(&body, RemoteOp::kCreateCategory);
  PutCategoryConfig(&body, config);
  return Call(RemoteOp::kCreateCategory, body).status();
}

bool RemoteScribe::HasCategory(const std::string& name) const {
  std::string body;
  PutOp(&body, RemoteOp::kHasCategory);
  PutLengthPrefixed(&body, name);
  auto payload_or = Call(RemoteOp::kHasCategory, body);
  if (!payload_or.ok()) return false;
  std::string_view src(payload_or.value());
  uint64_t has = 0;
  return GetVarint64(&src, &has) && has != 0;
}

StatusOr<CategoryConfig> RemoteScribe::GetConfig(
    const std::string& name) const {
  std::string body;
  PutOp(&body, RemoteOp::kGetConfig);
  PutLengthPrefixed(&body, name);
  FBSTREAM_ASSIGN_OR_RETURN(std::string payload,
                            Call(RemoteOp::kGetConfig, body));
  std::string_view src(payload);
  CategoryConfig config;
  if (!GetCategoryConfig(&src, &config)) {
    return ProtocolViolation("bad GetConfig payload");
  }
  return config;
}

Status RemoteScribe::SetNumBuckets(const std::string& category, int n) {
  std::string body;
  PutOp(&body, RemoteOp::kSetNumBuckets);
  PutLengthPrefixed(&body, category);
  PutVarint64(&body, static_cast<uint64_t>(n));
  return Call(RemoteOp::kSetNumBuckets, body).status();
}

Status RemoteScribe::Write(const std::string& category, int bucket,
                           const std::string& payload) {
  std::string route;
  PutVarint64(&route, static_cast<uint64_t>(bucket));
  std::lock_guard<std::mutex> lock(append_mu_);
  std::string body;
  PutOp(&body, RemoteOp::kWrite);
  PutLengthPrefixed(&body, category);
  PutLengthPrefixed(&body, route);
  PutLengthPrefixed(&body, payload);
  PutFixed64(&body, guid_);
  PutVarint64(&body, next_token_++);
  return Call(RemoteOp::kWrite, body).status();
}

// A single row is a one-row batch: one frame, one token.
Status RemoteScribe::WriteSharded(const std::string& category,
                                  const std::string& shard_key,
                                  const std::string& payload) {
  return WriteShardedBatch(category, {{shard_key, payload}});
}

Status RemoteScribe::WriteShardedBatch(
    const std::string& category, const std::vector<ShardedRecord>& records) {
  std::lock_guard<std::mutex> lock(append_mu_);
  size_t next = 0;
  while (next < records.size()) {
    // Pack rows while they fit the frame budget; the first row of a frame
    // always goes in.
    std::string rows;
    uint64_t count = 0;
    for (; next < records.size(); ++next, ++count) {
      const size_t before = rows.size();
      PutLengthPrefixed(&rows, records[next].shard_key);
      PutLengthPrefixed(&rows, records[next].payload);
      if (count > 0 && rows.size() > kBatchFrameBudgetBytes) {
        rows.resize(before);
        break;
      }
    }
    std::string body;
    body.reserve(rows.size() + category.size() + 32);
    PutOp(&body, RemoteOp::kWriteShardedBatch);
    PutLengthPrefixed(&body, category);
    PutFixed64(&body, guid_);
    PutVarint64(&body, next_token_);
    PutVarint64(&body, count);
    body.append(rows);
    next_token_ += count;
    FBSTREAM_RETURN_IF_ERROR(Call(RemoteOp::kWriteShardedBatch, body).status());
  }
  return Status::OK();
}

StatusOr<std::vector<Message>> RemoteScribe::Read(const std::string& category,
                                                  int bucket,
                                                  uint64_t from_sequence,
                                                  size_t max_messages) const {
  std::string body;
  PutOp(&body, RemoteOp::kRead);
  PutLengthPrefixed(&body, category);
  PutVarint64(&body, static_cast<uint64_t>(bucket));
  PutVarint64(&body, from_sequence);
  PutVarint64(&body, max_messages);
  FBSTREAM_ASSIGN_OR_RETURN(std::string payload, Call(RemoteOp::kRead, body));
  std::string_view src(payload);
  uint64_t count = 0;
  if (!GetVarint64(&src, &count)) {
    return ProtocolViolation("bad Read payload");
  }
  std::vector<Message> messages;
  messages.reserve(count);
  for (uint64_t i = 0; i < count; ++i) {
    Message m;
    uint64_t write_time = 0;
    std::string_view p;
    if (!GetVarint64(&src, &m.sequence) || !GetVarint64(&src, &write_time) ||
        !GetVarint64(&src, &m.trace_id) || !GetLengthPrefixed(&src, &p)) {
      return ProtocolViolation("truncated Read payload");
    }
    m.write_time = static_cast<Micros>(write_time);
    m.payload = std::string(p);
    messages.push_back(std::move(m));
  }
  return messages;
}

StatusOr<uint64_t> RemoteScribe::NextSequence(const std::string& category,
                                              int bucket) const {
  std::string body;
  PutOp(&body, RemoteOp::kNextSequence);
  PutLengthPrefixed(&body, category);
  PutVarint64(&body, static_cast<uint64_t>(bucket));
  FBSTREAM_ASSIGN_OR_RETURN(std::string payload,
                            Call(RemoteOp::kNextSequence, body));
  std::string_view src(payload);
  uint64_t seq = 0;
  if (!GetVarint64(&src, &seq)) {
    return ProtocolViolation("bad NextSequence payload");
  }
  return seq;
}

void RemoteScribe::TrimExpired() {
  std::string body;
  PutOp(&body, RemoteOp::kTrimExpired);
  (void)Call(RemoteOp::kTrimExpired, body);
}

StatusOr<uint64_t> RemoteScribe::TotalBytes(const std::string& category) const {
  std::string body;
  PutOp(&body, RemoteOp::kTotalBytes);
  PutLengthPrefixed(&body, category);
  FBSTREAM_ASSIGN_OR_RETURN(std::string payload,
                            Call(RemoteOp::kTotalBytes, body));
  std::string_view src(payload);
  uint64_t bytes = 0;
  if (!GetVarint64(&src, &bytes)) {
    return ProtocolViolation("bad TotalBytes payload");
  }
  return bytes;
}

int RemoteScribe::NumBuckets(const std::string& category) const {
  std::string body;
  PutOp(&body, RemoteOp::kNumBuckets);
  PutLengthPrefixed(&body, category);
  auto payload_or = Call(RemoteOp::kNumBuckets, body);
  if (!payload_or.ok()) return 0;
  std::string_view src(payload_or.value());
  uint64_t n = 0;
  if (!GetVarint64(&src, &n)) return 0;
  return static_cast<int>(n);
}

Status RemoteScribe::Ping() {
  std::string body;
  PutOp(&body, RemoteOp::kPing);
  return Call(RemoteOp::kPing, body).status();
}

Status RemoteScribe::InjectPartition(const std::string& name_prefix,
                                     Micros duration, PartitionMode mode) {
  std::string body;
  PutOp(&body, RemoteOp::kPartition);
  PutLengthPrefixed(&body, name_prefix);
  PutVarint64(&body, static_cast<uint64_t>(duration));
  PutVarint64(&body, static_cast<uint64_t>(mode));
  return Call(RemoteOp::kPartition, body).status();
}

}  // namespace fbstream::scribe
