// Socket Scribe transport tests: wire framing, local/remote parity,
// idempotent-append dedup, transient-vs-permanent error classification,
// injected partitions, and reconnect-with-backoff.

#include <arpa/inet.h>
#include <gtest/gtest.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "common/fault.h"
#include "common/fs.h"
#include "common/hash.h"
#include "common/metrics.h"
#include "common/serde.h"
#include "scribe/remote.h"
#include "scribe/scribe.h"

namespace fbstream::scribe {
namespace {

// ---------------------------------------------------------------------------
// Raw-socket helpers: hand-crafted frames for the tests that must speak the
// protocol without the client's conveniences (dedup replay, corruption).

int ConnectTo(int port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  EXPECT_GE(fd, 0);
  struct sockaddr_in addr;
  memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(port));
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  EXPECT_EQ(::connect(fd, reinterpret_cast<struct sockaddr*>(&addr),
                      sizeof(addr)),
            0);
  return fd;
}

// Parses "opcode + status code" off a response body.
uint64_t ResponseCode(const std::string& body) {
  std::string_view src(body);
  src.remove_prefix(1);  // opcode echo
  uint64_t code = 0;
  EXPECT_TRUE(GetVarint64(&src, &code));
  return code;
}

std::string HelloBody(const std::string& name) {
  std::string body;
  body.push_back(static_cast<char>(RemoteOp::kHello));
  PutLengthPrefixed(&body, name);
  return body;
}

std::string WriteBody(const std::string& category, int bucket,
                      const std::string& payload, uint64_t guid,
                      uint64_t token) {
  std::string body;
  body.push_back(static_cast<char>(RemoteOp::kWrite));
  PutLengthPrefixed(&body, category);
  std::string route;
  PutVarint64(&route, static_cast<uint64_t>(bucket));
  PutLengthPrefixed(&body, route);
  PutLengthPrefixed(&body, payload);
  PutFixed64(&body, guid);
  PutVarint64(&body, token);
  return body;
}

// A kWriteShardedBatch request body: row i carries token first_token + i.
std::string BatchBody(const std::string& category, uint64_t guid,
                      uint64_t first_token,
                      const std::vector<ShardedRecord>& rows) {
  std::string body;
  body.push_back(static_cast<char>(RemoteOp::kWriteShardedBatch));
  PutLengthPrefixed(&body, category);
  PutFixed64(&body, guid);
  PutVarint64(&body, first_token);
  PutVarint64(&body, rows.size());
  for (const ShardedRecord& r : rows) {
    PutLengthPrefixed(&body, r.shard_key);
    PutLengthPrefixed(&body, r.payload);
  }
  return body;
}

std::vector<ShardedRecord> NumberedRows(const std::string& prefix, int n) {
  std::vector<ShardedRecord> rows;
  for (int i = 0; i < n; ++i) {
    rows.push_back({"key" + std::to_string(i), prefix + std::to_string(i)});
  }
  return rows;
}

// One request on a raw connection; returns the response's status code.
uint64_t RoundTrip(int fd, const std::string& body) {
  EXPECT_TRUE(WriteFrameToFd(fd, body).ok());
  auto reply = ReadFrameFromFd(fd);
  EXPECT_TRUE(reply.ok()) << reply.status();
  return reply.ok() ? ResponseCode(reply.value()) : ~uint64_t{0};
}

// A raw connection that has said Hello.
int HelloConnection(int port, const std::string& name) {
  const int fd = ConnectTo(port);
  EXPECT_EQ(RoundTrip(fd, HelloBody(name)), 0u);
  return fd;
}

// Every payload of every bucket of `category`, bucket by bucket in
// sequence order.
std::vector<std::vector<std::string>> PayloadsByBucket(
    Scribe* scribe, const std::string& category) {
  std::vector<std::vector<std::string>> out(
      static_cast<size_t>(scribe->NumBuckets(category)));
  for (size_t b = 0; b < out.size(); ++b) {
    auto messages = scribe->Read(category, static_cast<int>(b), 0, 100'000);
    EXPECT_TRUE(messages.ok());
    if (!messages.ok()) continue;
    for (const Message& m : *messages) out[b].push_back(m.payload);
  }
  return out;
}

// A scripted fake broker for client-side classification tests: accepts one
// connection, answers the Hello, then runs `script` on the next request.
class FakeBroker {
 public:
  enum class Behavior {
    kGarbageChecksum,  // Valid length, wrong checksum.
    kWrongOpcode,      // Well-formed frame echoing the wrong opcode.
    kSilence,          // Never respond (client's SO_RCVTIMEO fires).
    kCloseConnection,  // Close immediately after reading the request.
  };

  explicit FakeBroker(Behavior behavior) : behavior_(behavior) {
    listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    struct sockaddr_in addr;
    memset(&addr, 0, sizeof(addr));
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = 0;
    EXPECT_EQ(::bind(listen_fd_, reinterpret_cast<struct sockaddr*>(&addr),
                     sizeof(addr)),
              0);
    EXPECT_EQ(::listen(listen_fd_, 4), 0);
    socklen_t len = sizeof(addr);
    ::getsockname(listen_fd_, reinterpret_cast<struct sockaddr*>(&addr), &len);
    port_ = ntohs(addr.sin_port);
    thread_ = std::thread([this] { Serve(); });
  }

  ~FakeBroker() {
    // shutdown(), not just close(): close() does not wake a thread blocked
    // in accept() on the same socket.
    ::shutdown(listen_fd_, SHUT_RDWR);
    ::close(listen_fd_);
    thread_.join();
  }

  int port() const { return port_; }

 private:
  void Serve() {
    // Serve connections until the listener closes: the client under test
    // may reconnect after we misbehave.
    for (;;) {
      const int fd = ::accept(listen_fd_, nullptr, nullptr);
      if (fd < 0) return;
      auto hello = ReadFrameFromFd(fd);
      if (hello.ok()) {
        std::string reply;
        reply.push_back(static_cast<char>(RemoteOp::kHello));
        PutVarint64(&reply, 0);
        PutLengthPrefixed(&reply, "");
        (void)WriteFrameToFd(fd, reply);
        auto request = ReadFrameFromFd(fd);
        if (request.ok()) Misbehave(fd, request.value());
      }
      ::close(fd);
    }
  }

  void Misbehave(int fd, const std::string& request) {
    switch (behavior_) {
      case Behavior::kGarbageChecksum: {
        const std::string body = "garbage-body";
        std::string frame;
        uint32_t len = static_cast<uint32_t>(body.size());
        frame.append(reinterpret_cast<const char*>(&len), 4);
        uint64_t bad_checksum = Fnv1a64(body) ^ 0xdeadbeef;
        frame.append(reinterpret_cast<const char*>(&bad_checksum), 8);
        frame.append(body);
        ::send(fd, frame.data(), frame.size(), MSG_NOSIGNAL);
        break;
      }
      case Behavior::kWrongOpcode: {
        std::string reply;
        reply.push_back(static_cast<char>(RemoteOp::kPing));
        PutVarint64(&reply, 0);
        PutLengthPrefixed(&reply, "");
        if (!request.empty() &&
            request[0] == static_cast<char>(RemoteOp::kPing)) {
          // Make sure it's actually *wrong* for the request at hand.
          reply[0] = static_cast<char>(RemoteOp::kWrite);
        }
        (void)WriteFrameToFd(fd, reply);
        break;
      }
      case Behavior::kSilence: {
        // Park until the peer hangs up.
        char c;
        while (::recv(fd, &c, 1, 0) > 0) {
        }
        break;
      }
      case Behavior::kCloseConnection:
        break;
    }
  }

  Behavior behavior_;
  int listen_fd_ = -1;
  int port_ = 0;
  std::thread thread_;
};

RemoteScribeOptions FailFastOptions() {
  RemoteScribeOptions options;
  options.connect_timeout_micros = 300'000;
  options.rpc_timeout_micros = 150'000;
  options.retry = {.max_attempts = 2,
                   .initial_backoff_micros = 1'000,
                   .max_backoff_micros = 10'000};
  return options;
}

// ---------------------------------------------------------------------------
// Framing.

TEST(RemoteFramingTest, RoundTripThroughSocketPair) {
  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  ASSERT_TRUE(WriteFrameToFd(fds[0], "hello frame").ok());
  auto body = ReadFrameFromFd(fds[1]);
  ASSERT_TRUE(body.ok()) << body.status();
  EXPECT_EQ(body.value(), "hello frame");
  ::close(fds[0]);
  ::close(fds[1]);
}

TEST(RemoteFramingTest, ChecksumMismatchIsCorruption) {
  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  std::string frame = EncodeFrame("payload");
  frame[6] ^= 0x1;  // Flip a checksum bit.
  ASSERT_EQ(::send(fds[0], frame.data(), frame.size(), 0),
            static_cast<ssize_t>(frame.size()));
  auto body = ReadFrameFromFd(fds[1]);
  EXPECT_EQ(body.status().code(), StatusCode::kCorruption);
  ::close(fds[0]);
  ::close(fds[1]);
}

TEST(RemoteFramingTest, OversizeLengthIsCorruption) {
  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  char header[12] = {0};
  const uint32_t huge = kMaxFrameBytes + 1;
  memcpy(header, &huge, 4);
  ASSERT_EQ(::send(fds[0], header, sizeof(header), 0), 12);
  auto body = ReadFrameFromFd(fds[1]);
  EXPECT_EQ(body.status().code(), StatusCode::kCorruption);
  ::close(fds[0]);
  ::close(fds[1]);
}

TEST(RemoteFramingTest, PeerCloseIsRetryableUnavailable) {
  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  ::close(fds[0]);
  auto body = ReadFrameFromFd(fds[1]);
  EXPECT_EQ(body.status().code(), StatusCode::kUnavailable);
  EXPECT_TRUE(body.status().IsRetryable());
  ::close(fds[1]);
}

// ---------------------------------------------------------------------------
// Local/remote parity: every Scribe operation behaves identically through
// the socket.

class RemoteScribeTest : public ::testing::Test {
 protected:
  void SetUp() override {
    FaultRegistry::Global()->Reset();
    clock_.SetMicros(1'000'000);
    local_ = std::make_unique<Scribe>(&clock_);
    server_ = std::make_unique<ScribeServer>(local_.get());
    ASSERT_TRUE(server_->Start().ok());
    remote_ = std::make_unique<RemoteScribe>(&clock_, "127.0.0.1",
                                             server_->port(), "test.client",
                                             FailFastOptions());
  }

  void TearDown() override {
    remote_.reset();
    server_->Stop();
    FaultRegistry::Global()->Reset();
  }

  SimClock clock_;
  std::unique_ptr<Scribe> local_;
  std::unique_ptr<ScribeServer> server_;
  std::unique_ptr<RemoteScribe> remote_;
};

TEST_F(RemoteScribeTest, FullApiParity) {
  CategoryConfig config;
  config.name = "events";
  config.num_buckets = 4;
  ASSERT_TRUE(remote_->CreateCategory(config).ok());
  EXPECT_TRUE(remote_->HasCategory("events"));
  EXPECT_FALSE(remote_->HasCategory("nope"));
  EXPECT_EQ(remote_->NumBuckets("events"), 4);
  EXPECT_EQ(remote_->NumBuckets("nope"), 0);

  auto got = remote_->GetConfig("events");
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(got->name, "events");
  EXPECT_EQ(got->num_buckets, 4);
  EXPECT_EQ(got->retention_micros, config.retention_micros);

  ASSERT_TRUE(remote_->Write("events", 1, "m0").ok());
  ASSERT_TRUE(remote_->Write("events", 1, "m1").ok());
  ASSERT_TRUE(remote_->WriteSharded("events", "key", "m2").ok());
  EXPECT_EQ(remote_->Write("nope", 0, "x").code(), StatusCode::kNotFound);

  // Both views are the same bus.
  auto local_read = local_->Read("events", 1, 0, 100);
  auto remote_read = remote_->Read("events", 1, 0, 100);
  ASSERT_TRUE(local_read.ok());
  ASSERT_TRUE(remote_read.ok());
  ASSERT_EQ(remote_read->size(), local_read->size());
  ASSERT_GE(remote_read->size(), 2u);
  EXPECT_EQ((*remote_read)[0].payload, "m0");
  EXPECT_EQ((*remote_read)[0].sequence, (*local_read)[0].sequence);
  EXPECT_EQ((*remote_read)[1].payload, "m1");

  auto next = remote_->NextSequence("events", 1);
  ASSERT_TRUE(next.ok());
  EXPECT_EQ(*next, local_->NextSequence("events", 1).value());

  auto bytes = remote_->TotalBytes("events");
  ASSERT_TRUE(bytes.ok());
  EXPECT_EQ(*bytes, local_->TotalBytes("events").value());

  ASSERT_TRUE(remote_->SetNumBuckets("events", 6).ok());
  EXPECT_EQ(local_->NumBuckets("events"), 6);

  remote_->TrimExpired();  // Smoke: must not throw or wedge the connection.
  EXPECT_TRUE(remote_->Ping().ok());

  // A batched append routes every row exactly as an in-process bus does:
  // same bucket, same sequence, same order.
  Scribe mirror(&clock_);
  CategoryConfig batched;
  batched.name = "batched";
  batched.num_buckets = 4;
  ASSERT_TRUE(remote_->CreateCategory(batched).ok());
  ASSERT_TRUE(mirror.CreateCategory(batched).ok());
  const std::vector<ShardedRecord> rows = NumberedRows("b", 40);
  ASSERT_TRUE(remote_->WriteShardedBatch("batched", rows).ok());
  ASSERT_TRUE(mirror.WriteShardedBatch("batched", rows).ok());
  EXPECT_TRUE(remote_->WriteShardedBatch("batched", {}).ok());
  EXPECT_EQ(remote_->WriteShardedBatch("nope", rows).code(),
            StatusCode::kNotFound);
  for (int b = 0; b < 4; ++b) {
    auto via_remote = remote_->Read("batched", b, 0, 100);
    auto in_process = mirror.Read("batched", b, 0, 100);
    ASSERT_TRUE(via_remote.ok());
    ASSERT_TRUE(in_process.ok());
    ASSERT_EQ(via_remote->size(), in_process->size()) << "bucket " << b;
    for (size_t i = 0; i < via_remote->size(); ++i) {
      EXPECT_EQ((*via_remote)[i].payload, (*in_process)[i].payload);
      EXPECT_EQ((*via_remote)[i].sequence, (*in_process)[i].sequence);
    }
  }
  EXPECT_EQ(PayloadsByBucket(local_.get(), "batched"),
            PayloadsByBucket(&mirror, "batched"));
}

TEST_F(RemoteScribeTest, TailerWorksOverRemote) {
  CategoryConfig config;
  config.name = "t";
  ASSERT_TRUE(remote_->CreateCategory(config).ok());
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(remote_->Write("t", 0, "m" + std::to_string(i)).ok());
  }
  Tailer tailer(remote_.get(), "t", 0);
  auto first = tailer.Poll(3);
  ASSERT_EQ(first.size(), 3u);
  EXPECT_EQ(first[2].payload, "m2");
  EXPECT_EQ(tailer.LagMessages(), 2u);
  auto rest = tailer.Poll();
  ASSERT_EQ(rest.size(), 2u);
  EXPECT_EQ(rest[1].payload, "m4");
  EXPECT_EQ(tailer.LagMessages(), 0u);
}

TEST_F(RemoteScribeTest, DuplicateAppendTokenIsDeduped) {
  CategoryConfig config;
  config.name = "dedup";
  ASSERT_TRUE(remote_->CreateCategory(config).ok());

  const int fd = ConnectTo(server_->port());
  ASSERT_TRUE(WriteFrameToFd(fd, HelloBody("raw.client")).ok());
  auto hello_reply = ReadFrameFromFd(fd);
  ASSERT_TRUE(hello_reply.ok());
  ASSERT_EQ(ResponseCode(hello_reply.value()), 0u);

  // The same (guid, token) append delivered twice — a retry whose first
  // ack was lost. Both must ack OK; only one message may land.
  const std::string body = WriteBody("dedup", 0, "once", /*guid=*/77,
                                     /*token=*/5);
  for (int attempt = 0; attempt < 2; ++attempt) {
    ASSERT_TRUE(WriteFrameToFd(fd, body).ok());
    auto reply = ReadFrameFromFd(fd);
    ASSERT_TRUE(reply.ok());
    EXPECT_EQ(ResponseCode(reply.value()), 0u);
  }
  // A *newer* token from the same guid still lands.
  ASSERT_TRUE(
      WriteFrameToFd(fd, WriteBody("dedup", 0, "twice", 77, 6)).ok());
  auto reply = ReadFrameFromFd(fd);
  ASSERT_TRUE(reply.ok());
  EXPECT_EQ(ResponseCode(reply.value()), 0u);
  ::close(fd);

  auto messages = local_->Read("dedup", 0, 0, 100);
  ASSERT_TRUE(messages.ok());
  ASSERT_EQ(messages->size(), 2u);
  EXPECT_EQ((*messages)[0].payload, "once");
  EXPECT_EQ((*messages)[1].payload, "twice");
}

TEST(RemoteScribeDedupTest, ActiveClientSurvivesDedupTableEviction) {
  // The dedup table must evict per-guid (least recently active), never
  // wholesale: wiping an active client's entry lets its in-flight retry
  // double-land. Cap the table at 2 and churn it with one-shot guids while
  // one long-lived client keeps retrying the same token.
  SimClock clock;
  clock.SetMicros(1'000'000);
  Scribe local(&clock);
  ScribeServerOptions options;
  options.max_dedup_clients = 2;
  ScribeServer server(&local, options);
  ASSERT_TRUE(server.Start().ok());
  CategoryConfig config;
  config.name = "evict";
  ASSERT_TRUE(local.CreateCategory(config).ok());

  const int fd = ConnectTo(server.port());
  ASSERT_TRUE(WriteFrameToFd(fd, HelloBody("steady.client")).ok());
  auto hello_reply = ReadFrameFromFd(fd);
  ASSERT_TRUE(hello_reply.ok());
  ASSERT_EQ(ResponseCode(hello_reply.value()), 0u);

  auto append = [&](uint64_t guid, uint64_t token,
                    const std::string& payload) {
    ASSERT_TRUE(
        WriteFrameToFd(fd, WriteBody("evict", 0, payload, guid, token)).ok());
    auto reply = ReadFrameFromFd(fd);
    ASSERT_TRUE(reply.ok());
    ASSERT_EQ(ResponseCode(reply.value()), 0u);
  };

  append(/*guid=*/1, /*token=*/1, "steady");
  // Churn well past the cap with single-append guids; the steady client's
  // retry between rounds keeps its entry fresh, so the churners evict each
  // other instead.
  for (uint64_t g = 100; g < 110; ++g) {
    append(g, 1, "churn");
    append(1, 1, "steady-retry");  // Lost-ack retry: must keep deduping.
  }
  ::close(fd);
  server.Stop();

  auto messages = local.Read("evict", 0, 0, 100);
  ASSERT_TRUE(messages.ok());
  int steady_copies = 0;
  for (const auto& m : *messages) {
    if (m.payload.rfind("steady", 0) == 0) ++steady_copies;
  }
  EXPECT_EQ(steady_copies, 1) << "an evicted active client double-landed";
  EXPECT_EQ(messages->size(), 11u);  // 1 steady + 10 churn.
}

TEST(RemoteScribeDedupTest, ConcurrentDuplicateAppendsLandOnce) {
  // The dedup check, the append, and recording the token must be atomic
  // per guid: a retry racing its own slow in-flight original (client RPC
  // timed out mid-apply, reconnected, resent) must wait for the original
  // and ack as a duplicate, not re-append. Two connections deliver the
  // same (guid, token) as simultaneously as a barrier can arrange, every
  // round.
  SimClock clock(1'000'000);
  Scribe local(&clock);
  ScribeServer server(&local);
  ASSERT_TRUE(server.Start().ok());
  CategoryConfig config;
  config.name = "race";
  ASSERT_TRUE(local.CreateCategory(config).ok());

  constexpr int kRounds = 50;
  constexpr uint64_t kGuid = 9;
  std::atomic<int> at_barrier{0};
  auto run = [&](const char* name) {
    const int fd = ConnectTo(server.port());
    ASSERT_TRUE(WriteFrameToFd(fd, HelloBody(name)).ok());
    auto hello = ReadFrameFromFd(fd);
    ASSERT_TRUE(hello.ok());
    for (int t = 1; t <= kRounds; ++t) {
      at_barrier.fetch_add(1);
      while (at_barrier.load() < 2 * t) std::this_thread::yield();
      ASSERT_TRUE(
          WriteFrameToFd(fd, WriteBody("race", 0, "m" + std::to_string(t),
                                       kGuid, static_cast<uint64_t>(t)))
              .ok());
      auto reply = ReadFrameFromFd(fd);
      ASSERT_TRUE(reply.ok());
      // Both the original and the duplicate must be acked OK.
      ASSERT_EQ(ResponseCode(reply.value()), 0u);
    }
    ::close(fd);
  };
  std::thread a([&] { run("race.a"); });
  std::thread b([&] { run("race.b"); });
  a.join();
  b.join();
  server.Stop();

  auto messages = local.Read("race", 0, 0, 1000);
  ASSERT_TRUE(messages.ok());
  EXPECT_EQ(messages->size(), static_cast<size_t>(kRounds))
      << "a concurrent duplicate re-appended";
}

TEST_F(RemoteScribeTest, BatchFrameSentTwiceLandsOnce) {
  CategoryConfig config;
  config.name = "bdedup";
  config.num_buckets = 3;
  ASSERT_TRUE(remote_->CreateCategory(config).ok());
  Counter* dedup_hits = MetricsRegistry::Global()->GetCounter(
      "scribe.remote.server.dedup_hits");

  const int fd = HelloConnection(server_->port(), "raw.batch");
  // The same batch (guid, tokens 10..14) delivered twice — a retry whose
  // ack was lost. Both acks are OK; each row lands once.
  const std::string body =
      BatchBody("bdedup", /*guid=*/77, /*first_token=*/10,
                NumberedRows("r", 5));
  EXPECT_EQ(RoundTrip(fd, body), 0u);
  const uint64_t hits_before = dedup_hits->value();
  EXPECT_EQ(RoundTrip(fd, body), 0u);
  EXPECT_EQ(dedup_hits->value() - hits_before, 5u);
  // The next token range from the same guid still lands.
  EXPECT_EQ(RoundTrip(fd, BatchBody("bdedup", 77, 15, NumberedRows("s", 2))),
            0u);
  ::close(fd);

  Scribe mirror(&clock_);
  ASSERT_TRUE(mirror.CreateCategory(config).ok());
  ASSERT_TRUE(mirror.WriteShardedBatch("bdedup", NumberedRows("r", 5)).ok());
  ASSERT_TRUE(mirror.WriteShardedBatch("bdedup", NumberedRows("s", 2)).ok());
  EXPECT_EQ(PayloadsByBucket(local_.get(), "bdedup"),
            PayloadsByBucket(&mirror, "bdedup"));
}

TEST_F(RemoteScribeTest, PartlyAppliedBatchRetryLandsEachRowOnce) {
  CategoryConfig config;
  config.name = "partial";
  config.num_buckets = 3;
  ASSERT_TRUE(remote_->CreateCategory(config).ok());
  const std::vector<ShardedRecord> rows = NumberedRows("p", 12);
  constexpr uint64_t kFailRow = 7;

  // Row 7's append fails past the broker's three append attempts: rows
  // 0..6 land, the RPC reports the failure, rows 8.. are not attempted.
  const int fd = HelloConnection(server_->port(), "raw.partial");
  const std::string body = BatchBody("partial", /*guid=*/91, 1, rows);
  FaultRegistry::Global()->FailNext("scribe.append", StatusCode::kUnavailable,
                                    /*count=*/3, /*skip=*/kFailRow);
  EXPECT_EQ(RoundTrip(fd, body),
            static_cast<uint64_t>(StatusCode::kUnavailable));
  size_t landed = 0;
  for (const auto& bucket : PayloadsByBucket(local_.get(), "partial")) {
    landed += bucket.size();
  }
  EXPECT_EQ(landed, kFailRow);
  // The retry skips the applied prefix and lands the rest.
  EXPECT_EQ(RoundTrip(fd, body), 0u);
  ::close(fd);

  Scribe mirror(&clock_);
  ASSERT_TRUE(mirror.CreateCategory(config).ok());
  ASSERT_TRUE(mirror.WriteShardedBatch("partial", rows).ok());
  EXPECT_EQ(PayloadsByBucket(local_.get(), "partial"),
            PayloadsByBucket(&mirror, "partial"));

  // The same through the client: its transport retry resends the batch
  // after the broker-side failure, and every row still lands once.
  CategoryConfig again = config;
  again.name = "partial_client";
  ASSERT_TRUE(remote_->CreateCategory(again).ok());
  ASSERT_TRUE(mirror.CreateCategory(again).ok());
  FaultRegistry::Global()->FailNext("scribe.append", StatusCode::kUnavailable,
                                    3, kFailRow);
  EXPECT_TRUE(remote_->WriteShardedBatch("partial_client", rows).ok());
  EXPECT_GE(remote_->transport_retry_stats().retries, 1u);
  ASSERT_TRUE(mirror.WriteShardedBatch("partial_client", rows).ok());
  EXPECT_EQ(PayloadsByBucket(local_.get(), "partial_client"),
            PayloadsByBucket(&mirror, "partial_client"));
}

TEST_F(RemoteScribeTest, OversizeBatchSplitsIntoFramesAndLandsWhole) {
  CategoryConfig config;
  config.name = "big";
  config.num_buckets = 2;
  ASSERT_TRUE(remote_->CreateCategory(config).ok());
  // Three rows of 0.6 budgets: no two fit one frame, so the batch goes out
  // as three RPCs with contiguous token ranges.
  const size_t row_bytes = kBatchFrameBudgetBytes * 6 / 10;
  std::vector<ShardedRecord> rows;
  for (int i = 0; i < 3; ++i) {
    rows.push_back({"k" + std::to_string(i),
                    std::string(row_bytes, static_cast<char>('a' + i))});
  }
  // Plus small rows that pack behind the last big one.
  for (int i = 0; i < 5; ++i) {
    rows.push_back({"s" + std::to_string(i), "small" + std::to_string(i)});
  }
  Counter* rpcs = MetricsRegistry::Global()->GetCounter("scribe.remote.rpcs");
  const uint64_t before = rpcs->value();
  ASSERT_TRUE(remote_->WriteShardedBatch("big", rows).ok());
  EXPECT_EQ(rpcs->value() - before, 3u);

  Scribe mirror(&clock_);
  ASSERT_TRUE(mirror.CreateCategory(config).ok());
  ASSERT_TRUE(mirror.WriteShardedBatch("big", rows).ok());
  EXPECT_EQ(PayloadsByBucket(local_.get(), "big"),
            PayloadsByBucket(&mirror, "big"));
}

TEST(RemoteScribeDedupTest, ConcurrentDuplicateBatchesLandOnce) {
  // Like ConcurrentDuplicateAppendsLandOnce, for whole batches: two
  // connections deliver the same (guid, token range) at once, every round,
  // and each row must land exactly once, in order.
  SimClock clock(1'000'000);
  Scribe local(&clock);
  ScribeServer server(&local);
  ASSERT_TRUE(server.Start().ok());
  CategoryConfig config;
  config.name = "brace";
  ASSERT_TRUE(local.CreateCategory(config).ok());

  constexpr int kRounds = 30;
  constexpr int kRows = 4;
  constexpr uint64_t kGuid = 19;
  std::atomic<int> at_barrier{0};
  auto run = [&](const char* name) {
    const int fd = HelloConnection(server.port(), name);
    for (int t = 0; t < kRounds; ++t) {
      at_barrier.fetch_add(1);
      while (at_barrier.load() < 2 * (t + 1)) std::this_thread::yield();
      const std::string body =
          BatchBody("brace", kGuid, 1 + static_cast<uint64_t>(t) * kRows,
                    NumberedRows("m" + std::to_string(t) + ".", kRows));
      // Both the original and the duplicate are acked OK.
      ASSERT_EQ(RoundTrip(fd, body), 0u);
    }
    ::close(fd);
  };
  std::thread a([&] { run("brace.a"); });
  std::thread b([&] { run("brace.b"); });
  a.join();
  b.join();
  server.Stop();

  auto messages = local.Read("brace", 0, 0, 1000);
  ASSERT_TRUE(messages.ok());
  ASSERT_EQ(messages->size(), static_cast<size_t>(kRounds * kRows))
      << "a concurrent duplicate batch re-appended";
  for (int t = 0; t < kRounds; ++t) {
    for (int i = 0; i < kRows; ++i) {
      EXPECT_EQ((*messages)[static_cast<size_t>(t * kRows + i)].payload,
                "m" + std::to_string(t) + "." + std::to_string(i));
    }
  }
}

TEST(RemoteReadChunkTest, ReadResponsesChunkByBytes) {
  // Read responses are chunked by encoded byte size, not just message
  // count: with the per-RPC byte budget shrunk to a couple of messages,
  // each RPC returns a bounded chunk and resuming from the next sequence
  // drains everything without loss or a stuck tailer.
  SimClock clock(1'000'000);
  Scribe local(&clock);
  ScribeServerOptions options;
  options.max_read_bytes = 256;
  ScribeServer server(&local, options);
  ASSERT_TRUE(server.Start().ok());
  CategoryConfig config;
  config.name = "big";
  ASSERT_TRUE(local.CreateCategory(config).ok());
  const std::string payload(100, 'x');
  for (int i = 0; i < 9; ++i) {
    ASSERT_TRUE(local.Write("big", 0, payload + std::to_string(i)).ok());
  }

  RemoteScribe remote(&clock, "127.0.0.1", server.port(), "reader",
                      FailFastOptions());
  auto first = remote.Read("big", 0, 0, 100);
  ASSERT_TRUE(first.ok()) << first.status();
  ASSERT_GE(first->size(), 1u);
  EXPECT_LT(first->size(), 9u) << "byte budget was not applied";
  std::vector<Message> all = *first;
  while (all.size() < 9) {
    const size_t before = all.size();
    auto next = remote.Read("big", 0, all.back().sequence + 1, 100);
    ASSERT_TRUE(next.ok()) << next.status();
    ASSERT_FALSE(next->empty()) << "chunked read stopped making progress";
    all.insert(all.end(), next->begin(), next->end());
    ASSERT_GT(all.size(), before);
  }
  ASSERT_EQ(all.size(), 9u);
  for (int i = 0; i < 9; ++i) {
    EXPECT_EQ(all[i].payload, payload + std::to_string(i));
  }

  // A single message larger than the budget still goes out — alone.
  ASSERT_TRUE(local.Write("big", 0, std::string(400, 'y')).ok());
  auto oversize = remote.Read("big", 0, all.back().sequence + 1, 100);
  ASSERT_TRUE(oversize.ok()) << oversize.status();
  ASSERT_EQ(oversize->size(), 1u);
  EXPECT_EQ((*oversize)[0].payload, std::string(400, 'y'));
  server.Stop();
}

TEST(ScribeServerTest, StopIsSafeForConcurrentCallers) {
  // Stop() from several threads at once: exactly one runs the shutdown,
  // the rest block until it completes (join from two threads is UB, and an
  // early return would hand back a server with live connection threads).
  SimClock clock(1'000'000);
  Scribe local(&clock);
  ScribeServer server(&local);
  ASSERT_TRUE(server.Start().ok());
  RemoteScribe remote(&clock, "127.0.0.1", server.port(), "stopper",
                      FailFastOptions());
  ASSERT_TRUE(remote.Ping().ok());  // A live connection to tear down.

  std::vector<std::thread> stoppers;
  for (int i = 0; i < 4; ++i) {
    stoppers.emplace_back([&] { server.Stop(); });
  }
  for (auto& t : stoppers) t.join();
  EXPECT_FALSE(remote.Ping().ok());
}

TEST_F(RemoteScribeTest, SeverPartitionHealsAndReconnects) {
  CategoryConfig config;
  config.name = "p";
  ASSERT_TRUE(remote_->CreateCategory(config).ok());
  ASSERT_TRUE(remote_->Write("p", 0, "before").ok());

  // Sever this client for 300ms of steady time. The first write inside the
  // window fails (retry ladder exhausts against handshake severs)...
  server_->Partition("test.client", 300'000, PartitionMode::kSever);
  Status inside = remote_->Write("p", 0, "during");
  EXPECT_FALSE(inside.ok());
  EXPECT_TRUE(inside.IsRetryable()) << inside;

  // ...and after the deadline the client reconnects transparently.
  std::this_thread::sleep_for(std::chrono::milliseconds(400));
  Status after;
  for (int i = 0; i < 20; ++i) {
    after = remote_->Write("p", 0, "after");
    if (after.ok()) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  ASSERT_TRUE(after.ok()) << after;
  EXPECT_GE(remote_->reconnects(), 1u);

  // The failed "during" append never half-landed.
  auto messages = local_->Read("p", 0, 0, 100);
  ASSERT_TRUE(messages.ok());
  std::vector<std::string> payloads;
  for (const auto& m : *messages) payloads.push_back(m.payload);
  EXPECT_EQ(payloads, (std::vector<std::string>{"before", "after"}));
}

TEST_F(RemoteScribeTest, BlackholePartitionTimesOut) {
  CategoryConfig config;
  config.name = "b";
  ASSERT_TRUE(remote_->CreateCategory(config).ok());
  ASSERT_TRUE(remote_->Write("b", 0, "before").ok());

  server_->Partition("test.client", 400'000, PartitionMode::kBlackhole);
  const Status st = remote_->Write("b", 0, "swallowed");
  EXPECT_FALSE(st.ok());
  // Swallowed request, no response: the client's socket timeout fires.
  EXPECT_TRUE(st.code() == StatusCode::kDeadlineExceeded ||
              st.code() == StatusCode::kUnavailable)
      << st;
  EXPECT_TRUE(st.IsRetryable());
}

TEST_F(RemoteScribeTest, InjectPartitionRpcReachesServer) {
  CategoryConfig config;
  config.name = "adm";
  ASSERT_TRUE(remote_->CreateCategory(config).ok());
  // An admin client partitions a *different* name prefix; its own
  // connection keeps working.
  ASSERT_TRUE(remote_
                  ->InjectPartition("worker.", 200'000,
                                    PartitionMode::kSever)
                  .ok());
  EXPECT_TRUE(remote_->Write("adm", 0, "still fine").ok());

  RemoteScribe worker(&clock_, "127.0.0.1", server_->port(), "worker.alpha",
                      FailFastOptions());
  const Status st = worker.Write("adm", 0, "cut off");
  EXPECT_FALSE(st.ok());
  EXPECT_TRUE(st.IsRetryable()) << st;
}

TEST_F(RemoteScribeTest, FaultSiteRetriesTransparently) {
  CategoryConfig config;
  config.name = "f";
  ASSERT_TRUE(remote_->CreateCategory(config).ok());
  // One injected transient transport failure: the retry ladder absorbs it.
  FaultRegistry::Global()->FailNext("scribe.remote.rpc",
                                    StatusCode::kUnavailable, 1);
  EXPECT_TRUE(remote_->Write("f", 0, "survives").ok());
  EXPECT_GE(remote_->transport_retry_stats().retries, 1u);
  auto messages = local_->Read("f", 0, 0, 10);
  ASSERT_TRUE(messages.ok());
  ASSERT_EQ(messages->size(), 1u);

  // An injected Corruption must surface immediately (non-retryable).
  FaultRegistry::Global()->FailNext("scribe.remote.rpc",
                                    StatusCode::kCorruption, 1);
  EXPECT_EQ(remote_->Write("f", 0, "poisoned").code(),
            StatusCode::kCorruption);
  FaultRegistry::Global()->Reset();
}

// ---------------------------------------------------------------------------
// Classification against misbehaving peers (satellite: transient vs
// permanent).

TEST(RemoteClassificationTest, ConnectionRefusedIsRetryableUnavailable) {
  SimClock clock(1'000'000);
  // Bind-then-close to get a port nobody listens on.
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  struct sockaddr_in addr;
  memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  ASSERT_EQ(::bind(fd, reinterpret_cast<struct sockaddr*>(&addr),
                   sizeof(addr)),
            0);
  socklen_t len = sizeof(addr);
  ::getsockname(fd, reinterpret_cast<struct sockaddr*>(&addr), &len);
  const int dead_port = ntohs(addr.sin_port);
  ::close(fd);

  RemoteScribe remote(&clock, "127.0.0.1", dead_port, "lost.client",
                      FailFastOptions());
  const Status st = remote.Ping();
  EXPECT_FALSE(st.ok());
  EXPECT_TRUE(st.IsRetryable()) << st;
  // Both attempts of the ladder ran (retryable means retried).
  EXPECT_GE(remote.transport_retry_stats().retries, 1u);
}

TEST(RemoteClassificationTest, ChecksumMismatchResponseIsCorruption) {
  SimClock clock(1'000'000);
  FakeBroker broker(FakeBroker::Behavior::kGarbageChecksum);
  RemoteScribe remote(&clock, "127.0.0.1", broker.port(), "c.client",
                      FailFastOptions());
  const Status st = remote.Ping();
  EXPECT_EQ(st.code(), StatusCode::kCorruption) << st;
  EXPECT_FALSE(st.IsRetryable());
  // Permanent errors must not burn retry attempts.
  EXPECT_EQ(remote.transport_retry_stats().retries, 0u);
}

TEST(RemoteClassificationTest, WrongOpcodeResponseIsCorruption) {
  SimClock clock(1'000'000);
  FakeBroker broker(FakeBroker::Behavior::kWrongOpcode);
  RemoteScribe remote(&clock, "127.0.0.1", broker.port(), "c.client",
                      FailFastOptions());
  const Status st = remote.Ping();
  EXPECT_EQ(st.code(), StatusCode::kCorruption) << st;
  EXPECT_FALSE(st.IsRetryable());
}

TEST(RemoteClassificationTest, SilentPeerIsRetryableDeadline) {
  SimClock clock(1'000'000);
  FakeBroker broker(FakeBroker::Behavior::kSilence);
  RemoteScribe remote(&clock, "127.0.0.1", broker.port(), "s.client",
                      FailFastOptions());
  const Status st = remote.Ping();
  EXPECT_EQ(st.code(), StatusCode::kDeadlineExceeded) << st;
  EXPECT_TRUE(st.IsRetryable());
}

TEST(RemoteClassificationTest, PeerCloseMidRpcIsRetryableUnavailable) {
  SimClock clock(1'000'000);
  FakeBroker broker(FakeBroker::Behavior::kCloseConnection);
  RemoteScribe remote(&clock, "127.0.0.1", broker.port(), "r.client",
                      FailFastOptions());
  const Status st = remote.Ping();
  EXPECT_FALSE(st.ok());
  EXPECT_TRUE(st.IsRetryable()) << st;
}

// ---------------------------------------------------------------------------
// Durability through the transport: a broker restart loses no acked bytes.

TEST(RemoteDurabilityTest, AckedAppendsSurviveBrokerRestart) {
  const std::string dir = MakeTempDir("remote_scribe");
  SimClock clock(1'000'000);
  CategoryConfig config;
  config.name = "durable";
  config.persist_to_disk = true;
  config.fsync_appends = true;

  int port = 0;
  {
    Scribe scribe(&clock, dir);
    ASSERT_TRUE(scribe.CreateCategory(config).ok());
    ScribeServer server(&scribe);
    ASSERT_TRUE(server.Start().ok());
    port = server.port();
    RemoteScribe remote(&clock, "127.0.0.1", port, "writer",
                        FailFastOptions());
    for (int i = 0; i < 10; ++i) {
      ASSERT_TRUE(remote.Write("durable", 0, "m" + std::to_string(i)).ok());
    }
    server.Stop();
  }

  // A fresh broker process over the same root recovers the segments.
  Scribe scribe(&clock, dir);
  ASSERT_TRUE(scribe.CreateCategory(config).ok());
  ScribeServer server(&scribe);
  ASSERT_TRUE(server.Start().ok());
  RemoteScribe remote(&clock, "127.0.0.1", server.port(), "reader",
                      FailFastOptions());
  auto messages = remote.Read("durable", 0, 0, 100);
  ASSERT_TRUE(messages.ok()) << messages.status();
  ASSERT_EQ(messages->size(), 10u);
  EXPECT_EQ((*messages)[9].payload, "m9");
  server.Stop();
  ASSERT_TRUE(RemoveAll(dir).ok());
}

}  // namespace
}  // namespace fbstream::scribe
