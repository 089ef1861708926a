// Robustness sweeps: randomized and adversarial inputs against the parsing
// and decoding surfaces. The invariant under test is uniform — malformed
// input yields an error Status (or a well-formed degenerate value), never a
// crash, hang, or sanitizer fault.

#include <arpa/inet.h>
#include <gtest/gtest.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cstring>
#include <limits>

#include "common/fs.h"
#include "common/hash.h"
#include "common/rng.h"
#include "common/serde.h"
#include "common/value.h"
#include "puma/parser.h"
#include "scribe/remote.h"
#include "scribe/scribe.h"
#include "storage/lsm/sstable.h"
#include "storage/lsm/version_edit.h"
#include "storage/lsm/write_batch.h"
#include "swift/swift.h"

namespace fbstream {
namespace {

// Random printable-ish bytes with SQL-looking fragments mixed in, so the
// fuzz hits deeper parser states than pure noise would.
std::string MutatedSql(Rng* rng) {
  static const char* kFragments[] = {
      "CREATE", "APPLICATION", "TABLE", "INPUT", "SELECT", "FROM",
      "SCRIBE", "(", ")", ",", ";", "'str'", "\"cat\"", "[5 minutes]",
      "WHERE", "GROUP BY", "count(*)", "topk(x)", "AS", "JOIN LASER",
      "ON", "1.5", "42", "x", "--comment\n", "!=", "<=", "EMIT TO",
  };
  std::string out;
  const int pieces = 1 + static_cast<int>(rng->Uniform(40));
  for (int i = 0; i < pieces; ++i) {
    if (rng->Bernoulli(0.7)) {
      out += kFragments[rng->Uniform(sizeof(kFragments) /
                                     sizeof(kFragments[0]))];
    } else {
      out += rng->NextString(1 + rng->Uniform(6));
    }
    out.push_back(' ');
  }
  return out;
}

// One random corruption of a valid encoding: bit flips, a truncation, an
// inserted or overwritten run of noise, or a duplicated slice — the damage
// a torn write, bit rot or a stray writer leaves behind.
std::string Mutate(const std::string& valid, Rng* rng) {
  std::string out = valid;
  auto noise = [rng](size_t n) {
    std::string bytes;
    for (size_t i = 0; i < n; ++i) {
      bytes.push_back(static_cast<char>(rng->Uniform(256)));
    }
    return bytes;
  };
  const size_t pos = out.empty() ? 0 : rng->Uniform(out.size());
  switch (rng->Uniform(5)) {
    case 0: {
      const size_t flips = 1 + rng->Uniform(4);
      for (size_t i = 0; i < flips && !out.empty(); ++i) {
        out[rng->Uniform(out.size())] ^=
            static_cast<char>(1 << rng->Uniform(8));
      }
      break;
    }
    case 1:
      out.resize(pos);
      break;
    case 2:
      out.insert(pos, noise(1 + rng->Uniform(16)));
      break;
    case 3:
      out.replace(pos, 1 + rng->Uniform(16), noise(1 + rng->Uniform(16)));
      break;
    default:
      out.insert(pos, out.substr(rng->Uniform(out.size() + 1),
                                 1 + rng->Uniform(24)));
      break;
  }
  return out;
}

class FuzzTest : public ::testing::TestWithParam<uint64_t> {
 protected:
  void SetUp() override { dir_ = MakeTempDir("fuzz"); }
  void TearDown() override { ASSERT_TRUE(RemoveAll(dir_).ok()); }
  std::string dir_;
};

TEST_P(FuzzTest, PumaParserNeverCrashes) {
  Rng rng(GetParam());
  for (int i = 0; i < 500; ++i) {
    const std::string sql = MutatedSql(&rng);
    auto spec = puma::ParseApp(sql);  // OK or error; never a crash.
    if (spec.ok()) {
      EXPECT_FALSE(spec->name.empty());
    }
  }
}

TEST_P(FuzzTest, TextRowCodecDecodesAnything) {
  Rng rng(GetParam());
  auto schema = Schema::Make({{"a", ValueType::kInt64},
                              {"b", ValueType::kDouble},
                              {"c", ValueType::kString}});
  TextRowCodec codec(schema);
  for (int i = 0; i < 2000; ++i) {
    std::string payload;
    const size_t len = rng.Uniform(64);
    for (size_t j = 0; j < len; ++j) {
      payload.push_back(static_cast<char>(rng.Uniform(256)));
    }
    auto row = codec.Decode(payload);
    if (row.ok()) {
      EXPECT_EQ(row->num_columns(), 3u);  // Always padded to schema width.
    }
  }
}

TEST_P(FuzzTest, BinaryRowCodecRejectsGarbageOrRoundTrips) {
  Rng rng(GetParam());
  auto schema = Schema::Make({{"a", ValueType::kInt64},
                              {"b", ValueType::kString}});
  BinaryRowCodec codec(schema);
  for (int i = 0; i < 2000; ++i) {
    std::string garbage;
    const size_t len = rng.Uniform(48);
    for (size_t j = 0; j < len; ++j) {
      garbage.push_back(static_cast<char>(rng.Uniform(256)));
    }
    (void)codec.Decode(garbage);  // Must not crash.
  }
  // Truncation sweep over a valid encoding: every prefix is handled.
  Row row(schema, {Value(int64_t{123456}), Value("payload-string")});
  const std::string encoded = codec.Encode(row);
  for (size_t cut = 0; cut < encoded.size(); ++cut) {
    auto decoded = codec.Decode(encoded.substr(0, cut));
    EXPECT_FALSE(decoded.ok()) << "prefix " << cut << " decoded";
  }
  auto full = codec.Decode(encoded);
  ASSERT_TRUE(full.ok());
  EXPECT_EQ(*full, row);
}

TEST_P(FuzzTest, WriteBatchDeserializeIsTotal) {
  Rng rng(GetParam());
  for (int i = 0; i < 2000; ++i) {
    std::string garbage;
    const size_t len = rng.Uniform(40);
    for (size_t j = 0; j < len; ++j) {
      garbage.push_back(static_cast<char>(rng.Uniform(256)));
    }
    (void)lsm::WriteBatch::Deserialize(garbage);  // OK or error, no crash.
  }
}

TEST_P(FuzzTest, VarintDecoderIsTotal) {
  Rng rng(GetParam());
  for (int i = 0; i < 5000; ++i) {
    std::string bytes;
    const size_t len = rng.Uniform(12);
    for (size_t j = 0; j < len; ++j) {
      bytes.push_back(static_cast<char>(rng.Uniform(256)));
    }
    std::string_view view(bytes);
    uint64_t value = 0;
    if (GetVarint64(&view, &value)) {
      // A successful parse consumed at most 10 bytes.
      EXPECT_LE(bytes.size() - view.size(), 10u);
    }
  }
}

TEST_P(FuzzTest, SwiftPipeFramingIsTotal) {
  Rng rng(GetParam());
  class Collector : public swift::SwiftClient {
   public:
    void HandleMessage(const std::string& m) override { total += m.size(); }
    size_t total = 0;
  };
  Collector client;
  for (int i = 0; i < 500; ++i) {
    std::string pipe_data;
    const size_t len = rng.Uniform(128);
    for (size_t j = 0; j < len; ++j) {
      pipe_data.push_back(rng.Bernoulli(0.2)
                              ? '\n'
                              : static_cast<char>(rng.Uniform(256)));
    }
    client.HandleBatch(pipe_data);  // Never crashes; frames on newlines.
  }
  SUCCEED();
}

// MANIFEST decode: a damaged log is Status::Corruption or decodes only
// edits that were written (a truncated log: a prefix of them, torn tail
// flagged); the intact log round-trips exactly.
TEST_P(FuzzTest, ManifestDecodeCorruptsTruncatesOrRoundTrips) {
  Rng rng(GetParam());
  const std::string path = dir_ + "/MANIFEST";
  std::vector<std::string> encoded;  // Each edit's canonical encoding.
  {
    lsm::VersionEdit snapshot;
    snapshot.next_file_number = 7;
    snapshot.last_sequence = 40;
    snapshot.AddFile(0, 3, 4096, "apple", "melon");
    snapshot.AddFile(1, 5, 8192, "a", "z");
    ASSERT_TRUE(lsm::WriteManifestSnapshot(path, snapshot).ok());
    encoded.emplace_back();
    snapshot.EncodeTo(&encoded.back());
    lsm::ManifestWriter writer;
    ASSERT_TRUE(writer.Open(path).ok());
    for (uint64_t n = 8; n < 12; ++n) {
      lsm::VersionEdit edit;
      edit.last_sequence = 40 + n;
      edit.AddFile(0, n, 100 + n, "k" + std::to_string(n), "m");
      if (n % 2 == 0) edit.DeleteFile(0, 3);
      ASSERT_TRUE(writer.AddRecord(edit).ok());
      encoded.emplace_back();
      edit.EncodeTo(&encoded.back());
    }
  }
  auto valid = ReadFileToString(path);
  ASSERT_TRUE(valid.ok());

  enum class Input { kIntact, kPrefix, kMutated };
  auto check = [&](const std::string& bytes, Input input) {
    ASSERT_TRUE(WriteFile(path, bytes).ok());
    auto state = lsm::ReadManifest(path);
    if (!state.ok()) {
      EXPECT_EQ(state.status().code(), StatusCode::kCorruption)
          << state.status();
      EXPECT_NE(input, Input::kIntact) << state.status();
      return;
    }
    // Every decoded edit is one that was written (a forged checksum is out
    // of reach of random damage; a duplicated whole record is not).
    // Prefixes and the intact log decode in order.
    for (size_t i = 0; i < state->edits.size(); ++i) {
      std::string again;
      state->edits[i].EncodeTo(&again);
      if (input == Input::kMutated) {
        EXPECT_NE(std::find(encoded.begin(), encoded.end(), again),
                  encoded.end())
            << "edit " << i;
      } else {
        ASSERT_LT(i, encoded.size());
        EXPECT_EQ(again, encoded[i]) << "edit " << i;
      }
    }
    if (input == Input::kIntact) {
      EXPECT_FALSE(state->truncated);
      EXPECT_EQ(state->edits.size(), encoded.size());
    }
  };
  check(*valid, Input::kIntact);
  for (size_t cut = 0; cut < valid->size(); ++cut) {
    check(valid->substr(0, cut), Input::kPrefix);
  }
  for (int i = 0; i < 300; ++i) check(Mutate(*valid, &rng), Input::kMutated);
}

// SST open: a damaged table is Status::Corruption at open, or opens and
// then serves every lookup and scan without crashing; the intact table
// round-trips every entry.
TEST_P(FuzzTest, SstOpenCorruptsOrRoundTrips) {
  Rng rng(GetParam());
  const std::string path = dir_ + "/table.sst";
  std::vector<lsm::Entry> entries;
  for (uint64_t i = 0; i < 60; ++i) {
    entries.push_back(lsm::Entry{
        lsm::InternalKey{"key" + std::to_string(100 + i), 100 - i,
                         i % 7 == 0 ? lsm::EntryType::kDelete
                                    : lsm::EntryType::kPut},
        i % 7 == 0 ? "" : "value-" + std::to_string(i)});
  }
  {
    lsm::SstWriter writer(/*block_bytes=*/128);  // Many small blocks.
    for (const lsm::Entry& e : entries) writer.Add(e);
    ASSERT_TRUE(writer.Finish(path).ok());
  }
  auto valid = ReadFileToString(path);
  ASSERT_TRUE(valid.ok());
  // A private cache: blocks decoded from damaged bytes never outlive the
  // reader that produced them.
  auto cache = std::make_shared<lsm::BlockCache>(1 << 20);

  auto check = [&](const std::string& bytes, bool intact) {
    ASSERT_TRUE(WriteFile(path, bytes).ok());
    auto reader = lsm::SstReader::Open(path, cache);
    if (!reader.ok()) {
      EXPECT_EQ(reader.status().code(), StatusCode::kCorruption)
          << reader.status();
      EXPECT_FALSE(intact) << reader.status();
      return;
    }
    std::vector<lsm::Entry> scanned;
    auto it = (*reader)->NewIterator();
    for (it.SeekToFirst(); it.Valid(); it.Next()) {
      scanned.push_back(it.entry());
    }
    for (const lsm::Entry& e : entries) {
      lsm::LookupState state;
      (void)(*reader)->Get(e.key.user_key, e.key.sequence, &state);
    }
    if (!intact) return;
    EXPECT_TRUE(it.status().ok()) << it.status();
    ASSERT_EQ(scanned.size(), entries.size());
    for (size_t i = 0; i < entries.size(); ++i) {
      EXPECT_EQ(scanned[i].key.user_key, entries[i].key.user_key);
      EXPECT_EQ(scanned[i].key.sequence, entries[i].key.sequence);
      EXPECT_EQ(scanned[i].key.type, entries[i].key.type);
      EXPECT_EQ(scanned[i].value, entries[i].value);
    }
  };
  check(*valid, /*intact=*/true);
  for (size_t cut = 0; cut < valid->size(); cut += 7) {
    check(valid->substr(0, cut), false);
  }
  for (int i = 0; i < 300; ++i) check(Mutate(*valid, &rng), false);
  // Footers whose offsets point into the footer itself or past the index
  // the blocks claim: the sizes they imply must never be trusted.
  const uint64_t size = valid->size();
  const std::string body = valid->substr(0, size - 24);
  for (uint64_t index = size - 30; index <= size + 1; ++index) {
    for (uint64_t meta = index; meta <= size + 1; meta += 3) {
      std::string bytes = body;
      PutFixed64(&bytes, index);
      PutFixed64(&bytes, meta);
      bytes += valid->substr(size - 8);  // The magic.
      check(bytes, false);
    }
  }
}

// Scribe segment replay: a damaged segment is truncated back to its intact
// prefix — every recovered message is one that was appended, field for
// field (a cut segment: a prefix of them), and a second recovery over the
// truncated file finds exactly the same — while the intact segment
// round-trips every message.
TEST_P(FuzzTest, ScribeSegmentReplayTruncatesOrRoundTrips) {
  Rng rng(GetParam());
  std::vector<scribe::Message> appended;
  std::string segment_name;
  std::string valid;
  {
    scribe::Bucket bucket(dir_ + "/source", /*persist=*/true);
    for (uint64_t i = 0; i < 40; ++i) {
      scribe::Message m;
      m.write_time = static_cast<Micros>(1000 + 10 * i);
      m.payload = "payload-" + std::to_string(i) + std::string(i % 5, 'x');
      m.trace_id = i % 3 == 0 ? 0 : (i << 40) + 7;
      m.sequence = bucket.Append(m.payload, m.write_time, m.trace_id);
      appended.push_back(std::move(m));
    }
    auto names = ListDir(dir_ + "/source");
    ASSERT_TRUE(names.ok());
    ASSERT_EQ(names->size(), 1u);
    segment_name = names->front();
    auto contents = ReadFileToString(dir_ + "/source/" + segment_name);
    ASSERT_TRUE(contents.ok());
    valid = *contents;
  }

  auto recover = [&](const std::string& bucket_dir) {
    scribe::Bucket bucket(bucket_dir, /*persist=*/true);
    EXPECT_TRUE(bucket.RecoverFromDisk().ok());
    std::vector<scribe::Message> out;
    bucket.Read(0, appended.size() + 1, std::numeric_limits<Micros>::max(),
                0, &out);
    return out;
  };
  int round = 0;
  // `keep` >= 0: the recovery must be exactly the first `keep` messages;
  // -1 (random damage): every recovered message matches the one appended
  // under its sequence.
  auto check = [&](const std::string& bytes, int keep) {
    const std::string bucket_dir = dir_ + "/b" + std::to_string(round++);
    ASSERT_TRUE(CreateDirs(bucket_dir).ok());
    ASSERT_TRUE(WriteFile(bucket_dir + "/" + segment_name, bytes).ok());
    const std::vector<scribe::Message> got = recover(bucket_dir);
    if (keep >= 0) ASSERT_EQ(got.size(), static_cast<size_t>(keep));
    for (size_t i = 0; i < got.size(); ++i) {
      const size_t seq = keep >= 0 ? i : got[i].sequence;
      ASSERT_LT(seq, appended.size()) << i;
      EXPECT_EQ(got[i].sequence, appended[seq].sequence) << i;
      EXPECT_EQ(got[i].write_time, appended[seq].write_time) << i;
      EXPECT_EQ(got[i].payload, appended[seq].payload) << i;
      EXPECT_EQ(got[i].trace_id, appended[seq].trace_id) << i;
    }
    // Truncation left a clean record boundary: replaying again is stable.
    EXPECT_EQ(recover(bucket_dir).size(), got.size());
    ASSERT_TRUE(RemoveAll(bucket_dir).ok());
  };
  // Record boundaries of the intact segment, to know what each cut keeps.
  std::vector<size_t> ends;
  {
    std::string_view view(valid);
    uint64_t len = 0;
    uint64_t checksum = 0;
    while (GetVarint64(&view, &len) && GetFixed64(&view, &checksum)) {
      view.remove_prefix(len);
      ends.push_back(valid.size() - view.size());
    }
    ASSERT_EQ(ends.size(), appended.size());
  }
  const int all = static_cast<int>(appended.size());
  check(valid, all);
  for (size_t cut = 0; cut < valid.size(); cut += 5) {
    const auto whole = std::upper_bound(ends.begin(), ends.end(), cut);
    check(valid.substr(0, cut), static_cast<int>(whole - ends.begin()));
  }
  for (int i = 0; i < 150; ++i) check(Mutate(valid, &rng), -1);

  // A record with a valid checksum whose body stops after the payload (no
  // trace id), or carries bytes after the trace id, is corrupt too: it is
  // truncated like a torn record and the intact prefix survives.
  auto framed = [](const std::string& body) {
    std::string record;
    PutVarint64(&record, body.size());
    PutFixed64(&record, Fnv1a64(body));
    return record + body;
  };
  std::string body;
  PutVarint64(&body, appended.size());  // Next sequence.
  PutVarint64(&body, 5000);
  PutLengthPrefixed(&body, "short");
  check(valid + framed(body), all);
  PutVarint64(&body, 9);  // Trace id...
  body.push_back('!');    // ...and one stray byte.
  check(valid + framed(body), all);
}

// One well-formed request body per broker opcode, against category "fz".
std::vector<std::string> ValidScribeRequests() {
  using scribe::RemoteOp;
  auto op = [](RemoteOp o) { return std::string(1, static_cast<char>(o)); };
  std::vector<std::string> out;
  std::string b = op(RemoteOp::kHello);
  PutLengthPrefixed(&b, "fuzz.client");
  out.push_back(b);
  b = op(RemoteOp::kCreateCategory);
  PutLengthPrefixed(&b, "fz.new");
  for (uint64_t field : {2, 1'000'000, 0, 0, 0}) PutVarint64(&b, field);
  out.push_back(b);
  std::string route;
  PutVarint64(&route, 1);
  b = op(RemoteOp::kWrite);
  PutLengthPrefixed(&b, "fz");
  PutLengthPrefixed(&b, route);
  PutLengthPrefixed(&b, "payload");
  PutFixed64(&b, 5);
  PutVarint64(&b, 1);
  out.push_back(b);
  b = op(RemoteOp::kRead);
  PutLengthPrefixed(&b, "fz");
  for (uint64_t field : {1, 0, 64}) PutVarint64(&b, field);
  out.push_back(b);
  b = op(RemoteOp::kNextSequence);
  PutLengthPrefixed(&b, "fz");
  PutVarint64(&b, 0);
  out.push_back(b);
  for (RemoteOp o : {RemoteOp::kGetConfig, RemoteOp::kNumBuckets,
                     RemoteOp::kTotalBytes, RemoteOp::kHasCategory}) {
    b = op(o);
    PutLengthPrefixed(&b, "fz");
    out.push_back(b);
  }
  b = op(RemoteOp::kSetNumBuckets);
  PutLengthPrefixed(&b, "fz");
  PutVarint64(&b, 3);
  out.push_back(b);
  out.push_back(op(RemoteOp::kTrimExpired));
  out.push_back(op(RemoteOp::kPing));
  // A partition of a prefix no fuzz client has, for one microsecond.
  b = op(RemoteOp::kPartition);
  PutLengthPrefixed(&b, "nobody.");
  PutVarint64(&b, 1);
  PutVarint64(&b, 1);
  out.push_back(b);
  b = op(RemoteOp::kWriteShardedBatch);
  PutLengthPrefixed(&b, "fz");
  PutFixed64(&b, 6);
  PutVarint64(&b, 1);
  PutVarint64(&b, 3);
  for (int i = 0; i < 3; ++i) {
    PutLengthPrefixed(&b, "key" + std::to_string(i));
    PutLengthPrefixed(&b, "row" + std::to_string(i));
  }
  out.push_back(b);
  return out;
}

// A loopback connection to `port` that has said Hello, with a receive
// timeout so a request the server swallows cannot hang the sweep. A
// refused Hello (a fuzzed partition request may have cut this client off)
// shows up as a dropped connection on the next request.
int ScribeClientFd(int port) {
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
  struct timeval tv = {2, 0};
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  std::string hello(1, static_cast<char>(scribe::RemoteOp::kHello));
  PutLengthPrefixed(&hello, "fuzz.client");
  if (scribe::WriteFrameToFd(fd, hello).ok()) {
    (void)scribe::ReadFrameFromFd(fd);
  }
  return fd;
}

// The broker's request decoder, over a real loopback connection: valid
// requests for every opcode, mutated the way Mutate damages stored bytes,
// each sent in an intact frame so the damage reaches the decoder. The
// server answers (echoing the request's opcode) or drops the connection;
// it never crashes. A request cut short by one byte is malformed for every
// opcode: it drops the connection and counts one protocol error. After the
// sweep the server still serves a clean client.
TEST_P(FuzzTest, ScribeServerRequestDecoderIsTotal) {
  Rng rng(GetParam());
  SimClock clock(1'000'000);
  scribe::Scribe bus(&clock);
  scribe::ScribeServer server(&bus);
  ASSERT_TRUE(server.Start().ok());
  scribe::CategoryConfig config;
  config.name = "fz";
  config.num_buckets = 2;
  ASSERT_TRUE(bus.CreateCategory(config).ok());
  Counter* protocol_errors = MetricsRegistry::Global()->GetCounter(
      "scribe.remote.server.protocol_errors");
  const std::vector<std::string> valid = ValidScribeRequests();

  // Sends one request; returns false if the server dropped the connection
  // (which is then closed here and reopened on the next call).
  int fd = -1;
  auto send = [&](const std::string& body) {
    if (fd < 0) fd = ScribeClientFd(server.port());
    bool answered = scribe::WriteFrameToFd(fd, body).ok();
    if (answered) {
      auto reply = scribe::ReadFrameFromFd(fd);
      answered = reply.ok();
      if (answered) {
        EXPECT_FALSE(reply->empty());
        if (!reply->empty() && !body.empty()) {
          EXPECT_EQ((*reply)[0], body[0]);
        }
      }
    }
    if (!answered) {
      ::close(fd);
      fd = -1;
    }
    return answered;
  };

  for (const std::string& body : valid) {
    EXPECT_TRUE(send(body)) << "opcode " << int(body[0]);
    const uint64_t before = protocol_errors->value();
    EXPECT_FALSE(send(body.substr(0, body.size() - 1)))
        << "truncated opcode " << int(body[0]);
    EXPECT_EQ(protocol_errors->value() - before, 1u)
        << "truncated opcode " << int(body[0]);
  }
  const uint64_t before = protocol_errors->value();
  EXPECT_FALSE(send(std::string(1, static_cast<char>(200))));
  EXPECT_EQ(protocol_errors->value() - before, 1u) << "unknown opcode";

  for (int i = 0; i < 40 * static_cast<int>(valid.size()); ++i) {
    send(Mutate(valid[static_cast<size_t>(i) % valid.size()], &rng));
  }
  if (fd >= 0) ::close(fd);

  scribe::RemoteScribe client(&clock, "127.0.0.1", server.port(),
                              "fuzz.after");
  ASSERT_TRUE(client.Ping().ok());
  ASSERT_TRUE(client.WriteShardedBatch("fz", {{"k", "after"}}).ok());
  server.Stop();
}

INSTANTIATE_TEST_SUITE_P(Seeds, FuzzTest,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34));

}  // namespace
}  // namespace fbstream
