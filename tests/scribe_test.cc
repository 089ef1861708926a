// Tests for the Scribe message bus: categories/buckets, offsets and replay,
// reader decoupling, sharding, retention, delivery latency, persistence,
// torn-tail recovery, append retries, and dynamic re-bucketing.

#include <gtest/gtest.h>

#include <set>
#include <thread>

#include "common/fault.h"
#include "common/fs.h"
#include "scribe/scribe.h"

namespace fbstream::scribe {
namespace {

class ScribeTest : public ::testing::Test {
 protected:
  SimClock clock_{1'000'000};
  Scribe scribe_{&clock_};

  void MakeCategory(const std::string& name, int buckets = 1,
                    Micros latency = 0) {
    CategoryConfig config;
    config.name = name;
    config.num_buckets = buckets;
    config.delivery_latency_micros = latency;
    ASSERT_TRUE(scribe_.CreateCategory(config).ok());
  }
};

TEST_F(ScribeTest, CreateRejectsDuplicatesAndBadConfigs) {
  MakeCategory("events");
  CategoryConfig dup;
  dup.name = "events";
  EXPECT_EQ(scribe_.CreateCategory(dup).code(), StatusCode::kAlreadyExists);

  CategoryConfig empty_name;
  EXPECT_FALSE(scribe_.CreateCategory(empty_name).ok());

  CategoryConfig zero_buckets;
  zero_buckets.name = "zb";
  zero_buckets.num_buckets = 0;
  EXPECT_FALSE(scribe_.CreateCategory(zero_buckets).ok());

  // Buckets are allocated eagerly: a count past the cap is refused, at
  // creation and on a resize, instead of allocating it.
  CategoryConfig too_many;
  too_many.name = "tm";
  too_many.num_buckets = kMaxBucketsPerCategory + 1;
  EXPECT_EQ(scribe_.CreateCategory(too_many).code(),
            StatusCode::kInvalidArgument);
  too_many.num_buckets = kMaxBucketsPerCategory;
  ASSERT_TRUE(scribe_.CreateCategory(too_many).ok());
  EXPECT_EQ(scribe_.SetNumBuckets("tm", kMaxBucketsPerCategory + 1).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(scribe_.NumBuckets("tm"), kMaxBucketsPerCategory);
}

TEST_F(ScribeTest, WriteReadRoundTrip) {
  MakeCategory("events");
  ASSERT_TRUE(scribe_.Write("events", 0, "m0").ok());
  ASSERT_TRUE(scribe_.Write("events", 0, "m1").ok());
  auto messages = scribe_.Read("events", 0, 0, 100);
  ASSERT_TRUE(messages.ok());
  ASSERT_EQ(messages->size(), 2u);
  EXPECT_EQ((*messages)[0].payload, "m0");
  EXPECT_EQ((*messages)[0].sequence, 0u);
  EXPECT_EQ((*messages)[1].payload, "m1");
  EXPECT_EQ((*messages)[1].sequence, 1u);
}

TEST_F(ScribeTest, WriteToUnknownCategoryFails) {
  EXPECT_TRUE(scribe_.Write("nope", 0, "m").IsNotFound());
}

TEST_F(ScribeTest, WriteToBadBucketFails) {
  MakeCategory("events", 2);
  EXPECT_FALSE(scribe_.Write("events", 5, "m").ok());
  EXPECT_FALSE(scribe_.Write("events", -1, "m").ok());
}

TEST_F(ScribeTest, IndependentReadersSeeSameData) {
  // Paper §4.2: a persistent store allows the same data to be read multiple
  // times by independent readers.
  MakeCategory("events");
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(scribe_.Write("events", 0, "m" + std::to_string(i)).ok());
  }
  Tailer r1(&scribe_, "events", 0);
  Tailer r2(&scribe_, "events", 0);
  EXPECT_EQ(r1.Poll().size(), 10u);
  EXPECT_EQ(r2.Poll().size(), 10u);  // r1 consuming did not affect r2.
}

TEST_F(ScribeTest, TailerResumesFromOffset) {
  MakeCategory("events");
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(scribe_.Write("events", 0, std::to_string(i)).ok());
  }
  Tailer tailer(&scribe_, "events", 0);
  auto batch1 = tailer.Poll(3);
  ASSERT_EQ(batch1.size(), 3u);
  EXPECT_EQ(tailer.offset(), 3u);

  // A new tailer built from the persisted offset resumes exactly.
  Tailer resumed(&scribe_, "events", 0, tailer.offset());
  auto batch2 = resumed.Poll();
  ASSERT_EQ(batch2.size(), 2u);
  EXPECT_EQ(batch2[0].payload, "3");
}

TEST_F(ScribeTest, ReplayAfterSeek) {
  // Debugging story (§6.2): "we can replay a stream from a given (recent)
  // time period".
  MakeCategory("events");
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(scribe_.Write("events", 0, std::to_string(i)).ok());
  }
  Tailer tailer(&scribe_, "events", 0);
  EXPECT_EQ(tailer.Poll().size(), 5u);
  tailer.Seek(0);
  EXPECT_EQ(tailer.Poll().size(), 5u);  // Full replay.
}

TEST_F(ScribeTest, ShardedWritesSpreadAndAreSticky) {
  MakeCategory("events", 4);
  // Same key always lands in the same bucket.
  for (int rep = 0; rep < 3; ++rep) {
    ASSERT_TRUE(scribe_.WriteSharded("events", "dim42", "x").ok());
  }
  int buckets_with_data = 0;
  int total = 0;
  for (int b = 0; b < 4; ++b) {
    auto msgs = scribe_.Read("events", b, 0, 100);
    ASSERT_TRUE(msgs.ok());
    if (!msgs->empty()) {
      ++buckets_with_data;
      total += static_cast<int>(msgs->size());
    }
  }
  EXPECT_EQ(buckets_with_data, 1);
  EXPECT_EQ(total, 3);

  // Many distinct keys hit every bucket.
  for (int i = 0; i < 200; ++i) {
    ASSERT_TRUE(
        scribe_.WriteSharded("events", "key" + std::to_string(i), "y").ok());
  }
  int nonempty = 0;
  for (int b = 0; b < 4; ++b) {
    auto msgs = scribe_.Read("events", b, 0, 1000);
    ASSERT_TRUE(msgs.ok());
    if (!msgs->empty()) ++nonempty;
  }
  EXPECT_EQ(nonempty, 4);
}

TEST_F(ScribeTest, DeliveryLatencyHidesFreshMessages) {
  // Models "Using Scribe imposes a minimum latency of about a second per
  // stream" (§4.2.2).
  MakeCategory("slow", 1, kMicrosPerSecond);
  ASSERT_TRUE(scribe_.Write("slow", 0, "m").ok());
  auto hidden = scribe_.Read("slow", 0, 0, 10);
  ASSERT_TRUE(hidden.ok());
  EXPECT_TRUE(hidden->empty());

  clock_.AdvanceMicros(kMicrosPerSecond);
  auto visible = scribe_.Read("slow", 0, 0, 10);
  ASSERT_TRUE(visible.ok());
  EXPECT_EQ(visible->size(), 1u);
}

TEST_F(ScribeTest, RetentionTrimsOldMessages) {
  CategoryConfig config;
  config.name = "short";
  config.retention_micros = 10 * kMicrosPerSecond;
  ASSERT_TRUE(scribe_.CreateCategory(config).ok());
  ASSERT_TRUE(scribe_.Write("short", 0, "old").ok());
  clock_.AdvanceMicros(20 * kMicrosPerSecond);
  ASSERT_TRUE(scribe_.Write("short", 0, "new").ok());
  scribe_.TrimExpired();

  // A reader starting from 0 resumes at the oldest retained message.
  auto msgs = scribe_.Read("short", 0, 0, 10);
  ASSERT_TRUE(msgs.ok());
  ASSERT_EQ(msgs->size(), 1u);
  EXPECT_EQ((*msgs)[0].payload, "new");
  EXPECT_EQ((*msgs)[0].sequence, 1u);  // Sequences are never reused.
}

TEST_F(ScribeTest, RebucketingGrowsCategory) {
  MakeCategory("events", 2);
  EXPECT_EQ(scribe_.NumBuckets("events"), 2);
  ASSERT_TRUE(scribe_.SetNumBuckets("events", 8).ok());
  EXPECT_EQ(scribe_.NumBuckets("events"), 8);
  // New buckets accept writes.
  ASSERT_TRUE(scribe_.Write("events", 7, "m").ok());
  auto msgs = scribe_.Read("events", 7, 0, 10);
  ASSERT_TRUE(msgs.ok());
  EXPECT_EQ(msgs->size(), 1u);
}

TEST_F(ScribeTest, RebucketingShrinkKeepsDrainableData) {
  MakeCategory("events", 4);
  ASSERT_TRUE(scribe_.Write("events", 3, "tail-data").ok());
  ASSERT_TRUE(scribe_.SetNumBuckets("events", 2).ok());
  // Writers no longer route to bucket 3...
  EXPECT_FALSE(scribe_.Write("events", 3, "m").ok());
  // ...but readers can still drain it.
  auto msgs = scribe_.Read("events", 3, 0, 10);
  ASSERT_TRUE(msgs.ok());
  ASSERT_EQ(msgs->size(), 1u);
  EXPECT_EQ((*msgs)[0].payload, "tail-data");
}

TEST_F(ScribeTest, LagTracksBacklog) {
  MakeCategory("events");
  Tailer tailer(&scribe_, "events", 0);
  EXPECT_EQ(tailer.LagMessages(), 0u);
  for (int i = 0; i < 7; ++i) {
    ASSERT_TRUE(scribe_.Write("events", 0, "m").ok());
  }
  EXPECT_EQ(tailer.LagMessages(), 7u);
  tailer.Poll(3);
  EXPECT_EQ(tailer.LagMessages(), 4u);
  tailer.Poll();
  EXPECT_EQ(tailer.LagMessages(), 0u);
}

TEST_F(ScribeTest, TotalBytesTracksPayloadSizes) {
  MakeCategory("events", 2);
  ASSERT_TRUE(scribe_.Write("events", 0, "12345").ok());
  ASSERT_TRUE(scribe_.Write("events", 1, "123").ok());
  auto bytes = scribe_.TotalBytes("events");
  ASSERT_TRUE(bytes.ok());
  EXPECT_EQ(*bytes, 8u);
}

TEST(ScribePersistenceTest, SurvivesRestart) {
  const std::string root = MakeTempDir("scribe");
  SimClock clock(5'000'000);
  CategoryConfig config;
  config.name = "durable";
  config.num_buckets = 2;
  config.persist_to_disk = true;
  {
    Scribe scribe(&clock, root);
    ASSERT_TRUE(scribe.CreateCategory(config).ok());
    ASSERT_TRUE(scribe.Write("durable", 0, "a").ok());
    ASSERT_TRUE(scribe.Write("durable", 0, "b").ok());
    ASSERT_TRUE(scribe.Write("durable", 1, "c").ok());
  }
  {
    // A new Scribe instance over the same root recovers all messages.
    Scribe scribe(&clock, root);
    ASSERT_TRUE(scribe.CreateCategory(config).ok());
    auto b0 = scribe.Read("durable", 0, 0, 10);
    ASSERT_TRUE(b0.ok());
    ASSERT_EQ(b0->size(), 2u);
    EXPECT_EQ((*b0)[0].payload, "a");
    EXPECT_EQ((*b0)[1].payload, "b");
    auto b1 = scribe.Read("durable", 1, 0, 10);
    ASSERT_TRUE(b1.ok());
    ASSERT_EQ(b1->size(), 1u);
    // Appends after recovery continue the sequence.
    ASSERT_TRUE(scribe.Write("durable", 0, "d").ok());
    auto again = scribe.Read("durable", 0, 0, 10);
    ASSERT_TRUE(again.ok());
    ASSERT_EQ(again->size(), 3u);
    EXPECT_EQ((*again)[2].sequence, 2u);
  }
  ASSERT_TRUE(RemoveAll(root).ok());
}

TEST(ScribePersistenceTest, RequiresRootDir) {
  SimClock clock;
  Scribe scribe(&clock);  // No root.
  CategoryConfig config;
  config.name = "durable";
  config.persist_to_disk = true;
  EXPECT_FALSE(scribe.CreateCategory(config).ok());
}

TEST(ScribeConcurrencyTest, ParallelWritersAndReaders) {
  SimClock clock(1);
  Scribe scribe(&clock);
  CategoryConfig config;
  config.name = "hot";
  config.num_buckets = 4;
  ASSERT_TRUE(scribe.CreateCategory(config).ok());

  constexpr int kWriters = 4;
  constexpr int kPerWriter = 2000;
  std::vector<std::thread> writers;
  for (int w = 0; w < kWriters; ++w) {
    writers.emplace_back([&scribe, w] {
      for (int i = 0; i < kPerWriter; ++i) {
        scribe.WriteSharded("hot", "k" + std::to_string(w * 100000 + i),
                            "payload");
      }
    });
  }
  for (auto& t : writers) t.join();

  size_t total = 0;
  for (int b = 0; b < 4; ++b) {
    Tailer tailer(&scribe, "hot", b);
    while (true) {
      auto batch = tailer.Poll(512);
      if (batch.empty()) break;
      total += batch.size();
    }
  }
  EXPECT_EQ(total, static_cast<size_t>(kWriters * kPerWriter));
}


TEST(ScribeSegmentTest, RotatesAndTrimsOnDisk) {
  const std::string root = MakeTempDir("scribe_seg");
  SimClock clock(1'000'000);
  CategoryConfig config;
  config.name = "seg";
  config.persist_to_disk = true;
  config.retention_micros = 10 * kMicrosPerSecond;
  Scribe scribe(&clock, root);
  ASSERT_TRUE(scribe.CreateCategory(config).ok());

  // Fill more than two segments worth of messages.
  const size_t total = Bucket::kSegmentMessages * 2 + 100;
  for (size_t i = 0; i < total; ++i) {
    ASSERT_TRUE(scribe.Write("seg", 0, "m" + std::to_string(i)).ok());
  }
  auto files = ListDir(root + "/seg/bucket-0");
  ASSERT_TRUE(files.ok());
  EXPECT_EQ(files->size(), 3u);  // Two sealed + one active segment.

  // Age everything out and trim: sealed segments disappear from disk, the
  // active one stays.
  clock.AdvanceMicros(100 * kMicrosPerSecond);
  scribe.TrimExpired();
  files = ListDir(root + "/seg/bucket-0");
  ASSERT_TRUE(files.ok());
  EXPECT_EQ(files->size(), 1u);

  // Readers resume at the retained head; sequences keep counting.
  ASSERT_TRUE(scribe.Write("seg", 0, "fresh").ok());
  auto msgs = scribe.Read("seg", 0, 0, 10);
  ASSERT_TRUE(msgs.ok());
  ASSERT_EQ(msgs->size(), 1u);
  EXPECT_EQ((*msgs)[0].payload, "fresh");
  EXPECT_EQ((*msgs)[0].sequence, total);
  ASSERT_TRUE(RemoveAll(root).ok());
}

TEST(ScribeSegmentTest, RecoveryAcrossSegments) {
  const std::string root = MakeTempDir("scribe_seg2");
  SimClock clock(1);
  CategoryConfig config;
  config.name = "seg";
  config.persist_to_disk = true;
  const size_t total = Bucket::kSegmentMessages + 10;
  {
    Scribe scribe(&clock, root);
    ASSERT_TRUE(scribe.CreateCategory(config).ok());
    for (size_t i = 0; i < total; ++i) {
      ASSERT_TRUE(scribe.Write("seg", 0, std::to_string(i)).ok());
    }
  }
  Scribe scribe(&clock, root);
  ASSERT_TRUE(scribe.CreateCategory(config).ok());
  Tailer tailer(&scribe, "seg", 0);
  size_t read = 0;
  std::string last;
  while (true) {
    auto batch = tailer.Poll(1024);
    if (batch.empty()) break;
    read += batch.size();
    last = batch.back().payload;
  }
  EXPECT_EQ(read, total);
  EXPECT_EQ(last, std::to_string(total - 1));
  ASSERT_TRUE(RemoveAll(root).ok());
}

namespace {
std::vector<std::string> ReadAllPayloads(Scribe* scribe) {
  Tailer tailer(scribe, "seg", 0);
  std::vector<std::string> payloads;
  while (true) {
    auto batch = tailer.Poll(1024);
    if (batch.empty()) break;
    for (auto& m : batch) payloads.push_back(m.payload);
  }
  return payloads;
}
}  // namespace

TEST(ScribeCorruptionTest, TornTailTruncatedAndAppendsContinue) {
  const std::string root = MakeTempDir("scribe_torn");
  SimClock clock(1);
  CategoryConfig config;
  config.name = "seg";
  config.persist_to_disk = true;
  {
    Scribe scribe(&clock, root);
    ASSERT_TRUE(scribe.CreateCategory(config).ok());
    for (int i = 0; i < 5; ++i) {
      ASSERT_TRUE(scribe.Write("seg", 0, "m" + std::to_string(i)).ok());
    }
  }
  // Tear the tail: drop the last 3 bytes of the active segment, as a crash
  // mid-append would.
  const std::string segment = root + "/seg/bucket-0/segment-000000000000.log";
  auto data = ReadFileToString(segment);
  ASSERT_TRUE(data.ok());
  ASSERT_TRUE(WriteFile(segment, data->substr(0, data->size() - 3)).ok());

  {
    Scribe scribe(&clock, root);
    ASSERT_TRUE(scribe.CreateCategory(config).ok());
    // The intact prefix survives; the torn record is gone.
    EXPECT_EQ(ReadAllPayloads(&scribe),
              (std::vector<std::string>{"m0", "m1", "m2", "m3"}));
    // The file was truncated back to a record boundary, so a new append
    // lands cleanly and takes the torn record's sequence number.
    ASSERT_TRUE(scribe.Write("seg", 0, "m4-again").ok());
    auto msgs = scribe.Read("seg", 0, 4, 10);
    ASSERT_TRUE(msgs.ok());
    ASSERT_EQ(msgs->size(), 1u);
    EXPECT_EQ((*msgs)[0].sequence, 4u);
  }
  // A second restart sees a fully clean log.
  Scribe scribe(&clock, root);
  ASSERT_TRUE(scribe.CreateCategory(config).ok());
  EXPECT_EQ(ReadAllPayloads(&scribe),
            (std::vector<std::string>{"m0", "m1", "m2", "m3", "m4-again"}));
  ASSERT_TRUE(RemoveAll(root).ok());
}

TEST(ScribeCorruptionTest, BitFlipDetectedByChecksum) {
  const std::string root = MakeTempDir("scribe_flip");
  SimClock clock(1);
  CategoryConfig config;
  config.name = "seg";
  config.persist_to_disk = true;
  {
    Scribe scribe(&clock, root);
    ASSERT_TRUE(scribe.CreateCategory(config).ok());
    for (int i = 0; i < 3; ++i) {
      ASSERT_TRUE(scribe.Write("seg", 0, "payload-" + std::to_string(i)).ok());
    }
  }
  // Flip one bit inside the last record's body (bit rot): the length
  // prefix still parses, but the checksum must catch it.
  const std::string segment = root + "/seg/bucket-0/segment-000000000000.log";
  auto data = ReadFileToString(segment);
  ASSERT_TRUE(data.ok());
  std::string bytes = *data;
  bytes[bytes.size() - 2] = static_cast<char>(bytes[bytes.size() - 2] ^ 0x40);
  ASSERT_TRUE(WriteFile(segment, bytes).ok());

  Scribe scribe(&clock, root);
  ASSERT_TRUE(scribe.CreateCategory(config).ok());
  EXPECT_EQ(ReadAllPayloads(&scribe),
            (std::vector<std::string>{"payload-0", "payload-1"}));
  ASSERT_TRUE(RemoveAll(root).ok());
}

TEST(ScribeCorruptionTest, CorruptionDropsLaterSegments) {
  const std::string root = MakeTempDir("scribe_multi");
  SimClock clock(1);
  CategoryConfig config;
  config.name = "seg";
  config.persist_to_disk = true;
  const size_t total = Bucket::kSegmentMessages + 5;  // Two segments.
  {
    Scribe scribe(&clock, root);
    ASSERT_TRUE(scribe.CreateCategory(config).ok());
    for (size_t i = 0; i < total; ++i) {
      ASSERT_TRUE(scribe.Write("seg", 0, std::to_string(i)).ok());
    }
  }
  auto files = ListDir(root + "/seg/bucket-0");
  ASSERT_TRUE(files.ok());
  ASSERT_EQ(files->size(), 2u);
  // Corrupt the tail of the *first* segment: its suffix and the entire
  // second segment are untrusted (contiguous sequences would break).
  const std::string first_segment = root + "/seg/bucket-0/" + (*files)[0];
  auto data = ReadFileToString(first_segment);
  ASSERT_TRUE(data.ok());
  ASSERT_TRUE(
      WriteFile(first_segment, data->substr(0, data->size() - 1)).ok());

  Scribe scribe(&clock, root);
  ASSERT_TRUE(scribe.CreateCategory(config).ok());
  const std::vector<std::string> payloads = ReadAllPayloads(&scribe);
  EXPECT_EQ(payloads.size(), Bucket::kSegmentMessages - 1);
  EXPECT_EQ(payloads.back(),
            std::to_string(Bucket::kSegmentMessages - 2));
  files = ListDir(root + "/seg/bucket-0");
  ASSERT_TRUE(files.ok());
  EXPECT_EQ(files->size(), 1u);  // Post-corruption segment deleted.
  ASSERT_TRUE(RemoveAll(root).ok());
}

TEST(ScribeRetryTest, TransientAppendFaultIsRetried) {
  FaultRegistry::Global()->Reset();
  SimClock clock(1);
  Scribe scribe(&clock);
  CategoryConfig config;
  config.name = "flaky";
  ASSERT_TRUE(scribe.CreateCategory(config).ok());
  FaultRegistry::Global()->FailNext("scribe.append");
  ASSERT_TRUE(scribe.Write("flaky", 0, "survives").ok());
  EXPECT_GE(scribe.retry_stats().retries, 1u);
  EXPECT_EQ(scribe.retry_stats().exhausted, 0u);
  auto msgs = scribe.Read("flaky", 0, 0, 10);
  ASSERT_TRUE(msgs.ok());
  ASSERT_EQ(msgs->size(), 1u);
  EXPECT_EQ((*msgs)[0].payload, "survives");
  FaultRegistry::Global()->Reset();
}

TEST(ScribeRetryTest, PersistentAppendFaultExhaustsBudget) {
  FaultRegistry::Global()->Reset();
  SimClock clock(1);
  Scribe scribe(&clock);
  CategoryConfig config;
  config.name = "down";
  ASSERT_TRUE(scribe.CreateCategory(config).ok());
  // Outlast the default 3-attempt budget.
  FaultRegistry::Global()->FailNext("scribe.append",
                                    StatusCode::kUnavailable,
                                    /*count=*/100);
  const Status st = scribe.Write("down", 0, "lost");
  EXPECT_TRUE(st.IsUnavailable());
  EXPECT_NE(st.message().find("failed after"), std::string::npos);
  EXPECT_GE(scribe.retry_stats().exhausted, 1u);
  // Nothing was appended: the fault fires before the bucket mutates.
  auto msgs = scribe.Read("down", 0, 0, 10);
  ASSERT_TRUE(msgs.ok());
  EXPECT_TRUE(msgs->empty());
  FaultRegistry::Global()->Reset();
}

}  // namespace
}  // namespace fbstream::scribe
