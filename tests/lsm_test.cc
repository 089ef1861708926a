// Tests for the embedded LSM store: write batch, memtable, WAL recovery,
// SST format, compaction, merge operators, snapshots, iterators, and the
// backup engine. Includes parameterized property sweeps comparing the DB
// against a model std::map across random workloads.

#include <gtest/gtest.h>

#include <map>
#include <optional>

#include "common/fs.h"
#include "common/rng.h"
#include "common/serde.h"
#include "common/metrics.h"
#include "storage/lsm/block_cache.h"
#include "storage/lsm/bloom.h"
#include "storage/lsm/db.h"
#include "storage/lsm/memtable.h"
#include "storage/lsm/merge_operator.h"
#include "storage/lsm/sstable.h"
#include "storage/lsm/wal.h"
#include "storage/lsm/write_batch.h"

namespace fbstream::lsm {
namespace {

TEST(WriteBatchTest, SerializeRoundTrip) {
  WriteBatch batch;
  batch.Put("k1", "v1");
  batch.Delete("k2");
  batch.Merge("k3", "7");
  auto decoded = WriteBatch::Deserialize(batch.Serialize());
  ASSERT_TRUE(decoded.ok());
  ASSERT_EQ(decoded->size(), 3u);
  EXPECT_EQ(decoded->ops()[0].type, EntryType::kPut);
  EXPECT_EQ(decoded->ops()[0].key, "k1");
  EXPECT_EQ(decoded->ops()[0].value, "v1");
  EXPECT_EQ(decoded->ops()[1].type, EntryType::kDelete);
  EXPECT_EQ(decoded->ops()[2].type, EntryType::kMerge);
  EXPECT_EQ(decoded->ops()[2].value, "7");
}

TEST(WriteBatchTest, RejectsCorruptInput) {
  EXPECT_FALSE(WriteBatch::Deserialize("\x05garbage").ok());
}

TEST(InternalKeyTest, OrderingIsKeyAscSeqDesc) {
  InternalKey a{"apple", 5, EntryType::kPut};
  InternalKey a_newer{"apple", 9, EntryType::kPut};
  InternalKey b{"banana", 1, EntryType::kPut};
  EXPECT_LT(a_newer.Compare(a), 0);  // Newer version first.
  EXPECT_LT(a.Compare(b), 0);
  EXPECT_EQ(a.Compare(a), 0);
}

TEST(MemTableTest, NewestVisibleVersionWins) {
  MemTable mem;
  mem.Add(1, EntryType::kPut, "k", "v1");
  mem.Add(5, EntryType::kPut, "k", "v5");
  LookupState state;
  ASSERT_TRUE(mem.Get("k", kMaxSequence, &state));
  EXPECT_TRUE(state.found_base);
  EXPECT_EQ(state.base_value, "v5");
}

TEST(MemTableTest, SequenceVisibility) {
  MemTable mem;
  mem.Add(1, EntryType::kPut, "k", "v1");
  mem.Add(5, EntryType::kPut, "k", "v5");
  LookupState state;
  ASSERT_TRUE(mem.Get("k", 3, &state));  // Read at seq 3 sees only v1.
  EXPECT_EQ(state.base_value, "v1");
}

TEST(MemTableTest, DeleteShadowsPut) {
  MemTable mem;
  mem.Add(1, EntryType::kPut, "k", "v");
  mem.Add(2, EntryType::kDelete, "k", "");
  LookupState state;
  ASSERT_TRUE(mem.Get("k", kMaxSequence, &state));
  EXPECT_TRUE(state.found_base);
  EXPECT_TRUE(state.base_is_delete);
}

TEST(MemTableTest, MergeOperandsCollectedOldestFirst) {
  MemTable mem;
  mem.Add(1, EntryType::kPut, "k", "base");
  mem.Add(2, EntryType::kMerge, "k", "op1");
  mem.Add(3, EntryType::kMerge, "k", "op2");
  LookupState state;
  ASSERT_TRUE(mem.Get("k", kMaxSequence, &state));
  EXPECT_TRUE(state.found_base);
  EXPECT_EQ(state.base_value, "base");
  ASSERT_EQ(state.operands.size(), 2u);
  EXPECT_EQ(state.operands[0], "op1");
  EXPECT_EQ(state.operands[1], "op2");
}

TEST(MemTableTest, SnapshotIsSortedInternalOrder) {
  MemTable mem;
  mem.Add(1, EntryType::kPut, "b", "1");
  mem.Add(2, EntryType::kPut, "a", "2");
  mem.Add(3, EntryType::kPut, "a", "3");
  auto entries = mem.Snapshot();
  ASSERT_EQ(entries.size(), 3u);
  EXPECT_EQ(entries[0].key.user_key, "a");
  EXPECT_EQ(entries[0].key.sequence, 3u);  // Newest "a" first.
  EXPECT_EQ(entries[1].key.sequence, 2u);
  EXPECT_EQ(entries[2].key.user_key, "b");
}

TEST(WalTest, ReplayRecoversRecordsAndIgnoresTornTail) {
  const std::string dir = MakeTempDir("wal");
  const std::string path = dir + "/wal.log";
  {
    WalWriter writer;
    ASSERT_TRUE(writer.Open(path).ok());
    WriteBatch b1;
    b1.Put("a", "1");
    ASSERT_TRUE(writer.AddRecord(1, b1).ok());
    WriteBatch b2;
    b2.Put("b", "2");
    b2.Delete("a");
    ASSERT_TRUE(writer.AddRecord(2, b2).ok());
  }
  // Simulate a crash mid-append: truncate a few bytes.
  auto data = ReadFileToString(path);
  ASSERT_TRUE(data.ok());
  {
    std::string torn = *data + "\x13half-written garbage";
    ASSERT_TRUE(WriteFile(path, torn).ok());
  }
  std::vector<std::pair<SequenceNumber, size_t>> seen;
  ASSERT_TRUE(ReplayWal(path, [&seen](SequenceNumber seq,
                                      const WriteBatch& batch) {
                seen.emplace_back(seq, batch.size());
              }).ok());
  ASSERT_EQ(seen.size(), 2u);
  EXPECT_EQ(seen[0], (std::pair<SequenceNumber, size_t>{1, 1}));
  EXPECT_EQ(seen[1], (std::pair<SequenceNumber, size_t>{2, 2}));
  ASSERT_TRUE(RemoveAll(dir).ok());
}

TEST(WalTest, ReplayMissingFileIsOk) {
  int calls = 0;
  ASSERT_TRUE(ReplayWal("/nonexistent/wal.log",
                        [&calls](SequenceNumber, const WriteBatch&) {
                          ++calls;
                        })
                  .ok());
  EXPECT_EQ(calls, 0);
}

TEST(SstTest, WriteReadRoundTrip) {
  const std::string dir = MakeTempDir("sst");
  SstWriter writer;
  writer.Add(Entry{InternalKey{"apple", 3, EntryType::kPut}, "red"});
  writer.Add(Entry{InternalKey{"apple", 1, EntryType::kPut}, "green"});
  writer.Add(Entry{InternalKey{"banana", 2, EntryType::kDelete}, ""});
  writer.Add(Entry{InternalKey{"cherry", 4, EntryType::kMerge}, "+1"});
  ASSERT_TRUE(writer.Finish(dir + "/t.sst").ok());

  auto reader = SstReader::Open(dir + "/t.sst");
  ASSERT_TRUE(reader.ok());
  EXPECT_EQ((*reader)->smallest(), "apple");
  EXPECT_EQ((*reader)->largest(), "cherry");
  EXPECT_EQ((*reader)->max_sequence(), 4u);
  EXPECT_EQ((*reader)->num_entries(), 4u);

  LookupState state;
  ASSERT_TRUE((*reader)->Get("apple", kMaxSequence, &state));
  EXPECT_EQ(state.base_value, "red");

  LookupState old_state;
  ASSERT_TRUE((*reader)->Get("apple", 1, &old_state));
  EXPECT_EQ(old_state.base_value, "green");

  LookupState merge_state;
  ASSERT_TRUE((*reader)->Get("cherry", kMaxSequence, &merge_state));
  EXPECT_FALSE(merge_state.found_base);
  ASSERT_EQ(merge_state.operands.size(), 1u);
  EXPECT_EQ(merge_state.operands[0], "+1");
  ASSERT_TRUE(RemoveAll(dir).ok());
}

TEST(SstTest, IteratorSeek) {
  const std::string dir = MakeTempDir("sst");
  SstWriter writer;
  for (const char* k : {"a", "c", "e"}) {
    writer.Add(Entry{InternalKey{k, 1, EntryType::kPut}, "v"});
  }
  ASSERT_TRUE(writer.Finish(dir + "/t.sst").ok());
  auto reader = SstReader::Open(dir + "/t.sst");
  ASSERT_TRUE(reader.ok());
  auto it = (*reader)->NewIterator();
  it.Seek("b");
  ASSERT_TRUE(it.Valid());
  EXPECT_EQ(it.entry().key.user_key, "c");
  it.Seek("z");
  EXPECT_FALSE(it.Valid());
  ASSERT_TRUE(RemoveAll(dir).ok());
}

TEST(SstTest, OpenRejectsCorruptFile) {
  const std::string dir = MakeTempDir("sst");
  ASSERT_TRUE(WriteFile(dir + "/bad.sst", "not an sst file at all......").ok());
  EXPECT_FALSE(SstReader::Open(dir + "/bad.sst").ok());
  ASSERT_TRUE(WriteFile(dir + "/tiny.sst", "x").ok());
  EXPECT_FALSE(SstReader::Open(dir + "/tiny.sst").ok());
  ASSERT_TRUE(RemoveAll(dir).ok());
}

TEST(SstTest, OpenRejectsV1FormatWithCleanCorruption) {
  // A file carrying the retired v1 footer magic (flat entry array, before
  // the block-based format). Formats are never migrated in place, so it is
  // just a bad magic: a clean Corruption, never a misparse.
  const std::string dir = MakeTempDir("sst");
  std::string v1 = "pretend-v1-entry-payload";
  PutFixed64(&v1, 0);                     // v1 "entries offset" footer field.
  PutFixed64(&v1, v1.size());             // Second footer field.
  PutFixed64(&v1, 0xfb57ab1e00c0ffeeULL);  // kSstMagicV1.
  ASSERT_TRUE(WriteFile(dir + "/old.sst", v1).ok());
  const auto opened = SstReader::Open(dir + "/old.sst");
  ASSERT_FALSE(opened.ok());
  EXPECT_EQ(opened.status().code(), StatusCode::kCorruption) << opened.status();
  EXPECT_NE(opened.status().message().find("bad magic"), std::string::npos)
      << opened.status();
  ASSERT_TRUE(RemoveAll(dir).ok());
}

TEST(BlockCacheTest, LruEvictionAndGlobalMetrics) {
  auto* hit = MetricsRegistry::Global()->GetCounter("lsm.block_cache.hit");
  auto* miss = MetricsRegistry::Global()->GetCounter("lsm.block_cache.miss");
  auto* evict = MetricsRegistry::Global()->GetCounter("lsm.block_cache.evict");
  const uint64_t hit0 = hit->value();
  const uint64_t miss0 = miss->value();
  const uint64_t evict0 = evict->value();

  BlockCache cache(2048);  // Room for exactly two 1 KiB blocks.
  const uint64_t file = BlockCache::NextFileId();
  auto make_block = [] {
    auto block = std::make_shared<SstBlock>();
    block->charge = 1024;
    return block;
  };
  EXPECT_EQ(cache.Lookup(file, 0), nullptr);  // Cold miss.
  cache.Insert(file, 0, make_block());
  cache.Insert(file, 4096, make_block());
  EXPECT_NE(cache.Lookup(file, 0), nullptr);  // Hit; offset 0 becomes MRU.
  cache.Insert(file, 8192, make_block());     // Over capacity: evicts 4096.
  EXPECT_NE(cache.Lookup(file, 0), nullptr);
  EXPECT_EQ(cache.Lookup(file, 4096), nullptr);

  const auto stats = cache.GetStats();
  EXPECT_EQ(stats.blocks, 2u);
  EXPECT_EQ(stats.bytes, 2048u);

  // Hit/miss/evict counts live only in the process-wide registry (what
  // benches and Scuba-side dashboards read).
  EXPECT_EQ(hit->value() - hit0, 2u);
  EXPECT_EQ(miss->value() - miss0, 2u);
  EXPECT_EQ(evict->value() - evict0, 1u);

  // An evicted block stays alive while a reader still pins it.
  auto pinned = cache.Lookup(file, 8192);
  ASSERT_NE(pinned, nullptr);
  cache.EraseFile(file);
  EXPECT_EQ(cache.GetStats().blocks, 0u);
  EXPECT_EQ(pinned->charge, 1024u);

  // Ids never collide across readers, so two files caching the same offset
  // coexist.
  const uint64_t other = BlockCache::NextFileId();
  EXPECT_NE(other, file);
}

TEST(MergeOperatorTest, Int64Add) {
  auto op = MakeInt64AddOperator();
  std::string result;
  const std::string base = "10";
  ASSERT_TRUE(op->FullMerge("k", &base, {"5", "-3"}, &result));
  EXPECT_EQ(result, "12");
  ASSERT_TRUE(op->FullMerge("k", nullptr, {"5"}, &result));
  EXPECT_EQ(result, "5");
  ASSERT_TRUE(op->PartialMerge("k", "2", "3", &result));
  EXPECT_EQ(result, "5");
}

TEST(MergeOperatorTest, StringAppend) {
  auto op = MakeStringAppendOperator(',');
  std::string result;
  const std::string base = "a";
  ASSERT_TRUE(op->FullMerge("k", &base, {"b", "c"}, &result));
  EXPECT_EQ(result, "a,b,c");
  ASSERT_TRUE(op->FullMerge("k", nullptr, {"x"}, &result));
  EXPECT_EQ(result, "x");
}

TEST(MergeOperatorTest, Int64Max) {
  auto op = MakeInt64MaxOperator();
  std::string result;
  const std::string base = "10";
  ASSERT_TRUE(op->FullMerge("k", &base, {"5", "30", "7"}, &result));
  EXPECT_EQ(result, "30");
}


TEST(BloomFilterTest, NoFalseNegatives) {
  // Property: every inserted key must pass MayContain, across sizes.
  for (const size_t n : {1u, 10u, 100u, 5000u}) {
    BloomFilter filter(n);
    for (size_t i = 0; i < n; ++i) {
      filter.Add("key" + std::to_string(i));
    }
    for (size_t i = 0; i < n; ++i) {
      EXPECT_TRUE(filter.MayContain("key" + std::to_string(i))) << n;
    }
  }
}

TEST(BloomFilterTest, LowFalsePositiveRate) {
  constexpr int kKeys = 10000;
  BloomFilter filter(kKeys);
  for (int i = 0; i < kKeys; ++i) filter.Add("key" + std::to_string(i));
  int false_positives = 0;
  for (int i = 0; i < kKeys; ++i) {
    if (filter.MayContain("absent" + std::to_string(i))) ++false_positives;
  }
  // ~1% expected at 10 bits/key; allow generous slack.
  EXPECT_LT(false_positives, kKeys / 25);
}

TEST(BloomFilterTest, SerializeRoundTrip) {
  BloomFilter filter(100);
  for (int i = 0; i < 100; ++i) filter.Add("k" + std::to_string(i));
  BloomFilter back = BloomFilter::Deserialize(filter.Serialize());
  for (int i = 0; i < 100; ++i) {
    EXPECT_TRUE(back.MayContain("k" + std::to_string(i)));
  }
  // Empty filters exclude nothing (cannot prove absence).
  BloomFilter empty = BloomFilter::Deserialize("");
  EXPECT_TRUE(empty.MayContain("anything"));
}

TEST(SstTest, BloomFilterSkipsAbsentKeys) {
  const std::string dir = MakeTempDir("sst_bloom");
  SstWriter writer;
  for (int i = 0; i < 1000; ++i) {
    char key[16];
    snprintf(key, sizeof(key), "k%06d", i);
    writer.Add(Entry{InternalKey{key, 1, EntryType::kPut}, "v"});
  }
  ASSERT_TRUE(writer.Finish(dir + "/t.sst").ok());
  auto reader = SstReader::Open(dir + "/t.sst");
  ASSERT_TRUE(reader.ok());
  // Present keys always found; absent keys overwhelmingly rejected by the
  // filter (and in all cases correctly reported absent).
  LookupState state;
  EXPECT_TRUE((*reader)->Get("k000500", kMaxSequence, &state));
  int rejected_by_filter = 0;
  for (int i = 0; i < 1000; ++i) {
    LookupState miss;
    if (!(*reader)->bloom().MayContain("missing" + std::to_string(i))) {
      ++rejected_by_filter;
    }
    EXPECT_FALSE(
        (*reader)->Get("missing" + std::to_string(i), kMaxSequence, &miss));
  }
  EXPECT_GT(rejected_by_filter, 950);
  ASSERT_TRUE(RemoveAll(dir).ok());
}

// ---------------------------------------------------------------------------
// Full-DB tests.

class DbTest : public ::testing::Test {
 protected:
  void SetUp() override { dir_ = MakeTempDir("lsmdb"); }
  void TearDown() override { ASSERT_TRUE(RemoveAll(dir_).ok()); }

  std::unique_ptr<Db> OpenDb(DbOptions options = {}) {
    auto db = Db::Open(options, dir_ + "/db");
    EXPECT_TRUE(db.ok()) << db.status();
    return std::move(db).value();
  }

  std::string dir_;
};

TEST_F(DbTest, PutGetDelete) {
  auto db = OpenDb();
  ASSERT_TRUE(db->Put("k", "v").ok());
  auto got = db->Get("k");
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(*got, "v");
  ASSERT_TRUE(db->Delete("k").ok());
  EXPECT_TRUE(db->Get("k").status().IsNotFound());
}

TEST_F(DbTest, GetMissingIsNotFound) {
  auto db = OpenDb();
  EXPECT_TRUE(db->Get("nope").status().IsNotFound());
}

TEST_F(DbTest, OverwriteTakesEffect) {
  auto db = OpenDb();
  ASSERT_TRUE(db->Put("k", "v1").ok());
  ASSERT_TRUE(db->Put("k", "v2").ok());
  EXPECT_EQ(*db->Get("k"), "v2");
}

TEST_F(DbTest, WriteBatchIsAtomicAcrossRecovery) {
  {
    auto db = OpenDb();
    WriteBatch batch;
    batch.Put("a", "1");
    batch.Put("b", "2");
    batch.Delete("a");
    ASSERT_TRUE(db->Write(batch).ok());
  }
  auto db = OpenDb();  // Recovers from WAL.
  EXPECT_TRUE(db->Get("a").status().IsNotFound());
  EXPECT_EQ(*db->Get("b"), "2");
}

TEST_F(DbTest, RecoveryFromWalOnly) {
  {
    auto db = OpenDb();
    for (int i = 0; i < 100; ++i) {
      ASSERT_TRUE(
          db->Put("key" + std::to_string(i), "value" + std::to_string(i))
              .ok());
    }
    // No flush: all data lives in WAL + memtable.
  }
  auto db = OpenDb();
  for (int i = 0; i < 100; ++i) {
    auto got = db->Get("key" + std::to_string(i));
    ASSERT_TRUE(got.ok()) << "key" << i;
    EXPECT_EQ(*got, "value" + std::to_string(i));
  }
}

TEST_F(DbTest, RecoveryAfterFlushAndMore) {
  {
    auto db = OpenDb();
    ASSERT_TRUE(db->Put("flushed", "f").ok());
    ASSERT_TRUE(db->Flush().ok());
    ASSERT_TRUE(db->Put("unflushed", "u").ok());
  }
  auto db = OpenDb();
  EXPECT_EQ(*db->Get("flushed"), "f");
  EXPECT_EQ(*db->Get("unflushed"), "u");
  // Sequence numbers continue past recovery.
  const SequenceNumber before = db->LatestSequence();
  ASSERT_TRUE(db->Put("more", "m").ok());
  EXPECT_GT(db->LatestSequence(), before);
}

TEST_F(DbTest, FlushMakesL0AndClearsMemtable) {
  auto db = OpenDb();
  ASSERT_TRUE(db->Put("k", "v").ok());
  ASSERT_TRUE(db->Flush().ok());
  const auto stats = db->GetStats();
  EXPECT_EQ(stats.levels[0].files, 1);
  EXPECT_EQ(stats.memtable_entries, 0u);
  EXPECT_EQ(*db->Get("k"), "v");
}

TEST_F(DbTest, AutomaticFlushOnMemtableSize) {
  DbOptions options;
  options.memtable_bytes = 1024;
  auto db = OpenDb(options);
  for (int i = 0; i < 200; ++i) {
    ASSERT_TRUE(db->Put("key" + std::to_string(i), std::string(64, 'x')).ok());
  }
  EXPECT_GT(db->GetStats().flushes, 0u);
  EXPECT_EQ(*db->Get("key0"), std::string(64, 'x'));
}

TEST_F(DbTest, CompactionMergesLevels) {
  DbOptions options;
  options.l0_compaction_trigger = 2;
  auto db = OpenDb(options);
  ASSERT_TRUE(db->Put("a", "1").ok());
  ASSERT_TRUE(db->Flush().ok());
  ASSERT_TRUE(db->Put("a", "2").ok());
  ASSERT_TRUE(db->Put("b", "3").ok());
  ASSERT_TRUE(db->Flush().ok());  // Triggers compaction (2 L0 files).
  const auto stats = db->GetStats();
  EXPECT_EQ(stats.levels[0].files, 0);
  EXPECT_GE(stats.levels[1].files, 1);
  EXPECT_GT(stats.compactions, 0u);
  EXPECT_EQ(*db->Get("a"), "2");
  EXPECT_EQ(*db->Get("b"), "3");
}

TEST_F(DbTest, CompactionDropsTombstonesAtBottom) {
  auto db = OpenDb();
  ASSERT_TRUE(db->Put("gone", "v").ok());
  ASSERT_TRUE(db->Delete("gone").ok());
  ASSERT_TRUE(db->Put("kept", "v").ok());
  ASSERT_TRUE(db->CompactAll().ok());
  EXPECT_TRUE(db->Get("gone").status().IsNotFound());
  EXPECT_EQ(*db->Get("kept"), "v");
  // Only one live entry should remain.
  int n = 0;
  for (auto it = db->NewIterator(); it.Valid(); it.Next()) ++n;
  EXPECT_EQ(n, 1);
}

TEST_F(DbTest, MergeResolvesAcrossLayersAndCompaction) {
  DbOptions options;
  options.merge_operator = MakeInt64AddOperator();
  auto db = OpenDb(options);
  ASSERT_TRUE(db->Merge("counter", "1").ok());
  ASSERT_TRUE(db->Flush().ok());
  ASSERT_TRUE(db->Merge("counter", "10").ok());
  ASSERT_TRUE(db->Flush().ok());
  ASSERT_TRUE(db->Merge("counter", "100").ok());
  EXPECT_EQ(*db->Get("counter"), "111");

  ASSERT_TRUE(db->CompactAll().ok());
  EXPECT_EQ(*db->Get("counter"), "111");
  ASSERT_TRUE(db->Merge("counter", "1000").ok());
  EXPECT_EQ(*db->Get("counter"), "1111");
}

TEST_F(DbTest, MergeAfterDeleteStartsFresh) {
  DbOptions options;
  options.merge_operator = MakeInt64AddOperator();
  auto db = OpenDb(options);
  ASSERT_TRUE(db->Put("c", "100").ok());
  ASSERT_TRUE(db->Delete("c").ok());
  ASSERT_TRUE(db->Merge("c", "5").ok());
  EXPECT_EQ(*db->Get("c"), "5");
}

TEST_F(DbTest, MergeWithoutOperatorFails) {
  auto db = OpenDb();
  EXPECT_FALSE(db->Merge("k", "1").ok());
}

TEST_F(DbTest, SnapshotPinsView) {
  auto db = OpenDb();
  ASSERT_TRUE(db->Put("k", "old").ok());
  const DbSnapshot* snap = db->GetSnapshot();
  ASSERT_TRUE(db->Put("k", "new").ok());
  ASSERT_TRUE(db->Delete("other").ok());
  EXPECT_EQ(*db->Get("k", snap), "old");
  EXPECT_EQ(*db->Get("k"), "new");
  db->ReleaseSnapshot(snap);
}

TEST_F(DbTest, SnapshotSurvivesFlushAndCompaction) {
  DbOptions options;
  options.l0_compaction_trigger = 100;  // Manual control.
  auto db = OpenDb(options);
  ASSERT_TRUE(db->Put("k", "v1").ok());
  const DbSnapshot* snap = db->GetSnapshot();
  ASSERT_TRUE(db->Put("k", "v2").ok());
  ASSERT_TRUE(db->Flush().ok());
  ASSERT_TRUE(db->CompactAll().ok());
  EXPECT_EQ(*db->Get("k", snap), "v1");
  EXPECT_EQ(*db->Get("k"), "v2");
  db->ReleaseSnapshot(snap);
  // After release, compaction may collapse history.
  ASSERT_TRUE(db->CompactAll().ok());
  EXPECT_EQ(*db->Get("k"), "v2");
}

TEST_F(DbTest, IteratorSeesResolvedView) {
  DbOptions options;
  options.merge_operator = MakeInt64AddOperator();
  auto db = OpenDb(options);
  ASSERT_TRUE(db->Put("a", "1").ok());
  ASSERT_TRUE(db->Put("b", "x").ok());
  ASSERT_TRUE(db->Delete("b").ok());
  ASSERT_TRUE(db->Merge("c", "2").ok());
  ASSERT_TRUE(db->Merge("c", "3").ok());
  ASSERT_TRUE(db->Flush().ok());
  ASSERT_TRUE(db->Put("d", "4").ok());  // Memtable layer.

  std::vector<std::pair<std::string, std::string>> seen;
  for (auto it = db->NewIterator(); it.Valid(); it.Next()) {
    seen.emplace_back(it.key(), it.value());
  }
  ASSERT_EQ(seen.size(), 3u);
  EXPECT_EQ(seen[0], (std::pair<std::string, std::string>{"a", "1"}));
  EXPECT_EQ(seen[1], (std::pair<std::string, std::string>{"c", "5"}));
  EXPECT_EQ(seen[2], (std::pair<std::string, std::string>{"d", "4"}));
}

TEST_F(DbTest, IteratorSeek) {
  auto db = OpenDb();
  for (const char* k : {"a", "c", "e", "g"}) {
    ASSERT_TRUE(db->Put(k, "v").ok());
  }
  auto it = db->NewIterator();
  it.Seek("d");
  ASSERT_TRUE(it.Valid());
  EXPECT_EQ(it.key(), "e");
  it.Next();
  ASSERT_TRUE(it.Valid());
  EXPECT_EQ(it.key(), "g");
  it.Next();
  EXPECT_FALSE(it.Valid());
}

TEST_F(DbTest, IteratorRespectsSnapshot) {
  auto db = OpenDb();
  ASSERT_TRUE(db->Put("a", "old").ok());
  const DbSnapshot* snap = db->GetSnapshot();
  ASSERT_TRUE(db->Put("a", "new").ok());
  ASSERT_TRUE(db->Put("b", "post-snap").ok());
  auto it = db->NewIterator(snap);
  ASSERT_TRUE(it.Valid());
  EXPECT_EQ(it.key(), "a");
  EXPECT_EQ(it.value(), "old");
  it.Next();
  EXPECT_FALSE(it.Valid());  // "b" is invisible.
  db->ReleaseSnapshot(snap);
}

TEST_F(DbTest, BackupAndRestore) {
  auto db = OpenDb();
  for (int i = 0; i < 50; ++i) {
    ASSERT_TRUE(db->Put("k" + std::to_string(i), "v" + std::to_string(i)).ok());
  }
  ASSERT_TRUE(db->Delete("k7").ok());
  const std::string backup_dir = dir_ + "/backup";
  ASSERT_TRUE(db->CreateBackupToDir(backup_dir).ok());

  // More writes after the backup are not part of it.
  ASSERT_TRUE(db->Put("post-backup", "x").ok());

  const std::string restore_dir = dir_ + "/restored";
  ASSERT_TRUE(Db::RestoreBackupFromDir(backup_dir, restore_dir).ok());
  auto restored = Db::Open({}, restore_dir);
  ASSERT_TRUE(restored.ok());
  EXPECT_EQ(*(*restored)->Get("k3"), "v3");
  EXPECT_TRUE((*restored)->Get("k7").status().IsNotFound());
  EXPECT_TRUE((*restored)->Get("post-backup").status().IsNotFound());
}

TEST_F(DbTest, RestoreRefusesToClobber) {
  auto db = OpenDb();
  ASSERT_TRUE(db->Put("k", "v").ok());
  ASSERT_TRUE(db->CreateBackupToDir(dir_ + "/backup").ok());
  EXPECT_FALSE(Db::RestoreBackupFromDir(dir_ + "/backup", dir_ + "/db").ok());
}

// Property sweep: the DB must agree with a model std::map under random
// workloads of puts/deletes/merges with interleaved flush/compact/reopen.
struct WorkloadParams {
  uint64_t seed;
  int ops;
  int key_space;
  bool use_merge;
};

class DbPropertyTest : public ::testing::TestWithParam<WorkloadParams> {};

TEST_P(DbPropertyTest, MatchesModelMap) {
  const WorkloadParams p = GetParam();
  const std::string dir = MakeTempDir("lsmprop");
  DbOptions options;
  options.memtable_bytes = 2048;  // Force frequent flushes.
  options.l0_compaction_trigger = 3;
  if (p.use_merge) options.merge_operator = MakeInt64AddOperator();

  auto opened = Db::Open(options, dir + "/db");
  ASSERT_TRUE(opened.ok());
  std::unique_ptr<Db> db = std::move(opened).value();

  std::map<std::string, int64_t> model;
  Rng rng(p.seed);
  for (int i = 0; i < p.ops; ++i) {
    const std::string key = "k" + std::to_string(rng.Uniform(p.key_space));
    const double dice = rng.NextDouble();
    if (p.use_merge && dice < 0.5) {
      const int64_t delta = rng.UniformRange(-5, 5);
      ASSERT_TRUE(db->Merge(key, std::to_string(delta)).ok());
      model[key] += delta;  // Merge onto absent = identity 0.
    } else if (dice < 0.8) {
      const int64_t v = rng.UniformRange(0, 1000);
      ASSERT_TRUE(db->Put(key, std::to_string(v)).ok());
      model[key] = v;
    } else if (dice < 0.9) {
      ASSERT_TRUE(db->Delete(key).ok());
      model.erase(key);
    } else if (dice < 0.96) {
      ASSERT_TRUE(db->Flush().ok());
    } else {
      // Reopen: crash-free restart must preserve everything.
      db.reset();
      auto reopened = Db::Open(options, dir + "/db");
      ASSERT_TRUE(reopened.ok());
      db = std::move(reopened).value();
    }
  }

  // Point lookups agree.
  for (int k = 0; k < p.key_space; ++k) {
    const std::string key = "k" + std::to_string(k);
    auto got = db->Get(key);
    auto it = model.find(key);
    if (it == model.end()) {
      EXPECT_TRUE(got.status().IsNotFound()) << key;
    } else {
      ASSERT_TRUE(got.ok()) << key << ": " << got.status();
      EXPECT_EQ(*got, std::to_string(it->second)) << key;
    }
  }

  // Full scan agrees (order and content).
  std::vector<std::pair<std::string, std::string>> scanned;
  for (auto it = db->NewIterator(); it.Valid(); it.Next()) {
    scanned.emplace_back(it.key(), it.value());
  }
  ASSERT_EQ(scanned.size(), model.size());
  size_t i = 0;
  for (const auto& [k, v] : model) {
    EXPECT_EQ(scanned[i].first, k);
    EXPECT_EQ(scanned[i].second, std::to_string(v));
    ++i;
  }

  // And after a full compaction, still agrees.
  ASSERT_TRUE(db->CompactAll().ok());
  for (const auto& [k, v] : model) {
    auto got = db->Get(k);
    ASSERT_TRUE(got.ok()) << k;
    EXPECT_EQ(*got, std::to_string(v));
  }
  db.reset();
  ASSERT_TRUE(RemoveAll(dir).ok());
}

INSTANTIATE_TEST_SUITE_P(
    Workloads, DbPropertyTest,
    ::testing::Values(WorkloadParams{1, 500, 20, false},
                      WorkloadParams{2, 500, 20, true},
                      WorkloadParams{3, 2000, 100, true},
                      WorkloadParams{4, 2000, 5, true},
                      WorkloadParams{5, 1000, 50, false},
                      WorkloadParams{6, 3000, 200, true}));

}  // namespace
}  // namespace fbstream::lsm
