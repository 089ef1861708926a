// Tests for the leveled compaction engine: multi-level read correctness
// against a golden flat store, L0-trigger and level-target scheduling,
// compaction rate limiting (priority, cancel, L0 preemption), MANIFEST
// durability (torn tails, corrupt records, unknown formats), and
// kill-mid-compaction crash recovery.

#include <gtest/gtest.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <functional>
#include <optional>
#include <thread>
#include <utility>
#include <vector>

#include "common/fault.h"
#include "common/fs.h"
#include "common/rng.h"
#include "common/serde.h"
#include "storage/lsm/compaction.h"
#include "storage/lsm/db.h"
#include "storage/lsm/sstable.h"
#include "storage/lsm/version_edit.h"

namespace fbstream::lsm {
namespace {

// Options small enough that a few hundred writes produce real multi-level
// shape: 2 KiB memtables, L0 compacts at 2 files, L1 holds 8 KiB, each
// deeper level 2x, and the MANIFEST rotates after 4 KiB of edits.
DbOptions LeveledOptions() {
  DbOptions options;
  options.memtable_bytes = 2048;
  options.l0_compaction_trigger = 2;
  options.level1_max_bytes = 8192;
  options.level_size_multiplier = 2.0;
  options.target_sst_bytes = 4096;
  options.manifest_rotate_bytes = 4096;
  return options;
}

std::string Key(uint64_t i) {
  char buf[16];
  snprintf(buf, sizeof(buf), "key%04llu", static_cast<unsigned long long>(i));
  return buf;
}

std::vector<std::pair<std::string, std::string>> Dump(
    const Db& db, const DbSnapshot* snapshot = nullptr) {
  std::vector<std::pair<std::string, std::string>> out;
  auto it = db.NewIterator(snapshot);
  EXPECT_TRUE(it.status().ok()) << it.status();
  for (; it.Valid(); it.Next()) out.emplace_back(it.key(), it.value());
  return out;
}

class LeveledDbTest : public ::testing::Test {
 protected:
  void SetUp() override { dir_ = MakeTempDir("lsmleveled"); }
  void TearDown() override {
    FaultRegistry::Global()->Reset();
    ASSERT_TRUE(RemoveAll(dir_).ok());
  }

  std::unique_ptr<Db> OpenDb(const DbOptions& options,
                             const std::string& name) {
    auto db = Db::Open(options, dir_ + "/" + name);
    EXPECT_TRUE(db.ok()) << db.status();
    return std::move(db).value();
  }

  std::string dir_;
};

// The leveled store and a golden flat store (everything resident in one
// memtable) receive the identical op sequence, so sequence numbers line up
// write for write — iterators and snapshot iterators must then agree byte
// for byte no matter how many levels the data was shuffled through.
TEST_F(LeveledDbTest, MatchesGoldenFlatStoreByteForByte) {
  auto leveled = OpenDb(LeveledOptions(), "leveled");
  auto golden = OpenDb(DbOptions{}, "golden");

  Rng rng(20260809);
  const DbSnapshot* leveled_snap = nullptr;
  const DbSnapshot* golden_snap = nullptr;
  for (int i = 0; i < 1200; ++i) {
    const std::string key = Key(rng.Uniform(300));
    if (rng.Bernoulli(0.2)) {
      ASSERT_TRUE(leveled->Delete(key).ok());
      ASSERT_TRUE(golden->Delete(key).ok());
    } else {
      const std::string value = "v" + std::to_string(i);
      ASSERT_TRUE(leveled->Put(key, value).ok());
      ASSERT_TRUE(golden->Put(key, value).ok());
    }
    if (i == 600) {
      leveled_snap = leveled->GetSnapshot();
      golden_snap = golden->GetSnapshot();
      ASSERT_EQ(leveled_snap->sequence(), golden_snap->sequence());
    }
  }
  ASSERT_TRUE(leveled->Flush().ok());

  // The workload must actually have spilled past L1 for this test to mean
  // anything.
  EXPECT_GE(leveled->GetStats().num_levels, 2);

  EXPECT_EQ(Dump(*leveled), Dump(*golden));
  EXPECT_EQ(Dump(*leveled, leveled_snap), Dump(*golden, golden_snap));

  // A major compaction must not change what any reader sees.
  ASSERT_TRUE(leveled->CompactAll().ok());
  EXPECT_EQ(Dump(*leveled), Dump(*golden));
  EXPECT_EQ(Dump(*leveled, leveled_snap), Dump(*golden, golden_snap));
  leveled->ReleaseSnapshot(leveled_snap);
  golden->ReleaseSnapshot(golden_snap);

  // And recovery (MANIFEST + WAL replay) must reproduce the same view.
  leveled.reset();
  leveled = OpenDb(LeveledOptions(), "leveled");
  EXPECT_EQ(Dump(*leveled), Dump(*golden));
}

TEST_F(LeveledDbTest, L0TriggerAndLevelTargetsRespected) {
  const DbOptions options = LeveledOptions();
  auto db = OpenDb(options, "db");
  for (uint64_t i = 0; i < 600; ++i) {
    ASSERT_TRUE(db->Put(Key(i), std::string(100, 'x')).ok());
  }
  ASSERT_TRUE(db->Flush().ok());  // Drains all pending maintenance.

  const Db::Stats stats = db->GetStats();
  // Memtable backpressure is expected with 2 KiB memtables; L0 reaching the
  // stall limit is not — L0-first picking keeps it drained.
  EXPECT_EQ(stats.write_stalls_l0, 0u);
  // ~60 KiB of payload against an 8 KiB L1 (x2 per level) has to cascade.
  EXPECT_GE(stats.num_levels, 3);
  // Maintenance is drained, so L0 is below its trigger and every level with
  // somewhere to push to is within its byte target.
  EXPECT_LT(stats.levels[0].files, options.l0_compaction_trigger);
  for (int level = 1; level < kNumLevels - 1; ++level) {
    EXPECT_LE(stats.levels[level].bytes,
              MaxBytesForLevel(level, options.level1_max_bytes,
                               options.level_size_multiplier))
        << "level " << level;
  }
  for (uint64_t i = 0; i < 600; ++i) {
    ASSERT_TRUE(db->Get(Key(i)).ok()) << Key(i);
  }
}

TEST(RateLimiterTest, HighPriorityNeverWaits) {
  RateLimiter limiter(1024);  // 1 KiB/s: any wait would be seconds long.
  const auto start = std::chrono::steady_clock::now();
  for (int i = 0; i < 4; ++i) {
    limiter.Request(1 << 20, /*high_priority=*/true, nullptr);
  }
  const auto elapsed = std::chrono::steady_clock::now() - start;
  EXPECT_LT(elapsed, std::chrono::seconds(2));
}

TEST(RateLimiterTest, CancelAndPreemptUnblockLowPriority) {
  for (const bool use_cancel : {true, false}) {
    RateLimiter limiter(1024);
    // Push the bucket deep into debt; a low-priority request now owes
    // ~1000 seconds.
    limiter.Request(1 << 20, /*high_priority=*/true, nullptr);
    std::atomic<bool> flag{false};
    const auto start = std::chrono::steady_clock::now();
    std::thread waiter([&] {
      if (use_cancel) {
        limiter.Request(4096, /*high_priority=*/false, &flag);
      } else {
        limiter.Request(4096, /*high_priority=*/false, nullptr, &flag);
      }
    });
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    flag.store(true);
    waiter.join();
    const auto elapsed = std::chrono::steady_clock::now() - start;
    EXPECT_LT(elapsed, std::chrono::seconds(10));
  }
}

// Regression: outputs must roll only at user-key boundaries. A mid-chain
// roll would leave two same-level files sharing a user key, and
// Version::Get probes exactly one file per level — snapshot reads and merge
// resolution would silently miss the older versions in the sibling file.
TEST(RunCompactionTest, OutputRollsOnlyAtUserKeyBoundaries) {
  const std::string dir = MakeTempDir("lsmroll");
  const std::string value(1000, 'v');
  SstWriter writer;
  SequenceNumber seq = 1000;
  for (uint64_t k = 0; k < 4; ++k) {
    for (int v = 0; v < 8; ++v) {
      writer.Add(Entry{InternalKey{Key(k), seq--, EntryType::kPut}, value});
    }
  }
  ASSERT_TRUE(writer.Finish(SstFilePath(dir, 1)).ok());
  const uint64_t size = *FileSize(SstFilePath(dir, 1));

  TableCache cache(dir, BlockCache::Default(), 8);
  CompactionOptions options;
  // Each 8-entry chain is ~8 KiB against a 2 KiB target: every chain wants
  // to roll mid-way.
  options.target_sst_bytes = 2048;
  options.snapshots_live = true;  // Every version must be rewritten.
  uint64_t next = 10;
  const auto result =
      RunCompaction(cache, 1, {FileMeta{1, size, Key(0), Key(3)}}, options,
                    [&next] { return next++; });
  ASSERT_TRUE(result.ok()) << result.status();
  ASSERT_GE(result->outputs.size(), 2u);  // It did roll...
  std::vector<VersionEdit::NewFile> outputs = result->outputs;
  std::sort(outputs.begin(), outputs.end(),
            [](const VersionEdit::NewFile& a, const VersionEdit::NewFile& b) {
              return a.smallest < b.smallest;
            });
  for (size_t i = 1; i < outputs.size(); ++i) {
    // ...but never inside a chain: same-level ranges stay key-disjoint.
    EXPECT_LT(outputs[i - 1].largest, outputs[i].smallest);
  }
  ASSERT_TRUE(RemoveAll(dir).ok());
}

// Starvation regression: with the compaction budget throttled far below the
// ingest rate, deep merges sleep out rate-limiter debt — but flushes and
// L0->L1 bypass the throttle and throttled merges yield to L0 pressure, so
// writes and reads keep progressing and L0 never reaches the stall limit.
TEST_F(LeveledDbTest, ThrottledDeepMergesDoNotStarveWritesOrReads) {
  DbOptions options = LeveledOptions();
  options.level1_max_bytes = 4096;
  options.compaction_rate_bytes_per_sec = 4096;  // 4 KiB/s: pure debt.
  auto db = OpenDb(options, "db");
  for (uint64_t i = 0; i < 400; ++i) {
    ASSERT_TRUE(db->Put(Key(i % 97), std::string(60, 'y')).ok());
    if (i % 8 == 0) {
      ASSERT_TRUE(db->Get(Key(i % 97)).ok());
    }
  }
  for (uint64_t i = 0; i < 97; ++i) {
    ASSERT_TRUE(db->Get(Key(i)).ok()) << Key(i);
  }
  EXPECT_EQ(db->GetStats().write_stalls_l0, 0u);
  // Teardown cancels any merge still sleeping on the limiter.
  db.reset();
  auto reopened = OpenDb(options, "db");
  for (uint64_t i = 0; i < 97; ++i) {
    ASSERT_TRUE(reopened->Get(Key(i)).ok()) << Key(i);
  }
}

// A crash mid-append (partial fwrite or page write) can tear the MANIFEST's
// final record even though the fsynced prefix is consistent. That edit was
// never acknowledged durable — its WAL is only retired after the append
// returns OK — so recovery drops it, serves the prefix, and rewrites the
// log so new appends don't land after the torn bytes.
TEST_F(LeveledDbTest, TornManifestTailRecoversFsyncedPrefix) {
  const std::string db_dir = dir_ + "/db";
  {
    auto db = OpenDb(DbOptions{}, "db");
    ASSERT_TRUE(db->Put("a", "1").ok());
    ASSERT_TRUE(db->Flush().ok());
    ASSERT_TRUE(db->Put("b", "2").ok());
    ASSERT_TRUE(db->Flush().ok());  // Second edit appends a record.
  }
  auto contents = ReadFileToString(db_dir + "/MANIFEST");
  ASSERT_TRUE(contents.ok());
  ASSERT_GT(contents->size(), 3u);
  ASSERT_TRUE(
      WriteFileAtomic(db_dir + "/MANIFEST",
                      contents->substr(0, contents->size() - 3))
          .ok());

  // The torn record (the second flush's edit) is gone; the prefix serves.
  auto db = OpenDb(DbOptions{}, "db");
  EXPECT_EQ(*db->Get("a"), "1");
  EXPECT_EQ(db->Get("b").status().code(), StatusCode::kNotFound)
      << db->Get("b").status();

  // Recovery rewrote the log back to a record boundary: new edits append
  // cleanly and the result survives another recovery.
  ASSERT_TRUE(db->Put("c", "3").ok());
  ASSERT_TRUE(db->Flush().ok());
  db.reset();
  db = OpenDb(DbOptions{}, "db");
  EXPECT_EQ(*db->Get("a"), "1");
  EXPECT_EQ(*db->Get("c"), "3");
}

// Damage in the log's *interior* — acknowledged records follow it — means
// the surviving prefix is not the full state: recovery must fail loudly,
// not serve a hole.
TEST_F(LeveledDbTest, CorruptManifestInteriorFailsLoudly) {
  const std::string db_dir = dir_ + "/db";
  {
    auto db = OpenDb(DbOptions{}, "db");
    ASSERT_TRUE(db->Put("a", "1").ok());
    ASSERT_TRUE(db->Flush().ok());
    ASSERT_TRUE(db->Put("b", "2").ok());
    ASSERT_TRUE(db->Flush().ok());  // Record 2 makes record 1 interior.
  }
  auto contents = ReadFileToString(db_dir + "/MANIFEST");
  ASSERT_TRUE(contents.ok());
  std::string mangled = *contents;
  // Offset 12 sits inside record 1's fixed64 checksum (8-byte magic,
  // 1-byte varint length, checksum at 9..16): a guaranteed mismatch on a
  // record that is not the last one.
  ASSERT_GT(mangled.size(), 17u);
  mangled[12] = static_cast<char>(mangled[12] ^ 0xff);
  ASSERT_TRUE(WriteFileAtomic(db_dir + "/MANIFEST", mangled).ok());
  const auto reopened = Db::Open(DbOptions{}, db_dir);
  ASSERT_FALSE(reopened.ok());
  EXPECT_EQ(reopened.status().code(), StatusCode::kCorruption)
      << reopened.status();
}

// A checksum failure on the log's only record leaves nothing to recover —
// indistinguishable from garbage, so still a loud Corruption. So is a
// MANIFEST in any other format, e.g. the retired single-blob layout
// (varint last_sequence, next_file_number, then L0 and L1 file-number
// lists, no magic): formats are never migrated in place.
TEST_F(LeveledDbTest, CorruptManifestRecordFailsLoudly) {
  const std::string db_dir = dir_ + "/db";
  {
    auto db = OpenDb(DbOptions{}, "db");
    ASSERT_TRUE(db->Put("a", "1").ok());
    ASSERT_TRUE(db->Flush().ok());
  }
  auto contents = ReadFileToString(db_dir + "/MANIFEST");
  ASSERT_TRUE(contents.ok());
  std::string mangled = *contents;
  mangled.back() = static_cast<char>(mangled.back() ^ 0xff);

  std::string blob;
  PutVarint64(&blob, 3);  // last_sequence
  PutVarint64(&blob, 6);  // next_file_number
  PutVarint64(&blob, 1);  // L0 count
  PutVarint64(&blob, 5);  //   file 5
  PutVarint64(&blob, 0);  // L1 count

  for (const std::string& manifest : {mangled, blob}) {
    ASSERT_TRUE(WriteFileAtomic(db_dir + "/MANIFEST", manifest).ok());
    const auto reopened = Db::Open(DbOptions{}, db_dir);
    ASSERT_FALSE(reopened.ok());
    EXPECT_EQ(reopened.status().code(), StatusCode::kCorruption)
        << reopened.status();
  }
  // The blob is rejected for its format, before any file is consulted.
  EXPECT_NE(Db::Open(DbOptions{}, db_dir).status().message().find("bad magic"),
            std::string::npos);
}

// A forked child that runs `body` against a fresh Db at `db_dir` with a
// kill armed at hit `hit` of `site`. `body` reports over a pipe through
// `send`: kAck after each write the Db acknowledged, so the parent knows
// exactly which writes it may hold the reopened store to, however far the
// child got before the kill (the kill fires on a background thread, so it
// can land anywhere in the child's write sequence); kRotated right after
// the write that rotated the memtable, before its ack.
constexpr char kAck = 'a';
constexpr char kRotated = 'r';

struct KilledChild {
  int code = -1;
  size_t acked = 0;
  // Index of the first write that went to the rotated-in memtable, if the
  // child reported one.
  std::optional<size_t> rotated_at;
};

KilledChild RunKilledChild(
    const std::string& db_dir, const std::string& site, uint64_t hit,
    const std::function<int(Db*, const std::function<void(char)>&)>& body) {
  KilledChild result;
  int fds[2];
  EXPECT_EQ(::pipe(fds), 0);
  const pid_t pid = ::fork();
  EXPECT_GE(pid, 0);
  if (pid == 0) {
    ::close(fds[0]);
    FaultRegistry::Global()->ArmKillAt(site, hit);
    auto child = Db::Open(LeveledOptions(), db_dir);
    if (!child.ok()) ::_exit(2);
    const auto send = [fd = fds[1]](char c) {
      if (::write(fd, &c, 1) != 1) ::_exit(7);
    };
    ::_exit(body(child->get(), send));
  }
  ::close(fds[1]);
  char buf[256];
  for (;;) {
    const ssize_t n = ::read(fds[0], buf, sizeof(buf));
    if (n <= 0) break;
    for (ssize_t i = 0; i < n; ++i) {
      if (buf[i] == kAck) {
        ++result.acked;
      } else if (buf[i] == kRotated && !result.rotated_at) {
        result.rotated_at = result.acked;
      }
    }
  }
  ::close(fds[0]);
  int wstatus = 0;
  EXPECT_EQ(::waitpid(pid, &wstatus, 0), pid);
  EXPECT_TRUE(WIFEXITED(wstatus));
  result.code = WEXITSTATUS(wstatus);
  return result;
}

// Kill the process at the compaction job itself and at both MANIFEST
// durability points, across several hit indices. Whatever the kill left
// behind — an installed edit, an orphaned output SST, a half-appended
// record the atomic snapshot rewrite never exposed — reopening must serve
// every acknowledged write.
TEST_F(LeveledDbTest, KillMidCompactionRecoversCleanly) {
  const char* const kSites[] = {"lsm.compaction", "lsm.manifest.append",
                                "lsm.manifest.sync"};
  constexpr uint64_t kKeys = 120;
  const std::string db_dir = dir_ + "/db";
  int kills = 0;
  for (const char* site : kSites) {
    for (uint64_t hit = 0; hit < 3; ++hit) {
      ASSERT_TRUE(RemoveAll(db_dir).ok());
      const KilledChild child = RunKilledChild(
          db_dir, site, hit, [](Db* db, const std::function<void(char)>& send) {
            for (uint64_t i = 0; i < kKeys; ++i) {
              if (!db->Put(Key(i), "first" + std::to_string(i)).ok()) return 3;
              send(kAck);
            }
            if (!db->Flush().ok()) return 4;
            for (uint64_t i = 0; i < kKeys; ++i) {
              if (!db->Put(Key(i), "second" + std::to_string(i)).ok()) {
                return 5;
              }
              send(kAck);
            }
            if (!db->CompactAll().ok()) return 6;
            return 0;
          });
      const int code = child.code;
      ASSERT_TRUE(code == 0 || code == FaultRegistry::kKillExitCode)
          << site << "#" << hit << " exited " << code;
      if (code == FaultRegistry::kKillExitCode) ++kills;
      if (code == 0) {
        ASSERT_EQ(child.acked, 2 * kKeys);
      }
      const uint64_t first_acked = std::min<uint64_t>(child.acked, kKeys);
      const uint64_t second_acked =
          child.acked > kKeys ? child.acked - kKeys : 0;

      // Every write the child made before dying was acknowledged (WAL or
      // SST+MANIFEST), so all of them must survive: an acked second write
      // reads "second", an acked first write at least "first". A key the
      // child never reached may be missing, or hold the write in flight
      // at the kill.
      auto db = Db::Open(LeveledOptions(), db_dir);
      ASSERT_TRUE(db.ok()) << site << "#" << hit << ": " << db.status();
      for (uint64_t i = 0; i < kKeys; ++i) {
        auto got = (*db)->Get(Key(i));
        const std::string first = "first" + std::to_string(i);
        const std::string second = "second" + std::to_string(i);
        if (i < second_acked) {
          ASSERT_TRUE(got.ok()) << site << "#" << hit << " " << Key(i);
          EXPECT_EQ(*got, second) << site << "#" << hit;
        } else if (i < first_acked) {
          ASSERT_TRUE(got.ok()) << site << "#" << hit << " " << Key(i)
                                << " (acked " << child.acked << ")";
          EXPECT_TRUE(*got == first || *got == second)
              << site << "#" << hit << " " << Key(i) << " => " << *got;
        } else if (got.ok()) {
          EXPECT_EQ(*got, first) << site << "#" << hit << " " << Key(i);
        }
      }
      // The reopened store keeps working past the crash.
      ASSERT_TRUE((*db)->Put("post", "crash").ok());
      ASSERT_TRUE((*db)->CompactAll().ok());
      EXPECT_EQ(*(*db)->Get("post"), "crash");
    }
  }
  // The loop is only meaningful if some children actually died at a site.
  EXPECT_GT(kills, 0);
}

// The ordering a slow writer (a sanitizer build) hits in the test above:
// the first memtable rotates mid-round, its flush dies at the first
// MANIFEST write, and the writer has not finished the round. Here the
// child stops mid-round on purpose and waits for the kill. Both WALs — the
// rotated memtable's, whose SST never reached the MANIFEST, and the new
// active one holding the writes made after the rotation — must replay, and
// the writes the child never made must not appear.
TEST_F(LeveledDbTest, KillAtFirstManifestWriteMidRoundKeepsAckedWrites) {
  // 100 keys overfill one 2 KiB memtable but not two: exactly one rotation.
  constexpr uint64_t kWritten = 100;
  constexpr uint64_t kRound = 120;
  // The flush races the writer, so a kill can land before any write past
  // the rotation is acked; such a run checks only the rotated WAL. Retry
  // until a run covers both WALs.
  constexpr int kAttempts = 5;
  const std::string db_dir = dir_ + "/db";
  for (const char* site : {"lsm.manifest.append", "lsm.manifest.sync"}) {
    bool covered_both_wals = false;
    for (int attempt = 0; attempt < kAttempts && !covered_both_wals;
         ++attempt) {
      ASSERT_TRUE(RemoveAll(db_dir).ok());
      const KilledChild child = RunKilledChild(
          db_dir, site, 0, [](Db* db, const std::function<void(char)>& send) {
            bool rotated = false;
            for (uint64_t i = 0; i < kWritten; ++i) {
              if (!db->Put(Key(i), "first" + std::to_string(i)).ok()) return 3;
              // A Put that finds the memtable full seals it and lands in
              // the fresh one, which then holds this write alone.
              if (!rotated && i > 0 && db->GetStats().memtable_entries == 1) {
                rotated = true;
                send(kRotated);
              }
              send(kAck);
            }
            // The flush of the rotated memtable dies at the site; never
            // finish the round.
            for (int i = 0; i < 1000; ++i) {
              std::this_thread::sleep_for(std::chrono::milliseconds(10));
            }
            return 8;
          });
      ASSERT_EQ(child.code, FaultRegistry::kKillExitCode) << site;
      ASSERT_TRUE(child.rotated_at.has_value())
          << site << ": killed at a MANIFEST write with no rotation reported";
      auto db = Db::Open(LeveledOptions(), db_dir);
      ASSERT_TRUE(db.ok()) << site << ": " << db.status();
      for (uint64_t i = 0; i < kRound; ++i) {
        auto got = (*db)->Get(Key(i));
        if (i < child.acked) {
          ASSERT_TRUE(got.ok()) << site << " lost acked " << Key(i)
                                << " (rotation at " << *child.rotated_at
                                << ", acked " << child.acked << ")";
          EXPECT_EQ(*got, "first" + std::to_string(i)) << site;
        } else if (i > child.acked) {
          EXPECT_FALSE(got.ok()) << site << " " << Key(i) << " was never put";
        }
      }
      covered_both_wals = child.acked > *child.rotated_at;
    }
    EXPECT_TRUE(covered_both_wals)
        << site << ": in " << kAttempts << " runs the kill always came "
        << "before a write past the rotation was acked";
  }
}

}  // namespace
}  // namespace fbstream::lsm
