#ifndef FBSTREAM_STORAGE_LSM_TABLE_CACHE_H_
#define FBSTREAM_STORAGE_LSM_TABLE_CACHE_H_

#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>

#include "common/status.h"
#include "storage/lsm/block_cache.h"
#include "storage/lsm/sstable.h"

namespace fbstream::lsm {

// Per-Db LRU cache of open SST handles (fd + footer + index + bloom),
// keyed by file number, sitting in front of the shared BlockCache: the
// table cache bounds open *files* while the block cache bounds decoded
// *bytes*. Leveled reads resolve every candidate file through Acquire(), so
// a lookup never pays an open(2)+footer decode for a warm table, and a DB
// spanning many levels doesn't pin a descriptor per live file forever.
//
// Thread-safe; locks are sharded by file number so concurrent point reads
// on different files don't serialize. On a miss the open runs outside the
// shard lock (two racing openers both succeed; one handle wins the cache
// slot, the loser's is dropped when its caller releases it). Evicted
// handles stay alive for any caller still holding the shared_ptr — exactly
// like blocks evicted from the BlockCache — so eviction (or deletion of a
// compacted-away file) never invalidates an in-flight read or iterator.
// Hit/miss/evict counts live only in the global MetricsRegistry
// (lsm.table_cache.*).
class TableCache {
 public:
  // `capacity` caps cached open handles across all shards (min 1/shard).
  TableCache(std::string dir, std::shared_ptr<BlockCache> block_cache,
             size_t capacity);

  // Returns the open reader for `number`, opening (and caching) it on miss.
  StatusOr<std::shared_ptr<SstReader>> Acquire(uint64_t number);

  // Drops the cached handle for a deleted file. In-flight holders keep the
  // unlinked file readable until they drop their reference.
  void Evict(uint64_t number);

  const std::string& dir() const { return dir_; }

 private:
  static constexpr size_t kShards = 8;

  struct Shard {
    std::mutex mu;
    // Front = most recently used.
    std::list<std::pair<uint64_t, std::shared_ptr<SstReader>>> lru;
    std::unordered_map<
        uint64_t,
        std::list<std::pair<uint64_t, std::shared_ptr<SstReader>>>::iterator>
        map;
  };

  Shard& ShardFor(uint64_t number) { return shards_[number % kShards]; }

  const std::string dir_;
  const std::shared_ptr<BlockCache> block_cache_;
  const size_t per_shard_capacity_;
  Shard shards_[kShards];
};

// "<dir>/NNNNNN.sst" — the canonical SST path for a file number.
std::string SstFilePath(const std::string& dir, uint64_t number);

}  // namespace fbstream::lsm

#endif  // FBSTREAM_STORAGE_LSM_TABLE_CACHE_H_
