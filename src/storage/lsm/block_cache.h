#ifndef FBSTREAM_STORAGE_LSM_BLOCK_CACHE_H_
#define FBSTREAM_STORAGE_LSM_BLOCK_CACHE_H_

#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "storage/lsm/internal_key.h"

namespace fbstream::lsm {

// One decoded SST data block, shared between the cache and any readers or
// iterators currently pinning it. Immutable once built.
struct SstBlock {
  std::vector<Entry> entries;  // Internal-key order.
  size_t charge = 0;           // Approximate decoded footprint in bytes.
};

// Process-wide LRU cache of decoded SST blocks, keyed by (reader id, block
// offset). Readers get a process-unique id at open time rather than reusing
// the per-DB file number, which collides across Db instances (every DB
// numbers its files from 1). Capacity-bounded by decoded bytes; eviction
// drops the cache's reference, but pinned blocks stay alive until the last
// iterator releases them.
//
// Thread-safe. Hit/miss/evict counts and the resident-bytes gauge live only
// in the global MetricsRegistry (lsm.block_cache.*), the one store that
// benches and telemetry read.
class BlockCache {
 public:
  explicit BlockCache(size_t capacity_bytes);

  // Shared default instance (64 MiB) used when DbOptions doesn't supply one;
  // this is what makes the cache capacity a process-level budget across all
  // shard-local Dbs on a node.
  static const std::shared_ptr<BlockCache>& Default();

  // Allocates a process-unique reader id for cache keying.
  static uint64_t NextFileId();

  std::shared_ptr<const SstBlock> Lookup(uint64_t file_id, uint64_t offset);
  void Insert(uint64_t file_id, uint64_t offset,
              std::shared_ptr<const SstBlock> block);
  // Drops every cached block belonging to `file_id` (reader teardown).
  void EraseFile(uint64_t file_id);

  // Resident contents of this instance.
  struct Stats {
    size_t bytes = 0;
    size_t blocks = 0;
  };
  Stats GetStats() const;

  size_t capacity_bytes() const { return capacity_bytes_; }

 private:
  struct Key {
    uint64_t file_id = 0;
    uint64_t offset = 0;
    bool operator==(const Key& o) const {
      return file_id == o.file_id && offset == o.offset;
    }
  };
  struct KeyHash {
    size_t operator()(const Key& k) const {
      // Offsets are block-aligned-ish and file ids small; spread both.
      return static_cast<size_t>(k.file_id * 0x9e3779b97f4a7c15ULL ^
                                 k.offset * 0xc2b2ae3d27d4eb4fULL);
    }
  };
  struct Slot {
    Key key;
    std::shared_ptr<const SstBlock> block;
  };

  void EvictIfOverLocked();

  const size_t capacity_bytes_;

  mutable std::mutex mu_;
  std::list<Slot> lru_;  // Front = most recently used.
  std::unordered_map<Key, std::list<Slot>::iterator, KeyHash> map_;
  size_t bytes_ = 0;
};

}  // namespace fbstream::lsm

#endif  // FBSTREAM_STORAGE_LSM_BLOCK_CACHE_H_
