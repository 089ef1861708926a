#include "storage/lsm/table_cache.h"

#include <algorithm>
#include <cstdio>

#include "common/metrics.h"

namespace fbstream::lsm {

std::string SstFilePath(const std::string& dir, uint64_t number) {
  char buf[32];
  snprintf(buf, sizeof(buf), "/%06llu.sst",
           static_cast<unsigned long long>(number));
  return dir + buf;
}

TableCache::TableCache(std::string dir, std::shared_ptr<BlockCache> block_cache,
                       size_t capacity)
    : dir_(std::move(dir)),
      block_cache_(std::move(block_cache)),
      per_shard_capacity_(std::max<size_t>(1, capacity / kShards)) {}

StatusOr<std::shared_ptr<SstReader>> TableCache::Acquire(uint64_t number) {
  static Counter* hit_count =
      MetricsRegistry::Global()->GetCounter("lsm.table_cache.hit");
  static Counter* miss_count =
      MetricsRegistry::Global()->GetCounter("lsm.table_cache.miss");
  static Counter* evict_count =
      MetricsRegistry::Global()->GetCounter("lsm.table_cache.evict");

  Shard& shard = ShardFor(number);
  {
    std::lock_guard<std::mutex> lock(shard.mu);
    auto it = shard.map.find(number);
    if (it != shard.map.end()) {
      shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
      hit_count->Add();
      return it->second->second;
    }
  }

  // Open outside the lock: a cold open is real I/O and must not serialize
  // hot hits on the same shard.
  miss_count->Add();
  FBSTREAM_ASSIGN_OR_RETURN(std::shared_ptr<SstReader> reader,
                            SstReader::Open(SstFilePath(dir_, number),
                                            block_cache_));
  std::lock_guard<std::mutex> lock(shard.mu);
  auto it = shard.map.find(number);
  if (it != shard.map.end()) {
    // A racing opener won; use its handle and drop ours.
    shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
    return it->second->second;
  }
  shard.lru.emplace_front(number, reader);
  shard.map[number] = shard.lru.begin();
  while (shard.lru.size() > per_shard_capacity_) {
    shard.map.erase(shard.lru.back().first);
    shard.lru.pop_back();
    evict_count->Add();
  }
  return reader;
}

void TableCache::Evict(uint64_t number) {
  Shard& shard = ShardFor(number);
  std::lock_guard<std::mutex> lock(shard.mu);
  auto it = shard.map.find(number);
  if (it == shard.map.end()) return;
  shard.lru.erase(it->second);
  shard.map.erase(it);
}

}  // namespace fbstream::lsm
