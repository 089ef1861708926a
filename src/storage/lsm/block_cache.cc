#include "storage/lsm/block_cache.h"

#include <atomic>

#include "common/metrics.h"

namespace fbstream::lsm {

namespace {
// Cache metrics are process-global, like the rest of the lsm.* family: the
// interesting signal is the node-wide hit rate across all shard-local Dbs.
struct CacheMetrics {
  Counter* hits = MetricsRegistry::Global()->GetCounter("lsm.block_cache.hit");
  Counter* misses =
      MetricsRegistry::Global()->GetCounter("lsm.block_cache.miss");
  Counter* evictions =
      MetricsRegistry::Global()->GetCounter("lsm.block_cache.evict");
  Gauge* bytes = MetricsRegistry::Global()->GetGauge("lsm.block_cache.bytes");
};

CacheMetrics* Metrics() {
  static CacheMetrics* m = new CacheMetrics();
  return m;
}
}  // namespace

BlockCache::BlockCache(size_t capacity_bytes)
    : capacity_bytes_(capacity_bytes) {}

const std::shared_ptr<BlockCache>& BlockCache::Default() {
  static const auto* cache =
      new std::shared_ptr<BlockCache>(std::make_shared<BlockCache>(64u << 20));
  return *cache;
}

uint64_t BlockCache::NextFileId() {
  static std::atomic<uint64_t> next{1};
  return next.fetch_add(1, std::memory_order_relaxed);
}

std::shared_ptr<const SstBlock> BlockCache::Lookup(uint64_t file_id,
                                                   uint64_t offset) {
  const Key key{file_id, offset};
  std::lock_guard<std::mutex> lock(mu_);
  auto it = map_.find(key);
  if (it == map_.end()) {
    Metrics()->misses->Add();
    return nullptr;
  }
  lru_.splice(lru_.begin(), lru_, it->second);  // Mark most recently used.
  Metrics()->hits->Add();
  return it->second->block;
}

void BlockCache::Insert(uint64_t file_id, uint64_t offset,
                        std::shared_ptr<const SstBlock> block) {
  if (block == nullptr) return;
  const Key key{file_id, offset};
  const size_t charge = block->charge;
  std::lock_guard<std::mutex> lock(mu_);
  auto it = map_.find(key);
  if (it != map_.end()) {
    // Racing loaders decoded the same block; keep the resident copy.
    lru_.splice(lru_.begin(), lru_, it->second);
    return;
  }
  lru_.push_front(Slot{key, std::move(block)});
  map_.emplace(key, lru_.begin());
  bytes_ += charge;
  EvictIfOverLocked();
  Metrics()->bytes->Set(static_cast<int64_t>(bytes_));
}

void BlockCache::EvictIfOverLocked() {
  while (bytes_ > capacity_bytes_ && !lru_.empty()) {
    const Slot& victim = lru_.back();
    bytes_ -= victim.block->charge;
    map_.erase(victim.key);
    lru_.pop_back();
    Metrics()->evictions->Add();
  }
}

void BlockCache::EraseFile(uint64_t file_id) {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto it = lru_.begin(); it != lru_.end();) {
    if (it->key.file_id == file_id) {
      bytes_ -= it->block->charge;
      map_.erase(it->key);
      it = lru_.erase(it);
    } else {
      ++it;
    }
  }
  Metrics()->bytes->Set(static_cast<int64_t>(bytes_));
}

BlockCache::Stats BlockCache::GetStats() const {
  std::lock_guard<std::mutex> lock(mu_);
  Stats stats;
  stats.bytes = bytes_;
  stats.blocks = lru_.size();
  return stats;
}

}  // namespace fbstream::lsm
