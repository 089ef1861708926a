#ifndef FBSTREAM_STORAGE_LSM_SSTABLE_H_
#define FBSTREAM_STORAGE_LSM_SSTABLE_H_

#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "storage/lsm/block_cache.h"
#include "storage/lsm/bloom.h"
#include "storage/lsm/internal_key.h"

namespace fbstream::lsm {

// Immutable sorted table file, block-based layout:
//   data:   ~block_bytes-sized blocks of entries in internal-key order
//           (user_key, sequence, type, value; all length/varint coded).
//           Blocks are cut only at user-key boundaries, so one key's whole
//           version chain lives in a single block.
//   index:  one entry per block: first user_key, offset, size
//   meta:   smallest/largest user key, max sequence, entry count, and a
//           bloom filter over user keys (point lookups skip tables whose
//           filter excludes the key)
//   footer: index offset, meta offset, magic
//
// A file with any other footer magic is rejected with Status::Corruption
// ("bad magic") rather than silently misread: formats are bumped, never
// migrated in place (DESIGN.md format-bump policy).
class SstWriter {
 public:
  explicit SstWriter(size_t block_bytes = 4096) : block_bytes_(block_bytes) {}

  // Entries must be appended in strict internal-key order.
  void Add(const Entry& entry);

  size_t num_entries() const { return num_entries_; }
  size_t ApproximateBytes() const { return data_.size(); }
  const std::string& smallest() const { return smallest_; }
  const std::string& largest() const { return largest_; }

  // Writes the finished table atomically to `path`.
  Status Finish(const std::string& path);

 private:
  void CutBlock();

  size_t block_bytes_;  // Non-const so a drained writer can be reassigned.

  std::string data_;
  std::vector<std::string> user_keys_;  // Distinct keys for the bloom filter.
  std::string smallest_;
  std::string largest_;
  SequenceNumber max_sequence_ = 0;
  size_t num_entries_ = 0;

  struct IndexEntry {
    std::string first_key;
    uint64_t offset = 0;
    uint64_t size = 0;
  };
  std::vector<IndexEntry> index_;
  uint64_t block_start_ = 0;       // data_ offset of the open block.
  std::string block_first_key_;    // First user key of the open block.
  bool block_open_ = false;
};

// Reader. Opens the footer, index, meta, and bloom eagerly (a few KiB); data
// blocks are read with pread(2) and decoded lazily on first touch, through a
// shared LRU BlockCache, so open cost and resident memory track the working
// set instead of total data. Thread-safe: lookups and iterators may run
// concurrently from any number of threads.
class SstReader {
 public:
  // `cache` == nullptr uses the process-wide BlockCache::Default().
  static StatusOr<std::shared_ptr<SstReader>> Open(
      const std::string& path, std::shared_ptr<BlockCache> cache = nullptr);

  ~SstReader();
  SstReader(const SstReader&) = delete;
  SstReader& operator=(const SstReader&) = delete;

  // Same contract as MemTable::Get: prepends merge operands / fills the base
  // into `state`; returns true if the key appeared visibly in this table.
  bool Get(std::string_view user_key, SequenceNumber read_seq,
           LookupState* state) const;

  // Sequential scan over all entries in internal order. Pins one decoded
  // block at a time; entry() references stay valid until the next
  // Next()/Seek() call.
  class Iterator {
   public:
    explicit Iterator(const SstReader* reader) : reader_(reader) {}
    bool Valid() const { return block_ != nullptr && pos_ < block_->entries.size(); }
    const Entry& entry() const { return block_->entries[pos_]; }
    void Next();
    // Positions at the first entry with user_key >= target.
    void Seek(std::string_view target);
    void SeekToFirst();
    // I/O or decode errors invalidate the iterator; callers that must not
    // silently truncate (compaction) check this after the scan.
    const Status& status() const { return status_; }

   private:
    void LoadBlock(size_t block_index);

    const SstReader* reader_;
    size_t block_index_ = 0;
    size_t pos_ = 0;
    std::shared_ptr<const SstBlock> block_;
    Status status_;
  };

  Iterator NewIterator() const { return Iterator(this); }

  const std::string& smallest() const { return smallest_; }
  const std::string& largest() const { return largest_; }
  SequenceNumber max_sequence() const { return max_sequence_; }
  size_t num_entries() const { return num_entries_; }
  size_t num_blocks() const { return index_.size(); }
  const std::string& path() const { return path_; }
  const BloomFilter& bloom() const { return bloom_; }

 private:
  friend class Iterator;

  struct IndexEntry {
    std::string first_key;
    uint64_t offset = 0;
    uint64_t size = 0;
  };

  SstReader() = default;

  // Index of the only block that can contain `user_key`, or npos.
  size_t FindBlock(std::string_view user_key) const;
  StatusOr<std::shared_ptr<const SstBlock>> ReadBlock(size_t block_index) const;

  std::string path_;
  int fd_ = -1;
  uint64_t cache_file_id_ = 0;
  std::shared_ptr<BlockCache> cache_;
  BloomFilter bloom_ = BloomFilter::Deserialize("");
  std::string smallest_;
  std::string largest_;
  SequenceNumber max_sequence_ = 0;
  size_t num_entries_ = 0;
  std::vector<IndexEntry> index_;
};

}  // namespace fbstream::lsm

#endif  // FBSTREAM_STORAGE_LSM_SSTABLE_H_
