#include "storage/lsm/sstable.h"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>

#include "common/fs.h"
#include "common/serde.h"

namespace fbstream::lsm {

namespace {
// Block-based table format. Any other footer magic is Corruption (DESIGN.md
// format-bump policy).
constexpr uint64_t kSstMagic = 0xfb57b10c00c0ffeeULL;
constexpr size_t kFooterBytes = 24;
constexpr size_t kNoBlock = ~size_t{0};

void EncodeEntry(const Entry& e, std::string* out) {
  PutLengthPrefixed(out, e.key.user_key);
  PutVarint64(out, e.key.sequence);
  out->push_back(static_cast<char>(e.key.type));
  PutLengthPrefixed(out, e.value);
}

bool DecodeEntry(std::string_view* in, Entry* e) {
  std::string_view key;
  uint64_t seq = 0;
  std::string_view value;
  if (!GetLengthPrefixed(in, &key)) return false;
  if (!GetVarint64(in, &seq)) return false;
  if (in->empty()) return false;
  const auto type = static_cast<EntryType>(in->front());
  in->remove_prefix(1);
  if (!GetLengthPrefixed(in, &value)) return false;
  e->key.user_key = std::string(key);
  e->key.sequence = seq;
  e->key.type = type;
  e->value = std::string(value);
  return true;
}
}  // namespace

void SstWriter::Add(const Entry& entry) {
  if (num_entries_ == 0) smallest_ = entry.key.user_key;
  const bool new_user_key =
      user_keys_.empty() || user_keys_.back() != entry.key.user_key;
  if (new_user_key) {
    user_keys_.push_back(entry.key.user_key);  // Input is sorted by key.
  }
  // Cut only between distinct user keys so a key's whole version chain stays
  // in one block (point lookups touch exactly one block).
  if (block_open_ && new_user_key &&
      data_.size() - block_start_ >= block_bytes_) {
    CutBlock();
  }
  if (!block_open_) {
    block_open_ = true;
    block_start_ = data_.size();
    block_first_key_ = entry.key.user_key;
  }
  largest_ = entry.key.user_key;
  max_sequence_ = std::max(max_sequence_, entry.key.sequence);
  EncodeEntry(entry, &data_);
  ++num_entries_;
}

void SstWriter::CutBlock() {
  index_.push_back(
      IndexEntry{block_first_key_, block_start_, data_.size() - block_start_});
  block_open_ = false;
}

Status SstWriter::Finish(const std::string& path) {
  if (block_open_) CutBlock();
  // Index, meta, and footer are appended onto the data buffer in place; the
  // buffer is handed to the filesystem without duplicating the data section.
  const uint64_t index_offset = data_.size();
  PutVarint64(&data_, index_.size());
  for (const IndexEntry& e : index_) {
    PutLengthPrefixed(&data_, e.first_key);
    PutFixed64(&data_, e.offset);
    PutFixed64(&data_, e.size);
  }
  const uint64_t meta_offset = data_.size();
  PutLengthPrefixed(&data_, smallest_);
  PutLengthPrefixed(&data_, largest_);
  PutVarint64(&data_, max_sequence_);
  PutVarint64(&data_, num_entries_);
  BloomFilter bloom(user_keys_.size());
  for (const std::string& key : user_keys_) bloom.Add(key);
  PutLengthPrefixed(&data_, bloom.Serialize());
  // Fixed-size footer.
  PutFixed64(&data_, index_offset);
  PutFixed64(&data_, meta_offset);
  PutFixed64(&data_, kSstMagic);
  return WriteFileAtomic(path, data_);
}

SstReader::~SstReader() {
  if (fd_ >= 0) close(fd_);
  if (cache_ != nullptr) cache_->EraseFile(cache_file_id_);
}

StatusOr<std::shared_ptr<SstReader>> SstReader::Open(
    const std::string& path, std::shared_ptr<BlockCache> cache) {
  const int fd = open(path.c_str(), O_RDONLY);
  if (fd < 0) return Status::IoError("sst open: " + path);
  std::shared_ptr<SstReader> reader(new SstReader());
  reader->fd_ = fd;  // Owned from here; closed by the destructor on error.
  reader->path_ = path;
  reader->cache_ = cache != nullptr ? std::move(cache) : BlockCache::Default();
  reader->cache_file_id_ = BlockCache::NextFileId();

  const off_t file_size = lseek(fd, 0, SEEK_END);
  if (file_size < static_cast<off_t>(kFooterBytes)) {
    return Status::Corruption("sst too small: " + path);
  }
  char footer_buf[kFooterBytes];
  if (pread(fd, footer_buf, kFooterBytes, file_size - kFooterBytes) !=
      static_cast<ssize_t>(kFooterBytes)) {
    return Status::IoError("sst footer read: " + path);
  }
  std::string_view footer(footer_buf, kFooterBytes);
  uint64_t index_offset = 0;
  uint64_t meta_offset = 0;
  uint64_t magic = 0;
  GetFixed64(&footer, &index_offset);
  GetFixed64(&footer, &meta_offset);
  GetFixed64(&footer, &magic);
  if (magic != kSstMagic) return Status::Corruption("sst bad magic: " + path);
  // The index and meta sections sit between the data and the footer.
  const uint64_t footer_start = static_cast<uint64_t>(file_size) - kFooterBytes;
  if (index_offset > meta_offset || meta_offset > footer_start) {
    return Status::Corruption("sst bad offsets: " + path);
  }

  // Index + meta tail (a few KiB even for large tables) is read eagerly.
  std::string tail(footer_start - index_offset, '\0');
  if (pread(fd, tail.data(), tail.size(), static_cast<off_t>(index_offset)) !=
      static_cast<ssize_t>(tail.size())) {
    return Status::IoError("sst index read: " + path);
  }
  std::string_view index(tail.data(), meta_offset - index_offset);
  uint64_t num_blocks = 0;
  if (!GetVarint64(&index, &num_blocks) ||
      num_blocks > footer_start / 4 + 1) {
    return Status::Corruption("sst bad index: " + path);
  }
  reader->index_.reserve(num_blocks);
  for (uint64_t i = 0; i < num_blocks; ++i) {
    std::string_view first_key;
    uint64_t offset = 0;
    uint64_t block_size = 0;
    if (!GetLengthPrefixed(&index, &first_key) ||
        !GetFixed64(&index, &offset) || !GetFixed64(&index, &block_size) ||
        block_size > index_offset || offset > index_offset - block_size) {
      return Status::Corruption("sst bad index entry: " + path);
    }
    reader->index_.push_back(
        IndexEntry{std::string(first_key), offset, block_size});
  }

  std::string_view meta(tail.data() + (meta_offset - index_offset),
                        tail.size() - (meta_offset - index_offset));
  std::string_view smallest;
  std::string_view largest;
  uint64_t max_seq = 0;
  uint64_t count = 0;
  std::string_view bloom_bits;
  if (!GetLengthPrefixed(&meta, &smallest) ||
      !GetLengthPrefixed(&meta, &largest) || !GetVarint64(&meta, &max_seq) ||
      !GetVarint64(&meta, &count) || !GetLengthPrefixed(&meta, &bloom_bits)) {
    return Status::Corruption("sst bad meta: " + path);
  }
  reader->smallest_ = std::string(smallest);
  reader->largest_ = std::string(largest);
  reader->max_sequence_ = max_seq;
  reader->num_entries_ = count;
  reader->bloom_ = BloomFilter::Deserialize(bloom_bits);
  return reader;
}

size_t SstReader::FindBlock(std::string_view user_key) const {
  // Last block whose first key is <= user_key; earlier blocks end before it,
  // later blocks start after it.
  auto it = std::upper_bound(
      index_.begin(), index_.end(), user_key,
      [](std::string_view k, const IndexEntry& e) { return k < e.first_key; });
  if (it == index_.begin()) return kNoBlock;  // Below the table's first key.
  return static_cast<size_t>(it - index_.begin()) - 1;
}

StatusOr<std::shared_ptr<const SstBlock>> SstReader::ReadBlock(
    size_t block_index) const {
  const IndexEntry& entry = index_[block_index];
  if (auto cached = cache_->Lookup(cache_file_id_, entry.offset)) {
    return cached;
  }
  std::string raw(entry.size, '\0');
  if (pread(fd_, raw.data(), raw.size(), static_cast<off_t>(entry.offset)) !=
      static_cast<ssize_t>(raw.size())) {
    return Status::IoError("sst block read: " + path_);
  }
  auto block = std::make_shared<SstBlock>();
  std::string_view data(raw);
  while (!data.empty()) {
    Entry e;
    if (!DecodeEntry(&data, &e)) {
      return Status::Corruption("sst bad entry: " + path_);
    }
    block->charge += e.key.user_key.size() + e.value.size() + 48;
    block->entries.push_back(std::move(e));
  }
  cache_->Insert(cache_file_id_, entry.offset, block);
  return std::shared_ptr<const SstBlock>(std::move(block));
}

bool SstReader::Get(std::string_view user_key, SequenceNumber read_seq,
                    LookupState* state) const {
  if (!bloom_.MayContain(user_key)) return false;  // Definitely absent.
  const size_t block_index = FindBlock(user_key);
  if (block_index == kNoBlock) return false;
  auto block_or = ReadBlock(block_index);
  if (!block_or.ok()) return false;  // Unreadable table excludes nothing.
  const SstBlock& block = **block_or;
  // First entry with user_key >= target; within a key, sequences descend.
  auto it = std::lower_bound(
      block.entries.begin(), block.entries.end(), user_key,
      [](const Entry& e, std::string_view k) { return e.key.user_key < k; });
  bool any = false;
  std::vector<std::string> operands_newest_first;
  for (; it != block.entries.end() && it->key.user_key == user_key; ++it) {
    if (it->key.sequence > read_seq) continue;
    any = true;
    if (it->key.type == EntryType::kMerge) {
      operands_newest_first.push_back(it->value);
      continue;
    }
    state->found_base = true;
    state->base_is_delete = it->key.type == EntryType::kDelete;
    if (!state->base_is_delete) state->base_value = it->value;
    break;
  }
  // This table's operands are older than anything collected so far.
  state->operands.insert(state->operands.begin(),
                         operands_newest_first.rbegin(),
                         operands_newest_first.rend());
  return any;
}

void SstReader::Iterator::LoadBlock(size_t block_index) {
  block_index_ = block_index;
  pos_ = 0;
  if (block_index >= reader_->index_.size()) {
    block_ = nullptr;
    return;
  }
  auto block_or = reader_->ReadBlock(block_index);
  if (!block_or.ok()) {
    block_ = nullptr;
    status_ = block_or.status();
    return;
  }
  block_ = std::move(block_or).value();
}

void SstReader::Iterator::Next() {
  if (!Valid()) return;
  if (++pos_ >= block_->entries.size()) LoadBlock(block_index_ + 1);
}

void SstReader::Iterator::SeekToFirst() { LoadBlock(0); }

void SstReader::Iterator::Seek(std::string_view target) {
  size_t block_index = reader_->FindBlock(target);
  if (block_index == kNoBlock) block_index = 0;  // Target below first key.
  LoadBlock(block_index);
  if (block_ == nullptr) return;
  auto it = std::lower_bound(
      block_->entries.begin(), block_->entries.end(), target,
      [](const Entry& e, std::string_view k) { return e.key.user_key < k; });
  pos_ = static_cast<size_t>(it - block_->entries.begin());
  // Target past this block's last key: the next block (if any) starts at the
  // first key >= target.
  if (pos_ >= block_->entries.size()) LoadBlock(block_index + 1);
}

}  // namespace fbstream::lsm
