#ifndef FBSTREAM_STORAGE_LSM_VERSION_EDIT_H_
#define FBSTREAM_STORAGE_LSM_VERSION_EDIT_H_

#include <cstdint>
#include <cstdio>
#include <optional>
#include <string>
#include <vector>

#include "common/status.h"
#include "storage/lsm/internal_key.h"

namespace fbstream::lsm {

// Number of on-disk levels (L0 .. L5). L0 files overlap (one per flush);
// L1+ hold sorted runs of disjoint key ranges.
constexpr int kNumLevels = 6;

// One durable mutation of the level structure: files added to / deleted
// from levels, plus the file-number and sequence watermarks. A flush logs
// {+L0 file}; a compaction logs {-inputs, +outputs}; recovery replays the
// MANIFEST's edit sequence instead of globbing the directory.
struct VersionEdit {
  struct NewFile {
    int level = 0;
    uint64_t number = 0;
    uint64_t file_size = 0;
    std::string smallest;  // Smallest user key in the file.
    std::string largest;   // Largest user key in the file.
  };
  struct DeletedFile {
    int level = 0;
    uint64_t number = 0;
  };

  std::optional<uint64_t> next_file_number;
  std::optional<SequenceNumber> last_sequence;
  std::vector<NewFile> added;
  std::vector<DeletedFile> deleted;

  void AddFile(int level, uint64_t number, uint64_t file_size,
               std::string smallest, std::string largest) {
    added.push_back(NewFile{level, number, file_size, std::move(smallest),
                            std::move(largest)});
  }
  void DeleteFile(int level, uint64_t number) {
    deleted.push_back(DeletedFile{level, number});
  }

  // Tag-based varint encoding (unknown tags are a decode error: the format
  // is bumped loudly, never silently skipped — see DESIGN.md format-bump
  // policy).
  void EncodeTo(std::string* out) const;
  static StatusOr<VersionEdit> DecodeFrom(std::string_view data);
};

// Append-only MANIFEST log of VersionEdit records.
//
// Layout: an 8-byte format magic, then framed records — varint body length,
// fixed64 FNV-1a checksum, body (one encoded VersionEdit). A torn *final*
// record (incomplete frame or checksum failure at EOF) is dropped on
// recovery: a crash mid-append can tear the tail, but such an edit was
// never acknowledged durable — the flush WAL is only retired and compaction
// inputs only unlinked after AddRecord returns OK — so the fsynced prefix
// is the complete state. Damage in the *interior* of the log (a checksum
// failure with acknowledged records after it) is a loud Status::Corruption:
// there the prefix really would desynchronize the level structure from the
// files on disk.
//
// A file without this magic is Status::Corruption: formats are bumped
// loudly and never migrated in place (DESIGN.md format-bump policy).
constexpr uint64_t kManifestMagic = 0x46424c534d4d3032;  // "FBLSMM02"

class ManifestWriter {
 public:
  ~ManifestWriter();
  ManifestWriter() = default;
  ManifestWriter(const ManifestWriter&) = delete;
  ManifestWriter& operator=(const ManifestWriter&) = delete;

  // Opens an existing manifest at `path` for appending. Fresh manifests
  // are created atomically by WriteManifestSnapshot (header + snapshot
  // record in one rename), so a crash can never leave a header-only log.
  Status Open(const std::string& path);

  // Appends one framed edit record, flushed (durable against process
  // death) and fsynced (durable against power loss) before returning.
  // Consults fault sites "lsm.manifest.append" (before any bytes are
  // written) and "lsm.manifest.sync" (after the record is flushed, before
  // fsync).
  Status AddRecord(const VersionEdit& edit);

  // Total log size: bytes in the file at Open plus bytes appended since.
  // Drives rotation.
  uint64_t appended_bytes() const { return appended_bytes_; }
  bool is_open() const { return file_ != nullptr; }
  void Close();

 private:
  FILE* file_ = nullptr;
  uint64_t appended_bytes_ = 0;
};

// The full decoded state of a MANIFEST.
struct ManifestState {
  std::vector<VersionEdit> edits;  // In append order.
  // A torn final record was dropped; the caller must rewrite the log so
  // future appends don't land after the torn bytes.
  bool truncated = false;
};

// Reads and validates `path`, returning its edit sequence. A torn final
// record is dropped (`truncated` set); a missing or unknown magic, interior
// corruption, or a log with no complete edits at all is Status::Corruption.
StatusOr<ManifestState> ReadManifest(const std::string& path);

// Atomically replaces `path` with a fresh log holding exactly `snapshot`
// (the full current state as one edit): header + one framed record,
// written to a temp file and renamed. This is both how the first MANIFEST
// is born and how an oversized log rotates.
Status WriteManifestSnapshot(const std::string& path,
                             const VersionEdit& snapshot);

}  // namespace fbstream::lsm

#endif  // FBSTREAM_STORAGE_LSM_VERSION_EDIT_H_
