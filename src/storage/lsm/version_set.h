#ifndef FBSTREAM_STORAGE_LSM_VERSION_SET_H_
#define FBSTREAM_STORAGE_LSM_VERSION_SET_H_

#include <array>
#include <memory>
#include <string>

#include "common/status.h"
#include "storage/lsm/table_cache.h"
#include "storage/lsm/version.h"
#include "storage/lsm/version_edit.h"

namespace fbstream::lsm {

// The durable level structure of one Db: which SSTs live on which level,
// the file-number allocator, and the MANIFEST log that makes every
// structural change (flush install, compaction install) a single durable
// VersionEdit append. Owned by Db; all mutating calls run under Db's mutex.
//
// Lifecycle of the MANIFEST file:
//   - A fresh Db has none; it is born atomically (header + full-state
//     snapshot record) on the first LogAndApply, so its existence doubles
//     as the "a database lives here" marker the node supervisor keys on.
//   - Every subsequent change appends one framed edit record.
//   - When the log outgrows `rotate_bytes`, LogAndApply folds the current
//     state into a fresh snapshot instead of appending (atomic replace).
class VersionSet {
 public:
  VersionSet(std::string dir, uint64_t rotate_bytes);
  ~VersionSet();
  VersionSet(const VersionSet&) = delete;
  VersionSet& operator=(const VersionSet&) = delete;

  // Loads the MANIFEST if one exists (sets *manifest_found accordingly).
  // Verifies every referenced SST is present with its recorded size —
  // a missing or resized file is loud Corruption, never a silent skip.
  // Torn or checksum-failing MANIFEST content is loud Corruption too.
  Status Recover(bool* manifest_found);

  // Applies `edit` to the in-memory levels and appends it durably to the
  // MANIFEST, creating or rotating the log as needed. Fills in
  // edit->next_file_number. On failure the in-memory state is unchanged —
  // memory never runs ahead of the log. Runs under Db's mutex.
  Status LogAndApply(VersionEdit* edit);

  // Writes a full-state snapshot MANIFEST if none exists on disk yet (a
  // never-flushed Db creating a backup still needs an openable manifest).
  Status EnsureManifest();

  const std::array<std::vector<FileMeta>, kNumLevels>& levels() const {
    return levels_;
  }
  std::array<std::string, kNumLevels>* cursors() { return &cursors_; }

  uint64_t NewFileNumber() { return next_file_number_++; }
  uint64_t next_file_number() const { return next_file_number_; }
  // Raises the allocator floor (e.g. past recovered WAL numbers).
  void BumpFileNumber(uint64_t floor);

  SequenceNumber recovered_sequence() const { return recovered_sequence_; }
  void SetLastSequence(SequenceNumber seq) { last_sequence_ = seq; }

  uint64_t TotalSstBytes() const;

  const std::string& manifest_path() const { return manifest_path_; }

 private:
  Status ApplyEdit(const VersionEdit& edit,
                   std::array<std::vector<FileMeta>, kNumLevels>* levels);
  VersionEdit SnapshotEdit(
      const std::array<std::vector<FileMeta>, kNumLevels>& levels) const;
  // Rewrites the MANIFEST as a snapshot of `levels` and reopens the
  // appender on it.
  Status RotateTo(const std::array<std::vector<FileMeta>, kNumLevels>& levels);
  // Publishes per-level file/byte gauges as deltas against the last commit.
  void UpdateGauges();

  const std::string dir_;
  const std::string manifest_path_;
  const uint64_t rotate_bytes_;

  std::array<std::vector<FileMeta>, kNumLevels> levels_;
  std::array<std::string, kNumLevels> cursors_;  // Round-robin pick state.
  uint64_t next_file_number_ = 1;
  SequenceNumber last_sequence_ = 0;       // Latest durably logged.
  SequenceNumber recovered_sequence_ = 0;  // From the recovered MANIFEST.
  ManifestWriter manifest_;

  // Last gauge publication, so multiple Dbs can share the process-global
  // per-level gauges additively.
  std::array<int64_t, kNumLevels> gauge_files_{};
  std::array<int64_t, kNumLevels> gauge_bytes_{};
};

}  // namespace fbstream::lsm

#endif  // FBSTREAM_STORAGE_LSM_VERSION_SET_H_
