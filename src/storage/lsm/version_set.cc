#include "storage/lsm/version_set.h"

#include <algorithm>
#include <cstdio>

#include "common/fs.h"
#include "common/logging.h"
#include "common/metrics.h"

namespace fbstream::lsm {

namespace {
Gauge* LevelGauge(const char* fmt, int level) {
  char name[64];
  snprintf(name, sizeof(name), fmt, level);
  return MetricsRegistry::Global()->GetGauge(name);
}
}  // namespace

VersionSet::VersionSet(std::string dir, uint64_t rotate_bytes)
    : dir_(std::move(dir)),
      manifest_path_(dir_ + "/MANIFEST"),
      rotate_bytes_(rotate_bytes) {}

VersionSet::~VersionSet() {
  // Return this Db's contribution to the process-global level gauges.
  levels_ = {};
  UpdateGauges();
}

void VersionSet::BumpFileNumber(uint64_t floor) {
  next_file_number_ = std::max(next_file_number_, floor);
}

uint64_t VersionSet::TotalSstBytes() const {
  uint64_t total = 0;
  for (const std::vector<FileMeta>& files : levels_) total += TotalBytes(files);
  return total;
}

Status VersionSet::ApplyEdit(
    const VersionEdit& edit,
    std::array<std::vector<FileMeta>, kNumLevels>* levels) {
  for (const VersionEdit::DeletedFile& d : edit.deleted) {
    std::vector<FileMeta>& files = (*levels)[d.level];
    const auto it =
        std::find_if(files.begin(), files.end(),
                     [&d](const FileMeta& f) { return f.number == d.number; });
    if (it == files.end()) {
      return Status::Corruption("manifest deletes unknown file " +
                                std::to_string(d.number) + " at level " +
                                std::to_string(d.level));
    }
    files.erase(it);
  }
  for (const VersionEdit::NewFile& f : edit.added) {
    FileMeta meta{f.number, f.file_size, f.smallest, f.largest};
    std::vector<FileMeta>& files = (*levels)[f.level];
    if (f.level == 0) {
      // L0 order is age order (newest last); edits arrive in flush order.
      files.push_back(std::move(meta));
    } else {
      // L1+ stay sorted by smallest key (ranges are disjoint).
      const auto pos = std::lower_bound(
          files.begin(), files.end(), meta,
          [](const FileMeta& a, const FileMeta& b) {
            return a.smallest < b.smallest;
          });
      files.insert(pos, std::move(meta));
    }
  }
  return Status::OK();
}

VersionEdit VersionSet::SnapshotEdit(
    const std::array<std::vector<FileMeta>, kNumLevels>& levels) const {
  VersionEdit snap;
  snap.next_file_number = next_file_number_;
  snap.last_sequence = last_sequence_;
  for (int level = 0; level < kNumLevels; ++level) {
    for (const FileMeta& f : levels[level]) {
      snap.AddFile(level, f.number, f.file_size, f.smallest, f.largest);
    }
  }
  return snap;
}

Status VersionSet::RotateTo(
    const std::array<std::vector<FileMeta>, kNumLevels>& levels) {
  manifest_.Close();
  FBSTREAM_RETURN_IF_ERROR(
      WriteManifestSnapshot(manifest_path_, SnapshotEdit(levels)));
  return manifest_.Open(manifest_path_);
}

Status VersionSet::Recover(bool* manifest_found) {
  *manifest_found = FileExists(manifest_path_);
  if (!*manifest_found) return Status::OK();

  FBSTREAM_ASSIGN_OR_RETURN(ManifestState state, ReadManifest(manifest_path_));
  for (const VersionEdit& edit : state.edits) {
    FBSTREAM_RETURN_IF_ERROR(ApplyEdit(edit, &levels_));
    if (edit.next_file_number.has_value()) {
      next_file_number_ = std::max(next_file_number_, *edit.next_file_number);
    }
    if (edit.last_sequence.has_value()) {
      recovered_sequence_ = std::max(recovered_sequence_, *edit.last_sequence);
    }
  }
  last_sequence_ = recovered_sequence_;

  // Verify the log matches the directory: every live table must exist at
  // its recorded size. Anything else means lost or mangled state — fail
  // loudly so the operator (or the node supervisor's backup restore)
  // takes over instead of silently serving a hole.
  for (int level = 0; level < kNumLevels; ++level) {
    for (const FileMeta& f : levels_[level]) {
      const std::string path = SstFilePath(dir_, f.number);
      const StatusOr<uint64_t> size = FileSize(path);
      if (!size.ok()) {
        return Status::Corruption("manifest references missing sst " + path);
      }
      if (size.value() != f.file_size) {
        return Status::Corruption("sst size mismatch " + path);
      }
    }
  }
  if (state.truncated) {
    // A torn final record was dropped (crash mid-append; the edit was
    // never acknowledged). Rewrite the log as one snapshot of the
    // recovered prefix so the torn bytes don't sit under future appends;
    // the dropped edit's output SSTs fall to the orphan sweep.
    FBSTREAM_RETURN_IF_ERROR(RotateTo(levels_));
    FBSTREAM_LOG(Warning) << "lsm manifest tail torn; recovered "
                          << state.edits.size()
                          << " complete edits and rewrote "
                          << manifest_path_;
  }

  UpdateGauges();
  return Status::OK();
}

Status VersionSet::LogAndApply(VersionEdit* edit) {
  edit->next_file_number = next_file_number_;
  if (edit->last_sequence.has_value()) {
    last_sequence_ = std::max(last_sequence_, *edit->last_sequence);
  } else {
    edit->last_sequence = last_sequence_;
  }
  // Compute the post-state first: the durable log and the in-memory levels
  // must never disagree, so nothing is committed until the append succeeds.
  std::array<std::vector<FileMeta>, kNumLevels> next = levels_;
  FBSTREAM_RETURN_IF_ERROR(ApplyEdit(*edit, &next));

  const bool exists = FileExists(manifest_path_);
  if (!exists || manifest_.appended_bytes() > rotate_bytes_) {
    // Birth (first structural change of a fresh Db) or rotation: fold the
    // full post-state into one atomic snapshot.
    FBSTREAM_RETURN_IF_ERROR(RotateTo(next));
  } else {
    if (!manifest_.is_open()) {
      FBSTREAM_RETURN_IF_ERROR(manifest_.Open(manifest_path_));
    }
    FBSTREAM_RETURN_IF_ERROR(manifest_.AddRecord(*edit));
  }
  levels_ = std::move(next);
  UpdateGauges();
  return Status::OK();
}

Status VersionSet::EnsureManifest() {
  if (FileExists(manifest_path_)) return Status::OK();
  return RotateTo(levels_);
}

void VersionSet::UpdateGauges() {
  for (int level = 0; level < kNumLevels; ++level) {
    const int64_t files = static_cast<int64_t>(levels_[level].size());
    const int64_t bytes = static_cast<int64_t>(TotalBytes(levels_[level]));
    if (files != gauge_files_[level]) {
      LevelGauge("lsm.level%d.files", level)->Add(files - gauge_files_[level]);
      gauge_files_[level] = files;
    }
    if (bytes != gauge_bytes_[level]) {
      LevelGauge("lsm.level%d.bytes", level)->Add(bytes - gauge_bytes_[level]);
      gauge_bytes_[level] = bytes;
    }
  }
}

}  // namespace fbstream::lsm
