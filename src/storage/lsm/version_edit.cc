#include "storage/lsm/version_edit.h"

#include "common/fault.h"
#include "common/fs.h"
#include "common/hash.h"
#include "common/metrics.h"
#include "common/serde.h"

namespace fbstream::lsm {

namespace {
// Record tags. New tags bump kManifestMagic; decoders reject unknown tags.
enum Tag : uint64_t {
  kTagNextFileNumber = 1,
  kTagLastSequence = 2,
  kTagNewFile = 3,
  kTagDeletedFile = 4,
};
}  // namespace

void VersionEdit::EncodeTo(std::string* out) const {
  if (next_file_number.has_value()) {
    PutVarint64(out, kTagNextFileNumber);
    PutVarint64(out, *next_file_number);
  }
  if (last_sequence.has_value()) {
    PutVarint64(out, kTagLastSequence);
    PutVarint64(out, *last_sequence);
  }
  for (const NewFile& f : added) {
    PutVarint64(out, kTagNewFile);
    PutVarint64(out, static_cast<uint64_t>(f.level));
    PutVarint64(out, f.number);
    PutVarint64(out, f.file_size);
    PutLengthPrefixed(out, f.smallest);
    PutLengthPrefixed(out, f.largest);
  }
  for (const DeletedFile& f : deleted) {
    PutVarint64(out, kTagDeletedFile);
    PutVarint64(out, static_cast<uint64_t>(f.level));
    PutVarint64(out, f.number);
  }
}

StatusOr<VersionEdit> VersionEdit::DecodeFrom(std::string_view data) {
  VersionEdit edit;
  while (!data.empty()) {
    uint64_t tag = 0;
    if (!GetVarint64(&data, &tag)) {
      return Status::Corruption("version edit: bad tag");
    }
    switch (tag) {
      case kTagNextFileNumber: {
        uint64_t v = 0;
        if (!GetVarint64(&data, &v)) {
          return Status::Corruption("version edit: next_file_number");
        }
        edit.next_file_number = v;
        break;
      }
      case kTagLastSequence: {
        uint64_t v = 0;
        if (!GetVarint64(&data, &v)) {
          return Status::Corruption("version edit: last_sequence");
        }
        edit.last_sequence = v;
        break;
      }
      case kTagNewFile: {
        NewFile f;
        uint64_t level = 0;
        std::string_view smallest;
        std::string_view largest;
        if (!GetVarint64(&data, &level) || !GetVarint64(&data, &f.number) ||
            !GetVarint64(&data, &f.file_size) ||
            !GetLengthPrefixed(&data, &smallest) ||
            !GetLengthPrefixed(&data, &largest) ||
            level >= static_cast<uint64_t>(kNumLevels)) {
          return Status::Corruption("version edit: new file");
        }
        f.level = static_cast<int>(level);
        f.smallest = std::string(smallest);
        f.largest = std::string(largest);
        edit.added.push_back(std::move(f));
        break;
      }
      case kTagDeletedFile: {
        DeletedFile f;
        uint64_t level = 0;
        if (!GetVarint64(&data, &level) || !GetVarint64(&data, &f.number) ||
            level >= static_cast<uint64_t>(kNumLevels)) {
          return Status::Corruption("version edit: deleted file");
        }
        f.level = static_cast<int>(level);
        edit.deleted.push_back(f);
        break;
      }
      default:
        return Status::Corruption("version edit: unknown tag " +
                                  std::to_string(tag));
    }
  }
  return edit;
}

// ---------------------------------------------------------------------------
// ManifestWriter

ManifestWriter::~ManifestWriter() { Close(); }

Status ManifestWriter::Open(const std::string& path) {
  Close();
  file_ = fopen(path.c_str(), "ab");
  if (file_ == nullptr) return Status::IoError("manifest open: " + path);
  // Start the rotation budget at the existing log size, so a Db reopened
  // onto a near-full manifest still rotates on schedule.
  if (fseeko(file_, 0, SEEK_END) != 0) {
    Close();
    return Status::IoError("manifest seek: " + path);
  }
  const off_t size = ftello(file_);
  appended_bytes_ = size > 0 ? static_cast<uint64_t>(size) : 0;
  return Status::OK();
}

Status ManifestWriter::AddRecord(const VersionEdit& edit) {
  static Counter* appends =
      MetricsRegistry::Global()->GetCounter("lsm.manifest.appends");
  static Counter* syncs =
      MetricsRegistry::Global()->GetCounter("lsm.manifest.syncs");
  static Counter* bytes =
      MetricsRegistry::Global()->GetCounter("lsm.manifest.bytes");
  if (file_ == nullptr) return Status::FailedPrecondition("manifest not open");
  // Before any bytes reach the file: a fault or kill here leaves the log
  // exactly as it was, so the edit's output files become recoverable
  // orphans.
  FBSTREAM_RETURN_IF_ERROR(FaultRegistry::Global()->Hit("lsm.manifest.append"));
  std::string body;
  edit.EncodeTo(&body);
  std::string frame;
  PutVarint64(&frame, body.size());
  PutFixed64(&frame, Fnv1a64(body));
  frame += body;
  if (fwrite(frame.data(), 1, frame.size(), file_) != frame.size()) {
    return Status::IoError("manifest write");
  }
  if (fflush(file_) != 0) return Status::IoError("manifest flush");
  appends->Add();
  bytes->Add(frame.size());
  // The record is durable against process death from here; a fault or kill
  // at the sync site leaves an *installed* edit (recovery replays it).
  FBSTREAM_RETURN_IF_ERROR(FaultRegistry::Global()->Hit("lsm.manifest.sync"));
  if (::fsync(fileno(file_)) != 0) return Status::IoError("manifest fsync");
  syncs->Add();
  appended_bytes_ += frame.size();
  return Status::OK();
}

void ManifestWriter::Close() {
  if (file_ != nullptr) {
    fclose(file_);
    file_ = nullptr;
  }
}

// ---------------------------------------------------------------------------
// ReadManifest

StatusOr<ManifestState> ReadManifest(const std::string& path) {
  FBSTREAM_ASSIGN_OR_RETURN(std::string data, ReadFileToString(path));
  ManifestState state;
  std::string_view view(data);
  uint64_t magic = 0;
  std::string_view magic_probe = view;
  if (!GetFixed64(&magic_probe, &magic) || magic != kManifestMagic) {
    // Unknown format: nothing is migrated in place (DESIGN.md format-bump
    // policy).
    return Status::Corruption("manifest bad magic: " + path);
  }
  view = magic_probe;
  while (!view.empty()) {
    uint64_t len = 0;
    uint64_t checksum = 0;
    if (!GetVarint64(&view, &len) || !GetFixed64(&view, &checksum) ||
        view.size() < len) {
      // Incomplete final record: a crash mid-append (partial fwrite or page
      // write) tore the tail. The edit was never acknowledged durable — its
      // WAL is still live and its output SSTs are orphans — so the fsynced
      // prefix is the complete, consistent state. Recover it and drop the
      // tail (the caller rewrites the log without it).
      state.truncated = true;
      break;
    }
    const std::string_view body = view.substr(0, len);
    view.remove_prefix(len);
    if (Fnv1a64(body) != checksum) {
      if (view.empty()) {
        // A checksum failure on the *final* record is the same torn-tail
        // case (the frame header landed, the body tore).
        state.truncated = true;
        break;
      }
      // Interior damage: records after this one were acknowledged on top of
      // it, so the prefix is NOT the full state — fail loudly.
      return Status::Corruption("manifest checksum mismatch: " + path);
    }
    // A body whose checksum matches decodes or the format is genuinely
    // corrupt — torn-tail leniency never applies past the frame layer.
    FBSTREAM_ASSIGN_OR_RETURN(VersionEdit edit, VersionEdit::DecodeFrom(body));
    state.edits.push_back(std::move(edit));
  }
  if (state.edits.empty()) {
    // Indistinguishable from garbage (and nothing to recover either way).
    return Status::Corruption(
        (state.truncated ? "manifest torn with no complete edits: "
                         : "manifest has no edits: ") +
        path);
  }
  return state;
}

Status WriteManifestSnapshot(const std::string& path,
                             const VersionEdit& snapshot) {
  static Counter* rotations =
      MetricsRegistry::Global()->GetCounter("lsm.manifest.rotations");
  // Same fault sites as the append path, so kill specs cover manifest birth
  // and rotation too. The write is atomic (temp file + rename): a kill at
  // either site leaves the previous manifest — or its absence — intact.
  FBSTREAM_RETURN_IF_ERROR(FaultRegistry::Global()->Hit("lsm.manifest.append"));
  std::string contents;
  PutFixed64(&contents, kManifestMagic);
  std::string body;
  snapshot.EncodeTo(&body);
  PutVarint64(&contents, body.size());
  PutFixed64(&contents, Fnv1a64(body));
  contents += body;
  FBSTREAM_RETURN_IF_ERROR(FaultRegistry::Global()->Hit("lsm.manifest.sync"));
  FBSTREAM_RETURN_IF_ERROR(WriteFileAtomic(path, contents));
  rotations->Add();
  return Status::OK();
}

}  // namespace fbstream::lsm
