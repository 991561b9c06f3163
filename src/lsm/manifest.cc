#include "lsm/manifest.h"

#include "lsm/filename.h"
#include "util/coding.h"
#include "util/crc32c.h"

namespace talus {

namespace {

void EncodeFileMeta(std::string* dst, const FileMeta& f) {
  PutVarint64(dst, f.number);
  PutVarint64(dst, f.file_size);
  PutVarint64(dst, f.num_entries);
  PutVarint64(dst, f.payload_bytes);
  PutVarint64(dst, f.oldest_seq);
  PutLengthPrefixedSlice(dst, f.smallest.Encode());
  PutLengthPrefixedSlice(dst, f.largest.Encode());
}

bool DecodeFileMeta(Slice* input, FileMeta* f) {
  Slice smallest, largest;
  if (!GetVarint64(input, &f->number) || !GetVarint64(input, &f->file_size) ||
      !GetVarint64(input, &f->num_entries) ||
      !GetVarint64(input, &f->payload_bytes) ||
      !GetVarint64(input, &f->oldest_seq) ||
      !GetLengthPrefixedSlice(input, &smallest) ||
      !GetLengthPrefixedSlice(input, &largest)) {
    return false;
  }
  f->smallest.DecodeFrom(smallest);
  f->largest.DecodeFrom(largest);
  return true;
}

std::string EncodeSnapshot(const ManifestData& data) {
  std::string out;
  PutVarint64(&out, data.next_file_number);
  PutVarint64(&out, data.next_run_id);
  PutVarint64(&out, data.last_sequence);
  PutVarint64(&out, data.flush_count);
  PutVarint64(&out, data.wal_number);
  PutLengthPrefixedSlice(&out, Slice(data.policy_name));
  PutLengthPrefixedSlice(&out, Slice(data.policy_state));
  PutVarint64(&out, data.version.levels.size());
  for (const LevelState& level : data.version.levels) {
    PutVarint64(&out, level.runs.size());
    for (const SortedRun& run : level.runs) {
      PutVarint64(&out, run.run_id);
      PutVarint64(&out, run.files.size());
      for (const FileMetaPtr& f : run.files) {
        EncodeFileMeta(&out, *f);
      }
    }
  }
  // Appended after the level tree so pre-existing manifests (which end at
  // the tree) still decode: absence of trailing bytes means "no config".
  PutLengthPrefixedSlice(&out, Slice(data.policy_config));
  return out;
}

Status DecodeSnapshot(Slice input, ManifestData* data) {
  Slice policy_name, policy_state;
  uint64_t num_levels;
  if (!GetVarint64(&input, &data->next_file_number) ||
      !GetVarint64(&input, &data->next_run_id) ||
      !GetVarint64(&input, &data->last_sequence) ||
      !GetVarint64(&input, &data->flush_count) ||
      !GetVarint64(&input, &data->wal_number) ||
      !GetLengthPrefixedSlice(&input, &policy_name) ||
      !GetLengthPrefixedSlice(&input, &policy_state) ||
      !GetVarint64(&input, &num_levels)) {
    return Status::Corruption("bad manifest header");
  }
  data->policy_name = policy_name.ToString();
  data->policy_state = policy_state.ToString();
  data->version.levels.clear();
  data->version.levels.resize(num_levels);
  for (uint64_t i = 0; i < num_levels; i++) {
    uint64_t num_runs;
    if (!GetVarint64(&input, &num_runs)) {
      return Status::Corruption("bad manifest level");
    }
    for (uint64_t r = 0; r < num_runs; r++) {
      SortedRun run;
      uint64_t num_files;
      if (!GetVarint64(&input, &run.run_id) ||
          !GetVarint64(&input, &num_files)) {
        return Status::Corruption("bad manifest run");
      }
      for (uint64_t f = 0; f < num_files; f++) {
        auto meta = std::make_shared<FileMeta>();
        if (!DecodeFileMeta(&input, meta.get())) {
          return Status::Corruption("bad manifest file meta");
        }
        run.files.push_back(std::move(meta));
      }
      data->version.levels[i].runs.push_back(std::move(run));
    }
  }
  data->policy_config.clear();
  if (!input.empty()) {
    Slice policy_config;
    if (!GetLengthPrefixedSlice(&input, &policy_config)) {
      return Status::Corruption("bad manifest policy config");
    }
    data->policy_config = policy_config.ToString();
  }
  return Status::OK();
}

// A log rolls once it holds this many times the newest record's bytes, so
// the bytes a reopen reads stay proportional to one snapshot while CURRENT
// is rewritten only once per ~kManifestRollFactor installs.
constexpr uint64_t kManifestRollFactor = 64;

// Repoints CURRENT at `manifest_basename`: write CURRENT.tmp, sync, rename.
Status SetCurrentFile(Env* env, const std::string& dbpath,
                      const std::string& manifest_basename) {
  const std::string tmp = dbpath + "/CURRENT.tmp";
  std::unique_ptr<WritableFile> cur;
  Status s = env->NewWritableFile(tmp, &cur);
  if (!s.ok()) return s;
  s = cur->Append(Slice(manifest_basename));
  if (s.ok()) s = cur->Sync();
  if (s.ok()) s = cur->Close();
  if (!s.ok()) return s;
  return env->RenameFile(tmp, CurrentFileName(dbpath));
}

}  // namespace

Status ManifestLog::Commit(const ManifestData& data, CommitInfo* info) {
  const std::string record = EncodeSnapshot(data);
  info->record_bytes = record.size();
  info->retired = 0;
  if (log_ == nullptr || log_bytes_ >= kManifestRollFactor * record.size()) {
    return Roll(record, info);
  }
  Status s = log_->AddRecord(Slice(record));
  if (s.ok()) s = log_->Sync();
  if (!s.ok()) {
    log_.reset();
    return s;
  }
  log_bytes_ += wal::kHeaderSize + record.size();
  return Status::OK();
}

Status ManifestLog::Roll(const std::string& record, CommitInfo* info) {
  log_.reset();
  const uint64_t next = number_ + 1;
  const std::string fname = ManifestFileName(dbpath_, next);
  std::unique_ptr<WritableFile> file;
  Status s = env_->NewWritableFile(fname, &file);
  if (!s.ok()) return s;
  auto log = std::make_unique<wal::LogWriter>(std::move(file));
  s = log->AddRecord(Slice(record));
  if (s.ok()) s = log->Sync();
  // The new log is durable before CURRENT names it; a crash before the
  // rename leaves an orphan that the next Open sweeps.
  if (s.ok()) {
    s = SetCurrentFile(env_, dbpath_, fname.substr(fname.rfind('/') + 1));
  }
  if (!s.ok()) return s;
  info->retired = number_;
  number_ = next;
  log_ = std::move(log);
  log_bytes_ = wal::kHeaderSize + record.size();
  return Status::OK();
}

Status ReadCurrentManifest(Env* env, const std::string& dbpath,
                           ManifestData* data, uint64_t* manifest_number) {
  const std::string current = CurrentFileName(dbpath);
  if (!env->FileExists(current)) {
    return Status::NotFound("no CURRENT file", dbpath);
  }
  std::unique_ptr<SequentialFile> cur;
  Status s = env->NewSequentialFile(current, &cur);
  if (!s.ok()) return s;
  std::string name;
  {
    Slice chunk;
    std::string scratch(256, '\0');
    s = cur->Read(256, &chunk, scratch.data());
    if (!s.ok()) return s;
    name = chunk.ToString();
  }
  // Trim trailing whitespace/newlines.
  while (!name.empty() && (name.back() == '\n' || name.back() == ' ')) {
    name.pop_back();
  }
  uint64_t number = 0;
  std::string suffix;
  if (!ParseFileName(name, &number, &suffix) || suffix != "manifest") {
    return Status::Corruption("CURRENT names a non-manifest file", name);
  }

  std::unique_ptr<SequentialFile> file;
  s = env->NewSequentialFile(dbpath + "/" + name, &file);
  if (!s.ok()) return s;
  std::string contents;
  {
    std::string scratch(64 << 10, '\0');
    Slice chunk;
    while ((s = file->Read(scratch.size(), &chunk, scratch.data())).ok() &&
           !chunk.empty()) {
      contents.append(chunk.data(), chunk.size());
    }
    if (!s.ok()) return s;
  }
  // Walk the frames. Only the final one may be incomplete (torn tail).
  Slice input(contents);
  Slice newest;
  bool found = false;
  while (input.size() >= wal::kHeaderSize) {
    const uint32_t masked_crc = DecodeFixed32(input.data());
    const uint32_t length = DecodeFixed32(input.data() + 4);
    if (input.size() - wal::kHeaderSize < length) break;  // Torn tail.
    const Slice payload(input.data() + wal::kHeaderSize, length);
    if (crc32c::Unmask(masked_crc) !=
        crc32c::Value(payload.data(), payload.size())) {
      return Status::Corruption("manifest record checksum mismatch", name);
    }
    newest = payload;
    found = true;
    input.remove_prefix(wal::kHeaderSize + length);
  }
  if (!found) return Status::Corruption("manifest unreadable", name);
  s = DecodeSnapshot(newest, data);
  if (s.ok() && manifest_number != nullptr) *manifest_number = number;
  return s;
}

}  // namespace talus
