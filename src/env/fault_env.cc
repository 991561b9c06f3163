#include "env/fault_env.h"

namespace talus {

namespace {

// Re-writes `fname` in the base env truncated to `keep` bytes.
Status TruncateFile(Env* base, const std::string& fname, uint64_t keep) {
  std::unique_ptr<SequentialFile> in;
  Status s = base->NewSequentialFile(fname, &in);
  if (!s.ok()) return s;
  std::string contents;
  contents.reserve(keep);
  std::string scratch(64 << 10, '\0');
  while (contents.size() < keep) {
    Slice chunk;
    const size_t want =
        std::min<uint64_t>(scratch.size(), keep - contents.size());
    s = in->Read(want, &chunk, scratch.data());
    if (!s.ok()) return s;
    if (chunk.empty()) break;
    contents.append(chunk.data(), chunk.size());
  }
  std::unique_ptr<WritableFile> out;
  s = base->NewWritableFile(fname, &out);
  if (!s.ok()) return s;
  s = out->Append(contents);
  if (s.ok()) s = out->Close();
  return s;
}

}  // namespace

class FaultWritableFile final : public WritableFile {
 public:
  FaultWritableFile(std::string fname, std::unique_ptr<WritableFile> base,
                    FaultInjectionEnv* env)
      : fname_(std::move(fname)), base_(std::move(base)), env_(env) {}

  Status Append(const Slice& data) override {
    if (env_->ShouldFail(FaultInjectionEnv::Op::kAppend, fname_)) {
      return Status::IOError("injected write failure");
    }
    Status s = base_->Append(data);
    if (s.ok()) {
      size_ += data.size();
      env_->NoteAppend(fname_, size_);
    }
    return s;
  }
  Status Flush() override { return base_->Flush(); }
  Status Sync() override {
    if (env_->ShouldFail(FaultInjectionEnv::Op::kSync, fname_)) {
      return Status::IOError("injected sync failure");
    }
    Status s = base_->Sync();
    if (s.ok()) env_->NoteSynced(fname_);
    return s;
  }
  Status Close() override { return base_->Close(); }

 private:
  std::string fname_;
  std::unique_ptr<WritableFile> base_;
  FaultInjectionEnv* env_;
  uint64_t size_ = 0;
};

bool FaultInjectionEnv::ShouldFail(Op op, const std::string& fname) {
  std::lock_guard<std::mutex> l(mu_);
  if (failing_) return true;
  if (at_armed_ && op == at_op_ &&
      fname.find(at_fragment_) != std::string::npos) {
    if (at_remaining_ == 0) {
      failing_ = true;
      return true;
    }
    at_remaining_--;
  }
  if (!armed_) return false;
  if (writes_remaining_ == 0) {
    failing_ = true;
    return true;
  }
  writes_remaining_--;
  return false;
}

void FaultInjectionEnv::NoteSynced(const std::string& fname) {
  std::lock_guard<std::mutex> l(mu_);
  synced_size_[fname] = current_size_[fname];
}

void FaultInjectionEnv::NoteAppend(const std::string& fname,
                                   uint64_t new_size) {
  std::lock_guard<std::mutex> l(mu_);
  current_size_[fname] = new_size;
}

void FaultInjectionEnv::NoteCreated(const std::string& fname) {
  std::lock_guard<std::mutex> l(mu_);
  current_size_[fname] = 0;
  synced_size_[fname] = 0;
}

Status FaultInjectionEnv::NewWritableFile(
    const std::string& fname, std::unique_ptr<WritableFile>* result) {
  if (ShouldFail(Op::kCreate, fname)) {
    return Status::IOError("injected create failure");
  }
  std::unique_ptr<WritableFile> base_file;
  Status s = base_->NewWritableFile(fname, &base_file);
  if (!s.ok()) return s;
  NoteCreated(fname);
  *result = std::make_unique<FaultWritableFile>(fname, std::move(base_file),
                                                this);
  return Status::OK();
}

Status FaultInjectionEnv::RemoveFile(const std::string& fname) {
  if (ShouldFail(Op::kRemove, fname)) {
    return Status::IOError("injected remove failure");
  }
  {
    std::lock_guard<std::mutex> l(mu_);
    synced_size_.erase(fname);
    current_size_.erase(fname);
  }
  return base_->RemoveFile(fname);
}

Status FaultInjectionEnv::RenameFile(const std::string& src,
                                     const std::string& target) {
  if (ShouldFail(Op::kRename, target)) {
    return Status::IOError("injected rename failure");
  }
  {
    std::lock_guard<std::mutex> l(mu_);
    auto cs = current_size_.find(src);
    if (cs != current_size_.end()) {
      current_size_[target] = cs->second;
      current_size_.erase(cs);
    }
    auto ss = synced_size_.find(src);
    if (ss != synced_size_.end()) {
      synced_size_[target] = ss->second;
      synced_size_.erase(ss);
    }
  }
  return base_->RenameFile(src, target);
}

void FaultInjectionEnv::DropUnsyncedWrites() {
  std::map<std::string, uint64_t> synced, current;
  {
    std::lock_guard<std::mutex> l(mu_);
    synced = synced_size_;
    current = current_size_;
  }
  for (const auto& [fname, size] : current) {
    auto it = synced.find(fname);
    const uint64_t keep = it == synced.end() ? 0 : it->second;
    if (keep == size) continue;
    if (keep == 0) {
      base_->RemoveFile(fname);
    } else {
      TruncateFile(base_, fname, keep);
    }
  }
}

}  // namespace talus
