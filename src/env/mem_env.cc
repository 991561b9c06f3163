// In-memory Env with deterministic, byte-exact I/O accounting. This is the
// substrate for all benchmark experiments (see DESIGN.md §4).
#include <algorithm>
#include <map>
#include <memory>
#include <mutex>

#include "env/env.h"

namespace talus {

namespace {

// Contents are guarded by a per-file mutex: background flush/compaction jobs
// append SSTs while foreground threads stat or scan the namespace. Readers
// hand out Slices into `contents`, which stays safe because the engine never
// appends to a file after opening it for reading (SSTs are immutable once
// built; the WAL is only replayed after the writer is closed).
struct FileState {
  mutable std::mutex mu;
  std::string contents;

  void Append(const Slice& data) {
    std::lock_guard<std::mutex> l(mu);
    contents.append(data.data(), data.size());
  }
  uint64_t Size() const {
    std::lock_guard<std::mutex> l(mu);
    return contents.size();
  }
};

using FileMap = std::map<std::string, std::shared_ptr<FileState>>;

class MemWritableFile final : public WritableFile {
 public:
  MemWritableFile(std::shared_ptr<FileState> file, IoStats* stats)
      : file_(std::move(file)), stats_(stats) {}

  Status Append(const Slice& data) override {
    file_->Append(data);
    stats_->RecordWrite(data.size());
    stats_->RecordStorageGrowth(data.size());
    return Status::OK();
  }
  Status Flush() override { return Status::OK(); }
  Status Sync() override { return Status::OK(); }
  Status Close() override { return Status::OK(); }

 private:
  std::shared_ptr<FileState> file_;
  IoStats* stats_;
};

class MemRandomAccessFile final : public RandomAccessFile {
 public:
  MemRandomAccessFile(std::shared_ptr<FileState> file, IoStats* stats)
      : file_(std::move(file)), stats_(stats) {}

  Status Read(uint64_t offset, size_t n, Slice* result,
              char* /*scratch*/) const override {
    std::lock_guard<std::mutex> l(file_->mu);
    const std::string& c = file_->contents;
    if (offset > c.size()) {
      return Status::IOError("read past end of file");
    }
    size_t avail = std::min(n, c.size() - static_cast<size_t>(offset));
    *result = Slice(c.data() + offset, avail);
    stats_->RecordRead(avail);
    return Status::OK();
  }
  uint64_t Size() const override { return file_->Size(); }

 private:
  std::shared_ptr<FileState> file_;
  IoStats* stats_;
};

class MemSequentialFile final : public SequentialFile {
 public:
  MemSequentialFile(std::shared_ptr<FileState> file, IoStats* stats)
      : file_(std::move(file)), stats_(stats) {}

  Status Read(size_t n, Slice* result, char* /*scratch*/) override {
    std::lock_guard<std::mutex> l(file_->mu);
    const std::string& c = file_->contents;
    if (pos_ >= c.size()) {
      *result = Slice();
      return Status::OK();
    }
    size_t avail = std::min(n, c.size() - pos_);
    *result = Slice(c.data() + pos_, avail);
    pos_ += avail;
    stats_->RecordRead(avail);
    return Status::OK();
  }
  Status Skip(uint64_t n) override {
    pos_ = std::min(static_cast<size_t>(file_->Size()),
                    pos_ + static_cast<size_t>(n));
    return Status::OK();
  }

 private:
  std::shared_ptr<FileState> file_;
  IoStats* stats_;
  size_t pos_ = 0;
};

class MemEnv final : public Env {
 public:
  Status NewWritableFile(const std::string& fname,
                         std::unique_ptr<WritableFile>* result) override {
    std::lock_guard<std::mutex> l(mu_);
    auto file = std::make_shared<FileState>();
    files_[fname] = file;
    *result = std::make_unique<MemWritableFile>(std::move(file), &stats_);
    return Status::OK();
  }

  Status NewRandomAccessFile(
      const std::string& fname,
      std::unique_ptr<RandomAccessFile>* result) override {
    std::lock_guard<std::mutex> l(mu_);
    auto it = files_.find(fname);
    if (it == files_.end()) return Status::IOError(fname, "not found");
    *result = std::make_unique<MemRandomAccessFile>(it->second, &stats_);
    return Status::OK();
  }

  Status NewSequentialFile(const std::string& fname,
                           std::unique_ptr<SequentialFile>* result) override {
    std::lock_guard<std::mutex> l(mu_);
    auto it = files_.find(fname);
    if (it == files_.end()) return Status::IOError(fname, "not found");
    *result = std::make_unique<MemSequentialFile>(it->second, &stats_);
    return Status::OK();
  }

  bool FileExists(const std::string& fname) override {
    std::lock_guard<std::mutex> l(mu_);
    return files_.count(fname) > 0;
  }

  Status GetChildren(const std::string& dir,
                     std::vector<std::string>* result) override {
    std::lock_guard<std::mutex> l(mu_);
    result->clear();
    std::string prefix = dir;
    if (!prefix.empty() && prefix.back() != '/') prefix += '/';
    for (const auto& [name, file] : files_) {
      if (name.size() > prefix.size() && name.compare(0, prefix.size(), prefix) == 0) {
        std::string rest = name.substr(prefix.size());
        if (rest.find('/') == std::string::npos) result->push_back(rest);
      }
    }
    return Status::OK();
  }

  Status RemoveFile(const std::string& fname) override {
    std::lock_guard<std::mutex> l(mu_);
    auto it = files_.find(fname);
    if (it == files_.end()) return Status::IOError(fname, "not found");
    stats_.RecordStorageShrink(it->second->Size());
    files_.erase(it);
    return Status::OK();
  }

  Status CreateDirIfMissing(const std::string& /*dirname*/) override {
    return Status::OK();  // Directories are implicit in the flat namespace.
  }

  Status GetFileSize(const std::string& fname, uint64_t* size) override {
    std::lock_guard<std::mutex> l(mu_);
    auto it = files_.find(fname);
    if (it == files_.end()) return Status::IOError(fname, "not found");
    *size = it->second->Size();
    return Status::OK();
  }

  Status RenameFile(const std::string& src,
                    const std::string& target) override {
    std::lock_guard<std::mutex> l(mu_);
    auto it = files_.find(src);
    if (it == files_.end()) return Status::IOError(src, "not found");
    files_[target] = it->second;
    files_.erase(it);
    return Status::OK();
  }

  IoStats* io_stats() override { return &stats_; }

  uint64_t TotalFileBytes(const std::string& dir) override {
    std::lock_guard<std::mutex> l(mu_);
    std::string prefix = dir;
    if (!prefix.empty() && prefix.back() != '/') prefix += '/';
    uint64_t total = 0;
    for (const auto& [name, file] : files_) {
      if (name.compare(0, prefix.size(), prefix) == 0) {
        total += file->Size();
      }
    }
    return total;
  }

 private:
  std::mutex mu_;
  FileMap files_;
  IoStats stats_;
};

}  // namespace

std::unique_ptr<Env> NewMemEnv() { return std::make_unique<MemEnv>(); }

}  // namespace talus
