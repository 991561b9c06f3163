#include "device_env.h"

#include <thread>

namespace perfbench {

using talus::RandomAccessFile;
using talus::SequentialFile;
using talus::Slice;
using talus::Status;
using talus::WritableFile;

namespace {

thread_local bool t_generator_thread = false;

int ThreadStripe(int stripes) {
  static std::atomic<int> next{0};
  thread_local const int stripe =
      next.fetch_add(1, std::memory_order_relaxed) % stripes;
  return stripe;
}

bool EndsWith(const std::string& s, const char* suffix) {
  const std::string x(suffix);
  return s.size() >= x.size() &&
         s.compare(s.size() - x.size(), x.size(), x) == 0;
}

// Sleeps `us` microseconds: the modeled device time.
void DeviceDelay(uint64_t us) {
  std::this_thread::sleep_for(std::chrono::microseconds(us));
}

// Times one call from construction to destruction, so a modeled delay
// issued inside the scope counts as the call's busy time.
class CallScope {
 public:
  CallScope(DeviceEnv* env, EnvCall call, FileKind kind, uint64_t bytes = 0)
      : env_(env), call_(call), kind_(kind), bytes_(bytes), start_(NowNs()) {}
  ~CallScope() { env_->Record(call_, kind_, bytes_, start_, NowNs()); }
  CallScope(const CallScope&) = delete;
  CallScope& operator=(const CallScope&) = delete;
  void set_bytes(uint64_t bytes) { bytes_ = bytes; }

 private:
  DeviceEnv* env_;
  EnvCall call_;
  FileKind kind_;
  uint64_t bytes_;
  int64_t start_;
};

class DeviceWritableFile final : public WritableFile {
 public:
  DeviceWritableFile(std::unique_ptr<WritableFile> base, DeviceEnv* env,
                     FileKind kind)
      : base_(std::move(base)), env_(env), kind_(kind) {}

  Status Append(const Slice& data) override {
    CallScope scope(env_, EnvCall::kAppend, kind_, data.size());
    return base_->Append(data);
  }
  Status Flush() override {
    CallScope scope(env_, EnvCall::kFlush, kind_);
    return base_->Flush();
  }
  Status Sync() override {
    CallScope scope(env_, EnvCall::kSync, kind_);
    Status s = base_->Sync();
    DeviceDelay(kSyncDelayUs);
    return s;
  }
  Status Close() override {
    CallScope scope(env_, EnvCall::kClose, kind_);
    return base_->Close();
  }

 private:
  std::unique_ptr<WritableFile> base_;
  DeviceEnv* env_;
  FileKind kind_;
};

class DeviceRandomAccessFile final : public RandomAccessFile {
 public:
  DeviceRandomAccessFile(std::unique_ptr<RandomAccessFile> base,
                         DeviceEnv* env, FileKind kind)
      : base_(std::move(base)), env_(env), kind_(kind) {}

  Status Read(uint64_t offset, size_t n, Slice* result,
              char* scratch) const override {
    CallScope scope(env_, EnvCall::kRead, kind_);
    Status s = base_->Read(offset, n, result, scratch);
    if (s.ok()) scope.set_bytes(result->size());
    return s;
  }
  uint64_t Size() const override {
    CallScope scope(env_, EnvCall::kSize, kind_);
    return base_->Size();
  }

 private:
  std::unique_ptr<RandomAccessFile> base_;
  DeviceEnv* env_;
  FileKind kind_;
};

class DeviceSequentialFile final : public SequentialFile {
 public:
  DeviceSequentialFile(std::unique_ptr<SequentialFile> base, DeviceEnv* env,
                       FileKind kind)
      : base_(std::move(base)), env_(env), kind_(kind) {}

  Status Read(size_t n, Slice* result, char* scratch) override {
    CallScope scope(env_, EnvCall::kSeqRead, kind_);
    Status s = base_->Read(n, result, scratch);
    if (s.ok()) scope.set_bytes(result->size());
    return s;
  }
  Status Skip(uint64_t n) override {
    CallScope scope(env_, EnvCall::kSeqSkip, kind_);
    return base_->Skip(n);
  }

 private:
  std::unique_ptr<SequentialFile> base_;
  DeviceEnv* env_;
  FileKind kind_;
};

}  // namespace

FileKind KindOf(const std::string& fname) {
  const size_t slash = fname.find_last_of('/');
  const std::string base =
      slash == std::string::npos ? fname : fname.substr(slash + 1);
  if (EndsWith(base, ".wal")) return FileKind::kWal;
  if (EndsWith(base, ".sst")) return FileKind::kSst;
  if (base.rfind("MANIFEST-", 0) == 0 || base.rfind("CURRENT", 0) == 0) {
    return FileKind::kManifest;
  }
  return FileKind::kOther;
}

const char* FileKindName(FileKind kind) {
  static const char* const kNames[kNumFileKinds] = {"wal", "sst", "manifest",
                                                     "other"};
  return kNames[static_cast<int>(kind)];
}

const char* EnvCallName(EnvCall call) {
  static const char* const kNames[kNumEnvCalls] = {
      "append",       "flush",         "sync",       "close",
      "read",         "size",          "seq_read",   "seq_skip",
      "new_writable", "new_random",    "new_seq",    "exists",
      "children",     "remove",        "mkdir",      "file_size",
      "rename",       "total_bytes"};
  return kNames[static_cast<int>(call)];
}

void MarkGeneratorThread() { t_generator_thread = true; }

EnvTotals::Cell EnvTotals::Sum(EnvCall call) const {
  Cell sum;
  for (int k = 0; k < kNumFileKinds; k++) {
    const Cell& c = cells[static_cast<int>(call)][k];
    sum.count += c.count;
    sum.busy_ns += c.busy_ns;
    sum.bytes += c.bytes;
  }
  return sum;
}

EnvTotals EnvTotals::Minus(const EnvTotals& base) const {
  EnvTotals d;
  for (int c = 0; c < kNumEnvCalls; c++) {
    for (int k = 0; k < kNumFileKinds; k++) {
      d.cells[c][k].count = cells[c][k].count - base.cells[c][k].count;
      d.cells[c][k].busy_ns = cells[c][k].busy_ns - base.cells[c][k].busy_ns;
      d.cells[c][k].bytes = cells[c][k].bytes - base.cells[c][k].bytes;
    }
  }
  d.fg_busy_ns = fg_busy_ns - base.fg_busy_ns;
  return d;
}

void DeviceEnv::Record(EnvCall call, FileKind kind, uint64_t bytes,
                       int64_t start_ns, int64_t end_ns) {
  const uint64_t busy = static_cast<uint64_t>(end_ns - start_ns);
  Stripe& st = stripes_[ThreadStripe(kStripes)];
  const int c = static_cast<int>(call);
  const int k = static_cast<int>(kind);
  st.count[c][k].fetch_add(1, std::memory_order_relaxed);
  st.busy_ns[c][k].fetch_add(busy, std::memory_order_relaxed);
  if (bytes > 0) st.bytes[c][k].fetch_add(bytes, std::memory_order_relaxed);
  if (t_generator_thread) {
    st.fg_busy_ns.fetch_add(busy, std::memory_order_relaxed);
  }
  if (sink_ != nullptr) sink_->OnEnvCall(call, kind, start_ns, end_ns);
}

EnvTotals DeviceEnv::Totals() const {
  EnvTotals t;
  for (const Stripe& st : stripes_) {
    for (int c = 0; c < kNumEnvCalls; c++) {
      for (int k = 0; k < kNumFileKinds; k++) {
        t.cells[c][k].count += st.count[c][k].load(std::memory_order_relaxed);
        t.cells[c][k].busy_ns +=
            st.busy_ns[c][k].load(std::memory_order_relaxed);
        t.cells[c][k].bytes += st.bytes[c][k].load(std::memory_order_relaxed);
      }
    }
    t.fg_busy_ns += st.fg_busy_ns.load(std::memory_order_relaxed);
  }
  return t;
}

Status DeviceEnv::NewWritableFile(const std::string& fname,
                                  std::unique_ptr<WritableFile>* result) {
  const FileKind kind = KindOf(fname);
  CallScope scope(this, EnvCall::kNewWritableFile, kind);
  std::unique_ptr<WritableFile> file;
  Status s = base_->NewWritableFile(fname, &file);
  if (s.ok()) {
    *result = std::make_unique<DeviceWritableFile>(std::move(file), this, kind);
  }
  return s;
}

Status DeviceEnv::NewRandomAccessFile(
    const std::string& fname, std::unique_ptr<RandomAccessFile>* result) {
  const FileKind kind = KindOf(fname);
  CallScope scope(this, EnvCall::kNewRandomAccessFile, kind);
  std::unique_ptr<RandomAccessFile> file;
  Status s = base_->NewRandomAccessFile(fname, &file);
  if (s.ok()) {
    *result =
        std::make_unique<DeviceRandomAccessFile>(std::move(file), this, kind);
  }
  return s;
}

Status DeviceEnv::NewSequentialFile(const std::string& fname,
                                    std::unique_ptr<SequentialFile>* result) {
  const FileKind kind = KindOf(fname);
  CallScope scope(this, EnvCall::kNewSequentialFile, kind);
  std::unique_ptr<SequentialFile> file;
  Status s = base_->NewSequentialFile(fname, &file);
  if (s.ok()) {
    *result =
        std::make_unique<DeviceSequentialFile>(std::move(file), this, kind);
  }
  return s;
}

bool DeviceEnv::FileExists(const std::string& fname) {
  CallScope scope(this, EnvCall::kFileExists, KindOf(fname));
  return base_->FileExists(fname);
}

Status DeviceEnv::GetChildren(const std::string& dir,
                              std::vector<std::string>* result) {
  CallScope scope(this, EnvCall::kGetChildren, FileKind::kOther);
  return base_->GetChildren(dir, result);
}

Status DeviceEnv::RemoveFile(const std::string& fname) {
  CallScope scope(this, EnvCall::kRemoveFile, KindOf(fname));
  Status s = base_->RemoveFile(fname);
  DeviceDelay(kRemoveDelayUs);
  return s;
}

Status DeviceEnv::CreateDirIfMissing(const std::string& dirname) {
  CallScope scope(this, EnvCall::kCreateDir, FileKind::kOther);
  return base_->CreateDirIfMissing(dirname);
}

Status DeviceEnv::GetFileSize(const std::string& fname, uint64_t* size) {
  CallScope scope(this, EnvCall::kGetFileSize, KindOf(fname));
  return base_->GetFileSize(fname, size);
}

Status DeviceEnv::RenameFile(const std::string& src,
                             const std::string& target) {
  // Attributed to the target: CURRENT.tmp -> CURRENT is a manifest rename.
  CallScope scope(this, EnvCall::kRenameFile, KindOf(target));
  Status s = base_->RenameFile(src, target);
  DeviceDelay(kRenameDelayUs);
  return s;
}

uint64_t DeviceEnv::TotalFileBytes(const std::string& dir) {
  CallScope scope(this, EnvCall::kTotalFileBytes, FileKind::kOther);
  return base_->TotalFileBytes(dir);
}

}  // namespace perfbench
