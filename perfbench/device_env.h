// DeviceEnv: an Env decorator that sits between the engine and its base Env.
// It sees every file-system call the engine makes, counts and times it by
// call and by file kind, and models a storage device on top of a base that
// has no device cost of its own (the in-memory Env):
//
//   * every Sync sleeps a fixed delay after the base call returns;
//   * every RenameFile and RemoveFile sleeps a (longer) fixed delay;
//   * reads get no delay, as on a warm OS page cache.
//
// The engine is unchanged: it only ever sees the talus::Env interface.
#ifndef TALUS_PERFBENCH_DEVICE_ENV_H_
#define TALUS_PERFBENCH_DEVICE_ENV_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "env/env.h"

namespace perfbench {

/// What a file holds, from its name: `*.wal` is the write-ahead log,
/// `*.sst` a table, `MANIFEST-*` and `CURRENT*` the manifest. Everything
/// else (the shard manifest, directories) is `other`.
enum class FileKind : uint8_t { kWal, kSst, kManifest, kOther };
constexpr int kNumFileKinds = 4;
FileKind KindOf(const std::string& fname);
const char* FileKindName(FileKind kind);

/// Every decorated call, one per virtual method of Env, WritableFile,
/// RandomAccessFile and SequentialFile. Env::io_stats() is the one method
/// that is forwarded without counting: it is an accessor the engine calls
/// on every operation, not an I/O.
enum class EnvCall : uint8_t {
  kAppend,
  kFlush,
  kSync,
  kClose,
  kRead,  // RandomAccessFile::Read
  kSize,  // RandomAccessFile::Size
  kSeqRead,
  kSeqSkip,
  kNewWritableFile,
  kNewRandomAccessFile,
  kNewSequentialFile,
  kFileExists,
  kGetChildren,
  kRemoveFile,
  kCreateDir,
  kGetFileSize,
  kRenameFile,
  kTotalFileBytes,
};
constexpr int kNumEnvCalls = 18;
const char* EnvCallName(EnvCall call);

/// The modeled device: fixed delays added after the base call returns. A
/// rename or unlink costs 10x an fsync: 0.2 ms is an fsync p50 measured on
/// an ext4 disk mounted with `discard` when the model was chosen, and 2 ms
/// keeps metadata calls well above it without the 10-1000x swings the real
/// disk showed between calls. Keep these fixed so results stay comparable,
/// and re-probe (`talusbench --probe DIR`) before changing them. Two later
/// probes of that disk (4 vCPU AMD EPYC VM), p50 [min, max] in ms:
///
///   fsync of 4 KB (n=50)         0.041 [0.036, 0.278]   0.045 [0.037, 0.229]
///   rename over existing (n=20)  21.5  [0.041, 45.9]    17.0  [0.036, 23.3]
///   unlink of 1 MB (n=10)        14.9  [1.91, 36.6]     16.0  [12.4, 23.5]
constexpr uint64_t kSyncDelayUs = 200;
constexpr uint64_t kRenameDelayUs = 2000;
constexpr uint64_t kRemoveDelayUs = 2000;

/// Totals per (call, file kind), read as a plain snapshot.
struct EnvTotals {
  struct Cell {
    uint64_t count = 0;
    uint64_t busy_ns = 0;
    uint64_t bytes = 0;
  };
  Cell cells[kNumEnvCalls][kNumFileKinds];
  /// Env time spent on threads marked as generator threads.
  uint64_t fg_busy_ns = 0;

  const Cell& at(EnvCall call, FileKind kind) const {
    return cells[static_cast<int>(call)][static_cast<int>(kind)];
  }
  /// The cell summed over file kinds.
  Cell Sum(EnvCall call) const;
  /// Bytes appended to files of `kind`.
  uint64_t AppendBytes(FileKind kind) const {
    return at(EnvCall::kAppend, kind).bytes;
  }
  EnvTotals Minus(const EnvTotals& base) const;
};

/// Receives one callback per decorated call while tracing is on (see
/// trace.h). Called on the thread that made the call.
class EnvCallSink {
 public:
  virtual ~EnvCallSink() = default;
  virtual void OnEnvCall(EnvCall call, FileKind kind, int64_t start_ns,
                         int64_t end_ns) = 0;
};

/// Nanoseconds on the steady clock, the one time base of the benchmark.
inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Marks the calling thread as a generator thread (its env time counts in
/// EnvTotals::fg_busy_ns). Engine and server threads are never marked.
void MarkGeneratorThread();

// Every virtual method of Env and of the three file interfaces is pure, and
// DeviceEnv and its file wrappers are final and instantiated, so the build
// fails if any call could bypass the decorator. A non-pure virtual added to
// env.h would lose that guarantee and must be overridden here by hand.
class DeviceEnv final : public talus::Env {
 public:
  explicit DeviceEnv(talus::Env* base) : base_(base) {}
  DeviceEnv(const DeviceEnv&) = delete;
  DeviceEnv& operator=(const DeviceEnv&) = delete;

  /// Sink for traced calls; null disables span recording. Set before the
  /// engine opens, never while it runs.
  void set_sink(EnvCallSink* sink) { sink_ = sink; }
  EnvTotals Totals() const;

  talus::Status NewWritableFile(
      const std::string& fname,
      std::unique_ptr<talus::WritableFile>* result) override;
  talus::Status NewRandomAccessFile(
      const std::string& fname,
      std::unique_ptr<talus::RandomAccessFile>* result) override;
  talus::Status NewSequentialFile(
      const std::string& fname,
      std::unique_ptr<talus::SequentialFile>* result) override;
  bool FileExists(const std::string& fname) override;
  talus::Status GetChildren(const std::string& dir,
                            std::vector<std::string>* result) override;
  talus::Status RemoveFile(const std::string& fname) override;
  talus::Status CreateDirIfMissing(const std::string& dirname) override;
  talus::Status GetFileSize(const std::string& fname,
                            uint64_t* size) override;
  talus::Status RenameFile(const std::string& src,
                           const std::string& target) override;
  talus::IoStats* io_stats() override { return base_->io_stats(); }
  uint64_t TotalFileBytes(const std::string& dir) override;

  /// Records one finished call. Public for the file wrappers.
  void Record(EnvCall call, FileKind kind, uint64_t bytes, int64_t start_ns,
              int64_t end_ns);

 private:
  // Per-thread stripes keep the counters off one shared cache line when
  // several readers hit the env at once.
  static constexpr int kStripes = 16;
  struct alignas(64) Stripe {
    std::atomic<uint64_t> count[kNumEnvCalls][kNumFileKinds] = {};
    std::atomic<uint64_t> busy_ns[kNumEnvCalls][kNumFileKinds] = {};
    std::atomic<uint64_t> bytes[kNumEnvCalls][kNumFileKinds] = {};
    std::atomic<uint64_t> fg_busy_ns{0};
  };

  talus::Env* const base_;
  EnvCallSink* sink_ = nullptr;
  Stripe stripes_[kStripes];
};

}  // namespace perfbench

#endif  // TALUS_PERFBENCH_DEVICE_ENV_H_
