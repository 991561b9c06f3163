// FaultInjectionEnv: wraps another Env and injects failures — used by the
// crash-consistency tests to verify that the WAL + manifest protocol never
// loses acknowledged writes.
//
// Two mechanisms:
//  * write failure arming: after `fail_after_writes` more write operations
//    (appends, renames, removals), every mutating call returns IOError —
//    or, with FailAt, from the n-th call of one kind on matching files on
//    (a crash at a chosen step of a protocol, e.g. a MANIFEST sync);
//  * crash simulation: DropUnsyncedWrites() discards the suffix of every
//    file that was appended since its last Sync() — the on-disk state a
//    real machine could be left with after power loss.
#ifndef TALUS_ENV_FAULT_ENV_H_
#define TALUS_ENV_FAULT_ENV_H_

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>

#include "env/env.h"

namespace talus {

class FaultInjectionEnv : public Env {
 public:
  /// The mutating calls a failure can be armed on.
  enum class Op { kCreate, kAppend, kSync, kRename, kRemove };

  /// Does not own `base`; base must outlive this env.
  explicit FaultInjectionEnv(Env* base) : base_(base) {}

  // ---- Fault controls ----
  /// Arms a failure: the n-th mutating call from now on (0 = the next one)
  /// and everything after it fails with IOError until Disarm().
  void FailAfterWrites(uint64_t n) {
    std::lock_guard<std::mutex> l(mu_);
    armed_ = true;
    writes_remaining_ = n;
  }
  /// Arms a failure at the n-th (0 = the next) `op` on a file whose path
  /// contains `fragment` (a rename matches on its target): that call and
  /// every mutating call after it fail with IOError until Disarm().
  void FailAt(Op op, const std::string& fragment, uint64_t n) {
    std::lock_guard<std::mutex> l(mu_);
    at_armed_ = true;
    at_op_ = op;
    at_fragment_ = fragment;
    at_remaining_ = n;
  }
  void Disarm() {
    std::lock_guard<std::mutex> l(mu_);
    armed_ = false;
    at_armed_ = false;
    failing_ = false;
  }
  bool failing() const {
    std::lock_guard<std::mutex> l(mu_);
    return failing_;
  }
  /// Crash simulation: truncates every file back to its last-synced length
  /// and forgets un-synced creations.
  void DropUnsyncedWrites();

  // ---- Env interface (delegates, with fault hooks) ----
  Status NewWritableFile(const std::string& fname,
                         std::unique_ptr<WritableFile>* result) override;
  Status NewRandomAccessFile(
      const std::string& fname,
      std::unique_ptr<RandomAccessFile>* result) override {
    return base_->NewRandomAccessFile(fname, result);
  }
  Status NewSequentialFile(const std::string& fname,
                           std::unique_ptr<SequentialFile>* result) override {
    return base_->NewSequentialFile(fname, result);
  }
  bool FileExists(const std::string& fname) override {
    return base_->FileExists(fname);
  }
  Status GetChildren(const std::string& dir,
                     std::vector<std::string>* result) override {
    return base_->GetChildren(dir, result);
  }
  Status RemoveFile(const std::string& fname) override;
  Status CreateDirIfMissing(const std::string& dirname) override {
    return base_->CreateDirIfMissing(dirname);
  }
  Status GetFileSize(const std::string& fname, uint64_t* size) override {
    return base_->GetFileSize(fname, size);
  }
  Status RenameFile(const std::string& src,
                    const std::string& target) override;
  IoStats* io_stats() override { return base_->io_stats(); }
  uint64_t TotalFileBytes(const std::string& dir) override {
    return base_->TotalFileBytes(dir);
  }

 private:
  friend class FaultWritableFile;

  /// Returns true if this mutating operation (`op` on `fname`) must fail.
  bool ShouldFail(Op op, const std::string& fname);
  void NoteSynced(const std::string& fname);
  void NoteAppend(const std::string& fname, uint64_t new_size);
  void NoteCreated(const std::string& fname);

  Env* base_;
  mutable std::mutex mu_;
  bool armed_ = false;
  bool failing_ = false;
  uint64_t writes_remaining_ = 0;
  bool at_armed_ = false;
  Op at_op_ = Op::kCreate;
  std::string at_fragment_;
  uint64_t at_remaining_ = 0;
  // Last synced size per file created through this env. Files absent from
  // the map are dropped entirely by DropUnsyncedWrites().
  std::map<std::string, uint64_t> synced_size_;
  std::map<std::string, uint64_t> current_size_;
};

}  // namespace talus

#endif  // TALUS_ENV_FAULT_ENV_H_
