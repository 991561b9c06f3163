// Manifest: durable record of the tree structure plus engine counters.
//
// MANIFEST-<n> is a long-lived, append-only log of full-snapshot records
// (each one a complete ManifestData, CRC-framed by wal::LogWriter); the
// newest complete record is the store's state. A structural change appends
// one record and syncs it — one sync, no rename, no remove. CURRENT names
// the live log and is rewritten (CURRENT.tmp, sync, rename) only when the
// log rolls: once it holds kManifestRollFactor times the newest record's
// bytes, the next record starts MANIFEST-<n+1> instead, and the old log is
// handed back to the caller for deletion after CURRENT points past it. A
// ManifestLog always rolls on its first commit, so every DB::Open starts a
// fresh log and never appends after a torn tail.
//
// Recovery (ReadCurrentManifest) reads the log named by CURRENT:
//   * a final record cut short by EOF is a torn tail (a crash between the
//     append and its sync) and is ignored — the previous record wins;
//   * a CRC mismatch on any complete record is Corruption: rolling back to
//     an older snapshot could resurrect files the newer one let go of.
// Full snapshots (not deltas) are kept on purpose: encoding one costs
// microseconds; the install cost that mattered was rename/remove/sync.
#ifndef TALUS_LSM_MANIFEST_H_
#define TALUS_LSM_MANIFEST_H_

#include <cstdint>
#include <memory>
#include <string>

#include "env/env.h"
#include "lsm/version.h"
#include "wal/log_writer.h"

namespace talus {

struct ManifestData {
  uint64_t next_file_number = 1;
  uint64_t next_run_id = 1;
  uint64_t last_sequence = 0;
  uint64_t flush_count = 0;
  uint64_t wal_number = 0;       // Live WAL file number (0 = none).
  std::string policy_name;       // Sanity check on reopen.
  std::string policy_state;      // Opaque GrowthPolicy::EncodeState() blob.
  /// EncodeGrowthPolicyConfig() of the policy the store is CURRENTLY
  /// running — which, under adaptive tuning (DESIGN.md §9), may differ
  /// from the one in DbOptions. Reopening with adaptive_tuning re-resolves
  /// the policy from this instead of the options. Empty in manifests
  /// written before the field existed (decoded as absent, never an error).
  std::string policy_config;
  Version version;
};

/// Appender for the live MANIFEST log. Not synchronized: the DB serializes
/// commits under its mutex.
class ManifestLog {
 public:
  /// `number` is the manifest CURRENT names today (0 for a new store); the
  /// first Commit rolls to `number + 1` and retires it.
  ManifestLog(Env* env, std::string dbpath, uint64_t number)
      : env_(env), dbpath_(std::move(dbpath)), number_(number) {}

  struct CommitInfo {
    uint64_t record_bytes = 0;  // Encoded snapshot size.
    /// Manifest number the commit rolled away from (0 = no roll, or a
    /// first roll with nothing before it). The caller deletes that file.
    uint64_t retired = 0;
  };

  /// Makes `data` durable: appends it as one record and syncs, or rolls to
  /// a fresh log holding only it. After a failure the open log is dropped,
  /// so the next commit rolls rather than appending after a partial record.
  Status Commit(const ManifestData& data, CommitInfo* info);

  /// Number of the live log (the one CURRENT names once a commit succeeded).
  uint64_t number() const { return number_; }

 private:
  Status Roll(const std::string& record, CommitInfo* info);

  Env* const env_;
  const std::string dbpath_;
  uint64_t number_;
  std::unique_ptr<wal::LogWriter> log_;  // Null until the first commit.
  uint64_t log_bytes_ = 0;               // Framed bytes in the live log.
};

/// Loads the newest complete record of the log named by CURRENT. NotFound
/// when no CURRENT exists; Corruption per the recovery rule above.
Status ReadCurrentManifest(Env* env, const std::string& dbpath,
                           ManifestData* data, uint64_t* manifest_number);

}  // namespace talus

#endif  // TALUS_LSM_MANIFEST_H_
