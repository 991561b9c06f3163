// GroupCommitStats: point-in-time snapshot of the write pipeline's batching
// behavior, reported through DB::GetProperty("talus.stats") (rows of the
// counter table, metrics/counters.h) and DB::GetGroupCommitStats(), and
// consumed by bench/ablation_group_commit.
// Produced by metrics::GroupCommitTracker, which the DB updates under its
// mutex at group-publish time (DESIGN.md §2.9).
#ifndef TALUS_METRICS_WRITE_STATS_H_
#define TALUS_METRICS_WRITE_STATS_H_

#include <cstddef>
#include <cstdint>

#include "util/histogram.h"

namespace talus {
namespace metrics {

struct GroupCommitStats {
  /// Commit groups published (each is one WAL record + one publish).
  uint64_t group_commits = 0;
  /// Writer batches committed across all groups (excludes per-writer
  /// failures such as malformed batches).
  uint64_t batches_committed = 0;
  /// WAL fsyncs issued by the write path (wal_sync_mode accounting; one
  /// sync covers every batch in its group).
  uint64_t wal_syncs = 0;
  /// Total microseconds writers spent queued before their group formed.
  uint64_t write_queue_wait_micros = 0;
  /// Batches-per-group distribution: mean / p50 / max.
  double group_size_avg = 0;
  double group_size_p50 = 0;
  double group_size_max = 0;
};

/// Accumulator behind GroupCommitStats. Not internally synchronized: the DB
/// calls OnGroupCommitted and Snapshot under its mutex.
class GroupCommitTracker {
 public:
  void OnGroupCommitted(size_t group_size, uint64_t committed_batches,
                        uint64_t queue_wait_micros, bool wal_synced);
  GroupCommitStats Snapshot() const;

 private:
  uint64_t group_commits_ = 0;
  uint64_t batches_committed_ = 0;
  uint64_t wal_syncs_ = 0;
  uint64_t write_queue_wait_micros_ = 0;
  Histogram group_sizes_;
};

}  // namespace metrics
}  // namespace talus

#endif  // TALUS_METRICS_WRITE_STATS_H_
