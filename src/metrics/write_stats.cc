#include "metrics/write_stats.h"

namespace talus {
namespace metrics {

void GroupCommitTracker::OnGroupCommitted(size_t group_size,
                                          uint64_t committed_batches,
                                          uint64_t queue_wait_micros,
                                          bool wal_synced) {
  group_commits_++;
  batches_committed_ += committed_batches;
  if (wal_synced) wal_syncs_++;
  write_queue_wait_micros_ += queue_wait_micros;
  group_sizes_.Add(static_cast<double>(group_size));
}

GroupCommitStats GroupCommitTracker::Snapshot() const {
  GroupCommitStats s;
  s.group_commits = group_commits_;
  s.batches_committed = batches_committed_;
  s.wal_syncs = wal_syncs_;
  s.write_queue_wait_micros = write_queue_wait_micros_;
  if (group_sizes_.Count() > 0) {
    s.group_size_avg = group_sizes_.Average();
    s.group_size_p50 = group_sizes_.Median();
    s.group_size_max = group_sizes_.Max();
  }
  return s;
}

}  // namespace metrics
}  // namespace talus
