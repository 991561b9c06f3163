// Writer / WriteGroup: the per-caller queue node and the per-commit batch
// group of the group-commit write pipeline (DESIGN.md §2.9). A Writer is
// stack-allocated by DB::CommitGroup for the duration of one Put/Delete/
// Write call; a WriteGroup is stack-allocated by the group leader and names
// the contiguous run of queued writers whose batches commit together with
// one WAL record and one (amortized) sync.
#ifndef TALUS_WRITE_WRITER_H_
#define TALUS_WRITE_WRITER_H_

#include <cstdint>
#include <vector>

#include "lsm/dbformat.h"
#include "lsm/write_batch.h"
#include "util/status.h"

namespace talus {
namespace write {

/// One queued write call. Lives on the caller's stack; every field except
/// `state` is owned by the group leader from the moment the writer joins the
/// queue until the leader marks it done (the caller only blocks and then
/// reads `status`). `state` is guarded by WriteQueue's internal mutex.
struct Writer {
  enum State : uint8_t {
    kWaiting,  // Queued behind the current group.
    kLeader,   // Front of the queue: this thread commits the group.
    kDone,     // Committed (or failed); `status` is final.
  };

  explicit Writer(const WriteBatch* b) : batch(b) {}
  Writer(const Writer&) = delete;
  Writer& operator=(const Writer&) = delete;

  const WriteBatch* batch;
  /// Final per-writer outcome. One malformed batch fails alone — it never
  /// poisons the rest of its group.
  Status status;
  /// First sequence number of this writer's sub-batch (leader-assigned,
  /// unless `preassigned`).
  SequenceNumber base_seq = 0;
  /// Sharding layer (DESIGN.md §3): base_seq was pre-claimed by the caller
  /// from the shared SequenceAllocator. The leader leaves it alone, keeps
  /// the range out of the group's own contiguous claim, and WAL-logs this
  /// sub-batch as its own record.
  bool preassigned = false;
  /// Preassigned writers only: when false the leader does not publish the
  /// range to the allocator — ShardedDB publishes a multi-shard batch's
  /// whole range itself once every shard applied, which is what makes the
  /// batch atomic under the cross-shard watermark.
  bool publish_sequence = true;
  /// When the writer first blocked behind another group (queue-wait
  /// accounting). Stays 0 for a writer that took leadership immediately,
  /// which keeps serial runs' stats bit-deterministic — no clock is read.
  uint64_t join_micros = 0;
  State state = kWaiting;
};

/// The batch group one leader commits. `writers[0]` is the leader; the rest
/// follow in queue order, which is also sequence-assignment order.
struct WriteGroup {
  std::vector<Writer*> writers;
  /// Sum over members of (group-build time - join time).
  uint64_t queue_wait_micros = 0;
};

}  // namespace write
}  // namespace talus

#endif  // TALUS_WRITE_WRITER_H_
