// SequenceAllocator: the global sequence authority shared by every shard of
// a ShardedDB (DESIGN.md §3). Two numbers matter:
//
//   * the *claim* counter — commit groups reserve contiguous ranges from it
//     (one Claim per group, so contention is one fetch per group, not per
//     write);
//   * the *visible* watermark — the largest sequence V such that every
//     sequence <= V has been fully applied (WAL + memtable) in its shard.
//
// Shards publish a claimed range once its inserts are complete; the
// watermark advances only while the published ranges are contiguous, so a
// reader that pins views at `visible()` observes a consistent cross-shard
// snapshot: no half-applied commit can leak in, because its range either
// blocks the watermark or lies entirely above it. Multi-shard batches claim
// ONE contiguous range for all their sub-batches and publish it once every
// shard applied, which makes the whole batch atomic under the watermark.
//
// A failed commit must still publish (burn) its range: the shard latches
// the write error anyway, and an unpublished hole would wedge the watermark
// for every other shard.
//
// A range published above a hole is applied but not yet visible, so a
// commit acknowledges its writer only after WaitVisible covers its range:
// a read issued after the ack then always sees the write.
//
// With a single shard the claim and publish of one group always complete
// before the next group claims (queue leadership serializes them), so
// visible() == last published sequence — exactly the single-engine
// last_sequence_ semantics, which is what keeps shard_count=1 bit-identical
// to the unsharded engine.
#ifndef TALUS_SHARD_SEQUENCE_ALLOCATOR_H_
#define TALUS_SHARD_SEQUENCE_ALLOCATOR_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <map>
#include <mutex>

#include "lsm/dbformat.h"

namespace talus {
namespace shard {

class SequenceAllocator {
 public:
  SequenceAllocator() = default;
  SequenceAllocator(const SequenceAllocator&) = delete;
  SequenceAllocator& operator=(const SequenceAllocator&) = delete;

  /// Reserves `count` sequences; returns the first. The range stays
  /// invisible until Publish. count == 0 is allowed and claims nothing.
  SequenceNumber Claim(uint64_t count);

  /// Marks [base, base + count) fully applied. Advances the visible
  /// watermark across every contiguously-published range. Out-of-order
  /// publishes are buffered until the gap below them fills.
  void Publish(SequenceNumber base, uint64_t count);

  /// Largest sequence V with everything <= V applied. Lock-free.
  SequenceNumber visible() const {
    return visible_.load(std::memory_order_acquire);
  }

  /// Blocks until visible() >= `seq`. Every range at or below `seq` must
  /// already be claimed by a commit that publishes it without waiting on
  /// the caller.
  void WaitVisible(SequenceNumber seq);

  /// Recovery: restarts allocation after `last` with the watermark at
  /// `last`. Must not race Claim/Publish (callers quiesce first).
  void Reset(SequenceNumber last);

 private:
  mutable std::mutex mu_;
  SequenceNumber next_ = 1;  // Next sequence Claim hands out.
  // Published ranges above the watermark, keyed by base → end (exclusive),
  // awaiting the gap below them to fill.
  std::map<SequenceNumber, SequenceNumber> pending_;
  std::condition_variable advanced_;  // The watermark moved.
  std::atomic<SequenceNumber> visible_{0};
};

}  // namespace shard
}  // namespace talus

#endif  // TALUS_SHARD_SEQUENCE_ALLOCATOR_H_
