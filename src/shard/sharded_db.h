// ShardedDB: the range-sharded engine frontend (DESIGN.md §3). Exposes the
// DB API over N range-partitioned shards, each a complete engine — own
// memtable, WAL, versions, table cache — while three things stay global:
//
//   * one exec::ThreadPool runs every shard's flushes and compactions (and
//     opens the shards in parallel at recovery),
//   * one shard::ShardBackpressure aggregates write debt so a single hot
//     shard throttles intake everywhere instead of only its own range,
//   * one shard::SequenceAllocator issues sequence numbers, whose visible
//     watermark makes snapshots, scans, and iterators consistent ACROSS
//     shards: every read pins all shards at one global sequence.
//
// Put/Delete/Get route by key. A Write whose batch spans shards claims one
// contiguous sequence range, commits per-shard sub-batches at pre-assigned
// offsets inside it (DB::WriteAt, dispatched concurrently), and publishes
// the range once — so a successful multi-shard batch is atomic to every
// snapshot. Failure is weaker (see Write's contract): a crash or a
// per-shard error can leave the batch partially applied, exactly like a
// multi-store transaction without 2PC.
//
// An acknowledged write is visible: Put, Delete and Write return OK only
// once the allocator's watermark covers the write's sequences, so a Get or
// snapshot taken after the ack sees it. A commit whose range sits above
// another shard's still-unpublished one waits for that shard.
//
// shard_count == 1 behaves bit-identically to a standalone DB (same scan
// results, same talus.stats text) — the allocator degenerates to the
// single-engine last_sequence_ and GetProperty passes straight through.
//
// To serve a ShardedDB over the network, hand it to server::Server
// (src/server/server.h, DESIGN.md §8): the wire protocol fronts exactly
// this API — GET/PUT/DELETE/WRITE/SCAN/PROPERTY — and pipelined client
// writes coalesce into the same Write() batch path.
#ifndef TALUS_SHARD_SHARDED_DB_H_
#define TALUS_SHARD_SHARDED_DB_H_

#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "exec/thread_pool.h"
#include "lsm/db.h"
#include "shard/backpressure.h"
#include "shard/sequence_allocator.h"
#include "shard/shard_router.h"

namespace talus {
namespace shard {

class ShardedDB {
 public:
  /// Opens (creating if missing) a sharded store at options.path with
  /// options.shard_count shards in shard-<i>/ subdirectories. Split points
  /// come from options.shard_split_points (else a uniform prefix split)
  /// and are fixed at creation: reopening with different ones fails.
  /// Shards are opened in parallel on the shared pool.
  static Status Open(const DbOptions& options,
                     std::unique_ptr<ShardedDB>* dbptr);
  ~ShardedDB();
  ShardedDB(const ShardedDB&) = delete;
  ShardedDB& operator=(const ShardedDB&) = delete;

  Status Put(const Slice& key, const Slice& value);
  Status Delete(const Slice& key);
  /// A batch spanning shards commits one contiguous sequence range,
  /// published once after every shard applied — so a SUCCESSFUL
  /// multi-shard Write is atomic to every snapshot. Atomicity does not
  /// survive failure: a crash between sub-commits (per-shard WALs, no
  /// 2PC) or an error from one shard (the others' sub-batches are already
  /// durably committed) can leave the batch partially applied; the error
  /// is returned so the caller knows.
  Status Write(const WriteBatch& batch);
  Status Get(const Slice& key, std::string* value);
  Status Get(const Slice& key, std::string* value, const Snapshot* snapshot);

  /// Pins every shard at one global sequence (the allocator watermark).
  const Snapshot* GetSnapshot();
  void ReleaseSnapshot(const Snapshot* snapshot);

  /// Cross-shard merging iterator pinned at one global sequence; disjoint
  /// ranges make the merge a concatenation in shard order. Forward-only,
  /// must not outlive the ShardedDB.
  std::unique_ptr<Iterator> NewIterator();
  /// Collects up to `count` live entries with key >= start across shards,
  /// observing one consistent global snapshot.
  Status Scan(const Slice& start, size_t count,
              std::vector<std::pair<std::string, std::string>>* out);

  Status FlushMemTable();
  Status CompactAll();

  /// Same names as DB::GetProperty, aggregated across shards, plus
  /// "talus.shards" — a per-shard breakdown (range, data bytes, runs, and
  /// the shard's own talus.stats keys). "talus.latency" reports fleet-wide per-op
  /// percentiles (exact merge of the per-shard histograms) and
  /// "talus.events" the shared event ring every shard emits into. With one
  /// shard every property passes through bit-identically.
  bool GetProperty(const std::string& property, std::string* value);

  uint64_t ApproximateDataBytes() const;
  std::string DebugString() const;

  /// The per-shard counter snapshots merged row by row under the counter
  /// table's shard rules (metrics/counters.h).
  metrics::CounterSnapshot AggregatedCounters() const;
  /// Exact fleet-wide per-op latency merge, indexed by obs::OpType.
  std::vector<Histogram> GetLatencyHistograms() const;
  /// Prometheus exposition of the aggregated counters, merged latency
  /// histograms, and fleet-wide talus_amp_* families (same talus_*
  /// families as DB::DumpPrometheus). The network layer serves this text
  /// at HTTP `GET /metrics` with its talus_server_* families appended
  /// (server::Server::MetricsText, DESIGN.md §8; docs/OPERATIONS.md).
  std::string DumpPrometheus() const;
  /// Fleet-wide amplification accounting: field-wise sum of every shard's
  /// cumulative DB::GetAmpSnapshot() (live-space fields included). All
  /// zeros when DbOptions::enable_amp_stats is off.
  obs::AmpSnapshot AggregatedAmpSnapshot() const;
  /// The fleet-level stats snapshotter behind "talus.snapshots" (null
  /// unless stats_snapshot_interval_ms > 0). One snapshotter samples the
  /// whole store; the per-shard ones are disabled at Open.
  obs::StatsSnapshotter* stats_snapshotter() { return snapshotter_.get(); }
  /// One adaptive-tuning pass over every shard (DESIGN.md §9): each shard
  /// senses its own drift window, navigates, and retunes independently —
  /// a read-heavy shard can go leveled while its write-heavy neighbour
  /// goes tiered. The fleet timer calls exactly this; tests and benches
  /// call it directly for a deterministic cadence.
  void TuneNow();
  /// The fleet-level tuner TIMER (null unless adaptive_tuning with
  /// tune_interval_ms > 0). Decision state lives in the per-shard tuners
  /// (shard(i)->adaptive_tuner()); this object only paces TuneNow.
  tune::AdaptiveTuner* adaptive_tuner() { return fleet_tuner_.get(); }
  /// The shared event ring every shard emits into (one globally ordered
  /// stream; cross-shard causality preserved).
  obs::EventRing* event_ring() { return ring_; }

  size_t shard_count() const { return shards_.size(); }
  DB* shard(size_t i) { return shards_[i].get(); }
  const ShardRouter& router() const { return router_; }
  /// Global visibility watermark (largest sequence applied everywhere).
  SequenceNumber VisibleSequence() const { return alloc_.visible(); }

 private:
  ShardedDB() = default;

  DB* Route(const Slice& key) { return shards_[router_.ShardFor(key)].get(); }
  /// Registers a snapshot at `sequence` in every shard; out lives until
  /// ReleaseChildren. Guards cross-shard pins against concurrent
  /// tombstone-GC (see NewIterator's implementation comment).
  void PinAllShards(SequenceNumber sequence,
                    std::vector<const Snapshot*>* children);
  void ReleaseChildren(const std::vector<const Snapshot*>& children);
  std::unique_ptr<Iterator> NewIteratorAt(SequenceNumber sequence);
  /// One fleet-wide JSONL stats sample (the snapshotter's SampleFn):
  /// merged amp snapshot, per-shard drift evaluations (max score; each
  /// shard emits its own kAmpSample/kModelDrift into the shared ring),
  /// merged latency p99s.
  std::string BuildStatsSample();

  DbOptions options_;  // As passed (env, path, shard_count, ...).
  ShardRouter router_;
  SequenceAllocator alloc_;
  std::unique_ptr<ShardBackpressure> backpressure_;
  // Shared event ring, passed to every shard via DbOptions::event_ring.
  // Declared before shards_ so it outlives them: shard destructors still
  // emit (GC events) while draining. ring_ is owned_ring_ unless the caller
  // lent a ring through DbOptions::event_ring.
  std::unique_ptr<obs::EventRing> owned_ring_;
  obs::EventRing* ring_ = nullptr;
  // Declared before shards_ so shards (whose schedulers drain jobs onto the
  // pool) are destroyed first, then the pool.
  std::unique_ptr<exec::ThreadPool> pool_;
  std::vector<std::unique_ptr<DB>> shards_;
  // Fleet-level stats snapshotter; its SampleFn touches every shard and
  // the pool, so ~ShardedDB stops it before anything else is torn down.
  std::unique_ptr<obs::StatsSnapshotter> snapshotter_;
  // Fleet-level tuner timer (ticks TuneNow across all shards; per-shard
  // tuners are opened with interval 0 so only this one thread paces the
  // fleet, mirroring the snapshotter). Stopped first in ~ShardedDB: its
  // tick walks every shard.
  std::unique_ptr<tune::AdaptiveTuner> fleet_tuner_;

  // Live cross-shard snapshots → their per-shard registrations.
  std::mutex snapshot_mu_;
  std::unordered_map<const Snapshot*, std::vector<const Snapshot*>>
      snapshot_children_;
};

}  // namespace shard
}  // namespace talus

#endif  // TALUS_SHARD_SHARDED_DB_H_
