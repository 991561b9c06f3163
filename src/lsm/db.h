// DB: the talus storage engine facade. Two execution modes (DESIGN.md §2):
//
//  * ExecutionMode::kInline (default): flushes and compactions run inline on
//    the write path, which (a) makes every experiment deterministic and
//    (b) surfaces compaction-induced write stalls directly in the
//    windowed-throughput metric — the same phenomenon the paper measures
//    through background-compaction backpressure.
//  * ExecutionMode::kBackground: the write path only switches a full
//    memtable onto an immutable queue; flushes and compactions execute as
//    prioritized jobs on a thread pool (exec/job_scheduler.h) and writers
//    are paced by slowdown/stop backpressure (exec/stall_controller.h).
//    Put/Delete/Write/Get/Scan/snapshots are then safe to call from any
//    number of threads.
//
// Locking: one mutex guards the mutable DB state (memtables, version
// pointer, WAL, stats, snapshots, GC list). The read path does NOT hold it:
// Get/Scan/NewIterator pin a read::ReadView in one O(1) critical section and
// then run lock-free against the immutable Version, the lock-free-read
// memtables, and the sharded table cache (DESIGN.md §2.3/§2.7). The write
// path holds it only for two short critical sections per commit group:
// writers funnel through a group-commit queue (write/write_queue.h), and the
// group leader performs the WAL append, the amortized sync, and the memtable
// inserts with the mutex released (DESIGN.md §2.9). Background flush jobs
// drop the mutex while building SST files from an immutable memtable, and
// background compactions drop it for their whole merge stage (plan → merge →
// conflict-checked install, DESIGN.md §2.8); all metadata installation
// happens with the mutex held. That is one append + sync of the MANIFEST
// log per install (lsm/manifest.h); unlinking obsolete SSTs, retired WALs
// and rolled MANIFESTs happens off the mutex on a per-DB reaper, a fixed
// set of kUnlinkThreads workers, in background mode (DESIGN.md §2.7). Jobs
// wait for the reaper only while more than kMaxUnlinkDebt files are still
// to be unlinked, so a flush never queues behind a large compaction's
// batch.
#ifndef TALUS_LSM_DB_H_
#define TALUS_LSM_DB_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include <set>

#include "cache/lru_cache.h"
#include "compaction/compaction_executor.h"
#include "compaction/compaction_plan.h"
#include "exec/job_scheduler.h"
#include "exec/stall_controller.h"
#include "exec/thread_pool.h"
#include "lsm/manifest.h"
#include "lsm/options.h"
#include "lsm/version.h"
#include "lsm/write_batch.h"
#include "mem/memtable.h"
#include "metrics/counters.h"
#include "obs/amp_tracker.h"
#include "obs/event_ring.h"
#include "obs/latency_recorder.h"
#include "obs/model_drift.h"
#include "obs/stats_snapshotter.h"
#include "policy/growth_policy.h"
#include "read/read_view.h"
#include "read/table_cache.h"
#include "tune/adaptive_tuner.h"
#include "wal/log_writer.h"
#include "write/write_queue.h"

namespace talus {

namespace shard {
class ShardedDB;
}  // namespace shard

/// Read view pinned at a point in time. Obtained from DB::GetSnapshot();
/// versions visible to a live snapshot survive compactions until the
/// snapshot is released.
class Snapshot {
 public:
  SequenceNumber sequence() const { return sequence_; }

 private:
  friend class DB;
  friend class shard::ShardedDB;  // Cross-shard snapshots (DESIGN.md §3).
  explicit Snapshot(SequenceNumber s) : sequence_(s) {}
  SequenceNumber sequence_;
};

class DB {
 public:
  /// Threads a background-mode DB unlinks obsolete files on. A constant,
  /// not an option: the measured gain levels off here (DESIGN.md §2.7).
  static constexpr int kUnlinkThreads = 4;
  /// Files handed to those threads but not unlinked yet beyond which a
  /// flush or compaction job waits before handing over its own batch.
  /// Smaller jobs never queue behind a large one (DESIGN.md §2.7).
  static constexpr size_t kMaxUnlinkDebt = 128;

  static Status Open(const DbOptions& options, std::unique_ptr<DB>* dbptr);
  ~DB();
  DB(const DB&) = delete;
  DB& operator=(const DB&) = delete;

  Status Put(const Slice& key, const Slice& value);
  Status Delete(const Slice& key);
  /// Applies the batch atomically (one WAL record, contiguous sequences).
  /// Batches naming an empty key fail with InvalidArgument as a whole —
  /// their commit group is unaffected (DESIGN.md §2.9).
  Status Write(const WriteBatch& batch);
  /// Sharding layer only (DESIGN.md §3): commits `batch` at a sequence
  /// range the caller pre-claimed from the shared SequenceAllocator
  /// ([base_seq, base_seq + batch.Count())). The range is NOT published to
  /// the allocator here — the caller publishes once every shard of a
  /// multi-shard batch has applied its part, making the batch atomic under
  /// the cross-shard visibility watermark. Requires
  /// DbOptions::sequence_allocator.
  Status WriteAt(const WriteBatch& batch, SequenceNumber base_seq);
  Status Get(const Slice& key, std::string* value);
  /// Point lookup against a pinned snapshot (nullptr = latest).
  Status Get(const Slice& key, std::string* value, const Snapshot* snapshot);

  /// Pins the current state for repeatable reads. Must be released.
  const Snapshot* GetSnapshot();
  /// Registers a snapshot at an externally-chosen sequence (the sharding
  /// layer pins every shard at one global sequence). Must be released like
  /// any snapshot.
  const Snapshot* GetSnapshotAt(SequenceNumber sequence);
  void ReleaseSnapshot(const Snapshot* snapshot);

  /// Manual major compaction: merges every run into a single run at the
  /// bottommost non-empty level (reclaims tombstones and shadowed
  /// versions not pinned by snapshots). In background mode, drains pending
  /// background work first.
  Status CompactAll();

  /// Introspection. Returns false for unknown names. Every property is
  /// also fetchable over the wire via the PROPERTY opcode
  /// (docs/PROTOCOL.md) when the DB is served by server::Server; the
  /// operator-facing guide to reading them is docs/OPERATIONS.md.
  ///   "talus.stats"      engine counters, incl. stall split by regime/cause
  ///   "talus.levels"     per-level shape
  ///   "talus.cstats"     per-level compaction accounting
  ///   "talus.num-runs"   total sorted runs
  ///   "talus.data-bytes" approximate live logical bytes
  ///   "talus.exec"       background execution / scheduler state
  ///   "talus.latency"    per-op latency histograms, one line per op:
  ///                      `op=put count=N p50_us=.. p99_us=.. p999_us=..
  ///                      max_us=.. avg_us=..` (empty string when
  ///                      enable_latency_stats is off; DESIGN.md §6.1)
  ///   "talus.events"     the in-memory event ring, oldest first:
  ///                      `t_us=.. seq=.. shard=.. event=.. a=.. b=..`
  ///                      (DESIGN.md §6.2)
  ///   "talus.amp"        per-level amplification accounting, cumulative
  ///                      then windowed (empty when enable_amp_stats is
  ///                      off; DESIGN.md §6.6)
  ///   "talus.model"      cost-model drift: predicted vs measured per-op
  ///                      cost for the active policy's design. Evaluates
  ///                      one window (advancing it) and emits kAmpSample /
  ///                      kModelDrift events (DESIGN.md §6.7)
  ///   "talus.snapshots"  the stats snapshotter's in-memory ring, one JSON
  ///                      sample per line, oldest first (empty unless
  ///                      stats_snapshot_interval_ms > 0; DESIGN.md §6.8)
  ///   "talus.tune"       adaptive-tuner state: active policy, decision
  ///                      counters, last predicted costs/gain ("enabled=0"
  ///                      when adaptive_tuning is off; DESIGN.md §9)
  bool GetProperty(const std::string& property, std::string* value);

  /// Collects up to `count` live entries with user key >= start, in order.
  /// Runs on a pinned ReadView without the DB mutex, so it observes a
  /// consistent snapshot while writers and background maintenance proceed.
  Status Scan(const Slice& start, size_t count,
              std::vector<std::pair<std::string, std::string>>* out);

  /// Forward iterator over live user keys (tombstones and shadowed versions
  /// skipped). Prev() is not supported. The iterator owns a ReadView: it
  /// pins the memtables AND the on-disk files it reads, observes the
  /// snapshot current at creation time, and survives concurrent flushes and
  /// compactions (obsolete files are deleted only after release). Must not
  /// outlive the DB.
  std::unique_ptr<Iterator> NewIterator();
  /// NewIterator pinned at an explicit visibility bound instead of the
  /// engine's latest sequence: entries written after `sequence` are
  /// invisible. The sharding layer pins every shard's iterator at one
  /// global sequence so a cross-shard scan is a consistent snapshot.
  std::unique_ptr<Iterator> NewIteratorAt(SequenceNumber sequence);

  /// Pins {version, memtables, sequence} in one O(1) critical section. The
  /// returned view keeps every SST it references alive; releasing the last
  /// reference returns the pins and lets deferred GC reclaim files.
  std::shared_ptr<const read::ReadView> AcquireReadView();

  /// Forces a memtable flush (and any compactions it triggers). In
  /// background mode, blocks until the flush, its compactions and the
  /// unlinks of the files they made obsolete complete.
  Status FlushMemTable();

  /// Not synchronized: meaningful only while no background job is running,
  /// and the reference is valid only until the next flush or compaction
  /// installs a successor version.
  const Version& current_version() const { return *current_; }
  /// Not synchronized: field reads may race background jobs in kBackground
  /// mode; quiesce (FlushMemTable) before precise accounting.
  const EngineStats& stats() const { return stats_; }
  /// Snapshot of the write pipeline's group-commit counters (§2.9).
  metrics::GroupCommitStats GetGroupCommitStats() const;
  /// Everything the counter table reports (talus.stats, /metrics), taken
  /// together under the mutex (metrics/counters.h).
  metrics::CounterSnapshot GetCounters() const;
  /// Per-op latency recorder; null when enable_latency_stats is off.
  obs::LatencyRecorder* latency_recorder() { return latency_.get(); }
  /// Per-level amplification tracker; null when enable_amp_stats is off.
  obs::AmpTracker* amp_tracker() { return amp_.get(); }
  /// Cumulative amp snapshot with live per-level space filled in from the
  /// current version (takes the mutex briefly). All-zero when
  /// enable_amp_stats is off. The sharding layer merges these per-shard
  /// snapshots into fleet-wide talus.amp.
  obs::AmpSnapshot GetAmpSnapshot() const;
  /// Evaluates one drift window against the active policy's cost model:
  /// feeds the windowed workload mix and windowed amp measurements into
  /// the model, emits a kAmpSample event (and kModelDrift when drift
  /// crosses the thresholds), then starts a new window. Returns a default
  /// sample when enable_amp_stats is off.
  obs::DriftSample EvaluateModelDrift();
  /// Time-series snapshotter; null unless stats_snapshot_interval_ms > 0.
  obs::StatsSnapshotter* stats_snapshotter() { return snapshotter_.get(); }
  /// Event ring (owned or borrowed via DbOptions::event_ring); never null.
  obs::EventRing* event_ring() { return ring_; }
  /// SnapshotAll() of the recorder, indexed by obs::OpType; all-empty
  /// histograms when latency stats are disabled. The sharding layer merges
  /// these per-shard vectors into fleet-wide talus.latency.
  std::vector<Histogram> GetLatencyHistograms() const;
  /// Prometheus text exposition of the engine counters and latency
  /// histograms (talus_* families; DESIGN.md §6.4).
  std::string DumpPrometheus() const;
  /// Largest sequence this engine has committed (recovery/sharding
  /// bookkeeping; takes the mutex).
  SequenceNumber LastSequence() const;
  GrowthPolicy* policy() { return policy_.get(); }

  // ---- Adaptive tuning: the sense→act loop (src/tune/, DESIGN.md §9) ----
  /// Installs `config` as the live growth policy without downtime: the new
  /// policy is swapped in under the DB mutex (after waiting out any active
  /// compaction chain), the drift monitor is re-anchored to the new design,
  /// a kPolicyChange event is emitted, the manifest persists the new config
  /// (so a reopen with adaptive_tuning resumes under it), and catch-up
  /// compactions converge the on-disk layout toward the new shape through
  /// the existing pipeline — subsequent flush/compaction planning follows
  /// the new policy automatically. Concurrent writers keep running: merges
  /// release the mutex in background mode exactly like policy-driven
  /// compactions, so the only write pressure is the usual backpressure.
  /// A config equal to the current one is a no-op. Scan results are
  /// unaffected — a policy shapes the tree, never its contents.
  Status ApplyPolicyConfig(const GrowthPolicyConfig& config);
  /// The config of the policy currently installed (reflects runtime
  /// retunes; takes the mutex).
  GrowthPolicyConfig CurrentPolicyConfig() const;
  /// One adaptive-tuning decision pass: consumes one drift window
  /// (EvaluateModelDrift, emitting kAmpSample/kModelDrift), runs the
  /// navigator, and applies a winning design via ApplyPolicyConfig. The
  /// tuner's timer calls this each interval; the sharded fleet timer and
  /// tests call it directly. No-op default decision when adaptive tuning
  /// is off.
  tune::TuneDecision RetuneNow();
  /// Per-engine tuner state; null unless adaptive tuning is active.
  tune::AdaptiveTuner* adaptive_tuner() { return tuner_.get(); }
  Env* env() { return options_.env; }
  const DbOptions& options() const { return options_; }
  LruCache* block_cache() { return block_cache_.get(); }
  read::TableCache* table_cache() { return table_cache_.get(); }

  /// Live logical data size: latest-version key+value bytes across tree and
  /// memtable (upper bound — shadowed versions in overlapping runs counted
  /// once per run).
  uint64_t ApproximateDataBytes() const;

  std::string DebugString() const;

 private:
  DB(const DbOptions& options);

  /// An immutable memtable awaiting flush, with the WAL that covers it.
  struct ImmPartition {
    std::shared_ptr<MemTable> mem;
    uint64_t wal_number = 0;
  };

  /// Per-call read-path counters, folded into stats_ under one brief lock.
  struct ReadProbeStats {
    uint64_t runs_probed = 0;
    uint64_t filter_negatives = 0;
    uint64_t block_reads = 0;
    uint64_t cache_hits = 0;
    // Per-level attribution for the amp tracker (filled only when amp
    // accounting is on; folded once per Get).
    obs::LookupProbe amp;
  };

  // ---- Group-commit write pipeline (DESIGN.md §2.9) ----
  /// Shared body of Put/Delete/Write: joins the writer queue, and — when
  /// this call wins leadership — commits a whole batch group: one short
  /// mutex section gates on stall/bg_error and claims the sequence range,
  /// then WAL append + amortized sync + memtable inserts run with the mutex
  /// released, and a second short section publishes last_sequence_, stats,
  /// and the flush trigger. Sequences are published only after durability
  /// and the inserts succeed, so a failed WAL append leaks nothing; the
  /// failure also latches wal_error_ (see its comment) so the range is
  /// never re-claimed.
  Status CommitGroup(const WriteBatch& my_batch);
  /// CommitGroup body over a caller-prepared writer (WriteAt sets the
  /// preassigned-sequence fields before joining the queue).
  Status CommitWriter(write::Writer* w);
  /// Applies wal_sync_mode: issues (or skips) the group's WAL sync. Leader
  /// only, mutex released. *synced reports whether an fsync was issued.
  Status MaybeSyncWal(wal::LogWriter* wal, bool* synced);
  Status MaybeStallLocked(std::unique_lock<std::mutex>& lock);
  Status SwitchMemTableLocked();
  SequenceNumber SmallestLiveSnapshotLocked() const;
  uint64_t ApproximateDataBytesLocked() const;

  // ---- Read path (mutex-free after the view pin; DESIGN.md §2.7) ----
  std::shared_ptr<const read::ReadView> AcquireReadViewLocked();
  /// View pinned at an explicit visibility bound (cross-shard snapshots).
  std::shared_ptr<const read::ReadView> AcquireReadViewAtLocked(
      SequenceNumber sequence);
  /// shared_ptr deleter target: returns the view's pins and runs GC.
  void ReleaseReadView(const read::ReadView* view);
  Status GetFromView(const read::ReadView& view, const LookupKey& lkey,
                     std::string* value, ReadProbeStats* probe);
  std::unique_ptr<Iterator> NewPinnedIterator(
      std::shared_ptr<const read::ReadView> view);

  // ---- Version lifecycle and obsolete-file GC ----
  /// Installs `next` as the current version (refs it, unrefs the old one).
  void InstallVersionLocked(std::unique_ptr<Version> next);
  /// Installs a padded copy when the current version has fewer than
  /// `min_levels` levels (versions are immutable; EnsureLevels on the
  /// current version would race lock-free readers).
  void EnsurePaddedLocked(size_t min_levels);
  /// Queues files dropped from the latest version for deferred deletion.
  void MarkObsoleteLocked(std::vector<FileMetaPtr> files);
  /// Moves queued SSTs whose last reference is the queue itself (no
  /// version, view, or iterator still points at them) into unlink_batch_.
  void CollectObsoleteLocked();
  /// Collects, then unlinks unlink_batch_: inline, synchronously under the
  /// mutex (returning the first failure); in background mode by handing it
  /// to the reaper with the mutex released — when `bounded`, only once at
  /// most kMaxUnlinkDebt files are outstanding, so deletion debt never
  /// exceeds the cap plus one batch. With nothing to unlink the mutex is
  /// never released.
  Status ReapLocked(std::unique_lock<std::mutex>& lock, bool bounded = true);
  /// Blocks until the reaper has unlinked everything handed to it (no-op in
  /// inline mode). Called without the mutex.
  void DrainReaper();

  /// Full inline flush: memtable → L0, compaction loop, WAL rotation.
  Status DoFlushLocked(std::unique_lock<std::mutex>& lock);
  /// Shared flush core: merges `mem` into L0 per the policy's FlushMode.
  /// When `allow_unlock` is set (background tiering flushes), the mutex is
  /// released while SST files are built.
  Status FlushMemToL0Locked(MemTable* mem, std::unique_lock<std::mutex>& lock,
                            bool allow_unlock,
                            std::vector<FileMetaPtr>* obsolete);
  Status RunCompactionLoopLocked(std::unique_lock<std::mutex>& lock,
                                 bool background);

  // ---- Compaction pipeline: plan → merge → install (DESIGN.md §2.8) ----
  /// Resolves `req` against the current version into an immutable plan
  /// (bits-per-key, smallest snapshot, and subcompaction boundaries are
  /// captured here so the merge needs no DB state).
  Status PlanForRequestLocked(const CompactionRequest& req,
                              compaction::CompactionPlan* plan);
  /// Shared merge → conflict-check → install-version core of the pipeline.
  /// With `allow_unlock` the mutex is released for the merge stage and the
  /// install is conflict-checked: on a conflict the outputs are deleted,
  /// *installed stays false, and OK is returned — the caller re-plans
  /// against the fresh version. Without it the whole pipeline runs under
  /// the mutex and a conflict is impossible. On success the consumed files
  /// are appended to *obsolete and *result carries the merge accounting;
  /// the caller owns stats attribution and manifest installation.
  Status ExecutePlanLocked(
      const compaction::CompactionPlan& plan,
      std::unique_lock<std::mutex>& lock, bool allow_unlock,
      const compaction::CompactionExecutor::ExtraInputFactory& extra,
      compaction::CompactionExecutor::Result* result,
      std::vector<FileMetaPtr>* obsolete, bool* installed);
  /// Runs one policy request through plan + ExecutePlanLocked + compaction
  /// stats + manifest install. In inline mode (allow_unlock = false) this
  /// behaves bit-identically to the pre-pipeline engine.
  Status RunCompactionRequestLocked(const CompactionRequest& req,
                                    std::unique_lock<std::mutex>& lock,
                                    bool allow_unlock, bool* installed);
  /// Background leveling flush: merges `mem` (pinned by the caller across
  /// the unlock) with level 0's newest run via the executor with the mutex
  /// released, retrying on install conflicts. *merged stays false when the
  /// conflict-retry budget is exhausted; the caller then merges under the
  /// mutex instead.
  Status FlushMergeIntoRunPipelined(MemTable* mem,
                                    std::unique_lock<std::mutex>& lock,
                                    std::vector<FileMetaPtr>* obsolete,
                                    bool* merged);
  /// Queues merge outputs that never entered a version (failed or
  /// conflicted merges) for unlinking. They are invisible to every reader,
  /// so no pin check is needed.
  void DeleteUninstalledOutputs(const std::vector<FileMetaPtr>& outputs);
  /// Output-file geometry shared by flush and compaction sorted-output
  /// passes.
  compaction::OutputShape OutputShapeForDb();

  /// Converges a freshly switched-to leveled shape: merges every
  /// multi-run level into a single run (same-level, kReplaceInputs)
  /// through the normal pipeline, re-planning against the fresh version
  /// after each install or conflict. Tiering targets need no catch-up —
  /// they absorb any shape. Bounded attempts; leftover work is picked up
  /// by the policy's own loop.
  Status CatchUpCompactionsLocked(std::unique_lock<std::mutex>& lock);

  /// Commits the current state to the MANIFEST log (one append + sync;
  /// a roll also repoints CURRENT and queues the old log for unlinking).
  Status InstallManifestLocked();
  Status NewWalLocked();
  Status RecoverWalsLocked(uint64_t oldest_wal,
                           std::vector<uint64_t>* replayed);
  uint64_t OldestLiveWalLocked() const;
  double BitsPerKeyForLevelLocked(int level) const;

  // Background job bodies (run on pool threads). The outer functions wrap
  // the *Locked bodies with bg_jobs_pending_ bookkeeping.
  Status BackgroundFlush();
  Status BackgroundFlushLocked(std::unique_lock<std::mutex>& lock);
  Status BackgroundCompaction();
  void ScheduleFlushLocked();
  void ScheduleCompactionLocked();
  /// Reports this shard's write debt (immutable queue depth, L0 run count)
  /// to the sharded store's unified backpressure view. No-op unless
  /// DbOptions::shard_backpressure is set.
  void ReportBackpressureLocked();

  bool is_background() const {
    return options_.execution_mode == ExecutionMode::kBackground;
  }

  DbOptions options_;
  std::unique_ptr<GrowthPolicy> policy_;
  std::unique_ptr<LruCache> block_cache_;
  std::unique_ptr<read::TableCache> table_cache_;
  // Merge-stage executor (src/compaction/). Stateless apart from
  // observability counters; safe to call with the mutex released.
  std::unique_ptr<compaction::CompactionExecutor> compaction_exec_;

  // Guards every mutable field below unless noted otherwise.
  mutable std::mutex mutex_;
  // Signaled when background work completes (stalled writers, FlushMemTable
  // waiters re-check their conditions).
  std::condition_variable bg_cv_;

  std::shared_ptr<MemTable> mem_;
  std::deque<ImmPartition> imm_;  // Oldest first; back() is newest.
  std::unique_ptr<wal::LogWriter> wal_;
  uint64_t wal_number_ = 0;

  // ---- Group-commit write pipeline (DESIGN.md §2.9) ----
  // The writer queue has its own internal lock, taken either with no other
  // lock held or inside mutex_ (never the reverse).
  std::unique_ptr<write::WriteQueue> write_queue_;
  // Group-commit counters; updated and snapshotted under mutex_.
  metrics::GroupCommitTracker write_stats_;
  // True while a group leader is appending to the WAL / inserting into
  // mem_ with the mutex released. FlushMemTable waits for it to clear
  // before switching or flushing the active memtable, so a mid-commit
  // insert is never flushed out from under its group.
  bool commit_in_flight_ = false;
  // kInterval sync bookkeeping. Leader-only: reads and writes happen off
  // the mutex but are serialized (and ordered) by queue leadership handoff.
  uint64_t last_wal_sync_micros_ = 0;
  // First write-path WAL append/sync failure; all subsequent writes fail
  // fast with it (reads and flushes of already-committed state continue).
  // Latching is what keeps sequences unique: a failed append may still
  // have persisted its record, so re-claiming the failed group's range
  // could otherwise put two records with the same base_seq in the WAL and
  // make recovery replay duplicate sequences.
  Status wal_error_;

  // Current version. Heap-allocated and refcounted: the DB holds one
  // reference, every ReadView one more. Mutations install a successor copy
  // (InstallVersionLocked) instead of editing in place, so lock-free
  // readers always walk an immutable object.
  Version* current_ = nullptr;
  // Obsolete SSTs awaiting deletion: each entry is the GC queue's own
  // reference; a file is deleted when that reference is the last one.
  std::vector<FileMetaPtr> gc_pending_;
  // Mirror of gc_pending_.size(): lets view release skip the mutex when
  // nothing is queued.
  std::atomic<size_t> gc_pending_count_{0};
  // Paths the durable manifest does not name (unpinned obsolete SSTs,
  // outputs of failed merges, retired WALs, rolled MANIFESTs), waiting for
  // the next ReapLocked.
  std::vector<std::string> unlink_batch_;
  // The MANIFEST log; commits happen under the mutex.
  std::unique_ptr<ManifestLog> manifest_;

  // Atomic so background SST builds can allocate file numbers while the
  // mutex is released.
  std::atomic<uint64_t> next_file_number_{1};
  uint64_t next_run_id_ = 1;
  SequenceNumber last_sequence_ = 0;
  uint64_t flush_count_ = 0;

  // Live operation-mix estimator, shared with self-designing policies.
  WorkloadMixTracker mix_tracker_;

  // Sequences pinned by live snapshots (multiset: snapshots may coincide).
  std::multiset<SequenceNumber> snapshot_seqs_;

  EngineStats stats_;

  // ---- Observability (src/obs/, DESIGN.md §6) ----
  // Null when enable_latency_stats is off: the hot paths then skip both the
  // clock reads and the recorder stores (ScopedOpTimer's null fast path).
  std::unique_ptr<obs::LatencyRecorder> latency_;
  // ring_ points at owned_ring_ unless DbOptions::event_ring lends a shared
  // one (sharded stores). Emits happen inside and outside mutex_; the ring
  // has its own lock.
  std::unique_ptr<obs::EventRing> owned_ring_;
  obs::EventRing* ring_ = nullptr;
  // Null when enable_amp_stats is off (the read path then skips the probe
  // fold, mirroring latency_'s null fast path). Write-side hooks run under
  // mutex_; the tracker itself is lock-free.
  std::unique_ptr<obs::AmpTracker> amp_;
  // Null when amp stats are off (drift needs measured amplification).
  std::unique_ptr<obs::ModelDriftMonitor> drift_;
  // Null unless stats_snapshot_interval_ms > 0. ~DB stops it first thing:
  // its samples read engine state and may run on the shared pool, so it
  // must quiesce before anything else is torn down.
  std::unique_ptr<obs::StatsSnapshotter> snapshotter_;
  // Adaptive tuner (null unless adaptive_tuning is active): decision state
  // plus, for a standalone DB, the timer driving RetuneNow. Stopped first
  // in ~DB for the same reason as the snapshotter.
  std::unique_ptr<tune::AdaptiveTuner> tuner_;
  /// Fills the per-level live_sst/live_payload fields from current_.
  void FillLiveSpaceLocked(obs::AmpSnapshot* snap) const;
  /// One snapshotter JSON sample line (amp + latency + drift).
  std::string BuildStatsSample();

  // ---- Background execution (null / unused under kInline) ----
  // The pool is either owned (standalone DB) or borrowed from the sharded
  // store (DbOptions::shared_pool); only an owned pool is shut down here.
  std::unique_ptr<exec::ThreadPool> owned_pool_;
  exec::ThreadPool* pool_ = nullptr;
  std::unique_ptr<exec::JobScheduler> scheduler_;
  std::unique_ptr<exec::StallController> stall_;
  // Only one flush job / one compaction chain does work at a time; extra
  // jobs observe the guard and return (their work is picked up by the
  // active job's drain loop).
  bool flush_active_ = false;
  bool compaction_active_ = false;
  // Scheduled jobs that have not finished their DB work yet. Maintained
  // under mutex_ (unlike the scheduler's own counters) so stall waits on
  // bg_cv_ can use it in their predicate without missed wakeups: the
  // decrement and the notify happen under the same mutex the waiter holds.
  int bg_jobs_pending_ = 0;
  // First background failure; writers fail fast once set.
  Status bg_error_;
  // Unlinks obsolete files on kUnlinkThreads workers (background mode only;
  // null under kInline). ~DB resets it, which drains it, with the mutex
  // released.
  class Reaper;
  std::unique_ptr<Reaper> reaper_;
};

}  // namespace talus

#endif  // TALUS_LSM_DB_H_
