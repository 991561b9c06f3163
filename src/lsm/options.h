// DbOptions: engine configuration. Defaults mirror the paper's experimental
// setting scaled to simulator size (DESIGN.md §4): 1KB entries, buffer =
// target file size, size ratio T = 6, 5 bits-per-key Bloom filters.
#ifndef TALUS_LSM_OPTIONS_H_
#define TALUS_LSM_OPTIONS_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "env/env.h"
#include "filter/bloom.h"
#include "filter/filter_allocator.h"
#include "policy/policy_config.h"

namespace talus {

namespace exec {
class ThreadPool;
}  // namespace exec
namespace obs {
class EventRing;
}  // namespace obs
namespace shard {
class SequenceAllocator;
class ShardBackpressure;
}  // namespace shard

/// When the write path fsyncs the WAL (DESIGN.md §2.9). Syncs are issued by
/// the group-commit leader, so one sync covers every batch in its group.
enum class WalSyncMode {
  /// Never sync on the write path (flush/manifest installs still sync).
  /// A power loss may drop the unsynced WAL tail, never consistency.
  kNone,
  /// One sync per commit group: full durability with the cost amortized
  /// across the group's batches (RocksDB group commit).
  kPerGroup,
  /// Sync at most once per wal_sync_interval_micros: bounded-staleness
  /// durability for ingest-heavy workloads. The bound holds while writes
  /// keep arriving (syncs ride the write path); the tail of a burst that
  /// goes idle stays unsynced until the next write or flush rotation.
  kInterval,
};

/// How flushes and compactions execute (DESIGN.md §2).
enum class ExecutionMode {
  /// Flushes and compactions run inline on the write path. Deterministic:
  /// every paper experiment reproduces bit-identically. The default.
  kInline,
  /// Flushes and compactions run on a background thread pool with
  /// slowdown/stop write backpressure (exec/). The DB becomes safe for
  /// concurrent Put/Get/Scan/Write from many threads.
  kBackground,
};

struct DbOptions {
  Env* env = nullptr;  // Required.
  std::string path;    // Required: directory for SSTs, WAL, MANIFEST.

  uint64_t write_buffer_size = 1 << 20;  // B: memtable capacity in bytes.
  uint64_t target_file_size = 1 << 20;   // Max SST size (RocksDB-style).
  size_t block_size = 4096;
  int block_restart_interval = 16;

  size_t block_cache_bytes = 8 << 20;
  /// Max open SstReaders cached by the read path's table cache (pinned
  /// handles keep in-use readers alive past eviction). DESIGN.md §2.7.
  size_t table_cache_open_files = 512;

  double bloom_bits_per_key = 5.0;
  FilterLayout filter_layout = FilterLayout::kStatic;
  /// Filter wire format for newly written SSTs. Readers auto-detect per
  /// file, so this can change across restarts without breaking old files.
  /// kLegacy by default to keep the seed's on-disk bytes reproducible;
  /// kBlocked makes every filter probe a single-cache-line access.
  FilterVariant filter_variant = FilterVariant::kLegacy;

  bool enable_wal = true;
  /// When the write path fsyncs the WAL; see WalSyncMode. kNone by default
  /// like production systems.
  WalSyncMode wal_sync_mode = WalSyncMode::kNone;
  /// kInterval only: minimum microseconds between write-path WAL syncs.
  uint64_t wal_sync_interval_micros = 10000;
  // Replay WAL / manifest on open when present.
  bool create_if_missing = true;

  // ---- Group-commit write pipeline (DESIGN.md §2.9) ----
  /// Byte budget for one commit group: the leader absorbs queued batches
  /// until their combined encoded size would exceed this (its own batch
  /// always commits). Larger groups amortize WAL appends and syncs further
  /// but lengthen the tail of the writers at the back of the group.
  uint64_t max_write_group_bytes = 1 << 20;

  GrowthPolicyConfig policy;

  // ---- Range sharding (shard::ShardedDB, DESIGN.md §3) ----
  /// Number of range-partitioned shards shard::ShardedDB::Open creates,
  /// each a full engine (own memtable, WAL, versions, table cache) behind
  /// one shared thread pool and one global sequence allocator. Plain
  /// DB::Open ignores it. 1 behaves bit-identically to the single engine.
  int shard_count = 1;
  /// Explicit split points (shard_count - 1 strictly ascending keys); shard
  /// i owns [point[i-1], point[i]). Empty = uniform split of the 8-byte
  /// key-prefix space (see shard::ShardRouter::DefaultBoundaries — pass
  /// explicit points when keys share a long common prefix). Fixed at store
  /// creation and persisted in the SHARD manifest.
  std::vector<std::string> shard_split_points;
  // Internal wiring, set by ShardedDB::Open on the per-shard options it
  // derives. User code leaves these untouched.
  shard::SequenceAllocator* sequence_allocator = nullptr;  // Global seqs.
  shard::ShardBackpressure* shard_backpressure = nullptr;  // Unified stall.
  size_t shard_index = 0;  // This engine's index within the sharded store.
  /// Borrowed pool shared by every shard's background jobs; the DB neither
  /// owns nor shuts it down. Null = the DB creates its own.
  exec::ThreadPool* shared_pool = nullptr;

  // ---- Background execution (ExecutionMode::kBackground only) ----
  ExecutionMode execution_mode = ExecutionMode::kInline;
  /// Flush/compaction threads. Deliberately separate from the network
  /// layer's request workers (server::ServerOptions::worker_threads) so
  /// request execution and engine maintenance cannot starve each other;
  /// a served DB should run kBackground (DESIGN.md §8).
  int num_background_threads = 2;
  /// Immutable memtables allowed before writers stop.
  size_t max_immutable_memtables = 2;
  /// Level-0 run counts triggering write slowdown / stop.
  size_t l0_slowdown_runs = 12;
  size_t l0_stop_runs = 20;
  /// Delay injected per write while in the slowdown regime.
  uint64_t slowdown_delay_micros = 1000;
  /// Upper bound on key-range subcompactions a single compaction merge is
  /// split into (DESIGN.md §2.8). In kBackground mode the ranges fan out
  /// over the background thread pool; in kInline mode they run serially, so
  /// 1 (the default) preserves the seed's bit-identical behavior while
  /// larger values stay scan-equivalent.
  int max_subcompactions = 1;

  // ---- Observability (src/obs/, DESIGN.md §6) ----
  /// Record per-op latency histograms (talus.latency) via the lock-free
  /// obs::LatencyRecorder. On by default: the recorder costs <3% at 8
  /// concurrent writers (DESIGN.md §6.5) and tail latency is a first-class
  /// metric. When off the DB allocates no recorder and the hot paths skip
  /// the clock reads entirely.
  bool enable_latency_stats = true;
  /// Capacity of the in-memory event ring behind talus.events.
  size_t event_ring_size = 1024;
  /// When non-empty, every engine event is appended to this file as one
  /// JSON object per line (the talus.events taxonomy) for postmortem stall
  /// reconstruction. Ignored when event_ring is supplied (the owner of the
  /// shared ring decides where its trace goes).
  std::string trace_file_path;
  /// Borrowed shared event ring (ShardedDB passes its own to every shard so
  /// cross-shard events land in one ordered stream). Null = the DB owns a
  /// private ring of event_ring_size.
  obs::EventRing* event_ring = nullptr;
  /// Per-level amplification accounting (talus.amp, talus.model, the
  /// talus_amp_* Prometheus families) via the lock-free obs::AmpTracker.
  /// On by default: write-side hooks ride rare flush/compaction installs
  /// and the read-side probe fold costs one striped-atomic pass per Get
  /// (measured in DESIGN.md §6.9). When off the DB allocates no tracker
  /// and both properties return empty.
  bool enable_amp_stats = true;
  /// A talus.model evaluation flags drift (and emits kModelDrift) when the
  /// measured/predicted per-op cost ratio exceeds this factor in either
  /// direction.
  double model_drift_threshold = 4.0;
  /// ... or when the windowed workload mix moves more than this L1/2
  /// distance from the previous window (a workload flip the cost model's
  /// design inputs no longer reflect).
  double model_mix_shift_threshold = 0.35;
  /// When > 0, a background obs::StatsSnapshotter samples amp, latency and
  /// drift stats every this many milliseconds into a bounded in-memory
  /// ring (talus.snapshots) and, when stats_snapshot_path is set, an
  /// append-only JSONL time-series file. 0 disables the snapshotter.
  /// ShardedDB runs one fleet-level snapshotter instead of per-shard ones.
  uint64_t stats_snapshot_interval_ms = 0;
  /// Samples retained in the snapshotter's in-memory ring.
  size_t stats_snapshot_ring = 240;
  /// Snapshotter JSONL output file ("" = in-memory ring only).
  std::string stats_snapshot_path;

  // ---- Adaptive tuning (src/tune/, DESIGN.md §9) ----
  /// Close the paper's sense→act loop: a tune::AdaptiveTuner periodically
  /// re-solves the vertical cost model against the windowed measured mix
  /// and amplification, and — when the predicted win exceeds
  /// tune_hysteresis — switches the growth policy or retunes its size
  /// ratio at runtime via DB::ApplyPolicyConfig, emitting kPolicyChange.
  /// Requires enable_amp_stats (the tuner feeds on the measured windows)
  /// and a vertical-scheme policy (the family the cost model solves and
  /// the only shapes with a cheap live-migration path); ignored otherwise.
  /// A tuned store persists its current policy config in the manifest and
  /// re-resolves it on reopen, so a store reopened with adaptive_tuning
  /// keeps its tuned design rather than failing the policy-name check.
  bool adaptive_tuning = false;
  /// Cadence of the tuner's decision loop. Per engine; under
  /// shard::ShardedDB one fleet-level timer ticks every shard instead
  /// (per-shard timers are disabled at Open, mirroring the snapshotter).
  /// 0 = no timer: decisions happen only via explicit DB::RetuneNow()
  /// calls (tests drive this directly).
  uint64_t tune_interval_ms = 1000;
  /// Minimum predicted fractional cost win (model ζ ratio − 1) before the
  /// tuner switches designs — the band that prevents flapping when two
  /// designs are near-equal at the decision boundary.
  double tune_hysteresis = 0.35;
  /// Drift windows with fewer operations than this are skipped by the
  /// tuner: a thin window's mix estimate is noise, not workload.
  uint64_t tune_min_window_ops = 256;
  /// Decision ticks the tuner holds after a switch, letting the windowed
  /// measurements refill under the new shape before re-deciding.
  int tune_cooldown_ticks = 2;

  // CPU epsilons for the virtual clock (see env/io_stats.h).
  double cpu_cost_per_write = 0.02;
  double cpu_cost_per_read = 0.02;
};

}  // namespace talus

#endif  // TALUS_LSM_OPTIONS_H_
