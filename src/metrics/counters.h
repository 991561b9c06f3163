// The engine counter table (DESIGN.md §6.3): every counter that
// GetProperty("talus.stats") and the Prometheus exposition report, named
// once. DB and ShardedDB render talus.stats from it, ShardedDB merges its
// shards by it, and DumpPrometheusText exports its Prometheus rows; nothing
// else lists the counters.
#ifndef TALUS_METRICS_COUNTERS_H_
#define TALUS_METRICS_COUNTERS_H_

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

#include "metrics/write_stats.h"
#include "obs/prometheus.h"
#include "read/table_cache.h"

namespace talus {

/// A counter bumped with relaxed atomics that copies by value, so a struct
/// of them keeps its implicit copy (a snapshot of each field).
class RelaxedCounter {
 public:
  RelaxedCounter() = default;
  RelaxedCounter(const RelaxedCounter& o) : v_(o.load()) {}
  RelaxedCounter& operator=(const RelaxedCounter& o) {
    v_.store(o.load());
    return *this;
  }
  uint64_t load() const { return v_.load(); }
  RelaxedCounter& operator+=(uint64_t d) {
    v_.fetch_add(d, std::memory_order_relaxed);
    return *this;
  }
  operator uint64_t() const { return load(); }

 private:
  std::atomic<uint64_t> v_{0};
};

/// Cumulative engine statistics (virtual-clock based where noted).
/// Write-path fields are updated under the DB mutex; read-path fields are
/// relaxed atomics because Get/Scan run without the mutex (DESIGN.md §2.7).
/// Copying takes a field-wise snapshot.
struct EngineStats {
  // Write path.
  uint64_t puts = 0;
  uint64_t deletes = 0;
  uint64_t flushes = 0;
  uint64_t compactions = 0;
  uint64_t flush_bytes_read = 0;  // Existing-SST bytes read by flush merges.
  uint64_t flush_bytes_written = 0;
  uint64_t compaction_bytes_read = 0;
  uint64_t compaction_bytes_written = 0;
  uint64_t user_payload_written = 0;  // Key+value bytes accepted from users.
  // Merge results discarded because a concurrent flush reshaped the plan's
  // inputs before install; the work was retried (DESIGN.md §2.8).
  uint64_t compaction_conflicts = 0;

  // Read path (mutex-free increments).
  RelaxedCounter gets;
  RelaxedCounter gets_found;
  RelaxedCounter scans;
  RelaxedCounter runs_probed;
  RelaxedCounter filter_negatives;
  RelaxedCounter data_block_reads;
  RelaxedCounter block_cache_hits;

  // Obsolete SSTs released for unlinking after their deferred-GC pin count
  // dropped to zero (DESIGN.md §2.7).
  uint64_t obsolete_files_deleted = 0;

  // Longest single inline flush+compaction stall, in virtual clock units.
  double max_stall_clock = 0;

  // Background execution mode (all zero under kInline).
  uint64_t memtable_switches = 0;   // Active → immutable handoffs.
  uint64_t bg_flushes = 0;          // Flushes executed by background jobs.
  uint64_t bg_compactions = 0;      // Compactions executed by background jobs.
  uint64_t stall_slowdowns = 0;     // Writes delayed by the slowdown regime.
  uint64_t stall_stops = 0;         // Writes blocked until debt retired.
  uint64_t stall_micros = 0;        // Wall time writers spent stalled (total).
  // Stall time split by regime (slowdown + stop == stall_micros) and stall
  // entries split by cause, so talus.stats says *why* writes stalled:
  // memtable = immutable-memtable debt, l0 = level-0 run debt.
  uint64_t stall_slowdown_micros = 0;
  uint64_t stall_stop_micros = 0;
  uint64_t stall_slowdowns_memtable = 0;
  uint64_t stall_slowdowns_l0 = 0;
  uint64_t stall_stops_memtable = 0;
  uint64_t stall_stops_l0 = 0;
  uint64_t max_imm_queue_depth = 0; // High-water immutable-memtable count.

  // Per-output-level compaction accounting (index = output level).
  struct LevelStats {
    uint64_t compactions = 0;
    uint64_t bytes_read = 0;
    uint64_t bytes_written = 0;
  };
  std::vector<LevelStats> level_stats;

  /// Physical bytes written per user payload byte.
  double WriteAmplification() const {
    if (user_payload_written == 0) return 0;
    return static_cast<double>(flush_bytes_written +
                               compaction_bytes_written) /
           static_cast<double>(user_payload_written);
  }
  /// Mean sorted runs probed per point lookup.
  double ReadAmplification() const {
    if (gets == 0) return 0;
    return static_cast<double>(runs_probed) / static_cast<double>(gets);
  }
};

namespace metrics {

/// Everything the counter table reads for one engine, taken together under
/// its DB mutex (DB::GetCounters).
struct CounterSnapshot {
  EngineStats engine;
  GroupCommitStats group;
  // The block cache's own counters: every lookup through it (foreground
  // reads only; merges bypass it), unlike engine.block_cache_hits, which
  // counts point-lookup probes.
  uint64_t bc_hits = 0;
  uint64_t bc_misses = 0;
  uint64_t bc_evictions = 0;
  uint64_t bc_usage = 0;
  uint64_t bc_capacity = 0;
  read::TableCache::Stats tc;
  uint64_t gc_pending = 0;    // Obsolete SSTs still pinned by a read view.
  uint64_t gc_unlinking = 0;  // Files handed to the reaper, not yet unlinked.
};

/// How shards combine one row: kSum adds, kMax keeps the largest, and
/// kRatio rows are recomputed from their summed parts (an average of
/// per-shard ratios would weight an idle shard the same as a hot one).
enum class ShardRule { kSum, kMax, kRatio };

// The table. One row per counter, in talus.stats order:
//   X(key, rule, digits, get, family, labels, help)
//   key     talus.stats key, or nullptr for a row talus.stats leaves out
//           (a part of a ratio, or a field only /metrics exports). A key
//           starting with "| " opens a new section of the text.
//   rule    ShardRule for a multi-shard store.
//   digits  decimals printed for a floating-point row.
//   get     the value, an expression over CounterSnapshot `s`.
//   family  Prometheus family, or nullptr for none; a name ending in
//           _total is a counter, any other a gauge.
//   labels  the series' label text; help the family's # HELP line.
#define TALUS_ENGINE_COUNTERS(X)                                             \
  X("puts", kSum, 0, s.engine.puts, "talus_puts_total", "", "")              \
  X("deletes", kSum, 0, s.engine.deletes, "talus_deletes_total", "", "")     \
  X("gets", kSum, 0, s.engine.gets, "talus_gets_total", "", "")              \
  X("scans", kSum, 0, s.engine.scans, "talus_scans_total", "", "")           \
  X("flushes", kSum, 0, s.engine.flushes, "talus_flushes_total", "", "")     \
  X("compactions", kSum, 0, s.engine.compactions, "talus_compactions_total", \
    "", "")                                                                  \
  X("write_amp", kRatio, 3, s.engine.WriteAmplification(), nullptr, "", "") \
  X("read_amp", kRatio, 3, s.engine.ReadAmplification(), nullptr, "", "")   \
  X("flush_read", kSum, 0, s.engine.flush_bytes_read, nullptr, "", "")       \
  X("comp_read", kSum, 0, s.engine.compaction_bytes_read, nullptr, "", "")   \
  X("conflicts", kSum, 0, s.engine.compaction_conflicts,                     \
    "talus_compaction_conflicts_total", "", "")                              \
  X(nullptr, kSum, 0, s.engine.flush_bytes_written,                          \
    "talus_flush_bytes_written_total", "", "")                               \
  X(nullptr, kSum, 0, s.engine.compaction_bytes_written,                     \
    "talus_compaction_bytes_written_total", "", "")                          \
  X("filter_negatives", kSum, 0, s.engine.filter_negatives, nullptr, "", "") \
  X("cache_hits", kSum, 0, s.engine.block_cache_hits, nullptr, "", "")       \
  X("max_stall", kMax, 1, s.engine.max_stall_clock, nullptr, "", "")         \
  X("switches", kSum, 0, s.engine.memtable_switches, nullptr, "", "")        \
  X("bg_flushes", kSum, 0, s.engine.bg_flushes, nullptr, "", "")             \
  X("bg_compactions", kSum, 0, s.engine.bg_compactions, nullptr, "", "")     \
  X("stall_us", kSum, 0, s.engine.stall_micros, nullptr, "", "")             \
  X("slowdowns", kSum, 0, s.engine.stall_slowdowns, nullptr, "", "")         \
  X("stops", kSum, 0, s.engine.stall_stops, nullptr, "", "")                 \
  X("stall_slowdown_us", kSum, 0, s.engine.stall_slowdown_micros,            \
    "talus_stall_micros_total", "regime=\"slowdown\"", "")                   \
  X("stall_stop_us", kSum, 0, s.engine.stall_stop_micros,                    \
    "talus_stall_micros_total", "regime=\"stop\"", "")                       \
  X("slowdowns_memtable", kSum, 0, s.engine.stall_slowdowns_memtable,        \
    "talus_stalls_total", "regime=\"slowdown\",cause=\"memtable\"", "")      \
  X("slowdowns_l0", kSum, 0, s.engine.stall_slowdowns_l0,                    \
    "talus_stalls_total", "regime=\"slowdown\",cause=\"l0\"", "")            \
  X("stops_memtable", kSum, 0, s.engine.stall_stops_memtable,                \
    "talus_stalls_total", "regime=\"stop\",cause=\"memtable\"", "")          \
  X("stops_l0", kSum, 0, s.engine.stall_stops_l0, "talus_stalls_total",      \
    "regime=\"stop\",cause=\"l0\"", "")                                      \
  X("bc_hits", kSum, 0, s.bc_hits, "talus_block_cache_hits_total", "",       \
    "Block-cache lookups served from the cache (foreground reads)")          \
  X("bc_misses", kSum, 0, s.bc_misses, "talus_block_cache_misses_total", "", \
    "Block-cache lookups that read the block from its file")                 \
  X("bc_evictions", kSum, 0, s.bc_evictions,                                 \
    "talus_block_cache_evictions_total", "",                                 \
    "Blocks evicted from the block cache by capacity pressure")              \
  X("bc_usage", kSum, 0, s.bc_usage, "talus_block_cache_usage_bytes", "",    \
    "Bytes of blocks the block cache holds")                                 \
  X("bc_cap", kSum, 0, s.bc_capacity, nullptr, "", "")                       \
  X("tc_hits", kSum, 0, s.tc.hits, nullptr, "", "")                          \
  X("tc_misses", kSum, 0, s.tc.misses, nullptr, "", "")                      \
  X("tc_opens", kSum, 0, s.tc.opens, nullptr, "", "")                        \
  X("tc_evictions", kSum, 0, s.tc.evictions, nullptr, "", "")                \
  X("tc_open_readers", kSum, 0, s.tc.open_readers, nullptr, "", "")          \
  X("tc_cap", kSum, 0, s.tc.capacity, nullptr, "", "")                       \
  X("gc_pending", kSum, 0, s.gc_pending, nullptr, "", "")                    \
  X("gc_deleted", kSum, 0, s.engine.obsolete_files_deleted,                  \
    "talus_obsolete_files_deleted_total", "", "")                            \
  X("gc_unlinking", kSum, 0, s.gc_unlinking, nullptr, "", "")                \
  X("| group_commits", kSum, 0, s.group.group_commits, nullptr, "", "")      \
  X("batches", kSum, 0, s.group.batches_committed, nullptr, "", "")          \
  X("group_size_avg", kRatio, 2, s.group.group_size_avg, nullptr, "", "")    \
  X("group_size_p50", kMax, 1, s.group.group_size_p50, nullptr, "", "")      \
  X("group_size_max", kMax, 0, s.group.group_size_max, nullptr, "", "")      \
  X("wal_syncs", kSum, 0, s.group.wal_syncs, nullptr, "", "")                \
  X("write_queue_wait_us", kSum, 0, s.group.write_queue_wait_micros,         \
    nullptr, "", "")                                                         \
  X(nullptr, kSum, 0, s.engine.user_payload_written, nullptr, "", "")        \
  X(nullptr, kSum, 0, s.engine.gets_found, nullptr, "", "")                  \
  X(nullptr, kSum, 0, s.engine.runs_probed, nullptr, "", "")                 \
  X(nullptr, kSum, 0, s.engine.data_block_reads, nullptr, "", "")            \
  X(nullptr, kMax, 0, s.engine.max_imm_queue_depth, nullptr, "", "")

/// The talus.stats text: `key=value` for every keyed row, in table order.
std::string FormatCounters(const CounterSnapshot& s);

/// Appends every row that names a Prometheus family to `w`.
void ExportCounters(const CounterSnapshot& s, obs::PrometheusWriter* w);

/// Merges per-shard snapshots row by row under each row's ShardRule;
/// engine.level_stats sums element-wise.
CounterSnapshot AggregateCounters(const std::vector<CounterSnapshot>& in);

}  // namespace metrics
}  // namespace talus

#endif  // TALUS_METRICS_COUNTERS_H_
