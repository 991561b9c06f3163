// The Prometheus exposition shared by DB and shard::ShardedDB, and the
// cross-shard merges of what the counter table (metrics/counters.h) does
// not cover: latency histograms and adaptive-tuner counters (DESIGN.md §3,
// §6.4).
#ifndef TALUS_METRICS_SHARD_STATS_H_
#define TALUS_METRICS_SHARD_STATS_H_

#include <vector>

#include "metrics/counters.h"
#include "obs/amp_tracker.h"
#include "tune/adaptive_tuner.h"

namespace talus {
namespace metrics {

/// Per-op latency merge: element-wise Histogram::Merge of each shard's
/// DB::GetLatencyHistograms() vector. Unlike the counter table's group-size
/// p50 (a max across shards) this merge is exact — shards share one bucket
/// layout, so fleet-wide percentiles come from summed bucket counts.
std::vector<Histogram> MergeLatencyHistograms(
    const std::vector<std::vector<Histogram>>& per_shard);

/// The talus_* Prometheus exposition shared by DB::DumpPrometheus and
/// ShardedDB::DumpPrometheus: the counter table's exported rows, one
/// talus_latency_us histogram family per op with observations, and — when
/// `amp` is non-null — the per-level talus_amp_* families plus the derived
/// write/read/space amplification gauges (DESIGN.md §6.6).
/// `latency_per_op` is indexed by obs::OpType (DB::GetLatencyHistograms /
/// MergeLatencyHistograms output); `amp` is a cumulative
/// DB::GetAmpSnapshot() (or a fleet-wide merge of them), null when amp
/// accounting is disabled. `tune` adds the talus_tune_* families
/// (DESIGN.md §9) — a single tuner's counters or a fleet-wide
/// AggregateTunerStats() merge; null when adaptive tuning is off.
std::string DumpPrometheusText(const CounterSnapshot& counters,
                               uint64_t events_total, uint64_t data_bytes,
                               const std::vector<Histogram>& latency_per_op,
                               const obs::AmpSnapshot* amp = nullptr,
                               const tune::TunerStats* tune = nullptr);

/// Fleet merge of per-shard tuner counters: sums the counters; the last_*
/// gauges and labels come from the shard with the most recent activity
/// (highest tick count) since a cross-shard "last decision" is not a
/// well-defined single value.
tune::TunerStats AggregateTunerStats(
    const std::vector<tune::TunerStats>& in);

}  // namespace metrics
}  // namespace talus

#endif  // TALUS_METRICS_SHARD_STATS_H_
