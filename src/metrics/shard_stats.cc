#include "metrics/shard_stats.h"

#include <algorithm>

#include "obs/latency_recorder.h"
#include "obs/prometheus.h"

namespace talus {
namespace metrics {

std::string DumpPrometheusText(const CounterSnapshot& counters,
                               uint64_t events_total, uint64_t data_bytes,
                               const std::vector<Histogram>& latency_per_op,
                               const obs::AmpSnapshot* amp,
                               const tune::TunerStats* tune) {
  obs::PrometheusWriter w;
  ExportCounters(counters, &w);
  w.AddCounter("talus_events_total", "", events_total);
  w.AddGauge("talus_data_bytes", "", static_cast<double>(data_bytes));
  for (size_t op = 0;
       op < latency_per_op.size() &&
       op < static_cast<size_t>(obs::kNumOpTypes);
       op++) {
    if (latency_per_op[op].Count() == 0) continue;  // Untouched op series.
    w.AddHistogram("talus_latency_us",
                   std::string("op=\"") +
                       obs::OpTypeName(static_cast<obs::OpType>(op)) + "\"",
                   latency_per_op[op]);
  }
  if (amp != nullptr) {
    // Per-level families are emitted level-major (every series of a level
    // together); the writer regroups them family-major as the exposition
    // format requires.
    for (int i = 0; i < amp->num_levels; i++) {
      const obs::AmpSnapshot::Level& l = amp->levels[i];
      const std::string lv = "level=\"" + std::to_string(i) + "\"";
      w.AddCounter("talus_amp_bytes_written_total",
                   lv + ",source=\"flush\"", l.flush_bytes_written,
                   "Bytes written per level, split flush vs compaction");
      w.AddCounter("talus_amp_bytes_written_total",
                   lv + ",source=\"compaction\"", l.compaction_bytes_written,
                   "Bytes written per level, split flush vs compaction");
      w.AddCounter("talus_amp_compaction_bytes_read_total", lv,
                   l.compaction_bytes_read);
      w.AddCounter("talus_amp_files_probed_total", lv, l.files_probed,
                   "Point-lookup file probes per level");
      w.AddCounter("talus_amp_filter_negatives_total", lv,
                   l.filter_negatives);
      w.AddCounter("talus_amp_bloom_fp_total", lv, l.bloom_false_positives,
                   "Probes whose Bloom filter passed but held no result");
      w.AddCounter("talus_amp_block_reads_total", lv, l.block_reads);
      w.AddCounter("talus_amp_hits_total", lv, l.hits,
                   "Lookups decided per level (memtable hits separate)");
      w.AddGauge("talus_amp_live_bytes", lv + ",kind=\"sst\"",
                 static_cast<double>(l.live_sst_bytes),
                 "Live bytes per level: physical SST vs logical payload");
      w.AddGauge("talus_amp_live_bytes", lv + ",kind=\"payload\"",
                 static_cast<double>(l.live_payload_bytes),
                 "Live bytes per level: physical SST vs logical payload");
    }
    w.AddCounter("talus_amp_lookups_total", "", amp->lookups);
    w.AddCounter("talus_amp_memtable_hits_total", "", amp->memtable_hits);
    w.AddCounter("talus_amp_misses_total", "", amp->misses);
    w.AddCounter("talus_amp_user_payload_bytes_total", "",
                 amp->user_payload_bytes);
    w.AddGauge("talus_write_amp", "", amp->WriteAmp(),
               "Physical bytes written per user payload byte");
    w.AddGauge("talus_read_amp", "", amp->ReadAmp(),
               "Files probed per point lookup");
    w.AddGauge("talus_space_amp", "", amp->SpaceAmp(),
               "Live SST bytes per live logical payload byte");
    w.AddGauge("talus_blocks_per_lookup", "", amp->BlocksPerLookup(),
               "Data blocks fetched per point lookup (the model's R unit)");
  }
  if (tune != nullptr) {
    w.AddCounter("talus_tune_ticks_total", "", tune->ticks,
                 "Adaptive-tuner decision ticks (DESIGN.md section 9)");
    w.AddCounter("talus_tune_retunes_total", "", tune->retunes,
                 "Decision ticks that recommended a design switch");
    w.AddCounter("talus_tune_switches_total", "", tune->switches_applied,
                 "Recommended switches the engine installed");
    w.AddCounter("talus_tune_holds_total", "kind=\"hysteresis\"", tune->holds,
                 "Held decisions, by why the tuner held");
    w.AddCounter("talus_tune_holds_total", "kind=\"thin_window\"",
                 tune->thin_windows,
                 "Held decisions, by why the tuner held");
    w.AddCounter("talus_tune_holds_total", "kind=\"cooldown\"",
                 tune->cooldown_holds,
                 "Held decisions, by why the tuner held");
    w.AddCounter("talus_tune_drift_events_total", "", tune->drift_events,
                 "kModelDrift windows observed by the tuner's owner");
    w.AddGauge("talus_tune_last_gain", "", tune->last_gain,
               "Predicted fractional cost win of the last decision");
    w.AddGauge("talus_tune_cost", "design=\"current\"",
               tune->last_current_cost,
               "Model cost zeta at the last decision, current vs best");
    w.AddGauge("talus_tune_cost", "design=\"best\"", tune->last_best_cost,
               "Model cost zeta at the last decision, current vs best");
  }
  return w.Output();
}

tune::TunerStats AggregateTunerStats(
    const std::vector<tune::TunerStats>& in) {
  tune::TunerStats out;
  uint64_t freshest_ticks = 0;
  for (const tune::TunerStats& s : in) {
    out.ticks += s.ticks;
    out.thin_windows += s.thin_windows;
    out.cooldown_holds += s.cooldown_holds;
    out.holds += s.holds;
    out.retunes += s.retunes;
    out.switches_applied += s.switches_applied;
    out.drift_events += s.drift_events;
    if (s.ticks >= freshest_ticks) {
      freshest_ticks = s.ticks;
      out.last_gain = s.last_gain;
      out.last_current_cost = s.last_current_cost;
      out.last_best_cost = s.last_best_cost;
      out.last_action = s.last_action;
      out.last_design = s.last_design;
    }
  }
  return out;
}

std::vector<Histogram> MergeLatencyHistograms(
    const std::vector<std::vector<Histogram>>& per_shard) {
  size_t ops = 0;
  for (const auto& shard : per_shard) ops = std::max(ops, shard.size());
  std::vector<Histogram> out(ops);
  for (const auto& shard : per_shard) {
    for (size_t op = 0; op < shard.size(); op++) {
      out[op].Merge(shard[op]);
    }
  }
  return out;
}

}  // namespace metrics
}  // namespace talus
