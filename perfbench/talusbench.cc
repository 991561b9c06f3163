// talusbench: the generator behind perfbench/run.py. One process runs one
// workload against the engine's public APIs (DB, shard::ShardedDB,
// server::Client), checks every result, and prints its metrics; the last
// line of stdout is the JSON object run.py relays.
//
//   talusbench --workload ingest|read_aged|served_mixed --seed N
//              --seconds S --trace 0|1 [--trace-out FILE]
//   talusbench --probe DIR...
//
// Every store lives in the engine's in-memory Env behind a DeviceEnv
// (device_env.h) that counts and times each file-system call and adds the
// modeled device delays. The engine is only ever observed from outside:
// DeviceEnv counts, timing of public calls, and public getters read while
// no generator thread is running.
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "device_env.h"
#include "env/env.h"
#include "lsm/db.h"
#include "lsm/write_batch.h"
#include "obs/latency_recorder.h"
#include "server/client.h"
#include "server/server.h"
#include "shard/sharded_db.h"
#include "trace.h"
#include "util/histogram.h"
#include "util/random.h"
#include "workload/generator.h"

namespace perfbench {
namespace {

using talus::DB;
using talus::DbOptions;
using talus::Histogram;
using talus::Random;
using talus::Status;
using talus::WriteBatch;
using talus::shard::ShardedDB;

// ---- Workload constants ---------------------------------------------------

constexpr size_t kKeyBytes = 16;

// ingest: write-only, 4 writers, uniform over 1M keys, 1 KB values.
constexpr uint64_t kIngestKeys = 1000000;
constexpr size_t kIngestValue = 1024;
constexpr int kIngestWriters = 4;

// read_aged: read-only, 3 readers over 400k even-indexed keys preloaded
// with 256 B values (~110 MB of data against the 8 MB block cache); probes
// cover even and odd indices, so half the gets miss. 5% are 32-entry scans.
constexpr uint64_t kAgedKeys = 400000;
constexpr uint64_t kAgedIndexSpace = 2 * kAgedKeys;
constexpr size_t kAgedValue = 256;
constexpr int kAgedReaders = 3;
constexpr int kAgedScanPct = 5;
constexpr size_t kAgedScanLength = 32;

// served_mixed: 2 client connections, windows of 8 pipelined requests,
// 50% GET / 50% PUT, scrambled Zipfian (0.99) over 100k keys of 256 B
// (~27 MB, resident in the shards' 4 x 8 MB block caches).
constexpr uint64_t kServedKeys = 100000;
constexpr size_t kServedValue = 256;
constexpr int kServedClients = 2;
constexpr int kServedDepth = 8;
constexpr int kServedShards = 4;
constexpr int kServedWorkers = 2;
constexpr uint64_t kServedVerifySample = 20000;

// Warm-up: intervals of a fixed op count; timing starts once two
// consecutive intervals differ by at most kFlatTolerance (after at least
// kMinWarmIntervals, at most kMaxWarmIntervals).
constexpr int kMinWarmIntervals = 3;
constexpr int kMaxWarmIntervals = 10;
constexpr double kFlatTolerance = 0.15;
constexpr size_t kSpansPerThread = 100000;

std::string Key(uint64_t index) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "user%012llu",
                static_cast<unsigned long long>(index));
  return std::string(buf, kKeyBytes);
}

std::string Value(uint64_t index, uint64_t version, size_t size) {
  return talus::workload::MakeValue(index, version, size);
}

// Reads (index, version) back from a MakeValue payload ("v<i>.<v>|...").
bool ParseValue(const std::string& v, uint64_t* index, uint64_t* version) {
  if (v.size() < 4 || v[0] != 'v') return false;
  char* end = nullptr;
  *index = std::strtoull(v.c_str() + 1, &end, 10);
  if (end == nullptr || *end != '.') return false;
  *version = std::strtoull(end + 1, &end, 10);
  return end != nullptr && *end == '|';
}

uint64_t HashValue(std::string_view v) {
  return std::hash<std::string_view>()(v);
}

double Percentile(std::vector<float>* v, double p) {
  if (v->empty()) return 0;
  size_t rank = static_cast<size_t>(
      std::ceil(p / 100.0 * static_cast<double>(v->size())));
  rank = std::min(std::max<size_t>(rank, 1), v->size()) - 1;
  std::nth_element(v->begin(), v->begin() + static_cast<long>(rank), v->end());
  return (*v)[rank];
}

double Ratio(double num, double den) { return den == 0 ? 0 : num / den; }

double Seconds(int64_t ns) { return static_cast<double>(ns) / 1e9; }

// ---- Generator threads ----------------------------------------------------

Tracer* g_tracer = nullptr;  // Non-null only in a traced run.

// What one generator thread did in one phase. Only its own thread writes
// it, except `ops`, which the phase monitor reads.
struct alignas(64) Tally {
  std::atomic<uint64_t> ops{0};
  uint64_t attempted = 0;
  uint64_t failed = 0;
  uint64_t errors[kNumOpKinds] = {};
  std::vector<float> lat_us[kNumOpKinds];
  uint64_t user_bytes = 0;  // Key+value bytes of acknowledged writes.
  uint64_t stale_gets = 0;

  void Record(OpKind kind, bool ok, int64_t start_ns, int64_t end_ns,
              bool recording) {
    attempted++;
    if (!ok) {
      failed++;
      errors[static_cast<int>(kind)]++;
    }
    if (recording) {
      lat_us[static_cast<int>(kind)].push_back(
          static_cast<float>(end_ns - start_ns) / 1e3f);
    }
    ops.store(ops.load(std::memory_order_relaxed) + 1,
              std::memory_order_relaxed);
  }
};

// One timed call into the engine: opens a span when tracing is on.
struct OpClock {
  explicit OpClock(bool recording)
      : traced(recording && g_tracer != nullptr && g_tracer->enabled()),
        id(traced ? g_tracer->BeginOp() : 0),
        start(NowNs()) {}
  // Stops the clock right after the call, before its result is checked.
  int64_t Stop(OpKind kind) const {
    const int64_t end = NowNs();
    if (traced) g_tracer->EndOp(kind, id, start, end);
    return end;
  }
  const bool traced;
  const uint64_t id;
  const int64_t start;
};

using StepFn = std::function<void(int thread, Tally* tally, bool recording)>;

struct PhaseResult {
  double seconds = 0;
  uint64_t ops = 0;  // Completed by the end of the window.
  int intervals = 0;
  std::string rates;  // Warm-up interval throughputs, for the report.
  std::vector<std::unique_ptr<Tally>> tallies;

  double rate() const { return Ratio(static_cast<double>(ops), seconds); }
  uint64_t user_bytes() const {
    uint64_t n = 0;
    for (const auto& t : tallies) n += t->user_bytes;
    return n;
  }
};

// Runs `threads` closed-loop generator threads, each calling `step` until
// the phase ends. A warm-up (window_s == 0) ends when per-interval
// throughput is flat; a window ends after window_s seconds, with tracing on
// for all of it when `traced`.
PhaseResult RunPhase(int threads, double window_s, uint64_t interval_ops,
                     const StepFn& step, bool traced = false) {
  PhaseResult r;
  const bool recording = window_s > 0;
  for (int t = 0; t < threads; t++) {
    r.tallies.push_back(std::make_unique<Tally>());
  }
  auto total_ops = [&r] {
    uint64_t n = 0;
    for (const auto& t : r.tallies) n += t->ops.load(std::memory_order_relaxed);
    return n;
  };
  std::atomic<bool> stop{false};
  if (traced) g_tracer->set_enabled(true);
  const int64_t start = NowNs();
  std::vector<std::thread> workers;
  for (int t = 0; t < threads; t++) {
    workers.emplace_back([&, t] {
      MarkGeneratorThread();
      Tally* tally = r.tallies[static_cast<size_t>(t)].get();
      while (!stop.load(std::memory_order_relaxed)) step(t, tally, recording);
    });
  }
  if (!recording) {
    std::vector<double> rates;
    uint64_t last_ops = 0;
    int64_t last_ns = start;
    while (true) {
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
      const uint64_t ops = total_ops();
      if (ops - last_ops < interval_ops) continue;
      const int64_t now = NowNs();
      rates.push_back(static_cast<double>(ops - last_ops) /
                      Seconds(now - last_ns));
      r.rates += std::to_string(static_cast<int64_t>(rates.back())) + " ";
      last_ops = ops;
      last_ns = now;
      const size_t n = rates.size();
      if (n >= kMaxWarmIntervals) break;
      if (n >= kMinWarmIntervals &&
          std::fabs(rates[n - 1] - rates[n - 2]) <=
              kFlatTolerance * rates[n - 2]) {
        break;
      }
    }
    r.intervals = static_cast<int>(rates.size());
  } else {
    std::this_thread::sleep_for(
        std::chrono::nanoseconds(static_cast<int64_t>(window_s * 1e9)));
    r.ops = total_ops();
    r.seconds = Seconds(NowNs() - start);
  }
  stop.store(true);
  for (auto& w : workers) w.join();
  if (traced) g_tracer->set_enabled(false);
  if (!recording) r.seconds = Seconds(NowNs() - start);
  return r;
}

// Runs `fn(i)` for i in [0, n) on `threads` threads.
void ParallelFor(uint64_t n, int threads,
                 const std::function<void(uint64_t)>& fn) {
  std::vector<std::thread> pool;
  for (int t = 0; t < threads; t++) {
    pool.emplace_back([&, t] {
      for (uint64_t i = static_cast<uint64_t>(t); i < n;
           i += static_cast<uint64_t>(threads)) {
        fn(i);
      }
    });
  }
  for (auto& p : pool) p.join();
}

// ---- Observation from outside the engine ----------------------------------

#define ENGINE_COUNTERS(X)                                                   \
  X(puts) X(gets) X(gets_found) X(scans) X(flushes) X(compactions)           \
  X(compaction_bytes_read) X(compaction_bytes_written) X(compaction_conflicts) \
  X(flush_bytes_written) X(user_payload) X(runs_probed) X(filter_negatives)  \
  X(data_block_reads) X(stall_us) X(stall_stops) X(stall_slowdowns)          \
  X(groups) X(batches) X(queue_wait_us) X(wal_syncs) X(bc_hits) X(bc_misses) \
  X(tc_hits) X(tc_misses) X(bloom_false_positives)

// Engine counters summed over a store's shards, read through public
// getters. REQUIRES: the store is quiesced (no generator thread running and
// no background job pending), so the unsynchronized stats() read is exact.
struct EngineCounters {
#define DECLARE_FIELD(f) uint64_t f = 0;
  ENGINE_COUNTERS(DECLARE_FIELD)
#undef DECLARE_FIELD
  std::vector<uint64_t> shard_puts;
  std::vector<Histogram> latency;  // Indexed by talus::obs::OpType.

  EngineCounters Minus(const EngineCounters& b) const;
  const Histogram& Latency(talus::obs::OpType op) const {
    return latency[static_cast<size_t>(op)];
  }
};

// The histogram of what `a` recorded after `b` was taken. Min and max are
// bucket bounds: the exact extremes of the difference are not known.
Histogram HistogramMinus(const Histogram& a, const Histogram& b) {
  uint64_t counts[Histogram::kNumBuckets];
  uint64_t num = 0;
  int first = -1, last = -1;
  for (int i = 0; i < Histogram::kNumBuckets; i++) {
    counts[i] = a.BucketCount(i) - b.BucketCount(i);
    num += counts[i];
    if (counts[i] > 0) {
      if (first < 0) first = i;
      last = i;
    }
  }
  Histogram h;
  if (num > 0) {
    const double lo = first == 0 ? 0 : Histogram::BucketUpperBound(first - 1);
    h.MergeRaw(counts, num, a.Sum() - b.Sum(), lo,
               Histogram::BucketUpperBound(last));
  }
  return h;
}

EngineCounters EngineCounters::Minus(const EngineCounters& b) const {
  EngineCounters d;
#define SUBTRACT_FIELD(f) d.f = f - b.f;
  ENGINE_COUNTERS(SUBTRACT_FIELD)
#undef SUBTRACT_FIELD
  for (size_t i = 0; i < shard_puts.size(); i++) {
    d.shard_puts.push_back(shard_puts[i] - b.shard_puts[i]);
  }
  for (size_t i = 0; i < latency.size(); i++) {
    d.latency.push_back(HistogramMinus(latency[i], b.latency[i]));
  }
  return d;
}

EngineCounters Observe(const std::vector<DB*>& shards) {
  EngineCounters c;
  c.latency.resize(talus::obs::kNumOpTypes);
  for (DB* db : shards) {
    const talus::EngineStats s = db->stats();
    c.puts += s.puts;
    c.gets += s.gets;
    c.gets_found += s.gets_found;
    c.scans += s.scans;
    c.flushes += s.flushes;
    c.compactions += s.compactions;
    c.compaction_bytes_read += s.compaction_bytes_read;
    c.compaction_bytes_written += s.compaction_bytes_written;
    c.compaction_conflicts += s.compaction_conflicts;
    c.flush_bytes_written += s.flush_bytes_written;
    c.user_payload += s.user_payload_written;
    c.runs_probed += s.runs_probed;
    c.filter_negatives += s.filter_negatives;
    c.data_block_reads += s.data_block_reads;
    c.stall_us += s.stall_micros;
    c.stall_stops += s.stall_stops;
    c.stall_slowdowns += s.stall_slowdowns;
    const talus::metrics::GroupCommitStats g = db->GetGroupCommitStats();
    c.groups += g.group_commits;
    c.batches += g.batches_committed;
    c.queue_wait_us += g.write_queue_wait_micros;
    c.wal_syncs += g.wal_syncs;
    c.bc_hits += db->block_cache()->hits();
    c.bc_misses += db->block_cache()->misses();
    const talus::read::TableCache::Stats tc = db->table_cache()->GetStats();
    c.tc_hits += tc.hits;
    c.tc_misses += tc.misses;
    const talus::obs::AmpSnapshot amp = db->GetAmpSnapshot();
    for (int l = 0; l < amp.num_levels; l++) {
      c.bloom_false_positives += amp.levels[l].bloom_false_positives;
    }
    c.shard_puts.push_back(s.puts);
    const std::vector<Histogram> lat = db->GetLatencyHistograms();
    for (size_t i = 0; i < lat.size() && i < c.latency.size(); i++) {
      c.latency[i].Merge(lat[i]);
    }
  }
  return c;
}

// Sorted runs and non-empty levels of the current versions (quiesced).
void TreeShape(const std::vector<DB*>& shards, uint64_t* runs,
               uint64_t* levels) {
  *runs = 0;
  *levels = 0;
  for (DB* db : shards) {
    const talus::Version& v = db->current_version();
    *runs += v.TotalRuns();
    uint64_t nonempty = 0;
    for (const auto& level : v.levels) nonempty += level.empty() ? 0 : 1;
    *levels = std::max(*levels, nonempty);
  }
}

uint64_t PeakRssKb() {
  struct rusage ru;
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<uint64_t>(ru.ru_maxrss);
}

// ---- Metrics --------------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  std::string unit;
  uint64_t samples;  // 0 when the value is not a sample statistic.
};

// Everything one run measured, whatever the workload.
struct RunReport {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  bool checks_ok = true;
  std::vector<std::string> notes;
  std::vector<Metric> end_to_end;
  std::vector<Metric> per_layer;

  void Fold(const PhaseResult& phase) {
    for (const auto& t : phase.tallies) {
      attempted += t->attempted;
      failed += t->failed;
    }
  }
  // Files `n` checks of which `wrong` failed under one note.
  void CheckMany(uint64_t n, uint64_t wrong, const std::string& what) {
    attempted += n;
    failed += wrong;
    if (wrong > 0) checks_ok = false;
    notes.push_back(std::string(wrong == 0 ? "ok    " : "FAILED") + "  " +
                    what);
  }
  void Check(bool ok, const std::string& what) {
    CheckMany(1, ok ? 0 : 1, what);
  }
  void Note(const std::string& what) { notes.push_back(what); }
};

// The store under test: its in-memory base and the device in front of it.
struct StoreEnv {
  StoreEnv() : base(talus::NewMemEnv()), device(base.get()) {}
  std::unique_ptr<talus::Env> base;
  DeviceEnv device;
};

// What every workload hands to the common metric code.
struct WindowObservation {
  PhaseResult window;
  double setup_s = 0;
  // Traced runs: throughput of an untraced window run just before the
  // traced one, the baseline for trace.overhead_pct.
  double untraced_ops_per_s = 0;
  EngineCounters engine;  // Window delta.
  EnvTotals env;          // Window delta.
  uint64_t file_bytes = 0;
  uint64_t live_keys = 0;
  size_t entry_bytes = 0;
  uint64_t runs = 0;
  uint64_t levels = 0;
  talus::server::ServerStats server;  // Window delta (served_mixed).
};

void ComputeMetrics(WindowObservation& o, RunReport* rep) {
  auto D = [](uint64_t v) { return static_cast<double>(v); };
  using talus::obs::OpType;
  PhaseResult& w = o.window;
  std::vector<float> lat[kNumOpKinds];
  std::vector<float> all;
  uint64_t errors[kNumOpKinds] = {};
  uint64_t stale_gets = 0;
  for (const auto& t : w.tallies) {
    stale_gets += t->stale_gets;
    for (int k = 0; k < kNumOpKinds; k++) {
      lat[k].insert(lat[k].end(), t->lat_us[k].begin(), t->lat_us[k].end());
      errors[k] += t->errors[k];
    }
  }
  for (int k = 0; k < kNumOpKinds; k++) {
    all.insert(all.end(), lat[k].begin(), lat[k].end());
  }
  const uint64_t n_all = all.size();
  const double op_p50 = Percentile(&all, 50);
  const double op_p99 = Percentile(&all, 99);

  auto& e2e = rep->end_to_end;
  e2e.push_back({"ops_per_s", w.rate(), "1/s", 0});
  e2e.push_back({"op_p50_us", op_p50, "us", n_all});
  const uint64_t appended = o.env.AppendBytes(FileKind::kWal) +
                            o.env.AppendBytes(FileKind::kSst) +
                            o.env.AppendBytes(FileKind::kManifest);
  e2e.push_back({"write_amp", Ratio(D(appended), D(w.user_bytes())), "ratio",
                 0});
  e2e.push_back({"space_amp",
                 Ratio(D(o.file_bytes),
                       D(o.live_keys * o.entry_bytes)),
                 "ratio", 0});
  e2e.push_back({"setup_s", o.setup_s, "s", 0});

  auto add = [&rep](std::string name, double value, const char* unit,
                    uint64_t samples = 0) {
    rep->per_layer.push_back({std::move(name), value, unit, samples});
  };
  add("op_p99_us", op_p99, "us", n_all);
  add("peak_rss_mb", D(PeakRssKb()) / 1024.0, "MB");
  for (int k = 0; k < kNumOpKinds; k++) {
    const std::string name = OpKindName(static_cast<OpKind>(k));
    const uint64_t n = lat[k].size();
    add(name + "_p50_us", Percentile(&lat[k], 50), "us", n);
    add(name + "_p99_us", Percentile(&lat[k], 99), "us", n);
  }
  uint64_t window_attempted = 0, window_failed = 0;
  for (const auto& t : w.tallies) {
    window_attempted += t->attempted;
    window_failed += t->failed;
  }
  add("op_error_rate",
                Ratio(D(window_failed),
                      D(window_attempted)),
                "ratio", window_attempted);

  // env: every call the decorator saw during the window.
  const EnvTotals& env = o.env;
  const std::pair<EnvCall, const char*> timed_calls[] = {
      {EnvCall::kSync, "sync"}, {EnvCall::kRenameFile, "rename"},
      {EnvCall::kRemoveFile, "remove"}};
  const FileKind kinds[] = {FileKind::kWal, FileKind::kSst,
                            FileKind::kManifest};
  for (const auto& [call, name] : timed_calls) {
    for (FileKind kind : kinds) {
      const std::string base =
          std::string("env.") + name + "." + FileKindName(kind);
      add(base + ".count", D(env.at(call, kind).count), "count");
      add(base + ".busy_ms", D(env.at(call, kind).busy_ns) / 1e6, "ms");
    }
  }
  for (FileKind kind : kinds) {
    add(std::string("env.append.") + FileKindName(kind) + ".bytes",
                  D(env.AppendBytes(kind)), "bytes");
  }
  EnvTotals::Cell reads = env.Sum(EnvCall::kRead);
  const EnvTotals::Cell seq = env.Sum(EnvCall::kSeqRead);
  reads.count += seq.count;
  reads.bytes += seq.bytes;
  reads.busy_ns += seq.busy_ns;
  add("env.read.count", D(reads.count), "count");
  add("env.read.bytes", D(reads.bytes), "bytes");
  add("env.read.busy_ms", D(reads.busy_ns) / 1e6, "ms");
  add("env.fg_busy_ms", D(env.fg_busy_ns) / 1e6, "ms");

  // lsm: engine-side counts and the engine's own timing of its public calls.
  const EngineCounters& e = o.engine;
  const std::pair<OpType, OpKind> lsm_ops[] = {
      {OpType::kPut, OpKind::kPut},
      {OpType::kGet, OpKind::kGet},
      {OpType::kScan, OpKind::kScan}};
  for (const auto& [op, kind] : lsm_ops) {
    const Histogram& h = e.Latency(op);
    const int k = static_cast<int>(kind);
    const std::string base = std::string("lsm.") + OpKindName(kind);
    add(base + ".count", D(h.Count()), "count");
    add(base + ".busy_ms", h.Sum() / 1e3, "ms");
    add(base + ".errors", D(errors[k]), "count");
  }
  add("lsm.get.found_ratio",
                Ratio(D(e.gets_found), D(e.gets)),
                "ratio", e.gets);
  add("lsm.flush.count", D(e.flushes), "count");
  add("lsm.flush.busy_ms", e.Latency(OpType::kFlush).Sum() / 1e3, "ms");
  add("lsm.runs", D(o.runs), "count");
  add("lsm.levels", D(o.levels), "count");

  add("exec.stall_ms", D(e.stall_us) / 1e3, "ms");
  add("exec.stall_stops", D(e.stall_stops), "count");
  add("exec.stall_slowdowns", D(e.stall_slowdowns), "count");

  add("write.groups", D(e.groups), "count");
  add("write.group_size_avg",
                Ratio(D(e.batches), D(e.groups)),
                "batches");
  add("write.queue_wait_ms", D(e.queue_wait_us) / 1e3, "ms");
  add("write.wal_syncs", D(e.wal_syncs), "count");

  add("compaction.count", D(e.compactions), "count");
  add("compaction.busy_ms", e.Latency(OpType::kCompaction).Sum() / 1e3, "ms");
  add("compaction.bytes_read", D(e.compaction_bytes_read), "bytes");
  add("compaction.bytes_written", D(e.compaction_bytes_written), "bytes");
  add("compaction.conflicts", D(e.compaction_conflicts), "count");

  const double gets = D(e.gets);
  add("read.runs_probed_per_get", Ratio(D(e.runs_probed), gets), "runs",
      e.gets);
  add("read.table_cache_hit_rate",
                Ratio(D(e.tc_hits), D(e.tc_hits + e.tc_misses)),
                "ratio", e.tc_hits + e.tc_misses);
  add("filter.negatives_per_get", Ratio(D(e.filter_negatives), gets),
      "probes", e.gets);
  add("filter.false_positive_rate",
                Ratio(D(e.bloom_false_positives),
                      D(e.bloom_false_positives + e.filter_negatives)),
                "ratio", e.bloom_false_positives + e.filter_negatives);
  add("table.blocks_per_get", Ratio(D(e.data_block_reads), gets), "blocks",
      e.gets);
  add("cache.block_hit_rate",
                Ratio(D(e.bc_hits), D(e.bc_hits + e.bc_misses)),
                "ratio", e.bc_hits + e.bc_misses);

  const talus::server::ServerStats& s = o.server;
  add("server.requests", D(s.requests_total), "count");
  add("server.errors", D(s.request_errors), "count");
  add("server.coalesced_ops_per_batch",
                Ratio(D(s.coalesced_ops), D(s.coalesced_batches)),
                "ops", s.coalesced_batches);
  add("server.bytes_in", D(s.bytes_in), "bytes");
  add("server.bytes_out", D(s.bytes_out), "bytes");
  double overhead = 0;
  if (s.requests_total > 0) {
    Histogram engine_ops = e.Latency(OpType::kPut);
    engine_ops.Merge(e.Latency(OpType::kGet));
    overhead = op_p50 - engine_ops.Median();
  }
  add("server.overhead_p50_us", overhead, "us", n_all);
  add("server.stale_gets", D(stale_gets), "count");

  double put_max_over_mean = 0;
  if (!e.shard_puts.empty()) {
    uint64_t sum = 0, max = 0;
    for (uint64_t p : e.shard_puts) {
      sum += p;
      max = std::max(max, p);
    }
    put_max_over_mean = Ratio(D(max) * D(e.shard_puts.size()),
                              D(sum));
  }
  add("shard.put_max_over_mean", put_max_over_mean, "ratio");

  double overhead_pct = 0, unattributed_pct = 0;
  if (g_tracer != nullptr) {
    overhead_pct = 100.0 * Ratio(o.untraced_ops_per_s - w.rate(),
                                 o.untraced_ops_per_s);
    unattributed_pct = g_tracer->UnattributedPct();
  }
  add("trace.overhead_pct", overhead_pct, "%");
  add("trace.unattributed_pct", unattributed_pct, "%");
}

// ---- Store set-up helpers --------------------------------------------------

DbOptions BaseOptions(talus::Env* env, const std::string& path) {
  DbOptions o;
  o.env = env;
  o.path = path;
  o.policy = talus::GrowthPolicyConfig::Vertiorizon(6);
  return o;
}

// A seeded permutation of [0, n).
std::vector<uint64_t> Shuffled(uint64_t n, uint64_t seed) {
  std::vector<uint64_t> v(n);
  for (uint64_t i = 0; i < n; i++) v[i] = i;
  Random rnd(seed);
  for (uint64_t i = n; i > 1; i--) std::swap(v[i - 1], v[rnd.Uniform(i)]);
  return v;
}

// Loads key indices `order[i] * stride` at version 0 in batches of 64,
// through `write`. Returns the number of failed batches.
template <class WriteFn>
uint64_t Preload(const std::vector<uint64_t>& order, uint64_t stride,
                 size_t value_size, WriteFn write) {
  uint64_t failed = 0;
  WriteBatch batch;
  for (size_t i = 0; i < order.size(); i++) {
    const uint64_t index = order[i] * stride;
    batch.Put(Key(index), Value(index, 0, value_size));
    if (batch.Count() == 64 || i + 1 == order.size()) {
      if (!write(batch).ok()) failed++;
      batch.Clear();
    }
  }
  return failed;
}

std::vector<DB*> Shards(ShardedDB* db) {
  std::vector<DB*> v;
  for (size_t i = 0; i < db->shard_count(); i++) v.push_back(db->shard(i));
  return v;
}

struct RunConfig {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string trace_out;
};

// In a traced run, runs an untraced window of the measured window's length
// just before it, as the baseline for trace.overhead_pct, and drains the
// store with `quiesce` so the measured window starts observed and quiesced.
// Both windows cover many flush cycles, so the comparison is not at the
// mercy of where one lands.
template <class QuiesceFn>
void TracingBaseline(int threads, double seconds, const StepFn& step,
                     QuiesceFn quiesce, RunReport* rep, WindowObservation* o) {
  if (g_tracer == nullptr) return;
  const PhaseResult baseline = RunPhase(threads, seconds, 0, step);
  rep->Fold(baseline);
  o->untraced_ops_per_s = baseline.rate();
  const Status s = quiesce();
  rep->Check(s.ok(), "drain after the untraced window " + s.ToString());
}

// Runs the measured window, traced in a traced run.
void RunWindow(int threads, double seconds, const StepFn& step,
               RunReport* rep, WindowObservation* o) {
  o->window = RunPhase(threads, seconds, 0, step, g_tracer != nullptr);
  rep->Fold(o->window);
}

void NoteSetup(const PhaseResult& warm, double setup_s, RunReport* rep) {
  rep->Note("setup: " + std::to_string(setup_s) + " s, warm-up " +
            std::to_string(warm.intervals) + " intervals, " +
            std::to_string(warm.seconds) + " s: " + warm.rates);
}

// ---- ingest ------------------------------------------------------------

// Outside-vs-inside self-check on a short ingest: the decorator's counts
// must equal the engine's own accounting, byte for byte.
void SelfCheck(RunReport* rep) {
  StoreEnv store;
  DbOptions o = BaseOptions(&store.device, "/selfcheck");
  o.execution_mode = talus::ExecutionMode::kBackground;
  o.wal_sync_mode = talus::WalSyncMode::kPerGroup;
  std::unique_ptr<DB> db;
  Status s = DB::Open(o, &db);
  rep->Check(s.ok(), "selfcheck: open " + s.ToString());
  if (!s.ok()) return;
  constexpr uint64_t kPutsPerThread = 1000;
  std::atomic<uint64_t> acked{0};
  ParallelFor(kIngestWriters, kIngestWriters, [&](uint64_t t) {
    for (uint64_t i = 0; i < kPutsPerThread; i++) {
      const uint64_t index = i * kIngestWriters + t;
      if (db->Put(Key(index), Value(index, 1, kIngestValue)).ok()) acked++;
    }
  });
  s = db->FlushMemTable();
  rep->Check(s.ok(), "selfcheck: flush " + s.ToString());
  const EnvTotals env = store.device.Totals();
  const EngineCounters e = Observe({db.get()});
  const talus::IoStats* io = store.device.io_stats();
  auto eq = [rep](uint64_t outside, uint64_t inside, const std::string& what) {
    rep->Check(outside == inside, "selfcheck: " + what + " outside=" +
                                      std::to_string(outside) +
                                      " inside=" + std::to_string(inside));
  };
  uint64_t appended = 0;
  for (int k = 0; k < kNumFileKinds; k++) {
    appended += env.AppendBytes(static_cast<FileKind>(k));
  }
  eq(appended, io->bytes_written(), "append bytes == IoStats.bytes_written");
  eq(env.Sum(EnvCall::kRead).bytes + env.Sum(EnvCall::kSeqRead).bytes,
     io->bytes_read(), "read bytes == IoStats.bytes_read");
  eq(env.AppendBytes(FileKind::kSst),
     e.flush_bytes_written + e.compaction_bytes_written,
     "sst append bytes == EngineStats flush+compaction bytes written");
  eq(env.at(EnvCall::kSync, FileKind::kWal).count, e.wal_syncs,
     "wal syncs == GroupCommitStats.wal_syncs");
  eq(env.at(EnvCall::kSync, FileKind::kSst).count,
     env.at(EnvCall::kNewWritableFile, FileKind::kSst).count,
     "sst syncs == sst files created");
  eq(acked.load() * (kKeyBytes + kIngestValue), e.user_payload,
     "acked user bytes == EngineStats.user_payload_written");
  eq(acked.load(), e.puts, "acked puts == EngineStats.puts");
}

void RunIngest(const RunConfig& cfg, RunReport* rep, WindowObservation* o) {
  SelfCheck(rep);

  const int64_t start = NowNs();
  StoreEnv store;
  if (g_tracer != nullptr) store.device.set_sink(g_tracer);
  std::unique_ptr<DB> db;
  // Last acknowledged version per key; 0 = never.
  std::vector<uint32_t> acked(kIngestKeys, 0);
  std::vector<Random> rnd;
  for (int t = 0; t < kIngestWriters; t++) {
    rnd.emplace_back(cfg.seed * 7919 + static_cast<uint64_t>(t));
  }
  const std::string path = "/ingest";
  auto step = [&](int t, Tally* tally, bool recording) {
    Random& r = rnd[static_cast<size_t>(t)];
    const uint64_t index =
        r.Uniform(kIngestKeys / kIngestWriters) * kIngestWriters +
        static_cast<uint64_t>(t);
    const uint32_t version = acked[index] + 1;  // Only thread t writes index.
    const std::string value = Value(index, version, kIngestValue);
    OpClock clock(recording);
    const Status s = db->Put(Key(index), value);
    const int64_t end = clock.Stop(OpKind::kPut);
    if (s.ok()) {
      acked[index] = version;
      tally->user_bytes += kKeyBytes + kIngestValue;
    }
    tally->Record(OpKind::kPut, s.ok(), clock.start, end, recording);
  };

  DbOptions opts = BaseOptions(&store.device, path);
  opts.execution_mode = talus::ExecutionMode::kBackground;
  Status s = DB::Open(opts, &db);
  rep->Check(s.ok(), "ingest: open " + s.ToString());
  if (!s.ok()) return;
  const PhaseResult warm = RunPhase(kIngestWriters, 0, 40000, step);
  rep->Fold(warm);
  s = db->FlushMemTable();
  if (!s.ok()) rep->Check(false, "ingest: quiesce " + s.ToString());
  o->setup_s = Seconds(NowNs() - start);
  NoteSetup(warm, o->setup_s, rep);

  TracingBaseline(kIngestWriters, cfg.seconds, step,
                  [&db] { return db->FlushMemTable(); }, rep, o);
  const EngineCounters e0 = Observe({db.get()});
  const EnvTotals env0 = store.device.Totals();
  RunWindow(kIngestWriters, cfg.seconds, step, rep, o);
  s = db->FlushMemTable();
  rep->Check(s.ok(), "ingest: drain after window " + s.ToString());
  o->engine = Observe({db.get()}).Minus(e0);
  o->env = store.device.Totals().Minus(env0);
  TreeShape({db.get()}, &o->runs, &o->levels);
  o->file_bytes = store.device.TotalFileBytes(path);
  o->entry_bytes = kKeyBytes + kIngestValue;
  for (uint32_t v : acked) o->live_keys += v > 0 ? 1 : 0;

  // Durability: after close and reopen, every acknowledged key reads its
  // last acknowledged value.
  db.reset();
  opts.execution_mode = talus::ExecutionMode::kInline;
  s = DB::Open(opts, &db);
  rep->Check(s.ok(), "ingest: reopen " + s.ToString());
  if (!s.ok()) return;
  std::atomic<uint64_t> checked{0}, wrong{0};
  ParallelFor(kIngestKeys, kIngestWriters, [&](uint64_t index) {
    if (acked[index] == 0) return;
    std::string value;
    const Status gs = db->Get(Key(index), &value);
    checked++;
    if (!gs.ok() || value != Value(index, acked[index], kIngestValue)) wrong++;
  });
  rep->CheckMany(checked.load(), wrong.load(),
                 "ingest: reopen reads the last acked value of " +
                     std::to_string(checked.load()) + " keys, wrong=" +
                     std::to_string(wrong.load()));
}

// ---- read_aged ---------------------------------------------------------

void RunReadAged(const RunConfig& cfg, RunReport* rep, WindowObservation* o) {
  // Expected payload hash of every preloaded (even) key.
  std::vector<uint64_t> expected(kAgedKeys);
  for (uint64_t i = 0; i < kAgedKeys; i++) {
    expected[i] = HashValue(Value(2 * i, 0, kAgedValue));
  }
  auto value_ok = [&expected](uint64_t index, const std::string& v) {
    return index % 2 == 0 && index < kAgedIndexSpace &&
           v.size() == kAgedValue && HashValue(v) == expected[index / 2];
  };

  const int64_t start = NowNs();
  StoreEnv store;
  if (g_tracer != nullptr) store.device.set_sink(g_tracer);
  std::unique_ptr<DB> db;
  std::vector<Random> rnd;
  for (int t = 0; t < kAgedReaders; t++) {
    rnd.emplace_back(cfg.seed * 104729 + static_cast<uint64_t>(t));
  }
  const std::string path = "/aged";
  auto step = [&](int t, Tally* tally, bool recording) {
    Random& r = rnd[static_cast<size_t>(t)];
    const bool scan = r.Uniform(100) < static_cast<uint64_t>(kAgedScanPct);
    const uint64_t index = r.Uniform(kAgedIndexSpace);
    const std::string key = Key(index);
    if (!scan) {
      std::string value;
      OpClock clock(recording);
      const Status s = db->Get(key, &value);
      const int64_t end = clock.Stop(OpKind::kGet);
      const bool ok = index % 2 == 0 ? s.ok() && value_ok(index, value)
                                     : s.IsNotFound();
      tally->Record(OpKind::kGet, ok, clock.start, end, recording);
      return;
    }
    std::vector<std::pair<std::string, std::string>> out;
    OpClock clock(recording);
    const Status s = db->Scan(key, kAgedScanLength, &out);
    const int64_t end = clock.Stop(OpKind::kScan);
    const uint64_t first = index + (index % 2);
    const uint64_t expect_n = std::min<uint64_t>(
        kAgedScanLength,
        first < kAgedIndexSpace ? (kAgedIndexSpace - first) / 2 : 0);
    bool ok = s.ok() && out.size() == expect_n;
    for (size_t j = 0; ok && j < out.size(); j++) {
      const uint64_t want = first + 2 * j;
      ok = out[j].first == Key(want) && value_ok(want, out[j].second);
    }
    tally->Record(OpKind::kScan, ok, clock.start, end, recording);
  };

  // Build the aged tree inline, where its shape does not depend on thread
  // timing, then reopen in background mode for the window.
  DbOptions opts = BaseOptions(&store.device, path);
  Status s = DB::Open(opts, &db);
  rep->Check(s.ok(), "read_aged: open inline " + s.ToString());
  if (!s.ok()) return;
  const uint64_t bad =
      Preload(Shuffled(kAgedKeys, cfg.seed), 2, kAgedValue,
              [&db](const WriteBatch& b) { return db->Write(b); });
  rep->CheckMany((kAgedKeys + 63) / 64, bad, "read_aged: preload batches");
  db.reset();
  opts.execution_mode = talus::ExecutionMode::kBackground;
  s = DB::Open(opts, &db);
  rep->Check(s.ok(), "read_aged: reopen background " + s.ToString());
  if (!s.ok()) return;
  const PhaseResult warm = RunPhase(kAgedReaders, 0, 600000, step);
  rep->Fold(warm);
  s = db->FlushMemTable();
  rep->Check(s.ok(), "read_aged: quiesce " + s.ToString());
  o->setup_s = Seconds(NowNs() - start);
  NoteSetup(warm, o->setup_s, rep);

  TracingBaseline(kAgedReaders, cfg.seconds, step,
                  [&db] { return db->FlushMemTable(); }, rep, o);
  const EngineCounters e0 = Observe({db.get()});
  const EnvTotals env0 = store.device.Totals();
  RunWindow(kAgedReaders, cfg.seconds, step, rep, o);
  o->engine = Observe({db.get()}).Minus(e0);
  o->env = store.device.Totals().Minus(env0);
  TreeShape({db.get()}, &o->runs, &o->levels);
  o->file_bytes = store.device.TotalFileBytes(path);
  o->entry_bytes = kKeyBytes + kAgedValue;
  o->live_keys = kAgedKeys;
}

// ---- served_mixed ------------------------------------------------------

void RunServedMixed(const RunConfig& cfg, RunReport* rep,
                    WindowObservation* o) {
  using talus::server::Client;
  using talus::server::Server;
  const int64_t start = NowNs();
  StoreEnv store;
  if (g_tracer != nullptr) store.device.set_sink(g_tracer);
  std::unique_ptr<ShardedDB> db;
  std::unique_ptr<Server> server;
  // Versions per key: issued (sent) and acknowledged. Client c writes only
  // keys whose low bit is c, so each key's versions come from one client
  // in order; both clients read every key.
  std::vector<std::atomic<uint32_t>> issued(kServedKeys);
  std::vector<std::atomic<uint32_t>> acked(kServedKeys);
  struct ClientState {
    Client client;
    Random rnd{0};
    std::unique_ptr<talus::workload::KeyPicker> picker;
  };
  std::vector<std::unique_ptr<ClientState>> clients;
  const std::string path = "/served";

  DbOptions opts = BaseOptions(&store.device, path);
  opts.shard_count = kServedShards;
  for (int i = 1; i < kServedShards; i++) {
    opts.shard_split_points.push_back(
        Key(kServedKeys * static_cast<uint64_t>(i) / kServedShards));
  }

  auto step = [&](int t, Tally* tally, bool recording) {
    ClientState& c = *clients[static_cast<size_t>(t)];
    struct Pending {
      uint64_t id;
      uint64_t index;
      bool put;
      uint32_t version;  // PUT: version sent; GET: version acked at send.
    };
    Pending window[kServedDepth];
    for (int d = 0; d < kServedDepth; d++) {
      uint64_t index = c.picker->Next(&c.rnd);
      const bool put = c.rnd.Uniform(2) == 0;
      if (put) {
        index = (index & ~uint64_t{1}) | static_cast<uint64_t>(t);
        const uint32_t v = issued[index].load(std::memory_order_relaxed) + 1;
        issued[index].store(v, std::memory_order_relaxed);
        window[d] = {
            c.client.SendPut(Key(index), Value(index, v, kServedValue)),
            index, true, v};
      } else {
        window[d] = {c.client.SendGet(Key(index)), index, false,
                     acked[index].load(std::memory_order_acquire)};
      }
    }
    const int64_t sent = NowNs();
    Status fs = c.client.Flush();
    for (int d = 0; d < kServedDepth; d++) {
      const Pending& p = window[d];
      Client::Result res;
      const Status ws = fs.ok() ? c.client.Wait(p.id, &res) : fs;
      const int64_t end = NowNs();
      const OpKind kind = p.put ? OpKind::kPut : OpKind::kGet;
      const bool traced =
          recording && g_tracer != nullptr && g_tracer->enabled();
      if (traced) g_tracer->RecordRemoteOp(kind, sent, end);
      bool ok = ws.ok() && res.status.ok();
      if (ok && p.put) {
        acked[p.index].store(p.version, std::memory_order_release);
        tally->user_bytes += kKeyBytes + kServedValue;
      } else if (ok) {
        uint64_t index = 0, version = 0;
        ok = ParseValue(res.value, &index, &version) && index == p.index &&
             version <= issued[p.index].load(std::memory_order_relaxed) &&
             res.value == Value(index, version, kServedValue);
        // Not a failure by the benchmark's rule (the value is one this
        // generator wrote), but a visibility gap worth seeing: a write
        // acknowledged before this GET was sent is not yet visible to it.
        if (ok && version < p.version && recording) tally->stale_gets++;
      }
      tally->Record(kind, ok, sent, end, recording);
    }
  };

  opts.execution_mode = talus::ExecutionMode::kInline;
  opts.wal_sync_mode = talus::WalSyncMode::kNone;
  Status s = ShardedDB::Open(opts, &db);
  rep->Check(s.ok(), "served_mixed: open inline " + s.ToString());
  if (!s.ok()) return;
  const uint64_t bad =
      Preload(Shuffled(kServedKeys, cfg.seed), 1, kServedValue,
              [&db](const WriteBatch& b) { return db->Write(b); });
  rep->CheckMany((kServedKeys + 63) / 64, bad, "served_mixed: preload batches");
  db.reset();
  opts.execution_mode = talus::ExecutionMode::kBackground;
  opts.wal_sync_mode = talus::WalSyncMode::kPerGroup;
  s = ShardedDB::Open(opts, &db);
  rep->Check(s.ok(), "served_mixed: reopen background " + s.ToString());
  if (!s.ok()) return;
  talus::server::ServerOptions sopts;
  sopts.worker_threads = kServedWorkers;
  server = std::make_unique<Server>(db.get(), sopts);
  s = server->Start();
  rep->Check(s.ok(), "served_mixed: server start " + s.ToString());
  if (!s.ok()) return;
  talus::workload::KeySpaceSpec spec;
  spec.num_keys = kServedKeys;
  spec.distribution = talus::workload::Distribution::kZipfian;
  spec.zipfian_theta = 0.99;
  for (int t = 0; t < kServedClients; t++) {
    auto c = std::make_unique<ClientState>();
    c->rnd = Random(cfg.seed * 15485863 + static_cast<uint64_t>(t));
    c->picker = talus::workload::NewKeyPicker(spec);
    s = c->client.Connect("127.0.0.1", server->port());
    rep->Check(s.ok(), "served_mixed: connect " + s.ToString());
    if (!s.ok()) return;
    clients.push_back(std::move(c));
  }
  const PhaseResult warm = RunPhase(kServedClients, 0, 20000, step);
  rep->Fold(warm);
  s = db->FlushMemTable();
  if (!s.ok()) rep->Check(false, "served_mixed: quiesce " + s.ToString());
  o->setup_s = Seconds(NowNs() - start);
  NoteSetup(warm, o->setup_s, rep);

  TracingBaseline(kServedClients, cfg.seconds, step,
                  [&db] { return db->FlushMemTable(); }, rep, o);
  const EngineCounters e0 = Observe(Shards(db.get()));
  const EnvTotals env0 = store.device.Totals();
  const talus::server::ServerStats srv0 = server->stats();
  RunWindow(kServedClients, cfg.seconds, step, rep, o);
  s = db->FlushMemTable();
  rep->Check(s.ok(), "served_mixed: drain after window " + s.ToString());
  const talus::server::ServerStats srv1 = server->stats();
  o->server.requests_total = srv1.requests_total - srv0.requests_total;
  o->server.request_errors = srv1.request_errors - srv0.request_errors;
  o->server.coalesced_batches = srv1.coalesced_batches - srv0.coalesced_batches;
  o->server.coalesced_ops = srv1.coalesced_ops - srv0.coalesced_ops;
  o->server.bytes_in = srv1.bytes_in - srv0.bytes_in;
  o->server.bytes_out = srv1.bytes_out - srv0.bytes_out;
  o->engine = Observe(Shards(db.get())).Minus(e0);
  o->env = store.device.Totals().Minus(env0);
  TreeShape(Shards(db.get()), &o->runs, &o->levels);
  o->file_bytes = store.device.TotalFileBytes(path);
  o->entry_bytes = kKeyBytes + kServedValue;
  o->live_keys = kServedKeys;

  // Durability: drain the server, reopen the store, and check a seeded
  // sample of keys against their last acknowledged version.
  clients.clear();
  server->Stop();
  server.reset();
  db.reset();
  opts.execution_mode = talus::ExecutionMode::kInline;
  s = ShardedDB::Open(opts, &db);
  rep->Check(s.ok(), "served_mixed: reopen " + s.ToString());
  if (!s.ok()) return;
  Random r(cfg.seed ^ 0x5eed);
  uint64_t wrong = 0;
  for (uint64_t i = 0; i < kServedVerifySample; i++) {
    const uint64_t index = r.Uniform(kServedKeys);
    std::string value;
    const Status gs = db->Get(Key(index), &value);
    if (!gs.ok() || value != Value(index, acked[index].load(), kServedValue)) {
      wrong++;
    }
  }
  rep->CheckMany(kServedVerifySample, wrong,
                 "served_mixed: reopen reads the last acked value of " +
                     std::to_string(kServedVerifySample) +
                     " sampled keys, wrong=" + std::to_string(wrong));
}

// ---- Output ------------------------------------------------------------

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) v = 0;
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

void PrintReport(const RunConfig& cfg, const RunReport& rep) {
  std::printf("# talusbench workload=%s seed=%llu seconds=%g trace=%d\n",
              cfg.workload.c_str(), static_cast<unsigned long long>(cfg.seed),
              cfg.seconds, cfg.trace ? 1 : 0);
  std::printf("# device model: sync +%lluus, rename +%lluus, remove +%lluus\n",
              static_cast<unsigned long long>(kSyncDelayUs),
              static_cast<unsigned long long>(kRenameDelayUs),
              static_cast<unsigned long long>(kRemoveDelayUs));
  for (const std::string& n : rep.notes) std::printf("# %s\n", n.c_str());
  auto table = [](const char* title, const std::vector<Metric>& ms) {
    std::printf("# %s\n", title);
    for (const Metric& m : ms) {
      std::printf("%-34s %16.4f %-7s", m.name.c_str(), m.value, m.unit.c_str());
      if (m.samples > 0) {
        std::printf(" n=%llu", static_cast<unsigned long long>(m.samples));
      }
      std::printf("\n");
    }
  };
  table("end-to-end", rep.end_to_end);
  table("per-layer", rep.per_layer);
  std::printf("# attempted=%llu failed=%llu\n",
              static_cast<unsigned long long>(rep.attempted),
              static_cast<unsigned long long>(rep.failed));

  const std::vector<Metric>& chosen =
      cfg.trace ? rep.per_layer : rep.end_to_end;
  std::string json = "{\"correct\": ";
  json += rep.checks_ok && rep.failed == 0 ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(rep.attempted);
  json += ", \"failed\": " + std::to_string(rep.failed);
  json += ", \"metrics\": {";
  for (size_t i = 0; i < chosen.size(); i++) {
    if (i > 0) json += ", ";
    json += "\"" + chosen[i].name +
            "\": {\"value\": " + JsonNumber(chosen[i].value) +
            ", \"unit\": \"" + chosen[i].unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

// ---- Probe -------------------------------------------------------------

// Times fsync, rename-over-existing and unlink of a 1 MB file in `dir`
// through the engine's POSIX Env, to calibrate the device model.
void Probe(const std::string& dir) {
  talus::Env* env = talus::Env::Default();
  Status s = env->CreateDirIfMissing(dir);
  if (!s.ok()) {
    std::fprintf(stderr, "probe: %s: %s\n", dir.c_str(), s.ToString().c_str());
    std::exit(1);
  }
  auto ms_since = [](int64_t start) {
    return static_cast<double>(NowNs() - start) / 1e6;
  };
  auto summary = [](std::vector<double> v) {
    std::sort(v.begin(), v.end());
    char buf[128];
    std::snprintf(buf, sizeof(buf),
                  "{\"n\": %zu, \"p50_ms\": %.4f, \"min_ms\": %.4f, "
                  "\"max_ms\": %.4f}",
                  v.size(), v[v.size() / 2], v.front(), v.back());
    return std::string(buf);
  };
  const std::string page(4096, 'p');
  const std::string mb(1 << 20, 'm');
  std::vector<double> fsync_ms, rename_ms, unlink_ms;
  {
    std::unique_ptr<talus::WritableFile> f;
    s = env->NewWritableFile(dir + "/probe-sync", &f);
    for (int i = 0; s.ok() && i < 50; i++) {
      s = f->Append(page);
      const int64_t t = NowNs();
      if (s.ok()) s = f->Sync();
      fsync_ms.push_back(ms_since(t));
    }
    if (s.ok()) s = f->Close();
    env->RemoveFile(dir + "/probe-sync");
  }
  for (int i = 0; s.ok() && i < 20; i++) {
    std::unique_ptr<talus::WritableFile> f;
    s = env->NewWritableFile(dir + "/probe-tmp", &f);
    if (s.ok()) s = f->Append(page);
    if (s.ok()) s = f->Sync();
    if (s.ok()) s = f->Close();
    const int64_t t = NowNs();
    if (s.ok()) s = env->RenameFile(dir + "/probe-tmp", dir + "/probe-target");
    rename_ms.push_back(ms_since(t));
  }
  env->RemoveFile(dir + "/probe-target");
  for (int i = 0; s.ok() && i < 10; i++) {
    std::unique_ptr<talus::WritableFile> f;
    s = env->NewWritableFile(dir + "/probe-unlink", &f);
    if (s.ok()) s = f->Append(mb);
    if (s.ok()) s = f->Sync();
    if (s.ok()) s = f->Close();
    const int64_t t = NowNs();
    if (s.ok()) s = env->RemoveFile(dir + "/probe-unlink");
    unlink_ms.push_back(ms_since(t));
  }
  if (!s.ok()) {
    std::fprintf(stderr, "probe: %s: %s\n", dir.c_str(), s.ToString().c_str());
    std::exit(1);
  }
  std::printf("{\"dir\": \"%s\", \"fsync_4k\": %s, "
              "\"rename_over_existing\": %s, "
              "\"unlink_1mb\": %s}\n",
              dir.c_str(), summary(fsync_ms).c_str(),
              summary(rename_ms).c_str(), summary(unlink_ms).c_str());
}

int Usage() {
  std::fprintf(stderr,
               "usage: talusbench --workload ingest|read_aged|served_mixed "
               "--seed N --seconds S --trace 0|1 [--trace-out FILE]\n"
               "       talusbench --probe DIR...\n");
  return 2;
}

int Main(int argc, char** argv) {
  RunConfig cfg;
  std::vector<std::string> probe_dirs;
  bool probe = false;
  for (int i = 1; i < argc; i++) {
    const std::string a = argv[i];
    if (a == "--probe") {
      probe = true;
      continue;
    }
    if (probe) {
      probe_dirs.push_back(a);
      continue;
    }
    if (i + 1 >= argc) return Usage();
    const std::string v = argv[++i];
    if (a == "--workload") {
      cfg.workload = v;
    } else if (a == "--seed") {
      cfg.seed = std::strtoull(v.c_str(), nullptr, 10);
    } else if (a == "--seconds") {
      cfg.seconds = std::strtod(v.c_str(), nullptr);
    } else if (a == "--trace") {
      cfg.trace = v == "1";
    } else if (a == "--trace-out") {
      cfg.trace_out = v;
    } else {
      return Usage();
    }
  }
  if (probe) {
    if (probe_dirs.empty()) return Usage();
    for (const std::string& d : probe_dirs) Probe(d);
    return 0;
  }
  if (!(cfg.seconds > 0)) return Usage();

  std::unique_ptr<Tracer> tracer;
  if (cfg.trace) {
    tracer = std::make_unique<Tracer>(kSpansPerThread);
    g_tracer = tracer.get();
  }
  RunReport rep;
  WindowObservation obs;
  if (cfg.workload == "ingest") {
    RunIngest(cfg, &rep, &obs);
  } else if (cfg.workload == "read_aged") {
    RunReadAged(cfg, &rep, &obs);
  } else if (cfg.workload == "served_mixed") {
    RunServedMixed(cfg, &rep, &obs);
  } else {
    return Usage();
  }
  if (obs.window.tallies.empty()) {
    // A set-up step failed: there is no window to report on.
    for (const std::string& n : rep.notes) {
      std::fprintf(stderr, "%s\n", n.c_str());
    }
    return 1;
  }
  ComputeMetrics(obs, &rep);
  if (tracer != nullptr) {
    rep.Note("trace: " + std::to_string(tracer->spans_kept()) +
             " spans kept, " + std::to_string(tracer->spans_dropped()) +
             " dropped");
    if (!cfg.trace_out.empty() && !tracer->WriteJsonl(cfg.trace_out)) {
      std::fprintf(stderr, "cannot write %s\n", cfg.trace_out.c_str());
      return 1;
    }
  }
  PrintReport(cfg, rep);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
