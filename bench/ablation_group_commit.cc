// Ablation: group-commit write pipeline — writer threads × commit mode ×
// WAL sync mode (DESIGN.md §2.9).
//
// Wall-clock put throughput under concurrent writers. "serial" caps the
// group byte budget so every batch commits alone (one WAL append + one sync
// per batch — the pre-pipeline engine's behavior); "group" uses the default
// budget so the leader absorbs queued batches and applies them all to the
// memtable. The interesting columns are the throughput scaling as writers
// are added under wal_sync=per_group (where the amortized fsync dominates)
// and the group-size / queue-wait counters.
//
// Runs on the real filesystem by default so fsync costs are real; --mem
// switches to the deterministic in-memory env. --smoke shrinks the sweep to
// a CI-friendly <60 s run; --json PATH additionally emits the rows as JSON
// (the CI bench-smoke job uploads BENCH_write.json per PR to accumulate a
// perf trajectory). Rows carry put-latency percentiles (lat_p50_us /
// lat_p99_us / lat_p999_us from the engine's obs::LatencyRecorder) so the
// same baseline that gates throughput also gates tail latency.
//
// --trace PATH streams the engine's event ring (flushes, compactions,
// stalls) to PATH as JSONL while the sweep runs; --stats-jsonl PREFIX
// additionally runs the obs::StatsSnapshotter during each run, writing the
// amp/latency/drift time series to PREFIX.<run>.jsonl. --overhead replaces
// the sweep with two A/Bs at 8 threads: enable_latency_stats on/off on the
// write path (DESIGN.md §6.5, target <3%) and enable_amp_stats on/off on
// the read path, where the per-lookup probe fold lives (DESIGN.md §6.9).
#include <unistd.h>

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "lsm/db.h"
#include "util/random.h"
#include "workload/generator.h"

namespace talus {
namespace {

struct BenchConfig {
  bool smoke = false;
  bool use_mem_env = false;
  bool overhead = false;
  std::string json_path;
  std::string trace_path;
  std::string stats_jsonl_prefix;
};

struct RunResult {
  double kops_per_sec = 0;
  double wall_seconds = 0;
  metrics::GroupCommitStats gc;
  uint64_t stall_ms = 0;
  // Caller-observed Put percentiles (microseconds) from talus.latency.
  double lat_p50_us = 0;
  double lat_p99_us = 0;
  double lat_p999_us = 0;
  // Cumulative amplification (talus.amp) at the end of the run.
  double write_amp = 0;
  double read_amp = 0;
  double space_amp = 0;
};

struct Variant {
  const char* name;          // Row label and JSON "mode".
  bool grouped;              // false: byte budget forces 1-batch groups.
  WalSyncMode sync_mode;
  const char* sync_name;
};

uint64_t OpsPerThread(const BenchConfig& cfg) {
  return cfg.smoke ? 4000 : 30000;
}

// Unique per-run directory so repeated sweeps never share files.
std::string RunPath(const BenchConfig& cfg, int run_index) {
  if (cfg.use_mem_env) return "/db";
  return "/tmp/talus_bench_group_commit_" +
         std::to_string(static_cast<unsigned>(::getpid())) + "_" +
         std::to_string(run_index);
}

void CleanupDir(Env* env, const std::string& path) {
  std::vector<std::string> children;
  if (env->GetChildren(path, &children).ok()) {
    for (const auto& name : children) env->RemoveFile(path + "/" + name);
  }
}

RunResult RunOne(const BenchConfig& cfg, const Variant& variant, int writers,
                 int run_index, bool latency_stats = true) {
  std::unique_ptr<Env> owned_env;
  Env* env;
  if (cfg.use_mem_env) {
    owned_env = NewMemEnv();
    env = owned_env.get();
  } else {
    env = Env::Default();
  }

  DbOptions opts;
  opts.env = env;
  opts.path = RunPath(cfg, run_index);
  opts.write_buffer_size = 256 << 10;
  opts.target_file_size = 256 << 10;
  opts.block_cache_bytes = 4 << 20;
  opts.policy = GrowthPolicyConfig::VTLevelFull(3);
  opts.execution_mode = ExecutionMode::kBackground;
  opts.num_background_threads = 2;
  opts.wal_sync_mode = variant.sync_mode;
  opts.enable_latency_stats = latency_stats;
  if (!cfg.trace_path.empty()) {
    // One trace per run: OpenTraceFile truncates, so sharing PATH across
    // the sweep would leave only the last run's events.
    opts.trace_file_path =
        cfg.trace_path + "." + std::to_string(run_index) + ".jsonl";
  }
  if (!cfg.stats_jsonl_prefix.empty()) {
    // Same per-run naming as --trace: the snapshotter's file is truncated
    // at Open.
    opts.stats_snapshot_interval_ms = 100;
    opts.stats_snapshot_path =
        cfg.stats_jsonl_prefix + "." + std::to_string(run_index) + ".jsonl";
  }
  if (!variant.grouped) {
    // A 1-byte budget always keeps just the leader: every batch pays its
    // own WAL append and sync, like the pre-group-commit engine.
    opts.max_write_group_bytes = 1;
  }

  std::unique_ptr<DB> db;
  Status s = DB::Open(opts, &db);
  if (!s.ok()) {
    std::fprintf(stderr, "open failed: %s\n", s.ToString().c_str());
    return {};
  }

  const uint64_t ops = OpsPerThread(cfg);
  const auto start = std::chrono::steady_clock::now();
  std::vector<std::thread> threads;
  for (int w = 0; w < writers; w++) {
    threads.emplace_back([&db, w, ops] {
      Random rnd(7100 + w);
      const std::string value(100, 'g');
      for (uint64_t i = 0; i < ops; i++) {
        std::string key = workload::FormatKey(rnd.Uniform(50000), 16);
        db->Put(key, value);
      }
    });
  }
  for (auto& t : threads) t.join();
  const auto end = std::chrono::steady_clock::now();

  RunResult r;
  r.wall_seconds =
      std::chrono::duration_cast<std::chrono::duration<double>>(end - start)
          .count();
  r.kops_per_sec = static_cast<double>(ops) * writers / r.wall_seconds / 1000;
  r.gc = db->GetGroupCommitStats();
  r.stall_ms = db->stats().stall_micros / 1000;
  if (latency_stats) {
    const std::vector<Histogram> lat = db->GetLatencyHistograms();
    const Histogram& put = lat[static_cast<size_t>(obs::OpType::kPut)];
    r.lat_p50_us = put.Median();
    r.lat_p99_us = put.Percentile(99);
    r.lat_p999_us = put.Percentile(99.9);
  }
  const obs::AmpSnapshot amp = db->GetAmpSnapshot();
  r.write_amp = amp.WriteAmp();
  r.read_amp = amp.ReadAmp();
  r.space_amp = amp.SpaceAmp();
  const std::string path = opts.path;
  db.reset();
  if (!cfg.use_mem_env) CleanupDir(env, path);
  return r;
}

// Read-path arm of --overhead: load a fixed key space once, then time
// concurrent point lookups with amp accounting on or off. The write-only
// sweep cannot see the probe fold (it only runs on Get), so this is where
// the enable_amp_stats cost is measured.
double ReadRunOne(const BenchConfig& cfg, int readers, int run_index,
                  bool amp_stats) {
  std::unique_ptr<Env> owned_env;
  Env* env;
  if (cfg.use_mem_env) {
    owned_env = NewMemEnv();
    env = owned_env.get();
  } else {
    env = Env::Default();
  }

  DbOptions opts;
  opts.env = env;
  opts.path = RunPath(cfg, 100 + run_index);
  opts.write_buffer_size = 256 << 10;
  opts.target_file_size = 256 << 10;
  opts.block_cache_bytes = 4 << 20;
  opts.policy = GrowthPolicyConfig::VTLevelFull(3);
  opts.enable_latency_stats = false;  // Isolate the probe-fold cost.
  opts.enable_amp_stats = amp_stats;

  std::unique_ptr<DB> db;
  Status s = DB::Open(opts, &db);
  if (!s.ok()) {
    std::fprintf(stderr, "open failed: %s\n", s.ToString().c_str());
    return 0;
  }

  const uint64_t key_space = 50000;
  const std::string value(100, 'g');
  for (uint64_t k = 0; k < key_space; k++) {
    db->Put(workload::FormatKey(k, 16), value);
  }
  db->FlushMemTable();

  const uint64_t ops = OpsPerThread(cfg);
  const auto start = std::chrono::steady_clock::now();
  std::vector<std::thread> threads;
  for (int w = 0; w < readers; w++) {
    threads.emplace_back([&db, w, ops, key_space] {
      Random rnd(9300 + w);
      std::string got;
      for (uint64_t i = 0; i < ops; i++) {
        db->Get(workload::FormatKey(rnd.Uniform(key_space), 16), &got);
      }
    });
  }
  for (auto& t : threads) t.join();
  const auto end = std::chrono::steady_clock::now();
  const double wall =
      std::chrono::duration_cast<std::chrono::duration<double>>(end - start)
          .count();

  const std::string path = opts.path;
  db.reset();
  if (!cfg.use_mem_env) CleanupDir(env, path);
  return static_cast<double>(ops) * readers / wall / 1000;
}

}  // namespace
}  // namespace talus

int main(int argc, char** argv) {
  using namespace talus;

  BenchConfig cfg;
  for (int i = 1; i < argc; i++) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      cfg.smoke = true;
    } else if (std::strcmp(argv[i], "--mem") == 0) {
      cfg.use_mem_env = true;
    } else if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      cfg.json_path = argv[++i];
    } else if (std::strcmp(argv[i], "--trace") == 0 && i + 1 < argc) {
      cfg.trace_path = argv[++i];
    } else if (std::strcmp(argv[i], "--stats-jsonl") == 0 && i + 1 < argc) {
      cfg.stats_jsonl_prefix = argv[++i];
    } else if (std::strcmp(argv[i], "--overhead") == 0) {
      cfg.overhead = true;
    } else {
      std::fprintf(stderr,
                   "usage: %s [--smoke] [--mem] [--json PATH] [--trace PATH] "
                   "[--stats-jsonl PREFIX] [--overhead]\n",
                   argv[0]);
      return 1;
    }
  }

  if (cfg.overhead) {
    // A/B the observer itself: identical 8-writer runs with latency stats
    // on and off, alternated and best-of-N so background noise hits both
    // arms equally. wal_sync=none keeps the workload CPU-bound — fsync
    // time would mask the recorder's cost.
    const Variant variant = {"group", true, WalSyncMode::kNone, "none"};
    const int writers = 8;
    const int reps = cfg.smoke ? 2 : 3;
    double best_on = 0, best_off = 0;
    std::printf("# Observer-overhead ablation: %llu puts/thread, 8 writers, "
                "group commit, wal_sync=none, %s env, best of %d\n",
                static_cast<unsigned long long>(OpsPerThread(cfg)),
                cfg.use_mem_env ? "mem" : "posix", reps);
    for (int rep = 0; rep < reps; rep++) {
      RunResult on = RunOne(cfg, variant, writers, 2 * rep, true);
      RunResult off = RunOne(cfg, variant, writers, 2 * rep + 1, false);
      std::printf("rep %d: stats_on %9.1f kops/s (p99 %.0f us)   "
                  "stats_off %9.1f kops/s\n",
                  rep, on.kops_per_sec, on.lat_p99_us, off.kops_per_sec);
      best_on = std::max(best_on, on.kops_per_sec);
      best_off = std::max(best_off, off.kops_per_sec);
    }
    const double overhead_pct =
        best_off > 0 ? (best_off - best_on) / best_off * 100 : 0;
    std::printf("best: stats_on %.1f kops/s, stats_off %.1f kops/s, "
                "observer overhead %.2f%%\n",
                best_on, best_off, overhead_pct);

    // Read-path arm: same alternated best-of-N discipline, amp accounting
    // on vs off, 8 concurrent readers over a loaded key space.
    std::printf("# Probe-accounting ablation: %llu gets/thread, 8 readers, "
                "%s env, best of %d\n",
                static_cast<unsigned long long>(OpsPerThread(cfg)),
                cfg.use_mem_env ? "mem" : "posix", reps);
    double best_amp_on = 0, best_amp_off = 0;
    for (int rep = 0; rep < reps; rep++) {
      const double on = ReadRunOne(cfg, writers, 2 * rep, true);
      const double off = ReadRunOne(cfg, writers, 2 * rep + 1, false);
      std::printf("rep %d: amp_on %9.1f kops/s   amp_off %9.1f kops/s\n",
                  rep, on, off);
      best_amp_on = std::max(best_amp_on, on);
      best_amp_off = std::max(best_amp_off, off);
    }
    const double amp_overhead_pct =
        best_amp_off > 0
            ? (best_amp_off - best_amp_on) / best_amp_off * 100
            : 0;
    std::printf("best: amp_on %.1f kops/s, amp_off %.1f kops/s, "
                "probe-accounting overhead %.2f%%\n",
                best_amp_on, best_amp_off, amp_overhead_pct);

    if (!cfg.json_path.empty()) {
      std::FILE* f = std::fopen(cfg.json_path.c_str(), "w");
      if (f == nullptr) {
        std::fprintf(stderr, "cannot write %s\n", cfg.json_path.c_str());
        return 1;
      }
      std::fprintf(f,
                   "{\"bench\":\"ablation_observer_overhead\","
                   "\"writers\":%d,\"kops_stats_on\":%.1f,"
                   "\"kops_stats_off\":%.1f,\"overhead_pct\":%.2f,"
                   "\"kops_amp_on\":%.1f,\"kops_amp_off\":%.1f,"
                   "\"amp_overhead_pct\":%.2f}\n",
                   writers, best_on, best_off, overhead_pct, best_amp_on,
                   best_amp_off, amp_overhead_pct);
      std::fclose(f);
      std::printf("wrote %s\n", cfg.json_path.c_str());
    }
    return 0;
  }

  const std::vector<Variant> variants = {
      {"serial", false, WalSyncMode::kNone, "none"},
      {"group", true, WalSyncMode::kNone, "none"},
      {"serial", false, WalSyncMode::kPerGroup, "per_group"},
      {"group", true, WalSyncMode::kPerGroup, "per_group"},
      {"group", true, WalSyncMode::kInterval, "interval"},
  };
  const std::vector<int> thread_counts =
      cfg.smoke ? std::vector<int>{1, 8} : std::vector<int>{1, 2, 4, 8};

  std::printf("# Group-commit ablation: %llu puts/thread, 100B values, "
              "background mode, %s env\n",
              static_cast<unsigned long long>(OpsPerThread(cfg)),
              cfg.use_mem_env ? "mem" : "posix");
  std::printf("%-10s %-10s %7s %9s %8s %10s %10s %9s %11s %9s %8s %8s\n",
              "mode", "wal_sync", "writers", "kops/s", "wall_s", "groups",
              "grp_avg", "grp_max", "wal_syncs", "wait_us", "p99_us",
              "p999_us");

  std::string json = "{\"bench\":\"ablation_group_commit\",\"smoke\":" +
                     std::string(cfg.smoke ? "true" : "false") +
                     ",\"rows\":[\n";
  bool first_row = true;
  int run_index = 0;
  for (const auto& variant : variants) {
    for (int writers : thread_counts) {
      RunResult r = RunOne(cfg, variant, writers, run_index++);
      std::printf("%-10s %-10s %7d %9.1f %8.2f %10llu %10.2f %9.0f %11llu "
                  "%9llu %8.0f %8.0f\n",
                  variant.name, variant.sync_name, writers, r.kops_per_sec,
                  r.wall_seconds,
                  static_cast<unsigned long long>(r.gc.group_commits),
                  r.gc.group_size_avg, r.gc.group_size_max,
                  static_cast<unsigned long long>(r.gc.wal_syncs),
                  static_cast<unsigned long long>(
                      r.gc.write_queue_wait_micros),
                  r.lat_p99_us, r.lat_p999_us);
      char row[768];
      std::snprintf(
          row, sizeof(row),
          "%s{\"mode\":\"%s\",\"wal_sync\":\"%s\",\"writers\":%d,"
          "\"kops_per_sec\":%.1f,\"wall_seconds\":%.3f,"
          "\"group_commits\":%llu,\"group_size_avg\":%.3f,"
          "\"group_size_p50\":%.1f,\"group_size_max\":%.0f,"
          "\"wal_syncs\":%llu,\"write_queue_wait_micros\":%llu,"
          "\"stall_ms\":%llu,\"lat_p50_us\":%.1f,\"lat_p99_us\":%.1f,"
          "\"lat_p999_us\":%.1f,\"write_amp\":%.3f,\"read_amp\":%.3f,"
          "\"space_amp\":%.3f}",
          first_row ? "" : ",\n", variant.name, variant.sync_name, writers,
          r.kops_per_sec, r.wall_seconds,
          static_cast<unsigned long long>(r.gc.group_commits),
          r.gc.group_size_avg, r.gc.group_size_p50, r.gc.group_size_max,
          static_cast<unsigned long long>(r.gc.wal_syncs),
          static_cast<unsigned long long>(r.gc.write_queue_wait_micros),
          static_cast<unsigned long long>(r.stall_ms), r.lat_p50_us,
          r.lat_p99_us, r.lat_p999_us, r.write_amp, r.read_amp, r.space_amp);
      json += row;
      first_row = false;
    }
    std::printf("\n");
  }
  json += "\n]}\n";

  if (!cfg.json_path.empty()) {
    std::FILE* f = std::fopen(cfg.json_path.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "cannot write %s\n", cfg.json_path.c_str());
      return 1;
    }
    std::fwrite(json.data(), 1, json.size(), f);
    std::fclose(f);
    std::printf("wrote %s\n", cfg.json_path.c_str());
  }
  return 0;
}
