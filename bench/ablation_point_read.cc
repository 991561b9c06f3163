// Ablation: point-read path — filter variant × block-cache regime × reader
// threads (DESIGN.md §7).
//
// Rows (the "mode" column):
//   fast_legacy   Block::PointGet path, legacy flat bloom
//   fast_blocked  Block::PointGet + cache-line-blocked bloom
// The "policy" column is the cache regime: cachehit (block cache larger
// than the tree, warmed) vs cachemiss (cache disabled: every lookup decodes
// a freshly loaded block — on the mem env via the zero-copy view path).
// blocks_per_lookup comes from the amp tracker.
//
// Always runs on the mem env: the subject is CPU cost per lookup, not disk.
// --smoke shrinks the sweep for CI; --json PATH emits rows for the
// compare_bench.py gate and the nightly trajectory (BENCH_point_read.json).
#include <algorithm>
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
  std::string json_path;
};

struct ModeVariant {
  const char* name;
  FilterVariant filter_variant;
};

struct RunResult {
  double kops_per_sec = 0;
  double wall_seconds = 0;
  double lat_p50_us = 0;
  double lat_p99_us = 0;
  double lat_p999_us = 0;
  double blocks_per_lookup = 0;
  double filter_negative_rate = 0;  // Filter negatives / files probed.
  uint64_t bloom_false_positives = 0;
  uint64_t lookups = 0;
};

uint64_t NumKeys(const BenchConfig& cfg) { return cfg.smoke ? 10000 : 40000; }
uint64_t OpsPerThread(const BenchConfig& cfg) {
  return cfg.smoke ? 20000 : 120000;
}

RunResult RunOne(const BenchConfig& cfg, const ModeVariant& mode,
                 bool cache_hit_regime, int readers) {
  auto env = NewMemEnv();
  DbOptions opts;
  opts.env = env.get();
  opts.path = "/db";
  opts.write_buffer_size = 256 << 10;
  opts.target_file_size = 256 << 10;
  opts.block_cache_bytes = cache_hit_regime ? (64 << 20) : 0;
  opts.policy = GrowthPolicyConfig::VTLevelFull(3);
  opts.filter_variant = mode.filter_variant;

  std::unique_ptr<DB> db;
  Status s = DB::Open(opts, &db);
  if (!s.ok()) {
    std::fprintf(stderr, "open failed: %s\n", s.ToString().c_str());
    return {};
  }

  // Load the EVEN keys and probe the whole range: ~half the lookups are
  // misses that land inside file key ranges, so fence pointers cannot skip
  // them and the Bloom filter is on the hot path of every row.
  const uint64_t num_keys = NumKeys(cfg);
  const std::string value(100, 'p');
  for (uint64_t i = 0; i < num_keys; i++) {
    db->Put(workload::FormatKey(i * 2, 16), value);
  }
  db->FlushMemTable();

  const uint64_t probe_space = num_keys * 2;
  if (cache_hit_regime) {
    // Warm every data block so the measured pass runs ~100% cache hits.
    std::string v;
    for (uint64_t i = 0; i < num_keys; i++) {
      db->Get(workload::FormatKey(i * 2, 16), &v);
    }
  }
  const obs::AmpSnapshot amp_before = db->GetAmpSnapshot();

  const uint64_t ops = OpsPerThread(cfg);
  const auto start = std::chrono::steady_clock::now();
  std::vector<std::thread> threads;
  for (int r = 0; r < readers; r++) {
    threads.emplace_back([&db, r, ops, probe_space] {
      Random rnd(7100 + r);
      std::string v;
      for (uint64_t i = 0; i < ops; i++) {
        db->Get(workload::FormatKey(rnd.Uniform(probe_space), 16), &v);
      }
    });
  }
  for (auto& t : threads) t.join();
  const auto end = std::chrono::steady_clock::now();

  RunResult r;
  r.wall_seconds =
      std::chrono::duration_cast<std::chrono::duration<double>>(end - start)
          .count();
  r.kops_per_sec = static_cast<double>(ops) * readers / r.wall_seconds / 1000;
  {
    const std::vector<Histogram> lat = db->GetLatencyHistograms();
    const Histogram& get = lat[static_cast<size_t>(obs::OpType::kGet)];
    r.lat_p50_us = get.Median();
    r.lat_p99_us = get.Percentile(99);
    r.lat_p999_us = get.Percentile(99.9);
  }
  obs::AmpSnapshot amp = db->GetAmpSnapshot();
  amp.Subtract(amp_before);  // Measured pass only (exclude load + warmup).
  r.lookups = amp.lookups;
  r.blocks_per_lookup = amp.BlocksPerLookup();
  uint64_t files_probed = 0, filter_negatives = 0, false_positives = 0;
  for (int i = 0; i < amp.num_levels; i++) {
    files_probed += amp.levels[i].files_probed;
    filter_negatives += amp.levels[i].filter_negatives;
    false_positives += amp.levels[i].bloom_false_positives;
  }
  r.filter_negative_rate =
      files_probed > 0
          ? static_cast<double>(filter_negatives) / files_probed
          : 0;
  r.bloom_false_positives = false_positives;
  return r;
}

}  // namespace
}  // namespace talus

int main(int argc, char** argv) {
  using namespace talus;

  BenchConfig cfg;
  for (int i = 1; i < argc; i++) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      cfg.smoke = true;
    } else if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      cfg.json_path = argv[++i];
    } else {
      std::fprintf(stderr, "usage: %s [--smoke] [--json PATH]\n", argv[0]);
      return 1;
    }
  }

  const std::vector<ModeVariant> modes = {
      {"fast_legacy", FilterVariant::kLegacy},
      {"fast_blocked", FilterVariant::kBlocked},
  };
  const std::vector<bool> cache_regimes = {true, false};
  const std::vector<int> reader_counts =
      cfg.smoke ? std::vector<int>{8} : std::vector<int>{1, 4, 8};

  std::printf("# Point-read ablation: %llu keys, %llu gets/thread, 100B "
              "values, ~50%% in-range misses, mem env, inline mode, "
              "%u cores\n",
              static_cast<unsigned long long>(NumKeys(cfg)),
              static_cast<unsigned long long>(OpsPerThread(cfg)),
              std::thread::hardware_concurrency());
  std::printf("%-13s %-10s %8s %9s %8s %8s %8s %9s %9s %8s\n", "mode",
              "cache", "readers", "kops/s", "p50_us", "p99_us", "p999_us",
              "blk/get", "filt_neg", "bloomfp");

  std::string json = "{\"bench\":\"ablation_point_read\",\"smoke\":" +
                     std::string(cfg.smoke ? "true" : "false") +
                     ",\"rows\":[\n";
  bool first_row = true;
  for (const auto& mode : modes) {
    for (const bool cache_hit : cache_regimes) {
      for (int readers : reader_counts) {
        RunResult r = RunOne(cfg, mode, cache_hit, readers);
        const char* regime = cache_hit ? "cachehit" : "cachemiss";
        std::printf(
            "%-13s %-10s %8d %9.1f %8.1f %8.1f %8.1f %9.3f %9.3f %8llu\n",
            mode.name, regime, readers, r.kops_per_sec, r.lat_p50_us,
            r.lat_p99_us, r.lat_p999_us, r.blocks_per_lookup,
            r.filter_negative_rate,
            static_cast<unsigned long long>(r.bloom_false_positives));
        char row[512];
        std::snprintf(
            row, sizeof(row),
            "%s{\"mode\":\"%s\",\"policy\":\"%s\",\"writers\":%d,"
            "\"kops_per_sec\":%.1f,\"wall_seconds\":%.3f,"
            "\"lat_p50_us\":%.1f,\"lat_p99_us\":%.1f,\"lat_p999_us\":%.1f,"
            "\"blocks_per_lookup\":%.4f,\"filter_negative_rate\":%.4f,"
            "\"bloom_false_positives\":%llu,\"lookups\":%llu}",
            first_row ? "" : ",\n", mode.name, regime, readers,
            r.kops_per_sec, r.wall_seconds, r.lat_p50_us, r.lat_p99_us,
            r.lat_p999_us, r.blocks_per_lookup, r.filter_negative_rate,
            static_cast<unsigned long long>(r.bloom_false_positives),
            static_cast<unsigned long long>(r.lookups));
        json += row;
        first_row = false;
      }
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
