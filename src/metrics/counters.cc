#include "metrics/counters.h"

#include <cstdio>
#include <cstring>
#include <type_traits>

namespace talus {
namespace metrics {
namespace {

// One `key=value` of the talus.stats text; floating-point rows print
// `digits` decimals.
template <class T>
void Append(std::string* out, const char* key, const T& v, int digits) {
  if (key == nullptr) return;
  if (!out->empty()) *out += ' ';
  *out += key;
  *out += '=';
  if constexpr (std::is_floating_point_v<T>) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.*f", digits, v);
    *out += buf;
  } else {
    *out += std::to_string(static_cast<uint64_t>(v));
  }
}

// A family named *_total is a counter, any other a gauge.
template <class T>
void Export(obs::PrometheusWriter* w, const char* family, const char* labels,
            const char* help, const T& v) {
  if (family == nullptr) return;
  const size_t n = std::strlen(family);
  if (n > 6 && std::strcmp(family + n - 6, "_total") == 0) {
    w->AddCounter(family, labels, static_cast<uint64_t>(v), help);
  } else {
    w->AddGauge(family, labels, static_cast<double>(v), help);
  }
}

// Folds one shard's row value into the running aggregate. `get` maps a
// snapshot to the row's field; kRatio rows have no field of their own to
// fold (their getter derives them from summed parts).
template <ShardRule R, class Get>
void Combine(Get get, CounterSnapshot* out, const CounterSnapshot& in) {
  if constexpr (R == ShardRule::kSum) {
    get(*out) += get(in);
  } else if constexpr (R == ShardRule::kMax) {
    if (get(in) > get(*out)) get(*out) = get(in);
  }
}

}  // namespace

std::string FormatCounters(const CounterSnapshot& s) {
  std::string out;
#define TALUS_FORMAT_ROW(key, rule, digits, get, family, labels, help) \
  Append(&out, key, get, digits);
  TALUS_ENGINE_COUNTERS(TALUS_FORMAT_ROW)
#undef TALUS_FORMAT_ROW
  return out;
}

void ExportCounters(const CounterSnapshot& s, obs::PrometheusWriter* w) {
#define TALUS_EXPORT_ROW(key, rule, digits, get, family, labels, help) \
  Export(w, family, labels, help, get);
  TALUS_ENGINE_COUNTERS(TALUS_EXPORT_ROW)
#undef TALUS_EXPORT_ROW
}

CounterSnapshot AggregateCounters(const std::vector<CounterSnapshot>& in) {
  CounterSnapshot out;
  for (const CounterSnapshot& shard : in) {
#define TALUS_COMBINE_ROW(key, rule, digits, get, family, labels, help) \
  Combine<ShardRule::rule>(                                            \
      [](auto& s) -> decltype(auto) { return (get); }, &out, shard);
    TALUS_ENGINE_COUNTERS(TALUS_COMBINE_ROW)
#undef TALUS_COMBINE_ROW
    std::vector<EngineStats::LevelStats>& levels = out.engine.level_stats;
    const std::vector<EngineStats::LevelStats>& add = shard.engine.level_stats;
    if (add.size() > levels.size()) levels.resize(add.size());
    for (size_t i = 0; i < add.size(); i++) {
      levels[i].compactions += add[i].compactions;
      levels[i].bytes_read += add[i].bytes_read;
      levels[i].bytes_written += add[i].bytes_written;
    }
  }
  // The one stored ratio: write_amp and read_amp are computed on demand,
  // but GroupCommitStats keeps its mean.
  out.group.group_size_avg =
      out.group.group_commits == 0
          ? 0
          : static_cast<double>(out.group.batches_committed) /
                static_cast<double>(out.group.group_commits);
  return out;
}

}  // namespace metrics
}  // namespace talus
