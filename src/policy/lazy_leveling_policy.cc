#include "policy/lazy_leveling_policy.h"

#include <algorithm>
#include <cmath>

#include "theory/binomial.h"
#include "util/coding.h"

namespace talus {

LazyLevelingPolicy::LazyLevelingPolicy(const GrowthPolicyConfig& config,
                                       const PolicyContext& ctx)
    : config_(config),
      buffer_bytes_(ctx.buffer_bytes),
      counters_(std::max(1, config.lazy_levels - 1), /*tiering=*/true, 0, 0) {
  if (config_.lazy_embed_vertiorizon) {
    const uint64_t flushes = std::max<uint64_t>(
        2, UpperCapacityBytes() / std::max<uint64_t>(1, buffer_bytes_));
    k_ = theory::FindK(flushes,
                       static_cast<uint64_t>(config_.lazy_levels - 1));
    counters_.Rearm(k_);
  }
}

uint64_t LazyLevelingPolicy::UpperCapacityBytes() const {
  // Capacity of the replaced tiering structure: B·T^(L-1) (§5.4).
  return static_cast<uint64_t>(
      static_cast<double>(buffer_bytes_) *
      std::pow(config_.size_ratio, config_.lazy_levels - 1));
}

void LazyLevelingPolicy::OnFlushCompleted(const Version& v) {
  if (!config_.lazy_embed_vertiorizon) return;
  counters_.FoldFlush(&pending_cascade_);

  // Horizontal part full → clear into the leveled last level.
  uint64_t upper_bytes = 0;
  for (int i = 0; i < last_level() && i < static_cast<int>(v.levels.size());
       i++) {
    upper_bytes += v.levels[i].TotalBytes();
  }
  if (upper_bytes >= UpperCapacityBytes()) {
    pending_clear_ = true;
  }
}

std::optional<CompactionRequest> LazyLevelingPolicy::PickCompaction(
    const Version& v) {
  if (config_.lazy_embed_vertiorizon) {
    if (pending_clear_) {
      pending_clear_ = false;
      pending_cascade_ = -1;  // Superseded by the full clear.
      auto req = MakeCascadeRequest(v, 0, last_level() - 1,
                                    /*merge_into_existing=*/true,
                                    "lazy-embedded-clear");
      if (req.has_value()) return req;
    }
    if (pending_cascade_ >= 0) {
      const int e = pending_cascade_;
      pending_cascade_ = -1;
      // Cascades within the horizontal part; a cascade reaching the last
      // level merges into the leveled run there.
      const bool into_last = (e + 1 == last_level());
      return MakeCascadeRequest(v, 0, e, into_last, "lazy-embedded");
    }
    return std::nullopt;
  }

  // Baseline lazy-leveling: tiering with trigger T at levels 0..L-2; runs
  // arriving at the last level merge into its single leveled run.
  const auto trigger =
      static_cast<size_t>(std::max(2.0, std::floor(config_.size_ratio)));
  for (int i = 0; i < last_level() && i < static_cast<int>(v.levels.size());
       i++) {
    const LevelState& level = v.levels[i];
    if (level.NumRuns() < trigger) continue;
    CompactionRequest req;
    for (const auto& run : level.runs) {
      req.inputs.push_back({i, run.run_id, {}});
    }
    req.output_level = i + 1;
    if (i + 1 == last_level() &&
        i + 1 < static_cast<int>(v.levels.size()) &&
        !v.levels[i + 1].empty()) {
      req.output_run_id = v.levels[i + 1].runs[0].run_id;  // Leveled landing.
    }
    req.reason = "lazy-leveling L" + std::to_string(i);
    return req;
  }
  return std::nullopt;
}

void LazyLevelingPolicy::OnCompactionCompleted(const CompactionRequest& req,
                                               const Version& /*v*/) {
  if (!config_.lazy_embed_vertiorizon) return;
  if (req.reason.rfind("lazy-embedded-clear", 0) == 0) {
    counters_.Rearm(k_);  // New phase for the emptied horizontal part.
  }
}

std::vector<LevelFilterInfo> LazyLevelingPolicy::FilterInfo(
    const Version& v) const {
  std::vector<LevelFilterInfo> info(v.levels.size());
  const uint64_t entries = v.TotalEntries();
  uint64_t payload = 0;
  for (const auto& l : v.levels) payload += l.PayloadBytes();
  const double entry_bytes =
      entries > 0 ? static_cast<double>(payload) / entries : 1024.0;
  for (size_t i = 0; i < v.levels.size(); i++) {
    info[i].current_entries = v.levels[i].TotalEntries();
    if (static_cast<int>(i) == last_level()) {
      info[i].capacity_entries = static_cast<uint64_t>(
          static_cast<double>(buffer_bytes_) *
          std::pow(config_.size_ratio, config_.lazy_levels) /
          std::max(1.0, entry_bytes));
      info[i].expected_fill = 1.0;
    } else {
      info[i].capacity_entries = static_cast<uint64_t>(
          static_cast<double>(buffer_bytes_) *
          std::pow(config_.size_ratio, i + 1) / std::max(1.0, entry_bytes));
      info[i].expected_fill = 0.5;  // Emptied by full compactions.
    }
  }
  return info;
}

std::string LazyLevelingPolicy::EncodeState() const {
  std::string out;
  PutVarint64(&out, k_);
  counters_.EncodeTo(&out);
  PutVarint64(&out, static_cast<uint64_t>(pending_cascade_ + 1));
  out.push_back(pending_clear_ ? 1 : 0);
  return out;
}

bool LazyLevelingPolicy::DecodeState(const std::string& state) {
  if (state.empty()) return true;
  Slice input(state);
  uint64_t pending;
  if (!GetVarint64(&input, &k_) || !counters_.DecodeFrom(&input) ||
      !GetVarint64(&input, &pending) || input.empty()) {
    return false;
  }
  pending_cascade_ = static_cast<int>(pending) - 1;
  pending_clear_ = input[0] != 0;
  return true;
}

}  // namespace talus
