#include "policy/horizontal_policy.h"

#include <algorithm>

#include "theory/binomial.h"
#include "theory/schemes.h"
#include "util/coding.h"

namespace talus {

HorizontalCounters::HorizontalCounters(int levels, bool tiering,
                                       uint64_t init_value, uint64_t delta)
    : counters_(std::max(1, levels), init_value),
      tiering_(tiering),
      delta_(delta) {}

int HorizontalCounters::OnFlush() {
  const int levels = static_cast<int>(counters_.size());
  int cascade_end = -1;
  if (tiering_) {
    if (counters_[0] > 0) counters_[0]--;
    for (int i = 0; i + 1 < levels; i++) {
      if (counters_[i] == 0) {
        cascade_end = i;
        if (counters_[i + 1] > 0) counters_[i + 1]--;
        for (int j = 0; j <= i; j++) counters_[j] = counters_[i + 1];
      } else {
        break;
      }
    }
  } else {
    counters_[0]++;
    for (int i = 0; i + 1 < levels; i++) {
      const uint64_t relax = (i == 0) ? delta_ : 0;
      if (counters_[i] > counters_[i + 1] + relax) {
        cascade_end = i;
        counters_[i + 1]++;
        counters_[i] = 0;
      } else {
        break;
      }
    }
  }
  return cascade_end;
}

void HorizontalCounters::FoldFlush(int* pending) {
  *pending = std::max(*pending, OnFlush());
}

bool HorizontalCounters::Drained() const {
  for (uint64_t c : counters_) {
    if (c != 0) return false;
  }
  return true;
}

void HorizontalCounters::Rearm(uint64_t init_value) {
  std::fill(counters_.begin(), counters_.end(), init_value);
}

void HorizontalCounters::EncodeTo(std::string* out) const {
  PutVarint64(out, counters_.size());
  for (uint64_t c : counters_) PutVarint64(out, c);
  PutVarint64(out, delta_);
  out->push_back(tiering_ ? 1 : 0);
}

bool HorizontalCounters::DecodeFrom(Slice* input) {
  uint64_t n;
  if (!GetVarint64(input, &n) || n == 0 || n > 1024) return false;
  counters_.resize(n);
  for (uint64_t i = 0; i < n; i++) {
    if (!GetVarint64(input, &counters_[i])) return false;
  }
  if (!GetVarint64(input, &delta_) || input->empty()) return false;
  tiering_ = (*input)[0] != 0;
  input->remove_prefix(1);
  return true;
}

std::optional<CompactionRequest> MakeCascadeRequest(const Version& v,
                                                    int base_level,
                                                    int cascade_end,
                                                    bool merge_into_existing,
                                                    const std::string& tag) {
  CompactionRequest req;
  bool any_input = false;
  for (int i = 0; i <= cascade_end; i++) {
    const int level = base_level + i;
    if (level >= static_cast<int>(v.levels.size())) break;
    for (const auto& run : v.levels[level].runs) {
      req.inputs.push_back({level, run.run_id, {}});
      any_input = true;
    }
  }
  if (!any_input) return std::nullopt;  // Cascade over empty levels: no-op.
  req.output_level = base_level + cascade_end + 1;
  if (merge_into_existing &&
      req.output_level < static_cast<int>(v.levels.size()) &&
      !v.levels[req.output_level].empty()) {
    req.output_run_id = v.levels[req.output_level].runs[0].run_id;
  }
  req.reason = tag + "-cascade[0.." + std::to_string(cascade_end) + "]";
  return req;
}

// ---------------------------------------------------------------------------
// Horizontal-leveling (Algorithm 1).
// ---------------------------------------------------------------------------

HorizontalLevelingPolicy::HorizontalLevelingPolicy(
    const GrowthPolicyConfig& config, const PolicyContext& /*ctx*/)
    : config_(config),
      counters_(config.horizontal_levels, /*tiering=*/false, 0,
                config.skew_adaptation ? theory::SkewDelta(config.skew_alpha)
                                       : 0) {}

void HorizontalLevelingPolicy::OnFlushCompleted(const Version& /*v*/) {
  counters_.FoldFlush(&pending_cascade_);
}

std::optional<CompactionRequest> HorizontalLevelingPolicy::PickCompaction(
    const Version& v) {
  if (pending_cascade_ < 0) return std::nullopt;
  const int e = pending_cascade_;
  pending_cascade_ = -1;
  return MakeCascadeRequest(v, 0, e, /*merge_into_existing=*/true,
                            "horizontal-leveling");
}

std::vector<LevelFilterInfo> HorizontalLevelingPolicy::FilterInfo(
    const Version& v) const {
  std::vector<LevelFilterInfo> info(v.levels.size());
  for (size_t i = 0; i < v.levels.size(); i++) {
    info[i].current_entries = v.levels[i].TotalEntries();
    info[i].capacity_entries = 0;  // Horizontal levels grow unboundedly.
    // Full compactions repeatedly empty horizontal levels; a level averages
    // about half the occupancy a capacity-based layout would assume (§5.4).
    info[i].expected_fill = 0.5;
  }
  return info;
}

std::string HorizontalLevelingPolicy::EncodeState() const {
  std::string out;
  counters_.EncodeTo(&out);
  PutVarint64(&out, static_cast<uint64_t>(pending_cascade_ + 1));
  return out;
}

bool HorizontalLevelingPolicy::DecodeState(const std::string& state) {
  if (state.empty()) return true;
  Slice input(state);
  uint64_t pending;
  if (!counters_.DecodeFrom(&input) || !GetVarint64(&input, &pending)) {
    return false;
  }
  pending_cascade_ = static_cast<int>(pending) - 1;
  return true;
}

// ---------------------------------------------------------------------------
// Horizontal-tiering (Algorithm 2).
// ---------------------------------------------------------------------------

namespace {

uint64_t InitialK(const GrowthPolicyConfig& config, uint64_t buffer_bytes) {
  // Algorithm 2, line 2: smallest k with C(k+ℓ-1, ℓ) ≥ N/B.
  uint64_t flushes = 0;
  if (config.horizontal_data_size > 0 && buffer_bytes > 0) {
    flushes = (config.horizontal_data_size + buffer_bytes - 1) / buffer_bytes;
  }
  if (flushes < 2) flushes = 2;  // Unknown N: start small, re-arm on drain.
  return theory::FindK(flushes,
                       static_cast<uint64_t>(config.horizontal_levels));
}

}  // namespace

HorizontalTieringPolicy::HorizontalTieringPolicy(
    const GrowthPolicyConfig& config, const PolicyContext& ctx)
    : config_(config),
      buffer_bytes_(ctx.buffer_bytes),
      k_(InitialK(config, ctx.buffer_bytes)),
      counters_(config.horizontal_levels, /*tiering=*/true, k_, 0) {}

void HorizontalTieringPolicy::OnFlushCompleted(const Version& /*v*/) {
  counters_.FoldFlush(&pending_cascade_);
  if (counters_.Drained()) {
    // Data exceeded the configured estimate: continue the pattern one
    // granularity coarser (larger data ⇒ larger k, §4.2).
    k_ += 1;
    counters_.Rearm(k_);
  }
}

std::optional<CompactionRequest> HorizontalTieringPolicy::PickCompaction(
    const Version& v) {
  if (pending_cascade_ < 0) return std::nullopt;
  const int e = pending_cascade_;
  pending_cascade_ = -1;
  return MakeCascadeRequest(v, 0, e, /*merge_into_existing=*/false,
                            "horizontal-tiering");
}

std::vector<LevelFilterInfo> HorizontalTieringPolicy::FilterInfo(
    const Version& v) const {
  std::vector<LevelFilterInfo> info(v.levels.size());
  for (size_t i = 0; i < v.levels.size(); i++) {
    info[i].current_entries = v.levels[i].TotalEntries();
    info[i].capacity_entries = 0;
    info[i].expected_fill = 0.5;
  }
  return info;
}

std::string HorizontalTieringPolicy::EncodeState() const {
  std::string out;
  PutVarint64(&out, k_);
  counters_.EncodeTo(&out);
  PutVarint64(&out, static_cast<uint64_t>(pending_cascade_ + 1));
  return out;
}

bool HorizontalTieringPolicy::DecodeState(const std::string& state) {
  if (state.empty()) return true;
  Slice input(state);
  uint64_t pending;
  if (!GetVarint64(&input, &k_) || !counters_.DecodeFrom(&input) ||
      !GetVarint64(&input, &pending)) {
    return false;
  }
  pending_cascade_ = static_cast<int>(pending) - 1;
  return true;
}

}  // namespace talus
