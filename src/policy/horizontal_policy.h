// Horizontal growth schemes: fixed level count ℓ, full compactions, level
// capacities growing with the data.
//
// HorizontalLevelingPolicy — Algorithm 1 (§3): counters C_i start at 0; a
// flush increments C_1; level i compacts into i+1 when C_i > C_{i+1}
// (first-level trigger relaxed by δ under §5.3 skew adaptation). Triggered
// levels always form a prefix [1..e], merged into one multi-level op
// (footnote 6).
//
// HorizontalTieringPolicy — Algorithm 2 (§4): counters start at k (smallest
// k with C(k+ℓ-1, ℓ) ≥ N/B); a flush decrements C_1; level i compacts when
// C_i = 0, then C_{i+1} -= 1 and C_j ← C_{i+1} for all j ≤ i. The resulting
// compaction sequence is read-optimal (Theorem 4.2). When the counters
// drain (the configured data size is exceeded), k is re-armed one higher so
// the decreasing-frequency pattern continues at the next scale.
//
// Both policies are reused verbatim as the horizontal part of Vertiorizon
// (vertiorizon_policy.cc) with per-phase re-arming.
#ifndef TALUS_POLICY_HORIZONTAL_POLICY_H_
#define TALUS_POLICY_HORIZONTAL_POLICY_H_

#include "policy/growth_policy.h"
#include "policy/policy_config.h"

namespace talus {

/// Shared counter machinery for the two horizontal schemes, operating over
/// the level range [base_level, base_level + levels) of a version. The
/// Vertiorizon policy embeds one of these with base_level = 0 and the
/// vertical part below.
class HorizontalCounters {
 public:
  HorizontalCounters(int levels, bool tiering, uint64_t init_value,
                     uint64_t delta);

  /// Processes one flush; returns the cascade end level e ≥ 0 (levels
  /// [0..e] should merge into e+1) or -1 when no compaction triggers.
  int OnFlush();
  /// Processes one flush and folds its cascade into `*pending`, the end of
  /// a cascade not picked yet (-1: none). A cascade over [0..e] merges
  /// whole levels, so it covers any shorter one: the fold keeps the larger
  /// end. Overwriting instead would drop a trigger whenever several flushes
  /// complete between two picks (background mode, growth_policy.h).
  void FoldFlush(int* pending);

  bool Drained() const;
  void Rearm(uint64_t init_value);

  int levels() const { return static_cast<int>(counters_.size()); }
  const std::vector<uint64_t>& counters() const { return counters_; }
  void set_delta(uint64_t delta) { delta_ = delta; }

  void EncodeTo(std::string* out) const;
  bool DecodeFrom(Slice* input);

 private:
  std::vector<uint64_t> counters_;
  bool tiering_;
  uint64_t delta_;
};

class HorizontalLevelingPolicy : public GrowthPolicy {
 public:
  HorizontalLevelingPolicy(const GrowthPolicyConfig& config,
                           const PolicyContext& ctx);

  std::string name() const override { return "horizontal-leveling"; }
  MergeMode FlushMode(const Version& /*v*/) const override {
    return MergeMode::kMergeIntoRun;
  }
  int RequiredLevels(const Version& /*v*/) const override {
    return config_.horizontal_levels;
  }
  void OnFlushCompleted(const Version& v) override;
  std::optional<CompactionRequest> PickCompaction(const Version& v) override;
  std::vector<LevelFilterInfo> FilterInfo(const Version& v) const override;
  std::string EncodeState() const override;
  bool DecodeState(const std::string& state) override;

 private:
  GrowthPolicyConfig config_;
  HorizontalCounters counters_;
  int pending_cascade_ = -1;
};

class HorizontalTieringPolicy : public GrowthPolicy {
 public:
  HorizontalTieringPolicy(const GrowthPolicyConfig& config,
                          const PolicyContext& ctx);

  std::string name() const override { return "horizontal-tiering"; }
  MergeMode FlushMode(const Version& /*v*/) const override {
    return MergeMode::kNewRun;
  }
  int RequiredLevels(const Version& /*v*/) const override {
    return config_.horizontal_levels;
  }
  void OnFlushCompleted(const Version& v) override;
  std::optional<CompactionRequest> PickCompaction(const Version& v) override;
  std::vector<LevelFilterInfo> FilterInfo(const Version& v) const override;
  std::string EncodeState() const override;
  bool DecodeState(const std::string& state) override;

  uint64_t current_k() const { return k_; }

 private:
  GrowthPolicyConfig config_;
  uint64_t buffer_bytes_;
  uint64_t k_;
  HorizontalCounters counters_;
  int pending_cascade_ = -1;
};

/// Builds the multi-level full-compaction request for a cascade [0..e] →
/// e+1 over `v`, offset by `base_level`. `merge_into_existing` selects the
/// leveling (merge with target's run) vs tiering (fresh run) landing.
std::optional<CompactionRequest> MakeCascadeRequest(const Version& v,
                                                    int base_level,
                                                    int cascade_end,
                                                    bool merge_into_existing,
                                                    const std::string& tag);

}  // namespace talus

#endif  // TALUS_POLICY_HORIZONTAL_POLICY_H_
