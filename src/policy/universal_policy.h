// UniversalPolicy: analog of RocksDB's universal compaction — all data lives
// in one logical level as age-ordered sorted runs; compactions merge
// age-adjacent runs. Trigger precedence mirrors RocksDB:
//   1. space amplification: if the young runs' total exceeds
//      `max_size_amp` × the oldest run, compact everything into one run;
//   2. size ratio: merge the maximal young prefix where each next run is no
//      larger than the accumulated size;
//   3. run count: merge just enough of the newest runs to return under the
//      trigger.
// The paper uses this as the "Universal" baseline and attributes its
// underperformance to the simplistic trigger conditions — faithfully kept.
#ifndef TALUS_POLICY_UNIVERSAL_POLICY_H_
#define TALUS_POLICY_UNIVERSAL_POLICY_H_

#include "policy/growth_policy.h"
#include "policy/policy_config.h"

namespace talus {

class UniversalPolicy : public GrowthPolicy {
 public:
  UniversalPolicy(const GrowthPolicyConfig& config,
                  const PolicyContext& /*ctx*/)
      : config_(config) {}

  std::string name() const override { return "universal"; }
  MergeMode FlushMode(const Version& /*v*/) const override {
    return MergeMode::kNewRun;
  }
  int RequiredLevels(const Version& /*v*/) const override { return 1; }
  std::optional<CompactionRequest> PickCompaction(const Version& v) override;

 private:
  GrowthPolicyConfig config_;
};

}  // namespace talus

#endif  // TALUS_POLICY_UNIVERSAL_POLICY_H_
