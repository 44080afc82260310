// Seeded inputs of the benchmark: a synthetic EMA cohort (V = 26) and, per
// individual, one tenant of each forecaster family with its snapshot file
// and a small pool of forecast windows taken from the individual's test
// region. The same seed always yields the same tenants, weights and
// windows.

#ifndef EMAFBENCH_FIXTURE_H_
#define EMAFBENCH_FIXTURE_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "data/dataset.h"
#include "data/generator.h"
#include "graph/adjacency.h"
#include "models/forecaster.h"
#include "models/registry.h"
#include "tensor/tensor.h"

namespace emafbench {

// Families in report order. The first four carry end-to-end metrics; VAR
// stays in the serving mixes but is reported only as serve.var_us.
inline constexpr int kNumFamilies = 5;
inline constexpr int kNumGatedFamilies = 4;
inline constexpr int kVarFamily = 4;
// Registry name ("LSTM", ...) and metric key ("lstm", ...).
const char* FamilyName(int family);
const char* FamilyKey(int family);

inline constexpr int64_t kInputLength = 5;  // the paper's Seq5
inline constexpr double kGdt = 0.2;         // graph density threshold
inline constexpr int64_t kStudyDays = 14;   // bench-default study length

// The cohort every workload draws from: `individuals` people, 14 days,
// generator seeded by the workload seed.
emaf::data::GeneratorConfig CohortConfig(uint64_t seed, int64_t individuals);

struct Tenant {
  std::string id;  // "<family key>-<individual>", e.g. "mtgnn-03"
  int family = 0;
  int64_t individual = 0;
  emaf::models::ModelConfig config;
  std::string snapshot_path;  // the initial snapshot
  std::vector<emaf::tensor::Tensor> windows;  // each [1, 5, 26]
};

struct Fixture {
  emaf::data::Cohort cohort;
  std::vector<Tenant> tenants;  // individual-major, family-minor
};

// Generates the cohort and writes one snapshot per (individual, family)
// into `dir`. Weights come from seeded initialisation without training;
// VAR is fitted in closed form on the training split.
emaf::Result<Fixture> BuildFixture(const emaf::data::GeneratorConfig& cohort,
                                   int64_t windows_per_tenant,
                                   const std::string& dir);

// Loads a snapshot into an eval-mode model (the benchmark's own copy,
// apart from any serving path).
emaf::Result<std::unique_ptr<emaf::models::Forecaster>> LoadModel(
    const std::string& path);

}  // namespace emafbench

#endif  // EMAFBENCH_FIXTURE_H_
