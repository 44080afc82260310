#include "fixture.h"

#include <filesystem>

#include "common/rng.h"
#include "common/string_util.h"
#include "graph/construction.h"
#include "models/var_forecaster.h"
#include "tensor/ops.h"

namespace emafbench {

namespace {

constexpr const char* kNames[kNumFamilies] = {"LSTM", "A3TGCN", "ASTGCN",
                                              "MTGNN", "VAR"};
constexpr const char* kKeys[kNumFamilies] = {"lstm", "a3tgcn", "astgcn",
                                             "mtgnn", "var"};

// CORR similarity graph at GDT 0.2 over the training region of one
// individual (the bench-default cell graph).
emaf::graph::AdjacencyMatrix CorrGraph(const emaf::data::Individual& person) {
  const emaf::data::IndividualSplit split =
      emaf::data::MakeSplit(person, kInputLength);
  const emaf::tensor::Tensor training =
      emaf::tensor::Slice(person.observations, 0, 0, split.split_row);
  emaf::graph::GraphBuildOptions options;
  options.metric = emaf::graph::GraphMetric::kCorrelation;
  return emaf::graph::KeepTopFraction(
      emaf::graph::BuildSimilarityGraph(training, options), kGdt);
}

// Registry config of `family` at V = 26, Seq5, with `graph` baked in for
// the graph families (MTGNN takes it as its static prior).
emaf::models::ModelConfig FamilyConfig(
    int family, const emaf::graph::AdjacencyMatrix& graph) {
  emaf::models::ModelConfig config;
  config.family = kNames[family];
  config.num_variables = graph.num_nodes();
  config.input_length = kInputLength;
  if (family == 1 || family == 2 || family == 3) config.adjacency = graph;
  return config;
}

}  // namespace

const char* FamilyName(int family) { return kNames[family]; }
const char* FamilyKey(int family) { return kKeys[family]; }

emaf::data::GeneratorConfig CohortConfig(uint64_t seed, int64_t individuals) {
  emaf::data::GeneratorConfig config;
  config.num_individuals = individuals;
  config.days = kStudyDays;
  config.seed = seed;
  return config;
}

emaf::Result<Fixture> BuildFixture(const emaf::data::GeneratorConfig& cohort,
                                   int64_t windows_per_tenant,
                                   const std::string& dir) {
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  if (ec) return emaf::Status::Internal("mkdir " + dir + ": " + ec.message());
  Fixture fixture;
  fixture.cohort = emaf::data::GenerateCohort(cohort);
  const emaf::Rng root(cohort.seed ^ 0xbe5c4a11ULL);
  for (int64_t i = 0; i < cohort.num_individuals; ++i) {
    const emaf::data::Individual& person =
        fixture.cohort.individuals[static_cast<size_t>(i)];
    const emaf::data::IndividualSplit split =
        emaf::data::MakeSplit(person, kInputLength);
    const emaf::graph::AdjacencyMatrix graph = CorrGraph(person);
    const int64_t test_windows = split.test.num_windows();
    for (int family = 0; family < kNumFamilies; ++family) {
      Tenant tenant;
      tenant.family = family;
      tenant.individual = i;
      tenant.id = emaf::StrCat(FamilyKey(family), "-", i < 10 ? "0" : "", i);
      tenant.config = FamilyConfig(family, graph);
      emaf::Rng rng = root.Fork(static_cast<uint64_t>(i * kNumFamilies + family));
      emaf::Result<std::unique_ptr<emaf::models::Forecaster>> model =
          emaf::models::CreateForecaster(tenant.config, &rng);
      if (!model.ok()) return model.status();
      if (auto* var =
              dynamic_cast<emaf::models::VarForecaster*>(model.value().get())) {
        var->Fit(split.train.inputs, split.train.targets);
      }
      tenant.snapshot_path = dir + "/" + tenant.id + ".snapshot";
      EMAF_RETURN_IF_ERROR(emaf::models::SaveForecasterSnapshot(
          model.value().get(), tenant.config, tenant.snapshot_path));
      // Evenly spaced windows over the test region, shifted per family so
      // tenants of one individual do not all share inputs.
      for (int64_t w = 0; w < windows_per_tenant; ++w) {
        const int64_t index =
            (w * test_windows / windows_per_tenant + family) % test_windows;
        tenant.windows.push_back(
            emaf::tensor::Slice(split.test.inputs, 0, index, index + 1));
      }
      fixture.tenants.push_back(std::move(tenant));
    }
  }
  return fixture;
}

emaf::Result<std::unique_ptr<emaf::models::Forecaster>> LoadModel(
    const std::string& path) {
  emaf::Rng rng(1);
  emaf::Result<std::unique_ptr<emaf::models::Forecaster>> model =
      emaf::models::LoadForecasterSnapshot(path, &rng);
  if (model.ok()) model.value()->SetTraining(false);
  return model;
}

}  // namespace emafbench
