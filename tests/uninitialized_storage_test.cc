// Uninitialized-storage contract (DESIGN.md, "Tensor storage"): no tensor
// buffer is zeroed on allocation, on the heap or in an InferenceArena, so
// every op must write each output element before anything reads it. This
// suite runs the program's main paths twice, once plainly and once with
// SetPoisonStorageForTest filling every fresh or recycled buffer with 0xFF
// bytes (NaN in f64 and f32), and requires bitwise-equal results. A read of
// an element no op wrote would turn into a NaN or a different value on the
// poisoned run.
//
// Covered: one training epoch with an Adam step plus evaluation for every
// neural family, the f64 and f32 compiled-plan forwards (through an arena,
// so recycled buffers are poisoned too), a VAR fit and an online
// fine-tune from a snapshot.

#include <cmath>
#include <cstring>
#include <filesystem>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "core/evaluator.h"
#include "core/trainer.h"
#include "graph/adjacency.h"
#include "models/registry.h"
#include "online/online_trainer.h"
#include "plan/interpreter.h"
#include "plan/recorder.h"
#include "tensor/arena.h"
#include "tensor/ops.h"
#include "tensor/tensor.h"

namespace emaf {
namespace {

using tensor::DType;
using tensor::Shape;
using tensor::Tensor;

constexpr int64_t kVars = 4;
constexpr int64_t kLength = 5;

// Turns storage poisoning on for one scope, restoring the previous setting
// however the scope exits.
class PoisonScope {
 public:
  PoisonScope() : was_on_(tensor::SetPoisonStorageForTest(true)) {}
  ~PoisonScope() { tensor::SetPoisonStorageForTest(was_on_); }

 private:
  bool was_on_;
};

// Runs `body` plainly, then poisoned, and requires the same bytes. The
// plain run must also be finite, so a NaN there cannot pass as "equal".
void ExpectUnchangedByPoison(const std::string& what,
                             const std::function<std::vector<double>()>& body) {
  const std::vector<double> plain = body();
  ASSERT_FALSE(plain.empty()) << what;
  for (double v : plain) ASSERT_TRUE(std::isfinite(v)) << what;
  std::vector<double> poisoned;
  {
    PoisonScope scope;
    poisoned = body();
  }
  ASSERT_EQ(plain.size(), poisoned.size()) << what;
  EXPECT_EQ(std::memcmp(plain.data(), poisoned.data(),
                        plain.size() * sizeof(double)),
            0)
      << what;
}

void Append(const Tensor& t, std::vector<double>* out) {
  std::vector<double> values = t.ToVector();
  out->insert(out->end(), values.begin(), values.end());
}

graph::AdjacencyMatrix Ring() {
  graph::AdjacencyMatrix adjacency(kVars);
  for (int64_t i = 0; i < kVars; ++i) {
    adjacency.set(i, (i + 1) % kVars, 0.8);
    adjacency.set((i + 1) % kVars, i, 0.5);
  }
  return adjacency;
}

models::ModelConfig SmallConfig(const std::string& family) {
  models::ModelConfig config;
  config.family = family;
  config.num_variables = kVars;
  config.input_length = kLength;
  config.lstm.hidden_units = 6;
  config.a3tgcn.hidden_units = 6;
  config.astgcn.hidden_units = 6;
  config.mtgnn.residual_channels = 4;
  config.mtgnn.conv_channels = 4;
  config.mtgnn.skip_channels = 4;
  config.mtgnn.end_channels = 8;
  config.mtgnn.embedding_dim = 3;
  if (family != "LSTM" && family != "VAR") config.adjacency = Ring();
  return config;
}

ts::WindowDataset Dataset(uint64_t seed, int64_t windows) {
  Rng rng(seed);
  ts::WindowDataset ds;
  ds.inputs = Tensor::Uniform(Shape{windows, kLength, kVars}, -1, 1, &rng);
  ds.targets = Tensor::Uniform(Shape{windows, kVars}, -1, 1, &rng);
  return ds;
}

const std::vector<std::string>& NeuralFamilies() {
  static const std::vector<std::string> families = {"LSTM", "A3TGCN",
                                                    "ASTGCN", "MTGNN"};
  return families;
}

TEST(UninitializedStorageTest, PoisonFillsEveryFreshAndRecycledBuffer) {
  PoisonScope scope;
  Tensor heap = tensor::MakeUninitialized(Shape{3});
  for (double v : heap.ToVector()) EXPECT_TRUE(std::isnan(v));
  tensor::InferenceArena arena;
  tensor::ArenaScope arena_scope(&arena);
  { Tensor first = tensor::Tensor::Full(Shape{3}, 2.0); }
  Tensor recycled = tensor::MakeUninitialized(Shape{3}, DType::kF32);
  EXPECT_EQ(arena.stats().hits, 0u);  // f32 [3] is a different byte size
  Tensor hit = tensor::MakeUninitialized(Shape{3});
  EXPECT_EQ(arena.stats().hits, 1u);
  for (double v : hit.ToVector()) EXPECT_TRUE(std::isnan(v));
  for (double v : recycled.ToVector()) EXPECT_TRUE(std::isnan(v));
  // Zeros is the one factory that clears, on both paths.
  for (double v : Tensor::Zeros(Shape{3}).ToVector()) EXPECT_EQ(v, 0.0);
}

TEST(UninitializedStorageTest, TrainingEpochAndEvaluation) {
  for (const std::string& family : NeuralFamilies()) {
    ExpectUnchangedByPoison(family + " train+eval", [&family] {
      Rng rng(21);
      std::unique_ptr<models::Forecaster> model =
          models::CreateForecasterOrDie(SmallConfig(family), &rng);
      core::TrainConfig train;
      train.epochs = 1;  // one forward, backward and Adam step
      core::TrainResult result =
          core::TrainForecaster(model.get(), Dataset(5, 12), train);
      std::vector<double> out = result.epoch_losses;
      out.insert(out.end(), result.epoch_grad_norms.begin(),
                 result.epoch_grad_norms.end());
      for (Tensor* p : model->Parameters()) Append(*p, &out);
      const ts::WindowDataset test = Dataset(6, 5);
      out.push_back(core::EvaluateMse(model.get(), test));
      Append(core::Predict(model.get(), test.inputs), &out);
      return out;
    });
  }
}

TEST(UninitializedStorageTest, CompiledPlanForwardF64AndF32) {
  for (const std::string& family : NeuralFamilies()) {
    for (DType dtype : {DType::kF64, DType::kF32}) {
      const std::string what =
          family + " plan " + std::string(tensor::DTypeName(dtype));
      ExpectUnchangedByPoison(what, [&family, dtype, &what] {
        Rng rng(31);
        std::unique_ptr<models::Forecaster> model =
            models::CreateForecasterOrDie(SmallConfig(family), &rng);
        model->SetTraining(false);
        model->CastTo(dtype);
        Tensor window = Dataset(7, 3).inputs.CastTo(dtype);
        std::vector<double> out;
        Result<std::shared_ptr<const plan::Plan>> compiled =
            plan::Compile(model.get(), window);
        EXPECT_TRUE(compiled.ok()) << what;
        if (!compiled.ok()) return out;
        // Twice through one arena: the second pass runs on recycled
        // buffers, which the poison switch refills as well.
        tensor::InferenceArena arena;
        for (int pass = 0; pass < 2; ++pass) {
          Result<Tensor> forecast =
              plan::Execute(*compiled.value(), window, &arena);
          EXPECT_TRUE(forecast.ok()) << what;
          if (forecast.ok()) Append(forecast.value(), &out);
        }
        return out;
      });
    }
  }
}

TEST(UninitializedStorageTest, VarFit) {
  ExpectUnchangedByPoison("VAR fit", [] {
    Rng rng(41);
    std::unique_ptr<models::Forecaster> model =
        models::CreateForecasterOrDie(SmallConfig("VAR"), &rng);
    auto* var = dynamic_cast<models::VarForecaster*>(model.get());
    EXPECT_NE(var, nullptr);
    if (var == nullptr) return std::vector<double>{};
    const ts::WindowDataset train = Dataset(8, 30);
    var->Fit(train.inputs, train.targets);
    std::vector<double> out;
    Append(var->coefficients(), &out);
    Append(core::Predict(model.get(), Dataset(9, 4).inputs), &out);
    return out;
  });
}

TEST(UninitializedStorageTest, OnlineFineTune) {
  namespace fs = std::filesystem;
  const std::string dir = ::testing::TempDir() + "/uninit_storage_online";
  fs::remove_all(dir);
  fs::create_directories(dir);
  const models::ModelConfig config = SmallConfig("A3TGCN");
  const std::string path = dir + "/p01.snapshot";
  {
    Rng rng(51);
    std::unique_ptr<models::Forecaster> model =
        models::CreateForecasterOrDie(config, &rng);
    ASSERT_TRUE(models::SaveForecasterSnapshot(model.get(), config, path).ok());
  }
  Rng data_rng(52);
  const Tensor rows = Tensor::Uniform(Shape{12, kVars}, -1, 1, &data_rng);
  ExpectUnchangedByPoison("online fine-tune", [&] {
    online::OnlineTrainOptions options;
    options.epochs = 2;
    online::OnlineTrainer trainer(options);
    Result<online::FineTuneResult> tuned =
        trainer.FineTune("p01", path, rows, Ring());
    EXPECT_TRUE(tuned.ok()) << tuned.status().ToString();
    std::vector<double> out;
    if (!tuned.ok()) return out;
    out = tuned.value().train.epoch_losses;
    Append(core::Predict(tuned.value().model.get(), Dataset(10, 2).inputs),
           &out);
    return out;
  });
}

}  // namespace
}  // namespace emaf
