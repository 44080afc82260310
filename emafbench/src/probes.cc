// Probe phase of a traced run: times each module's public functions from
// outside, on the workload's own inputs (individual 0 of its cohort, one
// tenant per family). Kernel shapes come from each family's compiled plan
// at V = 26: a kernel metric is the summed time of every instruction of
// its class in one forecast (forward, batch 1) or in one training step's
// forward with grad + Backward() (batch = the individual's training
// windows).

#include <filesystem>
#include <iostream>
#include <map>
#include <memory>
#include <optional>

#include "common/rng.h"
#include "common/string_util.h"
#include "common/thread_pool.h"
#include "core/evaluator.h"
#include "data/generator.h"
#include "fixture.h"
#include "graph/construction.h"
#include "nn/optimizer.h"
#include "online/observation_log.h"
#include "online/online_trainer.h"
#include "online/pipeline.h"
#include "online/publisher.h"
#include "online/windowed_graph.h"
#include "plan/ir.h"
#include "plan/recorder.h"
#include "serve/client.h"
#include "serve/inference_engine.h"
#include "serve/model_store.h"
#include "serve/protocol.h"
#include "serve/server.h"
#include "tensor/autograd.h"
#include "tensor/ops.h"
#include "workloads.h"

namespace emafbench {
namespace {

namespace fs = std::filesystem;
using emaf::Result;
using emaf::Status;
using emaf::StrCat;
using emaf::plan::Instruction;
using emaf::plan::OpCode;
using emaf::tensor::Shape;
using emaf::tensor::Tensor;

// Kernel classes, in metric order; which family's plan each is read from.
struct KernelClass {
  const char* name;
  int family;
};
constexpr KernelClass kKernels[] = {
    {"conv2d_1x1", 3},  {"conv2d_1xk", 3}, {"matmul_mixhop", 3},
    {"permute", 3},     {"matmul_cheb", 2}, {"conv2d_time", 2},
    {"matmul_gcn", 1},  {"matmul_lstm", 0}};
constexpr int kNumKernels = sizeof(kKernels) / sizeof(kKernels[0]);

int64_t Dim(const Shape& shape, int64_t from_end) {
  return shape.rank() >= from_end ? shape.dims()[static_cast<size_t>(
                                        shape.rank() - from_end)]
                                  : -1;
}

// Kernel class of one plan instruction of `family` (-1 = none).
//   MTGNN : Conv2d 1x1 / 1xk (by weight kernel), every MatMul (mix-hop
//           propagation), every Permute;
//   ASTGCN: MatMul of a [V, V] operator into [*, V, F != V] (Chebyshev
//           propagation), Conv2d with a 1xk kernel and equal in/out
//           channels (the temporal conv);
//   A3TGCN: MatMul producing [*, V, F > 1] (graph conv propagation and
//           feature transform; excludes the attention scores);
//   LSTM  : MatMul producing [*, 4H] (the gate projections).
int Classify(int family, const Instruction& ins,
             const std::vector<Shape>& in_shapes, int64_t vars,
             int64_t lstm_hidden) {
  const Shape& out = ins.out_shape;
  switch (family) {
    case 3:
      if (ins.op == OpCode::kConv2d) {
        const Shape& w = in_shapes[1];
        if (Dim(w, 2) == 1 && Dim(w, 1) == 1) return 0;
        if (Dim(w, 2) == 1 && Dim(w, 1) > 1) return 1;
      }
      if (ins.op == OpCode::kMatMul) return 2;
      if (ins.op == OpCode::kPermute) return 3;
      return -1;
    case 2:
      if (ins.op == OpCode::kMatMul && Dim(in_shapes[0], 1) == vars &&
          Dim(in_shapes[0], 2) == vars && Dim(in_shapes[1], 2) == vars &&
          Dim(in_shapes[1], 1) != vars) {
        return 4;
      }
      if (ins.op == OpCode::kConv2d && Dim(in_shapes[1], 1) > 1 &&
          Dim(in_shapes[1], 4) == Dim(in_shapes[1], 3)) {
        return 5;
      }
      return -1;
    case 1:
      return ins.op == OpCode::kMatMul && Dim(out, 2) == vars &&
                     Dim(out, 1) > 1
                 ? 6
                 : -1;
    case 0:
      return ins.op == OpCode::kMatMul && Dim(out, 1) == 4 * lstm_hidden
                 ? 7
                 : -1;
  }
  return -1;
}

Tensor RunOp(const Instruction& ins, const std::vector<Tensor>& in) {
  if (ins.op == OpCode::kConv2d) {
    emaf::tensor::Conv2dOptions opts;
    opts.stride_h = ins.ints[0];
    opts.stride_w = ins.ints[1];
    opts.pad_h = ins.ints[2];
    opts.pad_w = ins.ints[3];
    opts.dilation_h = ins.ints[4];
    opts.dilation_w = ins.ints[5];
    return emaf::tensor::Conv2d(in[0], in[1], in.size() > 2 ? in[2] : Tensor(),
                                opts);
  }
  if (ins.op == OpCode::kMatMul) return emaf::tensor::MatMul(in[0], in[1]);
  return emaf::tensor::Permute(in[0], ins.ints);
}

// Adds the per-class kernel time of `plan` into `us` (index by class).
// Backward: inputs become gradient leaves and each call is followed by
// Sum(out).Backward().
void TimeKernels(const emaf::plan::Plan& plan, int family, int64_t vars,
                 int64_t lstm_hidden, bool backward, double* us) {
  emaf::Rng rng(17);
  std::vector<Shape> reg_shapes(static_cast<size_t>(plan.num_regs));
  reg_shapes[0] = plan.input_shape;
  for (const Instruction& ins : plan.instructions) {
    std::vector<Shape> in_shapes;
    for (emaf::plan::SlotRef ref : ins.inputs) {
      in_shapes.push_back(
          emaf::plan::IsConstant(ref)
              ? plan.constants[static_cast<size_t>(
                                   emaf::plan::ConstantIndex(ref))]
                    .shape()
              : reg_shapes[static_cast<size_t>(ref)]);
    }
    if (ins.out >= 0) reg_shapes[static_cast<size_t>(ins.out)] = ins.out_shape;
    const int cls = Classify(family, ins, in_shapes, vars, lstm_hidden);
    if (cls < 0 || kKernels[cls].family != family) continue;
    std::vector<Tensor> inputs;
    for (size_t i = 0; i < ins.inputs.size(); ++i) {
      const emaf::plan::SlotRef ref = ins.inputs[i];
      Tensor value =
          emaf::plan::IsConstant(ref)
              ? plan.constants[static_cast<size_t>(
                                   emaf::plan::ConstantIndex(ref))]
                    .Clone()
              : Tensor::Uniform(in_shapes[i], -1.0, 1.0, &rng);
      if (backward) value.SetRequiresGrad(true);
      inputs.push_back(std::move(value));
    }
    double ms = 0.0;
    if (backward) {
      RunOp(ins, inputs);  // warm-up
      ms = MedianMs(7, [&] {
        emaf::tensor::Sum(RunOp(ins, inputs)).Backward();
      });
    } else {
      emaf::tensor::NoGradGuard no_grad;
      RunOp(ins, inputs);
      ms = MedianMs(15, [&] { RunOp(ins, inputs); });
    }
    us[cls] += ms * 1e3;
  }
}

// Rough sink that keeps encode/decode results observable.
volatile size_t g_sink = 0;

}  // namespace

Result<MetricList> RunProbes(const RunOptions& options,
                             const emaf::data::GeneratorConfig& cohort_config) {
  const double probe_start = Now();
  const std::string dir = options.work_dir + "/probe";
  fs::remove_all(dir);
  fs::create_directories(dir + "/saves");
  std::map<std::string, std::pair<double, std::string>> values;
  auto put = [&](const std::string& name, double value, const char* unit) {
    values[name] = {value, unit};
  };

  // --- data, graph, common -------------------------------------------------
  emaf::data::Cohort cohort;
  put("data.cohort_ms", MedianMs(5, [&] {
        cohort = emaf::data::GenerateCohort(cohort_config);
      }),
      "ms");
  const emaf::data::Individual& person = cohort.individuals[0];
  const emaf::data::IndividualSplit split =
      emaf::data::MakeSplit(person, kInputLength);
  const Tensor training =
      emaf::tensor::Slice(person.observations, 0, 0, split.split_row);
  emaf::graph::AdjacencyMatrix graph(1);
  put("graph.build_ms.corr", MedianMs(21, [&] {
        emaf::graph::GraphBuildOptions build;
        build.metric = emaf::graph::GraphMetric::kCorrelation;
        graph = emaf::graph::KeepTopFraction(
            emaf::graph::BuildSimilarityGraph(training, build), kGdt);
      }),
      "ms");
  emaf::common::ThreadPool& pool = emaf::common::ThreadPool::Global();
  put("common.parallel_for_us", MedianBatchUs(21, 50, [&] {
        pool.ParallelFor(0, pool.num_threads(), 1, [](int64_t, int64_t) {});
      }),
      "us");

  // --- one tenant per family -----------------------------------------------
  emaf::data::GeneratorConfig one = cohort_config;
  one.num_individuals = 1;
  Result<Fixture> built = BuildFixture(one, 4, dir + "/snapshots");
  if (!built.ok()) return built.status();
  const Fixture& fixture = built.value();
  const int64_t vars = person.num_variables();
  double kernel_us[kNumKernels] = {};
  double kernel_bwd_us[kNumKernels] = {};
  for (int f = 0; f < kNumGatedFamilies; ++f) {
    const Tenant& tenant = fixture.tenants[static_cast<size_t>(f)];
    const std::string key = FamilyKey(f);
    const Tensor& window = tenant.windows[0];
    Result<std::unique_ptr<emaf::models::Forecaster>> loaded =
        LoadModel(tenant.snapshot_path);
    if (!loaded.ok()) return loaded.status();
    emaf::models::Forecaster* model = loaded.value().get();

    Status io;
    put("nn.snapshot_load_ms." + key, MedianMs(7, [&] {
          emaf::Rng rng(1);
          auto again =
              emaf::models::LoadForecasterSnapshot(tenant.snapshot_path, &rng);
          if (!again.ok()) io = again.status();
        }),
        "ms");
    put("nn.snapshot_save_ms." + key, MedianMs(7, [&] {
          Status saved = emaf::models::SaveForecasterSnapshot(
              model, tenant.config, dir + "/saves/" + key + ".snapshot");
          if (!saved.ok()) io = saved;
        }),
        "ms");
    if (!io.ok()) return io;

    std::vector<double> compile_ms;
    for (int r = 0; r < 5; ++r) {
      auto fresh = LoadModel(tenant.snapshot_path);
      if (!fresh.ok()) return fresh.status();
      const double t0 = Now();
      auto compiled = emaf::plan::Compile(fresh.value().get(), window);
      compile_ms.push_back((Now() - t0) * 1e3);
      if (!compiled.ok()) return compiled.status();
    }
    put("plan.compile_ms." + key, Median(compile_ms), "ms");
    auto plan = emaf::plan::Compile(model, window);
    if (!plan.ok()) return plan.status();
    put("plan.instructions." + key,
        static_cast<double>(plan.value()->instructions.size()), "count");
    put("models.forward_us." + key,
        1e3 * MedianMs(31, [&] { emaf::core::Predict(model, window); }), "us");
    const int64_t hidden = tenant.config.lstm.hidden_units;
    TimeKernels(*plan.value(), f, vars, hidden, false, kernel_us);
    auto train_plan = emaf::plan::Compile(model, split.train.inputs);
    if (!train_plan.ok()) return train_plan.status();
    TimeKernels(*train_plan.value(), f, vars, hidden, true, kernel_bwd_us);
  }
  for (int k = 0; k < kNumKernels; ++k) {
    put(StrCat("tensor.", kKernels[k].name, "_us"), kernel_us[k], "us");
    put(StrCat("tensor.", kKernels[k].name, "_bwd_us"), kernel_bwd_us[k], "us");
  }

  // --- plan path through the engine, store Get ------------------------------
  {
    Result<emaf::serve::InferenceEngine> engine =
        emaf::serve::InferenceEngine::Load(dir + "/snapshots");
    if (!engine.ok()) return engine.status();
    for (int f = 0; f < kNumGatedFamilies; ++f) {
      const Tenant& tenant = fixture.tenants[static_cast<size_t>(f)];
      Status failed;
      auto forecast = [&] {
        auto out = engine.value().Forecast(tenant.id, tenant.windows[0]);
        if (!out.ok()) failed = out.status();
      };
      forecast();  // compiles the plan
      put(StrCat("plan.exec_us.", FamilyKey(f)), 1e3 * MedianMs(31, forecast),
          "us");
      if (!failed.ok()) return failed;
    }
  }
  {
    Result<emaf::serve::ModelStore> store =
        emaf::serve::ModelStore::Open(dir + "/snapshots");
    if (!store.ok()) return store.status();
    Status failed;
    for (int f = 0; f < kNumGatedFamilies; ++f) {
      const std::string& id = fixture.tenants[static_cast<size_t>(f)].id;
      std::vector<double> cold_ms;
      for (int r = 0; r < 7; ++r) {
        store.value().EvictIdle();
        const double t0 = Now();
        auto handle = store.value().Get(id);
        cold_ms.push_back((Now() - t0) * 1e3);
        if (!handle.ok()) return handle.status();
      }
      put(StrCat("serve.store_get_cold_ms.", FamilyKey(f)), Median(cold_ms),
          "ms");
    }
    const std::string& lstm_id = fixture.tenants[0].id;
    put("serve.store_get_warm_us", MedianBatchUs(21, 200, [&] {
          auto handle = store.value().Get(lstm_id);
          if (!handle.ok()) failed = handle.status();
        }),
        "us");
    if (!failed.ok()) return failed;
  }

  // --- wire: ping, VAR round trip, append, frame codec ----------------------
  {
    emaf::serve::ServerOptions server_options;
    server_options.observation_log_dir = dir + "/wirelog";
    Result<emaf::serve::Server> server =
        emaf::serve::Server::Start(dir + "/snapshots", server_options);
    if (!server.ok()) return server.status();
    Result<emaf::serve::Client> client =
        emaf::serve::Client::Connect(server.value().port());
    if (!client.ok()) return client.status();
    const Tenant& var = fixture.tenants[kVarFamily];
    const Tenant& lstm = fixture.tenants[0];
    Status failed;
    put("serve.ping_us", MedianBatchUs(21, 20, [&] {
          Status pong = client.value().Ping();
          if (!pong.ok()) failed = pong;
        }),
        "us");
    auto var_forecast = [&] {
      auto out = client.value().Forecast(var.id, var.windows[0]);
      if (!out.ok()) failed = out.status();
    };
    var_forecast();
    put("serve.var_us", MedianBatchUs(21, 20, var_forecast), "us");
    const std::vector<double> row = person.observations.ToVector();
    const std::vector<double> first_row(row.begin(), row.begin() + vars);
    put("online.append_us", MedianBatchUs(11, 10, [&] {
          auto seq = client.value().Append(lstm.id, first_row);
          if (!seq.ok()) failed = seq.status();
        }),
        "us");
    if (!failed.ok()) return failed;
  }
  {
    emaf::serve::Frame request;
    request.type = emaf::serve::FrameType::kForecastRequest;
    request.request_id = 1;
    request.tenant_id = fixture.tenants[3].id;
    request.payload = emaf::serve::EncodeTensorPayload(fixture.tenants[3].windows[0]);
    emaf::serve::Frame reply;
    reply.type = emaf::serve::FrameType::kForecastResponse;
    reply.request_id = 1;
    reply.payload = emaf::serve::EncodeTensorPayload(
        Tensor::Zeros(Shape{1, vars}));
    put("serve.frame_encode_us", MedianBatchUs(21, 200, [&] {
          g_sink = g_sink + emaf::serve::EncodeFrame(request).size() +
                   emaf::serve::EncodeFrame(reply).size();
        }),
        "us");
    const std::string request_bytes = emaf::serve::EncodeFrame(request);
    const std::string reply_bytes = emaf::serve::EncodeFrame(reply);
    Status failed;
    put("serve.frame_decode_us", MedianBatchUs(21, 200, [&] {
          auto a = emaf::serve::DecodeFrame(request_bytes);
          auto b = emaf::serve::DecodeFrame(reply_bytes);
          if (!a.ok() || !b.ok()) failed = Status::DataLoss("frame decode");
          g_sink = g_sink + (a.ok() ? a.value().payload.size() : 0);
        }),
        "us");
    if (!failed.ok()) return failed;
  }

  // --- online: graph, fine-tune, publish, swap, whole update ----------------
  {
    const std::string online_dir = dir + "/online";
    fs::create_directories(online_dir);
    for (int f = 0; f < kNumFamilies; ++f) {
      const Tenant& tenant = fixture.tenants[static_cast<size_t>(f)];
      fs::copy_file(tenant.snapshot_path,
                    online_dir + "/" + tenant.id + ".snapshot");
    }
    Result<emaf::online::ObservationLog> log =
        emaf::online::ObservationLog::Open(dir + "/journal");
    if (!log.ok()) return log.status();
    const emaf::online::OnlinePipelineOptions pipeline_options =
        ChurnPipelineOptions();
    const int64_t rows = pipeline_options.graph.window_rows;
    const std::vector<double> all = person.observations.ToVector();
    for (int f = 0; f < kNumFamilies; ++f) {
      for (int64_t r = 0; r < rows; ++r) {
        std::vector<double> row(all.begin() + r * vars,
                                all.begin() + (r + 1) * vars);
        auto seq = log.value().Append(fixture.tenants[static_cast<size_t>(f)].id,
                                      row);
        if (!seq.ok()) return seq.status();
      }
    }
    Result<emaf::online::SnapshotPublisher> publisher =
        emaf::online::SnapshotPublisher::Open(online_dir);
    if (!publisher.ok()) return publisher.status();
    Result<emaf::serve::ModelStore> store =
        emaf::serve::ModelStore::Open(online_dir);
    if (!store.ok()) return store.status();

    emaf::online::WindowedGraphBuilder builder(pipeline_options.graph);
    const std::string& lstm_id = fixture.tenants[0].id;
    Status failed;
    std::optional<emaf::graph::AdjacencyMatrix> adjacency;
    put("online.graph_ms", MedianMs(11, [&] {
          auto g = builder.Build(log.value(), lstm_id);
          if (g.ok()) {
            adjacency = std::move(g).value();
          } else {
            failed = g.status();
          }
        }),
        "ms");
    if (!failed.ok()) return failed;
    Result<Tensor> tail = log.value().Tail(lstm_id, rows);
    if (!tail.ok()) return tail.status();
    emaf::online::OnlineTrainer trainer(pipeline_options.train);
    std::optional<emaf::online::FineTuneResult> mtgnn_tuned;
    for (int f = 0; f < kNumGatedFamilies; ++f) {
      const Tenant& tenant = fixture.tenants[static_cast<size_t>(f)];
      const std::string path = online_dir + "/" + tenant.id + ".snapshot";
      put(StrCat("online.finetune_ms.", FamilyKey(f)), MedianMs(3, [&] {
            auto tuned =
                trainer.FineTune(tenant.id, path, tail.value(), adjacency);
            if (!tuned.ok()) {
              failed = tuned.status();
            } else if (f == 3) {
              mtgnn_tuned = std::move(tuned).value();
            }
          }),
          "ms");
      if (!failed.ok()) return failed;
    }
    // Publication of the MTGNN fine-tune (the largest snapshot).
    std::vector<std::string> published;
    const std::string& mtgnn_id = fixture.tenants[3].id;
    put("online.publish_ms", MedianMs(5, [&] {
          auto out = publisher.value().Publish(
              mtgnn_id, mtgnn_tuned->model.get(), mtgnn_tuned->config);
          if (out.ok()) {
            published.push_back(out.value().path);
          } else {
            failed = out.status();
          }
        }),
        "ms");
    if (!failed.ok()) return failed;
    size_t next = 0;
    put("online.swap_us", 1e3 * MedianMs(9, [&] {
          Status swapped = store.value().Publish(
              mtgnn_id, published[next++ % published.size()]);
          if (!swapped.ok()) failed = swapped;
        }),
        "us");
    if (!failed.ok()) return failed;
    emaf::online::OnlinePipeline pipeline(&log.value(), &publisher.value(),
                                          &store.value(), pipeline_options);
    for (int f = 0; f < kNumGatedFamilies; ++f) {
      const std::string& id = fixture.tenants[static_cast<size_t>(f)].id;
      put(StrCat("online.update_ms.", FamilyKey(f)), MedianMs(3, [&] {
            auto updated = pipeline.UpdateIndividual(id);
            if (!updated.ok()) failed = updated.status();
          }),
          "ms");
      if (!failed.ok()) return failed;
    }
  }

  // --- core: one training step and evaluation per family --------------------
  for (int f = 0; f < kNumGatedFamilies; ++f) {
    const Tenant& tenant = fixture.tenants[static_cast<size_t>(f)];
    emaf::Rng rng(options.seed + static_cast<uint64_t>(f));
    auto created = emaf::models::CreateForecaster(tenant.config, &rng);
    if (!created.ok()) return created.status();
    emaf::models::Forecaster* model = created.value().get();
    emaf::nn::Adam adam(model->Parameters(), emaf::nn::AdamOptions{});
    std::vector<double> forward_ms, backward_ms, step_ms, eval_ms;
    for (int r = 0; r < 3; ++r) {
      model->SetTraining(true);
      adam.ZeroGrad();
      double t0 = Now();
      Tensor loss = emaf::tensor::MseLoss(model->Forward(split.train.inputs),
                                          split.train.targets);
      double t1 = Now();
      loss.Backward();
      double t2 = Now();
      adam.Step();
      double t3 = Now();
      emaf::core::Predict(model, split.test.inputs);
      double t4 = Now();
      forward_ms.push_back((t1 - t0) * 1e3);
      backward_ms.push_back((t2 - t1) * 1e3);
      step_ms.push_back((t3 - t2) * 1e3);
      eval_ms.push_back((t4 - t3) * 1e3);
    }
    const std::string key = FamilyKey(f);
    put("core.forward_ms." + key, Median(forward_ms), "ms");
    put("core.backward_ms." + key, Median(backward_ms), "ms");
    put("core.step_ms." + key, Median(step_ms), "ms");
    put("core.eval_ms." + key, Median(eval_ms), "ms");
  }

  fs::remove_all(dir);
  MetricList out;
  for (const auto& [name, value_unit] : values) {
    out.Add(name, value_unit.first, value_unit.second);
  }
  std::cout << "probe phase: " << values.size() << " metrics in "
            << Now() - probe_start << " s\n";
  return out;
}

}  // namespace emafbench
