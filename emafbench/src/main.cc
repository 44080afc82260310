// emafbench: the repository benchmark (see ../README.md).
//
//   emafbench --workload <serve_warm|serve_churn|train_cell> --seed <n>
//             --seconds <s> --trace <0|1>
//
// Prints a human-readable log and, as the last line of standard output,
// one JSON object {"correct", "attempted", "failed", "metrics"}. With
// --trace 0 the metrics are the seven end-to-end metrics; with --trace 1
// the timed phase is replayed with spans (written to
// .bench_work/trace-<workload>.json) and followed by the probe phase, and
// the metrics are the per-layer list below. Scratch files live under
// .bench_work/ in the working directory and are removed at exit.

#include <unistd.h>

#include <cmath>
#include <cstdlib>
#include <filesystem>
#include <iostream>
#include <map>
#include <string>
#include <vector>

#include "common/string_util.h"
#include "fixture.h"
#include "report.h"
#include "workloads.h"

namespace emafbench {
namespace {

struct MetricSpec {
  std::string name;
  std::string unit;
};

std::vector<MetricSpec> EndToEndMetrics() {
  std::vector<MetricSpec> out = {
      {"setup_s", "s"}, {"ops_per_s", "ops/s"}, {"peak_rss_mb", "MB"}};
  for (int f = 0; f < kNumGatedFamilies; ++f) {
    out.push_back({emaf::StrCat("op_ms.", FamilyKey(f)), "ms"});
  }
  return out;
}

// Every per-layer metric, in report order; a traced run prints all of them.
std::vector<MetricSpec> PerLayerMetrics() {
  std::vector<MetricSpec> out;
  const char* kernels[] = {"conv2d_1x1",  "conv2d_1xk", "matmul_mixhop",
                           "permute",     "matmul_cheb", "conv2d_time",
                           "matmul_gcn",  "matmul_lstm"};
  for (const char* k : kernels) out.push_back({emaf::StrCat("tensor.", k, "_us"), "us"});
  for (const char* k : kernels) {
    out.push_back({emaf::StrCat("tensor.", k, "_bwd_us"), "us"});
  }
  out.push_back({"tensor.allocs_per_op", "count"});
  auto per_family = [&](const std::string& prefix, const std::string& unit) {
    for (int f = 0; f < kNumGatedFamilies; ++f) {
      out.push_back({prefix + FamilyKey(f), unit});
    }
  };
  per_family("models.forward_us.", "us");
  per_family("plan.exec_us.", "us");
  per_family("plan.instructions.", "count");
  per_family("plan.compile_ms.", "ms");
  per_family("nn.snapshot_load_ms.", "ms");
  per_family("nn.snapshot_save_ms.", "ms");
  for (const char* name :
       {"serve.ping_us", "serve.var_us", "serve.frame_encode_us",
        "serve.frame_decode_us", "serve.store_get_warm_us"}) {
    out.push_back({name, "us"});
  }
  per_family("serve.store_get_cold_ms.", "ms");
  out.push_back({"serve.store_cold_loads_per_op", "count"});
  out.push_back({"serve.store_hit_rate", "ratio"});
  out.push_back({"serve.store_resident_mb", "MB"});
  out.push_back({"online.append_us", "us"});
  out.push_back({"online.graph_ms", "ms"});
  out.push_back({"online.publish_ms", "ms"});
  out.push_back({"online.swap_us", "us"});
  per_family("online.finetune_ms.", "ms");
  per_family("online.update_ms.", "ms");
  per_family("core.forward_ms.", "ms");
  per_family("core.backward_ms.", "ms");
  per_family("core.step_ms.", "ms");
  per_family("core.eval_ms.", "ms");
  out.push_back({"graph.build_ms.corr", "ms"});
  out.push_back({"data.cohort_ms", "ms"});
  out.push_back({"common.parallel_for_us", "us"});
  out.push_back({"proc.cpu_per_wall", "ratio"});
  out.push_back({"proc.minor_faults_per_op", "count"});
  out.push_back({"host.ref_ms", "ms"});
  per_family("host.op_per_ref.", "ratio");
  per_family("tail.p99_ms.", "ms");
  return out;
}

// Reorders `metrics` to `specs`; false (with a message) when a metric is
// missing, unexpected, not finite (a median of no samples), or carries
// another unit.
bool Conform(const std::vector<MetricSpec>& specs, MetricList* metrics) {
  std::map<std::string, std::pair<double, std::string>> by_name;
  for (const auto& [name, value_unit] : metrics->entries()) {
    if (!by_name.emplace(name, value_unit).second) {
      std::cerr << "emafbench: metric reported twice: " << name << "\n";
      return false;
    }
  }
  MetricList ordered;
  for (const MetricSpec& spec : specs) {
    auto it = by_name.find(spec.name);
    if (it == by_name.end() || it->second.second != spec.unit) {
      std::cerr << "emafbench: metric missing or mis-united: " << spec.name
                << "\n";
      return false;
    }
    if (!std::isfinite(it->second.first)) {
      std::cerr << "emafbench: metric has no finite value: " << spec.name
                << "\n";
      return false;
    }
    ordered.Add(spec.name, it->second.first, spec.unit);
    by_name.erase(it);
  }
  if (!by_name.empty()) {
    std::cerr << "emafbench: unlisted metric: " << by_name.begin()->first
              << "\n";
    return false;
  }
  *metrics = ordered;
  return true;
}

int PrintUsage() {
  std::cerr << "usage: emafbench --workload <serve_warm|serve_churn|"
               "train_cell> --seed <n> --seconds <s> --trace <0|1>\n";
  return 2;
}

int Main(int argc, char** argv) {
  RunOptions options;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) return PrintUsage();
    const std::string value = argv[++i];
    if (arg == "--workload") {
      options.workload = value;
      have_workload = true;
    } else if (arg == "--seed") {
      options.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (arg == "--seconds") {
      options.seconds = std::strtod(value.c_str(), nullptr);
    } else if (arg == "--trace") {
      options.trace = value == "1";
    } else {
      return PrintUsage();
    }
  }
  if (!have_workload || options.seconds <= 0) return PrintUsage();

  options.work_dir = emaf::StrCat(".bench_work/", options.workload, "-",
                                  options.seed, "-", getpid());
  std::filesystem::remove_all(options.work_dir);
  std::filesystem::create_directories(options.work_dir);
  std::cout << "emafbench " << options.workload << " seed " << options.seed
            << " seconds " << options.seconds << " trace " << options.trace
            << "\n";

  emaf::Result<WorkloadResult> result = emaf::Status::InvalidArgument(
      "unknown workload " + options.workload);
  if (options.workload == "serve_warm") {
    result = RunServeWarm(options);
  } else if (options.workload == "serve_churn") {
    result = RunServeChurn(options);
  } else if (options.workload == "train_cell") {
    result = RunTrainCell(options);
  }
  std::filesystem::remove_all(options.work_dir);
  if (!result.ok()) {
    std::cerr << "emafbench: " << result.status().ToString() << "\n";
    return 1;
  }
  WorkloadResult& value = result.value();
  if (!Conform(options.trace ? PerLayerMetrics() : EndToEndMetrics(),
               &value.metrics)) {
    return 3;
  }
  PrintResult(value);
  return 0;
}

}  // namespace
}  // namespace emafbench

int main(int argc, char** argv) { return emafbench::Main(argc, argv); }
