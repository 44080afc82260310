// train_cell: paper cells through ExperimentRunner::RunCell at the
// bench-default cohort (2 individuals, 14 days, Seq5, CORR graph at GDT
// 0.2), kCellEpochs epochs per individual. A round runs one cell of each
// neural family in a seeded order, so every family's samples spread over
// the run. Every cell must succeed without recovery retries, give finite
// positive per-individual MSEs, and reproduce its family's first cell
// bitwise.

#include <cmath>
#include <cstring>
#include <iostream>
#include <map>

#include "common/rng.h"
#include "common/string_util.h"
#include "common/thread_pool.h"
#include "core/experiment.h"
#include "data/generator.h"
#include "fixture.h"
#include "workloads.h"

namespace emafbench {
namespace {

using emaf::Result;
using emaf::Status;

constexpr int64_t kCellIndividuals = 2;
constexpr int64_t kCellEpochs = 2;

const emaf::core::ModelKind kKinds[kNumGatedFamilies] = {
    emaf::core::ModelKind::kLstm, emaf::core::ModelKind::kA3tgcn,
    emaf::core::ModelKind::kAstgcn, emaf::core::ModelKind::kMtgnn};

emaf::core::ExperimentConfig CellConfig(uint64_t seed) {
  emaf::core::ExperimentConfig config;
  config.generator = CohortConfig(seed, kCellIndividuals);
  // Every beep answered: with the generator's compliance thinning on, the
  // row count of an individual (and with it the cell cost) varies by seed.
  config.generator.compliance_mean = 1.0;
  config.generator.compliance_spread = 0.0;
  config.train.epochs = kCellEpochs;
  config.seed = seed;
  return config;
}

emaf::core::CellSpec Spec(int family) {
  emaf::core::CellSpec spec;
  spec.model = kKinds[family];
  spec.metric = emaf::graph::GraphMetric::kCorrelation;
  spec.gdt = kGdt;
  spec.input_length = kInputLength;
  return spec;
}

}  // namespace

Result<WorkloadResult> RunTrainCell(const RunOptions& options) {
  emaf::common::ThreadPool::SetGlobalNumThreads(kPoolThreads);
  const emaf::core::ExperimentConfig config = CellConfig(options.seed);
  std::vector<double> setup_seconds;
  emaf::data::Cohort cohort;
  // Set-up: the cohort, then one LSTM cell as warm-up so the pool's
  // workers and the allocator are live before the first timed cell.
  for (int r = 0; r < kTrainSetupRepeats; ++r) {
    const double start = Now();
    cohort = emaf::data::GenerateCohort(config.generator);
    emaf::core::ExperimentRunner warm_up(cohort, config);
    Result<emaf::core::CellResult> cell = warm_up.RunCell(Spec(0));
    if (!cell.ok()) return cell.status();
    setup_seconds.push_back(Now() - start);
  }

  if (options.trace) {
    emaf::obs::Trace::Enable(options.work_dir + "/../trace-" +
                             options.workload + ".json");
  }
  emaf::Rng order_rng = emaf::Rng(options.seed).Fork(3);
  std::vector<double> cell_ms[kNumGatedFamilies];
  // First result per family, and how many later cells differed from it.
  std::map<int, std::vector<double>> first_mse;
  int64_t not_reproduced = 0;
  int64_t retried = 0;
  int64_t bad_mse = 0;
  OpTally ops;
  HostReference host;
  const PhaseCounters phase = BeginPhase();
  const double start = Now();
  const double deadline = start + options.seconds;
  double excluded = 0.0;
  int64_t rounds = 0;
  while (Now() < deadline) {
    std::vector<int> families = {0, 1, 2, 3};
    order_rng.Shuffle(&families);
    std::map<std::string, double> block;
    for (int family : families) {
      // A fresh runner per cell: a runner caches MTGNN's learned-graph
      // training, so a second MTGNN cell on one runner would train nothing.
      emaf::core::ExperimentRunner runner(cohort, config);
      const double t0 = Now();
      Result<emaf::core::CellResult> cell = [&] {
        CallSpan span(options.trace,
                      emaf::StrCat("ExperimentRunner::RunCell/",
                                   FamilyKey(family)));
        return runner.RunCell(Spec(family));
      }();
      const double ms = (Now() - t0) * 1e3;
      ops.Record(cell.ok() ? Status::Ok() : cell.status());
      if (!cell.ok()) continue;
      cell_ms[family].push_back(ms);
      block[FamilyKey(family)] = ms;
      const emaf::core::CellResult& value = cell.value();
      retried += value.TotalRetries();
      for (double mse : value.per_individual_mse) {
        if (!std::isfinite(mse) || mse <= 0.0) ++bad_mse;
      }
      auto [it, inserted] =
          first_mse.emplace(family, value.per_individual_mse);
      if (!inserted &&
          (it->second.size() != value.per_individual_mse.size() ||
           std::memcmp(it->second.data(), value.per_individual_mse.data(),
                       it->second.size() * sizeof(double)) != 0)) {
        ++not_reproduced;
      }
    }
    ++rounds;
    const double ref_start = Now();
    host.CloseBlock(block);
    excluded += Now() - ref_start;
  }
  const double wall = Now() - start - excluded;
  const double peak_rss_mb = PeakRssMb();

  WorkloadResult result;
  result.ops = ops;
  MetricList phase_metrics;
  AddPhaseMetrics(phase, ops.attempted(), wall, &phase_metrics);
  if (options.trace) {
    Status flushed = emaf::obs::Trace::Flush();
    if (!flushed.ok()) std::cout << "trace: " << flushed.ToString() << "\n";
    emaf::obs::Trace::Disable();
  }

  Checks checks;
  checks.Expect(retried == 0,
                emaf::StrCat(retried, " recovery retries (expected none)"));
  checks.Expect(bad_mse == 0,
                emaf::StrCat(bad_mse, " per-individual MSEs not finite and "
                                      "positive"));
  checks.Expect(not_reproduced == 0,
                emaf::StrCat(not_reproduced,
                             " repeated cells differ from their first run"));
  result.correct = checks.ok();
  std::cout << "workload train_cell: " << rounds << " rounds, "
            << ops.attempted() << " cells in " << wall << " s; "
            << checks.passed() << " checks passed, " << checks.failures()
            << " failed\n";
  for (int f = 0; f < kNumGatedFamilies; ++f) {
    std::cout << "  " << FamilyKey(f) << ": " << cell_ms[f].size()
              << " cells, median " << Median(cell_ms[f]) << " ms\n";
  }

  std::cout << "host: ref_ms " << host.ref_ms() << ", op_per_ref";
  for (int f = 0; f < kNumGatedFamilies; ++f) {
    std::cout << " " << FamilyKey(f) << " " << host.op_per_ref(FamilyKey(f));
  }
  std::cout << "\n";
  if (!options.trace) {
    result.metrics.Add("setup_s", Median(setup_seconds), "s");
    result.metrics.Add("ops_per_s",
                       static_cast<double>(ops.completed()) / wall, "ops/s");
    result.metrics.Add("peak_rss_mb", peak_rss_mb, "MB");
    for (int f = 0; f < kNumGatedFamilies; ++f) {
      result.metrics.Add(emaf::StrCat("op_ms.", FamilyKey(f)),
                         Median(cell_ms[f]), "ms");
    }
    return result;
  }

  MetricList& m = result.metrics;
  m.Merge(phase_metrics);
  // No store in this workload's timed phase.
  m.Add("serve.store_cold_loads_per_op", 0.0, "count");
  m.Add("serve.store_hit_rate", 0.0, "ratio");
  m.Add("serve.store_resident_mb", 0.0, "MB");
  m.Add("host.ref_ms", host.ref_ms(), "ms");
  for (int f = 0; f < kNumGatedFamilies; ++f) {
    m.Add(emaf::StrCat("host.op_per_ref.", FamilyKey(f)),
          host.op_per_ref(FamilyKey(f)), "ratio");
    m.Add(emaf::StrCat("tail.p99_ms.", FamilyKey(f)),
          TailQuantile(cell_ms[f]), "ms");
  }
  std::cout << "traced e2e:";
  for (int f = 0; f < kNumGatedFamilies; ++f) {
    std::cout << " op_ms." << FamilyKey(f) << "=" << Median(cell_ms[f]);
  }
  std::cout << " ops_per_s=" << static_cast<double>(ops.completed()) / wall
            << "\n";
  Result<MetricList> probes = RunProbes(options, config.generator);
  if (!probes.ok()) return probes.status();
  m.Merge(probes.value());
  return result;
}

PhaseCounters BeginPhase() {
  PhaseCounters counters;
  counters.storage_allocs = StorageAllocs();
  counters.usage = ReadUsage();
  return counters;
}

void AddPhaseMetrics(const PhaseCounters& begin, int64_t ops,
                     double wall_seconds, MetricList* out) {
  const Usage end = ReadUsage();
  const double per_op = ops > 0 ? 1.0 / static_cast<double>(ops) : 0.0;
  out->Add("tensor.allocs_per_op",
           static_cast<double>(StorageAllocs() - begin.storage_allocs) * per_op,
           "count");
  out->Add("proc.cpu_per_wall",
           wall_seconds > 0
               ? (end.cpu_seconds - begin.usage.cpu_seconds) / wall_seconds
               : 0.0,
           "ratio");
  out->Add("proc.minor_faults_per_op",
           static_cast<double>(end.minor_faults - begin.usage.minor_faults) *
               per_op,
           "count");
}

}  // namespace emafbench
