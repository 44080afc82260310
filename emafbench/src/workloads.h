// The three workloads and the per-layer probe phase. Each workload sets up
// (several times, reporting the median), runs whole rounds of its script
// for the requested seconds with one operation in flight, checks every
// output after the timed phase, and returns the end-to-end metrics — or,
// in a traced run, the per-layer metrics.

#ifndef EMAFBENCH_WORKLOADS_H_
#define EMAFBENCH_WORKLOADS_H_

#include <cstdint>
#include <string>

#include "common/status.h"
#include "data/generator.h"
#include "online/pipeline.h"
#include "report.h"

namespace emafbench {

// Pool size of every workload: with the event loop and the client thread
// this stays within a 4-CPU host.
inline constexpr int64_t kPoolThreads = 2;
// Set-ups per run; setup_s is their median. A train_cell set-up takes
// about 20 ms, a serving one 0.1-0.4 s.
inline constexpr int kServeSetupRepeats = 9;
inline constexpr int kTrainSetupRepeats = 15;

// serve_churn's online-update configuration, shared with the probes.
emaf::online::OnlinePipelineOptions ChurnPipelineOptions();

emaf::Result<WorkloadResult> RunServeWarm(const RunOptions& options);
emaf::Result<WorkloadResult> RunServeChurn(const RunOptions& options);
emaf::Result<WorkloadResult> RunTrainCell(const RunOptions& options);

// Per-layer probes on the workload's own inputs: individual 0 of the
// workload's cohort, one tenant per family. Returns every per-layer metric
// that is timed from outside rather than read from the timed phase.
emaf::Result<MetricList> RunProbes(const RunOptions& options,
                                   const emaf::data::GeneratorConfig& cohort);

// Per-layer metrics read from a timed phase, shared by the workloads.
struct PhaseCounters {
  uint64_t storage_allocs = 0;
  Usage usage;
};
PhaseCounters BeginPhase();
// Fills tensor.allocs_per_op, proc.cpu_per_wall, proc.minor_faults_per_op.
void AddPhaseMetrics(const PhaseCounters& begin, int64_t ops,
                     double wall_seconds, MetricList* out);

}  // namespace emafbench

#endif  // EMAFBENCH_WORKLOADS_H_
