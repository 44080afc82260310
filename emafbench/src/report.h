// Shared plumbing of the emaf benchmark: clocks and order statistics,
// outcome tallies by StatusCode, output checks, the metric list printed as
// the final JSON line, process usage, and the host-drift reference kernel.

#ifndef EMAFBENCH_REPORT_H_
#define EMAFBENCH_REPORT_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/status.h"
#include "common/trace.h"

namespace emafbench {

// Command-line options shared by every workload.
struct RunOptions {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  // Scratch directory for this run (snapshots, journals, traces); created
  // by main, removed by main at exit.
  std::string work_dir;
};

inline double Now() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// Linear-interpolated quantile, q in [0, 1]; NaN for an empty sample, which
// the result line refuses.
double Quantile(std::vector<double> values, double q);
inline double Median(std::vector<double> values) {
  return Quantile(std::move(values), 0.5);
}
// p99 when at least ten samples lie beyond it; otherwise the highest
// order statistic with ten samples beyond it; the median when the sample
// has fewer than 21 values.
double TailQuantile(std::vector<double> values);

// Wall time of `fn()` in milliseconds, median over `reps` calls.
template <typename Fn>
double MedianMs(int reps, Fn&& fn) {
  std::vector<double> ms;
  ms.reserve(static_cast<size_t>(reps));
  for (int r = 0; r < reps; ++r) {
    const double start = Now();
    fn();
    ms.push_back((Now() - start) * 1e3);
  }
  return Median(std::move(ms));
}

// Per-call wall time in microseconds of a cheap `fn()`: the median over
// `batches` batches of `per_batch` back-to-back calls.
template <typename Fn>
double MedianBatchUs(int batches, int per_batch, Fn&& fn) {
  std::vector<double> us;
  us.reserve(static_cast<size_t>(batches));
  for (int b = 0; b < batches; ++b) {
    const double start = Now();
    for (int i = 0; i < per_batch; ++i) fn();
    us.push_back((Now() - start) * 1e6 / per_batch);
  }
  return Median(std::move(us));
}

// Operations attempted and failed, failures broken down by StatusCode name.
// Every non-OK status counts as one failed operation, whatever its code.
class OpTally {
 public:
  void Record(const emaf::Status& status);
  int64_t attempted() const { return attempted_; }
  int64_t failed() const { return failed_; }
  int64_t completed() const { return attempted_ - failed_; }
  const std::map<std::string, int64_t>& by_code() const { return by_code_; }
  // First few failure messages, for the human-readable log.
  const std::vector<std::string>& samples() const { return samples_; }

 private:
  int64_t attempted_ = 0;
  int64_t failed_ = 0;
  std::map<std::string, int64_t> by_code_;
  std::vector<std::string> samples_;
};

// Output checks. Run after the timed phase; a failed expectation makes the
// run's `correct` false and is printed with its message.
class Checks {
 public:
  void Expect(bool condition, const std::string& what);
  bool ok() const { return failures_ == 0; }
  int64_t passed() const { return passed_; }
  int64_t failures() const { return failures_; }

 private:
  int64_t passed_ = 0;
  int64_t failures_ = 0;
};

// Ordered metric list, emitted as the "metrics" object of the result line.
class MetricList {
 public:
  void Add(const std::string& name, double value, const std::string& unit);
  void Merge(const MetricList& other);
  const std::vector<std::pair<std::string, std::pair<double, std::string>>>&
  entries() const {
    return entries_;
  }

 private:
  std::vector<std::pair<std::string, std::pair<double, std::string>>> entries_;
};

struct WorkloadResult {
  bool correct = false;
  OpTally ops;
  MetricList metrics;
};

// Prints the failure breakdown and then the result line, which is always
// the last line of standard output.
void PrintResult(const WorkloadResult& result);

// Process resource usage (getrusage of this process).
struct Usage {
  double cpu_seconds = 0.0;  // user + system
  int64_t minor_faults = 0;
};
Usage ReadUsage();
// Peak resident set of this process so far, in MB (ru_maxrss).
double PeakRssMb();

// tensor.storage_allocs, the program's own allocation counter.
uint64_t StorageAllocs();

// Host-drift diagnostic: a plain 96x96 f64 matrix multiply that calls
// nothing in the program, timed between blocks of a run. Reports nothing
// the gates read; it explains drift when op times move together.
class HostReference {
 public:
  // Times the reference (median of five multiplies, ms) and closes the
  // current block: `block_op_ms` maps a family to the median op time of
  // the block just ended.
  void CloseBlock(const std::map<std::string, double>& block_op_ms);
  double ref_ms() const;
  // Median over blocks of block op time / that block's reference time.
  double op_per_ref(const std::string& family) const;

 private:
  std::vector<double> ref_ms_;
  std::map<std::string, std::vector<double>> ratios_;
};

// A span around one call into the program, recorded only in traced runs.
class CallSpan {
 public:
  CallSpan(bool traced, const std::string& name) {
    if (traced) span_.emplace(name, "emafbench");
  }

 private:
  std::optional<emaf::obs::ScopedSpan> span_;
};

}  // namespace emafbench

#endif  // EMAFBENCH_REPORT_H_
