#include "report.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <iostream>
#include <limits>

#include "common/metrics.h"

namespace emafbench {

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return std::numeric_limits<double>::quiet_NaN();
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

double TailQuantile(std::vector<double> values) {
  const size_t n = values.size();
  if (n < 21) return Quantile(std::move(values), 0.5);
  std::sort(values.begin(), values.end());
  // Index of p99, capped so that at least ten samples lie above it.
  const size_t p99 = static_cast<size_t>(0.99 * static_cast<double>(n - 1));
  return values[std::min(p99, n - 11)];
}

void OpTally::Record(const emaf::Status& status) {
  ++attempted_;
  if (status.ok()) return;
  ++failed_;
  ++by_code_[emaf::StatusCodeName(status.code())];
  if (samples_.size() < 5) samples_.push_back(status.ToString());
}

void Checks::Expect(bool condition, const std::string& what) {
  if (condition) {
    ++passed_;
    return;
  }
  ++failures_;
  if (failures_ <= 20) std::cout << "check failed: " << what << "\n";
}

void MetricList::Add(const std::string& name, double value,
                     const std::string& unit) {
  entries_.push_back({name, {value, unit}});
}

void MetricList::Merge(const MetricList& other) {
  for (const auto& entry : other.entries_) entries_.push_back(entry);
}

namespace {

std::string JsonNumber(double value) {
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.17g", value);
  return buffer;
}

}  // namespace

void PrintResult(const WorkloadResult& result) {
  std::string codes = "{";
  for (const auto& [code, count] : result.ops.by_code()) {
    if (codes.size() > 1) codes += ", ";
    codes += "\"" + code + "\": " + std::to_string(count);
  }
  codes += "}";
  std::cout << "ops: attempted " << result.ops.attempted() << ", failed "
            << result.ops.failed() << ", failed by code " << codes << "\n";
  for (const std::string& sample : result.ops.samples()) {
    std::cout << "failure: " << sample << "\n";
  }
  std::string line = "{\"correct\": ";
  line += result.correct ? "true" : "false";
  line += ", \"attempted\": " + std::to_string(result.ops.attempted());
  line += ", \"failed\": " + std::to_string(result.ops.failed());
  line += ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, value_unit] : result.metrics.entries()) {
    if (!first) line += ", ";
    first = false;
    line += "\"" + name + "\": {\"value\": " + JsonNumber(value_unit.first) +
            ", \"unit\": \"" + value_unit.second + "\"}";
  }
  line += "}}";
  std::cout << line << std::endl;
}

Usage ReadUsage() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  Usage out;
  out.cpu_seconds =
      static_cast<double>(usage.ru_utime.tv_sec + usage.ru_stime.tv_sec) +
      1e-6 * static_cast<double>(usage.ru_utime.tv_usec +
                                 usage.ru_stime.tv_usec);
  out.minor_faults = usage.ru_minflt;
  return out;
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB -> MiB
}

uint64_t StorageAllocs() {
  return emaf::obs::Registry::Global()
      .GetCounter("tensor.storage_allocs")
      ->value();
}

namespace {

// The reference kernel: C = A * B for 96x96 doubles, i-k-j loop order.
// Inputs are fixed, the result is folded into a sink so the multiply
// cannot be elided.
double ReferenceMultiplyMs() {
  constexpr int kN = 96;
  static std::vector<double> a, b, c;
  if (a.empty()) {
    a.resize(kN * kN);
    b.resize(kN * kN);
    c.resize(kN * kN);
    for (int i = 0; i < kN * kN; ++i) {
      a[static_cast<size_t>(i)] = 1.0 + 1e-3 * (i % 97);
      b[static_cast<size_t>(i)] = 1.0 - 1e-3 * (i % 89);
    }
  }
  static volatile double sink = 0.0;
  const double start = Now();
  std::fill(c.begin(), c.end(), 0.0);
  for (int i = 0; i < kN; ++i) {
    for (int k = 0; k < kN; ++k) {
      const double aik = a[static_cast<size_t>(i * kN + k)];
      for (int j = 0; j < kN; ++j) {
        c[static_cast<size_t>(i * kN + j)] +=
            aik * b[static_cast<size_t>(k * kN + j)];
      }
    }
  }
  sink = sink + c[static_cast<size_t>(kN * kN / 2)];
  return (Now() - start) * 1e3;
}

}  // namespace

void HostReference::CloseBlock(
    const std::map<std::string, double>& block_op_ms) {
  std::vector<double> samples;
  for (int r = 0; r < 5; ++r) samples.push_back(ReferenceMultiplyMs());
  const double ref = Median(std::move(samples));
  ref_ms_.push_back(ref);
  for (const auto& [family, op_ms] : block_op_ms) {
    if (ref > 0.0) ratios_[family].push_back(op_ms / ref);
  }
}

double HostReference::ref_ms() const { return Median(ref_ms_); }

double HostReference::op_per_ref(const std::string& family) const {
  auto it = ratios_.find(family);
  return it == ratios_.end() ? std::numeric_limits<double>::quiet_NaN()
                             : Median(it->second);
}

}  // namespace emafbench
