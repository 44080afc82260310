// serve_warm and serve_churn: forecasts over one loopback connection to an
// in-process serve::Server, one request in flight.
//
// serve_warm — 4 individuals x 5 families = 20 tenants, all resident and
//   plan-compiled during set-up. A round reads every tenant once, families
//   interleaved, so each family's samples span the whole run.
// serve_churn — 10 individuals x 5 families = 50 tenants behind a
//   residency budget of 4 models (= the scheduler's max_batch), so nearly
//   every read cold-loads. A round reads every tenant ten times in a
//   seeded order; after every 100 reads one tenant is updated: 16 rows
//   appended over the wire, then OnlinePipeline::UpdateIndividual (tail ->
//   windowed graph -> fine-tune -> publish -> swap). One update per family
//   per round, rotating over individuals.
//
// Every reply is checked after the timed phase against core::Predict on a
// model the benchmark loads itself from the snapshot file that served it.

#include <algorithm>
#include <cmath>
#include <cstring>
#include <filesystem>
#include <iostream>
#include <map>
#include <memory>
#include <optional>
#include <tuple>

#include "common/rng.h"
#include "common/string_util.h"
#include "common/thread_pool.h"
#include "core/evaluator.h"
#include "fixture.h"
#include "models/var_forecaster.h"
#include "online/observation_log.h"
#include "online/pipeline.h"
#include "online/publisher.h"
#include "serve/client.h"
#include "serve/server.h"
#include "workloads.h"

namespace emafbench {
namespace {

using emaf::Result;
using emaf::Status;
using emaf::tensor::Tensor;

struct ServeShape {
  int64_t individuals;
  int64_t windows_per_tenant;
  int64_t max_resident;  // 0 = unlimited
  int64_t max_batch;
  bool churn;
};

constexpr ServeShape kWarmShape{4, 8, 0, 8, false};
constexpr ServeShape kChurnShape{10, 4, 4, 4, true};

// serve_churn's write side. An update is bench_online's: one per 16
// streamed rows, 3 fine-tune epochs over a 32-row window. Reads per update
// are set so that updates take a minority (about 30%) of the phase.
constexpr int64_t kReadsPerWrite = 100;
constexpr int64_t kRowsPerAppend = 16;
constexpr int64_t kJournalRows = 32;  // seeded per tenant; = window_rows
constexpr int64_t kFineTuneEpochs = 3;

// One observation row of `tenant`'s individual (cycling over the study).
std::vector<double> ObservationRow(const Fixture& fixture,
                                   const Tenant& tenant, int64_t cursor) {
  const Tensor& obs =
      fixture.cohort.individuals[static_cast<size_t>(tenant.individual)]
          .observations;
  const int64_t rows = obs.dim(0);
  const int64_t vars = obs.dim(1);
  const double* row = obs.data() + (cursor % rows) * vars;
  return std::vector<double>(row, row + vars);
}

// Everything a serving run holds. Not movable: the pipeline borrows the
// publisher, the server's store and its observation log.
struct ServeRig {
  Fixture fixture;
  std::optional<emaf::serve::Server> server;
  std::optional<emaf::serve::Client> client;
  std::optional<emaf::online::SnapshotPublisher> publisher;
  std::unique_ptr<emaf::online::OnlinePipeline> pipeline;
  // Rows journaled per tenant, in order (churn only).
  std::vector<std::vector<std::vector<double>>> journal;

  ServeRig() = default;
  ServeRig(const ServeRig&) = delete;
  ServeRig& operator=(const ServeRig&) = delete;
  ~ServeRig() {
    pipeline.reset();
    publisher.reset();
    client.reset();
    server.reset();
  }
};

Result<std::unique_ptr<ServeRig>> SetUp(const RunOptions& options,
                                        const ServeShape& shape,
                                        const std::string& dir) {
  auto rig = std::make_unique<ServeRig>();
  std::filesystem::remove_all(dir);
  const std::string snapshots = dir + "/snapshots";
  Result<Fixture> fixture =
      BuildFixture(CohortConfig(options.seed, shape.individuals),
                   shape.windows_per_tenant, snapshots);
  if (!fixture.ok()) return fixture.status();
  rig->fixture = std::move(fixture).value();

  emaf::serve::ServerOptions server_options;
  server_options.store.max_resident_models = shape.max_resident;
  server_options.scheduler.max_batch = shape.max_batch;
  if (shape.churn) server_options.observation_log_dir = dir + "/journal";
  Result<emaf::serve::Server> server =
      emaf::serve::Server::Start(snapshots, server_options);
  if (!server.ok()) return server.status();
  rig->server.emplace(std::move(server).value());
  Result<emaf::serve::Client> client =
      emaf::serve::Client::Connect(rig->server->port());
  if (!client.ok()) return client.status();
  rig->client.emplace(std::move(client).value());

  if (shape.churn) {
    // Journal seeding: every tenant starts with a full graph window.
    emaf::online::ObservationLog* log = rig->server->observation_log();
    rig->journal.resize(rig->fixture.tenants.size());
    for (size_t t = 0; t < rig->fixture.tenants.size(); ++t) {
      for (int64_t r = 0; r < kJournalRows; ++r) {
        std::vector<double> row =
            ObservationRow(rig->fixture, rig->fixture.tenants[t], r);
        Result<uint64_t> appended = log->Append(rig->fixture.tenants[t].id, row);
        if (!appended.ok()) return appended.status();
        rig->journal[t].push_back(std::move(row));
      }
    }
    Result<emaf::online::SnapshotPublisher> publisher =
        emaf::online::SnapshotPublisher::Open(snapshots);
    if (!publisher.ok()) return publisher.status();
    rig->publisher.emplace(std::move(publisher).value());
    rig->pipeline = std::make_unique<emaf::online::OnlinePipeline>(
        log, &*rig->publisher, &rig->server->store(), ChurnPipelineOptions());
  } else {
    // Warm-up: every tenant resident, its plan compiled, the arena filled.
    for (const Tenant& tenant : rig->fixture.tenants) {
      for (const Tensor& window : tenant.windows) {
        Result<Tensor> reply = rig->client->Forecast(tenant.id, window);
        if (!reply.ok()) return reply.status();
      }
    }
  }
  return rig;
}

// The median of `kServeSetupRepeats` set-ups; the last one is kept for the
// run.
Result<std::unique_ptr<ServeRig>> RepeatedSetUp(const RunOptions& options,
                                                const ServeShape& shape,
                                                double* setup_s) {
  std::vector<double> seconds;
  std::unique_ptr<ServeRig> rig;
  for (int r = 0; r < kServeSetupRepeats; ++r) {
    rig.reset();
    const double start = Now();
    Result<std::unique_ptr<ServeRig>> made =
        SetUp(options, shape, emaf::StrCat(options.work_dir, "/setup", r));
    if (!made.ok()) return made.status();
    seconds.push_back(Now() - start);
    rig = std::move(made).value();
  }
  *setup_s = Median(seconds);
  return rig;
}

// Replies of a run, interned by (snapshot path, window): the first reply
// for a key is kept, every later one is compared with it bitwise as it
// arrives (outside the per-op timer), so memory stays flat however many
// reads a run makes. After the phase every kept reply is checked against
// the reference.
struct ReplyLog {
  struct Key {
    int32_t tenant = 0;
    int32_t window = 0;
    int32_t path = 0;  // index into the run's path table
    bool operator<(const Key& o) const {
      return std::tie(path, window, tenant) < std::tie(o.path, o.window, o.tenant);
    }
  };
  struct Kept {
    std::vector<double> values;
    int64_t count = 0;  // replies for this key
  };
  std::map<Key, Kept> first;
  int64_t replies = 0;
  int64_t bad_shapes = 0;     // not [1, V] or not finite
  int64_t differ_first = 0;   // differ from the first reply of their key

  void Add(const Key& key, const Tensor& reply, int64_t vars) {
    ++replies;
    bool ok = reply.rank() == 2 && reply.dim(0) == 1 && reply.dim(1) == vars;
    const std::vector<double> values = reply.ToVector();
    for (double v : values) ok = ok && std::isfinite(v);
    if (!ok) {
      ++bad_shapes;
      return;
    }
    auto [it, inserted] = first.try_emplace(key, Kept{values, 0});
    ++it->second.count;
    if (!inserted && std::memcmp(it->second.values.data(), values.data(),
                                 values.size() * sizeof(double)) != 0) {
      ++differ_first;
    }
  }
};

// VAR reference: the forecast as a dot product over the coefficient
// matrix [L*V + 1, V] (last row the intercept). Returns false when any
// element differs from `reply` by more than 1e-12 of the magnitude of its
// terms.
bool MatchesVarDotProduct(emaf::models::VarForecaster* var,
                          const Tensor& window,
                          const std::vector<double>& reply) {
  const Tensor& coef = var->coefficients();
  const int64_t vars = coef.dim(1);
  const int64_t lags = coef.dim(0) - 1;
  const double* c = coef.data();
  const double* x = window.data();
  for (int64_t v = 0; v < vars; ++v) {
    double sum = c[lags * vars + v];
    double scale = std::abs(sum);
    for (int64_t j = 0; j < lags; ++j) {
      sum += x[j] * c[j * vars + v];
      scale += std::abs(x[j] * c[j * vars + v]);
    }
    if (std::abs(sum - reply[static_cast<size_t>(v)]) >
        1e-12 * std::max(scale, 1e-300)) {
      return false;
    }
  }
  return true;
}

// Checks every reply against core::Predict on a model the benchmark loads
// itself from the snapshot that served it (bitwise), plus the VAR dot
// product.
void VerifyReplies(const Fixture& fixture,
                   const std::vector<std::string>& paths, const ReplyLog& log,
                   Checks* checks) {
  int64_t mismatches = 0;
  int64_t var_mismatches = 0;
  int32_t loaded_path = -1;
  std::unique_ptr<emaf::models::Forecaster> model;
  for (const auto& [key, kept] : log.first) {  // ordered by path
    const std::vector<double>& reply = kept.values;
    if (key.path != loaded_path) {
      const std::string& path = paths[static_cast<size_t>(key.path)];
      Result<std::unique_ptr<emaf::models::Forecaster>> loaded =
          LoadModel(path);
      checks->Expect(loaded.ok(), "load " + path);
      if (!loaded.ok()) return;
      model = std::move(loaded).value();
      loaded_path = key.path;
    }
    const Tensor& window = fixture.tenants[static_cast<size_t>(key.tenant)]
                               .windows[static_cast<size_t>(key.window)];
    const std::vector<double> expected =
        emaf::core::Predict(model.get(), window).ToVector();
    if (expected.size() != reply.size() ||
        std::memcmp(expected.data(), reply.data(),
                    reply.size() * sizeof(double)) != 0) {
      mismatches += kept.count;
    }
    if (auto* var = dynamic_cast<emaf::models::VarForecaster*>(model.get())) {
      if (!MatchesVarDotProduct(var, window, reply)) {
        var_mismatches += kept.count;
      }
    }
  }
  checks->Expect(log.bad_shapes == 0,
                 emaf::StrCat(log.bad_shapes, " replies not [1, V] and finite"));
  // A reply that differs from its key's first reply is counted once even
  // when the first reply is wrong too.
  checks->Expect(log.differ_first == 0 && mismatches == 0,
                 emaf::StrCat(std::min(log.replies,
                                       log.differ_first + mismatches),
                              " of ", log.replies,
                              " replies differ from the module path"));
  checks->Expect(var_mismatches == 0,
                 emaf::StrCat(var_mismatches,
                              " VAR forecasts differ from the dot product"));
  std::cout << "verified " << log.replies << " replies (" << log.first.size()
            << " distinct snapshot x window pairs) against the module path\n";
}

struct FamilySamples {
  std::vector<double> all[kNumFamilies];
  std::vector<double> block[kNumFamilies];
  void Add(int family, double ms) {
    all[family].push_back(ms);
    block[family].push_back(ms);
  }
  std::map<std::string, double> TakeBlock() {
    std::map<std::string, double> out;
    for (int f = 0; f < kNumGatedFamilies; ++f) {
      if (!block[f].empty()) out[FamilyKey(f)] = Median(block[f]);
      block[f].clear();
    }
    return out;
  }
};

constexpr double kBlockSeconds = 0.5;

Result<WorkloadResult> RunServe(const RunOptions& options,
                                const ServeShape& shape) {
  emaf::common::ThreadPool::SetGlobalNumThreads(kPoolThreads);
  double setup_s = 0.0;
  Result<std::unique_ptr<ServeRig>> made =
      RepeatedSetUp(options, shape, &setup_s);
  if (!made.ok()) return made.status();
  std::unique_ptr<ServeRig> rig = std::move(made).value();
  const Fixture& fixture = rig->fixture;
  emaf::serve::Client& client = *rig->client;
  emaf::serve::ModelStore& store = rig->server->store();
  const int64_t num_tenants = static_cast<int64_t>(fixture.tenants.size());
  const int64_t vars = fixture.tenants[0].config.num_variables;

  // Path table for the read records: initial snapshots first.
  std::vector<std::string> paths;
  std::vector<int32_t> current_path(static_cast<size_t>(num_tenants));
  for (int64_t t = 0; t < num_tenants; ++t) {
    current_path[static_cast<size_t>(t)] = static_cast<int32_t>(paths.size());
    paths.push_back(fixture.tenants[static_cast<size_t>(t)].snapshot_path);
  }
  std::vector<std::vector<uint64_t>> versions(static_cast<size_t>(num_tenants));
  std::vector<int64_t> cursor(static_cast<size_t>(num_tenants), kJournalRows);
  ReplyLog replies;
  int64_t num_reads = 0;
  FamilySamples samples;
  OpTally ops;
  HostReference host;
  int64_t updates = 0;
  double update_s = 0.0;  // phase time spent in updates
  int64_t max_resident = 0;
  const emaf::serve::ModelStore::Stats store_before = store.stats();

  if (options.trace) {
    emaf::obs::Trace::Enable(options.work_dir + "/../trace-" +
                             options.workload + ".json");
  }
  emaf::Rng order_rng = emaf::Rng(options.seed).Fork(shape.churn ? 2 : 1);
  const PhaseCounters phase = BeginPhase();
  const double start = Now();
  const double deadline = start + options.seconds;
  double excluded = 0.0;  // reference-kernel time inside the phase
  double block_start = start;
  int64_t round = 0;

  auto read = [&](int64_t t) {
    const Tenant& tenant = fixture.tenants[static_cast<size_t>(t)];
    ReplyLog::Key key;
    key.tenant = static_cast<int32_t>(t);
    key.window = static_cast<int32_t>(
        order_rng.UniformInt(0, shape.windows_per_tenant - 1));
    key.path = current_path[static_cast<size_t>(t)];
    const Tensor& window = tenant.windows[static_cast<size_t>(key.window)];
    const double t0 = Now();
    Result<Tensor> reply = [&] {
      CallSpan span(options.trace, "client.Forecast/" +
                                       std::string(FamilyKey(tenant.family)));
      return client.Forecast(tenant.id, window);
    }();
    const double ms = (Now() - t0) * 1e3;
    ops.Record(reply.ok() ? Status::Ok() : reply.status());
    if (!reply.ok()) return;
    ++num_reads;
    samples.Add(tenant.family, ms);
    replies.Add(key, reply.value(), vars);
  };

  auto update = [&](int64_t t) {
    const Tenant& tenant = fixture.tenants[static_cast<size_t>(t)];
    std::vector<std::vector<double>> rows;
    for (int64_t r = 0; r < kRowsPerAppend; ++r) {
      rows.push_back(
          ObservationRow(fixture, tenant, cursor[static_cast<size_t>(t)] + r));
    }
    Status status;
    size_t appended_rows = 0;
    std::optional<emaf::online::UpdateOutcome> outcome;
    const double t0 = Now();
    {
      CallSpan span(options.trace, "update/" +
                                       std::string(FamilyKey(tenant.family)));
      for (const std::vector<double>& row : rows) {
        CallSpan append_span(options.trace, "client.Append");
        Result<uint64_t> appended = client.Append(tenant.id, row);
        if (!appended.ok()) {
          status = appended.status();
          break;
        }
        ++appended_rows;
      }
      if (status.ok()) {
        CallSpan pipeline_span(options.trace,
                               "OnlinePipeline::UpdateIndividual");
        Result<emaf::online::UpdateOutcome> updated =
            rig->pipeline->UpdateIndividual(tenant.id);
        if (updated.ok()) {
          outcome = std::move(updated).value();
        } else {
          status = updated.status();
        }
      }
    }
    update_s += Now() - t0;
    ops.Record(status);
    ++updates;
    cursor[static_cast<size_t>(t)] += kRowsPerAppend;
    for (size_t r = 0; r < appended_rows; ++r) {
      rig->journal[static_cast<size_t>(t)].push_back(std::move(rows[r]));
    }
    if (outcome.has_value()) {
      versions[static_cast<size_t>(t)].push_back(outcome->version);
      current_path[static_cast<size_t>(t)] = static_cast<int32_t>(paths.size());
      paths.push_back(outcome->path);
    }
  };

  while (Now() < deadline) {
    // One round.
    std::vector<int64_t> sequence;
    if (shape.churn) {
      // kNumFamilies updates per round, kReadsPerWrite reads before each.
      const int64_t passes = kReadsPerWrite * kNumFamilies / num_tenants;
      for (int64_t pass = 0; pass < passes; ++pass) {
        std::vector<int64_t> perm(static_cast<size_t>(num_tenants));
        for (int64_t t = 0; t < num_tenants; ++t) perm[static_cast<size_t>(t)] = t;
        order_rng.Shuffle(&perm);
        sequence.insert(sequence.end(), perm.begin(), perm.end());
      }
    } else {
      // Families interleaved; each family's individuals in seeded order.
      std::vector<int> families = {0, 1, 2, 3, 4};
      order_rng.Shuffle(&families);
      std::vector<std::vector<int64_t>> people(kNumFamilies);
      for (int f = 0; f < kNumFamilies; ++f) {
        for (int64_t i = 0; i < shape.individuals; ++i) people[f].push_back(i);
        order_rng.Shuffle(&people[f]);
      }
      for (int64_t s = 0; s < shape.individuals; ++s) {
        for (int f : families) {
          sequence.push_back(people[f][static_cast<size_t>(s)] * kNumFamilies + f);
        }
      }
    }
    std::vector<int> write_families = {0, 1, 2, 3, 4};
    if (shape.churn) order_rng.Shuffle(&write_families);
    for (size_t k = 0; k < sequence.size(); ++k) {
      read(sequence[k]);
      if (shape.churn) {
        max_resident = std::max(max_resident, store.stats().resident_models);
        if ((k + 1) % kReadsPerWrite == 0) {
          const int family = write_families[(k / kReadsPerWrite) % kNumFamilies];
          const int64_t individual = round % shape.individuals;
          update(individual * kNumFamilies + family);
          max_resident = std::max(max_resident, store.stats().resident_models);
        }
      }
    }
    ++round;
    if (Now() - block_start >= kBlockSeconds) {
      const double ref_start = Now();
      host.CloseBlock(samples.TakeBlock());
      block_start = Now();
      excluded += block_start - ref_start;
    }
  }
  const double wall = Now() - start - excluded;
  const double peak_rss_mb = PeakRssMb();
  const emaf::serve::ModelStore::Stats store_after = store.stats();

  WorkloadResult result;
  result.ops = ops;
  MetricList phase_metrics;
  AddPhaseMetrics(phase, ops.attempted(), wall, &phase_metrics);
  if (options.trace) {
    emaf::Status flushed = emaf::obs::Trace::Flush();
    if (!flushed.ok()) std::cout << "trace: " << flushed.ToString() << "\n";
    emaf::obs::Trace::Disable();
  }

  // Output checks (after the timed phase).
  Checks checks;
  VerifyReplies(fixture, paths, replies, &checks);
  checks.Expect(store_after.lookups ==
                    store_after.warm_hits + store_after.cold_loads,
                "store lookups == warm_hits + cold_loads");
  checks.Expect(store_after.exhausted == 0, "store exhausted == 0");
  if (shape.churn) {
    checks.Expect(max_resident <= shape.max_resident,
                  emaf::StrCat("resident models ", max_resident,
                               " within budget ", shape.max_resident));
    uint64_t highest = 0;
    bool increasing = true;
    for (const std::vector<uint64_t>& v : versions) {
      for (size_t i = 0; i < v.size(); ++i) {
        if (i > 0 && v[i] <= v[i - 1]) increasing = false;
        highest = std::max(highest, v[i]);
      }
    }
    checks.Expect(increasing, "published versions strictly increase");
    checks.Expect(updates == 0 || highest > 0, "updates published a version");
    Result<emaf::serve::HealthInfo> health = client.Health();
    checks.Expect(health.ok() &&
                      health.value().max_published_version == highest &&
                      store_after.max_published_version == highest,
                  emaf::StrCat("health watermark equals highest version ",
                               highest));
    emaf::online::ObservationLog* log = rig->server->observation_log();
    int64_t tail_mismatches = 0;
    for (int64_t t = 0; t < num_tenants; ++t) {
      const auto& journal = rig->journal[static_cast<size_t>(t)];
      const std::string& id = fixture.tenants[static_cast<size_t>(t)].id;
      Result<Tensor> tail = log->Tail(id, kJournalRows);
      if (!tail.ok() || log->rows(id) != static_cast<int64_t>(journal.size())) {
        ++tail_mismatches;
        continue;
      }
      const std::vector<double> got = tail.value().ToVector();
      std::vector<double> want;
      for (size_t r = journal.size() - kJournalRows; r < journal.size(); ++r) {
        want.insert(want.end(), journal[r].begin(), journal[r].end());
      }
      if (got.size() != want.size() ||
          std::memcmp(got.data(), want.data(), got.size() * sizeof(double)) !=
              0) {
        ++tail_mismatches;
      }
    }
    checks.Expect(tail_mismatches == 0,
                  emaf::StrCat(tail_mismatches,
                               " journals whose tail differs from the rows "
                               "appended"));
  }
  result.correct = checks.ok();
  std::cout << "workload " << options.workload << ": " << round << " rounds, "
            << num_reads << " reads, " << updates << " updates in " << wall
            << " s; " << checks.passed() << " checks passed, "
            << checks.failures() << " failed\n";
  if (shape.churn) {
    std::cout << "updates took " << 100.0 * update_s / wall
              << "% of the phase\n";
  }
  for (int f = 0; f < kNumFamilies; ++f) {
    std::cout << "  " << FamilyKey(f) << ": " << samples.all[f].size()
              << " reads, median " << Median(samples.all[f]) << " ms, tail "
              << TailQuantile(samples.all[f]) << " ms\n";
  }

  std::cout << "host: ref_ms " << host.ref_ms() << ", op_per_ref";
  for (int f = 0; f < kNumGatedFamilies; ++f) {
    std::cout << " " << FamilyKey(f) << " " << host.op_per_ref(FamilyKey(f));
  }
  std::cout << "\n";
  if (!options.trace) {
    result.metrics.Add("setup_s", setup_s, "s");
    result.metrics.Add("ops_per_s", static_cast<double>(ops.completed()) / wall,
                       "ops/s");
    result.metrics.Add("peak_rss_mb", peak_rss_mb, "MB");
    for (int f = 0; f < kNumGatedFamilies; ++f) {
      result.metrics.Add(emaf::StrCat("op_ms.", FamilyKey(f)),
                         Median(samples.all[f]), "ms");
    }
    return result;
  }

  MetricList& m = result.metrics;
  m.Merge(phase_metrics);
  const uint64_t lookups = store_after.lookups - store_before.lookups;
  const uint64_t cold = store_after.cold_loads - store_before.cold_loads;
  const uint64_t warm = store_after.warm_hits - store_before.warm_hits;
  m.Add("serve.store_cold_loads_per_op",
        num_reads > 0 ? static_cast<double>(cold) / num_reads : 0.0, "count");
  m.Add("serve.store_hit_rate",
        lookups > 0 ? static_cast<double>(warm) / lookups : 0.0, "ratio");
  m.Add("serve.store_resident_mb",
        static_cast<double>(store_after.resident_bytes) / (1024.0 * 1024.0),
        "MB");
  m.Add("host.ref_ms", host.ref_ms(), "ms");
  for (int f = 0; f < kNumGatedFamilies; ++f) {
    m.Add(emaf::StrCat("host.op_per_ref.", FamilyKey(f)),
          host.op_per_ref(FamilyKey(f)), "ratio");
    m.Add(emaf::StrCat("tail.p99_ms.", FamilyKey(f)),
          TailQuantile(samples.all[f]), "ms");
  }
  std::cout << "traced e2e:";
  for (int f = 0; f < kNumGatedFamilies; ++f) {
    std::cout << " op_ms." << FamilyKey(f) << "=" << Median(samples.all[f]);
  }
  std::cout << " ops_per_s=" << static_cast<double>(ops.completed()) / wall
            << "\n";
  rig.reset();
  Result<MetricList> probes =
      RunProbes(options, CohortConfig(options.seed, shape.individuals));
  if (!probes.ok()) return probes.status();
  m.Merge(probes.value());
  return result;
}

}  // namespace

emaf::online::OnlinePipelineOptions ChurnPipelineOptions() {
  emaf::online::OnlinePipelineOptions options;
  options.graph.window_rows = kJournalRows;
  options.graph.min_rows = 8;
  options.graph.build.metric = emaf::graph::GraphMetric::kCorrelation;
  options.graph.keep_fraction = kGdt;
  options.train.epochs = kFineTuneEpochs;
  return options;
}

Result<WorkloadResult> RunServeWarm(const RunOptions& options) {
  return RunServe(options, kWarmShape);
}

Result<WorkloadResult> RunServeChurn(const RunOptions& options) {
  return RunServe(options, kChurnShape);
}

}  // namespace emafbench
