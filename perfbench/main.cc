// The repo benchmark program: one workload per invocation.
//
//   st4ml_perfbench --workload <fig7-batch|serve-mix|ingest-mix|shuffle-mp>
//                   --seed <n> --seconds <s> --trace <0|1>
//
// Runs from the root of a checkout (perfbench/run.py builds it and sets the
// working directory). Generates the workload's inputs from the seed, sets it
// up kSetupReps times (the median is setup_s), measures one untraced phase
// for the end-to-end metrics and runs the correctness gates; with --trace 1
// it sets up again and measures a traced phase for the per-layer metrics,
// gated the same way. Every reported name and unit must be one that
// BENCHMARK.json declares. The last stdout line is the result object; the
// line before it records the run's labels.

#include <malloc.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>

#include "accel/kernels.h"
#include "harness.h"
#include "observability/trace_export.h"
#include "server/json.h"
#include "storage/json.h"

extern char** environ;

namespace perfbench {
namespace {

namespace fs = std::filesystem;

constexpr int kSetupReps = 3;
constexpr const char* kScratchRoot = ".bench_build/perfbench-data";
constexpr const char* kTraceRoot = ".bench_build/perfbench-traces";
constexpr const char* kDeclaration = "BENCHMARK.json";

/// Metric name -> unit, as BENCHMARK.json declares them.
using Declared = std::map<std::string, std::string>;

/// Reads the end_to_end and per_layer metric lists of BENCHMARK.json, the
/// one list of what a run reports.
bool LoadDeclared(Declared* end_to_end, Declared* per_layer) {
  std::ifstream in(kDeclaration);
  std::stringstream text;
  text << in.rdbuf();
  auto root = st4ml::server::ParseJson(text.str());
  for (auto [key, out] : {std::pair{"end_to_end", end_to_end},
                          std::pair{"per_layer", per_layer}}) {
    const st4ml::server::JsonValue* list =
        in && root.ok() ? root->Find(key) : nullptr;
    if (list == nullptr || !list->IsArray()) {
      std::fprintf(stderr, "cannot read %s from %s in the working directory\n",
                   key, kDeclaration);
      return false;
    }
    for (const st4ml::server::JsonValue& metric : list->array) {
      (*out)[metric.GetString("name", "")] = metric.GetString("unit", "");
    }
  }
  return true;
}

/// True if `report` uses only declared names with their declared units;
/// with `complete`, it must also hold every declared name.
bool MatchesDeclared(const MetricSet& report, const Declared& declared,
                     bool complete) {
  bool ok = true;
  for (const auto& [name, value_unit] : report.values()) {
    auto it = declared.find(name);
    if (it == declared.end() || it->second != value_unit.second) {
      std::fprintf(stderr, "metric %s [%s] is not declared in %s\n",
                   name.c_str(), value_unit.second.c_str(), kDeclaration);
      ok = false;
    }
  }
  for (const auto& [name, unit] : declared) {
    if (complete && !report.Has(name)) {
      std::fprintf(stderr, "declared metric %s was not reported\n",
                   name.c_str());
      ok = false;
    }
  }
  return ok;
}

int Usage() {
  std::fprintf(stderr,
               "usage: st4ml_perfbench --workload "
               "<fig7-batch|serve-mix|ingest-mix|shuffle-mp> --seed <n> "
               "--seconds <s> --trace <0|1>\n");
  return 2;
}

/// Clears every ST4ML_* knob the caller's environment may carry (backend,
/// executor, cache budget, disk index, fault injection, mp kill scripts,
/// bench scale and data dirs), then pins the ones the library reads at
/// first use. Sessions pin executor, backend and cache budget explicitly.
void PinEnvironment(Config* config) {
  std::vector<std::string> names;
  for (char** entry = environ; *entry != nullptr; ++entry) {
    std::string kv = *entry;
    if (kv.rfind("ST4ML_", 0) == 0) names.push_back(kv.substr(0, kv.find('=')));
  }
  for (const std::string& name : names) unsetenv(name.c_str());
  setenv("ST4ML_DISK_INDEX", "on", 1);
  // The widest kernel backend this CPU supports, forced on every Session.
  config->backend = st4ml::accel::BackendRegistry::Instance().active_name();
  setenv("ST4ML_BACKEND", config->backend.c_str(), 1);
}

std::string Num(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

void EndToEnd(const PhaseResult& phase, double tail_percentile,
              MetricSet* out) {
  out->Set("latency_p50_ms", Median(phase.op_ms), "ms");
  out->Set("latency_tail_ms", Percentile(phase.op_ms, tail_percentile), "ms");
  out->Set("ops_per_s", static_cast<double>(phase.ops) / phase.wall_s, "1/s");
  out->Set("records_per_s", static_cast<double>(phase.records) / phase.wall_s,
           "1/s");
}

int Run(int argc, char** argv) {
  Config config;
  bool have_workload = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    std::string flag = argv[i];
    std::string value = argv[i + 1];
    if (flag == "--workload") {
      config.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      config.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      config.seconds = std::atof(value.c_str());
    } else if (flag == "--trace") {
      config.trace = value == "1";
    } else {
      return Usage();
    }
  }
  if (!have_workload || argc % 2 == 0 || config.seconds <= 0) return Usage();
  Declared declared_e2e, declared_layers;
  if (!LoadDeclared(&declared_e2e, &declared_layers)) return 2;

  PinEnvironment(&config);
  config.hardware_threads = std::thread::hardware_concurrency();
  config.threads = static_cast<int>(
      std::min(8u, std::max(1u, config.hardware_threads)));
  config.work_dir = std::string(kScratchRoot) + "/" + config.workload + "-" +
                    std::to_string(::getpid());

  std::unique_ptr<Workload> workload;
  if (config.workload == "fig7-batch") {
    workload = MakeFig7Batch(config);
  } else if (config.workload == "serve-mix") {
    workload = MakeServeMix(config);
  } else if (config.workload == "ingest-mix") {
    workload = MakeIngestMix(config);
  } else if (config.workload == "shuffle-mp") {
    workload = MakeShuffleMp(config);
  } else {
    return Usage();
  }
  fs::remove_all(config.work_dir);
  fs::create_directories(config.work_dir);
  // Any library scratch file (a cache spill) lands inside the checkout too.
  setenv("TMPDIR", fs::absolute(config.work_dir).c_str(), 1);

  workload->Generate();
  // Each set-up starts from a torn-down state with its inputs in memory and
  // no earlier writes pending; all of that stays outside the clock.
  auto set_up = [&] {
    workload->Teardown();
    workload->StageInputs();
    ::sync();
    auto start = Clock::now();
    workload->Setup();
    return MsSince(start) / 1e3;
  };
  std::vector<double> setup_s;
  for (int rep = 0; rep < kSetupReps; ++rep) setup_s.push_back(set_up());
  workload->ReleaseInputs();
  ::malloc_trim(0);  // hand the freed inputs back to the kernel

  // Flush set-up's file writes now, so their writeback does not land in the
  // timed phase.
  ::sync();
  if (!ResetPeakRss()) {
    std::fprintf(stderr, "cannot reset the peak RSS; it covers set-up too\n");
  }
  PhaseResult plain = workload->Measure(config.seconds, nullptr);
  double peak_rss_mb =
      plain.peak_rss_mb > 0 ? plain.peak_rss_mb : PeakRssMb();
  bool correct = workload->Check();
  // The traced phase starts from a fresh set-up too (untimed), so both
  // phases see the same state and their difference is the tracing cost.
  PhaseResult traced;
  st4ml::Tracer tracer;
  if (config.trace) {
    set_up();
    workload->ReleaseInputs();
    ::malloc_trim(0);
    ::sync();
    traced = workload->Measure(config.seconds, &tracer);
    correct = workload->Check() && correct;
  }

  MetricSet e2e;
  e2e.Set("setup_s", Median(setup_s), "s");
  e2e.Set("peak_rss_mb", peak_rss_mb, "MB");
  EndToEnd(plain, workload->TailPercentile(), &e2e);

  MetricSet report;
  std::string trace_path;
  if (config.trace) {
    SpanTable spans(tracer.Spans());
    workload->LayerMetrics(spans, &report);
    report.Set("latency.samples", static_cast<double>(traced.op_ms.size()),
               "count");
    MetricSet traced_e2e;
    EndToEnd(traced, workload->TailPercentile(), &traced_e2e);
    for (const char* name :
         {"latency_p50_ms", "latency_tail_ms", "ops_per_s", "records_per_s"}) {
      double base = e2e.Get(name);
      report.Set(std::string("trace_overhead.") + name,
                 base == 0 ? 0.0 : (traced_e2e.Get(name) - base) / base * 100,
                 "%");
    }
    fs::create_directories(kTraceRoot);
    trace_path = std::string(kTraceRoot) + "/" + config.workload + "-seed" +
                 std::to_string(config.seed) + ".json";
    st4ml::Status written = st4ml::WriteChromeTrace(tracer, trace_path);
    if (!written.ok()) {
      std::fprintf(stderr, "%s\n", written.ToString().c_str());
      trace_path.clear();
    }
    // Layers this workload does not exercise read 0.
    bool declared = MatchesDeclared(report, declared_layers, false);
    for (const auto& [name, unit] : declared_layers) {
      if (!report.Has(name)) report.Set(name, 0, unit);
    }
    correct = declared && correct;
  } else {
    report = e2e;
    correct = MatchesDeclared(report, declared_e2e, true) && correct;
  }
  workload->Teardown();
  fs::remove_all(config.work_dir);

  // Labels: what this result was measured on and with.
  st4ml::JsonObject labels;
  labels.Add("workload", config.workload)
      .Add("seed", static_cast<uint64_t>(config.seed))
      .Add("seconds", config.seconds)
      .Add("trace", config.trace)
      .Add("hardware_threads", static_cast<uint64_t>(config.hardware_threads))
      .Add("threads", config.threads)
      .Add("backend", config.backend)
      .Add("samples", static_cast<uint64_t>(plain.op_ms.size()))
      .Add("tail_percentile", workload->TailPercentile())
      .Add("setup_reps", kSetupReps);
  for (const auto& [key, value] : workload->Labels()) labels.Add(key, value);
  if (!trace_path.empty()) labels.Add("trace_file", trace_path);
  std::printf("{\"labels\":%s}\n", labels.Str().c_str());

  std::string metrics;
  for (const auto& [name, value_unit] : report.values()) {
    if (!metrics.empty()) metrics += ",";
    metrics += st4ml::JsonQuote(name) + ":{\"value\":" +
               Num(value_unit.first) +
               ",\"unit\":" + st4ml::JsonQuote(value_unit.second) + "}";
  }
  uint64_t attempted = plain.attempted + traced.attempted;
  uint64_t failed = plain.failed + traced.failed;
  std::printf(
      "{\"correct\":%s,\"attempted\":%llu,\"failed\":%llu,\"metrics\":{%s}}\n",
      correct ? "true" : "false", static_cast<unsigned long long>(attempted),
      static_cast<unsigned long long>(failed), metrics.c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Run(argc, argv); }
