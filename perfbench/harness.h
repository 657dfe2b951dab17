#ifndef ST4ML_PERFBENCH_HARNESS_H_
#define ST4ML_PERFBENCH_HARNESS_H_

// Shared plumbing for the repo benchmark: run configuration, timing, the
// benchmark's own spans, statistics and metric reporting. Every workload
// (fig7.cc, serving.cc, shuffle.cc) implements the Workload interface below
// and main.cc drives it through set-up, measurement and the correctness
// gates.

#include <array>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "observability/counters.h"
#include "observability/tracer.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double MsSince(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

/// What one benchmark invocation was asked to do, plus the settings it
/// pinned. Everything here is recorded in the labels line of the output.
struct Config {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// min(hardware threads, 8): worker threads, client threads and
  /// connections never exceed it.
  int threads = 1;
  unsigned hardware_threads = 0;
  /// Accel kernel backend every Session is forced onto.
  std::string backend;
  /// Scratch directory for staged data, inside the checkout and removed on
  /// exit.
  std::string work_dir;
};

/// Metric name -> (value, unit), in insertion-independent (sorted) order.
class MetricSet {
 public:
  void Set(const std::string& name, double value, const std::string& unit) {
    values_[name] = {value, unit};
  }
  bool Has(const std::string& name) const { return values_.count(name) > 0; }
  double Get(const std::string& name) const { return values_.at(name).first; }
  const std::map<std::string, std::pair<double, std::string>>& values() const {
    return values_;
  }

 private:
  std::map<std::string, std::pair<double, std::string>> values_;
};

/// One measured phase of a workload: the client-observed latency of every
/// unit operation, plus what the phase completed.
struct PhaseResult {
  std::vector<double> op_ms;
  double wall_s = 0;
  uint64_t ops = 0;
  uint64_t records = 0;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  /// Set by a workload that reads its own peak RSS during the phase; 0
  /// means the peak over the whole phase.
  double peak_rss_mb = 0;
};

/// A timed region. Always measures wall time; when `tracer` is non-null it
/// also records a span (tagged with `trace_id`, parented explicitly so it is
/// safe from any thread). The spans are the benchmark's own — the library's
/// internal spans are never enabled.
class Timed {
 public:
  Timed(st4ml::Tracer* tracer, const char* category, std::string name,
        uint64_t parent, uint64_t trace_id)
      : span_(tracer, category, std::move(name), parent),
        start_(Clock::now()) {
    span_.AddArg("trace_id", trace_id);
  }

  double ElapsedMs() const { return MsSince(start_); }
  /// Ends the span (idempotent); args added afterwards are dropped.
  void End() { span_.End(); }
  /// Ends the span and returns the elapsed milliseconds.
  double StopMs() {
    double ms = ElapsedMs();
    End();
    return ms;
  }

  void Arg(const std::string& key, uint64_t value) { span_.AddArg(key, value); }
  uint64_t id() const { return span_.id(); }

 private:
  st4ml::ScopedSpan span_;
  Clock::time_point start_;
};

/// Span durations (ms) and self times grouped by span name, plus numeric
/// args, computed from a finished tracer.
class SpanTable {
 public:
  explicit SpanTable(const std::vector<st4ml::SpanRecord>& spans);
  // by_name_ points into spans_, so the table stays where it was built.
  SpanTable(const SpanTable&) = delete;
  SpanTable& operator=(const SpanTable&) = delete;

  /// Durations of every span called `name` (empty when none).
  const std::vector<double>& Durations(const std::string& name) const;
  /// Duration minus the time covered by the span's direct children.
  const std::vector<double>& SelfTimes(const std::string& name) const;
  /// Values of arg `key` on spans called `name`.
  std::vector<double> Args(const std::string& name,
                           const std::string& key) const;

 private:
  std::map<std::string, std::vector<double>> durations_;
  std::map<std::string, std::vector<double>> self_;
  std::map<std::string, std::vector<const st4ml::SpanRecord*>> by_name_;
  std::vector<st4ml::SpanRecord> spans_;
};

/// Linear-interpolated percentile (p in [0, 100]); 0 for an empty input.
double Percentile(std::vector<double> values, double p);
inline double Median(std::vector<double> values) {
  return Percentile(std::move(values), 50);
}

/// Counter deltas summed over several jobs or a whole phase.
struct CounterSum {
  std::array<uint64_t, st4ml::kNumCounters> values{};
  void Add(const st4ml::MetricsSnapshot& m) {
    for (size_t i = 0; i < st4ml::kNumCounters; ++i) values[i] += m.values[i];
  }
  uint64_t operator[](st4ml::Counter c) const {
    return values[static_cast<size_t>(c)];
  }
};

/// The selection/storage/engine per-layer metrics every workload reports,
/// as means per operation (`ops` jobs or requests) over the traced phase.
void ReportCounterLayers(const CounterSum& counters, uint64_t ops,
                         MetricSet* out);

/// Restarts this process's resident-set high-water mark (Linux
/// clear_refs), so PeakRssMb() covers only what runs after the call.
/// Returns false if the kernel refused; the mark then spans the whole run.
bool ResetPeakRss();

/// Peak resident set size in MB: the larger of this process's high-water
/// mark since ResetPeakRss() and the largest reaped child's (the forked mp
/// workers).
double PeakRssMb();

class Workload {
 public:
  virtual ~Workload() = default;

  /// Generates the query and request pools from the seed (not timed).
  virtual void Generate() = 0;
  /// Generates the bulk inputs set-up ingests, unless they are held already
  /// (not timed).
  virtual void StageInputs() {}
  /// Frees the bulk inputs once set-up has ingested them, so the measured
  /// phase's memory high-water mark is the program's, not the benchmark's.
  virtual void ReleaseInputs() {}
  /// One full set-up from a torn-down state: ingest + index build, session
  /// or daemon start and any warm-up that counts as set-up. Called several
  /// times; the median is setup_s and the state of the last call is what
  /// gets measured.
  virtual void Setup() = 0;
  /// Runs the closed-loop load for `seconds`. With a tracer, records the
  /// benchmark's spans and keeps the counters for LayerMetrics.
  virtual PhaseResult Measure(double seconds, st4ml::Tracer* tracer) = 0;
  /// Correctness gates, outside every timed region. Returns false and
  /// explains on stderr on any mismatch.
  virtual bool Check() = 0;
  /// Per-layer metrics of the traced phase, under names BENCHMARK.json
  /// declares. main.cc zero-fills the declared names a workload does not
  /// exercise.
  virtual void LayerMetrics(const SpanTable& spans, MetricSet* out) = 0;
  /// Stops servers and sessions and removes the previous set-up's data.
  /// Runs outside the clock before every set-up and at exit; idempotent.
  virtual void Teardown() = 0;
  /// The latency percentile reported as latency_tail_ms: the highest of
  /// p99/p90/p75 that leaves at least ten samples beyond it in a normal run.
  virtual double TailPercentile() const = 0;
  /// Extra labels for the run record (dataset sizes, executor spec, ...).
  virtual std::map<std::string, std::string> Labels() const = 0;
};

std::unique_ptr<Workload> MakeFig7Batch(const Config& config);
std::unique_ptr<Workload> MakeServeMix(const Config& config);
std::unique_ptr<Workload> MakeIngestMix(const Config& config);
std::unique_ptr<Workload> MakeShuffleMp(const Config& config);

/// The eight Table-7 apps, in Fig. 7 order.
const std::vector<std::string>& AppNames();

}  // namespace perfbench

#endif  // ST4ML_PERFBENCH_HARNESS_H_
