// shuffle-mp: a cell x hour flow job on the multiprocess executor. Each job
// selects every record of a 1M-event store, keys each record by (64x64 grid
// cell, hour), reduces the counts by key and collects the result. The
// collected output is checksummed outside the timed region and must equal
// the same job on the local executor.

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <functional>

#include "harness.h"
#include "st4ml.h"

namespace perfbench {
namespace {

namespace fs = std::filesystem;
using namespace st4ml;

constexpr int64_t kEvents = 1000000;
constexpr int kGrid = 64;
constexpr int kLocalReps = 3;

using KV = std::pair<int64_t, int64_t>;

uint64_t Fnv1a(uint64_t hash, const void* data, size_t n) {
  const unsigned char* bytes = static_cast<const unsigned char*>(data);
  for (size_t i = 0; i < n; ++i) {
    hash ^= bytes[i];
    hash *= 1099511628211ull;
  }
  return hash;
}

struct FlowResult {
  bool ok = false;
  uint64_t input_records = 0;
  uint64_t checksum = 0;
  double ms = 0;
  MetricsSnapshot metrics;
};

class ShuffleMp : public Workload {
 public:
  explicit ShuffleMp(const Config& config) : config_(config) {}

  void Generate() override {
    NycEventOptions gen;
    extent_ = gen.extent;
    range_ = gen.range;
  }

  void StageInputs() override {
    if (!events_.empty()) return;
    NycEventOptions gen;
    gen.count = kEvents;
    gen.seed = config_.seed;
    events_ = GenerateNycEvents(gen);
  }

  void ReleaseInputs() override { events_ = {}; }

  void Setup() override {
    dir_ = config_.work_dir + "/shuffle/setup" + std::to_string(setups_++);
    {
      // Ingest on a local context, destroyed (threads joined) before the
      // mp session forks anything.
      auto ctx = ExecutionContext::Create(config_.threads);
      auto data = Dataset<EventRecord>::Parallelize(ctx, events_, 16);
      TSTRPartitioner partitioner(6, 8);
      Status staged =
          BuildOnDiskIndex(data, &partitioner, dir_ + "/store", Meta());
      if (!staged.ok()) Die(staged.ToString());
    }
    session_ = NewSession("mp:" + std::to_string(config_.threads));
  }

  PhaseResult Measure(double seconds, Tracer* tracer) override {
    PhaseResult phase;
    counters_ = CounterSum();
    auto start = Clock::now();
    do {
      FlowResult r = RunFlow(*session_, tracer);
      // The first job's peak: the driver's heap then holds no memory that
      // earlier jobs freed, and the only reaped children are its workers.
      if (phase.attempted == 0) phase.peak_rss_mb = PeakRssMb();
      ++phase.attempted;
      if (!r.ok) {
        ++phase.failed;
        continue;
      }
      ++phase.ops;
      phase.op_ms.push_back(r.ms);
      phase.records += r.input_records;
      counters_.Add(r.metrics);
      if (mp_checksum_ != 0 && r.checksum != mp_checksum_) {
        std::fprintf(stderr, "shuffle-mp: output changed between jobs\n");
        nondeterministic_ = true;
      }
      mp_checksum_ = r.checksum;
    } while (MsSince(start) < seconds * 1e3);
    phase.wall_s = MsSince(start) / 1e3;
    jobs_ = phase.ops;
    return phase;
  }

  bool Check() override {
    std::unique_ptr<Session> local =
        NewSession("local:" + std::to_string(config_.threads));
    std::vector<double> local_ms;
    uint64_t local_checksum = 0;
    for (int i = 0; i < kLocalReps; ++i) {
      FlowResult r = RunFlow(*local, nullptr);
      if (!r.ok) {
        std::fprintf(stderr, "shuffle-mp: local reference job failed\n");
        return false;
      }
      local_ms.push_back(r.ms);
      local_checksum = r.checksum;
      local_records_ = r.input_records;
    }
    local_ms_ = Median(local_ms);
    if (nondeterministic_ || local_checksum != mp_checksum_) {
      std::fprintf(stderr,
                   "shuffle-mp: mp checksum %016llx vs local %016llx\n",
                   static_cast<unsigned long long>(mp_checksum_),
                   static_cast<unsigned long long>(local_checksum));
      return false;
    }
    if (local_records_ < static_cast<uint64_t>(kEvents)) {
      std::fprintf(stderr, "shuffle-mp: only %llu records selected\n",
                   static_cast<unsigned long long>(local_records_));
      return false;
    }
    return true;
  }

  void LayerMetrics(const SpanTable& spans, MetricSet* out) override {
    for (const char* stage : {"select", "key", "reduce", "collect"}) {
      out->Set(std::string("mp.") + stage + "_ms",
               Median(spans.Durations(std::string("mp/") + stage)), "ms");
    }
    double jobs = jobs_ == 0 ? 1.0 : static_cast<double>(jobs_);
    out->Set("mp.workers_spawned",
             static_cast<double>(counters_[Counter::kWorkersSpawned]) / jobs,
             "count/op");
    out->Set("mp.workers_lost",
             static_cast<double>(counters_[Counter::kWorkersLost]) / jobs,
             "count/op");
    out->Set("mp.chunks_reclaimed",
             static_cast<double>(counters_[Counter::kChunksReclaimed]) / jobs,
             "count/op");
    double net = static_cast<double>(counters_[Counter::kShuffleNetBytes]);
    out->Set("mp.shuffle_net_bytes", net / jobs, "B/op");
    double records = static_cast<double>(jobs_ * local_records_);
    out->Set("mp.net_bytes_per_record", records == 0 ? 0.0 : net / records,
             "B/record");
    // > 1: the job is slower on mp than on the local thread pool.
    out->Set("mp.local_ratio",
             local_ms_ == 0 ? 0.0 : Median(spans.Durations("mp/job")) / local_ms_,
             "ratio");
    ReportCounterLayers(counters_, jobs_, out);
  }

  void Teardown() override {
    session_.reset();
    if (!dir_.empty()) fs::remove_all(dir_);
  }

  double TailPercentile() const override { return 75; }

  std::map<std::string, std::string> Labels() const override {
    return {{"executor", "mp:" + std::to_string(config_.threads)},
            {"reference_executor", "local:" + std::to_string(config_.threads)},
            {"cache", "off"},
            {"disk_index", "on"},
            {"events", std::to_string(kEvents)},
            {"grid", std::to_string(kGrid) + "x" + std::to_string(kGrid)},
            {"local_job_ms", std::to_string(local_ms_)}};
  }

 private:
  std::string Meta() const { return dir_ + "/store.meta"; }

  [[noreturn]] void Die(const std::string& what) {
    std::fprintf(stderr, "shuffle-mp: %s\n", what.c_str());
    std::exit(1);
  }

  std::unique_ptr<Session> NewSession(const std::string& executor) {
    ToolOptions options;
    options.num_workers = config_.threads;
    options.executor = executor;
    options.backend = config_.backend;
    options.has_cache_budget = true;
    options.cache_budget_bytes = 0;  // cache off
    auto session = std::make_unique<Session>(options);
    if (!session->configure_status().ok()) {
      Die(session->configure_status().ToString());
    }
    return session;
  }

  /// One Select -> key -> ReduceByKey -> Collect job, timed end to end.
  FlowResult RunFlow(Session& session, Tracer* tracer) {
    FlowResult result;
    uint64_t trace_id = ++next_trace_id_;
    Timed timed(tracer, span_category::kJob, "mp/job", 0, trace_id);
    Job job = session.StartJob("shuffle/cell_hour");
    auto stage = [&](const char* name) {
      return Timed(tracer, span_category::kStage, std::string("mp/") + name,
                   timed.id(), trace_id);
    };

    Timed select_span = stage("select");
    Selector<EventRecord> selector(
        session.context(), SelectQuery::FromBox(SelectQuery::EverythingBox()));
    auto selected = job.pipeline().Run(
        "selection", [&] { return selector.Select(dir_ + "/store", Meta()); });
    select_span.End();
    if (!selected.ok()) {
      std::fprintf(stderr, "shuffle-mp: %s\n",
                   selected.status().ToString().c_str());
      return result;
    }

    Timed key_span = stage("key");
    const Mbr extent = extent_;
    const int64_t t0 = range_.start();
    auto keyed = job.pipeline().Run(
        "key",
        [&](const Dataset<EventRecord>& records) {
          return records.Map([extent, t0](const EventRecord& r) {
            auto cell = [](double v, double lo, double width) {
              int64_t c = static_cast<int64_t>((v - lo) / width * kGrid);
              return std::min<int64_t>(kGrid - 1, std::max<int64_t>(0, c));
            };
            int64_t cx = cell(r.x, extent.x_min, extent.Width());
            int64_t cy = cell(r.y, extent.y_min, extent.Height());
            int64_t hour = (r.time - t0) / 3600;
            return KV((hour * kGrid + cy) * kGrid + cx, 1);
          });
        },
        *selected);
    key_span.End();

    Timed reduce_span = stage("reduce");
    auto reduced = job.pipeline().Run(
        "reduce",
        [](const Dataset<KV>& pairs) {
          return TryReduceByKey<int64_t, int64_t>(pairs, std::plus<int64_t>());
        },
        keyed);
    reduce_span.End();
    if (!reduced.ok()) {
      std::fprintf(stderr, "shuffle-mp: %s\n",
                   reduced.status().ToString().c_str());
      return result;
    }

    Timed collect_span = stage("collect");
    std::vector<KV> flows = std::move(*reduced).Collect();
    collect_span.End();
    job.Finish();
    result.ms = timed.StopMs();

    result.ok = job.ok();
    result.input_records = static_cast<uint64_t>(selected->Count());
    result.metrics = job.Metrics();
    uint64_t hash = 14695981039346656037ull;  // FNV-1a basis
    for (const KV& kv : flows) {
      hash = Fnv1a(hash, &kv.first, sizeof(kv.first));
      hash = Fnv1a(hash, &kv.second, sizeof(kv.second));
    }
    result.checksum = hash;
    return result;
  }

  const Config config_;
  Mbr extent_;
  Duration range_;
  std::vector<EventRecord> events_;
  int setups_ = 0;
  std::string dir_;
  std::unique_ptr<Session> session_;
  uint64_t next_trace_id_ = 0;
  uint64_t mp_checksum_ = 0;
  bool nondeterministic_ = false;
  CounterSum counters_;
  uint64_t jobs_ = 0;
  uint64_t local_records_ = 0;
  double local_ms_ = 0;
};

}  // namespace

std::unique_ptr<Workload> MakeShuffleMp(const Config& config) {
  return std::make_unique<ShuffleMp>(config);
}

}  // namespace perfbench
