// The two daemon workloads. Both run an in-process server::Server over one
// Session on loopback and drive it with server::Client connections from
// client threads in the same process (closed loop, at most `threads`
// connections). Latency is what the client sees around Client::Call; the
// server's own elapsed_us is read from each response.
//
//  serve-mix   reads against the 100% NYC store with an unbounded cache,
//              filled during set-up.
//  ingest-mix  one connection appends batches while the others run merged
//              selects on the same fresh ingest directory.

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <thread>

#include "bench_common.h"
#include "harness.h"
#include "server/client.h"
#include "server/json.h"
#include "server/server.h"
#include "st4ml.h"

namespace perfbench {
namespace {

namespace fs = std::filesystem;
using namespace st4ml;

constexpr int64_t kDay = 86400;

/// One parsed response.
struct Reply {
  bool ok = false;
  std::string error;
  int64_t count = -1;
  uint64_t server_us = 0;
  size_t bytes = 0;
  server::JsonValue json;
};

Reply Call(server::Client& client, const std::string& request) {
  Reply reply;
  auto raw = client.Call(request);
  if (!raw.ok()) {
    reply.error = raw.status().ToString();
    return reply;
  }
  reply.bytes = raw->size();
  auto parsed = server::ParseJson(*raw);
  if (!parsed.ok()) {
    reply.error = "unparseable response";
    return reply;
  }
  reply.json = std::move(*parsed);
  const server::JsonValue* ok = reply.json.Find("ok");
  // A RESOURCE_EXHAUSTED (or any other error) response counts as failed.
  reply.ok = ok != nullptr && ok->IsBool() && ok->bool_value;
  if (!reply.ok) {
    reply.error = reply.json.GetString("code", "?") + ": " +
                  reply.json.GetString("error", "");
  }
  reply.count = reply.json.GetInt("count", -1);
  reply.server_us = static_cast<uint64_t>(reply.json.GetInt("elapsed_us", 0));
  return reply;
}

std::string BoxFields(const STBox& box) {
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "\"mbr\":[%.17g,%.17g,%.17g,%.17g],\"time\":[%lld,%lld]",
                box.mbr.x_min, box.mbr.y_min, box.mbr.x_max, box.mbr.y_max,
                static_cast<long long>(box.time.start()),
                static_cast<long long>(box.time.end()));
  return buf;
}

/// `count` seed-drawn boxes over the NYC extent and range in bench_e2e's
/// two NYC query shapes, alternating: the anomaly shape (side 0.6 per axis,
/// 60 days) and the hourly-flow shape (side 0.6, 14 days).
std::vector<STBox> NycShapedBoxes(size_t count, uint64_t seed) {
  NycEventOptions gen;
  std::vector<STBox> shapes[2] = {
      bench::MakeShapedQueries(gen.extent, gen.range, 0.6, 60 * kDay,
                               static_cast<int>(count), seed * 2),
      bench::MakeShapedQueries(gen.extent, gen.range, 0.6, 14 * kDay,
                               static_cast<int>(count), seed * 2 + 1)};
  std::vector<STBox> boxes;
  for (size_t i = 0; i < count; ++i) boxes.push_back(shapes[i % 2][i]);
  return boxes;
}

/// Shared daemon plumbing: a Session + Server pair on an ephemeral port.
class DaemonWorkload : public Workload {
 public:
  explicit DaemonWorkload(const Config& config) : config_(config) {}

  void Teardown() override {
    StopDaemon();
    if (!dir_.empty()) fs::remove_all(dir_);
    dir_.clear();
  }

  double TailPercentile() const override { return 95; }

 protected:
  void StartDaemon(int64_t cache_budget_bytes) {
    ToolOptions options;
    options.num_workers = config_.threads;
    options.executor = "local:" + std::to_string(config_.threads);
    options.backend = config_.backend;
    options.has_cache_budget = true;
    options.cache_budget_bytes = cache_budget_bytes;
    session_ = std::make_unique<Session>(options);
    if (!session_->configure_status().ok()) {
      Die(session_->configure_status().ToString());
    }
    server::ServerOptions server_options;
    // Every client is admitted at once: no request waits in, or is shed
    // by, the admission queue.
    server_options.max_inflight = static_cast<size_t>(config_.threads);
    server_options.queue_depth = static_cast<size_t>(config_.threads);
    server_ = std::make_unique<server::Server>(session_.get(), server_options);
    Status started = server_->Start();
    if (!started.ok()) Die(started.ToString());
  }

  void StopDaemon() {
    if (server_ != nullptr) server_->Shutdown();
    server_.reset();
    session_.reset();
  }

  server::Client Connect() {
    auto client = server::Client::Connect(server_->port());
    if (!client.ok()) Die(client.status().ToString());
    return std::move(*client);
  }

  Reply MustCall(server::Client& client, const std::string& request) {
    Reply reply = Call(client, request);
    if (!reply.ok) Die(reply.error);
    return reply;
  }

  [[noreturn]] void Die(const std::string& what) {
    std::fprintf(stderr, "%s: %s\n", config_.workload.c_str(), what.c_str());
    std::exit(1);
  }

  /// Fresh per-setup directory; Teardown removes it.
  std::string NextDir(const std::string& prefix) {
    dir_ = config_.work_dir + "/" + prefix + std::to_string(setups_++);
    fs::create_directories(dir_);
    return dir_;
  }

  const Config config_;
  std::string dir_;
  int setups_ = 0;
  std::unique_ptr<Session> session_;
  std::unique_ptr<server::Server> server_;
  std::atomic<uint64_t> next_trace_id_{0};
  CounterSum counters_;
  uint64_t job_ops_ = 0;
};

// ---------------------------------------------------------------- serve-mix

enum Verb { kSelectCount, kSelectRows, kLookupId, kExtract, kPing, kNumVerbs };
constexpr const char* kVerbNames[] = {"select_count", "select_rows",
                                      "lookup_id", "extract", "ping"};
constexpr int64_t kRowLimit = 1000;
// The request pool holds the mix exactly: per 20 requests, 8 count-only
// selects, 4 row selects, 3 lookup_ids, 3 extracts and 2 pings.
constexpr int kMixPer20[kNumVerbs] = {8, 4, 3, 3, 2};
constexpr size_t kServePool = 200;
// Ids per lookup_id request. No repo client fixes this count.
constexpr int kLookupIds = 16;

struct ServeRequest {
  Verb verb;
  STBox box;
  std::vector<int64_t> ids;
  std::string json;
};

/// What one client saw for one request.
struct ServeSample {
  uint32_t pool_index;
  bool ok;
  int64_t count;
  int64_t rows;
};

class ServeMix : public DaemonWorkload {
 public:
  using DaemonWorkload::DaemonWorkload;

  void Generate() override {
    NycEventOptions gen;
    Rng rng(config_.seed);
    // Blocks of 20 requests, each holding the mix exactly and shuffled
    // within the block, so any stretch of the pool a client walks has
    // (nearly) the stated mix.
    std::vector<Verb> verbs;
    for (size_t block = 0; block < kServePool / 20; ++block) {
      std::vector<Verb> slots;
      for (int v = 0; v < kNumVerbs; ++v) {
        slots.insert(slots.end(), kMixPer20[v], static_cast<Verb>(v));
      }
      for (size_t i = slots.size() - 1; i > 0; --i) {  // seeded shuffle
        std::swap(slots[i], slots[static_cast<size_t>(rng.UniformInt(
                                0, static_cast<int64_t>(i)))]);
      }
      verbs.insert(verbs.end(), slots.begin(), slots.end());
    }
    std::vector<STBox> boxes = NycShapedBoxes(kServePool, config_.seed);
    for (size_t i = 0; i < verbs.size(); ++i) {
      ServeRequest req{verbs[i], boxes[i], {}, {}};
      for (int k = 0; k < kLookupIds; ++k) {
        req.ids.push_back(rng.UniformInt(0, gen.count - 1));
      }
      pool_.push_back(std::move(req));
    }
  }

  void StageInputs() override {
    if (events_.empty()) events_ = GenerateNycEvents(NycEventOptions{});
  }

  void ReleaseInputs() override { events_ = {}; }

  void Setup() override {
    std::string dir = NextDir("serve/setup");
    StartDaemon(/*cache_budget_bytes=*/-1);  // unbounded, the st4mld default
    auto data = Dataset<EventRecord>::Parallelize(session_->context(),
                                                  events_, 16);
    TSTRPartitioner partitioner(6, 8);
    Status staged =
        BuildOnDiskIndex(data, &partitioner, dir, dir + "/index.meta");
    if (!staged.ok()) Die(staged.ToString());
    for (ServeRequest& req : pool_) req.json = RequestJson(req, dir);
    // Cache fill: one count-only select over everything loads every file.
    server::Client client = Connect();
    NycEventOptions gen;
    STBox all(gen.extent.Buffered(1.0),
              Duration(gen.range.start() - kDay, gen.range.end() + kDay));
    MustCall(client, "{\"verb\":\"select\",\"dir\":\"" + dir + "\"," +
                         BoxFields(all) + ",\"limit\":0}");
  }

  PhaseResult Measure(double seconds, Tracer* tracer) override {
    MetricsSnapshot before = session_->Metrics();
    seen_.clear();
    std::vector<std::vector<double>> latencies(config_.threads);
    std::vector<std::vector<ServeSample>> samples(config_.threads);
    std::vector<std::thread> clients;
    std::vector<server::Client> connections;
    for (int c = 0; c < config_.threads; ++c) connections.push_back(Connect());
    auto start = Clock::now();
    auto deadline = start + std::chrono::duration_cast<Clock::duration>(
                                std::chrono::duration<double>(seconds));
    for (int c = 0; c < config_.threads; ++c) {
      clients.emplace_back([&, c] {
        size_t next = static_cast<size_t>(c) * kServePool / config_.threads;
        while (Clock::now() < deadline) {
          uint32_t index = static_cast<uint32_t>(next++ % kServePool);
          const ServeRequest& req = pool_[index];
          Timed timed(tracer, span_category::kJob,
                      std::string("serve/") + kVerbNames[req.verb], 0,
                      ++next_trace_id_);
          Reply reply = Call(connections[c], req.json);
          double ms = timed.ElapsedMs();
          timed.Arg("server_us", reply.server_us);
          timed.Arg("wire_us", static_cast<uint64_t>(std::max(
                                   0.0, ms * 1e3 - reply.server_us)));
          timed.Arg("response_bytes", reply.bytes);
          timed.End();
          latencies[c].push_back(ms);
          int64_t rows = -1;
          if (const server::JsonValue* r = reply.json.Find("rows");
              r != nullptr && r->IsArray()) {
            rows = static_cast<int64_t>(r->array.size());
          }
          samples[c].push_back({index, reply.ok, reply.count, rows});
          if (!reply.ok) {
            std::fprintf(stderr, "serve-mix: %s\n", reply.error.c_str());
          }
        }
      });
    }
    for (std::thread& t : clients) t.join();
    PhaseResult phase;
    phase.wall_s = MsSince(start) / 1e3;

    counters_ = CounterSum();
    MetricsSnapshot after = session_->Metrics();
    for (size_t i = 0; i < kNumCounters; ++i) {
      counters_.values[i] = after.values[i] - before.values[i];
    }
    job_ops_ = 0;
    for (int c = 0; c < config_.threads; ++c) {
      for (size_t i = 0; i < samples[c].size(); ++i) {
        const ServeSample& s = samples[c][i];
        ++phase.attempted;
        if (!s.ok) {
          ++phase.failed;
          continue;
        }
        ++phase.ops;
        phase.op_ms.push_back(latencies[c][i]);
        if (pool_[s.pool_index].verb != kPing) {
          ++job_ops_;
          phase.records += static_cast<uint64_t>(std::max<int64_t>(0, s.count));
        }
        seen_.push_back(s);
      }
    }
    return phase;
  }

  bool Check() override {
    // The same queries through an in-process Selector on its own context.
    auto ctx = ExecutionContext::Create(config_.threads);
    DatasetCache::Options cache;
    cache.budget_bytes = DatasetCache::kUnbounded;
    ctx->ConfigureCache(std::move(cache));
    std::vector<int64_t> expected(kServePool, -2);
    counts_total_ = 0;
    bool ok = true;
    for (const ServeSample& s : seen_) {
      const ServeRequest& req = pool_[s.pool_index];
      if (req.verb == kPing) continue;
      int64_t& want = expected[s.pool_index];
      if (want == -2) {
        SelectQuery query = req.verb == kLookupId
                                ? SelectQuery::FromIds(req.ids)
                                : SelectQuery::FromBox(req.box);
        Selector<EventRecord> selector(ctx, query);
        auto selected = selector.Select(dir_, dir_ + "/index.meta");
        if (!selected.ok()) {
          std::fprintf(stderr, "serve-mix: reference select failed: %s\n",
                       selected.status().ToString().c_str());
          return false;
        }
        want = static_cast<int64_t>(selected->Count());
        counts_total_ += static_cast<uint64_t>(want);
      }
      bool rows_ok = req.verb != kSelectRows ||
                     s.rows == std::min<int64_t>(want, kRowLimit);
      if (s.count != want || !rows_ok) {
        std::fprintf(stderr,
                     "serve-mix: %s request %u: count %lld rows %lld, "
                     "in-process Selector %lld\n",
                     kVerbNames[req.verb], s.pool_index,
                     static_cast<long long>(s.count),
                     static_cast<long long>(s.rows),
                     static_cast<long long>(want));
        ok = false;
      }
    }
    if (counts_total_ == 0) {
      std::fprintf(stderr, "serve-mix: every checked request counted 0\n");
      ok = false;
    }
    return ok;
  }

  void LayerMetrics(const SpanTable& spans, MetricSet* out) override {
    std::vector<double> wire_us;
    std::vector<double> bytes;
    for (const char* verb : kVerbNames) {
      std::string name = std::string("serve/") + verb;
      out->Set(std::string("server.") + verb + ".client_p50_ms",
               Median(spans.Durations(name)), "ms");
      // ping responses carry no elapsed_us, so their server time reads 0.
      out->Set(std::string("server.") + verb + ".server_p50_ms",
               Median(spans.Args(name, "server_us")) / 1e3, "ms");
      for (double v : spans.Args(name, "wire_us")) wire_us.push_back(v);
      for (double v : spans.Args(name, "response_bytes")) bytes.push_back(v);
    }
    out->Set("server.wire_p50_ms", Median(wire_us) / 1e3, "ms");
    out->Set("server.response_bytes_p50", Median(bytes), "B");
    ReportCounterLayers(counters_, job_ops_, out);
  }

  std::map<std::string, std::string> Labels() const override {
    return {{"executor", "local:" + std::to_string(config_.threads)},
            {"cache", "unbounded"},
            {"disk_index", "on"},
            {"clients", std::to_string(config_.threads)},
            {"nyc_events", std::to_string(NycEventOptions{}.count)},
            {"request_pool", std::to_string(kServePool)},
            {"checked_count_sum", std::to_string(counts_total_)}};
  }

 private:
  static std::string RequestJson(const ServeRequest& req,
                                 const std::string& dir) {
    std::string head = "{\"dir\":\"" + dir + "\",";
    switch (req.verb) {
      case kSelectCount:
        return head + "\"verb\":\"select\"," + BoxFields(req.box) +
               ",\"limit\":0}";
      case kSelectRows:
        return head + "\"verb\":\"select\"," + BoxFields(req.box) +
               ",\"limit\":" + std::to_string(kRowLimit) + "}";
      case kLookupId: {
        std::string ids;
        for (int64_t id : req.ids) {
          ids += (ids.empty() ? "" : ",") + std::to_string(id);
        }
        return head + "\"verb\":\"lookup_id\",\"ids\":[" + ids +
               "],\"limit\":0}";
      }
      case kExtract:
        return head + "\"verb\":\"extract\"," + BoxFields(req.box) +
               ",\"interval\":3600}";
      default:
        return "{\"verb\":\"ping\"}";
    }
  }

  std::vector<EventRecord> events_;
  std::vector<ServeRequest> pool_;
  std::vector<ServeSample> seen_;
  uint64_t counts_total_ = 0;
};

// --------------------------------------------------------------- ingest-mix

// st4ml_append's default --batch.
constexpr int kBatchRecords = 512;
// The history backfilled in set-up: 16 bulk appends of seal_records (4096,
// the ingestor default) records each.
constexpr int kPreloadBatches = 16;
constexpr int kPreloadBatchRecords = 4096;
constexpr int kStatusEvery = 8;  // appends between ingest_status polls
constexpr int kReaderBoxes = 48;

class IngestMix : public DaemonWorkload {
 public:
  using DaemonWorkload::DaemonWorkload;

  void Generate() override {
    NycEventOptions gen;
    extent_ = gen.extent;
    cycle_seconds_ = gen.range.Seconds() + 1;
    boxes_ = NycShapedBoxes(kReaderBoxes, config_.seed);
  }

  /// The stream: the 100% NYC dataset in time order, as a live feed
  /// delivers it. Set-up backfills its head; the timed phase appends the
  /// rest and then starts over, shifted in time, if the run outlasts it.
  /// The appender sends it during the timed phase, so it is never released.
  void StageInputs() override {
    if (!stream_.empty()) return;
    stream_ = GenerateNycEvents(NycEventOptions{});
    std::stable_sort(stream_.begin(), stream_.end(),
                     [](const EventRecord& a, const EventRecord& b) {
                       return a.time < b.time;
                     });
  }

  void Setup() override {
    std::string dir = NextDir("ingest/setup");
    dir_ingest_ = dir + "/stream";
    StartDaemon(/*cache_budget_bytes=*/0);  // cache off
    server::Client client = Connect();
    for (int b = 0; b < kPreloadBatches; ++b) {
      MustCall(client, AppendRequest(static_cast<uint64_t>(b) *
                                         kPreloadBatchRecords,
                                     kPreloadBatchRecords));
    }
    MustCall(client, "{\"verb\":\"flush\",\"dir\":\"" + dir_ingest_ + "\"}");
    acked_ = static_cast<uint64_t>(kPreloadBatches) * kPreloadBatchRecords;
    next_record_ = acked_;
    last_counts_.assign(config_.threads, std::vector<int64_t>(kReaderBoxes, -1));
  }

  PhaseResult Measure(double seconds, Tracer* tracer) override {
    MetricsSnapshot before = session_->Metrics();
    int readers = std::max(1, config_.threads - 1);
    std::vector<server::Client> connections;
    for (int c = 0; c <= readers; ++c) connections.push_back(Connect());
    std::vector<std::vector<double>> latencies(readers);
    std::vector<uint64_t> reader_failed(readers, 0);
    std::vector<uint64_t> reader_attempted(readers, 0);
    uint64_t append_attempted = 0, append_failed = 0, appended = 0;
    uint64_t compactions_before = PollStatus(connections[0]).compactions;
    staged_max_ = 0;

    auto start = Clock::now();
    auto deadline = start + std::chrono::duration_cast<Clock::duration>(
                                std::chrono::duration<double>(seconds));
    std::vector<std::thread> threads;
    threads.emplace_back([&] {  // the appender
      server::Client& client = connections[0];
      while (Clock::now() < deadline) {
        std::string batch = AppendRequest(next_record_, kBatchRecords);
        next_record_ += kBatchRecords;
        Timed timed(tracer, span_category::kJob, "ingest/append", 0,
                    ++next_trace_id_);
        Reply reply = Call(client, batch);
        timed.Arg("server_us", reply.server_us);
        timed.End();
        ++append_attempted;
        if (!reply.ok || reply.json.GetInt("appended", 0) != kBatchRecords) {
          ++append_failed;
          std::fprintf(stderr, "ingest-mix: append: %s\n",
                       reply.error.c_str());
          continue;
        }
        appended += kBatchRecords;
        if (++appends_since_status_ % kStatusEvery == 0) {
          ++append_attempted;
          IngestState state = PollStatus(client);
          if (!state.ok) ++append_failed;
          staged_max_ = std::max(staged_max_, state.staged);
        }
      }
    });
    for (int r = 0; r < readers; ++r) {
      threads.emplace_back([&, r] {
        server::Client& client = connections[r + 1];
        size_t next = static_cast<size_t>(r) * kReaderBoxes / readers;
        while (Clock::now() < deadline) {
          int box = static_cast<int>(next++ % kReaderBoxes);
          Timed timed(tracer, span_category::kJob, "ingest/select", 0,
                      ++next_trace_id_);
          Reply reply = Call(client, SelectRequest(boxes_[box]));
          double ms = timed.ElapsedMs();
          timed.Arg("server_us", reply.server_us);
          timed.End();
          ++reader_attempted[r];
          if (!reply.ok) {
            ++reader_failed[r];
            std::fprintf(stderr, "ingest-mix: select: %s\n",
                         reply.error.c_str());
            continue;
          }
          latencies[r].push_back(ms);
          // A reader's count for one box must never go down.
          int64_t& last = last_counts_[r][box];
          if (reply.count < last) {
            std::fprintf(stderr,
                         "ingest-mix: reader %d box %d count fell %lld -> "
                         "%lld\n",
                         r, box, static_cast<long long>(last),
                         static_cast<long long>(reply.count));
            monotonic_.store(false);
          }
          last = reply.count;
        }
      });
    }
    for (std::thread& t : threads) t.join();
    PhaseResult phase;
    phase.wall_s = MsSince(start) / 1e3;
    acked_ += appended;
    compactions_ = PollStatus(connections[0]).compactions - compactions_before;

    MetricsSnapshot after = session_->Metrics();
    counters_ = CounterSum();
    for (size_t i = 0; i < kNumCounters; ++i) {
      counters_.values[i] = after.values[i] - before.values[i];
    }
    phase.attempted = append_attempted;
    phase.failed = append_failed;
    for (int r = 0; r < readers; ++r) {
      phase.attempted += reader_attempted[r];
      phase.failed += reader_failed[r];
      phase.ops += latencies[r].size();
      phase.op_ms.insert(phase.op_ms.end(), latencies[r].begin(),
                         latencies[r].end());
    }
    job_ops_ = phase.ops;
    phase.records = appended;
    return phase;
  }

  bool Check() override {
    bool ok = monotonic_.load();
    server::Client client = Connect();
    int64_t start = NycEventOptions{}.range.start();
    STBox all(extent_.Buffered(1.0),
              Duration(start - 3650 * kDay, start + 36500 * kDay));
    Reply merged = Call(client, SelectRequest(all));
    IngestState state = PollStatus(client);
    if (!merged.ok || !state.ok ||
        merged.count != static_cast<int64_t>(acked_) ||
        state.total != acked_) {
      std::fprintf(stderr,
                   "ingest-mix: merged count %lld, ingest_status total %llu, "
                   "acked %llu\n",
                   static_cast<long long>(merged.count),
                   static_cast<unsigned long long>(state.total),
                   static_cast<unsigned long long>(acked_));
      ok = false;
    }
    return ok;
  }

  void LayerMetrics(const SpanTable& spans, MetricSet* out) override {
    out->Set("ingest.append_client_p50_ms",
             Median(spans.Durations("ingest/append")), "ms");
    out->Set("ingest.append_server_p50_ms",
             Median(spans.Args("ingest/append", "server_us")) / 1e3, "ms");
    out->Set("ingest.staged_records_max", static_cast<double>(staged_max_),
             "count");
    out->Set("ingest.compactions", static_cast<double>(compactions_), "count");
    ReportCounterLayers(counters_, job_ops_, out);
  }

  std::map<std::string, std::string> Labels() const override {
    return {{"executor", "local:" + std::to_string(config_.threads)},
            {"cache", "off"},
            {"compactor", "background"},
            {"appenders", "1"},
            {"readers", std::to_string(std::max(1, config_.threads - 1))},
            {"batch_records", std::to_string(kBatchRecords)},
            {"preloaded_records",
             std::to_string(kPreloadBatches * kPreloadBatchRecords)},
            {"acked_records", std::to_string(acked_)}};
  }

 private:
  struct IngestState {
    bool ok = false;
    uint64_t staged = 0;
    uint64_t compactions = 0;
    uint64_t total = 0;
  };

  IngestState PollStatus(server::Client& client) {
    Reply reply = Call(
        client, "{\"verb\":\"ingest_status\",\"dir\":\"" + dir_ingest_ + "\"}");
    IngestState state;
    state.ok = reply.ok;
    state.staged = static_cast<uint64_t>(reply.json.GetInt("staged", 0));
    state.compactions =
        static_cast<uint64_t>(reply.json.GetInt("compactions", 0));
    state.total = static_cast<uint64_t>(reply.json.GetInt("total", 0));
    return state;
  }

  std::string SelectRequest(const STBox& box) const {
    return "{\"verb\":\"select\",\"dir\":\"" + dir_ingest_ + "\"," +
           BoxFields(box) + ",\"limit\":0}";
  }

  /// An append of `n` stream records from position `first`, built as
  /// st4ml_append builds its requests. Position k is record k % N of the
  /// dataset, shifted by k / N whole dataset ranges in time and ids.
  std::string AppendRequest(uint64_t first, int n) const {
    const uint64_t size = stream_.size();
    std::string records = "[";
    for (uint64_t k = first; k < first + static_cast<uint64_t>(n); ++k) {
      const EventRecord& r = stream_[k % size];
      const int64_t cycle = static_cast<int64_t>(k / size);
      JsonObject row;
      row.Add("id", r.id + cycle * static_cast<int64_t>(size));
      row.Add("x", r.x);
      row.Add("y", r.y);
      row.Add("time", r.time + cycle * cycle_seconds_);
      row.Add("attr", r.attr);
      records += (k == first ? "" : ",") + row.Str();
    }
    JsonObject request;
    request.Add("verb", "append").Add("dir", dir_ingest_);
    request.AddRaw("records", records + "]");
    return request.Str();
  }

  Mbr extent_;
  int64_t cycle_seconds_ = 0;
  std::vector<EventRecord> stream_;
  std::vector<STBox> boxes_;
  std::string dir_ingest_;
  uint64_t next_record_ = 0;  // stream position of the next append
  uint64_t appends_since_status_ = 0;
  uint64_t acked_ = 0;
  std::vector<std::vector<int64_t>> last_counts_;  // [reader][box]
  std::atomic<bool> monotonic_{true};
  uint64_t staged_max_ = 0;
  uint64_t compactions_ = 0;
};

}  // namespace

std::unique_ptr<Workload> MakeServeMix(const Config& config) {
  return std::make_unique<ServeMix>(config);
}

std::unique_ptr<Workload> MakeIngestMix(const Config& config) {
  return std::make_unique<IngestMix>(config);
}

}  // namespace perfbench
