// fig7-batch: the eight Table-7 apps (ST4ML-B code, as in
// bench/apps/st4ml_apps.cc) on the 100% NYC, Porto, Air and OSM datasets,
// one Job per app query on a local-executor Session with the cache off and
// the disk index on. Each app runs a pool of seed-drawn queries shaped as in
// bench_e2e; a round runs every app on every pool query once, and the loop
// runs whole rounds until the phase time is spent. Every result is checked
// against the GeoSpark-like reference app on the same query.

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <optional>

#include "apps/apps.h"
#include "harness.h"
#include "st4ml.h"

namespace perfbench {
namespace {

namespace fs = std::filesystem;
using namespace st4ml;

constexpr int kQueriesPerApp = 16;
enum StageIndex { kSelection = 0, kConversion = 1, kExtraction = 2 };
constexpr const char* kStageNames[] = {"selection", "conversion",
                                       "extraction"};

struct Layout {
  std::string dir;
  std::string meta;
};

/// One app query running as its own Job. Stage() times a stage with the
/// benchmark's clock (and span); Run() is the Job's own stage runner, which
/// keeps the library's per-stage record counters.
struct JobRun {
  Job* job;
  std::shared_ptr<ExecutionContext> ctx;
  Tracer* tracer;
  std::string app;
  uint64_t parent;
  uint64_t trace_id;
  bool failed = false;

  template <typename Fn>
  auto Stage(StageIndex stage, Fn&& fn) {
    Timed timed(tracer, span_category::kStage,
                app + "/" + kStageNames[stage], parent, trace_id);
    return fn();
  }

  template <typename Fn, typename... Args>
  auto Run(StageIndex stage, Fn&& fn, Args&&... args) {
    return job->pipeline().Run(kStageNames[stage], std::forward<Fn>(fn),
                               std::forward<Args>(args)...);
  }

  template <typename RecordT>
  Dataset<RecordT> Select(const Layout& layout, const STBox& query) {
    auto selected = Stage(kSelection, [&] {
      SelectorOptions options;
      options.partitioner = std::make_shared<TSTRPartitioner>(4, 4);
      Selector<RecordT> selector(ctx, SelectQuery::FromBox(query), options);
      return Run(kSelection,
                 [&] { return selector.Select(layout.dir, layout.meta); });
    });
    if (!selected.ok()) {
      std::fprintf(stderr, "fig7-batch: %s selection failed: %s\n",
                   app.c_str(), selected.status().ToString().c_str());
      failed = true;
      return Dataset<RecordT>::Parallelize(ctx, {}, 1);
    }
    return *std::move(selected);
  }
};

/// The air-over-road cells, built as bench_common.cc stages them (that
/// helper is internal to it).
std::vector<Polygon> BufferedRoadCells(const RoadNetwork& network,
                                       double buffer_deg, size_t max_cells) {
  std::vector<Polygon> cells;
  for (size_t i = 0; i < network.num_segments() && cells.size() < max_cells;
       i += 2) {  // one direction per physical road
    Mbr box = network.segment(static_cast<int32_t>(i)).shape.ComputeMbr();
    cells.push_back(Polygon::FromMbr(box.Buffered(buffer_deg)));
  }
  return cells;
}

class Fig7Batch : public Workload {
 public:
  explicit Fig7Batch(const Config& config) : config_(config) {}

  void StageInputs() override {
    if (!nyc_.empty()) return;
    nyc_ = GenerateNycEvents(NycEventOptions{});
    porto_ = GeneratePortoTrajectories(PortoTrajOptions{});
    air_ = GenerateAirQuality(AirQualityOptions{});
    osm_ = GenerateOsm(OsmOptions{}).pois;
    sizes_ = {{"nyc_events", nyc_.size()},
              {"porto_trajectories", porto_.size()},
              {"air_events", air_.size()},
              {"osm_pois", osm_.size()}};
  }

  void ReleaseInputs() override {
    nyc_ = {};
    porto_ = {};
    air_ = {};
    osm_ = {};
  }

  void Generate() override {
    StageInputs();
    AirQualityOptions air_gen;
    OsmOptions area_gen;
    area_gen.poi_count = 1;  // only the postal areas matter here
    env_.postal_areas = GenerateOsm(area_gen).postal_areas;
    RoadNetworkOptions road_gen;
    road_gen.extent = air_gen.extent;
    env_.air_network = GenerateRoadNetwork(road_gen);
    env_.road_cells = BufferedRoadCells(*env_.air_network, 0.01, 400);

    // Baseline-only reference layouts: unindexed files the GeoSpark-like
    // apps load. Not part of set-up.
    env_.ctx = ExecutionContext::Create(config_.threads);
    std::string ref = config_.work_dir + "/fig7/reference";
    env_.nyc[2].plain_dir = ref + "/nyc";
    env_.porto[2].plain_dir = ref + "/porto";
    env_.air.plain_dir = ref + "/air";
    env_.osm.plain_dir = ref + "/osm";
    Persist(nyc_, env_.nyc[2].plain_dir);
    Persist(porto_, env_.porto[2].plain_dir);
    Persist(air_, env_.air.plain_dir);
    Persist(osm_, env_.osm.plain_dir);

    NycEventOptions nyc_gen;
    PortoTrajOptions porto_gen;
    OsmOptions osm_gen;
    struct Shape {
      Mbr extent;
      Duration range;
      double side_fraction;
      int64_t span_seconds;
    };
    // bench_e2e's query shapes, app by app.
    const Shape shapes[] = {
        {nyc_gen.extent, nyc_gen.range, 0.6, 60 * 86400},
        {porto_gen.extent, porto_gen.range, 0.6, 60 * 86400},
        {porto_gen.extent, porto_gen.range, 0.6, 60 * 86400},
        {nyc_gen.extent, nyc_gen.range, 0.6, 14 * 86400},
        {porto_gen.extent, porto_gen.range, 0.5, 30 * 86400},
        {porto_gen.extent, porto_gen.range, 0.5, 2 * 86400},
        {air_gen.extent, air_gen.range, 0.8, 7 * 86400},
        {osm_gen.extent, Duration(0, 1), 0.7, 1},
    };
    for (size_t a = 0; a < AppNames().size(); ++a) {
      const Shape& s = shapes[a];
      queries_.push_back(bench::MakeShapedQueries(
          s.extent, s.range, s.side_fraction, s.span_seconds, kQueriesPerApp,
          config_.seed * 16 + a));
    }
    // Transition windows start on the hour and span whole hours, so the
    // raster's hour bins nest inside the window (as the cross-system
    // checksum test does); on unaligned windows the systems bin differently.
    for (STBox& q : queries_[5]) {
      int64_t start = porto_gen.range.start() +
                      (q.time.start() - porto_gen.range.start()) / 3600 * 3600;
      q.time = Duration(start, start + 2 * 86400);
    }
    results_.assign(AppNames().size(),
                    std::vector<std::optional<size_t>>(kQueriesPerApp));
  }

  void Setup() override {
    setup_dir_ = config_.work_dir + "/fig7/setup" + std::to_string(setups_++);

    ToolOptions options;
    options.num_workers = config_.threads;
    options.executor = "local:" + std::to_string(config_.threads);
    options.backend = config_.backend;
    options.has_cache_budget = true;
    options.cache_budget_bytes = 0;  // cache off
    session_ = std::make_unique<Session>(options);
    if (!session_->configure_status().ok()) {
      std::fprintf(stderr, "fig7-batch: %s\n",
                   session_->configure_status().ToString().c_str());
      std::exit(1);
    }
    const auto& ctx = session_->context();
    nyc_layout_ = IngestDataset(ctx, nyc_, "nyc", 6, 8);
    porto_layout_ = IngestDataset(ctx, porto_, "porto", 6, 8);
    air_layout_ = IngestDataset(ctx, air_, "air", 5, 6);
    // POIs carry no time: T-STR degenerates to spatial STR.
    osm_layout_ = IngestDataset(ctx, osm_, "osm", 1, 32);
  }

  PhaseResult Measure(double seconds, Tracer* tracer) override {
    PhaseResult phase;
    counters_ = CounterSum();
    auto start = Clock::now();
    do {
      for (int q = 0; q < kQueriesPerApp; ++q) {
        for (size_t a = 0; a < AppNames().size(); ++a) {
          RunJob(a, q, tracer, &phase);
        }
      }
    } while (MsSince(start) < seconds * 1e3);
    phase.wall_s = MsSince(start) / 1e3;
    jobs_ = phase.ops;
    return phase;
  }

  bool Check() override {
    using RefFn = size_t (*)(const bench::BenchEnv&, int, const STBox&);
    const RefFn refs[] = {bench::AnomalyGeoSpark,   bench::AvgSpeedGeoSpark,
                          bench::StayPointGeoSpark, bench::HourlyFlowGeoSpark,
                          bench::GridSpeedGeoSpark, bench::TransitionGeoSpark,
                          bench::AirOverRoadGeoSpark, bench::PoiCountGeoSpark};
    bool ok = !nondeterministic_;
    if (nondeterministic_) {
      std::fprintf(stderr, "fig7-batch: a repeated query changed its result\n");
    }
    for (size_t a = 0; a < AppNames().size(); ++a) {
      size_t sum = 0;
      for (int q = 0; q < kQueriesPerApp; ++q) {
        if (!results_[a][q].has_value()) {
          std::fprintf(stderr, "fig7-batch: %s query %d never completed\n",
                       AppNames()[a].c_str(), q);
          ok = false;
          continue;
        }
        size_t want = refs[a](env_, 2, queries_[a][q]);
        if (*results_[a][q] != want) {
          std::fprintf(stderr,
                       "fig7-batch: %s query %d: st4ml %zu vs GeoSpark-like "
                       "%zu\n",
                       AppNames()[a].c_str(), q, *results_[a][q], want);
          ok = false;
        }
        sum += *results_[a][q];
      }
      sums_[AppNames()[a]] = sum;
      // A check over all-zero results proves nothing.
      if (sum == 0) {
        std::fprintf(stderr, "fig7-batch: %s returned 0 on every query\n",
                     AppNames()[a].c_str());
        ok = false;
      }
    }
    return ok;
  }

  void LayerMetrics(const SpanTable& spans, MetricSet* out) override {
    for (const std::string& app : AppNames()) {
      out->Set(app + ".job_ms", Median(spans.Durations(app + "/job")), "ms");
      for (const char* stage : kStageNames) {
        out->Set(app + "." + stage + "_ms",
                 Median(spans.Durations(app + "/" + stage)), "ms");
      }
      out->Set(app + ".job_overhead_ms",
               Median(spans.SelfTimes(app + "/job")), "ms");
    }
    ReportCounterLayers(counters_, jobs_, out);
  }

  void Teardown() override {
    session_.reset();
    if (!setup_dir_.empty()) fs::remove_all(setup_dir_);
  }

  double TailPercentile() const override { return 95; }

  std::map<std::string, std::string> Labels() const override {
    std::map<std::string, std::string> labels = {
        {"executor", "local:" + std::to_string(config_.threads)},
        {"cache", "off"},
        {"disk_index", "on"},
        {"queries_per_app", std::to_string(kQueriesPerApp)},
    };
    for (const auto& [dataset, size] : sizes_) {
      labels[dataset] = std::to_string(size);
    }
    for (const auto& [app, sum] : sums_) {
      labels["result_sum." + app] = std::to_string(sum);
    }
    return labels;
  }

 private:
  template <typename RecordT>
  void Persist(const std::vector<RecordT>& records, const std::string& dir) {
    auto data = Dataset<RecordT>::Parallelize(env_.ctx, records, 16);
    Status status = PersistDataset(data, dir);
    if (!status.ok()) {
      std::fprintf(stderr, "fig7-batch: %s\n", status.ToString().c_str());
      std::exit(1);
    }
  }

  /// Ingest + index build of one dataset (the timed part of set-up).
  template <typename RecordT>
  Layout IngestDataset(const std::shared_ptr<ExecutionContext>& ctx,
                       const std::vector<RecordT>& records,
                       const std::string& name, int tstr_gt, int tstr_gs) {
    Layout layout{setup_dir_ + "/" + name, setup_dir_ + "/" + name + ".meta"};
    auto data = Dataset<RecordT>::Parallelize(ctx, records, 16);
    TSTRPartitioner partitioner(tstr_gt, tstr_gs);
    Status status =
        BuildOnDiskIndex(data, &partitioner, layout.dir, layout.meta);
    if (!status.ok()) {
      std::fprintf(stderr, "fig7-batch: %s\n", status.ToString().c_str());
      std::exit(1);
    }
    return layout;
  }

  std::optional<size_t> RunApp(size_t app, JobRun& r, const STBox& q) {
    switch (app) {
      case 0: {  // anomaly
        auto selected = r.Select<EventRecord>(nyc_layout_, q);
        auto events = r.Stage(kConversion, [&] {
          return r.Run(kConversion, ParseEvents, selected);
        });
        return r.Stage(kExtraction, [&] {
          auto anomalies = r.Run(
              kExtraction,
              [](const Dataset<STEvent>& e) { return ExtractAnomalies(e, 23, 4); },
              events);
          return anomalies.Count();
        });
      }
      case 1: {  // average speed
        auto selected = r.Select<TrajRecord>(porto_layout_, q);
        auto trajs = r.Stage(kConversion, [&] {
          return r.Run(kConversion, ParseTrajs, selected);
        });
        return r.Stage(kExtraction, [&] {
          auto speeds = r.Run(
              kExtraction,
              [](const Dataset<STTrajectory>& t) {
                return ExtractTrajSpeeds(t, SpeedUnit::kKilometersPerHour);
              },
              trajs);
          size_t moving = 0;
          for (const auto& [id, kmh] : speeds.Collect()) {
            if (kmh > 1.0) ++moving;
          }
          return moving;
        });
      }
      case 2: {  // stay point
        auto selected = r.Select<TrajRecord>(porto_layout_, q);
        auto trajs = r.Stage(kConversion, [&] {
          return r.Run(kConversion, ParseTrajs, selected);
        });
        return r.Stage(kExtraction, [&] {
          auto stays = r.Run(
              kExtraction,
              [](const Dataset<STTrajectory>& t) {
                return ExtractStayPoints(t, 200.0, 600);
              },
              trajs);
          size_t total = 0;
          for (const auto& [id, points] : stays.Collect()) {
            total += points.size();
          }
          return total;
        });
      }
      case 3: {  // hourly flow
        auto selected = r.Select<EventRecord>(nyc_layout_, q);
        auto series = r.Stage(kConversion, [&] {
          return r.Run(
              kConversion,
              [&](const Dataset<EventRecord>& raw) {
                auto structure = std::make_shared<const TemporalStructure>(
                    TemporalStructure::RegularByInterval(q.time, 3600));
                Event2TsConverter<STEvent> converter(structure);
                return converter.Convert(ParseEvents(raw));
              },
              selected);
        });
        return r.Stage(kExtraction, [&] {
          TimeSeries<int64_t> flow = r.Run(
              kExtraction,
              [](const auto& converted) { return ExtractTsFlow(converted); },
              series);
          size_t total = 0;
          for (size_t i = 0; i < flow.size(); ++i) total += flow.value(i);
          return total;
        });
      }
      case 4: {  // grid speed
        auto selected = r.Select<TrajRecord>(porto_layout_, q);
        auto maps = r.Stage(kConversion, [&] {
          return r.Run(
              kConversion,
              [&](const Dataset<TrajRecord>& raw) {
                auto structure = std::make_shared<const SpatialStructure>(
                    SpatialStructure::Grid(q.mbr, 48, 48));
                Traj2SmConverter<STTrajectory> converter(structure);
                return converter.Convert(ParseTrajs(raw));
              },
              selected);
        });
        return r.Stage(kExtraction, [&] {
          SpatialMap<double> speed = r.Run(
              kExtraction,
              [](const auto& converted) {
                return ExtractSmSpeed(converted, SpeedUnit::kKilometersPerHour);
              },
              maps);
          size_t occupied = 0;
          for (size_t i = 0; i < speed.size(); ++i) {
            if (speed.value(i) > 0) ++occupied;
          }
          return occupied;
        });
      }
      case 5: {  // transition
        auto selected = r.Select<TrajRecord>(porto_layout_, q);
        auto rasters = r.Stage(kConversion, [&] {
          return r.Run(
              kConversion,
              [&](const Dataset<TrajRecord>& raw) {
                auto structure = std::make_shared<const RasterStructure>(
                    RasterStructure::Regular(
                        q.mbr, 16, 16, q.time,
                        std::max(1, static_cast<int>(q.time.Seconds() / 3600))));
                Traj2RasterConverter<STTrajectory> converter(structure);
                return converter.Convert(ParseTrajs(raw));
              },
              selected);
        });
        return r.Stage(kExtraction, [&] {
          auto transit = r.Run(
              kExtraction,
              [](const auto& converted) { return ExtractRasterTransit(converted); },
              rasters);
          size_t total = 0;
          for (size_t i = 0; i < transit.size(); ++i) {
            total += transit.value(i).first + transit.value(i).second;
          }
          return total;
        });
      }
      case 6: {  // air over road
        auto selected = r.Select<EventRecord>(air_layout_, q);
        auto rasters = r.Stage(kConversion, [&] {
          return r.Run(
              kConversion,
              [&](const Dataset<EventRecord>& raw) {
                auto structure = std::make_shared<const RasterStructure>(
                    RasterStructure::CrossProduct(
                        env_.road_cells, TemporalSliding(q.time, 86400)));
                Event2RasterConverter<STEvent> converter(structure);
                auto pre = [](const STEvent& e) {
                  return std::atof(e.data.attr.c_str());
                };
                auto agg = [](const std::vector<double>& values) {
                  MeanAcc acc;
                  for (double v : values) acc.Add(v);
                  return acc;
                };
                return converter.Convert(ParseEvents(raw), pre, agg);
              },
              selected);
        });
        return r.Stage(kExtraction, [&] {
          Raster<MeanAcc> merged = r.Run(
              kExtraction,
              [](const auto& converted) {
                return CollectAndMerge(
                    converted, MeanAcc{},
                    [](MeanAcc a, const MeanAcc& b) { return a + b; });
              },
              rasters);
          size_t covered = 0;
          for (size_t i = 0; i < merged.size(); ++i) {
            if (merged.value(i).count > 0) ++covered;
          }
          return covered;
        });
      }
      default: {  // POI count
        STBox poi_query(q.mbr, Duration(0));  // POIs carry no time
        auto selected = r.Select<EventRecord>(osm_layout_, poi_query);
        auto maps = r.Stage(kConversion, [&] {
          return r.Run(
              kConversion,
              [&](const Dataset<EventRecord>& raw) {
                auto structure = std::make_shared<const SpatialStructure>(
                    SpatialStructure::Irregular(env_.postal_areas));
                Event2SmConverter<STEvent> converter(structure);
                return converter.Convert(ParseEvents(raw));
              },
              selected);
        });
        return r.Stage(kExtraction, [&] {
          SpatialMap<int64_t> counts = r.Run(
              kExtraction,
              [](const auto& converted) { return ExtractSmFlow(converted); },
              maps);
          size_t total = 0;
          for (size_t i = 0; i < counts.size(); ++i) total += counts.value(i);
          return total;
        });
      }
    }
  }

  void RunJob(size_t app, int q, Tracer* tracer, PhaseResult* phase) {
    const std::string& name = AppNames()[app];
    uint64_t trace_id = ++next_trace_id_;
    Timed timed(tracer, span_category::kJob, name + "/job", 0, trace_id);
    timed.Arg("query", static_cast<uint64_t>(q));
    Job job = session_->StartJob("fig7/" + name);
    JobRun run{&job, session_->context(), tracer, name, timed.id(), trace_id};
    std::optional<size_t> result = RunApp(app, run, queries_[app][q]);
    job.Finish();
    double ms = timed.StopMs();

    ++phase->attempted;
    if (run.failed || !job.ok() || !result.has_value()) {
      ++phase->failed;
      return;
    }
    MetricsSnapshot m = job.Metrics();
    counters_.Add(m);
    phase->op_ms.push_back(ms);
    ++phase->ops;
    phase->records += m[Counter::kSelectionRecordsOut];
    std::optional<size_t>& kept = results_[app][q];
    if (kept.has_value() && *kept != *result) nondeterministic_ = true;
    kept = result;
  }

  const Config config_;
  std::vector<EventRecord> nyc_;
  std::vector<TrajRecord> porto_;
  std::vector<EventRecord> air_;
  std::vector<EventRecord> osm_;
  std::map<std::string, size_t> sizes_;  // dataset sizes, kept after release
  // Postal areas and road cells for the apps, plus the GeoSpark-like
  // reference's view of the data.
  bench::BenchEnv env_;

  std::vector<std::vector<STBox>> queries_;  // [app][query]
  std::vector<std::vector<std::optional<size_t>>> results_;
  std::map<std::string, size_t> sums_;
  bool nondeterministic_ = false;

  int setups_ = 0;
  std::string setup_dir_;
  std::unique_ptr<Session> session_;
  Layout nyc_layout_, porto_layout_, air_layout_, osm_layout_;

  uint64_t next_trace_id_ = 0;
  CounterSum counters_;
  uint64_t jobs_ = 0;
};

}  // namespace

std::unique_ptr<Workload> MakeFig7Batch(const Config& config) {
  return std::make_unique<Fig7Batch>(config);
}

}  // namespace perfbench
