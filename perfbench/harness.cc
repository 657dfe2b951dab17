#include "harness.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <fstream>

namespace perfbench {

using st4ml::Counter;

SpanTable::SpanTable(const std::vector<st4ml::SpanRecord>& spans)
    : spans_(spans) {
  std::map<uint64_t, int64_t> child_us;
  for (const st4ml::SpanRecord& s : spans_) {
    if (s.parent != 0 && s.end_us >= 0) {
      child_us[s.parent] += s.end_us - s.start_us;
    }
  }
  for (const st4ml::SpanRecord& s : spans_) {
    if (s.end_us < 0) continue;
    double ms = (s.end_us - s.start_us) / 1e3;
    durations_[s.name].push_back(ms);
    auto it = child_us.find(s.id);
    self_[s.name].push_back(it == child_us.end() ? ms
                                                 : ms - it->second / 1e3);
    by_name_[s.name].push_back(&s);
  }
}

const std::vector<double>& SpanTable::Durations(const std::string& name) const {
  static const std::vector<double> kEmpty;
  auto it = durations_.find(name);
  return it == durations_.end() ? kEmpty : it->second;
}

const std::vector<double>& SpanTable::SelfTimes(const std::string& name) const {
  static const std::vector<double> kEmpty;
  auto it = self_.find(name);
  return it == self_.end() ? kEmpty : it->second;
}

std::vector<double> SpanTable::Args(const std::string& name,
                                    const std::string& key) const {
  std::vector<double> out;
  auto it = by_name_.find(name);
  if (it == by_name_.end()) return out;
  for (const st4ml::SpanRecord* s : it->second) {
    for (const auto& [k, v] : s->args) {
      if (k == key) out.push_back(static_cast<double>(v));
    }
  }
  return out;
}

double Percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  double rank = p / 100.0 * static_cast<double>(values.size() - 1);
  size_t lo = static_cast<size_t>(std::floor(rank));
  size_t hi = std::min(lo + 1, values.size() - 1);
  double frac = rank - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

void ReportCounterLayers(const CounterSum& c, uint64_t ops, MetricSet* out) {
  double n = ops == 0 ? 1.0 : static_cast<double>(ops);
  auto per_op = [&](const char* name, Counter counter) {
    out->Set(name, static_cast<double>(c[counter]) / n, "count/op");
  };
  per_op("selection.records_out", Counter::kSelectionRecordsOut);
  per_op("selection.partitions_pruned", Counter::kPartitionsPruned);
  per_op("selection.partitions_scanned", Counter::kPartitionsScanned);
  per_op("selection.plan_mmap", Counter::kPlannerMmapIndex);
  per_op("selection.plan_cached", Counter::kPlannerCachedIndex);
  per_op("selection.plan_scan", Counter::kPlannerLinearScan);
  per_op("index.pages_read", Counter::kIndexPagesRead);
  per_op("conversion.records_in", Counter::kConversionRecordsIn);
  per_op("conversion.records_out", Counter::kConversionRecordsOut);
  per_op("extraction.records_out", Counter::kExtractionRecordsOut);
  per_op("engine.parallel_jobs", Counter::kParallelJobs);
  per_op("engine.tasks_failed", Counter::kTasksFailed);
  per_op("engine.tasks_retried", Counter::kTasksRetried);
  per_op("engine.cache_evictions", Counter::kCacheEvictions);
  // The merged-read plan's WAL tier: one figure under both names.
  double wal = static_cast<double>(c[Counter::kWalSegmentsScanned]) / n;
  out->Set("selection.plan_wal", wal, "count/op");
  out->Set("ingest.wal_segments_scanned", wal, "count/op");
  out->Set("storage.stpq_bytes_read",
           static_cast<double>(c[Counter::kStpqBytesRead]) / n, "B/op");
  out->Set("engine.shuffle_bytes",
           static_cast<double>(c[Counter::kShuffleBytes]) / n, "B/op");
  uint64_t read = c[Counter::kStpqBytesRead];
  out->Set("selection.bytes_selected_ratio",
           read == 0 ? 0.0
                     : static_cast<double>(c[Counter::kSelectionBytesSelected]) /
                           static_cast<double>(read),
           "ratio");
  uint64_t lookups = c[Counter::kCacheHits] + c[Counter::kCacheMisses];
  out->Set("engine.cache_hit_ratio",
           lookups == 0 ? 0.0
                        : static_cast<double>(c[Counter::kCacheHits]) /
                              static_cast<double>(lookups),
           "ratio");
}

bool ResetPeakRss() {
  std::ofstream clear_refs("/proc/self/clear_refs");
  clear_refs << "5";  // 5: reset the peak RSS
  clear_refs.flush();
  return static_cast<bool>(clear_refs);
}

double PeakRssMb() {
  uint64_t self_kb = 0;
  std::ifstream status("/proc/self/status");
  for (std::string line; std::getline(status, line);) {
    if (line.rfind("VmHWM:", 0) == 0) {
      self_kb = std::strtoull(line.c_str() + 6, nullptr, 10);
    }
  }
  rusage children{};
  getrusage(RUSAGE_CHILDREN, &children);  // ru_maxrss is KiB
  uint64_t child_kb = static_cast<uint64_t>(children.ru_maxrss);
  return static_cast<double>(std::max(self_kb, child_kb)) / 1024.0;
}

const std::vector<std::string>& AppNames() {
  static const std::vector<std::string> kApps = {
      "anomaly",    "avg_speed",  "stay_point",    "hourly_flow",
      "grid_speed", "transition", "air_over_road", "poi_count"};
  return kApps;
}

}  // namespace perfbench
