#include "serve/report.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>
#include <stdexcept>

namespace autolearn::serve {

const char* to_string(Tier t) {
  switch (t) {
    case Tier::Edge: return "edge";
    case Tier::Cloud: return "cloud";
  }
  return "?";
}

double ServeReport::mean_batch() const {
  if (batch_sizes.empty()) return 0.0;
  std::size_t total = 0;
  for (std::size_t s : batch_sizes) total += s;
  return static_cast<double>(total) / static_cast<double>(batch_sizes.size());
}

std::size_t ServeReport::max_batch() const {
  std::size_t best = 0;
  for (std::size_t s : batch_sizes) best = std::max(best, s);
  return best;
}

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  if (q < 0.0 || q > 1.0) throw std::invalid_argument("quantile: q in [0,1]");
  std::sort(v.begin(), v.end());
  const double idx = q * static_cast<double>(v.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(std::floor(idx));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = idx - static_cast<double>(lo);
  return v[lo] + (v[hi] - v[lo]) * frac;
}

double ServeReport::queued_quantile_s(double q) const {
  std::vector<double> waits;
  waits.reserve(records.size());
  for (const ServeRecord& r : records) {
    if (!r.shed) waits.push_back(r.queued_s());
  }
  return quantile(std::move(waits), q);
}

double ServeReport::total_quantile_s(double q) const {
  std::vector<double> totals;
  totals.reserve(records.size());
  for (const ServeRecord& r : records) totals.push_back(r.total_s());
  return quantile(std::move(totals), q);
}

double ServeReport::mean_abs_steering() const {
  if (records.empty()) return 0.0;
  double total = 0.0;
  for (const ServeRecord& r : records) {
    total += std::abs(r.prediction.steering);
  }
  return total / static_cast<double>(records.size());
}

util::Json ServeReport::to_json() const {
  util::Json out = util::Json::object();
  out.set("requests", requests);
  out.set("completed", completed);
  out.set("shed", shed);
  out.set("denied", denied);
  out.set("batches", batches);
  out.set("cloud_batches", cloud_batches);
  out.set("edge_batches", edge_batches);
  out.set("failover_batches", failover_batches);
  out.set("duration_s", duration_s);
  out.set("throughput_rps", throughput_rps);
  out.set("mean_batch", mean_batch());
  out.set("max_batch", max_batch());
  out.set("shards", shards);
  out.set("shard_downs", shard_downs);
  out.set("shard_ups", shard_ups);
  out.set("rebalanced", rebalanced);
  out.set("initial_shards", initial_shards);
  out.set("final_shards", final_shards);
  out.set("scale_ups", scale_ups);
  out.set("scale_downs", scale_downs);
  util::Json scales = util::Json::array();
  for (const ScaleEvent& e : scale_events) {
    util::Json row = util::Json::object();
    row.set("t", util::Json(e.t));
    row.set("dir", util::Json(std::string(e.up ? "up" : "down")));
    row.set("from", util::Json(e.from_shards));
    row.set("to", util::Json(e.to_shards));
    row.set("moved_cars", util::Json(e.moved_cars));
    row.set("churn_frac", util::Json(e.churn_frac));
    row.set("drained", util::Json(e.drained));
    row.set("reason", util::Json(e.reason));
    scales.push_back(std::move(row));
  }
  out.set("scale_events", std::move(scales));
  // Conservation invariant, spelled out so BENCH consumers can assert
  // "zero failed requests" without re-deriving it.
  out.set("failed", requests - completed - shed);
  util::Json shed_cars = util::Json::array();
  for (std::size_t s : shed_by_car) shed_cars.push_back(util::Json(s));
  out.set("shed_by_car", std::move(shed_cars));
  util::Json failovers = util::Json::array();
  for (std::size_t s : failover_by_shard) failovers.push_back(util::Json(s));
  out.set("failover_by_shard", std::move(failovers));
  util::Json shard_rows = util::Json::array();
  for (const ShardStats& s : shard_stats) {
    util::Json row = util::Json::object();
    row.set("site", util::Json(s.site));
    row.set("requests", util::Json(s.requests));
    row.set("completed", util::Json(s.completed));
    row.set("batches", util::Json(s.batches));
    row.set("shed", util::Json(s.shed));
    row.set("denied", util::Json(s.denied));
    row.set("failed_over", util::Json(s.failed_over));
    row.set("rerouted_in", util::Json(s.rerouted_in));
    row.set("downs", util::Json(s.downs));
    row.set("admitted_at", util::Json(s.admitted_at));
    row.set("retired_at", util::Json(s.retired_at));
    shard_rows.push_back(std::move(row));
  }
  out.set("shard_stats", std::move(shard_rows));
  util::Json sizes = util::Json::array();
  for (std::size_t s : batch_sizes) sizes.push_back(util::Json(s));
  out.set("batch_sizes", std::move(sizes));
  out.set("queued_p50_s", queued_quantile_s(0.50));
  out.set("queued_p99_s", queued_quantile_s(0.99));
  out.set("total_p50_s", total_quantile_s(0.50));
  out.set("total_p99_s", total_quantile_s(0.99));
  out.set("mean_abs_steering", mean_abs_steering());
  util::Json by_version = util::Json::object();
  for (const auto& [version, count] : requests_by_version) {
    by_version.set("v" + std::to_string(version), util::Json(count));
  }
  out.set("requests_by_version", std::move(by_version));
  util::Json deg = util::Json::object();
  deg.set("cloud_usage", degradation.cloud_usage);
  deg.set("failovers", degradation.failovers);
  deg.set("denied_calls", degradation.denied_calls);
  deg.set("degraded_time_s", degradation.degraded_time_s);
  deg.set("recovery_latency_s", degradation.recovery_latency_s);
  out.set("degradation", std::move(deg));
  return out;
}

std::string ServeReport::summary() const {
  std::ostringstream os;
  os << requests << " requests, " << completed << " completed in " << batches
     << " batches (mean " << mean_batch() << ", max " << max_batch() << "), "
     << shed << " shed, " << denied << " denied; " << throughput_rps
     << " req/s, queued p50 " << queued_quantile_s(0.50) << " s, p99 "
     << queued_quantile_s(0.99) << " s";
  if (shards > 1) {
    os << "; " << shards << " shards, " << shard_downs << " down(s), "
       << rebalanced << " rerouted";
  }
  if (!scale_events.empty()) {
    os << "; scaled " << initial_shards << "->" << final_shards << " ("
       << scale_ups << " up, " << scale_downs << " down)";
  }
  return os.str();
}

}  // namespace autolearn::serve
