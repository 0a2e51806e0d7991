// relaxed-ok: see telemetry/export.hpp — samples_ is a monotonic progress
// counter; everything else is ordered by the watchdog thread's join.
#include "telemetry/export.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>

namespace ffsva::telemetry {

namespace {
/// Doubles formatted compactly; JSON forbids nan/inf, map them to 0.
void append_number(std::string& out, double v) {
  if (!std::isfinite(v)) {
    out += "0";
    return;
  }
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.6g", v);
  out += buf;
}
}  // namespace

std::string metrics_jsonl_row(const MetricsSnapshot& cur,
                              const MetricsSnapshot* prev, double t_sec,
                              double dt_sec, const std::string& label,
                              int node_id) {
  std::string out;
  out.reserve(512);
  out += "{\"t_sec\":";
  append_number(out, t_sec);
  if (node_id >= 0) {
    out += ",\"node_id\":";
    out += std::to_string(node_id);
  }
  if (!label.empty()) {
    out += ",\"label\":\"";
    out += label;  // labels are caller-controlled identifiers, not user text
    out += '"';
  }

  out += ",\"counters\":{";
  for (std::size_t i = 0; i < cur.counters.size(); ++i) {
    if (i) out += ',';
    out += '"';
    out += cur.counters[i].first;
    out += "\":";
    out += std::to_string(cur.counters[i].second);
  }
  out += '}';

  // Rates: per-counter delta over the sampling interval. With a null prev
  // the whole run so far is the interval (first row).
  out += ",\"rates\":{";
  bool first = true;
  for (const auto& [name, value] : cur.counters) {
    const std::uint64_t before = prev ? prev->counter_or(name) : 0;
    if (dt_sec <= 0.0) break;
    if (!first) out += ',';
    first = false;
    out += '"';
    out += name;
    out += "\":";
    append_number(out, static_cast<double>(value - std::min(before, value)) / dt_sec);
  }
  out += '}';

  out += ",\"gauges\":{";
  for (std::size_t i = 0; i < cur.gauges.size(); ++i) {
    if (i) out += ',';
    out += '"';
    out += cur.gauges[i].first;
    out += "\":";
    append_number(out, cur.gauges[i].second);
  }
  out += '}';

  out += ",\"hist\":{";
  for (std::size_t i = 0; i < cur.histograms.size(); ++i) {
    const auto& [name, h] = cur.histograms[i];
    if (i) out += ',';
    out += '"';
    out += name;
    out += "\":{\"count\":";
    out += std::to_string(h.count);
    out += ",\"mean\":";
    append_number(out, h.mean());
    out += ",\"p50\":";
    append_number(out, h.quantile(0.50));
    out += ",\"p99\":";
    append_number(out, h.quantile(0.99));
    out += ",\"max\":";
    append_number(out, h.max);
    out += '}';
  }
  out += "}}";
  return out;
}

void MetricsExporter::start_stream(std::ostream* sink, int interval_ms,
                                   std::string label) {
  stop();
  if (sink == nullptr) return;
  sink_ = sink;
  label_ = std::move(label);
  samples_ = 0;
  have_prev_ = false;
  prev_t_sec_ = 0.0;
  t0_ = std::chrono::steady_clock::now();
  watchdog_.start(std::chrono::milliseconds(std::max(1, interval_ms)),
                  [this] { sample_once(); });
}

void MetricsExporter::sample_once() {
  const double t_sec =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0_)
          .count();
  MetricsSnapshot cur = registry_.snapshot();
  const double dt = t_sec - (have_prev_ ? prev_t_sec_ : 0.0);
  *sink_ << metrics_jsonl_row(cur, have_prev_ ? &prev_ : nullptr, t_sec, dt,
                              label_, node_id_)
         << '\n';
  prev_ = std::move(cur);
  prev_t_sec_ = t_sec;
  have_prev_ = true;
  samples_.fetch_add(1, std::memory_order_relaxed);
}

void MetricsExporter::stop() {
  if (!watchdog_.running()) return;
  watchdog_.stop();
  sample_once();  // the run's closing state always lands in the sink
  sink_->flush();
  sink_ = nullptr;
}

}  // namespace ffsva::telemetry
