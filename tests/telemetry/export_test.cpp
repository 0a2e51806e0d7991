// Metrics export: JSONL row serialization (values, rates, gauges, histogram
// summaries, counter-regression handling) and the sampler (periodic rows,
// final sample on stop, a null sink starting nothing).
#include "telemetry/export.hpp"

#include <gtest/gtest.h>

#include <chrono>
#include <limits>
#include <sstream>
#include <string>
#include <thread>

#include "telemetry/metrics.hpp"

namespace ffsva::telemetry {
namespace {

MetricsSnapshot snap_with(std::uint64_t in, std::uint64_t passed,
                          double queue_depth) {
  MetricsSnapshot s;
  s.counters = {{"stage.in", in}, {"stage.passed", passed}};
  s.gauges = {{"queue.depth", queue_depth}};
  return s;
}

int count_lines(const std::string& text) {
  int n = 0;
  for (char c : text) n += (c == '\n');
  return n;
}

TEST(JsonlRow, CarriesCountersRatesGaugesAndLabel) {
  const MetricsSnapshot prev = snap_with(100, 80, 2.0);
  const MetricsSnapshot cur = snap_with(400, 230, 5.0);
  const std::string row = metrics_jsonl_row(cur, &prev, 10.0, 2.0, "run1");

  EXPECT_EQ(row.find('\n'), std::string::npos);  // single line
  EXPECT_NE(row.find("\"t_sec\":10"), std::string::npos);
  EXPECT_NE(row.find("\"label\":\"run1\""), std::string::npos);
  EXPECT_NE(row.find("\"stage.in\":400"), std::string::npos);
  // rate = (400 - 100) / 2 s = 150/s, (230 - 80) / 2 = 75/s.
  EXPECT_NE(row.find("\"rates\":{\"stage.in\":150,\"stage.passed\":75}"),
            std::string::npos)
      << row;
  EXPECT_NE(row.find("\"queue.depth\":5"), std::string::npos);
}

TEST(JsonlRow, FirstRowRatesSpanTheWholeRun) {
  const MetricsSnapshot cur = snap_with(300, 150, 0.0);
  const std::string row = metrics_jsonl_row(cur, nullptr, 3.0, 3.0, "");
  EXPECT_NE(row.find("\"stage.in\":100"), std::string::npos) << row;  // 300/3s
  EXPECT_EQ(row.find("\"label\""), std::string::npos);  // empty label omitted
}

TEST(JsonlRow, CounterRegressionYieldsZeroRateNotGarbage) {
  // An instance restart resets counters; the rate must clamp to 0, not wrap
  // to a huge unsigned delta.
  const MetricsSnapshot prev = snap_with(1000, 900, 0.0);
  const MetricsSnapshot cur = snap_with(10, 5, 0.0);
  const std::string row = metrics_jsonl_row(cur, &prev, 1.0, 1.0, "");
  EXPECT_NE(row.find("\"rates\":{\"stage.in\":0,\"stage.passed\":0}"),
            std::string::npos)
      << row;
}

TEST(JsonlRow, HistogramSummaryAndNonFiniteGauges) {
  MetricsSnapshot cur;
  AtomicHistogram h;
  for (int i = 1; i <= 100; ++i) h.record(static_cast<double>(i));
  cur.histograms.emplace_back("lat", h.snapshot());
  cur.gauges = {{"bad", std::numeric_limits<double>::quiet_NaN()}};

  const std::string row = metrics_jsonl_row(cur, nullptr, 1.0, 1.0, "");
  EXPECT_NE(row.find("\"lat\":{\"count\":100,\"mean\":50.5"), std::string::npos)
      << row;
  EXPECT_NE(row.find("\"p50\":"), std::string::npos);
  EXPECT_NE(row.find("\"p99\":"), std::string::npos);
  EXPECT_NE(row.find("\"max\":100"), std::string::npos);
  // JSON forbids nan/inf: mapped to 0.
  EXPECT_NE(row.find("\"bad\":0"), std::string::npos) << row;
}

TEST(Exporter, PeriodicSamplingIntoStream) {
  Registry reg;
  Counter& c = reg.counter("events");
  std::ostringstream sink;
  MetricsExporter exporter(reg);
  exporter.start_stream(&sink, /*interval_ms=*/5, "exp");
  EXPECT_TRUE(exporter.running());
  for (int i = 0; i < 50; ++i) {
    c.add(10);
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  exporter.stop();
  EXPECT_FALSE(exporter.running());

  const std::string text = sink.str();
  EXPECT_GE(exporter.samples(), 2u);
  EXPECT_EQ(count_lines(text), static_cast<int>(exporter.samples()));
  // The final (stop) sample sees the quiesced total.
  EXPECT_NE(text.rfind("\"events\":500"), std::string::npos) << text;
  EXPECT_NE(text.find("\"label\":\"exp\""), std::string::npos);
}

TEST(Exporter, StopAlwaysTakesAFinalSample) {
  Registry reg;
  reg.counter("events").add(7);
  std::ostringstream sink;
  MetricsExporter exporter(reg);
  // Interval far longer than the run: the periodic loop never fires.
  exporter.start_stream(&sink, /*interval_ms=*/60000);
  exporter.stop();
  EXPECT_EQ(exporter.samples(), 1u);
  EXPECT_NE(sink.str().find("\"events\":7"), std::string::npos);
}

TEST(Exporter, NullSinkStartsNothing) {
  Registry reg;
  MetricsExporter exporter(reg);
  exporter.start_stream(nullptr, /*interval_ms=*/1);
  EXPECT_FALSE(exporter.running());
  exporter.stop();  // nothing to sample or flush
  EXPECT_EQ(exporter.samples(), 0u);
}

}  // namespace
}  // namespace ffsva::telemetry
