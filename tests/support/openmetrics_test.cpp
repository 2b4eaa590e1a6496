#include "support/telemetry/export.hpp"

#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "support/json.hpp"
#include "support/table.hpp"
#include "support/telemetry/telemetry.hpp"

namespace muerp::support::telemetry {
namespace {

/// Splits an exposition page into lines (no trailing newline per line).
std::vector<std::string> lines_of(const std::string& text) {
  std::vector<std::string> lines;
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) lines.push_back(line);
  return lines;
}

TEST(HistogramQuantile, EmptyIsZero) {
  const HistogramData h;
  EXPECT_DOUBLE_EQ(h.quantile(0.5), 0.0);
}

TEST(HistogramQuantile, InterpolatesInsideOneBucket) {
  // All 100 observations land in the bucket covering (64, 128].
  HistogramData h;
  const std::size_t bucket = histogram_bucket_index(100.0);
  ASSERT_GT(bucket, 0u);
  h.count = 100;
  h.buckets[bucket] = 100;
  const double lo = histogram_bucket_upper_bound(bucket - 1);
  const double hi = histogram_bucket_upper_bound(bucket);
  EXPECT_DOUBLE_EQ(lo, 64.0);
  EXPECT_DOUBLE_EQ(hi, 128.0);
  EXPECT_NEAR(h.quantile(0.5), lo + 0.5 * (hi - lo), 1e-9);
  EXPECT_GE(h.quantile(0.0), lo);
  EXPECT_LE(h.quantile(1.0), hi);
}

TEST(HistogramQuantile, MonotoneAcrossBuckets) {
  HistogramData h;
  for (const double v : {0.5, 2.0, 3.0, 10.0, 100.0, 5000.0}) {
    h.buckets[histogram_bucket_index(v)] += 1;
    h.sum += v;
    ++h.count;
  }
  double prev = -1.0;
  for (const double q : {0.0, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 1.0}) {
    const double value = h.quantile(q);
    EXPECT_GE(value, prev) << "q=" << q;
    prev = value;
  }
}

TEST(HistogramQuantile, ClampsProbability) {
  HistogramData h;
  h.count = 10;
  h.buckets[histogram_bucket_index(3.0)] = 10;
  EXPECT_DOUBLE_EQ(h.quantile(-0.5), h.quantile(0.0));
  EXPECT_DOUBLE_EQ(h.quantile(1.5), h.quantile(1.0));
}

TEST(HistogramQuantile, OverflowBucketReportsLowerBound) {
  HistogramData h;
  h.count = 5;
  h.buckets[kHistogramBuckets - 1] = 5;
  EXPECT_DOUBLE_EQ(h.quantile(0.99),
                   histogram_bucket_upper_bound(kHistogramBuckets - 2));
}

TEST(HistogramQuantile, BatchMatchesSingle) {
  HistogramData h;
  for (const double v : {1.0, 2.0, 4.0, 8.0, 16.0}) {
    h.buckets[histogram_bucket_index(v)] += 1;
    ++h.count;
  }
  const std::array<double, 3> probs{0.5, 0.95, 0.99};
  const std::vector<double> batch = quantiles(h, probs);
  ASSERT_EQ(batch.size(), 3u);
  for (std::size_t i = 0; i < probs.size(); ++i) {
    EXPECT_DOUBLE_EQ(batch[i], h.quantile(probs[i]));
  }
}

TEST(HistogramBuckets, ValueFallsUnderItsUpperBound) {
  for (const double v : {0.0, 0.5, 1.0, 1.5, 2.0, 3.0, 1000.0, 1e12}) {
    const std::size_t b = histogram_bucket_index(v);
    EXPECT_LE(v, histogram_bucket_upper_bound(b)) << v;
    if (b > 0) {
      EXPECT_GT(v, histogram_bucket_upper_bound(b - 1)) << v;
    }
  }
}

TEST(OpenMetrics, EmptySnapshotIsStillAValidPage) {
  const std::string text = to_openmetrics(Snapshot{});
  const auto lines = lines_of(text);
  ASSERT_FALSE(lines.empty());
  EXPECT_EQ(lines.back(), "# EOF");
}

#if MUERP_TELEMETRY_ENABLED

/// Value of the unique sample line starting with "<series> " — NaN when the
/// series is absent (so EXPECT_* fails loudly rather than crashing).
double sample_value(const std::string& text, const std::string& series) {
  for (const std::string& line : lines_of(text)) {
    if (line.size() > series.size() && line.compare(0, series.size(), series) == 0 &&
        line[series.size()] == ' ') {
      return std::stod(line.substr(series.size() + 1));
    }
  }
  return std::numeric_limits<double>::quiet_NaN();
}

TEST(OpenMetrics, CounterGaugeRoundTrip) {
  const Counter hits("omtest/hits");
  hits.add(7);
  const Gauge level("omtest/level-pct");  // '-' must sanitize to '_'
  level.set(2.5);
  const std::string text = to_openmetrics(capture_process());

  EXPECT_NE(text.find("# TYPE muerp_omtest_hits_total counter"),
            std::string::npos);
  EXPECT_DOUBLE_EQ(sample_value(text, "muerp_omtest_hits_total"), 7.0);
  EXPECT_NE(text.find("# TYPE muerp_omtest_level_pct gauge"),
            std::string::npos);
  EXPECT_DOUBLE_EQ(sample_value(text, "muerp_omtest_level_pct"), 2.5);
  // Raw instrument names (with '/', '-') never appear.
  EXPECT_EQ(text.find("omtest/hits"), std::string::npos);
  EXPECT_EQ(text.find("level-pct"), std::string::npos);
}

TEST(OpenMetrics, HistogramFamilyIsCumulativeAndQuantiled) {
  const Histogram lat("omtest/lat_ms");
  lat.observe(0.5);
  lat.observe(3.0);
  lat.observe(300.0);
  const std::string text = to_openmetrics(capture_process());

  EXPECT_NE(text.find("# TYPE muerp_omtest_lat_ms histogram"),
            std::string::npos);
  EXPECT_DOUBLE_EQ(sample_value(text, "muerp_omtest_lat_ms_count"), 3.0);
  EXPECT_NEAR(sample_value(text, "muerp_omtest_lat_ms_sum"), 303.5, 1e-9);
  // Bucket series are cumulative and end at +Inf == count.
  std::uint64_t previous = 0;
  bool saw_inf = false;
  for (const std::string& line : lines_of(text)) {
    if (line.rfind("muerp_omtest_lat_ms_bucket{le=", 0) != 0) continue;
    const std::size_t close = line.find("} ");
    ASSERT_NE(close, std::string::npos);
    const auto cumulative =
        static_cast<std::uint64_t>(std::stoull(line.substr(close + 2)));
    EXPECT_GE(cumulative, previous);
    previous = cumulative;
    if (line.find("le=\"+Inf\"") != std::string::npos) {
      saw_inf = true;
      EXPECT_EQ(cumulative, 3u);
    }
  }
  EXPECT_TRUE(saw_inf);
  // Companion quantile gauges carry the interpolated estimates.
  EXPECT_NE(text.find("# TYPE muerp_omtest_lat_ms_quantile gauge"),
            std::string::npos);
  const double p50 = sample_value(text, "muerp_omtest_lat_ms_quantile{q=\"0.5\"}");
  const double p99 = sample_value(text, "muerp_omtest_lat_ms_quantile{q=\"0.99\"}");
  EXPECT_FALSE(std::isnan(p50));
  EXPECT_FALSE(std::isnan(p99));
  EXPECT_LE(p50, p99);
}

TEST(OpenMetrics, SpanLabelValuesAreEscaped) {
  {
    const ScopedSpan span(intern_span("omtest \"quoted\"\\slash\nline"));
  }
  const std::string text = to_openmetrics(capture_process());
  // Backslash, quote and newline must appear escaped per the exposition
  // format inside the span="..." label value.
  EXPECT_NE(
      text.find(
          "muerp_span_calls_total{span=\"omtest \\\"quoted\\\"\\\\slash\\nline\"}"),
      std::string::npos);
  EXPECT_NE(text.find("# TYPE muerp_span_self_seconds gauge"),
            std::string::npos);
}

TEST(OpenMetrics, JsonSnapshotRoundTripsThroughParser) {
  const Counter hits("omtest/json_hits");
  hits.add(3);
  const Histogram lat("omtest/json_lat");
  lat.observe(10.0);
  lat.observe(20.0);
  const Snapshot snapshot = capture_process();
  const auto doc = json::parse(to_json(snapshot));
  ASSERT_TRUE(doc.ok()) << doc.error;
  EXPECT_DOUBLE_EQ(doc.value["counters"]["omtest/json_hits"].number_value,
                   3.0);
  const json::Value& hist = doc.value["histograms"]["omtest/json_lat"];
  ASSERT_TRUE(hist.is_object());
  EXPECT_DOUBLE_EQ(hist["count"].number_value, 2.0);
  EXPECT_DOUBLE_EQ(hist["sum"].number_value, 30.0);
  EXPECT_TRUE(hist["p50"].is_number());
  EXPECT_TRUE(hist["p95"].is_number());
  EXPECT_TRUE(hist["p99"].is_number());
  EXPECT_LE(hist["p50"].number_value, hist["p99"].number_value);
  EXPECT_TRUE(hist["buckets"].is_array());
}

TEST(OpenMetrics, HistogramsTableListsQuantiles) {
  const Histogram lat("omtest/table_lat");
  lat.observe(5.0);
  const std::string csv =
      histograms_table(capture_process()).to_csv();
  EXPECT_NE(csv.find("omtest/table_lat"), std::string::npos);
  EXPECT_NE(csv.find("p50"), std::string::npos);
  EXPECT_NE(csv.find("p99"), std::string::npos);
}

#endif  // MUERP_TELEMETRY_ENABLED

}  // namespace
}  // namespace muerp::support::telemetry
