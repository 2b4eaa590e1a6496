// bench_diff — perf-regression gate over perf_algorithms --compare files.
//
// Compares a freshly generated routing benchmark JSON against the committed
// baseline (BENCH_routing.json) and exits non-zero when the hot path
// regressed. CI runs:
//
//   perf_algorithms --compare BENCH_fresh.json
//   bench_diff --baseline BENCH_routing.json --current BENCH_fresh.json
//
// Machines differ, so the gate never judges absolute milliseconds. It
// checks what is machine-independent:
//
//   * speedup ratios (cached-vs-uncached per algorithm, greedy hot path and
//     total, SPF kernel) must stay within --tolerance of the baseline;
//   * "identical" result flags that were true must stay true;
//   * per-repetition rate arrays must match the baseline bit for bit
//     (--allow-rate-drift downgrades this to a warning for PRs that
//     intentionally change routing results and will re-commit the baseline);
//   * telemetry counters and span call counts (deterministic work counts:
//     Dijkstra runs, heap pops, channel searches) must stay within
//     --tolerance in either direction — quiet workload growth is how perf
//     regressions sneak past ratio checks.
//
// Wall-clock columns (and per-span self/total ms) are printed in the diff
// tables for reading but never gate. Each document's "host" stamp
// (core count, build type, compiler) is printed too, with a warning, never
// a failure, when baseline and current were measured on different hosts.
#include <cmath>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "support/cli.hpp"
#include "support/json.hpp"
#include "support/table.hpp"

namespace {

using muerp::support::json::ParseResult;
using muerp::support::json::Value;

int fail(const std::string& message) {
  std::cerr << "bench_diff: " << message << '\n';
  return 2;
}

bool read_file(const std::string& path, std::string* out) {
  std::ifstream file(path);
  if (!file) return false;
  std::ostringstream buffer;
  buffer << file.rdbuf();
  *out = buffer.str();
  return true;
}

struct Gate {
  int failures = 0;
  double tolerance = 0.15;

  /// Ratio metric (speedup): only a *drop* beyond tolerance fails.
  void check_speedup(const std::string& what, double baseline,
                     double current) {
    if (baseline <= 0.0) return;
    const double floor = baseline * (1.0 - tolerance);
    if (current < floor) {
      ++failures;
      std::cerr << "FAIL " << what << ": speedup " << current << " below "
                << floor << " (baseline " << baseline << " - "
                << tolerance * 100 << "%)\n";
    }
  }

  /// Work-count metric: drift beyond tolerance in either direction fails.
  void check_count(const std::string& what, double baseline, double current) {
    if (baseline == 0.0) {
      if (current != 0.0) {
        ++failures;
        std::cerr << "FAIL " << what << ": baseline 0, current " << current
                  << '\n';
      }
      return;
    }
    const double drift = std::abs(current - baseline) / std::abs(baseline);
    if (drift > tolerance) {
      ++failures;
      std::cerr << "FAIL " << what << ": " << baseline << " -> " << current
                << " (" << drift * 100 << "% drift, tolerance "
                << tolerance * 100 << "%)\n";
    }
  }

  void check_flag(const std::string& what, bool baseline, bool current) {
    if (baseline && !current) {
      ++failures;
      std::cerr << "FAIL " << what << ": was identical, now differs\n";
    }
  }
};

const Value* find_algorithm(const Value& doc, const std::string& name) {
  const Value& algorithms = doc["algorithms"];
  for (const Value& alg : algorithms.elements) {
    if (alg["name"].string_value == name) return &alg;
  }
  return nullptr;
}

const Value* find_span(const Value& spans, const std::string& label) {
  for (const Value& span : spans.elements) {
    if (span["label"].string_value == label) return &span;
  }
  return nullptr;
}

bool rates_identical(const Value& base, const Value& cur) {
  const Value& b = base["rates"];
  const Value& c = cur["rates"];
  if (b.elements.size() != c.elements.size()) return false;
  for (std::size_t i = 0; i < b.elements.size(); ++i) {
    // The emitter round-trips doubles (max_digits10), so string-level
    // equality of re-parsed values is bit-level equality of the rates.
    if (b.elements[i].number_value != c.elements[i].number_value) {
      return false;
    }
  }
  return true;
}

/// A document's "host" stamp on one line ("(no host stamp)" if absent).
std::string host_line(const Value& doc) {
  const Value* host = doc.find("host");
  if (host == nullptr || !host->is_object()) return "(no host stamp)";
  return "nproc " +
         std::to_string(static_cast<long long>((*host)["nproc"].number_value)) +
         ", " + (*host)["build_type"].string_value + ", " +
         (*host)["compiler"].string_value;
}

/// Prints both stamps; warns (never fails) when they differ.
void compare_hosts(const std::string& what, const Value& baseline,
                   const Value& current) {
  const std::string base = host_line(baseline);
  const std::string cur = host_line(current);
  std::cout << what << " host: baseline " << base << "; current " << cur
            << '\n';
  if (base != cur) {
    std::cerr << "WARN " << what
              << ": baseline and current hosts differ; ratios may not "
                 "compare like with like\n";
  }
}

}  // namespace

int main(int argc, char** argv) {
  muerp::support::CliParser cli(
      "bench_diff — gate a fresh perf_algorithms --compare run against the "
      "committed baseline");
  cli.add_flag("baseline", "committed benchmark JSON", "BENCH_routing.json");
  cli.add_flag("current", "freshly generated benchmark JSON", "");
  cli.add_flag("batch-baseline",
               "committed batch_routing JSON (gates run only when "
               "--batch-current is also given)",
               "");
  cli.add_flag("batch-current", "freshly generated batch_routing JSON", "");
  cli.add_flag("tolerance", "allowed relative drift (0.15 = 15%)", "0.15");
  cli.add_flag("allow-rate-drift",
               "rate array mismatch warns instead of failing");
  if (!cli.parse(argc, argv)) return cli.help_requested() ? 0 : 2;
  if (cli.get_string("current").empty()) {
    return fail("--current <file> is required");
  }

  std::string baseline_text;
  std::string current_text;
  if (!read_file(cli.get_string("baseline"), &baseline_text)) {
    return fail("cannot read " + cli.get_string("baseline"));
  }
  if (!read_file(cli.get_string("current"), &current_text)) {
    return fail("cannot read " + cli.get_string("current"));
  }
  const ParseResult baseline = muerp::support::json::parse(baseline_text);
  if (!baseline.ok()) {
    return fail(cli.get_string("baseline") + ": " + baseline.error);
  }
  const ParseResult current = muerp::support::json::parse(current_text);
  if (!current.ok()) {
    return fail(cli.get_string("current") + ": " + current.error);
  }

  Gate gate;
  gate.tolerance = cli.get_double("tolerance").value_or(0.15);
  const bool allow_rate_drift = cli.get_bool("allow-rate-drift");
  compare_hosts("routing", baseline.value, current.value);

  // Per-algorithm: speedup ratio, identical flag, rate bit-identity, and
  // the cached-run work counters.
  muerp::support::Table algorithms(
      "per-algorithm speedups (cached vs uncached)",
      {"algorithm", "base", "current", "base ms", "current ms"});
  for (const Value& base_alg : baseline.value["algorithms"].elements) {
    const std::string& name = base_alg["name"].string_value;
    const Value* cur_alg = find_algorithm(current.value, name);
    if (cur_alg == nullptr) {
      ++gate.failures;
      std::cerr << "FAIL algorithm '" << name << "' missing from current\n";
      continue;
    }
    algorithms.add_row(name, {base_alg["speedup"].number_value,
                              (*cur_alg)["speedup"].number_value,
                              base_alg["cached_ms"].number_value,
                              (*cur_alg)["cached_ms"].number_value});
    gate.check_speedup(name + " speedup", base_alg["speedup"].number_value,
                       (*cur_alg)["speedup"].number_value);
    gate.check_flag(name + " identical", base_alg["identical"].bool_value,
                    (*cur_alg)["identical"].bool_value);
    if (!rates_identical(base_alg, *cur_alg)) {
      if (allow_rate_drift) {
        std::cerr << "WARN " << name
                  << ": rate arrays differ from baseline (allowed)\n";
      } else {
        ++gate.failures;
        std::cerr << "FAIL " << name
                  << ": rate arrays differ from baseline (routing results "
                     "changed; re-commit the baseline if intended)\n";
      }
    }
    for (const auto& [counter, base_value] : base_alg["cached"].members) {
      gate.check_count(name + " cached." + counter, base_value.number_value,
                       (*cur_alg)["cached"][counter].number_value);
    }
  }
  std::cout << algorithms;

  // Aggregate hot-path ratios.
  for (const char* section : {"greedy_hot_path", "greedy_total"}) {
    gate.check_speedup(section,
                       baseline.value[section]["speedup"].number_value,
                       current.value[section]["speedup"].number_value);
  }
  gate.check_speedup("spf_kernel",
                     baseline.value["spf_kernel"]["speedup"].number_value,
                     current.value["spf_kernel"]["speedup"].number_value);
  gate.check_flag("spf_kernel identical",
                  baseline.value["spf_kernel"]["identical"].bool_value,
                  current.value["spf_kernel"]["identical"].bool_value);

  // Telemetry counters + per-span diff (only when both runs captured them
  // — OFF builds write "enabled": false and an empty snapshot).
  const Value& base_tel = baseline.value["telemetry"];
  const Value& cur_tel = current.value["telemetry"];
  if (base_tel["enabled"].bool_value && cur_tel["enabled"].bool_value) {
    for (const auto& [counter, base_value] :
         base_tel["snapshot"]["counters"].members) {
      gate.check_count("counter " + counter, base_value.number_value,
                       cur_tel["snapshot"]["counters"][counter].number_value);
    }
    muerp::support::Table spans(
        "per-span diff (calls gate; ms informational)",
        {"span", "base calls", "cur calls", "base self ms", "cur self ms",
         "self ms delta %"});
    const Value& base_spans = base_tel["snapshot"]["spans"];
    const Value& cur_spans = cur_tel["snapshot"]["spans"];
    for (const Value& base_span : base_spans.elements) {
      const std::string& label = base_span["label"].string_value;
      const Value* cur_span = find_span(cur_spans, label);
      if (cur_span == nullptr) {
        ++gate.failures;
        std::cerr << "FAIL span '" << label << "' missing from current\n";
        continue;
      }
      const double base_ms = base_span["self_ms"].number_value;
      const double cur_ms = (*cur_span)["self_ms"].number_value;
      spans.add_row(label,
                    {base_span["count"].number_value,
                     (*cur_span)["count"].number_value, base_ms, cur_ms,
                     base_ms > 0.0 ? (cur_ms / base_ms - 1.0) * 100.0 : 0.0});
      gate.check_count("span " + label + " calls",
                       base_span["count"].number_value,
                       (*cur_span)["count"].number_value);
    }
    std::cout << spans;
  } else {
    std::cout << "(telemetry snapshot missing from one side; span and "
                 "counter gates skipped)\n";
  }

  // Batch-kernel gates (bench/batch_routing output). Same philosophy: the
  // batch-vs-reference speedup and the groups/sec ratio are machine-
  // relative and gate drop-only; the identical flags and rate arrays are
  // exact; admission-latency quantiles are absolute microseconds and only
  // inform. Runs only when both files are supplied so the routing gate
  // keeps working standalone.
  const std::string batch_baseline_path = cli.get_string("batch-baseline");
  const std::string batch_current_path = cli.get_string("batch-current");
  if (!batch_baseline_path.empty() && !batch_current_path.empty()) {
    std::string batch_baseline_text;
    std::string batch_current_text;
    if (!read_file(batch_baseline_path, &batch_baseline_text)) {
      return fail("cannot read " + batch_baseline_path);
    }
    if (!read_file(batch_current_path, &batch_current_text)) {
      return fail("cannot read " + batch_current_path);
    }
    const ParseResult batch_baseline =
        muerp::support::json::parse(batch_baseline_text);
    if (!batch_baseline.ok()) {
      return fail(batch_baseline_path + ": " + batch_baseline.error);
    }
    const ParseResult batch_current =
        muerp::support::json::parse(batch_current_text);
    if (!batch_current.ok()) {
      return fail(batch_current_path + ": " + batch_current.error);
    }

    compare_hosts("batch", batch_baseline.value, batch_current.value);
    muerp::support::Table batch_table(
        "batch kernel vs sequential reference",
        {"policy", "base speedup", "cur speedup", "base groups/s",
         "cur groups/s"});
    for (const char* section : {"given_order", "fair_share"}) {
      const Value& base_sec = batch_baseline.value[section];
      const Value& cur_sec = batch_current.value[section];
      batch_table.add_row(section,
                          {base_sec["speedup"].number_value,
                           cur_sec["speedup"].number_value,
                           base_sec["batch_groups_per_sec"].number_value,
                           cur_sec["batch_groups_per_sec"].number_value});
      gate.check_speedup(std::string("batch ") + section + " speedup",
                         base_sec["speedup"].number_value,
                         cur_sec["speedup"].number_value);
      gate.check_flag(std::string("batch ") + section + " identical",
                      base_sec["identical"].bool_value,
                      cur_sec["identical"].bool_value);
      if (!rates_identical(base_sec, cur_sec)) {
        if (allow_rate_drift) {
          std::cerr << "WARN batch " << section
                    << ": rate arrays differ from baseline (allowed)\n";
        } else {
          ++gate.failures;
          std::cerr << "FAIL batch " << section
                    << ": rate arrays differ from baseline (routing results "
                       "changed; re-commit the baseline if intended)\n";
        }
      }
    }
    std::cout << batch_table;
    const Value& base_admit = batch_baseline.value["admit_us"];
    const Value& cur_admit = batch_current.value["admit_us"];
    std::cout << "admission latency us (informational): p50 "
              << base_admit["p50"].number_value << " -> "
              << cur_admit["p50"].number_value << ", p99 "
              << base_admit["p99"].number_value << " -> "
              << cur_admit["p99"].number_value << '\n';

    const Value& base_batch_tel = batch_baseline.value["telemetry"];
    const Value& cur_batch_tel = batch_current.value["telemetry"];
    if (base_batch_tel["enabled"].bool_value &&
        cur_batch_tel["enabled"].bool_value) {
      for (const auto& [counter, base_value] :
           base_batch_tel["snapshot"]["counters"].members) {
        gate.check_count(
            "batch counter " + counter, base_value.number_value,
            cur_batch_tel["snapshot"]["counters"][counter].number_value);
      }
    } else {
      std::cout << "(batch telemetry snapshot missing from one side; "
                   "counter gates skipped)\n";
    }
  }

  if (gate.failures > 0) {
    std::cerr << "bench_diff: " << gate.failures << " gate failure(s)\n";
    return 1;
  }
  std::cout << "bench_diff: all gates passed (tolerance "
            << gate.tolerance * 100 << "%)\n";
  return 0;
}
