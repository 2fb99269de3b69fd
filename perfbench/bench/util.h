// Small shared helpers of the benchmark driver: wall clock, nearest-rank
// percentiles, peak RSS, and the flat JSON object every workload emits.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <map>
#include <sstream>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}
[[nodiscard]] inline double us_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::micro>(b - a).count();
}

/// CPU time the calling thread has used so far, in microseconds. Unlike
/// the wall clock it does not advance while the thread waits for a core.
[[nodiscard]] double thread_cpu_us();

/// Nearest-rank percentile (p in [0, 100]); 0 for an empty sample.
[[nodiscard]] double percentile(std::vector<double> values, double p);
[[nodiscard]] inline double median(std::vector<double> values) {
  return percentile(std::move(values), 50.0);
}
[[nodiscard]] double mean(const std::vector<double>& values);

/// Peak resident set size of this process so far, in MiB.
[[nodiscard]] double peak_rss_mb();

/// The driver's result: named numbers plus named strings (hashes, labels)
/// and the count of answers that failed their checks. Rendered as one
/// JSON object on stdout; run.py adds the CLI cross-checks and the pins.
struct Report {
  std::map<std::string, double> metrics;
  std::map<std::string, std::string> strings;
  std::map<std::string, std::vector<std::string>> lists;
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  std::vector<std::string> problems;  ///< one line per failed check

  void fail(std::int64_t operations, std::string why) {
    failed += operations;
    problems.push_back(std::move(why));
  }
  [[nodiscard]] std::string to_json() const;
};

[[nodiscard]] std::string hex64(std::uint64_t value);

}  // namespace perfbench
