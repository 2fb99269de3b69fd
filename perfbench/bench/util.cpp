#include "util.h"

#include <sys/resource.h>
#include <time.h>

#include <cmath>
#include <cstdio>
#include <iomanip>
#include <limits>

namespace perfbench {

double thread_cpu_us() {
  timespec now{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &now);
  return static_cast<double>(now.tv_sec) * 1e6 + static_cast<double>(now.tv_nsec) / 1e3;
}

double percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(p / 100.0 * static_cast<double>(values.size()));
  const std::size_t index =
      rank < 1.0 ? 0 : std::min(values.size(), static_cast<std::size_t>(rank)) - 1;
  return values[index];
}

double mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double sum = 0.0;
  for (const double v : values) sum += v;
  return sum / static_cast<double>(values.size());
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

std::string hex64(std::uint64_t value) {
  char buffer[17];
  std::snprintf(buffer, sizeof buffer, "%016llx", static_cast<unsigned long long>(value));
  return buffer;
}

namespace {

std::string json_string(const std::string& text) {
  std::string out = "\"";
  for (const char c : text) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

}  // namespace

std::string Report::to_json() const {
  std::ostringstream out;
  out << std::setprecision(std::numeric_limits<double>::max_digits10);
  out << "{\"attempted\": " << attempted << ", \"failed\": " << failed
      << ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, value] : metrics) {
    out << (first ? "" : ", ") << json_string(name) << ": "
        << (std::isfinite(value) ? value : -1.0);
    first = false;
  }
  out << "}, \"strings\": {";
  first = true;
  for (const auto& [name, value] : strings) {
    out << (first ? "" : ", ") << json_string(name) << ": " << json_string(value);
    first = false;
  }
  out << "}, \"lists\": {";
  first = true;
  for (const auto& [name, values] : lists) {
    out << (first ? "" : ", ") << json_string(name) << ": [";
    for (std::size_t i = 0; i < values.size(); ++i) {
      out << (i ? ", " : "") << json_string(values[i]);
    }
    out << "]";
    first = false;
  }
  out << "}, \"problems\": [";
  for (std::size_t i = 0; i < problems.size(); ++i) {
    out << (i ? ", " : "") << json_string(problems[i]);
  }
  out << "]}";
  return out.str();
}

}  // namespace perfbench
