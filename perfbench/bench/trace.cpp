#include "trace.h"

#include <cstring>
#include <fstream>

namespace perfbench {

Tracer::Tracer() : epoch_(Clock::now()) {
  spans_.reserve(1 << 16);
  stack_.reserve(16);
}

std::int32_t Tracer::open(const char* name, std::int64_t request) {
  Span span;
  span.name = name;
  span.parent = stack_.empty() ? -1 : stack_.back();
  span.request = request;
  const auto index = static_cast<std::int32_t>(spans_.size());
  stack_.push_back(index);
  span.start_ns =
      std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - epoch_).count();
  spans_.push_back(span);
  return index;
}

void Tracer::close(std::int32_t index) {
  spans_[static_cast<std::size_t>(index)].end_ns =
      std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - epoch_).count();
  stack_.pop_back();
}

double Tracer::duration_us(std::int32_t index) const {
  const Span& span = spans_[static_cast<std::size_t>(index)];
  return static_cast<double>(span.end_ns - span.start_ns) / 1000.0;
}

std::vector<double> Tracer::durations_us(const char* name) const {
  std::vector<double> out;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    if (std::strcmp(spans_[i].name, name) == 0) {
      out.push_back(duration_us(static_cast<std::int32_t>(i)));
    }
  }
  return out;
}

std::map<std::string, double> Tracer::self_ms_by_layer() const {
  std::vector<std::int64_t> child_ns(spans_.size(), 0);
  for (const Span& span : spans_) {
    if (span.parent >= 0) {
      child_ns[static_cast<std::size_t>(span.parent)] += span.end_ns - span.start_ns;
    }
  }
  std::map<std::string, double> self;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    const char* dot = std::strchr(span.name, '.');
    const std::string layer =
        dot == nullptr ? std::string{span.name}
                       : std::string{span.name, static_cast<std::size_t>(dot - span.name)};
    self[layer] += static_cast<double>(span.end_ns - span.start_ns - child_ns[i]) / 1e6;
  }
  return self;
}

void Tracer::write(const std::string& path) const {
  std::ofstream out{path};
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    out << i << '\t' << span.parent << '\t' << span.request << '\t' << span.name << '\t'
        << span.start_ns << '\t' << span.end_ns << '\n';
  }
}

}  // namespace perfbench
