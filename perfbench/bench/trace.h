// In-memory span recorder of the traced run.
//
// A span brackets one call from the benchmark into a layer's public
// function. Its name is "<layer>.<function>", so the layer is the text
// before the first dot. Spans nest through an explicit stack (the traced
// passes are single-threaded), carry the id of the request or work item
// they serve, and are written out once, when the run ends. A layer's self
// time is the total duration of its spans minus the parts covered by
// their child spans.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "util.h"

namespace perfbench {

struct Span {
  const char* name = "";  ///< string literal, "<layer>.<function>"
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::int32_t parent = -1;  ///< index into the span vector, -1 at the root
  std::int64_t request = -1;
};

class Tracer {
 public:
  Tracer();

  /// Opens a span under the innermost open one; returns its index.
  std::int32_t open(const char* name, std::int64_t request);
  /// Closes span `index`, which must be the innermost open one.
  void close(std::int32_t index);
  /// Duration of a closed span, in microseconds.
  [[nodiscard]] double duration_us(std::int32_t index) const;
  /// Durations of every span called `name`, in microseconds.
  [[nodiscard]] std::vector<double> durations_us(const char* name) const;

  [[nodiscard]] const std::vector<Span>& spans() const noexcept { return spans_; }
  /// Self time per layer, in milliseconds.
  [[nodiscard]] std::map<std::string, double> self_ms_by_layer() const;
  /// Writes every span as one tab-separated line:
  /// index, parent, request, name, start_ns, end_ns.
  void write(const std::string& path) const;

 private:
  Clock::time_point epoch_;
  std::vector<Span> spans_;
  std::vector<std::int32_t> stack_;
};

/// RAII span; a null tracer records nothing (the untraced passes share
/// the traced passes' code).
class Scope {
 public:
  Scope(Tracer* tracer, const char* name, std::int64_t request = -1)
      : tracer_(tracer), index_(tracer ? tracer->open(name, request) : -1) {}
  ~Scope() {
    if (tracer_ != nullptr) tracer_->close(index_);
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;
  Scope(Scope&&) = delete;
  Scope& operator=(Scope&&) = delete;

 private:
  Tracer* tracer_;
  std::int32_t index_;
};

}  // namespace perfbench
