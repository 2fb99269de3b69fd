// Concrete demand kernels for the response-time fixpoints.
//
// Every demand equation in SA/PM and Algorithm IEERT is
//
//     W(t) = constant (+ self ceiling) + sum_k ceil((t + J_k)/p_k) * e_k
//
// summed over the subtask's interference set H. DemandEvaluator walks the
// structure-of-arrays view of that set (InterferenceMap::soa_of, or an
// admission plane's columns): periods, execution times and jitters live
// in flat parallel arrays, so the inner loop is a contiguous sweep with no
// pointer chasing, and the templated solve_fixpoint inlines operator()
// into the iteration.
#pragma once

#include <span>

#include "common/math.h"
#include "common/time.h"

namespace e2e {

/// ceil((t + jitter) / period) * exec, saturating. The single interference
/// ceiling term shared by SA/PM and IEERT.
[[nodiscard]] inline Duration jittered_demand(Time t, Duration jitter, Duration period,
                                              Duration exec) noexcept {
  if (is_infinite(t) || is_infinite(jitter)) return kTimeInfinity;
  return sat_mul(ceil_div(sat_add(t, jitter), period), exec);
}

/// One contiguous run of a structure-of-arrays interference set:
/// parallel spans of periods, execution times and jitters, one entry per
/// interferer.
struct SoaRun {
  std::span<const Duration> periods;
  std::span<const Duration> execs;
  std::span<const Duration> jitters;
  [[nodiscard]] std::size_t size() const noexcept { return periods.size(); }

  /// `sum` plus every member's ceiling term at t, added in index order.
  [[nodiscard]] Duration add_demand(Duration sum, Time t) const noexcept {
    const std::size_t n = periods.size();
    for (std::size_t k = 0; k < n; ++k) {
      sum = sat_add(sum, jittered_demand(t, jitters[k], periods[k], execs[k]));
    }
    return sum;
  }
};

/// One demand equation over a structure-of-arrays interference set held
/// as one run (`hp`) or two (`hp`, then `hp_tail`: a set that is a range
/// of one array with a hole in it). The self ceiling term is included iff
/// self_period > 0 (busy-period equations include it; completion-time
/// equations fold the m * e_{i,j} term into `constant` instead).
struct DemandEvaluator {
  SoaRun hp;
  SoaRun hp_tail;
  Duration constant = 0;
  Duration self_period = 0;  ///< 0 disables the self term
  Duration self_exec = 0;
  Duration self_jitter = 0;

  [[nodiscard]] Duration operator()(Time t) const noexcept {
    Duration sum = constant;
    if (self_period > 0) {
      sum = sat_add(sum, jittered_demand(t, self_jitter, self_period, self_exec));
    }
    return hp_tail.add_demand(hp.add_demand(sum, t), t);
  }
};

}  // namespace e2e
