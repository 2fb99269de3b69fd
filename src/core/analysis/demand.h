// Concrete demand kernels for the response-time fixpoints.
//
// Every demand equation in SA/PM and Algorithm IEERT is
//
//     W(t) = constant (+ self ceiling) + sum_k ceil((t + J_k)/p_k) * e_k
//
// summed over the subtask's interference set H. DemandEvaluator walks the
// structure-of-arrays view of that set (InterferenceMap::soa_of):
// periods, execution times and jitters live in flat parallel arrays, so
// the inner loop is a contiguous sweep with no pointer chasing, and the
// templated solve_fixpoint inlines operator() into the iteration.
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

/// One demand equation over a structure-of-arrays interference set.
/// `periods`, `execs` and `jitters` are parallel spans (one entry per
/// interferer). The self ceiling term is included iff self_period > 0
/// (busy-period equations include it; completion-time equations fold the
/// m * e_{i,j} term into `constant` instead).
struct DemandEvaluator {
  std::span<const Duration> periods;
  std::span<const Duration> execs;
  std::span<const Duration> jitters;
  Duration constant = 0;
  Duration self_period = 0;  ///< 0 disables the self term
  Duration self_exec = 0;
  Duration self_jitter = 0;

  [[nodiscard]] Duration operator()(Time t) const noexcept {
    Duration sum = constant;
    if (self_period > 0) {
      sum = sat_add(sum, jittered_demand(t, self_jitter, self_period, self_exec));
    }
    const std::size_t n = periods.size();
    for (std::size_t k = 0; k < n; ++k) {
      sum = sat_add(sum, jittered_demand(t, jitters[k], periods[k], execs[k]));
    }
    return sum;
  }
};

}  // namespace e2e
