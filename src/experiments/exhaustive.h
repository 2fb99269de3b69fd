// Exhaustive worst-case search over task phasings.
//
// Paper Section 2: "The actual worst-case EER times of tasks can be found
// only via exhaustive search, which is too time consuming to be practical
// even for small systems." For *small* systems this module performs that
// search: it enumerates task phase combinations on a grid, simulates each
// phasing, and reports the worst EER observed per task. This gives a
// lower bound on the true worst case (exact if the grid covers all
// integer phases and the horizon covers the recurring schedule), which
// tests and the pessimism ablation compare against the analytic upper
// bounds.
#pragma once

#include <memory>
#include <vector>

#include "common/time.h"
#include "core/protocols/factory.h"
#include "task/system.h"

namespace e2e {

struct ExhaustiveOptions {
  /// Grid step for each task's phase (1 = every integer phase in
  /// [0, period), exhaustive for integer-time systems).
  Duration phase_step = 1;
  /// Simulation horizon per phasing, as a positive multiple of the
  /// hyperperiod (falls back to 20 max periods when the hyperperiod
  /// saturates).
  double horizon_hyperperiods = 2.0;
  /// Safety valve: refuse absurd searches (phasing count above this).
  std::int64_t max_phasings = 2'000'000;
  /// Worker threads; 0 = E2E_THREADS env var, else hardware concurrency.
  /// Results are identical at every thread count.
  int threads = 0;
};

struct ExhaustiveResult {
  /// Worst EER observed for each task over all phasings, by TaskId.
  std::vector<Duration> worst_eer;
  /// The phasing (per-task phases) achieving each task's worst EER.
  std::vector<std::vector<Time>> worst_phasing;
  /// Number of phase combinations simulated.
  std::int64_t phasings_tried = 0;
};

/// Runs the search for `kind` on `system` (phases in the input system are
/// ignored; every grid combination is tried). Throws InvalidArgument if
/// the search would exceed `max_phasings`, if the horizon is not positive
/// or leaves no maximum period of headroom below 2^63 past the largest
/// grid phase, or if `kind` needs bounds that do not exist (PM/MPM on an
/// unboundable system).
[[nodiscard]] ExhaustiveResult exhaustive_worst_eer(const TaskSystem& system,
                                                    ProtocolKind kind,
                                                    const ExhaustiveOptions& options = {});

}  // namespace e2e
