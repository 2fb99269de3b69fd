// Warm-start state carried between successive SA/PM analyses of related
// systems.
//
// Signature-exact reuse: if a subtask's demand equation is bit-identical
// to the previous run's (same period / execution / jitter / blocking /
// cap and the same interferer parameters), its least fixpoint is the
// same value -- copy it without iterating. This needs no monotonicity
// assumption and is what HOPA's priority-reassignment rounds hit for the
// (many) subtasks whose priority level did not change.
//
// A scratch is only ever an accelerator: a subtask whose entry is
// missing, shaped for another system, or signed differently is solved
// cold, and results are bit-identical either way.
#pragma once

#include <cstdint>
#include <vector>

#include "common/time.h"

namespace e2e {

/// Converged SA/PM state for one subtask.
struct SubtaskScratch {
  /// Content hash of the subtask's demand equation (parameters + cap +
  /// interferer parameters) from the run that produced this entry.
  std::uint64_t signature = 0;
  bool has = false;        ///< entry holds converged data
  Time busy = 0;           ///< busy-period fixpoint D_{i,j} (finite runs only)
  Duration bound = 0;      ///< R_{i,j} (may be kTimeInfinity)
  /// Completion-time fixpoints C_{i,j}(m), m = 1..M, from the previous
  /// run; warm starts for the per-instance equations.
  std::vector<Time> completions;
};

/// Reusable state for analyze_sa_pm. One scratch serves one logical
/// sequence of analyses (a HOPA run, ...); never share one instance
/// across threads.
struct AnalysisScratch {
  std::vector<std::vector<SubtaskScratch>> pm;  // [task][chain index]
};

}  // namespace e2e
