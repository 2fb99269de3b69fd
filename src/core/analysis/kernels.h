// Shared per-subtask response-bound solvers.
//
// Algorithm SA/PM's steps 1-4 and Algorithm IEERT's per-subtask equation
// are pure functions of a handful of scalars plus the interference set in
// structure-of-arrays form. This header names those inputs explicitly and
// hosts the single implementation of each solver, so every caller -- the
// offline analyses (sa_pm.cpp, ieert.cpp) and the online admission
// engine's delta re-analysis (src/admission) -- runs byte-identical code
// over whatever storage owns the spans. That is what makes "incremental
// result == full recompute" an identity of code paths rather than a
// numerical coincidence.
//
// Both solvers accept the warm-start state from core/analysis/scratch.h /
// ieert.h; warm seeds are only ever accelerators (see those headers for
// the monotonicity arguments) and never change the returned bound.
#pragma once

#include <cstdint>

#include "common/time.h"
#include "core/analysis/ieert.h"
#include "core/analysis/interference.h"
#include "core/analysis/scratch.h"

namespace e2e {

/// The interference set in SoA form: parallel spans of periods, execution
/// times and jitter terms, one entry per interferer. Aliases
/// InterferenceMap::SoaView so callers can pass either a map's view or
/// spans over their own flat arrays.
using HpView = InterferenceMap::SoaView;

/// An interference set held as two runs of SoA storage, summed `head`
/// first. One run converts implicitly; the SA/PM admission engine passes
/// the plane prefix before an entry and the same-level run after it, so
/// no set is ever copied.
struct HpRuns {
  HpView head;
  HpView tail;
  HpRuns(const HpView& h, const HpView& t = {}) : head(h), tail(t) {}
};

/// Scalar inputs of one SA/PM subtask equation (steps 1-4).
struct ResponseEquation {
  Duration period = 0;    ///< p_i
  Duration exec = 0;      ///< e_{i,j}
  Duration jitter = 0;    ///< task release jitter J_i
  Duration blocking = 0;  ///< non-preemptible lower-priority blocking term
  Time cap = kTimeInfinity;  ///< fixpoint divergence cap
};

/// Content hash of one SA/PM demand equation: every parameter the step
/// 1-4 fixpoints read. Equal signatures mean equal equations, hence equal
/// least fixpoints. Note the hash folds the interferers in span order, so
/// signatures are only comparable between runs that enumerate the same
/// storage (which is how sa_pm.cpp uses it).
[[nodiscard]] std::uint64_t response_equation_signature(const ResponseEquation& eq,
                                                        const HpView& hp);

/// Upper bound R_{i,j} on the response time of one strictly periodic
/// subtask (SA/PM steps 1-4), or kTimeInfinity.
///
/// `sc` (optional) receives the converged fixpoints; with `warm` the
/// previous contents seed the iterations (sound because every recorded
/// value is <= the new least fixpoint under the caller's monotonicity
/// promise, so the iteration still converges to exactly the new least
/// fixpoint).
///
/// C(1) is solved first: when C(1) + J <= p the busy period holds one
/// instance and equals C(1), so no busy-period fixpoint is iterated (see
/// docs/analysis.md for the proof). The results are those of the
/// textbook order -- busy period, instance count, C(1..M).
[[nodiscard]] Duration solve_response_bound(const ResponseEquation& eq,
                                            const HpRuns& hp, SubtaskScratch* sc,
                                            bool warm);

/// Scalar inputs of one IEERT subtask equation. `hp` carries the per-pass
/// jitter terms in its `jitters` span (predecessor IEER bounds, optionally
/// best-case refined, plus task jitter); callers must have replaced any
/// infinite jitter with an early kTimeInfinity return before solving.
struct IeerEquation {
  Duration period = 0;      ///< p_i
  Duration exec = 0;        ///< e_{i,j}
  Duration own_jitter = 0;  ///< this subtask's release-jitter term
  /// Constant offset added to every instance's IEER: the predecessor's
  /// IEER bound plus (extension) the task's own first-release jitter.
  Duration own_accum = 0;
  Duration blocking = 0;
  /// Per-task failure cutoff: a bound exceeding it is reported as
  /// kTimeInfinity immediately. kTimeInfinity disables the cutoff.
  Duration cutoff = kTimeInfinity;
  Time cap = kTimeInfinity;  ///< fixpoint divergence cap
};

/// One application of the IEERT per-subtask equation (steps 1-4 of
/// Figure 10) under the current jitter terms, or kTimeInfinity. `warm`
/// (optional) carries last pass's fixpoints; sound as a seed because the
/// IEERT iteration is a Kleene sequence (jitters only grow pass over
/// pass, see IeertWarmEntry).
[[nodiscard]] Duration solve_ieer_bound(const IeerEquation& eq, const HpView& hp,
                                        IeertWarmEntry* warm);

}  // namespace e2e
