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
// Both solvers take one seed type, FixpointSeeds, under one rule:
// non-empty seeds are lower bounds on the fixpoints being solved and are
// always used, and a solve leaves its own fixpoints in them. A seed at or
// below a least fixpoint still converges to exactly that fixpoint, so
// seeds only ever shorten iterations; they never change a bound. Keeping
// the seeds below the fixpoints is the caller's job (see FixpointSeeds).
#pragma once

#include <vector>

#include "common/time.h"
#include "core/analysis/interference.h"

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

/// One subtask's fixpoint seeds: its busy-period duration and its
/// completion times C(m), m = 1..M, stored at m-1. Empty (busy == 0, no
/// completions) means "solve cold". A solve writes its own fixpoints
/// over them in place, keeping the capacity.
///
/// Seeds left by one equation stay valid for the next whenever the next
/// one's demand and cap are no smaller: the SA/PM admission engine across
/// admits, and every IEERT sweep (jitters only grow pass over pass).
/// Where demand can shrink -- an admission remove -- the caller clears
/// the seeds first.
struct FixpointSeeds {
  Time busy = 0;
  std::vector<Time> completions;

  void clear() noexcept {
    busy = 0;
    completions.clear();
  }
};

/// Upper bound R_{i,j} on the response time of one strictly periodic
/// subtask (SA/PM steps 1-4), or kTimeInfinity. `seeds` (optional) seed
/// the fixpoints and receive the converged ones; an unbounded solve
/// leaves them empty, so the next solve of that subtask runs cold.
///
/// C(1) is solved first: when C(1) + J <= p the busy period holds one
/// instance and equals C(1), so no busy-period fixpoint is iterated (see
/// docs/analysis.md for the proof). The results are those of the
/// textbook order -- busy period, instance count, C(1..M).
[[nodiscard]] Duration solve_response_bound(const ResponseEquation& eq,
                                            const HpRuns& hp, FixpointSeeds* seeds);

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
/// Figure 10) under the current jitter terms, or kTimeInfinity. `seeds`
/// (optional) carry last pass's fixpoints and receive this pass's; an
/// infinite result leaves them as lower bounds of any later pass.
[[nodiscard]] Duration solve_ieer_bound(const IeerEquation& eq, const HpView& hp,
                                        FixpointSeeds* seeds);

}  // namespace e2e
