// Plain-formulation schedulability analyses, used only by the tests as
// an independent oracle for the production SA/PM and SA/DS (inlined
// structure-of-arrays demand kernels, fixpoint seeds, incremental
// in-place IEERT sweeps).
//
// Everything here is written the direct way and shares no solver code
// with src/core/analysis: interference sets and blocking terms are
// derived from the system on the spot, every demand equation is a plain
// lambda, every fixpoint is iterated from its textbook start, and SA/DS
// is the paper's Jacobi iteration R := cap(IEERT(T, R)) (Figure 11),
// each pass recomputing every entry from the previous table. Only the
// option and result types are shared.
#pragma once

#include <vector>

#include "core/analysis/ieert.h"
#include "core/analysis/sa_ds.h"
#include "core/analysis/sa_pm.h"
#include "task/system.h"

namespace e2e::test_support {

/// One member of an interference set: its task's period, its execution
/// time and its release-jitter term.
struct ReferenceInterferer {
  Duration period = 0;
  Duration exec = 0;
  Duration jitter = 0;
};

/// SA/PM steps 1-4 for one subtask equation in the textbook order: the
/// busy-period fixpoint D, the instance count M = ceil((D + J) / p), then
/// C(1..M), each iterated from its plain start.
struct ReferenceResponse {
  Duration bound = kTimeInfinity;  ///< R_{i,j}, or kTimeInfinity
  Time busy = 0;                   ///< D_{i,j}; 0 when unbounded
  std::vector<Time> completions;   ///< C(1..M); empty when unbounded
};
[[nodiscard]] ReferenceResponse reference_response_bound(
    Duration period, Duration exec, Duration jitter, Duration blocking, Time cap,
    const std::vector<ReferenceInterferer>& hp);

/// Algorithm SA/PM (Section 4.1), cold.
[[nodiscard]] AnalysisResult reference_sa_pm(const TaskSystem& system,
                                             const SaPmOptions& options = {});

/// One Jacobi application R' = IEERT(T, R) (Figure 10): every entry of
/// the result is computed from `current` alone.
[[nodiscard]] SubtaskTable reference_ieert_pass(const TaskSystem& system,
                                                const SubtaskTable& current,
                                                const IeertOptions& options = {});

/// Algorithm SA/DS (Figure 11) by Jacobi passes from the optimistic
/// init, each followed by the failure cap, until a pass changes nothing.
/// `passes` counts Jacobi passes, so it is not comparable with the
/// production sweep count; bounds and `converged` are.
[[nodiscard]] SaDsResult reference_sa_ds(const TaskSystem& system,
                                         const SaDsOptions& options = {});

}  // namespace e2e::test_support
