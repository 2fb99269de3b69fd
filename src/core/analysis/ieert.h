// Algorithm IEERT (paper Figure 10): one refinement pass of the IEER
// (intermediate end-to-end response) bounds under the DS protocol.
//
// Under DS a subtask instance is released the moment its predecessor
// completes, so releases are *not* periodic: the release of T_{u,v}(m)
// can drift by up to R_{u,v-1} -- the predecessor's IEER bound -- after
// the periodic release of T_{u,1}(m). IEERT therefore treats R_{u,v-1}
// as release jitter in every ceiling term (the "clumping effect"):
//
//   Step 1  D_{i,j} = min{ t>0 : t = sum_{H u {self}} ceil((t+R_{u,v-1})/p_u) e_{u,v} }
//   Step 2  M_{i,j} = ceil((D_{i,j}+R_{i,j-1}) / p_i)
//   Step 3  C_{i,j}(m) = min{ t>0 : t = m e_{i,j} + sum_{H} ceil((t+R_{u,v-1})/p_u) e_{u,v} }
//           R_{i,j}(m) = C_{i,j}(m) + R_{i,j-1} - (m-1) p_i
//   Step 4  R'_{i,j} = max_m R_{i,j}(m)
//
// with R_{u,0} := 0 (first subtasks have no jitter).
#pragma once

#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

#include "core/analysis/bounds.h"
#include "core/analysis/interference.h"
#include "core/analysis/kernels.h"
#include "task/system.h"

namespace e2e {

struct IeertOptions {
  /// Fixpoint divergence cap (absolute ticks).
  Time cap = kTimeInfinity;
  /// Extension (not in the paper): refine each jitter term from
  /// R_{u,v-1} to R_{u,v-1} - B_{u,v-1}, where B is the sum of execution
  /// times up to the predecessor -- the earliest a DS release can occur
  /// relative to the chain's first release. Releases of T_{u,v}(k) fall in
  /// [k p + B, k p + R], so ceil((t + R - B)/p) releases fit a window of
  /// length t: a sound, strictly tighter interference count (standard
  /// release-jitter argument, cf. Tindell & Clark's holistic analysis).
  /// Used by analyze_holistic_ds for the bound-tightness ablation.
  bool refine_jitter_with_best_case = false;
  /// When > 0, a subtask whose IEER bound exceeds this multiple of its
  /// task's period is reported as kTimeInfinity immediately (instead of a
  /// large finite value that the caller would cap anyway). This is the
  /// per-pass form of SA/DS's failure cutoff; it prunes the instance loop
  /// of divergent subtasks and lets infinity propagate in one pass rather
  /// than letting bounds crawl up by small increments over thousands of
  /// passes. 0 disables the cutoff.
  double failure_period_multiplier = 0.0;
};

/// Dirty-tracking state for incremental IEERT iteration. A subtask's
/// refined bound is a pure function of the table entries of its own
/// predecessor and of each interferer's predecessor (the jitter terms,
/// read off the map by InterferenceMap::any_input_of); everything else
/// in its equation is static. When none of those inputs changed since
/// the entry was last computed, recomputing it would reproduce it
/// exactly, so the sweep skips it. Converging iterations stabilize most entries early, making
/// the final sweeps nearly free.
struct IeertIncrementalState {
  /// Which entries changed in the last current -> next transition; empty
  /// means "first pass, recompute everything".
  std::vector<std::uint8_t> changed;
  /// One-shot override consumed by the next sweep: entries marked 1 are
  /// treated as stale regardless of the dependency check. Callers that
  /// seed `current` from a previous analysis of a *different* system (the
  /// admission engine's delta re-analysis) use this to force exactly the
  /// entries whose demand equations changed -- interference sets on the
  /// touched processors -- while the dependency tracking handles the
  /// transitive jitter propagation from there. Must be empty or sized
  /// like the table; cleared by the sweep that consumes it.
  std::vector<std::uint8_t> force;
  /// Per flat subtask index: fixpoint seeds from the last recomputation.
  /// Callers size it to the system's subtask count (new entries start
  /// cold). The IEERT iteration is a Kleene sequence -- the table only
  /// grows -- so every jitter term, and with it each subtask's busy-period
  /// and completion fixpoints, only grows pass over pass: last pass's
  /// fixpoints are lower bounds of this pass's (see FixpointSeeds).
  /// Seeds carried in from elsewhere must be lower bounds too.
  std::vector<FixpointSeeds> seeds;
};

/// First-touch journal of the in-place writes of one admission trial:
/// everything needed to restore the table and seeds of a rejected trial
/// byte-for-byte. `arm(count)` resets it for a new trial; each entry's
/// pre-trial value and seeds are recorded exactly once, before its first
/// write (ieert_sweep records every entry it recomputes), so replaying
/// the journal in any order restores the pre-trial state.
struct IeertSweepUndo {
  struct Entry {
    SubtaskRef ref;
    std::uint32_t flat = 0;
    Duration value = 0;
    FixpointSeeds seeds;
  };
  std::vector<std::uint8_t> seen;  ///< per flat index: already journaled
  std::vector<Entry> entries;

  void arm(std::size_t count) {
    seen.assign(count, 0);
    entries.clear();
  }

  /// Journals entry `flat` unless it already is.
  void record(SubtaskRef ref, std::size_t flat, Duration value,
              const FixpointSeeds& seeds) {
    if (seen[flat] != 0) return;
    seen[flat] = 1;
    entries.push_back(Entry{.ref = ref,
                            .flat = static_cast<std::uint32_t>(flat),
                            .value = value,
                            .seeds = seeds});
  }

  /// Restores every journaled entry of `table` and `state.seeds`.
  void replay(SubtaskTable& table, IeertIncrementalState& state) {
    for (Entry& e : entries) {
      table.set(e.ref, e.value);
      state.seeds[e.flat] = std::move(e.seeds);
    }
  }
};

/// One in-place application of IEERT to `table` (entries may be
/// kTimeInfinity, in which case dependent bounds become infinite too).
/// Returns the number of entries whose value changed; 0 means `table` is
/// a fixpoint, R = IEERT(T, R).
///
/// The sweep is Gauss-Seidel: entries updated earlier in the sweep feed
/// later ones immediately, so a chain's growth propagates in one sweep
/// instead of one link per sweep. Entries whose inputs did not change
/// (see IeertIncrementalState) are skipped, and each recomputed fixpoint
/// starts from its seed. Chaotic iteration of the
/// monotone IEERT operator from an under-approximation reaches the same
/// least fixpoint as the paper's Jacobi passes, so the converged table
/// is bit-identical; only the number of sweeps to reach it shrinks.
///
/// `state.seeds` must be sized to the system's subtask count;
/// `state.changed` empty means "recompute everything". With `undo`,
/// pre-recomputation values and seeds are journaled (first touch only)
/// for trial rollback.
std::size_t ieert_sweep(const TaskSystem& system, const InterferenceMap& interference,
                        SubtaskTable& table, const IeertOptions& options,
                        IeertIncrementalState& state, IeertSweepUndo* undo = nullptr);

}  // namespace e2e
