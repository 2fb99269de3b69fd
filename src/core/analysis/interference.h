// Precomputed interference sets.
//
// For subtask T_{i,j}, the paper's H_{i,j} is the set of subtasks that
// (1) execute on the same processor and (2) have priority higher than or
// equal to T_{i,j}'s, excluding T_{i,j} itself. Both SA/PM and Algorithm
// IEERT sum demand over this set; precomputing it once per system keeps
// the fixpoint inner loops tight.
//
// Each set is stored once, in flat task-major parallel arrays (refs,
// periods, execution times, task release jitters); subtask f's members
// occupy [range_begin_[f], range_begin_[f + 1]). Two views over them:
//  * of(ref): the members' SubtaskRefs, for where identities matter
//    (IEERT's jitter terms read each member's predecessor bound);
//  * soa_of(ref): parallel spans of periods / execution times / task
//    release jitters, consumed by the inlined DemandEvaluator kernels
//    (core/analysis/demand.h).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "common/error.h"
#include "common/ids.h"
#include "common/time.h"
#include "core/analysis/demand.h"
#include "task/system.h"

namespace e2e {

/// Interference sets for every subtask in a system, indexed by SubtaskRef.
///
/// Besides one-shot construction, the map supports delta maintenance for
/// the admission engines: apply_admit() patches in one task appended at
/// the back of the system and apply_remove() patches out one task (a
/// rejected trial reverts by removing its appended tasks, last first).
/// Both leave the map bit-identical to fresh construction over the
/// mutated system (the admission property tests pin this via
/// content_hash()): the builder lays per-processor resident lists out
/// task-major, so an appended task's subtasks land at the END of every
/// scan a fresh constructor would do -- appends patch in as pure set
/// suffixes, and removals as order-preserving compaction.
class InterferenceMap {
 public:
  /// Empty map; delta-populate via apply_admit or assign a fresh one.
  InterferenceMap() = default;
  explicit InterferenceMap(const TaskSystem& system);

  /// H_{i,j} for the given subtask (same processor, priority >=, not self).
  /// A member `h` with h.index > 0 has its predecessor at flat index
  /// flat_index(h) - 1.
  [[nodiscard]] std::span<const SubtaskRef> of(SubtaskRef ref) const {
    const std::size_t f = flat_index(ref);
    return std::span<const SubtaskRef>{refs_}.subspan(range_begin_[f],
                                                      range_begin_[f + 1] - range_begin_[f]);
  }

  /// Structure-of-arrays view of H_{i,j}: parallel spans over contiguous
  /// flat storage, in of()'s order. `jitters` holds the interferers' task
  /// release jitters (the jitter term SA/PM uses; IEERT substitutes its
  /// own per-pass jitter vector of the same length).
  using SoaView = SoaRun;
  [[nodiscard]] SoaView soa_of(SubtaskRef ref) const {
    const std::size_t f = flat_index(ref);
    const std::size_t begin = range_begin_[f];
    const std::size_t count = range_begin_[f + 1] - begin;
    return SoaView{
        .periods = std::span<const Duration>{periods_}.subspan(begin, count),
        .execs = std::span<const Duration>{execs_}.subspan(begin, count),
        .jitters = std::span<const Duration>{jitters_}.subspan(begin, count),
    };
  }

  /// Task-major flat index of a subtask (stable for the system's lifetime);
  /// the incremental IEERT pass keys its dirty flags on it. This and the
  /// views above are inline: the fixpoint sweeps call them per subtask.
  [[nodiscard]] std::size_t flat_index(SubtaskRef ref) const {
    E2E_ASSERT(ref.task.value() >= 0 && ref.task.index() + 1 < task_base_.size(),
               "InterferenceMap: task out of range");
    const std::size_t base = task_base_[ref.task.index()];
    E2E_ASSERT(ref.index >= 0 && base + static_cast<std::size_t>(ref.index) <
                                     task_base_[ref.task.index() + 1],
               "InterferenceMap: subtask index out of range");
    return base + static_cast<std::size_t>(ref.index);
  }

  /// Calls `visit` with the flat index of each IEERT input of `ref` --
  /// its own predecessor, then each member's predecessor (first subtasks
  /// have none; an index may repeat) -- until one returns true. Returns
  /// whether one did.
  template <class Visit>
  bool any_input_of(SubtaskRef ref, Visit&& visit) const {
    const std::size_t f = flat_index(ref);
    if (ref.index > 0 && visit(f - 1)) return true;
    for (std::size_t k = range_begin_[f]; k < range_begin_[f + 1]; ++k) {
      const SubtaskRef h = refs_[k];
      if (h.index > 0 &&
          visit(task_base_[h.task.index()] + static_cast<std::size_t>(h.index) - 1)) {
        return true;
      }
    }
    return false;
  }

  /// Total number of subtasks in the system.
  [[nodiscard]] std::size_t subtask_count() const noexcept {
    return task_base_.back();
  }

  /// Patches the map for `system`, which must be the currently mapped
  /// system plus exactly one task appended at the back. In place: a
  /// forward pass shifts the row offsets, a backward pass moves each
  /// block of rows once and writes the new members. Result is
  /// bit-identical to InterferenceMap{system}.
  void apply_admit(const TaskSystem& system);

  /// Patches the map for the removal of task `removed`, compacting in
  /// place: drops its rows and every member it contributed, renumbering
  /// later tasks down by one. Bit-identical to fresh construction over
  /// the shrunk system.
  void apply_remove(std::size_t removed);

  /// Order-dependent hash of every interference set (refs + parameters)
  /// -- the delta-vs-fresh equivalence check of the admission property
  /// tests.
  [[nodiscard]] std::uint64_t content_hash() const noexcept;

 private:
  /// Appends H for `subtask` of `system` (a fresh subtasks_on scan) as a
  /// new last row.
  void append_row(const TaskSystem& system, const Subtask& subtask);
  /// Appends one member to the set being built.
  void push_member(const TaskSystem& system, SubtaskRef member);

  // Flat index of each task's first subtask, plus the subtask count.
  std::vector<std::size_t> task_base_{0};
  // Subtask f's members sit at [range_begin_[f], range_begin_[f + 1]).
  std::vector<std::size_t> range_begin_{0};
  std::vector<SubtaskRef> refs_;
  std::vector<Duration> periods_;
  std::vector<Duration> execs_;
  std::vector<Duration> jitters_;
};

}  // namespace e2e
