#include "core/analysis/ieert.h"

#include <algorithm>
#include <vector>

#include "common/error.h"
#include "common/math.h"
#include "core/analysis/blocking.h"
#include "core/analysis/kernels.h"

namespace e2e {
namespace {

/// Sum of execution times of T_{i,1} .. T_{i,j} -- the earliest possible
/// completion of position `index` relative to the chain's first release.
Duration best_case_through(const TaskSystem& system, SubtaskRef ref) {
  Duration sum = 0;
  const Task& t = system.task(ref.task);
  for (std::int32_t j = 0; j <= ref.index; ++j) {
    sum += t.subtasks[static_cast<std::size_t>(j)].execution_time;
  }
  return sum;
}

/// Release jitter attributed to subtask `ref` given the current IEER
/// bounds of its predecessor: R_{u,v-1} (optionally minus the best case),
/// plus the parent task's bounded first-release jitter J_u (extension;
/// 0 in the paper's model, where first releases are strictly periodic).
Duration release_jitter(const TaskSystem& system, SubtaskRef ref,
                        const SubtaskTable& current, const IeertOptions& options) {
  const Duration task_jitter = system.task(ref.task).release_jitter;
  if (ref.index <= 0) return task_jitter;
  const SubtaskRef pred{ref.task, ref.index - 1};
  const Duration bound = current.at(pred);
  if (is_infinite(bound)) return kTimeInfinity;
  if (!options.refine_jitter_with_best_case) return sat_add(bound, task_jitter);
  return sat_add(std::max<Duration>(0, bound - best_case_through(system, pred)),
                 task_jitter);
}

/// `hp_jitter` is a caller-owned buffer (reused across subtasks so one
/// IEERT sweep performs no per-subtask allocations once it reaches steady
/// state); on return it holds this subtask's per-interferer jitters.
Duration bound_subtask_ieer(const TaskSystem& system, const InterferenceMap& interference,
                            const Subtask& subtask, const SubtaskTable& current,
                            const IeertOptions& options, std::vector<Duration>& hp_jitter,
                            FixpointSeeds* seeds) {
  const Task& task = system.task(subtask.ref.task);
  const std::span<const SubtaskRef> hp_refs = interference.of(subtask.ref);
  hp_jitter.resize(hp_refs.size());
  for (std::size_t k = 0; k < hp_refs.size(); ++k) {
    hp_jitter[k] = release_jitter(system, hp_refs[k], current, options);
    if (is_infinite(hp_jitter[k])) return kTimeInfinity;
  }
  const IeerEquation eq{
      .period = task.period,
      .exec = subtask.execution_time,
      .own_jitter = release_jitter(system, subtask.ref, current, options),
      // Constant offset added to every instance's IEER: the predecessor's
      // IEER bound plus (extension) the task's own first-release jitter.
      .own_accum = sat_add(current.predecessor_or_zero(subtask.ref), task.release_jitter),
      .blocking = blocking_term(system, subtask),
      .cutoff = options.failure_period_multiplier > 0.0
                    ? sat_scale(options.failure_period_multiplier, task.period)
                    : kTimeInfinity,
      .cap = options.cap};
  const InterferenceMap::SoaView hp = interference.soa_of(subtask.ref);
  return solve_ieer_bound(eq, HpView{hp.periods, hp.execs, hp_jitter}, seeds);
}

}  // namespace

std::size_t ieert_sweep(const TaskSystem& system, const InterferenceMap& interference,
                        SubtaskTable& table, const IeertOptions& options,
                        IeertIncrementalState& state, IeertSweepUndo* undo) {
  const std::size_t count = interference.subtask_count();
  E2E_ASSERT(state.seeds.size() == count, "ieert_sweep: seeds not sized");
  E2E_ASSERT(undo == nullptr || undo->seen.size() == count,
             "ieert_sweep: undo journal not armed");

  const bool incremental = !state.changed.empty();
  std::vector<std::uint8_t> sweep_changed(count, 0);
  std::vector<Duration> hp_jitter;
  std::size_t changed_count = 0;
  // During an incremental sweep, state.changed also flags the entries
  // changed earlier in this sweep, so it covers every change since any
  // entry was last computed. An entry's member inputs are predecessors
  // of subtasks on its own processor: the processor turns hot when one
  // of those changes, and only entries on hot processors scan members.
  std::vector<std::uint8_t> hot(system.processor_count(), 0);
  const auto heat = [&](const Task& t, const Subtask& s) {
    const auto next = static_cast<std::size_t>(s.ref.index) + 1;
    if (next < t.subtasks.size()) hot[t.subtasks[next].processor.index()] = 1;
  };
  if (incremental) {
    for (const Task& t : system.tasks()) {
      for (const Subtask& s : t.subtasks) {
        if (state.changed[interference.flat_index(s.ref)] != 0) heat(t, s);
      }
    }
  }
  for (const Task& t : system.tasks()) {
    for (const Subtask& s : t.subtasks) {
      const std::size_t flat = interference.flat_index(s.ref);
      bool stale = true;
      if (incremental) {
        // Stale iff the caller forced it (equation changed under its
        // feet) or an input changed since this entry was last computed.
        const auto changed = [&](std::size_t input) { return state.changed[input] != 0; };
        stale = (!state.force.empty() && state.force[flat] != 0) ||
                (hot[s.processor.index()] != 0 ? interference.any_input_of(s.ref, changed)
                                               : s.ref.index > 0 && changed(flat - 1));
      }
      if (!stale) continue;  // recomputing would reproduce the entry exactly
      if (undo != nullptr) undo->record(s.ref, flat, table.at(s.ref), state.seeds[flat]);
      const Duration bound = bound_subtask_ieer(system, interference, s, table, options,
                                                hp_jitter, &state.seeds[flat]);
      if (bound != table.at(s.ref)) {
        sweep_changed[flat] = 1;
        if (incremental) {
          state.changed[flat] = 1;
          heat(t, s);
        }
        ++changed_count;
        table.set(s.ref, bound);
      }
    }
  }
  state.changed = std::move(sweep_changed);
  state.force.clear();  // one-shot: consumed by this sweep
  return changed_count;
}

}  // namespace e2e
