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
                            IeertWarmEntry* warm) {
  const Task& task = system.task(subtask.ref.task);
  const std::span<const Interferer> hp_aos = interference.of(subtask.ref);
  hp_jitter.resize(hp_aos.size());
  for (std::size_t k = 0; k < hp_aos.size(); ++k) {
    hp_jitter[k] = release_jitter(system, hp_aos[k].ref, current, options);
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
                    ? static_cast<Duration>(options.failure_period_multiplier *
                                            static_cast<double>(task.period))
                    : kTimeInfinity,
      .cap = options.cap};
  const InterferenceMap::SoaView hp = interference.soa_of(subtask.ref);
  return solve_ieer_bound(eq, HpView{hp.periods, hp.execs, hp_jitter}, warm);
}

}  // namespace

void shape_ieert_deps(const TaskSystem& system, const InterferenceMap& interference,
                      IeertIncrementalState& state, std::size_t first_task) {
  const std::size_t count = interference.subtask_count();
  state.deps.resize(count);
  state.warm.resize(count);
  for (std::size_t ti = first_task; ti < system.task_count(); ++ti) {
    for (const Subtask& s : system.tasks()[ti].subtasks) {
      const std::span<const Interferer> hp = interference.of(s.ref);
      std::vector<std::uint32_t>& deps = state.deps[interference.flat_index(s.ref)];
      deps.clear();
      deps.reserve(hp.size() + 1);
      const auto push_predecessor = [&](SubtaskRef ref) {
        if (ref.index <= 0) return;
        const auto flat = static_cast<std::uint32_t>(
            interference.flat_index(SubtaskRef{ref.task, ref.index - 1}));
        if (std::find(deps.begin(), deps.end(), flat) == deps.end()) deps.push_back(flat);
      };
      push_predecessor(s.ref);
      for (const Interferer& k : hp) push_predecessor(k.ref);
    }
  }
}

std::size_t ieert_sweep(const TaskSystem& system, const InterferenceMap& interference,
                        SubtaskTable& table, const IeertOptions& options,
                        IeertIncrementalState& state, IeertSweepUndo* undo) {
  const std::size_t count = interference.subtask_count();
  E2E_ASSERT(state.deps.size() == count, "ieert_sweep: deps not maintained");
  E2E_ASSERT(state.warm.size() == count, "ieert_sweep: warm not sized");
  E2E_ASSERT(undo == nullptr || undo->seen.size() == count,
             "ieert_sweep: undo journal not armed");

  const bool incremental = !state.changed.empty();
  std::vector<std::uint8_t> sweep_changed(count, 0);
  std::vector<Duration> hp_jitter;
  std::size_t changed_count = 0;
  for (const Task& t : system.tasks()) {
    for (const Subtask& s : t.subtasks) {
      const std::size_t flat = interference.flat_index(s.ref);
      bool stale = true;
      if (incremental) {
        // Stale iff the caller forced it (equation changed under its
        // feet) or an input changed since this entry was last computed:
        // either during the previous sweep or earlier in this one.
        stale = !state.force.empty() && state.force[flat] != 0;
        for (std::size_t d_idx = 0; !stale && d_idx < state.deps[flat].size();
             ++d_idx) {
          const std::uint32_t d = state.deps[flat][d_idx];
          if (state.changed[d] != 0 || sweep_changed[d] != 0) stale = true;
        }
      }
      if (!stale) continue;  // recomputing would reproduce the entry exactly
      if (undo != nullptr && undo->seen[flat] == 0) {
        undo->seen[flat] = 1;
        undo->entries.push_back(IeertSweepUndo::Entry{
            .ref = s.ref,
            .flat = static_cast<std::uint32_t>(flat),
            .value = table.at(s.ref),
            .warm = state.warm[flat],
        });
      }
      const Duration bound = bound_subtask_ieer(system, interference, s, table, options,
                                                hp_jitter, &state.warm[flat]);
      if (bound != table.at(s.ref)) {
        sweep_changed[flat] = 1;
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
