#include "tests/support/reference_analysis.h"

#include <algorithm>
#include <optional>
#include <utility>
#include <vector>

#include "common/math.h"

namespace e2e::test_support {
namespace {

/// H_{i,j}: the other subtasks on the same processor with priority
/// higher than or equal to `s`'s.
std::vector<const Subtask*> interferers_of(const TaskSystem& system, const Subtask& s) {
  std::vector<const Subtask*> hp;
  for (const SubtaskRef ref : system.subtasks_on(s.processor)) {
    const Subtask& other = system.subtask(ref);
    if (ref != s.ref && higher_or_equal_priority(other.priority, s.priority)) {
      hp.push_back(&other);
    }
  }
  return hp;
}

/// Longest non-preemptible stretch of a strictly lower-priority subtask on
/// the same processor (it may have started one tick before `s` arrives).
Duration blocking_of(const TaskSystem& system, const Subtask& s) {
  Duration worst = 0;
  for (const SubtaskRef ref : system.subtasks_on(s.processor)) {
    const Subtask& other = system.subtask(ref);
    if (ref == s.ref || other.preemptible ||
        higher_or_equal_priority(other.priority, s.priority)) {
      continue;
    }
    worst = std::max(worst, other.execution_time - 1);
  }
  return worst;
}

/// ceil((t + jitter) / period) * exec, saturating.
Duration ceiling_term(Time t, Duration jitter, Duration period, Duration exec) {
  if (is_infinite(t) || is_infinite(jitter)) return kTimeInfinity;
  return sat_mul(ceil_div(sat_add(t, jitter), period), exec);
}

/// Least t >= start with demand(t) <= t, by plain iteration; nullopt once
/// the iterate passes `cap`. Exact when start is at most the fixpoint.
template <typename Demand>
std::optional<Time> least_fixpoint(Time start, Time cap, const Demand& demand) {
  Time t = std::max<Time>(start, 1);
  while (!is_infinite(t) && t <= cap) {
    const Duration w = demand(t);
    if (w <= t) return t;
    t = w;
  }
  return std::nullopt;
}

/// Task `ref.task`'s release jitter plus, for a non-first subtask, its
/// predecessor's IEER bound (minus the predecessor's best case when
/// refined): the release jitter IEERT charges T_{u,v}.
Duration ieert_jitter(const TaskSystem& system, SubtaskRef ref, const SubtaskTable& table,
                      const IeertOptions& options) {
  const Task& task = system.task(ref.task);
  if (ref.index == 0) return task.release_jitter;
  const Duration pred = table.at(SubtaskRef{ref.task, ref.index - 1});
  if (is_infinite(pred)) return kTimeInfinity;
  Duration jitter = pred;
  if (options.refine_jitter_with_best_case) {
    Duration best_case = 0;
    for (std::int32_t j = 0; j < ref.index; ++j) {
      best_case += task.subtasks[static_cast<std::size_t>(j)].execution_time;
    }
    jitter = std::max<Duration>(0, pred - best_case);
  }
  return sat_add(jitter, task.release_jitter);
}

/// Figure 10 steps 1-4 for one subtask against `table`.
Duration reference_ieer(const TaskSystem& system, const Subtask& s,
                        const SubtaskTable& table, const IeertOptions& options) {
  const Task& task = system.task(s.ref.task);
  const Duration p = task.period;
  const Duration e = s.execution_time;
  const Duration own_jitter = ieert_jitter(system, s.ref, table, options);
  const Duration own_accum = sat_add(
      s.ref.index == 0 ? 0 : table.at(SubtaskRef{s.ref.task, s.ref.index - 1}),
      task.release_jitter);
  const Duration cutoff =
      options.failure_period_multiplier > 0.0
          ? static_cast<Duration>(options.failure_period_multiplier * static_cast<double>(p))
          : kTimeInfinity;
  if (is_infinite(own_accum) || own_accum > cutoff) return kTimeInfinity;

  struct Hp {
    Duration period;
    Duration exec;
    Duration jitter;
  };
  std::vector<Hp> hp;
  for (const Subtask* k : interferers_of(system, s)) {
    const Duration jitter = ieert_jitter(system, k->ref, table, options);
    if (is_infinite(jitter)) return kTimeInfinity;
    hp.push_back({system.task(k->ref.task).period, k->execution_time, jitter});
  }
  const auto interference = [&hp](Time t) {
    Duration sum = 0;
    for (const Hp& k : hp) sum = sat_add(sum, ceiling_term(t, k.jitter, k.period, k.exec));
    return sum;
  };
  const Duration blocking = blocking_of(system, s);

  const std::optional<Time> busy = least_fixpoint(1, options.cap, [&](Time t) {
    return sat_add(sat_add(blocking, ceiling_term(t, own_jitter, p, e)), interference(t));
  });
  if (!busy) return kTimeInfinity;
  const std::int64_t instances = ceil_div(sat_add(*busy, own_jitter), p);
  Duration worst = 0;
  Time previous = 0;
  for (std::int64_t m = 1; m <= instances; ++m) {
    const std::optional<Time> completion = least_fixpoint(
        std::max(sat_mul(m, e), sat_add(previous, e)), options.cap,
        [&](Time t) { return sat_add(sat_add(blocking, sat_mul(m, e)), interference(t)); });
    if (!completion) return kTimeInfinity;
    previous = *completion;
    worst = std::max(worst, sat_add(*completion, own_accum) - (m - 1) * p);
    if (worst > cutoff) return kTimeInfinity;
  }
  return worst;
}

}  // namespace

ReferenceResponse reference_response_bound(Duration period, Duration exec,
                                           Duration jitter, Duration blocking, Time cap,
                                           const std::vector<ReferenceInterferer>& hp) {
  const auto interference = [&hp](Time t) {
    Duration sum = 0;
    for (const ReferenceInterferer& k : hp) {
      sum = sat_add(sum, ceiling_term(t, k.jitter, k.period, k.exec));
    }
    return sum;
  };
  ReferenceResponse out;
  const std::optional<Time> busy = least_fixpoint(1, cap, [&](Time t) {
    return sat_add(sat_add(blocking, ceiling_term(t, jitter, period, exec)),
                   interference(t));
  });
  if (!busy) return out;
  const std::int64_t instances = ceil_div(sat_add(*busy, jitter), period);
  Duration worst = 0;
  Time previous = 0;
  for (std::int64_t m = 1; m <= instances; ++m) {
    const std::optional<Time> completion = least_fixpoint(
        std::max(sat_mul(m, exec), sat_add(previous, exec)), cap, [&](Time t) {
          return sat_add(sat_add(blocking, sat_mul(m, exec)), interference(t));
        });
    if (!completion) {
      out.completions.clear();
      return out;
    }
    previous = *completion;
    out.completions.push_back(*completion);
    worst = std::max(worst, sat_add(*completion, jitter) - (m - 1) * period);
  }
  out.bound = worst;
  out.busy = *busy;
  return out;
}

AnalysisResult reference_sa_pm(const TaskSystem& system, const SaPmOptions& options) {
  const Time cap = static_cast<Time>(options.cap_period_multiplier *
                                     static_cast<double>(system.max_period()));
  AnalysisResult result;
  result.subtask_bounds = SubtaskTable{system, 0};
  result.eer_bounds.assign(system.task_count(), 0);
  for (const Task& task : system.tasks()) {
    Duration eer = 0;
    for (const Subtask& s : task.subtasks) {
      std::vector<ReferenceInterferer> hp;
      for (const Subtask* k : interferers_of(system, s)) {
        const Task& owner = system.task(k->ref.task);
        hp.push_back({owner.period, k->execution_time, owner.release_jitter});
      }
      const Duration bound =
          reference_response_bound(task.period, s.execution_time, task.release_jitter,
                                   blocking_of(system, s), cap, hp)
              .bound;
      result.subtask_bounds.set(s.ref, bound);
      eer = sat_add(eer, bound);
    }
    result.eer_bounds[task.id.index()] = eer;
  }
  finalize_schedulability(system, result);
  return result;
}

SubtaskTable reference_ieert_pass(const TaskSystem& system, const SubtaskTable& current,
                                  const IeertOptions& options) {
  SubtaskTable next{system, 0};
  for (const Task& task : system.tasks()) {
    for (const Subtask& s : task.subtasks) {
      next.set(s.ref, reference_ieer(system, s, current, options));
    }
  }
  return next;
}

SaDsResult reference_sa_ds(const TaskSystem& system, const SaDsOptions& options) {
  const auto cutoff_of = [&](const Task& task) {
    return static_cast<Duration>(options.failure_period_multiplier *
                                 static_cast<double>(task.period));
  };
  Duration max_cutoff = 0;
  SubtaskTable current{system, 0};
  for (const Task& task : system.tasks()) {
    max_cutoff = std::max(max_cutoff, cutoff_of(task));
    Duration cumulative = 0;
    for (const Subtask& s : task.subtasks) {
      cumulative += s.execution_time;
      current.set(s.ref, cumulative);
    }
  }
  const IeertOptions ieert{
      .cap = sat_mul(max_cutoff, 2),
      .refine_jitter_with_best_case = options.refine_jitter_with_best_case,
      .failure_period_multiplier = options.failure_period_multiplier};

  SaDsResult result;
  while (result.passes < options.max_passes) {
    SubtaskTable next = reference_ieert_pass(system, current, ieert);
    for (const Task& task : system.tasks()) {
      for (const Subtask& s : task.subtasks) {
        if (next.at(s.ref) > cutoff_of(task)) next.set(s.ref, kTimeInfinity);
      }
    }
    ++result.passes;
    if (next == current) {
      result.converged = true;
      break;
    }
    current = std::move(next);
  }

  result.analysis.subtask_bounds = current;
  result.analysis.eer_bounds.assign(system.task_count(), kTimeInfinity);
  if (result.converged) {
    for (const Task& task : system.tasks()) {
      result.analysis.eer_bounds[task.id.index()] = current.at(task.last_subtask().ref);
    }
  }
  finalize_schedulability(system, result.analysis);
  return result;
}

}  // namespace e2e::test_support
