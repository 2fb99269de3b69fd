#include "core/analysis/interference.h"

#include <algorithm>

#include "common/hash.h"

namespace e2e {

InterferenceMap::InterferenceMap(const TaskSystem& system) {
  for (const Task& t : system.tasks()) {
    for (const Subtask& s : t.subtasks) append_row(system, s);
    task_base_.push_back(range_begin_.size() - 1);
  }
}

void InterferenceMap::push_member(const TaskSystem& system, SubtaskRef member) {
  const Task& task = system.task(member.task);
  refs_.push_back(member);
  periods_.push_back(task.period);
  execs_.push_back(system.subtask(member).execution_time);
  jitters_.push_back(task.release_jitter);
}

void InterferenceMap::append_row(const TaskSystem& system, const Subtask& subtask) {
  for (const SubtaskRef other_ref : system.subtasks_on(subtask.processor)) {
    if (other_ref == subtask.ref) continue;
    if (!higher_or_equal_priority(system.subtask(other_ref).priority, subtask.priority)) {
      continue;
    }
    push_member(system, other_ref);
  }
  range_begin_.push_back(refs_.size());
}

void InterferenceMap::apply_admit(const TaskSystem& system) {
  const std::size_t old_tasks = task_base_.size() - 1;
  E2E_ASSERT(system.task_count() == old_tasks + 1,
             "apply_admit: system must have exactly one appended task");
  const Task& cand = system.tasks().back();
  const std::span<const Task> residents = system.tasks().first(old_tasks);

  // Resident sets on the candidate's processors gain the candidate
  // subtasks that interfere with them -- appended at the END of each set,
  // in candidate chain order, exactly where a fresh subtasks_on(p) scan
  // (candidate refs last, builder layout) would have put them.
  const auto interferes = [](const Subtask& c, const Subtask& s) {
    return c.processor == s.processor && higher_or_equal_priority(c.priority, s.priority);
  };
  const auto gain = [&](const Subtask& s) {
    return static_cast<std::size_t>(
        std::count_if(cand.subtasks.begin(), cand.subtasks.end(),
                      [&](const Subtask& c) { return interferes(c, s); }));
  };
  // Forward: shift every resident row's end by the growth up to it.
  std::size_t shift = 0;
  std::size_t row = 0;
  for (const Task& t : residents) {
    for (const Subtask& s : t.subtasks) {
      shift += gain(s);
      range_begin_[++row] += shift;
    }
  }
  // Backward: move each block of rows between two growing rows up by its
  // shift in one go, then write the growing row's new members.
  const std::size_t old_size = refs_.size();
  refs_.resize(old_size + shift);
  periods_.resize(old_size + shift);
  execs_.resize(old_size + shift);
  jitters_.resize(old_size + shift);
  std::size_t block_end = old_size;  // old end of the rows not yet moved
  for (auto t = residents.rbegin(); t != residents.rend() && shift > 0; ++t) {
    for (auto s = t->subtasks.rbegin(); s != t->subtasks.rend(); ++s, --row) {
      const std::size_t g = gain(*s);
      if (g == 0) continue;
      const std::size_t new_end = range_begin_[row];
      const std::size_t old_end = new_end - shift;
      const auto move_up = [&](auto& v) {
        std::move_backward(v.begin() + static_cast<std::ptrdiff_t>(old_end),
                           v.begin() + static_cast<std::ptrdiff_t>(block_end),
                           v.begin() + static_cast<std::ptrdiff_t>(block_end + shift));
      };
      move_up(refs_);
      move_up(periods_);
      move_up(execs_);
      move_up(jitters_);
      std::size_t at = new_end - g;
      for (const Subtask& c : cand.subtasks) {
        if (!interferes(c, *s)) continue;
        refs_[at] = c.ref;
        periods_[at] = cand.period;
        execs_[at] = c.execution_time;
        jitters_[at] = cand.release_jitter;
        ++at;
      }
      shift -= g;
      block_end = old_end;
    }
  }
  // The candidate's own rows, built with the constructor's scan (its
  // interferers include residents AND earlier/later candidate subtasks
  // sharing a processor).
  for (const Subtask& s : cand.subtasks) append_row(system, s);
  task_base_.push_back(range_begin_.size() - 1);
}

void InterferenceMap::apply_remove(std::size_t removed) {
  E2E_ASSERT(removed + 1 < task_base_.size(), "apply_remove: task out of range");
  const auto removed_id = static_cast<std::int32_t>(removed);
  const std::size_t gone_begin = task_base_[removed];
  const std::size_t gone_end = task_base_[removed + 1];
  const std::size_t rows = range_begin_.size() - 1;

  // One forward pass: every write lands at or before its read, so row f's
  // bounds are read before any later row rewrites them.
  std::size_t write = 0;
  std::size_t row_write = 0;
  std::size_t begin = range_begin_[0];
  for (std::size_t f = 0; f < rows; ++f) {
    const std::size_t end = range_begin_[f + 1];
    if (f < gone_begin || f >= gone_end) {
      for (std::size_t k = begin; k < end; ++k) {
        SubtaskRef ref = refs_[k];
        if (ref.task.value() == removed_id) continue;
        if (ref.task.value() > removed_id) ref.task = TaskId{ref.task.value() - 1};
        refs_[write] = ref;
        periods_[write] = periods_[k];
        execs_[write] = execs_[k];
        jitters_[write] = jitters_[k];
        ++write;
      }
      range_begin_[++row_write] = write;
    }
    begin = end;
  }
  range_begin_.resize(row_write + 1);
  refs_.resize(write);
  periods_.resize(write);
  execs_.resize(write);
  jitters_.resize(write);

  task_base_.erase(task_base_.begin() + static_cast<std::ptrdiff_t>(removed) + 1);
  for (std::size_t t = removed + 1; t < task_base_.size(); ++t) {
    task_base_[t] -= gone_end - gone_begin;
  }
}

std::uint64_t InterferenceMap::content_hash() const noexcept {
  std::uint64_t h = hash_combine(0, task_base_.size() - 1);
  for (std::size_t t = 0; t + 1 < task_base_.size(); ++t) {
    h = hash_combine(h, task_base_[t + 1] - task_base_[t]);
    for (std::size_t f = task_base_[t]; f < task_base_[t + 1]; ++f) {
      h = hash_combine(h, range_begin_[f + 1] - range_begin_[f]);
      for (std::size_t k = range_begin_[f]; k < range_begin_[f + 1]; ++k) {
        h = hash_combine(h, static_cast<std::uint64_t>(refs_[k].task.value()));
        h = hash_combine(h, static_cast<std::uint64_t>(refs_[k].index));
        h = hash_combine(h, static_cast<std::uint64_t>(periods_[k]));
        h = hash_combine(h, static_cast<std::uint64_t>(execs_[k]));
        h = hash_combine(h, static_cast<std::uint64_t>(jitters_[k]));
      }
    }
  }
  return h;
}

}  // namespace e2e
