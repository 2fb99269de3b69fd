#include "core/analysis/bounds.h"

#include "common/error.h"
#include "common/hash.h"

namespace e2e {

SubtaskTable::SubtaskTable(const TaskSystem& system, Duration initial) {
  values_.resize(system.task_count());
  for (const Task& t : system.tasks()) {
    values_[t.id.index()].assign(t.subtasks.size(), initial);
  }
}

Duration SubtaskTable::predecessor_or_zero(SubtaskRef ref) const {
  if (ref.index <= 0) return 0;
  return at(SubtaskRef{ref.task, ref.index - 1});
}

void SubtaskTable::append_row(std::size_t chain_length, Duration initial) {
  values_.emplace_back().assign(chain_length, initial);
}

void SubtaskTable::remove_row(std::size_t task_index) {
  E2E_ASSERT(task_index < values_.size(), "SubtaskTable: task out of range");
  values_.erase(values_.begin() + static_cast<std::ptrdiff_t>(task_index));
}

std::uint64_t SubtaskTable::content_hash() const noexcept {
  std::uint64_t h = hash_combine(0, values_.size());
  for (const auto& row : values_) {
    h = hash_combine(h, row.size());
    for (const Duration v : row) h = hash_combine(h, static_cast<std::uint64_t>(v));
  }
  return h;
}

bool SubtaskTable::any_infinite() const noexcept {
  for (const auto& row : values_) {
    for (const Duration v : row) {
      if (is_infinite(v)) return true;
    }
  }
  return false;
}

bool AnalysisResult::all_bounded() const noexcept {
  for (const Duration b : eer_bounds) {
    if (is_infinite(b)) return false;
  }
  return true;
}

bool AnalysisResult::system_schedulable() const noexcept {
  for (const bool ok : task_schedulable) {
    if (!ok) return false;
  }
  return !task_schedulable.empty();
}

void finalize_schedulability(const TaskSystem& system, AnalysisResult& result) {
  result.task_schedulable.assign(system.task_count(), false);
  for (const Task& t : system.tasks()) {
    const Duration bound = result.eer_bounds.at(t.id.index());
    result.task_schedulable[t.id.index()] =
        !is_infinite(bound) && bound <= t.relative_deadline;
  }
}

}  // namespace e2e
