// Incremental SA/DS (and holistic) verdict engine.
//
// SA/DS is a global Kleene iteration: the IEER table is the least
// fixpoint of cap o IEERT above the optimistic init, so unlike SA/PM
// there is no per-entry locality to exploit directly. What there is
// instead is the monotone-seed theorem: iterating the operator from ANY
// table sandwiched between the init and the new least fixpoint converges
// to exactly that fixpoint. The engine exploits it with fully persistent
// analysis structures -- nothing is rebuilt per request:
//
//  * one TaskSystem, grown/shrunk in place through the sanctioned
//    append_task/remove_task mutators (builder-identical layout);
//  * one InterferenceMap, delta-patched via apply_admit/apply_remove;
//    a rejected trial reverts by removing its appended tasks, last
//    first (bit-identical to fresh construction -- the property tests
//    pin content_hash()). The map also supplies the IEERT dependency
//    edges (an entry reads its own and each interferer's predecessor),
//    so no separate dependency lists are kept;
//  * the committed converged SubtaskTable plus per-subtask FixpointSeeds,
//    delta-maintained and swept IN PLACE by ieert_sweep (no per-pass
//    table copy).
//
// Per-request seeding:
//
//  * admit (single or batch): demand only grows, so every old entry
//    under-approximates the new fixpoint. Survivors keep their values
//    and seeds; entries whose demand equation changed -- the
//    candidates' own, and every resident whose interference set a
//    candidate subtask joins or whose blocking term a non-preemptible
//    candidate subtask may set -- are force-flagged, and the dependency
//    tracking propagates any growth transitively.
//
//  * remove: demand shrinks, so old values OVER-approximate and must
//    not seed the affected entries. The engine resets exactly the dirty
//    cone -- the closure, under reverse IEERT dependencies, of the
//    entries whose equation depended on a departed subtask -- to the
//    optimistic init with empty seeds; entries outside the cone provably
//    keep their exact old fixpoint values (no input of theirs changes).
//
//  * a divergence-cap change (2 x 300 x the max live period, so it
//    moves only when the maximum period changes) invalidates even
//    infinite entries in both directions; the engine then runs cold: it
//    re-initialises the table in place (Figure 11 step 1, empty seeds,
//    no dirty flags) and sweeps, the exact sequence analyze_sa_ds runs
//    over the SAME persistent structures, so the table is byte-identical
//    to the full engine's -- including the trajectory-dependent table of
//    a pass-budget blowout. A seeded trial that blows the budget, and a
//    non-converged committed state, run cold too (mid-iteration bytes
//    are not a valid monotone seed).
//
// Commit semantics: an accepted admit and every remove commit the
// table. Every admit trial, seeded or cold, runs with the IeertSweepUndo
// journal armed, which records each entry's value and seeds before the
// trial first writes them; a rejected admit replays it and removes the
// candidate rows from the system, table and interference map, leaving
// the engine bit-identical to before the request.
#include <algorithm>
#include <optional>
#include <span>
#include <utility>
#include <vector>

#include "admission/engine_internal.h"
#include "common/error.h"
#include "common/math.h"
#include "core/analysis/ieert.h"
#include "core/analysis/sa_ds.h"
#include "task/builder.h"

namespace e2e::admission {
namespace {

/// Spec -> Task, mirroring SystemState::build_with's builder mapping
/// (including the builder's default subtask names) so the persistent
/// system is interchangeable with a freshly built one.
Task task_from_spec(const TaskSpec& spec) {
  Task t;
  t.period = spec.period;
  t.phase = spec.phase;
  t.relative_deadline = spec.deadline;
  t.release_jitter = spec.release_jitter;
  t.name = spec.name;
  t.subtasks.reserve(spec.subtasks.size());
  for (std::size_t j = 0; j < spec.subtasks.size(); ++j) {
    const SubtaskSpec& sub = spec.subtasks[j];
    Subtask s;
    s.processor = ProcessorId{sub.processor};
    s.execution_time = sub.execution_time;
    s.priority = Priority{sub.priority_level};
    s.preemptible = sub.preemptible;
    s.name = t.name + "," + std::to_string(j + 1);
    t.subtasks.push_back(std::move(s));
  }
  return t;
}

/// What the remove cone reads of a departed subtask.
struct DepartedSubtask {
  ProcessorId processor;
  Priority priority;
  bool preemptible = true;
};

/// Whether adding or removing subtask `changed` (a Subtask or a
/// DepartedSubtask) alters the IEERT equation of `resident` on the same
/// processor: `changed` is in its interference set (priority >= its own)
/// or, being non-preemptible, may set its blocking term.
template <typename Changed>
bool equation_depends_on(const Changed& changed, const Subtask& resident) {
  return !changed.preemptible ||
         higher_or_equal_priority(changed.priority, resident.priority);
}

class IncrementalDsEngine final : public Engine {
 public:
  explicit IncrementalDsEngine(bool refine)
      : options_{.refine_jitter_with_best_case = refine} {}

  TrialVerdict admit(const SystemState& state, std::uint32_t slot,
                     const TaskSpec& spec) override {
    return admit_batch(state, slot, std::span<const TaskSpec>{&spec, 1});
  }

  TrialVerdict admit_batch(const SystemState& state, std::uint32_t first_slot,
                           std::span<const TaskSpec> specs) override {
    E2E_ASSERT(!specs.empty(), "admit_batch: empty batch");
    if (!system_.has_value()) return bootstrap(state, first_slot, specs);

    const std::size_t old_tasks = system_->task_count();
    const std::size_t old_count = imap_.subtask_count();

    // -- Grow every persistent structure by the whole batch. --
    for (const TaskSpec& spec : specs) {
      system_->append_task(task_from_spec(spec));
      imap_.apply_admit(*system_);
    }
    const std::size_t count = imap_.subtask_count();
    state_.seeds.resize(count);  // candidate seeds start cold
    for (std::size_t ti = old_tasks; ti < system_->task_count(); ++ti) {
      const Task& t = system_->tasks()[ti];
      table_.append_row(t.subtasks.size(), 0);
      for_each_optimistic_init(t,
                               [&](const Subtask& s, Duration r0) { table_.set(s.ref, r0); });
      slots_.push_back(first_slot + static_cast<std::uint32_t>(ti - old_tasks));
    }

    // -- One analysis trajectory over the grown structures, journaled. --
    undo_.arm(count);
    const Time new_cap = divergence_cap();
    bool trial_converged = false;
    if (new_cap != cap_ || !converged_) {
      trial_converged = run_cold(&undo_);
    } else {
      state_.changed.assign(count, 0);  // arm the dependency dirty-skip
      state_.force.assign(count, 0);
      // Equation-changed region: the candidates' own entries and every
      // resident whose equation depends on a candidate subtask. All other
      // equations, and so their converged values, are unchanged.
      for (std::size_t ti = old_tasks; ti < system_->task_count(); ++ti) {
        for (const Subtask& c : system_->tasks()[ti].subtasks) {
          for (const SubtaskRef ref : system_->subtasks_on(c.processor)) {
            if (ref.task.index() >= old_tasks ||
                equation_depends_on(c, system_->subtask(ref))) {
              state_.force[imap_.flat_index(ref)] = 1;
            }
          }
        }
      }
      trial_converged = sweep_to_fixpoint(&undo_);
      // Pass-budget blowout: only the cold trajectory's mid-iteration
      // bytes match the offline analyze_sa_ds.
      if (!trial_converged) trial_converged = run_cold(&undo_);
    }

    refresh_outcomes(trial_converged);
    if (all_schedulable()) {
      cap_ = new_cap;
      converged_ = trial_converged;
      return {true, std::nullopt};
    }

    // -- Reject: restore everything byte-for-byte. --
    TrialFailure failure = failure_of(first_slot);
    undo_.replay(table_, state_);
    for (std::size_t k = specs.size(); k-- > 0;) {
      table_.remove_row(old_tasks + k);
      system_->remove_task(old_tasks + k);
      imap_.apply_remove(old_tasks + k);
    }
    state_.seeds.resize(old_count);
    slots_.resize(old_tasks);
    refresh_outcomes(converged_);
    return {false, std::move(failure)};
  }

  TrialVerdict remove(const SystemState& state, std::uint32_t slot) override {
    if (state.task_count() <= 1) {  // removing the last task: empty system
      reset_empty();
      return {true, std::nullopt};
    }
    const auto it = std::find(slots_.begin(), slots_.end(), slot);
    E2E_ASSERT(it != slots_.end(), "remove: slot not tracked");
    const auto idx = static_cast<std::size_t>(it - slots_.begin());
    departed_.clear();
    for (const Subtask& s : system_->tasks()[idx].subtasks) {
      departed_.push_back({s.processor, s.priority, s.preemptible});
    }
    const std::size_t base =
        imap_.flat_index(SubtaskRef{TaskId{static_cast<std::int32_t>(idx)}, 0});
    const std::size_t len = departed_.size();
    const std::size_t old_count = imap_.subtask_count();
    const std::size_t count = old_count - len;

    // -- Shrink every persistent structure (removal always commits). --
    system_->remove_task(idx);
    imap_.apply_remove(idx);
    table_.remove_row(idx);
    slots_.erase(it);
    state_.seeds.erase(state_.seeds.begin() + static_cast<std::ptrdiff_t>(base),
                       state_.seeds.begin() + static_cast<std::ptrdiff_t>(base + len));

    const Time new_cap = divergence_cap();
    if (new_cap != cap_ || !converged_) {
      converged_ = run_cold(nullptr);
    } else {
      state_.changed.assign(count, 0);
      state_.force.assign(count, 0);
      // Dirty cone: the entries whose equation depended on a departed
      // subtask (interference sets shrank, blocking terms may have) ...
      std::vector<std::uint8_t> in_cone(count, 0);
      std::vector<std::uint32_t> queue;
      for (const DepartedSubtask& d : departed_) {
        for (const SubtaskRef ref : system_->subtasks_on(d.processor)) {
          const auto flat = static_cast<std::uint32_t>(imap_.flat_index(ref));
          if (in_cone[flat] != 0 || !equation_depends_on(d, system_->subtask(ref))) continue;
          in_cone[flat] = 1;
          queue.push_back(flat);
        }
      }
      // ... closed under reverse IEERT dependencies (read off the map
      // as CSR reverse edges). Outside the cone no input changes, so old
      // values remain exact fixpoint entries.
      std::vector<std::pair<std::uint32_t, std::uint32_t>> edges;  // (input, dependent)
      for (const Task& t : system_->tasks()) {
        for (const Subtask& s : t.subtasks) {
          const auto dependent = static_cast<std::uint32_t>(imap_.flat_index(s.ref));
          (void)imap_.any_input_of(s.ref, [&](std::size_t input) {
            edges.emplace_back(static_cast<std::uint32_t>(input), dependent);
            return false;
          });
        }
      }
      std::vector<std::uint32_t> rdep_begin(count + 1, 0);
      for (const auto& [input, dependent] : edges) ++rdep_begin[input + 1];
      for (std::size_t f = 0; f < count; ++f) rdep_begin[f + 1] += rdep_begin[f];
      std::vector<std::uint32_t> rdep_flat(edges.size());
      std::vector<std::uint32_t> cursor(rdep_begin.begin(), rdep_begin.end() - 1);
      for (const auto& [input, dependent] : edges) rdep_flat[cursor[input]++] = dependent;
      while (!queue.empty()) {
        const std::uint32_t flat = queue.back();
        queue.pop_back();
        for (std::uint32_t r = rdep_begin[flat]; r < rdep_begin[flat + 1]; ++r) {
          const std::uint32_t dependent = rdep_flat[r];
          if (in_cone[dependent] != 0) continue;
          in_cone[dependent] = 1;
          queue.push_back(dependent);
        }
      }
      // Cone entries restart from the optimistic init with cold seeds
      // (their old values over-approximate the shrunk fixpoint).
      for (const Task& t : system_->tasks()) {
        for_each_optimistic_init(t, [&](const Subtask& s, Duration r0) {
          const std::size_t flat = imap_.flat_index(s.ref);
          if (in_cone[flat] == 0) return;
          table_.set(s.ref, r0);
          state_.seeds[flat].clear();
          state_.force[flat] = 1;
        });
      }
      converged_ = sweep_to_fixpoint(nullptr);
      if (!converged_) converged_ = run_cold(nullptr);
    }
    cap_ = new_cap;
    refresh_outcomes(converged_);
    if (all_schedulable()) return {true, std::nullopt};
    return {false, failure_of(std::nullopt)};
  }

  std::uint64_t fold_bounds(std::uint64_t acc) const override {
    for (std::size_t i = 0; i < slots_.size(); ++i) {
      acc = detail::fold_task_bounds(acc, eers_[i], table_.row(i));
    }
    return acc;
  }

  double margin() const override {
    double worst = 0.0;
    for (std::size_t i = 0; i < slots_.size(); ++i) {
      worst = std::max(
          worst, detail::margin_ratio(eers_[i], system_->tasks()[i].relative_deadline));
    }
    return worst;
  }

  const char* name() const noexcept override { return "incremental"; }

  std::optional<StructureDigest> structure_digest() const override {
    if (!system_.has_value()) return std::nullopt;
    return StructureDigest{.interference_hash = imap_.content_hash(),
                           .table_hash = table_.content_hash()};
  }

 private:
  /// First admit(s) into an empty engine: build the candidate-only
  /// system through the builder (build_with's path) and analyze cold.
  TrialVerdict bootstrap(const SystemState& state, std::uint32_t first_slot,
                         std::span<const TaskSpec> specs) {
    TaskSystemBuilder builder{state.processor_count()};
    for (const TaskSpec& spec : specs) {
      auto handle = builder.add_task({.period = spec.period,
                                      .phase = spec.phase,
                                      .deadline = spec.deadline,
                                      .release_jitter = spec.release_jitter,
                                      .name = spec.name});
      for (const SubtaskSpec& sub : spec.subtasks) {
        handle.subtask(ProcessorId{sub.processor}, sub.execution_time,
                       Priority{sub.priority_level});
        if (!sub.preemptible) handle.non_preemptible();
      }
    }
    system_.emplace(std::move(builder).build());
    imap_ = InterferenceMap{*system_};
    table_ = SubtaskTable{*system_, 0};
    state_ = IeertIncrementalState{};
    state_.seeds.resize(imap_.subtask_count());
    for (std::size_t i = 0; i < specs.size(); ++i) {
      slots_.push_back(first_slot + static_cast<std::uint32_t>(i));
    }
    const bool trial_converged = run_cold(nullptr);
    refresh_outcomes(trial_converged);
    if (all_schedulable()) {
      cap_ = divergence_cap();
      converged_ = trial_converged;
      return {true, std::nullopt};
    }
    TrialFailure failure = failure_of(first_slot);
    reset_empty();
    return {false, std::move(failure)};
  }

  void reset_empty() {
    system_.reset();
    imap_ = InterferenceMap{};
    table_ = SubtaskTable{};
    state_ = IeertIncrementalState{};
    slots_.clear();
    eers_.clear();
    cap_ = -1;
    converged_ = true;
  }

  /// analyze_sa_ds's divergence cap for the current system, so the seeded
  /// sweeps and the offline analysis cap identically.
  [[nodiscard]] Time divergence_cap() const {
    return sa_ds_ieert_options(*system_, options_).cap;
  }

  /// In-place sweeps until fixpoint or pass budget: the same loop
  /// analyze_sa_ds runs, over the persistent table and seeds.
  [[nodiscard]] bool sweep_to_fixpoint(IeertSweepUndo* undo) {
    return sweep_sa_ds_to_fixpoint(*system_, imap_, table_,
                                   sa_ds_ieert_options(*system_, options_),
                                   options_.max_passes, state_, undo)
        .converged;
  }

  /// The cold trajectory, in place: analyze_sa_ds's own code over the
  /// persistent table, so it comes out byte-identical to the
  /// full-recompute engine's, even the mid-iteration table of a
  /// pass-budget blowout.
  [[nodiscard]] bool run_cold(IeertSweepUndo* undo) {
    return sweep_sa_ds_from_init(*system_, imap_, table_,
                                 sa_ds_ieert_options(*system_, options_),
                                 options_.max_passes, state_, undo)
        .converged;
  }

  /// Per-task EERs from the committed table: the last subtask's IEER
  /// bound when converged, infinity otherwise (matching analyze_sa_ds's
  /// non-convergence semantics).
  void refresh_outcomes(bool converged) {
    const std::size_t n = system_.has_value() ? system_->task_count() : 0;
    eers_.assign(n, kTimeInfinity);
    if (!converged) return;
    for (const Task& t : system_->tasks()) {
      eers_[t.id.index()] = table_.at(t.last_subtask().ref);
    }
  }

  [[nodiscard]] bool schedulable(std::size_t i) const {
    return !is_infinite(eers_[i]) &&
           eers_[i] <= system_->tasks()[i].relative_deadline;
  }

  [[nodiscard]] bool all_schedulable() const {
    for (std::size_t i = 0; i < slots_.size(); ++i) {
      if (!schedulable(i)) return false;
    }
    return true;
  }

  /// Rejection detail from the first unschedulable task in build
  /// (ascending slot) order. `first_candidate_slot`: slots at or above
  /// it are trial candidates.
  [[nodiscard]] TrialFailure failure_of(
      std::optional<std::uint32_t> first_candidate_slot) const {
    TrialFailure failure;
    for (std::size_t i = 0; i < slots_.size(); ++i) {
      if (schedulable(i)) continue;
      failure.slot = slots_[i];
      failure.is_candidate = first_candidate_slot.has_value() &&
                             failure.slot >= *first_candidate_slot;
      failure.eer = eers_[i];
      failure.deadline = system_->tasks()[i].relative_deadline;
      const std::span<const Duration> row = table_.row(i);
      failure.subtask_bounds.assign(row.begin(), row.end());
      break;
    }
    return failure;
  }

  const SaDsOptions options_;
  // Persistent committed structures; all empty iff system_ is empty.
  std::optional<TaskSystem> system_;
  std::vector<std::uint32_t> slots_;  ///< per task index, ascending
  InterferenceMap imap_;
  SubtaskTable table_;           ///< committed (converged) IEER bounds
  IeertIncrementalState state_;  ///< persistent fixpoint seeds
  std::vector<Duration> eers_;   ///< per task index
  Time cap_ = -1;        ///< divergence cap of the committed analysis; -1 = none
  bool converged_ = true;  ///< committed table reached a fixpoint
  IeertSweepUndo undo_;    ///< reusable trial journal
  std::vector<DepartedSubtask> departed_;  ///< reusable remove buffer
};

}  // namespace

namespace detail {
std::unique_ptr<Engine> make_incremental_ds_engine(bool refine) {
  return std::make_unique<IncrementalDsEngine>(refine);
}
}  // namespace detail

}  // namespace e2e::admission
