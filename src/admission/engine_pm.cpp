// Incremental SA/PM verdict engine.
//
// Under SA/PM every subtask bound is a pure function of its own demand
// equation: (period, exec, jitter, blocking, cap) plus the co-located
// higher-or-equal-priority interferer parameters. The engine therefore
// keeps, per processor, a plane of resident subtask entries, and per
// subtask its converged bound, its fixpoint seeds and the blocking term
// they were solved with, and on every request re-solves exactly the
// entries whose equation changed, by a structural rule: an entry of a
// touched plane is re-solved iff
//
//  * the divergence cap changed; or
//  * its level is at or below the highest priority (lowest level) of any
//    subtask the request adds to or removes from that plane -- that
//    subtask joins or leaves its hp set; or
//  * its blocking term differs from the stored one -- the only input a
//    non-preemptible subtask changes above its own level.
//
// Every other equation in the system -- interferer set, blocking, cap --
// is bit-identical, so its stored fixpoints stand with no monotonicity
// argument. Further:
//
//  * admits never shrink demand or the cap, so the stored fixpoints are
//    lower bounds of the new ones and re-solves start from them (an
//    unbounded solve stores no seeds, so those entries restart cold);
//  * removes shrink demand, so a touched entry's seeds are cleared and
//    it restarts cold;
//  * the divergence cap is 300 x the maximum live period; when the
//    maximum period changes, every equation in the system changes and
//    the sweep widens to all processors -- rare under steady churn.
//
// Layout. Each plane holds its entries (level, preemptibility, slot,
// chain index and a handle into the task slab) sorted by (level, slot,
// chain index), with structure-of-arrays columns of the inputs other
// equations read -- task period, exec, task jitter -- kept in step. An
// entry's hp set is then two runs of those columns: the prefix before
// it and the same-level run after it, passed to the kernel as views and
// never copied. Its blocking term is a suffix maximum, and the entries a
// change enters are a suffix too. Task records live in a slab of
// reusable handles, so a request allocates nothing once the slab, the
// planes and the per-request buffers have grown to the working set.
//
// A rejected admit rolls back by swap-restore: before a resident entry
// is re-solved its bound, seeds and blocking term are copied into a member
// snapshot pool (which keeps its capacity), and a rejection swaps every
// snapshot back; EERs, the failing set and the margin memo are restored
// from undo records. Trial state never leaks. `query`'s margin is memoised: a refresh that
// raises a ratio above the maximum moves it, and only when the task
// holding the maximum leaves or its ratio drops is it recomputed, once,
// in O(live tasks) on the next query.
//
// No TaskSystem or InterferenceMap is ever built: per-request cost is
// proportional to the touched processors' residents, not to the system
// -- which is where the order-of-magnitude win over full recompute comes
// from (bench_admission).
#include <algorithm>
#include <limits>
#include <utility>
#include <vector>

#include "admission/engine_internal.h"
#include "common/math.h"
#include "core/analysis/kernels.h"
#include "core/analysis/sa_pm.h"

namespace e2e::admission {
namespace {

constexpr std::uint32_t kNoTask = std::numeric_limits<std::uint32_t>::max();

/// Per-subtask analysis state: the committed bound R_{i,j}, the blocking
/// term and the fixpoint seeds it was solved with.
struct PmSub {
  int processor = -1;
  int level = 0;
  Duration blocking = 0;
  Duration bound = 0;
  FixpointSeeds seeds;
};

struct PmTask {
  std::uint32_t slot = 0;
  Duration period = 0;
  Duration jitter = 0;
  Duration deadline = 0;
  Duration eer = 0;
  std::uint64_t mark = 0;  ///< == epoch_: already queued for a refresh
  std::vector<PmSub> subs;
};

/// One resident subtask of a processor plane.
struct PlaneEntry {
  int level = 0;
  bool preemptible = true;
  std::uint32_t slot = 0;
  std::uint32_t sub = 0;   ///< chain index
  std::uint32_t task = 0;  ///< handle into the task slab
};

[[nodiscard]] bool plane_before(const PlaneEntry& a, const PlaneEntry& b) noexcept {
  if (a.level != b.level) return a.level < b.level;
  return a.slot != b.slot ? a.slot < b.slot : a.sub < b.sub;
}

/// A processor's residents sorted by plane_before, with the inputs other
/// equations read from them in columns at the same index.
struct Plane {
  std::vector<PlaneEntry> entries;
  std::vector<Duration> periods;  ///< the task's period
  std::vector<Duration> execs;
  std::vector<Duration> jitters;  ///< the task's release jitter

  /// Columns [begin, end) as an interference run.
  [[nodiscard]] HpView run(std::size_t begin, std::size_t end) const {
    const std::size_t count = end - begin;
    return HpView{.periods = std::span{periods}.subspan(begin, count),
                  .execs = std::span{execs}.subspan(begin, count),
                  .jitters = std::span{jitters}.subspan(begin, count)};
  }

  void insert(const PlaneEntry& entry, Duration period, Duration exec, Duration jitter) {
    const auto at = std::upper_bound(entries.begin(), entries.end(), entry, plane_before) -
                    entries.begin();
    entries.insert(entries.begin() + at, entry);
    periods.insert(periods.begin() + at, period);
    execs.insert(execs.begin() + at, exec);
    jitters.insert(jitters.begin() + at, jitter);
  }

  void erase(const PlaneEntry& key) {
    const auto at = std::lower_bound(entries.begin(), entries.end(), key, plane_before) -
                    entries.begin();
    entries.erase(entries.begin() + at);
    periods.erase(periods.begin() + at);
    execs.erase(execs.begin() + at);
    jitters.erase(jitters.begin() + at);
  }
};

class IncrementalPmEngine final : public Engine {
 public:
  TrialVerdict admit(const SystemState& state, std::uint32_t slot,
                     const TaskSpec& spec) override {
    return admit_batch(state, slot, std::span<const TaskSpec>{&spec, 1});
  }

  TrialVerdict admit_batch(const SystemState& state, std::uint32_t first_slot,
                           std::span<const TaskSpec> specs) override {
    begin_request(state.processor_count());
    const bool was_empty = by_slot_.empty();
    const Memo saved_memo = memo_;
    const Duration saved_max_period = max_period_;
    const std::size_t saved_max_count = max_period_count_;
    for (std::size_t i = 0; i < specs.size(); ++i) {
      insert_task(first_slot + static_cast<std::uint32_t>(i), specs[i]);
    }
    const Time new_cap = cap_from_periods();
    const bool cap_changed = was_empty || new_cap != cap_;
    touch_planes(specs, cap_changed);
    for (const std::uint32_t p : touched_) {
      solve_plane(p, new_cap, cap_changed, first_slot);
    }
    for (const std::uint32_t h : dirty_) {
      if (tasks_[h].slot < first_slot) eer_undo_.emplace_back(h, tasks_[h].eer);
      refresh_task(h);
    }

    if (failing_.empty()) {
      cap_ = new_cap;
      return {true, std::nullopt};
    }

    TrialFailure failure = failure_of(failing_.front(), first_slot);
    // Roll back: the engine must be bit-identical to before the trial.
    for (std::size_t k = 0; k < snap_count_; ++k) {
      Snapshot& snap = snaps_[k];
      PmSub& sub = tasks_[snap.task].subs[snap.sub];
      std::swap(snap.seeds, sub.seeds);
      sub.blocking = snap.blocking;
      sub.bound = snap.bound;
    }
    for (const auto& [h, eer] : eer_undo_) tasks_[h].eer = eer;
    for (std::size_t k = failing_undo_.size(); k-- > 0;) {
      set_failing(failing_undo_[k].first, failing_undo_[k].second);
    }
    for (std::size_t i = specs.size(); i-- > 0;) {
      unlink_task(by_slot_.back().second);
      by_slot_.pop_back();
    }
    memo_ = saved_memo;
    max_period_ = saved_max_period;
    max_period_count_ = saved_max_count;
    return {false, std::move(failure)};
  }

  TrialVerdict remove(const SystemState& state, std::uint32_t slot) override {
    begin_request(state.processor_count());
    const TaskSpec& spec = state.spec(slot);
    const auto pos = slot_position(slot);
    const std::uint32_t h = pos->second;
    by_slot_.erase(pos);
    unlink_task(h);
    set_failing(slot, false);
    if (h == memo_.task) memo_.stale = true;
    if (spec.period == max_period_ && --max_period_count_ == 0) rescan_max_period();
    if (by_slot_.empty()) {
      memo_ = Memo{};
      return {true, std::nullopt};
    }

    const Time new_cap = cap_from_periods();
    const bool cap_changed = new_cap != cap_;
    touch_planes({&spec, 1}, cap_changed);
    for (const std::uint32_t p : touched_) {
      solve_plane(p, new_cap, cap_changed, std::nullopt);
    }
    for (const std::uint32_t d : dirty_) refresh_task(d);
    cap_ = new_cap;
    if (failing_.empty()) return {true, std::nullopt};
    return {false, failure_of(failing_.front(), std::nullopt)};
  }

  std::uint64_t fold_bounds(std::uint64_t acc) const override {
    for (const auto& [slot, h] : by_slot_) {
      const PmTask& task = tasks_[h];
      acc = hash_combine(acc, static_cast<std::uint64_t>(task.eer));
      for (const PmSub& sub : task.subs) {
        acc = hash_combine(acc, static_cast<std::uint64_t>(sub.bound));
      }
    }
    return acc;
  }

  double margin() const override {
    if (memo_.stale) {
      memo_ = Memo{};
      for (const auto& [slot, h] : by_slot_) note_ratio(h);
    }
    return memo_.worst;
  }

  const char* name() const noexcept override { return "incremental"; }

 private:
  /// max over live tasks of margin_ratio, and a task holding it. While
  /// `stale` the pair is unknown and the next margin() rescans.
  struct Memo {
    double worst = 0.0;
    std::uint32_t task = kNoTask;
    bool stale = false;
  };

  /// A resident's state as it was before the current trial re-solved it.
  struct Snapshot {
    std::uint32_t task = 0;
    std::uint32_t sub = 0;
    Duration blocking = 0;
    Duration bound = 0;
    FixpointSeeds seeds;
  };

  /// Starts a request: sizes the per-processor buffers (once) and
  /// clears the per-request records, keeping their capacity.
  void begin_request(std::size_t processors) {
    planes_.resize(processors);
    plane_mark_.resize(processors, 0);
    plane_from_.resize(processors, 0);
    plane_np_.resize(processors, false);
    ++epoch_;
    touched_.clear();
    dirty_.clear();
    snap_count_ = 0;
    eer_undo_.clear();
    failing_undo_.clear();
  }

  /// Marks the planes `specs` change and, per plane, the lowest level
  /// whose hp sets a changed subtask enters and whether one is
  /// non-preemptible (then blocking terms above it may move too); a cap
  /// change marks every entry of every plane.
  void touch_planes(std::span<const TaskSpec> specs, bool cap_changed) {
    if (cap_changed) {
      for (std::uint32_t p = 0; p < planes_.size(); ++p) touched_.push_back(p);
      return;
    }
    for (const TaskSpec& spec : specs) {
      for (const SubtaskSpec& sub : spec.subtasks) {
        const auto p = static_cast<std::uint32_t>(sub.processor);
        if (plane_mark_[p] != epoch_) {
          plane_mark_[p] = epoch_;
          plane_from_[p] = sub.priority_level;
          plane_np_[p] = !sub.preemptible;
          touched_.push_back(p);
        } else {
          plane_from_[p] = std::min(plane_from_[p], sub.priority_level);
          plane_np_[p] = plane_np_[p] || !sub.preemptible;
        }
      }
    }
  }

  /// Re-solves the entries of plane `p` the structural rule names (see
  /// the top of the file). `first_candidate` is set for an admit trial
  /// (seeded re-solves, residents snapshotted first) and unset for a
  /// remove (cold re-solves, always committed).
  void solve_plane(std::uint32_t p, Time cap, bool cap_changed,
                   std::optional<std::uint32_t> first_candidate) {
    const Plane& plane = planes_[p];
    const std::vector<PlaneEntry>& entries = plane.entries;
    const std::size_t n = entries.size();
    // blocking_[k]: the largest non-preemptible blocking term among
    // entries k..n-1 -- the blocking of any entry whose hp prefix ends at k.
    blocking_.resize(n + 1);
    blocking_[n] = 0;
    for (std::size_t k = n; k-- > 0;) {
      blocking_[k] = entries[k].preemptible
                         ? blocking_[k + 1]
                         : std::max(blocking_[k + 1], plane.execs[k] - 1);
    }
    const int from = plane_from_[p];
    // Entries above `from` keep their hp sets; only a non-preemptible
    // change can move their blocking terms, so only then are they scanned.
    const std::size_t begin =
        cap_changed || plane_np_[p]
            ? 0
            : static_cast<std::size_t>(
                  std::partition_point(entries.begin(), entries.end(),
                                       [from](const PlaneEntry& e) {
                                         return e.level < from;
                                       }) -
                  entries.begin());
    std::size_t hp_end = begin;  // first entry of strictly lower priority
    for (std::size_t i = begin; i < n; ++i) {
      const PlaneEntry& entry = entries[i];
      while (hp_end < n && entries[hp_end].level <= entry.level) ++hp_end;
      const Duration blocking = blocking_[hp_end];
      PmSub& sub = tasks_[entry.task].subs[entry.sub];
      if (!cap_changed && entry.level < from && blocking == sub.blocking) continue;
      if (!first_candidate.has_value()) {
        // On a remove demand shrank: the old fixpoints over-approximate
        // the new ones, so the solve restarts cold.
        sub.seeds.clear();
      } else if (entry.slot < *first_candidate) {
        snapshot(entry.task, entry.sub);
      }
      const ResponseEquation eq{.period = plane.periods[i],
                                .exec = plane.execs[i],
                                .jitter = plane.jitters[i],
                                .blocking = blocking,
                                .cap = cap};
      // The paper's H set: every entry before this one, plus the rest of
      // its level.
      const HpRuns hp{plane.run(0, i), plane.run(i + 1, hp_end)};
      sub.bound = solve_response_bound(eq, hp, &sub.seeds);
      sub.blocking = blocking;
      PmTask& task = tasks_[entry.task];
      if (task.mark != epoch_) {
        task.mark = epoch_;
        dirty_.push_back(entry.task);
      }
    }
  }

  void snapshot(std::uint32_t task, std::uint32_t sub) {
    if (snap_count_ == snaps_.size()) snaps_.emplace_back();
    Snapshot& snap = snaps_[snap_count_++];
    snap.task = task;
    snap.sub = sub;
    const PmSub& from = tasks_[task].subs[sub];
    snap.blocking = from.blocking;
    snap.bound = from.bound;
    snap.seeds = from.seeds;  // reuses snap's capacity
  }

  /// Same expression as analyze_sa_pm's cap so bounds agree with the
  /// offline analysis of the identical system.
  [[nodiscard]] Time cap_from_periods() const {
    return sat_scale(SaPmOptions{}.cap_period_multiplier, max_period_);
  }

  /// Recomputes a task's EER (SA/PM step 5: the sum of its subtask
  /// bounds), its membership in the failing set and the margin memo.
  void refresh_task(std::uint32_t h) {
    PmTask& task = tasks_[h];
    Duration eer = 0;
    for (const PmSub& sub : task.subs) eer = sat_add(eer, sub.bound);
    task.eer = eer;
    const bool failing = is_infinite(eer) || eer > task.deadline;
    if (set_failing(task.slot, failing)) failing_undo_.emplace_back(task.slot, !failing);
    if (memo_.stale) return;
    const double ratio = detail::margin_ratio(eer, task.deadline);
    if (ratio > memo_.worst) {
      memo_.worst = ratio;
      memo_.task = h;
    } else if (h == memo_.task && ratio < memo_.worst) {
      memo_.stale = true;
    }
  }

  void note_ratio(std::uint32_t h) const {
    const double ratio = detail::margin_ratio(tasks_[h].eer, tasks_[h].deadline);
    if (ratio > memo_.worst) {
      memo_.worst = ratio;
      memo_.task = h;
    }
  }

  /// Sets `slot`'s membership in the failing set; true if it changed.
  bool set_failing(std::uint32_t slot, bool failing) {
    const auto it = std::lower_bound(failing_.begin(), failing_.end(), slot);
    const bool member = it != failing_.end() && *it == slot;
    if (member == failing) return false;
    if (failing) {
      failing_.insert(it, slot);
    } else {
      failing_.erase(it);
    }
    return true;
  }

  /// Adds a task record (reusing a freed handle and its buffers) and its
  /// plane entries; slots arrive in ascending order.
  void insert_task(std::uint32_t slot, const TaskSpec& spec) {
    std::uint32_t h = 0;
    if (free_tasks_.empty()) {
      h = static_cast<std::uint32_t>(tasks_.size());
      tasks_.emplace_back();
    } else {
      h = free_tasks_.back();
      free_tasks_.pop_back();
    }
    PmTask& task = tasks_[h];
    task.slot = slot;
    task.period = spec.period;
    task.jitter = spec.release_jitter;
    task.deadline = spec.deadline;
    task.eer = 0;
    task.subs.resize(spec.subtasks.size());
    for (std::uint32_t j = 0; j < spec.subtasks.size(); ++j) {
      const SubtaskSpec& sub = spec.subtasks[j];
      PmSub& rec = task.subs[j];
      rec.processor = sub.processor;
      rec.level = sub.priority_level;
      rec.seeds.clear();  // a reused record's seeds belong to another task
      const PlaneEntry entry{.level = sub.priority_level,
                             .preemptible = sub.preemptible,
                             .slot = slot,
                             .sub = j,
                             .task = h};
      planes_[static_cast<std::size_t>(sub.processor)].insert(
          entry, spec.period, sub.execution_time, spec.release_jitter);
    }
    by_slot_.emplace_back(slot, h);
    count_period(spec.period);
  }

  /// Drops a task's plane entries and frees its handle (buffers kept).
  void unlink_task(std::uint32_t h) {
    const PmTask& task = tasks_[h];
    for (std::uint32_t j = 0; j < task.subs.size(); ++j) {
      const PlaneEntry key{.level = task.subs[j].level, .slot = task.slot, .sub = j};
      planes_[static_cast<std::size_t>(task.subs[j].processor)].erase(key);
    }
    free_tasks_.push_back(h);
  }

  void count_period(Duration period) {
    if (period > max_period_) {
      max_period_ = period;
      max_period_count_ = 1;
    } else if (period == max_period_) {
      ++max_period_count_;
    }
  }

  void rescan_max_period() {
    max_period_ = 0;
    max_period_count_ = 0;
    for (const auto& [slot, h] : by_slot_) count_period(tasks_[h].period);
  }

  [[nodiscard]] std::vector<std::pair<std::uint32_t, std::uint32_t>>::iterator
  slot_position(std::uint32_t slot) {
    return std::lower_bound(by_slot_.begin(), by_slot_.end(),
                            std::pair<std::uint32_t, std::uint32_t>{slot, 0});
  }

  [[nodiscard]] TrialFailure failure_of(
      std::uint32_t slot, std::optional<std::uint32_t> first_candidate_slot) {
    const PmTask& task = tasks_[slot_position(slot)->second];
    TrialFailure failure{
        .slot = slot,
        .is_candidate =
            first_candidate_slot.has_value() && slot >= *first_candidate_slot,
        .eer = task.eer,
        .deadline = task.deadline};
    for (const PmSub& sub : task.subs) {
      failure.subtask_bounds.push_back(sub.bound);
    }
    return failure;
  }

  // Committed state.
  std::vector<PmTask> tasks_;              // slab; handles are indices
  std::vector<std::uint32_t> free_tasks_;  // handles of departed tasks
  /// (slot, handle) of every live task and trial candidate, ascending.
  std::vector<std::pair<std::uint32_t, std::uint32_t>> by_slot_;
  std::vector<Plane> planes_;  // per processor
  Duration max_period_ = 0;
  std::size_t max_period_count_ = 0;  // live tasks with max_period_
  std::vector<std::uint32_t> failing_;  // sorted slots of unschedulable tasks
  Time cap_ = 0;                        // valid only while a task is live
  mutable Memo memo_;  // the engine is never shared across threads

  // Per-request records, reused (never shared across threads).
  std::uint64_t epoch_ = 0;
  std::vector<std::uint64_t> plane_mark_;  // == epoch_: plane touched
  std::vector<int> plane_from_;            // lowest touched level per plane
  std::vector<bool> plane_np_;             // a touched subtask is non-preemptible
  std::vector<std::uint32_t> touched_;
  std::vector<std::uint32_t> dirty_;  // tasks with a re-solved subtask
  std::vector<Snapshot> snaps_;       // pool; the first snap_count_ are live
  std::size_t snap_count_ = 0;
  std::vector<std::pair<std::uint32_t, Duration>> eer_undo_;
  std::vector<std::pair<std::uint32_t, bool>> failing_undo_;  // (slot, was)
  std::vector<Duration> blocking_;
};

}  // namespace

namespace detail {
std::unique_ptr<Engine> make_incremental_pm_engine() {
  return std::make_unique<IncrementalPmEngine>();
}
}  // namespace detail

}  // namespace e2e::admission
