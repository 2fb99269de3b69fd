// Randomized equivalence property: on generated churn streams, the
// incremental engines agree with the full-recompute baseline on every
// verdict, every rejection reason, every culprit bound, and the running
// result hash -- checked after EVERY request, not just at the end, so a
// transient divergence that later self-corrects still fails.
//
// For the delta-maintained SA/DS engines the lockstep additionally
// checks the interference-delta invariant: after every request the
// engine's persistent InterferenceMap and converged SubtaskTable must
// hash-match structures built FRESH from the committed live set. This
// covers the rejected-trial revert paths too -- a rejection leaves the
// committed state unchanged, so a revert that leaks even one patched
// interferer or journal entry diverges from fresh construction on the
// very next request.
//
// A further property replays independent shards across thread counts
// {1, 2, 8} and requires the index-ordered hash fold to be thread-count
// invariant.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <optional>
#include <vector>

#include "admission/churn.h"
#include "admission/controller.h"
#include "common/hash.h"
#include "common/rng.h"
#include "core/analysis/interference.h"
#include "core/analysis/sa_ds.h"
#include "core/analysis/sa_pm.h"
#include "exec/thread_pool.h"

namespace e2e::admission {
namespace {

/// Every field fold_outcome hashes, asserted individually so a failure
/// names the diverging field instead of just "hash mismatch".
void expect_equal_outcomes(const Outcome& full, const Outcome& incremental,
                           std::size_t request_index) {
  EXPECT_EQ(full.verb, incremental.verb) << "request " << request_index;
  EXPECT_EQ(full.accepted, incremental.accepted) << "request " << request_index;
  EXPECT_EQ(full.reason, incremental.reason) << "request " << request_index;
  EXPECT_EQ(full.task_name, incremental.task_name) << "request " << request_index;
  EXPECT_EQ(full.slot, incremental.slot) << "request " << request_index;
  EXPECT_EQ(full.culprit_task, incremental.culprit_task)
      << "request " << request_index;
  EXPECT_EQ(full.culprit_is_candidate, incremental.culprit_is_candidate)
      << "request " << request_index;
  EXPECT_EQ(full.culprit_subtask, incremental.culprit_subtask)
      << "request " << request_index;
  EXPECT_EQ(full.culprit_processor, incremental.culprit_processor)
      << "request " << request_index;
  EXPECT_EQ(full.culprit_bound, incremental.culprit_bound)
      << "request " << request_index;
  EXPECT_EQ(full.culprit_eer, incremental.culprit_eer)
      << "request " << request_index;
  EXPECT_EQ(full.culprit_deadline, incremental.culprit_deadline)
      << "request " << request_index;
  EXPECT_EQ(full.margin, incremental.margin) << "request " << request_index;
  EXPECT_EQ(full.live_tasks, incremental.live_tasks)
      << "request " << request_index;
  EXPECT_EQ(full.remaining_schedulable, incremental.remaining_schedulable)
      << "request " << request_index;
  EXPECT_EQ(full.batch_size, incremental.batch_size)
      << "request " << request_index;
}

/// Interference-delta lockstep: the incremental DS engine's persistent
/// structures must hash-match ones built fresh from the committed live
/// set. PM engines (and empty systems) expose no digest.
void expect_digest_matches_fresh(const AdmissionController& incremental,
                                 Policy policy, std::size_t request_index) {
  const std::optional<Engine::StructureDigest> digest =
      incremental.structure_digest();
  if (policy == Policy::kPm || incremental.state().task_count() == 0) {
    EXPECT_FALSE(digest.has_value()) << "request " << request_index;
    return;
  }
  ASSERT_TRUE(digest.has_value()) << "request " << request_index;
  const SystemState::Built built =
      incremental.state().build_with(nullptr, 0, std::nullopt);
  const InterferenceMap fresh_map{built.system};
  EXPECT_EQ(digest->interference_hash, fresh_map.content_hash())
      << "request " << request_index;
  const SaDsOptions options{.refine_jitter_with_best_case =
                                policy == Policy::kHolistic};
  const SaDsResult fresh = analyze_sa_ds(built.system, fresh_map, options);
  EXPECT_EQ(digest->table_hash, fresh.analysis.subtask_bounds.content_hash())
      << "request " << request_index;
}

void run_lockstep(Policy policy, std::uint64_t seed, double batch_fraction = 0.0) {
  ChurnShape shape;
  shape.processors = 8;
  shape.initial_admits = 60;
  shape.requests = 220;
  // Oversubscribe slightly so the stream exercises utilization and
  // bound-failure rejections, not just accepts.
  shape.max_sub_utilization = 0.05;
  shape.batch_fraction = batch_fraction;
  shape.max_batch = 3;

  Rng rng{seed};
  const std::vector<Request> stream = generate_churn(rng, shape);
  ASSERT_GE(stream.size(), 200u);

  ControllerOptions options;
  options.policy = policy;
  options.processors = shape.processors;
  options.full_recompute = true;
  AdmissionController full{options};
  options.full_recompute = false;
  AdmissionController incremental{options};
  ASSERT_STRNE(full.engine_name(), incremental.engine_name());

  bool saw_reject = false;
  bool saw_remove = false;
  bool saw_batch = false;
  for (std::size_t i = 0; i < stream.size(); ++i) {
    const Outcome a = full.submit(stream[i]);
    const Outcome b = incremental.submit(stream[i]);
    expect_equal_outcomes(a, b, i);
    ASSERT_EQ(full.result_hash(), incremental.result_hash())
        << "policy " << to_string(policy) << ", request " << i << " ("
        << to_string(stream[i].verb) << " '" << stream[i].task.name << "')";
    expect_digest_matches_fresh(incremental, policy, i);
    saw_reject |= (!a.accepted && a.reason == ReasonCode::kBoundFailure);
    saw_remove |= (a.verb == Verb::kRemove && a.accepted);
    saw_batch |= (a.verb == Verb::kBatchCommit && a.batch_size >= 2);
  }
  // The property is vacuous on an all-accept stream; make sure the
  // generated churn actually exercised both interesting paths (rejected
  // trials drive the engines' revert machinery).
  EXPECT_TRUE(saw_reject);
  EXPECT_TRUE(saw_remove);
  EXPECT_EQ(saw_batch, batch_fraction > 0.0);
}

TEST(AdmissionProperty, IncrementalPmMatchesFullRecompute) {
  run_lockstep(Policy::kPm, 0xA11CE5u);
}

TEST(AdmissionProperty, IncrementalDsMatchesFullRecompute) {
  run_lockstep(Policy::kDs, 0xB0B5EEDu);
}

TEST(AdmissionProperty, IncrementalHolisticMatchesFullRecompute) {
  run_lockstep(Policy::kHolistic, 0xC0FFEEu);
}

// A second seed per policy, so one lucky stream cannot hide a bug.
TEST(AdmissionProperty, SecondSeedSweep) {
  run_lockstep(Policy::kPm, 20260808u);
  run_lockstep(Policy::kDs, 20260809u);
  run_lockstep(Policy::kHolistic, 20260810u);
}

// Batched streams: batch-begin/admits/batch-commit groups answered
// through one engine trajectory each, still in lockstep with the
// full-recompute baseline (including batch rejections, which exercise
// the multi-task revert path of the persistent DS structures).
TEST(AdmissionProperty, BatchedStreamsMatch) {
  run_lockstep(Policy::kPm, 0x5EED0001u, 0.3);
  run_lockstep(Policy::kDs, 0x5EED0002u, 0.3);
  run_lockstep(Policy::kHolistic, 0x5EED0003u, 0.3);
}

// Margin lockstep: the incremental SA/PM engine memoises the `query`
// margin and recomputes it only when the task holding the maximum leaves
// or its ratio drops. A query after EVERY request must still return the
// bit-identical double of full recompute. The streams must reach the
// memo's hard paths: removing the task that holds the maximum, a
// rejected trial (whose rollback restores the memo) right after the
// margin moved, and a divergence-cap move (every bound re-solved).
TEST(AdmissionProperty, MarginMatchesFullRecomputeAfterEveryRequest) {
  bool removed_max_margin_task = false;
  bool rejected_after_margin_change = false;
  bool moved_cap = false;
  const auto max_period = [](const SystemState& state) {
    Duration max = 0;
    for (const auto& [slot, spec] : state.live()) max = std::max(max, spec.period);
    return max;
  };
  for (const std::uint64_t seed : {0x3A6150u, 20261018u}) {
    ChurnShape shape;
    shape.processors = 8;
    shape.initial_admits = 60;
    shape.requests = 220;
    shape.max_sub_utilization = 0.05;
    shape.batch_fraction = 0.2;
    shape.max_batch = 3;
    Rng rng{seed};
    const std::vector<Request> stream = generate_churn(rng, shape);

    ControllerOptions options;
    options.policy = Policy::kPm;
    options.processors = shape.processors;
    options.full_recompute = true;
    AdmissionController full{options};
    options.full_recompute = false;
    AdmissionController incremental{options};

    double margin = 0.0;
    bool margin_moved = false;  // by the request before the current one
    for (std::size_t i = 0; i < stream.size(); ++i) {
      const Request& request = stream[i];
      const Duration period_before = max_period(full.state());
      if (request.ok() && request.verb == Verb::kRemove && !full.in_batch()) {
        if (const auto slot = full.state().slot_of(request.task.name)) {
          const SystemState::Built built =
              full.state().build_with(nullptr, 0, std::nullopt);
          const AnalysisResult bounds = analyze_sa_pm(built.system);
          const auto index = static_cast<std::size_t>(
              std::find(built.slots.begin(), built.slots.end(), *slot) -
              built.slots.begin());
          const Duration eer = bounds.eer_bounds[index];
          const Duration deadline = full.state().spec(*slot).deadline;
          const double ratio = is_infinite(eer) ? 1e9
                                                : static_cast<double>(eer) /
                                                      static_cast<double>(deadline);
          removed_max_margin_task |= ratio == margin;
        }
      }
      const Outcome a = full.submit(request);
      const Outcome b = incremental.submit(request);
      expect_equal_outcomes(a, b, i);
      rejected_after_margin_change |=
          margin_moved && a.reason == ReasonCode::kBoundFailure && !b.from_cache;
      const Duration period_after = max_period(full.state());
      moved_cap |= period_before != 0 && period_after != 0 &&
                   period_before != period_after;

      const Outcome qa = full.query();
      const Outcome qb = incremental.query();
      ASSERT_EQ(std::bit_cast<std::uint64_t>(qa.margin),
                std::bit_cast<std::uint64_t>(qb.margin))
          << "seed " << seed << ", request " << i << " ("
          << to_string(request.verb) << " '" << request.task.name
          << "'): full " << qa.margin << ", incremental " << qb.margin;
      margin_moved = qa.margin != margin;
      margin = qa.margin;
      ASSERT_EQ(full.result_hash(), incremental.result_hash())
          << "seed " << seed << ", request " << i;
    }
  }
  EXPECT_TRUE(removed_max_margin_task);
  EXPECT_TRUE(rejected_after_margin_change);
  EXPECT_TRUE(moved_cap);
}

// The incremental SA/PM engine re-solves an entry iff the cap changed,
// its level is at or below the highest-priority change on its plane, or
// its blocking term moved. Non-preemptible (NP) changes are where the
// last clause matters: an NP subtask changes the blocking of every entry
// above it. Full recompute after every request (bounds hash and query
// margin) must agree.
class PmLockstep {
 public:
  explicit PmLockstep(std::size_t processors) : full_{options(processors, true)},
                                                incremental_{options(processors, false)} {}

  template <class Op>
  Outcome step(Op&& op) {
    const Outcome a = op(full_);
    const Outcome b = op(incremental_);
    expect_equal_outcomes(a, b, requests_);
    EXPECT_EQ(full_.result_hash(), incremental_.result_hash()) << "request " << requests_;
    EXPECT_EQ(std::bit_cast<std::uint64_t>(full_.query().margin),
              std::bit_cast<std::uint64_t>(incremental_.query().margin))
        << "request " << requests_;
    ++requests_;
    return a;
  }
  Outcome admit(const TaskSpec& spec) {
    return step([&](AdmissionController& c) { return c.admit(spec); });
  }
  Outcome remove(const std::string& name) {
    return step([&](AdmissionController& c) { return c.remove(name); });
  }
  Outcome submit(const Request& request) {
    return step([&](AdmissionController& c) { return c.submit(request); });
  }
  Outcome batch(const std::vector<TaskSpec>& specs) {
    EXPECT_TRUE(step([](AdmissionController& c) { return c.batch_begin(); }).accepted);
    for (const TaskSpec& spec : specs) (void)admit(spec);
    return step([](AdmissionController& c) { return c.batch_commit(); });
  }

 private:
  static ControllerOptions options(std::size_t processors, bool full_recompute) {
    ControllerOptions options;
    options.policy = Policy::kPm;
    options.processors = processors;
    options.full_recompute = full_recompute;
    return options;
  }

  AdmissionController full_;
  AdmissionController incremental_;
  std::size_t requests_ = 0;
};

TaskSpec pm_task(std::string name, Duration period, std::vector<SubtaskSpec> subtasks,
                 Duration deadline = 0) {
  TaskSpec spec;
  spec.name = std::move(name);
  spec.period = period;
  spec.deadline = deadline;
  spec.subtasks = std::move(subtasks);
  return spec;
}

SubtaskSpec np(int processor, Duration exec, int level) {
  return {.processor = processor, .execution_time = exec, .priority_level = level,
          .preemptible = false};
}

TEST(AdmissionProperty, NonPreemptibleChangesMatchFullRecompute) {
  PmLockstep lockstep{2};
  // Processor 0, by level: top 1, chain 3, mid 5, low_np 9 (NP, blocking
  // 49 for every entry above it).
  ASSERT_TRUE(lockstep.admit(pm_task("top", 200, {{0, 10, 1}})).accepted);
  ASSERT_TRUE(lockstep.admit(pm_task("mid", 500, {{0, 20, 5}})).accepted);
  ASSERT_TRUE(lockstep.admit(pm_task("low_np", 1000, {np(0, 50, 9)})).accepted);
  ASSERT_TRUE(lockstep.admit(pm_task("chain", 600, {{1, 30, 2}, {0, 10, 3}})).accepted);
  ASSERT_TRUE(lockstep.admit(pm_task("other", 800, {{1, 40, 4}})).accepted);

  // One batch: an NP subtask at high priority (top's blocking 49 -> 59)
  // and a preemptible one lower on the same plane.
  EXPECT_TRUE(lockstep
                  .batch({pm_task("hi_np", 600, {np(0, 60, 2)}),
                          pm_task("lo_p", 300, {{0, 15, 7}})})
                  .accepted);
  // The reverse: an NP subtask below a preemptible one. The highest
  // changed level is 6; the blocking of every entry above it rises to 69.
  EXPECT_TRUE(lockstep
                  .batch({pm_task("np_big", 2000, {np(0, 70, 8)}),
                          pm_task("p_mid", 700, {{0, 10, 6}})})
                  .accepted);
  // An NP candidate whose blocking does not rise: np_big (69) already
  // blocks every entry above level 4.
  EXPECT_TRUE(lockstep.admit(pm_task("np_small", 500, {np(0, 5, 4)})).accepted);
  // A rejected NP trial raises every blocking above level 10 to 89; the
  // rollback must restore the blocking terms stored with the scratches,
  // or the same subtask admitted next (loose deadline) would leave the
  // entries above it unsolved. The period stays at the maximum, 2000, so
  // the cap does not move (a cap move re-solves everything).
  const Outcome rejected = lockstep.admit(pm_task("np_fail", 2000, {np(0, 90, 10)}, 95));
  EXPECT_FALSE(rejected.accepted);
  EXPECT_EQ(rejected.reason, ReasonCode::kBoundFailure);
  EXPECT_TRUE(rejected.culprit_is_candidate);
  EXPECT_TRUE(lockstep.admit(pm_task("np_fail", 2000, {np(0, 90, 10)})).accepted);

  // The remove of each, NP ones first (blocking falls back step by step).
  for (const char* name :
       {"np_small", "np_fail", "hi_np", "np_big", "lo_p", "p_mid", "low_np", "chain"}) {
    EXPECT_TRUE(lockstep.remove(name).accepted) << name;
  }
}

// Churn streams with a third of all subtasks non-preemptible (the
// generator's default is 5%), batches included.
TEST(AdmissionProperty, NonPreemptibleChurnMatchesFullRecompute) {
  for (const std::uint64_t seed : {0x0B10C4u, 20261019u}) {
    ChurnShape shape;
    shape.processors = 6;
    shape.initial_admits = 50;
    shape.requests = 240;
    shape.max_sub_utilization = 0.05;
    shape.batch_fraction = 0.3;
    shape.max_batch = 3;
    Rng rng{seed};
    std::vector<Request> stream = generate_churn(rng, shape);
    for (Request& request : stream) {
      for (SubtaskSpec& sub : request.task.subtasks) {
        sub.preemptible = rng.uniform_int(0, 2) != 0;
      }
    }
    PmLockstep lockstep{shape.processors};
    std::size_t np_accepts = 0;
    std::size_t np_rejects = 0;
    for (const Request& request : stream) {
      const Outcome outcome = lockstep.submit(request);
      const bool has_np = std::any_of(request.task.subtasks.begin(),
                                      request.task.subtasks.end(),
                                      [](const SubtaskSpec& sub) { return !sub.preemptible; });
      if (request.verb != Verb::kAdmit || !has_np) continue;
      np_accepts += outcome.accepted && outcome.reason != ReasonCode::kQueued;
      np_rejects += outcome.reason == ReasonCode::kBoundFailure;
    }
    EXPECT_GE(np_accepts, 10u) << "seed " << seed;
    EXPECT_GE(np_rejects, 10u) << "seed " << seed;
  }
}

TEST(AdmissionProperty, ShardedReplayIsThreadCountInvariant) {
  constexpr std::size_t kShards = 6;
  ChurnShape shape;
  shape.processors = 8;
  shape.initial_admits = 25;
  shape.requests = 90;
  shape.max_sub_utilization = 0.05;

  Rng master{0xD15C0u};
  std::vector<std::vector<Request>> streams;
  streams.reserve(kShards);
  for (std::size_t s = 0; s < kShards; ++s) {
    Rng rng = master.fork(s);
    streams.push_back(generate_churn(rng, shape));
  }

  const auto folded_hash = [&](int threads) {
    exec::ThreadPool pool{threads};
    std::vector<std::uint64_t> hashes(kShards, 0);
    pool.parallel_for_indexed(
        static_cast<std::int64_t>(kShards),
        [&](std::int64_t index, int /*worker*/) {
          ControllerOptions options;
          options.policy = Policy::kPm;
          options.processors = shape.processors;
          AdmissionController controller{options};
          for (const Request& request : streams[static_cast<std::size_t>(index)]) {
            (void)controller.submit(request);
          }
          hashes[static_cast<std::size_t>(index)] = controller.result_hash();
        });
    std::uint64_t folded = 0;
    for (const std::uint64_t h : hashes) folded = hash_combine(folded, h);
    return folded;
  };

  const std::uint64_t at1 = folded_hash(1);
  EXPECT_EQ(folded_hash(2), at1);
  EXPECT_EQ(folded_hash(8), at1);
}

}  // namespace
}  // namespace e2e::admission
