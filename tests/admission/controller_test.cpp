// Behavioral tests for AdmissionController: the admit pipeline's reason
// codes in order (validation, duplicate, utilization, bound failure),
// rejection-with-reason detail, slot monotonicity, deadline
// normalization, the decision cache, and query margins. Everything here
// runs on handcrafted specs small enough to verify by hand; randomized
// full-vs-incremental equivalence lives in admission_property_test.
#include "admission/controller.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

namespace e2e::admission {
namespace {

TaskSpec make_spec(std::string name, Duration period,
                   std::vector<SubtaskSpec> subtasks, Duration deadline = 0) {
  TaskSpec spec;
  spec.name = std::move(name);
  spec.period = period;
  spec.deadline = deadline;
  spec.subtasks = std::move(subtasks);
  return spec;
}

ControllerOptions pm_options(std::size_t processors = 2) {
  ControllerOptions options;
  options.policy = Policy::kPm;
  options.processors = processors;
  return options;
}

TEST(Controller, AcceptsFeasibleTaskAndAssignsSlots) {
  AdmissionController controller{pm_options()};
  const Outcome first =
      controller.admit(make_spec("T1", 100, {{0, 10, 0}}));
  EXPECT_TRUE(first.accepted);
  EXPECT_EQ(first.reason, ReasonCode::kNone);
  EXPECT_EQ(first.slot, 0u);
  EXPECT_EQ(first.live_tasks, 1u);

  const Outcome second =
      controller.admit(make_spec("T2", 200, {{1, 10, 0}}));
  EXPECT_TRUE(second.accepted);
  EXPECT_EQ(second.slot, 1u);
  EXPECT_EQ(second.live_tasks, 2u);
}

TEST(Controller, SlotsAreNeverReused) {
  AdmissionController controller{pm_options()};
  ASSERT_TRUE(controller.admit(make_spec("T1", 100, {{0, 10, 0}})).accepted);
  ASSERT_TRUE(controller.admit(make_spec("T2", 100, {{0, 10, 1}})).accepted);
  const Outcome removed = controller.remove("T1");
  EXPECT_TRUE(removed.accepted);
  EXPECT_EQ(removed.slot, 0u);
  const Outcome readmitted =
      controller.admit(make_spec("T1", 100, {{0, 10, 0}}));
  ASSERT_TRUE(readmitted.accepted);
  EXPECT_EQ(readmitted.slot, 2u);  // slot 0 is retired, not recycled
}

TEST(Controller, ZeroDeadlineNormalizesToPeriod) {
  AdmissionController controller{pm_options()};
  ASSERT_TRUE(controller.admit(make_spec("T1", 500, {{0, 10, 0}})).accepted);
  const auto slot = controller.state().slot_of("T1");
  ASSERT_TRUE(slot.has_value());
  EXPECT_EQ(controller.state().spec(*slot).deadline, 500);
}

TEST(Controller, ValidationRejects) {
  AdmissionController controller{pm_options()};
  const struct {
    TaskSpec spec;
    const char* what;
  } cases[] = {
      {make_spec("A", 0, {{0, 1, 0}}), "zero period"},
      {make_spec("B", 10, {}), "no subtasks"},
      {make_spec("C", 10, {{7, 1, 0}}), "processor out of range"},
      {make_spec("D", 10, {{0, 0, 0}}), "zero execution time"},
      {make_spec("E", 10, {{0, 1, -2}}), "negative priority"},
  };
  for (const auto& c : cases) {
    const Outcome outcome = controller.admit(c.spec);
    EXPECT_FALSE(outcome.accepted) << c.what;
    EXPECT_EQ(outcome.reason, ReasonCode::kValidation) << c.what;
  }
  EXPECT_EQ(controller.state().task_count(), 0u);
}

TEST(Controller, DuplicateNameRejects) {
  AdmissionController controller{pm_options()};
  ASSERT_TRUE(controller.admit(make_spec("T1", 100, {{0, 10, 0}})).accepted);
  const Outcome duplicate =
      controller.admit(make_spec("T1", 200, {{1, 10, 0}}));
  EXPECT_FALSE(duplicate.accepted);
  EXPECT_EQ(duplicate.reason, ReasonCode::kDuplicateName);
  EXPECT_EQ(controller.state().task_count(), 1u);
}

TEST(Controller, UtilizationPrecheckNamesTheProcessor) {
  AdmissionController controller{pm_options()};
  ASSERT_TRUE(controller.admit(make_spec("T1", 100, {{1, 60, 0}})).accepted);
  // Processor 1 already carries 0.6; another 0.5 overflows it.
  const Outcome outcome =
      controller.admit(make_spec("T2", 100, {{1, 50, 1}}));
  EXPECT_FALSE(outcome.accepted);
  EXPECT_EQ(outcome.reason, ReasonCode::kUtilization);
  EXPECT_EQ(outcome.culprit_processor, 1);
  EXPECT_EQ(controller.state().task_count(), 1u);
}

TEST(Controller, BoundFailureReportsCulpritDetail) {
  AdmissionController controller{pm_options()};
  ASSERT_TRUE(controller.admit(make_spec("T1", 10, {{0, 5, 0}})).accepted);
  // Candidate: utilization fits (0.5 + 5/12), but with T1 preempting, the
  // level-1 subtask's response is 10 > deadline 6.
  const Outcome outcome =
      controller.admit(make_spec("T2", 12, {{0, 5, 1}}, /*deadline=*/6));
  EXPECT_FALSE(outcome.accepted);
  EXPECT_EQ(outcome.reason, ReasonCode::kBoundFailure);
  EXPECT_EQ(outcome.culprit_task, "T2");
  EXPECT_TRUE(outcome.culprit_is_candidate);
  EXPECT_EQ(outcome.culprit_subtask, 0);
  EXPECT_EQ(outcome.culprit_processor, 0);
  EXPECT_EQ(outcome.culprit_deadline, 6);
  EXPECT_GT(outcome.culprit_eer, outcome.culprit_deadline);
  EXPECT_EQ(controller.state().task_count(), 1u);
}

TEST(Controller, RepeatedRejectionIsServedFromCache) {
  AdmissionController controller{pm_options()};
  ASSERT_TRUE(controller.admit(make_spec("T1", 10, {{0, 5, 0}})).accepted);
  const TaskSpec bounced = make_spec("T2", 12, {{0, 5, 1}}, /*deadline=*/6);
  const Outcome miss = controller.admit(bounced);
  ASSERT_EQ(miss.reason, ReasonCode::kBoundFailure);
  EXPECT_FALSE(miss.from_cache);
  const Outcome hit = controller.admit(bounced);
  EXPECT_TRUE(hit.from_cache);
  EXPECT_GE(controller.cache_hits(), 1u);
  // Everything semantic matches the recomputation it stands for.
  EXPECT_EQ(hit.reason, miss.reason);
  EXPECT_EQ(hit.culprit_task, miss.culprit_task);
  EXPECT_EQ(hit.culprit_subtask, miss.culprit_subtask);
  EXPECT_EQ(hit.culprit_bound, miss.culprit_bound);
  EXPECT_EQ(hit.culprit_eer, miss.culprit_eer);
}

TEST(Controller, RemoveUnknownTask) {
  AdmissionController controller{pm_options()};
  const Outcome outcome = controller.remove("ghost");
  EXPECT_FALSE(outcome.accepted);
  EXPECT_EQ(outcome.reason, ReasonCode::kUnknownTask);
}

TEST(Controller, QueryReportsLiveCountAndMargin) {
  AdmissionController controller{pm_options()};
  const Outcome empty = controller.query();
  EXPECT_TRUE(empty.accepted);
  EXPECT_EQ(empty.live_tasks, 0u);
  EXPECT_EQ(empty.margin, 0.0);

  ASSERT_TRUE(controller.admit(make_spec("T1", 100, {{0, 10, 0}})).accepted);
  const Outcome one = controller.query();
  EXPECT_EQ(one.live_tasks, 1u);
  EXPECT_GT(one.margin, 0.0);
  EXPECT_LE(one.margin, 1.0);  // schedulable system: EER <= deadline
}

TEST(Controller, ParseErrorFlowsThroughSubmit) {
  AdmissionController controller{pm_options()};
  Request request;
  request.verb = Verb::kAdmit;
  request.parse_error = "unknown key 'budget'";
  const Outcome outcome = controller.submit(request);
  EXPECT_FALSE(outcome.accepted);
  EXPECT_EQ(outcome.reason, ReasonCode::kParseError);
}

TEST(Controller, BatchCommitAdmitsAllMembersWithConsecutiveSlots) {
  AdmissionController controller{pm_options()};
  const Outcome open = controller.batch_begin();
  EXPECT_TRUE(open.accepted);
  EXPECT_TRUE(controller.in_batch());

  const Outcome q1 = controller.admit(make_spec("B1", 100, {{0, 10, 0}}));
  const Outcome q2 = controller.admit(make_spec("B2", 200, {{1, 10, 0}}));
  EXPECT_FALSE(q1.accepted);
  EXPECT_EQ(q1.reason, ReasonCode::kQueued);
  EXPECT_EQ(q2.reason, ReasonCode::kQueued);
  EXPECT_EQ(controller.state().task_count(), 0u);  // nothing live yet

  const Outcome commit = controller.batch_commit();
  EXPECT_TRUE(commit.accepted);
  EXPECT_EQ(commit.batch_size, 2u);
  EXPECT_EQ(commit.slot, 0u);  // first slot of the batch
  EXPECT_EQ(commit.live_tasks, 2u);
  EXPECT_FALSE(controller.in_batch());
  EXPECT_EQ(controller.state().slot_of("B1"), 0u);
  EXPECT_EQ(controller.state().slot_of("B2"), 1u);
}

TEST(Controller, RejectedBatchCommitsNothing) {
  AdmissionController controller{pm_options()};
  ASSERT_TRUE(controller.admit(make_spec("T1", 10, {{0, 5, 0}})).accepted);
  const std::uint64_t hash_before_batch = controller.result_hash();

  ASSERT_TRUE(controller.batch_begin().accepted);
  ASSERT_EQ(controller.admit(make_spec("OK", 200, {{1, 10, 0}})).reason,
            ReasonCode::kQueued);
  // Same infeasible candidate as BoundFailureReportsCulpritDetail: its
  // presence must sink the whole batch, including the feasible member.
  ASSERT_EQ(controller.admit(make_spec("BAD", 12, {{0, 5, 1}}, 6)).reason,
            ReasonCode::kQueued);
  const Outcome commit = controller.batch_commit();
  EXPECT_FALSE(commit.accepted);
  EXPECT_EQ(commit.reason, ReasonCode::kBoundFailure);
  EXPECT_EQ(commit.batch_size, 2u);
  EXPECT_EQ(commit.culprit_task, "BAD");
  EXPECT_TRUE(commit.culprit_is_candidate);
  EXPECT_EQ(controller.state().task_count(), 1u);  // atomic: neither landed
  EXPECT_FALSE(controller.state().slot_of("OK").has_value());

  // The committed state is untouched, so the feasible member admits
  // cleanly on its own afterwards.
  EXPECT_TRUE(controller.admit(make_spec("OK", 200, {{1, 10, 0}})).accepted);
  EXPECT_NE(controller.result_hash(), hash_before_batch);
}

TEST(Controller, BatchVerbMisuseIsABatchError) {
  AdmissionController controller{pm_options()};
  // Commit with no open batch.
  const Outcome stray = controller.batch_commit();
  EXPECT_FALSE(stray.accepted);
  EXPECT_EQ(stray.reason, ReasonCode::kBatchError);

  ASSERT_TRUE(controller.batch_begin().accepted);
  // Nested begin.
  const Outcome nested = controller.batch_begin();
  EXPECT_FALSE(nested.accepted);
  EXPECT_EQ(nested.reason, ReasonCode::kBatchError);
  // Remove inside an open batch.
  const Outcome removal = controller.remove("anything");
  EXPECT_FALSE(removal.accepted);
  EXPECT_EQ(removal.reason, ReasonCode::kBatchError);
  // An empty batch commits vacuously.
  const Outcome empty = controller.batch_commit();
  EXPECT_TRUE(empty.accepted);
  EXPECT_EQ(empty.batch_size, 0u);
}

TEST(Controller, BatchPrechecksSeePendingMembers) {
  AdmissionController controller{pm_options()};
  ASSERT_TRUE(controller.batch_begin().accepted);
  ASSERT_EQ(controller.admit(make_spec("T1", 100, {{1, 40, 0}})).reason,
            ReasonCode::kQueued);
  // Duplicate of a pending (not yet live) member.
  const Outcome duplicate = controller.admit(make_spec("T1", 200, {{0, 10, 0}}));
  EXPECT_FALSE(duplicate.accepted);
  EXPECT_EQ(duplicate.reason, ReasonCode::kDuplicateName);
  // Utilization precheck counts the pending member's 0.4 on processor 1,
  // so another 0.7 overflows even though the live system is empty.
  const Outcome overflow = controller.admit(make_spec("T2", 100, {{1, 70, 0}}));
  EXPECT_FALSE(overflow.accepted);
  EXPECT_EQ(overflow.reason, ReasonCode::kUtilization);
  EXPECT_EQ(overflow.culprit_processor, 1);
  // Neither rejection poisoned the batch itself.
  const Outcome commit = controller.batch_commit();
  EXPECT_TRUE(commit.accepted);
  EXPECT_EQ(commit.batch_size, 1u);
  EXPECT_EQ(controller.state().task_count(), 1u);
}

// SA/PM's divergence cap is 300 x the longest live period. X (period 10,
// exec 5, release jitter 10000) has a busy period of 10000: bounded
// (10005) under a cap of 30000, unbounded under 3000. A rejected
// long-period candidate must leave the cap where it was, and removing the
// longest-period task must shrink it -- in both engines alike.
TEST(Controller, DivergenceCapFollowsTheLongestLivePeriod) {
  TaskSpec x = make_spec("X", 10, {{0, 5, 0}}, 100000);
  x.release_jitter = 10000;
  for (const bool full_recompute : {true, false}) {
    ControllerOptions options = pm_options();
    options.full_recompute = full_recompute;
    AdmissionController controller{options};
    ASSERT_TRUE(controller.admit(make_spec("A", 10, {{1, 1, 0}})).accepted);
    // Period 1000 would lift the cap to 300000, but C misses its deadline.
    const Outcome c = controller.admit(make_spec("C", 1000, {{1, 1, 1}}, 1));
    EXPECT_EQ(c.reason, ReasonCode::kBoundFailure) << full_recompute;
    const Outcome rejected = controller.admit(x);
    EXPECT_EQ(rejected.reason, ReasonCode::kBoundFailure) << full_recompute;
    EXPECT_TRUE(is_infinite(rejected.culprit_eer)) << full_recompute;

    ASSERT_TRUE(controller.admit(make_spec("Big", 100, {{1, 1, 1}})).accepted);
    const Outcome admitted = controller.admit(x);
    ASSERT_TRUE(admitted.accepted) << full_recompute;
    EXPECT_EQ(controller.query().margin, 10005.0 / 100000.0) << full_recompute;
    const Outcome removed = controller.remove("Big");
    EXPECT_TRUE(removed.accepted);
    EXPECT_FALSE(removed.remaining_schedulable) << full_recompute;
    EXPECT_EQ(removed.culprit_task, "X") << full_recompute;
    EXPECT_EQ(controller.query().margin, 1e9) << full_recompute;
    EXPECT_TRUE(controller.remove("X").remaining_schedulable) << full_recompute;
    EXPECT_EQ(controller.query().margin, 1.0 / 10.0) << full_recompute;
  }
}

// The SA/DS and holistic form of the test above. Their divergence cap is
// 2 x 300 x the longest live period, so a candidate with a longer period
// runs a cold trial: the whole table re-initialised and re-swept under
// the journal. C (period 1000, exec 5, top priority) pushes the resident
// A's bound from 2 to 7 and misses its own deadline of 4; the rejection
// must restore A's entry and the structures bit for bit, matching the
// full-recompute engine. Its twin with a deadline of 1000 then commits.
TEST(Controller, DivergenceCapTrialRollsBackUnderDsAndHolistic) {
  for (const Policy policy : {Policy::kDs, Policy::kHolistic}) {
    ControllerOptions options = pm_options();
    options.policy = policy;
    options.full_recompute = true;
    AdmissionController full{options};
    options.full_recompute = false;
    AdmissionController incremental{options};
    const auto both = [&](const TaskSpec& spec) {
      const Outcome a = full.admit(spec);
      const Outcome b = incremental.admit(spec);
      EXPECT_EQ(a.reason, b.reason) << to_string(policy) << " " << spec.name;
      EXPECT_EQ(full.result_hash(), incremental.result_hash())
          << to_string(policy) << " " << spec.name;
      return b;
    };
    ASSERT_TRUE(both(make_spec("A", 10, {{0, 2, 1}})).accepted);
    ASSERT_TRUE(both(make_spec("B", 20, {{1, 3, 0}, {0, 1, 2}})).accepted);
    const auto before = incremental.structure_digest();
    ASSERT_TRUE(before.has_value());

    const Outcome rejected = both(make_spec("C", 1000, {{0, 5, 0}}, 4));
    EXPECT_EQ(rejected.reason, ReasonCode::kBoundFailure) << to_string(policy);
    EXPECT_EQ(rejected.culprit_task, "C") << to_string(policy);
    const auto after = incremental.structure_digest();
    ASSERT_TRUE(after.has_value());
    EXPECT_EQ(after->interference_hash, before->interference_hash) << to_string(policy);
    EXPECT_EQ(after->table_hash, before->table_hash) << to_string(policy);
    EXPECT_EQ(full.query().margin, incremental.query().margin) << to_string(policy);

    const Outcome accepted = both(make_spec("C", 1000, {{0, 5, 0}}, 1000));
    EXPECT_TRUE(accepted.accepted) << to_string(policy);
    EXPECT_NE(incremental.structure_digest()->table_hash, before->table_hash)
        << to_string(policy);
    EXPECT_EQ(full.query().margin, incremental.query().margin) << to_string(policy);
    // Removing C shrinks the cap back: a cold remove, still in lockstep.
    EXPECT_TRUE(full.remove("C").accepted);
    EXPECT_TRUE(incremental.remove("C").accepted);
    EXPECT_EQ(full.result_hash(), incremental.result_hash()) << to_string(policy);
    EXPECT_EQ(incremental.structure_digest()->table_hash, before->table_hash)
        << to_string(policy);
  }
}

// The same handcrafted stream produces the same verdicts and the same
// running result hash under every (policy, engine) pairing -- a quick
// deterministic instance of the identity the property test randomizes.
TEST(Controller, FullAndIncrementalAgreeOnHandcraftedStream) {
  for (const Policy policy : {Policy::kPm, Policy::kDs, Policy::kHolistic}) {
    ControllerOptions full = pm_options();
    full.policy = policy;
    full.full_recompute = true;
    ControllerOptions incremental = full;
    incremental.full_recompute = false;
    AdmissionController a{full};
    AdmissionController b{incremental};

    const auto both = [&](const TaskSpec& spec) {
      const Outcome x = a.admit(spec);
      const Outcome y = b.admit(spec);
      EXPECT_EQ(x.accepted, y.accepted) << spec.name;
      EXPECT_EQ(x.reason, y.reason) << spec.name;
      EXPECT_EQ(a.result_hash(), b.result_hash()) << spec.name;
    };
    both(make_spec("T1", 10, {{0, 5, 0}}));
    both(make_spec("T2", 12, {{0, 5, 1}}, 6));   // bound failure
    both(make_spec("T3", 100, {{1, 20, 0}, {0, 2, 2}}));
    both(make_spec("T4", 50, {{1, 10, 1}}));
    EXPECT_EQ(a.remove("T1").accepted, b.remove("T1").accepted);
    EXPECT_EQ(a.query().margin, b.query().margin);
    both(make_spec("T5", 40, {{0, 8, 0}}));
    // One batched group through each engine's single-trajectory path.
    EXPECT_TRUE(a.batch_begin().accepted);
    EXPECT_TRUE(b.batch_begin().accepted);
    both(make_spec("T6", 80, {{1, 4, 2}}));  // queued on both
    both(make_spec("T7", 120, {{0, 6, 3}}));
    const Outcome ca = a.batch_commit();
    const Outcome cb = b.batch_commit();
    EXPECT_EQ(ca.accepted, cb.accepted);
    EXPECT_EQ(ca.batch_size, cb.batch_size);
    EXPECT_EQ(a.result_hash(), b.result_hash())
        << "policy " << to_string(policy);
  }
}

// Two tasks of utilization 0.25 each, period 4e18 and jitter 3e18: b's
// busy-period iterates plus the jitter pass 2^63 - 1, where a ceil_div
// of the form (a + b - 1) / b wraps into a negative demand (an assertion
// abort, UB under UBSan). Every policy, incremental and full recompute,
// must bound b instead: C(1) = 3e18, busy period 4e18, C(2) = 4e18, so
// R = max(3e18 + 3e18, 4e18 + 3e18 - 4e18) = 6e18 > the 4e18 deadline.
TEST(Controller, JitteredDemandNearTheTimeLimitIsBounded) {
  constexpr Duration kPeriod = 4'000'000'000'000'000'000;
  constexpr Duration kExec = 1'000'000'000'000'000'000;
  const auto task = [&](std::string name, int level) {
    TaskSpec spec = make_spec(std::move(name), kPeriod, {{0, kExec, level}});
    spec.release_jitter = 3'000'000'000'000'000'000;
    return spec;
  };
  for (const Policy policy : {Policy::kPm, Policy::kDs, Policy::kHolistic}) {
    for (const bool full_recompute : {false, true}) {
      ControllerOptions options = pm_options(1);
      options.policy = policy;
      options.full_recompute = full_recompute;
      AdmissionController controller{options};
      EXPECT_TRUE(controller.admit(task("a", 0)).accepted) << to_string(policy);
      const Outcome b = controller.admit(task("b", 1));
      EXPECT_FALSE(b.accepted) << to_string(policy);
      EXPECT_EQ(b.reason, ReasonCode::kBoundFailure) << to_string(policy);
      EXPECT_EQ(b.culprit_eer, 6'000'000'000'000'000'000) << to_string(policy);
    }
  }
}

}  // namespace
}  // namespace e2e::admission
