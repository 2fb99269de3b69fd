// Direct unit tests of Algorithm IEERT (Figure 10) on the paper's
// Example 2: the reference Jacobi pass (tests/support/reference_analysis)
// reproduces the hand-iterated per-pass values, and the production
// in-place sweep (ieert_sweep, driven by SA/DS's sweep loop) reaches the
// same fixpoint.
#include "core/analysis/ieert.h"

#include <gtest/gtest.h>

#include "core/analysis/sa_ds.h"
#include "task/builder.h"
#include "task/paper_examples.h"
#include "tests/support/reference_analysis.h"

namespace e2e {
namespace {

using test_support::reference_ieert_pass;

SubtaskTable example2_init(const TaskSystem& sys) {
  // Figure 11 step 1: R_{i,j} = sum of execution times through j.
  SubtaskTable table{sys, 0};
  for (const Task& t : sys.tasks()) {
    Duration cumulative = 0;
    for (const Subtask& s : t.subtasks) {
      cumulative += s.execution_time;
      table.set(s.ref, cumulative);
    }
  }
  return table;
}

/// One production sweep over `table` that recomputes every entry.
SubtaskTable production_sweep(const TaskSystem& sys, const InterferenceMap& interference,
                              SubtaskTable table, const IeertOptions& options) {
  IeertIncrementalState state;
  state.seeds.resize(interference.subtask_count());
  (void)ieert_sweep(sys, interference, table, options, state);
  return table;
}

TEST(IeertPass, FirstPassOnExample2HandComputed) {
  const TaskSystem sys = paper::example2();
  const InterferenceMap interference{sys};
  const SubtaskTable init = example2_init(sys);
  // Init: T1=2, T2,1=2, T2,2=5, T3=2.
  EXPECT_EQ(init.at(SubtaskRef{TaskId{1}, 1}), 5);

  const SubtaskTable pass1 = reference_ieert_pass(sys, init, {.cap = 100000});
  // Hand-iterated (see sa_ds_test for the recurrences):
  //   T1: alone above everything on P1 -> 2.
  //   T2,1: busy with T1 -> C(1) = 4, IEER = 4.
  //   T2,2: own jitter = init R(T2,1) = 2 -> D = 3, M = 1, C(1) = 3,
  //         IEER = 3 + 2 = 5.
  //   T3: interferer T2,2 with jitter 2 -> C(1) = 8, IEER = 8.
  EXPECT_EQ(pass1.at(SubtaskRef{TaskId{0}, 0}), 2);
  EXPECT_EQ(pass1.at(SubtaskRef{TaskId{1}, 0}), 4);
  EXPECT_EQ(pass1.at(SubtaskRef{TaskId{1}, 1}), 5);
  EXPECT_EQ(pass1.at(SubtaskRef{TaskId{2}, 0}), 8);

  // The in-place sweep feeds T2,1's new bound (4) straight into T2,2's
  // jitter, so its first sweep already lands on the fixpoint the Jacobi
  // passes reach only in their second pass.
  const SubtaskTable sweep1 = production_sweep(sys, interference, init, {.cap = 100000});
  EXPECT_EQ(sweep1, reference_ieert_pass(sys, pass1, {.cap = 100000}));
}

TEST(IeertPass, SecondPassReachesTheFixpoint) {
  const TaskSystem sys = paper::example2();
  const InterferenceMap interference{sys};
  const SubtaskTable pass1 = reference_ieert_pass(sys, example2_init(sys), {.cap = 100000});
  const SubtaskTable pass2 = reference_ieert_pass(sys, pass1, {.cap = 100000});
  // With R(T2,1) = 4 as jitter, T2,2 rises to 7; T3 stays at 8.
  EXPECT_EQ(pass2.at(SubtaskRef{TaskId{1}, 1}), 7);
  EXPECT_EQ(pass2.at(SubtaskRef{TaskId{2}, 0}), 8);
  // One more pass confirms the fixpoint.
  const SubtaskTable pass3 = reference_ieert_pass(sys, pass2, {.cap = 100000});
  EXPECT_EQ(pass3, pass2);

  // SA/DS's sweep loop: one changing sweep, one confirming sweep.
  SubtaskTable table = example2_init(sys);
  IeertIncrementalState state;
  state.seeds.resize(interference.subtask_count());
  const SaDsSweeps run =
      sweep_sa_ds_to_fixpoint(sys, interference, table, {.cap = 100000}, 10, state);
  EXPECT_TRUE(run.converged);
  EXPECT_EQ(run.passes, 2);
  EXPECT_EQ(table, pass2);
}

TEST(IeertPass, InfiniteInputPropagatesToDependents) {
  const TaskSystem sys = paper::example2();
  const InterferenceMap interference{sys};
  SubtaskTable table = example2_init(sys);
  table.set(SubtaskRef{TaskId{1}, 0}, kTimeInfinity);  // T2,1 unbounded
  const SubtaskTable out = reference_ieert_pass(sys, table, {.cap = 100000});
  // T2,2 (successor) and T3 (interfered by T2,2 via the jitter term) both
  // become infinite; T1 is unaffected.
  EXPECT_TRUE(is_infinite(out.at(SubtaskRef{TaskId{1}, 1})));
  EXPECT_TRUE(is_infinite(out.at(SubtaskRef{TaskId{2}, 0})));
  EXPECT_EQ(out.at(SubtaskRef{TaskId{0}, 0}), 2);

  // Production: an incremental sweep that recomputes only T2,2 and T3
  // (forced) reads the infinite T2,1 and propagates it the same way.
  IeertIncrementalState state;
  state.seeds.resize(interference.subtask_count());
  const std::size_t count = interference.subtask_count();
  state.changed.assign(count, 0);
  state.force.assign(count, 0);
  state.force[interference.flat_index(SubtaskRef{TaskId{1}, 1})] = 1;
  state.force[interference.flat_index(SubtaskRef{TaskId{2}, 0})] = 1;
  EXPECT_EQ(ieert_sweep(sys, interference, table, {.cap = 100000}, state), 2u);
  EXPECT_TRUE(is_infinite(table.at(SubtaskRef{TaskId{1}, 0})));
  EXPECT_TRUE(is_infinite(table.at(SubtaskRef{TaskId{1}, 1})));
  EXPECT_TRUE(is_infinite(table.at(SubtaskRef{TaskId{2}, 0})));
  EXPECT_EQ(table.at(SubtaskRef{TaskId{0}, 0}), 2);
}

TEST(IeertPass, CapTurnsDivergenceIntoInfinity) {
  // Over-utilized processor: the busy-period fixpoint exceeds any cap.
  TaskSystemBuilder b{1};
  b.add_task({.period = 4})
      .subtask(ProcessorId{0}, 3, Priority{0});
  b.add_task({.period = 4}).subtask(ProcessorId{0}, 3, Priority{1});
  const TaskSystem sys = std::move(b).build();
  const InterferenceMap interference{sys};
  SubtaskTable init{sys, 0};
  init.set(SubtaskRef{TaskId{0}, 0}, 3);
  init.set(SubtaskRef{TaskId{1}, 0}, 3);
  const SubtaskTable out = production_sweep(sys, interference, init, {.cap = 1000});
  EXPECT_TRUE(is_infinite(out.at(SubtaskRef{TaskId{1}, 0})));
  EXPECT_EQ(out, reference_ieert_pass(sys, init, {.cap = 1000}));
}

TEST(IeertPass, FailureMultiplierShortCircuits) {
  const TaskSystem sys = paper::example2();
  const InterferenceMap interference{sys};
  // A multiplier below 8/6 must knock T3 (fixpoint IEER 8, period 6) to
  // infinity while leaving T1 (bound 2) alone.
  const IeertOptions options{.cap = 100000, .failure_period_multiplier = 1.1};
  const SubtaskTable p1 =
      production_sweep(sys, interference, example2_init(sys), options);
  EXPECT_TRUE(is_infinite(p1.at(SubtaskRef{TaskId{2}, 0})));
  EXPECT_EQ(p1.at(SubtaskRef{TaskId{0}, 0}), 2);
  const SubtaskTable reference = reference_ieert_pass(sys, example2_init(sys), options);
  EXPECT_TRUE(is_infinite(reference.at(SubtaskRef{TaskId{2}, 0})));
  EXPECT_EQ(reference.at(SubtaskRef{TaskId{0}, 0}), 2);
}

}  // namespace
}  // namespace e2e
