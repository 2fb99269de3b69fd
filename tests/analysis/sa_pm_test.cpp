#include "core/analysis/sa_pm.h"

#include <gtest/gtest.h>

#include "task/builder.h"
#include "task/paper_examples.h"

namespace e2e {
namespace {

TEST(SaPm, SingleTaskAloneBoundEqualsExecution) {
  TaskSystemBuilder b{1};
  b.add_task({.period = 10}).subtask(ProcessorId{0}, 3, Priority{0});
  const AnalysisResult r = analyze_sa_pm(std::move(b).build());
  EXPECT_EQ(r.subtask_bounds.at(SubtaskRef{TaskId{0}, 0}), 3);
  EXPECT_EQ(r.eer_bound(TaskId{0}), 3);
  EXPECT_TRUE(r.system_schedulable());
}

TEST(SaPm, HugePeriodSaturatesTheCap) {
  // 300 x period is past 2^63: the divergence cap saturates at infinity
  // rather than wrapping negative and failing a trivially bounded task.
  TaskSystemBuilder b{1};
  b.add_task({.period = 4'000'000'000'000'000'000}).subtask(ProcessorId{0}, 1, Priority{0});
  const AnalysisResult r = analyze_sa_pm(std::move(b).build());
  EXPECT_EQ(r.eer_bound(TaskId{0}), 1);
  EXPECT_TRUE(r.system_schedulable());
}

TEST(SaPm, Example2SubtaskBounds) {
  const TaskSystem sys = paper::example2();
  const AnalysisResult r = analyze_sa_pm(sys);
  // Hand-checked against the paper: R(T1) = 2, R(T2,1) = 4 (quoted in
  // Section 3.1: "The bound on the response time of T2,1 is 4"),
  // R(T2,2) = 3, R(T3) = 5.
  EXPECT_EQ(r.subtask_bounds.at(SubtaskRef{TaskId{0}, 0}), 2);
  EXPECT_EQ(r.subtask_bounds.at(SubtaskRef{TaskId{1}, 0}), 4);
  EXPECT_EQ(r.subtask_bounds.at(SubtaskRef{TaskId{1}, 1}), 3);
  EXPECT_EQ(r.subtask_bounds.at(SubtaskRef{TaskId{2}, 0}), 5);
}

TEST(SaPm, Example2EerBounds) {
  const AnalysisResult r = analyze_sa_pm(paper::example2());
  EXPECT_EQ(r.eer_bound(TaskId{0}), 2);
  EXPECT_EQ(r.eer_bound(TaskId{1}), 7);  // 4 + 3: exceeds T2's deadline of 6
  EXPECT_EQ(r.eer_bound(TaskId{2}), 5);  // T3 schedulable under PM/MPM/RG
  EXPECT_TRUE(r.task_schedulable[0]);
  EXPECT_FALSE(r.task_schedulable[1]);
  EXPECT_TRUE(r.task_schedulable[2]);
  EXPECT_FALSE(r.system_schedulable());
}

TEST(SaPm, LehoczkyMultipleInstancesInBusyPeriod) {
  // Arbitrary-deadline case: a 100%-utilized processor where the victim's
  // worst response is NOT for the first instance in the busy period.
  // Interferer: p=4, e=2 (high prio). Victim: p=6, e=3 (low prio).
  // Busy period: t = ceil(t/4)*2 + ceil(t/6)*3 -> t = 12 -> M = 2.
  // C(1): t = 3 + ceil(t/4)*2 -> 7 -> R(1) = 7.
  // C(2): t = 6 + ceil(t/4)*2 -> 12 -> R(2) = 12 - 6 = 6. Max = 7.
  TaskSystemBuilder b{1};
  b.add_task({.period = 4}).subtask(ProcessorId{0}, 2, Priority{0});
  b.add_task({.period = 6, .deadline = 12}).subtask(ProcessorId{0}, 3, Priority{1});
  const AnalysisResult r = analyze_sa_pm(std::move(b).build());
  EXPECT_EQ(r.subtask_bounds.at(SubtaskRef{TaskId{1}, 0}), 7);
}

TEST(SaPm, OverUtilizedProcessorYieldsInfinity) {
  TaskSystemBuilder b{1};
  b.add_task({.period = 4}).subtask(ProcessorId{0}, 3, Priority{0});
  b.add_task({.period = 4}).subtask(ProcessorId{0}, 3, Priority{1});
  const AnalysisResult r = analyze_sa_pm(std::move(b).build());
  EXPECT_TRUE(is_infinite(r.eer_bound(TaskId{1})));
  EXPECT_FALSE(r.all_bounded());
  EXPECT_FALSE(r.system_schedulable());
}

TEST(SaPm, ExactlyFullUtilizationStillBounded) {
  // U = 1 exactly: busy period is finite (equal to the hyperperiod here).
  TaskSystemBuilder b{1};
  b.add_task({.period = 4}).subtask(ProcessorId{0}, 2, Priority{0});
  b.add_task({.period = 4, .deadline = 8}).subtask(ProcessorId{0}, 2, Priority{1});
  const AnalysisResult r = analyze_sa_pm(std::move(b).build());
  EXPECT_EQ(r.eer_bound(TaskId{1}), 4);
}

TEST(SaPm, EerBoundIsSumOfSubtaskBounds) {
  const TaskSystem sys = paper::example1_monitor_with_interference();
  const AnalysisResult r = analyze_sa_pm(sys);
  const Task& monitor = sys.task(TaskId{0});
  Duration sum = 0;
  for (const Subtask& s : monitor.subtasks) sum += r.subtask_bounds.at(s.ref);
  EXPECT_EQ(r.eer_bound(TaskId{0}), sum);
}

TEST(SaPm, EqualPrioritiesAreMutuallyConservative) {
  // Two equal-priority subtasks: each bound accounts for the other.
  TaskSystemBuilder b{1};
  b.add_task({.period = 10}).subtask(ProcessorId{0}, 2, Priority{0});
  b.add_task({.period = 10}).subtask(ProcessorId{0}, 3, Priority{0});
  const AnalysisResult r = analyze_sa_pm(std::move(b).build());
  EXPECT_EQ(r.eer_bound(TaskId{0}), 5);
  EXPECT_EQ(r.eer_bound(TaskId{1}), 5);
}

TEST(SaPm, ReusedInterferenceMapGivesSameResult) {
  const TaskSystem sys = paper::example2();
  const InterferenceMap map{sys};
  const AnalysisResult a = analyze_sa_pm(sys);
  const AnalysisResult b = analyze_sa_pm(sys, map);
  for (const Task& t : sys.tasks()) {
    EXPECT_EQ(a.eer_bound(t.id), b.eer_bound(t.id));
  }
}

}  // namespace
}  // namespace e2e
