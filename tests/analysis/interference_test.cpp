#include "core/analysis/interference.h"

#include <gtest/gtest.h>

#include "task/builder.h"
#include "task/paper_examples.h"

namespace e2e {
namespace {

TEST(Interference, Example2Sets) {
  const TaskSystem sys = paper::example2();
  const InterferenceMap map{sys};

  // T1 is highest on P1: no interference.
  EXPECT_TRUE(map.of(SubtaskRef{TaskId{0}, 0}).empty());
  // T2,1 is interfered by T1.
  const auto t21 = map.of(SubtaskRef{TaskId{1}, 0});
  ASSERT_EQ(t21.size(), 1u);
  EXPECT_EQ(t21[0], (SubtaskRef{TaskId{0}, 0}));
  const auto t21_soa = map.soa_of(SubtaskRef{TaskId{1}, 0});
  ASSERT_EQ(t21_soa.size(), 1u);
  EXPECT_EQ(t21_soa.periods[0], 4);
  EXPECT_EQ(t21_soa.execs[0], 2);
  EXPECT_EQ(t21_soa.jitters[0], 0);
  // T2,2 is highest on P2.
  EXPECT_TRUE(map.of(SubtaskRef{TaskId{1}, 1}).empty());
  EXPECT_EQ(map.soa_of(SubtaskRef{TaskId{1}, 1}).size(), 0u);
  // T3 is interfered by T2,2, whose predecessor T2,1 sits one flat index
  // before it.
  const auto t3 = map.of(SubtaskRef{TaskId{2}, 0});
  ASSERT_EQ(t3.size(), 1u);
  EXPECT_EQ(t3[0], (SubtaskRef{TaskId{1}, 1}));
  EXPECT_EQ(map.flat_index(t3[0]) - 1, map.flat_index(SubtaskRef{TaskId{1}, 0}));
  const auto t3_soa = map.soa_of(SubtaskRef{TaskId{2}, 0});
  ASSERT_EQ(t3_soa.size(), 1u);
  EXPECT_EQ(t3_soa.periods[0], 6);
  EXPECT_EQ(t3_soa.execs[0], 3);
}

TEST(Interference, EqualPriorityCountsBothWays) {
  TaskSystemBuilder b{1};
  b.add_task({.period = 10}).subtask(ProcessorId{0}, 2, Priority{3});
  b.add_task({.period = 12}).subtask(ProcessorId{0}, 3, Priority{3});
  const TaskSystem sys = std::move(b).build();
  const InterferenceMap map{sys};
  // The paper's H set uses "priority higher than or equal to": two
  // equal-priority subtasks interfere with each other.
  EXPECT_EQ(map.of(SubtaskRef{TaskId{0}, 0}).size(), 1u);
  EXPECT_EQ(map.of(SubtaskRef{TaskId{1}, 0}).size(), 1u);
}

TEST(Interference, SelfIsExcluded) {
  TaskSystemBuilder b{1};
  b.add_task({.period = 10}).subtask(ProcessorId{0}, 2, Priority{0});
  const TaskSystem sys = std::move(b).build();
  const InterferenceMap map{sys};
  EXPECT_TRUE(map.of(SubtaskRef{TaskId{0}, 0}).empty());
}

TEST(Interference, OtherProcessorsDoNotInterfere) {
  TaskSystemBuilder b{2};
  b.add_task({.period = 10}).subtask(ProcessorId{0}, 2, Priority{0});
  b.add_task({.period = 10}).subtask(ProcessorId{1}, 2, Priority{0});
  const TaskSystem sys = std::move(b).build();
  const InterferenceMap map{sys};
  EXPECT_TRUE(map.of(SubtaskRef{TaskId{0}, 0}).empty());
  EXPECT_TRUE(map.of(SubtaskRef{TaskId{1}, 0}).empty());
}

TEST(Interference, LowerPriorityDoesNotInterfere) {
  TaskSystemBuilder b{1};
  b.add_task({.period = 10}).subtask(ProcessorId{0}, 2, Priority{0});
  b.add_task({.period = 12}).subtask(ProcessorId{0}, 3, Priority{1});
  const TaskSystem sys = std::move(b).build();
  const InterferenceMap map{sys};
  EXPECT_TRUE(map.of(SubtaskRef{TaskId{0}, 0}).empty());
  EXPECT_EQ(map.of(SubtaskRef{TaskId{1}, 0}).size(), 1u);
}

TEST(Interference, SameTaskSiblingsOnOneProcessorInterfere) {
  // Non-consecutive siblings may share a processor; the analyses treat
  // them as independent periodic interferers.
  TaskSystemBuilder b{2};
  b.add_task({.period = 10})
      .subtask(ProcessorId{0}, 1, Priority{0})
      .subtask(ProcessorId{1}, 1, Priority{0})
      .subtask(ProcessorId{0}, 2, Priority{1});
  const TaskSystem sys = std::move(b).build();
  const InterferenceMap map{sys};
  const auto third = map.of(SubtaskRef{TaskId{0}, 2});
  ASSERT_EQ(third.size(), 1u);
  EXPECT_EQ(third[0], (SubtaskRef{TaskId{0}, 0}));
}

/// Four tasks on three processors with equal priorities across tasks, a
/// non-preemptible subtask, same-task siblings sharing a processor, and
/// nonzero release jitters -- every shape the delta paths must patch.
TaskSystem delta_system() {
  TaskSystemBuilder b{3};
  b.add_task({.period = 20, .release_jitter = 1})
      .subtask(ProcessorId{0}, 2, Priority{1})
      .subtask(ProcessorId{1}, 3, Priority{1})
      .subtask(ProcessorId{0}, 1, Priority{2});
  b.add_task({.period = 30})
      .subtask(ProcessorId{0}, 4, Priority{1})
      .non_preemptible()
      .subtask(ProcessorId{2}, 2, Priority{0});
  b.add_task({.period = 25})
      .subtask(ProcessorId{1}, 2, Priority{1})
      .subtask(ProcessorId{0}, 3, Priority{1})
      .subtask(ProcessorId{1}, 1, Priority{0});
  b.add_task({.period = 40, .release_jitter = 2})
      .subtask(ProcessorId{2}, 5, Priority{0})
      .subtask(ProcessorId{0}, 2, Priority{1});
  return std::move(b).build();
}

TaskSystem without_task(TaskSystem system, std::size_t index) {
  system.remove_task(index);
  return system;
}

TEST(InterferenceDelta, AdmitThenRemoveLastMatchesFresh) {
  const TaskSystem full = delta_system();
  const TaskSystem base = without_task(full, 3);
  InterferenceMap map{base};
  ASSERT_NE(map.content_hash(), InterferenceMap{full}.content_hash());

  map.apply_admit(full);
  EXPECT_EQ(map.subtask_count(), 10u);
  EXPECT_EQ(map.content_hash(), InterferenceMap{full}.content_hash());
  // T1,1 (P0, priority 1) gained the candidate's equal-priority T4,2 last.
  const auto t11 = map.of(SubtaskRef{TaskId{0}, 0});
  ASSERT_FALSE(t11.empty());
  EXPECT_EQ(t11.back(), (SubtaskRef{TaskId{3}, 1}));

  map.apply_remove(3);
  EXPECT_EQ(map.subtask_count(), 8u);
  EXPECT_EQ(map.content_hash(), InterferenceMap{base}.content_hash());
}

TEST(InterferenceDelta, RemoveMiddleTaskMatchesFresh) {
  const TaskSystem full = delta_system();
  for (std::size_t removed = 0; removed < full.task_count(); ++removed) {
    InterferenceMap map{full};
    map.apply_remove(removed);
    const TaskSystem shrunk = without_task(full, removed);
    EXPECT_EQ(map.content_hash(), InterferenceMap{shrunk}.content_hash()) << removed;
    EXPECT_EQ(map.subtask_count(), InterferenceMap{shrunk}.subtask_count());
  }
  // Removing T2 renumbers T3 and T4 down, references included.
  InterferenceMap map{full};
  map.apply_remove(1);
  const auto t32 = map.of(SubtaskRef{TaskId{1}, 1});  // was T3,2 on P0
  ASSERT_FALSE(t32.empty());
  EXPECT_EQ(t32.back(), (SubtaskRef{TaskId{2}, 1}));  // was T4,2
  EXPECT_EQ(map.flat_index(SubtaskRef{TaskId{2}, 0}), 6u);
}

TEST(InterferenceDelta, TwoTaskBatchAppendedThenRevertedMatchesFresh) {
  const TaskSystem full = delta_system();
  const TaskSystem base = without_task(without_task(full, 3), 2);
  TaskSystem grown = base;
  InterferenceMap map{base};
  const std::uint64_t base_hash = map.content_hash();
  for (std::size_t t = 2; t < full.task_count(); ++t) {
    grown.append_task(full.tasks()[t]);
    map.apply_admit(grown);
    EXPECT_EQ(map.content_hash(), InterferenceMap{grown}.content_hash()) << t;
  }
  EXPECT_EQ(map.content_hash(), InterferenceMap{full}.content_hash());
  // A rejected batch reverts member by member, last first.
  map.apply_remove(3);
  map.apply_remove(2);
  EXPECT_EQ(map.content_hash(), base_hash);
  EXPECT_EQ(map.subtask_count(), 5u);
}

}  // namespace
}  // namespace e2e
