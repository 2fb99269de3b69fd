// Exhaustive phase search vs the analytic bounds on small systems.
#include <gtest/gtest.h>

#include <cmath>

#include "common/error.h"
#include "core/analysis/sa_ds.h"
#include "core/analysis/sa_pm.h"
#include "experiments/exhaustive.h"
#include "task/builder.h"
#include "task/paper_examples.h"

namespace e2e {
namespace {

TEST(Exhaustive, Example2DsFindsTheFigure3WorstCase) {
  // The phase grid includes the paper's phasing (T3 at 4), where T3's
  // first instance responds in 8. The search must find at least that.
  const TaskSystem sys = paper::example2();
  const ExhaustiveResult r = exhaustive_worst_eer(sys, ProtocolKind::kDirectSync);
  EXPECT_EQ(r.phasings_tried, 4 * 6 * 6);
  EXPECT_GE(r.worst_eer[2], 8);
  // And it must stay within the SA/DS upper bound (8): so it is exactly 8,
  // i.e. the SA/DS bound is TIGHT for T3 in Example 2.
  const SaDsResult bounds = analyze_sa_ds(sys);
  EXPECT_LE(r.worst_eer[2], bounds.analysis.eer_bound(TaskId{2}));
  EXPECT_EQ(r.worst_eer[2], 8);
}

TEST(Exhaustive, ObservedWorstNeverExceedsBounds) {
  const TaskSystem sys = paper::example2();
  const AnalysisResult pm_bounds = analyze_sa_pm(sys);
  const SaDsResult ds_bounds = analyze_sa_ds(sys);

  const ExhaustiveResult rg = exhaustive_worst_eer(sys, ProtocolKind::kReleaseGuard);
  const ExhaustiveResult ds = exhaustive_worst_eer(sys, ProtocolKind::kDirectSync);
  for (const Task& t : sys.tasks()) {
    EXPECT_LE(rg.worst_eer[t.id.index()], pm_bounds.eer_bound(t.id)) << t.name;
    EXPECT_LE(ds.worst_eer[t.id.index()], ds_bounds.analysis.eer_bound(t.id))
        << t.name;
  }
}

TEST(Exhaustive, RgWorstAtLeastAnySinglePhasing) {
  // Searching all phasings dominates the paper's specific one.
  const TaskSystem sys = paper::example2();
  const ExhaustiveResult r = exhaustive_worst_eer(sys, ProtocolKind::kReleaseGuard);
  EXPECT_GE(r.worst_eer[2], 5);  // T3's worst under the paper's phasing
}

TEST(Exhaustive, PmSearchUsesPhaseIndependentBounds) {
  const TaskSystem sys = paper::example2();
  const ExhaustiveResult r =
      exhaustive_worst_eer(sys, ProtocolKind::kPhaseModification);
  const AnalysisResult pm_bounds = analyze_sa_pm(sys);
  for (const Task& t : sys.tasks()) {
    EXPECT_LE(r.worst_eer[t.id.index()], pm_bounds.eer_bound(t.id)) << t.name;
  }
}

TEST(Exhaustive, CoarserGridTriesFewerPhasings) {
  const TaskSystem sys = paper::example2();
  const ExhaustiveResult fine = exhaustive_worst_eer(sys, ProtocolKind::kDirectSync,
                                                     {.phase_step = 2});
  EXPECT_EQ(fine.phasings_tried, 2 * 3 * 3);
}

TEST(Exhaustive, RefusesExplosiveSearches) {
  TaskSystemBuilder b{2};
  b.add_task({.period = 1000}).subtask(ProcessorId{0}, 1, Priority{0});
  b.add_task({.period = 1000}).subtask(ProcessorId{1}, 1, Priority{0});
  b.add_task({.period = 1000})
      .subtask(ProcessorId{0}, 1, Priority{1})
      .subtask(ProcessorId{1}, 1, Priority{1});
  const TaskSystem sys = std::move(b).build();  // 10^9 phasings
  EXPECT_THROW(
      (void)exhaustive_worst_eer(sys, ProtocolKind::kDirectSync, {.max_phasings = 100}),
      InvalidArgument);
}

TEST(Exhaustive, WorstPhasingIsRecorded) {
  const TaskSystem sys = paper::example2();
  const ExhaustiveResult r = exhaustive_worst_eer(sys, ProtocolKind::kDirectSync);
  ASSERT_EQ(r.worst_phasing[2].size(), 3u);
  // Recorded phases lie on the grid within each task's period.
  for (const Task& t : sys.tasks()) {
    EXPECT_GE(r.worst_phasing[2][t.id.index()], 0);
    EXPECT_LT(r.worst_phasing[2][t.id.index()], t.period);
  }
}

TaskSystem one_task(Duration period) {
  TaskSystemBuilder b{1};
  b.add_task({.period = period}).subtask(ProcessorId{0}, 1, Priority{0});
  return std::move(b).build();
}

TEST(Exhaustive, RejectsNonPositiveHorizons) {
  const TaskSystem sys = paper::example2();
  for (const double multiplier : {0.0, -1.0, std::nan("")}) {
    EXPECT_THROW((void)exhaustive_worst_eer(sys, ProtocolKind::kDirectSync,
                                            {.horizon_hyperperiods = multiplier}),
                 InvalidArgument)
        << multiplier;
  }
  // A positive multiplier whose horizon truncates to zero ticks.
  EXPECT_THROW((void)exhaustive_worst_eer(one_task(5), ProtocolKind::kDirectSync,
                                          {.horizon_hyperperiods = 0.1}),
               InvalidArgument);
}

TEST(Exhaustive, RejectsHorizonsPastTheTimeLimit) {
  // Two hyperperiods of 5e18 ticks leave the 64-bit range: the search
  // used to wrap the horizon and abort inside the engine.
  constexpr Duration kHuge = 5'000'000'000'000'000'000;
  EXPECT_THROW((void)exhaustive_worst_eer(one_task(kHuge), ProtocolKind::kDirectSync,
                                          {.phase_step = kHuge}),
               InvalidArgument);
  // A saturated hyperperiod falls back to 20 maximum periods, which here
  // leaves no maximum period of headroom either.
  constexpr Duration kPeriod = 450'000'000'000'000'000;
  TaskSystemBuilder b{2};
  b.add_task({.period = kPeriod}).subtask(ProcessorId{0}, 1, Priority{0});
  b.add_task({.period = kPeriod + 1}).subtask(ProcessorId{1}, 1, Priority{0});
  const TaskSystem coprime = std::move(b).build();
  ASSERT_TRUE(is_infinite(coprime.hyperperiod()));
  EXPECT_THROW((void)exhaustive_worst_eer(coprime, ProtocolKind::kDirectSync,
                                          {.phase_step = kPeriod}),
               InvalidArgument);
}

TEST(Exhaustive, HugePeriodsWithinTheTimeLimitStillRun) {
  // Two hyperperiods plus one period of headroom fit below 2^63.
  constexpr Duration kPeriod = 1'000'000'000'000'000'000;
  const ExhaustiveResult r = exhaustive_worst_eer(
      one_task(kPeriod), ProtocolKind::kDirectSync, {.phase_step = kPeriod});
  EXPECT_EQ(r.phasings_tried, 1);
  EXPECT_EQ(r.worst_eer[0], 1);
}

}  // namespace
}  // namespace e2e
