// Property tests on the schedulability analyses over randomized systems.
#include <gtest/gtest.h>

#include "core/analysis/holistic.h"
#include "core/analysis/ieert.h"
#include "core/analysis/sa_ds.h"
#include "core/analysis/sa_pm.h"
#include "tests/support/reference_analysis.h"
#include "workload/generator.h"

namespace e2e {
namespace {

using test_support::reference_ieert_pass;

struct Params {
  std::uint64_t seed;
  int subtasks;
  int utilization;
};

class AnalysisProperty : public ::testing::TestWithParam<Params> {
 protected:
  TaskSystem make_system() const {
    const Params& p = GetParam();
    Rng rng{p.seed * 1000003};
    GeneratorOptions options = options_for(
        {.subtasks_per_task = p.subtasks, .utilization_percent = p.utilization});
    options.processors = 3;
    options.tasks = 6;
    options.ticks_per_unit = 10;
    return generate_system(rng, options);
  }
};

TEST_P(AnalysisProperty, SaPmBoundsAtLeastCumulativeExecution) {
  const TaskSystem sys = make_system();
  const AnalysisResult r = analyze_sa_pm(sys);
  for (const Task& t : sys.tasks()) {
    if (is_infinite(r.eer_bound(t.id))) continue;
    EXPECT_GE(r.eer_bound(t.id), t.total_execution_time()) << t.name;
    for (const Subtask& s : t.subtasks) {
      EXPECT_GE(r.subtask_bounds.at(s.ref), s.execution_time);
    }
  }
}

TEST_P(AnalysisProperty, SaDsNeverTighterThanSaPm) {
  const TaskSystem sys = make_system();
  const AnalysisResult pm = analyze_sa_pm(sys);
  const SaDsResult ds = analyze_sa_ds(sys);
  for (const Task& t : sys.tasks()) {
    const Duration ds_bound = ds.analysis.eer_bound(t.id);
    const Duration pm_bound = pm.eer_bound(t.id);
    if (is_infinite(ds_bound)) continue;  // infinite is trivially >= pm
    ASSERT_FALSE(is_infinite(pm_bound));
    EXPECT_GE(ds_bound, pm_bound) << t.name;
  }
}

TEST_P(AnalysisProperty, HolisticBetweenSaPmAndSaDs) {
  const TaskSystem sys = make_system();
  const AnalysisResult pm = analyze_sa_pm(sys);
  const SaDsResult ds = analyze_sa_ds(sys);
  const SaDsResult holistic = analyze_holistic_ds(sys);
  for (const Task& t : sys.tasks()) {
    const Duration h = holistic.analysis.eer_bound(t.id);
    const Duration d = ds.analysis.eer_bound(t.id);
    if (!is_infinite(h)) {
      EXPECT_GE(h, pm.eer_bound(t.id)) << t.name;
    }
    if (!is_infinite(h) && !is_infinite(d)) {
      EXPECT_LE(h, d) << t.name;  // the refined jitter never hurts
    }
    // A holistic failure implies an SA/DS failure (never the reverse).
    if (is_infinite(h)) {
      EXPECT_TRUE(is_infinite(d)) << t.name;
    }
  }
}

TEST_P(AnalysisProperty, SaDsIsAFixpoint) {
  const TaskSystem sys = make_system();
  const InterferenceMap interference{sys};
  const SaDsResult ds = analyze_sa_ds(sys, interference, {});
  if (!ds.converged) GTEST_SKIP();
  // Re-applying IEERT (with the same caps SA/DS used) must not move any
  // finite bound: R = IEERT(T, R).
  Duration max_cutoff = 0;
  for (const Task& t : sys.tasks()) {
    max_cutoff = std::max(max_cutoff, 300 * t.period);
  }
  const SubtaskTable again =
      reference_ieert_pass(sys, ds.analysis.subtask_bounds, {.cap = 2 * max_cutoff});
  for (const Task& t : sys.tasks()) {
    for (const Subtask& s : t.subtasks) {
      const Duration before = ds.analysis.subtask_bounds.at(s.ref);
      if (is_infinite(before)) continue;
      EXPECT_EQ(again.at(s.ref), before) << t.name << " index " << s.ref.index;
    }
  }
}

TEST_P(AnalysisProperty, SweepOnConvergedTableIsOneReferencePass) {
  const TaskSystem sys = make_system();
  const InterferenceMap interference{sys};
  const SaDsResult ds = analyze_sa_ds(sys, interference, {});
  if (!ds.converged) GTEST_SKIP();
  // One more sweep of the shared SA/DS loop, recomputing every entry,
  // changes nothing (infinite entries included) ...
  const IeertOptions options = sa_ds_ieert_options(sys, {});
  SubtaskTable table = ds.analysis.subtask_bounds;
  IeertIncrementalState state;
  state.seeds.resize(interference.subtask_count());
  const SaDsSweeps run = sweep_sa_ds_to_fixpoint(sys, interference, table, options, 1, state);
  EXPECT_TRUE(run.converged);
  EXPECT_EQ(run.passes, 1);
  EXPECT_EQ(table, ds.analysis.subtask_bounds);
  // ... and equals one Jacobi pass of the independent formulation.
  EXPECT_EQ(reference_ieert_pass(sys, ds.analysis.subtask_bounds, options), table);
}

TEST_P(AnalysisProperty, IeertOperatorIsMonotone) {
  const TaskSystem sys = make_system();
  const InterferenceMap interference{sys};
  // Two input tables, one dominating the other.
  SubtaskTable low{sys, 0};
  SubtaskTable high{sys, 0};
  for (const Task& t : sys.tasks()) {
    Duration c = 0;
    for (const Subtask& s : t.subtasks) {
      c += s.execution_time;
      low.set(s.ref, c);
      high.set(s.ref, c + t.period / 2);
    }
  }
  const Time cap = 1'000'000'000;
  const SubtaskTable low_out = reference_ieert_pass(sys, low, {.cap = cap});
  const SubtaskTable high_out = reference_ieert_pass(sys, high, {.cap = cap});
  // The production in-place sweep is monotone as well.
  for (SubtaskTable* table : {&low, &high}) {
    IeertIncrementalState state;
    state.seeds.resize(interference.subtask_count());
    (void)ieert_sweep(sys, interference, *table, {.cap = cap}, state);
  }
  for (const Task& t : sys.tasks()) {
    for (const Subtask& s : t.subtasks) {
      if (!is_infinite(low_out.at(s.ref)) && !is_infinite(high_out.at(s.ref))) {
        EXPECT_LE(low_out.at(s.ref), high_out.at(s.ref));
      }
      if (!is_infinite(low.at(s.ref)) && !is_infinite(high.at(s.ref))) {
        EXPECT_LE(low.at(s.ref), high.at(s.ref));
      }
    }
  }
}

TEST_P(AnalysisProperty, DeterministicAcrossCalls) {
  const TaskSystem sys = make_system();
  const SaDsResult a = analyze_sa_ds(sys);
  const SaDsResult b = analyze_sa_ds(sys);
  EXPECT_EQ(a.passes, b.passes);
  for (const Task& t : sys.tasks()) {
    EXPECT_EQ(a.analysis.eer_bound(t.id), b.analysis.eer_bound(t.id));
  }
}

INSTANTIATE_TEST_SUITE_P(
    Grid, AnalysisProperty,
    ::testing::Values(Params{1, 2, 50}, Params{2, 3, 60}, Params{3, 4, 70},
                      Params{4, 5, 80}, Params{5, 6, 90}, Params{6, 8, 80},
                      Params{7, 7, 90}, Params{8, 2, 90}, Params{9, 8, 50},
                      Params{10, 4, 60}, Params{11, 6, 70}, Params{12, 5, 90}),
    [](const ::testing::TestParamInfo<Params>& param_info) {
      return "seed" + std::to_string(param_info.param.seed) + "_N" +
             std::to_string(param_info.param.subtasks) + "_U" +
             std::to_string(param_info.param.utilization);
    });

}  // namespace
}  // namespace e2e
