// Property tests for the analysis fast path: across 200 generated
// systems (N cycling 2..6, U cycling 50..80%), the inlined
// structure-of-arrays demand kernels and incremental in-place IEERT
// sweeps must produce AnalysisResults
// identical -- exact Time equality, bound for bound -- to the
// plain-formulation reference analyses
// (tests/support/reference_analysis).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "common/rng.h"
#include "core/analysis/demand.h"
#include "core/analysis/fixpoint.h"
#include "core/analysis/kernels.h"
#include "core/analysis/sa_ds.h"
#include "core/analysis/sa_pm.h"
#include "tests/support/reference_analysis.h"
#include "workload/generator.h"

namespace e2e {
namespace {

using test_support::reference_response_bound;
using test_support::reference_sa_ds;
using test_support::reference_sa_pm;
using test_support::ReferenceInterferer;
using test_support::ReferenceResponse;

constexpr int kSystems = 200;

TaskSystem system_for(int i) {
  constexpr int kSubtasks[] = {2, 3, 4, 5, 6};
  constexpr int kUtil[] = {50, 60, 70, 80};
  Rng rng{std::uint64_t{0x9e3779b97f4a7c15} ^
          (static_cast<std::uint64_t>(i) * std::uint64_t{2654435761})};
  return generate_system(
      rng, options_for({.subtasks_per_task = kSubtasks[i % 5],
                        .utilization_percent = kUtil[i % 4]}));
}

void expect_identical(const TaskSystem& system, const AnalysisResult& want,
                      const AnalysisResult& got, const char* what, int i) {
  ASSERT_EQ(want.eer_bounds, got.eer_bounds) << what << ", system " << i;
  ASSERT_EQ(want.task_schedulable, got.task_schedulable) << what << ", system " << i;
  for (const Task& t : system.tasks()) {
    for (std::size_t k = 0; k < t.subtasks.size(); ++k) {
      const SubtaskRef ref{t.id, static_cast<std::int32_t>(k)};
      ASSERT_EQ(want.subtask_bounds.at(ref), got.subtask_bounds.at(ref))
          << what << ", system " << i << ", task " << t.id.index()
          << " subtask " << k;
    }
  }
}

TEST(DemandKernel, SaPmInlinedMatchesReference) {
  for (int i = 0; i < kSystems; ++i) {
    const TaskSystem system = system_for(i);
    const AnalysisResult reference = reference_sa_pm(system);
    const AnalysisResult fast = analyze_sa_pm(system, InterferenceMap{system}, {});
    expect_identical(system, reference, fast, "inlined kernel", i);
  }
}

TEST(DemandKernel, SaDsSweepsMatchReferenceJacobi) {
  for (int i = 0; i < kSystems; ++i) {
    const TaskSystem system = system_for(i);
    const SaDsResult reference = reference_sa_ds(system);
    const SaDsResult fast = analyze_sa_ds(system, InterferenceMap{system}, {});
    ASSERT_EQ(reference.converged, fast.converged) << "system " << i;
    expect_identical(system, reference.analysis, fast.analysis, "SA/DS sweeps", i);
    // Gauss-Seidel sweeps never need more passes than Jacobi ones.
    EXPECT_LE(fast.passes, reference.passes) << "system " << i;
  }
}

// Regression for the duplicated seed evaluation: solve_fixpoint used to
// call demand(1) twice before iterating. A constant demand now costs
// exactly two evaluations (the seed probe and the fixpoint check).
TEST(DemandKernel, SolveFixpointEvaluatesSeedOnce) {
  int calls = 0;
  const auto demand = [&calls](Time) {
    ++calls;
    return Duration{3};
  };
  const auto w = solve_fixpoint(demand, {.cap = 1000});
  ASSERT_TRUE(w.has_value());
  EXPECT_EQ(*w, 3);
  EXPECT_EQ(calls, 2);
}

// solve_response_bound writes its fixpoints over the caller's seeds in
// place. Cleared seeds (capacity kept), seeds from a dominated equation
// and seeds an unbounded solve left must all give the result of a solve
// into fresh seeds: bound, busy period and every completion fixpoint.
struct KernelCase {
  std::vector<Duration> periods;
  std::vector<Duration> execs;
  ResponseEquation eq;

  [[nodiscard]] HpView hp() const {
    static const std::vector<Duration> kNoJitter(8, 0);
    return HpView{periods, execs,
                  std::span<const Duration>{kNoJitter}.first(periods.size())};
  }
};

struct Solved {
  Duration bound = 0;
  FixpointSeeds seeds;
};

Solved solve_fresh(const KernelCase& c) {
  Solved solved;
  solved.bound = solve_response_bound(c.eq, c.hp(), &solved.seeds);
  return solved;
}

void expect_same_seeds(const Solved& want, const FixpointSeeds& got, const char* what) {
  EXPECT_EQ(want.seeds.busy, got.busy) << what;
  EXPECT_EQ(want.seeds.completions, got.completions) << what;
}

TEST(DemandKernel, ResponseBoundIntoReusedSeedsMatchesFresh) {
  constexpr Time kCap = 1800;
  // Victim p=6 e=3 under growing interference (each case dominates the
  // previous one pointwise, same cap): 1, 3 and 10 instances in the busy
  // period, then a diverging one (utilization 0.5 + 0.4 + 0.15 > 1).
  const ResponseEquation victim{.period = 6, .exec = 3, .cap = kCap};
  const KernelCase light{{5}, {2}, victim};
  const KernelCase medium{{5, 20}, {2, 1}, victim};
  const KernelCase heavy{{5, 20}, {2, 2}, victim};
  const KernelCase diverging{{5, 20}, {2, 3}, victim};
  const Solved fresh_light = solve_fresh(light);
  const Solved fresh_medium = solve_fresh(medium);
  const Solved fresh_heavy = solve_fresh(heavy);
  ASSERT_LT(fresh_light.seeds.completions.size(), fresh_medium.seeds.completions.size());
  ASSERT_LT(fresh_medium.seeds.completions.size(), fresh_heavy.seeds.completions.size());
  ASSERT_TRUE(is_infinite(solve_fresh(diverging).bound));

  // Cold into cleared seeds that held more instances.
  FixpointSeeds reused = fresh_heavy.seeds;
  reused.clear();
  EXPECT_EQ(solve_response_bound(light.eq, light.hp(), &reused), fresh_light.bound);
  expect_same_seeds(fresh_light, reused, "cold into cleared seeds");

  // Seeded (monotone growth) over fewer instances and over the same count.
  EXPECT_EQ(solve_response_bound(medium.eq, medium.hp(), &reused), fresh_medium.bound);
  expect_same_seeds(fresh_medium, reused, "seeded over fewer instances");
  EXPECT_EQ(solve_response_bound(heavy.eq, heavy.hp(), &reused), fresh_heavy.bound);
  expect_same_seeds(fresh_heavy, reused, "seeded over fewer instances again");
  EXPECT_EQ(solve_response_bound(heavy.eq, heavy.hp(), &reused), fresh_heavy.bound);
  expect_same_seeds(fresh_heavy, reused, "seeded over the same instances");

  // An unbounded result leaves empty seeds, so the next solve runs cold
  // and still finds the divergence, and a bounded one after it is fresh.
  EXPECT_TRUE(is_infinite(solve_response_bound(diverging.eq, diverging.hp(), &reused)));
  expect_same_seeds(solve_fresh(diverging), reused, "unbounded over heavy");
  EXPECT_EQ(reused.busy, 0);
  EXPECT_TRUE(reused.completions.empty());
  EXPECT_TRUE(is_infinite(solve_response_bound(diverging.eq, diverging.hp(), &reused)));
  EXPECT_EQ(solve_response_bound(medium.eq, medium.hp(), &reused), fresh_medium.bound);
  expect_same_seeds(fresh_medium, reused, "cold after unbounded");
}

// solve_response_bound solves C(1) first and, when C(1) + J <= p, takes
// it as the busy period with one instance. Differential check against the
// textbook two-fixpoint order (busy period, instance count, C(1..M)):
// random equations plus the boundaries C(1) + J = p and = p + 1, J >= p,
// blocking, caps that cut C(1), seeds from a dominated equation, and
// the interference set split into two runs at every position. Bound, busy
// period and every completion fixpoint must be equal.
struct RandomEquation {
  ResponseEquation eq;
  std::vector<ReferenceInterferer> hp;
};

RandomEquation random_equation(Rng& rng) {
  RandomEquation r;
  const auto count = rng.uniform_int(0, 5);
  for (std::int64_t k = 0; k < count; ++k) {
    const Duration period = rng.uniform_int(3, 60);
    r.hp.push_back({.period = period,
                    .exec = rng.uniform_int(1, std::max<Duration>(1, period / 3)),
                    .jitter = rng.uniform_int(0, 3) == 0 ? rng.uniform_int(0, period) : 0});
  }
  r.eq.period = rng.uniform_int(4, 80);
  r.eq.exec = rng.uniform_int(1, std::max<Duration>(1, r.eq.period / 2));
  r.eq.jitter = rng.uniform_int(0, 2) == 0 ? rng.uniform_int(0, r.eq.period) : 0;
  r.eq.blocking = rng.uniform_int(0, 2) == 0 ? rng.uniform_int(1, 12) : 0;
  r.eq.cap = 300 * 80;
  return r;
}

/// C(1) alone (it does not depend on the subtask's own period or
/// jitter), or 0 if it diverges.
Time first_completion(const RandomEquation& r) {
  const ReferenceResponse alone = reference_response_bound(
      kTimeInfinity / 4, r.eq.exec, 0, r.eq.blocking, r.eq.cap, r.hp);
  return alone.completions.empty() ? 0 : alone.completions.front();
}

struct Columns {
  std::vector<Duration> periods, execs, jitters;
  explicit Columns(const std::vector<ReferenceInterferer>& hp) {
    for (const ReferenceInterferer& k : hp) {
      periods.push_back(k.period);
      execs.push_back(k.exec);
      jitters.push_back(k.jitter);
    }
  }
  [[nodiscard]] HpView run(std::size_t begin, std::size_t end) const {
    return HpView{.periods = std::span{periods}.subspan(begin, end - begin),
                  .execs = std::span{execs}.subspan(begin, end - begin),
                  .jitters = std::span{jitters}.subspan(begin, end - begin)};
  }
};

void expect_matches_reference(const RandomEquation& r, const FixpointSeeds& seeds,
                              Duration bound, const char* what, int i) {
  const ReferenceResponse want = reference_response_bound(
      r.eq.period, r.eq.exec, r.eq.jitter, r.eq.blocking, r.eq.cap, r.hp);
  ASSERT_EQ(bound, want.bound) << what << ", equation " << i;
  ASSERT_EQ(seeds.busy, want.busy) << what << ", equation " << i;
  ASSERT_EQ(seeds.completions, want.completions) << what << ", equation " << i;
}

TEST(DemandKernel, ResponseBoundMatchesTwoFixpointReference) {
  Rng rng{0x5AFE1u};
  int one_instance = 0;
  int several = 0;
  int unbounded = 0;
  int boundary_equal = 0;
  int boundary_over = 0;
  int seeded_solves = 0;
  for (int i = 0; i < 6000; ++i) {
    RandomEquation r = random_equation(rng);
    const Time c1 = first_completion(r);
    switch (c1 > 0 ? i % 6 : -1) {
      case 0:  // C(1) + J = p: one instance, the shortcut's edge
        r.eq.jitter = rng.uniform_int(0, 5);
        r.eq.period = c1 + r.eq.jitter;
        ++boundary_equal;
        break;
      case 1:  // C(1) + J = p + 1: the busy period is solved
        r.eq.jitter = rng.uniform_int(1, std::max<Time>(1, c1));
        r.eq.period = c1 + r.eq.jitter - 1;
        ++boundary_over;
        break;
      case 2:  // J >= p
        r.eq.jitter = r.eq.period + rng.uniform_int(0, 20);
        break;
      case 3:  // a cap that cuts C(1) or sits right on it
        r.eq.cap = c1 - rng.uniform_int(0, 1);
        break;
      default:
        break;
    }
    const Columns columns{r.hp};
    const std::size_t n = r.hp.size();
    const ReferenceResponse want = reference_response_bound(
        r.eq.period, r.eq.exec, r.eq.jitter, r.eq.blocking, r.eq.cap, r.hp);
    if (is_infinite(want.bound)) {
      ++unbounded;
    } else if (want.completions.size() == 1) {
      ++one_instance;
    } else {
      ++several;
    }

    // Cold, into fresh seeds and into cleared ones another equation left,
    // then seeded by its own fixpoints, with the set split into two runs
    // at every position.
    FixpointSeeds reused;
    (void)solve_response_bound(random_equation(rng).eq, columns.run(0, n), &reused);
    for (std::size_t cut = 0; cut <= n; ++cut) {
      const HpRuns hp{columns.run(0, cut), columns.run(cut, n)};
      FixpointSeeds fresh;
      expect_matches_reference(r, fresh, solve_response_bound(r.eq, hp, &fresh), "cold",
                               i);
      reused.clear();
      expect_matches_reference(r, reused, solve_response_bound(r.eq, hp, &reused),
                               "cold into cleared seeds", i);
      expect_matches_reference(r, reused, solve_response_bound(r.eq, hp, &reused),
                               "seeded by its own fixpoints", i);
    }
    EXPECT_EQ(solve_response_bound(r.eq, columns.run(0, n), nullptr), want.bound);

    // Warm from a dominated equation: smaller execution times and
    // jitters, less blocking, the same cap.
    RandomEquation weaker = r;
    weaker.eq.exec = rng.uniform_int(1, r.eq.exec);
    weaker.eq.jitter = rng.uniform_int(0, r.eq.jitter);
    weaker.eq.blocking = rng.uniform_int(0, r.eq.blocking);
    for (ReferenceInterferer& k : weaker.hp) k.exec = rng.uniform_int(1, k.exec);
    const Columns weaker_columns{weaker.hp};
    FixpointSeeds seeded;
    if (!is_infinite(solve_response_bound(weaker.eq, weaker_columns.run(0, n), &seeded))) {
      ++seeded_solves;
    }
    const HpRuns hp{columns.run(0, n / 2), columns.run(n / 2, n)};
    expect_matches_reference(r, seeded, solve_response_bound(r.eq, hp, &seeded),
                             "seeded", i);
  }
  // Every path was taken, many times.
  EXPECT_GT(one_instance, 500);
  EXPECT_GT(several, 500);
  EXPECT_GT(unbounded, 500);
  EXPECT_GT(boundary_equal, 500);
  EXPECT_GT(boundary_over, 500);
  EXPECT_GT(seeded_solves, 3000);
}

// ceil_div must not compute a + b - 1, which wraps for a numerator near
// the top of the range: the demand of a huge-period task saturates and
// never goes negative.
TEST(DemandKernel, JitteredDemandNearTheTimeLimitDoesNotWrap) {
  constexpr Duration kPeriod = 4'000'000'000'000'000'000;
  constexpr Duration kExec = 1'000'000'000'000'000'000;
  // t + J saturates to kTimeInfinity: ceil(kTimeInfinity / 4e18) = 3.
  EXPECT_EQ(jittered_demand(6'000'000'000'000'000'000, 3'000'000'000'000'000'000,
                            kPeriod, kExec),
            3 * kExec);
  EXPECT_EQ(jittered_demand(kTimeInfinity - 1, 0, kPeriod, kExec), 3 * kExec);
  EXPECT_EQ(ceil_div(kTimeInfinity, 1), kTimeInfinity);
  EXPECT_EQ(ceil_div(kTimeInfinity - 1, kTimeInfinity), 1);
}

}  // namespace
}  // namespace e2e
