#include "core/analysis/kernels.h"

#include <algorithm>
#include <optional>
#include <vector>

#include "common/math.h"
#include "core/analysis/demand.h"
#include "core/analysis/fixpoint.h"

namespace e2e {
namespace {

/// Step 1's busy-period fixpoint, iterated from the seed when there is one.
std::optional<Time> solve_busy_period(const DemandEvaluator& busy_eval,
                                      const FixpointOptions& fp,
                                      const FixpointSeeds* seeds) {
  if (seeds != nullptr && seeds->busy > 0) {
    return solve_fixpoint_from(seeds->busy, busy_eval, fp);
  }
  return solve_fixpoint(busy_eval, fp);
}

/// The seed of C(slot + 1), or 0 when there is none.
Time completion_seed(const FixpointSeeds* seeds, std::size_t slot) {
  return seeds != nullptr && slot < seeds->completions.size() ? seeds->completions[slot]
                                                              : 0;
}

/// Writes C(slot + 1)'s fixpoint over its seed. Slots are written in
/// order, and C(m)'s seed is read before slot m-1 is overwritten.
void record_completion(FixpointSeeds* seeds, std::size_t slot, Time completion) {
  if (seeds == nullptr) return;
  if (slot < seeds->completions.size()) {
    seeds->completions[slot] = completion;
  } else {
    seeds->completions.push_back(completion);
  }
}

}  // namespace

Duration solve_response_bound(const ResponseEquation& eq, const HpRuns& hp,
                              FixpointSeeds* seeds) {
  const Duration period = eq.period;
  const Duration exec = eq.exec;
  const Duration jitter = eq.jitter;
  const Duration blocking = eq.blocking;
  const FixpointOptions fp{.cap = eq.cap};

  const auto unbounded = [&]() -> Duration {
    if (seeds != nullptr) seeds->clear();
    return kTimeInfinity;
  };
  const auto completion_of = [&](std::int64_t m, Time start) {
    const DemandEvaluator completion_eval{
        .hp = hp.head,
        .hp_tail = hp.tail,
        .constant = sat_add(blocking, sat_mul(m, exec)),
    };
    return solve_fixpoint_from(start, completion_eval, fp);
  };

  // Step 3 for m = 1, ahead of steps 1-2. On (0, p - J] the busy-period
  // demand (self term ceil((t + J)/p) * e = e) and C(1)'s demand are the
  // same function, and the busy demand dominates it everywhere else, so
  // when C(1) + J <= p, C(1) is the busy period's least fixpoint and the
  // busy period holds exactly one instance. Its iteration would stay at
  // or below C(1) <= cap, one tick or more per step, so it could neither
  // diverge nor run out of iterations while C(1) < max_iterations.
  const std::optional<Time> first =
      completion_of(1, std::max(exec, completion_seed(seeds, 0)));
  if (!first) return unbounded();
  const Duration first_bound = sat_add(*first, jitter);
  if (first_bound <= period && *first < fp.max_iterations) {
    if (seeds != nullptr) {
      seeds->busy = *first;
      seeds->completions.assign(1, *first);  // keeps the capacity
    }
    return first_bound;
  }

  // Step 1: busy-period duration D_{i,j} (interference set plus self).
  const DemandEvaluator busy_eval{
      .hp = hp.head,
      .hp_tail = hp.tail,
      .constant = blocking,
      .self_period = period,
      .self_exec = exec,
      .self_jitter = jitter,
  };
  const std::optional<Time> busy = solve_busy_period(busy_eval, fp, seeds);
  if (!busy) return unbounded();

  // Step 2: number of instances in the busy period.
  const std::int64_t instances = ceil_div(sat_add(*busy, jitter), period);

  // Steps 3-4: bound each instance's response time, take the max. C(m)
  // grows by at least `exec` per instance, so each fixpoint starts from
  // the previous completion (or from its seed, if larger). C(1) is the
  // one solved above.
  Duration worst = 0;
  Time previous_completion = 0;
  for (std::int64_t m = 1; m <= instances; ++m) {
    const auto slot = static_cast<std::size_t>(m - 1);
    std::optional<Time> completion = first;
    if (m > 1) {
      completion = completion_of(
          m, std::max({sat_mul(m, exec), sat_add(previous_completion, exec),
                       completion_seed(seeds, slot)}));
      if (!completion) return unbounded();
    }
    previous_completion = *completion;
    record_completion(seeds, slot, *completion);
    worst = std::max(worst, sat_add(*completion, jitter) - (m - 1) * period);
  }
  if (seeds != nullptr) {
    seeds->busy = *busy;
    // Drop what a previous solve with more instances left behind.
    seeds->completions.resize(static_cast<std::size_t>(instances));
  }
  return worst;
}

Duration solve_ieer_bound(const IeerEquation& eq, const HpView& hp,
                          FixpointSeeds* seeds) {
  const Duration period = eq.period;
  const Duration exec = eq.exec;
  const Duration own_jitter = eq.own_jitter;
  const Duration own_accum = eq.own_accum;
  const Duration blocking = eq.blocking;
  const Duration cutoff = eq.cutoff;
  if (is_infinite(own_accum)) return kTimeInfinity;
  // IEER >= predecessor IEER + own execution: already beyond salvation.
  if (own_accum > cutoff) return kTimeInfinity;
  const FixpointOptions fp{.cap = eq.cap};

  // Step 1: busy-period duration with jittered ceilings (self included).
  const DemandEvaluator busy_eval{
      .hp = hp,
      .constant = blocking,
      .self_period = period,
      .self_exec = exec,
      .self_jitter = own_jitter,
  };
  const std::optional<Time> busy = solve_busy_period(busy_eval, fp, seeds);
  if (!busy) return kTimeInfinity;
  if (seeds != nullptr) seeds->busy = *busy;

  // Step 2: instances of T_{i,j} possibly inside the busy period.
  const std::int64_t instances = ceil_div(sat_add(*busy, own_jitter), period);

  // Steps 3-4. C(m) is monotone in m with C(m+1) >= C(m) + exec, so each
  // fixpoint starts from the previous completion (amortizes the
  // iteration cost over the whole busy period), or from its seed.
  Duration worst = 0;
  Time previous_completion = 0;
  for (std::int64_t m = 1; m <= instances; ++m) {
    const auto slot = static_cast<std::size_t>(m - 1);
    const Time start = std::max({sat_mul(m, exec), sat_add(previous_completion, exec),
                                 completion_seed(seeds, slot)});
    const DemandEvaluator completion_eval{
        .hp = hp,
        .constant = sat_add(blocking, sat_mul(m, exec)),
    };
    const std::optional<Time> completion = solve_fixpoint_from(start, completion_eval, fp);
    if (!completion) return kTimeInfinity;
    previous_completion = *completion;
    record_completion(seeds, slot, *completion);
    const Duration r = sat_add(*completion, own_accum) - (m - 1) * period;
    worst = std::max(worst, r);
    // The max over m is what gets compared against the cutoff; once any
    // instance exceeds it the result is infinite regardless of the rest.
    if (worst > cutoff) return kTimeInfinity;
  }
  if (seeds != nullptr) seeds->completions.resize(static_cast<std::size_t>(instances));
  return worst;
}

}  // namespace e2e
