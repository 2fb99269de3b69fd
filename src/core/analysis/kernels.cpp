#include "core/analysis/kernels.h"

#include <algorithm>
#include <optional>
#include <vector>

#include "common/hash.h"
#include "common/math.h"
#include "core/analysis/demand.h"
#include "core/analysis/fixpoint.h"

namespace e2e {
namespace {

[[nodiscard]] constexpr std::uint64_t mix(std::uint64_t acc, std::int64_t v) noexcept {
  return hash_combine(acc, static_cast<std::uint64_t>(v));
}

}  // namespace

std::uint64_t response_equation_signature(const ResponseEquation& eq,
                                          const HpView& hp) {
  std::uint64_t h = mix(0, eq.period);
  h = mix(h, eq.exec);
  h = mix(h, eq.jitter);
  h = mix(h, eq.blocking);
  h = mix(h, eq.cap);
  for (std::size_t k = 0; k < hp.size(); ++k) {
    h = mix(h, hp.periods[k]);
    h = mix(h, hp.execs[k]);
    h = mix(h, hp.jitters[k]);
  }
  return h;
}

Duration solve_response_bound(const ResponseEquation& eq, const HpRuns& hp,
                              SubtaskScratch* sc, bool warm) {
  const Duration period = eq.period;
  const Duration exec = eq.exec;
  const Duration jitter = eq.jitter;
  const Duration blocking = eq.blocking;
  const FixpointOptions fp{.cap = eq.cap};

  warm = warm && sc != nullptr && sc->has;
  const auto record_unbounded = [&]() -> Duration {
    if (sc != nullptr) {
      sc->has = true;
      sc->busy = 0;
      sc->bound = kTimeInfinity;
      sc->completions.clear();
    }
    return kTimeInfinity;
  };
  std::vector<Time>* completions = sc != nullptr ? &sc->completions : nullptr;
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
  Time start = exec;
  if (warm && !completions->empty()) start = std::max(start, completions->front());
  const std::optional<Time> first = completion_of(1, start);
  if (!first) return record_unbounded();
  const Duration first_bound = sat_add(*first, jitter);
  if (first_bound <= period && *first < fp.max_iterations) {
    if (sc != nullptr) {
      sc->has = true;
      sc->busy = *first;
      sc->bound = first_bound;
      completions->assign(1, *first);  // keeps the capacity
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
  std::optional<Time> busy;
  if (warm) {
    busy = solve_fixpoint_from(std::max<Time>(sc->busy, 1), busy_eval, fp);
  } else {
    busy = solve_fixpoint(busy_eval, fp);
  }
  if (!busy) return record_unbounded();

  // Step 2: number of instances in the busy period.
  const std::int64_t instances = ceil_div(sat_add(*busy, jitter), period);

  // Steps 3-4: bound each instance's response time, take the max. C(m)
  // grows by at least `exec` per instance, so each fixpoint warm-starts
  // from the previous completion (and, when warm, from the previous
  // run's C(m) -- also <= the new least fixpoint). The fixpoints are
  // written over the scratch's own vector in place: C(m)'s warm seed is
  // read before slot m-1 is overwritten, and the capacity is kept. C(1)
  // is the one solved above.
  Duration worst = 0;
  Time previous_completion = 0;
  for (std::int64_t m = 1; m <= instances; ++m) {
    const auto slot = static_cast<std::size_t>(m - 1);
    std::optional<Time> completion = first;
    if (m > 1) {
      start = std::max(sat_mul(m, exec), sat_add(previous_completion, exec));
      if (warm && slot < completions->size()) {
        start = std::max(start, (*completions)[slot]);
      }
      completion = completion_of(m, start);
      if (!completion) return record_unbounded();
    }
    previous_completion = *completion;
    if (completions != nullptr) {
      if (slot < completions->size()) {
        (*completions)[slot] = *completion;
      } else {
        completions->push_back(*completion);
      }
    }
    worst = std::max(worst, sat_add(*completion, jitter) - (m - 1) * period);
  }
  if (sc != nullptr) {
    sc->has = true;
    sc->busy = *busy;
    sc->bound = worst;
    // Drop what a previous run with more instances left behind.
    completions->resize(static_cast<std::size_t>(instances));
  }
  return worst;
}

Duration solve_ieer_bound(const IeerEquation& eq, const HpView& hp,
                          IeertWarmEntry* warm) {
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
  std::optional<Time> busy;
  if (warm != nullptr && warm->busy > 0) {
    // Kleene monotonicity: this pass's jitters dominate last pass's, so
    // last pass's busy period under-approximates this pass's fixpoint.
    busy = solve_fixpoint_from(warm->busy, busy_eval, fp);
  } else {
    busy = solve_fixpoint(busy_eval, fp);
  }
  if (!busy) return kTimeInfinity;
  if (warm != nullptr) warm->busy = *busy;

  // Step 2: instances of T_{i,j} possibly inside the busy period.
  const std::int64_t instances = ceil_div(sat_add(*busy, own_jitter), period);

  // Steps 3-4. C(m) is monotone in m with C(m+1) >= C(m) + exec, so each
  // fixpoint warm-starts from the previous completion (amortizes the
  // iteration cost over the whole busy period).
  Duration worst = 0;
  Time previous_completion = 0;
  if (warm != nullptr) {
    warm->completions.resize(
        static_cast<std::size_t>(std::max<std::int64_t>(instances, 0)), 0);
  }
  for (std::int64_t m = 1; m <= instances; ++m) {
    Time start = std::max(sat_mul(m, exec), sat_add(previous_completion, exec));
    if (warm != nullptr) {
      // Same monotone argument per instance: C(m) only grows with the
      // jitters, so last pass's completion is a valid warm seed.
      start = std::max(start, warm->completions[static_cast<std::size_t>(m - 1)]);
    }
    const DemandEvaluator completion_eval{
        .hp = hp,
        .constant = sat_add(blocking, sat_mul(m, exec)),
    };
    const std::optional<Time> completion = solve_fixpoint_from(start, completion_eval, fp);
    if (!completion) return kTimeInfinity;
    previous_completion = *completion;
    if (warm != nullptr) {
      warm->completions[static_cast<std::size_t>(m - 1)] = *completion;
    }
    const Duration r = sat_add(*completion, own_accum) - (m - 1) * period;
    worst = std::max(worst, r);
    // The max over m is what gets compared against the cutoff; once any
    // instance exceeds it the result is infinite regardless of the rest.
    if (worst > cutoff) return kTimeInfinity;
  }
  return worst;
}

}  // namespace e2e
