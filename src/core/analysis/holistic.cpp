#include "core/analysis/holistic.h"

namespace e2e {

SaDsResult analyze_holistic_ds(const TaskSystem& system, const SaDsOptions& options) {
  SaDsOptions refined = options;
  refined.refine_jitter_with_best_case = true;
  return analyze_sa_ds(system, refined);
}

}  // namespace e2e
