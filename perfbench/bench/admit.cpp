// Admission workloads: admit-ds-grow and admit-pm-churn.
//
// The measured path is the public request path, one request at a time
// from one client: admission::parse_request on the request line, then
// AdmissionController::submit. A second, untimed pass replays the
// recorded outcomes through a shadow SystemState plus make_engine(policy,
// false), making the same Engine calls the controller made; it rebuilds
// the controller's running result hash from the shadow's bound tables
// (so every 64th request and the end compare bound tables), and at a few
// checkpoints asks a fresh full-recompute engine for the same verdict.
#include <algorithm>
#include <bit>
#include <fstream>
#include <optional>
#include <sstream>

#include "admission/churn.h"
#include "admission/controller.h"
#include "admission/engine.h"
#include "admission/request.h"
#include "admission/state.h"
#include "common/hash.h"
#include "common/rng.h"
#include "core/analysis/interference.h"
#include "core/analysis/sa_ds.h"
#include "workloads.h"

namespace perfbench {
namespace {

using namespace e2e;
using namespace e2e::admission;

struct StreamShape {
  Policy policy = Policy::kPm;
  ChurnShape churn;
  /// Share of standalone admits re-sent right after their first answer.
  double retry_fraction = 0.0;
  /// Full-recompute verdict checkpoints in the verification pass.
  int checkpoints = 0;
  /// Expected replay time of one stream on the reference host; sizes the
  /// number of streams a run of --seconds replays.
  double seconds_per_stream = 1.0;
};

/// The seed of a run's j-th stream.
std::uint64_t stream_seed(std::uint64_t seed, int j) {
  return hash_combine(seed, static_cast<std::uint64_t>(j));
}

constexpr std::size_t kProcessors = 64;

/// admit-ds-grow: SA/DS with low per-subtask utilisation, a ramp past 1k
/// live tasks, then a growing churn (30% removes, 10% queries). The
/// incremental DS engine's interference mirror, IEERT sweeps and remove
/// cones do nearly all the work. admit-pm-churn: SA/PM in long steady
/// state (45% removes, 15% queries), a quarter of admit turns as batches
/// and client retries, so per-request work outside the engine (parse,
/// duplicate check, utilisation precheck, decision cache) shows.
StreamShape shape_of(const std::string& workload, bool small) {
  StreamShape shape;
  shape.churn.processors = kProcessors;
  if (workload == kAdmitDsGrow) {
    shape.policy = Policy::kDs;
    shape.churn.initial_admits = small ? 150 : 1300;
    shape.churn.requests = small ? 400 : 2300;
    shape.churn.remove_fraction = 0.30;
    shape.churn.query_fraction = 0.10;
    shape.churn.min_sub_utilization = 0.001;
    shape.churn.max_sub_utilization = 0.005;
    shape.checkpoints = small ? 2 : 3;
    shape.seconds_per_stream = 3.0;
  } else {
    shape.policy = Policy::kPm;
    shape.churn.initial_admits = small ? 200 : 1500;
    shape.churn.requests = small ? 800 : 20000;
    shape.churn.remove_fraction = 0.45;
    shape.churn.query_fraction = 0.15;
    shape.churn.min_sub_utilization = 0.005;
    shape.churn.max_sub_utilization = 0.03;
    shape.churn.batch_fraction = 0.25;
    shape.churn.max_batch = 4;
    shape.retry_fraction = 0.20;
    shape.checkpoints = small ? 3 : 6;
    shape.seconds_per_stream = 0.8;
  }
  return shape;
}

/// The request grammar's text form of a generated request (src/ has a
/// parser but no serializer).
std::string format_request(const Request& request) {
  std::ostringstream out;
  switch (request.verb) {
    case Verb::kAdmit: {
      const TaskSpec& t = request.task;
      out << "admit name=" << t.name << " period=" << t.period;
      if (t.phase != 0) out << " phase=" << t.phase;
      if (t.deadline != 0) out << " deadline=" << t.deadline;
      if (t.release_jitter != 0) out << " jitter=" << t.release_jitter;
      for (const SubtaskSpec& s : t.subtasks) {
        out << " sub=" << s.processor << ":" << s.execution_time << ":"
            << s.priority_level << (s.preemptible ? "" : ":np");
      }
      break;
    }
    case Verb::kRemove: out << "remove name=" << request.task.name; break;
    case Verb::kQuery: out << "query"; break;
    case Verb::kBatchBegin: out << "batch-begin"; break;
    case Verb::kBatchCommit: out << "batch-commit"; break;
  }
  return out.str();
}

struct Stream {
  std::vector<std::string> lines;
  /// Lines whose re-parse did not reproduce the generated request.
  std::int64_t reparse_mismatches = 0;
};

Stream make_stream(const StreamShape& shape, std::uint64_t seed) {
  Rng master{seed};
  Rng churn_rng = master.fork(0);
  Rng retry_rng = master.fork(1);
  const std::vector<Request> generated = generate_churn(churn_rng, shape.churn);

  std::vector<const Request*> requests;
  requests.reserve(generated.size() * 2);
  bool in_batch = false;
  for (const Request& request : generated) {
    requests.push_back(&request);
    if (request.verb == Verb::kBatchBegin) in_batch = true;
    if (request.verb == Verb::kBatchCommit) in_batch = false;
    if (request.verb == Verb::kAdmit && !in_batch && shape.retry_fraction > 0.0 &&
        retry_rng.next_double() < shape.retry_fraction) {
      requests.push_back(&request);  // the client re-sends after its answer
    }
  }

  Stream stream;
  stream.lines.reserve(requests.size());
  for (const Request* request : requests) {
    std::string line = format_request(*request);
    const std::optional<Request> back = parse_request(line);
    const bool same =
        back.has_value() && back->ok() && back->verb == request->verb &&
        back->task.name == request->task.name &&
        (request->verb != Verb::kAdmit ||
         spec_content_hash(back->task) == spec_content_hash(request->task));
    if (!same) ++stream.reparse_mismatches;
    stream.lines.push_back(std::move(line));
  }
  return stream;
}

ControllerOptions controller_options(const StreamShape& shape, bool full_recompute) {
  ControllerOptions options;
  options.policy = shape.policy;
  options.processors = kProcessors;
  options.full_recompute = full_recompute;
  return options;
}

/// What `e2e admit` counts (service.cpp), so run.py can compare.
struct Counts {
  std::int64_t requests = 0;
  std::int64_t admitted = 0;
  std::int64_t rejected = 0;
  std::int64_t removed = 0;
  std::int64_t errors = 0;

  void add(const Outcome& outcome) {
    ++requests;
    if (outcome.reason == ReasonCode::kParseError ||
        outcome.reason == ReasonCode::kUnknownTask ||
        outcome.reason == ReasonCode::kBatchError) {
      ++errors;
    } else if (outcome.verb == Verb::kAdmit) {
      if (outcome.reason != ReasonCode::kQueued) ++(outcome.accepted ? admitted : rejected);
    } else if (outcome.verb == Verb::kRemove) {
      ++removed;
    } else if (outcome.verb == Verb::kBatchCommit) {
      (outcome.accepted ? admitted : rejected) += static_cast<std::int64_t>(outcome.batch_size);
    }
  }
  friend bool operator==(const Counts&, const Counts&) = default;
};

/// How a request's service time is reported: decided admits (queued
/// batch members are answered by their batch-commit), and each other verb.
enum class Kind : std::uint8_t { kAdmit, kQueued, kRemove, kQuery, kBatchBegin, kBatchCommit };

Kind kind_of(const Outcome& outcome) {
  switch (outcome.verb) {
    case Verb::kAdmit:
      return outcome.reason == ReasonCode::kQueued ? Kind::kQueued : Kind::kAdmit;
    case Verb::kRemove: return Kind::kRemove;
    case Verb::kQuery: return Kind::kQuery;
    case Verb::kBatchBegin: return Kind::kBatchBegin;
    case Verb::kBatchCommit: return Kind::kBatchCommit;
  }
  return Kind::kQuery;
}

/// The entries of `us` whose request is of kind `kind`.
std::vector<double> of_kind(const std::vector<double>& us, const std::vector<Kind>& kinds,
                            Kind kind) {
  std::vector<double> out;
  for (std::size_t i = 0; i < us.size(); ++i) {
    if (kinds[i] == kind) out.push_back(us[i]);
  }
  return out;
}

/// What one closed-loop pass of a stream produced.
struct Replay {
  std::uint64_t result_hash = 0;
  Counts counts;
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_misses = 0;
  double busy_s = 0.0;  ///< sum of per-request service times
  /// Service time and kind of every request, in stream order.
  std::vector<double> request_us;
  std::vector<Kind> kinds;
  std::vector<Outcome> outcomes;  ///< kept only when asked for
  std::vector<Request> requests;  ///< parsed requests, kept with outcomes
};

/// AdmissionController::fold_outcome, restated so the shadow pass can
/// rebuild the controller's result hash from the shadow engine's tables.
std::uint64_t fold_outcome(std::uint64_t hash, const Outcome& o) {
  hash = hash_combine(hash, static_cast<std::uint64_t>(o.verb));
  hash = hash_combine(hash, o.accepted ? 1u : 0u);
  hash = hash_combine(hash, static_cast<std::uint64_t>(o.reason));
  hash = hash_combine(hash, fnv1a64(o.task_name));
  hash = hash_combine(hash, o.slot);
  hash = hash_combine(hash, fnv1a64(o.culprit_task));
  hash = hash_combine(hash, o.culprit_is_candidate ? 1u : 0u);
  hash = hash_combine(hash, static_cast<std::uint64_t>(o.culprit_subtask));
  hash = hash_combine(hash, static_cast<std::uint64_t>(o.culprit_processor));
  hash = hash_combine(hash, static_cast<std::uint64_t>(o.culprit_bound));
  hash = hash_combine(hash, static_cast<std::uint64_t>(o.culprit_eer));
  hash = hash_combine(hash, static_cast<std::uint64_t>(o.culprit_deadline));
  hash = hash_combine(hash, std::bit_cast<std::uint64_t>(o.margin));
  hash = hash_combine(hash, o.live_tasks);
  hash = hash_combine(hash, o.remaining_schedulable ? 1u : 0u);
  return hash;
}

/// Work counts of the shadow pass; all deterministic.
struct ShadowCounts {
  std::int64_t trials = 0;  ///< Engine::admit + admit_batch calls
  std::int64_t accepts = 0;
  std::int64_t bound_rejects = 0;
  std::int64_t util_rejects = 0;
  std::int64_t dup_rejects = 0;
  std::int64_t live_peak = 0;
  double live_mean = 0.0;
};

struct Shadow {
  std::uint64_t result_hash = 0;
  ShadowCounts counts;
  std::int64_t mismatches = 0;  ///< verdicts or tables that disagreed
  std::vector<std::string> problems;
};

/// Live-population rungs at which the traced DS pass snapshots the state
/// and times a cold interference build and SA/DS analysis.
constexpr std::size_t kRungs[] = {250, 500, 1000};

TaskSpec normalized(TaskSpec spec) {
  if (spec.deadline == 0) spec.deadline = spec.period;
  return spec;
}

/// The shadow of one controller: a SystemState plus make_engine(policy,
/// false), fed one recorded (request, outcome) pair at a time, making the
/// Engine calls the controller made for it. It rebuilds the controller's
/// result hash from its own bound tables, asks a fresh full-recompute
/// engine for the verdict at the checkpoint requests, and (with a rung
/// report) times cold analyses of the state at the kRungs populations.
class ShadowEngine {
 public:
  ShadowEngine(const StreamShape& shape, std::vector<std::size_t> checkpoints, Tracer* tracer,
               Report* rung_report)
      : shape_(shape),
        checkpoints_(std::move(checkpoints)),
        tracer_(tracer),
        rung_report_(rung_report),
        state_(kProcessors),
        engine_(make_engine(shape.policy, false)) {}

  void step(std::size_t i, const Request& request, const Outcome& o);
  Shadow finish();

 private:
  void mismatch(std::size_t i, const std::string& what) {
    ++out_.mismatches;
    out_.problems.push_back("request " + std::to_string(i) + ": " + what);
  }
  void snapshot_rung(std::int64_t id);

  const StreamShape& shape_;
  std::vector<std::size_t> checkpoints_;
  Tracer* tracer_;
  Report* rung_report_;
  SystemState state_;
  std::unique_ptr<Engine> engine_;
  std::vector<TaskSpec> pending_;
  std::uint64_t hash_ = 0;
  double live_sum_ = 0.0;
  std::size_t steps_ = 0;
  std::size_t next_rung_ = 0;
  Shadow out_;
};

void ShadowEngine::step(std::size_t i, const Request& request, const Outcome& o) {
  const auto id = static_cast<std::int64_t>(i);
  const bool checkpoint = std::binary_search(checkpoints_.begin(), checkpoints_.end(), i);
  std::unique_ptr<Engine> full;
  std::optional<TrialVerdict> full_verdict;

  switch (o.verb) {
    case Verb::kAdmit: {
      if (o.reason == ReasonCode::kQueued) {
        pending_.push_back(normalized(request.task));
        break;
      }
      if (o.reason == ReasonCode::kUtilization) ++out_.counts.util_rejects;
      if (o.reason == ReasonCode::kDuplicateName) ++out_.counts.dup_rejects;
      if (o.from_cache ||
          (o.reason != ReasonCode::kNone && o.reason != ReasonCode::kBoundFailure)) {
        break;
      }
      const TaskSpec spec = normalized(request.task);
      if (checkpoint) {
        full = make_engine(shape_.policy, true);
        full_verdict = full->admit(state_, state_.next_slot(), spec);
      }
      ++out_.counts.trials;
      TrialVerdict verdict;
      {
        Scope span{tracer_, "admission.engine_admit", id};
        verdict = engine_->admit(state_, state_.next_slot(), spec);
      }
      if (verdict.schedulable != o.accepted) mismatch(i, "shadow admit verdict");
      if (verdict.schedulable) {
        Scope span{tracer_, "admission.state_commit", id};
        (void)state_.commit_admit(spec);
        ++out_.counts.accepts;
      } else {
        ++out_.counts.bound_rejects;
      }
      break;
    }
    case Verb::kBatchCommit: {
      if (o.reason == ReasonCode::kBatchError) break;
      std::vector<TaskSpec> batch = std::move(pending_);
      pending_.clear();
      if (batch.empty()) break;
      if (checkpoint) {
        full = make_engine(shape_.policy, true);
        full_verdict = full->admit_batch(state_, state_.next_slot(), batch);
      }
      ++out_.counts.trials;
      TrialVerdict verdict;
      {
        Scope span{tracer_, "admission.engine_admit_batch", id};
        verdict = engine_->admit_batch(state_, state_.next_slot(), batch);
      }
      if (verdict.schedulable != o.accepted) mismatch(i, "shadow batch verdict");
      if (verdict.schedulable) {
        Scope span{tracer_, "admission.state_commit", id};
        for (const TaskSpec& spec : batch) (void)state_.commit_admit(spec);
        out_.counts.accepts += static_cast<std::int64_t>(batch.size());
      } else {
        out_.counts.bound_rejects += static_cast<std::int64_t>(batch.size());
      }
      break;
    }
    case Verb::kRemove: {
      if (!o.accepted) break;
      const std::optional<std::uint32_t> slot = state_.slot_of(request.task.name);
      if (!slot.has_value()) {
        mismatch(i, "removed task not live in the shadow state");
        break;
      }
      if (checkpoint) {
        full = make_engine(shape_.policy, true);
        full_verdict = full->remove(state_, *slot);
      }
      TrialVerdict verdict;
      {
        Scope span{tracer_, "admission.engine_remove", id};
        verdict = engine_->remove(state_, *slot);
      }
      if (verdict.schedulable != o.remaining_schedulable) mismatch(i, "shadow remove verdict");
      Scope span{tracer_, "admission.state_commit", id};
      state_.commit_remove(*slot);
      break;
    }
    case Verb::kQuery: {
      double margin = 0.0;
      {
        Scope span{tracer_, "admission.engine_margin", id};
        margin = engine_->margin();
      }
      if (margin != o.margin) mismatch(i, "shadow margin");
      break;
    }
    case Verb::kBatchBegin:
      pending_.clear();
      break;
  }

  if (full_verdict.has_value()) {
    const bool expected = o.verb == Verb::kRemove ? o.remaining_schedulable : o.accepted;
    if (full_verdict->schedulable != expected) {
      mismatch(i, "full-recompute verdict");
    } else if (!full_verdict->schedulable && o.verb != Verb::kRemove &&
               (full_verdict->failure->eer != o.culprit_eer ||
                full_verdict->failure->deadline != o.culprit_deadline)) {
      mismatch(i, "full-recompute rejection detail");
    }
    // Accepted trials and removals leave the full engine holding the
    // post-request tables, which the shadow now holds too.
    if (full_verdict->schedulable || o.verb == Verb::kRemove) {
      if (full->fold_bounds(0) != engine_->fold_bounds(0)) {
        mismatch(i, "full-recompute bound tables");
      }
    }
  }

  hash_ = fold_outcome(hash_, o);
  if (++steps_ % 64 == 0) hash_ = engine_->fold_bounds(hash_);
  const auto live = static_cast<std::int64_t>(state_.task_count());
  out_.counts.live_peak = std::max(out_.counts.live_peak, live);
  live_sum_ += static_cast<double>(live);

  if (rung_report_ != nullptr && next_rung_ < std::size(kRungs) &&
      state_.task_count() >= kRungs[next_rung_]) {
    snapshot_rung(id);
  }
}

void ShadowEngine::snapshot_rung(std::int64_t id) {
  const std::string n = std::to_string(kRungs[next_rung_]);
  const SystemState::Built built = state_.build_with(nullptr, 0, std::nullopt);
  const Clock::time_point t0 = Clock::now();
  std::optional<InterferenceMap> map;
  {
    Scope span{tracer_, "analysis.interference_build", id};
    map.emplace(built.system);
  }
  const Clock::time_point t1 = Clock::now();
  SaDsResult result;
  {
    Scope span{tracer_, "analysis.sa_ds_cold", id};
    result = analyze_sa_ds(built.system, *map);
  }
  const Clock::time_point t2 = Clock::now();
  rung_report_->metrics["analysis.interference_build_ms.n" + n] = us_between(t0, t1) / 1e3;
  rung_report_->metrics["analysis.sa_ds_cold_ms.n" + n] = us_between(t1, t2) / 1e3;
  rung_report_->metrics["analysis.ieert_passes.n" + n] = result.passes;
  ++next_rung_;
}

Shadow ShadowEngine::finish() {
  out_.result_hash = engine_->fold_bounds(hash_);
  out_.counts.live_mean = steps_ == 0 ? 0.0 : live_sum_ / static_cast<double>(steps_);
  if (rung_report_ != nullptr && next_rung_ < std::size(kRungs)) {
    rung_report_->fail(1, "population never reached " + std::to_string(kRungs[next_rung_]) +
                              " live tasks");
  }
  return std::move(out_);
}

/// Checkpoints: `count` requests evenly spaced over those that reached
/// the engine.
std::vector<std::size_t> checkpoints_of(const std::vector<Outcome>& outcomes, int count) {
  std::vector<std::size_t> engine_requests;
  for (std::size_t i = 0; i < outcomes.size(); ++i) {
    const Outcome& o = outcomes[i];
    const bool trial = o.verb == Verb::kAdmit && !o.from_cache &&
                       (o.reason == ReasonCode::kNone || o.reason == ReasonCode::kBoundFailure);
    const bool batch = o.verb == Verb::kBatchCommit && o.batch_size > 0;
    const bool remove = o.verb == Verb::kRemove && o.accepted;
    if (trial || batch || remove) engine_requests.push_back(i);
  }
  std::vector<std::size_t> checkpoints;
  for (int k = 1; k <= count && !engine_requests.empty(); ++k) {
    checkpoints.push_back(engine_requests[engine_requests.size() * static_cast<std::size_t>(k) /
                                          static_cast<std::size_t>(count + 1)]);
  }
  return checkpoints;
}

void write_lines(const std::string& path, const std::vector<std::string>& lines) {
  std::ofstream out{path};
  for (const std::string& line : lines) out << line << '\n';
}

const char* policy_tag(const StreamShape& shape) {
  return shape.policy == Policy::kDs ? "ds" : "pm";
}

/// One closed-loop pass of the stream through `controller`. `lockstep`,
/// when set, receives each (request, outcome) right after the request's
/// time is taken.
Replay replay(const Stream& stream, AdmissionController& controller, bool keep,
              Tracer* tracer, ShadowEngine* lockstep = nullptr) {
  Replay out;
  out.request_us.reserve(stream.lines.size());
  out.kinds.reserve(stream.lines.size());
  if (keep) {
    out.outcomes.reserve(stream.lines.size());
    out.requests.reserve(stream.lines.size());
  }
  std::int64_t id = 0;
  for (const std::string& line : stream.lines) {
    const Clock::time_point start = Clock::now();
    std::optional<Request> request;
    Outcome outcome;
    {
      Scope request_span{tracer, "bench.request", id};
      {
        Scope span{tracer, "admission.parse_request", id};
        request = parse_request(line);
      }
      Scope span{tracer, "admission.submit", id};
      outcome = controller.submit(*request);
    }
    const double us = us_between(start, Clock::now());
    out.busy_s += us / 1e6;
    out.request_us.push_back(us);
    out.kinds.push_back(kind_of(outcome));
    out.counts.add(outcome);
    if (lockstep != nullptr) lockstep->step(static_cast<std::size_t>(id), *request, outcome);
    if (keep) {
      out.outcomes.push_back(std::move(outcome));
      out.requests.push_back(std::move(*request));
    }
    ++id;
  }
  out.result_hash = controller.result_hash();
  out.cache_hits = controller.cache_hits();
  out.cache_misses = controller.cache_misses();
  return out;
}

/// Reports a finished shadow against the controller it shadowed; a hash
/// mismatch counts every request of the stream.
void check_shadow(const Shadow& shadow, std::uint64_t result_hash, std::int64_t requests,
                  Report& report, const std::string& label) {
  for (const std::string& problem : shadow.problems) report.problems.push_back(label + problem);
  report.failed += shadow.mismatches;
  if (shadow.result_hash != result_hash) {
    report.fail(requests, label + "shadow result hash " + hex64(shadow.result_hash) +
                              " != controller " + hex64(result_hash));
  }
}

/// Checks a recorded replay through a shadow pass with full-recompute
/// checkpoints.
Shadow verify(const Replay& recorded, const StreamShape& shape, Report& report,
              const std::string& label) {
  ShadowEngine shadow{shape, checkpoints_of(recorded.outcomes, shape.checkpoints), nullptr,
                      nullptr};
  for (std::size_t i = 0; i < recorded.outcomes.size(); ++i) {
    shadow.step(i, recorded.requests[i], recorded.outcomes[i]);
  }
  Shadow out = shadow.finish();
  check_shadow(out, recorded.result_hash, recorded.counts.requests, report, label);
  return out;
}

}  // namespace

void run_admission(const Options& options, Report& report) {
  const StreamShape shape = shape_of(options.workload, false);
  // Closed loop, one client. Each stream (its own seed, drawn from the
  // run's seed) is replayed twice, half a run apart, through a fresh
  // controller, and every request keeps the faster of its two service
  // times: the host's speed moves by tens of percent within seconds under
  // other tenants, and a slow phase rarely covers both replays (min of 2,
  // as for set-up, which is generating and serializing the stream and
  // constructing the controller). The number of streams follows from
  // --seconds alone, so every run of a seed does the same work on any host.
  const int streams = units_for(options.seconds, 2 * shape.seconds_per_stream);
  std::vector<Replay> first;
  std::vector<double> first_setup_s;
  std::vector<double> setup_s;
  std::vector<double> p50;
  std::vector<double> p99;
  std::vector<double> throughput;
  std::vector<double> remove_p99;
  for (int pass = 0; pass < 2; ++pass) {
    for (int j = 0; j < streams; ++j) {
      const Clock::time_point t0 = Clock::now();
      const Stream stream = make_stream(shape, stream_seed(options.seed, j));
      AdmissionController controller{controller_options(shape, false)};
      const double setup = seconds_between(t0, Clock::now());
      Replay r = replay(stream, controller, pass == 0 && j == 0, nullptr);
      report.attempted += r.counts.requests;
      if (pass == 0) {
        if (stream.reparse_mismatches > 0) {
          report.fail(stream.reparse_mismatches, "request lines that do not re-parse identically");
        }
        // For run.py's cross-check through the shipped `e2e admit`.
        const std::string path = options.out_dir + "/stream" + std::to_string(j) + ".txt";
        write_lines(path, stream.lines);
        report.lists["stream_paths"].push_back(path);
        report.lists["stream_hashes"].push_back(hex64(r.result_hash));
        const Counts& c = r.counts;
        report.lists["stream_counts"].push_back(
            std::to_string(c.requests) + " " + std::to_string(c.admitted) + " " +
            std::to_string(c.rejected) + " " + std::to_string(c.removed) + " " +
            std::to_string(c.errors));
        first.push_back(std::move(r));
        first_setup_s.push_back(setup);
        continue;
      }
      const Replay& a = first[static_cast<std::size_t>(j)];
      if (r.result_hash != a.result_hash || !(r.counts == a.counts)) {
        report.fail(r.counts.requests, "stream " + std::to_string(j) + " diverged on replay");
        continue;
      }
      std::vector<double> best(r.request_us.size());
      for (std::size_t i = 0; i < best.size(); ++i) {
        best[i] = std::min(a.request_us[i], r.request_us[i]);
      }
      const std::vector<double> admits = of_kind(best, r.kinds, Kind::kAdmit);
      p50.push_back(percentile(admits, 50));
      p99.push_back(percentile(admits, 99));
      throughput.push_back(1e6 / mean(best));
      remove_p99.push_back(percentile(of_kind(best, r.kinds, Kind::kRemove), 99));
      setup_s.push_back(std::min(first_setup_s[static_cast<std::size_t>(j)], setup));
    }
  }
  report.metrics["peak_rss_mb"] = peak_rss_mb();
  report.metrics["setup_s"] = median(setup_s);
  report.metrics["latency_p50_us"] = median(p50);
  report.metrics["latency_p99_us"] = median(p99);
  report.metrics["throughput_per_s"] = median(throughput);
  report.metrics["remove_p99_us"] = median(remove_p99);
  report.metrics["streams"] = streams;
  report.strings["policy"] = policy_tag(shape);
  report.strings["processors"] = std::to_string(kProcessors);

  // The first stream also goes through the shadow engine and the
  // full-recompute checkpoints.
  (void)verify(first.front(), shape, report, "");
}

namespace {

/// Open-loop ladder on admit-pm-churn: after the ramp, consecutive
/// windows of the steady-state stream are offered at fixed rates from one
/// thread; each request is timed from when it was due.
constexpr double kLadderRates[] = {1000, 2000, 4000, 8000, 16000, 32000};
constexpr std::size_t kLadderWindow = 1500;
constexpr double kLatencyLimitUs = 5000.0;  ///< p99 limit of admit-pm-churn

void open_loop_ladder(const Stream& stream, const StreamShape& shape, Report& report) {
  AdmissionController controller{controller_options(shape, false)};
  std::size_t next = 0;
  for (; next < shape.churn.initial_admits + 2000 && next < stream.lines.size(); ++next) {
    (void)controller.submit(*parse_request(stream.lines[next]));
  }
  double best_rate = 0.0;
  double best_wait_p99 = 0.0;
  for (const double rate : kLadderRates) {
    if (next + kLadderWindow > stream.lines.size()) break;
    std::vector<double> latency_us;
    std::vector<double> wait_us;
    const Clock::time_point t0 = Clock::now();
    for (std::size_t k = 0; k < kLadderWindow; ++k, ++next) {
      const Clock::time_point due =
          t0 + std::chrono::duration_cast<Clock::duration>(
                   std::chrono::duration<double>(static_cast<double>(k) / rate));
      Clock::time_point start = Clock::now();
      while (start < due) start = Clock::now();
      (void)controller.submit(*parse_request(stream.lines[next]));
      const Clock::time_point end = Clock::now();
      latency_us.push_back(us_between(due, end));
      wait_us.push_back(us_between(due, start));
    }
    // A growing backlog shows as waits that keep rising through the
    // window: compare its last quarter with the limit.
    const std::vector<double> tail(wait_us.end() - static_cast<std::ptrdiff_t>(kLadderWindow / 4),
                                   wait_us.end());
    const std::string tag = std::to_string(static_cast<int>(rate));
    report.metrics["admission.pm.open_loop_p99_us.r" + tag] = percentile(latency_us, 99);
    const bool ok = percentile(latency_us, 99) <= kLatencyLimitUs && mean(tail) <= kLatencyLimitUs;
    if (!ok) break;
    best_rate = rate;
    best_wait_p99 = percentile(wait_us, 99);
  }
  report.metrics["admission.pm.max_rate_rps"] = best_rate;
  report.metrics["admission.pm.queue_wait_us.p99"] = best_wait_p99;
}

void trace_one(const std::string& workload, const Options& options, Tracer& tracer,
               Report& report) {
  const StreamShape shape = shape_of(workload, false);
  const ControllerOptions controller = controller_options(shape, false);
  const std::string p = std::string{"admission."} + policy_tag(shape) + ".";
  Stream stream;
  {
    Scope span{&tracer, "bench.generate_stream"};
    stream = make_stream(shape, stream_seed(options.seed, 0));
  }

  // An untraced replay after a warm-up one is the base of the tracing
  // overhead, measured on a traced replay. A second traced replay runs
  // the shadow engine in lockstep, so its engine and submit times come
  // from the same stretch of time.
  AdmissionController warm{controller};
  (void)replay(stream, warm, false, nullptr);
  AdmissionController plain_controller{controller};
  const Replay plain = replay(stream, plain_controller, false, nullptr);
  const std::size_t traced_first = tracer.spans().size();
  Replay traced;
  {
    Scope span{&tracer, "bench.replay"};
    AdmissionController traced_controller{controller};
    traced = replay(stream, traced_controller, false, &tracer);
  }
  const std::size_t lockstep_first = tracer.spans().size();
  ShadowEngine lockstep{shape, {}, &tracer, shape.policy == Policy::kDs ? &report : nullptr};
  Replay paired;
  {
    Scope span{&tracer, "bench.lockstep"};
    AdmissionController paired_controller{controller};
    paired = replay(stream, paired_controller, false, &tracer, &lockstep);
  }
  const Shadow shadow = lockstep.finish();
  check_shadow(shadow, paired.result_hash, paired.counts.requests, report, workload + ": ");
  for (const Replay* r : {&traced, &paired}) {
    if (r->result_hash != plain.result_hash) {
      report.fail(plain.counts.requests, workload + ": traced replay diverged");
    }
  }
  report.attempted += 3 * plain.counts.requests;

  const auto spans_between = [&](std::size_t first, std::size_t last, std::string_view name) {
    std::vector<double> out;
    for (std::size_t i = first; i < last; ++i) {
      const Span& span = tracer.spans()[i];
      if (std::string_view{span.name} == name) {
        out.push_back(static_cast<double>(span.end_ns - span.start_ns) / 1000.0);
      }
    }
    return out;
  };
  const auto sum = [](const std::vector<double>& values) {
    return mean(values) * static_cast<double>(values.size());
  };
  const std::size_t end = tracer.spans().size();
  const std::vector<double> parse_us =
      spans_between(traced_first, lockstep_first, "admission.parse_request");
  const double submit_us = sum(spans_between(traced_first, lockstep_first, "admission.submit"));
  report.metrics["trace.overhead_share." + std::string{policy_tag(shape)}] =
      sum(spans_between(traced_first, lockstep_first, "bench.request")) / 1e6 / plain.busy_s -
      1.0;
  const std::vector<double> admit_us =
      spans_between(lockstep_first, end, "admission.engine_admit");
  const std::vector<double> remove_us =
      spans_between(lockstep_first, end, "admission.engine_remove");
  const std::vector<double> batch_us =
      spans_between(lockstep_first, end, "admission.engine_admit_batch");
  const double engine_us = sum(admit_us) + sum(remove_us) + sum(batch_us) +
                           sum(spans_between(lockstep_first, end, "admission.engine_margin"));
  const double paired_submit_us =
      sum(spans_between(lockstep_first, end, "admission.submit"));
  const double parse_us_total = sum(parse_us);

  report.metrics[p + "engine_admit_us.p50"] = percentile(admit_us, 50);
  report.metrics[p + "engine_admit_us.p99"] = percentile(admit_us, 99);
  report.metrics[p + "engine_remove_us.p99"] = percentile(remove_us, 99);
  if (shape.policy == Policy::kPm) {
    report.metrics[p + "engine_batch_us.p99"] = percentile(batch_us, 99);
    report.metrics[p + "commit_p99_us"] =
        percentile(of_kind(plain.request_us, plain.kinds, Kind::kBatchCommit), 99);
  }
  report.metrics[p + "overhead_share"] = 1.0 - engine_us / paired_submit_us;
  report.metrics[p + "parse_us.p50"] = percentile(parse_us, 50);
  report.metrics[p + "parse_share"] = parse_us_total / (parse_us_total + submit_us);
  const auto lookups = static_cast<double>(plain.cache_hits + plain.cache_misses);
  report.metrics[p + "cache_hit_ratio"] =
      lookups > 0 ? static_cast<double>(plain.cache_hits) / lookups : 0.0;
  report.metrics[p + "cache_hits"] = static_cast<double>(plain.cache_hits);
  report.metrics[p + "remove_p99_us"] =
      percentile(of_kind(plain.request_us, plain.kinds, Kind::kRemove), 99);
  report.metrics[p + "query_p99_us"] =
      percentile(of_kind(plain.request_us, plain.kinds, Kind::kQuery), 99);
  report.metrics[p + "trials"] = static_cast<double>(shadow.counts.trials);
  report.metrics[p + "accepts"] = static_cast<double>(shadow.counts.accepts);
  report.metrics[p + "bound_rejects"] = static_cast<double>(shadow.counts.bound_rejects);
  report.metrics[p + "util_rejects"] = static_cast<double>(shadow.counts.util_rejects);
  report.metrics[p + "dup_rejects"] = static_cast<double>(shadow.counts.dup_rejects);
  report.metrics[p + "live_peak"] = static_cast<double>(shadow.counts.live_peak);
  report.metrics[p + "live_mean"] = shadow.counts.live_mean;

  if (shape.policy == Policy::kPm) open_loop_ladder(stream, shape, report);
}

}  // namespace

void trace_admission(const Options& options, Tracer& tracer, Report& report) {
  trace_one(kAdmitDsGrow, options, tracer, report);
  trace_one(kAdmitPmChurn, options, tracer, report);
}

void selfcheck_admission(const std::string& workload, bool full_recompute, Report& report) {
  // A fixed seed, so the answers can be pinned in expected.json.
  const StreamShape shape = shape_of(workload, true);
  const Stream stream = make_stream(shape, 1);
  const std::string label = "selfcheck " + workload + ": ";
  Replay runs[2];
  Shadow shadows[2];
  for (int k = 0; k < 2; ++k) {
    AdmissionController controller{controller_options(shape, full_recompute)};
    runs[k] = replay(stream, controller, true, nullptr);
    shadows[k] = verify(runs[k], shape, report, label);
    report.attempted += runs[k].counts.requests;
  }
  const ShadowCounts& a = shadows[0].counts;
  const ShadowCounts& b = shadows[1].counts;
  const bool repeat = runs[0].result_hash == runs[1].result_hash &&
                      runs[0].counts == runs[1].counts &&
                      runs[0].cache_hits == runs[1].cache_hits && a.trials == b.trials &&
                      a.accepts == b.accepts && a.bound_rejects == b.bound_rejects &&
                      a.live_peak == b.live_peak;
  if (!repeat) report.fail(runs[1].counts.requests, label + "work counts did not repeat");

  const Replay& r = runs[0];
  const std::string pin = "pin." + workload + ".";
  report.strings[pin + "result_hash"] = hex64(r.result_hash);
  report.strings[pin + "requests"] = std::to_string(r.counts.requests);
  report.strings[pin + "admitted"] = std::to_string(r.counts.admitted);
  report.strings[pin + "rejected"] = std::to_string(r.counts.rejected);
  report.strings[pin + "removed"] = std::to_string(r.counts.removed);
  report.strings[pin + "errors"] = std::to_string(r.counts.errors);
  report.strings[pin + "cache_hits"] = std::to_string(r.cache_hits);
  report.strings[pin + "trials"] = std::to_string(a.trials);
  report.strings[pin + "live_peak"] = std::to_string(a.live_peak);
}

}  // namespace perfbench
