#include "sched/scheduler.hpp"

#include <algorithm>
#include <cstdio>
#include <limits>
#include <stdexcept>

#include "util/check.hpp"

namespace pregel::sched {

namespace {

/// Fixed-format modeled seconds for the event log: the log is asserted
/// verbatim by the determinism tests, so formatting must not depend on
/// locale or stream state.
std::string fmt_s(Seconds t) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.3f", t);
  return buf;
}

}  // namespace

// ---------------------------------------------------------------------------
// Queue policies.

std::size_t FairSharePolicy::pick(std::span<const QueuedJobView> queued) const {
  std::size_t best = npos;
  for (std::size_t i = 0; i < queued.size(); ++i) {
    if (best == npos) {
      best = i;
      continue;
    }
    const QueuedJobView& a = queued[i];
    const QueuedJobView& b = queued[best];
    if (a.user_service != b.user_service) {
      if (a.user_service < b.user_service) best = i;
    } else if (a.spec->arrival != b.spec->arrival) {
      if (a.spec->arrival < b.spec->arrival) best = i;
    } else if (a.id < b.id) {
      best = i;
    }
  }
  return best;
}

std::size_t PriorityPolicy::pick(std::span<const QueuedJobView> queued) const {
  std::size_t best = npos;
  for (std::size_t i = 0; i < queued.size(); ++i) {
    if (best == npos) {
      best = i;
      continue;
    }
    const QueuedJobView& a = queued[i];
    const QueuedJobView& b = queued[best];
    if (a.spec->priority != b.spec->priority) {
      if (a.spec->priority > b.spec->priority) best = i;
    } else if (a.spec->arrival != b.spec->arrival) {
      if (a.spec->arrival < b.spec->arrival) best = i;
    } else if (a.id < b.id) {
      best = i;
    }
  }
  return best;
}

std::size_t PriorityPolicy::victim(const QueuedJobView& incoming,
                                   std::span<const RunningJobView> running) const {
  std::size_t best = npos;
  for (std::size_t i = 0; i < running.size(); ++i) {
    if (running[i].spec->priority >= incoming.spec->priority) continue;
    if (best == npos) {
      best = i;
      continue;
    }
    const RunningJobView& a = running[i];
    const RunningJobView& b = running[best];
    if (a.spec->priority != b.spec->priority) {
      if (a.spec->priority < b.spec->priority) best = i;
    } else if (a.admitted_at != b.admitted_at) {
      if (a.admitted_at > b.admitted_at) best = i;  // evict the youngest
    } else if (a.id > b.id) {
      best = i;
    }
  }
  return best;
}

// ---------------------------------------------------------------------------
// JobScheduler.

JobScheduler::JobScheduler(SchedulerOptions opts)
    : opts_(std::move(opts)),
      cost_(opts_.cost),
      policy_(opts_.policy ? opts_.policy : std::make_shared<FairSharePolicy>()),
      free_vms_(static_cast<std::int64_t>(opts_.pool_vms)) {
  PREGEL_CHECK_MSG(opts_.pool_vms >= 1, "JobScheduler: need >= 1 pool VM");
  pool_.policy = policy_->name();
  pool_.pool_vms = opts_.pool_vms;
}

JobScheduler::~JobScheduler() = default;

std::uint64_t JobScheduler::submit(JobSpec spec, std::unique_ptr<ScheduledJob> job) {
  PREGEL_CHECK_MSG(!ran_, "JobScheduler: submit after run_all");
  PREGEL_CHECK_MSG(job != nullptr, "JobScheduler: null job");
  Rec rec;
  rec.id = recs_.size();
  rec.spec = std::move(spec);
  rec.job = std::move(job);
  recs_.push_back(std::move(rec));
  ++pool_.jobs_submitted;
  return recs_.back().id;
}

double& JobScheduler::service_of(const std::string& user) {
  for (auto& [name, s] : service_)
    if (name == user) return s;
  service_.emplace_back(user, 0.0);
  return service_.back().second;
}

void JobScheduler::log_event(Seconds t, const std::string& what) {
  log_.push_back("t=" + fmt_s(t) + " " + what);
}

Seconds JobScheduler::manifest_transfer_time() const {
  return cost_.transfer_time(opts_.manifest_bytes, opts_.vm) + cost_.params().queue_op_latency;
}

void JobScheduler::charge_overhead(std::uint32_t vms, Seconds t) {
  overhead_meter_.charge(opts_.vm, vms, t);
  pool_.preemption_overhead += t;
}

void JobScheduler::release_arrivals(Seconds now) {
  for (Rec& rec : recs_) {
    if (rec.state != State::kPending || rec.spec.arrival > now) continue;
    const std::uint32_t w = rec.job->initial_workers();
    if (w > opts_.pool_vms) {
      rec.state = State::kRejected;
      rec.completed_at = now;
      ++pool_.jobs_rejected;
      log_event(now, "reject job " + std::to_string(rec.id) + " (" + rec.spec.name +
                         "): needs " + std::to_string(w) + " VMs, pool has " +
                         std::to_string(opts_.pool_vms));
      continue;
    }
    // Budget admission floor: a budget that cannot buy the requested fleet
    // one modeled second could never finish setup, let alone a superstep.
    const Usd floor = static_cast<double>(w) * opts_.vm.price_per_hour / 3600.0;
    if (rec.spec.budget_usd > 0.0 && rec.spec.budget_usd < floor) {
      rec.state = State::kRejected;
      rec.completed_at = now;
      ++pool_.jobs_rejected;
      log_event(now, "reject job " + std::to_string(rec.id) + " (" + rec.spec.name +
                         "): budget below admission floor");
      continue;
    }
    rec.state = State::kQueued;
    log_event(now, "queue job " + std::to_string(rec.id) + " (" + rec.spec.name +
                       "): " + std::to_string(w) + " VMs, user " + rec.spec.user);
  }
}

bool JobScheduler::admit(Rec& rec, Seconds now) {
  const std::uint32_t w = rec.job->initial_workers();
  rec.state = State::kRunning;
  rec.vms_held = w;
  rec.workers_peak = std::max(rec.workers_peak, w);
  free_vms_ -= w;
  if (!rec.started) {
    rec.started = true;
    rec.admitted_at = now;
    rec.wait += now - rec.spec.arrival;
    rec.clock = now;
    log_event(now, "admit job " + std::to_string(rec.id) + " (" + rec.spec.name +
                       ") on " + std::to_string(w) + " VMs");
    const Seconds before = rec.job->modeled_time();
    const bool ok = rec.job->start();
    rec.clock += rec.job->modeled_time() - before;
    service_of(rec.spec.user) += (rec.job->modeled_time() - before) * w;
    if (!ok) {
      finish_job(rec, State::kFailed);
      return false;
    }
    return true;
  }
  // Resume from preemption: the standby reloads the persisted manifest; the
  // reload rides the pool's modeled planes and is charged to the pool, not
  // to the job (its own metrics must match the solo run).
  PREGEL_CHECK_MSG(rec.manager.has_manifest(),
                   "JobScheduler: resuming a job with no persisted manifest");
  const Seconds reload = manifest_transfer_time();
  charge_overhead(w, reload);
  ++pool_.resumes;
  rec.wait += now - rec.clock;
  rec.clock = now + reload;
  log_event(now, "resume job " + std::to_string(rec.id) + " (" + rec.spec.name +
                     ") on " + std::to_string(w) + " VMs at superstep " +
                     std::to_string(rec.job->current_superstep()));
  return true;
}

void JobScheduler::preempt(Rec& rec, Seconds now) {
  // Persist the manifest through the job's durable JobManager, exactly the
  // blob a standby manager would resume from; the write is priced like the
  // reload on resume. The engine object keeps the full in-memory state, so
  // resuming later replays nothing and changes nothing.
  rec.manager.persist(rec.job->manifest());
  const Seconds persist = manifest_transfer_time();
  charge_overhead(rec.vms_held, persist);
  free_vms_ += rec.vms_held;
  log_event(now, "preempt job " + std::to_string(rec.id) + " (" + rec.spec.name +
                     "): manifest persisted at superstep " +
                     std::to_string(rec.job->current_superstep()) + ", freed " +
                     std::to_string(rec.vms_held) + " VMs");
  rec.vms_held = 0;
  rec.state = State::kQueued;
  rec.clock = std::max(rec.clock, now + persist);
  ++rec.preemptions;
  ++pool_.preemptions;
}

void JobScheduler::try_admit(Seconds now) {
  for (;;) {
    std::vector<QueuedJobView> queued;
    std::vector<std::size_t> queued_idx;
    for (std::size_t i = 0; i < recs_.size(); ++i) {
      Rec& rec = recs_[i];
      if (rec.state != State::kQueued) continue;
      // A preempted job's manifest persist may still be in flight; it is
      // not eligible again until its local clock catches up to the pool.
      if (rec.started && rec.clock > now) continue;
      queued.push_back({rec.id, &rec.spec, rec.job->initial_workers(),
                        service_of(rec.spec.user)});
      queued_idx.push_back(i);
    }
    if (queued.empty()) return;
    const std::size_t picked = policy_->pick(queued);
    if (picked == QueuePolicy::npos) return;
    Rec& rec = recs_[queued_idx[picked]];
    const std::uint32_t w = rec.job->initial_workers();

    if (free_vms_ < static_cast<std::int64_t>(w) && opts_.allow_preemption) {
      // Ask the policy for victims until the fleet fits or it declines.
      while (free_vms_ < static_cast<std::int64_t>(w)) {
        std::vector<RunningJobView> running;
        std::vector<std::size_t> running_idx;
        for (std::size_t i = 0; i < recs_.size(); ++i) {
          Rec& r = recs_[i];
          if (r.state != State::kRunning) continue;
          running.push_back(
              {r.id, &r.spec, r.vms_held, r.admitted_at, service_of(r.spec.user)});
          running_idx.push_back(i);
        }
        if (running.empty()) break;
        const std::size_t v = policy_->victim(queued[picked], running);
        if (v == QueuePolicy::npos) break;
        preempt(recs_[running_idx[v]], now);
      }
    }
    if (free_vms_ < static_cast<std::int64_t>(w)) return;  // head-of-line waits
    if (!admit(rec, now)) continue;  // died in setup; capacity already freed
  }
}

void JobScheduler::reclaim_capacity(Rec& rec) {
  const std::uint32_t w_now = rec.job->current_workers();
  if (w_now < rec.vms_held) {
    const std::uint32_t freed = rec.vms_held - w_now;
    free_vms_ += freed;
    rec.scale_ins += freed;
    pool_.scale_ins += freed;
    log_event(rec.clock, "scale-in job " + std::to_string(rec.id) + " (" +
                             rec.spec.name + "): returned " + std::to_string(freed) +
                             " VM(s) to the pool");
    rec.vms_held = w_now;
  } else if (w_now > rec.vms_held) {
    // Job-own elasticity grew the fleet (governor scale-out or a scaling
    // policy). The growth is a deterministic job-own decision the scheduler
    // must honor to keep the run bit-identical to solo; it may transiently
    // oversubscribe the pool, bounded by in-flight growth, and admission
    // stays closed until capacity is positive again.
    const std::uint32_t grew = w_now - rec.vms_held;
    free_vms_ -= grew;
    log_event(rec.clock, "scale-out job " + std::to_string(rec.id) + " (" +
                             rec.spec.name + "): took " + std::to_string(grew) +
                             " VM(s) from the pool");
    rec.vms_held = w_now;
    rec.workers_peak = std::max(rec.workers_peak, w_now);
  }
}

void JobScheduler::step(Rec& rec) {
  const Seconds before = rec.job->modeled_time();
  const bool more = rec.job->advance();
  const Seconds delta = rec.job->modeled_time() - before;
  rec.clock += delta;
  service_of(rec.spec.user) += delta * rec.vms_held;
  reclaim_capacity(rec);

  if (rec.spec.budget_usd > 0.0 && rec.job->cost_so_far() > rec.spec.budget_usd) {
    rec.job->fail("budget exhausted: " + std::to_string(rec.job->cost_so_far()) +
                  " USD spent against a ceiling of " +
                  std::to_string(rec.spec.budget_usd) + " USD");
    finish_job(rec, State::kFailed);
    return;
  }
  if (!more) {
    rec.job->finish();
    finish_job(rec, rec.job->report().failed ? State::kFailed : State::kDone);
  }
}

void JobScheduler::finish_job(Rec& rec, State terminal) {
  free_vms_ += rec.vms_held;
  rec.vms_held = 0;
  rec.state = terminal;
  rec.completed_at = rec.clock;
  if (terminal == State::kDone) {
    ++pool_.jobs_completed;
    log_event(rec.clock, "complete job " + std::to_string(rec.id) + " (" +
                             rec.spec.name + "): " +
                             std::to_string(rec.job->current_superstep()) +
                             " supersteps");
  } else {
    ++pool_.jobs_failed;
    log_event(rec.clock, "fail job " + std::to_string(rec.id) + " (" + rec.spec.name +
                             "): " + rec.job->report().failure_reason);
  }
}

void JobScheduler::run_all() {
  PREGEL_CHECK_MSG(!ran_, "JobScheduler: run_all called twice");
  ran_ = true;

  Seconds now = 0.0;
  for (;;) {
    release_arrivals(now);
    try_admit(now);

    // Next event: the earliest running job's slice end, or the next arrival,
    // whichever is sooner (ties: arrivals first, then lowest job id).
    constexpr Seconds kInf = std::numeric_limits<Seconds>::infinity();
    Seconds next_arrival = kInf;
    for (const Rec& rec : recs_)
      if (rec.state == State::kPending) next_arrival = std::min(next_arrival, rec.spec.arrival);

    Rec* next_run = nullptr;
    for (Rec& rec : recs_)
      if (rec.state == State::kRunning &&
          (next_run == nullptr || rec.clock < next_run->clock))
        next_run = &rec;

    if (next_run == nullptr) {
      if (next_arrival < kInf) {
        now = std::max(now, next_arrival);
        continue;
      }
      // Nothing running, nothing arriving. Any job still queued is a
      // preempted job whose manifest persist is settling — advance the
      // clock to it; a fresh queued job with the whole pool free would have
      // been admitted above.
      Seconds next_ready = kInf;
      for (const Rec& rec : recs_)
        if (rec.state == State::kQueued) next_ready = std::min(next_ready, rec.clock);
      if (next_ready < kInf && next_ready > now) {
        now = next_ready;
        continue;
      }
      break;
    }
    if (next_arrival <= next_run->clock) {
      now = std::max(now, next_arrival);
      continue;
    }
    now = next_run->clock;
    step(*next_run);
  }

  finalize_metrics();
}

void JobScheduler::finalize_metrics() {
  Seconds first_arrival = 0.0, last_completion = 0.0;
  bool any = false;
  Seconds busy_vm_seconds = 0.0;
  for (Rec& rec : recs_) {
    JobRow row;
    row.id = rec.id;
    row.name = rec.spec.name;
    row.user = rec.spec.user;
    row.state = rec.state == State::kDone     ? "done"
                : rec.state == State::kFailed ? "failed"
                                              : "rejected";
    row.arrival = rec.spec.arrival;
    row.admitted = rec.started ? rec.admitted_at : 0.0;
    row.completed = rec.completed_at;
    row.wait_time = rec.wait;
    row.preemptions = rec.preemptions;
    row.scale_ins = rec.scale_ins;
    row.workers_peak = rec.workers_peak;
    row.deadline = rec.spec.deadline;
    // A deadline is missed unless the job finished successfully by it:
    // late completions, failures, and rejections all count (a rejected job
    // with a deadline certainly did not meet it).
    row.missed_deadline =
        rec.spec.deadline > 0.0 &&
        (rec.state != State::kDone || rec.completed_at > rec.spec.deadline);
    if (row.missed_deadline) ++pool_.deadline_misses;
    if (rec.started) {
      const JobReport& rep = rec.job->report();
      row.run_time = rep.metrics.total_time;
      row.cost_usd = rep.metrics.cost_usd;
      row.supersteps = rep.metrics.total_supersteps();
      row.workers_final = rec.job->current_workers();
      pool_.total_cost_usd += rep.metrics.cost_usd;
      pool_.vm_seconds += rep.metrics.vm_seconds;
      busy_vm_seconds += rep.metrics.vm_seconds;
    }
    pool_.total_wait += rec.wait;
    if (rec.state == State::kDone || rec.state == State::kFailed) {
      if (!any) {
        first_arrival = rec.spec.arrival;
        any = true;
      }
      first_arrival = std::min(first_arrival, rec.spec.arrival);
      last_completion = std::max(last_completion, rec.completed_at);
    }
    rows_.push_back(std::move(row));
  }
  pool_.total_cost_usd += overhead_meter_.total_usd();
  pool_.vm_seconds += overhead_meter_.total_vm_seconds();
  pool_.makespan = any ? last_completion - first_arrival : 0.0;
  if (pool_.makespan > 0.0 && pool_.total_cost_usd > 0.0)
    pool_.jobs_per_hour_per_usd = static_cast<double>(pool_.jobs_completed) /
                                  (pool_.makespan / 3600.0) / pool_.total_cost_usd;
  if (pool_.makespan > 0.0 && opts_.pool_vms > 0)
    pool_.pool_utilization =
        busy_vm_seconds / (static_cast<double>(opts_.pool_vms) * pool_.makespan);
}

const JobReport& JobScheduler::report(std::uint64_t id) const {
  PREGEL_CHECK_MSG(id < recs_.size(), "JobScheduler: unknown job id");
  PREGEL_CHECK_MSG(recs_[id].started, "JobScheduler: job never admitted");
  return recs_[id].job->report();
}

}  // namespace pregel::sched
