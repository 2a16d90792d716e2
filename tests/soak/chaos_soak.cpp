// Chaos soak harness: randomized fault plans composed with adversarial
// memory budgets over seeded, fully deterministic schedules.
//
// Each seed derives one scenario (workload, graph, cluster shape, fault
// plan, governor budget) from a SplitMix64 stream, runs a fault-free
// baseline with generous memory, then re-runs under chaos — transient
// queue/blob faults, blob corruption, preemptions, tenancy noise,
// stragglers, scheduled VM failures, checkpoint/recovery, and the
// memory-pressure governor with a budget squeezed between the baseline's
// floor and peak. The whole fault plan draws from one seed. The chaos run
// must complete and produce bit-identical vertex values — or fail the one way
// the fault model intends: the setup blob read exhausts its retries, no
// superstep runs, and a rerun fails identically (reported as SOAK-OK with a
// setup-lost tag).
//
// On any divergence the harness prints a one-line deterministic repro
//   SOAK-FAIL seed=<s> ... repro: chaos_soak --seed <s> [--smoke]
// and exits nonzero. `--smoke` shrinks graphs and the seed count for the
// PR-CI lane; the nightly workflow sweeps a wide random seed range.
#include <algorithm>
#include <cstdint>
#include <cstring>
#include <exception>
#include <fstream>
#include <iostream>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include <deque>
#include <memory>

#include "algos/bc.hpp"
#include "algos/pagerank.hpp"
#include "algos/sssp.hpp"
#include "graph/generators.hpp"
#include "partition/partitioner.hpp"
#include "partition/rebalance.hpp"
#include "runtime/trace.hpp"
#include "sched/scheduler.hpp"
#include "subgraph/components.hpp"
#include "util/rng.hpp"

namespace {

using namespace pregel;
using algos::BcProgram;
using algos::PageRankProgram;
using algos::SsspProgram;

struct CliOptions {
  std::uint64_t seeds = 25;
  std::uint64_t seed_base = 2013;
  bool smoke = false;
  std::optional<std::uint64_t> single_seed;
  std::string trace_dir;  ///< when set, dump a Chrome trace per failing seed
};

std::uint64_t uniform_int(SplitMix64& rng, std::uint64_t lo, std::uint64_t hi) {
  return lo + rng() % (hi - lo + 1);
}

double uniform_real(SplitMix64& rng, double lo, double hi) {
  const double u = static_cast<double>(rng() >> 11) * 0x1.0p-53;
  return lo + u * (hi - lo);
}

struct MemoryEnvelope {
  Bytes floor = 0;  ///< min superstep peak: ~graph baseline
  Bytes peak = 0;   ///< max superstep peak under generous memory
};

MemoryEnvelope envelope_of(const JobMetrics& m) {
  MemoryEnvelope e;
  e.floor = std::numeric_limits<Bytes>::max();
  for (const auto& sm : m.supersteps) {
    e.floor = std::min(e.floor, sm.max_worker_memory());
    e.peak = std::max(e.peak, sm.max_worker_memory());
  }
  if (m.supersteps.empty()) e.floor = 0;
  return e;
}

/// Shared chaos knobs drawn per seed: the cluster-level fault plan plus the
/// governor's budget squeeze factor.
struct ChaosDraw {
  ClusterConfig cluster;
  double squeeze = 0.0;  ///< where between floor and peak the budget lands
  bool spill_enabled = true;
  /// Governor may take the scale-out rung instead of a shed rewind (needs a
  /// spare VM slot; migration makes the grown layout physical).
  bool scale_out_enabled = false;
  std::string describe;
};

ChaosDraw draw_chaos(SplitMix64& rng, std::uint32_t partitions) {
  ChaosDraw d;
  d.cluster.num_partitions = partitions;
  d.cluster.initial_workers =
      static_cast<std::uint32_t>(uniform_int(rng, 2, partitions));
  d.cluster.checkpoint_interval = uniform_int(rng, 2, 5);
  d.cluster.recovery_mode =
      (rng() & 1) ? RecoveryMode::kConfined : RecoveryMode::kFullRollback;

  d.cluster.faults.queue_op_failure_rate = uniform_real(rng, 0.0, 0.04);
  d.cluster.faults.blob_read_failure_rate = uniform_real(rng, 0.0, 0.06);
  d.cluster.faults.blob_write_failure_rate = uniform_real(rng, 0.0, 0.04);
  // Blob reads happen on recovery/shed paths only, so the corruption rate
  // is drawn high enough that those few reads still exercise verification.
  d.cluster.faults.blob_corruption_rate = uniform_real(rng, 0.0, 0.3);
  // Queue ops run every superstep (step/barrier control traffic), so the
  // corruption rate stays low to keep retry storms bounded.
  d.cluster.faults.queue_corruption_rate = uniform_real(rng, 0.0, 0.08);
  d.cluster.faults.vm_preemption_rate = uniform_real(rng, 0.0, 0.006);
  d.cluster.faults.straggler_rate = uniform_real(rng, 0.0, 0.12);
  d.cluster.faults.straggler_slowdown = uniform_real(rng, 2.0, 6.0);
  d.cluster.faults.tenancy_sigma = uniform_real(rng, 0.0, 0.3);
  // One seed drives every stream of the plan, including those drawn below.
  d.cluster.faults.seed = rng();
  d.cluster.straggler_timeout_factor = (rng() & 1) ? uniform_real(rng, 2.0, 4.0) : 0.0;

  // Live migration rides along on half the scenarios: periodic activity
  // replans must stay invisible in every compared value.
  if (rng() & 1) {
    d.cluster.migration.planner =
        std::make_shared<ActivityGreedyPlanner>(uniform_real(rng, 0.05, 0.3));
    d.cluster.migration.period = uniform_int(rng, 1, 3);
  }
  d.scale_out_enabled = (rng() & 1) != 0;

  const std::uint64_t scheduled = uniform_int(rng, 0, 2);
  for (std::uint64_t i = 0; i < scheduled; ++i)
    d.cluster.scheduled_failures.emplace_back(
        uniform_int(rng, 1, 14),
        static_cast<std::uint32_t>(uniform_int(rng, 0, d.cluster.initial_workers - 1)));

  d.squeeze = uniform_real(rng, 0.45, 0.9);
  d.spill_enabled = (rng() & 1) != 0;

  // Control plane: a fallible job manager and at-least-once barrier
  // redelivery on every scenario; correlated zone outages on multi-zone
  // draws (kept rare — a whole domain dies at once, and an outage landing
  // before the first checkpoint legitimately loses the job, same as an
  // early preemption).
  d.cluster.faults.manager_preemption_rate = uniform_real(rng, 0.0, 0.03);
  d.cluster.faults.queue_duplicate_rate = uniform_real(rng, 0.0, 0.1);
  d.cluster.availability_zones = static_cast<std::uint32_t>(uniform_int(rng, 1, 3));
  if (d.cluster.availability_zones > 1)
    d.cluster.faults.zone_outage_rate = uniform_real(rng, 0.0, 0.004);

  // Generational checkpoint store: torn leg/manifest writes, at-rest rot,
  // delta chains, and the background scrub all ride along. Tear/rot rates
  // stay low: a deep multi-generation fallback replays many supersteps and
  // the runaway guard bounds total executed supersteps per scenario.
  d.cluster.faults.ckpt_torn_write_rate = uniform_real(rng, 0.0, 0.05);
  d.cluster.faults.ckpt_rot_rate = uniform_real(rng, 0.0, 0.1);
  d.cluster.ckpt.delta_enabled = (rng() & 1) != 0;
  d.cluster.ckpt.max_chain_length = static_cast<std::uint32_t>(uniform_int(rng, 1, 4));
  d.cluster.ckpt.retained_generations = static_cast<std::uint32_t>(uniform_int(rng, 1, 3));
  d.cluster.ckpt.scrub_period = static_cast<std::uint32_t>(uniform_int(rng, 0, 3));

  d.describe = "workers=" + std::to_string(d.cluster.initial_workers) +
               " ckpt=" + std::to_string(d.cluster.checkpoint_interval) +
               " recovery=" + to_string(d.cluster.recovery_mode) +
               " squeeze=" + std::to_string(d.squeeze) +
               (d.spill_enabled ? " spill=on" : " spill=off") +
               (d.cluster.migration.enabled()
                    ? " migrate=p" + std::to_string(d.cluster.migration.period)
                    : " migrate=off") +
               (d.scale_out_enabled ? " scale-out=on" : "") +
               " zones=" + std::to_string(d.cluster.availability_zones) +
               (d.cluster.ckpt.delta_enabled
                    ? " delta=c" + std::to_string(d.cluster.ckpt.max_chain_length)
                    : " delta=off") +
               " scrub=" + std::to_string(d.cluster.ckpt.scrub_period);
  return d;
}

/// The governor's budget: squeezed between the baseline floor and peak,
/// with a minimum of 25% headroom over the resident graph so a one-root
/// swath always fits.
Bytes squeezed_target(const MemoryEnvelope& e, double squeeze) {
  const Bytes span = e.peak > e.floor ? e.peak - e.floor : 0;
  const Bytes mid = e.floor + static_cast<Bytes>(static_cast<double>(span) * squeeze);
  return std::max(mid, e.floor + e.floor / 4 + 4096);
}

MemGovernorConfig soak_governor(bool spill_enabled, bool scale_out_enabled) {
  MemGovernorConfig cfg;
  cfg.enabled = true;
  cfg.spill_enabled = spill_enabled;
  cfg.scale_out_enabled = scale_out_enabled;
  return cfg;
}

Graph make_graph(SplitMix64& rng, bool smoke, std::string& kind) {
  const std::uint64_t which = uniform_int(rng, 0, 2);
  const VertexId n = smoke ? 240 : 800;
  const std::uint64_t gseed = rng();
  switch (which) {
    case 0: kind = "ws"; return watts_strogatz(n, 6, 0.15, gseed);
    case 1: kind = "ba"; return barabasi_albert(n, 3, gseed);
    default: kind = "er"; return erdos_renyi(n, static_cast<EdgeIndex>(n) * 4, gseed);
  }
}

struct SeedOutcome {
  bool ok = true;
  std::string detail;       ///< first divergence / failure reason
  std::string stats;        ///< one-line chaos metrics for the log
  bool setup_lost = false;  ///< the job died at its setup blob read, as modeled
};

std::string chaos_stats(const JobMetrics& m) {
  return "supersteps=" + std::to_string(m.total_supersteps()) +
         " failures=" + std::to_string(m.worker_failures) +
         " faults=" + std::to_string(m.faults_injected) +
         " corruptions=" + std::to_string(m.blob_corruptions) + "+" +
         std::to_string(m.queue_corruptions) + "q" +
         " sheds=" + std::to_string(m.governor_sheds) +
         " spills=" + std::to_string(m.governor_spills) +
         " scale_outs=" + std::to_string(m.governor_scale_outs) +
         " migrations=" + std::to_string(m.migrations) +
         " oom_episodes=" + std::to_string(m.governed_oom_episodes) +
         " failovers=" + std::to_string(m.manager_failovers) +
         " dup=" + std::to_string(m.barrier_duplicates) +
         " zone_outages=" + std::to_string(m.zone_outages) +
         " ckpt_fallbacks=" + std::to_string(m.checkpoint_fallbacks) +
         " torn=" + std::to_string(m.checkpoint_torn_legs) + "+" +
         std::to_string(m.checkpoint_torn_manifests) + "m" +
         " scrub_repairs=" + std::to_string(m.scrub_repairs);
}

/// A failed chaos run passes only as the loss docs/FAULTS.md models: the
/// setup blob read exhausted its retries, so the job died before superstep
/// 0, and `rerun` (the same job on a fresh engine) fails with the same
/// reason and the same modeled metrics. Any other failure is a SOAK-FAIL.
template <typename Rerun>
SeedOutcome chaos_failure(const JobReport& r, Rerun rerun) {
  const std::string& why = r.failure_reason;
  if (!why.starts_with("graph blob unreadable after ") || !why.ends_with(" during setup") ||
      r.metrics.total_supersteps() != 0)
    return {false, "chaos run failed: " + why, ""};
  const JobReport again = rerun();
  if (!again.failed || again.failure_reason != why)
    return {false, "setup loss did not recur: " + again.failure_reason, ""};
  const std::string diff = first_modeled_difference(r.metrics, again.metrics);
  if (!diff.empty()) return {false, "setup loss rerun differs: " + diff, ""};
  return {true, "", "setup-lost: " + why, true};
}

/// Multi-source SSSP under chaos. Roots are staggered in per-superstep
/// swaths; the governor may veto, clamp, spill, park roots, or force
/// governed-OOM restores. Distances form a min-lattice, so the fixpoint is
/// schedule-independent and must match the baseline bit for bit.
SeedOutcome run_sssp_scenario(SplitMix64& rng, bool smoke, std::string& desc) {
  std::string kind;
  const Graph g = make_graph(rng, smoke, kind);
  const std::uint32_t partitions = 4;
  const auto parts = HashPartitioner{}.partition(g, partitions);

  const std::uint64_t n_roots = smoke ? 8 : 16;
  std::set<VertexId> root_set;
  while (root_set.size() < n_roots)
    root_set.insert(static_cast<VertexId>(rng() % g.num_vertices()));
  const std::vector<VertexId> roots(root_set.begin(), root_set.end());

  ChaosDraw chaos = draw_chaos(rng, partitions);
  desc = "workload=sssp graph=" + kind + " " + chaos.describe;

  // Fault-free, memory-unconstrained baseline: all roots in one swath. It
  // runs with the chaos worker count so the measured envelope reflects the
  // same partition-per-VM packing the chaos run will see.
  ClusterConfig calm;
  calm.num_partitions = partitions;
  calm.initial_workers = chaos.cluster.initial_workers;
  calm.vm.ram = 64_GiB;
  Engine<SsspProgram> baseline_engine(g, {}, calm, parts);
  JobOptions calm_opts;
  calm_opts.roots = roots;
  const auto baseline = baseline_engine.run(calm_opts);
  if (baseline.failed) return {false, "baseline failed: " + baseline.failure_reason, ""};
  const MemoryEnvelope env = envelope_of(baseline.metrics);

  // Chaos: staggered swaths, adversarial governor budget. The VM keeps
  // headroom over the true peak: SSSP waves live inside checkpoints (roots
  // never complete), so a budget the resident checkpointed state cannot fit
  // under would exhaust the ladder by construction rather than reveal a
  // bug. Thrash-restart absorption (rung 3) is exercised by the engine
  // tests; here the squeeze drives veto/clamp, spill, and shed instead.
  const Bytes target = squeezed_target(env, chaos.squeeze);
  chaos.cluster.vm.ram = std::max(env.peak + env.peak / 4, 2 * env.floor + 8192);
  const auto swath_size =
      static_cast<std::uint32_t>(uniform_int(rng, 2, roots.size()));
  Engine<SsspProgram> chaos_engine(g, {}, chaos.cluster, parts);
  JobOptions chaos_opts;
  chaos_opts.roots = roots;
  chaos_opts.swath =
      SwathPolicy::make(std::make_shared<StaticSwathSizer>(swath_size),
                        std::make_shared<StaticNInitiation>(1), target);
  chaos_opts.governor = soak_governor(chaos.spill_enabled, chaos.scale_out_enabled);
  const auto r = chaos_engine.run(chaos_opts);
  if (r.failed)
    return chaos_failure(r, [&] {
      return Engine<SsspProgram>(g, {}, chaos.cluster, parts).run(chaos_opts);
    });

  for (VertexId v = 0; v < g.num_vertices(); ++v)
    if (r.values[v].distance != baseline.values[v].distance)
      return {false,
              "distance mismatch at vertex " + std::to_string(v) + ": " +
                  std::to_string(r.values[v].distance) + " != " +
                  std::to_string(baseline.values[v].distance),
              ""};
  return {true, "", chaos_stats(r.metrics)};
}

/// PageRank under chaos: fixed-iteration, every vertex active. There are no
/// roots to park, so the VM keeps headroom over the true peak (a restart
/// could only replay the same all-active superstep); the governor's spill
/// rung and the full fault/recovery machinery still run against it.
SeedOutcome run_pagerank_scenario(SplitMix64& rng, bool smoke, std::string& desc) {
  std::string kind;
  const Graph g = make_graph(rng, smoke, kind);
  const std::uint32_t partitions = 4;
  const auto parts = HashPartitioner{}.partition(g, partitions);
  const int iterations = static_cast<int>(uniform_int(rng, 10, 20));

  ChaosDraw chaos = draw_chaos(rng, partitions);
  desc = "workload=pagerank graph=" + kind + " iters=" + std::to_string(iterations) +
         " " + chaos.describe;

  ClusterConfig calm;
  calm.num_partitions = partitions;
  calm.initial_workers = chaos.cluster.initial_workers;
  calm.vm.ram = 64_GiB;
  Engine<PageRankProgram> baseline_engine(g, {iterations, 0.85}, calm, parts);
  JobOptions opts;
  opts.start_all_vertices = true;
  const auto baseline = baseline_engine.run(opts);
  if (baseline.failed) return {false, "baseline failed: " + baseline.failure_reason, ""};
  const MemoryEnvelope env = envelope_of(baseline.metrics);

  const Bytes target = squeezed_target(env, chaos.squeeze);
  chaos.cluster.vm.ram = std::max(env.peak + env.peak / 5, 2 * env.floor + 8192);
  JobOptions chaos_job = opts;
  chaos_job.swath = SwathPolicy::make(std::make_shared<StaticSwathSizer>(1),
                                      std::make_shared<SequentialInitiation>(), target);
  chaos_job.governor = soak_governor(chaos.spill_enabled, chaos.scale_out_enabled);
  Engine<PageRankProgram> chaos_engine(g, {iterations, 0.85}, chaos.cluster, parts);
  const auto r = chaos_engine.run(chaos_job);
  if (r.failed)
    return chaos_failure(r, [&] {
      return Engine<PageRankProgram>(g, {iterations, 0.85}, chaos.cluster, parts)
          .run(chaos_job);
    });

  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    // Bitwise comparison, deliberately stricter than any epsilon: recovery
    // replays and governor interventions must reproduce the exact doubles.
    if (std::memcmp(&r.values[v].rank, &baseline.values[v].rank, sizeof(double)) != 0)
      return {false,
              "rank mismatch at vertex " + std::to_string(v) + ": " +
                  std::to_string(r.values[v].rank) + " != " +
                  std::to_string(baseline.values[v].rank),
              ""};
  }
  return {true, "", chaos_stats(r.metrics)};
}

/// Swathed BC under chaos — the migration stress case: per-root state rides
/// along on every vertex move, double aggregates and root completions replay
/// by rank, and Kahan-compensated scores must still land bit-identical.
///
/// BC's score accumulation order depends on the swath schedule, so the
/// baseline is SCHEDULE-MATCHED: same swath policy, fault-free, generous
/// memory, and no governor on either side (a shed rewind would park roots
/// and legitimately reorder the accumulation — that bitwise-breaking rung is
/// exercised by the SSSP scenario, whose min-lattice fixpoint is schedule-
/// independent). Faults, recovery replays, and migrations stay in.
SeedOutcome run_bc_scenario(SplitMix64& rng, bool smoke, std::string& desc) {
  std::string kind;
  const Graph g = make_graph(rng, smoke, kind);
  const std::uint32_t partitions = 4;
  const auto parts = HashPartitioner{}.partition(g, partitions);

  const std::uint64_t n_roots = smoke ? 6 : 12;
  std::set<VertexId> root_set;
  while (root_set.size() < n_roots)
    root_set.insert(static_cast<VertexId>(rng() % g.num_vertices()));
  const std::vector<VertexId> roots(root_set.begin(), root_set.end());

  ChaosDraw chaos = draw_chaos(rng, partitions);
  desc = "workload=bc graph=" + kind + " roots=" + std::to_string(roots.size()) +
         " " + chaos.describe;

  const auto swath_size =
      static_cast<std::uint32_t>(uniform_int(rng, 2, roots.size()));
  const auto initiate_every = uniform_int(rng, 2, 4);
  const SwathPolicy swath =
      SwathPolicy::make(std::make_shared<StaticSwathSizer>(swath_size),
                        std::make_shared<StaticNInitiation>(initiate_every), 0);

  ClusterConfig calm;
  calm.num_partitions = partitions;
  calm.initial_workers = chaos.cluster.initial_workers;
  calm.vm.ram = 64_GiB;
  Engine<BcProgram> baseline_engine(g, {}, calm, parts);
  JobOptions opts;
  opts.roots = roots;
  opts.swath = swath;
  const auto baseline = baseline_engine.run(opts);
  if (baseline.failed) return {false, "baseline failed: " + baseline.failure_reason, ""};
  if (baseline.roots_completed != roots.size())
    return {false, "baseline left roots incomplete", ""};
  const MemoryEnvelope env = envelope_of(baseline.metrics);

  chaos.cluster.vm.ram = std::max(env.peak + env.peak / 4, 2 * env.floor + 8192);
  Engine<BcProgram> chaos_engine(g, {}, chaos.cluster, parts);
  const auto r = chaos_engine.run(opts);
  if (r.failed)
    return chaos_failure(r, [&] {
      return Engine<BcProgram>(g, {}, chaos.cluster, parts).run(opts);
    });
  if (r.roots_completed != roots.size())
    return {false, "chaos run left roots incomplete", ""};

  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    if (std::memcmp(&r.values[v].bc_score, &baseline.values[v].bc_score,
                    sizeof(double)) != 0)
      return {false,
              "bc_score mismatch at vertex " + std::to_string(v) + ": " +
                  std::to_string(r.values[v].bc_score) + " != " +
                  std::to_string(baseline.values[v].bc_score),
              ""};
  }
  return {true, "", chaos_stats(r.metrics)};
}

/// Subgraph-centric Components under chaos (docs/SUBGRAPH.md): the
/// per-partition union-find unit rides the same barriers, so the full fault
/// gauntlet — recovery replays, governor interventions, migrations — must
/// reproduce the min-label fixpoint bit-identically. The label lattice is
/// schedule-independent, so the governor's shed rung stays armed.
SeedOutcome run_subgraph_scenario(SplitMix64& rng, bool smoke, std::string& desc) {
  std::string kind;
  const Graph g = make_graph(rng, smoke, kind);
  const std::uint32_t partitions = 4;
  const auto parts = HashPartitioner{}.partition(g, partitions);

  ChaosDraw chaos = draw_chaos(rng, partitions);
  desc = "workload=subgraph-cc graph=" + kind + " " + chaos.describe;

  ClusterConfig calm;
  calm.num_partitions = partitions;
  calm.initial_workers = chaos.cluster.initial_workers;
  calm.vm.ram = 64_GiB;
  const auto baseline = subgraph::run_components_subgraph(g, calm, parts);
  if (baseline.failed) return {false, "baseline failed: " + baseline.failure_reason, ""};
  const MemoryEnvelope env = envelope_of(baseline.metrics);

  const Bytes target = squeezed_target(env, chaos.squeeze);
  chaos.cluster.vm.ram = std::max(env.peak + env.peak / 5, 2 * env.floor + 8192);
  JobOptions chaos_job;
  chaos_job.start_all_vertices = true;
  chaos_job.swath = SwathPolicy::make(std::make_shared<StaticSwathSizer>(1),
                                      std::make_shared<SequentialInitiation>(), target);
  chaos_job.governor = soak_governor(chaos.spill_enabled, chaos.scale_out_enabled);
  Engine<subgraph::ComponentsSubgraphProgram> chaos_engine(g, {}, chaos.cluster, parts);
  const auto r = chaos_engine.run(chaos_job);
  if (r.failed)
    return chaos_failure(r, [&] {
      return Engine<subgraph::ComponentsSubgraphProgram>(g, {}, chaos.cluster, parts)
          .run(chaos_job);
    });

  for (VertexId v = 0; v < g.num_vertices(); ++v)
    if (r.values[v].label != baseline.values[v].label)
      return {false,
              "label mismatch at vertex " + std::to_string(v) + ": " +
                  std::to_string(r.values[v].label) + " != " +
                  std::to_string(baseline.values[v].label),
              ""};
  return {true, "", chaos_stats(r.metrics)};
}

/// Multi-job scheduler under contention: a seeded mixed plan (PageRank and
/// SSSP jobs, varied graphs, fleet widths, arrivals, users, priorities —
/// some with the scale-in rung armed) runs through JobScheduler on a pool
/// too small to hold everyone at once, under a seeded queue policy. Every
/// job must finish with vertex values, modeled time, and modeled cost
/// bit-identical to running the same configuration alone on a dedicated
/// pool: queueing, preemption, resume, and capacity reclaim may move a job
/// in time but may not touch what it computes.
SeedOutcome run_scheduler_scenario(SplitMix64& rng, bool smoke, std::string& desc) {
  struct JobCase {
    Graph g;
    Partitioning parts;
    ClusterConfig cluster;
    bool is_pagerank = false;
    int iterations = 0;
    VertexId root = 0;
    sched::TypedJob<PageRankProgram>* pr = nullptr;  // owned by the scheduler
    sched::TypedJob<SsspProgram>* sp = nullptr;
  };

  const std::uint32_t partitions = 4;
  const std::uint64_t n_jobs = uniform_int(rng, 3, 5);
  std::deque<JobCase> cases;
  for (std::uint64_t i = 0; i < n_jobs; ++i) {
    JobCase c;
    std::string kind;
    c.g = make_graph(rng, smoke, kind);
    c.parts = HashPartitioner{}.partition(c.g, partitions);
    c.cluster.num_partitions = partitions;
    c.cluster.initial_workers =
        static_cast<std::uint32_t>(uniform_int(rng, 2, partitions));
    c.cluster.vm.ram = 64_GiB;
    if (rng() & 1) {
      c.cluster.scale_in.enabled = true;
      c.cluster.scale_in.density_threshold = uniform_real(rng, 0.02, 0.10);
      c.cluster.scale_in.patience = static_cast<std::uint32_t>(uniform_int(rng, 1, 3));
      c.cluster.scale_in.min_workers = 2;
    }
    c.is_pagerank = (rng() & 1) != 0;
    if (c.is_pagerank)
      c.iterations = static_cast<int>(uniform_int(rng, 6, 12));
    else
      c.root = static_cast<VertexId>(rng() % c.g.num_vertices());
    cases.push_back(std::move(c));
  }

  sched::SchedulerOptions sopts;
  sopts.pool_vms = static_cast<std::uint32_t>(uniform_int(rng, partitions, 6));
  const bool priority_policy = (rng() & 1) != 0;
  sopts.policy = priority_policy
                     ? std::shared_ptr<sched::QueuePolicy>(
                           std::make_shared<sched::PriorityPolicy>())
                     : std::make_shared<sched::FairSharePolicy>();
  sched::JobScheduler scheduler(sopts);
  desc = "workload=sched jobs=" + std::to_string(n_jobs) +
         " policy=" + (priority_policy ? "priority" : "fair-share") +
         " pool=" + std::to_string(sopts.pool_vms);

  const char* users[] = {"alice", "bob"};
  for (std::uint64_t i = 0; i < n_jobs; ++i) {
    JobCase& c = cases[i];
    sched::JobSpec spec;
    spec.name = "soak-job-" + std::to_string(i);
    spec.user = users[rng() % 2];
    spec.priority = static_cast<std::uint32_t>(rng() % 4);
    spec.arrival = uniform_real(rng, 0.0, 8.0);
    if (c.is_pagerank) {
      JobOptions o;
      o.start_all_vertices = true;
      auto job = std::make_unique<sched::TypedJob<PageRankProgram>>(
          c.g, PageRankProgram{c.iterations, 0.85}, c.cluster, c.parts, o);
      c.pr = job.get();
      scheduler.submit(spec, std::move(job));
    } else {
      JobOptions o;
      o.roots = {c.root};
      auto job = std::make_unique<sched::TypedJob<SsspProgram>>(
          c.g, SsspProgram{}, c.cluster, c.parts, o);
      c.sp = job.get();
      scheduler.submit(spec, std::move(job));
    }
  }
  scheduler.run_all();
  if (scheduler.pool().jobs_completed != n_jobs)
    return {false,
            "scheduler completed " + std::to_string(scheduler.pool().jobs_completed) +
                "/" + std::to_string(n_jobs) + " jobs",
            ""};

  for (std::uint64_t i = 0; i < n_jobs; ++i) {
    const JobCase& c = cases[i];
    if (c.is_pagerank) {
      Engine<PageRankProgram> solo(c.g, {c.iterations, 0.85}, c.cluster, c.parts);
      JobOptions o;
      o.start_all_vertices = true;
      const auto alone = solo.run(o);
      const auto& pooled = c.pr->result();
      if (const auto diff = first_modeled_difference(pooled.metrics, alone.metrics); !diff.empty())
        return {false, "job " + std::to_string(i) + " metrics diverged: " + diff, ""};
      for (VertexId v = 0; v < c.g.num_vertices(); ++v)
        if (std::memcmp(&pooled.values[v].rank, &alone.values[v].rank,
                        sizeof(double)) != 0)
          return {false,
                  "job " + std::to_string(i) + " rank mismatch at vertex " +
                      std::to_string(v),
                  ""};
    } else {
      Engine<SsspProgram> solo(c.g, {}, c.cluster, c.parts);
      JobOptions o;
      o.roots = {c.root};
      const auto alone = solo.run(o);
      const auto& pooled = c.sp->result();
      if (const auto diff = first_modeled_difference(pooled.metrics, alone.metrics); !diff.empty())
        return {false, "job " + std::to_string(i) + " metrics diverged: " + diff, ""};
      for (VertexId v = 0; v < c.g.num_vertices(); ++v)
        if (pooled.values[v].distance != alone.values[v].distance)
          return {false,
                  "job " + std::to_string(i) + " distance mismatch at vertex " +
                      std::to_string(v),
                  ""};
    }
  }
  const auto& pool = scheduler.pool();
  return {true, "",
          "preemptions=" + std::to_string(pool.preemptions) +
              " resumes=" + std::to_string(pool.resumes) +
              " scale_ins=" + std::to_string(pool.scale_ins) +
              " makespan_s=" + std::to_string(pool.makespan) +
              " jobs_per_hour_per_usd=" + std::to_string(pool.jobs_per_hour_per_usd)};
}

SeedOutcome run_seed(std::uint64_t seed, bool smoke, std::string& desc) {
  SplitMix64 rng(mix64(seed ^ 0x50414B5F534F414BULL));
  try {
    switch (rng() % 5) {
      case 0: return run_sssp_scenario(rng, smoke, desc);
      case 1: return run_pagerank_scenario(rng, smoke, desc);
      case 2: return run_bc_scenario(rng, smoke, desc);
      case 3: return run_subgraph_scenario(rng, smoke, desc);
      default: return run_scheduler_scenario(rng, smoke, desc);
    }
  } catch (const std::exception& e) {
    return {false, std::string("exception: ") + e.what(), ""};
  }
}

CliOptions parse(int argc, char** argv) {
  CliOptions o;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto next = [&]() -> std::uint64_t {
      if (i + 1 >= argc) {
        std::cerr << "missing value for " << a << "\n";
        std::exit(2);
      }
      return std::stoull(argv[++i]);
    };
    if (a == "--seeds") {
      o.seeds = next();
    } else if (a == "--seed-base") {
      o.seed_base = next();
    } else if (a == "--seed") {
      o.single_seed = next();
    } else if (a == "--smoke") {
      o.smoke = true;
    } else if (a == "--trace-dir") {
      if (i + 1 >= argc) {
        std::cerr << "missing value for " << a << "\n";
        std::exit(2);
      }
      o.trace_dir = argv[++i];
    } else if (a == "--help") {
      std::cout << "chaos_soak [--seeds N] [--seed-base B] [--seed S] [--smoke]\n"
                   "           [--trace-dir DIR]\n"
                   "Runs N seeded chaos scenarios (seeds B..B+N-1), asserting each\n"
                   "is bit-identical to its fault-free baseline. --seed replays one\n"
                   "scenario; --smoke shrinks graphs and defaults to 5 seeds.\n"
                   "--trace-dir records traces and writes DIR/TRACE_seed_<S>.json\n"
                   "for each failing seed.\n";
      std::exit(0);
    } else {
      std::cerr << "unknown flag " << a << "\n";
      std::exit(2);
    }
  }
  if (o.smoke && o.seeds == 25) o.seeds = 5;
  return o;
}

}  // namespace

int main(int argc, char** argv) {
  const CliOptions opts = parse(argc, argv);
  std::vector<std::uint64_t> seeds;
  if (opts.single_seed) {
    seeds.push_back(*opts.single_seed);
  } else {
    for (std::uint64_t i = 0; i < opts.seeds; ++i) seeds.push_back(opts.seed_base + i);
  }

  int failures = 0, setup_lost = 0;
  for (const std::uint64_t seed : seeds) {
    if (!opts.trace_dir.empty()) {
      // Fresh tracer per seed so a failure's trace covers only that seed.
      // Recording is proven not to perturb the deterministic merge
      // (tests/core/test_trace_determinism.cpp), so the repro stays exact.
      pregel::trace::TraceConfig tc;
      tc.spans = true;
      tc.process_name = "chaos_soak seed=" + std::to_string(seed);
      pregel::trace::Tracer::instance().configure(tc);
    }
    std::string desc;
    const SeedOutcome out = run_seed(seed, opts.smoke, desc);
    if (out.ok) {
      setup_lost += out.setup_lost ? 1 : 0;
      std::cout << "SOAK-OK   seed=" << seed << " " << desc << " | " << out.stats
                << "\n";
    } else {
      ++failures;
      std::cout << "SOAK-FAIL seed=" << seed << " " << desc << " | " << out.detail
                << "\n          repro: chaos_soak --seed " << seed
                << (opts.smoke ? " --smoke" : "") << "\n";
      if (!opts.trace_dir.empty()) {
        const std::string path =
            opts.trace_dir + "/TRACE_seed_" + std::to_string(seed) + ".json";
        std::ofstream f(path);
        pregel::trace::Tracer::instance().write_chrome_trace(f);
        std::cout << "          trace: " << path << "\n";
      }
    }
  }
  std::cout << (failures == 0 ? "SOAK PASS" : "SOAK FAIL") << ": "
            << (seeds.size() - static_cast<std::size_t>(failures + setup_lost)) << "/"
            << seeds.size() << " seeds bit-identical to baseline, " << setup_lost
            << " setup-lost\n";
  return failures == 0 ? 0 : 1;
}
