// Engine-level coverage for the memory-pressure governor: byte-transparency
// when idle, the degradation ladder (veto/clamp -> shed -> governed-OOM
// restore), peaks held to the budget across all three sizers, parked-root
// replay equivalence, and the sizer headroom re-clamps that keep stale
// estimates honest after a recovery moves baseline memory.
#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <memory>
#include <numeric>
#include <vector>

#include "algos/bc.hpp"
#include "graph/analysis.hpp"
#include "graph/generators.hpp"
#include "partition/partitioner.hpp"

namespace pregel {
namespace {

using algos::BcProgram;

MemGovernorConfig governed() {
  MemGovernorConfig cfg;
  cfg.enabled = true;
  return cfg;
}

Bytes peak_memory(const JobMetrics& m) {
  Bytes peak = 0;
  for (const auto& sm : m.supersteps) peak = std::max(peak, sm.max_worker_memory());
  return peak;
}

Bytes floor_memory(const JobMetrics& m) {
  Bytes low = std::numeric_limits<Bytes>::max();
  for (const auto& sm : m.supersteps) low = std::min(low, sm.max_worker_memory());
  return low;
}

std::size_t supersteps_over(const JobMetrics& m, Bytes budget) {
  std::size_t n = 0;
  for (const auto& sm : m.supersteps)
    if (sm.max_worker_memory() > budget) ++n;
  return n;
}

/// A BC workload with enough in-flight state that running every root at once
/// peaks far above the drained-tail floor — the shape the governor exists for.
class GovernorBc : public ::testing::Test {
 protected:
  GovernorBc()
      : g_(watts_strogatz(240, 6, 0.2, 11)),
        parts_(HashPartitioner{}.partition(g_, 4)),
        roots_(16) {
    std::iota(roots_.begin(), roots_.end(), VertexId{0});
    ref_ = reference_betweenness(g_, roots_);
    cluster_.num_partitions = 4;
    cluster_.initial_workers = 4;
  }

  SwathPolicy all_at_once(Bytes target) const {
    return SwathPolicy::make(
        std::make_shared<StaticSwathSizer>(static_cast<std::uint32_t>(roots_.size())),
        std::make_shared<SequentialInitiation>(), target);
  }

  JobResult<BcProgram> run(const SwathPolicy& policy, const ClusterConfig& c,
                           const MemGovernorConfig& gov = {}) {
    Engine<BcProgram> e(g_, {}, c, parts_);
    JobOptions o;
    o.roots = roots_;
    o.swath = policy;
    o.governor = gov;
    return e.run(o);
  }

  void expect_reference_scores(const JobResult<BcProgram>& r) {
    ASSERT_EQ(r.values.size(), g_.num_vertices());
    for (VertexId v = 0; v < g_.num_vertices(); ++v)
      ASSERT_NEAR(r.values[v].bc_score, ref_[v], 1e-6) << v;
  }

  /// Ungoverned all-at-once probe; establishes the pressure envelope
  /// [floor B, peak P] the governed runs are measured against.
  JobResult<BcProgram> probe() { return run(all_at_once(6_GiB), cluster_); }

  Graph g_;
  Partitioning parts_;
  std::vector<VertexId> roots_;
  std::vector<double> ref_;
  ClusterConfig cluster_;
};

TEST_F(GovernorBc, IdleGovernorIsByteTransparent) {
  // With a budget far above the workload's peak the governor must be pure
  // observation: identical values, identical modeled time, zero actions.
  const auto policy = SwathPolicy::make(std::make_shared<StaticSwathSizer>(4),
                                        std::make_shared<SequentialInitiation>(), 6_GiB);
  const auto off = run(policy, cluster_);
  const auto on = run(policy, cluster_, governed());
  ASSERT_FALSE(off.failed);
  ASSERT_FALSE(on.failed);
  // The one difference is the label: the governor's anchor checkpoint makes
  // the governed run recoverable, so it names its recovery mode.
  EXPECT_EQ(on.metrics.recovery_mode, "full-rollback");
  EXPECT_EQ(off.metrics.recovery_mode, "none");
  JobMetrics relabelled = on.metrics;
  relabelled.recovery_mode = off.metrics.recovery_mode;
  EXPECT_EQ(first_modeled_difference(relabelled, off.metrics), "");
  for (VertexId v = 0; v < g_.num_vertices(); ++v)
    ASSERT_DOUBLE_EQ(on.values[v].bc_score, off.values[v].bc_score) << v;
  EXPECT_EQ(on.metrics.governor_vetoes, 0u);
  EXPECT_EQ(on.metrics.governor_swath_clamps, 0u);
  EXPECT_EQ(on.metrics.governor_sheds, 0u);
  EXPECT_EQ(on.metrics.governor_spills, 0u);
  EXPECT_EQ(on.metrics.governed_oom_episodes, 0u);
}

TEST_F(GovernorBc, ShedParksRootsAndReplaysThemExactly) {
  const auto envelope = probe();
  ASSERT_FALSE(envelope.failed);
  const Bytes P = peak_memory(envelope.metrics);
  const Bytes B = floor_memory(envelope.metrics);
  ASSERT_GT(P, 3 * B) << "workload no longer generates memory pressure";
  const Bytes target = B + (P - B) / 3;

  // Spill disabled: the only relief for a hard-watermark breach is parking
  // in-flight roots and replaying them later.
  MemGovernorConfig cfg = governed();
  cfg.spill_enabled = false;
  const auto r = run(all_at_once(target), cluster_, cfg);
  ASSERT_FALSE(r.failed);
  EXPECT_EQ(r.roots_completed, roots_.size());
  EXPECT_GE(r.metrics.governor_sheds, 1u);
  EXPECT_GE(r.metrics.governor_roots_parked, 1u);
  EXPECT_GE(r.metrics.governor_roots_parked, r.metrics.governor_sheds);
  EXPECT_GE(r.metrics.replayed_supersteps, 1u);
  EXPECT_GT(r.metrics.governor_shed_time, 0.0);
  EXPECT_EQ(r.metrics.governor_spills, 0u);
  // Every recorded superstep above the budget is a breach the ladder
  // answered; the accepted trajectory stays at or below the target.
  EXPECT_LE(supersteps_over(r.metrics, target),
            static_cast<std::size_t>(r.metrics.governor_sheds +
                                     r.metrics.governed_oom_episodes));
  expect_reference_scores(r);
}

TEST_F(GovernorBc, HoldsPeakAtTargetAcrossAllThreeSizers) {
  const auto envelope = probe();
  ASSERT_FALSE(envelope.failed);
  const Bytes P = peak_memory(envelope.metrics);
  const Bytes B = floor_memory(envelope.metrics);
  ASSERT_GT(P, 3 * B);
  const Bytes target = B + (P - B) / 3;

  const std::vector<std::pair<std::string, std::shared_ptr<SwathSizer>>> sizers = {
      {"static", std::make_shared<StaticSwathSizer>(
                     static_cast<std::uint32_t>(roots_.size()))},
      {"sampling", std::make_shared<SamplingSwathSizer>(4, 2)},
      {"adaptive", std::make_shared<AdaptiveSwathSizer>(4)},
  };
  for (const auto& [name, sizer] : sizers) {
    const auto policy =
        SwathPolicy::make(sizer, std::make_shared<SequentialInitiation>(), target);
    const auto r = run(policy, cluster_, governed());
    ASSERT_FALSE(r.failed) << name;
    EXPECT_EQ(r.roots_completed, roots_.size()) << name;
    // Breaches may appear in the record (they trigger the ladder) but each
    // one must have been answered; the rest of the trajectory fits.
    EXPECT_LE(supersteps_over(r.metrics, target),
              static_cast<std::size_t>(r.metrics.governor_sheds +
                                       r.metrics.governed_oom_episodes))
        << name;
    EXPECT_LE(peak_memory(r.metrics), P) << name;
    if (r.metrics.governor_spills > 0) {
      EXPECT_GT(r.metrics.governor_spill_bytes, 0u) << name;
      EXPECT_GT(r.metrics.governor_spill_time, 0.0) << name;
    }
    expect_reference_scores(r);
  }
}

TEST_F(GovernorBc, OversizedStaticSwathEngagesTheGovernor) {
  // The all-at-once sizer under a tight budget must provoke at least one
  // ladder action (veto, clamp, spill, or shed) — the governor cannot sit
  // idle through a breach it is configured to answer.
  const auto envelope = probe();
  const Bytes P = peak_memory(envelope.metrics);
  const Bytes B = floor_memory(envelope.metrics);
  const Bytes target = B + (P - B) / 3;
  const auto r = run(all_at_once(target), cluster_, governed());
  ASSERT_FALSE(r.failed);
  EXPECT_GE(r.metrics.governor_vetoes + r.metrics.governor_swath_clamps +
                r.metrics.governor_sheds + r.metrics.governor_spills,
            1u);
  expect_reference_scores(r);
}

TEST_F(GovernorBc, GovernedOomRestoreCompletesWhereUngovernedJobDies) {
  const auto envelope = probe();
  ASSERT_FALSE(envelope.failed);
  const Bytes P = peak_memory(envelope.metrics);
  const Bytes B = floor_memory(envelope.metrics);
  ASSERT_GT(P, 3 * B);

  // Shrink the VM until the all-at-once swath crosses the 1.5x restart
  // threshold: the ungoverned run is killed by the fabric.
  ClusterConfig small = cluster_;
  small.vm.ram = P / 2;
  const Bytes target = small.vm.ram * 6 / 7;
  EXPECT_THROW(run(all_at_once(target), small), JobFailure);

  // Rung 3 alone (no spill, no shed): every thrash-restart becomes a
  // governed-OOM episode that halves the swath cap and replays.
  MemGovernorConfig cfg = governed();
  cfg.spill_enabled = false;
  cfg.shed_enabled = false;
  const auto r = run(all_at_once(target), small, cfg);
  ASSERT_FALSE(r.failed);
  EXPECT_GE(r.metrics.governed_oom_episodes, 1u);
  EXPECT_GE(r.metrics.replayed_supersteps, 1u);
  EXPECT_GT(r.metrics.recovery_time, 0.0);
  EXPECT_EQ(r.metrics.worker_failures, 0u);  // an episode, not a failure
  EXPECT_EQ(r.roots_completed, roots_.size());
  expect_reference_scores(r);
}

TEST_F(GovernorBc, GovernorComposesWithWorkerFailureRecovery) {
  const auto envelope = probe();
  const Bytes P = peak_memory(envelope.metrics);
  const Bytes B = floor_memory(envelope.metrics);
  const Bytes target = B + (P - B) / 3;

  ClusterConfig faulty = cluster_;
  faulty.checkpoint_interval = 3;
  faulty.scheduled_failures = {{5, 1}};
  const auto r = run(all_at_once(target), faulty, governed());
  ASSERT_FALSE(r.failed);
  EXPECT_EQ(r.metrics.worker_failures, 1u);
  EXPECT_GT(r.metrics.recovery_time, 0.0);
  EXPECT_EQ(r.roots_completed, roots_.size());
  expect_reference_scores(r);
}

TEST(SizerHeadroomClamp, SamplingReclampsStaleExtrapolationToCurrentBudget) {
  SamplingSwathSizer s(4, 1);
  SwathSizeSignals sig;
  sig.baseline_memory = 1_GiB;
  sig.memory_target = 6_GiB;
  sig.swath_index = 0;
  EXPECT_EQ(s.next_size(sig), 4u);

  // Sample observed 100 MiB/root: extrapolation = 5 GiB budget / 100 MiB.
  sig.swath_index = 1;
  sig.last_swath_size = 4;
  sig.peak_memory_last_swath = 1_GiB + 400_MiB;
  EXPECT_EQ(s.next_size(sig), 51u);

  // Recovery moved the baseline up (fewer VMs hold more graph): the cached
  // extrapolation must shrink to the new headroom, not replay 51.
  sig.swath_index = 2;
  sig.last_swath_size = 51;
  sig.baseline_memory = 4_GiB;
  EXPECT_EQ(s.next_size(sig), 20u);

  // Baseline at/above the target: no headroom, clamp to the minimum of 1.
  sig.swath_index = 3;
  sig.baseline_memory = 6_GiB;
  EXPECT_EQ(s.next_size(sig), 1u);
}

TEST(SizerHeadroomClamp, AdaptiveSmoothedOutputRespectsShrunkenBudget) {
  AdaptiveSwathSizer s(8, /*smoothing=*/0.5);
  SwathSizeSignals sig;
  sig.swath_index = 1;
  sig.last_swath_size = 8;
  sig.baseline_memory = 1_GiB;
  sig.memory_target = 9_GiB;
  sig.peak_memory_last_swath = 3_GiB;  // 256 MiB/root, budget 8 GiB
  const auto bold = s.next_size(sig);
  EXPECT_GT(bold, 8u);  // grows while under target

  // Budget collapses (baseline jumped after recovery): 1 GiB of headroom at
  // 256 MiB/root fits 4 roots. The EWMA's memory of the bold proposal must
  // not leak past the clamp.
  sig.swath_index = 2;
  sig.last_swath_size = bold;
  sig.baseline_memory = 8_GiB;
  sig.peak_memory_last_swath = 8_GiB + bold * 256_MiB;
  EXPECT_LE(s.next_size(sig), 4u);
}

}  // namespace
}  // namespace pregel
