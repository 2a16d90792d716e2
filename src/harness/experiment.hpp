// Shared experiment scaffolding for the bench binaries.
//
// Every bench reproduces one table or figure of the paper on the dataset
// analogs. This module centralizes: environment knobs (scale, quick mode,
// results directory), the calibrated experiment cluster (RAM envelope that
// recreates the paper's 7 GB / 6 GB-target regime at analog scale), dataset
// caching, root selection, partitioner construction, and CSV emission.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "core/config.hpp"
#include "graph/graph.hpp"
#include "partition/partitioner.hpp"
#include "util/csv.hpp"

namespace pregel::harness {

struct ExperimentEnv {
  /// Dataset reduction factor vs the paper's graphs (PREGEL_SCALE_DIV, default 10).
  unsigned scale_div = 10;
  /// PREGEL_QUICK=1: much smaller graphs / fewer roots for smoke runs.
  bool quick = false;
  /// --smoke / PREGEL_SMOKE=1: CI-sized runs — implies quick, shrinks the
  /// datasets a further 2x (scale_div 100 unless overridden), and callers
  /// with repetition loops drop to 1 repetition.
  bool smoke = false;
  /// Where CSVs land (PREGEL_RESULTS_DIR, default "results").
  std::string results_dir = "results";
  /// Base RNG seed (PREGEL_SEED, default 2013 — the year of the paper).
  std::uint64_t seed = 2013;
};

/// Read the environment once per process.
const ExperimentEnv& env();

/// Shared bench-driver entry point; call first in main(), before env() or
/// dataset(). Strips the flags every driver understands from argv:
///   --smoke          CI smoke mode (see ExperimentEnv::smoke)
///   --trace[=path]   record a Chrome trace-event timeline, written at exit
///                    to `path` (default results_dir/TRACE_<program>.json).
///                    PREGEL_TRACE=1|path is equivalent.
/// Unrecognized arguments are left in place for the driver.
void init(int& argc, char** argv);

/// Repetition count for timing loops: 1 in smoke mode, else `normal`.
std::size_t repetitions(std::size_t normal);

/// Generate (and cache per process) the analog of a paper dataset.
const Graph& dataset(const std::string& short_name);

/// The experiment worker VM: Azure Large with its RAM envelope scaled so the
/// analog-scale BC workload reproduces the paper's memory-pressure regime
/// (baseline swaths of a few tens of roots spill; ~6/7 of RAM is the
/// heuristics' target). Calibrated once for scale_div=10 and scaled
/// proportionally for other divisors; see EXPERIMENTS.md.
cloud::VmSpec experiment_vm(const ExperimentEnv& e);

/// Per-worker memory target handed to swath heuristics: 6/7 of VM RAM,
/// mirroring the paper's "6 GB threshold on 7 GB VMs".
Bytes memory_target(const cloud::VmSpec& vm);

/// Standard memory-pressure governor for the experiment regime: enabled,
/// soft watermark at 85% of the swath memory target, hard at 100%, spilling
/// and load shedding on. Pair with a SwathPolicy whose memory_target is set
/// (the governor budgets against it).
MemGovernorConfig default_governor();

/// Standard cluster: `partitions` logical partitions on `workers` VMs.
ClusterConfig make_cluster(const ExperimentEnv& e, std::uint32_t partitions,
                           std::uint32_t workers);

/// Deterministic traversal roots spread across the id space.
std::vector<VertexId> pick_roots(const Graph& g, std::size_t count, std::uint64_t seed);

/// Partitioner factory: "hash" | "metis" | "stream".
std::unique_ptr<Partitioner> make_partitioner(const std::string& name,
                                              std::uint64_t seed = 1);

/// Open results_dir/<name>.csv (creating the directory) and hand the writer
/// to `fill`; prints the file path to stdout.
void write_csv(const std::string& name, const std::function<void(CsvWriter&)>& fill);

/// Bench banner: figure id + what the paper reported.
void banner(const std::string& figure, const std::string& paper_claim);

/// Extrapolate a sampled root-parallel run to the full |V| roots, the way
/// the paper extrapolates its 4-hour runs: per-root time x total roots
/// (setup excluded from scaling).
Seconds extrapolate_total_time(const JobMetrics& metrics, std::size_t roots_run,
                               std::size_t roots_total);

}  // namespace pregel::harness
