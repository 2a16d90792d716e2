// Ablation: vertex-centric vs subgraph-centric compute models.
//
// The subgraph model (docs/SUBGRAPH.md) runs a sequential algorithm to local
// convergence inside each partition per superstep, so a traversal pays one
// barrier per *meta-graph* hop instead of one per graph hop, and boundary
// traffic shrinks to the final cut crossings. How much that buys depends
// entirely on the partitioning: hash layouts cut almost every arc and leave
// little internal work to converge; METIS-like layouts hand each partition a
// contiguous patch the local solver crosses in one barrier.
//
// Setup: SSSP and Components, vertex vs subgraph model, hash vs METIS-like
// partitions. Reported per cell: superstep count, cross-partition message
// bytes, modeled time. A second table pits the reactive activity-greedy
// migration planner against the predictive meta-graph planner under the
// subgraph model. Results are asserted bit-identical between models per
// (workload, partitioning) before anything is reported.
#include <cstdlib>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "algos/components.hpp"
#include "algos/sssp.hpp"
#include "harness/bench_report.hpp"
#include "harness/experiment.hpp"
#include "partition/meta_graph.hpp"
#include "partition/multilevel.hpp"
#include "partition/partitioner.hpp"
#include "partition/rebalance.hpp"
#include "subgraph/components.hpp"
#include "subgraph/sssp.hpp"

using namespace pregel;
using namespace pregel::harness;

namespace {

std::uint64_t remote_bytes(const JobMetrics& m) {
  std::uint64_t bytes = 0;
  for (const auto& ss : m.supersteps)
    for (const auto& w : ss.workers) bytes += w.bytes_sent_remote;
  return bytes;
}

struct Cell {
  std::string workload, model, partitioner;
  std::uint64_t supersteps;
  std::uint64_t bytes;
  Seconds total;
};

}  // namespace

int main(int argc, char** argv) {
  harness::init(argc, argv);
  banner("Ablation — vertex-centric vs subgraph-centric compute model",
         "per-partition local convergence trades supersteps (one per "
         "meta-graph hop, not one per graph hop) against internal sequential "
         "work; METIS-like layouts amplify the win, hash layouts shrink it");

  const Graph& g = dataset("CP");
  const std::uint32_t partitions = 16, workers = 4;
  const ClusterConfig base = make_cluster(env(), partitions, workers);
  const VertexId source = 0;

  MultilevelPartitioner::Options mo;
  mo.seed = env().seed;
  const auto metis_like = MultilevelPartitioner{mo}.partition(g, partitions);
  const auto hashed = HashPartitioner{}.partition(g, partitions);

  BenchReport report("ablation_model");
  TextTable t({"workload", "model", "partitioner", "supersteps", "remote MiB",
               "modeled time"});
  std::vector<Cell> cells;
  auto record = [&](const std::string& workload, const std::string& model,
                    const std::string& pname, const JobMetrics& m) {
    Cell c{workload, model, pname, m.supersteps.size(), remote_bytes(m),
           m.total_time};
    cells.push_back(c);
    t.add_row({c.workload, c.model, c.partitioner, std::to_string(c.supersteps),
               fmt(static_cast<double>(c.bytes) / (1024.0 * 1024.0), 2),
               format_seconds(c.total)});
    const std::string series = workload + "/" + model + "/" + pname;
    report.add_sample(series, m.total_time);
    report.set_series_counter(series, "supersteps",
                              static_cast<double>(c.supersteps));
    report.set_series_counter(series, "remote_bytes",
                              static_cast<double>(c.bytes));
  };

  for (const auto* pr : {&hashed, &metis_like}) {
    const std::string pname = (pr == &hashed) ? "hash" : "metis-like";

    const auto sssp_v = algos::run_sssp(g, base, *pr, source);
    const auto sssp_s = subgraph::run_sssp_subgraph(g, base, *pr, source);
    for (VertexId v = 0; v < g.num_vertices(); ++v) {
      if (sssp_v.values[v].distance != sssp_s.values[v].distance) {
        std::cerr << "MODEL-DIVERGENCE sssp/" << pname << " vertex " << v << "\n";
        return 1;
      }
    }
    record("sssp", "vertex", pname, sssp_v.metrics);
    record("sssp", "subgraph", pname, sssp_s.metrics);

    const auto cc_v = algos::run_components(g, base, *pr);
    const auto cc_s = subgraph::run_components_subgraph(g, base, *pr);
    for (VertexId v = 0; v < g.num_vertices(); ++v) {
      if (cc_v.values[v].label != cc_s.values[v].label) {
        std::cerr << "MODEL-DIVERGENCE components/" << pname << " vertex " << v
                  << "\n";
        return 1;
      }
    }
    record("components", "vertex", pname, cc_v.metrics);
    record("components", "subgraph", pname, cc_s.metrics);
  }
  t.print(std::cout);

  auto cell = [&cells](const std::string& w, const std::string& m,
                       const std::string& p) -> const Cell& {
    for (const auto& c : cells)
      if (c.workload == w && c.model == m && c.partitioner == p) return c;
    return cells.front();
  };
  for (const std::string w : {"sssp", "components"}) {
    const Cell& v = cell(w, "vertex", "metis-like");
    const Cell& s = cell(w, "subgraph", "metis-like");
    std::cout << "\n" << w << " on metis-like: " << v.supersteps << " -> "
              << s.supersteps << " supersteps, "
              << fmt(static_cast<double>(v.bytes) / (1024.0 * 1024.0), 2)
              << " -> " << fmt(static_cast<double>(s.bytes) / (1024.0 * 1024.0), 2)
              << " MiB across the cut\n";
  }

  // Planner face-off under the subgraph model: reactive (move load the
  // barrier after it piled up) vs predictive (move the forecast next wave).
  TextTable pt({"planner", "supersteps", "modeled time", "migrations",
                "moved MiB"});
  for (const bool predictive : {false, true}) {
    ClusterConfig c = base;
    c.migration.planner =
        predictive
            ? std::shared_ptr<MigrationPlanner>(std::make_shared<MetaGraphPlanner>(0.1))
            : std::shared_ptr<MigrationPlanner>(
                  std::make_shared<ActivityGreedyPlanner>(0.1));
    c.migration.period = 1;
    const auto r = subgraph::run_sssp_subgraph(g, c, metis_like, source);
    const std::string name = predictive ? "meta-graph" : "activity-greedy";
    pt.add_row({name, std::to_string(r.metrics.supersteps.size()),
                format_seconds(r.metrics.total_time),
                std::to_string(r.metrics.migrations),
                fmt(static_cast<double>(r.metrics.migrated_bytes) /
                        (1024.0 * 1024.0),
                    1)});
    report.add_sample("planner/" + name, r.metrics.total_time);
    report.set_series_counter("planner/" + name, "migrated_bytes",
                              static_cast<double>(r.metrics.migrated_bytes));
  }
  std::cout << "\n";
  pt.print(std::cout);

  write_csv("ablation_model", [&](CsvWriter& w) {
    w.header({"workload", "model", "partitioner", "supersteps", "remote_bytes",
              "modeled_seconds"});
    for (const auto& c : cells)
      w.field(c.workload).field(c.model).field(c.partitioner)
          .field(c.supersteps).field(c.bytes).field(c.total).end_row();
  });
  report.write_file(env().results_dir + "/BENCH_ablation_model.json");
  return 0;
}
