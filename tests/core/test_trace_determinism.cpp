// Observability must be observation-only: running a job with tracing enabled
// (spans + counters) must produce bit-identical vertex values and metric
// records to the same job untraced, at every host parallelism level. This is
// the guarantee that lets traces be captured in production runs without
// invalidating the determinism contract of the staged merge. The traced runs
// must also show their compute phase: one engine.compute span per frontier
// chunk (vertex programs) or per active partition (subgraph programs).
#include <gtest/gtest.h>

#include <cstdint>
#include <regex>
#include <sstream>
#include <string>
#include <vector>

#include "algos/pagerank.hpp"
#include "algos/sssp.hpp"
#include "core/engine.hpp"
#include "graph/generators.hpp"
#include "partition/partitioner.hpp"
#include "runtime/trace.hpp"
#include "subgraph/components.hpp"
#include "support/determinism.hpp"

namespace pregel {
namespace {

using algos::PageRankProgram;
using algos::SsspProgram;
using subgraph::ComponentsSubgraphProgram;

void trace_all_on() {
  trace::TraceConfig cfg;
  cfg.spans = true;
  cfg.counters = true;
  cfg.process_name = "test_trace_determinism";
  trace::Tracer::instance().configure(cfg);
}

void trace_off() { trace::Tracer::instance().configure(trace::TraceConfig{}); }

// Counts the engine.compute spans recorded so far, expecting each one's args
// to match `args` (the exporter writes one event per line).
std::size_t count_compute_spans(const std::regex& args) {
  std::ostringstream out;
  trace::Tracer::instance().write_chrome_trace(out);
  std::istringstream lines(out.str());
  std::size_t spans = 0;
  for (std::string line; std::getline(lines, line);) {
    if (line.find("\"engine.compute\"") == std::string::npos) continue;
    ++spans;
    EXPECT_TRUE(std::regex_search(line, args)) << line;
  }
  return spans;
}

const std::regex kChunkArgs(R"re("args":\{"part":[0-9]+,"chunk":[0-9]+\})re");
const std::regex kPartitionArgs(R"re("args":\{"part":[0-9]+\})re");

template <typename Program>
JobResult<Program> run_job(const Graph& g, const Program& program, JobOptions o,
                           std::uint32_t parallelism) {
  const ClusterConfig c = eight_partitions_four_vms();
  const auto parts = HashPartitioner{}.partition(g, c.num_partitions);
  Engine<Program> e(g, program, c, parts);
  o.parallelism = parallelism;
  return e.run(o);
}

template <typename Program, typename ValueEq>
void expect_traced_equals_untraced(const Graph& g, const Program& program,
                                   const JobOptions& o, ValueEq value_eq,
                                   const std::regex& compute_args = kChunkArgs) {
  for (const std::uint32_t lanes : {1u, 2u, 4u}) {
    trace_off();
    const auto plain = run_job(g, program, o, lanes);

    trace_all_on();
    const auto traced = run_job(g, program, o, lanes);
    EXPECT_GT(trace::Tracer::instance().event_count(), 0u) << "tracing was not live";
    EXPECT_GT(count_compute_spans(compute_args), 0u) << "lanes " << lanes;
    trace_off();

    ASSERT_EQ(plain.values.size(), traced.values.size()) << "lanes " << lanes;
    for (std::size_t v = 0; v < plain.values.size(); ++v)
      EXPECT_TRUE(value_eq(plain.values[v], traced.values[v]))
          << "lanes " << lanes << " v" << v;
    EXPECT_EQ(first_modeled_difference(plain.metrics, traced.metrics), "");
  }
}

TEST(TraceDeterminism, PageRankUnperturbedAcrossLaneCounts) {
  const Graph g = barabasi_albert(500, 3, 29);
  JobOptions o;
  o.start_all_vertices = true;
  expect_traced_equals_untraced(g, PageRankProgram{6, 0.85}, o,
                                [](const auto& a, const auto& b) { return a.rank == b.rank; });
}

TEST(TraceDeterminism, SsspUnperturbedAcrossLaneCounts) {
  const Graph g = barabasi_albert(400, 4, 31);
  JobOptions o;
  o.roots = {0};
  o.use_combiner = true;
  expect_traced_equals_untraced(g, SsspProgram{}, o,
                                [](const auto& a, const auto& b) {
                                  return a.distance == b.distance;
                                });
}

TEST(TraceDeterminism, SubgraphComponentsUnperturbedAcrossLaneCounts) {
  const Graph g = barabasi_albert(400, 3, 37);
  JobOptions o;
  o.start_all_vertices = true;
  expect_traced_equals_untraced(
      g, ComponentsSubgraphProgram{}, o,
      [](const auto& a, const auto& b) { return a.label == b.label; }, kPartitionArgs);
}

}  // namespace
}  // namespace pregel
