// Observability must be observation-only: running a job with tracing enabled
// must produce bit-identical vertex values and metric records to the same job
// untraced, at every host parallelism level. This is the guarantee that lets
// traces be captured in production runs without invalidating the determinism
// contract of the staged merge. The traced runs must also show their compute
// phase: one engine.compute span per frontier chunk (vertex programs) or per
// active partition (subgraph programs), and their modeled-cluster tracks must
// be the metric tables' modeled rows.
#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <regex>
#include <sstream>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <variant>
#include <vector>

#include "algos/pagerank.hpp"
#include "algos/sssp.hpp"
#include "core/engine.hpp"
#include "graph/generators.hpp"
#include "partition/partitioner.hpp"
#include "runtime/metric_fields.hpp"
#include "runtime/trace.hpp"
#include "subgraph/components.hpp"
#include "support/determinism.hpp"
#include "support/json_parser.hpp"

namespace pregel {
namespace {

using algos::PageRankProgram;
using algos::SsspProgram;
using subgraph::ComponentsSubgraphProgram;

void trace_all_on() {
  trace::TraceConfig cfg;
  cfg.spans = true;
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

/// A numeric metric value as the trace exports it (text has no track).
double as_number(const MetricValue& v) {
  return std::visit(
      [](auto x) -> double {
        if constexpr (std::is_same_v<decltype(x), std::string_view>)
          return -1.0;
        else
          return static_cast<double>(x);
      },
      v);
}

// The modeled cluster (pid 2) is drawn from the metric tables: one counter
// sample per superstep for each modeled kSuperstepFields row, equal to the
// returned record, no track for host-only rows, and each worker VM's busy
// span carrying its modeled kWorkerFields rows. Direction-optimized SSSP
// mixes push and pull supersteps, so pull_mode samples both values.
TEST(TraceDeterminism, ModeledTracksFollowTheMetricTables) {
  const Graph g = barabasi_albert(600, 4, 2013);
  JobOptions o;
  o.roots = {0};
  o.direction.mode = DirectionOptions::Mode::kAuto;
  for (const std::uint32_t lanes : {1u, 4u}) {
    trace_off();
    const auto plain = run_job(g, SsspProgram{}, o, lanes);
    trace_all_on();
    const auto traced = run_job(g, SsspProgram{}, o, lanes);
    std::ostringstream out;
    trace::Tracer::instance().write_chrome_trace(out);
    trace_off();
    ASSERT_FALSE(traced.failed);
    const std::vector<SuperstepMetrics>& steps = traced.metrics.supersteps;
    EXPECT_GT(traced.metrics.pull_supersteps, 0u) << "lanes " << lanes;
    EXPECT_LT(traced.metrics.pull_supersteps, steps.size()) << "lanes " << lanes;

    // Busy spans come superstep by superstep, worker by worker.
    std::vector<std::pair<const SuperstepMetrics*, std::uint32_t>> busy;
    for (const SuperstepMetrics& sm : steps)
      for (std::uint32_t w = 0; w < sm.workers.size(); ++w) busy.emplace_back(&sm, w);
    std::size_t spans = 0;
    std::map<std::string, std::vector<double>> samples;
    const test::JsonValue doc = test::JsonParser(out.str()).parse();
    for (const test::JsonValue& e : doc.at("traceEvents").array()) {
      if (e.at("pid").number() != trace::Tracer::kVirtualPid) continue;
      if (e.at("ph").str() == "C")
        samples[e.at("name").str()].push_back(e.at("args").at("value").number());
      if (e.at("ph").str() != "X" || e.at("name").str() != "compute+network") continue;
      ASSERT_LT(spans, busy.size());
      const auto [sm, w] = busy[spans++];
      ASSERT_EQ(e.at("tid").number(), static_cast<double>(w));
      const test::JsonValue& args = e.at("args");
      EXPECT_EQ(args.at("superstep").number(), static_cast<double>(sm->superstep));
      for (const auto& f : kWorkerFields) {
        if (f.coverage != Coverage::modeled) continue;
        ASSERT_TRUE(args.has(std::string(f.name))) << f.name;
        EXPECT_EQ(args.at(std::string(f.name)).number(), as_number(f.read(sm->workers[w], w)))
            << f.name << " superstep " << sm->superstep << " worker " << w;
      }
    }
    EXPECT_EQ(spans, busy.size()) << "lanes " << lanes;

    EXPECT_EQ(samples.count("steals"), 0u);
    EXPECT_EQ(samples.count("stolen_chunks"), 0u);
    std::size_t tracks = 0;
    for (const auto& f : kSuperstepFields) {
      if (f.coverage != Coverage::modeled) continue;
      ++tracks;
      const std::vector<double>& got = samples[std::string(f.name)];
      ASSERT_EQ(got.size(), steps.size()) << f.name << " lanes " << lanes;
      for (std::size_t s = 0; s < steps.size(); ++s)
        EXPECT_EQ(got[s], as_number(f.read(steps[s]))) << f.name << " superstep " << s;
    }
    EXPECT_EQ(samples.size(), tracks);

    ASSERT_EQ(plain.values.size(), traced.values.size());
    for (std::size_t v = 0; v < plain.values.size(); ++v)
      EXPECT_EQ(plain.values[v].distance, traced.values[v].distance) << "v" << v;
    EXPECT_EQ(first_modeled_difference(plain.metrics, traced.metrics), "");
  }
}

}  // namespace
}  // namespace pregel
