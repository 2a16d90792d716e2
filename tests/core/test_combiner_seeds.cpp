// Regression coverage for combining around seeds. inject_seed once appended
// a seed message to a vertex's inbox without the matching source-VM entry,
// desyncing the parallel arrays the combiner scan walked. Each arrival in
// the flat inbox (core/inbox.hpp) now carries its own source domain, so the
// desync cannot recur; these tests run every root-seeded algorithm with the
// combiner enabled and pin the results against combiner-off runs, and the
// InboxArena cases pin the combiner lookup itself: first match in arrival
// order by (source domain, key), per target, with seeds never matching.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <vector>

#include "algos/apsp.hpp"
#include "algos/bc.hpp"
#include "algos/sssp.hpp"
#include "core/engine.hpp"
#include "core/inbox.hpp"
#include "graph/generators.hpp"
#include "partition/partitioner.hpp"

namespace pregel {
namespace {

using algos::ApspProgram;
using algos::BcProgram;
using algos::SsspProgram;

ClusterConfig small_cluster() {
  ClusterConfig c;
  c.num_partitions = 6;
  c.initial_workers = 3;
  return c;
}

TEST(CombinerSeeds, SsspFromSeededRootWithCombiner) {
  const Graph g = watts_strogatz(400, 6, 0.15, 71);
  const ClusterConfig c = small_cluster();
  const auto parts = HashPartitioner{}.partition(g, c.num_partitions);

  for (VertexId source : {VertexId{0}, VertexId{137}, VertexId{399}}) {
    const auto plain = algos::run_sssp(g, c, parts, source, /*use_combiner=*/false);
    const auto combined = algos::run_sssp(g, c, parts, source, /*use_combiner=*/true);
    ASSERT_FALSE(combined.failed);
    EXPECT_EQ(combined.values[source].distance, 0u);
    for (std::size_t v = 0; v < plain.values.size(); ++v)
      EXPECT_EQ(plain.values[v].distance, combined.values[v].distance)
          << "source " << source << " vertex " << v;
  }
}

// Multi-swath APSP injects fresh seeds at barriers throughout the run — the
// sustained version of the desync scenario: every swath appends seed
// messages to inboxes the combiner scan will walk.
TEST(CombinerSeeds, ApspMultiSwathWithCombiner) {
  const Graph g = barabasi_albert(250, 3, 73);
  const ClusterConfig c = small_cluster();
  const auto parts = HashPartitioner{}.partition(g, c.num_partitions);

  std::vector<VertexId> roots;
  for (VertexId r = 0; r < 32; ++r) roots.push_back(r * 5 % 250);
  const SwathPolicy swath = SwathPolicy::make(std::make_shared<StaticSwathSizer>(8),
                                              std::make_shared<StaticNInitiation>(2), 0);

  Engine<ApspProgram> plain_engine(g, {}, c, parts);
  JobOptions o;
  o.roots = roots;
  o.swath = swath;
  o.use_combiner = false;
  const auto plain = plain_engine.run(o);

  Engine<ApspProgram> combined_engine(g, {}, c, parts);
  o.use_combiner = true;
  const auto combined = combined_engine.run(o);

  ASSERT_FALSE(combined.failed);
  EXPECT_EQ(combined.roots_completed, roots.size());
  EXPECT_EQ(combined.roots_completed, plain.roots_completed);
  ASSERT_EQ(plain.values.size(), combined.values.size());
  for (std::size_t v = 0; v < plain.values.size(); ++v)
    for (VertexId root : roots)
      EXPECT_EQ(plain.values[v].distance_from(root), combined.values[v].distance_from(root))
          << "vertex " << v << " root " << root;
}

// BC defines no combiner, so use_combiner must be inert for it — but the
// engine still routes seeds through the combiner-aware bookkeeping when the
// flag is set, which is exactly the code path the desync lived on.
TEST(CombinerSeeds, BcRootsWithCombinerFlagInert) {
  const Graph g = barabasi_albert(200, 3, 79);
  const ClusterConfig c = small_cluster();
  const auto parts = HashPartitioner{}.partition(g, c.num_partitions);

  std::vector<VertexId> roots{0, 11, 57, 123, 199};
  const SwathPolicy swath = SwathPolicy::make(std::make_shared<StaticSwathSizer>(2),
                                              std::make_shared<StaticNInitiation>(4), 0);

  JobOptions o;
  o.roots = roots;
  o.swath = swath;
  o.use_combiner = false;
  Engine<BcProgram> plain_engine(g, {}, c, parts);
  const auto plain = plain_engine.run(o);

  o.use_combiner = true;
  Engine<BcProgram> flagged_engine(g, {}, c, parts);
  const auto flagged = flagged_engine.run(o);

  ASSERT_FALSE(flagged.failed);
  EXPECT_EQ(flagged.roots_completed, roots.size());
  for (std::size_t v = 0; v < plain.values.size(); ++v)
    EXPECT_EQ(plain.values[v].bc_score, flagged.values[v].bc_score) << "vertex " << v;
}

// Seeds must never combine with worker traffic: a seed carries the manager
// sentinel as its source, so a same-key message from any VM still buffers
// separately. SSSP's seed (distance 0) decides the root's value — if a
// worker message merged into it the root could report a nonzero distance.
TEST(CombinerSeeds, SeedNeverMergesWithWorkerMessages) {
  // Cycle: the root receives worker messages (distance n-1 candidates from
  // its neighbors going the long way) in the same supersteps its own seed
  // sits buffered.
  const VertexId n = 60;
  GraphBuilder b(n, /*undirected=*/true);
  for (VertexId v = 0; v < n; ++v) b.add_edge(v, (v + 1) % n);
  const Graph g = b.build();
  const ClusterConfig c = small_cluster();
  const auto parts = HashPartitioner{}.partition(g, c.num_partitions);

  const auto r = algos::run_sssp(g, c, parts, /*source=*/0, /*use_combiner=*/true);
  EXPECT_EQ(r.values[0].distance, 0u);
  for (VertexId v = 0; v < n; ++v)
    EXPECT_EQ(r.values[v].distance, std::min(v, n - v)) << "vertex " << v;
}

struct Keyed {
  std::uint64_t key;
  int value;
};

constexpr auto key_of = [](const Keyed& m) { return m.key; };

// The lookup deliver() uses to combine: the first buffered arrival for the
// same target from the same source domain with the same key.
TEST(InboxArena, CombinerMatchIsFirstInArrivalOrder) {
  InboxArena<Keyed> arena;
  arena.reset(2, /*chains=*/true);
  arena.append(0, {7, 1}, /*src=*/2);
  arena.append(1, {7, 2}, /*src=*/2);  // another target: never a candidate
  arena.append(0, {9, 3}, /*src=*/2);  // another key
  arena.append(0, {7, 4}, /*src=*/3);  // another source domain
  arena.append(0, {7, 5}, /*src=*/2);  // a later duplicate
  Keyed* hit = arena.match(0, 2, 7, key_of);
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(hit->value, 1);
  EXPECT_EQ(arena.match(0, 4, 7, key_of), nullptr);
  EXPECT_EQ(arena.match(1, 2, 9, key_of), nullptr);
  hit->value += 100;  // combine in place, as deliver() does

  arena.seal();
  const auto box = arena.messages(0);
  ASSERT_EQ(box.size(), 4u);
  EXPECT_EQ(box[0].value, 101);
  EXPECT_EQ(box[1].value, 3);
  EXPECT_EQ(box[2].value, 4);
  EXPECT_EQ(box[3].value, 5);
  arena.drain();
  // Sealing starts fresh chains: nothing from the last log matches.
  EXPECT_EQ(arena.match(0, 2, 7, key_of), nullptr);
}

TEST(InboxArena, SeedNeverMatchesWorkerMessage) {
  InboxArena<Keyed> arena;
  arena.reset(1, /*chains=*/true);
  arena.append(0, {0, 10}, kSeedSource);
  for (std::uint8_t vm = 0; vm < kSeedSource; ++vm)
    EXPECT_EQ(arena.match(0, vm, 0, key_of), nullptr) << "vm " << int{vm};
  arena.append(0, {0, 20}, /*src=*/0);
  Keyed* worker = arena.match(0, 0, 0, key_of);
  ASSERT_NE(worker, nullptr);
  EXPECT_EQ(worker->value, 20);
  // Seeds are appended, never combined, so two of them stay two arrivals,
  // and a seed lookup finds the first.
  arena.append(0, {0, 30}, kSeedSource);
  EXPECT_EQ(arena.match(0, kSeedSource, 0, key_of)->value, 10);
  EXPECT_EQ(arena.arrivals(), 3u);
}

}  // namespace
}  // namespace pregel
