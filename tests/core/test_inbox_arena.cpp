// The flat per-partition inbox (core/inbox.hpp): an arrival log sealed into
// a CSR arena by a stable counting sort. Every sealed inbox must hold
// exactly what a per-vertex vector appended in delivery order would hold —
// the property the engine's bit-identity rests on — whichever path the seal
// takes and however the log and arena buffers are handed back and forth.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <random>
#include <span>
#include <vector>

#include "algos/sssp.hpp"
#include "core/engine.hpp"
#include "core/inbox.hpp"
#include "graph/generators.hpp"
#include "partition/partitioner.hpp"

namespace pregel {
namespace {

using Boxes = std::vector<std::vector<int>>;

void expect_sealed(const InboxArena<int>& arena, const Boxes& want) {
  ASSERT_EQ(arena.locals(), want.size());
  for (std::uint32_t l = 0; l < want.size(); ++l) {
    const std::span<const int> got = arena.messages(l);
    EXPECT_EQ(std::vector<int>(got.begin(), got.end()), want[l]) << "local " << l;
  }
}

TEST(InboxArena, OutOfOrderArrivalsKeepPerTargetDeliveryOrder) {
  InboxArena<int> arena;
  arena.reset(4, false);
  const std::uint32_t targets[] = {3, 1, 3, 0, 1, 3, 2, 0};
  Boxes want(4);
  for (int i = 0; i < 8; ++i) {
    arena.append(targets[i], 100 + i);
    want[targets[i]].push_back(100 + i);
  }
  arena.seal();
  EXPECT_EQ(arena.arrivals(), 0u);
  expect_sealed(arena, want);
}

TEST(InboxArena, SeedInjectedAfterDeliveriesLandsLast) {
  InboxArena<int> arena;
  arena.reset(3, false);
  arena.append(2, 1);
  arena.append(0, 2);
  arena.append(2, 3);
  arena.append(2, -1, kSeedSource);  // a barrier-time seed, after the merge
  arena.seal();
  expect_sealed(arena, {{2}, {}, {1, 3, -1}});
}

TEST(InboxArena, EmptyPartitionAndSilentVertices) {
  InboxArena<int> none;
  none.reset(0, false);
  none.seal();
  EXPECT_TRUE(none.drained());
  none.drain();

  InboxArena<int> quiet;
  quiet.reset(5, true);
  quiet.seal();
  expect_sealed(quiet, Boxes(5));
  quiet.drain();
  quiet.append(3, 7);
  quiet.seal();
  expect_sealed(quiet, {{}, {}, {}, {7}, {}});
}

TEST(InboxArena, SortedFastPathEqualsScatter) {
  // The same per-target sequences, once delivered target by target (the
  // count pass sees a sorted log and skips the scatter) and once
  // interleaved across targets.
  const Boxes want = {{5, 6}, {}, {7}, {8, 9, 10}};
  InboxArena<int> sorted, interleaved;
  sorted.reset(4, false);
  interleaved.reset(4, false);
  for (std::uint32_t l = 0; l < want.size(); ++l)
    for (const int m : want[l]) sorted.append(l, m);
  interleaved.append(3, 8);
  interleaved.append(0, 5);
  interleaved.append(3, 9);
  interleaved.append(2, 7);
  interleaved.append(0, 6);
  interleaved.append(3, 10);
  sorted.seal();
  interleaved.seal();
  expect_sealed(sorted, want);
  expect_sealed(interleaved, want);
}

// Many supersteps of random traffic against per-vertex reference vectors,
// in both buffer regimes: staged (nothing arrives between seal and drain)
// and direct delivery (the next log fills while compute reads the arena),
// with sorted and unsorted logs mixed so every hand-off between the two
// buffers is taken.
TEST(InboxArena, RandomTrafficMatchesPerVertexVectors) {
  constexpr std::uint32_t kLocals = 37;
  std::mt19937 rng(2013);
  for (const bool direct : {false, true}) {
    InboxArena<int> arena;
    arena.reset(kLocals, false);
    Boxes next(kLocals);
    int value = 0;
    const auto deliver = [&](std::size_t count, bool target_order) {
      std::vector<std::uint32_t> targets(count);
      for (auto& t : targets) t = static_cast<std::uint32_t>(rng() % kLocals);
      if (target_order) std::sort(targets.begin(), targets.end());
      for (const std::uint32_t t : targets) {
        arena.append(t, value);
        next[t].push_back(value++);
      }
    };
    deliver(50, false);
    for (int step = 0; step < 40; ++step) {
      arena.seal();
      Boxes cur(kLocals);
      cur.swap(next);
      const std::size_t traffic = rng() % 300;
      const bool target_order = rng() % 2 == 0;
      if (direct) deliver(traffic, target_order);
      expect_sealed(arena, cur);
      arena.drain();
      EXPECT_TRUE(arena.drained());
      if (!direct) deliver(traffic, target_order);
    }
  }
}

// The engine seals on the pool at more than one lane; one lane seals the
// same logs serially. Both must give the run the same inboxes.
TEST(InboxArena, EngineSealOnPoolMatchesOneLane) {
  const Graph g = barabasi_albert(800, 4, 29);
  ClusterConfig c;
  c.num_partitions = 8;
  c.initial_workers = 4;
  const auto parts = HashPartitioner{}.partition(g, c.num_partitions);
  std::vector<JobResult<algos::SsspProgram>> runs;
  for (const std::uint32_t lanes : {1u, 4u}) {
    JobOptions o;
    o.roots = {0};
    o.use_combiner = true;
    o.parallelism = lanes;
    Engine<algos::SsspProgram> e(g, {}, c, parts);
    runs.push_back(e.run(o));
    ASSERT_FALSE(runs.back().failed);
  }
  ASSERT_EQ(runs[0].values.size(), runs[1].values.size());
  for (std::size_t v = 0; v < runs[0].values.size(); ++v)
    EXPECT_EQ(runs[0].values[v].distance, runs[1].values[v].distance) << "vertex " << v;
  EXPECT_EQ(first_modeled_difference(runs[0].metrics, runs[1].metrics), "");
}

}  // namespace
}  // namespace pregel
