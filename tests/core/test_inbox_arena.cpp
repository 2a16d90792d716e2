// The flat per-partition inbox (core/inbox.hpp): an arrival log sealed into
// a CSR arena by a stable counting sort. Every sealed inbox must hold
// exactly what a per-vertex vector appended in delivery order would hold —
// the property the engine's bit-identity rests on — whichever path the seal
// takes, however the log and arena buffers are handed back and forth, and
// whether an arrival is an inline message or a reference to a record.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <random>
#include <span>
#include <utility>
#include <vector>

#include "algos/sssp.hpp"
#include "core/engine.hpp"
#include "core/inbox.hpp"
#include "graph/generators.hpp"
#include "partition/partitioner.hpp"

namespace pregel {
namespace {

using Boxes = std::vector<std::vector<int>>;

// Every case below that feeds only inline messages runs over both stores:
// the inline arena, whose log items are the messages, and the reference
// store, whose log items are slots naming its inline messages.
template <class Arena>
void expect_sealed(const Arena& arena, const Boxes& want) {
  ASSERT_EQ(arena.locals(), want.size());
  std::vector<int> scratch;
  for (std::uint32_t l = 0; l < want.size(); ++l) {
    const std::span<const int> got = arena.gather(l, scratch);
    EXPECT_EQ(std::vector<int>(got.begin(), got.end()), want[l]) << "local " << l;
  }
}

template <class F>
void for_both_layouts(F&& f) {
  {
    SCOPED_TRACE("inline layout");
    f(InboxArena<int>{});
  }
  {
    SCOPED_TRACE("reference layout");
    f(RefInboxArena<int>{});
  }
}

TEST(InboxArena, OutOfOrderArrivalsKeepPerTargetDeliveryOrder) {
  for_both_layouts([](auto arena) {
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
  });
}

TEST(InboxArena, SeedInjectedAfterDeliveriesLandsLast) {
  for_both_layouts([](auto arena) {
    arena.reset(3, false);
    arena.append(2, 1);
    arena.append(0, 2);
    arena.append(2, 3);
    arena.append(2, -1, kSeedSource);  // a barrier-time seed, after the merge
    arena.seal();
    expect_sealed(arena, {{2}, {}, {1, 3, -1}});
  });
}

TEST(InboxArena, EmptyPartitionAndSilentVertices) {
  for_both_layouts([](auto none) {
    auto quiet = none;
    none.reset(0, false);
    none.seal();
    EXPECT_TRUE(none.drained());
    none.drain();

    quiet.reset(5, true);
    quiet.seal();
    expect_sealed(quiet, Boxes(5));
    quiet.drain();
    quiet.append(3, 7);
    quiet.seal();
    expect_sealed(quiet, {{}, {}, {}, {7}, {}});
  });
}

TEST(InboxArena, SortedFastPathEqualsScatter) {
  // The same per-target sequences, once delivered target by target (the
  // log records no target and the seal takes it as it stands) and once
  // interleaved across targets (every arrival after the first records its
  // target, and the seal scatters them).
  for_both_layouts([](auto sorted) {
    const Boxes want = {{5, 6}, {}, {7}, {8, 9, 10}};
    auto interleaved = sorted;
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
  });
}

// A log that arrives grouped by target (a pull merge) and is then broken by
// a barrier-time seed and a push-style tail: the prefix is only counted,
// the tail records its targets, and each inbox still reads in arrival
// order. With chains on, the combiner lookup sees prefix and tail arrivals
// of a target as one chain, first in arrival order.
TEST(InboxArena, GroupedPrefixThenRecordedTailMatchesPerVertexVectors) {
  constexpr std::uint32_t kLocals = 19;
  for (const bool chains : {false, true}) {
    SCOPED_TRACE(chains ? "chains on" : "chains off");
    for_both_layouts([&](auto arena) {
      std::mt19937 rng(27);
      arena.reset(kLocals, chains);
      for (int step = 0; step < 20; ++step) {
        Boxes want(kLocals);
        int value = step * 1000;
        const auto deliver = [&](std::uint32_t t, std::uint8_t src) {
          arena.append(t, value, src);
          want[t].push_back(value++);
        };
        std::vector<std::uint32_t> prefix(rng() % 60);
        for (auto& t : prefix) t = static_cast<std::uint32_t>(rng() % kLocals);
        std::sort(prefix.begin(), prefix.end());
        for (const std::uint32_t t : prefix) deliver(t, 0);
        const auto seeded = static_cast<std::uint32_t>(rng() % kLocals);
        deliver(seeded, kSeedSource);
        const std::size_t tail = rng() % 40;
        for (std::size_t i = 0; i < tail; ++i)
          deliver(static_cast<std::uint32_t>(rng() % kLocals), static_cast<std::uint8_t>(1 + i % 2));

        std::vector<std::pair<std::uint32_t, int>> walked;
        arena.for_each_arrival([&](std::uint32_t l, std::size_t i) {
          walked.emplace_back(l, arena.arrival(i));
        });
        std::vector<std::pair<std::uint32_t, int>> want_walk;
        for (std::uint32_t l = 0; l < kLocals; ++l)
          for (const int m : want[l]) want_walk.emplace_back(l, m);
        std::sort(walked.begin(), walked.end());
        EXPECT_EQ(walked, want_walk) << "step " << step;
        if (chains) {
          const auto key_of = [](const int&) { return std::uint64_t{0}; };
          for (std::uint32_t l = 0; l < kLocals; ++l) {
            int* first = arena.match(l, kSeedSource, 0, key_of);
            ASSERT_EQ(first != nullptr, l == seeded) << "local " << l;
            if (first != nullptr) {
              const auto prefix_arrivals = std::count(prefix.begin(), prefix.end(), l);
              EXPECT_EQ(*first, want[l][static_cast<std::size_t>(prefix_arrivals)]);
            }
          }
        }
        arena.seal();
        expect_sealed(arena, want);
        arena.drain();
      }
    });
  }
}

// Many supersteps of random traffic against per-vertex reference vectors,
// in both buffer regimes: staged (nothing arrives between seal and drain)
// and direct delivery (the next log fills while compute reads the arena),
// with sorted and unsorted logs mixed so every hand-off between the two
// buffers is taken.
TEST(InboxArena, RandomTrafficMatchesPerVertexVectors) {
  constexpr std::uint32_t kLocals = 37;
  for_both_layouts([](auto fresh) {
    std::mt19937 rng(2013);
    for (const bool direct : {false, true}) {
      auto arena = fresh;
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
  });
}

// ---- the reference layout (RefInboxArena) ----------------------------------

using Rec = std::uint64_t;
using Table = std::shared_ptr<BulkVector<Rec>>;

Table table_of(std::vector<Rec> records) {
  return std::make_shared<BulkVector<Rec>>(records.begin(), records.end());
}

std::vector<Rec> gathered(const RefInboxArena<Rec>& arena, std::uint32_t local) {
  std::vector<Rec> out;
  const std::span<const Rec> box = arena.gather(local, out);
  return {box.begin(), box.end()};
}

void expect_sealed(const RefInboxArena<Rec>& arena, const std::vector<std::vector<Rec>>& want) {
  ASSERT_EQ(arena.locals(), want.size());
  for (std::uint32_t l = 0; l < want.size(); ++l)
    EXPECT_EQ(gathered(arena, l), want[l]) << "local " << l;
}

// Inline arrivals and references to a record table, mixed in any target
// order and followed now and then by a barrier-time seed, read back exactly
// as an inline arena fed the same messages does.
TEST(InboxArena, ReferenceArrivalsKeepInlineArenaOrder) {
  constexpr std::uint32_t kLocals = 23;
  constexpr std::uint32_t kRecords = 50;
  std::mt19937 rng(26);
  RefInboxArena<Rec> refs;
  InboxArena<Rec> inline_arena;
  refs.reset(kLocals, false);
  inline_arena.reset(kLocals, false);
  Rec fresh = 0;
  for (int step = 0; step < 40; ++step) {
    Table table = std::make_shared<BulkVector<Rec>>();
    for (std::uint32_t r = 0; r < kRecords; ++r) table->push_back(Rec{1'000'000} + static_cast<Rec>(step) * 100 + r);
    std::vector<std::uint32_t> targets(rng() % 200);
    for (auto& t : targets) t = static_cast<std::uint32_t>(rng() % kLocals);
    if (step % 3 != 0) std::sort(targets.begin(), targets.end());  // a pull merge
    for (const std::uint32_t t : targets) {
      if (rng() % 3 == 0) {
        refs.append(t, fresh);
        inline_arena.append(t, fresh++);
      } else {
        const auto r = static_cast<std::uint32_t>(rng() % kRecords);
        refs.append_ref(t, table, r);
        inline_arena.append(t, (*table)[r]);
      }
    }
    if (step % 4 == 1) {  // a seed after the merge
      const auto t = static_cast<std::uint32_t>(rng() % kLocals);
      refs.append(t, fresh, kSeedSource);
      inline_arena.append(t, fresh++, kSeedSource);
    }
    table.reset();  // the arena alone keeps the records now
    refs.seal();
    inline_arena.seal();
    EXPECT_EQ(refs.arrivals(), 0u);
    for (std::uint32_t l = 0; l < kLocals; ++l) {
      const std::span<const Rec> want = inline_arena.messages(l);
      EXPECT_EQ(gathered(refs, l), std::vector<Rec>(want.begin(), want.end()))
          << "step " << step << ", local " << l;
    }
    refs.drain();
    inline_arena.drain();
    EXPECT_TRUE(refs.drained());
  }
}

// The same per-target sequences, once delivered target by target (no
// target is recorded, and the seal takes the slots as they stand), once
// interleaved across targets (every target recorded, a scatter), and once
// grouped and then broken by a late arrival (a recorded tail behind the
// grouped prefix). The log walks its arrivals in delivery order either way.
TEST(InboxArena, GroupedReferenceSealEqualsScatterSeal) {
  const Table table = table_of({10, 11, 12, 13, 14, 15});
  const std::vector<std::vector<Rec>> want = {{10, 11}, {}, {12}, {13, 14, 15}};
  RefInboxArena<Rec> grouped, interleaved, broken;
  for (RefInboxArena<Rec>* a : {&grouped, &interleaved, &broken}) a->reset(4, false);
  const std::pair<std::uint32_t, std::uint32_t> in_order[] = {{0, 0}, {0, 1}, {2, 2},
                                                              {3, 3}, {3, 4}, {3, 5}};
  const std::pair<std::uint32_t, std::uint32_t> mixed[] = {{3, 3}, {0, 0}, {3, 4},
                                                           {2, 2}, {0, 1}, {3, 5}};
  const std::pair<std::uint32_t, std::uint32_t> late[] = {{0, 0}, {2, 2}, {3, 3},
                                                          {3, 4}, {0, 1}, {3, 5}};
  for (const auto& [t, r] : in_order) grouped.append_ref(t, table, r);
  for (const auto& [t, r] : mixed) interleaved.append_ref(t, table, r);
  for (const auto& [t, r] : late) broken.append_ref(t, table, r);

  const auto walk = [](const RefInboxArena<Rec>& a) {
    std::vector<std::pair<std::uint32_t, Rec>> out;
    a.for_each_arrival([&](std::uint32_t l, std::size_t i) { out.emplace_back(l, a.arrival(i)); });
    return out;
  };
  const auto delivered = [&](std::span<const std::pair<std::uint32_t, std::uint32_t>> order) {
    std::vector<std::pair<std::uint32_t, Rec>> out;
    for (const auto& [t, r] : order) out.emplace_back(t, (*table)[r]);
    return out;
  };
  EXPECT_EQ(walk(grouped), delivered(in_order));
  EXPECT_EQ(walk(interleaved), delivered(mixed));
  EXPECT_EQ(walk(broken), delivered(late));

  for (RefInboxArena<Rec>* a : {&grouped, &interleaved, &broken}) {
    a->seal();
    expect_sealed(*a, want);
  }
}

// A checkpoint snapshot copies the arena at a barrier. The run goes on: the
// source seals, drains and takes the next superstep's table, and the old
// table's only owner is the copy, which must still read its records.
TEST(InboxArena, CopiedReferenceArenaOutlivesRecycledRecords) {
  RefInboxArena<Rec> source;
  source.reset(3, false);
  Table records = table_of({7, 8, 9});
  source.append_ref(2, records, 0);
  source.append(1, 42);
  source.append_ref(2, records, 2);
  records.reset();  // the arena alone keeps the records now
  const RefInboxArena<Rec> snapshot = source;

  source.seal();
  expect_sealed(source, {{}, {42}, {7, 9}});
  source.drain();
  source.append_ref(0, table_of({70, 80, 90}), 1);
  source.seal();
  expect_sealed(source, {{80}, {}, {}});

  RefInboxArena<Rec> restored = snapshot;
  restored.seal();
  expect_sealed(restored, {{}, {42}, {7, 9}});

  // A migration re-homes arrivals one by one: references keep naming the
  // shared records, inline messages move.
  RefInboxArena<Rec> from = snapshot;
  RefInboxArena<Rec> to;
  to.reset(2, false);
  from.for_each_arrival([&](std::uint32_t l, std::size_t i) { to.append_from(from, i, l - 1); });
  to.seal();
  expect_sealed(to, {{42}, {7, 9}});
}

// Under a combiner every arrival is inline, and the match is the buffered
// message itself: combining into it changes what the sealed inbox reads.
TEST(InboxArena, ReferenceLayoutCombinesIntoInlineArrivals) {
  RefInboxArena<Rec> arena;
  arena.reset(2, /*chains=*/true);
  arena.append(1, 5, /*src=*/0);
  arena.append(0, 6, /*src=*/0);
  arena.append(1, 7, /*src=*/1);
  const auto key_of = [](const Rec&) { return std::uint64_t{0}; };
  Rec* hit = arena.match(1, 1, 0, key_of);
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(*hit, 7u);
  *hit += 100;
  EXPECT_EQ(arena.match(1, 2, 0, key_of), nullptr);
  arena.seal();
  expect_sealed(arena, {{6}, {5, 107}});
  arena.drain();
  EXPECT_EQ(arena.match(1, 0, 0, key_of), nullptr);
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
