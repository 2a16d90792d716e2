#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <set>
#include <unordered_map>
#include <utility>

#include "partition/node_pool.hpp"

namespace pregel {
namespace {

// The multilevel partitioner's accumulator: integer keys and weights, nodes
// of one next pointer plus the pair.
using Value = std::pair<const std::uint32_t, std::uint32_t>;
constexpr std::size_t kSlot = sizeof(void*) + sizeof(Value);
using Pool = NodePool<kSlot>;
using Map = std::unordered_map<std::uint32_t, std::uint32_t, std::hash<std::uint32_t>,
                               std::equal_to<std::uint32_t>, PoolAllocator<Value, kSlot>>;

// More than two blocks' worth of nodes.
constexpr std::uint32_t kFill = 2 * Pool::kSlotsPerBlock + 100;

void fill(Map& m, std::uint32_t count, std::uint32_t first_key) {
  for (std::uint32_t k = 0; k < count; ++k) m[first_key + k] += k;
}

std::set<const void*> node_addresses(const Map& m) {
  std::set<const void*> out;
  for (const auto& kv : m) out.insert(&kv);
  return out;
}

TEST(NodePool, RefillAfterClearTakesNoNewBlock) {
  Pool pool;
  Map m{Map::allocator_type{pool}};
  fill(m, kFill, 0);
  const std::size_t blocks = pool.blocks();
  EXPECT_EQ(blocks, 3u);  // the nodes came from the pool
  m.clear();
  fill(m, kFill, 1'000'000);
  EXPECT_EQ(pool.blocks(), blocks);
  EXPECT_EQ(m.size(), kFill);
}

TEST(NodePool, ClearedNodesAreReused) {
  Pool pool;
  Map m{Map::allocator_type{pool}};
  fill(m, 500, 0);
  const auto before = node_addresses(m);
  m.clear();
  fill(m, 500, 7'000);
  EXPECT_EQ(node_addresses(m), before);
  // A smaller refill draws only on recycled nodes.
  m.clear();
  fill(m, 200, 0);
  for (const void* p : node_addresses(m)) EXPECT_TRUE(before.contains(p));
}

TEST(NodePool, NonNodeAllocationsBypassThePool) {
  Pool pool;
  Map m{Map::allocator_type{pool}};
  m.reserve(50'000);  // a bucket array only
  EXPECT_EQ(pool.blocks(), 0u);

  PoolAllocator<std::uint32_t, kSlot> ints{pool};
  std::uint32_t* array = ints.allocate(64);
  EXPECT_EQ(pool.blocks(), 0u);
  ints.deallocate(array, 64);

  struct Big {
    char bytes[kSlot + 1];
  };
  PoolAllocator<Big, kSlot> bigs{ints};
  Big* one = bigs.allocate(1);
  EXPECT_EQ(pool.blocks(), 0u);
  bigs.deallocate(one, 1);

  // A node-sized single object does come from the pool.
  void* slot = ints.allocate(1);
  EXPECT_EQ(pool.blocks(), 1u);
  ints.deallocate(static_cast<std::uint32_t*>(slot), 1);
}

TEST(NodePool, PooledMapMatchesPlainMapOrder) {
  Pool pool;
  Map pooled{Map::allocator_type{pool}};
  std::unordered_map<std::uint32_t, std::uint32_t> plain;
  // Grow past several bucket counts, clear, and refill with other keys.
  for (std::uint32_t round = 0; round < 3; ++round) {
    pooled.clear();
    plain.clear();
    for (std::uint32_t k = 0; k < 300 * (round + 1); ++k) {
      const std::uint32_t key = (k * 2654435761u) % 100'003u + round;
      pooled[key] += k;
      plain[key] += k;
    }
    ASSERT_EQ(pooled.bucket_count(), plain.bucket_count());
    auto it = plain.begin();
    for (const auto& [key, value] : pooled) {
      ASSERT_NE(it, plain.end());
      EXPECT_EQ(key, it->first);
      EXPECT_EQ(value, it->second);
      ++it;
    }
    EXPECT_EQ(it, plain.end());
  }
}

}  // namespace
}  // namespace pregel
