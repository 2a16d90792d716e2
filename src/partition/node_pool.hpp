// A recycling allocator for a node-based container that is filled and
// cleared over and over, such as the coarsening accumulator of the
// multilevel partitioner (multilevel.cpp).
//
// NodePool hands out fixed-size slots carved from blocks that live as long
// as the pool. A released slot goes onto an intrusive free list and is
// handed out again before any new slot is carved, so a container refilled to
// no more than its earlier size takes no new memory. PoolAllocator sends
// single-object allocations that fit a slot (a container's nodes) to the
// pool and every other request (bucket arrays, say) to std::allocator. The
// allocator does not change what the container does with the memory, so a
// pooled std::unordered_map keeps the bucket counts and iteration order of
// an unpooled one.
#pragma once

#include <cstddef>
#include <memory>
#include <vector>

namespace pregel {

template <std::size_t SlotBytes>
class NodePool {
 public:
  static constexpr std::size_t kSlotsPerBlock = 4096;

  NodePool() = default;
  NodePool(const NodePool&) = delete;
  NodePool& operator=(const NodePool&) = delete;

  void* take() {
    if (free_ != nullptr) {
      Slot* s = free_;
      free_ = s->next;
      return s;
    }
    if (carved_ == kSlotsPerBlock) {
      blocks_.push_back(std::make_unique_for_overwrite<Slot[]>(kSlotsPerBlock));
      carved_ = 0;
    }
    return &blocks_.back()[carved_++];
  }

  void give(void* p) noexcept {
    auto* s = static_cast<Slot*>(p);
    s->next = free_;
    free_ = s;
  }

  /// Blocks carved so far; a pool never returns one before it is destroyed.
  std::size_t blocks() const noexcept { return blocks_.size(); }

 private:
  union Slot {
    Slot* next;
    alignas(std::max_align_t) std::byte bytes[SlotBytes];
  };

  std::vector<std::unique_ptr<Slot[]>> blocks_;
  std::size_t carved_ = kSlotsPerBlock;  // slots used in blocks_.back()
  Slot* free_ = nullptr;
};

template <class T, std::size_t SlotBytes>
class PoolAllocator {
 public:
  using value_type = T;
  template <class U>
  struct rebind {
    using other = PoolAllocator<U, SlotBytes>;
  };

  explicit PoolAllocator(NodePool<SlotBytes>& pool) noexcept : pool_(&pool) {}
  template <class U>
  PoolAllocator(const PoolAllocator<U, SlotBytes>& other) noexcept : pool_(&other.pool()) {}

  T* allocate(std::size_t n) {
    return pooled(n) ? static_cast<T*>(pool_->take()) : std::allocator<T>{}.allocate(n);
  }
  void deallocate(T* p, std::size_t n) noexcept {
    if (pooled(n)) {
      pool_->give(p);
    } else {
      std::allocator<T>{}.deallocate(p, n);
    }
  }

  NodePool<SlotBytes>& pool() const noexcept { return *pool_; }

  template <class U>
  bool operator==(const PoolAllocator<U, SlotBytes>& other) const noexcept {
    return pool_ == &other.pool();
  }

 private:
  static constexpr bool pooled(std::size_t n) {
    return n == 1 && sizeof(T) <= SlotBytes && alignof(T) <= alignof(std::max_align_t);
  }

  NodePool<SlotBytes>* pool_;
};

}  // namespace pregel
