// Allocator for the large flat buffers whose sizes follow message traffic
// (each partition's inbox, core/inbox.hpp).
//
// Blocks of kBulkMapBytes or more are mapped straight from the OS and
// unmapped when released. Through malloc, a released buffer of a few MiB
// stays resident in the malloc arena of whichever pool thread allocated it,
// where a later, differently sized buffer often does not fit, and the
// resident set creeps upward job after job.
#pragma once

#include <sys/mman.h>

#include <cstddef>
#include <new>

namespace pregel {

/// Blocks at least this large bypass malloc.
inline constexpr std::size_t kBulkMapBytes = std::size_t{1} << 20;

template <class T>
struct BulkAllocator {
  using value_type = T;

  BulkAllocator() noexcept = default;
  template <class U>
  BulkAllocator(const BulkAllocator<U>&) noexcept {}

  T* allocate(std::size_t n) {
    const std::size_t bytes = n * sizeof(T);
    if (bytes < kBulkMapBytes) return static_cast<T*>(::operator new(bytes));
    void* p = ::mmap(nullptr, bytes, PROT_READ | PROT_WRITE, MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
    if (p == MAP_FAILED) throw std::bad_alloc();
    return static_cast<T*>(p);
  }

  void deallocate(T* p, std::size_t n) noexcept {
    const std::size_t bytes = n * sizeof(T);
    if (bytes < kBulkMapBytes)
      ::operator delete(p);
    else
      ::munmap(p, bytes);
  }

  template <class U>
  bool operator==(const BulkAllocator<U>&) const noexcept {
    return true;
  }
};

}  // namespace pregel
