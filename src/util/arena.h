// Arena: bump-pointer allocator backing the memtable skiplist. All memory is
// freed at once when the arena is destroyed. A spinlock serializes the bump
// pointer so concurrent skiplist inserts can allocate safely; uncontended,
// the lock costs a couple of atomic operations.
#ifndef TALUS_UTIL_ARENA_H_
#define TALUS_UTIL_ARENA_H_

#include <atomic>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

namespace talus {

class Arena {
 public:
  Arena() : alloc_ptr_(nullptr), alloc_bytes_remaining_(0), memory_usage_(0) {}
  Arena(const Arena&) = delete;
  Arena& operator=(const Arena&) = delete;

  char* Allocate(size_t bytes) {
    assert(bytes > 0);
    SpinGuard guard(lock_);
    if (bytes <= alloc_bytes_remaining_) {
      char* result = alloc_ptr_;
      alloc_ptr_ += bytes;
      alloc_bytes_remaining_ -= bytes;
      return result;
    }
    return AllocateFallback(bytes);
  }

  /// Allocation with the alignment guarantees of malloc (8/16 bytes).
  char* AllocateAligned(size_t bytes) {
    const int align = (sizeof(void*) > 8) ? sizeof(void*) : 8;
    SpinGuard guard(lock_);
    size_t current_mod = reinterpret_cast<uintptr_t>(alloc_ptr_) & (align - 1);
    size_t slop = (current_mod == 0 ? 0 : align - current_mod);
    size_t needed = bytes + slop;
    char* result;
    if (needed <= alloc_bytes_remaining_) {
      result = alloc_ptr_ + slop;
      alloc_ptr_ += needed;
      alloc_bytes_remaining_ -= needed;
    } else {
      result = AllocateFallback(bytes);
    }
    assert((reinterpret_cast<uintptr_t>(result) & (align - 1)) == 0);
    return result;
  }

  /// Total memory allocated by the arena (block granularity).
  size_t MemoryUsage() const {
    return memory_usage_.load(std::memory_order_relaxed);
  }

 private:
  static constexpr size_t kBlockSize = 4096;

  struct SpinGuard {
    explicit SpinGuard(std::atomic_flag& f) : flag(f) {
      while (flag.test_and_set(std::memory_order_acquire)) {
      }
    }
    ~SpinGuard() { flag.clear(std::memory_order_release); }
    std::atomic_flag& flag;
  };

  // REQUIRES: lock_ held.
  char* AllocateFallback(size_t bytes) {
    if (bytes > kBlockSize / 4) {
      // Large objects get their own block to avoid wasting the current one.
      return AllocateNewBlock(bytes);
    }
    alloc_ptr_ = AllocateNewBlock(kBlockSize);
    alloc_bytes_remaining_ = kBlockSize;
    char* result = alloc_ptr_;
    alloc_ptr_ += bytes;
    alloc_bytes_remaining_ -= bytes;
    return result;
  }

  char* AllocateNewBlock(size_t block_bytes) {
    blocks_.push_back(std::make_unique<char[]>(block_bytes));
    memory_usage_.fetch_add(block_bytes + sizeof(char*),
                            std::memory_order_relaxed);
    return blocks_.back().get();
  }

  std::atomic_flag lock_ = ATOMIC_FLAG_INIT;
  char* alloc_ptr_;
  size_t alloc_bytes_remaining_;
  std::vector<std::unique_ptr<char[]>> blocks_;
  std::atomic<size_t> memory_usage_;
};

}  // namespace talus

#endif  // TALUS_UTIL_ARENA_H_
