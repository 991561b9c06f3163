#include "shard/sequence_allocator.h"

namespace talus {
namespace shard {

SequenceNumber SequenceAllocator::Claim(uint64_t count) {
  std::lock_guard<std::mutex> lock(mu_);
  const SequenceNumber base = next_;
  next_ += count;
  return base;
}

void SequenceAllocator::Publish(SequenceNumber base, uint64_t count) {
  if (count == 0) return;
  std::lock_guard<std::mutex> lock(mu_);
  pending_[base] = base + count;
  // Merge every range that now touches the watermark. Ranges at or below
  // it (a burned range re-published by both a shard and the sharding
  // layer's error path) are tolerated: they advance nothing but must not
  // wedge the merge loop.
  const SequenceNumber before = visible_.load(std::memory_order_relaxed);
  SequenceNumber visible = before;
  auto it = pending_.begin();
  while (it != pending_.end() && it->first <= visible + 1) {
    if (it->second - 1 > visible) visible = it->second - 1;
    it = pending_.erase(it);
  }
  visible_.store(visible, std::memory_order_release);
  if (visible != before) advanced_.notify_all();
}

void SequenceAllocator::WaitVisible(SequenceNumber seq) {
  if (visible() >= seq) return;
  std::unique_lock<std::mutex> lock(mu_);
  advanced_.wait(lock, [this, seq] {
    return visible_.load(std::memory_order_relaxed) >= seq;
  });
}

void SequenceAllocator::Reset(SequenceNumber last) {
  std::lock_guard<std::mutex> lock(mu_);
  next_ = last + 1;
  pending_.clear();
  visible_.store(last, std::memory_order_release);
}

}  // namespace shard
}  // namespace talus
