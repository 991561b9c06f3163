#include "write/write_queue.h"

#include <cassert>

#include "util/wall_clock.h"

namespace talus {
namespace write {

bool WriteQueue::JoinAndAwaitLeadership(Writer* w) {
  std::unique_lock<std::mutex> lk(mu_);
  queue_.push_back(w);
  if (queue_.front() == w) {
    w->state = Writer::kLeader;
    return true;
  }
  w->join_micros = NowMicros();
  cv_.wait(lk,
           [&] { return w->state == Writer::kDone || queue_.front() == w; });
  if (w->state == Writer::kDone) return false;
  // Front of the queue: the previous group committed without absorbing this
  // writer, so it leads the next one.
  w->state = Writer::kLeader;
  return true;
}

void WriteQueue::BuildGroup(Writer* leader, uint64_t max_group_bytes,
                            WriteGroup* group) {
  std::lock_guard<std::mutex> lk(mu_);
  assert(!queue_.empty() && queue_.front() == leader);
  group->writers.clear();
  group->writers.push_back(leader);
  group->queue_wait_micros = 0;
  uint64_t bytes = leader->batch->rep().size();
  for (size_t i = 1; i < queue_.size(); i++) {
    Writer* wr = queue_[i];
    if (bytes + wr->batch->rep().size() > max_group_bytes) break;
    bytes += wr->batch->rep().size();
    group->writers.push_back(wr);
  }
  // Clock read only when someone actually waited: an uncontended serial
  // write path stays clock-free and its stats bit-deterministic.
  uint64_t now = 0;
  for (const Writer* wr : group->writers) {
    if (wr->join_micros == 0) continue;
    if (now == 0) now = NowMicros();
    group->queue_wait_micros += now - wr->join_micros;
  }
}

void WriteQueue::ExitGroup(WriteGroup* group) {
  std::lock_guard<std::mutex> lk(mu_);
  for (Writer* wr : group->writers) {
    assert(!queue_.empty() && queue_.front() == wr);
    (void)wr;
    queue_.pop_front();
  }
  // The leader (writers[0]) is the caller; only followers are blocked.
  for (size_t i = 1; i < group->writers.size(); i++) {
    group->writers[i]->state = Writer::kDone;
  }
  // Wakes released followers and the new front writer, which will observe
  // itself at the head of the queue and take leadership.
  cv_.notify_all();
}

}  // namespace write
}  // namespace talus
