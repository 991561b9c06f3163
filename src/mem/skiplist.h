// Arena-backed skiplist, the memtable's core index. Multi-writer,
// multi-reader: Insert links nodes with per-level CAS retry loops, so
// inserts of distinct keys may run from several threads at once (the engine
// itself has one writer: the commit-group leader, DESIGN.md §2.9), while
// readers traverse with acquire loads and never lock (DESIGN.md §2.7). A new
// node is fully built before the release-CAS that links it in, so a reader
// either sees the node completely or not at all. With a single writer the CAS never fails and
// the resulting structure is bit-identical to the classic single-writer
// insert (heights are drawn from one serialized PRNG stream).
#ifndef TALUS_MEM_SKIPLIST_H_
#define TALUS_MEM_SKIPLIST_H_

#include <atomic>
#include <cassert>
#include <cstdlib>

#include "util/arena.h"
#include "util/random.h"

namespace talus {

template <typename Key, class Comparator>
class SkipList {
 private:
  struct Node;

 public:
  SkipList(Comparator cmp, Arena* arena)
      : compare_(cmp),
        arena_(arena),
        head_(NewNode(0 /* any key */, kMaxHeight)),
        max_height_(1),
        rnd_(0xdeadbeef) {
    for (int i = 0; i < kMaxHeight; i++) {
      head_->SetNext(i, nullptr);
    }
  }

  SkipList(const SkipList&) = delete;
  SkipList& operator=(const SkipList&) = delete;

  /// REQUIRES: nothing that compares equal to key is in the list or being
  /// inserted concurrently. Concurrent Inserts of distinct keys are safe:
  /// each level is linked with a CAS that retries from the surviving
  /// predecessor on contention (nodes are never removed, so a stale
  /// predecessor is always a valid search start).
  void Insert(const Key& key) {
    const int height = RandomHeight();
    Node* x = NewNode(key, height);

    int max_h = max_height_.load(std::memory_order_relaxed);
    while (height > max_h &&
           !max_height_.compare_exchange_weak(max_h, height,
                                              std::memory_order_relaxed)) {
      // max_h reloaded by the failed CAS; concurrent readers observing the
      // new height before any tall node is linked just fall through head_'s
      // nullptr at the extra levels.
    }

    Node* prev[kMaxHeight];
    for (int i = 0; i < kMaxHeight; i++) prev[i] = head_;
    FindGreaterOrEqual(key, prev);

    // Link bottom-up: once level 0 succeeds the node is in the list; upper
    // levels only accelerate searches, so readers tolerate the window where
    // they are not linked yet.
    for (int i = 0; i < height; i++) {
      while (true) {
        Node* before = prev[i];
        Node* next;
        FindSpliceForLevel(key, &before, &next, i);
        // The new node's pointer is not yet visible at this level, so a
        // relaxed store is enough; the release-CAS into `before` publishes
        // the whole node.
        x->NoBarrierSetNext(i, next);
        if (before->CasNext(i, next, x)) break;
        // Lost the race at this level: rescan forward from the surviving
        // predecessor and retry.
        prev[i] = before;
      }
    }
  }

  bool Contains(const Key& key) const {
    Node* x = FindGreaterOrEqual(key, nullptr);
    return x != nullptr && Equal(key, x->key);
  }

  class Iterator {
   public:
    explicit Iterator(const SkipList* list) : list_(list), node_(nullptr) {}

    bool Valid() const { return node_ != nullptr; }
    const Key& key() const {
      assert(Valid());
      return node_->key;
    }
    void Next() {
      assert(Valid());
      node_ = node_->Next(0);
    }
    void Prev() {
      assert(Valid());
      node_ = list_->FindLessThan(node_->key);
      if (node_ == list_->head_) node_ = nullptr;
    }
    void Seek(const Key& target) {
      node_ = list_->FindGreaterOrEqual(target, nullptr);
    }
    void SeekToFirst() { node_ = list_->head_->Next(0); }
    void SeekToLast() {
      node_ = list_->FindLast();
      if (node_ == list_->head_) node_ = nullptr;
    }

   private:
    const SkipList* list_;
    Node* node_;
  };

 private:
  static constexpr int kMaxHeight = 12;
  static constexpr int kBranching = 4;

  struct Node {
    explicit Node(const Key& k) : key(k) {}
    Key const key;

    Node* Next(int n) {
      assert(n >= 0);
      return slot(n)->load(std::memory_order_acquire);
    }
    void SetNext(int n, Node* x) {
      assert(n >= 0);
      slot(n)->store(x, std::memory_order_release);
    }
    bool CasNext(int n, Node* expected, Node* x) {
      return slot(n)->compare_exchange_strong(expected, x,
                                              std::memory_order_release,
                                              std::memory_order_relaxed);
    }
    Node* NoBarrierNext(int n) {
      return slot(n)->load(std::memory_order_relaxed);
    }
    void NoBarrierSetNext(int n, Node* x) {
      slot(n)->store(x, std::memory_order_relaxed);
    }

   private:
    // Trailing-array access through a decayed pointer (not next_[n]): the
    // node is allocated with its true height's worth of slots, and this
    // spelling keeps UBSan's array-bounds check off the flexible-array
    // idiom.
    std::atomic<Node*>* slot(int n) { return next_ + n; }

    // Flexible array: actual length equals the node's height.
    std::atomic<Node*> next_[1];
  };

  Node* NewNode(const Key& key, int height) {
    char* mem = arena_->AllocateAligned(
        sizeof(Node) + sizeof(std::atomic<Node*>) * (height - 1));
    return new (mem) Node(key);
  }

  int GetMaxHeight() const {
    return max_height_.load(std::memory_order_relaxed);
  }

  int RandomHeight() {
    // One PRNG stream shared by all inserters behind a spinlock: concurrent
    // inserts stay thread-safe, and a single writer draws the exact
    // sequence the seed engine drew (bit-identical structures).
    while (rnd_lock_.test_and_set(std::memory_order_acquire)) {
    }
    int height = 1;
    while (height < kMaxHeight && rnd_.OneIn(kBranching)) {
      height++;
    }
    rnd_lock_.clear(std::memory_order_release);
    return height;
  }

  bool Equal(const Key& a, const Key& b) const { return compare_(a, b) == 0; }

  bool KeyIsAfterNode(const Key& key, Node* n) const {
    return (n != nullptr) && (compare_(n->key, key) < 0);
  }

  /// Advances *before along `level` until (*before, *next) brackets key.
  /// REQUIRES: (*before)->key < key (head_ counts as < everything).
  void FindSpliceForLevel(const Key& key, Node** before, Node** next,
                          int level) const {
    while (true) {
      Node* n = (*before)->Next(level);
      if (!KeyIsAfterNode(key, n)) {
        assert(n == nullptr || !Equal(key, n->key));
        *next = n;
        return;
      }
      *before = n;
    }
  }

  Node* FindGreaterOrEqual(const Key& key, Node** prev) const {
    Node* x = head_;
    int level = GetMaxHeight() - 1;
    while (true) {
      Node* next = x->Next(level);
      if (KeyIsAfterNode(key, next)) {
        x = next;
      } else {
        if (prev != nullptr) prev[level] = x;
        if (level == 0) return next;
        level--;
      }
    }
  }

  Node* FindLessThan(const Key& key) const {
    Node* x = head_;
    int level = GetMaxHeight() - 1;
    while (true) {
      Node* next = x->Next(level);
      if (next == nullptr || compare_(next->key, key) >= 0) {
        if (level == 0) return x;
        level--;
      } else {
        x = next;
      }
    }
  }

  Node* FindLast() const {
    Node* x = head_;
    int level = GetMaxHeight() - 1;
    while (true) {
      Node* next = x->Next(level);
      if (next == nullptr) {
        if (level == 0) return x;
        level--;
      } else {
        x = next;
      }
    }
  }

  Comparator const compare_;
  Arena* const arena_;
  Node* const head_;
  std::atomic<int> max_height_;
  std::atomic_flag rnd_lock_ = ATOMIC_FLAG_INIT;
  Random rnd_;
};

}  // namespace talus

#endif  // TALUS_MEM_SKIPLIST_H_
