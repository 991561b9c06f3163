// Tracer: spans recorded from the benchmark's own code, around calls into
// the engine's layers. One span per generator operation and one per
// decorated Env call; an Env span's parent is the operation span open on
// the same thread, or `bg` when none is (engine background threads, server
// workers). Spans go to per-thread in-memory buffers and are written as
// JSONL once every thread that recorded them has stopped.
//
// Attribution is kept online, over every traced operation rather than only
// the buffered ones: an operation's self time is its duration minus the Env
// time of its child spans, and counts as unattributed until the engine
// records spans of its own.
#ifndef TALUS_PERFBENCH_TRACE_H_
#define TALUS_PERFBENCH_TRACE_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "device_env.h"

namespace perfbench {

enum class OpKind : uint8_t { kPut, kGet, kScan };
constexpr int kNumOpKinds = 3;
const char* OpKindName(OpKind kind);

class Tracer final : public EnvCallSink {
 public:
  /// Buffers at most `spans_per_thread` spans per thread; later spans are
  /// still timed and attributed, only not kept.
  explicit Tracer(size_t spans_per_thread)
      : spans_per_thread_(spans_per_thread) {}
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  void set_enabled(bool on) { enabled_.store(on, std::memory_order_relaxed); }
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  /// Opens an operation span on the calling thread and returns its id.
  uint64_t BeginOp();
  /// Closes the span BeginOp opened.
  void EndOp(OpKind kind, uint64_t id, int64_t start_ns, int64_t end_ns);
  /// Records an operation whose engine work runs on other threads (a
  /// request sent to the server): it has no child spans on this thread.
  void RecordRemoteOp(OpKind kind, int64_t start_ns, int64_t end_ns);

  void OnEnvCall(EnvCall call, FileKind kind, int64_t start_ns,
                 int64_t end_ns) override;

  /// Share of traced operation time not covered by child spans, in %.
  double UnattributedPct() const;
  uint64_t spans_kept() const;
  uint64_t spans_dropped() const;
  /// Writes every kept span, one JSON object per line. REQUIRES: every
  /// thread that recorded spans has been joined.
  bool WriteJsonl(const std::string& path) const;

 private:
  struct Span {
    uint64_t id;      // Operation id; for an Env span, its parent's (0 = bg).
    int64_t start_ns;
    int64_t end_ns;
    uint32_t tid;
    uint8_t is_env;
    uint8_t what;     // OpKind, or EnvCall for an Env span.
    uint8_t file;     // FileKind of an Env span.
  };
  struct Buffer {
    uint32_t tid = 0;
    std::vector<Span> spans;
    uint64_t dropped = 0;
  };

  Buffer* ThreadBuffer();
  void Keep(const Span& span);

  const size_t spans_per_thread_;
  const int64_t epoch_ns_ = NowNs();
  std::atomic<bool> enabled_{false};
  std::atomic<uint64_t> next_op_id_{1};
  std::atomic<uint64_t> op_ns_{0};
  std::atomic<uint64_t> child_ns_{0};
  mutable std::mutex mu_;
  std::vector<std::unique_ptr<Buffer>> buffers_;  // Guarded by mu_.
};

}  // namespace perfbench

#endif  // TALUS_PERFBENCH_TRACE_H_
