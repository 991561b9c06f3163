#include "trace.h"

#include <cstdio>

namespace perfbench {

namespace {

// Per-thread tracing state. The benchmark runs one Tracer per process.
thread_local void* t_owner = nullptr;
thread_local void* t_buffer = nullptr;
thread_local uint64_t t_open_op = 0;
thread_local uint64_t t_child_ns = 0;

}  // namespace

const char* OpKindName(OpKind kind) {
  static const char* const kNames[kNumOpKinds] = {"put", "get", "scan"};
  return kNames[static_cast<int>(kind)];
}

Tracer::Buffer* Tracer::ThreadBuffer() {
  if (t_owner != this) {
    std::lock_guard<std::mutex> l(mu_);
    buffers_.push_back(std::make_unique<Buffer>());
    buffers_.back()->tid = static_cast<uint32_t>(buffers_.size());
    t_owner = this;
    t_buffer = buffers_.back().get();
  }
  return static_cast<Buffer*>(t_buffer);
}

void Tracer::Keep(const Span& span) {
  Buffer* b = ThreadBuffer();
  if (b->spans.size() < spans_per_thread_) {
    b->spans.push_back(span);
  } else {
    b->dropped++;
  }
}

uint64_t Tracer::BeginOp() {
  t_open_op = next_op_id_.fetch_add(1, std::memory_order_relaxed);
  t_child_ns = 0;
  return t_open_op;
}

void Tracer::EndOp(OpKind kind, uint64_t id, int64_t start_ns,
                   int64_t end_ns) {
  op_ns_.fetch_add(static_cast<uint64_t>(end_ns - start_ns),
                   std::memory_order_relaxed);
  child_ns_.fetch_add(t_child_ns, std::memory_order_relaxed);
  t_open_op = 0;
  Keep(Span{id, start_ns, end_ns, ThreadBuffer()->tid, 0,
            static_cast<uint8_t>(kind), 0});
}

void Tracer::RecordRemoteOp(OpKind kind, int64_t start_ns, int64_t end_ns) {
  const uint64_t id = next_op_id_.fetch_add(1, std::memory_order_relaxed);
  op_ns_.fetch_add(static_cast<uint64_t>(end_ns - start_ns),
                   std::memory_order_relaxed);
  Keep(Span{id, start_ns, end_ns, ThreadBuffer()->tid, 0,
            static_cast<uint8_t>(kind), 0});
}

void Tracer::OnEnvCall(EnvCall call, FileKind kind, int64_t start_ns,
                       int64_t end_ns) {
  if (!enabled()) return;
  if (t_open_op != 0) t_child_ns += static_cast<uint64_t>(end_ns - start_ns);
  Keep(Span{t_open_op, start_ns, end_ns, ThreadBuffer()->tid, 1,
            static_cast<uint8_t>(call), static_cast<uint8_t>(kind)});
}

double Tracer::UnattributedPct() const {
  const double op = static_cast<double>(op_ns_.load());
  if (op == 0) return 0;
  return 100.0 * (op - static_cast<double>(child_ns_.load())) / op;
}

uint64_t Tracer::spans_kept() const {
  std::lock_guard<std::mutex> l(mu_);
  uint64_t n = 0;
  for (const auto& b : buffers_) n += b->spans.size();
  return n;
}

uint64_t Tracer::spans_dropped() const {
  std::lock_guard<std::mutex> l(mu_);
  uint64_t n = 0;
  for (const auto& b : buffers_) n += b->dropped;
  return n;
}

bool Tracer::WriteJsonl(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::lock_guard<std::mutex> l(mu_);
  for (const auto& b : buffers_) {
    for (const Span& s : b->spans) {
      const double start_us = static_cast<double>(s.start_ns - epoch_ns_) / 1e3;
      const double end_us = static_cast<double>(s.end_ns - epoch_ns_) / 1e3;
      if (s.is_env) {
        char parent[32] = "\"bg\"";
        if (s.id != 0) {
          std::snprintf(parent, sizeof(parent), "%llu",
                        static_cast<unsigned long long>(s.id));
        }
        std::fprintf(f,
                     "{\"name\":\"env.%s\",\"file\":\"%s\",\"parent\":%s,"
                     "\"tid\":%u,\"start_us\":%.3f,\"end_us\":%.3f}\n",
                     EnvCallName(static_cast<EnvCall>(s.what)),
                     FileKindName(static_cast<FileKind>(s.file)), parent,
                     s.tid, start_us, end_us);
      } else {
        std::fprintf(f,
                     "{\"name\":\"op.%s\",\"id\":%llu,\"tid\":%u,"
                     "\"start_us\":%.3f,\"end_us\":%.3f}\n",
                     OpKindName(static_cast<OpKind>(s.what)),
                     static_cast<unsigned long long>(s.id), s.tid, start_us,
                     end_us);
      }
    }
  }
  return std::fclose(f) == 0;
}

}  // namespace perfbench
