// In-memory span recorder for the traced run.
//
// A span is taken around each call into a layer: at a decorator, or around
// a FileSystem, WriteSession or Tick call. Each thread appends to its own
// buffer (no shared lock on the hot path); a span's parent is the span
// open on the same thread when it began, which is exact here because the
// in-process transport runs every benefactor and store side effect on the
// submitting thread. Spans are written out once the run ends.
#pragma once

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

enum class Layer : std::uint8_t {
  kFsOpen,        // FileSystem::Open (read)
  kFsRead,        // FileSystem::Read
  kFsClose,       // FileSystem::Close (read)
  kClientCreate,  // ClientProxy::CreateFile (write open)
  kClientWrite,   // WriteSession::Write
  kClientClose,   // WriteSession::Close (flush + commit)
  kScan,          // ChunkScanner::Feed / Finish
  kSubmitPut,     // Transport::Submit of a PUT / batch PUT
  kSubmitGet,     // Transport::Submit of a GET / batch GET
  kSubmitOther,
  kWaitPut,       // Transport::Wait / WaitAny / Poll harvesting a PUT
  kWaitGet,
  kWaitOther,
  kStorePut,      // ChunkStore::Put
  kStorePutBatch, // ChunkStore::PutBatch
  kStoreGet,      // ChunkStore::Get
  kStoreDelete,   // ChunkStore::Delete
  kStoreCompact,  // ChunkStore::CompactStep
  kStoreWipe,     // ChunkStore::Wipe
  kTick,          // StdchkCluster::Tick
  kCount,
};

inline const char* LayerName(Layer layer) {
  static constexpr std::array<const char*, static_cast<int>(Layer::kCount)>
      kNames = {"fs.open",         "fs.read",        "fs.close",
                "client.create",   "client.write",   "client.close",
                "chkpt.scan",      "core.submit_put", "core.submit_get",
                "core.submit_other", "core.wait_put", "core.wait_get",
                "core.wait_other", "chunk.put",      "chunk.put_batch",
                "chunk.get",       "chunk.delete",   "chunk.compact",
                "chunk.wipe",      "core.tick"};
  return kNames[static_cast<int>(layer)];
}

inline constexpr std::uint32_t kNoParent = 0xFFFFFFFFu;

struct Span {
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::uint64_t bytes = 0;
  std::uint32_t parent = kNoParent;  // index in the same thread's buffer
  std::uint32_t op = 0;              // checkpoint or restore it belongs to
  Layer layer = Layer::kCount;
};

inline std::int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

class Tracer {
 public:
  struct ThreadBuffer {
    std::vector<Span> spans;
    std::uint32_t open = kNoParent;  // innermost open span
    std::uint32_t op = 0;
  };

  static Tracer& Get() {
    static Tracer tracer;
    return tracer;
  }

  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }
  void set_enabled(bool on) { enabled_.store(on); }

  // The calling thread's buffer, created on first use. Buffers outlive
  // their threads so the report can read them after the workers join.
  ThreadBuffer& Local() {
    thread_local ThreadBuffer* local = nullptr;
    if (local == nullptr) {
      std::lock_guard<std::mutex> lock(mu_);
      buffers_.push_back(std::make_unique<ThreadBuffer>());
      local = buffers_.back().get();
      local->spans.reserve(1 << 16);
    }
    return *local;
  }

  // Call only once every traced thread has stopped.
  const std::vector<std::unique_ptr<ThreadBuffer>>& buffers() const {
    return buffers_;
  }

 private:
  std::atomic<bool> enabled_{false};
  std::mutex mu_;
  std::vector<std::unique_ptr<ThreadBuffer>> buffers_;
};

// Tags the calling thread's later spans with checkpoint/restore `op`.
inline void SetCurrentOp(std::uint32_t op) {
  if (Tracer::Get().enabled()) Tracer::Get().Local().op = op;
}

// RAII span. With tracing off it costs one relaxed load.
class TraceScope {
 public:
  explicit TraceScope(Layer layer, std::uint64_t bytes = 0) {
    Tracer& tracer = Tracer::Get();
    if (!tracer.enabled()) return;
    buf_ = &tracer.Local();
    index_ = static_cast<std::uint32_t>(buf_->spans.size());
    Span span;
    span.layer = layer;
    span.bytes = bytes;
    span.parent = buf_->open;
    span.op = buf_->op;
    span.start_ns = NowNs();
    buf_->spans.push_back(span);
    buf_->open = index_;
  }
  ~TraceScope() {
    if (buf_ == nullptr) return;
    Span& span = buf_->spans[index_];
    span.end_ns = NowNs();
    buf_->open = span.parent;
  }
  TraceScope(const TraceScope&) = delete;
  TraceScope& operator=(const TraceScope&) = delete;

  // Re-labels the span once the call's result is known (a harvested
  // completion's op type) and records payload bytes.
  void set(Layer layer, std::uint64_t bytes) {
    if (buf_ == nullptr) return;
    buf_->spans[index_].layer = layer;
    buf_->spans[index_].bytes = bytes;
  }
  void add_bytes(std::uint64_t bytes) {
    if (buf_ != nullptr) buf_->spans[index_].bytes += bytes;
  }

 private:
  Tracer::ThreadBuffer* buf_ = nullptr;
  std::uint32_t index_ = 0;
};

}  // namespace perfbench
