// Decorators that measure each layer from outside, through the injection
// points the program already has:
//   TracingTransport  handed to ClientProxy in place of the cluster transport;
//   TracingStore      installed through ClusterOptions::store_decorator;
//   TracingChunker    installed through ClientOptions::chunker.
// Each forwards every virtual method of its interface unchanged (a store
// decorator that fell back to the base PutBatch would make one write and
// one fsync per chunk and so measure another program). With tracing off
// they only keep the accounting the output checks need.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <utility>
#include <vector>

#include "chkpt/chunker.h"
#include "chunk/chunk_store.h"
#include "client/transport.h"
#include "trace.h"

namespace perfbench {

using stdchk::ChunkId;
using stdchk::ChunkOp;
using stdchk::ChunkOpType;
using stdchk::NodeId;
using stdchk::OpCompletion;
using stdchk::OpHandle;
using stdchk::Result;
using stdchk::Status;

// ---- Transport ---------------------------------------------------------

class TracingTransport final : public stdchk::Transport {
 public:
  struct NodeGets {
    std::uint64_t ok = 0;
    std::uint64_t failed = 0;
  };

  explicit TracingTransport(stdchk::Transport* inner) : inner_(inner) {}

  OpHandle Submit(ChunkOp op) override {
    std::uint64_t bytes = 0;
    Layer layer = Layer::kSubmitOther;
    if (op.type == ChunkOpType::kPutChunk) {
      bytes = op.data.size();
      layer = Layer::kSubmitPut;
    } else if (op.type == ChunkOpType::kPutChunkBatch) {
      for (const stdchk::ChunkPut& put : op.puts) bytes += put.data.size();
      layer = Layer::kSubmitPut;
    } else if (op.type == ChunkOpType::kGetChunk ||
               op.type == ChunkOpType::kGetChunkBatch) {
      layer = Layer::kSubmitGet;
    }
    if (layer == Layer::kSubmitPut) {
      put_bytes_.fetch_add(bytes, std::memory_order_relaxed);
    }
    TraceScope span(layer, bytes);
    return inner_->Submit(std::move(op));
  }

  Result<OpCompletion> Wait(OpHandle handle) override {
    TraceScope span(Layer::kWaitOther);
    Result<OpCompletion> done = inner_->Wait(handle);
    if (done.ok()) Harvest(done.value(), span);
    return done;
  }

  Result<OpCompletion> WaitAny(std::span<const OpHandle> handles) override {
    TraceScope span(Layer::kWaitOther);
    Result<OpCompletion> done = inner_->WaitAny(handles);
    if (done.ok()) Harvest(done.value(), span);
    return done;
  }

  std::optional<OpCompletion> Poll(
      std::span<const OpHandle> handles) override {
    TraceScope span(Layer::kWaitOther);
    std::optional<OpCompletion> done = inner_->Poll(handles);
    if (done.has_value()) Harvest(*done, span);
    return done;
  }

  bool Cancel(OpHandle handle) override { return inner_->Cancel(handle); }
  std::size_t InFlight() const override { return inner_->InFlight(); }

  // Payload bytes submitted in PUTs (replicas and shards each count).
  std::uint64_t put_bytes() const {
    return put_bytes_.load(std::memory_order_relaxed);
  }
  std::uint64_t failed_ops() const {
    return failed_ops_.load(std::memory_order_relaxed);
  }
  std::map<NodeId, NodeGets> gets_by_node() const {
    std::lock_guard<std::mutex> lock(mu_);
    return gets_by_node_;
  }

 private:
  void Harvest(const OpCompletion& done, TraceScope& span) {
    const bool ok = done.status.ok();
    if (!ok) failed_ops_.fetch_add(1, std::memory_order_relaxed);
    if (done.type == ChunkOpType::kGetChunk ||
        done.type == ChunkOpType::kGetChunkBatch) {
      std::uint64_t bytes = done.data.size();
      for (const stdchk::BufferSlice& slice : done.batch) bytes += slice.size();
      span.set(Layer::kWaitGet, bytes);
      std::lock_guard<std::mutex> lock(mu_);
      NodeGets& gets = gets_by_node_[done.node];
      ++(ok ? gets.ok : gets.failed);
    } else if (done.type == ChunkOpType::kPutChunk ||
               done.type == ChunkOpType::kPutChunkBatch) {
      span.set(Layer::kWaitPut, 0);
    }
  }

  stdchk::Transport* inner_;
  std::atomic<std::uint64_t> put_bytes_{0};
  std::atomic<std::uint64_t> failed_ops_{0};
  mutable std::mutex mu_;
  std::map<NodeId, NodeGets> gets_by_node_;
};

// ---- Chunk store -------------------------------------------------------

// Also keeps a ledger of the chunks it holds, from its own put and delete
// accounting alone: it never asks the store it wraps. The GC check compares
// the ledger with what the catalog references and with the store's List().
class TracingStore final : public stdchk::ChunkStore {
 public:
  explicit TracingStore(std::unique_ptr<stdchk::ChunkStore> inner)
      : inner_(std::move(inner)) {}

  using stdchk::ChunkStore::Put;

  Status Put(const ChunkId& id, stdchk::BufferSlice data) override {
    TraceScope span(Layer::kStorePut, data.size());
    Status status = inner_->Put(id, std::move(data));
    std::lock_guard<std::mutex> lock(mu_);
    if (status.ok()) {
      live_.insert(id);
    } else {
      ++failed_updates_;
    }
    return status;
  }

  Status PutBatch(std::span<const stdchk::ChunkPut> puts) override {
    std::uint64_t bytes = 0;
    for (const stdchk::ChunkPut& put : puts) bytes += put.data.size();
    TraceScope span(Layer::kStorePutBatch, bytes);
    Status status = inner_->PutBatch(puts);
    std::lock_guard<std::mutex> lock(mu_);
    if (status.ok()) {
      for (const stdchk::ChunkPut& put : puts) live_.insert(put.id);
    } else {
      // A failed batch may have stored a prefix; the ledger cannot tell.
      ++failed_updates_;
    }
    return status;
  }

  Result<stdchk::BufferSlice> Get(const ChunkId& id) const override {
    TraceScope span(Layer::kStoreGet);
    Result<stdchk::BufferSlice> got = inner_->Get(id);
    if (got.ok()) span.add_bytes(got.value().size());
    return got;
  }

  bool Contains(const ChunkId& id) const override {
    return inner_->Contains(id);
  }

  Status Delete(const ChunkId& id) override {
    TraceScope span(Layer::kStoreDelete);
    Status status = inner_->Delete(id);
    if (status.ok()) {
      std::lock_guard<std::mutex> lock(mu_);
      live_.erase(id);
    }
    return status;
  }

  Status Wipe() override {
    TraceScope span(Layer::kStoreWipe);
    Status status = inner_->Wipe();
    std::lock_guard<std::mutex> lock(mu_);
    if (status.ok()) {
      live_.clear();
    } else {
      ++failed_updates_;  // partly wiped: the ledger cannot tell either
    }
    return status;
  }

  std::vector<ChunkId> List() const override { return inner_->List(); }
  std::uint64_t BytesUsed() const override { return inner_->BytesUsed(); }
  std::size_t ChunkCount() const override { return inner_->ChunkCount(); }
  std::uint64_t ResidentBytes() const override {
    return inner_->ResidentBytes();
  }

  Result<stdchk::CompactionStepReport> CompactStep(
      const stdchk::CompactionPolicy& policy) override {
    TraceScope span(Layer::kStoreCompact);
    return inner_->CompactStep(policy);
  }

  stdchk::ChunkStoreStats Stats() const override { return inner_->Stats(); }

  std::set<ChunkId> ledger() const {
    std::lock_guard<std::mutex> lock(mu_);
    return live_;
  }
  // Failed Put, PutBatch or Wipe calls, after which the ledger is unsure.
  std::uint64_t failed_updates() const {
    std::lock_guard<std::mutex> lock(mu_);
    return failed_updates_;
  }

 private:
  std::unique_ptr<stdchk::ChunkStore> inner_;
  mutable std::mutex mu_;
  std::set<ChunkId> live_;
  std::uint64_t failed_updates_ = 0;
};

// ---- Chunker -----------------------------------------------------------

class TracingScanner final : public stdchk::ChunkScanner {
 public:
  TracingScanner(std::unique_ptr<stdchk::ChunkScanner> inner,
                 std::atomic<std::uint64_t>* boundaries)
      : inner_(std::move(inner)), boundaries_(boundaries) {}

  void Feed(stdchk::ByteSpan data, std::vector<std::uint64_t>& out) override {
    TraceScope span(Layer::kScan, data.size());
    const std::size_t before = out.size();
    inner_->Feed(data, out);
    Count(out.size() - before);
  }

  void Finish(std::vector<std::uint64_t>& out) override {
    TraceScope span(Layer::kScan);
    const std::size_t before = out.size();
    inner_->Finish(out);
    Count(out.size() - before);
  }

  std::uint64_t consumed() const override { return inner_->consumed(); }

 private:
  void Count(std::size_t sealed) {
    if (Tracer::Get().enabled()) {
      boundaries_->fetch_add(sealed, std::memory_order_relaxed);
    }
  }

  std::unique_ptr<stdchk::ChunkScanner> inner_;
  std::atomic<std::uint64_t>* boundaries_;
};

class TracingChunker final : public stdchk::Chunker {
 public:
  explicit TracingChunker(std::shared_ptr<const stdchk::Chunker> inner)
      : inner_(std::move(inner)) {}

  std::vector<stdchk::ChunkSpan> Split(stdchk::ByteSpan data) const override {
    return inner_->Split(data);
  }
  std::vector<stdchk::ChunkSpan> SplitSealed(
      stdchk::ByteSpan data) const override {
    return inner_->SplitSealed(data);
  }
  std::unique_ptr<stdchk::ChunkScanner> MakeScanner() const override {
    return std::make_unique<TracingScanner>(inner_->MakeScanner(),
                                            &boundaries_);
  }
  std::string name() const override { return inner_->name(); }

  // Boundaries sealed while tracing was on.
  std::uint64_t boundaries() const {
    return boundaries_.load(std::memory_order_relaxed);
  }

 private:
  std::shared_ptr<const stdchk::Chunker> inner_;
  mutable std::atomic<std::uint64_t> boundaries_{0};
};

}  // namespace perfbench
