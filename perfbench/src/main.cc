// stdchk checkpoint-storage benchmark: runs one workload through the
// shipped functional stack on disk-backed benefactors, checks its outputs,
// and prints one JSON result line (see perfbench/README.md).
//
//   perfbench --workload storm|incremental|restart --seed N --seconds S
//             --trace 0|1 --store-dir DIR --trace-dir DIR
//   perfbench --check-neutral --store-dir DIR
//   perfbench --check-similarity --seed N --store-dir DIR
#include <sys/vfs.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <barrier>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "chkpt/chunker.h"
#include "chkpt/similarity.h"
#include "client/client_proxy.h"
#include "core/cluster.h"
#include "fs/file_system.h"
#include "inputs.h"
#include "layers.h"
#include "trace.h"

namespace perfbench {
namespace {

using stdchk::CheckpointName;
using stdchk::ClientOptions;
using stdchk::ClientProxy;
using stdchk::ClusterOptions;
using stdchk::FileSystem;
using stdchk::StdchkCluster;
using stdchk::VersionRecord;
using stdchk::WriteSession;
using stdchk::WriteStats;

constexpr std::size_t kMiB = std::size_t{1} << 20;
constexpr int kNodes = 8;
constexpr std::size_t kChunk = kMiB;         // FsCH chunk and write() size
constexpr std::size_t kReadPiece = kMiB;     // read() size
constexpr std::size_t kMinSamples = 100;     // p90 needs 10 samples beyond it
constexpr const char* kMount = "/stdchk";

// Workload shapes (see README "Workloads").
constexpr int kStormWriters = 4;
constexpr std::size_t kStormImage = 8 * kMiB;
constexpr double kStormWriteShare = 0.6;  // of --seconds; reads fill the rest
constexpr std::uint64_t kChainVersions = 32;
constexpr int kRestartReaders = 3;
constexpr int kPreloadImages = 24;
constexpr std::size_t kRestartImage = 8 * kMiB;
constexpr std::size_t kCrashedNode = 3;  // benefactor index, not a node id

// When the process started: the launcher's steady-clock reading just
// before exec (--launched-ns), so set-up time covers exec and loading too.
std::int64_t g_process_start_ns = NowNs();

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  bool check_neutral = false;
  bool check_similarity = false;
  std::string store_dir;
  std::string trace_dir;
};

double Seconds(std::int64_t ns) { return static_cast<double>(ns) / 1e9; }
double MiB(std::uint64_t bytes) { return static_cast<double>(bytes) / kMiB; }

// Nearest-rank percentile.
double Percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  std::size_t rank = static_cast<std::size_t>(std::ceil(p * v.size()));
  return v[std::clamp<std::size_t>(rank, 1, v.size()) - 1];
}

double Mean(const std::vector<double>& v) {
  if (v.empty()) return 0;
  double sum = 0;
  for (double x : v) sum += x;
  return sum / static_cast<double>(v.size());
}

// Failures of checks and operations, gathered from every thread.
class Failures {
 public:
  void Check(bool ok, const std::string& what) {
    if (ok) return;
    std::lock_guard<std::mutex> lock(mu_);
    if (check_failures_++ < 20) {
      std::fprintf(stderr, "CHECK FAILED: %s\n", what.c_str());
    }
  }
  void Op(const std::string& what) {
    std::lock_guard<std::mutex> lock(mu_);
    if (op_failures_++ < 20) {
      std::fprintf(stderr, "OP FAILED: %s\n", what.c_str());
    }
  }
  std::uint64_t checks() const {
    std::lock_guard<std::mutex> lock(mu_);
    return check_failures_;
  }
  std::uint64_t ops() const {
    std::lock_guard<std::mutex> lock(mu_);
    return op_failures_;
  }

 private:
  mutable std::mutex mu_;
  std::uint64_t check_failures_ = 0;
  std::uint64_t op_failures_ = 0;
};

// Peak anonymous resident memory of the process: resident pages minus
// file-backed and shared ones, from /proc/self/statm, sampled every 2 ms
// from construction until Stop(). The pages of segment files that reads
// have mapped are page cache rather than the program's own memory, and
// counting them would make the figure grow with how much a run reads.
class AnonPeak {
 public:
  AnonPeak() : sampler_([this](std::stop_token stop) {
    while (!stop.stop_requested()) {
      Sample();
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
  }) {}

  // Stops sampling and returns the peak in MiB.
  double Stop() {
    sampler_.request_stop();
    sampler_.join();
    Sample();
    return static_cast<double>(peak_pages_) *
           static_cast<double>(sysconf(_SC_PAGESIZE)) / (1 << 20);
  }

 private:
  void Sample() {
    std::FILE* f = std::fopen("/proc/self/statm", "r");
    if (f == nullptr) return;
    unsigned long size = 0, resident = 0, shared = 0;
    if (std::fscanf(f, "%lu %lu %lu", &size, &resident, &shared) == 3 &&
        resident >= shared) {
      peak_pages_ = std::max<std::uint64_t>(peak_pages_, resident - shared);
    }
    std::fclose(f);
  }

  std::uint64_t peak_pages_ = 0;  // written by the sampler until joined
  std::jthread sampler_;
};

// Naming and erasure time read straight from WriteStats, split into the
// part spent inside write() and the part spent inside close().
struct WriteTotals {
  std::uint64_t bytes = 0;
  std::uint64_t hash_ns = 0;
  std::uint64_t encode_ns = 0;
  std::uint64_t close_hash_ns = 0;
  std::uint64_t close_encode_ns = 0;
  std::uint64_t chunks = 0;
  std::uint64_t chunks_reused = 0;

  void Add(const WriteTotals& o) {
    bytes += o.bytes;
    hash_ns += o.hash_ns;
    encode_ns += o.encode_ns;
    close_hash_ns += o.close_hash_ns;
    close_encode_ns += o.close_encode_ns;
    chunks += o.chunks;
    chunks_reused += o.chunks_reused;
  }
};

// Per-thread measurements, merged after the threads join.
struct Samples {
  std::vector<double> ckpt_ms;
  std::vector<double> restore_ms;
  std::uint64_t restored_bytes = 0;
  std::int64_t restore_ns = 0;
  WriteTotals writes;

  void Add(const Samples& o) {
    ckpt_ms.insert(ckpt_ms.end(), o.ckpt_ms.begin(), o.ckpt_ms.end());
    restore_ms.insert(restore_ms.end(), o.restore_ms.begin(),
                      o.restore_ms.end());
    restored_bytes += o.restored_bytes;
    restore_ns += o.restore_ns;
    writes.Add(o.writes);
  }
};

// One desktop: its transport decorator, proxy and FUSE-layer facade.
struct Client {
  std::unique_ptr<TracingTransport> transport;
  std::shared_ptr<TracingChunker> chunker;
  std::unique_ptr<ClientProxy> proxy;
  std::unique_ptr<FileSystem> fs;
};

// Running totals read from the decorators. A timed phase is measured as the
// difference of two readings, so set-up traffic (the restart preload) and
// work after the phase do not count.
struct Counters {
  std::uint64_t put_bytes = 0;   // PUT payload at the transport decorators
  std::uint64_t failed_ops = 0;  // failed transport completions
  std::uint64_t boundaries = 0;  // boundaries sealed while tracing was on
  std::uint64_t fsyncs = 0;      // ChunkStoreStats::fsyncs over the stores

  Counters operator-(const Counters& o) const {
    return {put_bytes - o.put_bytes, failed_ops - o.failed_ops,
            boundaries - o.boundaries, fsyncs - o.fsyncs};
  }
};

// The cluster on disk plus the decorators it was built with. Destruction
// stops the cluster before its store directory is removed, so the store
// directory goes away on every exit path that unwinds.
class Rig {
 public:
  Rig(std::string dir, bool decorate) : dir_(std::move(dir)) {
    std::filesystem::remove_all(dir_);
    std::filesystem::create_directories(dir_);
    ClusterOptions options;
    options.benefactor_count = kNodes;
    options.disk_root = dir_;
    if (decorate) {
      options.store_decorator = [this](std::unique_ptr<stdchk::ChunkStore> s) {
        auto traced = std::make_unique<TracingStore>(std::move(s));
        stores_.push_back(traced.get());
        return std::unique_ptr<stdchk::ChunkStore>(std::move(traced));
      };
    }
    cluster_ = std::make_unique<StdchkCluster>(std::move(options));
  }
  ~Rig() {
    clients_.clear();
    cluster_.reset();
    std::error_code ec;
    std::filesystem::remove_all(dir_, ec);
  }
  Rig(const Rig&) = delete;
  Rig& operator=(const Rig&) = delete;

  bool healthy() const {
    return cluster_->benefactor_count() == static_cast<std::size_t>(kNodes);
  }
  StdchkCluster& cluster() { return *cluster_; }
  const std::vector<TracingStore*>& stores() const { return stores_; }

  // A client whose transport and chunker are decorated. `decorate` false
  // gives the bare program path (the neutrality check's reference).
  Client& AddClient(ClientOptions options, bool decorate = true) {
    auto client = std::make_unique<Client>();
    stdchk::Transport* transport = &cluster_->transport();
    if (decorate) {
      client->transport = std::make_unique<TracingTransport>(transport);
      transport = client->transport.get();
      client->chunker = std::make_shared<TracingChunker>(options.chunker);
      options.chunker = client->chunker;
    }
    client->proxy = std::make_unique<ClientProxy>(&cluster_->manager(),
                                                  transport, options);
    client->fs = std::make_unique<FileSystem>(client->proxy.get(), kMount);
    clients_.push_back(std::move(client));
    return *clients_.back();
  }

  // Segment-file bytes under the store directory.
  std::uint64_t DiskBytes() const {
    std::uint64_t total = 0;
    std::error_code ec;
    for (auto it = std::filesystem::recursive_directory_iterator(dir_, ec);
         it != std::filesystem::recursive_directory_iterator();
         it.increment(ec)) {
      if (ec) break;
      if (it->is_regular_file(ec)) total += it->file_size(ec);
    }
    return total;
  }

  Counters Read() const {
    Counters c;
    for (const auto& client : clients_) {
      if (client->transport == nullptr) continue;  // an undecorated client
      c.put_bytes += client->transport->put_bytes();
      c.failed_ops += client->transport->failed_ops();
      c.boundaries += client->chunker->boundaries();
    }
    for (const TracingStore* store : stores_) c.fsyncs += store->Stats().fsyncs;
    return c;
  }

 private:
  std::string dir_;
  std::vector<TracingStore*> stores_;  // in benefactor order
  std::unique_ptr<StdchkCluster> cluster_;
  std::vector<std::unique_ptr<Client>> clients_;
};

ClientOptions StormOptions(bool erasure) {
  ClientOptions options;
  options.protocol = stdchk::WriteProtocol::kSlidingWindow;
  options.semantics = stdchk::WriteSemantics::kPessimistic;
  options.chunk_size = kChunk;
  options.chunker = std::make_shared<stdchk::FixedSizeChunker>(kChunk);
  if (erasure) {
    options.erasure = {4, 2};
  } else {
    options.replication_target = 2;
  }
  return options;
}

// Complete-local write: the image is chunked as it streams in and drains
// once at close(), so each version costs one dedup lookup and at most one
// PUT batch (one fsync) per benefactor instead of one per 1 MiB window.
ClientOptions ChainOptions() {
  ClientOptions options;
  options.protocol = stdchk::WriteProtocol::kCompleteLocal;
  options.chunker =
      std::make_shared<stdchk::ContentBasedChunker>(stdchk::CbchParams{});
  options.incremental_fsch = true;
  return options;
}

std::string PathOf(const CheckpointName& name) {
  return std::string(kMount) + "/" + name.app + "/" + name.ToString();
}

// open → write()* → close() through the client write session; the
// returned latency is how long the application is blocked.
bool WriteImage(Client& client, const CheckpointName& name,
                std::span<const std::uint8_t> data, std::uint32_t op,
                Samples& samples, Failures& failures,
                VersionRecord* committed = nullptr) {
  SetCurrentOp(op);
  const std::int64_t t0 = NowNs();
  auto created = [&] {
    TraceScope span(Layer::kClientCreate);
    return client.proxy->CreateFile(name);
  }();
  if (!created.ok()) {
    failures.Op("create " + name.ToString() + ": " +
                created.status().ToString());
    return false;
  }
  WriteSession& session = *created.value();
  for (std::size_t off = 0; off < data.size(); off += kChunk) {
    const std::size_t n = std::min(kChunk, data.size() - off);
    TraceScope span(Layer::kClientWrite, n);
    Status status = session.Write(data.subspan(off, n));
    if (!status.ok()) {
      failures.Op("write " + name.ToString() + ": " + status.ToString());
      return false;
    }
  }
  const WriteStats before = session.stats();
  auto closed = [&] {
    TraceScope span(Layer::kClientClose, data.size());
    return session.Close();
  }();
  const std::int64_t t1 = NowNs();
  if (!closed.ok() || closed.value() != stdchk::CloseOutcome::kCommitted) {
    failures.Op("close " + name.ToString() + ": " +
                (closed.ok() ? std::string("not committed")
                             : closed.status().ToString()));
    return false;
  }
  const WriteStats& after = session.stats();
  WriteTotals& t = samples.writes;
  t.bytes += data.size();
  t.hash_ns += after.hash_ns;
  t.encode_ns += after.erasure_encode_ns;
  t.close_hash_ns += after.hash_ns - before.hash_ns;
  t.close_encode_ns += after.erasure_encode_ns - before.erasure_encode_ns;
  t.chunks += after.chunks_total;
  t.chunks_reused += after.chunks_deduplicated;
  samples.ckpt_ms.push_back(Seconds(t1 - t0) * 1e3);
  if (committed != nullptr) {
    committed->chunk_map = session.chunk_map();
    committed->size = session.file_size();
  }
  return true;
}

// open → read()* through the FileSystem facade into `buf`; the latency
// runs until the last byte has arrived.
bool ReadImage(Client& client, const CheckpointName& name, std::size_t size,
               std::uint32_t op, Bytes& buf, Samples& samples,
               Failures& failures) {
  SetCurrentOp(op);
  const std::string path = PathOf(name);
  buf.resize(size);
  const std::int64_t t0 = NowNs();
  auto opened = [&] {
    TraceScope span(Layer::kFsOpen);
    return client.fs->Open(path, stdchk::OpenMode::kRead);
  }();
  if (!opened.ok()) {
    failures.Op("open " + path + ": " + opened.status().ToString());
    return false;
  }
  const stdchk::Fd fd = opened.value();
  std::size_t got = 0;
  bool ok = true;
  while (got < size) {
    const std::size_t want = std::min(kReadPiece, size - got);
    auto n = [&] {
      TraceScope span(Layer::kFsRead);
      return client.fs->Read(fd, stdchk::MutableByteSpan(buf.data() + got,
                                                         want));
    }();
    if (!n.ok()) {
      failures.Op("read " + path + ": " + n.status().ToString());
      ok = false;
      break;
    }
    if (n.value() == 0) break;
    got += n.value();
  }
  const std::int64_t t1 = NowNs();
  {
    TraceScope span(Layer::kFsClose);
    Status status = client.fs->Close(fd);
    if (!status.ok()) ok = false;
  }
  if (!ok) return false;
  if (got != size) {
    failures.Op("short read of " + path);
    return false;
  }
  samples.restore_ms.push_back(Seconds(t1 - t0) * 1e3);
  samples.restored_bytes += size;
  samples.restore_ns += t1 - t0;
  return true;
}

// Every version the catalog still holds.
std::vector<VersionRecord> RetainedVersions(StdchkCluster& cluster) {
  std::vector<VersionRecord> out;
  auto apps = cluster.manager().ListApps();
  if (!apps.ok()) return out;
  for (const std::string& app : apps.value()) {
    auto names = cluster.manager().ListVersions(app);
    if (!names.ok()) continue;
    for (const CheckpointName& name : names.value()) {
      auto record = cluster.manager().GetVersion(name);
      if (record.ok()) out.push_back(std::move(record).value());
    }
  }
  return out;
}

// GC check: after Settle(), each store's put/delete ledger must hold
// exactly the chunks (replicas and shards) the retained versions reference,
// and exactly the chunks the store itself lists.
void CheckLedger(Rig& rig, const std::vector<VersionRecord>& retained,
                 Failures& failures) {
  std::map<NodeId, std::set<ChunkId>> referenced;
  for (const VersionRecord& record : retained) {
    for (const stdchk::ChunkLocation& loc : record.chunk_map.chunks) {
      for (NodeId node : loc.replicas) referenced[node].insert(loc.id);
      for (const stdchk::ShardLocation& shard : loc.shards) {
        if (shard.node != stdchk::kInvalidNode) {
          referenced[shard.node].insert(shard.id);
        }
      }
    }
  }
  for (std::size_t i = 0; i < rig.stores().size(); ++i) {
    const NodeId node = rig.cluster().benefactor(i).id();
    const TracingStore& store = *rig.stores()[i];
    const std::set<ChunkId> held = store.ledger();
    const std::set<ChunkId>& want = referenced[node];
    std::size_t unreferenced = 0, missing = 0;
    for (const ChunkId& id : held) unreferenced += want.count(id) == 0;
    for (const ChunkId& id : want) missing += held.count(id) == 0;
    failures.Check(missing == 0 && unreferenced == 0,
                   "node " + std::to_string(node) + " ledger: " +
                       std::to_string(missing) +
                       " referenced chunks missing, " +
                       std::to_string(unreferenced) + " unreferenced kept");
    const std::vector<ChunkId> listed = store.List();
    failures.Check(std::set<ChunkId>(listed.begin(), listed.end()) == held,
                   "node " + std::to_string(node) + " lists " +
                       std::to_string(listed.size()) +
                       " chunks, its ledger holds " +
                       std::to_string(held.size()));
    failures.Check(store.failed_updates() == 0,
                   "node " + std::to_string(node) + " had " +
                       std::to_string(store.failed_updates()) +
                       " failed puts or wipes; its ledger is unsure");
  }
}

// ---- Result reporting --------------------------------------------------

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

struct Outcome {
  Samples samples;
  std::int64_t write_ns = 0;  // timed write phase
  std::int64_t read_ns = 0;   // timed read phase (0: use summed restores)
  double setup_s = 0;
  Counters phase;  // over the timed phase
  std::uint64_t stored_bytes = 0;
  std::uint64_t live_bytes = 0;
  double peak_anon_mib = 0;
};

std::vector<Metric> EndToEnd(const Outcome& o) {
  const Samples& s = o.samples;
  const double read_s =
      Seconds(o.read_ns > 0 ? o.read_ns : s.restore_ns);
  return {
      {"setup_s", o.setup_s, "s"},
      {"write_MBps", MiB(s.writes.bytes) / Seconds(o.write_ns), "MiB/s"},
      {"ckpt_mean_ms", Mean(s.ckpt_ms), "ms"},
      {"read_MBps", MiB(s.restored_bytes) / read_s, "MiB/s"},
      {"restore_mean_ms", Mean(s.restore_ms), "ms"},
      {"net_bytes_per_app_byte",
       static_cast<double>(o.phase.put_bytes) / s.writes.bytes, "B/B"},
      {"stored_bytes_per_live_byte",
       static_cast<double>(o.stored_bytes) / o.live_bytes, "B/B"},
      {"peak_rss_MiB", o.peak_anon_mib, "MiB"},
  };
}

struct LayerTotals {
  std::uint64_t count = 0;
  std::int64_t total_ns = 0;
  std::int64_t self_ns = 0;
  std::uint64_t bytes = 0;
};

// Derives per-layer totals and self times from the recorded spans, and
// writes the spans out as TSV.
std::vector<LayerTotals> Aggregate(const std::string& trace_path,
                                   std::uint64_t* span_count) {
  std::vector<LayerTotals> totals(static_cast<int>(Layer::kCount));
  std::FILE* out =
      trace_path.empty() ? nullptr : std::fopen(trace_path.c_str(), "w");
  if (out != nullptr) {
    std::fprintf(out,
                 "thread\tindex\tparent\top\tlayer\tstart_ns\tend_ns\tbytes\n");
  }
  *span_count = 0;
  std::uint32_t thread = 0;
  for (const auto& buf : Tracer::Get().buffers()) {
    const std::vector<Span>& spans = buf->spans;
    std::vector<std::int64_t> child_ns(spans.size(), 0);
    for (const Span& span : spans) {
      if (span.parent != kNoParent) {
        child_ns[span.parent] += span.end_ns - span.start_ns;
      }
    }
    for (std::size_t i = 0; i < spans.size(); ++i) {
      const Span& span = spans[i];
      LayerTotals& t = totals[static_cast<int>(span.layer)];
      const std::int64_t dur = span.end_ns - span.start_ns;
      ++t.count;
      t.total_ns += dur;
      t.self_ns += dur - child_ns[i];
      t.bytes += span.bytes;
      if (out != nullptr) {
        std::fprintf(out,
                     "%u\t%zu\t%d\t%u\t%s\t%" PRId64 "\t%" PRId64 "\t%" PRIu64
                     "\n",
                     thread, i,
                     span.parent == kNoParent ? -1
                                              : static_cast<int>(span.parent),
                     span.op, LayerName(span.layer), span.start_ns,
                     span.end_ns, span.bytes);
      }
    }
    *span_count += spans.size();
    ++thread;
  }
  if (out != nullptr) std::fclose(out);
  return totals;
}

std::vector<Metric> PerLayer(const Outcome& o, const std::string& trace_path,
                             std::uint64_t disk_bytes) {
  std::uint64_t span_count = 0;
  const std::vector<LayerTotals> t = Aggregate(trace_path, &span_count);
  auto at = [&](Layer layer) -> const LayerTotals& {
    return t[static_cast<int>(layer)];
  };
  auto ms = [](std::int64_t ns) { return static_cast<double>(ns) / 1e6; };
  const WriteTotals& w = o.samples.writes;
  const LayerTotals& scan = at(Layer::kScan);
  const double put_mib = MiB(at(Layer::kStorePutBatch).bytes +
                             at(Layer::kStorePut).bytes);
  const std::vector<Metric> e2e = EndToEnd(o);
  auto e2e_value = [&](const std::string& name) {
    for (const Metric& m : e2e) {
      if (m.name == name) return m.value;
    }
    return 0.0;
  };
  const Samples& s = o.samples;
  return {
      {"fs.open_ms", ms(at(Layer::kFsOpen).total_ns), "ms"},
      {"client.create_ms", ms(at(Layer::kClientCreate).total_ns), "ms"},
      {"chkpt.scan_ms", ms(scan.total_ns), "ms"},
      {"chkpt.scan_MBps",
       scan.total_ns > 0 ? MiB(scan.bytes) / Seconds(scan.total_ns) : 0,
       "MiB/s"},
      {"chkpt.boundaries", static_cast<double>(o.phase.boundaries), "count"},
      {"client.hash_ms", ms(static_cast<std::int64_t>(w.hash_ns)), "ms"},
      {"erasure.encode_ms", ms(static_cast<std::int64_t>(w.encode_ns)), "ms"},
      {"client.write_self_ms",
       ms(at(Layer::kClientWrite).self_ns -
          static_cast<std::int64_t>(w.hash_ns - w.close_hash_ns +
                                    w.encode_ns - w.close_encode_ns)),
       "ms"},
      {"client.close_self_ms",
       ms(at(Layer::kClientClose).self_ns -
          static_cast<std::int64_t>(w.close_hash_ns + w.close_encode_ns)),
       "ms"},
      {"client.read_self_ms", ms(at(Layer::kFsRead).self_ns), "ms"},
      {"client.dedup_hit_ratio",
       w.chunks > 0 ? static_cast<double>(w.chunks_reused) / w.chunks : 0,
       "ratio"},
      {"core.submit_put_ms", ms(at(Layer::kSubmitPut).total_ns), "ms"},
      {"core.submit_get_ms", ms(at(Layer::kSubmitGet).total_ns), "ms"},
      {"core.wait_put_ms", ms(at(Layer::kWaitPut).total_ns), "ms"},
      {"core.wait_get_ms", ms(at(Layer::kWaitGet).total_ns), "ms"},
      {"core.transport_self_ms",
       ms(at(Layer::kSubmitPut).self_ns + at(Layer::kSubmitGet).self_ns +
          at(Layer::kSubmitOther).self_ns),
       "ms"},
      {"core.put_ops", static_cast<double>(at(Layer::kSubmitPut).count),
       "count"},
      {"core.get_ops", static_cast<double>(at(Layer::kSubmitGet).count),
       "count"},
      {"core.failed_ops", static_cast<double>(o.phase.failed_ops), "count"},
      {"core.put_MiB", MiB(at(Layer::kSubmitPut).bytes), "MiB"},
      {"core.get_MiB", MiB(at(Layer::kWaitGet).bytes), "MiB"},
      {"core.tick_ms", ms(at(Layer::kTick).total_ns), "ms"},
      {"chunk.put_batch_ms", ms(at(Layer::kStorePutBatch).total_ns), "ms"},
      {"chunk.put_batches",
       static_cast<double>(at(Layer::kStorePutBatch).count), "count"},
      {"chunk.put_MiB", put_mib, "MiB"},
      {"chunk.fsyncs", static_cast<double>(o.phase.fsyncs), "count"},
      {"chunk.fsyncs_per_GiB",
       put_mib > 0 ? static_cast<double>(o.phase.fsyncs) / (put_mib / 1024)
                   : 0,
       "1/GiB"},
      {"chunk.get_ms", ms(at(Layer::kStoreGet).total_ns), "ms"},
      {"chunk.gets", static_cast<double>(at(Layer::kStoreGet).count),
       "count"},
      {"chunk.delete_ms", ms(at(Layer::kStoreDelete).total_ns), "ms"},
      {"chunk.compact_ms", ms(at(Layer::kStoreCompact).total_ns), "ms"},
      {"chunk.disk_MiB", MiB(disk_bytes), "MiB"},
      {"trace.spans", static_cast<double>(span_count), "count"},
      {"traced.write_MBps", e2e_value("write_MBps"), "MiB/s"},
      {"traced.ckpt_mean_ms", e2e_value("ckpt_mean_ms"), "ms"},
      {"traced.ckpt_p50_ms", Percentile(s.ckpt_ms, 0.5), "ms"},
      {"traced.ckpt_p90_ms", Percentile(s.ckpt_ms, 0.9), "ms"},
      {"traced.read_MBps", e2e_value("read_MBps"), "MiB/s"},
      {"traced.restore_mean_ms", e2e_value("restore_mean_ms"), "ms"},
      {"traced.restore_p50_ms", Percentile(s.restore_ms, 0.5), "ms"},
      {"traced.restore_p90_ms", Percentile(s.restore_ms, 0.9), "ms"},
  };
}

void PrintResult(bool correct, std::uint64_t attempted, std::uint64_t failed,
                 const std::vector<Metric>& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %" PRIu64
              ", \"failed\": %" PRIu64 ", \"metrics\": {",
              correct ? "true" : "false", attempted, failed);
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const double v = std::isfinite(metrics[i].value) ? metrics[i].value : 0;
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", metrics[i].name.c_str(), v,
                metrics[i].unit.c_str());
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

// ---- Workloads ---------------------------------------------------------

// storm: all of a job's processes checkpoint at once, round after round,
// then every image is read back, pass after pass.
void RunStorm(const Options& opt, Rig& rig, Outcome& o, Failures& failures) {
  std::vector<Client*> clients;
  std::vector<std::unique_ptr<RandomImages>> images;
  for (int w = 0; w < kStormWriters; ++w) {
    clients.push_back(&rig.AddClient(StormOptions(/*erasure=*/w % 2 == 1)));
    images.push_back(
        std::make_unique<RandomImages>(opt.seed, w, kStormImage));
  }
  auto name = [](int w, std::uint64_t r) {
    return CheckpointName{"storm", "N" + std::to_string(w), r};
  };
  o.setup_s = Seconds(NowNs() - g_process_start_ns);
  Tracer::Get().set_enabled(opt.trace);
  const Counters c0 = rig.Read();

  // Write phase: whole rounds until the write share of the run is spent.
  const std::int64_t t0 = NowNs();
  const std::int64_t write_deadline =
      t0 + static_cast<std::int64_t>(opt.seconds * kStormWriteShare * 1e9);
  std::atomic<bool> stop{false};
  std::uint64_t rounds = 0;
  std::int64_t write_end = t0;
  std::barrier sync(kStormWriters, [&]() noexcept {
    ++rounds;
    write_end = NowNs();
    if (write_end >= write_deadline &&
        rounds * kStormWriters >= kMinSamples) {
      stop = true;
    }
  });
  std::vector<Samples> per_thread(kStormWriters);
  {
    std::vector<std::jthread> threads;
    for (int w = 0; w < kStormWriters; ++w) {
      threads.emplace_back([&, w] {
        for (std::uint64_t r = 0; !stop; ++r) {
          WriteImage(*clients[w], name(w, r), images[w]->Image(r),
                     static_cast<std::uint32_t>(r * kStormWriters + w),
                     per_thread[w], failures);
          sync.arrive_and_wait();
        }
      });
    }
  }
  o.write_ns = write_end - t0;

  // Read phase: whole passes, in each of which every writer restores each
  // of its images, until the rest of the run is spent. One pass takes only
  // a few seconds, too short to average over the host's slow spells.
  const std::int64_t t1 = NowNs();
  const std::int64_t read_deadline =
      t0 + static_cast<std::int64_t>(opt.seconds * 1e9);
  std::atomic<bool> read_stop{false};
  std::int64_t read_end = t1;
  std::barrier pass_sync(kStormWriters, [&]() noexcept {
    read_end = NowNs();
    if (read_end >= read_deadline) read_stop = true;
  });
  {
    std::vector<std::jthread> threads;
    for (int w = 0; w < kStormWriters; ++w) {
      threads.emplace_back([&, w] {
        Bytes buf, expected;
        for (std::uint64_t p = 0; !read_stop; ++p) {
          for (std::uint64_t r = 0; r < rounds; ++r) {
            const std::uint32_t op = static_cast<std::uint32_t>(
                ((p + 1) * rounds + r) * kStormWriters + w);
            if (ReadImage(*clients[w], name(w, r), kStormImage, op, buf,
                          per_thread[w], failures)) {
              failures.Check(images[w]->Matches(r, buf, expected),
                             "storm image " + name(w, r).ToString() +
                                 " read back differs");
            }
          }
          pass_sync.arrive_and_wait();
        }
      });
    }
  }
  o.read_ns = read_end - t1;
  Tracer::Get().set_enabled(false);
  o.phase = rig.Read() - c0;
  for (const Samples& s : per_thread) o.samples.Add(s);

  // PUT bytes: 2 replicas for r=2 writers; 6 shards of 256 KiB per 1 MiB
  // chunk (1.5x) for RS(4,2) writers.
  for (int w = 0; w < kStormWriters; ++w) {
    const std::uint64_t app = per_thread[w].writes.bytes;
    const std::uint64_t want = w % 2 == 0 ? app * 2 : app * 3 / 2;
    const std::uint64_t got = clients[w]->transport->put_bytes();
    failures.Check(got == want, "storm writer " + std::to_string(w) +
                                    " shipped " + std::to_string(got) +
                                    " PUT bytes, expected " +
                                    std::to_string(want));
  }
}

// incremental: chains of one process's successive images, compare-by-hash
// deduplicated, with the cluster's background pump between checkpoints.
// Each chain is a fresh application folder, so a run is a whole number of
// identical rounds and its space and network ratios do not drift with how
// many rounds fit into the run.
void RunIncremental(const Options& opt, Rig& rig, Outcome& o,
                    Failures& failures) {
  Client& client = rig.AddClient(ChainOptions());
  stdchk::FolderPolicy policy;
  policy.retention = stdchk::RetentionPolicy::kAutomatedReplace;
  policy.keep_last = 2;
  o.setup_s = Seconds(NowNs() - g_process_start_ns);
  Tracer::Get().set_enabled(opt.trace);
  const Counters c0 = rig.Read();

  const std::int64_t t0 = NowNs();
  const std::int64_t deadline =
      t0 + static_cast<std::int64_t>(opt.seconds * 1e9);
  Bytes buf;
  std::uint64_t versions = 0;
  for (std::uint64_t c = 0; NowNs() < deadline || versions < kMinSamples;
       ++c) {
    const std::string app = "inc" + std::to_string(c);
    Status set = client.fs->SetPolicy(std::string(kMount) + "/" + app, policy);
    failures.Check(set.ok(), "set folder policy: " + set.ToString());
    ImageChain chain(MixSeed(opt.seed, 0x1C, c));
    for (std::uint64_t v = 0; v < kChainVersions; ++v, ++versions) {
      if (v > 0) chain.Step();
      const CheckpointName name{app, "N0", v};
      const std::uint32_t op = static_cast<std::uint32_t>(versions);
      const std::uint64_t shipped0 = client.transport->put_bytes();
      const std::int64_t w0 = NowNs();
      const bool wrote =
          WriteImage(client, name, chain.image(), op, o.samples, failures);
      const std::int64_t w1 = NowNs();
      if (wrote) {
        const std::uint64_t shipped =
            client.transport->put_bytes() - shipped0;
        failures.Check(shipped >= chain.changed_bytes(),
                       name.ToString() + " shipped " +
                           std::to_string(shipped) + " bytes but changed " +
                           std::to_string(chain.changed_bytes()));
        if (ReadImage(client, name, chain.image().size(), op, buf, o.samples,
                      failures)) {
          failures.Check(buf == chain.image(),
                         name.ToString() + " read back differs");
        }
      }
      const std::int64_t k0 = NowNs();
      {
        TraceScope span(Layer::kTick);
        rig.cluster().Tick();
      }
      o.write_ns += (w1 - w0) + (NowNs() - k0);
    }
  }
  Tracer::Get().set_enabled(false);
  o.phase = rig.Read() - c0;
}

// restart: a benefactor has crashed; readers restore preloaded images
// (replica failover and parity reconstruction) while a writer keeps
// checkpointing beside them.
void RunRestart(const Options& opt, Rig& rig, Outcome& o,
                Failures& failures) {
  // Preload: image i comes from writer i % 4 — even writers r=2, odd
  // writers RS(4,2).
  std::vector<Client*> loaders;
  std::vector<std::unique_ptr<RandomImages>> images;
  for (int w = 0; w < kStormWriters; ++w) {
    loaders.push_back(&rig.AddClient(StormOptions(w % 2 == 1)));
    images.push_back(
        std::make_unique<RandomImages>(opt.seed, w, kRestartImage));
  }
  auto preload_name = [](int i) {
    return CheckpointName{"job", "N" + std::to_string(i % kStormWriters),
                          static_cast<std::uint64_t>(i / kStormWriters)};
  };
  {
    std::vector<std::jthread> threads;
    for (int w = 0; w < kStormWriters; ++w) {
      threads.emplace_back([&, w] {
        Samples mine;
        for (int i = w; i < kPreloadImages; i += kStormWriters) {
          WriteImage(*loaders[w], preload_name(i),
                     images[w]->Image(i / kStormWriters), 0, mine, failures);
        }
      });
    }
  }
  Status crashed = rig.cluster().CrashBenefactor(kCrashedNode);
  failures.Check(crashed.ok(), "crash benefactor: " + crashed.ToString());
  const NodeId crashed_id = rig.cluster().benefactor(kCrashedNode).id();
  std::vector<Client*> readers;
  for (int r = 0; r < kRestartReaders; ++r) {
    readers.push_back(&rig.AddClient(StormOptions(false)));
  }
  Client* writers[2] = {&rig.AddClient(StormOptions(false)),
                        &rig.AddClient(StormOptions(true))};
  RandomImages writer_images(opt.seed, kStormWriters, kRestartImage);
  o.setup_s = Seconds(NowNs() - g_process_start_ns);
  Tracer::Get().set_enabled(opt.trace);
  const Counters c0 = rig.Read();

  const std::int64_t t0 = NowNs();
  const std::int64_t deadline =
      t0 + static_cast<std::int64_t>(opt.seconds * 1e9);
  std::atomic<std::uint64_t> restores{0};
  std::atomic<std::uint64_t> ckpts{0};
  std::atomic<bool> stop{false};
  std::vector<Samples> per_thread(kRestartReaders + 1);
  std::vector<std::vector<int>> restored_by(kRestartReaders);
  std::uint64_t written = 0;
  {
    std::vector<std::jthread> threads;
    for (int r = 0; r < kRestartReaders; ++r) {
      threads.emplace_back([&, r] {
        // Each reader walks its own seeded permutation of the preload.
        std::vector<int> order(kPreloadImages);
        for (int i = 0; i < kPreloadImages; ++i) order[i] = i;
        Prng rng(MixSeed(opt.seed, 0x4EAD, r));
        Bytes buf, expected;
        for (std::uint64_t n = 0; !stop; ++n) {
          if (n % kPreloadImages == 0) {
            for (int i = kPreloadImages - 1; i > 0; --i) {
              std::swap(order[i], order[rng.Range(0, i)]);
            }
          }
          const int i = order[n % kPreloadImages];
          const std::uint32_t op = static_cast<std::uint32_t>(
              (n * kRestartReaders + r) * 2 + 1);
          if (ReadImage(*readers[r], preload_name(i), kRestartImage, op, buf,
                        per_thread[r], failures)) {
            failures.Check(images[i % kStormWriters]->Matches(
                               i / kStormWriters, buf, expected),
                           "restored " + preload_name(i).ToString() +
                               " differs");
            restored_by[r].push_back(i);
          }
          restores.fetch_add(1);
        }
      });
    }
    threads.emplace_back([&] {
      for (std::uint64_t k = 0;; ++k) {
        WriteImage(*writers[k % 2], CheckpointName{"job", "W", k},
                   writer_images.Image(k), static_cast<std::uint32_t>(k * 2),
                   per_thread[kRestartReaders], failures);
        written = k + 1;
        ckpts.fetch_add(1);
        // Stop after an RS(4,2) image, so r=2 and RS(4,2) stay in step.
        if (k % 2 == 1 && NowNs() >= deadline && ckpts >= kMinSamples &&
            restores >= kMinSamples) {
          stop = true;
          break;
        }
      }
    });
  }
  o.write_ns = NowNs() - t0;
  o.read_ns = o.write_ns;
  Tracer::Get().set_enabled(false);
  o.phase = rig.Read() - c0;
  for (const Samples& s : per_thread) o.samples.Add(s);

  // The crashed benefactor answered no GET, and was asked.
  std::uint64_t crashed_ok = 0, crashed_failed = 0;
  for (Client* reader : readers) {
    auto gets = reader->transport->gets_by_node();
    crashed_ok += gets[crashed_id].ok;
    crashed_failed += gets[crashed_id].failed;
  }
  failures.Check(crashed_ok == 0 && crashed_failed > 0,
                 "GETs to the crashed benefactor: " +
                     std::to_string(crashed_ok) + " succeeded, " +
                     std::to_string(crashed_failed) + " failed");
  // Every RS(4,2) preload image was restored (byte-exact, checked above).
  std::set<int> restored;
  for (const auto& list : restored_by) {
    restored.insert(list.begin(), list.end());
  }
  for (int i = 1; i < kPreloadImages; i += 2) {
    failures.Check(restored.count(i) == 1,
                   "RS(4,2) image " + preload_name(i).ToString() +
                       " was never restored");
  }
  // The writer's images, read back once outside the timed phase.
  Bytes buf, expected;
  Samples ignored;
  for (std::uint64_t k = 0; k < written; ++k) {
    const CheckpointName name{"job", "W", k};
    if (ReadImage(*readers[0], name, kRestartImage, 0, buf, ignored,
                  failures)) {
      failures.Check(writer_images.Matches(k, buf, expected),
                     name.ToString() + " read back differs");
    }
  }
  Status restarted = rig.cluster().RestartBenefactor(kCrashedNode);
  failures.Check(restarted.ok(), "restart benefactor: " + restarted.ToString());
}

std::string FsType(const std::string& dir) {
  struct statfs st{};
  if (statfs(dir.c_str(), &st) != 0) return "unknown";
  switch (static_cast<unsigned long>(st.f_type)) {
    case 0xEF53: return "ext4";
    case 0x58465342: return "xfs";
    case 0x9123683E: return "btrfs";
    case 0x01021994: return "tmpfs";
    case 0x794C7630: return "overlayfs";
    default: {
      char hex[32];
      std::snprintf(hex, sizeof(hex), "0x%lx",
                    static_cast<unsigned long>(st.f_type));
      return hex;
    }
  }
}

int RunWorkload(const Options& opt) {
  AnonPeak anon_peak;
  Failures failures;
  Outcome o;
  std::uint64_t disk_bytes = 0;
  {
    Rig rig(opt.store_dir, /*decorate=*/true);
    if (!rig.healthy()) {
      std::fprintf(stderr, "could not open %d disk stores under %s\n", kNodes,
                   opt.store_dir.c_str());
      return 1;
    }
    std::fprintf(stderr, "store directory %s on %s\n", opt.store_dir.c_str(),
                 FsType(opt.store_dir).c_str());
    if (opt.workload == "storm") {
      RunStorm(opt, rig, o, failures);
    } else if (opt.workload == "incremental") {
      RunIncremental(opt, rig, o, failures);
    } else {
      RunRestart(opt, rig, o, failures);
    }
    rig.cluster().Settle();
    const std::vector<VersionRecord> retained =
        RetainedVersions(rig.cluster());
    for (const VersionRecord& record : retained) o.live_bytes += record.size;
    CheckLedger(rig, retained, failures);
    o.stored_bytes = disk_bytes = rig.DiskBytes();
    std::uint64_t used = 0;
    for (int i = 0; i < kNodes; ++i) {
      used += rig.cluster().benefactor(i).BytesUsed();
    }
    std::fprintf(stderr,
                 "%zu versions retained, %.1f MiB live; %.1f MiB of segment "
                 "files, stores report %.1f MiB\n",
                 retained.size(), MiB(o.live_bytes), MiB(disk_bytes),
                 MiB(used));
  }
  o.peak_anon_mib = anon_peak.Stop();
  const Samples& s = o.samples;
  if (s.ckpt_ms.size() < kMinSamples || s.restore_ms.size() < kMinSamples) {
    failures.Check(false, "too few samples for p90: " +
                              std::to_string(s.ckpt_ms.size()) + " ckpts, " +
                              std::to_string(s.restore_ms.size()) +
                              " restores");
  }
  std::fprintf(stderr,
               "%zu checkpoints, %zu restores, %.1f MiB written, %.1f MiB "
               "restored\n",
               s.ckpt_ms.size(), s.restore_ms.size(), MiB(s.writes.bytes),
               MiB(s.restored_bytes));
  const std::uint64_t attempted = s.ckpt_ms.size() + s.restore_ms.size() +
                                  failures.ops();
  const bool correct = failures.checks() == 0;
  if (opt.trace) {
    const std::string path =
        opt.trace_dir.empty() ? ""
                              : opt.trace_dir + "/" + opt.workload +
                                    ".spans.tsv";
    PrintResult(correct, attempted, failures.ops(),
                PerLayer(o, path, disk_bytes));
  } else {
    PrintResult(correct, attempted, failures.ops(), EndToEnd(o));
  }
  return correct ? 0 : 1;
}

bool SameLocation(const stdchk::ChunkLocation& a,
                  const stdchk::ChunkLocation& b) {
  return a.id == b.id && a.file_offset == b.file_offset && a.size == b.size &&
         a.replicas == b.replicas && a.ec_k == b.ec_k && a.ec_m == b.ec_m &&
         a.shards == b.shards;
}

// Behaviour neutrality of the decorators: the same single-threaded
// sequence (replicated and RS(4,2) FsCH images, then a deduplicated CbCH
// chain with the background pump between versions) runs once through the
// decorated stack with tracing off and once through the bare program. Every
// committed image must have the same size and the same chunk map, replica
// and shard placement included, and every node must hold the same bytes
// written with the same number of batches, syscalls and fsyncs.
int CheckNeutral(const Options& opt) {
  struct Run {
    std::vector<VersionRecord> committed;
    // Per node: bytes held, then the store's batch, write-syscall, fsync
    // and segment counts (a decorator that split batches would change them).
    std::vector<std::array<std::uint64_t, 5>> node_io;
    std::uint64_t failed_ops = 0;
  };
  auto run = [&](bool decorate) {
    Run out;
    Rig rig(opt.store_dir + (decorate ? "/decorated" : "/bare"), decorate);
    Client& replicated = rig.AddClient(StormOptions(false), decorate);
    Client& coded = rig.AddClient(StormOptions(true), decorate);
    Client& chained = rig.AddClient(ChainOptions(), decorate);
    stdchk::FolderPolicy policy;
    policy.retention = stdchk::RetentionPolicy::kAutomatedReplace;
    policy.keep_last = 2;
    (void)chained.fs->SetPolicy(std::string(kMount) + "/inc", policy);
    Failures failures;
    Samples samples;
    auto write = [&](Client& client, const CheckpointName& name,
                     std::span<const std::uint8_t> data) {
      WriteImage(client, name, data, 0, samples, failures);
      auto record = rig.cluster().manager().GetVersion(name);
      if (record.ok()) out.committed.push_back(std::move(record).value());
    };
    RandomImages images(opt.seed, 0, 4 * kMiB);
    for (std::uint64_t k = 0; k < 6; ++k) {
      write(k % 2 == 0 ? replicated : coded, {"fixed", "N0", k},
            images.Image(k));
    }
    ImageChain chain(opt.seed, BlcrParams{.pages = 1024});
    for (std::uint64_t v = 0; v < 8; ++v) {
      if (v > 0) chain.Step();
      write(chained, {"inc", "N0", v}, chain.image());
      rig.cluster().Tick();
    }
    for (int i = 0; i < kNodes; ++i) {
      const stdchk::Benefactor& node = rig.cluster().benefactor(i);
      const stdchk::ChunkStoreStats io = node.StoreStats();
      out.node_io.push_back({node.BytesUsed(), io.put_batches,
                             io.data_syscalls, io.fsyncs,
                             io.segments_created});
    }
    out.failed_ops = failures.ops();
    return out;
  };
  const Run decorated = run(true);
  const Run bare = run(false);
  std::error_code ec;
  std::filesystem::remove_all(opt.store_dir, ec);
  bool same = decorated.failed_ops == 0 && bare.failed_ops == 0 &&
              decorated.committed.size() == 14 &&
              bare.committed.size() == decorated.committed.size() &&
              decorated.node_io == bare.node_io;
  for (std::size_t i = 0; same && i < bare.committed.size(); ++i) {
    const VersionRecord& a = decorated.committed[i];
    const VersionRecord& b = bare.committed[i];
    same = a.size == b.size &&
           a.chunk_map.chunks.size() == b.chunk_map.chunks.size();
    for (std::size_t c = 0; same && c < a.chunk_map.chunks.size(); ++c) {
      same = SameLocation(a.chunk_map.chunks[c], b.chunk_map.chunks[c]);
    }
    if (!same) {
      std::fprintf(stderr, "image %s differs\n", a.name.ToString().c_str());
    }
  }
  std::printf("decorators %s: %zu committed images compared\n",
              same ? "neutral" : "NOT neutral", bare.committed.size());
  return same ? 0 : 1;
}

// The incremental workload's inputs set against the paper's Table 3: the
// average share of each image's bytes that lies in chunks its predecessor
// also has, over a 16-image chain, for FsCH at three chunk sizes and for
// the CbCH chunker the workload writes with.
int CheckSimilarity(const Options& opt) {
  const stdchk::FixedSizeChunker fsch_1k(1024), fsch_256k(256 * 1024),
      fsch_1m(kChunk);
  const stdchk::ContentBasedChunker cbch(stdchk::CbchParams{});
  const std::pair<const char*, const stdchk::Chunker*> chunkers[] = {
      {"FsCH 1 KiB", &fsch_1k},
      {"FsCH 256 KiB", &fsch_256k},
      {"FsCH 1 MiB", &fsch_1m},
      {"CbCH (CbchParams{})", &cbch}};
  std::vector<stdchk::SimilarityTracker> trackers;
  for (const auto& [label, chunker] : chunkers) trackers.emplace_back(chunker);
  ImageChain chain(MixSeed(opt.seed, 0x1C, 0));
  std::uint64_t changed = 0, bytes = 0;
  for (int v = 0; v < 16; ++v) {
    if (v > 0) {
      chain.Step();
      changed += chain.changed_bytes();
      bytes += chain.image().size();
    }
    for (auto& tracker : trackers) tracker.AddImage(chain.image());
  }
  std::printf("fresh bytes per image: %.1f%%\n", 100.0 * changed / bytes);
  for (std::size_t i = 0; i < trackers.size(); ++i) {
    std::printf("%-20s similarity %.1f%%\n", chunkers[i].first,
                100.0 * trackers[i].AverageSimilarity());
  }
  return 0;
}

bool ParseArgs(int argc, char** argv, Options& opt) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    const char* v = nullptr;
    if (arg == "--check-neutral") {
      opt.check_neutral = true;
      continue;
    }
    if (arg == "--check-similarity") {
      opt.check_similarity = true;
      continue;
    }
    if ((v = value()) == nullptr) return false;
    if (arg == "--workload") {
      opt.workload = v;
    } else if (arg == "--seed") {
      opt.seed = std::strtoull(v, nullptr, 10);
    } else if (arg == "--seconds") {
      opt.seconds = std::strtod(v, nullptr);
    } else if (arg == "--trace") {
      opt.trace = std::strcmp(v, "0") != 0;
    } else if (arg == "--launched-ns") {
      g_process_start_ns = std::strtoll(v, nullptr, 10);
    } else if (arg == "--store-dir") {
      opt.store_dir = v;
    } else if (arg == "--trace-dir") {
      opt.trace_dir = v;
    } else {
      return false;
    }
  }
  if (opt.store_dir.empty() || !(opt.seconds > 0)) return false;
  if (opt.check_neutral || opt.check_similarity) return true;
  return opt.workload == "storm" || opt.workload == "incremental" ||
         opt.workload == "restart";
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Options opt;
  if (!perfbench::ParseArgs(argc, argv, opt)) {
    std::fprintf(stderr,
                 "usage: %s --workload storm|incremental|restart --seed N "
                 "--seconds S --trace 0|1 --store-dir DIR [--trace-dir DIR]\n"
                 "       %s --check-neutral|--check-similarity --store-dir DIR\n",
                 argv[0], argv[0]);
    return 2;
  }
  if (opt.check_similarity) return perfbench::CheckSimilarity(opt);
  return opt.check_neutral ? perfbench::CheckNeutral(opt)
                           : perfbench::RunWorkload(opt);
}
