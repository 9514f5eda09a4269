// The four benchmark workloads. Each episode is a closed loop: the driver
// issues the next checkpoint or restart only after the previous one
// returned. See README.md for why each workload exists and which layer it
// stresses.
#include <algorithm>
#include <functional>

#include "apps/desktop.h"
#include "apps/distributed.h"
#include "ckptasync/pipeline.h"
#include "ckptstore/service.h"
#include "cluster/membership.h"
#include "mpi/runtime.h"
#include "obs/critpath.h"
#include "suite.h"
#include "util/rng.h"

namespace dsim::suite {
namespace {

using timeconst::kMillisecond;
using timeconst::kSecond;

/// Per-operation device/CPU jitter. Small, so the simulated metrics move
/// only slightly from seed to seed, but non-zero, so a seed is a different
/// run and not a relabelled copy of the same one.
constexpr double kJitterSigma = 0.01;
/// Virtual-time ceiling for any wait the driver makes (never reached on a
/// healthy run; a stuck run fails its check instead of hanging).
constexpr SimTime kWaitLimit = 600 * kSecond;

// mpi_full: NAS/MG under orte_mpirun, full gzip images to node-local /ckpt.
constexpr int kMpiNodes = 8;
constexpr int kMpiRanks = 32;
constexpr int kMpiIters = 2000;
constexpr int kMpiRounds = 4;
constexpr SimTime kMpiWarmup = 200 * kMillisecond;
constexpr SimTime kMpiGap = 300 * kMillisecond;

// The store population shared by store_write, store_restart and
// async_write: desktop ranks plus store-only nodes for the shard endpoints.
constexpr int kRanks = 8;
constexpr int kStoreNodes = 2;
constexpr u64 kLibBytes = 2ull << 20;   // shared-library ballast per rank
constexpr u64 kHeapBytes = 2ull << 20;  // seeded real heap bytes per rank
constexpr u64 kPageBytes = 64 * 1024;
constexpr u64 kDirtyBytes = 16 * 1024;  // fresh bytes per dirtied page
constexpr int kDirtyPagesPct = 25;
constexpr SimTime kStoreWarmup = 200 * kMillisecond;
constexpr int kWriteGens = 8;
constexpr int kAsyncGens = 4;
constexpr int kRestartCycles = 6;  // store_restart
constexpr int kHealthyRestarts = 3;  // store_write, async_write
// Long enough that every rank is still running at the last kill (checked).
constexpr int kDesktopIters = 4000;

const char* const kResultMpi = "mg";

struct World {
  std::unique_ptr<sim::Cluster> cluster;
  std::unique_ptr<core::DmtcpControl> ctl;

  World(int nodes, core::DmtcpOptions opts, u64 seed) {
    auto cfg = sim::Cluster::lab_cluster(nodes);
    cfg.seed = mix_seed(seed, 0x5017E);
    cfg.jitter_sigma = kJitterSigma;
    cluster = std::make_unique<sim::Cluster>(cfg);
    ctl = std::make_unique<core::DmtcpControl>(cluster->kernel(), opts);
    apps::register_desktop_programs(cluster->kernel());
    apps::register_distributed_programs(cluster->kernel());
    mpi::register_runtime_programs(cluster->kernel());
  }
  sim::Kernel& k() { return cluster->kernel(); }
};

std::string read_result(sim::Kernel& k, const std::string& name) {
  auto inode = k.shared_fs().lookup("/shared/results/" + name);
  if (!inode) return "";
  const auto bytes = inode->data.materialize(0, inode->data.size());
  return std::string(reinterpret_cast<const char*>(bytes.data()),
                     bytes.size());
}

/// Run a plain kernel (no DMTCP) until the named result is written.
std::string run_plain(sim::Kernel& k, const std::string& result) {
  const SimTime deadline = k.loop().now() + kWaitLimit;
  while (read_result(k, result).empty() && k.loop().now() < deadline) {
    if (!k.loop().run_until(k.loop().now() + 10 * kMillisecond)) break;
  }
  return read_result(k, result);
}

void arm_tracing(core::DmtcpOptions& o, const EpisodeConfig& cfg) {
  if (cfg.trace_prefix.empty()) return;
  o.trace_out = cfg.trace_prefix + ".trace.json";
  o.metrics_out = cfg.trace_prefix + ".metrics.json";
  o.health_out = cfg.trace_prefix + ".health.json";
}

// --- inputs ------------------------------------------------------------------

/// Seeded text-like bytes: words and separators, so the codecs see the
/// repetition real heap data has.
std::vector<std::byte> text_bytes(u64 n, u64 seed) {
  static const char* const kWords[] = {
      "checkpoint", "restart",  "barrier", "socket", "drain",   "refill",
      "manifest",   "chunk",    "replica", "shard",  "lookup",  "fetch",
      "coordinator", "process", "thread",  "signal", "memory",  "image",
      "the",        "of",       "and",     "to",     "in",      "is",
      "for",        "int",      "return",  "if",     "while",   "struct",
      "0",          "1",        "42",      "0x7f",   "NULL",    "=",
      "+=",         "();",      "{",       "}",      "->",      "//"};
  constexpr u64 kNumWords = sizeof(kWords) / sizeof(kWords[0]);
  std::vector<std::byte> out(n);
  Rng rng(seed);
  u64 i = 0;
  while (i < n) {
    for (const char* p = kWords[rng.next_below(kNumWords)]; *p && i < n; ++p) {
      out[i++] = static_cast<std::byte>(*p);
    }
    if (i < n) {
      out[i++] = static_cast<std::byte>(rng.next_below(8) ? ' ' : '\n');
    }
  }
  return out;
}

struct DirtyWrite {
  u64 off = 0;
  std::vector<std::byte> bytes;
};

/// The store population's generated inputs: each rank's initial heap and,
/// per generation and rank, the page rewrites. Generated once per process
/// (the episodes of one run share a seed, hence their inputs).
struct StoreInputs {
  std::vector<std::vector<std::byte>> heap;                   // [rank]
  std::vector<std::vector<std::vector<DirtyWrite>>> dirty;  // [gen][rank]
};

const StoreInputs& store_inputs(u64 seed) {
  static std::map<u64, StoreInputs> cache;
  if (auto it = cache.find(seed); it != cache.end()) return it->second;
  StoreInputs in;
  for (int r = 0; r < kRanks; ++r) {
    in.heap.push_back(text_bytes(kHeapBytes, mix_seed(seed, 0x4EA9, r)));
  }
  const u64 pages = kHeapBytes / kPageBytes;
  const u64 dirty_pages = pages * kDirtyPagesPct / 100;
  const int gens = std::max(kWriteGens, kAsyncGens);
  in.dirty.resize(static_cast<size_t>(gens));
  for (int g = 1; g < gens; ++g) {
    for (int r = 0; r < kRanks; ++r) {
      Rng rng(mix_seed(seed, 0xD1E7, static_cast<u64>(g) * 64 + r));
      std::vector<u64> order(pages);
      for (u64 p = 0; p < pages; ++p) order[p] = p;
      for (u64 p = 0; p < dirty_pages; ++p) {
        std::swap(order[p], order[p + rng.next_below(pages - p)]);
      }
      std::vector<DirtyWrite> writes;
      for (u64 p = 0; p < dirty_pages; ++p) {
        const u64 off = order[p] * kPageBytes +
                        rng.next_below(kPageBytes - kDirtyBytes + 1);
        writes.push_back({off, text_bytes(kDirtyBytes, rng.next_u64())});
      }
      in.dirty[static_cast<size_t>(g)].push_back(std::move(writes));
    }
  }
  return cache.emplace(seed, std::move(in)).first->second;
}

// --- per-layer capture -------------------------------------------------------

// Critical-path stages reported by name; everything else sums into
// "other". The lists hold every stage the four workloads put on a critical
// path (see README.md).
const std::vector<std::string> kRoundStages = {
    "barrier.suspend",  "barrier.elect",    "barrier.drain",
    "barrier.write",    "barrier.refill",   "device.read",
    "device.write",     "store.fq_wait",    "store.index",
    "rpc.request_net",  "rpc.dispatch_cpu", "rpc.response_net",
    "cluster.heartbeat", "async.chunk"};
const std::vector<std::string> kRestartStages = {
    "restart.load",     "restart.refill",   "device.read",
    "device.write",     "store.fq_wait",    "store.fetch",
    "store.heal",       "store.erasure_decode", "rpc.request_net",
    "rpc.dispatch_cpu", "rpc.response_net", "cluster.heartbeat"};

/// Per critical-path window, seconds summed over lanes by stage; then the
/// median over windows of each listed stage (absent = 0).
void put_critpath(Ledger& L, const std::string& prefix,
                  const std::vector<obs::CritPathReport>& reports,
                  const std::vector<std::string>& stages) {
  std::map<std::string, std::vector<double>> per_stage;
  for (const auto& rep : reports) {
    std::map<std::string, double> sums;
    for (const auto& e : rep.entries) {
      const bool listed =
          std::find(stages.begin(), stages.end(), e.stage) != stages.end();
      sums[listed ? e.stage : "other"] += e.seconds();
    }
    for (const auto& s : stages) per_stage[s].push_back(sums[s]);
    per_stage["other"].push_back(sums["other"]);
  }
  for (const auto& s : stages) {
    L[prefix + s + "_s"] = {median(per_stage[s]), "s", reports.size()};
  }
  L[prefix + "other_s"] = {median(per_stage["other"]), "s", reports.size()};
}

/// Median over `items` of a member (data or function) of each.
template <typename T, typename Member>
Metric median_of(const std::vector<T>& items, Member member,
                 const char* unit) {
  std::vector<double> v;
  for (const T& item : items) {
    v.push_back(static_cast<double>(std::invoke(member, item)));
  }
  return {median(v), unit, items.size()};
}

void capture_layers(World& w, Episode& e) {
  Ledger& L = e.layers;
  const core::DmtcpStats& st = w.ctl->stats();
  using R = core::CkptRound;
  using X = core::RestartRun;
  L["core.barrier.suspend_s"] = median_of(st.rounds, &R::suspend_seconds, "s");
  L["core.barrier.elect_s"] = median_of(st.rounds, &R::elect_seconds, "s");
  L["core.barrier.drain_s"] = median_of(st.rounds, &R::drain_seconds, "s");
  L["core.barrier.write_s"] = median_of(st.rounds, &R::write_seconds, "s");
  L["core.barrier.refill_s"] = median_of(st.rounds, &R::refill_seconds, "s");
  L["core.restart.files_ptys_s"] =
      median_of(st.restarts, &X::files_ptys_seconds, "s");
  L["core.restart.reconnect_s"] =
      median_of(st.restarts, &X::reconnect_seconds, "s");
  L["core.restart.memory_threads_s"] =
      median_of(st.restarts, &X::memory_threads_seconds, "s");
  L["core.restart.refill_s"] =
      median_of(st.restarts, &X::refill_seconds, "s");
  L["mtcp.image_bytes"] = median_of(st.rounds, &R::total_uncompressed, "B");
  L["mtcp.compressed_bytes"] =
      median_of(st.rounds, &R::total_compressed, "B");
  L["mtcp.new_chunk_bytes"] =
      median_of(st.rounds, &R::store_new_chunk_bytes, "B");
  L["mtcp.new_chunks"] = median_of(st.rounds, &R::new_chunks, "count");
  L["mtcp.total_chunks"] = median_of(st.rounds, &R::total_chunks, "count");
  L["mtcp.dirty_fraction"] =
      median_of(st.rounds, &R::dirty_page_fraction, "ratio");

  const core::DmtcpShared& sh = w.ctl->shared();
  ckptstore::ServiceStats ss;
  rpc::RpcStats rs;
  double stored = 0;
  if (const auto* svc = sh.store_service.get()) {
    ss = svc->stats();
    rs = svc->fabric().stats();
    for (u64 b : svc->placement().bytes_per_node()) {
      stored += static_cast<double>(b);
    }
  }
  auto count = [](u64 v) { return Metric{static_cast<double>(v), "count"}; };
  auto bytes = [](u64 v) { return Metric{static_cast<double>(v), "B"}; };
  L["store.lookups"] = count(ss.lookup_requests);
  L["store.lookup_rpcs"] = count(ss.lookup_batches);
  L["store.stores"] = count(ss.store_requests);
  L["store.store_bytes"] = bytes(ss.store_bytes);
  L["store.fetches"] = count(ss.fetch_requests);
  L["store.fetch_bytes"] = bytes(ss.fetch_bytes);
  const size_t waits = ss.lookup_wait.count();
  L["store.lookup_wait_p50_ms"] = {ss.lookup_wait.quantile(0.5) * 1e3, "ms",
                                   waits};
  L["store.lookup_wait_p99_ms"] = {ss.lookup_wait.quantile(0.99) * 1e3, "ms",
                                   waits};
  L["store.dedup_ratio"] = {st.last_round().dedup_ratio, "ratio"};
  L["store.stored_bytes"] = {stored, "B"};
  L["store.heal_moved_bytes"] = bytes(ss.heal_moved_bytes);
  L["store.rereplicated_chunks"] = count(ss.rereplicated_chunks);
  L["store.rebuilt_fragments"] = count(ss.rebuilt_fragments);
  L["store.parked_requests"] = count(ss.parked_requests);
  L["store.replayed_requests"] = count(ss.replayed_requests);
  L["rpc.calls"] = count(rs.calls);
  L["rpc.net_bytes"] = bytes(rs.net_bytes);
  L["rpc.net_wait_s"] = {rs.net_wait_seconds, "s"};
  L["rpc.endpoint_cpu_s"] = {rs.endpoint_cpu_seconds, "s"};
  L["rpc.failed_calls"] = count(rs.failed_calls);

  ckptasync::PipelineStats ps;
  if (const auto* pipe = sh.async_pipeline.get()) ps = pipe->stats();
  L["async.cow_pages_copied"] = count(ps.cow_pages_copied);
  L["async.cow_copy_s"] = {ps.cow_copy_seconds, "s"};
  L["async.blocked_s"] = {ps.blocked_seconds, "s"};
  L["async.max_drain_s"] = {ps.max_drain_seconds, "s"};
  L["async.queued_bytes"] = bytes(ps.queued_bytes);

  cluster::MembershipStats ms;
  if (const auto* m = sh.membership.get()) ms = m->stats();
  L["cluster.heartbeats"] = count(ms.heartbeats_sent);
  L["cluster.deaths"] = count(ms.deaths);

  u64 dev_w = 0, dev_r = 0;
  for (int n = 0; n < w.k().num_nodes(); ++n) {
    auto& s = w.k().node(n).storage();
    dev_w += s.cache().total_written_bytes() + s.disk().total_written_bytes();
    dev_r += s.cache().total_read_bytes() + s.disk().total_read_bytes();
  }
  L["sim.device_write_bytes"] = bytes(dev_w);
  L["sim.device_read_bytes"] = bytes(dev_r);

  // Traced runs only: the critical-path sweep over the final span set —
  // the same recomputation the --health-out document makes at flush.
  if (const obs::Tracer* tr = sh.tracer.get()) {
    std::vector<obs::CritPathReport> rounds, restarts;
    u64 exact = 0;
    for (const auto& r : st.rounds) {
      if (r.refilled == 0) continue;
      rounds.push_back(obs::critical_path(*tr, r.requested, r.refilled,
                                          core::round_phases(r)));
      exact += rounds.back().attributed_ns() == r.refilled - r.requested;
    }
    for (const auto& x : st.restarts) {
      if (x.refilled <= x.script_started) continue;
      restarts.push_back(obs::critical_path(*tr, x.script_started, x.refilled,
                                            core::restart_phases(x)));
      exact += restarts.back().attributed_ns() == x.refilled - x.script_started;
    }
    put_critpath(L, "critpath.round.", rounds, kRoundStages);
    put_critpath(L, "critpath.restart.", restarts, kRestartStages);
    L["obs.spans"] = count(tr->spans().size());
    L["obs.critpath_windows_exact"] = count(exact);
    e.check(exact == rounds.size() + restarts.size(),
            "every critical-path window partitions exactly");
  }
}

/// Evenly spaced 1 MiB samples across one process image's segments (the
/// concatenation of their virtual contents), capped at `cap` bytes.
std::vector<std::byte> sample_image(sim::Process& p, u64 cap) {
  constexpr u64 kBlock = 1 << 20;
  u64 total = 0;
  for (const auto& seg : p.mem().segments()) total += seg->data.size();
  const u64 blocks = std::min<u64>(cap / kBlock, (total + kBlock - 1) / kBlock);
  std::vector<std::byte> out;
  for (u64 b = 0; b < blocks; ++b) {
    u64 at = blocks == 1 ? 0 : (total - kBlock) * b / (blocks - 1);
    for (const auto& seg : p.mem().segments()) {
      const u64 sz = seg->data.size();
      if (at >= sz) {
        at -= sz;
        continue;
      }
      const auto bytes = seg->data.materialize(at, std::min(kBlock, sz - at));
      out.insert(out.end(), bytes.begin(), bytes.end());
      break;
    }
  }
  return out;
}

void keep_corpus(World& w, Episode& e, const std::string& prog) {
  for (Pid pid : w.k().live_pids()) {
    sim::Process* p = w.k().find_process(pid);
    if (p != nullptr && p->prog_name() == prog) {
      e.corpus = sample_image(*p, 16ull << 20);
      return;
    }
  }
}

/// One checkpoint round, timed and checked. `procs` is the process count
/// every round must reach; 0 adopts the first round's count.
const core::CkptRound& checkpoint_round(World& w, Episode& e, int& procs) {
  const core::CkptRound& r =
      e.host.time("checkpoint", [&]() -> const core::CkptRound& {
        return w.ctl->checkpoint_now();
      });
  if (procs == 0) procs = r.procs;
  e.check(r.refilled != 0 && r.procs == procs,
          "round completes with every process (" + std::to_string(r.procs) +
              " of " + std::to_string(procs) + ")");
  e.pauses.push_back(r.total_seconds());
  return r;
}

/// A synchronous round: the image is durable when the round refills.
void sync_round(World& w, Episode& e, int& procs) {
  e.durables.push_back(checkpoint_round(w, e, procs).total_seconds());
}

void check_restart(Episode& e, const core::RestartRun& rr,
                   int expected_procs) {
  e.check(!rr.needs_restore && rr.lost_chunks == 0 &&
              rr.procs == expected_procs,
          "restart restores every process (procs " + std::to_string(rr.procs) +
              " of " + std::to_string(expected_procs) + ", lost chunks " +
              std::to_string(rr.lost_chunks) + ")");
  e.restarts.push_back(rr.total_seconds());
}

// --- mpi_full ----------------------------------------------------------------

std::vector<std::string> mpi_argv() {
  return mpi::mpirun_argv(kMpiRanks, kMpiNodes, "nas",
                          {"mg", std::to_string(kMpiIters), kResultMpi});
}

std::string mpi_reference(u64 seed) {
  auto cfg = sim::Cluster::lab_cluster(kMpiNodes);
  cfg.seed = mix_seed(seed, 0x5017E);
  cfg.jitter_sigma = kJitterSigma;
  sim::Cluster cluster(cfg);
  apps::register_distributed_programs(cluster.kernel());
  mpi::register_runtime_programs(cluster.kernel());
  cluster.kernel().spawn_process(0, "orte_mpirun", mpi_argv(), {});
  return run_plain(cluster.kernel(), kResultMpi);
}

Episode mpi_full(const EpisodeConfig& cfg) {
  Episode e;
  const auto setup = e.host.start();
  core::DmtcpOptions opts;
  opts.codec = compress::CodecKind::kGzipish;
  arm_tracing(opts, cfg);
  World w(kMpiNodes, opts, cfg.seed);
  w.ctl->launch(0, "orte_mpirun", mpi_argv());
  w.ctl->run_for(kMpiWarmup);
  e.host.stop("setup", setup);
  if (cfg.setup_only) return e;

  int procs = 0;
  for (int r = 0; r < kMpiRounds; ++r) {
    if (r > 0) e.host.time("run", [&] { w.ctl->run_for(kMpiGap); });
    sync_round(w, e, procs);
  }
  const core::CkptRound& last = w.ctl->stats().last_round();
  e.storage_ratio = static_cast<double>(last.total_compressed) /
                    static_cast<double>(last.total_uncompressed);
  e.host.time("kill", [&] { w.ctl->kill_computation(); });
  check_restart(e, e.host.time("restart", [&]() -> const core::RestartRun& {
    return w.ctl->restart();
  }), procs);
  if (!cfg.trace_prefix.empty()) keep_corpus(w, e, "nas");
  e.host.time("run", [&] {
    w.ctl->run_until([&] { return !read_result(w.k(), kResultMpi).empty(); },
                     w.k().loop().now() + kWaitLimit);
  });
  e.results.push_back(read_result(w.k(), kResultMpi));
  capture_layers(w, e);
  return e;
}

// --- the store population ----------------------------------------------------

enum class Redundancy { kReplicas, kErasure };

core::DmtcpOptions store_opts(Redundancy red, bool async) {
  core::DmtcpOptions o;
  o.incremental = true;
  o.codec = compress::CodecKind::kGzipish;
  o.chunking = ckptstore::ChunkingMode::kCdc;
  o.cdc_min_bytes = 4 * 1024;
  o.cdc_avg_bytes = 16 * 1024;
  o.cdc_max_bytes = 64 * 1024;
  o.dedup_scope = core::DedupScope::kCluster;
  o.store_node = kRanks;  // the first store-only node
  o.store_shards = 2;
  if (red == Redundancy::kErasure) {
    o.erasure_k = 4;
    o.erasure_m = 2;
  } else {
    o.chunk_replicas = 2;
  }
  o.ckpt_async = async;
  o.async_backpressure = core::AsyncBackpressure::kBlock;
  return o;
}

std::string desktop_reference(u64 seed) {
  (void)seed;  // the desktop result depends on its arguments only
  sim::Cluster cluster(sim::Cluster::single_node());
  apps::register_desktop_programs(cluster.kernel());
  cluster.kernel().spawn_process(
      0, "desktop_app", {"bc", std::to_string(kDesktopIters), "ref"}, {});
  return run_plain(cluster.kernel(), "ref");
}

std::string rank_result(int r) {
  return std::string("r").append(std::to_string(r));
}

/// Launch the ranks, give each its benchmark-owned segments, and let the
/// computation run for the warm-up before the first checkpoint.
void setup_store(World& w, const StoreInputs& in, u64 seed) {
  std::vector<Pid> pids;
  for (int r = 0; r < kRanks; ++r) {
    pids.push_back(w.ctl->launch(
        r, "desktop_app",
        {"bc", std::to_string(kDesktopIters), rank_result(r)}));
  }
  w.ctl->run_for(50 * kMillisecond);
  for (int r = 0; r < kRanks; ++r) {
    sim::Process* p = w.k().find_process(pids[static_cast<size_t>(r)]);
    auto& lib = p->mem().add("libshared", sim::MemKind::kLib, kLibBytes);
    // One seed for every rank: the library dedups cluster-wide.
    lib.data.fill(0, kLibBytes, sim::ExtentKind::kRand, mix_seed(seed, 0x11B));
    auto& heap = p->mem().add("private", sim::MemKind::kHeap, kHeapBytes);
    heap.data.write(0, in.heap[static_cast<size_t>(r)]);
  }
  w.ctl->run_for(kStoreWarmup);
}

/// The ranks' live desktop processes, by rank (nullptr when missing).
std::vector<sim::Process*> rank_processes(World& w) {
  std::vector<sim::Process*> out(kRanks, nullptr);
  for (Pid pid : w.k().live_pids()) {
    sim::Process* p = w.k().find_process(pid);
    if (p == nullptr || p->prog_name() != "desktop_app") continue;
    for (int r = 0; r < kRanks; ++r) {
      if (p->argv().size() > 2 && p->argv()[2] == rank_result(r)) {
        out[static_cast<size_t>(r)] = p;
      }
    }
  }
  return out;
}

/// content_crc() of every rank's libshared and private segment.
std::vector<u32> segment_crcs(World& w) {
  std::vector<u32> out;
  for (sim::Process* p : rank_processes(w)) {
    for (const char* name : {"libshared", "private"}) {
      const sim::MemSegment* seg = p ? p->mem().find(name) : nullptr;
      out.push_back(seg ? seg->data.content_crc() : 0);
    }
  }
  return out;
}

void dirty_heaps(World& w, Episode& e, const StoreInputs& in, int gen) {
  const auto procs = rank_processes(w);
  e.host.time("mutate", [&] {
    for (int r = 0; r < kRanks; ++r) {
      sim::MemSegment* seg =
          procs[static_cast<size_t>(r)]->mem().find("private");
      for (const DirtyWrite& dw :
           in.dirty[static_cast<size_t>(gen)][static_cast<size_t>(r)]) {
        seg->data.write(dw.off, dw.bytes);
      }
    }
  });
}

double store_ratio(World& w) {
  double stored = 0;
  for (u64 b : w.ctl->shared().store_service->placement().bytes_per_node()) {
    stored += static_cast<double>(b);
  }
  return stored /
         static_cast<double>(w.ctl->stats().last_round().total_uncompressed);
}

/// Kill, restart (optionally with store-only nodes failed first), and
/// check the restored segments byte for byte.
void kill_restart(World& w, Episode& e, const std::vector<u32>& crcs,
                  int failed_store_nodes) {
  e.host.time("kill", [&] { w.ctl->kill_computation(); });
  auto& svc = *w.ctl->shared().store_service;
  for (int f = 0; f < failed_store_nodes; ++f) svc.fail_node(kRanks + f);
  check_restart(e, e.host.time("restart", [&]() -> const core::RestartRun& {
    return w.ctl->restart();
  }), kRanks);
  e.check(segment_crcs(w) == crcs,
          "restored libshared/private segments match the last checkpoint");
  for (int f = 0; f < failed_store_nodes; ++f) svc.revive_node(kRanks + f);
}

/// Run the restored ranks to completion and collect their results.
void finish_ranks(World& w, Episode& e) {
  e.host.time("run", [&] {
    w.ctl->run_until(
        [&] {
          for (int r = 0; r < kRanks; ++r) {
            if (read_result(w.k(), rank_result(r)).empty()) return false;
          }
          return true;
        },
        w.k().loop().now() + kWaitLimit);
  });
  for (int r = 0; r < kRanks; ++r) {
    e.results.push_back(read_result(w.k(), rank_result(r)));
  }
}

void check_still_running(World& w, Episode& e) {
  bool none = true;
  for (int r = 0; r < kRanks; ++r) {
    none = none && read_result(w.k(), rank_result(r)).empty();
  }
  e.check(none, "ranks are still running at the kill (workload sizing)");
}

/// The store workloads share one shape: set up the population, run the
/// workload's checkpoints, then kill and restart `cycles` times from the
/// last checkpoint and run the ranks to completion. With `degrade`, cycle c
/// first fails c mod 3 store-only nodes (0, 1, 2, 0, 1, 2): healthy,
/// degraded and doubly degraded reads.
template <typename Checkpoints>
Episode store_episode(const EpisodeConfig& cfg, core::DmtcpOptions opts,
                      int cycles, bool degrade, Checkpoints checkpoints) {
  Episode e;
  const StoreInputs& in = store_inputs(cfg.seed);
  const auto setup = e.host.start();
  arm_tracing(opts, cfg);
  World w(kRanks + kStoreNodes, opts, cfg.seed);
  setup_store(w, in, cfg.seed);
  e.host.stop("setup", setup);
  if (cfg.setup_only) return e;

  checkpoints(w, e, in);
  e.storage_ratio = store_ratio(w);
  // Nothing rewrites the heaps after the last checkpoint.
  const std::vector<u32> crcs = segment_crcs(w);
  check_still_running(w, e);
  for (int c = 0; c < cycles; ++c) {
    kill_restart(w, e, crcs, degrade ? c % (kStoreNodes + 1) : 0);
  }
  if (!cfg.trace_prefix.empty()) keep_corpus(w, e, "desktop_app");
  finish_ranks(w, e);
  capture_layers(w, e);
  return e;
}

Episode store_write(const EpisodeConfig& cfg) {
  return store_episode(
      cfg, store_opts(Redundancy::kReplicas, /*async=*/false),
      kHealthyRestarts, /*degrade=*/false,
      [](World& w, Episode& e, const StoreInputs& in) {
        int procs = kRanks;
        for (int g = 0; g < kWriteGens; ++g) {
          if (g > 0) dirty_heaps(w, e, in, g);
          sync_round(w, e, procs);
        }
      });
}

Episode store_restart(const EpisodeConfig& cfg) {
  return store_episode(
      cfg, store_opts(Redundancy::kErasure, /*async=*/false), kRestartCycles,
      /*degrade=*/true, [](World& w, Episode& e, const StoreInputs&) {
        int procs = kRanks;
        sync_round(w, e, procs);
      });
}

Episode async_write(const EpisodeConfig& cfg) {
  return store_episode(
      cfg, store_opts(Redundancy::kReplicas, /*async=*/true),
      kHealthyRestarts, /*degrade=*/false,
      [](World& w, Episode& e, const StoreInputs& in) {
        auto& pipe = *w.ctl->shared().async_pipeline;
        int procs = kRanks;
        for (int g = 0; g < kAsyncGens; ++g) {
          checkpoint_round(w, e, procs);
          // Rewrite pages while the drain is in flight (copy-on-write
          // faults), then wait for the image to become durable.
          if (g + 1 < kAsyncGens) dirty_heaps(w, e, in, g + 1);
          const bool drained = e.host.time("run", [&] {
            return w.ctl->run_until([&] { return pipe.idle(); },
                                    w.k().loop().now() + kWaitLimit);
          });
          const core::CkptRound& done = w.ctl->stats().last_round();
          e.check(drained && done.background_done != 0,
                  "async drain completes (image durable)");
          e.durables.push_back(
              to_seconds(done.background_done - done.requested));
        }
      });
}

}  // namespace

const std::vector<Workload>& workloads() {
  static const std::vector<Workload> kAll = {
      {"mpi_full", mpi_full, mpi_reference},
      {"store_write", store_write, desktop_reference},
      {"store_restart", store_restart, desktop_reference},
      {"async_write", async_write, desktop_reference},
  };
  return kAll;
}

}  // namespace dsim::suite
