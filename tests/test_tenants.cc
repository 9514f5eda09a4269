// Multi-tenant chunk-store serving: the tenant-scoped envelope, weighted
// fair queueing (DRR) with a strict-priority restart band, admission
// control at the tenant edge, cross-tenant dedup with independent
// per-tenant GC, and two whole computations sharing one service through
// the multi-computation harness (DmtcpControl attach ctor).
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <tuple>
#include <vector>

#include "ckptstore/manifest.h"
#include "ckptstore/repository.h"
#include "ckptstore/service.h"
#include "ckptstore/tenant.h"
#include "core/launch.h"
#include "sim/cluster.h"
#include "tests/testprogs.h"
#include "tests/testutil.h"
#include "util/rng.h"

namespace dsim::test {
namespace {

using ckptstore::ChunkKey;
using ckptstore::ChunkStoreService;
using ckptstore::FairQueue;
using ckptstore::QosClass;
using ckptstore::StoreOp;
using ckptstore::StoreRequest;
using core::DmtcpControl;
using core::DmtcpOptions;
using sim::ExtentKind;

ChunkKey key_of(u64 n) {
  ChunkKey k;
  k.hi = n * 0x9E3779B97F4A7C15ull + 7;
  k.lo = n;
  return k;
}

// --- owner-string convention -------------------------------------------------

TEST(TenantOwner, PrefixRoundTripsAndUnprefixedOwnersReadDefault) {
  EXPECT_EQ(ckptstore::tenant_prefix(3), "t3/");
  EXPECT_EQ(ckptstore::tenant_owner(3, "41"), "t3/41");
  EXPECT_EQ(ckptstore::tenant_of_owner("t3/41"), 3);
  EXPECT_EQ(ckptstore::tenant_of_owner("t12/7"), 12);
  // Pre-multi-tenant owners (bare vpids) read as the default tenant.
  EXPECT_EQ(ckptstore::tenant_of_owner("41"), ckptstore::kDefaultTenant);
  EXPECT_EQ(ckptstore::tenant_of_owner(""), ckptstore::kDefaultTenant);
}

// --- FairQueue (deficit round-robin) ----------------------------------------

FairQueue::Item item(u64 cost, std::vector<int>* log, int id) {
  return FairQueue::Item{cost, [log, id] { log->push_back(id); }};
}

TEST(FairQueueTest, RestartBandDrainsWithStrictPriority) {
  FairQueue fq;
  std::vector<int> served;
  // A checkpoint storm is queued first; restart probes arrive after.
  for (int i = 0; i < 50; ++i) {
    fq.push(QosClass::kCheckpoint, 1, 1.0, item(4096, &served, i));
  }
  for (int i = 100; i < 105; ++i) {
    fq.push(QosClass::kRestart, 2, 1.0, item(4096, &served, i));
  }
  ASSERT_EQ(fq.size(), 55u);
  // The restart band drains completely before any checkpoint item runs,
  // despite arriving last.
  for (int i = 0; i < 5; ++i) fq.pop().run();
  EXPECT_EQ(served, (std::vector<int>{100, 101, 102, 103, 104}));
  while (!fq.empty()) fq.pop().run();
  EXPECT_EQ(served.size(), 55u);
}

TEST(FairQueueTest, WeightsShareServiceProportionally) {
  FairQueue fq;
  std::vector<int> served;
  // Tenant 1 at weight 2.0, tenant 2 at weight 1.0, equal-cost items.
  for (int i = 0; i < 200; ++i) {
    fq.push(QosClass::kCheckpoint, 1, 2.0, item(4096, &served, 1));
    fq.push(QosClass::kCheckpoint, 2, 1.0, item(4096, &served, 2));
  }
  // Pop whole rotations (a 512 KiB + 256 KiB grant pair covers 192 items
  // at 4 KiB each) so DRR's burst quantization doesn't skew the window.
  for (int i = 0; i < 192; ++i) fq.pop().run();
  const auto count = [&](int id) {
    return std::count(served.begin(), served.end(), id);
  };
  const double t1 = static_cast<double>(count(1));
  const double t2 = static_cast<double>(count(2));
  ASSERT_GT(t2, 0.0);
  // DRR converges on the 2:1 weight ratio (quantization leaves slack).
  EXPECT_GT(t1, 1.6 * t2);
  EXPECT_LT(t1, 2.4 * t2);
}

TEST(FairQueueTest, ATenantThatBecomesActiveIsGrantedItsQuantumAtOnce) {
  // DRR's visit grants, then serves while the head fits. A sub-queue is
  // granted its quantum when it becomes active, so a newcomer waits out
  // only the incumbent's remaining grant, not one more full grant on top.
  FairQueue fq;
  std::vector<int> served;
  constexpr u64 kCost = ckptstore::kFairQueueQuantumBytes / 4;
  for (int i = 0; i < 12; ++i) {
    fq.push(QosClass::kCheckpoint, 1, 1.0, item(kCost, &served, 1));
  }
  fq.pop().run();
  fq.push(QosClass::kCheckpoint, 2, 1.0, item(kCost, &served, 2));
  // Three quarters of the incumbent's grant are left: the newcomer's item
  // is the fourth pop after it arrived.
  for (int i = 0; i < 4; ++i) fq.pop().run();
  EXPECT_EQ(served, (std::vector<int>{1, 1, 1, 1, 2}));
}

TEST(FairQueueTest, PerTenantOrderStaysFifo) {
  FairQueue fq;
  std::vector<int> served;
  for (int i = 0; i < 30; ++i) {
    fq.push(QosClass::kCheckpoint, i % 3, 1.0, item(1 + (i % 5) * 777,
                                                    &served, i));
  }
  while (!fq.empty()) fq.pop().run();
  ASSERT_EQ(served.size(), 30u);
  // Whatever the cross-tenant interleaving, each tenant's own items ran in
  // push order.
  std::map<int, int> last;
  for (int id : served) {
    const int tenant = id % 3;
    auto it = last.find(tenant);
    if (it != last.end()) {
      EXPECT_LT(it->second, id);
    }
    last[tenant] = id;
  }
}

// --- repository: cross-tenant refcounts -------------------------------------

ckptstore::Chunk pattern_chunk(u64 len) {
  ckptstore::Chunk c;
  c.kind = ExtentKind::kZero;
  c.len = len;
  c.charged_bytes = len;
  return c;
}

TEST(TenantRepository, OneTenantsGcNeverDropsAChunkAnotherReferences) {
  ckptstore::Repository repo;
  const ChunkKey shared_key = key_of(1);  // the cross-tenant mapped library
  const ChunkKey t1_priv = key_of(2);
  const ChunkKey t2_priv = key_of(3);
  repo.put(shared_key, pattern_chunk(1000));
  repo.put(t1_priv, pattern_chunk(2000));
  repo.put(t2_priv, pattern_chunk(4000));
  repo.commit_generation("t1/7", 0, {shared_key, t1_priv}, 3000);
  repo.commit_generation("t2/9", 0, {shared_key, t2_priv}, 5000);
  EXPECT_EQ(repo.shared_chunk_count(), 1u);

  // Tenant 1 moves on: a new generation without its old chunks, then its
  // own keep-last-1 GC pass, scoped to the t1/ namespace.
  const ChunkKey t1_new = key_of(4);
  repo.put(t1_new, pattern_chunk(500));
  repo.commit_generation("t1/7", 1, {t1_new}, 500);
  std::vector<ckptstore::Repository::ReclaimedChunk> dead;
  repo.collect_garbage(/*keep=*/1, &dead, "t1/");

  // t1's private chunk died; the shared chunk survives on t2's reference,
  // and t2's namespace was never touched.
  EXPECT_EQ(repo.find(t1_priv), nullptr);
  ASSERT_NE(repo.find(shared_key), nullptr);
  ASSERT_NE(repo.find(t2_priv), nullptr);
  ASSERT_EQ(dead.size(), 1u);
  EXPECT_EQ(dead[0].key, t1_priv);
  EXPECT_EQ(repo.live_generations("t2/9"), (std::vector<int>{0}));
  // No longer multi-owner: t1's gen-0 reference on the shared chunk died.
  EXPECT_EQ(repo.shared_chunk_count(), 0u);

  // Quarantine path: the scrubber condemns the shared chunk. Refcount
  // records survive the mask — another tenant's GC still cannot reclaim it
  // out from under t2, and the forward re-store slots straight back in.
  EXPECT_GT(repo.quarantine(shared_key), 0u);
  EXPECT_EQ(repo.find(shared_key), nullptr);
  repo.collect_garbage(/*keep=*/1, nullptr, "t1/");  // t1 again: no-op now
  EXPECT_EQ(repo.quarantined_count(), 1u);
  EXPECT_TRUE(repo.put(shared_key, pattern_chunk(1000)));  // re-store
  ASSERT_NE(repo.find(shared_key), nullptr);
  EXPECT_EQ(repo.live_generations("t2/9"), (std::vector<int>{0}));
}

TEST(TenantRepository, SharedBytesReportKeysOnTheTenantGroupPair) {
  ckptstore::Repository repo;
  repo.put(key_of(1), pattern_chunk(1000));
  repo.put(key_of(2), pattern_chunk(50));
  repo.commit_generation("t1/7", 0, {key_of(1)}, 1000);
  repo.commit_generation("t1/8", 0, {key_of(2)}, 50);  // same tenant only
  repo.commit_generation("t2/9", 0, {key_of(1)}, 1000);
  const auto by_group = repo.shared_bytes_by_group();
  ASSERT_EQ(by_group.size(), 1u);
  const auto it = by_group.find({"t1", "t2"});
  ASSERT_NE(it, by_group.end());
  EXPECT_EQ(it->second, 1000u);  // the intra-tenant share does not count
}

// --- service: envelope, dedup, admission, QoS -------------------------------

StoreRequest store_req(ckptstore::TenantId tenant, NodeId from,
                       const ChunkKey& key, u64 bytes,
                       std::function<void()> done = {}) {
  StoreRequest req;
  req.op = StoreOp::kStore;
  req.tenant = tenant;
  req.from = from;
  req.keys = {key};
  req.bytes = bytes;
  req.done = std::move(done);
  return req;
}

TEST(TenantService, IdenticalChunksFromTwoTenantsStoreOnce) {
  sim::EventLoop loop;
  sim::Network net(loop, 4);
  ChunkStoreService svc(loop, net, replicated(1));
  const ChunkKey lib = key_of(42);
  const auto first = svc.submit(store_req(1, 0, lib, 64 * 1024));
  ASSERT_FALSE(first.targets.empty());  // tenant 1 physically stores it
  loop.run();
  const auto second = svc.submit(store_req(2, 1, lib, 64 * 1024));
  EXPECT_TRUE(second.targets.empty());  // tenant 2: placement dedup hit
  EXPECT_TRUE(second.admitted);
  loop.run();
  // Both tenants' submissions are accounted to their own stats rows.
  EXPECT_EQ(svc.tenants().stats(1).stores, 1u);
  EXPECT_EQ(svc.tenants().stats(2).stores, 1u);
}

TEST(TenantService, AdmissionControlHoldsOverBudgetStoresAtTheEdge) {
  sim::EventLoop loop;
  sim::Network net(loop, 4);
  ChunkStoreService svc(loop, net, replicated(1));
  svc.tenants().configure(
      1, ckptstore::TenantConfig{1.0, /*budget=*/100 * 1000, 0});
  int done = 0;
  const auto r1 =
      svc.submit(store_req(1, 0, key_of(1), 80 * 1000, [&] { ++done; }));
  const auto r2 =
      svc.submit(store_req(1, 0, key_of(2), 80 * 1000, [&] { ++done; }));
  const auto r3 =
      svc.submit(store_req(1, 0, key_of(3), 80 * 1000, [&] { ++done; }));
  // The first store fits the empty budget; the next two exceed the
  // in-flight cap and queue at the tenant edge instead of the shard.
  EXPECT_TRUE(r1.admitted);
  EXPECT_FALSE(r2.admitted);
  EXPECT_FALSE(r3.admitted);
  EXPECT_EQ(svc.stats().admission_held_requests, 2u);
  // Placement is synchronous even for held stores: the caller still learns
  // the homes to charge.
  EXPECT_FALSE(r2.targets.empty());
  loop.run();
  // Held stores dispatched as earlier ones completed; everyone's `done`
  // fired and the edge wait was recorded.
  EXPECT_EQ(done, 3);
  EXPECT_GT(svc.stats().admission_wait.sum(), 0.0);
  EXPECT_EQ(svc.tenants().stats(1).admission_held, 2u);
  EXPECT_GT(svc.tenants().stats(1).admission_wait.sum(), 0.0);
  // A single store larger than the whole budget must still be admitted
  // once the edge is empty (otherwise the tenant deadlocks).
  const auto big =
      svc.submit(store_req(1, 0, key_of(4), 500 * 1000, [&] { ++done; }));
  EXPECT_TRUE(big.admitted);
  loop.run();
  EXPECT_EQ(done, 4);
}

/// One arm of the QoS experiment: flood the shard with a checkpoint-band
/// lookup storm from tenant 1, then issue tenant 2's restart-band fetch,
/// and report (fetch completion, storm completion) in seconds.
std::pair<double, double> restart_vs_storm(bool fair_queueing) {
  sim::EventLoop loop;
  sim::Network net(loop, 4);
  // Batched lookups (16 keys/RPC) make each queue item carry real index
  // occupancy, so the storm builds an actual backlog at the shard instead
  // of trickling in at the RPC dispatch rate.
  ChunkStoreService svc(loop, net, replicated(1), /*shards=*/1,
                        /*lookup_batch=*/16);
  svc.set_fair_queueing(fair_queueing);
  // Tenant 2 stores the chunk it will later fetch; let it settle.
  svc.submit(store_req(2, 2, key_of(9999), 4 * 1024));
  loop.run();

  StoreRequest storm;
  storm.op = StoreOp::kLookup;
  storm.tenant = 1;
  storm.from = 0;
  for (u64 i = 0; i < 2000; ++i) storm.keys.push_back(key_of(i));
  SimTime storm_done = 0;
  const SimTime t0 = loop.now();
  storm.done = [&] { storm_done = loop.now(); };
  svc.submit(std::move(storm));

  // Submit the restart fetch once the storm has fully arrived and queued
  // (the contrast under test is queue *policy*, not RPC arrival timing).
  SimTime fetch_sent = 0;
  SimTime fetch_done = 0;
  loop.post_at(t0 + 5 * timeconst::kMillisecond, [&] {
    StoreRequest fetch;
    fetch.op = StoreOp::kFetch;
    fetch.tenant = 2;
    fetch.qos = QosClass::kRestart;
    fetch.from = 2;
    fetch.keys = {key_of(9999)};
    fetch.bytes = 4 * 1024;
    fetch_sent = loop.now();
    fetch.done = [&] { fetch_done = loop.now(); };
    svc.submit(std::move(fetch));
  });
  loop.run();
  EXPECT_GT(fetch_done, fetch_sent);
  EXPECT_GT(storm_done, t0);
  return {to_seconds(fetch_done - fetch_sent), to_seconds(storm_done - t0)};
}

TEST(TenantService, RestartBandOvertakesACheckpointStormUnderFairQueueing) {
  const auto [fetch_fq, storm_fq] = restart_vs_storm(/*fair_queueing=*/true);
  const auto [fetch_fifo, storm_fifo] =
      restart_vs_storm(/*fair_queueing=*/false);
  // Strict band priority: the restart fetch overtakes the queued storm and
  // completes in a small fraction of the storm's drain time.
  EXPECT_LT(fetch_fq, storm_fq / 4);
  // The FIFO ablation serves arrival order: the fetch waits out the storm.
  EXPECT_GT(fetch_fifo, storm_fifo / 2);
  EXPECT_GT(fetch_fifo, 5 * fetch_fq);
}

// --- two computations sharing one service (the E2E harness) -----------------

DmtcpOptions tenant_opts(int tenant, u16 coord_port) {
  DmtcpOptions o;
  o.incremental = true;
  o.codec = compress::CodecKind::kNone;
  o.chunking = ckptstore::ChunkingMode::kCdc;
  o.cdc_min_bytes = 2 * 1024;
  o.cdc_avg_bytes = 8 * 1024;
  o.cdc_max_bytes = 32 * 1024;
  o.dedup_scope = core::DedupScope::kCluster;
  o.tenant_id = tenant;
  o.coord_port = coord_port;
  o.ckpt_dir = "/ckpt/t" + std::to_string(tenant);
  return o;
}

/// Two computations on one kernel: `host` owns the chunk-store service,
/// `guest` attaches to it as a second tenant.
struct TenantWorld {
  sim::Cluster cluster;
  DmtcpControl host;
  DmtcpControl guest;
  TenantWorld(int nodes, DmtcpOptions host_opts, DmtcpOptions guest_opts,
              u64 seed = 0x5eed)
      : cluster([&] {
          auto cfg = sim::Cluster::lab_cluster(nodes);
          cfg.seed = seed;
          return cfg;
        }()),
        host(cluster.kernel(), host_opts),
        guest(host, guest_opts) {
    register_test_programs(cluster.kernel());
  }
  sim::Kernel& k() { return cluster.kernel(); }
  bool run_until_results(std::initializer_list<const char*> names,
                         SimTime deadline = 300 * timeconst::kSecond) {
    return host.run_until(
        [&] {
          for (const char* n : names) {
            if (read_result(k(), n).empty()) return false;
          }
          return true;
        },
        k().loop().now() + deadline);
  }
};

Pid launch_with_ballast(DmtcpControl& ctl, NodeId node, const char* name,
                        u64 bytes, u64 seed) {
  const Pid pid =
      ctl.launch(node, kComputeLoop, {"1000000", "200", name});
  ctl.run_for(20 * timeconst::kMillisecond);
  sim::Process* p = ctl.kernel().find_process(pid);
  EXPECT_NE(p, nullptr);
  auto& seg = p->mem().add("ballast", sim::MemKind::kHeap, bytes);
  seg.data.fill(0, bytes, ExtentKind::kRand, seed);
  return pid;
}

TEST(TenantsE2E, TwoComputationsShareOneServiceAndDedupAcrossTenants) {
  TenantWorld w(4, tenant_opts(1, 7779), tenant_opts(2, 7791));
  // Both computations attach to ONE service instance.
  ASSERT_EQ(w.host.shared().store_service.get(),
            w.guest.shared().store_service.get());
  EXPECT_TRUE(w.host.shared().owns_store);
  EXPECT_FALSE(w.guest.shared().owns_store);

  // Each tenant maps the same "shared library" ballast (identical seed →
  // identical content → identical chunk keys) plus nothing else.
  constexpr u64 kLib = 768 * 1024;
  launch_with_ballast(w.host, 0, "a", kLib, 0x11B);
  launch_with_ballast(w.guest, 1, "b", kLib, 0x11B);
  const auto& r1 = w.host.checkpoint_now();
  const u64 live_after_host = w.host.shared().store_service->repo().stats()
                                  .live_stored_bytes;
  const auto& r2 = w.guest.checkpoint_now();
  ASSERT_GT(r1.total_compressed, 0u);
  // The guest's image was answered almost entirely by the host's resident
  // chunks: the store grew by far less than a second full image.
  const auto& repo = w.host.shared().store_service->repo();
  EXPECT_LT(repo.stats().live_stored_bytes - live_after_host,
            r1.total_compressed / 4);
  EXPECT_GT(r2.store_dup_bytes, 0u);
  // The dedup is attributed to the tenant pair.
  const auto by_group = repo.shared_bytes_by_group();
  const auto it = by_group.find({"t1", "t2"});
  ASSERT_NE(it, by_group.end());
  EXPECT_GT(it->second, 0u);
  // Both tenants' request streams hit the shared service under their own
  // ids (the daemons' probes ride kSystemTenant, never these rows).
  EXPECT_GT(w.host.shared().store_service->tenants().stats(1).lookups, 0u);
  EXPECT_GT(w.host.shared().store_service->tenants().stats(2).lookups, 0u);
  // The attached guest takes its own delta of the shared service: its
  // round carries its lookups, and every lookup served meanwhile.
  EXPECT_GT(r2.delta.counter("tenant.2.lookups"), 0u);
  EXPECT_GE(r2.delta.counter("store.lookup_requests"),
            r2.delta.counter("tenant.2.lookups"));
  // Each computation's coordinator stamped only its own rounds.
  EXPECT_EQ(w.host.stats().rounds.size(), 1u);
  EXPECT_EQ(w.guest.stats().rounds.size(), 1u);
}

TEST(TenantsE2E, AggressiveTenantGcAndScrubPreserveTheNeighborsChunks) {
  auto host_opts = tenant_opts(1, 7779);
  host_opts.keep_generations = 1;       // tenant 1 GCs hard...
  host_opts.scrub_chunks = 1u << 20;    // ...and scrubs the whole store
  auto guest_opts = tenant_opts(2, 7791);
  guest_opts.keep_generations = 2;
  TenantWorld w(4, host_opts, guest_opts);

  constexpr u64 kLib = 512 * 1024;
  const Pid host_pid = launch_with_ballast(w.host, 0, "a", kLib, 0x11B);
  launch_with_ballast(w.guest, 1, "b", kLib, 0x11B);
  w.guest.checkpoint_now();
  const auto guest_plan = w.guest.read_restart_plan();
  // The host's first generation pins the SAME library chunks the guest
  // references — the cross-tenant shared-refcount case a buggy GC would
  // break when the host's retention drops this generation below.
  w.host.checkpoint_now();
  ASSERT_GT(w.host.shared()
                .store_service->repo()
                .shared_chunk_count(),
            0u);

  // Tenant 1 churns through three generations of fresh private content;
  // keep-last-1 reclaims its old chunks (and the round-close scrub walks
  // whatever is resident) after every round.
  for (int round = 0; round < 3; ++round) {
    sim::Process* p = w.k().find_process(host_pid);
    ASSERT_NE(p, nullptr);
    auto* churn = p->mem().find("ballast");
    ASSERT_NE(churn, nullptr);
    churn->data.fill(0, kLib, ExtentKind::kRand, 0xC0DE + round);
    const auto& r = w.host.checkpoint_now();
    if (round > 0) {
      EXPECT_GT(r.store_reclaimed_bytes, 0u);
    }
  }

  // Every chunk the guest's manifests reference must still be resident and
  // placed — tenant 1's GC passes and scrub walks never touched them.
  auto& svc = *w.host.shared().store_service;
  EXPECT_EQ(svc.repo_ptr()->quarantined_count(), 0u);
  for (const auto& host : guest_plan.hosts) {
    for (const auto& img : host.images) {
      auto inode = w.k().fs_for(host.host, img).lookup(img);
      ASSERT_NE(inode, nullptr);
      auto bytes = inode->data.materialize(0, inode->data.size());
      ASSERT_TRUE(ckptstore::Manifest::is_manifest(bytes));
      for (const auto& key :
           ckptstore::Manifest::decode(bytes).all_keys()) {
        EXPECT_NE(svc.repo().find(key), nullptr);
        EXPECT_TRUE(svc.placement().available(key));
      }
    }
  }

  // The proof of the pudding: kill ONLY the guest computation and restart
  // it out of the shared store.
  w.guest.kill_computation();
  const auto& rr = w.guest.restart();
  EXPECT_FALSE(rr.needs_restore);
  EXPECT_EQ(rr.lost_chunks, 0u);
  ASSERT_TRUE(w.run_until_results({"a", "b"}));
}

/// Tenant options on fixed 16 KiB chunks under `codec`.
DmtcpOptions fixed_tenant_opts(int tenant, u16 coord_port,
                               compress::CodecKind codec) {
  DmtcpOptions o = tenant_opts(tenant, coord_port);
  o.codec = codec;
  o.chunking = ckptstore::ChunkingMode::kFixed;
  o.chunk_bytes = 16 * 1024;
  return o;
}

/// A compute loop that maps `bytes` of real content (pseudo_bytes).
Pid launch_with_content(DmtcpControl& ctl, NodeId node, const char* name,
                        u64 bytes, u64 seed) {
  const Pid pid = ctl.launch(node, kComputeLoop, {"1000000", "200", name});
  ctl.run_for(20 * timeconst::kMillisecond);
  sim::Process* p = ctl.kernel().find_process(pid);
  EXPECT_NE(p, nullptr);
  p->mem().add("lib", sim::MemKind::kHeap, bytes).data.write(
      0, pseudo_bytes(bytes, seed));
  return pid;
}

TEST(TenantsE2E, ATenantRestartsFromChunksAnotherCodecStored) {
  // The host stores the shared content first, as gzip containers; the
  // guest's round on --compress none is all dedup hits on them.
  constexpr u64 kLib = 256 * 1024;
  TenantWorld w(4,
                fixed_tenant_opts(1, 7779, compress::CodecKind::kGzipish),
                fixed_tenant_opts(2, 7791, compress::CodecKind::kNone));
  launch_with_content(w.host, 0, "a", kLib, 0x1B);
  launch_with_content(w.guest, 1, "b", kLib, 0x1B);
  w.host.checkpoint_now();
  const auto& r = w.guest.checkpoint_now();
  EXPECT_EQ(r.store_dup_bytes, kLib);

  w.guest.kill_computation();
  const auto& rr = w.guest.restart();
  EXPECT_FALSE(rr.needs_restore);
  EXPECT_EQ(rr.lost_chunks, 0u);
  sim::Process* back = nullptr;
  for (const Pid pid : w.k().live_pids()) {
    sim::Process* p = w.k().find_process(pid);
    if (!p->argv().empty() && p->argv().back() == "b") back = p;
  }
  ASSERT_NE(back, nullptr);
  const sim::MemSegment* lib = back->mem().find("lib");
  ASSERT_NE(lib, nullptr);
  EXPECT_TRUE(lib->data.materialize(0, lib->data.size()) ==
              pseudo_bytes(kLib, 0x1B));
  ASSERT_TRUE(w.run_until_results({"a", "b"}));
}

TEST(TenantsE2E, ScrubVerifiesChunksAnotherCodecStored) {
  // A --compress none host scrubs the whole store at its round close,
  // after a gzip guest stored the content.
  constexpr u64 kLib = 256 * 1024;
  auto host_opts = fixed_tenant_opts(1, 7779, compress::CodecKind::kNone);
  host_opts.scrub_chunks = 1u << 20;
  TenantWorld w(4, host_opts,
                fixed_tenant_opts(2, 7791, compress::CodecKind::kGzipish));
  launch_with_content(w.host, 0, "a", kLib, 0x1B);
  launch_with_content(w.guest, 1, "b", kLib, 0x1B);
  w.guest.checkpoint_now();
  w.host.checkpoint_now();
  const auto& st = w.host.shared().store_service->stats();
  EXPECT_GE(st.scrubbed_chunks, kLib / (16 * 1024));
  EXPECT_EQ(st.scrub_corrupt_chunks, 0u);
  EXPECT_EQ(st.scrub_quarantined_chunks, 0u);
}

/// Chunk references (key, len, crc) of every manifest in `ctl`'s latest
/// restart plan, in plan order — the byte-identity fingerprint.
std::vector<std::tuple<ChunkKey, u64, u32>> manifest_refs(sim::Kernel& k,
                                                          DmtcpControl& ctl) {
  std::vector<std::tuple<ChunkKey, u64, u32>> refs;
  const auto plan = ctl.read_restart_plan();
  for (const auto& host : plan.hosts) {
    for (const auto& img : host.images) {
      auto inode = k.fs_for(host.host, img).lookup(img);
      if (inode == nullptr) continue;
      auto bytes = inode->data.materialize(0, inode->data.size());
      if (!ckptstore::Manifest::is_manifest(bytes)) continue;
      const auto m = ckptstore::Manifest::decode(bytes);
      for (const auto& seg : m.segments) {
        // The tiny live "state" segment is the program's own loop counters
        // — it legitimately differs with how far the app ran before the
        // barrier. The identity claim is about the stored *data*.
        if (seg.name != "ballast") continue;
        for (const auto& c : seg.chunks) {
          refs.emplace_back(c.key, c.len, c.crc);
        }
      }
    }
  }
  return refs;
}

TEST(TenantsE2E, ManifestsAreByteIdenticalBesideANoisyNeighbor) {
  constexpr u64 kVictim = 512 * 1024;
  constexpr u64 kNoise = 2 * 1024 * 1024;
  for (const u64 seed : {0x51ull, 0x52ull}) {
    // Solo arm: tenant 1 checkpoints alone on an idle service.
    std::vector<std::tuple<ChunkKey, u64, u32>> solo;
    {
      sim::Cluster cluster([&] {
        auto cfg = sim::Cluster::lab_cluster(4);
        cfg.seed = 0x5eed;
        return cfg;
      }());
      DmtcpControl ctl(cluster.kernel(), tenant_opts(1, 7779));
      register_test_programs(cluster.kernel());
      launch_with_ballast(ctl, 0, "solo", kVictim, seed);
      ctl.checkpoint_now();
      solo = manifest_refs(cluster.kernel(), ctl);
    }
    ASSERT_FALSE(solo.empty());

    // Contended arm: the same tenant-1 workload beside tenant 2's 4x
    // checkpoint storm, with network jitter switched on — timing moves,
    // bytes must not.
    TenantWorld w(4, tenant_opts(1, 7779), tenant_opts(2, 7791));
    Rng jitter(0x9177E4 + seed);
    w.k().net().set_jitter(&jitter, 0.05);
    launch_with_ballast(w.host, 0, "solo", kVictim, seed);
    launch_with_ballast(w.guest, 1, "noise", kNoise, 0xFEED + seed);
    w.guest.request_checkpoint();  // the neighbor's storm is in flight...
    w.host.checkpoint_now();       // ...while the victim checkpoints
    const auto contended = manifest_refs(w.k(), w.host);
    EXPECT_EQ(solo, contended) << "seed " << seed;
  }
}

}  // namespace
}  // namespace dsim::test
