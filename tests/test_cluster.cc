// Cluster membership (src/cluster/) and the chunk store's shard failover:
// heartbeat failure detection, dead-endpoint re-homing with in-flight
// replay, consistent-hash rebalancing, scrub repair wiring, and shard
// placement: the startup spread, a reshard's walk and the move onto spare
// nodes.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "ckptstore/manifest.h"
#include "ckptstore/service.h"
#include "cluster/membership.h"
#include "core/launch.h"
#include "sim/cluster.h"
#include "sim/model_params.h"
#include "tests/testprogs.h"
#include "tests/testutil.h"
#include "util/rng.h"

namespace dsim::test {
namespace {

using ckptstore::ChunkKey;
using ckptstore::ChunkStoreService;
using cluster::Membership;
using cluster::MembershipConfig;
using cluster::NodeState;
using core::DmtcpControl;
using core::DmtcpOptions;

namespace params = sim::params;

ChunkKey key_of(u64 n) {
  ChunkKey k;
  k.hi = n * 0x9E3779B97F4A7C15ull + 7;
  k.lo = n;
  return k;
}

std::vector<ChunkKey> keys_range(u64 from, u64 to) {
  std::vector<ChunkKey> out;
  for (u64 i = from; i < to; ++i) out.push_back(key_of(i));
  return out;
}

// Envelope wrappers: service ops flow through the typed StoreRequest API.
void submit_lookups(ChunkStoreService& svc, NodeId from,
                    std::vector<ChunkKey> keys, std::function<void()> done) {
  ckptstore::StoreRequest req;
  req.op = ckptstore::StoreOp::kLookup;
  req.from = from;
  req.keys = std::move(keys);
  req.done = std::move(done);
  svc.submit(std::move(req));
}

void submit_store(ChunkStoreService& svc, NodeId from, const ChunkKey& key,
                  u64 bytes, std::function<void()> done) {
  ckptstore::StoreRequest req;
  req.op = ckptstore::StoreOp::kStore;
  req.from = from;
  req.keys = {key};
  req.bytes = bytes;
  req.done = std::move(done);
  svc.submit(std::move(req));
}

// --- membership state machine ------------------------------------------------

TEST(Membership, HeartbeatsDetectDeathThroughSuspicion) {
  sim::EventLoop loop;
  sim::Network net(loop, 4);
  auto health = std::make_shared<rpc::NodeHealth>(4);
  MembershipConfig cfg;
  cfg.heartbeat_interval = 10 * timeconst::kMillisecond;
  cfg.heartbeat_misses = 3;
  cfg.monitor_node = 0;
  Membership m(loop, net, health, cfg);
  std::vector<std::pair<NodeId, NodeState>> transitions;
  m.subscribe([&](NodeId n, NodeState, NodeState to) {
    transitions.emplace_back(n, to);
  });
  m.start();
  loop.run_until(35 * timeconst::kMillisecond);
  // A few healthy rounds: everyone stays alive, acks flow.
  EXPECT_GT(m.stats().heartbeats_sent, 0u);
  EXPECT_GT(m.stats().heartbeat_acks, 0u);
  EXPECT_EQ(m.stats().heartbeat_misses, 0u);
  for (NodeId n = 0; n < 4; ++n) EXPECT_EQ(m.state(n), NodeState::kAlive);

  const SimTime killed_at = loop.now();
  health->fail(2);
  EXPECT_EQ(m.state(2), NodeState::kAlive);  // not *detected* yet
  // First missed heartbeat suspects; the third declares.
  loop.run_until(killed_at + 15 * timeconst::kMillisecond);
  EXPECT_EQ(m.state(2), NodeState::kSuspect);
  loop.run_until(killed_at + 45 * timeconst::kMillisecond);
  EXPECT_EQ(m.state(2), NodeState::kDead);
  ASSERT_GE(transitions.size(), 2u);
  EXPECT_EQ(transitions.front(),
            (std::pair<NodeId, NodeState>{2, NodeState::kSuspect}));
  EXPECT_EQ(transitions.back(),
            (std::pair<NodeId, NodeState>{2, NodeState::kDead}));
  EXPECT_EQ(m.stats().suspicions, 1u);
  EXPECT_EQ(m.stats().deaths, 1u);
  // Dead nodes are not probed further (the miss counter froze at the
  // declaration threshold).
  const u64 misses_at_death = m.stats().heartbeat_misses;
  loop.run_until(loop.now() + 50 * timeconst::kMillisecond);
  EXPECT_EQ(m.stats().heartbeat_misses, misses_at_death);

  // Revival readmits the node as a fresh member and probes resume.
  m.revive_node(2);
  EXPECT_EQ(m.state(2), NodeState::kAlive);
  const u64 acks_before = m.stats().heartbeat_acks;
  loop.run_until(loop.now() + 30 * timeconst::kMillisecond);
  EXPECT_GT(m.stats().heartbeat_acks, acks_before);
  m.stop();
}

// --- RPC fabric under node death --------------------------------------------

TEST(RpcFabric, DeadEndpointFailsTheCallWithoutCharges) {
  sim::EventLoop loop;
  sim::Network net(loop, 4);
  auto health = std::make_shared<rpc::NodeHealth>(4);
  rpc::RpcFabric rpc(loop, net, health);
  health->fail(2);
  bool served = false, done = false, failed = false;
  rpc.call(0, 2, 4096, 512,
           [&](rpc::RpcFabric::Reply reply) {
             served = true;
             reply();
           },
           [&] { done = true; }, [&] { failed = true; });
  loop.run();
  EXPECT_FALSE(served);
  EXPECT_FALSE(done);
  EXPECT_TRUE(failed);
  const auto& st = rpc.stats();
  EXPECT_EQ(st.failed_calls, 1u);
  // The request crossed the *caller's* NIC (it cannot know the target
  // died), but nothing was ever charged to the dead node: no message CPU,
  // no response on its NIC.
  EXPECT_EQ(net.egress(0).total_submitted_bytes(), 4096u);
  EXPECT_EQ(net.egress(2).total_submitted_bytes(), 0u);
  EXPECT_EQ(st.endpoint_cpu_seconds, 0.0);
}

TEST(RpcFabric, DeathWhileServingDropsTheResponse) {
  sim::EventLoop loop;
  sim::Network net(loop, 4);
  auto health = std::make_shared<rpc::NodeHealth>(4);
  rpc::RpcFabric rpc(loop, net, health);
  bool done = false, failed = false;
  rpc.call(0, 2, 1024, 1024,
           [&](rpc::RpcFabric::Reply reply) {
             // The handler runs (the node was alive through dispatch), but
             // the node dies before the response is ready.
             health->fail(2);
             loop.post_in(1 * timeconst::kMillisecond, std::move(reply));
           },
           [&] { done = true; }, [&] { failed = true; });
  loop.run();
  EXPECT_FALSE(done);
  EXPECT_TRUE(failed);
  EXPECT_EQ(net.egress(2).total_submitted_bytes(), 0u);  // response dropped
}

// --- shard failover: park, re-home, replay -----------------------------------

TEST(Failover, DeadEndpointShardRehomesAndReplaysInFlight) {
  sim::EventLoop loop;
  sim::Network net(loop, 4);
  ChunkStoreService svc(loop, net, replicated(2), /*shards=*/2,
                        /*lookup_batch=*/1, /*first=*/2);
  bool looked_up = false, stored = false;
  submit_lookups(svc, 0, keys_range(0, 40), [&] { looked_up = true; });
  for (u64 i = 0; i < 40; ++i) {
    auto done = [&stored] { stored = true; };
    submit_store(svc, 0, key_of(i), 8 * 1024,
                     i + 1 == 40 ? std::function<void()>(done)
                                 : std::function<void()>([] {}));
  }
  // Kill shard 0's endpoint while every request is still in flight. The
  // service watches no membership, so it reacts synchronously: the shard
  // re-homes to the next live node in its rendezvous order and the failing
  // requests replay there.
  svc.fail_node(2);
  EXPECT_NE(svc.endpoints()[0], 2);
  loop.run();
  EXPECT_TRUE(looked_up);
  EXPECT_TRUE(stored);
  const auto& ss = svc.stats();
  EXPECT_GT(ss.parked_requests, 0u);
  EXPECT_GT(ss.replayed_requests, 0u);
  EXPECT_GE(ss.rehomed_shards, 1u);
  // The satellite invariant: nothing was ever charged to the dead node's
  // NIC after the death (its egress saw no response traffic at all — every
  // request to it was still inbound when it died).
  EXPECT_EQ(net.egress(2).total_submitted_bytes(), 0u);
}

TEST(Failover, TransientDeathRevivedBeforeDeclarationReplaysParked) {
  // A node that dies and comes back *inside the detection window* never
  // reaches kDead, so no re-home will ever flush its parked requests —
  // the revival itself must replay them or they strand forever.
  sim::EventLoop loop;
  sim::Network net(loop, 4);
  ChunkStoreService svc(loop, net, replicated(1), /*shards=*/1,
                        /*lookup_batch=*/1, /*first=*/2);
  MembershipConfig cfg;
  cfg.heartbeat_interval = 10 * timeconst::kMillisecond;
  cfg.heartbeat_misses = 3;
  Membership m(loop, net, svc.health(), cfg);
  svc.watch(m);
  m.start();

  bool done = false;
  submit_lookups(svc, 0, keys_range(0, 20), [&] { done = true; });
  svc.fail_node(2);  // requests in flight park against the dead endpoint
  loop.run_until(loop.now() + 15 * timeconst::kMillisecond);
  EXPECT_FALSE(done);  // parked: one miss in, not yet declared
  EXPECT_GT(svc.stats().parked_requests, 0u);
  svc.revive_node(2);
  loop.run_until(loop.now() + 100 * timeconst::kMillisecond);
  EXPECT_TRUE(done);
  EXPECT_EQ(m.stats().deaths, 0u);           // never declared dead
  EXPECT_EQ(svc.endpoints()[0], 2);          // never re-homed
  EXPECT_GT(svc.stats().replayed_requests, 0u);
  m.stop();
}

// --- end-to-end worlds -------------------------------------------------------

struct World {
  sim::Cluster cluster;
  DmtcpControl ctl;
  World(int nodes, DmtcpOptions opts, u64 seed = 0x5eed)
      : cluster([&] {
          auto cfg = sim::Cluster::lab_cluster(nodes);
          cfg.seed = seed;
          return cfg;
        }()),
        ctl(cluster.kernel(), opts) {
    register_test_programs(cluster.kernel());
  }
  sim::Kernel& k() { return cluster.kernel(); }
  bool run_until_results(std::initializer_list<const char*> names,
                         SimTime deadline = 300 * timeconst::kSecond) {
    return ctl.run_until(
        [&] {
          for (const char* n : names) {
            if (read_result(k(), n).empty()) return false;
          }
          return true;
        },
        k().loop().now() + deadline);
  }
};

DmtcpOptions cluster_opts(int replicas, int shards = 1,
                          i32 store_node = DmtcpOptions::kStoreNodeCoord) {
  DmtcpOptions o;
  o.incremental = true;
  o.codec = compress::CodecKind::kNone;  // exact byte accounting
  o.chunking = ckptstore::ChunkingMode::kCdc;
  o.cdc_min_bytes = 2 * 1024;
  o.cdc_avg_bytes = 8 * 1024;
  o.cdc_max_bytes = 32 * 1024;
  o.dedup_scope = core::DedupScope::kCluster;
  o.chunk_replicas = replicas;
  o.store_shards = shards;
  o.store_node = store_node;
  return o;
}

void add_ballast(World& w, Pid pid, u64 bytes, u64 seed) {
  sim::Process* p = w.k().find_process(pid);
  ASSERT_NE(p, nullptr);
  auto& seg = p->mem().add("ballast", sim::MemKind::kHeap, bytes);
  seg.data.fill(0, bytes, sim::ExtentKind::kRand, seed);
}

struct KillRunResult {
  std::vector<std::vector<std::byte>> manifests;
  u64 lost_chunks = 0;
  u64 replayed = 0;
  u64 rehomed = 0;
  double round_seconds = 0;
  bool restart_ok = false;
};

/// One seeded scenario: 2 ranks + 2 dedicated store nodes, R=2, jittered
/// network. Optionally kill shard 0's endpoint mid-round (right after the
/// drain barrier, when the write phase floods the shard queues), then
/// complete the round, heal, and restart.
KillRunResult run_kill_scenario(u64 seed, bool kill) {
  KillRunResult res;
  World w(4, cluster_opts(/*replicas=*/2, /*shards=*/2, /*store_node=*/2),
          seed);
  Rng jitter_rng(seed ^ 0x71773E11);
  w.k().net().set_jitter(&jitter_rng, 0.25);
  const Pid pa = w.ctl.launch(0, kComputeLoop, {"1000000", "200", "a"});
  const Pid pb = w.ctl.launch(1, kComputeLoop, {"1000000", "200", "b"});
  w.ctl.run_for(20 * timeconst::kMillisecond);
  add_ballast(w, pa, 1024 * 1024, 0xAA);
  add_ballast(w, pb, 1024 * 1024, 0xBB);

  w.ctl.request_checkpoint();
  const bool drained = w.ctl.run_until(
      [&] {
        return !w.ctl.stats().rounds.empty() &&
               w.ctl.stats().rounds.back().drained != 0;
      },
      w.k().loop().now() + 60 * timeconst::kSecond);
  EXPECT_TRUE(drained);
  if (kill) {
    // The write phase is starting: lookups and stores are heading for the
    // endpoint on node 2. Kill it mid-flight — membership must detect the
    // silence, the service re-homes the shard, and the parked
    // requests replay. The content being checkpointed was frozen at
    // suspend time, so the failover must not change a single stored byte.
    w.ctl.shared().store_service->fail_node(2);
  }
  const bool completed = w.ctl.run_until(
      [&] { return w.ctl.stats().rounds.back().refilled != 0; },
      w.k().loop().now() + 60 * timeconst::kSecond);
  EXPECT_TRUE(completed);
  const auto& round = w.ctl.stats().rounds.back();
  res.round_seconds = round.total_seconds();
  res.replayed = round.delta.counter("store.replayed_requests");
  res.rehomed = round.delta.counter("store.rehomed_shards");
  res.manifests = plan_manifests(w.k(), w.ctl);
  // Let the heal daemon finish restoring replica strength.
  w.ctl.run_for(300 * timeconst::kMillisecond);
  res.lost_chunks = w.ctl.shared().store_service->placement().lost_chunks();
  w.ctl.kill_computation();
  const auto& rr = w.ctl.restart();
  res.restart_ok = !rr.needs_restore && rr.procs == 2 &&
                   w.run_until_results({"a", "b"});
  return res;
}

TEST(Failover, MidRoundEndpointKillIsByteTransparentAcrossSeeds) {
  for (const u64 seed : {0xFA11u, 0x5EED2u}) {
    const KillRunResult base = run_kill_scenario(seed, /*kill=*/false);
    const KillRunResult killed = run_kill_scenario(seed, /*kill=*/true);
    // The round completed, the failover really engaged, and with R=2 the
    // store lost nothing.
    EXPECT_GE(killed.rehomed, 1u) << "seed " << seed;
    EXPECT_GT(killed.replayed, 0u) << "seed " << seed;
    EXPECT_EQ(killed.lost_chunks, 0u) << "seed " << seed;
    EXPECT_TRUE(killed.restart_ok) << "seed " << seed;
    // Callers saw latency, never errors: the kill-run manifests are
    // byte-identical to the undisturbed run's — failover changed *when*
    // the round finished, not *what* it stored.
    ASSERT_EQ(killed.manifests.size(), base.manifests.size());
    for (size_t i = 0; i < base.manifests.size(); ++i) {
      EXPECT_EQ(killed.manifests[i], base.manifests[i])
          << "manifest " << i << " diverged under seed " << seed;
    }
    EXPECT_GE(killed.round_seconds, base.round_seconds);
  }
}

TEST(Failover, RestartFetchesPastADeadEndpointNode) {
  // The shard endpoint (a replica holder too) dies *after* the round. The
  // restart must re-home the shard on the fly (fetch RPCs park and replay)
  // and fetch every chunk from surviving holders only.
  World w(4, cluster_opts(/*replicas=*/2, /*shards=*/1, /*store_node=*/2));
  const Pid pa = w.ctl.launch(0, kComputeLoop, {"1000000", "200", "a"});
  const Pid pb = w.ctl.launch(1, kComputeLoop, {"1000000", "200", "b"});
  w.ctl.run_for(20 * timeconst::kMillisecond);
  add_ballast(w, pa, 1024 * 1024, 0xAA);
  add_ballast(w, pb, 1024 * 1024, 0xBB);
  w.ctl.checkpoint_now();

  const u64 node2_nic_before = w.k().net().egress(2).total_submitted_bytes();
  w.ctl.shared().store_service->fail_node(2);
  w.ctl.kill_computation();
  const auto& rr = w.ctl.restart();
  EXPECT_FALSE(rr.needs_restore);
  EXPECT_EQ(rr.lost_chunks, 0u);
  EXPECT_EQ(rr.procs, 2);
  ASSERT_TRUE(w.run_until_results({"a", "b"}));
  EXPECT_NE(w.ctl.shared().store_service->endpoints()[0], 2);
  // Nothing left the dead node's NIC after its death: no fetch was served
  // or answered by it (the membership-aware holder choice plus the fabric
  // assert both guard this).
  EXPECT_EQ(w.k().net().egress(2).total_submitted_bytes(),
            node2_nic_before);
}

TEST(Failover, RevivedEndpointGetsItsShardBackAtTheRoundBoundary) {
  // Shard stickiness: a failover re-home is an *emergency* move, not a new
  // assignment. Once the original endpoint node revives, the next round
  // boundary must move the shard back to its assigned owner (and replay
  // anything parked), instead of leaving it stuck on the stand-in forever.
  World w(4, cluster_opts(/*replicas=*/2, /*shards=*/2, /*store_node=*/2));
  const Pid pa = w.ctl.launch(0, kComputeLoop, {"1000000", "200", "a"});
  const Pid pb = w.ctl.launch(1, kComputeLoop, {"1000000", "200", "b"});
  w.ctl.run_for(20 * timeconst::kMillisecond);
  add_ballast(w, pa, 1024 * 1024, 0xAA);
  add_ballast(w, pb, 1024 * 1024, 0xBB);
  w.ctl.checkpoint_now();

  auto& svc = *w.ctl.shared().store_service;
  ASSERT_EQ(svc.endpoints()[0], 2);  // shard 0's assigned owner
  svc.fail_node(2);
  w.ctl.run_for(2 * timeconst::kSecond);  // let membership declare the death
  EXPECT_NE(svc.endpoints()[0], 2);       // emergency re-home engaged

  // A round while the owner is down must NOT move the shard back.
  w.ctl.checkpoint_now();
  EXPECT_NE(svc.endpoints()[0], 2);
  EXPECT_EQ(svc.stats().rehomed_back_shards, 0u);

  svc.revive_node(2);
  const auto& round = w.ctl.checkpoint_now();
  EXPECT_EQ(svc.endpoints()[0], 2) << "shard did not stick to its owner";
  EXPECT_GE(svc.stats().rehomed_back_shards, 1u);
  EXPECT_GE(round.delta.counter("store.rehomed_back_shards"), 1u);

  // The store stayed coherent across the move-away and the move-back.
  w.ctl.run_for(300 * timeconst::kMillisecond);  // heal daemon settles
  EXPECT_EQ(svc.placement().lost_chunks(), 0u);
  w.ctl.kill_computation();
  const auto& rr = w.ctl.restart();
  EXPECT_FALSE(rr.needs_restore);
  EXPECT_EQ(rr.procs, 2);
  ASSERT_TRUE(w.run_until_results({"a", "b"}));
}

TEST(Failover, WiredDeathIsReactedToOnlyAtItsDetection) {
  // The DMTCP world wires the service to membership: a kill is ground
  // truth at once, but nothing reacts until the heartbeats declare it.
  World w(4, cluster_opts(/*replicas=*/2, /*shards=*/2, /*store_node=*/2));
  const Pid pa = w.ctl.launch(0, kComputeLoop, {"1000000", "200", "a"});
  w.ctl.run_for(20 * timeconst::kMillisecond);
  add_ballast(w, pa, 256 * 1024, 0xAA);
  w.ctl.checkpoint_now();

  auto& svc = *w.ctl.shared().store_service;
  const Membership& m = *w.ctl.shared().membership;
  ASSERT_EQ(svc.endpoints()[0], 2);
  svc.fail_node(2);
  EXPECT_FALSE(svc.health()->up(2));
  EXPECT_EQ(svc.endpoints()[0], 2);
  EXPECT_EQ(m.state(2), NodeState::kAlive);

  // One missed heartbeat suspects; nothing moves on a suspicion.
  w.ctl.run_for(15 * timeconst::kMillisecond);
  EXPECT_EQ(m.state(2), NodeState::kSuspect);
  EXPECT_EQ(svc.endpoints()[0], 2);
  EXPECT_EQ(svc.stats().rehomed_shards, 0u);

  // The third declares, and the declaration re-homes shard 0.
  w.ctl.run_for(30 * timeconst::kMillisecond);
  EXPECT_EQ(m.state(2), NodeState::kDead);
  EXPECT_NE(svc.endpoints()[0], 2);
  EXPECT_EQ(svc.stats().rehomed_shards, 1u);

  EXPECT_DEATH(svc.fail_node(0), "membership monitor");
}

// A dedup hit the writer vouches for skips its Lookup, never the
// lost-homes check: a clean chunk whose every home died between two rounds
// is re-stored by the next one, and the store restarts with nothing lost.
TEST(Failover, CleanChunkWhoseHomesAllDiedIsRestoredNextRound) {
  World w(8, cluster_opts(/*replicas=*/2, /*shards=*/2, /*store_node=*/6));
  const Pid pa = w.ctl.launch(0, kComputeLoop, {"1000000", "200", "a"});
  const Pid pb = w.ctl.launch(1, kComputeLoop, {"1000000", "200", "b"});
  w.ctl.run_for(20 * timeconst::kMillisecond);
  add_ballast(w, pa, 1024 * 1024, 0xAA);
  add_ballast(w, pb, 1024 * 1024, 0xBB);
  w.ctl.checkpoint_now();

  // A ballast chunk homed only on nodes that neither compute nor serve.
  auto& svc = *w.ctl.shared().store_service;
  std::vector<ChunkKey> ballast;
  for (const auto& bytes : plan_manifests(w.k(), w.ctl)) {
    for (const auto& sm : ckptstore::Manifest::decode(bytes).segments) {
      if (sm.name != "ballast") continue;
      for (const auto& ref : sm.chunks) ballast.push_back(ref.key);
    }
  }
  const auto victim =
      std::find_if(ballast.begin(), ballast.end(), [&](const ChunkKey& k) {
        const auto homes = svc.placement().homes_of(k);
        return std::all_of(homes.begin(), homes.end(),
                           [](NodeId n) { return n >= 2 && n < 6; });
      });
  ASSERT_NE(victim, ballast.end());
  for (const NodeId n : svc.placement().homes_of(*victim)) svc.fail_node(n);
  ASSERT_TRUE(svc.placement().lost(*victim));

  // The ballast is unwritten, so its hits are known and skip the Lookup.
  const core::CkptRound round = w.ctl.checkpoint_now();
  EXPECT_LT(round.delta.counter("store.lookup_requests"), round.total_chunks);
  EXPECT_FALSE(svc.placement().lost(*victim));
  EXPECT_EQ(svc.placement().lost_chunks(), 0u);

  w.ctl.run_for(300 * timeconst::kMillisecond);  // heal daemon settles
  w.ctl.kill_computation();
  const auto& rr = w.ctl.restart();
  EXPECT_FALSE(rr.needs_restore);
  EXPECT_EQ(rr.lost_chunks, 0u);
  ASSERT_TRUE(w.run_until_results({"a", "b"}));
}

// --- consistent-hash rebalancing ---------------------------------------------

TEST(Rebalance, ShardCountChangeMovesOnlyReassignedKeys) {
  World w(6, cluster_opts(/*replicas=*/1, /*shards=*/3, /*store_node=*/2));
  const Pid pa = w.ctl.launch(0, kComputeLoop, {"1000000", "200", "a"});
  const Pid pb = w.ctl.launch(1, kComputeLoop, {"1000000", "200", "b"});
  w.ctl.run_for(20 * timeconst::kMillisecond);
  add_ballast(w, pa, 2 * 1024 * 1024, 0xAA);
  add_ballast(w, pb, 2 * 1024 * 1024, 0xBB);
  w.ctl.checkpoint_now();

  auto& svc = *w.ctl.shared().store_service;
  // Ground truth from the index itself: exactly the keys whose rendezvous
  // winner changes between 3 and 4 shards may move — nothing else.
  u64 expect_moved = 0, expect_total = 0;
  for (const auto& [key, chunk] : svc.repo().chunks_after(
           ChunkKey{}, static_cast<size_t>(svc.repo().stats().live_chunks))) {
    (void)chunk;
    expect_total++;
    if (ChunkStoreService::shard_of_n(key, 3) !=
        ChunkStoreService::shard_of_n(key, 4)) {
      expect_moved++;
    }
  }
  ASSERT_GT(expect_total, 100u);

  w.ctl.set_store_shards(4);
  EXPECT_EQ(svc.num_shards(), 4);
  EXPECT_EQ(w.ctl.shared().opts.store_shards, 4);
  const auto& ss = svc.stats();
  EXPECT_EQ(ss.rebalances, 1u);
  EXPECT_EQ(ss.rebalance_moved_keys, expect_moved);
  EXPECT_EQ(ss.rebalance_scanned_keys, expect_total);
  // Rendezvous property: growing 3 -> 4 moves ~1/4 of the keys.
  const double fraction = static_cast<double>(expect_moved) /
                          static_cast<double>(expect_total);
  EXPECT_GT(fraction, 0.10);
  EXPECT_LT(fraction, 0.45);

  // The next round routes with the new shard count and records the move in
  // its stats; a restart over the rebalanced store works end to end.
  const auto& round = w.ctl.checkpoint_now();
  EXPECT_EQ(round.delta.counter("store.rebalance_moved_keys"), expect_moved);
  EXPECT_GT(round.delta.counter("store.rebalance_moved_bytes"), 0u);
  w.ctl.kill_computation();
  const auto& rr = w.ctl.restart();
  EXPECT_FALSE(rr.needs_restore);
  EXPECT_EQ(rr.procs, 2);
  ASSERT_TRUE(w.run_until_results({"a", "b"}));
}

// --- scrub -> repair wiring --------------------------------------------------

TEST(ScrubRepair, CorruptChunkIsQuarantinedAndRestoredNextRound) {
  World w(4, cluster_opts(/*replicas=*/1));
  const Pid pa = w.ctl.launch(0, kComputeLoop, {"1000000", "200", "a"});
  w.ctl.run_for(20 * timeconst::kMillisecond);
  sim::Process* p = w.k().find_process(pa);
  ASSERT_NE(p, nullptr);
  auto& seg = p->mem().add("blob", sim::MemKind::kHeap, 512 * 1024);
  seg.data.write(0, pseudo_bytes(512 * 1024, 0x5C12B));
  w.ctl.checkpoint_now();

  auto& svc = *w.ctl.shared().store_service;
  // Rot one real chunk: same length, wrong content. Pick a big one — the
  // CDC chunks of the deterministic blob ballast are the only multi-KiB
  // real spans, so the re-launched computation below re-produces the
  // victim's exact content (a rotten *state* chunk would simply never be
  // referenced again, which repairs nothing observable).
  ckptstore::Chunk* victim = nullptr;
  for (const auto& [key, chunk] : svc.repo().chunks_after(ChunkKey{}, 4096)) {
    if (chunk->kind == sim::ExtentKind::kReal && chunk->len >= 4096) {
      victim = svc.repo().find_mutable(key);
      break;
    }
  }
  ASSERT_NE(victim, nullptr);
  victim->stored = std::make_shared<const std::vector<std::byte>>(
      compress::codec(compress::CodecKind::kNone)
          .compress(pseudo_bytes(victim->len, 0xBAD)));

  // The scrubber finds the rot and wires it into the repair path: the key
  // is quarantined (masked from the repository) so the next generation's
  // encode re-stores fresh content from the live process.
  svc.scrub(1u << 20);
  w.ctl.run_for(100 * timeconst::kMillisecond);
  EXPECT_GE(svc.stats().scrub_corrupt_chunks, 1u);
  EXPECT_GE(svc.stats().scrub_quarantined_chunks, 1u);
  EXPECT_GE(svc.repo().quarantined_count(), 1u);

  // A restart *now* would land on the condemned chunk: the pre-flight must
  // report it instead of crashing into a CRC mismatch mid-decode.
  {
    w.ctl.kill_computation();
    const auto& rr = w.ctl.restart();
    EXPECT_TRUE(rr.needs_restore);
    EXPECT_GT(rr.lost_chunks, 0u);
    // The forced re-store: re-run the computation (fresh launch) — its
    // next checkpoint repairs the store.
    const Pid pa2 = w.ctl.launch(0, kComputeLoop, {"1000000", "200", "a"});
    w.ctl.run_for(20 * timeconst::kMillisecond);
    sim::Process* p2 = w.k().find_process(pa2);
    ASSERT_NE(p2, nullptr);
    auto& seg2 = p2->mem().add("blob", sim::MemKind::kHeap, 512 * 1024);
    seg2.data.write(0, pseudo_bytes(512 * 1024, 0x5C12B));
  }
  w.ctl.checkpoint_now();
  EXPECT_EQ(svc.repo().quarantined_count(), 0u);  // re-stored fresh

  // The repaired store restarts cleanly — the rotten container is gone.
  w.ctl.kill_computation();
  const auto& rr = w.ctl.restart();
  EXPECT_FALSE(rr.needs_restore);
  ASSERT_TRUE(w.run_until_results({"a"}));
}

TEST(ScrubRepair, DegradedStragglersAreRoutedToTheHealDaemon) {
  sim::EventLoop loop;
  sim::Network net(loop, 4);
  ChunkStoreService svc(loop, net, replicated(2), /*shards=*/1,
                        /*lookup_batch=*/1, /*first=*/0);
  for (u64 i = 0; i < 60; ++i) {
    submit_store(svc, 0, key_of(i), 16 * 1024, [] {});
    // The scrub walk iterates the *repository* index; mirror the placement
    // entries there (pattern descriptors — scrub only CRC-checks real
    // containers, and this test is about the degraded routing).
    ckptstore::Chunk c;
    c.kind = sim::ExtentKind::kZero;
    c.len = 16 * 1024;
    c.charged_bytes = 16 * 1024;
    svc.repo().put(key_of(i), std::move(c));
  }
  loop.run();
  // Degrade the store behind the heal daemon's back (a health-only death
  // skips the one-shot heal scan a service-level fail_node would kick).
  svc.health()->fail(1);
  ASSERT_GT(svc.placement().degraded_count(), 0u);
  ASSERT_TRUE(svc.rereplication_idle());
  // The scrub walk trips over the degraded survivors and routes them into
  // the heal path.
  svc.scrub(1u << 20);
  loop.run();
  EXPECT_EQ(svc.placement().degraded_count(), 0u);
  EXPECT_GT(svc.stats().rereplicated_chunks, 0u);
}

// --- shard placement at the service ------------------------------------------

TEST(ShardPlacement, ShardsSpreadFromTheFirstEndpointNode) {
  sim::EventLoop loop;
  sim::Network net(loop, 4);
  ChunkStoreService svc(loop, net, replicated(1), /*shards=*/2,
                        /*lookup_batch=*/1, /*first=*/2);
  EXPECT_EQ(svc.endpoints(), (std::vector<NodeId>{2, 3}));
}

TEST(ShardPlacement, ReshardRoutesAroundANodeKilledInsideTheDetectionWindow) {
  // Node 4 dies, and the shard count grows before membership declares it:
  // the new shards walk from the first endpoint over NodeHealth's ground
  // truth, so shard 2 skips node 4 for node 5.
  sim::EventLoop loop;
  sim::Network net(loop, 6);
  ChunkStoreService svc(loop, net, replicated(1), /*shards=*/2,
                        /*lookup_batch=*/1, /*first=*/2);
  MembershipConfig cfg;
  cfg.heartbeat_interval = 10 * timeconst::kMillisecond;
  cfg.heartbeat_misses = 3;
  Membership m(loop, net, svc.health(), cfg);
  svc.watch(m);
  m.start();
  loop.run_until(loop.now() + 5 * timeconst::kMillisecond);
  svc.fail_node(4);
  ASSERT_TRUE(m.alive(4));  // not declared yet
  bool done = false;
  svc.rebalance(4, [&done] { done = true; });
  EXPECT_EQ(svc.endpoints(), (std::vector<NodeId>{2, 3, 5, 5}));
  for (NodeId ep : svc.endpoints()) EXPECT_TRUE(svc.health()->up(ep));
  loop.run_until(loop.now() + 5 * timeconst::kMillisecond);
  EXPECT_TRUE(done);
  m.stop();
}

TEST(ShardPlacement, SparesSkipNodesMembershipDeclaredDead) {
  sim::EventLoop loop;
  sim::Network net(loop, 5);
  ChunkStoreService svc(loop, net, replicated(1), /*shards=*/2);
  MembershipConfig cfg;
  cfg.heartbeat_interval = 10 * timeconst::kMillisecond;
  cfg.heartbeat_misses = 3;
  Membership m(loop, net, svc.health(), cfg);
  svc.watch(m);
  m.start();
  svc.fail_node(3);
  loop.run_until(loop.now() + 100 * timeconst::kMillisecond);
  ASSERT_EQ(m.state(3), NodeState::kDead);
  svc.place_on_spares({0, 1});
  EXPECT_EQ(svc.endpoints(), (std::vector<NodeId>{2, 4}));
  m.stop();
}

// --- automatic store placement -----------------------------------------------

TEST(AutoPlacement, SpareNodesHostTheShardEndpoints) {
  // Ranks compute on nodes 0 and 1 (the coordinator shares node 0); nodes
  // 2 and 3 are spare. Without --store-node the coordinator pins the shard
  // endpoints onto the spares at the first round.
  World w(4, cluster_opts(/*replicas=*/1, /*shards=*/2));
  const Pid pa = w.ctl.launch(0, kComputeLoop, {"1000000", "200", "a"});
  const Pid pb = w.ctl.launch(1, kComputeLoop, {"1000000", "200", "b"});
  w.ctl.run_for(20 * timeconst::kMillisecond);
  add_ballast(w, pa, 512 * 1024, 0xAA);
  add_ballast(w, pb, 512 * 1024, 0xBB);
  w.ctl.checkpoint_now();
  const auto& eps = w.ctl.shared().store_service->endpoints();
  ASSERT_EQ(eps.size(), 2u);
  for (NodeId ep : eps) {
    EXPECT_TRUE(ep == 2 || ep == 3) << "endpoint on compute node " << ep;
  }
}

TEST(AutoPlacement, NoSparesKeepsTheCoordinatorDefault) {
  // Every node computes: the startup default (shards from the coordinator's
  // node) must hold.
  World w(2, cluster_opts(/*replicas=*/1, /*shards=*/1));
  const Pid pa = w.ctl.launch(0, kComputeLoop, {"1000000", "200", "a"});
  const Pid pb = w.ctl.launch(1, kComputeLoop, {"1000000", "200", "b"});
  w.ctl.run_for(20 * timeconst::kMillisecond);
  add_ballast(w, pa, 256 * 1024, 0xAA);
  add_ballast(w, pb, 256 * 1024, 0xBB);
  w.ctl.checkpoint_now();
  EXPECT_EQ(w.ctl.shared().store_service->endpoints()[0], 0);
}

// --- options -----------------------------------------------------------------

TEST(Options, HeartbeatFlagsParseAndValidate) {
  DmtcpOptions o;
  std::vector<std::string> argv{"--incremental",         "--dedup-scope",
                                "cluster",               "--heartbeat-interval",
                                "25",                    "--heartbeat-misses",
                                "5"};
  EXPECT_EQ(o.apply_flags(argv), "");
  EXPECT_TRUE(argv.empty());
  EXPECT_EQ(o.heartbeat_interval_ms, 25);
  EXPECT_EQ(o.heartbeat_misses, 5);

  DmtcpOptions bad;
  std::vector<std::string> zero_interval{"--heartbeat-interval", "0"};
  EXPECT_NE(bad.apply_flags(zero_interval), "");
  DmtcpOptions bad2;
  std::vector<std::string> zero_misses{"--heartbeat-misses", "0"};
  EXPECT_NE(bad2.apply_flags(zero_misses), "");
}

}  // namespace
}  // namespace dsim::test
