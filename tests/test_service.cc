// The remote chunk-store service: rendezvous placement and replication,
// queued dedup lookups contending across ranks, replica failover on node
// failure, the R=1 data-loss path, FastCDC normalized chunking, and the
// per-chunk encode and decode pools of the streamed write and restart.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <set>
#include <vector>

#include "bench/bench_util.h"
#include "ckptasync/pipeline.h"
#include "ckptstore/cdc.h"
#include "ckptstore/manifest.h"
#include "ckptstore/placement.h"
#include "ckptstore/service.h"
#include "core/launch.h"
#include "mtcp/mtcp.h"
#include "sim/cluster.h"
#include "sim/model_params.h"
#include "tests/testprogs.h"
#include "tests/testutil.h"
#include "util/crc32.h"
#include "util/rng.h"

namespace dsim::test {
namespace {

using ckptstore::ChunkKey;
using ckptstore::ChunkPlacement;
using ckptstore::ChunkStoreService;
using core::DmtcpControl;
using core::DmtcpOptions;
using sim::ByteImage;
using sim::ExtentKind;

ChunkKey key_of(u64 n) {
  ChunkKey k;
  k.hi = n * 0x9E3779B97F4A7C15ull + 7;
  k.lo = n;
  return k;
}

// pseudo_bytes / cdc_params come from tests/testutil.h.

// --- placement --------------------------------------------------------------

TEST(Placement, ReplicasAreDistinctAliveNodes) {
  auto health = std::make_shared<rpc::NodeHealth>(8);
  ChunkPlacement pl(health, 1, 2);  // R=3
  for (u64 i = 0; i < 200; ++i) {
    const auto homes = pl.place(key_of(i));
    ASSERT_EQ(homes.size(), 3u);
    std::set<NodeId> uniq(homes.begin(), homes.end());
    EXPECT_EQ(uniq.size(), 3u);
    for (NodeId n : homes) EXPECT_TRUE(health->up(n));
  }
  // More replicas than nodes degrades gracefully to one copy per node.
  ChunkPlacement small(std::make_shared<rpc::NodeHealth>(2), 1, 4);  // R=5
  EXPECT_EQ(small.place(key_of(1)).size(), 2u);
  // A copy set recorded while nodes were down fills up once they return.
  auto grow_health = std::make_shared<rpc::NodeHealth>(3);
  ChunkPlacement grow(grow_health, 1, 2);  // R=3
  grow_health->fail(1);
  grow_health->fail(2);
  ASSERT_EQ(grow.record_store(key_of(2), 100).size(), 1u);
  grow_health->revive(1);
  grow_health->revive(2);
  EXPECT_TRUE(grow.degraded(key_of(2)));
  EXPECT_EQ(grow.heal(key_of(2)).size(), 2u);
  EXPECT_EQ(grow.homes_of(key_of(2)).size(), 3u);
  EXPECT_FALSE(grow.degraded(key_of(2)));
}

TEST(Placement, RendezvousSpreadsAndIsStableUnderFailure) {
  auto health = std::make_shared<rpc::NodeHealth>(4);
  ChunkPlacement pl(health, 1, 0);  // R=1
  std::vector<int> per_node(4, 0);
  std::vector<std::vector<NodeId>> before;
  for (u64 i = 0; i < 400; ++i) {
    const auto homes = pl.place(key_of(i));
    per_node[static_cast<size_t>(homes[0])]++;
    before.push_back(homes);
  }
  // Roughly uniform: every node holds a real share (exactly 100 each would
  // be suspicious; none should be starved or hot by an order of magnitude).
  for (int n = 0; n < 4; ++n) {
    EXPECT_GT(per_node[static_cast<size_t>(n)], 40);
    EXPECT_LT(per_node[static_cast<size_t>(n)], 200);
  }
  // Rendezvous property: failing node 2 moves only node-2 chunks.
  health->fail(2);
  for (u64 i = 0; i < 400; ++i) {
    const auto homes = pl.place(key_of(i));
    if (before[i][0] != 2) {
      EXPECT_EQ(homes[0], before[i][0]);
    } else {
      EXPECT_NE(homes[0], 2);
    }
  }
}

TEST(Placement, FailoverPrefersSurvivingHomesInOrder) {
  auto health = std::make_shared<rpc::NodeHealth>(6);
  ChunkPlacement pl(health, 1, 1);  // R=2
  // Record every key with its homes, fail two nodes, and check each
  // holder: the best surviving home when one exists, kNoHolder when both
  // replicas died with their nodes.
  std::vector<std::pair<ChunkKey, std::vector<NodeId>>> recorded;
  for (u64 i = 0; i < 100; ++i) {
    const ChunkKey k = key_of(i);
    recorded.emplace_back(k, pl.record_store(k, 1000));
    ASSERT_EQ(recorded.back().second.size(), 2u);
  }
  EXPECT_EQ(pl.lost_chunks(), 0u);

  health->fail(0);
  health->fail(1);
  u64 expected_lost = 0;
  for (const auto& [k, homes] : recorded) {
    i32 expected = ChunkPlacement::kNoHolder;
    for (NodeId n : homes) {
      if (health->up(n)) {
        expected = n;  // best-first order is preserved on failover
        break;
      }
    }
    EXPECT_EQ(pl.holder(k), expected);
    if (expected < 0) ++expected_lost;
  }
  EXPECT_EQ(pl.lost_chunks(), expected_lost);
  // Re-recording an existing key is a dedup no-op (no new copies).
  EXPECT_TRUE(pl.record_store(recorded[0].first, 1000).empty());
}

TEST(Placement, ReplicaOneLosesChunksWithTheirNode) {
  auto health = std::make_shared<rpc::NodeHealth>(4);
  ChunkPlacement pl(health, 1, 0);  // R=1
  u64 on_node1 = 0;
  for (u64 i = 0; i < 200; ++i) {
    const auto homes = pl.record_store(key_of(i), 500);
    ASSERT_EQ(homes.size(), 1u);
    if (homes[0] == 1) ++on_node1;
  }
  ASSERT_GT(on_node1, 0u);
  health->fail(1);
  EXPECT_EQ(pl.lost_chunks(), on_node1);
  EXPECT_EQ(pl.lost_bytes(), on_node1 * 500);
  // Revival restores the node, and with it the bytes it physically held.
  health->revive(1);
  EXPECT_EQ(pl.lost_chunks(), 0u);
}

TEST(Placement, ReplicaTwoSurvivesOneNodeFailure) {
  auto health = std::make_shared<rpc::NodeHealth>(4);
  ChunkPlacement pl(health, 1, 1);  // R=2
  for (u64 i = 0; i < 200; ++i) pl.record_store(key_of(i), 500);
  health->fail(2);
  EXPECT_EQ(pl.lost_chunks(), 0u);
  for (u64 i = 0; i < 200; ++i) {
    const i32 h = pl.holder(key_of(i));
    ASSERT_GE(h, 0);
    EXPECT_NE(h, 2);
  }
}

// --- service request queue ---------------------------------------------------

std::vector<ChunkKey> keys_range(u64 from, u64 to) {
  std::vector<ChunkKey> out;
  for (u64 i = from; i < to; ++i) out.push_back(key_of(i));
  return out;
}

// Every service op flows through the typed StoreRequest envelope; these
// wrap it so the queueing tests read as one-liners.
void submit_lookups(ChunkStoreService& svc, NodeId from,
                    std::vector<ChunkKey> keys, std::function<void()> done) {
  ckptstore::StoreRequest req;
  req.op = ckptstore::StoreOp::kLookup;
  req.from = from;
  req.keys = std::move(keys);
  req.done = std::move(done);
  svc.submit(std::move(req));
}

std::vector<ckptstore::StoreTarget> submit_store(
    ChunkStoreService& svc, NodeId from, const ChunkKey& key, u64 bytes,
    std::function<void()> done) {
  ckptstore::StoreRequest req;
  req.op = ckptstore::StoreOp::kStore;
  req.from = from;
  req.keys = {key};
  req.bytes = bytes;
  req.done = std::move(done);
  return svc.submit(std::move(req)).targets;
}

void submit_fetch(ChunkStoreService& svc, NodeId from, const ChunkKey& key,
                  u64 bytes, std::function<void()> done) {
  ckptstore::StoreRequest req;
  req.op = ckptstore::StoreOp::kFetch;
  req.from = from;
  req.keys = {key};
  req.bytes = bytes;
  req.done = std::move(done);
  svc.submit(std::move(req));
}

void submit_drop(ChunkStoreService& svc, NodeId from, const ChunkKey& key,
                 u64 bytes) {
  ckptstore::StoreRequest req;
  req.op = ckptstore::StoreOp::kDrop;
  req.from = from;
  req.keys = {key};
  req.bytes = bytes;
  svc.submit(std::move(req));
}

TEST(Service, LookupsAreServedFifoAndWaitsGrowWithQueueDepth) {
  sim::EventLoop loop;
  sim::Network net(loop, 4);
  ChunkStoreService svc(loop, net, replicated(1));  // one shard, one queue
  // Two batches submitted back to back from one node: the NIC preserves
  // their order and the shard queue serves them FIFO, so batch B completes
  // after batch A and per-lookup waits grow with queue depth.
  SimTime done_a = 0, done_b = 0;
  submit_lookups(svc, 0, keys_range(0, 50), [&] { done_a = loop.now(); });
  submit_lookups(svc, 0, keys_range(50, 100), [&] { done_b = loop.now(); });
  loop.run();
  ASSERT_GT(done_a, 0);
  ASSERT_GT(done_b, 0);
  EXPECT_GT(done_b, done_a);  // FIFO: B queued behind A's 50 probes
  const auto& ss = svc.stats();
  EXPECT_EQ(ss.lookup_requests, 100u);
  EXPECT_EQ(ss.lookup_batches, 100u);  // default: one key per RPC
  EXPECT_GT(ss.avg_lookup_wait_seconds(), 0.0);
  // The last probe waited behind 99 others; its wait dominates the mean.
  EXPECT_GT(ss.lookup_wait.max(), 1.5 * ss.avg_lookup_wait_seconds());
}

TEST(Service, LookupsTraverseTheNetwork) {
  sim::EventLoop loop;
  sim::Network net(loop, 4);
  ChunkStoreService svc(loop, net, replicated(1), /*shards=*/1,
                        /*lookup_batch=*/1, /*first=*/2);
  bool done = false;
  submit_lookups(svc, 0, keys_range(0, 10), [&] { done = true; });
  loop.run();
  ASSERT_TRUE(done);
  // Requests left node 0's NIC, responses left the endpoint's, and both
  // hops accumulated in-flight time in the fabric stats.
  EXPECT_GT(net.egress(0).total_submitted_bytes(), 0u);
  EXPECT_GT(net.egress(2).total_submitted_bytes(), 0u);
  EXPECT_EQ(svc.fabric().stats().calls, 10u);
  EXPECT_GT(svc.fabric().stats().net_bytes, 0u);
  EXPECT_GT(svc.fabric().stats().net_wait_seconds, 0.0);
}

TEST(Service, BatchedLookupsAmortizeRpcsAndCompleteInSubmitOrder) {
  sim::EventLoop loop;
  sim::Network net(loop, 4);
  ChunkStoreService batched(loop, net, replicated(1), /*shards=*/1,
                            /*lookup_batch=*/8);
  std::vector<int> order;
  for (int wave = 0; wave < 5; ++wave) {
    submit_lookups(batched, 0, keys_range(100u * wave, 100u * wave + 24),
                           [&order, wave] { order.push_back(wave); });
  }
  loop.run();
  // Every stage of the path (caller NIC, message CPU, shard queue, return
  // NIC) is FIFO, so waves complete exactly in submit order.
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
  EXPECT_EQ(batched.stats().lookup_requests, 120u);
  EXPECT_EQ(batched.stats().lookup_batches, 15u);  // 24 keys -> 3 RPCs of 8
}

TEST(Service, StoreFetchDropAccountTheShardQueues) {
  sim::EventLoop loop;
  sim::Network net(loop, 4);
  ChunkStoreService svc(loop, net, replicated(2));
  bool stored = false, fetched = false;
  const auto homes = submit_store(svc, 0, key_of(1), 64 * 1024,
                                      [&] { stored = true; });
  EXPECT_EQ(homes.size(), 2u);
  // Dedup hit: the same key stores no new copies but still queues.
  EXPECT_TRUE(submit_store(svc, 0, key_of(1), 64 * 1024, [] {}).empty());
  submit_fetch(svc, 0, key_of(1), 64 * 1024, [&] { fetched = true; });
  submit_drop(svc, 0, key_of(9), 32 * 1024);
  loop.run();
  EXPECT_TRUE(stored);
  EXPECT_TRUE(fetched);
  const auto& ss = svc.stats();
  EXPECT_EQ(ss.store_requests, 2u);
  EXPECT_EQ(ss.fetch_requests, 1u);
  EXPECT_EQ(ss.drop_requests, 1u);
  EXPECT_EQ(ss.fetch_bytes, 64u * 1024);
  EXPECT_EQ(svc.shard_device(svc.shard_of(key_of(9)))
                .total_discarded_bytes(),
            32u * 1024);
}

// --- sharding ----------------------------------------------------------------

TEST(Sharding, SameKeyAlwaysHitsTheSameShard) {
  sim::EventLoop loop_a, loop_b;
  sim::Network net_a(loop_a, 4), net_b(loop_b, 8);
  // Same shard count, different loops/clusters: routing is a pure function
  // of (key, shard count), so every key agrees across instances and runs.
  ChunkStoreService a(loop_a, net_a, replicated(1), /*shards=*/4);
  ChunkStoreService b(loop_b, net_b, replicated(2), /*shards=*/4);
  std::vector<int> population(4, 0);
  for (u64 i = 0; i < 512; ++i) {
    const int s = a.shard_of(key_of(i));
    ASSERT_GE(s, 0);
    ASSERT_LT(s, 4);
    EXPECT_EQ(s, b.shard_of(key_of(i)));
    population[static_cast<size_t>(s)]++;
  }
  // Rendezvous spreads keys: no shard is starved or grossly hot.
  for (int s = 0; s < 4; ++s) {
    EXPECT_GT(population[static_cast<size_t>(s)], 512 / 16);
    EXPECT_LT(population[static_cast<size_t>(s)], 512 / 2);
  }
}

TEST(Sharding, MoreShardsCutPerLookupWaits) {
  const auto run = [](int shards) {
    sim::EventLoop loop;
    sim::Network net(loop, 4);
    ChunkStoreService svc(loop, net, replicated(1), shards);
    submit_lookups(svc, 0, keys_range(0, 200), [] {});
    loop.run();
    return svc.stats().avg_lookup_wait_seconds();
  };
  const double one = run(1);
  const double four = run(4);
  ASSERT_GT(one, 0.0);
  ASSERT_GT(four, 0.0);
  // Four independent queues drain the same probe load with materially less
  // queueing than one — the knee moves right with the shard count.
  EXPECT_LT(four, 0.6 * one);
}

TEST(Sharding, JitteredRpcCompletionStillPreservesPerShardFifo) {
  sim::EventLoop loop;
  sim::Network net(loop, 4);
  Rng rng(0x7177E12);
  net.set_jitter(&rng, 0.25);  // heavy multiplicative transfer noise
  ChunkStoreService svc(loop, net, replicated(1), /*shards=*/2,
                        /*lookup_batch=*/4);
  // Route every wave at a single shard so the FIFO claim is per-shard, and
  // submit from one caller so the NIC hop is ordered too.
  std::vector<ChunkKey> shard0;
  for (u64 i = 0; shard0.size() < 60; ++i) {
    if (svc.shard_of(key_of(i)) == 0) shard0.push_back(key_of(i));
  }
  std::vector<int> order;
  for (int wave = 0; wave < 5; ++wave) {
    std::vector<ChunkKey> batch(shard0.begin() + 12 * wave,
                                shard0.begin() + 12 * (wave + 1));
    submit_lookups(svc, 1, batch, [&order, wave] { order.push_back(wave); });
  }
  loop.run();
  // Jitter stretches individual transfers but cannot reorder a FIFO chain:
  // waves from one caller to one shard complete in submit order.
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

// --- re-replication ----------------------------------------------------------

TEST(Rereplication, DaemonRestoresReplicaStrengthAfterNodeFailure) {
  sim::EventLoop loop;
  sim::Network net(loop, 4);
  ChunkStoreService svc(loop, net, replicated(2), /*shards=*/2);
  for (u64 i = 0; i < 120; ++i) {
    submit_store(svc, 0, key_of(i), 16 * 1024, [] {});
  }
  loop.run();
  ASSERT_EQ(svc.placement().degraded_count(), 0u);

  const auto cluster_nic_bytes = [&] {
    u64 total = 0;
    for (NodeId n = 0; n < 4; ++n) {
      total += net.egress(n).total_submitted_bytes() +
               net.loopback(n).total_submitted_bytes();
    }
    return total;
  };
  const u64 nic_before = cluster_nic_bytes();
  svc.fail_node(1);
  ASSERT_GT(svc.placement().degraded_count(), 0u);
  loop.run();  // the daemon walks degraded chunks through the shard queues
  EXPECT_EQ(svc.placement().degraded_count(), 0u);
  EXPECT_TRUE(svc.rereplication_idle());
  EXPECT_GT(svc.stats().rereplicated_chunks, 0u);
  EXPECT_EQ(svc.stats().rereplicated_bytes,
            svc.stats().rereplicated_chunks * 16 * 1024);
  // The copies really moved: every healed chunk crossed a surviving
  // holder's NIC (or loopback) on its way to the fresh home.
  EXPECT_GE(cluster_nic_bytes() - nic_before,
            svc.stats().rereplicated_bytes);
  // The true test of strength: losing a *second* node now loses nothing,
  // which would be false for any chunk whose homes had been {1, dead}.
  svc.fail_node(2);
  EXPECT_EQ(svc.placement().lost_chunks(), 0u);
}

TEST(Rereplication, EveryFreshCopyIsCountedWhenTwoHomesDieTogether) {
  // R=3 on six nodes with two nodes lost at once: a chunk that had copies
  // on both gets two fresh copies, and both are counted. Per healed chunk
  // the heal reads one copy, then ships and writes F, so the moved bytes
  // are exactly one copy per chunk plus twice the rewritten bytes.
  constexpr u64 kBytes = 16 * 1024;
  sim::EventLoop loop;
  sim::Network net(loop, 6);
  ChunkStoreService svc(loop, net, replicated(3));
  for (u64 i = 0; i < 200; ++i) {
    submit_store(svc, 0, key_of(i), kBytes, [] {});
  }
  loop.run();
  svc.fail_node(1);
  svc.fail_node(2);
  loop.run();

  const auto& st = svc.stats();
  ASSERT_GT(st.rereplicated_chunks, 0u);
  EXPECT_GT(st.rebuilt_fragments, st.rereplicated_chunks);  // some F = 2
  EXPECT_EQ(st.rereplicated_bytes, st.rebuilt_fragments * kBytes);
  EXPECT_EQ(st.heal_moved_bytes,
            st.rereplicated_chunks * kBytes + 2 * st.rereplicated_bytes);
  EXPECT_EQ(svc.placement().degraded_count(), 0u);
  EXPECT_EQ(svc.placement().lost_chunks(), 0u);
}

TEST(Rereplication, SingleReplicaStoresHaveNothingToHeal) {
  sim::EventLoop loop;
  sim::Network net(loop, 4);
  ChunkStoreService svc(loop, net, replicated(1));
  for (u64 i = 0; i < 50; ++i) {
    submit_store(svc, 0, key_of(i), 4 * 1024, [] {});
  }
  loop.run();
  svc.fail_node(1);
  loop.run();
  // R=1 losses are not degraded, they are gone: the daemon must not invent
  // copies (the encode path's forward-heal re-stores them from content).
  EXPECT_EQ(svc.stats().rereplicated_chunks, 0u);
}

// --- FastCDC -----------------------------------------------------------------

TEST(FastCdc, SpansRespectBoundsAndCoverTheImage) {
  ByteImage img(1024 * 1024);
  img.write(0, pseudo_bytes(1024 * 1024, 17));
  const auto p =
      cdc_params(2048, 8192, 32 * 1024, ckptstore::ChunkingMode::kFastCdc);
  const auto spans = ckptstore::scan_chunks_cdc(img, p);
  ASSERT_FALSE(spans.empty());
  u64 off = 0;
  for (size_t i = 0; i < spans.size(); ++i) {
    EXPECT_EQ(spans[i].off, off);
    off += spans[i].len;
    EXPECT_LE(spans[i].len, p.max_bytes);
    if (i + 1 < spans.size()) {
      EXPECT_GE(spans[i].len, p.min_bytes);
    }
  }
  EXPECT_EQ(off, img.size());
}

TEST(FastCdc, NormalizationTightensTheSizeDistribution) {
  ByteImage img(2 * 1024 * 1024);
  img.write(0, pseudo_bytes(2 * 1024 * 1024, 23));
  const u64 avg = 8192;
  const auto plain =
      ckptstore::scan_chunks_cdc(img, cdc_params(1024, avg, 8 * avg));
  const auto fast = ckptstore::scan_chunks_cdc(
      img,
      cdc_params(1024, avg, 8 * avg, ckptstore::ChunkingMode::kFastCdc));
  auto near_avg_fraction = [&](const std::vector<ckptstore::ChunkSpan>& s) {
    u64 near = 0;
    for (const auto& span : s) {
      if (span.len >= avg / 2 && span.len <= 2 * avg) ++near;
    }
    return static_cast<double>(near) / static_cast<double>(s.size());
  };
  // The two-mask scheme squeezes spans toward the target: strictly more of
  // them land within a factor of two of avg than with the single mask.
  EXPECT_GT(near_avg_fraction(fast), near_avg_fraction(plain));
  EXPECT_GT(near_avg_fraction(fast), 0.7);
}

TEST(FastCdc, CutpointsResynchronizeAfterInsertion) {
  const u64 bytes = 1024 * 1024;
  const auto content = pseudo_bytes(bytes, 31);
  std::vector<std::byte> shifted;
  const auto wedge = pseudo_bytes(64, 0xF00D);
  shifted.insert(shifted.end(), content.begin(), content.begin() + 5000);
  shifted.insert(shifted.end(), wedge.begin(), wedge.end());
  shifted.insert(shifted.end(), content.begin() + 5000, content.end());

  ByteImage a(bytes), b(bytes + 64);
  a.write(0, content);
  b.write(0, shifted);
  const auto p =
      cdc_params(2048, 8192, 32 * 1024, ckptstore::ChunkingMode::kFastCdc);
  std::set<std::pair<u64, u64>> keys_a;  // (hi, lo) of each span's content
  for (const auto& s : ckptstore::scan_chunks_cdc(a, p)) {
    const auto k = ckptstore::span_key(a, s);
    keys_a.insert({k.hi, k.lo});
  }
  u64 shared_bytes = 0, total = 0;
  for (const auto& s : ckptstore::scan_chunks_cdc(b, p)) {
    const auto k = ckptstore::span_key(b, s);
    if (keys_a.count({k.hi, k.lo})) shared_bytes += s.len;
    total += s.len;
  }
  // Only the chunks around the insertion differ; everything downstream
  // re-keys identically once the two gear masks resynchronize.
  EXPECT_GT(static_cast<double>(shared_bytes) / static_cast<double>(total),
            0.9);
}

// --- end to end through the DMTCP stack -------------------------------------

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

DmtcpOptions service_opts(int replicas = 1) {
  DmtcpOptions o;
  o.incremental = true;
  o.codec = compress::CodecKind::kNone;  // exact byte accounting
  o.chunking = ckptstore::ChunkingMode::kCdc;
  o.cdc_min_bytes = 2 * 1024;
  o.cdc_avg_bytes = 8 * 1024;
  o.cdc_max_bytes = 32 * 1024;
  o.dedup_scope = core::DedupScope::kCluster;
  o.chunk_replicas = replicas;
  return o;
}

/// Give `pid` a deterministic real-content ballast so the checkpoint spans
/// enough chunks that every node holds some of them.
void add_ballast(World& w, Pid pid, u64 bytes, u64 seed) {
  sim::Process* p = w.k().find_process(pid);
  ASSERT_NE(p, nullptr);
  auto& seg = p->mem().add("ballast", sim::MemKind::kHeap, bytes);
  seg.data.fill(0, bytes, ExtentKind::kRand, seed);
}

/// Launch `ranks` compute processes (one per node) with private ballast,
/// checkpoint once, and return the round.
core::CkptRound contended_round(World& w, int ranks, u64 ballast) {
  std::vector<Pid> pids;
  for (int n = 0; n < ranks; ++n) {
    std::string tag = "p";
    tag += std::to_string(n);
    pids.push_back(w.ctl.launch(n, kComputeLoop, {"1000000", "200", tag}));
  }
  w.ctl.run_for(20 * timeconst::kMillisecond);
  for (int n = 0; n < ranks; ++n) {
    sim::Process* p = w.k().find_process(pids[static_cast<size_t>(n)]);
    EXPECT_NE(p, nullptr);
    auto& seg = p->mem().add("ballast", sim::MemKind::kHeap, ballast);
    // Distinct seed per rank: every chunk is unique, so every submission
    // is a genuine miss — the maximum-lookup, maximum-store round.
    seg.data.fill(0, ballast, ExtentKind::kRand, 0xB0 + static_cast<u64>(n));
  }
  return w.ctl.checkpoint_now();
}

/// The round's dedup lookups and their mean wait, read from its delta.
u64 lookups(const core::CkptRound& r) {
  return r.delta.counter("store.lookup_requests");
}

double avg_lookup_wait(const core::CkptRound& r) {
  return r.delta.histogram("store.lookup_wait").mean();
}

TEST(ServiceE2E, LookupWaitGrowsWithRankCount) {
  constexpr u64 kBallast = 1024 * 1024;
  World w2(2, service_opts());
  const auto r2 = contended_round(w2, 2, kBallast);
  World w8(8, service_opts());
  const auto r8 = contended_round(w8, 8, kBallast);

  ASSERT_GT(lookups(r2), 0u);
  ASSERT_GT(lookups(r8), 3 * lookups(r2));
  // The contention knee: four times the ranks funneling into one request
  // queue must wait substantially longer per lookup, not equally long.
  EXPECT_GT(avg_lookup_wait(r8), 1.5 * avg_lookup_wait(r2));
}

TEST(ServiceE2E, RoundReportsNetworkTrafficOnTheLookupPath) {
  World w(4, service_opts());
  const auto r = contended_round(w, 4, 1024 * 1024);
  // Service requests really traverse the NIC: the round saw RPCs, network
  // bytes, and in-flight time — none of which existed when requests
  // teleported to the queue.
  ASSERT_GT(lookups(r), 0u);
  EXPECT_GE(r.delta.counter("rpc.calls"), lookups(r));  // + stores, drops
  EXPECT_GT(r.delta.counter("rpc.net_bytes"), 0u);
  EXPECT_GT(r.delta.sum("rpc.net_wait_seconds"), 0.0);
}

TEST(ServiceE2E, ShardsMoveTheContentionKneeRight) {
  constexpr u64 kBallast = 1024 * 1024;
  // Dedicated store nodes (8..11), as stdchk deploys its service: ranks
  // compute on 0..7 and the shard endpoints never share a NIC with a
  // rank's store burst.
  auto opts1 = service_opts();
  opts1.store_node = 8;
  World w1(12, opts1);
  const auto r1 = contended_round(w1, 8, kBallast);

  auto opts4 = service_opts();
  opts4.store_node = 8;
  opts4.store_shards = 4;
  World w4(12, opts4);
  const auto r4 = contended_round(w4, 8, kBallast);

  ASSERT_GT(lookups(r1), 0u);
  ASSERT_EQ(lookups(r4), lookups(r1));  // same probe load
  // Four shard queues drain eight ranks' probes with strictly less
  // queueing than one: the average lookup wait drops materially.
  EXPECT_LT(avg_lookup_wait(r4), 0.7 * avg_lookup_wait(r1));
}

TEST(ServiceE2E, RereplicationHealsBeforeTheNextRoundCompletes) {
  World w(4, service_opts(/*replicas=*/2));
  const Pid pa = w.ctl.launch(0, kComputeLoop, {"1000000", "200", "a"});
  const Pid pb = w.ctl.launch(1, kComputeLoop, {"1000000", "200", "b"});
  w.ctl.run_for(20 * timeconst::kMillisecond);
  add_ballast(w, pa, 1024 * 1024, 0xAA);
  add_ballast(w, pb, 1024 * 1024, 0xBB);
  w.ctl.checkpoint_now();

  auto& svc = *w.ctl.shared().store_service;
  ASSERT_EQ(svc.placement().degraded_count(), 0u);
  svc.fail_node(1);
  ASSERT_GT(svc.placement().degraded_count(), 0u);

  // Death is now *detected*, not announced: the membership service needs
  // ~heartbeat_misses x heartbeat_interval of silence before the service
  // kicks its heal daemon, which then drains in the background
  // while the computation keeps running. Give detection + heal their
  // window, then close another round over the healed store.
  w.ctl.run_for(150 * timeconst::kMillisecond);
  const auto& round = w.ctl.checkpoint_now();
  EXPECT_EQ(svc.placement().degraded_count(), 0u);
  EXPECT_GT(svc.stats().rereplicated_chunks, 0u);
  EXPECT_GT(round.delta.counter("store.rereplicated_chunks"), 0u);
  // Losing a second node after the heal still leaves every chunk readable
  // — exactly what pre-heal homes {1, x} could not survive for x.
  svc.fail_node(2);
  EXPECT_EQ(svc.placement().lost_chunks(), 0u);
  w.ctl.kill_computation();
  const auto& rr = w.ctl.restart({{1, 3}, {2, 3}});
  EXPECT_FALSE(rr.needs_restore);
  EXPECT_EQ(rr.procs, 2);
  ASSERT_TRUE(w.run_until_results({"a", "b"}));
}

TEST(ServiceE2E, ScrubReportsCorruptAndMissingChunks) {
  auto opts = service_opts(/*replicas=*/1);
  opts.scrub_chunks = 1u << 20;  // scrub the whole store every round
  World w(4, opts);
  const Pid pa = w.ctl.launch(0, kComputeLoop, {"1000000", "400", "a"});
  w.ctl.run_for(20 * timeconst::kMillisecond);
  // Real content (not pattern ballast): only real containers can rot.
  sim::Process* p = w.k().find_process(pa);
  ASSERT_NE(p, nullptr);
  auto& seg = p->mem().add("blob", sim::MemKind::kHeap, 512 * 1024);
  seg.data.write(0, pseudo_bytes(512 * 1024, 0x5C12B));
  w.ctl.checkpoint_now();

  auto& svc = *w.ctl.shared().store_service;
  // Round 1's pass (kicked at its close) saw a clean store.
  w.ctl.run_for(100 * timeconst::kMillisecond);
  EXPECT_GT(svc.stats().scrubbed_chunks, 0u);
  EXPECT_EQ(svc.stats().scrub_corrupt_chunks, 0u);

  // Rot one real chunk (same length, wrong content) and lose a node that
  // does *not* hold it: the next pass must report exactly one corrupt
  // chunk plus the failed node's chunks as missing. (No checkpoint in
  // between — the encode path's forward-heal would re-store the losses
  // before the scrubber could see them.)
  ckptstore::Chunk* victim = nullptr;
  ChunkKey victim_key{};
  for (const auto& [key, chunk] : svc.repo().chunks_after(ChunkKey{}, 4096)) {
    if (chunk->kind == sim::ExtentKind::kReal) {
      victim = svc.repo().find_mutable(key);
      victim_key = key;
      break;
    }
  }
  ASSERT_NE(victim, nullptr);
  victim->stored = std::make_shared<const std::vector<std::byte>>(
      compress::codec(compress::CodecKind::kNone)
          .compress(pseudo_bytes(victim->len, 0xBAD)));
  const NodeId dead = svc.placement().holder(victim_key) == 2 ? 3 : 2;
  svc.fail_node(dead);
  ASSERT_GT(svc.placement().lost_chunks(), 0u);

  const u64 corrupt_before = svc.stats().scrub_corrupt_chunks;
  svc.scrub(1u << 20);
  w.ctl.run_for(200 * timeconst::kMillisecond);  // the pass drains async
  EXPECT_EQ(svc.stats().scrub_corrupt_chunks, corrupt_before + 1);
  EXPECT_GT(svc.stats().scrub_missing_chunks, 0u);
}

TEST(ServiceE2E, ScrubRepairsARottenReplicaFromItsCleanSibling) {
  // Rot one copy of an R=2 chunk. Replication is the (1,1) code, so the
  // scrubber repairs the copy in place from its clean sibling instead of
  // quarantining the chunk, and a restart restores the same bytes.
  World w(4, service_opts(/*replicas=*/2));
  const Pid pa = w.ctl.launch(0, kComputeLoop, {"1000000", "200", "a"});
  w.ctl.run_for(20 * timeconst::kMillisecond);
  add_ballast(w, pa, 1024 * 1024, 0xDD);
  w.ctl.checkpoint_now();
  const auto ballast_crc = [&] {
    for (const Pid pid : w.k().live_pids()) {
      const sim::MemSegment* seg =
          w.k().find_process(pid)->mem().find("ballast");
      if (seg != nullptr) return seg->data.content_crc();
    }
    return u32{0};
  };
  const u32 before = ballast_crc();

  auto& svc = *w.ctl.shared().store_service;
  const ChunkKey victim =
      svc.repo().chunks_after(ChunkKey{}, 1).front().first;
  const NodeId rotten_home = svc.placement().homes_of(victim).front();
  ASSERT_TRUE(svc.corrupt_fragment(victim, 0));
  EXPECT_TRUE(svc.placement().available(victim));
  EXPECT_NE(svc.placement().holder(victim), rotten_home);

  const auto st0 = svc.stats();
  svc.scrub(1u << 20);
  w.ctl.run_for(200 * timeconst::kMillisecond);
  EXPECT_EQ(svc.stats().scrub_repaired_fragments,
            st0.scrub_repaired_fragments + 1);
  EXPECT_EQ(svc.stats().scrub_quarantined_chunks,
            st0.scrub_quarantined_chunks);
  EXPECT_EQ(svc.placement().corrupt_mask(victim), 0u);
  EXPECT_EQ(svc.placement().holder(victim), rotten_home);

  w.ctl.kill_computation();
  const auto& rr = w.ctl.restart();
  EXPECT_FALSE(rr.needs_restore);
  EXPECT_EQ(rr.procs, 1);
  EXPECT_EQ(ballast_crc(), before);
}

// --- cluster-shape option validation ----------------------------------------

TEST(Options, StoreFlagsParseAndValidate) {
  DmtcpOptions o;
  std::vector<std::string> argv{"--incremental", "--dedup-scope", "cluster",
                                "--store-shards", "4",  "--lookup-batch",
                                "8",             "--scrub-chunks", "64"};
  EXPECT_EQ(o.apply_flags(argv), "");
  EXPECT_TRUE(argv.empty());
  EXPECT_EQ(o.store_shards, 4);
  EXPECT_EQ(o.lookup_batch, 8);
  EXPECT_EQ(o.scrub_chunks, 64u);

  DmtcpOptions bad;
  std::vector<std::string> zero{"--incremental", "--dedup-scope", "cluster",
                                "--store-shards", "0"};
  EXPECT_NE(bad.apply_flags(zero), "");
  DmtcpOptions scoped;
  std::vector<std::string> node_scope{"--incremental", "--store-shards", "2"};
  EXPECT_NE(scoped.apply_flags(node_scope), "");  // needs cluster scope
}

TEST(Options, ClusterValidationRejectsOutOfRangeEndpoints) {
  auto o = service_opts();
  o.store_node = 7;
  EXPECT_EQ(o.validate(), "");  // in isolation the flag parses fine...
  EXPECT_NE(o.validate_cluster(4), "");  // ...but node 7 of 4 is refused
  EXPECT_EQ(o.validate_cluster(8), "");
  o.store_node = core::DmtcpOptions::kStoreNodeCoord;
  EXPECT_EQ(o.validate_cluster(1), "");
}

TEST(ServiceE2E, ChunkWritesLandOnPlacementHomes) {
  // One rank on node 0, but its chunk copies scatter over all four nodes'
  // devices (rendezvous placement) instead of piling onto node 0.
  World w(4, service_opts(/*replicas=*/1));
  const auto r = contended_round(w, 1, 2 * 1024 * 1024);
  ASSERT_GT(r.total_compressed, 0u);
  int nodes_with_writes = 0;
  for (int n = 0; n < 4; ++n) {
    if (w.k().node(n).storage().cache().total_written_bytes() > 0) {
      ++nodes_with_writes;
    }
  }
  EXPECT_GE(nodes_with_writes, 3);
}

TEST(ServiceE2E, ReplicaFailoverRestartsAfterNodeLoss) {
  World w(4, service_opts(/*replicas=*/2));
  const Pid pa = w.ctl.launch(0, kComputeLoop, {"1000000", "200", "a"});
  const Pid pb = w.ctl.launch(1, kComputeLoop, {"1000000", "200", "b"});
  w.ctl.run_for(20 * timeconst::kMillisecond);
  add_ballast(w, pa, 1024 * 1024, 0xAA);
  add_ballast(w, pb, 1024 * 1024, 0xBB);
  w.ctl.checkpoint_now();

  // Node 1 dies. Its chunk copies are unreachable, but every chunk has a
  // second replica elsewhere; restart must read only from survivors.
  w.ctl.shared().store_service->fail_node(1);
  w.ctl.kill_computation();
  const u64 node1_reads_before =
      w.k().node(1).storage().cache().total_read_bytes();
  const auto& rr = w.ctl.restart({{1, 2}});  // host 1's procs move to node 2
  EXPECT_FALSE(rr.needs_restore);
  EXPECT_EQ(rr.lost_chunks, 0u);
  EXPECT_EQ(rr.procs, 2);
  EXPECT_EQ(w.k().node(1).storage().cache().total_read_bytes(),
            node1_reads_before);  // nothing fetched from the dead node
  ASSERT_TRUE(w.run_until_results({"a", "b"}));
}

TEST(ServiceE2E, NextGenerationHealsLostChunks) {
  // A dedup hit on a chunk whose every replica died must be re-stored
  // over the survivors — otherwise every post-failure generation keeps
  // referencing permanently unrestorable data.
  World w(4, service_opts(/*replicas=*/1));
  const Pid pa = w.ctl.launch(0, kComputeLoop, {"1000000", "200", "a"});
  const Pid pb = w.ctl.launch(1, kComputeLoop, {"1000000", "200", "b"});
  w.ctl.run_for(20 * timeconst::kMillisecond);
  add_ballast(w, pa, 1024 * 1024, 0xAA);
  add_ballast(w, pb, 1024 * 1024, 0xBB);
  w.ctl.checkpoint_now();

  auto& svc = *w.ctl.shared().store_service;
  svc.fail_node(1);
  ASSERT_GT(svc.placement().lost_chunks(), 0u);

  // The computation keeps running; the next round's unchanged chunks are
  // dedup hits, and the lost ones among them are re-placed and re-written.
  w.ctl.checkpoint_now();
  EXPECT_EQ(svc.placement().lost_chunks(), 0u);

  // A restart from the healed round reads only surviving replicas.
  w.ctl.kill_computation();
  const auto& rr = w.ctl.restart({{1, 2}});
  EXPECT_FALSE(rr.needs_restore);
  EXPECT_EQ(rr.procs, 2);
  ASSERT_TRUE(w.run_until_results({"a", "b"}));
}

/// Two compute ranks on nodes 0 and 1, each with `bytes` of real-content
/// ballast: the CDC scan cuts it by the hash, so a small write changes
/// only the spans around it.
std::vector<Pid> launch_real_ballast(World& w, u64 bytes) {
  std::vector<Pid> pids;
  for (int n = 0; n < 2; ++n) {
    pids.push_back(w.ctl.launch(n, kComputeLoop,
                                {"1000000", "200", n == 0 ? "a" : "b"}));
  }
  w.ctl.run_for(20 * timeconst::kMillisecond);
  for (size_t i = 0; i < pids.size(); ++i) {
    auto& seg = w.k().find_process(pids[i])->mem().add(
        "ballast", sim::MemKind::kHeap, bytes);
    seg.data.write(0, pseudo_bytes(bytes, 0xAA + i));
  }
  return pids;
}

// An incremental round looks up only the chunks a process wrote: after a
// one-page write, the dedup hits on unwritten pages need no Lookup. The
// twin world also rewrites every page in place, so every reference is
// looked up exactly once; both commit the same bytes.
TEST(ServiceE2E, RoundLooksUpOnlyTheChunksAProcessWrote) {
  constexpr u64 kBallast = 1024 * 1024;
  std::vector<core::CkptRound> rounds;
  std::vector<std::vector<std::byte>> manifests[2];
  for (const bool twin : {false, true}) {
    DmtcpOptions opts = service_opts(/*replicas=*/2);
    opts.store_shards = 2;
    World w(4, opts);
    const std::vector<Pid> pids = launch_real_ballast(w, kBallast);
    w.ctl.checkpoint_now();
    w.k().find_process(pids[0])->mem().find("ballast")->data.write(
        64 * 1024, pseudo_bytes(4096, 0x9A6E));
    if (twin) {
      for (const Pid pid : pids) bench::rewrite_in_place(w.k(), pid);
    }
    rounds.push_back(w.ctl.checkpoint_now());
    manifests[twin] = plan_manifests(w.k(), w.ctl);
  }
  const core::CkptRound& one_page = rounds[0];
  const core::CkptRound& every_page = rounds[1];
  ASSERT_GT(one_page.total_chunks, 100u);
  EXPECT_GT(one_page.new_chunks, 0u);
  EXPECT_GT(lookups(one_page), 0u);
  EXPECT_LT(lookups(one_page) * 4, one_page.total_chunks);
  EXPECT_EQ(every_page.total_chunks, one_page.total_chunks);
  EXPECT_EQ(lookups(every_page), every_page.total_chunks);
  EXPECT_EQ(manifests[1], manifests[0]);
  EXPECT_LT(one_page.total_seconds(), every_page.total_seconds());
}

// A restarted process has no previous scan to vouch for any chunk: the
// first round after a restart looks up every reference.
TEST(ServiceE2E, FirstRoundAfterRestartLooksUpEveryChunk) {
  World w(4, service_opts(/*replicas=*/2));
  launch_real_ballast(w, 512 * 1024);
  w.ctl.checkpoint_now();
  const core::CkptRound clean = w.ctl.checkpoint_now();
  EXPECT_LT(lookups(clean), clean.total_chunks);

  w.ctl.kill_computation();
  const auto& rr = w.ctl.restart();
  ASSERT_FALSE(rr.needs_restore);
  const core::CkptRound after = w.ctl.checkpoint_now();
  EXPECT_EQ(after.total_chunks, clean.total_chunks);
  EXPECT_EQ(lookups(after), after.total_chunks);
  ASSERT_TRUE(w.run_until_results({"a", "b"}));
}

/// decode_incremental's decode CPU and chunk count, summed over every
/// manifest of the current restart plan.
std::pair<double, u64> plan_decode(World& w) {
  double seconds = 0;
  u64 chunks = 0;
  for (const auto& host : w.ctl.read_restart_plan().hosts) {
    for (const auto& img : host.images) {
      auto inode = w.k().fs_for(host.host, img).lookup(img);
      const auto mf = ckptstore::Manifest::decode(
          inode->data.materialize(0, inode->data.size()));
      double secs = 0;
      std::string err;
      mtcp::decode_incremental(mf, w.ctl.shared().repo_for(host.host), &secs,
                               nullptr, &err);
      EXPECT_EQ(err, "");
      seconds += secs;
      chunks += mf.all_keys().size();
    }
  }
  return {seconds, chunks};
}

TEST(ServiceE2E, StreamedRestartConservesDecodeCpuOnABoundedPool) {
  World w(4, service_opts(/*replicas=*/2));
  const Pid pa = w.ctl.launch(0, kComputeLoop, {"1000000", "200", "a"});
  const Pid pb = w.ctl.launch(1, kComputeLoop, {"1000000", "200", "b"});
  w.ctl.run_for(20 * timeconst::kMillisecond);
  add_ballast(w, pa, 2 * 1024 * 1024, 0xAA);
  add_ballast(w, pb, 2 * 1024 * 1024, 0xBB);
  w.ctl.checkpoint_now();
  const auto [decode_seconds, chunks] = plan_decode(w);
  ASSERT_GT(chunks, 2u * sim::params::kCoresPerNode);

  w.ctl.kill_computation();
  const auto& rr = w.ctl.restart();
  EXPECT_EQ(rr.procs, 2);
  // Random ballast repeats no key on a host, so the per-chunk decodes sum
  // to the whole-image decode: only the overlap moves.
  EXPECT_NEAR(rr.decode_cpu_seconds, decode_seconds, 1e-9 * decode_seconds);
  EXPECT_EQ(rr.decode_jobs, chunks);
  EXPECT_EQ(rr.chunk_refs, chunks);
  // The pool fills every core and never more.
  EXPECT_EQ(rr.peak_decode_jobs, sim::params::kCoresPerNode);
}

/// content_crc() of the "libshared" and "ballast" segments of every live
/// compute process, keyed by tag and segment name.
std::map<std::string, u32> lib_and_ballast_crcs(World& w) {
  std::map<std::string, u32> out;
  for (const Pid pid : w.k().live_pids()) {
    sim::Process* p = w.k().find_process(pid);
    if (p == nullptr || p->prog_name() != kComputeLoop) continue;
    for (const char* name : {"libshared", "ballast"}) {
      if (const sim::MemSegment* seg = p->mem().find(name)) {
        out[p->argv().back() + "/" + name] = seg->data.content_crc();
      }
    }
  }
  return out;
}

// Two processes map the same library, and each carries a zero-page
// ballast, so their manifests repeat keys within and across images. Both
// run on node 1, or one each on nodes 1 and 2; restarted with node 1 moved
// onto node 2, node 2 fetches and decodes each distinct key once, whichever
// node checkpointed it, and every further reference pays one copy out of
// the decoded buffer.
TEST(ServiceE2E, RestartFetchesAndDecodesEachDistinctChunkOncePerNode) {
  const std::map<NodeId, NodeId> host_map{{1, 2}};
  for (const NodeId second : {1, 2}) {
    SCOPED_TRACE("second process on node " + std::to_string(second));
    World w(4, service_opts(/*replicas=*/2));
    std::vector<Pid> pids;
    pids.push_back(w.ctl.launch(1, kComputeLoop, {"1000000", "200", "a"}));
    pids.push_back(
        w.ctl.launch(second, kComputeLoop, {"1000000", "200", "b"}));
    w.ctl.run_for(20 * timeconst::kMillisecond);
    for (const Pid pid : pids) {
      sim::Process* p = w.k().find_process(pid);
      ASSERT_NE(p, nullptr);
      auto& lib = p->mem().add("libshared", sim::MemKind::kLib, 512 * 1024);
      lib.data.fill(0, lib.data.size(), ExtentKind::kRand, 0x11B);
      p->mem().add("ballast", sim::MemKind::kHeap, 512 * 1024);  // zeros
    }
    w.ctl.checkpoint_now();
    const auto crcs = lib_and_ballast_crcs(w);
    ASSERT_EQ(crcs.size(), 4u);

    // Per target node: the first reference to a key decodes it, a repeat
    // copies.
    std::map<NodeId, std::set<ChunkKey>> seen;
    u64 refs = 0;
    double decode_seconds = 0;
    for (const auto& host : w.ctl.read_restart_plan().hosts) {
      const auto mapped = host_map.find(host.host);
      std::set<ChunkKey>& keys =
          seen[mapped == host_map.end() ? host.host : mapped->second];
      for (const auto& img : host.images) {
        auto inode = w.k().fs_for(host.host, img).lookup(img);
        const auto mf = ckptstore::Manifest::decode(
            inode->data.materialize(0, inode->data.size()));
        const auto codec = static_cast<compress::CodecKind>(mf.codec);
        for (const auto& sm : mf.segments) {
          for (const auto& ref : sm.chunks) {
            ++refs;
            decode_seconds +=
                keys.insert(ref.key).second
                    ? mtcp::decode_cpu_seconds(ref.len, codec)
                    : static_cast<double>(ref.len) / sim::params::kMemcpyBw;
          }
        }
      }
    }
    ASSERT_EQ(seen.size(), 1u);  // both hosts restart on node 2
    const u64 distinct = seen.begin()->second.size();
    ASSERT_GT(refs, distinct + 16);  // the library and the zero pages repeat

    auto& svc = *w.ctl.shared().store_service;
    const u64 fetches_before = svc.stats().fetch_requests;
    w.ctl.kill_computation();
    const auto& rr = w.ctl.restart(host_map);
    ASSERT_FALSE(rr.needs_restore);
    EXPECT_EQ(rr.procs, 2);
    EXPECT_EQ(rr.decode_jobs, distinct);
    EXPECT_EQ(rr.chunk_refs, refs);
    EXPECT_NEAR(rr.decode_cpu_seconds, decode_seconds, 1e-9);
    EXPECT_EQ(svc.stats().fetch_requests - fetches_before, rr.decode_jobs);
    EXPECT_EQ(lib_and_ballast_crcs(w), crcs);
    ASSERT_TRUE(w.run_until_results({"a", "b"}));
  }
}

TEST(ServiceE2E, FullImageRestartDecodesEachImageAsOneJob) {
  // A gzip stream cannot be split: full images keep one decode job each,
  // outside the chunk decoder pool.
  DmtcpOptions o;
  o.codec = compress::CodecKind::kGzipish;
  World w(2, o);
  w.ctl.launch(0, kComputeLoop, {"1000000", "200", "a"});
  w.ctl.launch(0, kComputeLoop, {"1000000", "200", "b"});
  w.ctl.launch(1, kComputeLoop, {"1000000", "200", "c"});
  w.ctl.run_for(20 * timeconst::kMillisecond);
  w.ctl.checkpoint_now();
  w.ctl.kill_computation();
  const auto& rr = w.ctl.restart();
  EXPECT_EQ(rr.procs, 3);
  EXPECT_EQ(rr.decode_jobs, 3u);
  EXPECT_EQ(rr.peak_decode_jobs, 0);
  EXPECT_GT(rr.decode_cpu_seconds, 0.0);
}

// --sync after makes a round durable before the computation resumes, and
// a chunk-store round writes more than the writer's device: each chunk's
// bytes land on its placement homes. Every device the round wrote is
// flushed.
TEST(ServiceE2E, SyncAfterFlushesEveryNodeTheRoundWrote) {
  DmtcpOptions o = service_opts(/*replicas=*/2);
  o.sync = core::SyncMode::kSyncAfter;
  World w(4, o);
  const Pid pa = w.ctl.launch(0, kComputeLoop, {"1000000", "200", "a"});
  const Pid pb = w.ctl.launch(1, kComputeLoop, {"1000000", "200", "b"});
  w.ctl.run_for(20 * timeconst::kMillisecond);
  add_ballast(w, pa, 1024 * 1024, 0xAA);
  add_ballast(w, pb, 1024 * 1024, 0xBB);
  w.ctl.checkpoint_now();
  for (NodeId n = 0; n < 4; ++n) {
    EXPECT_EQ(w.k().node(n).storage().dirty_bytes(), 0u) << "node " << n;
  }
}

// --sync previous flushes the previous round's writes at the start of the
// next: under the chunk store those are on every placement home its chunks
// went to, not only on the writer's device.
TEST(ServiceE2E, SyncPreviousFlushesEveryNodeThePreviousRoundWrote) {
  DmtcpOptions o = service_opts(/*replicas=*/2);
  o.sync = core::SyncMode::kSyncPrevious;
  World w(4, o);
  const Pid pa = w.ctl.launch(0, kComputeLoop, {"1000000", "200", "a"});
  const Pid pb = w.ctl.launch(1, kComputeLoop, {"1000000", "200", "b"});
  w.ctl.run_for(20 * timeconst::kMillisecond);
  add_ballast(w, pa, 1024 * 1024, 0xAA);
  add_ballast(w, pb, 1024 * 1024, 0xBB);
  for (int round = 1; round <= 3; ++round) {
    w.ctl.checkpoint_now();
    if (round == 1) continue;
    // What is left dirty is this round's own small delta and manifests.
    for (NodeId n = 0; n < 4; ++n) {
      EXPECT_LT(w.k().node(n).storage().dirty_bytes(), 64u * 1024)
          << "round " << round << ", node " << n;
    }
  }
}

TEST(ServiceE2E, StreamedCheckpointEncodesEachNewChunkOnABoundedPool) {
  // Chunks compress independently, so the write stage runs each new
  // chunk's codec CPU as its own job on the writer's core pool, and the
  // chunk's Store leaves the moment its encode finishes.
  DmtcpOptions o = service_opts(/*replicas=*/2);
  o.codec = compress::CodecKind::kGzipish;
  World w(4, o);
  const Pid pa = w.ctl.launch(0, kComputeLoop, {"1000000", "200", "a"});
  const Pid pb = w.ctl.launch(1, kComputeLoop, {"1000000", "200", "b"});
  w.ctl.run_for(20 * timeconst::kMillisecond);
  add_ballast(w, pa, 2 * 1024 * 1024, 0xAA);
  add_ballast(w, pb, 2 * 1024 * 1024, 0xBB);
  const core::CkptRound r = w.ctl.checkpoint_now();
  const auto [serial_seconds, chunks] =
      first_round_serial_encode(w.ctl, o.codec);
  ASSERT_GT(chunks, 2u * sim::params::kCoresPerNode);

  // Per-chunk shares sum to the old serial charge: only the overlap moves.
  EXPECT_NEAR(r.encode_cpu_seconds, serial_seconds, 1e-9 * serial_seconds);
  // Every new chunk needs codec CPU under gzip: one pool job each.
  EXPECT_EQ(r.new_chunks, chunks);
  EXPECT_EQ(r.encode_jobs, chunks);
  // The pool fills every core and never more.
  EXPECT_EQ(r.peak_encode_jobs, sim::params::kCoresPerNode);
}

TEST(ServiceE2E, RoundsWithoutChunkEncodeCpuLeaveThePoolUnused) {
  // A gzip stream cannot be split, so full images keep their one serial
  // encode; and codec none without erasure has no encode CPU, so its
  // Stores leave directly — no zero-length pool jobs.
  {
    DmtcpOptions o;
    o.codec = compress::CodecKind::kGzipish;
    World w(2, o);
    w.ctl.launch(0, kComputeLoop, {"1000000", "200", "a"});
    w.ctl.run_for(20 * timeconst::kMillisecond);
    const core::CkptRound r = w.ctl.checkpoint_now();
    EXPECT_GT(r.total_compressed, 0u);
    EXPECT_EQ(r.encode_jobs, 0u);
    EXPECT_EQ(r.peak_encode_jobs, 0);
    EXPECT_EQ(r.encode_cpu_seconds, 0.0);
  }
  {
    World w(4, service_opts(/*replicas=*/2));
    const Pid pa = w.ctl.launch(0, kComputeLoop, {"1000000", "200", "a"});
    w.ctl.run_for(20 * timeconst::kMillisecond);
    add_ballast(w, pa, 1024 * 1024, 0xAA);
    const core::CkptRound r = w.ctl.checkpoint_now();
    EXPECT_GT(r.new_chunks, 0u);
    EXPECT_EQ(r.encode_jobs, 0u);
    EXPECT_EQ(r.peak_encode_jobs, 0);
    EXPECT_EQ(r.encode_cpu_seconds, 0.0);
  }
}

TEST(ServiceE2E, ReplicaOneNodeLossForcesRestore) {
  World w(4, service_opts(/*replicas=*/1));
  const Pid pa = w.ctl.launch(0, kComputeLoop, {"1000000", "200", "a"});
  const Pid pb = w.ctl.launch(1, kComputeLoop, {"1000000", "200", "b"});
  w.ctl.run_for(20 * timeconst::kMillisecond);
  add_ballast(w, pa, 1024 * 1024, 0xAA);
  add_ballast(w, pb, 1024 * 1024, 0xBB);
  w.ctl.checkpoint_now();

  w.ctl.shared().store_service->fail_node(1);
  EXPECT_GT(w.ctl.shared().store_service->placement().lost_chunks(), 0u);
  w.ctl.kill_computation();
  const auto& rr = w.ctl.restart({{1, 2}});
  // With a single replica the failure is data loss: the pre-flight reports
  // the forced re-store instead of restarting into missing chunks.
  EXPECT_TRUE(rr.needs_restore);
  EXPECT_GT(rr.lost_chunks, 0u);
  EXPECT_EQ(rr.procs, 0);
  EXPECT_TRUE(read_result(w.k(), "a").empty());
}

// --- claims: who stores a chunk several writers present -------------------

constexpr int kClaimWriters = 4;

/// Gzip-encoded writes into a 2-shard store on two store-only nodes, so
/// each writer's encodes and Stores contend the way the cluster's do. The
/// coordinator runs on the second store node: every writer hears the
/// write barrier's release over the network, so all start their Lookups
/// together.
DmtcpOptions claim_opts() {
  DmtcpOptions o = service_opts(/*replicas=*/1);
  o.codec = compress::CodecKind::kGzipish;
  o.store_node = kClaimWriters;
  o.store_shards = 2;
  o.coord_node = kClaimWriters + 1;
  return o;
}

std::string claim_tag(int n) { return std::string("w") + std::to_string(n); }

/// One compute rank per node, each mapping the same shared library
/// segment (identical chunks everywhere) beside a private ballast.
void launch_shared_library(World& w) {
  std::vector<Pid> pids;
  for (int n = 0; n < kClaimWriters; ++n) {
    pids.push_back(
        w.ctl.launch(n, kComputeLoop, {"1000000", "200", claim_tag(n)}));
  }
  w.ctl.run_for(20 * timeconst::kMillisecond);
  for (int n = 0; n < kClaimWriters; ++n) {
    sim::Process* p = w.k().find_process(pids[static_cast<size_t>(n)]);
    auto& lib = p->mem().add("libshared", sim::MemKind::kLib, 1024 * 1024);
    lib.data.fill(0, lib.data.size(), ExtentKind::kRand, 0x11B);
    auto& priv = p->mem().add("private", sim::MemKind::kHeap, 256 * 1024);
    priv.data.fill(0, priv.data.size(), ExtentKind::kRand,
                   0xB0 + static_cast<u64>(n));
  }
}

/// content_crc() of each rank's libshared and private segment, by rank.
std::vector<u32> shared_library_crcs(World& w) {
  std::vector<u32> out(2 * kClaimWriters, 0);
  for (const Pid pid : w.k().live_pids()) {
    sim::Process* p = w.k().find_process(pid);
    if (p == nullptr || p->prog_name() != kComputeLoop) continue;
    for (int n = 0; n < kClaimWriters; ++n) {
      if (p->argv().back() != claim_tag(n)) continue;
      const size_t at = 2 * static_cast<size_t>(n);
      out[at] = p->mem().find("libshared")->data.content_crc();
      out[at + 1] = p->mem().find("private")->data.content_crc();
    }
  }
  return out;
}

/// Each key's Store count over the round's writers; every key must carry
/// exactly one.
std::map<ChunkKey, int> store_counts(const core::CkptRound& r) {
  std::map<ChunkKey, int> out;
  for (const auto& [node, keys] : r.stored_keys) {
    for (const ChunkKey& key : keys) out[key]++;
  }
  return out;
}

/// The shared library chunks each writer node stored.
std::map<NodeId, size_t> library_stores(const core::CkptRound& r,
                                        const std::set<ChunkKey>& lib) {
  std::map<NodeId, size_t> out;
  for (const auto& [node, keys] : r.stored_keys) {
    out[node] = static_cast<size_t>(std::count_if(
        keys.begin(), keys.end(),
        [&lib](const ChunkKey& key) { return lib.count(key) != 0; }));
  }
  return out;
}

// The writer whose scan runs first finds every shared library chunk new;
// the key's shard, not that scan order, decides who stores each one, so
// the shared chunks spread over the writers and each is stored once. What
// is stored does not change: the manifests are the scan's, byte for byte,
// and a restart restores every segment.
TEST(Claims, SharedLibraryChunksAreStoredOnceAndNotAllByOneWriter) {
  World w(kClaimWriters + 2, claim_opts());
  launch_shared_library(w);
  const core::CkptRound r = w.ctl.checkpoint_now();

  const std::map<ChunkKey, int> counts = store_counts(r);
  EXPECT_EQ(counts.size(), r.new_chunks);
  EXPECT_EQ(r.delta.counter("store.store_requests"), r.new_chunks);
  for (const auto& [key, n] : counts) EXPECT_EQ(n, 1);

  const std::set<ChunkKey> lib = segment_keys(w.k(), w.ctl, "libshared");
  ASSERT_GT(lib.size(), 16u);
  size_t lib_writers = 0;
  for (const auto& [node, n] : library_stores(r, lib)) {
    EXPECT_LT(n, lib.size()) << "node " << node << " stored every chunk";
    lib_writers += n > 0;
  }
  EXPECT_GE(lib_writers, 2u);
  EXPECT_GT(r.delta.counter("ckpt.claimed_resident"), 0u);
  EXPECT_TRUE(w.ctl.shared().store_service->claims().empty());

  // Who stores a chunk does not change what the manifests say: their
  // CRC-32 is the one this scenario had when scan order decided.
  u32 crc = 0;
  for (const auto& bytes : plan_manifests(w.k(), w.ctl)) {
    crc = crc32_update(crc, bytes);
  }
  EXPECT_EQ(crc, 0xB98305F4u);

  const std::vector<u32> crcs = shared_library_crcs(w);
  w.ctl.kill_computation();
  const auto& rr = w.ctl.restart();
  ASSERT_FALSE(rr.needs_restore);
  EXPECT_EQ(rr.procs, kClaimWriters);
  EXPECT_EQ(shared_library_crcs(w), crcs);
}

// The async drain stores exactly what its pipeline compressed: no claims,
// so the first writer scanned stores every shared chunk, still once.
TEST(Claims, AsyncDrainStoresExactlyItsOwnNewChunks) {
  DmtcpOptions o = claim_opts();
  o.ckpt_async = true;
  World w(kClaimWriters + 2, o);
  launch_shared_library(w);
  w.ctl.checkpoint_now();
  ASSERT_TRUE(w.ctl.run_until(
      [&] { return w.ctl.shared().async_pipeline->idle(); },
      w.k().loop().now() + 10 * timeconst::kSecond));
  const core::CkptRound& r = w.ctl.stats().rounds.front();

  const std::map<ChunkKey, int> counts = store_counts(r);
  EXPECT_EQ(counts.size(), r.new_chunks);
  for (const auto& [key, n] : counts) EXPECT_EQ(n, 1);
  EXPECT_EQ(w.ctl.shared().stats.claimed_resident, 0u);
  const std::set<ChunkKey> lib = segment_keys(w.k(), w.ctl, "libshared");
  size_t lib_writers = 0;
  for (const auto& [node, n] : library_stores(r, lib)) {
    if (n == 0) continue;
    EXPECT_EQ(n, lib.size()) << "node " << node;
    ++lib_writers;
  }
  EXPECT_EQ(lib_writers, 1u);
}

/// A claiming Lookup of `keys` from `from`: each key the shard tells it to
/// store is passed to `take`.
void claim_lookups(ChunkStoreService& svc, NodeId from,
                   const std::vector<ChunkKey>& keys,
                   std::function<void(const ChunkKey&)> take,
                   std::function<void()> done = [] {}) {
  ckptstore::StoreRequest req;
  req.op = ckptstore::StoreOp::kLookup;
  req.from = from;
  req.keys = keys;
  req.verdict = [keys, take = std::move(take)](size_t i, bool store) {
    if (store) take(keys[i]);
  };
  req.done = std::move(done);
  svc.submit(std::move(req));
}

/// No key is both claimed and placed.
void expect_claims_unplaced(const ChunkStoreService& svc) {
  for (const auto& [key, claim] : svc.claims()) {
    EXPECT_FALSE(svc.placement().recorded(key)) << "writer " << claim.writer;
  }
}

// Four writers present the same keys, each in its own order: every key is
// given to exactly one writer, a claim never outlives its Store, and once
// stored every key is a hit for everyone.
TEST(Claims, EachKeyGoesToOneWriterAndIsNeverClaimedOncePlaced) {
  sim::EventLoop loop;
  sim::Network net(loop, 6);
  ChunkStoreService svc(loop, net, replicated(1), /*shards=*/2,
                        /*lookup_batch=*/1, /*first=*/4);
  const std::vector<ChunkKey> keys = keys_range(0, 64);
  std::map<ChunkKey, int> given;
  std::vector<int> per_writer(4, 0);
  for (NodeId n = 0; n < 4; ++n) {
    std::vector<ChunkKey> order = keys;
    std::rotate(order.begin(), order.begin() + 16 * n, order.end());
    auto mine = std::make_shared<std::vector<ChunkKey>>();
    claim_lookups(
        svc, n, order,
        [&, mine](const ChunkKey& key) {
          expect_claims_unplaced(svc);
          given[key]++;
          mine->push_back(key);
        },
        [&, n, mine] {
          per_writer[static_cast<size_t>(n)] = static_cast<int>(mine->size());
          for (const ChunkKey& key : *mine) {
            submit_store(svc, n, key, 4096, [&] { expect_claims_unplaced(svc); });
            expect_claims_unplaced(svc);
          }
        });
  }
  loop.run();
  EXPECT_EQ(given.size(), keys.size());
  for (const auto& [key, n] : given) EXPECT_EQ(n, 1);
  EXPECT_EQ(std::count(per_writer.begin(), per_writer.end(), 0), 0);
  EXPECT_TRUE(svc.claims().empty());
  EXPECT_EQ(svc.placement().placed_chunks(), keys.size());

  int late = 0;
  claim_lookups(svc, 0, keys, [&](const ChunkKey&) { ++late; });
  loop.run();
  EXPECT_EQ(late, 0);
}

// A writer whose Lookups start first claims only the keys its own order
// reaches first: its probes go out a window at a time, so a peer that
// starts after the first writer's whole burst could have queued at the
// shard still reaches the keys early in its own order first. Sent all at
// once, every one of the first writer's probes sat ahead of the peer's.
TEST(Claims, AWriterThatStartsFirstClaimsOnlyItsShareOfTheKeys) {
  sim::EventLoop loop;
  sim::Network net(loop, 4);
  ChunkStoreService svc(loop, net, replicated(1), /*shards=*/1,
                        /*lookup_batch=*/1, /*first=*/3);
  constexpr u64 kKeys = 4 * ChunkStoreService::kClaimWindow;
  const std::vector<ChunkKey> keys = keys_range(0, kKeys);
  std::map<NodeId, u64> taken;
  claim_lookups(svc, 0, keys, [&](const ChunkKey&) { taken[0]++; });
  loop.post_at(loop.now() + timeconst::kMillisecond, [&] {
    claim_lookups(svc, 1, {keys.rbegin(), keys.rend()},
                  [&](const ChunkKey&) { taken[1]++; });
  });
  loop.run();
  EXPECT_EQ(taken[0] + taken[1], kKeys);
  EXPECT_GE(taken[1], kKeys / 4);
  EXPECT_GE(taken[0], kKeys / 4);
}

// Retention drops a generation's chunks; when a later generation writes
// the same bytes again, its keys are new again and must be stored again —
// a claim taken at the first store must not answer for them.
TEST(Claims, KeyDroppedByRetentionIsStoredAgain) {
  DmtcpOptions o = service_opts(/*replicas=*/1);
  o.keep_generations = 1;
  World w(3, o);
  const Pid pid = w.ctl.launch(0, kComputeLoop, {"1000000", "200", "a"});
  w.ctl.run_for(20 * timeconst::kMillisecond);
  auto& seg = w.k().find_process(pid)->mem().add("ballast",
                                                 sim::MemKind::kHeap, 1 << 20);
  auto& svc = *w.ctl.shared().store_service;
  seg.data.fill(0, seg.data.size(), ExtentKind::kRand, 0xA);
  w.ctl.checkpoint_now();
  const std::set<ChunkKey> first = segment_keys(w.k(), w.ctl, "ballast");
  seg.data.fill(0, seg.data.size(), ExtentKind::kRand, 0xB);
  w.ctl.checkpoint_now();
  for (const ChunkKey& key : first) {
    ASSERT_FALSE(svc.placement().recorded(key)) << "retention kept a chunk";
  }

  seg.data.fill(0, seg.data.size(), ExtentKind::kRand, 0xA);
  const core::CkptRound again = w.ctl.checkpoint_now();
  EXPECT_EQ(segment_keys(w.k(), w.ctl, "ballast"), first);
  EXPECT_GE(store_counts(again).size(), first.size());
  for (const ChunkKey& key : first) {
    EXPECT_TRUE(svc.placement().available(key));
  }
  const u32 crc = seg.data.content_crc();
  w.ctl.kill_computation();
  const auto& rr = w.ctl.restart();
  ASSERT_FALSE(rr.needs_restore);
  ASSERT_EQ(rr.procs, 1);
  for (const Pid p : w.k().live_pids()) {
    sim::Process* proc = w.k().find_process(p);
    if (proc != nullptr && proc->prog_name() == kComputeLoop) {
      EXPECT_EQ(proc->mem().find("ballast")->data.content_crc(), crc);
    }
  }
}

// A writer whose node is declared dead can no longer store what it
// claimed: its claims go with it, so the next round's probes claim those
// keys again instead of finding them taken forever.
TEST(Claims, DeadWritersClaimsDoNotBlockTheNextRound) {
  sim::EventLoop loop;
  sim::Network net(loop, 4);
  ChunkStoreService svc(loop, net, replicated(1), /*shards=*/1,
                        /*lookup_batch=*/1, /*first=*/3);
  const std::vector<ChunkKey> keys = keys_range(0, 8);
  std::vector<ChunkKey> dead, next;
  claim_lookups(svc, 0, keys, [&](const ChunkKey& k) { dead.push_back(k); });
  loop.run();
  ASSERT_EQ(dead.size(), keys.size());
  claim_lookups(svc, 1, keys, [&](const ChunkKey& k) { next.push_back(k); });
  loop.run();
  EXPECT_TRUE(next.empty());  // all of them node 0's to store

  svc.fail_node(0);  // before its Stores leave
  EXPECT_TRUE(svc.claims().empty());
  claim_lookups(svc, 1, keys, [&](const ChunkKey& k) { next.push_back(k); });
  loop.run();
  ASSERT_EQ(next.size(), keys.size());
  for (const ChunkKey& key : next) submit_store(svc, 1, key, 4096, [] {});
  loop.run();
  for (const ChunkKey& key : keys) {
    EXPECT_TRUE(svc.placement().recorded(key));
  }
  EXPECT_TRUE(svc.claims().empty());
}

}  // namespace
}  // namespace dsim::test
