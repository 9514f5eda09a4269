// Reed-Solomon erasure striping for the chunk store: codec identity over
// every survivable loss combination, fragment placement and degraded read
// plans, in-place scrub repair of rotten fragments, fragment rebuild after
// node death, cold-tier demotion, and restart through degraded reads.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <span>
#include <string>
#include <vector>

#include "ckptstore/erasure.h"
#include "ckptstore/placement.h"
#include "ckptstore/service.h"
#include "core/launch.h"
#include "mtcp/image.h"
#include "sim/cluster.h"
#include "sim/model_params.h"
#include "tests/testprogs.h"
#include "tests/testutil.h"
#include "util/serialize.h"

namespace dsim::test {
namespace {

using ckptstore::ChunkKey;
using ckptstore::ChunkPlacement;
using ckptstore::ChunkStoreService;
using core::DmtcpControl;
using core::DmtcpOptions;
using sim::ExtentKind;

namespace erasure = ckptstore::erasure;

ChunkKey key_of(u64 n) {
  ChunkKey k;
  k.hi = n * 0x9E3779B97F4A7C15ull + 7;
  k.lo = n;
  return k;
}

// --- codec -------------------------------------------------------------------

TEST(ErasureCodec, RoundTripsAcrossProfilesAndLengths) {
  // Identity through encode -> all-fragments reconstruct, including lengths
  // that do not divide by k (the last data fragment is zero-padded). At
  // k = 1 the code is replication: every fragment is the input itself.
  const std::vector<std::pair<int, int>> profiles{{1, 1}, {1, 2}, {2, 1},
                                                  {4, 2}, {6, 3}, {10, 4}};
  const std::vector<u64> lengths{1, 255, 4096, 64 * 1024 + 13};
  for (const auto& [k, m] : profiles) {
    for (u64 len : lengths) {
      const auto data = pseudo_bytes(len, len * 31 + static_cast<u64>(k));
      const auto frags = erasure::encode(data, k, m);
      ASSERT_EQ(frags.size(), static_cast<size_t>(k + m));
      for (const auto& f : frags) {
        EXPECT_EQ(f.size(), erasure::fragment_bytes(len, k));
        if (k == 1) {
          EXPECT_EQ(f, data) << "(1," << m << ") len " << len;
        }
      }
      std::vector<std::pair<int, std::vector<std::byte>>> all;
      for (int i = 0; i < k + m; ++i) all.emplace_back(i, frags[static_cast<size_t>(i)]);
      EXPECT_EQ(erasure::reconstruct(all, k, m, len), data)
          << "(" << k << "," << m << ") len " << len;
    }
  }
}

TEST(ErasureCodec, EveryKSubsetReconstructsAtFourTwo) {
  // (4,2): all C(6,4) = 15 four-fragment subsets decode to the original —
  // which covers every single-fragment-loss and every two-fragment-loss
  // combination the store is sold as surviving.
  const int k = 4, m = 2;
  const u64 len = 32 * 1024 + 5;
  const auto data = pseudo_bytes(len, 0xE7A5);
  const auto frags = erasure::encode(data, k, m);
  int subsets = 0;
  for (int a = 0; a < k + m; ++a) {
    for (int b = a + 1; b < k + m; ++b) {
      for (int c = b + 1; c < k + m; ++c) {
        for (int d = c + 1; d < k + m; ++d) {
          std::vector<std::pair<int, std::vector<std::byte>>> pick;
          for (int i : {a, b, c, d}) {
            pick.emplace_back(i, frags[static_cast<size_t>(i)]);
          }
          ASSERT_EQ(erasure::reconstruct(pick, k, m, len), data)
              << "survivors {" << a << "," << b << "," << c << "," << d
              << "}";
          ++subsets;
        }
      }
    }
  }
  EXPECT_EQ(subsets, 15);
}

TEST(ErasureCodec, MoreThanMLossesAreUnrecoverable) {
  const int k = 4, m = 2;
  const auto data = pseudo_bytes(8192, 0xDEAD);
  const auto frags = erasure::encode(data, k, m);
  // Three losses leave three fragments: below k, reconstruct refuses.
  std::vector<std::pair<int, std::vector<std::byte>>> three{
      {0, frags[0]}, {2, frags[2]}, {5, frags[5]}};
  EXPECT_TRUE(erasure::reconstruct(three, k, m, 8192).empty());
  EXPECT_TRUE(erasure::reconstruct({}, k, m, 8192).empty());
}

TEST(ErasureCodec, CostModelPricesParityAndDecodePasses) {
  // Encode charges the parity output (m/k of the input), decode one full
  // pass, both at kErasureBw; healthy systematic reads are free. A Store
  // ships every fragment.
  EXPECT_DOUBLE_EQ(erasure::encode_seconds(4'000'000, 4, 2),
                   4'000'000.0 * 2 / 4 / sim::params::kErasureBw);
  EXPECT_DOUBLE_EQ(erasure::decode_seconds(4'000'000, 4),
                   4'000'000.0 / sim::params::kErasureBw);
  EXPECT_EQ(erasure::store_wire_bytes(4'000'001, 4, 2),
            6 * erasure::fragment_bytes(4'000'001, 4));
  // k = 1 is replication: no parity to compute, no decode to read any one
  // copy, and one container on the wire.
  EXPECT_EQ(erasure::encode_seconds(4'000'000, 1, 2), 0.0);
  EXPECT_EQ(erasure::decode_seconds(4'000'000, 1), 0.0);
  EXPECT_EQ(erasure::store_wire_bytes(4'000'001, 1, 2), 4'000'001u);
}

// --- placement ---------------------------------------------------------------

TEST(ErasurePlacement, FragmentsLandOnDistinctNodesWithFragmentCharges) {
  ChunkPlacement pl(std::make_shared<rpc::NodeHealth>(8), 4, 2);
  for (u64 i = 0; i < 100; ++i) {
    const auto homes = pl.record_store(key_of(i), 4096);
    ASSERT_EQ(homes.size(), 6u);
    EXPECT_EQ(std::set<NodeId>(homes.begin(), homes.end()).size(), 6u);
    const auto info = pl.erasure_info(key_of(i));
    EXPECT_EQ(info.k, 4);
    EXPECT_EQ(info.m, 2);
    EXPECT_EQ(info.frag_bytes, erasure::fragment_bytes(4096, 4));
    EXPECT_EQ(pl.home_charge(key_of(i)), info.frag_bytes);
  }
  // Stored footprint is (k+m)/k x logical: 1.5x at (4,2) — cheaper than
  // the 2.0x an R=2 replication placement charges for the same chunks.
  const auto per_node = pl.bytes_per_node();
  u64 erasure_total = 0;
  for (u64 b : per_node) erasure_total += b;
  EXPECT_EQ(erasure_total, 100u * 6 * erasure::fragment_bytes(4096, 4));
  ChunkPlacement repl(std::make_shared<rpc::NodeHealth>(8), 1, 1);  // R=2
  for (u64 i = 0; i < 100; ++i) repl.record_store(key_of(i), 4096);
  u64 repl_total = 0;
  for (u64 b : repl.bytes_per_node()) repl_total += b;
  EXPECT_LT(static_cast<double>(erasure_total),
            0.8 * static_cast<double>(repl_total));
}

TEST(ErasurePlacement, ReadPlanIsSystematicUntilFragmentsDie) {
  auto health = std::make_shared<rpc::NodeHealth>(8);
  ChunkPlacement pl(health, 4, 2);
  const ChunkKey key = key_of(42);
  const auto homes = pl.record_store(key, 4096);
  ASSERT_EQ(homes.size(), 6u);

  bool needs_decode = true;
  auto plan = pl.read_plan(key, &needs_decode);
  ASSERT_EQ(plan.size(), 4u);
  EXPECT_FALSE(needs_decode);  // healthy: the k data fragments concatenate
  for (size_t i = 0; i < plan.size(); ++i) {
    EXPECT_EQ(plan[i].node, homes[i]);
    EXPECT_EQ(plan[i].bytes, erasure::fragment_bytes(4096, 4));
  }

  // One data fragment dies: the plan substitutes a parity fragment and the
  // caller must pay decode CPU. Still no loss.
  health->fail(homes[1]);
  plan = pl.read_plan(key, &needs_decode);
  ASSERT_EQ(plan.size(), 4u);
  EXPECT_TRUE(needs_decode);
  for (const auto& src : plan) {
    EXPECT_NE(src.node, homes[1]);
    EXPECT_TRUE(health->up(src.node));
  }
  EXPECT_EQ(pl.lost_chunks(), 0u);
  EXPECT_TRUE(pl.available(key));

  // A *parity* loss alone never forces a decode: data fragments intact.
  health->revive(homes[1]);
  health->fail(homes[5]);
  plan = pl.read_plan(key, &needs_decode);
  ASSERT_EQ(plan.size(), 4u);
  EXPECT_FALSE(needs_decode);

  // Beyond m losses the chunk is gone: empty plan, counted lost.
  health->fail(homes[0]);
  health->fail(homes[1]);
  EXPECT_TRUE(pl.read_plan(key, &needs_decode).empty());
  EXPECT_FALSE(pl.available(key));
  EXPECT_TRUE(pl.lost(key));
  EXPECT_EQ(pl.lost_chunks(), 1u);
}

// A restart names its node as the reader. Under replication a reader that
// holds a copy reads it locally, and the readers without one spread over
// the copies instead of all loading slot 0's holder; no copy is a degraded
// read. A (4,2) read stays the four data fragments whoever reads.
TEST(ErasurePlacement, ReplicaReadersSpreadAndFragmentReadsStaySystematic) {
  constexpr int kNodes = 10;
  constexpr u64 kKeys = 300;
  auto health = std::make_shared<rpc::NodeHealth>(kNodes);
  ChunkPlacement repl(health, 1, 1);  // R=2
  ChunkPlacement striped(std::make_shared<rpc::NodeHealth>(kNodes), 4, 2);
  u64 served[2] = {0, 0};  // (key, reader) pairs per slot, non-holders
  for (u64 i = 0; i < kKeys; ++i) {
    const ChunkKey key = key_of(i);
    const auto homes = repl.record_store(key, 4096);
    const auto frags = striped.record_store(key, 4096);
    ASSERT_EQ(homes.size(), 2u);
    for (NodeId reader = 0; reader < kNodes; ++reader) {
      bool needs_decode = true;
      const auto plan = repl.read_plan(key, &needs_decode, reader);
      ASSERT_EQ(plan.size(), 1u);
      EXPECT_FALSE(needs_decode);
      EXPECT_EQ(plan[0].bytes, 4096u);
      const bool holds = homes[0] == reader || homes[1] == reader;
      if (holds) {
        EXPECT_EQ(plan[0].node, reader);
      } else {
        ASSERT_TRUE(plan[0].node == homes[0] || plan[0].node == homes[1]);
        served[plan[0].node == homes[0] ? 0 : 1]++;
      }
      needs_decode = true;
      const auto data = striped.read_plan(key, &needs_decode, reader);
      EXPECT_FALSE(needs_decode);
      ASSERT_EQ(data.size(), 4u);
      for (size_t f = 0; f < data.size(); ++f) {
        EXPECT_EQ(data[f].node, frags[f]);
      }
    }
  }
  const u64 pairs = served[0] + served[1];
  EXPECT_EQ(pairs, kKeys * (kNodes - 2));
  for (const u64 n : served) {
    EXPECT_GT(n * 10, pairs * 3);
    EXPECT_LT(n * 10, pairs * 7);
  }

  // Node 3 dies and every other key's slot-0 copy rots: each reader,
  // holders included, gets the one usable copy, or nothing when neither
  // is, and still never a decode.
  health->fail(3);
  for (u64 i = 0; i < kKeys; i += 2) {
    ASSERT_TRUE(repl.corrupt_fragment(key_of(i), 0));
  }
  for (u64 i = 0; i < kKeys; ++i) {
    const ChunkKey key = key_of(i);
    const auto homes = repl.homes_of(key);
    const u32 rotten = repl.corrupt_mask(key);
    auto usable = [&](size_t slot) {
      return homes[slot] != 3 && !((rotten >> slot) & 1u);
    };
    for (NodeId reader = 0; reader < kNodes; ++reader) {
      bool needs_decode = true;
      const auto plan = repl.read_plan(key, &needs_decode, reader);
      EXPECT_FALSE(needs_decode);
      if (!usable(0) && !usable(1)) {
        EXPECT_TRUE(plan.empty());
        continue;
      }
      ASSERT_EQ(plan.size(), 1u);
      const size_t slot = plan[0].node == homes[0] ? 0 : 1;
      EXPECT_EQ(plan[0].node, homes[slot]);
      EXPECT_TRUE(usable(slot)) << "key " << i << " reader " << reader;
    }
  }
}

TEST(ErasurePlacement, HealPinsSurvivorsAndReassignsOnlyDeadSlots) {
  auto health = std::make_shared<rpc::NodeHealth>(8);
  ChunkPlacement pl(health, 4, 2);
  const ChunkKey key = key_of(7);
  const auto before = pl.record_store(key, 8192);
  ASSERT_EQ(before.size(), 6u);

  health->fail(before[2]);
  ASSERT_TRUE(pl.degraded(key));
  const auto fresh = pl.heal(key);
  ASSERT_EQ(fresh.size(), 1u);  // exactly the dead slot is rebuilt
  EXPECT_NE(fresh[0], before[2]);
  const auto after = pl.homes_of(key);
  ASSERT_EQ(after.size(), 6u);
  for (size_t i = 0; i < 6; ++i) {
    if (i == 2) {
      EXPECT_EQ(after[i], fresh[0]);
    } else {
      EXPECT_EQ(after[i], before[i]) << "surviving slot " << i << " moved";
    }
  }
  EXPECT_FALSE(pl.degraded(key));
  // Full strength again: two *more* losses are survivable.
  health->fail(after[0]);
  health->fail(after[4]);
  EXPECT_EQ(pl.lost_chunks(), 0u);
}

TEST(ErasurePlacement, CorruptFragmentsRepairInPlace) {
  ChunkPlacement pl(std::make_shared<rpc::NodeHealth>(8), 4, 2);
  const ChunkKey key = key_of(3);
  const auto homes = pl.record_store(key, 4096);
  ASSERT_EQ(homes.size(), 6u);

  EXPECT_FALSE(pl.corrupt_fragment(key_of(999), 0));  // unknown key
  EXPECT_FALSE(pl.corrupt_fragment(key, 6));          // index out of range
  ASSERT_TRUE(pl.corrupt_fragment(key, 1));
  ASSERT_TRUE(pl.corrupt_fragment(key, 4));
  EXPECT_EQ(pl.corrupt_mask(key), (1u << 1) | (1u << 4));
  EXPECT_TRUE(pl.available(key));  // 4 clean fragments still reconstruct
  bool needs_decode = false;
  const auto plan = pl.read_plan(key, &needs_decode);
  ASSERT_EQ(plan.size(), 4u);
  EXPECT_TRUE(needs_decode);
  for (const auto& src : plan) EXPECT_NE(src.node, homes[1]);

  const auto rewritten = pl.repair_fragments(key);
  EXPECT_EQ(rewritten.size(), 2u);
  EXPECT_EQ(pl.corrupt_mask(key), 0u);
  EXPECT_FALSE(pl.degraded(key));

  // Three rotten fragments exceed m: beyond repair, quarantine territory.
  ASSERT_TRUE(pl.corrupt_fragment(key, 0));
  ASSERT_TRUE(pl.corrupt_fragment(key, 2));
  ASSERT_TRUE(pl.corrupt_fragment(key, 5));
  EXPECT_TRUE(pl.repair_fragments(key).empty());
  EXPECT_TRUE(pl.lost(key));
}

TEST(ErasureScrub, RepairGathersKFragmentsBeforeRewriting) {
  // A rotten (4,2) fragment is rebuilt by the shared repair job: k clean
  // fragments cross their NICs into the repairing node, which decodes and
  // rewrites its fragment in place only after the last one has arrived.
  sim::EventLoop loop;
  sim::Network net(loop, 8);
  ChunkStoreService svc(loop, net, {4, 2});
  struct Charge {
    SimTime at;
    NodeId node;
    u64 bytes;
    bool is_read;
  };
  std::vector<Charge> charges;
  svc.set_device_charger(
      [&](NodeId n, u64 bytes, bool is_read, std::function<void()> done) {
        charges.push_back({loop.now(), n, bytes, is_read});
        loop.post_now(std::move(done));
      });
  SimTime cpu_at = 0, cpu_done = 0;
  NodeId cpu_node = -1;
  svc.set_cpu_charger([&](NodeId n, double seconds,
                          std::function<void()> done) {
    cpu_node = n;
    cpu_at = loop.now();
    cpu_done = cpu_at + from_seconds(seconds);
    loop.post_at(cpu_done, std::move(done));
  });

  constexpr u64 kBytes = 64 * 1024;
  const u64 frag = erasure::fragment_bytes(kBytes, 4);
  const ChunkKey key = key_of(5);
  ckptstore::StoreRequest store;
  store.op = ckptstore::StoreOp::kStore;
  store.keys = {key};
  store.bytes = kBytes;
  store.done = [] {};
  svc.submit(std::move(store));
  // The scrub walk iterates the repository index (a pattern descriptor:
  // only real containers are CRC-checked, and this test is about rot).
  ckptstore::Chunk c;
  c.kind = sim::ExtentKind::kZero;
  c.len = kBytes;
  c.charged_bytes = kBytes;
  svc.repo().put(key, std::move(c));
  loop.run();

  const auto homes = svc.placement().homes_of(key);
  ASSERT_EQ(homes.size(), 6u);
  ASSERT_TRUE(svc.corrupt_fragment(key, 2));
  const NodeId repairer = homes[2];
  std::vector<u64> nic_before;
  for (NodeId n = 0; n < 8; ++n) {
    nic_before.push_back(net.egress(n).total_submitted_bytes());
  }
  charges.clear();
  svc.scrub(1u << 20);
  loop.run();

  EXPECT_EQ(svc.stats().scrub_repaired_fragments, 1u);
  EXPECT_EQ(svc.stats().scrub_quarantined_chunks, 0u);
  EXPECT_EQ(svc.placement().corrupt_mask(key), 0u);
  // k fragments moved over the NIC, each from a clean home into the
  // repairer; nothing left the repairer (its rewrite is local).
  u64 nic_moved = 0;
  SimTime last_arrival = 0;
  for (NodeId n = 0; n < 8; ++n) {
    const u64 sent = net.egress(n).total_submitted_bytes() -
                     nic_before[static_cast<size_t>(n)];
    nic_moved += sent;
    if (sent == 0) continue;
    EXPECT_NE(n, repairer);
    EXPECT_EQ(sent, frag);
    last_arrival = std::max(last_arrival, net.egress(n).busy_until() +
                                              sim::params::kNetLatency);
  }
  EXPECT_EQ(nic_moved, 4 * frag);
  // Decode at the repairer once the last source arrived, then the rewrite.
  EXPECT_EQ(cpu_node, repairer);
  EXPECT_GE(cpu_at, last_arrival);
  std::vector<Charge> writes;
  for (const auto& ch : charges) {
    if (!ch.is_read) writes.push_back(ch);
  }
  ASSERT_EQ(writes.size(), 1u);
  EXPECT_EQ(writes[0].node, repairer);
  EXPECT_EQ(writes[0].bytes, frag);
  EXPECT_GE(writes[0].at, cpu_done);
  EXPECT_GT(writes[0].at, last_arrival);
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

DmtcpOptions erasure_opts(int k = 4, int m = 2) {
  DmtcpOptions o;
  o.incremental = true;
  o.codec = compress::CodecKind::kNone;  // exact byte accounting
  o.chunking = ckptstore::ChunkingMode::kCdc;
  o.cdc_min_bytes = 2 * 1024;
  o.cdc_avg_bytes = 8 * 1024;
  o.cdc_max_bytes = 32 * 1024;
  o.dedup_scope = core::DedupScope::kCluster;
  o.erasure_k = k;
  o.erasure_m = m;
  return o;
}

void add_ballast(World& w, Pid pid, u64 bytes, u64 seed) {
  sim::Process* p = w.k().find_process(pid);
  ASSERT_NE(p, nullptr);
  auto& seg = p->mem().add("ballast", sim::MemKind::kHeap, bytes);
  seg.data.fill(0, bytes, ExtentKind::kRand, seed);
}

TEST(ErasureE2E, RestartSurvivesMNodeLossesViaDegradedReads) {
  World w(8, erasure_opts(4, 2));
  const Pid pa = w.ctl.launch(0, kComputeLoop, {"1000000", "200", "a"});
  const Pid pb = w.ctl.launch(1, kComputeLoop, {"1000000", "200", "b"});
  w.ctl.run_for(20 * timeconst::kMillisecond);
  add_ballast(w, pa, 1024 * 1024, 0xAA);
  add_ballast(w, pb, 1024 * 1024, 0xBB);
  w.ctl.checkpoint_now();

  auto& svc = *w.ctl.shared().store_service;
  ASSERT_GT(svc.placement().placed_chunks(), 0u);
  // Two nodes die with their fragments and the heal daemon gets no window:
  // restart must reconstruct every touched chunk from k survivors.
  svc.fail_node(6);
  svc.fail_node(7);
  EXPECT_EQ(svc.placement().lost_chunks(), 0u);
  w.ctl.kill_computation();
  const auto& rr = w.ctl.restart();
  EXPECT_FALSE(rr.needs_restore);
  EXPECT_EQ(rr.lost_chunks, 0u);
  EXPECT_EQ(rr.procs, 2);
  ASSERT_TRUE(w.run_until_results({"a", "b"}));
}

/// The live process whose result name (last argv entry) is `name`.
sim::Process* live_process(World& w, const std::string& name) {
  for (const Pid pid : w.k().live_pids()) {
    sim::Process* p = w.k().find_process(pid);
    if (!p->argv().empty() && p->argv().back() == name) return p;
  }
  return nullptr;
}

/// content_crc() of segment `seg_name` in every live process that maps it,
/// keyed by the process's result name.
std::map<std::string, u32> segment_crcs(World& w,
                                        const std::string& seg_name) {
  std::map<std::string, u32> out;
  for (const Pid pid : w.k().live_pids()) {
    sim::Process* p = w.k().find_process(pid);
    const sim::MemSegment* seg = p->mem().find(seg_name);
    if (seg != nullptr) out[p->argv().back()] = seg->data.content_crc();
  }
  return out;
}

TEST(ErasureE2E, StreamedRestartOverlapsDecodeAtZeroOneTwoLosses) {
  // Each host's chunks stream through a kCoresPerNode decoder pool while
  // later chunks are still being fetched, so a (4,2) restart — healthy or
  // reading through parity — ends before one core could have decoded a
  // single host's image, and restores the same bytes.
  constexpr int kHosts = 2;
  for (const int losses : {0, 1, 2}) {
    SCOPED_TRACE("losses " + std::to_string(losses));
    DmtcpOptions o = erasure_opts(4, 2);
    o.codec = compress::CodecKind::kGzipish;
    World w(8, o);
    const Pid pa = w.ctl.launch(0, kComputeLoop, {"1000000", "200", "a"});
    const Pid pb = w.ctl.launch(1, kComputeLoop, {"1000000", "200", "b"});
    w.ctl.run_for(20 * timeconst::kMillisecond);
    add_ballast(w, pa, 4 * 1024 * 1024, 0xAA);
    add_ballast(w, pb, 4 * 1024 * 1024, 0xBB);
    w.ctl.checkpoint_now();
    const auto before = segment_crcs(w, "ballast");
    ASSERT_EQ(before.size(), 2u);

    auto& svc = *w.ctl.shared().store_service;
    for (int f = 0; f < losses; ++f) svc.fail_node(7 - f);
    w.ctl.kill_computation();
    const auto& rr = w.ctl.restart();
    EXPECT_FALSE(rr.needs_restore);
    EXPECT_EQ(rr.procs, kHosts);
    EXPECT_LE(rr.peak_decode_jobs, sim::params::kCoresPerNode);
    EXPECT_LT(rr.total_seconds(), rr.decode_cpu_seconds / kHosts);
    EXPECT_EQ(segment_crcs(w, "ballast"), before);
  }
}

TEST(ErasureE2E, RepeatedRestartsShareEachChunksVerifiedDecode) {
  // Two kill/restart cycles from one (4,2) gzip checkpoint restore the same
  // bytes, and the second decodes nothing on the host: every real extent of
  // a rank's restored heap is its chunk's decode cache, adopted in place of
  // a decompressed copy.
  DmtcpOptions o = erasure_opts(4, 2);
  o.codec = compress::CodecKind::kGzipish;
  World w(8, o);
  constexpr u64 kHeap = 512 * 1024;
  const std::vector<Pid> pids = {
      w.ctl.launch(0, kComputeLoop, {"1000000", "200", "a"}),
      w.ctl.launch(1, kComputeLoop, {"1000000", "200", "b"})};
  w.ctl.run_for(20 * timeconst::kMillisecond);
  for (size_t i = 0; i < pids.size(); ++i) {
    auto& seg = w.k().find_process(pids[i])->mem().add(
        "private", sim::MemKind::kHeap, kHeap);
    seg.data.write(0, pseudo_bytes(kHeap, 0xD0 + i));
  }
  w.ctl.checkpoint_now();
  const auto before = segment_crcs(w, "private");
  ASSERT_EQ(before.size(), 2u);
  for (int cycle = 0; cycle < 2; ++cycle) {
    SCOPED_TRACE("cycle " + std::to_string(cycle));
    w.ctl.kill_computation();
    const auto& rr = w.ctl.restart();
    ASSERT_FALSE(rr.needs_restore);
    ASSERT_EQ(rr.procs, 2);
    EXPECT_EQ(segment_crcs(w, "private"), before);
  }

  size_t checked = 0;
  for (const auto& host : w.ctl.read_restart_plan().hosts) {
    const ckptstore::Repository& repo = w.ctl.shared().repo_for(host.host);
    for (const auto& path : host.images) {
      auto inode = w.k().fs_for(host.host, path).lookup(path);
      const auto mf = ckptstore::Manifest::decode(
          inode->data.materialize(0, inode->data.size()));
      ByteReader r(mf.meta_blob);
      const auto meta = mtcp::ProcessImage::deserialize_meta(r);
      sim::Process* p = live_process(w, meta.argv.back());
      ASSERT_NE(p, nullptr) << meta.argv.back();
      const sim::MemSegment* seg = p->mem().find("private");
      ASSERT_NE(seg, nullptr);
      std::map<u64, const sim::ByteImage::Extent*> real;
      seg->data.for_each_extent([&](u64 off, const sim::ByteImage::Extent& e) {
        if (e.kind == ExtentKind::kReal) real.emplace(off, &e);
      });
      for (const auto& sm : mf.segments) {
        if (sm.name != "private") continue;
        u64 off = 0;
        size_t real_chunks = 0;
        for (const auto& ref : sm.chunks) {
          const ckptstore::Chunk* c = repo.find(ref.key);
          ASSERT_NE(c, nullptr);
          if (c->kind == ExtentKind::kReal) {
            ++real_chunks;
            auto it = real.find(off);
            ASSERT_NE(it, real.end()) << "@" << off;
            EXPECT_EQ(it->second->data.get(), c->decoded().get())
                << "@" << off;
            EXPECT_EQ(it->second->data_off, 0u);
            EXPECT_EQ(it->second->len, ref.len);
          }
          off += ref.len;
        }
        EXPECT_EQ(real_chunks, real.size());
        checked += real_chunks;
      }
    }
  }
  EXPECT_GT(checked, 2u * kHeap / o.cdc_max_bytes);
}

TEST(ErasureE2E, StreamedWriteStripesEachChunkOnTheWritersPool) {
  // A CPU-bound (4,2) gzip round: each new chunk's codec CPU plus its
  // parity stripe is one job on its writer's core pool, and its Store
  // leaves when that job ends — so the write stage ends before one core
  // could have encoded a single writer's image.
  constexpr int kWriters = 2;
  DmtcpOptions o = erasure_opts(4, 2);
  o.codec = compress::CodecKind::kGzipish;
  World w(8, o);
  const Pid pa = w.ctl.launch(0, kComputeLoop, {"1000000", "200", "a"});
  const Pid pb = w.ctl.launch(1, kComputeLoop, {"1000000", "200", "b"});
  w.ctl.run_for(20 * timeconst::kMillisecond);
  add_ballast(w, pa, 4 * 1024 * 1024, 0xAA);
  add_ballast(w, pb, 4 * 1024 * 1024, 0xBB);
  const core::CkptRound r = w.ctl.checkpoint_now();
  const auto [serial_seconds, chunks] =
      first_round_serial_encode(w.ctl, o.codec, 4, 2);

  EXPECT_NEAR(r.encode_cpu_seconds, serial_seconds, 1e-9 * serial_seconds);
  EXPECT_EQ(r.encode_jobs, chunks);
  EXPECT_EQ(r.peak_encode_jobs, sim::params::kCoresPerNode);
  EXPECT_LT(r.write_seconds(), r.encode_cpu_seconds / kWriters);
}

TEST(ErasureE2E, SyncRetentionTrimsOneFragmentPerHome) {
  // Retention trims a reclaimed chunk's *fragment* from each home that
  // holds one, so across rounds that rewrite pages and reclaim the old
  // chunks, every store-only node's placement bytes stay exactly what its
  // device wrote minus what GC discarded there.
  DmtcpOptions o = erasure_opts(4, 2);
  o.keep_generations = 1;
  World w(8, o);
  const std::vector<Pid> pids = {
      w.ctl.launch(0, kComputeLoop, {"1000000", "200", "a"}),
      w.ctl.launch(1, kComputeLoop, {"1000000", "200", "b"})};
  w.ctl.run_for(20 * timeconst::kMillisecond);
  for (size_t i = 0; i < pids.size(); ++i) {
    add_ballast(w, pids[i], 1024 * 1024, 0xA0 + i);
  }
  for (u64 gen = 0; gen < 4; ++gen) {
    for (size_t i = 0; i < pids.size(); ++i) {
      // Rewrite a quarter of the ballast: its old chunks fall out of the
      // one-generation keep window at the next round's GC.
      auto& seg = w.k().find_process(pids[i])->mem().find("ballast")->data;
      seg.fill(256 * 1024 * (gen % 4), 256 * 1024, ExtentKind::kRand,
               0xC0 + 16 * gen + i);
    }
    w.ctl.checkpoint_now();
  }

  const auto placed =
      w.ctl.shared().store_service->placement().bytes_per_node();
  u64 discarded = 0;
  for (int n = 2; n < 8; ++n) {
    SCOPED_TRACE("node " + std::to_string(n));
    const auto& st = w.k().node(n).storage();
    const u64 written = st.cache().total_written_bytes();
    const u64 trimmed = st.disk().total_discarded_bytes();
    ASSERT_GE(written, trimmed);
    EXPECT_EQ(placed[static_cast<size_t>(n)], written - trimmed);
    discarded += trimmed;
  }
  EXPECT_GT(discarded, 0u);
}

TEST(ErasureE2E, BeyondMLossesReportLostChunksBeforeRestart) {
  World w(8, erasure_opts(4, 2));
  const Pid pa = w.ctl.launch(0, kComputeLoop, {"1000000", "200", "a"});
  w.ctl.run_for(20 * timeconst::kMillisecond);
  add_ballast(w, pa, 2 * 1024 * 1024, 0xCC);
  w.ctl.checkpoint_now();

  auto& svc = *w.ctl.shared().store_service;
  // Three simultaneous node losses exceed m=2 for every chunk with three
  // fragment homes among the dead — no heal can rebuild those. The
  // pre-flight must refuse the restart and count them.
  svc.fail_node(5);
  svc.fail_node(6);
  svc.fail_node(7);
  ASSERT_GT(svc.placement().lost_chunks(), 0u);
  w.ctl.kill_computation();
  const auto& rr = w.ctl.restart();
  EXPECT_TRUE(rr.needs_restore);
  EXPECT_GT(rr.lost_chunks, 0u);
  EXPECT_EQ(rr.lost_chunks, svc.placement().lost_chunks());
}

TEST(ErasureE2E, HealRebuildsDeadFragmentsFromSurvivors) {
  World w(8, erasure_opts(4, 2));
  const Pid pa = w.ctl.launch(0, kComputeLoop, {"1000000", "200", "a"});
  const Pid pb = w.ctl.launch(1, kComputeLoop, {"1000000", "200", "b"});
  w.ctl.run_for(20 * timeconst::kMillisecond);
  add_ballast(w, pa, 1024 * 1024, 0xAA);
  add_ballast(w, pb, 1024 * 1024, 0xBB);
  w.ctl.checkpoint_now();

  auto& svc = *w.ctl.shared().store_service;
  ASSERT_EQ(svc.placement().degraded_count(), 0u);
  svc.fail_node(7);
  ASSERT_GT(svc.placement().degraded_count(), 0u);

  // Detection + rebuild drain in the background, as in the replication
  // heal test — but here the daemon moves fragments, not full copies.
  w.ctl.run_for(150 * timeconst::kMillisecond);
  const auto& round = w.ctl.checkpoint_now();
  EXPECT_EQ(svc.placement().degraded_count(), 0u);
  EXPECT_GT(svc.stats().rebuilt_fragments, 0u);
  EXPECT_GT(svc.stats().heal_moved_bytes, 0u);
  EXPECT_GT(round.delta.counter("store.rebuilt_fragments"), 0u);
  // A single node death costs each degraded chunk exactly one fragment, so
  // the accounting is exact: one rebuilt fragment per healed chunk, and
  // moved bytes = frag x (2k + 2F - 1) = 9 x the rebuilt fragment bytes —
  // well under the 3 x full-chunk bytes an R=2 replication heal ships.
  EXPECT_EQ(svc.stats().rebuilt_fragments, svc.stats().rereplicated_chunks);
  EXPECT_EQ(svc.stats().heal_moved_bytes,
            9 * svc.stats().rereplicated_bytes);
  // Full strength restored: two further losses are survivable again.
  svc.fail_node(5);
  svc.fail_node(6);
  EXPECT_EQ(svc.placement().lost_chunks(), 0u);
}

TEST(ErasureE2E, ScrubRepairsRottenFragmentInPlace) {
  auto opts = erasure_opts(4, 2);
  opts.scrub_chunks = 1u << 20;  // scrub the whole store every round
  World w(8, opts);
  const Pid pa = w.ctl.launch(0, kComputeLoop, {"1000000", "400", "a"});
  w.ctl.run_for(20 * timeconst::kMillisecond);
  add_ballast(w, pa, 1024 * 1024, 0xDD);
  w.ctl.checkpoint_now();

  auto& svc = *w.ctl.shared().store_service;
  // Rot one fragment of a placed chunk. The next scrub pass must rebuild
  // it in place from the five clean fragments — repaired, not
  // quarantined, and the chunk never stops being readable.
  ChunkKey victim{};
  for (const auto& [key, chunk] : svc.repo().chunks_after(ChunkKey{}, 4096)) {
    if (svc.placement().erasure_info(key).k > 0) {
      victim = key;
      break;
    }
  }
  ASSERT_TRUE(svc.corrupt_fragment(victim, 2));
  EXPECT_EQ(svc.placement().corrupt_mask(victim), 1u << 2);
  EXPECT_TRUE(svc.placement().available(victim));

  const u64 repaired_before = svc.stats().scrub_repaired_fragments;
  svc.scrub(1u << 20);
  w.ctl.run_for(200 * timeconst::kMillisecond);
  EXPECT_EQ(svc.stats().scrub_repaired_fragments, repaired_before + 1);
  EXPECT_EQ(svc.stats().scrub_quarantined_chunks, 0u);
  EXPECT_EQ(svc.placement().corrupt_mask(victim), 0u);
  EXPECT_TRUE(svc.placement().available(victim));
}

TEST(ErasureE2E, ColdDemotionRestripesOldGenerationsWider) {
  auto opts = erasure_opts(4, 2);
  opts.cold_erasure_k = 6;
  opts.cold_erasure_m = 2;
  opts.hot_generations = 1;
  World w(8, opts);
  const Pid pa = w.ctl.launch(0, kComputeLoop, {"1000000", "200", "a"});
  w.ctl.run_for(20 * timeconst::kMillisecond);
  add_ballast(w, pa, 1024 * 1024, 0x11);
  w.ctl.checkpoint_now();

  // Rewrite half the ballast: generation 1 re-chunks it under new keys,
  // which strands the old half's chunks outside the hot window
  // (hot-generations=1) while --keep-generations=2 keeps them resident.
  sim::Process* p = w.k().find_process(pa);
  ASSERT_NE(p, nullptr);
  p->mem().find("ballast")->data.fill(0, 512 * 1024, ExtentKind::kRand, 0x22);
  w.ctl.checkpoint_now();

  // The demotion daemon kicked at that round's close re-stripes the cold
  // chunks to (6,2) in the background.
  w.ctl.run_for(200 * timeconst::kMillisecond);
  auto& svc = *w.ctl.shared().store_service;
  ASSERT_GT(svc.stats().demoted_chunks, 0u);
  EXPECT_GT(svc.stats().demoted_bytes, 0u);
  u64 cold_entries = 0;
  for (const auto& [key, chunk] : svc.repo().chunks_after(ChunkKey{}, 4096)) {
    if (svc.placement().erasure_info(key).k == 6) ++cold_entries;
  }
  EXPECT_GT(cold_entries, 0u);

  // The demotion surfaces in the next round's delta, and a cold store
  // still restarts: any 6 of a cold chunk's 8 fragments reconstruct.
  const auto& round = w.ctl.checkpoint_now();
  EXPECT_GT(round.delta.counter("store.demoted_chunks"), 0u);
  svc.fail_node(6);
  svc.fail_node(7);
  EXPECT_EQ(svc.placement().lost_chunks(), 0u);
  w.ctl.kill_computation();
  const auto& rr = w.ctl.restart();
  EXPECT_FALSE(rr.needs_restore);
  EXPECT_EQ(rr.lost_chunks, 0u);
  ASSERT_TRUE(w.run_until_results({"a"}));
}

TEST(ErasureOptions, FlagsParseAndValidate) {
  DmtcpOptions o;
  std::vector<std::string> argv{"--incremental", "--dedup-scope", "cluster",
                                "--erasure",     "4,2",           "--cold-erasure",
                                "6,2",           "--hot-generations", "1"};
  EXPECT_EQ(o.apply_flags(argv), "");
  EXPECT_TRUE(argv.empty());
  EXPECT_EQ(o.erasure_k, 4);
  EXPECT_EQ(o.erasure_m, 2);
  EXPECT_EQ(o.cold_erasure_k, 6);
  EXPECT_EQ(o.cold_erasure_m, 2);
  EXPECT_EQ(o.hot_generations, 1);
  EXPECT_NE(o.validate_cluster(6), "");  // cold 6+2 does not fit 6 nodes
  EXPECT_EQ(o.validate_cluster(8), "");

  DmtcpOptions repl;
  std::vector<std::string> both{"--incremental",    "--dedup-scope", "cluster",
                                "--chunk-replicas", "2",             "--erasure",
                                "4,2"};
  EXPECT_NE(repl.apply_flags(both), "");  // mutually exclusive schemes

  DmtcpOptions bad;
  std::vector<std::string> narrow{"--incremental", "--dedup-scope", "cluster",
                                  "--erasure", "1,1"};
  EXPECT_NE(bad.apply_flags(narrow), "");  // k < 2

  DmtcpOptions orphan;
  std::vector<std::string> hot_only{"--incremental", "--dedup-scope",
                                    "cluster", "--hot-generations", "2"};
  EXPECT_NE(orphan.apply_flags(hot_only), "");  // no cold tier to demote to
}

}  // namespace
}  // namespace dsim::test
