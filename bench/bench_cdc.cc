// Content-defined chunking vs fixed chunking, and cluster-wide dedup.
//
// Part A (insertion): one process image of real content is checkpointed,
// then K bytes are inserted near the front — shifting every downstream
// byte — and it is checkpointed again into the same store. Fixed-size
// chunking re-keys every chunk after the insertion (dedup retained ~0);
// CDC cutpoints resynchronize at the next content-defined boundary, so
// dedup retention stays near 1.
//
// Part B (cluster round): N processes on N nodes each map an identical
// shared-library ballast plus a private heap. With node-scope dedup every
// node stores its own library copy; with --dedup-scope cluster the
// computation-wide store keeps exactly one, and the round's stored bytes
// drop by (N-1) library copies.
//
// Part C (rewrite): the incremental encoder's host scan against the
// segment's memo. A live heap of text-like real bytes mirrors the repo
// benchmark's store_write heap: CDC 4/16/64 KiB, and each generation a
// fresh 16 KiB write into 25% of its 64 KiB pages. The figure is the
// fraction of real bytes the host rescans in generations >= 1 (generation
// 0 scans everything); each generation's manifest must equal a scan
// without the memo.
//
// Emits BENCH_cdc.json (checked by the CI bench-smoke job).
//
// Knobs: DSIM_CDC_IMG_KB (2048), DSIM_CDC_INSERT_BYTES (64),
// DSIM_CDC_AVG_KB (8), DSIM_CDC_PROCS (4), DSIM_CDC_LIB_MB (8),
// DSIM_CDC_PRIV_MB (2).
#include <fstream>
#include <span>

#include "bench/bench_util.h"
#include "ckptstore/cdc.h"
#include "mtcp/mtcp.h"
#include "tests/testutil.h"
#include "util/rng.h"

using namespace dsim;
using namespace dsim::bench;
using dsim::test::pseudo_bytes;

namespace {

/// A one-segment process image over `heap` (copied: a snapshot).
mtcp::ProcessImage image_of(const sim::ByteImage& heap) {
  mtcp::ProcessImage img;
  img.prog_name = "prog";
  img.virt_pid = 7;
  img.virt_ppid = 1;
  img.origin_node = 0;
  mtcp::SegmentImage s;
  s.name = "heap";
  s.kind = sim::MemKind::kHeap;
  s.data = heap;
  img.segments.push_back(std::move(s));
  mtcp::ThreadImage t;
  t.kind = sim::ThreadKind::kMain;
  img.threads.push_back(t);
  return img;
}

mtcp::ProcessImage image_of(std::span<const std::byte> content) {
  sim::ByteImage heap(content.size());
  heap.write(0, content);
  return image_of(heap);
}

struct InsertionResult {
  u64 total_chunks = 0;
  u64 new_chunks = 0;
  u64 new_bytes = 0;
  double dedup_retained = 0;  // dedup'd logical bytes / image bytes
};

/// Generation 0 of `before`, then generation 1 of `after` (the insertion),
/// against one repository. Codec kNone keeps charged bytes == logical
/// bytes so retention is exact.
InsertionResult run_insertion(const mtcp::ProcessImage& before,
                              const mtcp::ProcessImage& after,
                              const ckptstore::ChunkingParams& p) {
  ckptstore::Repository repo;
  const auto codec = compress::CodecKind::kNone;
  mtcp::encode_incremental(before, codec, p, "7", 0, repo);
  const auto delta = mtcp::encode_incremental(after, codec, p, "7", 1, repo);
  InsertionResult r;
  r.total_chunks = delta.total_chunks;
  r.new_chunks = delta.new_chunks;
  r.new_bytes = delta.new_chunk_bytes;
  const u64 image_bytes = after.segments[0].data.size();
  r.dedup_retained =
      static_cast<double>(delta.dup_chunk_bytes) /
      static_cast<double>(image_bytes);
  return r;
}

/// One cluster round: `procs` processes on `procs` nodes, identical
/// shared-library ballast plus private heaps, under the given dedup scope.
core::CkptRound run_cluster_round(int procs, u64 lib_bytes, u64 priv_bytes,
                                  core::DedupScope scope) {
  core::DmtcpOptions opts;
  opts.incremental = true;
  opts.codec = compress::CodecKind::kNone;  // exact byte accounting
  opts.chunking = ckptstore::ChunkingMode::kCdc;
  opts.dedup_scope = scope;
  World w(procs, opts, 0xcdc5);
  const std::string prof = apps::desktop_profiles().front().name;
  std::vector<Pid> pids;
  for (int n = 0; n < procs; ++n) {
    std::string tag = "p";
    tag += std::to_string(n);
    pids.push_back(w.ctl->launch(n, "desktop_app", {prof, "0", tag}));
  }
  w.ctl->run_for(50 * timeconst::kMillisecond);
  for (int n = 0; n < procs; ++n) {
    sim::Process* p = w.k().find_process(pids[static_cast<size_t>(n)]);
    // Same seed at the same offsets: every process's library chunks key
    // identically, as the same mapped .so does across a real cluster.
    auto& lib = p->mem().add("libshared", sim::MemKind::kLib, lib_bytes);
    lib.data.fill(0, lib_bytes, sim::ExtentKind::kRand, 0x11B);
    auto& priv = p->mem().add("private", sim::MemKind::kHeap, priv_bytes);
    priv.data.fill(0, priv_bytes, sim::ExtentKind::kRand,
                   0xB0 + static_cast<u64>(n));
  }
  return w.ctl->checkpoint_now();
}

/// Seeded text-like bytes — words and separators — so the rewritten heap
/// looks like program data rather than noise.
std::vector<std::byte> text_bytes(u64 n, u64 seed) {
  static const char* const kWords[] = {
      "checkpoint", "restart", "barrier", "manifest", "chunk", "shard",
      "the",        "of",      "and",     "int",      "return", "struct",
      "0x7f",       "NULL",    "=",       "();",      "{",      "}"};
  constexpr u64 kNumWords = sizeof(kWords) / sizeof(kWords[0]);
  std::vector<std::byte> out(n);
  Rng rng(seed);
  for (u64 i = 0; i < n;) {
    for (const char* c = kWords[rng.next_below(kNumWords)]; *c && i < n; ++c) {
      out[i++] = static_cast<std::byte>(*c);
    }
    if (i < n) {
      out[i++] = static_cast<std::byte>(rng.next_below(8) ? ' ' : '\n');
    }
  }
  return out;
}

struct RewriteResult {
  u64 scan_real_bytes = 0;  // generations >= 1: what the model scans
  u64 rescanned_bytes = 0;  // generations >= 1: what the host scanned
  bool manifests_identical = true;
  double rescan_fraction() const {
    return static_cast<double>(rescanned_bytes) /
           static_cast<double>(scan_real_bytes);
  }
};

constexpr u64 kRewriteHeapBytes = 2ull << 20;
constexpr int kRewriteGens = 8;
constexpr u64 kRewritePageBytes = 64 * 1024;
constexpr u64 kRewriteWriteBytes = 16 * 1024;
constexpr int kRewriteDirtyPct = 25;

/// Generations of the live heap through encode_incremental with its memo,
/// each checked against a memo-less encode of the same snapshot.
RewriteResult run_rewrite() {
  ckptstore::ChunkingParams p;
  p.mode = ckptstore::ChunkingMode::kCdc;
  p.min_bytes = 4 * 1024;
  p.avg_bytes = 16 * 1024;
  p.max_bytes = 64 * 1024;
  const auto codec = compress::CodecKind::kNone;
  sim::ByteImage live(kRewriteHeapBytes);
  live.write(0, text_bytes(kRewriteHeapBytes, 0x4EA9));
  mtcp::SegmentMemo memo;
  mtcp::SegmentMemo* const memos[] = {&memo};
  ckptstore::Repository repo, reference;
  Rng rng(0xD1E7);
  const u64 pages = kRewriteHeapBytes / kRewritePageBytes;
  std::vector<u64> order(pages);
  RewriteResult r;
  for (int g = 0; g < kRewriteGens; ++g) {
    if (g > 0) {
      for (u64 i = 0; i < pages; ++i) order[i] = i;
      for (u64 i = 0; i < pages * kRewriteDirtyPct / 100; ++i) {
        std::swap(order[i], order[i + rng.next_below(pages - i)]);
        live.write(order[i] * kRewritePageBytes +
                       rng.next_below(kRewritePageBytes -
                                      kRewriteWriteBytes + 1),
                   text_bytes(kRewriteWriteBytes, rng.next_u64()));
      }
    }
    memo.capture(live);
    const auto img = image_of(live);
    const auto d = mtcp::encode_incremental(img, codec, p, "7", g, repo,
                                            memos);
    const auto ref =
        mtcp::encode_incremental(img, codec, p, "7", g, reference);
    r.manifests_identical &= d.manifest_bytes == ref.manifest_bytes;
    if (g > 0) {
      r.scan_real_bytes += d.scan_real_bytes;
      r.rescanned_bytes += d.rescanned_bytes;
    }
  }
  return r;
}

}  // namespace

int main() {
  const u64 img_bytes =
      static_cast<u64>(env_int("DSIM_CDC_IMG_KB", 2048)) * 1024;
  const u64 insert_bytes =
      static_cast<u64>(env_int("DSIM_CDC_INSERT_BYTES", 64));
  const u64 avg = static_cast<u64>(env_int("DSIM_CDC_AVG_KB", 8)) * 1024;
  const int procs = env_int("DSIM_CDC_PROCS", 4);
  const u64 lib_bytes =
      static_cast<u64>(env_int("DSIM_CDC_LIB_MB", 8)) * 1024 * 1024;
  const u64 priv_bytes =
      static_cast<u64>(env_int("DSIM_CDC_PRIV_MB", 2)) * 1024 * 1024;

  // --- Part A: mid-image insertion, fixed vs CDC ----------------------------
  const u64 insert_at = 1000;  // near the front: worst case for fixed
  const auto content = pseudo_bytes(img_bytes, 42);
  const auto wedge = pseudo_bytes(insert_bytes, 0xF00D);
  std::vector<std::byte> shifted;
  shifted.reserve(content.size() + wedge.size());
  shifted.insert(shifted.end(), content.begin(),
                 content.begin() + static_cast<ptrdiff_t>(insert_at));
  shifted.insert(shifted.end(), wedge.begin(), wedge.end());
  shifted.insert(shifted.end(),
                 content.begin() + static_cast<ptrdiff_t>(insert_at),
                 content.end());
  const auto before = image_of(content);
  const auto after = image_of(shifted);

  ckptstore::ChunkingParams fixed;
  fixed.mode = ckptstore::ChunkingMode::kFixed;
  fixed.fixed_bytes = avg;
  ckptstore::ChunkingParams cdc;
  cdc.mode = ckptstore::ChunkingMode::kCdc;
  cdc.min_bytes = avg / 4;
  cdc.avg_bytes = avg;
  cdc.max_bytes = avg * 4;

  const InsertionResult rf = run_insertion(before, after, fixed);
  const InsertionResult rc = run_insertion(before, after, cdc);

  Table ta({"chunking", "total_chunks", "new_chunks", "new_MB",
            "dedup_retained"});
  ta.add_row({"fixed", Table::fmt(static_cast<double>(rf.total_chunks), 0),
              Table::fmt(static_cast<double>(rf.new_chunks), 0),
              mb(rf.new_bytes), Table::fmt(rf.dedup_retained, 3)});
  ta.add_row({"cdc", Table::fmt(static_cast<double>(rc.total_chunks), 0),
              Table::fmt(static_cast<double>(rc.new_chunks), 0),
              mb(rc.new_bytes), Table::fmt(rc.dedup_retained, 3)});
  ta.print("Dedup retained after a " + std::to_string(insert_bytes) +
           "-byte insertion at offset " + std::to_string(insert_at));

  // --- Part B: cluster round, node vs cluster dedup scope -------------------
  const auto node_round =
      run_cluster_round(procs, lib_bytes, priv_bytes, core::DedupScope::kNode);
  const auto cluster_round = run_cluster_round(procs, lib_bytes, priv_bytes,
                                               core::DedupScope::kCluster);
  const double stored_ratio =
      node_round.total_compressed == 0
          ? 1.0
          : static_cast<double>(cluster_round.total_compressed) /
                static_cast<double>(node_round.total_compressed);
  // Shared chunks stored exactly once <=> the cluster round saved the
  // (N-1) redundant library copies the node-scope round wrote.
  const u64 saved = node_round.total_compressed > cluster_round.total_compressed
                        ? node_round.total_compressed -
                              cluster_round.total_compressed
                        : 0;
  const u64 redundant_lib =
      static_cast<u64>(procs - 1) * lib_bytes;
  const bool shared_stored_once = saved >= redundant_lib * 9 / 10;

  Table tb({"scope", "stored_MB", "dup_MB", "shared_chunks"});
  tb.add_row({"node", mb(node_round.total_compressed),
              mb(node_round.store_dup_bytes),
              Table::fmt(static_cast<double>(node_round.store_shared_chunks),
                         0)});
  tb.add_row({"cluster", mb(cluster_round.total_compressed),
              mb(cluster_round.store_dup_bytes),
              Table::fmt(
                  static_cast<double>(cluster_round.store_shared_chunks), 0)});
  tb.print("Cluster round, " + std::to_string(procs) +
           " processes sharing a " + mb(lib_bytes) + " MB library");

  // --- Part C: rewrite, the memo over a live segment ------------------------
  const RewriteResult rw = run_rewrite();
  Table tc({"generations", "scanned_MB", "rescanned_MB", "rescan_fraction",
            "manifests_identical"});
  tc.add_row({std::to_string(kRewriteGens - 1), mb(rw.scan_real_bytes),
              mb(rw.rescanned_bytes), Table::fmt(rw.rescan_fraction(), 3),
              rw.manifests_identical ? "yes" : "NO"});
  tc.print("Host rescan of a " + mb(kRewriteHeapBytes) +
           " MB heap, 16 KiB rewritten in 25% of its 64 KiB pages per "
           "generation");

  // --- JSON -----------------------------------------------------------------
  std::ofstream json("BENCH_cdc.json");
  json << "{\n  \"config\": {\"image_bytes\": " << img_bytes
       << ", \"insert_at\": " << insert_at
       << ", \"insert_bytes\": " << insert_bytes
       << ", \"avg_chunk_bytes\": " << avg << ", \"procs\": " << procs
       << ", \"lib_bytes\": " << lib_bytes
       << ", \"priv_bytes\": " << priv_bytes << "},\n";
  auto emit_insertion = [&](const char* name, const InsertionResult& r,
                            bool last) {
    json << "    \"" << name << "\": {\"total_chunks\": " << r.total_chunks
         << ", \"new_chunks\": " << r.new_chunks
         << ", \"new_bytes\": " << r.new_bytes
         << ", \"dedup_retained\": " << r.dedup_retained << "}"
         << (last ? "\n" : ",\n");
  };
  json << "  \"insertion\": {\n";
  emit_insertion("fixed", rf, false);
  emit_insertion("cdc", rc, true);
  json << "  },\n  \"cluster\": {\"procs\": " << procs
       << ", \"lib_bytes\": " << lib_bytes
       << ", \"node_scope_stored_bytes\": " << node_round.total_compressed
       << ", \"cluster_scope_stored_bytes\": "
       << cluster_round.total_compressed
       << ", \"cluster_dup_bytes\": " << cluster_round.store_dup_bytes
       << ", \"cluster_shared_chunks\": "
       << cluster_round.store_shared_chunks
       << ", \"stored_ratio\": " << stored_ratio
       << ", \"shared_stored_once\": "
       << (shared_stored_once ? "true" : "false")
       << "},\n  \"rewrite\": {\"heap_bytes\": " << kRewriteHeapBytes
       << ", \"generations\": " << kRewriteGens
       << ", \"page_bytes\": " << kRewritePageBytes
       << ", \"write_bytes\": " << kRewriteWriteBytes
       << ", \"dirty_pages_pct\": " << kRewriteDirtyPct
       << ", \"scan_real_bytes\": " << rw.scan_real_bytes
       << ", \"rescanned_bytes\": " << rw.rescanned_bytes
       << ", \"rescan_fraction\": " << rw.rescan_fraction()
       << ", \"manifests_identical\": "
       << (rw.manifests_identical ? "true" : "false")
       << "},\n  \"summary\": {\"fixed_dedup_retained\": "
       << rf.dedup_retained
       << ", \"cdc_dedup_retained\": " << rc.dedup_retained
       << ", \"cluster_stored_ratio\": " << stored_ratio
       << ", \"shared_stored_once\": "
       << (shared_stored_once ? "true" : "false") << "}\n}\n";

  std::printf("wrote BENCH_cdc.json\n");
  return 0;
}
