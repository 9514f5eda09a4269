// Incremental vs full checkpointing over successive generations.
//
// Two identical single-node worlds run the same long-lived application with
// the same pseudo-random ballast; between generations the same fraction of
// the ballast is dirtied in both. The full world writes the whole gzip'd
// image every round (the paper's §5 path); the incremental world writes
// only the chunks the content-addressed store does not already hold.
// Emits BENCH_incremental.json with per-generation seconds, stored bytes
// and the store's dedup ratio.
//
// Knobs: DSIM_GENS (10), DSIM_DIRTY_PCT (10), DSIM_BALLAST_MB (32),
// DSIM_CHUNK_KB (64).
#include <fstream>

#include "bench/bench_util.h"

using namespace dsim;
using namespace dsim::bench;

int main() {
  const int gens = env_int("DSIM_GENS", 10);
  const int dirty_pct = env_int("DSIM_DIRTY_PCT", 10);
  const u64 ballast =
      static_cast<u64>(env_int("DSIM_BALLAST_MB", 32)) * 1024 * 1024;
  const u64 chunk = static_cast<u64>(env_int("DSIM_CHUNK_KB", 64)) * 1024;

  core::DmtcpOptions full_opts;  // paper default: gzip'd full image
  core::DmtcpOptions incr_opts;
  incr_opts.incremental = true;
  incr_opts.chunk_bytes = chunk;
  incr_opts.keep_generations = 2;

  World wf(1, full_opts, 0xbe7c);
  World wi(1, incr_opts, 0xbe7c);
  const std::string prof = apps::desktop_profiles().front().name;
  const Pid pf = wf.ctl->launch(0, "desktop_app", {prof, "0", "full"});
  const Pid pi = wi.ctl->launch(0, "desktop_app", {prof, "0", "incr"});
  wf.ctl->run_for(50 * timeconst::kMillisecond);
  wi.ctl->run_for(50 * timeconst::kMillisecond);

  auto add_ballast = [&](World& w, Pid pid) -> sim::MemSegment* {
    sim::Process* p = w.k().find_process(pid);
    auto& seg = p->mem().add("ballast", sim::MemKind::kHeap, ballast);
    seg.data.fill(0, ballast, sim::ExtentKind::kRand, 0xB0);
    return &seg;
  };
  sim::MemSegment* sf = add_ballast(wf, pf);
  sim::MemSegment* si = add_ballast(wi, pi);
  const u64 dirty_bytes = ballast * static_cast<u64>(dirty_pct) / 100;

  Table t({"gen", "full_s", "full_MB", "incr_s", "incr_MB", "new_chunks",
           "total_chunks", "dedup", "live_MB"});
  std::ofstream json("BENCH_incremental.json");
  json << "{\n  \"config\": {\"generations\": " << gens
       << ", \"dirty_pct\": " << dirty_pct
       << ", \"ballast_bytes\": " << ballast
       << ", \"chunk_bytes\": " << chunk << "},\n  \"generations\": [\n";

  double full_total_s = 0, incr_total_s = 0;
  u64 full_total_b = 0, incr_total_b = 0;
  for (int g = 0; g < gens; ++g) {
    if (g > 0) {
      // Same dirty pages in both worlds: fresh pseudo-random content over
      // the head of the ballast.
      sf->data.fill(0, dirty_bytes, sim::ExtentKind::kRand, 0xB0 + g);
      si->data.fill(0, dirty_bytes, sim::ExtentKind::kRand, 0xB0 + g);
    }
    const core::CkptRound rf = wf.ctl->checkpoint_now();
    const core::CkptRound ri = wi.ctl->checkpoint_now();
    const u64 full_b = rf.total_compressed;
    const u64 incr_b = ri.total_compressed;
    full_total_s += rf.total_seconds();
    incr_total_s += ri.total_seconds();
    full_total_b += full_b;
    incr_total_b += incr_b;

    t.add_row({Table::fmt(g, 0), Table::fmt(rf.total_seconds()), mb(full_b),
               Table::fmt(ri.total_seconds()), mb(incr_b),
               Table::fmt(static_cast<double>(ri.new_chunks), 0),
               Table::fmt(static_cast<double>(ri.total_chunks), 0),
               Table::fmt(ri.dedup_ratio, 2), mb(ri.store_live_bytes)});
    json << "    {\"gen\": " << g << ", \"full_seconds\": "
         << rf.total_seconds() << ", \"full_bytes\": " << full_b
         << ", \"incremental_seconds\": " << ri.total_seconds()
         << ", \"incremental_bytes\": " << incr_b
         << ", \"new_chunks\": " << ri.new_chunks
         << ", \"total_chunks\": " << ri.total_chunks
         << ", \"dedup_ratio\": " << ri.dedup_ratio
         << ", \"dirty_page_fraction\": " << ri.dirty_page_fraction
         << ", \"store_live_bytes\": " << ri.store_live_bytes
         << ", \"store_reclaimed_bytes\": " << ri.store_reclaimed_bytes
         << "}" << (g + 1 < gens ? "," : "") << "\n";
  }
  json << "  ],\n  \"summary\": {\"full_seconds\": " << full_total_s
       << ", \"incremental_seconds\": " << incr_total_s
       << ", \"full_bytes\": " << full_total_b
       << ", \"incremental_bytes\": " << incr_total_b
       << ", \"stored_bytes_ratio\": "
       << (full_total_b ? static_cast<double>(incr_total_b) /
                              static_cast<double>(full_total_b)
                        : 0)
       << "}\n}\n";

  t.print("Incremental vs full checkpointing (" + std::to_string(dirty_pct) +
          "% dirty per generation)");
  std::printf("wrote BENCH_incremental.json\n");
  return 0;
}
