// Table 1 (§5.3): time per checkpoint/restart stage for NAS/MG under
// OpenMPI on 8 nodes — uncompressed, compressed, and forked-compressed.
// Stage times are the durations between the coordinator's global barriers,
// exactly the paper's methodology.
#include "bench/bench_util.h"

using namespace dsim;
using namespace dsim::bench;

namespace {

struct Run {
  core::CkptRound round;
  core::RestartRun restart;
  double background_extra = 0;  // forked mode: writer finishing after resume
};

Run run_once(compress::CodecKind codec, bool forked, u64 seed) {
  const int nodes = 8;
  const int np = 32;
  core::DmtcpOptions opts;
  opts.codec = codec;
  opts.forked_checkpointing = forked;
  World w(nodes, opts, seed, false);
  auto m = measure(
      w,
      [&](World& ww) {
        ww.ctl->launch(0, "orte_mpirun",
                       mpi::mpirun_argv(np, nodes, "nas",
                                        {"mg", "1000000", "mg8"}));
      },
      500 * timeconst::kMillisecond, /*do_restart=*/!forked);
  if (forked) {
    // Let the copy-on-write writer child finish in the background.
    w.ctl->run_for(60 * timeconst::kSecond);
    m.round = w.ctl->stats().rounds.back();
  }
  Run r;
  r.round = m.round;
  r.restart = m.restart;
  if (forked && m.round.background_done > m.round.refilled) {
    r.background_extra = to_seconds(m.round.background_done -
                                    m.round.refilled);
  }
  return r;
}

}  // namespace

int main() {
  const Run un = run_once(compress::CodecKind::kNone, false, 0x7a1);
  const Run gz = run_once(compress::CodecKind::kGzipish, false, 0x7a2);
  const Run fk = run_once(compress::CodecKind::kGzipish, true, 0x7a3);

  Table a({"checkpoint stage", "uncompressed_s", "compressed_s",
           "fork_compressed_s", "paper_uncmp", "paper_cmp", "paper_fork"});
  auto row = [&](const char* name, double u, double g, double f,
                 const char* pu, const char* pc, const char* pf) {
    a.add_row({name, Table::fmt(u, 4), Table::fmt(g, 4), Table::fmt(f, 4),
               pu, pc, pf});
  };
  row("Suspend user threads", un.round.suspend_seconds(),
      gz.round.suspend_seconds(), fk.round.suspend_seconds(), "0.0251",
      "0.0217", "0.0250");
  row("Elect FD leaders", un.round.elect_seconds(), gz.round.elect_seconds(),
      fk.round.elect_seconds(), "0.0014", "0.0013", "0.0013");
  row("Drain kernel buffers", un.round.drain_seconds(),
      gz.round.drain_seconds(), fk.round.drain_seconds(), "0.1019", "0.1020",
      "0.1017");
  row("Write checkpoint", un.round.write_seconds(), gz.round.write_seconds(),
      fk.round.write_seconds(), "0.6333", "3.9403", "0.0618");
  row("Refill kernel buffers", un.round.refill_seconds(),
      gz.round.refill_seconds(), fk.round.refill_seconds(), "0.0006",
      "0.0008", "0.0016");
  row("Total", un.round.total_seconds(), gz.round.total_seconds(),
      fk.round.total_seconds(), "0.7630", "4.0669", "0.1922");
  a.print("Table 1a — checkpoint stages, NAS/MG under OpenMPI, 8 nodes");
  std::printf("forked mode: background writer finished %.3f s after resume\n",
              fk.background_extra);

  Table b({"restart stage", "uncompressed_s", "compressed_s", "paper_uncmp",
           "paper_cmp"});
  b.add_row({"Restore files and ptys",
             Table::fmt(un.restart.files_ptys_seconds, 4),
             Table::fmt(gz.restart.files_ptys_seconds, 4), "0.0056",
             "0.0088"});
  b.add_row({"Reconnect sockets", Table::fmt(un.restart.reconnect_seconds, 4),
             Table::fmt(gz.restart.reconnect_seconds, 4), "0.0400",
             "0.0214"});
  b.add_row({"Restore memory/threads",
             Table::fmt(un.restart.memory_threads_seconds, 4),
             Table::fmt(gz.restart.memory_threads_seconds, 4), "0.8139",
             "2.1167"});
  b.add_row({"Refill kernel buffers",
             Table::fmt(un.restart.refill_seconds, 4),
             Table::fmt(gz.restart.refill_seconds, 4), "0.0009", "0.0018"});
  b.add_row({"Total", Table::fmt(un.restart.total_seconds(), 4),
             Table::fmt(gz.restart.total_seconds(), 4), "0.8604", "2.1487"});
  b.print("Table 1b — restart stages, NAS/MG under OpenMPI, 8 nodes");
  return 0;
}
