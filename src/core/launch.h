// DmtcpControl: the experimenter's handle on a DMTCP-managed computation.
//
// Owns the shared state, registers the dmtcp_* programs with the kernel,
// installs the hijack attach hook, and spawns the coordinator (the paper's
// "the first call to dmtcp_checkpoint will automatically spawn the
// checkpoint coordinator", §3). Benches and tests drive everything through
// this class: launch under checkpoint control, request checkpoints, kill
// the computation, and restart from the generated script — optionally
// migrating hosts.
#pragma once

#include <functional>
#include <map>
#include <memory>
#include <string>

#include "core/restart_script.h"
#include "core/stats.h"
#include "sim/kernel.h"

namespace dsim::core {

class DmtcpControl {
 public:
  DmtcpControl(sim::Kernel& kernel, DmtcpOptions opts);

  /// Attach a second computation to `host`'s chunk-store service
  /// (multi-tenant serving): this computation gets its own coordinator,
  /// barrier membership, checkpoint rounds and restart plumbing, but its
  /// managers issue Store/Lookup/Fetch/Drop against the host's service,
  /// scoped to opts.tenant_id. Requires incremental + cluster store on both
  /// sides and a coord_port distinct from every computation already sharing
  /// the kernel (the port is how spawned dmtcp_* processes resolve their
  /// computation). Service topology — shards, replicas, erasure profile,
  /// fair queueing — comes from the owning computation; this tenant's
  /// --tenant-weight/--tenant-budget-mb/--hot-generations register its
  /// per-tenant policy with the shared service.
  DmtcpControl(DmtcpControl& host, DmtcpOptions opts);

  /// Flushes --trace-out / --metrics-out if armed (also runs at
  /// destruction, so a bench that just falls off the end still exports).
  ~DmtcpControl();

  /// Export the observability artifacts now: the Chrome trace_event JSON
  /// to opts.trace_out, the metrics registry (service/tenant/RPC/tracer
  /// counters, gauges and histograms) to opts.metrics_out, and the
  /// round-health document (time-series + critical paths + SLO summary)
  /// to opts.health_out. No-op when no flag is set. Idempotent — later
  /// calls overwrite with the then-current totals.
  void flush_observability();

  /// The --health-out document as a string: {"series":...,
  /// "critical_path":{"rounds":[...],"restarts":[...]},"slo":...}.
  /// Critical paths are recomputed from the tracer's current span set so
  /// the document matches the exported trace span-for-span (the Python
  /// cross-check depends on this).
  std::string health_json() const;

  /// dmtcp_checkpoint <program> — launch under checkpoint control.
  Pid launch(NodeId node, const std::string& prog,
             std::vector<std::string> argv = {},
             std::map<std::string, std::string> extra_env = {});

  /// Drive the simulation until `pred()` or until `deadline` virtual time.
  /// Returns true if the predicate was met.
  bool run_until(const std::function<bool()>& pred, SimTime deadline);
  /// Drive the simulation for `dt` of virtual time.
  void run_for(SimTime dt);

  /// dmtcp_command --checkpoint: trigger a checkpoint and wait for the
  /// round to complete. Returns the round's stats.
  const CkptRound& checkpoint_now(SimTime deadline_extra = 0);
  /// Fire-and-forget checkpoint request.
  void request_checkpoint();

  /// Kill every process running under DMTCP (cluster-wide failure). The
  /// coordinator survives — as in reality, it is outside the computation.
  void kill_computation();

  /// Change the chunk-store shard count between rounds. Runs the
  /// consistent-hash rebalance — only the keys whose rendezvous winner
  /// changed migrate, in batched metadata RPCs through the normal shard
  /// queues — and blocks until every moved key has landed. The service
  /// picks the endpoints: surviving shards stay put, and new shards land
  /// on the next nodes up in NodeHealth from the current first endpoint.
  void set_store_shards(int new_shards);

  /// Parse dmtcp_restart_script.sh and run it. `host_map` relocates
  /// original hosts to new nodes (migration / restart-on-a-laptop, §1 use
  /// case 6). Returns the restart's stats.
  const RestartRun& restart(std::map<NodeId, NodeId> host_map = {});
  /// The parsed restart plan from the last generated script.
  RestartPlan read_restart_plan() const;

  DmtcpShared& shared() { return *shared_; }
  std::shared_ptr<DmtcpShared> shared_ptr() { return shared_; }
  const DmtcpStats& stats() const { return shared_->stats; }
  sim::Kernel& kernel() { return k_; }
  Pid coordinator_pid() const { return coord_pid_; }

 private:
  /// Computations multiplexed on this kernel, keyed by coordinator port —
  /// the spawn-time environment tag dmtcp_* processes resolve through.
  using SharedRegistry = std::map<u16, std::shared_ptr<DmtcpShared>>;

  /// Common ctor tail: tenant registration, program (re-)registration with
  /// the registry-based resolver, coordinator spawn.
  void finish_init();

  sim::Kernel& k_;
  std::shared_ptr<DmtcpShared> shared_;
  std::shared_ptr<SharedRegistry> registry_;
  Pid coord_pid_ = kNoPid;
};

}  // namespace dsim::core
