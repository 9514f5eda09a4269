#include "core/launch.h"

#include <cstdio>
#include <fstream>
#include <set>

#include "ckptasync/pipeline.h"
#include "ckptstore/manifest.h"
#include "ckptstore/tenant.h"
#include "cluster/membership.h"
#include "core/coordinator.h"
#include "core/hijack.h"
#include "core/restart.h"
#include "obs/json.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "sim/model_params.h"
#include "util/assertx.h"
#include "util/logging.h"

namespace dsim::core {

namespace {

/// Log-clock bridge: set_log_clock takes a plain function pointer, so the
/// loop reference lives in a file-static. Every computation on one process
/// shares one virtual clock anyway (kernels are not mixed across tests
/// within a single log line's lifetime).
sim::EventLoop* g_log_loop = nullptr;
SimTime log_now() { return g_log_loop != nullptr ? g_log_loop->now() : 0; }

LogLevel parse_log_level(const std::string& s, LogLevel fallback) {
  if (s == "trace") return LogLevel::kTrace;
  if (s == "debug") return LogLevel::kDebug;
  if (s == "info") return LogLevel::kInfo;
  if (s == "warn") return LogLevel::kWarn;
  if (s == "error") return LogLevel::kError;
  if (s == "off") return LogLevel::kOff;
  return fallback;
}

/// Rules installed when --health-out is set without an explicit --slo:
/// the two invariants every healthy deployment shares regardless of
/// workload — no request still parked at a round boundary, and a heal
/// backlog (degraded chunks after a node death) that drains within two
/// rounds of appearing.
constexpr const char* kDefaultSloRules =
    "parked: parked_requests == 0; "
    "heal_backlog: drain(degraded_chunks, 2)";

/// Arm observability (both constructors): a tracer on the kernel's event
/// loop when any export flag asks for one (the health engine's critical
/// path walks its spans) and no host computation lent one, then the health
/// engine when --health-out or --slo asks for it. opts.slo was validated
/// at option-parse time, so add_rules cannot fail here.
void arm_observability(sim::Kernel& k, DmtcpShared* shared) {
  const DmtcpOptions& opts = shared->opts;
  if (!shared->tracer &&
      (!opts.trace_out.empty() || !opts.metrics_out.empty() ||
       opts.health_enabled())) {
    shared->tracer = std::make_shared<obs::Tracer>();
    k.loop().set_tracer(shared->tracer.get());
  }
  if (!opts.health_enabled()) return;
  shared->health_series = std::make_shared<obs::RoundSeries>();
  shared->slo_engine = std::make_shared<obs::SloEngine>();
  const std::string err = shared->slo_engine->add_rules(
      opts.slo.empty() ? kDefaultSloRules : opts.slo);
  DSIM_CHECK_MSG(err.empty(), err.c_str());
}

}  // namespace

DmtcpControl::DmtcpControl(sim::Kernel& kernel, DmtcpOptions opts)
    : k_(kernel),
      shared_(std::make_shared<DmtcpShared>()),
      registry_(std::make_shared<SharedRegistry>()) {
  const std::string err = opts.validate();
  DSIM_CHECK_MSG(err.empty(), ("dmtcp_checkpoint: " + err).c_str());
  const std::string cluster_err = opts.validate_cluster(k_.num_nodes());
  DSIM_CHECK_MSG(cluster_err.empty(),
                 ("dmtcp_checkpoint: " + cluster_err).c_str());
  shared_->opts = opts;
  arm_observability(k_, shared_.get());
  if (opts.incremental && shared_->cluster_wide_store()) {
    // The cluster-wide store is a *service* reached over the RPC fabric,
    // not a free index: it owns the shared repository (repos[kSharedRepo]
    // aliases it so stats aggregation and migration are unchanged), the
    // fragment placement map, and one FIFO queue per shard. Its shards
    // spread from --store-node, or from the coordinator's node when that is
    // unset, as dmtcp's helper daemons run alongside the coordinator. Every
    // chunk is erasure-coded: --chunk-replicas R is the (1, R-1) code,
    // whose fragments are copies.
    ckptstore::ChunkStoreService::ErasureConfig profile{
        1, opts.chunk_replicas - 1, opts.cold_erasure_k, opts.cold_erasure_m,
        opts.hot_generations};
    if (opts.erasure_k > 0) {
      profile.k = opts.erasure_k;
      profile.m = opts.erasure_m;
    }
    shared_->store_service = std::make_shared<ckptstore::ChunkStoreService>(
        k_.loop(), k_.net(), profile, opts.store_shards, opts.lookup_batch,
        opts.store_node >= 0 ? static_cast<NodeId>(opts.store_node)
                             : opts.coord_node);
    // The heal daemon lands rebuilt fragments (and verification reads) on
    // node devices; the service names the nodes, the kernel does the
    // charging.
    sim::Kernel* kp = &k_;
    const std::string charge_path = opts.ckpt_dir + "/chunkstore";
    shared_->store_service->set_device_charger(
        [kp, charge_path](NodeId node, u64 bytes, bool is_read,
                          std::function<void()> done) {
          kp->charge_storage_bg(node, charge_path, bytes, is_read,
                                std::move(done));
        });
    // The scrubber's quarantine pairs every reclaim with a device trim on
    // the rotten copies' homes, exactly as GC does.
    shared_->store_service->set_device_trimmer(
        [kp, charge_path](NodeId node, u64 bytes) {
          kp->discard_storage(node, charge_path, bytes);
        });
    // Erasure decode/re-encode (fragment rebuilds, scrub repairs, cold
    // demotions) is real CPU on the node doing the arithmetic, contending
    // with the application through the fluid share.
    shared_->store_service->set_cpu_charger(
        [kp](NodeId node, double seconds, std::function<void()> done) {
          kp->node(node).cpu().submit(seconds, std::move(done));
        });
    shared_->repos[DmtcpShared::kSharedRepo] =
        shared_->store_service->repo_ptr();
    // Cluster membership (src/cluster/): the coordinator's node heartbeats
    // every other node over the RPC fabric, and the service watches it. A
    // kill (fail_node) lands as ground truth at once; the reaction — heal
    // kick plus shard re-home with in-flight replay — arrives only after
    // the detection latency a real deployment would pay.
    cluster::MembershipConfig mcfg;
    mcfg.heartbeat_interval =
        static_cast<SimTime>(opts.heartbeat_interval_ms) *
        timeconst::kMillisecond;
    mcfg.heartbeat_misses = opts.heartbeat_misses;
    mcfg.monitor_node = opts.coord_node;
    shared_->membership = std::make_shared<cluster::Membership>(
        k_.loop(), k_.net(), shared_->store_service->health(), mcfg);
    shared_->store_service->watch(*shared_->membership);
    shared_->membership->start();
  }
  finish_init();
}

DmtcpControl::DmtcpControl(DmtcpControl& host, DmtcpOptions opts)
    : k_(host.k_),
      shared_(std::make_shared<DmtcpShared>()),
      registry_(host.registry_) {
  const std::string err = opts.validate();
  DSIM_CHECK_MSG(err.empty(), ("dmtcp_checkpoint: " + err).c_str());
  const std::string cluster_err = opts.validate_cluster(k_.num_nodes());
  DSIM_CHECK_MSG(cluster_err.empty(),
                 ("dmtcp_checkpoint: " + cluster_err).c_str());
  DSIM_CHECK_MSG(host.shared_->store_service != nullptr,
                 "tenant attach: the host computation has no chunk-store "
                 "service (--incremental --dedup-scope cluster)");
  DSIM_CHECK_MSG(opts.incremental && opts.cluster_wide_store(),
                 "tenant attach: the attaching computation must be "
                 "--incremental with --dedup-scope cluster");
  DSIM_CHECK_MSG(registry_->count(opts.coord_port) == 0,
                 "tenant attach: coord_port already used by another "
                 "computation on this kernel");
  shared_->opts = opts;
  // Tenants share the host's tracer (one loop, one tracer): an attached
  // computation's requests land on the same trace timeline. A tenant's
  // health engine is its own (rules and series scoped to this
  // computation's rounds) even though the tracer and service are shared.
  shared_->tracer = host.shared_->tracer;
  arm_observability(k_, shared_.get());
  shared_->owns_store = false;
  shared_->store_service = host.shared_->store_service;
  shared_->membership = host.shared_->membership;
  shared_->repos[DmtcpShared::kSharedRepo] =
      shared_->store_service->repo_ptr();
  finish_init();
}

void DmtcpControl::finish_init() {
  const DmtcpOptions& opts = shared_->opts;
  // Stamp log lines with the virtual clock and apply --log-level. Both are
  // process-global (one kernel per test/bench process), so re-applying per
  // computation is idempotent.
  g_log_loop = &k_.loop();
  set_log_clock(&log_now);
  if (!opts.log_level.empty()) {
    set_log_level(parse_log_level(opts.log_level, log_level()));
  }
  if (opts.ckpt_async) {
    // Async COW checkpoint pipeline: background encode/store jobs charge
    // their CPU stages on the snapshot node through the fluid share, so the
    // app slowdown during a drain is emergent, not scripted.
    sim::Kernel* kp = &k_;
    shared_->async_pipeline = std::make_shared<ckptasync::CkptAsyncPipeline>(
        [kp](NodeId node, double seconds, std::function<void()> done) {
          kp->node(node).cpu().submit(seconds, std::move(done));
        },
        k_.loop(),
        opts.compress_bw > 0 ? opts.compress_bw : sim::params::kCompressBw);
  }
  if (auto* svc = shared_->store_service.get()) {
    // Register this computation's tenant policy with the (possibly shared)
    // service: DRR weight, admission budget and cold-demotion age all key
    // on the tenant id the managers stamp into their requests. The fair-
    // queueing switch is service topology, so only the owner sets it.
    ckptstore::TenantConfig tc;
    tc.weight = opts.tenant_weight;
    tc.inflight_budget_bytes = opts.tenant_budget_bytes;
    tc.hot_generations = opts.hot_generations;
    svc->tenants().configure(opts.tenant_id, tc);
    if (shared_->owns_store) svc->set_fair_queueing(opts.fair_queueing);
  }
  (*registry_)[opts.coord_port] = shared_;
  auto reg = registry_;
  SharedResolver resolve =
      [reg](sim::Process& p) -> std::shared_ptr<DmtcpShared> {
    if (reg->size() == 1) return reg->begin()->second;
    const std::string port = p.env_or("DMTCP_COORD_PORT", "");
    const auto it =
        port.empty() ? reg->end()
                     : reg->find(static_cast<u16>(std::stoi(port)));
    DSIM_CHECK_MSG(it != reg->end(),
                   "dmtcp process carries no DMTCP_COORD_PORT matching a "
                   "computation on this kernel");
    return it->second;
  };
  // ProgramRegistry::add overwrites by name and every control registers the
  // same registry-backed factories, so re-registration is idempotent.
  k_.programs().add(make_coordinator_program(resolve));
  k_.programs().add(make_command_program(resolve));
  k_.programs().add(make_restart_program(resolve));
  k_.set_attach_factory([resolve](sim::Process& p) {
    return std::make_shared<Hijack>(p, resolve(p));
  });
  coord_pid_ = k_.spawn_process(opts.coord_node, "dmtcp_coordinator", {},
                                {{"DMTCP_COORD_PORT",
                                  std::to_string(opts.coord_port)}});
}

DmtcpControl::~DmtcpControl() { flush_observability(); }

obs::MetricsRegistry collect_metrics(const DmtcpShared& shared) {
  obs::MetricsRegistry reg;
  if (const auto* svc = shared.store_service.get()) {
    const ckptstore::ServiceStats& ss = svc->stats();
    reg.counter("store.lookup_requests", ss.lookup_requests);
    reg.counter("store.lookup_batches", ss.lookup_batches);
    reg.counter("store.store_requests", ss.store_requests);
    reg.counter("store.fetch_requests", ss.fetch_requests);
    reg.counter("store.drop_requests", ss.drop_requests);
    reg.counter("store.store_bytes", ss.store_bytes);
    reg.counter("store.admission_held_requests", ss.admission_held_requests);
    reg.counter("store.parked_requests", ss.parked_requests);
    reg.counter("store.replayed_requests", ss.replayed_requests);
    reg.counter("store.rehomed_shards", ss.rehomed_shards);
    reg.counter("store.rehomed_back_shards", ss.rehomed_back_shards);
    reg.counter("store.rebalance_moved_keys", ss.rebalance_moved_keys);
    reg.counter("store.rebalance_moved_bytes", ss.rebalance_moved_bytes);
    reg.counter("store.scrubbed_chunks", ss.scrubbed_chunks);
    reg.counter("store.scrub_corrupt_chunks", ss.scrub_corrupt_chunks);
    reg.counter("store.scrub_missing_chunks", ss.scrub_missing_chunks);
    reg.counter("store.scrub_quarantined_chunks",
                ss.scrub_quarantined_chunks);
    reg.counter("store.scrub_repaired_fragments",
                ss.scrub_repaired_fragments);
    reg.counter("store.rereplicated_chunks", ss.rereplicated_chunks);
    reg.counter("store.rebuilt_fragments", ss.rebuilt_fragments);
    reg.counter("store.demoted_chunks", ss.demoted_chunks);
    reg.counter("store.demoted_bytes", ss.demoted_bytes);
    reg.counter("ckpt.claimed_resident", shared.stats.claimed_resident);
    reg.histogram("store.lookup_wait", ss.lookup_wait);
    reg.histogram("store.admission_wait", ss.admission_wait);
    // Health levels (gauges survive delta_since as current values): the
    // backlog signals the SLO drain rules watch at round boundaries.
    reg.gauge("store.degraded_chunks",
              static_cast<double>(svc->placement().degraded_count()));
    reg.gauge("store.parked_now", static_cast<double>(svc->parked_now()));
    reg.gauge("store.quarantined_chunks",
              static_cast<double>(svc->repo_ptr()->quarantined_count()));
    for (const auto& [tenant, ts] : svc->tenants().all_stats()) {
      const std::string p = "tenant." + std::to_string(tenant) + ".";
      reg.counter(p + "lookups", ts.lookups);
      reg.counter(p + "stores", ts.stores);
      reg.counter(p + "fetches", ts.fetches);
      reg.counter(p + "admission_held", ts.admission_held);
      reg.histogram(p + "wait", ts.wait);
      reg.histogram(p + "admission_wait", ts.admission_wait);
    }
    const rpc::RpcStats& rs = svc->fabric().stats();
    reg.counter("rpc.calls", rs.calls);
    reg.counter("rpc.net_bytes", rs.net_bytes);
    reg.counter("rpc.failed_calls", rs.failed_calls);
    reg.sum("rpc.net_wait_seconds", rs.net_wait_seconds);
    reg.sum("rpc.endpoint_cpu_seconds", rs.endpoint_cpu_seconds);
  }
  if (const auto* pipe = shared.async_pipeline.get()) {
    const ckptasync::PipelineStats& ps = pipe->stats();
    reg.counter("async.queued_bytes", ps.queued_bytes);
    reg.counter("async.cow_pages_copied", ps.cow_pages_copied);
    reg.sum("async.cow_copy_seconds", ps.cow_copy_seconds);
    reg.sum("async.blocked_seconds", ps.blocked_seconds);
    // A round's sum is the drain latency of the jobs that *completed* in
    // its window (a round's own jobs usually finish after its refill).
    reg.sum("async.drain_seconds", ps.drain_seconds);
  }
  if (const auto* tr = shared.tracer.get()) {
    reg.counter("trace.spans", static_cast<u64>(tr->spans().size()));
    reg.gauge("trace.open_spans", static_cast<double>(tr->open_spans()));
    reg.counter("trace.tiling_violations", tr->tiling_violations());
    for (const auto& [name, hist] : tr->stage_histograms()) {
      reg.histogram("stage." + name, hist);
    }
  }
  return reg;
}

std::string DmtcpControl::health_json() const {
  // Critical paths are recomputed here from the tracer's *final* span
  // set — spans that were still open at a round's close (async drains,
  // heals crossing the boundary) have closed by teardown, so this
  // document and the exported Chrome trace describe the identical span
  // population. That is what lets trace_report.py --critical-path re-run
  // the sweep over the trace and demand <=1% agreement. The per-round
  // CkptRound::critical_path (computed live at the round boundary) keeps
  // the round-close view for tests and benches; both partition the same
  // window exactly.
  const obs::Tracer* tr = shared_->tracer.get();
  // The exact phase marks the sweep used, so the Python cross-check can
  // attribute uncovered gaps identically (the restart split point is not
  // reconstructible from the stamps alone).
  const auto phases_json = [](const std::vector<obs::PhaseMark>& phases) {
    std::string out = "[";
    for (size_t i = 0; i < phases.size(); ++i) {
      if (i != 0) out += ",";
      out += "{\"name\":\"" + phases[i].name + "\"";
      out += ",\"begin_us\":" + obs::fmt_us(phases[i].begin);
      out += ",\"end_us\":" + obs::fmt_us(phases[i].end) + "}";
    }
    return out + "]";
  };
  std::string out = "{\n\"series\": ";
  out += shared_->health_series ? shared_->health_series->json() : "{}";
  out += ",\n\"critical_path\": {\"rounds\":[";
  bool first = true;
  for (size_t i = 0; i < shared_->stats.rounds.size(); ++i) {
    const CkptRound& r = shared_->stats.rounds[i];
    if (r.refilled == 0 || tr == nullptr) continue;
    const obs::CritPathReport rep =
        obs::critical_path(*tr, r.requested, r.refilled, round_phases(r));
    if (!first) out += ",";
    first = false;
    out += "{\"round\":" + std::to_string(i);
    out += ",\"ts_us\":{\"requested\":" + obs::fmt_us(r.requested);
    out += ",\"suspended\":" + obs::fmt_us(r.suspended);
    out += ",\"elected\":" + obs::fmt_us(r.elected);
    out += ",\"drained\":" + obs::fmt_us(r.drained);
    out += ",\"checkpointed\":" + obs::fmt_us(r.checkpointed);
    out += ",\"refilled\":" + obs::fmt_us(r.refilled);
    out += "},\"phases\":" + phases_json(round_phases(r));
    out += ",\"report\":" + rep.json() + "}";
  }
  out += "],\"restarts\":[";
  first = true;
  for (size_t i = 0; i < shared_->stats.restarts.size(); ++i) {
    const RestartRun& rr = shared_->stats.restarts[i];
    if (rr.refilled <= rr.script_started || tr == nullptr) continue;
    const obs::CritPathReport rep = obs::critical_path(
        *tr, rr.script_started, rr.refilled, restart_phases(rr));
    if (!first) out += ",";
    first = false;
    out += "{\"restart\":" + std::to_string(i);
    out += ",\"ts_us\":{\"script_started\":" + obs::fmt_us(rr.script_started);
    out += ",\"refilled\":" + obs::fmt_us(rr.refilled);
    out += "},\"phases\":" + phases_json(restart_phases(rr));
    out += ",\"report\":" + rep.json() + "}";
  }
  out += "]},\n\"slo\": ";
  out += shared_->slo_engine ? shared_->slo_engine->json() : "{}";
  out += "\n}\n";
  return out;
}

void DmtcpControl::flush_observability() {
  const DmtcpOptions& opts = shared_->opts;
  obs::Tracer* tr = shared_->tracer.get();
  if (tr == nullptr) return;
  if (!opts.trace_out.empty()) {
    if (!tr->write_chrome_json(opts.trace_out)) {
      LOG_WARN("trace export to %s failed", opts.trace_out.c_str());
    }
  }
  if (!opts.metrics_out.empty()) {
    if (!collect_metrics(*shared_).write(opts.metrics_out)) {
      LOG_WARN("metrics export to %s failed", opts.metrics_out.c_str());
    }
  }
  if (!opts.health_out.empty()) {
    std::ofstream f(opts.health_out);
    if (f) f << health_json();
    if (!f.good()) {
      LOG_WARN("health export to %s failed", opts.health_out.c_str());
    }
  }
}

Pid DmtcpControl::launch(NodeId node, const std::string& prog,
                         std::vector<std::string> argv,
                         std::map<std::string, std::string> extra_env) {
  std::map<std::string, std::string> env = std::move(extra_env);
  env["DMTCP_ENABLED"] = "1";
  env["DMTCP_COORD_NODE"] = std::to_string(shared_->opts.coord_node);
  env["DMTCP_COORD_PORT"] = std::to_string(shared_->opts.coord_port);
  return k_.spawn_process(node, prog, std::move(argv), std::move(env));
}

bool DmtcpControl::run_until(const std::function<bool()>& pred,
                             SimTime deadline) {
  while (!pred()) {
    if (k_.loop().now() >= deadline) return pred();
    const SimTime step =
        std::min<SimTime>(deadline, k_.loop().now() + timeconst::kMillisecond);
    const bool more = k_.loop().run_until(step);
    if (!more && !pred() && k_.loop().now() >= deadline) return false;
    if (!more && k_.loop().pending() == 0 && !pred()) {
      // No events left: the predicate can never become true.
      return pred();
    }
  }
  return true;
}

void DmtcpControl::run_for(SimTime dt) {
  k_.loop().run_until(k_.loop().now() + dt);
}

void DmtcpControl::request_checkpoint() {
  k_.spawn_process(shared_->opts.coord_node, "dmtcp_command", {"checkpoint"},
                   {{"DMTCP_COORD_NODE",
                     std::to_string(shared_->opts.coord_node)},
                    {"DMTCP_COORD_PORT",
                     std::to_string(shared_->opts.coord_port)}});
}

const CkptRound& DmtcpControl::checkpoint_now(SimTime deadline_extra) {
  const size_t round = shared_->stats.rounds.size();
  request_checkpoint();
  const SimTime deadline =
      k_.loop().now() + 600 * timeconst::kSecond + deadline_extra;
  const bool done = run_until(
      [&] {
        return shared_->stats.rounds.size() > round &&
               shared_->stats.rounds[round].refilled != 0;
      },
      deadline);
  DSIM_CHECK_MSG(done, "checkpoint round did not complete");
  return shared_->stats.rounds[round];
}

void DmtcpControl::set_store_shards(int new_shards) {
  auto* svc = shared_->store_service.get();
  DSIM_CHECK_MSG(svc != nullptr,
                 "set_store_shards needs the cluster-wide chunk-store "
                 "service (--dedup-scope cluster)");
  DSIM_CHECK_MSG(!shared_->ckpt_active,
                 "set_store_shards mid-round: rebalance runs between "
                 "rounds");
  if (new_shards == svc->num_shards()) return;
  bool moved = false;
  svc->rebalance(new_shards, [&moved] { moved = true; });
  const bool done =
      run_until([&moved] { return moved; },
                k_.loop().now() + 600 * timeconst::kSecond);
  DSIM_CHECK_MSG(done, "shard rebalance did not complete");
  shared_->opts.store_shards = new_shards;
}

void DmtcpControl::kill_computation() {
  const std::string port = std::to_string(shared_->opts.coord_port);
  for (Pid pid : k_.live_pids()) {
    sim::Process* p = k_.find_process(pid);
    if (p == nullptr || p->env_or("DMTCP_ENABLED", "") != "1") continue;
    // With several computations sharing the kernel, the kill is scoped to
    // this computation: launch() tags every process with its coordinator
    // port and children inherit the environment.
    if (registry_->size() > 1 && p->env_or("DMTCP_COORD_PORT", "") != port) {
      continue;
    }
    k_.kill_process(pid);
  }
  // Let EOFs and handler teardown propagate.
  run_for(10 * timeconst::kMillisecond);
}

RestartPlan DmtcpControl::read_restart_plan() const {
  const std::string path =
      shared_->opts.ckpt_dir + "/dmtcp_restart_script.sh";
  auto inode = k_.fs_for(shared_->opts.coord_node, path).lookup(path);
  DSIM_CHECK_MSG(inode != nullptr, "no restart script generated yet");
  auto bytes = inode->data.materialize(0, inode->data.size());
  return parse_restart_script(
      std::string(reinterpret_cast<const char*>(bytes.data()), bytes.size()));
}

const RestartRun& DmtcpControl::restart(std::map<NodeId, NodeId> host_map) {
  RestartPlan plan = read_restart_plan();

  // Pre-flight under the chunk-store service: every chunk the plan's
  // manifests reference must have a surviving replica. With
  // --chunk-replicas=1 a node failure makes its chunks unrecoverable —
  // report the forced re-store instead of restarting into missing data;
  // with R > 1 the surviving replicas carry the restart. Scrub-quarantined
  // chunks (rotten containers awaiting forward re-store) count as
  // unavailable the same way: restarting into a chunk the scrubber
  // condemned would fail its CRC check anyway.
  if (const auto* svc = shared_->store_service.get();
      svc != nullptr && (svc->health()->any_down() ||
                         svc->repo_ptr()->quarantined_count() > 0)) {
    // Every node alive (and no quarantine) means nothing can be lost — the
    // O(chunk-refs) manifest walk below only runs after an actual failure.
    // One set across every manifest: a shared chunk referenced by all ranks
    // counts as one lost chunk, not once per referencing image.
    std::set<ckptstore::ChunkKey> seen;
    u64 lost = 0;
    for (const auto& host : plan.hosts) {
      for (const auto& img : host.images) {
        auto inode = k_.fs_for(host.host, img).lookup(img);
        if (!inode) continue;
        auto bytes = inode->data.materialize(0, inode->data.size());
        if (!ckptstore::Manifest::is_manifest(bytes)) continue;
        for (const auto& key :
             ckptstore::Manifest::decode(bytes).all_keys()) {
          if (seen.insert(key).second && !svc->placement().available(key)) {
            ++lost;
          }
        }
      }
    }
    if (lost > 0) {
      LOG_INFO(
          "restart pre-flight: %llu chunks have no surviving replica; "
          "full re-store required",
          static_cast<unsigned long long>(lost));
      RestartRun failed;
      failed.script_started = k_.loop().now();
      failed.refilled = k_.loop().now();
      failed.needs_restore = true;
      failed.lost_chunks = lost;
      shared_->stats.restarts.push_back(failed);
      return shared_->stats.restarts.back();
    }
  }

  RestartRun run;
  run.script_started = k_.loop().now();
  shared_->stats.restarts.push_back(run);
  const size_t idx = shared_->stats.restarts.size() - 1;

  // One dmtcp_restart per target node, carrying the images of every host
  // line host_map sends there, so the chunks they share are fetched and
  // decoded once per node. The plan lists hosts in node order, so without
  // a host map the spawns follow it.
  std::map<NodeId, std::vector<std::string>> targets;
  for (const auto& host : plan.hosts) {
    NodeId target = host.host;
    if (auto it = host_map.find(host.host); it != host_map.end()) {
      target = it->second;
    }
    // Migration with node-local images: stage the image files onto the
    // target node (the paper's cluster-to-laptop use case stages images
    // out-of-band; the SAN/NFS configuration shares them naturally).
    if (target != host.host && !shared_->shared_ckpt_dir()) {
      for (const auto& img : host.images) {
        auto src = k_.node(host.host).fs().lookup(img);
        DSIM_CHECK(src != nullptr);
        auto dst = k_.node(target).fs().create(img);
        *dst = *src;
      }
      // Incremental images are manifests: stage the source node's chunk
      // repository alongside them, as the images themselves are staged.
      // The migrated processes' generations then leave the source store —
      // otherwise the cluster-wide live-bytes aggregation keeps counting
      // the stranded copies forever (chunks other owners still reference
      // survive the drop, refcounted as usual).
      if (shared_->opts.incremental) {
        if (auto it = shared_->repos.find(host.host);
            it != shared_->repos.end()) {
          shared_->repo_for(target).absorb(*it->second);
          u64 reclaimed = 0;
          for (const auto& img : host.images) {
            auto inode = k_.node(host.host).fs().lookup(img);
            auto bytes = inode->data.materialize(0, inode->data.size());
            if (ckptstore::Manifest::is_manifest(bytes)) {
              reclaimed += it->second->drop_owner(
                  ckptstore::Manifest::decode(bytes).owner);
            }
          }
          // Trim the reclaimed chunk bytes from the source device, as the
          // GC path does — reclaim and trim stay paired everywhere.
          if (reclaimed > 0) {
            k_.discard_storage(host.host, host.images.front(), reclaimed);
          }
        }
      }
    }
    auto& images = targets[target];
    images.insert(images.end(), host.images.begin(), host.images.end());
  }
  for (const auto& [target, images] : targets) {
    std::vector<std::string> argv{
        "--coord-node", std::to_string(plan.coord_node),
        "--coord-port", std::to_string(plan.coord_port),
        "--expected",   std::to_string(plan.total_procs),
        "--hosts",      std::to_string(targets.size())};
    argv.insert(argv.end(), images.begin(), images.end());
    // The port tag lets the restart process (and the user processes it
    // forks, which inherit its environment) resolve to this computation
    // when several share the kernel.
    k_.spawn_process(target, "dmtcp_restart", std::move(argv),
                     {{"DMTCP_COORD_NODE", std::to_string(plan.coord_node)},
                      {"DMTCP_COORD_PORT", std::to_string(plan.coord_port)}});
  }

  const bool done = run_until(
      [&] { return shared_->stats.restarts[idx].refilled != 0; },
      k_.loop().now() + 600 * timeconst::kSecond);
  DSIM_CHECK_MSG(done, "restart did not complete");
  return shared_->stats.restarts[idx];
}

}  // namespace dsim::core
