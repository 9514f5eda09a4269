#include "core/restart.h"

#include <algorithm>
#include <functional>
#include <map>
#include <memory>
#include <set>
#include <vector>

#include "ckptstore/erasure.h"
#include "ckptstore/manifest.h"
#include "ckptstore/tenant.h"
#include "core/hijack.h"
#include "core/msg_io.h"
#include "core/protocol.h"
#include "mtcp/mtcp.h"
#include "sim/model_params.h"
#include "sim/pctx.h"
#include "sim/sync.h"
#include "util/assertx.h"
#include "util/logging.h"

namespace dsim::core {
namespace {

using sim::SegKind;
using sim::SockSegment;
using sim::TcpVNode;

struct LoadedImage {
  mtcp::ProcessImage img;
  ConnTable table;
};

/// One distinct chunk of this node's manifest images on its way back into
/// memory: read off its sources once, then decoded once, however many
/// references share it. Chunks are compressed independently, so each
/// streams on its own.
struct ChunkRead {
  ckptstore::ChunkKey key;
  u64 len = 0;    // the logical length every reference to the key shares
  u64 bytes = 0;  // the chunk's stored bytes (the fetch RPC's accounting)
  /// The devices the bytes come off: the read plan's holders under the
  /// chunk-store service, this node's own device otherwise.
  std::vector<ckptstore::ChunkPlacement::FetchSource> sources;
  /// The chunk's decode CPU, plus the erasure decode of a degraded read,
  /// plus one copy out of the decoded buffer per further reference.
  double decode_seconds = 0;
};

/// Stream one chunk into `pool`: every source is read off its device and,
/// for a remote holder, sent over its NIC (both legs in parallel); once
/// every leg has landed, the chunk's decode share queues on the pool.
void read_then_decode(sim::Kernel& k, NodeId node, const std::string& path,
                      bool remote, const ChunkRead& c,
                      std::shared_ptr<sim::CpuPool> pool,
                      std::function<void()> decoded) {
  auto legs = std::make_shared<size_t>(c.sources.size() * (remote ? 2 : 1));
  auto landed = [legs, pool, secs = c.decode_seconds,
                 decoded = std::move(decoded)] {
    if (--*legs == 0) pool->submit(secs, decoded);
  };
  for (const auto& src : c.sources) {
    // Device charges are *reads*: delta restart must never inflate the
    // write counters (the split the device accounting regression test pins).
    k.charge_storage_bg(src.node, path, src.bytes, /*is_read=*/true, landed);
    if (remote) k.net().transfer(src.node, node, src.bytes, landed);
  }
}

struct RestartArgs {
  NodeId coord_node = 0;
  u16 coord_port = 7779;
  int expected = 0;
  int hosts = 0;
  std::vector<std::string> images;
};

RestartArgs parse_args(const std::vector<std::string>& argv) {
  RestartArgs a;
  for (size_t i = 0; i < argv.size(); ++i) {
    if (argv[i] == "--coord-node") a.coord_node = std::stoi(argv[++i]);
    else if (argv[i] == "--coord-port")
      a.coord_port = static_cast<u16>(std::stoi(argv[++i]));
    else if (argv[i] == "--expected") a.expected = std::stoi(argv[++i]);
    else if (argv[i] == "--hosts") a.hosts = std::stoi(argv[++i]);
    else a.images.push_back(argv[i]);
  }
  return a;
}

TcpVNode* tcp_of(const std::shared_ptr<sim::OpenFile>& of) {
  DSIM_CHECK(of && of->vnode->kind() == sim::VKind::kTcp);
  return static_cast<TcpVNode*>(of->vnode.get());
}

/// §4.4 step 2 handshake: after reconnecting, "the two sides perform a
/// handshake and agree on the socket being restored".
Task<void> send_conn_handshake(sim::ProcessCtx& ctx, TcpVNode& s,
                               const sim::ConnId& id) {
  ByteWriter w;
  id.serialize(w);
  SockSegment seg;
  seg.kind = SegKind::kCtrl;
  seg.bytes = w.take();
  co_await ctx.kernel().sock_send_segment(ctx.thread(), s, std::move(seg));
}

Task<sim::ConnId> recv_conn_handshake(sim::ProcessCtx& ctx, TcpVNode& s) {
  auto seg = co_await ctx.kernel().sock_recv_segment(ctx.thread(), s);
  DSIM_CHECK_MSG(seg.kind == SegKind::kCtrl, "restart handshake corrupted");
  ByteReader r(seg.bytes);
  co_return sim::ConnId::deserialize(r);
}

/// Table 1b: report a restart stage's duration, `since` until now.
Task<void> note_stage(sim::ProcessCtx& ctx, TcpVNode& coord,
                      const char* stage, SimTime since) {
  Msg note;
  note.type = MsgType::kStageNote;
  note.s = stage;
  note.ua = static_cast<u64>(ctx.now() - since);
  co_await send_msg(ctx.kernel(), ctx.thread(), coord, note);
}

Task<int> restart_main(sim::ProcessCtx& ctx,
                       std::shared_ptr<DmtcpShared> shared) {
  auto& k = ctx.kernel();
  sim::Process& self = ctx.process();
  const RestartArgs args = parse_args(self.argv());
  DSIM_CHECK_MSG(!args.images.empty(), "dmtcp_restart: no images given");

  // --- Load the images. Metadata (connection tables) is needed now; the
  // bulk memory cost (read + decode) is charged in stage 3-5, where each
  // restored process pays it — in parallel across the node's cores, as the
  // real restart does after forking.
  std::vector<LoadedImage> loaded;
  // Bytes read off this node's device before anything else: manifests and
  // full images.
  u64 local_read_bytes = 0;
  // Full images: one decode job each (a gzip stream cannot be split).
  std::vector<double> image_decodes;
  // Manifest images: every distinct chunk, streamed on its own (the index
  // maps a key to its entry), and the references they restore.
  std::vector<ChunkRead> chunks;
  std::map<ckptstore::ChunkKey, size_t> chunk_index;
  u64 chunk_refs = 0;
  auto* svc = shared->store_service.get();
  for (const auto& path : args.images) {
    auto inode = k.fs_for(self.node(), path).lookup(path);
    DSIM_CHECK_MSG(inode != nullptr, "dmtcp_restart: image not found");
    auto container = inode->data.materialize(0, inode->data.size());
    LoadedImage li;
    if (ckptstore::Manifest::is_manifest(container)) {
      // Delta restart: rebuild the image from the generation manifest plus
      // the chunk repository, checking every chunk against the manifest's
      // length and CRC. Real chunks adopt the repository's verified decode
      // (decoded once per container on the host, shared by every restart);
      // the simulated cost is the manifest plus one read and one decode of
      // each distinct chunk on this node, charged below.
      const auto mf = ckptstore::Manifest::decode(container);
      // Same helper dmtcp_checkpoint validates its flags with: a manifest
      // recording impossible chunking parameters is corrupt, and failing
      // here beats feeding it to the chunk scanner's asserts.
      const std::string cfg_err = validate_chunking(mf.chunking);
      DSIM_CHECK_MSG(cfg_err.empty(),
                     ("dmtcp_restart: manifest has invalid chunking "
                      "parameters: " +
                      cfg_err)
                         .c_str());
      std::string err;
      const ckptstore::Repository& repo = shared->repo_for(self.node());
      li.img = mtcp::decode_incremental(mf, repo, nullptr, nullptr, &err);
      DSIM_CHECK_MSG(err.empty(), err.c_str());
      // Placement-aware read plan. decode_incremental succeeded, so every
      // referenced chunk is resident; the pre-flight in
      // DmtcpControl::restart guarantees a surviving holder.
      const auto codec = static_cast<compress::CodecKind>(mf.codec);
      for (const auto& sm : mf.segments) {
        for (const auto& ref : sm.chunks) {
          ++chunk_refs;
          const auto [at, fresh] =
              chunk_index.try_emplace(ref.key, chunks.size());
          if (!fresh) {
            // A repeated key (most often a zero chunk) is fetched and
            // decoded once; each further reference copies its bytes out of
            // the decoded buffer.
            ChunkRead& seen = chunks[at->second];
            DSIM_CHECK_MSG(seen.len == ref.len,
                           "dmtcp_restart: one chunk key, two lengths");
            seen.decode_seconds +=
                static_cast<double>(ref.len) / sim::params::kMemcpyBw;
            continue;
          }
          const ckptstore::Chunk* c = repo.find(ref.key);
          DSIM_CHECK(c != nullptr);
          ChunkRead cr{ref.key, ref.len, c->charged_bytes, {},
                       mtcp::decode_cpu_seconds(ref.len, codec)};
          if (svc != nullptr) {
            // k fragment reads — and when a data fragment is dead or
            // corrupt, a parity fragment substitutes and the degraded read
            // pays a decode pass on the restarting node's CPU. Under
            // replication one copy is the whole chunk: this node's own if
            // it holds one, else the copy read_plan draws for this node.
            bool needs_decode = false;
            cr.sources = svc->placement().read_plan(ref.key, &needs_decode,
                                                    self.node());
            if (needs_decode && !cr.sources.empty()) {
              cr.decode_seconds += ckptstore::erasure::decode_seconds(
                  c->charged_bytes, svc->placement().erasure_info(ref.key).k);
            }
          }
          // Without the service the chunk sits on this node's device. With
          // it, an empty plan is a Store not yet placed, or rot past repair
          // that the pre-flight's any_down() || quarantined guard does not
          // scan for; the chunk is then read off this node's device too.
          if (cr.sources.empty()) {
            cr.sources.push_back({self.node(), c->charged_bytes});
          }
          chunks.push_back(std::move(cr));
        }
      }
      local_read_bytes += container.size();
    } else {
      double decode_seconds = 0;
      li.img = mtcp::decode(container, &decode_seconds);
      image_decodes.push_back(decode_seconds);
      local_read_bytes += inode->charge_or_size();
    }
    li.table = ConnTable::decode(li.img.dmtcp_blob);
    loaded.push_back(std::move(li));
  }

  // --- Connect to the coordinator (discovery service + barriers).
  const Fd coord_fd = co_await ctx.socket();
  self.fds().get(coord_fd)->dmtcp_internal = true;
  while (!co_await ctx.connect(
      coord_fd, sim::SockAddr{args.coord_node, args.coord_port})) {
    co_await ctx.sleep(1 * timeconst::kMillisecond);
  }
  TcpVNode* coord = tcp_of(self.fds().get(coord_fd));

  // --- Stage 1 (§4.4): reopen files and recreate ptys, each under its
  // checkpointed id, so ptsname() and the controlling terminal still name it.
  const SimTime t_files = ctx.now();
  std::map<u64, std::shared_ptr<sim::OpenFile>> descs;
  // Pty ids are per node, and one restart can carry the images of several
  // checkpoint-time nodes (host_map merges them), so a pty is keyed by the
  // node its id was allocated on.
  std::map<std::pair<NodeId, i32>, std::pair<std::shared_ptr<sim::OpenFile>,
                                             std::shared_ptr<sim::OpenFile>>>
      ptys;
  struct EstabWork {
    const ConnRecord* rec;
    std::shared_ptr<sim::OpenFile> listener;  // acceptor side only
  };
  std::vector<EstabWork> estabs;
  std::set<u64> estab_seen;

  for (const auto& li : loaded) {
    for (const auto& rec : li.table.conns) {
      if (descs.count(rec.desc_id)) continue;
      k.reserve_description_ids(rec.desc_id);
      switch (rec.type) {
        case ConnType::kFile: {
          auto of = k.open_file(self, rec.path, {.create = true});
          of->offset = rec.offset;
          of->description_id = rec.desc_id;
          descs[rec.desc_id] = of;
          break;
        }
        case ConnType::kPtyMaster:
        case ConnType::kPtySlave: {
          const std::pair<NodeId, i32> pty{li.img.origin_node, rec.pty_id};
          auto it = ptys.find(pty);
          if (it == ptys.end()) {
            auto [m, s] = k.make_pty(self, rec.pty_id);
            static_cast<sim::PtyVNode&>(*m->vnode).pair().termios =
                rec.termios;
            it = ptys.emplace(pty, std::make_pair(m, s)).first;
          }
          descs[rec.desc_id] = rec.type == ConnType::kPtyMaster
                                   ? it->second.first
                                   : it->second.second;
          descs[rec.desc_id]->description_id = rec.desc_id;
          break;
        }
        case ConnType::kListener: {
          auto of = k.make_socket(self, rec.unix_domain);
          const bool ok = k.sock_bind(self, *tcp_of(of), rec.listen_port);
          DSIM_CHECK_MSG(ok, "dmtcp_restart: listener port taken");
          k.sock_listen(self, *tcp_of(of));
          tcp_of(of)->conn_id = rec.conn_id;
          of->description_id = rec.desc_id;
          descs[rec.desc_id] = of;
          break;
        }
        case ConnType::kRawSocket: {
          auto of = k.make_socket(self, rec.unix_domain);
          tcp_of(of)->conn_id = rec.conn_id;
          of->description_id = rec.desc_id;
          descs[rec.desc_id] = of;
          break;
        }
        case ConnType::kEstablished: {
          if (rec.peer_gone) {
            // Half-closed at checkpoint time: restore a local socket that
            // reports EOF after its (refilled) residual data.
            auto of = k.make_socket(self, rec.unix_domain);
            TcpVNode* s = tcp_of(of);
            s->state = TcpVNode::State::kEstablished;
            s->peer_closed = true;
            s->conn_id = rec.conn_id;
            s->promoted_pipe = rec.promoted_pipe;
            of->description_id = rec.desc_id;
            descs[rec.desc_id] = of;
            break;
          }
          // A description shared by several processes (fork semantics)
          // appears in each of their tables; reconnect it exactly once.
          if (estab_seen.insert(rec.desc_id).second) {
            estabs.push_back(EstabWork{&rec, nullptr});
          }
          break;
        }
      }
      co_await ctx.sleep(25 * timeconst::kMicrosecond);  // per-fd syscalls
    }
  }
  co_await note_stage(ctx, *coord, "files", t_files);

  // --- Stage 2 (§4.4): recreate and reconnect sockets via discovery.
  const SimTime t_conns = ctx.now();
  // (a) Acceptor ends: one rendezvous listener per connection, advertised
  // to the discovery service.
  for (auto& w : estabs) {
    if (!w.rec->is_acceptor) continue;
    auto lof = k.make_socket(self, w.rec->unix_domain);
    const bool ok = k.sock_bind(self, *tcp_of(lof), 0);  // ephemeral
    DSIM_CHECK(ok);
    k.sock_listen(self, *tcp_of(lof));
    w.listener = lof;
    Msg adv;
    adv.type = MsgType::kAdvertise;
    adv.conn = w.rec->conn_id;
    adv.a = self.node();
    adv.b = tcp_of(lof)->local.port;
    co_await send_msg(k, ctx.thread(), *coord, adv);
  }
  // (b) Connector ends: query the discovery service...
  int queries = 0;
  for (const auto& w : estabs) {
    if (w.rec->is_acceptor) continue;
    Msg q;
    q.type = MsgType::kQueryAddr;
    q.conn = w.rec->conn_id;
    co_await send_msg(k, ctx.thread(), *coord, q);
    ++queries;
  }
  // ...and collect the advertisements as peers come up.
  std::map<sim::ConnId, sim::SockAddr> addrs;
  while (static_cast<int>(addrs.size()) < queries) {
    auto m = co_await recv_msg(k, ctx.thread(), *coord);
    DSIM_CHECK_MSG(m.has_value(), "coordinator died during restart");
    DSIM_CHECK(m->type == MsgType::kAddrInfo);
    addrs[m->conn] = sim::SockAddr{m->a, static_cast<u16>(m->b)};
  }
  // (c) Connect all connector ends and handshake on the connection id.
  for (const auto& w : estabs) {
    if (w.rec->is_acceptor) continue;
    auto of = k.make_socket(self, w.rec->unix_domain);
    TcpVNode* s = tcp_of(of);
    const sim::SockAddr addr = addrs.at(w.rec->conn_id);
    while (!co_await k.sock_connect(ctx.thread(), *s, addr)) {
      co_await ctx.sleep(1 * timeconst::kMillisecond);
    }
    s->conn_id = w.rec->conn_id;
    s->promoted_pipe = w.rec->promoted_pipe;
    of->description_id = w.rec->desc_id;
    co_await send_conn_handshake(ctx, *s, w.rec->conn_id);
    descs[w.rec->desc_id] = of;
  }
  // (d) Accept on all acceptor ends; verify the handshake.
  for (const auto& w : estabs) {
    if (!w.rec->is_acceptor) continue;
    auto of = co_await k.sock_accept(ctx.thread(), *tcp_of(w.listener));
    DSIM_CHECK(of != nullptr);
    TcpVNode* s = tcp_of(of);
    const sim::ConnId peer_id = co_await recv_conn_handshake(ctx, *s);
    DSIM_CHECK_MSG(peer_id == w.rec->conn_id,
                   "restart: handshake disagreed on the restored socket");
    s->conn_id = w.rec->conn_id;
    s->is_acceptor = true;
    s->promoted_pipe = w.rec->promoted_pipe;
    of->description_id = w.rec->desc_id;
    descs[w.rec->desc_id] = of;
  }
  // All hosts must finish reconnection before user processes run (Fig. 2).
  co_await barrier_wait(k, ctx.thread(), *coord, barrier::kRestartConns,
                        args.hosts);
  co_await note_stage(ctx, *coord, "reconnect", t_conns);

  // --- Stages 3-5 (§4.4): fork into user processes, rearrange fds with
  // dup2 semantics, restore memory and threads.
  const SimTime t_mem = ctx.now();
  {
    // Device: one sequential read of this node's manifests and full images.
    // It comes first — no chunk can be located before its manifest is read.
    co_await k.charge_storage(ctx.thread(), self.node(), args.images[0],
                              local_read_bytes, /*is_read=*/true);
    auto left = std::make_shared<sim::CountLatch>(
        static_cast<int>(image_decodes.size() + chunks.size()));
    // CPU: full images decode as one job each, in parallel on this node's
    // cores (fluid-shared).
    for (const double secs : image_decodes) {
      k.node(self.node()).cpu().submit(secs, [left] { left->done_one(); });
    }
    // Manifest chunks stream: each chunk's bytes move as soon as its fetch
    // RPC names the holders, and its decode starts as soon as they land, so
    // index waits, transfers and decode overlap across chunks.
    auto pool = std::make_shared<sim::CpuPool>(
        k.loop(), k.node(self.node()).cpu(), self.node(), "restart.decode",
        "restart");
    const bool remote = svc != nullptr;
    for (const ChunkRead& c : chunks) {
      auto stream = [&kern = k, node = self.node(), path = args.images[0],
                     remote, c, pool, left] {
        read_then_decode(kern, node, path, remote, c, pool,
                         [left] { left->done_one(); });
      };
      if (!remote) {
        stream();
        continue;
      }
      // Fetches are RPCs through the shard queues (contending with any
      // other host restarting concurrently), on the restart QoS band: the
      // fair-queueing scheduler serves them ahead of any tenant's
      // checkpoint-storm traffic, so a restarting computation is never
      // starved by a noisy neighbor.
      ckptstore::StoreRequest req;
      req.op = ckptstore::StoreOp::kFetch;
      req.tenant = shared->opts.tenant_id;
      req.qos = ckptstore::QosClass::kRestart;
      req.from = self.node();
      req.keys = {c.key};
      req.bytes = c.bytes;
      req.done = std::move(stream);
      svc->submit(std::move(req));
    }
    while (left->remaining > 0) co_await left->wq.wait(ctx.thread());

    RestartRun& rr = shared->stats.restarts.back();
    for (const double secs : image_decodes) rr.decode_cpu_seconds += secs;
    for (const ChunkRead& c : chunks) rr.decode_cpu_seconds += c.decode_seconds;
    rr.decode_jobs += image_decodes.size() + chunks.size();
    rr.chunk_refs += chunk_refs;
    rr.peak_decode_jobs = std::max(rr.peak_decode_jobs, pool->peak());
  }
  for (auto& li : loaded) {
    sim::Process& child = k.fork_bare_child(self);
    // Stage 4: exact descriptor layout; shared descriptions share OpenFiles.
    child.fds().clear();
    for (const auto& fe : li.table.fds) {
      auto it = descs.find(fe.desc_id);
      DSIM_CHECK_MSG(it != descs.end(), "restart: missing description");
      child.fds().install_at(fe.fd, it->second);
    }
    // Stage 5: memory (private segments), then the §4.5 shared-memory rules.
    mtcp::restore_memory(child, li.img);
    for (const auto& si : li.img.segments) {
      if (!si.shared) continue;
      auto& fs = k.fs_for(child.node(), si.backing_path);
      const bool missing = !fs.exists(si.backing_path);
      const bool read_only = fs.read_only(si.backing_path);
      if (missing) {
        // Backing file missing and directory writable: create a new backing
        // file from checkpoint data.
        fs.create(si.backing_path);
      }
      auto seg = k.mmap_shared(child, si.backing_path, si.data.size());
      if (!read_only) {
        // Overwrite the shared segment with checkpoint data; co-mapped
        // processes write the same bytes, so the end state is consistent.
        auto bytes = si.data.materialize(0, si.data.size());
        seg->data.write(0, bytes);
        auto inode = fs.lookup(si.backing_path);
        inode->data = seg->data;
      }
      // Read-only: map current file data, *not* the checkpoint data (§4.5).
      child.mem().attach(seg);
    }
    child.env() = li.img.env;
    // Identity + hijack runtime with the restored connection table.
    const UniquePid upid{hostid_of(li.img.origin_node), li.img.virt_pid, 0};
    auto hijack =
        Hijack::make_restored(child, shared, li.table, li.img.virt_pid,
                              li.img.virt_ppid, upid, args.expected);
    child.set_interposer(hijack);
    // User threads start suspended; the manager resumes them at stage 7.
    std::vector<sim::ThreadContext> contexts;
    for (const auto& ti : li.img.threads) contexts.push_back(ti.ctx);
    k.start_restored(child, li.img.prog_name, li.img.argv, contexts,
                     /*start_suspended=*/true);
    hijack->on_attach();  // manager joins at "restart:checkpointed" (B5)
    co_await ctx.sleep(300 * timeconst::kMicrosecond);  // fork cost
  }
  co_await note_stage(ctx, *coord, "memory", t_mem);
  // The restart process's duplicate descriptor references are dropped on
  // exit (children hold their own references), mirroring the real restart
  // program exec'ing into the user processes.
  co_return 0;
}

}  // namespace

sim::Program make_restart_program(SharedResolver resolve) {
  sim::Program p;
  p.name = "dmtcp_restart";
  p.main = [resolve](sim::ProcessCtx& ctx) {
    return restart_main(ctx, resolve(ctx.process()));
  };
  return p;
}

}  // namespace dsim::core
