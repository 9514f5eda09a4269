// Calibrated virtual-time cost model constants.
//
// These model the paper's 2008-era testbed (§5.2): dual-socket dual-core
// Xeon 5130 nodes, Gigabit Ethernet, local SATA disks, an EMC CX300 SAN over
// 4 Gb/s Fibre Channel reachable from 8 of 32 nodes, NFS for the rest, and
// gzip-era compression speeds. Values were calibrated so Table 1's stage
// breakdown and the headline "2 s checkpoint on 128 cores" reproduce; see
// EXPERIMENTS.md for paper-vs-measured numbers. All bandwidths are in
// bytes/second of *virtual* time.
#pragma once

#include "util/types.h"

namespace dsim::sim::params {

// --- Node ---------------------------------------------------------------
inline constexpr int kCoresPerNode = 4;
inline constexpr u64 kNodeRamBytes = 8ull << 30;

// --- Network (Gigabit Ethernet) ------------------------------------------
inline constexpr double kNicBandwidth = 117e6;        // ~GigE goodput
inline constexpr SimTime kNetLatency = 100 * timeconst::kMicrosecond;
inline constexpr SimTime kLoopbackLatency = 8 * timeconst::kMicrosecond;
inline constexpr double kLoopbackBandwidth = 1.2e9;
inline constexpr u64 kTcpSegmentBytes = 64 * 1024;
// Kernel socket buffer defaults ("tens of kilobytes", §5.4).
inline constexpr u64 kSockSendBuf = 64 * 1024;
inline constexpr u64 kSockRecvBuf = 64 * 1024;

// --- Storage --------------------------------------------------------------
// Local disk: checkpoints are written without sync (§5.2), so writes land in
// the page cache. The paper's Fig. 6 analysis ("implied bandwidth is well
// beyond the typical 100 MB/s of disk") is what this models.
inline constexpr double kPageCacheWriteBw = 450e6;  // absorb rate, per node
inline constexpr double kPageCacheReadBw = 420e6;   // warm-cache read rate
inline constexpr double kLocalDiskBw = 80e6;        // physical writeback rate
inline constexpr SimTime kDiskLatency = 2 * timeconst::kMillisecond;

// SAN: EMC CX300 over 4 Gb/s Fibre Channel, shared by the 8 directly
// attached nodes. NFS: one server exporting the SAN to the other 24 nodes
// over GigE.
inline constexpr double kSanBandwidth = 380e6;   // aggregate FC goodput
inline constexpr double kNfsBandwidth = 95e6;    // aggregate via GigE server
inline constexpr SimTime kSanLatency = 1 * timeconst::kMillisecond;
inline constexpr SimTime kNfsLatency = 4 * timeconst::kMillisecond;
inline constexpr int kSanDirectNodes = 8;        // nodes with FC HBAs

// --- Compression (gzip-era single-core throughput, Xeon 5130 class) --------
// Cost model: zero-filled input flies through gzip (long matches, little
// entropy work) while "typical" program data (heap/library bytes) crawls.
// This split reproduces both Table 1a's 3.9 s compressed write for NAS/MG
// and the NAS/IS anomaly (§5.4: mostly-zero buckets compress quickly and
// small).
inline constexpr double kGzipZeroBw = 260e6;  // zero-extent input rate
inline constexpr double kGzipDataBw = 11e6;   // non-zero input rate
// gunzip is considerably faster than gzip (§5.4); output-rate bound.
inline constexpr double kGunzipOutBw = 50e6;

// --- Process / checkpoint mechanics ----------------------------------------
// Suspending user threads: signal delivery + quiesce (Table 1a: ~25 ms).
inline constexpr SimTime kSuspendBase = 24 * timeconst::kMillisecond;
inline constexpr SimTime kSuspendPerThread = 120 * timeconst::kMicrosecond;
// FD leader election: one fcntl round per shared descriptor (~1.4 ms total).
inline constexpr SimTime kElectPerFd = 30 * timeconst::kMicrosecond;
inline constexpr SimTime kElectBase = 800 * timeconst::kMicrosecond;
// Draining a connection: the paper's ~0.1 s drain stage (Table 1a) is
// dominated by TCP flush dynamics (slow-start, delayed ACKs, receiver
// scheduling) that the instantaneous-window socket model does not produce;
// charge them explicitly per drained process.
inline constexpr SimTime kDrainFlushBase = 95 * timeconst::kMillisecond;
// Building/restoring the in-user-space image when *not* compressing
// (page-table setup + copy; Table 1b "restore memory/threads" uncompressed).
inline constexpr double kImageAssembleBw = 200e6;
// Raw memcpy rate (image assembly when the data is piped through gzip).
inline constexpr double kMemcpyBw = 2.4e9;
// Gear rolling-hash scan rate over real content (content-defined
// chunking's extra cutpoint-search pass; fixed chunking skips it). Gear
// is one shift+add+table-lookup per byte — slower than memcpy, far
// faster than gzip.
inline constexpr double kGearHashBw = 1.2e9;
// fork() for forked checkpointing: page-table copy cost per MB of RSS.
inline constexpr SimTime kForkPerMb = 600 * timeconst::kMicrosecond;
inline constexpr SimTime kForkBase = 300 * timeconst::kMicrosecond;
// Copy-on-write slowdown while a forked checkpoint is in flight is emergent:
// the writer child occupies a core in the fluid-share CPU model.

// --- Async COW checkpoint pipeline (src/ckptasync/) --------------------------
// Snapshotted pages the application touches before the background drain
// finishes pay a copy-on-write fault: trap + page copy, charged as
// background CPU on the touching node so the slowdown stays emergent
// through the fluid share (one full page copy at memcpy rate plus the
// fault/TLB overhead).
inline constexpr u64 kCowPageBytes = 4 * 1024;
inline constexpr double kCowPageFaultSeconds = 2e-6;
// Codec input rate of each core of the async drain's encode pool for the
// gzip-class baseline codec; other codecs scale by their relative cost
// factor (compress::codec_cost_factor). This is the knob the
// compress-vs-NIC/device crossover sweeps: a slow core makes compression
// lose to shipping raw bytes over a fast fabric, a fast core makes it win
// on a slow NIC/device. Overridable per run via --compress-bw.
inline constexpr double kCompressBw = 30e6;

// --- Erasure coding (src/ckptstore/erasure.*) --------------------------------
// Reed-Solomon GF(2^8) table arithmetic on a single 2008-era core: one
// table lookup + XOR per (input byte x parity row). Far faster than gzip
// (kCompressBw) but not free — restart decode with missing data fragments
// and background fragment rebuilds charge CPU at this input rate.
inline constexpr double kErasureBw = 400e6;
// Cold-tier demotion daemon: generations older than --hot-generations are
// re-encoded to the wider cold (k,m) profile in the background, at most
// this many chunks per checkpoint round so demotion never swamps the
// foreground store traffic.
inline constexpr u64 kDemoteChunksPerRound = 256;

// --- Chunk-store service (stdchk-style remote store) ------------------------
// The cluster-scope store is a *service* with one FIFO request queue, not a
// free in-memory index: every dedup Lookup (one per chunk a writer cannot
// vouch for), chunk Store, restart Fetch and GC Drop occupies the queue, so
// N ranks' requests serialize the way Fig.-5b storage traffic does. The
// request-processing rate is GigE-server class (one store node answering
// the whole computation); each Lookup costs an index probe's worth of queue
// occupancy, and Store/Fetch cost their chunk bytes. Per-request RPC
// latency is pipelined (it delays completion, not the queue), so the
// contention knee comes from queue occupancy alone.
inline constexpr double kStoreServiceBw = 180e6;
inline constexpr SimTime kStoreServiceLatency = 250 * timeconst::kMicrosecond;
inline constexpr u64 kStoreLookupBytes = 4 * 1024;

// --- Chunk-store RPC fabric --------------------------------------------------
// Service requests are real messages over the cluster network (src/rpc/):
// each RPC charges the caller's NIC egress for the request, a serialized
// per-message dispatch CPU at the endpoint node, and the endpoint's NIC for
// the response. Batched lookups amortize the header + dispatch cost over K
// keys — the latency/amortization trade-off `--lookup-batch` exposes.
inline constexpr SimTime kRpcMessageCpu = 15 * timeconst::kMicrosecond;
inline constexpr u64 kRpcHeaderBytes = 256;
inline constexpr u64 kRpcLookupKeyBytes = 48;      // key + len on the wire
inline constexpr u64 kRpcLookupVerdictBytes = 24;  // per-key reply payload
// Background re-replication daemon: scan delay after a node failure, and a
// bound on concurrent chunk heals so the daemon does not starve foreground
// lookups on the shard queues.
inline constexpr SimTime kRereplicateDelay = 2 * timeconst::kMillisecond;
inline constexpr int kRereplicateWindow = 8;

// --- Cluster membership & shard failover (src/cluster/) ----------------------
// Heartbeat probes are tiny fixed-size messages (sequence number + epoch on
// the wire); detection latency is heartbeat_misses x heartbeat_interval,
// configured via --heartbeat-interval / --heartbeat-misses.
inline constexpr u64 kHeartbeatBytes = 64;
// Shard rebalancing moves reassigned index entries between endpoints in
// batches: each migration RPC carries up to this many keys (header + per-key
// record on the wire, one index-probe's queue occupancy per key at both the
// source and destination shard).
inline constexpr u64 kRebalanceBatchKeys = 64;

// --- Coordinator protocol ---------------------------------------------------
inline constexpr SimTime kCoordMsgCpu = 6 * timeconst::kMicrosecond;

// --- OS jitter ---------------------------------------------------------------
// Per-operation multiplicative noise (lognormal-ish, sigma as fraction).
// Gives the error bars of Fig. 4 their spread; seeded per repetition.
inline constexpr double kJitterSigma = 0.035;

}  // namespace dsim::sim::params
