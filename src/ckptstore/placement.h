// Per-node chunk placement for the cluster-wide store: every stored chunk
// is striped under one (k, m) erasure code.
//
// The cluster-scope repository answers *what* is stored; this layer answers
// *where*. Each stored chunk container is split into k data + m parity
// fragments (src/ckptstore/erasure.*), fragment i living on the i-th
// rendezvous home (highest-random-weight over (key, node)). Any k clean,
// alive fragments reconstruct the chunk, so m losses are survivable at
// (k+m)/k stored bytes. The code is systematic: a healthy read fetches only
// the k data fragments and skips the decode; reads through dead or corrupt
// fragments substitute parity (read_plan() reports which).
//
// R-way replication is the (1, R-1) code: at k = 1 every fragment is a full
// copy, any one survivor serves the read, and R-1 losses are survivable at
// R x stored bytes. The cost helpers in erasure.h price k = 1 as plain
// copies; nothing here treats it specially.
//
// Liveness is not placement's to record: every query reads the cluster's
// rpc::NodeHealth map, the one every RPC reads, so a fragment is unreachable
// the instant its node is killed and reachable again the instant the node
// is revived.
//
// Rendezvous properties:
//   - restart reads are charged to the devices of the nodes that actually
//     hold each chunk's bytes, not the restarting node's;
//   - assignments are stable — a node failure moves nothing that survives,
//     it only removes the failed node from every preference list, so
//     heal() rebuilds exactly the fragments that died, each in its slot;
//   - per-fragment corruption (corrupt_fragment(), the scrubber's fault
//     model) is repairable in place from the k clean survivors
//     (repair_fragments()) instead of quarantining the whole chunk.
//
// Tiering: set_cold_profile(k', m') arms demote(), which re-stripes a
// chunk to the wider cold profile (background re-encode; the demotion
// daemon in ChunkStoreService drives it for generations older than
// --hot-generations). Entries record their own (k, m), so hot and cold
// chunks coexist in one placement map.
#pragma once

#include <map>
#include <memory>
#include <vector>

#include "ckptstore/chunk.h"
#include "util/types.h"

namespace dsim::rpc {
class NodeHealth;
}  // namespace dsim::rpc

namespace dsim::ckptstore {

class ChunkPlacement {
 public:
  /// New stores are striped (k, m): 1 <= k, 0 <= m, and at most 32
  /// fragments (the corrupt-mask width). A chunk gets min(k+m, alive nodes)
  /// homes, so 5 copies on 2 nodes degrade to one copy per node. `health`
  /// is the cluster's liveness map, read here and never written.
  ChunkPlacement(std::shared_ptr<const rpc::NodeHealth> health, int k, int m);

  /// Arm demote(): the wider (k,m) profile cold chunks re-stripe to.
  void set_cold_profile(int k, int m);

  /// A recorded chunk's own erasure profile ({0,0,0} for unknown keys):
  /// the service uses frag_bytes to charge per-fragment device and network
  /// traffic.
  struct ErasureInfo {
    int k = 0;
    int m = 0;
    u64 frag_bytes = 0;
  };
  ErasureInfo erasure_info(const ChunkKey& key) const;

  /// The min(k+m, alive nodes) highest-scoring *alive* nodes for `key`,
  /// best first. Pure function of (key, alive set).
  std::vector<NodeId> place(const ChunkKey& key) const;

  /// Record a chunk stored on its current placement. Returns the homes the
  /// caller must charge the write to (one fragment per home; see
  /// home_charge()). Re-recording an already-placed key is a no-op
  /// returning no homes (dedup hit: the bytes are already on disk).
  std::vector<NodeId> record_store(const ChunkKey& key, u64 charged_bytes);
  /// True once a Store of `key` is recorded (until forget()), readable or
  /// not.
  bool recorded(const ChunkKey& key) const { return entries_.count(key) != 0; }

  /// The preferred surviving home holding readable bytes of `key` (the
  /// first alive, non-corrupt fragment home), or kNoHolder when nothing
  /// survives (or the key was never recorded).
  static constexpr i32 kNoHolder = -1;
  i32 holder(const ChunkKey& key) const;
  /// True when `key` is recorded and readable: >= k clean alive fragments.
  bool available(const ChunkKey& key) const;
  /// The recorded homes of `key`, best-first as placed (dead ones
  /// included; fragment i lives on homes[i]). Restart uses read_plan()
  /// instead — it additionally filters death and corruption.
  std::vector<NodeId> homes_of(const ChunkKey& key) const;

  /// The devices to read `key` back from: k clean alive fragment homes at
  /// frag_bytes each — the k data fragments when all are healthy
  /// (`*needs_decode` = false: systematic concatenation), otherwise any k
  /// survivors with `*needs_decode` = true (the caller charges
  /// erasure::decode_seconds).
  /// At k = 1 every copy is the whole chunk, so no read needs a decode. A
  /// `reader` node reads its own copy when it holds a usable one; otherwise
  /// it takes the first usable copy in rotation from slot score(key,
  /// reader) mod R, so the nodes that read a chunk spread over its copies.
  /// Without a reader (kAnyReader: heal, scrub, demotion) copies go in slot
  /// order. Empty when the chunk is not readable (lost, or never recorded).
  struct FetchSource {
    NodeId node = 0;
    u64 bytes = 0;
  };
  static constexpr NodeId kAnyReader = -1;
  std::vector<FetchSource> read_plan(const ChunkKey& key, bool* needs_decode,
                                     NodeId reader = kAnyReader) const;

  /// True when `key` is recorded, readable, and below full redundancy
  /// (alive, clean homes < min(k+m, alive nodes)) — the per-key form of
  /// degraded_chunks(), used by the scrubber to re-route stragglers into
  /// the heal path.
  bool degraded(const ChunkKey& key) const;
  /// True only for a *recorded* chunk that is unreadable — fewer than k
  /// clean alive fragments. Distinct from !available(): an unrecorded key
  /// is not lost, its Store is simply still in flight somewhere this round.
  bool lost(const ChunkKey& key) const;

  /// Simulated fragment rot: mark fragment `index` of `key` (copy `index`
  /// under replication) corrupt. Returns false when the key is unknown or
  /// the index is out of range. The scrubber repairs corrupt fragments in
  /// place via repair_fragments().
  bool corrupt_fragment(const ChunkKey& key, int index);
  /// Bitmask of currently-corrupt fragment indices (0 when clean).
  u32 corrupt_mask(const ChunkKey& key) const;
  /// Repair every corrupt fragment of `key` in place: requires >= k clean
  /// alive fragments to reconstruct from. Clears the corrupt bits and
  /// returns the *alive* homes whose fragments were rewritten (the caller
  /// charges one frag_bytes write per home); empty when nothing is corrupt
  /// or the chunk is beyond repair (> m bad fragments — quarantine path).
  std::vector<NodeId> repair_fragments(const ChunkKey& key);

  /// Drop the chunk's placement record (GC reclaimed it). Returns the
  /// *alive* homes whose devices the caller should trim (home_charge()
  /// bytes each, read *before* forgetting); dead homes are gone with their
  /// node.
  std::vector<NodeId> forget(const ChunkKey& key);
  /// Device bytes one home of `key` holds: its frag_bytes (the full
  /// charged bytes at k = 1). 0 for unknown keys.
  u64 home_charge(const ChunkKey& key) const;

  /// Recompute an existing entry's homes over the currently-alive nodes
  /// (healing a chunk whose content must be re-stored from scratch).
  /// Returns the new homes — the fragments the caller must write — or
  /// empty when the key was never recorded. A full re-stripe: fresh
  /// fragments everywhere, corruption cleared.
  std::vector<NodeId> re_place(const ChunkKey& key);

  /// Recorded chunks that are readable but below full redundancy —
  /// degraded, healable from survivors. Disjoint from lost(): an
  /// unreadable entry is not degraded.
  std::vector<ChunkKey> degraded_chunks() const;
  u64 degraded_count() const;

  /// Heal one degraded entry. Surviving fragments stay pinned to their
  /// slots; each dead (or never-filled) slot is assigned the next fresh
  /// rendezvous node, and its fragment must be *rebuilt* there from k
  /// survivors (frag_bytes each — the caller reads a read_plan() taken
  /// before this call). Returns those fresh homes in slot order; empty when
  /// the key is unknown, lost, or not degraded, so re-queued heal work is a
  /// safe no-op.
  std::vector<NodeId> heal(const ChunkKey& key);
  u64 bytes_of(const ChunkKey& key) const;

  /// Re-stripe a hot erasure chunk to the cold profile (set_cold_profile).
  /// The plan carries everything the demotion daemon charges: k read
  /// sources at the hot frag_bytes, the alive hot homes to trim, and the
  /// new cold homes to write. Empty (no reads, no writes) when the key is
  /// unknown, already cold, unreadable, or no cold profile is armed.
  struct DemotePlan {
    std::vector<FetchSource> read;  // k hot-fragment sources
    std::vector<NodeId> trim;       // alive hot homes; trim_bytes each
    u64 trim_bytes = 0;
    std::vector<NodeId> write;  // cold homes; write_bytes each
    u64 write_bytes = 0;
    u64 logical_bytes = 0;  // the chunk's full charged bytes
  };
  DemotePlan demote(const ChunkKey& key);

  /// Chunks / stored bytes that are unreadable (> m fragments gone).
  /// O(placed chunks); called from pre-flight and tests.
  u64 lost_chunks() const;
  u64 lost_bytes() const;
  u64 placed_chunks() const { return entries_.size(); }
  /// Stored bytes currently resident per node (frag_bytes per home — the
  /// physical device footprint bench_erasure's overhead comparison sums).
  std::vector<u64> bytes_per_node() const;

 private:
  struct Entry {
    std::vector<NodeId> homes;  // best-first at store time; slot i = frag i
    u64 bytes = 0;              // device-charged bytes of the whole chunk
    u16 k = 0;                  // the entry's own erasure profile
    u16 m = 0;
    u64 frag_bytes = 0;     // per-fragment device bytes
    u32 corrupt_mask = 0;   // bit i: fragment i rotten
  };
  static u64 score(const ChunkKey& key, NodeId node);
  /// Top `want` alive nodes by rendezvous score, best first.
  std::vector<NodeId> place_n(const ChunkKey& key, size_t want) const;
  /// Alive, non-corrupt fragments of an entry.
  size_t clean_alive(const Entry& e) const;
  bool entry_lost(const Entry& e) const;
  bool entry_degraded(const Entry& e, size_t alive_nodes) const;

  std::shared_ptr<const rpc::NodeHealth> health_;
  int k_;
  int m_;
  int cold_k_ = 0;
  int cold_m_ = 0;
  std::map<ChunkKey, Entry> entries_;
};

}  // namespace dsim::ckptstore
