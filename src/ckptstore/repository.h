// The content-addressed chunk repository.
//
// One repository backs one checkpoint directory (the sim's analogue of a
// stdchk-style checkpoint store service): chunks are stored once, keyed by
// content, and refcounted by the generations whose manifests reference
// them. Retention is "keep the last N generations per owner"; collecting
// garbage drops dead manifests, decrements chunk refcounts, and reclaims
// the storage of chunks no live generation references.
#pragma once

#include <functional>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "ckptstore/chunk.h"

namespace dsim::ckptstore {

/// Aggregate repository statistics (dedup ratio, live/dead bytes),
/// surfaced per round through the DMTCP stats plumbing.
struct RepoStats {
  u64 live_chunks = 0;
  u64 live_stored_bytes = 0;   // device-resident chunk bytes
  u64 live_logical_bytes = 0;  // sum of image bytes live manifests describe
  u64 reclaimed_bytes = 0;     // cumulative stored bytes freed by GC
  u64 put_requests = 0;        // cumulative chunk submissions
  u64 dedup_hits = 0;          // submissions answered by a resident chunk
  /// Logical bytes described per stored byte (>= 1 once dedup bites).
  double dedup_ratio() const {
    return live_stored_bytes == 0
               ? 1.0
               : static_cast<double>(live_logical_bytes) /
                     static_cast<double>(live_stored_bytes);
  }
};

class Repository {
 public:
  /// Resident chunk for `key`, or nullptr.
  const Chunk* find(const ChunkKey& key) const;
  /// Fault-injection / repair access (tests simulate chunk-store rot by
  /// swapping a chunk's content for a plausible-but-wrong container).
  Chunk* find_mutable(const ChunkKey& key);

  /// Store `chunk` under `key` if absent. Returns true when the chunk is
  /// new (its charged_bytes must be written to the device), false on a
  /// dedup hit. Re-putting a quarantined key replaces the rotten container
  /// with the fresh one and counts as a new store — the forward re-store
  /// path the scrubber's quarantine exists for.
  bool put(const ChunkKey& key, Chunk chunk);

  /// Quarantine a chunk the scrubber found corrupt: find() stops returning
  /// it (so the next generation's encode sees a miss and re-stores fresh
  /// content) while its refcount records survive — GC stays correct for
  /// the generations still referencing the key, and the re-put slots
  /// straight back in. Returns the stored bytes the rotten container
  /// occupied (the caller trims them from its devices), 0 if the key is
  /// unknown or already quarantined.
  u64 quarantine(const ChunkKey& key);
  /// Keys currently masked by quarantine (restart pre-flights must treat
  /// them as unavailable until a generation re-stores them).
  u64 quarantined_count() const { return quarantined_; }

  /// Record a chunk submission answered by a resident chunk without going
  /// through put() (the encoder's find-first fast path). Keeps the
  /// put_requests/dedup_hits counters meaning "all submissions".
  void note_hit() {
    stats_.put_requests++;
    stats_.dedup_hits++;
  }

  /// Record a committed manifest: `owner`'s generation `gen` references
  /// `keys` and describes `logical_bytes` of image content. Pins every
  /// referenced chunk until the generation is collected.
  void commit_generation(const std::string& owner, int gen,
                         const std::vector<ChunkKey>& keys,
                         u64 logical_bytes);

  /// A chunk GC reclaimed: its key and the device bytes it occupied. The
  /// placement layer uses these to trim the right node devices.
  struct ReclaimedChunk {
    ChunkKey key;
    u64 bytes = 0;
  };

  /// Retention policy: keep only the newest `keep` generations per owner.
  /// Returns the stored bytes reclaimed from chunks that became dead.
  /// Refcounts span owners: a chunk shared by several processes (the same
  /// mapped library chunked to the same key) stays resident until the last
  /// referencing generation of the last referencing owner dies — including
  /// owners of *other tenants* in a multi-tenant store, which is exactly
  /// why one tenant's GC can never drop a chunk another tenant still
  /// references. When `reclaimed_out` is given, every reclaimed chunk is
  /// appended to it (the chunk-store service trims each one from its
  /// placement homes). A non-empty `owner_prefix` scopes the pass to
  /// owners starting with it (one tenant's "t<id>/" namespace), so each
  /// tenant applies its own keep-last-N independently.
  u64 collect_garbage(int keep,
                      std::vector<ReclaimedChunk>* reclaimed_out = nullptr,
                      const std::string& owner_prefix = "");

  /// Drop every generation of `owner` (the process left the computation
  /// for good — exited without a pending restart, or its images were
  /// migrated away). Chunks it shared with other owners survive; chunks
  /// only it referenced are reclaimed. Returns the stored bytes reclaimed.
  u64 drop_owner(const std::string& owner,
                 std::vector<ReclaimedChunk>* reclaimed_out = nullptr);

  /// Copy `other`'s generations — and the chunks they reference — into
  /// this repository (checkpoint migration: the chunks a staged manifest
  /// references must travel to the target node's store with it).
  /// Generations already present are skipped with their refs, so
  /// re-absorbing after a round-trip migration never double-counts.
  void absorb(const Repository& other);

  /// Generations currently live for `owner` (oldest first).
  std::vector<int> live_generations(const std::string& owner) const;

  /// Distinct owners with at least one live generation.
  size_t owner_count() const { return generations_.size(); }

  /// Chunks referenced by live generations of more than one owner — the
  /// cross-process dedup the cluster-wide store exists for. Maintained
  /// incrementally (commit/GC), so reading it per round is O(1).
  u64 shared_chunk_count() const { return shared_chunks_; }

  /// Stored bytes of chunks referenced by more than one owner *group*,
  /// keyed by unordered group pair. A group is the owner prefix before the
  /// first '/' (the tenant namespace "t<id>"); owners without a '/' form
  /// their own group. This is the cross-tenant dedup report: bytes the
  /// store holds once although two tenants both reference them (shared
  /// mapped libraries across jobs). Walks the index — call it per round or
  /// per bench, not per request.
  std::map<std::pair<std::string, std::string>, u64> shared_bytes_by_group()
      const;

  /// Up to `n` resident chunks with keys strictly after `cursor`, wrapping
  /// to the start when the end is reached — the scrub daemon's round-robin
  /// walk. Pointers are valid until the next mutation (the scrubber
  /// verifies synchronously, before GC can reclaim anything).
  std::vector<std::pair<ChunkKey, const Chunk*>> chunks_after(
      const ChunkKey& cursor, size_t n) const;

  /// Resident, non-quarantined chunks referenced by *no* hot generation —
  /// hot meaning one of the newest `hot_for(owner)` live generations of
  /// the owner referencing it (multi-tenant stores resolve
  /// --hot-generations per tenant), so a chunk is cold only when *every*
  /// owner referencing it considers it cold. These are the demotion
  /// daemon's candidates: content only older checkpoints still pin, safe
  /// to re-stripe to the cold erasure profile in the background.
  std::vector<ChunkKey> cold_keys(
      const std::function<int(const std::string&)>& hot_for) const;

  const RepoStats& stats() const { return stats_; }

 private:
  struct Slot {
    Chunk chunk;
    int refs = 0;  // live generations referencing this chunk
    /// Live generations per owner — tracks which chunks are shared across
    /// processes without a per-round sweep. Size > 1 means shared.
    std::map<std::string, int> owner_refs;
    /// Scrub found the container rotten: masked from find()/chunks_after()
    /// and excluded from live-bytes stats until re-put, but the refcount
    /// records stay so GC semantics survive the quarantine window.
    bool quarantined = false;
  };
  struct GenRec {
    std::vector<ChunkKey> keys;  // unique keys this generation pins
    u64 logical_bytes = 0;
  };

  /// All shared_chunks_ bookkeeping lives in this pair: one reference
  /// from `owner` is added to / dropped from `slot`, and the shared
  /// counter is adjusted on the single-owner <-> multi-owner transitions.
  /// drop_owner_ref returns true when the slot's last reference died.
  void add_owner_ref(Slot& slot, const std::string& owner);
  bool drop_owner_ref(Slot& slot, const std::string& owner);

  /// Unpin one of `owner`'s generations, reclaiming chunks that reach zero
  /// refs. Returns the stored bytes reclaimed (caller updates
  /// reclaimed_bytes) and appends each dead chunk to `reclaimed_out` when
  /// given.
  u64 release_generation(const std::string& owner, const GenRec& rec,
                         std::vector<ReclaimedChunk>* reclaimed_out);

  std::map<ChunkKey, Slot> chunks_;
  std::map<std::string, std::map<int, GenRec>> generations_;
  u64 shared_chunks_ = 0;  // slots with owner_refs from > 1 owner
  u64 quarantined_ = 0;    // slots currently masked by quarantine
  RepoStats stats_;
};

}  // namespace dsim::ckptstore
