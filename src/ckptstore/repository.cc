#include "ckptstore/repository.h"

#include <algorithm>
#include <set>

#include "util/assertx.h"

namespace dsim::ckptstore {

const Chunk* Repository::find(const ChunkKey& key) const {
  auto it = chunks_.find(key);
  return it == chunks_.end() || it->second.quarantined ? nullptr
                                                       : &it->second.chunk;
}

Chunk* Repository::find_mutable(const ChunkKey& key) {
  auto it = chunks_.find(key);
  return it == chunks_.end() || it->second.quarantined ? nullptr
                                                       : &it->second.chunk;
}

std::vector<std::pair<ChunkKey, const Chunk*>> Repository::chunks_after(
    const ChunkKey& cursor, size_t n) const {
  std::vector<std::pair<ChunkKey, const Chunk*>> out;
  const size_t resident = chunks_.size() - static_cast<size_t>(quarantined_);
  const size_t take = std::min(n, resident);
  auto it = chunks_.upper_bound(cursor);
  while (out.size() < take) {
    if (it == chunks_.end()) it = chunks_.begin();
    if (!it->second.quarantined) {
      out.emplace_back(it->first, &it->second.chunk);
    }
    ++it;
  }
  return out;
}

std::vector<ChunkKey> Repository::cold_keys(
    const std::function<int(const std::string&)>& hot_for) const {
  // Hot set: every key pinned by one of the newest `hot_for(owner)` live
  // generations of that owner. The generation maps are keyed by gen
  // number, so the newest ones sit at the back. A chunk shared across
  // owners (or tenants) stays hot while *any* referencing owner's hot
  // window still covers it.
  std::set<ChunkKey> hot;
  for (const auto& [owner, gens] : generations_) {
    const int depth = hot_for(owner);
    if (depth <= 0) continue;
    int taken = 0;
    for (auto it = gens.rbegin(); it != gens.rend() && taken < depth;
         ++it, ++taken) {
      hot.insert(it->second.keys.begin(), it->second.keys.end());
    }
  }
  std::vector<ChunkKey> cold;
  for (const auto& [key, slot] : chunks_) {
    if (slot.quarantined) continue;
    if (!hot.contains(key)) cold.push_back(key);
  }
  return cold;
}

std::map<std::pair<std::string, std::string>, u64>
Repository::shared_bytes_by_group() const {
  std::map<std::pair<std::string, std::string>, u64> out;
  const auto group_of = [](const std::string& owner) {
    const size_t slash = owner.find('/');
    return slash == std::string::npos ? owner : owner.substr(0, slash);
  };
  for (const auto& [key, slot] : chunks_) {
    if (slot.quarantined) continue;
    std::set<std::string> groups;
    for (const auto& [owner, refs] : slot.owner_refs) {
      groups.insert(group_of(owner));
    }
    if (groups.size() < 2) continue;
    for (auto a = groups.begin(); a != groups.end(); ++a) {
      for (auto b = std::next(a); b != groups.end(); ++b) {
        out[{*a, *b}] += slot.chunk.charged_bytes;
      }
    }
  }
  return out;
}

bool Repository::put(const ChunkKey& key, Chunk chunk) {
  stats_.put_requests++;
  auto [it, inserted] = chunks_.try_emplace(key);
  if (!inserted && !it->second.quarantined) {
    stats_.dedup_hits++;
    return false;
  }
  if (!inserted) {
    // Forward re-store of a quarantined key: the fresh container replaces
    // the rotten one; refcount records carried through the quarantine.
    it->second.quarantined = false;
    quarantined_--;
  }
  it->second.chunk = std::move(chunk);
  stats_.live_chunks++;
  stats_.live_stored_bytes += it->second.chunk.charged_bytes;
  return true;
}

u64 Repository::quarantine(const ChunkKey& key) {
  auto it = chunks_.find(key);
  if (it == chunks_.end() || it->second.quarantined) return 0;
  it->second.quarantined = true;
  quarantined_++;
  stats_.live_chunks--;
  stats_.live_stored_bytes -= it->second.chunk.charged_bytes;
  return it->second.chunk.charged_bytes;
}

void Repository::add_owner_ref(Slot& slot, const std::string& owner) {
  slot.refs++;
  const bool was_shared = slot.owner_refs.size() > 1;
  slot.owner_refs[owner]++;
  if (!was_shared && slot.owner_refs.size() > 1) shared_chunks_++;
}

bool Repository::drop_owner_ref(Slot& slot, const std::string& owner) {
  const bool was_shared = slot.owner_refs.size() > 1;
  auto oit = slot.owner_refs.find(owner);
  DSIM_CHECK(oit != slot.owner_refs.end());
  if (--oit->second == 0) slot.owner_refs.erase(oit);
  if (was_shared && slot.owner_refs.size() <= 1) shared_chunks_--;
  return --slot.refs == 0;
}

void Repository::commit_generation(const std::string& owner, int gen,
                                   const std::vector<ChunkKey>& keys,
                                   u64 logical_bytes) {
  GenRec rec;
  rec.logical_bytes = logical_bytes;
  rec.keys = keys;
  std::sort(rec.keys.begin(), rec.keys.end());
  rec.keys.erase(std::unique(rec.keys.begin(), rec.keys.end()),
                 rec.keys.end());
  for (const auto& k : rec.keys) {
    auto it = chunks_.find(k);
    DSIM_CHECK_MSG(it != chunks_.end(),
                   "manifest references a chunk the repository never stored");
    add_owner_ref(it->second, owner);
  }
  stats_.live_logical_bytes += logical_bytes;
  auto [gi, fresh] = generations_[owner].try_emplace(gen, std::move(rec));
  DSIM_CHECK_MSG(fresh, "generation committed twice for one owner");
  (void)gi;
}

u64 Repository::release_generation(
    const std::string& owner, const GenRec& rec,
    std::vector<ReclaimedChunk>* reclaimed_out) {
  u64 reclaimed = 0;
  for (const auto& k : rec.keys) {
    auto it = chunks_.find(k);
    DSIM_CHECK(it != chunks_.end());
    if (drop_owner_ref(it->second, owner)) {
      if (it->second.quarantined) {
        // A quarantined container's bytes were reclaimed at quarantine
        // time; the last reference just releases the masked slot.
        quarantined_--;
      } else {
        reclaimed += it->second.chunk.charged_bytes;
        if (reclaimed_out) {
          reclaimed_out->push_back({k, it->second.chunk.charged_bytes});
        }
        stats_.live_chunks--;
        stats_.live_stored_bytes -= it->second.chunk.charged_bytes;
      }
      chunks_.erase(it);
    }
  }
  stats_.live_logical_bytes -= rec.logical_bytes;
  return reclaimed;
}

u64 Repository::collect_garbage(int keep,
                                std::vector<ReclaimedChunk>* reclaimed_out,
                                const std::string& owner_prefix) {
  DSIM_CHECK_MSG(keep >= 1, "retention must keep at least one generation");
  u64 reclaimed = 0;
  for (auto& [owner, gens] : generations_) {
    if (!owner_prefix.empty() && owner.rfind(owner_prefix, 0) != 0) continue;
    while (static_cast<int>(gens.size()) > keep) {
      auto oldest = gens.begin();  // map is gen-ordered
      reclaimed += release_generation(owner, oldest->second, reclaimed_out);
      gens.erase(oldest);
    }
  }
  stats_.reclaimed_bytes += reclaimed;
  return reclaimed;
}

u64 Repository::drop_owner(const std::string& owner,
                           std::vector<ReclaimedChunk>* reclaimed_out) {
  auto oit = generations_.find(owner);
  if (oit == generations_.end()) return 0;
  u64 reclaimed = 0;
  for (const auto& [gen, rec] : oit->second) {
    reclaimed += release_generation(owner, rec, reclaimed_out);
  }
  generations_.erase(oit);
  stats_.reclaimed_bytes += reclaimed;
  return reclaimed;
}

void Repository::absorb(const Repository& other) {
  // Refcounts are derived from the generation records actually inserted
  // (generations already present are skipped, and so are their refs), so
  // absorbing the same store twice — a round-trip migration — cannot
  // double-count. Chunks are pulled over lazily, only when an inserted
  // generation references them.
  for (const auto& [owner, gens] : other.generations_) {
    auto& mine = generations_[owner];
    for (const auto& [gen, rec] : gens) {
      if (!mine.try_emplace(gen, rec).second) continue;
      stats_.live_logical_bytes += rec.logical_bytes;
      for (const auto& k : rec.keys) {
        auto it = chunks_.find(k);
        if (it == chunks_.end()) {
          auto oit = other.chunks_.find(k);
          DSIM_CHECK(oit != other.chunks_.end());
          it = chunks_.try_emplace(k).first;
          it->second.chunk = oit->second.chunk;
          stats_.live_chunks++;
          stats_.live_stored_bytes += it->second.chunk.charged_bytes;
        }
        add_owner_ref(it->second, owner);
      }
    }
  }
}

std::vector<int> Repository::live_generations(const std::string& owner) const {
  std::vector<int> out;
  auto it = generations_.find(owner);
  if (it == generations_.end()) return out;
  for (const auto& [gen, rec] : it->second) out.push_back(gen);
  return out;
}

}  // namespace dsim::ckptstore
