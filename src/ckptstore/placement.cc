#include "ckptstore/placement.h"

#include <algorithm>

#include "ckptstore/erasure.h"
#include "rpc/rpc.h"
#include "util/assertx.h"
#include "util/rng.h"

namespace dsim::ckptstore {

ChunkPlacement::ChunkPlacement(std::shared_ptr<const rpc::NodeHealth> health,
                               int k, int m)
    : health_(std::move(health)), k_(k), m_(m) {
  DSIM_CHECK_MSG(health_ && health_->num_nodes() >= 1,
                 "placement needs at least one node");
  DSIM_CHECK_MSG(k >= 1 && m >= 0 && k + m <= 32,
                 "erasure profile must satisfy 1 <= k, 0 <= m, k+m <= 32");
}

void ChunkPlacement::set_cold_profile(int k, int m) {
  DSIM_CHECK_MSG(k >= 1 && m >= 0 && k + m <= 32,
                 "cold profile must satisfy 1 <= k, 0 <= m, k+m <= 32");
  DSIM_CHECK_MSG(k + m <= health_->num_nodes(),
                 "cold profile needs k+m distinct nodes for the fragments");
  cold_k_ = k;
  cold_m_ = m;
}

ChunkPlacement::ErasureInfo ChunkPlacement::erasure_info(
    const ChunkKey& key) const {
  auto it = entries_.find(key);
  if (it == entries_.end()) return {};
  return {it->second.k, it->second.m, it->second.frag_bytes};
}

u64 ChunkPlacement::score(const ChunkKey& key, NodeId node) {
  // Chained mix64 over (node, key.lo, key.hi): an independent uniform
  // draw per (key, node) pair — the highest-random-weight (rendezvous)
  // construction. Each input passes through a full avalanche round, so
  // structured keys (the store's tagged synthetic zero/rand keys, or a
  // test's sequential ones) spread as well as content hashes do.
  return mix64(key.hi ^ mix64(key.lo ^ mix64(static_cast<u64>(node))));
}

std::vector<NodeId> ChunkPlacement::place_n(const ChunkKey& key,
                                            size_t want) const {
  std::vector<std::pair<u64, NodeId>> scored;
  for (NodeId n = 0; n < health_->num_nodes(); ++n) {
    if (health_->up(n)) scored.emplace_back(score(key, n), n);
  }
  want = std::min(want, scored.size());
  std::partial_sort(scored.begin(),
                    scored.begin() + static_cast<ptrdiff_t>(want),
                    scored.end(), std::greater<>());
  std::vector<NodeId> out;
  out.reserve(want);
  for (size_t i = 0; i < want; ++i) out.push_back(scored[i].second);
  return out;
}

std::vector<NodeId> ChunkPlacement::place(const ChunkKey& key) const {
  return place_n(key, static_cast<size_t>(k_ + m_));
}

std::vector<NodeId> ChunkPlacement::record_store(const ChunkKey& key,
                                                 u64 charged_bytes) {
  auto [it, fresh] = entries_.try_emplace(key);
  if (!fresh) return {};  // dedup hit: the copies are already placed
  it->second.homes = place(key);
  it->second.bytes = charged_bytes;
  it->second.k = static_cast<u16>(k_);
  it->second.m = static_cast<u16>(m_);
  it->second.frag_bytes = erasure::fragment_bytes(charged_bytes, k_);
  DSIM_CHECK_MSG(!it->second.homes.empty(),
                 "chunk store has no alive node to place on");
  return it->second.homes;
}

i32 ChunkPlacement::holder(const ChunkKey& key) const {
  auto it = entries_.find(key);
  if (it == entries_.end()) return kNoHolder;
  const Entry& e = it->second;
  for (size_t i = 0; i < e.homes.size(); ++i) {
    if (!health_->up(e.homes[i]) || (e.corrupt_mask >> i) & 1u) continue;
    return e.homes[i];
  }
  return kNoHolder;
}

bool ChunkPlacement::available(const ChunkKey& key) const {
  auto it = entries_.find(key);
  return it != entries_.end() && !entry_lost(it->second);
}

bool ChunkPlacement::lost(const ChunkKey& key) const {
  auto it = entries_.find(key);
  return it != entries_.end() && entry_lost(it->second);
}

std::vector<NodeId> ChunkPlacement::homes_of(const ChunkKey& key) const {
  auto it = entries_.find(key);
  return it == entries_.end() ? std::vector<NodeId>{} : it->second.homes;
}

std::vector<ChunkPlacement::FetchSource> ChunkPlacement::read_plan(
    const ChunkKey& key, bool* needs_decode, NodeId reader) const {
  *needs_decode = false;
  auto it = entries_.find(key);
  if (it == entries_.end()) return {};
  const Entry& e = it->second;
  auto usable = [&](size_t i) {
    return health_->up(e.homes[i]) && !((e.corrupt_mask >> i) & 1u);
  };
  // The k data fragments when healthy (systematic — no decode), else the
  // first k usable fragments of any kind plus a decode pass. A replica
  // reader starts at its own copy, or else at a slot drawn from (key,
  // reader) — the rendezvous score, an independent uniform draw per pair —
  // so whatever set of nodes reads a chunk spreads evenly over its copies
  // in expectation.
  const size_t k = e.k;
  const size_t slots = e.homes.size();
  size_t first = 0;
  if (k == 1 && reader != kAnyReader) {
    const auto own = std::find(e.homes.begin(), e.homes.end(), reader);
    const auto own_slot = static_cast<size_t>(own - e.homes.begin());
    first = own_slot < slots && usable(own_slot) ? own_slot
                                                 : score(key, reader) % slots;
  }
  std::vector<size_t> picks;
  picks.reserve(k);
  for (size_t j = 0; j < slots && picks.size() < k; ++j) {
    const size_t i = (first + j) % slots;
    if (usable(i)) picks.push_back(i);
  }
  if (picks.size() < k) return {};  // unreadable
  // Slot order picks ascending, so the plan is the data fragments exactly
  // when its last pick is slot k-1. Any copy is the whole chunk at k = 1.
  *needs_decode = k > 1 && picks.back() != k - 1;
  std::vector<FetchSource> out;
  out.reserve(k);
  for (size_t i : picks) out.push_back({e.homes[i], e.frag_bytes});
  return out;
}

bool ChunkPlacement::degraded(const ChunkKey& key) const {
  auto it = entries_.find(key);
  if (it == entries_.end()) return false;
  return entry_degraded(it->second,
                        static_cast<size_t>(health_->num_up()));
}

bool ChunkPlacement::corrupt_fragment(const ChunkKey& key, int index) {
  auto it = entries_.find(key);
  if (it == entries_.end()) return false;
  if (index < 0 || static_cast<size_t>(index) >= it->second.homes.size()) {
    return false;
  }
  it->second.corrupt_mask |= 1u << index;
  return true;
}

u32 ChunkPlacement::corrupt_mask(const ChunkKey& key) const {
  auto it = entries_.find(key);
  return it == entries_.end() ? 0 : it->second.corrupt_mask;
}

std::vector<NodeId> ChunkPlacement::repair_fragments(const ChunkKey& key) {
  auto it = entries_.find(key);
  if (it == entries_.end()) return {};
  Entry& e = it->second;
  if (e.corrupt_mask == 0) return {};
  if (clean_alive(e) < e.k) return {};  // beyond repair: quarantine path
  std::vector<NodeId> rewritten;
  for (size_t i = 0; i < e.homes.size(); ++i) {
    if (!((e.corrupt_mask >> i) & 1u)) continue;
    // A corrupt fragment on a dead node is the heal daemon's problem (the
    // slot gets a fresh home anyway); repair rewrites the alive ones.
    if (health_->up(e.homes[i])) rewritten.push_back(e.homes[i]);
    e.corrupt_mask &= ~(1u << i);
  }
  return rewritten;
}

std::vector<NodeId> ChunkPlacement::forget(const ChunkKey& key) {
  auto it = entries_.find(key);
  if (it == entries_.end()) return {};
  std::vector<NodeId> alive_homes;
  for (NodeId n : it->second.homes) {
    if (health_->up(n)) alive_homes.push_back(n);
  }
  entries_.erase(it);
  return alive_homes;
}

u64 ChunkPlacement::home_charge(const ChunkKey& key) const {
  auto it = entries_.find(key);
  if (it == entries_.end()) return 0;
  return it->second.frag_bytes;
}

std::vector<NodeId> ChunkPlacement::re_place(const ChunkKey& key) {
  auto it = entries_.find(key);
  if (it == entries_.end()) return {};
  it->second.homes = place(key);
  it->second.corrupt_mask = 0;  // fresh fragments everywhere
  DSIM_CHECK_MSG(!it->second.homes.empty(),
                 "chunk store has no alive node to re-place on");
  return it->second.homes;
}

std::vector<ChunkKey> ChunkPlacement::degraded_chunks() const {
  std::vector<ChunkKey> out;
  if (!health_->any_down()) return out;  // full placements: nothing to heal
  const size_t alive_nodes = static_cast<size_t>(health_->num_up());
  for (const auto& [key, e] : entries_) {
    if (entry_degraded(e, alive_nodes)) out.push_back(key);
  }
  return out;
}

u64 ChunkPlacement::degraded_count() const {
  if (!health_->any_down()) return 0;
  const size_t alive_nodes = static_cast<size_t>(health_->num_up());
  u64 degraded = 0;
  for (const auto& [key, e] : entries_) {
    if (entry_degraded(e, alive_nodes)) ++degraded;
  }
  return degraded;
}

std::vector<NodeId> ChunkPlacement::heal(const ChunkKey& key) {
  auto it = entries_.find(key);
  if (it == entries_.end()) return {};
  Entry& e = it->second;
  if (clean_alive(e) < e.k) return {};  // lost: nothing to rebuild from
  // Surviving fragments stay pinned to their slots (their bytes are
  // already right); only dead or never-filled slots get fresh homes, and
  // each fresh home receives a fragment *rebuilt* from k survivors.
  // Rendezvous scores are fixed per (key, node), so the candidates are the
  // next-best alive scorers not already holding a fragment.
  const size_t slots = static_cast<size_t>(e.k + e.m);
  std::vector<NodeId> candidates;
  for (NodeId n : place_n(key, slots)) {
    if (std::find(e.homes.begin(), e.homes.end(), n) == e.homes.end()) {
      candidates.push_back(n);
    }
  }
  std::vector<NodeId> fresh;
  size_t next = 0;
  for (size_t i = 0; i < slots && next < candidates.size(); ++i) {
    if (i == e.homes.size()) {
      e.homes.push_back(candidates[next++]);
    } else if (!health_->up(e.homes[i])) {
      e.homes[i] = candidates[next++];
      e.corrupt_mask &= ~(1u << i);  // the rebuilt fragment is clean
    } else {
      continue;
    }
    fresh.push_back(e.homes[i]);
  }
  return fresh;
}

u64 ChunkPlacement::bytes_of(const ChunkKey& key) const {
  auto it = entries_.find(key);
  return it == entries_.end() ? 0 : it->second.bytes;
}

ChunkPlacement::DemotePlan ChunkPlacement::demote(const ChunkKey& key) {
  DemotePlan plan;
  if (cold_k_ == 0) return plan;
  auto it = entries_.find(key);
  if (it == entries_.end()) return plan;
  Entry& e = it->second;
  if (e.k == cold_k_ && e.m == cold_m_) return plan;  // already cold
  bool needs_decode = false;
  plan.read = read_plan(key, &needs_decode);
  if (plan.read.empty()) return plan;  // unreadable: heal/restore territory
  plan.trim_bytes = e.frag_bytes;
  for (NodeId n : e.homes) {
    if (health_->up(n)) plan.trim.push_back(n);
  }
  e.k = static_cast<u16>(cold_k_);
  e.m = static_cast<u16>(cold_m_);
  e.frag_bytes = erasure::fragment_bytes(e.bytes, cold_k_);
  e.corrupt_mask = 0;
  e.homes = place_n(key, static_cast<size_t>(cold_k_ + cold_m_));
  plan.write = e.homes;
  plan.write_bytes = e.frag_bytes;
  plan.logical_bytes = e.bytes;
  return plan;
}

size_t ChunkPlacement::clean_alive(const Entry& e) const {
  size_t clean = 0;
  for (size_t i = 0; i < e.homes.size(); ++i) {
    if (health_->up(e.homes[i]) && !((e.corrupt_mask >> i) & 1u)) ++clean;
  }
  return clean;
}

bool ChunkPlacement::entry_lost(const Entry& e) const {
  return clean_alive(e) < e.k;
}

bool ChunkPlacement::entry_degraded(const Entry& e,
                                    size_t alive_nodes) const {
  const size_t clean = clean_alive(e);
  if (clean < e.k) return false;  // lost, not degraded
  return clean < std::min(static_cast<size_t>(e.k + e.m), alive_nodes);
}

u64 ChunkPlacement::lost_chunks() const {
  u64 lost = 0;
  for (const auto& [key, e] : entries_) {
    if (entry_lost(e)) ++lost;
  }
  return lost;
}

u64 ChunkPlacement::lost_bytes() const {
  u64 lost = 0;
  for (const auto& [key, e] : entries_) {
    if (entry_lost(e)) lost += e.bytes;
  }
  return lost;
}

std::vector<u64> ChunkPlacement::bytes_per_node() const {
  std::vector<u64> out(static_cast<size_t>(health_->num_nodes()), 0);
  for (const auto& [key, e] : entries_) {
    for (NodeId n : e.homes) out[static_cast<size_t>(n)] += e.frag_bytes;
  }
  return out;
}

}  // namespace dsim::ckptstore
