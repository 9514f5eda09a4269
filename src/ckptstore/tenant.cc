#include "ckptstore/tenant.h"

#include <cstdlib>

#include "util/assertx.h"

namespace dsim::ckptstore {

void FairQueue::push(QosClass qos, TenantId tenant, double weight,
                     Item item) {
  Band& b = bands_[static_cast<size_t>(qos)];
  SubQueue& sq = b.queues[tenant];
  // Weight re-read on every push so a registry reconfiguration takes
  // effect on the next grant; floor keeps a misconfigured weight from
  // freezing the rotation.
  sq.quantum = static_cast<u64>(static_cast<double>(kFairQueueQuantumBytes) *
                                std::max(weight, 0.01));
  if (sq.items.empty()) {
    // Becoming active is the sub-queue's first visit: grant its quantum
    // now, so its head is served as soon as it reaches the front.
    b.active.push_back(tenant);
    sq.deficit = sq.quantum;
  }
  sq.items.push_back(std::move(item));
  ++size_;
}

FairQueue::Item FairQueue::pop() {
  DSIM_CHECK_MSG(size_ > 0, "pop() from an empty fair queue");
  // Strict band priority: restart (higher enum value) drains first.
  for (int band = kNumQosBands - 1; band >= 0; --band) {
    Band& b = bands_[static_cast<size_t>(band)];
    while (!b.active.empty()) {
      const TenantId t = b.active.front();
      SubQueue& sq = b.queues[t];
      if (sq.items.front().cost <= sq.deficit) {
        Item item = std::move(sq.items.front());
        sq.items.pop_front();
        sq.deficit -= item.cost;
        --size_;
        if (sq.items.empty()) {
          // Classic DRR: an emptied queue forfeits its leftover deficit
          // (no banking credit across idle periods).
          sq.deficit = 0;
          b.active.pop_front();
        }
        return item;
      }
      // Head doesn't fit the deficit: grant the next visit's quantum and
      // rotate. Each full rotation grows every waiting queue's deficit, so
      // even an oversized head is served after finitely many rounds.
      sq.deficit += sq.quantum;
      b.active.pop_front();
      b.active.push_back(t);
    }
  }
  DSIM_CHECK_MSG(false, "fair queue size/band bookkeeping diverged");
  return {};
}

TenantId tenant_of_owner(const std::string& owner) {
  // "t<id>/<rest>" — anything else (legacy plain-vpid owners) is the
  // default tenant.
  if (owner.size() < 3 || owner[0] != 't') return kDefaultTenant;
  const size_t slash = owner.find('/');
  if (slash == std::string::npos || slash < 2) return kDefaultTenant;
  char* end = nullptr;
  const long id = std::strtol(owner.c_str() + 1, &end, 10);
  if (end != owner.c_str() + slash) return kDefaultTenant;
  return static_cast<TenantId>(id);
}

}  // namespace dsim::ckptstore
