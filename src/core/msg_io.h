// Length-prefixed Msg I/O over simulated TCP (manager plane).
//
// Managers and the coordinator are never checkpointed mid-message (managers
// block at "barrier 1" between rounds; the coordinator is outside the
// computation), so plain blocking loops are sufficient here — no progress
// registers needed.
#pragma once

#include <optional>

#include "core/protocol.h"
#include "sim/kernel.h"

namespace dsim::core {

using sim::Task;

Task<void> send_msg(sim::Kernel& k, sim::Thread& t, sim::TcpVNode& s,
                    const Msg& m);

/// Returns nullopt on EOF (peer closed).
Task<std::optional<Msg>> recv_msg(sim::Kernel& k, sim::Thread& t,
                                  sim::TcpVNode& s);

/// Wait at the coordinator's barrier `name` (§4.3): announce it, then read
/// until its release. `expected` > 0 overrides the count the coordinator
/// releases at (0: every registered client).
Task<void> barrier_wait(sim::Kernel& k, sim::Thread& t, sim::TcpVNode& s,
                        const std::string& name, int expected);

}  // namespace dsim::core
