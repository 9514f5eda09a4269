// Shared restart-safe test programs used across the test suite.
//
// Each program follows the restart contract (DESIGN.md §3.2): durable state
// lives in the "state" segment, progress registers drive read/write_exact,
// and every co_await boundary leaves the state consistent. Results are
// written to /shared/results/<name> so tests can compare a checkpointed+
// restarted run against an undisturbed one.
#pragma once

#include <string>

#include "sim/kernel.h"
#include "sim/pctx.h"

namespace dsim::test {

/// Register all test programs with the kernel.
void register_test_programs(sim::Kernel& k);

/// Fetch a result file written by a test program ("" if missing).
std::string read_result(sim::Kernel& k, const std::string& name);

// Program names (argv conventions documented in testprogs.cc):
inline constexpr const char* kPingServer = "pp_server";
inline constexpr const char* kPingClient = "pp_client";
inline constexpr const char* kComputeLoop = "compute_loop";
inline constexpr const char* kPipeChain = "pipe_chain";
inline constexpr const char* kShmPair = "shm_pair";
inline constexpr const char* kPtyShell = "pty_shell";
inline constexpr const char* kSpawnTree = "spawn_tree";
inline constexpr const char* kDup2Log = "dup2_log";

}  // namespace dsim::test
