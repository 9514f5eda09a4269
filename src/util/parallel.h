// A small fork-join pool for host work that splits into independent jobs.
//
// The incremental codec compresses a generation's new chunks and decodes a
// restart's cold chunks on it (mtcp.cc). The simulation itself stays on
// one thread: only pure functions of inputs nobody writes during the call
// run here, and each job writes only its own output slot.
#pragma once

#include <cstddef>
#include <functional>

namespace dsim {

/// Upper bound on the host threads parallel_for runs on, the caller
/// included.
inline constexpr unsigned kMaxPoolWidth = 4;

/// Host threads parallel_for runs on, the caller included:
/// min(std::thread::hardware_concurrency(), kMaxPoolWidth), at least 1.
unsigned pool_width();

/// Run fn(0) .. fn(n - 1), each exactly once and in no particular order,
/// on the calling thread and up to pool_width() - 1 workers; return when
/// every call has finished. The workers start on the first call with more
/// than one job and are joined at exit; with a width of 1 the caller runs
/// every job. If a call throws, the calls not yet started are skipped and
/// the first exception is rethrown here once every running call has
/// returned. Calls come from one thread at a time, and fn must not call
/// parallel_for.
void parallel_for(size_t n, const std::function<void(size_t)>& fn);

}  // namespace dsim
