// Fundamental types shared across dmtcp-sim.
#pragma once

#include <cstdint>
#include <cstddef>
#include <string>

namespace dsim {

using u8 = std::uint8_t;
using u16 = std::uint16_t;
using u32 = std::uint32_t;
using u64 = std::uint64_t;
using i8 = std::int8_t;
using i16 = std::int16_t;
using i32 = std::int32_t;
using i64 = std::int64_t;

/// Virtual simulation time in nanoseconds. All scheduling, device and
/// protocol costs are expressed in this clock; host wall time never leaks
/// into results, which keeps every run bit-reproducible.
using SimTime = i64;

namespace timeconst {
inline constexpr SimTime kNanosecond = 1;
inline constexpr SimTime kMicrosecond = 1'000;
inline constexpr SimTime kMillisecond = 1'000'000;
inline constexpr SimTime kSecond = 1'000'000'000;
}  // namespace timeconst

/// Convert seconds (double) to SimTime, rounding to nearest nanosecond.
constexpr SimTime from_seconds(double s) {
  return static_cast<SimTime>(s * 1e9 + (s >= 0 ? 0.5 : -0.5));
}
/// Convert SimTime to seconds.
constexpr double to_seconds(SimTime t) { return static_cast<double>(t) * 1e-9; }

/// Identifier of a simulated cluster node (host).
using NodeId = i32;
/// Kernel-level ("real") process id on a node.
using Pid = i32;
/// Thread id within a process.
using Tid = i32;
/// File descriptor number.
using Fd = i32;

inline constexpr Pid kNoPid = -1;
inline constexpr Fd kNoFd = -1;

/// Format simulation time as a human-readable string (e.g. "2.034s").
std::string format_time(SimTime t);

}  // namespace dsim
