// Number and string formatting shared by the observability JSON writers
// (critical-path reports, SLO state, round series, metrics files and the
// --health-out document). Internal: not part of any obs/ interface.
#pragma once

#include <cstdio>
#include <string>

#include "util/types.h"

namespace dsim::obs {

/// A double in %.9g: exact enough to round-trip every reported figure.
inline std::string fmt_double(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.9g", v);
  return buf;
}

/// Simulated nanoseconds as microseconds at nanosecond precision (%.3f),
/// matching the Chrome trace export.
inline std::string fmt_us(SimTime t) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.3f", static_cast<double>(t) / 1e3);
  return buf;
}

/// Escape the characters a JSON string literal cannot hold as-is.
inline std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out;
}

}  // namespace dsim::obs
