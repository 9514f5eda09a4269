#include "util/types.h"

#include <cstdio>

namespace dsim {

std::string format_time(SimTime t) {
  char buf[64];
  const double s = to_seconds(t);
  if (t < timeconst::kMicrosecond) {
    std::snprintf(buf, sizeof buf, "%lldns", static_cast<long long>(t));
  } else if (t < timeconst::kMillisecond) {
    std::snprintf(buf, sizeof buf, "%.2fus", s * 1e6);
  } else if (t < timeconst::kSecond) {
    std::snprintf(buf, sizeof buf, "%.2fms", s * 1e3);
  } else {
    std::snprintf(buf, sizeof buf, "%.3fs", s);
  }
  return buf;
}

}  // namespace dsim
