#include "obs/critpath.h"

#include <algorithm>
#include <cstdio>
#include <map>
#include <tuple>

#include "util/assertx.h"

namespace dsim::obs {

namespace {

std::string fmt_double(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.9g", v);
  return buf;
}

std::string fmt_us(SimTime t) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.3f", static_cast<double>(t) / 1e3);
  return buf;
}

std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out;
}

using AggKey = std::tuple<std::string, i32, std::string, i32>;

}  // namespace

SimTime CritPathReport::attributed_ns() const {
  SimTime sum = 0;
  for (const auto& e : entries) sum += e.ns;
  return sum;
}

double CritPathReport::fraction(size_t i) const {
  if (i >= entries.size() || total_ns() <= 0) return 0;
  return static_cast<double>(entries[i].ns) /
         static_cast<double>(total_ns());
}

std::string CritPathReport::json() const {
  std::string out = "{\"begin_us\":" + fmt_us(window_begin);
  out += ",\"end_us\":" + fmt_us(window_end);
  out += ",\"total_seconds\":" + fmt_double(total_seconds());
  out += ",\"entries\":[";
  for (size_t i = 0; i < entries.size(); ++i) {
    const CritPathEntry& e = entries[i];
    if (i != 0) out += ",";
    out += "{\"stage\":\"" + json_escape(e.stage) + "\"";
    out += ",\"pid\":" + std::to_string(e.pid);
    out += ",\"lane\":\"" + json_escape(e.lane) + "\"";
    out += ",\"tenant\":" + std::to_string(e.tenant);
    out += ",\"ns\":" + std::to_string(e.ns);
    out += ",\"seconds\":" + fmt_double(e.seconds());
    out += ",\"fraction\":" + fmt_double(fraction(i));
    out += "}";
  }
  out += "]}";
  return out;
}

CritPathReport critical_path(const Tracer& tracer, SimTime begin,
                             SimTime end,
                             const std::vector<PhaseMark>& phases) {
  CritPathReport rep;
  rep.window_begin = begin;
  rep.window_end = end;
  if (end <= begin) return rep;

  // Spans that overlap the window (zero-length spans — alert markers and
  // trivially instant stages — never explain elapsed time, so they are
  // excluded), sorted by begin so "latest-started active span" is a
  // suffix scan.
  std::vector<const SpanRecord*> spans;
  for (const SpanRecord& s : tracer.spans()) {
    if (s.end > s.begin && s.end > begin && s.begin < end) {
      spans.push_back(&s);
    }
  }
  std::sort(spans.begin(), spans.end(),
            [](const SpanRecord* a, const SpanRecord* b) {
              if (a->begin != b->begin) return a->begin < b->begin;
              return a->id < b->id;
            });
  // Span end times, sorted, for the "jump over an uncovered gap" step.
  std::vector<SimTime> ends;
  ends.reserve(spans.size());
  for (const SpanRecord* s : spans) ends.push_back(s->end);
  std::sort(ends.begin(), ends.end());

  const auto& lanes = tracer.lane_names();
  const auto lane_of = [&](const SpanRecord* s) -> std::string {
    const size_t i = s->tid;
    return i >= 1 && i <= lanes.size() ? lanes[i - 1].second
                                       : std::string();
  };

  std::map<AggKey, SimTime> agg;
  // Attribute the uncovered gap [lo, hi) to the coordinator phases it
  // fell in, splitting exactly at phase boundaries; anything outside
  // every phase is "idle". Phases are disjoint and sorted, so walking
  // them forward partitions the gap.
  const auto attribute_gap = [&](SimTime lo, SimTime hi) {
    SimTime t = lo;
    for (const PhaseMark& p : phases) {
      if (t >= hi) break;
      const SimTime pb = std::max(t, p.begin);
      const SimTime pe = std::min(hi, p.end);
      if (pe <= pb) continue;
      if (pb > t) agg[AggKey{"idle", -1, "", 0}] += pb - t;
      agg[AggKey{p.name, -1, "", 0}] += pe - pb;
      t = pe;
    }
    if (t < hi) agg[AggKey{"idle", -1, "", 0}] += hi - t;
  };

  SimTime t = end;
  while (t > begin) {
    // Latest-started span active at t-ε: begin < t <= end. Scan the
    // by-begin suffix below t backwards; the first hit has the maximal
    // begin (ties resolved to the highest id by the sort order).
    const SpanRecord* pick = nullptr;
    const auto hi = std::upper_bound(
        spans.begin(), spans.end(), t,
        [](SimTime v, const SpanRecord* s) { return v <= s->begin; });
    for (auto it = hi; it != spans.begin();) {
      --it;
      if ((*it)->end >= t) {
        pick = *it;
        break;
      }
    }
    if (pick != nullptr) {
      const SimTime lo = std::max(pick->begin, begin);
      agg[AggKey{pick->name, pick->pid, lane_of(pick), pick->tenant}] +=
          t - lo;
      t = lo;
    } else {
      // Nothing in flight: jump to the latest span end before t (or the
      // window start) and blame the gap on the enclosing phase.
      const auto e = std::lower_bound(ends.begin(), ends.end(), t);
      const SimTime lo =
          e == ends.begin() ? begin : std::max(begin, *(e - 1));
      attribute_gap(lo, t);
      t = lo;
    }
  }

  rep.entries.reserve(agg.size());
  for (const auto& [key, ns] : agg) {
    CritPathEntry e;
    e.stage = std::get<0>(key);
    e.pid = std::get<1>(key);
    e.lane = std::get<2>(key);
    e.tenant = std::get<3>(key);
    e.ns = ns;
    rep.entries.push_back(std::move(e));
  }
  std::sort(rep.entries.begin(), rep.entries.end(),
            [](const CritPathEntry& a, const CritPathEntry& b) {
              if (a.ns != b.ns) return a.ns > b.ns;
              if (a.stage != b.stage) return a.stage < b.stage;
              if (a.pid != b.pid) return a.pid < b.pid;
              if (a.lane != b.lane) return a.lane < b.lane;
              return a.tenant < b.tenant;
            });
  DSIM_CHECK_MSG(rep.attributed_ns() == rep.total_ns(),
                 "critical-path sweep must partition the window exactly");
  return rep;
}

}  // namespace dsim::obs
