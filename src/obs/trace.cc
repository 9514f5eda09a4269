#include "obs/trace.h"

#include <algorithm>
#include <cstdio>
#include <fstream>

namespace dsim::obs {

u32 Tracer::lane(i32 pid, const std::string& name) {
  auto key = std::make_pair(pid, name);
  const auto it = lanes_.find(key);
  if (it != lanes_.end()) return it->second;
  lane_names_.push_back(key);
  const u32 tid = static_cast<u32>(lane_names_.size());
  lanes_.emplace(std::move(key), tid);
  return tid;
}

u64 Tracer::begin(const char* name, i32 pid, const std::string& lane_name,
                  SimTime now, const TraceContext& ctx, u64 n) {
  SpanRecord rec;
  rec.id = next_span_++;
  rec.trace_id = ctx.trace_id;
  rec.parent = ctx.parent_span;
  rec.begin = now;
  rec.pid = pid;
  rec.tid = lane(pid, lane_name);
  rec.tenant = ctx.tenant;
  rec.qos = ctx.qos;
  rec.op = ctx.op;
  rec.n = n;
  rec.name = name;
  if (ctx.trace_id != 0 && ctx.parent_span == 0) {
    traces_[ctx.trace_id].root_span = rec.id;
  }
  open_.emplace(rec.id, rec);
  return rec.id;
}

void Tracer::end(u64 span, SimTime now) {
  if (span == 0) return;
  const auto it = open_.find(span);
  if (it == open_.end()) return;
  SpanRecord rec = it->second;
  open_.erase(it);
  rec.end = now;
  const SimTime dur = rec.end - rec.begin;
  stage_hist_[rec.name].record_n(to_seconds(dur), rec.n);
  if (rec.trace_id != 0) {
    const auto t = traces_.find(rec.trace_id);
    if (t != traces_.end()) {
      if (rec.id == t->second.root_span) {
        // The root just closed: its children must have tiled [begin, end)
        // exactly — same integer nanosecond total, no gaps, no overlap.
        if (!t->second.untiled && t->second.child_ns != dur) {
          tiling_violations_++;
        }
        traces_.erase(t);
      } else {
        t->second.child_ns += dur;
      }
    }
  }
  spans_.push_back(rec);
}

void Tracer::mark_untiled(u64 trace_id) {
  const auto it = traces_.find(trace_id);
  if (it != traces_.end()) it->second.untiled = true;
}

std::string Tracer::chrome_json() const {
  std::vector<const SpanRecord*> order;
  order.reserve(spans_.size());
  for (const SpanRecord& s : spans_) order.push_back(&s);
  std::sort(order.begin(), order.end(),
            [](const SpanRecord* a, const SpanRecord* b) {
              if (a->begin != b->begin) return a->begin < b->begin;
              return a->id < b->id;
            });

  std::string out = "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n";
  char buf[512];
  bool first = true;
  const auto emit = [&](const char* line) {
    if (!first) out += ",\n";
    out += line;
    first = false;
  };

  std::map<i32, int> pids;
  for (const auto& [pid, name] : lane_names_) pids[pid] = 1;
  for (const auto& [pid, unused] : pids) {
    (void)unused;
    if (pid == kServicePid) {
      std::snprintf(buf, sizeof(buf),
                    "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":%d,"
                    "\"args\":{\"name\":\"store-service\"}}",
                    pid);
    } else {
      std::snprintf(buf, sizeof(buf),
                    "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":%d,"
                    "\"args\":{\"name\":\"node%d\"}}",
                    pid, pid);
    }
    emit(buf);
  }
  for (size_t i = 0; i < lane_names_.size(); ++i) {
    std::snprintf(buf, sizeof(buf),
                  "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":%d,"
                  "\"tid\":%u,\"args\":{\"name\":\"%s\"}}",
                  lane_names_[i].first, static_cast<u32>(i + 1),
                  lane_names_[i].second.c_str());
    emit(buf);
  }

  for (const SpanRecord* s : order) {
    // Microseconds with three decimals: exact at ns resolution.
    std::snprintf(
        buf, sizeof(buf),
        "{\"name\":\"%s\",\"ph\":\"X\",\"ts\":%.3f,\"dur\":%.3f,"
        "\"pid\":%d,\"tid\":%u,\"args\":{\"trace\":%llu,\"span\":%llu,"
        "\"parent\":%llu,\"tenant\":%d,\"qos\":%u,\"op\":%u,\"n\":%llu}}",
        s->name, static_cast<double>(s->begin) / 1e3,
        static_cast<double>(s->end - s->begin) / 1e3, s->pid, s->tid,
        static_cast<unsigned long long>(s->trace_id),
        static_cast<unsigned long long>(s->id),
        static_cast<unsigned long long>(s->parent), s->tenant,
        static_cast<unsigned>(s->qos), static_cast<unsigned>(s->op),
        static_cast<unsigned long long>(s->n));
    emit(buf);
  }
  out += "\n]}\n";
  return out;
}

bool Tracer::write_chrome_json(const std::string& path) const {
  std::ofstream f(path);
  if (!f) return false;
  f << chrome_json();
  return f.good();
}

}  // namespace dsim::obs
