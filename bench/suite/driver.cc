// suite_driver: runs one benchmark workload on one seed and prints one
// JSON record on stdout.
//
//   suite_driver --workload NAME --seed N --seconds S --mode measure|traced
//                --out DIR
//
// measure: repeat untraced episodes until S host seconds have passed and
//          report the end-to-end metrics (plus the host time per
//          DmtcpControl call) as medians.
// traced:  one episode with --trace-out/--metrics-out/--health-out armed
//          under DIR, then the kernel replay over its final images; reports
//          the per-layer ledger and the traced run's end-to-end metrics,
//          which must equal the untraced ones exactly.
//
// The exit code is 0 whenever a record was printed; failed checks are
// counted in the record's ops_failed (run.py turns them into a failure).
#include <malloc.h>
#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "suite.h"

namespace dsim::suite {

namespace {

constexpr int kSetupSamplesPerEpisode = 3;

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

std::string json_str(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  out += '"';
  return out;
}

void print_record(const std::string& workload, u64 seed, const char* mode,
                  size_t episodes, u64 ops, u64 ops_failed,
                  const std::vector<std::string>& failures, const Ledger& m) {
  std::printf(
      "{\"workload\": %s, \"seed\": %llu, \"mode\": \"%s\", "
      "\"episodes\": %zu, \"ops\": %llu, \"ops_failed\": %llu, "
      "\"failures\": [",
      json_str(workload).c_str(), static_cast<unsigned long long>(seed), mode,
      episodes, static_cast<unsigned long long>(ops),
      static_cast<unsigned long long>(ops_failed));
  const char* sep = "";
  for (const std::string& f : failures) {
    std::printf("%s%s", sep, json_str(f).c_str());
    sep = ", ";
  }
  std::printf("], \"metrics\": {");
  sep = "";
  for (const auto& [name, x] : m) {
    std::printf("%s%s: {\"value\": %.17g, \"unit\": %s, \"n\": %zu}", sep,
                json_str(name).c_str(), x.value, json_str(x.unit).c_str(),
                x.n);
    sep = ", ";
  }
  std::printf("}}\n");
}

/// The simulated-clock end-to-end metrics of one episode.
void put_sim(Ledger& m, const Episode& e) {
  m["ckpt_pause_s"] = {median(e.pauses), "s", e.pauses.size()};
  m["durable_s"] = {median(e.durables), "s", e.durables.size()};
  m["restart_s"] = {median(e.restarts), "s", e.restarts.size()};
  m["storage_ratio"] = {e.storage_ratio, "ratio", 1};
}

bool same_sim(const Episode& a, const Episode& b) {
  return a.pauses == b.pauses && a.durables == b.durables &&
         a.restarts == b.restarts && a.storage_ratio == b.storage_ratio;
}

/// Compare every episode's application results with the reference run.
void check_results(Episode& e, const std::string& reference) {
  for (const std::string& r : e.results) {
    e.check(!reference.empty() && r == reference,
            "restarted result '" + r + "' equals the uninterrupted run's '" +
                reference + "'");
  }
}

int usage() {
  std::fprintf(stderr,
               "usage: suite_driver --workload NAME --seed N --seconds S "
               "--mode measure|traced --out DIR\n");
  return 2;
}

}  // namespace

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const size_t m = v.size() / 2;
  return v.size() % 2 ? v[m] : (v[m - 1] + v[m]) / 2;
}

double probe_seconds() {
  const auto t0 = Clock::now();
  u64 x = 0x9E3779B97F4A7C15ull;
  for (int i = 0; i < 3'000'000; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
  }
  g_sink = x;
  return seconds_since(t0);
}

}  // namespace dsim::suite

int main(int argc, char** argv) {
  using namespace dsim;
  using namespace dsim::suite;
  const Clock::time_point process_start = Clock::now();
  // Keep freed heap pages mapped, so every episode after the first reuses
  // pages instead of faulting them in again: on a shared VM a page fault's
  // cost swings with the host's load (faults were ~40% of a store set-up
  // on a 4-vCPU Xeon VM).
  mallopt(M_MMAP_MAX, 0);
  mallopt(M_TRIM_THRESHOLD, 1 << 30);
  std::string name, mode, out;
  u64 seed = 1;
  double seconds = 10;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* v = argv[i + 1];
    if (flag == "--workload") name = v;
    else if (flag == "--seed") seed = std::strtoull(v, nullptr, 10);
    else if (flag == "--seconds") seconds = std::strtod(v, nullptr);
    else if (flag == "--mode") mode = v;
    else if (flag == "--out") out = v;
    else return usage();
  }
  const auto& all = workloads();
  const auto wl =
      std::find_if(all.begin(), all.end(),
                   [&](const Workload& w) { return w.name == name; });
  if (wl == all.end() || (mode != "measure" && mode != "traced") ||
      out.empty() || seconds <= 0) {
    return usage();
  }

  Ledger m;
  if (mode == "measure") {
    // Set-up is short and the machine's speed drifts over seconds, so
    // set-up gets samples of its own, spread over the run: a few
    // set-up-only episodes before every measured one.
    std::vector<double> setups;
    std::vector<Episode> eps;
    do {
      EpisodeConfig cfg;
      cfg.seed = seed;
      cfg.setup_only = true;
      for (int i = 0; i < kSetupSamplesPerEpisode; ++i) {
        setups.push_back(wl->episode(cfg).host.get("setup"));
      }
      cfg.setup_only = false;
      eps.push_back(wl->episode(cfg));
      setups.push_back(eps.back().host.get("setup"));
    } while (seconds_since(process_start) < seconds);
    const double rss = peak_rss_mb();

    const std::string reference = wl->reference(seed);
    u64 ops = 0, ops_failed = 0;
    std::vector<std::string> failures;
    for (Episode& e : eps) {
      check_results(e, reference);
      e.check(same_sim(e, eps.front()),
              "simulated metrics repeat exactly across same-seed episodes");
      ops += e.ops;
      ops_failed += e.ops_failed;
      failures.insert(failures.end(), e.failures.begin(), e.failures.end());
    }
    const size_t n = eps.size();
    auto over_episodes = [&](auto host_seconds) {
      std::vector<double> v;
      for (const Episode& e : eps) v.push_back(host_seconds(e.host));
      return Metric{median(v), "s", n};
    };
    put_sim(m, eps.front());
    m["host_s"] = over_episodes([](const HostTimer& h) { return h.total(); });
    m["setup_s"] = {median(setups), "s", setups.size()};
    m["peak_rss_mb"] = {rss, "MiB", 1};
    m["host.wall_s"] =
        over_episodes([](const HostTimer& h) { return h.wall(); });
    for (const std::string call : {"run", "checkpoint", "restart", "kill"}) {
      m["host.core." + call + "_s"] =
          over_episodes([&](const HostTimer& h) { return h.get(call); });
    }
    print_record(name, seed, "measure", n, ops, ops_failed, failures, m);
    return 0;
  }

  EpisodeConfig cfg;
  cfg.seed = seed;
  cfg.trace_prefix = out + "/" + name + "-seed" + std::to_string(seed);
  Episode e = wl->episode(cfg);
  const double rss = peak_rss_mb();
  check_results(e, wl->reference(seed));
  replay_kernels(e.corpus, seed, e);
  m = e.layers;
  put_sim(m, e);
  m["host_s"] = {e.host.total(), "s", 1};
  m["obs.trace_peak_rss_mb"] = {rss, "MiB", 1};
  print_record(name, seed, "traced", 1, e.ops, e.ops_failed, e.failures, m);
  return 0;
}
