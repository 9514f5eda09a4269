#include "apps/desktop.h"

#include "apps/app_util.h"
#include "util/assertx.h"

namespace dsim::apps {
namespace {

using sim::MemRef;
using sim::Task;

// rss/ratio calibrated against Fig. 3b (compressed sizes ≈ rss * ratio) and
// the §5.1 text; thread/child structure from each application's nature.
const std::vector<DesktopProfile> kProfiles = {
    {"bc", 3.2, 0.38, 1, 8, nullptr, false},
    {"emacs", 34, 0.30, 1, 40, nullptr, false},
    {"ghci", 31, 0.29, 2, 28, nullptr, false},
    {"ghostscript", 24, 0.30, 1, 24, nullptr, false},
    {"gnuplot", 13, 0.31, 1, 22, nullptr, false},
    {"gst", 27, 0.30, 1, 18, nullptr, false},
    {"lynx", 13, 0.31, 1, 20, nullptr, false},
    {"macaulay2", 96, 0.31, 2, 30, nullptr, false},
    {"matlab", 112, 0.29, 4, 80, nullptr, false},
    {"mzscheme", 17, 0.30, 1, 14, nullptr, false},
    {"ocaml", 19, 0.31, 1, 12, nullptr, false},
    {"octave", 30, 0.30, 2, 36, nullptr, false},
    {"perl", 20, 0.30, 1, 16, nullptr, false},
    {"php", 23, 0.30, 1, 24, nullptr, false},
    {"python", 20, 0.30, 1, 24, nullptr, false},
    {"ruby", 23, 0.30, 1, 18, nullptr, false},
    {"slsh", 10, 0.31, 1, 12, nullptr, false},
    {"sqlite", 9, 0.32, 1, 10, nullptr, false},
    {"tclsh", 6, 0.33, 1, 10, nullptr, false},
    {"tightvnc+twm", 43, 0.30, 2, 30, "desktop_child", true},
    {"vim/cscope", 26, 0.30, 1, 18, "desktop_child", true},
    // §5.1: 680 MB after 12 minutes, 540 dynamic libraries, 225 MB gzipped.
    {"runcms", 680, 0.331, 2, 540, nullptr, false},
};

/// Build the memory layout for a profile: `libs` mapped-library segments
/// plus a heap, with a zero/random extent mix hitting the target ratio.
/// (gzip-like codecs compress our zero extents to ~0.004 and random extents
/// to ~1.02 of their size; mix fraction follows.)
void build_memory(sim::ProcessCtx& ctx, const DesktopProfile& p) {
  if (ctx.seg("heap")) return;  // restored from the image
  const u64 total = static_cast<u64>(p.rss_mb * 1024.0 * 1024.0);
  const double zero_frac =
      std::clamp((1.02 - p.compress_ratio) / (1.02 - 0.004), 0.0, 1.0);
  // Libraries: many smaller segments (RunCMS maps 540 of them, §5.1).
  const u64 lib_total = total / 3;
  const u64 lib_sz = std::max<u64>(lib_total / std::max(p.libs, 1), 4096);
  for (int i = 0; i < p.libs; ++i) {
    auto& seg = ctx.alloc("lib" + std::to_string(i), sim::MemKind::kLib,
                          lib_sz);
    const u64 zeros = static_cast<u64>(static_cast<double>(lib_sz) *
                                       zero_frac);
    if (zeros < lib_sz) {
      seg.data.fill(zeros, lib_sz - zeros, sim::ExtentKind::kRand,
                    mix_seed(0x11b, static_cast<u64>(i)));
    }
  }
  // Heap: one large segment with the same mix + a small real working set.
  const u64 heap_sz = total - lib_sz * static_cast<u64>(p.libs);
  auto& heap = ctx.alloc("heap", sim::MemKind::kHeap, heap_sz);
  const u64 zeros = static_cast<u64>(static_cast<double>(heap_sz) *
                                     zero_frac);
  if (zeros < heap_sz) {
    heap.data.fill(zeros, heap_sz - zeros, sim::ExtentKind::kRand,
                   mix_seed(0x4ea9, static_cast<u64>(p.rss_mb)));
  }
}

struct DeskState {
  u64 i = 0;
  u64 acc = 0;
  i32 pty_master = kNoFd;
  i32 child = kNoPid;
  u8 setup_done = 0;
  u8 pad_[7] = {};  // explicit: stored state must have no padding bits
};

/// desktop_app <profile> <iters (0 = run forever)> <result-name>
Task<int> desktop_main(sim::ProcessCtx& ctx) {
  const std::string profile = args(ctx, 0, "python");
  const u64 iters = static_cast<u64>(argi(ctx, 1, 0));
  const std::string result = args(ctx, 2, profile);
  const DesktopProfile& p = desktop_profile(profile);

  build_memory(ctx, p);
  StateView<DeskState> st(ctx);
  MemRef work = buffer(ctx, "workset", 64 * 1024);
  DeskState s = st.get();

  if (!s.setup_done) {
    if (p.uses_pty) {
      auto [m, sl] = co_await ctx.openpty();
      s.pty_master = m;
      ctx.set_ctty(0);
      (void)sl;
    }
    if (p.child) {
      std::vector<std::string> cargv{profile};
      s.child = co_await ctx.spawn(p.child, std::move(cargv));
    }
    // Interactive programs install signal handlers (restored on restart).
    ctx.process().signals().handler[2] = 7;   // SIGINT
    ctx.process().signals().handler[15] = 7;  // SIGTERM
    for (int t = 1; t < p.threads; ++t) ctx.spawn_thread(static_cast<u32>(t));
    s.setup_done = 1;
    st.set(s);
  }

  // "Interactive" loop: light compute touching a real working set.
  std::vector<std::byte> host(4096);
  while (iters == 0 || s.i < iters) {
    co_await ctx.cpu_chunked(300e-6, 0);
    fill_payload(host, s.acc, s.i);
    work.seg->data.write(work.off + (s.i % 16) * 4096, host);
    s.acc = mix_seed(s.acc, s.i);
    s.i++;
    st.set(s);
    co_await ctx.sleep(2 * timeconst::kMillisecond);
  }
  if (ctx.phase() == 0) {
    char out[64];
    std::snprintf(out, sizeof out, "acc=%016llx i=%llu",
                  static_cast<unsigned long long>(s.acc),
                  static_cast<unsigned long long>(s.i));
    co_await write_result(ctx, result, out);
    ctx.phase() = 1;
  }
  co_return 0;
}

/// Idle worker threads of multithreaded desktop apps.
Task<void> desktop_worker(sim::ProcessCtx& ctx, u32 role) {
  (void)role;
  while (true) {
    co_await ctx.cpu_chunked(50e-6, 4);
    co_await ctx.sleep(5 * timeconst::kMillisecond);
  }
}

/// Co-process (cscope for vim; twm for the vnc server): small footprint.
Task<int> desktop_child_main(sim::ProcessCtx& ctx) {
  if (!ctx.seg("heap")) {
    auto& heap = ctx.alloc("heap", sim::MemKind::kHeap, 6ull << 20);
    heap.data.fill(3ull << 20, 3ull << 20, sim::ExtentKind::kRand, 0xc0);
  }
  StateView<DeskState> st(ctx);
  DeskState s = st.get();
  while (true) {
    co_await ctx.cpu_chunked(100e-6, 0);
    s.i++;
    st.set(s);
    co_await ctx.sleep(4 * timeconst::kMillisecond);
  }
}

}  // namespace

const std::vector<DesktopProfile>& desktop_profiles() { return kProfiles; }

const DesktopProfile& desktop_profile(const std::string& name) {
  for (const auto& p : kProfiles) {
    if (p.name == name) return p;
  }
  DSIM_UNREACHABLE("unknown desktop profile");
}

void register_desktop_programs(sim::Kernel& k) {
  {
    sim::Program p;
    p.name = "desktop_app";
    p.main = desktop_main;
    p.worker = desktop_worker;
    k.programs().add(std::move(p));
  }
  sim::Program c;
  c.name = "desktop_child";
  c.main = desktop_child_main;
  k.programs().add(std::move(c));
}

}  // namespace dsim::apps
