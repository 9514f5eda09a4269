#include "mtcp/mtcp.h"

#include <algorithm>
#include <set>

#include "sim/model_params.h"
#include "util/assertx.h"
#include "util/parallel.h"

namespace dsim::mtcp {
namespace {

using sim::ByteImage;
using sim::ExtentKind;

/// Measured compression ratio of a pattern extent, from a materialized
/// sample (cached per (codec, kind, seed-class)).
double pattern_ratio(compress::CodecKind codec, const ByteImage::Extent& ext,
                     u64 off) {
  constexpr u64 kSample = 64 * 1024;
  // Zero extents: one measurement per codec suffices.
  static std::map<compress::CodecKind, double> zero_cache;
  if (ext.kind == ExtentKind::kZero) {
    auto zit = zero_cache.find(codec);
    if (zit == zero_cache.end()) {
      std::vector<std::byte> zeros(kSample);
      zit = zero_cache.emplace(codec,
                               compress::measure_ratio(codec, zeros)).first;
    }
    return zit->second;
  }
  // Random extents: position-based content; sample the actual range head.
  static std::map<std::pair<compress::CodecKind, u64>, double> rand_cache;
  auto it = rand_cache.find({codec, ext.seed});
  if (it != rand_cache.end()) return it->second;
  std::vector<std::byte> sample(std::min<u64>(kSample, ext.len));
  for (u64 i = 0; i < sample.size(); ++i) {
    sample[i] = static_cast<std::byte>(ByteImage::rand_byte(ext.seed, off + i));
  }
  const double r = compress::measure_ratio(codec, sample);
  rand_cache.emplace(std::make_pair(codec, ext.seed), r);
  return r;
}

}  // namespace

ProcessImage capture(sim::Process& p) {
  ProcessImage img;
  img.prog_name = p.prog_name();
  img.argv = p.argv();
  img.env = p.env();
  img.virt_pid = p.pid();   // overwritten by the DMTCP layer with the vpid
  img.virt_ppid = p.ppid();
  img.origin_node = p.node();
  img.signals = p.signals();
  img.ctty = p.ctty();
  for (const auto& seg : p.mem().segments()) {
    SegmentImage si;
    si.name = seg->name;
    si.kind = seg->kind;
    si.shared = seg->shared;
    si.backing_path = seg->backing_path;
    si.data = seg->data;  // COW: O(#extents)
    img.segments.push_back(std::move(si));
  }
  for (const auto& t : p.threads()) {
    if (t->kind() == sim::ThreadKind::kManager) continue;
    if (!t->alive()) continue;
    img.threads.push_back(ThreadImage{t->kind(), t->context()});
  }
  // Main thread first (restore recreates in order).
  std::stable_sort(img.threads.begin(), img.threads.end(),
                   [](const ThreadImage& a, const ThreadImage& b) {
                     return static_cast<int>(a.kind) < static_cast<int>(b.kind);
                   });
  return img;
}

EncodedImage encode(const ProcessImage& img, compress::CodecKind codec) {
  ByteWriter w;
  img.serialize(w);
  auto serialized = w.take();

  EncodedImage out;
  // Virtual uncompressed size: full memory plus (small) metadata. Pattern
  // extents are descriptors in `serialized` but count at full size here.
  u64 pattern_bytes = 0;
  u64 zero_bytes = 0;
  double pattern_compressed = 0;
  for (const auto& seg : img.segments) {
    seg.data.for_each_extent([&](u64 off, const ByteImage::Extent& ext) {
      if (ext.kind == ExtentKind::kZero) zero_bytes += ext.len;
      if (ext.kind == ExtentKind::kReal) return;
      pattern_bytes += ext.len;
      if (codec != compress::CodecKind::kNone) {
        pattern_compressed +=
            static_cast<double>(ext.len) * pattern_ratio(codec, ext, off);
      }
    });
  }
  out.virtual_uncompressed = serialized.size() + pattern_bytes;

  out.bytes = compress::codec(codec).compress(serialized);
  if (codec == compress::CodecKind::kNone) {
    out.virtual_compressed = out.virtual_uncompressed;
    out.compress_seconds = 0;
    // Direct write path (no gzip pipe): assembly is a fast gather.
    out.assemble_seconds = static_cast<double>(out.virtual_uncompressed) /
                           sim::params::kMemcpyBw;
  } else {
    out.virtual_compressed =
        out.bytes.size() + static_cast<u64>(pattern_compressed);
    // gzip cost split by content class (DESIGN.md §6): zero pages fly,
    // everything else crawls at data rate.
    const u64 nonzero = out.virtual_uncompressed - zero_bytes;
    out.compress_seconds =
        compress::codec_cost_factor(codec) *
        (static_cast<double>(zero_bytes) / sim::params::kGzipZeroBw +
         static_cast<double>(nonzero) / sim::params::kGzipDataBw);
    out.assemble_seconds = static_cast<double>(out.virtual_uncompressed) /
                           sim::params::kMemcpyBw;
  }
  return out;
}

ProcessImage decode(std::span<const std::byte> container,
                    double* decode_seconds) {
  auto serialized = compress::Codec::decompress(container);
  ByteReader r(serialized);
  ProcessImage img = ProcessImage::deserialize(r);
  if (decode_seconds) {
    *decode_seconds = decode_cpu_seconds(img.memory_bytes(),
                                         compress::container_kind(container));
  }
  return img;
}

double decode_cpu_seconds(u64 bytes, compress::CodecKind codec) {
  const double virt = static_cast<double>(bytes);
  return codec == compress::CodecKind::kNone
             ? virt / sim::params::kImageAssembleBw
             : virt / sim::params::kGunzipOutBw;
}

double encode_cpu_seconds(u64 len, ExtentKind kind,
                          compress::CodecKind codec) {
  const double bw = kind == ExtentKind::kZero ? sim::params::kGzipZeroBw
                                              : sim::params::kGzipDataBw;
  return compress::codec_cost_factor(codec) * static_cast<double>(len) / bw;
}

void SegmentMemo::capture(sim::ByteImage& live) {
  auto log = live.take_soft_dirty();
  if (log.token == 0 || log.token != token) {
    spans.clear();
    keys.clear();
  }
  dirty = std::move(log.ranges);
  armed = live.arm_soft_dirty();
}

EncodedDelta encode_incremental(const ProcessImage& img,
                                compress::CodecKind codec,
                                const ckptstore::ChunkingParams& chunking,
                                const std::string& owner, int generation,
                                ckptstore::Repository& repo,
                                std::span<SegmentMemo* const> memos) {
  EncodedDelta out;
  ckptstore::Manifest mf;
  mf.owner = owner;
  mf.generation = generation;
  mf.chunking = chunking;
  mf.codec = static_cast<u8>(codec);
  {
    ByteWriter mw;
    img.serialize_meta(mw);
    mf.meta_blob = mw.take();
  }

  // Codec CPU is charged for new chunk bytes only; the modeled scan/hash
  // pass still walks the full image (that is the price of finding the
  // delta). CDC additionally pays a gear rolling-hash pass over every real
  // byte to find the cutpoints — the observable CPU cost of preferring
  // CDC. On the host, a memo confines the scan and the keying to the
  // dirty windows; the model charges the full pass regardless.
  //
  // The host runs three passes: scan and key every segment, picking the
  // real chunks to compress; compress them on the host pool; commit in
  // scan order. The codec is a pure function of each chunk's bytes and
  // the commit makes the same repository calls in the same order as a
  // one-pass encode, so the output does not depend on the pool.
  struct Scan {
    SegmentMemo* memo = nullptr;
    std::vector<ckptstore::ChunkSpan> spans;
    std::vector<ckptstore::ChunkKey> keys;
    std::vector<u32> from;  // per span: the memo span it repeats
    u64 rescanned = 0;
  };
  struct Job {
    ckptstore::ChunkKey key;
    std::vector<std::byte> content;
    std::vector<std::byte> container;  // allocated by a pool thread
  };
  std::vector<Scan> scans(img.segments.size());
  std::vector<Job> jobs;
  // Keys picked but not yet put: the commit's puts, made early, so a
  // chunk repeated within the generation compresses once.
  std::set<ckptstore::ChunkKey> pending;
  for (size_t si = 0; si < img.segments.size(); ++si) {
    const SegmentImage& seg = img.segments[si];
    Scan& scan = scans[si];
    SegmentMemo* memo = scan.memo =
        si < memos.size() && !seg.shared ? memos[si] : nullptr;
    ckptstore::PriorScan prior;
    if (memo != nullptr && memo->chunking == chunking) {
      prior = {memo->spans, memo->dirty};
    }
    scan.spans =
        ckptstore::scan_chunks_with(seg.data, chunking, prior, &scan.from);
    scan.keys.reserve(scan.spans.size());
    for (size_t i = 0; i < scan.spans.size(); ++i) {
      const ckptstore::ChunkSpan& span = scan.spans[i];
      // A repeated span keeps its key unread. A fresh real/mixed span
      // materializes once here; key, CRC and codec all reuse the buffer.
      // Pattern spans never materialize for keying.
      std::vector<std::byte> content;
      ckptstore::ChunkKey key;
      if (scan.from[i] != ckptstore::kFreshSpan) {
        key = memo->keys[scan.from[i]];
      } else if (span.kind == ExtentKind::kReal) {
        content = seg.data.materialize(span.off, span.len);
        key = ckptstore::content_key(content);
        scan.rescanned += span.len;
      } else {
        key = ckptstore::span_key(seg.data, span);
      }
      scan.keys.push_back(key);
      if (span.kind == ExtentKind::kReal && repo.find(key) == nullptr &&
          pending.insert(key).second) {
        // A repeated key whose chunk is gone still needs its bytes.
        if (content.empty()) {
          content = seg.data.materialize(span.off, span.len);
        }
        jobs.push_back({key, std::move(content), {}});
      }
    }
  }

  parallel_for(jobs.size(), [&](size_t j) {
    jobs[j].container = compress::codec(codec).compress(jobs[j].content);
  });

  size_t next_job = 0;
  for (size_t si = 0; si < img.segments.size(); ++si) {
    const SegmentImage& seg = img.segments[si];
    Scan& scan = scans[si];
    ckptstore::SegmentManifest sm;
    sm.name = seg.name;
    sm.kind = static_cast<u8>(seg.kind);
    sm.shared = seg.shared;
    sm.backing_path = seg.backing_path;
    sm.size = seg.data.size();
    for (size_t i = 0; i < scan.spans.size(); ++i) {
      const ckptstore::ChunkSpan& span = scan.spans[i];
      const ckptstore::ChunkKey& key = scan.keys[i];
      if (span.kind == ExtentKind::kReal) out.scan_real_bytes += span.len;
      ckptstore::ChunkRef ref;
      ref.key = key;
      ref.len = span.len;
      out.total_chunks++;
      if (const ckptstore::Chunk* resident = repo.find(key)) {
        ref.crc = resident->crc;
        out.dup_chunk_bytes += span.len;
        out.dup_chunks.emplace_back(key, resident->charged_bytes);
        out.dup_known.push_back(scan.from[i] != ckptstore::kFreshSpan);
        repo.note_hit();
      } else {
        ckptstore::Chunk c;
        c.kind = span.kind;
        c.len = span.len;
        c.seed = span.seed;
        c.pos = span.off;
        if (span.kind == ExtentKind::kReal) {
          DSIM_CHECK(next_job < jobs.size() && jobs[next_job].key == key);
          const auto& container = jobs[next_job++].container;
          // Copied so the repository's buffer comes from this thread's
          // arena: a pool thread's arena keeps whatever it held.
          c.stored = std::make_shared<const std::vector<std::byte>>(
              container.begin(), container.end());
          c.crc = compress::container_crc(*c.stored);  // hashed by compress
          c.charged_bytes = c.stored->size();
        } else {
          c.crc = ckptstore::span_crc(seg.data, span);
          // Pattern chunk: stored as a descriptor; the device is charged at
          // the measured codec ratio, as the full-image encoder charges
          // ballast extents.
          ByteImage::Extent ext;
          ext.len = span.len;
          ext.kind = span.kind;
          ext.seed = span.seed;
          const double ratio = codec == compress::CodecKind::kNone
                                   ? 1.0
                                   : pattern_ratio(codec, ext, span.off);
          c.charged_bytes = std::max<u64>(
              1, static_cast<u64>(static_cast<double>(span.len) * ratio));
        }
        ref.crc = c.crc;
        out.raw_new_bytes += span.len;
        out.new_chunk_bytes += c.charged_bytes;
        out.new_chunks++;
        out.stored_chunks.emplace_back(key, c.charged_bytes);
        out.encode_seconds.push_back(
            encode_cpu_seconds(span.len, span.kind, codec));
        repo.put(key, std::move(c));
      }
      sm.chunks.push_back(ref);
    }
    mf.segments.push_back(std::move(sm));
    out.rescanned_bytes += scan.rescanned;
    if (SegmentMemo* memo = scan.memo) {
      memo->token = memo->armed;
      memo->chunking = chunking;
      memo->spans = std::move(scan.spans);
      memo->keys = std::move(scan.keys);
      memo->dirty.clear();
      memo->rescanned_bytes = scan.rescanned;
    }
  }
  DSIM_CHECK(next_job == jobs.size());

  out.virtual_uncompressed = mf.meta_blob.size() + mf.full_bytes();
  out.manifest_bytes = mf.encode();
  out.submitted_bytes = out.new_chunk_bytes + out.manifest_bytes.size();
  out.assemble_seconds = static_cast<double>(out.virtual_uncompressed) /
                         sim::params::kMemcpyBw;
  if (chunking.mode != ckptstore::ChunkingMode::kFixed) {
    // Both CDC variants pay the gear pass over real bytes; FastCDC's
    // second mask costs one extra compare per byte, lost in the noise.
    out.assemble_seconds += static_cast<double>(out.scan_real_bytes) /
                            sim::params::kGearHashBw;
  }
  repo.commit_generation(owner, generation, mf.all_keys(), mf.full_bytes());
  return out;
}

ProcessImage decode_incremental(const ckptstore::Manifest& mf,
                                const ckptstore::Repository& repo,
                                double* decode_seconds, u64* read_bytes,
                                std::string* error) {
  if (error) error->clear();
  ProcessImage img;
  {
    ByteReader r(mf.meta_blob);
    img = ProcessImage::deserialize_meta(r);
  }
  u64 reads = 0;  // chunk fetches; the caller adds the manifest file itself

  auto fail = [&](std::string msg) {
    if (error) *error = std::move(msg);
    return ProcessImage{};
  };

  // Decode the cold real chunks on the host pool first; the loop below
  // adopts each one's cached decode and checks it exactly as before.
  {
    std::vector<const ckptstore::Chunk*> real;
    for (const auto& sm : mf.segments) {
      for (const auto& ref : sm.chunks) {
        const ckptstore::Chunk* c = repo.find(ref.key);
        if (c != nullptr && c->kind == ExtentKind::kReal) real.push_back(c);
      }
    }
    ckptstore::Chunk::warm_decoded(real);
  }

  for (const auto& sm : mf.segments) {
    SegmentImage si;
    si.name = sm.name;
    si.kind = static_cast<sim::MemKind>(sm.kind);
    si.shared = sm.shared;
    si.backing_path = sm.backing_path;
    si.data = ByteImage(sm.size);
    u64 off = 0;
    for (const auto& ref : sm.chunks) {
      const ckptstore::Chunk* c = repo.find(ref.key);
      if (!c) {
        return fail("restart: chunk " + ref.key.str() + " of segment '" +
                    sm.name + "' @" + std::to_string(off) +
                    " is missing from the repository (collected by an "
                    "over-aggressive retention policy?)");
      }
      reads += c->charged_bytes;
      if (c->kind == ExtentKind::kReal) {
        // decoded() verified the content against the container's header CRC
        // when it decompressed this container, so comparing that CRC with
        // the manifest's checks the content. The segment adopts the chunk's
        // shared buffer: no decompress or copy after the first restore.
        auto content = c->decoded();
        if (content->size() != ref.len ||
            compress::container_crc(*c->stored) != ref.crc) {
          return fail("restart: corrupted chunk " + ref.key.str() +
                      " in segment '" + sm.name + "' @" +
                      std::to_string(off) + ": content CRC mismatch");
        }
        si.data.adopt(off, std::move(content));
      } else {
        // Rand keys bake the origin offset in (rand_key), so a matching
        // chunk always refills at the position its content was generated
        // at; a pos mismatch means the descriptor itself rotted.
        if (c->crc != ref.crc || c->len != ref.len ||
            (c->kind == ExtentKind::kRand && c->pos != off)) {
          return fail("restart: corrupted pattern chunk " + ref.key.str() +
                      " in segment '" + sm.name + "' @" +
                      std::to_string(off) + ": descriptor mismatch");
        }
        si.data.fill(off, ref.len, c->kind, c->seed);
      }
      off += ref.len;
    }
    img.segments.push_back(std::move(si));
  }

  if (read_bytes) *read_bytes = reads;
  if (decode_seconds) {
    *decode_seconds = decode_cpu_seconds(
        img.memory_bytes(), static_cast<compress::CodecKind>(mf.codec));
  }
  return img;
}

void restore_memory(sim::Process& p, const ProcessImage& img) {
  p.mem().clear();
  for (const auto& si : img.segments) {
    if (si.shared) continue;  // §4.5 rules applied by core::restart
    auto seg = std::make_shared<sim::MemSegment>();
    seg->name = si.name;
    seg->kind = si.kind;
    seg->shared = false;
    seg->data = si.data;
    p.mem().attach(std::move(seg));
  }
  p.signals() = img.signals;
  p.ctty() = img.ctty;
}

}  // namespace dsim::mtcp
