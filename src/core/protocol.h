// Coordinator wire protocol.
//
// Managers, restart processes and dmtcp_command talk to the checkpoint
// coordinator over ordinary (simulated) TCP with length-prefixed messages.
// The coordinator implements exactly the primitives the paper needs: a
// cluster-wide barrier (§4.3 — "the only global communication primitive
// used at checkpoint time is a barrier") and, at restart time, a discovery
// service for re-locating migrated peers (§4.4 step 2).
#pragma once

#include <string>
#include <vector>

#include "core/ids.h"
#include "sim/socket.h"
#include "util/serialize.h"
#include "util/types.h"

namespace dsim::core {

enum class MsgType : u8 {
  kRegister = 1,        // manager -> coord: join computation (s=hostname, a=vpid, b=restarting, ua=node)
  kCkptRequest = 2,     // coord -> manager: begin checkpoint (a=round)
  kBarrierWait = 3,     // manager -> coord: waiting at barrier `s` (a=expected override, 0=all clients)
  kBarrierRelease = 4,  // coord -> manager: barrier `s` released
  kCommand = 5,         // dmtcp_command: s=checkpoint|status|interval, a=arg
  kCommandReply = 6,    // coord -> dmtcp_command: s=reply text, a=numeric
  kAdvertise = 7,       // restart -> coord: conn listener at (a=node, b=port)
  kQueryAddr = 8,       // restart -> coord: where is conn? (blocks until advertised)
  kAddrInfo = 9,        // coord -> restart: conn is at (a=node, b=port)
  kImageStats = 13,     // manager -> coord: one ImageStats record (below)
  kStageNote = 14,      // restart -> coord: s=stage name, ua=duration ns (restart breakdown)
};

struct Msg {
  MsgType type = MsgType::kRegister;
  UniquePid upid{};
  i32 a = 0;
  i32 b = 0;
  u64 ua = 0;
  std::string s;
  sim::ConnId conn{};
  std::vector<std::byte> blob;

  std::vector<std::byte> encode() const {
    ByteWriter w;
    w.put_u8(static_cast<u8>(type));
    upid.serialize(w);
    w.put_i32(a);
    w.put_i32(b);
    w.put_u64(ua);
    w.put_string(s);
    conn.serialize(w);
    w.put_blob(blob);
    return w.take();
  }
  static Msg decode(std::span<const std::byte> bytes) {
    ByteReader r(bytes);
    Msg m;
    m.type = static_cast<MsgType>(r.get_u8());
    m.upid = UniquePid::deserialize(r);
    m.a = r.get_i32();
    m.b = r.get_i32();
    m.ua = r.get_u64();
    m.s = r.get_string();
    m.conn = sim::ConnId::deserialize(r);
    m.blob = r.get_blob();
    return m;
  }
};

/// kImageStats: one manager's report of the image it wrote for a round,
/// carried in Msg's a (round), b (node), ua (uncompressed), s (path) and
/// blob. The coordinator link charges a message by its length, so the blob
/// has two fixed sizes: a full image sends `written` alone (8 bytes); a
/// chunk-store generation, skipped or not, sends seven words (56 bytes),
/// the last a flag word.
struct ImageStats {
  int round = 0;
  NodeId node = 0;       // the writer's host in the restart script
  std::string path;      // the image file (a manifest under the store)
  u64 uncompressed = 0;  // logical image bytes
  u64 written = 0;       // the image, or new chunks plus manifest
  bool chunked = false;  // a chunk-store generation: the fields below
  u64 total_chunks = 0;
  u64 new_chunks = 0;
  u64 dup_bytes = 0;        // logical bytes resident chunks answered
  u64 new_chunk_bytes = 0;  // post-codec bytes of the new chunks
  u64 raw_new_bytes = 0;    // pre-codec bytes of the new chunks
  bool skipped = false;     // --async-backpressure=skip sat the round out

  bool operator==(const ImageStats&) const = default;

  Msg to_msg(const UniquePid& upid) const {
    Msg m;
    m.type = MsgType::kImageStats;
    m.upid = upid;
    m.a = round;
    m.b = node;
    m.ua = uncompressed;
    m.s = path;
    ByteWriter w;
    w.put_u64(written);
    if (chunked) {
      for (const u64 v : {total_chunks, new_chunks, dup_bytes, new_chunk_bytes,
                          raw_new_bytes, u64{skipped}}) {
        w.put_u64(v);
      }
    }
    m.blob = w.take();
    return m;
  }
  static ImageStats from_msg(const Msg& m) {
    ImageStats s{.round = m.a, .node = m.b, .path = m.s, .uncompressed = m.ua};
    ByteReader r(m.blob);
    s.written = r.get_u64();
    s.chunked = r.remaining() > 0;
    if (s.chunked) {
      s.total_chunks = r.get_u64();
      s.new_chunks = r.get_u64();
      s.dup_bytes = r.get_u64();
      s.new_chunk_bytes = r.get_u64();
      s.raw_new_bytes = r.get_u64();
      s.skipped = r.get_u64() != 0;
    }
    return s;
  }
};

/// Barrier names for the checkpoint rounds (§4.3, Fig. 1) and restart
/// (§4.4, Fig. 2).
namespace barrier {
inline constexpr const char* kSuspended = "suspended";
inline constexpr const char* kElected = "elected";
inline constexpr const char* kDrained = "drained";
inline constexpr const char* kCheckpointed = "checkpointed";
inline constexpr const char* kRefilled = "refilled";
inline constexpr const char* kRestartConns = "restart:conns";
}  // namespace barrier

}  // namespace dsim::core
