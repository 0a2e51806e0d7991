// Length-prefixed binary framing for the cluster control plane
// (DESIGN.md §15).
//
// Every frame on the wire is
//
//     u32 magic 'FFSV' | u16 version | u16 type | u32 payload_len | payload
//
// (little-endian, via runtime/binary_io.hpp — the one audited
// reinterpret_cast site in the tree). The decoder is incremental: feed it
// whatever bytes arrived and it yields zero or more complete frames,
// holding the remainder. Garbage (bad magic), a version the peer does not
// speak, and frames past the 16 MiB cap are hard errors — the connection is
// byte-synchronized or it is dead; there is no resync scan.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace ffsva::net {

inline constexpr std::uint32_t kWireMagic = 0x46465356u;  // "FFSV"
inline constexpr std::uint16_t kWireVersion = 3;
/// Payload cap. Snapshots are ~220 B/stream, specs are smaller; anything
/// near this bound is a corrupt or hostile length field, not a real frame.
inline constexpr std::uint32_t kMaxFramePayload = 16u << 20;

/// Control-plane message types (the payload schemas live in
/// node/protocol.hpp; the wire layer only routes them).
enum class MsgType : std::uint16_t {
  kHello = 1,        ///< Client handshake: wire version + node identity.
  kHelloAck = 2,     ///< Server accepts the handshake.
  kHelloReject = 3,  ///< Server refuses (version mismatch); connection ends.
  kHeartbeat = 4,    ///< Liveness probe; echoed by the peer.
  kSnapshot = 5,     ///< Serialized core::InstanceSnapshot (telemetry).
  kAssignStream = 6, ///< Stream hand-off: spec + config + resume cursor.
  kAssignAck = 7,    ///< Node accepted the stream (engine id inside).
  kEndStream = 8,    ///< Scheduler cuts a stream's ingest on the node.
  kStreamEnded = 9,  ///< Node: stream quiesced; terminal counters inside.
  // 10 is retired (a drain request nothing sent); a peer that still sends
  // it is ignored like any unknown type. Do not reuse it.
  kStop = 11,        ///< Graceful shutdown.
  kStopAck = 12,     ///< Node is about to exit.
  kResults = 13,     ///< Per-frame pass verdicts for a quiesced stream.
};

struct WireFrame {
  MsgType type = MsgType::kHeartbeat;
  std::string payload;
};

/// Encode one frame ready for Socket::send_all.
std::string encode_frame(MsgType type, std::string_view payload);

/// Incremental frame decoder (one per connection).
class FrameDecoder {
 public:
  enum class Error {
    kNone = 0,
    kBadMagic,    ///< Stream is not FFSV-framed (garbage).
    kBadVersion,  ///< Peer speaks a different wire version.
    kOversized,   ///< Length field exceeds kMaxFramePayload.
  };

  /// Consume `len` bytes; append every completed frame to `out`. Returns
  /// false once the decoder is in an error state (which is sticky — the
  /// connection must be dropped).
  bool feed(const char* data, std::size_t len, std::vector<WireFrame>& out);

  Error error() const { return error_; }

 private:
  std::string buf_;
  Error error_ = Error::kNone;
};

const char* to_string(FrameDecoder::Error e);

}  // namespace ffsva::net
