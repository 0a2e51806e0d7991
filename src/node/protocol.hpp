// RPC payload schemas for the scheduler ⇄ node control plane (DESIGN.md
// §15). Every payload is fixed-width fields written field-by-field through
// runtime/binary_io.hpp — the same discipline as the wire header, so no
// struct padding ever reaches the wire.
//
// The periodic load report is the engine's own core::InstanceSnapshot,
// serialized as-is, its counters field by field in the order
// core/counters.hpp lists them (a change to that list bumps
// net::kWireVersion; stream_spec_test pins the bytes).
// There is deliberately no second "cluster stats" schema: what the
// scheduler sees is exactly what a local snapshot() caller sees, with the
// node translating engine-local stream ids to cluster-global ids. Element
// counts are untrusted: parsers append elements as they read them, so a
// count beyond the payload is rejected, not allocated.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "core/pipeline.hpp"
#include "node/stream_spec.hpp"

namespace ffsva::node {

/// kAssignStream: hand a stream (or the remainder of one) to a node.
struct AssignStream {
  StreamSpec spec;
  /// True when this assignment resumes a stream handed off from another
  /// node (spec.begin is that node's ingest cursor). Drives the node's
  /// `node.handoffs_in` counter; the engine itself doesn't care.
  bool resume = false;

  std::string serialize() const;
  static std::optional<AssignStream> parse(std::string_view payload);
};

/// kAssignAck: the node's answer.
struct AssignAck {
  std::uint32_t stream_id = 0;
  bool ok = false;
  std::int32_t local_id = -1;  ///< Engine-local id on the node (diagnostic).

  std::string serialize() const;
  static std::optional<AssignAck> parse(std::string_view payload);
};

/// kEndStream: cut one stream's ingest (first half of a hand-off).
struct EndStream {
  std::uint32_t stream_id = 0;

  std::string serialize() const;
  static std::optional<EndStream> parse(std::string_view payload);
};

/// kStreamEnded: the stream has quiesced on the node. `cursor` is the next
/// un-ingested absolute frame index — the `begin` of a resumed assignment.
/// Sent after the stream's kResults frame, so by the time the scheduler
/// sees this, the node's verdicts for the stream are already in hand.
struct StreamEnded {
  std::uint32_t stream_id = 0;
  std::uint64_t cursor = 0;
  std::uint64_t ingested = 0;  ///< Frames this node ingested for the stream.
  std::uint64_t emitted = 0;   ///< Frames that survived the whole cascade.

  std::string serialize() const;
  static std::optional<StreamEnded> parse(std::string_view payload);
};

/// kResults: the per-frame verdicts a node accumulated for one stream —
/// the absolute indices of frames that survived the cascade (every other
/// ingested frame was filtered). Merging the per-node sets reconstructs
/// the exact single-process output set (the hand-off conservation check).
struct StreamResults {
  std::uint32_t stream_id = 0;
  std::vector<std::uint64_t> emitted_frames;

  std::string serialize() const;
  static std::optional<StreamResults> parse(std::string_view payload);
};

/// kSnapshot reply: the engine snapshot, verbatim.
std::string serialize_snapshot(const core::InstanceSnapshot& snap);
std::optional<core::InstanceSnapshot> parse_snapshot(std::string_view payload);

}  // namespace ffsva::node
