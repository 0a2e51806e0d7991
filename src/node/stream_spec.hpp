// StreamSpec: the self-contained, wire-serializable description of one
// video stream's work (DESIGN.md §15). A node that receives a spec can
// *materialize* it — rebuild the scene simulator, re-render the calibration
// window, re-run specialization — and obtain bit-identical per-stream
// models and frames to every other node holding the same spec, because the
// whole chain (SceneSimulator, specialize_stream) is deterministic in
// (profile, tor, seed, sizes). That determinism is what makes a hand-off a
// pure cursor move: the receiving node resumes rendering at `begin` and the
// per-frame pass/fail verdicts continue exactly where the source node
// stopped.
//
// Frame indexing is absolute over one shared simulator timeline:
//   [0, calib_frames)      calibration window (never served)
//   [begin, end)           the serving window; the initial assignment has
//                          begin == calib_frames, and a resumed assignment
//                          has begin == the source node's ingest cursor.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <string_view>

#include "detect/specialize.hpp"
#include "video/scene.hpp"
#include "video/source.hpp"

namespace ffsva::node {

enum class Profile : std::uint8_t { kJackson = 0, kCoral = 1 };

const char* to_string(Profile p);

struct StreamSpec {
  std::uint32_t stream_id = 0;  ///< Cluster-global id (never engine-local).
  Profile profile = Profile::kJackson;
  double tor = 0.10;
  std::uint64_t seed = 1;
  std::uint32_t calib_frames = 30;
  std::uint64_t begin = 0;  ///< First serving frame (absolute sim index).
  std::uint64_t end = 0;    ///< One past the last serving frame.
  std::uint32_t snm_epochs = 2;
  /// Frame-size overrides; 0 keeps the profile's default. Tests and the
  /// smoke harness shrink frames to keep specialization cheap.
  std::uint16_t width = 0;
  std::uint16_t height = 0;

  /// Fixed-width field-by-field binary encoding (runtime/binary_io.hpp).
  std::string serialize() const;
  static std::optional<StreamSpec> parse(std::string_view payload);

  /// The scene this spec describes (profile + tor + size overrides applied).
  video::SceneConfig scene() const;
};

/// Everything FfsVaInstance::add_stream needs for one spec.
struct MaterializedStream {
  detect::StreamModels models;
  std::unique_ptr<video::FrameSource> source;
};

/// Deterministically rebuild the stream: render the calibration window,
/// specialize the models, and open a video::LiveSource over [begin, end):
/// frames carry the cluster-global stream id and their absolute index, so
/// results from different nodes merge without translation.
/// Identical specs materialize identically on every node.
MaterializedStream materialize(const StreamSpec& spec);

}  // namespace ffsva::node
