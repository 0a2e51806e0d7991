// In-memory stored-video codec (temporal delta + run-length coding).
//
// The paper's offline mode reads a 55 GB day-long video file and its
// headline offline throughput (404 FPS) is bounded by the CPU-side
// prefetch/decode path, not by the GPU filters. To reproduce that path we
// store synthetic streams in a simple but real predictive codec:
//
//  * every `keyframe_interval`-th frame is coded standalone (delta against
//    a zero frame), the rest against the previous frame (mod-256 residual);
//  * residual planes are run-length coded: long zero runs (static
//    background) collapse to a few bytes, so compression genuinely tracks
//    scene activity;
//  * decoding is sequential per GOP with random access at keyframes —
//    the same access pattern a real surveillance recording gives a reader.
//
// The encoder also records a per-frame, per-block residual summary
// (`FrameHint`) in the bitstream index: RLE zero-run coverage plus residual
// energy on a coarse grid. A reader can consult it *before* decoding —
// the compressed-domain fast path `detect::CompressedSdd` builds on
// (DESIGN.md §13).
//
// Ground truth travels uncompressed next to the bitstream (it is evaluation
// metadata, not pixels).
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "video/frame.hpp"

namespace ffsva::video {

struct CodecStats {
  std::size_t raw_bytes = 0;
  std::size_t encoded_bytes = 0;
  double compression_ratio() const {
    return encoded_bytes ? static_cast<double>(raw_bytes) / encoded_bytes : 0.0;
  }
};

/// Edge (in frame pixels) of one cell of the coarse hint grid.
inline constexpr int kHintBlockEdge = 16;

/// Per-block residual summary (one entry per kHintBlockEdge-square cell,
/// channels folded together). All statistics describe the *reconstruction
/// delta* rec(f) - rec(f-1) — the pixel change a decoder would observe —
/// not the raw coded bytes, so they are exact even for keyframes (whose
/// coded residual is against a zero frame) and deadzoned pixels.
struct BlockHint {
  float energy = 0.0f;     ///< mean squared delta per byte
  float sad = 0.0f;        ///< mean |delta| per byte
  float zero_frac = 1.0f;  ///< fraction of unchanged bytes (zero-run coverage)
};

/// Frame-level residual summary, recorded at encode time in the bitstream
/// index next to offsets/sizes. Reading it costs no pixel work — it is what
/// the compressed-domain SDD consults before deciding whether to decode.
struct FrameHint {
  bool keyframe = false;   ///< coded standalone (predictive chain restart)
  std::int32_t grid_w = 0; ///< hint grid width  (ceil(width  / kHintBlockEdge))
  std::int32_t grid_h = 0; ///< hint grid height (ceil(height / kHintBlockEdge))
  float zero_frac = 1.0f;  ///< whole-frame fraction of unchanged bytes
  float mse = 0.0f;        ///< mean squared reconstruction delta per byte
  float sad = 0.0f;        ///< mean absolute reconstruction delta per byte
  std::vector<BlockHint> blocks;  ///< row-major grid_h x grid_w

  /// Largest per-block energy — how *concentrated* the frame's change is.
  /// A small bright object barely moves frame-level MSE but lights up one
  /// block; the conservative band uses this to force pixel fallback.
  float max_block_energy() const;
};

class StoredVideo {
 public:
  /// Encode a sequence of frames (all must share one shape).
  ///
  /// `deadzone`: residuals with |difference| <= deadzone are coded as zero
  /// (near-lossless mode; 0 = lossless). Sensor noise otherwise defeats
  /// temporal prediction entirely — the same reason every real surveillance
  /// codec quantizes. The encoder predicts from its own *reconstruction*,
  /// so error never exceeds the deadzone regardless of GOP length.
  static StoredVideo encode(const std::vector<Frame>& frames,
                            int keyframe_interval = 32, int deadzone = 0);

  std::int64_t frame_count() const {
    return static_cast<std::int64_t>(offsets_.size());
  }
  int width() const { return width_; }
  int height() const { return height_; }
  int channels() const { return channels_; }
  int keyframe_interval() const { return keyframe_interval_; }
  CodecStats stats() const;

  /// The frame's residual summary (valid for 0 <= index < frame_count()).
  const FrameHint& hint(std::int64_t index) const {
    return hints_[static_cast<std::size_t>(index)];
  }
  const std::vector<FrameHint>& hints() const { return hints_; }

  friend class VideoReader;

 private:
  int width_ = 0, height_ = 0, channels_ = 0;
  int keyframe_interval_ = 32;
  std::vector<std::uint8_t> bitstream_;
  std::vector<std::size_t> offsets_;   ///< Start of each frame's packet.
  std::vector<std::size_t> sizes_;     ///< Packet length per frame.
  std::vector<FrameHint> hints_;       ///< Residual summaries (index data).
  std::vector<GroundTruth> gt_;        ///< Sidecar ground truth.
  std::vector<double> pts_;
};

/// Sequential reader with keyframe seeking. Decoding does real per-pixel
/// work, which is what gives the offline prefetch stage its CPU cost.
///
/// Reconstruction state advances *lazily*: skip_next() and seek() only move
/// the cursor; pixels are reconstructed when next() actually needs them, by
/// re-syncing at the last keyframe at or before the target (or replaying
/// residuals if the live state is closer). Skipping whole GOPs therefore
/// costs no pixel work at all — the invariant DESIGN.md §13 relies on.
class VideoReader {
 public:
  explicit VideoReader(const StoredVideo& video, int stream_id = 0);

  /// Next frame, or nullopt at end of stream.
  std::optional<Frame> next();

  /// The not-yet-decoded residual summary of the frame the following next()
  /// would return, or nullptr at end of stream. Costs no pixel work.
  const FrameHint* peek_hint() const;

  /// Advance past the upcoming frame without reconstructing it (the hint
  /// said SDD would drop it). Returns false at end of stream. The skipped
  /// frame's pixels are never materialized; the predictive chain stays
  /// valid because the next next() re-syncs lazily.
  bool skip_next();

  /// Seek so that the following next() returns frame `index` (reconstruction
  /// happens lazily at that next(), from the preceding keyframe).
  void seek(std::int64_t index);

  std::int64_t position() const { return next_index_; }

 private:
  void decode_into(std::int64_t index);
  void materialize(std::int64_t index);

  const StoredVideo& video_;
  int stream_id_;
  std::int64_t next_index_ = 0;
  std::int64_t state_index_ = -1;  ///< Frame held in previous_ (-1: none).
  image::Image previous_;          ///< Reconstruction state.
};

}  // namespace ffsva::video
