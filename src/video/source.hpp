// Frame sources: where the prefetch stage of each stream pipeline pulls
// frames from. Live sources render the synthetic scene on demand (online
// mode: a camera); stored sources decode the delta-RLE bitstream (offline
// mode: a recording), so the prefetch stage pays a real decode cost.
//
// Real camera fleets fail: connections drop, decoders hit corrupt NALs,
// RTSP sessions die and need a reconnect. next() reports those through
// SourceError (transient = retry may succeed, fatal = the session is dead)
// and restart() models the reconnect; the engine's prefetch loop owns the
// retry/restart budget and backoff (DESIGN.md Section 9).
#pragma once

#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "video/codec.hpp"
#include "video/scene.hpp"

namespace ffsva::video {

/// A decode/transport failure raised by FrameSource::next().
///  * kTransient — this read failed but the source is still usable (a
///    corrupt packet, a momentary network hiccup); retrying next() is the
///    right response.
///  * kFatal — the source session is dead (device unplugged, stream
///    closed); only restart() can revive it.
class SourceError : public std::runtime_error {
 public:
  enum class Kind : std::uint8_t { kTransient = 0, kFatal = 1 };

  SourceError(Kind kind, const std::string& what)
      : std::runtime_error(what), kind_(kind) {}

  Kind kind() const { return kind_; }
  bool transient() const { return kind_ == Kind::kTransient; }

 private:
  Kind kind_;
};

class FrameSource {
 public:
  virtual ~FrameSource() = default;
  /// Next frame in presentation order, or nullopt at end of stream.
  /// May throw SourceError; after a transient error the stream position is
  /// unchanged (a successful retry resumes without frame loss).
  virtual std::optional<Frame> next() = 0;
  /// Total frames this source will yield (for progress/termination).
  virtual std::int64_t total_frames() const = 0;
  /// Attempt to revive the source after a fatal SourceError (reconnect the
  /// camera, reopen the file). Returns false when the source does not
  /// support restart (the default) or the revival failed.
  virtual bool restart() { return false; }

  // --- compressed-domain fast path (DecodePolicy::kHinted; DESIGN.md §13) --
  /// Whether this source can describe upcoming frames without decoding
  /// them. Only sources returning true ever see peek_hint()/skip_next().
  virtual bool has_hints() const { return false; }
  /// Residual summary of the frame the following next() would return, or
  /// nullptr (end of stream / no hints). The pointer aliases immutable
  /// source data and stays valid for the source's lifetime.
  virtual const FrameHint* peek_hint() const { return nullptr; }
  /// Advance past the upcoming frame without decoding it. Returns false at
  /// end of stream or when the source cannot skip (the default).
  virtual bool skip_next() { return false; }
  /// Compression statistics of the underlying bitstream, when there is one.
  /// Must be safe to call concurrently with next() (immutable data only) —
  /// the engine reads it from snapshot() while the prefetch thread decodes.
  virtual std::optional<CodecStats> codec_stats() const { return std::nullopt; }
};

/// Renders frames [begin, end) of a shared scene simulator (a "camera"),
/// stamped with `stream_id` and their absolute timeline index. The window
/// defaults to the simulator's whole timeline.
class LiveSource final : public FrameSource {
 public:
  LiveSource(std::shared_ptr<const SceneSimulator> sim, int stream_id)
      : LiveSource(sim, stream_id, 0, sim->total_frames()) {}
  LiveSource(std::shared_ptr<const SceneSimulator> sim, int stream_id,
             std::int64_t begin, std::int64_t end)
      : sim_(std::move(sim)), stream_id_(stream_id), begin_(begin), end_(end),
        next_index_(begin) {}

  std::optional<Frame> next() override {
    if (next_index_ >= end_) return std::nullopt;
    return sim_->render(next_index_++, stream_id_);
  }

  std::int64_t total_frames() const override { return end_ - begin_; }

 private:
  std::shared_ptr<const SceneSimulator> sim_;
  int stream_id_;
  std::int64_t begin_;
  std::int64_t end_;
  std::int64_t next_index_;
};

/// Replays a pre-rendered window shared by any number of streams (no render
/// or decode cost). Frames keep their index and are stamped with `stream_id`.
class ReplaySource final : public FrameSource {
 public:
  using Window = std::shared_ptr<const std::vector<Frame>>;

  ReplaySource(Window window, int stream_id)
      : window_(std::move(window)), stream_id_(stream_id) {}

  std::optional<Frame> next() override {
    if (next_ >= window_->size()) return std::nullopt;
    Frame f = (*window_)[next_++];
    f.stream_id = stream_id_;
    return f;
  }

  std::int64_t total_frames() const override {
    return static_cast<std::int64_t>(window_->size());
  }

 private:
  Window window_;
  int stream_id_;
  std::size_t next_ = 0;
};

/// Decodes frames from a stored video (a "recording").
class StoredSource final : public FrameSource {
 public:
  StoredSource(std::shared_ptr<const StoredVideo> video, int stream_id)
      : video_(std::move(video)), reader_(*video_, stream_id) {}

  std::optional<Frame> next() override { return reader_.next(); }

  std::int64_t total_frames() const override { return video_->frame_count(); }

  bool has_hints() const override { return video_->frame_count() > 0; }
  const FrameHint* peek_hint() const override { return reader_.peek_hint(); }
  bool skip_next() override { return reader_.skip_next(); }
  std::optional<CodecStats> codec_stats() const override { return video_->stats(); }

 private:
  std::shared_ptr<const StoredVideo> video_;
  VideoReader reader_;
};

}  // namespace ffsva::video
