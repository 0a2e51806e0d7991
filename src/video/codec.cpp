#include "video/codec.hpp"

#include <cassert>
#include <cmath>
#include <cstdlib>
#include <stdexcept>

namespace ffsva::video {

namespace {

void put_varint(std::vector<std::uint8_t>& out, std::size_t v) {
  while (v >= 0x80) {
    out.push_back(static_cast<std::uint8_t>((v & 0x7f) | 0x80));
    v >>= 7;
  }
  out.push_back(static_cast<std::uint8_t>(v));
}

std::size_t get_varint(const std::uint8_t* data, std::size_t size, std::size_t& pos) {
  std::size_t v = 0;
  int shift = 0;
  for (;;) {
    if (pos >= size) throw std::runtime_error("truncated varint in bitstream");
    const std::uint8_t b = data[pos++];
    v |= static_cast<std::size_t>(b & 0x7f) << shift;
    if (!(b & 0x80)) return v;
    shift += 7;
  }
}

// Token stream: 0x00 <varint n>            -> n zero residuals
//               0x01 <varint n> <n bytes>  -> n literal residuals
void rle_encode(std::vector<std::uint8_t>& out, const std::uint8_t* residual,
                std::size_t n) {
  std::size_t i = 0;
  while (i < n) {
    if (residual[i] == 0) {
      std::size_t j = i;
      while (j < n && residual[j] == 0) ++j;
      out.push_back(0x00);
      put_varint(out, j - i);
      i = j;
    } else {
      std::size_t j = i;
      // A literal run ends at a "long enough" zero run; short zero gaps are
      // cheaper to carry as literals than to break the run for.
      while (j < n && !(residual[j] == 0 && j + 3 < n && residual[j + 1] == 0 &&
                        residual[j + 2] == 0 && residual[j + 3] == 0)) {
        ++j;
      }
      out.push_back(0x01);
      put_varint(out, j - i);
      out.insert(out.end(), residual + i, residual + j);
      i = j;
    }
  }
}

void rle_decode_apply(const std::uint8_t* packet, std::size_t packet_size,
                      std::uint8_t* pixels, std::size_t n) {
  std::size_t pos = 0;
  std::size_t i = 0;
  while (pos < packet_size) {
    const std::uint8_t tag = packet[pos++];
    const std::size_t run = get_varint(packet, packet_size, pos);
    if (i + run > n) throw std::runtime_error("residual overruns frame");
    if (tag == 0x00) {
      i += run;  // residual 0: pixels unchanged
    } else if (tag == 0x01) {
      if (pos + run > packet_size) throw std::runtime_error("truncated literal run");
      for (std::size_t k = 0; k < run; ++k) {
        pixels[i + k] = static_cast<std::uint8_t>(pixels[i + k] + packet[pos + k]);
      }
      pos += run;
      i += run;
    } else {
      throw std::runtime_error("bad token tag in bitstream");
    }
  }
  if (i != n) throw std::runtime_error("packet does not cover the frame");
}

// Residual summary of one frame from its reconstruction delta (the pixel
// change a decoder observes: new reconstruction minus the previous one).
// Computed on reconstructions rather than coded bytes so it stays exact
// for keyframes and under the deadzone.
FrameHint summarize_delta(const std::uint8_t* prev, const std::uint8_t* cur,
                          int width, int height, int channels, bool keyframe) {
  FrameHint h;
  h.keyframe = keyframe;
  h.grid_w = (width + kHintBlockEdge - 1) / kHintBlockEdge;
  h.grid_h = (height + kHintBlockEdge - 1) / kHintBlockEdge;
  const std::size_t nblocks = static_cast<std::size_t>(h.grid_w) * h.grid_h;
  std::vector<double> sq(nblocks, 0.0), l1(nblocks, 0.0);
  std::vector<std::size_t> zero(nblocks, 0), count(nblocks, 0);
  double frame_sq = 0.0, frame_l1 = 0.0;
  std::size_t fzero = 0;
  for (int y = 0; y < height; ++y) {
    const std::size_t brow = static_cast<std::size_t>(y / kHintBlockEdge) * h.grid_w;
    const std::size_t row = static_cast<std::size_t>(y) * width * channels;
    for (int x = 0; x < width; ++x) {
      const std::size_t b = brow + static_cast<std::size_t>(x / kHintBlockEdge);
      const std::size_t at = row + static_cast<std::size_t>(x) * channels;
      for (int c = 0; c < channels; ++c) {
        const int d = static_cast<int>(cur[at + c]) - static_cast<int>(prev[at + c]);
        const double dd = static_cast<double>(d) * d;
        sq[b] += dd;
        l1[b] += std::abs(d);
        frame_sq += dd;
        frame_l1 += std::abs(d);
        if (d == 0) {
          ++zero[b];
          ++fzero;
        }
      }
      count[b] += static_cast<std::size_t>(channels);
    }
  }
  h.blocks.resize(nblocks);
  for (std::size_t b = 0; b < nblocks; ++b) {
    const double n = count[b] ? static_cast<double>(count[b]) : 1.0;
    h.blocks[b].energy = static_cast<float>(sq[b] / n);
    h.blocks[b].sad = static_cast<float>(l1[b] / n);
    h.blocks[b].zero_frac = static_cast<float>(static_cast<double>(zero[b]) / n);
  }
  const double n = static_cast<double>(width) * height * channels;
  if (n > 0) {
    h.mse = static_cast<float>(frame_sq / n);
    h.sad = static_cast<float>(frame_l1 / n);
    h.zero_frac = static_cast<float>(static_cast<double>(fzero) / n);
  }
  return h;
}

}  // namespace

float FrameHint::max_block_energy() const {
  float m = 0.0f;
  for (const auto& b : blocks) m = b.energy > m ? b.energy : m;
  return m;
}

StoredVideo StoredVideo::encode(const std::vector<Frame>& frames, int keyframe_interval,
                                int deadzone) {
  StoredVideo v;
  if (frames.empty()) return v;
  v.width_ = frames[0].image.width();
  v.height_ = frames[0].image.height();
  v.channels_ = frames[0].image.channels();
  v.keyframe_interval_ = keyframe_interval < 1 ? 1 : keyframe_interval;

  const std::size_t n = frames[0].image.size_bytes();
  std::vector<std::uint8_t> residual(n);
  // Predict from the *reconstruction*, exactly as the decoder will, so the
  // deadzone never accumulates drift.
  image::Image recon(v.width_, v.height_, v.channels_);  // zero frame
  image::Image prev_recon(v.width_, v.height_, v.channels_);

  for (std::size_t f = 0; f < frames.size(); ++f) {
    const auto& img = frames[f].image;
    if (!img.same_shape(frames[0].image)) {
      throw std::invalid_argument("all frames in a stored video must share one shape");
    }
    const bool key = (f % static_cast<std::size_t>(v.keyframe_interval_)) == 0;
    prev_recon = recon;  // snapshot before any keyframe reset, for the hint
    if (key) recon.fill(0);
    const std::uint8_t* cur = img.data();
    std::uint8_t* rec = recon.data();
    for (std::size_t i = 0; i < n; ++i) {
      const int d = static_cast<int>(cur[i]) - static_cast<int>(rec[i]);
      // Keyframes stay exact so seeks reset any deadzone error.
      if (!key && d != 0 && d >= -deadzone && d <= deadzone) {
        residual[i] = 0;
      } else {
        residual[i] = static_cast<std::uint8_t>(d);
        rec[i] = cur[i];
      }
    }
    v.offsets_.push_back(v.bitstream_.size());
    rle_encode(v.bitstream_, residual.data(), n);
    v.sizes_.push_back(v.bitstream_.size() - v.offsets_.back());
    v.hints_.push_back(summarize_delta(prev_recon.data(), recon.data(), v.width_,
                                       v.height_, v.channels_, key));
    v.gt_.push_back(frames[f].gt);
    v.pts_.push_back(frames[f].pts_sec);
  }
  return v;
}

CodecStats StoredVideo::stats() const {
  CodecStats s;
  s.raw_bytes =
      static_cast<std::size_t>(width_) * height_ * channels_ * offsets_.size();
  s.encoded_bytes = bitstream_.size();
  return s;
}

VideoReader::VideoReader(const StoredVideo& video, int stream_id)
    : video_(video), stream_id_(stream_id),
      previous_(video.width(), video.height(), video.channels()) {}

void VideoReader::decode_into(std::int64_t index) {
  const bool key = (index % video_.keyframe_interval_) == 0;
  if (key) previous_.fill(0);
  rle_decode_apply(
      video_.bitstream_.data() + video_.offsets_[static_cast<std::size_t>(index)],
      video_.sizes_[static_cast<std::size_t>(index)], previous_.data(),
      previous_.size_bytes());
}

void VideoReader::materialize(std::int64_t index) {
  if (state_index_ == index) return;
  const std::int64_t key = index - (index % video_.keyframe_interval_);
  // Replaying from the live state is valid only when it sits inside the
  // target's own GOP and behind the target; otherwise re-sync at the
  // keyframe (decode_into resets the canvas there, so skipped frames never
  // have to be reconstructed — the predictive chain restarts).
  const std::int64_t from =
      (state_index_ >= key && state_index_ < index) ? state_index_ + 1 : key;
  for (std::int64_t i = from; i <= index; ++i) decode_into(i);
  state_index_ = index;
}

std::optional<Frame> VideoReader::next() {
  if (next_index_ >= video_.frame_count()) return std::nullopt;
  materialize(next_index_);
  Frame f;
  f.image = previous_;
  f.stream_id = stream_id_;
  f.index = next_index_;
  f.pts_sec = video_.pts_[static_cast<std::size_t>(next_index_)];
  f.gt = video_.gt_[static_cast<std::size_t>(next_index_)];
  ++next_index_;
  return f;
}

const FrameHint* VideoReader::peek_hint() const {
  if (next_index_ >= video_.frame_count()) return nullptr;
  return &video_.hints_[static_cast<std::size_t>(next_index_)];
}

bool VideoReader::skip_next() {
  if (next_index_ >= video_.frame_count()) return false;
  ++next_index_;
  return true;
}

void VideoReader::seek(std::int64_t index) {
  if (index < 0 || index >= video_.frame_count()) {
    throw std::out_of_range("seek beyond stored video");
  }
  next_index_ = index;
}

}  // namespace ffsva::video
