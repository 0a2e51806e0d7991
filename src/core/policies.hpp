// Pipeline scheduling policies as pure logic. DynamicBatcher and
// TYoloScheduler are shared verbatim by the threaded engine
// (src/core/pipeline.*) and the discrete-event simulator (src/sim); keeping
// them engine-agnostic is what makes the simulated performance figures an
// evaluation of the *production* policy code. AdmissionController serves
// core::ClusterManager's admission and re-forwarding decisions.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <vector>

#include "core/config.hpp"

namespace ffsva::core {

/// Dynamic-batch decision (Section 4.3.2). Given the number of frames
/// currently waiting in the SNM queue, how many should the next inference
/// batch take — and is it allowed to run yet?
struct BatchDecision {
  int take = 0;      ///< Frames to pop for this batch.
  bool wait = false; ///< True: not enough frames yet, keep waiting.
};

class DynamicBatcher {
 public:
  DynamicBatcher(BatchPolicy policy, int batch_size, int queue_threshold)
      : policy_(policy), batch_size_(std::max(1, batch_size)),
        queue_threshold_(std::max(1, queue_threshold)) {}

  /// Frames a batch waits for; a stream that has ended drains whatever is
  /// left instead. The simulator parks its SNM loop on this depth.
  int wait_target() const {
    switch (policy_) {
      case BatchPolicy::kStatic:
        // Wait for a full batch (Figure 9: throughput keeps growing with
        // BatchSize, latency grows with it too).
        return batch_size_;
      case BatchPolicy::kFeedback:
        // Feedback-queue alone: the queue can never hold more than its
        // threshold, so a batch larger than the threshold waits for the
        // queue-full level instead ("when the batch size is greater than
        // the queue depth threshold, video frames have to wait").
        return std::min(batch_size_, queue_threshold_);
      case BatchPolicy::kDynamic:
        // Take whatever is there, up to BatchSize; never wait for more.
        return 1;
    }
    return 1;
  }

  /// `available`: frames waiting; `stream_ended`: no more frames will come
  /// (drain whatever is left instead of waiting forever).
  BatchDecision next_batch(int available, bool stream_ended) const {
    BatchDecision d;
    if (available <= 0 || (available < wait_target() && !stream_ended)) {
      d.wait = !stream_ended;
      return d;
    }
    const int cap =
        policy_ == BatchPolicy::kFeedback ? wait_target() : batch_size_;
    d.take = std::min(available, cap);
    return d;
  }

  BatchPolicy policy() const { return policy_; }
  int batch_size() const { return batch_size_; }

 private:
  BatchPolicy policy_;
  int batch_size_;
  int queue_threshold_;
};

/// Round-robin T-YOLO service order with a per-stream extraction cap
/// (Sections 3.2.3 and 4.3.1): "T-YOLO needs to traverse each T-YOLO queue
/// of all streams one by one and extract at most num_tyolo video frames
/// from the queue for detection, skipping the stream if its queue is empty."
class TYoloScheduler {
 public:
  explicit TYoloScheduler(int num_tyolo) : num_tyolo_(std::max(1, num_tyolo)) {}

  struct Pick {
    int stream = -1;
    int take = 0;
  };

  /// `queue_depths[i]`: frames waiting for stream i. Returns the next
  /// non-empty stream after the previously served one, and how many frames
  /// to take from it. stream = -1 when every queue is empty.
  Pick next(const std::vector<int>& queue_depths) {
    const int n = static_cast<int>(queue_depths.size());
    for (int step = 1; step <= n; ++step) {
      const int s = (cursor_ + step) % n;
      if (queue_depths[static_cast<std::size_t>(s)] > 0) {
        cursor_ = s;
        return Pick{s, std::min(queue_depths[static_cast<std::size_t>(s)], num_tyolo_)};
      }
    }
    return Pick{};
  }

  int num_tyolo() const { return num_tyolo_; }

 private:
  int cursor_ = -1;
  int num_tyolo_;
};

/// The cluster's admission thresholds (Section 4.3.1): a T-YOLO service
/// speed below `tyolo_fps` sustained for `window_sec` means the instance has
/// spare capacity for another stream. The defaults are the paper's.
struct AdmissionOptions {
  double tyolo_fps = 140.0;
  double window_sec = 5.0;
};

/// Admission / re-forwarding controller (Section 4.3.1): track T-YOLO's
/// service rate over a sliding window; a sustained rate under
/// AdmissionOptions::tyolo_fps means spare capacity (admit another stream),
/// while any queue crossing its threshold persistently means overload
/// (re-forward a stream to another instance).
class AdmissionController {
 public:
  AdmissionController(double admit_fps, double window_sec)
      : admit_fps_(admit_fps), window_sec_(window_sec) {}

  /// Report `frames` served by T-YOLO at time `now_sec`.
  void on_tyolo_served(double now_sec, int frames) {
    if (observed_since_ < 0.0) observed_since_ = now_sec;
    samples_.push_back({now_sec, frames});
    trim(now_sec);
  }

  /// Spare capacity if the windowed T-YOLO rate has stayed below the
  /// threshold for the whole window ("when the execution speed of T-YOLO is
  /// lower than a certain level for a period of time", Section 4.3.1).
  bool has_spare_capacity(double now_sec) {
    if (observed_since_ < 0.0) return true;  // nothing running at all
    if (now_sec - observed_since_ < window_sec_ * 0.95) return false;
    return windowed_fps(now_sec) < admit_fps_;
  }

  /// Frames served per second over the last window (or since observation
  /// started, whichever is shorter).
  double windowed_fps(double now_sec) {
    trim(now_sec);
    std::int64_t total = 0;
    for (const auto& s : samples_) total += s.frames;
    double span = window_sec_;
    if (observed_since_ >= 0.0) span = std::min(span, now_sec - observed_since_);
    return static_cast<double>(total) / std::max(1e-9, span);
  }

  /// Overload signal: a queue has been at/over its threshold this tick.
  void on_queue_over_threshold(double now_sec) { last_overload_ = now_sec; }

  bool overloaded(double now_sec) const {
    return last_overload_ >= 0.0 && now_sec - last_overload_ < 1.0;
  }

 private:
  struct Sample {
    double t = 0.0;
    int frames = 0;
  };
  void trim(double now_sec) {
    while (!samples_.empty() && samples_.front().t < now_sec - window_sec_) {
      samples_.pop_front();
    }
  }

  double admit_fps_;
  double window_sec_;
  // bounded-ok: sliding observation window, pruned to window_sec_ on every
  // report; owned by the control plane's single reporting thread.
  std::deque<Sample> samples_;
  double observed_since_ = -1.0;
  double last_overload_ = -1.0;
};

}  // namespace ffsva::core
