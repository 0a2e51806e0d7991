#include "detect/snm.hpp"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <istream>
#include <numeric>
#include <ostream>
#include <stdexcept>

#include "detect/fault_hook.hpp"
#include "image/ops.hpp"
#include "nn/loss.hpp"
#include "nn/optim.hpp"
#include "runtime/binary_io.hpp"
#include "runtime/cancel.hpp"
#include "runtime/parallel_for.hpp"

namespace ffsva::detect {

namespace {
int conv_out(int in, int kernel, int stride, int pad) {
  return (in + 2 * pad - kernel) / stride + 1;
}
}  // namespace

SnmFilter::SnmFilter(SnmConfig config, const image::Image& background,
                     std::uint64_t seed)
    : config_(config),
      // Color is kept: the network input is the max-channel difference map,
      // matching the detectors' motion map, so chromatic-only objects (a
      // luma-neutral red car) remain visible to the filter.
      background_small_(image::resize_bilinear(background, config.input_size,
                                               config.input_size)) {
  runtime::Xoshiro256 rng(seed);
  const int s1 = conv_out(config_.input_size, 3, 2, 1);
  const int s2 = conv_out(s1, 3, 2, 1);
  fc_features_ = config_.conv2_filters * s2 * s2;
  net_ = std::make_unique<nn::Sequential>();
  net_->add(std::make_unique<nn::Conv2d>(1, config_.conv1_filters, 3, 2, 1, rng))
      .add(std::make_unique<nn::ReLU>())
      .add(std::make_unique<nn::Conv2d>(config_.conv1_filters, config_.conv2_filters,
                                        3, 2, 1, rng))
      .add(std::make_unique<nn::ReLU>())
      .add(std::make_unique<nn::Linear>(fc_features_, 1, rng));
}

void SnmFilter::prepare(const image::Image& frame, std::vector<float>& out) const {
  static thread_local image::ResizePlan plan;
  static thread_local image::Image resized;
  const int s = config_.input_size;
  plan.ensure(frame.width(), frame.height(), s, s);
  image::resize_bilinear_into(frame, plan, resized);

  // Max-over-channels |frame - background|, matching the detectors' motion
  // map so chromatic-only objects (a luma-neutral red car) stay visible.
  const int channels = background_small_.channels();
  const int rc = resized.channels();
  const std::uint8_t* a = resized.data();
  const std::uint8_t* b = background_small_.data();
  const std::size_t pixels = static_cast<std::size_t>(s) * s;
  out.resize(pixels);
  float* dst = out.data();
  constexpr float kInv255 = 1.0f / 255.0f;
  if (channels == 1 && rc == 1) {
    for (std::size_t i = 0; i < pixels; ++i) {
      dst[i] = static_cast<float>(std::abs(static_cast<int>(a[i]) -
                                           static_cast<int>(b[i]))) * kInv255;
    }
  } else {
    for (std::size_t i = 0; i < pixels; ++i) {
      int d = 0;
      for (int c = 0; c < channels; ++c) {
        d = std::max(d, std::abs(static_cast<int>(a[i * rc + c]) -
                                 static_cast<int>(b[i * channels + c])));
      }
      dst[i] = static_cast<float>(d) * kInv255;
    }
  }
}

void SnmFilter::prepare_all(const std::vector<const image::Image*>& frames) const {
  auto& prepared = scratch_.prepared;
  if (prepared.size() < frames.size()) prepared.resize(frames.size());
  runtime::parallel_for(0, static_cast<std::int64_t>(frames.size()), /*grain=*/4,
                        [&](std::int64_t b, std::int64_t e) {
                          for (auto i = static_cast<std::size_t>(b);
                               i < static_cast<std::size_t>(e); ++i) {
                            prepare(*frames[i], prepared[i]);
                          }
                        });
}

nn::Tensor SnmFilter::preprocess_batch(
    const std::vector<const image::Image*>& frames) const {
  const int s = config_.input_size;
  const std::size_t size = static_cast<std::size_t>(s) * s;
  nn::Tensor x(static_cast<int>(frames.size()), 1, s, s);
  prepare_all(frames);
  for (std::size_t i = 0; i < frames.size(); ++i) {
    std::copy_n(scratch_.prepared[i].data(), size, x.data() + i * size);
  }
  return x;
}

nn::Tensor SnmFilter::preprocess_batch_augmented(
    const std::vector<const image::Image*>& frames, runtime::Xoshiro256& rng) const {
  nn::Tensor base = preprocess_batch(frames);
  const int s = config_.input_size;
  if (config_.augment_shift <= 0 && !config_.augment_flip &&
      config_.augment_scale <= 0.0) {
    return base;
  }
  nn::Tensor out(base.n(), 1, s, s);
  const double c = (s - 1) * 0.5;
  for (int n = 0; n < base.n(); ++n) {
    const int dx = config_.augment_shift > 0
                       ? static_cast<int>(rng.range(-config_.augment_shift,
                                                    config_.augment_shift))
                       : 0;
    const int dy = config_.augment_shift > 0
                       ? static_cast<int>(rng.range(-config_.augment_shift,
                                                    config_.augment_shift))
                       : 0;
    const bool flip = config_.augment_flip && rng.chance(0.5);
    const double scale =
        config_.augment_scale > 0.0
            ? 1.0 + rng.uniform(-config_.augment_scale, config_.augment_scale)
            : 1.0;
    for (int y = 0; y < s; ++y) {
      // Inverse map: output -> (scale about the center) -> shift.
      const int sy = static_cast<int>(std::lround((y - dy - c) / scale + c));
      for (int x = 0; x < s; ++x) {
        int sx = static_cast<int>(std::lround((x - dx - c) / scale + c));
        if (flip) sx = s - 1 - sx;
        const float v = (sx >= 0 && sx < s && sy >= 0 && sy < s)
                            ? base.at(n, 0, sy, sx)
                            : 0.0f;
        out.at(n, 0, y, x) = v;
      }
    }
  }
  return out;
}

void SnmFilter::score(std::span<const float* const> inputs,
                      std::vector<double>& scores) const {
  scores.clear();
  if (inputs.empty()) return;
  FaultHook::on_call(FaultStage::kSnm);
  runtime::check_cancel();
  const int s = config_.input_size;
  const std::size_t size = static_cast<std::size_t>(s) * s;
  scratch_.input.resize(static_cast<int>(inputs.size()), 1, s, s);
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    std::copy_n(inputs[i], size, scratch_.input.data() + i * size);
  }
  const nn::Tensor& logits = net_->forward(scratch_.input, scratch_.net);
  scores.reserve(inputs.size());
  for (int i = 0; i < logits.n(); ++i) {
    scores.push_back(nn::sigmoid(logits.at(i, 0, 0, 0)));
  }
}

double SnmFilter::predict(const image::Image& frame) const {
  if (scratch_.prepared.empty()) scratch_.prepared.resize(1);
  prepare(frame, scratch_.prepared[0]);
  const float* input = scratch_.prepared[0].data();
  score({&input, 1}, scratch_.scores);
  return scratch_.scores[0];
}

std::vector<double> SnmFilter::predict_batch(
    const std::vector<const image::Image*>& frames) const {
  std::vector<double> out;
  prepare_all(frames);
  scratch_.inputs.clear();
  for (std::size_t i = 0; i < frames.size(); ++i) {
    scratch_.inputs.push_back(scratch_.prepared[i].data());
  }
  score(scratch_.inputs, out);
  return out;
}

void SnmFilter::set_filter_degree(double fd) {
  config_.filter_degree = std::clamp(fd, 0.0, 1.0);
}

void SnmFilter::set_thresholds(double c_low, double c_high) {
  config_.c_low = c_low;
  config_.c_high = std::max(c_high, c_low);
}

void SnmFilter::select_thresholds(const std::vector<double>& scores,
                                  const std::vector<bool>& labels) {
  std::vector<double> pos, neg;
  for (std::size_t i = 0; i < scores.size(); ++i) {
    (labels[i] ? pos : neg).push_back(scores[i]);
  }
  if (pos.empty() || neg.empty()) return;  // keep defaults; degenerate stream
  std::sort(pos.begin(), pos.end());
  std::sort(neg.begin(), neg.end());
  // c_low: all but threshold_tail of positives score above it.
  const auto lo_idx = static_cast<std::size_t>(config_.threshold_tail *
                                               static_cast<double>(pos.size()));
  double c_low = pos[std::min(lo_idx, pos.size() - 1)] * config_.c_low_relax;
  // c_high: all but threshold_tail of negatives score below it.
  const auto hi_idx = static_cast<std::size_t>((1.0 - config_.threshold_tail) *
                                               static_cast<double>(neg.size()));
  double c_high = neg[std::min(hi_idx, neg.size() - 1)];
  if (c_low > c_high) {
    // Heavy overlap: fall back to a band around the crossing point.
    const double mid = 0.5 * (c_low + c_high);
    c_low = std::max(0.02, mid - 0.1);
    c_high = std::min(0.98, mid + 0.1);
  }
  config_.c_low = c_low;
  config_.c_high = c_high;
}

SnmTrainReport SnmFilter::train(const std::vector<video::Frame>& frames,
                                const std::vector<bool>& labels, double val_fraction) {
  if (frames.size() != labels.size() || frames.empty()) {
    throw std::invalid_argument("SnmFilter::train: bad inputs");
  }
  SnmTrainReport report;

  // Deterministic shuffle, then split train/validation (Section 4.1: "these
  // labeled data are divided into two subsets as a training dataset and a
  // test dataset").
  runtime::Xoshiro256 rng(0x5151u + frames.size());
  std::vector<std::size_t> order(frames.size());
  std::iota(order.begin(), order.end(), 0);
  for (std::size_t i = order.size(); i > 1; --i) {
    std::swap(order[i - 1], order[rng.below(i)]);
  }
  const auto val_count = static_cast<std::size_t>(val_fraction *
                                                  static_cast<double>(order.size()));
  const std::size_t train_count = order.size() - val_count;

  for (std::size_t i = 0; i < order.size(); ++i) {
    (labels[order[i]] ? report.positives : report.negatives) += 1;
  }

  nn::Sgd optimizer(net_->params(), {config_.lr, 0.9, 1e-4});
  double lr = config_.lr;
  nn::ForwardScratch ws;

  for (int epoch = 0; epoch < config_.epochs; ++epoch) {
    // Re-shuffle the training prefix each epoch.
    for (std::size_t i = train_count; i > 1; --i) {
      std::swap(order[i - 1], order[rng.below(i)]);
    }
    double epoch_loss = 0.0;
    int batches = 0;
    for (std::size_t start = 0; start < train_count;
         start += static_cast<std::size_t>(config_.batch_size)) {
      const std::size_t end =
          std::min(train_count, start + static_cast<std::size_t>(config_.batch_size));
      std::vector<const image::Image*> imgs;
      std::vector<float> targets;
      for (std::size_t i = start; i < end; ++i) {
        imgs.push_back(&frames[order[i]].image);
        targets.push_back(labels[order[i]] ? 1.0f : 0.0f);
      }
      const nn::Tensor x = preprocess_batch_augmented(imgs, rng);
      const nn::Tensor& logits = net_->forward(x, ws, /*train=*/true);
      nn::Tensor grad;
      epoch_loss += nn::bce_with_logits(logits, targets, grad);
      ++batches;
      net_->backward(grad);
      optimizer.step();
    }
    report.final_loss = batches ? epoch_loss / batches : 0.0;
    lr *= config_.lr_decay;
    optimizer.set_lr(lr);
  }

  // Accuracy + threshold selection.
  auto evaluate = [&](std::size_t begin, std::size_t end, std::vector<double>* scores,
                      std::vector<bool>* score_labels) {
    int correct = 0, total = 0;
    for (std::size_t i = begin; i < end; ++i) {
      const double c = predict(frames[order[i]].image);
      const bool pred = c >= 0.5;
      if (pred == labels[order[i]]) ++correct;
      ++total;
      if (scores) {
        scores->push_back(c);
        score_labels->push_back(labels[order[i]]);
      }
    }
    return total ? static_cast<double>(correct) / total : 0.0;
  };

  report.train_accuracy = evaluate(0, train_count, nullptr, nullptr);
  std::vector<double> val_scores;
  std::vector<bool> val_labels;
  report.val_accuracy =
      evaluate(train_count, order.size(), &val_scores, &val_labels);
  if (val_scores.size() >= 10) {
    select_thresholds(val_scores, val_labels);
  } else {
    // Tiny validation set: select on everything.
    std::vector<double> all_scores;
    std::vector<bool> all_labels;
    evaluate(0, order.size(), &all_scores, &all_labels);
    select_thresholds(all_scores, all_labels);
  }
  report.c_low = config_.c_low;
  report.c_high = config_.c_high;
  return report;
}

void SnmFilter::save(std::ostream& os) const {
  runtime::write_pod(os, &config_.c_low);
  runtime::write_pod(os, &config_.c_high);
  net_->save(os);
}

void SnmFilter::load(std::istream& is) {
  if (!runtime::read_pod(is, &config_.c_low) ||
      !runtime::read_pod(is, &config_.c_high)) {
    throw std::runtime_error("truncated SNM threshold header on load");
  }
  net_->load(is);
}

}  // namespace ffsva::detect
