#include "detect/tyolo.hpp"

#include <algorithm>
#include <vector>

#include "detect/fault_hook.hpp"
#include "image/ops.hpp"
#include "runtime/cancel.hpp"

namespace ffsva::detect {

TYoloDetector::TYoloDetector(TYoloConfig config, const image::Image& background)
    : config_(config),
      background_small_(
          image::resize_bilinear(background, config.input_size, config.input_size)),
      scale_x_(static_cast<double>(background.width()) / config.input_size),
      scale_y_(static_cast<double>(background.height()) / config.input_size) {}

void TYoloDetector::prepare(const image::Image& frame, image::Image& out) const {
  // A detector instance may be shared across threads, so the plan tables
  // live per thread, not per instance. Steady state (fixed frame geometry)
  // resizes allocation-free once `out` is warm.
  static thread_local image::ResizePlan plan;
  plan.ensure(frame.width(), frame.height(), config_.input_size, config_.input_size);
  image::resize_bilinear_into(frame, plan, out);
}

DetectionResult TYoloDetector::detect(const image::Image& frame) const {
  static thread_local image::Image input;
  prepare(frame, input);
  return detect_prepared(input);
}

DetectionResult TYoloDetector::detect_prepared(const image::Image& input) const {
  FaultHook::on_call(FaultStage::kTyolo);
  runtime::check_cancel();
  DetectionResult out;
  const auto comps =
      foreground_components(input, background_small_, config_.segmentation);
  out.detections.reserve(comps.size());

  // Grid occupancy: at most boxes_per_cell detections per cell.
  const int cell_px = std::max(1, config_.input_size / config_.grid);
  static thread_local std::vector<int> cell_load;
  cell_load.assign(static_cast<std::size_t>(config_.grid) * config_.grid, 0);

  for (const auto& c : comps) {
    const int gx = std::clamp(c.box.cx() / cell_px, 0, config_.grid - 1);
    const int gy = std::clamp(c.box.cy() / cell_px, 0, config_.grid - 1);
    int& load = cell_load[static_cast<std::size_t>(gy) * config_.grid + gx];
    if (load >= config_.boxes_per_cell) continue;  // cell saturated
    ++load;
    Detection d = classify_component(c, config_.input_size, config_.input_size,
                                     config_.segmentation.min_pixels,
                                     config_.classifier);
    // Map the box back to frame coordinates.
    d.box = image::Box{static_cast<int>(d.box.x0 * scale_x_),
                       static_cast<int>(d.box.y0 * scale_y_),
                       static_cast<int>(d.box.x1 * scale_x_),
                       static_cast<int>(d.box.y1 * scale_y_)};
    if (d.confidence >= config_.confidence_threshold) out.detections.push_back(d);
  }
  return out;
}

}  // namespace ffsva::detect
