#include "image/components.hpp"

#include <algorithm>
#include <cmath>
#include <utility>

namespace ffsva::image {

double iou(const Box& a, const Box& b) {
  const long long inter = a.intersect(b).area();
  if (inter == 0) return 0.0;
  const long long uni = a.area() + b.area() - inter;
  return uni > 0 ? static_cast<double>(inter) / static_cast<double>(uni) : 0.0;
}

std::vector<ScoredBox> nms(std::vector<ScoredBox> boxes, double iou_threshold) {
  std::stable_sort(
      boxes.begin(), boxes.end(),
      [](const ScoredBox& a, const ScoredBox& b) { return a.score > b.score; });
  std::vector<ScoredBox> kept;
  kept.reserve(boxes.size());
  for (const auto& cand : boxes) {
    bool suppressed = false;
    for (const auto& k : kept) {
      if (iou(cand.box, k.box) > iou_threshold) {
        suppressed = true;
        break;
      }
    }
    if (!suppressed) kept.push_back(cand);
  }
  return kept;
}

std::vector<Component> connected_components_labeled(const Image& binary,
                                                    std::vector<int>& labels,
                                                    int min_pixels) {
  const int w = binary.width(), h = binary.height();
  labels.assign(static_cast<std::size_t>(w) * h, 0);
  std::vector<Component> comps;
  int next_label = 0;
  // Flood-fill stack, reused across the components of one call. The
  // visiting order does not matter: labels, boxes and pixel counts depend
  // only on which pixels a component holds.
  std::vector<std::pair<int, int>> frontier;

  for (int sy = 0; sy < h; ++sy) {
    for (int sx = 0; sx < w; ++sx) {
      const std::size_t sidx = static_cast<std::size_t>(sy) * w + sx;
      if (binary.at(sx, sy) == 0 || labels[sidx] != 0) continue;
      ++next_label;
      Component comp;
      comp.label = next_label;
      comp.box = Box{sx, sy, sx + 1, sy + 1};
      frontier.clear();
      frontier.emplace_back(sx, sy);
      labels[sidx] = next_label;
      while (!frontier.empty()) {
        const auto [x, y] = frontier.back();
        frontier.pop_back();
        ++comp.pixel_count;
        comp.box.x0 = std::min(comp.box.x0, x);
        comp.box.y0 = std::min(comp.box.y0, y);
        comp.box.x1 = std::max(comp.box.x1, x + 1);
        comp.box.y1 = std::max(comp.box.y1, y + 1);
        constexpr int kDx[4] = {1, -1, 0, 0};
        constexpr int kDy[4] = {0, 0, 1, -1};
        for (int d = 0; d < 4; ++d) {
          const int nx = x + kDx[d], ny = y + kDy[d];
          if (nx < 0 || nx >= w || ny < 0 || ny >= h) continue;
          const std::size_t nidx = static_cast<std::size_t>(ny) * w + nx;
          if (binary.at(nx, ny) != 0 && labels[nidx] == 0) {
            labels[nidx] = next_label;
            frontier.emplace_back(nx, ny);
          }
        }
      }
      if (comp.pixel_count >= min_pixels) comps.push_back(comp);
    }
  }
  std::stable_sort(comps.begin(), comps.end(),
                   [](const Component& a, const Component& b) {
                     return a.pixel_count > b.pixel_count;
                   });
  return comps;
}

std::vector<Component> connected_components(const Image& binary, int min_pixels) {
  std::vector<int> labels;
  return connected_components_labeled(binary, labels, min_pixels);
}

}  // namespace ffsva::image
