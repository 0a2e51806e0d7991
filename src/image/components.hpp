// Connected-component labelling and blob extraction.
//
// Both detectors in the reproduction are segmentation-based: the reference
// ("YOLOv2") detector segments the foreground at full resolution, T-YOLO at
// a coarse, downscaled resolution — which is what makes T-YOLO genuinely
// undercount small / dense / partially-visible objects, the failure mode the
// paper analyses in Section 5.3.
#pragma once

#include <vector>

#include "image/geometry.hpp"
#include "image/image.hpp"

namespace ffsva::image {

struct Component {
  Box box;
  int pixel_count = 0;
  int label = 0;
};

/// 4-connected component labelling of a binary (0 / nonzero) image, by
/// channel 0. Labels number components in raster order of their first
/// pixel, before components smaller than `min_pixels` are discarded.
/// Returned components are ordered by descending pixel count, ties by label.
std::vector<Component> connected_components(const Image& binary, int min_pixels = 1);

/// Label map variant: fills `labels` (same size as the image, 0 = background,
/// 1..N = component id) and returns the components. Used by tests.
std::vector<Component> connected_components_labeled(const Image& binary,
                                                    std::vector<int>& labels,
                                                    int min_pixels = 1);

}  // namespace ffsva::image
