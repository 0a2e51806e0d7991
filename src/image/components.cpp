#include "image/components.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <iterator>

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

namespace {
/// A horizontal run of foreground pixels, columns [x0, x1) of row y.
struct Run {
  int y, x0, x1;
};

/// Grow-only per-thread scratch of the run labeller.
struct RunScratch {
  std::vector<Run> runs;  ///< Every run of the mask, in raster order.
  /// Union-find parent of each run (never above the run's own index), then,
  /// once label_runs() returns, the run's component label.
  std::vector<int> parent;
  std::vector<Component> comps;  ///< Component l at index l - 1.
};

int find_root(std::vector<int>& parent, int i) {
  while (parent[i] != i) {
    parent[i] = parent[parent[i]];
    i = parent[i];
  }
  return i;
}

/// Joins the sets of runs a and b under the lower of their two roots, so a
/// set's root is always its lowest run index.
void unite(std::vector<int>& parent, int a, int b) {
  const int ra = find_root(parent, a), rb = find_root(parent, b);
  parent[std::max(ra, rb)] = std::min(ra, rb);
}

/// Appends the runs of nonzero channel-0 bytes in `row` to `runs`.
void scan_row(const std::uint8_t* row, int w, int c, int y, std::vector<Run>& runs) {
  const auto set = [&](int x) { return row[static_cast<std::size_t>(x) * c] != 0; };
  int x = 0;
  for (;;) {
    if (c == 1) {
      // Masks are mostly background: skip zero bytes a word at a time.
      for (std::uint64_t word; x + 8 <= w; x += 8) {
        std::memcpy(&word, row + x, sizeof word);
        if (word != 0) break;
      }
    }
    while (x < w && !set(x)) ++x;
    if (x == w) return;
    const int x0 = x;
    while (x < w && set(x)) ++x;
    runs.push_back(Run{y, x0, x});
  }
}

/// 4-connected run labelling into per-thread scratch. A run joins each run
/// of the row above that shares a column with it. Runs are made in raster
/// order, so a component's root (its lowest run) holds its first raster
/// pixel, and numbering roots in run order gives the labels a raster-order
/// flood fill would.
const RunScratch& label_runs(const Image& binary) {
  static thread_local RunScratch s;
  const int w = binary.width(), h = binary.height(), c = binary.channels();
  s.runs.clear();
  s.parent.clear();
  s.comps.clear();
  int above = 0, begin = 0;  // runs of the row above: [above, begin)
  for (int y = 0; y < h; ++y) {
    scan_row(binary.data() + static_cast<std::size_t>(y) * w * c, w, c, y, s.runs);
    const int end = static_cast<int>(s.runs.size());
    for (int i = begin; i < end; ++i) {
      s.parent.push_back(i);
      const Run& r = s.runs[static_cast<std::size_t>(i)];
      // A run above that ends before r starts cannot touch r or later runs.
      while (above < begin && s.runs[static_cast<std::size_t>(above)].x1 <= r.x0) {
        ++above;
      }
      for (int q = above; q < begin && s.runs[static_cast<std::size_t>(q)].x0 < r.x1;
           ++q) {
        unite(s.parent, i, q);
      }
    }
    above = begin;
    begin = end;
  }
  // parent[i] < i for every non-root run, so by the time run i is reached
  // its parent's slot already holds their component's label.
  for (std::size_t i = 0; i < s.runs.size(); ++i) {
    const Run& r = s.runs[i];
    int& slot = s.parent[i];
    if (slot == static_cast<int>(i)) {
      slot = static_cast<int>(s.comps.size()) + 1;
      s.comps.push_back(Component{Box{r.x0, r.y, r.x1, r.y + 1}, 0, slot});
    } else {
      slot = s.parent[static_cast<std::size_t>(slot)];
    }
    Component& comp = s.comps[static_cast<std::size_t>(slot) - 1];
    comp.pixel_count += r.x1 - r.x0;
    comp.box.x0 = std::min(comp.box.x0, r.x0);
    comp.box.x1 = std::max(comp.box.x1, r.x1);
    comp.box.y1 = r.y + 1;
  }
  return s;
}

/// The components of at least `min_pixels` pixels, by descending pixel
/// count and, within a count, by label: the order a stable sort of the
/// label-ordered list gives, without a stable sort's buffer.
std::vector<Component> largest_first(const std::vector<Component>& comps,
                                     int min_pixels) {
  const auto kept = [min_pixels](const Component& c) {
    return c.pixel_count >= min_pixels;
  };
  std::vector<Component> out;
  out.reserve(
      static_cast<std::size_t>(std::count_if(comps.begin(), comps.end(), kept)));
  std::copy_if(comps.begin(), comps.end(), std::back_inserter(out), kept);
  std::sort(out.begin(), out.end(), [](const Component& a, const Component& b) {
    return a.pixel_count != b.pixel_count ? a.pixel_count > b.pixel_count
                                          : a.label < b.label;
  });
  return out;
}
}  // namespace

std::vector<Component> connected_components_labeled(const Image& binary,
                                                    std::vector<int>& labels,
                                                    int min_pixels) {
  const RunScratch& s = label_runs(binary);
  const int w = binary.width();
  labels.assign(static_cast<std::size_t>(w) * binary.height(), 0);
  for (std::size_t i = 0; i < s.runs.size(); ++i) {
    const Run& r = s.runs[i];
    const auto row = labels.begin() + static_cast<std::ptrdiff_t>(r.y) * w;
    std::fill(row + r.x0, row + r.x1, s.parent[i]);
  }
  return largest_first(s.comps, min_pixels);
}

std::vector<Component> connected_components(const Image& binary, int min_pixels) {
  return largest_first(label_runs(binary).comps, min_pixels);
}

}  // namespace ffsva::image
