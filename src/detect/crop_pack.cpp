#include "detect/crop_pack.hpp"

#include <algorithm>
#include <cstring>
#include <stdexcept>
#include <utility>

#include "detect/segmentation.hpp"
#include "image/components.hpp"
#include "runtime/parallel_for.hpp"

namespace ffsva::detect {

std::vector<image::Box> consolidate_candidates(std::vector<image::Box> boxes,
                                               int frame_w, int frame_h, int pad) {
  std::vector<image::Box> out;
  out.reserve(boxes.size());
  for (const auto& b : boxes) {
    if (b.empty()) continue;  // zero-area noise must not inflate into a crop
    const image::Box padded{b.x0 - pad, b.y0 - pad, b.x1 + pad, b.y1 + pad};
    const image::Box clipped = padded.clip(frame_w, frame_h);
    if (!clipped.empty()) out.push_back(clipped);
  }
  // Transitive merge to a fixpoint: an object covered by several overlapping
  // candidates must become ONE crop, or segmentation would see (and count)
  // its pieces twice. Candidate counts are tiny (a handful of T-YOLO boxes
  // per frame), so the quadratic sweep is irrelevant next to segmentation.
  bool merged = true;
  while (merged) {
    merged = false;
    for (std::size_t i = 0; i < out.size() && !merged; ++i) {
      for (std::size_t j = i + 1; j < out.size(); ++j) {
        if (out[i].intersect(out[j]).empty()) continue;
        out[i] = out[i].unite(out[j]);
        out.erase(out.begin() + static_cast<std::ptrdiff_t>(j));
        merged = true;
        break;
      }
    }
  }
  return out;
}

PackPlan plan_pack(const std::vector<CropRequest>& requests,
                   const CropPackConfig& cfg) {
  PackPlan plan;
  plan.canvas_w = plan.canvas_h = std::max(16, cfg.canvas_edge);
  const int gutter = std::max(1, cfg.gutter);

  struct PendingCrop {
    int slot = 0;
    image::Box src;
  };
  std::vector<PendingCrop> crops;

  for (int slot = 0; slot < static_cast<int>(requests.size()); ++slot) {
    const auto& req = requests[slot];
    // Anything the mosaic path cannot represent faithfully goes full-frame:
    // no candidates (nothing localized the object — vet everything), shape
    // or channel mismatches (the full-frame path will surface the error for
    // that slot alone), oversized crops, or coverage past the break-even.
    if (req.frame == nullptr || req.background == nullptr ||
        req.candidates.empty() || !req.frame->same_shape(*req.background)) {
      plan.full_frame.push_back(slot);
      continue;
    }
    if (plan.channels == 0) plan.channels = req.frame->channels();
    if (req.frame->channels() != plan.channels) {
      plan.full_frame.push_back(slot);
      continue;
    }
    const int fw = req.frame->width();
    const int fh = req.frame->height();
    const auto merged = consolidate_candidates(req.candidates, fw, fh, cfg.pad);
    if (merged.empty()) {
      plan.full_frame.push_back(slot);
      continue;
    }
    long long crop_area = 0;
    bool fits = true;
    for (const auto& b : merged) {
      crop_area += b.area();
      if (b.width() + 2 * gutter > plan.canvas_w ||
          b.height() + 2 * gutter > plan.canvas_h) {
        fits = false;
      }
    }
    const double coverage =
        static_cast<double>(crop_area) /
        static_cast<double>(std::max<long long>(1, static_cast<long long>(fw) * fh));
    if (!fits || coverage > cfg.coverage_threshold) {
      plan.full_frame.push_back(slot);
      continue;
    }
    for (const auto& b : merged) crops.push_back({slot, b});
  }
  if (plan.channels == 0) plan.channels = 1;  // no canvases will be rendered

  // Shelf packing, tallest first: crops on one shelf share its height, so
  // descending height keeps shelves dense. stable_sort keeps slot order for
  // equal heights — the plan (and therefore the output) is deterministic.
  std::stable_sort(crops.begin(), crops.end(),
                   [](const PendingCrop& a, const PendingCrop& b) {
                     return a.src.height() > b.src.height();
                   });

  int canvas = -1;
  int x = 0, y = 0, shelf_h = 0;
  const auto open_canvas = [&] {
    ++canvas;
    x = gutter;
    y = gutter;
    shelf_h = 0;
    plan.fill_ratio.push_back(0.0);
    plan.crops_per_canvas.push_back(0);
  };
  for (const auto& c : crops) {
    const int w = c.src.width();
    const int h = c.src.height();
    if (canvas < 0) open_canvas();
    if (x + w + gutter > plan.canvas_w) {  // next shelf
      x = gutter;
      y += shelf_h + gutter;
      shelf_h = 0;
    }
    if (y + h + gutter > plan.canvas_h) open_canvas();
    plan.placements.push_back(CropPlacement{c.slot, c.src, canvas, x, y});
    plan.fill_ratio[static_cast<std::size_t>(canvas)] +=
        static_cast<double>(c.src.area());
    plan.crops_per_canvas[static_cast<std::size_t>(canvas)]++;
    x += w + gutter;
    shelf_h = std::max(shelf_h, h);
  }
  plan.num_canvases = canvas + 1;
  const double canvas_area = static_cast<double>(plan.canvas_w) * plan.canvas_h;
  for (auto& f : plan.fill_ratio) f /= canvas_area;
  return plan;
}

MosaicCanvases render_pack(const std::vector<CropRequest>& requests,
                           const PackPlan& plan) {
  MosaicCanvases out;
  out.frame.reserve(static_cast<std::size_t>(plan.num_canvases));
  out.background.reserve(static_cast<std::size_t>(plan.num_canvases));
  for (int i = 0; i < plan.num_canvases; ++i) {
    out.frame.emplace_back(plan.canvas_w, plan.canvas_h, plan.channels, 0);
    out.background.emplace_back(plan.canvas_w, plan.canvas_h, plan.channels, 0);
  }
  for (const auto& p : plan.placements) {
    const auto& req = requests[static_cast<std::size_t>(p.slot)];
    auto& dst_f = out.frame[static_cast<std::size_t>(p.canvas)];
    auto& dst_b = out.background[static_cast<std::size_t>(p.canvas)];
    const int ch = plan.channels;
    const int row_bytes = p.src.width() * ch;
    for (int yy = 0; yy < p.src.height(); ++yy) {
      const std::size_t src_off =
          (static_cast<std::size_t>(p.src.y0 + yy) * req.frame->width() + p.src.x0) *
          ch;
      const std::size_t dst_off =
          (static_cast<std::size_t>(p.dy + yy) * plan.canvas_w + p.dx) * ch;
      std::memcpy(dst_f.data() + dst_off, req.frame->data() + src_off,
                  static_cast<std::size_t>(row_bytes));
      std::memcpy(dst_b.data() + dst_off, req.background->data() + src_off,
                  static_cast<std::size_t>(row_bytes));
    }
  }
  return out;
}

MapResult map_back(const PackPlan& plan, int canvas, const image::Box& mosaic_box) {
  for (const auto& p : plan.placements) {
    if (p.canvas != canvas) continue;
    const image::Box d = p.dst();
    if (!d.contains(mosaic_box.cx(), mosaic_box.cy())) continue;
    // Segmentation blurs the |frame-bg| diff map, so a blob hugging a crop
    // edge legitimately bleeds up to the blur radius into the zero gutter.
    // Clip that overhang back to the placement instead of discarding the
    // detection — with gutter > 2*blur_radius blobs cannot bridge crops, so
    // everything centred inside this placement belongs to it.
    const image::Box clipped = mosaic_box.intersect(d);
    if (clipped.empty()) continue;
    const int ox = p.src.x0 - p.dx;
    const int oy = p.src.y0 - p.dy;
    return MapResult{p.slot, image::Box{clipped.x0 + ox, clipped.y0 + oy,
                                        clipped.x1 + ox, clipped.y1 + oy}};
  }
  return MapResult{};  // centre in a gutter: seam artefact, not a detection
}

ConsolidatedBatch consolidate_detect(const std::vector<CropRequest>& requests,
                                     const ReferenceConfig& cfg,
                                     const CropPackConfig& pack) {
  ConsolidatedBatch out;
  out.items.resize(requests.size());
  const PackPlan plan = plan_pack(requests, pack);
  const MosaicCanvases canvases = render_pack(requests, plan);
  out.stats.mosaics = plan.num_canvases;
  out.stats.packed_crops = static_cast<int>(plan.placements.size());
  out.stats.full_frame_fallbacks = static_cast<int>(plan.full_frame.size());
  out.stats.fill_ratio = plan.fill_ratio;
  out.stats.crops_per_mosaic = plan.crops_per_canvas;

  // One work unit per mosaic plus one per full-frame fallback. Each unit
  // writes only its own output slot(s); merging is serial afterwards. A
  // mosaic is many crops' worth of segmentation, a fallback a whole frame —
  // either dwarfs the fork-join cost, hence grain 1.
  struct CanvasOut {
    std::vector<std::pair<int, Detection>> dets;  // (slot, detection)
    int seam = 0;
    bool ok = true;
  };
  std::vector<CanvasOut> per_canvas(static_cast<std::size_t>(plan.num_canvases));
  const std::int64_t units =
      plan.num_canvases + static_cast<std::int64_t>(plan.full_frame.size());

  runtime::parallel_for(0, units, 1, [&](std::int64_t b, std::int64_t e) {
    for (std::int64_t i = b; i < e; ++i) {
      if (i < plan.num_canvases) {
        auto& co = per_canvas[static_cast<std::size_t>(i)];
        const int canvas = static_cast<int>(i);
        try {
          const auto comps = foreground_components(
              canvases.frame[static_cast<std::size_t>(canvas)],
              canvases.background[static_cast<std::size_t>(canvas)], cfg.segmentation);
          for (const auto& comp : comps) {
            const MapResult m = map_back(plan, canvas, comp.box);
            if (m.slot < 0) {
              co.seam++;
              continue;
            }
            const auto& req = requests[static_cast<std::size_t>(m.slot)];
            const image::Component mapped{m.frame_box, comp.pixel_count, comp.label};
            co.dets.emplace_back(
                m.slot,
                classify_component(mapped, req.frame->width(), req.frame->height(),
                                   cfg.segmentation.min_pixels, cfg.classifier));
          }
        } catch (...) {
          co.ok = false;
        }
      } else {
        const int slot =
            plan.full_frame[static_cast<std::size_t>(i - plan.num_canvases)];
        auto& item = out.items[static_cast<std::size_t>(slot)];
        try {
          const auto& req = requests[static_cast<std::size_t>(slot)];
          if (req.frame == nullptr || req.background == nullptr) {
            throw std::invalid_argument("crop_pack: null frame or background");
          }
          // Inline ReferenceDetector::detect() against the caller-owned
          // background — same code path, no background copy per frame.
          const auto comps =
              foreground_components(*req.frame, *req.background, cfg.segmentation);
          item.result.detections.reserve(comps.size());
          for (const auto& c : comps) {
            item.result.detections.push_back(classify_component(
                c, req.frame->width(), req.frame->height(),
                cfg.segmentation.min_pixels, cfg.classifier));
          }
        } catch (...) {
          item.ok = false;
          item.result.detections.clear();
        }
      }
    }
  });

  // Serial merge. A slot's crops may span canvases; one failed canvas fails
  // every slot packed into it (per-frame drop-on-error), so mark failures
  // first and only then distribute detections to still-healthy slots.
  for (const auto& co : per_canvas) out.stats.seam_suppressed += co.seam;
  for (std::size_t c = 0; c < per_canvas.size(); ++c) {
    if (per_canvas[c].ok) continue;
    for (const auto& p : plan.placements) {
      if (p.canvas == static_cast<int>(c)) {
        out.items[static_cast<std::size_t>(p.slot)].ok = false;
      }
    }
  }
  for (const auto& co : per_canvas) {
    if (!co.ok) continue;
    for (const auto& [slot, det] : co.dets) {
      auto& item = out.items[static_cast<std::size_t>(slot)];
      if (item.ok) item.result.detections.push_back(det);
    }
  }
  for (auto& item : out.items) {
    if (!item.ok) item.result.detections.clear();
  }
  return out;
}

}  // namespace ffsva::detect
