#include "image/draw.hpp"

#include <algorithm>
#include <cmath>

namespace ffsva::image {

namespace {
void put(Image& img, int x, int y, Rgb color) {
  if (!img.in_bounds(x, y)) return;
  if (img.channels() == 1) {
    img.at(x, y) =
        static_cast<std::uint8_t>((77 * color.r + 150 * color.g + 29 * color.b) >> 8);
  } else {
    img.at(x, y, 0) = color.r;
    img.at(x, y, 1) = color.g;
    img.at(x, y, 2) = color.b;
  }
}
}  // namespace

void fill_rect(Image& img, const Box& rect, Rgb color) {
  const Box r = rect.clip(img.width(), img.height());
  for (int y = r.y0; y < r.y1; ++y) {
    for (int x = r.x0; x < r.x1; ++x) put(img, x, y, color);
  }
}

void fill_ellipse(Image& img, int cx, int cy, int rx, int ry, Rgb color) {
  if (rx <= 0 || ry <= 0) return;
  const int x0 = std::max(0, cx - rx), x1 = std::min(img.width(), cx + rx + 1);
  const int y0 = std::max(0, cy - ry), y1 = std::min(img.height(), cy + ry + 1);
  const double inv_rx2 = 1.0 / (static_cast<double>(rx) * rx);
  const double inv_ry2 = 1.0 / (static_cast<double>(ry) * ry);
  for (int y = y0; y < y1; ++y) {
    for (int x = x0; x < x1; ++x) {
      const double dx = x - cx, dy = y - cy;
      if (dx * dx * inv_rx2 + dy * dy * inv_ry2 <= 1.0) put(img, x, y, color);
    }
  }
}

void fill_vertical_gradient(Image& img, Rgb top, Rgb bottom) {
  const int h = img.height();
  for (int y = 0; y < h; ++y) {
    const double t = h > 1 ? static_cast<double>(y) / (h - 1) : 0.0;
    const Rgb c{static_cast<std::uint8_t>(top.r + t * (bottom.r - top.r)),
                static_cast<std::uint8_t>(top.g + t * (bottom.g - top.g)),
                static_cast<std::uint8_t>(top.b + t * (bottom.b - top.b))};
    for (int x = 0; x < img.width(); ++x) put(img, x, y, c);
  }
}

void apply_gain(Image& img, double gain) {
  std::uint8_t* p = img.data();
  const std::size_t n = img.size_bytes();
  for (std::size_t i = 0; i < n; ++i) {
    p[i] = static_cast<std::uint8_t>(std::clamp(p[i] * gain + 0.5, 0.0, 255.0));
  }
}

void fill_band(Image& img, int y0, int y1, Rgb color) {
  fill_rect(img, Box{0, y0, img.width(), y1}, color);
}

void blend_rect(Image& img, const Box& rect, Rgb color, double alpha) {
  alpha = std::clamp(alpha, 0.0, 1.0);
  const Box r = rect.clip(img.width(), img.height());
  for (int y = r.y0; y < r.y1; ++y) {
    for (int x = r.x0; x < r.x1; ++x) {
      if (img.channels() == 1) {
        const double gray = (77 * color.r + 150 * color.g + 29 * color.b) / 256.0;
        img.at(x, y) =
            static_cast<std::uint8_t>(img.at(x, y) * (1 - alpha) + gray * alpha);
      } else {
        img.at(x, y, 0) = static_cast<std::uint8_t>(img.at(x, y, 0) * (1 - alpha) +
                                                     color.r * alpha);
        img.at(x, y, 1) = static_cast<std::uint8_t>(img.at(x, y, 1) * (1 - alpha) +
                                                     color.g * alpha);
        img.at(x, y, 2) = static_cast<std::uint8_t>(img.at(x, y, 2) * (1 - alpha) +
                                                     color.b * alpha);
      }
    }
  }
}

}  // namespace ffsva::image
