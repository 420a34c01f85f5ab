#include "data/pgm.hpp"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <stdexcept>
#include <string>
#include <system_error>
#include <vector>

namespace autolearn::data {

void write_pgm(const std::filesystem::path& path, const camera::Image& img) {
  if (img.empty()) throw std::invalid_argument("write_pgm: empty image");
  std::ofstream os(path, std::ios::binary);
  if (!os) throw std::runtime_error("write_pgm: cannot open " + path.string());
  os << "P5\n" << img.width() << " " << img.height() << "\n255\n";
  std::vector<unsigned char> row(img.width());
  for (std::size_t y = 0; y < img.height(); ++y) {
    for (std::size_t x = 0; x < img.width(); ++x) {
      const float v = std::clamp(img.at(x, y), 0.0f, 1.0f);
      row[x] = static_cast<unsigned char>(std::lround(v * 255.0f));
    }
    os.write(reinterpret_cast<const char*>(row.data()),
             static_cast<std::streamsize>(row.size()));
  }
  if (!os) throw std::runtime_error("write_pgm: write failed");
}

camera::Image read_pgm(const std::filesystem::path& path) {
  std::ifstream is(path, std::ios::binary);
  if (!is) throw std::runtime_error("read_pgm: cannot open " + path.string());
  std::string magic;
  is >> magic;
  if (magic != "P5") throw std::runtime_error("read_pgm: not a P5 PGM");
  std::size_t w = 0, h = 0;
  int maxval = 0;
  is >> w >> h >> maxval;
  if (!is || w == 0 || h == 0 || maxval != 255) {
    throw std::runtime_error("read_pgm: bad header");
  }
  is.get();  // single whitespace after header
  // Size the image only once the file is known to hold its w * h bytes;
  // dividing instead of multiplying keeps a huge header from wrapping.
  const std::streamoff data_at = is.tellg();
  std::error_code ec;
  const std::uintmax_t file_bytes = std::filesystem::file_size(path, ec);
  if (!is || ec || data_at < 0 ||
      static_cast<std::uintmax_t>(data_at) > file_bytes ||
      w > (file_bytes - static_cast<std::uintmax_t>(data_at)) / h) {
    throw std::runtime_error("read_pgm: truncated data");
  }
  camera::Image img(w, h);
  std::vector<unsigned char> row(w);
  for (std::size_t y = 0; y < h; ++y) {
    is.read(reinterpret_cast<char*>(row.data()),
            static_cast<std::streamsize>(row.size()));
    if (!is) throw std::runtime_error("read_pgm: truncated data");
    for (std::size_t x = 0; x < w; ++x) {
      img.at(x, y) = static_cast<float>(row[x]) / 255.0f;
    }
  }
  return img;
}

}  // namespace autolearn::data
