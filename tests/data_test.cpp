#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <limits>

#include "data/collector.hpp"
#include "data/dataset.hpp"
#include "data/pgm.hpp"
#include "data/tub.hpp"
#include "data/tubclean.hpp"
#include "track/track.hpp"
#include "util/rng.hpp"

namespace autolearn::data {
namespace {

namespace fs = std::filesystem;

class TempDir {
 public:
  TempDir() {
    static int counter = 0;
    path_ = fs::temp_directory_path() /
            ("autolearn_test_" + std::to_string(::getpid()) + "_" +
             std::to_string(counter++));
    fs::create_directories(path_);
  }
  ~TempDir() { fs::remove_all(path_); }
  const fs::path& path() const { return path_; }

 private:
  fs::path path_;
};

camera::Image test_image(std::size_t w = 8, std::size_t h = 6,
                         float base = 0.0f) {
  camera::Image img(w, h);
  for (std::size_t y = 0; y < h; ++y) {
    for (std::size_t x = 0; x < w; ++x) {
      img.at(x, y) = base + static_cast<float>(x + y) / 32.0f;
    }
  }
  img.clamp();
  return img;
}

// --- PGM --------------------------------------------------------------------

TEST(Pgm, RoundTrip) {
  TempDir dir;
  const camera::Image img = test_image();
  write_pgm(dir.path() / "a.pgm", img);
  const camera::Image back = read_pgm(dir.path() / "a.pgm");
  ASSERT_EQ(back.width(), img.width());
  ASSERT_EQ(back.height(), img.height());
  for (std::size_t i = 0; i < img.size(); ++i) {
    EXPECT_NEAR(back.pixels()[i], img.pixels()[i], 1.0f / 255.0f);
  }
}

TEST(Pgm, ClampsOutOfRangeValues) {
  TempDir dir;
  camera::Image img(2, 1);
  img.at(0, 0) = -0.5f;
  img.at(1, 0) = 1.5f;
  write_pgm(dir.path() / "b.pgm", img);
  const camera::Image back = read_pgm(dir.path() / "b.pgm");
  EXPECT_FLOAT_EQ(back.at(0, 0), 0.0f);
  EXPECT_FLOAT_EQ(back.at(1, 0), 1.0f);
}

TEST(Pgm, ReadErrors) {
  TempDir dir;
  EXPECT_THROW(read_pgm(dir.path() / "missing.pgm"), std::runtime_error);
  {
    std::ofstream os(dir.path() / "bad.pgm");
    os << "P2\n2 2\n255\n0 0 0 0\n";
  }
  EXPECT_THROW(read_pgm(dir.path() / "bad.pgm"), std::runtime_error);
  {
    // A header whose w * h exceeds vector::max_size(), over four bytes.
    std::ofstream os(dir.path() / "huge.pgm", std::ios::binary);
    os << "P5\n2147483648 2147483648\n255\n" << std::string(4, '\0');
  }
  EXPECT_THROW(read_pgm(dir.path() / "huge.pgm"), std::runtime_error);
  {
    // One byte short of a 3x2 image.
    std::ofstream os(dir.path() / "short.pgm", std::ios::binary);
    os << "P5\n3 2\n255\n" << std::string(5, '\x7f');
  }
  EXPECT_THROW(read_pgm(dir.path() / "short.pgm"), std::runtime_error);
}

// --- Tub ---------------------------------------------------------------------

TEST(Tub, WriteReadRoundTrip) {
  TempDir dir;
  {
    TubWriter w(dir.path() / "tub");
    w.append(test_image(), 0.25f, 0.5f, 1.2f, false);
    w.append(test_image(8, 6, 0.1f), -0.75f, 0.8f, 1.5f, true);
    w.close();
  }
  Tub tub(dir.path() / "tub");
  EXPECT_EQ(tub.total_records(), 2u);
  EXPECT_EQ(tub.active_records(), 2u);
  const auto records = tub.read_all();
  ASSERT_EQ(records.size(), 2u);
  EXPECT_EQ(records[0].index, 0u);
  EXPECT_FLOAT_EQ(records[0].steering, 0.25f);
  EXPECT_FLOAT_EQ(records[0].throttle, 0.5f);
  EXPECT_FLOAT_EQ(records[0].speed, 1.2f);
  EXPECT_FALSE(records[0].mistake);
  EXPECT_TRUE(records[1].mistake);
  EXPECT_EQ(records[1].image.width(), 8u);
}

TEST(Tub, CatalogRotation) {
  TempDir dir;
  {
    TubWriter w(dir.path() / "tub", /*records_per_catalog=*/10);
    for (int i = 0; i < 25; ++i) {
      w.append(test_image(), 0.0f, 0.5f);
    }
    w.close();
  }
  // 25 records with 10 per catalog -> catalogs 0,1,2.
  EXPECT_TRUE(fs::exists(dir.path() / "tub" / "catalog_0.catalog"));
  EXPECT_TRUE(fs::exists(dir.path() / "tub" / "catalog_1.catalog"));
  EXPECT_TRUE(fs::exists(dir.path() / "tub" / "catalog_2.catalog"));
  Tub tub(dir.path() / "tub");
  EXPECT_EQ(tub.read_all().size(), 25u);
  // Order must be preserved across catalogs.
  const auto records = tub.read_all();
  for (std::size_t i = 0; i < records.size(); ++i) {
    EXPECT_EQ(records[i].index, i);
  }
}

TEST(Tub, MarkDeletedPersistsAcrossReopen) {
  TempDir dir;
  {
    TubWriter w(dir.path() / "tub");
    for (int i = 0; i < 5; ++i) w.append(test_image(), 0.0f, 0.5f);
    w.close();
  }
  {
    Tub tub(dir.path() / "tub");
    tub.mark_deleted({1, 3});
    EXPECT_EQ(tub.active_records(), 3u);
  }
  Tub reopened(dir.path() / "tub");
  EXPECT_EQ(reopened.active_records(), 3u);
  EXPECT_EQ(reopened.deleted_indexes().size(), 2u);
  const auto records = reopened.read_all();
  ASSERT_EQ(records.size(), 3u);
  EXPECT_EQ(records[0].index, 0u);
  EXPECT_EQ(records[1].index, 2u);
  EXPECT_EQ(records[2].index, 4u);
  EXPECT_FALSE(reopened.read(1).has_value());
  EXPECT_TRUE(reopened.read(2).has_value());
  EXPECT_FALSE(reopened.read(99).has_value());
}

TEST(Tub, RestoreAllClearsDeletions) {
  TempDir dir;
  {
    TubWriter w(dir.path() / "tub");
    for (int i = 0; i < 4; ++i) w.append(test_image(), 0.0f, 0.5f);
    w.close();
  }
  Tub tub(dir.path() / "tub");
  tub.mark_deleted({0, 1});
  tub.restore_all();
  EXPECT_EQ(tub.active_records(), 4u);
}

TEST(Tub, MarkDeletedValidatesIndexes) {
  TempDir dir;
  {
    TubWriter w(dir.path() / "tub");
    w.append(test_image(), 0.0f, 0.5f);
    w.close();
  }
  Tub tub(dir.path() / "tub");
  EXPECT_THROW(tub.mark_deleted({5}), std::invalid_argument);
}

TEST(Tub, SizeBytesNonZero) {
  TempDir dir;
  {
    TubWriter w(dir.path() / "tub");
    for (int i = 0; i < 10; ++i) w.append(test_image(), 0.0f, 0.5f);
    w.close();
  }
  Tub tub(dir.path() / "tub");
  EXPECT_GT(tub.size_bytes(), 10u * 8 * 6);  // at least the pixel payload
}

TEST(Tub, AppendAfterCloseThrows) {
  TempDir dir;
  TubWriter w(dir.path() / "tub");
  w.append(test_image(), 0.0f, 0.5f);
  w.close();
  EXPECT_THROW(w.append(test_image(), 0.0f, 0.5f), std::logic_error);
}

// --- Collector ----------------------------------------------------------------

TEST(Collector, SimulatorSessionProducesCleanTub) {
  TempDir dir;
  const track::Track t = track::Track::paper_oval();
  CollectOptions opt;
  opt.duration_s = 10.0;
  const CollectStats stats =
      collect_session(t, DataPath::Simulator, opt, dir.path() / "tub");
  EXPECT_EQ(stats.records, 200u);  // 10 s at 20 Hz
  EXPECT_EQ(stats.mistake_records, 0u);
  EXPECT_GT(stats.distance_m, 5.0);
  EXPECT_GT(stats.mean_speed, 0.5);
  Tub tub(dir.path() / "tub");
  EXPECT_EQ(tub.total_records(), 200u);
}

TEST(Collector, MistakesAreTagged) {
  TempDir dir;
  const track::Track t = track::Track::paper_oval();
  CollectOptions opt;
  opt.duration_s = 30.0;
  opt.expert.mistake_rate = 20.0;
  const CollectStats stats =
      collect_session(t, DataPath::PhysicalCar, opt, dir.path() / "tub");
  EXPECT_GT(stats.mistake_records, 5u);
  Tub tub(dir.path() / "tub");
  std::size_t tagged = 0;
  for (const TubRecord& r : tub.read_metadata()) tagged += r.mistake;
  EXPECT_EQ(tagged, stats.mistake_records);
}

TEST(Collector, SamplePathIsDeterministic) {
  TempDir dir;
  const track::Track t = track::Track::paper_oval();
  CollectOptions opt;
  opt.duration_s = 5.0;
  opt.seed = 111;
  collect_session(t, DataPath::Sample, opt, dir.path() / "a");
  opt.seed = 222;  // must be ignored for the sample path
  collect_session(t, DataPath::Sample, opt, dir.path() / "b");
  const auto ra = Tub(dir.path() / "a").read_all();
  const auto rb = Tub(dir.path() / "b").read_all();
  ASSERT_EQ(ra.size(), rb.size());
  for (std::size_t i = 0; i < ra.size(); ++i) {
    EXPECT_EQ(ra[i].steering, rb[i].steering);
    EXPECT_EQ(ra[i].image.pixels(), rb[i].image.pixels());
  }
}

TEST(Collector, PhysicalCarSessionsDifferBySeed) {
  TempDir dir;
  const track::Track t = track::Track::paper_oval();
  CollectOptions opt;
  opt.duration_s = 5.0;
  opt.seed = 1;
  collect_session(t, DataPath::PhysicalCar, opt, dir.path() / "a");
  opt.seed = 2;
  collect_session(t, DataPath::PhysicalCar, opt, dir.path() / "b");
  const auto ra = Tub(dir.path() / "a").read_all();
  const auto rb = Tub(dir.path() / "b").read_all();
  bool differs = false;
  for (std::size_t i = 0; i < ra.size() && !differs; ++i) {
    differs = ra[i].steering != rb[i].steering;
  }
  EXPECT_TRUE(differs);
}

TEST(Collector, RejectsBadOptions) {
  TempDir dir;
  const track::Track t = track::Track::paper_oval();
  CollectOptions opt;
  opt.duration_s = 0;
  EXPECT_THROW(collect_session(t, DataPath::Simulator, opt, dir.path() / "x"),
               std::invalid_argument);
  for (const double v : {std::numeric_limits<double>::quiet_NaN(),
                         std::numeric_limits<double>::infinity(), -1.0}) {
    opt = CollectOptions{};
    opt.duration_s = v;
    EXPECT_THROW(
        collect_session(t, DataPath::Simulator, opt, dir.path() / "x"),
        std::invalid_argument)
        << "duration_s " << v;
    opt = CollectOptions{};
    opt.dt = v;
    EXPECT_THROW(
        collect_session(t, DataPath::Simulator, opt, dir.path() / "x"),
        std::invalid_argument)
        << "dt " << v;
  }
}

// --- tubclean -------------------------------------------------------------------

TEST(TubClean, ExpandSegments) {
  std::size_t segments = 0;
  const auto out = expand_segments({5, 6, 20}, 2, 100, &segments);
  // 5,6 with margin 2 -> [3,8]; 20 -> [18,22].
  EXPECT_EQ(segments, 2u);
  EXPECT_EQ(out.front(), 3u);
  EXPECT_EQ(out.back(), 22u);
  EXPECT_EQ(out.size(), 6u + 5u);
}

TEST(TubClean, ExpandSegmentsClipsAtBounds) {
  const auto out = expand_segments({0, 99}, 3, 100);
  EXPECT_EQ(out.front(), 0u);
  EXPECT_EQ(out.back(), 99u);
  for (std::size_t i : out) EXPECT_LT(i, 100u);
}

TEST(TubClean, ReviewCleanRemovesTaggedRecords) {
  TempDir dir;
  const track::Track t = track::Track::paper_oval();
  CollectOptions opt;
  opt.duration_s = 30.0;
  opt.expert.mistake_rate = 15.0;
  const CollectStats stats =
      collect_session(t, DataPath::Simulator, opt, dir.path() / "tub");
  ASSERT_GT(stats.mistake_records, 0u);

  Tub tub(dir.path() / "tub");
  const CleanStats clean = review_clean(tub, /*margin=*/3);
  EXPECT_EQ(clean.reviewed, stats.records);
  EXPECT_GE(clean.deleted, stats.mistake_records);
  EXPECT_GT(clean.segments, 0u);
  // No tagged record survives.
  for (const TubRecord& r : tub.read_all()) {
    EXPECT_FALSE(r.mistake);
  }
}

TEST(TubClean, HeuristicCleanFlagsSaturatedSteering) {
  TempDir dir;
  {
    TubWriter w(dir.path() / "tub");
    for (int i = 0; i < 50; ++i) {
      const float steer = (i >= 20 && i < 25) ? 1.0f : 0.1f;
      w.append(test_image(), steer, 0.5f);
    }
    w.close();
  }
  Tub tub(dir.path() / "tub");
  const CleanStats clean = heuristic_clean(tub);
  EXPECT_GT(clean.deleted, 4u);
  for (const TubRecord& r : tub.read_all()) {
    EXPECT_LT(std::abs(r.steering), 0.95f);
  }
}

TEST(TubClean, CleanTubLosesNothing) {
  TempDir dir;
  {
    TubWriter w(dir.path() / "tub");
    for (int i = 0; i < 30; ++i) w.append(test_image(), 0.1f, 0.5f);
    w.close();
  }
  Tub tub(dir.path() / "tub");
  const CleanStats clean = review_clean(tub);
  EXPECT_EQ(clean.deleted, 0u);
  EXPECT_EQ(tub.active_records(), 30u);
}

// --- dataset ---------------------------------------------------------------------

std::vector<TubRecord> fake_records(std::size_t n) {
  std::vector<TubRecord> out;
  for (std::size_t i = 0; i < n; ++i) {
    TubRecord r;
    r.index = i;
    r.image = test_image(8, 6, static_cast<float>(i) * 0.01f);
    r.steering = static_cast<float>(i % 5) / 5.0f - 0.4f;
    r.throttle = 0.5f;
    out.push_back(std::move(r));
  }
  return out;
}

TEST(Dataset, BuildSamplesShapes) {
  const auto records = fake_records(10);
  DatasetOptions opt;
  opt.seq_len = 3;
  opt.history_len = 2;
  const auto samples = build_samples(records, opt);
  ASSERT_EQ(samples.size(), 10u - 2u);  // context = max(2, 2) = 2
  EXPECT_EQ(samples[0].frames.size(), 3u);
  EXPECT_EQ(samples[0].history.size(), 4u);
  // Labels come from the newest record in the window.
  EXPECT_FLOAT_EQ(samples[0].steering, records[2].steering);
  // Frames are ordered oldest..newest: newest frame matches the record.
  EXPECT_EQ(samples[0].frames.back().pixels(), records[2].image.pixels());
  EXPECT_EQ(samples[0].frames.front().pixels(), records[0].image.pixels());
}

TEST(Dataset, HistoryIsPastCommands) {
  const auto records = fake_records(6);
  DatasetOptions opt;
  opt.seq_len = 1;
  opt.history_len = 2;
  const auto samples = build_samples(records, opt);
  // For the sample at record i, history = [(i-2), (i-1)] commands.
  EXPECT_FLOAT_EQ(samples[0].history[0], records[0].steering);
  EXPECT_FLOAT_EQ(samples[0].history[1], records[0].throttle);
  EXPECT_FLOAT_EQ(samples[0].history[2], records[1].steering);
}

TEST(Dataset, TooFewRecordsGivesEmpty) {
  const auto records = fake_records(2);
  DatasetOptions opt;
  opt.seq_len = 3;
  opt.history_len = 3;
  EXPECT_TRUE(build_samples(records, opt).empty());
}

TEST(Dataset, FlipAugmentationDoubles) {
  const auto records = fake_records(10);
  DatasetOptions opt;
  opt.seq_len = 1;
  opt.history_len = 1;
  opt.augment_flip = true;
  const auto samples = build_samples(records, opt);
  ASSERT_EQ(samples.size(), 2u * 9u);
  // Second half are mirrored copies with negated steering.
  EXPECT_FLOAT_EQ(samples[9].steering, -samples[0].steering);
  EXPECT_FLOAT_EQ(samples[9].throttle, samples[0].throttle);
  EXPECT_FLOAT_EQ(samples[9].history[0], -samples[0].history[0]);
}

TEST(Dataset, FlipHorizontalMirrors) {
  camera::Image img(3, 1);
  img.at(0, 0) = 0.1f;
  img.at(1, 0) = 0.5f;
  img.at(2, 0) = 0.9f;
  const camera::Image flipped = flip_horizontal(img);
  EXPECT_FLOAT_EQ(flipped.at(0, 0), 0.9f);
  EXPECT_FLOAT_EQ(flipped.at(1, 0), 0.5f);
  EXPECT_FLOAT_EQ(flipped.at(2, 0), 0.1f);
}

TEST(Dataset, SplitFractionsRespected) {
  const auto records = fake_records(103);
  const auto samples = build_samples(records, {});
  auto [train, val] = split_train_val(samples, 0.2);
  EXPECT_EQ(train.size() + val.size(), samples.size());
  EXPECT_EQ(val.size(), samples.size() / 5);
  EXPECT_THROW(split_train_val({}, 1.5), std::invalid_argument);
}

TEST(Dataset, SplitIsDeterministic) {
  const auto records = fake_records(50);
  const auto samples = build_samples(records, {});
  auto [t1, v1] = split_train_val(samples, 0.3, 42);
  auto [t2, v2] = split_train_val(samples, 0.3, 42);
  ASSERT_EQ(v1.size(), v2.size());
  for (std::size_t i = 0; i < v1.size(); ++i) {
    EXPECT_EQ(v1[i].steering, v2[i].steering);
  }
}

}  // namespace
}  // namespace autolearn::data
