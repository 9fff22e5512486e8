#include "src/common/random.h"

#include <gtest/gtest.h>

#include <set>
#include <vector>

namespace pip {
namespace {

TEST(RandomStreamTest, DeterministicReplay) {
  RandomStream a(1, 2, 3, 4);
  RandomStream b(1, 2, 3, 4);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.NextBits(), b.NextBits());
  }
}

TEST(RandomStreamTest, DifferentCoordinatesDiffer) {
  // Any single-coordinate change must produce a different stream.
  uint64_t base = RandomStream(1, 2, 3, 4).NextBits();
  EXPECT_NE(base, RandomStream(9, 2, 3, 4).NextBits());
  EXPECT_NE(base, RandomStream(1, 9, 3, 4).NextBits());
  EXPECT_NE(base, RandomStream(1, 2, 9, 4).NextBits());
  EXPECT_NE(base, RandomStream(1, 2, 3, 9).NextBits());
}

TEST(RandomStreamTest, UniformInUnitInterval) {
  RandomStream s(7, 1, 0, 0);
  for (int i = 0; i < 10000; ++i) {
    double u = s.NextUniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(RandomStreamTest, OpenUniformNeverZero) {
  RandomStream s(7, 1, 0, 0);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_GT(s.NextOpenUniform(), 0.0);
  }
}

TEST(RandomStreamTest, UniformMeanNearHalf) {
  RandomStream s(11, 3, 0, 5);
  double sum = 0;
  const int n = 200000;
  for (int i = 0; i < n; ++i) sum += s.NextUniform();
  EXPECT_NEAR(sum / n, 0.5, 0.005);
}

TEST(RandomStreamTest, GaussianMoments) {
  RandomStream s(13, 5, 0, 0);
  double sum = 0, sum_sq = 0;
  const int n = 200000;
  for (int i = 0; i < n; ++i) {
    double g = s.NextGaussian();
    sum += g;
    sum_sq += g * g;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.02);
  EXPECT_NEAR(sum_sq / n, 1.0, 0.03);
}

TEST(RandomStreamTest, BoundedStaysInRange) {
  RandomStream s(17, 0, 0, 0);
  std::set<uint64_t> seen;
  for (int i = 0; i < 1000; ++i) {
    uint64_t v = s.NextBounded(10);
    EXPECT_LT(v, 10u);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 10u);  // All values hit in 1000 draws.
}

TEST(RandomStreamTest, FillBitsMatchesScalarNextBits) {
  RandomStream scalar(11, 22, 33, 44);
  std::vector<uint64_t> expect(100);
  for (auto& w : expect) w = scalar.NextBits();
  RandomStream block(11, 22, 33, 44);
  std::vector<uint64_t> got(100);
  block.FillBits(got.data(), got.size());
  EXPECT_EQ(got, expect);
}

TEST(RandomStreamTest, FillUniformsMatchesScalarNextUniform) {
  RandomStream scalar(5, 6, 7, 8);
  std::vector<double> expect(100);
  for (auto& u : expect) u = scalar.NextUniform();
  RandomStream block(5, 6, 7, 8);
  std::vector<double> got(100);
  block.FillUniforms(got.data(), got.size());
  for (size_t i = 0; i < got.size(); ++i) EXPECT_EQ(got[i], expect[i]);
}

TEST(RandomStreamTest, FillFreshUniformsMatchesFreshStreams) {
  // Unsorted, repeated and large sample indices, one to three words each.
  const std::vector<uint64_t> idx = {7, 0, 7, 1ULL << 40, 3, ~0ULL, 2};
  for (uint64_t words : {uint64_t{1}, uint64_t{2}, uint64_t{3}}) {
    std::vector<double> got(idx.size() * words);
    RandomStream::FillFreshUniforms(91, 17, 2, idx.data(), idx.size(), words,
                                    got.data());
    for (size_t s = 0; s < idx.size(); ++s) {
      RandomStream fresh(91, 17, 2, idx[s]);
      for (uint64_t w = 0; w < words; ++w) {
        EXPECT_EQ(got[s * words + w], fresh.NextUniform())
            << "sample " << idx[s] << " word " << w;
      }
    }
  }
}

TEST(RandomStreamTest, BlockAndScalarCallsInterleaveOnOneCounter) {
  // Fills advance the same counter NextBits uses, so a consumer can mix
  // block and scalar reads freely and still replay the stream.
  RandomStream reference(3, 1, 4, 1);
  std::vector<uint64_t> expect(20);
  for (auto& w : expect) w = reference.NextBits();

  RandomStream mixed(3, 1, 4, 1);
  std::vector<uint64_t> got;
  uint64_t buf[8];
  mixed.FillBits(buf, 5);  // Words 0..4.
  got.insert(got.end(), buf, buf + 5);
  got.push_back(mixed.NextBits());  // Word 5.
  mixed.FillBits(buf, 0);           // Empty fill: counter untouched.
  mixed.FillBits(buf, 8);           // Words 6..13.
  got.insert(got.end(), buf, buf + 8);
  for (int i = 0; i < 6; ++i) got.push_back(mixed.NextBits());  // 14..19.
  EXPECT_EQ(got, expect);
}

TEST(MixBitsTest, AvalancheOnSingleBitFlip) {
  // Flipping one input bit should flip roughly half the output bits.
  uint64_t a = MixBits(1, 2, 3, 4);
  uint64_t b = MixBits(1, 2, 3, 5);
  int flipped = __builtin_popcountll(a ^ b);
  EXPECT_GT(flipped, 16);
  EXPECT_LT(flipped, 48);
}

TEST(RngTest, DeterministicGivenSeed) {
  Rng a(99), b(99);
  for (int i = 0; i < 50; ++i) EXPECT_EQ(a.NextBits(), b.NextBits());
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  EXPECT_NE(a.NextBits(), b.NextBits());
}

TEST(RngTest, UniformRange) {
  Rng r(5);
  for (int i = 0; i < 1000; ++i) {
    double u = r.NextUniform(2.0, 3.0);
    EXPECT_GE(u, 2.0);
    EXPECT_LT(u, 3.0);
  }
}

TEST(RngTest, NextIntInclusiveRange) {
  Rng r(6);
  std::set<int64_t> seen;
  for (int i = 0; i < 1000; ++i) {
    int64_t v = r.NextInt(-2, 2);
    EXPECT_GE(v, -2);
    EXPECT_LE(v, 2);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 5u);
}

TEST(RngTest, ExponentialMean) {
  Rng r(7);
  double sum = 0;
  const int n = 200000;
  for (int i = 0; i < n; ++i) sum += r.NextExponential(2.0);
  EXPECT_NEAR(sum / n, 0.5, 0.01);
}

TEST(RngTest, GaussianMoments) {
  Rng r(8);
  double sum = 0, sum_sq = 0;
  const int n = 200000;
  for (int i = 0; i < n; ++i) {
    double g = r.NextGaussian();
    sum += g;
    sum_sq += g * g;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.02);
  EXPECT_NEAR(sum_sq / n, 1.0, 0.03);
}

}  // namespace
}  // namespace pip
