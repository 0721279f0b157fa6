// Unit tests for Tensor storage/views, dtype emulation, raw GEMM kernels,
// and the memory tracker.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "common/error.h"
#include "common/rng.h"
#include "tensor/dtype.h"
#include "tensor/kernels.h"
#include "tensor/tensor.h"

namespace matgpt {
namespace {

TEST(Tensor, ZerosShapeAndValues) {
  Tensor t({2, 3});
  EXPECT_EQ(t.numel(), 6);
  EXPECT_EQ(t.ndim(), 2);
  EXPECT_EQ(t.dim(0), 2);
  EXPECT_EQ(t.dim(1), 3);
  EXPECT_EQ(t.dim(-1), 3);
  for (std::int64_t i = 0; i < t.numel(); ++i) EXPECT_EQ(t[i], 0.0f);
}

TEST(Tensor, FromDataValidatesCount) {
  EXPECT_THROW(Tensor::from_data({2, 2}, {1.0f, 2.0f}), Error);
  Tensor t = Tensor::from_data({2, 2}, {1, 2, 3, 4});
  EXPECT_FLOAT_EQ(t.at(1, 0), 3.0f);
}

TEST(Tensor, ReshapeSharesStorage) {
  Tensor t = Tensor::from_data({2, 3}, {1, 2, 3, 4, 5, 6});
  Tensor v = t.reshape({3, 2});
  v.at(0, 0) = 99.0f;
  EXPECT_FLOAT_EQ(t.at(0, 0), 99.0f);
}

TEST(Tensor, ReshapeInfersDimension) {
  Tensor t({4, 6});
  EXPECT_EQ(t.reshape({-1, 8}).dim(0), 3);
  EXPECT_EQ(t.reshape({2, -1}).dim(1), 12);
  EXPECT_THROW(t.reshape({-1, -1}), Error);
  EXPECT_THROW(t.reshape({5, 5}), Error);
}

TEST(Tensor, CloneIsDeep) {
  Tensor t = Tensor::from_data({2}, {1, 2});
  Tensor c = t.clone();
  c[0] = 50.0f;
  EXPECT_FLOAT_EQ(t[0], 1.0f);
}

TEST(Tensor, PrefixViewSharesLeadingStorage) {
  Tensor t = Tensor::from_data({4, 2}, {1, 2, 3, 4, 5, 6, 7, 8});
  Tensor v = t.prefix_view({2, 2});
  EXPECT_EQ(v.numel(), 4);
  EXPECT_EQ(v.data(), t.data());  // zero-copy over the leading prefix
  EXPECT_FLOAT_EQ(v.at(1, 1), 4.0f);
  v.at(0, 0) = 99.0f;
  EXPECT_FLOAT_EQ(t.at(0, 0), 99.0f);
  EXPECT_THROW(t.prefix_view({5, 2}), Error);
}

TEST(Tensor, PrefixViewReductionsIgnoreBackingTail) {
  Tensor t = Tensor::from_data({4}, {1, 2, 3, 1000});
  Tensor v = t.prefix_view({3});
  EXPECT_DOUBLE_EQ(v.sum(), 6.0);
  EXPECT_FLOAT_EQ(v.max_abs(), 3.0f);
  Tensor c = v.clone();
  EXPECT_EQ(c.numel(), 3);  // clone copies the view, not the slab
  EXPECT_DOUBLE_EQ(c.sum(), 6.0);
}

TEST(Tensor, Transposed2d) {
  Tensor t = Tensor::from_data({2, 3}, {1, 2, 3, 4, 5, 6});
  Tensor tt = t.transposed_2d();
  EXPECT_EQ(tt.dim(0), 3);
  EXPECT_EQ(tt.dim(1), 2);
  EXPECT_FLOAT_EQ(tt.at(2, 1), 6.0f);
  EXPECT_FLOAT_EQ(tt.at(0, 1), 4.0f);
}

TEST(Tensor, InplaceArithmetic) {
  Tensor a = Tensor::from_data({3}, {1, 2, 3});
  Tensor b = Tensor::from_data({3}, {10, 20, 30});
  a.add_(b, 0.5f);
  EXPECT_FLOAT_EQ(a[0], 6.0f);
  a.scale_(2.0f);
  EXPECT_FLOAT_EQ(a[2], 36.0f);
  a.fill_(7.0f);
  EXPECT_FLOAT_EQ(a[1], 7.0f);
}

TEST(Tensor, NormsAndReductions) {
  Tensor t = Tensor::from_data({2, 2}, {3, 4, 0, 0});
  EXPECT_DOUBLE_EQ(t.l2_norm(), 5.0);
  EXPECT_DOUBLE_EQ(t.sum(), 7.0);
  EXPECT_FLOAT_EQ(t.max_abs(), 4.0f);
  Tensor n = Tensor::from_data({1}, {-9.0f});
  EXPECT_FLOAT_EQ(n.max_abs(), 9.0f);
}

TEST(Tensor, DotProduct) {
  Tensor a = Tensor::from_data({3}, {1, 2, 3});
  Tensor b = Tensor::from_data({3}, {4, 5, 6});
  EXPECT_DOUBLE_EQ(dot(a, b), 32.0);
}

TEST(Tensor, UndefinedAccessThrows) {
  Tensor t;
  EXPECT_FALSE(t.defined());
  EXPECT_THROW(t.data(), Error);
}

TEST(Tensor, RandnMoments) {
  Rng rng(1);
  Tensor t = Tensor::randn({10000}, rng, 1.0f, 0.5f);
  double mean = t.sum() / static_cast<double>(t.numel());
  EXPECT_NEAR(mean, 1.0, 0.03);
}

TEST(MemoryTracker, TracksAllocAndPeak) {
  auto& tracker = MemoryTracker::instance();
  const std::size_t base = tracker.current_bytes();
  tracker.reset_peak();
  {
    Tensor big({1024});
    EXPECT_EQ(tracker.current_bytes(), base + 4096);
    EXPECT_GE(tracker.peak_bytes(), base + 4096);
  }
  EXPECT_EQ(tracker.current_bytes(), base);
}

TEST(MemoryTracker, ViewsDoNotDoubleCount) {
  auto& tracker = MemoryTracker::instance();
  const std::size_t base = tracker.current_bytes();
  Tensor t({256});
  Tensor v = t.reshape({16, 16});
  EXPECT_EQ(tracker.current_bytes(), base + 1024);
}

TEST(DType, BFloat16RoundTripPreservesCoarseValues) {
  // Values representable in bf16 survive exactly.
  EXPECT_EQ(round_bf16(1.0f), 1.0f);
  EXPECT_EQ(round_bf16(-2.5f), -2.5f);
  // Fine values move to the nearest bf16 (relative error < 2^-8).
  const float x = 1.2345678f;
  const float r = round_bf16(x);
  EXPECT_NEAR(r, x, x / 128.0f);
  // Idempotence: rounding twice changes nothing.
  EXPECT_EQ(round_bf16(r), r);
}

TEST(DType, Float16Behaviour) {
  EXPECT_EQ(round_fp16(1.0f), 1.0f);
  EXPECT_EQ(round_fp16(0.5f), 0.5f);
  // Max finite fp16.
  EXPECT_EQ(round_fp16(65504.0f), 65504.0f);
  // Overflow saturates to infinity (the fp16 hazard bf16 avoids).
  EXPECT_TRUE(std::isinf(round_fp16(70000.0f)));
  EXPECT_TRUE(std::isinf(round_fp16(-70000.0f)));
  // Subnormal quantization.
  const float tiny = 3e-8f;
  const float r = round_fp16(tiny);
  EXPECT_NEAR(r, tiny, 0x1.0p-24f);
  // Idempotence.
  EXPECT_EQ(round_fp16(r), r);
}

TEST(DType, BF16HasWiderRangeThanFP16) {
  // The paper trains in bfloat16 for numerical stability: large magnitudes
  // overflow fp16 but not bf16.
  const float big = 1e20f;
  EXPECT_TRUE(std::isfinite(round_bf16(big)));
  EXPECT_TRUE(std::isinf(round_fp16(big)));
}

TEST(DType, QuantizeTensorInPlace) {
  Tensor t = Tensor::from_data({2}, {1.2345678f, 70000.0f});
  Tensor b = t.clone();
  b.quantize_(DType::kBFloat16);
  EXPECT_NE(b[0], t[0]);
  EXPECT_TRUE(std::isfinite(b[1]));
  Tensor h = t.clone();
  h.quantize_(DType::kFloat16);
  EXPECT_TRUE(std::isinf(h[1]));
}

// ---- GEMM kernels against a naive reference --------------------------------

void naive_gemm(const Tensor& a, const Tensor& b, Tensor& c) {
  const std::int64_t m = a.dim(0), k = a.dim(1), n = b.dim(1);
  for (std::int64_t i = 0; i < m; ++i) {
    for (std::int64_t j = 0; j < n; ++j) {
      double acc = 0.0;
      for (std::int64_t l = 0; l < k; ++l) {
        acc += static_cast<double>(a.at(i, l)) * b.at(l, j);
      }
      c.at(i, j) = static_cast<float>(acc);
    }
  }
}

class GemmShapes : public ::testing::TestWithParam<std::tuple<int, int, int>> {
};

TEST_P(GemmShapes, AllVariantsMatchReference) {
  const auto [m, n, k] = GetParam();
  Rng rng(static_cast<std::uint64_t>(m * 1000 + n * 100 + k));
  Tensor a = Tensor::randn({m, k}, rng);
  Tensor b = Tensor::randn({k, n}, rng);
  Tensor expect({m, n});
  naive_gemm(a, b, expect);

  Tensor c_nn({m, n});
  kernels::gemm_nn(a.data(), b.data(), c_nn.data(), m, n, k, false);
  Tensor at = a.transposed_2d();
  Tensor c_tn({m, n});
  kernels::gemm_tn(at.data(), b.data(), c_tn.data(), m, n, k, false);
  Tensor bt = b.transposed_2d();
  Tensor c_nt({m, n});
  kernels::gemm_nt(a.data(), bt.data(), c_nt.data(), m, n, k, false);

  for (std::int64_t i = 0; i < expect.numel(); ++i) {
    EXPECT_NEAR(c_nn[i], expect[i], 1e-3) << "gemm_nn element " << i;
    EXPECT_NEAR(c_tn[i], expect[i], 1e-3) << "gemm_tn element " << i;
    EXPECT_NEAR(c_nt[i], expect[i], 1e-3) << "gemm_nt element " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, GemmShapes,
    ::testing::Values(std::make_tuple(1, 1, 1), std::make_tuple(3, 5, 7),
                      std::make_tuple(8, 8, 8), std::make_tuple(16, 2, 32),
                      std::make_tuple(33, 17, 9), std::make_tuple(64, 64, 64),
                      std::make_tuple(1, 128, 1), std::make_tuple(100, 1, 50)));

TEST(Gemm, AccumulateAddsOntoExisting) {
  Tensor a = Tensor::from_data({1, 2}, {1, 2});
  Tensor b = Tensor::from_data({2, 1}, {3, 4});
  Tensor c = Tensor::from_data({1, 1}, {100});
  kernels::gemm_nn(a.data(), b.data(), c.data(), 1, 1, 2, true);
  EXPECT_FLOAT_EQ(c[0], 111.0f);
  kernels::gemm_nn(a.data(), b.data(), c.data(), 1, 1, 2, false);
  EXPECT_FLOAT_EQ(c[0], 11.0f);
}

// ---- Backward GEMMs: byte identity with the scalar loops --------------------
//
// gemm_nt/gemm_tn must produce exactly the bytes of these loops (the
// kernels' portable path, copied) on every build, SIMD or not: the training
// losses and gradients rest on it.

void scalar_gemm_nt(const float* a, const float* b, float* c, std::int64_t m,
                    std::int64_t n, std::int64_t k, bool accumulate) {
  for (std::int64_t i = 0; i < m; ++i) {
    const float* arow = a + i * k;
    float* crow = c + i * n;
    for (std::int64_t j = 0; j < n; ++j) {
      const float* brow = b + j * k;
      float acc = 0.0f;
      for (std::int64_t l = 0; l < k; ++l) acc += arow[l] * brow[l];
      crow[j] = accumulate ? crow[j] + acc : acc;
    }
  }
}

void scalar_gemm_tn(const float* a, const float* b, float* c, std::int64_t m,
                    std::int64_t n, std::int64_t k, bool accumulate) {
  for (std::int64_t i = 0; i < m; ++i) {
    float* crow = c + i * n;
    if (!accumulate) std::fill(crow, crow + n, 0.0f);
    for (std::int64_t l = 0; l < k; ++l) {
      const float av = a[l * m + i];
      if (av == 0.0f) continue;
      const float* brow = b + l * n;
      for (std::int64_t j = 0; j < n; ++j) crow[j] += av * brow[j];
    }
  }
}

// Normal values with about one in eight replaced by +0.0 or -0.0.
std::vector<float> randn_with_zeros(std::size_t count, Rng& rng) {
  std::vector<float> v(count);
  for (float& x : v) {
    const std::uint64_t pick = rng.uniform_int(std::uint64_t{16});
    x = pick == 0 ? 0.0f : pick == 1 ? -0.0f : static_cast<float>(rng.normal());
  }
  return v;
}

bool same_bytes(const std::vector<float>& x, const std::vector<float>& y) {
  return x.size() == y.size() &&
         std::memcmp(x.data(), y.data(), sizeof(float) * x.size()) == 0;
}

class BackwardGemmShapes
    : public ::testing::TestWithParam<std::tuple<int, int, int>> {};

// Shapes: k = 1, n < 8, n % 8 != 0, n across several 512-column chunks,
// and M*N*K on both sides of the pool's work cutover (serial and pool paths).
TEST_P(BackwardGemmShapes, NtAndTnMatchScalarLoopsBytewise) {
  const auto [m, n, k] = GetParam();
  Rng rng(static_cast<std::uint64_t>(m * 7919 + n * 131 + k));
  const auto mn = static_cast<std::size_t>(m) * static_cast<std::size_t>(n);
  const auto mk = static_cast<std::size_t>(m) * static_cast<std::size_t>(k);
  const auto nk = static_cast<std::size_t>(n) * static_cast<std::size_t>(k);
  const std::vector<float> a = randn_with_zeros(mk, rng);  // nt [m,k], tn [k,m]
  const std::vector<float> b = randn_with_zeros(nk, rng);  // nt [n,k], tn [k,n]
  const std::vector<float> c0 = randn_with_zeros(mn, rng);
  for (const bool accumulate : {false, true}) {
    std::vector<float> want = c0;
    std::vector<float> got = c0;
    scalar_gemm_nt(a.data(), b.data(), want.data(), m, n, k, accumulate);
    kernels::gemm_nt(a.data(), b.data(), got.data(), m, n, k, accumulate);
    EXPECT_TRUE(same_bytes(got, want)) << "gemm_nt accumulate=" << accumulate;

    want = c0;
    got = c0;
    scalar_gemm_tn(a.data(), b.data(), want.data(), m, n, k, accumulate);
    kernels::gemm_tn(a.data(), b.data(), got.data(), m, n, k, accumulate);
    EXPECT_TRUE(same_bytes(got, want)) << "gemm_tn accumulate=" << accumulate;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, BackwardGemmShapes,
    ::testing::Values(std::make_tuple(1, 1, 1), std::make_tuple(3, 5, 1),
                      std::make_tuple(7, 3, 9), std::make_tuple(17, 13, 6),
                      std::make_tuple(63, 24, 33), std::make_tuple(64, 8, 4),
                      std::make_tuple(70, 1, 5), std::make_tuple(130, 37, 70),
                      std::make_tuple(96, 1100, 19),
                      std::make_tuple(256, 64, 192)));

// A zero in A opposite an inf in B: gemm_tn skips the term (no NaN, and a
// -0.0 C entry keeps its sign); gemm_nt has no skip, so 0 * inf = NaN
// reaches C. Either way the kernels must match the loops byte for byte.
TEST(BackwardGemm, ZeroOppositeInfMatchesScalarLoops) {
  const std::int64_t m = 70, n = 21, k = 12;
  Rng rng(99);
  const float inf = std::numeric_limits<float>::infinity();
  std::vector<float> a = randn_with_zeros(static_cast<std::size_t>(m * k), rng);
  std::vector<float> b = randn_with_zeros(static_cast<std::size_t>(n * k), rng);
  for (std::int64_t l = 0; l < k; l += 3) {
    for (std::int64_t i = 0; i < m; ++i) {
      a[static_cast<std::size_t>(l * m + i)] = (i % 2 == 0) ? 0.0f : -0.0f;
    }
    for (std::int64_t j = 0; j < n; j += 4) {
      b[static_cast<std::size_t>(l * n + j)] = (j % 8 == 0) ? inf : -inf;
    }
  }
  for (std::int64_t l = 0; l < k; ++l) a[static_cast<std::size_t>(l * m + 5)] = -0.0f;
  const std::vector<float> c0(static_cast<std::size_t>(m * n), -0.0f);
  for (const bool accumulate : {false, true}) {
    std::vector<float> want = c0;
    std::vector<float> got = c0;
    scalar_gemm_tn(a.data(), b.data(), want.data(), m, n, k, accumulate);
    kernels::gemm_tn(a.data(), b.data(), got.data(), m, n, k, accumulate);
    EXPECT_TRUE(same_bytes(got, want)) << "gemm_tn accumulate=" << accumulate;
    // Row 5 of dW saw only zeros in A: every term was skipped.
    for (std::int64_t j = 0; j < n; ++j) {
      const float v = got[static_cast<std::size_t>(5 * n + j)];
      EXPECT_EQ(v, 0.0f);
      EXPECT_EQ(std::signbit(v), accumulate);
    }

    // gemm_nt reads the same buffers as A [m,k] and B [n,k].
    want = c0;
    got = c0;
    scalar_gemm_nt(a.data(), b.data(), want.data(), m, n, k, accumulate);
    kernels::gemm_nt(a.data(), b.data(), got.data(), m, n, k, accumulate);
    EXPECT_TRUE(same_bytes(got, want)) << "gemm_nt accumulate=" << accumulate;
  }
}

// A row's bytes depend only on its own A row (column, for gemm_tn) and B:
// not on m, not on the pool chunk or row block it lands in.
TEST(BackwardGemm, RowsIndependentOfMAndChunking) {
  const std::int64_t m = 150, n = 45, k = 37;
  Rng rng(7);
  const std::vector<float> a = randn_with_zeros(static_cast<std::size_t>(m * k), rng);
  const std::vector<float> b = randn_with_zeros(static_cast<std::size_t>(n * k), rng);
  const std::vector<float> c0 = randn_with_zeros(static_cast<std::size_t>(m * n), rng);
  std::vector<float> full_nt = c0;
  kernels::gemm_nt(a.data(), b.data(), full_nt.data(), m, n, k, true);
  std::vector<float> full_tn = c0;
  kernels::gemm_tn(a.data(), b.data(), full_tn.data(), m, n, k, true);

  // Row ranges of several sizes and offsets, each as its own call.
  const std::pair<std::int64_t, std::int64_t> ranges[] = {
      {0, 1}, {5, 77}, {77, 150}, {3, 70}, {149, 150}};
  for (const auto& [lo, hi] : ranges) {
    const std::int64_t rows = hi - lo;
    const auto off = static_cast<std::size_t>(lo * n);
    const auto len = static_cast<std::size_t>(rows * n);
    const auto full_part = [&](const std::vector<float>& full) {
      return std::vector<float>(full.begin() + static_cast<std::ptrdiff_t>(off),
                                full.begin() + static_cast<std::ptrdiff_t>(off + len));
    };

    std::vector<float> part(c0.begin() + static_cast<std::ptrdiff_t>(off),
                            c0.begin() + static_cast<std::ptrdiff_t>(off + len));
    kernels::gemm_nt(a.data() + lo * k, b.data(), part.data(), rows, n, k, true);
    EXPECT_TRUE(same_bytes(part, full_part(full_nt)))
        << "gemm_nt rows [" << lo << ", " << hi << ")";

    // gemm_tn's rows are columns of A [k, m]: gather them into [k, rows].
    std::vector<float> a_cols(static_cast<std::size_t>(k * rows));
    for (std::int64_t l = 0; l < k; ++l) {
      for (std::int64_t i = 0; i < rows; ++i) {
        a_cols[static_cast<std::size_t>(l * rows + i)] =
            a[static_cast<std::size_t>(l * m + lo + i)];
      }
    }
    part.assign(c0.begin() + static_cast<std::ptrdiff_t>(off),
                c0.begin() + static_cast<std::ptrdiff_t>(off + len));
    kernels::gemm_tn(a_cols.data(), b.data(), part.data(), rows, n, k, true);
    EXPECT_TRUE(same_bytes(part, full_part(full_tn)))
        << "gemm_tn rows [" << lo << ", " << hi << ")";
  }
}

// Around the pool's cutovers (kMinChunkMacs per chunk: one chunk runs on
// the caller, two or more run pooled; and 64 rows) every GEMM must write
// the bytes of one serial call per C row. m is never a multiple of 8, so
// the last chunk ends in a short row block.
TEST(Gemm, PooledRowsMatchOneSerialCallPerRow) {
  std::vector<std::tuple<std::int64_t, std::int64_t, std::int64_t>> shapes;
  for (const auto& [n, k] : {std::pair<std::int64_t, std::int64_t>{64, 64},
                             {176, 64}}) {
    for (const std::int64_t chunks : {1, 2, 5}) {
      const std::int64_t at = chunks * kernels::kMinChunkMacs / (n * k);
      for (std::int64_t m : {at - 1, at + 1}) {
        shapes.emplace_back(m % 8 == 0 ? m + 1 : m, n, k);
      }
    }
  }
  // Wide rows: enough work for several chunks on either side of 64 rows.
  shapes.emplace_back(63, 512, 512);
  shapes.emplace_back(65, 512, 512);
  for (const auto& [m, n, k] : shapes) {
    Rng rng(static_cast<std::uint64_t>(m * 31 + n));
    const auto mn = static_cast<std::size_t>(m * n);
    const std::vector<float> a = randn_with_zeros(static_cast<std::size_t>(m * k), rng);
    const std::vector<float> b = randn_with_zeros(static_cast<std::size_t>(n * k), rng);
    const std::vector<float> c0 = randn_with_zeros(mn, rng);
    const std::string shape = "m=" + std::to_string(m) + " n=" +
                              std::to_string(n) + " k=" + std::to_string(k);
    // gemm_tn's row i reads column i of A [k, m].
    std::vector<float> a_col(static_cast<std::size_t>(k));
    const auto col = [&](std::int64_t i) {
      for (std::int64_t l = 0; l < k; ++l) {
        a_col[static_cast<std::size_t>(l)] = a[static_cast<std::size_t>(l * m + i)];
      }
      return a_col.data();
    };
    for (const bool acc : {false, true}) {
      std::vector<float> want_nn = c0, want_nt = c0, want_tn = c0;
      for (std::int64_t i = 0; i < m; ++i) {
        float* row_nn = want_nn.data() + i * n;
        float* row_nt = want_nt.data() + i * n;
        float* row_tn = want_tn.data() + i * n;
        kernels::gemm_nn(a.data() + i * k, b.data(), row_nn, 1, n, k, acc);
        kernels::gemm_nt(a.data() + i * k, b.data(), row_nt, 1, n, k, acc);
        kernels::gemm_tn(col(i), b.data(), row_tn, 1, n, k, acc);
      }
      std::vector<float> got = c0;
      kernels::gemm_nn(a.data(), b.data(), got.data(), m, n, k, acc);
      EXPECT_TRUE(same_bytes(got, want_nn)) << "gemm_nn " << shape;
      for (const int mr : {16, 32}) {
        got = c0;
        kernels::gemm_nn_variant(a.data(), b.data(), got.data(), m, n, k,
                                 acc, kernels::GemmVariant{mr, 256});
        EXPECT_TRUE(same_bytes(got, want_nn))
            << "gemm_nn_variant mr=" << mr << " " << shape;
      }
      got = c0;
      kernels::gemm_nt(a.data(), b.data(), got.data(), m, n, k, acc);
      EXPECT_TRUE(same_bytes(got, want_nt)) << "gemm_nt " << shape;
      got = c0;
      kernels::gemm_tn(a.data(), b.data(), got.data(), m, n, k, acc);
      EXPECT_TRUE(same_bytes(got, want_tn)) << "gemm_tn " << shape;
    }
  }
}

TEST(Kernels, SoftmaxRowNormalizesAndIsStable) {
  std::vector<float> row{1000.0f, 1001.0f, 1002.0f};  // would overflow naively
  kernels::softmax_row(row.data(), 3);
  double sum = 0.0;
  for (float v : row) {
    EXPECT_TRUE(std::isfinite(v));
    sum += v;
  }
  EXPECT_NEAR(sum, 1.0, 1e-6);
  EXPECT_GT(row[2], row[1]);
  EXPECT_GT(row[1], row[0]);
}

TEST(Kernels, LogSumExpMatchesDirectComputation) {
  std::vector<float> row{0.1f, -0.5f, 2.0f};
  double direct = std::log(std::exp(0.1) + std::exp(-0.5) + std::exp(2.0));
  EXPECT_NEAR(kernels::logsumexp_row(row.data(), 3), direct, 1e-6);
  // Stability at large magnitudes.
  std::vector<float> big{500.0f, 500.0f};
  EXPECT_NEAR(kernels::logsumexp_row(big.data(), 2), 500.0 + std::log(2.0),
              1e-4);
}

}  // namespace
}  // namespace matgpt
