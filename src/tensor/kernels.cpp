#include "tensor/kernels.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <type_traits>
#include <vector>

#include "parallel/thread_pool.h"

#if defined(__x86_64__) && defined(__GNUC__) && !defined(MATGPT_PORTABLE)
#define MATGPT_X86_DISPATCH 1
#include <immintrin.h>
#endif

namespace matgpt::kernels {

namespace {
// Runs body over the m rows of C, `row_macs` multiply-adds per row, in
// chunks of at least kMinChunkMacs whose bounds fall on multiples of the
// microkernel's `mr`. A GEMM too small for two chunks runs on the caller,
// and so does one of fewer than kMinParallelRows rows: pooling serving's
// short prefills and few-row LM-head products cost more CPU and added
// TTFT/TPOT on a shared 4-vCPU host, where their wall-time gain was lost
// to the other serving threads and to CPU steal.
constexpr std::int64_t kMinParallelRows = 64;

template <class Body>
void for_rows(std::int64_t m, std::int64_t row_macs, int mr, const Body& body) {
  auto& pool = ThreadPool::global();
  const std::int64_t chunks =
      std::min((m + mr - 1) / mr, m * row_macs / kMinChunkMacs);
  if (m < kMinParallelRows || chunks <= 1 || pool.worker_count() == 0) {
    body(std::size_t{0}, static_cast<std::size_t>(m));
  } else {
    pool.parallel_for(0, static_cast<std::size_t>(m), body,
                      static_cast<std::size_t>(chunks),
                      static_cast<std::size_t>(mr));
  }
}

inline float bf16_value(std::uint16_t bits) {
  const std::uint32_t u = static_cast<std::uint32_t>(bits) << 16;
  float f;
  std::memcpy(&f, &u, sizeof(f));
  return f;
}

// Portable scalar NN loop (also the tail behind the AVX2 dispatch when the
// host lacks the ISA). l-outer/j-inner keeps B reads contiguous. The
// zero-skip makes one-hot rows (embedding-style products) cheap.
void gemm_nn_scalar_rows(const float* a, const float* b, float* c,
                         std::size_t lo, std::size_t hi, std::int64_t n,
                         std::int64_t k, bool accumulate) {
  for (std::size_t i = lo; i < hi; ++i) {
    float* crow = c + i * static_cast<std::size_t>(n);
    if (!accumulate) std::memset(crow, 0, sizeof(float) * static_cast<std::size_t>(n));
    const float* arow = a + i * static_cast<std::size_t>(k);
    for (std::int64_t l = 0; l < k; ++l) {
      const float av = arow[l];
      if (av == 0.0f) continue;
      const float* brow = b + static_cast<std::size_t>(l) * static_cast<std::size_t>(n);
      for (std::int64_t j = 0; j < n; ++j) crow[j] += av * brow[j];
    }
  }
}

// Portable quantized NN loops. Ascending-k single-rounding FMA per C
// element, then (int8) one single-rounding multiply by the column scale —
// the exact operation sequence of the AVX2 kernels below (int8->fp32 and
// bf16->fp32 widening are both value-exact), so SIMD and portable builds
// produce identical bytes.
void gemm_bf16_scalar_rows(const float* a, const std::uint16_t* b, float* c,
                           std::size_t lo, std::size_t hi, std::int64_t n,
                           std::int64_t k) {
  for (std::size_t i = lo; i < hi; ++i) {
    float* crow = c + i * static_cast<std::size_t>(n);
    std::memset(crow, 0, sizeof(float) * static_cast<std::size_t>(n));
    const float* arow = a + i * static_cast<std::size_t>(k);
    for (std::int64_t l = 0; l < k; ++l) {
      const float av = arow[l];
      const std::uint16_t* brow =
          b + static_cast<std::size_t>(l) * static_cast<std::size_t>(n);
      for (std::int64_t j = 0; j < n; ++j) {
        crow[j] = std::fmaf(av, bf16_value(brow[j]), crow[j]);
      }
    }
  }
}

void gemm_int8_scalar_rows(const float* a, const std::int8_t* b,
                           const float* scale, float* c, std::size_t lo,
                           std::size_t hi, std::int64_t n, std::int64_t k) {
  for (std::size_t i = lo; i < hi; ++i) {
    float* crow = c + i * static_cast<std::size_t>(n);
    std::memset(crow, 0, sizeof(float) * static_cast<std::size_t>(n));
    const float* arow = a + i * static_cast<std::size_t>(k);
    for (std::int64_t l = 0; l < k; ++l) {
      const float av = arow[l];
      const std::int8_t* brow =
          b + static_cast<std::size_t>(l) * static_cast<std::size_t>(n);
      for (std::int64_t j = 0; j < n; ++j) {
        crow[j] = std::fmaf(av, static_cast<float>(brow[j]), crow[j]);
      }
    }
    for (std::int64_t j = 0; j < n; ++j) crow[j] *= scale[j];
  }
}

#ifdef MATGPT_X86_DISPATCH
#pragma GCC push_options
#pragma GCC target("avx2,fma")

// ---- Streaming microkernel -------------------------------------------------
//
// Every AVX2 GEMM runs one skeleton, templated on the number of C rows it
// carries, on the B element type and on a numeric policy, with a runtime
// column-chunk size `nc` (the autotuner's cache-block knob; gemm_nn's
// default variant is ROWS=8, nc=512).
//
// Loop order is (column chunk, k-block of 4, columns): B is read exactly
// once per call in contiguous row segments (prefetch-friendly — a
// column-tiled kernel would walk B at stride n and die of cache-miss
// latency on serving-sized weight matrices), while the ROWS x nc-float C
// chunk stays L1-resident. Sharing each B load across ROWS rows is the
// whole point: one row (batch-1 decode) is B-bandwidth-bound, eight rows
// (a full serving batch) run at FMA throughput from the same traffic.
//
// Numerics: every C element accumulates its k terms in ascending order with
// the policy's per-term operation — identical in the vector body, the
// scalar column tail, and for every ROWS/nc. A row's result depends only on
// (its A row, B), never on how many rows share the call or how columns are
// chunked, which is what keeps the serving engine's ragged-batch decode
// (and any autotuner tiling choice) bit-identical to batch-1 decoding, and
// the backward GEMMs independent of the thread count.
//
// Quantized B (bf16 bit patterns or int8) is widened to fp32 at load time,
// which is exact; int8 then gets a per-chunk pass of one single-rounding
// multiply by the column scale, mirrored by the scalar fallback.

// Per-entry-point numerics of the skeleton.
//   kFma      — each term is one single-rounding FMA (gemm_nn and the
//               quantized kernels); otherwise a rounded multiply followed by
//               a rounded add, which is what gemm_nt/gemm_tn's scalar loops
//               compile to on baseline x86-64.
//   kTransA   — A is stored [k, m] (gemm_tn) instead of [m, k].
//   kSkipZero — a term whose A value compares equal to zero is skipped, per
//               (row, l), as gemm_tn's scalar loop does. The skip decides the
//               sign of a zero result and whether inf/NaN in B reaches C.
//   kFoldAcc  — under `accumulate` the terms sum into a zero-started private
//               tile that is added to C once at the end (gemm_nt computes
//               C + (0 + t0 + t1 + ...), not C + t0 + t1 + ...).
template <bool Fma, bool TransA, bool SkipZero, bool FoldAcc>
struct StreamPolicy {
  static constexpr bool kFma = Fma;
  static constexpr bool kTransA = TransA;
  static constexpr bool kSkipZero = SkipZero;
  static constexpr bool kFoldAcc = FoldAcc;
};
using NnPolicy = StreamPolicy<true, false, false, false>;
using NtPolicy = StreamPolicy<false, false, false, true>;
using TnPolicy = StreamPolicy<false, true, true, false>;

// Column-chunk width of gemm_nt/gemm_tn, and of gemm_nt's accumulator tile.
constexpr std::int64_t kBackwardNc = 512;

// Hides a rounded product from the optimizer. g++ defaults to
// -ffp-contract=fast and this region enables FMA, so a multiply followed by
// an add would otherwise be fused into one vfmadd, skipping the product's
// rounding. The empty asm emits no instruction.
template <typename T>
inline T rounded(T product) {
  asm("" : "+x"(product));
  return product;
}

template <bool Fma>
inline __m256 madd(__m256 a, __m256 b, __m256 c) {
  if constexpr (Fma) {
    return _mm256_fmadd_ps(a, b, c);
  } else {
    return _mm256_add_ps(c, rounded(_mm256_mul_ps(a, b)));
  }
}

template <bool Fma>
inline float madd(float a, float b, float c) {
  if constexpr (Fma) {
    return std::fmaf(a, b, c);
  } else {
    return c + rounded(a * b);
  }
}

inline __m256 load_b(const float* p) { return _mm256_loadu_ps(p); }

inline __m256 load_b(const std::int8_t* p) {
  return _mm256_cvtepi32_ps(_mm256_cvtepi8_epi32(
      _mm_loadl_epi64(reinterpret_cast<const __m128i*>(p))));
}

inline __m256 load_b(const std::uint16_t* p) {
  return _mm256_castsi256_ps(_mm256_slli_epi32(
      _mm256_cvtepu16_epi32(
          _mm_loadu_si128(reinterpret_cast<const __m128i*>(p))),
      16));
}

inline float b_value(float v) { return v; }
inline float b_value(std::int8_t v) { return static_cast<float>(v); }
inline float b_value(std::uint16_t v) { return bf16_value(v); }

// One GEMM call's operands. A(i, l) is a[i * lda + l], or a[l * lda + i]
// under kTransA; B is [k, n]; `scale` (int8 only, else null) holds one
// factor per output column.
template <typename BT>
struct StreamArgs {
  const float* a;
  std::int64_t lda;
  const BT* b;
  const float* scale;
  float* c;
  std::int64_t n;
  std::int64_t k;
  bool accumulate;
  std::int64_t nc;
};

template <int ROWS, class P, typename BT>
void gemm_stream_avx2(const StreamArgs<BT>& s, std::int64_t i0) {
  const std::int64_t n = s.n;
  const std::int64_t k = s.k;
  const BT* b = s.b;
  const std::int64_t a_step = P::kTransA ? s.lda : 1;
  const float* arow[ROWS];
  float* crow[ROWS];
  for (int r = 0; r < ROWS; ++r) {
    arow[r] = P::kTransA ? s.a + (i0 + r)
                         : s.a + static_cast<std::size_t>(i0 + r) *
                                     static_cast<std::size_t>(s.lda);
    crow[r] = s.c + static_cast<std::size_t>(i0 + r) * static_cast<std::size_t>(n);
  }
  const auto a_at = [&](int r, std::int64_t l) { return arow[r] + l * a_step; };
  const auto any_zero = [&](int r, std::int64_t l) {
    return (*a_at(r, l) == 0.0f) | (*a_at(r, l + 1) == 0.0f) |
           (*a_at(r, l + 2) == 0.0f) | (*a_at(r, l + 3) == 0.0f);
  };

  const bool fold = P::kFoldAcc && s.accumulate;
  const std::int64_t nc = P::kFoldAcc ? std::min(s.nc, kBackwardNc) : s.nc;
  alignas(32) float tile[P::kFoldAcc ? ROWS * kBackwardNc : 1];

  for (std::int64_t j0 = 0; j0 < n; j0 += nc) {
    const std::int64_t w = std::min(n - j0, nc);
    const std::int64_t wvec = (w / 8) * 8;
    float* dst[ROWS];
    for (int r = 0; r < ROWS; ++r) {
      dst[r] = fold ? tile + r * kBackwardNc : crow[r] + j0;
      if (fold || !s.accumulate) {
        std::memset(dst[r], 0, sizeof(float) * static_cast<std::size_t>(w));
      }
    }
    // Terms [l, lend) of row r over the chunk's vector columns.
    const auto row_terms = [&](int r, std::int64_t l, std::int64_t lend) {
      float* d = dst[r];
      for (; l < lend; ++l) {
        const float av = *a_at(r, l);
        if (P::kSkipZero && av == 0.0f) continue;
        const __m256 avv = _mm256_set1_ps(av);
        const BT* brow = b + static_cast<std::size_t>(l) * n + j0;
        for (std::int64_t j = 0; j < wvec; j += 8) {
          _mm256_storeu_ps(d + j, madd<P::kFma>(avv, load_b(brow + j),
                                                _mm256_loadu_ps(d + j)));
        }
      }
    };
    // Terms [l, lend) of every row over the chunk's scalar tail columns.
    const auto tail_terms = [&](std::int64_t l, std::int64_t lend) {
      for (std::int64_t j = wvec; j < w; ++j) {
        const BT* bcol = b + j0 + j;
        for (int r = 0; r < ROWS; ++r) {
          float acc = dst[r][j];
          for (std::int64_t q = l; q < lend; ++q) {
            const float av = *a_at(r, q);
            if (P::kSkipZero && av == 0.0f) continue;
            acc = madd<P::kFma>(
                av, b_value(bcol[static_cast<std::size_t>(q) * n]), acc);
          }
          dst[r][j] = acc;
        }
      }
    };

    std::int64_t l = 0;
    for (; l + 4 <= k; l += 4) {
      const BT* b0 = b + static_cast<std::size_t>(l) * n + j0;
      const BT* b1 = b0 + n;
      const BT* b2 = b1 + n;
      const BT* b3 = b2 + n;
      // Row pairs with all eight broadcasts hoisted into registers: each
      // B load feeds two C rows, and after the first pair streams this
      // 4-row B segment in, later pairs re-read it from L1. A row with a
      // skipped (zero) term takes the one-term-at-a-time path instead.
      int r = 0;
      for (; r + 2 <= ROWS; r += 2) {
        if constexpr (P::kSkipZero) {
          if (any_zero(r, l) | any_zero(r + 1, l)) {
            row_terms(r, l, l + 4);
            row_terms(r + 1, l, l + 4);
            continue;
          }
        }
        const __m256 a0 = _mm256_broadcast_ss(a_at(r, l));
        const __m256 a1 = _mm256_broadcast_ss(a_at(r, l + 1));
        const __m256 a2 = _mm256_broadcast_ss(a_at(r, l + 2));
        const __m256 a3 = _mm256_broadcast_ss(a_at(r, l + 3));
        const __m256 a4 = _mm256_broadcast_ss(a_at(r + 1, l));
        const __m256 a5 = _mm256_broadcast_ss(a_at(r + 1, l + 1));
        const __m256 a6 = _mm256_broadcast_ss(a_at(r + 1, l + 2));
        const __m256 a7 = _mm256_broadcast_ss(a_at(r + 1, l + 3));
        float* c0 = dst[r];
        float* c1 = dst[r + 1];
        for (std::int64_t j = 0; j < wvec; j += 8) {
          const __m256 bv0 = load_b(b0 + j);
          const __m256 bv1 = load_b(b1 + j);
          const __m256 bv2 = load_b(b2 + j);
          const __m256 bv3 = load_b(b3 + j);
          __m256 cv0 = _mm256_loadu_ps(c0 + j);
          cv0 = madd<P::kFma>(a0, bv0, cv0);
          cv0 = madd<P::kFma>(a1, bv1, cv0);
          cv0 = madd<P::kFma>(a2, bv2, cv0);
          cv0 = madd<P::kFma>(a3, bv3, cv0);
          _mm256_storeu_ps(c0 + j, cv0);
          __m256 cv1 = _mm256_loadu_ps(c1 + j);
          cv1 = madd<P::kFma>(a4, bv0, cv1);
          cv1 = madd<P::kFma>(a5, bv1, cv1);
          cv1 = madd<P::kFma>(a6, bv2, cv1);
          cv1 = madd<P::kFma>(a7, bv3, cv1);
          _mm256_storeu_ps(c1 + j, cv1);
        }
      }
      for (; r < ROWS; ++r) {
        if constexpr (P::kSkipZero) {
          if (any_zero(r, l)) {
            row_terms(r, l, l + 4);
            continue;
          }
        }
        const __m256 a0 = _mm256_broadcast_ss(a_at(r, l));
        const __m256 a1 = _mm256_broadcast_ss(a_at(r, l + 1));
        const __m256 a2 = _mm256_broadcast_ss(a_at(r, l + 2));
        const __m256 a3 = _mm256_broadcast_ss(a_at(r, l + 3));
        float* crr = dst[r];
        for (std::int64_t j = 0; j < wvec; j += 8) {
          __m256 cv = _mm256_loadu_ps(crr + j);
          cv = madd<P::kFma>(a0, load_b(b0 + j), cv);
          cv = madd<P::kFma>(a1, load_b(b1 + j), cv);
          cv = madd<P::kFma>(a2, load_b(b2 + j), cv);
          cv = madd<P::kFma>(a3, load_b(b3 + j), cv);
          _mm256_storeu_ps(crr + j, cv);
        }
      }
      tail_terms(l, l + 4);
    }
    for (int r = 0; r < ROWS; ++r) row_terms(r, l, k);
    tail_terms(l, k);

    for (int r = 0; r < ROWS; ++r) {
      float* d = dst[r];
      if (fold) {
        float* cr = crow[r] + j0;
        std::int64_t j = 0;
        for (; j < wvec; j += 8) {
          _mm256_storeu_ps(cr + j, _mm256_add_ps(_mm256_loadu_ps(cr + j),
                                                 _mm256_loadu_ps(d + j)));
        }
        for (; j < w; ++j) cr[j] = cr[j] + d[j];
      }
      if (s.scale != nullptr) {
        const float* sc = s.scale + j0;
        std::int64_t j = 0;
        for (; j < wvec; j += 8) {
          _mm256_storeu_ps(d + j, _mm256_mul_ps(_mm256_loadu_ps(d + j),
                                                _mm256_loadu_ps(sc + j)));
        }
        for (; j < w; ++j) d[j] *= sc[j];
      }
    }
  }
}

// One row-block of `rows` C rows: 1..8, plus 16 and 32 for gemm_nn's wide
// fp32 tilings.
template <class P, typename BT>
void gemm_stream_block(const StreamArgs<BT>& s, std::int64_t i0, int rows) {
  if constexpr (std::is_same_v<P, NnPolicy> && std::is_same_v<BT, float>) {
    if (rows == 32) return gemm_stream_avx2<32, P>(s, i0);
    if (rows == 16) return gemm_stream_avx2<16, P>(s, i0);
  }
  switch (rows) {
    case 8: gemm_stream_avx2<8, P>(s, i0); break;
    case 7: gemm_stream_avx2<7, P>(s, i0); break;
    case 6: gemm_stream_avx2<6, P>(s, i0); break;
    case 5: gemm_stream_avx2<5, P>(s, i0); break;
    case 4: gemm_stream_avx2<4, P>(s, i0); break;
    case 3: gemm_stream_avx2<3, P>(s, i0); break;
    case 2: gemm_stream_avx2<2, P>(s, i0); break;
    case 1: gemm_stream_avx2<1, P>(s, i0); break;
    default: break;
  }
}

// C rows [lo, hi) in blocks of `mr`, then of 8, then one remainder block.
template <class P, typename BT>
void gemm_stream_rows(const StreamArgs<BT>& s, std::int64_t lo,
                      std::int64_t hi, int mr) {
  std::int64_t i = lo;
  for (; i + mr <= hi; i += mr) gemm_stream_block<P>(s, i, mr);
  for (; i + 8 <= hi; i += 8) gemm_stream_block<P>(s, i, 8);
  if (i < hi) gemm_stream_block<P>(s, i, static_cast<int>(hi - i));
}

#pragma GCC pop_options

bool use_avx2_fma() {
  static const bool ok =
      __builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma");
  return ok;
}

// fp32 row blocks supported as a primary tiling (the remainder always
// decomposes into 8..1 blocks, which exist as templates anyway).
int clamp_mr_f32(int mr) {
  if (mr >= 32) return 32;
  if (mr >= 16) return 16;
  return std::clamp(mr, 1, 8);
}

std::int64_t clamp_nc(std::int64_t nc) { return std::max<std::int64_t>(nc, 8); }

// Runs the skeleton over all m rows of C, row-parallel.
template <class P, typename BT>
void gemm_stream(const StreamArgs<BT>& s, std::int64_t m, int mr) {
  for_rows(m, s.n * s.k, mr, [&](std::size_t lo, std::size_t hi) {
    gemm_stream_rows<P>(s, static_cast<std::int64_t>(lo),
                        static_cast<std::int64_t>(hi), mr);
  });
}
#endif  // MATGPT_X86_DISPATCH

}  // namespace

const char* format_name(WeightFormat format) {
  switch (format) {
    case WeightFormat::kF32: return "f32";
    case WeightFormat::kBf16: return "bf16";
    case WeightFormat::kInt8: return "int8";
  }
  return "?";
}

GemmVariant gemm_default_variant() { return GemmVariant{8, 512}; }

bool gemm_simd_active() {
#ifdef MATGPT_X86_DISPATCH
  return use_avx2_fma();
#else
  return false;
#endif
}

void gemm_nn(const float* a, const float* b, float* c, std::int64_t m,
             std::int64_t n, std::int64_t k, bool accumulate) {
  gemm_nn_variant(a, b, c, m, n, k, accumulate, gemm_default_variant());
}

void gemm_nn_variant(const float* a, const float* b, float* c, std::int64_t m,
                     std::int64_t n, std::int64_t k, bool accumulate,
                     [[maybe_unused]] const GemmVariant& variant) {
#ifdef MATGPT_X86_DISPATCH
  if (use_avx2_fma()) {
    gemm_stream<NnPolicy>(StreamArgs<float>{a, k, b, nullptr, c, n, k,
                                            accumulate, clamp_nc(variant.nc)},
                          m, clamp_mr_f32(variant.mr));
    return;
  }
#endif
  // Without SIMD every variant runs the one scalar loop: tiling cannot
  // change results OR behavior, so tuned and untuned builds stay identical.
  for_rows(m, n * k, 1, [=](std::size_t lo, std::size_t hi) {
    gemm_nn_scalar_rows(a, b, c, lo, hi, n, k, accumulate);
  });
}

void gemm_nn_bf16(const float* a, const std::uint16_t* b, float* c,
                  std::int64_t m, std::int64_t n, std::int64_t k,
                  [[maybe_unused]] const GemmVariant& variant) {
#ifdef MATGPT_X86_DISPATCH
  if (use_avx2_fma()) {
    gemm_stream<NnPolicy>(StreamArgs<std::uint16_t>{a, k, b, nullptr, c, n, k,
                                                    false, clamp_nc(variant.nc)},
                          m, std::clamp(variant.mr, 1, 8));
    return;
  }
#endif
  for_rows(m, n * k, 1, [=](std::size_t lo, std::size_t hi) {
    gemm_bf16_scalar_rows(a, b, c, lo, hi, n, k);
  });
}

void gemm_nn_int8(const float* a, const std::int8_t* b, const float* scale,
                  float* c, std::int64_t m, std::int64_t n, std::int64_t k,
                  [[maybe_unused]] const GemmVariant& variant) {
#ifdef MATGPT_X86_DISPATCH
  if (use_avx2_fma()) {
    gemm_stream<NnPolicy>(StreamArgs<std::int8_t>{a, k, b, scale, c, n, k,
                                                  false, clamp_nc(variant.nc)},
                          m, std::clamp(variant.mr, 1, 8));
    return;
  }
#endif
  for_rows(m, n * k, 1, [=](std::size_t lo, std::size_t hi) {
    gemm_int8_scalar_rows(a, b, scale, c, lo, hi, n, k);
  });
}

void gemm_nt(const float* a, const float* b, float* c, std::int64_t m,
             std::int64_t n, std::int64_t k, bool accumulate) {
#ifdef MATGPT_X86_DISPATCH
  if (use_avx2_fma()) {
    // B [n, k] is packed once as B^T [k, n] so the streaming kernel reads
    // it in contiguous rows. The buffer is kept for this thread's next call.
    thread_local std::vector<float> packed;
    packed.resize(static_cast<std::size_t>(n) * static_cast<std::size_t>(k));
    float* bt = packed.data();
    for (std::int64_t j = 0; j < n; ++j) {
      const float* brow = b + static_cast<std::size_t>(j) * static_cast<std::size_t>(k);
      for (std::int64_t l = 0; l < k; ++l) {
        bt[static_cast<std::size_t>(l) * static_cast<std::size_t>(n) + j] = brow[l];
      }
    }
    gemm_stream<NtPolicy>(
        StreamArgs<float>{a, k, bt, nullptr, c, n, k, accumulate, kBackwardNc},
        m, gemm_default_variant().mr);
    return;
  }
#endif
  for_rows(m, n * k, 1, [=](std::size_t lo, std::size_t hi) {
    for (std::size_t i = lo; i < hi; ++i) {
      const float* arow = a + i * static_cast<std::size_t>(k);
      float* crow = c + i * static_cast<std::size_t>(n);
      for (std::int64_t j = 0; j < n; ++j) {
        const float* brow = b + static_cast<std::size_t>(j) * static_cast<std::size_t>(k);
        float acc = 0.0f;
        for (std::int64_t l = 0; l < k; ++l) acc += arow[l] * brow[l];
        crow[j] = accumulate ? crow[j] + acc : acc;
      }
    }
  });
}

void gemm_tn(const float* a, const float* b, float* c, std::int64_t m,
             std::int64_t n, std::int64_t k, bool accumulate) {
#ifdef MATGPT_X86_DISPATCH
  if (use_avx2_fma()) {
    gemm_stream<TnPolicy>(
        StreamArgs<float>{a, m, b, nullptr, c, n, k, accumulate, kBackwardNc},
        m, gemm_default_variant().mr);
    return;
  }
#endif
  for_rows(m, n * k, 1, [=](std::size_t lo, std::size_t hi) {
    for (std::size_t i = lo; i < hi; ++i) {
      float* crow = c + i * static_cast<std::size_t>(n);
      if (!accumulate) std::memset(crow, 0, sizeof(float) * static_cast<std::size_t>(n));
      for (std::int64_t l = 0; l < k; ++l) {
        const float av = a[static_cast<std::size_t>(l) * static_cast<std::size_t>(m) + i];
        if (av == 0.0f) continue;
        const float* brow = b + static_cast<std::size_t>(l) * static_cast<std::size_t>(n);
        for (std::int64_t j = 0; j < n; ++j) crow[j] += av * brow[j];
      }
    }
  });
}

void softmax_row(float* row, std::int64_t n) {
  float mx = row[0];
  for (std::int64_t i = 1; i < n; ++i) mx = std::max(mx, row[i]);
  double denom = 0.0;
  for (std::int64_t i = 0; i < n; ++i) {
    row[i] = std::exp(row[i] - mx);
    denom += row[i];
  }
  const auto inv = static_cast<float>(1.0 / denom);
  for (std::int64_t i = 0; i < n; ++i) row[i] *= inv;
}

double logsumexp_row(const float* row, std::int64_t n) {
  float mx = row[0];
  for (std::int64_t i = 1; i < n; ++i) mx = std::max(mx, row[i]);
  double acc = 0.0;
  for (std::int64_t i = 0; i < n; ++i) acc += std::exp(row[i] - mx);
  return static_cast<double>(mx) + std::log(acc);
}

}  // namespace matgpt::kernels
