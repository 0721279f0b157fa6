// Fused attention ops: rotary position embedding and scaled dot-product
// attention in two variants.
//
//  * Materialized ("v0"): stores the full [B, H, T, T] probability tensor for
//    backward — quadratic activation memory in sequence length, the
//    pre-flash-attention behaviour the paper's Fig. 5 shows running OOM.
//  * Flash: streaming online-softmax forward that keeps only the per-row
//    logsumexp, recomputing probabilities in backward — linear activation
//    memory, the FlashAttention algorithm (Dao et al.) on CPU.
//
// Both produce bit-comparable outputs (up to float summation order), which a
// property test asserts.

#include <algorithm>
#include <cmath>
#include <limits>
#include <vector>

#include "common/error.h"
#include "tensor/kernels.h"
#include "tensor/ops.h"
#include "tensor/simd.h"

namespace matgpt::ops {

namespace {

struct AttnShape {
  std::int64_t b, t, h, d;
};

AttnShape check_bthd(const Tensor& x, const char* what) {
  MGPT_CHECK(x.ndim() == 4, what << " must be [B, T, H, D]");
  return {x.dim(0), x.dim(1), x.dim(2), x.dim(3)};
}

/// Flat offset of (b, t, h, 0) in a [B, T, H, D] tensor.
inline std::size_t bthd_off(const AttnShape& s, std::int64_t b,
                            std::int64_t t, std::int64_t h) {
  return static_cast<std::size_t>(((b * s.t + t) * s.h + h) * s.d);
}

// Where kv time step tk of one (sequence, kv head) lives. Contiguous: at
// k0/v0 + tk * stride. Paged (block-paged KV pool): at
// blocks[tk / bt] + off + (tk % bt) * stride, a gather over block base
// pointers. Only the addresses differ; every kernel below runs the same
// float ops over either, which is what makes block-paged KV storage
// bit-identical to slab storage.
struct ContiguousKv {
  const float* k0;
  const float* v0;
  std::int64_t stride;
  const float* k(std::int64_t tk) const { return k0 + tk * stride; }
  const float* v(std::int64_t tk) const { return v0 + tk * stride; }
};

struct PagedKv {
  const float* const* kb;
  const float* const* vb;
  std::int64_t bt, off, stride;
  const float* k(std::int64_t tk) const {
    return kb[tk / bt] + off + (tk % bt) * stride;
  }
  const float* v(std::int64_t tk) const {
    return vb[tk / bt] + off + (tk % bt) * stride;
  }
};

// Every attention path — full forwards, ragged decode, flash and
// materialized alike, training and serving — computes its q·k and dO·v
// products with one dot-product sequence and accumulates P·V with one
// axpy, chosen once per process: with AVX2+FMA, an 8-lane FMA chain
// reduced lo+hi, movehl, then lane 1, followed by a scalar fmaf tail;
// without it, a sequential scalar sum. So no two paths can disagree
// bitwise, which is why full forward ≡ cached decode. A row kernel makes
// the dispatch decision once and inlines the products, scoring a block of
// keys at a time.

/// Keys scored per block by the row kernels (their stack scratch).
constexpr std::int64_t kKeyBlock = 16;

float dot_scalar(const float* a, const float* b, std::int64_t d) {
  float acc = 0.0f;
  for (std::int64_t i = 0; i < d; ++i) acc += a[i] * b[i];
  return acc;
}

/// out[0..d) += w * v[0..d)
void axpy_scalar(float* out, float w, const float* v, std::int64_t d) {
  for (std::int64_t i = 0; i < d; ++i) out[i] = std::fmaf(w, v[i], out[i]);
}

// Scalar row kernels (hosts without AVX2+FMA, and MATGPT_PORTABLE).

/// Flash variant: online softmax over `len` kv rows. Writes the attended
/// output to `out` and returns the row's logsumexp. `acc` is caller scratch
/// of length d.
template <class Kv>
float flash_row_scalar(const float* qv, const Kv& kv, std::int64_t len,
                       std::int64_t d, float scl, float* out, float* acc) {
  float m = -std::numeric_limits<float>::infinity();
  double l = 0.0;
  std::fill(acc, acc + d, 0.0f);
  for (std::int64_t tk = 0; tk < len; ++tk) {
    const float sc = scl * dot_scalar(qv, kv.k(tk), d);
    if (sc > m) {
      const float rescale = std::exp(m - sc);
      for (std::int64_t i = 0; i < d; ++i) acc[i] *= rescale;
      l *= rescale;
      m = sc;
    }
    const float w = std::exp(sc - m);
    l += w;
    axpy_scalar(acc, w, kv.v(tk), d);
  }
  const auto inv = static_cast<float>(1.0 / l);
  for (std::int64_t i = 0; i < d; ++i) out[i] = acc[i] * inv;
  return m + static_cast<float>(std::log(l));
}

/// Materialized variant: scores into `prow` (softmaxed in place, length >=
/// len), attended output accumulated into `out` (caller provides zeros).
template <class Kv>
void materialized_row_scalar(const float* qv, const Kv& kv, std::int64_t len,
                             std::int64_t d, float scl, float* out,
                             float* prow) {
  for (std::int64_t tk = 0; tk < len; ++tk) {
    prow[tk] = scl * dot_scalar(qv, kv.k(tk), d);
  }
  kernels::softmax_row(prow, len);
  for (std::int64_t tk = 0; tk < len; ++tk) {
    axpy_scalar(out, prow[tk], kv.v(tk), d);
  }
}

#ifdef MATGPT_X86_DISPATCH
#pragma GCC push_options
#pragma GCC target("avx2,fma")

using simd::rounded;

inline float hsum_dot(__m256 acc) {
  __m128 lo = _mm256_castps256_ps128(acc);
  lo = _mm_add_ps(lo, _mm256_extractf128_ps(acc, 1));
  lo = _mm_add_ps(lo, _mm_movehl_ps(lo, lo));
  lo = _mm_add_ss(lo, _mm_shuffle_ps(lo, lo, 1));
  return _mm_cvtss_f32(lo);
}

inline float dot_avx2(const float* a, const float* b, std::int64_t d) {
  __m256 acc = _mm256_setzero_ps();
  std::int64_t i = 0;
  for (; i + 8 <= d; i += 8) {
    acc = _mm256_fmadd_ps(_mm256_loadu_ps(a + i), _mm256_loadu_ps(b + i), acc);
  }
  float out = hsum_dot(acc);
  for (; i < d; ++i) out = std::fmaf(a[i], b[i], out);
  return out;
}

/// out[j] = dot(a, rows[j]) for j < 4: the dot_avx2 sequence per row, four
/// rows interleaved so their FMA chains overlap.
inline void dot4_avx2(const float* a, const float* const* rows,
                      std::int64_t d, float* out) {
  __m256 acc0 = _mm256_setzero_ps();
  __m256 acc1 = _mm256_setzero_ps();
  __m256 acc2 = _mm256_setzero_ps();
  __m256 acc3 = _mm256_setzero_ps();
  std::int64_t i = 0;
  for (; i + 8 <= d; i += 8) {
    const __m256 av = _mm256_loadu_ps(a + i);
    acc0 = _mm256_fmadd_ps(av, _mm256_loadu_ps(rows[0] + i), acc0);
    acc1 = _mm256_fmadd_ps(av, _mm256_loadu_ps(rows[1] + i), acc1);
    acc2 = _mm256_fmadd_ps(av, _mm256_loadu_ps(rows[2] + i), acc2);
    acc3 = _mm256_fmadd_ps(av, _mm256_loadu_ps(rows[3] + i), acc3);
  }
  out[0] = hsum_dot(acc0);
  out[1] = hsum_dot(acc1);
  out[2] = hsum_dot(acc2);
  out[3] = hsum_dot(acc3);
  for (; i < d; ++i) {
    for (int j = 0; j < 4; ++j) out[j] = std::fmaf(a[i], rows[j][i], out[j]);
  }
}

/// sc[j] = scl * dot(qv, k(t0 + j)) for j < n.
template <class Kv>
inline void scores_avx2(const float* qv, const Kv& kv, std::int64_t t0,
                        std::int64_t n, std::int64_t d, float scl, float* sc) {
  for (std::int64_t j = 0; j < n; j += 4) {
    const std::int64_t nb = std::min<std::int64_t>(4, n - j);
    // A short last group repeats its first key in the unused slots.
    const float* rows[4];
    for (std::int64_t r = 0; r < 4; ++r) rows[r] = kv.k(t0 + j + (r < nb ? r : 0));
    float dots[4];
    dot4_avx2(qv, rows, d, dots);
    for (std::int64_t r = 0; r < nb; ++r) sc[j + r] = rounded(scl * dots[r]);
  }
}

inline void axpy_avx2(float* out, float w, const float* v, std::int64_t d) {
  const __m256 wv = _mm256_set1_ps(w);
  std::int64_t i = 0;
  for (; i + 8 <= d; i += 8) {
    _mm256_storeu_ps(out + i, _mm256_fmadd_ps(wv, _mm256_loadu_ps(v + i),
                                              _mm256_loadu_ps(out + i)));
  }
  for (; i < d; ++i) out[i] = std::fmaf(w, v[i], out[i]);
}

/// out[0..d) = x[0..d) * f
inline void scale_avx2(float* out, const float* x, float f, std::int64_t d) {
  const __m256 fv = _mm256_set1_ps(f);
  std::int64_t i = 0;
  for (; i + 8 <= d; i += 8) {
    _mm256_storeu_ps(out + i, _mm256_mul_ps(_mm256_loadu_ps(x + i), fv));
  }
  for (; i < d; ++i) out[i] = x[i] * f;
}

/// flash_row_scalar's online softmax, byte for byte, over key blocks.
template <class Kv>
float flash_row_avx2(const float* qv, const Kv& kv, std::int64_t len,
                     std::int64_t d, float scl, float* out, float* acc) {
  float m = -std::numeric_limits<float>::infinity();
  double l = 0.0;
  std::fill(acc, acc + d, 0.0f);
  float sc[kKeyBlock];
  for (std::int64_t t0 = 0; t0 < len; t0 += kKeyBlock) {
    const std::int64_t n = std::min(kKeyBlock, len - t0);
    scores_avx2(qv, kv, t0, n, d, scl, sc);
    for (std::int64_t j = 0; j < n; ++j) {
      if (sc[j] > m) {
        const float rescale = std::exp(m - sc[j]);
        scale_avx2(acc, acc, rescale, d);
        l = rounded(l * rescale);
        m = sc[j];
      }
      const float w = std::exp(sc[j] - m);
      l += w;
      axpy_avx2(acc, w, kv.v(t0 + j), d);
    }
  }
  scale_avx2(out, acc, static_cast<float>(1.0 / l), d);
  return m + static_cast<float>(std::log(l));
}

template <class Kv>
void materialized_row_avx2(const float* qv, const Kv& kv, std::int64_t len,
                           std::int64_t d, float scl, float* out,
                           float* prow) {
  for (std::int64_t t0 = 0; t0 < len; t0 += kKeyBlock) {
    scores_avx2(qv, kv, t0, std::min(kKeyBlock, len - t0), d, scl, prow + t0);
  }
  kernels::softmax_row(prow, len);
  for (std::int64_t tk = 0; tk < len; ++tk) {
    axpy_avx2(out, prow[tk], kv.v(tk), d);
  }
}

__attribute__((noinline)) float dot_d_avx2(const float* a, const float* b,
                                           std::int64_t d) {
  return dot_avx2(a, b, d);
}

#pragma GCC pop_options
#endif  // MATGPT_X86_DISPATCH

/// The shared dot product, dispatched per call (the materialized backward).
inline float dot_d(const float* a, const float* b, std::int64_t d) {
#ifdef MATGPT_X86_DISPATCH
  if (simd::avx2_fma()) return dot_d_avx2(a, b, d);
#endif
  return dot_scalar(a, b, d);
}

// The two per-query-row attention kernels. The full [B, T, H, D] forwards
// below and the ragged-batch decode_attention op all run these exact
// routines, so batched serving decode is bit-identical to the batch-1 path.

template <class Kv>
float flash_attend_row(const float* qv, const Kv& kv, std::int64_t len,
                       std::int64_t d, float scl, float* out, float* acc) {
#ifdef MATGPT_X86_DISPATCH
  if (simd::avx2_fma()) return flash_row_avx2(qv, kv, len, d, scl, out, acc);
#endif
  return flash_row_scalar(qv, kv, len, d, scl, out, acc);
}

template <class Kv>
void materialized_attend_row(const float* qv, const Kv& kv, std::int64_t len,
                             std::int64_t d, float scl, float* out,
                             float* prow) {
#ifdef MATGPT_X86_DISPATCH
  if (simd::avx2_fma()) {
    materialized_row_avx2(qv, kv, len, d, scl, out, prow);
    return;
  }
#endif
  materialized_row_scalar(qv, kv, len, d, scl, out, prow);
}

}  // namespace

Var rope(Tape& tape, const Var& x, float theta, float rotary_fraction,
         std::int64_t position_offset) {
  const AttnShape s = check_bthd(x.value(), "rope input");
  MGPT_CHECK(rotary_fraction > 0.0f && rotary_fraction <= 1.0f,
             "rope rotary_fraction must be in (0, 1]");
  MGPT_CHECK(position_offset >= 0, "position_offset must be non-negative");
  auto rot = static_cast<std::int64_t>(
      std::lround(static_cast<double>(s.d) * rotary_fraction));
  rot -= rot % 2;  // rotary dims must pair up
  MGPT_CHECK(rot >= 2, "rope needs at least one rotated pair");
  const std::int64_t half = rot / 2;

  // Precompute cos/sin per (t, pair).
  std::vector<float> cos_tbl(static_cast<std::size_t>(s.t * half));
  std::vector<float> sin_tbl(static_cast<std::size_t>(s.t * half));
  for (std::int64_t t = 0; t < s.t; ++t) {
    for (std::int64_t i = 0; i < half; ++i) {
      const double freq =
          std::pow(static_cast<double>(theta),
                   -2.0 * static_cast<double>(i) / static_cast<double>(rot));
      const double angle =
          static_cast<double>(t + position_offset) * freq;
      cos_tbl[static_cast<std::size_t>(t * half + i)] =
          static_cast<float>(std::cos(angle));
      sin_tbl[static_cast<std::size_t>(t * half + i)] =
          static_cast<float>(std::sin(angle));
    }
  }

  Tensor out = x.value().clone();
  float* o = out.data();
  for (std::int64_t b = 0; b < s.b; ++b) {
    for (std::int64_t t = 0; t < s.t; ++t) {
      for (std::int64_t h = 0; h < s.h; ++h) {
        float* vec = o + bthd_off(s, b, t, h);
        for (std::int64_t i = 0; i < half; ++i) {
          const float c = cos_tbl[static_cast<std::size_t>(t * half + i)];
          const float sn = sin_tbl[static_cast<std::size_t>(t * half + i)];
          const float x0 = vec[i];
          const float x1 = vec[i + half];
          vec[i] = x0 * c - x1 * sn;
          vec[i + half] = x0 * sn + x1 * c;
        }
      }
    }
  }
  Var result = tape.intermediate(std::move(out), x.requires_grad());
  if (result.requires_grad()) {
    tape.record([xn = x.node(), rn = result.node(), s, half,
                 cos_tbl = std::move(cos_tbl), sin_tbl = std::move(sin_tbl)] {
      Tensor& xg = xn->ensure_grad();
      const float* g = rn->grad.data();
      float* xgd = xg.data();
      for (std::int64_t b = 0; b < s.b; ++b) {
        for (std::int64_t t = 0; t < s.t; ++t) {
          for (std::int64_t h = 0; h < s.h; ++h) {
            const std::size_t off = bthd_off(s, b, t, h);
            const float* gv = g + off;
            float* xv = xgd + off;
            for (std::int64_t i = 0; i < half; ++i) {
              const float c = cos_tbl[static_cast<std::size_t>(t * half + i)];
              const float sn = sin_tbl[static_cast<std::size_t>(t * half + i)];
              // Inverse rotation of the upstream gradient pair.
              xv[i] += gv[i] * c + gv[i + half] * sn;
              xv[i + half] += -gv[i] * sn + gv[i + half] * c;
            }
            // Pass-through for the non-rotated tail of each head.
            for (std::int64_t i = 2 * half; i < s.d; ++i) xv[i] += gv[i];
          }
        }
      }
    });
  }
  return result;
}

namespace {

/// Materialized-probabilities attention (quadratic memory).
Var attention_materialized(Tape& tape, const Var& q, const Var& k,
                           const Var& v, bool causal, const AttnShape& s,
                           const AttnShape& skv) {
  const std::int64_t group = s.h / skv.h;  // query heads per kv head
  const float scl = 1.0f / std::sqrt(static_cast<float>(s.d));
  Tensor out({s.b, s.t, s.h, s.d});
  Tensor probs({s.b, s.h, s.t, skv.t});
  const float* qp = q.value().data();
  const float* kp = k.value().data();
  const float* vp = v.value().data();
  float* op = out.data();
  float* pp = probs.data();
  const std::int64_t kv_stride = skv.h * skv.d;
  for (std::int64_t b = 0; b < s.b; ++b) {
    for (std::int64_t h = 0; h < s.h; ++h) {
      const std::int64_t hkv = h / group;
      const float* k0 = kp + bthd_off(skv, b, 0, hkv);
      const float* v0 = vp + bthd_off(skv, b, 0, hkv);
      for (std::int64_t tq = 0; tq < s.t; ++tq) {
        const std::int64_t limit = causal ? tq + 1 : skv.t;
        float* prow = pp + static_cast<std::size_t>(
                                 ((b * s.h + h) * s.t + tq) * skv.t);
        materialized_attend_row(qp + bthd_off(s, b, tq, h),
                                ContiguousKv{k0, v0, kv_stride}, limit, s.d,
                                scl, op + bthd_off(s, b, tq, h), prow);
      }
    }
  }
  Var result = tape.intermediate(
      std::move(out),
      q.requires_grad() || k.requires_grad() || v.requires_grad());
  if (result.requires_grad()) {
    tape.record([qn = q.node(), kn = k.node(), vn = v.node(),
                 rn = result.node(), probs = std::move(probs), s, skv,
                 group, causal, scl] {
      Tensor& qg = qn->ensure_grad();
      Tensor& kg = kn->ensure_grad();
      Tensor& vg = vn->ensure_grad();
      const float* g = rn->grad.data();
      const float* qp = qn->value.data();
      const float* kp = kn->value.data();
      const float* vp = vn->value.data();
      const float* pp = probs.data();
      std::vector<float> dprow(static_cast<std::size_t>(skv.t));
      for (std::int64_t b = 0; b < s.b; ++b) {
        for (std::int64_t h = 0; h < s.h; ++h) {
          const std::int64_t hkv = h / group;
          for (std::int64_t tq = 0; tq < s.t; ++tq) {
            const std::int64_t limit = causal ? tq + 1 : skv.t;
            const float* prow = pp + static_cast<std::size_t>(
                                         ((b * s.h + h) * s.t + tq) * skv.t);
            const float* gv = g + bthd_off(s, b, tq, h);
            double row_dot = 0.0;
            for (std::int64_t tk = 0; tk < limit; ++tk) {
              const float dp =
                  dot_d(gv, vp + bthd_off(skv, b, tk, hkv), s.d);
              dprow[static_cast<std::size_t>(tk)] = dp;
              row_dot += static_cast<double>(prow[tk]) * dp;
            }
            float* qgv = qg.data() + bthd_off(s, b, tq, h);
            const float* qv = qp + bthd_off(s, b, tq, h);
            for (std::int64_t tk = 0; tk < limit; ++tk) {
              const float ds =
                  prow[tk] * (dprow[static_cast<std::size_t>(tk)] -
                              static_cast<float>(row_dot));
              const float* kv = kp + bthd_off(skv, b, tk, hkv);
              float* kgv = kg.data() + bthd_off(skv, b, tk, hkv);
              float* vgv = vg.data() + bthd_off(skv, b, tk, hkv);
              for (std::int64_t i = 0; i < s.d; ++i) {
                qgv[i] += scl * ds * kv[i];
                kgv[i] += scl * ds * qv[i];
                vgv[i] += prow[tk] * gv[i];
              }
            }
          }
        }
      }
    });
  }
  return result;
}

// Flash backward over one (batch, query head): for each query row tq and
// key tk < limit(tq), in ascending tq then tk,
//   p  = exp(scl * q·k - lse),  ds = p * (dO·v - dO·O)
//   dQ[tq] += (scl * ds) * k,  dK[tk] += (scl * ds) * q,  dV[tk] += p * dO
// where each += is a rounded multiply then a rounded add.
struct FlashBwdHead {
  const float* q0;   // q row tq at q0 + tq * q_stride
  const float* g0;   // dO, same layout as q
  const float* o0;   // O, same layout as q
  float* qg0;        // dQ, same layout as q
  std::int64_t q_stride;
  const float* k0;   // k row tk at k0 + tk * kv_stride
  const float* v0;
  float* kg0;
  float* vg0;
  std::int64_t kv_stride;
  const float* lse;  // per query row
  std::int64_t t, kv_t, d;
  bool causal;
  float scl;
};

void flash_bwd_head_scalar(const FlashBwdHead& a) {
  for (std::int64_t tq = 0; tq < a.t; ++tq) {
    const std::int64_t limit = a.causal ? tq + 1 : a.kv_t;
    const float* qv = a.q0 + tq * a.q_stride;
    const float* gv = a.g0 + tq * a.q_stride;
    float* qgv = a.qg0 + tq * a.q_stride;
    // D = sum_k P_k dP_k collapses to dO·O (flash backward trick).
    const float row_dot = dot_scalar(gv, a.o0 + tq * a.q_stride, a.d);
    for (std::int64_t tk = 0; tk < limit; ++tk) {
      const float* kv = a.k0 + tk * a.kv_stride;
      const float* vv = a.v0 + tk * a.kv_stride;
      const float p =
          std::exp(a.scl * dot_scalar(qv, kv, a.d) - a.lse[tq]);
      const float dp = dot_scalar(gv, vv, a.d);
      const float ds = p * (dp - row_dot);
      float* kgv = a.kg0 + tk * a.kv_stride;
      float* vgv = a.vg0 + tk * a.kv_stride;
      for (std::int64_t i = 0; i < a.d; ++i) {
        qgv[i] += a.scl * ds * kv[i];
        kgv[i] += a.scl * ds * qv[i];
        vgv[i] += p * gv[i];
      }
    }
  }
}

#ifdef MATGPT_X86_DISPATCH
#pragma GCC push_options
#pragma GCC target("avx2,fma")

/// y[0..d) += c * x[0..d), a rounded multiply then a rounded add.
inline void mul_add_avx2(float* y, float c, const float* x, std::int64_t d) {
  const __m256 cv = _mm256_set1_ps(c);
  std::int64_t i = 0;
  for (; i + 8 <= d; i += 8) {
    _mm256_storeu_ps(
        y + i, _mm256_add_ps(_mm256_loadu_ps(y + i),
                             rounded(_mm256_mul_ps(cv, _mm256_loadu_ps(x + i)))));
  }
  for (; i < d; ++i) y[i] = y[i] + rounded(c * x[i]);
}

/// flash_bwd_head_scalar, byte for byte: a key block's scores and dO·v
/// products first (they read only q, k, v and dO), then its updates in the
/// same tk order.
void flash_bwd_head_avx2(const FlashBwdHead& a) {
  float sc[kKeyBlock];
  float dp[kKeyBlock];
  for (std::int64_t tq = 0; tq < a.t; ++tq) {
    const std::int64_t limit = a.causal ? tq + 1 : a.kv_t;
    const float* qv = a.q0 + tq * a.q_stride;
    const float* gv = a.g0 + tq * a.q_stride;
    float* qgv = a.qg0 + tq * a.q_stride;
    const float row_dot = dot_avx2(gv, a.o0 + tq * a.q_stride, a.d);
    const ContiguousKv kv{a.k0, a.v0, a.kv_stride};
    for (std::int64_t t0 = 0; t0 < limit; t0 += kKeyBlock) {
      const std::int64_t n = std::min(kKeyBlock, limit - t0);
      scores_avx2(qv, kv, t0, n, a.d, a.scl, sc);
      // dO·v per key: scores_avx2 with unit scale and v rows for k rows.
      scores_avx2(gv, ContiguousKv{a.v0, a.v0, a.kv_stride}, t0, n, a.d, 1.0f,
                  dp);
      for (std::int64_t j = 0; j < n; ++j) {
        const std::int64_t tk = t0 + j;
        const float p = std::exp(sc[j] - a.lse[tq]);
        const float ds = p * (dp[j] - row_dot);
        const float c = a.scl * ds;
        mul_add_avx2(qgv, c, kv.k(tk), a.d);
        mul_add_avx2(a.kg0 + tk * a.kv_stride, c, qv, a.d);
        mul_add_avx2(a.vg0 + tk * a.kv_stride, p, gv, a.d);
      }
    }
  }
}

#pragma GCC pop_options
#endif  // MATGPT_X86_DISPATCH

/// Flash attention: online softmax forward, recomputation backward.
Var attention_flash(Tape& tape, const Var& q, const Var& k, const Var& v,
                    bool causal, const AttnShape& s, const AttnShape& skv) {
  const std::int64_t group = s.h / skv.h;  // query heads per kv head
  const float scl = 1.0f / std::sqrt(static_cast<float>(s.d));
  Tensor out = Tensor::uninitialized({s.b, s.t, s.h, s.d});
  // Per-row logsumexp — the only saved state.
  Tensor lse = Tensor::uninitialized({s.b, s.h, s.t});
  const float* qp = q.value().data();
  const float* kp = k.value().data();
  const float* vp = v.value().data();
  float* op = out.data();
  float* lp = lse.data();
  std::vector<float> acc(static_cast<std::size_t>(s.d));
  const std::int64_t kv_stride = skv.h * skv.d;
  for (std::int64_t b = 0; b < s.b; ++b) {
    for (std::int64_t h = 0; h < s.h; ++h) {
      const std::int64_t hkv = h / group;
      const ContiguousKv kv{kp + bthd_off(skv, b, 0, hkv),
                            vp + bthd_off(skv, b, 0, hkv), kv_stride};
      for (std::int64_t tq = 0; tq < s.t; ++tq) {
        const std::int64_t limit = causal ? tq + 1 : skv.t;
        lp[(b * s.h + h) * s.t + tq] =
            flash_attend_row(qp + bthd_off(s, b, tq, h), kv, limit, s.d, scl,
                             op + bthd_off(s, b, tq, h), acc.data());
      }
    }
  }
  Var result = tape.intermediate(
      std::move(out),
      q.requires_grad() || k.requires_grad() || v.requires_grad());
  if (result.requires_grad()) {
    tape.record([qn = q.node(), kn = k.node(), vn = v.node(),
                 rn = result.node(), lse = std::move(lse), s, skv, group,
                 causal, scl] {
      Tensor& qg = qn->ensure_grad();
      Tensor& kg = kn->ensure_grad();
      Tensor& vg = vn->ensure_grad();
      for (std::int64_t b = 0; b < s.b; ++b) {
        for (std::int64_t h = 0; h < s.h; ++h) {
          const std::int64_t hkv = h / group;
          const std::size_t qo = bthd_off(s, b, 0, h);
          const std::size_t ko = bthd_off(skv, b, 0, hkv);
          const FlashBwdHead head{
              qn->value.data() + qo, rn->grad.data() + qo,
              rn->value.data() + qo, qg.data() + qo, s.h * s.d,
              kn->value.data() + ko, vn->value.data() + ko, kg.data() + ko,
              vg.data() + ko, skv.h * skv.d,
              lse.data() + (b * s.h + h) * s.t, s.t, skv.t, s.d, causal, scl};
#ifdef MATGPT_X86_DISPATCH
          if (simd::avx2_fma()) {
            flash_bwd_head_avx2(head);
            continue;
          }
#endif
          flash_bwd_head_scalar(head);
        }
      }
    });
  }
  return result;
}

}  // namespace

Var attention(Tape& tape, const Var& q, const Var& k, const Var& v,
              bool causal, bool flash) {
  const AttnShape s = check_bthd(q.value(), "attention q");
  const AttnShape sk = check_bthd(k.value(), "attention k");
  const AttnShape sv = check_bthd(v.value(), "attention v");
  MGPT_CHECK(s.b == sk.b && s.d == sk.d && sk.b == sv.b && sk.t == sv.t &&
                 sk.h == sv.h && sk.d == sv.d,
             "attention q/k/v shape mismatch");
  MGPT_CHECK(s.t == sk.t || !causal,
             "causal attention requires matching q/kv lengths; incremental "
             "decode uses causal=false with the full kv history");
  MGPT_CHECK(sk.h >= 1 && s.h % sk.h == 0,
             "GQA requires kv heads (" << sk.h
                                       << ") to divide query heads (" << s.h
                                       << ")");
  return flash ? attention_flash(tape, q, k, v, causal, s, sk)
               : attention_materialized(tape, q, k, v, causal, s, sk);
}

Var rope_rows(Tape& tape, const Var& x,
              std::span<const std::int64_t> positions, float theta,
              float rotary_fraction) {
  const Tensor& xv = x.value();
  MGPT_CHECK(xv.ndim() == 3, "rope_rows input must be [N, H, D]");
  const std::int64_t n = xv.dim(0);
  const std::int64_t heads = xv.dim(1);
  const std::int64_t d = xv.dim(2);
  MGPT_CHECK(static_cast<std::int64_t>(positions.size()) == n,
             "rope_rows needs one position per row");
  MGPT_CHECK(!(tape.recording() && x.requires_grad()),
             "rope_rows is inference-only");
  MGPT_CHECK(rotary_fraction > 0.0f && rotary_fraction <= 1.0f,
             "rope rotary_fraction must be in (0, 1]");
  auto rot = static_cast<std::int64_t>(
      std::lround(static_cast<double>(d) * rotary_fraction));
  rot -= rot % 2;
  MGPT_CHECK(rot >= 2, "rope needs at least one rotated pair");
  const std::int64_t half = rot / 2;

  // Same frequency/angle arithmetic as rope() so a ragged decode batch
  // rotates each row exactly as the batch-1 path would at that position.
  std::vector<double> freqs(static_cast<std::size_t>(half));
  for (std::int64_t i = 0; i < half; ++i) {
    freqs[static_cast<std::size_t>(i)] =
        std::pow(static_cast<double>(theta),
                 -2.0 * static_cast<double>(i) / static_cast<double>(rot));
  }
  Tensor out = xv.clone();
  float* o = out.data();
  for (std::int64_t row = 0; row < n; ++row) {
    MGPT_CHECK(positions[static_cast<std::size_t>(row)] >= 0,
               "rope_rows positions must be non-negative");
    const auto pos =
        static_cast<double>(positions[static_cast<std::size_t>(row)]);
    for (std::int64_t h = 0; h < heads; ++h) {
      float* vec = o + (row * heads + h) * d;
      for (std::int64_t i = 0; i < half; ++i) {
        const double angle = pos * freqs[static_cast<std::size_t>(i)];
        const auto c = static_cast<float>(std::cos(angle));
        const auto sn = static_cast<float>(std::sin(angle));
        const float x0 = vec[i];
        const float x1 = vec[i + half];
        vec[i] = x0 * c - x1 * sn;
        vec[i + half] = x0 * sn + x1 * c;
      }
    }
  }
  return tape.intermediate(std::move(out), false);
}

Var decode_attention(Tape& tape, const Var& q, std::span<const RaggedKv> kv,
                     std::int64_t n_kv_heads, bool flash) {
  const Tensor& qv = q.value();
  MGPT_CHECK(qv.ndim() == 3, "decode_attention q must be [N, Hq, D]");
  const std::int64_t n = qv.dim(0);
  const std::int64_t hq = qv.dim(1);
  const std::int64_t d = qv.dim(2);
  MGPT_CHECK(static_cast<std::int64_t>(kv.size()) == n,
             "decode_attention needs one KV history per row");
  MGPT_CHECK(n_kv_heads >= 1 && hq % n_kv_heads == 0,
             "GQA requires kv heads (" << n_kv_heads
                                       << ") to divide query heads (" << hq
                                       << ")");
  MGPT_CHECK(!(tape.recording() && q.requires_grad()),
             "decode_attention is inference-only");
  const std::int64_t group = hq / n_kv_heads;
  const float scl = 1.0f / std::sqrt(static_cast<float>(d));
  std::int64_t max_len = 0;
  for (const RaggedKv& s : kv) {
    if (s.k_blocks != nullptr) {
      MGPT_CHECK(s.len > 0 && s.v_blocks != nullptr && s.block_tokens > 0,
                 "decode_attention paged history needs v_blocks and a "
                 "positive block size");
    } else {
      MGPT_CHECK(s.len > 0 && s.keys != nullptr && s.values != nullptr,
                 "decode_attention requires a primed KV history per sequence");
    }
    max_len = std::max(max_len, s.len);
  }
  // 2D, ready for the output projection. The materialized rows accumulate
  // into zeros; the flash rows write every element.
  Tensor out = flash ? Tensor::uninitialized({n, hq * d}) : Tensor({n, hq * d});
  float* op = out.data();
  const float* qp = qv.data();
  std::vector<float> acc(static_cast<std::size_t>(d));
  std::vector<float> prow(static_cast<std::size_t>(max_len));
  for (std::int64_t row = 0; row < n; ++row) {
    const RaggedKv& s = kv[static_cast<std::size_t>(row)];
    // A head-slice view reads heads [head_offset, head_offset + n_kv_heads)
    // out of rows `stride` floats wide; the defaults make this the whole row.
    const std::int64_t stride =
        s.kv_stride > 0 ? s.kv_stride : n_kv_heads * d;
    for (std::int64_t h = 0; h < hq; ++h) {
      const std::int64_t hkv = s.head_offset + h / group;
      const float* qrow = qp + (row * hq + h) * d;
      float* orow = op + row * hq * d + h * d;
      if (s.k_blocks != nullptr) {
        const PagedKv pkv{s.k_blocks, s.v_blocks, s.block_tokens, hkv * d,
                          stride};
        if (flash) {
          flash_attend_row(qrow, pkv, s.len, d, scl, orow, acc.data());
        } else {
          materialized_attend_row(qrow, pkv, s.len, d, scl, orow, prow.data());
        }
      } else {
        const ContiguousKv ckv{s.keys + hkv * d, s.values + hkv * d, stride};
        if (flash) {
          flash_attend_row(qrow, ckv, s.len, d, scl, orow, acc.data());
        } else {
          materialized_attend_row(qrow, ckv, s.len, d, scl, orow, prow.data());
        }
      }
    }
  }
  return tape.intermediate(std::move(out), false);
}

}  // namespace matgpt::ops
