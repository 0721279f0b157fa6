#include "tensor/ops.h"

#include <cmath>
#include <vector>

#include "common/error.h"
#include "tensor/gemm_tune.h"
#include "tensor/kernels.h"
#include "tensor/simd.h"

namespace matgpt::ops {

namespace {

/// Number of rows when treating the last dim as features.
std::int64_t leading_rows(const Tensor& t) {
  MGPT_CHECK(t.ndim() >= 1, "op requires at least rank-1 input");
  return t.dim(-1) == 0 ? 0 : t.numel() / t.dim(-1);
}

bool any_requires_grad(std::initializer_list<const Var*> vars) {
  for (const Var* v : vars) {
    if (v->requires_grad()) return true;
  }
  return false;
}

/// Records the backward of C[m,n] = A[m,k] * B[k,n] (matmul and
/// linear_matmul): dA += dC * B^T and dB += A^T * dC.
void record_matmul_backward(Tape& tape, const Var& a, const Var& b,
                            const Var& result, std::int64_t m, std::int64_t n,
                            std::int64_t k) {
  tape.record([an = a.node(), bn = b.node(), rn = result.node(), m, n, k] {
    // A first gradient is written by the kernel, not added to zeros:
    // gemm_nt's and gemm_tn's results are the same bytes either way.
    const float* g = rn->grad.data();
    bool accumulate = false;
    if (an->requires_grad) {
      Tensor& ag = an->grad_for_kernel(accumulate);
      kernels::gemm_nt(g, bn->value.data(), ag.data(), m, k, n, accumulate);
    }
    if (bn->requires_grad) {
      Tensor& bg = bn->grad_for_kernel(accumulate);
      kernels::gemm_tn(an->value.data(), g, bg.data(), k, n, m, accumulate);
    }
  });
}

}  // namespace

Var add(Tape& tape, const Var& a, const Var& b) {
  MGPT_CHECK(a.value().numel() == b.value().numel(),
             "add: shape mismatch " << a.value().shape_str() << " vs "
                                    << b.value().shape_str());
  Tensor out = Tensor::uninitialized(a.value().shape());
  {
    float* o = out.data();
    const float* pa = a.value().data();
    const float* pb = b.value().data();
    for (std::int64_t i = 0; i < out.numel(); ++i) o[i] = pa[i] + pb[i];
  }
  Var result = tape.intermediate(std::move(out), any_requires_grad({&a, &b}));
  if (result.requires_grad()) {
    tape.record([an = a.node(), bn = b.node(), rn = result.node()] {
      an->accumulate(rn->grad);
      bn->accumulate(rn->grad);
    });
  }
  return result;
}

Var add_bias(Tape& tape, const Var& x, const Var& bias) {
  const std::int64_t cols = x.value().dim(-1);
  MGPT_CHECK(bias.value().numel() == cols,
             "add_bias: bias length " << bias.value().numel()
                                      << " != feature dim " << cols);
  const std::int64_t rows = leading_rows(x.value());
  Tensor out = x.value().clone();
  float* o = out.data();
  const float* b = bias.value().data();
  for (std::int64_t r = 0; r < rows; ++r) {
    for (std::int64_t c = 0; c < cols; ++c) o[r * cols + c] += b[c];
  }
  Var result = tape.intermediate(std::move(out), any_requires_grad({&x, &bias}));
  if (result.requires_grad()) {
    tape.record([xn = x.node(), bn = bias.node(), rn = result.node(), rows,
                 cols] {
      xn->accumulate(rn->grad);
      if (bn->requires_grad) {
        Tensor& bg = bn->ensure_grad();
        const float* g = rn->grad.data();
        float* bgd = bg.data();
        for (std::int64_t r = 0; r < rows; ++r) {
          for (std::int64_t c = 0; c < cols; ++c) bgd[c] += g[r * cols + c];
        }
      }
    });
  }
  return result;
}

Var mul(Tape& tape, const Var& a, const Var& b) {
  MGPT_CHECK(a.value().numel() == b.value().numel(),
             "mul: shape mismatch " << a.value().shape_str() << " vs "
                                    << b.value().shape_str());
  Tensor out = a.value().clone();
  {
    float* o = out.data();
    const float* pb = b.value().data();
    for (std::int64_t i = 0; i < out.numel(); ++i) o[i] *= pb[i];
  }
  Var result = tape.intermediate(std::move(out), any_requires_grad({&a, &b}));
  if (result.requires_grad()) {
    tape.record([an = a.node(), bn = b.node(), rn = result.node()] {
      const float* g = rn->grad.data();
      const std::int64_t n = rn->grad.numel();
      if (an->requires_grad) {
        Tensor& ag = an->ensure_grad();
        const float* pb = bn->value.data();
        float* pa = ag.data();
        for (std::int64_t i = 0; i < n; ++i) pa[i] += g[i] * pb[i];
      }
      if (bn->requires_grad) {
        Tensor& bg = bn->ensure_grad();
        const float* pa = an->value.data();
        float* pb = bg.data();
        for (std::int64_t i = 0; i < n; ++i) pb[i] += g[i] * pa[i];
      }
    });
  }
  return result;
}

Var scale(Tape& tape, const Var& a, float s) {
  Tensor out = a.value().clone();
  out.scale_(s);
  Var result = tape.intermediate(std::move(out), a.requires_grad());
  if (result.requires_grad()) {
    tape.record([an = a.node(), rn = result.node(), s] {
      Tensor g = rn->grad.clone();
      g.scale_(s);
      an->accumulate(g);
    });
  }
  return result;
}

Var matmul(Tape& tape, const Var& a, const Var& b) {
  MGPT_CHECK(a.value().ndim() == 2 && b.value().ndim() == 2,
             "matmul requires rank-2 operands");
  const std::int64_t m = a.value().dim(0);
  const std::int64_t k = a.value().dim(1);
  const std::int64_t n = b.value().dim(1);
  MGPT_CHECK(b.value().dim(0) == k,
             "matmul inner-dim mismatch: " << a.value().shape_str() << " x "
                                           << b.value().shape_str());
  Tensor out = Tensor::uninitialized({m, n});
  kernels::gemm_nn(a.value().data(), b.value().data(), out.data(), m, n, k,
                   /*accumulate=*/false);
  Var result = tape.intermediate(std::move(out), any_requires_grad({&a, &b}));
  if (result.requires_grad()) {
    record_matmul_backward(tape, a, b, result, m, n, k);
  }
  return result;
}

Var linear_matmul(Tape& tape, const Var& a, const Var& w,
                  const gemm_tune::QuantWeights* qw) {
  MGPT_CHECK(a.value().ndim() == 2 && w.value().ndim() == 2,
             "linear_matmul requires rank-2 operands");
  const std::int64_t m = a.value().dim(0);
  const std::int64_t k = a.value().dim(1);
  const std::int64_t n = w.value().dim(1);
  MGPT_CHECK(w.value().dim(0) == k,
             "linear_matmul inner-dim mismatch: "
                 << a.value().shape_str() << " x " << w.value().shape_str());
  const bool needs_grad = any_requires_grad({&a, &w});
  // Quantized forward only when no backward will read this result — the
  // sidecar has no gradient story; training always sees fp32 weights.
  const gemm_tune::QuantWeights* use_qw =
      (qw != nullptr && qw->format != kernels::WeightFormat::kF32 &&
       !(tape.recording() && needs_grad))
          ? qw
          : nullptr;
  Tensor out = Tensor::uninitialized({m, n});
  gemm_tune::GemmTuner::instance().gemm(a.value().data(), w.value().data(),
                                        use_qw, out.data(), m, n, k,
                                        /*accumulate=*/false);
  Var result = tape.intermediate(std::move(out), needs_grad);
  if (result.requires_grad()) {
    record_matmul_backward(tape, a, w, result, m, n, k);
  }
  return result;
}

Var reshape(Tape& tape, const Var& x, std::vector<std::int64_t> shape) {
  Tensor out = x.value().reshape(std::move(shape));
  Var result = tape.intermediate(std::move(out), x.requires_grad());
  if (result.requires_grad()) {
    tape.record([xn = x.node(), rn = result.node()] {
      xn->accumulate(rn->grad.reshape(xn->value.shape()));
    });
  }
  return result;
}

Var embedding(Tape& tape, const Var& weight,
              std::span<const std::int32_t> ids) {
  MGPT_CHECK(weight.value().ndim() == 2, "embedding weight must be [V, C]");
  const std::int64_t vocab = weight.value().dim(0);
  const std::int64_t cols = weight.value().dim(1);
  const auto n = static_cast<std::int64_t>(ids.size());
  Tensor out = Tensor::uninitialized({n, cols});
  const float* w = weight.value().data();
  float* o = out.data();
  for (std::int64_t i = 0; i < n; ++i) {
    const std::int32_t id = ids[static_cast<std::size_t>(i)];
    MGPT_CHECK(id >= 0 && id < vocab,
               "embedding id " << id << " out of range [0, " << vocab << ")");
    const float* row = w + static_cast<std::size_t>(id) * cols;
    std::copy(row, row + cols, o + i * cols);
  }
  Var result = tape.intermediate(std::move(out), weight.requires_grad());
  if (result.requires_grad()) {
    std::vector<std::int32_t> ids_copy(ids.begin(), ids.end());
    tape.record([wn = weight.node(), rn = result.node(),
                 ids_copy = std::move(ids_copy), cols] {
      Tensor& wg = wn->ensure_grad();
      const float* g = rn->grad.data();
      float* wgd = wg.data();
      for (std::size_t i = 0; i < ids_copy.size(); ++i) {
        float* row = wgd + static_cast<std::size_t>(ids_copy[i]) * cols;
        const float* grow = g + i * static_cast<std::size_t>(cols);
        for (std::int64_t c = 0; c < cols; ++c) row[c] += grow[c];
      }
    });
  }
  return result;
}

Var gather_rows(Tape& tape, const Var& x, std::vector<std::int64_t> idx) {
  MGPT_CHECK(x.value().ndim() == 2, "gather_rows requires a 2D tensor");
  const std::int64_t rows = x.value().dim(0);
  const std::int64_t cols = x.value().dim(1);
  const auto n = static_cast<std::int64_t>(idx.size());
  Tensor out = Tensor::uninitialized({n, cols});
  const float* src = x.value().data();
  float* o = out.data();
  for (std::int64_t i = 0; i < n; ++i) {
    const std::int64_t r = idx[static_cast<std::size_t>(i)];
    MGPT_CHECK(r >= 0 && r < rows, "gather_rows index out of range");
    std::copy(src + r * cols, src + (r + 1) * cols, o + i * cols);
  }
  Var result = tape.intermediate(std::move(out), x.requires_grad());
  if (result.requires_grad()) {
    tape.record([xn = x.node(), rn = result.node(), idx = std::move(idx),
                 cols] {
      Tensor& xg = xn->ensure_grad();
      const float* g = rn->grad.data();
      float* xgd = xg.data();
      for (std::size_t i = 0; i < idx.size(); ++i) {
        float* row = xgd + static_cast<std::size_t>(idx[i]) * cols;
        const float* grow = g + i * static_cast<std::size_t>(cols);
        for (std::int64_t c = 0; c < cols; ++c) row[c] += grow[c];
      }
    });
  }
  return result;
}

Var scatter_add_rows(Tape& tape, const Var& messages,
                     std::vector<std::int64_t> dst, std::int64_t n_rows) {
  MGPT_CHECK(messages.value().ndim() == 2,
             "scatter_add_rows requires 2D messages");
  const std::int64_t e = messages.value().dim(0);
  const std::int64_t cols = messages.value().dim(1);
  MGPT_CHECK(static_cast<std::int64_t>(dst.size()) == e,
             "scatter_add_rows: dst length must equal message count");
  Tensor out({n_rows, cols});
  const float* src = messages.value().data();
  float* o = out.data();
  for (std::int64_t i = 0; i < e; ++i) {
    const std::int64_t r = dst[static_cast<std::size_t>(i)];
    MGPT_CHECK(r >= 0 && r < n_rows, "scatter_add_rows index out of range");
    const float* mrow = src + i * cols;
    float* orow = o + r * cols;
    for (std::int64_t c = 0; c < cols; ++c) orow[c] += mrow[c];
  }
  Var result = tape.intermediate(std::move(out), messages.requires_grad());
  if (result.requires_grad()) {
    tape.record([mn = messages.node(), rn = result.node(),
                 dst = std::move(dst), cols] {
      Tensor& mg = mn->ensure_grad();
      const float* g = rn->grad.data();
      float* mgd = mg.data();
      for (std::size_t i = 0; i < dst.size(); ++i) {
        const float* grow = g + static_cast<std::size_t>(dst[i]) *
                                    static_cast<std::size_t>(cols);
        float* mrow = mgd + i * static_cast<std::size_t>(cols);
        for (std::int64_t c = 0; c < cols; ++c) mrow[c] += grow[c];
      }
    });
  }
  return result;
}

Var slice_rows(Tape& tape, const Var& x, std::int64_t begin,
               std::int64_t end) {
  MGPT_CHECK(x.value().ndim() == 2, "slice_rows requires a 2D tensor");
  const std::int64_t rows = x.value().dim(0);
  const std::int64_t cols = x.value().dim(1);
  MGPT_CHECK(begin >= 0 && begin <= end && end <= rows,
             "slice_rows range [" << begin << ", " << end
                                  << ") out of bounds for " << rows
                                  << " rows");
  Tensor out = Tensor::uninitialized({end - begin, cols});
  const float* src = x.value().data();
  std::copy(src + begin * cols, src + end * cols, out.data());
  Var result = tape.intermediate(std::move(out), x.requires_grad());
  if (result.requires_grad()) {
    tape.record([xn = x.node(), rn = result.node(), begin, cols] {
      Tensor& xg = xn->ensure_grad();
      const float* g = rn->grad.data();
      float* dst = xg.data() + begin * cols;
      for (std::int64_t i = 0; i < rn->grad.numel(); ++i) dst[i] += g[i];
    });
  }
  return result;
}

Var concat_cols(Tape& tape, const Var& a, const Var& b) {
  MGPT_CHECK(a.value().ndim() == 2 && b.value().ndim() == 2,
             "concat_cols requires 2D tensors");
  const std::int64_t rows = a.value().dim(0);
  MGPT_CHECK(b.value().dim(0) == rows, "concat_cols row-count mismatch");
  const std::int64_t ca = a.value().dim(1);
  const std::int64_t cb = b.value().dim(1);
  Tensor out = Tensor::uninitialized({rows, ca + cb});
  const float* pa = a.value().data();
  const float* pb = b.value().data();
  float* o = out.data();
  for (std::int64_t r = 0; r < rows; ++r) {
    std::copy(pa + r * ca, pa + (r + 1) * ca, o + r * (ca + cb));
    std::copy(pb + r * cb, pb + (r + 1) * cb, o + r * (ca + cb) + ca);
  }
  Var result = tape.intermediate(std::move(out), any_requires_grad({&a, &b}));
  if (result.requires_grad()) {
    tape.record([an = a.node(), bn = b.node(), rn = result.node(), rows, ca,
                 cb] {
      const float* g = rn->grad.data();
      if (an->requires_grad) {
        Tensor& ag = an->ensure_grad();
        float* pa = ag.data();
        for (std::int64_t r = 0; r < rows; ++r) {
          const float* grow = g + r * (ca + cb);
          for (std::int64_t c = 0; c < ca; ++c) pa[r * ca + c] += grow[c];
        }
      }
      if (bn->requires_grad) {
        Tensor& bg = bn->ensure_grad();
        float* pb = bg.data();
        for (std::int64_t r = 0; r < rows; ++r) {
          const float* grow = g + r * (ca + cb) + ca;
          for (std::int64_t c = 0; c < cb; ++c) pb[r * cb + c] += grow[c];
        }
      }
    });
  }
  return result;
}

Var mean_rows(Tape& tape, const Var& x) {
  MGPT_CHECK(x.value().ndim() == 2, "mean_rows requires a 2D tensor");
  const std::int64_t rows = x.value().dim(0);
  const std::int64_t cols = x.value().dim(1);
  MGPT_CHECK(rows > 0, "mean_rows of an empty tensor");
  Tensor out({1, cols});
  const float* src = x.value().data();
  float* o = out.data();
  for (std::int64_t r = 0; r < rows; ++r) {
    for (std::int64_t c = 0; c < cols; ++c) o[c] += src[r * cols + c];
  }
  out.scale_(1.0f / static_cast<float>(rows));
  Var result = tape.intermediate(std::move(out), x.requires_grad());
  if (result.requires_grad()) {
    tape.record([xn = x.node(), rn = result.node(), rows, cols] {
      Tensor& xg = xn->ensure_grad();
      const float* g = rn->grad.data();
      float* dst = xg.data();
      const float inv = 1.0f / static_cast<float>(rows);
      for (std::int64_t r = 0; r < rows; ++r) {
        for (std::int64_t c = 0; c < cols; ++c) dst[r * cols + c] += g[c] * inv;
      }
    });
  }
  return result;
}

Var sum_all(Tape& tape, const Var& x) {
  Tensor out = Tensor::from_data({1}, {static_cast<float>(x.value().sum())});
  Var result = tape.intermediate(std::move(out), x.requires_grad());
  if (result.requires_grad()) {
    tape.record([xn = x.node(), rn = result.node()] {
      Tensor& xg = xn->ensure_grad();
      const float g = rn->grad[0];
      float* xgd = xg.data();
      for (std::int64_t i = 0; i < xg.numel(); ++i) xgd[i] += g;
    });
  }
  return result;
}

Var layer_norm(Tape& tape, const Var& x, const Var& gamma, const Var& beta,
               float eps) {
  const std::int64_t cols = x.value().dim(-1);
  MGPT_CHECK(gamma.value().numel() == cols && beta.value().numel() == cols,
             "layer_norm parameter length must equal the feature dim");
  const std::int64_t rows = leading_rows(x.value());
  Tensor out = Tensor::uninitialized(x.value().shape());
  Tensor xhat = Tensor::uninitialized({rows, cols});
  Tensor inv_std = Tensor::uninitialized({rows});
  const float* src = x.value().data();
  const float* gm = gamma.value().data();
  const float* bt = beta.value().data();
  float* o = out.data();
  float* xh = xhat.data();
  float* is = inv_std.data();
  for (std::int64_t r = 0; r < rows; ++r) {
    const float* row = src + r * cols;
    double mu = 0.0;
    for (std::int64_t c = 0; c < cols; ++c) mu += row[c];
    mu /= static_cast<double>(cols);
    double var = 0.0;
    for (std::int64_t c = 0; c < cols; ++c) {
      const double d = row[c] - mu;
      var += d * d;
    }
    var /= static_cast<double>(cols);
    const auto inv = static_cast<float>(1.0 / std::sqrt(var + eps));
    is[r] = inv;
    for (std::int64_t c = 0; c < cols; ++c) {
      const float h = (row[c] - static_cast<float>(mu)) * inv;
      xh[r * cols + c] = h;
      o[r * cols + c] = gm[c] * h + bt[c];
    }
  }
  Var result = tape.intermediate(std::move(out),
                                 any_requires_grad({&x, &gamma, &beta}));
  if (result.requires_grad()) {
    tape.record([xn = x.node(), gn = gamma.node(), bn = beta.node(),
                 rn = result.node(), xhat = std::move(xhat),
                 inv_std = std::move(inv_std), rows, cols] {
      const float* g = rn->grad.data();
      const float* xh = xhat.data();
      const float* is = inv_std.data();
      const float* gm = gn->value.data();
      if (gn->requires_grad || bn->requires_grad) {
        Tensor& gg = gn->ensure_grad();
        Tensor& bg = bn->ensure_grad();
        float* ggd = gg.data();
        float* bgd = bg.data();
        for (std::int64_t r = 0; r < rows; ++r) {
          for (std::int64_t c = 0; c < cols; ++c) {
            ggd[c] += g[r * cols + c] * xh[r * cols + c];
            bgd[c] += g[r * cols + c];
          }
        }
      }
      if (xn->requires_grad) {
        Tensor& xg = xn->ensure_grad();
        float* xgd = xg.data();
        for (std::int64_t r = 0; r < rows; ++r) {
          double mean_dxhat = 0.0;
          double mean_dxhat_xhat = 0.0;
          for (std::int64_t c = 0; c < cols; ++c) {
            const double dxh =
                static_cast<double>(g[r * cols + c]) * gm[c];
            mean_dxhat += dxh;
            mean_dxhat_xhat += dxh * xh[r * cols + c];
          }
          mean_dxhat /= static_cast<double>(cols);
          mean_dxhat_xhat /= static_cast<double>(cols);
          for (std::int64_t c = 0; c < cols; ++c) {
            const double dxh =
                static_cast<double>(g[r * cols + c]) * gm[c];
            xgd[r * cols + c] += static_cast<float>(
                is[r] * (dxh - mean_dxhat -
                         xh[r * cols + c] * mean_dxhat_xhat));
          }
        }
      }
    });
  }
  return result;
}

namespace {

// Element-wise passes of RMSNorm and SwiGLU. Each scalar loop here is the
// op's reference sequence; its AVX2 twin below replays it element for
// element (see tensor/simd.h). Row reductions stay sequential scalar sums
// in double.

/// out[r] = the sequential double sum over c of term(r, c), for each row.
/// Rows run four side by side: their add chains are independent, so this
/// hides the add latency without changing any row's order of additions.
template <class Term>
void row_sums(std::int64_t rows, std::int64_t cols, double* out,
              const Term& term) {
  constexpr std::int64_t kGroup = 4;
  std::int64_t r = 0;
  for (; r + kGroup <= rows; r += kGroup) {
    double acc[kGroup] = {};
    for (std::int64_t c = 0; c < cols; ++c) {
      for (std::int64_t j = 0; j < kGroup; ++j) acc[j] += term(r + j, c);
    }
    for (std::int64_t j = 0; j < kGroup; ++j) out[r + j] = acc[j];
  }
  for (; r < rows; ++r) {
    double acc = 0.0;
    for (std::int64_t c = 0; c < cols; ++c) acc += term(r, c);
    out[r] = acc;
  }
}

/// o[c] = g[c] * x[c] * inv
void rms_scale_row_scalar(float* o, const float* g, const float* x, float inv,
                          std::int64_t n) {
  for (std::int64_t c = 0; c < n; ++c) o[c] = g[c] * x[c] * inv;
}

/// gg[c] += dy[c] * x[c] * inv
void rms_gamma_grad_row_scalar(float* gg, const float* dy, const float* x,
                               float inv, std::int64_t n) {
  for (std::int64_t c = 0; c < n; ++c) gg[c] += dy[c] * x[c] * inv;
}

/// xg[c] += float(inv * (double(dy[c]) * g[c] - x[c] * coeff))
void rms_input_grad_row_scalar(float* xg, const float* dy, const float* g,
                               const float* x, double inv, double coeff,
                               std::int64_t n) {
  for (std::int64_t c = 0; c < n; ++c) {
    const double dxh = static_cast<double>(dy[c]) * g[c];
    xg[c] += static_cast<float>(inv * (dxh - x[c] * coeff));
  }
}

/// out = silu(gate) * up, with silu(v) = v / (1 + exp(-v)); den (when not
/// null) keeps each 1 + exp(-v) for the backward.
void swiglu_fwd_scalar(float* out, float* den, const float* gate,
                       const float* up, std::int64_t n) {
  for (std::int64_t i = 0; i < n; ++i) {
    const float dn = 1.0f + std::exp(-gate[i]);
    if (den != nullptr) den[i] = dn;
    out[i] = gate[i] / dn * up[i];
  }
}

/// A backward's destination: a grad to add into, or (`add` false) a first
/// grad to write as 0 + term, the bytes of adding into zeros.
struct GradOut {
  float* p = nullptr;
  bool add = false;
};

GradOut grad_out(VarNode& node) {
  GradOut out;
  if (node.requires_grad) out.p = node.grad_for_kernel(out.add).data();
  return out;
}

/// With s = 1 / den: gate_grad += (0 + dy * up) * s * (1 + v * (1 - s)),
/// up_grad += dy * silu(v) — the sequences of silu's and mul's backward
/// closures (silu's upstream grad is a fresh zero tensor plus dy * up).
/// Either destination may be null.
void swiglu_bwd_scalar(GradOut gate_grad, GradOut up_grad, const float* dy,
                       const float* gate, const float* up, const float* den,
                       std::int64_t n) {
  for (std::int64_t i = 0; i < n; ++i) {
    const float v = gate[i];
    if (gate_grad.p != nullptr) {
      const float s = 1.0f / den[i];
      const float ds = 0.0f + dy[i] * up[i];
      float& d = gate_grad.p[i];
      d = (gate_grad.add ? d : 0.0f) + ds * (s * (1.0f + v * (1.0f - s)));
    }
    if (up_grad.p != nullptr) {
      float& d = up_grad.p[i];
      d = (up_grad.add ? d : 0.0f) + dy[i] * (v / den[i]);
    }
  }
}

#ifdef MATGPT_X86_DISPATCH
#pragma GCC push_options
#pragma GCC target("avx2,fma")

using simd::rounded;

void rms_scale_row_avx2(float* o, const float* g, const float* x, float inv,
                        std::int64_t n) {
  const __m256 iv = _mm256_set1_ps(inv);
  std::int64_t c = 0;
  for (; c + 8 <= n; c += 8) {
    _mm256_storeu_ps(o + c, _mm256_mul_ps(_mm256_mul_ps(_mm256_loadu_ps(g + c),
                                                        _mm256_loadu_ps(x + c)),
                                          iv));
  }
  for (; c < n; ++c) o[c] = g[c] * x[c] * inv;
}

void rms_gamma_grad_row_avx2(float* gg, const float* dy, const float* x,
                             float inv, std::int64_t n) {
  const __m256 iv = _mm256_set1_ps(inv);
  std::int64_t c = 0;
  for (; c + 8 <= n; c += 8) {
    const __m256 t = rounded(_mm256_mul_ps(
        _mm256_mul_ps(_mm256_loadu_ps(dy + c), _mm256_loadu_ps(x + c)), iv));
    _mm256_storeu_ps(gg + c, _mm256_add_ps(_mm256_loadu_ps(gg + c), t));
  }
  for (; c < n; ++c) gg[c] += rounded(dy[c] * x[c] * inv);
}

void rms_input_grad_row_avx2(float* xg, const float* dy, const float* g,
                             const float* x, double inv, double coeff,
                             std::int64_t n) {
  const __m256d iv = _mm256_set1_pd(inv);
  const __m256d cv = _mm256_set1_pd(coeff);
  std::int64_t c = 0;
  for (; c + 4 <= n; c += 4) {
    const __m256d dxh = _mm256_mul_pd(_mm256_cvtps_pd(_mm_loadu_ps(dy + c)),
                                      _mm256_cvtps_pd(_mm_loadu_ps(g + c)));
    const __m256d t = rounded(
        _mm256_mul_pd(_mm256_cvtps_pd(_mm_loadu_ps(x + c)), cv));
    const __m128 u = _mm256_cvtpd_ps(_mm256_mul_pd(iv, _mm256_sub_pd(dxh, t)));
    _mm_storeu_ps(xg + c, _mm_add_ps(_mm_loadu_ps(xg + c), u));
  }
  for (; c < n; ++c) {
    const double dxh = static_cast<double>(dy[c]) * g[c];
    xg[c] += static_cast<float>(inv * (dxh - rounded(x[c] * coeff)));
  }
}

/// swiglu_fwd_scalar in blocks: the block's exps (scalar, as glibc
/// computes them), then its divides and multiplies 8 lanes at a time.
void swiglu_fwd_avx2(float* out, float* den, const float* gate,
                     const float* up, std::int64_t n) {
  constexpr std::int64_t kBlock = 64;
  float dn[kBlock];
  for (std::int64_t i0 = 0; i0 < n; i0 += kBlock) {
    const std::int64_t w = std::min(kBlock, n - i0);
    float* d = den != nullptr ? den + i0 : dn;
    for (std::int64_t i = 0; i < w; ++i) d[i] = 1.0f + std::exp(-gate[i0 + i]);
    std::int64_t i = 0;
    for (; i + 8 <= w; i += 8) {
      const __m256 y = _mm256_div_ps(_mm256_loadu_ps(gate + i0 + i),
                                     _mm256_loadu_ps(d + i));
      _mm256_storeu_ps(out + i0 + i,
                       _mm256_mul_ps(y, _mm256_loadu_ps(up + i0 + i)));
    }
    for (; i < w; ++i) out[i0 + i] = gate[i0 + i] / d[i] * up[i0 + i];
  }
}

void swiglu_bwd_avx2(GradOut gate_grad, GradOut up_grad, const float* dy,
                     const float* gate, const float* up, const float* den,
                     std::int64_t n) {
  const __m256 one = _mm256_set1_ps(1.0f);
  const __m256 zero = _mm256_setzero_ps();
  const auto base = [&](const GradOut& o, std::int64_t i) {
    return o.add ? _mm256_loadu_ps(o.p + i) : zero;
  };
  std::int64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256 v = _mm256_loadu_ps(gate + i);
    const __m256 dn = _mm256_loadu_ps(den + i);
    const __m256 g = _mm256_loadu_ps(dy + i);
    if (gate_grad.p != nullptr) {
      const __m256 s = _mm256_div_ps(one, dn);
      const __m256 ds =
          _mm256_add_ps(zero, rounded(_mm256_mul_ps(g, _mm256_loadu_ps(up + i))));
      const __m256 f = _mm256_mul_ps(
          s, _mm256_add_ps(one, rounded(_mm256_mul_ps(v, _mm256_sub_ps(one, s)))));
      _mm256_storeu_ps(gate_grad.p + i, _mm256_add_ps(base(gate_grad, i),
                                                      rounded(_mm256_mul_ps(ds, f))));
    }
    if (up_grad.p != nullptr) {
      const __m256 t = rounded(_mm256_mul_ps(g, _mm256_div_ps(v, dn)));
      _mm256_storeu_ps(up_grad.p + i, _mm256_add_ps(base(up_grad, i), t));
    }
  }
  for (; i < n; ++i) {
    const float v = gate[i];
    if (gate_grad.p != nullptr) {
      const float s = 1.0f / den[i];
      const float ds = 0.0f + rounded(dy[i] * up[i]);
      float& d = gate_grad.p[i];
      d = (gate_grad.add ? d : 0.0f) +
          rounded(ds * (s * (1.0f + rounded(v * (1.0f - s)))));
    }
    if (up_grad.p != nullptr) {
      float& d = up_grad.p[i];
      d = (up_grad.add ? d : 0.0f) + rounded(dy[i] * (v / den[i]));
    }
  }
}

#pragma GCC pop_options
#endif  // MATGPT_X86_DISPATCH

#ifdef MATGPT_X86_DISPATCH
#define MATGPT_SIMD_OR_SCALAR(fn, ...) \
  (simd::avx2_fma() ? fn##_avx2(__VA_ARGS__) : fn##_scalar(__VA_ARGS__))
#else
#define MATGPT_SIMD_OR_SCALAR(fn, ...) fn##_scalar(__VA_ARGS__)
#endif

}  // namespace

Var rms_norm(Tape& tape, const Var& x, const Var& gamma, float eps) {
  const std::int64_t cols = x.value().dim(-1);
  MGPT_CHECK(gamma.value().numel() == cols,
             "rms_norm parameter length must equal the feature dim");
  const std::int64_t rows = leading_rows(x.value());
  Tensor out = Tensor::uninitialized(x.value().shape());
  Tensor inv_rms = Tensor::uninitialized({rows});
  const float* src = x.value().data();
  const float* gm = gamma.value().data();
  float* o = out.data();
  float* ir = inv_rms.data();
  std::vector<double> sums(static_cast<std::size_t>(rows));
  row_sums(rows, cols, sums.data(), [&](std::int64_t r, std::int64_t c) {
    return static_cast<double>(src[r * cols + c]) * src[r * cols + c];
  });
  for (std::int64_t r = 0; r < rows; ++r) {
    const double ms = sums[static_cast<std::size_t>(r)] /
                          static_cast<double>(cols) + eps;
    const auto inv = static_cast<float>(1.0 / std::sqrt(ms));
    ir[r] = inv;
    MATGPT_SIMD_OR_SCALAR(rms_scale_row, o + r * cols, gm, src + r * cols, inv,
                          cols);
  }
  Var result =
      tape.intermediate(std::move(out), any_requires_grad({&x, &gamma}));
  if (result.requires_grad()) {
    tape.record([xn = x.node(), gn = gamma.node(), rn = result.node(),
                 inv_rms = std::move(inv_rms), rows, cols] {
      const float* g = rn->grad.data();
      const float* src = xn->value.data();
      const float* gm = gn->value.data();
      const float* ir = inv_rms.data();
      if (gn->requires_grad) {
        float* ggd = gn->ensure_grad().data();
        for (std::int64_t r = 0; r < rows; ++r) {
          MATGPT_SIMD_OR_SCALAR(rms_gamma_grad_row, ggd, g + r * cols,
                                src + r * cols, ir[r], cols);
        }
      }
      if (xn->requires_grad) {
        float* xgd = xn->ensure_grad().data();
        std::vector<double> dots(static_cast<std::size_t>(rows));
        row_sums(rows, cols, dots.data(), [&](std::int64_t r, std::int64_t c) {
          return static_cast<double>(g[r * cols + c]) * gm[c] *
                 src[r * cols + c];
        });
        for (std::int64_t r = 0; r < rows; ++r) {
          const double coeff = dots[static_cast<std::size_t>(r)] * ir[r] *
                               ir[r] / static_cast<double>(cols);
          MATGPT_SIMD_OR_SCALAR(rms_input_grad_row, xgd + r * cols,
                                g + r * cols, gm, src + r * cols,
                                static_cast<double>(ir[r]), coeff, cols);
        }
      }
    });
  }
  return result;
}

Var swiglu(Tape& tape, const Var& gate, const Var& up) {
  MGPT_CHECK(gate.value().numel() == up.value().numel(),
             "swiglu: shape mismatch " << gate.value().shape_str() << " vs "
                                       << up.value().shape_str());
  const std::int64_t n = gate.value().numel();
  const bool needs_grad =
      tape.recording() && any_requires_grad({&gate, &up});
  Tensor out = Tensor::uninitialized(gate.value().shape());
  // 1 + exp(-gate), kept for the backward so it needs no exp of its own.
  Tensor den = needs_grad ? Tensor::uninitialized({n}) : Tensor();
  MATGPT_SIMD_OR_SCALAR(swiglu_fwd, out.data(),
                        needs_grad ? den.data() : nullptr,
                        gate.value().data(), up.value().data(), n);
  Var result = tape.intermediate(std::move(out), needs_grad);
  if (result.requires_grad()) {
    tape.record([gn = gate.node(), un = up.node(), rn = result.node(),
                 den = std::move(den), n] {
      MATGPT_SIMD_OR_SCALAR(swiglu_bwd, grad_out(*gn), grad_out(*un),
                            rn->grad.data(), gn->value.data(), un->value.data(),
                            den.data(), n);
    });
  }
  return result;
}

namespace {

/// Shared scaffolding for elementwise activations: forward maps every value,
/// backward multiplies the upstream grad by a derivative computed from the
/// saved input (and, for cheapness, the saved output).
template <typename Fwd, typename Bwd>
Var unary_elementwise(Tape& tape, const Var& x, Fwd fwd, Bwd bwd_factor) {
  Tensor out = Tensor::uninitialized(x.value().shape());
  const float* src = x.value().data();
  float* o = out.data();
  const std::int64_t n = out.numel();
  for (std::int64_t i = 0; i < n; ++i) o[i] = fwd(src[i]);
  Var result = tape.intermediate(std::move(out), x.requires_grad());
  if (result.requires_grad()) {
    tape.record([xn = x.node(), rn = result.node(), bwd_factor, n] {
      Tensor& xg = xn->ensure_grad();
      const float* g = rn->grad.data();
      const float* src = xn->value.data();
      const float* out = rn->value.data();
      float* xgd = xg.data();
      for (std::int64_t i = 0; i < n; ++i) {
        xgd[i] += g[i] * bwd_factor(src[i], out[i]);
      }
    });
  }
  return result;
}

}  // namespace

Var gelu(Tape& tape, const Var& x) {
  constexpr float kC = 0.7978845608028654f;  // sqrt(2/pi)
  constexpr float kA = 0.044715f;
  return unary_elementwise(
      tape, x,
      [](float v) {
        const float inner = kC * (v + kA * v * v * v);
        return 0.5f * v * (1.0f + std::tanh(inner));
      },
      [](float v, float /*y*/) {
        const float inner = kC * (v + kA * v * v * v);
        const float t = std::tanh(inner);
        const float sech2 = 1.0f - t * t;
        return 0.5f * (1.0f + t) +
               0.5f * v * sech2 * kC * (1.0f + 3.0f * kA * v * v);
      });
}

Var silu(Tape& tape, const Var& x) {
  return unary_elementwise(
      tape, x,
      [](float v) { return v / (1.0f + std::exp(-v)); },
      [](float v, float /*y*/) {
        const float s = 1.0f / (1.0f + std::exp(-v));
        return s * (1.0f + v * (1.0f - s));
      });
}

Var relu(Tape& tape, const Var& x) {
  return unary_elementwise(
      tape, x, [](float v) { return v > 0.0f ? v : 0.0f; },
      [](float v, float /*y*/) { return v > 0.0f ? 1.0f : 0.0f; });
}

Var sigmoid(Tape& tape, const Var& x) {
  return unary_elementwise(
      tape, x, [](float v) { return 1.0f / (1.0f + std::exp(-v)); },
      [](float /*v*/, float y) { return y * (1.0f - y); });
}

Var tanh_act(Tape& tape, const Var& x) {
  return unary_elementwise(
      tape, x, [](float v) { return std::tanh(v); },
      [](float /*v*/, float y) { return 1.0f - y * y; });
}

Var dropout(Tape& tape, const Var& x, float p, Rng& rng, bool training) {
  MGPT_CHECK(p >= 0.0f && p < 1.0f, "dropout p must be in [0, 1)");
  if (!training || p == 0.0f) return x;
  const float keep = 1.0f - p;
  Tensor mask = Tensor::uninitialized(x.value().shape());
  Tensor out = Tensor::uninitialized(x.value().shape());
  const float* src = x.value().data();
  float* m = mask.data();
  float* o = out.data();
  for (std::int64_t i = 0; i < out.numel(); ++i) {
    m[i] = rng.bernoulli(keep) ? 1.0f / keep : 0.0f;
    o[i] = src[i] * m[i];
  }
  Var result = tape.intermediate(std::move(out), x.requires_grad());
  if (result.requires_grad()) {
    tape.record([xn = x.node(), rn = result.node(), mask = std::move(mask)] {
      Tensor& xg = xn->ensure_grad();
      const float* g = rn->grad.data();
      const float* m = mask.data();
      float* xgd = xg.data();
      for (std::int64_t i = 0; i < rn->grad.numel(); ++i) {
        xgd[i] += g[i] * m[i];
      }
    });
  }
  return result;
}

Var cross_entropy(Tape& tape, const Var& logits,
                  std::span<const std::int32_t> targets,
                  std::int32_t ignore_index) {
  MGPT_CHECK(logits.value().ndim() == 2, "cross_entropy expects [N, V] logits");
  const std::int64_t n = logits.value().dim(0);
  const std::int64_t v = logits.value().dim(1);
  MGPT_CHECK(static_cast<std::int64_t>(targets.size()) == n,
             "cross_entropy target count mismatch");
  const float* z = logits.value().data();
  if (!(tape.recording() && logits.requires_grad())) {
    // No backward: only each target's probability, the same bytes the
    // probs rows below would hold, and no [N, V] tensor.
    double loss = 0.0;
    std::int64_t valid = 0;
    for (std::int64_t r = 0; r < n; ++r) {
      const std::int32_t t = targets[static_cast<std::size_t>(r)];
      if (t == ignore_index) continue;
      MGPT_CHECK(t >= 0 && t < v, "cross_entropy target out of range");
      const float p = kernels::softmax_prob(z + r * v, v, t);
      loss -= std::log(std::max(1e-30, static_cast<double>(p)));
      ++valid;
    }
    MGPT_CHECK(valid > 0, "cross_entropy: no valid (non-ignored) targets");
    loss /= static_cast<double>(valid);
    return tape.intermediate(
        Tensor::from_data({1}, {static_cast<float>(loss)}), false);
  }
  Tensor probs = Tensor::uninitialized({n, v});
  float* p = probs.data();
  double loss = 0.0;
  std::int64_t valid = 0;
  for (std::int64_t r = 0; r < n; ++r) {
    const std::int32_t t = targets[static_cast<std::size_t>(r)];
    std::copy(z + r * v, z + (r + 1) * v, p + r * v);
    kernels::softmax_row(p + r * v, v);
    if (t == ignore_index) continue;
    MGPT_CHECK(t >= 0 && t < v, "cross_entropy target out of range");
    loss -= std::log(std::max(1e-30, static_cast<double>(p[r * v + t])));
    ++valid;
  }
  MGPT_CHECK(valid > 0, "cross_entropy: no valid (non-ignored) targets");
  loss /= static_cast<double>(valid);
  Tensor out = Tensor::from_data({1}, {static_cast<float>(loss)});
  Var result = tape.intermediate(std::move(out), logits.requires_grad());
  if (result.requires_grad()) {
    std::vector<std::int32_t> tgt(targets.begin(), targets.end());
    tape.record([ln = logits.node(), rn = result.node(),
                 probs = std::move(probs), tgt = std::move(tgt), n, v, valid,
                 ignore_index] {
      // lg += gscale * (p - delta), with a first gradient written as
      // 0 + ... instead of added to a zero-filled tensor.
      bool accumulate = false;
      float* lgd = ln->grad_for_kernel(accumulate).data();
      const float gscale = rn->grad[0] / static_cast<float>(valid);
      const float* p = probs.data();
      for (std::int64_t r = 0; r < n; ++r) {
        const std::int32_t t = tgt[static_cast<std::size_t>(r)];
        float* row = lgd + r * v;
        if (t == ignore_index) {
          if (!accumulate) std::fill(row, row + v, 0.0f);
          continue;
        }
        const float* prow = p + r * v;
        const float base_t = accumulate ? row[t] : 0.0f;
        // Off the target delta is 0, and p - 0.0f is p.
        if (accumulate) {
          for (std::int64_t c = 0; c < v; ++c) row[c] += gscale * prow[c];
        } else {
          for (std::int64_t c = 0; c < v; ++c) row[c] = 0.0f + gscale * prow[c];
        }
        row[t] = base_t + gscale * (prow[t] - 1.0f);
      }
    });
  }
  return result;
}

Var mse_loss(Tape& tape, const Var& pred, std::span<const float> targets) {
  const std::int64_t n = pred.value().numel();
  MGPT_CHECK(static_cast<std::int64_t>(targets.size()) == n,
             "mse_loss target count mismatch");
  MGPT_CHECK(n > 0, "mse_loss of empty prediction");
  const float* p = pred.value().data();
  double loss = 0.0;
  for (std::int64_t i = 0; i < n; ++i) {
    const double d = static_cast<double>(p[i]) -
                     targets[static_cast<std::size_t>(i)];
    loss += d * d;
  }
  loss /= static_cast<double>(n);
  Tensor out = Tensor::from_data({1}, {static_cast<float>(loss)});
  Var result = tape.intermediate(std::move(out), pred.requires_grad());
  if (result.requires_grad()) {
    std::vector<float> tgt(targets.begin(), targets.end());
    tape.record([pn = pred.node(), rn = result.node(), tgt = std::move(tgt),
                 n] {
      Tensor& pg = pn->ensure_grad();
      const float gscale = rn->grad[0] * 2.0f / static_cast<float>(n);
      const float* p = pn->value.data();
      float* pgd = pg.data();
      for (std::int64_t i = 0; i < n; ++i) {
        pgd[i] += gscale * (p[i] - tgt[static_cast<std::size_t>(i)]);
      }
    });
  }
  return result;
}

std::vector<double> token_log_probs(const Tensor& logits,
                                    std::span<const std::int32_t> targets) {
  MGPT_CHECK(logits.ndim() == 2, "token_log_probs expects [N, V] logits");
  const std::int64_t n = logits.dim(0);
  const std::int64_t v = logits.dim(1);
  MGPT_CHECK(static_cast<std::int64_t>(targets.size()) == n,
             "token_log_probs target count mismatch");
  std::vector<double> out(static_cast<std::size_t>(n));
  const float* z = logits.data();
  for (std::int64_t r = 0; r < n; ++r) {
    const std::int32_t t = targets[static_cast<std::size_t>(r)];
    MGPT_CHECK(t >= 0 && t < v, "token_log_probs target out of range");
    const double lse = kernels::logsumexp_row(z + r * v, v);
    out[static_cast<std::size_t>(r)] =
        static_cast<double>(z[r * v + t]) - lse;
  }
  return out;
}

}  // namespace matgpt::ops
