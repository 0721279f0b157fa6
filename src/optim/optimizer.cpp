#include "optim/optimizer.h"

#include <cmath>

#include "common/error.h"
#include "tensor/simd.h"

namespace matgpt::optim {

CosineSchedule::CosineSchedule(double base_lr, std::int64_t total_steps,
                               double warmup_fraction, double final_fraction)
    : base_lr_(base_lr),
      total_steps_(total_steps),
      warmup_steps_(static_cast<std::int64_t>(
          std::ceil(warmup_fraction * static_cast<double>(total_steps)))),
      final_fraction_(final_fraction) {
  MGPT_CHECK(base_lr > 0.0, "base_lr must be positive");
  MGPT_CHECK(total_steps > 0, "total_steps must be positive");
  MGPT_CHECK(warmup_fraction >= 0.0 && warmup_fraction < 1.0,
             "warmup_fraction must be in [0, 1)");
  MGPT_CHECK(final_fraction >= 0.0 && final_fraction <= 1.0,
             "final_fraction must be in [0, 1]");
}

double CosineSchedule::lr(std::int64_t step) const {
  if (warmup_steps_ > 0 && step < warmup_steps_) {
    return base_lr_ * static_cast<double>(step + 1) /
           static_cast<double>(warmup_steps_);
  }
  const double progress =
      total_steps_ == warmup_steps_
          ? 1.0
          : std::min(1.0, static_cast<double>(step - warmup_steps_) /
                              static_cast<double>(total_steps_ -
                                                  warmup_steps_));
  const double floor = base_lr_ * final_fraction_;
  return floor +
         (base_lr_ - floor) * 0.5 * (1.0 + std::cos(progress * M_PI));
}

Optimizer::Optimizer(std::vector<nn::NamedParam> params)
    : params_(std::move(params)) {
  MGPT_CHECK(!params_.empty(), "optimizer requires at least one parameter");
}

float Optimizer::clip_scale_for(std::size_t i, const Tensor& g) const {
  return i < clipped_.size() && clipped_[i].defined() && g.defined() &&
                 clipped_[i].data() == g.data()
             ? clip_scale_
             : 1.0f;
}

double Optimizer::clip_grad_norm(double max_norm) {
  MGPT_CHECK(max_norm > 0.0, "max_norm must be positive");
  // A scale still pending from an earlier call lands before the norm is
  // read.
  for (std::size_t i = 0; i < params_.size(); ++i) {
    const float scale = clip_scale_for(i, params_[i].var.grad());
    if (scale != 1.0f) params_[i].var.node()->grad.scale_(scale);
  }
  clear_clip();
  double sq = 0.0;
  for (auto& p : params_) {
    if (!p.var.grad().defined()) continue;
    const double n = p.var.grad().l2_norm();
    sq += n * n;
  }
  const double total = std::sqrt(sq);
  if (total > max_norm) {
    const auto scale = static_cast<float>(max_norm / (total + 1e-12));
    if (fuses_clip()) {
      clip_scale_ = scale;
      for (auto& p : params_) clipped_.push_back(p.var.grad());
    } else {
      for (auto& p : params_) {
        if (p.var.grad().defined()) p.var.node()->grad.scale_(scale);
      }
    }
  }
  return total;
}

void Optimizer::zero_grad() {
  clear_clip();
  for (auto& p : params_) p.var.node()->zero_grad();
}

Sgd::Sgd(std::vector<nn::NamedParam> params, SgdConfig config)
    : Optimizer(std::move(params)), config_(config) {
  if (config_.momentum != 0.0) {
    velocity_.reserve(params_.size());
    for (auto& p : params_) {
      velocity_.push_back(Tensor::zeros(p.var.value().shape()));
    }
  }
}

void Sgd::step(double lr) {
  for (std::size_t i = 0; i < params_.size(); ++i) {
    auto& p = params_[i];
    if (!p.var.grad().defined()) continue;
    Tensor& w = p.var.node()->value;
    const Tensor& g = p.var.grad();
    if (config_.weight_decay != 0.0) {
      w.scale_(1.0f - static_cast<float>(lr * config_.weight_decay));
    }
    if (config_.momentum != 0.0) {
      Tensor& vel = velocity_[i];
      vel.scale_(static_cast<float>(config_.momentum));
      vel.add_(g);
      w.add_(vel, -static_cast<float>(lr));
    } else {
      w.add_(g, -static_cast<float>(lr));
    }
  }
}

namespace {

// The Adam direction shared by Adam and LAMB, per element:
//   g  *= clip scale (when a clip is pending; the scaled g is stored back)
//   m   = b1 * m + (1 - b1) * g                 (float)
//   v   = b2 * v + (1 - b2) * g * g             (float)
//   u   = (m / bc1) / (sqrt(v / bc2) + eps)     (double)
//   u  += wd * w                                (double; LAMB always, Adam
//                                                when wd != 0)
// The scalar loops are the reference; the AVX2 loops replay them with
// every product rounded before its add (tensor/simd.h), eight floats or
// two times four doubles at a time.
struct AdamHyper {
  float b1, b2, omb1, omb2;  // betas and 1 - beta, in float
  double bc1, bc2, eps, wd;  // bias corrections, eps, weight decay
  bool decay;
  float clip;                // pending clip scale; 1 = none
};

AdamHyper adam_hyper(double beta1, double beta2, double eps, double wd,
                     bool decay, std::int64_t t, float clip) {
  const auto b1 = static_cast<float>(beta1);
  const auto b2 = static_cast<float>(beta2);
  return {b1,
          b2,
          1.0f - b1,
          1.0f - b2,
          1.0 - std::pow(beta1, static_cast<double>(t)),
          1.0 - std::pow(beta2, static_cast<double>(t)),
          eps,
          wd,
          decay,
          clip};
}

inline double adam_direction(const AdamHyper& h, float& m, float& v, float& g,
                             float w) {
  if (h.clip != 1.0f) g *= h.clip;
  m = h.b1 * m + h.omb1 * g;
  v = h.b2 * v + h.omb2 * g * g;
  const double mhat = m / h.bc1;
  const double vhat = v / h.bc2;
  double u = mhat / (std::sqrt(vhat) + h.eps);
  if (h.decay) u += h.wd * w;
  return u;
}

/// Adam: w -= float(lr * u).
void adam_update_scalar(const AdamHyper& h, float* m, float* v, float* g,
                        float* w, std::int64_t n, double lr) {
  for (std::int64_t j = 0; j < n; ++j) {
    w[j] -= static_cast<float>(lr * adam_direction(h, m[j], v[j], g[j], w[j]));
  }
}

/// LAMB's first pass: u stored as float, and the sequential double sums
/// of w * w and u * u.
void lamb_direction_scalar(const AdamHyper& h, float* m, float* v, float* g,
                           const float* w, float* u, std::int64_t n,
                           double& w_sq, double& u_sq) {
  for (std::int64_t j = 0; j < n; ++j) {
    const double uj = adam_direction(h, m[j], v[j], g[j], w[j]);
    u[j] = static_cast<float>(uj);
    w_sq += static_cast<double>(w[j]) * w[j];
    u_sq += uj * uj;
  }
}

#ifdef MATGPT_X86_DISPATCH
#pragma GCC push_options
#pragma GCC target("avx2,fma")

using simd::rounded;

/// adam_direction for the 8 elements at offset j: u as two 4-lane halves.
inline void adam_direction8(const AdamHyper& h, float* m, float* v, float* g,
                            const float* w, std::int64_t j, __m256d& u_lo,
                            __m256d& u_hi) {
  __m256 gv = _mm256_loadu_ps(g + j);
  if (h.clip != 1.0f) {
    gv = _mm256_mul_ps(gv, _mm256_set1_ps(h.clip));
    _mm256_storeu_ps(g + j, gv);
  }
  const __m256 mv = _mm256_add_ps(
      rounded(_mm256_mul_ps(_mm256_set1_ps(h.b1), _mm256_loadu_ps(m + j))),
      rounded(_mm256_mul_ps(_mm256_set1_ps(h.omb1), gv)));
  const __m256 vv = _mm256_add_ps(
      rounded(_mm256_mul_ps(_mm256_set1_ps(h.b2), _mm256_loadu_ps(v + j))),
      rounded(_mm256_mul_ps(_mm256_mul_ps(_mm256_set1_ps(h.omb2), gv), gv)));
  _mm256_storeu_ps(m + j, mv);
  _mm256_storeu_ps(v + j, vv);
  const __m256d bc1 = _mm256_set1_pd(h.bc1);
  const __m256d bc2 = _mm256_set1_pd(h.bc2);
  const __m256d eps = _mm256_set1_pd(h.eps);
  const auto half = [&](__m128 mh, __m128 vh, __m128 wh) {
    const __m256d mhat = _mm256_div_pd(_mm256_cvtps_pd(mh), bc1);
    const __m256d vhat = _mm256_div_pd(_mm256_cvtps_pd(vh), bc2);
    __m256d u = _mm256_div_pd(mhat, _mm256_add_pd(_mm256_sqrt_pd(vhat), eps));
    if (h.decay) {
      u = _mm256_add_pd(
          u, rounded(_mm256_mul_pd(_mm256_set1_pd(h.wd), _mm256_cvtps_pd(wh))));
    }
    return u;
  };
  const __m256 wv = _mm256_loadu_ps(w + j);
  u_lo = half(_mm256_castps256_ps128(mv), _mm256_castps256_ps128(vv),
              _mm256_castps256_ps128(wv));
  u_hi = half(_mm256_extractf128_ps(mv, 1), _mm256_extractf128_ps(vv, 1),
              _mm256_extractf128_ps(wv, 1));
}

void adam_update_avx2(const AdamHyper& h, float* m, float* v, float* g,
                      float* w, std::int64_t n, double lr) {
  const __m256d lrv = _mm256_set1_pd(lr);
  std::int64_t j = 0;
  for (; j + 8 <= n; j += 8) {
    __m256d u_lo, u_hi;
    adam_direction8(h, m, v, g, w, j, u_lo, u_hi);
    const __m256 step =
        _mm256_set_m128(_mm256_cvtpd_ps(_mm256_mul_pd(lrv, u_hi)),
                        _mm256_cvtpd_ps(_mm256_mul_pd(lrv, u_lo)));
    _mm256_storeu_ps(w + j, _mm256_sub_ps(_mm256_loadu_ps(w + j), step));
  }
  for (; j < n; ++j) {
    float gj = g[j];
    if (h.clip != 1.0f) g[j] = gj = gj * h.clip;
    m[j] = rounded(h.b1 * m[j]) + rounded(h.omb1 * gj);
    v[j] = rounded(h.b2 * v[j]) + rounded(h.omb2 * gj * gj);
    double u = (m[j] / h.bc1) / (std::sqrt(v[j] / h.bc2) + h.eps);
    if (h.decay) u += rounded(h.wd * w[j]);
    w[j] -= static_cast<float>(lr * u);
  }
}

void lamb_direction_avx2(const AdamHyper& h, float* m, float* v, float* g,
                         const float* w, float* u, std::int64_t n,
                         double& w_sq, double& u_sq) {
  std::int64_t j = 0;
  alignas(32) double wp[8];
  alignas(32) double up[8];
  for (; j + 8 <= n; j += 8) {
    __m256d u_lo, u_hi;
    adam_direction8(h, m, v, g, w, j, u_lo, u_hi);
    _mm256_storeu_ps(u + j, _mm256_set_m128(_mm256_cvtpd_ps(u_hi),
                                            _mm256_cvtpd_ps(u_lo)));
    const __m256d w_lo = _mm256_cvtps_pd(_mm_loadu_ps(w + j));
    const __m256d w_hi = _mm256_cvtps_pd(_mm_loadu_ps(w + j + 4));
    _mm256_store_pd(wp, rounded(_mm256_mul_pd(w_lo, w_lo)));
    _mm256_store_pd(wp + 4, rounded(_mm256_mul_pd(w_hi, w_hi)));
    _mm256_store_pd(up, rounded(_mm256_mul_pd(u_lo, u_lo)));
    _mm256_store_pd(up + 4, rounded(_mm256_mul_pd(u_hi, u_hi)));
    for (int l = 0; l < 8; ++l) {
      w_sq += wp[l];
      u_sq += up[l];
    }
  }
  for (; j < n; ++j) {
    float gj = g[j];
    if (h.clip != 1.0f) g[j] = gj = gj * h.clip;
    m[j] = rounded(h.b1 * m[j]) + rounded(h.omb1 * gj);
    v[j] = rounded(h.b2 * v[j]) + rounded(h.omb2 * gj * gj);
    double uj = (m[j] / h.bc1) / (std::sqrt(v[j] / h.bc2) + h.eps);
    if (h.decay) uj += rounded(h.wd * w[j]);
    u[j] = static_cast<float>(uj);
    w_sq += rounded(static_cast<double>(w[j]) * w[j]);
    u_sq += rounded(uj * uj);
  }
}

#pragma GCC pop_options
#endif  // MATGPT_X86_DISPATCH

void adam_update(const AdamHyper& h, float* m, float* v, float* g, float* w,
                 std::int64_t n, double lr) {
#ifdef MATGPT_X86_DISPATCH
  if (simd::avx2_fma()) return adam_update_avx2(h, m, v, g, w, n, lr);
#endif
  adam_update_scalar(h, m, v, g, w, n, lr);
}

void lamb_direction(const AdamHyper& h, float* m, float* v, float* g,
                    const float* w, float* u, std::int64_t n, double& w_sq,
                    double& u_sq) {
#ifdef MATGPT_X86_DISPATCH
  if (simd::avx2_fma()) {
    return lamb_direction_avx2(h, m, v, g, w, u, n, w_sq, u_sq);
  }
#endif
  lamb_direction_scalar(h, m, v, g, w, u, n, w_sq, u_sq);
}

}  // namespace

Adam::Adam(std::vector<nn::NamedParam> params, AdamConfig config)
    : Optimizer(std::move(params)), config_(config) {
  m_.reserve(params_.size());
  v_.reserve(params_.size());
  for (auto& p : params_) {
    m_.push_back(Tensor::zeros(p.var.value().shape()));
    v_.push_back(Tensor::zeros(p.var.value().shape()));
  }
}

void Adam::step(double lr) {
  ++t_;
  for (std::size_t i = 0; i < params_.size(); ++i) {
    auto& p = params_[i];
    if (!p.var.grad().defined()) continue;
    Tensor& w = p.var.node()->value;
    Tensor& g = p.var.node()->grad;
    const AdamHyper h = adam_hyper(
        config_.beta1, config_.beta2, config_.eps, config_.weight_decay,
        config_.weight_decay != 0.0, t_, clip_scale_for(i, g));
    adam_update(h, m_[i].data(), v_[i].data(), g.data(), w.data(), w.numel(),
                lr);
  }
  clear_clip();
}

Lamb::Lamb(std::vector<nn::NamedParam> params, LambConfig config)
    : Optimizer(std::move(params)), config_(config) {
  m_.reserve(params_.size());
  v_.reserve(params_.size());
  for (auto& p : params_) {
    m_.push_back(Tensor::zeros(p.var.value().shape()));
    v_.push_back(Tensor::zeros(p.var.value().shape()));
  }
  last_trust_ratios_.assign(params_.size(), 1.0);
}

void Lamb::step(double lr) {
  ++t_;
  for (std::size_t i = 0; i < params_.size(); ++i) {
    auto& p = params_[i];
    if (!p.var.grad().defined()) continue;
    Tensor& w = p.var.node()->value;
    Tensor& g = p.var.node()->grad;
    const AdamHyper h =
        adam_hyper(config_.beta1, config_.beta2, config_.eps,
                   config_.weight_decay, /*decay=*/true, t_,
                   clip_scale_for(i, g));
    // First pass: Adam direction (+ decoupled weight decay) and norms.
    Tensor update = Tensor::uninitialized(w.shape());
    double w_sq = 0.0;
    double u_sq = 0.0;
    lamb_direction(h, m_[i].data(), v_[i].data(), g.data(), w.data(),
                   update.data(), w.numel(), w_sq, u_sq);
    // Layer-wise trust ratio phi(||w||) / ||u||.
    double trust = 1.0;
    if (config_.use_trust_ratio) {
      const double w_norm = std::sqrt(w_sq);
      const double u_norm = std::sqrt(u_sq);
      if (w_norm > 0.0 && u_norm > 0.0) {
        trust = std::min(w_norm / u_norm, config_.max_trust_ratio);
      }
    }
    last_trust_ratios_[i] = trust;
    w.add_(update, -static_cast<float>(lr * trust));
  }
  clear_clip();
}

}  // namespace matgpt::optim
