// Unit tests for optimizers and the LR schedule: convergence on quadratic
// objectives, LAMB trust-ratio behaviour, clipping, and schedule shape.

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <memory>
#include <tuple>

#include "common/rng.h"
#include "optim/optimizer.h"
#include "tensor/ops.h"

namespace matgpt {
namespace {

/// Minimal quadratic problem: minimize ||w - target||^2.
struct Quadratic {
  Var w;
  Tensor target;

  explicit Quadratic(const std::vector<float>& init,
                     const std::vector<float>& tgt)
      : w(make_var(Tensor::from_data(
                       {static_cast<std::int64_t>(init.size())}, init),
                   true)),
        target(Tensor::from_data({static_cast<std::int64_t>(tgt.size())},
                                 tgt)) {}

  double loss_and_grad() {
    w.node()->zero_grad();
    Tensor grad(w.value().shape());
    double loss = 0.0;
    for (std::int64_t i = 0; i < w.value().numel(); ++i) {
      const double d = w.value()[i] - target[i];
      loss += d * d;
      grad[i] = static_cast<float>(2.0 * d);
    }
    w.node()->accumulate(grad);
    return loss;
  }

  std::vector<nn::NamedParam> params() { return {{"w", w}}; }
};

TEST(CosineSchedule, WarmupRampsLinearly) {
  optim::CosineSchedule s(1.0, 1000, 0.1, 0.1);
  EXPECT_EQ(s.warmup_steps(), 100);
  EXPECT_NEAR(s.lr(0), 0.01, 1e-9);
  EXPECT_NEAR(s.lr(49), 0.5, 1e-9);
  EXPECT_NEAR(s.lr(99), 1.0, 1e-9);
}

TEST(CosineSchedule, DecaysToFinalFraction) {
  optim::CosineSchedule s(0.01, 1000, 0.01, 0.1);
  EXPECT_NEAR(s.lr(10), 0.01, 1e-9);       // peak right after warmup
  EXPECT_NEAR(s.lr(999), 0.001, 1e-5);     // final = 10% of initial
  // Monotone decreasing after warmup.
  for (int t = 11; t < 999; ++t) {
    EXPECT_LE(s.lr(t + 1), s.lr(t) + 1e-12);
  }
}

TEST(CosineSchedule, MidpointIsHalfway) {
  optim::CosineSchedule s(1.0, 1000, 0.0, 0.0);
  EXPECT_NEAR(s.lr(500), 0.5, 1e-2);
}

TEST(CosineSchedule, Validation) {
  EXPECT_THROW(optim::CosineSchedule(0.0, 100), Error);
  EXPECT_THROW(optim::CosineSchedule(0.1, 0), Error);
  EXPECT_THROW(optim::CosineSchedule(0.1, 100, 1.5), Error);
}

TEST(Sgd, ConvergesOnQuadratic) {
  Quadratic q({5.0f, -3.0f}, {1.0f, 2.0f});
  optim::Sgd opt(q.params());
  for (int i = 0; i < 200; ++i) {
    q.loss_and_grad();
    opt.step(0.1);
  }
  EXPECT_NEAR(q.w.value()[0], 1.0f, 1e-3);
  EXPECT_NEAR(q.w.value()[1], 2.0f, 1e-3);
}

TEST(Sgd, MomentumAcceleratesDescent) {
  Quadratic plain({5.0f}, {0.0f});
  Quadratic momentum({5.0f}, {0.0f});
  optim::Sgd o1(plain.params());
  optim::Sgd o2(momentum.params(), {.momentum = 0.9});
  for (int i = 0; i < 10; ++i) {
    plain.loss_and_grad();
    o1.step(0.01);
    momentum.loss_and_grad();
    o2.step(0.01);
  }
  EXPECT_LT(std::fabs(momentum.w.value()[0]),
            std::fabs(plain.w.value()[0]));
}

TEST(Adam, ConvergesOnQuadratic) {
  Quadratic q({5.0f, -3.0f, 10.0f}, {1.0f, 2.0f, -1.0f});
  optim::Adam opt(q.params());
  for (int i = 0; i < 800; ++i) {
    q.loss_and_grad();
    opt.step(0.05);
  }
  for (std::int64_t i = 0; i < 3; ++i) {
    EXPECT_NEAR(q.w.value()[i], q.target[i], 2e-2) << i;
  }
}

TEST(Adam, SkipsParamsWithoutGrad) {
  Quadratic q({1.0f}, {0.0f});
  optim::Adam opt(q.params());
  // No loss_and_grad call: grad undefined, step must not move w.
  opt.step(0.1);
  EXPECT_FLOAT_EQ(q.w.value()[0], 1.0f);
}

TEST(Adam, DecoupledWeightDecayShrinksWeights) {
  Quadratic q({4.0f}, {4.0f});  // zero gradient at start
  optim::Adam opt(q.params(), {.beta1 = 0.9,
                               .beta2 = 0.95,
                               .eps = 1e-8,
                               .weight_decay = 0.1});
  q.loss_and_grad();  // grad == 0 but defined
  opt.step(0.5);
  EXPECT_LT(q.w.value()[0], 4.0f);
}

TEST(Lamb, ConvergesOnQuadratic) {
  Quadratic q({5.0f, -3.0f}, {1.0f, 2.0f});
  optim::Lamb opt(q.params(), {.beta1 = 0.9,
                               .beta2 = 0.999,
                               .eps = 1e-6,
                               .weight_decay = 0.0});
  for (int i = 0; i < 500; ++i) {
    q.loss_and_grad();
    opt.step(0.01);
  }
  EXPECT_NEAR(q.w.value()[0], 1.0f, 5e-2);
  EXPECT_NEAR(q.w.value()[1], 2.0f, 5e-2);
}

TEST(Lamb, TrustRatioReflectsWeightToUpdateNorms) {
  Quadratic q({100.0f}, {0.0f});  // large weight, unit-ish Adam direction
  optim::Lamb opt(q.params(), {.beta1 = 0.9,
                               .beta2 = 0.999,
                               .eps = 1e-6,
                               .weight_decay = 0.0,
                               .max_trust_ratio = 10.0});
  q.loss_and_grad();
  opt.step(0.001);
  ASSERT_EQ(opt.last_trust_ratios().size(), 1u);
  // ||w|| = 100, ||update|| ~ 1 (Adam-normalized) -> clamped to 10.
  EXPECT_NEAR(opt.last_trust_ratios()[0], 10.0, 1e-6);
}

TEST(Lamb, TrustRatioDisabledBehavesLikeAdamScale) {
  Quadratic a({100.0f}, {0.0f});
  Quadratic b({100.0f}, {0.0f});
  optim::Lamb with(a.params(), {.beta1 = 0.9,
                                .beta2 = 0.999,
                                .eps = 1e-6,
                                .weight_decay = 0.0,
                                .use_trust_ratio = true});
  optim::Lamb without(b.params(), {.beta1 = 0.9,
                                   .beta2 = 0.999,
                                   .eps = 1e-6,
                                   .weight_decay = 0.0,
                                   .use_trust_ratio = false});
  a.loss_and_grad();
  with.step(0.001);
  b.loss_and_grad();
  without.step(0.001);
  // With trust ratio the step is 10x larger here.
  EXPECT_LT(a.w.value()[0], b.w.value()[0]);
  EXPECT_NEAR(without.last_trust_ratios()[0], 1.0, 1e-12);
}

TEST(Lamb, LargeBatchAnalogClosesGapVsAdam) {
  // Emulate the large-batch setting: few optimizer steps with low-noise
  // gradients. LAMB's layer-wise scaling reaches the target faster when the
  // per-layer magnitudes are very different.
  Quadratic adam_small({200.0f, 0.02f}, {0.0f, 0.0f});
  Quadratic lamb_small({200.0f, 0.02f}, {0.0f, 0.0f});
  optim::Adam adam(adam_small.params(),
                   {.beta1 = 0.9, .beta2 = 0.999, .eps = 1e-8,
                    .weight_decay = 0.0});
  optim::Lamb lamb(lamb_small.params(),
                   {.beta1 = 0.9, .beta2 = 0.999, .eps = 1e-6,
                    .weight_decay = 0.0});
  for (int i = 0; i < 30; ++i) {
    adam_small.loss_and_grad();
    adam.step(0.01);
    lamb_small.loss_and_grad();
    lamb.step(0.01);
  }
  // Relative progress on the big-magnitude coordinate.
  EXPECT_LT(std::fabs(lamb_small.w.value()[0]),
            std::fabs(adam_small.w.value()[0]));
}

TEST(Clipping, GlobalNormScalesAllGrads) {
  Quadratic q({3.0f, 4.0f}, {0.0f, 0.0f});  // grad = (6, 8), norm 10
  optim::Sgd opt(q.params());
  q.loss_and_grad();
  const double pre = opt.clip_grad_norm(5.0);
  EXPECT_NEAR(pre, 10.0, 1e-5);
  EXPECT_NEAR(q.w.grad()[0], 3.0f, 1e-4);
  EXPECT_NEAR(q.w.grad()[1], 4.0f, 1e-4);
}

TEST(Clipping, NoScalingBelowThreshold) {
  Quadratic q({0.3f, 0.4f}, {0.0f, 0.0f});  // grad norm 1.0
  optim::Sgd opt(q.params());
  q.loss_and_grad();
  opt.clip_grad_norm(5.0);
  EXPECT_NEAR(q.w.grad()[0], 0.6f, 1e-5);
}

TEST(Optimizer, StateBytesMatchTheMemoryModelAssumptions) {
  Quadratic q({1.0f}, {0.0f});
  optim::Adam adam(q.params());
  optim::Lamb lamb(q.params());
  optim::Sgd sgd(q.params());
  EXPECT_DOUBLE_EQ(adam.state_bytes_per_param(), 8.0);  // fp32 m + v
  EXPECT_DOUBLE_EQ(lamb.state_bytes_per_param(), 8.0);
  EXPECT_DOUBLE_EQ(sgd.state_bytes_per_param(), 0.0);
}

TEST(Optimizer, RequiresParams) {
  std::vector<nn::NamedParam> empty;
  EXPECT_THROW(optim::Sgd{empty}, Error);
}

// ---- byte identity of the fused Adam/LAMB pass --------------------------------
//
// Adam and LAMB run one SIMD pass that also applies clip_grad_norm's scale.
// It must leave exactly the bytes of the scalar loops it replaced (copied
// below): weights, the clipped gradients, LAMB's trust ratios.

bool same_bytes(const void* a, const void* b, std::size_t bytes) {
  return std::memcmp(a, b, bytes) == 0;
}

/// The reference clip_grad_norm over plain vectors: per-tensor sequential
/// norms, their squares summed, one float scale multiplied in place.
void ref_clip(std::vector<std::vector<float>>& grads, double max_norm) {
  double sq = 0.0;
  for (const auto& g : grads) {
    double acc = 0.0;
    for (float v : g) acc += static_cast<double>(v) * v;
    const double n = std::sqrt(acc);
    sq += n * n;
  }
  const double total = std::sqrt(sq);
  if (total > max_norm) {
    const auto scale = static_cast<float>(max_norm / (total + 1e-12));
    for (auto& g : grads) {
      for (float& v : g) v *= scale;
    }
  }
}

struct RefState {
  std::vector<float> w, m, v;
};

/// The reference Adam::step loop for one tensor.
void ref_adam(RefState& st, const std::vector<float>& g, double lr,
              const optim::AdamConfig& c, std::int64_t t) {
  const double bc1 = 1.0 - std::pow(c.beta1, static_cast<double>(t));
  const double bc2 = 1.0 - std::pow(c.beta2, static_cast<double>(t));
  const auto b1 = static_cast<float>(c.beta1);
  const auto b2 = static_cast<float>(c.beta2);
  for (std::size_t j = 0; j < st.w.size(); ++j) {
    st.m[j] = b1 * st.m[j] + (1.0f - b1) * g[j];
    st.v[j] = b2 * st.v[j] + (1.0f - b2) * g[j] * g[j];
    const double mhat = st.m[j] / bc1;
    const double vhat = st.v[j] / bc2;
    double update = mhat / (std::sqrt(vhat) + c.eps);
    if (c.weight_decay != 0.0) update += c.weight_decay * st.w[j];
    st.w[j] -= static_cast<float>(lr * update);
  }
}

/// The reference Lamb::step loop for one tensor; returns the trust ratio.
double ref_lamb(RefState& st, const std::vector<float>& g, double lr,
                const optim::LambConfig& c, std::int64_t t) {
  const double bc1 = 1.0 - std::pow(c.beta1, static_cast<double>(t));
  const double bc2 = 1.0 - std::pow(c.beta2, static_cast<double>(t));
  const auto b1 = static_cast<float>(c.beta1);
  const auto b2 = static_cast<float>(c.beta2);
  std::vector<float> uw(st.w.size());
  double w_sq = 0.0;
  double u_sq = 0.0;
  for (std::size_t j = 0; j < st.w.size(); ++j) {
    st.m[j] = b1 * st.m[j] + (1.0f - b1) * g[j];
    st.v[j] = b2 * st.v[j] + (1.0f - b2) * g[j] * g[j];
    const double mhat = st.m[j] / bc1;
    const double vhat = st.v[j] / bc2;
    double u = mhat / (std::sqrt(vhat) + c.eps);
    u += c.weight_decay * st.w[j];
    uw[j] = static_cast<float>(u);
    w_sq += static_cast<double>(st.w[j]) * st.w[j];
    u_sq += u * u;
  }
  double trust = 1.0;
  if (c.use_trust_ratio) {
    const double w_norm = std::sqrt(w_sq);
    const double u_norm = std::sqrt(u_sq);
    if (w_norm > 0.0 && u_norm > 0.0) {
      trust = std::min(w_norm / u_norm, c.max_trust_ratio);
    }
  }
  const float scale = -static_cast<float>(lr * trust);
  for (std::size_t j = 0; j < st.w.size(); ++j) st.w[j] += scale * uw[j];
  return trust;
}

// (LAMB?, weight decay, clip max_norm): the clip is active at 0.5 and
// inactive at 1e9. Parameter sizes are mostly not multiples of 8.
class OptimizerIdentity
    : public ::testing::TestWithParam<std::tuple<bool, double, double>> {};

TEST_P(OptimizerIdentity, FusedStepMatchesReferenceLoops) {
  const auto [lamb, wd, max_norm] = GetParam();
  Rng rng(31);
  const std::vector<std::int64_t> sizes{1, 7, 13, 64, 203};
  std::vector<nn::NamedParam> params;
  std::vector<RefState> ref;
  for (std::size_t i = 0; i < sizes.size(); ++i) {
    const Tensor w = Tensor::randn({sizes[i]}, rng);
    params.push_back({"p" + std::to_string(i), make_var(w.clone(), true)});
    ref.push_back({std::vector<float>(w.data(), w.data() + w.numel()),
                   std::vector<float>(w.numel(), 0.0f),
                   std::vector<float>(w.numel(), 0.0f)});
  }
  optim::AdamConfig ac;
  ac.weight_decay = wd;
  optim::LambConfig lc;
  lc.weight_decay = wd;
  std::unique_ptr<optim::Optimizer> opt;
  if (lamb) {
    opt = std::make_unique<optim::Lamb>(params, lc);
  } else {
    opt = std::make_unique<optim::Adam>(params, ac);
  }
  for (std::int64_t t = 1; t <= 4; ++t) {
    std::vector<std::vector<float>> grads;
    for (auto& p : params) {
      const Tensor g = Tensor::randn(p.var.value().shape(), rng, 0.0f, 2.0f);
      p.var.node()->zero_grad();
      p.var.node()->accumulate(g);
      grads.emplace_back(g.data(), g.data() + g.numel());
    }
    const double lr = 1e-2 * static_cast<double>(t);
    // A second clip in one step composes with the first (step 2).
    for (int clips = t == 2 ? 2 : 1; clips > 0; --clips) {
      opt->clip_grad_norm(max_norm);
      ref_clip(grads, max_norm);
    }
    opt->step(lr);
    for (std::size_t i = 0; i < params.size(); ++i) {
      double trust = 0.0;
      if (lamb) {
        trust = ref_lamb(ref[i], grads[i], lr, lc, t);
      } else {
        ref_adam(ref[i], grads[i], lr, ac, t);
      }
      const Var& p = params[i].var;
      const std::size_t bytes = sizeof(float) * ref[i].w.size();
      EXPECT_TRUE(same_bytes(p.value().data(), ref[i].w.data(), bytes))
          << "weights, param " << i << " step " << t;
      EXPECT_TRUE(same_bytes(p.grad().data(), grads[i].data(), bytes))
          << "clipped grads, param " << i << " step " << t;
      if (lamb) {
        const double got =
            static_cast<const optim::Lamb&>(*opt).last_trust_ratios()[i];
        EXPECT_TRUE(same_bytes(&got, &trust, sizeof(double)))
            << "trust ratio, param " << i << " step " << t;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Cases, OptimizerIdentity,
    ::testing::Combine(::testing::Bool(), ::testing::Values(0.0, 0.1),
                       ::testing::Values(0.5, 1e9)));

TEST(Clipping, DeferredScaleSkipsGradientsReplacedBeforeStep) {
  // Clip, then drop and recompute the gradient the way a new backward
  // would: the step must see the new gradient unscaled.
  Quadratic a({3.0f, 4.0f}, {0.0f, 0.0f});
  Quadratic b({3.0f, 4.0f}, {0.0f, 0.0f});
  optim::Adam clipped(a.params());
  optim::Adam plain(b.params());
  a.loss_and_grad();
  clipped.clip_grad_norm(1.0);
  a.loss_and_grad();
  clipped.step(0.1);
  b.loss_and_grad();
  plain.step(0.1);
  EXPECT_TRUE(same_bytes(a.w.value().data(), b.w.value().data(),
                         2 * sizeof(float)));
  EXPECT_TRUE(same_bytes(a.w.grad().data(), b.w.grad().data(),
                         2 * sizeof(float)));
}

}  // namespace
}  // namespace matgpt
