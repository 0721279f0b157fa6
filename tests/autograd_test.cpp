// Gradient-correctness tests: every differentiable op is validated against
// central finite differences, plus structural tests of the tape mechanics
// and an equivalence test between flash and materialized attention.

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <tuple>

#include "common/rng.h"
#include "grad_check.h"
#include "tensor/kernels.h"
#include "tensor/ops.h"

namespace matgpt {
namespace {

using testing::check_gradients;

Var weighted_sum(Tape& tape, const Var& x, const Tensor& weights) {
  Var w = tape.leaf(weights.clone().reshape(x.value().shape()), false);
  return ops::sum_all(tape, ops::mul(tape, x, w));
}

class OpGradients : public ::testing::Test {
 protected:
  Rng rng_{12345};

  Var make_leaf(Tape& tape, std::vector<std::int64_t> shape,
                float stddev = 1.0f) {
    return tape.leaf(Tensor::randn(std::move(shape), rng_, 0.0f, stddev),
                     true);
  }
};

TEST_F(OpGradients, Add) {
  Tape t0;
  std::vector<Var> leaves{make_leaf(t0, {2, 3}), make_leaf(t0, {2, 3})};
  const Tensor w = Tensor::randn({2, 3}, rng_);
  check_gradients(leaves, [&](Tape& tape) {
    return weighted_sum(tape, ops::add(tape, leaves[0], leaves[1]), w);
  });
}

TEST_F(OpGradients, AddBias) {
  Tape t0;
  std::vector<Var> leaves{make_leaf(t0, {4, 3}), make_leaf(t0, {3})};
  const Tensor w = Tensor::randn({4, 3}, rng_);
  check_gradients(leaves, [&](Tape& tape) {
    return weighted_sum(tape, ops::add_bias(tape, leaves[0], leaves[1]), w);
  });
}

TEST_F(OpGradients, Mul) {
  Tape t0;
  std::vector<Var> leaves{make_leaf(t0, {3, 2}), make_leaf(t0, {3, 2})};
  const Tensor w = Tensor::randn({3, 2}, rng_);
  check_gradients(leaves, [&](Tape& tape) {
    return weighted_sum(tape, ops::mul(tape, leaves[0], leaves[1]), w);
  });
}

TEST_F(OpGradients, Scale) {
  Tape t0;
  std::vector<Var> leaves{make_leaf(t0, {5})};
  const Tensor w = Tensor::randn({5}, rng_);
  check_gradients(leaves, [&](Tape& tape) {
    return weighted_sum(tape, ops::scale(tape, leaves[0], -1.7f), w);
  });
}

TEST_F(OpGradients, Matmul) {
  Tape t0;
  std::vector<Var> leaves{make_leaf(t0, {3, 4}), make_leaf(t0, {4, 2})};
  const Tensor w = Tensor::randn({3, 2}, rng_);
  check_gradients(leaves, [&](Tape& tape) {
    return weighted_sum(tape, ops::matmul(tape, leaves[0], leaves[1]), w);
  });
}

TEST_F(OpGradients, Reshape) {
  Tape t0;
  std::vector<Var> leaves{make_leaf(t0, {2, 6})};
  const Tensor w = Tensor::randn({12}, rng_);
  check_gradients(leaves, [&](Tape& tape) {
    return weighted_sum(tape, ops::reshape(tape, leaves[0], {3, 4}), w);
  });
}

TEST_F(OpGradients, Embedding) {
  Tape t0;
  std::vector<Var> leaves{make_leaf(t0, {5, 3})};
  const std::vector<std::int32_t> ids{1, 4, 1, 0};
  const Tensor w = Tensor::randn({4, 3}, rng_);
  check_gradients(leaves, [&](Tape& tape) {
    return weighted_sum(tape, ops::embedding(tape, leaves[0], ids), w);
  });
}

TEST_F(OpGradients, GatherRows) {
  Tape t0;
  std::vector<Var> leaves{make_leaf(t0, {4, 2})};
  const Tensor w = Tensor::randn({3, 2}, rng_);
  check_gradients(leaves, [&](Tape& tape) {
    return weighted_sum(tape, ops::gather_rows(tape, leaves[0], {2, 2, 0}), w);
  });
}

TEST_F(OpGradients, ScatterAddRows) {
  Tape t0;
  std::vector<Var> leaves{make_leaf(t0, {4, 3})};
  const Tensor w = Tensor::randn({2, 3}, rng_);
  check_gradients(leaves, [&](Tape& tape) {
    return weighted_sum(
        tape, ops::scatter_add_rows(tape, leaves[0], {0, 1, 0, 1}, 2), w);
  });
}

TEST_F(OpGradients, SliceRows) {
  Tape t0;
  std::vector<Var> leaves{make_leaf(t0, {5, 2})};
  const Tensor w = Tensor::randn({2, 2}, rng_);
  check_gradients(leaves, [&](Tape& tape) {
    return weighted_sum(tape, ops::slice_rows(tape, leaves[0], 1, 3), w);
  });
}

TEST_F(OpGradients, ConcatCols) {
  Tape t0;
  std::vector<Var> leaves{make_leaf(t0, {3, 2}), make_leaf(t0, {3, 4})};
  const Tensor w = Tensor::randn({3, 6}, rng_);
  check_gradients(leaves, [&](Tape& tape) {
    return weighted_sum(tape, ops::concat_cols(tape, leaves[0], leaves[1]), w);
  });
}

TEST_F(OpGradients, MeanRows) {
  Tape t0;
  std::vector<Var> leaves{make_leaf(t0, {4, 3})};
  const Tensor w = Tensor::randn({1, 3}, rng_);
  check_gradients(leaves, [&](Tape& tape) {
    return weighted_sum(tape, ops::mean_rows(tape, leaves[0]), w);
  });
}

TEST_F(OpGradients, LayerNorm) {
  Tape t0;
  std::vector<Var> leaves{make_leaf(t0, {3, 8}), make_leaf(t0, {8}),
                          make_leaf(t0, {8})};
  const Tensor w = Tensor::randn({3, 8}, rng_);
  check_gradients(leaves, [&](Tape& tape) {
    return weighted_sum(
        tape, ops::layer_norm(tape, leaves[0], leaves[1], leaves[2]), w);
  });
}

TEST_F(OpGradients, RmsNorm) {
  Tape t0;
  std::vector<Var> leaves{make_leaf(t0, {3, 8}), make_leaf(t0, {8})};
  const Tensor w = Tensor::randn({3, 8}, rng_);
  check_gradients(leaves, [&](Tape& tape) {
    return weighted_sum(tape, ops::rms_norm(tape, leaves[0], leaves[1]), w);
  });
}

// 37 columns: full 8-float and 4-double vector blocks plus scalar tails.
TEST_F(OpGradients, RmsNormVectorTails) {
  Tape t0;
  std::vector<Var> leaves{make_leaf(t0, {3, 37}), make_leaf(t0, {37})};
  const Tensor w = Tensor::randn({3, 37}, rng_);
  check_gradients(leaves, [&](Tape& tape) {
    return weighted_sum(tape, ops::rms_norm(tape, leaves[0], leaves[1]), w);
  });
}

TEST_F(OpGradients, SwiGlu) {
  Tape t0;
  std::vector<Var> leaves{make_leaf(t0, {3, 11}), make_leaf(t0, {3, 11})};
  const Tensor w = Tensor::randn({3, 11}, rng_);
  check_gradients(leaves, [&](Tape& tape) {
    return weighted_sum(tape, ops::swiglu(tape, leaves[0], leaves[1]), w);
  });
}

TEST_F(OpGradients, Activations) {
  for (auto op : {&ops::gelu, &ops::silu, &ops::sigmoid, &ops::tanh_act}) {
    Tape t0;
    std::vector<Var> leaves{make_leaf(t0, {2, 5})};
    const Tensor w = Tensor::randn({2, 5}, rng_);
    check_gradients(leaves, [&](Tape& tape) {
      return weighted_sum(tape, op(tape, leaves[0]), w);
    });
  }
}

TEST_F(OpGradients, ReluAwayFromKink) {
  Tape t0;
  // Keep inputs away from zero so finite differences are valid.
  Tensor init = Tensor::randn({2, 5}, rng_);
  for (std::int64_t i = 0; i < init.numel(); ++i) {
    if (std::fabs(init[i]) < 0.2f) init[i] = 0.5f;
  }
  std::vector<Var> leaves{t0.leaf(init, true)};
  const Tensor w = Tensor::randn({2, 5}, rng_);
  check_gradients(leaves, [&](Tape& tape) {
    return weighted_sum(tape, ops::relu(tape, leaves[0]), w);
  });
}

TEST_F(OpGradients, Rope) {
  Tape t0;
  std::vector<Var> leaves{make_leaf(t0, {2, 3, 2, 4})};
  const Tensor w = Tensor::randn({2, 3, 2, 4}, rng_);
  check_gradients(leaves, [&](Tape& tape) {
    return weighted_sum(tape, ops::rope(tape, leaves[0]), w);
  });
}

TEST_F(OpGradients, RopePartialRotation) {
  Tape t0;
  std::vector<Var> leaves{make_leaf(t0, {1, 4, 1, 8})};
  const Tensor w = Tensor::randn({1, 4, 1, 8}, rng_);
  check_gradients(leaves, [&](Tape& tape) {
    return weighted_sum(tape,
                        ops::rope(tape, leaves[0], 10000.0f,
                                  /*rotary_fraction=*/0.5f),
                        w);
  });
}

TEST_F(OpGradients, AttentionMaterialized) {
  Tape t0;
  std::vector<Var> leaves{make_leaf(t0, {1, 4, 2, 3}, 0.5f),
                          make_leaf(t0, {1, 4, 2, 3}, 0.5f),
                          make_leaf(t0, {1, 4, 2, 3}, 0.5f)};
  const Tensor w = Tensor::randn({1, 4, 2, 3}, rng_);
  check_gradients(leaves, [&](Tape& tape) {
    return weighted_sum(tape,
                        ops::attention(tape, leaves[0], leaves[1], leaves[2],
                                       /*causal=*/true, /*flash=*/false),
                        w);
  });
}

TEST_F(OpGradients, AttentionFlash) {
  Tape t0;
  std::vector<Var> leaves{make_leaf(t0, {1, 4, 2, 3}, 0.5f),
                          make_leaf(t0, {1, 4, 2, 3}, 0.5f),
                          make_leaf(t0, {1, 4, 2, 3}, 0.5f)};
  const Tensor w = Tensor::randn({1, 4, 2, 3}, rng_);
  check_gradients(leaves, [&](Tape& tape) {
    return weighted_sum(tape,
                        ops::attention(tape, leaves[0], leaves[1], leaves[2],
                                       /*causal=*/true, /*flash=*/true),
                        w);
  });
}

TEST_F(OpGradients, AttentionNonCausal) {
  Tape t0;
  std::vector<Var> leaves{make_leaf(t0, {1, 3, 1, 4}, 0.5f),
                          make_leaf(t0, {1, 3, 1, 4}, 0.5f),
                          make_leaf(t0, {1, 3, 1, 4}, 0.5f)};
  const Tensor w = Tensor::randn({1, 3, 1, 4}, rng_);
  check_gradients(leaves, [&](Tape& tape) {
    return weighted_sum(tape,
                        ops::attention(tape, leaves[0], leaves[1], leaves[2],
                                       /*causal=*/false, /*flash=*/true),
                        w);
  });
}

TEST_F(OpGradients, CrossEntropy) {
  Tape t0;
  std::vector<Var> leaves{make_leaf(t0, {4, 5})};
  const std::vector<std::int32_t> targets{0, 3, 2, 4};
  check_gradients(leaves, [&](Tape& tape) {
    return ops::cross_entropy(tape, leaves[0], targets);
  });
}

TEST_F(OpGradients, CrossEntropyIgnoreIndex) {
  Tape t0;
  std::vector<Var> leaves{make_leaf(t0, {4, 5})};
  const std::vector<std::int32_t> targets{0, -1, 2, -1};
  check_gradients(leaves, [&](Tape& tape) {
    return ops::cross_entropy(tape, leaves[0], targets, -1);
  });
}

TEST_F(OpGradients, MseLoss) {
  Tape t0;
  std::vector<Var> leaves{make_leaf(t0, {6})};
  const std::vector<float> targets{0.5f, -1.0f, 2.0f, 0.0f, 1.0f, -0.5f};
  check_gradients(leaves, [&](Tape& tape) {
    return ops::mse_loss(tape, leaves[0], targets);
  });
}

// ---- tape mechanics ---------------------------------------------------------

TEST(Tape, GradAccumulatesAcrossFanOut) {
  Tape tape;
  Var x = tape.leaf(Tensor::from_data({1}, {3.0f}), true);
  Var y = ops::add(tape, x, x);  // y = 2x
  Var loss = ops::sum_all(tape, y);
  tape.backward(loss);
  EXPECT_FLOAT_EQ(x.grad()[0], 2.0f);
}

TEST(Tape, NoGradGuardSkipsRecording) {
  Tape tape;
  Var x = tape.leaf(Tensor::from_data({1}, {2.0f}), true);
  {
    NoGradGuard guard(tape);
    Var y = ops::scale(tape, x, 3.0f);
    EXPECT_FALSE(y.requires_grad());
  }
  EXPECT_EQ(tape.op_count(), 0u);
  EXPECT_TRUE(tape.recording());
}

TEST(Tape, BackwardRequiresScalarLoss) {
  Tape tape;
  Var x = tape.leaf(Tensor::from_data({2}, {1.0f, 2.0f}), true);
  Var y = ops::scale(tape, x, 2.0f);
  EXPECT_THROW(tape.backward(y), Error);
}

TEST(Tape, LeafWithoutGradGetsNone) {
  Tape tape;
  Var a = tape.leaf(Tensor::from_data({2}, {1, 2}), false);
  Var b = tape.leaf(Tensor::from_data({2}, {3, 4}), true);
  Var loss = ops::sum_all(tape, ops::mul(tape, a, b));
  tape.backward(loss);
  EXPECT_FALSE(a.grad().defined());
  ASSERT_TRUE(b.grad().defined());
  EXPECT_FLOAT_EQ(b.grad()[0], 1.0f);
}

// ---- flash vs. materialized equivalence ------------------------------------

class FlashEquivalence
    : public ::testing::TestWithParam<std::tuple<int, int, int, bool>> {};

TEST_P(FlashEquivalence, ForwardAndBackwardMatch) {
  const auto [t, h, d, causal] = GetParam();
  Rng rng(99);
  Tensor q0 = Tensor::randn({2, t, h, d}, rng);
  Tensor k0 = Tensor::randn({2, t, h, d}, rng);
  Tensor v0 = Tensor::randn({2, t, h, d}, rng);
  const Tensor w = Tensor::randn({2, t, h, d}, rng);

  auto run = [&](bool flash) {
    Tape tape;
    Var q = tape.leaf(q0.clone(), true);
    Var k = tape.leaf(k0.clone(), true);
    Var v = tape.leaf(v0.clone(), true);
    Var out = ops::attention(tape, q, k, v, causal, flash);
    Var loss = weighted_sum(tape, out, w);
    tape.backward(loss);
    return std::make_tuple(out.value().clone(), q.grad().clone(),
                           k.grad().clone(), v.grad().clone());
  };
  const auto [o_m, qg_m, kg_m, vg_m] = run(false);
  const auto [o_f, qg_f, kg_f, vg_f] = run(true);
  for (std::int64_t i = 0; i < o_m.numel(); ++i) {
    EXPECT_NEAR(o_m[i], o_f[i], 1e-4) << "output " << i;
    EXPECT_NEAR(qg_m[i], qg_f[i], 1e-3) << "dq " << i;
    EXPECT_NEAR(kg_m[i], kg_f[i], 1e-3) << "dk " << i;
    EXPECT_NEAR(vg_m[i], vg_f[i], 1e-3) << "dv " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, FlashEquivalence,
    ::testing::Values(std::make_tuple(1, 1, 4, true),
                      std::make_tuple(5, 2, 3, true),
                      std::make_tuple(8, 1, 8, true),
                      std::make_tuple(8, 4, 2, false),
                      std::make_tuple(16, 2, 4, true)));

TEST(FlashMemory, FlashUsesLessActivationMemory) {
  // The structural claim behind Fig. 5: materialized attention allocates the
  // [B, H, T, T] probability tensor, flash only the [B, H, T] logsumexp.
  Rng rng(7);
  const int t = 64;
  Tensor q0 = Tensor::randn({1, t, 2, 8}, rng);
  auto peak_for = [&](bool flash) {
    auto& tracker = MemoryTracker::instance();
    tracker.reset_peak();
    const std::size_t before = tracker.current_bytes();
    Tape tape;
    Var q = tape.leaf(q0.clone(), true);
    Var k = tape.leaf(q0.clone(), true);
    Var v = tape.leaf(q0.clone(), true);
    Var out = ops::attention(tape, q, k, v, true, flash);
    Var loss = ops::sum_all(tape, out);
    tape.backward(loss);
    return tracker.peak_bytes() - before;
  };
  const std::size_t peak_materialized = peak_for(false);
  const std::size_t peak_flash = peak_for(true);
  // Materialized stores 2*T*T floats (probs tensor); flash stores 2*T.
  EXPECT_GT(peak_materialized, peak_flash + t * t * 4u);
}

TEST(Dropout, MaskScalesAndZeroes) {
  Rng rng(3);
  Tape tape;
  Var x = tape.leaf(Tensor::full({1000}, 1.0f), true);
  Var y = ops::dropout(tape, x, 0.25f, rng, /*training=*/true);
  int zeros = 0;
  double sum = 0.0;
  for (std::int64_t i = 0; i < y.value().numel(); ++i) {
    const float v = y.value()[i];
    if (v == 0.0f) {
      ++zeros;
    } else {
      EXPECT_NEAR(v, 1.0f / 0.75f, 1e-6);
    }
    sum += v;
  }
  EXPECT_NEAR(zeros / 1000.0, 0.25, 0.05);
  EXPECT_NEAR(sum / 1000.0, 1.0, 0.1);  // inverted dropout preserves E[x]
}

TEST(Dropout, IdentityWhenNotTraining) {
  Rng rng(3);
  Tape tape;
  Var x = tape.leaf(Tensor::full({10}, 2.0f), true);
  Var y = ops::dropout(tape, x, 0.5f, rng, /*training=*/false);
  EXPECT_EQ(y.node().get(), x.node().get());
}

// ---- byte identity of the SIMD paths ----------------------------------------
//
// Each fused or vectorized op must produce exactly the bytes of the scalar
// loops it replaced. The references below are those loops, copied here so a
// change to the library cannot move both sides at once.

bool same_bytes(const Tensor& a, const Tensor& b) {
  return a.numel() == b.numel() &&
         std::memcmp(a.data(), b.data(), sizeof(float) * a.numel()) == 0;
}

/// Inputs with the values that make rounding and special cases show:
/// normal draws plus zeros of both signs, large magnitudes (exp overflow
/// and underflow) and tiny ones.
Tensor edgy(std::vector<std::int64_t> shape, Rng& rng, float stddev = 1.0f) {
  Tensor t = Tensor::randn(std::move(shape), rng, 0.0f, stddev);
  const float specials[] = {0.0f, -0.0f, 95.0f, -95.0f, 1e-30f, -3e-8f};
  for (std::int64_t i = 0; i < t.numel(); i += 7) {
    t[i] = specials[(i / 7) % 6];
  }
  return t;
}

TEST(SimdIdentity, SwiGluMatchesSiluTimesMul) {
  Rng rng(21);
  for (std::int64_t n : {1, 8, 37, 64, 203}) {
    const Tensor gate = edgy({n}, rng, 3.0f);
    const Tensor up = edgy({n}, rng);
    Var g = make_var(gate.clone(), true);
    Var u = make_var(up.clone(), true);
    // The reference is silu then mul, forward and backward: silu's grad is a
    // fresh zero tensor; the leaves' grads start at zero, and the second
    // backward adds into them. Each pass has its own upstream gradient, so
    // the second one adds a different term (adding a value to itself gives
    // the same bytes with or without a fused multiply-add).
    Tensor ref_out({n}), ref_gg({n}), ref_ug({n});
    for (int pass = 0; pass < 2; ++pass) {
      // weighted_sum(out, w) sends exactly w back to out.
      const Tensor w = Tensor::randn(gate.shape(), rng);
      Tape tape;
      Var out = ops::swiglu(tape, g, u);
      tape.backward(weighted_sum(tape, out, w));
      for (std::int64_t i = 0; i < n; ++i) {
        const float v = gate[i];
        const float y = v / (1.0f + std::exp(-v));
        ref_out[i] = y * up[i];
        float sg = 0.0f;
        sg += w[i] * up[i];
        ref_ug[i] += w[i] * y;
        const float s = 1.0f / (1.0f + std::exp(-v));
        ref_gg[i] += sg * (s * (1.0f + v * (1.0f - s)));
      }
      EXPECT_TRUE(same_bytes(out.value(), ref_out)) << "forward n=" << n;
      EXPECT_TRUE(same_bytes(g.grad(), ref_gg))
          << "gate grad n=" << n << " pass " << pass;
      EXPECT_TRUE(same_bytes(u.grad(), ref_ug))
          << "up grad n=" << n << " pass " << pass;
    }

    Tape eval;
    NoGradGuard guard(eval);
    EXPECT_TRUE(same_bytes(
        ops::swiglu(eval, eval.leaf(gate.clone(), false),
                    eval.leaf(up.clone(), false)).value(),
        ref_out))
        << "no-grad forward n=" << n;
  }
}

TEST(SimdIdentity, CrossEntropyBackwardMatchesReferenceLoop) {
  Rng rng(24);
  const std::int64_t n = 5;
  const std::int64_t v = 37;
  const Tensor logits = edgy({n, v}, rng, 4.0f);
  const std::vector<std::int32_t> targets{3, -1, 0, 36, 17};
  Var z = make_var(logits.clone(), true);
  Tensor ref({n, v});
  for (int pass = 0; pass < 2; ++pass) {
    Tape tape;
    Var loss = ops::cross_entropy(tape, z, targets);
    tape.backward(loss);
    const float gscale = 1.0f / 4.0f;  // upstream 1, four valid rows
    for (std::int64_t r = 0; r < n; ++r) {
      const std::int32_t t = targets[static_cast<std::size_t>(r)];
      if (t == -1) continue;
      std::vector<float> p(logits.data() + r * v, logits.data() + (r + 1) * v);
      kernels::softmax_row(p.data(), v);
      for (std::int64_t c = 0; c < v; ++c) {
        const float delta = (c == t) ? 1.0f : 0.0f;
        ref[r * v + c] += gscale * (p[static_cast<std::size_t>(c)] - delta);
      }
    }
    EXPECT_TRUE(same_bytes(z.grad(), ref)) << "pass " << pass;
  }
}

TEST(SimdIdentity, RmsNormMatchesScalarLoops) {
  Rng rng(22);
  for (std::int64_t cols : {1, 5, 8, 37, 64}) {
    const std::int64_t rows = 5;
    Tensor x = edgy({rows, cols}, rng);
    Tensor gamma = Tensor::randn({cols}, rng, 1.0f, 0.3f);
    Tensor w = Tensor::randn(x.shape(), rng);
    if (cols >= 4) {
      // Row 0's backward dot product has two terms of ±2^54 * gamma[0]
      // that cancel, so its value depends on the order of its additions;
      // w[3] = 0 passes that value straight into x's grad at column 3.
      const float big = 134217728.0f;  // 2^27
      x[0] = big;
      x[1] = big;
      gamma[1] = gamma[0];
      w[0] = big;
      w[1] = -big;
      w[3] = 0.0f;
    }
    const float eps = 1e-6f;
    Tape tape;
    Var xv = tape.leaf(x.clone(), true);
    Var gv = tape.leaf(gamma.clone(), true);
    Var out = ops::rms_norm(tape, xv, gv, eps);
    tape.backward(weighted_sum(tape, out, w));

    Tensor ref_out({rows, cols}), ref_xg({rows, cols}), ref_gg({cols});
    std::vector<float> ir(static_cast<std::size_t>(rows));
    for (std::int64_t r = 0; r < rows; ++r) {
      const float* row = x.data() + r * cols;
      double ms = 0.0;
      for (std::int64_t c = 0; c < cols; ++c) {
        ms += static_cast<double>(row[c]) * row[c];
      }
      ms = ms / static_cast<double>(cols) + eps;
      const auto inv = static_cast<float>(1.0 / std::sqrt(ms));
      ir[static_cast<std::size_t>(r)] = inv;
      for (std::int64_t c = 0; c < cols; ++c) {
        ref_out[r * cols + c] = gamma[c] * row[c] * inv;
      }
    }
    const float* g = w.data();
    const float* src = x.data();
    for (std::int64_t r = 0; r < rows; ++r) {
      for (std::int64_t c = 0; c < cols; ++c) {
        ref_gg[c] += g[r * cols + c] * src[r * cols + c] *
                     ir[static_cast<std::size_t>(r)];
      }
    }
    for (std::int64_t r = 0; r < rows; ++r) {
      const float irr = ir[static_cast<std::size_t>(r)];
      double dot = 0.0;
      for (std::int64_t c = 0; c < cols; ++c) {
        dot += static_cast<double>(g[r * cols + c]) * gamma[c] *
               src[r * cols + c];
      }
      const double coeff = dot * irr * irr / static_cast<double>(cols);
      for (std::int64_t c = 0; c < cols; ++c) {
        const double dxh = static_cast<double>(g[r * cols + c]) * gamma[c];
        ref_xg[r * cols + c] += static_cast<float>(
            irr * (dxh - src[r * cols + c] * coeff));
      }
    }
    EXPECT_TRUE(same_bytes(out.value(), ref_out)) << "forward cols=" << cols;
    EXPECT_TRUE(same_bytes(xv.grad(), ref_xg)) << "x grad cols=" << cols;
    EXPECT_TRUE(same_bytes(gv.grad(), ref_gg)) << "gamma grad cols=" << cols;
  }
}

// The reference attention dot product: with AVX2+FMA, eight FMA
// lanes reduced (0+4 .. 3+7), then (0+2, 1+3), then (0+1), then a scalar
// fmaf tail; without it, a sequential sum.
float ref_dot(const float* a, const float* b, std::int64_t d) {
  if (!kernels::gemm_simd_active()) {
    float acc = 0.0f;
    for (std::int64_t i = 0; i < d; ++i) acc += a[i] * b[i];
    return acc;
  }
  float lane[8] = {};
  std::int64_t i = 0;
  for (; i + 8 <= d; i += 8) {
    for (int j = 0; j < 8; ++j) lane[j] = std::fmaf(a[i + j], b[i + j], lane[j]);
  }
  float q[4];
  for (int j = 0; j < 4; ++j) q[j] = lane[j] + lane[j + 4];
  const float r0 = q[0] + q[2];
  const float r1 = q[1] + q[3];
  float out = r0 + r1;
  for (; i < d; ++i) out = std::fmaf(a[i], b[i], out);
  return out;
}

struct AttnRef {
  Tensor out, qg, kg, vg;
};

/// The reference flash forward (online softmax per query row) and
/// recomputation backward, loop for loop. q is [B, T, H, D]; k and v are
/// [B, Tk, Hkv, D]; dy is the gradient arriving at the output.
AttnRef ref_flash(const Tensor& q, const Tensor& k, const Tensor& v,
                  const Tensor& dy, bool causal) {
  const std::int64_t B = q.dim(0), T = q.dim(1), H = q.dim(2), D = q.dim(3);
  const std::int64_t TK = k.dim(1), HKV = k.dim(2);
  const std::int64_t group = H / HKV;
  const float scl = 1.0f / std::sqrt(static_cast<float>(D));
  const auto qoff = [&](std::int64_t b, std::int64_t t, std::int64_t h) {
    return ((b * T + t) * H + h) * D;
  };
  const auto koff = [&](std::int64_t b, std::int64_t t, std::int64_t h) {
    return ((b * TK + t) * HKV + h) * D;
  };
  AttnRef r{Tensor(q.shape()), Tensor(q.shape()), Tensor(k.shape()),
            Tensor(v.shape())};
  std::vector<float> lse(static_cast<std::size_t>(B * H * T));
  std::vector<float> acc(static_cast<std::size_t>(D));
  for (std::int64_t b = 0; b < B; ++b) {
    for (std::int64_t h = 0; h < H; ++h) {
      const std::int64_t hkv = h / group;
      for (std::int64_t tq = 0; tq < T; ++tq) {
        const std::int64_t limit = causal ? tq + 1 : TK;
        const float* qv = q.data() + qoff(b, tq, h);
        float m = -std::numeric_limits<float>::infinity();
        double l = 0.0;
        std::fill(acc.begin(), acc.end(), 0.0f);
        for (std::int64_t tk = 0; tk < limit; ++tk) {
          const float sc = scl * ref_dot(qv, k.data() + koff(b, tk, hkv), D);
          if (sc > m) {
            const float rescale = std::exp(m - sc);
            for (float& a : acc) a *= rescale;
            l *= rescale;
            m = sc;
          }
          const float wgt = std::exp(sc - m);
          l += wgt;
          const float* vv = v.data() + koff(b, tk, hkv);
          for (std::int64_t i = 0; i < D; ++i) {
            acc[static_cast<std::size_t>(i)] =
                std::fmaf(wgt, vv[i], acc[static_cast<std::size_t>(i)]);
          }
        }
        const auto inv = static_cast<float>(1.0 / l);
        float* o = r.out.data() + qoff(b, tq, h);
        for (std::int64_t i = 0; i < D; ++i) {
          o[i] = acc[static_cast<std::size_t>(i)] * inv;
        }
        lse[static_cast<std::size_t>((b * H + h) * T + tq)] =
            m + static_cast<float>(std::log(l));
      }
    }
  }
  for (std::int64_t b = 0; b < B; ++b) {
    for (std::int64_t h = 0; h < H; ++h) {
      const std::int64_t hkv = h / group;
      for (std::int64_t tq = 0; tq < T; ++tq) {
        const std::int64_t limit = causal ? tq + 1 : TK;
        const float* qv = q.data() + qoff(b, tq, h);
        const float* gv = dy.data() + qoff(b, tq, h);
        const float* ov = r.out.data() + qoff(b, tq, h);
        const float row_lse = lse[static_cast<std::size_t>((b * H + h) * T + tq)];
        const float row_dot = ref_dot(gv, ov, D);
        float* qgv = r.qg.data() + qoff(b, tq, h);
        for (std::int64_t tk = 0; tk < limit; ++tk) {
          const float* kv = k.data() + koff(b, tk, hkv);
          const float* vv = v.data() + koff(b, tk, hkv);
          const float p = std::exp(scl * ref_dot(qv, kv, D) - row_lse);
          const float dp = ref_dot(gv, vv, D);
          const float ds = p * (dp - row_dot);
          float* kgv = r.kg.data() + koff(b, tk, hkv);
          float* vgv = r.vg.data() + koff(b, tk, hkv);
          for (std::int64_t i = 0; i < D; ++i) {
            qgv[i] += scl * ds * kv[i];
            kgv[i] += scl * ds * qv[i];
            vgv[i] += p * gv[i];
          }
        }
      }
    }
  }
  return r;
}

// (T, Tk, H, Hkv, D, causal): T = 1, T past one and two key blocks of 16,
// D below, at and off the 8-lane width, GQA groups of 2 and 3.
class FlashIdentity
    : public ::testing::TestWithParam<
          std::tuple<int, int, int, int, int, bool>> {};

TEST_P(FlashIdentity, ForwardAndBackwardMatchReferenceLoops) {
  const auto [t, tk, h, hkv, d, causal] = GetParam();
  Rng rng(static_cast<std::uint64_t>(t * 131 + d * 7 + h));
  const Tensor q0 = Tensor::randn({2, t, h, d}, rng);
  const Tensor k0 = Tensor::randn({2, tk, hkv, d}, rng);
  const Tensor v0 = Tensor::randn({2, tk, hkv, d}, rng);
  const Tensor w = Tensor::randn({2, t, h, d}, rng);
  Tape tape;
  Var q = tape.leaf(q0.clone(), true);
  Var k = tape.leaf(k0.clone(), true);
  Var v = tape.leaf(v0.clone(), true);
  Var out = ops::attention(tape, q, k, v, causal, /*flash=*/true);
  tape.backward(weighted_sum(tape, out, w));
  const AttnRef ref = ref_flash(q0, k0, v0, w, causal);
  EXPECT_TRUE(same_bytes(out.value(), ref.out)) << "forward";
  EXPECT_TRUE(same_bytes(q.grad(), ref.qg)) << "dQ";
  EXPECT_TRUE(same_bytes(k.grad(), ref.kg)) << "dK";
  EXPECT_TRUE(same_bytes(v.grad(), ref.vg)) << "dV";
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, FlashIdentity,
    ::testing::Values(std::make_tuple(1, 1, 2, 2, 32, true),
                      std::make_tuple(1, 9, 2, 1, 32, false),
                      std::make_tuple(32, 32, 2, 2, 32, true),
                      std::make_tuple(37, 37, 4, 2, 12, true),
                      std::make_tuple(21, 21, 3, 1, 20, true),
                      std::make_tuple(17, 40, 6, 2, 8, false),
                      std::make_tuple(5, 5, 2, 2, 3, false)));

TEST(SimdIdentity, SoftmaxRowMatchesReferenceLoop) {
  const float nan = std::numeric_limits<float>::quiet_NaN();
  const float inf = std::numeric_limits<float>::infinity();
  Rng rng(25);
  std::vector<std::vector<float>> rows;
  // A zero maximum met as -0 first and as +0 later, and the reverse.
  rows.push_back({-1.0f, -0.0f, -3.0f, 0.0f, -2.0f, -0.5f, -7.0f, -1.0f,
                  -4.0f, 0.0f, -0.0f, -9.0f});
  rows.push_back({-1.0f, 0.0f, -3.0f, -0.0f, -2.0f, -0.5f, -7.0f, -1.0f,
                  -4.0f, -0.0f, 0.0f, -9.0f, -0.25f});
  rows.push_back({nan, 1.0f, 2.0f, 3.0f, 4.0f, 5.0f, 6.0f, 7.0f, 8.0f, 9.0f});
  rows.push_back({1.0f, nan, 2.0f, 3.0f, 4.0f, 5.0f, 6.0f, 7.0f, 8.0f, 9.0f});
  rows.push_back({-inf, -inf, -inf, -inf, -inf, -inf, -inf, -inf, -inf});
  rows.push_back({1.0f, inf, 2.0f, 3.0f, 4.0f, 5.0f, 6.0f, 7.0f, 8.0f, -inf});
  const Tensor r = edgy({513}, rng, 6.0f);
  rows.emplace_back(r.data(), r.data() + r.numel());
  for (std::size_t k = 0; k < rows.size(); ++k) {
    std::vector<float> ref = rows[k];
    const auto n = static_cast<std::int64_t>(ref.size());
    float mx = ref[0];
    for (std::int64_t i = 1; i < n; ++i) mx = std::max(mx, ref[static_cast<std::size_t>(i)]);
    double denom = 0.0;
    for (float& x : ref) {
      x = std::exp(x - mx);
      denom += x;
    }
    const auto inv = static_cast<float>(1.0 / denom);
    for (float& x : ref) x *= inv;
    std::vector<float> got = rows[k];
    kernels::softmax_row(got.data(), n);
    EXPECT_EQ(std::memcmp(got.data(), ref.data(), sizeof(float) * ref.size()), 0)
        << "row " << k;
    for (std::int64_t t = 0; t < n; ++t) {
      const float p = kernels::softmax_prob(rows[k].data(), n, t);
      EXPECT_EQ(std::memcmp(&p, &ref[static_cast<std::size_t>(t)], sizeof(float)), 0)
          << "row " << k << " target " << t;
    }
  }
}

TEST(SimdIdentity, NoGradCrossEntropyMatchesTheGradPath) {
  Rng rng(23);
  const Tensor logits = edgy({6, 37}, rng, 4.0f);
  const std::vector<std::int32_t> targets{0, 36, -1, 5, 12, 36};
  Tape train;
  const float with_grad =
      ops::cross_entropy(train, train.leaf(logits.clone(), true), targets)
          .item();
  Tape eval;
  NoGradGuard guard(eval);
  const float without =
      ops::cross_entropy(eval, eval.leaf(logits.clone(), true), targets)
          .item();
  EXPECT_EQ(std::memcmp(&with_grad, &without, sizeof(float)), 0);
}

TEST(Tensor, UninitializedIsNaNPoisonedInDebugBuilds) {
#ifdef NDEBUG
  GTEST_SKIP() << "poisoning is compiled into !NDEBUG builds only";
#else
  const Tensor t = Tensor::uninitialized({3, 5});
  for (std::int64_t i = 0; i < t.numel(); ++i) EXPECT_TRUE(std::isnan(t[i]));
#endif
}

}  // namespace
}  // namespace matgpt
