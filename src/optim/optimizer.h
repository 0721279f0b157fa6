#pragma once
// Optimizers and learning-rate schedules.
//
// The paper's Table III trains with Adam (1M-token batches) and LAMB
// (4M-token batches); LAMB's layer-wise trust ratio is the mechanism that
// closes the large-batch generalization gap, which the loss-comparison bench
// (Fig. 13) reproduces. Optimizer state size (2 extra tensors for Adam/LAMB)
// also feeds the simulator's ZeRO memory model.

#include <cstdint>
#include <vector>

#include "nn/module.h"

namespace matgpt::optim {

/// Cosine decay with linear warmup; decays to final_fraction * base_lr.
/// Matches the paper's recipe: 1% warmup, final LR = 10% of initial.
class CosineSchedule {
 public:
  CosineSchedule(double base_lr, std::int64_t total_steps,
                 double warmup_fraction = 0.01, double final_fraction = 0.1);

  double lr(std::int64_t step) const;
  double base_lr() const { return base_lr_; }
  std::int64_t warmup_steps() const { return warmup_steps_; }

 private:
  double base_lr_;
  std::int64_t total_steps_;
  std::int64_t warmup_steps_;
  double final_fraction_;
};

/// Shared optimizer interface over a fixed parameter list.
class Optimizer {
 public:
  explicit Optimizer(std::vector<nn::NamedParam> params);
  virtual ~Optimizer() = default;
  Optimizer(const Optimizer&) = delete;
  Optimizer& operator=(const Optimizer&) = delete;

  /// Apply one update with the given learning rate. Parameters without an
  /// accumulated gradient are skipped.
  virtual void step(double lr) = 0;

  /// Scale all gradients so the global L2 norm is at most max_norm.
  /// Returns the pre-clip norm.
  ///
  /// Adam and LAMB defer the scale to their next step(), which multiplies
  /// each gradient as it reads it (the same float multiply, so the same
  /// bytes) and stores the scaled gradient back: one pass over the
  /// gradients instead of two. Until that step() the gradients read
  /// unscaled. A gradient replaced in the meantime (the model's grads
  /// dropped and recomputed) is not scaled.
  double clip_grad_norm(double max_norm);

  void zero_grad();

  /// Bytes of optimizer state per parameter, at the accelerator dtype width
  /// given (feeds the ZeRO memory model: Adam/LAMB keep m and v in fp32).
  virtual double state_bytes_per_param() const = 0;

  const std::vector<nn::NamedParam>& params() const { return params_; }

 protected:
  /// Whether step() applies a pending clip scale itself.
  virtual bool fuses_clip() const { return false; }
  /// The clip scale step() must apply to parameter i's gradient `g`: 1
  /// when none is pending for that gradient.
  float clip_scale_for(std::size_t i, const Tensor& g) const;
  /// Drops any pending clip scale (after a step()).
  void clear_clip() { clipped_.clear(); }

  std::vector<nn::NamedParam> params_;

 private:
  /// The gradients a deferred clip covers (shared handles, so a storage
  /// cannot be freed and its address reused before step() compares it).
  std::vector<Tensor> clipped_;
  float clip_scale_ = 1.0f;
};

struct SgdConfig {
  double momentum = 0.0;
  double weight_decay = 0.0;
};

class Sgd : public Optimizer {
 public:
  Sgd(std::vector<nn::NamedParam> params, SgdConfig config = {});
  void step(double lr) override;
  double state_bytes_per_param() const override {
    return config_.momentum != 0.0 ? 4.0 : 0.0;
  }

 private:
  SgdConfig config_;
  std::vector<Tensor> velocity_;
};

struct AdamConfig {
  double beta1 = 0.9;
  double beta2 = 0.95;  // the paper's Adam recipe (Table III)
  double eps = 1e-8;
  double weight_decay = 0.0;  // decoupled (AdamW-style)
};

class Adam : public Optimizer {
 public:
  Adam(std::vector<nn::NamedParam> params, AdamConfig config = {});
  void step(double lr) override;
  double state_bytes_per_param() const override { return 8.0; }  // m + v fp32

 protected:
  bool fuses_clip() const override { return true; }

  AdamConfig config_;
  std::int64_t t_ = 0;
  std::vector<Tensor> m_;
  std::vector<Tensor> v_;
};

struct LambConfig {
  double beta1 = 0.9;
  double beta2 = 0.999;  // the paper's LAMB recipe (Table III)
  double eps = 1e-6;
  double weight_decay = 0.1;  // the paper's weight decay
  /// Trust-ratio clamp (phi in the LAMB paper).
  double max_trust_ratio = 10.0;
  /// When false the trust ratio is forced to 1, degrading LAMB to AdamW —
  /// the ablation knob for the large-batch study.
  bool use_trust_ratio = true;
};

/// LAMB (You et al.): Adam update direction rescaled per parameter tensor by
/// ||w|| / ||update||, which keeps effective step sizes uniform across layers
/// at very large batch sizes.
class Lamb : public Optimizer {
 public:
  Lamb(std::vector<nn::NamedParam> params, LambConfig config = {});
  void step(double lr) override;
  double state_bytes_per_param() const override { return 8.0; }

  /// Trust ratios computed at the most recent step (observability/tests).
  const std::vector<double>& last_trust_ratios() const {
    return last_trust_ratios_;
  }

 private:
  bool fuses_clip() const override { return true; }

  LambConfig config_;
  std::int64_t t_ = 0;
  std::vector<Tensor> m_;
  std::vector<Tensor> v_;
  std::vector<double> last_trust_ratios_;
};

}  // namespace matgpt::optim
