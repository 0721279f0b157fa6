#include "tensor/autograd.h"

#include "common/error.h"
#include "tensor/kernels.h"

namespace matgpt {

Tensor& VarNode::ensure_grad() {
  if (!grad.defined()) grad = Tensor::zeros(value.shape());
  return grad;
}

Tensor& VarNode::grad_for_kernel(bool& accumulate) {
  accumulate = grad.defined();
  if (!accumulate) grad = Tensor::uninitialized(value.shape());
  return grad;
}

void VarNode::accumulate(const Tensor& g) {
  if (!requires_grad) return;
  MGPT_CHECK(g.numel() == value.numel(),
             "gradient numel mismatch: " << g.shape_str() << " vs "
                                         << value.shape_str());
  if (grad.defined()) {
    grad.add_(g);
    return;
  }
  // A first gradient: the bytes of zeros += g (0 + g, which turns a -0
  // into +0) without the zero-fill.
  grad = Tensor::uninitialized(value.shape());
  kernels::add_scaled(grad.data(), g.data(), 1.0f, grad.numel(),
                      /*overwrite=*/true);
}

void VarNode::zero_grad() { grad = Tensor(); }

float Var::item() const {
  MGPT_CHECK(defined(), "item() on undefined Var");
  MGPT_CHECK(node_->value.numel() == 1, "item() requires a scalar Var");
  return node_->value[0];
}

Var make_var(Tensor value, bool requires_grad) {
  auto node = std::make_shared<VarNode>();
  node->value = std::move(value);
  node->requires_grad = requires_grad;
  return Var(std::move(node));
}

Var Tape::leaf(Tensor value, bool requires_grad) {
  auto node = std::make_shared<VarNode>();
  node->value = std::move(value);
  node->requires_grad = requires_grad;
  return Var(std::move(node));
}

Var Tape::intermediate(Tensor value, bool requires_grad) {
  return leaf(std::move(value), requires_grad && recording_);
}

void Tape::record(std::function<void()> backward_fn) {
  if (recording_) ops_.push_back(std::move(backward_fn));
}

void Tape::backward(const Var& loss) {
  MGPT_CHECK(loss.defined(), "backward on undefined loss");
  MGPT_CHECK(loss.value().numel() == 1, "backward requires a scalar loss");
  MGPT_CHECK(loss.requires_grad(),
             "loss does not require grad (was the tape recording?)");
  loss.node()->ensure_grad().fill_(1.0f);
  for (auto it = ops_.rbegin(); it != ops_.rend(); ++it) (*it)();
}

}  // namespace matgpt
