// Google-benchmark microbenchmarks of the CPU engine's hot kernels: the
// blocked GEMM variants, flash vs. materialized attention (forward and
// forward+backward), the fused cross-entropy, pretrain's element-wise ops
// (SwiGLU, RMSNorm) and its Adam step — the on-engine analog of the
// paper's kernel-level analysis (Fig. 10).

#include <benchmark/benchmark.h>
#include <time.h>

#include "common/rng.h"
#include "nn/gpt.h"
#include "optim/optimizer.h"
#include "parallel/thread_pool.h"
#include "tensor/kernels.h"
#include "tensor/ops.h"

namespace {

using namespace matgpt;

void BM_GemmNN(benchmark::State& state) {
  const auto n = static_cast<std::int64_t>(state.range(0));
  Rng rng(1);
  Tensor a = Tensor::randn({n, n}, rng);
  Tensor b = Tensor::randn({n, n}, rng);
  Tensor c({n, n});
  for (auto _ : state) {
    kernels::gemm_nn(a.data(), b.data(), c.data(), n, n, n, false);
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(state.iterations() * 2 * n * n * n);
}
BENCHMARK(BM_GemmNN)->Arg(32)->Arg(64)->Arg(128);

void BM_GemmNT(benchmark::State& state) {
  const auto n = static_cast<std::int64_t>(state.range(0));
  Rng rng(1);
  Tensor a = Tensor::randn({n, n}, rng);
  Tensor b = Tensor::randn({n, n}, rng);
  Tensor c({n, n});
  for (auto _ : state) {
    kernels::gemm_nt(a.data(), b.data(), c.data(), n, n, n, false);
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(state.iterations() * 2 * n * n * n);
}
BENCHMARK(BM_GemmNT)->Arg(64)->Arg(128);

void BM_GemmTN(benchmark::State& state) {
  const auto n = static_cast<std::int64_t>(state.range(0));
  Rng rng(1);
  Tensor a = Tensor::randn({n, n}, rng);
  Tensor b = Tensor::randn({n, n}, rng);
  Tensor c({n, n});
  for (auto _ : state) {
    kernels::gemm_tn(a.data(), b.data(), c.data(), n, n, n, false);
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(state.iterations() * 2 * n * n * n);
}
BENCHMARK(BM_GemmTN)->Arg(64)->Arg(128);

// One linear layer of the pretrain workload (8 sequences x 32 tokens) with
// weight W [in, out], as training runs it: the forward y = x W (gemm_nn),
// and the backward dX = dY W^T (gemm_nt) and dW += X^T dY (gemm_tn). Args
// are {in, out}. Timed in process CPU time, pool workers included, so
// items/s reads as FLOP per CPU-second.
constexpr std::int64_t kTrainTokens = 256;

enum class TrainGemm { kForward, kGradInput, kGradWeight };

void train_gemm(benchmark::State& state, TrainGemm which) {
  const auto in = static_cast<std::int64_t>(state.range(0));
  const auto out = static_cast<std::int64_t>(state.range(1));
  Rng rng(1);
  Tensor x = Tensor::randn({kTrainTokens, in}, rng);
  Tensor w = Tensor::randn({in, out}, rng);
  Tensor dy = Tensor::randn({kTrainTokens, out}, rng);
  Tensor y({kTrainTokens, out});
  Tensor dx({kTrainTokens, in});
  Tensor dw({in, out});
  for (auto _ : state) {
    switch (which) {
      case TrainGemm::kForward:
        kernels::gemm_nn(x.data(), w.data(), y.data(), kTrainTokens, out, in,
                         false);
        benchmark::DoNotOptimize(y.data());
        break;
      case TrainGemm::kGradInput:
        kernels::gemm_nt(dy.data(), w.data(), dx.data(), kTrainTokens, in, out,
                         false);
        benchmark::DoNotOptimize(dx.data());
        break;
      case TrainGemm::kGradWeight:
        kernels::gemm_tn(x.data(), dy.data(), dw.data(), in, out, kTrainTokens,
                         false);
        benchmark::DoNotOptimize(dw.data());
        break;
    }
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * 2 * kTrainTokens * in * out);
}

void BM_GemmNNTrain(benchmark::State& state) {
  train_gemm(state, TrainGemm::kForward);
}
void BM_GemmNTTrain(benchmark::State& state) {
  train_gemm(state, TrainGemm::kGradInput);
}
void BM_GemmTNTrain(benchmark::State& state) {
  train_gemm(state, TrainGemm::kGradWeight);
}

// Pretrain's {in, out} linear shapes: attention projections, MLP up and
// down, and the LM head.
void pretrain_linear_shapes(benchmark::internal::Benchmark* b) {
  b->Args({64, 64})->Args({64, 176})->Args({176, 64})->Args({64, 512});
  b->MeasureProcessCPUTime();
}
BENCHMARK(BM_GemmNNTrain)->Apply(pretrain_linear_shapes);
BENCHMARK(BM_GemmNTTrain)->Apply(pretrain_linear_shapes);
BENCHMARK(BM_GemmTNTrain)->Apply(pretrain_linear_shapes);

double process_cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

// A dependent multiply-add chain of `steps` links: fixed CPU work that
// neither vectorizes nor touches memory.
float mac_chain(std::int64_t steps, float x) {
  for (std::int64_t i = 0; i < steps; ++i) x = x * 0.999999f + 1e-6f;
  return x;
}

// The fork-join's own cost: one ThreadPool::global().parallel_for over
// range(0) chunks whose body runs a range(1)-step mac_chain per chunk (0 =
// an empty body), in process CPU time, helpers included. The counter
// dispatch_cpu_us is CPU per call minus the chunks' own serial CPU: with
// an empty body the caller claims every chunk before a helper is up, and
// with a real body each helper also sleeps and wakes once per call.
// kernels::kMinChunkMacs is sized against the second number.
void BM_ParallelForDispatch(benchmark::State& state) {
  const auto chunks = static_cast<std::size_t>(state.range(0));
  const std::int64_t steps = state.range(1);
  auto& pool = ThreadPool::global();
  const float seed = static_cast<float>(chunks) * 1e-3f;
  const auto body = [&](std::size_t lo, std::size_t hi) {
    for (std::size_t c = lo; c < hi; ++c) {
      benchmark::DoNotOptimize(mac_chain(steps, seed));
    }
  };
  constexpr int kSerialReps = 64;
  const double serial0 = process_cpu_s();
  for (int r = 0; r < kSerialReps; ++r) body(0, 1);
  const double chunk_cpu = (process_cpu_s() - serial0) / kSerialReps;
  const double cpu0 = process_cpu_s();
  for (auto _ : state) pool.parallel_for(0, chunks, body, chunks);
  const double per_call = (process_cpu_s() - cpu0) /
                          static_cast<double>(state.iterations());
  state.counters["dispatch_cpu_us"] =
      1e6 * (per_call - static_cast<double>(chunks) * chunk_cpu);
}
BENCHMARK(BM_ParallelForDispatch)
    ->ArgsProduct({{1, 2, 3, 4}, {0, 30000}})
    ->MeasureProcessCPUTime();

void attention_forward(benchmark::State& state, bool flash) {
  const auto t = static_cast<std::int64_t>(state.range(0));
  Rng rng(2);
  Tensor q0 = Tensor::randn({1, t, 4, 16}, rng);
  Tensor k0 = Tensor::randn({1, t, 4, 16}, rng);
  Tensor v0 = Tensor::randn({1, t, 4, 16}, rng);
  for (auto _ : state) {
    Tape tape;
    tape.set_recording(false);
    Var q = tape.leaf(q0, false);
    Var k = tape.leaf(k0, false);
    Var v = tape.leaf(v0, false);
    Var out = ops::attention(tape, q, k, v, true, flash);
    benchmark::DoNotOptimize(out.value().data());
  }
}
void BM_AttentionMaterializedFwd(benchmark::State& state) {
  attention_forward(state, false);
}
void BM_AttentionFlashFwd(benchmark::State& state) {
  attention_forward(state, true);
}
BENCHMARK(BM_AttentionMaterializedFwd)->Arg(64)->Arg(128)->Arg(256);
BENCHMARK(BM_AttentionFlashFwd)->Arg(64)->Arg(128)->Arg(256);

void attention_train(benchmark::State& state, bool flash) {
  const auto t = static_cast<std::int64_t>(state.range(0));
  Rng rng(2);
  Tensor q0 = Tensor::randn({1, t, 4, 16}, rng);
  for (auto _ : state) {
    Tape tape;
    Var q = tape.leaf(q0.clone(), true);
    Var k = tape.leaf(q0.clone(), true);
    Var v = tape.leaf(q0.clone(), true);
    Var out = ops::attention(tape, q, k, v, true, flash);
    Var loss = ops::sum_all(tape, out);
    tape.backward(loss);
    benchmark::DoNotOptimize(q.grad().data());
  }
}
void BM_AttentionMaterializedTrain(benchmark::State& state) {
  attention_train(state, false);
}
void BM_AttentionFlashTrain(benchmark::State& state) {
  attention_train(state, true);
}
BENCHMARK(BM_AttentionMaterializedTrain)->Arg(64)->Arg(128);
// Arg(32) is pretrain's sequence length.
BENCHMARK(BM_AttentionFlashTrain)->Arg(32)->Arg(64)->Arg(128)
    ->MeasureProcessCPUTime();

void BM_CrossEntropy(benchmark::State& state) {
  const auto v = static_cast<std::int64_t>(state.range(0));
  Rng rng(3);
  Tensor logits0 = Tensor::randn({64, v}, rng);
  std::vector<std::int32_t> targets(64);
  for (auto& t : targets) {
    t = static_cast<std::int32_t>(rng.uniform_int(
        static_cast<std::uint64_t>(v)));
  }
  for (auto _ : state) {
    Tape tape;
    Var logits = tape.leaf(logits0.clone(), true);
    Var loss = ops::cross_entropy(tape, logits, targets);
    tape.backward(loss);
    benchmark::DoNotOptimize(logits.grad().data());
  }
}
BENCHMARK(BM_CrossEntropy)->Arg(512)->Arg(2048);

void BM_LayerNorm(benchmark::State& state) {
  Rng rng(4);
  Tensor x0 = Tensor::randn({256, 256}, rng);
  Tensor g0 = Tensor::full({256}, 1.0f);
  Tensor b0 = Tensor::zeros({256});
  for (auto _ : state) {
    Tape tape;
    tape.set_recording(false);
    Var x = tape.leaf(x0, false);
    Var g = tape.leaf(g0, false);
    Var b = tape.leaf(b0, false);
    Var y = ops::layer_norm(tape, x, g, b);
    benchmark::DoNotOptimize(y.value().data());
  }
}
BENCHMARK(BM_LayerNorm);

// Pretrain's element-wise ops in train mode (forward and backward) at its
// shapes: 8 sequences x 32 tokens, the SwiGLU inner width 176 and the
// hidden width 64.
void BM_SwiGlu(benchmark::State& state) {
  Rng rng(5);
  Tensor gate0 = Tensor::randn({kTrainTokens, 176}, rng);
  Tensor up0 = Tensor::randn({kTrainTokens, 176}, rng);
  for (auto _ : state) {
    Tape tape;
    Var gate = tape.leaf(gate0.clone(), true);
    Var up = tape.leaf(up0.clone(), true);
    tape.backward(ops::sum_all(tape, ops::swiglu(tape, gate, up)));
    benchmark::DoNotOptimize(gate.grad().data());
  }
}
BENCHMARK(BM_SwiGlu)->MeasureProcessCPUTime();

void BM_RmsNorm(benchmark::State& state) {
  Rng rng(6);
  Tensor x0 = Tensor::randn({kTrainTokens, 64}, rng);
  Tensor g0 = Tensor::full({64}, 1.0f);
  for (auto _ : state) {
    Tape tape;
    Var x = tape.leaf(x0.clone(), true);
    Var g = tape.leaf(g0.clone(), true);
    tape.backward(ops::sum_all(tape, ops::rms_norm(tape, x, g)));
    benchmark::DoNotOptimize(x.grad().data());
  }
}
BENCHMARK(BM_RmsNorm)->MeasureProcessCPUTime();

// One Adam step over pretrain's parameter set: the scaled LLaMA model
// (hidden 64, 2 layers, 2 heads, vocab 512) with a gradient on every
// parameter.
void BM_AdamStep(benchmark::State& state) {
  nn::GptConfig config;
  config.arch = nn::ArchFamily::kLLaMA;
  config.max_seq = 32;
  nn::GptModel model(config);
  Rng rng(7);
  std::int64_t params = 0;
  for (auto& p : model.parameters()) {
    p.var.node()->accumulate(Tensor::randn(p.var.value().shape(), rng));
    params += p.var.value().numel();
  }
  optim::Adam adam(model.parameters());
  for (auto _ : state) {
    adam.step(1e-4);
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * params);
}
BENCHMARK(BM_AdamStep)->MeasureProcessCPUTime();

}  // namespace

BENCHMARK_MAIN();
