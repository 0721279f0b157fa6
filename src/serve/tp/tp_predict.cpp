#include "serve/tp/tp_predict.h"

#include <algorithm>
#include <chrono>
#include <cstring>
#include <vector>

#include "common/error.h"
#include "nn/layers.h"
#include "parallel/comm.h"
#include "parallel/thread_pool.h"
#include "simfrontier/gemm_model.h"
#include "simfrontier/network_model.h"
#include "tensor/autograd.h"
#include "tensor/ops.h"

namespace matgpt::serve::tp {

namespace {

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// Reference GEMM: a decode-sized, fragment-aligned shape. The measured
// throughput of this shape anchors the gemm model's "peak": predicted
// time(shape) = flops(shape) / (peak * efficiency(shape)), with peak chosen
// so the reference shape's prediction equals its measurement.
constexpr std::int64_t kRefM = 8;
constexpr std::int64_t kRefN = 1024;
constexpr std::int64_t kRefK = 256;

double measure_gemm_flops(std::int64_t ref_n) {
  Tensor a({kRefM, kRefK});
  Tensor b({kRefK, ref_n});
  for (std::int64_t i = 0; i < a.numel(); ++i) {
    a.data()[i] = 0.001f * static_cast<float>(i % 97);
  }
  for (std::int64_t i = 0; i < b.numel(); ++i) {
    b.data()[i] = 0.001f * static_cast<float>(i % 89);
  }
  Tape tape;
  NoGradGuard no_grad(tape);
  Var va = tape.leaf(a, false);
  Var vb = tape.leaf(b, false);
  double best = 1e30;
  for (int rep = 0; rep < 5; ++rep) {
    const double t0 = now_s();
    Var c = ops::matmul(tape, va, vb);
    const double dt = now_s() - t0;
    best = std::min(best, std::max(dt, 1e-9));
    (void)c;
  }
  const double flops = 2.0 * static_cast<double>(kRefM * ref_n * kRefK);
  return flops / best;
}

double measure_memcpy_bw() {
  constexpr std::size_t kFloats = 2u << 20;  // 8 MB
  std::vector<float> src(kFloats, 1.0f);
  std::vector<float> dst(kFloats, 0.0f);
  double best = 1e30;
  for (int rep = 0; rep < 5; ++rep) {
    const double t0 = now_s();
    std::memcpy(dst.data(), src.data(), kFloats * sizeof(float));
    const double dt = now_s() - t0;
    best = std::min(best, std::max(dt, 1e-9));
  }
  return static_cast<double>(kFloats * sizeof(float)) / best;
}

double measure_barrier_s(int ranks) {
  if (ranks <= 1) return 1e-6;
  constexpr int kIters = 400;
  double total = 0.0;
  run_ranks(ranks, [&](Communicator& comm) {
    const double t0 = now_s();
    for (int i = 0; i < kIters; ++i) comm.barrier();
    if (comm.rank() == 0) total = now_s() - t0;
  });
  return std::max(total / kIters, 1e-8);
}

}  // namespace

HostCalibration calibrate_host(int ranks) {
  MGPT_CHECK(ranks >= 1, "calibrate_host requires ranks >= 1");
  HostCalibration cal;
  // The CPUs this process may run on (its affinity mask), not the host's:
  // pinned to one core, every rank shares that core.
  cal.cores = static_cast<int>(available_cpus());
  // Measure the reference GEMM at per-rank width: sharded projections are
  // ~1/ranks as wide as their TP=1 counterparts, and anchoring the peak at a
  // matching width lets the efficiency model's shape penalty divide out
  // instead of compounding.
  cal.ref_n = std::max<std::int64_t>(64, kRefN / ranks);
  cal.gemm_flops = measure_gemm_flops(cal.ref_n);
  cal.memcpy_bytes_per_s = measure_memcpy_bw();
  cal.barrier_s = measure_barrier_s(ranks);
  return cal;
}

TpPrediction predict_decode_step(const nn::GptConfig& config,
                                 const TpConfig& tp, std::int64_t batch,
                                 std::int64_t context,
                                 const HostCalibration& cal) {
  MGPT_CHECK(batch > 0 && context > 0, "predict_decode_step needs work");
  const std::int64_t n = tp.ranks;
  const std::int64_t c = config.hidden;
  const std::int64_t d = config.head_dim();
  const std::int64_t hq = config.n_heads;
  const std::int64_t hkv = config.kv_heads();
  const bool neox = config.arch == nn::ArchFamily::kNeoX;
  const std::int64_t inner =
      neox ? 4 * c : nn::SwiGluMlp::inner_dim_for(config.hidden);

  // Gemm model anchored so the reference shape reproduces its measured time
  // (efficiency() is a pure shape function, so any spec works to read it).
  sim::GemmShape ref{kRefM, cal.ref_n > 0 ? cal.ref_n : kRefN, kRefK};
  const double ref_eff = sim::GemmModel(sim::GcdSpec{}).efficiency(ref);
  sim::GcdSpec spec;
  spec.peak_flops = cal.gemm_flops / ref_eff;
  const sim::GemmModel gemm(spec);

  // Network model with this host's numbers: every link is host memcpy
  // bandwidth, every hop the measured barrier (split across the g-1 hops the
  // α–β formula charges), and the group always fits "one node" so the
  // multi-node congestion divisor stays out of the picture.
  sim::Platform plat;
  plat.gcd = spec;
  plat.topology.intra_mi250x_bw = cal.memcpy_bytes_per_s;
  plat.topology.intra_node_bw = cal.memcpy_bytes_per_s;
  plat.topology.inter_node_bw = cal.memcpy_bytes_per_s;
  const double hop =
      n > 1 ? cal.barrier_s / static_cast<double>(n - 1) : cal.barrier_s;
  plat.topology.intra_mi250x_latency_s = hop;
  plat.topology.intra_node_latency_s = hop;
  plat.topology.inter_node_latency_s = hop;
  // A thread collective costs one barrier round trip of fixed overhead, not
  // a GPU kernel launch.
  plat.topology.collective_launch_overhead_s = cal.barrier_s;
  plat.topology.gcds_per_node = std::max(8, static_cast<int>(n));
  const sim::NetworkModel net(plat);

  const std::int64_t b = batch;
  const std::int64_t l = context;
  std::vector<sim::GemmShape> shapes;
  // Per-layer, per-rank projections (decode step: one row per sequence).
  shapes.push_back({b, hq * d / n, c});        // q
  shapes.push_back({b, hkv * d / n, c});       // k
  shapes.push_back({b, hkv * d / n, c});       // v
  // Attention scores and output: one skinny GEMM per (sequence, local head).
  shapes.push_back({1, l, d, b * hq / n});
  shapes.push_back({1, d, l, b * hq / n});
  if (tp.layout == TpLayout::kColumnGather) {
    shapes.push_back({b, c / n, c});           // o over gathered input
  } else {
    shapes.push_back({b, c, c / n});           // o partial over head slice
  }
  shapes.push_back({b, inner / n, c});         // up
  if (!neox) shapes.push_back({b, inner / n, c});  // gate
  if (tp.layout == TpLayout::kColumnGather) {
    shapes.push_back({b, c / n, inner});       // down over gathered inner
  } else {
    shapes.push_back({b, c, inner / n});       // down partial
  }
  double layer_s = 0.0;
  for (const sim::GemmShape& s : shapes) layer_s += gemm.time(s);
  double compute = layer_s * static_cast<double>(config.n_layers);
  compute += gemm.time({b, (config.vocab_size + n - 1) / n, c});  // lm_head
  // Ranks beyond the physical cores timeshare them; wall time stretches by
  // the oversubscription factor.
  const double over = static_cast<double>(n) /
                      static_cast<double>(std::min<std::int64_t>(n, cal.cores));
  compute *= over;

  double comm = 0.0;
  if (n > 1) {
    const double cf = 4.0 * static_cast<double>(b);  // bytes per hidden float
    const int g = static_cast<int>(n);
    if (tp.layout == TpLayout::kColumnGather) {
      // Per layer: gather attention heads (C), o output (C), MLP inner (I),
      // down output (C).
      const double per_layer =
          3.0 * net.collective_time(sim::Collective::kAllGather,
                                    cf * static_cast<double>(c), g) +
          net.collective_time(sim::Collective::kAllGather,
                              cf * static_cast<double>(inner), g);
      comm += per_layer * static_cast<double>(config.n_layers);
    } else {
      // Per layer: one allreduce after attention, one after the MLP.
      const double per_layer =
          2.0 * net.collective_time(sim::Collective::kAllReduce,
                                    cf * static_cast<double>(c), g);
      comm += per_layer * static_cast<double>(config.n_layers);
    }
    // Logits fan-in: every rank writes its vocab slice to rank 0 and the
    // job's completion barrier fences it.
    comm += net.collective_time(sim::Collective::kAllGather,
                                cf * static_cast<double>(config.vocab_size), g);
  }

  TpPrediction out;
  out.compute_s = compute;
  out.comm_s = comm;
  return out;
}

}  // namespace matgpt::serve::tp
