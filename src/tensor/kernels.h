#pragma once
// Raw float kernels beneath the autograd layer.
//
// All matmuls are row-major. Loop orders are chosen so the innermost loop
// streams contiguously (i-k-j for NN and TN, dot-rows for the scalar NT),
// which is the same cache-blocking reasoning the paper applies at the MI250X
// matrix-core level. Every GEMM is row-parallel over ThreadPool::global(),
// sized by work: the rows of C split into chunks of at least kMinChunkMacs
// multiply-adds, with bounds on multiples of the microkernel's row block.
// A GEMM too small for two chunks, one of fewer than 64 rows, or any GEMM
// on a one-CPU host runs on the calling thread. Each C row's bytes depend
// only on its own A row and B, so chunking never changes output bytes.
//
// On x86 with AVX2+FMA (runtime-dispatched; disabled by -DMATGPT_PORTABLE),
// gemm_nn uses a streaming multi-row microkernel: B is read once per row
// block in contiguous, prefetch-friendly segments while an L1-resident
// chunk of C accumulates. Batch-1 decode is therefore weight-bandwidth-
// bound and a full serving batch rides the same B traffic at FMA
// throughput.
//
// The microkernel's tiling is a GemmVariant: `mr` rows of C per block and
// `nc` floats of C per row per column chunk. gemm_nn always runs the
// default variant; gemm_nn_variant lets the autotuner (tensor/gemm_tune)
// pick a per-shape tiling. Every variant accumulates each C element's k
// terms in ascending order with single-rounding FMAs — identical in the
// vector body, the scalar column tail, and for every mr/nc — so variant
// choice NEVER changes output bytes. That is the property the serving
// engine's batched-vs-batch-1 (and tuned-vs-untuned) token identity rests
// on.
//
// gemm_nt / gemm_tn (the backward GEMMs, dX = dY * W^T and dW = X^T * dY)
// run the same streaming kernel, gemm_nt after packing B^T once per call.
// Their SIMD paths replay their scalar loops' exact operation sequence (see
// the contracts below), so training losses and gradients do not depend on
// which path ran.
//
// gemm_nn_bf16 / gemm_nn_int8 are the weight-quantized decode GEMMs: B is
// stored as bf16 bit patterns or int8 with per-output-column scales, every
// element is widened to fp32 before the same ascending-k FMA chain, and
// (int8) one single-rounding multiply by the column scale lands at the
// end. The scalar fallbacks replay the identical operation sequence, so
// quantized results match across the SIMD and portable builds bit-for-bit.

#include <cstdint>
#include <span>

namespace matgpt::kernels {

/// Least multiply-adds per chunk of a row-parallel GEMM. A fork-join of 2-4
/// chunks costs ~20-30 us of process CPU beyond its chunks' own (helpers'
/// wake and sleep, the caller's wait; bench_kernels_microbench's
/// BM_ParallelForDispatch with a non-empty body), and a 2^21-MAC chunk
/// takes ~90 us (gemm_nn) to ~200 us (gemm_nt/gemm_tn) on one AVX2 core,
/// so dispatch stays near a tenth of the work it hands out.
inline constexpr std::int64_t kMinChunkMacs = std::int64_t{1} << 21;

/// Storage format of a GEMM's B (weight) operand.
enum class WeightFormat : std::uint8_t { kF32 = 0, kBf16 = 1, kInt8 = 2 };

const char* format_name(WeightFormat format);

/// Microkernel tiling: `mr` C rows per block (1/2/4/8/16/32), `nc` floats
/// of C per row per column chunk (>= 8). Never affects output bytes.
struct GemmVariant {
  int mr = 8;
  std::int64_t nc = 512;
  bool operator==(const GemmVariant& o) const {
    return mr == o.mr && nc == o.nc;
  }
};

/// The fixed tiling gemm_nn has always used ({8, 512}).
GemmVariant gemm_default_variant();

/// True when the runtime-dispatched AVX2+FMA path is compiled in AND the
/// host supports it (false in MATGPT_PORTABLE builds).
bool gemm_simd_active();

/// C[m,n] (+)= A[m,k] * B[k,n]
void gemm_nn(const float* a, const float* b, float* c, std::int64_t m,
             std::int64_t n, std::int64_t k, bool accumulate);

/// gemm_nn with an explicit tiling. Bit-identical to gemm_nn for every
/// variant; the portable (non-SIMD) build ignores the variant entirely and
/// runs gemm_nn's scalar loop.
void gemm_nn_variant(const float* a, const float* b, float* c, std::int64_t m,
                     std::int64_t n, std::int64_t k, bool accumulate,
                     const GemmVariant& variant);

/// C[m,n] = A[m,k] * widen(B[k,n]) where B holds bf16 bit patterns
/// (value = bits << 16). No accumulate mode (the decode forward never
/// accumulates). mr > 8 is clamped to 8.
void gemm_nn_bf16(const float* a, const std::uint16_t* b, float* c,
                  std::int64_t m, std::int64_t n, std::int64_t k,
                  const GemmVariant& variant);

/// C[m,n] = (A[m,k] * widen(B[k,n])) * scale[col] where B is int8 and
/// `scale` has one fp32 factor per output column (per-output-channel
/// weight-only quantization, fp32 accumulate). No accumulate mode; mr > 8
/// is clamped to 8.
void gemm_nn_int8(const float* a, const std::int8_t* b, const float* scale,
                  float* c, std::int64_t m, std::int64_t n, std::int64_t k,
                  const GemmVariant& variant);

/// C[m,n] (+)= A[m,k] * B[n,k]^T
///
/// Numeric contract, identical on the SIMD and scalar paths: each element
/// sums its k terms into a private accumulator that starts at +0.0, in
/// ascending k, each term a rounded multiply followed by a rounded add (no
/// FMA: baseline x86-64 has none, so the scalar loop never fuses); then
/// C = accumulate ? C + acc : acc. An element is computed by one thread, so
/// results do not depend on the thread count or on m.
void gemm_nt(const float* a, const float* b, float* c, std::int64_t m,
             std::int64_t n, std::int64_t k, bool accumulate);

/// C[m,n] (+)= A[k,m]^T * B[k,n]
///
/// Numeric contract, identical on the SIMD and scalar paths: C (zeroed
/// first unless accumulating) takes each term in ascending k as a rounded
/// multiply followed by a rounded add (no FMA), skipping every term whose
/// A value compares equal to zero. The skip decides the sign of a zero
/// result and keeps inf/NaN in B from reaching C through a zero in A. An
/// element is computed by one thread, so results do not depend on the
/// thread count or on m.
void gemm_tn(const float* a, const float* b, float* c, std::int64_t m,
             std::int64_t n, std::int64_t k, bool accumulate);

/// In-place numerically-stable softmax over a row of length n.
void softmax_row(float* row, std::int64_t n);

/// log(sum(exp(row))) with the max-subtraction trick.
double logsumexp_row(const float* row, std::int64_t n);

}  // namespace matgpt::kernels
