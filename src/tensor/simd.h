#pragma once
// The AVX2+FMA dispatch shared by every SIMD kernel (GEMMs, attention, the
// element-wise ops, the optimizers), and the one helper they all need to
// reproduce a scalar loop's bytes.
//
// Each SIMD path replays the operation sequence of the scalar loop it
// replaces, element for element: the same IEEE operations in the same
// order, so results are identical by construction. The scalar loops are
// compiled for baseline x86-64, which has no FMA, so they never fuse a
// multiply with an add. Inside an avx2/fma region g++'s default
// -ffp-contract=fast would fuse them; `rounded` stops that.
//
// -DMATGPT_PORTABLE compiles the dispatch out: every kernel runs its
// scalar loop.

#if defined(__x86_64__) && defined(__GNUC__) && !defined(MATGPT_PORTABLE)
#define MATGPT_X86_DISPATCH 1
#include <immintrin.h>
#endif

namespace matgpt::simd {

/// True when the AVX2+FMA paths are compiled in and the host supports them
/// (decided once per process).
inline bool avx2_fma() {
#ifdef MATGPT_X86_DISPATCH
  static const bool ok =
      __builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma");
  return ok;
#else
  return false;
#endif
}

#ifdef MATGPT_X86_DISPATCH
#pragma GCC push_options
#pragma GCC target("avx2,fma")

/// Hides a rounded product (or any value) from the optimizer, so a
/// following add or subtract cannot be fused with it into one FMA. The
/// empty asm emits no instruction.
template <typename T>
inline T rounded(T value) {
  asm("" : "+x"(value));
  return value;
}

#pragma GCC pop_options
#endif  // MATGPT_X86_DISPATCH

}  // namespace matgpt::simd
