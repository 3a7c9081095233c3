// Kernel tiers for support/simd.hpp.
//
// The kernel bodies live once, in support/simd_kernels.inc. This file
// compiles them once per tier — scalar with no target attribute and, on
// x86, again under the AVX2 and AVX-512 target attributes — so the
// translation unit (and the whole default build) stays portable while each
// tier gets its own vector code. Dispatch swaps an atomic pointer to one
// tier's KernelTable; a tier is only ever installed after a CPUID check.
#include "support/simd.hpp"

#include <atomic>
#include <bit>

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define MONOMAP_X86 1
#else
#define MONOMAP_X86 0
#endif

namespace monomap::simd {
namespace {

struct KernelTable {
  void (*and_assign)(Word*, const Word*, std::size_t);
  void (*or_assign)(Word*, const Word*, std::size_t);
  void (*and_not_assign)(Word*, const Word*, std::size_t);
  Word (*and_assign_any)(Word*, const Word*, std::size_t);
  int (*count)(const Word*, std::size_t);
  int (*intersect_count)(const Word*, const Word*, std::size_t);
  bool (*all_zero)(const Word*, std::size_t);
  bool (*intersects)(const Word*, const Word*, std::size_t);
  bool (*is_subset_of)(const Word*, const Word*, std::size_t);
  AndPreview (*and_preview)(const Word*, const Word*, std::size_t);
  Level level;
};

#define MONOMAP_TIER
namespace scalar {
constexpr Level kTierLevel = Level::kScalar;
#include "support/simd_kernels.inc"
}  // namespace scalar
#undef MONOMAP_TIER

#if MONOMAP_X86
// "popcnt" rides along in both tiers: the scalar tier's std::popcount is a
// libgcc call, and on 1-7-word sets (20x20 fabrics and below) the vector
// loops never start, so native popcnt in the tails is what a tier buys.
#define MONOMAP_TIER __attribute__((target("avx2,popcnt")))
namespace avx2 {
constexpr Level kTierLevel = Level::kAvx2;
#include "support/simd_kernels.inc"
}  // namespace avx2
#undef MONOMAP_TIER

#define MONOMAP_TIER \
  __attribute__((target("avx512f,avx512bw,avx512vpopcntdq,popcnt")))
namespace avx512 {
constexpr Level kTierLevel = Level::kAvx512;
#include "support/simd_kernels.inc"
}  // namespace avx512
#undef MONOMAP_TIER
#endif  // MONOMAP_X86

const KernelTable* table_for(Level level) {
#if MONOMAP_X86
  switch (level) {
    case Level::kAvx512: return &avx512::kTable;
    case Level::kAvx2: return &avx2::kTable;
    case Level::kScalar: break;
  }
#endif
  (void)level;
  return &scalar::kTable;
}

Level probe_best_level() {
#if MONOMAP_X86
  if (__builtin_cpu_supports("avx512f") &&
      __builtin_cpu_supports("avx512bw") &&
      __builtin_cpu_supports("avx512vpopcntdq") &&
      __builtin_cpu_supports("popcnt")) {
    return Level::kAvx512;
  }
  if (__builtin_cpu_supports("avx2") && __builtin_cpu_supports("popcnt")) {
    return Level::kAvx2;
  }
#endif
  return Level::kScalar;
}

std::atomic<const KernelTable*>& active_table() {
  static std::atomic<const KernelTable*> table{
      table_for(best_supported_level())};
  return table;
}

const KernelTable& kernels() {
  return *active_table().load(std::memory_order_relaxed);
}

}  // namespace

const char* level_name(Level level) {
  switch (level) {
    case Level::kScalar: return "scalar";
    case Level::kAvx2: return "avx2";
    case Level::kAvx512: return "avx512";
  }
  return "?";
}

Level best_supported_level() {
  static const Level best = probe_best_level();
  return best;
}

Level active_level() { return kernels().level; }

Level set_level(Level level) {
  const Level best = best_supported_level();
  const Level clamped =
      static_cast<int>(level) > static_cast<int>(best) ? best : level;
  active_table().store(table_for(clamped), std::memory_order_relaxed);
  return clamped;
}

void and_assign(Word* a, const Word* b, std::size_t n) {
  kernels().and_assign(a, b, n);
}
void or_assign(Word* a, const Word* b, std::size_t n) {
  kernels().or_assign(a, b, n);
}
void and_not_assign(Word* a, const Word* b, std::size_t n) {
  kernels().and_not_assign(a, b, n);
}
Word and_assign_any(Word* a, const Word* b, std::size_t n) {
  return kernels().and_assign_any(a, b, n);
}
int count(const Word* a, std::size_t n) { return kernels().count(a, n); }
int intersect_count(const Word* a, const Word* b, std::size_t n) {
  return kernels().intersect_count(a, b, n);
}
bool all_zero(const Word* a, std::size_t n) {
  return kernels().all_zero(a, n);
}
bool intersects(const Word* a, const Word* b, std::size_t n) {
  return kernels().intersects(a, b, n);
}
bool is_subset_of(const Word* a, const Word* b, std::size_t n) {
  return kernels().is_subset_of(a, b, n);
}
AndPreview and_preview(const Word* a, const Word* b, std::size_t n) {
  return kernels().and_preview(a, b, n);
}

HotKernels hot_kernels() {
  const KernelTable& t = kernels();
  return HotKernels{t.and_preview, t.all_zero, t.count};
}

}  // namespace monomap::simd
