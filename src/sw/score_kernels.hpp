#pragma once
// Kernels behind sw::score_only. Private to the sw module and its tests:
// callers use score_only, which dispatches between them.

#include <cstddef>
#include <string_view>

#include "sw/smith_waterman.hpp"

namespace trinity::sw::detail {

/// Row-by-row Gotoh recurrence in plain C++; the reference every other
/// kernel must match on score and end cell.
ScoreEnd score_only_scalar(std::string_view query, std::string_view target,
                           const Scoring& scoring);

/// True when the int16 AVX2 kernel is exact for these lengths and scoring:
/// both lengths are positive, no score can exceed int16
/// (max(match, 0) * min(n, m) <= 32767), every score fits int16, mismatch
/// is non-positive and gap_open <= gap_extend < 0 (the usual affine model).
bool avx2_exact_for(std::size_t query_length, std::size_t target_length,
                    const Scoring& scoring);

/// Whether the running CPU executes AVX2 (checked once).
bool cpu_has_avx2();

/// Striped (Farrar 2007) int16 AVX2 kernel, compiled with -mavx2 in
/// score_avx2.cpp. Call only when cpu_has_avx2() and avx2_exact_for(n, m)
/// hold; n and m must be positive.
ScoreEnd score_only_avx2(const char* query, std::size_t n, const char* target, std::size_t m,
                         const Scoring& scoring);

}  // namespace trinity::sw::detail
