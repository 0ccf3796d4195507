// Striped Smith–Waterman–Gotoh score kernel (Farrar 2007) on 16 int16
// lanes. This is the only file compiled with -mavx2; sw::score_only calls
// it after checking the CPU and detail::avx2_exact_for.
//
// The target is striped: position j sits in lane j / seg_len of segment
// j % seg_len, so one pass over the segments computes a whole DP row
// (one query base) with in-lane dependencies only. F (the vertical gap)
// needs nothing across lanes; E (the horizontal gap) is carried in-lane,
// then the "lazy E" loop pushes each lane's carry into the next lane until
// no lane's carry can raise an H or a later carry any more.
//
// The end cell is tracked per row: when a row's maximum beats every
// earlier row's, that row is kept, and at the end its first position
// holding the maximum is the first row-major cell reaching the score, as
// in sw::align. Padding positions past the target's end never match
// (their code is outside byte range), and with non-positive mismatch and
// gap scores every padding cell is bounded by an earlier real cell, so
// it cannot move the maximum or the end cell. The lazy loop needs
// gap_open <= gap_extend < 0: the carry then drops by -gap_extend per
// step, so the loop ends.

#include <immintrin.h>

#include <cstdint>
#include <vector>

#include "sw/score_kernels.hpp"

namespace trinity::sw::detail {

namespace {

constexpr std::size_t kLanes = 16;
constexpr std::int16_t kNegInf = INT16_MIN;

/// One segment of a striped row. The wrapper keeps the vector type's
/// attributes (and 32-byte alignment) inside std::vector.
struct Segment {
  __m256i v;
};

/// Moves every lane up by one (lane l -> l + 1, across the 128-bit
/// halves); lane 0 becomes 0.
inline __m256i shift_up_one_lane(__m256i v) {
  const __m256i low_into_high = _mm256_permute2x128_si256(v, v, 0x08);
  return _mm256_alignr_epi8(v, low_into_high, 14);
}

inline std::int16_t horizontal_max(__m256i v) {
  __m128i m = _mm_max_epi16(_mm256_castsi256_si128(v), _mm256_extracti128_si256(v, 1));
  m = _mm_max_epi16(m, _mm_srli_si128(m, 8));
  m = _mm_max_epi16(m, _mm_srli_si128(m, 4));
  m = _mm_max_epi16(m, _mm_srli_si128(m, 2));
  return static_cast<std::int16_t>(_mm_extract_epi16(m, 0));
}

inline bool any_greater(__m256i a, __m256i b) {
  return _mm256_movemask_epi8(_mm256_cmpgt_epi16(a, b)) != 0;
}

}  // namespace

ScoreEnd score_only_avx2(const char* query, std::size_t n, const char* target, std::size_t m,
                         const Scoring& scoring) {
  const std::size_t seg_len = (m + kLanes - 1) / kLanes;

  // Striped target codes: bytes as 0..255, padding as -1.
  std::vector<std::int16_t> striped(seg_len * kLanes, -1);
  for (std::size_t j = 0; j < m; ++j) {
    striped[(j % seg_len) * kLanes + j / seg_len] =
        static_cast<std::int16_t>(static_cast<unsigned char>(target[j]));
  }
  std::vector<Segment> codes(seg_len);
  for (std::size_t s = 0; s < seg_len; ++s) {
    codes[s].v = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(&striped[s * kLanes]));
  }
  std::vector<Segment> h_load(seg_len, Segment{_mm256_setzero_si256()});  // row i - 1
  std::vector<Segment> h_store(seg_len, Segment{_mm256_setzero_si256()}); // row i
  std::vector<Segment> f_col(seg_len, Segment{_mm256_set1_epi16(kNegInf)});
  std::vector<Segment> best_row(seg_len, Segment{_mm256_setzero_si256()});

  const __m256i v_match = _mm256_set1_epi16(static_cast<std::int16_t>(scoring.match));
  const __m256i v_mismatch = _mm256_set1_epi16(static_cast<std::int16_t>(scoring.mismatch));
  const __m256i v_open = _mm256_set1_epi16(static_cast<std::int16_t>(scoring.gap_open));
  const __m256i v_extend = _mm256_set1_epi16(static_cast<std::int16_t>(scoring.gap_extend));
  const __m256i v_zero = _mm256_setzero_si256();
  const __m256i v_lane0_neg_inf = _mm256_setr_epi16(kNegInf, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0,
                                                    0, 0, 0, 0);

  int best = 0;
  std::size_t best_i = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const __m256i v_base =
        _mm256_set1_epi16(static_cast<std::int16_t>(static_cast<unsigned char>(query[i])));
    // H(i-1, j-1) for segment 0 is the previous row's last segment moved
    // up one lane; lane 0 (j = 0) sees the zero boundary column.
    __m256i v_diag = shift_up_one_lane(h_load[seg_len - 1].v);
    __m256i v_e = _mm256_set1_epi16(kNegInf);
    __m256i v_row_max = v_zero;
    for (std::size_t s = 0; s < seg_len; ++s) {
      const __m256i v_up = h_load[s].v;
      const __m256i v_f = _mm256_max_epi16(_mm256_adds_epi16(f_col[s].v, v_extend),
                                           _mm256_adds_epi16(v_up, v_open));
      f_col[s].v = v_f;
      const __m256i is_match = _mm256_cmpeq_epi16(codes[s].v, v_base);
      __m256i v_h =
          _mm256_adds_epi16(v_diag, _mm256_blendv_epi8(v_mismatch, v_match, is_match));
      v_h = _mm256_max_epi16(v_h, v_zero);
      v_h = _mm256_max_epi16(v_h, v_f);
      v_h = _mm256_max_epi16(v_h, v_e);
      h_store[s].v = v_h;
      v_row_max = _mm256_max_epi16(v_row_max, v_h);
      v_e = _mm256_max_epi16(_mm256_adds_epi16(v_e, v_extend), _mm256_adds_epi16(v_h, v_open));
      v_diag = v_up;
    }

    // Lazy E: carry each lane's outgoing E into the next lane. Opening
    // from an H the carry raised costs no less than extending the carry
    // (gap_open <= gap_extend), so the carry only extends. Once no lane's
    // carry beats opening a gap from the H it passed (a value the in-lane
    // pass already propagated), it cannot raise anything further on.
    __m256i v_carry = _mm256_or_si256(shift_up_one_lane(v_e), v_lane0_neg_inf);
    for (std::size_t s = 0;;) {
      const __m256i v_old = h_store[s].v;
      const __m256i v_h = _mm256_max_epi16(v_old, v_carry);
      h_store[s].v = v_h;
      v_row_max = _mm256_max_epi16(v_row_max, v_h);
      v_carry = _mm256_adds_epi16(v_carry, v_extend);
      if (!any_greater(v_carry, _mm256_adds_epi16(v_old, v_open))) break;
      if (++s == seg_len) {
        s = 0;
        v_carry = _mm256_or_si256(shift_up_one_lane(v_carry), v_lane0_neg_inf);
      }
    }

    const int row_max = horizontal_max(v_row_max);
    if (row_max > best) {
      best = row_max;
      best_i = i + 1;
      best_row = h_store;
    }
    h_load.swap(h_store);
  }

  if (best <= 0) return ScoreEnd{};
  for (std::size_t s = 0; s < seg_len; ++s) {
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(&striped[s * kLanes]), best_row[s].v);
  }
  std::size_t best_j = 0;
  for (std::size_t j = 0; j < m; ++j) {
    if (striped[(j % seg_len) * kLanes + j / seg_len] == best) {
      best_j = j + 1;
      break;
    }
  }
  return ScoreEnd{best, best_i, best_j};
}

}  // namespace trinity::sw::detail
