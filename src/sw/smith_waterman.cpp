#include "sw/smith_waterman.hpp"

#include <algorithm>
#include <limits>
#include <string>
#include <vector>

#include "seq/dna.hpp"
#include "sw/score_kernels.hpp"

namespace trinity::sw {

namespace {

constexpr int kNegInf = std::numeric_limits<int>::min() / 4;

// Traceback codes: the H source in bits 0-1, plus one bit each for an
// E or F that extended its gap (vs a fresh open).
enum : std::uint8_t {
  kStop = 0,
  kDiag = 1,
  kFromE = 2,  // gap in query (came from the left)
  kFromF = 3,  // gap in target (came from above)
  kSourceMask = 3,
  kEExtended = 4,
  kFExtended = 8,
};

/// (n+1) x (m+1) traceback codes at 4 bits each, two cells per byte: the
/// matrix is the whole memory cost of `align`, and validation runs one
/// per thread.
class TraceMatrix {
 public:
  TraceMatrix(std::size_t rows, std::size_t cols) : cols_(cols), bytes_((rows * cols + 1) / 2, 0) {}

  void set(std::size_t i, std::size_t j, std::uint8_t code) {
    const std::size_t k = i * cols_ + j;
    bytes_[k / 2] |= static_cast<std::uint8_t>(code << (4 * (k % 2)));
  }
  [[nodiscard]] std::uint8_t get(std::size_t i, std::size_t j) const {
    const std::size_t k = i * cols_ + j;
    return static_cast<std::uint8_t>((bytes_[k / 2] >> (4 * (k % 2))) & 0xF);
  }

 private:
  std::size_t cols_;
  std::vector<std::uint8_t> bytes_;
};

}  // namespace

Alignment align(std::string_view query, std::string_view target, const Scoring& scoring) {
  const std::size_t n = query.size();
  const std::size_t m = target.size();
  Alignment best;
  if (n == 0 || m == 0) return best;

  // Row-linear DP with a full traceback matrix. H/E/F follow Gotoh's
  // affine-gap recurrences: E runs along the row (carried in `e`), F runs
  // down a column (one slot per column in f_col). H is clamped at 0.
  std::vector<int> h_prev(m + 1, 0);
  std::vector<int> h_curr(m + 1, 0);
  std::vector<int> f_col(m + 1, kNegInf);
  TraceMatrix trace(n + 1, m + 1);

  std::size_t best_i = 0;
  std::size_t best_j = 0;

  for (std::size_t i = 1; i <= n; ++i) {
    int e = kNegInf;
    h_curr[0] = 0;
    for (std::size_t j = 1; j <= m; ++j) {
      const int e_open = h_curr[j - 1] + scoring.gap_open;
      const int e_extend = e + scoring.gap_extend;
      e = std::max(e_open, e_extend);

      const int f_open = h_prev[j] + scoring.gap_open;
      const int f_extend = f_col[j] + scoring.gap_extend;
      const int f = std::max(f_open, f_extend);
      f_col[j] = f;

      const bool is_match = query[i - 1] == target[j - 1];
      const int diag = h_prev[j - 1] + (is_match ? scoring.match : scoring.mismatch);

      int h = 0;
      std::uint8_t src = kStop;
      if (diag > h) {
        h = diag;
        src = kDiag;
      }
      if (e > h) {
        h = e;
        src = kFromE;
      }
      if (f > h) {
        h = f;
        src = kFromF;
      }
      trace.set(i, j,
                static_cast<std::uint8_t>(src | (e_extend >= e_open ? kEExtended : 0) |
                                          (f_extend >= f_open ? kFExtended : 0)));
      h_curr[j] = h;

      if (h > best.score) {
        best.score = h;
        best_i = i;
        best_j = j;
      }
    }
    std::swap(h_prev, h_curr);
  }

  if (best.score <= 0) return Alignment{};

  // Traceback from the best cell. E/F runs are unwound with their
  // extension bits; columns and matches accumulate as we go.
  std::size_t i = best_i;
  std::size_t j = best_j;
  best.query_end = best_i;
  best.target_end = best_j;
  enum class State { H, E, F };
  State state = State::H;
  for (;;) {
    const std::uint8_t code = trace.get(i, j);
    const std::uint8_t source = code & kSourceMask;
    if (state == State::H) {
      if (source == kStop) break;
      if (source == kDiag) {
        ++best.alignment_columns;
        if (query[i - 1] == target[j - 1]) ++best.matches;
        --i;
        --j;
      } else if (source == kFromE) {
        state = State::E;
      } else {
        state = State::F;
      }
    } else if (state == State::E) {
      ++best.alignment_columns;
      const bool extended = (code & kEExtended) != 0;
      --j;
      state = extended ? State::E : State::H;
    } else {
      ++best.alignment_columns;
      const bool extended = (code & kFExtended) != 0;
      --i;
      state = extended ? State::F : State::H;
    }
  }
  best.query_begin = i;
  best.target_begin = j;
  return best;
}

namespace detail {

ScoreEnd score_only_scalar(std::string_view query, std::string_view target,
                           const Scoring& scoring) {
  // align's recurrence and best-cell rule, without the trace matrix.
  const std::size_t m = target.size();
  ScoreEnd best;
  std::vector<int> h_prev(m + 1, 0);
  std::vector<int> h_curr(m + 1, 0);
  std::vector<int> f_col(m + 1, kNegInf);
  for (std::size_t i = 1; i <= query.size(); ++i) {
    int e = kNegInf;
    for (std::size_t j = 1; j <= m; ++j) {
      e = std::max(h_curr[j - 1] + scoring.gap_open, e + scoring.gap_extend);
      f_col[j] = std::max(h_prev[j] + scoring.gap_open, f_col[j] + scoring.gap_extend);
      const int diag = h_prev[j - 1] +
                       (query[i - 1] == target[j - 1] ? scoring.match : scoring.mismatch);
      const int h = std::max({0, diag, e, f_col[j]});
      h_curr[j] = h;
      if (h > best.score) best = ScoreEnd{h, i, j};
    }
    std::swap(h_prev, h_curr);
  }
  return best;
}

bool avx2_exact_for(std::size_t query_length, std::size_t target_length,
                    const Scoring& scoring) {
  constexpr int kMax = std::numeric_limits<std::int16_t>::max();
  const std::size_t shorter = std::min(query_length, target_length);
  if (shorter == 0) return false;
  for (const int penalty : {scoring.match, scoring.mismatch, scoring.gap_open,
                            scoring.gap_extend}) {
    if (penalty < -kMax) return false;
  }
  if (scoring.mismatch > 0 || scoring.gap_extend >= 0 || scoring.gap_open > scoring.gap_extend) {
    return false;
  }
  return scoring.match <= 0 ||
         static_cast<std::size_t>(scoring.match) <= static_cast<std::size_t>(kMax) / shorter;
}

bool cpu_has_avx2() {
  static const bool has = __builtin_cpu_supports("avx2") != 0;
  return has;
}

}  // namespace detail

ScoreEnd score_only(std::string_view query, std::string_view target, const Scoring& scoring) {
  if (detail::cpu_has_avx2() && detail::avx2_exact_for(query.size(), target.size(), scoring)) {
    return detail::score_only_avx2(query.data(), query.size(), target.data(), target.size(),
                                   scoring);
  }
  return detail::score_only_scalar(query, target, scoring);
}

Alignment align_to(std::string_view query, std::string_view target, const ScoreEnd& end,
                   const Scoring& scoring) {
  if (end.score <= 0) return Alignment{};
  return align(query.substr(0, end.query_end), target.substr(0, end.target_end), scoring);
}

StrandEnd best_strand_end(std::string_view query, std::string_view target,
                          const Scoring& scoring) {
  const ScoreEnd fwd = score_only(query, target, scoring);
  const ScoreEnd rev = score_only(seq::reverse_complement(query), target, scoring);
  return fwd.score >= rev.score ? StrandEnd{fwd, true} : StrandEnd{rev, false};
}

Alignment align_to(std::string_view query, std::string_view target, const StrandEnd& end,
                   const Scoring& scoring) {
  return end.forward ? align_to(query, target, end.end, scoring)
                     : align_to(seq::reverse_complement(query), target, end.end, scoring);
}

Alignment align_best_strand(std::string_view query, std::string_view target,
                            const Scoring& scoring) {
  return align_to(query, target, best_strand_end(query, target, scoring), scoring);
}

}  // namespace trinity::sw
