#pragma once
// Smith–Waterman local alignment with affine gap penalties.
//
// Section IV of the paper validates the parallel pipeline by aligning every
// reconstructed transcript against every transcript from the original run
// "using the Smith-Waterman algorithm, as implemented in the FASTA
// program", then bucketing pairs by identity and coverage (Figure 4). This
// module provides that comparator: full Gotoh dynamic programming with
// traceback statistics (identity, alignment length, query/target coverage).
//
// Most pairs the validation looks at only need a score, so the work is
// split in two: `score_only` finds the optimal score and its end cell (a
// striped AVX2 kernel when the CPU has it, else scalar), and `align_to`
// runs the traceback DP over the rectangle that ends at that cell. Their
// composition equals `align` field for field.

#include <cstdint>
#include <string_view>

namespace trinity::sw {

/// Scoring scheme; defaults approximate the FASTA program's DNA defaults.
struct Scoring {
  int match = 5;
  int mismatch = -4;
  int gap_open = -12;    ///< charged for the first base of a gap
  int gap_extend = -4;   ///< charged for each additional base
};

/// Result of a local alignment.
struct Alignment {
  int score = 0;
  std::size_t query_begin = 0;   ///< [begin, end) on the query
  std::size_t query_end = 0;
  std::size_t target_begin = 0;  ///< [begin, end) on the target
  std::size_t target_end = 0;
  std::size_t matches = 0;       ///< identical aligned columns
  std::size_t alignment_columns = 0;  ///< aligned columns incl. gaps

  /// Fraction of identical columns in the local alignment (0 when empty).
  [[nodiscard]] double identity() const {
    return alignment_columns == 0
               ? 0.0
               : static_cast<double>(matches) / static_cast<double>(alignment_columns);
  }
  /// Fraction of the query covered by the local alignment.
  [[nodiscard]] double query_coverage(std::size_t query_length) const {
    return query_length == 0
               ? 0.0
               : static_cast<double>(query_end - query_begin) / static_cast<double>(query_length);
  }
};

/// Optimal local score and the cell it ends in. The cell is the first one
/// in row-major order (query outer, target inner) that reaches the score,
/// which is the cell `align` traces back from. All zero when score <= 0.
struct ScoreEnd {
  int score = 0;
  std::size_t query_end = 0;   ///< exclusive, as in Alignment
  std::size_t target_end = 0;
};

/// Full O(nm) Smith–Waterman–Gotoh alignment of `query` against `target`.
Alignment align(std::string_view query, std::string_view target, const Scoring& scoring = {});

/// Score-only pass of `align`: same score and end cell, no traceback.
ScoreEnd score_only(std::string_view query, std::string_view target, const Scoring& scoring = {});

/// Traceback DP over [0, end.query_end) x [0, end.target_end) only. For
/// `end = score_only(query, target, scoring)` it returns exactly
/// `align(query, target, scoring)`: DP cells depend only on cells above
/// and to the left, and every other cell of the rectangle scores below
/// `end.score`, so the rectangle's best cell is `end`.
Alignment align_to(std::string_view query, std::string_view target, const ScoreEnd& end,
                   const Scoring& scoring = {});

/// Score-only pass over both strands of `query`: the better strand's end
/// cell, forward on ties.
struct StrandEnd {
  ScoreEnd end;
  bool forward = true;  ///< false: `end` is on the reverse complement
};
StrandEnd best_strand_end(std::string_view query, std::string_view target,
                          const Scoring& scoring = {});

/// `align_to` on the strand of `query` that `end` was found on.
Alignment align_to(std::string_view query, std::string_view target, const StrandEnd& end,
                   const Scoring& scoring = {});

/// Strand-aware best alignment: max score over query and its reverse
/// complement (transcripts from independent runs may differ in strand).
/// Both strands are scored; only the winner, forward on ties, is traced.
Alignment align_best_strand(std::string_view query, std::string_view target,
                            const Scoring& scoring = {});

}  // namespace trinity::sw
