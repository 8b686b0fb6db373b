// Differential profiling: what changed between two runs.
//
// The paper mandates Sdv/Var next to every mean precisely so deltas can
// be judged: a 5% time shift means nothing without the spread it moved
// against. tempest-diff aligns two analyzed profiles by function key
// (symbol name primary, address fallback, tolerant of functions the
// FLTR trailer declares filter-suppressed), computes per-function
// call/time/temperature deltas, scores each with a Welch-style t
// statistic over the per-activation duration stats (and per-sensor
// temperature stats) the profiles already carry, and ranks significant
// regressions and improvements. Functions below the confidence
// threshold are reported but never ranked — inclusive attribution means
// `main` regresses whenever any child does, but with one activation it
// has no variance and therefore no rankable evidence, which is exactly
// the behaviour that keeps leaf culprits at the top. (DESIGN.md §15.)
#pragma once

#include <cstdint>
#include <iosfwd>
#include <map>
#include <string>
#include <vector>

#include "common/stats.hpp"
#include "common/status.hpp"
#include "parser/profile.hpp"
#include "trace/trace.hpp"

namespace tempest::diff {

/// One analyzed run: the AnalysisPipeline profile plus the trailer
/// metadata the diff needs (RUNSTATS for context, FLTR for suppressed-
/// function tolerance).
struct RunSummary {
  std::string source;  ///< trace path (or label) the run came from
  parser::RunProfile profile;
  trace::RunStats run_stats;
  trace::FilterDecl filter;
};

struct LoadOptions {
  parser::ProfileOptions profile;
  bool align = true;
  std::string exe_override;
  unsigned threads = 1;
};

/// Stream one trace file through the one analysis path (TraceInput:
/// align, restore global order, fold) — the path `tempest_parse` runs,
/// so a diff of a run against itself is a diff of identical numbers.
Result<RunSummary> load_run(const std::string& path, const LoadOptions& options);

/// Welch's unequal-variance t-test between two populations described by
/// (mean, population variance, count). Confidence is 1 - p for the
/// two-tailed test (Student-t CDF via the regularized incomplete beta,
/// self-contained). Not computable (confidence 0) when either side has
/// fewer than 2 samples; a zero-variance exact difference is confidence
/// 1 (deterministic change).
struct WelchResult {
  double t = 0.0;
  double dof = 0.0;
  double confidence = 0.0;
  bool computable = false;
};
WelchResult welch_compare(double mean_a, double var_a, double n_a,
                          double mean_b, double var_b, double n_b);

/// Regularized incomplete beta I_x(a, b) — exposed for tests.
double reg_incomplete_beta(double a, double b, double x);

/// How a function key aligned across the two runs.
enum class MatchStatus {
  kMatched,          ///< present in both runs
  kBaselineOnly,     ///< vanished in the current run
  kCurrentOnly,      ///< appeared in the current run
  kFilteredBase,     ///< absent in baseline, declared in its FLTR trailer
  kFilteredCurrent,  ///< absent in current, declared in its FLTR trailer
};

const char* match_status_name(MatchStatus status);

/// One side's pooled numbers for an aligned function (pooled across
/// nodes unless DiffOptions::per_node).
struct FunctionSide {
  bool present = false;
  std::uint64_t calls = 0;
  double total_time_s = 0.0;
  parser::TimeStats time;  ///< pooled per-activation duration stats
};

/// One function's numbers pooled across nodes (or per node): what the
/// diff aligns and the trend series prints.
struct PooledFunction {
  std::uint64_t calls = 0;
  double total_time_s = 0.0;
  Moments time;  ///< per-activation duration, seconds
  std::map<std::string, Moments> sensors;
};

/// (node, key) -> pooled numbers. The key is the symbol name, or
/// "@0x<addr>" for an unresolved function; node is always 0 when
/// pooling across nodes, so one map type serves both alignment modes.
using Pool = std::map<std::pair<std::uint16_t, std::string>, PooledFunction>;

/// Pool a profile by function key, merging each node's moments in map
/// key order (deterministic, so a run pooled twice pools identically).
Pool pool_profile(const parser::RunProfile& profile, bool per_node);

/// The diff's view of one pooled function.
FunctionSide side_from(const PooledFunction& p);

struct SensorDelta {
  std::string name;
  std::size_t base_count = 0;
  std::size_t cur_count = 0;
  double base_avg = 0.0;
  double cur_avg = 0.0;
  double delta_avg = 0.0;
  double confidence = 0.0;  ///< Welch over the sensor stats
  bool significant = false;
};

struct FunctionDelta {
  std::string key;  ///< symbol name, or "@0x<addr>" for unresolved
  std::uint16_t node_id = 0;  ///< meaningful only with per_node
  MatchStatus status = MatchStatus::kMatched;
  FunctionSide base;
  FunctionSide cur;
  double delta_time_s = 0.0;  ///< cur.total_time_s - base.total_time_s
  std::int64_t delta_calls = 0;
  double rel_change = 0.0;  ///< delta / base total (+inf for appearances)
  double t_stat = 0.0;      ///< Welch t over per-activation durations
  double confidence = 0.0;  ///< max of time and sensor confidences
  bool significant = false;  ///< confidence and delta floors both passed
  /// The time evidence itself cleared the gates (not just a sensor).
  /// Ranked lists order time-significant entries before sensor-only
  /// ones regardless of |delta|: an inclusive ancestor with one
  /// activation can show a huge time delta and a significant thermal
  /// shift, but without rankable time evidence it must not outrank the
  /// leaf whose per-activation Welch test actually pinned the change.
  bool time_significant = false;
  std::vector<SensorDelta> sensors;
};

struct DiffOptions {
  /// Rank only deltas at or above this confidence (1 - p).
  double min_confidence = 0.95;
  /// Absolute and relative floors a time delta must also clear; both
  /// default permissive (the t-test is the primary gate).
  double min_time_delta_s = 0.0;
  double min_rel_change = 0.01;
  /// Floor for a sensor average delta, in the profile's display unit.
  double min_temp_delta = 0.1;
  /// Align per (node, function) instead of pooling across nodes.
  bool per_node = false;
};

struct DiffResult {
  std::string base_label;
  std::string cur_label;
  DiffOptions options;
  /// Significant deltas, regressions (time grew) and improvements (time
  /// shrank), each sorted by |delta_time_s| descending.
  std::vector<FunctionDelta> regressions;
  std::vector<FunctionDelta> improvements;
  /// Below-confidence or below-floor deltas: reported, never ranked.
  std::vector<FunctionDelta> insignificant;
  /// Functions absent on one side but declared by that side's FLTR
  /// trailer — tolerated, not treated as appear/vanish regressions.
  std::size_t filtered_tolerated = 0;
};

/// Align and score `cur` against `base`.
DiffResult diff_runs(const RunSummary& base, const RunSummary& cur,
                     const DiffOptions& options);

/// Human-readable ranking (regressions, improvements, then a short
/// insignificant summary).
void write_diff_text(std::ostream& out, const DiffResult& result);

/// Machine-readable dump of the same ranking.
void write_diff_json(std::ostream& out, const DiffResult& result);

}  // namespace tempest::diff
