#include "diff/diff.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>
#include <map>
#include <ostream>
#include <set>

#include "common/fastwrite.hpp"
#include "common/json.hpp"
#include "pipeline/sinks.hpp"
#include "pipeline/source.hpp"

namespace tempest::diff {
namespace {

/// Continued-fraction evaluation for the incomplete beta (modified
/// Lentz); converges in a few dozen iterations for the t-CDF arguments
/// this file produces.
double betacf(double a, double b, double x) {
  constexpr int kMaxIter = 200;
  constexpr double kEps = 3e-12;
  constexpr double kTiny = 1e-300;
  const double qab = a + b;
  const double qap = a + 1.0;
  const double qam = a - 1.0;
  double c = 1.0;
  double d = 1.0 - qab * x / qap;
  if (std::fabs(d) < kTiny) d = kTiny;
  d = 1.0 / d;
  double h = d;
  for (int m = 1; m <= kMaxIter; ++m) {
    const double m2 = 2.0 * m;
    double aa = m * (b - m) * x / ((qam + m2) * (a + m2));
    d = 1.0 + aa * d;
    if (std::fabs(d) < kTiny) d = kTiny;
    c = 1.0 + aa / c;
    if (std::fabs(c) < kTiny) c = kTiny;
    d = 1.0 / d;
    h *= d * c;
    aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2));
    d = 1.0 + aa * d;
    if (std::fabs(d) < kTiny) d = kTiny;
    c = 1.0 + aa / c;
    if (std::fabs(c) < kTiny) c = kTiny;
    d = 1.0 / d;
    const double del = d * c;
    h *= del;
    if (std::fabs(del - 1.0) < kEps) break;
  }
  return h;
}

/// Two-tailed p-value of Student's t with `dof` degrees of freedom:
/// p = I_{v/(v+t²)}(v/2, 1/2).
double student_two_tailed_p(double t_abs, double dof) {
  if (dof <= 0.0) return 1.0;
  const double x = dof / (dof + t_abs * t_abs);
  return reg_incomplete_beta(dof / 2.0, 0.5, x);
}

std::string function_key(const parser::FunctionProfile& fn) {
  if (!fn.name.empty() && fn.name != "<unknown>") return fn.name;
  // Address fallback for unresolved symbols; '@' cannot start a mangled
  // or hex name, so fallback keys never collide with real symbols.
  char buf[2 + 16 + 2];
  std::snprintf(buf, sizeof buf, "@0x%llx",
                static_cast<unsigned long long>(fn.addr));
  return buf;
}

bool filter_declares(const trace::FilterDecl& filter, const std::string& name) {
  if (!filter.present) return false;
  return std::find(filter.suppressed.begin(), filter.suppressed.end(), name) !=
         filter.suppressed.end();
}

void append_num6(std::string& out, double v) {
  fastwrite::append_fixed(out, v, 6);
}

/// Time fields get 9 digits: per-activation means are often sub-
/// microsecond and would flush to 0.000000 at the report precision.
void append_time(std::string& out, double v) {
  fastwrite::append_fixed(out, v, 9);
}

void append_delta_entry(std::string& buf, const FunctionDelta& d,
                        bool per_node) {
  buf += "{\"function\":";
  json::append_json_string(&buf, d.key);
  if (per_node) {
    buf += ",\"node_id\":";
    fastwrite::append_u64(buf, d.node_id);
  }
  buf += ",\"status\":\"";
  buf += match_status_name(d.status);
  buf += "\",\"delta_time_s\":";
  append_time(buf, d.delta_time_s);
  buf += ",\"delta_calls\":";
  if (d.delta_calls < 0) buf += "-";
  fastwrite::append_u64(buf, static_cast<std::uint64_t>(
                                 d.delta_calls < 0 ? -d.delta_calls
                                                   : d.delta_calls));
  buf += ",\"rel_change\":";
  if (std::isfinite(d.rel_change)) {
    append_num6(buf, d.rel_change);
  } else {
    buf += "null";
  }
  buf += ",\"t\":";
  if (std::isfinite(d.t_stat)) {
    append_num6(buf, d.t_stat);
  } else {
    buf += "null";
  }
  buf += ",\"confidence\":";
  append_num6(buf, d.confidence);
  buf += ",\"significant\":";
  buf += d.significant ? "true" : "false";
  buf += ",\"time_significant\":";
  buf += d.time_significant ? "true" : "false";
  for (const char* which : {"base", "cur"}) {
    const FunctionSide& s = which[0] == 'b' ? d.base : d.cur;
    buf += ",\"";
    buf += which;
    buf += "\":";
    if (!s.present) {
      buf += "null";
      continue;
    }
    buf += "{\"calls\":";
    fastwrite::append_u64(buf, s.calls);
    buf += ",\"total_time_s\":";
    append_time(buf, s.total_time_s);
    buf += ",\"activations\":";
    fastwrite::append_u64(buf, s.time.count);
    buf += ",\"time_mean_s\":";
    append_time(buf, s.time.mean_s);
    buf += ",\"time_sdv_s\":";
    append_time(buf, s.time.sdv_s);
    buf += "}";
  }
  buf += ",\"sensors\":[";
  for (std::size_t i = 0; i < d.sensors.size(); ++i) {
    const SensorDelta& sd = d.sensors[i];
    if (i > 0) buf += ",";
    buf += "{\"name\":";
    json::append_json_string(&buf, sd.name);
    buf += ",\"base_avg\":";
    append_num6(buf, sd.base_avg);
    buf += ",\"cur_avg\":";
    append_num6(buf, sd.cur_avg);
    buf += ",\"delta_avg\":";
    append_num6(buf, sd.delta_avg);
    buf += ",\"confidence\":";
    append_num6(buf, sd.confidence);
    buf += ",\"significant\":";
    buf += sd.significant ? "true" : "false";
    buf += "}";
  }
  buf += "]}";
}

void write_ranked_text(std::string& buf, const char* title,
                       const std::vector<FunctionDelta>& list) {
  buf += title;
  buf += " (";
  fastwrite::append_u64(buf, list.size());
  buf += "):\n";
  std::size_t rank = 1;
  for (const FunctionDelta& d : list) {
    buf += "  ";
    fastwrite::append_u64(buf, rank++);
    buf += ". ";
    buf += d.key;
    buf += "  ";
    if (d.delta_time_s >= 0.0) buf += "+";
    append_time(buf, d.delta_time_s);
    buf += " s";
    if (std::isfinite(d.rel_change)) {
      buf += " (";
      if (d.rel_change >= 0.0) buf += "+";
      append_num6(buf, d.rel_change * 100.0);
      buf += "%)";
    } else if (d.status == MatchStatus::kCurrentOnly) {
      buf += " (appeared)";
    } else if (d.status == MatchStatus::kBaselineOnly) {
      buf += " (vanished)";
    }
    buf += "  calls ";
    fastwrite::append_u64(buf, d.base.calls);
    buf += " -> ";
    fastwrite::append_u64(buf, d.cur.calls);
    buf += "  confidence ";
    append_num6(buf, d.confidence);
    buf += "\n";
  }
}

}  // namespace

Pool pool_profile(const parser::RunProfile& profile, bool per_node) {
  Pool pool;
  for (const auto& node : profile.nodes) {
    for (const auto& fn : node.functions) {
      const std::uint16_t slot = per_node ? node.node_id : 0;
      PooledFunction& p = pool[{slot, function_key(fn)}];
      p.calls += fn.calls;
      p.total_time_s += fn.total_time_s;
      p.time.merge(Moments::from_variance(fn.time.count, fn.time.mean_s,
                                          fn.time.var_s2));
      for (const auto& sp : fn.sensors) {
        p.sensors[sp.name].merge(Moments::from_variance(
            sp.sample_count, sp.stats.avg, sp.stats.var));
      }
    }
  }
  return pool;
}

FunctionSide side_from(const PooledFunction& p) {
  FunctionSide s;
  s.present = true;
  s.calls = p.calls;
  s.total_time_s = p.total_time_s;
  s.time.count = p.time.count;
  s.time.mean_s = p.time.mean;
  s.time.var_s2 = p.time.variance();
  s.time.sdv_s = std::sqrt(s.time.var_s2);
  return s;
}

double reg_incomplete_beta(double a, double b, double x) {
  if (x <= 0.0) return 0.0;
  if (x >= 1.0) return 1.0;
  const double ln_front = std::lgamma(a + b) - std::lgamma(a) -
                          std::lgamma(b) + a * std::log(x) +
                          b * std::log1p(-x);
  const double front = std::exp(ln_front);
  if (x < (a + 1.0) / (a + b + 2.0)) {
    return front * betacf(a, b, x) / a;
  }
  return 1.0 - front * betacf(b, a, 1.0 - x) / b;
}

WelchResult welch_compare(double mean_a, double var_a, double n_a,
                          double mean_b, double var_b, double n_b) {
  WelchResult r;
  if (n_a < 2.0 || n_b < 2.0) return r;  // no spread estimate: not computable
  // The profiles carry population variance; Welch wants the unbiased
  // sample variance.
  const double sa2 = var_a * n_a / (n_a - 1.0);
  const double sb2 = var_b * n_b / (n_b - 1.0);
  const double se2 = sa2 / n_a + sb2 / n_b;
  r.computable = true;
  r.dof = n_a + n_b - 2.0;
  if (se2 <= 0.0) {
    // Zero spread on both sides: the difference (if any) is exact.
    if (mean_a == mean_b) return r;  // t = 0, confidence 0
    r.t = mean_b > mean_a ? std::numeric_limits<double>::infinity()
                          : -std::numeric_limits<double>::infinity();
    r.confidence = 1.0;
    return r;
  }
  r.t = (mean_b - mean_a) / std::sqrt(se2);
  const double den = (sa2 / n_a) * (sa2 / n_a) / (n_a - 1.0) +
                     (sb2 / n_b) * (sb2 / n_b) / (n_b - 1.0);
  if (den > 0.0) r.dof = se2 * se2 / den;  // Welch–Satterthwaite
  r.confidence = 1.0 - student_two_tailed_p(std::fabs(r.t), r.dof);
  return r;
}

const char* match_status_name(MatchStatus status) {
  switch (status) {
    case MatchStatus::kMatched: return "matched";
    case MatchStatus::kBaselineOnly: return "vanished";
    case MatchStatus::kCurrentOnly: return "appeared";
    case MatchStatus::kFilteredBase: return "filtered_baseline";
    case MatchStatus::kFilteredCurrent: return "filtered_current";
  }
  return "unknown";
}

Result<RunSummary> load_run(const std::string& path,
                            const LoadOptions& options) {
  pipeline::TraceInput input;
  Status ran = input.open({path}, options.align, options.threads);
  pipeline::AnalysisOptions analysis;
  analysis.profile = options.profile;
  analysis.exe_override = options.exe_override;
  analysis.threads = options.threads;
  pipeline::AnalysisSink sink(std::move(analysis));
  if (ran) ran = input.run({&sink});
  if (!ran) return Result<RunSummary>::error(ran.message());

  RunSummary summary;
  summary.source = path;
  summary.profile = std::move(sink.result().profile);
  summary.run_stats = sink.result().run_stats;
  summary.filter = input.meta().filter;
  return summary;
}

DiffResult diff_runs(const RunSummary& base, const RunSummary& cur,
                     const DiffOptions& options) {
  DiffResult out;
  out.base_label = base.source;
  out.cur_label = cur.source;
  out.options = options;

  const Pool base_pool = pool_profile(base.profile, options.per_node);
  const Pool cur_pool = pool_profile(cur.profile, options.per_node);

  std::set<std::pair<std::uint16_t, std::string>> keys;
  for (const auto& [k, v] : base_pool) keys.insert(k);
  for (const auto& [k, v] : cur_pool) keys.insert(k);

  std::vector<FunctionDelta> significant;
  for (const auto& key : keys) {
    const auto bit = base_pool.find(key);
    const auto cit = cur_pool.find(key);
    FunctionDelta d;
    d.key = key.second;
    d.node_id = key.first;

    if (bit != base_pool.end()) d.base = side_from(bit->second);
    if (cit != cur_pool.end()) d.cur = side_from(cit->second);
    d.delta_time_s = d.cur.total_time_s - d.base.total_time_s;
    d.delta_calls = static_cast<std::int64_t>(d.cur.calls) -
                    static_cast<std::int64_t>(d.base.calls);

    if (bit == base_pool.end() || cit == cur_pool.end()) {
      // One-sided key. A FLTR declaration on the absent side means the
      // recorder deliberately suppressed it there — tolerated, never
      // ranked as a regression.
      const bool absent_in_cur = cit == cur_pool.end();
      const trace::FilterDecl& filter = absent_in_cur ? cur.filter : base.filter;
      if (filter_declares(filter, d.key)) {
        d.status = absent_in_cur ? MatchStatus::kFilteredCurrent
                                 : MatchStatus::kFilteredBase;
        ++out.filtered_tolerated;
        out.insignificant.push_back(std::move(d));
        continue;
      }
      d.status = absent_in_cur ? MatchStatus::kBaselineOnly
                               : MatchStatus::kCurrentOnly;
      d.rel_change = absent_in_cur ? -1.0
                                   : std::numeric_limits<double>::infinity();
      // An appearance/disappearance is a deterministic difference.
      d.confidence = 1.0;
      d.significant = std::fabs(d.delta_time_s) >= options.min_time_delta_s;
      d.time_significant = d.significant;
      if (d.significant) {
        significant.push_back(std::move(d));
      } else {
        out.insignificant.push_back(std::move(d));
      }
      continue;
    }

    d.status = MatchStatus::kMatched;
    d.rel_change = d.base.total_time_s > 0.0
                       ? d.delta_time_s / d.base.total_time_s
                       : (d.delta_time_s != 0.0
                              ? std::numeric_limits<double>::infinity()
                              : 0.0);

    const WelchResult time_welch = welch_compare(
        d.base.time.mean_s, d.base.time.var_s2,
        static_cast<double>(d.base.time.count), d.cur.time.mean_s,
        d.cur.time.var_s2, static_cast<double>(d.cur.time.count));
    d.t_stat = time_welch.t;
    d.confidence = time_welch.confidence;
    const bool time_significant =
        time_welch.confidence >= options.min_confidence &&
        std::fabs(d.delta_time_s) >= options.min_time_delta_s &&
        (d.base.total_time_s <= 0.0 ||
         std::fabs(d.rel_change) >= options.min_rel_change);

    bool sensor_significant = false;
    const PooledFunction& bp = bit->second;
    const PooledFunction& cp = cit->second;
    for (const auto& [sname, bm] : bp.sensors) {
      const auto cs = cp.sensors.find(sname);
      if (cs == cp.sensors.end()) continue;
      const Moments& cm = cs->second;
      SensorDelta sd;
      sd.name = sname;
      sd.base_count = bm.count;
      sd.cur_count = cm.count;
      sd.base_avg = bm.mean;
      sd.cur_avg = cm.mean;
      sd.delta_avg = cm.mean - bm.mean;
      const WelchResult w = welch_compare(
          bm.mean, bm.variance(), static_cast<double>(bm.count), cm.mean,
          cm.variance(), static_cast<double>(cm.count));
      sd.confidence = w.confidence;
      sd.significant = w.confidence >= options.min_confidence &&
                       std::fabs(sd.delta_avg) >= options.min_temp_delta;
      sensor_significant = sensor_significant || sd.significant;
      d.confidence = std::max(d.confidence, sd.confidence);
      d.sensors.push_back(std::move(sd));
    }

    d.significant = time_significant || sensor_significant;
    d.time_significant = time_significant;
    if (d.significant) {
      significant.push_back(std::move(d));
    } else {
      out.insignificant.push_back(std::move(d));
    }
  }

  const auto by_magnitude = [](const FunctionDelta& a, const FunctionDelta& b) {
    // Time-evidence entries outrank sensor-only ones: an inclusive
    // ancestor (one activation, no time variance) can carry the
    // largest absolute delta plus a significant thermal shift, but the
    // leaf whose per-activation Welch test pinned the change is the
    // culprit the ranking exists to surface.
    if (a.time_significant != b.time_significant) return a.time_significant;
    const double ma = std::fabs(a.delta_time_s);
    const double mb = std::fabs(b.delta_time_s);
    if (ma != mb) return ma > mb;
    if (a.confidence != b.confidence) return a.confidence > b.confidence;
    if (a.key != b.key) return a.key < b.key;
    return a.node_id < b.node_id;
  };
  for (FunctionDelta& d : significant) {
    if (d.delta_time_s >= 0.0) {
      out.regressions.push_back(std::move(d));
    } else {
      out.improvements.push_back(std::move(d));
    }
  }
  std::sort(out.regressions.begin(), out.regressions.end(), by_magnitude);
  std::sort(out.improvements.begin(), out.improvements.end(), by_magnitude);
  return out;
}

void write_diff_text(std::ostream& out, const DiffResult& result) {
  std::string buf;
  buf.reserve(std::size_t{8} << 10);
  buf += "tempest-diff: baseline=";
  buf += result.base_label;
  buf += " current=";
  buf += result.cur_label;
  buf += "\nconfidence threshold ";
  append_num6(buf, result.options.min_confidence);
  buf += "\n\n";
  write_ranked_text(buf, "regressions", result.regressions);
  buf += "\n";
  write_ranked_text(buf, "improvements", result.improvements);
  buf += "\n";
  buf += "not ranked (";
  fastwrite::append_u64(buf, result.insignificant.size());
  buf += " below confidence/delta floors";
  if (result.filtered_tolerated > 0) {
    buf += ", ";
    fastwrite::append_u64(buf, result.filtered_tolerated);
    buf += " filter-suppressed";
  }
  buf += ")\n";
  out.write(buf.data(), static_cast<std::streamsize>(buf.size()));
}

void write_diff_json(std::ostream& out, const DiffResult& result) {
  std::string buf;
  buf.reserve(std::size_t{16} << 10);
  buf += "{\"schema\":\"tempest-diff\",\"schema_version\":1,\"baseline\":";
  json::append_json_string(&buf, result.base_label);
  buf += ",\"current\":";
  json::append_json_string(&buf, result.cur_label);
  buf += ",\"min_confidence\":";
  append_num6(buf, result.options.min_confidence);
  buf += ",\"filtered_tolerated\":";
  fastwrite::append_u64(buf, result.filtered_tolerated);
  const bool per_node = result.options.per_node;
  for (const auto& [name, list] :
       {std::pair<const char*, const std::vector<FunctionDelta>*>{
            "regressions", &result.regressions},
        {"improvements", &result.improvements},
        {"insignificant", &result.insignificant}}) {
    buf += ",\"";
    buf += name;
    buf += "\":[";
    for (std::size_t i = 0; i < list->size(); ++i) {
      if (i > 0) buf += ",";
      append_delta_entry(buf, (*list)[i], per_node);
    }
    buf += "]";
  }
  buf += "}";
  out.write(buf.data(), static_cast<std::streamsize>(buf.size()));
}

}  // namespace tempest::diff
