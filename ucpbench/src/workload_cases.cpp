// The `grid` and `large` workloads: batch use cases through the library's
// sweep and group entry points, timed over the whole seeded list.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <map>
#include <memory>

#include "analysis/context_graph.hpp"
#include "cache/config.hpp"
#include "exp/harness.hpp"
#include "exp/journal.hpp"
#include "gen/generator.hpp"
#include "pipeline.hpp"
#include "suite/suite.hpp"
#include "wcet/ipet.hpp"
#include "workloads.hpp"

namespace ucpbench {

using namespace ucp;

namespace {

const std::vector<energy::TechNode> kTechs = {energy::TechNode::k45nm,
                                              energy::TechNode::k32nm};

/// Checks Theorem 1 and the auditor verdict on every row and counts the
/// non-clean ones; fills attempted/failed and the paper's ratio metrics.
void check_rows(const std::vector<exp::UseCaseResult>& rows, Report& report) {
  report.attempted = rows.size();
  double energy = 0, acet = 0, wcet = 0, instr = 0;
  std::size_t completed = 0, violations = 0, inconclusive = 0, theorem = 0;
  std::string first_theorem;
  for (const exp::UseCaseResult& r : rows) {
    const bool clean = r.outcome == exp::CaseOutcome::kCompleted &&
                       !r.audit.violated && !r.audit.inconclusive;
    if (!clean) ++report.failed;
    if (r.audit.violated) ++violations;
    if (r.audit.inconclusive) ++inconclusive;
    if (r.outcome != exp::CaseOutcome::kCompleted) continue;
    if (r.optimized.tau_wcet > r.original.tau_wcet && theorem++ == 0)
      first_theorem = r.program + "/" + r.config_id + ": tau_w " +
                      std::to_string(r.optimized.tau_wcet) + " > " +
                      std::to_string(r.original.tau_wcet);
    ++completed;
    energy += (1.0 - r.energy_ratio()) * 100.0;
    acet += (1.0 - r.acet_ratio()) * 100.0;
    wcet += (1.0 - r.wcet_ratio()) * 100.0;
    instr += (r.instr_ratio() - 1.0) * 100.0;
  }
  if (theorem > 0)
    report.fail(std::to_string(theorem) +
                " completed cases violate Theorem 1; first " + first_theorem);
  if (violations > 0 || inconclusive > 0)
    report.fail("auditor reported " + std::to_string(violations) +
                " violations and " + std::to_string(inconclusive) +
                " inconclusive results");
  const double n = completed > 0 ? static_cast<double>(completed) : 1.0;
  report.information("energy_saving_pct", energy / n, "%");
  report.information("acet_saving_pct", acet / n, "%");
  report.information("wcet_saving_pct", wcet / n, "%");
  report.information("instr_overhead_pct", instr / n, "%");
  report.information("failed_pct",
                     rows.empty() ? 0.0
                                  : 100.0 * static_cast<double>(report.failed) /
                                        static_cast<double>(rows.size()),
                     "%");
}

/// Row-by-row equality of the traced pass against the untraced pass.
void compare_rows(const std::vector<exp::UseCaseResult>& untraced,
                  const std::vector<exp::UseCaseResult>& traced,
                  Report& report) {
  if (untraced.size() != traced.size()) {
    report.fail("traced pass produced " + std::to_string(traced.size()) +
                " rows, untraced " + std::to_string(untraced.size()));
    return;
  }
  std::size_t differing = 0;
  for (std::size_t i = 0; i < untraced.size(); ++i) {
    if (exp::sweep_cache_row(untraced[i]) != exp::sweep_cache_row(traced[i]) ||
        untraced[i].outcome != traced[i].outcome) {
      if (differing == 0)
        report.fail("traced row differs from untraced: " +
                    exp::sweep_cache_row(traced[i]) + " vs " +
                    exp::sweep_cache_row(untraced[i]));
      ++differing;
    }
  }
  if (differing > 1)
    report.fail(std::to_string(differing) + " traced rows differ in total");
  report.notes.push_back("traced pass rows equal untraced rows: " +
                         std::string(differing == 0 ? "yes" : "NO"));
}

// --- grid -----------------------------------------------------------------

exp::SweepOptions grid_options(const Args& args) {
  std::vector<std::string> names;
  for (const suite::BenchmarkInfo& info : suite::all_benchmarks())
    names.push_back(info.name);
  // build_sweep_plan sorts tasks heaviest first, so this shuffle only
  // reorders tasks of equal weight.
  Rng rng(args.seed);
  rng.shuffle(names);
  // The full grid is sized for the default 20 s run; a shorter run takes a
  // seeded subset of the programs.
  const double share = std::min(1.0, args.seconds / 20.0);
  const auto keep = static_cast<std::size_t>(std::max(
      1.0, std::round(share * static_cast<double>(names.size()))));
  names.resize(std::min(keep, names.size()));

  exp::SweepOptions options;
  options.programs = names;
  options.config_stride = 1;
  options.techs = kTechs;
  options.threads = 1;
  options.progress_every = 0;
  options.max_attempts = 3;
  options.audit_soundness = true;
  options.journal_path = args.work_dir + "/grid.journal";
  return options;
}

Status open_fresh_journal(exp::SweepJournal& journal,
                          const exp::SweepOptions& options,
                          const exp::SweepPlan& plan, const std::string& path,
                          std::vector<exp::UseCaseResult>& rows) {
  std::filesystem::remove(path);
  rows.assign(plan.result_rows, exp::UseCaseResult{});
  std::vector<bool> have(plan.result_rows, false);
  return journal.open(
      path, exp::sweep_grid_fingerprint(),
      exp::SweepJournal::selection_fingerprint(options, plan.names), 0, 1,
      rows, have, [](std::size_t, const exp::UseCaseResult&) { return true; });
}

/// Rows in suite order (program, configuration, tech), independent of the
/// seeded program order, so the fingerprint names the result set.
std::string canonical_fingerprint(std::vector<exp::UseCaseResult> rows) {
  std::map<std::string, std::size_t> position;
  for (const suite::BenchmarkInfo& info : suite::all_benchmarks())
    position.emplace(info.name, position.size());
  std::stable_sort(rows.begin(), rows.end(),
                   [&](const exp::UseCaseResult& a,
                       const exp::UseCaseResult& b) {
                     return position[a.program] < position[b.program];
                   });
  return exp::sweep_results_fingerprint(rows);
}

}  // namespace

void report_end_to_end(double setup_s, double cases, double wall_s,
                       double cpu_s, Report& report, bool as_info) {
  report.information("timed_wall_s", wall_s, "s");
  report.information("timed_cpu_s", cpu_s, "s");
  auto put = [&](const char* name, double v, const char* unit) {
    if (as_info)
      report.information(name, v, unit);
    else
      report.metric(name, v, unit);
  };
  put("setup_s", setup_s, "s");
  put("cases_per_s", cases / wall_s, "1/s");
  put("peak_rss_mb", peak_rss_mib(), "MiB");
}

void report_idle_serve_layer(Report& report) {
  for (const char* name :
       {"serve.miss_ms", "serve.hit_ms", "serve.hit_ratio", "serve.replayed",
        "serve.shed", "serve.retried", "serve.watchdog_fires",
        "serve.queue_depth_peak", "serve.journal_append_ms"}) {
    const std::string n = name;
    const bool ms = n.size() > 3 && n.compare(n.size() - 3, 3, "_ms") == 0;
    report.metric(n, 0.0,
                  ms ? "ms" : (n == "serve.hit_ratio" ? "ratio" : "count"));
  }
}

void report_run_layer(double dark_pct, double traced_s, double untraced_s,
                      Report& report) {
  report.metric("run.dark_pct", dark_pct, "%");
  report.metric("run.trace_overhead_pct",
                untraced_s > 0 ? 100.0 * (traced_s - untraced_s) / untraced_s
                               : 0.0,
                "%");
}

Report run_grid(const Args& args) {
  Report report;
  report.workload = "grid";
  const exp::SweepOptions options = grid_options(args);

  // Set-up: building the suite programs and opening the sweep journal,
  // repeated so the reported figure is a median.
  std::vector<double> setups;
  for (int i = 0; i < kGridSetups; ++i) {
    const Clock::time_point start = Clock::now();
    const exp::SweepPlan plan = exp::build_sweep_plan(options);
    exp::SweepJournal journal;
    std::vector<exp::UseCaseResult> rows;
    const Status opened = open_fresh_journal(journal, options, plan,
                                             options.journal_path, rows);
    journal.close();
    setups.push_back(seconds_since(start));
    if (!opened.ok()) report.fail("journal open: " + opened.message());
  }
  std::filesystem::remove(options.journal_path);

  const double cpu_start = process_cpu_s();
  const Clock::time_point start = Clock::now();
  const exp::Sweep sweep = exp::run_sweep(options);
  const double wall_s = seconds_since(start);
  const double cpu_s = process_cpu_s() - cpu_start;
  std::filesystem::remove(options.journal_path);

  const exp::SweepReport& health = sweep.report;
  if (health.total != sweep.results.size() || health.resumed_rows != 0)
    report.fail("sweep report total " + std::to_string(health.total) +
                ", resumed " + std::to_string(health.resumed_rows));
  if (health.audit_violations != 0 || health.audit_inconclusive != 0)
    report.fail("sweep auditor: " + std::to_string(health.audit_violations) +
                " violations, " + std::to_string(health.audit_inconclusive) +
                " inconclusive");
  check_rows(sweep.results, report);
  report.fingerprint = canonical_fingerprint(sweep.results);
  report.notes.push_back(std::to_string(options.programs.size()) +
                         " programs x 36 configurations x 2 techs, " +
                         std::to_string(health.retried) + " retried");
  report_end_to_end(median(setups), static_cast<double>(sweep.results.size()),
                    wall_s, cpu_s, report, args.trace);
  if (!args.trace) return report;

  // Traced pass: the same tasks in the sweep's schedule order, one span per
  // layer call, journal appends included.
  begin_counting();
  Tracer tracer;
  const std::int64_t traced_start = Tracer::now_ns();
  const Clock::time_point traced_clock = Clock::now();
  const exp::SweepPlan plan = exp::build_sweep_plan(options);
  const auto& configs = cache::paper_cache_configs();
  exp::SweepJournal journal;
  std::vector<exp::UseCaseResult> rows;
  {
    Tracer::Scope s(&tracer, span::kJournalOpen);
    const Status opened = open_fresh_journal(
        journal, options, plan, args.work_dir + "/grid-traced.journal", rows);
    if (!opened.ok()) report.fail("traced journal open: " + opened.message());
  }
  std::vector<TracedProgram> systems;
  for (const ir::Program& program : plan.programs)
    systems.push_back(build_traced_program(program, tracer));
  std::vector<exp::UseCaseResult> group;
  for (const std::size_t t : plan.schedule) {
    const exp::SweepPlan::Task& task = plan.tasks[t];
    std::string why;
    if (!run_traced_group(plan.programs[task.program], plan.names[task.program],
                          configs[task.config], options.techs,
                          options.optimizer, *systems[task.program].ipet,
                          tracer, group, why)) {
      report.fail("traced pass: " + why);
      break;
    }
    for (std::size_t k = 0; k < group.size(); ++k)
      rows[task.first + k] = std::move(group[k]);
    Tracer::Scope s(&tracer, span::kJournalAppend);
    const Status appended = journal.append(rows, task.first, kTechs.size());
    if (!appended.ok()) report.fail("traced journal: " + appended.message());
  }
  journal.close();
  const double traced_s = seconds_since(traced_clock);
  const double dark = tracer.dark_pct(traced_start, Tracer::now_ns());
  end_counting();
  std::filesystem::remove(args.work_dir + "/grid-traced.journal");

  compare_rows(sweep.results, rows, report);
  report_pipeline_layers(tracer, report);
  report_idle_serve_layer(report);
  report_run_layer(dark, traced_s, wall_s, report);
  tracer.write_chrome_trace(args.work_dir + "/grid.trace.json");
  return report;
}

// --- large ----------------------------------------------------------------

namespace {

/// One generated program of the `large` pool: the knob recipe of
/// bench_scaling (CFG size = scale × the suite-average 24 blocks, nesting 2,
/// a 1024-word working set) at a fixed generator seed.
struct PoolEntry {
  std::uint32_t scale;
  std::uint64_t gen_seed;
};

// Heaviest first, so a shortened run keeps the audit-dominated cases. The
// 60× and 40× programs accept insertions on k1 (the auditor's dense ILP
// then dominates the case); on k36 none is accepted and analysis plus
// simulation dominate.
const std::vector<PoolEntry> kPool = {
    {60, 906060}, {40, 940001}, {40, 940002}, {40, 940003}, {40, 940004},
    {40, 940005}, {40, 940006}, {30, 930001}, {30, 930002}, {30, 930003},
    {30, 930004}, {30, 930005}, {30, 930006}, {30, 930007}, {30, 930008}};
const char* const kLargeConfigs[] = {"k1", "k36"};

gen::GenKnobs knobs_for(std::uint32_t scale) {
  gen::GenKnobs knobs;
  knobs.target_blocks = 24 * scale;
  knobs.max_loop_depth = 2;
  knobs.working_set_words = 1024;
  return knobs;
}

struct LargeCase {
  std::size_t program;
  std::size_t config;
};

}  // namespace

Report run_large(const Args& args) {
  Report report;
  report.workload = "large";
  const double share = std::min(1.0, args.seconds / 20.0);
  const auto count = static_cast<std::size_t>(std::max(
      1.0, std::round(share * static_cast<double>(kPool.size()))));
  const std::vector<PoolEntry> pool(kPool.begin(),
                                    kPool.begin() + std::min(count, kPool.size()));

  std::vector<ir::Program> programs;
  std::vector<std::string> names;
  std::vector<double> setups;
  for (int i = 0; i < kLargeSetups; ++i) {
    const Clock::time_point start = Clock::now();
    programs.clear();
    names.clear();
    for (const PoolEntry& e : pool) {
      programs.push_back(gen::generate_program(e.gen_seed, knobs_for(e.scale)));
      names.push_back("gen" + std::to_string(e.scale) + "x-" +
                      std::to_string(e.gen_seed));
    }
    setups.push_back(seconds_since(start));
  }

  // Seeded case order; rows are stored at their canonical (pool, config)
  // position so the fingerprint does not depend on the order.
  std::vector<LargeCase> order;
  for (std::size_t p = 0; p < programs.size(); ++p)
    for (std::size_t c = 0; c < std::size(kLargeConfigs); ++c)
      order.push_back({p, c});
  Rng rng(args.seed);
  rng.shuffle(order);
  auto slot = [&](const LargeCase& lc) {
    return (lc.program * std::size(kLargeConfigs) + lc.config) * kTechs.size();
  };
  const core::OptimizerOptions options;

  // One IPET system per program, all built first as run_sweep does: the
  // memory they hold is then the same whichever case peaks.
  std::vector<exp::UseCaseResult> rows(order.size() * kTechs.size());
  std::vector<std::unique_ptr<analysis::ContextGraph>> graphs;
  std::vector<std::unique_ptr<wcet::IpetSystem>> systems;
  Samples case_ms;
  const double cpu_start = process_cpu_s();
  const Clock::time_point start = Clock::now();
  for (const ir::Program& program : programs) {
    graphs.push_back(std::make_unique<analysis::ContextGraph>(program));
    systems.push_back(std::make_unique<wcet::IpetSystem>(*graphs.back()));
  }
  for (const LargeCase& lc : order) {
    const Clock::time_point case_start = Clock::now();
    std::vector<exp::UseCaseResult> group = exp::run_use_case_group(
        programs[lc.program], names[lc.program],
        cache::paper_cache_config(kLargeConfigs[lc.config]), kTechs, options,
        nullptr, systems[lc.program].get(), /*audit_soundness=*/true);
    for (std::size_t k = 0; k < group.size(); ++k)
      rows[slot(lc) + k] = std::move(group[k]);
    case_ms.add(seconds_since(case_start) * 1e3);
  }
  const double wall_s = seconds_since(start);
  const double cpu_s = process_cpu_s() - cpu_start;
  systems.clear();
  graphs.clear();

  check_rows(rows, report);
  report.fingerprint = exp::sweep_results_fingerprint(rows);
  report.notes.push_back(std::to_string(programs.size()) +
                         " generated programs x {k1, k36} x 2 techs");
  report.information("case_samples", static_cast<double>(case_ms.size()),
                     "count");
  report.information("case_p50_ms", case_ms.quantile(0.5), "ms");
  report.information("case_max_ms", case_ms.quantile(1.0), "ms");
  report_end_to_end(median(setups), static_cast<double>(rows.size()), wall_s,
                    cpu_s, report, args.trace);
  if (!args.trace) return report;

  begin_counting();
  Tracer tracer;
  const std::int64_t traced_start = Tracer::now_ns();
  const Clock::time_point traced_clock = Clock::now();
  std::vector<exp::UseCaseResult> traced(rows.size());
  std::vector<TracedProgram> traced_systems;
  for (const ir::Program& program : programs)
    traced_systems.push_back(build_traced_program(program, tracer));
  std::vector<exp::UseCaseResult> group;
  for (const LargeCase& lc : order) {
    std::string why;
    if (!run_traced_group(programs[lc.program], names[lc.program],
                          cache::paper_cache_config(kLargeConfigs[lc.config]),
                          kTechs, options, *traced_systems[lc.program].ipet,
                          tracer, group, why)) {
      report.fail("traced pass: " + why);
      break;
    }
    for (std::size_t k = 0; k < group.size(); ++k)
      traced[slot(lc) + k] = std::move(group[k]);
  }
  const double traced_s = seconds_since(traced_clock);
  const double dark = tracer.dark_pct(traced_start, Tracer::now_ns());
  end_counting();

  compare_rows(rows, traced, report);
  report_pipeline_layers(tracer, report);
  report_idle_serve_layer(report);
  report_run_layer(dark, traced_s, wall_s, report);
  tracer.write_chrome_trace(args.work_dir + "/large.trace.json");
  return report;
}

}  // namespace ucpbench
