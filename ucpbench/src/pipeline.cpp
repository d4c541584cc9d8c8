#include "pipeline.hpp"

#include <cmath>
#include <optional>

#include "analysis/cache_analysis.hpp"
#include "ilp/model.hpp"
#include "ir/layout.hpp"
#include "obs/metrics.hpp"
#include "sim/interpreter.hpp"
#include "support/status.hpp"

namespace ucpbench {

using namespace ucp;

TraceTotals& trace_totals() {
  static TraceTotals totals;
  return totals;
}

TracedProgram build_traced_program(const ir::Program& program,
                                   Tracer& tracer) {
  TracedProgram built;
  {
    Tracer::Scope s(&tracer, span::kGraphBuild);
    built.graph = std::make_unique<analysis::ContextGraph>(program);
  }
  {
    Tracer::Scope s(&tracer, span::kIpetBuild);
    built.ipet = std::make_unique<wcet::IpetSystem>(*built.graph);
  }
  trace_totals().lp_rows += built.ipet->lp_rows();
  return built;
}

namespace {

// exp::measure_checked, one wrapped call per layer. `ipet` is the shared
// system when the program's CFG is the one it was built from; nullptr
// builds the graph and system here, as the library does.
Expected<exp::Metrics> traced_measure(const ir::Program& program,
                                      const cache::CacheConfig& config,
                                      energy::TechNode tech,
                                      const wcet::IpetSystem* ipet,
                                      Tracer& tracer) {
  const cache::MemTiming timing = energy::derive_timing(config, tech);
  exp::Metrics m;
  const ir::Layout layout(program, config.block_bytes);
  m.code_bytes = layout.code_bytes();
  std::optional<TracedProgram> own;
  if (!ipet) {
    own = build_traced_program(program, tracer);
    ipet = own->ipet.get();
  }
  std::optional<analysis::CacheAnalysisResult> cls;
  {
    Tracer::Scope s(&tracer, span::kFixpoint);
    cls.emplace(analysis::analyze_cache(ipet->graph(), layout, config));
  }
  wcet::WcetResult wcet;
  {
    Tracer::Scope s(&tracer, span::kIlpSolve);
    wcet = ipet->solve(*cls, timing);
  }
  if (own) ipet->charge_construction(wcet.stats);
  m.solver = wcet.stats;
  if (!wcet.ok())
    return Status(wcet::solve_error_code(wcet.status),
                  "IPET failed (" + ilp::status_name(wcet.status) + ")");
  m.tau_wcet = wcet.tau_mem;
  std::optional<Expected<sim::RunMetrics>> run;
  {
    Tracer::Scope s(&tracer, span::kSimRun);
    run.emplace(sim::run_program_checked(program, config, timing));
  }
  if (!run->ok()) return run->status();
  m.run = std::move(*run).value();
  trace_totals().sim_instructions += m.run.instructions;
  {
    Tracer::Scope s(&tracer, span::kEnergy);
    m.energy = energy::memory_energy(m.run, config, tech);
  }
  return m;
}

// Mirrors the library's quarantine of a case to its original binary.
void degrade(exp::UseCaseResult& r, ErrorCode code, const std::string& stage,
             const std::string& detail) {
  r.outcome = exp::CaseOutcome::kDegraded;
  r.fail_stage = stage;
  r.fail_code = code;
  r.fail_detail = detail;
  r.optimized = r.original;
  r.optimized.solver = ilp::SolveStats{};
  r.report = core::OptimizationReport{};
  r.report.code = code;
  r.report.detail = detail;
  r.report.tau_original = r.original.tau_wcet;
  r.report.tau_optimized = r.original.tau_wcet;
  r.report.tau_fixed_final = r.original.tau_wcet;
}

}  // namespace

bool run_traced_group(const ir::Program& program,
                      const std::string& program_name,
                      const cache::NamedCacheConfig& config,
                      const std::vector<energy::TechNode>& techs,
                      const core::OptimizerOptions& options,
                      const wcet::IpetSystem& ipet, Tracer& tracer,
                      std::vector<exp::UseCaseResult>& out, std::string& why,
                      ir::Program* optimized_out) {
  if (optimized_out) *optimized_out = program;
  out.assign(techs.size(), exp::UseCaseResult{});
  for (std::size_t i = 0; i < techs.size(); ++i) {
    out[i].program = program_name;
    out[i].config_id = config.id;
    out[i].config = config.config;
    out[i].tech = techs[i];
  }

  // Tech nodes with equal derived timing share everything but the energy
  // pricing, exactly as in the library.
  std::vector<cache::MemTiming> group_timing;
  std::vector<std::vector<std::size_t>> members_of;
  for (std::size_t i = 0; i < techs.size(); ++i) {
    const cache::MemTiming t = energy::derive_timing(config.config, techs[i]);
    std::size_t g = 0;
    while (g < group_timing.size() &&
           !(group_timing[g].hit_cycles == t.hit_cycles &&
             group_timing[g].miss_cycles == t.miss_cycles &&
             group_timing[g].prefetch_latency == t.prefetch_latency))
      ++g;
    if (g == group_timing.size()) {
      group_timing.push_back(t);
      members_of.emplace_back();
    }
    members_of[g].push_back(i);
  }

  for (std::size_t g = 0; g < group_timing.size(); ++g) {
    const cache::MemTiming& timing = group_timing[g];
    const std::vector<std::size_t>& members = members_of[g];
    const energy::TechNode lead = techs[members.front()];

    const Expected<exp::Metrics> original =
        traced_measure(program, config.config, lead, &ipet, tracer);
    if (!original.ok()) {
      why = program_name + "/" + config.id + ": original measurement " +
            original.status().message();
      return false;
    }
    for (std::size_t m : members) {
      out[m].original = original.value();
      Tracer::Scope s(&tracer, span::kEnergy);
      out[m].original.energy = energy::memory_energy(out[m].original.run,
                                                     config.config, techs[m]);
    }

    std::optional<core::OptimizationResult> opt;
    {
      Tracer::Scope s(&tracer, span::kOptimize);
      opt.emplace(core::optimize_prefetches(program, config.config, timing,
                                            options, &ipet));
    }
    if (opt->report.code != ErrorCode::kOk) {
      for (std::size_t m : members)
        degrade(out[m], opt->report.code, "optimize", opt->report.detail);
      continue;
    }

    const Expected<exp::Metrics> optimized = traced_measure(
        opt->program, config.config, lead,
        opt->report.insertions.empty() ? &ipet : nullptr, tracer);
    for (std::size_t m : members) {
      out[m].report = opt->report;
      if (!optimized.ok()) {
        degrade(out[m], optimized.code(), "measure_optimized",
                optimized.status().detail());
        continue;
      }
      out[m].optimized = optimized.value();
      Tracer::Scope s(&tracer, span::kEnergy);
      out[m].optimized.energy = energy::memory_energy(
          out[m].optimized.run, config.config, techs[m]);
    }
    if (!optimized.ok()) continue;

    // The soundness auditor, call for call.
    exp::AuditRecord audit;
    {
      Tracer::Scope audit_span(&tracer, span::kAudit);
      audit.performed = true;
      const exp::Metrics& orig = original.value();
      const exp::Metrics& opti = optimized.value();
      if (opti.tau_wcet > orig.tau_wcet) {
        audit.violated = true;
        audit.detail = "Theorem 1 violated";
      } else if (orig.run.mem_cycles > orig.tau_wcet) {
        audit.violated = true;
        audit.detail = "simulation exceeds the IPET bound";
      } else if (!opt->report.insertions.empty()) {
        const ir::Layout opt_layout(opt->program, config.config.block_bytes);
        std::optional<analysis::CacheAnalysisResult> cls;
        {
          Tracer::Scope s(&tracer, span::kFixpoint);
          cls.emplace(analysis::analyze_cache(ipet.graph(), opt->program,
                                              opt_layout, config.config));
        }
        std::optional<ilp::Model> model;
        {
          Tracer::Scope s(&tracer, span::kAuditModel);
          model.emplace(ipet.model_with_objective(*cls, timing));
        }
        ilp::Solution dense;
        {
          Tracer::Scope s(&tracer, span::kAuditDense);
          dense = ilp::solve_ilp_dense_reference(*model);
        }
        if (dense.status != ilp::SolveStatus::kOptimal) {
          audit.inconclusive = true;
          audit.detail = "dense reference solver did not finish";
        } else {
          audit.tau_dense =
              static_cast<std::uint64_t>(std::llround(dense.objective));
          if (audit.tau_dense != opti.tau_wcet ||
              audit.tau_dense > orig.tau_wcet) {
            audit.violated = true;
            audit.detail = "dense reference disagrees";
          }
        }
      }
    }
    for (std::size_t m : members) {
      out[m].audit = audit;
      if (audit.violated)
        degrade(out[m], ErrorCode::kAuditFailed, "audit", audit.detail);
    }
    if (optimized_out &&
        out[members.front()].outcome == exp::CaseOutcome::kCompleted)
      *optimized_out = opt->program;
  }
  return true;
}

void begin_counting() {
  obs::registry().reset_values();
  obs::set_enabled(true);
}

void end_counting() { obs::set_enabled(false); }

void report_pipeline_layers(const Tracer& tracer, Report& report) {
  obs::Registry& reg = obs::registry();
  auto count = [&](const char* name) {
    return static_cast<double>(reg.counter(name).value());
  };
  const double evaluated = count("core.optimizer.candidates_evaluated");
  const double accepted = count("core.optimizer.insertions_accepted");
  report.metric("core.optimize_ms", tracer.total_ms(span::kOptimize), "ms");
  report.metric("core.optimize_calls", count("core.optimizer.runs"), "count");
  report.metric("core.candidates_evaluated", evaluated, "count");
  report.metric("core.insertions_accepted", accepted, "count");
  report.metric("core.accept_ratio", evaluated > 0 ? accepted / evaluated : 0,
                "ratio");

  report.metric("analysis.graph_build_ms", tracer.total_ms(span::kGraphBuild),
                "ms");
  report.metric("analysis.fixpoint_ms", tracer.total_ms(span::kFixpoint),
                "ms");
  report.metric("analysis.fixpoint_calls", count("analysis.cache.fixpoints"),
                "count");
  report.metric("analysis.worklist_pops", count("analysis.cache.worklist_pops"),
                "count");
  report.metric("analysis.nodes_reanalyzed",
                count("analysis.incremental.nodes_reanalyzed"), "count");

  report.metric("wcet.ipet_build_ms", tracer.total_ms(span::kIpetBuild), "ms");
  report.metric("wcet.lp_rows", static_cast<double>(trace_totals().lp_rows),
                "count");
  report.metric("ilp.solve_ms", tracer.total_ms(span::kIlpSolve), "ms");
  report.metric("ilp.solves", count("ilp.solve.lp_solves"), "count");
  report.metric("ilp.pivots", count("ilp.solve.pivots"), "count");

  const double sim_ms = tracer.total_ms(span::kSimRun);
  report.metric("sim.run_ms", sim_ms, "ms");
  report.metric("sim.runs", count("sim.interp.runs"), "count");
  report.metric("sim.instructions", count("sim.interp.instructions"), "count");
  report.metric("sim.minstr_per_s",
                sim_ms > 0 ? static_cast<double>(
                                 trace_totals().sim_instructions) /
                                 (sim_ms * 1e3)
                           : 0,
                "Minstr/s");

  report.metric("exp.audit_ms", tracer.total_ms(span::kAudit), "ms");
  report.metric("exp.audit_dense_calls",
                static_cast<double>(tracer.count(span::kAuditDense)), "count");
  report.metric("exp.audit_dense_ms", tracer.total_ms(span::kAuditDense), "ms");

  report.metric("exp.journal_open_ms", tracer.total_ms(span::kJournalOpen),
                "ms");
  report.metric("exp.journal_append_ms",
                tracer.total_ms(span::kJournalAppend), "ms");
  report.metric("exp.journal_appends",
                static_cast<double>(tracer.count(span::kJournalAppend)),
                "count");
}

}  // namespace ucpbench
