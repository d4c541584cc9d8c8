#pragma once
// The traced pipeline: the calls `exp::run_use_case_group` makes, made one
// layer at a time from the benchmark's own code so that each call gets one
// span. Same order and same sharing as the library — one analysis and one
// optimization per timing group, one IpetSystem per program — so the rows
// it produces must equal the untraced run's rows byte for byte.

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "analysis/context_graph.hpp"
#include "cache/config.hpp"
#include "common.hpp"
#include "core/optimizer.hpp"
#include "energy/model.hpp"
#include "exp/harness.hpp"
#include "ir/program.hpp"
#include "wcet/ipet.hpp"

namespace ucpbench {

/// One program's context graph plus IPET system, built under spans.
struct TracedProgram {
  std::unique_ptr<ucp::analysis::ContextGraph> graph;
  std::unique_ptr<ucp::wcet::IpetSystem> ipet;
};

TracedProgram build_traced_program(const ucp::ir::Program& program,
                                   Tracer& tracer);

/// Traced counterpart of exp::run_use_case_group with the auditor on.
/// `optimized_out` (optional) receives the program the group vouches for,
/// as in the library. Returns false, with `why`, if a stage failed: the
/// untraced run completed every case, so a failure here is a mismatch.
bool run_traced_group(const ucp::ir::Program& program,
                      const std::string& program_name,
                      const ucp::cache::NamedCacheConfig& config,
                      const std::vector<ucp::energy::TechNode>& techs,
                      const ucp::core::OptimizerOptions& options,
                      const ucp::wcet::IpetSystem& ipet, Tracer& tracer,
                      std::vector<ucp::exp::UseCaseResult>& out,
                      std::string& why,
                      ucp::ir::Program* optimized_out = nullptr);

/// Span names of the wrapped calls.
namespace span {
inline constexpr char kGraphBuild[] = "analysis.graph_build";
inline constexpr char kFixpoint[] = "analysis.fixpoint";
inline constexpr char kIpetBuild[] = "wcet.ipet_build";
inline constexpr char kIlpSolve[] = "ilp.solve";
inline constexpr char kSimRun[] = "sim.run";
inline constexpr char kEnergy[] = "energy.price";
inline constexpr char kOptimize[] = "core.optimize";
inline constexpr char kAudit[] = "exp.audit";
inline constexpr char kAuditModel[] = "exp.audit_model";
inline constexpr char kAuditDense[] = "exp.audit_dense";
inline constexpr char kJournalOpen[] = "exp.journal_open";
inline constexpr char kJournalAppend[] = "exp.journal_append";
inline constexpr char kServeRequest[] = "serve.request";
inline constexpr char kRequestJournalOpen[] = "serve.journal_open";
inline constexpr char kRequestJournalAppend[] = "serve.journal_append";
inline constexpr char kRequestJournalFind[] = "serve.journal_find";
}  // namespace span

/// Sums the work counts the traced pass needs: simulated instructions of
/// the wrapped simulator calls and the LP rows of every IPET system built.
struct TraceTotals {
  std::uint64_t sim_instructions = 0;
  std::uint64_t lp_rows = 0;
};
TraceTotals& trace_totals();

/// Per-layer metrics of the pipeline layers (core, analysis, wcet/ilp, sim,
/// exp audit and journal), from the spans and the obs registry counters.
/// The serve and run metrics are appended by the caller.
void report_pipeline_layers(const Tracer& tracer, Report& report);

/// Zeroes the obs registry and turns counting on (traced pass only).
void begin_counting();
void end_counting();

}  // namespace ucpbench
