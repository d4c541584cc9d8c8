// Equivalence suite: the optimizer's incremental pipeline and the sweep's
// fast paths against from-scratch references.
//
// The optimizer judges every candidate through `IncrementalCacheAnalysis`
// (a sparse trial re-analysis plus a separable τ delta), and the sweep
// shares one analysis across tech nodes with identical derived timing.
// Both are only admissible because they change *no output bit*. The
// from-scratch references they are checked against live here, not in
// production options: every trial is deep-compared with a fresh
// `analyze_cache` of the trial program, every grouped row with the
// per-case row, and the SCC-sparse fixpoint and presolved ILP with the
// global-worklist fixpoint and the unreduced ILP. A mismatch here means the
// fast path is wrong, not that the test is stale.

#include <gtest/gtest.h>

#include <cstdint>
#include <optional>
#include <set>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "analysis/cache_analysis.hpp"
#include "analysis/context_graph.hpp"
#include "cache/config.hpp"
#include "core/optimizer.hpp"
#include "core/wcet_path.hpp"
#include "energy/model.hpp"
#include "exp/harness.hpp"
#include "fuzz/corpus.hpp"
#include "gen/generator.hpp"
#include "ir/layout.hpp"
#include "ir/program.hpp"
#include "obs/metrics.hpp"
#include "suite/suite.hpp"
#include "support/fault_injection.hpp"
#include "wcet/ipet.hpp"

namespace ucp::exp {
namespace {

void expect_rows_equal(const UseCaseResult& fast, const UseCaseResult& ref,
                       const std::string& what) {
  EXPECT_EQ(sweep_cache_row(fast), sweep_cache_row(ref)) << what;
  EXPECT_EQ(fast.outcome, ref.outcome) << what;
  EXPECT_EQ(fast.fail_stage, ref.fail_stage) << what;
  EXPECT_EQ(fast.fail_code, ref.fail_code) << what;
  EXPECT_EQ(fast.fail_detail, ref.fail_detail) << what;
}

std::vector<fuzz::CorpusEntry> committed_corpus() {
  std::vector<fuzz::CorpusEntry> entries;
  for (const std::string& path : fuzz::list_corpus_files(UCP_CORPUS_DIR)) {
    const auto entry = fuzz::read_corpus_entry(path);
    if (entry.ok()) entries.push_back(*entry);
  }
  return entries;
}

// --- trial-level oracle: incremental re-analysis vs from scratch ------------

using TrialResult = analysis::IncrementalCacheAnalysis::TrialResult;

void expect_layouts_equal(const ir::Layout& got, const ir::Layout& want,
                          const ir::Program& program,
                          const std::string& what) {
  EXPECT_EQ(got.code_bytes(), want.code_bytes()) << what;
  std::size_t mismatches = 0;
  for (ir::BlockId b = 0; b < program.num_blocks(); ++b) {
    if (got.block_start_address(b) != want.block_start_address(b))
      ++mismatches;
    for (const ir::Instruction& instr : program.block(b).instrs)
      if (got.address(instr.id) != want.address(instr.id)) ++mismatches;
  }
  EXPECT_EQ(mismatches, 0u) << what << ": layout addresses differ";
}

/// The memory blocks each instruction of `bb` touches: its own fetch, plus
/// the target of a prefetch.
std::vector<cache::MemBlockId> touched_blocks(const ir::BasicBlock& bb,
                                              const ir::Layout& layout) {
  std::vector<cache::MemBlockId> blocks;
  for (const ir::Instruction& instr : bb.instrs) {
    blocks.push_back(layout.mem_block(instr.id));
    if (instr.is_prefetch())
      blocks.push_back(layout.mem_block(instr.pf_target));
  }
  return blocks;
}

/// The contexts a trial can change, derived independently of the engine:
/// every node forward-reachable (back edges included) from a node whose
/// basic block touches different memory blocks in `trial` than in `base`.
std::vector<std::uint8_t> expected_affected(
    const analysis::ContextGraph& graph, const ir::Program& base,
    const ir::Layout& base_layout, const ir::Program& trial,
    const ir::Layout& trial_layout) {
  std::vector<std::uint8_t> changed(base.num_blocks(), 0);
  for (ir::BlockId b = 0; b < base.num_blocks(); ++b)
    changed[b] = touched_blocks(base.block(b), base_layout) !=
                 touched_blocks(trial.block(b), trial_layout);
  std::vector<std::uint8_t> affected(graph.num_nodes(), 0);
  std::vector<analysis::NodeId> stack;
  for (analysis::NodeId v = 0; v < graph.num_nodes(); ++v) {
    if (changed[graph.node(v).block]) {
      affected[v] = 1;
      stack.push_back(v);
    }
  }
  while (!stack.empty()) {
    const analysis::NodeId v = stack.back();
    stack.pop_back();
    for (std::uint32_t ei : graph.out_edges(v)) {
      const analysis::NodeId w = graph.edges()[ei].to;
      if (!affected[w]) {
        affected[w] = 1;
        stack.push_back(w);
      }
    }
  }
  return affected;
}

/// The classification walk the analysis no longer runs after its fixpoint:
/// replays `bb` from the converged in-state `in` and classifies each fetch
/// against the state it meets. Production emits the same rows from the
/// transfers that produced the fixpoint; this is the independent check.
std::vector<analysis::Classification> classify_from_in_state(
    const analysis::MustMay& in, const ir::BasicBlock& bb,
    const ir::Layout& layout) {
  analysis::MustMay state = in;
  std::vector<analysis::Classification> row;
  for (const ir::Instruction& instr : bb.instrs) {
    const cache::MemBlockId own = layout.mem_block(instr.id);
    row.push_back(state.must.must_contain(own)
                      ? analysis::Classification::kAlwaysHit
                  : !state.may.may_contain(own)
                      ? analysis::Classification::kAlwaysMiss
                      : analysis::Classification::kNotClassified);
    analysis::apply_instruction(state, instr, layout);
  }
  return row;
}

/// Every node's classification row must equal the walk from its in-state.
void expect_rows_match_in_states(const analysis::ContextGraph& graph,
                                 const ir::Program& program,
                                 const ir::Layout& layout,
                                 const analysis::CacheAnalysisResult& r,
                                 const std::string& what) {
  ASSERT_EQ(r.per_node.size(), graph.num_nodes()) << what;
  std::size_t bad = 0;
  for (analysis::NodeId v = 0; v < graph.num_nodes(); ++v)
    if (r.per_node[v] != classify_from_in_state(
                             r.in_states[v],
                             program.block(graph.node(v).block), layout))
      ++bad;
  EXPECT_EQ(bad, 0u) << what << ": rows differ from their in-state walks";
}

/// Deep comparison of a sparse trial against a from-scratch analysis of the
/// trial program. The trial must re-analyze exactly the contexts its edit
/// can reach from the current base (no more: a wider set would hide a stale
/// base; no fewer: a narrower one would keep stale states). Classifications
/// and in/out states of every affected node must equal the fresh fixpoint,
/// and every node outside the affected set must already hold the fresh
/// fixpoint in the base.
void expect_trial_matches_scratch(
    const analysis::ContextGraph& graph, const ir::Program& base,
    const analysis::IncrementalCacheAnalysis& incr, const TrialResult& t,
    const ir::Program& trial, const cache::CacheConfig& config,
    const std::string& what) {
  const ir::Layout layout(trial, config.block_bytes);
  expect_layouts_equal(t.layout, layout, trial, what);
  std::vector<std::uint8_t> affected(graph.num_nodes(), 0);
  for (const analysis::NodeId v : t.affected) affected[v] = 1;
  EXPECT_EQ(affected,
            expected_affected(graph, base, incr.layout(), trial, layout))
      << what << ": wrong affected set";

  const analysis::CacheAnalysisResult ref =
      analysis::analyze_cache(graph, trial, layout, config);
  const analysis::CacheAnalysisResult& base_result = incr.result();
  std::size_t bad_affected = 0;
  std::size_t bad_rows = 0;
  for (std::size_t i = 0; i < t.affected.size(); ++i) {
    const analysis::NodeId v = t.affected[i];
    if (t.cls[i] != ref.per_node[v] || !(t.in_states[i] == ref.in_states[v]) ||
        !(t.out_states[i] == ref.out_states[v]))
      ++bad_affected;
    if (t.cls[i] != classify_from_in_state(t.in_states[i],
                                           trial.block(graph.node(v).block),
                                           layout))
      ++bad_rows;
  }
  std::size_t bad_unaffected = 0;
  for (analysis::NodeId v = 0; v < graph.num_nodes(); ++v) {
    if (affected[v]) continue;
    if (base_result.per_node[v] != ref.per_node[v] ||
        !(base_result.in_states[v] == ref.in_states[v]) ||
        !(base_result.out_states[v] == ref.out_states[v]))
      ++bad_unaffected;
  }
  EXPECT_EQ(bad_affected, 0u) << what << ": affected nodes differ";
  EXPECT_EQ(bad_rows, 0u) << what
                          << ": trial rows differ from their in-state walks";
  EXPECT_EQ(bad_unaffected, 0u)
      << what << ": nodes outside the affected set differ";
}

struct OracleStats {
  std::size_t trials = 0;
  std::size_t promotions = 0;
};

/// Walks the optimizer's candidate stream on `input` for a few passes: the
/// WCET-path misses that have an evictor, each tried bare and with the
/// alignment nop, exactly as `optimize_prefetches` builds them. Every trial
/// is checked against a from-scratch analysis; the first trial of each pass
/// is promoted and the promoted base is checked too. Then the optimizer's
/// own fixed-counts τ of its output is recomputed from scratch.
void check_incremental_against_scratch(const ir::Program& input,
                                       const cache::CacheConfig& config,
                                       const cache::MemTiming& timing,
                                       const std::string& what,
                                       OracleStats& stats) {
  constexpr int kPasses = 3;
  constexpr std::size_t kCandidatesPerPass = 8;
  const analysis::ContextGraph graph(input);
  const wcet::IpetSystem ipet(graph);
  analysis::IncrementalCacheAnalysis incr(graph, input, config);
  expect_rows_match_in_states(graph, input, incr.layout(), incr.result(),
                              what + " base");
  const wcet::WcetResult wcet0 = ipet.solve(incr.result(), timing);
  ASSERT_TRUE(wcet0.ok()) << what;

  ir::Program p = input;
  std::set<std::pair<ir::InstrId, cache::MemBlockId>> tried;
  for (int pass = 0; pass < kPasses; ++pass) {
    const core::WcetPath path = core::build_wcet_path(
        graph, p, incr.layout(), config, timing, incr.result(), wcet0);
    std::size_t taken = 0;
    ir::Program promoted("unset");
    std::optional<TrialResult> first_trial;
    for (std::size_t k = path.refs.size(); k-- > 0;) {
      if (taken >= kCandidatesPerPass) break;
      const core::PathRef& ref = path.refs[k];
      if (!ref.path_miss || ref.is_prefetch || ref.evictor < 0) continue;
      if (ref.n_w == 0) continue;
      const ir::InstrId evictor =
          path.refs[static_cast<std::size_t>(ref.evictor)].instr;
      if (!tried.insert({evictor, ref.block}).second) continue;
      ++taken;
      for (int variant = 0; variant < 2; ++variant) {
        ir::Program trial = p;
        const ir::Program::InstrLocation loc = trial.locate(evictor);
        trial.insert(loc.block, loc.index + 1, core::make_prefetch(ref.instr));
        if (variant == 1) {
          ir::Instruction nop;
          nop.op = ir::Opcode::kNop;
          trial.insert(loc.block, loc.index + 2, nop);
        }
        TrialResult t = incr.analyze_trial(trial);
        ++stats.trials;
        expect_trial_matches_scratch(
            graph, p, incr, t, trial, config,
            what + " pass " + std::to_string(pass) + " trial " +
                std::to_string(stats.trials));
        if (!first_trial) {
          first_trial = std::move(t);
          promoted = std::move(trial);
        }
      }
    }
    if (!first_trial) break;
    incr.promote(promoted, std::move(*first_trial));
    p = std::move(promoted);
    ++stats.promotions;
    const std::string at = what + " promoted pass " + std::to_string(pass);
    const ir::Layout layout(p, config.block_bytes);
    expect_layouts_equal(incr.layout(), layout, p, at);
    const analysis::CacheAnalysisResult fresh =
        analysis::analyze_cache(graph, p, layout, config);
    EXPECT_EQ(incr.result().per_node, fresh.per_node) << at;
    EXPECT_EQ(incr.result().in_states, fresh.in_states) << at;
    EXPECT_EQ(incr.result().out_states, fresh.out_states) << at;
    expect_rows_match_in_states(graph, p, incr.layout(), incr.result(), at);
  }

  // The optimizer's τ bookkeeping end to end: its fixed-counts τ of the
  // output program, accumulated from separable deltas, must equal a
  // from-scratch τ under the input's frozen counts.
  const core::OptimizationResult opt =
      core::optimize_prefetches(input, config, timing, {}, &ipet);
  ASSERT_EQ(opt.report.code, ErrorCode::kOk) << what;
  const ir::Layout out_layout(opt.program, config.block_bytes);
  const analysis::CacheAnalysisResult out_cls =
      analysis::analyze_cache(graph, opt.program, out_layout, config);
  EXPECT_EQ(opt.report.tau_fixed_final,
            wcet::tau_with_fixed_counts(graph, out_cls, timing,
                                        wcet0.node_counts))
      << what;
  EXPECT_LE(opt.report.nodes_reanalyzed,
            opt.report.graph_nodes * opt.report.incremental_reanalyses)
      << what;
}

TEST(Equivalence, IncrementalTrialsMatchFromScratchAnalysis) {
  OracleStats stats;
  for (const std::string name : {"bs", "fdct", "crc"}) {
    const ir::Program p = suite::build_benchmark(name);
    for (const std::string cfg : {"k1", "k13", "k25", "k36"}) {
      const cache::CacheConfig& k = cache::paper_cache_config(cfg).config;
      check_incremental_against_scratch(
          p, k, energy::derive_timing(k, energy::TechNode::k45nm),
          name + "/" + cfg, stats);
    }
  }
  // Vacuity guard: the slice must exercise trials and promotions, or the
  // comparisons above check nothing.
  EXPECT_GT(stats.trials, 0u);
  EXPECT_GT(stats.promotions, 0u);
}

// Every committed corpus repro at its recorded configuration and on the
// smallest-capacity row of the grid (k1-k6), where its small working set
// still conflicts enough to put evicted misses on the WCET path.
TEST(Equivalence, IncrementalTrialsMatchFromScratchOnCorpusRepros) {
  const std::vector<fuzz::CorpusEntry> corpus = committed_corpus();
  ASSERT_FALSE(corpus.empty()) << "no committed corpus under " UCP_CORPUS_DIR;
  OracleStats stats;
  for (const fuzz::CorpusEntry& entry : corpus) {
    for (const std::string& cfg :
         {entry.config_id, std::string("k1"), std::string("k2"),
          std::string("k3"), std::string("k4"), std::string("k5"),
          std::string("k6")}) {
      const cache::CacheConfig& k = cache::paper_cache_config(cfg).config;
      check_incremental_against_scratch(
          entry.program, k, energy::derive_timing(k, energy::TechNode::k45nm),
          entry.name + "/" + cfg, stats);
    }
  }
  EXPECT_GT(stats.trials, 0u);
  EXPECT_GT(stats.promotions, 0u);
}

// --- tentpole layer 2: cross-tech result sharing ----------------------------

TEST(Equivalence, GroupPathMatchesPerCaseRows) {
  const std::vector<energy::TechNode> techs = {energy::TechNode::k45nm,
                                               energy::TechNode::k32nm};
  for (const std::string name : {"bs", "fdct", "crc"}) {
    const ir::Program p = suite::build_benchmark(name);
    for (const std::string cfg : {"k1", "k25"}) {
      const auto& k = cache::paper_cache_config(cfg);
      const std::vector<UseCaseResult> grouped =
          run_use_case_group(p, name, k, techs);
      ASSERT_EQ(grouped.size(), techs.size());
      for (std::size_t t = 0; t < techs.size(); ++t) {
        const UseCaseResult ref = run_use_case(p, name, k, techs[t]);
        expect_rows_equal(grouped[t], ref,
                          name + "/" + cfg + "/" +
                              energy::tech_name(techs[t]));
      }
    }
  }
}

// --- whole pipeline: fast sweep vs reference sweep --------------------------

TEST(Equivalence, FastSweepFingerprintMatchesReferenceSweep) {
  SweepOptions fast;
  fast.programs = {"bs", "fdct"};
  fast.config_stride = 12;  // k1, k13, k25
  fast.threads = 1;
  fast.progress_every = 0;
  const Sweep a = run_sweep(fast);

  // Reference: every case on its own through run_use_case, in grid order,
  // with no shared IPET system and no cross-tech grouping.
  std::vector<UseCaseResult> reference;
  for (const std::string& name : fast.programs) {
    const ir::Program p = suite::build_benchmark(name);
    for (std::size_t c = 0; c < cache::paper_cache_configs().size();
         c += fast.config_stride) {
      for (const energy::TechNode tech : fast.techs)
        reference.push_back(run_use_case(p, name,
                                         cache::paper_cache_configs()[c],
                                         tech));
    }
  }
  ASSERT_EQ(a.results.size(), reference.size());
  for (std::size_t i = 0; i < reference.size(); ++i)
    expect_rows_equal(a.results[i], reference[i], reference[i].program + "/" +
                                                      reference[i].config_id);
  EXPECT_EQ(sweep_results_fingerprint(a.results),
            sweep_results_fingerprint(reference));
  // Both sides run the same optimizer, so pin the slice's value too: it is
  // what the retired from-scratch optimizer produced on this slice.
  EXPECT_EQ(sweep_results_fingerprint(a.results), "0e18a96b6fbcd6a7");
  EXPECT_TRUE(a.report.clean());
}

// --- quarantined cases stay bit-identical too -------------------------------

TEST(Equivalence, DegradedCaseRowsMatchUnderReanalysisFault) {
  // core.reanalyze fires at the first candidate evaluation (fdct/k1 is
  // known to evaluate candidates); the case must degrade to the identity
  // transform: the original binary shipped, no insertions, and optimized
  // metrics that mirror the original ones.
  const ir::Program p = suite::build_benchmark("fdct");
  const auto& k = cache::paper_cache_config("k1");
  fault::disarm_all();
  const UseCaseResult clean =
      run_use_case(p, "fdct", k, energy::TechNode::k45nm);
  ASSERT_EQ(clean.outcome, CaseOutcome::kCompleted);
  ASSERT_GT(clean.report.candidates_evaluated, 0u);
  UseCaseResult r;
  {
    fault::ScopedFault f("core.reanalyze");
    r = run_use_case(p, "fdct", k, energy::TechNode::k45nm);
  }
  ASSERT_EQ(r.outcome, CaseOutcome::kDegraded);
  EXPECT_EQ(r.fail_code, ErrorCode::kAnalysisFailed);
  EXPECT_EQ(r.fail_stage, "optimize");
  EXPECT_TRUE(r.report.insertions.empty());
  EXPECT_EQ(r.report.tau_optimized, r.report.tau_original);
  EXPECT_EQ(r.optimized.tau_wcet, r.original.tau_wcet);
  EXPECT_EQ(r.optimized.run.mem_cycles, r.original.run.mem_cycles);
  EXPECT_EQ(r.optimized.run.instructions, r.original.run.instructions);
  EXPECT_EQ(r.optimized.run.total_cycles, r.original.run.total_cycles);
  EXPECT_EQ(r.optimized.run.cache.fetches, r.original.run.cache.fetches);
  EXPECT_EQ(r.optimized.run.cache.misses, r.original.run.cache.misses);
  EXPECT_EQ(r.optimized.energy.total_nj(), r.original.energy.total_nj());
  EXPECT_EQ(r.optimized.code_bytes, r.original.code_bytes);
  // The baseline itself is untouched by the fault.
  EXPECT_EQ(r.original.tau_wcet, clean.original.tau_wcet);
  EXPECT_EQ(r.original.run.mem_cycles, clean.original.run.mem_cycles);
  EXPECT_EQ(r.original.energy.total_nj(), clean.original.energy.total_nj());
}

// First configuration whose derived timing coincides across both tech
// nodes, i.e. whose two cases form a single shared group.
const cache::NamedCacheConfig& shared_timing_config() {
  for (const cache::NamedCacheConfig& named : cache::paper_cache_configs()) {
    const cache::MemTiming a =
        energy::derive_timing(named.config, energy::TechNode::k45nm);
    const cache::MemTiming b =
        energy::derive_timing(named.config, energy::TechNode::k32nm);
    if (a.hit_cycles == b.hit_cycles && a.miss_cycles == b.miss_cycles &&
        a.prefetch_latency == b.prefetch_latency) {
      return named;
    }
  }
  throw std::logic_error("no config with tech-invariant timing");
}

TEST(Equivalence, GroupPathDegradedRowsMatchPerCase) {
  // A one-shot optimizer fault against a single shared group must degrade
  // every member exactly like per-case runs that each hit the same fault.
  const ir::Program p = suite::build_benchmark("bs");
  const auto& k = shared_timing_config();
  const std::vector<energy::TechNode> techs = {energy::TechNode::k45nm,
                                               energy::TechNode::k32nm};
  fault::disarm_all();
  std::vector<UseCaseResult> grouped;
  {
    fault::ScopedFault f("core.deadline");
    grouped = run_use_case_group(p, "bs", k, techs);
  }
  ASSERT_EQ(grouped.size(), 2u);
  for (std::size_t t = 0; t < techs.size(); ++t) {
    fault::ScopedFault f("core.deadline");
    const UseCaseResult ref = run_use_case(p, "bs", k, techs[t]);
    ASSERT_EQ(ref.outcome, CaseOutcome::kDegraded);
    expect_rows_equal(grouped[t], ref,
                      std::string("bs deadline/") +
                          energy::tech_name(techs[t]));
  }
}

// --- solver-kernel fault gates ----------------------------------------------
// The sparse simplex consults ilp.pivot at every pivot and ilp.bb_node at
// every branch-and-bound node. A one-shot fault on either site must hit the
// same solve of the same use case on every run (the sweep schedule, the
// per-program system prebuild and the solver itself are all deterministic),
// quarantine exactly that case, and leave every row — including the
// quarantined one — bit-identical between repeats. This pins both the
// containment of solver budget exhaustion and the determinism of the
// warm-started branch-and-bound under it.

Sweep strided_sweep_with_fault(const char* site) {
  SweepOptions options;
  options.programs = {"bs", "fdct"};
  options.config_stride = 12;  // k1, k13, k25
  options.threads = 1;
  options.progress_every = 0;
  fault::ScopedFault f(site);
  return run_sweep(options);
}

void expect_solver_fault_contained(const char* site) {
  fault::disarm_all();
  const Sweep a = strided_sweep_with_fault(site);
  const Sweep b = strided_sweep_with_fault(site);

  // The fault must actually land: some case degrades or fails with the
  // solver's iteration-limit error code instead of vanishing silently.
  EXPECT_FALSE(a.report.clean()) << site;
  ASSERT_FALSE(a.report.quarantine.empty()) << site;
  bool saw_iteration_limit = false;
  for (const DegradedCase& q : a.report.quarantine)
    saw_iteration_limit |= q.code == ErrorCode::kIterationLimit;
  EXPECT_TRUE(saw_iteration_limit) << site;

  // And it must land identically every time.
  ASSERT_EQ(a.results.size(), b.results.size()) << site;
  EXPECT_EQ(sweep_results_fingerprint(a.results),
            sweep_results_fingerprint(b.results))
      << site;
  ASSERT_EQ(a.report.quarantine.size(), b.report.quarantine.size()) << site;
  for (std::size_t i = 0; i < a.report.quarantine.size(); ++i) {
    EXPECT_EQ(a.report.quarantine[i].program, b.report.quarantine[i].program)
        << site;
    EXPECT_EQ(a.report.quarantine[i].config_id,
              b.report.quarantine[i].config_id)
        << site;
    EXPECT_EQ(a.report.quarantine[i].stage, b.report.quarantine[i].stage)
        << site;
  }
}

TEST(Equivalence, PivotFaultQuarantinesDeterministically) {
  expect_solver_fault_contained("ilp.pivot");
}

TEST(Equivalence, BbNodeFaultQuarantinesDeterministically) {
  expect_solver_fault_contained("ilp.bb_node");
}

TEST(Equivalence, GroupPathFailedRowsMatchPerCase) {
  // Same idea for the hard-failure channel: a baseline measurement fault
  // fails all group members exactly like the per-case path.
  const ir::Program p = suite::build_benchmark("bs");
  const auto& k = shared_timing_config();
  const std::vector<energy::TechNode> techs = {energy::TechNode::k45nm,
                                               energy::TechNode::k32nm};
  fault::disarm_all();
  std::vector<UseCaseResult> grouped;
  {
    fault::ScopedFault f("exp.measure");
    grouped = run_use_case_group(p, "bs", k, techs);
  }
  ASSERT_EQ(grouped.size(), 2u);
  for (std::size_t t = 0; t < techs.size(); ++t) {
    fault::ScopedFault f("exp.measure");
    const UseCaseResult ref = run_use_case(p, "bs", k, techs[t]);
    ASSERT_EQ(ref.outcome, CaseOutcome::kFailed);
    EXPECT_EQ(ref.fail_stage, "measure_original");
    expect_rows_equal(grouped[t], ref,
                      std::string("bs measure/") +
                          energy::tech_name(techs[t]));
  }
}

// --- scaling layers: SCC-sparse fixpoint and ILP presolve -------------------
// The 100x-scaling work (SCC-condensation fixpoint driver with hash-consed
// abstract states; exact objective-independent ILP presolve) keeps the slow
// paths alive as differential oracles. These tests pin the equivalence on
// the paper grid and on every committed fuzz repro: the fast paths must be
// *result-identical*, not merely objective-identical.

// Capacity/associativity spectrum of the paper grid: smallest, largest and
// a stride through the middle (full 36-config coverage lives in the sweep
// fingerprint tests; this keeps the per-mode analysis pass inside the
// tier-1 budget while still crossing every program).
const std::vector<std::string>& grid_config_ids() {
  static const std::vector<std::string> ids = {"k1",  "k7",  "k13", "k19",
                                               "k25", "k31", "k36"};
  return ids;
}

// Deep equality of two whole-analysis results: classification of every
// (context node, instruction) reference plus the abstract in/out states at
// every node. State equality goes through AbstractCache::operator== (which
// compares content, with a pointer fast path), so a hash-consing bug that
// merged unequal states would fail here even if classifications agreed.
void expect_fixpoints_equal(const analysis::ContextGraph& graph,
                            const ir::Layout& layout,
                            const cache::CacheConfig& config,
                            const std::string& what) {
  const analysis::CacheAnalysisResult sparse = analysis::analyze_cache(
      graph, layout, config, analysis::FixpointMode::kSccSparse);
  const analysis::CacheAnalysisResult legacy = analysis::analyze_cache(
      graph, layout, config, analysis::FixpointMode::kGlobalWorklist);
  EXPECT_EQ(sparse.per_node, legacy.per_node) << what;
  EXPECT_EQ(sparse.in_states, legacy.in_states) << what;
  EXPECT_EQ(sparse.out_states, legacy.out_states) << what;
  expect_rows_match_in_states(graph, graph.program(), layout, sparse,
                              what + " scc-sparse");
  expect_rows_match_in_states(graph, graph.program(), layout, legacy,
                              what + " global-worklist");
}

TEST(Equivalence, SccSparseFixpointMatchesGlobalWorklistOnPaperGrid) {
  for (const suite::BenchmarkInfo& info : suite::all_benchmarks()) {
    const ir::Program p = suite::build_benchmark(info.name);
    const analysis::ContextGraph graph(p);
    for (const std::string& cfg : grid_config_ids()) {
      const cache::CacheConfig& k = cache::paper_cache_config(cfg).config;
      const ir::Layout layout(p, k.block_bytes);
      expect_fixpoints_equal(graph, layout, k,
                             std::string(info.name) + "/" + cfg);
    }
  }
}

// Presolved and unpresolved IPET systems over the same graph must agree on
// the full solve *result* — status, tau, and the worst-case flow solution
// (node and edge counts) — not just the objective. The expand_values
// replay (fixed vars, alias roots, reverse-order substitutions) is what
// this pins: a wrong expansion with the right objective would slip past an
// objective-only check but corrupts the optimizer's profit criterion,
// which consumes the counts.
void expect_solves_equal(const wcet::IpetSystem& fast,
                         const wcet::IpetSystem& slow,
                         const analysis::CacheAnalysisResult& cls,
                         const cache::MemTiming& timing,
                         const std::string& what) {
  const wcet::WcetResult a = fast.solve(cls, timing);
  const wcet::WcetResult b = slow.solve(cls, timing);
  EXPECT_EQ(a.status, b.status) << what;
  EXPECT_EQ(a.tau_mem, b.tau_mem) << what;
  EXPECT_EQ(a.node_counts, b.node_counts) << what;
  EXPECT_EQ(a.edge_counts, b.edge_counts) << what;
  EXPECT_EQ(a.ref_cycles, b.ref_cycles) << what;
}

TEST(Equivalence, PresolvedIpetMatchesUnpresolvedOnPaperGrid) {
  bool saw_reduction = false;
  for (const suite::BenchmarkInfo& info : suite::all_benchmarks()) {
    const ir::Program p = suite::build_benchmark(info.name);
    const analysis::ContextGraph graph(p);
    const wcet::IpetSystem fast(graph, wcet::IpetOptions{true});
    const wcet::IpetSystem slow(graph, wcet::IpetOptions{false});
    EXPECT_LE(fast.lp_rows(), slow.lp_rows()) << info.name;
    saw_reduction |= fast.lp_rows() < slow.lp_rows();
    for (const std::string& cfg : grid_config_ids()) {
      const cache::CacheConfig& k = cache::paper_cache_config(cfg).config;
      const ir::Layout layout(p, k.block_bytes);
      const analysis::CacheAnalysisResult cls =
          analysis::analyze_cache(graph, layout, k);
      const cache::MemTiming timing =
          energy::derive_timing(k, energy::TechNode::k45nm);
      expect_solves_equal(fast, slow, cls, timing,
                          std::string(info.name) + "/" + cfg);
    }
  }
  // Vacuity guard: presolve must actually engage somewhere on the grid.
  EXPECT_TRUE(saw_reduction);
}

// Every committed fuzz repro (found by the soundness campaign, i.e. the
// programs that historically broke something) goes through both oracles
// too, at its recorded replay configuration.
TEST(Equivalence, FastPathsMatchLegacyOraclesOnCorpusRepros) {
  const std::vector<fuzz::CorpusEntry> corpus = committed_corpus();
  ASSERT_FALSE(corpus.empty()) << "no committed corpus under " UCP_CORPUS_DIR;
  for (const fuzz::CorpusEntry& entry : corpus) {
    const cache::CacheConfig& k =
        cache::paper_cache_config(entry.config_id).config;
    const analysis::ContextGraph graph(entry.program);
    const ir::Layout layout(entry.program, k.block_bytes);
    expect_fixpoints_equal(graph, layout, k, entry.name);

    const wcet::IpetSystem fast(graph, wcet::IpetOptions{true});
    const wcet::IpetSystem slow(graph, wcet::IpetOptions{false});
    const analysis::CacheAnalysisResult cls =
        analysis::analyze_cache(graph, layout, k);
    const cache::MemTiming timing =
        energy::derive_timing(k, energy::TechNode::k45nm);
    expect_solves_equal(fast, slow, cls, timing, entry.name);
  }
}

// Checks that `r` is an optimal worst-case flow of the *unreduced* IPET
// model: every row holds and the objective equals r.tau_mem. The model's
// variables are the context edges (edge e is VarId e), then the source
// arc, then one sink arc per exit node.
void expect_flow_optimal_in_unreduced_model(
    const wcet::IpetSystem& unreduced, const wcet::WcetResult& r,
    const analysis::CacheAnalysisResult& cls, const cache::MemTiming& timing,
    const std::string& what) {
  const analysis::ContextGraph& graph = unreduced.graph();
  const ilp::Model model = unreduced.model_with_objective(cls, timing);
  const std::size_t edges = graph.edges().size();
  ASSERT_EQ(model.num_vars(), edges + 1 + graph.exit_nodes().size()) << what;
  std::vector<double> x(model.num_vars(), 0.0);
  for (std::size_t e = 0; e < edges; ++e)
    x[e] = static_cast<double>(r.edge_counts[e]);
  x[edges] = 1.0;
  for (std::size_t i = 0; i < graph.exit_nodes().size(); ++i) {
    const analysis::NodeId v = graph.exit_nodes()[i];
    double out = 0.0;
    for (std::uint32_t ei : graph.out_edges(v))
      out += static_cast<double>(r.edge_counts[ei]);
    x[edges + 1 + i] = static_cast<double>(r.node_counts[v]) - out;
  }
  for (std::size_t j = 0; j < x.size(); ++j) {
    EXPECT_GE(x[j], model.var(static_cast<ilp::VarId>(j)).lower) << what;
    EXPECT_LE(x[j], model.var(static_cast<ilp::VarId>(j)).upper) << what;
  }
  std::size_t violated = 0;
  for (const ilp::Model::Constraint& row : model.constraints()) {
    double activity = 0.0;
    for (const ilp::Term& t : row.terms) activity += t.coeff * x[t.var];
    const bool holds = row.rel == ilp::Rel::kEq   ? activity == row.rhs
                       : row.rel == ilp::Rel::kLe ? activity <= row.rhs
                                                  : activity >= row.rhs;
    if (!holds) ++violated;
  }
  EXPECT_EQ(violated, 0u) << what << ": flow violates the unreduced model";
  double objective = 0.0;
  for (const ilp::Term& t : model.objective()) objective += t.coeff * x[t.var];
  EXPECT_EQ(objective, static_cast<double>(r.tau_mem)) << what;
}

// The fixed-seed 10x program of the scaling_smoke ctest (bench_scaling
// --smoke: seed 901010, 240 target blocks, loop depth 2, 1024-word working
// set, on its 2-way 16-byte-block 1 KiB cache) goes through both oracles at
// a size the paper suite never reaches. The fixpoints must be identical.
// The two IPET systems must agree on status, τ and per-reference cycles,
// and each returned flow must be optimal in the unreduced model. They may
// pick different optimal flows here: this program's LP has alternative
// optima, and the presolved and unreduced simplex reach different vertices.
// The optimizer must still produce the same result over either system.
TEST(Equivalence, FastPathsMatchLegacyOraclesOnScalingSmokeProgram) {
  gen::GenKnobs knobs;
  knobs.target_blocks = 240;
  knobs.max_loop_depth = 2;
  knobs.working_set_words = 1024;
  const ir::Program p = gen::generate_program(901010, knobs);
  cache::CacheConfig k;
  k.assoc = 2;
  k.block_bytes = 16;
  k.capacity_bytes = 1024;
  const cache::MemTiming timing;
  const std::string what = "scaling smoke 10x";

  const analysis::ContextGraph graph(p);
  const ir::Layout layout(p, k.block_bytes);
  expect_fixpoints_equal(graph, layout, k, what);

  const wcet::IpetSystem fast(graph, wcet::IpetOptions{true});
  const wcet::IpetSystem slow(graph, wcet::IpetOptions{false});
  EXPECT_LT(fast.lp_rows(), slow.lp_rows());
  const analysis::CacheAnalysisResult cls =
      analysis::analyze_cache(graph, layout, k);
  const wcet::WcetResult a = fast.solve(cls, timing);
  const wcet::WcetResult b = slow.solve(cls, timing);
  ASSERT_TRUE(a.ok()) << what;
  EXPECT_EQ(a.status, b.status) << what;
  EXPECT_EQ(a.tau_mem, b.tau_mem) << what;
  EXPECT_EQ(a.ref_cycles, b.ref_cycles) << what;
  expect_flow_optimal_in_unreduced_model(slow, a, cls, timing, what);
  expect_flow_optimal_in_unreduced_model(slow, b, cls, timing, what);

  core::OptimizerOptions options;
  options.max_evaluations = 96;  // bench_scaling's budget
  const core::OptimizationResult opt_fast =
      core::optimize_prefetches(p, k, timing, options, &fast);
  const core::OptimizationResult opt_slow =
      core::optimize_prefetches(p, k, timing, options, &slow);
  EXPECT_EQ(opt_fast.report.tau_original, opt_slow.report.tau_original);
  EXPECT_EQ(opt_fast.report.tau_optimized, opt_slow.report.tau_optimized);
  EXPECT_EQ(opt_fast.report.insertions.size(),
            opt_slow.report.insertions.size());
}

// --- pivot-counter reconciliation -------------------------------------------
// The one-time accounting discrepancy between exp.sweep.pivots (882312,
// row-derived) and ilp.solve.pivots (805824, live) was the sparse LP's
// phase-1 *construction* pivots: charge_construction folds them into the
// row-side aggregate exactly once per shared IpetSystem, while the live
// counter only ever sees per-solve work. With construction published as
// its own live counter, the books must balance exactly on a clean run
// (single attempt, no retry, no resume, no cache):
//
//   exp.sweep.pivots == ilp.solve.pivots + ilp.solve.construction_pivots

std::uint64_t counter_value(const obs::Snapshot& snap, const char* name) {
  for (const auto& [n, v] : snap.counters)
    if (n == name) return v;
  return 0;
}

TEST(Equivalence, SweepPivotCountersReconcile) {
  fault::disarm_all();
  const bool was_enabled = obs::enabled();
  obs::set_enabled(true);
  const obs::Snapshot before = obs::registry().snapshot();

  SweepOptions options;
  options.programs = {"bs", "crc"};
  options.config_stride = 12;  // k1, k13, k25
  options.threads = 1;
  options.progress_every = 0;
  // run_sweep publishes its own row-derived counters on completion (the
  // exp.sweep.* deltas below); calling publish_sweep_metrics again here
  // would double them.
  const Sweep sweep = run_sweep(options);

  const obs::Snapshot after = obs::registry().snapshot();
  obs::set_enabled(was_enabled);

  // The identity only holds when every solve's work landed in exactly one
  // row: no retries (double-counted attempts) and no degraded/failed rows.
  ASSERT_TRUE(sweep.report.clean());
  ASSERT_EQ(sweep.report.retried, 0u);

  auto delta = [&](const char* name) {
    return counter_value(after, name) - counter_value(before, name);
  };
  const std::uint64_t live_solve = delta("ilp.solve.pivots");
  const std::uint64_t live_construction =
      delta("ilp.solve.construction_pivots");
  const std::uint64_t row_total = delta("exp.sweep.pivots");
  const std::uint64_t row_construction =
      delta("exp.sweep.construction_pivots");

  // The slice must do real solver work, or the identity is vacuous.
  EXPECT_GT(live_solve, 0u);
  EXPECT_GT(live_construction, 0u);
  EXPECT_EQ(row_total, live_solve + live_construction);
  EXPECT_EQ(row_construction, live_construction);
}

}  // namespace
}  // namespace ucp::exp
