#pragma once

#include "common.hpp"

namespace ucpbench {

/// The paper's grid through exp::run_sweep: every suite program × the 36
/// Table-2 configurations × both technology nodes, one worker, auditor +
/// 3-rung ladder + sweep journal on. The seed shuffles the program list,
/// which only breaks ties in the sweep's heaviest-first schedule.
Report run_grid(const Args& args);

/// Generated programs at 30×–60× the suite median, each (program,
/// configuration) case alone through exp::run_use_case_group.
Report run_large(const Args& args);

/// An in-process serve::Server fed a seeded list of fresh, repeated and
/// re-sent requests over one closed-loop connection.
Report run_serve(const Args& args);

/// Appends the end-to-end metrics (as metrics, or as information lines in a
/// traced run) plus the timed wall and CPU time.
void report_end_to_end(double setup_s, double cases, double wall_s,
                       double cpu_s, Report& report, bool as_info);

/// Appends the serve-layer per-layer metrics as zeros (grid and large do not
/// exercise that layer) so every traced run names the same metrics.
void report_idle_serve_layer(Report& report);

/// Appends run.dark_pct and run.trace_overhead_pct.
void report_run_layer(double dark_pct, double traced_s, double untraced_s,
                      Report& report);

}  // namespace ucpbench
